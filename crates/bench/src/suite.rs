//! The evaluation graph suite (paper Table II).
//!
//! Three graphs mirroring the paper's roles:
//! * `rmat-<s>-16` — artificial scale-free R-MAT, largest component;
//! * `sbm-lj`      — LiveJournal stand-in (planted partition);
//! * `web-uk`      — uk-2007-05 stand-in (hierarchical web-like).

use pcd_gen::{rmat_graph, sbm_graph, web_graph, RmatParams, SbmParams, WebParams};
use pcd_graph::Graph;

/// A graph with its display name and optional planted ground truth.
#[derive(Debug)]
pub struct NamedGraph {
    pub name: String,
    pub graph: Graph,
    pub ground_truth: Option<Vec<u32>>,
}

/// Suite scale knobs (defaults sized for a small host; raise on big iron).
#[derive(Debug, Clone, Copy)]
pub struct SuiteParams {
    pub rmat_scale: u32,
    pub sbm_vertices: usize,
    pub web_vertices: usize,
    pub seed: u64,
}

impl Default for SuiteParams {
    fn default() -> Self {
        SuiteParams {
            rmat_scale: 15,
            sbm_vertices: 60_000,
            web_vertices: 120_000,
            seed: 42,
        }
    }
}

/// Builds the three-graph evaluation suite.
pub fn default_suite(p: &SuiteParams) -> Vec<NamedGraph> {
    let rmat = rmat_graph(&RmatParams::paper(p.rmat_scale, p.seed));
    let sbm = sbm_graph(&SbmParams::livejournal_like(p.sbm_vertices, p.seed + 1));
    let web = web_graph(&WebParams::uk_like(p.web_vertices, p.seed + 2));
    vec![
        NamedGraph {
            name: format!("rmat-{}-16", p.rmat_scale),
            graph: rmat,
            ground_truth: None,
        },
        NamedGraph {
            name: "sbm-lj".into(),
            graph: sbm.graph,
            ground_truth: Some(sbm.ground_truth),
        },
        NamedGraph {
            name: "web-uk".into(),
            graph: web.graph,
            ground_truth: Some(web.site_of),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_suite_builds() {
        let p = SuiteParams {
            rmat_scale: 8,
            sbm_vertices: 500,
            web_vertices: 800,
            seed: 1,
        };
        let suite = default_suite(&p);
        assert_eq!(suite.len(), 3);
        for g in &suite {
            assert!(g.graph.num_edges() > 0, "{} empty", g.name);
            assert_eq!(g.graph.validate(), Ok(()), "{} invalid", g.name);
        }
        assert!(suite[1].ground_truth.is_some());
        assert!(suite[2].ground_truth.is_some());
    }
}
