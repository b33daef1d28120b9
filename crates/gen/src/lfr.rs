//! LFR-style community benchmark (Lancichinetti–Fortunato–Radicchi
//! flavour): power-law degrees, power-law community sizes, and an explicit
//! mixing parameter `μ` controlling the fraction of each vertex's edges
//! that leave its community.
//!
//! This is the standard stress test for community detectors: quality
//! should degrade gracefully as `μ → 0.5` and collapse beyond. The
//! generator is simplified from full LFR (stub counts are drawn per vertex
//! rather than matched exactly) but preserves the three defining knobs.

use crate::sbm::pareto_int;
use pcd_graph::{builder, Graph};
use pcd_util::par::prelude::*;
use pcd_util::rng::stream;
use pcd_util::rng::Rng;
use pcd_util::{VertexId, Weight};

/// LFR-style parameters.
#[derive(Debug, Clone, Copy)]
pub struct LfrParams {
    /// Total vertex count.
    pub num_vertices: usize,
    /// Degree bounds and power-law exponent (classic LFR: τ1 ≈ 2–3).
    pub min_degree: usize,
    /// Largest drawn degree.
    pub max_degree: usize,
    /// Pareto shape of the degree distribution (τ1).
    pub degree_exponent: f64,
    /// Community size bounds and exponent (classic LFR: τ2 ≈ 1–2).
    pub min_community: usize,
    /// Largest community size.
    pub max_community: usize,
    /// Pareto shape of community sizes (τ2).
    pub community_exponent: f64,
    /// Fraction of each vertex's edges leaving its community, in `[0, 1)`.
    pub mixing: f64,
    /// RNG seed.
    pub seed: u64,
}

impl LfrParams {
    /// A standard benchmark instance at the given size and mixing.
    pub fn benchmark(num_vertices: usize, mixing: f64, seed: u64) -> Self {
        LfrParams {
            num_vertices,
            min_degree: 5,
            max_degree: (num_vertices / 20).max(10),
            degree_exponent: 2.5,
            min_community: 10,
            max_community: (num_vertices / 10).max(20),
            community_exponent: 1.5,
            mixing,
            seed,
        }
    }
}

/// A generated LFR-style graph with its planted assignment.
#[derive(Debug)]
pub struct LfrGraph {
    /// The generated graph.
    pub graph: Graph,
    /// Planted community per vertex.
    pub ground_truth: Vec<VertexId>,
    /// Number of planted communities.
    pub num_communities: usize,
}

/// Generates the LFR-style graph; deterministic and thread-independent.
pub fn lfr_graph(p: &LfrParams) -> LfrGraph {
    assert!((0.0..1.0).contains(&p.mixing));
    assert!(p.min_degree >= 1 && p.max_degree >= p.min_degree);

    // Community layout (sequential, cheap).
    let mut rng = stream(p.seed, u64::MAX);
    let mut sizes = Vec::new();
    let mut covered = 0usize;
    while covered < p.num_vertices {
        let s = pareto_int(
            &mut rng,
            p.min_community,
            p.max_community,
            p.community_exponent,
        )
        .min(p.num_vertices - covered);
        sizes.push(s);
        covered += s;
    }
    let mut start = Vec::with_capacity(sizes.len());
    let mut acc = 0;
    for &s in &sizes {
        start.push(acc);
        acc += s;
    }
    let mut ground_truth = vec![0u32; p.num_vertices];
    for (c, (&st, &sz)) in start.iter().zip(sizes.iter()).enumerate() {
        ground_truth[st..st + sz]
            .iter_mut()
            .for_each(|g| *g = c as u32);
    }

    // Per-vertex degree draws and partner selection.
    let edges: Vec<(VertexId, VertexId, Weight)> = (0..p.num_vertices as u64)
        .into_par_iter()
        .flat_map_iter(|v| {
            let mut rng = stream(p.seed, v);
            let vu = v as usize;
            let c = ground_truth[vu] as usize;
            let (st, sz) = (start[c], sizes[c]);
            // Power-law degree; halve because both endpoints draw stubs.
            let d = pareto_int(&mut rng, p.min_degree, p.max_degree, p.degree_exponent);
            let d_half = (d as f64 / 2.0).ceil() as usize;
            let d_ext = (d_half as f64 * p.mixing).round() as usize;
            let d_int = (d_half - d_ext).min(4 * sz);
            let mut out = Vec::with_capacity(d_half);
            if sz > 1 {
                for _ in 0..d_int {
                    let mut u = st + rng.gen_range(0..sz);
                    if u == vu {
                        u = st + (u - st + 1) % sz;
                    }
                    out.push((v as u32, u as u32, 1u64));
                }
            }
            for _ in 0..d_ext {
                let mut u = rng.gen_range(0..p.num_vertices);
                if u == vu {
                    u = (u + 1) % p.num_vertices;
                }
                out.push((v as u32, u as u32, 1u64));
            }
            out
        })
        .collect();

    LfrGraph {
        graph: builder::from_edges(p.num_vertices, edges),
        ground_truth,
        num_communities: sizes.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_valid_graph() {
        let g = lfr_graph(&LfrParams::benchmark(2_000, 0.2, 1));
        assert_eq!(g.graph.validate(), Ok(()));
        assert_eq!(g.ground_truth.len(), 2_000);
        assert!(g.num_communities > 1);
    }

    #[test]
    fn mixing_controls_external_fraction() {
        let ext_fraction = |mu: f64| {
            let g = lfr_graph(&LfrParams::benchmark(3_000, mu, 7));
            let (mut intra, mut inter) = (0u64, 0u64);
            for (i, j, w) in g.graph.edges() {
                if g.ground_truth[i as usize] == g.ground_truth[j as usize] {
                    intra += w;
                } else {
                    inter += w;
                }
            }
            inter as f64 / (intra + inter) as f64
        };
        let low = ext_fraction(0.1);
        let high = ext_fraction(0.4);
        assert!(low < high, "low {low} vs high {high}");
        // The measured mixing should be in the right neighbourhood (random
        // external partners may land internally, so allow slack).
        assert!((0.03..0.30).contains(&low), "low = {low}");
        assert!((0.25..0.60).contains(&high), "high = {high}");
    }

    #[test]
    fn deterministic() {
        let p = LfrParams::benchmark(1_000, 0.3, 4);
        let a = lfr_graph(&p);
        let b = lfr_graph(&p);
        assert_eq!(a.graph.srcs(), b.graph.srcs());
        assert_eq!(a.ground_truth, b.ground_truth);
    }

    #[test]
    fn degrees_follow_power_law_shape() {
        let g = lfr_graph(&LfrParams::benchmark(5_000, 0.2, 9));
        let csr = pcd_graph::Csr::from_graph(&g.graph);
        let s = pcd_graph::stats::degree_stats(&csr);
        assert!(s.max as f64 > 4.0 * s.mean, "max {} mean {}", s.max, s.mean);
    }
}
