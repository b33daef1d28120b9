//! Agreement between two community assignments: normalised mutual
//! information and the adjusted Rand index. Used to score detected
//! communities against the planted ground truth of generated graphs.

use pcd_util::VertexId;
use std::collections::HashMap;

/// Joint, `a`-marginal and `b`-marginal label counts.
type Contingency = (
    HashMap<(u32, u32), u64>,
    HashMap<u32, u64>,
    HashMap<u32, u64>,
);

/// Joint contingency counts between two assignments.
fn contingency(a: &[VertexId], b: &[VertexId]) -> Contingency {
    assert_eq!(a.len(), b.len());
    let mut joint: HashMap<(u32, u32), u64> = HashMap::new();
    let mut ma: HashMap<u32, u64> = HashMap::new();
    let mut mb: HashMap<u32, u64> = HashMap::new();
    for (&x, &y) in a.iter().zip(b.iter()) {
        *joint.entry((x, y)).or_insert(0) += 1;
        *ma.entry(x).or_insert(0) += 1;
        *mb.entry(y).or_insert(0) += 1;
    }
    (joint, ma, mb)
}

/// Normalised mutual information in `[0, 1]`:
/// `NMI = 2·I(A;B) / (H(A) + H(B))`, with the convention that two
/// assignments that are both single-cluster (zero entropy) agree perfectly.
pub fn normalized_mutual_information(a: &[VertexId], b: &[VertexId]) -> f64 {
    if a.is_empty() {
        return 1.0;
    }
    let n = a.len() as f64;
    let (joint, ma, mb) = contingency(a, b);
    let h = |m: &HashMap<u32, u64>| -> f64 {
        m.values()
            .map(|&c| {
                let p = c as f64 / n;
                -p * p.ln()
            })
            .sum()
    };
    let ha = h(&ma);
    let hb = h(&mb);
    if ha == 0.0 && hb == 0.0 {
        return 1.0;
    }
    let mut mi = 0.0;
    for (&(x, y), &c) in &joint {
        let pxy = c as f64 / n;
        let px = ma[&x] as f64 / n;
        let py = mb[&y] as f64 / n;
        mi += pxy * (pxy / (px * py)).ln();
    }
    (2.0 * mi / (ha + hb)).clamp(0.0, 1.0)
}

/// Adjusted Rand index in `[-1, 1]` (1 = identical clustering, ~0 = random
/// agreement).
pub fn adjusted_rand_index(a: &[VertexId], b: &[VertexId]) -> f64 {
    if a.is_empty() {
        return 1.0;
    }
    let n = a.len() as f64;
    let (joint, ma, mb) = contingency(a, b);
    let choose2 = |x: u64| -> f64 {
        let x = x as f64;
        x * (x - 1.0) / 2.0
    };
    let sum_ij: f64 = joint.values().map(|&c| choose2(c)).sum();
    let sum_a: f64 = ma.values().map(|&c| choose2(c)).sum();
    let sum_b: f64 = mb.values().map(|&c| choose2(c)).sum();
    let total = choose2(n as u64);
    let expected = sum_a * sum_b / total;
    let max_index = 0.5 * (sum_a + sum_b);
    if (max_index - expected).abs() < 1e-12 {
        return 1.0;
    }
    (sum_ij - expected) / (max_index - expected)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_assignments_score_one() {
        let a = vec![0u32, 0, 1, 1, 2, 2];
        assert!((normalized_mutual_information(&a, &a) - 1.0).abs() < 1e-12);
        assert!((adjusted_rand_index(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn relabelled_assignments_score_one() {
        let a = vec![0u32, 0, 1, 1, 2, 2];
        let b = vec![5u32, 5, 9, 9, 7, 7];
        assert!((normalized_mutual_information(&a, &b) - 1.0).abs() < 1e-12);
        assert!((adjusted_rand_index(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn orthogonal_assignments_score_low() {
        // a splits front/back, b splits even/odd: independent.
        let a = vec![0u32, 0, 0, 0, 1, 1, 1, 1];
        let b = vec![0u32, 1, 0, 1, 0, 1, 0, 1];
        assert!(normalized_mutual_information(&a, &b) < 0.2);
        assert!(adjusted_rand_index(&a, &b).abs() < 0.2);
    }

    #[test]
    fn single_cluster_pair_convention() {
        let a = vec![0u32; 5];
        assert_eq!(normalized_mutual_information(&a, &a), 1.0);
        assert_eq!(adjusted_rand_index(&a, &a), 1.0);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(normalized_mutual_information(&[], &[]), 1.0);
        assert_eq!(adjusted_rand_index(&[], &[]), 1.0);
    }

    #[test]
    fn partial_agreement_between_zero_and_one() {
        let a = vec![0u32, 0, 0, 1, 1, 1];
        let b = vec![0u32, 0, 1, 1, 1, 1];
        let nmi = normalized_mutual_information(&a, &b);
        let ari = adjusted_rand_index(&a, &b);
        assert!(nmi > 0.0 && nmi < 1.0, "nmi = {nmi}");
        assert!(ari > 0.0 && ari < 1.0, "ari = {ari}");
    }
}
