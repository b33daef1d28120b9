//! Parallel prefix sums and order-preserving stream compaction.
//!
//! Contraction assigns new vertex ids and bucket offsets with an exclusive
//! prefix sum (§IV-C of the paper mentions "synchronizing on a prefix sum to
//! compute bucket offsets"). The implementation is the classic two-pass
//! blocked scan: per-block sums, a sequential scan over the (few) block
//! totals, then a parallel fix-up pass.
//!
//! [`Compactor`] builds the same two-pass structure into a reusable
//! keep-flag compaction: fixed chunks count their survivors, a prefix sum
//! assigns each chunk a stable output offset, and a scatter pass writes
//! survivors in order. Unlike `par_iter().filter().collect()` it is
//! allocation-free at steady state (the chunk-count buffer and the output
//! vector retain capacity) and its output order is the input order by
//! construction, independent of thread count.

use crate::par::prelude::*;
use crate::sync::SendPtr;

/// Minimum work per block; below this a sequential scan is faster.
const SEQ_CUTOFF: usize = 1 << 14;

/// In-place exclusive prefix sum over `usize` values; returns the total.
///
/// `[3, 1, 4]` becomes `[0, 3, 4]` and returns `8`.
pub fn exclusive_prefix_sum(data: &mut [usize]) -> usize {
    let n = data.len();
    if n == 0 {
        return 0;
    }
    if n <= SEQ_CUTOFF {
        return seq_exclusive(data);
    }
    // Block boundaries depend on `n` only (the result is exact integer
    // arithmetic either way, but the work split should not move).
    let block = SEQ_CUTOFF.max(n.div_ceil(crate::par::MAX_CHUNKS));
    // Pass 1: per-block inclusive sums of the raw data.
    let mut block_sums: Vec<usize> = data
        .par_chunks(block)
        .map(|c| c.iter().sum::<usize>())
        .collect();
    // Scan block totals sequentially (tiny).
    let total = seq_exclusive(&mut block_sums);
    // Pass 2: per-block exclusive scan seeded with the block offset.
    data.par_chunks_mut(block)
        .zip(block_sums.par_iter())
        .for_each(|(chunk, &offset)| {
            let mut acc = offset;
            for x in chunk.iter_mut() {
                let v = *x;
                *x = acc;
                acc += v;
            }
        });
    total
}

fn seq_exclusive(data: &mut [usize]) -> usize {
    let mut acc = 0usize;
    for x in data.iter_mut() {
        let v = *x;
        *x = acc;
        acc += v;
    }
    acc
}

/// Exclusive prefix sum into a fresh vector of length `data.len() + 1`, with
/// the grand total in the last slot. This is the CSR "xadj" shape.
pub fn offsets_from_counts(counts: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(counts.len() + 1);
    out.extend_from_slice(counts);
    out.push(0);
    exclusive_prefix_sum(&mut out[..counts.len()]);
    let total: usize = if counts.is_empty() {
        0
    } else {
        out[counts.len() - 1] + counts[counts.len() - 1]
    };
    out[counts.len()] = total;
    out
}

/// Elements per compaction chunk. Chunk boundaries are fixed by index, not
/// by thread count, so the output order (= input order) is identical for
/// every schedule.
const COMPACT_CHUNK: usize = 4096;

/// Reusable order-preserving stream compaction over a keep-flag array.
///
/// Owns its per-chunk survivor-count buffer; after the first call at a
/// given problem size, further calls perform no heap allocation (buffers
/// only shrink logically as the level loop's graphs contract).
#[derive(Debug, Default)]
pub struct Compactor {
    chunk_counts: Vec<usize>,
}

impl Compactor {
    /// A compactor with no retained capacity.
    pub fn new() -> Self {
        Compactor::default()
    }

    /// Heap bytes retained by this compactor (capacity, not length) — the
    /// ledger the engine's scratch-memory ceiling sums.
    pub fn scratch_bytes(&self) -> usize {
        self.chunk_counts.capacity() * std::mem::size_of::<usize>()
    }

    /// Writes `src[i]` for every `i` with `keep[i]`, in input order, into
    /// `out` (cleared first; capacity is reused).
    pub fn compact_into<T: Copy + Send + Sync>(
        &mut self,
        src: &[T],
        keep: &[bool],
        out: &mut Vec<T>,
    ) {
        assert_eq!(src.len(), keep.len());
        self.compact_with(keep, |i| src[i], out);
    }

    /// Writes every index `i` (as `u32`) with `keep[i]`, in input order,
    /// into `out` (cleared first; capacity is reused).
    pub fn compact_indices_into(&mut self, keep: &[bool], out: &mut Vec<u32>) {
        self.compact_with(keep, |i| i as u32, out);
    }

    fn compact_with<T: Copy + Send + Sync>(
        &mut self,
        keep: &[bool],
        get: impl Fn(usize) -> T + Sync,
        out: &mut Vec<T>,
    ) {
        let n = keep.len();
        out.clear();
        if n == 0 {
            return;
        }
        if n <= COMPACT_CHUNK {
            out.extend((0..n).filter(|&i| keep[i]).map(get));
            return;
        }
        let nchunks = n.div_ceil(COMPACT_CHUNK);
        self.chunk_counts.clear();
        self.chunk_counts.resize(nchunks, 0);
        self.chunk_counts
            .par_iter_mut()
            .with_min_len(2)
            .enumerate()
            .for_each(|(c, cnt)| {
                let lo = c * COMPACT_CHUNK;
                let hi = (lo + COMPACT_CHUNK).min(n);
                *cnt = keep[lo..hi].iter().filter(|&&k| k).count();
            });
        let total = exclusive_prefix_sum(&mut self.chunk_counts);
        if total == 0 {
            return;
        }
        // `T: Copy` has no drop glue, so filling with the first survivor
        // (there is one: total > 0) is a plain overwritable fill.
        // analyze: allow(panic, reason = "total > 0 was checked above, so at least one keep flag is set")
        let filler = get(keep.iter().position(|&k| k).unwrap());
        out.resize(total, filler);
        let offsets: &[usize] = &self.chunk_counts;
        let ptr = SendPtr(out.as_mut_ptr());
        (0..nchunks).into_par_iter().with_min_len(2).for_each(|c| {
            let ptr = &ptr;
            let lo = c * COMPACT_CHUNK;
            let hi = (lo + COMPACT_CHUNK).min(n);
            let mut pos = offsets[c];
            for (i, &kept) in (lo..hi).zip(&keep[lo..hi]) {
                if kept {
                    // SAFETY: `offsets` is the exclusive prefix sum of the
                    // per-chunk survivor counts, so each chunk's write range
                    // `[offsets[c], offsets[c] + count_c)` is disjoint from
                    // every other task's and in-bounds for `out` (resized to
                    // the grand total above, exclusively borrowed for the
                    // region).
                    unsafe { *ptr.0.add(pos) = get(i) };
                    pos += 1;
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_scan() {
        let mut v: Vec<usize> = vec![];
        assert_eq!(exclusive_prefix_sum(&mut v), 0);
    }

    #[test]
    fn small_scan() {
        let mut v = vec![3, 1, 4, 1, 5];
        let total = exclusive_prefix_sum(&mut v);
        assert_eq!(v, vec![0, 3, 4, 8, 9]);
        assert_eq!(total, 14);
    }

    #[test]
    fn large_scan_matches_sequential() {
        let n = 100_000;
        let orig: Vec<usize> = (0..n).map(|i| (i * 2654435761) % 17).collect();
        let mut par = orig.clone();
        let t_par = exclusive_prefix_sum(&mut par);
        let mut acc = 0usize;
        let mut seq = Vec::with_capacity(n);
        for &x in &orig {
            seq.push(acc);
            acc += x;
        }
        assert_eq!(par, seq);
        assert_eq!(t_par, acc);
    }

    #[test]
    fn offsets_shape() {
        let counts = vec![2usize, 0, 3, 1];
        let off = offsets_from_counts(&counts);
        assert_eq!(off, vec![0, 2, 2, 5, 6]);
    }

    #[test]
    fn offsets_empty() {
        assert_eq!(offsets_from_counts(&[]), vec![0]);
    }

    #[test]
    fn compactor_small_matches_filter() {
        let src: Vec<u32> = (0..100).collect();
        let keep: Vec<bool> = (0..100).map(|i| i % 3 == 0).collect();
        let mut c = Compactor::new();
        let mut out = Vec::new();
        c.compact_into(&src, &keep, &mut out);
        let expect: Vec<u32> = (0..100).filter(|i| i % 3 == 0).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn compactor_large_preserves_order() {
        let n = 3 * COMPACT_CHUNK + 17;
        let src: Vec<u32> = (0..n as u32).collect();
        let keep: Vec<bool> = (0..n).map(|i| (i * 2654435761) % 7 < 3).collect();
        let mut c = Compactor::new();
        let mut out = Vec::new();
        c.compact_into(&src, &keep, &mut out);
        let expect: Vec<u32> = (0..n).filter(|&i| keep[i]).map(|i| i as u32).collect();
        assert_eq!(out, expect);
        // Index variant agrees.
        let mut idx = Vec::new();
        c.compact_indices_into(&keep, &mut idx);
        assert_eq!(idx, expect);
    }

    #[test]
    fn compactor_reuses_capacity() {
        let n = 2 * COMPACT_CHUNK;
        let src: Vec<u64> = vec![7; n];
        let keep = vec![true; n];
        let mut c = Compactor::new();
        let mut out = Vec::new();
        c.compact_into(&src, &keep, &mut out);
        let cap = out.capacity();
        let p = out.as_ptr();
        c.compact_into(&src, &keep, &mut out);
        assert_eq!(out.capacity(), cap);
        assert_eq!(out.as_ptr(), p);
        assert_eq!(out.len(), n);
    }

    #[test]
    fn compactor_none_and_all() {
        let n = COMPACT_CHUNK + 1;
        let src: Vec<u32> = (0..n as u32).collect();
        let mut c = Compactor::new();
        let mut out = vec![99u32; 5];
        c.compact_into(&src, &vec![false; n], &mut out);
        assert!(out.is_empty());
        c.compact_into(&src, &vec![true; n], &mut out);
        assert_eq!(out, src);
    }
}
