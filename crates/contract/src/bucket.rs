//! The paper's bucket-sort contraction (§IV-C), the one contraction
//! pipeline behind [`contract_into`] and [`contract_map_into`].
//!
//! Four steps, all parallel, each timed into [`ContractSteps`]:
//!
//! 1. **Relabel** every edge's endpoints to new community ids and
//!    re-canonicalise under the parity hash, packing the pair into one
//!    `u64` key `(new_src << 32) | new_dst`. Edges whose endpoints
//!    coincide fold into the new vertex's self-loop and are marked dead.
//! 2. **Scatter** surviving edges into buckets by their new stored-first
//!    endpoint. The edge array is cut into contiguous blocks whose bounds
//!    depend only on the edge and vertex counts. Each block counts its
//!    sources into its own row of a counter table; one pass over the
//!    table turns the counts into per-(bucket, block) offsets on top of
//!    the bucket offsets; each block then scatters with plain stores.
//!    Buckets are placed by one of the paper's two policies
//!    ([`Placement`]); within a bucket, edges keep their input order.
//! 3. **Sort & accumulate** each bucket by second endpoint, merging
//!    duplicate edges and shortening the bucket. Short buckets use an
//!    insertion sort; long ones sort packed `(dst, index)` keys built in
//!    the relabel buffer, which is dead by then.
//! 4. **Copy back** the shortened buckets into dense storage in ascending
//!    vertex order ("copied back out into the original graph's storage").

use crate::{contracted_self_loops_into, relabel_into, Contraction};
use pcd_graph::{canonical_order, Graph, GraphParts};
use pcd_matching::Matching;
use pcd_util::scan::exclusive_prefix_sum;
use pcd_util::sync::{as_atomic_u32, as_atomic_u64, AtomicUsize, SendPtr, RELAXED};
use pcd_util::timing::Timer;
use pcd_util::VertexId;

use pcd_util::par::prelude::*;
use pcd_util::par::{for_each_range_by_work, for_each_range_by_work_mut};

/// Least edges per task in the per-bucket passes (sort-accumulate and
/// copy-back), which split on bucket sizes rather than vertex counts.
const BUCKET_GRAIN: usize = 1 << 14;

/// Least edges per scatter block; a smaller contraction is one block.
const BLOCK_EDGES: usize = 1 << 15;

/// Most scatter blocks one contraction is cut into.
const MAX_BLOCKS: usize = 8;

/// Edges per counter-table entry, at least: caps the table (blocks ×
/// new vertices) at a fraction of the edge count, so counting, offsetting
/// and zeroing it stay cheap next to the scatter and its memory O(|E|).
const EDGES_PER_COUNTER: usize = 8;

/// Buckets at or below this length sort by insertion; longer ones sort
/// packed keys.
const INSERTION_CUTOFF: usize = 24;

/// Relabelled-edge key of an edge folded into a self-loop. No live key
/// matches it: a live source is a new vertex id, below `u32::MAX`.
const DEAD: u64 = u64::MAX;

/// Bucket placement policy in the scatter phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Deterministic: per-vertex counts + parallel prefix sum give each
    /// bucket a fixed offset; buckets appear in ascending vertex order.
    /// ("Storing the buckets contiguously requires synchronizing on a
    /// prefix sum.")
    PrefixSum,
    /// Paper-faithful racy variant: buckets claim space with one global
    /// fetch-and-add, in whatever order threads arrive. The temporary
    /// bucket layout is schedule-dependent; the copy-back restores vertex
    /// order, so the output graph is the same. The paper notes this needs
    /// no synchronisation "beyond an atomic fetch-and-add".
    FetchAdd,
}

/// Contracts `g` along matching `m` with the default deterministic
/// placement.
pub fn contract(g: &Graph, m: &Matching) -> Contraction {
    contract_with_policy(g, m, Placement::PrefixSum)
}

/// Contracts `g` along matching `m` with an explicit placement policy.
///
/// Owning convenience wrapper over [`contract_into`]: allocates a fresh
/// [`ContractScratch`] and empty output storage per call. The driver's
/// level loop uses [`contract_into`] directly; this entry point stays for
/// ablations, oracles, and one-shot callers.
pub fn contract_with_policy(g: &Graph, m: &Matching, placement: Placement) -> Contraction {
    let mut scratch = ContractScratch::new();
    let (graph, num_new) = contract_into(g, m, placement, &mut scratch, GraphParts::default());
    Contraction {
        graph,
        new_of_old: scratch.take_new_of_old(),
        num_new,
    }
}

/// Wall-clock seconds of one contraction's four steps (paper §IV-C).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ContractSteps {
    /// Relabel: the old→new map, self-loop folding and the packed edges.
    pub relabel_secs: f64,
    /// Scatter: per-block counts, bucket placement and the scatter itself.
    pub scatter_secs: f64,
    /// Sort-accumulate: per-bucket sort and duplicate-edge merging.
    pub sort_secs: f64,
    /// Copy-back: shortened buckets into the output graph's storage.
    pub copy_secs: f64,
}

impl ContractSteps {
    /// Sum of the four steps.
    pub fn total_secs(&self) -> f64 {
        self.relabel_secs + self.scatter_secs + self.sort_secs + self.copy_secs
    }
}

impl std::ops::AddAssign for ContractSteps {
    fn add_assign(&mut self, o: ContractSteps) {
        self.relabel_secs += o.relabel_secs;
        self.scatter_secs += o.scatter_secs;
        self.sort_secs += o.sort_secs;
        self.copy_secs += o.copy_secs;
    }
}

/// Reusable working storage for [`contract_into`] and
/// [`contract_map_into`]: the relabel map and its prefix-sum buffer, the
/// matched-edge bitset, and the pipeline's buffers. Every buffer is
/// cleared and logically resized per call; capacity only grows, so
/// steady-state contraction allocates nothing.
#[derive(Debug, Default)]
pub struct ContractScratch {
    is_leader: Vec<usize>,
    new_of_old: Vec<VertexId>,
    matched_bits: Vec<u64>,
    pipe: Pipeline,
}

impl ContractScratch {
    /// A scratch with no retained capacity.
    pub fn new() -> Self {
        ContractScratch::default()
    }

    /// The old→new community map of the most recent [`contract_into`] call.
    pub fn new_of_old(&self) -> &[VertexId] {
        &self.new_of_old
    }

    /// Moves the old→new map out (for callers assembling a [`Contraction`]).
    pub fn take_new_of_old(&mut self) -> Vec<VertexId> {
        std::mem::take(&mut self.new_of_old)
    }

    /// Puts an old→new map back (fault-injection harness round-trip).
    pub fn set_new_of_old(&mut self, map: Vec<VertexId>) {
        self.new_of_old = map;
    }

    /// Moves out the step timings of the latest contraction through this
    /// scratch, leaving zeros: a contractor that bypasses the pipeline
    /// then reads as zero rather than as a stale earlier call.
    pub fn take_steps(&mut self) -> ContractSteps {
        std::mem::take(&mut self.pipe.steps)
    }

    /// Heap bytes retained by this scratch (capacity, not length) — summed
    /// into the engine's scratch-memory ceiling ledger.
    pub fn scratch_bytes(&self) -> usize {
        use std::mem::size_of;
        let p = &self.pipe;
        self.is_leader.capacity() * size_of::<usize>()
            + self.new_of_old.capacity() * size_of::<VertexId>()
            + self.matched_bits.capacity() * size_of::<u64>()
            + p.packed.capacity() * size_of::<u64>()
            + p.table.capacity() * size_of::<u32>()
            + p.bucket_off.capacity() * size_of::<usize>()
            + p.tmp_dst.capacity() * size_of::<u32>()
            + p.tmp_w.capacity() * size_of::<u64>()
            + p.uniq.capacity() * size_of::<usize>()
    }
}

/// The pipeline's buffers, shared by both entry points.
#[derive(Debug, Default)]
struct Pipeline {
    /// Relabelled edges as `(new_src << 32) | new_dst`, [`DEAD`] for
    /// folded ones; after the scatter, the long buckets' sort keys.
    packed: Vec<u64>,
    /// Scatter counter table, one row of `num_new` per block: counts,
    /// then each (bucket, block)'s next output slot. After the scatter
    /// the last row holds each bucket's end.
    table: Vec<u32>,
    /// Each bucket's offset in the bucketed arrays.
    bucket_off: Vec<usize>,
    /// Bucketed destinations and weights.
    tmp_dst: Vec<u32>,
    tmp_w: Vec<u64>,
    /// Each bucket's length after accumulation.
    uniq: Vec<usize>,
    /// Step timings of the latest call.
    steps: ContractSteps,
}

/// Contracts `g` along matching `m`, scattering the result into recycled
/// storage: `parts` supplies the output graph's six arrays (their capacity
/// is reused; contents are overwritten) and `scratch` every intermediate
/// buffer. Returns the contracted graph and `num_new`; the old→new map is
/// left in `scratch` ([`ContractScratch::new_of_old`]).
///
/// The emitted graph is bit-identical for either placement policy and any
/// thread count. Total weight is conserved by construction, so the output
/// graph inherits the parent's total without a reduction pass (debug
/// builds re-verify).
pub fn contract_into(
    g: &Graph,
    m: &Matching,
    placement: Placement,
    scratch: &mut ContractScratch,
    mut parts: GraphParts,
) -> (Graph, usize) {
    let t = Timer::start();
    let ContractScratch {
        is_leader,
        new_of_old,
        matched_bits,
        pipe,
    } = scratch;
    let num_new = relabel_into(g, m, is_leader, new_of_old);
    contracted_self_loops_into(g, m, new_of_old, num_new, &mut parts.self_loop);
    // Matched edges were just folded into the self-loops; the bitset
    // (|E|/64 words) keeps the relabel pass from folding them twice.
    let ne = g.num_edges();
    matched_bits.clear();
    matched_bits.resize(ne.div_ceil(64), 0);
    for &e in m.matched_edges() {
        matched_bits[e >> 6] |= 1 << (e & 63);
    }
    pipe.relabel(g, new_of_old, Some(matched_bits), &mut parts.self_loop);
    let graph = pipe.finish(g, num_new, placement, parts, t);
    (graph, num_new)
}

/// Contracts `g` through an arbitrary old→new vertex map: every old vertex
/// maps somewhere in `[0, num_new)`, and any number of old vertices may
/// share a new id (unlike a matching's pair merges). Edges whose endpoints
/// coincide under the map fold into the new vertex's self-loop, as do all
/// old self-loops. Returns the contracted graph; `new_of_old` is the
/// caller's (it is *not* deposited in `scratch`).
///
/// This is the vertex-following pre-pass's workhorse: a whole star of
/// degree-1 hair contracts into its center in one call. Fed a matching's
/// relabel map, it reproduces [`contract_into`] bit for bit.
pub fn contract_map_into(
    g: &Graph,
    new_of_old: &[VertexId],
    num_new: usize,
    scratch: &mut ContractScratch,
    mut parts: GraphParts,
) -> Graph {
    assert_eq!(new_of_old.len(), g.num_vertices());
    let t = Timer::start();
    parts.self_loop.clear();
    parts.self_loop.resize(num_new, 0);
    {
        let cells = as_atomic_u64(&mut parts.self_loop);
        (0..g.num_vertices()).into_par_iter().for_each(|v| {
            let s = g.self_loop(v as u32);
            if s > 0 {
                // ORDERING: RELAXED — pure weight accumulation (atomicity
                // only); the join barrier publishes the totals.
                cells[new_of_old[v] as usize].fetch_add(s, RELAXED);
            }
        });
    }
    scratch
        .pipe
        .relabel(g, new_of_old, None, &mut parts.self_loop);
    scratch
        .pipe
        .finish(g, num_new, Placement::PrefixSum, parts, t)
}

/// The scatter block count for `ne` edges onto `num_new` buckets: a
/// function of the two sizes only, never of the worker count, so the
/// bucketed layout is the same on any pool.
fn scatter_blocks(ne: usize, num_new: usize) -> usize {
    (ne / BLOCK_EDGES)
        .min(MAX_BLOCKS)
        .min(ne / (EDGES_PER_COUNTER * num_new.max(1)))
        .max(1)
}

impl Pipeline {
    /// Step 1, per edge: maps both endpoints through `new_of_old`,
    /// re-canonicalises, and packs the pair into `packed`. Coinciding
    /// endpoints mark the edge [`DEAD`] and fold its weight into
    /// `self_loop` — except edges flagged in `matched_bits`, whose weight
    /// the caller already folded.
    fn relabel(
        &mut self,
        g: &Graph,
        new_of_old: &[VertexId],
        matched_bits: Option<&[u64]>,
        self_loop: &mut [u64],
    ) {
        self.packed.clear();
        self.packed.resize(g.num_edges(), 0);
        let self_c = as_atomic_u64(self_loop);
        self.packed.par_iter_mut().enumerate().for_each(|(e, key)| {
            let (i, j, w) = g.edge(e);
            let (ni, nj) = (new_of_old[i as usize], new_of_old[j as usize]);
            if ni == nj {
                let folded = matched_bits.is_some_and(|bits| bits[e >> 6] >> (e & 63) & 1 == 1);
                if !folded {
                    // ORDERING: RELAXED — the only cross-task write in
                    // this loop is this accumulation (atomicity only);
                    // the join barrier publishes the totals.
                    self_c[ni as usize].fetch_add(w, RELAXED);
                }
                *key = DEAD;
            } else {
                let (a, b) = canonical_order(ni, nj);
                *key = u64::from(a) << 32 | u64::from(b);
            }
        });
    }

    /// Steps 2–4 over the packed edges, into `parts` (whose self-loops
    /// must already be folded). `t` has timed step 1 since it started.
    fn finish(
        &mut self,
        g: &Graph,
        num_new: usize,
        placement: Placement,
        mut parts: GraphParts,
        t: Timer,
    ) -> Graph {
        let Pipeline {
            packed,
            table,
            bucket_off,
            tmp_dst,
            tmp_w,
            uniq,
            steps,
        } = self;
        let relabel_secs = t.elapsed_secs();
        let t = Timer::start();
        let ne = g.num_edges();
        // Output slots and sort-key indices are u32.
        assert!(
            ne <= u32::MAX as usize,
            "bucket contraction takes at most u32::MAX edges, got {ne}"
        );

        // Step 2a: each block counts its live sources into its own row.
        let blocks = scatter_blocks(ne, num_new);
        let block_len = ne.div_ceil(blocks);
        let block = |b: usize| b * block_len..ne.min((b + 1) * block_len);
        let row_len = num_new.max(1);
        table.clear();
        table.resize(blocks * num_new, 0);
        let keys: &[u64] = packed;
        table
            .par_chunks_mut(row_len)
            .enumerate()
            .with_min_len(1)
            .for_each(|(b, row)| {
                for &key in &keys[block(b)] {
                    if key != DEAD {
                        row[(key >> 32) as usize] += 1;
                    }
                }
            });

        // Step 2b: bucket sizes, then placement turns them into offsets.
        bucket_off.clear();
        bucket_off.resize(num_new, 0);
        {
            let table: &[u32] = table;
            bucket_off.par_iter_mut().enumerate().for_each(|(v, size)| {
                *size = (0..blocks).map(|b| table[b * num_new + v] as usize).sum();
            });
        }
        let live = match placement {
            Placement::PrefixSum => exclusive_prefix_sum(bucket_off),
            Placement::FetchAdd => {
                // One global cursor; buckets claim their extent in
                // arrival order.
                let global = AtomicUsize::new(0);
                bucket_off.par_iter_mut().for_each(|off| {
                    if *off > 0 {
                        // ORDERING: RELAXED — the fetch_add only needs a
                        // unique extent (atomicity); each slot has one
                        // writer and the join barrier publishes it.
                        *off = global.fetch_add(*off, RELAXED);
                    }
                });
                global.into_inner()
            }
        };
        let bucket_off: &[usize] = bucket_off;

        // Step 2c: turn each bucket's column of block counts into the
        // blocks' first output slots, in block order from the bucket's
        // offset.
        {
            let cells = as_atomic_u32(table);
            (0..num_new).into_par_iter().for_each(|v| {
                // ORDERING: RELAXED — column v is read and written by this
                // task alone; the join barrier publishes it to the scatter.
                let mut at = bucket_off[v] as u32;
                for b in 0..blocks {
                    let cell = &cells[b * num_new + v];
                    let c = cell.load(RELAXED);
                    cell.store(at, RELAXED);
                    at += c;
                }
            });
        }

        // Step 2d: each block scatters its edges through its own row of
        // slots, in edge order — plain stores, no shared cursor.
        tmp_dst.clear();
        tmp_dst.resize(live, 0);
        tmp_w.clear();
        tmp_w.resize(live, 0);
        {
            let dst_c = as_atomic_u32(tmp_dst);
            let w_c = as_atomic_u64(tmp_w);
            let weights = g.weights();
            table
                .par_chunks_mut(row_len)
                .enumerate()
                .with_min_len(1)
                .for_each(|(b, row)| {
                    for (&key, &w) in keys[block(b)].iter().zip(&weights[block(b)]) {
                        if key != DEAD {
                            let slot = &mut row[(key >> 32) as usize];
                            let pos = *slot as usize;
                            *slot += 1;
                            // ORDERING: RELAXED — the table hands every
                            // edge a distinct slot, so each cell has one
                            // writer; the join barrier publishes them.
                            dst_c[pos].store(key as u32, RELAXED);
                            w_c[pos].store(w, RELAXED);
                        }
                    }
                });
        }
        let scatter_secs = t.elapsed_secs();
        let t = Timer::start();
        // The last block's slots have advanced to each bucket's end.
        let ends: &[u32] = &table[(blocks - 1) * num_new..];
        let bucket_len = |v: usize| ends[v] as usize - bucket_off[v];

        // Step 3: per-bucket sort + accumulate (shortening buckets).
        // Bucket sizes are heavily skewed (hubs), so the split follows them.
        uniq.clear();
        uniq.resize(num_new, 0);
        {
            let dst_ptr = SendPtr(tmp_dst.as_mut_ptr());
            let w_ptr = SendPtr(tmp_w.as_mut_ptr());
            let key_ptr = SendPtr(packed.as_mut_ptr());
            for_each_range_by_work_mut(uniq, BUCKET_GRAIN, bucket_len, |vs, uniq| {
                let (dst_ptr, w_ptr, key_ptr) = (&dst_ptr, &w_ptr, &key_ptr);
                for (v, u) in vs.zip(uniq) {
                    let (b, len) = (bucket_off[v], bucket_len(v));
                    if len == 0 {
                        continue;
                    }
                    // SAFETY: `len` is the bucket's size: step 2c
                    // started the last block's slot at `b` plus the
                    // earlier blocks' counts, and the scatter advanced
                    // it by the last block's count. The buckets
                    // `[b, b + len)` are disjoint (prefix-sum offsets,
                    // or extents claimed off one cursor) and lie in
                    // `[0, live)`, in bounds for the bucketed arrays
                    // (length `live`) and for `packed` (length
                    // `ne >= live`), which nothing reads after the
                    // scatter. Each vertex belongs to exactly one
                    // task's range, and all three arrays are
                    // exclusively borrowed for the region.
                    let (d, w, k) = unsafe {
                        (
                            std::slice::from_raw_parts_mut(dst_ptr.0.add(b), len),
                            std::slice::from_raw_parts_mut(w_ptr.0.add(b), len),
                            std::slice::from_raw_parts_mut(key_ptr.0.add(b), len),
                        )
                    };
                    *u = accumulate_row(d, w, k);
                }
            });
        }
        let uniq: &[usize] = uniq;
        let tmp_dst: &[u32] = tmp_dst;
        let tmp_w: &[u64] = tmp_w;
        let sort_secs = t.elapsed_secs();
        let t = Timer::start();

        // Step 4: copy the shortened buckets into dense storage, in
        // ascending vertex order whatever the placement.
        parts.bucket_begin.clear();
        parts.bucket_begin.resize(num_new, 0);
        parts.bucket_begin.copy_from_slice(uniq);
        let total = exclusive_prefix_sum(&mut parts.bucket_begin);
        let begin: &[usize] = &parts.bucket_begin;
        parts.bucket_end.clear();
        parts.bucket_end.resize(num_new, 0);
        parts
            .bucket_end
            .par_iter_mut()
            .enumerate()
            .for_each(|(v, end)| *end = begin[v] + uniq[v]);
        parts.src.clear();
        parts.src.resize(total, 0);
        parts.dst.clear();
        parts.dst.resize(total, 0);
        parts.weight.clear();
        parts.weight.resize(total, 0);
        {
            let src_c = as_atomic_u32(&mut parts.src);
            let dst_c = as_atomic_u32(&mut parts.dst);
            let w_c = as_atomic_u64(&mut parts.weight);
            for_each_range_by_work(
                num_new,
                BUCKET_GRAIN,
                |v| uniq[v],
                |vs| {
                    for v in vs {
                        // ORDERING: RELAXED — bucket v's extent
                        // [to, to + uniq[v]) is disjoint per vertex, so
                        // each slot has one writer; the join barrier
                        // publishes the arrays to the builder below.
                        let (from, to) = (bucket_off[v], begin[v]);
                        for k in 0..uniq[v] {
                            src_c[to + k].store(v as u32, RELAXED);
                            dst_c[to + k].store(tmp_dst[from + k], RELAXED);
                            w_c[to + k].store(tmp_w[from + k], RELAXED);
                        }
                    }
                },
            );
        }
        *steps = ContractSteps {
            relabel_secs,
            scatter_secs,
            sort_secs,
            copy_secs: t.elapsed_secs(),
        };

        // Contraction conserves Σw + Σself exactly, so the parent's total
        // carries over; debug builds re-verify inside `from_recycled_parts`.
        Graph::from_recycled_parts(num_new, parts, g.total_weight())
    }
}

/// Sorts one bucket by destination and accumulates duplicate destinations
/// in place; returns the number of unique entries (the shortened length).
///
/// Buckets of up to [`INSERTION_CUTOFF`] edges take a tandem insertion
/// sort over `dst` and `w`. Longer ones fill `keys` (same length, free
/// storage) with `(dst << 32) | index`, sort them — unique keys, so the
/// unstable sort is deterministic and allocates nothing — and sum each
/// run of equal destinations, gathering weights by index. Weights add as
/// exact integers, so the result is independent of the input order.
fn accumulate_row(dst: &mut [u32], w: &mut [u64], keys: &mut [u64]) -> usize {
    let len = dst.len();
    debug_assert!(w.len() == len && keys.len() == len);
    if len <= INSERTION_CUTOFF {
        for i in 1..len {
            let (d, wi) = (dst[i], w[i]);
            let mut j = i;
            while j > 0 && dst[j - 1] > d {
                dst[j] = dst[j - 1];
                w[j] = w[j - 1];
                j -= 1;
            }
            dst[j] = d;
            w[j] = wi;
        }
        let mut out = 0usize;
        let mut k = 0usize;
        while k < len {
            let d = dst[k];
            let mut acc = w[k];
            k += 1;
            while k < len && dst[k] == d {
                acc += w[k];
                k += 1;
            }
            // `out` trails `k` by at least one, so these writes only
            // touch already-consumed slots.
            dst[out] = d;
            w[out] = acc;
            out += 1;
        }
        return out;
    }
    for (k, (key, &d)) in keys.iter_mut().zip(dst.iter()).enumerate() {
        *key = u64::from(d) << 32 | k as u64;
    }
    keys.sort_unstable();
    let mut out = 0usize;
    let mut k = 0usize;
    while k < len {
        let d = keys[k] >> 32;
        let mut acc = 0u64;
        while k < len && keys[k] >> 32 == d {
            acc += w[(keys[k] & u64::from(u32::MAX)) as usize];
            k += 1;
        }
        // The destinations now live in the keys, and key slot `out` was
        // consumed (`out < k`): both can take the merged entry. Weights
        // are still being gathered by index, so they land in `w` last.
        dst[out] = d as u32;
        keys[out] = acc;
        out += 1;
    }
    w[..out].copy_from_slice(&keys[..out]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_fingerprint;
    use pcd_matching::seq::match_sequential_greedy;
    use std::collections::BTreeMap;

    fn contract_uniform(g: &Graph) -> Contraction {
        let s = vec![1.0; g.num_edges()];
        let m = match_sequential_greedy(g, &s);
        contract(g, &m)
    }

    fn weighted_matching(g: &Graph) -> Matching {
        let s: Vec<f64> = g.weights().iter().map(|&w| w as f64).collect();
        match_sequential_greedy(g, &s)
    }

    #[test]
    fn weight_conserved_on_clique_ring() {
        let g = pcd_gen::classic::clique_ring(4, 4);
        let c = contract_uniform(&g);
        assert_eq!(c.graph.total_weight(), g.total_weight());
        assert_eq!(c.graph.validate(), Ok(()));
        assert!(c.num_new < g.num_vertices());
    }

    #[test]
    fn pair_merge_folds_edge() {
        let g = pcd_graph::GraphBuilder::new(2).add_edge(0, 1, 7).build();
        let c = contract_uniform(&g);
        assert_eq!(c.num_new, 1);
        assert_eq!(c.graph.num_edges(), 0);
        assert_eq!(c.graph.self_loop(0), 7);
    }

    #[test]
    fn parallel_edges_between_pairs_accumulate() {
        // Square 0-1-2-3-0: match (0,1) and (2,3); the two cross edges
        // (1,2) and (3,0) become parallel edges between the two new
        // vertices and must merge into weight 2.
        let g = pcd_graph::GraphBuilder::new(4)
            .add_pairs([(0, 1), (1, 2), (2, 3), (3, 0)])
            .build();
        let s: Vec<f64> = (0..g.num_edges())
            .map(|e| {
                let (i, j, _) = g.edge(e);
                let key = (i.min(j), i.max(j));
                if key == (0, 1) || key == (2, 3) {
                    2.0
                } else {
                    1.0
                }
            })
            .collect();
        let m = match_sequential_greedy(&g, &s);
        assert_eq!(m.len(), 2);
        let c = contract(&g, &m);
        assert_eq!(c.num_new, 2);
        assert_eq!(c.graph.num_edges(), 1);
        assert_eq!(c.graph.weights(), &[2]);
        assert_eq!(c.graph.total_weight(), g.total_weight());
    }

    #[test]
    fn empty_matching_is_isomorphic_copy() {
        let g = pcd_gen::classic::clique_ring(3, 4);
        let m = pcd_matching::Matching::empty(g.num_vertices());
        let c = contract(&g, &m);
        assert_eq!(c.num_new, g.num_vertices());
        assert_eq!(edge_fingerprint(&c.graph), edge_fingerprint(&g));
        assert_eq!(c.graph.self_loops(), g.self_loops());
    }

    #[test]
    fn fetch_add_placement_same_graph() {
        let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(9, 17));
        let m = weighted_matching(&g);
        let a = contract_with_policy(&g, &m, Placement::PrefixSum);
        let b = contract_with_policy(&g, &m, Placement::FetchAdd);
        assert_eq!(a.num_new, b.num_new);
        assert_eq!(a.graph.srcs(), b.graph.srcs());
        assert_eq!(a.graph.dsts(), b.graph.dsts());
        assert_eq!(a.graph.weights(), b.graph.weights());
        assert_eq!(a.graph.self_loops(), b.graph.self_loops());
        assert_eq!(b.graph.validate(), Ok(()));
    }

    #[test]
    fn deterministic_across_thread_counts() {
        // Scale 14 is large enough for the scatter to run several blocks.
        let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(14, 23));
        let m = weighted_matching(&g);
        let blocks = scatter_blocks(g.num_edges(), g.num_vertices() - m.len());
        assert!(blocks > 1, "{} edges, {} blocks", g.num_edges(), blocks);
        let c1 = pcd_util::pool::with_threads(1, || contract(&g, &m));
        for threads in [2, 4] {
            let c = pcd_util::pool::with_threads(threads, || contract(&g, &m));
            assert_eq!(c1.graph.srcs(), c.graph.srcs());
            assert_eq!(c1.graph.dsts(), c.graph.dsts());
            assert_eq!(c1.graph.weights(), c.graph.weights());
            assert_eq!(c1.new_of_old, c.new_of_old);
        }
    }

    #[test]
    fn rmat_weight_conserved_through_contraction() {
        let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(10, 5));
        let s: Vec<f64> = g.weights().iter().map(|&w| w as f64).collect();
        let m = pcd_matching::match_unmatched_list(&g, &s);
        let c = contract(&g, &m);
        assert_eq!(c.graph.total_weight(), g.total_weight());
        assert_eq!(c.graph.validate(), Ok(()));
        assert_eq!(c.num_new, g.num_vertices() - m.len());
    }

    #[test]
    fn scatter_blocks_depend_on_sizes_only() {
        assert_eq!(scatter_blocks(0, 0), 1);
        assert_eq!(scatter_blocks(BLOCK_EDGES - 1, 1), 1);
        assert_eq!(scatter_blocks(100 * BLOCK_EDGES, 1), MAX_BLOCKS);
        // The counter table stays within |E| / EDGES_PER_COUNTER entries.
        for (ne, nn) in [
            (1usize << 20, 1usize << 10),
            (1 << 20, 1 << 16),
            (1 << 20, 1 << 20),
        ] {
            let b = scatter_blocks(ne, nn);
            assert!(
                b == 1 || b * nn * EDGES_PER_COUNTER <= ne,
                "{ne} {nn} -> {b}"
            );
        }
    }

    #[test]
    fn step_timings_cover_the_call_and_are_taken_once() {
        let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(10, 3));
        let m = weighted_matching(&g);
        let mut scratch = ContractScratch::new();
        let t = Timer::start();
        contract_into(
            &g,
            &m,
            Placement::PrefixSum,
            &mut scratch,
            GraphParts::default(),
        );
        let wall = t.elapsed_secs();
        let s = scratch.take_steps();
        for x in [s.relabel_secs, s.scatter_secs, s.sort_secs, s.copy_secs] {
            assert!(x >= 0.0);
        }
        assert!(s.total_secs() > 0.0 && s.total_secs() <= wall);
        assert_eq!(scratch.take_steps(), ContractSteps::default());
    }

    /// Reference accumulation: destinations ascending, weights summed.
    fn reference_row(dst: &[u32], w: &[u64]) -> Vec<(u32, u64)> {
        let mut acc = BTreeMap::new();
        for (&d, &x) in dst.iter().zip(w) {
            *acc.entry(d).or_insert(0) += x;
        }
        acc.into_iter().collect()
    }

    #[test]
    fn accumulate_row_merges_runs() {
        let mut d = vec![5u32, 3, 5, 3, 9];
        let mut w = vec![1u64, 2, 3, 4, 5];
        let mut k = vec![0u64; 5];
        let n = accumulate_row(&mut d, &mut w, &mut k);
        assert_eq!(n, 3);
        assert_eq!(&d[..n], &[3, 5, 9]);
        assert_eq!(&w[..n], &[6, 4, 5]);
    }

    #[test]
    fn accumulate_row_matches_reference_on_both_paths() {
        // Lengths on both sides of the insertion cutoff; destination
        // bounds from a few repeated values up to u32::MAX - 1, the
        // largest id a graph can hold.
        let mut rng = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for len in [1usize, 2, 24, 25, 64, 300, 1000] {
            for bound in [1u64, 7, 70_000, u64::from(u32::MAX)] {
                let mut dst: Vec<u32> = (0..len).map(|_| (next() % bound) as u32).collect();
                dst[0] = (bound - 1) as u32;
                let mut w: Vec<u64> = (0..len).map(|_| next() % 100 + 1).collect();
                let want = reference_row(&dst, &w);
                let mut keys = vec![0u64; len];
                let n = accumulate_row(&mut dst, &mut w, &mut keys);
                let got: Vec<(u32, u64)> = dst[..n]
                    .iter()
                    .copied()
                    .zip(w[..n].iter().copied())
                    .collect();
                assert_eq!(got, want, "len {len} bound {bound}");
            }
        }
    }

    #[test]
    fn contract_map_star_collapses_to_center() {
        // Star: center 0, leaves 1..=5, every leaf following the center.
        let mut b = pcd_graph::GraphBuilder::new(6);
        for leaf in 1..6u32 {
            b = b.add_edge(0, leaf, leaf as u64);
        }
        let g = b.build();
        let map = vec![0u32; 6];
        let mut scratch = ContractScratch::new();
        let pruned = contract_map_into(&g, &map, 1, &mut scratch, GraphParts::default());
        assert_eq!(pruned.num_vertices(), 1);
        assert_eq!(pruned.num_edges(), 0);
        assert_eq!(pruned.self_loop(0), 1 + 2 + 3 + 4 + 5);
        assert_eq!(pruned.total_weight(), g.total_weight());
        assert_eq!(pruned.validate(), Ok(()));
    }

    #[test]
    fn contract_map_identity_is_isomorphic_copy() {
        let g = pcd_gen::classic::clique_ring(3, 4);
        let map: Vec<u32> = (0..g.num_vertices() as u32).collect();
        let mut scratch = ContractScratch::new();
        let c = contract_map_into(
            &g,
            &map,
            g.num_vertices(),
            &mut scratch,
            GraphParts::default(),
        );
        assert_eq!(edge_fingerprint(&c), edge_fingerprint(&g));
        assert_eq!(c.self_loops(), g.self_loops());
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn contract_map_matches_matching_contraction() {
        // Feeding a matching's relabel map through the generic path must
        // reproduce the matching-based contraction exactly.
        let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(11, 29));
        let m = weighted_matching(&g);
        let (map, num_new) = crate::relabel_from_matching(&g, &m);
        let via_matching = contract(&g, &m);
        let mut scratch = ContractScratch::new();
        let via_map = contract_map_into(&g, &map, num_new, &mut scratch, GraphParts::default());
        assert_eq!(via_matching.graph.srcs(), via_map.srcs());
        assert_eq!(via_matching.graph.dsts(), via_map.dsts());
        assert_eq!(via_matching.graph.weights(), via_map.weights());
        assert_eq!(via_matching.graph.self_loops(), via_map.self_loops());
    }
}
