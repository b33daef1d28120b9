//! The audited synchronisation layer — **every** atomic in the workspace
//! routes through this module.
//!
//! The paper's kernels stay correct under arbitrary interleavings via
//! full/empty bits (Cray XMT) or locks (OpenMP). This port replaces both
//! with lock-free atomics, which concentrates all memory-ordering
//! reasoning in one reviewable place: here. Kernels import atomic types
//! and ordering constants from `pcd_util::sync` and never name
//! `std::sync::atomic` or an `Ordering::` variant directly — `cargo xtask
//! lint` fails the build otherwise (see `xtask/src/main.rs` for the
//! allowlist).
//!
//! # Ordering discipline
//!
//! The workspace uses exactly three synchronisation patterns; each maps to
//! one documented ordering constant below.
//!
//! 1. **Fork-join accumulation** ([`RELAXED`]): commutative RMWs
//!    (`fetch_add`, `fetch_min`) or disjoint/idempotent stores inside a
//!    parallel region (`crate::par`), read only after the region ends. The
//!    region's scoped join is the happens-before edge; the atomics only need atomicity.
//! 2. **CAS publish/observe** ([`ACQ_REL`] / [`ACQUIRE`]): a register
//!    whose winning value is *read by other threads in the same parallel
//!    region* (the matcher's best-proposal registers). The successful RMW
//!    is `AcqRel`; the racing readers load with `Acquire`.
//! 3. **Optimistic scan** ([`RELAXED`]): the initial load and the failure
//!    ordering of a CAS loop. A stale value only costs a retry; the
//!    success ordering of the CAS provides the synchronisation.
//!
//! `Release`-only stores and `SeqCst` are deliberately absent: no kernel
//! needs a store-release without an RMW, and nothing relies on a single
//! total order of unrelated atomics. Add a constant (with a use-case doc)
//! before reaching for either.
//!
//! # Model checking and dynamic analysis
//!
//! * **loom** — building with `RUSTFLAGS="--cfg loom"` swaps every type
//!   below for its [`loom`](https://docs.rs/loom) double. The exhaustive
//!   2–3-thread models live in `tools/loom` (a standalone crate, excluded
//!   from the workspace so the `loom` dependency never enters the main
//!   build graph): `cd tools/loom && RUSTFLAGS="--cfg loom" cargo test
//!   --release`.
//! * **Miri** — `cargo +nightly miri test -p pcd-util --lib` covers the
//!   `as_atomic_*` reinterprets; `cargo +nightly miri test --test
//!   miri_smoke` runs a tiny end-to-end detection.
//! * **ThreadSanitizer** — `RUSTFLAGS="-Zsanitizer=thread" cargo +nightly
//!   test -Zbuild-std --target x86_64-unknown-linux-gnu -p pcd-matching
//!   -p pcd-contract`.
//!
//! All three run in CI (`.github/workflows/ci.yml`); DESIGN.md §9 has the
//! full discipline write-up.

#[cfg(loom)]
pub use loom::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering};
#[cfg(not(loom))]
pub use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering};

/// `Ordering::Relaxed` — atomicity without inter-thread ordering.
///
/// Legitimate uses (patterns 1 and 3 in the module docs):
/// * commutative RMWs (`fetch_add` histograms/counters, `fetch_min` label
///   hooking) whose results are read only after the enclosing parallel
///   region joins;
/// * stores to disjoint indices claimed via a `fetch_add` cursor, read
///   after the join;
/// * idempotent racing stores where every writer writes the same value
///   (the matcher's mate stores);
/// * the optimistic initial load and the failure ordering of a CAS loop.
///
/// Never use it to *publish* data another thread reads before the join.
pub const RELAXED: Ordering = Ordering::Relaxed;

/// `Ordering::Acquire` — observe a register published by an [`ACQ_REL`]
/// RMW *within the same parallel region* (pattern 2). The matcher's
/// resolve pass loads best-proposal registers with this so that a register
/// value implies the proposing thread's prior writes are visible.
pub const ACQUIRE: Ordering = Ordering::Acquire;

/// `Ordering::AcqRel` — a read-modify-write that both observes the
/// current winner and publishes a new one (pattern 2): the matcher's
/// CAS-max proposal loops and packed fetch-max registers. Failure
/// orderings stay [`RELAXED`]; a failed CAS publishes nothing.
pub const ACQ_REL: Ordering = Ordering::AcqRel;

/// Maps an `f64` to a `u64` such that the unsigned integer order matches the
/// total order on floats (with `-0.0 < +0.0`, and NaN ordered above all
/// finite values — callers must not feed NaN scores; debug builds assert).
///
/// This is the standard sign-flip trick: non-negative floats get the sign
/// bit set; negative floats are bitwise-inverted.
#[inline]
pub fn ord_f64(x: f64) -> u64 {
    debug_assert!(!x.is_nan(), "NaN score passed to ord_f64");
    let bits = x.to_bits();
    if bits >> 63 == 0 {
        bits | (1 << 63)
    } else {
        !bits
    }
}

/// Inverse of [`ord_f64`].
#[inline]
pub fn unord_f64(k: u64) -> f64 {
    let bits = if k >> 63 == 1 { k & !(1 << 63) } else { !k };
    f64::from_bits(bits)
}

/// Atomically sets `cell` to `max(cell, val)` and returns the previous
/// value. `AcqRel` because the winning value is observed by racing readers
/// (pattern 2).
#[inline]
pub fn fetch_max_u64(cell: &AtomicU64, val: u64) -> u64 {
    #[cfg(not(loom))]
    {
        cell.fetch_max(val, ACQ_REL)
    }
    #[cfg(loom)]
    {
        // loom's fetch_max support lags the std API; an equivalent CAS
        // loop keeps the model faithful to the access pattern.
        let mut cur = cell.load(RELAXED);
        while val > cur {
            match cell.compare_exchange_weak(cur, val, ACQ_REL, RELAXED) {
                Ok(prev) => return prev,
                Err(actual) => cur = actual,
            }
        }
        cur
    }
}

/// CAS loop that installs `new` for as long as `improves(current)` holds;
/// returns `true` if `new` was installed, `false` once the current value
/// stops being improvable. This is the workspace's one blessed lock-free
/// retry loop (matcher proposals, atomic `f64` accumulation).
///
/// `improves` must describe a *stable* strict partial order on values
/// (e.g. "strictly better under a total order on scores") — otherwise two
/// threads can livelock replacing each other. The loop is commutative for
/// such orders: the final register value is independent of interleaving.
#[inline]
pub fn cas_improve_u64(cell: &AtomicU64, new: u64, mut improves: impl FnMut(u64) -> bool) -> bool {
    let mut cur = cell.load(RELAXED);
    while improves(cur) {
        match cell.compare_exchange_weak(cur, new, ACQ_REL, RELAXED) {
            Ok(_) => return true,
            Err(actual) => cur = actual,
        }
    }
    false
}

/// Atomically adds `val` to an `f64` stored as bits in an `AtomicU64`.
///
/// Only used on cold paths (quality metrics); hot paths use integer weights
/// precisely so they can use plain `fetch_add`.
pub fn fetch_add_f64(cell: &AtomicU64, val: f64) -> f64 {
    let mut cur = cell.load(RELAXED);
    loop {
        let new = f64::from_bits(cur) + val;
        match cell.compare_exchange_weak(cur, new.to_bits(), ACQ_REL, RELAXED) {
            Ok(prev) => return f64::from_bits(prev),
            Err(actual) => cur = actual,
        }
    }
}

// The `as_atomic_*` reinterprets are meaningless under loom (its atomics
// are fat tracking structs, not transparent wrappers), so the loom models
// exercise the algorithms through ordinary atomic arrays instead.
#[cfg(not(loom))]
mod reinterpret {
    use super::{AtomicU32, AtomicU64};

    // `as_atomic_u64` is sound only if the layouts agree exactly and the
    // plain integer is at least as aligned as its atomic counterpart.
    // Guaranteed on every mainstream 64-bit target, but targets where
    // `u64` is 4-byte-aligned (e.g. x86 32-bit) exist: fail the *build*
    // there, not the program.
    const _: () = assert!(
        std::mem::size_of::<u64>() == std::mem::size_of::<AtomicU64>()
            && std::mem::align_of::<u64>() >= std::mem::align_of::<AtomicU64>(),
        "u64 is under-aligned or mis-sized for AtomicU64 on this target"
    );
    const _: () = assert!(
        std::mem::size_of::<u32>() == std::mem::size_of::<AtomicU32>()
            && std::mem::align_of::<u32>() >= std::mem::align_of::<AtomicU32>(),
        "u32 is under-aligned or mis-sized for AtomicU32 on this target"
    );
    const _: () = assert!(
        std::mem::size_of::<usize>() == std::mem::size_of::<super::AtomicUsize>()
            && std::mem::align_of::<usize>() >= std::mem::align_of::<super::AtomicUsize>(),
        "usize is under-aligned or mis-sized for AtomicUsize on this target"
    );

    /// Reinterprets a mutable slice of `u64` as atomic cells.
    #[inline]
    pub fn as_atomic_u64(slice: &mut [u64]) -> &[AtomicU64] {
        // SAFETY: `AtomicU64` is `repr(transparent)` over `u64` with
        // identical size and compatible alignment (checked by the const
        // asserts above), and the unique `&mut` borrow we consume
        // guarantees no other reference to the storage exists for the
        // lifetime of the returned shared view.
        unsafe { &*(slice as *mut [u64] as *const [AtomicU64]) }
    }

    /// Reinterprets a mutable slice of `u32` as atomic cells (same argument
    /// as [`as_atomic_u64`]).
    #[inline]
    pub fn as_atomic_u32(slice: &mut [u32]) -> &[AtomicU32] {
        // SAFETY: as in `as_atomic_u64` — layout compatibility is checked
        // at compile time and the `&mut` borrow guarantees uniqueness.
        unsafe { &*(slice as *mut [u32] as *const [AtomicU32]) }
    }

    /// Reinterprets a mutable slice of `usize` as atomic cells (same
    /// argument as [`as_atomic_u64`]). Lets reusable `Vec<usize>` scratch
    /// buffers serve as bucket counters without per-level
    /// `Vec<AtomicUsize>` allocations.
    #[inline]
    pub fn as_atomic_usize(slice: &mut [usize]) -> &[super::AtomicUsize] {
        // SAFETY: as in `as_atomic_u64` — layout compatibility is checked
        // at compile time and the `&mut` borrow guarantees uniqueness.
        unsafe { &*(slice as *mut [usize] as *const [super::AtomicUsize]) }
    }
}
#[cfg(not(loom))]
pub use reinterpret::{as_atomic_u32, as_atomic_u64, as_atomic_usize};

/// A raw pointer blessed for cross-thread sharing during a parallel region
/// whose tasks write **provably disjoint index ranges** of one exclusively
/// borrowed allocation (bucket sorting, chunked compaction).
///
/// This is the workspace's one sanctioned way to hand parallel tasks
/// overlapping-lifetime views of a single `&mut` buffer; keeping it here —
/// in the audited sync layer — rather than ad hoc in each kernel keeps the
/// disjointness arguments reviewable in one place. Every use site must
/// state its disjointness proof in a `SAFETY:` comment.
#[derive(Debug, Clone, Copy)]
pub struct SendPtr<T>(pub *mut T);

// SAFETY: the pointer is shared only inside a parallel region over storage
// exclusively borrowed for that region, and each task dereferences a
// disjoint index range (callers prove this per use site); accesses never
// alias, so shared references to the wrapper are harmless.
unsafe impl<T> Sync for SendPtr<T> {}
// SAFETY: moving the pointer value across threads is trivially fine; every
// dereference is covered by the caller's disjoint-range argument.
unsafe impl<T> Send for SendPtr<T> {}

/// A shareable cooperative cancellation flag.
///
/// Clones share one underlying flag: any holder may
/// [`cancel`](CancelToken::cancel), and the detection engine polls
/// [`is_cancelled`](CancelToken::is_cancelled) at phase boundaries only —
/// never inside kernel hot loops. Cancellation is *cooperative*: setting
/// the flag does not interrupt a running kernel, it makes the engine stop
/// agglomerating at the next boundary and return the best-effort partition
/// from completed levels.
///
/// Both accesses are [`RELAXED`] (pattern 1 / pattern 3 of the module
/// docs): the store is idempotent and publishes no data — the only payload
/// is the flag itself — and a stale load merely delays the stop by one
/// phase. The engine's own join edges order everything else.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: std::sync::Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, RELAXED);
    }

    /// True once any clone of this token has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(RELAXED)
    }
}

/// A packed `(score, vertex)` proposal key with a total order: primary on
/// score, secondary on vertex id. Packing both into one `u64` would lose
/// `f64` precision, so the key spans two words conceptually but we only need
/// the *edge index* to recover everything; see `pcd-matching` for use.
///
/// Here we provide the simpler 64-bit packing used by the *old* edge-sweep
/// matching baseline: a 32-bit monotone score approximation and the partner
/// id. The new matching keeps exact `f64` scores in a side array and CASes
/// edge indices instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedBest(pub u64);

impl PackedBest {
    /// The "no proposal yet" register value.
    pub const EMPTY: PackedBest = PackedBest(0);

    /// Packs a score and partner. The score is squashed to a monotone `f32`;
    /// ties broken by partner id (higher id wins, matching the paper's
    /// "score then vertex indices" total order arbitrarily oriented).
    ///
    /// The score must be strictly positive: the sign-flip encoding maps
    /// *negative* scores to keys greater than [`PackedBest::EMPTY`] (0),
    /// so a non-positive proposal would beat an empty register and could
    /// match a pair the scorer rejected. Matching only proposes positive
    /// scores; debug builds enforce it here.
    #[inline]
    pub fn new(score: f64, partner: u32) -> Self {
        debug_assert!(
            score > 0.0,
            "PackedBest requires a strictly positive score, got {score}"
        );
        let s = score as f32; // monotone squash
        let bits = s.to_bits();
        let key = if bits >> 31 == 0 {
            bits | (1 << 31)
        } else {
            !bits
        };
        PackedBest(((key as u64) << 32) | partner as u64)
    }

    #[inline]
    /// The packed partner id.
    pub fn partner(self) -> u32 {
        (self.0 & 0xFFFF_FFFF) as u32
    }

    #[inline]
    /// True if no proposal has been packed.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn ord_f64_is_monotone() {
        let xs = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -0.0,
            0.0,
            1e-300,
            3.5,
            1e300,
            f64::INFINITY,
        ];
        for w in xs.windows(2) {
            assert!(ord_f64(w[0]) <= ord_f64(w[1]), "{} vs {}", w[0], w[1]);
        }
        assert!(ord_f64(-0.0) < ord_f64(0.0));
    }

    #[test]
    fn ord_f64_roundtrips() {
        for &x in &[-123.75, -0.0, 0.0, 0.5, 42.0, f64::INFINITY] {
            let y = unord_f64(ord_f64(x));
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn fetch_max_keeps_largest() {
        let c = AtomicU64::new(5);
        assert_eq!(fetch_max_u64(&c, 3), 5);
        assert_eq!(c.load(RELAXED), 5);
        assert_eq!(fetch_max_u64(&c, 9), 5);
        assert_eq!(c.load(RELAXED), 9);
    }

    #[test]
    fn cas_improve_installs_only_improvements() {
        let c = AtomicU64::new(10);
        assert!(!cas_improve_u64(&c, 7, |cur| 7 > cur));
        assert_eq!(c.load(RELAXED), 10);
        assert!(cas_improve_u64(&c, 42, |cur| 42 > cur));
        assert_eq!(c.load(RELAXED), 42);
    }

    #[test]
    fn cas_improve_parallel_is_max() {
        let c = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 1..=8u64 {
                let c = &c;
                s.spawn(move || {
                    for k in 0..1000u64 {
                        let v = t * 1000 + k;
                        cas_improve_u64(c, v, |cur| v > cur);
                    }
                });
            }
        });
        assert_eq!(c.load(RELAXED), 8999);
    }

    #[test]
    fn fetch_add_f64_accumulates() {
        let c = AtomicU64::new(0f64.to_bits());
        fetch_add_f64(&c, 1.5);
        fetch_add_f64(&c, 2.25);
        assert_eq!(f64::from_bits(c.load(RELAXED)), 3.75);
    }

    #[test]
    fn fetch_add_f64_parallel_sum() {
        let c = AtomicU64::new(0f64.to_bits());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = &c;
                s.spawn(move || {
                    for _ in 0..125 {
                        fetch_add_f64(c, 0.25);
                    }
                });
            }
        });
        assert_eq!(f64::from_bits(c.load(RELAXED)), 250.0);
    }

    #[test]
    fn packed_best_orders_by_score_then_partner() {
        let a = PackedBest::new(1.0, 7);
        let b = PackedBest::new(2.0, 3);
        assert!(b.0 > a.0);
        let c = PackedBest::new(1.0, 9);
        assert!(c.0 > a.0); // tie on score -> higher partner wins
        assert_eq!(c.partner(), 9);
        assert!(PackedBest::EMPTY.is_empty());
    }

    #[test]
    fn packed_best_positive_scores_beat_empty() {
        // Regression for the sign-flip footgun: every *positive* score must
        // produce a key strictly above EMPTY, down to the smallest
        // subnormal, so a real proposal always wins an empty register.
        for &s in &[f64::MIN_POSITIVE, 1e-300, 0.5, 1.0, 1e300] {
            assert!(
                PackedBest::new(s, 1).0 > PackedBest::EMPTY.0,
                "score {s} must beat EMPTY"
            );
        }
    }

    #[test]
    #[should_panic(expected = "strictly positive score")]
    #[cfg(debug_assertions)]
    fn packed_best_rejects_non_positive_scores() {
        // A non-positive score would encode to a key above EMPTY (the
        // sign-flip maps negatives high), letting a rejected proposal win
        // a register; debug builds refuse to construct one.
        let _ = PackedBest::new(-1.0, 1);
    }

    #[test]
    fn cancel_token_clones_share_one_flag() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!t.is_cancelled());
        assert!(!u.is_cancelled());
        u.cancel();
        assert!(t.is_cancelled());
        // Idempotent.
        t.cancel();
        assert!(u.is_cancelled());
    }

    #[test]
    fn cancel_token_crosses_threads() {
        let t = CancelToken::new();
        let u = t.clone();
        std::thread::scope(|s| {
            s.spawn(move || u.cancel());
        });
        assert!(t.is_cancelled());
    }

    #[test]
    fn as_atomic_views_alias_storage() {
        let mut v = vec![0u64; 4];
        {
            let a = as_atomic_u64(&mut v);
            a[2].store(99, RELAXED);
        }
        assert_eq!(v[2], 99);
        let mut w = vec![0u32; 4];
        {
            let a = as_atomic_u32(&mut w);
            a[1].store(7, RELAXED);
        }
        assert_eq!(w[1], 7);
        let mut u = vec![0usize; 4];
        {
            let a = as_atomic_usize(&mut u);
            a[3].fetch_add(11, RELAXED);
        }
        assert_eq!(u[3], 11);
    }
}
