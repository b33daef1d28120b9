//! Deterministic fork-join parallelism on a pool of std threads.
//!
//! The paper's OpenMP port parallelises every kernel loop with static
//! chunks and a barrier at the end; this module is the same shape in
//! std-only Rust, behind a small parallel-iterator surface
//! (`par_iter().map(..).sum()`, `into_par_iter().for_each(..)`, ...).
//! Three rules make every result independent of the worker count:
//!
//! 1. **Chunk boundaries depend only on the input length and a grain.**
//!    A loop over `n` items is cut into chunks of
//!    `max(grain, ceil(n / MAX_CHUNKS))` items, whatever the pool size.
//!    Workers claim chunks dynamically (whoever is free takes the next
//!    one), and every reduction, `collect` and `unzip` combines the
//!    per-chunk results **in chunk order**. A float `sum` therefore
//!    adds the same partial sums in the same order on 1, 2 or 8 workers,
//!    and is bit-identical across them.
//! 2. **One worker, a nested region, or a loop within one chunk runs
//!    inline** on the calling thread, spawning nothing and allocating
//!    nothing: as one plain pass when the result cannot depend on chunk
//!    boundaries (`for_each`, `collect`, `any`), else chunk by chunk in
//!    order (`sum`, `min`), so it matches a multi-worker run bit for bit.
//! 3. **Loops with uneven per-item work split on work**:
//!    [`for_each_range_by_work`] places chunk boundaries on a
//!    caller-supplied work estimate (bucket sizes, vertex degrees) rather
//!    than on the item count.
//!
//! A parallel region is offered to up to `workers - 1` helper threads,
//! which are started once per process and sleep between regions; the
//! caller claims chunks too and returns once every chunk has finished,
//! so the region end is the happens-before edge every `RELAXED`
//! fork-join accumulation in the kernels relies on (`pcd_util::sync`,
//! pattern 1). The caller never waits for a helper that has not started
//! on the region, only for chunks already running, so a helper whose
//! core is busy with another process costs its share of the work rather
//! than a stall at every join. A panic in any chunk stops further chunk
//! claims and resumes on the caller with the original payload once every
//! chunk has finished, so `catch_unwind` around a
//! detection run (`Detector::run_observed`) sees it exactly as it would a
//! sequential panic.
//!
//! The worker count comes from [`crate::pool::with_threads`] (scoped to
//! a closure), else [`crate::pool::pin_global`] (process-wide, first
//! caller wins), else the host's available parallelism.

use crate::sync::{AtomicBool, AtomicUsize, SendPtr, ACQUIRE, ACQ_REL, RELAXED};
use std::cell::Cell;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Default minimum items per chunk. A loop over fewer items runs inline;
/// handing chunks to a helper thread costs about as much as a few
/// thousand trivial loop bodies, so smaller loops would only lose.
pub const GRAIN: usize = 8192;

/// Most chunks one loop is cut into; larger loops get longer chunks.
/// Enough chunks for dynamic claiming to balance uneven chunks across
/// a handful of workers, few enough that per-chunk bookkeeping is noise.
pub const MAX_CHUNKS: usize = 128;

thread_local! {
    /// Worker count set by `with_threads` on this thread (0: unset).
    static THREADS: Cell<usize> = const { Cell::new(0) };
    /// Set while this thread executes chunks of a parallel region.
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
}

/// Worker count pinned by `pin_global` (0: unpinned).
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Worker count parallel loops started on this thread will use.
pub fn current_num_threads() -> usize {
    let local = THREADS.with(Cell::get);
    if local > 0 {
        return local;
    }
    // ORDERING: RELAXED — a one-word setting written once by `pin_global`;
    // no other data is published through it.
    let pinned = GLOBAL_THREADS.load(RELAXED);
    if pinned > 0 {
        return pinned;
    }
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs `f` with this thread's worker count set to `threads` (0: the
/// pinned or host default), restoring the previous setting afterwards —
/// also when `f` panics.
pub(crate) fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    let _restore = SetCell::new(&THREADS, threads);
    f()
}

/// Pins the process-wide default worker count; `true` for the first
/// caller with a nonzero count, `false` once a count is pinned.
pub(crate) fn pin_global(threads: usize) -> bool {
    // ORDERING: RELAXED — the CAS only has to pick one winner (atomicity);
    // the pinned count is a plain setting that publishes nothing else.
    GLOBAL_THREADS
        .compare_exchange(0, threads, RELAXED, RELAXED)
        .is_ok()
}

/// Sets a thread-local cell for a scope and restores the old value on
/// drop, unwinding included.
struct SetCell<T: Copy + 'static> {
    key: &'static std::thread::LocalKey<Cell<T>>,
    old: T,
}

impl<T: Copy + 'static> SetCell<T> {
    fn new(key: &'static std::thread::LocalKey<Cell<T>>, value: T) -> Self {
        SetCell {
            key,
            old: key.with(|c| c.replace(value)),
        }
    }
}

impl<T: Copy + 'static> Drop for SetCell<T> {
    fn drop(&mut self) {
        let old = self.old;
        self.key.with(|c| c.set(old));
    }
}

/// Items per chunk for a loop of `len` items under `grain`.
fn chunk_len(len: usize, grain: usize) -> usize {
    grain.max(1).max(len.div_ceil(MAX_CHUNKS))
}

/// Whether a loop of `nchunks` chunks started here runs on more than one
/// thread: not for one chunk, one worker, or inside another region.
fn goes_parallel(nchunks: usize) -> bool {
    nchunks > 1 && current_num_threads() > 1 && !IN_REGION.with(Cell::get)
}

/// Runs `work(c, piece)` on every piece on up to `current_num_threads()`
/// threads (the caller included), each piece exactly once, claimed in
/// index order; returns the results in piece order. The first panic (by
/// piece index) is resumed on the caller after every piece has finished.
fn run_pieces<X: Send, R: Send>(pieces: Vec<X>, work: impl Fn(usize, X) -> R + Sync) -> Vec<R> {
    let n = pieces.len();
    let threads = current_num_threads();
    let slots: Vec<Mutex<Slot<X, R>>> = pieces
        .into_iter()
        .map(|p| Mutex::new(Slot::Piece(p)))
        .collect();
    let failed = AtomicBool::new(false);
    let lock = |c: usize| slots[c].lock().unwrap_or_else(PoisonError::into_inner);
    run_region(n, threads, &|c| {
        let _region = SetCell::new(&IN_REGION, true);
        let _threads = SetCell::new(&THREADS, threads);
        let Slot::Piece(piece) = std::mem::replace(&mut *lock(c), Slot::Skipped) else {
            return;
        };
        // ORDERING: RELAXED — an advisory early-exit flag: a stale read
        // merely runs one more piece. Results travel through the slot
        // mutexes and the region's completion count, which order them.
        if failed.load(RELAXED) {
            return;
        }
        let done = match panic::catch_unwind(AssertUnwindSafe(|| work(c, piece))) {
            Ok(r) => Slot::Done(r),
            Err(payload) => {
                failed.store(true, RELAXED);
                Slot::Failed(payload)
            }
        };
        *lock(c) = done;
    });
    // A piece is skipped only after another has failed, so a missing
    // result always comes with a failure; the first one in order wins.
    let mut out = Vec::with_capacity(n);
    for slot in slots {
        match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
            Slot::Done(r) => out.push(r),
            Slot::Failed(payload) => panic::resume_unwind(payload),
            Slot::Piece(_) | Slot::Skipped => {}
        }
    }
    assert_eq!(out.len(), n, "a piece was skipped without a failure");
    out
}

/// One piece's state in [`run_pieces`].
enum Slot<X, R> {
    Piece(X),
    Done(R),
    Failed(Box<dyn std::any::Any + Send>),
    Skipped,
}

/// Calls `body(c)` once for every `c < chunks` on up to `threads` threads:
/// the caller plus helpers from the process-wide [`Helpers`] pool. Returns
/// once every call has returned. A `body` that unwinds aborts the process
/// ([`run_pieces`] catches chunk panics itself).
///
/// The caller never waits for a helper that has not started on the
/// region: chunks are claimed from a shared counter, the caller claims
/// too, and at the end it waits only for chunks already running
/// elsewhere. A helper that wakes late (its core busy with another
/// process) finds nothing left and goes back to sleep, so a contended
/// core costs its share of the work, not a stall at every join.
fn run_region(chunks: usize, threads: usize, body: &(dyn Fn(usize) + Sync)) {
    let seats = threads.min(chunks).saturating_sub(1);
    // SAFETY: helpers call `body` only for a chunk index they claimed
    // below `chunks` (`Region::work`), and `Finish` below, which runs on
    // return and on unwind alike, claims whatever is left and waits until
    // every claimed call has returned (`done == chunks`) before this frame
    // ends. A helper that reaches the region later claims an index past
    // the end and never reads `body`; it only touches the counters, which
    // the `Arc` keeps alive.
    let body: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(body) };
    let region = Arc::new(Region {
        chunks,
        body,
        next: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        seats: AtomicUsize::new(seats),
        caller: std::thread::current(),
    });
    let finish = Finish {
        region: &region,
        helpers: &HELPERS,
    };
    finish.helpers.post(&region, seats);
    // The caller works through the region too; dropping `finish` does it
    // (and on an unwind still waits before this frame ends).
    drop(finish);
}

/// Ends a region on its caller: runs the unclaimed chunks, withdraws the
/// region from the pool and waits for chunks still running on helpers.
struct Finish<'a> {
    region: &'a Arc<Region>,
    helpers: &'static Helpers,
}

impl Drop for Finish<'_> {
    fn drop(&mut self) {
        self.region.work();
        self.helpers.withdraw(self.region);
        self.region.wait();
    }
}

/// A parallel region as the helpers see it.
struct Region {
    chunks: usize,
    body: &'static (dyn Fn(usize) + Sync),
    /// Next chunk index to claim; indices past `chunks` mean "finished".
    next: AtomicUsize,
    /// Chunks whose `body` call has returned.
    done: AtomicUsize,
    /// Helpers that may still join (`threads - 1` at the start).
    seats: AtomicUsize,
    /// Woken by whichever thread finishes the last chunk.
    caller: std::thread::Thread,
}

impl Region {
    /// Claims and runs chunks until none is left.
    fn work(&self) {
        loop {
            // ORDERING: RELAXED — the counter only hands out distinct
            // indices (atomicity). ACQ_REL on `done` publishes the chunk's
            // writes to the caller, whose ACQUIRE load in `wait` reads
            // the final count of this RMW chain.
            let c = self.next.fetch_add(1, RELAXED);
            if c >= self.chunks {
                return;
            }
            // An unwinding body would leave `done` short and could end
            // the caller's frame while helpers still run it.
            if panic::catch_unwind(AssertUnwindSafe(|| (self.body)(c))).is_err() {
                std::process::abort();
            }
            if self.done.fetch_add(1, ACQ_REL) + 1 == self.chunks {
                self.caller.unpark();
            }
        }
    }

    /// Waits (spinning briefly, then parked) until every chunk is done.
    fn wait(&self) {
        let spin_until = Instant::now() + SPIN;
        // ORDERING: ACQUIRE — pairs with the ACQ_REL increments in `work`,
        // so every chunk's writes are visible once the count is complete.
        while self.done.load(ACQUIRE) < self.chunks {
            if Instant::now() < spin_until {
                std::hint::spin_loop();
            } else {
                std::thread::park();
            }
        }
    }
}

/// How long an idle helper, or a caller waiting for its last chunks,
/// spins before it sleeps. Kernel loops come in bursts a few
/// microseconds apart; a sleeping thread takes longer than that to wake.
const SPIN: Duration = Duration::from_micros(50);

/// The helper threads shared by every parallel region in the process.
/// They start on first need (as many as the widest region asked for),
/// sleep between regions and live as long as the process. Under Miri,
/// which reports threads still running at exit, each region spawns
/// scoped helpers instead.
struct Helpers {
    /// Regions that may still have unclaimed chunks, oldest first.
    queue: Mutex<Vec<Arc<Region>>>,
    /// Signalled when a region is posted.
    posted: Condvar,
    /// Bumped on every post, so a spinning helper notices new work
    /// without taking the lock.
    generation: AtomicUsize,
    /// Helper threads started so far.
    started: Mutex<usize>,
}

static HELPERS: Helpers = Helpers {
    queue: Mutex::new(Vec::new()),
    posted: Condvar::new(),
    generation: AtomicUsize::new(0),
    started: Mutex::new(0),
};

impl Helpers {
    /// Offers `region` to `seats` helpers, starting helpers as needed.
    /// If a thread cannot be started the region simply gets fewer
    /// helpers; the caller runs whatever they leave.
    fn post(&'static self, region: &Arc<Region>, seats: usize) {
        if cfg!(miri) {
            std::thread::scope(|s| {
                for _ in 0..seats {
                    let _ = std::thread::Builder::new().spawn_scoped(s, || region.work());
                }
                region.work();
            });
            return;
        }
        {
            let mut started = self.started.lock().unwrap_or_else(PoisonError::into_inner);
            while *started < seats {
                let spawned = std::thread::Builder::new()
                    .name("pcd-par".into())
                    .spawn(move || self.serve());
                if spawned.is_err() {
                    break;
                }
                *started += 1;
            }
        }
        self.lock().push(Arc::clone(region));
        // ORDERING: RELAXED — a hint that something was posted; the queue
        // mutex orders the region itself.
        self.generation.fetch_add(1, RELAXED);
        self.posted.notify_all();
    }

    /// Removes a region whose chunks have all been claimed.
    fn withdraw(&self, region: &Arc<Region>) {
        self.lock().retain(|r| !Arc::ptr_eq(r, region));
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Arc<Region>>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A posted region with unclaimed chunks and a free seat, if any;
    /// takes the seat.
    fn take_seat(queue: &[Arc<Region>]) -> Option<Arc<Region>> {
        // ORDERING: RELAXED — `seats` changes only under the queue lock,
        // which orders it; a stale `next` merely offers a finished region,
        // whose `work` then returns at once.
        let r = queue
            .iter()
            .find(|r| r.seats.load(RELAXED) > 0 && r.next.load(RELAXED) < r.chunks)?;
        r.seats.fetch_sub(1, RELAXED);
        Some(Arc::clone(r))
    }

    /// A helper thread's life: take a seat in a region, work, repeat.
    fn serve(&self) -> ! {
        loop {
            let region = self.next_region();
            region.work();
        }
    }

    /// Waits for a region to help with: spins on `generation` for
    /// [`SPIN`], then sleeps on `posted`.
    fn next_region(&self) -> Arc<Region> {
        // ORDERING: RELAXED — `generation` only says "look again"; the
        // queue mutex orders what is found there.
        let mut seen = self.generation.load(RELAXED);
        let spin_until = Instant::now() + SPIN;
        loop {
            if let Some(r) = Self::take_seat(&self.lock()) {
                return r;
            }
            while self.generation.load(RELAXED) == seen && Instant::now() < spin_until {
                std::hint::spin_loop();
            }
            let now = self.generation.load(RELAXED);
            if now != seen {
                seen = now;
                continue;
            }
            let mut queue = self.lock();
            loop {
                if let Some(r) = Self::take_seat(&queue) {
                    return r;
                }
                queue = self
                    .posted
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// Splits `producer` at fixed chunk boundaries, runs `run` on every chunk
/// (in parallel when the region has more than one worker) and feeds the
/// results to `fold` in chunk order. `whole` says the result does not
/// depend on where chunks are cut (a `for_each`, an ordered `collect`);
/// run inline, such a loop is one plain pass over the whole input.
fn execute<P: Producer, R: Send>(
    producer: P,
    grain: usize,
    whole: bool,
    run: impl Fn(Range<usize>, P) -> R + Sync,
    mut fold: impl FnMut(R),
) {
    let len = producer.len();
    let step = chunk_len(len, grain);
    let nchunks = len.div_ceil(step).max(1);
    if !goes_parallel(nchunks) {
        if whole {
            fold(run(0..len, producer));
            return;
        }
        let (mut rest, mut at) = (producer, 0);
        while rest.len() > step {
            let (head, tail) = rest.split_at(step);
            fold(run(at..at + step, head));
            (rest, at) = (tail, at + step);
        }
        fold(run(at..len, rest));
        return;
    }
    // Cut every chunk up front, peeling from the back so that an owned
    // vector copies each item once.
    let mut pieces = Vec::with_capacity(nchunks);
    let mut rest = producer;
    for c in (1..nchunks).rev() {
        let (head, tail) = rest.split_at(c * step);
        pieces.push(tail);
        rest = head;
    }
    pieces.push(rest);
    pieces.reverse();
    let chunk = |c: usize| c * step..len.min((c + 1) * step);
    run_pieces(pieces, |c, p| run(chunk(c), p))
        .into_iter()
        .for_each(fold);
}

/// Calls `body` on contiguous index ranges covering `0..n` — the chunks
/// `(0..n).into_par_iter()` would run — for loops that want to work a
/// chunk at a time (batching, per-chunk state without `for_each_init`).
pub fn for_each_range(n: usize, body: impl Fn(Range<usize>) + Sync) {
    execute(0..n, GRAIN, true, |_, r| body(r), |()| {});
}

/// Calls `body` on contiguous index ranges covering `0..n`, in parallel,
/// with boundaries chosen so each range holds about the same total of
/// `work(i) + 1`. Use it where per-item work is uneven (bucket sizes,
/// vertex degrees): an item-count split would leave one chunk holding
/// most of the work. Boundaries depend only on `n`, `work` and
/// `grain_work` (the least work worth a chunk of its own); with one
/// worker, or total work under two grains, `body(0..n)` runs inline.
pub fn for_each_range_by_work(
    n: usize,
    grain_work: usize,
    work: impl Fn(usize) -> usize + Sync,
    body: impl Fn(Range<usize>) + Sync,
) {
    // A slice of zero-sized units carries the length without allocating.
    for_each_range_by_work_mut(&mut vec![(); n], grain_work, work, |r, _| body(r));
}

/// As [`for_each_range_by_work`] over `data`'s indices, also handing each
/// range its own `&mut data[range]`, for loops that fill one slot per
/// item.
pub fn for_each_range_by_work_mut<T: Send>(
    data: &mut [T],
    grain_work: usize,
    work: impl Fn(usize) -> usize + Sync,
    body: impl Fn(Range<usize>, &mut [T]) + Sync,
) {
    let n = data.len();
    if n == 0 {
        return;
    }
    if !goes_parallel(2) {
        body(0..n, data);
        return;
    }
    let total: usize = (0..n).map(|i| work(i) + 1).sum();
    let nchunks = (total / grain_work.max(1)).clamp(1, MAX_CHUNKS);
    if nchunks <= 1 {
        body(0..n, data);
        return;
    }
    // Cut after the item that reaches the next multiple of total/nchunks.
    // An item makes at most one cut, so a huge item leaves fewer, longer
    // chunks rather than empty ones.
    let mut pieces = Vec::with_capacity(nchunks);
    let (mut acc, mut start, mut rest) = (0usize, 0usize, data);
    for i in 0..n {
        acc += work(i) + 1;
        let k = pieces.len() + 1;
        if k < nchunks && acc * nchunks >= k * total {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(i + 1 - start);
            pieces.push((start..i + 1, head));
            (start, rest) = (i + 1, tail);
        }
    }
    pieces.push((start..n, rest));
    run_pieces(pieces, |_, (r, slice)| body(r, slice));
}

// ---------------------------------------------------------------------
// Producers: splittable, indexed sources of items.
// ---------------------------------------------------------------------

/// A splittable source of a known number of items — the unit a parallel
/// loop cuts into chunks.
pub trait Producer: Send + Sized {
    /// Item type.
    type Item;
    /// Sequential iterator over one chunk.
    type IntoIter: Iterator<Item = Self::Item>;
    /// Number of items.
    fn len(&self) -> usize;
    /// True when there are no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Splits into `[0, mid)` and `[mid, len)`.
    fn split_at(self, mid: usize) -> (Self, Self);
    /// Iterates the items in order.
    fn into_iter(self) -> Self::IntoIter;
    /// Default minimum items per chunk for this source.
    fn grain(&self) -> usize {
        GRAIN
    }
}

macro_rules! range_producer {
    ($($t:ty),*) => {$(
        impl Producer for Range<$t> {
            type Item = $t;
            type IntoIter = Range<$t>;
            fn len(&self) -> usize {
                self.end.saturating_sub(self.start) as usize
            }
            fn split_at(self, mid: usize) -> (Self, Self) {
                let at = self.start + mid as $t;
                (self.start..at, at..self.end)
            }
            fn into_iter(self) -> Self::IntoIter {
                self
            }
        }

        impl IntoParallelIterator for Range<$t> {
            type Item = $t;
            type Iter = Par<Range<$t>>;
            fn into_par_iter(self) -> Self::Iter {
                Par::new(self)
            }
        }
    )*};
}

range_producer!(usize, u32, u64);

impl<'a, T: Sync> Producer for &'a [T] {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn len(&self) -> usize {
        <[T]>::len(self)
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        <[T]>::split_at(self, mid)
    }
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a, T: Send> Producer for &'a mut [T] {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;
    fn len(&self) -> usize {
        <[T]>::len(self)
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        self.split_at_mut(mid)
    }
    fn into_iter(self) -> Self::IntoIter {
        self.iter_mut()
    }
}

/// An owned vector's items. Splitting copies the tail into a new vector,
/// so parallel loops cut owned vectors from the back (each item is copied
/// once). An inline chunk-by-chunk loop (a `sum` of owned values, which
/// no kernel runs) copies the remaining tail at every chunk boundary.
#[derive(Debug)]
pub struct VecProducer<T>(Vec<T>);

impl<T: Send> Producer for VecProducer<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;
    fn len(&self) -> usize {
        self.0.len()
    }
    fn split_at(mut self, mid: usize) -> (Self, Self) {
        let tail = self.0.split_off(mid);
        (self, VecProducer(tail))
    }
    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

/// [`ParallelSlice::par_chunks`]' source: sub-slices of `size` items.
#[derive(Debug)]
pub struct ChunksProducer<'a, T> {
    slice: &'a [T],
    size: usize,
}

impl<'a, T: Sync> Producer for ChunksProducer<'a, T> {
    type Item = &'a [T];
    type IntoIter = std::slice::Chunks<'a, T>;
    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.slice.split_at((mid * self.size).min(self.slice.len()));
        let size = self.size;
        (
            ChunksProducer { slice: a, size },
            ChunksProducer { slice: b, size },
        )
    }
    fn into_iter(self) -> Self::IntoIter {
        self.slice.chunks(self.size)
    }
    fn grain(&self) -> usize {
        GRAIN.div_ceil(self.size)
    }
}

/// [`ParallelSliceMut::par_chunks_mut`]' source.
#[derive(Debug)]
pub struct ChunksMutProducer<'a, T> {
    slice: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> Producer for ChunksMutProducer<'a, T> {
    type Item = &'a mut [T];
    type IntoIter = std::slice::ChunksMut<'a, T>;
    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let at = (mid * self.size).min(self.slice.len());
        let (a, b) = self.slice.split_at_mut(at);
        let size = self.size;
        (
            ChunksMutProducer { slice: a, size },
            ChunksMutProducer { slice: b, size },
        )
    }
    fn into_iter(self) -> Self::IntoIter {
        self.slice.chunks_mut(self.size)
    }
    fn grain(&self) -> usize {
        GRAIN.div_ceil(self.size)
    }
}

/// [`Par::zip`]'s source: pairs of two producers, as long as the shorter.
#[derive(Debug)]
pub struct ZipProducer<A, B>(A, B);

impl<A: Producer, B: Producer> Producer for ZipProducer<A, B> {
    type Item = (A::Item, B::Item);
    type IntoIter = std::iter::Zip<A::IntoIter, B::IntoIter>;
    fn len(&self) -> usize {
        self.0.len().min(self.1.len())
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a0, a1) = self.0.split_at(mid);
        let (b0, b1) = self.1.split_at(mid);
        (ZipProducer(a0, b0), ZipProducer(a1, b1))
    }
    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter().zip(self.1.into_iter())
    }
    fn grain(&self) -> usize {
        self.0.grain().min(self.1.grain())
    }
}

/// [`Par::enumerate`]'s source: items paired with their global index.
#[derive(Debug)]
pub struct EnumerateProducer<P> {
    base: P,
    offset: usize,
}

impl<P: Producer> Producer for EnumerateProducer<P> {
    type Item = (usize, P::Item);
    type IntoIter = std::iter::Zip<Range<usize>, P::IntoIter>;
    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(mid);
        (
            EnumerateProducer {
                base: a,
                offset: self.offset,
            },
            EnumerateProducer {
                base: b,
                offset: self.offset + mid,
            },
        )
    }
    fn into_iter(self) -> Self::IntoIter {
        let len = self.base.len();
        (self.offset..self.offset + len).zip(self.base.into_iter())
    }
    fn grain(&self) -> usize {
        self.base.grain()
    }
}

// ---------------------------------------------------------------------
// Parallel iterators.
// ---------------------------------------------------------------------

/// What a terminal operation does with one chunk's sequential iterator.
/// Implemented by the terminal operations and adaptors in this module.
pub trait ChunkOp<T>: Sync {
    /// The chunk's result.
    type Out: Send;
    /// True when the folded result is the same however the input is cut
    /// into chunks, so an inline run may treat it as one chunk.
    const WHOLE: bool = false;
    /// Consumes the chunk holding the source's items `chunk`.
    fn run<I: Iterator<Item = T>>(&self, chunk: Range<usize>, iter: I) -> Self::Out;
}

/// A parallel iterator: a chunked source plus a pipeline of per-item
/// adaptors, consumed by a terminal operation.
pub trait ParallelIterator: Sized {
    /// Item type.
    type Item;

    /// Runs `op` on every chunk and feeds the results to `fold` in chunk
    /// order. The building block of every terminal operation.
    fn drive<C: ChunkOp<Self::Item>>(self, op: &C, fold: impl FnMut(C::Out));

    /// `Some(n)` when the iterator yields exactly one item per source
    /// item (`n` of them), so chunk `a..b` of the source yields output
    /// items `a..b`; `None` after a `filter` or `flat_map_iter`.
    #[doc(hidden)]
    fn exact_len(&self) -> Option<usize>;

    /// Applies `f` to every item.
    fn map<R, F: Fn(Self::Item) -> R + Sync>(self, f: F) -> Map<Self, F> {
        Map { base: self, f }
    }

    /// Keeps the items matching `p`.
    fn filter<P: Fn(&Self::Item) -> bool + Sync>(self, p: P) -> Filter<Self, P> {
        Filter { base: self, p }
    }

    /// Maps and keeps the `Some` results.
    fn filter_map<R, F: Fn(Self::Item) -> Option<R> + Sync>(self, f: F) -> FilterMap<Self, F> {
        FilterMap { base: self, f }
    }

    /// Flattens a serial iterator produced per item.
    fn flat_map_iter<U: IntoIterator, F: Fn(Self::Item) -> U + Sync>(
        self,
        f: F,
    ) -> FlatMapIter<Self, F> {
        FlatMapIter { base: self, f }
    }

    /// `map` with a state value built by `init` once per chunk.
    fn map_init<S, R, INIT, F>(self, init: INIT, f: F) -> MapInit<Self, INIT, F>
    where
        INIT: Fn() -> S + Sync,
        F: Fn(&mut S, Self::Item) -> R + Sync,
    {
        MapInit {
            base: self,
            init,
            f,
        }
    }

    /// Copies referenced items.
    fn copied<'a, T: 'a + Copy>(self) -> Copied<Self>
    where
        Self: ParallelIterator<Item = &'a T>,
    {
        Copied { base: self }
    }

    /// Calls `f` on every item.
    fn for_each<F: Fn(Self::Item) + Sync>(self, f: F) {
        self.drive(&ForEach(f), |()| {});
    }

    /// `for_each` with a state value built by `init` once per chunk.
    fn for_each_init<S, INIT, F>(self, init: INIT, f: F)
    where
        INIT: Fn() -> S + Sync,
        F: Fn(&mut S, Self::Item) + Sync,
    {
        self.map_init(init, f).for_each(|()| {});
    }

    /// Sum of the items: per-chunk sums added in chunk order.
    fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<Self::Item> + std::iter::Sum<S>,
    {
        let mut acc: Option<S> = None;
        self.drive(&Sum::<S>(std::marker::PhantomData), |s| {
            acc = Some(match acc.take() {
                None => s,
                Some(a) => [a, s].into_iter().sum(),
            });
        });
        acc.unwrap_or_else(|| std::iter::empty::<S>().sum())
    }

    /// Number of items.
    fn count(self) -> usize {
        self.map(|_| 1usize).sum()
    }

    /// The least item (the first of equals), as `Iterator::min`.
    fn min(self) -> Option<Self::Item>
    where
        Self::Item: Ord + Send,
    {
        self.reduce_with(std::cmp::min)
    }

    /// The greatest item (the last of equals), as `Iterator::max`.
    fn max(self) -> Option<Self::Item>
    where
        Self::Item: Ord + Send,
    {
        self.reduce_with(std::cmp::max)
    }

    /// The greatest item under `cmp` (the last of equals).
    fn max_by<F>(self, cmp: F) -> Option<Self::Item>
    where
        Self::Item: Send,
        F: Fn(&Self::Item, &Self::Item) -> std::cmp::Ordering + Sync,
    {
        self.reduce_with(|a, b| std::cmp::max_by(a, b, &cmp))
    }

    /// Folds the items left to right with `op`: within each chunk, then
    /// across chunk results in chunk order.
    fn reduce_with<F>(self, op: F) -> Option<Self::Item>
    where
        Self::Item: Send,
        F: Fn(Self::Item, Self::Item) -> Self::Item + Sync,
    {
        let mut acc = None;
        self.drive(&Reduce(&op), |r| {
            acc = match (acc.take(), r) {
                (Some(a), Some(b)) => Some(op(a, b)),
                (a, b) => a.or(b),
            };
        });
        acc
    }

    /// True if `p` holds for any item.
    fn any<P: Fn(Self::Item) -> bool + Sync>(self, p: P) -> bool {
        let mut found = false;
        self.drive(&Any(p), |b| found |= b);
        found
    }

    /// True if `p` holds for every item.
    fn all<P: Fn(Self::Item) -> bool + Sync>(self, p: P) -> bool {
        !self.any(|x| !p(x))
    }

    /// The first item (in input order) matching `p`: deterministic for
    /// every worker count.
    fn find_any<P: Fn(&Self::Item) -> bool + Sync>(self, p: P) -> Option<Self::Item>
    where
        Self::Item: Send,
    {
        let mut first = None;
        self.drive(&Find(p), |r| {
            if first.is_none() {
                first = r;
            }
        });
        first
    }

    /// Collects into `C` in input order.
    fn collect<C: FromParallelIterator<Self::Item>>(self) -> C {
        C::from_par_iter(self)
    }

    /// Splits pairs into two vectors, in input order.
    fn unzip<A: Send, B: Send>(self) -> (Vec<A>, Vec<B>)
    where
        Self: ParallelIterator<Item = (A, B)>,
    {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        self.drive(&Unzip, |(ca, cb): (Vec<A>, Vec<B>)| {
            a.push(ca);
            b.push(cb);
        });
        let (a, b) = (concat(a), concat(b));
        (a, b)
    }
}

/// Concatenates per-chunk vectors in order into one exactly sized vector
/// (a single chunk is returned as is).
fn concat<T>(mut chunks: Vec<Vec<T>>) -> Vec<T> {
    if chunks.len() == 1 {
        return chunks.pop().unwrap_or_default();
    }
    let mut out = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
    for chunk in chunks {
        out.extend(chunk);
    }
    out
}

/// Collections a parallel iterator can be collected into.
pub trait FromParallelIterator<T> {
    /// Builds the collection from `iter`'s items in input order.
    fn from_par_iter<I: ParallelIterator<Item = T>>(iter: I) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<I: ParallelIterator<Item = T>>(iter: I) -> Self {
        if let Some(n) = iter.exact_len() {
            return collect_exact(iter, n);
        }
        let mut chunks = Vec::new();
        iter.drive(&CollectVec, |chunk| chunks.push(chunk));
        concat(chunks)
    }
}

/// Collects a one-item-per-source-item iterator of length `n` straight
/// into an exactly sized vector: chunk `a..b` writes slots `a..b`.
fn collect_exact<T: Send, I: ParallelIterator<Item = T>>(iter: I, n: usize) -> Vec<T> {
    let mut out: Vec<T> = Vec::with_capacity(n);
    let slots = SendPtr(out.spare_capacity_mut().as_mut_ptr());
    let mut written = 0;
    iter.drive(&CollectInto { slots, n }, |k| written += k);
    // Every chunk wrote exactly its own slots (checked per chunk), and the
    // chunks partition `0..n`, so all `n` slots are initialised.
    assert_eq!(written, n, "collect: chunks wrote {written} of {n} items");
    // SAFETY: slots `0..n` are initialised (above) and within capacity.
    unsafe { out.set_len(n) };
    out
}

/// [`collect_exact`]'s chunk operation: the output's raw slots, shared
/// by the chunks, each of which writes only its own range.
struct CollectInto<T> {
    slots: SendPtr<std::mem::MaybeUninit<T>>,
    n: usize,
}

impl<T: Send> ChunkOp<T> for CollectInto<T> {
    type Out = usize;
    const WHOLE: bool = true;

    fn run<I: Iterator<Item = T>>(&self, chunk: Range<usize>, iter: I) -> usize {
        assert!(
            chunk.end <= self.n,
            "collect: chunk {chunk:?} past {}",
            self.n
        );
        let mut at = chunk.start;
        for x in iter {
            assert!(
                at < chunk.end,
                "collect: chunk {chunk:?} yielded too many items"
            );
            // SAFETY: `at` lies in this chunk's own range of the
            // vector's capacity (asserted above); chunks are disjoint, so
            // no other worker touches this slot.
            unsafe { (*self.slots.0.add(at)).write(x) };
            at += 1;
        }
        assert_eq!(
            at, chunk.end,
            "collect: chunk {chunk:?} yielded too few items"
        );
        chunk.end - chunk.start
    }
}

/// Collects every `Ok` value in order, or returns the first error in
/// input order (all items are evaluated).
impl<T: Send, E: Send> FromParallelIterator<Result<T, E>> for Result<Vec<T>, E> {
    fn from_par_iter<I: ParallelIterator<Item = Result<T, E>>>(iter: I) -> Self {
        Vec::<Result<T, E>>::from_par_iter(iter)
            .into_iter()
            .collect()
    }
}

/// The basic parallel iterator: a [`Producer`] cut into chunks of at least
/// `grain` items.
#[derive(Debug)]
pub struct Par<P> {
    producer: P,
    grain: usize,
}

impl<P: Producer> Par<P> {
    fn new(producer: P) -> Self {
        let grain = producer.grain();
        Par { producer, grain }
    }

    /// Sets the least number of items per chunk (default [`GRAIN`]). Lower
    /// it for loops whose items are individually expensive.
    pub fn with_min_len(mut self, grain: usize) -> Self {
        self.grain = grain.max(1);
        self
    }

    /// Pairs every item with its index.
    pub fn enumerate(self) -> Par<EnumerateProducer<P>> {
        Par {
            producer: EnumerateProducer {
                base: self.producer,
                offset: 0,
            },
            grain: self.grain,
        }
    }

    /// Pairs items with `other`'s, up to the shorter length.
    pub fn zip<Q: Producer>(self, other: Par<Q>) -> Par<ZipProducer<P, Q>> {
        Par {
            producer: ZipProducer(self.producer, other.producer),
            grain: self.grain.min(other.grain),
        }
    }

    /// Index of the first item matching `p`.
    pub fn position_any<F: Fn(P::Item) -> bool + Sync>(self, p: F) -> Option<usize> {
        self.enumerate()
            .map(|(i, x)| (i, p(x)))
            .find_any(|&(_, hit)| hit)
            .map(|(i, _)| i)
    }
}

impl<T, P: Producer<Item = T>> ParallelIterator for Par<P> {
    type Item = T;

    fn exact_len(&self) -> Option<usize> {
        Some(self.producer.len())
    }

    fn drive<C: ChunkOp<T>>(self, op: &C, fold: impl FnMut(C::Out)) {
        execute(
            self.producer,
            self.grain,
            C::WHOLE,
            |r, p| op.run(r, p.into_iter()),
            fold,
        );
    }
}

/// [`ParallelIterator::map`].
#[derive(Debug)]
pub struct Map<I, F> {
    base: I,
    f: F,
}

struct MapOp<'a, C, F> {
    inner: &'a C,
    f: &'a F,
}

impl<I: ParallelIterator, R, F: Fn(I::Item) -> R + Sync> ParallelIterator for Map<I, F> {
    type Item = R;

    fn exact_len(&self) -> Option<usize> {
        self.base.exact_len()
    }

    fn drive<C: ChunkOp<R>>(self, op: &C, fold: impl FnMut(C::Out)) {
        self.base.drive(
            &MapOp {
                inner: op,
                f: &self.f,
            },
            fold,
        );
    }
}

impl<'a, T, R, C: ChunkOp<R>, F: Fn(T) -> R + Sync> ChunkOp<T> for MapOp<'a, C, F> {
    type Out = C::Out;
    const WHOLE: bool = C::WHOLE;

    fn run<It: Iterator<Item = T>>(&self, chunk: Range<usize>, iter: It) -> C::Out {
        self.inner.run(chunk, iter.map(self.f))
    }
}

/// [`ParallelIterator::filter`].
#[derive(Debug)]
pub struct Filter<I, P> {
    base: I,
    p: P,
}

struct FilterOp<'a, C, P> {
    inner: &'a C,
    p: &'a P,
}

impl<T, I: ParallelIterator<Item = T>, P: Fn(&T) -> bool + Sync> ParallelIterator for Filter<I, P> {
    type Item = T;

    fn exact_len(&self) -> Option<usize> {
        None
    }

    fn drive<C: ChunkOp<T>>(self, op: &C, fold: impl FnMut(C::Out)) {
        self.base.drive(
            &FilterOp {
                inner: op,
                p: &self.p,
            },
            fold,
        );
    }
}

impl<'a, T, C: ChunkOp<T>, P: Fn(&T) -> bool + Sync> ChunkOp<T> for FilterOp<'a, C, P> {
    type Out = C::Out;
    const WHOLE: bool = C::WHOLE;

    fn run<It: Iterator<Item = T>>(&self, chunk: Range<usize>, iter: It) -> C::Out {
        self.inner.run(chunk, iter.filter(|x| (self.p)(x)))
    }
}

/// [`ParallelIterator::filter_map`].
#[derive(Debug)]
pub struct FilterMap<I, F> {
    base: I,
    f: F,
}

impl<I: ParallelIterator, R, F: Fn(I::Item) -> Option<R> + Sync> ParallelIterator
    for FilterMap<I, F>
{
    type Item = R;

    fn exact_len(&self) -> Option<usize> {
        None
    }

    fn drive<C: ChunkOp<R>>(self, op: &C, fold: impl FnMut(C::Out)) {
        self.base.drive(
            &FilterMapOp {
                inner: op,
                f: &self.f,
            },
            fold,
        );
    }
}

struct FilterMapOp<'a, C, F> {
    inner: &'a C,
    f: &'a F,
}

impl<T, R, C: ChunkOp<R>, F: Fn(T) -> Option<R> + Sync> ChunkOp<T> for FilterMapOp<'_, C, F> {
    type Out = C::Out;
    const WHOLE: bool = C::WHOLE;

    fn run<It: Iterator<Item = T>>(&self, chunk: Range<usize>, iter: It) -> C::Out {
        // `Iterator::filter_map` (not map + flatten) keeps std's in-place
        // collect, which reuses an owned input vector's allocation.
        self.inner.run(chunk, iter.filter_map(self.f))
    }
}

/// [`ParallelIterator::flat_map_iter`].
#[derive(Debug)]
pub struct FlatMapIter<I, F> {
    base: I,
    f: F,
}

impl<I: ParallelIterator, U: IntoIterator, F: Fn(I::Item) -> U + Sync> ParallelIterator
    for FlatMapIter<I, F>
{
    type Item = U::Item;

    fn exact_len(&self) -> Option<usize> {
        None
    }

    fn drive<C: ChunkOp<U::Item>>(self, op: &C, fold: impl FnMut(C::Out)) {
        let f = &self.f;
        self.base.drive(
            &MapOp {
                inner: &FlattenOp(op),
                f,
            },
            fold,
        );
    }
}

struct FlattenOp<'a, C>(&'a C);

impl<'a, U: IntoIterator, C: ChunkOp<U::Item>> ChunkOp<U> for FlattenOp<'a, C> {
    type Out = C::Out;
    const WHOLE: bool = C::WHOLE;

    fn run<It: Iterator<Item = U>>(&self, chunk: Range<usize>, iter: It) -> C::Out {
        self.0.run(chunk, iter.flatten())
    }
}

/// [`ParallelIterator::copied`].
#[derive(Debug)]
pub struct Copied<I> {
    base: I,
}

impl<'a, T: 'a + Copy, I: ParallelIterator<Item = &'a T>> ParallelIterator for Copied<I> {
    type Item = T;

    fn exact_len(&self) -> Option<usize> {
        self.base.exact_len()
    }

    fn drive<C: ChunkOp<T>>(self, op: &C, fold: impl FnMut(C::Out)) {
        self.base.drive(
            &MapOp {
                inner: op,
                f: &|x: &T| *x,
            },
            fold,
        );
    }
}

/// [`ParallelIterator::map_init`].
#[derive(Debug)]
pub struct MapInit<I, INIT, F> {
    base: I,
    init: INIT,
    f: F,
}

struct MapInitOp<'a, C, INIT, F> {
    inner: &'a C,
    init: &'a INIT,
    f: &'a F,
}

impl<I, S, R, INIT, F> ParallelIterator for MapInit<I, INIT, F>
where
    I: ParallelIterator,
    INIT: Fn() -> S + Sync,
    F: Fn(&mut S, I::Item) -> R + Sync,
{
    type Item = R;

    fn exact_len(&self) -> Option<usize> {
        self.base.exact_len()
    }

    fn drive<C: ChunkOp<R>>(self, op: &C, fold: impl FnMut(C::Out)) {
        let op = MapInitOp {
            inner: op,
            init: &self.init,
            f: &self.f,
        };
        self.base.drive(&op, fold);
    }
}

impl<'a, T, S, R, C, INIT, F> ChunkOp<T> for MapInitOp<'a, C, INIT, F>
where
    C: ChunkOp<R>,
    INIT: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
{
    type Out = C::Out;
    const WHOLE: bool = C::WHOLE;

    fn run<It: Iterator<Item = T>>(&self, chunk: Range<usize>, iter: It) -> C::Out {
        let mut state = (self.init)();
        self.inner.run(chunk, iter.map(|x| (self.f)(&mut state, x)))
    }
}

// Terminal chunk operations.

struct ForEach<F>(F);

impl<T, F: Fn(T) + Sync> ChunkOp<T> for ForEach<F> {
    type Out = ();
    const WHOLE: bool = true;
    fn run<I: Iterator<Item = T>>(&self, _: Range<usize>, iter: I) {
        iter.for_each(&self.0);
    }
}

struct Sum<S>(std::marker::PhantomData<fn() -> S>);

impl<T, S: Send + std::iter::Sum<T>> ChunkOp<T> for Sum<S> {
    type Out = S;
    fn run<I: Iterator<Item = T>>(&self, _: Range<usize>, iter: I) -> S {
        iter.sum()
    }
}

struct Any<P>(P);

impl<T, P: Fn(T) -> bool + Sync> ChunkOp<T> for Any<P> {
    type Out = bool;
    const WHOLE: bool = true;
    fn run<I: Iterator<Item = T>>(&self, _: Range<usize>, mut iter: I) -> bool {
        iter.any(&self.0)
    }
}

struct Find<P>(P);

impl<T: Send, P: Fn(&T) -> bool + Sync> ChunkOp<T> for Find<P> {
    type Out = Option<T>;
    const WHOLE: bool = true;
    fn run<I: Iterator<Item = T>>(&self, _: Range<usize>, mut iter: I) -> Option<T> {
        iter.find(|x| (self.0)(x))
    }
}

struct Reduce<'a, F>(&'a F);

impl<T: Send, F: Fn(T, T) -> T + Sync> ChunkOp<T> for Reduce<'_, F> {
    type Out = Option<T>;
    fn run<I: Iterator<Item = T>>(&self, _: Range<usize>, iter: I) -> Option<T> {
        iter.reduce(self.0)
    }
}

struct CollectVec;

impl<T: Send> ChunkOp<T> for CollectVec {
    type Out = Vec<T>;
    const WHOLE: bool = true;
    fn run<I: Iterator<Item = T>>(&self, _: Range<usize>, iter: I) -> Vec<T> {
        iter.collect()
    }
}

struct Unzip;

impl<A: Send, B: Send> ChunkOp<(A, B)> for Unzip {
    type Out = (Vec<A>, Vec<B>);
    const WHOLE: bool = true;
    fn run<I: Iterator<Item = (A, B)>>(&self, _: Range<usize>, iter: I) -> (Vec<A>, Vec<B>) {
        iter.unzip()
    }
}

// ---------------------------------------------------------------------
// Entry points: `into_par_iter`, `par_iter`, `par_iter_mut`, slices.
// ---------------------------------------------------------------------

/// Conversion into a parallel iterator.
pub trait IntoParallelIterator {
    /// The parallel iterator.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Item type.
    type Item;
    /// Converts `self`.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = Par<VecProducer<T>>;
    fn into_par_iter(self) -> Self::Iter {
        Par::new(VecProducer(self))
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a [T] {
    type Item = &'a T;
    type Iter = Par<&'a [T]>;
    fn into_par_iter(self) -> Self::Iter {
        Par::new(self)
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a Vec<T> {
    type Item = &'a T;
    type Iter = Par<&'a [T]>;
    fn into_par_iter(self) -> Self::Iter {
        Par::new(self.as_slice())
    }
}

impl<'a, T: Send> IntoParallelIterator for &'a mut [T] {
    type Item = &'a mut T;
    type Iter = Par<&'a mut [T]>;
    fn into_par_iter(self) -> Self::Iter {
        Par::new(self)
    }
}

impl<'a, T: Send> IntoParallelIterator for &'a mut Vec<T> {
    type Item = &'a mut T;
    type Iter = Par<&'a mut [T]>;
    fn into_par_iter(self) -> Self::Iter {
        Par::new(self.as_mut_slice())
    }
}

/// `par_iter()` on anything whose shared reference converts.
pub trait IntoParallelRefIterator<'data> {
    /// The parallel iterator.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Item type.
    type Item: 'data;
    /// Iterates by shared reference.
    fn par_iter(&'data self) -> Self::Iter;
}

impl<'data, C: 'data + ?Sized> IntoParallelRefIterator<'data> for C
where
    &'data C: IntoParallelIterator,
{
    type Iter = <&'data C as IntoParallelIterator>::Iter;
    type Item = <&'data C as IntoParallelIterator>::Item;
    fn par_iter(&'data self) -> Self::Iter {
        self.into_par_iter()
    }
}

/// `par_iter_mut()` on anything whose mutable reference converts.
pub trait IntoParallelRefMutIterator<'data> {
    /// The parallel iterator.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Item type.
    type Item: 'data;
    /// Iterates by mutable reference.
    fn par_iter_mut(&'data mut self) -> Self::Iter;
}

impl<'data, C: 'data + ?Sized> IntoParallelRefMutIterator<'data> for C
where
    &'data mut C: IntoParallelIterator,
{
    type Iter = <&'data mut C as IntoParallelIterator>::Iter;
    type Item = <&'data mut C as IntoParallelIterator>::Item;
    fn par_iter_mut(&'data mut self) -> Self::Iter {
        self.into_par_iter()
    }
}

/// Appending a parallel iterator's items, in order.
pub trait ParallelExtend<T> {
    /// Extends with every item of `iter`.
    fn par_extend<I: ParallelIterator<Item = T>>(&mut self, iter: I);
}

impl<T: Send> ParallelExtend<T> for Vec<T> {
    fn par_extend<I: ParallelIterator<Item = T>>(&mut self, iter: I) {
        self.append(&mut Vec::from_par_iter(iter));
    }
}

/// Parallel views of a shared slice.
pub trait ParallelSlice<T: Sync> {
    /// Sub-slices of `size` items (the last may be shorter).
    fn par_chunks(&self, size: usize) -> Par<ChunksProducer<'_, T>>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, size: usize) -> Par<ChunksProducer<'_, T>> {
        assert!(size > 0, "par_chunks: chunk size must be nonzero");
        Par::new(ChunksProducer { slice: self, size })
    }
}

/// Parallel views of a mutable slice.
pub trait ParallelSliceMut<T: Send> {
    /// Mutable sub-slices of `size` items (the last may be shorter).
    fn par_chunks_mut(&mut self, size: usize) -> Par<ChunksMutProducer<'_, T>>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, size: usize) -> Par<ChunksMutProducer<'_, T>> {
        assert!(size > 0, "par_chunks_mut: chunk size must be nonzero");
        Par::new(ChunksMutProducer { slice: self, size })
    }
}

/// `use pcd_util::par::prelude::*` brings every parallel-iterator method
/// into scope.
pub mod prelude {
    pub use super::{
        FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator,
        IntoParallelRefMutIterator, ParallelExtend, ParallelIterator, ParallelSlice,
        ParallelSliceMut,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use crate::pool::with_threads;

    const WIDTHS: [usize; 3] = [1, 2, 8];

    fn at_widths<T: PartialEq + std::fmt::Debug + Send>(f: impl Fn() -> T + Send + Sync) -> T {
        let mut seen = WIDTHS.iter().map(|&w| with_threads(w, &f));
        let first = seen.next().unwrap();
        for other in seen {
            assert_eq!(other, first);
        }
        first
    }

    #[test]
    fn float_sum_is_bit_identical_across_widths() {
        let xs: Vec<f64> = (0..200_000)
            .map(|i| 1.0 / (1.0 + i as f64) * if i % 3 == 0 { -1.0 } else { 1.0 })
            .collect();
        let bits = at_widths(|| xs.par_iter().copied().sum::<f64>().to_bits());
        // The chunked order differs from a left-to-right sum, which is
        // exactly why every width must take the chunked path.
        assert!(f64::from_bits(bits).is_finite());
    }

    #[test]
    fn ordered_collect_is_identical_across_widths() {
        let hash = |x: u32| x.wrapping_mul(2_654_435_761);
        // Exact-length pipelines write straight into the output; filtered
        // ones concatenate per-chunk vectors. Both keep input order.
        let exact = at_widths(|| {
            (0..100_000u32)
                .into_par_iter()
                .map(hash)
                .collect::<Vec<u32>>()
        });
        assert_eq!(exact, (0..100_000u32).map(hash).collect::<Vec<u32>>());
        let filtered = at_widths(|| {
            (0..100_000u32)
                .into_par_iter()
                .filter(|x| x % 7 != 3)
                .map(hash)
                .collect::<Vec<u32>>()
        });
        let expect: Vec<u32> = (0..100_000u32).filter(|x| x % 7 != 3).map(hash).collect();
        assert_eq!(filtered, expect);
    }

    #[test]
    fn adaptors_match_sequential() {
        let v: Vec<u64> = (0..50_000).map(|i| (i * 31) % 1000).collect();
        let mut w = v.clone();
        with_threads(2, || {
            assert_eq!(v.par_iter().copied().max(), v.iter().copied().max());
            assert_eq!(v.par_iter().copied().min(), v.iter().copied().min());
            assert_eq!(v.par_iter().filter(|&&x| x == 7).count(), 50);
            assert!(v.par_iter().any(|&x| x == 999));
            assert!(v.par_iter().all(|&x| x < 1000));
            assert_eq!(
                v.par_iter().position_any(|&x| x == 999),
                v.iter().position(|&x| x == 999)
            );
            let (a, b): (Vec<u64>, Vec<usize>) =
                v.par_iter().enumerate().map(|(i, &x)| (x, i)).unzip();
            assert_eq!(a, v);
            assert_eq!(b, (0..v.len()).collect::<Vec<_>>());
            w.par_iter_mut()
                .zip(v.par_iter())
                .for_each(|(a, b)| *a += b);
            let owned: Vec<u64> = w.clone().into_par_iter().map(|x| x / 2).collect();
            assert_eq!(owned, v);
            let sums: Vec<u64> = v.par_chunks(1000).map(|c| c.iter().sum()).collect();
            assert_eq!(sums.len(), 50);
            let flat: Vec<u64> = (0..3000u64)
                .into_par_iter()
                .flat_map_iter(|x| [x, x])
                .collect();
            assert_eq!(flat.len(), 6000);
            assert_eq!(flat[5999], 2999);
        });
    }

    #[test]
    fn worker_panic_reaches_the_caller_with_its_payload() {
        let caught = std::panic::catch_unwind(|| {
            with_threads(2, || {
                (0..100_000usize).into_par_iter().for_each(|i| {
                    if i == 77_777 {
                        panic!("boom at {i}");
                    }
                });
            })
        });
        let payload = caught.expect_err("the panic must cross the region");
        let msg = payload.downcast_ref::<String>().map(String::as_str);
        assert_eq!(msg, Some("boom at 77777"));
        // The pool is usable again afterwards.
        assert_eq!(
            with_threads(2, || (0..100_000u64).into_par_iter().sum::<u64>()),
            4_999_950_000
        );
    }

    #[test]
    fn nested_region_runs_inline() {
        with_threads(2, || {
            (0..8usize).into_par_iter().with_min_len(1).for_each(|_| {
                let me = std::thread::current().id();
                let inner: Vec<std::thread::ThreadId> = (0..4 * GRAIN)
                    .into_par_iter()
                    .map(|_| std::thread::current().id())
                    .collect();
                assert!(
                    inner.iter().all(|&t| t == me),
                    "nested loop left its thread"
                );
            });
        });
    }

    #[test]
    fn one_worker_spawns_no_thread() {
        let me = std::thread::current().id();
        let ids: Vec<std::thread::ThreadId> = with_threads(1, || {
            (0..10 * GRAIN)
                .into_par_iter()
                .map(|_| std::thread::current().id())
                .collect()
        });
        assert!(ids.iter().all(|&t| t == me));
    }

    #[test]
    fn two_workers_use_two_threads() {
        let ids: Vec<std::thread::ThreadId> = with_threads(2, || {
            (0..MAX_CHUNKS)
                .into_par_iter()
                .with_min_len(1)
                .map(|_| {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    std::thread::current().id()
                })
                .collect()
        });
        let distinct: std::collections::HashSet<_> = ids.into_iter().collect();
        assert_eq!(distinct.len(), 2);
    }

    #[test]
    fn regions_reuse_the_pools_helpers() {
        let me = std::thread::current().id();
        let mut helpers = std::collections::HashSet::new();
        for _ in 0..20 {
            let ids: Vec<std::thread::ThreadId> = with_threads(2, || {
                (0..8usize)
                    .into_par_iter()
                    .with_min_len(1)
                    .map(|_| {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                        std::thread::current().id()
                    })
                    .collect()
            });
            helpers.extend(ids.into_iter().filter(|&t| t != me));
        }
        // Other tests in this process start at most 7 helpers (8 workers);
        // a thread per region would show up to 20 distinct ids here.
        assert!(!helpers.is_empty(), "no helper ever joined");
        assert!(
            helpers.len() <= 7,
            "{} distinct helper threads",
            helpers.len()
        );
    }

    #[test]
    fn work_split_covers_every_index_once() {
        let n = 10_000;
        let work = |i: usize| {
            if i.is_multiple_of(1000) {
                50_000
            } else {
                i % 7
            }
        };
        let seen: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        for w in WIDTHS {
            with_threads(w, || {
                for_each_range_by_work(n, 1024, work, |r| {
                    for i in r {
                        // ORDERING: RELAXED — a test tally read after the join.
                        seen[i].fetch_add(1, RELAXED);
                    }
                });
            });
        }
        assert!(seen.iter().all(|c| c.load(RELAXED) == WIDTHS.len()));
    }
}
