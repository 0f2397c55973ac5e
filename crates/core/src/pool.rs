//! A persistent worker-pool runtime for colored-block execution.
//!
//! The paper's OpenMP backend (§3–§4.1) runs every color round on a
//! *persistent* thread team: the `#pragma omp parallel` region is entered
//! once and the same OS threads pick up each colored batch of blocks.
//! Spawning a fresh scoped team per color round would charge every
//! indirect loop several thread create/join cycles per timestep, which
//! drowns exactly the threading-vs-SIMT scheduling comparison the paper
//! measures. [`ExecPool`] keeps the paper's cost model: a fixed team of
//! workers created once and dispatched per round.
//!
//! # Dispatch protocol
//!
//! Shared state between the dispatching thread and the workers:
//!
//! * `epoch: AtomicU64` — the round generation counter; a change is the
//!   wake signal. Workers wait for it with a **spin-then-park** hybrid
//!   (a bounded spin keeps back-to-back color rounds hot; only when the
//!   spin budget is exhausted does a worker park on the condvar).
//! * `round: AtomicPtr<Round>` — points at the current round descriptor,
//!   which lives *on the dispatcher's stack*. Published with `Release`
//!   **before** the epoch bump.
//! * `round_state: AtomicUsize` — a claim register: the low bits count
//!   workers currently *inside* the round, the high bit marks the round
//!   **closed**. A woken worker must CAS-increment the count — which
//!   fails once the closed bit is set — *before* it may dereference
//!   `round`; it decrements on the way out.
//!
//! One round proceeds as:
//!
//! 1. the dispatcher (serialized by an internal lock, so the pool is
//!    shareable) resets `round_state`, publishes `round`, bumps `epoch`
//!    and notifies the condvar only if someone is actually parked;
//! 2. woken workers claim entry and pull work as *chunks of block
//!    indices* from `Round::cursor` (`fetch_add(chunk)`, several blocks
//!    per fetch) — chunking cuts cursor contention roughly `chunk`-fold
//!    on fine-grained plans;
//! 3. the dispatcher pulls chunks itself, and when the cursor is
//!    exhausted sets the closed bit and waits for the entered count to
//!    drain to zero before returning.
//!
//! The claim register is what makes the pool cheap when the machine is
//! busy or small: a worker that wakes *after* the dispatcher finished the
//! round simply fails to claim entry and goes back to sleep — the
//! dispatcher never waits for a worker that did not join, so a round's
//! critical path is `max(work, wake latency of the workers that DID
//! join)`, not the scheduler latency of the whole team.
//!
//! A panic inside a round body (worker or dispatcher) is caught, the
//! cursor is drained so no further chunks start, the claim is released,
//! and the dispatcher re-raises after the round quiesces — no lost
//! workers, no dangling round pointer.
//!
//! # Safety argument (coloring invariant)
//!
//! `run_round` executes `body(i)` concurrently on many threads while the
//! closure borrows the caller's data through [`SharedDat`] (a
//! raw-pointer view). Soundness rests on the same contract the old
//! scoped implementation had: **within one color round, no two block
//! bodies touch the same element** — guaranteed by the two-level plan,
//! which assigns conflicting blocks different colors, and validated by
//! tests and `debug_assert`s in `ump-color`. The pool adds the lifetime
//! half of the argument: a worker may only hold the round pointer while
//! the claim register counts it, and the dispatcher does not return
//! before the register drains with the closed bit set — so the
//! stack-borrowed `Round` (and the `body` closure behind its type-erased
//! pointer) strictly outlives all concurrent use. The `Acquire`/`Release`
//! pairs on the claim register order every write made inside the round
//! before the dispatcher's return: each per-color round ends in a
//! happens-before edge, exactly like the implicit barrier at the end of
//! an OpenMP `for`.
//!
//! [`SharedDat`]: crate::exec::SharedDat

use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

use ump_color::TwoLevelPlan;

use crate::exec::default_threads;

/// Spin iterations before a thread parks (worker) or yields (dispatcher).
/// Sized so the gap between two color rounds of one parallel loop
/// (microseconds) is bridged hot, while a pool idle between timesteps
/// costs no CPU.
const SPIN_BEFORE_PARK: u32 = 1 << 14;

/// High bit of `round_state`: the round takes no further entrants.
const CLOSED: usize = 1 << (usize::BITS - 1);

/// A round descriptor; lives on the dispatcher's stack for the duration
/// of one color round.
struct Round {
    /// Next unclaimed item index.
    cursor: AtomicUsize,
    /// Items in this round (`body` is called with `0..n_items`).
    n_items: usize,
    /// Items claimed per cursor fetch.
    chunk: usize,
    /// Type-erased `&'round (dyn Fn(usize) + Sync)`; the lifetime is
    /// enforced dynamically by the claim register (see module docs).
    body: *const (dyn Fn(usize) + Sync),
}

impl Round {
    /// Pull and execute chunks until the cursor is exhausted.
    fn pull(&self) {
        // SAFETY: the caller holds a claim on this round (or is the
        // dispatcher), so the closure is alive (see module docs).
        let body = unsafe { &*self.body };
        loop {
            let start = self.cursor.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= self.n_items {
                break;
            }
            let end = (start + self.chunk).min(self.n_items);
            for i in start..end {
                body(i);
            }
        }
    }

    /// Skip remaining chunks (panic recovery path): new pulls see the
    /// cursor at or past `n_items` and stop. `n_items` rather than
    /// `usize::MAX`, so racing `fetch_add`s cannot wrap the counter.
    fn drain(&self) {
        self.cursor.store(self.n_items, Ordering::Relaxed);
    }
}

struct Shared {
    epoch: AtomicU64,
    round: AtomicPtr<Round>,
    /// Claim register: entered-worker count, plus [`CLOSED`] in the high
    /// bit. See module docs.
    round_state: AtomicUsize,
    /// Most workers a round admits (set per round, read by entrants).
    max_entrants: AtomicUsize,
    panicked: AtomicBool,
    /// Message of the first worker panic of the current round — carried
    /// to the dispatcher so the re-raised error names the actual
    /// failure instead of a generic "a worker panicked".
    panic_note: Mutex<Option<String>>,
    shutdown: AtomicBool,
    /// Workers currently parked on `cv` (maintained under `wake`).
    parked: AtomicUsize,
    /// Wake mutex; holds the last published epoch for parked waiters.
    wake: Mutex<u64>,
    cv: Condvar,
}

thread_local! {
    /// Set while this thread is executing a round body as a pool worker
    /// or dispatcher; nested dispatch on the same thread runs inline
    /// instead of deadlocking on the dispatch lock.
    static IN_ROUND: Cell<bool> = const { Cell::new(false) };
}

/// A persistent team of worker threads for colored-block execution.
///
/// Worker threads are spawned **exactly once**, at construction; every
/// [`run_round`](ExecPool::run_round) after that is a park/unpark
/// exchange, never a `thread::spawn`. The pool is `Sync`: concurrent
/// dispatchers (e.g. service jobs sharing one pool) are serialized on an
/// internal lock.
/// Dropping the pool wakes and joins the team.
pub struct ExecPool {
    shared: Arc<Shared>,
    /// Serializes dispatchers; a round owns the whole team.
    dispatch: Mutex<()>,
    workers: Vec<JoinHandle<()>>,
    team: usize,
    /// Lifetime count of dispatched rounds (see
    /// [`dispatch_rounds`](ExecPool::dispatch_rounds)).
    rounds: AtomicU64,
    /// Fast gate for the fault hook: one relaxed load per round when
    /// unarmed, so fault-free runs pay nothing measurable.
    fault_armed: AtomicBool,
    fault: Mutex<Option<Arc<ump_fault::FaultInjector>>>,
}

/// Typed form of a panic that escaped a color round — what
/// [`ExecPool::try_run_round`] returns instead of unwinding, so a
/// service worker can fail one job without tearing anything else down.
#[derive(Clone, Debug)]
pub struct PoolPanic {
    /// The panic payload's message (panic location metadata is not
    /// recoverable from a payload; string payloads are carried whole).
    pub message: String,
}

impl std::fmt::Display for PoolPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pool round panicked: {}", self.message)
    }
}

impl std::error::Error for PoolPanic {}

/// Best-effort message extraction from a panic payload.
pub fn panic_payload_msg(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl ExecPool {
    /// Create a pool whose team (dispatching caller + spawned workers)
    /// has `n_threads` members; `0` means [`default_threads`]. A team of
    /// 1 spawns no workers and runs every round inline.
    pub fn new(n_threads: usize) -> ExecPool {
        let team = if n_threads == 0 {
            default_threads()
        } else {
            n_threads
        };
        let shared = Arc::new(Shared {
            epoch: AtomicU64::new(0),
            round: AtomicPtr::new(std::ptr::null_mut()),
            round_state: AtomicUsize::new(CLOSED),
            max_entrants: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            panic_note: Mutex::new(None),
            shutdown: AtomicBool::new(false),
            parked: AtomicUsize::new(0),
            wake: Mutex::new(0),
            cv: Condvar::new(),
        });
        let workers = (0..team.saturating_sub(1))
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ump-pool-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning pool worker")
            })
            .collect();
        ExecPool {
            shared,
            dispatch: Mutex::new(()),
            workers,
            team,
            rounds: AtomicU64::new(0),
            fault_armed: AtomicBool::new(false),
            fault: Mutex::new(None),
        }
    }

    /// Arm a fault injector: each subsequent round's lifetime index
    /// (the [`dispatch_rounds`](ExecPool::dispatch_rounds) counter) is
    /// offered to [`ump_fault::FaultInjector::on_round`], and a match
    /// panics inside that round's kernel body — on whichever thread
    /// pulls the first chunk, exercising the real containment path.
    pub fn arm_fault(&self, inj: Arc<ump_fault::FaultInjector>) {
        *self.fault.lock() = Some(inj);
        self.fault_armed.store(true, Ordering::Release);
    }

    /// Remove the armed fault injector, restoring the zero-cost path.
    pub fn disarm_fault(&self) {
        self.fault.lock().take();
        self.fault_armed.store(false, Ordering::Release);
    }

    /// Team size (dispatching caller + persistent workers).
    pub fn n_threads(&self) -> usize {
        self.team
    }

    /// Number of rounds dispatched on this pool so far — every
    /// [`run_round`](ExecPool::run_round) call counts as one, including
    /// rounds small enough to execute inline. The synchronization-cost
    /// metric behind the fusion instrumentation: one round ≈ one
    /// team-wide barrier.
    pub fn dispatch_rounds(&self) -> u64 {
        self.rounds.load(Ordering::Relaxed)
    }

    /// Effective concurrent-body cap for a round: `0` means the whole
    /// team, anything else is clamped to the team size.
    fn cap(&self, max_threads: usize) -> usize {
        if max_threads == 0 {
            self.team
        } else {
            max_threads.min(self.team)
        }
    }

    /// Run `body(i)` for every `i in 0..n_items` across at most
    /// `max_threads` team members (`0` = whole team), pulling indices in
    /// chunks of `chunk`. `max_threads` above the team size is clamped
    /// to the team — a pool never runs more concurrent bodies than it
    /// has members. Returns when every item has executed; any panic
    /// inside the round is re-raised here after the round quiesces.
    pub fn run_round(
        &self,
        n_items: usize,
        max_threads: usize,
        chunk: usize,
        body: &(dyn Fn(usize) + Sync),
    ) {
        let round_idx = self.rounds.fetch_add(1, Ordering::Relaxed);
        let injected_body;
        let body: &(dyn Fn(usize) + Sync) = if self.fault_armed.load(Ordering::Acquire)
            && self
                .fault
                .lock()
                .as_ref()
                .is_some_and(|inj| inj.on_round(round_idx))
        {
            injected_body = move |_i: usize| {
                panic!("injected fault: kernel body panic in pool round {round_idx}")
            };
            &injected_body
        } else {
            body
        };
        let cap = self.cap(max_threads);
        // Inline paths: trivial rounds, single-thread caps, and nested
        // dispatch from inside a round body (which would deadlock on the
        // dispatch lock while the outer round waits for this thread).
        if cap <= 1 || n_items <= 1 || self.workers.is_empty() || IN_ROUND.with(Cell::get) {
            for i in 0..n_items {
                body(i);
            }
            return;
        }
        let _own_team = self.dispatch.lock();
        let round = Round {
            cursor: AtomicUsize::new(0),
            n_items,
            chunk: chunk.max(1),
            // SAFETY (lifetime erasure): the closure is only reachable
            // through the claim register, which this function drains
            // before returning.
            body: unsafe {
                std::mem::transmute::<
                    *const (dyn Fn(usize) + Sync + '_),
                    *const (dyn Fn(usize) + Sync),
                >(body as *const _)
            },
        };
        let shared = &*self.shared;
        shared.max_entrants.store(cap - 1, Ordering::Relaxed);
        shared
            .round
            .store(&round as *const Round as *mut Round, Ordering::Relaxed);
        // Open the claim register. `Release` publishes the two stores
        // above to any worker whose claim CAS reads this value.
        shared.round_state.store(0, Ordering::Release);
        {
            let mut published = shared.wake.lock();
            let next = shared.epoch.load(Ordering::Relaxed) + 1;
            shared.epoch.store(next, Ordering::Release);
            *published = next;
            // `parked` only changes under `wake`, so this read cannot
            // race a worker going to sleep: skip the syscall when every
            // worker is still spinning (the hot back-to-back case).
            if shared.parked.load(Ordering::Relaxed) > 0 {
                shared.cv.notify_all();
            }
        }

        // The dispatcher is a team member too.
        IN_ROUND.with(|f| f.set(true));
        let result = catch_unwind(AssertUnwindSafe(|| round.pull()));
        IN_ROUND.with(|f| f.set(false));
        if result.is_err() {
            round.drain();
        }

        // Close the round and quiesce: no worker may still hold the
        // round pointer when the stack frame (or the caller's borrowed
        // data) goes away.
        shared.round_state.fetch_or(CLOSED, Ordering::AcqRel);
        let mut spins = 0u32;
        while shared.round_state.load(Ordering::Acquire) != CLOSED {
            spins += 1;
            if spins < SPIN_BEFORE_PARK {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        shared.round.store(std::ptr::null_mut(), Ordering::Relaxed);

        if let Err(payload) = result {
            shared.panicked.store(false, Ordering::Relaxed);
            shared.panic_note.lock().take();
            std::panic::resume_unwind(payload);
        }
        if shared.panicked.swap(false, Ordering::Relaxed) {
            match shared.panic_note.lock().take() {
                Some(note) => {
                    panic!("ExecPool: a worker panicked during a color round: {note}")
                }
                None => panic!("ExecPool: a worker panicked during a color round"),
            }
        }
    }

    /// [`run_round`](ExecPool::run_round) with the escaped panic
    /// returned as a typed [`PoolPanic`] instead of unwinding. The
    /// round still quiesces fully before this returns (drained cursor,
    /// released claims), so the pool remains usable — the property the
    /// service workers rely on to fail one job and keep serving.
    pub fn try_run_round(
        &self,
        n_items: usize,
        max_threads: usize,
        chunk: usize,
        body: &(dyn Fn(usize) + Sync),
    ) -> Result<(), PoolPanic> {
        catch_unwind(AssertUnwindSafe(|| {
            self.run_round(n_items, max_threads, chunk, body)
        }))
        .map_err(|payload| PoolPanic {
            message: panic_payload_msg(payload.as_ref()),
        })
    }

    /// Colored-block execution on this pool (the OpenMP backend's shape):
    /// for each block color, the blocks of that color are distributed
    /// over at most `max_threads` team members (`0` = whole team);
    /// `body(block_id, range)` runs with exclusive access to everything
    /// its block writes (the plan's coloring invariant).
    pub fn colored_blocks(
        &self,
        plan: &TwoLevelPlan,
        max_threads: usize,
        body: impl Fn(usize, Range<u32>) + Sync,
    ) {
        self.colored_block_lists(&plan.blocks, &plan.blocks_by_color, max_threads, &body);
    }

    /// As [`colored_blocks`](ExecPool::colored_blocks) over a plan's
    /// `blocks` and an explicit per-color block-id list instead of its
    /// full `blocks_by_color` — the primitive behind the distributed
    /// overlap schedule, which dispatches a plan's *interior* blocks
    /// while halo messages are in flight and its *boundary* blocks after
    /// the exchange completes. `lists[c]` must be a subset of the plan's
    /// `blocks_by_color[c]` (same color ⇒ same non-conflict guarantee);
    /// empty colors dispatch no round.
    pub fn colored_block_lists(
        &self,
        blocks: &[Range<u32>],
        lists: &[Vec<u32>],
        max_threads: usize,
        body: impl Fn(usize, Range<u32>) + Sync,
    ) {
        for list in lists {
            if list.is_empty() {
                continue;
            }
            let run_block = |i: usize| {
                let b = list[i] as usize;
                body(b, blocks[b].clone());
            };
            // Chunked pulls: a few blocks per fetch keeps the cursor off
            // the contention critical path while still load balancing
            // (blocks of one color have near-identical cost). Sized by
            // the round's effective thread cap, not the full team.
            let chunk = (list.len() / (self.cap(max_threads).max(1) * 8)).clamp(1, 16);
            self.run_round(list.len(), max_threads, chunk, &run_block);
        }
    }
}

/// Busy-wait for `ns` nanoseconds (0 = no-op) — the scheduling-overhead
/// model shared by every SIMT-emulation dispatch site, so fused and
/// unfused executors charge identical per-work-group costs.
pub fn spin_ns(ns: u64) {
    if ns == 0 {
        return;
    }
    let t0 = std::time::Instant::now();
    while (t0.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

/// One work-group of the SIMT emulation: the work-items of `range`
/// advance in lock-step chunks of `simt_width`, buffering their private
/// increments and applying them serialized by element color (paper
/// Fig. 3a). The inner loop of the SIMT shape of the `ump-lazy` chain
/// executor — callers supply the block's plan (for element colors) and
/// the two kernel phases. Increments are
/// bucketed by element color during the compute phase, so the apply
/// phase visits each item once instead of rescanning the chunk per
/// color.
///
/// `sched_overhead_ns` busy-waits once per call, modelling the OpenCL
/// runtime's work-group scheduling cost; pass 0 for none.
pub fn simt_block_sweep<I>(
    plan: &TwoLevelPlan,
    block_id: usize,
    range: Range<u32>,
    simt_width: usize,
    sched_overhead_ns: u64,
    compute: &(impl Fn(usize) -> I + ?Sized),
    apply: &(impl Fn(usize, &I) + ?Sized),
) {
    assert!(simt_width >= 1);
    spin_ns(sched_overhead_ns);
    let n_colors = plan.n_elem_colors[block_id];
    // per-color buckets of (item, increment), reused across the
    // block's chunks; within a bucket items stay in ascending
    // order, so the apply order matches the per-color rescan the
    // paper's Fig. 3a loop produces. Pre-sized so the lock-step
    // loop never reallocates (a chunk holds ≤ simt_width items
    // total, across all buckets).
    let mut buckets: Vec<Vec<(usize, I)>> = (0..n_colors)
        .map(|_| Vec::with_capacity(simt_width))
        .collect();
    let mut chunk_start = range.start as usize;
    let end = range.end as usize;
    while chunk_start < end {
        let chunk_end = (chunk_start + simt_width).min(end);
        // lock-step compute phase: all work-items of the chunk
        for e in chunk_start..chunk_end {
            buckets[plan.elem_colors[e] as usize].push((e, compute(e)));
        }
        // colored increment phase, one bucket per color
        for bucket in &mut buckets {
            for (e, inc) in bucket.iter() {
                apply(*e, inc);
            }
            bucket.clear();
        }
        chunk_start = chunk_end;
    }
}

/// One work-group of the vectorized (fused-SIMD) execution shape: the
/// lane-aware sibling of [`simt_block_sweep`]. Decomposes a colored
/// block's element range into the paper's three-sweep structure (§4.2) —
/// a scalar pre-sweep up to the next `lanes`-aligned index (alignment
/// relative to element 0, where direct data is vector-aligned), a vector
/// body of whole `lanes`-wide chunks, and a scalar post-sweep for the
/// leftovers — and drives the two bodies:
///
/// * `scalar(e)` for every pre-/post-sweep element,
/// * `vector(chunk_start)` once per aligned chunk, covering
///   `chunk_start..chunk_start + lanes`.
///
/// The decomposition matches `ump_simd::split_sweep(range, lanes, 0)`
/// exactly (property-tested in `tests/simd_sweep_properties.rs`): every
/// element of `range` is covered exactly once, chunks never cross the
/// block boundary, and a block executes on one thread — so serialized
/// lane scatters inside `vector` are race-free under the same coloring
/// invariant every other engine relies on.
///
/// The bodies are `FnMut`, so a reduction loop can fold into locals it
/// captures (one scalar, one vector accumulator) and store once per
/// block; a shared `Fn` body passes as `&f`.
#[inline]
pub fn simd_block_sweep(
    range: Range<u32>,
    lanes: usize,
    mut scalar: impl FnMut(usize),
    mut vector: impl FnMut(usize),
) {
    assert!(lanes >= 1, "lanes must be >= 1");
    let (start, end) = (range.start as usize, range.end as usize);
    let misalign = start % lanes;
    let body_start = if misalign == 0 {
        start
    } else {
        (start + lanes - misalign).min(end)
    };
    let body_end = body_start + (end - body_start) / lanes * lanes;
    for e in start..body_start {
        scalar(e);
    }
    let mut chunk = body_start;
    while chunk < body_end {
        vector(chunk);
        chunk += lanes;
    }
    for e in body_end..end {
        scalar(e);
    }
}

impl Drop for ExecPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        {
            let mut published = self.shared.wake.lock();
            let next = self.shared.epoch.load(Ordering::Relaxed) + 1;
            self.shared.epoch.store(next, Ordering::Release);
            *published = next;
            self.shared.cv.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut seen = 0u64;
    loop {
        // spin-then-park until the epoch moves past what we've handled
        let mut spins = 0u32;
        loop {
            let e = shared.epoch.load(Ordering::Acquire);
            if e != seen {
                seen = e;
                break;
            }
            spins += 1;
            if spins < SPIN_BEFORE_PARK {
                std::hint::spin_loop();
            } else {
                let mut published = shared.wake.lock();
                while *published == seen && !shared.shutdown.load(Ordering::Relaxed) {
                    shared.parked.fetch_add(1, Ordering::Relaxed);
                    shared.cv.wait(&mut published);
                    shared.parked.fetch_sub(1, Ordering::Relaxed);
                }
                seen = *published;
                break;
            }
        }
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        // Claim entry into whatever round is currently open. The CAS is
        // the only licence to dereference the round pointer; a closed
        // round (the dispatcher already finished it) is simply skipped.
        loop {
            let state = shared.round_state.load(Ordering::Acquire);
            if state & CLOSED != 0 || state >= shared.max_entrants.load(Ordering::Relaxed) {
                break;
            }
            if shared
                .round_state
                .compare_exchange_weak(state, state + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            // SAFETY: the claim above keeps the dispatcher from
            // retiring the round until we release it below.
            let round = unsafe { &*shared.round.load(Ordering::Relaxed) };
            IN_ROUND.with(|f| f.set(true));
            let result = catch_unwind(AssertUnwindSafe(|| round.pull()));
            IN_ROUND.with(|f| f.set(false));
            if let Err(payload) = &result {
                let mut note = shared.panic_note.lock();
                if note.is_none() {
                    *note = Some(panic_payload_msg(payload.as_ref()));
                }
                drop(note);
                shared.panicked.store(true, Ordering::Relaxed);
                round.drain();
            }
            shared.round_state.fetch_sub(1, Ordering::Release);
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ump_color::PlanInputs;
    use ump_mesh::generators::quad_channel;

    #[test]
    fn run_round_visits_every_item_once() {
        let pool = ExecPool::new(4);
        for n_items in [0usize, 1, 2, 7, 64, 1000] {
            let hits: Vec<AtomicUsize> = (0..n_items).map(|_| AtomicUsize::new(0)).collect();
            pool.run_round(n_items, 0, 3, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "n_items={n_items}"
            );
        }
    }

    #[test]
    fn many_back_to_back_rounds_on_one_pool() {
        let pool = ExecPool::new(3);
        let counter = AtomicUsize::new(0);
        for _ in 0..500 {
            pool.run_round(17, 0, 2, &|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 500 * 17);
    }

    #[test]
    fn max_threads_cap_is_respected_and_correct() {
        let pool = ExecPool::new(8);
        for cap in [1usize, 2, 3, 8, 99] {
            let counter = AtomicUsize::new(0);
            pool.run_round(100, cap, 4, &|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(counter.load(Ordering::Relaxed), 100, "cap={cap}");
        }
    }

    #[test]
    fn colored_blocks_matches_scoped_reference() {
        let m = quad_channel(16, 12).mesh;
        let inputs = PlanInputs::new(m.n_edges(), vec![&m.edge2cell], 32);
        let plan = TwoLevelPlan::build(&inputs);

        let mut reference = vec![0.0f64; m.n_cells()];
        for e in 0..m.n_edges() {
            let c = m.edge2cell.row(e);
            reference[c[0] as usize] += 1.0;
            reference[c[1] as usize] += 1.0;
        }

        let pool = ExecPool::new(4);
        let mut out = vec![0.0f64; m.n_cells()];
        let shared = crate::exec::SharedDat::new(&mut out);
        pool.colored_blocks(&plan, 0, |_b, range| {
            for e in range {
                let c = m.edge2cell.row(e as usize);
                unsafe {
                    shared.slice_mut(c[0] as usize, 1)[0] += 1.0;
                    shared.slice_mut(c[1] as usize, 1)[0] += 1.0;
                }
            }
        });
        assert_eq!(out, reference);
    }

    /// Splitting a plan's blocks into two complementary per-color lists
    /// and dispatching them back to back (the interior/boundary overlap
    /// schedule) must cover every block exactly once and produce the
    /// same result as the single dispatch — and two serialized passes
    /// never co-schedule conflicting blocks, whatever the split.
    #[test]
    fn colored_block_lists_split_covers_like_single_dispatch() {
        let m = quad_channel(16, 12).mesh;
        let inputs = PlanInputs::new(m.n_edges(), vec![&m.edge2cell], 32);
        let plan = TwoLevelPlan::build(&inputs);

        // arbitrary split: even block ids "interior", odd "boundary"
        let mut first: Vec<Vec<u32>> = vec![Vec::new(); plan.blocks_by_color.len()];
        let mut second = first.clone();
        for (c, blocks) in plan.blocks_by_color.iter().enumerate() {
            for &b in blocks {
                let dst = if b % 2 == 0 { &mut first } else { &mut second };
                dst[c].push(b);
            }
        }

        let mut reference = vec![0.0f64; m.n_cells()];
        for e in 0..m.n_edges() {
            let c = m.edge2cell.row(e);
            reference[c[0] as usize] += 1.0;
            reference[c[1] as usize] += 1.0;
        }

        let pool = ExecPool::new(4);
        let r0 = pool.dispatch_rounds();
        let mut out = vec![0.0f64; m.n_cells()];
        let shared = crate::exec::SharedDat::new(&mut out);
        let body = |_b: usize, range: Range<u32>| {
            for e in range {
                let c = m.edge2cell.row(e as usize);
                unsafe {
                    shared.slice_mut(c[0] as usize, 1)[0] += 1.0;
                    shared.slice_mut(c[1] as usize, 1)[0] += 1.0;
                }
            }
        };
        pool.colored_block_lists(&plan.blocks, &first, 0, body);
        pool.colored_block_lists(&plan.blocks, &second, 0, body);
        assert_eq!(out, reference);
        // rounds dispatched = non-empty colors of each pass
        let nonempty = |lists: &[Vec<u32>]| lists.iter().filter(|l| !l.is_empty()).count() as u64;
        assert_eq!(
            pool.dispatch_rounds() - r0,
            nonempty(&first) + nonempty(&second)
        );
    }

    #[test]
    fn pool_is_reusable_across_different_plans() {
        let pool = ExecPool::new(4);
        let m = quad_channel(12, 9).mesh;
        let edge_inputs = PlanInputs::new(m.n_edges(), vec![&m.edge2cell], 16);
        let edge_plan = TwoLevelPlan::build(&edge_inputs);
        let cell_inputs = PlanInputs::new(m.n_cells(), vec![], 16);
        let cell_plan = TwoLevelPlan::build(&cell_inputs);

        for _ in 0..50 {
            let edges = AtomicUsize::new(0);
            pool.colored_blocks(&edge_plan, 0, |_b, range| {
                edges.fetch_add(range.len(), Ordering::Relaxed);
            });
            assert_eq!(edges.load(Ordering::Relaxed), m.n_edges());
            let cells = AtomicUsize::new(0);
            pool.colored_blocks(&cell_plan, 0, |_b, range| {
                cells.fetch_add(range.len(), Ordering::Relaxed);
            });
            assert_eq!(cells.load(Ordering::Relaxed), m.n_cells());
        }
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ExecPool::new(1);
        assert!(pool.workers.is_empty());
        let counter = AtomicUsize::new(0);
        pool.run_round(10, 0, 1, &|_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn nested_dispatch_runs_inline_instead_of_deadlocking() {
        let pool = ExecPool::new(4);
        let counter = AtomicUsize::new(0);
        pool.run_round(8, 0, 1, &|_| {
            pool.run_round(5, 0, 1, &|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 40);
    }

    #[test]
    fn dispatcher_panic_propagates_and_pool_survives() {
        let pool = ExecPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_round(64, 0, 1, &|i| {
                if i == 33 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // the team must still be fully functional
        let counter = AtomicUsize::new(0);
        pool.run_round(100, 0, 4, &|_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn concurrent_dispatchers_serialize_safely() {
        let pool = ExecPool::new(4);
        let total = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        pool.run_round(20, 0, 2, &|_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 50 * 20);
    }

    #[test]
    fn dispatch_rounds_counts_every_round() {
        let pool = ExecPool::new(2);
        let r0 = pool.dispatch_rounds();
        pool.run_round(10, 0, 1, &|_| {});
        pool.run_round(1, 0, 1, &|_| {}); // inline path still counts
        assert_eq!(pool.dispatch_rounds() - r0, 2);

        let m = quad_channel(8, 8).mesh;
        let inputs = PlanInputs::new(m.n_edges(), vec![&m.edge2cell], 16);
        let plan = TwoLevelPlan::build(&inputs);
        let active = plan
            .blocks_by_color
            .iter()
            .filter(|b| !b.is_empty())
            .count() as u64;
        let r1 = pool.dispatch_rounds();
        pool.colored_blocks(&plan, 0, |_b, _r| {});
        assert_eq!(pool.dispatch_rounds() - r1, active);
    }

    #[test]
    fn simd_block_sweep_tiles_exactly_once() {
        use std::cell::RefCell;
        for lanes in [1usize, 2, 4, 8] {
            for start in 0..10u32 {
                for len in 0..30u32 {
                    let range = start..start + len;
                    let visits = RefCell::new(vec![0usize; (start + len) as usize]);
                    simd_block_sweep(
                        range.clone(),
                        lanes,
                        &|e| visits.borrow_mut()[e] += 1,
                        &|cs| {
                            // vector chunks are lane-aligned relative to 0
                            // and never cross the range end
                            assert_eq!(cs % lanes, 0, "lanes={lanes} cs={cs}");
                            assert!(cs + lanes <= (start + len) as usize);
                            for e in cs..cs + lanes {
                                visits.borrow_mut()[e] += 1;
                            }
                        },
                    );
                    let v = visits.borrow();
                    for e in 0..(start + len) as usize {
                        let expect = usize::from(e >= start as usize);
                        assert_eq!(v[e], expect, "lanes={lanes} range={range:?} e={e}");
                    }
                }
            }
        }
    }

    #[test]
    fn simt_bucketed_increments_match_reference() {
        let m = quad_channel(10, 10).mesh;
        let inputs = PlanInputs::new(m.n_edges(), vec![&m.edge2cell], 16);
        let plan = TwoLevelPlan::build(&inputs);

        let mut reference = vec![0.0f64; m.n_cells()];
        for e in 0..m.n_edges() {
            let c = m.edge2cell.row(e);
            reference[c[0] as usize] += (e % 7) as f64;
            reference[c[1] as usize] -= 1.0;
        }

        let pool = ExecPool::new(2);
        let mut out = vec![0.0f64; m.n_cells()];
        let shared = crate::exec::SharedDat::new(&mut out);
        let e2c = &m.edge2cell;
        pool.colored_blocks(&plan, 0, |b, range| {
            simt_block_sweep(
                &plan,
                b,
                range,
                8,
                0,
                &|e| {
                    let c = e2c.row(e);
                    [(c[0], (e % 7) as f64), (c[1], -1.0)]
                },
                &|_e, inc: &[(i32, f64); 2]| {
                    for &(target, v) in inc {
                        unsafe {
                            shared.slice_mut(target as usize, 1)[0] += v;
                        }
                    }
                },
            );
        });
        assert_eq!(out, reference);
    }
}
