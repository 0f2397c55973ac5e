//! The chain recorder and the fused executors.
//!
//! A [`Chain`] records loops (descriptor + execution closure) in program
//! order; [`Chain::execute`] partitions them into fusable groups
//! ([`fuse_groups`]), builds one union-write-set
//! [`TwoLevelPlan`] per group through the
//! shared [`PlanCache`], and dispatches each group as a single colored
//! run on an [`ExecPool`] — the member loops execute back-to-back on
//! each block while the block's working set is cache-resident.
//! Grouping is a policy of this one executor ([`Fusion`]): under
//! [`Fusion::PerLoop`] every recorded loop is dispatched alone, which is
//! what the per-loop backends (`threaded`, `simd*`, `simt`) are.
//!
//! Bodies are *block-level* closures. Within a color round a block's
//! bodies run in recorded loop order, and the group plan is colored by
//! the union of the members' written maps, so the coloring invariant
//! holds for every member's writes.
//!
//! # The shared-write contract
//!
//! Bodies run concurrently on pool threads and mutate the loop's dats
//! through [`SharedDat`](ump_core::SharedDat) views. A recording must
//! honor what the plans are colored for: a **direct** body writes only
//! its own element's rows (a vector body only rows `cs..cs + lanes`) —
//! blocks are disjoint element ranges, so concurrent blocks never touch
//! one row; an **increment** body writes only the rows its element
//! reaches through the loop's written maps — conflicting blocks get
//! different colors; and a dat a group writes is *read* only at those
//! same rows. The executor then guarantees that no two concurrent bodies
//! overlap and that every write happens-before `execute` returns (each
//! pool round ends in a barrier).

use std::collections::HashSet;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use ump_color::{PlanInputs, TwoLevelPlan};
use ump_core::pool::{simd_block_sweep, simt_block_sweep};
use ump_core::{ExecPool, FusionStats, Indirection, PlanCache, Recorder};
use ump_mesh::MapTable;

use crate::desc::{fuse_groups, GroupSpec, LoopDesc};

/// The execution shape of a fused dispatch — the two shared-memory
/// backends of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Colored-block threading (the OpenMP analogue): each member loop
    /// iterates its block range element-wise.
    Threaded,
    /// SIMT (OpenCL-on-CPU) emulation: two-phase member loops run in
    /// lock-step chunks of `width` with color-bucketed increments
    /// ([`ump_core::simt_block_sweep`]); `sched_overhead_ns` models the
    /// OpenCL work-group scheduling cost, charged once per
    /// (block, loop) dispatch for every pooled loop — a fused group of
    /// `k` loops still pays `k` work-group dispatches per block, so
    /// fusion's win under this shape is barriers and locality, not
    /// modelled scheduling cost.
    Simt {
        /// Lock-step chunk width (work-items per SIMT batch).
        width: usize,
        /// Busy-wait per work-group dispatch, 0 for an ideal runtime.
        sched_overhead_ns: u64,
    },
    /// Vectorized fused execution: each colored block runs the paper's
    /// three-sweep decomposition (§4.2) per member loop — scalar
    /// pre-sweep to lane alignment, `lanes`-wide vector body built from
    /// `VecR` gather/scatter lane bodies, scalar post-sweep — via
    /// [`ump_core::simd_block_sweep`]. Only loops recorded through
    /// [`Chain::record_simd`] / [`Chain::record_simd_two_phase`] have
    /// vector bodies; other recorded loops fall back to their scalar
    /// element bodies. `lanes` must match the width the vector bodies
    /// were compiled for (the drivers' const generic `L`) — the executor
    /// asserts it.
    Simd {
        /// Vector width of the recorded lane bodies.
        lanes: usize,
    },
}

/// Block-level execution closure of a recorded loop: `(plan, shape,
/// slot, range)`. A colored dispatch passes its plan and `Some(block)`;
/// the tiled executor passes no plan, and `slot` as
/// [`record_blocks`](Chain::record_blocks) documents it.
type BlockBody<'a> =
    Box<dyn Fn(Option<&TwoLevelPlan>, Shape, Option<usize>, Range<u32>) + Sync + 'a>;

/// Halo classification of a recorded loop — what the distributed
/// executor may do with the loop while halo exchanges are in flight.
#[derive(Clone, Copy)]
enum HaloClass<'a> {
    /// Nothing declared (every single-rank loop): conservatively treated
    /// as if it might read halo data, so pending exchanges complete
    /// before the loop runs.
    Unknown,
    /// The loop reads no halo data ([`Chain::mark_interior`]): it runs in
    /// full while exchanges are in flight.
    Interior,
    /// `flags[e]` marks the elements that read halo data
    /// ([`Chain::mark_boundary`]): the loop's group splits into an
    /// interior pass (runs under pending exchanges), the exchange
    /// completion, and a boundary pass.
    Boundary(&'a [bool]),
}

/// Charge the SIMT shape's work-group scheduling cost for one
/// (block, loop) dispatch — every pooled loop of a group pays it, direct
/// loops included (two-phase loops pay it inside [`simt_block_sweep`]).
fn sched_spin(shape: Shape) {
    if let Shape::Simt {
        sched_overhead_ns, ..
    } = shape
    {
        ump_core::pool::spin_ns(sched_overhead_ns);
    }
}

enum Body<'a> {
    /// Dispatched through the pool, block by block.
    Blocks(BlockBody<'a>),
    /// Run serially on the dispatching thread (tiny sets): the body
    /// runs any element range in ascending order — the whole set, or a
    /// cone run of the tiled executor.
    Seq(Box<dyn Fn(Range<u32>) + Sync + 'a>),
    /// A halo exchange: `start` posts the non-blocking sends, `finish`
    /// receives and unpacks. Between the two the executor runs interior
    /// work — the latency-hiding schedule of the distributed backend.
    Exchange {
        start: Box<dyn Fn() + Sync + 'a>,
        finish: Box<dyn Fn() + Sync + 'a>,
    },
}

struct RecordedLoop<'a> {
    desc: LoopDesc,
    written: Vec<&'a MapTable>,
    body: Body<'a>,
    halo: HaloClass<'a>,
    epilogue: Option<Box<dyn Fn() + Sync + 'a>>,
}

/// What one chain execution did and saved; also pushed into the
/// [`Recorder`] (as [`FusionStats`]) when one is supplied.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChainReport {
    /// Loops recorded (exchanges included).
    pub loops: usize,
    /// Groups dispatched (fused + sequential + exchanges).
    pub groups: usize,
    /// Pool dispatch rounds issued.
    pub fused_rounds: usize,
    /// Rounds the same chain would issue executing loop-by-loop.
    pub unfused_rounds: usize,
    /// Read bytes not re-streamed thanks to fusion (paper counting).
    pub bytes_saved: f64,
    /// Halo exchanges recorded in the chain.
    pub exchanges: usize,
    /// Pooled groups executed as an interior/boundary split.
    pub split_groups: usize,
    /// Seconds spent waiting in exchange `finish` calls — near zero when
    /// interior compute hid the message latency.
    pub halo_wait_s: f64,
}

impl ChainReport {
    /// Dispatch rounds fusion removed.
    pub fn rounds_saved(&self) -> usize {
        self.unfused_rounds.saturating_sub(self.fused_rounds)
    }
}

/// A recorded chain of loops awaiting fused execution.
pub struct Chain<'a> {
    name: String,
    loops: Vec<RecordedLoop<'a>>,
}

impl<'a> Chain<'a> {
    /// Empty chain named for instrumentation (`rec.fusion(name)`).
    pub fn new(name: impl Into<String>) -> Chain<'a> {
        Chain {
            name: name.into(),
            loops: Vec::new(),
        }
    }

    /// Chain name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of recorded loops.
    pub fn len(&self) -> usize {
        self.loops.len()
    }

    /// `true` when nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.loops.is_empty()
    }

    fn push_blocks(&mut self, desc: LoopDesc, written: Vec<&'a MapTable>, body: BlockBody<'a>) {
        let mut names: Vec<&str> = written.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        assert_eq!(
            names,
            desc.profile.written_maps(),
            "{}: written tables must match the descriptor's written maps",
            desc.profile.name
        );
        for m in &written {
            assert_eq!(
                m.from_size, desc.n_elems,
                "{}: written map size mismatch",
                desc.profile.name
            );
        }
        self.loops.push(RecordedLoop {
            desc,
            written,
            body: Body::Blocks(body),
            halo: HaloClass::Unknown,
            epilogue: None,
        });
    }

    /// Record a loop whose body runs element-wise in every shape —
    /// direct loops and loops whose execution is shape-agnostic.
    /// `written` holds the tables of the descriptor's written maps (empty
    /// for loops without indirect writes).
    pub fn record(
        &mut self,
        desc: LoopDesc,
        written: Vec<&'a MapTable>,
        body: impl Fn(usize) + Sync + 'a,
    ) -> &mut Self {
        self.push_blocks(
            desc,
            written,
            Box::new(move |_plan, shape, _slot, range| {
                sched_spin(shape);
                for e in range {
                    body(e as usize);
                }
            }),
        );
        self
    }

    /// Record a loop whose body sees the whole block — for per-block
    /// reduction partials sized by `n_elems.div_ceil(block_size)`, the
    /// block count every two-level plan of this set uses. `body(slot,
    /// range)` gets `Some(b)` when `range` lies in block `b`, whose
    /// reduction slot the body then owns exclusively (a colored block,
    /// or an owned block of a tile), and `None` for a redundant fringe
    /// run of a tiled execution: the body still computes the run's
    /// element state but must drop its reduction contribution, which
    /// the owning tile makes.
    pub fn record_blocks(
        &mut self,
        desc: LoopDesc,
        written: Vec<&'a MapTable>,
        body: impl Fn(Option<usize>, Range<u32>) + Sync + 'a,
    ) -> &mut Self {
        self.push_blocks(
            desc,
            written,
            Box::new(move |_plan, shape, slot, range| {
                sched_spin(shape);
                body(slot, range)
            }),
        );
        self
    }

    /// Record a two-phase (compute → increment) loop — the indirect-
    /// increment kernels. The threaded shape applies each element's
    /// increment immediately; the SIMT shape runs lock-step chunks with
    /// color-bucketed increments ([`simt_block_sweep`]).
    pub fn record_two_phase<I: Send>(
        &mut self,
        desc: LoopDesc,
        written: Vec<&'a MapTable>,
        compute: impl Fn(usize) -> I + Sync + 'a,
        apply: impl Fn(usize, &I) + Sync + 'a,
    ) -> &mut Self {
        self.push_blocks(
            desc,
            written,
            Box::new(move |plan, shape, slot, range| match shape {
                // without a recorded vector body the SIMD shape degrades
                // to the threaded element loop (still correct: one
                // thread per block, increments applied immediately)
                Shape::Threaded | Shape::Simd { .. } => {
                    for e in range {
                        let e = e as usize;
                        let inc = compute(e);
                        apply(e, &inc);
                    }
                }
                Shape::Simt {
                    width,
                    sched_overhead_ns,
                } => {
                    let (plan, b) = plan.zip(slot).expect("SIMT sweeps a plan's blocks");
                    simt_block_sweep(plan, b, range, width, sched_overhead_ns, &compute, &apply)
                }
            }),
        );
        self
    }

    /// Record a loop with both a scalar body and a `lanes`-wide vector
    /// body. The scalar body runs a run of consecutive elements:
    /// `scalar(range)` gets each whole block under every shape but
    /// [`Shape::Simd`], so a direct loop can check a block's rows once
    /// and leave its element loop free to vectorize. Under `Shape::Simd`
    /// each colored block runs the three-sweep decomposition
    /// ([`ump_core::simd_block_sweep`]): `scalar(e..e + 1)` for each
    /// pre-/post-sweep element and `vector(cs)` for every lane-aligned
    /// chunk `cs..cs + lanes`.
    ///
    /// `lanes` must equal the const width the vector body was compiled
    /// for; executing under `Shape::Simd` with a different lane count
    /// panics (the registry only dispatches matching widths).
    pub fn record_simd(
        &mut self,
        desc: LoopDesc,
        written: Vec<&'a MapTable>,
        lanes: usize,
        scalar: impl Fn(Range<usize>) + Sync + 'a,
        vector: impl Fn(usize) + Sync + 'a,
    ) -> &mut Self {
        self.push_blocks(
            desc,
            written,
            Box::new(move |_plan, shape, _slot, range| match shape {
                Shape::Simd { lanes: l } => {
                    assert_eq!(
                        l, lanes,
                        "chain recorded {lanes}-lane bodies but executes at {l} lanes"
                    );
                    simd_block_sweep(range, lanes, |e| scalar(e..e + 1), &vector);
                }
                _ => {
                    sched_spin(shape);
                    scalar(range.start as usize..range.end as usize);
                }
            }),
        );
        self
    }

    /// Record a two-phase (compute → increment) loop with an additional
    /// `lanes`-wide vector body for [`Shape::Simd`]. The vector body
    /// `vector(cs)` handles one whole aligned chunk: gather, compute,
    /// and *serialized* lane scatter (safe — a block executes on one
    /// thread, and the group plan's coloring keeps concurrent blocks off
    /// each other's write targets). Pre-/post-sweep elements run
    /// `compute` + `apply` immediately. The threaded and SIMT shapes
    /// behave exactly like [`record_two_phase`](Chain::record_two_phase).
    pub fn record_simd_two_phase<I: Send>(
        &mut self,
        desc: LoopDesc,
        written: Vec<&'a MapTable>,
        lanes: usize,
        compute: impl Fn(usize) -> I + Sync + 'a,
        apply: impl Fn(usize, &I) + Sync + 'a,
        vector: impl Fn(usize) + Sync + 'a,
    ) -> &mut Self {
        self.push_blocks(
            desc,
            written,
            Box::new(move |plan, shape, slot, range| match shape {
                Shape::Threaded => {
                    for e in range {
                        let e = e as usize;
                        let inc = compute(e);
                        apply(e, &inc);
                    }
                }
                Shape::Simt {
                    width,
                    sched_overhead_ns,
                } => {
                    let (plan, b) = plan.zip(slot).expect("SIMT sweeps a plan's blocks");
                    simt_block_sweep(plan, b, range, width, sched_overhead_ns, &compute, &apply)
                }
                Shape::Simd { lanes: l } => {
                    assert_eq!(
                        l, lanes,
                        "chain recorded {lanes}-lane bodies but executes at {l} lanes"
                    );
                    let scalar = |e| {
                        let inc = compute(e);
                        apply(e, &inc);
                    };
                    simd_block_sweep(range, lanes, &scalar, &vector);
                }
            }),
        );
        self
    }

    /// Record a loop executed serially on the dispatching thread between
    /// groups — the tiny boundary sets the paper drops from analysis —
    /// as an element body run over the set in ascending order (the tiled
    /// executor runs it on cone runs). A serial loop never fuses and
    /// issues no pool rounds.
    pub fn record_serial(&mut self, desc: LoopDesc, body: impl Fn(usize) + Sync + 'a) -> &mut Self {
        let body = move |range: Range<u32>| range.for_each(|e| body(e as usize));
        self.loops.push(RecordedLoop {
            desc,
            written: Vec::new(),
            body: Body::Seq(Box::new(body)),
            halo: HaloClass::Unknown,
            epilogue: None,
        });
        self
    }

    /// Record a halo exchange at this point of the chain: `start` posts
    /// the non-blocking sends (e.g.
    /// `ump_minimpi::ExchangePlan::start`),
    /// `finish` completes the receive side. An exchange never fuses; it
    /// splits the chain exactly like a serial loop.
    ///
    /// Under the default **overlap** policy ([`Chain::execute`]) the
    /// executor calls `start` in recorded order but defers `finish`
    /// until the first later loop that *needs* halo data: loops marked
    /// [`mark_interior`](Chain::mark_interior) run entirely while the
    /// messages are in flight, and a group marked
    /// [`mark_boundary`](Chain::mark_boundary) runs its interior blocks,
    /// then the pending `finish`es, then its boundary blocks. Under the
    /// **blocking** policy ([`Chain::execute_policy`] with
    /// `ExchangePolicy::Blocking`) `finish` runs immediately after
    /// `start` — same compute schedule, no latency hiding — which is the
    /// baseline the halo bench compares against. When a [`Recorder`] is
    /// supplied, the seconds spent waiting in each `finish` accumulate
    /// under `name`.
    pub fn record_exchange(
        &mut self,
        name: impl Into<String>,
        start: impl Fn() + Sync + 'a,
        finish: impl Fn() + Sync + 'a,
    ) -> &mut Self {
        let name = name.into();
        let profile = ump_core::LoopProfile {
            name: name.clone(),
            set: "__halo".into(),
            args: Vec::new(),
            flops_per_elem: 0.0,
            transcendentals_per_elem: 0.0,
            description: "halo exchange".into(),
        };
        self.loops.push(RecordedLoop {
            desc: LoopDesc::new(profile, 0),
            written: Vec::new(),
            body: Body::Exchange {
                start: Box::new(start),
                finish: Box::new(finish),
            },
            halo: HaloClass::Unknown,
            epilogue: None,
        });
        self
    }

    /// Declare that the most recently recorded loop reads **no halo
    /// data**: every element's inputs are complete before any exchange
    /// finishes, so the loop may run in full while halo messages are in
    /// flight. Typical for owned-cell direct loops of a rank-local
    /// timestep. Loops without a marking are conservatively assumed to
    /// need the halo (pending exchanges complete before they run).
    pub fn mark_interior(&mut self) -> &mut Self {
        let last = self
            .loops
            .last_mut()
            .expect("mark_interior requires a recorded loop");
        assert!(
            !matches!(last.body, Body::Exchange { .. }),
            "halo markings apply to loops, not exchanges"
        );
        last.halo = HaloClass::Interior;
        self
    }

    /// Declare the halo-reading elements of the most recently recorded
    /// loop: `flags[e]` is `true` for elements whose inputs include halo
    /// (ghost) data — e.g. edges touching a ghost cell, from
    /// [`LocalMesh::boundary_edges`](ump_core::LocalMesh::boundary_edges).
    /// The loop's fused group then always executes as an **interior pass
    /// → exchange completion → boundary pass** split (a block is
    /// boundary when any member loop flags any of its elements), so the
    /// compute order is identical under the overlap and blocking
    /// policies — bit-reproducible across both.
    pub fn mark_boundary(&mut self, flags: &'a [bool]) -> &mut Self {
        let last = self
            .loops
            .last_mut()
            .expect("mark_boundary requires a recorded loop");
        assert!(
            matches!(last.body, Body::Blocks(_)),
            "boundary markings apply to pooled loops"
        );
        assert_eq!(
            flags.len(),
            last.desc.n_elems,
            "{}: boundary flags must cover the iteration set",
            last.desc.profile.name
        );
        last.halo = HaloClass::Boundary(flags);
        self
    }

    /// Attach an epilogue to the most recently recorded loop: run once
    /// on the dispatching thread after the loop's *group* completes
    /// (reduction merges — e.g. folding per-block Δt partials before a
    /// later loop in the chain consumes the value).
    pub fn epilogue(&mut self, f: impl Fn() + Sync + 'a) -> &mut Self {
        let last = self
            .loops
            .last_mut()
            .expect("epilogue requires a recorded loop");
        last.epilogue = Some(Box::new(f));
        self
    }

    /// The fused-group partition of the recorded chain (exposed for
    /// tests and diagnostics; `execute` computes the same). Serial loops
    /// and exchanges are singleton groups.
    pub fn groups(&self) -> Vec<GroupSpec> {
        self.partition(Fusion::Groups)
    }

    /// The dispatch groups of the recorded chain under `fusion`.
    fn partition(&self, fusion: Fusion) -> Vec<GroupSpec> {
        let seq = |l: &RecordedLoop<'_>| matches!(l.body, Body::Seq(_) | Body::Exchange { .. });
        match fusion {
            Fusion::Groups => {
                let entries: Vec<(&LoopDesc, bool)> =
                    self.loops.iter().map(|l| (&l.desc, seq(l))).collect();
                fuse_groups(&entries)
            }
            Fusion::PerLoop => self
                .loops
                .iter()
                .enumerate()
                .map(|(i, l)| GroupSpec {
                    loops: i..i + 1,
                    seq: seq(l),
                })
                .collect(),
        }
    }

    /// Execute the chain: one colored dispatch per fused group on
    /// `pool`, serial loops inline, epilogues after their group. Plans
    /// come from `cache` (union write sets, [`PlanInputs::merged`]);
    /// `word_bytes` scales the byte accounting (4 = SP, 8 = DP). When a
    /// [`Recorder`] is given, each group is timed under
    /// `fused[name+name+…]` (plain loop name for serial groups), each
    /// member of a multi-loop group again under its own name with its
    /// byte share of the group's time ([`Recorder::total_seconds`] sums
    /// only these), and the chain's [`FusionStats`] accumulate under the
    /// chain name.
    ///
    /// The returned [`ChainReport`] (including the unfused-rounds
    /// baseline and the bytes-saved estimate) is always computed —
    /// callers without a recorder still get it. One execution asks the
    /// cache for each distinct plan shape (set size × written maps)
    /// once, however many groups and baseline counts use it.
    pub fn execute(
        &self,
        pool: &ExecPool,
        cache: &PlanCache,
        shape: Shape,
        n_threads: usize,
        block_size: usize,
        word_bytes: usize,
        rec: Option<&Recorder>,
    ) -> ChainReport {
        self.execute_policy(
            pool,
            cache,
            shape,
            n_threads,
            block_size,
            word_bytes,
            rec,
            ExchangePolicy::Overlap,
            Fusion::Groups,
        )
    }

    /// As [`execute`](Chain::execute) with an explicit halo-exchange
    /// policy and grouping ([`Fusion`]). Chains without recorded
    /// exchanges behave identically under both exchange policies; chains
    /// with exchanges compute in the **same order** under both (groups
    /// with boundary markings always run the interior → boundary split),
    /// so overlap and blocking runs are bit-identical — only the
    /// placement of the exchange `finish` differs, which is what the halo
    /// bench isolates.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_policy(
        &self,
        pool: &ExecPool,
        cache: &PlanCache,
        shape: Shape,
        n_threads: usize,
        block_size: usize,
        word_bytes: usize,
        rec: Option<&Recorder>,
        policy: ExchangePolicy,
        fusion: Fusion,
    ) -> ChainReport {
        let groups = self.partition(fusion);
        let mut plans = PlanMemo {
            cache,
            block_size,
            fetched: Vec::new(),
        };
        let mut report = ChainReport {
            loops: self.loops.len(),
            groups: groups.len(),
            ..ChainReport::default()
        };
        // finishes of started-but-incomplete exchanges, FIFO; flush
        // returns the seconds it waited so group timers can exclude them
        // (the wait is recorded under the exchange's own name)
        let mut pending: Vec<(&str, &(dyn Fn() + Sync))> = Vec::new();
        let flush =
            |pending: &mut Vec<(&str, &(dyn Fn() + Sync))>, report: &mut ChainReport| -> f64 {
                let mut waited = 0.0;
                for (name, finish) in pending.drain(..) {
                    let t0 = Instant::now();
                    finish();
                    let dt = t0.elapsed().as_secs_f64();
                    waited += dt;
                    report.halo_wait_s += dt;
                    if let Some(r) = rec {
                        r.record(name, dt, 0.0, 0.0);
                    }
                }
                waited
            };
        for group in &groups {
            let members = &self.loops[group.loops.clone()];
            let t0 = Instant::now();
            // exchange waits that happened inside this group's span —
            // subtracted from its recorded time, so per-group Recorder
            // seconds stay comparable across the two policies
            let mut waited_in_group = 0.0;
            if group.seq {
                match &members[0].body {
                    Body::Seq(body) => {
                        // serial loops without an interior marking may
                        // read halo data: complete pending exchanges
                        if !matches!(members[0].halo, HaloClass::Interior) {
                            waited_in_group += flush(&mut pending, &mut report);
                        }
                        body(0..members[0].desc.n_elems as u32);
                    }
                    Body::Exchange { start, finish } => {
                        report.exchanges += 1;
                        start();
                        match policy {
                            ExchangePolicy::Overlap => {
                                pending.push((&members[0].desc.profile.name, finish.as_ref()));
                            }
                            ExchangePolicy::Blocking => {
                                let tf = Instant::now();
                                finish();
                                let dt = tf.elapsed().as_secs_f64();
                                report.halo_wait_s += dt;
                                if let Some(r) = rec {
                                    r.record(&members[0].desc.profile.name, dt, 0.0, 0.0);
                                }
                            }
                        }
                    }
                    Body::Blocks(_) => unreachable!("seq group with pooled body"),
                }
            } else {
                let plan = plans.get(
                    members[0].desc.n_elems,
                    members.iter().flat_map(|l| l.written.iter().copied()),
                );
                let plan = &*plan;
                let body = |b: usize, range: Range<u32>| {
                    for l in members {
                        if let Body::Blocks(f) = &l.body {
                            f(Some(plan), shape, Some(b), range.clone());
                        }
                    }
                };
                // a member without a halo marking may read halo data
                // anywhere: the group cannot run under pending exchanges
                if members.iter().any(|l| matches!(l.halo, HaloClass::Unknown)) {
                    waited_in_group += flush(&mut pending, &mut report);
                }
                match group_boundary_blocks(members, plan) {
                    Some(flags) => {
                        // the overlap schedule: interior blocks while
                        // messages fly, then the finishes, then the
                        // boundary blocks — same order under Blocking,
                        // where `pending` is already empty
                        report.split_groups += 1;
                        let (interior, boundary) = split_blocks_by_color(plan, &flags);
                        report.fused_rounds += active_lists(&interior) + active_lists(&boundary);
                        pool.colored_block_lists(&plan.blocks, &interior, n_threads, body);
                        waited_in_group += flush(&mut pending, &mut report);
                        pool.colored_block_lists(&plan.blocks, &boundary, n_threads, body);
                    }
                    None => {
                        report.fused_rounds += active_rounds(plan);
                        pool.colored_blocks(plan, n_threads, body);
                    }
                }
            }
            for l in members {
                if let Some(e) = &l.epilogue {
                    e();
                }
            }
            if let Some(r) = rec {
                if !matches!(members[0].body, Body::Exchange { .. }) {
                    let dt = (t0.elapsed().as_secs_f64() - waited_in_group).max(0.0);
                    let bytes: f64 = members
                        .iter()
                        .map(|l| l.desc.profile.bytes_per_elem(word_bytes) * l.desc.n_elems as f64)
                        .sum();
                    let flops: f64 = members
                        .iter()
                        .map(|l| l.desc.profile.flops_per_elem * l.desc.n_elems as f64)
                        .sum();
                    r.record(&group_label(members), dt, bytes, flops);
                    // Per-member attribution for multi-loop groups: each
                    // fused member is also recorded under its plain loop
                    // name, with the group's time apportioned by byte
                    // share, so per-kernel LoopStats agree between the
                    // fused and unfused paths (singleton groups already
                    // record under the plain name above).
                    if members.len() > 1 {
                        for l in members {
                            let mb =
                                l.desc.profile.bytes_per_elem(word_bytes) * l.desc.n_elems as f64;
                            let mf = l.desc.profile.flops_per_elem * l.desc.n_elems as f64;
                            let share = if bytes > 0.0 {
                                mb / bytes
                            } else {
                                1.0 / members.len() as f64
                            };
                            r.record(&l.desc.profile.name, dt * share, mb, mf);
                        }
                    }
                }
            }
            if fusion == Fusion::Groups {
                // what each member would issue dispatched alone, on its
                // own plan from its own written maps
                for l in members {
                    if let Body::Blocks(_) = l.body {
                        let own = plans.get(l.desc.n_elems, l.written.iter().copied());
                        report.unfused_rounds += active_rounds(&own);
                    }
                }
                report.bytes_saved += group_bytes_saved(members, word_bytes);
            }
        }
        // a trailing exchange with no consumer still completes
        flush(&mut pending, &mut report);
        if fusion == Fusion::PerLoop {
            // the chain ran loop by loop: it is its own baseline
            report.unfused_rounds = report.fused_rounds;
        }
        if let Some(r) = rec {
            r.record_fusion(
                &self.name,
                FusionStats {
                    executions: 1,
                    loops: report.loops,
                    groups: report.groups,
                    fused_rounds: report.fused_rounds,
                    unfused_rounds: report.unfused_rounds,
                    bytes_saved: report.bytes_saved,
                    steps: 1,
                    cross_step_bytes_saved: 0.0,
                },
            );
        }
        report
    }

    /// Loop `i`'s descriptor.
    pub(crate) fn desc(&self, i: usize) -> &LoopDesc {
        &self.loops[i].desc
    }

    /// Run loop `i`'s body on `range` outside any plan, in `shape`
    /// (never SIMT, which sweeps a plan's blocks); `slot` as for
    /// [`record_blocks`](Chain::record_blocks).
    pub(crate) fn run_range(&self, i: usize, shape: Shape, slot: Option<usize>, range: Range<u32>) {
        match &self.loops[i].body {
            Body::Blocks(f) => f(None, shape, slot, range),
            Body::Seq(body) => body(range),
            Body::Exchange { .. } => unreachable!("exchanges have no element range"),
        }
    }

    /// Run loop `i`'s epilogue, if it has one.
    pub(crate) fn run_epilogue(&self, i: usize) {
        if let Some(e) = &self.loops[i].epilogue {
            e();
        }
    }
}

/// How [`Chain::execute_policy`] groups the recorded loops into pool
/// dispatches. Bodies, plans' block structure and reductions are the
/// same under both, so an execution differs only in how many colored
/// rounds it issues and in what a block's working set is reused for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fusion {
    /// Maximal fusable groups ([`fuse_groups`]): one colored dispatch
    /// per group, on the union-write-set plan.
    Groups,
    /// Every recorded loop is its own group, dispatched on its own plan
    /// — the per-loop backends. Serial loops and exchanges are singleton
    /// groups under either policy.
    PerLoop,
}

/// The plans one chain execution has fetched, by plan shape. A
/// timestep's loops share a handful of shapes; each
/// [`PlanCache::get`] allocates its key and takes the cache lock.
struct PlanMemo<'c, 'm> {
    cache: &'c PlanCache,
    block_size: usize,
    fetched: Vec<(usize, Vec<&'m str>, Arc<TwoLevelPlan>)>,
}

impl<'m> PlanMemo<'_, 'm> {
    /// The two-level plan of `n_elems` elements writing through the
    /// union of `written`.
    fn get(
        &mut self,
        n_elems: usize,
        written: impl IntoIterator<Item = &'m MapTable>,
    ) -> Arc<TwoLevelPlan> {
        let inputs = PlanInputs::merged(n_elems, written, self.block_size);
        let names: Vec<&str> = inputs
            .written_maps
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        if let Some((_, _, plan)) = self
            .fetched
            .iter()
            .find(|(n, maps, _)| *n == n_elems && *maps == names)
        {
            return Arc::clone(plan);
        }
        let plan = self.cache.get(&names, &inputs);
        self.fetched.push((n_elems, names, Arc::clone(&plan)));
        plan
    }
}

/// How [`Chain::execute_policy`] places the receive half of recorded
/// exchanges relative to compute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExchangePolicy {
    /// Latency hiding (the default of [`Chain::execute`]): exchanges
    /// finish only when a later loop needs halo data; interior work runs
    /// while messages are in flight.
    Overlap,
    /// Finish every exchange immediately after starting it — the
    /// classical `op_mpi_halo_exchanges`-then-compute schedule, kept as
    /// the measured baseline. Computes in the same order as `Overlap`.
    Blocking,
}

/// Non-empty color rounds of a plan — the pool dispatches one round per
/// non-empty color.
fn active_rounds(plan: &TwoLevelPlan) -> usize {
    plan.blocks_by_color
        .iter()
        .filter(|blocks| !blocks.is_empty())
        .count()
}

/// Non-empty color rounds of an explicit per-color block list.
fn active_lists(lists: &[Vec<u32>]) -> usize {
    lists.iter().filter(|blocks| !blocks.is_empty()).count()
}

/// Per-block boundary flags of a fused group: block `b` is boundary when
/// any member loop flags any element of `b`'s range as halo-reading.
/// `None` when no member carries boundary markings (no split).
///
/// Recomputed per execution on purpose: the O(n_elems) flag scan is a
/// few percent of one pass over the same elements' data, and caching it
/// would need a key tying the plan to the flags' identity across
/// borrows — not worth the coupling at current sizes.
fn group_boundary_blocks(members: &[RecordedLoop<'_>], plan: &TwoLevelPlan) -> Option<Vec<bool>> {
    let mut any = false;
    let mut out = vec![false; plan.blocks.len()];
    for l in members {
        if let HaloClass::Boundary(flags) = l.halo {
            any = true;
            for (b, r) in plan.blocks.iter().enumerate() {
                if !out[b] && r.clone().any(|e| flags[e as usize]) {
                    out[b] = true;
                }
            }
        }
    }
    any.then_some(out)
}

/// Split a plan's `blocks_by_color` into complementary (interior,
/// boundary) per-color lists following per-block flags. Both halves keep
/// the plan's color structure, so dispatching one after the other never
/// co-schedules conflicting blocks.
fn split_blocks_by_color(plan: &TwoLevelPlan, boundary: &[bool]) -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
    let mut interior: Vec<Vec<u32>> = vec![Vec::new(); plan.blocks_by_color.len()];
    let mut fringe: Vec<Vec<u32>> = vec![Vec::new(); plan.blocks_by_color.len()];
    for (c, blocks) in plan.blocks_by_color.iter().enumerate() {
        for &b in blocks {
            let dst = if boundary[b as usize] {
                &mut fringe
            } else {
                &mut interior
            };
            dst[c].push(b);
        }
    }
    (interior, fringe)
}

fn group_label(members: &[RecordedLoop<'_>]) -> String {
    if members.len() == 1 {
        return members[0].desc.profile.name.clone();
    }
    let names: Vec<&str> = members
        .iter()
        .map(|l| l.desc.profile.name.as_str())
        .collect();
    format!("fused[{}]", names.join("+"))
}

/// Read bytes a fused group does not re-stream: every argument of a
/// later member that *reads* a dat an earlier member already touched
/// would, unfused, stream that dat from memory again — fused, the
/// block's rows are still cache-resident. Paper counting (useful words ×
/// word size), an estimate that ignores cache capacity.
fn group_bytes_saved(members: &[RecordedLoop<'_>], word_bytes: usize) -> f64 {
    let mut saved = 0.0;
    let mut touched: HashSet<&str> = HashSet::new();
    for l in members {
        for a in &l.desc.profile.args {
            if a.ind == Indirection::Global {
                continue;
            }
            if a.access.reads() && touched.contains(a.dat.as_str()) {
                saved += (a.dim * l.desc.n_elems * word_bytes) as f64;
            }
        }
        for a in &l.desc.profile.args {
            if a.ind != Indirection::Global {
                touched.insert(a.dat.as_str());
            }
        }
    }
    saved
}

#[cfg(test)]
mod tests {
    use super::*;
    use ump_core::{Access, ArgInfo, LoopProfile, SharedDat};
    use ump_mesh::generators::quad_channel;

    fn desc(name: &str, set: &str, n: usize, args: Vec<ArgInfo>) -> LoopDesc {
        LoopDesc::new(
            LoopProfile {
                name: name.into(),
                set: set.into(),
                args,
                flops_per_elem: 1.0,
                transcendentals_per_elem: 0.0,
                description: String::new(),
            },
            n,
        )
    }

    /// Land a two-sided one-component increment: `c0`'s row, then `c1`'s.
    unsafe fn apply_inc(acc: &SharedDat<'_, f64>, inc: &(usize, [f64; 1], usize, [f64; 1])) {
        let (c0, r0, c1, r1) = inc;
        unsafe {
            acc.slice_mut(*c0, 1)[0] += r0[0];
            acc.slice_mut(*c1, 1)[0] += r1[0];
        }
    }

    /// A direct chain (fill → scale → combine) must fuse into one group
    /// and produce bit-identical results to sequential loop-by-loop
    /// execution.
    #[test]
    fn fused_direct_chain_matches_sequential_exactly() {
        let n = 1000;
        let mut reference = (vec![0.0f64; n], vec![0.0f64; n]);
        for e in 0..n {
            reference.0[e] = (e % 13) as f64;
        }
        for e in 0..n {
            reference.1[e] = reference.0[e] * 2.0;
        }
        for e in 0..n {
            reference.1[e] += reference.0[e];
        }

        for shape in [
            Shape::Threaded,
            Shape::Simt {
                width: 8,
                sched_overhead_ns: 0,
            },
            // scalar-recorded loops must degrade gracefully under the
            // SIMD shape (element-wise fallback)
            Shape::Simd { lanes: 4 },
        ] {
            let pool = ExecPool::new(4);
            let cache = PlanCache::new();
            let mut a = vec![0.0f64; n];
            let mut b = vec![0.0f64; n];
            let report;
            {
                let av = SharedDat::new(&mut a);
                let bv = SharedDat::new(&mut b);
                let mut chain = Chain::new("direct");
                {
                    let av = &av;
                    chain.record(
                        desc(
                            "fill",
                            "items",
                            n,
                            vec![ArgInfo::direct("a", 1, Access::Write)],
                        ),
                        vec![],
                        move |e| unsafe { av.slice_mut(e, 1)[0] = (e % 13) as f64 },
                    );
                }
                {
                    let (av, bv) = (&av, &bv);
                    chain.record(
                        desc(
                            "scale",
                            "items",
                            n,
                            vec![
                                ArgInfo::direct("a", 1, Access::Read),
                                ArgInfo::direct("b", 1, Access::Write),
                            ],
                        ),
                        vec![],
                        move |e| unsafe { bv.slice_mut(e, 1)[0] = av.slice(e, 1)[0] * 2.0 },
                    );
                }
                {
                    let (av, bv) = (&av, &bv);
                    chain.record(
                        desc(
                            "combine",
                            "items",
                            n,
                            vec![
                                ArgInfo::direct("a", 1, Access::Read),
                                ArgInfo::direct("b", 1, Access::Inc),
                            ],
                        ),
                        vec![],
                        move |e| unsafe { bv.slice_mut(e, 1)[0] += av.slice(e, 1)[0] },
                    );
                }
                assert_eq!(chain.groups().len(), 1, "direct-only chain must fuse");
                report = chain.execute(&pool, &cache, shape, 0, 64, 8, None);
            }
            assert_eq!(a, reference.0, "{shape:?}");
            assert_eq!(b, reference.1, "{shape:?}");
            // one fused round replaces three unfused ones
            assert_eq!(report.fused_rounds, 1);
            assert_eq!(report.unfused_rounds, 3);
            assert!(report.bytes_saved > 0.0);
        }
    }

    /// An indirect increment fused with a preceding direct producer must
    /// match the sequential reference exactly (integer-valued data), and
    /// a following indirect consumer must be split into its own group.
    #[test]
    fn fused_indirect_group_matches_and_raw_splits() {
        let m = quad_channel(12, 9).mesh;
        let (ne, nc) = (m.n_edges(), m.n_cells());

        // reference: produce a[e], scatter into cells, gather back
        let mut ra = vec![0.0f64; ne];
        let mut racc = vec![0.0f64; nc];
        let mut rout = vec![0.0f64; ne];
        for e in 0..ne {
            ra[e] = (e % 7 + 1) as f64;
        }
        for e in 0..ne {
            let c = m.edge2cell.row(e);
            racc[c[0] as usize] += ra[e];
            racc[c[1] as usize] -= 2.0;
        }
        for e in 0..ne {
            let c = m.edge2cell.row(e);
            rout[e] = racc[c[0] as usize] - racc[c[1] as usize];
        }

        for shape in [
            Shape::Threaded,
            Shape::Simt {
                width: 4,
                sched_overhead_ns: 0,
            },
        ] {
            let pool = ExecPool::new(3);
            let cache = PlanCache::new();
            let mut a = vec![0.0f64; ne];
            let mut acc = vec![0.0f64; nc];
            let mut out = vec![0.0f64; ne];
            let report;
            {
                let av = SharedDat::new(&mut a);
                let accv = SharedDat::new(&mut acc);
                let outv = SharedDat::new(&mut out);
                let mut chain = Chain::new("indirect");
                {
                    let av = &av;
                    chain.record(
                        desc(
                            "fill",
                            "edges",
                            ne,
                            vec![ArgInfo::direct("a", 1, Access::Write)],
                        ),
                        vec![],
                        move |e| unsafe { av.slice_mut(e, 1)[0] = (e % 7 + 1) as f64 },
                    );
                }
                {
                    let (av, accv, m) = (&av, &accv, &m);
                    chain.record_two_phase(
                        desc(
                            "scatter",
                            "edges",
                            ne,
                            vec![
                                ArgInfo::direct("a", 1, Access::Read),
                                ArgInfo::indirect("acc", 1, Access::Inc, "edge2cell", 0),
                                ArgInfo::indirect("acc", 1, Access::Inc, "edge2cell", 1),
                            ],
                        ),
                        vec![&m.edge2cell],
                        move |e| {
                            let c = m.edge2cell.row(e);
                            let v = unsafe { av.slice(e, 1)[0] };
                            (c[0] as usize, [v], c[1] as usize, [-2.0])
                        },
                        move |_e, inc| unsafe { apply_inc(accv, inc) },
                    );
                }
                {
                    let (accv, outv, m) = (&accv, &outv, &m);
                    chain.record(
                        desc(
                            "gather",
                            "edges",
                            ne,
                            vec![
                                ArgInfo::indirect("acc", 1, Access::Read, "edge2cell", 0),
                                ArgInfo::indirect("acc", 1, Access::Read, "edge2cell", 1),
                                ArgInfo::direct("out", 1, Access::Write),
                            ],
                        ),
                        vec![],
                        move |e| {
                            let c = m.edge2cell.row(e);
                            unsafe {
                                outv.slice_mut(e, 1)[0] = accv.slice(c[0] as usize, 1)[0]
                                    - accv.slice(c[1] as usize, 1)[0];
                            }
                        },
                    );
                }
                let groups = chain.groups();
                // [fill+scatter] fuse; gather (indirect RAW on acc) splits
                assert_eq!(groups.len(), 2, "{groups:?}");
                assert_eq!(groups[0].loops, 0..2);
                report = chain.execute(&pool, &cache, shape, 0, 16, 8, None);
            }
            assert_eq!(a, ra, "{shape:?}");
            assert_eq!(acc, racc, "{shape:?}");
            assert_eq!(out, rout, "{shape:?}");
            assert!(report.fused_rounds < report.unfused_rounds);
        }
    }

    /// Epilogues run after their group and before later groups consume
    /// the merged value; sequential loops dispatch zero pool rounds.
    #[test]
    fn epilogue_order_and_seq_loops() {
        let n = 64usize;
        let pool = ExecPool::new(2);
        let cache = PlanCache::new();
        let mut partial = vec![0.0f64; n.div_ceil(16)];
        let mut total = vec![0.0f64; 1];
        let mut consumed = vec![0.0f64; 1];
        let report;
        {
            let pv = SharedDat::new(&mut partial);
            let tv = SharedDat::new(&mut total);
            let cv = SharedDat::new(&mut consumed);
            let mut chain = Chain::new("reduce");
            {
                let pv = &pv;
                chain.record_blocks(
                    desc(
                        "sum",
                        "items",
                        n,
                        vec![ArgInfo::global("acc", 1, Access::Inc)],
                    ),
                    vec![],
                    move |b, range| {
                        let mut local = 0.0;
                        for e in range {
                            local += e as f64;
                        }
                        let b = b.expect("a colored block owns its slot");
                        unsafe { pv.slice_mut(b, 1)[0] = local };
                    },
                );
            }
            {
                let (pv, tv) = (&pv, &tv);
                chain.epilogue(move || unsafe {
                    let s: f64 = pv.slice(0, pv.len()).iter().sum();
                    tv.slice_mut(0, 1)[0] = s;
                });
            }
            {
                let (tv, cv) = (&tv, &cv);
                chain.record_serial(desc("consume", "bedges", 1, vec![]), move |e| unsafe {
                    cv.slice_mut(e, 1)[0] = tv.slice(0, 1)[0] * 2.0;
                });
            }
            let r0 = pool.dispatch_rounds();
            report = chain.execute(&pool, &cache, Shape::Threaded, 0, 16, 8, None);
            assert_eq!(
                pool.dispatch_rounds() - r0,
                report.fused_rounds as u64,
                "reported rounds must match the pool counter"
            );
        }
        let expect: f64 = (0..n).map(|e| e as f64).sum();
        assert_eq!(total[0], expect);
        assert_eq!(consumed[0], expect * 2.0);
        assert_eq!(report.fused_rounds, 1);
    }

    /// Loops recorded with explicit vector bodies execute them under
    /// the SIMD shape — and only then — covering every element exactly
    /// once and bit-matching the scalar result for integer data. A
    /// two-phase SIMD loop's serialized chunk scatter must accumulate
    /// exactly like the scalar apply order.
    #[test]
    fn simd_shape_runs_vector_bodies_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let m = quad_channel(11, 7).mesh;
        let (ne, nc) = (m.n_edges(), m.n_cells());
        const LANES: usize = 4;

        // reference: fill a, scatter into cells through edge2cell
        let mut ra = vec![0.0f64; ne];
        let mut racc = vec![0.0f64; nc];
        for e in 0..ne {
            ra[e] = (e % 9 + 1) as f64;
        }
        for e in 0..ne {
            let c = m.edge2cell.row(e);
            racc[c[0] as usize] += ra[e];
            racc[c[1] as usize] -= 3.0;
        }

        for (shape, expect_vector) in [
            (Shape::Simd { lanes: LANES }, true),
            (Shape::Threaded, false),
        ] {
            let pool = ExecPool::new(3);
            let cache = PlanCache::new();
            let vector_chunks = AtomicUsize::new(0);
            let mut a = vec![0.0f64; ne];
            let mut acc = vec![0.0f64; nc];
            {
                let av = SharedDat::new(&mut a);
                let accv = SharedDat::new(&mut acc);
                let mut chain = Chain::new("simd");
                {
                    let (av, vc) = (&av, &vector_chunks);
                    chain.record_simd(
                        desc(
                            "fill",
                            "edges",
                            ne,
                            vec![ArgInfo::direct("a", 1, Access::Write)],
                        ),
                        vec![],
                        LANES,
                        move |r| {
                            for e in r {
                                unsafe { av.slice_mut(e, 1)[0] = (e % 9 + 1) as f64 };
                            }
                        },
                        move |cs| {
                            vc.fetch_add(1, Ordering::Relaxed);
                            for e in cs..cs + LANES {
                                unsafe { av.slice_mut(e, 1)[0] = (e % 9 + 1) as f64 };
                            }
                        },
                    );
                }
                {
                    let (av, accv, vc, m) = (&av, &accv, &vector_chunks, &m);
                    chain.record_simd_two_phase(
                        desc(
                            "scatter",
                            "edges",
                            ne,
                            vec![
                                ArgInfo::direct("a", 1, Access::Read),
                                ArgInfo::indirect("acc", 1, Access::Inc, "edge2cell", 0),
                                ArgInfo::indirect("acc", 1, Access::Inc, "edge2cell", 1),
                            ],
                        ),
                        vec![&m.edge2cell],
                        LANES,
                        move |e| {
                            let c = m.edge2cell.row(e);
                            let v = unsafe { av.slice(e, 1)[0] };
                            (c[0] as usize, [v], c[1] as usize, [-3.0])
                        },
                        move |_e, inc| unsafe { apply_inc(accv, inc) },
                        move |cs| {
                            vc.fetch_add(1, Ordering::Relaxed);
                            // serialized lane scatter in ascending order —
                            // the same accumulation order as the scalar path
                            for e in cs..cs + LANES {
                                let c = m.edge2cell.row(e);
                                unsafe {
                                    let v = av.slice(e, 1)[0];
                                    accv.slice_mut(c[0] as usize, 1)[0] += v;
                                    accv.slice_mut(c[1] as usize, 1)[0] -= 3.0;
                                }
                            }
                        },
                    );
                }
                chain.execute(&pool, &cache, shape, 0, 16, 8, None);
            }
            assert_eq!(a, ra, "{shape:?}");
            assert_eq!(acc, racc, "{shape:?}");
            let chunks = vector_chunks.load(Ordering::Relaxed);
            assert_eq!(
                chunks > 0,
                expect_vector,
                "{shape:?}: {chunks} vector chunks"
            );
        }
    }

    /// Executing a chain whose vector bodies were compiled at one width
    /// under a different `Shape::Simd` lane count must panic loudly.
    #[test]
    #[should_panic(expected = "4-lane bodies")]
    fn simd_lane_mismatch_panics() {
        let n = 64;
        let pool = ExecPool::new(1);
        let cache = PlanCache::new();
        let mut a = vec![0.0f64; n];
        let av = SharedDat::new(&mut a);
        let mut chain = Chain::new("mismatch");
        {
            let av = &av;
            chain.record_simd(
                desc(
                    "w",
                    "items",
                    n,
                    vec![ArgInfo::direct("a", 1, Access::Write)],
                ),
                vec![],
                4,
                move |r| {
                    for e in r {
                        unsafe { av.slice_mut(e, 1)[0] = 1.0 };
                    }
                },
                move |cs| {
                    for e in cs..cs + 4 {
                        unsafe { av.slice_mut(e, 1)[0] = 1.0 };
                    }
                },
            );
        }
        chain.execute(&pool, &cache, Shape::Simd { lanes: 8 }, 0, 16, 8, None);
    }

    /// The overlap schedule in event order: exchange start → interior
    /// loops and interior blocks of a boundary-marked group → exchange
    /// finish → boundary blocks. Under the blocking policy the finish
    /// follows the start immediately, but the compute order (interior
    /// pass before boundary pass) is identical.
    #[test]
    fn exchange_overlap_defers_finish_until_boundary_blocks() {
        use std::sync::Mutex;

        let n = 64usize;
        let block = 16usize;
        // elements of the last block read "halo" data
        let flags: Vec<bool> = (0..n).map(|e| e >= 48).collect();

        for policy in [ExchangePolicy::Overlap, ExchangePolicy::Blocking] {
            let pool = ExecPool::new(1); // inline: deterministic event order
            let cache = PlanCache::new();
            let events: Mutex<Vec<String>> = Mutex::new(Vec::new());
            let log = |s: String| events.lock().unwrap().push(s);

            let report;
            {
                let mut chain = Chain::new("overlap");
                chain.record_exchange("halo[q]", || log("start".into()), || log("finish".into()));
                // a different set: must not fuse with the split group
                chain.record(
                    desc(
                        "interior_only",
                        "cells",
                        32,
                        vec![ArgInfo::direct("b", 1, Access::Write)],
                    ),
                    vec![],
                    |e| {
                        if e == 0 {
                            log("interior_loop".into());
                        }
                    },
                );
                chain.mark_interior();
                chain.record_blocks(
                    desc(
                        "split_me",
                        "items",
                        n,
                        vec![ArgInfo::direct("a", 1, Access::Rw)],
                    ),
                    vec![],
                    |b, _range| log(format!("block{}", b.unwrap())),
                );
                chain.mark_boundary(&flags);
                report = chain.execute_policy(
                    &pool,
                    &cache,
                    Shape::Threaded,
                    0,
                    block,
                    8,
                    None,
                    policy,
                    Fusion::Groups,
                );
            }
            assert_eq!(report.exchanges, 1);
            assert_eq!(report.split_groups, 1);
            // interior loop (1 round) + split group (interior pass 1
            // round + boundary pass 1 round) = 3 rounds
            assert_eq!(report.fused_rounds, 3);

            let ev = events.into_inner().unwrap();
            let pos = |s: &str| ev.iter().position(|e| e == s).unwrap();
            match policy {
                ExchangePolicy::Overlap => {
                    // the interior-marked loop and the split group's
                    // interior blocks both run under the pending
                    // exchange; finish lands before the boundary pass
                    assert!(pos("finish") > pos("interior_loop"), "{ev:?}");
                    assert!(pos("finish") > pos("block2"), "{ev:?}");
                    assert!(pos("finish") < pos("block3"), "{ev:?}");
                }
                ExchangePolicy::Blocking => {
                    assert_eq!(&ev[..2], ["start", "finish"], "{ev:?}");
                }
            }
            // both policies run interior blocks 0..3 before boundary block 3
            assert!(pos("block3") > pos("block0").max(pos("block1")).max(pos("block2")));
        }
    }

    /// A group whose members carry no halo marking must complete pending
    /// exchanges before it runs (it may read halo data anywhere); a
    /// chain ending in an exchange still finishes it.
    #[test]
    fn unknown_groups_flush_and_trailing_exchanges_complete() {
        use std::sync::Mutex;

        let pool = ExecPool::new(1);
        let cache = PlanCache::new();
        let events: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
        let log = |s: &'static str| events.lock().unwrap().push(s);

        let n = 8usize;
        let report;
        {
            let mut chain = Chain::new("flush");
            chain.record_exchange("halo[a]", || log("start_a"), || log("finish_a"));
            chain.record(desc("unknown", "items", n, vec![]), vec![], move |e| {
                if e == 0 {
                    log("unknown_loop");
                }
            });
            chain.record_exchange("halo[b]", || log("start_b"), || log("finish_b"));
            report = chain.execute(&pool, &cache, Shape::Threaded, 0, 4, 8, None);
        }
        assert_eq!(report.exchanges, 2);
        let ev = events.into_inner().unwrap();
        assert_eq!(
            ev,
            ["start_a", "finish_a", "unknown_loop", "start_b", "finish_b"]
        );
    }

    /// Overlap and blocking policies must produce bit-identical numeric
    /// results on an indirect-increment chain — the split schedule is
    /// the same; only the exchange placement moves.
    #[test]
    fn overlap_and_blocking_are_bit_identical() {
        let m = quad_channel(13, 9).mesh;
        let (ne, nc) = (m.n_edges(), m.n_cells());
        let flags: Vec<bool> = (0..ne).map(|e| e % 5 == 0).collect();

        let run = |policy: ExchangePolicy| -> Vec<f64> {
            let pool = ExecPool::new(3);
            let cache = PlanCache::new();
            let mut acc = vec![0.0f64; nc];
            {
                let accv = SharedDat::new(&mut acc);
                let mut chain = Chain::new("bits");
                chain.record_exchange("halo[acc]", || {}, || {});
                {
                    let (accv, m) = (&accv, &m);
                    chain.record_two_phase(
                        desc(
                            "scatter",
                            "edges",
                            ne,
                            vec![
                                ArgInfo::indirect("acc", 1, Access::Inc, "edge2cell", 0),
                                ArgInfo::indirect("acc", 1, Access::Inc, "edge2cell", 1),
                            ],
                        ),
                        vec![&m.edge2cell],
                        move |e| {
                            let c = m.edge2cell.row(e);
                            let v = 1.0 / (e as f64 + 1.0);
                            (c[0] as usize, [v], c[1] as usize, [-v * 0.5])
                        },
                        move |_e, inc| unsafe { apply_inc(accv, inc) },
                    );
                    chain.mark_boundary(&flags);
                }
                let report = chain.execute_policy(
                    &pool,
                    &cache,
                    Shape::Threaded,
                    0,
                    16,
                    8,
                    None,
                    policy,
                    Fusion::Groups,
                );
                assert_eq!(report.split_groups, 1);
            }
            acc
        };

        let overlap = run(ExchangePolicy::Overlap);
        let blocking = run(ExchangePolicy::Blocking);
        assert!(
            overlap
                .iter()
                .zip(&blocking)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "overlap and blocking diverged"
        );
    }

    /// Records a chain `w` (writes `a`) then `r` (updates `a`) over 128
    /// items, which fuses into one group, and executes it once.
    fn execute_w_then_r(rec: &Recorder) {
        let n = 128;
        let pool = ExecPool::new(2);
        let cache = PlanCache::new();
        let mut a = vec![0.0f64; n];
        let av = SharedDat::new(&mut a);
        let mut chain = Chain::new("stats");
        {
            let av = &av;
            chain.record(
                desc(
                    "w",
                    "items",
                    n,
                    vec![ArgInfo::direct("a", 1, Access::Write)],
                ),
                vec![],
                move |e| unsafe { av.slice_mut(e, 1)[0] = 1.0 },
            );
        }
        {
            let av = &av;
            chain.record(
                desc("r", "items", n, vec![ArgInfo::direct("a", 1, Access::Rw)]),
                vec![],
                move |e| unsafe { av.slice_mut(e, 1)[0] += 1.0 },
            );
        }
        chain.execute(&pool, &cache, Shape::Threaded, 0, 32, 8, Some(rec));
    }

    /// Group timing and fusion stats land in the recorder.
    #[test]
    fn recorder_receives_group_times_and_fusion_stats() {
        let n = 128;
        let rec = Recorder::new();
        execute_w_then_r(&rec);
        assert!(rec.get("fused[w+r]").is_some());
        let f = rec.fusion("stats").unwrap();
        assert_eq!(f.executions, 1);
        assert_eq!(f.loops, 2);
        assert_eq!(f.groups, 1);
        assert_eq!(f.rounds_saved(), 1);
        // the Rw read of `a` in loop `r` re-reads what `w` wrote
        assert_eq!(f.bytes_saved, (n * 8) as f64);
    }

    /// A fused group is recorded under `fused[w+r]` and again under its
    /// members' names, whose shares add up to the group's time: the
    /// recorder's total counts that time once.
    #[test]
    fn total_seconds_counts_a_fused_group_once() {
        let rec = Recorder::new();
        execute_w_then_r(&rec);
        let group = rec.get("fused[w+r]").unwrap().seconds;
        let members = rec.get("w").unwrap().seconds + rec.get("r").unwrap().seconds;
        assert!(group > 0.0);
        assert!(
            (members - group).abs() <= 1e-12 * group,
            "{members} vs {group}"
        );
        let total = rec.total_seconds();
        assert!((total - group).abs() <= 1e-12 * group, "{total} vs {group}");
    }
}
