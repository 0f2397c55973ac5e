//! # ump-lazy — loop-chain recording and cross-loop fusion
//!
//! OP2's later runtimes defer `op_par_loop` execution: loops are
//! *recorded* into a queue, dependencies between them are analyzed from
//! the access descriptors, and compatible neighbors are *fused* so the
//! data a loop produced is still cache-resident when the next loop
//! consumes it. For this reproduction the payoff is twofold and exactly
//! what the paper's backends are limited by:
//!
//! * **fewer synchronization rounds** — a fused group of loops executes
//!   as *one* colored dispatch on the persistent
//!   [`ExecPool`](ump_core::ExecPool) instead of one per loop (each
//!   color round is a team-wide barrier), and
//! * **less memory traffic** — within a fused group a mini-partition's
//!   working set is traversed once for all member loops, not re-streamed
//!   from DRAM per loop.
//!
//! The pieces:
//!
//! * [`desc::LoopDesc`] — the declarative layer: a loop's iteration-set
//!   identity plus per-argument `(dat, map-or-direct, access)`
//!   descriptors (reusing [`ump_core::LoopProfile`]), so loop metadata
//!   exists as *data* the analyzer can reason about, not only as
//!   closures;
//! * [`desc::fuse_groups`] — the dependency analysis partitioning a
//!   recorded chain into maximal fusable groups;
//! * [`chain::Chain`] — the recorder: loops are registered with their
//!   descriptor and a block-level execution closure, then
//!   [`Chain::execute`] plans, fuses and dispatches the whole chain,
//!   reporting what fusion saved through
//!   [`ump_core::Recorder::record_fusion`];
//! * fused executors for every shared-memory shape: colored-block
//!   threading ([`Shape::Threaded`]), the SIMT / OpenCL-on-CPU
//!   emulation ([`Shape::Simt`], which reuses
//!   [`ump_core::simt_block_sweep`] per member loop), and vectorized
//!   fused execution ([`Shape::Simd`], which runs loops recorded with
//!   [`Chain::record_simd`] / [`Chain::record_simd_two_phase`] through
//!   the scalar-presweep / vector-body / scalar-postsweep decomposition
//!   of [`ump_core::simd_block_sweep`] — cross-loop fusion composed with
//!   the paper's explicit SIMD on the same union-write-set plans and
//!   pool dispatch path).
//!
//! # Fusion legality
//!
//! Two recorded loops may share a fused group only when **every** pair
//! of loops in the group satisfies all of:
//!
//! 1. **Same iteration set** (same set name *and* size): fused execution
//!    interleaves the loops block-by-block, so their block structures
//!    must coincide.
//! 2. **No indirect dependency**: for every dat accessed by both loops
//!    where at least one access writes (`Write`/`Inc`/`Rw`), *both*
//!    accesses must be direct. An indirect access on either side breaks
//!    fusion — an indirect read after an indirect increment through a
//!    shared map (RAW), an indirect increment after a read (WAR), or two
//!    indirect writes (WAW) could all observe partially-updated targets,
//!    because when block `b` of the later loop runs, other blocks of the
//!    earlier loop (different colors) have not executed yet. Direct
//!    dependencies always fuse: element `e`'s data is touched only by
//!    the block containing `e`, and within a block the member loops run
//!    in recorded order — so **direct-only chains always fuse**.
//! 3. **No global reuse**: a global (reduction) argument written by one
//!    loop and accessed by another must see the *completed* reduction,
//!    which only exists after the earlier loop's last block — the group
//!    is split so the reduction finishes (and the loop's epilogue runs)
//!    first.
//!
//! The plan of a fused group is a
//! [`TwoLevelPlan`](ump_color::TwoLevelPlan) built over the **union of
//! the written maps** of the group ([`ump_color::PlanInputs::merged`]),
//! fetched through the shared [`ump_core::PlanCache`] — so the coloring
//! respects every member's write conflicts and is still computed once
//! per shape and reused across the time loop.
//!
//! Loops recorded with [`Chain::record_serial`] (tiny boundary sets the
//! paper drops from analysis) run serially on the dispatching thread
//! between groups and never fuse.
//!
//! # Distributed chains: halo/compute overlap
//!
//! The paper's full execution model is two-level: message-passing ranks
//! own mesh partitions and exchange halos before indirect loops (§2,
//! §6.5), while each rank runs the colored/fused shared-memory schedule
//! above. A rank-local chain records its halo exchanges with
//! [`Chain::record_exchange`] (start = non-blocking sends, finish =
//! receive + unpack) and classifies its loops with
//! [`Chain::mark_interior`] (reads no ghost data) and
//! [`Chain::mark_boundary`] (per-element ghost-read flags, e.g.
//! [`LocalMesh::boundary_edges`](ump_core::LocalMesh::boundary_edges)).
//! The executor then runs the latency-hiding schedule: exchanges start
//! in recorded order, interior loops and the **interior blocks** of
//! boundary-marked groups execute while the messages are in flight, the
//! pending finishes complete, and the **boundary blocks** run last.
//! [`ExchangePolicy::Blocking`] finishes every exchange immediately
//! instead (the classical schedule) while computing in the *same* order,
//! so the two policies are bit-identical — the halo bench
//! (`benches/halo.rs`, `BENCH_halo.json`) isolates pure latency hiding.
//!
//! # Cross-timestep sparse tiling
//!
//! [`tile::TiledChain`] executes a chain recording **N timesteps** tile
//! by tile and turns the runtime from barrier-reducing into
//! bandwidth-eliminating: the mesh is partitioned into tiles, each
//! tile's dependency cone is grown backward through the maps one halo
//! layer per loop (from the recorded [`LoopDesc`]s), and the executor
//! sweeps every tile through all member loops — across timestep
//! boundaries — while its working set stays cache-resident. It runs the
//! loops' own recorded bodies on each cone's ascending runs, over the
//! tile's shadow copies of the evolving dats: tiling is an execution
//! policy of the one recording, like fusion and the SIMD shape.
//! Fringe iterations shared by neighboring cones are computed
//! redundantly by each tile that needs them, so tiles never synchronize
//! inside an *epoch*; epochs are cut exactly at global-reduction
//! consumption points ([`desc::global_barrier`], a deliberately weaker
//! rule than [`conflict`]'s global clause — commuting `Inc`/`Inc`
//! accumulations tile fine as per-block partials). The [`tile`] module
//! docs state the legality and bit-determinism contract.
//!
//! # Example
//!
//! A direct-only chain fuses into one colored dispatch:
//!
//! ```
//! use ump_core::{Access, ArgInfo, ExecPool, LoopProfile, PlanCache, SharedDat};
//! use ump_lazy::{Chain, LoopDesc, Shape};
//!
//! let desc = |name: &str, args| {
//!     LoopDesc::new(
//!         LoopProfile {
//!             name: name.into(),
//!             set: "items".into(),
//!             args,
//!             flops_per_elem: 1.0,
//!             transcendentals_per_elem: 0.0,
//!             description: String::new(),
//!         },
//!         100,
//!     )
//! };
//! let pool = ExecPool::new(2);
//! let cache = PlanCache::new();
//! let mut data = vec![0.0f64; 100];
//! let report;
//! {
//!     let view = SharedDat::new(&mut data);
//!     let v = &view;
//!     let mut chain = Chain::new("example");
//!     chain.record(
//!         desc("fill", vec![ArgInfo::direct("a", 1, Access::Write)]),
//!         vec![],
//!         move |e| unsafe { v.slice_mut(e, 1)[0] = e as f64 },
//!     );
//!     chain.record(
//!         desc("double", vec![ArgInfo::direct("a", 1, Access::Rw)]),
//!         vec![],
//!         move |e| unsafe { v.slice_mut(e, 1)[0] *= 2.0 },
//!     );
//!     assert_eq!(chain.groups().len(), 1, "direct-only chains always fuse");
//!     report = chain.execute(&pool, &cache, Shape::Threaded, 0, 32, 8, None);
//! }
//! assert_eq!(report.fused_rounds, 1, "one colored dispatch for both loops");
//! assert_eq!(data[7], 14.0);
//! ```
//!
//! [`Chain::execute`]: chain::Chain::execute
//! [`Chain::record_serial`]: chain::Chain::record_serial
//! [`Chain::record_simd`]: chain::Chain::record_simd
//! [`Chain::record_simd_two_phase`]: chain::Chain::record_simd_two_phase
//! [`Chain::record_exchange`]: chain::Chain::record_exchange
//! [`Chain::mark_interior`]: chain::Chain::mark_interior
//! [`Chain::mark_boundary`]: chain::Chain::mark_boundary
//! [`ExchangePolicy::Blocking`]: chain::ExchangePolicy::Blocking
//! [`Shape::Threaded`]: chain::Shape::Threaded
//! [`Shape::Simt`]: chain::Shape::Simt
//! [`Shape::Simd`]: chain::Shape::Simd

#![deny(missing_docs)]

pub mod chain;
pub mod desc;
pub mod tile;

pub use chain::{Chain, ChainReport, ExchangePolicy, Fusion, Shape};
pub use desc::{conflict, fuse_groups, global_barrier, GroupSpec, LoopDesc};
pub use tile::{epoch_ranges, TileCache, TileDats, TileReport, TileSchedule, TiledChain};
