//! Cross-timestep sparse tiling: execute N recorded timesteps of one
//! [`Chain`] tile by tile, each tile through all N steps while its
//! working set stays in cache.
//!
//! Within-step fusion ([`Chain`]) removes dispatch rounds but still
//! re-streams every dat from memory once per timestep. The OP2
//! sparse-tiling lineage goes further: partition the mesh into *tiles*,
//! grow each tile's footprint **backward** one halo layer per dependence
//! through the maps (the *dependency cone*), and execute each tile
//! through many loops — and many *steps* — before touching the next
//! tile. Fringe iterations shared by neighboring cones are computed
//! redundantly by every tile that needs them, which is what makes tiles
//! independent: no inter-tile synchronization inside an epoch.
//!
//! Tiling is one more execution policy of the recording every other
//! shared-memory path runs — there is no tiled copy of a loop body. The
//! pieces:
//!
//! * [`TiledChain`] — the cone walk's inputs besides the recording
//!   (whose [`Chain`] holds the maps): the sets and the *evolving* dats
//!   (anything some recorded loop writes). A recording
//!   reaches the evolving dats only through the [`TileDats`] it is
//!   given, so the executor can hand each tile its private shadow copies
//!   instead; read-only data (coordinates, geometry, maps) is captured
//!   directly — it is never written, so tiles may share it.
//! * **Epochs** ([`epoch_ranges`]) — the recording is cut at
//!   global-reduction synchronization points ([`global_barrier`]): a loop
//!   that consumes a global value produced earlier in the chain (Volna's
//!   CFL Δt) starts a new epoch, because every tile's partial must be
//!   merged before any tile may read the result. Airfoil's RMS is
//!   produced but never consumed in-chain, so its whole N-step recording
//!   is one epoch.
//! * [`TiledChain::schedule`] — the inspector, over the recorded loops'
//!   [`LoopDesc`]s. Ownership of every set is a contiguous, block-aligned
//!   partition into `n_tiles` ranges. Per epoch and tile, a backward walk
//!   over the descriptors computes the exact iteration subsets: a loop
//!   executes every iteration that writes a *needed* row; reads of
//!   evolving dats by those iterations become needed one loop earlier; a
//!   direct `Write` satisfies (removes) needs. What survives to the epoch
//!   start is the tile's copy-in footprint.
//! * [`TiledChain::execute`] — the executor. Two pool rounds per epoch:
//!   round 1 runs one task per tile (copy the footprint into a
//!   worker-recycled shadow, record the chain again over it, run each
//!   loop's own scalar or vector body on the cone's ascending runs, stage
//!   owned rows into a per-tile out buffer); round 2 writes the staged
//!   rows back. The barrier between the rounds is what keeps copy-in
//!   reads (pre-epoch state) and owned-row write-back race-free. Loop
//!   epilogues (reduction merges) run after write-back, in recorded
//!   order.
//! * [`TileCache`] — inspector–executor reuse. The executor takes the
//!   schedule from a cache keyed by the chain's structure and the tiling
//!   configuration: the first call inspects, later calls with the same
//!   key only execute. The cache also keeps the worker shadows and the
//!   staging buffer between calls, so a hit allocates nothing.
//!
//! # Determinism
//!
//! Each tile executes its iterations in ascending element order, so for
//! every *owned* row the increment accumulation order equals the
//! sequential reference's — tiled element state under scalar bodies is
//! **bit-identical to `step_seq`** for any tile size, step count, or
//! team size. Reduction contributions come only from owned blocks, each
//! into its own partial slot (ownership is block-aligned, so each slot
//! belongs to exactly one tile; fringe runs drop theirs), and the
//! partials are folded in slot order — the same ordered-fold discipline
//! as the fused and distributed paths, making reduction histories
//! independent of the tiling configuration.

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, Range};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use ump_core::{
    Access, Addressing, ArgInfo, DatRef, ExecPool, FusionStats, Indirection, Recorder, Writable,
};
use ump_mesh::Csr;

use crate::chain::{Chain, Shape};
use crate::desc::{global_barrier, LoopDesc};

// ---------------------------------------------------------------------------
// row sets (dense bitsets over a set's elements)
// ---------------------------------------------------------------------------

/// Dense bitset over one set's elements — the working representation of
/// needed-row sets and executed-iteration sets during cone analysis.
#[derive(Clone)]
struct RowSet {
    words: Vec<u64>,
    n: usize,
}

impl RowSet {
    fn new(n: usize) -> RowSet {
        RowSet {
            words: vec![0; n.div_ceil(64)],
            n,
        }
    }

    #[inline]
    fn set(&mut self, i: usize) {
        debug_assert!(i < self.n);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    fn insert_range(&mut self, r: Range<u32>) {
        for i in r {
            self.set(i as usize);
        }
    }

    fn or(&mut self, other: &RowSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    fn and_not(&mut self, other: &RowSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= !o;
        }
    }

    fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// Maximal runs of consecutive set bits, ascending.
    fn runs(&self) -> Vec<Range<u32>> {
        let mut out = Vec::new();
        let mut open: Option<Range<u32>> = None;
        for i in self.iter() {
            let i = i as u32;
            match open.take() {
                Some(r) if r.end == i => open = Some(r.start..i + 1),
                Some(r) => {
                    out.push(r);
                    open = Some(i..i + 1);
                }
                None => open = Some(i..i + 1),
            }
        }
        if let Some(r) = open {
            out.push(r);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// the cone walk's inputs
// ---------------------------------------------------------------------------

/// One resolved (non-global) argument of a recorded loop: which
/// registered dat it touches (if any — read-only dats are unregistered
/// and ignored by the cone walk), through which registered map, and how.
struct TArg {
    dat: Option<usize>,
    map: Option<usize>,
    access: Access,
}

/// A recorded loop as the cone walk sees it.
struct TLoop {
    set: usize,
    step: usize,
    n_elems: usize,
    args: Vec<TArg>,
    // the loop reduces into a global: its owned iterations must always
    // execute (each tile contributes exactly its own partials), even
    // when no registered dat pulls them into the cone
    global_write: bool,
}

/// The evolving dats a recording runs over, in registration order, as
/// handles in the layout `A`: the registered storage, or one tile
/// worker's shadow copy of it. `'a` is the [`TiledChain`]'s, so a
/// recording over a worker's short-lived shadows may still capture
/// anything that outlives the tiled chain.
pub struct TileDats<'s, 'a, T, A> {
    dats: &'s [DatRef<'s, T, Writable, A>],
    _chain: PhantomData<&'a ()>,
}

impl<'s, T, A> Deref for TileDats<'s, '_, T, A> {
    type Target = [DatRef<'s, T, Writable, A>];

    fn deref(&self) -> &[DatRef<'s, T, Writable, A>] {
        self.dats
    }
}

/// Cross-timestep tiling of a recorded [`Chain`]: the sets and
/// *evolving* dats (the ones some loop writes) its cone walk needs,
/// stored in the layout `A`; the maps are the chain's own
/// ([`Chain::register_map`]). See the module docs for the execution
/// model; `crates/apps` tiles both applications' one recording through
/// this (the `run_tiled[_on]` drivers), and the property-test harness
/// tiles synthetic integer chains to pin bit-exactness.
pub struct TiledChain<'a, T: Copy + Default + Send + Sync, A: Addressing> {
    name: String,
    sets: Vec<(String, usize)>,
    /// Name, set and dim of each registered dat, in registration order.
    regs: Vec<(String, usize, usize)>,
    dats: Vec<DatRef<'a, T, Writable, A>>,
}

impl<'a, T: Copy + Default + Send + Sync, A: Addressing> TiledChain<'a, T, A> {
    /// New tiling named `name` (the fusion-stats key under which
    /// [`execute`](TiledChain::execute) reports).
    pub fn new(name: impl Into<String>) -> TiledChain<'a, T, A> {
        TiledChain {
            name: name.into(),
            sets: Vec::new(),
            regs: Vec::new(),
            dats: Vec::new(),
        }
    }

    /// Declare an iteration set (`"cells"`, `"edges"`, …) of `n`
    /// elements. Every recorded loop's set must be declared first.
    pub fn register_set(&mut self, name: impl Into<String>, n: usize) {
        let name = name.into();
        assert!(
            self.sets.iter().all(|(s, _)| *s != name),
            "set '{name}' registered twice"
        );
        self.sets.push((name, n));
    }

    /// Declare an evolving dat (one some recorded loop writes) living on
    /// `set`, reached through `dat`. Recordings reach it as the next slot
    /// of [`TileDats`]; the executor hands tiles shadow copies in its
    /// place, stored as `dat`'s view says.
    pub fn register_dat(
        &mut self,
        name: impl Into<String>,
        set: &str,
        dat: DatRef<'a, T, Writable, A>,
    ) {
        let name = name.into();
        let set_idx = self.set_index(set);
        let (n, dim) = (self.sets[set_idx].1, dat.view().dim);
        assert!(
            dat.view().n == n && dat.len() == n * dim,
            "dat '{name}': storage is not set_size x dim"
        );
        assert!(
            self.regs.iter().all(|(d, ..)| *d != name),
            "dat '{name}' registered twice"
        );
        self.regs.push((name, set_idx, dim));
        self.dats.push(dat);
    }

    /// The registered storage, as recordings see it.
    pub fn dats(&self) -> TileDats<'_, 'a, T, A> {
        TileDats {
            dats: &self.dats,
            _chain: PhantomData,
        }
    }

    fn set_index(&self, name: &str) -> usize {
        self.sets
            .iter()
            .position(|(s, _)| s == name)
            .unwrap_or_else(|| panic!("set '{name}' not registered"))
    }

    /// Resolve every loop of `chain`, a recording of `steps` equal
    /// timesteps, against the registered sets and dats and the chain's
    /// maps.
    fn resolve(&self, chain: &Chain<'_>, steps: usize) -> Vec<TLoop> {
        let n = chain.len();
        assert!(
            steps > 0 && n.is_multiple_of(steps),
            "{n} loops are not {steps} equal steps"
        );
        (0..n)
            .map(|i| self.resolve_loop(chain, chain.desc(i), i / (n / steps)))
            .collect()
    }

    fn resolve_loop(&self, chain: &Chain<'_>, desc: &LoopDesc, step: usize) -> TLoop {
        let maps = chain.maps();
        let set = self.set_index(&desc.profile.set);
        assert_eq!(
            self.sets[set].1, desc.n_elems,
            "loop {}: n_elems disagrees with set '{}'",
            desc.profile.name, desc.profile.set
        );
        let dat_index = |name: &str| self.regs.iter().position(|(d, ..)| d == name);
        let mut args = Vec::new();
        for a in &desc.profile.args {
            let (map, dat) = match &a.ind {
                Indirection::Global => continue,
                Indirection::Direct => (None, dat_index(&a.dat)),
                Indirection::Indirect { map, .. } => {
                    let dat = dat_index(&a.dat);
                    let m = maps.iter().position(|m| m.name == *map);
                    if let Some(d) = dat {
                        let m = m.unwrap_or_else(|| {
                            panic!(
                                "loop {}: map '{map}' reaches evolving dat '{}' but is not registered with chain {}",
                                desc.profile.name,
                                a.dat,
                                chain.name()
                            )
                        });
                        assert_eq!(
                            maps[m].from_size, desc.n_elems,
                            "loop {}: map '{map}' from-size mismatch",
                            desc.profile.name
                        );
                        assert_eq!(
                            maps[m].to_size, self.sets[self.regs[d].1].1,
                            "loop {}: map '{map}' target-size mismatch with dat '{}'",
                            desc.profile.name, a.dat
                        );
                    }
                    (m, dat)
                }
            };
            if let Some(d) = dat {
                if map.is_none() {
                    assert_eq!(
                        self.regs[d].1, set,
                        "loop {}: direct arg '{}' lives on another set",
                        desc.profile.name, a.dat
                    );
                }
            } else {
                assert!(
                    !a.access.writes(),
                    "loop {}: written dat '{}' is not registered",
                    desc.profile.name,
                    a.dat
                );
            }
            args.push(TArg {
                dat,
                map,
                access: a.access,
            });
        }
        let global_write = desc
            .profile
            .args
            .iter()
            .any(|a| a.ind == Indirection::Global && a.access.writes());
        TLoop {
            set,
            step,
            n_elems: desc.n_elems,
            args,
            global_write,
        }
    }

    // -----------------------------------------------------------------
    // schedule: epochs + dependency cones
    // -----------------------------------------------------------------

    /// Compute the tiled schedule of `chain`, a recording of `steps`
    /// equal timesteps: ownership partitions, epochs, and per epoch ×
    /// tile the dependency-cone iteration runs, copy-in footprints and
    /// owned write-back ranges. `tile_elems` sizes tiles on the *anchor
    /// set* (the last recorded loop's set); ownership of every set is
    /// block-aligned so reduction partial slots are tile-exclusive.
    pub fn schedule(
        &self,
        chain: &Chain<'_>,
        steps: usize,
        tile_elems: usize,
        block_size: usize,
    ) -> TileSchedule {
        assert!(!chain.is_empty(), "schedule of an empty chain");
        let loops = self.resolve(chain, steps);
        let block_size = block_size.max(1);
        let anchor = loops.last().unwrap().set;
        let n_anchor = self.sets[anchor].1;
        let blocks_per_tile = tile_elems.max(1).div_ceil(block_size).max(1);
        let anchor_blocks = n_anchor.div_ceil(block_size).max(1);
        let n_tiles = anchor_blocks.div_ceil(blocks_per_tile).max(1);

        // contiguous block-aligned ownership of every set
        let owned: Vec<Vec<Range<u32>>> = self
            .sets
            .iter()
            .map(|&(_, n)| {
                let blocks = n.div_ceil(block_size).max(1);
                (0..n_tiles)
                    .map(|t| {
                        let lo = (t * blocks / n_tiles) * block_size;
                        let hi = ((t + 1) * blocks / n_tiles) * block_size;
                        (lo.min(n) as u32)..(hi.min(n) as u32)
                    })
                    .collect()
            })
            .collect();

        // map inverses (target row -> source iterations), built once
        let inv: Vec<Csr> = chain.maps().iter().map(|m| m.invert()).collect();
        let set_len = |d: usize| self.sets[self.regs[d].1].1;

        let mut executed_iters = 0usize;
        let essential_iters: usize = loops.iter().map(|l| l.n_elems).sum();
        let mut copy_in_words = 0usize;
        let mut copy_out_words = 0usize;

        let mut epochs = Vec::new();
        for range in epoch_ranges(chain) {
            let eloops = &loops[range.clone()];
            // evolving dats written anywhere in this epoch
            let mut written: Vec<usize> = eloops
                .iter()
                .flat_map(|l| {
                    l.args
                        .iter()
                        .filter(|a| a.access.writes())
                        .filter_map(|a| a.dat)
                })
                .collect();
            written.sort_unstable();
            written.dedup();

            let mut tiles = Vec::with_capacity(n_tiles);
            for t in 0..n_tiles {
                // backward needed-row closure, seeded with the owned rows
                // of every dat the epoch writes
                let mut needed: Vec<Option<RowSet>> = vec![None; self.regs.len()];
                for &d in &written {
                    let mut rs = RowSet::new(set_len(d));
                    rs.insert_range(owned[self.regs[d].1][t].clone());
                    needed[d] = Some(rs);
                }
                let mut iters_rev: Vec<Vec<Range<u32>>> = Vec::with_capacity(eloops.len());
                for l in eloops.iter().rev() {
                    // executed iterations: everything that writes a
                    // needed row of any evolving dat, plus the owned
                    // range when the loop reduces into a global
                    let mut e = RowSet::new(self.sets[l.set].1);
                    if l.global_write {
                        e.insert_range(owned[l.set][t].clone());
                    }
                    // one inverse image per map, of the union of the
                    // needs of every dat the loop writes through it
                    let mut through: Vec<Option<RowSet>> = vec![None; inv.len()];
                    for a in l.args.iter().filter(|a| a.access.writes()) {
                        let Some(d) = a.dat else { continue };
                        let Some(nd) = &needed[d] else { continue };
                        match a.map {
                            None => e.or(nd),
                            Some(m) => through[m].get_or_insert_with(|| RowSet::new(nd.n)).or(nd),
                        }
                    }
                    for (m, rows) in through.iter().enumerate() {
                        for row in rows.iter().flat_map(RowSet::iter) {
                            for &s in inv[m].row(row) {
                                e.set(s as usize);
                            }
                        }
                    }
                    executed_iters += e.count();
                    // a direct full Write satisfies the rows it covers
                    for a in &l.args {
                        if a.access == Access::Write && a.map.is_none() {
                            if let Some(d) = a.dat {
                                if let Some(nd) = needed[d].as_mut() {
                                    nd.and_not(&e);
                                }
                            }
                        }
                    }
                    // reads of evolving dats by executed iterations
                    // become needed one loop earlier (Inc reads the
                    // prior value, so it needs its target rows too); one
                    // forward image per map, shared by every dat it reads
                    let mut image: Vec<Option<RowSet>> = vec![None; inv.len()];
                    for a in l.args.iter().filter(|a| a.access.reads()) {
                        let Some(d) = a.dat else { continue };
                        let nd = needed[d].get_or_insert_with(|| RowSet::new(set_len(d)));
                        match a.map {
                            None => nd.or(&e),
                            Some(m) => nd.or(image[m].get_or_insert_with(|| {
                                let map = chain.maps()[m];
                                let mut img = RowSet::new(map.to_size);
                                for it in e.iter() {
                                    for &r in map.row(it) {
                                        img.set(r as usize);
                                    }
                                }
                                img
                            })),
                        }
                    }
                    iters_rev.push(e.runs());
                }
                iters_rev.reverse();
                let copy_in: Vec<(usize, Vec<Range<u32>>)> = needed
                    .iter()
                    .enumerate()
                    .filter_map(|(d, nd)| {
                        let nd = nd.as_ref()?;
                        if !nd.any() {
                            return None;
                        }
                        copy_in_words += nd.count() * self.regs[d].2;
                        Some((d, nd.runs()))
                    })
                    .collect();
                let copy_out: Vec<(usize, Range<u32>)> = written
                    .iter()
                    .map(|&d| {
                        let r = owned[self.regs[d].1][t].clone();
                        copy_out_words += (r.end - r.start) as usize * self.regs[d].2;
                        (d, r)
                    })
                    .collect();
                tiles.push(TilePlan {
                    iters: iters_rev,
                    copy_in,
                    copy_out,
                });
            }
            epochs.push(EpochPlan {
                loops: range,
                tiles,
            });
        }

        // cross-step traffic the untiled path would re-stream: at every
        // step boundary *inside* an epoch, dats touched on both sides
        // stay tile-resident instead of making a round trip to memory
        let mut cross_step_words = 0usize;
        for ep in &epochs {
            let eloops = &loops[ep.loops.clone()];
            let steps: Vec<usize> = {
                let mut s: Vec<usize> = eloops.iter().map(|l| l.step).collect();
                s.dedup();
                s
            };
            for pair in steps.windows(2) {
                for (d, (_, set, dim)) in self.regs.iter().enumerate() {
                    let touched = |step: usize| {
                        eloops
                            .iter()
                            .any(|l| l.step == step && l.args.iter().any(|a| a.dat == Some(d)))
                    };
                    if touched(pair[0]) && touched(pair[1]) {
                        cross_step_words += self.sets[*set].1 * dim;
                    }
                }
            }
        }

        TileSchedule {
            n_tiles,
            block_size,
            anchor_set: anchor,
            owned,
            epochs,
            executed_iters,
            essential_iters,
            copy_in_words,
            copy_out_words,
            cross_step_words,
        }
    }

    // -----------------------------------------------------------------
    // executor
    // -----------------------------------------------------------------

    /// Everything the inspector reads except the map contents, which are
    /// fixed for the cache owner's life.
    fn cache_key(
        &self,
        chain: &Chain<'_>,
        loops: &[TLoop],
        tile_elems: usize,
        block_size: usize,
    ) -> TileKey {
        TileKey {
            sets: self.sets.clone(),
            maps: chain
                .maps()
                .iter()
                .map(|m| (m.name.clone(), m.from_size, m.to_size, m.dim))
                .collect(),
            dats: self.regs.clone(),
            loops: loops
                .iter()
                .enumerate()
                .map(|(i, l)| {
                    let p = &chain.desc(i).profile;
                    (p.name.clone(), l.set, l.step, p.args.clone())
                })
                .collect(),
            tile_elems,
            block_size,
        }
    }

    /// Execute `steps` timesteps of a recording tile by tile on `pool`,
    /// under the schedule for `(tile_elems, block_size)`, taken from
    /// `cache` (the inspector runs only when the cache's key misses).
    ///
    /// `record` records the `steps` timesteps over the dats it is given
    /// (the registered ones, in registration order). Its recording over
    /// the registered storage supplies the loop descriptors the
    /// inspector walks and the epilogues; each tile task records again
    /// over its worker's shadow copies and runs every loop's own body —
    /// scalar, or the `L`-lane three-sweep under `shape` =
    /// [`Shape::Simd`] — on the cone's ascending runs, split at the
    /// tile's owned range: owned blocks run with `Some(block)` reduction
    /// slots, fringe runs with `None` (see
    /// [`Chain::record_blocks`](crate::Chain::record_blocks)).
    ///
    /// Two dispatch rounds per epoch (tile sweep, then owned-row
    /// write-back), epilogues at each epoch barrier. `word_bytes` scales
    /// the byte metrics of the returned [`TileReport`], which is also
    /// reported to `rec` under this chain's name via
    /// [`Recorder::record_fusion`]. With `rec`, each tile also times its
    /// loops: round 1's wall time is split across the epoch's loops in
    /// proportion to their summed per-tile time (the copy-in and staging
    /// share stays unattributed) and recorded under each loop's profile
    /// name, with profile bytes and flops × executed iterations. An empty
    /// recording does nothing and leaves `cache` untouched.
    #[allow(clippy::too_many_arguments)]
    pub fn execute<F>(
        &self,
        record: F,
        pool: &ExecPool,
        cache: &mut TileCache<T>,
        steps: usize,
        tile_elems: usize,
        block_size: usize,
        n_threads: usize,
        shape: Shape,
        word_bytes: usize,
        rec: Option<&Recorder>,
    ) -> TileReport
    where
        F: for<'s> Fn(&'s TileDats<'s, 'a, T, A>) -> Chain<'s> + Sync,
    {
        assert!(
            !matches!(shape, Shape::Simt { .. }),
            "tiles run scalar or SIMD bodies"
        );
        let registered = self.dats();
        let global = record(&registered);
        if global.is_empty() {
            return TileReport::default();
        }
        let loops = self.resolve(&global, steps);
        let sched = {
            let key = self.cache_key(&global, &loops, tile_elems, block_size);
            let inspect = || self.schedule(&global, steps, tile_elems, block_size);
            match &cache.entry {
                Some((k, sched)) if *k == key => {
                    cache.hits += 1;
                    debug_assert_eq!(**sched, inspect(), "stale tile-cache key");
                    Arc::clone(sched)
                }
                _ => {
                    cache.builds += 1;
                    let sched = Arc::new(inspect());
                    cache.entry = Some((key, Arc::clone(&sched)));
                    sched
                }
            }
        };
        let dims: Vec<usize> = self.regs.iter().map(|r| r.2).collect();
        // the storage ranges holding rows `r` of registered dat `d`
        let spans =
            |d: usize, r: &Range<u32>| self.dats[d].view().spans(r.start as usize..r.end as usize);
        // staging words of one tile's owned rows in one epoch
        let out_words = |tp: &TilePlan| -> usize {
            tp.copy_out
                .iter()
                .map(|(d, r)| (r.end - r.start) as usize * dims[*d])
                .sum()
        };
        let staging_words = sched
            .epochs
            .iter()
            .map(|ep| ep.tiles.iter().map(out_words).sum::<usize>())
            .max()
            .unwrap_or(0);
        if cache.staging.len() < staging_words {
            cache.staging.resize(staging_words, T::default());
        }
        // worker-recycled full-size shadow sets: at most `team` live at
        // once, far fewer than one per tile
        let shadows = &cache.shadows;
        // SAFETY: tile t writes staging only at its own range base[t]..
        // in round 1, and round 2 reads it after round 1's barrier
        let staging = unsafe { DatRef::flat_mut(&mut cache.staging) };
        let mut rounds = 0usize;

        for ep in &sched.epochs {
            // tile t stages its owned rows at base[t].. (written back in
            // round 2, after every tile has read pre-epoch state)
            let base: Vec<usize> = ep
                .tiles
                .iter()
                .scan(0, |off, tp| {
                    let at = *off;
                    *off += out_words(tp);
                    Some(at)
                })
                .collect();
            // with `rec`: per-loop seconds and whole-task seconds, summed
            // over tiles
            let clocks = rec.map(|_| Mutex::new((vec![0.0f64; ep.loops.len()], 0.0f64)));
            let round_start = rec.map(|_| Instant::now());

            // round 1: sweep every tile through the epoch's loops
            pool.run_round(ep.tiles.len(), n_threads, 1, &|t| {
                let task_start = clocks.as_ref().map(|_| Instant::now());
                let mut loop_s = vec![0.0f64; if clocks.is_some() { ep.loops.len() } else { 0 }];
                let tp = &ep.tiles[t];
                let mut shadow = lock(shadows).pop().unwrap_or_default();
                let fits = shadow.len() == self.dats.len()
                    && shadow
                        .iter()
                        .zip(&self.dats)
                        .all(|(s, d)| s.len() == d.len());
                if !fits {
                    shadow = self
                        .dats
                        .iter()
                        .map(|d| vec![T::default(); d.len()])
                        .collect();
                }
                for (d, runs) in &tp.copy_in {
                    for span in runs.iter().flat_map(|r| spans(*d, r)) {
                        // SAFETY: round 1 only reads the global storage
                        let global = unsafe { self.dats[*d].slice(span.start, span.len()) };
                        shadow[*d][span].copy_from_slice(global);
                    }
                }
                {
                    let views: Vec<DatRef<'_, T, Writable, A>> = shadow
                        .iter_mut()
                        .zip(&self.dats)
                        // SAFETY: the shadow set is this task's own, and
                        // `run_range` runs its bodies on this thread
                        .map(|(s, d)| unsafe { DatRef::new_mut(s, d.view()) })
                        .collect();
                    let dats = TileDats {
                        dats: &views,
                        _chain: PhantomData,
                    };
                    let chain = record(&dats);
                    for (li, i) in ep.loops.clone().enumerate() {
                        let loop_start = clocks.as_ref().map(|_| Instant::now());
                        let owned = &sched.owned[loops[i].set][t];
                        for r in &tp.iters[li] {
                            for (slot, piece) in owned_split(r, owned, sched.block_size) {
                                chain.run_range(i, shape, slot, piece);
                            }
                        }
                        if let Some(t0) = loop_start {
                            loop_s[li] = t0.elapsed().as_secs_f64();
                        }
                    }
                }
                let mut off = base[t];
                for (d, r) in &tp.copy_out {
                    for span in spans(*d, r) {
                        let n = span.len();
                        // SAFETY: this tile's staging range, exclusively
                        let dst = unsafe { staging.slice_mut(off, n) };
                        dst.copy_from_slice(&shadow[*d][span]);
                        off += n;
                    }
                }
                lock(shadows).push(shadow);
                if let (Some(c), Some(t0)) = (&clocks, task_start) {
                    let mut c = lock(c);
                    c.0.iter_mut().zip(&loop_s).for_each(|(a, s)| *a += s);
                    c.1 += t0.elapsed().as_secs_f64();
                }
            });
            rounds += 1;
            if let (Some(r), Some(c), Some(t0)) = (rec, clocks, round_start) {
                // round 1's wall time, split across the loops in
                // proportion to their summed per-tile time; the copy-in
                // and staging share stays unattributed
                let wall = t0.elapsed().as_secs_f64();
                let (loop_s, task_s) = c.into_inner().unwrap_or_else(PoisonError::into_inner);
                for (li, i) in ep.loops.clone().enumerate() {
                    let iters: usize = ep
                        .tiles
                        .iter()
                        .flat_map(|tp| &tp.iters[li])
                        .map(|r| (r.end - r.start) as usize)
                        .sum();
                    let p = &global.desc(i).profile;
                    let share = if task_s > 0.0 {
                        loop_s[li] / task_s
                    } else {
                        0.0
                    };
                    r.record(
                        &p.name,
                        wall * share,
                        p.bytes_per_elem(word_bytes) * iters as f64,
                        p.flops_per_elem * iters as f64,
                    );
                }
            }

            // round 2: write owned rows back (disjoint per tile)
            pool.run_round(ep.tiles.len(), n_threads, 1, &|t| {
                let mut off = base[t];
                for (d, r) in &ep.tiles[t].copy_out {
                    for span in spans(*d, r) {
                        let n = span.len();
                        // SAFETY: ownership ranges partition the set
                        let dst = unsafe { self.dats[*d].slice_mut(span.start, n) };
                        // SAFETY: round 1 completed; staging is read-only now
                        let src = unsafe { staging.slice(off, n) };
                        dst.copy_from_slice(src);
                        off += n;
                    }
                }
            });
            rounds += 1;

            for i in ep.loops.clone() {
                global.run_epilogue(i);
            }
        }

        let report = TileReport {
            steps,
            loops: global.len(),
            epochs: sched.epochs.len(),
            tiles: sched.n_tiles,
            rounds,
            executed_iters: sched.executed_iters,
            essential_iters: sched.essential_iters,
            copy_in_bytes: (sched.copy_in_words * word_bytes) as f64,
            copy_out_bytes: (sched.copy_out_words * word_bytes) as f64,
            cross_step_bytes_saved: (sched.cross_step_words * word_bytes) as f64,
        };
        if let Some(r) = rec {
            r.record_fusion(
                &self.name,
                FusionStats {
                    executions: 1,
                    loops: report.loops,
                    groups: report.epochs,
                    fused_rounds: report.rounds,
                    unfused_rounds: report.loops,
                    bytes_saved: 0.0,
                    steps: report.steps,
                    cross_step_bytes_saved: report.cross_step_bytes_saved,
                },
            );
        }
        report
    }
}

/// Cut a recorded chain at global synchronization points
/// ([`global_barrier`]): a new epoch starts at every loop whose global
/// arguments conflict with a global already touched in the current epoch
/// (read-after-reduce, reduce-after-read). Returns the loop-index range
/// of each epoch, in order.
pub fn epoch_ranges(chain: &Chain<'_>) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut start = 0usize;
    for i in 1..chain.len() {
        let barrier =
            (start..i).any(|prev| global_barrier(chain.desc(prev), chain.desc(i)).is_some());
        if barrier {
            out.push(start..i);
            start = i;
        }
    }
    if start < chain.len() {
        out.push(start..chain.len());
    }
    out
}

/// Split a cone run at the tile's `owned` range: the fringe before and
/// after it runs with no reduction slot, the owned part block by block,
/// each block with its own slot.
fn owned_split(
    run: &Range<u32>,
    owned: &Range<u32>,
    block_size: usize,
) -> Vec<(Option<usize>, Range<u32>)> {
    let bs = block_size as u32;
    let lo = run.start.clamp(owned.start, owned.end);
    let hi = run.end.clamp(owned.start, owned.end);
    let mut out = vec![(None, run.start..lo.min(run.end))];
    out.extend((lo / bs..hi.div_ceil(bs)).map(|b| {
        let piece = (b * bs).max(lo)..((b + 1) * bs).min(hi);
        (Some(b as usize), piece)
    }));
    out.push((None, hi.max(run.start)..run.end));
    out.retain(|(_, r)| !r.is_empty());
    out
}

// ---------------------------------------------------------------------------
// schedule + report types
// ---------------------------------------------------------------------------

/// One epoch of a [`TileSchedule`]: the member loops and the per-tile
/// cone plans.
#[derive(Debug, PartialEq, Eq)]
pub struct EpochPlan {
    /// Member loop indices into the recorded chain (contiguous).
    pub loops: Range<usize>,
    /// One plan per tile.
    pub tiles: Vec<TilePlan>,
}

/// One tile's plan for one epoch: which iterations of each member loop
/// it executes (its dependency cone), which rows it snapshots in, and
/// which rows it owns and writes back.
#[derive(Debug, PartialEq, Eq)]
pub struct TilePlan {
    /// Per member loop (in epoch order): the executed iterations as
    /// maximal ascending runs. Everything beyond the tile's owned range
    /// is redundant fringe compute.
    pub iters: Vec<Vec<Range<u32>>>,
    /// Per evolving dat with surviving needs: the rows whose pre-epoch
    /// values the tile copies into its shadow.
    pub copy_in: Vec<(usize, Vec<Range<u32>>)>,
    /// Per dat written in the epoch: the owned row range written back.
    pub copy_out: Vec<(usize, Range<u32>)>,
}

/// The complete tiled schedule of a recorded chain.
#[derive(Debug, PartialEq, Eq)]
pub struct TileSchedule {
    /// Number of tiles (contiguous block-aligned partitions of the
    /// anchor set).
    pub n_tiles: usize,
    /// Block size ownership is aligned to (reduction slot granularity).
    pub block_size: usize,
    /// Set index tiles are sized on (the last recorded loop's set).
    pub anchor_set: usize,
    /// `owned[set][tile]` — the contiguous element range tile `tile`
    /// owns of set `set`.
    pub owned: Vec<Vec<Range<u32>>>,
    /// The epochs, in execution order.
    pub epochs: Vec<EpochPlan>,
    /// Iterations executed, summed over tiles and loops (fringe
    /// iterations counted once per tile that runs them).
    pub executed_iters: usize,
    /// Iterations the untiled chain executes (Σ loop sizes).
    pub essential_iters: usize,
    /// Words copied into tile shadows, summed over epochs and tiles.
    pub copy_in_words: usize,
    /// Words written back from tile shadows.
    pub copy_out_words: usize,
    /// Dat words that stay tile-resident across a step boundary inside
    /// an epoch instead of being re-streamed from memory.
    pub cross_step_words: usize,
}

impl TileSchedule {
    /// Fraction of extra (fringe) iterations relative to the untiled
    /// chain: `0.0` means no redundant compute (single tile).
    pub fn redundant_fraction(&self) -> f64 {
        if self.essential_iters == 0 {
            0.0
        } else {
            self.executed_iters as f64 / self.essential_iters as f64 - 1.0
        }
    }
}

/// What one tiled execution did — the tiling counterpart of
/// [`ChainReport`](crate::chain::ChainReport). All zero for an empty
/// recording.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TileReport {
    /// Timesteps the recording covered.
    pub steps: usize,
    /// Loops recorded.
    pub loops: usize,
    /// Epochs (global synchronization sections) executed.
    pub epochs: usize,
    /// Tiles swept per epoch.
    pub tiles: usize,
    /// Pool dispatch rounds issued (2 per epoch).
    pub rounds: usize,
    /// Iterations executed including redundant fringe compute.
    pub executed_iters: usize,
    /// Iterations the untiled chain executes.
    pub essential_iters: usize,
    /// Bytes copied into tile shadows.
    pub copy_in_bytes: f64,
    /// Bytes written back from tile shadows.
    pub copy_out_bytes: f64,
    /// Bytes not re-streamed across step boundaries inside epochs.
    pub cross_step_bytes_saved: f64,
}

impl TileReport {
    /// Fraction of redundant (fringe) iterations, `0.0` for one tile.
    pub fn redundant_fraction(&self) -> f64 {
        if self.essential_iters == 0 {
            0.0
        } else {
            self.executed_iters as f64 / self.essential_iters as f64 - 1.0
        }
    }
}

// ---------------------------------------------------------------------------
// schedule reuse
// ---------------------------------------------------------------------------

/// Lock `m`, recovering it from a panicked holder: every critical section
/// on these locks is one push, pop or sum, which leaves the data valid.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The structural fingerprint a [`TileCache`] is keyed on.
#[derive(Clone, PartialEq, Eq)]
struct TileKey {
    sets: Vec<(String, usize)>,
    maps: Vec<(String, usize, usize, usize)>,
    dats: Vec<(String, usize, usize)>,
    loops: Vec<(String, usize, usize, Vec<ArgInfo>)>,
    tile_elems: usize,
    block_size: usize,
}

/// The inspector–executor split of [`TiledChain::execute`]: one cached
/// schedule plus the executor's buffers, owned by whatever outlives the
/// calls (the applications keep one in their simulation state, next to
/// the mesh the schedule describes).
///
/// * **One entry.** The key is a structural fingerprint of the tiling —
///   set sizes, registered map names and sizes, registered dats, each
///   recorded loop's profile name, set, step and arguments — plus
///   `tile_elems` and `block_size`. A matching call reuses the
///   `Arc<TileSchedule>` ([`hits`](TileCache::hits)); any other call
///   runs the inspector and replaces the entry
///   ([`builds`](TileCache::builds)). Map *contents* are not part of the
///   key: like [`PlanCache`](ump_core::PlanCache), the cache assumes the
///   topology is fixed for its owner's life. Debug builds re-derive the
///   schedule on every hit and assert it equals the cached one.
/// * **Buffers.** The worker-recycled shadow sets (one full-size copy of
///   every registered dat per concurrently running worker) and the
///   staging buffer for owned rows (the largest epoch's write-back) are
///   allocated by the first call and reused, unzeroed, by later ones —
///   safe because each tile copies in every row its cone reads before
///   reading it. [`held_bytes`](TileCache::held_bytes) reports them.
/// * **Clone** shares the schedule but not the buffers: the clone
///   allocates its own on its first call.
pub struct TileCache<T> {
    entry: Option<(TileKey, Arc<TileSchedule>)>,
    shadows: Mutex<Vec<Vec<Vec<T>>>>,
    staging: Vec<T>,
    builds: usize,
    hits: usize,
}

impl<T> TileCache<T> {
    /// Empty cache: the next execution inspects.
    pub fn new() -> TileCache<T> {
        TileCache {
            entry: None,
            shadows: Mutex::new(Vec::new()),
            staging: Vec::new(),
            builds: 0,
            hits: 0,
        }
    }

    /// Inspector runs (cache misses).
    pub fn builds(&self) -> usize {
        self.builds
    }

    /// Executions that reused the cached schedule.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Bytes of executor buffers held between calls (shadows + staging).
    pub fn held_bytes(&self) -> usize {
        let shadows = lock(&self.shadows);
        let words: usize = shadows.iter().flatten().map(Vec::len).sum();
        (words + self.staging.len()) * std::mem::size_of::<T>()
    }
}

impl<T> Default for TileCache<T> {
    fn default() -> TileCache<T> {
        TileCache::new()
    }
}

impl<T> Clone for TileCache<T> {
    fn clone(&self) -> TileCache<T> {
        TileCache {
            entry: self.entry.clone(),
            builds: self.builds,
            hits: self.hits,
            ..TileCache::new()
        }
    }
}

impl<T> fmt::Debug for TileCache<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TileCache")
            .field("builds", &self.builds)
            .field("hits", &self.hits)
            .finish_non_exhaustive()
    }
}
