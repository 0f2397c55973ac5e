//! Plan caching — OP2's `op_plan_get`.
//!
//! Coloring plans are expensive to build and depend only on the loop
//! *shape* (iteration set, written maps, block size, scheme), not on the
//! data, so OP2 computes them on first execution and reuses them across
//! the time loop. Same here.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use ump_color::{BlockPermutePlan, FullPermutePlan, PlanInputs, TwoLevelPlan};

/// Which coloring/execution scheme a plan uses (paper §4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Original two-level coloring (colored blocks + colored increments).
    TwoLevel,
    /// Global color permutation (lane independence, no locality).
    FullPermute,
    /// Per-block color permutation (lane independence within blocks).
    BlockPermute,
}

/// A built plan of any scheme.
#[derive(Clone, Debug)]
pub enum AnyPlan {
    /// Two-level plan.
    TwoLevel(TwoLevelPlan),
    /// Full-permute plan.
    Full(FullPermutePlan),
    /// Block-permute plan.
    Block(BlockPermutePlan),
}

impl AnyPlan {
    /// The two-level plan, panicking otherwise (driver/scheme mismatch is
    /// a programming error).
    pub fn two_level(&self) -> &TwoLevelPlan {
        match self {
            AnyPlan::TwoLevel(p) => p,
            _ => panic!("expected a two-level plan"),
        }
    }

    /// The full-permute plan.
    pub fn full_permute(&self) -> &FullPermutePlan {
        match self {
            AnyPlan::Full(p) => p,
            _ => panic!("expected a full-permute plan"),
        }
    }

    /// The block-permute plan.
    pub fn block_permute(&self) -> &BlockPermutePlan {
        match self {
            AnyPlan::Block(p) => p,
            _ => panic!("expected a block-permute plan"),
        }
    }

    /// Walk a permute plan's color groups on the calling thread, in
    /// execution order: a full-permute plan's global groups in color
    /// order; a block-permute plan's blocks in block-color order, each
    /// block's groups in color order. No two elements of a group write
    /// a common target (paper §4), so whole `lanes`-wide pieces of a
    /// group go to `piece`, which may land its increments with true
    /// vector scatters; the sub-lane tail goes element by element to
    /// `tail`.
    pub fn for_each_color_group(
        &self,
        lanes: usize,
        mut piece: impl FnMut(&[u32]),
        mut tail: impl FnMut(usize),
    ) {
        assert!(lanes >= 1, "lanes must be >= 1");
        let mut run_group = |ids: &[u32]| {
            let (vector, rest) = ids.split_at(ids.len() / lanes * lanes);
            vector.chunks_exact(lanes).for_each(&mut piece);
            rest.iter().for_each(|&e| tail(e as usize));
        };
        match self {
            AnyPlan::Full(p) => p.color_groups().for_each(run_group),
            AnyPlan::Block(p) => {
                for &b in p.blocks_by_color.iter().flatten() {
                    p.block_groups(b as usize).for_each(&mut run_group);
                }
            }
            AnyPlan::TwoLevel(_) => panic!("expected a permute plan"),
        }
    }
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    /// Scope of the handle that issued the `get` (see
    /// [`PlanCache::scoped`]); `""` for the root handle.
    namespace: Arc<str>,
    set_size: usize,
    written_maps: Vec<String>,
    block_size: usize,
    scheme: Scheme,
}

/// Default [`PlanCache`] capacity: generous for production time loops
/// (an app reuses a handful of shapes) while bounding the block-size ×
/// scheme sweeps that used to grow the cache without limit.
pub const DEFAULT_PLAN_CAPACITY: usize = 64;

struct CacheEntry {
    plan: Arc<AnyPlan>,
    /// Tick of the most recent `get` returning this entry (LRU key).
    last_used: u64,
}

#[derive(Default)]
struct CacheInner {
    plans: HashMap<PlanKey, CacheEntry>,
    tick: u64,
    hits: usize,
    builds: usize,
}

/// Bounded cache of built plans. Cheap to clone handles out; `get`
/// builds at most once per *resident* key and evicts the
/// least-recently-used plan beyond the capacity (handles already cloned
/// out stay alive — eviction only drops the cache's reference).
///
/// A `PlanCache` value is itself a cheap handle onto shared storage:
/// cloning it (or deriving a [`scoped`](PlanCache::scoped) view) shares
/// the plans, the LRU state, and the hit/build counters. The service
/// layer leans on this to reuse one cache across thousands of
/// concurrent jobs.
#[derive(Clone)]
pub struct PlanCache {
    inner: Arc<Mutex<CacheInner>>,
    capacity: usize,
    namespace: Arc<str>,
}

impl Default for PlanCache {
    fn default() -> PlanCache {
        PlanCache::with_capacity(DEFAULT_PLAN_CAPACITY)
    }
}

impl PlanCache {
    /// Cache with the [default capacity](DEFAULT_PLAN_CAPACITY).
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// Cache holding at most `capacity` plans (min 1).
    pub fn with_capacity(capacity: usize) -> PlanCache {
        PlanCache {
            inner: Arc::new(Mutex::new(CacheInner::default())),
            capacity: capacity.max(1),
            namespace: Arc::from(""),
        }
    }

    /// A view onto the same cache whose keys live under `namespace`.
    ///
    /// The plan key covers the loop *shape* — set size, written-map
    /// names, block size, scheme — but not the map contents, which is
    /// sound while one process runs one mesh. A service multiplexing
    /// *different* meshes over one cache could collide two topologies
    /// that happen to share a set size and a map name ("edge2cell"
    /// says nothing about whose edges). Scoping the handle per mesh
    /// identity (e.g. `"airfoil:48x24"`) keeps sharing within a scope —
    /// every job of the same shape hits the same plans — while making
    /// cross-mesh collisions structurally impossible. Storage, LRU
    /// order, and the [`hits`](PlanCache::hits)/[`builds`](PlanCache::builds)
    /// counters remain shared across all views.
    ///
    /// ```
    /// use ump_core::PlanCache;
    ///
    /// let root = PlanCache::new();
    /// let a = root.scoped("airfoil:48x24");
    /// let b = root.scoped("volna:20x14");
    /// // same storage: counters visible from every handle
    /// assert_eq!(root.builds(), 0);
    /// drop((a, b));
    /// ```
    pub fn scoped(&self, namespace: &str) -> PlanCache {
        PlanCache {
            inner: Arc::clone(&self.inner),
            capacity: self.capacity,
            namespace: Arc::from(namespace),
        }
    }

    /// Fetch (building if needed) the plan for a loop shape.
    ///
    /// `written_map_names` must parallel `inputs.written_maps` — names are
    /// the cache key, tables the build input.
    pub fn get(
        &self,
        scheme: Scheme,
        written_map_names: &[&str],
        inputs: &PlanInputs<'_>,
    ) -> Arc<AnyPlan> {
        let key = PlanKey {
            namespace: Arc::clone(&self.namespace),
            set_size: inputs.n_elems,
            written_maps: written_map_names.iter().map(|s| s.to_string()).collect(),
            block_size: inputs.block_size,
            scheme,
        };
        {
            let mut inner = self.inner.lock();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.plans.get_mut(&key) {
                entry.last_used = tick;
                let plan = Arc::clone(&entry.plan);
                inner.hits += 1;
                return plan;
            }
        }
        // build outside the lock (plans can take a while on big meshes)
        let plan = Arc::new(match scheme {
            Scheme::TwoLevel => AnyPlan::TwoLevel(TwoLevelPlan::build(inputs)),
            Scheme::FullPermute => AnyPlan::Full(FullPermutePlan::build(inputs)),
            Scheme::BlockPermute => AnyPlan::Block(BlockPermutePlan::build(inputs)),
        });
        let mut inner = self.inner.lock();
        inner.builds += 1;
        inner.tick += 1;
        let tick = inner.tick;
        let out = {
            let entry = inner.plans.entry(key).or_insert_with(|| CacheEntry {
                plan,
                last_used: tick,
            });
            entry.last_used = tick;
            Arc::clone(&entry.plan)
        };
        // LRU eviction; the just-inserted entry carries the newest tick,
        // so it is never the victim.
        while inner.plans.len() > self.capacity {
            let victim = inner
                .plans
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("non-empty over-capacity cache");
            inner.plans.remove(&victim);
        }
        out
    }

    /// Number of plans actually built (cache-effectiveness metric).
    pub fn builds(&self) -> usize {
        self.inner.lock().builds
    }

    /// Number of `get` calls answered from the cache.
    pub fn hits(&self) -> usize {
        self.inner.lock().hits
    }

    /// Number of plans currently resident (≤ capacity).
    pub fn len(&self) -> usize {
        self.inner.lock().plans.len()
    }

    /// `true` when no plan is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ump_mesh::generators::quad_channel;

    #[test]
    fn cache_builds_once_per_shape() {
        let m = quad_channel(8, 8).mesh;
        let cache = PlanCache::new();
        let inputs = PlanInputs::new(m.n_edges(), vec![&m.edge2cell], 64);
        let a = cache.get(Scheme::TwoLevel, &["edge2cell"], &inputs);
        let b = cache.get(Scheme::TwoLevel, &["edge2cell"], &inputs);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.builds(), 1);
        // different block size -> different plan
        let inputs2 = PlanInputs::new(m.n_edges(), vec![&m.edge2cell], 128);
        let c = cache.get(Scheme::TwoLevel, &["edge2cell"], &inputs2);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.builds(), 2);
        // different scheme -> different plan
        cache.get(Scheme::FullPermute, &["edge2cell"], &inputs);
        assert_eq!(cache.builds(), 3);
    }

    #[test]
    fn hits_and_builds_counters() {
        let m = quad_channel(8, 8).mesh;
        let cache = PlanCache::new();
        let inputs = PlanInputs::new(m.n_edges(), vec![&m.edge2cell], 64);
        assert_eq!((cache.hits(), cache.builds()), (0, 0));
        cache.get(Scheme::TwoLevel, &["edge2cell"], &inputs);
        assert_eq!((cache.hits(), cache.builds()), (0, 1));
        cache.get(Scheme::TwoLevel, &["edge2cell"], &inputs);
        cache.get(Scheme::TwoLevel, &["edge2cell"], &inputs);
        assert_eq!((cache.hits(), cache.builds()), (2, 1));
    }

    #[test]
    fn lru_eviction_bounds_the_cache() {
        let m = quad_channel(8, 8).mesh;
        let cache = PlanCache::with_capacity(2);
        let inputs = |bs: usize| PlanInputs::new(m.n_edges(), vec![&m.edge2cell], bs);
        let a = cache.get(Scheme::TwoLevel, &["edge2cell"], &inputs(16));
        cache.get(Scheme::TwoLevel, &["edge2cell"], &inputs(32));
        assert_eq!(cache.len(), 2);
        // third shape evicts the least-recently-used (block 16)
        cache.get(Scheme::TwoLevel, &["edge2cell"], &inputs(64));
        assert_eq!((cache.len(), cache.builds()), (2, 3));
        // block 32 and 64 are resident: hits
        cache.get(Scheme::TwoLevel, &["edge2cell"], &inputs(32));
        cache.get(Scheme::TwoLevel, &["edge2cell"], &inputs(64));
        assert_eq!(cache.hits(), 2);
        // block 16 was evicted: rebuilt, and the evicted handle stays valid
        let a2 = cache.get(Scheme::TwoLevel, &["edge2cell"], &inputs(16));
        assert_eq!(cache.builds(), 4);
        assert!(!Arc::ptr_eq(&a, &a2));
        assert_eq!(a.two_level().blocks.len(), a2.two_level().blocks.len());
        // recency, not insertion order, picks the victim: touch 16 then
        // insert a fourth shape — 64 (least recent) must go, 16 stays
        cache.get(Scheme::TwoLevel, &["edge2cell"], &inputs(16));
        cache.get(Scheme::TwoLevel, &["edge2cell"], &inputs(128));
        let builds_before = cache.builds();
        cache.get(Scheme::TwoLevel, &["edge2cell"], &inputs(16));
        assert_eq!(cache.builds(), builds_before, "16 should still be resident");
    }

    #[test]
    fn scoped_views_share_storage_but_not_keys() {
        let m = quad_channel(8, 8).mesh;
        let root = PlanCache::new();
        let a = root.scoped("airfoil:8x8");
        let b = root.scoped("volna:8x8");
        let inputs = PlanInputs::new(m.n_edges(), vec![&m.edge2cell], 64);
        // identical shape in two scopes builds twice: no cross-mesh reuse
        let pa = a.get(Scheme::TwoLevel, &["edge2cell"], &inputs);
        let pb = b.get(Scheme::TwoLevel, &["edge2cell"], &inputs);
        assert!(!Arc::ptr_eq(&pa, &pb));
        assert_eq!((root.builds(), root.hits()), (2, 0));
        // within a scope (and across clones of it) the plan is shared
        let pa2 = a.clone().get(Scheme::TwoLevel, &["edge2cell"], &inputs);
        assert!(Arc::ptr_eq(&pa, &pa2));
        // counters are one surface, visible through every handle
        assert_eq!((b.builds(), b.hits()), (2, 1));
        assert_eq!(root.len(), 2);
    }

    #[test]
    fn accessors_match_scheme() {
        let m = quad_channel(4, 4).mesh;
        let cache = PlanCache::new();
        let inputs = PlanInputs::new(m.n_edges(), vec![&m.edge2cell], 16);
        assert!(matches!(
            &*cache.get(Scheme::BlockPermute, &["edge2cell"], &inputs),
            AnyPlan::Block(_)
        ));
        let p = cache.get(Scheme::TwoLevel, &["edge2cell"], &inputs);
        let _ = p.two_level();
    }

    #[test]
    #[should_panic(expected = "expected a two-level plan")]
    fn wrong_accessor_panics() {
        let m = quad_channel(4, 4).mesh;
        let cache = PlanCache::new();
        let inputs = PlanInputs::new(m.n_edges(), vec![&m.edge2cell], 16);
        let p = cache.get(Scheme::FullPermute, &["edge2cell"], &inputs);
        let _ = p.two_level();
    }
}
