//! Plan caching — OP2's `op_plan_get`.
//!
//! Coloring plans are expensive to build and depend only on the loop
//! *shape* (iteration set, written maps, block size), not on the data,
//! so OP2 computes them on first execution and reuses them across the
//! time loop. Same here. Every execution of the runtime runs on a
//! [`TwoLevelPlan`]; the paper's permute schemes (Fig. 8a) are edge
//! orders, not plans the cache holds.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use ump_color::{PlanInputs, TwoLevelPlan};

#[derive(Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    /// Scope of the handle that issued the `get` (see
    /// [`PlanCache::scoped`]); `""` for the root handle.
    namespace: Arc<str>,
    set_size: usize,
    written_maps: Vec<String>,
    block_size: usize,
}

/// Default [`PlanCache`] capacity: generous for production time loops
/// (an app reuses a handful of shapes) while bounding the block-size
/// sweeps that used to grow the cache without limit.
pub const DEFAULT_PLAN_CAPACITY: usize = 64;

struct CacheEntry {
    plan: Arc<TwoLevelPlan>,
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
    /// names, block size — but not the map contents, which is
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
    /// the cache key, tables the build input. Debug builds check every
    /// plan they build against `inputs` before it is cached, and panic
    /// with the validator's message if it fails.
    pub fn get(&self, written_map_names: &[&str], inputs: &PlanInputs<'_>) -> Arc<TwoLevelPlan> {
        let key = PlanKey {
            namespace: Arc::clone(&self.namespace),
            set_size: inputs.n_elems,
            written_maps: written_map_names.iter().map(|s| s.to_string()).collect(),
            block_size: inputs.block_size,
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
        let plan = Arc::new(admit(TwoLevelPlan::build(inputs), inputs));
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

/// `plan`, built from `inputs`, as the cache admits it: debug builds
/// check it against them first ([`TwoLevelPlan::validate`]), so a
/// coloring bug panics before any loop runs on the plan.
fn admit(plan: TwoLevelPlan, inputs: &PlanInputs<'_>) -> TwoLevelPlan {
    if cfg!(debug_assertions) {
        if let Err(msg) = plan.validate(inputs) {
            panic!("invalid plan for {} elements: {msg}", inputs.n_elems);
        }
    }
    plan
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
        let a = cache.get(&["edge2cell"], &inputs);
        let b = cache.get(&["edge2cell"], &inputs);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.builds(), 1);
        // different block size -> different plan
        let inputs2 = PlanInputs::new(m.n_edges(), vec![&m.edge2cell], 128);
        let c = cache.get(&["edge2cell"], &inputs2);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.builds(), 2);
    }

    #[test]
    fn hits_and_builds_counters() {
        let m = quad_channel(8, 8).mesh;
        let cache = PlanCache::new();
        let inputs = PlanInputs::new(m.n_edges(), vec![&m.edge2cell], 64);
        assert_eq!((cache.hits(), cache.builds()), (0, 0));
        cache.get(&["edge2cell"], &inputs);
        assert_eq!((cache.hits(), cache.builds()), (0, 1));
        cache.get(&["edge2cell"], &inputs);
        cache.get(&["edge2cell"], &inputs);
        assert_eq!((cache.hits(), cache.builds()), (2, 1));
    }

    #[test]
    fn lru_eviction_bounds_the_cache() {
        let m = quad_channel(8, 8).mesh;
        let cache = PlanCache::with_capacity(2);
        let inputs = |bs: usize| PlanInputs::new(m.n_edges(), vec![&m.edge2cell], bs);
        let a = cache.get(&["edge2cell"], &inputs(16));
        cache.get(&["edge2cell"], &inputs(32));
        assert_eq!(cache.len(), 2);
        // third shape evicts the least-recently-used (block 16)
        cache.get(&["edge2cell"], &inputs(64));
        assert_eq!((cache.len(), cache.builds()), (2, 3));
        // block 32 and 64 are resident: hits
        cache.get(&["edge2cell"], &inputs(32));
        cache.get(&["edge2cell"], &inputs(64));
        assert_eq!(cache.hits(), 2);
        // block 16 was evicted: rebuilt, and the evicted handle stays valid
        let a2 = cache.get(&["edge2cell"], &inputs(16));
        assert_eq!(cache.builds(), 4);
        assert!(!Arc::ptr_eq(&a, &a2));
        assert_eq!(a.blocks.len(), a2.blocks.len());
        // recency, not insertion order, picks the victim: touch 16 then
        // insert a fourth shape — 64 (least recent) must go, 16 stays
        cache.get(&["edge2cell"], &inputs(16));
        cache.get(&["edge2cell"], &inputs(128));
        let builds_before = cache.builds();
        cache.get(&["edge2cell"], &inputs(16));
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
        let pa = a.get(&["edge2cell"], &inputs);
        let pb = b.get(&["edge2cell"], &inputs);
        assert!(!Arc::ptr_eq(&pa, &pb));
        assert_eq!((root.builds(), root.hits()), (2, 0));
        // within a scope (and across clones of it) the plan is shared
        let pa2 = a.clone().get(&["edge2cell"], &inputs);
        assert!(Arc::ptr_eq(&pa, &pa2));
        // counters are one surface, visible through every handle
        assert_eq!((b.builds(), b.hits()), (2, 1));
        assert_eq!(root.len(), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "share target")]
    fn admission_rejects_a_corrupted_plan() {
        let m = quad_channel(4, 4).mesh;
        let inputs = PlanInputs::new(m.n_edges(), vec![&m.edge2cell], 16);
        let mut plan = TwoLevelPlan::build(&inputs);
        // every element in one color: neighbors in a block collide
        plan.elem_colors.iter_mut().for_each(|c| *c = 0);
        admit(plan, &inputs);
    }
}
