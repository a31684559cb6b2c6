//! The compiled-plan cache.
//!
//! Plan compilation (symmetry breaking, cost-model search) is the
//! expensive, per-pattern part of admission; repeat submissions of the
//! same pattern *class* — any relabeling or automorphic image — should
//! skip it. The cache keys on the automorphism-canonical form
//! ([`benu_pattern::canonical`]): entries are looked up by canonical
//! hash and verified against the canonical [`Pattern`] itself, so a
//! hash collision degrades to a miss, never to a wrong plan.
//!
//! Cached plans are compiled for the *canonical* vertex numbering; the
//! per-submission `placement` returned alongside a lookup maps
//! canonical embeddings back to the submitted numbering.

use benu_engine::CompiledPlan;
use benu_pattern::canonical::fingerprint;
use benu_pattern::{Pattern, PatternVertex};
use benu_plan::{ExecutionPlan, PlanBuilder};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// One cached compilation: the canonical pattern it belongs to, the
/// chosen execution plan, and its compiled form shared by every worker
/// executing the query.
#[derive(Debug)]
pub struct CachedPlan {
    /// The canonical pattern this plan was compiled for.
    pub canonical: Pattern,
    /// The best execution plan found for the canonical pattern.
    pub plan: ExecutionPlan,
    /// The compiled register machine workers interpret.
    pub compiled: CompiledPlan,
}

/// Cache counters (monotonic over the cache's lifetime).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that compiled fresh.
    pub misses: u64,
    /// Entries displaced by the LRU policy.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// An LRU cache of compiled plans keyed by canonical pattern form.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    /// LRU order: least recently used at the front. Linear scan — the
    /// cache holds tens of entries, not thousands.
    entries: Mutex<Vec<(u64, Arc<CachedPlan>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl PlanCache {
    /// An empty cache holding at most `capacity` plans (0 disables
    /// caching — every lookup compiles).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity,
            entries: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The LRU list, whatever a thread that unwound holding its lock left
    /// of it: every update is one `remove` or `push` of a shared plan.
    fn entries(&self) -> MutexGuard<'_, Vec<(u64, Arc<CachedPlan>)>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Resolves `pattern` to a compiled plan: canonicalise, look up by
    /// canonical hash (verified against the canonical form), compile on
    /// a miss. Returns the shared plan, the placement mapping canonical
    /// positions to `pattern`'s vertices, and whether this was a hit.
    pub fn get_or_compile(
        &self,
        pattern: &Pattern,
        graph_vertices: usize,
        graph_edges: usize,
    ) -> (Arc<CachedPlan>, Vec<PatternVertex>, bool) {
        let form = pattern.canonical_form();
        let hash = fingerprint(&form.pattern);
        let mut entries = self.entries();
        if let Some(pos) = entries
            .iter()
            .position(|(h, e)| *h == hash && e.canonical == form.pattern)
        {
            let entry = entries.remove(pos);
            let plan = Arc::clone(&entry.1);
            entries.push(entry);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (plan, form.placement, true);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let plan = PlanBuilder::new(&form.pattern)
            .graph_stats(graph_vertices, graph_edges)
            .best_plan();
        let compiled = CompiledPlan::compile(&plan);
        let cached = Arc::new(CachedPlan {
            canonical: form.pattern,
            plan,
            compiled,
        });
        if self.capacity > 0 {
            if entries.len() >= self.capacity {
                entries.remove(0);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
            entries.push((hash, Arc::clone(&cached)));
        }
        (cached, form.placement, false)
    }

    /// Replaces (or inserts) the cached compilation of `canonical`'s
    /// pattern class with a freshly compiled `plan` — the
    /// feedback-replanning hook. Subsequent lookups of any pattern in
    /// the class hit the new entry; the returned compilation also serves
    /// the replacing submission directly.
    pub fn replace(&self, canonical: Pattern, plan: ExecutionPlan) -> Arc<CachedPlan> {
        let hash = fingerprint(&canonical);
        let compiled = CompiledPlan::compile(&plan);
        let cached = Arc::new(CachedPlan {
            canonical,
            plan,
            compiled,
        });
        let mut entries = self.entries();
        if let Some(pos) = entries
            .iter()
            .position(|(h, e)| *h == hash && e.canonical == cached.canonical)
        {
            entries.remove(pos);
            entries.push((hash, Arc::clone(&cached)));
        } else if self.capacity > 0 {
            if entries.len() >= self.capacity {
                entries.remove(0);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
            entries.push((hash, Arc::clone(&cached)));
        }
        cached
    }

    /// Current counters.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.entries().len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use benu_pattern::queries;

    fn lookup(cache: &PlanCache, p: &Pattern) -> bool {
        cache.get_or_compile(p, 100, 400).2
    }

    #[test]
    fn isomorphic_submissions_hit_one_entry() {
        let cache = PlanCache::new(8);
        assert!(!lookup(&cache, &queries::square()), "first compile");
        // A relabeled square must hit the same entry.
        let relabeled = Pattern::from_edges(4, &[(0, 2), (2, 1), (1, 3), (3, 0)]);
        assert!(lookup(&cache, &relabeled), "relabeling must hit");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = PlanCache::new(2);
        lookup(&cache, &queries::triangle());
        lookup(&cache, &queries::square());
        lookup(&cache, &queries::triangle()); // triangle now most recent
        lookup(&cache, &queries::path(4)); // evicts square
        assert!(lookup(&cache, &queries::triangle()), "survivor stays");
        assert!(!lookup(&cache, &queries::square()), "evictee recompiles");
        assert_eq!(
            cache.stats().evictions,
            2,
            "path evicted square, square evicted path(4)"
        );
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = PlanCache::new(0);
        lookup(&cache, &queries::triangle());
        assert!(!lookup(&cache, &queries::triangle()));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 0));
    }

    #[test]
    fn cached_plans_are_usable_counts() {
        // The cached compilation must count like a fresh one.
        let g = benu_graph::gen::complete(6);
        let cache = PlanCache::new(4);
        let (cached, placement, _) =
            cache.get_or_compile(&queries::triangle(), g.num_vertices(), g.num_edges());
        assert_eq!(placement.len(), 3);
        assert_eq!(benu_engine::count_embeddings(&cached.plan, &g), 20);
    }
}
