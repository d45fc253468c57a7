//! The plan cache: optimized serving plans keyed by model, batch bucket,
//! and cluster configuration.
//!
//! Plan construction is the expensive end of the serving pipeline (graph
//! build + partition search + cost estimation — the same work as a cold
//! [`Lancet::optimize`]); execution of a cached plan is cheap. The cache
//! therefore sits on the request hot path and keeps hit/miss/evict
//! counters in the style of `PartitionMemo`, so its effectiveness is an
//! observable quantity (`ServeStats::cache`) rather than a guess.
//!
//! Eviction is least-recently-used over a small bounded set: serving
//! traffic concentrates on a handful of (model, bucket) combinations, so
//! a linear-scan LRU is both simple and exact.
//!
//! [`Lancet::optimize`]: lancet_core::Lancet::optimize

use crate::plan::{Plan, PlanKey};
use crate::{Result, ServeError};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

/// Point-in-time cache effectiveness counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered by a cached plan.
    pub hits: u64,
    /// Lookups that required building a plan.
    pub misses: u64,
    /// Plans evicted to respect the capacity bound.
    pub evictions: u64,
    /// Plans currently resident.
    pub len: usize,
    /// Bytes of the distinct prepacked weight panel buffers that
    /// resident plans hold (the memory cost of skipping per-call GEMM
    /// packing). Plans of one model share its pack set, so a buffer held
    /// by several plans counts once, and evicting a plan frees nothing
    /// while another plan still holds its panels.
    pub packed_bytes: u64,
}

impl CacheStats {
    /// Fraction of lookups answered from cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct Inner {
    /// Most-recently-used last.
    entries: Vec<(PlanKey, Arc<Plan>)>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A bounded, thread-safe LRU cache of [`Plan`]s.
#[derive(Debug)]
pub struct PlanCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl PlanCache {
    /// An empty cache holding at most `capacity` plans.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` (a cache that can hold nothing would
    /// turn every request into a cold optimization).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "plan cache needs capacity for at least one plan");
        PlanCache {
            inner: Mutex::new(Inner { entries: Vec::new(), hits: 0, misses: 0, evictions: 0 }),
            capacity,
        }
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up `key`, counting a hit (and refreshing recency) or a miss.
    pub fn get(&self, key: &PlanKey) -> Option<Arc<Plan>> {
        let mut inner = self.inner.lock().expect("plan cache lock");
        match inner.entries.iter().position(|(k, _)| k == key) {
            Some(at) => {
                inner.hits += 1;
                let entry = inner.entries.remove(at);
                let plan = Arc::clone(&entry.1);
                inner.entries.push(entry);
                Some(plan)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Inserts `plan` under `key`, evicting the least-recently-used entry
    /// if the cache is full. Returns the resident plan for `key` — the
    /// existing one if another thread won an insert race, otherwise the
    /// one just inserted (so concurrent callers always converge on one
    /// pointer-identical plan per key).
    pub fn insert(&self, key: PlanKey, plan: Plan) -> Arc<Plan> {
        self.insert_arc(key, Arc::new(plan))
    }

    fn insert_arc(&self, key: PlanKey, plan: Arc<Plan>) -> Arc<Plan> {
        let mut inner = self.inner.lock().expect("plan cache lock");
        if let Some(at) = inner.entries.iter().position(|(k, _)| k == &key) {
            // Lost an insert race: keep the incumbent so every caller
            // holding this key sees the same Arc.
            let entry = inner.entries.remove(at);
            let resident = Arc::clone(&entry.1);
            inner.entries.push(entry);
            return resident;
        }
        if inner.entries.len() == self.capacity {
            inner.entries.remove(0);
            inner.evictions += 1;
        }
        inner.entries.push((key, Arc::clone(&plan)));
        plan
    }

    /// Looks up `key`; on a miss, builds a plan with `build` (outside the
    /// cache lock, so other keys stay servable during a long build) and
    /// inserts it. Concurrent misses on the same key may build twice, but
    /// all callers receive the same resident plan.
    ///
    /// # Errors
    ///
    /// Propagates the builder's error; nothing is inserted on failure.
    pub fn get_or_insert_with<F>(&self, key: &PlanKey, build: F) -> Result<Arc<Plan>>
    where
        F: FnOnce() -> std::result::Result<Plan, ServeError>,
    {
        if let Some(plan) = self.get(key) {
            return Ok(plan);
        }
        let plan = build()?;
        Ok(self.insert_arc(key.clone(), Arc::new(plan)))
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("plan cache lock");
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            len: inner.entries.len(),
            packed_bytes: distinct_panel_bytes(inner.entries.iter().map(|(_, p)| p.as_ref())),
        }
    }

    /// Resident plan count.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("plan cache lock").entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The resident keys, least-recently-used first (for debugging and
    /// tests; order is the eviction order).
    pub fn keys(&self) -> Vec<PlanKey> {
        self.inner.lock().expect("plan cache lock").entries.iter().map(|(k, _)| k.clone()).collect()
    }
}

/// Bytes of the distinct panel buffers `plans` hold, each counted once
/// however many plans, devices or weights share it (identity is the
/// buffer's `Arc`).
fn distinct_panel_bytes<'a>(plans: impl Iterator<Item = &'a Plan>) -> u64 {
    let mut seen = HashSet::new();
    plans
        .flat_map(|p| p.weights().packs())
        .filter(|(_, _, pack)| seen.insert(Arc::as_ptr(pack)))
        .map(|(_, _, pack)| pack.bytes())
        .sum()
}
