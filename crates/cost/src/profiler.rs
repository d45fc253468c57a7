//! The caching op profiler (paper §3).
//!
//! "Profiling is done once for each (partitioned) operation with the same
//! shape; the cached execution time can be subsequently reused." Our
//! measurements come from the analytical [`ComputeModel`] instead of real
//! kernel launches, but the cache structure — and the optimization-time
//! benefit it provides to the partition pass, which evaluates many
//! overlapping ranges — is the same.
//!
//! # Thread safety
//!
//! The partition pass prices candidate pipelines from a pool of worker
//! threads (see `lancet_core::partition_pass`), all sharing one profiler.
//! The cache therefore uses a read-mostly [`RwLock`]: after the first few
//! DP frontiers nearly every query is a hit, and hits take only the read
//! lock, so workers do not serialize on the cache. Hit/miss counters are
//! relaxed atomics — they feed reports, not synchronization.

use crate::ComputeModel;
use lancet_ir::{Op, Shape};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Cache statistics, for optimization-time accounting (paper Fig. 15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProfilerStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that had to run a (simulated) profile.
    pub misses: u64,
}

impl ProfilerStats {
    /// Hit ratio in `[0, 1]`; 1.0 when no queries were made.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Thread-safe memoizing profiler keyed on (operator, input shapes).
///
/// # Example
///
/// ```
/// use lancet_cost::{CachingOpProfiler, ClusterSpec, ComputeModel};
/// use lancet_ir::{Op, Shape};
///
/// let profiler = CachingOpProfiler::new(ComputeModel::new(ClusterSpec::a100(1).device));
/// let x = Shape::new(vec![128, 128]);
/// let op = Op::Relu;
/// let t1 = profiler.profile(&op, &[&x]).unwrap();
/// let t2 = profiler.profile(&op, &[&x]).unwrap();
/// assert_eq!(t1, t2);
/// assert_eq!(profiler.stats().hits, 1);
/// assert_eq!(profiler.stats().misses, 1);
/// ```
#[derive(Debug)]
pub struct CachingOpProfiler {
    model: ComputeModel,
    cache: RwLock<HashMap<Vec<u8>, f64>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CachingOpProfiler {
    /// Builds a profiler over the given compute model.
    pub fn new(model: ComputeModel) -> Self {
        CachingOpProfiler {
            model,
            cache: RwLock::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The underlying compute model.
    pub fn model(&self) -> &ComputeModel {
        &self.model
    }

    /// Execution time of `op` on inputs of the given shapes, memoized.
    ///
    /// # Errors
    ///
    /// Propagates [`lancet_ir::IrError`] if the op rejects the shapes.
    pub fn profile(&self, op: &Op, ins: &[&Shape]) -> lancet_ir::Result<f64> {
        KEY.with_borrow_mut(|key| {
            write_key(key, op, ins);
            if let Some(&t) = self.cache.read().expect("profiler cache poisoned").get(key.as_slice()) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(t);
            }
            let outs = op.infer_shapes(ins)?;
            let out_refs: Vec<&Shape> = outs.iter().collect();
            let t = self.model.op_time(op, ins, &out_refs);
            self.cache.write().expect("profiler cache poisoned").insert(key.clone(), t);
            self.misses.fetch_add(1, Ordering::Relaxed);
            Ok(t)
        })
    }

    /// Current cache statistics.
    pub fn stats(&self) -> ProfilerStats {
        ProfilerStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct (op, shapes) entries profiled.
    pub fn cache_size(&self) -> usize {
        self.cache.read().expect("profiler cache poisoned").len()
    }
}

thread_local! {
    /// The calling thread's key buffer: a hit allocates nothing, and only
    /// a miss copies the key into the cache.
    static KEY: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Writes the exact cache key of `(op, ins)` into `key`: the op's `Debug`
/// text (every attribute), a `0xff` byte (never part of UTF-8 text), then
/// each input's rank and extents as little-endian `u64`s. Distinct
/// queries give distinct keys.
fn write_key(key: &mut Vec<u8>, op: &Op, ins: &[&Shape]) {
    use std::io::Write as _;
    key.clear();
    write!(key, "{op:?}").expect("writing to a Vec cannot fail");
    key.push(0xff);
    for s in ins {
        key.extend_from_slice(&(s.rank() as u64).to_le_bytes());
        for &d in s.dims() {
            key.extend_from_slice(&(d as u64).to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterSpec;

    fn profiler() -> CachingOpProfiler {
        CachingOpProfiler::new(ComputeModel::new(ClusterSpec::v100(1).device))
    }

    #[test]
    fn caches_by_shape() {
        let p = profiler();
        let a = Shape::new(vec![64, 64]);
        let b = Shape::new(vec![128, 64]);
        let _ = p.profile(&Op::Relu, &[&a]).unwrap();
        let _ = p.profile(&Op::Relu, &[&a]).unwrap();
        let _ = p.profile(&Op::Relu, &[&b]).unwrap();
        assert_eq!(p.stats().hits, 1);
        assert_eq!(p.stats().misses, 2);
        assert_eq!(p.cache_size(), 2);
    }

    #[test]
    fn distinguishes_op_attributes() {
        let p = profiler();
        let x = Shape::new(vec![64, 64]);
        let w = Shape::new(vec![64, 64]);
        let _ = p.profile(&Op::MatMul { transpose_b: false }, &[&x, &w]).unwrap();
        let _ = p.profile(&Op::MatMul { transpose_b: true }, &[&x, &w]).unwrap();
        assert_eq!(p.stats().misses, 2);
    }

    #[test]
    fn propagates_shape_errors() {
        let p = profiler();
        let x = Shape::new(vec![64, 32]);
        let w = Shape::new(vec![64, 64]);
        assert!(p.profile(&Op::MatMul { transpose_b: false }, &[&x, &w]).is_err());
    }

    #[test]
    fn hit_ratio_empty_is_one() {
        assert_eq!(profiler().stats().hit_ratio(), 1.0);
    }

    #[test]
    fn concurrent_queries_agree() {
        let p = profiler();
        let shape = Shape::new(vec![96, 96]);
        let times: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| p.profile(&Op::Gelu, &[&shape]).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(times.windows(2).all(|w| w[0] == w[1]));
        let stats = p.stats();
        assert_eq!(stats.hits + stats.misses, 8);
        assert_eq!(p.cache_size(), 1);
    }
}
