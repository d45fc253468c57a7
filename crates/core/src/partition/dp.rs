//! Dynamic-programming partition-range selection (paper §5.1).
//!
//! # The search
//!
//! `T(n) = min_{i,k} { T(i) + P(i, n, k) }` over instruction *groups*:
//! consecutive non-MoE instructions are coalesced into time-balanced
//! groups (the paper's group-size knob γ), MoE-related instructions stay
//! atomic so candidate ranges can align exactly with pipeline boundaries.
//! `P(i, n, k > 1)` is evaluated by materializing the candidate pipeline
//! (axis inference + codegen) and pricing it with the estimator's
//! two-stream sweep — the pipeline scheduler of paper §5.3. The plain
//! `P(i, n, 1)` is the same sweep over the range's own instruction times.
//!
//! # The search engine
//!
//! The paper reports this search dominating Lancet's compile time
//! (Fig. 15), and mitigates it with a cached profiler. This module goes
//! further, in two independent ways:
//!
//! * **Parallel candidate evaluation.** For a DP frontier `j`, the
//!   candidate costs `P(i, n, k)` for different `i` are independent: each
//!   builds its own scratch segment graph, so the frontier's candidates
//!   are priced concurrently by a small [`std::thread::scope`] worker
//!   pool ([`PartitionOptions::workers`]). Determinism is preserved
//!   because pricing is pure and the min-reduction happens sequentially
//!   in ascending `(i, k)` order — the parallel search selects exactly
//!   the ranges the sequential search selects, enforced by tests.
//! * **Structural memoization.** A [`PartitionMemo`] caches `P` by a
//!   content hash of the candidate segment (ops, shapes, boundary
//!   tensor kinds and escapes), the partition count `k`, and the device
//!   configuration — *not* by instruction positions. Transformer layers
//!   repeat, so the evaluations of layer 1 answer layers 2..L across DP
//!   frontiers, and — when the memo is shared via
//!   [`partition_pass_with`], as [`crate::Lancet`] does — across
//!   repeated `optimize` calls (ablation sweeps, figure regeneration).
//!
//! # Facts indexed once per pass
//!
//! A pass prices thousands of candidates (6,729 for GPT2-S-MoE on 16
//! V100s), so a candidate must cost O(its segment), never O(graph). Every
//! graph-wide fact pricing reads — each tensor's producer and last use,
//! each instruction's content hash and estimated time — is computed once
//! per [`partition_pass_with`] call into a `PassIndex`, shared read-only
//! by the workers. A candidate range infers its axes and builds its
//! segment graph at most once, shared by all its `k`. `scripts/verify.sh`
//! fails when candidate code calls `user_positions()` or
//! `producer_positions()`.

use super::axis::{infer_axes_in, last_uses};
use crate::estimate::sweep;
use crate::partition::{apply_partitions, AxisSolution, PartitionSpec};
use crate::{EstimateReport, TimeEstimator};
use lancet_ir::{Graph, Instr, Op, Result, TensorId, TensorKind};
use std::cell::OnceCell;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::RwLock;

/// Hyper-parameters of the partition pass (paper §6: ρ, γ, ι) plus the
/// search-engine knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionOptions {
    /// ρ — maximum number of partitions per range (paper default 8).
    pub max_partitions: usize,
    /// γ-equivalent — number of groups each non-MoE instruction run is
    /// split into (paper: "5 groups between each MoE layer").
    pub groups_per_gap: usize,
    /// ι — maximum partition-range length, in groups. `0` means 1: every
    /// group must stay priceable on its own, or the DP has no path.
    pub max_range_groups: usize,
    /// Worker threads pricing DP candidates concurrently. `0` defers to
    /// `LANCET_WORKERS` when set, else the machine's available
    /// parallelism (capped at 8) — the same resolution the tensor
    /// backend's thread pool uses, so one env var governs both. `1` runs
    /// the search sequentially on the calling thread. Any value produces
    /// bit-identical results — see the module docs.
    pub workers: usize,
    /// Whether to reuse structurally identical `P(i, n, k)` evaluations
    /// through the [`PartitionMemo`]. Disable only to benchmark the
    /// unmemoized search (e.g. `fig15_opt_time`).
    pub memoize: bool,
}

/// Multiplier on per-chunk compute overhead charged for the (equally
/// chunked) backward pass when the DP prices a candidate partition.
const BACKWARD_CHUNK_FACTOR: f64 = 2.0;

impl Default for PartitionOptions {
    fn default() -> Self {
        PartitionOptions {
            max_partitions: 8,
            groups_per_gap: 5,
            max_range_groups: 24,
            workers: 0,
            memoize: true,
        }
    }
}

impl PartitionOptions {
    /// The worker count `workers` resolves to on this machine:
    /// `LANCET_WORKERS` / available parallelism for `0`, via the shared
    /// resolution in [`lancet_tensor::pool`].
    pub fn effective_workers(&self) -> usize {
        lancet_tensor::pool::resolve_workers(self.workers)
    }
}

/// Outcome of the partition pass.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionReport {
    /// Chosen ranges (source-graph instruction positions) and partition
    /// counts.
    pub ranges: Vec<(Range<usize>, usize)>,
    /// DP-estimated execution time of the partitioned forward region.
    pub estimated_forward_time: f64,
    /// DP-estimated time of the unpartitioned forward region (baseline).
    pub unpartitioned_forward_time: f64,
    /// Number of `P(i, n, k)` pricings the DP requested (cached or not).
    pub evaluations: usize,
    /// Pricings answered by the structural memo table.
    pub memo_hits: usize,
    /// Pricings that had to materialize and estimate a pipeline.
    pub memo_misses: usize,
    /// Worker threads the search ran with.
    pub workers: usize,
}

impl PartitionReport {
    /// Fraction of pricings answered from the memo, in `[0, 1]`.
    pub fn memo_hit_ratio(&self) -> f64 {
        let total = self.memo_hits + self.memo_misses;
        if total == 0 {
            0.0
        } else {
            self.memo_hits as f64 / total as f64
        }
    }
}

/// Structural cache of `P(i, n, k)` evaluations, shareable across
/// [`partition_pass_with`] calls (and threads).
///
/// Keys are content hashes of the candidate segment — see the module
/// docs. The value is `None` when the segment admits no `k`-way
/// partition (axis inference or codegen rejected it), so infeasibility
/// is remembered too.
#[derive(Debug, Default)]
pub struct PartitionMemo {
    table: RwLock<HashMap<u64, Option<EstimateReport>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl PartitionMemo {
    /// An empty memo table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached evaluations.
    pub fn len(&self) -> usize {
        self.table.read().expect("memo poisoned").len()
    }

    /// Whether the memo holds no entries yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime (hits, misses) over all passes sharing this memo.
    pub fn stats(&self) -> (usize, usize) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }

    /// Looks up `key`, or computes, records, and returns it via `eval`.
    /// The boolean is `true` on a cache hit.
    fn get_or_eval(
        &self,
        key: u64,
        eval: impl FnOnce() -> Result<Option<EstimateReport>>,
    ) -> Result<(Option<EstimateReport>, bool)> {
        if let Some(&cached) = self.table.read().expect("memo poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((cached, true));
        }
        let value = eval()?;
        self.table.write().expect("memo poisoned").insert(key, value);
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok((value, false))
    }
}

/// Runs the partition pass on a *forward* graph (apply before autodiff;
/// see crate docs) and returns the rewritten graph plus a report.
///
/// Uses a fresh [`PartitionMemo`], so memoization helps only within this
/// one search; use [`partition_pass_with`] (as [`crate::Lancet`] does) to
/// reuse evaluations across calls.
///
/// # Errors
///
/// Propagates estimator/codegen failures. A graph with no all-to-all in
/// its forward region is returned unchanged.
///
/// # Example
///
/// ```no_run
/// use lancet_core::{partition_pass, Lancet, LancetOptions, PartitionOptions};
/// use lancet_cost::ClusterSpec;
/// use lancet_ir::GateKind;
/// use lancet_models::{build_forward, GptMoeConfig};
///
/// let cfg = GptMoeConfig::gpt2_s_moe(16, GateKind::Switch);
/// let forward = build_forward(&cfg)?.graph;
/// let lancet = Lancet::new(ClusterSpec::v100(2), 16, LancetOptions::default());
/// let (pipelined, report) =
///     partition_pass(&forward, lancet.estimator(), &PartitionOptions::default())?;
/// println!("{} ranges pipelined", report.ranges.len());
/// # let _ = pipelined;
/// # Ok::<(), lancet_ir::IrError>(())
/// ```
pub fn partition_pass(
    graph: &Graph,
    estimator: &TimeEstimator,
    opts: &PartitionOptions,
) -> Result<(Graph, PartitionReport)> {
    partition_pass_with(graph, estimator, opts, &PartitionMemo::new())
}

/// One DP candidate-evaluation unit: every `(i, k)` sharing a range
/// start `i` at the current frontier (the plain estimate is shared by
/// all its partition counts).
struct CandidateTask {
    i: usize,
    prange: Range<usize>,
}

/// Priced candidate costs for one task, in ascending `k` order.
struct CandidateCosts {
    i: usize,
    /// `(k, DP cost)` for every feasible candidate.
    costs: Vec<(usize, f64)>,
    requested: usize,
    hits: usize,
    misses: usize,
}

/// [`partition_pass`] with a caller-provided memo table, so structurally
/// repeated evaluations are shared across searches.
///
/// # Errors
///
/// Propagates estimator/codegen failures.
pub fn partition_pass_with(
    graph: &Graph,
    estimator: &TimeEstimator,
    opts: &PartitionOptions,
    memo: &PartitionMemo,
) -> Result<(Graph, PartitionReport)> {
    let index = PassIndex::new(graph, estimator)?;
    let groups = build_groups(graph, &index.times, opts.groups_per_gap);
    let n = groups.len();
    let max_range_groups = opts.max_range_groups.max(1);
    let workers = opts.effective_workers().max(1);

    // Candidate partition counts: 1 plus powers of two up to ρ.
    let mut ks = vec![1usize];
    let mut k = 2;
    while k <= opts.max_partitions {
        ks.push(k);
        k *= 2;
    }

    // Fingerprint of the pricing context: estimates depend on the device
    // and collective models, so memo entries must not leak across
    // clusters when a memo is shared that widely.
    let device_fp = {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        format!("{:?}", estimator.profiler().model()).hash(&mut h);
        estimator.gpus().hash(&mut h);
        h.finish()
    };
    // `memoize: false` prices every candidate directly — the pre-engine
    // behavior, kept as the measurable baseline for `fig15_opt_time`.
    let memo = opts.memoize.then_some(memo);

    let mut evaluations = 0usize;
    let mut memo_hits = 0usize;
    let mut memo_misses = 0usize;
    let mut t = vec![f64::INFINITY; n + 1];
    t[0] = 0.0;
    let mut parent: Vec<Option<(usize, usize)>> = vec![None; n + 1];

    for j in 1..=n {
        let lo = j.saturating_sub(max_range_groups);
        let tasks: Vec<CandidateTask> = (lo..j)
            .map(|i| CandidateTask { i, prange: groups[i].start..groups[j - 1].end })
            .collect();
        let priced = price_frontier(&index, estimator, memo, device_fp, &ks, tasks, workers)?;

        // Sequential min-reduction in ascending (i, k) order with a
        // strict `<`: ties resolve to the lowest (i, k), independent of
        // how many workers priced the candidates.
        for cand in priced {
            evaluations += cand.requested;
            memo_hits += cand.hits;
            memo_misses += cand.misses;
            for &(k, cost) in &cand.costs {
                if t[cand.i] + cost < t[j] {
                    t[j] = t[cand.i] + cost;
                    parent[j] = Some((cand.i, k));
                }
            }
        }
    }

    // Reconstruct chosen ranges.
    let mut chosen: Vec<(Range<usize>, usize)> = Vec::new();
    let mut j = n;
    while j > 0 {
        let (i, k) = parent[j].expect("dp table is connected");
        if k > 1 {
            chosen.push((groups[i].start..groups[j - 1].end, k));
        }
        j = i;
    }
    chosen.reverse();

    // Baseline: the whole forward region priced unpartitioned.
    let unpartitioned = if n > 0 {
        price_plain(&index, estimator, groups[0].start..groups[n - 1].end)?.total
    } else {
        0.0
    };

    let specs: Vec<PartitionSpec> = chosen
        .iter()
        .map(|(range, k)| {
            let axes = infer_axes_in(graph, range.clone(), &index.last_use)
                .expect("range was validated during DP evaluation");
            PartitionSpec { range: range.clone(), parts: *k, axes }
        })
        .collect();
    let new_graph = if specs.is_empty() { graph.clone() } else { apply_partitions(graph, &specs)? };

    Ok((
        new_graph,
        PartitionReport {
            ranges: chosen,
            estimated_forward_time: t[n],
            unpartitioned_forward_time: unpartitioned,
            evaluations,
            memo_hits,
            memo_misses,
            workers,
        },
    ))
}

/// Prices every candidate task of one DP frontier, fanning the tasks out
/// over `workers` scoped threads (or inline when 1 suffices). Results
/// come back in task order; the first evaluation error (in task order)
/// is propagated.
fn price_frontier(
    index: &PassIndex,
    estimator: &TimeEstimator,
    memo: Option<&PartitionMemo>,
    device_fp: u64,
    ks: &[usize],
    tasks: Vec<CandidateTask>,
    workers: usize,
) -> Result<Vec<CandidateCosts>> {
    let price = |task: &CandidateTask| price_candidates(index, estimator, memo, device_fp, ks, task);
    let mut results: Vec<Option<Result<CandidateCosts>>> = Vec::new();
    if workers <= 1 || tasks.len() <= 1 {
        results.extend(tasks.iter().map(|t| Some(price(t))));
    } else {
        results.resize_with(tasks.len(), || None);
        let chunk = tasks.len().div_ceil(workers);
        let price = &price;
        std::thread::scope(|scope| {
            for (task_chunk, slot_chunk) in tasks.chunks(chunk).zip(results.chunks_mut(chunk)) {
                scope.spawn(move || {
                    for (slot, task) in slot_chunk.iter_mut().zip(task_chunk) {
                        *slot = Some(price(task));
                    }
                });
            }
        });
    }
    results
        .into_iter()
        .map(|slot| slot.expect("every task chunk was priced"))
        .collect()
}

/// Prices `P(i, n, k)` for every `k` of one candidate range, through the
/// memo. Infeasible `k` are omitted from the result. The range's segment
/// graph and axes are built on first use and shared by every `k`.
fn price_candidates(
    index: &PassIndex,
    estimator: &TimeEstimator,
    memo: Option<&PartitionMemo>,
    device_fp: u64,
    ks: &[usize],
    task: &CandidateTask,
) -> Result<CandidateCosts> {
    let graph = index.graph;
    let prange = task.prange.clone();
    // Fingerprinting costs a span walk; the unmemoized baseline skips it.
    let span_fp = memo.map(|_| segment_fingerprint(index, &prange, device_fp)).unwrap_or(0);
    let mut out = CandidateCosts { i: task.i, costs: Vec::new(), requested: 0, hits: 0, misses: 0 };
    let mut lookup = |k: usize, eval: &dyn Fn() -> Result<Option<EstimateReport>>| {
        out.requested += 1;
        let Some(memo) = memo else {
            out.misses += 1;
            return eval();
        };
        let key = {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            span_fp.hash(&mut h);
            k.hash(&mut h);
            h.finish()
        };
        let (value, hit) = memo.get_or_eval(key, eval)?;
        if hit {
            out.hits += 1;
        } else {
            out.misses += 1;
        }
        Ok::<_, lancet_ir::IrError>(value)
    };

    let plain = lookup(1, &|| price_plain(index, estimator, prange.clone()).map(Some))?
        .expect("plain estimate is always feasible");
    out.costs.push((1, plain.total));

    // Partitioning a segment without an all-to-all can only add
    // overhead; skip those evaluations entirely.
    if segment_has_a2a(graph, &prange) {
        // The isolated segment and its axes, built on the first partitioned
        // miss and shared by every `k`. Axes are inferred on the *original*
        // graph, so boundary constraints include consumers outside the
        // segment, then mapped into the segment for codegen and pricing.
        let pipeline = OnceCell::new();
        let pipeline = || {
            pipeline.get_or_init(|| {
                let sol = infer_axes_in(graph, prange.clone(), &index.last_use)?;
                let (seg, remap) = segment_graph(graph, prange.clone()).ok()?;
                let axes = sol.axes.iter().filter_map(|(t, &a)| remap.get(t).map(|&n| (n, a)));
                Some((seg, AxisSolution { axes: axes.collect() }))
            })
        };
        for &k in ks.iter().filter(|&&k| k > 1) {
            let part = lookup(k, &|| {
                let pipeline = pipeline().as_ref();
                Ok(pipeline.and_then(|(seg, axes)| evaluate_partitioned(estimator, seg, axes, k)))
            })?;
            if let Some(part) = part {
                // The backward of a partitioned forward is chunked the
                // same way (autodiff runs after this pass) and pays
                // roughly twice the forward's per-chunk overhead (dX and
                // dW), without the forward pipeline's overlap guarantee.
                // Charge it so the DP does not over-partition (paper
                // Fig. 6's tradeoff, extended to the whole iteration).
                let chunk_overhead = (part.compute_busy - plain.compute_busy).max(0.0);
                out.costs.push((k, part.total + BACKWARD_CHUNK_FACTOR * chunk_overhead));
            }
        }
    }
    Ok(out)
}

/// Graph-wide facts candidate pricing needs, indexed once per
/// [`partition_pass_with`] call so that pricing a candidate costs
/// O(its segment), not O(graph).
struct PassIndex<'g> {
    graph: &'g Graph,
    /// Each tensor's last consumer position (see `last_uses`).
    last_use: Vec<usize>,
    /// Each tensor's producer position, by tensor id; `usize::MAX` for
    /// graph inputs and weights.
    producer: Vec<usize>,
    /// Per-instruction content hash: the op with its attributes, the
    /// role, every input's shape and kind, and every output's shape.
    instr_hash: Vec<u64>,
    /// Estimated time of every instruction of the forward region (up to
    /// the loss, see [`forward_end`]), in the whole graph's context.
    times: Vec<f64>,
}

impl<'g> PassIndex<'g> {
    fn new(graph: &'g Graph, estimator: &TimeEstimator) -> Result<Self> {
        let mut producer = vec![usize::MAX; graph.tensors().len()];
        for (pos, instr) in graph.instrs().iter().enumerate() {
            for &o in &instr.outputs {
                producer[o.0 as usize] = pos;
            }
        }
        let lookup = |t: TensorId| Some(producer[t.0 as usize]).filter(|&p| p != usize::MAX);
        let times = (0..forward_end(graph))
            .map(|pos| estimator.time_at(graph, pos, lookup))
            .collect::<Result<_>>()?;
        let instr_hash = graph
            .instrs()
            .iter()
            .map(|instr| {
                let mut h = std::collections::hash_map::DefaultHasher::new();
                format!("{:?}", instr.op).hash(&mut h);
                instr.role.hash(&mut h);
                for &t in &instr.inputs {
                    let def = graph.tensor(t);
                    def.shape.dims().hash(&mut h);
                    def.kind.hash(&mut h);
                }
                for &t in &instr.outputs {
                    graph.tensor(t).shape.dims().hash(&mut h);
                }
                h.finish()
            })
            .collect();
        Ok(PassIndex { graph, last_use: last_uses(graph), producer, instr_hash, times })
    }
}

/// Prices a plain (`k = 1`) candidate: the sweep over the range's
/// per-pass instruction times, boundary inputs ready at 0 — exactly what
/// `estimate` returns for the range's segment graph, without building
/// it. The one context-dependent time, an irregular all-to-all's, is
/// re-priced as its segment sees it: a counts chain that leaves the range
/// ends there.
fn price_plain(
    index: &PassIndex,
    estimator: &TimeEstimator,
    range: Range<usize>,
) -> Result<EstimateReport> {
    let graph = index.graph;
    let instrs = &graph.instrs()[range.clone()];
    sweep(instrs, |i| {
        let pos = range.start + i;
        match instrs[i].op {
            Op::AllToAllIrr => estimator.time_at(graph, pos, |t| {
                Some(index.producer[t.0 as usize]).filter(|p| range.contains(p))
            }),
            _ => Ok(index.times[pos]),
        }
    })
}

/// Content hash of a candidate segment: everything `P(i, n, k)` depends
/// on besides `k` — each instruction's content hash (ops, shapes,
/// boundary-tensor kinds), the local dataflow between them, which outputs
/// escape the range, and the pricing context (device fingerprint).
/// Instruction *positions* are deliberately excluded so structurally
/// repeated layers share entries.
fn segment_fingerprint(index: &PassIndex, range: &Range<usize>, device_fp: u64) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    device_fp.hash(&mut h);
    // Stable local ids for produced tensors so dataflow (not raw tensor
    // ids) is hashed.
    let mut local: HashMap<TensorId, usize> = HashMap::new();
    let instrs = index.graph.instrs()[range.clone()].iter();
    for (instr, &instr_hash) in instrs.zip(&index.instr_hash[range.clone()]) {
        instr_hash.hash(&mut h);
        for &t in &instr.inputs {
            match local.get(&t) {
                Some(&id) => (0u8, id).hash(&mut h),
                None => 1u8.hash(&mut h), // boundary input
            }
        }
        for &t in &instr.outputs {
            let id = local.len();
            local.insert(t, id);
            // Whether this output escapes the range constrains axis
            // inference (boundary tensors must stay sliceable).
            (index.last_use[t.0 as usize] >= range.end).hash(&mut h);
        }
    }
    h.finish()
}

/// Position one past the last partitionable forward instruction (the
/// loss instruction, or the end of the program for forward-only graphs).
fn forward_end(graph: &Graph) -> usize {
    graph
        .instrs()
        .iter()
        .position(|i| matches!(i.op, Op::CrossEntropy))
        .unwrap_or(graph.instrs().len())
}

/// Whether an op should stay atomic for grouping purposes (MoE pipeline
/// members must align with group boundaries).
fn is_atom(op: &Op) -> bool {
    matches!(
        op,
        Op::Gate { .. }
            | Op::MoeDispatch { .. }
            | Op::MoeGather { .. }
            | Op::AllToAll
            | Op::ExpertsLayout { .. }
            | Op::ExpertsLayoutInv { .. }
            | Op::BatchedMatMul { .. }
    )
}

/// Splits the forward region (`times` covers it) into contiguous groups:
/// MoE atoms are singleton groups; runs of other instructions are split
/// into `per_gap` time-balanced groups.
#[allow(clippy::needless_range_loop)] // position-indexed time accumulation
fn build_groups(graph: &Graph, times: &[f64], per_gap: usize) -> Vec<Range<usize>> {
    let fwd_end = times.len();
    let mut groups = Vec::new();
    let mut run_start: Option<usize> = None;
    let flush_run = |groups: &mut Vec<Range<usize>>, start: usize, end: usize| {
        if start >= end {
            return;
        }
        let total: f64 = times[start..end].iter().sum();
        let target = total / per_gap.max(1) as f64;
        let mut acc = 0.0;
        let mut gstart = start;
        for p in start..end {
            acc += times[p];
            if acc >= target && p + 1 < end {
                groups.push(gstart..p + 1);
                gstart = p + 1;
                acc = 0.0;
            }
        }
        groups.push(gstart..end);
    };
    for pos in 0..fwd_end {
        if is_atom(&graph.instrs()[pos].op) {
            if let Some(s) = run_start.take() {
                flush_run(&mut groups, s, pos);
            }
            groups.push(pos..pos + 1);
        } else if run_start.is_none() {
            run_start = Some(pos);
        }
    }
    if let Some(s) = run_start {
        flush_run(&mut groups, s, fwd_end);
    }
    groups
}

/// Builds a standalone graph containing just `range`, with every
/// externally produced tensor declared as an input (weights keep their
/// kind so axis inference can treat them as replicated).
fn segment_graph(graph: &Graph, range: Range<usize>) -> Result<(Graph, HashMap<TensorId, TensorId>)> {
    let instrs: Vec<Instr> = graph.instrs()[range].to_vec();
    let mut seg = Graph::new();
    let mut remap: HashMap<TensorId, TensorId> = HashMap::new();
    let produced: std::collections::HashSet<TensorId> =
        instrs.iter().flat_map(|i| i.outputs.iter().copied()).collect();
    for instr in &instrs {
        for &t in &instr.inputs {
            if !produced.contains(&t) && !remap.contains_key(&t) {
                let def = graph.tensor(t);
                let kind = if def.kind == TensorKind::Weight { TensorKind::Weight } else { TensorKind::Input };
                let id = seg.add_tensor(def.name.clone(), def.shape.clone(), kind);
                remap.insert(t, id);
            }
        }
        let inputs: Vec<TensorId> = instr.inputs.iter().map(|t| remap[t]).collect();
        let outs = seg.emit_multi(instr.op.clone(), &inputs, instr.role)?;
        for (&o, n) in instr.outputs.iter().zip(outs) {
            remap.insert(o, n);
        }
    }
    Ok((seg, remap))
}

fn segment_has_a2a(graph: &Graph, range: &Range<usize>) -> bool {
    graph.instrs()[range.clone()].iter().any(|i| i.op.is_all_to_all())
}

/// Prices `P(i, n, k)` of an isolated segment with its inferred axes:
/// codegen, then the estimated sweep. `None` when the segment does not
/// split into `k` parts.
fn evaluate_partitioned(
    estimator: &TimeEstimator,
    seg: &Graph,
    axes: &AxisSolution,
    k: usize,
) -> Option<EstimateReport> {
    let spec = PartitionSpec { range: 0..seg.instrs().len(), parts: k, axes: axes.clone() };
    let part = apply_partitions(seg, &[spec]).ok()?;
    estimator.estimate(&part).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lancet_cost::{CachingOpProfiler, ClusterSpec, CommCostModel, CommModel, ComputeModel};
    use lancet_ir::{GateKind, Role};
    use lancet_models::{build_forward, GptMoeConfig};

    fn estimator(gpus: usize, nodes: usize) -> TimeEstimator {
        let spec = ClusterSpec::v100(nodes);
        let truth = CommModel::new(spec.clone());
        let a2a = CommCostModel::build(&truth, 1 << 30, gpus);
        TimeEstimator::new(
            CachingOpProfiler::new(ComputeModel::new(spec.device.clone())),
            a2a,
            truth,
            gpus,
        )
    }

    fn small_model(gate: GateKind, gpus: usize) -> Graph {
        let cfg = GptMoeConfig::gpt2_s_moe(gpus, gate).with_layers(4).with_batch(8);
        build_forward(&cfg).unwrap().graph
    }

    #[test]
    fn groups_align_with_moe_atoms() {
        let g = small_model(GateKind::Switch, 16);
        let est = estimator(16, 2);
        let fwd_end = forward_end(&g);
        let index = PassIndex::new(&g, &est).unwrap();
        let groups = build_groups(&g, &index.times, 5);
        // Groups tile the region exactly.
        assert_eq!(groups[0].start, 0);
        assert_eq!(groups.last().unwrap().end, fwd_end);
        for w in groups.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        // Every all-to-all is its own group.
        for &p in &g.all_to_all_positions() {
            if p < fwd_end {
                assert!(groups.contains(&(p..p + 1)), "a2a at {p} not atomic");
            }
        }
    }

    #[test]
    fn partition_pass_chooses_ranges_and_improves_estimate() {
        let g = small_model(GateKind::Switch, 16);
        let est = estimator(16, 2);
        let (out, report) = partition_pass(&g, &est, &PartitionOptions::default()).unwrap();
        assert!(out.validate().is_ok());
        assert!(!report.ranges.is_empty(), "expected at least one partitioned range");
        assert!(
            report.estimated_forward_time < report.unpartitioned_forward_time,
            "{} !< {}",
            report.estimated_forward_time,
            report.unpartitioned_forward_time
        );
        assert!(report.evaluations > 0);
        // The result contains a partitioned pipeline: either the
        // irregular (batch) variant or the capacity variant — both
        // multiply the all-to-all count.
        let n_a2a_out = out.instrs().iter().filter(|i| i.op.is_all_to_all()).count();
        assert!(
            n_a2a_out > g.all_to_all_positions().len(),
            "no pipelined all-to-alls ({n_a2a_out})"
        );
    }

    #[test]
    fn bpr_model_partitions_after_moe_only() {
        let g = small_model(GateKind::BatchPrioritized, 16);
        let est = estimator(16, 2);
        let (out, report) = partition_pass(&g, &est, &PartitionOptions::default()).unwrap();
        assert!(out.validate().is_ok());
        // Gates must remain unpartitioned.
        assert!(!out.instrs().iter().any(|i| matches!(i.op, Op::GateChunk { .. })));
        // But partitioning still happens (dispatch onwards).
        assert!(!report.ranges.is_empty());
        for (range, _) in &report.ranges {
            // No chosen range contains a Gate op.
            assert!(
                !g.instrs()[range.clone()].iter().any(|i| matches!(i.op, Op::Gate { .. })),
                "range {range:?} contains the BPR gate"
            );
        }
    }

    #[test]
    fn dense_graph_stays_unchanged() {
        let mut g = Graph::new();
        let x = g.input("x", vec![4, 8, 16]);
        let w = g.weight("w", vec![16, 16]);
        let h = g.emit(Op::MatMul { transpose_b: false }, &[x, w], lancet_ir::Role::Forward).unwrap();
        let _y = g.emit(Op::Gelu, &[h], lancet_ir::Role::Forward).unwrap();
        let est = estimator(8, 1);
        let (out, report) = partition_pass(&g, &est, &PartitionOptions::default()).unwrap();
        assert!(report.ranges.is_empty());
        assert_eq!(out.instrs().len(), g.instrs().len());
    }

    /// The determinism guarantee: any worker count returns bit-identical
    /// results (same ranges, same estimate) as the sequential search,
    /// memoized or not.
    #[test]
    fn parallel_search_matches_sequential() {
        let g = small_model(GateKind::Switch, 16);
        let est = estimator(16, 2);
        let sequential = PartitionOptions { workers: 1, memoize: false, ..Default::default() };
        let (_, base) = partition_pass(&g, &est, &sequential).unwrap();
        for workers in [2, 4, 7] {
            for memoize in [false, true] {
                let opts = PartitionOptions { workers, memoize, ..Default::default() };
                let (out, report) = partition_pass(&g, &est, &opts).unwrap();
                assert_eq!(report.ranges, base.ranges, "workers={workers} memoize={memoize}");
                assert_eq!(
                    report.estimated_forward_time, base.estimated_forward_time,
                    "workers={workers} memoize={memoize}"
                );
                assert!(out.validate().is_ok());
            }
        }
    }

    /// Repeated transformer layers make the memo effective even within a
    /// single search, and a second search over the same graph is almost
    /// entirely cache hits.
    #[test]
    fn memo_reuses_repeated_layers_and_repeat_searches() {
        let g = small_model(GateKind::Switch, 16);
        let est = estimator(16, 2);
        let memo = PartitionMemo::new();
        let opts = PartitionOptions::default();
        let (_, first) = partition_pass_with(&g, &est, &opts, &memo).unwrap();
        assert!(first.memo_hits > 0, "4 identical layers must share evaluations");
        assert!(first.memo_misses > 0);
        assert_eq!(first.memo_hits + first.memo_misses, first.evaluations);

        let (_, second) = partition_pass_with(&g, &est, &opts, &memo).unwrap();
        assert_eq!(second.ranges, first.ranges);
        assert_eq!(second.estimated_forward_time, first.estimated_forward_time);
        assert_eq!(second.memo_misses, 0, "second search must be fully cached");
        assert_eq!(second.memo_hits, second.evaluations);
        assert!(second.memo_hit_ratio() > 0.99);
    }

    /// Memo entries must not collide across device configurations.
    #[test]
    fn memo_distinguishes_clusters() {
        let g = small_model(GateKind::Switch, 16);
        let memo = PartitionMemo::new();
        let opts = PartitionOptions::default();
        let est_a = estimator(16, 2);
        let (_, first) = partition_pass_with(&g, &est_a, &opts, &memo).unwrap();
        // Same graph, different cluster: nothing may be answered from the
        // other cluster's entries.
        let est_b = estimator(32, 4);
        let (_, second) = partition_pass_with(&g, &est_b, &opts, &memo).unwrap();
        assert_eq!(second.memo_misses, first.memo_misses, "cross-cluster hits would be wrong");
    }

    /// The memo key of `range`'s candidates (device fingerprint 0).
    fn fingerprint(g: &Graph, range: Range<usize>) -> u64 {
        let index = PassIndex::new(g, &estimator(16, 2)).unwrap();
        segment_fingerprint(&index, &range, 0)
    }

    /// `x → MatMul → op → Gelu`; `op` takes the product and `weights`
    /// fresh `(16,)` weights.
    fn chain(op: Op, weights: usize) -> Graph {
        let mut g = Graph::new();
        let x = g.input("x", vec![4, 8, 16]);
        let w = g.weight("w", vec![16, 16]);
        let mut ins = vec![g.emit(Op::MatMul { transpose_b: false }, &[x, w], Role::Forward).unwrap()];
        ins.extend((0..weights).map(|i| g.weight(format!("w{i}"), vec![16])));
        let y = g.emit(op, &ins, Role::Forward).unwrap();
        g.emit(Op::Gelu, &[y], Role::Forward).unwrap();
        g
    }

    #[test]
    fn fingerprint_distinguishes_op_attributes() {
        let scaled = |factor| fingerprint(&chain(Op::Scale { factor }, 0), 0..3);
        let normed = |eps| fingerprint(&chain(Op::LayerNorm { eps }, 2), 0..3);
        assert_eq!(scaled(0.5), scaled(0.5));
        assert_ne!(scaled(0.5), scaled(0.25));
        assert_ne!(normed(1e-5), normed(1e-6));
    }

    #[test]
    fn fingerprint_distinguishes_escaping_outputs() {
        // Identical first instruction; only whether its output is used
        // after the range differs.
        let build = |use_y: bool| {
            let mut g = Graph::new();
            let x = g.input("x", vec![4, 8, 16]);
            let y = g.emit(Op::Gelu, &[x], Role::Forward).unwrap();
            g.emit(Op::Relu, &[if use_y { y } else { x }], Role::Forward).unwrap();
            g
        };
        assert_ne!(fingerprint(&build(true), 0..1), fingerprint(&build(false), 0..1));
        // Over the whole program nothing escapes, so the keys differ only
        // through the second instruction's dataflow.
        assert_ne!(fingerprint(&build(true), 0..2), fingerprint(&build(false), 0..2));
    }

    #[test]
    fn fingerprint_matches_the_same_layer_at_two_positions() {
        let cfg = GptMoeConfig::gpt2_s_moe(16, GateKind::Switch).with_layers(8).with_batch(8);
        let g = build_forward(&cfg).unwrap().graph;
        // Two all-to-alls per MoE layer (every other layer): the second
        // and third span a[2]..a[4] and a[4]..a[6], with the same shapes,
        // dataflow and escapes.
        let a = g.all_to_all_positions();
        assert_eq!(fingerprint(&g, a[2]..a[4]), fingerprint(&g, a[4]..a[6]));
        assert_ne!(fingerprint(&g, a[2]..a[4]), fingerprint(&g, a[2]..a[4] + 1));
    }

    /// A plain candidate priced from the per-pass times is bit-identical
    /// to the estimate of its segment graph, also for irregular
    /// all-to-alls whose counts chain starts before the range.
    #[test]
    fn plain_pricing_matches_the_segment_estimate() {
        let est = estimator(16, 2);
        let forward = small_model(GateKind::Switch, 16);
        // Pipeline every MoE layer gate..gather in 4 parts, irregularly.
        let fwd = &forward;
        let at = |pred: fn(&Op) -> bool| (0..forward_end(fwd)).filter(move |&p| pred(&fwd.instrs()[p].op));
        let specs: Vec<PartitionSpec> = at(|op| matches!(op, Op::Gate { .. }))
            .zip(at(|op| matches!(op, Op::MoeGather { .. })))
            .map(|(gate, gather)| {
                let axes = crate::infer_axes(&forward, gate..gather + 1).unwrap();
                PartitionSpec { range: gate..gather + 1, parts: 4, axes }
            })
            .collect();
        assert!(!specs.is_empty());
        let g = apply_partitions(&forward, &specs).unwrap();
        let index = PassIndex::new(&g, &est).unwrap();
        let fwd_end = forward_end(&g);
        let mut cut_chains = 0;
        for start in (0..fwd_end).step_by(5) {
            for end in (start + 1..=fwd_end.min(start + 120)).step_by(7) {
                let range = start..end;
                let plain = price_plain(&index, &est, range.clone()).unwrap();
                let (seg, _) = segment_graph(&g, range.clone()).unwrap();
                let whole = est.estimate(&seg).unwrap();
                assert_eq!(
                    [plain.total, plain.compute_busy, plain.comm_busy].map(f64::to_bits),
                    [whole.total, whole.compute_busy, whole.comm_busy].map(f64::to_bits),
                    "range {range:?}"
                );
                cut_chains += g.instrs()[range.clone()]
                    .iter()
                    .filter(|i| matches!(i.op, Op::AllToAllIrr))
                    .filter(|i| index.producer[i.inputs[1].0 as usize] < start)
                    .count();
            }
        }
        assert!(cut_chains > 0, "no range cut an irregular counts chain");
    }

    #[test]
    fn estimator_and_memo_are_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<TimeEstimator>();
        assert_sync::<PartitionMemo>();
        assert_sync::<Graph>();
    }
}
