//! Ground-truth network model and the compiler's interpolated
//! communication cost model.

use crate::ClusterSpec;

/// Ground-truth transfer-time model for collectives on the simulated
/// interconnect (hierarchical NVLink/NIC with saturating bandwidth).
///
/// The discrete-event simulator charges these times when executing
/// communication instructions.
#[derive(Debug, Clone)]
pub struct CommModel {
    spec: ClusterSpec,
}

impl CommModel {
    /// Builds the model for a cluster.
    pub fn new(spec: ClusterSpec) -> Self {
        CommModel { spec }
    }

    /// The underlying cluster spec.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Bandwidth-utilization factor for per-peer messages of `bytes`.
    ///
    /// Saturating curve with a floor: tiny messages are latency-bound
    /// (the `latency` term dominates), not infinitely slow.
    fn msg_util(&self, bytes: f64) -> f64 {
        (bytes / (bytes + self.spec.net.util_half_bytes)).max(0.15)
    }

    /// Time for an all-to-all where each device contributes `bytes` of
    /// send buffer, across `gpus` devices.
    ///
    /// Each device keeps `1/G` locally, moves `(gpn−1)/G` over NVLink and
    /// the rest over the node NIC (shared by the node's GPUs). The slower
    /// of the two paths dominates; per-peer message size determines the
    /// bandwidth utilization.
    pub fn all_to_all_time(&self, bytes: u64, gpus: usize) -> f64 {
        if gpus <= 1 || bytes == 0 {
            return self.spec.net.latency;
        }
        let g = gpus as f64;
        let gpn = self.spec.net.gpus_per_node.min(gpus) as f64;
        let b = bytes as f64;
        let per_peer = b / g;
        let util = self.msg_util(per_peer);

        let intra_bytes = b * (gpn - 1.0) / g;
        let t_intra = intra_bytes / (self.spec.net.intra_bw * util);
        // Bytes leaving the node, for all gpn GPUs sharing the NIC.
        let inter_frac = (g - gpn) / g;
        let t_inter = if inter_frac > 0.0 {
            let node_bytes = b * inter_frac * gpn;
            node_bytes / (self.spec.net.inter_bw_per_node * util)
        } else {
            0.0
        };
        self.spec.net.latency + t_intra.max(t_inter)
    }

    /// Time for an all-to-all under a *non-uniform* expert placement:
    /// `inter_frac` of the moved bytes cross node boundaries (instead of
    /// the topology constant `(G−gpn)/G`) and the busiest receiver holds
    /// `load_factor` ≥ 1 times the balanced share, stretching both paths.
    ///
    /// With `inter_frac = (G−gpn)/G` and `load_factor = 1` this is
    /// exactly [`CommModel::all_to_all_time`] — the uniform model is the
    /// special case, so placement-aware simulation degrades to the stock
    /// charge when no plan is installed. See `PlacementPlan::layer_profiles`
    /// for where the two factors come from.
    pub fn all_to_all_time_skewed(
        &self,
        bytes: u64,
        gpus: usize,
        inter_frac: f64,
        load_factor: f64,
    ) -> f64 {
        if gpus <= 1 || bytes == 0 {
            return self.spec.net.latency;
        }
        let g = gpus as f64;
        let gpn = self.spec.net.gpus_per_node.min(gpus) as f64;
        let b = bytes as f64;
        let util = self.msg_util(b / g);
        let load = load_factor.max(1.0);
        // 1/G stays local; the moved remainder splits between NVLink and
        // the NIC according to the placement-derived fraction.
        let inter_frac = inter_frac.clamp(0.0, (g - 1.0) / g);
        let intra_frac = (g - 1.0) / g - inter_frac;
        let t_intra = b * intra_frac * load / (self.spec.net.intra_bw * util);
        let t_inter = if inter_frac > 0.0 {
            b * inter_frac * gpn * load / (self.spec.net.inter_bw_per_node * util)
        } else {
            0.0
        };
        self.spec.net.latency + t_intra.max(t_inter)
    }

    /// Time for the two-phase irregular all-to-all: a (tiny) size exchange
    /// plus the payload exchange of `actual_bytes`.
    pub fn irregular_all_to_all_time(&self, actual_bytes: u64, experts: usize, gpus: usize) -> f64 {
        let size_exchange = self.all_to_all_time((4 * experts) as u64, gpus);
        size_exchange + self.all_to_all_time(actual_bytes, gpus)
    }

    /// Time for a hierarchical (two-stage) all-to-all: an intra-node
    /// exchange over NVLink re-buckets data by destination rank, then
    /// same-rank devices exchange node-aggregated buckets across nodes.
    /// Inter-node messages are `gpus_per_node`× larger than the naive
    /// scheme's, so bandwidth utilization is far better for small
    /// transfers (paper §8: better communication implementations).
    pub fn hierarchical_all_to_all_time(&self, bytes: u64, gpus: usize) -> f64 {
        let gpn = self.spec.net.gpus_per_node.min(gpus).max(1);
        let nodes = gpus.div_ceil(gpn);
        if gpus <= 1 || bytes == 0 {
            return self.spec.net.latency;
        }
        if nodes <= 1 {
            return self.all_to_all_time(bytes, gpus);
        }
        let b = bytes as f64;
        // Stage 1: intra-node all-to-all; per-peer chunks of bytes/gpn.
        let intra_moved = b * (gpn as f64 - 1.0) / gpn as f64;
        let t_intra = intra_moved / (self.spec.net.intra_bw * self.msg_util(b / gpn as f64));
        // Stage 2: same-rank inter-node exchange; per-peer messages of
        // bytes/nodes, all gpn ranks sharing the NIC.
        let inter_moved_node = b * (nodes as f64 - 1.0) / nodes as f64 * gpn as f64;
        let t_inter =
            inter_moved_node / (self.spec.net.inter_bw_per_node * self.msg_util(b / nodes as f64));
        2.0 * self.spec.net.latency + t_intra + t_inter
    }

    /// Time for a ring all-gather materializing a tensor of `full_bytes`
    /// from per-device shards across `gpus` devices (each device receives
    /// `(G−1)/G` of the full tensor).
    pub fn all_gather_time(&self, full_bytes: u64, gpus: usize) -> f64 {
        if gpus <= 1 || full_bytes == 0 {
            return self.spec.net.latency;
        }
        let g = gpus as f64;
        let moved = full_bytes as f64 * (g - 1.0) / g;
        let gpn = self.spec.net.gpus_per_node.min(gpus) as f64;
        let bottleneck_bw = if (gpus as f64) > gpn {
            self.spec.net.inter_bw_per_node / gpn
        } else {
            self.spec.net.intra_bw
        };
        let util = self.msg_util(full_bytes as f64 / g);
        self.spec.net.latency + moved / (bottleneck_bw * util)
    }

    /// Time for a ring reduce-scatter of a tensor of `full_bytes` across
    /// `gpus` devices (same traffic pattern as the all-gather).
    pub fn reduce_scatter_time(&self, full_bytes: u64, gpus: usize) -> f64 {
        self.all_gather_time(full_bytes, gpus)
    }

    /// Time for a ring all-reduce of `bytes` across `gpus` devices.
    pub fn all_reduce_time(&self, bytes: u64, gpus: usize) -> f64 {
        if gpus <= 1 || bytes == 0 {
            return self.spec.net.latency;
        }
        let g = gpus as f64;
        let b = bytes as f64;
        let moved = 2.0 * b * (g - 1.0) / g;
        // The ring bottleneck is the slowest link a chunk crosses.
        let gpn = self.spec.net.gpus_per_node.min(gpus) as f64;
        let bottleneck_bw = if (gpus as f64) > gpn {
            self.spec.net.inter_bw_per_node / gpn
        } else {
            self.spec.net.intra_bw
        };
        let util = self.msg_util(b / g);
        self.spec.net.latency * 2.0 + moved / (bottleneck_bw * util)
    }
}

/// The compiler's communication cost model (paper §3): built by profiling
/// all-to-all times at power-of-two sizes and linearly interpolating.
///
/// For irregular all-to-alls whose true size is unknown at compile time,
/// the paper's static-shape approximation queries the *uniform* cost at
/// capacity `C/n`; see [`CommCostModel::query`] — callers pass the padded
/// (capacity-shaped) byte count.
///
/// # Example
///
/// ```
/// use lancet_cost::{ClusterSpec, CommCostModel, CommModel};
///
/// let spec = ClusterSpec::v100(2);
/// let truth = CommModel::new(spec.clone());
/// let model = CommCostModel::build(&truth, 1 << 26, spec.gpus());
/// let predicted = model.query(3_000_000);
/// let actual = truth.all_to_all_time(3_000_000, spec.gpus());
/// assert!((predicted - actual).abs() / actual < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct CommCostModel {
    /// Profiled (bytes, seconds) points, ascending in bytes.
    points: Vec<(u64, f64)>,
    gpus: usize,
}

impl CommCostModel {
    /// Profiles the ground-truth model from 1 KiB up to `max_bytes`
    /// (paper: "1KB, 2KB, 4KB, …, up to the maximum possible
    /// communication used in models").
    pub fn build(truth: &CommModel, max_bytes: u64, gpus: usize) -> Self {
        let mut points = Vec::new();
        let mut size = 1024u64;
        points.push((0, truth.spec.net.latency));
        while size < max_bytes.max(1024) {
            points.push((size, truth.all_to_all_time(size, gpus)));
            size *= 2;
        }
        points.push((size, truth.all_to_all_time(size, gpus)));
        CommCostModel { points, gpus }
    }

    /// Number of profiled points.
    pub fn num_points(&self) -> usize {
        self.points.len()
    }

    /// Device count the model was profiled for.
    pub fn gpus(&self) -> usize {
        self.gpus
    }

    /// Predicted all-to-all time for a per-device buffer of `bytes`,
    /// linearly interpolated between profiled points (extrapolated from
    /// the last segment beyond the profiled range).
    pub fn query(&self, bytes: u64) -> f64 {
        let pts = &self.points;
        if bytes >= pts[pts.len() - 1].0 {
            // Extrapolate using the slope of the final segment.
            let (x0, y0) = pts[pts.len() - 2];
            let (x1, y1) = pts[pts.len() - 1];
            let slope = (y1 - y0) / (x1 - x0) as f64;
            return y1 + slope * (bytes - x1) as f64;
        }
        let idx = pts.partition_point(|&(x, _)| x <= bytes);
        let (x0, y0) = pts[idx - 1];
        let (x1, y1) = pts[idx];
        let frac = (bytes - x0) as f64 / (x1 - x0) as f64;
        y0 + frac * (y1 - y0)
    }

    /// The paper's static-shape approximation for an `n`-way partitioned
    /// all-to-all of original padded size `padded_bytes`: query the
    /// uniform model at `padded_bytes / n`.
    pub fn query_partitioned(&self, padded_bytes: u64, parts: usize) -> f64 {
        self.query(padded_bytes / parts.max(1) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v100_model(nodes: usize) -> CommModel {
        CommModel::new(ClusterSpec::v100(nodes))
    }

    #[test]
    fn bigger_transfers_take_longer() {
        let m = v100_model(2);
        let t1 = m.all_to_all_time(1 << 20, 16);
        let t2 = m.all_to_all_time(1 << 24, 16);
        assert!(t2 > t1);
    }

    #[test]
    fn multi_node_slower_than_single_node() {
        let m2 = v100_model(2);
        let m1 = v100_model(1);
        let bytes = 32 << 20;
        assert!(m2.all_to_all_time(bytes, 16) > m1.all_to_all_time(bytes, 8));
    }

    #[test]
    fn single_gpu_alltoall_is_latency_only() {
        let m = v100_model(1);
        assert_eq!(m.all_to_all_time(1 << 20, 1), m.spec().net.latency);
    }

    #[test]
    fn skewed_alltoall_uniform_case_matches_stock() {
        let m = v100_model(2);
        for bytes in [1u64 << 16, 1 << 20, 1 << 24] {
            let g = 16.0;
            let gpn = 8.0;
            let uniform = m.all_to_all_time(bytes, 16);
            let skewed = m.all_to_all_time_skewed(bytes, 16, (g - gpn) / g, 1.0);
            assert!((uniform - skewed).abs() < 1e-12, "{bytes}: {uniform} vs {skewed}");
        }
    }

    #[test]
    fn skewed_alltoall_penalizes_overload_and_crossing() {
        let m = v100_model(2);
        let base = m.all_to_all_time_skewed(1 << 22, 16, 0.5, 1.0);
        assert!(m.all_to_all_time_skewed(1 << 22, 16, 0.5, 2.0) > base);
        assert!(m.all_to_all_time_skewed(1 << 22, 16, 0.8, 1.0) > base);
        // Fully node-local traffic beats the uniform fraction.
        assert!(m.all_to_all_time_skewed(1 << 22, 16, 0.0, 1.0) < base);
    }

    #[test]
    fn irregular_adds_size_exchange() {
        let m = v100_model(2);
        let uniform = m.all_to_all_time(1 << 20, 16);
        let irr = m.irregular_all_to_all_time(1 << 20, 32, 16);
        assert!(irr > uniform);
        // But with fewer actual bytes, the irregular one wins.
        let irr_small = m.irregular_all_to_all_time(1 << 18, 32, 16);
        assert!(irr_small < uniform);
    }

    #[test]
    fn allreduce_scales_with_bytes() {
        let m = v100_model(2);
        assert!(m.all_reduce_time(1 << 24, 16) > m.all_reduce_time(1 << 20, 16));
        assert_eq!(m.all_reduce_time(0, 16), m.spec().net.latency);
    }

    #[test]
    fn cost_model_interpolates_accurately() {
        let spec = ClusterSpec::v100(2);
        let truth = CommModel::new(spec.clone());
        let model = CommCostModel::build(&truth, 1 << 26, 16);
        for bytes in [1500u64, 100_000, 3_000_000, 40_000_000] {
            let predicted = model.query(bytes);
            let actual = truth.all_to_all_time(bytes, 16);
            let err = (predicted - actual).abs() / actual;
            assert!(err < 0.08, "{bytes} bytes: err {err}");
        }
    }

    #[test]
    fn cost_model_extrapolates_beyond_range() {
        let spec = ClusterSpec::v100(2);
        let truth = CommModel::new(spec.clone());
        let model = CommCostModel::build(&truth, 1 << 20, 16);
        let far = model.query(1 << 24);
        assert!(far > model.query(1 << 20));
    }

    #[test]
    fn partitioned_query_divides_size() {
        let spec = ClusterSpec::v100(2);
        let truth = CommModel::new(spec.clone());
        let model = CommCostModel::build(&truth, 1 << 26, 16);
        let full = model.query(1 << 24);
        let quarter = model.query_partitioned(1 << 24, 4);
        assert!(quarter < full);
        assert!((quarter - model.query((1 << 24) / 4)).abs() < 1e-12);
    }

    #[test]
    fn monotone_in_bytes() {
        let spec = ClusterSpec::a100(4);
        let truth = CommModel::new(spec.clone());
        let model = CommCostModel::build(&truth, 1 << 28, 32);
        let mut prev = 0.0;
        for p in 10..28 {
            let t = model.query(1u64 << p);
            assert!(t >= prev, "non-monotone at 2^{p}");
            prev = t;
        }
    }
}
