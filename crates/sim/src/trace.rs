//! Chrome-trace (chrome://tracing, Perfetto) export of simulated
//! timelines.
//!
//! Produces the Trace Event Format's JSON array of complete (`"ph": "X"`)
//! events: one track per stream, microsecond timestamps. Load the output
//! in `chrome://tracing` or <https://ui.perfetto.dev> to inspect exactly
//! where communication overlaps computation.

use crate::{SimReport, Stream};

/// Renders a simulated timeline as Chrome Trace Event Format JSON.
///
/// # Example
///
/// ```
/// use lancet_cost::{ClusterSpec, CommModel, ComputeModel};
/// use lancet_ir::{Graph, Op, Role};
/// use lancet_sim::{to_chrome_trace, SimConfig, Simulator};
///
/// let spec = ClusterSpec::v100(1);
/// let sim = Simulator::new(
///     ComputeModel::new(spec.device.clone()),
///     CommModel::new(spec),
///     SimConfig::new(8),
/// );
/// let mut g = Graph::new();
/// let x = g.input("x", vec![64, 64]);
/// let _ = g.emit(Op::Relu, &[x], Role::Forward)?;
/// let report = sim.simulate(&g);
/// let json = to_chrome_trace(&report);
/// assert!(json.starts_with('['));
/// # Ok::<(), lancet_ir::IrError>(())
/// ```
pub fn to_chrome_trace(report: &SimReport) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    for e in &report.timeline {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let (tid, track) = match e.stream {
            Stream::Compute => (1, "compute"),
            Stream::Comm => (2, "comm"),
            Stream::CommAux => (3, "comm-aux"),
        };
        // Complete event: name, category (track), timestamp+duration in
        // µs. Tiled sub-events carry their tile index so a per-tile
        // pipeline is inspectable in the viewer.
        let args = match e.tile {
            Some(t) => format!("{{\"position\": {}, \"tile\": {}}}", e.position, t),
            None => format!("{{\"position\": {}}}", e.position),
        };
        out.push_str(&format!(
            "  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 0, \"tid\": {}, \
             \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {}}}",
            e.op,
            track,
            tid,
            e.start * 1e6,
            e.duration() * 1e6,
            args
        ));
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TimelineEvent;

    fn report() -> SimReport {
        SimReport {
            iteration_time: 2.0,
            compute_busy: 1.0,
            comm_busy: 1.0,
            overlapped: 0.5,
            peak_memory: 0,
            oom: false,
            faults: crate::FaultSummary::default(),
            timeline: vec![
                TimelineEvent { position: 0, op: "matmul", stream: Stream::Compute, start: 0.0, end: 1.0, tile: None },
                TimelineEvent { position: 1, op: "all_to_all", stream: Stream::Comm, start: 0.5, end: 1.5, tile: None },
            ],
        }
    }

    #[test]
    fn trace_is_valid_json_array() {
        let json = to_chrome_trace(&report());
        // Hand-rolled writer: verify with a real JSON parser via serde in
        // the bench crate's tests; here check structure.
        assert!(json.trim_start().starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 2);
        assert!(json.contains("\"name\": \"matmul\""));
        assert!(json.contains("\"tid\": 2"));
    }

    #[test]
    fn timestamps_in_microseconds() {
        let json = to_chrome_trace(&report());
        assert!(json.contains("\"ts\": 500000.000"), "{json}");
        assert!(json.contains("\"dur\": 1000000.000"));
    }

    #[test]
    fn tile_index_lands_in_args() {
        let mut r = report();
        r.timeline[1].tile = Some(3);
        let json = to_chrome_trace(&r);
        assert!(json.contains("\"args\": {\"position\": 1, \"tile\": 3}"), "{json}");
        assert!(json.contains("\"args\": {\"position\": 0}"), "{json}");
    }

    #[test]
    fn empty_timeline_is_empty_array() {
        let mut r = report();
        r.timeline.clear();
        let json = to_chrome_trace(&r);
        assert_eq!(json.replace(char::is_whitespace, ""), "[]");
    }
}
