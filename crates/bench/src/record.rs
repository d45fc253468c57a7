//! Machine-readable experiment records and the JSON writer behind every
//! `results/BENCH_*.json` artifact and figure record.
//!
//! The workspace is hermetic (no serde), so [`Json`] is a small ordered
//! value builder: figure records render one field per line, bench
//! artifacts one row per line.

use std::path::Path;

/// One measured data point, serialized for EXPERIMENTS.md bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Which paper figure this point belongs to ("fig11", …).
    pub figure: String,
    /// Model name ("GPT2-S-MoE").
    pub model: String,
    /// Cluster ("A100"/"V100").
    pub cluster: String,
    /// GPU count.
    pub gpus: usize,
    /// System ("Lancet", "Tutel", …).
    pub system: String,
    /// Gate ("switch"/"bpr").
    pub gate: String,
    /// Measured iteration time, ms. `None` when the run OOMs.
    pub iteration_ms: Option<f64>,
    /// Non-overlapped communication, ms.
    pub exposed_comm_ms: Option<f64>,
    /// Non-overlapped computation, ms.
    pub exposed_compute_ms: Option<f64>,
    /// Overlapped time, ms.
    pub overlapped_ms: Option<f64>,
    /// Compiler-predicted iteration time, ms (Lancet only).
    pub predicted_ms: Option<f64>,
    /// Optimization wall-clock, seconds (Lancet only).
    pub opt_time_s: Option<f64>,
    /// Tutel's selected overlap degree.
    pub tutel_degree: Option<usize>,
    /// Free-form extra dimension (e.g. partition-range sweep position).
    pub extra: Option<f64>,
}

impl Record {
    /// A mostly-empty record for `figure`; fill in what the experiment
    /// measures.
    pub fn new(figure: &str) -> Self {
        Record {
            figure: figure.to_string(),
            model: String::new(),
            cluster: String::new(),
            gpus: 0,
            system: String::new(),
            gate: String::new(),
            iteration_ms: None,
            exposed_comm_ms: None,
            exposed_compute_ms: None,
            overlapped_ms: None,
            predicted_ms: None,
            opt_time_s: None,
            tutel_degree: None,
            extra: None,
        }
    }

    /// Populates the measurement fields from a simulator report.
    pub fn with_report(mut self, report: &lancet_sim::SimReport) -> Self {
        if report.oom {
            self.iteration_ms = None;
        } else {
            self.iteration_ms = Some(report.iteration_time * 1e3);
            self.exposed_comm_ms = Some(report.exposed_comm() * 1e3);
            self.exposed_compute_ms = Some(report.exposed_compute() * 1e3);
            self.overlapped_ms = Some(report.overlapped * 1e3);
        }
        self
    }

    /// The record as a JSON object, one field per line.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("figure", self.figure.as_str().into()),
            ("model", self.model.as_str().into()),
            ("cluster", self.cluster.as_str().into()),
            ("gpus", self.gpus.into()),
            ("system", self.system.as_str().into()),
            ("gate", self.gate.as_str().into()),
            ("iteration_ms", self.iteration_ms.into()),
            ("exposed_comm_ms", self.exposed_comm_ms.into()),
            ("exposed_compute_ms", self.exposed_compute_ms.into()),
            ("overlapped_ms", self.overlapped_ms.into()),
            ("predicted_ms", self.predicted_ms.into()),
            ("opt_time_s", self.opt_time_s.into()),
            ("tutel_degree", self.tutel_degree.into()),
            ("extra", self.extra.into()),
        ])
        .expanded()
    }
}

/// Formats an `f64` so it parses back to the same value (shortest via
/// Rust's float formatter, which is round-trip exact).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // Ensure a decimal point or exponent so the value reads as float.
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A JSON value: the one writer behind every `results/BENCH_*.json`
/// artifact and figure record. (`results/TUNE_gemm.json` keeps its own
/// writer in `lancet_tensor::tune`, because the runtime parses it back.)
///
/// Values are built only through [`Json::obj`], [`Json::arr`],
/// [`Json::fixed`] and the `From` impls, so every string is escaped and
/// every number formatted here. Objects keep insertion order. A
/// container is written one entry per line when it holds an object (or
/// an array of containers) or was marked [`Json::expanded`], and on one
/// line otherwise — so each row of an artifact stays on one greppable
/// line.
#[derive(Debug, Clone, PartialEq)]
pub struct Json(Node);

#[derive(Debug, Clone, PartialEq)]
enum Node {
    /// A number, boolean or `null`, already rendered.
    Raw(String),
    /// A string, escaped on output.
    Str(String),
    Arr(Vec<Json>),
    /// An object; `expand` forces one field per line.
    Obj { fields: Vec<(String, Json)>, expand: bool },
}

impl Json {
    /// An object with `fields` in order.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        let fields = fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        Json(Node::Obj { fields, expand: false })
    }

    /// An array of `items`.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json(Node::Arr(items.into_iter().collect()))
    }

    /// `v` with exactly `decimals` fractional digits (`null` if not finite).
    pub fn fixed(v: f64, decimals: usize) -> Json {
        Json(Node::Raw(if v.is_finite() { format!("{v:.decimals$}") } else { "null".into() }))
    }

    /// This object, written one field per line.
    pub fn expanded(self) -> Json {
        match self.0 {
            Node::Obj { fields, .. } => Json(Node::Obj { fields, expand: true }),
            other => Json(other),
        }
    }

    /// The value as JSON text (no trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    /// Writes the rendered value plus a newline to `path`, creating parent
    /// directories.
    ///
    /// # Errors
    ///
    /// Returns I/O errors.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.render() + "\n")
    }

    fn is_scalar(&self) -> bool {
        matches!(self.0, Node::Raw(_) | Node::Str(_))
    }

    /// Scalars and arrays of scalars stay inline inside their parent.
    fn is_flat(&self) -> bool {
        match &self.0 {
            Node::Raw(_) | Node::Str(_) => true,
            Node::Arr(items) => items.iter().all(Json::is_scalar),
            Node::Obj { .. } => false,
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        let (open, close, entries, expand): (_, _, Vec<(Option<&str>, &Json)>, _) = match &self.0 {
            Node::Raw(s) => return out.push_str(s),
            Node::Str(s) => return out.push_str(&format!("\"{}\"", escape_json(s))),
            Node::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect(), false),
            Node::Obj { fields, expand } => {
                ('{', '}', fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(), *expand)
            }
        };
        let expand = expand || entries.iter().any(|(_, v)| !v.is_flat());
        let pad = " ".repeat(indent + 2);
        out.push(open);
        for (i, (key, value)) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
                if !expand {
                    out.push(' ');
                }
            }
            if expand {
                out.push('\n');
                out.push_str(&pad);
            }
            if let Some(key) = key {
                out.push_str(&format!("\"{}\": ", escape_json(key)));
            }
            value.write(out, indent + 2);
        }
        if expand && !entries.is_empty() {
            out.push('\n');
            out.push_str(&" ".repeat(indent));
        }
        out.push(close);
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json(Node::Raw(fmt_f64(v)))
    }
}

macro_rules! json_from_display {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json(Node::Raw(v.to_string()))
            }
        }
    )*};
}
json_from_display!(bool, usize, u64);

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json(Node::Str(v.to_string()))
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json(Node::Raw("null".into())), Into::into)
    }
}

/// Writes records as pretty JSON, creating parent directories.
///
/// # Errors
///
/// Returns I/O errors.
pub fn save_json(path: impl AsRef<Path>, records: &[Record]) -> std::io::Result<()> {
    Json::arr(records.iter().map(Record::to_json)).save(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_renders_one_field_per_line() {
        let mut r = Record::new("fig\"quoted\"");
        r.model = "line\nbreak\\slash".into();
        r.cluster = "tab\there".into();
        r.gpus = 32;
        r.iteration_ms = Some(123.4);
        r.exposed_compute_ms = Some(f64::NAN);
        r.predicted_ms = Some(3.0);
        r.opt_time_s = Some(0.123456789012345);
        r.tutel_degree = Some(2);
        r.extra = Some(1e-9);
        let want = r#"{
  "figure": "fig\"quoted\"",
  "model": "line\nbreak\\slash",
  "cluster": "tab\there",
  "gpus": 32,
  "system": "",
  "gate": "",
  "iteration_ms": 123.4,
  "exposed_comm_ms": null,
  "exposed_compute_ms": null,
  "overlapped_ms": null,
  "predicted_ms": 3.0,
  "opt_time_s": 0.123456789012345,
  "tutel_degree": 2,
  "extra": 0.000000001
}"#;
        assert_eq!(r.to_json().render(), want);
    }

    #[test]
    fn save_json_writes_file() {
        let dir = std::env::temp_dir().join("lancet-bench-test");
        let path = dir.join("records.json");
        save_json(&path, &[Record::new("fig02")]).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("fig02"));
        assert!(content.trim_start().starts_with('['));
        assert!(content.trim_end().ends_with(']'));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn json_layout_is_inline_unless_nested_or_expanded() {
        let doc = Json::obj([
            ("bench", "demo".into()),
            ("shape", Json::obj([("dims", Json::arr([2usize.into(), 3usize.into()]))])),
            ("rows", Json::arr([Json::obj([("ok", true.into()), ("ms", Json::fixed(1.0, 2))])])),
            (
                "floors",
                Json::obj([("speedup", Json::fixed(2.654, 2)), ("nan", Json::fixed(f64::NAN, 1))])
                    .expanded(),
            ),
        ]);
        let want = "{\n  \"bench\": \"demo\",\n  \"shape\": {\"dims\": [2, 3]},\n  \"rows\": [\n    \
                    {\"ok\": true, \"ms\": 1.00}\n  ],\n  \"floors\": {\n    \"speedup\": 2.65,\n    \
                    \"nan\": null\n  }\n}";
        assert_eq!(doc.render(), want);
    }

    #[test]
    fn oom_report_clears_iteration() {
        let report = lancet_sim::SimReport {
            iteration_time: 1.0,
            compute_busy: 0.5,
            comm_busy: 0.5,
            overlapped: 0.1,
            peak_memory: u64::MAX,
            oom: true,
            faults: Default::default(),
            timeline: Vec::new(),
        };
        let r = Record::new("fig11").with_report(&report);
        assert_eq!(r.iteration_ms, None);
    }
}
