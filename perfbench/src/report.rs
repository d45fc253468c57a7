//! Result accounting, sample statistics and the JSON the run prints.

use crate::Args;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted (steps, compiles, requests or streams).
    pub attempted: u64,
    /// Attempted operations that returned an error.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Extra `"key": value` JSON members for the run record (values are
    /// already JSON).
    pub record: Vec<(&'static str, String)>,
    /// Failed correctness checks, described.
    pub mismatches: Vec<String>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn record(&mut self, key: &'static str, json: String) {
        self.record.push((key, json));
    }

    /// Records a correctness check; a failing one fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.mismatches.push(what());
        }
    }

    /// Prints the run record (host, settings, checks) and then, as the
    /// last line, the result object.
    pub fn print(&self, args: &Args) {
        for m in &self.mismatches {
            eprintln!("MISMATCH: {m}");
        }
        for m in &self.metrics {
            println!("  {:<28} {:>14} {}", m.name, fmt_value(m.value), m.unit);
        }
        let pool = lancet_tensor::pool::default_workers();
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let search = lancet_core::PartitionOptions::default().effective_workers();
        let mut run = String::new();
        let _ = write!(
            run,
            "{{\"run\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"host\": {{\"isa\": \"{}\", \"nproc\": {nproc}, \"pool_workers\": {pool}, \
             \"search_workers\": {search}, \"commit\": \"{}\"}}, \"attempted\": {}, \"succeeded\": {}, \"failed\": {}, \
             \"mismatches\": {}",
            args.workload,
            args.seed,
            args.seconds.as_secs_f64(),
            u8::from(args.trace),
            lancet_tensor::gemm::detected_isa(),
            json_escape(&std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into())),
            self.attempted,
            self.attempted - self.failed,
            self.failed,
            self.mismatches.len(),
        );
        for (k, v) in &self.record {
            let _ = write!(run, ", \"{k}\": {v}");
        }
        run.push_str("}}");
        println!("{run}");

        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_value(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        println!("{out}");
    }
}

/// A number as JSON, with all its digits. A non-finite value (a latency
/// percentile that fell on a failed operation) prints as `null`.
pub fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .filter(|c| c.is_ascii_alphanumeric() || "-_.+ ".contains(*c))
        .collect()
}

/// JSON array of numbers.
pub fn json_array(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|&v| fmt_value(v)).collect();
    format!("[{}]", items.join(", "))
}

/// Nearest-rank percentile (`q` in `(0, 1]`). Failed operations enter
/// latency samples as `f64::INFINITY`, so they count as missing every
/// latency limit.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f` and returns its result with its wall time in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, ms(started.elapsed()))
}

/// Runs `setup` `n` times, each from scratch (the previous result is
/// dropped first), and returns the last result with the median seconds.
pub fn setups<T>(
    n: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut last = None;
    let mut seconds = Vec::with_capacity(n);
    for _ in 0..n {
        drop(last.take());
        let (r, t) = timed(&mut setup);
        seconds.push(t / 1e3);
        last = Some(r?);
    }
    Ok((last.expect("at least one set-up"), median(&seconds)))
}

/// SplitMix64: the benchmark's own input generator, so inputs depend
/// only on `--seed` and never on the program under test.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `len` token ids below `vocab`.
    pub fn tokens(&mut self, len: usize, vocab: usize) -> Vec<u32> {
        (0..len).map(|_| self.below(vocab) as u32).collect()
    }
}

/// Bit-exact equality of two f32 slices.
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
