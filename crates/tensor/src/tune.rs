//! Shape-specialized autotuning of the GEMM cache blocking.
//!
//! The packed engine's `mc/kc/nc` blocking ([`BlockSpec`]) trades
//! cache-residency of the `A` block, the `B` panel, and the output tile;
//! the best cut depends on the problem shape and the SIMD path. This
//! module searches a fixed candidate grid per `(m-class, k, n)` and
//! records the winner in a [`TuneTable`]:
//!
//! - `lancet tune-gemm` runs the search for the GPT2-S-MoE weight shape
//!   set and writes `results/TUNE_gemm.json` (committed, regenerable);
//! - setting `LANCET_GEMM_TUNE` loads a table at startup (see
//!   `docs/CONFIG.md`) — unset, `0`/`off`, a missing file, or unparsable
//!   content all degrade to the compiled-in [`BlockSpec::DEFAULT`];
//! - [`spec_for`] resolves each matmul's blocking from the active table,
//!   and [`spec_for_pack`] the blocking weights are prepacked with.
//!
//! # Determinism
//!
//! Wall-clock measurements are inherently noisy, so "deterministic" here
//! means the *harness* is: operands come from fixed seeds, candidates are
//! visited in a fixed order, each is scored by the minimum of its timed
//! runs, and the default blocking wins ties (a candidate must be strictly
//! faster to displace it). And whatever the table says, results never
//! change: every [`BlockSpec`] is bit-identical (see [`crate::gemm`]),
//! upholding the repo-wide rule that no environment variable changes any
//! computed number.

use std::sync::OnceLock;
use std::time::Instant;

use crate::gemm::{self, BlockSpec};
use crate::TensorRng;

/// Coarse classes of the output-row count `m` — the dimension that varies
/// call-to-call while `k`/`n` are pinned by the weight shape. Decode steps
/// multiply a handful of rows; prefill/serve batches multiply hundreds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MClass {
    /// `m <= 16`: autoregressive decode steps.
    Step,
    /// `16 < m <= 128`: small micro-batches / capacity-bucketed expert rows.
    Micro,
    /// `m > 128`: prefill and full serving batches.
    Batch,
}

impl MClass {
    /// The class a concrete `m` falls into.
    pub fn of(m: usize) -> MClass {
        if m <= 16 {
            MClass::Step
        } else if m <= 128 {
            MClass::Micro
        } else {
            MClass::Batch
        }
    }

    /// Stable on-disk name.
    pub fn name(self) -> &'static str {
        match self {
            MClass::Step => "step",
            MClass::Micro => "micro",
            MClass::Batch => "batch",
        }
    }

    /// Parses [`MClass::name`] output.
    pub fn parse(s: &str) -> Option<MClass> {
        match s {
            "step" => Some(MClass::Step),
            "micro" => Some(MClass::Micro),
            "batch" => Some(MClass::Batch),
            _ => None,
        }
    }

    /// The representative `m` the tuner measures this class at.
    pub fn representative_m(self) -> usize {
        match self {
            MClass::Step => 8,
            MClass::Micro => 64,
            MClass::Batch => 512,
        }
    }
}

/// One tuned result: the winning blocking for `(isa, m-class, k, n)`,
/// with the measured minimum wall-clock of the winner and of the default
/// (so the recorded win is auditable).
#[derive(Debug, Clone, PartialEq)]
pub struct TuneEntry {
    /// [`gemm::detected_isa`] string the measurement ran under.
    pub isa: String,
    /// Class of the output-row count.
    pub m_class: MClass,
    /// Contraction dimension.
    pub k: usize,
    /// Output-column dimension.
    pub n: usize,
    /// The winning blocking.
    pub spec: BlockSpec,
    /// Minimum measured nanoseconds of the winner.
    pub tuned_ns: u64,
    /// Minimum measured nanoseconds of [`BlockSpec::DEFAULT`].
    pub default_ns: u64,
}

/// A set of tuned blockings, looked up per matmul call.
///
/// Entries are keyed by `(isa, m-class, k, n)`; lookups filter on the
/// *detected* ISA, so a table recorded on one machine class never steers
/// another — it just falls back to the default blocking there.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TuneTable {
    entries: Vec<TuneEntry>,
}

impl TuneTable {
    /// An empty table: every lookup falls back to the default blocking.
    pub fn new() -> TuneTable {
        TuneTable::default()
    }

    /// All entries, in insertion order.
    pub fn entries(&self) -> &[TuneEntry] {
        &self.entries
    }

    /// Inserts `entry`, replacing any existing entry with the same
    /// `(isa, m-class, k, n)` key.
    pub fn push(&mut self, entry: TuneEntry) {
        self.entries.retain(|e| {
            !(e.isa == entry.isa && e.m_class == entry.m_class && e.k == entry.k && e.n == entry.n)
        });
        self.entries.push(entry);
    }

    /// Entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The tuned blocking for a concrete `(m, k, n)` under `isa`, if any.
    pub fn lookup(&self, isa: &str, m: usize, k: usize, n: usize) -> Option<BlockSpec> {
        let class = MClass::of(m);
        self.entries
            .iter()
            .find(|e| e.isa == isa && e.m_class == class && e.k == k && e.n == n)
            .map(|e| e.spec)
    }

    /// The blocking to *prepack* a `(k, n)` weight with, when its future
    /// `m` is unknown: large-`m` entries win (`Batch`, then `Micro`, then
    /// `Step`), since panel layout is reused across all classes and the
    /// large-batch shape is the throughput-critical one.
    pub fn lookup_pack(&self, isa: &str, k: usize, n: usize) -> Option<BlockSpec> {
        [MClass::Batch, MClass::Micro, MClass::Step].iter().find_map(|&class| {
            self.entries
                .iter()
                .find(|e| e.isa == isa && e.m_class == class && e.k == k && e.n == n)
                .map(|e| e.spec)
        })
    }

    /// Serializes the table to the `results/TUNE_gemm.json` format.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"bench\": \"tune_gemm\",\n  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"isa\": \"{}\", \"m_class\": \"{}\", \"k\": {}, \"n\": {}, \
                 \"mc\": {}, \"kc\": {}, \"nc\": {}, \"tuned_ns\": {}, \"default_ns\": {}}}{}\n",
                e.isa,
                e.m_class.name(),
                e.k,
                e.n,
                e.spec.mc,
                e.spec.kc,
                e.spec.nc,
                e.tuned_ns,
                e.default_ns,
                if i + 1 < self.entries.len() { "," } else { "" },
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parses [`TuneTable::to_json`] output. Returns `None` when the text
    /// has no `entries` array; malformed entries and entries with invalid
    /// blockings are silently dropped (garbage degrades to defaults).
    pub fn from_json(text: &str) -> Option<TuneTable> {
        let at = text.find("\"entries\"")?;
        let open = at + text[at..].find('[')?;
        let close = open + text[open..].find(']')?;
        let mut table = TuneTable::new();
        let mut rest = &text[open + 1..close];
        while let Some(start) = rest.find('{') {
            let Some(end) = rest[start..].find('}') else { break };
            if let Some(entry) = parse_entry(&rest[start + 1..start + end]) {
                if entry.spec.is_valid() {
                    table.push(entry);
                }
            }
            rest = &rest[start + end + 1..];
        }
        Some(table)
    }
}

/// Extracts the raw text after `"key":`, up to the next comma (or the
/// object end), with surrounding whitespace and quotes stripped.
fn field(obj: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\"");
    let at = obj.find(&pat)? + pat.len();
    let colon = at + obj[at..].find(':')?;
    let rest = &obj[colon + 1..];
    let end = rest.find(',').unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"').to_string())
}

fn field_u64(obj: &str, key: &str) -> Option<u64> {
    field(obj, key)?.parse().ok()
}

fn parse_entry(obj: &str) -> Option<TuneEntry> {
    Some(TuneEntry {
        isa: field(obj, "isa")?,
        m_class: MClass::parse(&field(obj, "m_class")?)?,
        k: field_u64(obj, "k")? as usize,
        n: field_u64(obj, "n")? as usize,
        spec: BlockSpec {
            mc: field_u64(obj, "mc")? as usize,
            kc: field_u64(obj, "kc")? as usize,
            nc: field_u64(obj, "nc")? as usize,
        },
        tuned_ns: field_u64(obj, "tuned_ns")?,
        default_ns: field_u64(obj, "default_ns")?,
    })
}

/// Where a `LANCET_GEMM_TUNE` value says the table comes from.
#[derive(Debug, PartialEq, Eq)]
enum TuneSource<'a> {
    /// Unset, empty, `0`, or `off` (any case): no table.
    Off,
    /// `1`/`on` (any case): the committed `results/TUNE_gemm.json`.
    Committed,
    /// Any other value: a path to a table.
    Path(&'a str),
}

impl<'a> TuneSource<'a> {
    /// Parses a `LANCET_GEMM_TUNE` value; surrounding whitespace is
    /// ignored.
    fn parse(value: Option<&'a str>) -> Self {
        let v = value.unwrap_or_default().trim();
        if v.is_empty() || v == "0" || v.eq_ignore_ascii_case("off") {
            TuneSource::Off
        } else if v == "1" || v.eq_ignore_ascii_case("on") {
            TuneSource::Committed
        } else {
            TuneSource::Path(v)
        }
    }

    /// The table this source names. The committed table is resolved
    /// relative to the working directory, then the repo root; unreadable
    /// or unparsable content degrades to the empty table.
    fn load(&self) -> TuneTable {
        let paths: &[&str] = match self {
            TuneSource::Off => &[],
            TuneSource::Committed => &[
                "results/TUNE_gemm.json",
                concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/TUNE_gemm.json"),
            ],
            TuneSource::Path(p) => std::slice::from_ref(p),
        };
        paths
            .iter()
            .find_map(|p| TuneTable::from_json(&std::fs::read_to_string(p).ok()?))
            .unwrap_or_default()
    }
}

/// The table `LANCET_GEMM_TUNE` resolved to, loaded once per process.
fn active() -> &'static TuneTable {
    static TABLE: OnceLock<TuneTable> = OnceLock::new();
    TABLE.get_or_init(|| TuneSource::parse(std::env::var("LANCET_GEMM_TUNE").ok().as_deref()).load())
}

/// The blocking [`gemm::matmul_tiled`] uses for an `(m, k, n)` problem:
/// the active table's entry for this shape class on the detected ISA, or
/// [`BlockSpec::DEFAULT`].
pub fn spec_for(m: usize, k: usize, n: usize) -> BlockSpec {
    active().lookup(gemm::detected_isa(), m, k, n).unwrap_or(BlockSpec::DEFAULT)
}

/// The blocking a `(k, n)` weight is prepacked with (see
/// [`TuneTable::lookup_pack`]).
pub fn spec_for_pack(k: usize, n: usize) -> BlockSpec {
    active().lookup_pack(gemm::detected_isa(), k, n).unwrap_or(BlockSpec::DEFAULT)
}

/// Knobs of the tuning run itself (not of table consumers).
#[derive(Debug, Clone, Copy)]
pub struct TuneOptions {
    /// Timed runs per candidate (scored by their minimum); a warmup run
    /// precedes them. `0` behaves as `1`.
    pub samples: usize,
    /// Worker knob forwarded to the measured kernels (`0` = auto — the
    /// configuration serving runs with).
    pub workers: usize,
    /// Shrinks the candidate grid and the class list for fast smoke runs.
    pub quick: bool,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions { samples: 3, workers: 0, quick: false }
    }
}

/// The fixed candidate grid, default blocking first. The grid brackets
/// the default by halving/doubling each factor; every candidate is a
/// valid spec, so any of them may be recorded and later loaded.
pub fn candidates(quick: bool) -> Vec<BlockSpec> {
    let (mcs, kcs, ncs): (&[usize], &[usize], &[usize]) = if quick {
        (&[64], &[128, 256], &[256, 512])
    } else {
        (&[32, 64, 128], &[128, 256, 512], &[256, 512, 1024])
    };
    let mut out = vec![BlockSpec::DEFAULT];
    for &mc in mcs {
        for &kc in kcs {
            for &nc in ncs {
                let spec = BlockSpec { mc, kc, nc };
                if spec != BlockSpec::DEFAULT {
                    out.push(spec);
                }
            }
        }
    }
    out
}

/// Times one candidate: a warmup call, then `samples` timed calls of
/// [`gemm::matmul_tiled_with`]; returns the minimum nanoseconds.
fn measure(
    a: &crate::Tensor,
    b: &crate::Tensor,
    spec: BlockSpec,
    samples: usize,
    workers: usize,
) -> u64 {
    let _ = gemm::matmul_tiled_with(a, b, false, false, workers, spec);
    let mut best = u64::MAX;
    for _ in 0..samples.max(1) {
        let t = Instant::now();
        let _ = gemm::matmul_tiled_with(a, b, false, false, workers, spec);
        best = best.min(t.elapsed().as_nanos() as u64);
    }
    best
}

/// Searches the candidate grid for one `(m, k, n)` problem and returns
/// the winning entry. Operands are seeded from `(m, k, n)`, candidates
/// are visited in [`candidates`] order, and the default blocking wins
/// ties.
pub fn tune_shape(m: usize, k: usize, n: usize, opts: TuneOptions) -> TuneEntry {
    let seed = 0xB10C_0000_0000_0000u64 ^ ((m as u64) << 42) ^ ((k as u64) << 21) ^ (n as u64);
    let mut rng = TensorRng::seed(seed);
    let a = rng.uniform(vec![m, k], -1.0, 1.0);
    let b = rng.uniform(vec![k, n], -1.0, 1.0);
    let grid = candidates(opts.quick);
    let default_ns = measure(&a, &b, BlockSpec::DEFAULT, opts.samples, opts.workers);
    let (mut best_spec, mut best_ns) = (BlockSpec::DEFAULT, default_ns);
    for &spec in grid.iter().skip(1) {
        let ns = measure(&a, &b, spec, opts.samples, opts.workers);
        if ns < best_ns {
            best_spec = spec;
            best_ns = ns;
        }
    }
    TuneEntry {
        isa: gemm::detected_isa().to_string(),
        m_class: MClass::of(m),
        k,
        n,
        spec: best_spec,
        tuned_ns: best_ns,
        default_ns,
    }
}

/// The GPT2-S-MoE weight `(k, n)` shape set `lancet tune-gemm` covers:
/// attention projections (`768 × 768`), the FFN/expert up projection
/// (`768 × 3072`), and the down projection (`3072 × 768`).
pub const GPT2S_MOE_SHAPES: &[(usize, usize)] = &[(768, 768), (768, 3072), (3072, 768)];

/// Tunes every [`GPT2S_MOE_SHAPES`] weight shape at each class's
/// representative `m` and returns the resulting table. `on_entry` fires
/// after each shape finishes (progress reporting for the CLI).
pub fn tune_gpt2s_moe(opts: TuneOptions, mut on_entry: impl FnMut(&TuneEntry)) -> TuneTable {
    let classes: &[MClass] = if opts.quick {
        &[MClass::Step, MClass::Batch]
    } else {
        &[MClass::Step, MClass::Micro, MClass::Batch]
    };
    let mut table = TuneTable::new();
    for &(k, n) in GPT2S_MOE_SHAPES {
        for &class in classes {
            let entry = tune_shape(class.representative_m(), k, n, opts);
            on_entry(&entry);
            table.push(entry);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tune_values_parse_or_fall_back() {
        use TuneSource::{Committed, Off, Path};
        let cases = [
            (None, Off),
            (Some(""), Off),
            (Some(" \t"), Off),
            (Some("0"), Off),
            (Some(" OFF "), Off),
            (Some("1"), Committed),
            (Some(" On\n"), Committed),
            (Some("-1"), Path("-1")),
            (Some(" no/such/table.json "), Path("no/such/table.json")),
            (Some("18446744073709551616"), Path("18446744073709551616")),
        ];
        for (value, want) in cases {
            assert_eq!(TuneSource::parse(value), want, "{value:?}");
        }
        // A value naming no readable table gives docs/CONFIG.md's default:
        // no table, so the fixed MC=64 KC=256 NC=512 blocking.
        for value in [None, Some("0"), Some("-1"), Some("garbage"), Some("18446744073709551616")] {
            assert!(TuneSource::parse(value).load().is_empty(), "{value:?}");
        }
        assert_eq!(BlockSpec::DEFAULT, BlockSpec { mc: 64, kc: 256, nc: 512 });
    }

    fn entry(isa: &str, class: MClass, k: usize, n: usize, mc: usize) -> TuneEntry {
        TuneEntry {
            isa: isa.to_string(),
            m_class: class,
            k,
            n,
            spec: BlockSpec { mc, kc: 256, nc: 512 },
            tuned_ns: 100,
            default_ns: 120,
        }
    }

    #[test]
    fn json_roundtrip_preserves_entries() {
        let mut t = TuneTable::new();
        t.push(entry("avx2", MClass::Step, 768, 3072, 32));
        t.push(entry("avx2", MClass::Batch, 768, 3072, 128));
        t.push(entry("avx512", MClass::Batch, 3072, 768, 64));
        let parsed = TuneTable::from_json(&t.to_json()).expect("roundtrip parse");
        assert_eq!(parsed, t);
    }

    #[test]
    fn lookup_filters_isa_and_class() {
        let mut t = TuneTable::new();
        t.push(entry("avx2", MClass::Step, 768, 3072, 32));
        assert_eq!(t.lookup("avx2", 8, 768, 3072), Some(BlockSpec { mc: 32, kc: 256, nc: 512 }));
        assert_eq!(t.lookup("avx2", 512, 768, 3072), None, "wrong class");
        assert_eq!(t.lookup("avx512", 8, 768, 3072), None, "wrong isa");
        assert_eq!(t.lookup("avx2", 8, 768, 768), None, "wrong shape");
    }

    #[test]
    fn pack_lookup_prefers_large_batch_entries() {
        let mut t = TuneTable::new();
        t.push(entry("avx2", MClass::Step, 768, 3072, 32));
        assert_eq!(t.lookup_pack("avx2", 768, 3072).unwrap().mc, 32, "step is the fallback");
        t.push(entry("avx2", MClass::Batch, 768, 3072, 128));
        assert_eq!(t.lookup_pack("avx2", 768, 3072).unwrap().mc, 128, "batch wins");
    }

    #[test]
    fn push_replaces_same_key() {
        let mut t = TuneTable::new();
        t.push(entry("avx2", MClass::Step, 768, 768, 32));
        t.push(entry("avx2", MClass::Step, 768, 768, 128));
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup("avx2", 8, 768, 768).unwrap().mc, 128);
    }

    #[test]
    fn malformed_json_degrades() {
        assert!(TuneTable::from_json("not json at all").is_none());
        // An entries array with one bad and one invalid-spec entry: both
        // dropped, table parses as empty.
        let text = r#"{"entries": [
            {"isa": "avx2", "m_class": "warp", "k": 1, "n": 1, "mc": 64, "kc": 256, "nc": 512, "tuned_ns": 1, "default_ns": 1},
            {"isa": "avx2", "m_class": "step", "k": 1, "n": 1, "mc": 0, "kc": 0, "nc": 0, "tuned_ns": 1, "default_ns": 1}
        ]}"#;
        let t = TuneTable::from_json(text).expect("entries array present");
        assert!(t.is_empty());
    }

    #[test]
    fn candidate_grid_is_valid_and_default_first() {
        for quick in [false, true] {
            let grid = candidates(quick);
            assert_eq!(grid[0], BlockSpec::DEFAULT);
            assert!(grid.iter().all(BlockSpec::is_valid));
            let unique: std::collections::HashSet<_> = grid.iter().collect();
            assert_eq!(unique.len(), grid.len(), "no duplicate candidates");
        }
    }

    #[test]
    fn class_boundaries() {
        assert_eq!(MClass::of(1), MClass::Step);
        assert_eq!(MClass::of(16), MClass::Step);
        assert_eq!(MClass::of(17), MClass::Micro);
        assert_eq!(MClass::of(128), MClass::Micro);
        assert_eq!(MClass::of(129), MClass::Batch);
        for class in [MClass::Step, MClass::Micro, MClass::Batch] {
            assert_eq!(MClass::parse(class.name()), Some(class));
            assert_eq!(MClass::of(class.representative_m()), class);
        }
    }
}
