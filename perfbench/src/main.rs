//! The repository benchmark: four workloads (`train`, `compile`, `serve`,
//! `decode`) that drive the Lancet crates through their public APIs.
//!
//! ```text
//! lancet-perfbench --workload <train|compile|serve|decode> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics of its workload;
//! with `--trace 1` it times calls into each layer from outside and reports
//! the per-layer metrics instead. Either way the last line of standard
//! output is one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`. A failed correctness check makes the exit code non-zero.
//! See `README.md` beside this crate for the workloads and metrics.

mod compile;
mod decode;
mod report;
mod serve;
mod train;

use report::Outcome;
use std::process::ExitCode;
use std::time::Duration;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed `{value}`"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Compute-pool threads, the caller included. The partition search
/// (compile, and train and serve set-up) resolves its default worker
/// count from the same setting. On a busy two-core host a two-worker
/// search was no faster than one and its compile times spread about
/// four times wider between runs.
const POOL_WORKERS: usize = 1;

/// The traced run: every layer's per-layer metrics, whichever workload
/// is named, so each traced run reports the same metrics. Serve and
/// decode run their closed loops for a quarter of `--seconds` each.
fn trace(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    train::trace(args, &mut out)?;
    compile::trace(&mut out)?;
    serve::trace(args, args.seconds / 4, &mut out)?;
    decode::trace(args, args.seconds / 4, &mut out)?;
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lancet-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run: fn(&Args) -> Result<Outcome, String> = match (args.workload.as_str(), args.trace) {
        (_, true) => trace,
        ("train", false) => train::run,
        ("compile", false) => compile::run,
        ("serve", false) => serve::run,
        ("decode", false) => decode::run,
        (other, false) => {
            eprintln!(
                "lancet-perfbench: unknown workload `{other}` (train, compile, serve, decode)"
            );
            return ExitCode::from(2);
        }
    };

    // The program sees only the benchmark's own settings: drop every
    // inherited LANCET_* knob, then pin the compute pool to the calling
    // thread before any pool exists (it reads LANCET_WORKERS once). Serve
    // and decode add their runtime's own busy thread, so a larger pool
    // would oversubscribe a two-core host.
    for (key, _) in std::env::vars() {
        if key.starts_with("LANCET_") {
            std::env::remove_var(key);
        }
    }
    std::env::set_var("LANCET_WORKERS", POOL_WORKERS.to_string());

    match run(&args) {
        Ok(outcome) => {
            outcome.print(&args);
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("lancet-perfbench: {} failed: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}
