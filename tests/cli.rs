//! End-to-end tests of the `lancet` command-line binary.

use std::process::Command;

fn lancet(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lancet"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_prints_usage() {
    let (ok, stdout, _) = lancet(&["help"]);
    assert!(ok);
    assert!(stdout.contains("usage: lancet"));
    assert!(stdout.contains("--gate"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let (ok, _, stderr) = lancet(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
    assert!(stderr.contains("usage: lancet"));
}

#[test]
fn bad_flag_value_reported() {
    let (ok, _, stderr) = lancet(&["optimize", "--gpus", "soon"]);
    assert!(!ok);
    assert!(stderr.contains("bad --gpus"));
}

#[test]
fn optimize_small_config_reports_passes() {
    let (ok, stdout, stderr) = lancet(&[
        "optimize", "--model", "s", "--layers", "4", "--batch", "8", "--gpus", "16", "--gantt",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("partition pass:"), "{stdout}");
    assert!(stdout.contains("dW schedule pass:"), "{stdout}");
    assert!(stdout.contains("simulated iteration:"), "{stdout}");
    assert!(stdout.contains("compute |"), "missing gantt: {stdout}");
}

#[test]
fn compare_ranks_systems() {
    let (ok, stdout, stderr) = lancet(&[
        "compare", "--model", "s", "--layers", "4", "--batch", "8", "--gpus", "16",
    ]);
    assert!(ok, "stderr: {stderr}");
    for system in ["DeepSpeed", "Tutel", "RAF", "Lancet"] {
        assert!(stdout.contains(system), "{stdout}");
    }
    assert!(stdout.contains("speedup vs best baseline"), "{stdout}");
}

#[test]
fn help_lists_exactly_the_four_tools() {
    let (ok, stdout, _) = lancet(&["help"]);
    assert!(ok);
    let line = stdout.lines().next().expect("usage line");
    let commands = line
        .strip_prefix("usage: lancet <")
        .and_then(|rest| rest.split('>').next())
        .expect("usage line names the commands");
    assert_eq!(commands, "optimize|compare|tune-gemm|pack-model");
}

#[test]
fn removed_bench_subcommands_are_unknown() {
    for cmd in ["serve-bench", "chaos-bench", "placement-bench", "decode-bench", "fleet-bench"] {
        let (ok, _, stderr) = lancet(&[cmd, "--quick"]);
        assert!(!ok, "{cmd} should be gone");
        assert!(stderr.contains("unknown command"), "{cmd}: {stderr}");
    }
}

#[test]
fn pack_model_writes_a_store_that_opens() {
    let path = std::env::temp_dir().join(format!("lancet-cli-pack-{}.lancet", std::process::id()));
    let (ok, stdout, stderr) = lancet(&["pack-model", "--out", path.to_str().expect("utf-8 path")]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("wrote"), "{stdout}");
    let stored = lancet_repro::store::open_store(&path).expect("store opens");
    assert_eq!(stored.devices, 1);
    assert!(!stored.weights[0].is_empty() && !stored.packs[0].is_empty());
    let _ = std::fs::remove_file(&path);
}
