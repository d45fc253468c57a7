#!/usr/bin/env sh
# Full verification gate (see README "Running the test suite").
# Hermetic: no network access required — external dev-deps are vendored.
set -eu
cd "$(dirname "$0")/.."

echo "==> one copy of the FNV-1a and SplitMix64 constants"
# The hashing and PRNG arithmetic lives in lancet_tensor::det; a new
# hand-rolled copy of the FNV offset basis or the SplitMix64 multiplier
# anywhere else in the workspace fails here. perfbench/ is outside the
# search on purpose: its inputs must not depend on the code under test.
if grep -rniE 'cbf2_?9ce4_?8422_?2325|bf58_?476d_?1ce4_?e5b9' crates src tests |
    grep -v '^crates/tensor/src/det\.rs:'; then
    echo "error: hashing/PRNG constants outside crates/tensor/src/det.rs; use lancet_tensor::det" >&2
    exit 1
fi

echo "==> transcendentals come from lancet_tensor::det"
# Kernels call det::exp/tanh/ln, never the platform libm, whose results
# differ between libc versions and would make every value pin depend on
# the host. A libm `exp`, `tanh` or `ln` call in the tensor or exec
# crates outside det.rs fails here.
if grep -rnE '(\.|\bf(32|64)::)(exp|tanh|ln)\(' crates/tensor/src crates/exec/src |
    grep -v '^crates/tensor/src/det\.rs:'; then
    echo "error: libm exp/tanh/ln in a kernel crate; use lancet_tensor::det" >&2
    exit 1
fi

echo "==> one production LANCET_* variable"
# Configuration lives in config fields (docs/CONFIG.md). The only
# environment read in production code is LANCET_WORKERS, in the tensor
# pool; a new env::var/env::var_os of a LANCET_* name anywhere else in
# crates/*/src or src/ fails here. Test-only variables under tests/ stay
# allowed.
if grep -rnE 'env::var(_os)?\([[:space:]]*"LANCET_' crates/*/src src |
    grep -v '^crates/tensor/src/pool\.rs:'; then
    echo "error: LANCET_* environment read outside crates/tensor/src/pool.rs; add a config field" >&2
    exit 1
fi

echo "==> partition candidates are priced in O(segment)"
# The partition search prices thousands of candidates per pass, so
# graph-wide facts are indexed once per pass (PassIndex::new in
# partition/dp.rs) or once per estimator sweep (TimeEstimator::estimate
# and instr_time), and the public infer_axes indexes its own graph. A
# user_positions() or producer_positions() call in any other function of
# these files rebuilds a whole-graph map per candidate and fails here.
if ! awk '
    FNR == 1 { fn = "" }
    /^#\[cfg\(test\)\]/ { nextfile }
    /^[[:space:]]*\/\// { next }
    /^[[:space:]]*(pub(\([a-z]+\))? )?fn [A-Za-z_0-9]+/ {
        fn = $0; sub(/^[[:space:]]*(pub(\([a-z]+\))? )?fn /, "", fn); sub(/[^A-Za-z_0-9].*/, "", fn)
    }
    /(user|producer)_positions\(\)/ {
        file = FILENAME; sub(/.*\//, "", file)
        if (!((file == "dp.rs" && fn == "new") || (file == "axis.rs" && fn == "infer_axes") ||
              (file == "estimate.rs" && (fn == "estimate" || fn == "instr_time")))) {
            printf "%s:%d: in fn %s: %s\n", FILENAME, FNR, fn, $0; bad = 1
        }
    }
    END { exit bad }
' crates/core/src/partition/dp.rs crates/core/src/partition/axis.rs crates/core/src/estimate.rs; then
    echo "error: whole-graph index rebuilt in per-candidate code; index it once per pass" >&2
    exit 1
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo test --doc --workspace"
cargo test --doc --workspace -q

echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --no-deps --workspace"
# Every member crate's docs, not only the root package's: a broken,
# private or ambiguous intra-doc link anywhere in the workspace fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo bench -p lancet-bench --bench kernels -- --quick"
# Smoke run of the compute-backend benchmark: asserts the tiled engine is
# bit-identical to the naive reference and still beats it by the floor in
# EXPERIMENTS.md, that prepacked weight panels beat repack-per-call
# at the decode-step shape, that a 7-row prepacked product takes at most
# 1.25x the time of an 8-row one (remainder tiles run the full-tile
# sweep), that GELU and GELU-grad on det::tanh beat libm's tanhf by
# >= 3x, and that TensorRng::normal's SIMD lanes draw the scalar loop's
# bits (and, on AVX-512 hosts, beat it by >= 1.5x; no artifact is
# written in --quick mode).
cargo bench -p lancet-bench --bench kernels -- --quick

echo "==> committed BENCH_kernels.json records the prepack win"
# The committed artifact must carry the prepacked-vs-repack speedups the
# quick run just gated on; a stale artifact (regenerated before the
# prepack benches existed, or below the floor) fails here. Regenerate
# with: cargo bench -p lancet-bench --bench kernels
awk '
    /"prepacked_vs_repack_step"/ { found = 1; v = $2 + 0
        if (v < 1.15) { printf "error: prepacked_vs_repack_step %.2f < 1.15 floor\n", v; exit 1 } }
    END { if (!found) { print "error: BENCH_kernels.json lacks prepacked_vs_repack_step"; exit 1 } }
' results/BENCH_kernels.json

echo "==> cargo bench -p lancet-bench --bench serve -- --quick"
# Serving floor: micro-batched replies are bit-identical to solo serving,
# steady state through the warm plan cache beats cold optimize-per-request
# by >= 5x, and the open-loop replay hits the cache and loses no response.
cargo bench -p lancet-bench --bench serve -- --quick

echo "==> cargo bench -p lancet-bench --bench decode -- --quick"
# Decode-serving win floor: replays a deterministic open-loop generation
# trace through the lancet-decode runtime under continuous and windowed
# batching; fails unless continuous beats windowed on mean
# time-to-first-token, every stream is gapless, and no token is lost.
cargo bench -p lancet-bench --bench decode -- --quick

echo "==> store round trip (pack → mmap load → bit-identical forward)"
# The on-disk model store gate: every model-zoo variant packs to a store
# file, loads back through the zero-copy path, and must be bit-identical
# to generated weights — raw bits and a full serving forward pass.
cargo test -q --release --test store_roundtrip

echo "==> cargo bench -p lancet-bench --bench fleet -- --quick"
# Fleet scaling floor: a closed burst through 1→4 store-backed replicas
# (a fixed per-batch delay, injected as an always-firing slow worker,
# emulating device time) must reach ≥ 2.5x the
# single-replica throughput at N=4, and the chaos leg (crash the routed
# replica with a full queue) must lose zero admitted tickets.
cargo bench -p lancet-bench --bench fleet -- --quick

echo "==> golden default plan"
# The default training plan for the benchmark config must not move byte
# for byte: serving plan caches and decode snapshots key on its tensor ids.
cargo test -q --release --test end_to_end default_plan_bytes_are_golden

echo "==> results/BENCH_*.json are documented"
# Every committed benchmark artifact must be referenced from
# EXPERIMENTS.md so readers can find the regeneration instructions.
for f in results/BENCH_*.json; do
    base=$(basename "$f")
    if ! grep -q "$base" EXPERIMENTS.md; then
        echo "error: $base is not referenced from EXPERIMENTS.md" >&2
        exit 1
    fi
done

echo "==> verify OK"
