#!/usr/bin/env sh
# Full verification gate (see README "Running the test suite").
# Hermetic: no network access required — external dev-deps are vendored.
set -eu
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo test --doc --workspace"
cargo test --doc --workspace -q

echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

echo "==> cargo bench -p lancet-bench --bench kernels -- --quick"
# Smoke run of the compute-backend benchmark: asserts the tiled engine is
# bit-identical to the naive reference and still beats it by the floor in
# ISSUE/EXPERIMENTS, and that prepacked weight panels beat repack-per-call
# at the decode-step shape (no artifact is written in --quick mode).
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

echo "==> lancet tune-gemm --quick"
# Smoke of the GEMM autotuner: searches the reduced candidate grid on the
# detected ISA (no artifact written). The committed results/TUNE_gemm.json
# is the full-grid table; regenerate with: lancet tune-gemm
./target/release/lancet tune-gemm --quick --samples 1

echo "==> cargo bench -p lancet-bench --bench serve -- --quick"
# Serving floor: micro-batched replies are bit-identical to solo serving,
# steady state through the warm plan cache beats cold optimize-per-request
# by >= 5x, and the open-loop replay hits the cache and loses no response.
cargo bench -p lancet-bench --bench serve -- --quick

echo "==> cargo bench -p lancet-bench --bench placement -- --quick"
# Expert-placement win floor on a skewed (Zipf) routing histogram: the
# optimized placement must move no more inter-node bytes than uniform,
# beat it strictly in simulated step time, the sim replay must be
# bit-identical, and the serving runtime's affinity dispatch must land
# every single-worker request on its preferred worker.
cargo bench -p lancet-bench --bench placement -- --quick

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
# (fixed service floor emulating device time) must reach ≥ 2.5x the
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
