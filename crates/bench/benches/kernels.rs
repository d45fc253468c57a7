//! Naive-vs-tiled-vs-threaded comparison of the tensor compute backend.
//!
//! Benchmarks the packed GEMM engine (`lancet_tensor::gemm`) against the
//! retained naive reference kernel on GPT2-S-MoE-sized operands (hidden
//! 768, FFN 3072), asserts the engines are bit-identical on the benched
//! operands, times prepacked products at every row remainder of the
//! 4-row register tile against whole tiles, times GELU and GELU-grad on
//! `lancet_tensor::det::tanh` against the platform libm's `tanhf`, times
//! `TensorRng::normal` against the scalar loop it replaced, and
//! records the measured speedups to
//! `results/BENCH_kernels.json` so the comparison is a tracked artifact
//! (like the fig15 engine table). The table is reproduced and discussed
//! in EXPERIMENTS.md.
//!
//! Run modes:
//!
//! * `cargo bench -p lancet-bench --bench kernels` — full run, writes the
//!   JSON artifact.
//! * `cargo bench -p lancet-bench --bench kernels -- --quick` — smoke run
//!   for `scripts/verify.sh`: fewer samples, no artifact, but the
//!   bit-identity checks and the conservative speedup floors still apply.

use lancet_bench::{interleaved, Json, Summary};
use lancet_tensor::gemm;
use lancet_tensor::pool::default_workers;
use lancet_tensor::{PackedTensor, Tensor, TensorRng};

/// GPT2-S-MoE FFN shapes: token rows × hidden, hidden × FFN.
const TOKENS: usize = 512;
const HIDDEN: usize = 768;
const FFN: usize = 3072;
/// Decode-step token rows: a handful of single-token sequences, the
/// steady-state serving shape where per-call weight packing dominates.
const STEP_TOKENS: usize = 8;
/// Decode-step row counts against a prepacked `384 × 1536` weight (the
/// `decode` workload's FFN): 8 and 16 fill whole 4-row register tiles,
/// 1, 3, 7 and 13 end on a partial one, as a short continuous-batching
/// step or an uneven partition chunk does.
const ODD_ROWS: [usize; 6] = [1, 3, 7, 8, 13, 16];
const ODD_K: usize = 384;
const ODD_N: usize = 1536;
/// Samples per side for the odd-row group (~0.3 ms per 8-row call).
const ODD_SAMPLES: usize = 60;
/// Ceiling on the paired median ratio `t(7 rows) / t(8 rows)`, enforced
/// in both modes: a partial register tile runs the same sweep as a full
/// one, so 7 rows must cost no more than 8 plus noise. With a separate
/// remainder kernel this ratio read 2.4–3.3x.
const MAX_ODD_ROW_RATIO: f64 = 1.25;
/// Expert-parallel batched shapes: experts × capacity × hidden.
const EXPERTS: usize = 8;
const CAPACITY: usize = 64;
/// The expert buffer the `serve` workload multiplies: 2 experts with
/// capacity equal to the 64 tokens of a micro-batch, so under top-1
/// routing each expert holds about half filled rows and half the zero
/// padding `dispatch` writes.
const PADDED_EXPERTS: usize = 2;
const PADDED_FILLED: usize = CAPACITY / 2;
/// The `train` workload's expert backward `dY · Wᵀ`: per expert, an
/// `(80, 512)` output-gradient slice against the transpose of a
/// `(128, 512)` weight slice.
const TRANSPOSED: [usize; 4] = [2, 80, 512, 128];

/// Speedup floor enforced in both modes; the recorded full-run number is
/// expected to be well above this (see EXPERIMENTS.md).
const MIN_SPEEDUP: f64 = 3.0;
/// Floor for prepacked weight panels at the decode-step shape: reusing a
/// resident pack must beat repacking `B` on every call. At `m = 8` the
/// pack traverses `k·n` elements while the multiply does only `8·k·n`
/// MACs, so skipping it is a large, core-count-independent win; the floor
/// is set conservatively for noisy CI machines.
const MIN_PREPACK_SPEEDUP: f64 = 1.15;
/// Floor for the all-zero row-group skip: a half-padded expert buffer must
/// multiply at least this much faster than a dense one of the same shape
/// (half the multiply-adds are skipped; the recorded run is well above).
const MIN_PADDED_SPEEDUP: f64 = 1.3;
/// Samples per side for the padded-vs-dense ratio (~25 ms per dense
/// call). The gate reads the median of the per-round ratios
/// ([`Summary::median_ratio`]): min over min pairs calls from different
/// rounds and moves with the host. On a shared 2-core AVX-512 host, 38
/// quick runs read 1.41–2.14x min over min; 28 of them read 1.60–1.76x
/// as the paired median.
const PADDED_SAMPLES: usize = 20;
/// Samples per side for the transposed batched rows (~2 ms per naive
/// call).
const TRANSPOSED_SAMPLES: usize = 30;
/// Floor for the transposed batched product against the naive kernel on
/// a materialized transpose, enforced in both modes. Reading `Bᵀ` inside
/// the packing copy must keep the packed engine well ahead; quick runs on
/// a busy 2-core host ranged 3.1–5.6x, so the floor leaves room for noise.
const MIN_TRANSPOSED_SPEEDUP: f64 = 2.0;
/// GELU operands: 48 rows of the `train` workload's 512-wide expert FFN
/// activations. At 24,576 elements the op stays below the tensor
/// backend's chunk-parallel threshold, so both sides run on one thread.
const GELU_SHAPE: [usize; 2] = [48, 512];
/// Samples per side for the GELU rows (~0.6 ms per libm call).
const GELU_SAMPLES: usize = 30;
/// Floor for `det::tanh`-based GELU and GELU-grad against the same
/// formulas on the platform libm's `tanhf`, enforced in both modes. Quick
/// runs on a 2-core AVX-512 host measured 6.3–7.2x for both ops; the
/// floor is under half the lowest, for noisy CI machines.
const MIN_GELU_SPEEDUP: f64 = 3.0;
/// Weight-initialization rows: one GPT2-S FFN weight drawn by
/// `TensorRng::normal` (SIMD lanes of independent elements) against the
/// one-draw-at-a-time loop it replaced.
const INIT_SHAPE: [usize; 2] = [HIDDEN, FFN];
/// Samples per side for the init rows (~60 ms per scalar call).
const INIT_SAMPLES: usize = 10;
/// Floor for lane-parallel normals over the scalar loop, min over min,
/// enforced in both modes when `detected_isa()` is AVX-512 (other ISAs
/// run narrower lanes, and are only checked for bit-identity).
const MIN_INIT_SPEEDUP: f64 = 1.5;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // Every group samples its sides alternately (see `interleaved`).
    let samples = if quick { 3 } else { 10 };

    let mut rng = TensorRng::seed(42);
    let a = rng.uniform(vec![TOKENS, HIDDEN], -1.0, 1.0);
    let b = rng.uniform(vec![HIDDEN, FFN], -1.0, 1.0);
    let xe = rng.uniform(vec![EXPERTS, CAPACITY, HIDDEN], -1.0, 1.0);
    let we = rng.uniform(vec![EXPERTS, HIDDEN, FFN], -1.0, 1.0);

    // The determinism contract, checked on the exact benched operands:
    // tiled and threaded results must equal the naive reference bit for
    // bit, for any worker count.
    let naive = gemm::matmul_reference(&a, &b, false, false).unwrap();
    for workers in [1, 2, 0] {
        let tiled = gemm::matmul_tiled(&a, &b, false, false, workers).unwrap();
        assert_eq!(naive.data(), tiled.data(), "matmul not bit-identical (workers={workers})");
    }
    let naive_batched = gemm::batched_matmul_reference(&xe, &we).unwrap();
    for workers in [1, 2, 0] {
        let tiled = gemm::batched_matmul_t(&xe, &we, false, false, workers).unwrap();
        assert_eq!(
            naive_batched.data(),
            tiled.data(),
            "batched_matmul not bit-identical (workers={workers})"
        );
    }
    // Prepacked weight panels must also be bit-identical — packing moves
    // elements, never reassociates the accumulation.
    let a_step = rng.uniform(vec![STEP_TOKENS, HIDDEN], -1.0, 1.0);
    let packed_b = PackedTensor::pack(&b, false).unwrap();
    let packed_we = PackedTensor::pack_batched(&we).unwrap();
    let step_ref = gemm::matmul_reference(&a_step, &b, false, false).unwrap();
    assert_eq!(
        step_ref.data(),
        gemm::matmul_packed(&a_step, &packed_b, false, 1).unwrap().data(),
        "prepacked step matmul not bit-identical"
    );
    assert_eq!(
        naive.data(),
        gemm::matmul_packed(&a, &packed_b, false, 1).unwrap().data(),
        "prepacked batch matmul not bit-identical"
    );
    assert_eq!(
        naive_batched.data(),
        gemm::batched_matmul_packed(&xe, &packed_we, 1).unwrap().data(),
        "prepacked batched matmul not bit-identical"
    );
    // Capacity padding: the zero rows of each expert's buffer are skipped
    // by the packed kernel, bit-identically.
    let xp_dense = rng.uniform(vec![PADDED_EXPERTS, CAPACITY, HIDDEN], -1.0, 1.0);
    let mut xp_padded = xp_dense.clone();
    for slice in xp_padded.data_mut().chunks_mut(CAPACITY * HIDDEN) {
        slice[PADDED_FILLED * HIDDEN..].fill(0.0);
    }
    let wp = rng.uniform(vec![PADDED_EXPERTS, HIDDEN, FFN], -1.0, 1.0);
    let packed_wp = PackedTensor::pack_batched(&wp).unwrap();
    assert_eq!(
        gemm::batched_matmul_reference(&xp_padded, &wp).unwrap().data(),
        gemm::batched_matmul_packed(&xp_padded, &packed_wp, 1).unwrap().data(),
        "padded prepacked batched matmul not bit-identical"
    );
    // The transposed batched product reads `Bᵀ` while packing; the naive
    // kernel gets the materialized transpose.
    let [tb_e, tb_m, tb_k, tb_n] = TRANSPOSED;
    let dy = rng.uniform(vec![tb_e, tb_m, tb_k], -1.0, 1.0);
    let w_t = rng.uniform(vec![tb_e, tb_n, tb_k], -1.0, 1.0);
    let w_mat = transpose_slices(&w_t);
    let naive_t = gemm::batched_matmul_reference(&dy, &w_mat).unwrap();
    for workers in [1, 2, 0] {
        assert_eq!(
            naive_t.data(),
            gemm::batched_matmul_t(&dy, &w_t, false, true, workers).unwrap().data(),
            "transposed batched matmul not bit-identical (workers={workers})"
        );
    }
    let w_odd = rng.uniform(vec![ODD_K, ODD_N], -1.0, 1.0);
    let packed_odd = PackedTensor::pack(&w_odd, false).unwrap();
    let x_odd = ODD_ROWS.map(|m| rng.uniform(vec![m, ODD_K], -1.0, 1.0));
    for x in &x_odd {
        assert_eq!(
            gemm::matmul_reference(x, &w_odd, false, false).unwrap().data(),
            gemm::matmul_packed(x, &packed_odd, false, 1).unwrap().data(),
            "prepacked {}-row matmul not bit-identical",
            x.shape()[0]
        );
    }
    println!("bit-identity: naive == tiled == threaded == prepacked (workers 1, 2, auto)\n");

    let matmul = interleaved(
        "matmul_gpt2s_moe",
        samples,
        [
            ("naive", &mut || drop(gemm::matmul_reference(&a, &b, false, false).unwrap())),
            ("tiled", &mut || drop(gemm::matmul_tiled(&a, &b, false, false, 1).unwrap())),
            ("threaded", &mut || drop(gemm::matmul_tiled(&a, &b, false, false, 0).unwrap())),
        ],
    );
    let batched = interleaved(
        "batched_matmul_experts",
        samples,
        [
            ("naive", &mut || drop(gemm::batched_matmul_reference(&xe, &we).unwrap())),
            ("tiled", &mut || drop(gemm::batched_matmul_t(&xe, &we, false, false, 1).unwrap())),
            ("threaded", &mut || drop(gemm::batched_matmul_t(&xe, &we, false, false, 0).unwrap())),
        ],
    );
    // At ~1 ms per call one noisy phase of the host can skew a ratio, so
    // this row takes more samples than the groups above.
    let transposed = interleaved(
        "batched_transposed",
        TRANSPOSED_SAMPLES,
        [
            ("naive", &mut || drop(gemm::batched_matmul_reference(&dy, &w_mat).unwrap())),
            ("tiled", &mut || drop(gemm::batched_matmul_t(&dy, &w_t, false, true, 1).unwrap())),
            ("threaded", &mut || drop(gemm::batched_matmul_t(&dy, &w_t, false, true, 0).unwrap())),
        ],
    );

    // Prepacked panels vs repack-per-call, at the decode-step shape (the
    // steady-state serving hot path, where packing dominates), the full
    // batch shape, and the batched expert stack.
    let step = interleaved(
        "matmul_step_prepack",
        samples,
        [
            ("repack", &mut || drop(gemm::matmul_tiled(&a_step, &b, false, false, 1).unwrap())),
            ("prepacked", &mut || drop(gemm::matmul_packed(&a_step, &packed_b, false, 1).unwrap())),
        ],
    );
    let batch = interleaved(
        "matmul_batch_prepack",
        samples,
        [
            ("repack", &mut || drop(gemm::matmul_tiled(&a, &b, false, false, 1).unwrap())),
            ("prepacked", &mut || drop(gemm::matmul_packed(&a, &packed_b, false, 1).unwrap())),
        ],
    );
    let experts_prepack = interleaved(
        "batched_experts_prepack",
        samples,
        [
            ("repack", &mut || drop(gemm::batched_matmul_t(&xe, &we, false, false, 1).unwrap())),
            ("prepacked", &mut || drop(gemm::batched_matmul_packed(&xe, &packed_we, 1).unwrap())),
        ],
    );

    // Every row remainder of the register tile against whole tiles.
    let odd = |i: usize| drop(gemm::matmul_packed(&x_odd[i], &packed_odd, false, 1).unwrap());
    let odd_rows = interleaved(
        "matmul_odd_rows",
        ODD_SAMPLES,
        [
            ("m1", &mut || odd(0)),
            ("m3", &mut || odd(1)),
            ("m7", &mut || odd(2)),
            ("m8", &mut || odd(3)),
            ("m13", &mut || odd(4)),
            ("m16", &mut || odd(5)),
        ],
    );

    // Dense vs half-padded expert buffers.
    let experts = |x: &Tensor| drop(gemm::batched_matmul_packed(x, &packed_wp, 1).unwrap());
    let padded_rows = interleaved(
        "batched_experts_padded",
        PADDED_SAMPLES,
        [("dense", &mut || experts(&xp_dense)), ("padded", &mut || experts(&xp_padded))],
    );

    // GELU and its gradient: the tensor ops on `det::tanh` against the
    // same formulas on libm's `tanhf`, which must agree within 1e-6.
    let gx = rng.uniform(GELU_SHAPE.to_vec(), -4.0, 4.0);
    let gg = rng.uniform(GELU_SHAPE.to_vec(), -1.0, 1.0);
    assert!(gx.gelu().allclose_with(&gelu_libm(&gx), 1e-6, 1e-6), "gelu drifted from libm");
    assert!(
        gx.gelu_grad(&gg).unwrap().allclose_with(&gelu_grad_libm(&gx, &gg), 1e-6, 1e-6),
        "gelu_grad drifted from libm"
    );
    let gelu = interleaved(
        "gelu",
        GELU_SAMPLES,
        [("libm", &mut || drop(gelu_libm(&gx))), ("det", &mut || drop(gx.gelu()))],
    );
    let gelu_grad = interleaved(
        "gelu_grad",
        GELU_SAMPLES,
        [
            ("libm", &mut || drop(gelu_grad_libm(&gx, &gg))),
            ("det", &mut || drop(gx.gelu_grad(&gg).unwrap())),
        ],
    );

    // Weight initialization: the lane kernels must draw the scalar loop's
    // bits, and advance the generator as far.
    let init_std = 0.02;
    let mut lanes_rng = TensorRng::seed(42);
    let mut scalar_rng = TensorRng::seed(42);
    let drawn = lanes_rng.normal(INIT_SHAPE.to_vec(), init_std);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert!(
        bits(drawn.data()) == bits(normal_scalar(&mut scalar_rng, &INIT_SHAPE, init_std).data())
            && lanes_rng.sample().to_bits() == scalar_rng.sample().to_bits(),
        "TensorRng::normal drifted from the scalar loop"
    );
    let init = interleaved(
        "init_normal",
        INIT_SAMPLES,
        [
            ("scalar", &mut || drop(normal_scalar(&mut TensorRng::seed(42), &INIT_SHAPE, init_std))),
            ("lanes", &mut || drop(TensorRng::seed(42).normal(INIT_SHAPE.to_vec(), init_std))),
        ],
    );

    // Chunk-parallel reduction op, for the where-does-the-time-go story.
    let scores = rng.uniform(vec![TOKENS * 12, TOKENS], -4.0, 4.0);
    let softmax =
        interleaved("softmax", samples, [("attention_sized", &mut || drop(scores.softmax_last()))]);

    // Min-over-min ratio of two rows.
    let speedup = |num: &Summary, den: &Summary| num.min_ns / den.min_ns.max(1.0);
    let tiled_vs_naive = speedup(&matmul[0], &matmul[1]);
    let threaded_vs_naive = speedup(&matmul[0], &matmul[2]);
    let batched_tiled = speedup(&batched[0], &batched[1]);
    let batched_threaded = speedup(&batched[0], &batched[2]);
    let transposed_tiled = speedup(&transposed[0], &transposed[1]);
    let transposed_threaded = speedup(&transposed[0], &transposed[2]);
    let prepack_step = speedup(&step[0], &step[1]);
    let prepack_batch = speedup(&batch[0], &batch[1]);
    let prepack_experts = speedup(&experts_prepack[0], &experts_prepack[1]);
    let padded = speedup(&padded_rows[0], &padded_rows[1]);
    let padded_paired = padded_rows[0].median_ratio(&padded_rows[1]);
    let batch_paired = batch[0].median_ratio(&batch[1]);
    let over_8_rows = odd_rows.iter().map(|row| row.median_ratio(&odd_rows[3])).collect::<Vec<_>>();
    let row7_vs_row8 = over_8_rows[2];
    let gelu_det = speedup(&gelu[0], &gelu[1]);
    let gelu_grad_det = speedup(&gelu_grad[0], &gelu_grad[1]);
    let init_lanes = speedup(&init[0], &init[1]);

    println!();
    println!("speedup over naive (min-of-samples):");
    println!("  matmul  tiled    {tiled_vs_naive:>7.2}x");
    println!("  matmul  threaded {threaded_vs_naive:>7.2}x");
    println!("  batched tiled    {batched_tiled:>7.2}x");
    println!("  batched threaded {batched_threaded:>7.2}x");
    println!("  batched Bᵀ tiled    {transposed_tiled:>7.2}x");
    println!("  batched Bᵀ threaded {transposed_threaded:>7.2}x");
    println!("speedup of prepacked panels over repack-per-call:");
    println!("  step  (m={STEP_TOKENS:<3})   {prepack_step:>7.2}x");
    println!("  batch (m={TOKENS:<3})   {prepack_batch:>7.2}x  (median of rounds {batch_paired:.2}x)");
    println!("  experts (bt={EXPERTS})  {prepack_experts:>7.2}x");
    println!("prepacked {ODD_K}x{ODD_N} time per row count over 8 rows (median of rounds):");
    for (m, ratio) in ODD_ROWS.iter().zip(&over_8_rows) {
        println!("  m={m:<3}            {ratio:>7.2}x");
    }
    println!("speedup of half-padded over dense expert buffers (zero-group skip, median of rounds):");
    println!("  experts (bt={PADDED_EXPERTS})  {padded_paired:>7.2}x");
    println!("speedup of det::tanh over libm tanhf (one thread):");
    println!("  gelu             {gelu_det:>7.2}x");
    println!("  gelu_grad        {gelu_grad_det:>7.2}x");
    println!("speedup of lane-parallel TensorRng::normal over the scalar loop ({}):", gemm::detected_isa());
    println!("  init_normal      {init_lanes:>7.2}x");
    println!("  workers (auto)   {:>7}", default_workers());

    let best = tiled_vs_naive.max(threaded_vs_naive);
    assert!(
        best >= MIN_SPEEDUP,
        "kernel regression: best matmul speedup {best:.2}x < {MIN_SPEEDUP}x floor"
    );
    let best_transposed = transposed_tiled.max(transposed_threaded);
    assert!(
        best_transposed >= MIN_TRANSPOSED_SPEEDUP,
        "transposed batched regression: best speedup {best_transposed:.2}x < \
         {MIN_TRANSPOSED_SPEEDUP}x floor"
    );
    assert!(
        prepack_step >= MIN_PREPACK_SPEEDUP,
        "prepack regression: step-shape prepacked speedup {prepack_step:.2}x < \
         {MIN_PREPACK_SPEEDUP}x floor"
    );
    assert!(
        row7_vs_row8 <= MAX_ODD_ROW_RATIO,
        "remainder-tile regression: 7 rows take {row7_vs_row8:.2}x the time of 8 > \
         {MAX_ODD_ROW_RATIO}x ceiling"
    );
    assert!(
        padded_paired >= MIN_PADDED_SPEEDUP,
        "zero-group skip regression: padded speedup {padded_paired:.2}x < {MIN_PADDED_SPEEDUP}x floor"
    );

    let worst_gelu = gelu_det.min(gelu_grad_det);
    assert!(
        worst_gelu >= MIN_GELU_SPEEDUP,
        "GELU regression: det speedup {worst_gelu:.2}x < {MIN_GELU_SPEEDUP}x floor"
    );

    if gemm::detected_isa() == "avx512" {
        assert!(
            init_lanes >= MIN_INIT_SPEEDUP,
            "init regression: lane-parallel normal speedup {init_lanes:.2}x < {MIN_INIT_SPEEDUP}x floor"
        );
    }

    if !quick {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_kernels.json");
        write_artifact(
            path,
            [
                matmul,
                batched,
                transposed,
                step,
                batch,
                experts_prepack,
                odd_rows,
                padded_rows,
                gelu,
                gelu_grad,
                init,
                softmax,
            ]
            .concat(),
            &[
                ("matmul_tiled_vs_naive", tiled_vs_naive),
                ("matmul_threaded_vs_naive", threaded_vs_naive),
                ("batched_tiled_vs_naive", batched_tiled),
                ("batched_threaded_vs_naive", batched_threaded),
                ("batched_transposed_tiled_vs_naive", transposed_tiled),
                ("batched_transposed_threaded_vs_naive", transposed_threaded),
                ("prepacked_vs_repack_step", prepack_step),
                ("prepacked_vs_repack_batch", prepack_batch),
                ("prepacked_vs_repack_experts", prepack_experts),
                ("padded_vs_dense_experts", padded),
                ("gelu_det_vs_libm", gelu_det),
                ("gelu_grad_det_vs_libm", gelu_grad_det),
                ("init_normal_lanes_vs_scalar", init_lanes),
            ],
            &[
                ("prepacked_vs_repack_batch", batch_paired),
                ("padded_vs_dense_experts", padded_paired),
                ("matmul_1_rows_over_8_rows", over_8_rows[0]),
                ("matmul_3_rows_over_8_rows", over_8_rows[1]),
                ("matmul_7_rows_over_8_rows", row7_vs_row8),
                ("matmul_13_rows_over_8_rows", over_8_rows[4]),
                ("matmul_16_rows_over_8_rows", over_8_rows[5]),
            ],
        );
        println!("\nwrote {path}");
    }
}

/// `sqrt(2/π)`, the GELU tanh-approximation constant.
const GELU_C: f32 = 0.797_884_6;

/// `Tensor::gelu`'s formula on the platform libm's `tanhf`.
fn gelu_libm(x: &Tensor) -> Tensor {
    let data = x.data().iter().map(|&x| 0.5 * x * (1.0 + (GELU_C * (x + 0.044_715 * x * x * x)).tanh()));
    Tensor::from_vec(x.shape().to_vec(), data.collect()).unwrap()
}

/// `Tensor::gelu_grad`'s formula on the platform libm's `tanhf`.
fn gelu_grad_libm(x: &Tensor, g: &Tensor) -> Tensor {
    let data = x.data().iter().zip(g.data()).map(|(&x, &g)| {
        let t = (GELU_C * (x + 0.044_715 * x * x * x)).tanh();
        g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * GELU_C * (1.0 + 3.0 * 0.044_715 * x * x))
    });
    Tensor::from_vec(x.shape().to_vec(), data.collect()).unwrap()
}

/// `TensorRng::normal`'s former loop: each element sums twelve
/// [`TensorRng::sample`] draws, one at a time.
fn normal_scalar(rng: &mut TensorRng, shape: &[usize], std: f32) -> Tensor {
    let data = (0..shape.iter().product::<usize>()).map(|_| {
        let s: f32 = (0..12).map(|_| rng.sample()).sum();
        (s - 6.0) * std
    });
    Tensor::from_vec(shape.to_vec(), data.collect()).unwrap()
}

/// Materializes the transpose of every `(R, C)` slice of a rank-3 tensor.
fn transpose_slices(x: &Tensor) -> Tensor {
    let (e, r, c) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let mut out = vec![0.0f32; e * r * c];
    for (src, dst) in x.data().chunks(r * c).zip(out.chunks_mut(r * c)) {
        for i in 0..r {
            for j in 0..c {
                dst[j * r + i] = src[i * c + j];
            }
        }
    }
    Tensor::from_vec(vec![e, c, r], out).unwrap()
}

fn write_artifact(path: &str, rows: Vec<Summary>, speedups: &[(&str, f64)], paired: &[(&str, f64)]) {
    let table = |kv: &[(&str, f64)]| Json::obj(kv.iter().map(|&(k, v)| (k, Json::fixed(v, 2)))).expanded();
    let dims = |d: &[usize]| Json::arr(d.iter().map(|&v| v.into()));
    Json::obj([
        ("bench", "kernels".into()),
        (
            "shapes",
            Json::obj([
                ("matmul", dims(&[TOKENS, HIDDEN, FFN])),
                ("step", dims(&[STEP_TOKENS, HIDDEN, FFN])),
                ("odd_rows", dims(&[ODD_K, ODD_N])),
                ("batched", dims(&[EXPERTS, CAPACITY, HIDDEN, FFN])),
                ("padded", dims(&[PADDED_EXPERTS, CAPACITY, HIDDEN, FFN])),
                ("transposed", dims(&TRANSPOSED)),
                ("gelu", dims(&GELU_SHAPE)),
                ("init_normal", dims(&INIT_SHAPE)),
            ]),
        ),
        ("workers_auto", default_workers().into()),
        ("isa", gemm::detected_isa().into()),
        ("avx2", std::arch::is_x86_feature_detected!("avx2").into()),
        ("results", Json::arr(rows.iter().map(Summary::to_json))),
        // One speedup per line: verify.sh greps `prepacked_vs_repack_step`.
        ("speedups_min_over_min", table(speedups)),
        // Median over rounds of the per-round time ratio (`Summary::median_ratio`).
        ("paired_median_ratios", table(paired)),
    ])
    .save(path)
    .expect("write BENCH_kernels.json");
}
