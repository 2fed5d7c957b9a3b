//! Kernel perf recorder: times the GEMM, GELU and conv kernels, then writes
//! `BENCH_kernels.json` (median ns per kernel shape, plus fast-vs-bit-exact
//! speedups) to the repo root so the perf trajectory is recorded in-tree.
//!
//! Run with `cargo run --release --bin bench_kernels`.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use refil_nn::gemm::{gemm, gemm_nt, gemm_tn};
use refil_nn::gemm_fast::{gelu_fast, gemm_fast};
use refil_nn::{kernel_policy, set_kernel_policy, Graph, KernelPolicy, Params, Tensor};

#[derive(serde::Serialize)]
struct KernelRecord {
    name: String,
    shape: String,
    median_ns: u64,
}

#[derive(serde::Serialize)]
struct Speedup {
    name: String,
    baseline: String,
    speedup: f64,
}

#[derive(serde::Serialize)]
struct Report {
    generated_by: String,
    meta: refil_bench::BenchMeta,
    reps: usize,
    kernels: Vec<KernelRecord>,
    speedups: Vec<Speedup>,
}

fn median_block<F: FnMut()>(reps: usize, f: &mut F) -> u64 {
    let mut times: Vec<u64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

const ROUNDS: usize = 5;

fn median_ns<F: FnMut()>(reps: usize, mut f: F) -> u64 {
    for _ in 0..(reps / 10).max(2) {
        f();
    }
    let block = (reps / ROUNDS).max(1);
    (0..ROUNDS)
        .map(|_| median_block(block, &mut f))
        .min()
        .unwrap()
}

/// Time two variants by alternating measurement blocks and keeping each
/// side's best block median. Interleaving means a burst of external CPU
/// contention (this runs on shared machines) skews both sides alike
/// instead of silently inflating whichever variant it landed on.
fn duel_ns<F: FnMut(), G: FnMut()>(reps: usize, mut f: F, mut g: G) -> (u64, u64) {
    for _ in 0..(reps / 10).max(2) {
        f();
        g();
    }
    let block = (reps / ROUNDS).max(1);
    let mut best_f = u64::MAX;
    let mut best_g = u64::MAX;
    for _ in 0..ROUNDS {
        best_f = best_f.min(median_block(block, &mut f));
        best_g = best_g.min(median_block(block, &mut g));
    }
    (best_f, best_g)
}

fn out_path_from_args(args: &[String]) -> String {
    let default = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json").to_string();
    let mut out = default;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(path) => out = path.clone(),
                    None => {
                        eprintln!("bench_kernels: --out needs a path");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                eprintln!(
                    "bench_kernels: unknown argument {other}\nusage: bench_kernels [--out PATH]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_path = out_path_from_args(&args);

    let reps = 200usize;
    let mut rng = StdRng::seed_from_u64(42);
    let mut kernels = Vec::new();
    let mut speedups = Vec::new();

    // GEMM: square stress shape plus the two shapes the quickstart config
    // runs — token projections ([b*t, d] x [d, d]) and the classifier head.
    for (label, m, k, n) in [
        ("128x128x128", 128usize, 128usize, 128usize),
        ("tokens_160x32x32", 160, 32, 32),
        ("classifier_32x32x10", 32, 32, 10),
    ] {
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let mut out = vec![0.0f32; m * n];
        let tiled = median_ns(reps, || {
            out.fill(0.0);
            gemm(a.data(), b.data(), &mut out, m, k, n);
            black_box(out[0]);
        });
        kernels.push(KernelRecord {
            name: "nn/gemm/tiled".into(),
            shape: label.into(),
            median_ns: tiled,
        });

        // Layout-aware backward kernels at the same logical shape.
        let bt = b.transpose_last();
        let at = a.transpose_last();
        let nt = median_ns(reps, || {
            out.fill(0.0);
            gemm_nt(a.data(), bt.data(), &mut out, m, k, n);
            black_box(out[0]);
        });
        let tn = median_ns(reps, || {
            out.fill(0.0);
            gemm_tn(at.data(), b.data(), &mut out, m, k, n);
            black_box(out[0]);
        });
        kernels.push(KernelRecord {
            name: "nn/gemm_nt".into(),
            shape: label.into(),
            median_ns: nt,
        });
        kernels.push(KernelRecord {
            name: "nn/gemm_tn".into(),
            shape: label.into(),
            median_ns: tn,
        });

        // The `KernelPolicy::Fast` FMA/SIMD microkernel at the same shape,
        // dueled against the bit-exact tiled kernel it replaces when the
        // policy is flipped.
        let mut out_fast = vec![0.0f32; m * n];
        let (fast, tiled_again) = duel_ns(
            reps,
            || {
                out_fast.fill(0.0);
                gemm_fast(a.data(), b.data(), &mut out_fast, m, k, n);
                black_box(out_fast[0]);
            },
            || {
                out.fill(0.0);
                gemm(a.data(), b.data(), &mut out, m, k, n);
                black_box(out[0]);
            },
        );
        kernels.push(KernelRecord {
            name: "nn/gemm_fast".into(),
            shape: label.into(),
            median_ns: fast,
        });
        speedups.push(Speedup {
            name: format!("nn/gemm_fast/{label}"),
            baseline: "bit-exact tiled kernel".into(),
            speedup: tiled_again.min(tiled) as f64 / fast as f64,
        });
    }

    // The fast rational-tanh GELU vs the libm forward it replaces under
    // `KernelPolicy::Fast` — one backbone-realistic activation width.
    {
        let len = 160 * 32;
        let src = Tensor::randn(&[len], 1.0, &mut rng);
        let mut out_fast: Vec<f32> = Vec::with_capacity(len);
        let mut out_exact: Vec<f32> = Vec::with_capacity(len);
        let mut libm_gelu = || {
            out_exact.clear();
            const C: f32 = 0.797_884_6;
            out_exact.extend(
                src.data()
                    .iter()
                    .map(|&x| 0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh())),
            );
            black_box(out_exact[0]);
        };
        let (fast, libm) = duel_ns(
            reps,
            || {
                out_fast.clear();
                gelu_fast(src.data(), &mut out_fast);
                black_box(out_fast[0]);
            },
            &mut libm_gelu,
        );
        kernels.push(KernelRecord {
            name: "nn/gelu_fast".into(),
            shape: format!("{len}"),
            median_ns: fast,
        });
        kernels.push(KernelRecord {
            name: "nn/gelu_libm".into(),
            shape: format!("{len}"),
            median_ns: libm,
        });
        speedups.push(Speedup {
            name: "nn/gelu_fast".into(),
            baseline: "libm tanhf gelu forward".into(),
            speedup: libm as f64 / fast as f64,
        });

        // The bit-exact tier's GELU (in-tree lane `tanhf`, same bits as the
        // libm forward) through an inference graph, against the same libm
        // loop.
        let previous = kernel_policy();
        set_kernel_policy(KernelPolicy::BitExact);
        let (exact, libm_again) = duel_ns(
            reps,
            || {
                let g = Graph::inference();
                let y = g.gelu(g.input(&src));
                black_box(g.value(y));
            },
            &mut libm_gelu,
        );
        set_kernel_policy(previous);
        kernels.push(KernelRecord {
            name: "nn/gelu_exact".into(),
            shape: format!("{len}"),
            median_ns: exact,
        });
        speedups.push(Speedup {
            name: "nn/gelu_exact".into(),
            baseline: "libm tanhf gelu forward".into(),
            speedup: libm_again.min(libm) as f64 / exact as f64,
        });
    }

    // conv1d forward (im2col + GEMM) and the full autodiff backward through
    // the same lowering.
    {
        let (b, c_in, l, c_out, k, pad) = (32usize, 4usize, 32usize, 8usize, 5usize, 2usize);
        let shape = "b32_c4x8_l32_k5".to_string();
        let x = Tensor::randn(&[b, c_in, l], 1.0, &mut rng);
        let w = Tensor::randn(&[c_out, c_in, k], 0.5, &mut rng);
        let bias = Tensor::randn(&[c_out], 0.5, &mut rng);
        let fwd = median_ns(reps, || {
            let g = Graph::new();
            let xv = g.constant(x.clone());
            let wv = g.constant(w.clone());
            let bv = g.constant(bias.clone());
            black_box(g.value(g.conv1d(xv, wv, bv, pad)));
        });
        let mut params = Params::new();
        params.insert("x", x.clone(), true);
        params.insert("w", w.clone(), true);
        params.insert("b", bias.clone(), true);
        let bwd = median_ns(reps, || {
            let mut p = params.clone();
            let g = Graph::new();
            let xv = g.param(&p, p.id("x").unwrap());
            let wv = g.param(&p, p.id("w").unwrap());
            let bv = g.param(&p, p.id("b").unwrap());
            let y = g.conv1d(xv, wv, bv, pad);
            let t = g.tanh(y);
            let s = g.sum_all(t);
            g.backward(s, &mut p);
            black_box(&p);
        });
        kernels.push(KernelRecord {
            name: "nn/conv1d_fwd/im2col_gemm".into(),
            shape: shape.clone(),
            median_ns: fwd,
        });
        kernels.push(KernelRecord {
            name: "nn/conv1d_bwd/fwd_bwd_tape".into(),
            shape,
            median_ns: bwd,
        });
    }

    let report = Report {
        generated_by: "cargo run --release --bin bench_kernels".into(),
        meta: refil_bench::BenchMeta::capture(),
        reps,
        kernels,
        speedups,
    };
    for s in &report.speedups {
        println!("{:<40} {:>6.2}x  (vs {})", s.name, s.speedup, s.baseline);
    }
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out_path, json + "\n").expect("write kernels report");
    println!("wrote {out_path}");
}
