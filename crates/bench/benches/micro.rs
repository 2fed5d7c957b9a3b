//! Criterion micro-benchmarks for the substrate hot paths: dense linear
//! algebra, attention, the CDAP generator, FINCH clustering, FedAvg, and the
//! DPCL loss. These quantify where a federated round's time goes.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use refil_clustering::{finch, kmeans};
use refil_continual::{Finetune, MethodConfig};
use refil_core::{dpcl_loss, CdapConfig, CdapGenerator, RefFiL, RefFiLConfig};
use refil_data::{DatasetSpec, DomainSpec};
use refil_fed::{fedavg, FdilRunner, IncrementConfig, RunConfig, WeightedUpdate};
use refil_nn::layers::TransformerBlock;
use refil_nn::models::{BackboneConfig, PromptedBackbone};
use refil_nn::{Graph, Params, Tensor};

fn bench_gemm(c: &mut Criterion) {
    use refil_nn::gemm::gemm;
    let mut rng = StdRng::seed_from_u64(7);
    // (label, m, k, n): a square stress shape plus the two shapes the
    // quickstart config actually runs — token projections ([b*t, d] x [d, d])
    // and the classifier head ([b, d] x [d, classes]).
    let shapes = [
        ("128x128x128", 128usize, 128usize, 128usize),
        ("tokens_160x32x32", 160, 32, 32),
        ("classifier_32x32x10", 32, 32, 10),
    ];
    for (label, m, k, n) in shapes {
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let mut out = vec![0.0f32; m * n];
        c.bench_function(&format!("nn/gemm/tiled_{label}"), |bench| {
            bench.iter(|| {
                out.fill(0.0);
                gemm(a.data(), b.data(), &mut out, m, k, n);
                out[0]
            })
        });
    }
}

fn bench_conv1d(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(9);
    let (b, c_in, l, c_out, k, pad) = (32usize, 4usize, 32usize, 8usize, 5usize, 2usize);
    let x = Tensor::randn(&[b, c_in, l], 1.0, &mut rng);
    let w = Tensor::randn(&[c_out, c_in, k], 0.5, &mut rng);
    let bias = Tensor::randn(&[c_out], 0.5, &mut rng);
    c.bench_function("nn/conv1d_fwd/b32_c4x8_l32_k5", |bench| {
        bench.iter(|| {
            let g = Graph::new();
            let xv = g.constant(x.clone());
            let wv = g.constant(w.clone());
            let bv = g.constant(bias.clone());
            g.value(g.conv1d(xv, wv, bv, pad))
        })
    });
    let mut params = Params::new();
    params.insert("x", x.clone(), true);
    params.insert("w", w.clone(), true);
    params.insert("b", bias.clone(), true);
    c.bench_function("nn/conv1d_bwd/b32_c4x8_l32_k5", |bench| {
        bench.iter_batched(
            || params.clone(),
            |mut p| {
                let g = Graph::new();
                let xv = g.param(&p, p.id("x").unwrap());
                let wv = g.param(&p, p.id("w").unwrap());
                let bv = g.param(&p, p.id("b").unwrap());
                let y = g.conv1d(xv, wv, bv, pad);
                let t = g.tanh(y);
                let s = g.sum_all(t);
                g.backward(s, &mut p);
                p
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_attention_forward(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut params = Params::new();
    let blk = TransformerBlock::new(&mut params, "b", 32, 4, &mut rng);
    let x = Tensor::randn(&[32, 9, 32], 1.0, &mut rng);
    c.bench_function("nn/attention_block_fwd_b32_t9_d32", |bench| {
        bench.iter(|| {
            let g = Graph::new();
            let xv = g.constant(x.clone());
            let y = blk.forward(&g, &params, xv);
            g.value(y)
        })
    });
}

fn bench_backbone_step(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let mut params = Params::new();
    let cfg = BackboneConfig::default();
    let model = PromptedBackbone::new(&mut params, "m", cfg, &mut rng);
    let x = Tensor::randn(&[32, cfg.in_dim], 1.0, &mut rng);
    let labels: Vec<usize> = (0..32).map(|i| i % cfg.classes).collect();
    c.bench_function("nn/backbone_fwd_bwd_b32", |bench| {
        bench.iter_batched(
            || params.clone(),
            |mut p| {
                let g = Graph::new();
                let out = model.forward(&g, &p, &x, None);
                let loss = g.cross_entropy(out.logits, &labels);
                g.backward(loss, &mut p);
                p
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_cdap_generate(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let mut params = Params::new();
    let gen = CdapGenerator::new(&mut params, "cdap", CdapConfig::default(), &mut rng);
    let tokens = Tensor::randn(&[32, 5, 32], 1.0, &mut rng);
    c.bench_function("core/cdap_generate_b32", |bench| {
        bench.iter(|| {
            let g = Graph::new();
            let tv = g.constant(tokens.clone());
            let p = gen.generate(&g, &params, tv, 2);
            g.value(p)
        })
    });
}

fn bench_finch(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    // 64 prompts from 4 synthetic domains of dimension 128 (p*d = 4*32).
    let mut points = Vec::new();
    for dom in 0..4 {
        let center = Tensor::randn(&[128], 1.0, &mut rng);
        for _ in 0..16 {
            let noise = Tensor::randn(&[128], 0.1, &mut rng);
            points.push(
                center
                    .data()
                    .iter()
                    .zip(noise.data())
                    .map(|(a, b)| a + b + dom as f32)
                    .collect::<Vec<f32>>(),
            );
        }
    }
    c.bench_function("clustering/finch_64x128", |bench| {
        bench.iter(|| finch(&points))
    });
    c.bench_function("clustering/kmeans_64x128_k4", |bench| {
        bench.iter(|| kmeans(&points, 4, 7, 50))
    });
}

fn bench_fedavg(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let updates: Vec<WeightedUpdate> = (0..10)
        .map(|i| WeightedUpdate {
            flat: Tensor::randn(&[50_000], 1.0, &mut rng).into_vec(),
            weight: 1.0 + i as f32,
        })
        .collect();
    c.bench_function("fed/fedavg_10x50k", |bench| bench.iter(|| fedavg(&updates)));
}

fn bench_dpcl(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(6);
    let u = Tensor::randn(&[32, 128], 1.0, &mut rng);
    let candidates: Vec<Vec<f32>> = (0..40)
        .map(|_| Tensor::randn(&[128], 1.0, &mut rng).into_vec())
        .collect();
    let classes: Vec<usize> = (0..40).map(|i| i % 10).collect();
    let labels: Vec<usize> = (0..32).map(|i| i % 10).collect();
    c.bench_function("core/dpcl_loss_b32_m40", |bench| {
        bench.iter(|| {
            let g = Graph::new();
            let uv = g.constant(u.clone());
            let l = dpcl_loss(&g, uv, &candidates, &classes, &labels, 1, 0.7).unwrap();
            g.value(l)
        })
    });
}

fn bench_span_overhead(c: &mut Criterion) {
    // Telemetry hot-path cost. The disabled rows must be ~free (a None
    // check, no clock read, no allocation): telemetry defaults to disabled
    // in every runner, so its cost is paid by every un-instrumented run.
    // The collecting rows price what `--trace`-style runs add per span.
    use refil_telemetry::Telemetry;
    let disabled = Telemetry::disabled();
    c.bench_function("telemetry/span_overhead/disabled", |bench| {
        bench.iter(|| disabled.span("client:7"))
    });
    c.bench_function("telemetry/counter_overhead/disabled", |bench| {
        bench.iter(|| disabled.counter("wire.model_broadcast_bytes", 128))
    });
    let collecting = Telemetry::collecting();
    c.bench_function("telemetry/span_overhead/collecting", |bench| {
        bench.iter(|| collecting.span("client:7"))
    });
    c.bench_function("telemetry/counter_overhead/collecting", |bench| {
        bench.iter(|| collecting.counter("wire.model_broadcast_bytes", 128))
    });
    // A lane record is the per-item cost inside worker pools. Fresh lane per
    // batch so the preallocated event buffer never reallocates mid-measure.
    let timeline = collecting.timeline();
    c.bench_function("telemetry/lane_record/collecting", |bench| {
        bench.iter_batched(
            || timeline.lane(0),
            |mut lane| {
                let t0 = lane.tick();
                lane.record("eval", Some(3), t0);
                lane
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_round_parallel(c: &mut Criterion) {
    // Full protocol runs of one strategy, sequential vs on 4 workers; the
    // parallel/sequential ratio is the round-loop speedup (results are
    // byte-identical either way, so only wall time differs).
    let dataset = DatasetSpec {
        name: "bench".into(),
        classes: 3,
        feature_dim: 8,
        proto_scale: 2.5,
        within_std: 0.4,
        test_fraction: 0.3,
        signature_dim: 2,
        signature_scale: 0.6,
        domains: vec![
            DomainSpec::new("d0", 400, 0.15, 0.05),
            DomainSpec::new("d1", 400, 0.3, 0.4),
        ],
    }
    .generate(11);
    let method = MethodConfig {
        backbone: BackboneConfig {
            in_dim: 8,
            extractor_width: 16,
            extractor_depth: 1,
            n_patches: 2,
            token_dim: 8,
            heads: 2,
            blocks: 1,
            classes: 3,
            extractor: refil_nn::models::ExtractorKind::ResidualMlp,
        },
        lr: 0.05,
        prompt_len: 2,
        max_tasks: 2,
        ..MethodConfig::default()
    };
    let run_cfg = RunConfig {
        increment: IncrementConfig {
            initial_clients: 8,
            select_per_round: 8,
            increment_per_task: 1,
            transition_fraction: 0.8,
            rounds_per_task: 2,
        },
        local_epochs: 1,
        batch_size: 16,
        quantity_sigma: 0.5,
        eval_batch: 128,
        dropout_prob: 0.0,
        seed: 13,
        threads: 0,
        net: Default::default(),
        wire: Default::default(),
    };
    c.bench_function("fed/round_parallel/threads_1", |bench| {
        bench.iter(|| {
            let mut strat = Finetune::new(method);
            FdilRunner::new(run_cfg)
                .threads(1)
                .run(&dataset, &mut strat)
        })
    });
    c.bench_function("fed/round_parallel/threads_4", |bench| {
        bench.iter(|| {
            let mut strat = Finetune::new(method);
            FdilRunner::new(run_cfg)
                .threads(4)
                .run(&dataset, &mut strat)
        })
    });
}

fn bench_domain_eval(c: &mut Criterion) {
    // The per-domain eval sweep of a trained RefFiL model, serial vs
    // parallel. Both are byte-identical (enforced by tests/contracts.rs);
    // only wall time differs.
    let dataset = DatasetSpec {
        name: "eval".into(),
        classes: 3,
        feature_dim: 8,
        proto_scale: 2.5,
        within_std: 0.4,
        test_fraction: 0.5,
        signature_dim: 2,
        signature_scale: 0.6,
        domains: vec![
            DomainSpec::new("d0", 400, 0.15, 0.05),
            DomainSpec::new("d1", 400, 0.3, 0.4),
        ],
    }
    .generate(11);
    let method = MethodConfig {
        backbone: BackboneConfig {
            in_dim: 8,
            extractor_width: 16,
            extractor_depth: 1,
            n_patches: 2,
            token_dim: 8,
            heads: 2,
            blocks: 1,
            classes: 3,
            extractor: refil_nn::models::ExtractorKind::ResidualMlp,
        },
        lr: 0.05,
        prompt_len: 2,
        max_tasks: 2,
        ..MethodConfig::default()
    };
    let run_cfg = RunConfig {
        increment: IncrementConfig {
            initial_clients: 4,
            select_per_round: 4,
            increment_per_task: 1,
            transition_fraction: 0.8,
            rounds_per_task: 2,
        },
        local_epochs: 1,
        batch_size: 16,
        quantity_sigma: 0.5,
        eval_batch: 16,
        dropout_prob: 0.0,
        seed: 13,
        threads: 0,
        net: Default::default(),
        wire: Default::default(),
    };
    let mut strat = RefFiL::new(RefFiLConfig::new(method));
    let res = FdilRunner::new(run_cfg).run(&dataset, &mut strat);
    let global = res.final_global;
    let last = dataset.num_domains() - 1;
    let serial = FdilRunner::new(run_cfg).threads(1);
    let parallel = FdilRunner::new(run_cfg).threads(4);

    c.bench_function("fed/evaluate/tape_free_serial", |bench| {
        bench.iter(|| serial.evaluate_task(&strat, &global, &dataset, last))
    });
    c.bench_function("fed/evaluate/tape_free_threads_4", |bench| {
        bench.iter(|| parallel.evaluate_task(&strat, &global, &dataset, last))
    });
}

criterion_group! {
    name = micro;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_gemm, bench_conv1d,
        bench_attention_forward, bench_backbone_step,
        bench_cdap_generate, bench_finch, bench_fedavg, bench_dpcl,
        bench_span_overhead, bench_round_parallel, bench_domain_eval
}
criterion_main!(micro);
