//! Criterion benches: host-side throughput of the simulated kernels,
//! one group per paper figure. These measure how fast the *simulator*
//! executes (wall clock), complementing the `figures` binary which
//! reports the *simulated* device times; both matter — the simulator
//! itself must stay fast enough to sweep the paper's parameter ranges.

use ascend_sim::{ChipSpec, ValidationMode};
use ascendc::GlobalTensor;
use bench::{baseline_top_p, fresh_gm, synth_f16, synth_mask, synth_probs};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dtypes::F16;
use ops::{baselines, compress, radix_sort, split_ind, topk, SortOrder};
use scan::mcscan::{mcscan, McScanConfig, ScanKind};
use scan::{batched_scanu, batched_scanul1, cumsum_vec_only, scanu, scanul1};

const N: usize = 1 << 18; // 256 Ki elements per iteration

fn bench_fig3_single_core(c: &mut Criterion) {
    let spec = ChipSpec::ascend_910b4().with_validation(ValidationMode::Cheap);
    let data = vec![F16::ONE; N];
    let mut g = c.benchmark_group("fig3_single_core");
    g.throughput(Throughput::Elements(N as u64));
    g.sample_size(10);
    g.bench_function("vec_only", |b| {
        b.iter(|| {
            let gm = fresh_gm(&spec);
            let x = GlobalTensor::from_slice(&gm, &data).unwrap();
            cumsum_vec_only(&spec, &gm, &x, 128).unwrap()
        })
    });
    g.bench_function("scanu", |b| {
        b.iter(|| {
            let gm = fresh_gm(&spec);
            let x = GlobalTensor::from_slice(&gm, &data).unwrap();
            scanu::<F16, F16>(&spec, &gm, &x, 128).unwrap()
        })
    });
    g.bench_function("scanul1", |b| {
        b.iter(|| {
            let gm = fresh_gm(&spec);
            let x = GlobalTensor::from_slice(&gm, &data).unwrap();
            scanul1::<F16, F16>(&spec, &gm, &x, 128).unwrap()
        })
    });
    g.finish();
}

fn bench_fig5_batched(c: &mut Criterion) {
    let spec = ChipSpec::ascend_910b4().with_validation(ValidationMode::Cheap);
    let (batch, len) = (8usize, 1 << 15);
    let data = vec![F16::ONE; batch * len];
    let mut g = c.benchmark_group("fig5_batched");
    g.throughput(Throughput::Elements((batch * len) as u64));
    g.sample_size(10);
    g.bench_function("batched_scanu", |b| {
        b.iter(|| {
            let gm = fresh_gm(&spec);
            let x = GlobalTensor::from_slice(&gm, &data).unwrap();
            batched_scanu::<F16, F16>(&spec, &gm, &x, batch, len, 128).unwrap()
        })
    });
    g.bench_function("batched_scanul1", |b| {
        b.iter(|| {
            let gm = fresh_gm(&spec);
            let x = GlobalTensor::from_slice(&gm, &data).unwrap();
            batched_scanul1::<F16, F16>(&spec, &gm, &x, batch, len, 128).unwrap()
        })
    });
    g.finish();
}

fn bench_fig8_mcscan(c: &mut Criterion) {
    let spec = ChipSpec::ascend_910b4().with_validation(ValidationMode::Cheap);
    let data = vec![F16::ONE; N];
    let mut g = c.benchmark_group("fig8_mcscan");
    g.throughput(Throughput::Elements(N as u64));
    g.sample_size(10);
    for s in [32usize, 64, 128] {
        g.bench_with_input(BenchmarkId::new("mcscan_fp16", s), &s, |b, &s| {
            b.iter(|| {
                let gm = fresh_gm(&spec);
                let x = GlobalTensor::from_slice(&gm, &data).unwrap();
                mcscan::<F16, F16, F16>(
                    &spec,
                    &gm,
                    &x,
                    McScanConfig {
                        s,
                        blocks: spec.ai_cores,
                        kind: ScanKind::Inclusive,
                    },
                )
                .unwrap()
            })
        });
    }
    g.bench_function("clone", |b| {
        b.iter(|| {
            let gm = fresh_gm(&spec);
            let x = GlobalTensor::from_slice(&gm, &data).unwrap();
            baselines::clone(&spec, &gm, &x).unwrap()
        })
    });
    g.finish();
}

fn bench_fig9_int8(c: &mut Criterion) {
    let spec = ChipSpec::ascend_910b4().with_validation(ValidationMode::Cheap);
    let mask = vec![1u8; N];
    let mut g = c.benchmark_group("fig9_int8");
    g.throughput(Throughput::Elements(N as u64));
    g.sample_size(10);
    g.bench_function("mcscan_int8", |b| {
        b.iter(|| {
            let gm = fresh_gm(&spec);
            let x = GlobalTensor::from_slice(&gm, &mask).unwrap();
            mcscan::<u8, i16, i32>(
                &spec,
                &gm,
                &x,
                McScanConfig {
                    s: 128,
                    blocks: spec.ai_cores,
                    kind: ScanKind::Inclusive,
                },
            )
            .unwrap()
        })
    });
    g.finish();
}

fn bench_fig10_compress(c: &mut Criterion) {
    let spec = ChipSpec::ascend_910b4().with_validation(ValidationMode::Cheap);
    let vals = synth_f16(N, 1);
    let mask = synth_mask(N, 2);
    let mut g = c.benchmark_group("fig10_compress");
    g.throughput(Throughput::Elements(N as u64));
    g.sample_size(10);
    g.bench_function("compress", |b| {
        b.iter(|| {
            let gm = fresh_gm(&spec);
            let x = GlobalTensor::from_slice(&gm, &vals).unwrap();
            let m = GlobalTensor::from_slice(&gm, &mask).unwrap();
            compress(&spec, &gm, &x, &m).unwrap()
        })
    });
    g.bench_function("split_ind", |b| {
        b.iter(|| {
            let gm = fresh_gm(&spec);
            let x = GlobalTensor::from_slice(&gm, &vals).unwrap();
            let m = GlobalTensor::from_slice(&gm, &mask).unwrap();
            split_ind(&spec, &gm, &x, &m).unwrap()
        })
    });
    g.bench_function("masked_select_baseline", |b| {
        b.iter(|| {
            let gm = fresh_gm(&spec);
            let x = GlobalTensor::from_slice(&gm, &vals).unwrap();
            let m = GlobalTensor::from_slice(&gm, &mask).unwrap();
            baselines::masked_select(&spec, &gm, &x, &m).unwrap()
        })
    });
    g.finish();
}

fn bench_fig11_sort(c: &mut Criterion) {
    let spec = ChipSpec::ascend_910b4().with_validation(ValidationMode::Cheap);
    let n = 1 << 16;
    let vals = synth_f16(n, 3);
    let mut g = c.benchmark_group("fig11_sort");
    g.throughput(Throughput::Elements(n as u64));
    g.sample_size(10);
    g.bench_function("radix_sort_f16", |b| {
        b.iter(|| {
            let gm = fresh_gm(&spec);
            let x = GlobalTensor::from_slice(&gm, &vals).unwrap();
            radix_sort::<F16>(&spec, &gm, &x, 1, SortOrder::Ascending).unwrap()
        })
    });
    g.bench_function("sort_baseline", |b| {
        b.iter(|| {
            let gm = fresh_gm(&spec);
            let x = GlobalTensor::from_slice(&gm, &vals).unwrap();
            baselines::sort::<F16>(&spec, &gm, &x, false).unwrap()
        })
    });
    g.finish();
}

fn bench_fig13_topp(c: &mut Criterion) {
    let spec = ChipSpec::ascend_910b4().with_validation(ValidationMode::Cheap);
    let n = 1 << 14;
    let probs = synth_probs(n, 9);
    let mut g = c.benchmark_group("fig13_topp");
    g.throughput(Throughput::Elements(n as u64));
    g.sample_size(10);
    g.bench_function("top_p_ours", |b| {
        b.iter(|| {
            let gm = fresh_gm(&spec);
            let x = GlobalTensor::from_slice(&gm, &probs).unwrap();
            ops::top_p_sample(&spec, &gm, &x, 0.9, 0.37, 128, 1).unwrap()
        })
    });
    g.bench_function("top_p_torch", |b| {
        b.iter(|| {
            let gm = fresh_gm(&spec);
            let x = GlobalTensor::from_slice(&gm, &probs).unwrap();
            baseline_top_p(&spec, &gm, &x, 0.9, 0.37).unwrap()
        })
    });
    g.finish();
}

fn bench_topk(c: &mut Criterion) {
    let spec = ChipSpec::ascend_910b4().with_validation(ValidationMode::Cheap);
    let n = 1 << 16;
    let vals = synth_f16(n, 5);
    let mut g = c.benchmark_group("topk");
    g.throughput(Throughput::Elements(n as u64));
    g.sample_size(10);
    g.bench_function("topk_split_based", |b| {
        b.iter(|| {
            let gm = fresh_gm(&spec);
            let x = GlobalTensor::from_slice(&gm, &vals).unwrap();
            topk::<F16>(&spec, &gm, &x, 256).unwrap()
        })
    });
    g.finish();
}

criterion_group!(
    figures,
    bench_fig3_single_core,
    bench_fig5_batched,
    bench_fig8_mcscan,
    bench_fig9_int8,
    bench_fig10_compress,
    bench_fig11_sort,
    bench_fig13_topp,
    bench_topk,
);
criterion_main!(figures);
