//! Serial/parallel/planned scheduler equivalence of the one-launch
//! split, radix sort, top-p and weighted sampling.
//!
//! Split and compress run as one launch each: phase I counts the mask
//! per chunk and phase II scatters every chunk. Radix sort runs all of
//! its splits in one persistent launch, with one-, two- or four-bit
//! digits whose masks each pass makes from the keys;
//! top-p runs that sort, then the CDF scan, the threshold count and the
//! search in one more launch, and weighted sampling the scan and the
//! search in one launch.
//! Their serialized [`ascendc::KernelReport`]s must be
//! byte-identical under the serial baton, the parallel-round scheduler,
//! and a planned replay of every commit order the model checker finds —
//! the same contract the `scan` crate's `sched_equiv` gate holds every
//! scan kernel to. The tiny chip's default `ValidationMode::Full` stays
//! on, so the audits and the critical-path section are compared too.

use ascend_sim::mem::GlobalMemory;
use ascend_sim::sync::GridPlan;
use ascend_sim::{mc, prof, SchedPolicy};
use ascendc::{ChipSpec, GlobalTensor};
use dtypes::F16;
use ops::split::reference_split;
use ops::{compress, radix_sort, split_ind, top_p_sample, weighted_sample, SortOrder};
use std::sync::Arc;

/// Runs `op` on a fresh tiny-chip device under `policy`; returns its
/// serialized report and the launch profile.
fn run(
    policy: SchedPolicy,
    op: &dyn Fn(&ChipSpec, &Arc<GlobalMemory>) -> String,
) -> (String, prof::Profile) {
    let spec = ChipSpec::tiny().with_scheduler(policy);
    let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
    prof::with_profiling(&gm, || op(&spec, &gm))
}

/// Asserts `op`, `launches` launches, reports identically under every
/// policy, and that the model checker finds each launch clean.
fn assert_equiv(name: &str, launches: usize, op: &dyn Fn(&ChipSpec, &Arc<GlobalMemory>) -> String) {
    let (serial, _) = run(SchedPolicy::Serial, op);
    let (parallel, profile) = run(SchedPolicy::Parallel, op);
    assert_eq!(serial, parallel, "{name}: serial vs parallel");
    assert_eq!(profile.kernels.len(), launches, "{name}: launches");
    assert!(
        profile.kernels.iter().all(|k| k.critical_path.is_some()),
        "{name}: Full validation should have audited every launch"
    );
    // The plan is launch-scoped: the orders of the one launch with grid
    // operations, if any, or one empty plan.
    let mut plans = vec![Vec::new()];
    for k in &profile.kernels {
        let r = mc::check(
            &k.hb_events,
            &mc::McConfig::new(ChipSpec::tiny().ai_cores as usize),
        )
        .unwrap();
        assert!(!r.budget_exhausted && r.deadlocks == 0 && r.diagnostics.is_empty());
        assert!(!r.unique_grid_orders.is_empty());
        if r.unique_grid_orders.iter().any(|o| !o.is_empty()) {
            plans = r.unique_grid_orders;
        }
    }
    for order in plans {
        let plan = GridPlan {
            order: order.clone(),
        };
        let (planned, _) = run(SchedPolicy::Planned(Arc::new(plan)), op);
        assert_eq!(planned, parallel, "{name}: planned replay of {order:?}");
    }
}

/// 3000 values: 750 to each of the tiny chip's 4 vector cores, each
/// chunk one piece of the split's scatter.
const N: usize = 3000;

fn inputs() -> (Vec<u16>, Vec<u8>) {
    let vals = (0..N).map(|i| (i * 7919 % 65_521) as u16).collect();
    let mask = (0..N).map(|i| u8::from(i % 3 != 1)).collect();
    (vals, mask)
}

#[test]
fn split_reports_identically_under_serial_parallel_and_planned() {
    assert_equiv("split", 1, &|spec, gm| {
        let (vals, mask) = inputs();
        let x = GlobalTensor::from_slice(gm, &vals).unwrap();
        let m = GlobalTensor::from_slice(gm, &mask).unwrap();
        let run = split_ind(spec, gm, &x, &m).unwrap();
        let (ev, ei, ent) = reference_split(&vals, &mask);
        assert_eq!(
            (run.values.to_vec(), run.indices.to_vec(), run.n_true),
            (ev, ei, ent)
        );
        run.report.to_json(spec)
    });
}

#[test]
fn compress_reports_identically_under_serial_parallel_and_planned() {
    assert_equiv("compress", 1, &|spec, gm| {
        let (vals, mask) = inputs();
        let x = GlobalTensor::from_slice(gm, &vals).unwrap();
        let m = GlobalTensor::from_slice(gm, &mask).unwrap();
        let run = compress(spec, gm, &x, &m).unwrap();
        let (ev, _, ent) = reference_split(&vals, &mask);
        assert_eq!(run.values.to_vec(), &ev[..ent]);
        run.report.to_json(spec)
    });
}

/// The digit widths the tests cover: the paper's one-bit passes, two-bit
/// passes and the four-bit passes `Device` runs.
const DIGIT_BITS: [u32; 3] = [1, 2, 4];

#[test]
fn sort_reports_identically_under_serial_parallel_and_planned() {
    // 16 one-bit, 8 two-bit or 4 four-bit passes of 600 keys, 150 to a
    // vector core.
    for bits in DIGIT_BITS {
        assert_equiv(&format!("sort {bits} bits"), 1, &|spec, gm| {
            let (vals, _) = inputs();
            let vals = &vals[..600];
            let x = GlobalTensor::from_slice(gm, vals).unwrap();
            let run = radix_sort(spec, gm, &x, bits, SortOrder::Descending).unwrap();
            let mut want = vals.to_vec();
            want.sort_unstable_by(|a, b| b.cmp(a));
            assert_eq!(run.values.to_vec(), want);
            run.report.to_json(spec)
        });
    }
}

#[test]
fn top_p_reports_identically_under_serial_parallel_and_planned() {
    // The sort, then the CDF scan, the threshold count and the CDF
    // search in one launch.
    for bits in DIGIT_BITS {
        assert_equiv(&format!("top-p {bits} bits"), 2, &|spec, gm| {
            let probs: Vec<F16> = (0..500)
                .map(|i| F16::from_f32(if i % 37 == 0 { 0.05 } else { 1e-3 }))
                .collect();
            let x = GlobalTensor::from_slice(gm, &probs).unwrap();
            let run = top_p_sample(spec, gm, &x, 0.9, 0.4, 16, bits).unwrap();
            assert!(probs[run.token as usize] > F16::ZERO);
            run.report.to_json(spec)
        });
    }
}

#[test]
fn weighted_sampling_reports_identically_under_serial_parallel_and_planned() {
    // The CDF scan and the search, in one launch, for fp16 and f32
    // weights.
    let w: Vec<f32> = (0..N).map(|i| ((i * 7919) % 13) as f32).collect();
    assert_equiv("weighted f32", 1, &|spec, gm| {
        let x = GlobalTensor::from_slice(gm, &w).unwrap();
        let run = weighted_sample(spec, gm, &x, 0.6, 16).unwrap();
        assert!(w[run.index] > 0.0);
        run.report.to_json(spec)
    });
    assert_equiv("weighted f16", 1, &|spec, gm| {
        let h: Vec<F16> = w.iter().map(|&v| F16::from_f32(v / 16.0)).collect();
        let x = GlobalTensor::from_slice(gm, &h).unwrap();
        let run = weighted_sample(spec, gm, &x, 0.6, 16).unwrap();
        assert!(h[run.index] > F16::ZERO);
        run.report.to_json(spec)
    });
}
