//! Serial/parallel/planned scheduler equivalence of the one-launch
//! split.
//!
//! Split and compress run as one launch each: MCScan over the mask
//! whose phase II scatters every tile from UB. Their serialized
//! [`ascendc::KernelReport`]s must be byte-identical under the serial
//! baton, the parallel-round scheduler, and a planned replay of every
//! commit order the model checker finds — the same contract the `scan`
//! crate's `sched_equiv` gate holds every scan kernel to. The tiny
//! chip's default `ValidationMode::Full` stays on, so the audits and the
//! critical-path section are compared too.

use ascend_sim::mem::GlobalMemory;
use ascend_sim::sync::GridPlan;
use ascend_sim::{mc, prof, SchedPolicy};
use ascendc::{ChipSpec, GlobalTensor};
use ops::split::reference_split;
use ops::{compress, split_ind};
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

fn assert_equiv(name: &str, op: &dyn Fn(&ChipSpec, &Arc<GlobalMemory>) -> String) {
    let (serial, _) = run(SchedPolicy::Serial, op);
    let (parallel, profile) = run(SchedPolicy::Parallel, op);
    assert_eq!(serial, parallel, "{name}: serial vs parallel");
    assert!(
        parallel.contains("\"critical_path\""),
        "{name}: Full validation should have audited the launch"
    );
    assert_eq!(profile.kernels.len(), 1, "{name} is one launch");
    let r = mc::check(
        &profile.kernels[0].hb_events,
        &mc::McConfig::new(ChipSpec::tiny().ai_cores as usize),
    )
    .unwrap();
    assert!(!r.budget_exhausted && r.deadlocks == 0 && r.diagnostics.is_empty());
    assert!(!r.unique_grid_orders.is_empty());
    for order in &r.unique_grid_orders {
        let plan = GridPlan {
            order: order.clone(),
        };
        let (planned, _) = run(SchedPolicy::Planned(Arc::new(plan)), op);
        assert_eq!(planned, parallel, "{name}: planned replay of {order:?}");
    }
}

/// 3000 values at s = 32: 94 rows over the tiny chip's 4 vector cores,
/// 24 to a core, and the split store's 512-element pieces start both at
/// a segment's offset 0 and inside it.
const N: usize = 3000;

fn inputs() -> (Vec<u16>, Vec<u8>) {
    let vals = (0..N).map(|i| (i * 7919 % 65_521) as u16).collect();
    let mask = (0..N).map(|i| u8::from(i % 3 != 1)).collect();
    (vals, mask)
}

#[test]
fn split_reports_identically_under_serial_parallel_and_planned() {
    assert_equiv("split", &|spec, gm| {
        let (vals, mask) = inputs();
        let x = GlobalTensor::from_slice(gm, &vals).unwrap();
        let m = GlobalTensor::from_slice(gm, &mask).unwrap();
        let run = split_ind(spec, gm, &x, &m, 32).unwrap();
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
    assert_equiv("compress", &|spec, gm| {
        let (vals, mask) = inputs();
        let x = GlobalTensor::from_slice(gm, &vals).unwrap();
        let m = GlobalTensor::from_slice(gm, &mask).unwrap();
        let run = compress(spec, gm, &x, &m, 32).unwrap();
        let (ev, _, ent) = reference_split(&vals, &mask);
        assert_eq!(run.values.to_vec(), &ev[..ent]);
        run.report.to_json(spec)
    });
}
