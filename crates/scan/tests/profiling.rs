//! The profiling layer must be strictly observational: running any scan
//! kernel inside [`prof::with_profiling`] has to produce a byte-identical
//! [`KernelReport`] — same cycles, same per-engine busy/stall cycles,
//! same barrier waits — as a plain `launch`. These tests pin that
//! guarantee for every public kernel, and check that the collected
//! profile actually carries the span/stall/counter structure the trace
//! and report tooling rely on.

use ascend_sim::mem::GlobalMemory;
use ascend_sim::{prof, ChipSpec, KernelReport};
use ascendc::GlobalTensor;
use dtypes::F16;
use scan::mcscan::{mcscan, McScanConfig, ScanKind};
use scan::{
    batched_scanu, batched_scanul1, cumsum_vec_only, reduce_cube, reduce_vec, scanu, scanul1,
};
use std::sync::Arc;

const N: usize = 2500;
const S: usize = 16;

fn data() -> Vec<F16> {
    (0..N).map(|i| F16::from_f32((i % 3) as f32)).collect()
}

fn device(spec: &ChipSpec) -> Arc<GlobalMemory> {
    Arc::new(GlobalMemory::new(spec.hbm_capacity))
}

type KernelRunner = (
    &'static str,
    Box<dyn Fn(&ChipSpec, &Arc<GlobalMemory>) -> KernelReport>,
);

/// Every public scan-crate kernel, each against a caller-provided device
/// (so tests can attach a per-launch profile recorder to it).
fn kernels() -> Vec<KernelRunner> {
    vec![
        (
            "cumsum_vec_only",
            Box::new(|spec: &ChipSpec, gm: &Arc<GlobalMemory>| {
                let x = GlobalTensor::from_slice(gm, &data()).unwrap();
                cumsum_vec_only(spec, gm, &x, S).unwrap().report
            }),
        ),
        (
            "scanu",
            Box::new(|spec: &ChipSpec, gm: &Arc<GlobalMemory>| {
                let x = GlobalTensor::from_slice(gm, &data()).unwrap();
                scanu::<F16, F16>(spec, gm, &x, S).unwrap().report
            }),
        ),
        (
            "scanul1",
            Box::new(|spec: &ChipSpec, gm: &Arc<GlobalMemory>| {
                let x = GlobalTensor::from_slice(gm, &data()).unwrap();
                scanul1::<F16, F16>(spec, gm, &x, S).unwrap().report
            }),
        ),
        (
            "mcscan_inclusive",
            Box::new(|spec: &ChipSpec, gm: &Arc<GlobalMemory>| {
                let x = GlobalTensor::from_slice(gm, &data()).unwrap();
                let cfg = McScanConfig {
                    s: S,
                    blocks: spec.ai_cores,
                    kind: ScanKind::Inclusive,
                };
                mcscan::<F16, F16, F16>(spec, gm, &x, cfg).unwrap().report
            }),
        ),
        (
            "mcscan_exclusive",
            Box::new(|spec: &ChipSpec, gm: &Arc<GlobalMemory>| {
                let x = GlobalTensor::from_slice(gm, &data()).unwrap();
                let cfg = McScanConfig {
                    s: S,
                    blocks: spec.ai_cores,
                    kind: ScanKind::Exclusive,
                };
                mcscan::<F16, F16, F16>(spec, gm, &x, cfg).unwrap().report
            }),
        ),
        (
            "batched_scanu",
            Box::new(|spec: &ChipSpec, gm: &Arc<GlobalMemory>| {
                let x = GlobalTensor::from_slice(gm, &data()[..2048]).unwrap();
                batched_scanu::<F16, F16>(spec, gm, &x, 4, 512, S)
                    .unwrap()
                    .report
            }),
        ),
        (
            "batched_scanul1",
            Box::new(|spec: &ChipSpec, gm: &Arc<GlobalMemory>| {
                let x = GlobalTensor::from_slice(gm, &data()[..2048]).unwrap();
                batched_scanul1::<F16, F16>(spec, gm, &x, 4, 512, S)
                    .unwrap()
                    .report
            }),
        ),
        (
            "reduce_cube",
            Box::new(|spec: &ChipSpec, gm: &Arc<GlobalMemory>| {
                let x = GlobalTensor::from_slice(gm, &data()).unwrap();
                reduce_cube::<F16>(spec, gm, &x, S).unwrap().report
            }),
        ),
        (
            "reduce_vec",
            Box::new(|spec: &ChipSpec, gm: &Arc<GlobalMemory>| {
                let x = GlobalTensor::from_slice(gm, &data()).unwrap();
                reduce_vec::<F16>(spec, gm, &x).unwrap().report
            }),
        ),
    ]
}

fn assert_reports_identical(plain: &KernelReport, profiled: &KernelReport, kernel: &str) {
    assert_eq!(plain.cycles, profiled.cycles, "{kernel}: cycles differ");
    assert_eq!(
        plain.engine_busy, profiled.engine_busy,
        "{kernel}: engine busy cycles differ"
    );
    assert_eq!(
        plain.engine_instructions, profiled.engine_instructions,
        "{kernel}: instruction counts differ"
    );
    assert_eq!(
        plain.stalls, profiled.stalls,
        "{kernel}: stall tallies differ"
    );
    assert_eq!(
        plain.barrier_waits, profiled.barrier_waits,
        "{kernel}: barrier waits differ"
    );
    assert_eq!(
        plain.flag_waits, profiled.flag_waits,
        "{kernel}: flag waits differ"
    );
    assert_eq!(
        (plain.bytes_read, plain.bytes_written),
        (profiled.bytes_read, profiled.bytes_written),
        "{kernel}: HBM traffic differs"
    );
    assert_eq!(
        plain.sync_rounds, profiled.sync_rounds,
        "{kernel}: sync rounds differ"
    );
}

#[test]
fn profiling_never_changes_a_simulated_cycle() {
    let spec = ChipSpec::tiny();
    for (name, run) in kernels() {
        let plain = run(&spec, &device(&spec));
        let gm = device(&spec);
        let (profiled, profile) = prof::with_profiling(&gm, || run(&spec, &gm));
        assert_reports_identical(&plain, &profiled, name);
        assert_eq!(profile.kernels.len(), 1, "{name}: one launch, one profile");
        let k = &profile.kernels[0];
        assert_eq!(k.cycles, plain.cycles, "{name}: profile cycles match");
        assert_eq!(k.stalls, plain.stalls, "{name}: profile stalls match");
        assert!(!k.events.is_empty(), "{name}: engine events recorded");
        assert!(!k.spans.is_empty(), "{name}: named spans recorded");
        // A second profiled run is bit-stable too (determinism).
        let gm = device(&spec);
        let (again, _) = prof::with_profiling(&gm, || run(&spec, &gm));
        assert_reports_identical(&profiled, &again, name);
    }
}

#[test]
fn back_to_back_launches_never_share_a_span_tree() {
    // Regression for the thread-local collector this recorder replaced:
    // two sequential profiled launches on the same host thread must each
    // collect exactly their own kernel, and a recorder attached to one
    // memory must never capture launches on another.
    let spec = ChipSpec::tiny();
    let gm1 = device(&spec);
    let gm2 = device(&spec);
    let rec1 = gm1.attach_profiler();

    let x1 = GlobalTensor::from_slice(&gm1, &data()).unwrap();
    scanu::<F16, F16>(&spec, &gm1, &x1, S).unwrap();
    // A launch on a different memory, same thread: must not land in rec1.
    let x2 = GlobalTensor::from_slice(&gm2, &data()).unwrap();
    mcscan::<F16, F16, F16>(
        &spec,
        &gm2,
        &x2,
        McScanConfig {
            s: S,
            blocks: spec.ai_cores,
            kind: ScanKind::Inclusive,
        },
    )
    .unwrap();

    let first = rec1.take();
    assert_eq!(first.kernels.len(), 1, "rec1 sees only its own launch");
    assert_eq!(first.kernels[0].name, "ScanU");

    // Back-to-back scopes on the same thread and memory: disjoint span
    // trees, nothing leaks from the first into the second.
    gm1.detach_profiler();
    let (_, p1) = prof::with_profiling(&gm1, || scanu::<F16, F16>(&spec, &gm1, &x1, S).unwrap());
    let (_, p2) = prof::with_profiling(&gm1, || scanul1::<F16, F16>(&spec, &gm1, &x1, S).unwrap());
    assert_eq!(p1.kernels.len(), 1);
    assert_eq!(p2.kernels.len(), 1);
    assert_eq!(p1.kernels[0].name, "ScanU");
    assert_eq!(p2.kernels[0].name, "ScanUL1");
}

#[test]
fn mcscan_profile_carries_phases_stalls_and_counters() {
    let spec = ChipSpec::tiny();
    let gm = device(&spec);
    let x = GlobalTensor::from_slice(&gm, &data()).unwrap();
    let cfg = McScanConfig {
        s: S,
        blocks: spec.ai_cores,
        kind: ScanKind::Inclusive,
    };
    let (run, profile) = prof::with_profiling(&gm, || {
        mcscan::<F16, F16, F16>(&spec, &gm, &x, cfg).unwrap()
    });
    assert_eq!(profile.kernels.len(), 1);
    let k = &profile.kernels[0];

    // The paper's phase structure is visible as named block-scoped spans.
    let phase_names: Vec<&str> = k
        .spans
        .iter()
        .filter(|s| s.core == prof::BLOCK_SCOPE)
        .map(|s| s.name)
        .collect();
    for expected in ["Phase I", "SyncAll", "Phase II"] {
        assert!(
            phase_names.contains(&expected),
            "missing phase span {expected:?}, got {phase_names:?}"
        );
    }
    // Tile spans carry structured args and sit below the phases.
    let tiles: Vec<_> = k.spans.iter().filter(|s| s.name == "tile").collect();
    assert!(!tiles.is_empty(), "tile spans recorded");
    assert!(tiles.iter().all(|s| s.depth >= 2));
    assert!(tiles.iter().any(|s| {
        s.args
            .is_some_and(|a| a.bytes > 0 && !a.kind.is_empty() && a.queue_depth > 0)
    }));
    // All spans are well-formed intervals within the launch.
    assert!(k
        .spans
        .iter()
        .all(|s| s.start <= s.end && s.end <= k.cycles));

    // Stall intervals are attributed per engine, and the per-round
    // barrier waits cover MCScan's one explicit SyncAll plus the final
    // implicit alignment.
    assert!(!k.stall_events.is_empty(), "stall intervals recorded");
    assert_eq!(run.report.sync_rounds, 1);
    assert_eq!(run.report.barrier_waits.len(), 2);
    assert_eq!(run.report.flag_waits.len(), 2);
    assert!(run.report.stalls.total_idle() > 0);

    // Named TQue occupancy counters made it across the queue boundary.
    assert!(!k.counters.is_empty(), "queue occupancy counters recorded");
    assert!(k.counters.iter().any(|c| c.name.contains("UB")));
    assert!(k.counters.iter().any(|c| c.value > 0));

    // And the Perfetto export carries all of it.
    let json = profile.to_chrome_json();
    for needle in [
        "Phase I",
        "Phase II",
        "SyncAll",
        "wait:dep",
        "wait:barrier",
        "wait:flag",
        "\"ph\":\"C\"",
    ] {
        assert!(json.contains(needle), "chrome trace missing {needle:?}");
    }
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

#[test]
fn kernel_report_json_has_the_stable_schema() {
    let spec = ChipSpec::tiny();
    let gm = device(&spec);
    let x = GlobalTensor::from_slice(&gm, &data()).unwrap();
    let run = scanu::<F16, F16>(&spec, &gm, &x, S).unwrap();
    let json = run.report.to_json(&spec);
    for key in [
        "\"name\":",
        "\"blocks\":",
        "\"cycles\":",
        "\"time_us\":",
        "\"gbps\":",
        "\"traffic_gbps\":",
        "\"gelems\":",
        "\"fraction_of_peak\":",
        "\"barrier_wait_cycles\":",
        "\"flag_wait_cycles\":",
        "\"engines\":",
        "\"CUBE\":",
        "\"VEC\":",
        "\"busy_cycles\":",
        "\"stall_dependency\":",
        "\"stall_contention\":",
        "\"stall_barrier\":",
        "\"stall_flag\":",
        "\"utilization\":",
    ] {
        assert!(json.contains(key), "report JSON missing {key}");
    }
}
