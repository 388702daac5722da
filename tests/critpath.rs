//! Critical-path (makespan-identity) integration tests: for every
//! shipped scan kernel, the weighted longest path recovered from the
//! recorded timeline must tile `[0, cycles]` exactly — the backward
//! causal walk finds a justification for every cycle of the makespan,
//! and the class attribution sums back to the reported cycle count.

use ascend_scan::dtypes::F16;
use ascend_scan::sim::critpath::CritSummary;
use ascend_scan::sim::prof;
use ascend_scan::sim::ChipSpec;
use ascend_scan::{Device, KernelReport, McScanConfig, ScanCConfig, ScanKind};
use proptest::prelude::*;

/// Asserts the serialized invariants on one kernel's critical path:
/// identity with the reported cycles, exact attribution, share bounds,
/// and the presence of the what-if table.
fn assert_identity(report: &KernelReport) -> CritSummary {
    let cp = report
        .critical_path
        .clone()
        .unwrap_or_else(|| panic!("{}: audited launch has no critical path", report.name));
    assert_eq!(
        cp.makespan, report.cycles,
        "{}: critical-path length != reported cycles",
        report.name
    );
    let sum = cp.launch + cp.busy + cp.flag_wire + cp.chain_wire + cp.barrier_release + cp.hbm;
    assert_eq!(
        sum, cp.makespan,
        "{}: attribution does not sum to the makespan",
        report.name
    );
    assert!(cp.lookback_chain <= cp.makespan);
    assert!(cp.flag_instr + cp.chain_wire >= cp.lookback_chain);
    assert!(
        cp.what_ifs.len() >= 2,
        "{}: need at least two what-if predictions",
        report.name
    );
    for w in &cp.what_ifs {
        assert!(
            w.predicted <= cp.makespan && w.saved + w.predicted == cp.makespan,
            "{}: what-if {} is inconsistent",
            report.name,
            w.name
        );
    }
    cp
}

/// Runs all six shipped scan kernels at one mid-size input and checks
/// the identity on each, plus segment tiling via the profiled path.
#[test]
fn critical_path_length_equals_cycles_for_every_shipped_kernel() {
    let n = 65_536usize;
    let dev = Device::ascend_910b4();
    let spec = dev.spec();
    let data = vec![F16::ONE; n];

    let reports: Vec<KernelReport> = {
        let x = dev.tensor(&data).unwrap();
        let scanc_cfg = ScanCConfig::for_chip::<F16, F16, F16>(spec);
        vec![
            ascend_scan::scan::scanu::<F16, F16>(spec, dev.memory(), &x, 128)
                .unwrap()
                .report,
            ascend_scan::scan::scanul1::<F16, F16>(spec, dev.memory(), &x, 128)
                .unwrap()
                .report,
            ascend_scan::scan::mcscan::mcscan::<F16, F16, F16>(
                spec,
                dev.memory(),
                &x,
                McScanConfig::for_chip(spec),
            )
            .unwrap()
            .report,
            ascend_scan::scan::scanc::scanc::<F16, F16, F16>(spec, dev.memory(), &x, scanc_cfg)
                .unwrap()
                .report,
            ascend_scan::scan::cumsum_vec_only::<F16>(spec, dev.memory(), &x, 128)
                .unwrap()
                .report,
            ascend_scan::scan::batched_scanu::<F16, F16>(spec, dev.memory(), &x, 8, n / 8, 128)
                .unwrap()
                .report,
        ]
    };
    assert_eq!(reports.len(), 6);
    for r in &reports {
        assert_identity(r);
    }
}

/// The profiled path exposes the full segment list: it must tile
/// `[0, cycles]` contiguously with no gaps or overlaps.
#[test]
fn critical_path_segments_tile_the_makespan() {
    let dev = Device::ascend_910b4();
    let data = vec![F16::ONE; 65_536];
    let (report, profile) = prof::with_profiling(dev.memory(), || {
        let x = dev.tensor(&data).unwrap();
        ascend_scan::scan::mcscan::mcscan::<F16, F16, F16>(
            dev.spec(),
            dev.memory(),
            &x,
            McScanConfig::for_chip(dev.spec()),
        )
        .unwrap()
        .report
    });
    let crit = profile.kernels[0]
        .critical_path
        .as_ref()
        .expect("profiled launch records the critical path");
    assert_eq!(crit.summary.makespan, report.cycles);
    let segs = &crit.segments;
    assert!(!segs.is_empty());
    assert_eq!(segs[0].start, 0, "path must start at cycle 0");
    assert_eq!(
        segs.last().unwrap().end,
        report.cycles,
        "path must end at the reported cycle count"
    );
    for w in segs.windows(2) {
        assert_eq!(
            w[0].end, w[1].start,
            "segments must be contiguous: {:?} then {:?}",
            w[0], w[1]
        );
    }
    let total: u64 = segs.iter().map(|s| s.end - s.start).sum();
    assert_eq!(total, report.cycles, "segment lengths must sum to cycles");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Randomized small schedules on the tiny chip: the identity must
    // hold for any block count, tile width, and input length, on both
    // the barrier-based and chained multi-core scans.
    #[test]
    fn makespan_identity_holds_on_random_small_schedules(
        n in 1usize..4096,
        s_idx in 0usize..2,
        blocks in 1u32..=8,
        chained in 0u8..=1,
    ) {
        // The tiny chip's L0C fits at most a 32x32 i32 accumulator tile.
        let s = [16, 32][s_idx];
        let dev = Device::with_spec(ChipSpec::tiny());
        let mask: Vec<u8> = (0..n).map(|i| (i % 3 == 0) as u8).collect();
        let x = dev.tensor(&mask).unwrap();
        let report = if chained == 1 {
            ascend_scan::scan::scanc::scanc::<u8, i16, i32>(
                dev.spec(),
                dev.memory(),
                &x,
                ScanCConfig {
                    s,
                    tiles_per_lane: 1 + (blocks as usize % 4),
                    // The tiny chip's 8 flag ids admit w² ≤ 8 → w ≤ 2.
                    lookback_window: 1 + (blocks as usize % 2),
                    kind: ScanKind::Inclusive,
                },
            ).unwrap().report
        } else {
            ascend_scan::scan::mcscan::mcscan::<u8, i16, i32>(
                dev.spec(),
                dev.memory(),
                &x,
                McScanConfig { s, blocks, kind: ScanKind::Inclusive },
            ).unwrap().report
        };
        let cp = assert_identity(&report);
        prop_assert_eq!(cp.makespan, report.cycles);
    }
}
