//! Invariants of the performance model that the paper's conclusions
//! rest on: rooflines, scaling directions, and resource-safety checks.

use ascend_scan::dtypes::F16;
use ascend_scan::ops::baselines;
use ascend_scan::scan::mcscan::{mcscan, McScanConfig, ScanKind};
use ascend_scan::scan::scanc::{scanc, ScanCConfig};
use ascend_scan::scan::scanu::scanu;
use ascend_scan::sim::mem::GlobalMemory;
use ascend_scan::{ChipSpec, Device, GlobalTensor};
use std::sync::Arc;

#[test]
fn copy_never_exceeds_memory_bandwidth() {
    let dev = Device::ascend_910b4();
    for n in [1 << 16, 1 << 20, 1 << 23] {
        let x = dev.tensor(&vec![F16::ONE; n]).unwrap();
        let (_, r) = baselines::clone(dev.spec(), dev.memory(), &x).unwrap();
        let limit = dev.spec().l2_bytes_per_sec / 1e9;
        assert!(
            r.traffic_gbps() <= limit * 1.01,
            "clone at N = {n}: {:.0} GB/s exceeds the L2 roofline {:.0}",
            r.traffic_gbps(),
            limit
        );
    }
}

/// Simulated time of an 8M-element fp16 scan (run by `scan`) over that
/// of an 8M-element copy.
fn scan_over_copy_ratio(
    scan: impl Fn(&Device, &GlobalTensor<F16>) -> ascend_scan::KernelReport,
) -> f64 {
    let dev = Device::ascend_910b4();
    let n = 8 << 20;
    let x = dev.tensor(&vec![F16::ONE; n]).unwrap();
    let scan = scan(&dev, &x);
    let x2 = dev.tensor(&vec![F16::ONE; n]).unwrap();
    let (_, copy) = baselines::clone(dev.spec(), dev.memory(), &x2).unwrap();
    scan.time_s() / copy.time_s()
}

#[test]
fn mcscan_is_slower_than_copy_but_same_order() {
    // MCScan moves ~5N element-bytes to copy's 2N: it must be slower
    // than clone, but by a bounded factor once bandwidth-bound.
    let ratio = scan_over_copy_ratio(|dev, x| {
        let cfg = McScanConfig::for_chip(dev.spec());
        mcscan::<F16, F16, F16>(dev.spec(), dev.memory(), x, cfg)
            .unwrap()
            .report
    });
    assert!(
        (1.5..6.0).contains(&ratio),
        "scan/copy time ratio {ratio:.2} outside the 5N/2N neighborhood"
    );
}

#[test]
fn scanc_is_slower_than_copy_but_same_order() {
    // ScanC moves ~4N element-bytes to copy's 2N (no recomputation
    // read): slower than clone, by a smaller bounded factor than MCScan.
    let ratio = scan_over_copy_ratio(|dev, x| {
        let cfg = ScanCConfig::for_chip::<F16, F16, F16>(dev.spec());
        scanc::<F16, F16, F16>(dev.spec(), dev.memory(), x, cfg)
            .unwrap()
            .report
    });
    assert!(
        (1.2..4.8).contains(&ratio),
        "scan/copy time ratio {ratio:.2} outside the 4N/2N neighborhood"
    );
}

#[test]
fn larger_s_is_faster_for_mcscan() {
    // Fig. 8's trend: the matmul tile dimension s = 128 maximizes L0
    // utilization and wins over s = 32.
    let dev = Device::ascend_910b4();
    let n = 4 << 20;
    let mut times = Vec::new();
    for s in [32usize, 64, 128] {
        let x = dev.tensor(&vec![F16::ONE; n]).unwrap();
        let r = mcscan::<F16, F16, F16>(
            dev.spec(),
            dev.memory(),
            &x,
            McScanConfig {
                s,
                blocks: 20,
                kind: ScanKind::Inclusive,
            },
        )
        .unwrap()
        .report;
        times.push(r.time_s());
    }
    assert!(
        times[0] > times[1] && times[1] > times[2],
        "times: {times:?}"
    );
}

#[test]
fn single_core_scan_is_compute_bound_not_bandwidth_bound() {
    // One AI core cannot saturate HBM: ScanU's achieved traffic must sit
    // well under the chip bandwidth.
    let dev = Device::ascend_910b4();
    let n = 2 << 20;
    let x = dev.tensor(&vec![F16::ONE; n]).unwrap();
    let r = scanu::<F16, F16>(dev.spec(), dev.memory(), &x, 128)
        .unwrap()
        .report;
    assert!(
        r.traffic_gbps() < 200.0,
        "one core at {:.0} GB/s?",
        r.traffic_gbps()
    );
}

#[test]
fn scratchpad_budgets_are_enforced_at_128() {
    // s = 128 exactly fills L0A/L0B with double buffering; s = 256 must
    // be rejected by capacity checking, not silently mis-simulated.
    let dev = Device::ascend_910b4();
    let x = dev.tensor(&vec![F16::ONE; 1 << 16]).unwrap();
    let err = mcscan::<F16, F16, F16>(
        dev.spec(),
        dev.memory(),
        &x,
        McScanConfig {
            s: 256,
            blocks: 4,
            kind: ScanKind::Inclusive,
        },
    )
    .err()
    .expect("s = 256 must overflow L0");
    assert!(matches!(
        err,
        ascend_scan::SimError::ScratchpadOverflow { .. }
    ));
}

#[test]
fn global_memory_capacity_is_enforced() {
    let mut spec = ChipSpec::ascend_910b4();
    spec.hbm_capacity = 1 << 20; // 1 MiB device
    let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
    let big = GlobalTensor::<F16>::new(&gm, 1 << 21);
    let err = big.err().expect("allocation beyond HBM capacity must fail");
    assert!(matches!(
        err,
        ascend_scan::SimError::GlobalMemoryExhausted { .. }
    ));
}

// ---------------------------------------------------------------------
// Simcheck failure injection: every sanitizer class must surface at
// `launch()` level with its dedicated `SimError` variant, without any
// per-kernel opt-in (the chip presets default to `ValidationMode::Full`).
// ---------------------------------------------------------------------

use ascend_scan::ascendc::{launch, BlockCtx, ScratchpadKind, TQue};
use ascend_scan::sim::simcheck;
use ascend_scan::sim::EngineKind;
use ascend_scan::{SimError, SimResult};

fn inject(kernel: impl Fn(&mut BlockCtx<'_>) -> SimResult<()> + Sync) -> SimError {
    let spec = ChipSpec::tiny();
    let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
    launch(&spec, &gm, 1, "inject", kernel).expect_err("injected misuse must be detected")
}

#[test]
fn simcheck_detects_use_after_free() {
    let err = inject(|ctx| {
        let v = &mut ctx.vecs[0];
        let t = v.alloc_local::<f32>(ScratchpadKind::Ub, 64)?;
        let mut stale = t.clone();
        v.free_local(t)?;
        v.fill_local(&mut stale, 0, 64, 1.0).map(|_| ())
    });
    assert!(
        matches!(err, SimError::ScratchpadUseAfterFree { .. }),
        "{err}"
    );
}

#[test]
fn simcheck_detects_double_free() {
    let err = inject(|ctx| {
        let v = &mut ctx.vecs[0];
        let t = v.alloc_local::<f32>(ScratchpadKind::Ub, 64)?;
        let dup = t.clone();
        v.free_local(t)?;
        v.free_local(dup)
    });
    assert!(
        matches!(err, SimError::ScratchpadUseAfterFree { .. }),
        "{err}"
    );
}

#[test]
fn simcheck_detects_stale_handle_over_recycled_range() {
    let err = inject(|ctx| {
        let v = &mut ctx.vecs[0];
        let t = v.alloc_local::<f32>(ScratchpadKind::Ub, 64)?;
        let mut stale = t.clone();
        v.free_local(t)?;
        // First-fit recycles the freed range, so the stale handle now
        // aliases a live allocation.
        let _fresh = v.alloc_local::<f32>(ScratchpadKind::Ub, 64)?;
        v.fill_local(&mut stale, 0, 64, 1.0).map(|_| ())
    });
    assert!(matches!(err, SimError::ScratchpadOverlap { .. }), "{err}");
}

#[test]
fn simcheck_detects_queue_underflow() {
    let err = inject(|ctx| {
        let v = &mut ctx.vecs[0];
        let mut q = TQue::<f32>::new(v, ScratchpadKind::Ub, 2, 16)?;
        let _ = q.deque()?;
        Ok(())
    });
    assert!(
        matches!(err, SimError::QueueUnderflow { op: "deque" }),
        "{err}"
    );
}

#[test]
fn simcheck_detects_queue_overflow() {
    let err = inject(|ctx| {
        let v = &mut ctx.vecs[0];
        let mut q = TQue::<f32>::new(v, ScratchpadKind::Ub, 1, 16)?;
        let t = q.alloc_tensor()?;
        q.enque(t)?;
        // A buffer from outside the pool pushes past the configured depth.
        let extra = v.alloc_local::<f32>(ScratchpadKind::Ub, 16)?;
        q.enque(extra)?;
        Ok(())
    });
    assert!(matches!(err, SimError::QueueOverflow { depth: 1 }), "{err}");
}

#[test]
fn simcheck_detects_destroy_with_live_entries() {
    let err = inject(|ctx| {
        let v = &mut ctx.vecs[0];
        let mut q = TQue::<f32>::new(v, ScratchpadKind::Ub, 2, 16)?;
        let t = q.alloc_tensor()?;
        q.enque(t)?;
        q.destroy(v)
    });
    assert!(
        matches!(err, SimError::QueueDestroyLive { in_flight: 1 }),
        "{err}"
    );
}

#[test]
fn simcheck_detects_gm_view_overrun_on_datacopy() {
    let spec = ChipSpec::tiny();
    let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
    let x = GlobalTensor::<f32>::from_slice(&gm, &[1.0f32; 32]).unwrap();
    let err = launch(&spec, &gm, 1, "oob", |ctx| {
        let v = &mut ctx.vecs[0];
        let mut t = v.alloc_local::<f32>(ScratchpadKind::Ub, 64)?;
        // Reads 64 elements through a 32-element GM view.
        v.copy_in(&mut t, 0, &x, 0, 64, &[])?;
        Ok(())
    })
    .expect_err("GM view overrun must be detected");
    assert!(matches!(err, SimError::OutOfBounds { .. }), "{err}");
}

#[test]
fn simcheck_audits_reject_tampered_reports() {
    let spec = ChipSpec::tiny();
    let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
    let x = GlobalTensor::<f32>::from_slice(&gm, &[1.0f32; 64]).unwrap();
    let report = launch(&spec, &gm, 1, "audit", |ctx| {
        let v = &mut ctx.vecs[0];
        let mut t = v.alloc_local::<f32>(ScratchpadKind::Ub, 64)?;
        v.copy_in(&mut t, 0, &x, 0, 64, &[])?;
        v.free_local(t)
    })
    .unwrap();

    // The genuine report reconciles.
    simcheck::audit_report(&report, &spec, report.bytes_read, report.bytes_written).unwrap();

    // An engine busier than `cores x cycles` is impossible.
    let mut busy = report.clone();
    busy.engine_busy[EngineKind::Vec.index()] = u64::MAX / 2;
    let err = simcheck::audit_report(&busy, &spec, report.bytes_read, report.bytes_written)
        .expect_err("impossible busy cycles must be rejected");
    assert!(matches!(err, SimError::AccountingViolation { .. }), "{err}");

    // Claimed traffic must match the global-memory counters.
    let mut traffic = report.clone();
    traffic.bytes_read += 1;
    let err = simcheck::audit_report(&traffic, &spec, report.bytes_read, report.bytes_written)
        .expect_err("unreconciled traffic must be rejected");
    assert!(matches!(err, SimError::AccountingViolation { .. }), "{err}");
}

#[test]
fn l2_boost_appears_below_the_cache_capacity() {
    // The same copy kernel achieves higher bandwidth when the working
    // set fits L2 (Fig. 8's "almost approach the theoretical limit for
    // sizes smaller than the L2 cache").
    let spec = ChipSpec::ascend_910b4();
    let small_n = 4 << 20; // 16 MB working set (2 tensors x 8 MB) << 192 MB L2
    let large_n = 96 << 20; // 384 MB working set >> L2

    let dev = Device::with_spec(spec);
    let x = dev.tensor(&vec![F16::ONE; small_n]).unwrap();
    let (_, small) = baselines::clone(dev.spec(), dev.memory(), &x).unwrap();

    let dev = Device::ascend_910b4();
    let x = dev.tensor(&vec![F16::ONE; large_n]).unwrap();
    let (_, large) = baselines::clone(dev.spec(), dev.memory(), &x).unwrap();

    assert!(
        small.gbps() > large.gbps(),
        "L2-resident copy ({:.0} GB/s) should beat DRAM-bound copy ({:.0} GB/s)",
        small.gbps(),
        large.gbps()
    );
}

#[test]
fn l2_resident_batched_shapes_never_report_over_peak_dram_traffic() {
    // Fig. 12's batched shapes fit comfortably inside the 910B4's
    // 192 MiB L2, so their raw streamed bytes can exceed what the HBM
    // bus could deliver in the same time. The DRAM-attributed figure
    // must stay at or below the HBM peak, with the excess credited to
    // L2 — not reported as impossible over-peak DRAM bandwidth.
    use ascend_scan::scan::batched_scanu;
    let dev = Device::ascend_910b4();
    let hbm_peak = dev.spec().hbm_bytes_per_sec / 1e9;
    let mut saw_l2_excess = false;
    for (batch, len) in [(64usize, 32_768usize), (128, 16_384)] {
        let x = dev.tensor(&vec![F16::ONE; batch * len]).unwrap();
        let r = batched_scanu::<F16, F16>(dev.spec(), dev.memory(), &x, batch, len, 128)
            .unwrap()
            .report;
        assert!(
            r.working_set <= dev.spec().l2_capacity as u64,
            "{batch}x{len}: working set {} spills the {} B L2",
            r.working_set,
            dev.spec().l2_capacity
        );
        let dram = r.dram_traffic_gbps(dev.spec());
        assert!(
            dram <= hbm_peak * 1.0001,
            "{batch}x{len}: DRAM-attributed {dram:.0} GB/s exceeds the {hbm_peak:.0} GB/s peak"
        );
        if r.traffic_gbps() > dram {
            saw_l2_excess = true;
            assert!(
                (r.l2_traffic_gbps(dev.spec()) - (r.traffic_gbps() - dram)).abs() < 1e-6,
                "L2 figure must be exactly the raw-minus-DRAM excess"
            );
        }
    }
    assert!(
        saw_l2_excess,
        "at least one Fig. 12 shape should be served partly from L2"
    );
}

#[test]
fn launch_overhead_dominates_tiny_inputs() {
    // The flat region of Fig. 3's log-log plot: below a few K elements,
    // time is launch-bound and roughly constant.
    let dev = Device::ascend_910b4();
    let t = |n: usize| {
        let x = dev.tensor(&vec![F16::ONE; n]).unwrap();
        dev.cumsum(&x).unwrap().report.time_us()
    };
    let t256 = t(256);
    let t4k = t(4096);
    assert!(
        t4k / t256 < 2.0,
        "sub-launch-size inputs should cost nearly the same ({t256:.1} vs {t4k:.1} us)"
    );
}
