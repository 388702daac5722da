//! The simulator must be bit- and cycle-deterministic: kernel results
//! and simulated timings cannot depend on host thread scheduling, even
//! though blocks execute on real OS threads.

use ascend_scan::dtypes::F16;
use ascend_scan::ops::SortOrder;
use ascend_scan::{Device, KernelReport};

fn report_fingerprint(r: &KernelReport) -> (u64, u64, u64, [u64; 7]) {
    (r.cycles, r.bytes_read, r.bytes_written, r.engine_busy)
}

#[test]
fn mcscan_timing_is_reproducible() {
    let run = || {
        let dev = Device::ascend_910b4();
        let xs: Vec<F16> = (0..300_000)
            .map(|i| F16::from_f32((i % 2) as f32))
            .collect();
        let x = dev.tensor(&xs).unwrap();
        let r = dev.cumsum(&x).unwrap();
        (report_fingerprint(&r.report), r.y.to_vec())
    };
    let (fp1, y1) = run();
    let (fp2, y2) = run();
    assert_eq!(
        fp1, fp2,
        "simulated cycles/traffic must not vary across runs"
    );
    assert_eq!(y1, y2, "functional output must be deterministic");
}

#[test]
fn multi_kernel_operator_is_reproducible() {
    let run = || {
        let dev = Device::ascend_910b4();
        let vals: Vec<F16> = (0..80_000)
            .map(|i| F16::from_f32((((i as u64).wrapping_mul(2654435761) as usize) % 1000) as f32))
            .collect();
        let x = dev.tensor(&vals).unwrap();
        let r = dev.sort(&x, SortOrder::Ascending).unwrap();
        (
            report_fingerprint(&r.report),
            r.values.to_vec(),
            r.indices.to_vec(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
}

#[test]
fn timing_is_independent_of_memory_history() {
    // The same kernel on a device that previously ran other work must
    // report the same simulated time (per-launch segment accounting).
    let xs: Vec<F16> = (0..200_000)
        .map(|i| F16::from_f32((i % 3) as f32))
        .collect();

    let dev_fresh = Device::ascend_910b4();
    let x = dev_fresh.tensor(&xs).unwrap();
    let fresh = dev_fresh.cumsum(&x).unwrap().report;

    let dev_used = Device::ascend_910b4();
    // Warm the device with unrelated launches first.
    for _ in 0..3 {
        let w = dev_used.tensor(&xs).unwrap();
        dev_used.cumsum(&w).unwrap();
    }
    let x2 = dev_used.tensor(&xs).unwrap();
    let used = dev_used.cumsum(&x2).unwrap().report;

    assert_eq!(
        fresh.cycles, used.cycles,
        "prior launches must not leak into timing"
    );
    assert_eq!(fresh.bytes_read, used.bytes_read);
}

#[test]
fn oversubscribed_scanc_is_reproducible_byte_for_byte() {
    // ScanC with tiles_per_lane = 1 launches far more blocks than the
    // chip has AI cores, so the cooperative scheduler wave-multiplexes
    // slots and the grid-flag look-back chain spans waves. The full
    // JSON report (cycles, stalls, per-engine counters) and the output
    // must still be identical across runs despite real OS threads.
    use ascend_scan::{ScanCConfig, ScanKind};
    let run = || {
        let dev = Device::ascend_910b4();
        // 92 tiles of 128² elements → 92 lanes → 46 blocks on 20 cores.
        let mask: Vec<u8> = (0..1_500_000).map(|i| (i % 3 == 0) as u8).collect();
        let m = dev.tensor(&mask).unwrap();
        let r = ascend_scan::scan::scanc::scanc::<u8, i16, i32>(
            dev.spec(),
            dev.memory(),
            &m,
            ScanCConfig {
                s: 128,
                tiles_per_lane: 1,
                lookback_window: 4,
                kind: ScanKind::Inclusive,
            },
        )
        .unwrap();
        assert!(
            r.report.blocks > dev.spec().ai_cores,
            "config must oversubscribe ({} blocks on {} cores)",
            r.report.blocks,
            dev.spec().ai_cores
        );
        (r.report.to_json(dev.spec()), r.y.to_vec())
    };
    let (json1, y1) = run();
    let (json2, y2) = run();
    assert_eq!(json1, json2, "oversubscribed report must be byte-identical");
    assert_eq!(y1, y2);
}

#[test]
fn block_count_changes_timing_but_not_results() {
    use ascend_scan::{McScanConfig, ScanKind};
    let dev = Device::ascend_910b4();
    let mask: Vec<u8> = (0..150_000).map(|i| (i % 2) as u8).collect();
    let m = dev.tensor(&mask).unwrap();
    let mut outs = Vec::new();
    let mut cycles = Vec::new();
    for blocks in [1u32, 4, 20] {
        let r = ascend_scan::scan::mcscan::mcscan::<u8, i16, i32>(
            dev.spec(),
            dev.memory(),
            &m,
            McScanConfig {
                s: 128,
                blocks,
                kind: ScanKind::Inclusive,
            },
        )
        .unwrap();
        outs.push(r.y.to_vec());
        cycles.push(r.report.cycles);
    }
    assert_eq!(outs[0], outs[1]);
    assert_eq!(outs[1], outs[2]);
    assert!(
        cycles[0] > cycles[2],
        "20 blocks should beat 1 block at this size ({} vs {})",
        cycles[0],
        cycles[2]
    );
}
