//! Property-based integration tests: random inputs through the full
//! device path, checked against host references. Sizes stay moderate so
//! the functional simulation remains fast in debug builds.

use ascend_scan::dtypes::{RadixKey, F16};
use ascend_scan::ops::SortOrder;
use ascend_scan::{Device, McScanConfig, ScanKind};
use proptest::prelude::*;

fn scan_reference(mask: &[u8]) -> Vec<i32> {
    let mut acc = 0;
    mask.iter()
        .map(|&m| {
            acc += i32::from(m);
            acc
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn mcscan_mask_matches_reference(
        mask in proptest::collection::vec(0u8..=1, 1..20_000),
        s_idx in 0usize..3,
        blocks in 1u32..=20,
    ) {
        let s = [32, 64, 128][s_idx];
        let dev = Device::ascend_910b4();
        let m = dev.tensor(&mask).unwrap();
        let r = ascend_scan::scan::mcscan::mcscan::<u8, i16, i32>(
            dev.spec(),
            dev.memory(),
            &m,
            McScanConfig { s, blocks, kind: ScanKind::Inclusive },
        ).unwrap();
        prop_assert_eq!(r.y.to_vec(), scan_reference(&mask));
    }

    #[test]
    fn scanc_matches_reference_and_mcscan(
        mask in proptest::collection::vec(0u8..=1, 1..20_000),
        s_idx in 0usize..3,
        tiles_per_lane in 1usize..=4,
        w_idx in 0usize..3,
    ) {
        let s = [32, 64, 128][s_idx];
        // The 910B4's 16 flag ids admit the full w ∈ {1, 2, 4} range
        // (w² ≤ flag_id_limit).
        let lookback_window = [1, 2, 4][w_idx];
        let dev = Device::ascend_910b4();
        let m = dev.tensor(&mask).unwrap();
        let sc = ascend_scan::scan::scanc::scanc::<u8, i16, i32>(
            dev.spec(),
            dev.memory(),
            &m,
            ascend_scan::ScanCConfig { s, tiles_per_lane, lookback_window, kind: ScanKind::Inclusive },
        ).unwrap();
        prop_assert_eq!(sc.y.to_vec(), scan_reference(&mask));
        let mc = ascend_scan::scan::mcscan::mcscan::<u8, i16, i32>(
            dev.spec(),
            dev.memory(),
            &m,
            McScanConfig { s, blocks: dev.spec().ai_cores, kind: ScanKind::Inclusive },
        ).unwrap();
        prop_assert_eq!(sc.y.to_vec(), mc.y.to_vec());
        // The chained look-back never takes a barrier.
        prop_assert_eq!(sc.report.sync_rounds, 0);
    }

    #[test]
    fn scanc_f16_is_exact_across_the_subnormal_boundary(
        steps in proptest::collection::vec(0u32..=6, 1..300),
        tiles_per_lane in 1usize..=3,
        w_idx in 0usize..3,
    ) {
        // Inputs are multiples of the smallest f16 subnormal (2^-24).
        // The running sum stays below 2048·2^-24 = 2^-13, where every
        // multiple of 2^-24 is exactly representable, so the sequential
        // reference and ScanC's lane-local-scan-plus-offset association
        // must agree bit for bit even as partials cross the
        // subnormal/normal boundary at 2^-14.
        let quantum = f32::powi(2.0, -24);
        let data: Vec<F16> = steps
            .iter()
            .map(|&k| F16::from_f32(k as f32 * quantum))
            .collect();
        let dev = Device::ascend_910b4();
        let x = dev.tensor(&data).unwrap();
        let sc = ascend_scan::scan::scanc::scanc::<F16, F16, F16>(
            dev.spec(),
            dev.memory(),
            &x,
            ascend_scan::ScanCConfig {
                s: 16,
                tiles_per_lane,
                // Multi-hop accumulation uses the same left-associated
                // grouping as the chain, so every window is bit-exact.
                lookback_window: [1, 2, 4][w_idx],
                kind: ScanKind::Inclusive,
            },
        ).unwrap();
        let expect = ascend_scan::scan::reference::inclusive(&data);
        let got: Vec<u16> = sc.y.to_vec().iter().map(|v| v.encode()).collect();
        let want: Vec<u16> = expect.iter().map(|v| v.encode()).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn split_is_a_stable_partition(
        data in proptest::collection::vec(any::<u16>(), 1..8_000),
        seed in any::<u64>(),
    ) {
        let mask: Vec<u8> = data
            .iter()
            .enumerate()
            .map(|(i, _)| ((seed >> (i % 64)) & 1) as u8)
            .collect();
        let dev = Device::ascend_910b4();
        let x = dev.tensor(&data).unwrap();
        let m = dev.tensor(&mask).unwrap();
        let run = dev.split(&x, &m).unwrap();

        let mut expect_vals = Vec::new();
        let mut expect_idx = Vec::new();
        for pass in [1u8, 0u8] {
            for (i, (&v, &mk)) in data.iter().zip(&mask).enumerate() {
                if mk == pass {
                    expect_vals.push(v);
                    expect_idx.push(i as u32);
                }
            }
        }
        prop_assert_eq!(run.values.to_vec(), expect_vals);
        prop_assert_eq!(run.indices.to_vec(), expect_idx);
    }

    #[test]
    fn radix_sort_sorts_any_f16_bits(
        bits in proptest::collection::vec(any::<u16>(), 1..4_000),
    ) {
        let data: Vec<F16> = bits.iter().map(|&b| F16::from_bits(b)).collect();
        let dev = Device::ascend_910b4();
        let x = dev.tensor(&data).unwrap();
        let run = dev.sort(&x, SortOrder::Ascending).unwrap();
        let mut expect = data.clone();
        expect.sort_by(F16::total_cmp);
        let got: Vec<u16> = run.values.to_vec().iter().map(|v| v.encode()).collect();
        let want: Vec<u16> = expect.iter().map(|v| v.encode()).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn compress_equals_host_filter(
        data in proptest::collection::vec(any::<u16>(), 1..10_000),
        flip in any::<u64>(),
    ) {
        let mask: Vec<u8> = data
            .iter()
            .enumerate()
            .map(|(i, &v)| u8::from((v as u64 ^ flip ^ i as u64) & 1 == 1))
            .collect();
        let dev = Device::ascend_910b4();
        let x = dev.tensor(&data).unwrap();
        let m = dev.tensor(&mask).unwrap();
        let run = dev.compress(&x, &m).unwrap();
        let expect: Vec<u16> = data
            .iter()
            .zip(&mask)
            .filter(|&(_, &mk)| mk != 0)
            .map(|(&v, _)| v)
            .collect();
        prop_assert_eq!(run.values.to_vec(), expect);
    }

    #[test]
    fn weighted_sample_respects_the_cdf(
        head in 1u32..100,
        theta in 0.0f64..0.99,
    ) {
        // A distribution with all mass uniformly on the first `head`
        // entries: any draw must land inside the head.
        let n = 5_000usize;
        let mut w = vec![0.0f32; n];
        for slot in w.iter_mut().take(head as usize) {
            *slot = 1.0;
        }
        let dev = Device::ascend_910b4();
        let x = dev.tensor(&w).unwrap();
        let run = dev.weighted_sample(&x, theta).unwrap();
        prop_assert!(run.index < head as usize,
            "sample {} escaped the support of size {head}", run.index);
    }

    #[test]
    fn timing_reports_are_internally_consistent(
        n in 1_000usize..50_000,
    ) {
        let dev = Device::ascend_910b4();
        let mask = vec![1u8; n];
        let m = dev.tensor(&mask).unwrap();
        let r = dev.mask_exclusive_scan(&m).unwrap().report;
        // Time covers at least the launch overhead.
        prop_assert!(r.cycles >= dev.spec().launch_cycles);
        // Traffic is at least the paper's 3N + small change for phase 1
        // plus phase 2's read+write.
        prop_assert!(r.bytes_read >= (2 * n) as u64);
        prop_assert!(r.bytes_written >= n as u64);
        // Utilizations are fractions.
        for e in ascend_scan::sim::EngineKind::ALL {
            let u = r.utilization(e, dev.spec().ai_cores * 3);
            prop_assert!((0.0..=1.0).contains(&u), "{e}: {u}");
        }
        // The operator can never beat the chip's peak bandwidth.
        prop_assert!(r.traffic_gbps() <= dev.spec().l2_bytes_per_sec / 1e9 * 1.01);
    }
}
