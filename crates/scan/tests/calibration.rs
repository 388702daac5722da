//! Calibration probes: the paper's headline performance ratios must hold
//! in shape on the `ascend_910b4` preset. Run with `--nocapture` to see
//! the measured values next to the paper's.

use ascend_sim::mem::GlobalMemory;
use ascendc::{ChipSpec, GlobalTensor};
use dtypes::F16;
use scan::mcscan::{mcscan, McScanConfig};
use scan::{cumsum_vec_only, scanu, scanul1};
use std::sync::Arc;

fn setup() -> (ChipSpec, Arc<GlobalMemory>) {
    let spec = ChipSpec::ascend_910b4();
    let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
    (spec, gm)
}

#[test]
fn fig3_single_core_ratios() {
    let (spec, gm) = setup();
    let n = 4 << 20;
    let data: Vec<F16> = vec![F16::ZERO; n];
    let x = GlobalTensor::from_slice(&gm, &data).unwrap();

    let base = cumsum_vec_only(&spec, &gm, &x, 128).unwrap().report;
    let u = scanu::<F16, F16>(&spec, &gm, &x, 128).unwrap().report;
    let ul1 = scanul1::<F16, F16>(&spec, &gm, &x, 128).unwrap().report;

    let r_u = base.time_s() / u.time_s();
    let r_ul1 = base.time_s() / ul1.time_s();
    let r_between = u.time_s() / ul1.time_s();
    println!("Fig 3 @ N = {n}:");
    println!("  vec-only  : {:>10.1} us", base.time_us());
    println!(
        "  ScanU     : {:>10.1} us  ({r_u:.2}x vs vec-only; paper ~5x)",
        u.time_us()
    );
    println!(
        "  ScanUL1   : {:>10.1} us  ({r_ul1:.2}x vs vec-only; paper ~9.6x)",
        ul1.time_us()
    );
    println!("  ScanU/ScanUL1 = {r_between:.2}x (paper ~2x)");

    assert!(
        (3.5..7.0).contains(&r_u),
        "ScanU speedup {r_u:.2} not in paper band ~5x"
    );
    assert!(
        (7.0..14.0).contains(&r_ul1),
        "ScanUL1 speedup {r_ul1:.2} not in paper band ~9.6x"
    );
    assert!(
        (1.5..3.0).contains(&r_between),
        "ScanUL1/ScanU {r_between:.2} not ~2x"
    );
}

#[test]
fn mcscan_saturation_and_speedup() {
    let (spec, gm) = setup();
    let n = 32 << 20; // 32 Mi elements, 64 MiB fp16: well beyond latency effects
    let data: Vec<F16> = vec![F16::ZERO; n];
    let x = GlobalTensor::from_slice(&gm, &data).unwrap();

    let mc = mcscan::<F16, F16, F16>(&spec, &gm, &x, McScanConfig::for_chip(&spec))
        .unwrap()
        .report;
    let u = scanu::<F16, F16>(&spec, &gm, &x, 128).unwrap().report;

    let frac = mc.fraction_of_peak(&spec);
    let speedup = u.time_s() / mc.time_s();
    println!("MCScan @ N = {n}:");
    println!(
        "  bandwidth  : {:.0} GB/s = {:.1}% of peak (paper ~37.5%)",
        mc.gbps(),
        frac * 100.0
    );
    println!("  vs ScanU   : {speedup:.1}x (paper saturates at ~15.2x)");

    assert!(
        (0.30..0.45).contains(&frac),
        "MCScan peak fraction {:.3} outside the paper's ~0.375 band",
        frac
    );
    assert!(
        (10.0..20.0).contains(&speedup),
        "MCScan speedup over ScanU {speedup:.1} outside the paper's ~15.2x band"
    );
}

#[test]
fn int8_beats_fp16_in_elements_per_second() {
    let (spec, gm) = setup();
    let n = 8 << 20;
    let mask: Vec<u8> = vec![1; n];
    let xi = GlobalTensor::from_slice(&gm, &mask).unwrap();
    let dataf: Vec<F16> = vec![F16::ZERO; n];
    let xf = GlobalTensor::from_slice(&gm, &dataf).unwrap();

    let cfg = McScanConfig::for_chip(&spec);
    let gi = mcscan::<u8, i16, i32>(&spec, &gm, &xi, cfg).unwrap().report;
    let gf = mcscan::<F16, F16, F16>(&spec, &gm, &xf, cfg)
        .unwrap()
        .report;
    let gain = gi.gelems() / gf.gelems();
    println!(
        "Fig 9 @ N = {n}: int8 {:.2} GElem/s vs fp16 {:.2} GElem/s  (gain {:.2}x; paper ~1.1x)",
        gi.gelems(),
        gf.gelems(),
        gain
    );
    assert!(gain > 1.0, "int8 path should process more elements/s");
    assert!(
        gain < 2.0,
        "int8 gain should be modest (~10%), got {gain:.2}"
    );
}
