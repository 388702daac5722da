//! Deterministic anchors, measured outside the timed loop on fresh
//! memories: the model's error against two numbers the paper publishes
//! (`paper_err_pct`), and a cross-check of the MCScan fp16 readings
//! against the rows of the committed `BENCH_scan.json` that share them,
//! so a change to the simulator's model shows up as a named discrepancy.

use ascend_scan::dtypes::F16;
use ascend_scan::scan::mcscan::{mcscan, McScanConfig};
use ascend_scan::scan::scanu::scanu;
use ascend_scan::sim::mem::GlobalMemory;
use ascend_scan::{ChipSpec, GlobalTensor, KernelReport, SimResult};
use std::sync::Arc;

/// Fig. 8: MCScan fp16 reaches 37.5% of the HBM peak at 16M elements.
const PAPER_FRACTION_OF_PEAK_16M: f64 = 0.375;
/// §6.1: MCScan is 15.2× faster than single-core ScanU at 4M elements.
const PAPER_SCANU_OVER_MCSCAN_4M: f64 = 15.2;

pub struct Anchors {
    pub paper_err_pct: f64,
    /// Readings that disagree with `BENCH_scan.json`, or 1 if the anchors
    /// could not be measured or the file not read.
    pub discrepancies: usize,
    pub json: String,
}

pub fn check() -> Anchors {
    match measure() {
        Ok(anchors) => anchors,
        Err(e) => {
            eprintln!("perfbench: anchors: {e}");
            Anchors {
                paper_err_pct: f64::NAN,
                discrepancies: 1,
                json: format!("{{\"error\":\"{}\"}}", e.replace('"', "'")),
            }
        }
    }
}

fn fresh(spec: &ChipSpec, n: usize) -> SimResult<(Arc<GlobalMemory>, GlobalTensor<F16>)> {
    let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
    let x = GlobalTensor::new(&gm, n)?;
    Ok((gm, x))
}

fn mcscan_fp16(spec: &ChipSpec, n: usize) -> SimResult<KernelReport> {
    let (gm, x) = fresh(spec, n)?;
    Ok(mcscan::<F16, F16, F16>(spec, &gm, &x, McScanConfig::for_chip(spec))?.report)
}

fn measure() -> Result<Anchors, String> {
    let spec = ChipSpec::ascend_910b4();
    let (n4, n16) = (4usize << 20, 16usize << 20);
    let err = |e: ascend_scan::SimError| e.to_string();
    let mc4 = mcscan_fp16(&spec, n4).map_err(err)?;
    let mc16 = mcscan_fp16(&spec, n16).map_err(err)?;
    let (gm, x) = fresh(&spec, n4).map_err(err)?;
    let su4 = scanu::<F16, F16>(&spec, &gm, &x, 128).map_err(err)?.report;

    let fraction = mc16.fraction_of_peak(&spec);
    let speedup = su4.time_us() / mc4.time_us();
    let paper_err_pct = 100.0
        * ((fraction / PAPER_FRACTION_OF_PEAK_16M - 1.0).abs()
            + (speedup / PAPER_SCANU_OVER_MCSCAN_4M - 1.0).abs())
        / 2.0;

    let bench_scan = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_scan.json");
    let doc = std::fs::read_to_string(bench_scan)
        .map_err(|e| format!("cannot read BENCH_scan.json: {e}"))?;
    let mut discrepancies = Vec::new();
    for (n, report) in [(n4, &mc4), (n16, &mc16)] {
        let model = report.time_us();
        match committed_mcscan_fp16_us(&doc, n) {
            Some(committed) if (model - committed).abs() <= 5e-4 => {}
            committed => discrepancies.push(format!(
                "\"MCScan fp16 at {n}: model {model} us, BENCH_scan.json {committed:?} us\""
            )),
        }
    }
    for d in &discrepancies {
        eprintln!("perfbench: anchor discrepancy: {d}");
    }
    let json = format!(
        "{{\"mcscan_fp16_4m_us\":{},\"mcscan_fp16_16m_us\":{},\"scanu_fp16_4m_us\":{},\
         \"fraction_of_peak_16m\":{fraction},\"scanu_over_mcscan_4m\":{speedup},\
         \"bench_scan_discrepancies\":[{}]}}",
        mc4.time_us(),
        mc16.time_us(),
        su4.time_us(),
        discrepancies.join(",")
    );
    Ok(Anchors {
        paper_err_pct,
        discrepancies: discrepancies.len(),
        json,
    })
}

/// `mcscan_time_us` of the fp16 row for `n` in the document's `traffic`
/// rows (the field precedes the rows' nested objects).
fn committed_mcscan_fp16_us(doc: &str, n: usize) -> Option<f64> {
    let traffic = &doc[doc.find("\"traffic\":[")?..];
    let row = traffic
        .split('}')
        .find(|row| row.contains(&format!("\"n\":{n},")) && row.contains("\"dtype\":\"fp16\""))?;
    let value = &row[row.find("\"mcscan_time_us\":")? + "\"mcscan_time_us\":".len()..];
    let end = value.find([',', '}']).unwrap_or(value.len());
    value[..end].trim().parse().ok()
}
