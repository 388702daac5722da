//! `benchcheck` — the performance gate over a `BENCH_scan.json` report.
//!
//! ```text
//! benchcheck <BENCH_scan.json>
//! ```
//!
//! Reads the `traffic` sweep of a `bench-scan/v5` document (written by
//! `figures --json`) and holds the decoupled ScanC to the 4M crossover
//! anchor, for both dtype paths:
//!
//! * ScanC must not trail MCScan on time at 4M
//!   ([`scan::crossover::scanc_keeps_up`]: `scanc_time_us <=
//!   mcscan_time_us × 1.02`, the 2% absorbing rounding in the
//!   fixed-point `time_us` formatting);
//! * the look-back must be hidden, not merely cheap: removing it
//!   entirely (`zero_lookback_speedup`) may predict at most a 1.15×
//!   speedup.
//!
//! It then recomputes each dtype's `Device` crossover from the whole
//! sweep ([`scan::crossover::crossover_from_sweep`], in tiles of the
//! document's `ℓ = s²`) and fails when it disagrees with the constant
//! `Device` dispatches on ([`scan::crossover::ScanPath::crossover_tiles`]).
//!
//! Exit status: `0` every gate holds, `1` a gate fails, `2` usage, I/O,
//! a malformed document, or a missing 4M row.

use ascend_sim::json::{self, Json};
use scan::crossover::{crossover_from_sweep, scanc_keeps_up, ScanPath};

/// The element count of the crossover anchor rows.
const ANCHOR_N: u64 = 1 << 22;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [file] = args.as_slice() else {
        fail2("usage: benchcheck <BENCH_scan.json>");
    };
    let doc = std::fs::read_to_string(file).unwrap_or_else(|e| fail2(&format!("{file}: {e}")));
    let root =
        json::parse(&doc).unwrap_or_else(|e| fail2(&format!("{file}: malformed document: {e}")));
    let mut failed = false;
    for dtype in ["fp16", "int8"] {
        let (mc, sc, zl) = anchor_row(&root, dtype)
            .unwrap_or_else(|e| fail2(&format!("{file}: 4M {dtype} traffic row: {e}")));
        if scanc_keeps_up(mc, sc) {
            println!("    4M {dtype}: ScanC {sc} us <= MCScan {mc} us");
        } else {
            eprintln!("perf regression: ScanC {sc} us > MCScan {mc} us at 4M {dtype}");
            failed = true;
        }
        if zl <= 1.15 {
            println!("    4M {dtype}: zero_lookback headroom {zl}x <= 1.15x");
        } else {
            eprintln!("look-back not hidden: zero_lookback would still save {zl}x at 4M {dtype}");
            failed = true;
        }
    }
    let s = root
        .u64_field("s")
        .unwrap_or_else(|e| fail2(&format!("{file}: tile dimension: {e}")));
    let tile = usize::try_from(s)
        .ok()
        .and_then(|s| s.checked_mul(s))
        .filter(|&l| l > 0)
        .unwrap_or_else(|| fail2(&format!("{file}: tile dimension {s} out of range")));
    for path in ScanPath::ALL {
        let dtype = path.label();
        let rows = sweep_rows(&root, dtype)
            .unwrap_or_else(|e| fail2(&format!("{file}: {dtype} traffic rows: {e}")));
        let want = path.crossover_tiles();
        match crossover_from_sweep(&rows, tile) {
            Some(got) if got == want => {
                println!("    {dtype}: ledger crossover {got} tiles = Device crossover");
            }
            got => {
                let got = got.map_or("none".to_string(), |t| format!("{t} tiles"));
                eprintln!(
                    "crossover drift: the {dtype} traffic sweep puts ScanC's crossover at \
                     {got}, Device switches at {want} tiles"
                );
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn fail2(msg: &str) -> ! {
    eprintln!("benchcheck: {msg}");
    std::process::exit(2);
}

/// The 4M `dtype` row's MCScan time, ScanC time and ScanC look-back
/// headroom.
fn anchor_row(root: &Json, dtype: &str) -> Result<(f64, f64, f64), String> {
    let row = root
        .array_field("traffic")?
        .iter()
        .find(|r| r.u64_field("n") == Ok(ANCHOR_N) && r.str_field("dtype") == Ok(dtype))
        .ok_or("not found")?;
    Ok((
        row.f64_field("mcscan_time_us")?,
        row.f64_field("scanc_time_us")?,
        row.field("scanc_lookback")?
            .f64_field("zero_lookback_speedup")?,
    ))
}

/// Every `dtype` row of the sweep as `(n, mcscan_time_us, scanc_time_us)`.
fn sweep_rows(root: &Json, dtype: &str) -> Result<Vec<(usize, f64, f64)>, String> {
    let mut rows = Vec::new();
    for row in root.array_field("traffic")? {
        if row.str_field("dtype")? == dtype {
            rows.push((
                row.u64_field("n")? as usize,
                row.f64_field("mcscan_time_us")?,
                row.f64_field("scanc_time_us")?,
            ));
        }
    }
    Ok(rows)
}
