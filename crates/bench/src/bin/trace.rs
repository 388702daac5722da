//! Exports a chrome://tracing / Perfetto timeline of the *real* scan
//! kernels' simulated schedules.
//!
//! ```text
//! trace [scanu|scanul1|mcscan|scanc|scanc-excl|cumsum|batched|split|sort|all] [N] [out.json] [--jobs N] [--dir DIR]
//! ```
//!
//! The kernels run through their normal public entry points with a
//! per-launch [`ascend_sim::prof::ProfileRecorder`] attached to each
//! kernel's own fresh device, so the trace shows exactly what a
//! measurement run executes: named phase spans ("Phase I", "SyncAll",
//! "VecPropagation"), per-tile spans with bytes/kind/queue-depth args,
//! per-engine busy intervals interleaved with `wait:dep` /
//! `wait:flag` / `wait:barrier` stall intervals, and `TQue` occupancy
//! counters. `scanc-excl` is the exclusive int8 mask scan ScanC runs
//! for `Device::mask_exclusive_scan` at or above its crossover; `split`
//! is the one-launch count-based split of int8 values by a half-true
//! mask that every split, compress and radix-sort pass runs; `sort` is
//! the one-launch descending fp16 radix sort of `Device::top_p` and
//! `Device::topk` (encode, 8 two-bit passes — each a 4-way split over
//! three mask counts, with two barriers — decode). Open the produced
//! JSON at <https://ui.perfetto.dev> (or chrome://tracing)
//! — the double-buffered pipelines of Fig. 2 and the two phases of
//! Fig. 6 are directly visible.
//!
//! Because every kernel owns its whole launch state, independent
//! kernels trace concurrently on `--jobs N` worker threads (default:
//! all cores) while profiles are committed in kernel order — the merged
//! output is byte-identical to a `--jobs 1` run. `--dir DIR` writes one
//! `DIR/<kernel>.json` per kernel instead of a single merged file, so
//! downstream per-kernel consumers (the `simlint` / `critpath` CLIs)
//! can fan out without re-tracing.

use ascend_sim::prof::{KernelProfile, Profile};
use ascend_sim::{ChipSpec, EngineKind};
use ascendc::GlobalTensor;
use bench::fresh_gm;
use dtypes::F16;
use ops::{radix_sort, split_ind, SortOrder};
use scan::mcscan::{mcscan, McScanConfig};
use scan::scanc::{scanc, ScanCConfig};
use scan::ScanKind;
use scan::{batched_scanu, cumsum_vec_only, scanu, scanul1};

const KERNELS: &[&str] = &[
    "scanu",
    "scanul1",
    "mcscan",
    "scanc",
    "scanc-excl",
    "cumsum",
    "batched",
    "split",
    "sort",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional: Vec<&str> = Vec::new();
    let mut jobs: Option<usize> = None;
    let mut dir: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--jobs" {
            jobs = it.next().and_then(|v| v.parse().ok());
            if jobs.is_none() {
                eprintln!("--jobs needs a positive integer");
                std::process::exit(2);
            }
        } else if let Some(v) = a.strip_prefix("--jobs=") {
            match v.parse() {
                Ok(n) => jobs = Some(n),
                Err(_) => {
                    eprintln!("--jobs needs a positive integer, got '{v}'");
                    std::process::exit(2);
                }
            }
        } else if a == "--dir" {
            dir = it.next().cloned();
            if dir.is_none() {
                eprintln!("--dir needs a directory path");
                std::process::exit(2);
            }
        } else if let Some(v) = a.strip_prefix("--dir=") {
            dir = Some(v.to_string());
        } else if a.starts_with("--") {
            eprintln!("unknown flag '{a}'");
            std::process::exit(2);
        } else {
            positional.push(a);
        }
    }
    let jobs = jobs
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .max(1);
    let kernel = positional.first().copied().unwrap_or("mcscan");
    let n: usize = positional
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1 << 18);
    let default_out = format!("{kernel}_trace.json");
    let out = positional.get(2).copied().unwrap_or(&default_out);

    let chosen: Vec<&str> = match kernel {
        "all" => KERNELS.to_vec(),
        k if KERNELS.contains(&k) => vec![k],
        other => {
            eprintln!(
                "unknown kernel '{other}' (try {} | all)",
                KERNELS.join(" | ")
            );
            std::process::exit(2);
        }
    };

    let spec = ChipSpec::ascend_910b4();
    // One point per kernel, each with its own device and recorder; the
    // pool commits profiles in kernel order.
    let spec_ref = &spec;
    let points: Vec<Box<dyn FnOnce() -> Profile + Send + '_>> = chosen
        .iter()
        .map(|&k| {
            let point: Box<dyn FnOnce() -> Profile + Send + '_> =
                Box::new(move || run_kernel(spec_ref, k, n));
            point
        })
        .collect();
    let profiles = bench::run_points(points, jobs);

    for p in &profiles {
        for k in &p.kernels {
            print_summary(k);
        }
    }

    if let Some(dir) = dir {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("trace: cannot create output directory '{dir}': {e}");
            std::process::exit(2);
        }
        let mut total = 0usize;
        for (name, profile) in chosen.iter().zip(&profiles) {
            let json = profile.to_chrome_json();
            let path = format!("{dir}/{name}.json");
            if let Err(e) = std::fs::write(&path, &json) {
                eprintln!("trace: cannot write '{path}': {e}");
                std::process::exit(2);
            }
            total += json.len();
        }
        println!(
            "{} kernel(s) over {n} elements -> {dir}/<kernel>.json ({total} bytes, {jobs} job(s))",
            chosen.len()
        );
    } else {
        let merged = Profile {
            kernels: profiles.into_iter().flat_map(|p| p.kernels).collect(),
        };
        let json = merged.to_chrome_json();
        if let Err(e) = std::fs::write(out, &json) {
            eprintln!("trace: cannot write '{out}': {e}");
            std::process::exit(2);
        }
        println!(
            "{} kernel(s) over {n} elements -> {out} ({} bytes, {jobs} job(s))",
            merged.kernels.len(),
            json.len()
        );
    }
    println!("open https://ui.perfetto.dev (or chrome://tracing) and load the file");
}

/// Runs one scan kernel through its public entry point on a fresh
/// device with its own profile recorder, and returns the profile.
fn run_kernel(spec: &ChipSpec, kernel: &str, n: usize) -> Profile {
    let gm = fresh_gm(spec);
    let recorder = gm.attach_profiler();
    let data = vec![F16::ONE; n];
    let x = GlobalTensor::from_slice(&gm, &data).unwrap();
    match kernel {
        "scanu" => drop(scanu::<F16, F16>(spec, &gm, &x, 128).unwrap()),
        "scanul1" => drop(scanul1::<F16, F16>(spec, &gm, &x, 128).unwrap()),
        "mcscan" => {
            drop(mcscan::<F16, F16, F16>(spec, &gm, &x, McScanConfig::for_chip(spec)).unwrap())
        }
        "scanc" => drop(
            scanc::<F16, F16, F16>(spec, &gm, &x, ScanCConfig::for_chip::<F16, F16, F16>(spec))
                .unwrap(),
        ),
        "scanc-excl" => {
            let gm = fresh_gm(spec);
            let recorder = gm.attach_profiler();
            let mask: Vec<u8> = (0..n).map(|i| (i % 2) as u8).collect();
            let m = GlobalTensor::from_slice(&gm, &mask).unwrap();
            let cfg = ScanCConfig {
                kind: ScanKind::Exclusive,
                ..ScanCConfig::for_chip::<u8, i16, i32>(spec)
            };
            drop(scanc::<u8, i16, i32>(spec, &gm, &m, cfg).unwrap());
            return recorder.take();
        }
        "cumsum" => drop(cumsum_vec_only::<F16>(spec, &gm, &x, 128).unwrap()),
        "batched" => {
            // Spread a fixed batch over the cores; pad N up to a multiple.
            let batch = 8usize;
            let len = n.div_ceil(batch).max(1);
            let gm = fresh_gm(spec);
            let recorder = gm.attach_profiler();
            let data = vec![F16::ONE; batch * len];
            let x = GlobalTensor::from_slice(&gm, &data).unwrap();
            drop(batched_scanu::<F16, F16>(spec, &gm, &x, batch, len, 128).unwrap());
            return recorder.take();
        }
        "split" => {
            let gm = fresh_gm(spec);
            let recorder = gm.attach_profiler();
            let vals: Vec<i8> = (0..n).map(|i| (i % 251) as i8).collect();
            let mask: Vec<u8> = (0..n).map(|i| (i % 2) as u8).collect();
            let x = GlobalTensor::from_slice(&gm, &vals).unwrap();
            let m = GlobalTensor::from_slice(&gm, &mask).unwrap();
            drop(split_ind::<i8>(spec, &gm, &x, &m).unwrap());
            return recorder.take();
        }
        "sort" => {
            let gm = fresh_gm(spec);
            let recorder = gm.attach_profiler();
            let keys: Vec<F16> = (0..n)
                .map(|i| F16::from_f32(((i * 7919) % 1000) as f32 / 1e3))
                .collect();
            let x = GlobalTensor::from_slice(&gm, &keys).unwrap();
            drop(radix_sort::<F16>(spec, &gm, &x, 2, SortOrder::Descending).unwrap());
            return recorder.take();
        }
        other => unreachable!("unvalidated kernel {other}"),
    }
    recorder.take()
}

/// Prints a per-engine busy/stall breakdown for one profiled launch.
fn print_summary(k: &KernelProfile) {
    let us = k.cycles as f64 / (k.clock_ghz.max(f64::MIN_POSITIVE) * 1e3);
    println!(
        "{}: {} blocks, {} cycles ({:.1} us), {} events, {} spans, {} stall intervals",
        k.name,
        k.blocks,
        k.cycles,
        us,
        k.events.len(),
        k.spans.len(),
        k.stall_events.len(),
    );
    let mut busy = [0u64; EngineKind::ALL.len()];
    for e in &k.events {
        busy[e.engine.index()] += e.end.saturating_sub(e.start);
    }
    println!(
        "  {:<8} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "engine", "busy", "dep-wait", "flag-wait", "barrier-wait", "contention"
    );
    for engine in EngineKind::ALL {
        let i = engine.index();
        let (d, c, f, b) = (
            k.stalls.dependency[i],
            k.stalls.contention[i],
            k.stalls.flag[i],
            k.stalls.barrier[i],
        );
        if busy[i] == 0 && d == 0 && c == 0 && f == 0 && b == 0 {
            continue;
        }
        println!(
            "  {:<8} {:>12} {:>12} {:>12} {:>12} {:>12}",
            engine.name(),
            busy[i],
            d,
            f,
            b,
            c
        );
    }
}
