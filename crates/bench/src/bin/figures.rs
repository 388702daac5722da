//! Regenerates every table and figure of the paper's evaluation section
//! on the simulated Ascend 910B4.
//!
//! ```text
//! figures [fig3|fig5|fig8|fig9|fig10|fig11|fig12|fig13|speedup|topk|radix|all] [--quick] [--jobs N]
//! figures --json [--quick] [--jobs N]
//! ```
//!
//! `--quick` shrinks the sweeps (for smoke tests); the default sweeps
//! match the paper's ranges where feasible.
//!
//! `--jobs N` sizes the host thread pool (default: all cores). Every
//! measurement point owns its whole launch state (a fresh
//! [`bench::fresh_gm`] device per point), so independent points run
//! concurrently on worker threads while the results are committed in
//! point order: the tables and the JSON document are byte-identical to
//! a `--jobs 1` run, only the wall clock changes.
//!
//! `--json` skips the tables and instead writes `BENCH_scan.json`: one
//! machine-readable `bench-scan/v5` document with a full
//! [`KernelReport`] (cycles, bandwidth, per-engine busy/stall
//! breakdown, per-round barrier waits, critical-path attribution with
//! what-if predictions) for every paper scan kernel at a fixed large
//! input length, plus a `traffic` section comparing MCScan and ScanC
//! bytes and time across the Fig. 3 size sweep extended by the 4M
//! (and, in full runs, 16M) crossover anchors, each row carrying the
//! decoupled look-back's per-hop stats (`scanc_lookback`: window,
//! chain hops, chain-wire cycles, zero-look-back headroom). The
//! document is validated
//! with [`bench::validate_bench_json`] (syntax + sanity bounds,
//! including the makespan identity on every `critical_path` section)
//! before it is written.

use ascend_sim::json::Json;
use ascend_sim::{ChipSpec, KernelReport};
use ascendc::GlobalTensor;
use bench::{
    baseline_top_p, fresh_gm, human, sweep, synth_f16, synth_mask, synth_probs,
    validate_bench_json, Table,
};
use dtypes::F16;
use ops::{baselines, compress, radix_sort, topk, SortOrder, SORT_DIGIT_BITS};
use scan::ablation::{mcscan_variant, McScanVariant};
use scan::mcscan::{mcscan, McScanConfig, ScanKind};
use scan::scanc::{scanc, ScanCConfig};
use scan::{batched_scanu, batched_scanul1, cumsum_vec_only, scanu, scanul1};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Host worker-thread count, set once from `--jobs` before any figure
/// runs (default: all cores). Read by [`par`].
static JOBS: AtomicUsize = AtomicUsize::new(1);

fn jobs() -> usize {
    JOBS.load(Ordering::Relaxed)
}

/// Runs one independent measurement point per item on the `--jobs`
/// thread pool and returns the results in item order (see
/// [`bench::run_points`]); printing stays serial and deterministic.
fn par<I: Send, R: Send>(items: Vec<I>, f: impl Fn(I) -> R + Send + Sync) -> Vec<R> {
    let f = &f;
    let points: Vec<Box<dyn FnOnce() -> R + Send + '_>> = items
        .into_iter()
        .map(|item| {
            let point: Box<dyn FnOnce() -> R + Send + '_> = Box::new(move || f(item));
            point
        })
        .collect();
    bench::run_points(points, jobs())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    JOBS.store(parse_jobs(&args), Ordering::Relaxed);
    let mut which: Option<&str> = None;
    let mut skip_value = false;
    for a in &args {
        if skip_value {
            skip_value = false;
            continue;
        }
        if a == "--jobs" {
            skip_value = true;
        } else if !a.starts_with("--") && which.is_none() {
            which = Some(a);
        }
    }
    let which = which.unwrap_or("all");

    let spec = ChipSpec::ascend_910b4();
    if args.iter().any(|a| a == "--json") {
        json_report(&spec, quick);
        return;
    }
    println!(
        "chip: {} ({} cube cores, {} vector cores, {:.0} GB/s HBM)\n",
        spec.name,
        spec.ai_cores,
        spec.total_vec_cores(),
        spec.hbm_bytes_per_sec / 1e9
    );

    match which {
        "fig3" => fig3(&spec, quick),
        "fig5" => fig5(&spec, quick),
        "fig8" => fig8(&spec, quick),
        "fig9" => fig9(&spec, quick),
        "fig10" => fig10(&spec, quick),
        "fig11" => fig11(&spec, quick),
        "fig12" => fig12(&spec, quick),
        "fig13" => fig13(&spec, quick),
        "speedup" => speedup(&spec, quick),
        "scanc" => scanc_experiment(&spec, quick),
        "topk" => topk_experiment(&spec, quick),
        "ablation" => ablation(&spec, quick),
        "lowbit" => lowbit(&spec, quick),
        "radix" => radix_digits(&spec, quick),
        "scaling" => scaling(&spec, quick),
        "tiles" => tiles(quick),
        "reduce" => reduce_experiment(&spec, quick),
        "all" => {
            fig3(&spec, quick);
            fig5(&spec, quick);
            fig8(&spec, quick);
            fig9(&spec, quick);
            fig10(&spec, quick);
            fig11(&spec, quick);
            fig12(&spec, quick);
            fig13(&spec, quick);
            speedup(&spec, quick);
            scanc_experiment(&spec, quick);
            topk_experiment(&spec, quick);
            ablation(&spec, quick);
            lowbit(&spec, quick);
            radix_digits(&spec, quick);
            scaling(&spec, quick);
            tiles(quick);
            reduce_experiment(&spec, quick);
        }
        other => {
            eprintln!("unknown figure '{other}'");
            std::process::exit(2);
        }
    }
}

fn us(r: &KernelReport) -> String {
    format!("{:.1}", r.time_us())
}

/// Parses `--jobs N` / `--jobs=N`; defaults to all available cores.
fn parse_jobs(args: &[String]) -> usize {
    let mut explicit: Option<&str> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--jobs" {
            explicit = it.next().map(String::as_str);
        } else if let Some(v) = a.strip_prefix("--jobs=") {
            explicit = Some(v);
        }
    }
    match explicit {
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("--jobs needs a positive integer, got '{v}'");
                std::process::exit(2);
            }
        },
        None => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// One `--json` measurement point's payload: a kernel report or a
/// pre-rendered traffic row. Points are heterogeneous but committed in
/// a single ordered pass so the document layout never depends on which
/// worker finished first.
enum Point {
    Kernel(Box<KernelReport>),
    Traffic(Json),
}

/// `--json`: runs every paper scan kernel once at a fixed input length
/// and writes the structured `bench-scan/v5` report to `BENCH_scan.json`.
/// All points run on the `--jobs` pool; the document (minus the `host`
/// wall-clock section) is byte-identical at any pool width.
fn json_report(spec: &ChipSpec, quick: bool) {
    let n: usize = if quick { 1 << 18 } else { 1 << 22 };
    let batch = 8usize;
    let s = 128usize;
    println!(
        "collecting kernel reports at N = {} on {} host thread(s) ...",
        human(n),
        jobs()
    );

    let data = vec![F16::ONE; n];
    type KernelPoint<'a> = Box<dyn FnOnce() -> KernelReport + Send + 'a>;
    let kernel_points: Vec<KernelPoint<'_>> = vec![
        Box::new(|| {
            let gm = fresh_gm(spec);
            let x = GlobalTensor::from_slice(&gm, &data).unwrap();
            cumsum_vec_only(spec, &gm, &x, s).unwrap().report
        }),
        Box::new(|| {
            let gm = fresh_gm(spec);
            let x = GlobalTensor::from_slice(&gm, &data).unwrap();
            scanu::<F16, F16>(spec, &gm, &x, s).unwrap().report
        }),
        Box::new(|| {
            let gm = fresh_gm(spec);
            let x = GlobalTensor::from_slice(&gm, &data).unwrap();
            scanul1::<F16, F16>(spec, &gm, &x, s).unwrap().report
        }),
        Box::new(|| {
            let gm = fresh_gm(spec);
            let x = GlobalTensor::from_slice(&gm, &data).unwrap();
            let mut r = mcscan::<F16, F16, F16>(spec, &gm, &x, McScanConfig::for_chip(spec))
                .unwrap()
                .report;
            r.name = "MCScan(fp16)".into();
            r
        }),
        Box::new(|| {
            let gm = fresh_gm(spec);
            let x = GlobalTensor::from_slice(&gm, &vec![1u8; n]).unwrap();
            let mut r = mcscan::<u8, i16, i32>(spec, &gm, &x, McScanConfig::for_chip(spec))
                .unwrap()
                .report;
            r.name = "MCScan(int8)".into();
            r
        }),
        Box::new(|| {
            let gm = fresh_gm(spec);
            let x = GlobalTensor::from_slice(&gm, &data).unwrap();
            let mut r =
                scanc::<F16, F16, F16>(spec, &gm, &x, ScanCConfig::for_chip::<F16, F16, F16>(spec))
                    .unwrap()
                    .report;
            r.name = "ScanC(fp16)".into();
            r
        }),
        Box::new(|| {
            let gm = fresh_gm(spec);
            let x = GlobalTensor::from_slice(&gm, &vec![1u8; n]).unwrap();
            let mut r =
                scanc::<u8, i16, i32>(spec, &gm, &x, ScanCConfig::for_chip::<u8, i16, i32>(spec))
                    .unwrap()
                    .report;
            r.name = "ScanC(int8)".into();
            r
        }),
        Box::new(|| {
            let gm = fresh_gm(spec);
            let x = GlobalTensor::from_slice(&gm, &data).unwrap();
            batched_scanu::<F16, F16>(spec, &gm, &x, batch, n / batch, s)
                .unwrap()
                .report
        }),
        Box::new(|| {
            let gm = fresh_gm(spec);
            let x = GlobalTensor::from_slice(&gm, &data).unwrap();
            batched_scanul1::<F16, F16>(spec, &gm, &x, batch, n / batch, s)
                .unwrap()
                .report
        }),
    ];

    // The tentpole comparison: total GM bytes moved by MCScan vs ScanC
    // across the Fig. 3 size sweep, for both dtype paths. ScanC drops
    // the recomputation read (≈3N element accesses → ≈2N), which shows
    // up here as strictly fewer bytes at every size. The 4M point is
    // the CI crossover anchor (ScanC time must not trail MCScan there);
    // the full sweep extends to a 16M anchor where the decoupled
    // look-back's advantage has saturated. The 2M and 3M rows bracket
    // the size from which `Device` scans switch to ScanC
    // (`scan::crossover`, which `benchcheck` recomputes from these rows).
    let mut traffic_sizes = if quick {
        sweep(1 << 12, 4, 4)
    } else {
        sweep(1 << 12, 4, 6)
    };
    traffic_sizes.extend([2 << 20, 3 << 20, if quick { 1 << 22 } else { 1 << 24 }]);
    traffic_sizes.sort_unstable();
    traffic_sizes.dedup();
    let mut points: Vec<Box<dyn FnOnce() -> (Point, f64) + Send + '_>> = kernel_points
        .into_iter()
        .map(|k| {
            let timed: Box<dyn FnOnce() -> (Point, f64) + Send + '_> = Box::new(move || {
                let t0 = Instant::now();
                let r = k();
                (Point::Kernel(Box::new(r)), t0.elapsed().as_secs_f64())
            });
            timed
        })
        .collect();
    for &tn in &traffic_sizes {
        for dtype in ["fp16", "int8"] {
            points.push(Box::new(move || {
                let t0 = Instant::now();
                let (mc, sc) = traffic_pair(spec, tn, dtype);
                // Per-hop look-back stats for the ScanC side: how many
                // grid-flag wire hops survived on the critical path and
                // how much the multi-hop window left on the table.
                let window = if dtype == "fp16" {
                    ScanCConfig::for_chip::<F16, F16, F16>(spec).lookback_window
                } else {
                    ScanCConfig::for_chip::<u8, i16, i32>(spec).lookback_window
                };
                let mut lookback = vec![("window", window.into())];
                if let Some(cp) = &sc.critical_path {
                    let zero = cp
                        .what_ifs
                        .iter()
                        .find(|w| w.name == "zero_lookback")
                        .map(|w| cp.makespan.max(1) as f64 / w.predicted.max(1) as f64)
                        .unwrap_or(1.0);
                    lookback.extend([
                        ("chain_hops", cp.chain_hops.into()),
                        ("chain_wire_cycles", cp.chain_wire.into()),
                        ("lookback_chain_cycles", cp.lookback_chain.into()),
                        ("zero_lookback_speedup", Json::fixed(zero, 3)),
                    ]);
                }
                let row = Json::obj([
                    ("n", tn.into()),
                    ("dtype", dtype.into()),
                    ("mcscan_bytes", (mc.bytes_read + mc.bytes_written).into()),
                    ("scanc_bytes", (sc.bytes_read + sc.bytes_written).into()),
                    ("mcscan_time_us", Json::fixed(mc.time_us(), 3)),
                    ("scanc_time_us", Json::fixed(sc.time_us(), 3)),
                    ("scanc_lookback", Json::obj(lookback)),
                ]);
                (Point::Traffic(row), t0.elapsed().as_secs_f64())
            }));
        }
    }

    let total_points = points.len();
    let wall0 = Instant::now();
    let outcomes = bench::run_points(points, jobs());
    let host_seconds = wall0.elapsed().as_secs_f64().max(1e-6);

    let mut reports: Vec<KernelReport> = Vec::new();
    let mut kernel_seconds: Vec<f64> = Vec::new();
    let mut traffic_rows: Vec<Json> = Vec::new();
    let mut serial_est = 0.0;
    for (point, secs) in outcomes {
        serial_est += secs;
        match point {
            Point::Kernel(r) => {
                reports.push(*r);
                kernel_seconds.push(secs.max(1e-6));
            }
            Point::Traffic(row) => traffic_rows.push(row),
        }
    }

    // The host section is the only part of the document that depends on
    // wall clocks. It is kept flat (no nested braces) so CI can strip it
    // with one regular expression before byte-comparing runs.
    let host = Json::obj([
        ("jobs", jobs().into()),
        ("points", total_points.into()),
        ("host_seconds", Json::fixed(host_seconds, 6)),
        ("serial_seconds_est", Json::fixed(serial_est.max(1e-6), 6)),
        (
            "kernel_host_seconds",
            Json::Arr(kernel_seconds.iter().map(|&t| Json::fixed(t, 6)).collect()),
        ),
    ]);
    let chip = Json::obj([
        ("name", spec.name.into()),
        ("ai_cores", spec.ai_cores.into()),
        ("clock_ghz", spec.clock_ghz.into()),
        ("hbm_gbps", Json::fixed(spec.hbm_bytes_per_sec / 1e9, 1)),
    ]);
    let kernels = reports.iter().map(|r| r.to_json_value(spec)).collect();
    let doc = Json::obj([
        ("schema", "bench-scan/v5".into()),
        ("chip", chip),
        ("n", n.into()),
        ("s", s.into()),
        ("kernels", Json::Arr(kernels)),
        ("traffic", Json::Arr(traffic_rows)),
        ("host", host),
    ]);
    let doc = format!("{doc}\n");
    if let Err(e) = validate_bench_json(&doc, spec) {
        eprintln!("figures: BENCH_scan.json failed the v5 sanity bounds: {e}");
        std::process::exit(2);
    }
    if let Err(e) = std::fs::write("BENCH_scan.json", &doc) {
        eprintln!("figures: cannot write BENCH_scan.json: {e}");
        std::process::exit(2);
    }
    println!(
        "wrote BENCH_scan.json ({} kernels, {} bytes)",
        reports.len(),
        doc.len()
    );
    println!(
        "host: {} points, {} jobs, {:.2}s wall, {:.2}x vs {:.2}s serial estimate",
        total_points,
        jobs(),
        host_seconds,
        serial_est / host_seconds,
        serial_est
    );
    for r in &reports {
        println!(
            "  {:<18} {:>10.1} us  {:>7.0} GB/s  {:>5.1}% of peak",
            r.name,
            r.time_us(),
            r.gbps(),
            r.fraction_of_peak(spec) * 100.0
        );
    }
    println!("critical paths (share of makespan on the critical path, per class):");
    for r in &reports {
        let Some(cp) = &r.critical_path else { continue };
        let m = cp.makespan.max(1) as f64;
        let best = cp
            .what_ifs
            .iter()
            .max_by_key(|w| w.saved)
            .map(|w| format!("{} -> {:.2}x", w.name, m / (w.predicted.max(1) as f64)))
            .unwrap_or_else(|| "-".into());
        println!(
            "  {:<18} busy {:>4.1}%  hbm {:>4.1}%  flags {:>4.1}%  chain {:>4.1}%  best what-if: {}",
            r.name,
            cp.busy as f64 / m * 100.0,
            cp.hbm as f64 / m * 100.0,
            (cp.flag_wire + cp.flag_instr) as f64 / m * 100.0,
            cp.lookback_share() * 100.0,
            best
        );
    }
}

/// Fig. 3 — single-core execution time: CumSum (vector-only) vs ScanU vs
/// ScanUL1 (fp16, s = 128).
fn fig3(spec: &ChipSpec, quick: bool) {
    println!("== Figure 3: single-core scans, execution time (us), fp16, s = 128 ==");
    let sizes = if quick {
        sweep(1 << 12, 4, 4)
    } else {
        sweep(1 << 12, 4, 6)
    };
    let mut t = Table::new(&[
        "N",
        "vec_only",
        "ScanU",
        "ScanUL1",
        "U-speedup",
        "UL1-speedup",
    ]);
    let mut last = (0.0, 0.0);
    let rows = par(sizes, |n| {
        let gm = fresh_gm(spec);
        let data = vec![F16::ZERO; n];
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let b = cumsum_vec_only(spec, &gm, &x, 128).unwrap().report;
        let u = scanu::<F16, F16>(spec, &gm, &x, 128).unwrap().report;
        let ul1 = scanul1::<F16, F16>(spec, &gm, &x, 128).unwrap().report;
        (n, b, u, ul1)
    });
    for (n, b, u, ul1) in rows {
        last = (b.time_s() / u.time_s(), b.time_s() / ul1.time_s());
        t.row(vec![
            human(n),
            us(&b),
            us(&u),
            us(&ul1),
            format!("{:.2}x", last.0),
            format!("{:.2}x", last.1),
        ]);
    }
    t.print();
    println!(
        "  paper @ large N: ScanU ~5x, ScanUL1 ~9.6x vs vec-only; measured {:.2}x / {:.2}x\n",
        last.0, last.1
    );
}

/// Fig. 5 — batched ScanUL1 / ScanU time ratio heatmap (>1 ⇒ ScanU wins).
fn fig5(spec: &ChipSpec, quick: bool) {
    println!("== Figure 5: batched scan time ratio ScanUL1 / ScanU (>1 means ScanU wins) ==");
    let lens: Vec<usize> = if quick {
        vec![512, 4096, 32768]
    } else {
        vec![512, 2048, 8192, 32768, 65536]
    };
    let batches: Vec<usize> = if quick {
        vec![4, 18, 40]
    } else {
        vec![2, 8, 16, 18, 20, 32, 40]
    };
    let mut header: Vec<String> = vec!["batch \\ len".into()];
    header.extend(lens.iter().map(|&l| human(l)));
    let mut t = Table::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    let lens_ref = &lens;
    let rows = par(batches.clone(), move |b| {
        let mut row = vec![b.to_string()];
        for &len in lens_ref {
            let gm = fresh_gm(spec);
            let data = vec![F16::ZERO; b * len];
            let x = GlobalTensor::from_slice(&gm, &data).unwrap();
            let u = batched_scanu::<F16, F16>(spec, &gm, &x, b, len, 128)
                .unwrap()
                .report;
            let ul1 = batched_scanul1::<F16, F16>(spec, &gm, &x, b, len, 128)
                .unwrap()
                .report;
            row.push(format!("{:.2}", ul1.time_s() / u.time_s()));
        }
        row
    });
    for row in rows {
        t.row(row);
    }
    t.print();
    println!(
        "  paper: ScanU wins for batch > 18 & len < 4K; ScanUL1 wins for batch < 18 & len > 4K\n"
    );
}

/// Fig. 8 — MCScan bandwidth (GB/s) vs input length for s = 32/64/128,
/// with the torch.clone copy kernel as the roofline reference.
fn fig8(spec: &ChipSpec, quick: bool) {
    println!("== Figure 8: MCScan bandwidth (GB/s), fp16, vs torch.clone (peak 800 GB/s) ==");
    let sizes = if quick {
        sweep(1 << 16, 8, 3)
    } else {
        sweep(1 << 16, 4, 6)
    };
    let mut t = Table::new(&["N", "s=32", "s=64", "s=128", "clone", "s128 %peak"]);
    let rows = par(sizes, |n| {
        let data = vec![F16::ZERO; n];
        let mut cells = vec![human(n)];
        let mut frac = 0.0;
        for s in [32usize, 64, 128] {
            let gm = fresh_gm(spec);
            let x = GlobalTensor::from_slice(&gm, &data).unwrap();
            let r = mcscan::<F16, F16, F16>(
                spec,
                &gm,
                &x,
                McScanConfig {
                    s,
                    blocks: spec.ai_cores,
                    kind: ScanKind::Inclusive,
                },
            )
            .unwrap()
            .report;
            if s == 128 {
                frac = r.fraction_of_peak(spec);
            }
            cells.push(format!("{:.0}", r.gbps()));
        }
        let gm = fresh_gm(spec);
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let (_, c) = baselines::clone(spec, &gm, &x).unwrap();
        cells.push(format!("{:.0}", c.gbps()));
        cells.push(format!("{:.1}%", frac * 100.0));
        cells
    });
    for cells in rows {
        t.row(cells);
    }
    t.print();
    println!("  paper: MCScan reaches up to 37.5% of peak; larger s is faster; copy nears peak under L2\n");
}

/// Fig. 9 — MCScan GElems/s for fp16 vs int8 inputs (s = 128).
fn fig9(spec: &ChipSpec, quick: bool) {
    println!("== Figure 9: MCScan giga-elements/s, fp16 vs int8 (s = 128) ==");
    let sizes = if quick {
        sweep(1 << 18, 8, 3)
    } else {
        sweep(1 << 18, 4, 5)
    };
    let mut t = Table::new(&["N", "fp16", "int8", "int8 gain"]);
    let rows = par(sizes, |n| {
        let cfg = McScanConfig {
            s: 128,
            blocks: spec.ai_cores,
            kind: ScanKind::Inclusive,
        };
        let gm = fresh_gm(spec);
        let xf = GlobalTensor::from_slice(&gm, &vec![F16::ZERO; n]).unwrap();
        let rf = mcscan::<F16, F16, F16>(spec, &gm, &xf, cfg).unwrap().report;
        let gm = fresh_gm(spec);
        let xi = GlobalTensor::from_slice(&gm, &vec![1u8; n]).unwrap();
        let ri = mcscan::<u8, i16, i32>(spec, &gm, &xi, cfg).unwrap().report;
        vec![
            human(n),
            format!("{:.2}", rf.gelems()),
            format!("{:.2}", ri.gelems()),
            format!("{:.2}x", ri.gelems() / rf.gelems()),
        ]
    });
    for cells in rows {
        t.row(cells);
    }
    t.print();
    println!("  paper: ~10% more elements/s for int8 inputs\n");
}

/// Fig. 10 — Compress bandwidth vs torch.masked_select (Bernoulli(1/2)).
fn fig10(spec: &ChipSpec, quick: bool) {
    println!("== Figure 10: compress (masked_select) bandwidth (GB/s), fp16 values ==");
    let sizes = if quick {
        sweep(1 << 16, 8, 3)
    } else {
        sweep(1 << 16, 4, 5)
    };
    // Compress counts its mask instead of scanning it, so it has no tile
    // dimension: one column where the paper plots s = 32/64/128.
    let mut t = Table::new(&["N", "compress", "torch.masked_select"]);
    let rows = par(sizes, |n| {
        let vals = synth_f16(n, 1);
        let mask = synth_mask(n, 2);
        let gm = fresh_gm(spec);
        let x = GlobalTensor::from_slice(&gm, &vals).unwrap();
        let m = GlobalTensor::from_slice(&gm, &mask).unwrap();
        let r = compress(spec, &gm, &x, &m).unwrap().report;
        let mut cells = vec![human(n), format!("{:.0}", r.gbps())];
        let gm = fresh_gm(spec);
        let x = GlobalTensor::from_slice(&gm, &vals).unwrap();
        let m = GlobalTensor::from_slice(&gm, &mask).unwrap();
        let (_, b) = baselines::masked_select(spec, &gm, &x, &m).unwrap();
        cells.push(format!("{:.1}", b.gbps()));
        cells
    });
    for cells in rows {
        t.row(cells);
    }
    t.print();
    println!("  paper: compress reaches ~160 GB/s (20% of peak); the baseline is scalar-bound and flat\n");
}

/// Fig. 11 — fp16 radix sort (one-bit splits) vs torch.sort.
fn fig11(spec: &ChipSpec, quick: bool) {
    println!(
        "== Figure 11: fp16 sort, execution time (ms): radix sort (1-bit passes) vs torch.sort =="
    );
    let sizes: Vec<usize> = if quick {
        vec![1 << 16, 1 << 19, 1 << 21]
    } else {
        vec![1 << 16, 1 << 18, 525_000, 1 << 20, 1 << 22, 1 << 24]
    };
    let mut t = Table::new(&["N", "radix sort", "torch.sort", "speedup"]);
    let rows = par(sizes, |n| {
        let vals = synth_f16(n, 3);
        let gm = fresh_gm(spec);
        let x = GlobalTensor::from_slice(&gm, &vals).unwrap();
        let r = radix_sort::<F16>(spec, &gm, &x, 1, SortOrder::Ascending)
            .unwrap()
            .report;
        let gm = fresh_gm(spec);
        let x = GlobalTensor::from_slice(&gm, &vals).unwrap();
        let (_, _, b) = baselines::sort::<F16>(spec, &gm, &x, false).unwrap();
        vec![
            human(n),
            format!("{:.2}", r.time_ms()),
            format!("{:.2}", b.time_ms()),
            format!("{:.2}x", b.time_s() / r.time_s()),
        ]
    });
    for cells in rows {
        t.row(cells);
    }
    t.print();
    println!("  paper: 1.3x-3.3x speedup for N > 525K; baseline wins below\n");
}

/// Fig. 12 — batched-scan bandwidth vs batch size (len = 65536).
fn fig12(spec: &ChipSpec, quick: bool) {
    println!("== Figure 12: batched scan (ScanU schedule) bandwidth (GB/s), len = 64K ==");
    let len = 65536usize;
    let batches: Vec<usize> = if quick {
        vec![4, 16, 40]
    } else {
        vec![1, 2, 4, 8, 16, 24, 32, 40]
    };
    let mut t = Table::new(&["batch", "s=16", "s=32", "s=64", "s=128", "baseline"]);
    let rows = par(batches.clone(), |b| {
        let data = vec![F16::ZERO; b * len];
        let mut cells = vec![b.to_string()];
        for s in [16usize, 32, 64, 128] {
            let gm = fresh_gm(spec);
            let x = GlobalTensor::from_slice(&gm, &data).unwrap();
            let r = batched_scanu::<F16, F16>(spec, &gm, &x, b, len, s)
                .unwrap()
                .report;
            cells.push(format!("{:.0}", r.gbps()));
        }
        // torch.cumsum baseline over the same batch: row-parallel
        // vector-only scans across all vector cores.
        let gm = fresh_gm(spec);
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let base = bench::batched_cumsum_baseline(spec, &gm, &x, b, len).unwrap();
        cells.push(format!("{:.0}", base.gbps()));
        cells
    });
    for cells in rows {
        t.row(cells);
    }
    t.print();
    println!("  paper: s = 64/128 reach ~400 GB/s; s = 16 performs like the baseline\n");

    // Additional L2-resident shapes: same 4M-element working set carved
    // into more, shorter rows. The whole set (x + w + y at fp16) stays
    // inside the 910B4's L2, so these run at L2 rather than HBM
    // bandwidth and expose the per-row scheduling overhead instead.
    println!("  -- L2-resident shapes (batch x len, fp16, s = 128) --");
    let shapes: Vec<(usize, usize)> = if quick {
        vec![(64, 32768)]
    } else {
        vec![(64, 32768), (128, 16384)]
    };
    let mut t2 = Table::new(&["shape", "GB/s", "us", "baseline GB/s"]);
    let rows = par(shapes.clone(), |(b, len)| {
        let data = vec![F16::ZERO; b * len];
        let gm = fresh_gm(spec);
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let r = batched_scanu::<F16, F16>(spec, &gm, &x, b, len, 128)
            .unwrap()
            .report;
        let gm = fresh_gm(spec);
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let base = bench::batched_cumsum_baseline(spec, &gm, &x, b, len).unwrap();
        vec![
            format!("{b}x{}", human(len)),
            format!("{:.0}", r.gbps()),
            us(&r),
            format!("{:.0}", base.gbps()),
        ]
    });
    for cells in rows {
        t2.row(cells);
    }
    t2.print();
    println!();
}

/// Fig. 13 — top-p sampling time vs vocabulary size (batch 1).
fn fig13(spec: &ChipSpec, quick: bool) {
    println!("== Figure 13: top-p (nucleus) sampling time (ms), one sample ==");
    let sizes = if quick {
        sweep(1 << 10, 16, 3)
    } else {
        sweep(1 << 10, 4, 6)
    };
    // `s` is the CDF scan's tile; the sort's splits have none.
    let mut t = Table::new(&["vocab", "s=32", "s=64", "s=128", "PyTorch", "s128 speedup"]);
    let rows = par(sizes, |n| {
        let probs = synth_probs(n, 9);
        let mut cells = vec![human(n)];
        let mut ours128 = 0.0;
        for s in [32usize, 64, 128] {
            let gm = fresh_gm(spec);
            let x = GlobalTensor::from_slice(&gm, &probs).unwrap();
            let r = ops::top_p_sample(spec, &gm, &x, 0.9, 0.37, s, 1)
                .unwrap()
                .report;
            if s == 128 {
                ours128 = r.time_s();
            }
            cells.push(format!("{:.2}", r.time_ms()));
        }
        let gm = fresh_gm(spec);
        let x = GlobalTensor::from_slice(&gm, &probs).unwrap();
        let (_, b) = baseline_top_p(spec, &gm, &x, 0.9, 0.37).unwrap();
        cells.push(format!("{:.2}", b.time_ms()));
        cells.push(format!("{:.2}x", b.time_s() / ours128));
        cells
    });
    for cells in rows {
        t.row(cells);
    }
    t.print();
    println!("  paper: the baseline scales poorly (unoptimized cumsum); ours flat-ish until the sort dominates\n");
}

/// §6.1 text — MCScan speedup over single-core ScanU (saturates ~15.2x).
fn speedup(spec: &ChipSpec, quick: bool) {
    println!("== MCScan vs single-cube ScanU speedup (paper: saturates at 15.2x on 20 cores) ==");
    let sizes = if quick {
        sweep(1 << 18, 8, 3)
    } else {
        sweep(1 << 18, 4, 5)
    };
    let mut t = Table::new(&["N", "ScanU (us)", "MCScan (us)", "speedup"]);
    let rows = par(sizes, |n| {
        let data = vec![F16::ZERO; n];
        let gm = fresh_gm(spec);
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let u = scanu::<F16, F16>(spec, &gm, &x, 128).unwrap().report;
        let gm = fresh_gm(spec);
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let mc = mcscan::<F16, F16, F16>(spec, &gm, &x, McScanConfig::for_chip(spec))
            .unwrap()
            .report;
        vec![
            human(n),
            us(&u),
            us(&mc),
            format!("{:.1}x", u.time_s() / mc.time_s()),
        ]
    });
    for cells in rows {
        t.row(cells);
    }
    t.print();
    println!();
}

/// Runs MCScan and ScanC on the same `n`-element input of the given
/// dtype path ("fp16" or "int8") and returns both reports.
fn traffic_pair(spec: &ChipSpec, n: usize, dtype: &str) -> (KernelReport, KernelReport) {
    match dtype {
        "fp16" => {
            let data = vec![F16::ONE; n];
            let gm = fresh_gm(spec);
            let x = GlobalTensor::from_slice(&gm, &data).unwrap();
            let mc = mcscan::<F16, F16, F16>(spec, &gm, &x, McScanConfig::for_chip(spec))
                .unwrap()
                .report;
            let gm = fresh_gm(spec);
            let x = GlobalTensor::from_slice(&gm, &data).unwrap();
            let sc =
                scanc::<F16, F16, F16>(spec, &gm, &x, ScanCConfig::for_chip::<F16, F16, F16>(spec))
                    .unwrap()
                    .report;
            (mc, sc)
        }
        _ => {
            let data = vec![1u8; n];
            let gm = fresh_gm(spec);
            let x = GlobalTensor::from_slice(&gm, &data).unwrap();
            let mc = mcscan::<u8, i16, i32>(spec, &gm, &x, McScanConfig::for_chip(spec))
                .unwrap()
                .report;
            let gm = fresh_gm(spec);
            let x = GlobalTensor::from_slice(&gm, &data).unwrap();
            let sc =
                scanc::<u8, i16, i32>(spec, &gm, &x, ScanCConfig::for_chip::<u8, i16, i32>(spec))
                    .unwrap()
                    .report;
            (mc, sc)
        }
    }
}

/// ScanC vs MCScan: GM traffic (the chained look-back's win) and time
/// (where the serial flag chain's cost shows) across the Fig. 3 sizes.
fn scanc_experiment(spec: &ChipSpec, quick: bool) {
    println!("== ScanC (chained look-back) vs MCScan: GM traffic and time ==");
    let sizes = if quick {
        sweep(1 << 12, 4, 4)
    } else {
        sweep(1 << 12, 4, 6)
    };
    for dtype in ["fp16", "int8"] {
        println!("  -- {dtype} --");
        let mut t = Table::new(&[
            "N",
            "MCScan B",
            "ScanC B",
            "bytes ratio",
            "MCScan us",
            "ScanC us",
        ]);
        let rows = par(sizes.clone(), |n| {
            let (mc, sc) = traffic_pair(spec, n, dtype);
            let mcb = mc.bytes_read + mc.bytes_written;
            let scb = sc.bytes_read + sc.bytes_written;
            vec![
                human(n),
                mcb.to_string(),
                scb.to_string(),
                format!("{:.2}", scb as f64 / mcb as f64),
                us(&mc),
                us(&sc),
            ]
        });
        for cells in rows {
            t.row(cells);
        }
        t.print();
    }
    println!("  ScanC moves ~2N element accesses against MCScan's ~3N (8 vs 10 B/elem fp16,");
    println!("  9 vs 10 int8); with the decoupled multi-hop look-back hiding the chain");
    println!("  behind local work, the traffic win converts to a time win at the 4M+");
    println!("  anchors too (MCScan keeps the latency-bound mid-range, ~256K-1M)\n");
}

/// §5 text — the top-k negative result: a split-based top-k (the sort's
/// head) does not beat the baseline for k <= 4096.
fn topk_experiment(spec: &ChipSpec, quick: bool) {
    println!("== Top-k: head of the SplitInd radix sort vs baseline torch.topk (paper: negative result for k <= 4096) ==");
    let n = if quick { 1 << 18 } else { 1 << 20 };
    let ks: Vec<usize> = if quick {
        vec![64, 4096]
    } else {
        vec![64, 256, 1024, 4096, 16384, 65536]
    };
    let vals = synth_f16(n, 5);
    let mut t = Table::new(&["k", "ours (ms)", "torch.topk (ms)", "ours/baseline"]);
    let vals_ref = &vals;
    let rows = par(ks.clone(), move |k| {
        let gm = fresh_gm(spec);
        let x = GlobalTensor::from_slice(&gm, vals_ref).unwrap();
        let r = topk::<F16>(spec, &gm, &x, k).unwrap().report;
        let gm = fresh_gm(spec);
        let x = GlobalTensor::from_slice(&gm, vals_ref).unwrap();
        let (_, _, b) = baselines::topk_baseline::<F16>(spec, &gm, &x, k).unwrap();
        vec![
            k.to_string(),
            format!("{:.2}", r.time_ms()),
            format!("{:.2}", b.time_ms()),
            format!("{:.2}x", r.time_s() / b.time_s()),
        ]
    });
    for cells in rows {
        t.row(cells);
    }
    t.print();
    println!("  (values > 1 mean the baseline wins, reproducing the paper's negative finding)\n");
}

/// Ablation of MCScan's recomputation strategy against the classic
/// scan strategies of §2.1 (time in us; int8 -> i32, s = 128).
fn ablation(spec: &ChipSpec, quick: bool) {
    println!("== Ablation: MCScan recomputation vs classic strategies (us, int8, s = 128) ==");
    let sizes = if quick {
        sweep(1 << 16, 16, 2)
    } else {
        sweep(1 << 16, 4, 5)
    };
    let mut header = vec!["N".to_string()];
    header.extend(McScanVariant::ALL.iter().map(|v| v.name().to_string()));
    let mut t = Table::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    let rows = par(sizes, |n| {
        let data = vec![1i8; n];
        let mut cells = vec![human(n)];
        for v in McScanVariant::ALL {
            let gm = fresh_gm(spec);
            let x = GlobalTensor::from_slice(&gm, &data).unwrap();
            let cfg = McScanConfig {
                s: 128,
                blocks: spec.ai_cores,
                kind: ScanKind::Inclusive,
            };
            let r = mcscan_variant::<i8, i16, i32>(spec, &gm, &x, cfg, v)
                .unwrap()
                .report;
            cells.push(format!("{:.1}", r.time_us()));
        }
        cells
    });
    for cells in rows {
        t.row(cells);
    }
    t.print();
    println!("  recomputation beats SSA everywhere and stays within ~10% of RSS (both move");
    println!("  ~10 B/elem); unlike RSS it also avoids per-tile cube->vector flag traffic,");
    println!("  which the timing model now prices explicitly (CrossCoreSetFlag/WaitFlag");
    println!(
        "  pairs, {} + {} cycles each on this preset)\n",
        ChipSpec::ascend_910b4().flag_set_cycles,
        ChipSpec::ascend_910b4().flag_wait_cycles
    );
}

/// The paper's future-work expectation: low-bit-width sorting gets
/// faster because radix passes equal the key width (8 passes vs 16).
fn lowbit(spec: &ChipSpec, quick: bool) {
    println!("== Low-precision sort: int8 (8 passes) vs fp16 (16 passes) radix sort (ms) ==");
    let sizes = if quick {
        vec![1 << 18]
    } else {
        vec![1 << 18, 1 << 20, 1 << 22]
    };
    let mut t = Table::new(&["N", "fp16 sort", "int8 sort", "gain"]);
    let rows = par(sizes, |n| {
        let vals16 = synth_f16(n, 21);
        let vals8: Vec<i8> = vals16.iter().map(|v| (v.to_f32() / 10.0) as i8).collect();
        let gm = fresh_gm(spec);
        let x = GlobalTensor::from_slice(&gm, &vals16).unwrap();
        let r16 = radix_sort::<F16>(spec, &gm, &x, 1, SortOrder::Ascending)
            .unwrap()
            .report;
        let gm = fresh_gm(spec);
        let x = GlobalTensor::from_slice(&gm, &vals8).unwrap();
        let r8 = radix_sort::<i8>(spec, &gm, &x, 1, SortOrder::Ascending)
            .unwrap()
            .report;
        vec![
            human(n),
            format!("{:.2}", r16.time_ms()),
            format!("{:.2}", r8.time_ms()),
            format!("{:.2}x", r16.time_s() / r8.time_s()),
        ]
    });
    for cells in rows {
        t.row(cells);
    }
    t.print();
    println!("  paper (future work): ~2x expected for 8-bit keys without further development\n");
}

/// Radix-sort digit width: the paper's one-bit passes, two-bit passes
/// and the four-bit passes `Device` runs (a 16-way split over fifteen
/// digit masks made from the keys per pass), for fp16 and int8 keys at
/// Fig. 11's sizes and for top-p at Fig. 13's vocabularies, plus where
/// the `Device` fp16 sort overtakes the `torch.sort` cost model.
fn radix_digits(spec: &ChipSpec, quick: bool) {
    println!("== Radix digits: 1-bit vs 2-bit vs 4-bit passes (ms) ==");
    let sizes = if quick {
        vec![1 << 16, 1 << 20]
    } else {
        sweep(1 << 10, 4, 8)
    };
    let sort_ms = |bits: u32, n: usize, int8: bool| {
        let vals = synth_f16(n, 3);
        let gm = fresh_gm(spec);
        let r = if int8 {
            let v: Vec<i8> = vals.iter().map(|v| (v.to_f32() / 10.0) as i8).collect();
            let x = GlobalTensor::from_slice(&gm, &v).unwrap();
            radix_sort::<i8>(spec, &gm, &x, bits, SortOrder::Ascending).map(|r| r.report)
        } else {
            let x = GlobalTensor::from_slice(&gm, &vals).unwrap();
            radix_sort::<F16>(spec, &gm, &x, bits, SortOrder::Ascending).map(|r| r.report)
        };
        r.unwrap().time_ms()
    };
    let mut t = Table::new(&[
        "N",
        "fp16 1-bit",
        "fp16 2-bit",
        "fp16 4-bit",
        "4 vs 2",
        "int8 1-bit",
        "int8 2-bit",
        "int8 4-bit",
        "4 vs 2",
    ]);
    let rows = par(sizes, |n| {
        let mut cells = vec![human(n)];
        for int8 in [false, true] {
            let ms = [1, 2, 4].map(|bits| sort_ms(bits, n, int8));
            cells.extend(ms.iter().map(|t| format!("{t:.3}")));
            cells.push(format!("{:.2}x", ms[1] / ms[2]));
        }
        cells
    });
    for cells in rows {
        t.row(cells);
    }
    t.print();

    let vocabs = if quick {
        vec![32_000, 128_256]
    } else {
        vec![1 << 10, 1 << 12, 1 << 14, 32_000, 1 << 16, 128_256, 1 << 18]
    };
    let mut t = Table::new(&[
        "vocab",
        "top-p 1-bit",
        "top-p 2-bit",
        "top-p 4-bit",
        "4 vs 2",
    ]);
    let rows = par(vocabs, |n| {
        let probs = synth_probs(n, 9);
        let mut cells = vec![human(n)];
        let mut ms = Vec::new();
        for bits in [1, 2, 4] {
            let gm = fresh_gm(spec);
            let x = GlobalTensor::from_slice(&gm, &probs).unwrap();
            let r = ops::top_p_sample(spec, &gm, &x, 0.9, 0.37, 128, bits).unwrap();
            ms.push(r.report.time_ms());
            cells.push(format!("{:.3}", r.report.time_ms()));
        }
        cells.push(format!("{:.2}x", ms[1] / ms[2]));
        cells
    });
    for cells in rows {
        t.row(cells);
    }
    t.print();

    // Bisect the fp16 size where the `Device` sort first beats the
    // `torch.sort` cost model.
    let wins = |n: usize| {
        let gm = fresh_gm(spec);
        let x = GlobalTensor::from_slice(&gm, &synth_f16(n, 3)).unwrap();
        let (_, _, b) = baselines::sort::<F16>(spec, &gm, &x, false).unwrap();
        sort_ms(SORT_DIGIT_BITS, n, false) < b.time_ms()
    };
    let (mut lo, mut hi) = (1usize << 10, 1usize << 20);
    if !quick && !wins(lo) && wins(hi) {
        while hi - lo > hi / 64 {
            let mid = (lo + hi) / 2;
            if wins(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        println!(
            "  {SORT_DIGIT_BITS}-bit fp16 sort overtakes torch.sort at ~{}",
            human(hi)
        );
    }
    println!(
        "  one-bit passes are the paper's sort (Fig. 11/13 and the low-precision table run them)\n"
    );
}

/// Core-count scaling of MCScan at a fixed large input: the structure
/// behind the paper's "saturates at 15.2x with all 20 AI cores".
fn scaling(spec: &ChipSpec, quick: bool) {
    println!("== MCScan scaling with AI-core count (fp16, s = 128) ==");
    let n = if quick { 4 << 20 } else { 16 << 20 };
    let data = vec![F16::ZERO; n];
    let mut t = Table::new(&["blocks", "time (us)", "GB/s", "vs 1 block"]);
    let data_ref = &data;
    let rows = par(vec![1u32, 2, 4, 8, 12, 16, 20], move |blocks| {
        let gm = fresh_gm(spec);
        let x = GlobalTensor::from_slice(&gm, data_ref).unwrap();
        let r = mcscan::<F16, F16, F16>(
            spec,
            &gm,
            &x,
            McScanConfig {
                s: 128,
                blocks,
                kind: ScanKind::Inclusive,
            },
        )
        .unwrap()
        .report;
        (blocks, r)
    });
    let t1 = rows
        .iter()
        .find(|(blocks, _)| *blocks == 1)
        .map(|(_, r)| r.time_s())
        .unwrap_or(0.0);
    for (blocks, r) in rows {
        t.row(vec![
            blocks.to_string(),
            format!("{:.1}", r.time_us()),
            format!("{:.0}", r.gbps()),
            format!("{:.1}x", t1 / r.time_s()),
        ]);
    }
    t.print();
    println!("  near-linear until the 5N-traffic roofline, then flat: more cores cannot");
    println!("  buy bandwidth (N = {})\n", human(n));
}

/// The paper's future-work question: does a larger matmul tile help?
/// Simulated by a hypothetical chip with doubled L0/UB scratchpads so
/// s = 256 fits (on the real 910B4, s = 128 exactly fills L0A/L0B).
fn tiles(quick: bool) {
    println!("== Future work: larger matmul tiles on a hypothetical chip (2x L0/UB) ==");
    let mut fat = ChipSpec::ascend_910b4();
    fat.name = "910B4 + 2x scratchpads";
    fat.l0a_capacity *= 2;
    fat.l0b_capacity *= 2;
    fat.l0c_capacity *= 4;
    fat.ub_capacity *= 4;
    fat.l1_capacity *= 2;
    let n = if quick { 4 << 20 } else { 16 << 20 };
    let data = vec![F16::ZERO; n];
    let mut t = Table::new(&["s", "time (us)", "GB/s"]);
    let fat_ref = &fat;
    let data_ref = &data;
    let rows = par(vec![64usize, 128, 256], move |s| {
        let gm = fresh_gm(fat_ref);
        let x = GlobalTensor::from_slice(&gm, data_ref).unwrap();
        let r = mcscan::<F16, F16, F16>(
            fat_ref,
            &gm,
            &x,
            McScanConfig {
                s,
                blocks: fat_ref.ai_cores,
                kind: ScanKind::Inclusive,
            },
        )
        .unwrap()
        .report;
        vec![
            s.to_string(),
            format!("{:.1}", r.time_us()),
            format!("{:.0}", r.gbps()),
        ]
    });
    for cells in rows {
        t.row(cells);
    }
    t.print();
    println!("  the paper conjectures further gains from bigger tiles; the model agrees but");
    println!("  shows diminishing returns once the 5N-traffic roofline binds\n");
}

/// Reduction — the scan's sibling primitive from the Dakkak et al.
/// lineage: cube row-sum reduction vs the vector-only baseline, both
/// against the 1N-read roofline.
fn reduce_experiment(spec: &ChipSpec, quick: bool) {
    println!("== Reduction: cube (A @ 1s) vs vector-only, bandwidth (GB/s, fp16) ==");
    let sizes = if quick {
        sweep(1 << 18, 16, 2)
    } else {
        sweep(1 << 18, 4, 5)
    };
    let mut t = Table::new(&["N", "cube", "vector", "MCScan (ref)"]);
    let rows = par(sizes, |n| {
        let data = vec![F16::ONE; n];
        let gm = fresh_gm(spec);
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let rc = scan::reduce_cube::<F16>(spec, &gm, &x, 128).unwrap().report;
        let gm = fresh_gm(spec);
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let rv = scan::reduce_vec::<F16>(spec, &gm, &x).unwrap().report;
        let gm = fresh_gm(spec);
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let ms = mcscan::<F16, F16, F16>(spec, &gm, &x, McScanConfig::for_chip(spec))
            .unwrap()
            .report;
        vec![
            human(n),
            format!("{:.0}", rc.gbps()),
            format!("{:.0}", rv.gbps()),
            format!("{:.0}", ms.gbps()),
        ]
    });
    for cells in rows {
        t.row(cells);
    }
    t.print();
    println!("  a reduction reads each element once and rides close to the copy roofline;");
    println!("  both variants are bandwidth-bound, so the cube buys nothing here — matching");
    println!("  Dakkak et al.'s finding that matrix engines help scans more than reductions\n");
}
