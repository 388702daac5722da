//! The traced run (`--trace 1`): per-layer metrics, never mixed into the
//! end-to-end run. Each request of the mix is served three times on fresh
//! devices — untraced, under `with_profiling`, and with
//! `ValidationMode::Cheap` — and `hb::analyze` is timed on each launch's
//! recorded events. Layers are attributed by timing calls into their
//! public functions from this file; the split inside `ascendc::launch`
//! (kernel closure, scheduler, timeline) is not reachable from here.
//!
//! Counts and times are means per request. Shares and rates are ratios of
//! sums over all traced requests.

use crate::{metric, ms, Bench, Metric, Mode};
use ascend_scan::sim::critpath::CritSummary;
use ascend_scan::sim::{hb, EngineKind, HbAction};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Launch names the operators of the three workloads use; each gets a
/// `ops.kernel.<name>.*` pair, zero where a workload does not launch it.
const KERNELS: [&str; 8] = [
    "RadixEncode",
    "RadixSingle",
    "MCScan",
    "MaskScatter",
    "RadixDecode",
    "IndexCopy",
    "TopPThreshold",
    "CdfSearch",
];

/// Critical-path classes, as `critpath.<class>_share`.
const CRIT: [&str; 6] = [
    "launch",
    "busy",
    "hbm",
    "barrier_release",
    "flag_wire",
    "chain_wire",
];

const ENGINES: [EngineKind; 5] = [
    EngineKind::Cube,
    EngineKind::Vec,
    EngineKind::Mte2,
    EngineKind::Mte3,
    EngineKind::Scalar,
];

fn crit_cycles(s: &CritSummary) -> [u64; 6] {
    [
        s.launch,
        s.busy,
        s.hbm,
        s.barrier_release,
        s.flag_wire,
        s.chain_wire,
    ]
}

#[derive(Default)]
struct Sums {
    requests: u64,
    upload: Duration,
    download: Duration,
    host: Duration,
    call: Duration,
    traced_host: Duration,
    cheap_call: Duration,
    hb_analyze: Duration,
    cycles: u64,
    launches: u64,
    /// Per launch name: simulated cycles and launch count.
    kernels: BTreeMap<String, (u64, u64)>,
    scan_bytes: u64,
    scan_elems: u64,
    scan_cycles: u64,
    sync_rounds: u64,
    crit: [u64; 6],
    crit_makespan: u64,
    busy: [u64; 5],
    capacity: [u64; 5],
    stalls: [u64; 4],
    instructions: u64,
    hb_events: u64,
    working_set: u64,
    dram: u64,
    l2: u64,
}

pub fn traced(bench: &mut Bench, seconds: f64) -> (Vec<Metric>, String) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut sums = Sums::default();
    let mut passes = 0;
    while passes == 0 || Instant::now() < deadline {
        for i in 0..bench.mix.len() {
            trace_request(bench, i, &mut sums);
        }
        passes += 1;
    }
    let failed = bench.failed as f64 / bench.attempted as f64;
    let details = format!("\"passes\":{passes},\"traced_requests\":{}", sums.requests);
    (finish(bench, &sums, failed), details)
}

fn trace_request(bench: &mut Bench, i: usize, sums: &mut Sums) {
    let Some(plain) = bench.serve(i, Mode::Plain) else {
        return;
    };
    let Some(traced) = bench.serve(i, Mode::Profiled) else {
        return;
    };
    let Some(cheap) = bench.serve(i, Mode::Cheap) else {
        return;
    };
    let profile = traced
        .profile
        .as_ref()
        .expect("profiled serve has a profile");
    let report = &plain.report;
    let launch_cycles: u64 = profile.kernels.iter().map(|k| k.cycles).sum();
    if launch_cycles != report.cycles {
        bench.fail::<()>(
            i,
            &format!(
                "profiled launches sum to {launch_cycles} cycles, request reports {}",
                report.cycles
            ),
        );
        return;
    }
    if cheap.report.cycles != report.cycles {
        bench.fail::<()>(i, "Cheap validation changed the simulated cycles");
        return;
    }

    let spec = &bench.spec;
    sums.requests += 1;
    sums.upload += plain.upload;
    sums.download += plain.download;
    sums.host += plain.host();
    sums.call += plain.call;
    sums.traced_host += traced.host();
    sums.cheap_call += cheap.call;

    let start = Instant::now();
    for k in &profile.kernels {
        black_box(hb::analyze(black_box(&k.hb_events)));
    }
    sums.hb_analyze += start.elapsed();

    sums.cycles += report.cycles;
    sums.launches += profile.kernels.len() as u64;
    sums.sync_rounds += report.sync_rounds;
    for k in &profile.kernels {
        let entry = sums.kernels.entry(k.name.clone()).or_default();
        entry.0 += k.cycles;
        entry.1 += 1;
        sums.hb_events += k.hb_events.len() as u64;
        if k.name == "MCScan" {
            // Every MCScan launch of these operators scans the whole input.
            sums.scan_elems += report.elements;
            sums.scan_cycles += k.cycles;
            sums.scan_bytes += k
                .hb_events
                .iter()
                .map(|e| match e.action {
                    HbAction::GmRead { start, end } | HbAction::GmWrite { start, end } => {
                        end - start
                    }
                    _ => 0,
                })
                .sum::<u64>();
        }
        if let Some(cp) = &k.critical_path {
            let cycles = crit_cycles(&cp.summary);
            for (sum, c) in sums.crit.iter_mut().zip(cycles) {
                *sum += c;
            }
            sums.crit_makespan += cp.summary.makespan;
        }
    }
    for (j, e) in ENGINES.iter().enumerate() {
        sums.busy[j] += report.engine_busy[e.index()];
        sums.capacity[j] += spec.cores_with_engine(report.blocks, *e) * report.cycles;
    }
    let st = &report.stalls;
    for (sum, per_engine) in
        sums.stalls
            .iter_mut()
            .zip([&st.dependency, &st.flag, &st.barrier, &st.contention])
    {
        *sum += per_engine.iter().sum::<u64>();
    }
    sums.instructions += report.engine_instructions.iter().sum::<u64>();
    let dram = report.dram_bytes(spec);
    sums.working_set += report.working_set;
    sums.dram += dram;
    sums.l2 += (report.bytes_read + report.bytes_written).saturating_sub(dram);
}

fn finish(bench: &Bench, s: &Sums, fail_rate: f64) -> Vec<Metric> {
    let spec = &bench.spec;
    let n = s.requests as f64;
    let cycles_to_us = |c: u64| c as f64 / (spec.clock_ghz * 1e3);
    let per = |x: f64| x / n;
    let validation = ms(s.call) - ms(s.cheap_call);
    let mut m = vec![
        metric("core.upload_ms", per(ms(s.upload)), "ms"),
        metric("core.download_ms", per(ms(s.download)), "ms"),
    ];
    for name in KERNELS {
        let (cycles, launches) = s.kernels.get(name).copied().unwrap_or_default();
        m.push(metric(
            format!("ops.kernel.{name}.sim_us"),
            per(cycles_to_us(cycles)),
            "us",
        ));
        m.push(metric(
            format!("ops.kernel.{name}.launches"),
            per(launches as f64),
            "count",
        ));
    }
    for (name, (cycles, launches)) in &s.kernels {
        if !KERNELS.contains(&name.as_str()) {
            println!(
                "unlisted launch {name}: {} us, {} launches per request",
                per(cycles_to_us(*cycles)),
                per(*launches as f64)
            );
        }
    }
    let scan_s = s.scan_cycles as f64 / (spec.clock_ghz * 1e9);
    m.extend([
        metric("ascendc.launches", per(s.launches as f64), "count"),
        metric(
            "ascendc.launch_share",
            (s.launches * spec.launch_cycles) as f64 / s.cycles as f64,
            "ratio",
        ),
        metric(
            "ascendc.host_ms_per_launch",
            ms(s.call) / s.launches as f64,
            "ms",
        ),
        metric(
            "scan.bytes_per_elem",
            s.scan_bytes as f64 / s.scan_elems as f64,
            "B/elem",
        ),
        metric(
            "scan.fraction_of_peak",
            s.scan_bytes as f64 / scan_s / spec.hbm_bytes_per_sec,
            "ratio",
        ),
        metric("scan.sync_rounds", per(s.sync_rounds as f64), "count"),
    ]);
    for (class, cycles) in CRIT.iter().zip(s.crit) {
        m.push(metric(
            format!("critpath.{class}_share"),
            cycles as f64 / s.crit_makespan as f64,
            "ratio",
        ));
    }
    for (j, e) in ENGINES.iter().enumerate() {
        m.push(metric(
            format!("engine.{}.util", e.name()),
            s.busy[j] as f64 / s.capacity[j] as f64,
            "ratio",
        ));
    }
    for (cause, cycles) in ["dependency", "flag", "barrier", "contention"]
        .iter()
        .zip(s.stalls)
    {
        m.push(metric(
            format!("engine.stall_{cause}"),
            per(cycles as f64),
            "cycles",
        ));
    }
    let mb = |bytes: u64| per(bytes as f64 / 1e6);
    m.extend([
        metric("engine.instructions", per(s.instructions as f64), "count"),
        metric(
            "sim.host_ns_per_instr",
            s.call.as_secs_f64() * 1e9 / s.instructions as f64,
            "ns",
        ),
        metric(
            "sim.cycles_per_host_s",
            s.cycles as f64 / s.call.as_secs_f64(),
            "cycles/s",
        ),
        metric("simcheck.validation_ms", per(validation), "ms"),
        metric(
            "simcheck.validation_share",
            validation / ms(s.host),
            "ratio",
        ),
        metric("hb.events", per(s.hb_events as f64), "count"),
        metric("hb.analyze_ms", per(ms(s.hb_analyze)), "ms"),
        metric("mem.working_set_mb", mb(s.working_set), "MB"),
        metric("mem.dram_mb", mb(s.dram), "MB"),
        metric("mem.l2_mb", mb(s.l2), "MB"),
        metric(
            "prof.trace_overhead",
            s.traced_host.as_secs_f64() / s.host.as_secs_f64(),
            "ratio",
        ),
        metric("fail_rate", fail_rate, "ratio"),
    ]);
    m
}
