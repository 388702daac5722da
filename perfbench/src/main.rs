//! The repository benchmark. It drives the public `Device` operators with
//! seeded inputs, checks every output against a host oracle, and prints
//! either the end-to-end metrics (`--trace 0`) or the per-layer metrics of
//! a separate traced run (`--trace 1`). The last line of standard output
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload topp_sampling|scan_stream|compact_mid \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Requests run closed-loop from this one thread, one in flight, on the
//! default chip (`ChipSpec::ascend_910b4()`, `ValidationMode::Full`) and
//! the default scheduler. NOTES.md explains the workloads and metrics.

mod anchors;
mod layers;
mod mix;
mod provenance;

use ascend_scan::sim::ValidationMode;
use ascend_scan::ChipSpec;
use mix::{Request, Served, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// The tail percentile keeps this many request samples beyond it.
const TAIL_BEYOND: usize = 10;

const USAGE: &str = "usage: perfbench --workload <topp_sampling|scan_stream|compact_mid> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// How a request is served.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The default chip, untraced: what users run.
    Plain,
    /// The default chip with every launch profiled.
    Profiled,
    /// The default chip with `ValidationMode::Cheap`.
    Cheap,
}

/// The request mix of one run plus its failure accounting.
pub struct Bench {
    pub spec: ChipSpec,
    cheap: ChipSpec,
    pub mix: Vec<Request>,
    pub attempted: u64,
    pub failed: u64,
    /// Each entry's first `KernelReport::to_json`: every later run of the
    /// entry, on its own fresh `Device`, must reproduce it byte for byte.
    first_report: Vec<Option<String>>,
}

impl Bench {
    fn new(mix: Vec<Request>) -> Bench {
        let spec = ChipSpec::ascend_910b4();
        Bench {
            cheap: spec.clone().with_validation(ValidationMode::Cheap),
            spec,
            first_report: vec![None; mix.len()],
            mix,
            attempted: 0,
            failed: 0,
        }
    }

    /// Serves mix entry `i` and checks it. A returned `Err`, a panic, an
    /// oracle mismatch or a report that differs from the entry's first
    /// one count as a failure and yield `None`.
    pub fn serve(&mut self, i: usize, mode: Mode) -> Option<Served> {
        self.attempted += 1;
        let spec = if mode == Mode::Cheap {
            &self.cheap
        } else {
            &self.spec
        };
        let req = &self.mix[i];
        let served =
            match catch_unwind(AssertUnwindSafe(|| req.serve(spec, mode == Mode::Profiled))) {
                Ok(Ok(served)) => served,
                Ok(Err(e)) => return self.fail(i, &format!("returned {e}")),
                Err(_) => return self.fail(i, "panicked"),
            };
        if let Err(why) = req.check(&served.output) {
            return self.fail(i, &format!("output differs from the oracle: {why}"));
        }
        if mode != Mode::Cheap {
            let json = served.report.to_json(&self.spec);
            match &self.first_report[i] {
                None => self.first_report[i] = Some(json),
                Some(first) if *first != json => {
                    return self.fail(i, "report differs from the entry's first run")
                }
                Some(_) => {}
            }
        }
        Some(served)
    }

    /// Counts a failure of entry `i` and reports it on stderr.
    pub fn fail<T>(&mut self, i: usize, why: &str) -> Option<T> {
        self.failed += 1;
        eprintln!("perfbench: FAIL {}: {why}", self.mix[i].label);
        None
    }
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Builds the mix `SETUPS` times and serves its first request cold on a
/// fresh `Device` after each build. Returns the last mix and the set-up
/// times.
fn set_up(workload: Workload, seed: u64) -> (Bench, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUPS);
    let (mut attempted, mut failed, mut last) = (0, 0, None::<Bench>);
    for _ in 0..SETUPS {
        // Drop the previous mix first so set-ups do not stack in memory.
        if let Some(prev) = last.take() {
            attempted += prev.attempted;
            failed += prev.failed;
        }
        let start = Instant::now();
        let mut bench = Bench::new(mix::build(workload, seed));
        let built = start.elapsed();
        bench.serve(0, Mode::Plain);
        let total = start.elapsed();
        println!(
            "set-up: mix built in {:.3} s, first request {:.3} s",
            built.as_secs_f64(),
            (total - built).as_secs_f64()
        );
        times.push(total.as_secs_f64());
        last = Some(bench);
    }
    let mut bench = last.expect("SETUPS > 0");
    bench.attempted += attempted;
    bench.failed += failed;
    (bench, times)
}

/// The timed closed loop: whole passes over the mix until `seconds` have
/// passed, at least one pass.
fn end_to_end(bench: &mut Bench, seconds: f64) -> (Vec<Metric>, String) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut pass_means, mut samples, mut sim_us) = (Vec::new(), Vec::new(), None);
    while pass_means.is_empty() || Instant::now() < deadline {
        let (mut host, mut sim) = (Vec::new(), Vec::new());
        for i in 0..bench.mix.len() {
            if let Some(served) = bench.serve(i, Mode::Plain) {
                host.push(ms(served.host()));
                sim.push(served.report.time_us());
            }
        }
        sim_us.get_or_insert(mean(&sim));
        pass_means.push(mean(&host));
        samples.extend(host);
    }
    samples.sort_by(|a, b| b.total_cmp(a));
    let beyond = TAIL_BEYOND.min(samples.len().saturating_sub(1));
    let tail = samples.get(beyond).copied().unwrap_or(f64::NAN);
    let percentile = 100.0 * (1.0 - beyond as f64 / samples.len() as f64);
    let metrics = vec![
        metric("sim_us", sim_us.unwrap_or(f64::NAN), "us"),
        metric("host_ms_p50", median(&pass_means), "ms"),
        metric("host_ms_tail", tail, "ms"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    let details = format!(
        "\"passes\":{},\"requests\":{},\"host_ms_tail_percentile\":{percentile},\
         \"host_ms_tail_samples_beyond\":{beyond}",
        pass_means.len(),
        samples.len()
    );
    (metrics, details)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The process's peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib * 1024.0 / 1e6)
        })
        .unwrap_or(f64::NAN)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (mut bench, setups) = set_up(args.workload, args.seed);
    let (mut metrics, details) = if args.trace {
        layers::traced(&mut bench, args.seconds)
    } else {
        end_to_end(&mut bench, args.seconds)
    };
    // After the workload, so the anchors' 16M scans stay out of its peak RSS.
    let anchors = anchors::check();
    if !args.trace {
        metrics.push(metric("setup_s", median(&setups), "s"));
        metrics.push(metric("paper_err_pct", anchors.paper_err_pct, "%"));
    }

    let spec = &bench.spec;
    println!(
        "{{\"provenance\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"nproc\":{},\"scheduler\":\"{:?}\",\"validation\":\"{:?}\",\"chip\":{:?},\
         \"git_rev\":{},\"source_digest\":\"{}\"}},\
         \"run\":{{{details},\"setup_s\":{setups:?},\"anchors\":{}}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        spec.scheduler.resolve(),
        spec.validation,
        spec.name,
        provenance::git_rev().map_or("null".into(), |r| format!("{r:?}")),
        provenance::source_digest(),
        anchors.json,
    );
    for m in &metrics {
        println!("{:<40} {:>20} {}", m.name, m.value, m.unit);
    }
    let correct = bench.failed == 0 && anchors.discrepancies == 0 && bench.attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!("{:?}:{{\"value\":{value},\"unit\":\"{}\"}}", m.name, m.unit)
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        bench.attempted,
        bench.failed,
        body.join(",")
    );
    ExitCode::SUCCESS
}
