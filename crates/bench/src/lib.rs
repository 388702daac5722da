//! Shared harness code for the figure-reproduction binary and the
//! Criterion benches: size sweeps, table printing, and the composed
//! baseline operators (e.g. the PyTorch top-p pipeline).

#![forbid(unsafe_code)]

use ascend_sim::json::{self, Json};
use ascend_sim::mem::GlobalMemory;
use ascend_sim::{ChipSpec, EngineKind, KernelReport};
use ascendc::{GlobalTensor, SimResult};
use dtypes::F16;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Geometric size sweep: `count` sizes starting at `start`, each
/// `factor`× the previous.
pub fn sweep(start: usize, factor: usize, count: usize) -> Vec<usize> {
    let mut v = Vec::with_capacity(count);
    let mut n = start;
    for _ in 0..count {
        v.push(n);
        n *= factor;
    }
    v
}

/// Pretty-prints a table: header + rows of fixed-width columns.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header's arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "table arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let cols: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            println!("  {}", cols.join("  "));
        };
        line(&self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        println!("  {}", "-".repeat(total));
        for row in &self.rows {
            line(row);
        }
    }
}

/// Formats a count like `65536` as `64K` / `16M` for axis labels.
pub fn human(n: usize) -> String {
    if n >= 1 << 20 && n.is_multiple_of(1 << 20) {
        format!("{}M", n >> 20)
    } else if n >= 1 << 10 && n.is_multiple_of(1 << 10) {
        format!("{}K", n >> 10)
    } else {
        n.to_string()
    }
}

/// A fresh device for one measurement (new memory, same spec).
pub fn fresh_gm(spec: &ChipSpec) -> Arc<GlobalMemory> {
    Arc::new(GlobalMemory::new(spec.hbm_capacity))
}

/// One deferred measurement point for [`run_points`]: a boxed closure
/// owning its whole launch state.
pub type Point<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// Runs independent measurement points on a pool of `jobs` std threads
/// and returns the results **in point order**, regardless of which
/// worker finished first. Each point owns its whole launch state (a
/// fresh [`GlobalMemory`] per point), so the points are embarrassingly
/// parallel and the committed output is byte-identical to running them
/// sequentially with `jobs = 1`.
///
/// Scheduling is a shared atomic cursor over the point list: workers
/// claim the next unstarted point, so long points never leave the pool
/// idle behind a fixed pre-partition. A panicking point propagates out
/// of the scope and fails the run, exactly as it would serially.
pub fn run_points<'a, T: Send + 'a>(points: Vec<Point<'a, T>>, jobs: usize) -> Vec<T> {
    let n = points.len();
    let workers = jobs.max(1).min(n.max(1));
    if workers <= 1 {
        return points.into_iter().map(|f| f()).collect();
    }
    let slots: Vec<Mutex<Option<Point<'a, T>>>> =
        points.into_iter().map(|p| Mutex::new(Some(p))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let f = slots[i]
                    .lock()
                    .expect("run_points slot poisoned")
                    .take()
                    .expect("each point runs exactly once");
                *results[i].lock().expect("run_points result poisoned") = Some(f());
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("run_points result poisoned")
                .expect("worker committed this point")
        })
        .collect()
}

/// Deterministic pseudo-random fp16 probabilities for sampling workloads
/// (positive, roughly Zipf-ish so nucleus sampling is non-trivial).
pub fn synth_probs(n: usize, seed: u64) -> Vec<F16> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let r = (state >> 40) as f32 / (1u64 << 24) as f32; // [0,1)
            F16::from_f32(r / (1.0 + i as f32 * 0.01))
        })
        .collect()
}

/// Deterministic pseudo-random fp16 values over the full finite range.
pub fn synth_f16(n: usize, seed: u64) -> Vec<F16> {
    let mut state = seed.wrapping_mul(0xD134_2543_DE82_EF95) | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            F16::from_f32(((state >> 40) as f32 / (1u64 << 23) as f32 - 1.0) * 1000.0)
        })
        .collect()
}

/// Deterministic Bernoulli(1/2) mask.
pub fn synth_mask(n: usize, seed: u64) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0xA076_1D64_78BD_642F) | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 63) as u8
        })
        .collect()
}

/// The batched `torch.cumsum` baseline for Fig. 12: row-wise vector-only
/// scans (Hillis–Steele per `s`-row + partial propagation), with batch
/// rows spread over all vector cores — the stock operator parallelizes
/// across the batch dimension but never touches the cube units.
pub fn batched_cumsum_baseline(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<F16>,
    batch: usize,
    len: usize,
) -> SimResult<KernelReport> {
    use ascend_sim::chip::ScratchpadKind;
    let s = 128usize;
    let piece = 4096usize;
    let blocks = (spec.ai_cores as usize).min(batch.div_ceil(2).max(1)) as u32;
    let y = GlobalTensor::<F16>::new(gm, batch * len)?;
    let mut report = ascendc::launch(spec, gm, blocks, "torch.cumsum(batched)", |ctx| {
        let lane0 = ctx.block_idx as usize * ctx.vecs.len();
        let stride = ctx.block_dim as usize * ctx.vecs.len();
        for v in 0..ctx.vecs.len() {
            let vc = &mut ctx.vecs[v];
            let mut q = ascendc::TQue::<F16>::new(vc, ScratchpadKind::Ub, 2, piece)?;
            let mut tmp = vc.alloc_local::<F16>(ScratchpadKind::Ub, s)?;
            for row in (lane0 + v..batch).step_by(stride) {
                let base = row * len;
                let mut partial = F16::ZERO;
                let mut partial_ready = 0;
                let mut off = 0;
                while off < len {
                    let valid = piece.min(len - off);
                    let mut buf = q.alloc_tensor()?;
                    vc.copy_in(&mut buf, 0, x, base + off, valid, &[])?;
                    let mut ro = 0;
                    while ro < valid {
                        let rl = s.min(valid - ro);
                        let mut shift = 1;
                        while shift < rl {
                            let span = rl - shift;
                            vc.copy_local(&mut tmp, 0, &buf, ro, span)?;
                            vc.vadd_inplace(&mut buf, ro + shift, &tmp, 0, span)?;
                            shift *= 2;
                        }
                        vc.vadds(&mut buf, ro, rl, partial, partial_ready)?;
                        let (p, pr) = vc.extract(&buf, ro + rl - 1)?;
                        partial = p;
                        partial_ready = pr;
                        vc.scalar_ops(16, &[])?;
                        ro += rl;
                    }
                    let ev = vc.copy_out(&y, base + off, &buf, 0, valid, &[])?;
                    q.free_tensor(buf, ev);
                    off += valid;
                }
            }
            vc.free_local(tmp)?;
            q.destroy(vc)?;
        }
        Ok(())
    })?;
    report.elements = (batch * len) as u64;
    report.useful_bytes = (2 * batch * len * 2) as u64;
    Ok(report)
}

/// Parses a `bench-scan/v5` document and checks that it carries every
/// key downstream readers rely on and that its numbers are physically
/// sane. Required: the `schema`; per kernel, the report keys
/// (`name`, `cycles`, `time_us`, `gbps`, `traffic_gbps`,
/// `l2_traffic_gbps`, `working_set`, `gelems`, `fraction_of_peak`,
/// `barrier_wait_cycles`, `flag_wait_cycles`, and an `engines` entry per
/// engine with `busy_cycles` and the four stall counters); both
/// `ScanC(fp16)` and `ScanC(int8)` kernels; at least one audited kernel
/// (`critical_path`); a non-empty `traffic` sweep whose rows carry
/// `scanc_lookback`; and the `host` section. Sanity bounds, for every
/// kernel entry:
///
/// * `fraction_of_peak` and every per-engine `utilization` in `[0, 1]`;
/// * `traffic_gbps` (DRAM-attributed) at most the chip's HBM peak;
/// * per engine, the idle-stall sum (`stall_dependency + stall_barrier +
///   stall_flag`) at most `cores × (cycles − launch_cycles)` — no core
///   can idle longer than it exists (`stall_contention` overlaps busy
///   time and is exempt);
/// * when a `critical_path` section is present (every audited launch):
///   its `makespan` equals the kernel's `cycles`, the class attribution
///   (`launch + busy + flag_wire + chain_wire + barrier_release + hbm`)
///   sums to the makespan exactly, every share fraction lies in
///   `[0, 1]`, and the what-ifs include `free_flags`, `zero_lookback`
///   and `free_barrier_release`, each predicting `makespan − saved`
///   within `[0, makespan]` (`free_barrier_release` saving exactly the
///   path's `barrier_release`);
/// * every `traffic` row's `scanc_lookback` has a window of at least 1
///   and, when the launch was audited, `chain_hops` and a
///   `zero_lookback_speedup` of at least 1 (at least one row is audited);
/// * the flat `host` section has `jobs >= 1`, `points >= 1`, a positive
///   `host_seconds` wall-clock, a `serial_seconds_est`, and one positive
///   `kernel_host_seconds` entry per kernel.
///
/// These are exactly the invariants that historically broke silently:
/// runaway contention watermarks and over-peak traffic attribution.
pub fn validate_bench_json(doc: &str, spec: &ChipSpec) -> Result<(), String> {
    let doc = json::parse(doc)?;
    if doc.get("schema").and_then(Json::as_str) != Some("bench-scan/v5") {
        return Err("document does not declare schema bench-scan/v5".into());
    }
    let kernels = doc.array_field("kernels")?;
    for k in kernels {
        let name = k.get("name").and_then(Json::as_str).unwrap_or("<unnamed>");
        check_kernel(k, spec).map_err(|e| format!("kernel {name}: {e}"))?;
    }
    for name in ["ScanC(fp16)", "ScanC(int8)"] {
        if !kernels.iter().any(|k| k.str_field("name") == Ok(name)) {
            return Err(format!("document has no {name} kernel"));
        }
    }
    if !kernels.iter().any(|k| k.get("critical_path").is_some()) {
        return Err("no kernel carries a critical_path section".into());
    }
    let rows = doc.array_field("traffic")?;
    let mut any_audited = false;
    for row in rows {
        let n = row.f64_field("n").unwrap_or(0.0);
        let lb = row
            .get("scanc_lookback")
            .ok_or_else(|| format!("traffic row n={n} has no scanc_lookback section (v5)"))?;
        any_audited |= check_lookback(lb).map_err(|e| format!("traffic row n={n}: {e}"))?;
    }
    if !any_audited {
        return Err("no traffic row carries a zero_lookback_speedup".into());
    }
    let host = doc
        .get("host")
        .ok_or("document has no host section (jobs / host_seconds)")?;
    let jobs = host.f64_field("jobs")?;
    if jobs < 1.0 {
        return Err(format!("host jobs {jobs} must be at least 1"));
    }
    let points = host.f64_field("points")?;
    if points < 1.0 {
        return Err(format!("host points {points} must be at least 1"));
    }
    let host_seconds = host.f64_field("host_seconds")?;
    if host_seconds <= 0.0 {
        return Err(format!("host_seconds {host_seconds} must be positive"));
    }
    host.f64_field("serial_seconds_est")?;
    let per_kernel = host.array_field("kernel_host_seconds")?;
    if per_kernel.len() != kernels.len() {
        return Err(format!(
            "kernel_host_seconds has {} entries for {} kernels",
            per_kernel.len(),
            kernels.len()
        ));
    }
    for v in per_kernel {
        match v.as_f64() {
            Some(t) if t > 0.0 => {}
            _ => return Err(format!("kernel_host_seconds entry {v} must be positive")),
        }
    }
    Ok(())
}

/// Tolerance for the float comparisons of [`validate_bench_json`].
const EPS: f64 = 1e-6;

/// The per-kernel keys and bounds of [`validate_bench_json`].
fn check_kernel(k: &Json, spec: &ChipSpec) -> Result<(), String> {
    for key in [
        "time_us",
        "gbps",
        "l2_traffic_gbps",
        "working_set",
        "gelems",
    ] {
        k.f64_field(key)?;
    }
    for key in ["barrier_wait_cycles", "flag_wait_cycles"] {
        k.array_field(key)?;
    }
    let frac = k.f64_field("fraction_of_peak")?;
    if !(-EPS..=1.0 + EPS).contains(&frac) {
        return Err(format!("fraction_of_peak {frac} outside [0, 1]"));
    }
    let hbm_gbps = spec.hbm_bytes_per_sec / 1e9;
    let traffic = k.f64_field("traffic_gbps")?;
    if traffic > hbm_gbps + EPS {
        return Err(format!(
            "traffic_gbps {traffic} exceeds the HBM peak {hbm_gbps}"
        ));
    }
    let cycles = k.f64_field("cycles")?;
    let blocks = u32::try_from(k.u64_field("blocks")?).map_err(|e| format!("blocks: {e}"))?;
    let lifetime = (cycles - spec.launch_cycles as f64).max(0.0);
    let engines = k.field("engines")?;
    for e in EngineKind::ALL {
        let eobj = engines.field(e.name())?;
        eobj.f64_field("busy_cycles")?;
        eobj.f64_field("stall_contention")?;
        let util = eobj.f64_field("utilization")?;
        if !(-EPS..=1.0 + EPS).contains(&util) {
            return Err(format!("{} utilization {util} outside [0, 1]", e.name()));
        }
        let idle = eobj.f64_field("stall_dependency")?
            + eobj.f64_field("stall_barrier")?
            + eobj.f64_field("stall_flag")?;
        let cores = spec.cores_with_engine(blocks, e) as f64;
        if idle > cores * lifetime + EPS {
            return Err(format!(
                "{} idle stalls {idle} exceed cores×(cycles−launch) = {}",
                e.name(),
                cores * lifetime
            ));
        }
    }
    match k.get("critical_path") {
        Some(cp) => check_critical_path(cp, cycles),
        None => Ok(()),
    }
}

/// The `critical_path` bounds of [`validate_bench_json`], also applied
/// by the `critpath` CLI to every summary of a trace: the makespan
/// equals the launch's `cycles`, the class attribution sums to it, every
/// share lies in `[0, 1]`, and the what-ifs include `free_flags`,
/// `zero_lookback` and `free_barrier_release`, each predicting
/// `makespan − saved` within `[0, makespan]`, and `free_barrier_release`
/// saving exactly the path's `barrier_release`.
pub fn check_critical_path(cp: &Json, cycles: f64) -> Result<(), String> {
    let makespan = cp.f64_field("makespan")?;
    if (makespan - cycles).abs() > EPS {
        return Err(format!(
            "critical_path makespan {makespan} != cycles {cycles}"
        ));
    }
    let mut sum = 0.0;
    for class in [
        "launch",
        "busy",
        "flag_wire",
        "chain_wire",
        "barrier_release",
        "hbm",
    ] {
        sum += cp.f64_field(class)?;
    }
    if (sum - makespan).abs() > EPS {
        return Err(format!(
            "critical_path attribution sums to {sum}, not the makespan {makespan}"
        ));
    }
    for share in [
        "launch_share",
        "busy_share",
        "flag_wire_share",
        "chain_wire_share",
        "barrier_release_share",
        "hbm_share",
        "lookback_chain_share",
    ] {
        let v = cp.f64_field(share)?;
        if !(-EPS..=1.0 + EPS).contains(&v) {
            return Err(format!("critical_path {share} {v} outside [0, 1]"));
        }
    }
    let what_ifs = cp.array_field("what_ifs")?;
    for w in what_ifs {
        let name = w.str_field("name")?;
        let saved = w.f64_field("saved_cycles")?;
        let predicted = w.f64_field("predicted_cycles")?;
        if !(-EPS..=makespan + EPS).contains(&predicted)
            || (predicted + saved - makespan).abs() > EPS
        {
            return Err(format!(
                "what-if {name}: predicted_cycles {predicted} is not the makespan \
                 {makespan} less the {saved} saved, within [0, makespan]"
            ));
        }
        if name == "free_barrier_release" && (saved - cp.f64_field("barrier_release")?).abs() > EPS
        {
            return Err(format!(
                "what-if free_barrier_release saves {saved}, not the path's barrier_release"
            ));
        }
    }
    for name in ["free_flags", "zero_lookback", "free_barrier_release"] {
        if !what_ifs.iter().any(|w| w.str_field("name") == Ok(name)) {
            return Err(format!("critical_path has no {name} what-if"));
        }
    }
    Ok(())
}

/// The `scanc_lookback` bounds of [`validate_bench_json`]; returns whether
/// the row's launch was audited (it carries the look-back what-if).
fn check_lookback(lb: &Json) -> Result<bool, String> {
    let window = lb.f64_field("window")?;
    if window < 1.0 {
        return Err(format!("scanc_lookback window {window} must be >= 1"));
    }
    if lb.get("zero_lookback_speedup").is_none() {
        return Ok(false);
    }
    lb.f64_field("chain_hops")?;
    let zl = lb.f64_field("zero_lookback_speedup")?;
    if zl < 1.0 - EPS {
        return Err(format!("zero_lookback_speedup {zl} below 1"));
    }
    Ok(true)
}

/// The PyTorch-baseline top-p pipeline the paper's Fig. 13 measures:
/// `torch.sort` + `torch.cumsum` + threshold + `torch.multinomial`,
/// composed from the modeled baseline operators.
pub fn baseline_top_p(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    probs: &GlobalTensor<F16>,
    p: f64,
    theta: f64,
) -> SimResult<(u32, KernelReport)> {
    let n = probs.len();
    let (sorted_vals, sorted_idx, sort_report) =
        ops::baselines::sort::<F16>(spec, gm, probs, true)?;
    let (cdf, cumsum_report) = ops::baselines::cumsum::<F16>(spec, gm, &sorted_vals)?;

    // Nucleus mask + renormalized draw, host-side as the torch code does
    // between the profiled operator calls (the heavy operators dominate).
    let cdf_host = cdf.to_vec();
    let vals_host = sorted_vals.to_vec();
    let total = cdf_host.last().map(|v| v.to_f64()).unwrap_or(0.0);
    let mut kept = 0usize;
    for i in 0..n {
        let exclusive = cdf_host[i].to_f64() - vals_host[i].to_f64();
        if exclusive <= p * total {
            kept = i + 1;
        } else {
            break;
        }
    }
    let kept = kept.max(1);
    let kept_slice = sorted_vals.slice(0, kept)?;
    let (pos, multinomial_report) = ops::baselines::multinomial(spec, gm, &kept_slice, theta)?;
    let token = sorted_idx.read_range(pos, 1)?[0];

    let mut report = KernelReport::sequential(
        "torch top-p",
        &[sort_report, cumsum_report, multinomial_report],
    );
    report.elements = n as u64;
    report.useful_bytes = (n * 2) as u64;
    Ok((token, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_geometric() {
        assert_eq!(sweep(1024, 4, 3), vec![1024, 4096, 16384]);
    }

    #[test]
    fn human_labels() {
        assert_eq!(human(65536), "64K");
        assert_eq!(human(16 << 20), "16M");
        assert_eq!(human(1000), "1000");
    }

    #[test]
    fn synth_data_is_deterministic() {
        assert_eq!(synth_probs(100, 7), synth_probs(100, 7));
        assert_ne!(synth_probs(100, 7), synth_probs(100, 8));
        assert_eq!(synth_mask(1000, 1), synth_mask(1000, 1));
        let ones: usize = synth_mask(10_000, 3).iter().map(|&b| b as usize).sum();
        assert!((4000..6000).contains(&ones), "roughly balanced mask");
        assert!(synth_probs(50, 2).iter().all(|p| p.to_f32() >= 0.0));
    }

    #[test]
    fn baseline_top_p_samples_a_valid_token() {
        let spec = ChipSpec::tiny();
        let gm = fresh_gm(&spec);
        let probs = synth_probs(500, 42);
        let t = GlobalTensor::from_slice(&gm, &probs).unwrap();
        let (token, report) = baseline_top_p(&spec, &gm, &t, 0.9, 0.5).unwrap();
        assert!((token as usize) < 500);
        assert!(report.time_us() > 0.0);
    }

    #[test]
    fn a_real_kernel_report_parses() {
        let spec = ChipSpec::tiny();
        let gm = fresh_gm(&spec);
        let probs = synth_probs(300, 11);
        let t = GlobalTensor::from_slice(&gm, &probs).unwrap();
        let (_, report) = ops::baselines::cumsum::<F16>(&spec, &gm, &t).unwrap();
        json::parse(&report.to_json(&spec)).expect("KernelReport::to_json is valid JSON");
    }

    /// A minimal v5 document around `kernel_json`, padded with what
    /// `validate_bench_json` requires besides it: both ScanC kernels
    /// (renamed copies of the kernel) and one audited traffic row.
    fn bench_doc(kernel_json: &str) -> String {
        let kernel = json::parse(kernel_json).expect("fixture kernel parses");
        let renamed = |name: &str| match kernel.clone() {
            Json::Obj(mut fields) => {
                fields[0].1 = name.into();
                Json::Obj(fields)
            }
            other => other,
        };
        let kernels = vec![
            kernel.clone(),
            renamed("ScanC(fp16)"),
            renamed("ScanC(int8)"),
        ];
        let lookback = Json::obj([
            ("window", 1u32.into()),
            ("chain_hops", 0u32.into()),
            ("zero_lookback_speedup", Json::fixed(1.0, 3)),
        ]);
        let row = Json::obj([("n", 4096u32.into()), ("scanc_lookback", lookback)]);
        let host = Json::obj([
            ("jobs", 1u32.into()),
            ("points", 1u32.into()),
            ("host_seconds", 0.25.into()),
            ("serial_seconds_est", 0.25.into()),
            ("kernel_host_seconds", Json::Arr(vec![0.25.into(); 3])),
        ]);
        Json::obj([
            ("schema", "bench-scan/v5".into()),
            ("kernels", Json::Arr(kernels)),
            ("traffic", Json::Arr(vec![row])),
            ("host", host),
        ])
        .to_string()
    }

    #[test]
    fn validate_bench_json_accepts_a_real_launch_report() {
        let spec = ChipSpec::tiny();
        let gm = fresh_gm(&spec);
        let probs = synth_probs(300, 11);
        let t = GlobalTensor::from_slice(&gm, &probs).unwrap();
        let (_, report) = ops::baselines::cumsum::<F16>(&spec, &gm, &t).unwrap();
        let doc = bench_doc(&report.to_json(&spec));
        validate_bench_json(&doc, &spec).expect("real report passes the sanity bounds");
    }

    #[test]
    fn validate_bench_json_requires_the_schema_keys() {
        let spec = ChipSpec::tiny();
        let gm = fresh_gm(&spec);
        let t = GlobalTensor::from_slice(&gm, &synth_probs(300, 11)).unwrap();
        let (_, report) = ops::baselines::cumsum::<F16>(&spec, &gm, &t).unwrap();
        let good = bench_doc(&report.to_json(&spec));
        validate_bench_json(&good, &spec).expect("complete document passes");
        for (key, renamed) in [
            ("l2_traffic_gbps", "l2_gbps"),
            ("stall_contention", "contention"),
            ("critical_path", "crit"),
            ("zero_lookback_speedup", "zl"),
        ] {
            let bad = good.replace(&format!("\"{key}\":"), &format!("\"{renamed}\":"));
            assert_ne!(bad, good, "replacement must hit");
            let err = validate_bench_json(&bad, &spec).unwrap_err();
            assert!(err.contains(key), "{key}: {err}");
        }
        for name in ["ScanC(int8)", "free_flags"] {
            let bad = good.replace(&format!("\"{name}\""), "\"renamed\"");
            assert_ne!(bad, good, "replacement must hit");
            let err = validate_bench_json(&bad, &spec).unwrap_err();
            assert!(err.contains(name), "{name}: {err}");
        }
        // A truncated document fails to parse.
        assert!(validate_bench_json(&good[..good.len() - 1], &spec).is_err());
    }

    #[test]
    fn validate_bench_json_rejects_wrong_schema() {
        let spec = ChipSpec::tiny();
        let doc = "{\"schema\":\"bench-scan/v3\",\"kernels\":[]}";
        assert!(validate_bench_json(doc, &spec)
            .unwrap_err()
            .contains("bench-scan/v5"));
    }

    #[test]
    fn validate_bench_json_rejects_out_of_range_metrics() {
        let spec = ChipSpec::tiny();
        let gm = fresh_gm(&spec);
        let probs = synth_probs(300, 11);
        let t = GlobalTensor::from_slice(&gm, &probs).unwrap();
        let (_, report) = ops::baselines::cumsum::<F16>(&spec, &gm, &t).unwrap();
        let good = report.to_json(&spec);

        // fraction_of_peak above 1.
        let parsed = json::parse(&good).unwrap();
        let frac = parsed.f64_field("fraction_of_peak").unwrap();
        let bad = good.replace(
            &format!("\"fraction_of_peak\":{frac:.6}"),
            "\"fraction_of_peak\":1.5",
        );
        assert_ne!(bad, good, "replacement must hit");
        let err = validate_bench_json(&bench_doc(&bad), &spec).unwrap_err();
        assert!(err.contains("fraction_of_peak"), "{err}");

        // DRAM traffic above the chip peak.
        let traffic = parsed.f64_field("traffic_gbps").unwrap();
        let over = spec.hbm_bytes_per_sec / 1e9 + 10.0;
        let bad = good.replace(
            &format!("\"traffic_gbps\":{traffic:.6}"),
            &format!("\"traffic_gbps\":{over:.6}"),
        );
        assert_ne!(bad, good, "replacement must hit");
        let err = validate_bench_json(&bench_doc(&bad), &spec).unwrap_err();
        assert!(err.contains("HBM peak"), "{err}");

        // Idle stalls beyond any core's lifetime.
        let bad = good.replace("\"stall_flag\":0", "\"stall_flag\":99999999999");
        assert_ne!(bad, good, "replacement must hit");
        let err = validate_bench_json(&bench_doc(&bad), &spec).unwrap_err();
        assert!(err.contains("idle stalls"), "{err}");
    }

    #[test]
    fn validate_bench_json_gates_the_critical_path_section() {
        let spec = ChipSpec::tiny();
        let gm = fresh_gm(&spec);
        let data = vec![F16::ONE; 4096];
        let t = GlobalTensor::from_slice(&gm, &data).unwrap();
        let report = scan::cumsum_vec_only::<F16>(&spec, &gm, &t, 32)
            .unwrap()
            .report;
        let cp = report
            .critical_path
            .as_ref()
            .expect("audited launch carries a critical path");
        let good = report.to_json(&spec);
        validate_bench_json(&bench_doc(&good), &spec).expect("audited report passes the v4 gates");

        // Makespan no longer matching the kernel's cycles.
        let bad = good.replace(
            &format!("\"makespan\":{}", cp.makespan),
            &format!("\"makespan\":{}", cp.makespan + 1),
        );
        assert_ne!(bad, good, "replacement must hit");
        let err = validate_bench_json(&bench_doc(&bad), &spec).unwrap_err();
        assert!(err.contains("makespan"), "{err}");

        // Attribution that no longer sums to the makespan.
        let bad = good.replace(
            &format!("\"busy\":{}", cp.busy),
            &format!("\"busy\":{}", cp.busy + 7),
        );
        assert_ne!(bad, good, "replacement must hit");
        let err = validate_bench_json(&bench_doc(&bad), &spec).unwrap_err();
        assert!(err.contains("sums to"), "{err}");

        // A what-if predicting more cycles than the makespan.
        let w = &cp.what_ifs[0];
        let bad = good.replace(
            &format!("\"predicted_cycles\":{}", w.predicted),
            &format!("\"predicted_cycles\":{}", cp.makespan * 10 + 1),
        );
        assert_ne!(bad, good, "replacement must hit");
        let err = validate_bench_json(&bench_doc(&bad), &spec).unwrap_err();
        assert!(err.contains("predicted_cycles"), "{err}");

        // A barrier what-if that saves more than the path's release.
        let w = &cp.what_ifs[3];
        assert_eq!(w.name, "free_barrier_release");
        let bad = good.replace(
            &format!(
                "\"saved_cycles\":{},\"predicted_cycles\":{}",
                w.saved, w.predicted
            ),
            &format!(
                "\"saved_cycles\":{},\"predicted_cycles\":{}",
                w.saved + 1,
                w.predicted - 1
            ),
        );
        assert_ne!(bad, good, "replacement must hit");
        let err = validate_bench_json(&bench_doc(&bad), &spec).unwrap_err();
        assert!(err.contains("barrier_release"), "{err}");

        // No what-ifs.
        let start = good.find("\"what_ifs\":[").unwrap();
        let end = good[start..].find(']').unwrap() + start;
        let bad = format!("{}\"what_ifs\":[{}", &good[..start], &good[end..]);
        let err = validate_bench_json(&bench_doc(&bad), &spec).unwrap_err();
        assert!(err.contains("no free_flags what-if"), "{err}");
    }

    #[test]
    fn run_points_commits_in_point_order_at_any_width() {
        let make = || -> Vec<Box<dyn FnOnce() -> usize + Send>> {
            (0..17)
                .map(|i| {
                    let f: Box<dyn FnOnce() -> usize + Send> = Box::new(move || {
                        // Skew the work so later points often finish first.
                        std::thread::sleep(std::time::Duration::from_micros(
                            ((17 - i) % 5) as u64 * 100,
                        ));
                        i * i
                    });
                    f
                })
                .collect()
        };
        let serial = run_points(make(), 1);
        assert_eq!(serial, (0..17).map(|i| i * i).collect::<Vec<_>>());
        for jobs in [2, 4, 32] {
            assert_eq!(run_points(make(), jobs), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn run_points_borrows_from_the_environment() {
        let base = [10usize, 20, 30];
        let points: Vec<Box<dyn FnOnce() -> usize + Send + '_>> = base
            .iter()
            .map(|v| {
                let f: Box<dyn FnOnce() -> usize + Send + '_> = Box::new(move || v + 1);
                f
            })
            .collect();
        assert_eq!(run_points(points, 2), vec![11, 21, 31]);
    }

    #[test]
    fn validate_bench_json_gates_the_host_section() {
        let spec = ChipSpec::tiny();
        let gm = fresh_gm(&spec);
        let probs = synth_probs(300, 11);
        let t = GlobalTensor::from_slice(&gm, &probs).unwrap();
        let (_, report) = ops::baselines::cumsum::<F16>(&spec, &gm, &t).unwrap();
        let good = bench_doc(&report.to_json(&spec));
        validate_bench_json(&good, &spec).expect("well-formed host section passes");

        // Missing host section entirely.
        let no_host = good.replace("\"host\":", "\"ghost\":");
        let err = validate_bench_json(&no_host, &spec).unwrap_err();
        assert!(err.contains("host section"), "{err}");

        // Zero jobs.
        let bad = good.replace("\"jobs\":1", "\"jobs\":0");
        let err = validate_bench_json(&bad, &spec).unwrap_err();
        assert!(err.contains("jobs"), "{err}");

        // Non-positive wall clock.
        let bad = good.replace("\"host_seconds\":0.25", "\"host_seconds\":0");
        let err = validate_bench_json(&bad, &spec).unwrap_err();
        assert!(err.contains("host_seconds"), "{err}");

        // Per-kernel timing arity must match the kernel list.
        let bad = good.replace(
            "\"kernel_host_seconds\":[0.25,0.25,0.25]",
            "\"kernel_host_seconds\":[0.25,0.25]",
        );
        assert_ne!(bad, good, "replacement must hit");
        let err = validate_bench_json(&bad, &spec).unwrap_err();
        assert!(err.contains("kernel_host_seconds"), "{err}");
    }

    #[test]
    fn table_renders() {
        let mut t = Table::new(&["N", "GB/s"]);
        t.row(vec!["64K".into(), "123.4".into()]);
        t.print();
    }
}
