//! `mcheck` — exhaustive schedule-space model checking of the shipped
//! scan kernels.
//!
//! ```text
//! mcheck [--json] [--strict-coverage] [--max-states N] [--max-execs N]
//!        [--max-replays N] [kernel...|all]
//! ```
//!
//! For every selected kernel (default: all ten, including both the
//! chained and decoupled multi-hop ScanC look-backs, the one-launch
//! split, the one-launch radix sort at all three digit widths and
//! top-p's draw), `mcheck`
//!
//! 1. runs the kernel on the tiny chip under the parallel scheduler with
//!    profiling attached, capturing its happens-before event stream and
//!    canonical `KernelReport` JSON;
//! 2. feeds each profiled launch to [`ascend_sim::mc::check`], which
//!    explores **every inequivalent interleaving** of the launch's sync
//!    skeleton (DPOR with persistent + sleep sets) and asserts no
//!    deadlock and hb-cleanliness per execution, while gathering
//!    AccelSync-style wait-site coverage;
//! 3. replays every distinct grid-flag commit order the checker found
//!    through `SchedPolicy::Planned` on a fresh device and byte-compares
//!    the resulting report against the canonical one — upgrading the
//!    `sched_equiv` sampled equivalence to an exhaustive proof at this
//!    scale (the serial scheduler is compared too);
//! 4. with `--strict-coverage`, additionally fails unless every wait
//!    site was observed both blocked and ready (100% dual coverage).
//!
//! Exit status: 0 clean, 1 findings (deadlock, diagnostic, budget
//! exceeded, report mismatch, or a strict-coverage gap), 2 usage error.
//! `--json` emits one machine-readable `mcheck/v1` document on stdout.

use ascend_sim::json::Json;
use ascend_sim::mem::GlobalMemory;
use ascend_sim::sync::GridPlan;
use ascend_sim::{mc, prof, SchedPolicy};
use ascendc::{ChipSpec, GlobalTensor};
use dtypes::F16;
use ops::{radix_sort, split_ind, top_p_sample, SortOrder, SORT_DIGIT_BITS};
use scan::{
    batched_scanu, cumsum_vec_only, mcscan, scanc, scanu, scanul1, McScanConfig, ScanCConfig,
    ScanKind,
};
use std::sync::Arc;

const KERNELS: &[&str] = &[
    "scanu", "scanul1", "mcscan", "scanc", "scanc-mh", "cumsum", "batched", "split", "sort", "topp",
];

fn usage() -> ! {
    eprintln!(
        "usage: mcheck [--json] [--strict-coverage] [--max-states N] [--max-execs N] \
         [--max-replays N] [kernel...|all]"
    );
    eprintln!("  kernels: {} | all (default: all)", KERNELS.join(" | "));
    std::process::exit(2);
}

fn parse_num(flag: &str, v: Option<&String>) -> usize {
    match v.and_then(|s| s.parse::<usize>().ok()) {
        Some(n) if n > 0 => n,
        _ => {
            eprintln!("mcheck: {flag} needs a positive integer");
            std::process::exit(2);
        }
    }
}

struct Options {
    json: bool,
    strict_coverage: bool,
    /// The model checker's slots and budgets (`--max-states`,
    /// `--max-execs`).
    mc: mc::McConfig,
    max_replays: usize,
}

/// Per-kernel outcome: the per-launch model-check reports plus the
/// replay and serial-equivalence verdicts.
struct CaseOut {
    name: &'static str,
    launches: Vec<(String, mc::McReport)>,
    replays: usize,
    replay_mismatches: usize,
    replays_skipped: usize,
    serial_equal: bool,
    coverage_gaps: usize,
}

impl CaseOut {
    fn findings(&self) -> usize {
        let mut n = self.replay_mismatches + usize::from(!self.serial_equal) + self.coverage_gaps;
        for (_, r) in &self.launches {
            n += r.deadlocks + r.diagnostics.len() + usize::from(r.budget_exhausted);
        }
        n
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options {
        json: false,
        strict_coverage: false,
        mc: mc::McConfig::new(ChipSpec::tiny().ai_cores as usize),
        max_replays: 64,
    };
    let mut positional: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => opts.json = true,
            "--strict-coverage" => opts.strict_coverage = true,
            "--max-states" => opts.mc.max_states = parse_num("--max-states", it.next()),
            "--max-execs" => opts.mc.max_execs = parse_num("--max-execs", it.next()),
            "--max-replays" => opts.max_replays = parse_num("--max-replays", it.next()),
            other if other.starts_with("--") => {
                eprintln!("mcheck: unknown flag '{other}'");
                usage();
            }
            other => positional.push(other.to_string()),
        }
    }
    let chosen: Vec<&'static str> =
        if positional.is_empty() || positional.iter().any(|k| k == "all") {
            KERNELS.to_vec()
        } else {
            positional
                .iter()
                .map(|k| match KERNELS.iter().find(|&&known| known == k) {
                    Some(&known) => known,
                    None => {
                        eprintln!("mcheck: unknown kernel '{k}'");
                        usage();
                    }
                })
                .collect()
        };

    let cases: Vec<CaseOut> = chosen.iter().map(|&k| run_case(k, &opts)).collect();
    let total: usize = cases.iter().map(|c| c.findings()).sum();

    if opts.json {
        print_json(&cases, total);
    } else {
        for c in &cases {
            print_human(c, opts.strict_coverage);
        }
    }
    if total > 0 {
        eprintln!(
            "mcheck: {total} finding(s) across {} kernel(s)",
            cases.len()
        );
        std::process::exit(1);
    }
}

/// Runs one kernel on a fresh tiny-chip device under `policy` and
/// returns its serialized `KernelReport`.
fn run_kernel(policy: SchedPolicy, kernel: &str) -> (String, prof::Profile) {
    let spec = ChipSpec::tiny().with_scheduler(policy);
    let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
    let signal = |n: usize| -> Vec<i8> { (0..n).map(|i| ((i * 7) % 11) as i8 - 5).collect() };
    prof::with_profiling(&gm, || match kernel {
        "scanu" => {
            let x = GlobalTensor::from_slice(&gm, &signal(600)).expect("device fits input");
            let run = scanu::<i8, i32>(&spec, &gm, &x, 16).expect("scanu launches");
            run.report.to_json(&spec)
        }
        "scanul1" => {
            let x = GlobalTensor::from_slice(&gm, &signal(600)).expect("device fits input");
            let run = scanul1::<i8, i32>(&spec, &gm, &x, 16).expect("scanul1 launches");
            run.report.to_json(&spec)
        }
        "mcscan" => {
            let x = GlobalTensor::from_slice(&gm, &signal(400)).expect("device fits input");
            let cfg = McScanConfig {
                s: 16,
                blocks: 2,
                kind: ScanKind::Inclusive,
            };
            let run = mcscan::<i8, i32, i32>(&spec, &gm, &x, cfg).expect("mcscan launches");
            run.report.to_json(&spec)
        }
        "scanc" => {
            // tpl=1 → 6 lanes → 3 blocks on 2 AI cores: the look-back
            // chain spans scheduling waves, so the model checker covers
            // the wave hand-off gating too. Window 1 is the strictly
            // chained protocol with its single feasible commit order.
            let x = GlobalTensor::from_slice(&gm, &signal(1500)).expect("device fits input");
            let cfg = ScanCConfig {
                s: 16,
                tiles_per_lane: 1,
                lookback_window: 1,
                kind: ScanKind::Inclusive,
            };
            let run = scanc::<i8, i16, i32>(&spec, &gm, &x, cfg).expect("scanc launches");
            run.report.to_json(&spec)
        }
        "scanc-mh" => {
            // The decoupled multi-hop look-back (w=2, the tiny chip's
            // maximum): 1200 elements → 5 lanes → 3 blocks on 2 AI
            // cores, still wave-spanning, and the 7 partial/inclusive
            // edges stay within the 8-id grid flag file so the
            // certification is reuse-free. Decoupling opens the
            // commit-order space (probes commute with q-publishes);
            // every feasible order must replay byte-identically.
            let x = GlobalTensor::from_slice(&gm, &signal(1200)).expect("device fits input");
            let cfg = ScanCConfig {
                s: 16,
                tiles_per_lane: 1,
                lookback_window: 2,
                kind: ScanKind::Inclusive,
            };
            let run = scanc::<i8, i16, i32>(&spec, &gm, &x, cfg).expect("scanc launches");
            run.report.to_json(&spec)
        }
        "cumsum" => {
            let data = vec![F16::ONE; 512];
            let x = GlobalTensor::from_slice(&gm, &data).expect("device fits input");
            let run = cumsum_vec_only::<F16>(&spec, &gm, &x, 16).expect("cumsum launches");
            run.report.to_json(&spec)
        }
        "batched" => {
            let (batch, len) = (4, 150);
            let x = GlobalTensor::from_slice(&gm, &signal(batch * len)).expect("device fits input");
            let run =
                batched_scanu::<i8, i32>(&spec, &gm, &x, batch, len, 16).expect("batched launches");
            run.report.to_json(&spec)
        }
        "split" => {
            // The split every split, compress and radix-sort pass runs:
            // phase I counts the mask per chunk, phase II scatters each
            // chunk from its offset. 1500 elements are 375 to each of the
            // 4 vector cores, each chunk one store piece.
            let x = GlobalTensor::from_slice(&gm, &signal(1500)).expect("device fits input");
            let mask: Vec<u8> = (0..1500).map(|i| u8::from(i % 3 != 1)).collect();
            let m = GlobalTensor::from_slice(&gm, &mask).expect("device fits mask");
            let run = split_ind::<i8>(&spec, &gm, &x, &m).expect("split launches");
            run.report.to_json(&spec)
        }
        "sort" => {
            // The one-launch radix sort at every digit width: 8 one-bit,
            // 4 two-bit or 2 four-bit splits of two barriers each but
            // the last. 300 u8 keys are 75 to each of the 4 vector
            // cores.
            let keys: Vec<u8> = (0..300).map(|i| (i * 151 % 256) as u8).collect();
            let x = GlobalTensor::from_slice(&gm, &keys).expect("device fits input");
            [1, 2, 4]
                .map(|bits| {
                    let run = radix_sort::<u8>(&spec, &gm, &x, bits, SortOrder::Ascending)
                        .expect("sort launches");
                    run.report.to_json(&spec)
                })
                .concat()
        }
        "topp" => {
            // Top-p as `Device::top_p` runs it: the four-bit sort's
            // launch, then one launch of the CDF scan, the threshold count
            // and the search. 300 probabilities are 75 to each of the 4
            // vector cores.
            let probs: Vec<F16> = (0..300)
                .map(|i| F16::from_f32(if i % 37 == 0 { 0.05 } else { 1e-3 }))
                .collect();
            let x = GlobalTensor::from_slice(&gm, &probs).expect("device fits input");
            let run = top_p_sample(&spec, &gm, &x, 0.9, 0.4, 16, SORT_DIGIT_BITS)
                .expect("top-p launches");
            run.report.to_json(&spec)
        }
        other => {
            eprintln!("mcheck: unknown kernel '{other}'");
            std::process::exit(2);
        }
    })
}

fn run_case(kernel: &'static str, opts: &Options) -> CaseOut {
    let (canon, profile) = run_kernel(SchedPolicy::Parallel, kernel);
    let (serial, _) = run_kernel(SchedPolicy::Serial, kernel);
    let serial_equal = serial == canon;

    let launches: Vec<(String, mc::McReport)> = profile
        .kernels
        .iter()
        .map(|k| match mc::check(&k.hb_events, &opts.mc) {
            Ok(r) => (k.name.clone(), r),
            Err(e) => {
                eprintln!("mcheck: {kernel}: {}: {e}", k.name);
                std::process::exit(1);
            }
        })
        .collect();

    // Replay every distinct grid commit order through the planned
    // scheduler. The plan is launch-scoped, so replay is only meaningful
    // when exactly one profiled launch performs grid operations.
    let grid_launches: Vec<&mc::McReport> = launches
        .iter()
        .map(|(_, r)| r)
        .filter(|r| r.unique_grid_orders.iter().any(|o| !o.is_empty()))
        .collect();
    let mut replays = 0usize;
    let mut replay_mismatches = 0usize;
    let mut replays_skipped = 0usize;
    match grid_launches.len() {
        0 => {
            // No grid ops anywhere: one planned replay with an empty
            // plan still exercises the planned scheduler end to end.
            let (replay, _) = run_kernel(
                SchedPolicy::Planned(Arc::new(GridPlan { order: Vec::new() })),
                kernel,
            );
            replays += 1;
            replay_mismatches += usize::from(replay != canon);
        }
        1 => {
            let orders = &grid_launches[0].unique_grid_orders;
            for order in orders.iter().take(opts.max_replays) {
                let plan = GridPlan {
                    order: order.clone(),
                };
                let (replay, _) = run_kernel(SchedPolicy::Planned(Arc::new(plan)), kernel);
                replays += 1;
                replay_mismatches += usize::from(replay != canon);
            }
            replays_skipped = orders.len().saturating_sub(opts.max_replays);
        }
        n => {
            eprintln!(
                "mcheck: {kernel}: {n} launches perform grid operations; planned replay skipped"
            );
            replays_skipped = grid_launches
                .iter()
                .map(|r| r.unique_grid_orders.len())
                .sum();
        }
    }

    let coverage_gaps = if opts.strict_coverage {
        launches
            .iter()
            .map(|(_, r)| r.coverage.wait_sites - r.coverage.wait_sites_dual)
            .sum()
    } else {
        0
    };

    CaseOut {
        name: kernel,
        launches,
        replays,
        replay_mismatches,
        replays_skipped,
        serial_equal,
        coverage_gaps,
    }
}

fn print_human(c: &CaseOut, strict: bool) {
    println!(
        "{}: {} launch(es), {} finding(s)",
        c.name,
        c.launches.len(),
        c.findings()
    );
    for (name, r) in &c.launches {
        println!(
            "  {name}: {} thread(s) / {} block(s) / {} sync op(s): {} states, {} transitions, \
             {} execution(s), {} grid order(s), pruned {} sleep + {} persistent{}",
            r.threads,
            r.blocks,
            r.sync_ops,
            r.states,
            r.transitions,
            r.executions,
            r.unique_grid_orders.len(),
            r.sleep_pruned,
            r.persistent_pruned,
            if r.budget_exhausted {
                " [BUDGET EXHAUSTED]"
            } else {
                ""
            },
        );
        println!(
            "    coverage: {}/{} wait sites dual (ready {}, blocked {}), {} flag id(s), \
             {} barrier round(s)",
            r.coverage.wait_sites_dual,
            r.coverage.wait_sites,
            r.coverage.wait_sites_ready,
            r.coverage.wait_sites_blocked,
            r.coverage.flag_ids,
            r.coverage.barrier_rounds,
        );
        if strict {
            for u in &r.coverage.uncovered {
                println!("    uncovered: {u}");
            }
        }
        for w in &r.deadlock_witnesses {
            println!("    deadlock: {w}");
        }
        if r.deadlocks > r.deadlock_witnesses.len() {
            println!(
                "    ... and {} more deadlocked state(s)",
                r.deadlocks - r.deadlock_witnesses.len()
            );
        }
        for d in &r.diagnostics {
            println!("    {d}");
        }
    }
    println!(
        "  replay: {} planned order(s) re-run, {} mismatch(es){}{}",
        c.replays,
        c.replay_mismatches,
        if c.replays_skipped > 0 {
            format!(", {} skipped", c.replays_skipped)
        } else {
            String::new()
        },
        if c.serial_equal {
            ", serial == parallel".to_string()
        } else {
            ", SERIAL != PARALLEL".to_string()
        },
    );
}

fn print_json(cases: &[CaseOut], total: usize) {
    let kernels = cases.iter().map(|c| {
        let launches = c.launches.iter().map(|(name, r)| {
            let coverage = Json::obj([
                ("wait_sites", r.coverage.wait_sites.into()),
                ("ready", r.coverage.wait_sites_ready.into()),
                ("blocked", r.coverage.wait_sites_blocked.into()),
                ("dual", r.coverage.wait_sites_dual.into()),
                ("flag_ids", r.coverage.flag_ids.into()),
                ("barrier_rounds", r.coverage.barrier_rounds.into()),
                (
                    "uncovered",
                    Json::Arr(
                        r.coverage
                            .uncovered
                            .iter()
                            .map(|u| u.as_str().into())
                            .collect(),
                    ),
                ),
            ]);
            Json::obj([
                ("launch", name.as_str().into()),
                ("threads", r.threads.into()),
                ("blocks", r.blocks.into()),
                ("sync_ops", r.sync_ops.into()),
                ("states", r.states.into()),
                ("transitions", r.transitions.into()),
                ("executions", r.executions.into()),
                ("unique_grid_orders", r.unique_grid_orders.len().into()),
                ("sleep_pruned", r.sleep_pruned.into()),
                ("persistent_pruned", r.persistent_pruned.into()),
                ("budget_exhausted", r.budget_exhausted.into()),
                ("deadlocks", r.deadlocks.into()),
                (
                    "diagnostics",
                    Json::Arr(r.diagnostics.iter().map(|d| d.to_string().into()).collect()),
                ),
                ("coverage", coverage),
            ])
        });
        Json::obj([
            ("kernel", c.name.into()),
            ("launches", Json::Arr(launches.collect())),
            ("replays", c.replays.into()),
            ("replay_mismatches", c.replay_mismatches.into()),
            ("replays_skipped", c.replays_skipped.into()),
            ("serial_equal", c.serial_equal.into()),
            ("findings", c.findings().into()),
        ])
    });
    let doc = Json::obj([
        ("schema", "mcheck/v1".into()),
        ("kernels", Json::Arr(kernels.collect())),
        ("total_findings", total.into()),
    ]);
    println!("{doc}");
}
