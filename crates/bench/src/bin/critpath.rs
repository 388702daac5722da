//! `critpath` — critical-path inspection over exported kernel traces.
//!
//! ```text
//! critpath [--top K] <trace.json>...
//! ```
//!
//! Each argument is a trace produced by the `trace` binary (an
//! `ascend-trace/v1` document). Every audited launch embeds a
//! `criticalPaths` section: the longest weighted path through the
//! happens-before event graph, cut into contiguous segments that tile
//! `[0, cycles]` (the makespan identity). For every kernel this tool
//! prints the class attribution (busy / HBM / flag wires / look-back
//! chain / barrier release / launch), the phase breakdown, the top-K
//! longest segments, and the COZ-style what-if table (predicted cycles
//! with one cost class removed).
//!
//! The invariants the simulator asserts at record time are re-checked
//! here against the serialized numbers by `bench::check_critical_path`,
//! the same checker `figures --json` applies to every audited row: the
//! attribution must sum to the makespan, every share must lie in
//! `[0, 1]`, there must be at least two what-ifs, among them
//! `free_flags` and `zero_lookback`, and each what-if prediction must
//! not exceed the makespan.
//!
//! Exit status: `0` all files clean, `1` an invariant fails, `2` usage,
//! I/O, malformed document, or a trace with no `criticalPaths` section.

use ascend_sim::json::{self, Json};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut top = 8usize;
    let mut files: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--top" {
            match it.next().and_then(|v| v.parse().ok()) {
                Some(k) => top = k,
                None => usage("--top needs an integer argument"),
            }
        } else if a.starts_with("--") {
            usage(&format!("unknown option {a}"));
        } else {
            files.push(a);
        }
    }
    if files.is_empty() {
        usage("no trace files given");
    }

    let mut violations = 0usize;
    for file in &files {
        let doc = match std::fs::read_to_string(file) {
            Ok(d) => d,
            Err(e) => fail2(&format!("{file}: {e}")),
        };
        let root = match json::parse(&doc) {
            Ok(r) => r,
            Err(e) => fail2(&format!("{file}: malformed trace: {e}")),
        };
        let paths = match root.array_field("criticalPaths") {
            Ok(p) => p,
            Err(e) => fail2(&format!(
                "{file}: {e} (traces come from the `trace` binary)"
            )),
        };
        if paths.is_empty() {
            fail2(&format!(
                "{file}: empty criticalPaths section — no audited launch in this trace"
            ));
        }
        for cp in paths {
            match check_one(file, cp, top) {
                Ok(()) => {}
                Err(e) => {
                    eprintln!("critpath: {e}");
                    violations += 1;
                }
            }
        }
    }
    if violations > 0 {
        eprintln!("critpath: {violations} invariant violation(s)");
        std::process::exit(1);
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("critpath: {msg}");
    eprintln!("usage: critpath [--top K] <trace.json>...");
    eprintln!("  traces come from the `trace` binary (ascend-trace/v1 documents)");
    std::process::exit(2);
}

fn fail2(msg: &str) -> ! {
    eprintln!("critpath: {msg}");
    std::process::exit(2);
}

/// Re-checks one kernel's summary with [`bench::check_critical_path`],
/// the bounds `figures --json` holds every audited row to, then prints
/// its critical-path report; returns `Err` on any violation.
fn check_one(file: &str, cp: &Json, top: usize) -> Result<(), String> {
    let kernel = cp.str_field("kernel").unwrap_or("<unnamed>");
    let ctx = |msg: String| format!("{file}: {kernel}: {msg}");
    let summary = cp
        .get("summary")
        .ok_or_else(|| ctx("critical path entry has no summary object".into()))?;
    let makespan = summary.f64_field("makespan").map_err(&ctx)?;
    bench::check_critical_path(summary, makespan).map_err(&ctx)?;

    let classes = [
        ("launch", "launch"),
        ("busy", "busy"),
        ("flag_wire", "flag wire"),
        ("chain_wire", "look-back chain wire"),
        ("barrier_release", "barrier release"),
        ("hbm", "HBM stretch"),
    ];
    println!("{file}: {kernel}: makespan {makespan:.0} cycles");
    for (key, label) in classes {
        let v = summary.f64_field(key).map_err(&ctx)?;
        let share = summary.f64_field(&format!("{key}_share")).map_err(&ctx)?;
        if v > 0.0 {
            println!("  {label:<22} {v:>12.0}  {:>5.1}%", share * 100.0);
        }
    }
    let chain = summary.f64_field("lookback_chain").map_err(&ctx)?;
    let chain_share = summary.f64_field("lookback_chain_share").map_err(&ctx)?;
    println!(
        "  {:<22} {chain:>12.0}  {:>5.1}%   (wire + tagged instructions)",
        "look-back chain total",
        chain_share * 100.0
    );

    if let Ok(phases) = summary.array_field("phases") {
        for p in phases {
            let name = p.str_field("name").unwrap_or("?");
            let cycles = p.f64_field("cycles").unwrap_or(0.0);
            let share = p.f64_field("share").unwrap_or(0.0);
            println!("  phase {name:<26} {cycles:>12.0}  {:>5.1}%", share * 100.0);
        }
    }

    let segs = cp.array_field("top_segments").map_err(&ctx)?;
    println!(
        "  top {} segments (of {}):",
        top.min(segs.len()),
        segs.len()
    );
    let mut ranked: Vec<(&str, f64, f64, f64)> = segs
        .iter()
        .map(|s| {
            (
                s.str_field("class").unwrap_or("?"),
                s.f64_field("start").unwrap_or(0.0),
                s.f64_field("cycles").unwrap_or(0.0),
                s.f64_field("block").unwrap_or(-1.0),
            )
        })
        .collect();
    ranked.sort_by(|a, b| b.2.total_cmp(&a.2));
    for (class, start, cycles, block) in ranked.into_iter().take(top) {
        let b = if block < 0.0 {
            "     -".to_string()
        } else {
            format!("blk {block:>2.0}")
        };
        println!("    {class:<14} {b}  @{start:>10.0}  {cycles:>10.0} cycles");
    }

    println!("  what-ifs:");
    for w in summary.array_field("what_ifs").map_err(&ctx)? {
        let name = w.str_field("name").unwrap_or("?");
        let saved = w.f64_field("saved_cycles").map_err(&ctx)?;
        let predicted = w.f64_field("predicted_cycles").map_err(&ctx)?;
        let speedup = w.f64_field("speedup").unwrap_or(0.0);
        println!("    {name:<16} saves {saved:>10.0} -> {predicted:>10.0} cycles ({speedup:.2}x)");
    }
    Ok(())
}
