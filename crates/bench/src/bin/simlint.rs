//! `simlint` — offline happens-before analysis of kernel schedules.
//!
//! ```text
//! simlint [--json] <trace.json>...
//! ```
//!
//! Each argument is a trace produced by the `trace` binary (or any
//! `ascend-trace/v1` document with an `"hbEvents"` key, or a bare
//! hb-event JSON array). For every file, the instruction record is
//! rebuilt into a happens-before graph and checked for:
//!
//! * **gm-race** — conflicting accesses to overlapping GM byte ranges
//!   with no happens-before path between them;
//! * **unmatched-wait / flag-reuse / hb-cycle** — sync-coverage gaps
//!   and deadlock shapes in the flag and barrier structure;
//! * **flag-leak / queue-leak / queue-unbalanced / alloc-leak /
//!   dead-transfer** — schedule lints (warnings).
//!
//! `--json` replaces the human-readable report with one machine-readable
//! `simlint/v1` document on stdout (per-file diagnostics plus totals);
//! the exit status is unchanged, so scripts can both gate on it and
//! archive the findings.
//!
//! Exit status is nonzero if *any* diagnostic (error or warning) fires
//! in any file — CI runs this over every shipped kernel's trace, so a
//! clean tree means every schedule is provably ordered and leak-free.
//!
//! Lint one kernel per trace file: concatenating unrelated launches
//! into one document would make their blocks look concurrent and can
//! produce spurious cross-kernel races.

use ascend_sim::hb;
use ascend_sim::json::Json;
use ascend_sim::trace::parse_hb_json;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let files: Vec<&String> = args.iter().filter(|a| *a != "--json").collect();
    if files.is_empty() {
        eprintln!("usage: simlint [--json] <trace.json>...");
        eprintln!("  traces come from the `trace` binary (ascend-trace/v1 documents)");
        std::process::exit(2);
    }

    let mut total = 0usize;
    let mut file_objs: Vec<Json> = Vec::new();
    for file in &files {
        let doc = match std::fs::read_to_string(file) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("simlint: {file}: {e}");
                std::process::exit(2);
            }
        };
        let events = match parse_hb_json(&doc) {
            Ok(ev) => ev,
            Err(e) => {
                eprintln!("simlint: {file}: malformed trace: {e}");
                std::process::exit(2);
            }
        };
        let diags = hb::analyze(&events);
        if json {
            let rendered = diags.iter().map(|d| d.to_string().into()).collect();
            file_objs.push(Json::obj([
                ("file", file.as_str().into()),
                ("hb_events", events.len().into()),
                ("diagnostics", Json::Arr(rendered)),
            ]));
        } else if diags.is_empty() {
            println!("{file}: clean ({} hb events)", events.len());
        } else {
            println!("{file}: {} diagnostic(s)", diags.len());
            for d in &diags {
                println!("  {d}");
            }
        }
        total += diags.len();
    }

    if json {
        let doc = Json::obj([
            ("schema", "simlint/v1".into()),
            ("files", Json::Arr(file_objs)),
            ("total_diagnostics", total.into()),
        ]);
        println!("{doc}");
    }
    if total > 0 {
        eprintln!(
            "simlint: {total} diagnostic(s) across {} file(s)",
            files.len()
        );
        std::process::exit(1);
    }
}
