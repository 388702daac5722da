//! Exit codes of the offline JSON-reading CLIs: a malformed input is a
//! clean exit 2 with a message, never a panic or a silent pass.

use ascend_sim::json::Json;
use std::path::PathBuf;
use std::process::{Command, Output};

/// Writes `contents` to a file private to this test and returns its path.
fn fixture(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("cli-exit-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("temp dir is writable");
    path
}

fn run(bin: &str, file: &PathBuf) -> Output {
    let out = Command::new(bin).arg(file).output().expect("binary runs");
    std::fs::remove_file(file).ok();
    out
}

fn assert_exit(out: &Output, code: i32, message: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "stderr: {stderr}");
    assert!(stderr.contains(message), "stderr: {stderr}");
}

/// Documents every reader must refuse: truncated, deeply nested,
/// trailing garbage, a lone surrogate escape.
fn malformed_inputs() -> Vec<(&'static str, String)> {
    vec![
        (
            "truncated",
            r#"{"criticalPaths":[{"kernel":"k","summary":{"makespan":1"#.to_string(),
        ),
        ("deep", "[".repeat(10_000)),
        (
            "trailing",
            r#"{"hbEvents":[],"criticalPaths":[]} x"#.to_string(),
        ),
        (
            "surrogate",
            r#"{"hbEvents":[],"criticalPaths":[],"s":"\ud800"}"#.to_string(),
        ),
    ]
}

#[test]
fn simlint_exits_2_on_malformed_traces() {
    for (name, doc) in malformed_inputs() {
        let file = fixture(&format!("simlint-{name}.json"), &doc);
        let out = run(env!("CARGO_BIN_EXE_simlint"), &file);
        assert_exit(&out, 2, "malformed trace");
    }
}

#[test]
fn critpath_exits_2_on_malformed_traces() {
    for (name, doc) in malformed_inputs() {
        let file = fixture(&format!("critpath-{name}.json"), &doc);
        let out = run(env!("CARGO_BIN_EXE_critpath"), &file);
        assert_exit(&out, 2, "malformed trace");
    }
    // Text that merely contains the right substrings is not a trace.
    let file = fixture(
        "critpath-substrings.txt",
        r#"note: "criticalPaths":[{"kernel":"k","summary":{"makespan":1}}]"#,
    );
    let out = run(env!("CARGO_BIN_EXE_critpath"), &file);
    assert_exit(&out, 2, "malformed trace");
}

/// A one-kernel trace of a `cycles`-cycle launch whose 100-cycle
/// makespan is attributed to 50 launch cycles and `busy` busy cycles,
/// with the two what-ifs the checker requires.
fn critpath_doc(cycles: u32, busy: u32) -> String {
    let share = |v: u32| f64::from(v) / 100.0;
    let what_if = |name: &str| {
        format!(r#"{{"name":"{name}","saved_cycles":10,"predicted_cycles":90,"speedup":1.11}}"#)
    };
    format!(
        r#"{{"schema":"ascend-trace/v1","hbEvents":[],"criticalPaths":[{{"kernel":"k","cycles":{cycles},"summary":{{"makespan":100,"launch":50,"busy":{busy},"flag_wire":0,"chain_wire":0,"barrier_release":0,"hbm":0,"launch_share":0.5,"busy_share":{},"flag_wire_share":0,"chain_wire_share":0,"barrier_release_share":0,"hbm_share":0,"lookback_chain":0,"lookback_chain_share":0,"what_ifs":[{},{},{}]}},"top_segments":[]}}]}}"#,
        share(busy),
        what_if("free_flags"),
        what_if("zero_lookback"),
        r#"{"name":"free_barrier_release","saved_cycles":0,"predicted_cycles":100,"speedup":1.0}"#,
    )
}

#[test]
fn critpath_exits_1_when_the_attribution_misses_the_makespan() {
    let file = fixture("critpath-balanced.json", &critpath_doc(100, 50));
    let out = run(env!("CARGO_BIN_EXE_critpath"), &file);
    assert_exit(&out, 0, "");
    let file = fixture("critpath-off-by-one.json", &critpath_doc(100, 49));
    let out = run(env!("CARGO_BIN_EXE_critpath"), &file);
    assert_exit(&out, 1, "attribution sums to 99, not the makespan 100");
}

#[test]
fn critpath_exits_1_when_the_barrier_what_if_misses_the_release() {
    // The path has no barrier release, so freeing barriers saves nothing.
    let doc = critpath_doc(100, 50).replace(
        r#""free_barrier_release","saved_cycles":0,"predicted_cycles":100"#,
        r#""free_barrier_release","saved_cycles":10,"predicted_cycles":90"#,
    );
    let file = fixture("critpath-barrier-what-if.json", &doc);
    let out = run(env!("CARGO_BIN_EXE_critpath"), &file);
    assert_exit(
        &out,
        1,
        "free_barrier_release saves 10, not the path's barrier_release",
    );
    let doc = critpath_doc(100, 50).replace(r#"{"name":"free_barrier_release""#, r#"{"name":"x""#);
    let file = fixture("critpath-no-barrier-what-if.json", &doc);
    let out = run(env!("CARGO_BIN_EXE_critpath"), &file);
    assert_exit(&out, 1, "no free_barrier_release what-if");
}

#[test]
fn critpath_exits_1_when_the_makespan_misses_the_launch_cycles() {
    // The path is self-consistent, but the launch ran one cycle longer.
    let file = fixture("critpath-short-path.json", &critpath_doc(101, 50));
    let out = run(env!("CARGO_BIN_EXE_critpath"), &file);
    assert_exit(&out, 1, "critical_path makespan 100 != cycles 101");
}

/// A bench document (tile dimension 128) holding the two 4M anchor rows
/// plus the rows that place each dtype's crossover where `Device`
/// switches: fp16 ScanC loses at 1M and keeps up from 2M (128 tiles),
/// int8 ScanC loses at 3M and keeps up from 4M (256 tiles).
/// `scanc_fp16_2m_us` moves the fp16 crossover.
fn sweep_doc(scanc_fp16_us: f64, zero_lookback_fp16: f64, scanc_fp16_2m_us: f64) -> String {
    let row = |n: u64, dtype: &str, mcscan_us: f64, scanc_us: f64, zero_lookback: f64| {
        Json::obj([
            ("n", n.into()),
            ("dtype", dtype.into()),
            ("mcscan_time_us", Json::fixed(mcscan_us, 3)),
            ("scanc_time_us", Json::fixed(scanc_us, 3)),
            (
                "scanc_lookback",
                Json::obj([("zero_lookback_speedup", Json::fixed(zero_lookback, 3))]),
            ),
        ])
    };
    Json::obj([
        ("s", 128u64.into()),
        (
            "traffic",
            Json::Arr(vec![
                row(1 << 20, "fp16", 20.9, 26.6, 1.07),
                row(2 << 20, "fp16", 34.3, scanc_fp16_2m_us, 1.13),
                row(3 << 20, "int8", 38.4, 40.0, 1.06),
                row(1 << 22, "fp16", 57.5, scanc_fp16_us, zero_lookback_fp16),
                row(1 << 22, "int8", 57.5, 50.0, 1.04),
            ]),
        ),
    ])
    .to_string()
}

/// [`sweep_doc`] with the fp16 crossover where `Device` expects it.
fn anchor_doc(scanc_fp16_us: f64, zero_lookback_fp16: f64) -> String {
    sweep_doc(scanc_fp16_us, zero_lookback_fp16, 29.4)
}

#[test]
fn benchcheck_gates_the_4m_anchor() {
    let bin = env!("CARGO_BIN_EXE_benchcheck");
    let pass = fixture("bench-pass.json", &anchor_doc(47.2, 1.06));
    let out = run(bin, &pass);
    assert_exit(&out, 0, "");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("4M fp16: ScanC 47.2 us <= MCScan 57.5 us"),
        "{stdout}"
    );
    assert!(
        stdout.contains("4M int8: zero_lookback headroom 1.04x"),
        "{stdout}"
    );

    let slow = fixture("bench-slow.json", &anchor_doc(60.0, 1.06));
    assert_exit(&run(bin, &slow), 1, "perf regression");
    let exposed = fixture("bench-exposed.json", &anchor_doc(47.2, 1.2));
    assert_exit(&run(bin, &exposed), 1, "look-back not hidden");

    assert!(
        stdout.contains("fp16: ledger crossover 128 tiles = Device crossover"),
        "{stdout}"
    );
    let drift = fixture("bench-drift.json", &sweep_doc(47.2, 1.06, 40.0));
    assert_exit(&run(bin, &drift), 1, "crossover drift");
    let no_tiles = anchor_doc(47.2, 1.06).replace(r#""s":128"#, r#""s":0"#);
    let no_tiles = fixture("bench-no-tiles.json", &no_tiles);
    assert_exit(&run(bin, &no_tiles), 2, "tile dimension 0 out of range");

    let missing = fixture("bench-missing.json", r#"{"traffic":[]}"#);
    assert_exit(&run(bin, &missing), 2, "4M fp16 traffic row");
    for (name, doc) in malformed_inputs() {
        let file = fixture(&format!("bench-{name}.json"), &doc);
        assert_exit(&run(bin, &file), 2, "malformed document");
    }
}

/// One hb event: `(block, core, time, what, action, numeric args)`.
type HbRow<'a> = (u32, u32, u64, &'a str, &'a str, &'a [(&'a str, u64)]);

/// An `hbEvents` document from rows, written out the way the `trace`
/// binary serializes events.
fn hb_doc(rows: &[HbRow<'_>]) -> String {
    let events = rows.iter().map(|&(block, core, time, what, action, args)| {
        let mut fields = vec![
            ("block", block.into()),
            ("core", core.into()),
            ("time", time.into()),
            ("what", what.into()),
            ("action", action.into()),
        ];
        fields.extend(args.iter().map(|&(k, v)| (k, v.into())));
        Json::obj(fields)
    });
    Json::obj([("hbEvents", Json::Arr(events.collect()))]).to_string()
}

/// `simlint --json` text pinned byte for byte: every diagnostic code,
/// each flag code for both a per-block and a grid flag. `hb-cycle` gets
/// its own document because the analyzer stops at a cycle.
#[test]
fn simlint_json_pins_every_diagnostic() {
    let (set, wait) = ("CrossCoreSetFlag", "CrossCoreWaitFlag");
    let (gset, gwait) = ("GridSetFlag", "GridWaitFlag");
    let (dc, alloc) = ("DataCopy", "AllocLocal");
    let codes = hb_doc(&[
        // unmatched-wait: tokens no set published.
        (0, 1, 10, wait, "flagWait", &[("id", 5), ("token", 99)]),
        (1, 1, 10, gwait, "gridFlagWait", &[("id", 5), ("token", 99)]),
        // flag-leak + unused-flag: ids nobody ever waits on.
        (0, 0, 20, set, "flagSet", &[("id", 2), ("token", 0)]),
        (0, 1, 20, gset, "gridFlagSet", &[("id", 2), ("token", 0)]),
        // flag-reuse: an id set again after a barrier while the set from
        // before the barrier is still pending.
        (2, 0, 10, set, "flagSet", &[("id", 4), ("token", 0)]),
        (2, 0, 30, "SyncAll", "barrier", &[("round", 0)]),
        (2, 1, 30, "SyncAll", "barrier", &[("round", 0)]),
        (2, 0, 40, set, "flagSet", &[("id", 4), ("token", 1)]),
        (2, 1, 60, wait, "flagWait", &[("id", 4), ("token", 0)]),
        (2, 1, 70, wait, "flagWait", &[("id", 4), ("token", 1)]),
        // ...and the same on a grid flag, across barrier round 1.
        (3, 0, 10, gset, "gridFlagSet", &[("id", 6), ("token", 10)]),
        (3, 0, 30, "SyncAll", "barrier", &[("round", 1)]),
        (3, 1, 30, "SyncAll", "barrier", &[("round", 1)]),
        (3, 0, 40, gset, "gridFlagSet", &[("id", 6), ("token", 11)]),
        (3, 1, 60, gwait, "gridFlagWait", &[("id", 6), ("token", 10)]),
        (3, 1, 70, gwait, "gridFlagWait", &[("id", 6), ("token", 11)]),
        // queue-unbalanced, queue-leak, alloc-leak.
        (4, 1, 5, "TQue", "queueCreate", &[("queue", 0)]),
        (4, 1, 10, "EnQue", "enque", &[("queue", 0)]),
        (4, 1, 15, "TQue", "queueDestroy", &[("queue", 0)]),
        (4, 1, 20, "TQue", "queueCreate", &[("queue", 1)]),
        (4, 1, 25, alloc, "alloc", &[("id", 7), ("bytes", 256)]),
        // dead-transfer: a write buried unread by an ordered overwrite.
        (5, 1, 10, dc, "gmWrite", &[("start", 1000), ("end", 1064)]),
        (5, 1, 20, dc, "gmWrite", &[("start", 1000), ("end", 1064)]),
        // gm-race: two blocks write overlapping bytes with no order.
        (5, 1, 30, dc, "gmWrite", &[("start", 2000), ("end", 2064)]),
        (6, 1, 30, dc, "gmWrite", &[("start", 2032), ("end", 2096)]),
    ]);
    let cycle = hb_doc(&[
        (0, 0, 10, wait, "flagWait", &[("id", 0), ("token", 0)]),
        (0, 0, 20, set, "flagSet", &[("id", 0), ("token", 0)]),
    ]);
    let files = [
        fixture("simlint-codes.json", &codes),
        fixture("simlint-cycle.json", &cycle),
    ];
    let out = Command::new(env!("CARGO_BIN_EXE_simlint"))
        .arg("--json")
        .args(&files)
        .output()
        .expect("binary runs");
    for f in &files {
        std::fs::remove_file(f).ok();
    }
    assert_exit(&out, 1, "diagnostic(s) across 2 file(s)");
    let doc = ascend_sim::json::parse(&String::from_utf8_lossy(&out.stdout)).expect("simlint/v1");
    let diags: Vec<Vec<&str>> = doc
        .array_field("files")
        .expect("files array")
        .iter()
        .map(|f| {
            let d = f.array_field("diagnostics").expect("diagnostics array");
            d.iter().map(|d| d.as_str().expect("string")).collect()
        })
        .collect();
    assert_eq!(
        diags[0],
        [
            "error[unmatched-wait]: block 0 vec0 `CrossCoreWaitFlag` @10 consumed flag token 99 \
             that no CrossCoreSetFlag published",
            "error[unmatched-wait]: block 1 vec0 `GridWaitFlag` @10 consumed grid flag token 99 \
             that no GridSetFlag published",
            "error[flag-reuse]: block 2 cube `CrossCoreSetFlag` @40 reuses flag id 4 across \
             barrier rounds: the round-0 set (token 0) by block 2 cube `CrossCoreSetFlag` @10 \
             is still pending",
            "error[flag-reuse]: block 3 cube `GridSetFlag` @40 reuses grid flag id 6 across \
             barrier rounds: the round-0 set (token 10) by block 3 cube `GridSetFlag` @10 is \
             still pending",
            "error[gm-race]: GM bytes [2032, 2064): write by block 5 vec0 `DataCopy` @30 races \
             with write by block 6 vec0 `DataCopy` @30 — no happens-before path orders them",
            "warning[flag-leak]: block 0 cube `CrossCoreSetFlag` @20 set flag id 2 (token 0) but \
             no CrossCoreWaitFlag ever consumed it",
            "warning[unused-flag]: block 0 flag id 2 is set 1 time(s) but no CrossCoreWaitFlag \
             on this id exists anywhere in the launch",
            "warning[flag-leak]: block 0 vec0 `GridSetFlag` @20 set grid flag id 2 (token 0) but \
             no GridWaitFlag ever consumed it",
            "warning[unused-flag]: grid flag id 2 is set 1 time(s) but no GridWaitFlag on this \
             id exists anywhere in the launch",
            "warning[queue-unbalanced]: block 4 vec0 `TQue` @5: 1 enque(s) vs 0 deque(s)",
            "warning[queue-leak]: block 4 vec0 `TQue` @20: queue created but never destroyed",
            "warning[alloc-leak]: block 4 vec0 `AllocLocal` @25 allocated 256 B (alloc id 7) \
             that are never freed",
            "warning[dead-transfer]: block 5 vec0 `DataCopy` @10 wrote GM bytes [1000, 1064) \
             that are overwritten before any engine could read them",
        ]
    );
    assert_eq!(
        diags[1],
        [
            "error[hb-cycle]: the synchronization edges contradict program order (deadlock \
             shape) — cycle through block 0 cube `CrossCoreWaitFlag` @10"
        ]
    );
}
