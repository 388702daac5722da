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

/// A bench document holding only the two 4M anchor rows.
fn anchor_doc(scanc_fp16_us: f64, zero_lookback_fp16: f64) -> String {
    let row = |dtype: &str, scanc_us: f64, zero_lookback: f64| {
        Json::obj([
            ("n", (1u64 << 22).into()),
            ("dtype", dtype.into()),
            ("mcscan_time_us", Json::fixed(57.5, 3)),
            ("scanc_time_us", Json::fixed(scanc_us, 3)),
            (
                "scanc_lookback",
                Json::obj([("zero_lookback_speedup", Json::fixed(zero_lookback, 3))]),
            ),
        ])
    };
    Json::obj([(
        "traffic",
        Json::Arr(vec![
            row("fp16", scanc_fp16_us, zero_lookback_fp16),
            row("int8", 50.0, 1.04),
        ]),
    )])
    .to_string()
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

    let missing = fixture("bench-missing.json", r#"{"traffic":[]}"#);
    assert_exit(&run(bin, &missing), 2, "4M fp16 traffic row");
    for (name, doc) in malformed_inputs() {
        let file = fixture(&format!("bench-{name}.json"), &doc);
        assert_exit(&run(bin, &file), 2, "malformed document");
    }
}
