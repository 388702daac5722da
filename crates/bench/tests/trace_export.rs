//! The `trace` binary's Chrome-trace export, read structurally: the
//! MCScan timeline must carry its phase spans and every stall class as
//! event names, not merely as substrings somewhere in the file.

use ascend_sim::json;
use std::collections::BTreeSet;
use std::process::Command;

#[test]
fn mcscan_trace_names_its_phases_and_stalls() {
    let path = std::env::temp_dir().join(format!("trace-export-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_trace"))
        .args(["mcscan", "65536"])
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&path).expect("trace written");
    std::fs::remove_file(&path).ok();
    let doc = json::parse(&doc).expect("trace is JSON");
    let names: BTreeSet<&str> = doc
        .array_field("traceEvents")
        .expect("traceEvents array")
        .iter()
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
        .collect();
    for name in [
        "Phase I",
        "Phase II",
        "SyncAll",
        "wait:dep",
        "wait:barrier",
        "wait:flag",
    ] {
        assert!(names.contains(name), "no `{name}` event in {names:?}");
    }
}
