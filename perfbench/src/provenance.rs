//! Which source a run measured: the git revision when the checkout has
//! one, and a digest of the sources that is there in every checkout.

use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

/// The commit `HEAD` names, read from `.git` without running git.
pub fn git_rev() -> Option<String> {
    let git = root().join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let Some(name) = head.trim().strip_prefix("ref: ") else {
        return Some(head.trim().to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(name)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (rev, r) = line.split_once(' ')?;
        (r == name).then(|| rev.to_string())
    })
}

/// FNV-1a over the paths and contents of the workspace manifests and of
/// every file under `crates/` and `perfbench/src/`, in path order.
pub fn source_digest() -> String {
    let root = root();
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for dir in ["crates", "perfbench/src"] {
        collect(&root.join(dir), &mut files);
    }
    files.sort();
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for file in files {
        let rel = file.strip_prefix(root).unwrap_or(&file);
        let bytes = std::fs::read(&file).unwrap_or_default();
        for b in rel.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    format!("{hash:016x}")
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, out);
        } else {
            out.push(path);
        }
    }
}
