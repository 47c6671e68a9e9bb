//! Stamps the binary with the commit it was built from (when built inside a
//! git checkout) and a hash of the sources it builds, so every result can
//! be traced to the code it measured even outside git.

use std::path::{Path, PathBuf};
use std::process::Command;

const SOURCES: &[&str] = &[
    "../crates",
    "../vendor",
    "../Cargo.toml",
    "../Cargo.lock",
    "src",
];

fn files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for e in entries {
            if e.file_name().is_some_and(|n| n != "target") {
                files(&e, out);
            }
        }
    } else if path.is_file() {
        out.push(path.to_path_buf());
    }
}

fn main() {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    };
    for root in SOURCES {
        println!("cargo:rerun-if-changed={root}");
        let mut list = Vec::new();
        files(Path::new(root), &mut list);
        for f in list {
            eat(f.to_string_lossy().as_bytes());
            eat(&std::fs::read(&f).unwrap_or_default());
        }
    }
    let commit = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    println!("cargo:rustc-env=PERFBENCH_SOURCE_HASH={hash:016x}");
}
