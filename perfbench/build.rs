//! Embeds the build half of the machine fingerprint: the compiler version,
//! the build profile, the commit (when the checkout is a git work tree)
//! and a digest of the simulator's sources (which identifies the code
//! under test even in a checkout without git metadata).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

const SOURCE_ROOTS: &[&str] = &[
    "crates",
    "src",
    "vendor",
    "presets",
    "Cargo.toml",
    "Cargo.lock",
];

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let root = manifest
        .parent()
        .expect("the benchmark lives inside the repository");

    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(&rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());
    let opt = std::env::var("OPT_LEVEL").unwrap_or_else(|_| "?".to_string());
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile} (opt-level {opt})");

    println!("cargo:rustc-env=PERFBENCH_COMMIT={}", git_head(root));

    let mut files = Vec::new();
    for entry in SOURCE_ROOTS {
        watch(&root.join(entry));
        collect(&root.join(entry), &mut files);
    }
    files.sort();
    let mut digest = Fnv::new();
    for file in &files {
        let rel = file.strip_prefix(root).unwrap_or(file);
        digest.write(rel.to_string_lossy().as_bytes());
        digest.write(&fs::read(file).unwrap_or_default());
    }
    println!("cargo:rustc-env=PERFBENCH_SOURCE_DIGEST={:016x}", digest.0);
}

/// Asks cargo to rerun this script when `path` changes. Only existing
/// paths are named: cargo treats a missing one as always changed, which
/// would rebuild the benchmark on every run.
fn watch(path: &Path) {
    if path.exists() {
        println!("cargo:rerun-if-changed={}", path.display());
    }
}

/// The commit `HEAD` names, read straight from `.git` at the checkout root
/// (no git process, no search above the checkout).
fn git_head(root: &Path) -> String {
    let git = root.join(".git");
    watch(&git.join("HEAD"));
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    watch(&git.join(reference));
    watch(&git.join("packed-refs"));
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "none".to_string())
}

fn collect(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        if matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("rs" | "toml" | "lock" | "workload")
        ) {
            out.push(path.to_path_buf());
        }
    } else if let Ok(entries) = fs::read_dir(path) {
        for entry in entries.flatten() {
            let child = entry.path();
            if child.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect(&child, out);
        }
    }
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}
