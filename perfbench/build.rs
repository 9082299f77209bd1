//! Records the compiler version and the source commit for the host
//! fingerprint every run prints.

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let git = Path::new(&manifest).join("../.git");
    println!(
        "cargo:rustc-env=PERFBENCH_COMMIT={}",
        commit(&git).unwrap_or_else(|| "unknown".into())
    );
    println!("cargo:rerun-if-changed=build.rs");
    // Watch only files that exist: a missing watched file would rerun
    // this script (and rebuild the benchmark) on every invocation.
    for watched in ["HEAD", "packed-refs"] {
        if git.join(watched).exists() {
            println!("cargo:rerun-if-changed=../.git/{watched}");
        }
    }
    if let Some(reference) = std::fs::read_to_string(git.join("HEAD"))
        .ok()
        .and_then(|h| h.trim().strip_prefix("ref: ").map(str::to_string))
    {
        if git.join(&reference).exists() {
            println!("cargo:rerun-if-changed=../.git/{reference}");
        }
    }
}

/// The commit `HEAD` names, read from the git directory's files (a
/// checkout without `.git` yields `None`).
fn commit(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return Some(head.to_string()) };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}
