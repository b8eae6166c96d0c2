//! What a report needs so that two reports can be checked to come from
//! the same machine and the same code: commit, source digest, core count,
//! CPU model and compiler.

use std::path::Path;
use std::process::Command;

use tpot_obs::json::Value;

/// Source trees whose content identifies the measured code.
const SOURCE_ROOTS: &[&str] = &[
    "Cargo.toml",
    "Cargo.lock",
    "crates",
    "shims",
    "targets",
    "perfbench",
];

/// Directories that hold build or run output, never source.
const SKIP_DIRS: &[&str] = &["target", ".bench_build", ".bench_out"];

pub fn describe(seed: u64) -> Value {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::Obj(vec![
        ("commit".into(), Value::Str(commit())),
        ("source_digest".into(), Value::Str(source_digest())),
        ("nproc".into(), Value::Num(cores as f64)),
        ("cpu_model".into(), Value::Str(cpu_model())),
        ("rustc".into(), Value::Str(rustc())),
        ("seed".into(), Value::Num(seed as f64)),
    ])
}

/// `git rev-parse HEAD`, or `"unknown"` outside a git checkout.
fn commit() -> String {
    command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
}

fn rustc() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    command_line(&rustc, &["-V"]).unwrap_or_else(|| "unknown".into())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8(out.stdout).ok()?;
    Some(s.trim().to_string()).filter(|s| !s.is_empty())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the relative path and bytes of every source file, in
/// sorted order. Identifies the code even where there is no git history.
fn source_digest() -> String {
    let mut files = Vec::new();
    for root in SOURCE_ROOTS {
        collect(Path::new(root), &mut files);
    }
    files.sort();
    let mut h = tpot_portfolio::fnv1a(b"perfbench-sources");
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        h = tpot_portfolio::mix(h, tpot_portfolio::fnv1a(f.to_string_lossy().as_bytes()));
        h = tpot_portfolio::mix(h, tpot_portfolio::fnv1a(&bytes));
    }
    format!("{h:016x}")
}

fn collect(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
        return;
    }
    let Ok(entries) = std::fs::read_dir(path) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        let skip = p
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| SKIP_DIRS.contains(&n));
        if !skip {
            collect(&p, out);
        }
    }
}
