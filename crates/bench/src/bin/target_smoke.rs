//! Generic target verification harness: `target_smoke <dir> [pot...]`.

use tpot_engine::{EngineConfig, PotStatus, Verifier};

fn main() {
    let mut args = std::env::args().skip(1);
    let dir = args
        .next()
        .expect("usage: target_smoke <targets/dir> [pot...]");
    let only: Vec<String> = args.collect();
    let mut src = String::new();
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy().to_string();
            // Contract files belong to the modular baseline verifier
            // (see `baseline_compare`), not to TPot runs.
            p.extension().map(|e| e == "c").unwrap_or(false) && !name.contains("contract")
        })
        .collect();
    files.sort_by_key(|p| {
        // Models first, spec last.
        let n = p.file_name().unwrap().to_string_lossy().to_string();
        (n.contains("spec"), n)
    });
    for f in &files {
        src.push_str(&std::fs::read_to_string(f).unwrap());
        src.push('\n');
    }
    let m = tpot_ir::lower(&tpot_cfront::compile(&src).unwrap_or_else(|e| panic!("{e}"))).unwrap();
    let v = Verifier::with_config(m, EngineConfig::from_env());
    for pot in v.module.pot_names() {
        if !only.is_empty() && !only.contains(&pot) {
            continue;
        }
        let t0 = std::time::Instant::now();
        let r = v.verify_pot(&pot);
        let status = match &r.status {
            PotStatus::Proved => "PROVED".to_string(),
            PotStatus::Failed(vs) => format!("FAILED: {}", vs[0]),
            PotStatus::Error(e) => format!("ERROR: {e}"),
        };
        println!(
            "{pot}: {status} in {:?} ({} q, {} paths)",
            t0.elapsed(),
            r.stats.num_queries,
            r.stats.paths
        );
    }
}
