//! Quick verification run of the pKVM early-allocator target.
//!
//! Verifies the POTs named on the command line (every POT when none is
//! named) with one `Verifier::verify` call, so `TPOT_PATH_JOBS` sets the
//! path-scheduler worker count and a `TPOT_TRACE` run records a
//! multi-worker trace. The engine's other `TPOT_*` variables apply too
//! (`EngineConfig::from_env`).

use tpot_engine::{EngineConfig, PotStatus, Verifier, VerifyOptions};

fn main() {
    let imp = std::fs::read_to_string("targets/pkvm_early_alloc/early_alloc.c").unwrap();
    let spec = std::fs::read_to_string("targets/pkvm_early_alloc/spec.c").unwrap();
    let src = format!("{imp}\n{spec}");
    let m = tpot_ir::lower(&tpot_cfront::compile(&src).unwrap()).unwrap();
    let v = Verifier::with_config(m, EngineConfig::from_env());
    let only: Vec<String> = std::env::args().skip(1).collect();
    let pots: Vec<String> = v
        .module
        .pot_names()
        .into_iter()
        .filter(|p| only.is_empty() || only.contains(p))
        .collect();
    for r in v.verify(&VerifyOptions::new().pots(pots)) {
        let status = match &r.status {
            PotStatus::Proved => "PROVED".to_string(),
            PotStatus::Failed(vs) => format!("FAILED: {}", vs[0]),
            PotStatus::Error(e) => format!("ERROR: {e}"),
        };
        println!(
            "{}: {status} in {:?} ({} queries, {} paths, {} insts)",
            r.pot, r.duration, r.stats.num_queries, r.stats.paths, r.stats.insts
        );
    }
}
