//! Quick verification run of the KVM page-table target.

use tpot_engine::{EngineConfig, PotStatus, Verifier};

fn main() {
    let imp = std::fs::read_to_string("targets/kvm_pgtable/pgtable.c").unwrap();
    let spec = std::fs::read_to_string("targets/kvm_pgtable/spec.c").unwrap();
    let src = format!("{imp}\n{spec}");
    let m = tpot_ir::lower(&tpot_cfront::compile(&src).unwrap()).unwrap();
    let v = Verifier::with_config(m, EngineConfig::from_env());
    for pot in v.module.pot_names() {
        let t0 = std::time::Instant::now();
        let r = v.verify_pot(&pot);
        let status = match &r.status {
            PotStatus::Proved => "PROVED".to_string(),
            PotStatus::Failed(vs) => format!("FAILED: {}", vs[0]),
            PotStatus::Error(e) => format!("ERROR: {e}"),
        };
        println!(
            "{pot}: {status} in {:?} ({} queries, {} paths)",
            t0.elapsed(),
            r.stats.num_queries,
            r.stats.paths
        );
    }
}
