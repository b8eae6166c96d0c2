//! Per-POT `Stats` sums equal the `sat.*` registry deltas on `kernels_bv`
//! at its worker count. The registry is process-wide, so this file holds a
//! single test: nothing else in the process may solve concurrently.

use perfbench::probe::Snapshot;
use perfbench::table::WORKLOADS;
use tpot_engine::{EngineConfig, Verifier, VerifyOptions};

#[test]
fn per_pot_sat_sums_equal_registry_deltas() {
    let w = WORKLOADS.iter().find(|w| w.name == "kernels_bv").unwrap();
    tpot_obs::configure(tpot_obs::Config::default());
    for part in w.parts {
        assert_eq!(part.jobs, 2);
        let module = tpot_ir::lower(&tpot_cfront::compile(&part.module.source()).unwrap()).unwrap();
        let config = EngineConfig {
            addr_mode: part.addr_mode,
            ..EngineConfig::default()
        };
        let v = Verifier::with_config(module, config);
        let before = Snapshot::take();
        let results = v.verify(
            &VerifyOptions::new()
                .pots(part.pots.iter().copied())
                .jobs(part.jobs),
        );
        let delta = Snapshot::take().since(&before);
        let sum = |f: fn(&tpot_engine::stats::Stats) -> u64| {
            results.iter().map(|r| f(&r.stats)).sum::<u64>() as f64
        };
        let pairs: [(&str, f64); 10] = [
            ("sat.solves", sum(|s| s.sat_solves)),
            ("sat.conflicts", sum(|s| s.sat_conflicts)),
            ("sat.decisions", sum(|s| s.sat_decisions)),
            ("sat.propagations", sum(|s| s.sat_propagations)),
            ("sat.restarts", sum(|s| s.sat_restarts)),
            ("sat.learned_clauses", sum(|s| s.sat_learned)),
            ("sat.eliminated_vars", sum(|s| s.sat_eliminated_vars)),
            ("sat.subsumed", sum(|s| s.sat_subsumed)),
            ("sat.vivified_lits", sum(|s| s.sat_vivified_lits)),
            ("sat.proof_lines", sum(|s| s.sat_proof_lines)),
        ];
        assert!(
            delta.counter("sat.solves") > 0.0,
            "{} ran no SAT solve",
            part.module.name()
        );
        for (name, per_pot) in pairs {
            assert_eq!(
                per_pot,
                delta.counter(name),
                "{}: {name}",
                part.module.name()
            );
        }
    }
}
