//! Engine configuration is a value, not process state: two verifiers with
//! different `EngineConfig`s, running at the same time in one process,
//! each behave as their own config says.

use std::sync::Barrier;

use tpot_engine::{outcome_digest, EngineConfig, PotResult, Verifier, VerifyOptions};
use tpot_ir::lower;

/// Proved, and its SAT instances grow enough clauses for inprocessing to
/// eliminate variables.
const POT: &str = "spec__nr_pages";

fn module() -> tpot_ir::Module {
    let imp = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../targets/pkvm_early_alloc/early_alloc.c"
    ))
    .unwrap();
    let spec = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../targets/pkvm_early_alloc/spec.c"
    ))
    .unwrap();
    lower(&tpot_cfront::compile(&format!("{imp}\n{spec}")).unwrap()).unwrap()
}

#[test]
fn concurrent_verifiers_keep_their_own_config() {
    let on = EngineConfig {
        inprocess: true,
        blame: true,
        ..EngineConfig::default()
    };
    let off = EngineConfig {
        inprocess: false,
        blame: false,
        ..EngineConfig::default()
    };
    let both_started = Barrier::new(2);
    let run = |config: &EngineConfig| -> PotResult {
        let v = Verifier::with_config(module(), config.clone());
        both_started.wait();
        v.verify(&VerifyOptions::new().pots([POT]).jobs(1))
            .pop()
            .unwrap()
    };
    let (r_on, r_off) = std::thread::scope(|s| {
        let on = s.spawn(|| run(&on));
        let off = s.spawn(|| run(&off));
        (on.join().unwrap(), off.join().unwrap())
    });

    assert!(r_on.status.is_proved(), "on: {:?}", r_on.status);
    assert!(r_off.status.is_proved(), "off: {:?}", r_off.status);
    assert!(
        r_on.stats.sat_eliminated_vars > 0,
        "inprocessing on eliminated no variable"
    );
    assert!(!r_on.blame.is_empty(), "blame on reported no assumption");
    assert_eq!(
        r_off.stats.sat_eliminated_vars, 0,
        "inprocessing off eliminated variables"
    );
    assert!(
        r_off.blame.is_empty(),
        "blame off reported {:?}",
        r_off.blame
    );
}

/// The persistent-cache key describes the solver that runs: a POT proved
/// with inprocessing is a different claim from one proved without.
#[test]
fn outcome_digest_keys_on_inprocessing() {
    let on = EngineConfig::default();
    let off = EngineConfig {
        inprocess: false,
        ..EngineConfig::default()
    };
    assert!(on.inprocess);
    assert_ne!(outcome_digest(&on), outcome_digest(&off));
}
