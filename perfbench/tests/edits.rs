//! The service loop's request generator.

use std::collections::BTreeSet;

use perfbench::edits::{apply_edit, Request, RequestGen, CYCLE, EDIT_SHARE, ROUND};
use perfbench::table::WORKLOADS;

fn sequence(seed: u64, n: usize) -> Vec<Request> {
    let w = WORKLOADS.iter().find(|w| w.name == "tpotd_edit").unwrap();
    let mut g = RequestGen::new(seed, w.service.edit_functions);
    (0..n).map(|_| g.next_request()).collect()
}

#[test]
fn generator_is_deterministic_per_seed() {
    assert_eq!(sequence(7, 500), sequence(7, 500));
    assert_ne!(sequence(7, 500), sequence(8, 500));
}

#[test]
fn every_round_of_five_has_one_edit() {
    for seed in [1, 2, 3] {
        let seq = sequence(seed, 5000);
        for round in seq.chunks(ROUND) {
            let edits = round
                .iter()
                .filter(|r| matches!(r, Request::Edit { .. }))
                .count();
            assert_eq!(edits, 1, "seed {seed}");
        }
    }
    assert_eq!(EDIT_SHARE, 0.2);
}

fn edited_functions(seed: u64) -> Vec<&'static str> {
    sequence(seed, 5000)
        .into_iter()
        .filter_map(|r| match r {
            Request::Edit { function, .. } => Some(function),
            Request::Unchanged => None,
        })
        .collect()
}

#[test]
fn every_cycle_of_four_edits_the_first_function_three_times() {
    let w = WORKLOADS.iter().find(|w| w.name == "tpotd_edit").unwrap();
    let first = w.service.edit_functions[0];
    let functions = edited_functions(5);
    assert_eq!(functions.len(), 1000);
    for cycle in functions.chunks(CYCLE) {
        assert_eq!(cycle.iter().filter(|f| **f == first).count(), 3);
    }
    // The seed orders the cycles.
    assert_ne!(functions[..40], edited_functions(6)[..40]);
}

#[test]
fn every_edit_is_new_within_a_run() {
    for w in WORKLOADS {
        let src = w.service.module.source();
        let mut g = RequestGen::new(3, w.service.edit_functions);
        let mut seen = BTreeSet::new();
        for _ in 0..2000 {
            if let Request::Edit { function, id } = g.next_request() {
                assert!(
                    seen.insert(apply_edit(&src, function, id)),
                    "{}: repeated edit",
                    w.name
                );
            }
        }
        assert!(seen.len() > 300);
    }
}

/// Every edit compiles to a module no other edit produces, changes the
/// cone of each POT whose cone holds the edited function, and leaves every
/// other POT's cone alone.
#[test]
fn every_edit_compiles_and_touches_only_its_cones() {
    for w in WORKLOADS {
        let svc = &w.service;
        let src = svc.module.source();
        let lower =
            |s: &str| tpot_ir::lower(&tpot_cfront::compile(s).expect("compiles")).expect("lowers");
        let base = lower(&src);
        // Two generators, as a run's untraced and traced loops use.
        let mut gens = [
            RequestGen::new(11, svc.edit_functions),
            RequestGen::new(11 ^ 0x5eed, svc.edit_functions),
        ];
        let mut modules = BTreeSet::new();
        let mut edits = 0;
        while edits < 20 {
            let g = &mut gens[edits % 2];
            let Request::Edit { function, id } = g.next_request() else {
                continue;
            };
            edits += 1;
            let edited = lower(&apply_edit(&src, function, id));
            assert!(
                modules.insert(tpot_ir::diff::module_digest(&edited)),
                "{}: two edits lower to the same module",
                w.name
            );
            let mut touched = 0;
            for pot in svc.pots {
                let in_cone = tpot_ir::diff::pot_cone(&base, pot).contains(function);
                let changed = tpot_ir::diff::cone_digest(&base, pot)
                    != tpot_ir::diff::cone_digest(&edited, pot);
                assert_eq!(in_cone, changed, "{}: {function} edit vs {pot}", w.name);
                touched += usize::from(changed);
            }
            assert!(
                touched > 0,
                "{}: an edit of {function} must touch a requested POT",
                w.name
            );
        }
    }
}

#[test]
fn edit_lands_at_the_top_of_the_function_body() {
    let src = "int g;\nint f(int x) { return x; }\nvoid h(void) { f(1); }\n";
    assert_eq!(
        apply_edit(src, "f", 4),
        "int g;\nint f(int x) {\n  unsigned long perfbench_edit_4 = 4UL; return x; }\nvoid h(void) { f(1); }\n"
    );
}
