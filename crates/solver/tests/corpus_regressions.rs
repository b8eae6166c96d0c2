//! Replays the committed fuzz corpus under `tests/corpus/`.
//!
//! Each `.smt2` file is a reduced case emitted by `tpot-fuzz` (either a
//! regression for a bug the fuzzer found, or a balanced sat/unsat sample
//! from `tpot-fuzz corpus`). The first `; expect: sat|unsat` comment line
//! records the adjudicated verdict; for sat cases the solver's model is
//! additionally validated against every assertion with the concrete
//! evaluator, which is exactly the check that caught the
//! `regress00_uf_array_model` bug. Every Unsat is DRAT-checked: the solver
//! logs a proof and replays it through the independent RUP checker, and a
//! rejected proof fails the case as a solver error.

use std::fs;
use std::path::PathBuf;

use tpot_smt::{eval, parse_script, TermArena, Value};
use tpot_solver::{SmtResult, SmtSolver, SolverConfig};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

/// The default solver with DRAT proof logging and checking on.
fn proof_checked_solver() -> SmtSolver {
    let mut config = SolverConfig::default();
    config.sat.proof = true;
    SmtSolver::new(config)
}

fn expected_verdict(text: &str) -> &'static str {
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("; expect:") {
            return match rest.trim() {
                "sat" => "sat",
                "unsat" => "unsat",
                other => panic!("unknown expectation {other:?}"),
            };
        }
    }
    panic!("corpus file has no `; expect:` header");
}

#[test]
fn corpus_verdicts_and_models() {
    let mut cases: Vec<PathBuf> = fs::read_dir(corpus_dir())
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "smt2"))
        .collect();
    cases.sort();
    assert!(
        cases.len() >= 10,
        "expected the committed corpus, found {} files",
        cases.len()
    );

    for path in cases {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = fs::read_to_string(&path).expect("readable corpus file");
        let expect = expected_verdict(&text);

        let mut arena = TermArena::new();
        let assertions =
            parse_script(&mut arena, &text).unwrap_or_else(|e| panic!("{name}: parse error: {e}"));

        let solver = proof_checked_solver();
        let result = solver
            .check(&mut arena, &assertions)
            .unwrap_or_else(|e| panic!("{name}: solver error: {e:?}"));

        match (expect, result) {
            ("sat", SmtResult::Sat(model)) => {
                for (i, &t) in assertions.iter().enumerate() {
                    match eval(&arena, &model, t) {
                        Ok(Value::Bool(true)) => {}
                        Ok(v) => panic!("{name}: model fails assertion #{i}: {v:?}"),
                        Err(e) => panic!("{name}: model eval error on assertion #{i}: {e:?}"),
                    }
                }
            }
            ("unsat", SmtResult::Unsat) => {}
            (want, got) => panic!("{name}: expected {want}, solver returned {got:?}"),
        }
    }
}

/// Replays `tests/corpus/slow/` — queries the tpot-obs slow-query watchdog
/// captured from real verification runs (`TPOT_SLOW_QUERY_MS`).
///
/// These originally had no `; expect:` header and were replayed by an
/// ignored test that asserted `Unknown`: `slow-0e2f82de828a1754.smt2` is
/// the pointer-resolution query on which `spec__alloc_contig` burned its
/// in-situ solve budget. Standalone replay decides it (sat, well under a
/// second in release builds) — the in-situ slowness came from session
/// state the standalone run does not reproduce — so the test now asserts
/// the adjudicated verdict like the main corpus replay and, for sat,
/// validates the model against every assertion with the concrete
/// evaluator. A future regression back to `Unknown` fails loudly here.
/// `slow-bfac6eb8c77fce75.smt2`, from the same POT, pins where
/// branch-and-bound starts (its header says why).
#[test]
fn slow_corpus_now_decides() {
    let mut cases: Vec<PathBuf> = fs::read_dir(corpus_dir().join("slow"))
        .expect("tests/corpus/slow exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "smt2"))
        .collect();
    cases.sort();
    assert!(!cases.is_empty(), "expected captured slow queries");

    for path in cases {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = fs::read_to_string(&path).expect("readable corpus file");
        let expect = expected_verdict(&text);
        let mut arena = TermArena::new();
        let assertions =
            parse_script(&mut arena, &text).unwrap_or_else(|e| panic!("{name}: parse error: {e}"));
        let solver = proof_checked_solver();
        let result = solver
            .check(&mut arena, &assertions)
            .unwrap_or_else(|e| panic!("{name}: solver error: {e:?}"));
        match (expect, result) {
            ("sat", SmtResult::Sat(model)) => {
                for (i, &t) in assertions.iter().enumerate() {
                    match eval(&arena, &model, t) {
                        Ok(Value::Bool(true)) => {}
                        Ok(v) => panic!("{name}: model fails assertion #{i}: {v:?}"),
                        Err(e) => panic!("{name}: model eval error on assertion #{i}: {e:?}"),
                    }
                }
            }
            ("unsat", SmtResult::Unsat) => {}
            (want, got) => panic!("{name}: expected {want}, solver returned {got:?}"),
        }
    }
}
