//! A CDCL SAT solver.
//!
//! This crate is the propositional core of the from-scratch SMT solver that
//! substitutes for Z3 in this reproduction (see DESIGN.md §1). It implements
//! the standard modern architecture:
//!
//! - two-watched-literal propagation,
//! - first-UIP conflict analysis with clause minimization,
//! - VSIDS decision heuristics with exponential decay,
//! - phase saving,
//! - Luby-sequence restarts,
//! - LBD (glue) tracking with a three-tier learned-clause database
//!   (core / mid / local) and aggressive local-tier reduction,
//! - solving under assumptions (used by the SMT layer for theory-guided
//!   queries),
//! - inprocessing between solves: bounded variable elimination with model
//!   reconstruction, subsumption/self-subsumption, clause vivification
//!   ([`inprocess`]),
//! - DRAT proof logging with an independent RUP checker ([`proof`], and the
//!   `drat_check` binary for proofs produced by other solvers).
//!
//! Configuration knobs ([`SatConfig`]) exist so the portfolio layer can race
//! differently-configured instances, reproducing the paper's 15-instance Z3
//! portfolio (§4.4).

pub mod config;
pub mod dimacs;
pub mod inprocess;
pub mod proof;
pub mod solver;
pub mod stats;

pub use config::SatConfig;
pub use dimacs::{parse_dimacs, solver_from_dimacs, Dimacs, DimacsError};
pub use proof::{check_steps, dimacs_lit, parse_drat, CheckStats, ProofLog, ProofStep};
pub use solver::{FinalCheck, Lit, SatResult, Solver, Var};
pub use stats::{SatSink, SolveStats};
