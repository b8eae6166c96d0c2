//! A from-scratch SMT solver for the quantifier-free fragment TPot emits.
//!
//! This crate substitutes for Z3 in the reproduction (DESIGN.md §1). TPot's
//! bespoke encoding (paper §4.3) produces queries over booleans, bitvectors,
//! linear integer arithmetic, byte arrays, and two uninterpreted functions
//! (`tpot_bv2int`, `heap_safe`) — with *no quantifiers*. The solver handles
//! exactly this fragment:
//!
//! 1. **Preprocessing** ([`preprocess`]): read-over-write array elimination
//!    plus Ackermann expansion of remaining selects; Ackermann expansion of
//!    uninterpreted functions; purification of integer-sorted `ite`s;
//!    normalization of integer relations to `≤`-atoms.
//! 2. **Bit-blasting** ([`bitblast`]): bitvector terms become circuits over
//!    SAT literals (ripple-carry adders, shift-add multipliers, barrel
//!    shifters, restoring dividers).
//! 3. **Online LIA** ([`lia`], [`simplex`]): integer atoms stay opaque SAT
//!    literals. As CDCL search assigns them, the atoms on the trail are
//!    checked with a backtrackable Dutertre–de Moura simplex (plus
//!    branch-and-bound on a full assignment), and a conflict returns as a
//!    lemma that search resolves and backjumps from without restarting
//!    (DPLL(T)).
//!
//! The paper's observation that bit-blasting 64-bit pointer arithmetic causes
//! solver explosion (§4.3, "Converting pointer values … to integers")
//! reproduces directly here: pointer-resolution queries in the integer
//! encoding route to the polynomial simplex, while the naive bitvector
//! encoding routes to exponential-in-the-worst-case SAT. The `ablations`
//! bench measures the difference.

pub mod bitblast;
pub mod config;
pub mod error;
pub mod lia;
pub mod linexpr;
pub mod preprocess;
pub mod rational;
pub mod session;
pub mod simplex;
pub mod smt;

pub use config::SolverConfig;
pub use error::SolverError;
pub use session::{SessionStats, SolveSession, UnsatAttribution};
pub use smt::{SmtResult, SmtSolver};
