//! The canonical layered benchmark of the verifier.
//!
//! Three workloads drive the public entry points (`tpot_cfront::compile`,
//! `tpot_ir::lower`, `Verifier::verify` and `tpotd` over HTTP), check
//! every verdict against a hand-written table, and report end-to-end
//! metrics; a traced run adds the per-layer split. See `README.md`.

pub mod affinity;
pub mod edits;
pub mod loadgen;
pub mod machine;
pub mod probe;
pub mod run;
pub mod stats;
pub mod table;
