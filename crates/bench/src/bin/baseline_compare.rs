//! Live modular-verifier comparison (the Table 4 / §5.2 contrast).
//!
//! Verifies the Vigor allocator twice: with TPot (no internal contracts)
//! and with the modular baseline (VeriFast-style contracts on every
//! function), then prints annotation counts and verification times
//! side by side.

use tpot_baseline::ModularVerifier;
use tpot_bench::fmt_dur;
use tpot_engine::{EngineConfig, PotStatus, Verifier};
use tpot_targets::{annot::count_annotations, loc::count_loc, target};

fn main() {
    let t = target("vigor").unwrap();

    println!("== TPot (component-level, inlining, no internal contracts) ==");
    let v = Verifier::with_config(t.module().unwrap(), EngineConfig::from_env());
    let mut tpot_ok = 0;
    let mut tpot_time = std::time::Duration::ZERO;
    for pot in v.module.pot_names() {
        let r = v.verify_pot(&pot);
        tpot_time += r.duration;
        let ok = r.status.is_proved();
        tpot_ok += ok as u32;
        println!(
            "  {pot}: {} in {}",
            if ok { "proved" } else { "FAILED" },
            fmt_dur(r.duration)
        );
    }
    let c = count_annotations(&t);
    println!(
        "  annotations: {} lines total ({} spec, {} globals, {} loops, 0 internal)",
        c.syntactic_total, c.specifications, c.globals, c.loops
    );

    println!();
    println!("== Modular baseline (function contracts, VeriFast-style) ==");
    let contracts = std::fs::read_to_string("targets/vigor_alloc/baseline_contracts.c")
        .expect("run from the repository root");
    let src = format!("{}\n{}", t.impl_src, contracts);
    let m = tpot_ir::lower(&tpot_cfront::compile(&src).unwrap()).unwrap();
    let mut mv = ModularVerifier::new(m).unwrap();
    mv.config = EngineConfig::from_env();
    let mut base_time = std::time::Duration::ZERO;
    for f in mv.contracted_functions() {
        let r = mv.verify_function(&f);
        base_time += r.duration;
        let status = match &r.status {
            PotStatus::Proved => "proved".to_string(),
            PotStatus::Failed(vs) => format!("FAILED ({})", vs[0].kind),
            PotStatus::Error(e) => format!("error: {e}"),
        };
        println!("  {f}: {status} in {}", fmt_dur(r.duration));
    }
    let contract_lines = count_loc(&contracts);
    println!("  contract annotations: {contract_lines} lines (every function needs one)");

    println!();
    println!("== Contrast (the paper's Table 4 / Table 5 trade) ==");
    println!(
        "  TPot: {} POTs proved, {} annotation lines, total verify {}",
        tpot_ok,
        c.syntactic_total,
        fmt_dur(tpot_time)
    );
    println!(
        "  Baseline: per-function contracts ({contract_lines} lines incl. internals), total verify {}",
        fmt_dur(base_time)
    );
    println!("  Shape: the baseline verifies faster per query but demands contracts on");
    println!("  internal functions; TPot shifts that effort to the solver (§2.3).");
}
