//! Figure 7: breakdown of verification time into the paper's buckets —
//! Query simplification, SMT:pointers, SMT:branches, Serialization, Other.
//!
//! Usage: `fig7 [target-fragment ...]` (default: the three small targets).

use tpot_engine::{EngineConfig, Verifier};
use tpot_targets::all_targets;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let select: Vec<String> = if args.is_empty() {
        vec!["pkvm".into(), "vigor".into(), "page table".into()]
    } else if args.iter().any(|a| a == "all") {
        all_targets()
            .iter()
            .map(|t| t.name.to_lowercase())
            .collect()
    } else {
        args
    };
    println!(
        "{:<22} {:>11} {:>12} {:>12} {:>13} {:>7}",
        "Target", "QuerySimpl%", "SMT:ptrs%", "SMT:branch%", "Serialization%", "Other%"
    );
    println!("{:-<84}", "");
    for t in all_targets() {
        if !select
            .iter()
            .any(|s| t.name.to_lowercase().contains(&s.to_lowercase()))
        {
            continue;
        }
        let v = Verifier::with_config(
            t.module().expect("target compiles"),
            EngineConfig::from_env(),
        );
        let mut agg = tpot_engine::Stats::default();
        for pot in v.module.pot_names() {
            let r = v.verify_pot(&pot);
            agg.merge(&r.stats);
        }
        let (simp, ptr, br, ser, other) = agg.fig7_breakdown();
        println!(
            "{:<22} {:>11.1} {:>12.1} {:>12.1} {:>13.1} {:>7.1}",
            t.name, simp, ptr, br, ser, other
        );
        // Pipeline counters behind the Serialization bucket: queries per
        // purpose, one serialization per query, and the slicing savings
        // (terms shipped to solver instances vs the full arena).
        println!(
            "{:<22}   queries {} (ptr {}, branch {}, assert {}, simplify {}), \
serializations {}, sliced {}/{} terms, queue wait {:.1} ms",
            "",
            agg.num_queries,
            agg.pointer_queries,
            agg.branch_queries,
            agg.assertion_queries,
            agg.simplify_queries,
            agg.num_serializations,
            agg.terms_shipped,
            agg.terms_total,
            agg.queue_wait.as_secs_f64() * 1e3
        );
    }
    println!();
    println!("Paper shape (Fig. 7): solver work dominates (53-80% across SMT buckets),");
    println!("serialization is a visible 8-28% slice, simplification a minor one.");
}
