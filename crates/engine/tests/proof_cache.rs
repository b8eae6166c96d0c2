//! Persistent proof-cache behavior at the engine level: restart
//! round-trips must replay with a 100% query-hit rate, and entries written
//! under one engine/solver configuration must be invisible to runs under
//! another (the digest isolation that makes cross-config replay
//! impossible, not merely unlikely).

use tpot_engine::{EngineConfig, PotStatus, Verifier, VerifyOptions};
use tpot_ir::lower;

const SRC: &str = r#"
int counter;

int bump(int x) { return x + 1; }

void spec__bump(void) {
    any(int, v);
    assume(v >= 0 && v < 100);
    counter = bump(v);
    assert(counter >= 1);
}

void spec__also(void) {
    any(int, v);
    assume(v > 0 && v < 1000);
    assert(bump(v) > 1);
}
"#;

fn module() -> tpot_ir::Module {
    lower(&tpot_cfront::compile(SRC).unwrap()).unwrap()
}

fn cache_file(tag: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!(
        "tpot_engine_proofcache_{tag}_{}.cache",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// A verifier over a fresh module instance, persisting to `path`.
fn verifier(path: &std::path::Path, config: EngineConfig) -> Verifier {
    let config = EngineConfig {
        cache_path: Some(path.to_path_buf()),
        ..config
    };
    Verifier::with_config(module(), config)
}

fn totals(results: &[tpot_engine::PotResult]) -> (u64, u64) {
    let hits = results.iter().map(|r| r.stats.cache_hits).sum();
    let misses = results.iter().map(|r| r.stats.cache_misses).sum();
    (hits, misses)
}

/// A fresh verifier over the unchanged module replays every solver query
/// from the on-disk cache: zero misses, i.e. a 100% hit rate — the engine
/// half of the daemon's `replayed` provenance tier.
#[test]
fn persistent_round_trip_replays_with_full_hit_rate() {
    let path = cache_file("roundtrip");
    let opts = VerifyOptions::new().jobs(1);

    let cold = verifier(&path, EngineConfig::default()).verify(&opts);
    assert!(cold.iter().all(|r| matches!(r.status, PotStatus::Proved)));
    let (_, cold_misses) = totals(&cold);
    assert!(cold_misses > 0, "cold run must actually solve something");
    assert!(path.exists(), "verify() flushes the cache on exit");

    // "Restart": a brand-new verifier and module instance, same file.
    let warm = verifier(&path, EngineConfig::default()).verify(&opts);
    assert!(warm.iter().all(|r| matches!(r.status, PotStatus::Proved)));
    let (warm_hits, warm_misses) = totals(&warm);
    assert_eq!(warm_misses, 0, "100% hit rate on the unchanged module");
    assert!(
        warm_hits > 0,
        "the hits must come from the persistent cache"
    );

    let _ = std::fs::remove_file(&path);
}

/// Entries written by a `TPOT_INCREMENTAL=1`-shaped run (incremental solve
/// sessions on — the configuration under which inprocessing-era
/// simplifications are recorded) must not be consumed by a
/// `TPOT_INCREMENTAL=0` run: the engine salt folds the toggle into the
/// cache key, so the second run sees only misses rather than replaying
/// outcomes produced under a different solver pipeline.
#[test]
fn non_incremental_run_cannot_consume_incremental_entries() {
    let path = cache_file("cfg_isolation");
    let opts = VerifyOptions::new().jobs(1);

    let inc_cfg = EngineConfig {
        incremental: true,
        ..EngineConfig::default()
    };
    let first = verifier(&path, inc_cfg).verify(&opts);
    let (_, first_misses) = totals(&first);
    assert!(first_misses > 0);

    let plain_cfg = EngineConfig {
        incremental: false,
        ..EngineConfig::default()
    };
    let second = verifier(&path, plain_cfg).verify(&opts);
    assert!(second.iter().all(|r| matches!(r.status, PotStatus::Proved)));
    let (second_hits, second_misses) = totals(&second);
    assert_eq!(
        second_hits, 0,
        "a non-incremental run must not hit entries written under the \
         incremental configuration"
    );
    assert!(second_misses > 0);

    // Sanity: re-running under the *same* non-incremental config does hit.
    let again_cfg = EngineConfig {
        incremental: false,
        ..EngineConfig::default()
    };
    let third = verifier(&path, again_cfg).verify(&opts);
    let (third_hits, third_misses) = totals(&third);
    assert_eq!(third_misses, 0);
    assert!(third_hits > 0, "same config replays fine");

    let _ = std::fs::remove_file(&path);
}

/// The two pointer encodings must not share cache entries either (the
/// `int` vs `bv` ablation changes the query language entirely).
#[test]
fn addr_modes_do_not_share_cache_entries() {
    let path = cache_file("addr_mode_isolation");

    let opts = VerifyOptions::new().jobs(1);
    let first = verifier(&path, EngineConfig::default()).verify(&opts);
    let (_, first_misses) = totals(&first);
    assert!(first_misses > 0);

    let bv = EngineConfig {
        addr_mode: tpot_engine::AddrMode::Bv,
        ..EngineConfig::default()
    };
    let second = verifier(&path, bv).verify(&opts);
    let (second_hits, _) = totals(&second);
    assert_eq!(second_hits, 0, "bv run must not replay int-mode entries");

    let _ = std::fs::remove_file(&path);
}
