//! The parallel multi-POT driver must agree with the sequential one: same
//! POTs, same order, same statuses — only wall-clock and cache accounting
//! may differ.

use tpot_engine::{EngineConfig, PotStatus, Verifier, VerifyOptions};
use tpot_ir::lower;

/// Fig. 1 extended with extra POTs (one of them failing) so the parallel
/// driver has real work to distribute and a non-Proved status to preserve.
const SRC: &str = r#"
int a, b;
void increment(int *p) { *p = *p + 1; }
void decrement(int *p) { *p = *p - 1; }
void init(void) { a = 0; b = 0; }
void transfer(void) {
  increment(&a);
  decrement(&b);
}
int get_sum(void) { return a + b; }

int inv__sum_zero(void) { return a + b == 0; }

void spec__transfer(void) {
  int old_a = a, old_b = b;
  transfer();
  assert(a == old_a + 1);
  assert(b == old_b - 1);
}
void spec__get_sum(void) {
  int res = get_sum();
  assert(res == 0);
}
void spec__double_transfer(void) {
  int old_a = a;
  transfer();
  transfer();
  assert(a == old_a + 2);
}
void spec__wrong(void) {
  transfer();
  assert(a == 12345);
}
"#;

fn module() -> tpot_ir::Module {
    lower(&tpot_cfront::compile(SRC).unwrap()).unwrap()
}

fn status_key(s: &PotStatus) -> String {
    match s {
        PotStatus::Proved => "proved".into(),
        PotStatus::Failed(vs) => {
            let mut kinds: Vec<String> = vs.iter().map(|v| v.kind.to_string()).collect();
            kinds.sort();
            format!("failed:{}", kinds.join(","))
        }
        PotStatus::Error(e) => format!("error:{e}"),
    }
}

#[test]
fn parallel_matches_sequential() {
    let m = module();
    let v = Verifier::new(m);
    let seq = v.verify(&VerifyOptions::new().jobs(1));
    let par = v.verify(&VerifyOptions::new().jobs(4));
    assert_eq!(seq.len(), par.len());
    for (s, p) in seq.iter().zip(par.iter()) {
        assert_eq!(s.pot, p.pot, "parallel driver must keep module order");
        assert_eq!(
            status_key(&s.status),
            status_key(&p.status),
            "POT {} status differs between sequential and parallel runs",
            s.pot
        );
    }
    // Some POT must actually have failed, or the equivalence check proves
    // less than it claims.
    assert!(par.iter().any(|r| matches!(r.status, PotStatus::Failed(_))));
    assert!(par.iter().any(|r| r.status.is_proved()));
}

#[test]
fn verify_options_subset_and_addr_modes() {
    let only_get_sum = VerifyOptions::new().pots(["spec__get_sum"]).jobs(1);
    let sub = Verifier::new(module()).verify(&only_get_sum);
    assert_eq!(sub.len(), 1);
    assert_eq!(sub[0].pot, "spec__get_sum");
    assert!(sub[0].status.is_proved());
    // The bitvector ablation must agree.
    let bv = EngineConfig {
        addr_mode: tpot_engine::AddrMode::Bv,
        ..EngineConfig::default()
    };
    let bv = Verifier::with_config(module(), bv).verify(&only_get_sum);
    assert!(bv[0].status.is_proved());
}

#[test]
fn parallel_shares_one_persistent_cache() {
    let dir = std::env::temp_dir().join(format!("tpot-par-cache-{}", std::process::id()));
    let _ = std::fs::remove_file(&dir);
    let m = module();
    let mut v = Verifier::new(m);
    v.config.cache_path = Some(dir.clone());
    let first = v.verify(&VerifyOptions::new().jobs(2));
    assert!(first.iter().any(|r| r.status.is_proved()));
    // The shared cache must have been flushed once at the end of the run.
    let cache = tpot_portfolio::ProofCache::open(&dir).unwrap();
    assert!(
        !cache.is_empty(),
        "parallel run must persist query outcomes"
    );
    let entries = cache.len();
    // A re-run is answered from the persistent cache: same statuses, and the
    // cache does not lose entries.
    let second = v.verify(&VerifyOptions::new().jobs(2));
    for (a, b) in first.iter().zip(second.iter()) {
        assert_eq!(a.status.is_proved(), b.status.is_proved());
    }
    let cache = tpot_portfolio::ProofCache::open(&dir).unwrap();
    assert!(cache.len() >= entries);
    let _ = std::fs::remove_file(&dir);
}
