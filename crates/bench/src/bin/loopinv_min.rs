//! Minimal loop-invariant + forall_elem debugging harness.

use tpot_engine::{EngineConfig, PotStatus, Verifier};

fn run(name: &str, src: &str, pot: &str) {
    let m = tpot_ir::lower(&tpot_cfront::compile(src).unwrap()).unwrap();
    let v = Verifier::with_config(m, EngineConfig::from_env());
    let t0 = std::time::Instant::now();
    let r = v.verify_pot(pot);
    let status = match &r.status {
        PotStatus::Proved => "PROVED".to_string(),
        PotStatus::Failed(vs) => format!("FAILED: {}", vs[0]),
        PotStatus::Error(e) => format!("ERROR: {e}"),
    };
    println!("[{name}] {pot}: {status} in {:?}", t0.elapsed());
}

fn main() {
    // Step 1: loop with invariant, concrete global array, assert one byte.
    run(
        "concrete-byte",
        r#"
char buf[8];
int zero_upto(char *p, unsigned long j, unsigned long bound) {
  if (j >= bound) return 1;
  return *p == 0;
}
int loopinv__z(unsigned long *ip) {
  return *ip < 8 && forall_elem(buf, &zero_upto, *ip);
}
void clear(void) {
  unsigned long i = 0;
  while (i < 8) {
    __tpot_inv(&loopinv__z, &i, &i, sizeof(unsigned long), buf, 8);
    buf[i] = 0;
    i = i + 1;
  }
}
void spec__clear_one(void) {
  clear();
  assert(buf[3] == 0);
}
"#,
        "spec__clear_one",
    );
    // Step 1.5: heap-named object, symbolic window (the pKVM shape).
    run(
        "heap-window",
        r#"
unsigned long base;
unsigned long cur;
int inv__b(void) {
  return names_obj((char *)base, char[16]) && cur >= base && cur <= base + 12;
}
int zero_upto(char *p, unsigned long j, unsigned long bound) {
  if (j >= bound) return 1;
  return *p == 0;
}
int range_zero(long i, long start, long stop) {
  if (i < start || i >= stop) return 1;
  return ((char *)base)[i] == 0;
}
int loopinv__z(unsigned long *ip, unsigned long *top) {
  return *ip < 4 && forall_elem((char *)(*top), &zero_upto, *ip);
}
void clear4(unsigned long to) {
  unsigned long i = 0;
  while (i < 4) {
    __tpot_inv(&loopinv__z, &i, &to, &i, sizeof(unsigned long), to, 4);
    *(char *)(to + i) = 0;
    i = i + 1;
  }
}
void spec__window(void) {
  unsigned long prev = cur;
  clear4(cur);
  assert(forall_elem((char *)base, &range_zero,
         (long)(prev - base), (long)(prev - base) + 4));
}
"#,
        "spec__window",
    );
    // Step 2: same but assert via forall_elem with a symbolic skolem.
    run(
        "forall-assert",
        r#"
char buf[8];
int zero_upto(char *p, unsigned long j, unsigned long bound) {
  if (j >= bound) return 1;
  return *p == 0;
}
int all_zero(long i) {
  if (i < 0 || i >= 8) return 1;
  return buf[i] == 0;
}
int loopinv__z(unsigned long *ip) {
  return *ip < 8 && forall_elem(buf, &zero_upto, *ip);
}
void clear(void) {
  unsigned long i = 0;
  while (i < 8) {
    __tpot_inv(&loopinv__z, &i, &i, sizeof(unsigned long), buf, 8);
    buf[i] = 0;
    i = i + 1;
  }
}
void spec__clear_all(void) {
  clear();
  assert(forall_elem(buf, &all_zero));
}
"#,
        "spec__clear_all",
    );
}
// Appended: heap-named object with a symbolic window, mirroring pKVM.
