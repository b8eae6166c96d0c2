//! The expected-verdict table against the modules it describes.

use std::collections::BTreeSet;

use perfbench::table::{expected, Module, Verdict, EXPECTED, WORKLOADS};

fn pots(m: Module) -> BTreeSet<String> {
    let checked = tpot_cfront::compile(&m.source()).expect("compiles");
    tpot_ir::lower(&checked)
        .expect("lowers")
        .pot_names()
        .into_iter()
        .collect()
}

#[test]
fn every_table_pot_exists_in_its_module() {
    for m in Module::ALL {
        let defined = pots(m);
        for e in EXPECTED.iter().filter(|e| e.module == m) {
            assert!(defined.contains(e.pot), "{}: no POT {}", m.name(), e.pot);
        }
    }
}

#[test]
fn every_pot_of_an_unmodified_module_is_expected_proved() {
    for m in Module::ALL.into_iter().filter(|m| m.unmodified()) {
        for pot in pots(m) {
            let e = expected(m, &pot).unwrap_or_else(|| panic!("{}: {pot} has no entry", m.name()));
            assert_eq!(e.verdict, Verdict::Proved, "{}: {pot}", m.name());
        }
    }
}

#[test]
fn every_pot_a_workload_runs_has_an_entry() {
    for w in WORKLOADS {
        let parts = w.parts.iter().map(|p| (p.module, p.pots));
        for (m, list) in parts.chain(std::iter::once((w.service.module, w.service.pots))) {
            for pot in list {
                assert!(expected(m, pot).is_some(), "{}: {} {pot}", w.name, m.name());
            }
        }
    }
}

#[test]
fn no_workload_runs_a_pot_with_a_known_deviation() {
    for w in WORKLOADS {
        let parts = w.parts.iter().map(|p| (p.module, p.pots));
        for (m, list) in parts.chain(std::iter::once((w.service.module, w.service.pots))) {
            for pot in list {
                let e = expected(m, pot).expect("entry");
                assert!(e.known.is_none(), "{}: {} {pot}", w.name, m.name());
            }
        }
    }
}

#[test]
fn the_seeded_bug_is_expected_failed() {
    let e = expected(Module::PgtableReducedProtBug, "spec__set_prot").expect("entry");
    assert_eq!(e.verdict, Verdict::Failed);
}

#[test]
fn workloads_select_the_documented_pot_sets() {
    let kernels = WORKLOADS.iter().find(|w| w.name == "kernels_bv").unwrap();
    let verdicts: usize = kernels.parts.iter().map(|p| p.pots.len()).sum();
    assert_eq!(verdicts, 14, "10 Komodo* + 3 page table + 1 seeded bug");
    let pkvm = WORKLOADS.iter().find(|w| w.name == "pkvm_int").unwrap();
    assert_eq!(pkvm.parts[0].pots.len(), 3);
    assert!(!pkvm.parts[0].pots.contains(&"spec__alloc_contig"));
}
