//! The workloads and the hand-written expected-verdict table.
//!
//! Every POT of an unmodified target is expected PROVED, because the paper
//! verifies every POT of all six targets. The one deliberately broken
//! module (the KVM page table with its prot mask dropped) is expected
//! FAILED. Where the program at the time the table was written returns a
//! different verdict, the entry records that verdict as `known` and the
//! POT is kept out of every workload: a workload runs only operations that
//! succeed, so that `failed` stays 0 and any deviation shows. The README
//! lists each such POT with the command that reproduces it.

use tpot_engine::AddrMode;

/// A POT verdict as the benchmark compares it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Proved,
    Failed,
    /// The engine could not finish; never expected.
    Error,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Proved => "PROVED",
            Verdict::Failed => "FAILED",
            Verdict::Error => "ERROR",
        }
    }
}

/// A translation unit the benchmark compiles.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Module {
    /// pKVM emem allocator, as bundled.
    Pkvm,
    /// Komodo* at tier-1's reduced bounds (2 pages of 2 words).
    KomodoStarReduced,
    /// KVM page table at `PT_ENTRIES 2`.
    PgtableReduced,
    /// [`Module::PgtableReduced`] with tier-1's seeded prot-mask bug.
    PgtableReducedProtBug,
}

impl Module {
    pub const ALL: [Module; 4] = [
        Module::Pkvm,
        Module::KomodoStarReduced,
        Module::PgtableReduced,
        Module::PgtableReducedProtBug,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Module::Pkvm => "pkvm",
            Module::KomodoStarReduced => "komodo_star_reduced",
            Module::PgtableReduced => "kvm_pgtable_reduced",
            Module::PgtableReducedProtBug => "kvm_pgtable_reduced_prot_bug",
        }
    }

    /// True for the modules the paper verifies unchanged (every POT of
    /// them is expected PROVED).
    pub fn unmodified(self) -> bool {
        self != Module::PgtableReducedProtBug
    }

    /// The module's C translation unit. Panics if a rewrite no longer
    /// applies, so a changed target can never silently become a
    /// different workload.
    pub fn source(self) -> String {
        let target = |name: &str| {
            tpot_targets::target(name)
                .unwrap_or_else(|| panic!("bundled target {name:?} is missing"))
                .full_source()
        };
        match self {
            Module::Pkvm => target("pkvm"),
            Module::KomodoStarReduced => rewrite(
                target("Komodo*"),
                &[
                    ("#define KOM_PAGE_COUNT 8", "#define KOM_PAGE_COUNT 2"),
                    ("#define KOM_PAGE_WORDS 8", "#define KOM_PAGE_WORDS 2"),
                ],
            ),
            Module::PgtableReduced => rewrite(
                target("KVM page table"),
                &[("#define PT_ENTRIES 8", "#define PT_ENTRIES 2")],
            ),
            Module::PgtableReducedProtBug => rewrite(
                Module::PgtableReduced.source(),
                &[("pte = pte & ~KVM_PTE_PROT_MASK;", "pte = pte;")],
            ),
        }
    }
}

fn rewrite(mut src: String, edits: &[(&str, &str)]) -> String {
    for (from, to) in edits {
        assert!(
            src.contains(from),
            "target source no longer contains {from:?}"
        );
        src = src.replace(from, to);
    }
    src
}

/// One row of the expected-verdict table.
#[derive(Debug)]
pub struct Expectation {
    pub module: Module,
    pub pot: &'static str,
    pub verdict: Verdict,
    /// The verdict the program is known to return instead; a POT with one
    /// is in no workload (see the module documentation).
    pub known: Option<Verdict>,
}

const fn proved(module: Module, pot: &'static str) -> Expectation {
    Expectation {
        module,
        pot,
        verdict: Verdict::Proved,
        known: None,
    }
}

/// Every POT of every unmodified module the workloads compile, plus the
/// seeded-bug POT.
pub const EXPECTED: &[Expectation] = &[
    proved(Module::Pkvm, "spec__alloc_page"),
    // Not in any workload (230 s; see README "Left out").
    proved(Module::Pkvm, "spec__alloc_contig"),
    proved(Module::Pkvm, "spec__nr_pages"),
    proved(Module::Pkvm, "spec__init"),
    proved(Module::KomodoStarReduced, "spec__va_pa_roundtrip"),
    proved(Module::KomodoStarReduced, "spec__pa_walk_rejects_insecure"),
    proved(Module::KomodoStarReduced, "spec__word_rw"),
    proved(Module::KomodoStarReduced, "spec__word_rw_frame"),
    // Returns FAILED (out-of-bounds access) at reduced and full bounds; not
    // in any workload (see README "Known deviations").
    Expectation {
        module: Module::KomodoStarReduced,
        pot: "spec__init_addrspace_ok",
        verdict: Verdict::Proved,
        known: Some(Verdict::Failed),
    },
    proved(Module::KomodoStarReduced, "spec__init_addrspace_inuse"),
    proved(Module::KomodoStarReduced, "spec__init_dispatcher"),
    proved(Module::KomodoStarReduced, "spec__init_l2table"),
    proved(Module::KomodoStarReduced, "spec__map_secure"),
    proved(Module::KomodoStarReduced, "spec__remove_stopped"),
    proved(Module::KomodoStarReduced, "spec__remove_running_fails"),
    proved(Module::KomodoStarReduced, "spec__finalise"),
    proved(Module::KomodoStarReduced, "spec__finalise_twice_fails"),
    proved(Module::KomodoStarReduced, "spec__stop"),
    proved(Module::KomodoStarReduced, "spec__enter"),
    proved(Module::KomodoStarReduced, "spec__enter_not_final_fails"),
    proved(Module::KomodoStarReduced, "spec__resume_exit"),
    proved(Module::PgtableReduced, "spec__set_pte"),
    proved(Module::PgtableReduced, "spec__set_invalid"),
    proved(Module::PgtableReduced, "spec__set_prot"),
    Expectation {
        module: Module::PgtableReducedProtBug,
        pot: "spec__set_prot",
        verdict: Verdict::Failed,
        known: None,
    },
];

/// The table row for `pot` of `module`.
pub fn expected(module: Module, pot: &str) -> Option<&'static Expectation> {
    EXPECTED.iter().find(|e| e.module == module && e.pot == pot)
}

/// True when `observed` differs from the expected verdict (a failed
/// operation). A POT without a table entry is always wrong.
pub fn judge(module: Module, pot: &str, observed: Verdict) -> bool {
    expected(module, pot).is_none_or(|e| observed != e.verdict)
}

/// One timed `Verifier::verify` call of a library workload.
#[derive(Debug)]
pub struct Part {
    pub module: Module,
    pub addr_mode: AddrMode,
    pub jobs: usize,
    pub pots: &'static [&'static str],
}

/// The in-process `tpotd` phase of a workload: a cold priming request,
/// then a closed loop of unchanged and freshly edited resubmissions.
#[derive(Debug)]
pub struct Service {
    pub module: Module,
    /// `"int"` or `"bv"` (the wire form of the encoding).
    pub addr_mode: &'static str,
    pub pots: &'static [&'static str],
    /// Functions an edit may add a dead local to; the first is edited in
    /// three edits of four (see `edits`).
    pub edit_functions: &'static [&'static str],
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Library calls timed as `verify_s`; empty for the service workload,
    /// whose `verify_s` is the cold priming request.
    pub parts: &'static [Part],
    pub service: Service,
    /// Seconds of the service loop, or `None` to use the run's
    /// `--seconds` (the workload is the service loop).
    pub service_seconds: Option<f64>,
}

pub const KOMODO_STAR_POTS: &[&str] = &[
    "spec__va_pa_roundtrip",
    "spec__pa_walk_rejects_insecure",
    "spec__word_rw",
    "spec__init_addrspace_inuse",
    "spec__init_dispatcher",
    "spec__init_l2table",
    "spec__map_secure",
    "spec__finalise",
    "spec__finalise_twice_fails",
    "spec__stop",
];

pub const PGTABLE_POTS: &[&str] = &["spec__set_pte", "spec__set_invalid", "spec__set_prot"];

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "pkvm_int",
        parts: &[Part {
            module: Module::Pkvm,
            addr_mode: AddrMode::Int,
            jobs: 1,
            pots: &["spec__alloc_page", "spec__nr_pages", "spec__init"],
        }],
        service: Service {
            module: Module::Pkvm,
            addr_mode: "int",
            pots: &["spec__nr_pages", "spec__init"],
            edit_functions: &["hyp_early_alloc_init", "hyp_early_alloc_nr_pages"],
        },
        service_seconds: Some(8.0),
    },
    Workload {
        name: "kernels_bv",
        parts: &[
            Part {
                module: Module::KomodoStarReduced,
                addr_mode: AddrMode::Bv,
                jobs: 2,
                pots: KOMODO_STAR_POTS,
            },
            Part {
                module: Module::PgtableReduced,
                addr_mode: AddrMode::Bv,
                jobs: 2,
                pots: PGTABLE_POTS,
            },
            Part {
                module: Module::PgtableReducedProtBug,
                addr_mode: AddrMode::Bv,
                jobs: 2,
                pots: &["spec__set_prot"],
            },
        ],
        service: Service {
            module: Module::PgtableReduced,
            addr_mode: "bv",
            pots: PGTABLE_POTS,
            edit_functions: &["kvm_set_pte", "kvm_set_invalid_pte"],
        },
        service_seconds: Some(8.0),
    },
    Workload {
        name: "tpotd_edit",
        parts: &[],
        service: Service {
            module: Module::KomodoStarReduced,
            addr_mode: "bv",
            pots: &[
                "spec__va_pa_roundtrip",
                "spec__init_addrspace_inuse",
                "spec__init_dispatcher",
                "spec__init_l2table",
                "spec__finalise",
                "spec__finalise_twice_fails",
                "spec__stop",
            ],
            edit_functions: &["kom_smc_init_dispatcher", "kom_smc_init_l2table"],
        },
        service_seconds: None,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
