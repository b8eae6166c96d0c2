//! The CDCL solver proper.

use crate::config::{luby, SatConfig, LBD_CORE, LBD_MID};
use crate::proof::ProofLog;

/// A propositional variable, numbered from 0.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Var(pub u32);

/// A literal: a variable with a sign.
///
/// Encoded as `var << 1 | negated`, the classic Minisat layout, so literals
/// index watch lists directly.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Lit(pub u32);

impl Lit {
    /// Positive literal of `v`.
    pub fn pos(v: Var) -> Lit {
        Lit(v.0 << 1)
    }

    /// Negative literal of `v`.
    pub fn neg(v: Var) -> Lit {
        Lit(v.0 << 1 | 1)
    }

    /// Literal of `v` with the given sign (`true` = positive).
    pub fn new(v: Var, sign: bool) -> Lit {
        if sign {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// True if the literal is positive.
    pub fn is_pos(self) -> bool {
        self.0 & 1 == 0
    }

    /// The complementary literal.
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Result of a `solve` call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SatResult {
    /// A satisfying assignment was found; read it with
    /// [`Solver::model_value`].
    Sat,
    /// The clause set (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The configured conflict budget was exhausted.
    Unknown,
}

/// A theory's answer when [`Solver::solve_with`] consults it: at every
/// propagation fixpoint, and finally on a full propositional assignment
/// ([`Solver::assignment_is_full`] tells which).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FinalCheck {
    /// No theory conflict so far: search goes on, and a full assignment
    /// answers Sat.
    Consistent,
    /// The assignment is theory-inconsistent. The payload is a lemma: a
    /// theory-valid clause whose literals are all false under the current
    /// assignment. It is attached permanently and search resumes from its
    /// highest decision level.
    Conflict(Vec<Lit>),
    /// The theory cannot decide (a resource limit): the solve answers
    /// Unknown.
    GiveUp,
}

/// What the search loop does after a theory answer.
enum TheoryStep {
    /// Consistent: decide next, or answer Sat on a full assignment.
    Proceed,
    /// A unit lemma was enqueued at level 0: propagate it.
    Repropagate,
    /// Analyse this (lemma) clause as a conflict.
    Conflict(u32),
    /// The solve is over.
    Done(SatResult),
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Assign {
    Undef,
    True,
    False,
}

#[derive(Clone, Debug)]
pub(crate) struct Clause {
    pub(crate) lits: Vec<Lit>,
    pub(crate) learnt: bool,
    pub(crate) activity: f64,
    /// Literal-block distance (glue): number of distinct decision levels in
    /// the clause when learned, refreshed (keeping the minimum) whenever the
    /// clause participates in conflict analysis. 0 for problem clauses.
    pub(crate) lbd: u32,
    /// Participated in conflict analysis since the last database reduction
    /// (mid-tier clauses are kept while this holds, demoted when idle).
    pub(crate) used: bool,
}

#[derive(Clone, Copy)]
pub(crate) struct Watcher {
    pub(crate) clause: u32,
    pub(crate) blocker: Lit,
}

/// The CDCL SAT solver.
///
/// Typical use:
/// ```
/// use tpot_sat::{Solver, Lit, SatResult};
/// let mut s = Solver::default();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
/// s.add_clause(&[Lit::neg(a)]);
/// assert_eq!(s.solve(&[]), SatResult::Sat);
/// assert!(s.model_value(b));
/// ```
///
/// `Clone` produces an independent solver with the same clause database,
/// trail, and saved phases — the substrate for migrating an incremental
/// solve session to another worker (path-level work stealing). The only
/// shared handle is `config.cancel`, which is cooperative by design.
#[derive(Clone)]
pub struct Solver {
    pub(crate) config: SatConfig,
    pub(crate) clauses: Vec<Clause>,
    pub(crate) watches: Vec<Vec<Watcher>>, // indexed by literal
    pub(crate) assigns: Vec<Assign>,       // indexed by var
    pub(crate) phase: Vec<bool>,           // saved phase per var
    pub(crate) level: Vec<u32>,            // decision level per var
    pub(crate) reason: Vec<Option<u32>>,   // reason clause per var
    pub(crate) trail: Vec<Lit>,
    pub(crate) trail_lim: Vec<usize>,
    pub(crate) qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    clause_inc: f64,
    order_heap: Vec<Var>, // lazy binary heap keyed by activity
    heap_index: Vec<i32>,
    pub(crate) ok: bool,
    rng: u64,
    conflicts: u64,
    /// Interface variables that inprocessing must never eliminate: the
    /// bit-blaster's term/atom bits, activation literals, and every
    /// variable ever passed as an assumption.
    pub(crate) frozen: Vec<bool>,
    /// Variables removed by bounded variable elimination. They appear in no
    /// clause and are never branched on; their model values are rebuilt
    /// from `elim_stack` after every Sat answer.
    pub(crate) eliminated: Vec<bool>,
    /// Reconstruction stack: for each eliminated variable, the original
    /// (non-learnt) clauses it occurred in, pushed in elimination order.
    pub(crate) elim_stack: Vec<(Var, Vec<Vec<Lit>>)>,
    /// Bumped whenever an inprocessing pass eliminates variables; callers
    /// holding literal caches (the bit-blaster) compare epochs to know when
    /// to drop entries that mention eliminated variables.
    pub(crate) elim_epoch: u64,
    /// Maintained count of learnt clauses in `clauses` (the reduction
    /// trigger — kept exact so the solve loop never rescans the database).
    pub(crate) num_learnt: usize,
    /// External clause additions since the last inprocessing pass.
    pub(crate) adds_since_inprocess: usize,
    /// Rotation pointer so successive vivification passes resume where the
    /// previous one stopped instead of rescanning the same prefix.
    pub(crate) viv_head: usize,
    /// DRAT proof log, present when `SatConfig::proof` is set.
    pub(crate) proof: Option<Box<ProofLog>>,
    /// Scratch stamp per decision level for O(len) LBD computation.
    lbd_seen: Vec<u64>,
    lbd_stamp: u64,
    /// Statistics: total propagations.
    pub num_propagations: u64,
    /// Statistics: total decisions.
    pub num_decisions: u64,
    /// Statistics: total conflicts.
    pub num_conflicts: u64,
    /// Statistics: total restarts (cumulative over `solve` calls).
    pub num_restarts: u64,
    /// Statistics: total clauses learned from conflicts (including
    /// unit-length learnt clauses, which are enqueued rather than stored).
    pub num_learned: u64,
    /// Statistics: variables removed by bounded variable elimination.
    pub num_eliminated_vars: u64,
    /// Statistics: clauses removed by (self-)subsumption.
    pub num_subsumed: u64,
    /// Statistics: literals removed by vivification and strengthening.
    pub num_vivified_lits: u64,
    /// Statistics: inprocessing passes run.
    pub num_inprocess_passes: u64,
    /// Statistics: completed `solve` calls.
    pub num_solves: u64,
    /// Blame tracking (`SatConfig::blame`): variables whose
    /// conflict-participation is counted, and the per-variable hit counts.
    /// Indexed by variable; both stay empty unless a caller tracks a var.
    tracked: Vec<bool>,
    tracked_hits: Vec<u64>,
    /// Assumption core of the most recent Unsat answer (`None` after Sat or
    /// Unknown): a subset of that solve's assumptions that already forces
    /// the conflict. Empty when the clause database is unsatisfiable alone.
    last_core: Option<Vec<Lit>>,
    /// Length of the trail prefix left untouched by backtracking since the
    /// theory was last consulted in the current solve (see
    /// [`Solver::stable_trail_len`]).
    stable_trail: usize,
    /// See [`Solver::assignment_is_full`].
    full_assignment: bool,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new(SatConfig::default())
    }
}

impl Solver {
    /// Creates a solver with the given configuration.
    pub fn new(config: SatConfig) -> Self {
        let rng = config.seed | 1;
        let proof = if config.proof {
            Some(Box::new(ProofLog::new()))
        } else {
            None
        };
        Solver {
            config,
            clauses: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            clause_inc: 1.0,
            order_heap: Vec::new(),
            heap_index: Vec::new(),
            ok: true,
            rng,
            conflicts: 0,
            frozen: Vec::new(),
            eliminated: Vec::new(),
            elim_stack: Vec::new(),
            elim_epoch: 0,
            num_learnt: 0,
            adds_since_inprocess: 0,
            viv_head: 0,
            proof,
            // One slot per possible decision level: num_vars + 1 (new_var
            // pushes one more per variable).
            lbd_seen: vec![0],
            lbd_stamp: 0,
            num_propagations: 0,
            num_decisions: 0,
            num_conflicts: 0,
            num_restarts: 0,
            num_learned: 0,
            num_eliminated_vars: 0,
            num_subsumed: 0,
            num_vivified_lits: 0,
            num_inprocess_passes: 0,
            num_solves: 0,
            tracked: Vec::new(),
            tracked_hits: Vec::new(),
            last_core: None,
            stable_trail: 0,
            full_assignment: false,
        }
    }

    /// Snapshot of this instance's cumulative counters.
    pub fn stats(&self) -> crate::stats::SolveStats {
        crate::stats::SolveStats {
            solves: self.num_solves,
            conflicts: self.num_conflicts,
            decisions: self.num_decisions,
            propagations: self.num_propagations,
            restarts: self.num_restarts,
            learned: self.num_learned,
            eliminated_vars: self.num_eliminated_vars,
            subsumed: self.num_subsumed,
            vivified_lits: self.num_vivified_lits,
            proof_lines: self.proof_lines(),
        }
    }

    /// Installs (or clears) the attribution sink future solves report to.
    /// Used by the portfolio layer when a cloned session migrates to a new
    /// execution shard.
    pub fn set_sink(&mut self, sink: Option<std::sync::Arc<crate::stats::SatSink>>) {
        self.config.sink = sink;
    }

    /// Starts counting conflict participation for `v` (blame tracking):
    /// every learned clause mentioning `v` bumps its hit count. The session
    /// layer tracks its activation literals' variables.
    pub fn track_var(&mut self, v: Var) {
        let i = v.0 as usize;
        if self.tracked.len() <= i {
            self.tracked.resize(i + 1, false);
            self.tracked_hits.resize(i + 1, 0);
        }
        self.tracked[i] = true;
    }

    /// Learned clauses that mentioned tracked variable `v` so far.
    pub fn tracked_hits(&self, v: Var) -> u64 {
        self.tracked_hits.get(v.0 as usize).copied().unwrap_or(0)
    }

    /// The assumption core of the most recent Unsat answer: a subset of
    /// that `solve` call's assumptions that already forces the conflict
    /// (unit propagation from the clause database plus the core reaches a
    /// conflict). Empty means the database is unsatisfiable on its own.
    /// `None` after Sat or Unknown.
    pub fn assumption_core(&self) -> Option<&[Lit]> {
        self.last_core.as_deref()
    }

    /// Conflict-participation accounting for one learned clause. Free when
    /// nothing is tracked (blame off).
    fn note_participation(&mut self, learnt: &[Lit]) {
        if self.tracked.is_empty() {
            return;
        }
        for l in learnt {
            let i = l.var().0 as usize;
            if self.tracked.get(i).copied().unwrap_or(false) {
                self.tracked_hits[i] += 1;
            }
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(Assign::Undef);
        self.phase.push(self.config.default_phase);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap_index.push(-1);
        self.frozen.push(false);
        self.eliminated.push(false);
        self.lbd_seen.push(0);
        self.heap_insert(v);
        v
    }

    /// Marks `v` as an interface variable that inprocessing must keep:
    /// variable elimination skips it forever. Callers freeze every variable
    /// whose meaning outlives the clause database — the bit-blaster's term
    /// bits and atom literals, activation literals, and assumptions.
    pub fn freeze(&mut self, v: Var) {
        self.frozen[v.0 as usize] = true;
    }

    /// True if `v` is frozen against elimination.
    pub fn is_frozen(&self, v: Var) -> bool {
        self.frozen[v.0 as usize]
    }

    /// True if `v` was removed by variable elimination.
    pub fn is_eliminated(&self, v: Var) -> bool {
        self.eliminated[v.0 as usize]
    }

    /// Elimination epoch: bumped once per inprocessing pass that eliminates
    /// at least one variable. Literal-cache holders compare this against a
    /// remembered value to decide when to purge entries.
    pub fn elim_epoch(&self) -> u64 {
        self.elim_epoch
    }

    pub(crate) fn value_lit(&self, l: Lit) -> Assign {
        match self.assigns[l.var().0 as usize] {
            Assign::Undef => Assign::Undef,
            Assign::True => {
                if l.is_pos() {
                    Assign::True
                } else {
                    Assign::False
                }
            }
            Assign::False => {
                if l.is_pos() {
                    Assign::False
                } else {
                    Assign::True
                }
            }
        }
    }

    /// Adds a clause. Returns `false` if the solver became trivially
    /// unsatisfiable.
    ///
    /// May be called between `solve` calls (e.g. for scoped assertions);
    /// the solver backtracks to decision level 0 first, so read the model
    /// *before* adding clauses. Theory lemmas found during search enter
    /// through [`Solver::solve_with`] instead, without leaving the search.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.backtrack(0);
        if !self.ok {
            return false;
        }
        debug_assert!(
            lits.iter().all(|&l| !self.eliminated[l.var().0 as usize]),
            "clause mentions an eliminated variable — caller must re-blast \
             after an elimination epoch change"
        );
        if let Some(p) = self.proof.as_mut() {
            p.log_input(lits);
        }
        self.adds_since_inprocess += 1;
        let mut ls: Vec<Lit> = lits.to_vec();
        ls.sort_unstable();
        ls.dedup();
        // Drop clauses satisfied at level 0 and false literals.
        let mut out: Vec<Lit> = Vec::with_capacity(ls.len());
        for (i, &l) in ls.iter().enumerate() {
            if i + 1 < ls.len() && ls[i + 1] == l.negate() {
                return true; // tautology
            }
            match self.value_lit(l) {
                Assign::True => return true,
                Assign::False => {}
                Assign::Undef => out.push(l),
            }
        }
        match out.len() {
            0 => {
                // Every literal is root-false, so the input clause itself
                // propagates to a conflict: the empty clause is RUP.
                self.log_add(&[]);
                self.ok = false;
                false
            }
            1 => {
                // Strengthened to a unit by root-false literals — RUP with
                // the input clause present. Logged so the unit is its own
                // justification if reason clauses are later deleted.
                self.log_add(&[out[0]]);
                self.unchecked_enqueue(out[0], None);
                if self.propagate().is_some() {
                    self.log_add(&[]);
                    self.ok = false;
                    false
                } else {
                    true
                }
            }
            _ => {
                self.attach_clause(out, false, 0);
                true
            }
        }
    }

    pub(crate) fn attach_clause(&mut self, lits: Vec<Lit>, learnt: bool, lbd: u32) -> u32 {
        let idx = self.clauses.len() as u32;
        let w0 = lits[0];
        let w1 = lits[1];
        self.watches[w0.negate().index()].push(Watcher {
            clause: idx,
            blocker: w1,
        });
        self.watches[w1.negate().index()].push(Watcher {
            clause: idx,
            blocker: w0,
        });
        self.clauses.push(Clause {
            lits,
            learnt,
            activity: 0.0,
            lbd,
            used: false,
        });
        if learnt {
            self.num_learnt += 1;
        }
        idx
    }

    /// Appends an `Add` line to the proof log, if logging is on.
    pub(crate) fn log_add(&mut self, lits: &[Lit]) {
        if let Some(p) = self.proof.as_mut() {
            p.log_add(lits);
        }
    }

    /// Appends a `Delete` line to the proof log, if logging is on.
    pub(crate) fn log_delete(&mut self, lits: &[Lit]) {
        if let Some(p) = self.proof.as_mut() {
            p.log_delete(lits);
        }
    }

    pub(crate) fn unchecked_enqueue(&mut self, l: Lit, reason: Option<u32>) {
        let v = l.var().0 as usize;
        debug_assert_eq!(self.assigns[v], Assign::Undef);
        self.assigns[v] = if l.is_pos() {
            Assign::True
        } else {
            Assign::False
        };
        self.phase[v] = l.is_pos();
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = reason;
        self.trail.push(l);
    }

    pub(crate) fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.num_propagations += 1;
            let mut i = 0;
            let mut j = 0;
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let mut conflict: Option<u32> = None;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.value_lit(w.blocker) == Assign::True {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let ci = w.clause as usize;
                // Ensure the false literal is at position 1.
                let false_lit = p.negate();
                if self.clauses[ci].lits[0] == false_lit {
                    self.clauses[ci].lits.swap(0, 1);
                }
                debug_assert_eq!(self.clauses[ci].lits[1], false_lit);
                let first = self.clauses[ci].lits[0];
                if first != w.blocker && self.value_lit(first) == Assign::True {
                    ws[j] = Watcher {
                        clause: w.clause,
                        blocker: first,
                    };
                    j += 1;
                    continue;
                }
                // Look for a new watch.
                for k in 2..self.clauses[ci].lits.len() {
                    let lk = self.clauses[ci].lits[k];
                    if self.value_lit(lk) != Assign::False {
                        self.clauses[ci].lits.swap(1, k);
                        self.watches[lk.negate().index()].push(Watcher {
                            clause: w.clause,
                            blocker: first,
                        });
                        continue 'watchers;
                    }
                }
                // Unit or conflicting.
                ws[j] = Watcher {
                    clause: w.clause,
                    blocker: first,
                };
                j += 1;
                if self.value_lit(first) == Assign::False {
                    // Conflict: copy remaining watchers back.
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                    conflict = Some(w.clause);
                } else {
                    self.unchecked_enqueue(first, Some(w.clause));
                }
            }
            ws.truncate(j);
            self.watches[p.index()] = ws;
            if let Some(c) = conflict {
                self.qhead = self.trail.len();
                return Some(c);
            }
        }
        None
    }

    // ------------------------------------------------------------ heap

    fn heap_less(&self, a: Var, b: Var) -> bool {
        self.activity[a.0 as usize] > self.activity[b.0 as usize]
    }

    fn heap_insert(&mut self, v: Var) {
        if self.heap_index[v.0 as usize] >= 0 {
            return;
        }
        self.order_heap.push(v);
        self.heap_index[v.0 as usize] = (self.order_heap.len() - 1) as i32;
        self.heap_up(self.order_heap.len() - 1);
    }

    fn heap_up(&mut self, mut i: usize) {
        while i > 0 {
            let p = (i - 1) / 2;
            if self.heap_less(self.order_heap[i], self.order_heap[p]) {
                self.heap_swap(i, p);
                i = p;
            } else {
                break;
            }
        }
    }

    fn heap_down(&mut self, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.order_heap.len()
                && self.heap_less(self.order_heap[l], self.order_heap[best])
            {
                best = l;
            }
            if r < self.order_heap.len()
                && self.heap_less(self.order_heap[r], self.order_heap[best])
            {
                best = r;
            }
            if best == i {
                break;
            }
            self.heap_swap(i, best);
            i = best;
        }
    }

    fn heap_swap(&mut self, i: usize, j: usize) {
        self.order_heap.swap(i, j);
        self.heap_index[self.order_heap[i].0 as usize] = i as i32;
        self.heap_index[self.order_heap[j].0 as usize] = j as i32;
    }

    fn heap_pop(&mut self) -> Option<Var> {
        if self.order_heap.is_empty() {
            return None;
        }
        let top = self.order_heap[0];
        let last = self.order_heap.pop().unwrap();
        self.heap_index[top.0 as usize] = -1;
        if !self.order_heap.is_empty() {
            self.order_heap[0] = last;
            self.heap_index[last.0 as usize] = 0;
            self.heap_down(0);
        }
        Some(top)
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.0 as usize] += self.var_inc;
        if self.activity[v.0 as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        let hi = self.heap_index[v.0 as usize];
        if hi >= 0 {
            self.heap_up(hi as usize);
        }
    }

    // ------------------------------------------------------------ analysis

    /// Computes the literal-block distance of a clause: the number of
    /// distinct decision levels among its (assigned) literals. Uses a
    /// per-level stamp so each call is O(len) with no allocation.
    pub(crate) fn compute_lbd(&mut self, lits: &[Lit]) -> u32 {
        self.lbd_stamp += 1;
        let stamp = self.lbd_stamp;
        let mut lbd = 0u32;
        for &l in lits {
            let lev = self.level[l.var().0 as usize] as usize;
            if self.lbd_seen[lev] != stamp {
                self.lbd_seen[lev] = stamp;
                lbd += 1;
            }
        }
        lbd
    }

    fn analyze(&mut self, confl: u32) -> (Vec<Lit>, u32, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // placeholder for asserting lit
        let mut seen = vec![false; self.num_vars()];
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut confl = confl as usize;
        let mut index = self.trail.len();
        let cur_level = self.trail_lim.len() as u32;

        loop {
            self.bump_clause(confl);
            let start = usize::from(p.is_some());
            for k in start..self.clauses[confl].lits.len() {
                let q = self.clauses[confl].lits[k];
                let v = q.var().0 as usize;
                if !seen[v] && self.level[v] > 0 {
                    seen[v] = true;
                    self.bump_var(q.var());
                    if self.level[v] >= cur_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find next literal to expand.
            loop {
                index -= 1;
                if seen[self.trail[index].var().0 as usize] {
                    break;
                }
            }
            let lit = self.trail[index];
            p = Some(lit);
            counter -= 1;
            if counter == 0 {
                learnt[0] = lit.negate();
                break;
            }
            confl =
                self.reason[lit.var().0 as usize].expect("UIP literal must have a reason") as usize;
            seen[lit.var().0 as usize] = false;
        }

        // Clause minimization: drop literals implied by the rest.
        let mut minimized: Vec<Lit> = vec![learnt[0]];
        for &l in &learnt[1..] {
            if !self.redundant(l, &seen) {
                minimized.push(l);
            }
        }

        // Compute backtrack level (second-highest level in clause).
        let bt = if minimized.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..minimized.len() {
                if self.level[minimized[i].var().0 as usize]
                    > self.level[minimized[max_i].var().0 as usize]
                {
                    max_i = i;
                }
            }
            minimized.swap(1, max_i);
            self.level[minimized[1].var().0 as usize]
        };
        // Glue of the learnt clause, computed while levels are still valid.
        let lbd = self.compute_lbd(&minimized);
        (minimized, bt, lbd)
    }

    /// A literal is redundant if its reason clause's literals are all marked
    /// seen (single-step minimization; cheap and sound).
    fn redundant(&self, l: Lit, seen: &[bool]) -> bool {
        match self.reason[l.var().0 as usize] {
            None => false,
            Some(c) => self.clauses[c as usize].lits.iter().all(|&q| {
                q.var() == l.var()
                    || seen[q.var().0 as usize]
                    || self.level[q.var().0 as usize] == 0
            }),
        }
    }

    fn bump_clause(&mut self, c: usize) {
        if !self.clauses[c].learnt {
            return;
        }
        // The clause takes part in conflict analysis: mark it used (the
        // mid-tier retention signal) and refresh its glue — all its
        // literals are assigned here, and a lower current LBD is a better
        // estimate of its quality (as in Glucose).
        self.clauses[c].used = true;
        let lits = std::mem::take(&mut self.clauses[c].lits);
        let lbd = self.compute_lbd(&lits);
        self.clauses[c].lits = lits;
        if lbd < self.clauses[c].lbd {
            self.clauses[c].lbd = lbd;
        }
        self.clauses[c].activity += self.clause_inc;
        if self.clauses[c].activity > 1e20 {
            for cl in &mut self.clauses {
                cl.activity *= 1e-20;
            }
            self.clause_inc *= 1e-20;
        }
    }

    pub(crate) fn backtrack(&mut self, level: u32) {
        if (self.trail_lim.len() as u32) <= level {
            return;
        }
        let lim = self.trail_lim[level as usize];
        for i in (lim..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var().0 as usize;
            self.assigns[v] = Assign::Undef;
            self.reason[v] = None;
            self.heap_insert(l.var());
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
        self.stable_trail = self.stable_trail.min(lim);
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        if self.config.random_decision_freq > 0.0 {
            let r = (self.next_rand() >> 11) as f64 / (1u64 << 53) as f64;
            if r < self.config.random_decision_freq && !self.order_heap.is_empty() {
                let i = (self.next_rand() as usize) % self.order_heap.len();
                let v = self.order_heap[i];
                if self.assigns[v.0 as usize] == Assign::Undef && !self.eliminated[v.0 as usize] {
                    return Some(Lit::new(v, self.phase[v.0 as usize]));
                }
            }
        }
        while let Some(v) = self.heap_pop() {
            if self.assigns[v.0 as usize] == Assign::Undef && !self.eliminated[v.0 as usize] {
                return Some(Lit::new(v, self.phase[v.0 as usize]));
            }
        }
        None
    }

    /// Tiered learnt-clause reduction (core/mid/local):
    ///
    /// - **core** (LBD ≤ [`LBD_CORE`], or binary): never deleted — low-glue
    ///   clauses are the backbone of the learnt database;
    /// - **mid** (LBD ≤ [`LBD_MID`]): kept while the clause participated in
    ///   conflict analysis since the previous reduction, demoted to the
    ///   local pool when idle;
    /// - **local** (everything else): activity-sorted, the colder half is
    ///   deleted every reduction.
    fn reduce_db(&mut self) {
        let mut cands: Vec<usize> = Vec::new();
        for (i, c) in self.clauses.iter_mut().enumerate() {
            if !c.learnt || c.lits.len() <= 2 {
                continue;
            }
            if c.lbd <= LBD_CORE {
                continue; // core: immortal
            }
            if c.lbd <= LBD_MID && c.used {
                c.used = false; // mid: survives this round, re-arm
                continue;
            }
            // idle mid clause: demoted, competes with the local pool
            cands.push(i);
        }
        cands.sort_by(|&a, &b| {
            self.clauses[a]
                .activity
                .partial_cmp(&self.clauses[b].activity)
                .unwrap()
        });
        let half = cands.len() / 2;
        let mut remove = vec![false; self.clauses.len()];
        for &i in cands.iter().take(half) {
            let first = self.clauses[i].lits[0];
            let locked = self.reason[first.var().0 as usize] == Some(i as u32)
                && self.value_lit(first) == Assign::True;
            if !locked {
                remove[i] = true;
            }
        }
        self.purge(&remove);
    }

    /// Physically deletes every clause whose index is marked in `remove`,
    /// compacting the clause database, remapping reason pointers (reasons of
    /// deleted clauses become `None` — sound, since only level-0 assignments
    /// can outlive their reasons here and conflict analysis never expands
    /// level-0 literals), and rebuilding the watch lists wholesale.
    ///
    /// Shared by learnt-clause reduction ([`Solver::reduce_db`]) and the
    /// scope GC used by incremental sessions
    /// ([`Solver::purge_level0_satisfied`]).
    pub(crate) fn purge(&mut self, remove: &[bool]) {
        if let Some(p) = self.proof.as_mut() {
            for (i, c) in self.clauses.iter().enumerate() {
                if remove[i] {
                    p.log_delete(&c.lits);
                }
            }
        }
        let mut remap: Vec<i64> = vec![-1; self.clauses.len()];
        let mut new_clauses: Vec<Clause> = Vec::with_capacity(self.clauses.len());
        for (i, c) in self.clauses.drain(..).enumerate() {
            if !remove[i] {
                remap[i] = new_clauses.len() as i64;
                new_clauses.push(c);
            }
        }
        self.clauses = new_clauses;
        for r in &mut self.reason {
            if let Some(c) = *r {
                let m = remap[c as usize];
                *r = if m >= 0 { Some(m as u32) } else { None };
            }
        }
        self.num_learnt = self.clauses.iter().filter(|c| c.learnt).count();
        self.rebuild_watches();
    }

    /// Rebuilds every watch list from clause positions 0/1 wholesale. The
    /// caller must guarantee the watch invariant for those positions
    /// (non-false at root, or the clause root-satisfied).
    pub(crate) fn rebuild_watches(&mut self) {
        for w in &mut self.watches {
            w.clear();
        }
        for (i, c) in self.clauses.iter().enumerate() {
            let w0 = c.lits[0];
            let w1 = c.lits[1];
            self.watches[w0.negate().index()].push(Watcher {
                clause: i as u32,
                blocker: w1,
            });
            self.watches[w1.negate().index()].push(Watcher {
                clause: i as u32,
                blocker: w0,
            });
        }
    }

    /// Scope GC for incremental sessions: physically removes every clause
    /// that is satisfied at decision level 0, returning how many were
    /// deleted.
    ///
    /// When a session pops a scope it adds the unit clause `¬act` for the
    /// scope's activation literal; every clause guarded by that scope
    /// (`l ∨ ¬act`) becomes root-satisfied and is dead weight for all future
    /// checks, as are learnt clauses subsumed by it. Calling this after the
    /// unit propagates reclaims them. Backtracks to level 0 first.
    pub fn purge_level0_satisfied(&mut self) -> usize {
        self.backtrack(0);
        if !self.ok {
            return 0;
        }
        let mut remove = vec![false; self.clauses.len()];
        let mut n = 0usize;
        for (i, c) in self.clauses.iter().enumerate() {
            if c.lits
                .iter()
                .any(|&l| self.level[l.var().0 as usize] == 0 && self.value_lit(l) == Assign::True)
            {
                remove[i] = true;
                n += 1;
            }
        }
        if n > 0 {
            self.purge(&remove);
        }
        n
    }

    /// Number of clauses currently attached (excludes units absorbed into
    /// the level-0 trail).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Solves under the given assumptions.
    ///
    /// On [`SatResult::Sat`], the model is available through
    /// [`Solver::model_value`]. On [`SatResult::Unsat`] with assumptions,
    /// the clause set is unsatisfiable together with the assumptions, and
    /// [`Solver::assumption_core`] reports a sufficient subset of them.
    pub fn solve(&mut self, assumptions: &[Lit]) -> SatResult {
        self.solve_with(assumptions, &mut |_| FinalCheck::Consistent)
    }

    /// Solves under the given assumptions with a theory in the loop
    /// (online DPLL(T)).
    ///
    /// Whenever propagation reaches a fixpoint with every assumption in
    /// force, `theory` inspects the assignment — through [`Solver::trail`],
    /// [`Solver::stable_trail_len`] and [`Solver::assignment_is_full`] —
    /// and answers with a [`FinalCheck`]; on a full assignment its
    /// `Consistent` makes the answer Sat. A partial assignment only needs
    /// a lemma when the theory finds one cheaply; the full one must be
    /// decided. A [`FinalCheck::Conflict`] lemma is logged as a proof *input*
    /// (trusted, not RUP-checked), attached as a permanent problem clause,
    /// and analysed like any propositional conflict: search backjumps from
    /// the lemma's highest decision level instead of restarting. A lemma
    /// that is false at level 0 makes the database unsatisfiable for good,
    /// as any theory-valid clause would.
    pub fn solve_with(
        &mut self,
        assumptions: &[Lit],
        theory: &mut dyn FnMut(&Solver) -> FinalCheck,
    ) -> SatResult {
        // Snapshot the per-instance counters so both the process-wide
        // registry and the per-shard attribution sink receive the same
        // exact delta, with zero cost on the inner loops.
        let before = self.stats();
        self.last_core = None;
        // Assumption variables must survive elimination: their truth value
        // is the caller's interface. Frozen permanently — sessions reuse
        // the same activation/atom literals across solves.
        for &a in assumptions {
            self.freeze(a.var());
        }
        if self.config.inprocess {
            self.maybe_inprocess();
        }
        let result = self.solve_inner(assumptions, theory);
        if result == SatResult::Sat {
            self.reconstruct_model();
        }
        self.num_solves += 1;
        let delta = self.stats().delta(before);
        {
            use tpot_obs::metrics::{counter, histogram};
            counter("sat.conflicts").add(delta.conflicts);
            counter("sat.decisions").add(delta.decisions);
            counter("sat.restarts").add(delta.restarts);
            counter("sat.learned_clauses").add(delta.learned);
            counter("sat.propagations").add(delta.propagations);
            counter("sat.eliminated_vars").add(delta.eliminated_vars);
            counter("sat.subsumed").add(delta.subsumed);
            counter("sat.vivified_lits").add(delta.vivified_lits);
            counter("sat.proof_lines").add(delta.proof_lines);
            let (core, mid, local) = self.db_tier_counts();
            histogram("sat.db.core").observe(core as u64);
            histogram("sat.db.mid").observe(mid as u64);
            histogram("sat.db.local").observe(local as u64);
            counter("sat.solves").inc();
        }
        if let Some(sink) = &self.config.sink {
            sink.add(delta);
        }
        result
    }

    /// Current proof-log length in lines (0 when logging is off).
    pub fn proof_lines(&self) -> u64 {
        self.proof.as_ref().map_or(0, |p| p.lines() as u64)
    }

    /// The proof log, when `SatConfig::proof` is on.
    pub fn proof(&self) -> Option<&ProofLog> {
        self.proof.as_deref()
    }

    /// Learnt clauses per tier `(core, mid, local)` under the
    /// [`LBD_CORE`]/[`LBD_MID`] thresholds.
    pub fn db_tier_counts(&self) -> (usize, usize, usize) {
        let (mut core, mut mid, mut local) = (0, 0, 0);
        for c in &self.clauses {
            if !c.learnt {
                continue;
            }
            if c.lbd <= LBD_CORE || c.lits.len() <= 2 {
                core += 1;
            } else if c.lbd <= LBD_MID {
                mid += 1;
            } else {
                local += 1;
            }
        }
        (core, mid, local)
    }

    /// Replays the whole proof log through the independent RUP checker and
    /// verifies that the final derived clause closes an Unsat answer under
    /// `assumptions`: it must be the empty clause or consist of negated
    /// assumptions. Call right after [`SatResult::Unsat`].
    pub fn check_proof(&self, assumptions: &[Lit]) -> Result<(), String> {
        let log = self
            .proof
            .as_deref()
            .ok_or_else(|| "proof logging is disabled (SatConfig::proof)".to_string())?;
        log.check(self.num_vars())?;
        let fin = log
            .last_add()
            .ok_or_else(|| "no derived clause closes the proof".to_string())?;
        let allowed: std::collections::HashSet<Lit> =
            assumptions.iter().map(|a| a.negate()).collect();
        if fin.is_empty() || fin.iter().all(|l| allowed.contains(l)) {
            Ok(())
        } else {
            Err(format!(
                "final clause {fin:?} is neither empty nor over negated assumptions"
            ))
        }
    }

    /// Extends the current model over eliminated variables, walking the
    /// reconstruction stack in reverse elimination order: each variable is
    /// set false unless one of its saved original clauses would otherwise
    /// be unsatisfied. Saved clauses mention only the variable itself and
    /// variables eliminated later (already reconstructed) or never, so the
    /// reverse walk is well-founded.
    fn reconstruct_model(&mut self) {
        for k in (0..self.elim_stack.len()).rev() {
            let v = self.elim_stack[k].0;
            debug_assert_eq!(self.assigns[v.0 as usize], Assign::Undef);
            let pos = Lit::pos(v);
            let mut value = false;
            for ci in 0..self.elim_stack[k].1.len() {
                let forced = {
                    let cl = &self.elim_stack[k].1[ci];
                    cl.contains(&pos)
                        && cl
                            .iter()
                            .all(|&l| l.var() == v || self.model_value(l.var()) != l.is_pos())
                };
                if forced {
                    value = true;
                    break;
                }
            }
            // model_value reads the saved phase for unassigned variables.
            self.phase[v.0 as usize] = value;
        }
    }

    /// Runs an inprocessing pass when the database is big enough for a
    /// sweep to plausibly pay for itself and enough new clauses arrived
    /// since the last one. Small databases solve in microseconds — a pass
    /// (occurrence build + budgeted vivification) costs more than the
    /// search it would save, measured end-to-end on the pKVM query mix —
    /// so they are exempt regardless of growth.
    fn maybe_inprocess(&mut self) {
        const MIN_CLAUSES: usize = 5000;
        if !self.ok || self.clauses.len() < MIN_CLAUSES {
            return;
        }
        let threshold = (self.clauses.len() / 4).max(512);
        if self.adds_since_inprocess < threshold {
            return;
        }
        self.run_inprocess();
        self.adds_since_inprocess = 0;
    }

    /// Forces an inprocessing pass now (tests and harnesses); returns
    /// `false` if the database became trivially unsatisfiable.
    pub fn inprocess_now(&mut self) -> bool {
        if self.ok {
            self.run_inprocess();
            self.adds_since_inprocess = 0;
        }
        self.ok
    }

    /// Final-conflict analysis (MiniSat's `analyzeFinal`): `failed` is an
    /// assumption whose negation holds on the current trail. Returns
    /// `failed` plus every assumption pseudo-decision in the reason cone of
    /// `¬failed` — a subset of the solve's assumptions whose conjunction
    /// with the clause database already propagates to a conflict. Every
    /// cone literal is either a level-0 unit, a core assumption, or
    /// propagated from earlier cone literals, so unit propagation under the
    /// core alone replays the cone in trail order and rederives `¬failed`.
    fn analyze_final(&self, failed: Lit) -> Vec<Lit> {
        let mut core = vec![failed];
        let nf = failed.negate();
        if self.level[nf.var().0 as usize] == 0 {
            return core; // the database alone implies ¬failed
        }
        let mut seen = vec![false; self.assigns.len()];
        seen[nf.var().0 as usize] = true;
        for &t in self.trail.iter().rev() {
            let v = t.var().0 as usize;
            if !seen[v] || self.level[v] == 0 {
                continue;
            }
            match self.reason[v] {
                Some(ci) => {
                    for &q in &self.clauses[ci as usize].lits {
                        if self.level[q.var().0 as usize] > 0 {
                            seen[q.var().0 as usize] = true;
                        }
                    }
                }
                // At the point of a falsified assumption every surviving
                // decision level is headed by an assumption, so a
                // reason-less non-root literal is an assumption itself.
                None => core.push(t),
            }
        }
        core
    }

    /// The current assignment trail, in assignment order. Read by a
    /// [`Solver::solve_with`] theory to learn which literals hold.
    pub fn trail(&self) -> &[Lit] {
        &self.trail
    }

    /// Length of the trail prefix that no backtrack has touched since the
    /// theory was last consulted in the current [`Solver::solve_with`]
    /// call (0 at the first consultation of each call). A theory that
    /// mirrors the trail keeps what it derived from
    /// `trail()[..stable_trail_len()]` and redoes the rest.
    pub fn stable_trail_len(&self) -> usize {
        self.stable_trail
    }

    /// Attaches a theory lemma. Returns the
    /// clause to analyse as a conflict, or `None` after a unit lemma was
    /// enqueued at level 0 (or a lemma made the database unsatisfiable,
    /// which leaves `ok` false).
    fn add_theory_lemma(&mut self, lemma: Vec<Lit>) -> Option<u32> {
        if let Some(p) = self.proof.as_mut() {
            p.log_input(&lemma);
        }
        self.adds_since_inprocess += 1;
        let mut lits = lemma;
        lits.sort_unstable();
        lits.dedup();
        debug_assert!(
            lits.iter().all(|&l| self.value_lit(l) == Assign::False),
            "theory lemma must be false under the current assignment"
        );
        // Highest decision level first, the next highest second: the two
        // watches, and the order conflict analysis expects.
        lits.sort_by_key(|l| std::cmp::Reverse(self.level[l.var().0 as usize]));
        let top = lits.first().map_or(0, |l| self.level[l.var().0 as usize]);
        if top == 0 {
            // False at the root: the lemma and the root units propagate to
            // the empty clause.
            self.log_add(&[]);
            self.ok = false;
            return None;
        }
        if lits.len() == 1 {
            self.backtrack(0);
            self.unchecked_enqueue(lits[0], None);
            return None;
        }
        self.backtrack(top);
        Some(self.attach_clause(lits, false, 0))
    }

    /// Acts on a theory answer: `Proceed` when consistent; otherwise the
    /// lemma's conflict clause, a re-propagation after a unit lemma, or the
    /// solve's result.
    fn take_theory_answer(
        &mut self,
        answer: FinalCheck,
        conflicts_since_restart: &mut u64,
    ) -> TheoryStep {
        self.stable_trail = self.trail.len();
        let lemma = match answer {
            FinalCheck::Consistent => return TheoryStep::Proceed,
            FinalCheck::GiveUp => {
                self.backtrack(0);
                return TheoryStep::Done(SatResult::Unknown);
            }
            FinalCheck::Conflict(lemma) => lemma,
        };
        self.conflicts += 1;
        self.num_conflicts += 1;
        *conflicts_since_restart += 1;
        match self.add_theory_lemma(lemma) {
            Some(ci) => TheoryStep::Conflict(ci),
            None if self.ok => TheoryStep::Repropagate,
            None => {
                self.last_core = Some(Vec::new());
                TheoryStep::Done(SatResult::Unsat)
            }
        }
    }

    /// Whether the assignment [`Solver::solve_with`]'s theory is looking at
    /// is full (every variable assigned), or a propagation fixpoint with
    /// decisions still to make.
    pub fn assignment_is_full(&self) -> bool {
        self.full_assignment
    }

    fn solve_inner(
        &mut self,
        assumptions: &[Lit],
        theory: &mut dyn FnMut(&Solver) -> FinalCheck,
    ) -> SatResult {
        if !self.ok {
            self.last_core = Some(Vec::new());
            return SatResult::Unsat;
        }
        self.backtrack(0);
        self.stable_trail = 0;
        let mut restarts: u64 = 0;
        let mut conflicts_since_restart: u64 = 0;
        let mut max_learnts =
            (self.clauses.len() as f64 * self.config.learntsize_factor).max(1000.0);
        let start_conflicts = self.conflicts;

        loop {
            let confl = match self.propagate() {
                Some(confl) => {
                    self.conflicts += 1;
                    self.num_conflicts += 1;
                    conflicts_since_restart += 1;
                    confl
                }
                None => {
                    // No conflict: restart check, assumptions, then decide.
                    if conflicts_since_restart >= luby(restarts) * self.config.restart_base {
                        restarts += 1;
                        self.num_restarts += 1;
                        conflicts_since_restart = 0;
                        if tpot_obs::tracing_enabled() {
                            tpot_obs::instant(
                                "sat",
                                "restart",
                                &[
                                    ("restarts", restarts.to_string()),
                                    ("conflicts", self.num_conflicts.to_string()),
                                    ("learned", self.num_learned.to_string()),
                                ],
                            );
                        }
                        self.backtrack(0);
                        continue;
                    }
                    // Enforce assumptions as pseudo-decisions.
                    let mut all_assumed = true;
                    for &a in assumptions {
                        match self.value_lit(a) {
                            Assign::True => {}
                            Assign::False => {
                                // A falsified assumption. At this point every
                                // surviving decision level is headed by an
                                // assumption (a plain decision would imply
                                // all assumptions were satisfied when it was
                                // made and still are, since its level
                                // survives), so ¬a follows from the database
                                // and the assumed assumptions in its reason
                                // cone by unit propagation alone: the clause
                                // over the negated core is RUP (and a
                                // fortiori a subset of the negated
                                // assumptions, as `check_proof` wants).
                                let core = self.analyze_final(a);
                                let fin: Vec<Lit> = core.iter().map(|x| x.negate()).collect();
                                self.log_add(&fin);
                                self.last_core = Some(core);
                                self.backtrack(0);
                                return SatResult::Unsat;
                            }
                            Assign::Undef => {
                                self.trail_lim.push(self.trail.len());
                                self.unchecked_enqueue(a, None);
                                all_assumed = false;
                                break;
                            }
                        }
                    }
                    if !all_assumed {
                        continue;
                    }
                    // A propagation fixpoint with every assumption in force:
                    // the theory checks the assignment so far, and has the
                    // last word on a full one.
                    let decision = self.pick_branch();
                    self.full_assignment = decision.is_none();
                    let answer = theory(self);
                    let step = self.take_theory_answer(answer, &mut conflicts_since_restart);
                    if let (Some(l), false) = (decision, matches!(step, TheoryStep::Proceed)) {
                        self.heap_insert(l.var());
                    }
                    match step {
                        TheoryStep::Proceed => match decision {
                            Some(l) => {
                                self.num_decisions += 1;
                                self.trail_lim.push(self.trail.len());
                                self.unchecked_enqueue(l, None);
                                continue;
                            }
                            None => return SatResult::Sat,
                        },
                        TheoryStep::Repropagate => continue,
                        TheoryStep::Conflict(ci) => ci,
                        TheoryStep::Done(result) => return result,
                    }
                }
            };
            if self.trail_lim.is_empty() {
                // Conflict with no decisions: the database itself
                // propagates to a conflict, so the empty clause is RUP.
                self.log_add(&[]);
                self.ok = false;
                self.last_core = Some(Vec::new());
                return SatResult::Unsat;
            }
            let (learnt, bt, lbd) = self.analyze(confl);
            self.note_participation(&learnt);
            self.log_add(&learnt);
            self.backtrack(bt);
            self.num_learned += 1;
            if learnt.len() == 1 {
                self.unchecked_enqueue(learnt[0], None);
            } else {
                let ci = self.attach_clause(learnt.clone(), true, lbd);
                self.bump_clause(ci as usize);
                self.unchecked_enqueue(learnt[0], Some(ci));
            }
            self.var_inc /= self.config.var_decay;
            self.clause_inc /= self.config.clause_decay;
            if let Some(limit) = self.config.conflict_limit {
                if self.conflicts - start_conflicts >= limit {
                    self.backtrack(0);
                    return SatResult::Unknown;
                }
            }
            if self.conflicts.is_multiple_of(64) {
                if let Some(c) = &self.config.cancel {
                    if c.load(std::sync::atomic::Ordering::Relaxed) {
                        self.backtrack(0);
                        return SatResult::Unknown;
                    }
                }
            }
            if self.num_learnt as f64 > max_learnts {
                self.reduce_db();
                max_learnts *= 1.3;
            }
        }
    }

    /// The model value of a variable after [`SatResult::Sat`]. Unassigned
    /// variables read as their saved phase.
    pub fn model_value(&self, v: Var) -> bool {
        match self.assigns[v.0 as usize] {
            Assign::True => true,
            Assign::False => false,
            Assign::Undef => self.phase[v.0 as usize],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(i: i32) -> Lit {
        // DIMACS-style: positive i => positive literal of var i-1.
        let v = Var(i.unsigned_abs() - 1);
        Lit::new(v, i > 0)
    }

    fn make_solver(nvars: usize) -> Solver {
        let mut s = Solver::default();
        for _ in 0..nvars {
            s.new_var();
        }
        s
    }

    #[test]
    fn trivial_sat() {
        let mut s = make_solver(2);
        assert!(s.add_clause(&[lit(1), lit(2)]));
        assert_eq!(s.solve(&[]), SatResult::Sat);
    }

    #[test]
    fn trivial_unsat() {
        let mut s = make_solver(1);
        s.add_clause(&[lit(1)]);
        assert!(!s.add_clause(&[lit(-1)]) || s.solve(&[]) == SatResult::Unsat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = make_solver(4);
        s.add_clause(&[lit(1)]);
        s.add_clause(&[lit(-1), lit(2)]);
        s.add_clause(&[lit(-2), lit(3)]);
        s.add_clause(&[lit(-3), lit(4)]);
        assert_eq!(s.solve(&[]), SatResult::Sat);
        for v in 0..4 {
            assert!(s.model_value(Var(v)));
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // p_{i,j}: pigeon i in hole j. 3 pigeons, 2 holes.
        let mut s = make_solver(6);
        let p = |i: u32, j: u32| Lit::pos(Var(i * 2 + j));
        for i in 0..3 {
            s.add_clause(&[p(i, 0), p(i, 1)]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause(&[p(i1, j).negate(), p(i2, j).negate()]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn assumptions() {
        let mut s = make_solver(2);
        s.add_clause(&[lit(1), lit(2)]);
        assert_eq!(s.solve(&[lit(-1)]), SatResult::Sat);
        assert!(s.model_value(Var(1)));
        // Assumptions are not permanent.
        assert_eq!(s.solve(&[lit(-2)]), SatResult::Sat);
        assert!(s.model_value(Var(0)));
        assert_eq!(s.solve(&[lit(-1), lit(-2)]), SatResult::Unsat);
        assert_eq!(s.solve(&[]), SatResult::Sat);
    }

    #[test]
    fn tautology_ignored() {
        let mut s = make_solver(1);
        assert!(s.add_clause(&[lit(1), lit(-1)]));
        assert_eq!(s.solve(&[]), SatResult::Sat);
    }

    #[test]
    fn empty_clause_unsat() {
        let mut s = make_solver(1);
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn xor_chain_sat() {
        // x1 ^ x2 = 1, x2 ^ x3 = 1, x1 ^ x3 = 0 is satisfiable.
        let mut s = make_solver(3);
        let xor_cnf = |s: &mut Solver, a: i32, b: i32, val: bool| {
            if val {
                s.add_clause(&[lit(a), lit(b)]);
                s.add_clause(&[lit(-a), lit(-b)]);
            } else {
                s.add_clause(&[lit(-a), lit(b)]);
                s.add_clause(&[lit(a), lit(-b)]);
            }
        };
        xor_cnf(&mut s, 1, 2, true);
        xor_cnf(&mut s, 2, 3, true);
        xor_cnf(&mut s, 1, 3, false);
        assert_eq!(s.solve(&[]), SatResult::Sat);
        let v = |i: u32| s.model_value(Var(i));
        assert!(v(0) ^ v(1));
        assert!(v(1) ^ v(2));
        assert!(!(v(0) ^ v(2)));
    }

    #[test]
    fn assumption_core_is_minimal_subset() {
        // a -> b, and c is independent. Assuming [c, a, ¬b] is unsat, and
        // the core must not mention the irrelevant c.
        let mut s = make_solver(3);
        s.add_clause(&[lit(-1), lit(2)]); // a -> b
        let (a, b, c) = (lit(1), lit(2), lit(3));
        assert_eq!(s.solve(&[c, a, b.negate()]), SatResult::Unsat);
        let core = s.assumption_core().expect("unsat sets a core");
        assert!(core.contains(&a) || core.contains(&b.negate()));
        assert!(!core.contains(&c), "independent assumption in core");
        assert!(core.len() <= 2, "core {core:?} not minimal");
        // Re-solving without the conflicting pair succeeds and clears it.
        assert_eq!(s.solve(&[c, a]), SatResult::Sat);
        assert!(s.assumption_core().is_none());
    }

    #[test]
    fn assumption_core_empty_when_db_unsat() {
        let mut s = make_solver(1);
        s.add_clause(&[lit(1)]);
        s.add_clause(&[lit(-1)]);
        assert_eq!(s.solve(&[]), SatResult::Unsat);
        assert_eq!(s.assumption_core(), Some(&[][..]));
    }

    #[test]
    fn php_5_into_4_unsat_exercises_learning() {
        let n = 5u32;
        let m = 4u32;
        let mut s = Solver::default();
        for _ in 0..(n * m) {
            s.new_var();
        }
        let p = |i: u32, j: u32| Lit::pos(Var(i * m + j));
        for i in 0..n {
            let c: Vec<Lit> = (0..m).map(|j| p(i, j)).collect();
            s.add_clause(&c);
        }
        for j in 0..m {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause(&[p(i1, j).negate(), p(i2, j).negate()]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SatResult::Unsat);
        assert!(s.num_conflicts > 0);
    }

    #[test]
    fn model_satisfies_all_clauses_random() {
        // Deterministic pseudo-random 3-SAT near threshold; verify models.
        let mut seed = 0x12345678u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for round in 0..20 {
            let nvars = 20;
            let nclauses = 60 + round;
            let mut s = make_solver(nvars);
            let mut clauses: Vec<Vec<Lit>> = Vec::new();
            for _ in 0..nclauses {
                let mut c = Vec::new();
                for _ in 0..3 {
                    let v = (next() % nvars as u64) as u32;
                    let sign = next() % 2 == 0;
                    c.push(Lit::new(Var(v), sign));
                }
                clauses.push(c.clone());
                s.add_clause(&c);
            }
            if s.solve(&[]) == SatResult::Sat {
                for c in &clauses {
                    assert!(
                        c.iter().any(|&l| s.model_value(l.var()) == l.is_pos()),
                        "model violates clause {c:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn purge_level0_satisfied_removes_guarded_clauses() {
        // Activation-literal scoping: clauses guarded by ¬act become
        // root-satisfied once the unit ¬act is added, and the GC deletes
        // them without disturbing satisfiability of the rest.
        let mut s = make_solver(4);
        let act = lit(4);
        s.add_clause(&[lit(1), lit(2)]); // permanent
        s.add_clause(&[lit(-1), lit(3), act.negate()]); // scoped
        s.add_clause(&[lit(-3), lit(-2), act.negate()]); // scoped
        assert_eq!(s.num_clauses(), 3);
        assert_eq!(s.solve(&[act]), SatResult::Sat);
        // Pop the scope: permanently disable act, then GC.
        assert!(s.add_clause(&[act.negate()]));
        assert_eq!(s.purge_level0_satisfied(), 2);
        assert_eq!(s.num_clauses(), 1);
        assert_eq!(s.solve(&[]), SatResult::Sat);
        assert!(s.model_value(Var(0)) || s.model_value(Var(1)));
    }

    #[test]
    fn purge_keeps_solver_correct_after_learning() {
        // Learn clauses on a hard instance, then purge after forcing a
        // root-level assignment; solving again must stay consistent.
        let n = 5u32;
        let m = 4u32;
        let mut s = Solver::default();
        for _ in 0..(n * m + 1) {
            s.new_var();
        }
        let act = Lit::pos(Var(n * m));
        let p = |i: u32, j: u32| Lit::pos(Var(i * m + j));
        for i in 0..n {
            let mut c: Vec<Lit> = (0..m).map(|j| p(i, j)).collect();
            c.push(act.negate());
            s.add_clause(&c);
        }
        for j in 0..m {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause(&[p(i1, j).negate(), p(i2, j).negate(), act.negate()]);
                }
            }
        }
        // Under the activation literal the embedded PHP(5,4) is unsat.
        assert_eq!(s.solve(&[act]), SatResult::Unsat);
        // Without it the guards satisfy everything.
        assert_eq!(s.solve(&[]), SatResult::Sat);
        // Pop: disable the scope and GC; everything was guarded.
        assert!(s.add_clause(&[act.negate()]));
        let removed = s.purge_level0_satisfied();
        assert!(removed > 0);
        assert_eq!(s.solve(&[]), SatResult::Sat);
    }

    #[test]
    fn reduce_db_never_drops_core_clauses() {
        // Learn on a hard instance, then hammer reduce_db: every learnt
        // clause in the core tier (LBD ≤ LBD_CORE, or binary) must survive
        // arbitrarily many reductions.
        let cfg = SatConfig {
            inprocess: false,
            ..SatConfig::default()
        };
        let mut s = Solver::new(cfg);
        for _ in 0..20 {
            s.new_var();
        }
        let p = |i: u32, j: u32| Lit::pos(Var(i * 4 + j));
        for i in 0..5 {
            let c: Vec<Lit> = (0..4).map(|j| p(i, j)).collect();
            s.add_clause(&c);
        }
        for j in 0..4 {
            for i1 in 0..5 {
                for i2 in (i1 + 1)..5 {
                    s.add_clause(&[p(i1, j).negate(), p(i2, j).negate()]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SatResult::Unsat);
        let core_of = |s: &Solver| -> Vec<Vec<Lit>> {
            s.clauses
                .iter()
                .filter(|c| c.learnt && (c.lbd <= LBD_CORE || c.lits.len() <= 2))
                .map(|c| {
                    let mut l = c.lits.clone();
                    l.sort_unstable();
                    l
                })
                .collect()
        };
        let before = core_of(&s);
        for _ in 0..4 {
            s.reduce_db();
        }
        let after = core_of(&s);
        for c in &before {
            assert!(after.contains(c), "core clause {c:?} was dropped by GC");
        }
    }

    #[test]
    fn db_tier_counts_classify_learnts() {
        let mut s = Solver::default();
        for _ in 0..20 {
            s.new_var();
        }
        let p = |i: u32, j: u32| Lit::pos(Var(i * 4 + j));
        for i in 0..5 {
            let c: Vec<Lit> = (0..4).map(|j| p(i, j)).collect();
            s.add_clause(&c);
        }
        for j in 0..4 {
            for i1 in 0..5 {
                for i2 in (i1 + 1)..5 {
                    s.add_clause(&[p(i1, j).negate(), p(i2, j).negate()]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SatResult::Unsat);
        let (core, mid, local) = s.db_tier_counts();
        let learnt = s.clauses.iter().filter(|c| c.learnt).count();
        assert_eq!(core + mid + local, learnt);
    }

    #[test]
    fn unsat_proof_checks_end_to_end() {
        let cfg = SatConfig {
            proof: true,
            ..SatConfig::default()
        };
        let mut s = Solver::new(cfg);
        for _ in 0..20 {
            s.new_var();
        }
        let p = |i: u32, j: u32| Lit::pos(Var(i * 4 + j));
        for i in 0..5 {
            let c: Vec<Lit> = (0..4).map(|j| p(i, j)).collect();
            s.add_clause(&c);
        }
        for j in 0..4 {
            for i1 in 0..5 {
                for i2 in (i1 + 1)..5 {
                    s.add_clause(&[p(i1, j).negate(), p(i2, j).negate()]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SatResult::Unsat);
        assert!(s.proof_lines() > 0);
        s.check_proof(&[]).expect("machine check of the DRAT proof");
    }

    #[test]
    fn assumption_unsat_proof_checks() {
        // Unsat only under assumptions: the final proof clause is the
        // negated assumption set, not the empty clause.
        let cfg = SatConfig {
            proof: true,
            ..SatConfig::default()
        };
        let mut s = Solver::new(cfg);
        for _ in 0..3 {
            s.new_var();
        }
        s.add_clause(&[lit(-1), lit(2)]);
        s.add_clause(&[lit(-2), lit(3)]);
        let asms = [lit(1), lit(-3)];
        assert_eq!(s.solve(&asms), SatResult::Unsat);
        s.check_proof(&asms).expect("assumption-unsat proof");
        // And solving again without assumptions still works, with the
        // proof log accumulating across solves.
        assert_eq!(s.solve(&[]), SatResult::Sat);
    }

    #[test]
    fn proof_survives_incremental_solves_with_inprocessing() {
        let cfg = SatConfig {
            proof: true,
            inprocess: true,
            ..SatConfig::default()
        };
        let mut s = Solver::new(cfg);
        for _ in 0..12 {
            s.new_var();
        }
        // A chain with an activation literal (var 12).
        let act = lit(12);
        for i in 1..11 {
            s.add_clause(&[lit(-i), lit(i + 1), act.negate()]);
        }
        assert_eq!(s.solve(&[act, lit(1)]), SatResult::Sat);
        // Force many adds so maybe_inprocess triggers, then an unsat query.
        s.add_clause(&[lit(-11), act.negate()]);
        let _ = s.inprocess_now();
        let asms = [act, lit(1)];
        assert_eq!(s.solve(&asms), SatResult::Unsat);
        s.check_proof(&asms).expect("proof across inprocessing");
    }

    fn proof_solver(nvars: usize) -> Solver {
        let mut s = Solver::new(SatConfig {
            proof: true,
            ..SatConfig::default()
        });
        for _ in 0..nvars {
            s.new_var();
        }
        s
    }

    /// True if `l` holds on the solver's trail.
    fn holds(s: &Solver, l: Lit) -> bool {
        s.trail().contains(&l)
    }

    #[test]
    fn theory_lemma_false_at_root_is_unsat_with_empty_core() {
        let mut s = proof_solver(2);
        s.add_clause(&[lit(1)]);
        let r = s.solve_with(&[], &mut |s| {
            if holds(s, lit(1)) {
                FinalCheck::Conflict(vec![lit(-1)])
            } else {
                FinalCheck::Consistent
            }
        });
        assert_eq!(r, SatResult::Unsat);
        assert_eq!(s.assumption_core(), Some(&[][..]));
        s.check_proof(&[]).expect("lemma input closes the proof");
    }

    #[test]
    fn theory_lemma_over_assumption_puts_it_in_the_core() {
        let mut s = proof_solver(2);
        s.add_clause(&[lit(1), lit(2)]);
        let a = lit(2);
        let r = s.solve_with(&[a], &mut |s| {
            if holds(s, a) {
                FinalCheck::Conflict(vec![a.negate()])
            } else {
                FinalCheck::Consistent
            }
        });
        assert_eq!(r, SatResult::Unsat);
        assert_eq!(s.assumption_core(), Some(&[a][..]));
        s.check_proof(&[a]).expect("assumption-unsat proof");
        // The lemma is permanent, so without the assumption x1 must hold.
        assert_eq!(s.solve(&[]), SatResult::Sat);
        assert!(s.model_value(Var(0)) && !s.model_value(Var(1)));
    }

    #[test]
    fn unit_theory_lemmas_resolve() {
        // (x1 ∨ x2) with a theory that rejects each of them: two unit
        // lemmas, then the clause itself conflicts at the root.
        let mut s = proof_solver(2);
        s.add_clause(&[lit(1), lit(2)]);
        let mut lemmas = 0;
        let r = s.solve_with(&[], &mut |s| {
            for l in [lit(1), lit(2)] {
                if holds(s, l) {
                    lemmas += 1;
                    return FinalCheck::Conflict(vec![l.negate()]);
                }
            }
            FinalCheck::Consistent
        });
        assert_eq!(r, SatResult::Unsat);
        assert_eq!(lemmas, 2);
        s.check_proof(&[]).expect("unit lemma proof");
    }

    #[test]
    fn theory_lemma_with_two_literals_at_its_top_level_resolves() {
        // x1 → x2, so deciding x1 propagates x2 at the same level. The
        // theory allows only x1 ∧ ¬x2, which the clause forbids.
        let mut s = Solver::new(SatConfig {
            proof: true,
            default_phase: true,
            ..SatConfig::default()
        });
        for _ in 0..2 {
            s.new_var();
        }
        s.add_clause(&[lit(-1), lit(2)]);
        let mut same_level_seen = false;
        let r = s.solve_with(&[], &mut |s| {
            if !s.assignment_is_full() {
                return FinalCheck::Consistent;
            }
            let (x, y) = (holds(s, lit(1)), holds(s, lit(2)));
            if x && y {
                let (lx, ly) = (s.level[0], s.level[1]);
                same_level_seen |= lx == ly && lx > 0;
                FinalCheck::Conflict(vec![lit(-1), lit(-2)])
            } else if !x && y {
                FinalCheck::Conflict(vec![lit(1), lit(-2)])
            } else if !x && !y {
                FinalCheck::Conflict(vec![lit(1), lit(2)])
            } else {
                FinalCheck::Consistent
            }
        });
        assert_eq!(r, SatResult::Unsat);
        assert!(same_level_seen, "x1 and x2 were never at one level");
        s.check_proof(&[]).expect("two-literal lemma proof");
    }

    #[test]
    fn theory_lemma_backjumps_instead_of_restarting() {
        // Assumption a heads level 1; x1 is decided above it. A lemma over
        // x1 alone must not undo the assumption level, and the solve ends
        // Sat with ¬x1 in one call.
        let mut s = proof_solver(3);
        let a = lit(3);
        s.add_clause(&[lit(1), lit(2)]);
        let r = s.solve_with(&[a], &mut |s| {
            if holds(s, lit(1)) {
                FinalCheck::Conflict(vec![lit(-1)])
            } else {
                FinalCheck::Consistent
            }
        });
        assert_eq!(r, SatResult::Sat);
        assert!(!s.model_value(Var(0)) && s.model_value(Var(1)));
        assert_eq!(s.stats().solves, 1);
    }

    #[test]
    fn theory_objects_at_a_propagation_fixpoint() {
        // Ten variables, x1 → x2, and a theory that forbids x1 ∧ x2.
        // Deciding x1 first (positive phase) propagates x2, and the
        // conflict shows up at that fixpoint, long before the assignment
        // is full.
        let mut s = Solver::new(SatConfig {
            proof: true,
            default_phase: true,
            ..SatConfig::default()
        });
        for _ in 0..10 {
            s.new_var();
        }
        s.add_clause(&[lit(-1), lit(2)]);
        let mut early = 0;
        let r = s.solve_with(&[], &mut |s| {
            if holds(s, lit(1)) && holds(s, lit(2)) {
                early += usize::from(!s.assignment_is_full());
                FinalCheck::Conflict(vec![lit(-1), lit(-2)])
            } else {
                FinalCheck::Consistent
            }
        });
        assert_eq!(r, SatResult::Sat);
        assert!(!s.model_value(Var(0)));
        assert!(early > 0, "the conflict waited for a full assignment");
    }

    #[test]
    fn theory_give_up_is_unknown_at_level_zero() {
        let mut s = proof_solver(2);
        s.add_clause(&[lit(1), lit(2)]);
        let r = s.solve_with(&[lit(1)], &mut |_| FinalCheck::GiveUp);
        assert_eq!(r, SatResult::Unknown);
        assert!(
            s.trail_lim.is_empty(),
            "Unknown leaves the solver at level 0"
        );
        assert!(s.assumption_core().is_none());
        assert_eq!(s.solve(&[lit(-1)]), SatResult::Sat);
        assert!(s.model_value(Var(1)));
        assert_eq!(s.solve(&[lit(-1), lit(-2)]), SatResult::Unsat);
        s.check_proof(&[lit(-1), lit(-2)])
            .expect("proof after a give-up");
    }

    #[test]
    fn conflict_limit_returns_unknown() {
        let cfg = SatConfig {
            conflict_limit: Some(1),
            ..SatConfig::default()
        };
        let mut s = Solver::new(cfg);
        for _ in 0..20 {
            s.new_var();
        }
        // Hard instance: PHP(5,4) embedded.
        let p = |i: u32, j: u32| Lit::pos(Var(i * 4 + j));
        for i in 0..5 {
            let c: Vec<Lit> = (0..4).map(|j| p(i, j)).collect();
            s.add_clause(&c);
        }
        for j in 0..4 {
            for i1 in 0..5 {
                for i2 in (i1 + 1)..5 {
                    s.add_clause(&[p(i1, j).negate(), p(i2, j).negate()]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SatResult::Unknown);
    }
}
