//! Linear *integer* arithmetic on top of the rational simplex.
//!
//! Solves conjunctions of normalized `≤`-atoms ([`LeAtom`]) over integer
//! variables: the LP relaxation runs on the [`Simplex`]; fractional solutions
//! trigger branch-and-bound. This is the decision procedure behind TPot's
//! integer-encoded pointer-resolution queries (§4.3): heap base addresses and
//! object sizes become integer variables here instead of 64-bit bitvectors,
//! avoiding bit-blasting.

use std::collections::HashMap;

use tpot_obs::metrics::LazyCounter;
use tpot_smt::TermId;

use crate::error::SolverError;
use crate::linexpr::LeAtom;
use crate::rational::Rat;
use crate::simplex::Simplex;

static LIA_CALLS: LazyCounter = LazyCounter::new("solver.lia.calls");
static BNB_NODES: LazyCounter = LazyCounter::new("solver.lia.bnb_nodes");
static ROWS_EXTENDED: LazyCounter = LazyCounter::new("solver.lia.rows_extended");
static ROWS_REUSED: LazyCounter = LazyCounter::new("solver.lia.rows_reused");

/// Outcome of an integer-feasibility check.
#[derive(Clone, Debug)]
pub enum LiaOutcome {
    /// Satisfiable with the given integer assignment.
    Sat(HashMap<TermId, i128>),
    /// Unsatisfiable. The payload is a subset of input atom indices that is
    /// jointly infeasible (a conflict core); it may be the full set.
    Unsat(Vec<usize>),
    /// Branch-and-bound exceeded its node budget.
    Unknown,
}

/// Configuration for the LIA engine.
#[derive(Clone, Debug)]
pub struct LiaConfig {
    /// Maximum number of branch-and-bound nodes before giving up.
    pub max_nodes: u64,
    /// Branch on the lowest-index fractional variable (`true`) or the most
    /// fractional one (`false`) — a portfolio diversification knob.
    pub branch_lowest_index: bool,
}

impl Default for LiaConfig {
    fn default() -> Self {
        LiaConfig {
            max_nodes: 10_000,
            branch_lowest_index: true,
        }
    }
}

/// Checks integer feasibility of the conjunction of `atoms`.
///
/// Atom `i`'s tag in conflict cores is its index in the slice. One-shot
/// wrapper over a fresh [`IncLia`]; sessions keep the `IncLia` alive and
/// assert and retract atoms as the SAT trail moves.
pub fn solve_lia(atoms: &[LeAtom], config: &LiaConfig) -> Result<LiaOutcome, SolverError> {
    let mut lia = IncLia::new();
    for atom in atoms {
        let id = lia.register(atom);
        if let Some(core) = lia.assert_atom(id, true)? {
            return Ok(LiaOutcome::Unsat(core));
        }
    }
    lia.check(config)
}

/// What asserting one polarity of an atom does to the simplex.
#[derive(Clone, Debug)]
enum BoundSpec {
    /// A variable-free atom: nothing to assert, just true or false.
    Trivial(bool),
    /// `var ≤ bound`.
    Upper(usize, Rat),
    /// `var ≥ bound`.
    Lower(usize, Rat),
}

/// Incremental LIA context: one simplex whose bounds follow a stack of
/// asserted atoms.
///
/// Atoms are *registered* once, which creates the simplex variables of their
/// term variables and one slack row per distinct linear form (the form is
/// sign-canonicalized, so an atom and its negation share one row; the
/// negation becomes a lower bound). They are then *asserted* with a
/// polarity and retracted in LIFO order ([`IncLia::backtrack`]), mirroring
/// the SAT trail: retracting restores the bounds but keeps the pivoted
/// tableau, so the next [`IncLia::check`] starts from the last feasible
/// basis. An atom's id — its tag in conflict cores — is its registration
/// index.
#[derive(Clone)]
pub struct IncLia {
    var_map: HashMap<TermId, usize>,
    /// Term variables with their simplex variables, in registration order:
    /// the variables branch-and-bound keeps integral.
    int_vars: Vec<(TermId, usize)>,
    /// Sign-canonical linear form → slack variable.
    row_map: HashMap<Vec<(TermId, i128)>, usize>,
    sx: Simplex,
    /// Registered atoms, by id.
    atoms: Vec<LeAtom>,
    /// Per registered atom, the bound each polarity asserts (`[true,
    /// false]`); an error is kept until that polarity is asserted.
    specs: Vec<[Result<BoundSpec, SolverError>; 2]>,
    /// Asserted atoms, oldest first: `(id, polarity, simplex mark before)`.
    asserted: Vec<(usize, bool, usize)>,
    /// Rows added over the context's lifetime.
    pub rows_extended: u64,
    /// Registrations served by an already-registered form.
    pub rows_reused: u64,
}

impl Default for IncLia {
    fn default() -> Self {
        IncLia::new()
    }
}

impl IncLia {
    /// Creates an empty context.
    pub fn new() -> Self {
        IncLia {
            var_map: HashMap::new(),
            int_vars: Vec::new(),
            row_map: HashMap::new(),
            sx: Simplex::new(),
            atoms: Vec::new(),
            specs: Vec::new(),
            asserted: Vec::new(),
            rows_extended: 0,
            rows_reused: 0,
        }
    }

    /// Sign-canonical key for a (non-unit) linear form: coefficients in
    /// `TermId` order with the leading coefficient positive. Returns the key
    /// and whether the form was negated to canonicalize it.
    fn canon_key(atom: &LeAtom) -> (Vec<(TermId, i128)>, bool) {
        let mut items: Vec<(TermId, i128)> =
            atom.expr.coeffs.iter().map(|(&t, &c)| (t, c)).collect();
        let negated = items[0].1 < 0;
        if negated {
            for (_, c) in &mut items {
                *c = -*c;
            }
        }
        (items, negated)
    }

    /// Number of registered atoms (the next atom's id).
    pub fn num_atoms(&self) -> usize {
        self.specs.len()
    }

    /// Number of currently asserted atoms.
    pub fn num_asserted(&self) -> usize {
        self.asserted.len()
    }

    /// Registers `atom`, extending the simplex with any new variables and
    /// its row, and returns its id. An arithmetic overflow in either
    /// polarity's bound surfaces when that polarity is asserted.
    pub fn register(&mut self, atom: &LeAtom) -> usize {
        for &v in atom.expr.coeffs.keys() {
            if !self.var_map.contains_key(&v) {
                let sv = self.sx.new_var();
                self.var_map.insert(v, sv);
                self.int_vars.push((v, sv));
            }
        }
        let pos = self.spec(atom);
        let neg = atom.negate().and_then(|n| self.spec(&n));
        self.atoms.push(atom.clone());
        self.specs.push([pos, neg]);
        self.specs.len() - 1
    }

    /// The bound `atom` asserts, registering its row if it is new.
    fn spec(&mut self, atom: &LeAtom) -> Result<BoundSpec, SolverError> {
        if let Some(t) = atom.as_trivial() {
            return Ok(BoundSpec::Trivial(t));
        }
        if atom.expr.coeffs.len() == 1 {
            let (&v, &c) = atom.expr.coeffs.iter().next().unwrap();
            let sv = self.var_map[&v];
            let bound = Rat::new(atom.bound, c)?;
            return Ok(if c > 0 {
                BoundSpec::Upper(sv, bound)
            } else {
                BoundSpec::Lower(sv, bound)
            });
        }
        let (key, negated) = Self::canon_key(atom);
        let slack = match self.row_map.get(&key) {
            Some(&slack) => {
                self.rows_reused += 1;
                ROWS_REUSED.add(1);
                slack
            }
            None => {
                let combo: Vec<(usize, Rat)> = key
                    .iter()
                    .map(|&(t, c)| (self.var_map[&t], Rat::int(c)))
                    .collect();
                let slack = self.sx.add_row(&combo)?;
                self.row_map.insert(key, slack);
                self.rows_extended += 1;
                ROWS_EXTENDED.add(1);
                slack
            }
        };
        Ok(if negated {
            // Row holds -expr; expr ≤ b ⇔ row ≥ -b.
            let b = atom.bound.checked_neg().ok_or(SolverError::Overflow)?;
            BoundSpec::Lower(slack, Rat::int(b))
        } else {
            BoundSpec::Upper(slack, Rat::int(atom.bound))
        })
    }

    /// Asserts atom `id` (`polarity = false` asserts its negation). On an
    /// immediate bound conflict the atom is left unasserted and the
    /// conflict core (atom ids, `id` among them) is returned.
    pub fn assert_atom(
        &mut self,
        id: usize,
        polarity: bool,
    ) -> Result<Option<Vec<usize>>, SolverError> {
        let spec = self.specs[id][usize::from(!polarity)].clone()?;
        let mark = self.sx.mark();
        let conflict = match spec {
            BoundSpec::Trivial(true) => None,
            BoundSpec::Trivial(false) => return Ok(Some(vec![id])),
            BoundSpec::Upper(v, b) => self.sx.assert_upper(v, b, Some(id))?,
            BoundSpec::Lower(v, b) => self.sx.assert_lower(v, b, Some(id))?,
        };
        if let Some(c) = conflict {
            return Ok(Some(self.core_of(c)));
        }
        self.asserted.push((id, polarity, mark));
        Ok(None)
    }

    /// Retracts asserted atoms until `n` remain.
    pub fn backtrack(&mut self, n: usize) {
        if n < self.asserted.len() {
            self.sx.pop_to(self.asserted[n].2);
            self.asserted.truncate(n);
        }
    }

    /// Checks integer feasibility of the asserted atoms: the simplex first;
    /// a vertex that is already integral is the model. Otherwise
    /// branch-and-bound decides, on a context built afresh for the asserted
    /// atoms: its course depends on the vertex it starts from, and starting
    /// from scratch makes the answer a function of the atom set alone, not
    /// of where this context's assignment has drifted over its history.
    pub fn check(&mut self, config: &LiaConfig) -> Result<LiaOutcome, SolverError> {
        LIA_CALLS.add(1);
        let _span = tpot_obs::span_args(
            "solver",
            "lia",
            &[("atoms", self.asserted.len().to_string())],
        );
        if let Some(c) = self.sx.check()? {
            return Ok(LiaOutcome::Unsat(self.core_of(c)));
        }
        if pick_fractional(&self.sx, &self.int_vars, config).is_none() {
            return Ok(LiaOutcome::Sat(self.model()));
        }
        // The asserted atoms in id order — registration order, so the fresh
        // tableau numbers its variables as a context that saw them in one
        // batch would.
        let mut ids: Vec<(usize, bool)> = self.asserted.iter().map(|a| (a.0, a.1)).collect();
        ids.sort_unstable();
        let to_ids = |core: Vec<usize>| LiaOutcome::Unsat(core.iter().map(|&k| ids[k].0).collect());
        let mut fresh = IncLia::new();
        for &(id, polarity) in &ids {
            let atom = if polarity {
                self.atoms[id].clone()
            } else {
                self.atoms[id].negate()?
            };
            let k = fresh.register(&atom);
            if let Some(core) = fresh.assert_atom(k, true)? {
                return Ok(to_ids(core));
            }
        }
        if let Some(c) = fresh.sx.check()? {
            return Ok(to_ids(fresh.core_of(c)));
        }
        Ok(match fresh.branch_and_bound(config)? {
            LiaOutcome::Unsat(core) => to_ids(core),
            other => other,
        })
    }

    /// Depth-first branch-and-bound from the (feasible) current vertex,
    /// ceiling branch first. Branch bounds go on the simplex's undo stack,
    /// so memory stays linear in the depth, and are all retracted before
    /// returning. They are untagged, so an `Unsat` produced here reports
    /// every asserted atom as its core (the rational relaxation alone was
    /// feasible; no smaller certificate is available without cut
    /// generation).
    fn branch_and_bound(&mut self, config: &LiaConfig) -> Result<LiaOutcome, SolverError> {
        let base = self.sx.mark();
        // Floor branches not yet explored, newest last: (simplex mark of
        // the node, variable, floor).
        let mut pending: Vec<(usize, usize, Rat)> = Vec::new();
        let mut nodes = 0u64;
        let out = loop {
            // Here the current node is feasible.
            nodes += 1;
            BNB_NODES.add(1);
            if nodes > config.max_nodes {
                break LiaOutcome::Unknown;
            }
            let Some((v, val)) = pick_fractional(&self.sx, &self.int_vars, config) else {
                break LiaOutcome::Sat(self.model());
            };
            pending.push((self.sx.mark(), v, Rat::int(val.floor())));
            if self.branch(v, Rat::int(val.ceil()), false)? {
                continue;
            }
            let mut exhausted = true;
            while let Some((mark, v, floor)) = pending.pop() {
                self.sx.pop_to(mark);
                if self.branch(v, floor, true)? {
                    exhausted = false;
                    break;
                }
            }
            if exhausted {
                break LiaOutcome::Unsat(self.asserted.iter().map(|a| a.0).collect());
            }
        };
        self.sx.pop_to(base);
        Ok(out)
    }

    /// Asserts one branch bound; true if the node stays feasible.
    fn branch(&mut self, v: usize, bound: Rat, upper: bool) -> Result<bool, SolverError> {
        let conflict = if upper {
            self.sx.assert_upper(v, bound, None)?
        } else {
            self.sx.assert_lower(v, bound, None)?
        };
        Ok(conflict.is_none() && self.sx.check()?.is_none())
    }

    /// The current vertex as an integer model (every integer variable must
    /// be integral there).
    fn model(&self) -> HashMap<TermId, i128> {
        self.int_vars
            .iter()
            .map(|&(t, sv)| (t, self.sx.value(sv).as_integer().expect("integral")))
            .collect()
    }

    /// Checks the rational relaxation of the asserted atoms only; returns a
    /// conflict core if it is infeasible.
    pub fn check_relaxation(&mut self) -> Result<Option<Vec<usize>>, SolverError> {
        let _span = tpot_obs::span("solver", "lia");
        Ok(self.sx.check()?.map(|c| self.core_of(c)))
    }

    /// Atom ids of a simplex conflict. A conflict an untagged
    /// (branch-and-bound) bound took part in is explained by every
    /// asserted atom.
    fn core_of(&self, c: crate::simplex::Conflict) -> Vec<usize> {
        if c.tainted {
            self.asserted.iter().map(|a| a.0).collect()
        } else {
            c.tags
        }
    }
}

fn pick_fractional(
    s: &Simplex,
    int_vars: &[(TermId, usize)],
    config: &LiaConfig,
) -> Option<(usize, Rat)> {
    let mut pick: Option<(usize, Rat)> = None;
    for &(_, v) in int_vars {
        let val = s.value(v);
        if val.is_integer() {
            continue;
        }
        match (&pick, config.branch_lowest_index) {
            (None, _) => pick = Some((v, val)),
            (Some((pv, _)), true) => {
                if v < *pv {
                    pick = Some((v, val));
                }
            }
            (Some((_, pval)), false) => {
                let frac = |r: &Rat| r.sub(&Rat::int(r.floor())).unwrap_or(Rat::ZERO);
                if frac(&val) > frac(pval) {
                    pick = Some((v, val));
                }
            }
        }
    }
    pick
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linexpr::LinExpr;
    use tpot_smt::{Sort, TermArena};

    fn atom(lhs: LinExpr, bound: i128) -> LeAtom {
        LeAtom { expr: lhs, bound }
    }

    fn vars(n: usize) -> (TermArena, Vec<TermId>) {
        let mut a = TermArena::new();
        let vs = (0..n).map(|i| a.var(&format!("x{i}"), Sort::Int)).collect();
        (a, vs)
    }

    #[test]
    fn sat_simple() {
        let (_a, v) = vars(2);
        // x0 + x1 <= 5, -x0 <= -3 (x0 >= 3), -x1 <= -1 (x1 >= 1)
        let mut e01 = LinExpr::var(v[0]);
        e01 = e01.add(&LinExpr::var(v[1])).unwrap();
        let atoms = vec![
            atom(e01, 5),
            atom(LinExpr::var(v[0]).neg().unwrap(), -3),
            atom(LinExpr::var(v[1]).neg().unwrap(), -1),
        ];
        match solve_lia(&atoms, &LiaConfig::default()).unwrap() {
            LiaOutcome::Sat(m) => {
                let x0 = m[&v[0]];
                let x1 = m[&v[1]];
                assert!(x0 >= 3 && x1 >= 1 && x0 + x1 <= 5);
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn unsat_with_core() {
        let (_a, v) = vars(2);
        let mut e01 = LinExpr::var(v[0]);
        e01 = e01.add(&LinExpr::var(v[1])).unwrap();
        let atoms = vec![
            atom(e01, 3),                                // x0+x1 <= 3
            atom(LinExpr::var(v[0]).neg().unwrap(), -2), // x0 >= 2
            atom(LinExpr::var(v[1]).neg().unwrap(), -2), // x1 >= 2
        ];
        match solve_lia(&atoms, &LiaConfig::default()).unwrap() {
            LiaOutcome::Unsat(core) => assert_eq!(core.len(), 3),
            other => panic!("expected unsat, got {other:?}"),
        }
    }

    #[test]
    fn integrality_forces_branching() {
        let (_a, v) = vars(1);
        // 2x <= 5 and 2x >= 5 has rational solution 5/2 but no integer one.
        let two_x = LinExpr::var(v[0]).scale(2).unwrap();
        let atoms = vec![atom(two_x.clone(), 5), atom(two_x.neg().unwrap(), -5)];
        match solve_lia(&atoms, &LiaConfig::default()).unwrap() {
            LiaOutcome::Unsat(_) => {}
            other => panic!("expected unsat, got {other:?}"),
        }
    }

    #[test]
    fn integrality_sat_after_branch() {
        let (_a, v) = vars(2);
        // 2x + 2y <= 5, 2x + 2y >= 3 → x + y must round to 2 (or 1.5..2.5
        // range contains 2).
        let mut e = LinExpr::var(v[0]).scale(2).unwrap();
        e = e.add(&LinExpr::var(v[1]).scale(2).unwrap()).unwrap();
        let atoms = vec![atom(e.clone(), 5), atom(e.neg().unwrap(), -3)];
        match solve_lia(&atoms, &LiaConfig::default()).unwrap() {
            LiaOutcome::Sat(m) => {
                let s = 2 * (m[&v[0]] + m[&v[1]]);
                assert!((3..=5).contains(&s));
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn empty_input_sat() {
        match solve_lia(&[], &LiaConfig::default()).unwrap() {
            LiaOutcome::Sat(m) => assert!(m.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn trivially_false_atom() {
        let atoms = vec![atom(LinExpr::constant(0), -1)];
        match solve_lia(&atoms, &LiaConfig::default()).unwrap() {
            LiaOutcome::Unsat(core) => assert_eq!(core, vec![0]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn incremental_asserts_and_retracts_atoms() {
        let (_a, v) = vars(2);
        let mut e01 = LinExpr::var(v[0]);
        e01 = e01.add(&LinExpr::var(v[1])).unwrap();
        let mut inc = IncLia::new();
        let cfg = LiaConfig::default();
        let sum = inc.register(&atom(e01.clone(), 5)); // x0+x1 <= 5
        let x0 = inc.register(&atom(LinExpr::var(v[0]).neg().unwrap(), -3)); // x0 >= 3
        let x1 = inc.register(&atom(LinExpr::var(v[1]).neg().unwrap(), -3)); // x1 >= 3
                                                                             // The negated form shares the sum's canonical row.
        let ge7 = inc.register(&atom(e01.neg().unwrap(), -7)); // x0+x1 >= 7
        assert_eq!(inc.rows_extended, 1);
        assert_eq!(inc.rows_reused, 3, "each polarity of both sum atoms");
        assert!(inc.assert_atom(sum, true).unwrap().is_none());
        assert!(inc.assert_atom(x0, true).unwrap().is_none());
        assert!(matches!(inc.check(&cfg).unwrap(), LiaOutcome::Sat(_)));
        assert!(inc.assert_atom(x1, true).unwrap().is_none());
        match inc.check(&cfg).unwrap() {
            LiaOutcome::Unsat(mut core) => {
                core.sort_unstable();
                assert_eq!(core, vec![sum, x0, x1]);
            }
            other => panic!("expected unsat, got {other:?}"),
        }
        // Retracting x1 >= 3 restores feasibility from the same tableau.
        inc.backtrack(2);
        assert!(matches!(inc.check(&cfg).unwrap(), LiaOutcome::Sat(_)));
        // Negative polarity: ¬(x0 >= 3) is x0 <= 2, together with the sum's
        // negation (x0+x1 >= 6, since ¬(x0+x1 <= 5)).
        inc.backtrack(0);
        assert!(inc.assert_atom(x0, false).unwrap().is_none());
        assert!(inc.assert_atom(sum, false).unwrap().is_none());
        match inc.check(&cfg).unwrap() {
            LiaOutcome::Sat(m) => assert!(m[&v[0]] <= 2 && m[&v[0]] + m[&v[1]] >= 6),
            other => panic!("expected sat, got {other:?}"),
        }
        // Joint infeasibility over the row shows up in check.
        assert!(inc.assert_atom(x1, false).unwrap().is_none()); // x1 <= 2
        assert!(inc.assert_atom(ge7, true).unwrap().is_none());
        match inc.check(&cfg).unwrap() {
            LiaOutcome::Unsat(core) => assert!(core.contains(&ge7)),
            other => panic!("expected unsat, got {other:?}"),
        }
        // A direct bound clash is caught on assertion, names both atoms,
        // and leaves the clashing atom unasserted.
        let core = inc.assert_atom(sum, true).unwrap().expect("clash");
        assert!(core.contains(&sum) && core.contains(&ge7));
        assert_eq!(inc.num_asserted(), 4);
    }

    #[test]
    fn branch_and_bound_bounds_are_retracted() {
        let (_a, v) = vars(1);
        // 2x <= 5 and 2x >= 3: the relaxation says x = 2.5, B&B finds 2.
        let two_x = LinExpr::var(v[0]).scale(2).unwrap();
        let mut inc = IncLia::new();
        let cfg = LiaConfig::default();
        let le = inc.register(&atom(two_x.clone(), 5));
        let ge = inc.register(&atom(two_x.neg().unwrap(), -3));
        assert!(inc.assert_atom(le, true).unwrap().is_none());
        assert!(inc.assert_atom(ge, true).unwrap().is_none());
        match inc.check(&cfg).unwrap() {
            LiaOutcome::Sat(m) => assert_eq!(m[&v[0]], 2),
            other => panic!("expected sat, got {other:?}"),
        }
        // No branch bound survives the check: with both atoms retracted,
        // ¬(2x <= 5) needs x >= 3, which a leftover x <= 2 would forbid.
        inc.backtrack(0);
        assert!(inc.assert_atom(le, false).unwrap().is_none());
        match inc.check(&cfg).unwrap() {
            LiaOutcome::Sat(m) => assert!(m[&v[0]] >= 3),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn heap_layout_style_query() {
        // Typical TPot pointer-resolution shape: base1 + 4096 <= base2,
        // p = base1 + off, 0 <= off < 4096, and ask p >= base2 (must be
        // unsat).
        let (_a, v) = vars(3); // base1, base2, p
        let b1 = LinExpr::var(v[0]);
        let b2 = LinExpr::var(v[1]);
        let p = LinExpr::var(v[2]);
        let mut atoms = Vec::new();
        // base1 + 4096 - base2 <= 0
        atoms.push(atom(b1.add(&b2.neg().unwrap()).unwrap(), -4096));
        // p - base1 >= 0  →  base1 - p <= 0
        atoms.push(atom(b1.add(&p.neg().unwrap()).unwrap(), 0));
        // p - base1 <= 4095
        atoms.push(atom(p.add(&b1.neg().unwrap()).unwrap(), 4095));
        // p >= base2 → base2 - p <= 0
        atoms.push(atom(b2.add(&p.neg().unwrap()).unwrap(), 0));
        match solve_lia(&atoms, &LiaConfig::default()).unwrap() {
            LiaOutcome::Unsat(_) => {}
            other => panic!("expected unsat, got {other:?}"),
        }
    }
}
