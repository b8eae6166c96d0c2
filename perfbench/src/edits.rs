//! The request sequence of a service loop.
//!
//! Four requests in five resend the module unchanged; the fifth adds a
//! fresh dead local at the top of one of the workload's edit functions.
//! A dead local preserves the program's meaning but changes the TIR of the
//! function, so every POT whose cone contains it misses the POT table and
//! re-runs. Edit ids count up from a base taken from the seed, so no edit
//! repeats within a generator, nor between generators whose seeds differ
//! in the low 32 bits.
//!
//! The mix is the same in every run; the seed decides only the order.
//! Requests come in rounds of [`ROUND`] with the edit at a seeded place,
//! and edits in cycles of [`CYCLE`] in seeded order, where the first edit
//! function takes all slots but one per other function. Edits of different
//! functions re-run different cones and cost different amounts, so a
//! drawn mix would move the edit percentiles from run to run, and an even
//! one would put the median on the gap between the two costs.

/// Requests per round; one of them is an edit.
pub const ROUND: usize = 5;
/// Share of requests that carry an edit.
pub const EDIT_SHARE: f64 = 1.0 / ROUND as f64;
/// Edits per cycle of edit functions.
pub const CYCLE: usize = 4;

/// SplitMix64: a small, seedable, portable generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in 0..n (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// One request of the loop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    Unchanged,
    Edit { function: &'static str, id: u64 },
}

/// The seeded request sequence.
#[derive(Debug)]
pub struct RequestGen {
    rng: Rng,
    functions: &'static [&'static str],
    next_id: u64,
    /// Place of the edit in the current round, and the request count in it.
    edit_at: usize,
    in_round: usize,
    /// Functions left to edit in the current cycle.
    cycle: Vec<&'static str>,
}

impl RequestGen {
    /// `functions` must hold 1 to [`CYCLE`] names.
    pub fn new(seed: u64, functions: &'static [&'static str]) -> Self {
        assert!((1..=CYCLE).contains(&functions.len()));
        RequestGen {
            rng: Rng::new(seed ^ 0x7470_6f74_6465_6474),
            functions,
            next_id: (seed & 0xffff_ffff) << 32,
            edit_at: 0,
            in_round: ROUND,
            cycle: Vec::new(),
        }
    }

    pub fn next_request(&mut self) -> Request {
        if self.in_round == ROUND {
            self.in_round = 0;
            self.edit_at = self.rng.below(ROUND);
        }
        self.in_round += 1;
        if self.in_round - 1 != self.edit_at {
            return Request::Unchanged;
        }
        if self.cycle.is_empty() {
            let first = CYCLE + 1 - self.functions.len();
            self.cycle = std::iter::repeat_n(self.functions[0], first)
                .chain(self.functions[1..].iter().copied())
                .collect();
            self.rng.shuffle(&mut self.cycle);
        }
        let function = self.cycle.pop().expect("cycle refilled above");
        self.next_id += 1;
        Request::Edit {
            function,
            id: self.next_id,
        }
    }
}

/// `src` with `unsigned long perfbench_edit_<id> = <id>UL;` added as the first
/// statement of `function`'s body. Panics if `function` is not defined in
/// `src`.
pub fn apply_edit(src: &str, function: &str, id: u64) -> String {
    let def = src
        .match_indices(function)
        .map(|(at, _)| at)
        .find(|&at| {
            let rest = &src[at + function.len()..];
            let before = src[..at].chars().next_back();
            rest.starts_with('(')
                && matches!(before, Some(' ' | '*'))
                && rest.find('{').is_some_and(|b| !rest[..b].contains(';'))
        })
        .unwrap_or_else(|| panic!("no definition of {function} in the source"));
    let brace = def + src[def..].find('{').expect("definition has a body") + 1;
    format!(
        "{}\n  unsigned long perfbench_edit_{id} = {id}UL;{}",
        &src[..brace],
        &src[brace..]
    )
}
