//! One run of one workload: the library phase (timed `Verifier::verify`
//! calls), the service phase (an in-process `tpotd` under a closed loop
//! from a separate load-generating process) and, with tracing, one more
//! traced pass that gives the per-layer self times.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use tpot_daemon::{DaemonConfig, DaemonHandle};
use tpot_engine::{EngineConfig, PotStatus, Verifier, VerifyOptions};
use tpot_obs::json::{self, Value};

use crate::edits::Rng;
use crate::loadgen::{self, Sample};
use crate::probe::{span_totals, Snapshot, SpanTotal};
use crate::stats::{median, supported, windowed_percentile};
use crate::table::{judge, Part, Service, Verdict, Workload};

/// Set-ups per batch of a library workload (compile, lower, construct). A
/// run takes one batch before its timed calls and one after each, so that
/// `setup_s` samples the host across the run rather than in one instant.
const SETUP_BATCH: usize = 40;
/// Set-ups per run of the service workload (start, open, cold prime).
const SERVICE_SETUPS: usize = 2;
/// Repeats of the small timed probes (`ir.digest_ms`, `proofcache.flush_ms`).
const PROBE_REPEATS: usize = 5;
/// Length of the traced service loop.
const TRACED_LOOP_SECONDS: f64 = 5.0;

/// Where runs keep their scratch files, relative to the checkout root.
pub const OUT_DIR: &str = ".bench_out";

pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Named metrics in report order.
#[derive(Default, Debug)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    pub fn to_json(&self) -> Value {
        Value::Obj(
            self.0
                .iter()
                .map(|(n, v, u)| {
                    let m = vec![
                        ("value".into(), Value::Num(*v)),
                        ("unit".into(), Value::Str((*u).into())),
                    ];
                    (n.clone(), Value::Obj(m))
                })
                .collect(),
        )
    }
}

/// Verdicts checked against the table.
#[derive(Default, Debug, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub wrong: u64,
}

impl From<&Sample> for Tally {
    fn from(s: &Sample) -> Self {
        Tally {
            attempted: s.pots,
            wrong: s.wrong,
        }
    }
}

impl Tally {
    fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.wrong += other.wrong;
    }

    pub fn share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.wrong as f64 / self.attempted as f64
        }
    }
}

/// Everything one run measured.
#[derive(Default)]
pub struct RunResult {
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    /// Verdicts of the workload's own operations (`wrong_verdict_share`).
    pub primary: Tally,
    /// Every verdict the run checked, both phases.
    pub all: Tally,
    /// Reasons the run is not correct beyond wrong verdicts.
    pub problems: Vec<String>,
    /// Sample counts and other context for the report.
    pub details: Vec<(String, Value)>,
}

/// Runs `args.workload` once.
pub fn run(args: &Args) -> RunResult {
    // Ignore every `TPOT_*` knob of the calling environment: the workload
    // alone decides the configuration.
    tpot_obs::configure(tpot_obs::Config::default());
    let w = args.workload;
    let scratch = PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id()));
    let mut res = RunResult::default();

    let lib = (!w.parts.is_empty()).then(|| library(w, args, &mut res));
    let svc = service(w, args, &scratch, &mut res);
    let _ = std::fs::remove_dir_all(&scratch);

    let (verify_s, setup_s) = match &lib {
        Some(l) => (median(&l.verify_s), median(&l.setup_s)),
        None => (median(&svc.edit_engine_s()), median(&svc.setup_s)),
    };
    let hits = svc.rtt_ms(false);
    let edits = svc.rtt_ms(true);
    let e2e = &mut res.end_to_end;
    e2e.set("verify_s", verify_s, "s");
    e2e.set("setup_s", setup_s, "s");
    let rss = lib.as_ref().map_or(svc.peak_rss_mb, |l| l.peak_rss_mb);
    e2e.set("peak_rss_mb", rss, "MiB");
    let mut windows = Vec::new();
    for (name, xs, p) in [
        ("hit_p50_ms", &hits, 50.0),
        ("hit_p95_ms", &hits, loadgen::HIT_PERCENTILE),
        ("edit_p50_ms", &edits, 50.0),
        ("edit_p90_ms", &edits, loadgen::EDIT_PERCENTILE),
    ] {
        let (value, k) = windowed_percentile(xs, p);
        e2e.set(name, value, "ms");
        windows.push((name.to_string(), num(k)));
    }
    e2e.set(
        "requests_per_s",
        svc.samples.len() as f64 / svc.elapsed_s,
        "1/s",
    );
    for (what, n, p) in [
        ("hit", hits.len(), loadgen::HIT_PERCENTILE),
        ("edit", edits.len(), loadgen::EDIT_PERCENTILE),
    ] {
        if !supported(n, p) {
            res.problems.push(format!(
                "only {n} {what} samples: p{p} needs {} beyond it",
                crate::stats::MIN_BEYOND
            ));
        }
    }
    res.details.push((
        "samples".into(),
        Value::Obj(vec![
            (
                "verify".into(),
                num(lib.as_ref().map_or(edits.len(), |l| l.verify_s.len())),
            ),
            (
                "setup".into(),
                num(lib.as_ref().map_or(svc.setup_s.len(), |l| l.setup_s.len())),
            ),
            ("hit".into(), num(hits.len())),
            ("edit".into(), num(edits.len())),
            (
                "highest_hit_percentile".into(),
                opt(crate::stats::highest_supported(hits.len())),
            ),
            (
                "highest_edit_percentile".into(),
                opt(crate::stats::highest_supported(edits.len())),
            ),
            ("percentile_windows".into(), Value::Obj(windows)),
        ]),
    ));
    res.details
        .push(("service_core".into(), svc.core.map_or(Value::Null, num)));

    layers(&mut res, lib.as_ref(), &svc);
    res
}

fn num(n: usize) -> Value {
    Value::Num(n as f64)
}

fn opt(p: Option<f64>) -> Value {
    p.map_or(Value::Null, Value::Num)
}

/// What the library phase measured.
#[derive(Default)]
struct Library {
    setup_s: Vec<f64>,
    compile_ms: Vec<f64>,
    lower_ms: Vec<f64>,
    digest_ms: Vec<f64>,
    verify_s: Vec<f64>,
    /// Registry delta over the untraced timed verify calls.
    delta: Snapshot,
    /// Peak RSS after set-up and the first call set; repeats would measure
    /// the allocator's reuse of freed memory instead.
    peak_rss_mb: f64,
    traced: Option<Traced>,
}

/// What a traced pass measured.
struct Traced {
    spans: std::collections::BTreeMap<String, SpanTotal>,
    /// Wall-clock of the traced window.
    window_s: f64,
    /// Traced time ÷ untraced time for the same work.
    overhead_ratio: f64,
    dropped: u64,
}

fn library(w: &Workload, args: &Args, res: &mut RunResult) -> Library {
    let sources: Vec<String> = w.parts.iter().map(|p| p.module.source()).collect();
    let mut lib = Library::default();
    let verifiers = setup_batch(w, &sources, &mut lib);
    for _ in 0..PROBE_REPEATS {
        lib.digest_ms.push(digest_ms(
            w.parts
                .iter()
                .zip(&verifiers)
                .map(|(p, v)| (&v.module, p.pots)),
        ));
    }

    // The run's seed draws the POT order and steal seed of every call, so
    // the repeats of one run average over schedules.
    let mut rng = Rng::new(args.seed);
    let before = Snapshot::take();
    let start = Instant::now();
    loop {
        let (secs, tally) = verify_all(w.parts, &verifiers, &mut rng);
        lib.verify_s.push(secs);
        if lib.verify_s.len() == 1 {
            lib.peak_rss_mb = peak_rss_mb();
        }
        setup_batch(w, &sources, &mut lib);
        res.primary.add(tally);
        res.all.add(tally);
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    lib.delta = Snapshot::take().since(&before);

    if args.trace {
        let untraced = median(&lib.verify_s);
        lib.traced = Some(traced(w.name, args.seed, || {
            let (secs, tally) = verify_all(w.parts, &verifiers, &mut rng);
            res.all.add(tally);
            (secs, secs / untraced)
        }));
    }
    lib
}

/// [`SETUP_BATCH`] timed set-ups of every part: compile, lower and
/// `Verifier` construction. Returns the verifiers of the last one.
fn setup_batch(w: &Workload, sources: &[String], lib: &mut Library) -> Vec<Verifier> {
    let mut verifiers = Vec::new();
    for _ in 0..SETUP_BATCH {
        let (mut compile, mut lower) = (0.0, 0.0);
        let t0 = Instant::now();
        verifiers = w
            .parts
            .iter()
            .zip(sources)
            .map(|(p, src)| {
                let t = Instant::now();
                let checked = tpot_cfront::compile(src).expect("bundled target compiles");
                compile += ms(t);
                let t = Instant::now();
                let module = tpot_ir::lower(&checked).expect("bundled target lowers");
                lower += ms(t);
                let config = EngineConfig {
                    addr_mode: p.addr_mode,
                    ..EngineConfig::default()
                };
                Verifier::with_config(module, config)
            })
            .collect::<Vec<_>>();
        lib.setup_s.push(t0.elapsed().as_secs_f64());
        lib.compile_ms.push(compile);
        lib.lower_ms.push(lower);
    }
    verifiers
}

/// One timed `Verifier::verify` call per part, with POT order and steal
/// seed drawn from `rng`; returns the summed wall-clock and the judged
/// verdicts.
fn verify_all(parts: &[Part], verifiers: &[Verifier], rng: &mut Rng) -> (f64, Tally) {
    let mut secs = 0.0;
    let mut tally = Tally::default();
    for (p, v) in parts.iter().zip(verifiers) {
        let mut order = p.pots.to_vec();
        rng.shuffle(&mut order);
        let opts = VerifyOptions::new()
            .pots(order)
            .jobs(p.jobs)
            .steal_seed(rng.next_u64());
        let t = Instant::now();
        let results = {
            let _span = tpot_obs::span("bench", "verify");
            v.verify(&opts)
        };
        secs += t.elapsed().as_secs_f64();
        for r in &results {
            let verdict = match r.status {
                PotStatus::Proved => Verdict::Proved,
                PotStatus::Failed(_) => Verdict::Failed,
                PotStatus::Error(_) => Verdict::Error,
            };
            let wrong = judge(p.module, &r.pot, verdict);
            tally.attempted += 1;
            tally.wrong += u64::from(wrong);
            if wrong {
                eprintln!(
                    "perfbench: {} {}: {} (expected {})",
                    p.module.name(),
                    r.pot,
                    verdict.name(),
                    crate::table::expected(p.module, &r.pot)
                        .map_or("no entry", |e| e.verdict.name()),
                );
            }
        }
        // A requested POT without a result is a wrong verdict.
        let missing = p.pots.len().saturating_sub(results.len()) as u64;
        tally.attempted += missing;
        tally.wrong += missing;
    }
    (secs, tally)
}

/// `module_digest` plus `cone_digest` per requested POT, timed from outside.
fn digest_ms<'a>(modules: impl Iterator<Item = (&'a tpot_ir::Module, &'a [&'a str])>) -> f64 {
    let t = Instant::now();
    for (m, pots) in modules {
        std::hint::black_box(tpot_ir::diff::module_digest(m));
        for pot in pots {
            std::hint::black_box(tpot_ir::diff::cone_digest(m, pot));
        }
    }
    ms(t)
}

/// Runs `work` with span collection on and returns the span totals.
/// `work` returns (traced window seconds, overhead ratio).
fn traced(workload: &str, seed: u64, work: impl FnOnce() -> (f64, f64)) -> Traced {
    let dropped_before = tpot_obs::dropped_events();
    drop(tpot_obs::take_events());
    tpot_obs::configure(tpot_obs::Config::default().collect(true));
    let (window_s, overhead_ratio) = work();
    tpot_obs::configure(tpot_obs::Config::default());
    let events = tpot_obs::take_events();
    let dropped = tpot_obs::dropped_events() - dropped_before;
    let path = PathBuf::from(OUT_DIR).join(format!("trace-{workload}-seed{seed}.json"));
    let _ = std::fs::create_dir_all(OUT_DIR);
    let _ = tpot_obs::write_atomic(&path, &tpot_obs::trace::chrome_trace_json(&events, dropped));
    Traced {
        spans: span_totals(&events),
        window_s,
        overhead_ratio,
        dropped,
    }
}

/// What the service phase measured.
#[derive(Default)]
struct ServiceRun {
    setup_s: Vec<f64>,
    ir_ms: IrProbe,
    samples: Vec<Sample>,
    elapsed_s: f64,
    delta: Snapshot,
    coalesced_runs: f64,
    flush_ms: Vec<f64>,
    file_kb: f64,
    peak_rss_mb: f64,
    loop_peak_rss_mb: f64,
    traced: Option<Traced>,
    /// The core the phase ran on, if it could be pinned.
    core: Option<usize>,
}

impl ServiceRun {
    /// Per edit request, the daemon's engine time over the POTs it re-ran.
    fn edit_engine_s(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.edit)
            .map(|s| s.engine_ms / 1e3)
            .collect()
    }

    fn rtt_ms(&self, edit: bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.edit == edit)
            .map(|s| s.rtt_ms)
            .collect()
    }
}

/// Front-end timings of the served module, taken from outside the daemon.
#[derive(Default)]
struct IrProbe {
    compile_ms: Vec<f64>,
    lower_ms: Vec<f64>,
    digest_ms: Vec<f64>,
}

fn service(w: &Workload, args: &Args, scratch: &Path, res: &mut RunResult) -> ServiceRun {
    let svc = &w.service;
    let primary = w.parts.is_empty();
    let setups = if primary { SERVICE_SETUPS } else { 1 };
    let body = loadgen::request_body(svc, svc.module.source());
    // The service phase is the run's last, so the pin is never undone.
    let mut run = ServiceRun {
        core: crate::affinity::pin_to_one_core(),
        ..ServiceRun::default()
    };
    if run.core.is_none() {
        eprintln!("perfbench: could not pin the service phase to one core");
    }

    let cache_dir = scratch.join("cache-0");
    let (daemon, setup_s) = start_primed(svc, &cache_dir, &body, primary, res);
    run.setup_s.push(setup_s);
    // The peak of start and cold prime; the loop's peak depends on how
    // many edits the run's throughput allowed, so it is a layer metric.
    run.peak_rss_mb = peak_rss_mb();
    let addr = daemon.addr_string();

    // Front-end layers of the served module, timed from outside.
    let source = svc.module.source();
    for _ in 0..PROBE_REPEATS {
        let t = Instant::now();
        let checked = tpot_cfront::compile(&source).expect("served module compiles");
        run.ir_ms.compile_ms.push(ms(t));
        let t = Instant::now();
        let module = tpot_ir::lower(&checked).expect("served module lowers");
        run.ir_ms.lower_ms.push(ms(t));
        run.ir_ms
            .digest_ms
            .push(digest_ms(std::iter::once((&module, svc.pots))));
    }

    let seconds = w.service_seconds.unwrap_or(args.seconds);
    let before = Snapshot::take();
    let (samples, elapsed) = drive(w.name, args.seed, seconds, &addr);
    run.delta = Snapshot::take().since(&before);
    run.elapsed_s = elapsed;
    for s in &samples {
        res.all.add(s.into());
        if primary {
            res.primary.add(s.into());
        }
    }
    run.samples = samples;

    if args.trace && primary {
        let untraced_rate = run.samples.len() as f64 / run.elapsed_s;
        // Another seed gives other edit ids: the traced loop must not
        // resend the edits of the untraced one.
        let traced_seed = args.seed ^ 0x5eed;
        run.traced = Some(traced(w.name, args.seed, || {
            let (samples, elapsed) = drive(w.name, traced_seed, TRACED_LOOP_SECONDS, &addr);
            for s in &samples {
                res.all.add(s.into());
            }
            let rate = samples.len() as f64 / elapsed;
            (elapsed, untraced_rate / rate)
        }));
    }

    run.coalesced_runs = tpot_api::http::get(&addr, "/v1/status")
        .ok()
        .and_then(|(_, body)| json::parse(&body).ok())
        .and_then(|v| v.get("coalesced_runs").and_then(Value::as_f64))
        .unwrap_or(0.0);
    // Before any further set-up: the peak of one daemon serving its loop.
    run.loop_peak_rss_mb = peak_rss_mb();
    daemon.shutdown();

    let cache_file = cache_dir.join("proofs.cache");
    for k in 0..PROBE_REPEATS {
        let t = Instant::now();
        let mut cache =
            tpot_portfolio::ProofCache::open(&cache_file).expect("daemon cache file opens");
        // A flush of an unmodified cache is a no-op; one new entry makes it
        // merge, render and rename the whole file as the daemon does.
        cache.put_query(u64::MAX - k as u64, 0, tpot_portfolio::CachedOutcome::Unsat);
        cache.flush().expect("cache flush");
        run.flush_ms.push(ms(t));
    }
    run.file_kb = std::fs::metadata(&cache_file).map_or(0.0, |m| m.len() as f64 / 1024.0);

    // Further set-ups only time `setup_s`.
    for k in 1..setups {
        let dir = scratch.join(format!("cache-{k}"));
        let (daemon, setup_s) = start_primed(svc, &dir, &body, primary, res);
        run.setup_s.push(setup_s);
        daemon.shutdown();
    }
    run
}

/// Starts a daemon on an empty cache directory and sends it the cold
/// priming request; returns it with the seconds that took.
fn start_primed(
    svc: &Service,
    cache_dir: &Path,
    body: &str,
    primary: bool,
    res: &mut RunResult,
) -> (DaemonHandle, f64) {
    let t0 = Instant::now();
    let daemon = tpot_daemon::start(
        DaemonConfig::new()
            .addr("127.0.0.1:0")
            .cache_dir(cache_dir)
            .default_jobs(1),
    )
    .expect("tpotd starts");
    let prime = loadgen::send(&daemon.addr_string(), svc, body, false);
    let secs = t0.elapsed().as_secs_f64();
    let t = Tally::from(&prime);
    res.all.add(t);
    if primary {
        res.primary.add(t);
    }
    if !prime.ok {
        res.problems.push("the cold priming request failed".into());
    }
    (daemon, secs)
}

/// Runs the load generator as a child process and collects its samples.
fn drive(workload: &str, seed: u64, seconds: f64, addr: &str) -> (Vec<Sample>, f64) {
    let exe = std::env::current_exe().expect("own executable path");
    let cap = (3.0 * seconds).max(30.0);
    let out = Command::new(exe)
        .args(["loadgen", "--workload", workload, "--addr", addr])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--cap", &cap.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("load generator starts");
    assert!(
        out.status.success(),
        "load generator failed: {}",
        out.status
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let mut samples = Vec::new();
    let mut elapsed = 0.0;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = json::parse(line).expect("load generator prints JSON lines");
        match v.get("elapsed_s").and_then(Value::as_f64) {
            Some(e) => elapsed = e,
            None => samples.push(Sample::from_json(&v).expect("well-formed sample")),
        }
    }
    (samples, elapsed)
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-layer metrics. Engine, scheduler, solver and SAT counters come from
/// the workload's own operations: the timed verify calls of a library
/// workload (per call), the request loop of the service workload (per
/// loop). Proof-cache and daemon counters come from the service loop.
fn layers(res: &mut RunResult, lib: Option<&Library>, svc: &ServiceRun) {
    let (work, per) = match lib {
        Some(l) => (&l.delta, l.verify_s.len() as f64),
        None => (&svc.delta, 1.0),
    };
    let c = |name: &str| work.counter(name) / per;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let traced = lib.and_then(|l| l.traced.as_ref()).or(svc.traced.as_ref());
    let self_ms = |key: &str| {
        traced.map_or(0.0, |t| {
            t.spans.get(key).map_or(0, |s| s.self_us) as f64 / 1e3
        })
    };
    let m = &mut res.per_layer;

    let (compile, lower, digest) = match lib {
        Some(l) => (
            median(&l.compile_ms),
            median(&l.lower_ms),
            median(&l.digest_ms),
        ),
        None => (
            median(&svc.ir_ms.compile_ms),
            median(&svc.ir_ms.lower_ms),
            median(&svc.ir_ms.digest_ms),
        ),
    };
    m.set("cfront.compile_ms", compile, "ms");
    m.set("ir.lower_ms", lower, "ms");
    m.set("ir.digest_ms", digest, "ms");

    for k in ["queries", "paths", "insts", "forks"] {
        m.set(&format!("engine.{k}"), c(&format!("engine.{k}")), "count");
    }
    for k in [
        "pointers",
        "branches",
        "assertions",
        "simplify",
        "serialization",
    ] {
        let name = format!("engine.time.{k}_us");
        m.set(&name, c(&name), "us");
    }
    let q = work.buckets("engine.query_us");
    m.set(
        "engine.query_p50_us",
        crate::stats::hist_quantile(&q, 0.50),
        "us",
    );
    m.set(
        "engine.query_p99_us",
        crate::stats::hist_quantile(&q, 0.99),
        "us",
    );
    m.set("engine.verify_pot.self_ms", self_ms("engine.episode"), "ms");

    m.set("sched.steals", c("sched.steals"), "count");
    m.set(
        "sched.idle_ms",
        traced.map_or(0.0, |t| {
            t.spans.get("sched.idle").map_or(0, |s| s.total_us) as f64 / 1e3
        }),
        "ms",
    );
    m.set(
        "sched.handoff_reblast_ratio",
        ratio(
            c("sched.handoff_reblast_terms"),
            c("sched.handoff_baseline_terms"),
        ),
        "ratio",
    );

    for k in ["preprocess", "bitblast", "dpllt", "lia"] {
        m.set(
            &format!("solver.{k}_ms"),
            self_ms(&format!("solver.{k}")),
            "ms",
        );
    }
    m.set(
        "solver.rounds_per_query",
        ratio(c("sat.solves"), c("engine.queries")),
        "ratio",
    );
    for k in [
        "solver.lia.calls",
        "solver.lia.bnb_nodes",
        "solver.simplex.pivots",
    ] {
        m.set(k, c(k), "count");
    }
    let (hit, miss) = (c("solver.session.hit"), c("solver.session.miss"));
    m.set("solver.session.hit_rate", ratio(hit, hit + miss), "ratio");
    m.set(
        "solver.session.reblasted_terms",
        c("solver.session.reblasted_terms"),
        "count",
    );

    for k in ["solves", "conflicts", "decisions", "propagations"] {
        m.set(&format!("sat.{k}"), c(&format!("sat.{k}")), "count");
    }
    m.set(
        "sat.decisions_per_conflict",
        ratio(c("sat.decisions"), c("sat.conflicts")),
        "ratio",
    );
    m.set("sat.inprocess_ms", c("sat.inprocess_us") / 1e3, "ms");

    let sc = |name: &str| svc.delta.counter(name);
    m.set("proofcache.query_hits", sc("solver.cache.hits"), "count");
    m.set(
        "proofcache.query_misses",
        sc("solver.cache.misses"),
        "count",
    );
    m.set("proofcache.pot_hits", sc("solver.cache.pot_hits"), "count");
    m.set(
        "proofcache.pot_misses",
        sc("solver.cache.pot_misses"),
        "count",
    );
    m.set("proofcache.flush_ms", median(&svc.flush_ms), "ms");
    m.set("proofcache.file_kb", svc.file_kb, "KiB");

    let service: Vec<f64> = svc.samples.iter().map(|s| s.service_ms).collect();
    let transport: Vec<f64> = svc
        .samples
        .iter()
        .map(|s| s.rtt_ms - s.service_ms)
        .collect();
    m.set("daemon.service_p50_ms", median(&service), "ms");
    m.set("api.transport_p50_ms", median(&transport), "ms");
    let sum = |f: fn(&Sample) -> u64| svc.samples.iter().map(f).sum::<u64>() as f64;
    m.set("daemon.provenance.cached", sum(|s| s.cached), "count");
    m.set("daemon.provenance.replayed", sum(|s| s.replayed), "count");
    m.set("daemon.provenance.solved", sum(|s| s.solved), "count");
    m.set("daemon.coalesced_runs", svc.coalesced_runs, "count");
    m.set("daemon.peak_rss_mb", svc.loop_peak_rss_mb, "MiB");

    m.set(
        "obs.events_dropped",
        traced.map_or(0, |t| t.dropped) as f64,
        "count",
    );
    m.set(
        "trace_overhead_ratio",
        traced.map_or(0.0, |t| t.overhead_ratio),
        "ratio",
    );
    // Share of the traced window the program's own spans account for
    // (self time summed over threads, so parallel work can exceed 1).
    let covered: u64 = traced.map_or(0, |t| {
        t.spans
            .iter()
            .filter(|(k, _)| !k.starts_with("bench."))
            .map(|(_, s)| s.self_us)
            .sum()
    });
    m.set(
        "trace.self_time_coverage",
        traced.map_or(0.0, |t| ratio(covered as f64 / 1e6, t.window_s)),
        "ratio",
    );
    let share = res.primary.share();
    res.per_layer.set("wrong_verdict_share", share, "share");
}
