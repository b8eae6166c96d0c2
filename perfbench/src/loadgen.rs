//! The load generator: a separate process that drives a closed loop of
//! verify requests against a running `tpotd`, with [`CLIENTS`] clients
//! that each send their next request as soon as the previous reply
//! arrives (no think time). It prints one JSON line per request and a
//! final line with the loop's wall-clock.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tpot_api::{http, PotStatusWire, VerifyRequest, VerifyResponse};
use tpot_obs::json::{self, Value};

use crate::edits::{apply_edit, Request, RequestGen};
use crate::stats::supported;
use crate::table::{judge, Service, Verdict};

/// Concurrent clients, each with one request in flight. One: with more
/// requests in flight than the host has cores to spare, the latencies
/// measure the guest's scheduler rather than the daemon.
pub const CLIENTS: usize = 1;

/// Percentiles the loop must support before it may stop.
pub const HIT_PERCENTILE: f64 = 95.0;
pub const EDIT_PERCENTILE: f64 = 90.0;

/// One completed request, as the client saw it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Sample {
    pub edit: bool,
    /// Client round-trip time.
    pub rtt_ms: f64,
    /// The server's own `duration_ms`.
    pub service_ms: f64,
    /// Engine time over the POTs the daemon re-ran (`duration_ms` of every
    /// outcome not served from the POT table).
    pub engine_ms: f64,
    /// HTTP 200 with no request-level error.
    pub ok: bool,
    /// POT verdicts requested.
    pub pots: u64,
    /// Verdicts that differ from the expected table (all of them when the
    /// request failed).
    pub wrong: u64,
    pub cached: u64,
    pub replayed: u64,
    pub solved: u64,
}

impl Sample {
    pub fn to_json(&self) -> Value {
        let n = |x: u64| Value::Num(x as f64);
        Value::Obj(vec![
            ("edit".into(), Value::Bool(self.edit)),
            ("rtt_ms".into(), Value::Num(self.rtt_ms)),
            ("service_ms".into(), Value::Num(self.service_ms)),
            ("engine_ms".into(), Value::Num(self.engine_ms)),
            ("ok".into(), Value::Bool(self.ok)),
            ("pots".into(), n(self.pots)),
            ("wrong".into(), n(self.wrong)),
            ("cached".into(), n(self.cached)),
            ("replayed".into(), n(self.replayed)),
            ("solved".into(), n(self.solved)),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Self> {
        let f = |k: &str| v.get(k).and_then(Value::as_f64);
        let b = |k: &str| matches!(v.get(k), Some(Value::Bool(true)));
        Some(Sample {
            edit: b("edit"),
            rtt_ms: f("rtt_ms")?,
            service_ms: f("service_ms")?,
            engine_ms: f("engine_ms")?,
            ok: b("ok"),
            pots: f("pots")? as u64,
            wrong: f("wrong")? as u64,
            cached: f("cached")? as u64,
            replayed: f("replayed")? as u64,
            solved: f("solved")? as u64,
        })
    }
}

/// The wire body of a verify request for `source`.
pub fn request_body(svc: &Service, source: String) -> String {
    VerifyRequest::for_source(source)
        .with_pots(svc.pots.iter().copied())
        .with_addr_mode(svc.addr_mode)
        .to_json()
        .render()
}

/// Sends one request and judges every verdict in the reply.
pub fn send(addr: &str, svc: &Service, body: &str, edit: bool) -> Sample {
    let t0 = Instant::now();
    let reply = http::post(addr, "/v1/verify", body);
    let rtt_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut s = Sample {
        edit,
        rtt_ms,
        pots: svc.pots.len() as u64,
        ..Sample::default()
    };
    let resp = match reply {
        Ok((200, text)) => json::parse(&text)
            .ok()
            .and_then(|v| VerifyResponse::from_json(&v).ok())
            .filter(|r| r.error.is_none()),
        _ => None,
    };
    let Some(resp) = resp else {
        s.wrong = s.pots;
        return s;
    };
    s.ok = true;
    s.service_ms = resp.duration_ms;
    for pot in svc.pots {
        let Some(o) = resp.pots.iter().find(|o| o.pot == *pot) else {
            s.wrong += 1;
            continue;
        };
        let verdict = match o.status {
            PotStatusWire::Proved => Verdict::Proved,
            PotStatusWire::Failed => Verdict::Failed,
            PotStatusWire::Error => Verdict::Error,
        };
        s.wrong += u64::from(judge(svc.module, pot, verdict));
        match o.provenance {
            tpot_api::CacheProvenance::Cached => s.cached += 1,
            tpot_api::CacheProvenance::Replayed => s.replayed += 1,
            tpot_api::CacheProvenance::Solved => s.solved += 1,
        }
        if o.provenance != tpot_api::CacheProvenance::Cached {
            s.engine_ms += o.duration_ms;
        }
    }
    s
}

/// Runs the closed loop until `seconds` have passed and both named
/// percentiles are supported, or until `cap_seconds`. Prints the samples
/// as JSON lines, then `{"elapsed_s": …}`.
pub fn run(svc: &Service, seed: u64, seconds: f64, cap_seconds: f64, addr: &str) {
    let source = svc.module.source();
    let unchanged = Arc::new(request_body(svc, source.clone()));
    let gen = Mutex::new(RequestGen::new(seed, svc.edit_functions));
    let (hits, edits) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let samples = Mutex::new(Vec::new());
    let start = Instant::now();
    let done = || {
        let t = start.elapsed().as_secs_f64();
        t >= cap_seconds
            || (t >= seconds
                && supported(hits.load(Ordering::SeqCst), HIT_PERCENTILE)
                && supported(edits.load(Ordering::SeqCst), EDIT_PERCENTILE))
    };
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                while !done() {
                    let req = gen.lock().expect("generator lock").next_request();
                    let (body, edit) = match req {
                        Request::Unchanged => (unchanged.clone(), false),
                        Request::Edit { function, id } => (
                            Arc::new(request_body(svc, apply_edit(&source, function, id))),
                            true,
                        ),
                    };
                    let sample = send(addr, svc, &body, edit);
                    let counter = if edit { &edits } else { &hits };
                    counter.fetch_add(1, Ordering::SeqCst);
                    samples.lock().expect("sample lock").push(sample);
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut out = String::new();
    for s in samples.into_inner().expect("sample lock") {
        out.push_str(&s.to_json().render());
        out.push('\n');
    }
    out.push_str(&Value::Obj(vec![("elapsed_s".into(), Value::Num(elapsed))]).render());
    println!("{out}");
}
