//! Integration tests for the obs crate: JSONL round-trips, Chrome-trace
//! well-formedness under multi-threaded span forking, and parity of the
//! disabled path. These run in one process and share the global obs
//! singleton, so they are a single #[test] with phases rather than many
//! tests racing over `configure`/`take_events`.

use tpot_obs::{configure, instant, span_args, take_events, trace, Config};

fn tracing_cfg() -> Config {
    Config {
        collect_spans: true,
        ..Default::default()
    }
}

#[test]
fn spans_roundtrip_and_well_formedness() {
    // Phase 1: multi-threaded nested spans must yield a well-formed trace.
    configure(tracing_cfg());
    let _ = take_events();

    let workers: Vec<_> = (0..4)
        .map(|w| {
            std::thread::spawn(move || {
                for i in 0..8 {
                    let _outer =
                        span_args("engine", "verify_pot", &[("pot", format!("pot_{w}_{i}"))]);
                    instant("engine", "fork", &[("path", format!("{i}"))]);
                    {
                        let _inner = span_args(
                            "solver",
                            "check",
                            &[("fingerprint", format!("{:016x}", w * 100 + i))],
                        );
                    }
                }
            })
        })
        .collect();
    {
        let _main = span_args("bench", "harness", &[]);
        instant("bench", "tick", &[]);
    }
    for w in workers {
        w.join().unwrap();
    }

    let events = take_events();
    // 4 threads × 8 iterations × 2 spans + 1 main span = 65 spans,
    // plus 4×8 + 1 instants.
    let matched = trace::check_well_formed(&events).expect("well-formed");
    assert_eq!(matched, 4 * 8 * 2 + 1);
    assert_eq!(
        events
            .iter()
            .filter(|e| e.phase == tpot_obs::Phase::Instant)
            .count(),
        4 * 8 + 1
    );

    // Phase 2: JSONL round-trip preserves every field.
    let jsonl = trace::events_jsonl(&events);
    let parsed = trace::parse_jsonl(&jsonl).expect("parse jsonl");
    assert_eq!(parsed, events);

    // Phase 3: the Chrome-trace document parses and has one entry per
    // event, sorted by ts.
    let doc = tpot_obs::json::parse(&trace::chrome_trace_json(&events, 0)).expect("parse trace");
    let arr = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
    assert_eq!(arr.len(), events.len());
    let ts: Vec<f64> = arr
        .iter()
        .map(|e| e.get("ts").and_then(|v| v.as_f64()).unwrap())
        .collect();
    assert!(ts.windows(2).all(|w| w[0] <= w[1]), "ts must be sorted");
    for e in arr {
        let ph = e.get("ph").and_then(|v| v.as_str()).unwrap();
        assert!(matches!(ph, "B" | "E" | "i"));
        assert!(e.get("tid").is_some() && e.get("pid").is_some());
    }

    // Phase 4: with tracing disabled, span sites collect nothing.
    configure(Config::default());
    {
        let _s = span_args("engine", "verify_pot", &[("pot", "p".into())]);
        instant("engine", "fork", &[]);
    }
    assert!(take_events().is_empty());
    assert!(!tpot_obs::tracing_enabled());
}

#[test]
fn malformed_jsonl_is_rejected() {
    assert!(trace::parse_jsonl("{\"ph\":\"B\"}\n").is_err()); // missing fields
    assert!(trace::parse_jsonl("not json\n").is_err());
    assert!(trace::parse_jsonl("").unwrap().is_empty());
}

#[test]
fn unbalanced_traces_are_detected() {
    use tpot_obs::{Event, Phase};
    let ev = |phase, name: &str, ts, tid| Event {
        phase,
        cat: "test",
        name: name.to_string(),
        ts_us: ts,
        tid,
        args: Vec::new(),
    };
    // E with no B.
    assert!(trace::check_well_formed(&[ev(Phase::End, "x", 1, 1)]).is_err());
    // B left open.
    assert!(trace::check_well_formed(&[ev(Phase::Begin, "x", 1, 1)]).is_err());
    // Mismatched nesting across one thread.
    assert!(trace::check_well_formed(&[
        ev(Phase::Begin, "a", 1, 1),
        ev(Phase::Begin, "b", 2, 1),
        ev(Phase::End, "a", 3, 1),
        ev(Phase::End, "b", 4, 1),
    ])
    .is_err());
    // Same interleaving on different threads is fine.
    assert_eq!(
        trace::check_well_formed(&[
            ev(Phase::Begin, "a", 1, 1),
            ev(Phase::Begin, "b", 2, 2),
            ev(Phase::End, "a", 3, 1),
            ev(Phase::End, "b", 4, 2),
        ]),
        Ok(2)
    );
}
