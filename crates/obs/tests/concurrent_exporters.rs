//! Exporters under concurrency: worker threads emit spans while other
//! threads flush the Chrome-trace and span-JSONL sinks mid-stream, and the
//! slow-query watchdog dumps a repro for a query that is *still running*.
//! Lives in its own integration-test binary (= its own process) because it
//! reconfigures the global obs singleton; phases within one #[test] for
//! the same reason.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use tpot_obs::json::{parse, Value};
use tpot_obs::{configure, flush, instant, span_args, take_events, trace, Config};

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("tpot-obs-test-{}-{name}", std::process::id()))
}

#[test]
fn concurrent_workers_flush_and_watchdog() {
    // Phase 1: 4 workers emit nested spans while 2 flushers rewrite the
    // sinks mid-emission. Every intermediate flush must leave parseable
    // files (atomic temp+rename — a torn file would fail `parse`), and the
    // final flush must contain every record, well-formed.
    let trace_path = tmp("trace.json");
    let spans_path = tmp("spans.jsonl");
    configure(
        Config {
            collect_spans: true,
            ..Default::default()
        }
        .trace(&trace_path)
        .spans(&spans_path),
    );
    let _ = take_events();

    let stop = Arc::new(AtomicBool::new(false));
    let flushers: Vec<_> = (0..2)
        .map(|_| {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut flushes = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    flush().expect("mid-stream flush");
                    flushes += 1;
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                flushes
            })
        })
        .collect();
    let workers: Vec<_> = (0..4)
        .map(|w| {
            std::thread::spawn(move || {
                for i in 0..64 {
                    let _ep = span_args("engine", "episode", &[("pot", format!("pot_{w}"))]);
                    instant("engine", "path_done", &[("pid", format!("{i}"))]);
                    let _q = span_args("solver", "check", &[("fingerprint", format!("{i:x}"))]);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let mid_flushes: u64 = flushers.into_iter().map(|f| f.join().unwrap()).sum();
    assert!(mid_flushes > 0, "flushers must have run mid-emission");
    flush().expect("final flush");

    // The span JSONL parses line-by-line and is exactly the event stream:
    // per-thread B/E nesting closes (workers joined before the final
    // flush) and the counts match what the workers emitted.
    let jsonl = std::fs::read_to_string(&spans_path).unwrap();
    let events = trace::parse_jsonl(&jsonl).expect("every JSONL record parses");
    assert_eq!(events.len(), 4 * 64 * (2 * 2 + 1));
    let matched = trace::check_well_formed(&events).expect("nesting closes per thread");
    assert_eq!(matched, 4 * 64 * 2);

    // The Chrome trace parses, is globally and per-thread sorted (the
    // sort is stable, so same-timestamp events keep per-thread emission
    // order and nesting survives), and has one record per event.
    let doc = parse(&std::fs::read_to_string(&trace_path).unwrap()).expect("trace parses");
    let arr = doc.get("traceEvents").and_then(Value::as_arr).unwrap();
    assert_eq!(arr.len(), events.len());
    let mut last_global = f64::MIN;
    let mut last_by_tid: std::collections::HashMap<u64, f64> = Default::default();
    for e in arr {
        for k in ["ph", "name", "cat"] {
            assert!(e.get(k).and_then(Value::as_str).is_some(), "missing {k}");
        }
        let ts = e.get("ts").and_then(Value::as_f64).unwrap();
        let tid = e.get("tid").and_then(Value::as_f64).unwrap() as u64;
        assert!(ts >= last_global, "global ts order");
        last_global = ts;
        let prev = last_by_tid.entry(tid).or_insert(f64::MIN);
        assert!(ts >= *prev, "per-thread ts order");
        *prev = ts;
    }
    assert_eq!(
        doc.get("otherData")
            .and_then(|o| o.get("dropped_events"))
            .and_then(Value::as_f64),
        Some(0.0)
    );

    // Phase 2: the watchdog dumps a repro for a query still in flight.
    // Threshold 50ms, query "runs" 400ms: the monitor thread must write
    // the dump while the guard is still alive (mid-query), marked as such.
    let dump_dir = tmp("slow-queries");
    let _ = std::fs::remove_dir_all(&dump_dir);
    configure(
        Config {
            slow_query_dir: Some(dump_dir.clone()),
            ..Default::default()
        }
        .slow_query(50),
    );
    let fp = 0xdead_beef_u64;
    let smtlib = Arc::new("(assert false)\n(check-sat)\n".to_string());
    let guard = tpot_obs::watchdog::register(fp, smtlib.clone());
    let dump_path = dump_dir.join(format!("slow-{fp:016x}.smt2"));
    let mut dumped_mid_query = false;
    for _ in 0..80 {
        std::thread::sleep(std::time::Duration::from_millis(5));
        if dump_path.exists() {
            dumped_mid_query = true;
            break;
        }
    }
    assert!(dumped_mid_query, "watchdog must dump while query runs");
    let dump = std::fs::read_to_string(&dump_path).unwrap();
    assert!(dump.contains("still running"), "dump marks in-flight");
    assert!(dump.contains(smtlib.as_str()), "dump replays the query");
    drop(guard);
    // One dump per fingerprint: deregistration past the threshold must
    // not rewrite or duplicate the artifact.
    let n = std::fs::read_dir(&dump_dir).unwrap().count();
    assert_eq!(n, 1);

    // Cleanup (best effort).
    configure(Config::default());
    let _ = std::fs::remove_file(&trace_path);
    let _ = std::fs::remove_file(&spans_path);
    let _ = std::fs::remove_dir_all(&dump_dir);
}
