//! Layer numbers taken from outside the program: deltas of the counters
//! the `tpot_obs` registry already exports, and self times of the spans
//! the program already emits when tracing is on.
//!
//! The registry is process-wide, so a delta is only meaningful around work
//! that nothing else in the process overlaps; the benchmark runs one
//! workload per process and takes deltas around each phase.

use std::collections::BTreeMap;

use tpot_obs::json::{self, Value};
use tpot_obs::{Event, Phase};

/// A copy of the registry's counters and histograms.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    counters: BTreeMap<String, f64>,
    histograms: BTreeMap<String, BTreeMap<u64, u64>>,
}

impl Snapshot {
    pub fn take() -> Self {
        let doc = json::parse(&tpot_obs::metrics::to_json()).expect("registry exports valid JSON");
        let mut snap = Snapshot::default();
        if let Some(Value::Obj(cs)) = doc.get("counters") {
            for (name, v) in cs {
                snap.counters
                    .insert(name.clone(), v.as_f64().unwrap_or(0.0));
            }
        }
        if let Some(Value::Obj(hs)) = doc.get("histograms") {
            for (name, h) in hs {
                let buckets = h
                    .get("buckets")
                    .and_then(Value::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|b| {
                        let b = b.as_arr()?;
                        Some((b.first()?.as_f64()? as u64, b.get(1)?.as_f64()? as u64))
                    })
                    .collect();
                snap.histograms.insert(name.clone(), buckets);
            }
        }
        snap
    }

    /// `self − before`, counter by counter and bucket by bucket.
    pub fn since(&self, before: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    v - before.counters.get(k).copied().unwrap_or(0.0),
                )
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let prev = before.histograms.get(k);
                let d = h
                    .iter()
                    .map(|(f, c)| (*f, c - prev.and_then(|p| p.get(f)).copied().unwrap_or(0)))
                    .filter(|(_, c)| *c > 0)
                    .collect();
                (k.clone(), d)
            })
            .collect();
        Snapshot {
            counters,
            histograms,
        }
    }

    /// A counter's value (0 when never registered).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// `(floor, count)` buckets of a histogram, in bucket order.
    pub fn buckets(&self, name: &str) -> Vec<(u64, u64)> {
        self.histograms
            .get(name)
            .map(|h| h.iter().map(|(f, c)| (*f, *c)).collect())
            .unwrap_or_default()
    }
}

/// Totals of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanTotal {
    /// Summed durations.
    pub total_us: u64,
    /// Summed durations minus the part covered by child spans on the same
    /// thread.
    pub self_us: u64,
}

/// Totals per `cat.name` over every span that closed in `events`. Spans
/// nest per thread; a span's self time is its duration minus the
/// durations of its direct children.
pub fn span_totals(events: &[Event]) -> BTreeMap<String, SpanTotal> {
    // Per thread: open spans as (key, start, time covered by children).
    let mut stacks: BTreeMap<u64, Vec<(String, u64, u64)>> = BTreeMap::new();
    let mut totals: BTreeMap<String, SpanTotal> = BTreeMap::new();
    for ev in events {
        let stack = stacks.entry(ev.tid).or_default();
        match ev.phase {
            Phase::Begin => stack.push((format!("{}.{}", ev.cat, ev.name), ev.ts_us, 0)),
            Phase::End => {
                let Some((key, start, children)) = stack.pop() else {
                    continue;
                };
                let dur = ev.ts_us.saturating_sub(start);
                let t = totals.entry(key).or_default();
                t.total_us += dur;
                t.self_us += dur.saturating_sub(children);
                if let Some(parent) = stack.last_mut() {
                    parent.2 += dur;
                }
            }
            _ => {}
        }
    }
    totals
}
