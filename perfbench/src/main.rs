//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints its metrics; the last line of standard
//! output is the machine-readable result. `perfbench loadgen …` is the
//! load-generating child process of the service phase.

use std::collections::HashMap;
use std::process::ExitCode;

use perfbench::run::{self, Args, OUT_DIR};
use perfbench::table::{self, Workload};
use tpot_obs::json::Value;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
    let names: Vec<&str> = table::WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!("workloads: {}", names.join(", "));
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let loadgen = argv.first().is_some_and(|a| a == "loadgen");
    if loadgen {
        argv.remove(0);
    }
    let mut flags = HashMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k.trim_start_matches("--").to_string(), v.clone());
            }
            _ => return usage(&format!("unexpected argument {:?}", pair[0])),
        }
    }
    let Some(workload) = flags.get("workload").and_then(|n| table::workload(n)) else {
        return usage("missing or unknown --workload");
    };
    let Some(seed) = flags.get("seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage("missing or malformed --seed");
    };
    let Some(seconds) = flags.get("seconds").and_then(|s| s.parse::<f64>().ok()) else {
        return usage("missing or malformed --seconds");
    };
    if loadgen {
        let (Some(addr), Some(cap)) = (
            flags.get("addr"),
            flags.get("cap").and_then(|c| c.parse::<f64>().ok()),
        ) else {
            return usage("loadgen needs --addr and --cap");
        };
        perfbench::loadgen::run(&workload.service, seed, seconds, cap, addr);
        return ExitCode::SUCCESS;
    }
    let trace = match flags.get("trace").map(String::as_str) {
        Some("0") => false,
        Some("1") => true,
        _ => return usage("--trace must be 0 or 1"),
    };
    let args = Args {
        workload,
        seed,
        seconds,
        trace,
    };
    report(workload, &args, run::run(&args));
    ExitCode::SUCCESS
}

/// Prints the human-readable report, writes the full JSON report under
/// `.bench_out/`, and prints the result line last.
fn report(w: &Workload, args: &Args, res: run::RunResult) {
    let machine = perfbench::machine::describe(args.seed);
    let mut problems = res.problems.clone();
    if res.all.wrong > 0 {
        problems.push(format!(
            "{} verdicts differ from the expected table",
            res.all.wrong
        ));
    }
    let dropped = res.per_layer.get("obs.events_dropped").unwrap_or(0.0);
    if args.trace && dropped > 0.0 {
        problems.push(format!("{dropped} trace events dropped"));
    }
    let correct = problems.is_empty();

    println!(
        "perfbench {} seed={} seconds={} trace={}",
        w.name, args.seed, args.seconds, args.trace as u8
    );
    println!("machine {}", machine.render());
    println!(
        "verdicts: {} of {} wrong in the workload's operations (wrong_verdict_share {:.4}); {} of {} over the whole run",
        res.primary.wrong,
        res.primary.attempted,
        res.primary.share(),
        res.all.wrong,
        res.all.attempted
    );
    for p in &problems {
        println!("problem: {p}");
    }
    let shown = if args.trace {
        &res.per_layer
    } else {
        &res.end_to_end
    };
    for (name, value, unit) in &shown.0 {
        println!("  {name:<34} {value:>14.4} {unit}");
    }
    for (k, v) in &res.details {
        println!("{k} {}", v.render());
    }

    let tally = |t: &run::Tally| {
        Value::Obj(vec![
            ("attempted".into(), Value::Num(t.attempted as f64)),
            ("wrong".into(), Value::Num(t.wrong as f64)),
        ])
    };
    let mut full = vec![
        ("workload".into(), Value::Str(w.name.into())),
        ("seconds".into(), Value::Num(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("machine".into(), machine),
        ("correct".into(), Value::Bool(correct)),
        (
            "problems".into(),
            Value::Arr(problems.iter().map(|p| Value::Str(p.clone())).collect()),
        ),
        ("verdicts_primary".into(), tally(&res.primary)),
        ("verdicts_all".into(), tally(&res.all)),
        ("end_to_end".into(), res.end_to_end.to_json()),
        ("per_layer".into(), res.per_layer.to_json()),
    ];
    full.extend(res.details.iter().cloned());
    let path = std::path::Path::new(OUT_DIR).join(format!(
        "report-{}-seed{}-trace{}.json",
        w.name, args.seed, args.trace as u8
    ));
    let _ = std::fs::create_dir_all(OUT_DIR);
    match tpot_obs::write_atomic(&path, &Value::Obj(full).render()) {
        Ok(()) => println!("report {}", path.display()),
        Err(e) => eprintln!("perfbench: writing {} failed: {e}", path.display()),
    }

    let result = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Num(res.all.attempted as f64)),
        ("failed".into(), Value::Num(res.all.wrong as f64)),
        ("metrics".into(), shown.to_json()),
    ]);
    println!("{}", result.render());
}
