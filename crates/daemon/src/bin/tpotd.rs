//! `tpotd` — the TPot verification daemon.
//!
//! ```text
//! tpotd [--addr HOST:PORT] [--cache-dir DIR] [--cache-max-mb N] [--jobs N]
//! ```
//!
//! Serves `tpot-api/v1` over HTTP until it receives `POST /v1/shutdown`
//! (or the process is killed; the proof cache is flushed after every
//! engine batch, so a kill loses at most in-flight work).
//!
//! The environment is read here and only here: the engine's `TPOT_*`
//! variables through `EngineConfig::from_env`, plus `TPOT_CACHE_DIR` and
//! `TPOT_CACHE_MAX_MB`. Flags override the variables.

use std::time::Duration;

use tpot_engine::EngineConfig;
use tpot_obs::env;

fn usage() -> ! {
    eprintln!(
        "usage: tpotd [--addr HOST:PORT] [--cache-dir DIR] [--cache-max-mb N] [--jobs N]\n\
         \n\
         defaults: --addr 127.0.0.1:7333, cache dir from TPOT_CACHE_DIR\n\
         (in-memory if unset), size bound from TPOT_CACHE_MAX_MB (256 MiB),\n\
         jobs from TPOT_PATH_JOBS (core count)."
    );
    std::process::exit(2)
}

fn main() {
    let mut config = tpot_daemon::DaemonConfig::new().engine(EngineConfig::from_env());
    if let Some(dir) = env::path("TPOT_CACHE_DIR") {
        config = config.cache_dir(dir);
    }
    if let Some(mb) = env::number("TPOT_CACHE_MAX_MB") {
        config = config.cache_max_mb(mb);
    }
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("tpotd: {name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => config = config.addr(take("--addr")),
            "--cache-dir" => config = config.cache_dir(take("--cache-dir")),
            "--cache-max-mb" => match take("--cache-max-mb").parse() {
                Ok(mb) => config = config.cache_max_mb(mb),
                Err(_) => usage(),
            },
            "--jobs" => match take("--jobs").parse() {
                Ok(j) => config = config.default_jobs(j),
                Err(_) => usage(),
            },
            "--help" | "-h" => usage(),
            other => {
                eprintln!("tpotd: unknown flag {other:?}");
                usage()
            }
        }
    }
    let handle = match tpot_daemon::start(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("tpotd: {e}");
            std::process::exit(1)
        }
    };
    println!("tpotd listening on {}", handle.addr());
    // The accept/scheduler threads own the service; park until the
    // shutdown endpoint stops them.
    while !handle.is_shut_down() {
        std::thread::sleep(Duration::from_millis(200));
    }
    handle.shutdown();
    println!("tpotd: shut down");
}
