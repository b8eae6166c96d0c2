//! The persistent portfolio worker pool.
//!
//! The seed implementation spawned a fresh OS thread per racing instance per
//! query — thousands of thread spawns per POT. This module replaces that
//! with long-lived workers fed over MPMC channels: [`Portfolio`] submits one
//! [`Job`] per racing instance and workers reply on a per-query channel.
//! A process-wide [`WorkerPool::global`] pool (sized at the core count) is
//! shared by every portfolio, so multi-POT parallel verification cannot
//! oversubscribe the machine; tests can build private
//! pools with [`WorkerPool::new`] for deterministic scheduling.
//!
//! Cancellation is cooperative and two-level: a queued job whose cancel flag
//! is already set is skipped without solving, and a running solver polls the
//! same flag every 64 conflicts and aborts with `Unknown`.
//!
//! [`Portfolio`]: crate::Portfolio

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, Sender};
use tpot_obs::metrics::{LazyCounter, LazyHistogram};
use tpot_smt::{TermArena, TermId};
use tpot_solver::{SmtResult, SmtSolver, SolverConfig, SolverError};

static JOBS_RUN: LazyCounter = LazyCounter::new("portfolio.pool.jobs_run");
static JOBS_SKIPPED: LazyCounter = LazyCounter::new("portfolio.pool.jobs_skipped");
static QUEUE_WAIT_US: LazyHistogram = LazyHistogram::new("portfolio.pool.queue_wait_us");

/// One racing solver instance's unit of work.
pub struct Job {
    /// Instance configuration (including the shared cancel flag).
    pub cfg: SolverConfig,
    /// Cone-of-influence slice of the query (owned: the solver mutates it
    /// during preprocessing).
    pub arena: TermArena,
    /// Assertion roots, in slice coordinates.
    pub assertions: Vec<TermId>,
    /// Raced instances share this flag; the winner's receiver sets it.
    pub cancel: Arc<AtomicBool>,
    /// Per-query reply channel.
    pub reply: Sender<Reply>,
    /// Submission time, for queue-wait accounting.
    pub enqueued: Instant,
}

/// A worker's answer for one [`Job`].
pub struct Reply {
    /// Configuration name (portfolio win accounting).
    pub name: String,
    /// The solver result.
    pub result: Result<SmtResult, SolverError>,
    /// Time the job sat in the pool queue before a worker picked it up.
    pub queue_wait: Duration,
    /// True when the job was skipped because its cancel flag was already set
    /// at dequeue (the losing side of a settled race).
    pub cancelled: bool,
}

/// A fixed set of long-lived solver workers.
pub struct WorkerPool {
    tx: Sender<Job>,
    threads: usize,
    cancelled_jobs: Arc<AtomicU64>,
}

impl WorkerPool {
    /// Spawns a pool with `threads` workers (clamped to at least 1).
    /// Workers exit when the pool (and thus the job channel) is dropped.
    pub fn new(threads: usize) -> Arc<WorkerPool> {
        let threads = threads.max(1);
        let (tx, rx) = channel::unbounded::<Job>();
        let cancelled_jobs = Arc::new(AtomicU64::new(0));
        for i in 0..threads {
            let rx: Receiver<Job> = rx.clone();
            let cancelled = cancelled_jobs.clone();
            std::thread::Builder::new()
                .name(format!("tpot-worker-{i}"))
                .spawn(move || worker_loop(rx, cancelled))
                .expect("failed to spawn portfolio worker");
        }
        Arc::new(WorkerPool {
            tx,
            threads,
            cancelled_jobs,
        })
    }

    /// The process-wide shared pool, sized at the available core count
    /// (minimum 2). It runs races and validation runs; a single-instance
    /// check solves on the calling thread.
    pub fn global() -> Arc<WorkerPool> {
        static GLOBAL: OnceLock<Arc<WorkerPool>> = OnceLock::new();
        GLOBAL
            .get_or_init(|| {
                let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
                WorkerPool::new(cores.max(2))
            })
            .clone()
    }

    /// Enqueues a job. Never blocks (the queue is unbounded).
    pub fn submit(&self, job: Job) {
        let _ = self.tx.send(job);
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Total jobs skipped because their cancel flag was set at dequeue.
    pub fn cancelled_jobs(&self) -> u64 {
        self.cancelled_jobs.load(Ordering::Relaxed)
    }
}

fn worker_loop(rx: Receiver<Job>, cancelled: Arc<AtomicU64>) {
    while let Ok(job) = rx.recv() {
        let Job {
            cfg,
            mut arena,
            assertions,
            cancel,
            reply,
            enqueued,
        } = job;
        let queue_wait = enqueued.elapsed();
        QUEUE_WAIT_US.observe(queue_wait.as_micros() as u64);
        let name = cfg.name.clone();
        if cancel.load(Ordering::Relaxed) {
            cancelled.fetch_add(1, Ordering::Relaxed);
            JOBS_SKIPPED.add(1);
            let _ = reply.send(Reply {
                name,
                result: Ok(SmtResult::Unknown),
                queue_wait,
                cancelled: true,
            });
            continue;
        }
        JOBS_RUN.add(1);
        let result = {
            let _span = tpot_obs::span_args("portfolio", "job", &[("instance", name.clone())]);
            SmtSolver::new(cfg).check(&mut arena, &assertions)
        };
        let _ = reply.send(Reply {
            name,
            result,
            queue_wait,
            cancelled: false,
        });
    }
}
