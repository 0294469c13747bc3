//! The load: a closed loop of client threads (each `start` then `wait`)
//! and an open loop (one generator issuing `start` on a seeded Poisson
//! schedule, one waiter collecting results). Every result is checked.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use vinz::{TaskRecord, TaskStatus, WorkflowService};

use crate::deploy::{is_correct, WAIT};
use crate::stats::{ms, Rng};
use crate::trace::Spans;
use crate::workload::{TaskInput, Workload};

/// Task outcomes over one loop.
#[derive(Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub correct: u64,
    /// Completed with a result other than the expected one.
    pub wrong: u64,
    /// Failed, terminated or timed out, or the start was refused
    /// (including typed admission rejections).
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.correct += o.correct;
        self.wrong += o.wrong;
        self.failed += o.failed;
    }

    /// Every task not completed correctly, over those attempted.
    pub fn failed_frac(&self) -> f64 {
        crate::stats::ratio(
            (self.attempted - self.correct) as f64,
            self.attempted as f64,
        )
    }

    /// Count a waited-for task; true when it returned `expected`.
    fn finished(&mut self, rec: &Option<TaskRecord>, expected: i64) -> bool {
        match rec.as_ref().map(|r| &r.status) {
            Some(status) if is_correct(status, expected) => {
                self.correct += 1;
                return true;
            }
            Some(TaskStatus::Completed(_)) => self.wrong += 1,
            _ => self.failed += 1,
        }
        false
    }
}

pub struct ClosedRun {
    pub tally: Tally,
    pub wall: Duration,
    /// Client-side start→wait-return latency of each correct task, ms.
    pub latency_ms: Vec<f64>,
    pub spans: Spans,
}

impl ClosedRun {
    pub fn tasks_per_s(&self) -> f64 {
        self.tally.correct as f64 / self.wall.as_secs_f64()
    }
}

/// `clients` threads, each running its share of `inputs` back to back.
/// Traced, each task records `task` > (`vinz.start`, `vinz.wait`).
pub fn closed_loop(
    wf: &WorkflowService,
    w: &Workload,
    inputs: &[TaskInput],
    clients: usize,
    trace: Option<Instant>,
) -> ClosedRun {
    let per_client = inputs.len().div_ceil(clients).max(1);
    let t0 = Instant::now();
    let results: Vec<(Tally, Vec<f64>, Spans)> = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .chunks(per_client)
            .map(|chunk| {
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let mut lat = Vec::with_capacity(chunk.len());
                    let mut spans = Spans::new(trace);
                    for input in chunk {
                        tally.attempted += 1;
                        let t = Instant::now();
                        let root = spans.open("task", "", None);
                        let span = spans.open("vinz.start", "", root);
                        let started = wf.try_start(w.function, w.args(input), None);
                        spans.close(span);
                        let task = match started {
                            Ok(task) => task,
                            Err(_) => {
                                tally.failed += 1;
                                continue;
                            }
                        };
                        let wait = spans.open("vinz.wait", &task, root);
                        let rec = wf.wait(&task, WAIT);
                        spans.close(wait);
                        spans.close(root);
                        spans.set_task(root, &task);
                        spans.set_task(span, &task);
                        if tally.finished(&rec, input.expected) {
                            lat.push(ms(t.elapsed()));
                        }
                    }
                    (tally, lat, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = t0.elapsed();
    let mut run = ClosedRun {
        tally: Tally::default(),
        wall,
        latency_ms: Vec::new(),
        spans: Spans::new(trace),
    };
    for (tally, lat, spans) in results {
        run.tally.add(tally);
        run.latency_ms.extend(lat);
        run.spans.absorb(spans);
    }
    run
}

/// Seeded Poisson arrivals at `rate`/s over `window`: offsets from the
/// loop's start and the task each one carries.
pub fn arrivals(
    w: &Workload,
    rng: &mut Rng,
    rate: f64,
    window: Duration,
) -> Vec<(Duration, TaskInput)> {
    let mut out = Vec::new();
    let mut at = rng.exp_gap(rate);
    while at < window {
        out.push((at, (w.gen)(rng)));
        at += rng.exp_gap(rate);
    }
    out
}

pub struct OpenRun {
    pub tally: Tally,
    /// Due time → recorded `finished_at` of each correct task, ms.
    pub latency_ms: Vec<f64>,
    /// How late the generator issued each start, ms.
    pub lag_ms: Vec<f64>,
    pub spans: Spans,
}

/// Issue `schedule` open-loop from one generator thread; a second
/// thread waits on the tasks in issue order.
pub fn open_loop(
    wf: &WorkflowService,
    w: &Workload,
    schedule: &[(Duration, TaskInput)],
    trace: Option<Instant>,
) -> OpenRun {
    // A short lead so the first arrival is not already late.
    let base = Instant::now() + Duration::from_millis(5);
    let (tx, rx) = mpsc::channel::<(String, Instant, i64)>();
    std::thread::scope(|scope| {
        let waiter = scope.spawn(move || {
            let mut tally = Tally::default();
            let mut lat = Vec::new();
            for (task, due, expected) in rx {
                let rec = wf.wait(&task, WAIT);
                if tally.finished(&rec, expected) {
                    let done = rec
                        .and_then(|r| r.finished_at)
                        .expect("final record has finished_at");
                    lat.push(ms(done.saturating_duration_since(due)));
                }
            }
            (tally, lat)
        });
        let mut tally = Tally::default();
        let mut lag_ms = Vec::with_capacity(schedule.len());
        let mut spans = Spans::new(trace);
        for (offset, input) in schedule {
            let due = base + *offset;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            lag_ms.push(ms(Instant::now().saturating_duration_since(due)));
            tally.attempted += 1;
            let span = spans.open("vinz.start", "", None);
            let started = wf.try_start(w.function, w.args(input), None);
            spans.close(span);
            match started {
                Ok(task) => {
                    spans.set_task(span, &task);
                    tx.send((task, due, input.expected)).expect("waiter alive");
                }
                Err(_) => tally.failed += 1,
            }
        }
        drop(tx);
        let (waited, latency_ms) = waiter.join().expect("waiter thread");
        tally.correct += waited.correct;
        tally.wrong += waited.wrong;
        tally.failed += waited.failed;
        OpenRun {
            tally,
            latency_ms,
            lag_ms,
            spans,
        }
    })
}
