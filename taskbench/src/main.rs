//! taskbench: start→complete latency and throughput of the in-process
//! Gozer deployment on four workloads, through the public
//! `WorkflowService` API, plus a traced run that times each layer.
//!
//! ```text
//! cargo run --release --manifest-path taskbench/Cargo.toml -- \
//!     --workload fanout_durable --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Prints provenance (`# ...`) and one `name = value unit` line per
//! metric, then, as the last line, a JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Exits non-zero if
//! any task returned a wrong result. See README.md for what each
//! workload and metric is for.

mod deploy;
mod drive;
mod layers;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use deploy::Deployment;
use drive::{arrivals, closed_loop, open_loop, Tally};
use layers::{latency_count, Counters, Metric};
use stats::{median, quantile, ratio, Rng};
use workload::{StoreKind, TaskInput, Workload};

/// Rounds per untraced run. Each round stands up a fresh deployment,
/// warms it, runs a closed loop then an open loop, and tears it down.
/// Every metric but `peak_rss_mb` is the median of its per-round
/// values, so a stall in one round (a noisy neighbour on a shared host)
/// moves one sample, not the result. A fresh deployment per round keeps
/// each round's task history the same: the engine slows as its tracker
/// accumulates finished tasks, so a round's figures depend on how many
/// tasks the deployment has already run (reported by the traced run as
/// `vinz.tracker_all_us`).
const ROUNDS: usize = 10;
/// A round during which the host gave more than this share of the
/// machine's CPU time to other guests (steal, from `/proc/stat`) does not
/// count while a quiet one can replace it. On the 2-vCPU shared host
/// this benchmark was tuned on, steal came in episodes of minutes, and a
/// round's `fanout_durable` p95 followed its steal: 19–20.5 ms up to 1%,
/// 22–27 ms at 2–3%, 36–53 ms above 10%. A set of 10 seeds that caught
/// one episode spread 0.40 on p95.
const STEAL_LIMIT: f64 = 0.01;
/// Rounds replace disturbed ones only until the run has taken this many
/// times `--seconds`, which bounds a run's time; then it keeps the
/// `ROUNDS` least disturbed.
const STRETCH: f64 = 1.5;
/// Deployments stood up per round; the round's `setup_s` sample is
/// their median.
const SETUP_REPS: usize = 3;
/// Shares of `--seconds` given to each part of a run.
const WARMUP_SHARE: f64 = 0.05;
const CLOSED_SHARE: f64 = 0.6;
const OPEN_SHARE: f64 = 0.3;
/// The traced run: a baseline deployment runs an untraced closed loop,
/// then a second, identically warmed deployment runs the traced closed
/// loop, the traced open loop and the layer probes.
const TRACED_SHARE: f64 = 0.2;
/// Everything the benchmark writes lives here, inside the checkout.
const WORK_DIR: &str = ".taskbench";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(workload::by_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The outcome of one run.
struct Report {
    metrics: Vec<Metric>,
    /// Printed for the reader but not part of this mode's result object.
    extra: Vec<Metric>,
    tally: Tally,
    /// Every check other than per-task results (e.g. exactly-once
    /// settles) held.
    checks_ok: bool,
}

fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn gen_inputs(w: &Workload, rng: &mut Rng, n: usize) -> Vec<TaskInput> {
    (0..n).map(|_| (w.gen)(rng)).collect()
}

/// Closed-loop task count for `share` of the run.
fn closed_count(w: &Workload, seconds: f64, share: f64) -> usize {
    ((w.closed_rate * seconds * share) as usize).max(20)
}

fn pctl(samples: &[f64], q: f64) -> f64 {
    quantile(&mut samples.to_vec(), q)
}

/// On `remote`, every call must settle exactly once: two applied settles
/// per completed task and no duplicates.
fn settles_ok(dep: &Deployment, tasks_done: u64) -> bool {
    let Some(broker) = dep.wf.tcp_broker() else {
        return true;
    };
    let tm = broker.transport_metrics().snapshot();
    let ok = tm.duplicate_settles == 0 && tm.remote_settles == 2 * tasks_done;
    if !ok {
        eprintln!(
            "taskbench: {} applied / {} duplicate settles for {tasks_done} tasks",
            tm.remote_settles, tm.duplicate_settles
        );
    }
    ok
}

/// The end-to-end metrics, in the order each round measures them.
const E2E: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("tasks_per_s", "tasks/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("open_p50_ms", "ms"),
    ("open_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Printed with the end-to-end metrics but left out of the result
/// object. The p99s are set by bursts of host CPU contention lasting a
/// second or two, not by the program: on `fanout_durable` the median
/// over rounds of closed-loop p99 spread 0.11 to 0.33 (IQR ÷ median over
/// seeds) from one set of runs to the next, against the 0.25 bound, and
/// open-loop p99 up to 0.69 on compute. `latency_p95_ms` is the gated
/// tail instead: at `--seconds 30` each round has about ten samples
/// beyond it on `fanout_durable`, and more on the other workloads.
const UNGATED: [&str; 2] = ["latency_p99_ms", "open_p99_ms"];

/// Taken from the first round alone, in a process that has run nothing
/// else. Each later round starts from a resident set 1–3 MiB larger than
/// the one before, although its predecessor was torn down and all its
/// threads joined, so a later round's peak depends on the rounds before
/// it: the median over rounds spread 0.19 over 10 seeds on
/// `fanout_durable`, the first round's peak 0.03.
const FIRST_ROUND_ONLY: &str = "peak_rss_mb";

/// One round's inputs: warm-up and closed-loop tasks, and the open
/// loop's arrival schedule.
struct RoundInputs {
    first: TaskInput,
    warm: Vec<TaskInput>,
    closed: Vec<TaskInput>,
    schedule: Vec<(Duration, TaskInput)>,
}

impl RoundInputs {
    fn gen(
        w: &Workload,
        rng: &mut Rng,
        seconds: f64,
        closed_share: f64,
        open_share: f64,
    ) -> RoundInputs {
        RoundInputs {
            first: (w.gen)(rng),
            warm: gen_inputs(w, rng, closed_count(w, seconds, WARMUP_SHARE)),
            closed: gen_inputs(w, rng, closed_count(w, seconds, closed_share)),
            schedule: arrivals(
                w,
                rng,
                w.open_rate,
                Duration::from_secs_f64(seconds * open_share),
            ),
        }
    }
}

/// Stand up `SETUP_REPS` deployments one after another, each completing
/// its first task, keep the last and warm it up. Returns it with the
/// median set-up time and the tasks completed on it so far.
fn fresh_deployment(
    w: &Workload,
    tmp: &Path,
    r: &RoundInputs,
    tally: &mut Tally,
) -> Result<(Deployment, f64, u64), String> {
    let mut setups = Vec::new();
    let mut dep = None;
    for _ in 0..SETUP_REPS {
        let (fresh, took) = Deployment::up(w, tmp, &r.first)?;
        tally.add(Tally {
            attempted: 1,
            correct: 1,
            ..Tally::default()
        });
        setups.push(took.as_secs_f64());
        if let Some(old) = dep.replace(fresh) {
            old.down();
        }
    }
    let dep = dep.expect("SETUP_REPS > 0");
    let warm = closed_loop(&dep.wf, w, &r.warm, clients(), None).tally;
    tally.add(warm);
    Ok((dep, median(&mut setups), 1 + warm.correct))
}

/// One untraced round's figures, in `E2E` order.
struct RoundResult {
    values: [f64; E2E.len()],
    /// The machine's CPU share the host gave to other guests meanwhile.
    steal: f64,
    closed_samples: usize,
    open_samples: usize,
    lag_ms: Vec<f64>,
}

/// The end-to-end run: `ROUNDS` rounds, tracing off, plus more in place
/// of rounds the host disturbed while time allows. Round `k` always gets
/// the same inputs from one seed, however many rounds run.
fn untraced(a: &Args, tmp: &Path) -> Result<Report, String> {
    let w = a.workload;
    let mut rng = Rng::new(a.seed);
    let round_seconds = a.seconds / ROUNDS as f64;
    let deadline = Instant::now() + Duration::from_secs_f64(a.seconds * STRETCH);
    let mut tally = Tally::default();
    let mut checks_ok = true;
    let mut rounds: Vec<RoundResult> = Vec::new();
    loop {
        let quiet = rounds.iter().filter(|d| d.steal <= STEAL_LIMIT).count();
        if quiet == ROUNDS || (rounds.len() >= ROUNDS && Instant::now() >= deadline) {
            break;
        }
        let r = &RoundInputs::gen(w, &mut rng, round_seconds, CLOSED_SHARE, OPEN_SHARE);
        let ticks = stats::cpu_ticks();
        stats::reset_peak_rss();
        let (dep, setup, done) = fresh_deployment(w, tmp, r, &mut tally)?;
        let closed = closed_loop(&dep.wf, w, &r.closed, clients(), None);
        let open = open_loop(&dep.wf, w, &r.schedule, None);
        tally.add(closed.tally);
        tally.add(open.tally);
        checks_ok &= settles_ok(&dep, done + closed.tally.correct + open.tally.correct);
        let rss = stats::peak_rss_mb();
        dep.down();
        let values = [
            setup,
            closed.tasks_per_s(),
            pctl(&closed.latency_ms, 0.50),
            pctl(&closed.latency_ms, 0.95),
            pctl(&closed.latency_ms, 0.99),
            pctl(&open.latency_ms, 0.50),
            pctl(&open.latency_ms, 0.99),
            rss,
        ];
        let steal = stats::steal_share(ticks, stats::cpu_ticks());
        let shown: Vec<String> = E2E
            .iter()
            .zip(values)
            .map(|((name, _), v)| format!("{name}={v:.6}"))
            .collect();
        println!(
            "# round {}: {} host.steal_share={steal:.4}",
            rounds.len() + 1,
            shown.join(" ")
        );
        rounds.push(RoundResult {
            values,
            steal,
            closed_samples: closed.latency_ms.len(),
            open_samples: open.latency_ms.len(),
            lag_ms: open.lag_ms,
        });
    }
    let run = rounds.len();
    let first = rounds[0].values;
    // The `ROUNDS` least disturbed rounds: all of them when every round
    // was quiet, since extra rounds run only in place of disturbed ones.
    rounds.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    rounds.truncate(ROUNDS);
    let lag: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.lag_ms.iter().copied())
        .collect();
    let count = |f: fn(&RoundResult) -> usize| rounds.iter().map(f).sum::<usize>() as f64;
    let mut extra: Vec<Metric> = vec![
        ("failed_frac".into(), tally.failed_frac(), "ratio"),
        ("rounds_run".into(), run as f64, "count"),
        ("rounds_kept".into(), rounds.len() as f64, "count"),
        (
            "latency_samples".into(),
            count(|r| r.closed_samples),
            "count",
        ),
        ("open_samples".into(), count(|r| r.open_samples), "count"),
        ("loadgen.lag_p99_ms".into(), pctl(&lag, 0.99), "ms"),
    ];
    let (metrics, ungated): (Vec<Metric>, Vec<Metric>) = E2E
        .iter()
        .enumerate()
        .map(|(i, (name, unit))| {
            let value = if *name == FIRST_ROUND_ONLY {
                first[i]
            } else {
                median(&mut rounds.iter().map(|r| r.values[i]).collect::<Vec<_>>())
            };
            (name.to_string(), value, *unit)
        })
        .partition(|(name, ..)| !UNGATED.contains(&name.as_str()));
    extra.extend(ungated);
    Ok(Report {
        metrics,
        extra,
        tally,
        checks_ok,
    })
}

/// The per-layer run: a baseline deployment runs an untraced closed
/// loop; a second, identically warmed one runs a traced closed loop and
/// open loop (benchmark spans plus the engine's own event recording),
/// then the layer probes.
fn traced(a: &Args, tmp: &Path, trace_file: &Path, header: &[String]) -> Result<Report, String> {
    let w = a.workload;
    let mut rng = Rng::new(a.seed);
    let base_round = RoundInputs::gen(w, &mut rng, a.seconds, TRACED_SHARE, 0.0);
    let round = RoundInputs::gen(w, &mut rng, a.seconds, TRACED_SHARE, TRACED_SHARE);
    let mut tally = Tally::default();
    let mut out: Vec<Metric> = Vec::new();
    let mut extra = Vec::new();

    let (dep, _, done) = fresh_deployment(w, tmp, &base_round, &mut tally)?;
    let base = closed_loop(&dep.wf, w, &base_round.closed, clients(), None);
    tally.add(base.tally);
    // Every wait() on this deployment has returned: a task missing from
    // its latency histogram was published before it was recorded.
    let done = done + base.tally.correct;
    let gap = done as f64 - latency_count(&dep) as f64;
    let mut checks_ok = settles_ok(&dep, done);
    dep.down();

    let (dep, _, done) = fresh_deployment(w, tmp, &round, &mut tally)?;
    let epoch = Instant::now();
    dep.wf.obs().set_tracing(true);
    let before = Counters::read(&dep);
    let traced = closed_loop(&dep.wf, w, &round.closed, clients(), Some(epoch));
    let after = Counters::read(&dep);
    let open = open_loop(&dep.wf, w, &round.schedule, Some(epoch));
    dep.wf.obs().set_tracing(false);
    tally.add(traced.tally);
    tally.add(open.tally);
    extra.push(("tasks_per_s_untraced".into(), base.tasks_per_s(), "tasks/s"));
    extra.push(("tasks_per_s_traced".into(), traced.tasks_per_s(), "tasks/s"));
    checks_ok &= settles_ok(&dep, done + traced.tally.correct + open.tally.correct);
    out.push((
        "obs.trace_overhead".into(),
        1.0 - traced.tasks_per_s() / base.tasks_per_s(),
        "ratio",
    ));
    out.push(("obs.latency_count_gap".into(), gap, "tasks"));
    out.push(("loadgen.lag_p99_ms".into(), pctl(&open.lag_ms, 0.99), "ms"));
    out.push(("failed_frac".into(), tally.failed_frac(), "ratio"));
    after.per_task(&before, traced.tally.correct, &mut out);
    let mut spans = traced.spans;
    out.push((
        "vinz.start_call_us".into(),
        median(&mut spans.durations_us("vinz.start")),
        "us",
    ));
    spans.absorb(open.spans);
    let task = spans
        .last_task("vinz.wait")
        .ok_or("the traced loop ran no task")?;

    let root = spans.open("layers", "", None);
    layers::vm_layers(w, &round.closed, &mut spans, root, &mut out)?;
    let state = layers::persisted_state(&dep, w, &task, &round.first)?;
    layers::state_layers(&state, w.store, tmp, &mut spans, root, &mut out)?;
    layers::transport_layers(&dep, &mut spans, root, &mut out)?;
    layers::tracker_layer(&dep, &mut spans, root, &mut out);
    spans.close(root);
    dep.down();

    // What no layer accounts for in a task's handler service time.
    let get = |name: &str| out.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
    let attributed = get("vm.exec_us")
        + get("vinz.persists_per_task")
            * (get("serial.snapshot_us") + get("compress.deflate_us") + get("store.put_batch_us"))
        + get("vinz.loads_per_task") * (get("serial.restore_us") + get("compress.inflate_us"));
    let service = get("bluebox.busy_us_per_task");
    out.push((
        "ledger.unattributed_share".into(),
        1.0 - ratio(attributed, service),
        "ratio",
    ));

    extra.push(("spans".into(), spans.len() as f64, "count"));
    let mut lines = header.to_vec();
    lines.extend(out.iter().chain(&extra).map(fmt_metric));
    spans
        .write(trace_file, &lines)
        .map_err(|e| format!("write {}: {e}", trace_file.display()))?;
    println!("# spans written to {}", trace_file.display());
    Ok(Report {
        metrics: out,
        extra,
        tally,
        checks_ok,
    })
}

fn fmt_metric((name, value, unit): &Metric) -> String {
    format!("{name} = {value} {unit}")
}

fn json_line(r: &Report, correct: bool) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.tally.attempted,
        r.tally.attempted - r.tally.correct,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("taskbench: {e}\nusage: taskbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let work = PathBuf::from(WORK_DIR);
    let tmp = work.join("tmp");
    let header = vec![
        format!("taskbench workload={} seed={} seconds={} trace={}", w.name, args.seed, args.seconds, u8::from(args.trace)),
        format!("git_rev={} nproc={} (closed-loop clients)", stats::git_rev(), clients()),
        format!(
            "deployment: 1 node, {} instances, VinzConfig::default() (Deflate, delta snapshots), store={}, remote={}",
            deploy::INSTANCES,
            if w.store == StoreKind::Log { "LogStore" } else { "MemStore" },
            w.remote
        ),
        format!(
            "constants: open_rate={}/s closed_rate={}/s rounds={ROUNDS} stretch={STRETCH} steal_limit={STEAL_LIMIT} setups_per_round={SETUP_REPS} warmup={WARMUP_SHARE} closed={CLOSED_SHARE} open={OPEN_SHARE} traced={TRACED_SHARE}",
            w.open_rate, w.closed_rate
        ),
        format!("why: {}", w.why),
    ];
    for line in &header {
        println!("# {line}");
    }
    let trace_file = work.join(format!("trace-{}.tsv", w.name));
    let ticks = stats::cpu_ticks();
    let result = if args.trace {
        traced(&args, &tmp, &trace_file, &header)
    } else {
        untraced(&args, &tmp)
    };
    let _ = std::fs::remove_dir_all(&tmp);
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("taskbench: {e}");
            std::process::exit(1);
        }
    };
    let steal = stats::steal_share(ticks, stats::cpu_ticks());
    report
        .extra
        .push(("host.steal_share".into(), steal, "ratio"));
    for m in report.metrics.iter().chain(&report.extra) {
        println!("{}", fmt_metric(m));
    }
    if let Some((name, ..)) = report.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("taskbench: {name} was not measured");
        std::process::exit(1);
    }
    let correct = report.tally.wrong == 0 && report.checks_ok;
    println!("{}", json_line(&report, correct));
    if !correct {
        std::process::exit(1);
    }
}
