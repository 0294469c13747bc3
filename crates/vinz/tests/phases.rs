//! Phase-attribution acceptance suite: every completed task's
//! wall-clock must decompose into named phases that sum back to its
//! measured latency — exactly at the tracker (the ledger chains
//! instants), and within nanosecond accounting at the histogram family
//! — with `durability_hold` appearing only under a deferred-durability
//! store. Plus the live introspection endpoint: `/metrics` over HTTP
//! must be byte-identical to the in-process exporter.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bluebox::Cluster;
use gozer_lang::Value;
use gozer_obs::Phase;
use vinz::testing::{chaos_seeds, repro_command, ChaosConfig, ChaosPlan};
use vinz::{
    CommitHook, DurabilityTicket, LogStore, StateStore, StoreError, TaskStatus, Watermark,
    WorkflowService,
};

const FOR_EACH_WF: &str = "
(defun main (n)
  (apply #'+ (for-each (i in (range n)) (* i i))))
";

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "gozer-phases-it-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ))
}

/// Poll the tracker until every record is final and the set stops
/// changing (chaos-duplicated Starts can register stragglers).
fn drain_stragglers(workflow: &WorkflowService) {
    let obs = workflow.obs();
    let drain = Instant::now();
    let mut stable = 0u32;
    let mut last = usize::MAX;
    while drain.elapsed() < Duration::from_secs(10) && stable < 3 {
        let records = obs.tracker().all();
        if records.len() == last && records.iter().all(|r| r.status.is_final()) {
            stable += 1;
        } else {
            stable = 0;
        }
        last = records.len();
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// One seeded run; returns an error string on any ledger violation.
fn chaos_run_ledgers(seed: u64) -> Result<(), String> {
    let cluster = Cluster::new();
    let plan = ChaosPlan::new(ChaosConfig::survivability(seed));
    cluster.set_chaos(plan.clone());
    let workflow = WorkflowService::builder(&cluster, "workflow")
        .source(FOR_EACH_WF)
        .instances(0, 2)
        .instances(1, 2)
        .deploy()
        .map_err(|e| format!("seed {seed}: deploy failed: {e}"))?;
    let obs = workflow.obs();
    obs.set_tracing(true);
    let before = obs.snapshot();
    let task = workflow
        .start("main", vec![Value::Int(10)], None)
        .map_err(|e| format!("seed {seed}: start failed: {e}"))?;
    let record = workflow.wait(&task, Duration::from_secs(45));
    drain_stragglers(&workflow);

    let mut err = None;
    match record.map(|r| r.status) {
        Some(TaskStatus::Completed(v)) if v == Value::Int((0..10).map(|i| i * i).sum()) => {}
        other => err = Some(format!("seed {seed}: unexpected outcome {other:?}")),
    }
    let mut finals = 0usize;
    for rec in obs.tracker().all() {
        if !rec.status.is_final() {
            continue;
        }
        finals += 1;
        // The headline invariant: the ledger telescopes to exactly the
        // task's measured latency — zero tolerance, the same instants
        // chain through every roll.
        if rec.phases.total() != rec.duration() {
            err.get_or_insert(format!(
                "seed {seed}: task {} phases sum {:?} != latency {:?} ({})",
                rec.id,
                rec.phases.total(),
                rec.duration(),
                rec.phases.render(),
            ));
        }
        if rec.current_phase.is_some() {
            err.get_or_insert(format!("seed {seed}: task {} ledger left open", rec.id));
        }
        // Admission lives outside the tracker window, always.
        if !rec.phases.get(Phase::Admission).is_zero() {
            err.get_or_insert(format!(
                "seed {seed}: task {} banked admission time inside its ledger",
                rec.id
            ));
        }
    }
    if finals == 0 {
        err.get_or_insert(format!("seed {seed}: no final task records"));
    }
    // Histogram-level accounting: summed phase observations equal
    // summed latency observations. Both sides are exact nanosecond
    // totals of the same closed ledgers, so the slack is zero; keep a
    // one-nanosecond-per-task allowance for future rounding changes.
    let delta = obs.snapshot().diff(&before);
    let latency = delta
        .histogram("gozer_task_latency_seconds{service=\"workflow\"}")
        .map(|h| (h.count, h.sum_nanos))
        .unwrap_or((0, 0));
    let mut phase_nanos = 0u64;
    for phase in Phase::ALL {
        if phase == Phase::Admission {
            continue;
        }
        if let Some(h) = delta.histogram(&format!(
            "gozer_task_phase_seconds{{phase=\"{}\",service=\"workflow\"}}",
            phase.as_str()
        )) {
            phase_nanos += h.sum_nanos;
        }
    }
    if latency.1.abs_diff(phase_nanos) > latency.0 {
        err.get_or_insert(format!(
            "seed {seed}: phase histograms sum to {phase_nanos}ns but latency observed {}ns \
             across {} task(s)",
            latency.1, latency.0
        ));
    }
    cluster.shutdown();
    match err {
        None => Ok(()),
        Some(e) => Err(e),
    }
}

/// The tentpole acceptance test: across the 16-seed chaos sweep, every
/// finished task's phase durations sum to exactly its latency, the
/// ledger is closed, and the phase histogram family accounts for the
/// latency histogram nanosecond for nanosecond.
#[test]
fn chaos_sweep_phase_ledgers_sum_to_latency() {
    let mut failures = Vec::new();
    for &seed in &chaos_seeds(16) {
        if let Err(e) = chaos_run_ledgers(seed) {
            failures.push(e);
        }
    }
    if !failures.is_empty() {
        let repros: Vec<String> = failures
            .iter()
            .filter_map(|f| f.split(':').next())
            .filter_map(|s| s.strip_prefix("seed "))
            .filter_map(|s| s.trim().parse::<u64>().ok())
            .map(|seed| {
                format!(
                    "    {}",
                    repro_command(
                        "-p vinz --test phases",
                        "chaos_sweep_phase_ledgers_sum_to_latency",
                        seed
                    )
                )
            })
            .collect();
        panic!(
            "{} seed(s) failed:\n  {}\n  replay with:\n{}",
            failures.len(),
            failures.join("\n  "),
            repros.join("\n")
        );
    }
}

/// Record before publish: once `wait` returns for a task, the latency
/// histogram already counts it. Tasks run one at a time, so after the
/// k-th wait the count must be exactly k — never k - 1.
#[test]
fn latency_is_recorded_before_wait_returns() {
    let cluster = Cluster::new();
    let workflow = WorkflowService::builder(&cluster, "workflow")
        .source(FOR_EACH_WF)
        .instances(0, 2)
        .instances(1, 2)
        .deploy()
        .unwrap();
    let obs = workflow.obs();
    let latency_count = || {
        obs.snapshot()
            .histogram("gozer_task_latency_seconds{service=\"workflow\"}")
            .map_or(0, |h| h.count)
    };
    for done in 1..=40u64 {
        let task = workflow.start("main", vec![Value::Int(3)], None).unwrap();
        let rec = workflow
            .wait(&task, Duration::from_secs(45))
            .expect("task finishes");
        assert_eq!(rec.status, TaskStatus::Completed(Value::Int(5)));
        assert_eq!(
            latency_count(),
            done,
            "task {done} was published by wait() before its latency was recorded"
        );
    }
    cluster.shutdown();
}

/// Run the workflow once on `store` (or the default MemStore) and
/// return the root task's durability_hold total.
fn hold_time_under(store: Option<Arc<dyn StateStore>>) -> Duration {
    let cluster = Cluster::new();
    let mut builder = WorkflowService::builder(&cluster, "workflow")
        .source(FOR_EACH_WF)
        .instances(0, 2)
        .instances(1, 2);
    if let Some(store) = store {
        builder = builder.store(store);
    }
    let workflow = builder.deploy().unwrap();
    let task = workflow.start("main", vec![Value::Int(8)], None).unwrap();
    let rec = workflow.wait(&task, Duration::from_secs(45)).expect("task finishes");
    assert_eq!(rec.status, TaskStatus::Completed(Value::Int((0..8).map(|i| i * i).sum())));
    let rec = workflow.obs().tracker().get(&task).unwrap();
    cluster.shutdown();
    rec.phases.get(Phase::DurabilityHold)
}

/// A LogStore whose first durability probe answers "not yet", as it
/// would if the probe beat the commit's fsync. However fast the disk,
/// the first fiber-bound message therefore parks; the commit hook or
/// the reaper's re-probe releases it once the commit is on disk.
struct ProbeBeatsFsync {
    log: LogStore,
    probed: AtomicBool,
}

impl StateStore for ProbeBeatsFsync {
    fn put(&self, key: &str, data: &[u8]) -> Result<(), StoreError> {
        self.log.put(key, data)
    }
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError> {
        self.log.get(key)
    }
    fn delete(&self, key: &str) -> Result<(), StoreError> {
        self.log.delete(key)
    }
    fn list(&self, prefix: &str) -> Result<Vec<String>, StoreError> {
        self.log.list(prefix)
    }
    fn bytes_written(&self) -> u64 {
        self.log.bytes_written()
    }
    fn bytes_read(&self) -> u64 {
        self.log.bytes_read()
    }
    fn put_batch(&self, entries: &[(&str, &[u8])]) -> Result<DurabilityTicket, StoreError> {
        self.log.put_batch(entries)
    }
    fn flush(&self) -> Result<Watermark, StoreError> {
        self.log.flush()
    }
    fn durable(&self, w: Watermark) -> bool {
        self.probed.swap(true, Ordering::SeqCst) && self.log.durable(w)
    }
    fn attach_obs(&self, obs: &Arc<gozer_obs::Obs>) {
        self.log.attach_obs(obs)
    }
    fn set_commit_hook(&self, hook: CommitHook) {
        self.log.set_commit_hook(hook)
    }
}

/// `durability_hold` is real attribution, not noise: a group-commit
/// LogStore (deferred durability tickets park fiber-bound messages)
/// banks hold time; the synchronous MemStore banks none, ever.
#[test]
fn durability_hold_nonzero_under_logstore_zero_under_memstore() {
    assert_eq!(
        hold_time_under(None),
        Duration::ZERO,
        "MemStore is synchronous: no message ever parks on a watermark"
    );
    let dir = temp_dir("hold");
    let store = ProbeBeatsFsync {
        log: LogStore::builder(&dir).build().unwrap(),
        probed: AtomicBool::new(false),
    };
    let held = hold_time_under(Some(Arc::new(store)));
    assert!(
        held > Duration::ZERO,
        "group-commit LogStore must park at least one message on a durability ticket"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(format!("GET {path} HTTP/1.1\r\nHost: gozer\r\n\r\n").as_bytes())
        .unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    let (head, body) = resp.split_once("\r\n\r\n").expect("http response head");
    (head.lines().next().unwrap().to_string(), body.to_string())
}

/// The introspection endpoint serves the same exporter the in-process
/// handle renders: for a quiesced deployment, `/metrics` over HTTP is
/// byte-identical to `obs().export_text()`. Also exercises `/healthz`,
/// `/tasks`, and `/timeline/<id>` against a real run.
#[test]
fn introspect_http_matches_in_process_exporter() {
    let cluster = Cluster::new();
    let workflow = WorkflowService::builder(&cluster, "workflow")
        .source(FOR_EACH_WF)
        .instances(0, 2)
        .instances(1, 2)
        .introspect("127.0.0.1:0")
        .deploy()
        .unwrap();
    let addr = workflow.introspect_addr().expect("introspect server bound");
    let obs = workflow.obs();
    obs.set_tracing(true);
    let task = workflow.start("main", vec![Value::Int(6)], None).unwrap();
    let rec = workflow.wait(&task, Duration::from_secs(45)).expect("task finishes");
    assert!(rec.status.is_final());
    drain_stragglers(&workflow);

    // Byte identity: scrape and render between queue-quiet moments.
    // Closure-backed samples (queue gauges, drop counters) can tick
    // between the two reads, so retry until a stable pair appears.
    let mut matched = false;
    for _ in 0..20 {
        let (status, scraped) = http_get(addr, "/metrics");
        assert_eq!(status, "HTTP/1.1 200 OK");
        if scraped == obs.export_text() {
            matched = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(matched, "/metrics never matched export_text() byte for byte");

    let (status, health) = http_get(addr, "/healthz");
    assert_eq!(status, "HTTP/1.1 200 OK", "healthy deployment: {health}");
    assert!(health.starts_with("ok\n"));
    assert!(health.contains("reaper: alive"));
    assert!(health.contains("instances: 4/4"));

    let (status, tasks) = http_get(addr, "/tasks");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let row = tasks
        .lines()
        .find(|l| l.starts_with(&format!("{task} ")))
        .unwrap_or_else(|| panic!("no /tasks row for {task} in:\n{tasks}"));
    assert!(row.contains(" completed "), "row: {row}");
    assert!(row.contains(" - "), "final task shows no open phase: {row}");

    let (status, timeline) = http_get(addr, &format!("/timeline/{task}"));
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(timeline.starts_with(&format!("task {task}")));
    assert!(timeline.contains("critical path:"), "timeline:\n{timeline}");
    assert!(timeline.contains("critical totals:"));

    let (status, _) = http_get(addr, "/timeline/task-none");
    assert_eq!(status, "HTTP/1.1 404 Not Found");

    // Shutdown kills the cluster but the server lives with the
    // deployment handle: /healthz now reports degraded.
    cluster.shutdown();
    let (status, health) = http_get(addr, "/healthz");
    assert_eq!(status, "HTTP/1.1 503 Service Unavailable", "{health}");
    assert!(health.starts_with("degraded\n"));
}
