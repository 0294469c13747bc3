//! Per-layer probes for the traced run. Each layer is timed from
//! outside, by calling its public functions on inputs the workload
//! generates, each call inside a span; counters are read through public
//! accessors and diffed over the traced window.

use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use bluebox::wire::{decode_frame, encode_frame};
use bluebox::{
    Cluster, Message, MetricsSnapshot, SettleBody, TcpBroker, TcpBrokerConfig,
    TransportMetricsSnapshot, WireMsg, WirePayload,
};
use gozer_compress::Codec;
use gozer_lang::{AssocMap, Reader, Value};
use gozer_obs::{Phase, Snapshot};
use gozer_serial::{
    deserialize_state, deserialize_state_delta, serialize_state, serialize_state_delta,
    serialize_value,
};
use gozer_vm::{FiberState, Gvm};
use vinz::{LogStats, LogStore, MemStore, StateStore, VINZ_PRELUDE};

use crate::deploy::{fresh_dir, register_compute, spawn_worker, CapturedCall, Deployment, SERVICE};
use crate::stats::{median, ratio, us};
use crate::trace::{SpanId, Spans};
use crate::workload::{StoreKind, TaskInput, Workload};

/// Metric name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Repetitions per probe, cut short by `PROBE_BUDGET`.
const REPS: usize = 200;
const PROBE_BUDGET: Duration = Duration::from_millis(300);

/// Time `f` up to `reps` times (each call a span named `name`) and
/// return the median in microseconds.
fn probe<T>(
    spans: &mut Spans,
    parent: SpanId,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> f64 {
    let t0 = Instant::now();
    let mut samples = Vec::with_capacity(reps);
    while samples.len() < reps && (samples.is_empty() || t0.elapsed() < PROBE_BUDGET) {
        let (out, took) = spans.time(name, parent, &mut f);
        black_box(out);
        samples.push(us(took));
    }
    median(&mut samples)
}

/// `lang`, `vm`: read, load (compile + verify + fuse) and run the task
/// function on a bare GVM. Fails if the VM computes a wrong result.
pub fn vm_layers(
    w: &Workload,
    inputs: &[TaskInput],
    spans: &mut Spans,
    parent: SpanId,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let full = w.full_source();
    let read = probe(spans, parent, "lang.read", REPS, || {
        Reader::read_all_str(&full).expect("workload source reads")
    });
    out.push(("lang.read_us".into(), read, "us"));

    // Deployment loads the prelude and the source on every node GVM;
    // `deflink` needs the engine, so the bare GVM loads the rest.
    let mut loads = Vec::new();
    for _ in 0..5 {
        let gvm = Gvm::with_pool_size(1);
        let (res, took) = spans.time("vm.load", parent, || {
            gvm.load_str(VINZ_PRELUDE, "vinz-prelude")?;
            gvm.load_str(w.source, "workflow:bench")
        });
        res.map_err(|e| format!("load {} on a bare GVM: {e}", w.name))?;
        loads.push(took.as_secs_f64() * 1e3);
    }
    out.push(("vm.load_ms".into(), median(&mut loads), "ms"));

    let gvm = Gvm::with_pool_size(1);
    gvm.load_str(VINZ_PRELUDE, "vinz-prelude")
        .map_err(|e| format!("prelude on a bare GVM: {e}"))?;
    gvm.load_str(w.vm_probe.unwrap_or(w.source), "vm-probe")
        .map_err(|e| format!("load vm probe: {e}"))?;
    let func = gvm
        .function(w.function)
        .ok_or("vm probe defines the task function")?;
    for input in inputs.iter().take(8) {
        let got = gvm
            .call_sync(&func, w.args(input))
            .map_err(|e| format!("vm probe: {e}"))?;
        if got != Value::Int(input.expected) {
            return Err(format!(
                "vm probe returned {got:?}, want {}",
                input.expected
            ));
        }
    }
    let mut i = 0;
    let exec = probe(spans, parent, "vm.exec", REPS, || {
        i += 1;
        gvm.call_sync(&func, w.args(&inputs[i % inputs.len()]))
    });
    out.push(("vm.exec_us".into(), exec, "us"));
    Ok(())
}

/// The fiber state the workload persists for `task`: its root fiber's
/// last saved snapshot (the suspended for-each parent, the fiber parked
/// on a service call) read back from the store; for a task that never
/// suspends, the root fiber the Start operation builds.
pub fn persisted_state(
    dep: &Deployment,
    w: &Workload,
    task: &str,
    input: &TaskInput,
) -> Result<(FiberState, Arc<Gvm>), String> {
    let gvm = dep
        .wf
        .node_runtimes()
        .first()
        .map(|rt| rt.gvm.clone())
        .ok_or("deployment has a node runtime")?;
    let fiber = format!("{task}/f0");
    let store = dep.wf.store();
    let get = |key: String| store.get(&key).ok().flatten();
    let from_store = get(format!("fiber-v/{fiber}")).and_then(|meta| {
        let word = |i: usize| -> Option<u64> {
            Some(u64::from_le_bytes(
                meta.get(i * 8..i * 8 + 8)?.try_into().ok()?,
            ))
        };
        let (generation, chain) = (word(1)?, word(2)?);
        let base = if generation == 0 {
            format!("fiber/{fiber}")
        } else {
            format!("fiber/{fiber}@{generation}")
        };
        let mut state = deserialize_state(&get(base)?, &gvm).ok()?;
        for k in 0..chain {
            state = deserialize_state_delta(&get(format!("fiber-d/{fiber}/{k}"))?, &gvm, &state)
                .ok()?;
        }
        Some(state)
    });
    let state = match from_store {
        Some(state) => state,
        None => {
            let func = gvm
                .function(w.function)
                .ok_or("node runtime defines the task function")?;
            gvm.fiber_for(&func, w.args(input))
                .map_err(|e| format!("fiber_for: {e}"))?
        }
    };
    Ok((state, gvm))
}

/// `serial`, `compress`, `store`: snapshot, restore and delta-encode the
/// workload's persisted fiber, compress the snapshot, and write it with
/// its meta record to a store of the workload's kind.
pub fn state_layers(
    (state, gvm): &(FiberState, Arc<Gvm>),
    store_kind: StoreKind,
    tmp: &Path,
    spans: &mut Spans,
    parent: SpanId,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let bytes = serialize_state(state, Codec::None).map_err(|e| format!("snapshot: {e}"))?;
    let snap = probe(spans, parent, "serial.snapshot", REPS, || {
        serialize_state(state, Codec::None)
    });
    let restore = probe(spans, parent, "serial.restore", REPS, || {
        deserialize_state(&bytes, gvm).expect("snapshot restores")
    });
    // The resumed fiber re-dirties its top frame; the rest is clean.
    let clean = state.frames.len().saturating_sub(1);
    let delta = serialize_state_delta(state, clean, Codec::None, bytes.len())
        .map_err(|e| format!("delta: {e}"))?;
    let (delta_us, delta_bytes) = match &delta {
        Some(d) => (
            probe(spans, parent, "serial.delta", REPS, || {
                serialize_state_delta(state, clean, Codec::None, bytes.len())
            }),
            d.len(),
        ),
        None => (0.0, 0),
    };
    out.push(("serial.snapshot_us".into(), snap, "us"));
    out.push(("serial.snapshot_bytes".into(), bytes.len() as f64, "bytes"));
    out.push(("serial.restore_us".into(), restore, "us"));
    out.push(("serial.delta_us".into(), delta_us, "us"));
    out.push(("serial.delta_bytes".into(), delta_bytes as f64, "bytes"));

    let packed = Codec::Deflate.compress(&bytes);
    if Codec::Deflate.decompress(&packed).as_deref() != Ok(&bytes[..]) {
        return Err("deflate round trip changed the snapshot".into());
    }
    let deflate = probe(spans, parent, "compress.deflate", REPS, || {
        Codec::Deflate.compress(&bytes)
    });
    let inflate = probe(spans, parent, "compress.inflate", REPS, || {
        Codec::Deflate.decompress(&packed)
    });
    out.push(("compress.deflate_us".into(), deflate, "us"));
    out.push(("compress.inflate_us".into(), inflate, "us"));
    out.push((
        "compress.ratio".into(),
        bytes.len() as f64 / packed.len() as f64,
        "ratio",
    ));

    let dir = fresh_dir(tmp);
    let store: Arc<dyn StateStore> = match store_kind {
        StoreKind::Mem => Arc::new(MemStore::new()),
        StoreKind::Log => Arc::new(
            LogStore::builder(&dir)
                .build()
                .map_err(|e| format!("probe log store: {e}"))?,
        ),
    };
    let meta = [0u8; 24];
    let (mut put, mut commit) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    for i in 0..REPS {
        if i > 0 && t0.elapsed() > PROBE_BUDGET {
            break;
        }
        let (key, meta_key) = (
            format!("fiber/probe-{i}/f0"),
            format!("fiber-v/probe-{i}/f0"),
        );
        let (res, took) = spans.time("store.put_batch", parent, || {
            store.put_batch(&[(&key, &bytes), (&meta_key, &meta)])
        });
        res.map_err(|e| format!("put_batch: {e}"))?;
        put.push(us(took));
        let (res, took) = spans.time("store.commit", parent, || store.flush());
        res.map_err(|e| format!("flush: {e}"))?;
        commit.push(took.as_secs_f64() * 1e3);
    }
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    out.push(("store.put_batch_us".into(), median(&mut put), "us"));
    out.push(("store.commit_ms".into(), median(&mut commit), "ms"));
    Ok(())
}

fn square_request(n: i64) -> Vec<u8> {
    let map = AssocMap::from_pairs([(Value::str("n"), Value::Int(n))]);
    serialize_value(&Value::Map(Arc::new(map)), Codec::Deflate).expect("request serializes")
}

/// `bluebox`, `wire`, `tcp`: a sync call to a no-op service on the
/// deployment's cluster; frame encode/decode of one remote call's
/// Delivery and Settle; and remote round trips through a TcpBroker to a
/// TcpWorker (the deployment's own on `remote`, else a probe pair).
pub fn transport_layers(
    dep: &Deployment,
    spans: &mut Spans,
    parent: SpanId,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let noop = "bench-noop";
    dep.cluster.register_service(
        noop,
        None,
        Arc::new(|_: &bluebox::ServiceCtx, _: &Message| Ok(Vec::new())),
    );
    dep.cluster.spawn_instances(noop, 0, 1);
    let call = probe(spans, parent, "bluebox.call", REPS, || {
        dep.cluster
            .call(
                Message::new(noop, "Ping", Vec::new()),
                Duration::from_secs(5),
            )
            .expect("no-op call")
    });
    out.push(("bluebox.call_us".into(), call, "us"));

    let probe_pair = if dep.worker.is_some() {
        None
    } else {
        let cluster = Cluster::new();
        register_compute(&cluster);
        let broker = TcpBroker::start(&cluster, "127.0.0.1:0", TcpBrokerConfig::default())
            .map_err(|e| format!("probe broker: {e}"))?;
        let captured = Arc::new(OnceLock::new());
        let worker = spawn_worker(&broker.addr().to_string(), captured.clone());
        Some((cluster, worker, captured))
    };
    let (cluster, captured) = match &probe_pair {
        Some((cluster, _, captured)) => (cluster, captured),
        None => (&dep.cluster, &dep.captured),
    };
    let mut n = 0;
    let rtt = probe(spans, parent, "tcp.rtt", REPS, || {
        n += 1;
        cluster
            .call(
                Message::new("Compute", "Square", square_request(n)),
                Duration::from_secs(5),
            )
            .expect("remote call")
    });
    out.push(("tcp.rtt_us".into(), rtt, "us"));

    let CapturedCall { delivery, reply } = captured.get().ok_or("worker served a call")?;
    let frames = [
        WireMsg::Delivery {
            lease: 1,
            redeliveries: 0,
            payload: WirePayload {
                service: delivery.service.clone(),
                operation: delivery.operation.clone(),
                headers: delivery.headers.clone(),
                body: delivery.body.clone(),
                priority: 0,
                hold_until: 0,
            },
        },
        WireMsg::Settle {
            lease: 1,
            body: SettleBody::Ok(reply.clone()),
        },
    ];
    let encoded: Vec<Vec<u8>> = frames.iter().map(encode_frame).collect();
    for (msg, bytes) in frames.iter().zip(&encoded) {
        if decode_frame(bytes).map(|(m, _)| m).as_ref() != Ok(msg) {
            return Err("wire round trip changed a frame".into());
        }
    }
    let enc = probe(spans, parent, "wire.encode", REPS, || {
        frames.iter().map(|f| encode_frame(f).len()).sum::<usize>()
    });
    let dec = probe(spans, parent, "wire.decode", REPS, || {
        encoded
            .iter()
            .map(|b| decode_frame(b).expect("frame decodes").1)
            .sum::<usize>()
    });
    out.push(("wire.encode_us".into(), enc, "us"));
    out.push(("wire.decode_us".into(), dec, "us"));

    if let Some((cluster, worker, _)) = probe_pair {
        worker.stop();
        cluster.shutdown();
    }
    Ok(())
}

/// `vinz` tracker: one `tracker().all()` over every task the deployment
/// has run, the scan the supervisor repeats on each tick.
pub fn tracker_layer(dep: &Deployment, spans: &mut Spans, parent: SpanId, out: &mut Vec<Metric>) {
    let obs = dep.wf.obs();
    let tracker = obs.tracker();
    let tasks = tracker.all().len();
    let scan = probe(spans, parent, "vinz.tracker_all", 20, || {
        tracker.all().len()
    });
    out.push(("vinz.tracker_all_us".into(), scan, "us"));
    out.push(("vinz.tracker_tasks".into(), tasks as f64, "tasks"));
}

/// Program counters read through public accessors, diffed over a
/// window.
pub struct Counters {
    persists: u64,
    persist_bytes: u64,
    delta_saves: u64,
    loads: u64,
    cache_hits: u64,
    cache_misses: u64,
    log: LogStats,
    bus: MetricsSnapshot,
    wire: TransportMetricsSnapshot,
    obs: Snapshot,
}

impl Counters {
    pub fn read(dep: &Deployment) -> Counters {
        use std::sync::atomic::Ordering::Relaxed;
        let obs = dep.wf.obs();
        let c = obs.counters();
        let (mut cache_hits, mut cache_misses) = (0, 0);
        for rt in dep.wf.node_runtimes() {
            cache_hits += rt.cache.mutable_stats.hits.load(Relaxed);
            cache_misses += rt.cache.mutable_stats.misses.load(Relaxed);
        }
        Counters {
            persists: c.persist_count.load(Relaxed),
            persist_bytes: c.persist_bytes.load(Relaxed),
            delta_saves: c.delta_saves.load(Relaxed),
            loads: c.load_count.load(Relaxed),
            cache_hits,
            cache_misses,
            log: dep.log.as_ref().map(|l| l.stats()).unwrap_or_default(),
            bus: dep.cluster.metrics.snapshot(),
            wire: dep
                .wf
                .tcp_broker()
                .map(|b| b.transport_metrics().snapshot())
                .unwrap_or_default(),
            obs: obs.snapshot(),
        }
    }

    /// Per-task counters over the window from `before` to `self`, in
    /// which `tasks` tasks ran.
    pub fn per_task(&self, before: &Counters, tasks: u64, out: &mut Vec<Metric>) {
        let t = tasks as f64;
        let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
        let persists = d(self.persists, before.persists);
        let commits = d(self.log.group_commits, before.log.group_commits);
        let bus = self.bus.diff(&before.bus);
        out.push((
            "store.entries_per_commit".into(),
            ratio(
                d(self.log.committed_entries, before.log.committed_entries),
                commits,
            ),
            "entries/commit",
        ));
        out.push((
            "store.fsyncs_per_task".into(),
            ratio(d(self.log.fsyncs, before.log.fsyncs), t),
            "fsyncs/task",
        ));
        out.push((
            "bluebox.deliveries_per_task".into(),
            ratio(bus.delivered as f64, t),
            "deliveries/task",
        ));
        out.push((
            "bluebox.redeliveries".into(),
            bus.redelivered as f64,
            "count",
        ));
        out.push((
            "bluebox.busy_us_per_task".into(),
            ratio(bus.busy_nanos as f64 / 1e3, t),
            "us/task",
        ));
        out.push((
            "wire.bytes_per_task".into(),
            ratio(d(self.wire.bytes_sent, before.wire.bytes_sent), t),
            "bytes/task",
        ));
        out.push((
            "vinz.persists_per_task".into(),
            ratio(persists, t),
            "persists/task",
        ));
        out.push((
            "vinz.persist_bytes_per_task".into(),
            ratio(d(self.persist_bytes, before.persist_bytes), t),
            "bytes/task",
        ));
        out.push((
            "vinz.delta_share".into(),
            ratio(d(self.delta_saves, before.delta_saves), persists),
            "ratio",
        ));
        out.push((
            "vinz.loads_per_task".into(),
            ratio(d(self.loads, before.loads), t),
            "loads/task",
        ));
        let hits = d(self.cache_hits, before.cache_hits);
        out.push((
            "cache.hit_rate".into(),
            ratio(hits, hits + d(self.cache_misses, before.cache_misses)),
            "ratio",
        ));

        let phases = self.obs.diff(&before.obs);
        let phase_nanos = |p: Phase| {
            let key = format!(
                "gozer_task_phase_seconds{{phase=\"{}\",service=\"{SERVICE}\"}}",
                p.as_str()
            );
            phases.histogram(&key).map_or(0.0, |h| h.sum_nanos as f64)
        };
        let total: f64 = Phase::ALL.iter().map(|&p| phase_nanos(p)).sum();
        for (phase, name) in [
            (Phase::QueueWait, "phase.queue_wait_share"),
            (Phase::Serialize, "phase.serialize_share"),
            (Phase::Deserialize, "phase.deserialize_share"),
            (Phase::VmExec, "phase.vm_exec_share"),
            (Phase::DurabilityHold, "phase.durability_hold_share"),
            (Phase::ServiceWait, "phase.service_wait_share"),
        ] {
            out.push((name.into(), ratio(phase_nanos(phase), total), "ratio"));
        }
    }
}

/// The `gozer_task_latency_seconds` count of the deployment's service.
pub fn latency_count(dep: &Deployment) -> u64 {
    let key = format!("gozer_task_latency_seconds{{service=\"{SERVICE}\"}}");
    dep.wf
        .obs()
        .snapshot()
        .histogram(&key)
        .map_or(0, |h| h.count)
}
