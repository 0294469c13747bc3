//! Standing up and tearing down the in-process deployment a workload
//! runs against: one node with two instances, default `VinzConfig`, the
//! workload's store, and for `remote` a `TcpWorker` on loopback.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use bluebox::{Cluster, Fault, RemoteDelivery, TcpWorker, WorkerConfig, WorkerCtx};
use gozer_lang::Value;
use gozer_vm::Gvm;
use gozer_xml::ServiceDescription;
use vinz::testing::register_remote_service_desc;
use vinz::{LogStore, MemStore, StateStore, TaskStatus, WorkflowService};

use crate::workload::{StoreKind, TaskInput, Workload};

pub const SERVICE: &str = "bench";
pub const INSTANCES: usize = 2;
pub const WAIT: Duration = Duration::from_secs(30);

/// One remote call as the worker saw it, kept for the wire probes.
pub struct CapturedCall {
    pub delivery: RemoteDelivery,
    pub reply: Vec<u8>,
}

pub struct Deployment {
    pub cluster: Arc<Cluster>,
    pub wf: WorkflowService,
    pub log: Option<Arc<LogStore>>,
    pub worker: Option<TcpWorker>,
    /// The first remote call the worker served.
    pub captured: Arc<OnceLock<CapturedCall>>,
    dir: Option<PathBuf>,
}

fn compute_desc() -> ServiceDescription {
    ServiceDescription::new("Compute", "urn:compute").operation(
        "Square",
        "Squares the field n.",
        &[("n", "int")],
    )
}

/// A `TcpWorker` serving `gozer_worker::compute_reply` for `Compute`
/// at `addr`, capturing its first delivery.
pub fn spawn_worker(addr: &str, captured: Arc<OnceLock<CapturedCall>>) -> TcpWorker {
    let gvm = Gvm::with_pool_size(1);
    let handler = move |_ctx: &WorkerCtx, d: &RemoteDelivery| -> Result<Vec<u8>, Fault> {
        let reply = gozer_worker::compute_reply(d, &gvm)?;
        if captured.get().is_none() {
            let delivery = RemoteDelivery {
                service: d.service.clone(),
                operation: d.operation.clone(),
                headers: d.headers.clone(),
                body: d.body.clone(),
                redeliveries: d.redeliveries,
            };
            let _ = captured.set(CapturedCall {
                delivery,
                reply: reply.clone(),
            });
        }
        Ok(reply)
    };
    let mut config = WorkerConfig::new(addr, "Compute", INSTANCES as u32);
    config.name = "taskbench".into();
    TcpWorker::spawn(config, Arc::new(handler))
}

/// Register the `Compute` interface on `cluster` with no local capacity:
/// only a connecting `TcpWorker` serves it.
pub fn register_compute(cluster: &Arc<Cluster>) {
    register_remote_service_desc(cluster, "Compute", compute_desc());
}

/// A fresh directory under `root` for one store.
pub fn fresh_dir(root: &Path) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = root.join(format!(
        "{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Whether a finished task returned `expected`.
pub fn is_correct(status: &TaskStatus, expected: i64) -> bool {
    matches!(status, TaskStatus::Completed(Value::Int(v)) if *v == expected)
}

impl Deployment {
    /// Build the deployment and complete `first` on it. Returns the
    /// deployment and the set-up time: cluster, store open, deploy
    /// (read, compile, verify, fuse), worker connect, first task.
    pub fn up(
        w: &Workload,
        tmp: &Path,
        first: &TaskInput,
    ) -> Result<(Deployment, Duration), String> {
        let t0 = Instant::now();
        let cluster = Cluster::new();
        let (store, log, dir): (Arc<dyn StateStore>, _, _) = match w.store {
            StoreKind::Mem => (Arc::new(MemStore::new()), None, None),
            StoreKind::Log => {
                let dir = fresh_dir(tmp);
                let log = Arc::new(
                    LogStore::builder(&dir)
                        .build()
                        .map_err(|e| format!("open log store: {e}"))?,
                );
                (log.clone(), Some(log), Some(dir))
            }
        };
        if w.remote {
            register_compute(&cluster);
        }
        let mut builder = WorkflowService::builder(&cluster, SERVICE)
            .source(&w.full_source())
            .store(store)
            .instances(0, INSTANCES);
        if w.remote {
            builder = builder.tcp_listen("127.0.0.1:0");
        }
        let wf = builder
            .deploy()
            .map_err(|e| format!("deploy {}: {e}", w.name))?;
        let captured = Arc::new(OnceLock::new());
        let worker = wf
            .tcp_addr()
            .map(|addr| spawn_worker(&addr.to_string(), captured.clone()));
        let dep = Deployment {
            cluster,
            wf,
            log,
            worker,
            captured,
            dir,
        };
        let task = dep
            .wf
            .start(w.function, w.args(first), None)
            .map_err(|e| format!("first start: {e}"))?;
        let rec = dep.wf.wait(&task, WAIT).ok_or("first task timed out")?;
        if !is_correct(&rec.status, first.expected) {
            return Err(format!(
                "first task returned {:?}, want {}",
                rec.status, first.expected
            ));
        }
        Ok((dep, t0.elapsed()))
    }

    /// Stop the worker and the cluster, close the store and remove its
    /// directory.
    pub fn down(self) {
        if let Some(worker) = &self.worker {
            worker.stop();
        }
        self.cluster.shutdown();
        drop(self.wf);
        drop(self.log);
        if let Some(dir) = self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
