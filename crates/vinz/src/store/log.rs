//! [`LogStore`]: Netherite-style log-structured persistence.
//!
//! Layout on disk, rooted at the store directory:
//!
//! ```text
//! dir/
//!   checkpoint            framed index snapshot (tmp+rename published)
//!   p0/seg-0000000001.log per-partition append-only segments
//!   p1/seg-0000000001.log
//!   ...
//! ```
//!
//! Every segment starts with an 8-byte magic and then holds framed
//! *batch records*:
//!
//! ```text
//! [u32 len][u32 crc32(payload)] payload
//! payload = [u64 seq][u32 count] count × ([u8 op][u16 klen][key][u32 vlen][value])
//! ```
//!
//! One `put_batch` is one record — the frame's CRC covers the whole
//! batch, so crash recovery observes all of its entries or none
//! (torn-tail truncation drops the record wholesale). A batch lands in
//! the partition chosen by its first key; replay applies records across
//! partitions in global `seq` order, so per-key ordering never depends
//! on which partition a batch happened to land in. The partition count
//! belongs to the directory: once `p*` subdirectories exist, reopening
//! keeps their count (see [`LogStoreBuilder::partitions`]).
//!
//! Because a crash can persist a higher-seq batch while losing a
//! lower-seq one (with more than one partition, fsyncs land partition
//! by partition), recovery keeps only the longest contiguous seq run
//! past the checkpoint and scrubs the rolled-back suffix from disk —
//! the durable state is always a prefix of history.
//!
//! The group-commit writer thread commits as soon as it wakes: it
//! drains the enqueue buffer, appends all pending batches, issues **one
//! fsync per touched partition** (one in all, with the default single
//! partition), advances the durable watermark, fires the commit hook,
//! and wakes `flush` waiters. There is no linger timer: saves that
//! arrive while a group's fsync is in flight queue up and form the next
//! group, so batching grows with load instead of with a clock. Saves
//! therefore cost a fraction of an fsync each under load, instead of
//! FileStore's one-fsync-per-save.
//!
//! Reads are served from the pending overlay (writes not yet committed
//! — read-your-writes), falling back to the in-memory index of
//! `key → (partition, segment, offset)` locations, which only ever
//! points at fsynced bytes.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, RwLock};

use super::{CommitHook, DurabilityTicket, StateStore, StoreError, Watermark};

const SEG_MAGIC: &[u8; 8] = b"GZLOG1\0\0";
const CKPT_MAGIC: &[u8; 4] = b"GZCK";
const OP_PUT: u8 = 1;
const OP_DELETE: u8 = 2;

const RUNNING: u8 = 0;
const STOPPING: u8 = 1;
const CRASHED: u8 = 2;

/// Where a committed value lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Loc {
    /// Sequence number of the batch that wrote it (replay tiebreaker).
    seq: u64,
    part: u32,
    seg: u64,
    /// Byte offset of the value within the segment file.
    off: u64,
    len: u32,
}

/// One key's share of a queued batch.
struct PendingOp {
    key: String,
    /// `None` is a delete.
    val: Option<Arc<Vec<u8>>>,
}

struct QueueEntry {
    seq: u64,
    queued: Instant,
    ops: Vec<PendingOp>,
}

struct OverlayVal {
    seq: u64,
    val: Option<Arc<Vec<u8>>>,
}

#[derive(Default)]
struct PendingState {
    /// Read-your-writes view of everything enqueued but not yet
    /// committed; cleared per-key as commits catch up.
    overlay: HashMap<String, OverlayVal>,
    queue: Vec<QueueEntry>,
}

struct Partition {
    seg_id: u64,
    file: File,
    /// Bytes appended to the current segment (including its magic).
    seg_bytes: u64,
}

#[derive(Default)]
struct PartAccounting {
    /// Value bytes currently referenced by the index in this partition.
    live: u64,
    /// Value bytes superseded or deleted but still on disk here.
    dead: u64,
}

/// Point-in-time counters for benches and the obs mirror.
#[derive(Debug, Clone, Copy, Default)]
pub struct LogStats {
    /// fsync calls issued by the commit path (group commits + rotations
    /// + compactions).
    pub fsyncs: u64,
    /// Group commits completed.
    pub group_commits: u64,
    /// Individual save/delete operations made durable.
    pub committed_entries: u64,
    /// Bytes appended to segment files.
    pub log_bytes: u64,
    /// Checkpoints published.
    pub checkpoints: u64,
    /// Partition compactions completed.
    pub compactions: u64,
}

#[derive(Default)]
struct StatCells {
    fsyncs: AtomicU64,
    group_commits: AtomicU64,
    committed_entries: AtomicU64,
    log_bytes: AtomicU64,
    checkpoints: AtomicU64,
    compactions: AtomicU64,
}

struct LogInner {
    dir: PathBuf,
    segment_bytes: u64,
    nparts: u32,
    compact_dead_ratio: f64,
    compact_min_bytes: u64,

    index: RwLock<HashMap<String, Loc>>,
    pending: Mutex<PendingState>,
    work_cv: Condvar,
    /// Durable watermark guarded for `flush` waiters; mirrored into
    /// `durable_seq` for the lock-free probe.
    commit: Mutex<u64>,
    commit_cv: Condvar,
    durable_seq: AtomicU64,
    next_seq: AtomicU64,
    stop: AtomicU8,
    failed: Mutex<Option<StoreError>>,

    parts: Vec<Mutex<Partition>>,
    /// Current segment id per partition, readable without the partition
    /// lock (checkpoint needs every partition's position at once).
    seg_ids: Vec<AtomicU64>,
    acct: Mutex<Vec<PartAccounting>>,
    readers: Mutex<HashMap<(u32, u64), Arc<File>>>,

    written: AtomicU64,
    read: AtomicU64,
    stats: StatCells,
    commit_hook: Mutex<Option<CommitHook>>,
    commit_latency: Mutex<Option<Arc<gozer_obs::Histogram>>>,
}

/// Log-structured [`StateStore`] with group commit and speculative
/// persistence. Construct with [`LogStore::builder`]:
///
/// ```no_run
/// use vinz::LogStore;
/// let store = LogStore::builder("/var/lib/gozer/log")
///     .segment_bytes(8 * 1024 * 1024)
///     .build()
///     .unwrap();
/// ```
pub struct LogStore {
    inner: Arc<LogInner>,
    writer: Mutex<Option<std::thread::JoinHandle<()>>>,
}

/// Configures and opens a [`LogStore`]; see [`LogStore::builder`].
#[derive(Debug, Clone)]
pub struct LogStoreBuilder {
    dir: PathBuf,
    segment_bytes: u64,
    partitions: Option<u32>,
    compact_dead_ratio: f64,
    compact_min_bytes: u64,
}

impl LogStoreBuilder {
    /// Rotate a partition's segment after roughly this many bytes
    /// (default 8 MiB).
    pub fn segment_bytes(mut self, bytes: u64) -> LogStoreBuilder {
        self.segment_bytes = bytes.max(64);
        self
    }

    /// Number of independent commit-log partitions. Each partition a
    /// group touches costs one more fsync per commit. The count is fixed
    /// when the directory is created. Left unset, an existing store
    /// keeps the count it was created with and a new one gets 1. Set, it
    /// must match an existing store's count, or the open fails before
    /// touching a file.
    pub fn partitions(mut self, n: u32) -> LogStoreBuilder {
        self.partitions = Some(n.clamp(1, 64));
        self
    }

    /// Compact a partition once this fraction of its bytes is dead
    /// (default 0.5).
    pub fn compact_dead_ratio(mut self, ratio: f64) -> LogStoreBuilder {
        self.compact_dead_ratio = ratio.clamp(0.05, 1.0);
        self
    }

    /// Don't bother compacting below this many dead bytes (default
    /// 64 KiB).
    pub fn compact_min_bytes(mut self, bytes: u64) -> LogStoreBuilder {
        self.compact_min_bytes = bytes;
        self
    }

    /// Open the store: create the directory tree, recover from any
    /// existing checkpoint + segments (truncating a torn tail), and
    /// start the group-commit writer thread.
    pub fn build(self) -> Result<LogStore, StoreError> {
        LogStore::open(self)
    }
}

impl LogStore {
    /// Start configuring a store rooted at `dir`.
    pub fn builder(dir: impl Into<PathBuf>) -> LogStoreBuilder {
        LogStoreBuilder {
            dir: dir.into(),
            segment_bytes: 8 * 1024 * 1024,
            partitions: None,
            compact_dead_ratio: 0.5,
            compact_min_bytes: 64 * 1024,
        }
    }

    fn open(cfg: LogStoreBuilder) -> Result<LogStore, StoreError> {
        let nparts = match (disk_partitions(&cfg.dir)?, cfg.partitions) {
            (Some(disk), Some(asked)) if disk != asked => {
                return Err(StoreError::backend(format!(
                    "store at {} has {disk} partitions, builder asked for {asked}",
                    cfg.dir.display()
                )));
            }
            (Some(disk), _) => disk,
            (None, asked) => asked.unwrap_or(1),
        };
        fs::create_dir_all(&cfg.dir).map_err(StoreError::io)?;
        for p in 0..nparts {
            fs::create_dir_all(cfg.dir.join(format!("p{p}"))).map_err(StoreError::io)?;
        }

        let recovered = recover(&cfg, nparts)?;

        let mut parts = Vec::with_capacity(nparts as usize);
        let mut seg_ids = Vec::with_capacity(nparts as usize);
        for p in 0..nparts {
            // Always start appending into a fresh segment: a possibly
            // truncated tail is never written to again, so "one
            // segment, one writer incarnation" holds by construction.
            let seg_id = recovered.max_seg[p as usize] + 1;
            let file = create_segment(&cfg.dir, p, seg_id)?;
            parts.push(Mutex::new(Partition {
                seg_id,
                file,
                seg_bytes: SEG_MAGIC.len() as u64,
            }));
            seg_ids.push(AtomicU64::new(seg_id));
        }

        let mut acct: Vec<PartAccounting> = Vec::new();
        acct.resize_with(nparts as usize, PartAccounting::default);
        for loc in recovered.index.values() {
            acct[loc.part as usize].live += loc.len as u64;
        }

        let inner = Arc::new(LogInner {
            dir: cfg.dir,
            segment_bytes: cfg.segment_bytes,
            nparts,
            compact_dead_ratio: cfg.compact_dead_ratio,
            compact_min_bytes: cfg.compact_min_bytes,
            index: RwLock::new(recovered.index),
            pending: Mutex::new(PendingState::default()),
            work_cv: Condvar::new(),
            commit: Mutex::new(recovered.next_seq),
            commit_cv: Condvar::new(),
            durable_seq: AtomicU64::new(recovered.next_seq),
            next_seq: AtomicU64::new(recovered.next_seq),
            stop: AtomicU8::new(RUNNING),
            failed: Mutex::new(None),
            parts,
            seg_ids,
            acct: Mutex::new(acct),
            readers: Mutex::new(HashMap::new()),
            written: AtomicU64::new(0),
            read: AtomicU64::new(0),
            stats: StatCells::default(),
            commit_hook: Mutex::new(None),
            commit_latency: Mutex::new(None),
        });

        let writer_inner = inner.clone();
        let handle = std::thread::Builder::new()
            .name("gozer-log-commit".into())
            .spawn(move || writer_loop(writer_inner))
            .map_err(StoreError::io)?;

        Ok(LogStore {
            inner,
            writer: Mutex::new(Some(handle)),
        })
    }

    /// Counters for benches and smoke checks.
    pub fn stats(&self) -> LogStats {
        let s = &self.inner.stats;
        LogStats {
            fsyncs: s.fsyncs.load(Ordering::Relaxed),
            group_commits: s.group_commits.load(Ordering::Relaxed),
            committed_entries: s.committed_entries.load(Ordering::Relaxed),
            log_bytes: s.log_bytes.load(Ordering::Relaxed),
            checkpoints: s.checkpoints.load(Ordering::Relaxed),
            compactions: s.compactions.load(Ordering::Relaxed),
        }
    }

    /// Kill the commit thread *without* draining pending writes, as a
    /// power cut would: everything enqueued after the last group commit
    /// is lost, everything fsynced survives. The store object rejects
    /// further writes; reopen the directory with a fresh builder to
    /// exercise recovery. Test affordance for the crash-recovery suite.
    pub fn simulate_crash(&self) {
        self.inner.stop.store(CRASHED, Ordering::SeqCst);
        self.inner.work_cv.notify_all();
        self.inner.commit_cv.notify_all();
        if let Some(h) = self.writer.lock().take() {
            let _ = h.join();
        }
        // The un-fsynced overlay dies with the "machine".
        self.inner.pending.lock().overlay.clear();
        self.inner.pending.lock().queue.clear();
    }

    fn enqueue(&self, ops: Vec<PendingOp>) -> Result<Watermark, StoreError> {
        if self.inner.stop.load(Ordering::SeqCst) != RUNNING {
            return Err(StoreError::backend("store is shut down"));
        }
        if let Some(err) = self.inner.failed.lock().clone() {
            return Err(err);
        }
        // Seq allocation happens under the pending lock so queue order
        // is seq order and no seq can exist outside the queue. If it
        // were allocated first, a preempted enqueuer could let a
        // later-seq batch commit ahead of it: the watermark would then
        // cover this batch's seq — releasing messages gated on it —
        // while its bytes were still only in this thread's stack, and a
        // stale-seq overlay insert could clobber a newer value.
        let mut p = self.inner.pending.lock();
        let seq = self.inner.next_seq.fetch_add(1, Ordering::SeqCst) + 1;
        for op in &ops {
            p.overlay.insert(
                op.key.clone(),
                OverlayVal {
                    seq,
                    val: op.val.clone(),
                },
            );
        }
        p.queue.push(QueueEntry {
            seq,
            queued: Instant::now(),
            ops,
        });
        drop(p);
        self.inner.work_cv.notify_one();
        Ok(Watermark(seq))
    }

    fn read_loc(&self, key: &str, loc: Loc) -> Result<Vec<u8>, StoreError> {
        let file = {
            let mut readers = self.inner.readers.lock();
            match readers.get(&(loc.part, loc.seg)) {
                Some(f) => f.clone(),
                None => {
                    let path = seg_path(&self.inner.dir, loc.part, loc.seg);
                    let f = Arc::new(File::open(&path).map_err(StoreError::io)?);
                    readers.insert((loc.part, loc.seg), f.clone());
                    f
                }
            }
        };
        let mut buf = vec![0u8; loc.len as usize];
        file.read_exact_at(&mut buf, loc.off).map_err(|e| {
            StoreError::corrupt(
                key,
                format!(
                    "short read for {key} at p{}/seg-{} off {}: {e}",
                    loc.part, loc.seg, loc.off
                ),
            )
        })?;
        Ok(buf)
    }
}

impl Drop for LogStore {
    fn drop(&mut self) {
        let _ = self.inner.stop.compare_exchange(
            RUNNING,
            STOPPING,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        self.inner.work_cv.notify_all();
        self.inner.commit_cv.notify_all();
        if let Some(h) = self.writer.lock().take() {
            let _ = h.join();
        }
    }
}

impl StateStore for LogStore {
    fn put(&self, key: &str, data: &[u8]) -> Result<(), StoreError> {
        self.inner
            .written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.enqueue(vec![PendingOp {
            key: key.to_string(),
            val: Some(Arc::new(data.to_vec())),
        }])?;
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError> {
        // Read-your-writes: the overlay wins until the commit thread
        // has both fsynced the batch and published its index entry.
        if let Some(ov) = self.inner.pending.lock().overlay.get(key) {
            return match &ov.val {
                Some(v) => {
                    self.inner
                        .read
                        .fetch_add(v.len() as u64, Ordering::Relaxed);
                    Ok(Some(v.as_ref().clone()))
                }
                None => Ok(None),
            };
        }
        // Compaction may unlink a segment between our index lookup and
        // the open; the refreshed index then points into the compacted
        // segment, so retry once.
        for attempt in 0..2 {
            let loc = match self.inner.index.read().get(key) {
                Some(l) => *l,
                None => return Ok(None),
            };
            match self.read_loc(key, loc) {
                Ok(data) => {
                    self.inner
                        .read
                        .fetch_add(data.len() as u64, Ordering::Relaxed);
                    return Ok(Some(data));
                }
                Err(StoreError::Io(_)) if attempt == 0 => continue,
                Err(e) => return Err(e),
            }
        }
        unreachable!("read_loc retry loop returns")
    }

    fn delete(&self, key: &str) -> Result<(), StoreError> {
        self.enqueue(vec![PendingOp {
            key: key.to_string(),
            val: None,
        }])?;
        Ok(())
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>, StoreError> {
        let mut keys: std::collections::BTreeSet<String> = self
            .inner
            .index
            .read()
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect();
        for (k, ov) in self.inner.pending.lock().overlay.iter() {
            if !k.starts_with(prefix) {
                continue;
            }
            if ov.val.is_some() {
                keys.insert(k.clone());
            } else {
                keys.remove(k);
            }
        }
        Ok(keys.into_iter().collect())
    }

    fn bytes_written(&self) -> u64 {
        self.inner.written.load(Ordering::Relaxed)
    }

    fn bytes_read(&self) -> u64 {
        self.inner.read.load(Ordering::Relaxed)
    }

    fn put_batch(&self, entries: &[(&str, &[u8])]) -> Result<DurabilityTicket, StoreError> {
        if entries.is_empty() {
            return Ok(Watermark(self.inner.durable_seq.load(Ordering::SeqCst)));
        }
        let mut total = 0u64;
        let ops = entries
            .iter()
            .map(|(k, v)| {
                total += v.len() as u64;
                PendingOp {
                    key: (*k).to_string(),
                    val: Some(Arc::new(v.to_vec())),
                }
            })
            .collect();
        self.inner.written.fetch_add(total, Ordering::Relaxed);
        self.enqueue(ops)
    }

    fn flush(&self) -> Result<Watermark, StoreError> {
        let target = self.inner.next_seq.load(Ordering::SeqCst);
        self.inner.work_cv.notify_one();
        let mut durable = self.inner.commit.lock();
        loop {
            if let Some(err) = self.inner.failed.lock().clone() {
                return Err(err);
            }
            if *durable >= target {
                return Ok(Watermark(*durable));
            }
            if self.inner.stop.load(Ordering::SeqCst) == CRASHED {
                return Err(StoreError::backend("store crashed before flush completed"));
            }
            self.inner
                .commit_cv
                .wait_for(&mut durable, Duration::from_millis(50));
        }
    }

    fn durable(&self, w: Watermark) -> bool {
        w.is_immediate() || self.inner.durable_seq.load(Ordering::SeqCst) >= w.0
    }

    fn attach_obs(&self, obs: &Arc<gozer_obs::Obs>) {
        let reg = &obs.registry;
        let mirror = |cell: fn(&StatCells) -> &AtomicU64, inner: &Arc<LogInner>| {
            let inner = inner.clone();
            move || cell(&inner.stats).load(Ordering::Relaxed)
        };
        reg.counter_fn(
            "gozer_store_fsyncs_total",
            "fsync calls issued by the log store's commit path.",
            "",
            mirror(|s| &s.fsyncs, &self.inner),
        );
        reg.counter_fn(
            "gozer_store_group_commit_batch_total",
            "Group commits completed by the log store.",
            "",
            mirror(|s| &s.group_commits, &self.inner),
        );
        reg.counter_fn(
            "gozer_store_log_bytes_total",
            "Bytes appended to log segments.",
            "",
            mirror(|s| &s.log_bytes, &self.inner),
        );
        reg.counter_fn(
            "gozer_store_compactions_total",
            "Partition compactions completed by the log store.",
            "",
            mirror(|s| &s.compactions, &self.inner),
        );
        let hist = reg.histogram(
            "gozer_store_commit_latency",
            "Enqueue-to-durable latency of saves through the group-commit path.",
            "",
        );
        *self.inner.commit_latency.lock() = Some(hist);
    }

    fn set_commit_hook(&self, hook: CommitHook) {
        *self.inner.commit_hook.lock() = Some(hook);
    }
}

/// FNV-1a; stable across runs so a key's partition never changes.
fn partition_of(key: &str, nparts: u32) -> u32 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in key.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    (h % nparts as u64) as u32
}

fn seg_path(dir: &Path, part: u32, seg: u64) -> PathBuf {
    dir.join(format!("p{part}")).join(format!("seg-{seg:010}.log"))
}

fn create_segment(dir: &Path, part: u32, seg: u64) -> Result<File, StoreError> {
    let path = seg_path(dir, part, seg);
    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&path)
        .map_err(StoreError::io)?;
    file.write_all(SEG_MAGIC).map_err(StoreError::io)?;
    // Make the new name itself durable: fsync the directory entry.
    if let Ok(d) = File::open(path.parent().expect("segment has parent")) {
        let _ = d.sync_all();
    }
    Ok(file)
}

/// Serialize one batch into a framed record; returns the byte offset of
/// each put value relative to the start of the record.
fn encode_record(entry: &QueueEntry) -> (Vec<u8>, Vec<Option<(u64, u32)>>) {
    let mut payload = Vec::with_capacity(64);
    payload.extend_from_slice(&entry.seq.to_le_bytes());
    payload.extend_from_slice(&(entry.ops.len() as u32).to_le_bytes());
    let mut val_offsets = Vec::with_capacity(entry.ops.len());
    for op in &entry.ops {
        payload.push(if op.val.is_some() { OP_PUT } else { OP_DELETE });
        payload.extend_from_slice(&(op.key.len() as u16).to_le_bytes());
        payload.extend_from_slice(op.key.as_bytes());
        match &op.val {
            Some(v) => {
                payload.extend_from_slice(&(v.len() as u32).to_le_bytes());
                // +8 for the [len][crc] frame header in front of payload.
                val_offsets.push(Some((8 + payload.len() as u64, v.len() as u32)));
                payload.extend_from_slice(v);
            }
            None => {
                payload.extend_from_slice(&0u32.to_le_bytes());
                val_offsets.push(None);
            }
        }
    }
    let mut record = Vec::with_capacity(8 + payload.len());
    record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    record.extend_from_slice(&gozer_compress::crc32(&payload).to_le_bytes());
    record.extend_from_slice(&payload);
    (record, val_offsets)
}

/// Commit on wakeup: take whatever is queued and commit it as one group.
/// Saves enqueued while that group's fsync is in flight wait in the
/// queue and become the next group, so no timer is needed to batch.
fn writer_loop(inner: Arc<LogInner>) {
    loop {
        let batch = {
            let mut p = inner.pending.lock();
            while p.queue.is_empty() && inner.stop.load(Ordering::SeqCst) == RUNNING {
                inner.work_cv.wait(&mut p);
            }
            match inner.stop.load(Ordering::SeqCst) {
                CRASHED => return,
                STOPPING if p.queue.is_empty() => return,
                _ => {}
            }
            std::mem::take(&mut p.queue)
        };
        if let Err(err) = commit_group(&inner, &batch) {
            *inner.failed.lock() = Some(err);
            inner.commit_cv.notify_all();
            return;
        }
    }
}

fn commit_group(inner: &Arc<LogInner>, batch: &[QueueEntry]) -> Result<(), StoreError> {
    // Assign each batch to the partition of its first key and append.
    let mut by_part: Vec<Vec<&QueueEntry>> = (0..inner.nparts).map(|_| Vec::new()).collect();
    for entry in batch {
        let part = entry
            .ops
            .first()
            .map(|op| partition_of(&op.key, inner.nparts))
            .unwrap_or(0);
        by_part[part as usize].push(entry);
    }

    let mut updates: Vec<(u64, String, Option<Loc>)> = Vec::new();
    let mut max_seq = 0u64;
    let mut appended = 0u64;
    for (pid, entries) in by_part.iter().enumerate() {
        if entries.is_empty() {
            continue;
        }
        let mut part = inner.parts[pid].lock();
        for entry in entries {
            let (record, val_offsets) = encode_record(entry);
            if part.seg_bytes + record.len() as u64 > inner.segment_bytes
                && part.seg_bytes > SEG_MAGIC.len() as u64
            {
                rotate(inner, pid as u32, &mut part)?;
            }
            let base = part.seg_bytes;
            part.file.write_all(&record).map_err(StoreError::io)?;
            part.seg_bytes += record.len() as u64;
            appended += record.len() as u64;
            for (op, val_off) in entry.ops.iter().zip(&val_offsets) {
                let loc = val_off.map(|(rel, len)| Loc {
                    seq: entry.seq,
                    part: pid as u32,
                    seg: part.seg_id,
                    off: base + rel,
                    len,
                });
                updates.push((entry.seq, op.key.clone(), loc));
            }
            max_seq = max_seq.max(entry.seq);
        }
        // The durability point for every save in this partition's share
        // of the group: one fsync, however many batches piled up.
        part.file.sync_all().map_err(StoreError::io)?;
        inner.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
    }

    // Publish locations, then retire the overlay entries they replace.
    apply_index_updates(inner, &updates);
    // Stats before the watermark advances: a caller returning from
    // `flush()` must already see this commit's counters.
    inner.stats.group_commits.fetch_add(1, Ordering::Relaxed);
    inner
        .stats
        .committed_entries
        .fetch_add(updates.len() as u64, Ordering::Relaxed);
    inner.stats.log_bytes.fetch_add(appended, Ordering::Relaxed);
    {
        let mut durable = inner.commit.lock();
        *durable = (*durable).max(max_seq);
        inner.durable_seq.store(*durable, Ordering::SeqCst);
    }
    inner.commit_cv.notify_all();
    {
        let mut p = inner.pending.lock();
        p.overlay.retain(|_, ov| ov.seq > max_seq);
    }

    if let Some(hist) = inner.commit_latency.lock().clone() {
        for entry in batch {
            hist.observe_duration(entry.queued.elapsed());
        }
    }
    let hook = inner.commit_hook.lock().clone();
    if let Some(hook) = hook {
        hook(Watermark(max_seq));
    }

    for pid in 0..inner.nparts {
        if should_compact(inner, pid) {
            compact_partition(inner, pid)?;
        }
    }
    Ok(())
}

fn apply_index_updates(inner: &LogInner, updates: &[(u64, String, Option<Loc>)]) {
    let mut idx = inner.index.write();
    let mut acct = inner.acct.lock();
    for (seq, key, new_loc) in updates {
        let current = idx.get(key).copied();
        // Two queued batches can touch the same key; their records may
        // be appended partition-by-partition rather than in seq order,
        // so the newest seq must win regardless of apply order.
        if let Some(cur) = current {
            if cur.seq > *seq {
                continue;
            }
        }
        match new_loc {
            Some(loc) => {
                if let Some(old) = idx.insert(key.clone(), *loc) {
                    acct[old.part as usize].dead += old.len as u64;
                    acct[old.part as usize].live =
                        acct[old.part as usize].live.saturating_sub(old.len as u64);
                }
                acct[loc.part as usize].live += loc.len as u64;
            }
            None => {
                if let Some(old) = idx.remove(key) {
                    acct[old.part as usize].dead += old.len as u64;
                    acct[old.part as usize].live =
                        acct[old.part as usize].live.saturating_sub(old.len as u64);
                }
            }
        }
    }
}

fn rotate(inner: &LogInner, pid: u32, part: &mut Partition) -> Result<(), StoreError> {
    part.file.sync_all().map_err(StoreError::io)?;
    inner.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
    part.seg_id += 1;
    part.file = create_segment(&inner.dir, pid, part.seg_id)?;
    part.seg_bytes = SEG_MAGIC.len() as u64;
    inner.seg_ids[pid as usize].store(part.seg_id, Ordering::SeqCst);
    Ok(())
}

fn should_compact(inner: &LogInner, pid: u32) -> bool {
    let acct = inner.acct.lock();
    let a = &acct[pid as usize];
    let total = a.live + a.dead;
    a.dead >= inner.compact_min_bytes
        && total > 0
        && (a.dead as f64) / (total as f64) >= inner.compact_dead_ratio
}

/// Rewrite a partition's live values into a fresh segment, publish a
/// checkpoint, then delete the partition's older segments.
///
/// Crash-ordering invariants:
/// 1. the fresh segment is fsynced before the checkpoint names it,
/// 2. the checkpoint is published (tmp + rename) before any old segment
///    is unlinked,
/// 3. replay of a half-written compaction segment is idempotent because
///    moved records keep their original `seq`.
fn compact_partition(inner: &Arc<LogInner>, pid: u32) -> Result<(), StoreError> {
    let mut part = inner.parts[pid as usize].lock();
    rotate(inner, pid, &mut part)?;
    let target_seg = part.seg_id;

    let live: Vec<(String, Loc)> = inner
        .index
        .read()
        .iter()
        .filter(|(_, loc)| loc.part == pid && loc.seg < target_seg)
        .map(|(k, l)| (k.clone(), *l))
        .collect();

    let mut moved: Vec<(String, Loc, Loc)> = Vec::with_capacity(live.len());
    let mut live_bytes = 0u64;
    for (key, loc) in live {
        let val = read_loc_raw(inner, &key, loc)?;
        let entry = QueueEntry {
            seq: loc.seq,
            queued: Instant::now(),
            ops: vec![PendingOp {
                key: key.clone(),
                val: Some(Arc::new(val)),
            }],
        };
        let (record, val_offsets) = encode_record(&entry);
        let base = part.seg_bytes;
        part.file.write_all(&record).map_err(StoreError::io)?;
        part.seg_bytes += record.len() as u64;
        inner
            .stats
            .log_bytes
            .fetch_add(record.len() as u64, Ordering::Relaxed);
        let (rel, len) = val_offsets[0].expect("compaction writes puts");
        live_bytes += len as u64;
        moved.push((
            key,
            loc,
            Loc {
                seq: loc.seq,
                part: pid,
                seg: target_seg,
                off: base + rel,
                len,
            },
        ));
    }
    part.file.sync_all().map_err(StoreError::io)?;
    inner.stats.fsyncs.fetch_add(1, Ordering::Relaxed);

    {
        let mut idx = inner.index.write();
        for (key, old, new) in &moved {
            if let Some(cur) = idx.get_mut(key) {
                if *cur == *old {
                    *cur = *new;
                }
            }
        }
    }

    write_checkpoint(inner)?;

    // Only now is it safe to drop the old segments.
    let mut dropped = Vec::new();
    let dir = inner.dir.join(format!("p{pid}"));
    for seg in list_segments(&dir)? {
        if seg < target_seg {
            let _ = fs::remove_file(seg_path(&inner.dir, pid, seg));
            dropped.push(seg);
        }
    }
    {
        let mut readers = inner.readers.lock();
        for seg in dropped {
            readers.remove(&(pid, seg));
        }
    }
    {
        let mut acct = inner.acct.lock();
        acct[pid as usize].live = live_bytes;
        acct[pid as usize].dead = 0;
    }
    inner.stats.compactions.fetch_add(1, Ordering::Relaxed);
    Ok(())
}

/// Segment read used by compaction (bypasses the overlay).
fn read_loc_raw(inner: &LogInner, key: &str, loc: Loc) -> Result<Vec<u8>, StoreError> {
    let file = {
        let mut readers = inner.readers.lock();
        match readers.get(&(loc.part, loc.seg)) {
            Some(f) => f.clone(),
            None => {
                let path = seg_path(&inner.dir, loc.part, loc.seg);
                let f = Arc::new(File::open(&path).map_err(StoreError::io)?);
                readers.insert((loc.part, loc.seg), f.clone());
                f
            }
        }
    };
    let mut buf = vec![0u8; loc.len as usize];
    file.read_exact_at(&mut buf, loc.off)
        .map_err(|e| StoreError::corrupt(key, format!("short read for {key}: {e}")))?;
    Ok(buf)
}

fn write_checkpoint(inner: &LogInner) -> Result<(), StoreError> {
    let ckpt_seq = inner.durable_seq.load(Ordering::SeqCst);
    let mut payload = Vec::new();
    payload.extend_from_slice(&ckpt_seq.to_le_bytes());
    payload.extend_from_slice(&inner.nparts.to_le_bytes());
    for pid in 0..inner.nparts as usize {
        payload.extend_from_slice(&inner.seg_ids[pid].load(Ordering::SeqCst).to_le_bytes());
    }
    {
        let idx = inner.index.read();
        payload.extend_from_slice(&(idx.len() as u64).to_le_bytes());
        for (key, loc) in idx.iter() {
            payload.extend_from_slice(&(key.len() as u16).to_le_bytes());
            payload.extend_from_slice(key.as_bytes());
            payload.extend_from_slice(&loc.seq.to_le_bytes());
            payload.extend_from_slice(&loc.part.to_le_bytes());
            payload.extend_from_slice(&loc.seg.to_le_bytes());
            payload.extend_from_slice(&loc.off.to_le_bytes());
            payload.extend_from_slice(&loc.len.to_le_bytes());
        }
    }
    let tmp = inner.dir.join("checkpoint.tmp");
    let path = inner.dir.join("checkpoint");
    let mut f = File::create(&tmp).map_err(StoreError::io)?;
    f.write_all(CKPT_MAGIC).map_err(StoreError::io)?;
    f.write_all(&(payload.len() as u32).to_le_bytes())
        .map_err(StoreError::io)?;
    f.write_all(&gozer_compress::crc32(&payload).to_le_bytes())
        .map_err(StoreError::io)?;
    f.write_all(&payload).map_err(StoreError::io)?;
    f.sync_all().map_err(StoreError::io)?;
    fs::rename(&tmp, &path).map_err(StoreError::io)?;
    if let Ok(d) = File::open(&inner.dir) {
        let _ = d.sync_all();
    }
    inner.stats.checkpoints.fetch_add(1, Ordering::Relaxed);
    inner.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
    Ok(())
}

struct Recovered {
    index: HashMap<String, Loc>,
    next_seq: u64,
    /// Highest segment id present per partition (0 if none).
    max_seg: Vec<u64>,
}

/// One framed batch record surfaced by replay (only records above the
/// checkpoint sequence are collected).
struct ReplayRec {
    seq: u64,
    pid: u32,
    seg: u64,
    /// Byte offset of the record's frame header within its segment.
    off: u64,
    ops: Vec<(String, Option<Loc>)>,
}

struct Checkpoint {
    seq: u64,
    replay_from: Vec<u64>,
    index: HashMap<String, Loc>,
}

fn recover(cfg: &LogStoreBuilder, nparts: u32) -> Result<Recovered, StoreError> {
    let ckpt = load_checkpoint(&cfg.dir, nparts)?;
    let (ckpt_seq, replay_from, mut index) = match ckpt {
        Some(c) => (c.seq, c.replay_from, c.index),
        None => (0, vec![0; nparts as usize], HashMap::new()),
    };

    // Records with seq > ckpt_seq, gathered across every partition and
    // applied in global seq order: per-key ordering is independent of
    // which partition a batch landed in. Records at or below ckpt_seq
    // are already reflected in the checkpoint index (compaction
    // rewrites keep their original seq and are indexed before the
    // checkpoint publishes).
    let mut recs: Vec<ReplayRec> = Vec::new();
    let mut max_seg = vec![0u64; nparts as usize];

    for pid in 0..nparts {
        let dir = cfg.dir.join(format!("p{pid}"));
        let segs = list_segments(&dir)?;
        let Some(&tail) = segs.last() else { continue };
        max_seg[pid as usize] = tail;
        for &seg in &segs {
            if seg < replay_from[pid as usize] {
                continue;
            }
            scan_segment(cfg, pid, seg, seg == tail, ckpt_seq, &mut recs)?;
        }
    }

    // The commit point is the end of the longest *contiguous* seq run
    // above the checkpoint. With more than one partition, group commit
    // fsyncs them one at a time — and a power cut doesn't respect
    // append order inside a partition's page cache either — so a
    // higher-seq batch can be on disk while a lower-seq one is lost.
    // Any surviving record past such a gap may embed state read
    // speculatively from the missing batch (cross-fiber overlay reads
    // are not gated), so the whole suffix rolls back: recovery yields a
    // prefix of history, never a sieve.
    recs.sort_by_key(|r| r.seq);
    let mut commit_point = ckpt_seq;
    for r in &recs {
        if r.seq <= commit_point {
            continue;
        }
        if Some(r.seq) == commit_point.checked_add(1) {
            commit_point = r.seq;
        } else {
            break;
        }
    }

    // Physically drop the rolled-back suffix. Leaving it on disk would
    // let fresh writes reuse its seqs (next_seq restarts at the commit
    // point), and the next recovery would then stitch the zombie
    // records back into a "contiguous" history. Within a partition,
    // append order is seq order, so the doomed records form a suffix:
    // truncate the first doomed record's segment at its frame and
    // remove any later segments.
    let mut cut: Vec<Option<(u64, u64)>> = vec![None; nparts as usize];
    for r in &recs {
        if r.seq <= commit_point {
            continue;
        }
        let c = &mut cut[r.pid as usize];
        if c.map_or(true, |cur| (r.seg, r.off) < cur) {
            *c = Some((r.seg, r.off));
        }
    }
    for (pid, c) in cut.iter().enumerate() {
        let Some((seg, off)) = *c else { continue };
        let f = OpenOptions::new()
            .write(true)
            .open(seg_path(&cfg.dir, pid as u32, seg))
            .map_err(StoreError::io)?;
        f.set_len(off).map_err(StoreError::io)?;
        f.sync_all().map_err(StoreError::io)?;
        for later in list_segments(&cfg.dir.join(format!("p{pid}")))? {
            if later > seg {
                fs::remove_file(seg_path(&cfg.dir, pid as u32, later)).map_err(StoreError::io)?;
            }
        }
    }

    for rec in recs {
        if rec.seq > commit_point {
            continue;
        }
        for (key, loc) in rec.ops {
            match loc {
                Some(l) => {
                    index.insert(key, l);
                }
                None => {
                    index.remove(&key);
                }
            }
        }
    }

    Ok(Recovered {
        index,
        next_seq: commit_point,
        max_seg,
    })
}

/// The partition count an existing store directory was created with:
/// one past the highest `p<N>` subdirectory, or `None` for a new store.
/// Recovery must scan every partition that may hold records; opening
/// with fewer would read the missing ones' seqs as gaps and scrub the
/// history after them.
fn disk_partitions(dir: &Path) -> Result<Option<u32>, StoreError> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StoreError::io(e)),
    };
    let mut count = None;
    for entry in entries {
        let entry = entry.map_err(StoreError::io)?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(n) = name.strip_prefix('p').and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        if entry.file_type().map_err(StoreError::io)?.is_dir() {
            count = count.max(Some(n + 1));
        }
    }
    Ok(count)
}

fn list_segments(dir: &Path) -> Result<Vec<u64>, StoreError> {
    let mut segs = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(segs),
        Err(e) => return Err(StoreError::io(e)),
    };
    for entry in entries {
        let entry = entry.map_err(StoreError::io)?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(num) = name
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(".log"))
        {
            if let Ok(n) = num.parse::<u64>() {
                segs.push(n);
            }
        }
    }
    segs.sort_unstable();
    Ok(segs)
}

/// Replay one segment. A damaged frame in the tail segment is a torn
/// write: the file is truncated at the last valid record and the scan
/// stops. Damage anywhere else is real corruption and fails recovery.
fn scan_segment(
    cfg: &LogStoreBuilder,
    pid: u32,
    seg: u64,
    is_tail: bool,
    ckpt_seq: u64,
    out: &mut Vec<ReplayRec>,
) -> Result<(), StoreError> {
    let path = seg_path(&cfg.dir, pid, seg);
    let data = fs::read(&path).map_err(StoreError::io)?;
    let label = format!("p{pid}/seg-{seg:010}.log");

    let truncate_to = |off: usize| -> Result<(), StoreError> {
        let f = OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(StoreError::io)?;
        f.set_len(off as u64).map_err(StoreError::io)?;
        f.sync_all().map_err(StoreError::io)?;
        Ok(())
    };

    if data.len() < SEG_MAGIC.len() || &data[..SEG_MAGIC.len()] != SEG_MAGIC {
        // `create_segment` doesn't fsync the magic, so a power cut can
        // leave the tail zero-length or with a half-written header.
        // Remove such a file rather than emptying it in place: once the
        // next incarnation creates a higher-numbered segment, a leftover
        // magicless file is no longer the tail and would fail every
        // later recovery as "corrupt". Zero-length segments are the same
        // accident regardless of position (including ones emptied by
        // older releases), so they are cleared wherever they sit.
        if is_tail || data.is_empty() {
            fs::remove_file(&path).map_err(StoreError::io)?;
            return Ok(());
        }
        return Err(StoreError::corrupt(
            &label,
            format!("bad segment magic in {label}"),
        ));
    }

    let mut off = SEG_MAGIC.len();
    while off < data.len() {
        let parsed = parse_record(&data, off, pid, seg, ckpt_seq);
        match parsed {
            Ok((rec, next)) => {
                out.extend(rec);
                off = next;
            }
            Err(RecordDamage::Torn) if is_tail => {
                // The canonical torn tail: the machine died mid-append.
                // Everything before this offset is intact; drop the rest.
                truncate_to(off)?;
                return Ok(());
            }
            Err(RecordDamage::Torn) => {
                return Err(StoreError::corrupt(
                    &label,
                    format!("torn record inside non-tail segment {label} at offset {off}"),
                ));
            }
            Err(RecordDamage::Malformed(why)) => {
                if is_tail {
                    truncate_to(off)?;
                    return Ok(());
                }
                return Err(StoreError::corrupt(
                    &label,
                    format!("malformed record in {label} at offset {off}: {why}"),
                ));
            }
        }
    }
    Ok(())
}

enum RecordDamage {
    /// The frame runs past the end of the file or fails its CRC.
    Torn,
    /// The CRC passes but the payload doesn't parse (fuzzer food).
    Malformed(String),
}

/// Parse the record at `off`; return it (with value locations) when its
/// seq is above the checkpoint, plus the offset of the next record.
fn parse_record(
    data: &[u8],
    off: usize,
    pid: u32,
    seg: u64,
    ckpt_seq: u64,
) -> Result<(Option<ReplayRec>, usize), RecordDamage> {
    let header = data.get(off..off + 8).ok_or(RecordDamage::Torn)?;
    let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
    let payload = data
        .get(off + 8..off + 8 + len)
        .ok_or(RecordDamage::Torn)?;
    if gozer_compress::crc32(payload) != crc {
        return Err(RecordDamage::Torn);
    }

    let seq = u64::from_le_bytes(
        payload
            .get(..8)
            .ok_or_else(|| RecordDamage::Malformed("payload shorter than seq".into()))?
            .try_into()
            .unwrap(),
    );
    let count = u32::from_le_bytes(
        payload
            .get(8..12)
            .ok_or_else(|| RecordDamage::Malformed("payload shorter than count".into()))?
            .try_into()
            .unwrap(),
    );
    let mut ops: Vec<(String, Option<Loc>)> = Vec::new();
    let mut cursor = 12usize;
    for _ in 0..count {
        let op = *payload
            .get(cursor)
            .ok_or_else(|| RecordDamage::Malformed("op byte past end".into()))?;
        cursor += 1;
        let klen = u16::from_le_bytes(
            payload
                .get(cursor..cursor + 2)
                .ok_or_else(|| RecordDamage::Malformed("klen past end".into()))?
                .try_into()
                .unwrap(),
        ) as usize;
        cursor += 2;
        let key_bytes = payload
            .get(cursor..cursor + klen)
            .ok_or_else(|| RecordDamage::Malformed("key past end".into()))?;
        let key = std::str::from_utf8(key_bytes)
            .map_err(|_| RecordDamage::Malformed("key not utf-8".into()))?
            .to_string();
        cursor += klen;
        let vlen = u32::from_le_bytes(
            payload
                .get(cursor..cursor + 4)
                .ok_or_else(|| RecordDamage::Malformed("vlen past end".into()))?
                .try_into()
                .unwrap(),
        ) as usize;
        cursor += 4;
        if payload.get(cursor..cursor + vlen).is_none() {
            return Err(RecordDamage::Malformed("value past end".into()));
        }
        let val_off = (off + 8 + cursor) as u64;
        cursor += vlen;
        match op {
            OP_PUT => {
                ops.push((
                    key,
                    Some(Loc {
                        seq,
                        part: pid,
                        seg,
                        off: val_off,
                        len: vlen as u32,
                    }),
                ));
            }
            OP_DELETE => {
                ops.push((key, None));
            }
            other => {
                return Err(RecordDamage::Malformed(format!("unknown op byte {other}")));
            }
        }
    }
    if cursor != payload.len() {
        return Err(RecordDamage::Malformed("trailing bytes after ops".into()));
    }
    let rec = (seq > ckpt_seq).then(|| ReplayRec {
        seq,
        pid,
        seg,
        off: off as u64,
        ops,
    });
    Ok((rec, off + 8 + len))
}

fn load_checkpoint(dir: &Path, nparts: u32) -> Result<Option<Checkpoint>, StoreError> {
    let path = dir.join("checkpoint");
    let data = match fs::read(&path) {
        Ok(d) => d,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StoreError::io(e)),
    };
    let label = "checkpoint";
    let corrupt = |why: &str| StoreError::corrupt(label, format!("{why} in {label}"));
    if data.len() < 12 || &data[..4] != CKPT_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let len = u32::from_le_bytes(data[4..8].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(data[8..12].try_into().unwrap());
    let payload = data.get(12..12 + len).ok_or_else(|| corrupt("short payload"))?;
    if gozer_compress::crc32(payload) != crc {
        return Err(corrupt("checksum mismatch"));
    }

    let take = |cursor: &mut usize, n: usize| -> Result<&[u8], StoreError> {
        let s = payload
            .get(*cursor..*cursor + n)
            .ok_or_else(|| corrupt("truncated field"))?;
        *cursor += n;
        Ok(s)
    };
    let mut cur = 0usize;
    let seq = u64::from_le_bytes(take(&mut cur, 8)?.try_into().unwrap());
    let stored_parts = u32::from_le_bytes(take(&mut cur, 4)?.try_into().unwrap());
    if stored_parts != nparts {
        return Err(StoreError::backend(format!(
            "checkpoint written with {stored_parts} partitions, store configured with {nparts}"
        )));
    }
    let mut replay_from = Vec::with_capacity(nparts as usize);
    for _ in 0..nparts {
        replay_from.push(u64::from_le_bytes(take(&mut cur, 8)?.try_into().unwrap()));
    }
    let nkeys = u64::from_le_bytes(take(&mut cur, 8)?.try_into().unwrap());
    let mut index = HashMap::new();
    for _ in 0..nkeys {
        let klen = u16::from_le_bytes(take(&mut cur, 2)?.try_into().unwrap()) as usize;
        let key = std::str::from_utf8(take(&mut cur, klen)?)
            .map_err(|_| corrupt("key not utf-8"))?
            .to_string();
        let kseq = u64::from_le_bytes(take(&mut cur, 8)?.try_into().unwrap());
        let part = u32::from_le_bytes(take(&mut cur, 4)?.try_into().unwrap());
        let seg = u64::from_le_bytes(take(&mut cur, 8)?.try_into().unwrap());
        let off = u64::from_le_bytes(take(&mut cur, 8)?.try_into().unwrap());
        let vlen = u32::from_le_bytes(take(&mut cur, 4)?.try_into().unwrap());
        index.insert(
            key,
            Loc {
                seq: kseq,
                part,
                seg,
                off,
                len: vlen,
            },
        );
    }
    Ok(Some(Checkpoint {
        seq,
        replay_from,
        index,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn tmp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("gozer-log-{tag}-{}", super::super::fastrand_u64()))
    }

    fn open(dir: &Path) -> LogStore {
        LogStore::builder(dir).build().unwrap()
    }

    /// Partition counts the end-to-end tests run under: the default
    /// single log, and a multi-partition store whose groups span logs.
    const NPARTS: [u32; 2] = [1, 4];

    fn open_parts(dir: &Path, nparts: u32) -> LogStore {
        LogStore::builder(dir).partitions(nparts).build().unwrap()
    }

    /// Every file under `dir` with its length, for "nothing changed"
    /// assertions.
    fn tree(dir: &Path) -> Vec<(PathBuf, u64)> {
        let mut out = Vec::new();
        for entry in fs::read_dir(dir).unwrap() {
            let entry = entry.unwrap();
            let path = entry.path();
            if path.is_dir() {
                out.extend(tree(&path));
            } else {
                out.push((path, entry.metadata().unwrap().len()));
            }
        }
        out.sort();
        out
    }

    /// Compaction runs on the writer thread *after* the commit that
    /// released `flush`, so stats-based assertions must wait for it.
    fn wait_for(store: &LogStore, what: &str, pred: impl Fn(LogStats) -> bool) -> LogStats {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let stats = store.stats();
            if pred(stats) {
                return stats;
            }
            assert!(Instant::now() < deadline, "timed out waiting for {what}: {stats:?}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn log_store_exercise() {
        for nparts in NPARTS {
            let dir = tmp_dir("exercise");
            let store = open_parts(&dir, nparts);
            crate::store::tests::exercise(&store);
            drop(store);
            let _ = fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn put_batch_ticket_becomes_durable() {
        let dir = tmp_dir("ticket");
        let store = open(&dir);
        let w = store
            .put_batch(&[("fiber-d/1/0", b"delta"), ("fiber-v/1", b"meta")])
            .unwrap();
        assert!(!w.is_immediate(), "log store must issue real tickets");
        // Speculative read before durability.
        assert_eq!(store.get("fiber-v/1").unwrap(), Some(b"meta".to_vec()));
        store.flush().unwrap();
        assert!(store.durable(w));
        drop(store);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn one_group_commit_costs_one_fsync() {
        let dir = tmp_dir("one-fsync");
        let store = open(&dir);
        let before = store.stats();
        let keys: Vec<String> = (0..8).map(|i| format!("batch/{i}")).collect();
        let entries: Vec<(&str, &[u8])> = keys.iter().map(|k| (k.as_str(), &b"v"[..])).collect();
        store.put_batch(&entries).unwrap();
        store.flush().unwrap();
        let after = store.stats();
        assert_eq!(after.group_commits - before.group_commits, 1, "{after:?}");
        assert_eq!(after.fsyncs - before.fsyncs, 1, "{after:?}");
        assert_eq!(after.committed_entries - before.committed_entries, 8);
        drop(store);
        let _ = fs::remove_dir_all(dir);
    }

    /// Batching comes from load, not a timer: while one group's commit
    /// is in flight, every save that arrives joins the next group.
    #[test]
    fn group_commit_amortizes_fsyncs() {
        let dir = tmp_dir("amortize");
        let store = Arc::new(open(&dir));
        // Hold the partition so the writer stalls inside its first
        // commit, then let it take the priming save off the queue: from
        // here on the writer is provably mid-commit.
        let part = store.inner.parts[0].lock();
        store.put("k/prime", b"first").unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while !store.inner.pending.lock().queue.is_empty() {
            assert!(
                Instant::now() < deadline,
                "writer never took the priming save"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let store = store.clone();
                std::thread::spawn(move || {
                    for i in 0..50 {
                        store.put(&format!("k/{t}/{i}"), &[t as u8; 64]).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        drop(part);
        store.flush().unwrap();
        let stats = store.stats();
        assert_eq!(stats.committed_entries, 201);
        // The priming group, then everything that queued behind it.
        assert_eq!(stats.group_commits, 2, "{stats:?}");
        assert!(
            stats.fsyncs < 100,
            "group commit should need far fewer fsyncs than saves: {stats:?}"
        );
        drop(store);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn reopen_recovers_flushed_state() {
        for nparts in NPARTS {
            let dir = tmp_dir("reopen");
            {
                let store = open_parts(&dir, nparts);
                store.put("a/1", b"one").unwrap();
                store.put("a/2", b"two").unwrap();
                store.put("a/1", b"one-v2").unwrap();
                store.delete("a/2").unwrap();
                store.flush().unwrap();
            }
            let store = open_parts(&dir, nparts);
            assert_eq!(store.get("a/1").unwrap(), Some(b"one-v2".to_vec()));
            assert_eq!(store.get("a/2").unwrap(), None);
            assert_eq!(store.list("a/").unwrap(), vec!["a/1"]);
            drop(store);
            let _ = fs::remove_dir_all(dir);
        }
    }

    /// The partition count belongs to the directory, not the builder. A
    /// store created with 4 partitions reopens under the default builder
    /// with every key intact, before and after its first checkpoint; an
    /// explicit mismatched count fails without touching a file.
    #[test]
    fn reopen_keeps_the_directorys_partition_count() {
        let dir = tmp_dir("nparts");
        let keys: Vec<String> = (0..64).map(|i| format!("k/{i}")).collect();
        // Small segments and an eager compactor, but no partition count.
        let eager = || {
            LogStore::builder(&dir)
                .segment_bytes(1024)
                .compact_min_bytes(256)
                .compact_dead_ratio(0.3)
        };
        {
            let store = eager().partitions(4).build().unwrap();
            for k in &keys {
                store.put(k, k.as_bytes()).unwrap();
            }
            store.flush().unwrap();
        }
        assert!(!dir.join("checkpoint").exists());

        let before = tree(&dir);
        let err = LogStore::builder(&dir).partitions(2).build().err();
        assert!(err.is_some(), "mismatched partition count must not open");
        assert_eq!(tree(&dir), before, "a refused open changed files");

        let store = eager().build().unwrap();
        assert_eq!(store.inner.nparts, 4);
        let parts: HashSet<u32> = store.inner.index.read().values().map(|l| l.part).collect();
        assert_eq!(parts.len(), 4, "keys should span every partition");
        for k in &keys {
            assert_eq!(store.get(k).unwrap(), Some(k.clone().into_bytes()), "{k}");
        }
        // Churn until a checkpoint (which records the count) exists.
        for round in 0..40 {
            for k in keys.iter().take(8) {
                store.put(k, format!("{k}@{round}").as_bytes()).unwrap();
            }
        }
        store.flush().unwrap();
        wait_for(&store, "checkpoint", |s| s.checkpoints > 0);
        drop(store);

        let store = open(&dir);
        assert_eq!(store.inner.nparts, 4);
        for (i, k) in keys.iter().enumerate() {
            let want = if i < 8 { format!("{k}@39") } else { k.clone() };
            assert_eq!(store.get(k).unwrap(), Some(want.into_bytes()), "{k}");
        }
        drop(store);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn crash_loses_only_unflushed_writes() {
        for nparts in NPARTS {
            let dir = tmp_dir("crash");
            let store = open_parts(&dir, nparts);
            store.put("durable/1", b"kept").unwrap();
            store.flush().unwrap();
            // Stop the commit thread first so these writes stay buffered,
            // then "cut the power".
            store.simulate_crash();
            assert!(store.put("lost/1", b"gone").is_err());

            let store = open_parts(&dir, nparts);
            assert_eq!(store.get("durable/1").unwrap(), Some(b"kept".to_vec()));
            assert_eq!(store.get("lost/1").unwrap(), None);
            drop(store);
            let _ = fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = tmp_dir("torn");
        {
            let store = LogStore::builder(&dir).partitions(1).build().unwrap();
            store.put("k/1", b"first record").unwrap();
            store.flush().unwrap();
            store.put("k/2", b"second record").unwrap();
            store.flush().unwrap();
        }
        // Tear the last record mid-payload.
        let seg_dir = dir.join("p0");
        let mut segs = list_segments(&seg_dir).unwrap();
        let tail = segs.pop().unwrap();
        // The tail segment created on the second open is empty; the data
        // lives in an earlier one. Find the largest non-empty segment.
        let mut candidates = list_segments(&seg_dir).unwrap();
        candidates.retain(|s| {
            fs::metadata(seg_path(&dir, 0, *s)).map(|m| m.len()).unwrap_or(0)
                > SEG_MAGIC.len() as u64
        });
        let target = *candidates.last().unwrap_or(&tail);
        let path = seg_path(&dir, 0, target);
        let len = fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 4).unwrap();
        drop(f);
        // Delete any later (empty) segments so the torn one is the tail.
        for s in list_segments(&seg_dir).unwrap() {
            if s > target {
                let _ = fs::remove_file(seg_path(&dir, 0, s));
            }
        }

        let store = LogStore::builder(&dir).partitions(1).build().unwrap();
        assert_eq!(store.get("k/1").unwrap(), Some(b"first record".to_vec()));
        assert_eq!(store.get("k/2").unwrap(), None, "torn record must vanish");
        drop(store);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn rotation_and_compaction_preserve_data() {
        let dir = tmp_dir("rotate");
        let store = LogStore::builder(&dir)
            .segment_bytes(512)
            .partitions(2)
            .compact_min_bytes(256)
            .compact_dead_ratio(0.3)
            .build()
            .unwrap();
        // Overwrite a small key set many times: forces rotations and
        // plenty of dead bytes, so compaction must kick in.
        for round in 0..40 {
            for k in 0..8 {
                store
                    .put(&format!("hot/{k}"), format!("value-{round}-{k}").as_bytes())
                    .unwrap();
            }
        }
        store.flush().unwrap();
        wait_for(&store, "compaction", |s| s.compactions > 0);
        for k in 0..8 {
            assert_eq!(
                store.get(&format!("hot/{k}")).unwrap(),
                Some(format!("value-39-{k}").into_bytes()),
                "key hot/{k} after compaction"
            );
        }
        drop(store);

        // And the compacted state must survive a reopen.
        let store = LogStore::builder(&dir).partitions(2).build().unwrap();
        for k in 0..8 {
            assert_eq!(
                store.get(&format!("hot/{k}")).unwrap(),
                Some(format!("value-39-{k}").into_bytes())
            );
        }
        drop(store);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn delete_survives_checkpoint_replay() {
        // Regression guard for the resurrection hazard: a put whose
        // delete was folded into the checkpoint must not reappear when
        // the put's segment is replayed.
        let dir = tmp_dir("resurrect");
        let store = LogStore::builder(&dir)
            .segment_bytes(256)
            .partitions(2)
            .compact_min_bytes(64)
            .compact_dead_ratio(0.2)
            .build()
            .unwrap();
        store.put("victim", b"to be deleted").unwrap();
        store.flush().unwrap();
        store.delete("victim").unwrap();
        // Churn until a compaction+checkpoint has certainly happened.
        for round in 0..60 {
            store.put("churn", format!("round-{round}").as_bytes()).unwrap();
        }
        store.flush().unwrap();
        wait_for(&store, "checkpoint", |s| s.checkpoints > 0);
        drop(store);

        let store = LogStore::builder(&dir).partitions(2).build().unwrap();
        assert_eq!(store.get("victim").unwrap(), None, "deleted key resurrected");
        assert_eq!(store.get("churn").unwrap(), Some(b"round-59".to_vec()));
        drop(store);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn torn_segment_create_survives_repeated_reopens() {
        // A power cut during create_segment leaves a tail file with a
        // missing or half-written magic. Recovery must remove it — a
        // file merely truncated to zero stops being the tail on the
        // next open (a fresh, higher-numbered segment appears) and
        // would then fail every later recovery as interior corruption.
        let dir = tmp_dir("badmagic");
        {
            let store = LogStore::builder(&dir).partitions(1).build().unwrap();
            store.put("k/1", b"keep").unwrap();
            store.flush().unwrap();
        }
        let seg_dir = dir.join("p0");
        let next = list_segments(&seg_dir).unwrap().last().unwrap() + 1;
        // Legacy shape: a zero-length non-tail segment left by an older
        // release's truncate-in-place recovery.
        fs::write(seg_path(&dir, 0, next), b"").unwrap();
        // And the torn create itself: a half-written magic at the tail.
        fs::write(seg_path(&dir, 0, next + 1), b"GZL").unwrap();
        for reopen in 0..2 {
            let store = LogStore::builder(&dir).partitions(1).build().unwrap();
            assert_eq!(
                store.get("k/1").unwrap(),
                Some(b"keep".to_vec()),
                "data lost on reopen {reopen}"
            );
            drop(store);
        }
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn commit_hook_reports_watermarks() {
        for nparts in NPARTS {
            let dir = tmp_dir("hook");
            let store = open_parts(&dir, nparts);
            let seen = Arc::new(AtomicU64::new(0));
            let seen2 = seen.clone();
            store.set_commit_hook(Arc::new(move |w: Watermark| {
                seen2.store(w.0, Ordering::SeqCst);
            }));
            let w = store.put_batch(&[("h/1", b"x")]).unwrap();
            store.flush().unwrap();
            assert!(seen.load(Ordering::SeqCst) >= w.0);
            drop(store);
            let _ = fs::remove_dir_all(dir);
        }
    }
}
