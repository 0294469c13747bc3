//! LogStore crash-recovery suite: the log-structured backend must give
//! back exactly the durable prefix of history after any crash shape —
//! torn tail appends, half-written group-commit batches, kills between
//! segment rotations — and a workflow deployed on it must be
//! indistinguishable (same results, same opcode counts) from one on the
//! always-durable in-memory store, under the same chaos schedule.

use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::path::PathBuf;
use std::sync::Arc;

use gozer_lang::Value;
use vinz::testing::{
    chaos_seeds, repro_command, run_workflow_under_chaos_store, ChaosConfig, ChaosRun,
};
use vinz::{LogStore, StateStore, VinzConfig};

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "gozer-logstore-it-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ))
}

/// Path of partition `p`'s segment `seg` (mirrors the store's layout).
fn seg_path(dir: &std::path::Path, p: u32, seg: u64) -> PathBuf {
    dir.join(format!("p{p}")).join(format!("seg-{seg:010}.log"))
}

/// Highest-numbered segment file in partition `p`.
fn tail_segment(dir: &std::path::Path, p: u32) -> PathBuf {
    let mut segs: Vec<u64> = std::fs::read_dir(dir.join(format!("p{p}")))
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().to_string_lossy().into_owned();
            name.strip_prefix("seg-")?
                .strip_suffix(".log")?
                .parse()
                .ok()
        })
        .collect();
    segs.sort_unstable();
    seg_path(dir, p, *segs.last().expect("partition has segments"))
}

/// Crash shape 1: the machine dies mid-append, leaving a frame whose
/// bytes stop short. Recovery must truncate exactly the damaged suffix
/// and keep everything before it.
#[test]
fn torn_tail_keeps_durable_prefix() {
    let dir = temp_dir("torn");
    {
        let store = LogStore::builder(&dir).partitions(1).build().unwrap();
        store.put("fiber/a", b"first save").unwrap();
        store.put("fiber/b", b"second save").unwrap();
        store.flush().unwrap();
        store.simulate_crash();
    }
    // Tear the last record: chop bytes off the tail segment's end.
    let tail = tail_segment(&dir, 0);
    let len = std::fs::metadata(&tail).unwrap().len();
    OpenOptions::new()
        .write(true)
        .open(&tail)
        .unwrap()
        .set_len(len - 4)
        .unwrap();

    let store = LogStore::builder(&dir).partitions(1).build().unwrap();
    // fiber/a's record is intact; fiber/b's was torn and is gone — the
    // durable prefix, nothing more, nothing less.
    assert_eq!(store.get("fiber/a").unwrap(), Some(b"first save".to_vec()));
    assert_eq!(store.get("fiber/b").unwrap(), None);
    // The store is fully writable after truncating the tear.
    store.put("fiber/b", b"rewritten").unwrap();
    store.flush().unwrap();
    assert_eq!(store.get("fiber/b").unwrap(), Some(b"rewritten".to_vec()));
    let _ = std::fs::remove_dir_all(dir);
}

/// Crash shape 2: a group-commit batch is one framed record, so a crash
/// that tears it must roll back the *whole* batch — recovery may never
/// surface the meta key without its data key or vice versa.
#[test]
fn partial_group_commit_batch_is_all_or_nothing() {
    let dir = temp_dir("partial-batch");
    {
        let store = LogStore::builder(&dir).partitions(1).build().unwrap();
        store
            .put_batch(&[("fiber/1", b"base snapshot"), ("fiber-v/1", b"v1")])
            .unwrap();
        store.flush().unwrap();
        store
            .put_batch(&[("fiber-d/1/0", b"delta zero"), ("fiber-v/1", b"v2")])
            .unwrap();
        store.flush().unwrap();
        store.simulate_crash();
    }
    // Tear into the second batch's record (both batches share the one
    // partition segment; the tear lands inside the last frame).
    let tail = tail_segment(&dir, 0);
    let len = std::fs::metadata(&tail).unwrap().len();
    OpenOptions::new()
        .write(true)
        .open(&tail)
        .unwrap()
        .set_len(len - 3)
        .unwrap();

    let store = LogStore::builder(&dir).partitions(1).build().unwrap();
    // Batch 1 survives whole.
    assert_eq!(
        store.get("fiber/1").unwrap(),
        Some(b"base snapshot".to_vec())
    );
    // Batch 2 vanishes whole: no delta, and the meta key rolled back to
    // batch 1's value — never a v2 meta naming an unwritten delta.
    assert_eq!(store.get("fiber-d/1/0").unwrap(), None);
    assert_eq!(store.get("fiber-v/1").unwrap(), Some(b"v1".to_vec()));
    let _ = std::fs::remove_dir_all(dir);
}

/// Crash shape 3: death between segment rotations. Tiny segments force
/// a rotation on nearly every record; the crash leaves a freshly
/// created tail segment holding only its magic (and, in the worst
/// case, a half-written magic). Recovery must stitch the full history
/// back together from the many small segments.
#[test]
fn kill_between_segment_rotations_recovers_all_segments() {
    let dir = temp_dir("rotation");
    let payload = vec![7u8; 100];
    {
        // 64-byte segments: every ~100-byte record rotates first.
        let store = LogStore::builder(&dir)
            .partitions(1)
            .segment_bytes(64)
            .build()
            .unwrap();
        for i in 0..12 {
            store.put(&format!("fiber/{i}"), &payload).unwrap();
        }
        store.flush().unwrap();
        store.simulate_crash();
    }
    // The crash happened just after a rotation created the next
    // segment: an empty file with only the magic, plus one where the
    // magic itself was half-written.
    let seg_dir = dir.join("p0");
    let next = 1 + std::fs::read_dir(&seg_dir)
        .unwrap()
        .filter_map(|e| {
            e.unwrap()
                .file_name()
                .to_string_lossy()
                .strip_prefix("seg-")?
                .strip_suffix(".log")?
                .parse::<u64>()
                .ok()
        })
        .max()
        .unwrap();
    std::fs::write(seg_path(&dir, 0, next), b"GZLOG1\0\0").unwrap();
    std::fs::write(seg_path(&dir, 0, next + 1), b"GZL").unwrap();

    let store = LogStore::builder(&dir)
        .partitions(1)
        .segment_bytes(64)
        .build()
        .unwrap();
    for i in 0..12 {
        assert_eq!(
            store.get(&format!("fiber/{i}")).unwrap(),
            Some(payload.clone()),
            "fiber/{i} lost across rotation crash"
        );
    }
    // And the store keeps rotating happily after recovery.
    for i in 12..20 {
        store.put(&format!("fiber/{i}"), &payload).unwrap();
    }
    store.flush().unwrap();
    assert_eq!(store.get("fiber/19").unwrap(), Some(payload));
    let _ = std::fs::remove_dir_all(dir);
}

/// Mirror of the store's stable FNV-1a key → partition mapping (a
/// documented format property: a key's partition never changes).
fn partition_of(key: &str, nparts: u32) -> u32 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in key.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    (h % nparts as u64) as u32
}

/// Crash shape 4: group commit fsyncs partitions one at a time, so a
/// power cut can durably land a *later* batch (in an already-synced
/// partition) while an earlier one is lost. The survivor may embed
/// state read speculatively from the lost write, so recovery must roll
/// back to the contiguous seq prefix — and scrub the rolled-back
/// records from disk, or fresh writes reusing their seqs would let the
/// next recovery resurrect them.
#[test]
fn torn_cross_partition_group_rolls_back_to_contiguous_prefix() {
    let dir = temp_dir("torn-group");
    let ka = (0..)
        .map(|i| format!("a/{i}"))
        .find(|k| partition_of(k, 2) == 0)
        .unwrap();
    let kb = (0..)
        .map(|i| format!("b/{i}"))
        .find(|k| partition_of(k, 2) == 1)
        .unwrap();
    {
        let store = LogStore::builder(&dir).partitions(2).build().unwrap();
        store.put(&ka, b"earlier write, lost in the cut").unwrap();
        store.flush().unwrap();
        store.put(&kb, b"later write, synced first").unwrap();
        store.flush().unwrap();
        store.simulate_crash();
    }
    // The power cut: partition 0's pages never reached the platter.
    // Wind its segment back to bare magic, erasing the earlier batch
    // while the later one survives in partition 1.
    let p0 = tail_segment(&dir, 0);
    OpenOptions::new()
        .write(true)
        .open(&p0)
        .unwrap()
        .set_len(8)
        .unwrap();

    let store = LogStore::builder(&dir).partitions(2).build().unwrap();
    assert_eq!(store.get(&ka).unwrap(), None);
    assert_eq!(
        store.get(&kb).unwrap(),
        None,
        "batch past the seq gap must roll back with it"
    );
    // New writes reuse the rolled-back seqs; that must be safe because
    // the zombie records were scrubbed from disk.
    store.put(&ka, b"rewritten").unwrap();
    store.flush().unwrap();
    drop(store);

    let store = LogStore::builder(&dir).partitions(2).build().unwrap();
    assert_eq!(store.get(&ka).unwrap(), Some(b"rewritten".to_vec()));
    assert_eq!(
        store.get(&kb).unwrap(),
        None,
        "rolled-back record resurrected by seq reuse"
    );
    let _ = std::fs::remove_dir_all(dir);
}

// ---- full-vs-log chaos equivalence ------------------------------------

fn calls_by_name(run: &ChaosRun) -> BTreeMap<String, u64> {
    run.profile
        .functions
        .iter()
        .map(|(name, f)| (name.clone(), f.calls))
        .collect()
}

fn fail_sweep(test: &str, failures: Vec<String>) {
    if failures.is_empty() {
        return;
    }
    let repros: Vec<String> = failures
        .iter()
        .filter_map(|f| f.split(':').next())
        .filter_map(|s| s.strip_prefix("seed "))
        .filter_map(|s| s.trim().parse::<u64>().ok())
        .map(|seed| {
            format!(
                "    {}",
                repro_command("-p vinz --test logstore", test, seed)
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

/// Same shape as the delta-equivalence sweep (PR 5): three frames deep,
/// three sequential fork+joins in the leaf, all resumes deduplicated —
/// per-seed opcode totals are schedule-independent, so the two backends
/// must agree exactly.
const DEEP_SEQ_WF: &str = "
(defun triple (n) (* n 3))
(defun leaf (n)
  (+ (join-process (fork-and-exec #'triple :argument n))
     (join-process (fork-and-exec #'triple :argument n))
     (join-process (fork-and-exec #'triple :argument n))))
(defun mid (n) (+ 1 (leaf n)))
(defun main (n) (+ (mid n) 1))
";

/// 16 seeds under the turbulence preset: a deployment persisting to a
/// LogStore — group commit, speculative resume, held messages, the
/// whole protocol — must produce the same value and execute the same
/// opcodes as one on the default MemStore, seed for seed.
#[test]
fn log_store_is_opcode_identical_to_mem_store_sixteen_seeds() {
    let mut failures = Vec::new();
    let mut log_dirs = Vec::new();
    for &seed in &chaos_seeds(16) {
        let run = |store: Option<Arc<dyn StateStore>>, label: &str| -> Result<ChaosRun, String> {
            let r = run_workflow_under_chaos_store(
                DEEP_SEQ_WF,
                "main",
                vec![Value::Int(5)],
                ChaosConfig::turbulence(seed),
                VinzConfig::default(),
                store,
                None,
            )
            .map_err(|e| format!("seed {seed}: {label}: {e}"))?;
            if r.value != Value::Int(47) {
                return Err(format!("seed {seed}: {label}: wrong result {:?}", r.value));
            }
            Ok(r)
        };
        let mem = match run(None, "mem") {
            Ok(r) => r,
            Err(e) => {
                failures.push(e);
                continue;
            }
        };
        // The default single log, and four partitions so groups span
        // logs and replay merges them in seq order.
        for nparts in [1, 4] {
            let dir = temp_dir(&format!("equiv-{seed}-p{nparts}"));
            // Tiny segments so the sweep crosses rotation, group-commit
            // batching, and compaction constantly.
            let log: Arc<dyn StateStore> = Arc::new(
                LogStore::builder(&dir)
                    .segment_bytes(16 * 1024)
                    .partitions(nparts)
                    .build()
                    .unwrap(),
            );
            log_dirs.push(dir);
            let label = format!("log/p{nparts}");
            let log = match run(Some(log), &label) {
                Ok(r) => r,
                Err(e) => {
                    failures.push(e);
                    continue;
                }
            };
            if mem.profile.opcodes != log.profile.opcodes {
                failures.push(format!(
                    "seed {seed}: opcode counts diverge between mem and {label}:\n    \
                     mem: {:?}\n    log: {:?}",
                    mem.profile.opcodes, log.profile.opcodes
                ));
            }
            let (calls_mem, calls_log) = (calls_by_name(&mem), calls_by_name(&log));
            if calls_mem != calls_log {
                failures.push(format!(
                    "seed {seed}: function call counts diverge between mem and {label}:\n    \
                     mem: {calls_mem:?}\n    log: {calls_log:?}"
                ));
            }
        }
    }
    for dir in log_dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    fail_sweep("log_store_is_opcode_identical_to_mem_store_sixteen_seeds", failures);
}
