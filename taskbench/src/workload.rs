//! The four workloads: what each task runs, on which store, at which
//! offered rate, and the result the benchmark expects from it.
//!
//! Each workload stresses a different layer of the task path and
//! bypasses others, so a change to one layer moves one workload and
//! leaves the rest flat (see README.md for the table).

use gozer_lang::Value;

use crate::stats::Rng;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    /// `MemStore`: no fsync, so engine work is not hidden behind the
    /// group-commit window.
    Mem,
    /// `LogStore` in a fresh directory: group commit and durability
    /// hold on the critical path.
    Log,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Forms that need the deployed engine (`deflink`), kept apart so
    /// the bare-VM probes can load `source` alone.
    pub link: &'static str,
    pub source: &'static str,
    pub function: &'static str,
    /// For tasks that need the engine's natives (`for-each`, service
    /// calls): a definition of `function` doing the same arithmetic on a
    /// bare GVM, for the `vm.exec_us` probe.
    pub vm_probe: Option<&'static str>,
    pub store: StoreKind,
    /// Served by an in-process `TcpWorker` over loopback TCP.
    pub remote: bool,
    /// Open-loop arrival rate, tasks/s. A constant: about half of the
    /// closed-loop capacity of the parent commit on a 2-core host, never
    /// derived from the run being measured.
    pub open_rate: f64,
    /// Sizes the closed loop's fixed task count (tasks per second of
    /// `--seconds`), so a run takes about `--seconds` on that host.
    pub closed_rate: f64,
    /// Draws one task's inputs and expected result.
    pub gen: fn(&mut Rng) -> TaskInput,
    /// The task takes its inputs as one list argument.
    pub list_arg: bool,
}

/// One generated task: its integer inputs and the result it must
/// return, computed by the benchmark itself.
#[derive(Clone)]
pub struct TaskInput {
    pub ints: Vec<i64>,
    pub expected: i64,
}

const FIB_N: i64 = 18;
const FANOUT_ITEMS: usize = 16;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "churn",
        why: "trivial tasks: per-task engine overhead (Start path, broker hops, root snapshot) dominates",
        link: "",
        source: "(defun quick (n) (* n n))",
        function: "quick",
        vm_probe: None,
        store: StoreKind::Mem,
        remote: false,
        open_rate: 1000.0,
        closed_rate: 10000.0,
        gen: gen_churn,
        list_arg: false,
    },
    Workload {
        name: "fanout_durable",
        why: "Listing-1 for-each over 16 items on LogStore: snapshots, compression, group commit and joins dominate",
        link: "",
        source: "(defun squares (items) (apply #'+ (for-each (i in items) (* i i))))",
        function: "squares",
        vm_probe: Some("(defun squares (items) (apply #'+ (mapcar (lambda (i) (* i i)) items)))"),
        store: StoreKind::Log,
        remote: false,
        open_rate: 60.0,
        closed_rate: 110.0,
        gen: gen_fanout,
        list_arg: true,
    },
    Workload {
        name: "compute",
        why: "recursive fib 18 per task: the GVM dispatch loop dominates",
        link: "",
        source: "(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
(defun compute (n k) (+ (fib n) k))",
        function: "compute",
        vm_probe: None,
        store: StoreKind::Mem,
        remote: false,
        open_rate: 100.0,
        closed_rate: 450.0,
        gen: gen_compute,
        list_arg: false,
    },
    Workload {
        name: "remote",
        why: "two zero-work deflink calls per task over loopback TCP: wire framing and the TCP round trip dominate",
        link: "(deflink CP :wsdl \"urn:compute\" :port \"Compute\")",
        source: "(defun remote (a b) (+ (CP-Square-Method :n a) (CP-Square-Method :n b)))",
        function: "remote",
        vm_probe: Some("(defun remote (a b) (+ (* a a) (* b b)))"),
        store: StoreKind::Mem,
        remote: true,
        open_rate: 300.0,
        closed_rate: 2000.0,
        gen: gen_remote,
        list_arg: false,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn fib(n: i64) -> i64 {
    if n < 2 {
        n
    } else {
        fib(n - 1) + fib(n - 2)
    }
}

fn gen_churn(rng: &mut Rng) -> TaskInput {
    let n = rng.range(2, 1_000_000);
    TaskInput {
        ints: vec![n],
        expected: n * n,
    }
}

fn gen_fanout(rng: &mut Rng) -> TaskInput {
    let ints: Vec<i64> = (0..FANOUT_ITEMS).map(|_| rng.range(1, 1_000)).collect();
    let expected = ints.iter().map(|i| i * i).sum();
    TaskInput { ints, expected }
}

fn gen_compute(rng: &mut Rng) -> TaskInput {
    let k = rng.range(0, 1_000_000);
    TaskInput {
        ints: vec![FIB_N, k],
        expected: fib(FIB_N) + k,
    }
}

fn gen_remote(rng: &mut Rng) -> TaskInput {
    let (a, b) = (rng.range(1, 1_000_000), rng.range(1, 1_000_000));
    TaskInput {
        ints: vec![a, b],
        expected: a * a + b * b,
    }
}

impl Workload {
    /// The deployed source.
    pub fn full_source(&self) -> String {
        format!("{}\n{}", self.link, self.source)
    }

    /// The task's arguments as Gozer values.
    pub fn args(&self, input: &TaskInput) -> Vec<Value> {
        let ints = input.ints.iter().map(|&i| Value::Int(i));
        if self.list_arg {
            vec![Value::list(ints.collect())]
        } else {
            ints.collect()
        }
    }
}
