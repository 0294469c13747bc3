# Convenience targets; everything is plain cargo underneath and works
# offline (the workspace is a pure path-dependency graph).

CARGO ?= cargo
CHAOS_SEEDS ?= 16

.PHONY: build test test-all test-chaos recovery-check obs-check profile-check introspect-check fuzz-smoke scale-smoke store-smoke gvm-smoke cluster-smoke taskbench-smoke bench ci

build:
	$(CARGO) build --release

# Tier-1: the root package's integration suites.
test:
	$(CARGO) test -q

# Every crate, including shims.
test-all:
	$(CARGO) test --workspace

# The deterministic chaos sweep. Replay a failing seed with
# CHAOS_SEED=<n> make test-chaos (or the command the failure prints).
test-chaos:
	CHAOS_SEEDS=$(CHAOS_SEEDS) $(CARGO) test -p vinz --test chaos -- --nocapture
	CHAOS_SEEDS=$(CHAOS_SEEDS) $(CARGO) test --test survivability

# Recovery gate: the armed survivability sweep (chaos never disarmed,
# no harness respawns — leases, supervisor, and retries do all the
# work) plus the dead-letter quarantine assertions on both the broker
# and task sides.
recovery-check:
	sh scripts/recovery_check.sh

# Observability gate: run an example workflow, scrape the text
# exporter, and assert the required metric families are non-zero.
obs-check:
	sh scripts/obs_check.sh

# Profiler gate: run `gozer-repl profile` on the example pipeline and
# assert the hot-function table, opcode counts, continuation costs, and
# the folded-stack file are all present and well-formed.
profile-check:
	sh scripts/profile_check.sh

# Introspection gate: boot a deployment with the live HTTP endpoint on
# an ephemeral port, scrape /metrics, /healthz, /tasks, and
# /timeline/<task> over plain TCP, and shape-check every payload
# (including /metrics byte-identity with the in-process exporter).
introspect-check:
	sh scripts/introspect_check.sh

# Bounded-iteration run of every fuzz target (reader, compiler, serial
# state, serial delta). FUZZ_ITERS to widen, FUZZ_SEED=<n> to replay a
# finding (each target prints the per-case seed on failure with
# FUZZ_VERBOSE=1).
FUZZ_ITERS ?= 5000
fuzz-smoke:
	FUZZ_ITERS=$(FUZZ_ITERS) sh scripts/fuzz_smoke.sh

# Downscaled run of the 1M-fiber scale bench with shape checks on both
# JSON reports. The full-scale run that produces the committed
# BENCH_scale.json + BENCH_latency.json baselines is `cargo run
# --release -p gozer-bench --bin scale -- --json BENCH_scale.json
# --latency-json BENCH_latency.json` (takes minutes).
scale-smoke:
	sh scripts/scale_smoke.sh

# Downscaled run of the §5 production-day bench (cluster slice + the
# FileStore-vs-LogStore saves/sec replay) with a shape check on the JSON
# report. The full run that produces the committed BENCH_store.json
# baseline is `cargo run --release -p gozer-bench --bin
# sec5_production_day -- --json BENCH_store.json`.
store-smoke:
	sh scripts/store_smoke.sh

# GVM interpreter perf gate: the gvm_perf workloads in smoke mode,
# full optimization vs GVM_OPT=off, with a minimum-speedup assertion
# and a JSON shape check. The committed BENCH_gvm.json baseline is the
# full-size run: `cargo run --release -p gozer-bench --bin gvm_perf --
# --compare --json BENCH_gvm.json`.
gvm-smoke:
	sh scripts/gvm_smoke.sh

# Multi-process transport gate: a broker process plus two real
# gozer-worker OS processes over TCP, with one genuine `kill -9` and a
# restart mid-stream. The trap in the script reaps orphaned workers.
# The in-harness flavor (16-seed sweep) is `cargo test -p gozer-worker`.
cluster-smoke:
	sh scripts/cluster_smoke.sh

# Task-path benchmark as a correctness gate: a 2-second run of every
# taskbench workload. A run exits non-zero on a wrong result or a
# missing or duplicate settle; no perf thresholds.
taskbench-smoke:
	for w in churn fanout_durable compute remote; do \
		$(CARGO) run --release --offline --manifest-path taskbench/Cargo.toml -- \
			--workload $$w --seed 1 --seconds 2 --trace 0 || exit 1; \
	done

bench:
	$(CARGO) bench --workspace

ci:
	sh scripts/ci.sh
