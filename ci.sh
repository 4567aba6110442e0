#!/usr/bin/env bash
# Continuous-integration gate: formatting, lints, and the tier-1 test
# suite (see ROADMAP.md). Run from the repository root.
set -euo pipefail

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1 tests =="
cargo test --workspace --release

echo "== precise dirtying at production scale =="
# The churn-window shape (20k sliding window, 36k sentences, NP chunker):
# incremental finalize must equal the full rescan, and at most 15% of
# the window may be dirty at close. `#[ignore]`d in tier-1 for its size.
cargo test --release --test precise_dirtying -- --ignored

echo "== snapshot at production scale =="
# The same shape (20k window, 24,576 sentences): cloning the state makes
# as many allocations as at a 1k window, the posting index is consistent
# both ways, the uncompacted state saved and loaded back has the same
# slots, rebuilt indexes, per-record token shapes and casing bits (those
# of the input sentences) and checkpoint text, and a trial batch
# processed on a clone and then discarded leaves the original's
# checkpoint text and indexes unchanged. `#[ignore]`d in tier-1 for its
# size.
cargo test --release --test state_clone_alloc -- --ignored

echo "== benchmark tests =="
# perfbench is a workspace of its own, so `--workspace` above never
# builds it; a change to a library API it calls (the serde shim traits
# included) would otherwise break the benchmark unnoticed. Its tests run
# every workload at a tiny scale.
cargo test --offline --manifest-path perfbench/Cargo.toml

echo "== instrumented smoke pipeline =="
# The quickstart runs the full pipeline with metric recording on and
# asserts nonzero sample counts and sane quantiles for every phase
# (local inference, trie registration, occurrence scan, pooling,
# classification, finalize rescan + promotion), then round-trips the
# Prometheus and JSON exports. It exits nonzero on any violation.
cargo run --release --example quickstart > /dev/null

echo "== chaos + crash-recovery smoke =="
# Deterministic fault injection (fixed schedules, no wall-clock or RNG in
# the harness): the chaos suite arms every fail-point site, verifies
# transient faults are invisible (bit-identical outputs, empty
# quarantine), persistent faults quarantine/degrade instead of aborting,
# and checkpoint save→restore→continue is bit-identical. The example then
# drives the supervisor through poison input, injected faults, and a
# simulated mid-stream crash with recovery; it exits nonzero on any
# violated guarantee. (Debug profile: the `failpoints` feature comes from
# the root dev-dependency and is compiled out of release builds.)
cargo test --test chaos_resilience
cargo run --example resilient_stream > /dev/null

echo "== overload + self-healing smoke =="
# The guard runtime under release optimisation: the chaos suites run in
# release mode with the fail-point harness explicitly enabled (the
# feature is additive and compiles to nothing when absent, so this is
# the only way to chaos-test optimised code paths). Covers admission
# shedding accounting, breaker trip/probe/re-close, sentinel-driven
# force-opens, backoff/deadline dead-lettering, torn-write checkpoint
# fallback, and dead-letter JSONL replayability. The fault-storm soak
# then drives overload → storm → recovery end to end and exits nonzero
# if any phase's guarantee (including bit-identity of admitted batches)
# is violated.
cargo test --release --features emd-resilience/failpoints --test guard_runtime
# The chaos suite again, optimised: `process_batch` shards Local EMD
# across threads, so fault injection must also cover the release build of
# that parallel path (shard fail points, caller-run shard recovery).
cargo test --release --features emd-resilience/failpoints --test chaos_resilience
cargo run --release --features emd-resilience/failpoints --example fault_storm > /dev/null

echo "== trace smoke =="
# Decision-level tracing: the trace-audit suite checks noop transparency
# (tracing on/off ⇒ bit-identical outputs) and that replaying the event
# log reconstructs the pipeline output across rescan, promotion,
# quarantine, and degraded-fallback streams. The example then prints
# provenance chains for one emitted and one suppressed candidate,
# round-trips the JSONL export, and writes the collapsed-stack profile;
# it exits nonzero on any violation.
cargo test --test trace_audit
cargo run --release --example explain_mention > /dev/null
test -s results/flame.txt
# Well-formed collapsed stacks: every line is `emd(;frame)+ <self_ns>`.
grep -qE '^emd(;[a-z_]+)+ [0-9]+$' results/flame.txt
! grep -vqE '^emd(;[a-z_]+)+ [0-9]+$' results/flame.txt

echo "== bench smoke =="
# Reduced-size pipeline report. The bench is a plain `main` that runs
# only the report passes (no timing groups before them): it emits the
# machine-readable report (per-phase throughput, latency quantiles,
# tracing on/off events/sec) and asserts the tracing overhead stays
# under the ceiling documented in DESIGN.md. Phases that never ran are
# omitted from the report.
BENCH_SMOKE=1 cargo bench -p emd-bench --bench pipeline > /dev/null
test -s results/BENCH_pipeline.json
# The smoke report stays in results/ (bench_gate reads it there). The
# committed root BENCH_pipeline.json is the full-mode baseline, recorded
# by running `cargo bench -p emd-bench --bench pipeline` without
# BENCH_SMOKE (a million-sentence windowed churn stream); CI never
# overwrites it.

echo "== bench history gate =="
# Append this run (git SHA + timestamp + mode + throughput) to the
# per-machine results/BENCH_history.jsonl and fail on a >25% throughput
# regression against the previous comparable entry. Comparable = same
# mode and stream length: a smoke run can never trip the gate against a
# full-mode entry or vice versa.
cargo run --release -p emd-bench --bin bench_gate

echo "== sentinel monitoring smoke =="
# Health & drift monitoring end to end: stream a long-horizon synthetic
# scenario with a topic jump injected halfway and assert the sentinel
# flags the drift within a bounded number of batches, degrades the
# stream's health, stays silent on a stationary control, replays the
# health timeline from the trace log, and never perturbs the output
# (monitored == unmonitored, bit for bit). Exits nonzero on violation.
cargo run --release --example monitored_stream > /dev/null

echo "== multi-stream scoped observability smoke =="
# Three concurrent streams, each on its own emd-obs Scope, rolled up
# into one Prometheus page. Asserts: scoped monitoring is transparent
# (monitored+scoped output bit-identical to unmonitored, per stream),
# per-stream series stay disjoint while the unlabeled aggregate sums
# them, histogram exemplars resolve to real trace seqs, an injected
# latency fault trips the fast-burn SLO within its window on exactly
# the faulted stream, the cardinality cap drops a 4th scope into the
# aggregate, and the rolled-up page passes the emd_obs::promcheck
# text-format validator (family/label/exemplar syntax, duplicate
# series, bucket monotonicity). Exits nonzero on any violation —
# including malformed exposition output.
cargo run --release --example multi_stream > /dev/null

echo "== bounded-memory soak smoke =="
# Stream a long-horizon drifting topic stream through a windowed
# pipeline and assert the bounded-memory guarantees via the emd-obs
# gauges: the window evicts every out-of-window sentence, evicted slots
# are compacted, and the resident-bytes gauge plateaus instead of
# growing with stream length. Exits nonzero on any violated bound.
# (10k messages here; the default 50k run is the same binary.)
EMD_SOAK_N=10000 cargo run --release --example windowed_soak > /dev/null

echo "CI green."
