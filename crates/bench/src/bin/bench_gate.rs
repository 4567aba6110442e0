//! Bench-history regression gate.
//!
//! Reads the machine-readable report the `pipeline` bench just wrote
//! (`results/BENCH_pipeline.json`), appends one line — git SHA,
//! timestamp, mode, throughput, tracing overhead and events/sec — to
//! `results/BENCH_history.jsonl`, and fails if end-to-end throughput
//! regressed more than 25% against the most recent comparable entry.
//! Comparable means **same `mode`** (`"smoke"` measures a 40-sentence CI
//! slice, `"full"` a million-sentence windowed churn stream — their
//! numbers differ by orders of magnitude and must never gate each other)
//! and same stream length. History lines from before the `mode` tag
//! don't parse and are ignored as baselines.
//!
//! Throughput is derived from `tracing.run_ns_tracing_off` — the
//! median untraced wall clock (of 101 passes in smoke mode) — rather
//! than the single instrumented pass, so the gate compares the most
//! noise-resistant number the bench produces. The history line is appended even when the gate fails:
//! a regressing run is exactly the run worth keeping a record of.
//!
//! Run from CI right after the bench: `cargo run -p emd-bench --bin
//! bench_gate`. The history file is per-machine (gitignored); the first
//! run on a fresh clone just seeds it.

use serde::{Deserialize, Serialize};
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

/// Maximum tolerated throughput drop vs the previous comparable run.
const MAX_REGRESSION_PCT: f64 = 25.0;

/// The slice of `BENCH_pipeline.json` the gate needs (extra fields in
/// the report are ignored on deserialization).
#[derive(Deserialize)]
struct GateReport {
    smoke: bool,
    mode: String,
    n_sentences: usize,
    tracing: GateTracing,
}

#[derive(Deserialize)]
struct GateTracing {
    run_ns_tracing_off: u64,
    overhead_pct: f64,
    events_per_sec: f64,
}

/// One appended history line. Adding a field retires older history
/// lines as baselines (strict deserialization), same as the `mode` tag
/// did — the next run re-seeds.
#[derive(Serialize, Deserialize)]
struct HistoryEntry {
    sha: String,
    unix_time: u64,
    smoke: bool,
    mode: String,
    n_sentences: usize,
    sentences_per_sec: f64,
    tracing_overhead_pct: f64,
    tracing_events_per_sec: f64,
}

fn git_sha() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    let report_path = format!("{results}/BENCH_pipeline.json");
    let history_path = format!("{results}/BENCH_history.jsonl");

    let raw = std::fs::read_to_string(&report_path)
        .unwrap_or_else(|e| panic!("bench_gate: cannot read {report_path}: {e}"));
    let report: GateReport =
        serde_json::from_str(&raw).unwrap_or_else(|e| panic!("bench_gate: bad report: {e}"));
    assert!(
        report.tracing.run_ns_tracing_off > 0,
        "bench_gate: report has zero wall clock"
    );
    let sentences_per_sec =
        report.n_sentences as f64 * 1e9 / report.tracing.run_ns_tracing_off as f64;

    // Baseline: the most recent entry measuring the same configuration.
    let baseline: Option<HistoryEntry> =
        std::fs::read_to_string(&history_path)
            .ok()
            .and_then(|text| {
                text.lines()
                    .filter_map(|l| serde_json::from_str::<HistoryEntry>(l).ok())
                    .rfind(|e| e.mode == report.mode && e.n_sentences == report.n_sentences)
            });

    let entry = HistoryEntry {
        sha: git_sha(),
        unix_time: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        smoke: report.smoke,
        mode: report.mode.clone(),
        n_sentences: report.n_sentences,
        sentences_per_sec,
        tracing_overhead_pct: report.tracing.overhead_pct,
        tracing_events_per_sec: report.tracing.events_per_sec,
    };
    let line = serde_json::to_string(&entry).expect("entry serializes");
    let mut history = std::fs::read_to_string(&history_path).unwrap_or_default();
    if !history.is_empty() && !history.ends_with('\n') {
        history.push('\n');
    }
    history.push_str(&line);
    history.push('\n');
    std::fs::write(&history_path, history)
        .unwrap_or_else(|e| panic!("bench_gate: cannot write {history_path}: {e}"));

    match baseline {
        None => println!(
            "bench_gate: seeded {} history ({:.0} sentences/sec, {:.0} trace events/sec @ {}) \
             -> {history_path}",
            report.mode, sentences_per_sec, entry.tracing_events_per_sec, entry.sha
        ),
        Some(prev) => {
            let change_pct = (sentences_per_sec / prev.sentences_per_sec - 1.0) * 100.0;
            println!(
                "bench_gate [{}]: {:.0} sentences/sec vs {:.0} at {} ({:+.1}%)",
                report.mode, sentences_per_sec, prev.sentences_per_sec, prev.sha, change_pct
            );
            if change_pct < -MAX_REGRESSION_PCT {
                eprintln!(
                    "bench_gate: FAIL — throughput regressed {:.1}% (> {MAX_REGRESSION_PCT}% \
                     allowed) vs {}",
                    -change_pct, prev.sha
                );
                std::process::exit(1);
            }
        }
    }
}
