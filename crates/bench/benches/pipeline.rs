//! End-to-end pipeline report — the machine-readable throughput record
//! behind the CI bench smoke and `bench_gate`.
//!
//! Every run writes `results/BENCH_pipeline.json`: per-phase throughput
//! (from `PhaseTimings`), latency quantiles (from the `emd-obs`
//! histograms), and the tracing overhead (wall clock and events/sec with
//! the `emd-trace` ring on vs off), and asserts that overhead stays under
//! its documented ceiling. Per-component timings (Table III's "Execution
//! Time") come from `emd-experiments --bin table3` and perfbench's
//! per-layer rows, not from here.
//!
//! Set `BENCH_SMOKE=1` for the CI smoke mode: a 40-sentence slice of the
//! D2-analog corpus (fast enough for every CI run). Full mode measures a
//! **one-million-sentence** `emd-synth` churn stream under a sliding
//! window — the committed repo-root baseline. The two are never
//! comparable; the gate (`bench_gate`) matches entries by `mode` and
//! stream length.

use emd_core::config::WindowConfig;
use emd_core::{EntityClassifier, Globalizer, GlobalizerConfig};
use emd_local::np_chunker::NpChunker;
use emd_synth::datasets::standard_datasets;
use emd_synth::entities::World;
use emd_synth::longhorizon::gen_churn_stream;
use emd_synth::noise::NoiseConfig;
use emd_text::token::{Dataset, Sentence};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

/// Seed of the report streams and the accept-all classifier.
const SEED: u64 = 99;

/// Full-mode report stream length (one million sentences).
const FULL_STREAM_LEN: usize = 1_000_000;
/// Full-mode sliding window (bounded resident state over the long run).
const FULL_WINDOW: usize = 20_000;
/// Full-mode batch size.
const FULL_BATCH: usize = 512;

/// The D2-analog stream at 5% scale, and the world it was drawn from.
fn bench_stream() -> (Dataset, World) {
    let suite = standard_datasets(SEED, 0.05);
    let world = suite.world.clone();
    (suite.datasets.into_iter().nth(1).unwrap(), world)
}

/// Sentences of a dataset.
fn sentences_of(d: &Dataset) -> Vec<Sentence> {
    d.sentences.iter().map(|a| a.sentence.clone()).collect()
}

/// An untrained NP chunker + accept-all classifier: the report isolates
/// the global phase from model quality.
fn chunker_variant() -> (NpChunker, EntityClassifier) {
    use emd_nn::param::Net;
    let mut clf = EntityClassifier::new(7, SEED);
    clf.params_mut().into_iter().last().unwrap().value.data[0] = 10.0;
    (NpChunker::new(), clf)
}

/// Per-phase cumulative time and derived throughput for one pipeline run.
#[derive(Serialize)]
struct PhaseStat {
    phase: String,
    total_ns: u64,
    sentences_per_sec: f64,
}

/// One latency histogram from the instrumented pass.
#[derive(Serialize)]
struct LatencyStat {
    name: String,
    count: u64,
    p50_ns: f64,
    p99_ns: f64,
    max_ns: u64,
}

/// Tracing cost: the same run with the event ring off vs on.
#[derive(Serialize)]
struct TracingStat {
    events: u64,
    dropped: u64,
    run_ns_tracing_off: u64,
    run_ns_tracing_on: u64,
    events_per_sec: f64,
    overhead_pct: f64,
}

#[derive(Serialize)]
struct BenchReport {
    smoke: bool,
    /// `"smoke"` or `"full"` — the explicit like-for-like marker the
    /// gate and downstream tooling match on.
    mode: String,
    n_sentences: usize,
    batch_size: usize,
    /// Sliding-window size in sentences (0 = unbounded).
    window_sentences: usize,
    phases: Vec<PhaseStat>,
    latency: Vec<LatencyStat>,
    tracing: TracingStat,
}

/// The middle of an odd number of timings.
fn median(mut ns: Vec<u64>) -> u64 {
    ns.sort_unstable();
    ns[ns.len() / 2]
}

/// Run the chunker variant instrumented (metrics + trace) and assemble
/// the JSON report. Uses the cheap deterministic chunker so the report
/// pass costs the same per sentence in smoke and full mode.
fn emit_report(slice: &[emd_text::token::Sentence], batch: usize, smoke: bool, window: usize) {
    let (chunker, accept_all) = chunker_variant();
    let config = || GlobalizerConfig {
        window: if window > 0 {
            WindowConfig::sliding(window)
        } else {
            WindowConfig::default()
        },
        ..Default::default()
    };

    // Instrumented pass: per-phase timings + latency quantiles. The run
    // is routed through an explicit detached scope so the report reads a
    // private registry — concurrent users of the process-global registry
    // (other benches, the harness itself) can't leak into the numbers.
    emd_obs::set_enabled(true);
    let scope = emd_obs::Scope::detached(&[]);
    let mut g = Globalizer::new(&chunker, None, &accept_all, config());
    g.set_scope(&scope);
    let (out, _) = g.run(slice, batch);
    let snapshot = scope.snapshot();
    emd_obs::set_enabled(false);

    let run_total_ns: u64 = out.phase_timings.as_pairs().iter().map(|(_, v)| v).sum();
    // A phase that never ran (e.g. `evict` on an unwindowed config) is
    // omitted from the report: a `total_ns: 0, sentences_per_sec: 0.0`
    // row reads as "infinitely slow" to downstream tooling, not "idle".
    let phases: Vec<PhaseStat> = out
        .phase_timings
        .as_pairs()
        .into_iter()
        .filter(|&(_, total_ns)| total_ns > 0)
        .map(|(name, total_ns)| PhaseStat {
            phase: name.trim_end_matches("_ns").to_string(),
            total_ns,
            sentences_per_sec: slice.len() as f64 * 1e9 / total_ns as f64,
        })
        .collect();
    let latency: Vec<LatencyStat> = snapshot
        .histograms
        .iter()
        .filter(|h| h.count > 0)
        .map(|h| LatencyStat {
            name: h.name.clone(),
            count: h.count,
            p50_ns: h.p50,
            p99_ns: h.p99,
            max_ns: h.max,
        })
        .collect();

    // Tracing overhead: identical runs with the event ring off and on.
    // Both arms get one untimed warm-up pass, and the timed passes are
    // interleaved off/on — measuring all off passes first let the off arm
    // absorb every one-time cost (allocator growth, lazy init, cache
    // fill) and reported a nonsensical *negative* overhead. Each arm
    // reports its median pass. A smoke pass lasts under a millisecond,
    // and its first few passes run several times slower than the rest:
    // on a 2-vCPU VM the best of five per arm read from 0% to 35%
    // overhead on one build, and the median of 21 from 7% to 34% over
    // 60 runs. The
    // median of 101 (about 0.2 s) read 4% to 30% over 60 runs, with
    // quartiles 19% and 23%.
    let passes: usize = if smoke { 101 } else { 3 };
    let g_off = Globalizer::new(&chunker, None, &accept_all, config());
    let sink = emd_trace::TraceSink::with_capacity(1 << 18);
    let mut g_on = Globalizer::new(&chunker, None, &accept_all, config());
    g_on.set_trace(sink.clone());

    emd_trace::set_enabled(false);
    black_box(g_off.run(slice, batch));
    emd_trace::set_enabled(true);
    black_box(g_on.run(slice, batch));

    let mut off_ns = Vec::with_capacity(passes);
    let mut on_ns = Vec::with_capacity(passes);
    for _ in 0..passes {
        emd_trace::set_enabled(false);
        let t0 = Instant::now();
        black_box(g_off.run(slice, batch));
        off_ns.push(t0.elapsed().as_nanos() as u64);

        emd_trace::set_enabled(true);
        let _ = sink.drain();
        let t0 = Instant::now();
        black_box(g_on.run(slice, batch));
        on_ns.push(t0.elapsed().as_nanos() as u64);
    }
    emd_trace::set_enabled(false);
    let run_ns_tracing_off = median(off_ns);
    let run_ns_tracing_on = median(on_ns);

    // The warm-up pass was traced too, hence passes + 1.
    let events = sink.events_total() / (passes as u64 + 1);
    let tracing = TracingStat {
        events,
        dropped: sink.dropped_total(),
        run_ns_tracing_off,
        run_ns_tracing_on,
        events_per_sec: if run_ns_tracing_on == 0 {
            0.0
        } else {
            events as f64 * 1e9 / run_ns_tracing_on as f64
        },
        overhead_pct: if run_ns_tracing_off == 0 {
            0.0
        } else {
            (run_ns_tracing_on as f64 / run_ns_tracing_off as f64 - 1.0) * 100.0
        },
    };

    let report = BenchReport {
        smoke,
        mode: if smoke { "smoke" } else { "full" }.to_string(),
        n_sentences: slice.len(),
        batch_size: batch,
        window_sentences: window,
        phases,
        latency,
        tracing,
    };
    // Tracing cost contract (see DESIGN.md "Tracing overhead"): ~19%
    // wall clock measured on the smoke stream; the ceiling leaves
    // headroom for scheduler noise but catches a hot-path regression
    // (an event emitted per token, say, shows up as 100%+).
    const TRACING_OVERHEAD_CEILING_PCT: f64 = 35.0;
    assert!(
        report.tracing.overhead_pct < TRACING_OVERHEAD_CEILING_PCT,
        "tracing overhead {:.1}% breached the documented {TRACING_OVERHEAD_CEILING_PCT}% ceiling",
        report.tracing.overhead_pct,
    );

    let json = serde_json::to_string(&report).expect("report serializes");
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = format!("{dir}/BENCH_pipeline.json");
    std::fs::write(&path, &json).expect("write bench report");
    println!(
        "report [{}]: {} sentences, {:.0} sentences/sec end-to-end, {} phases, {} histograms, \
         {} trace events ({:.0} events/sec, {:+.1}% wall clock) -> {path}",
        report.mode,
        report.n_sentences,
        report.n_sentences as f64 * 1e9 / report.tracing.run_ns_tracing_off as f64,
        report.phases.len(),
        report.latency.len(),
        report.tracing.events,
        report.tracing.events_per_sec,
        report.tracing.overhead_pct,
    );
    assert!(run_total_ns > 0, "phase timings must be recorded");
}

fn main() {
    let smoke = std::env::var_os("BENCH_SMOKE").is_some();
    let (d2, world) = bench_stream();
    // Smoke measures a tiny slice of the corpus; full mode measures the
    // windowed pipeline end-to-end on a one-million-sentence churn stream
    // (realistic long-run vocabulary turnover).
    if smoke {
        let slice: Vec<_> = sentences_of(&d2).into_iter().take(40).collect();
        emit_report(&slice, 10, smoke, 0);
    } else {
        let churn = gen_churn_stream(
            &world,
            FULL_STREAM_LEN,
            5_000,
            "churn-1m",
            &NoiseConfig::default(),
            SEED,
        );
        let stream = sentences_of(&churn);
        drop(churn);
        emit_report(&stream, FULL_BATCH, smoke, FULL_WINDOW);
    }
}
