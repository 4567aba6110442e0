//! Watching many streams at once: three concurrent supervised pipelines,
//! each bound to its own `emd-obs` [`Scope`], rolled up into one
//! Prometheus page, with SLO burn-rate alerting and exemplar-linked
//! traces. Verifies the scoped-observability contract end to end:
//!
//! * each stream's metrics land only in its own scope — per-stream
//!   series are fully disjoint and the unlabeled aggregate is their sum;
//! * the rolled-up export passes the `emd_obs::promcheck` text-format
//!   validator (well-formed families, labels, exemplars, no duplicate
//!   series) — ci.sh runs this example as the scoped-export smoke test;
//! * phase-latency histograms carry **exemplars** that resolve to real
//!   trace sequence numbers in the owning stream's event log;
//! * a synthetic latency regression on one stream trips its fast-burn
//!   p99 SLO within the fast window, presses the stream Critical, and
//!   the burn interval is replayable from the trace alone
//!   (`emd_trace::audit::replay_slo`) — while the healthy streams'
//!   SLOs stay silent;
//! * scoped monitoring is passive — every monitored, scoped run's output
//!   is bit-identical to an unmonitored, unscoped run of the same stream;
//! * the cardinality cap refuses a fourth stream scope, bumps
//!   `emd_obs_scopes_dropped_total`, and falls back to the aggregate.
//!
//! Exits non-zero on any violation. Run with:
//! `cargo run --release --example multi_stream`
//! (`EMD_MULTI_N=1500` shrinks the per-stream length for quick runs.)

use emd_globalizer::core::config::WindowConfig;
use emd_globalizer::core::local::{LexiconEmd, LocalEmd, LocalEmdOutput};
use emd_globalizer::core::obs::PipelineMetrics;
use emd_globalizer::core::supervisor::{RunReport, StreamSupervisor, SupervisorConfig};
use emd_globalizer::core::{EntityClassifier, Globalizer, GlobalizerConfig};
use emd_globalizer::obs::{promcheck, Registry, Scope, ScopeSet};
use emd_globalizer::sentinel::{HealthState, Sentinel, SentinelConfig, SeriesId, SloSpec};
use emd_globalizer::synth::{gen_drift_stream, NoiseConfig, World, WorldConfig};
use emd_globalizer::trace::audit::replay_slo;
use emd_globalizer::trace::TraceSink;
use emd_text::token::Sentence;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

const BATCH: usize = 50;
/// The slow stream's p99 batch-latency objective — far above any real
/// batch cost (healthy release batches sit around a millisecond even
/// with three streams contending), so only the injected fault crosses it.
const LAT_MAX_NS: u64 = 50_000_000; // 50 ms
/// Stall injected once per batch after the regression onset: the batch
/// takes ≥ 100 ms, double the objective, however many threads share its
/// local phase.
const STALL: Duration = Duration::from_millis(100);

/// Wraps a Local EMD system with a latency fault: after `slow_from`
/// sentences have been processed, every `BATCH`-th call stalls — at
/// least once a batch, each stall whole in one local shard. Output
/// is unchanged — only the clock is poisoned — so monitored and
/// unmonitored runs stay bit-identical.
struct SlowAfter<'a> {
    inner: &'a LexiconEmd,
    slow_from: usize,
    seen: AtomicUsize,
}

impl LocalEmd for SlowAfter<'_> {
    fn name(&self) -> &str {
        "SlowLexiconEmd"
    }
    fn embedding_dim(&self) -> Option<usize> {
        None
    }
    fn process(&self, sentence: &Sentence) -> LocalEmdOutput {
        let seen = self.seen.fetch_add(1, Ordering::Relaxed);
        if seen >= self.slow_from && seen.is_multiple_of(BATCH) {
            std::thread::sleep(STALL);
        }
        self.inner.process(sentence)
    }
}

/// The example's sentinel: no drift detectors, two declarative SLOs —
/// the p99 latency objective (Critical, fast-burn threshold 14) and a
/// quarantine-ratio objective (Degraded) that must stay silent here.
fn sentinel() -> Sentinel {
    Sentinel::new(SentinelConfig {
        window: 32,
        slos: vec![
            SloSpec::p99_latency_below("batch_latency_p99", LAT_MAX_NS),
            SloSpec::ratio_below("quarantine_ratio", SeriesId::QuarantineRate, 0.05),
        ],
        ..SentinelConfig::default()
    })
}

fn supervise<'g, 'a>(g: &'g Globalizer<'a>) -> StreamSupervisor<'g, 'a> {
    StreamSupervisor::new(
        g,
        SupervisorConfig {
            checkpoint_path: None,
            batch_size: BATCH,
            ..Default::default()
        },
    )
}

/// One stream's two runs: monitored + scoped, then unmonitored +
/// unscoped (private throwaway registry), asserting bit-identical
/// outputs. Returns the monitored report.
fn run_stream(
    name: &str,
    scope: &Scope,
    stream: &[Sentence],
    lexicon: &LexiconEmd,
    clf: &EntityClassifier,
    slow_from: Option<usize>,
) -> RunReport {
    let run = |scoped: bool| -> RunReport {
        let slow = slow_from.map(|from| SlowAfter {
            inner: lexicon,
            slow_from: from,
            seen: AtomicUsize::new(0),
        });
        let local: &dyn LocalEmd = match &slow {
            Some(s) => s,
            None => lexicon,
        };
        let mut g = Globalizer::new(
            local,
            None,
            clf,
            GlobalizerConfig {
                window: WindowConfig::sliding(1_000),
                ..Default::default()
            },
        );
        g.set_trace(TraceSink::with_capacity(1 << 18));
        if scoped {
            g.set_scope(scope);
            g.set_sentinel(sentinel());
        } else {
            // Throwaway registry: the comparison run must not leak into
            // the scope set's aggregate.
            g.set_metrics(PipelineMetrics::from_registry(&Registry::new()));
        }
        supervise(&g).run(stream)
    };
    let monitored = run(true);
    let plain = run(false);
    assert_eq!(
        plain.output.per_sentence, monitored.output.per_sentence,
        "[{name}] scoped+monitored output must be bit-identical to plain"
    );
    assert_eq!(plain.output.n_candidates, monitored.output.n_candidates);
    assert_eq!(plain.output.n_entities, monitored.output.n_entities);
    monitored
}

fn main() {
    let n: usize = std::env::var("EMD_MULTI_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3_000);
    // The latency fault starts after 30 clean batches — enough slow-window
    // history that the burn must clear the full multi-window gate.
    let onset = (30 * BATCH).min(n / 2);
    let onset_batch = (onset / BATCH) as u64 + 1;
    let names = ["alpha", "beta", "gamma"]; // gamma gets the latency fault

    emd_globalizer::obs::set_enabled(true);
    emd_globalizer::trace::set_enabled(true);

    println!(
        "[setup] 3 concurrent {n}-message streams; latency fault on \"gamma\" \
         from message {onset} (batch {onset_batch})"
    );
    let world = World::generate(&WorldConfig {
        per_category: 40,
        ..Default::default()
    });
    let lexicon = LexiconEmd::new(
        world
            .entities
            .iter()
            .flat_map(|e| e.variants.iter().cloned()),
    );
    let clf = EntityClassifier::new(7, 2022);
    let streams: Vec<Vec<Sentence>> = names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            // Stationary streams (drift index = n): the only injected
            // fault is gamma's latency stall.
            gen_drift_stream(
                &world,
                n,
                n,
                &format!("multi-{name}"),
                &NoiseConfig::none(),
                2022 + i as u64,
            )
            .sentences
            .into_iter()
            .map(|a| a.sentence)
            .collect()
        })
        .collect();

    // Cap 3: exactly the streams we run; a fourth request must overflow.
    let scopes = ScopeSet::new(3);

    // --- run the three scoped streams concurrently ---------------------
    let reports: Vec<RunReport> = std::thread::scope(|s| {
        let handles: Vec<_> = names
            .iter()
            .zip(&streams)
            .map(|(&name, stream)| {
                let scope = scopes.scope(&[("stream", name)]);
                let lexicon = &lexicon;
                let clf = &clf;
                s.spawn(move || {
                    let slow_from = (name == "gamma").then_some(onset);
                    run_stream(name, &scope, stream, lexicon, clf, slow_from)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    println!("[transparency] all 3 scoped outputs bit-identical to unscoped runs");

    // --- per-stream SLO verdicts ---------------------------------------
    for (name, report) in names.iter().zip(&reports) {
        let health = report
            .health
            .as_ref()
            .expect("monitored run reports health");
        println!(
            "[{name}] state={:?} batches={} slo_burn_batches={}",
            health.state, health.batches, health.slo_burn_total
        );
        if *name == "gamma" {
            assert!(
                health.slo_burn_total > 0,
                "the latency regression must burn the p99 SLO"
            );
            assert_eq!(
                health.state,
                HealthState::Critical,
                "a firing Critical SLO must press the stream Critical"
            );
            let slos = replay_slo(&report.trace_events);
            let lat = slos
                .iter()
                .find(|s| s.name == "batch_latency_p99")
                .expect("burn interval must be replayable from the trace");
            let first = *lat.firing_batches.first().unwrap();
            println!(
                "[gamma] slo fired first at batch {first} (onset {onset_batch}), \
                 peak fast burn {:.0}x, {} firing batches replayed",
                lat.peak_burn_fast,
                lat.firing_batches.len()
            );
            assert!(
                (onset_batch..=onset_batch + 5).contains(&first),
                "fast-burn SLO fired at batch {first}; onset was {onset_batch} \
                 (must trip within the 5-batch fast window)"
            );
            let replayed_total: usize = slos.iter().map(|s| s.firing_batches.len()).sum();
            assert_eq!(
                replayed_total as u64, health.slo_burn_total,
                "trace replay must reconstruct every firing batch"
            );
            assert!(
                !slos.iter().any(|s| s.name == "quarantine_ratio"),
                "the quarantine SLO must stay silent"
            );
        } else {
            assert_eq!(health.slo_burn_total, 0, "[{name}] SLOs must stay silent");
            assert_eq!(health.state, HealthState::Healthy);
        }
    }

    // --- scope isolation + aggregate -----------------------------------
    let roll = scopes.snapshot();
    for name in &names {
        let snap = roll
            .scope(&[("stream", name)])
            .expect("every stream has a scope snapshot");
        assert_eq!(
            snap.counter("emd_pipeline_sentences_total"),
            Some(n as u64),
            "[{name}] scope must hold exactly its own stream's sentences"
        );
    }
    assert_eq!(
        roll.aggregate().counter("emd_pipeline_sentences_total"),
        Some(3 * n as u64),
        "aggregate must be the sum of the three scopes"
    );
    println!("[scopes] per-stream series disjoint; aggregate = 3 x {n} sentences");

    // --- exemplars resolve to real trace seqs --------------------------
    for (name, report) in names.iter().zip(&reports) {
        let seqs: HashSet<u64> = report.trace_events.iter().map(|e| e.seq).collect();
        let snap = roll.scope(&[("stream", name)]).unwrap();
        let resolved = snap
            .histograms
            .iter()
            .flat_map(|h| h.exemplars.iter())
            .filter(|x| seqs.contains(&x.trace_seq))
            .count();
        assert!(
            resolved > 0,
            "[{name}] no histogram exemplar resolves to a traced event"
        );
        println!("[{name}] {resolved} exemplars resolve to trace events");
    }

    // --- cardinality cap -----------------------------------------------
    let overflow = scopes.scope(&[("stream", "delta")]);
    assert!(
        overflow.labels().is_empty(),
        "the 4th scope must fall back to the default scope"
    );
    assert_eq!(scopes.dropped(), 1, "the refusal must be counted");
    assert_eq!(scopes.len(), 3);

    // --- the rolled-up page is well-formed -----------------------------
    let page = scopes.snapshot().to_prometheus();
    let stats = match promcheck::validate(&page) {
        Ok(stats) => stats,
        Err(violations) => {
            for v in &violations {
                eprintln!("[promcheck] {v}");
            }
            panic!("rolled-up export failed validation");
        }
    };
    assert!(
        stats.exemplars > 0,
        "the rolled-up page must carry at least one exemplar"
    );
    for name in &names {
        assert!(
            page.contains(&format!("stream=\"{name}\"")),
            "page must carry {name}'s labeled series"
        );
    }
    assert!(
        page.contains("emd_obs_scopes_dropped_total 1"),
        "the overflow counter must export in the aggregate"
    );
    println!(
        "[promcheck] page ok: {} families, {} series, {} exemplars",
        stats.families, stats.series, stats.exemplars
    );

    // --- delta scrape: a second scrape starts from zero ----------------
    let _ = scopes.snapshot_delta();
    let delta = scopes.snapshot_delta();
    let quiet = delta
        .aggregate()
        .counter("emd_pipeline_sentences_total")
        .unwrap_or(0);
    assert_eq!(quiet, 0, "nothing ran between delta scrapes");

    println!("[ok] multi-stream scoped observability smoke passed");
}
