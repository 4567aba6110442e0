//! Incremental streaming: feed a tweet stream to the framework batch by
//! batch (the paper's iteration model), watching per-batch pipeline
//! metrics — throughput, candidate growth, dirty-set depth — then
//! finalize and print the per-phase timing breakdown.
//!
//! Uses the TwitterNLP (CRF) local system — trained quickly on the generic
//! corpus — so the whole example runs in seconds.
//!
//! Run with: `cargo run --release --example streaming_pipeline`

use emd_globalizer::core::classifier::ClassifierTrainConfig;
use emd_globalizer::core::training::harvest_training_data;
use emd_globalizer::core::{EntityClassifier, Globalizer, GlobalizerConfig};
use emd_globalizer::local::twitter_nlp::{TwitterNlp, TwitterNlpConfig};
use emd_globalizer::synth::datasets::{
    generic_training_corpus, standard_datasets, training_stream,
};
use std::time::Instant;

fn main() {
    let seed = 2022u64;

    println!("[setup] training TwitterNLP on the out-of-domain generic corpus ...");
    let (gen_world, generic) = generic_training_corpus(seed, 0.25);
    let mut local = TwitterNlp::train(
        &generic,
        gen_world.gazetteer.clone(),
        &TwitterNlpConfig::default(),
    );

    println!("[setup] training the Entity Classifier on D5 candidates ...");
    let suite = standard_datasets(seed, 0.05);
    local.set_gazetteer(suite.world.gazetteer.clone());
    let (_, d5) = training_stream(seed, 0.02);
    let cfg = GlobalizerConfig::default();
    let data = harvest_training_data(&local, None, &cfg, &d5);
    let mut classifier = EntityClassifier::new(7, seed);
    classifier.train(&data, &ClassifierTrainConfig::default());

    // Collect metrics only for the streaming run below, not the training
    // above (recording starts off / noop).
    emd_globalizer::obs::set_enabled(true);

    // The D2-analog health stream, consumed in batches of 25 messages.
    let d2 = &suite.datasets[1];
    let sentences: Vec<_> = d2.sentences.iter().map(|a| a.sentence.clone()).collect();

    let globalizer = Globalizer::new(&local, None, &classifier, cfg);
    let mut state = globalizer.new_state();
    println!(
        "\n[stream] consuming {} messages in batches of 25:\n",
        sentences.len()
    );
    let mut prev_mentions = 0u64;
    for (i, batch) in sentences.chunks(25).enumerate() {
        let t0 = Instant::now();
        globalizer.process_batch(&mut state, batch);
        let secs = t0.elapsed().as_secs_f64();

        // A per-batch metrics snapshot: counters are cumulative, so the
        // per-batch mention count is a delta against the previous batch.
        let snap = globalizer.metrics().snapshot();
        let mentions = snap.counter("emd_scan_mentions_total").unwrap_or(0);
        let n_entities = state
            .candidates
            .iter()
            .filter(|c| c.label == emd_globalizer::core::CandidateLabel::Entity)
            .count();
        println!(
            "batch {:>2}: sentences={:<4} candidates={:<4} entities={:<4} \
             mentions(+{:<3}) dirty={:<3} {:>7.0} sent/s",
            i + 1,
            state.tweetbase.len(),
            state.candidates.len(),
            n_entities,
            mentions - prev_mentions,
            state.n_dirty(),
            batch.len() as f64 / secs.max(1e-9),
        );
        prev_mentions = mentions;
    }

    let t0 = Instant::now();
    let output = globalizer.finalize(&mut state);
    let fin_secs = t0.elapsed().as_secs_f64();
    println!(
        "\n[finalize] candidates={} entities={} rescanned={} promoted={} in {:.3}s",
        output.n_candidates, output.n_entities, output.n_rescanned, output.n_promoted, fin_secs
    );

    // Per-phase wall-clock breakdown of the whole run (always collected,
    // even with metrics disabled).
    println!("\nper-phase timing breakdown:");
    for (phase, ns) in output.phase_timings.as_pairs() {
        println!("  {phase:>16}: {:>9.3} ms", ns as f64 / 1e6);
    }

    // Latency quantiles per phase, from the metrics registry.
    println!("\nper-phase latency quantiles:");
    for h in globalizer.metrics().snapshot().histograms {
        if h.count > 0 {
            println!(
                "  {:<32} n={:<4} p50={:>9.0}ns p90={:>9.0}ns p99={:>9.0}ns",
                h.name, h.count, h.p50, h.p90, h.p99
            );
        }
    }

    // TwitterNLP's own inference latency (recorded by emd-local).
    let global = emd_globalizer::obs::global().snapshot();
    if let Some(h) = global.histogram("emd_local_twitter_nlp_process_ns") {
        println!(
            "\nTwitterNLP inference: n={} p50={:.0}ns p99={:.0}ns",
            h.count, h.p50, h.p99
        );
        assert!(h.count > 0, "local-system histogram must have samples");
    }

    // Top entities by mention frequency.
    let mut top: Vec<_> = state
        .candidates
        .iter()
        .filter(|c| c.label == emd_globalizer::core::CandidateLabel::Entity)
        .map(|c| (c.frequency(), state.tweetbase.interner().join(&c.syms)))
        .collect();
    top.sort_by_key(|b| std::cmp::Reverse(b.0));
    println!("\nmost frequent entities in the stream:");
    for (freq, key) in top.iter().take(10) {
        println!("  {freq:>4} x {key}");
    }
    assert!(output.n_entities > 0);
}
