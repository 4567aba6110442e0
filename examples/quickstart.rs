//! Quickstart: wrap a Local EMD system with the EMD Globalizer framework,
//! watch it recover mentions the local pass missed, and inspect every
//! pipeline phase through the built-in metrics layer (`emd-obs`).
//!
//! Run with: `cargo run --release --example quickstart`

use emd_globalizer::core::local::LexiconEmd;
use emd_globalizer::core::{EntityClassifier, Globalizer, GlobalizerConfig};
use emd_globalizer::nn::param::Net;
use emd_globalizer::obs::Snapshot;
use emd_globalizer::text::tokenizer::tokenize_message;

fn main() {
    // 0. Metric recording is off (noop) by default; flip it on for the
    //    whole process. Every pipeline phase then records counters and
    //    latency histograms into the global registry.
    emd_globalizer::obs::set_enabled(true);

    // 1. A toy Local EMD system: tags tokens found in a small lexicon.
    //    Any type implementing `LocalEmd` plugs into the framework — see
    //    `examples/streaming_pipeline.rs` for the trained deep systems.
    //    Note it only knows the *fragments* "andy" and "beshear", never
    //    the full name.
    let local = LexiconEmd::new(["coronavirus", "italy", "beshear", "andy"]);

    // 2. An entity classifier. For the demo we force "accept everything"
    //    by biasing the output layer; in real use you train it on labelled
    //    candidates (see `EntityClassifier::train`).
    let mut classifier = EntityClassifier::new(7, 0);
    classifier
        .params_mut()
        .into_iter()
        .last()
        .unwrap()
        .value
        .data[0] = 10.0;

    // 3. Assemble the framework. Non-deep local systems need no phrase
    //    embedder (the 6-dim syntactic path is used).
    let globalizer = Globalizer::new(&local, None, &classifier, GlobalizerConfig::default());

    // 4. A small message stream. Casing varies (a lexicon matcher handles
    //    that), and "Andy Beshear" recurs as two adjacent fragments — at
    //    stream close the promotion pass recognizes the pair as one
    //    entity and the rescan revisits the affected sentences.
    let raw_stream = [
        "Coronavirus spreads fast in Italy.",
        "CORONAVIRUS cases triple overnight!",
        "Andy Beshear says social distancing is not social isolation.",
        "governor Andy Beshear briefs the state again",
        "the coronavirus is not done with italy",
        "thank you Andy Beshear for the daily updates",
    ];
    let sentences: Vec<_> = raw_stream
        .iter()
        .enumerate()
        .flat_map(|(i, msg)| tokenize_message(i as u64, msg))
        .collect();

    // 5. Run: batches stream through `process_batch`, `finalize` closes
    //    (rescan + adjacent-fragment promotion + γ resolution).
    let (output, _) = globalizer.run(&sentences, 2);

    println!("candidates discovered : {}", output.n_candidates);
    println!("accepted as entities  : {}", output.n_entities);
    println!("promoted at close     : {}", output.n_promoted);
    println!("rescanned at close    : {}", output.n_rescanned);
    println!();
    for (sid, spans) in &output.per_sentence {
        // The store keeps symbols, not text: spell mentions from the input.
        let sent = sentences.iter().find(|s| s.id == *sid).unwrap();
        let mentions: Vec<String> = spans.iter().map(|sp| sp.surface(sent)).collect();
        println!(
            "tweet {:>2}: {:<55} -> {:?}",
            sid.tweet_id,
            sent.joined(),
            mentions
        );
    }

    let total: usize = output.per_sentence.iter().map(|(_, v)| v.len()).sum();
    assert!(total >= 8, "expected at least 8 mentions, got {total}");
    assert!(output.n_promoted >= 1, "adjacent fragments must promote");
    assert!(output.n_rescanned >= 1, "promotion must trigger a rescan");

    // 6. Inspect the pipeline. The snapshot covers every phase: local
    //    inference, ingestion + trie registration, the occurrence scan,
    //    embedding pooling, classification, and the closing rescan.
    let snap = globalizer.metrics().snapshot();

    println!("\n--- per-phase latency (from the metrics registry) ---");
    for h in &snap.histograms {
        if h.count > 0 {
            println!(
                "{:<34} n={:<4} p50={:>8.0}ns p99={:>8.0}ns max={:>8}ns",
                h.name, h.count, h.p50, h.p99, h.max
            );
        }
    }

    // Every phase of the acceptance checklist must have recorded samples.
    for hist in [
        "emd_pipeline_local_infer_ns", // local inference
        "emd_trie_register_ns",        // trie registration
        "emd_pipeline_scan_ns",        // occurrence scan
        "emd_pipeline_pool_ns",        // embedding pooling
        "emd_pipeline_classify_ns",    // classification
        "emd_pipeline_finalize_ns",    // finalize
    ] {
        let h = snap.histogram(hist).expect("registered");
        assert!(h.count > 0, "{hist} must have samples");
        assert!(h.p50 > 0.0 && h.p99 >= h.p50, "{hist} quantiles sane");
    }
    for counter in [
        "emd_pipeline_sentences_total",
        "emd_trie_inserts_total",
        "emd_scan_records_total",
        "emd_scan_mentions_total",
        "emd_pool_embeddings_total",
        "emd_classify_candidates_total",
        "emd_finalize_rescan_sentences_total",
        "emd_finalize_promotions_total",
    ] {
        assert!(
            snap.counter(counter).unwrap_or(0) > 0,
            "{counter} must be nonzero"
        );
    }

    // 7. Export. Prometheus text exposition for scrapers ...
    println!("\n--- Prometheus exposition ---");
    print!("{}", snap.to_prometheus());

    // ... and a JSON document that round-trips through the serde layer.
    let json = snap.to_json();
    let back = Snapshot::from_json(&json).expect("snapshot JSON parses");
    assert_eq!(back, snap, "JSON export round-trips losslessly");
    println!(
        "\nJSON snapshot: {} bytes (round-trip verified)",
        json.len()
    );

    println!("\nok: {total} mentions extracted across the stream");
}
