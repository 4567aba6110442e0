//! Explain a decision: run a traced stream through the framework, then
//! answer "why was *this* mention emitted (or suppressed)?" from the
//! event log alone — per-candidate provenance chains, a trace-replay
//! audit against the live output, a JSONL export round-trip, and a
//! collapsed-stack flame profile written to `results/flame.txt`.
//!
//! Run with: `cargo run --release --example explain_mention`
//!
//! Exits nonzero if any provenance invariant fails (CI runs this as the
//! trace smoke test).

use emd_globalizer::core::classifier::ClassifierTrainConfig;
use emd_globalizer::core::local::LexiconEmd;
use emd_globalizer::core::{EntityClassifier, Globalizer, GlobalizerConfig};
use emd_globalizer::text::tokenizer::tokenize_message;
use emd_globalizer::trace::{audit, flame, jsonl, TraceSink};

fn check(cond: bool, msg: &str) {
    if !cond {
        eprintln!("FAILED: {msg}");
        std::process::exit(1);
    }
}

fn main() {
    // 0. Tracing is off (noop) by default; flip it on and give the
    //    pipeline a private bounded ring to push events into.
    emd_globalizer::trace::set_enabled(true);
    let sink = TraceSink::with_capacity(1 << 16);

    // 1. A toy local system proposing both a real entity ("Italy") and a
    //    stopword false positive ("the") as seed candidates.
    let local = LexiconEmd::new(["italy", "covid", "the"]);

    // 2. Train the entity classifier on the 6-dim syntactic casing
    //    space (+ length): discriminative capitalization is evidence for
    //    an entity, lowercase and sentence-initial-only casing against.
    let mut classifier = EntityClassifier::new(7, 0);
    let mut data = Vec::new();
    for len in 1..=3u32 {
        for class in 0..6usize {
            // Classes: 0 proper cap, 3 full cap → entity; 1 start-of-
            // sentence cap, 2 substring cap, 4 lowercase, 5 non-
            // discriminative → not an entity.
            let label = class == 0 || class == 3;
            let mut f = vec![0.0f32; 6];
            f[class] = 1.0;
            f.push(len as f32);
            for _ in 0..4 {
                data.push((f.clone(), label));
            }
        }
    }
    let report = classifier.train(
        &data,
        &ClassifierTrainConfig {
            epochs: 300,
            lr: 0.03,
            batch_size: 8,
            patience: 50,
            seed: 7,
        },
    );
    println!(
        "classifier trained: val F1 {:.2} after {} epochs",
        report.best_val_f1, report.epochs_run
    );

    // 3. Assemble the framework and point it at the private trace sink.
    let mut globalizer = Globalizer::new(&local, None, &classifier, GlobalizerConfig::default());
    globalizer.set_trace(sink.clone());

    // 4. A small stream. "Italy" always appears mid-sentence with proper
    //    capitalization (entity evidence); "the" is always lowercase.
    let raw_stream = [
        "cases rise in Italy as the winter nears",
        "experts say Italy passed the peak",
        "the numbers from Italy improve again",
        "COVID wards in Italy empty out",
    ];
    let sentences: Vec<_> = raw_stream
        .iter()
        .enumerate()
        .flat_map(|(i, msg)| tokenize_message(i as u64, msg))
        .collect();
    let (output, state) = globalizer.run(&sentences, 2);
    println!(
        "stream processed: {} candidates, {} accepted as entities",
        output.n_candidates, output.n_entities
    );

    let events = sink.drain();
    check(!events.is_empty(), "traced run must produce events");
    check(
        sink.dropped_total() == 0,
        "ring must not overflow this demo",
    );

    // 5. Provenance: one emitted and one suppressed candidate, each with
    //    a full decision chain assembled from the trace.
    println!("\n--- provenance chains ---");
    let italy = output.explain("italy", &events);
    let the = output.explain("the", &events);
    for ex in [&italy, &the] {
        println!("{ex}");
    }
    check(italy.emitted, "\"italy\" must be emitted");
    check(!italy.chain.is_empty(), "\"italy\" chain must be non-empty");
    check(!the.emitted, "\"the\" must be suppressed");
    check(!the.chain.is_empty(), "\"the\" chain must be non-empty");
    check(
        output.explain("nonexistent", &events).chain.is_empty(),
        "unknown candidates have empty chains",
    );

    // 6. Replay audit: the event log alone reconstructs the final
    //    mention set and summary counts.
    let replayed = audit::replay(&events);
    let flat: Vec<audit::ReplayedSentence> = output
        .per_sentence
        .iter()
        .map(|(sid, spans)| {
            (
                (sid.tweet_id, sid.sent_id),
                spans
                    .iter()
                    .map(|sp| (sp.start as u32, sp.end as u32))
                    .collect(),
            )
        })
        .collect();
    check(
        replayed.per_sentence == flat,
        "replayed mention set must match the pipeline output",
    );
    check(
        replayed.n_candidates == output.n_candidates && replayed.n_entities == output.n_entities,
        "replayed summary counts must match",
    );
    println!(
        "\nreplay audit ok: {} sentences, {} candidates reconstructed",
        replayed.per_sentence.len(),
        replayed.n_candidates
    );

    // 7. JSONL export round-trips losslessly, so an exported trace
    //    audits identically offline.
    let text = jsonl::to_jsonl(&events);
    let back = jsonl::from_jsonl(&text).expect("exported trace parses");
    check(back == events, "JSONL round-trip must be lossless");
    check(
        audit::replay(&back) == replayed,
        "exported trace must replay identically",
    );
    println!("JSONL export: {} bytes, round-trip verified", text.len());

    // 8. Self-profile: collapsed stacks (flamegraph.pl-compatible) from
    //    the PhaseSpan events.
    let collapsed = flame::to_collapsed_stacks(&events);
    check(!collapsed.is_empty(), "flame profile must be non-empty");
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/flame.txt", &collapsed).expect("write flame profile");
    println!("\n--- collapsed stacks (results/flame.txt) ---");
    print!("{collapsed}");

    let total: usize = output.per_sentence.iter().map(|(_, v)| v.len()).sum();
    check(total >= 4, "every Italy mention must be recovered");
    let _ = state;
    println!("\nok: {total} mentions emitted, every decision explained");
}
