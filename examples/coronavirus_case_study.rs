//! The paper's case study (Figures 1 & 5): a Coronavirus message stream
//! where a deep Local EMD system misses mention variants ("CORONAVIRUS",
//! "coronavirus") that the framework recovers.
//!
//! We regenerate the scenario with a Covid-like synthetic health stream
//! (D2 analog) and the trained MiniBERT (BERTweet stand-in) local system.
//!
//! Run with: `cargo run --release --example coronavirus_case_study`

use emd_globalizer::core::classifier::ClassifierTrainConfig;
use emd_globalizer::core::local::LocalEmd;
use emd_globalizer::core::phrase_embedder::StsTrainConfig;
use emd_globalizer::core::training::harvest_training_data;
use emd_globalizer::core::{EntityClassifier, Globalizer, GlobalizerConfig, PhraseEmbedder};
use emd_globalizer::local::mini_bert::{MiniBert, MiniBertConfig};
use emd_globalizer::synth::datasets::{generic_training_corpus, training_stream};
use emd_globalizer::synth::stream::{gen_stream, NoiseConfig};
use emd_globalizer::synth::sts::gen_sts;
use emd_globalizer::synth::templates::Domain;
use emd_globalizer::synth::topics::Topic;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let seed = 2022u64;
    println!("[1/4] training MiniBERT (BERTweet stand-in) on the generic corpus ...");
    let (_, generic) = generic_training_corpus(seed, 0.25);
    let (bert, _) = MiniBert::train(&generic, &MiniBertConfig::default());

    println!("[2/4] training the Entity Phrase Embedder and Entity Classifier ...");
    let (world, d5) = training_stream(seed, 0.02);
    let (sts_train, sts_val) = gen_sts(&world, 300, 80, seed ^ 9);
    let embed = |s: &emd_globalizer::text::token::Sentence| {
        bert.process(s).token_embeddings.expect("deep system")
    };
    let to_pairs = |ps: &[emd_globalizer::synth::sts::StsPair]| {
        ps.iter()
            .map(|p| (embed(&p.a), embed(&p.b), p.score))
            .collect::<Vec<_>>()
    };
    let mut phrase = PhraseEmbedder::new(bert.embedding_dim().unwrap(), 32, seed);
    phrase.train_sts(
        &to_pairs(&sts_train),
        &to_pairs(&sts_val),
        &StsTrainConfig::default(),
    );
    let cfg = GlobalizerConfig::default();
    let data = harvest_training_data(&bert, Some(&phrase), &cfg, &d5);
    let mut classifier = EntityClassifier::new(phrase.out_dim() + 1, seed);
    classifier.train(&data, &ClassifierTrainConfig::default());

    println!("[3/4] generating a Covid-like health stream (D2 analog) ...");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc0);
    let topic = vec![Topic::generate_mixed(
        &world,
        Domain::Health,
        60,
        Some(0.25),
        &mut rng,
    )];
    let stream = gen_stream(
        &world,
        &topic,
        150,
        "case-study",
        &NoiseConfig::default(),
        seed ^ 2,
    );
    let sentences: Vec<_> = stream
        .sentences
        .iter()
        .map(|a| a.sentence.clone())
        .collect();

    println!("[4/4] running Local EMD alone vs the full framework ...\n");
    let globalizer = Globalizer::new(&bert, Some(&phrase), &classifier, cfg);
    let (output, state) = globalizer.run(&sentences, 32);

    // Show tweets where the framework recovered mentions the local system
    // missed — the paper's Figure 5 moment.
    let mut shown = 0;
    for (sid, spans) in &output.per_sentence {
        let rec = state.tweetbase.get(*sid).unwrap();
        // The store keeps symbols, not text: spell mentions from the input.
        let sentence = sentences.iter().find(|s| s.id == *sid).unwrap();
        let recovered: Vec<String> = spans
            .iter()
            .filter(|sp| !rec.local_spans.contains(sp))
            .map(|sp| sp.surface(sentence))
            .collect();
        if !recovered.is_empty() && shown < 8 {
            println!("tweet {:>3}: {}", sid.tweet_id, sentence.joined());
            println!("          local EMD missed, framework recovered: {recovered:?}\n");
            shown += 1;
        }
    }

    let local_total: usize = state.tweetbase.iter().map(|r| r.local_spans.len()).sum();
    let global_total: usize = output.per_sentence.iter().map(|(_, v)| v.len()).sum();
    println!("mentions found by Local EMD alone : {local_total}");
    println!("mentions in the framework output  : {global_total}");
    assert!(
        shown > 0,
        "the case study should exhibit recovered mentions"
    );
}
