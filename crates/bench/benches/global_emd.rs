//! Table III "Time Overhead": the Global EMD components are cheap relative
//! to Local EMD — CTrie operations, the candidate-mention rescan, phrase
//! embedding and classifier scoring.

use criterion::{criterion_group, criterion_main, Criterion};
use emd_bench::{bench_stream, sentences_of, SEED};
use emd_core::ctrie::CTrie;
use emd_core::mention::extract_mentions;
use emd_core::{EntityClassifier, PhraseEmbedder};
use emd_nn::matrix::Matrix;
use emd_text::intern::Interner;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_global_components(c: &mut Criterion) {
    let (d2, _) = bench_stream();
    let sents = sentences_of(&d2);

    // Candidate inventory: gold surfaces of the stream (realistic trie).
    let mut interner = Interner::new();
    let mut trie = CTrie::new();
    for ann in &d2.sentences {
        for sp in &ann.gold {
            let toks: Vec<String> = (sp.start..sp.end)
                .map(|i| ann.sentence.tokens[i].text.clone())
                .collect();
            trie.insert(&mut interner, &toks);
        }
    }

    let mut group = c.benchmark_group("global_emd");

    group.bench_function("ctrie_insert_100_candidates", |b| {
        let cands: Vec<Vec<String>> = (0..100)
            .map(|i| vec![format!("cand{i}"), format!("tail{i}")])
            .collect();
        b.iter(|| {
            let mut it = Interner::new();
            let mut t = CTrie::new();
            for cd in &cands {
                t.insert(&mut it, cd);
            }
            black_box(t.len())
        })
    });

    group.bench_function("ctrie_lookup", |b| {
        b.iter(|| {
            let node = trie.child(&interner, CTrie::ROOT, black_box("coronavirus"));
            black_box(node.is_some_and(|n| trie.is_terminal(n)))
        })
    });

    group.bench_function("mention_rescan_100_sentences", |b| {
        let slice = &sents[..sents.len().min(100)];
        b.iter(|| {
            let mut n = 0usize;
            for s in slice {
                n += extract_mentions(&trie, &mut interner, s, 6).len();
            }
            black_box(n)
        })
    });

    // Phrase embedding of a 3-token mention from 100-dim token embeddings
    // (the Aguilar deep path).
    let pe = PhraseEmbedder::new(100, 100, SEED);
    let mut rng = StdRng::seed_from_u64(SEED);
    let te = Matrix::from_vec(
        12,
        100,
        (0..1200).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
    );
    group.bench_function("phrase_embed_mention", |b| {
        let span = emd_text::token::Span::new(4, 7);
        b.iter(|| black_box(pe.embed_span(&te, &span)))
    });

    // Classifier scoring of a global candidate embedding.
    let clf = EntityClassifier::new(101, SEED);
    let feats: Vec<f32> = (0..101).map(|i| (i as f32 * 0.37).sin()).collect();
    group.bench_function("classifier_predict", |b| {
        b.iter(|| black_box(clf.predict(&feats)))
    });

    group.finish();
}

criterion_group!(benches, bench_global_components);
criterion_main!(benches);
