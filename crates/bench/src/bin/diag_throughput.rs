//! Ad-hoc end-to-end throughput probe for the windowed churn stream
//! (the full-mode report configuration at an arbitrary scale): prints
//! wall clock, sentences/sec, and the per-phase breakdown.
//!
//! `cargo run --release -p emd-bench --bin diag_throughput -- 100000`
//!
//! Ablation / shape knobs (env vars; unset = full-report semantics):
//!
//! - `DIAG_BATCH=<n>`     batch size (default 512)
//! - `DIAG_CLEAN=1`       noise-free stream (`NoiseConfig::none()`)
//! - `DIAG_NO_PRUNE=1`    disable frequency-decay candidate pruning
//! - `DIAG_NO_PROMO=1`    disable adjacent-pair promotion
//! - `DIAG_OBS=1`         enable `emd_obs` and print phase histograms
//!   (adds per-batch store walks — inflates evict)

use emd_bench::{bench_stream, chunker_variant, SEED};
use emd_core::config::WindowConfig;
use emd_core::{Globalizer, GlobalizerConfig};
use emd_synth::longhorizon::gen_churn_stream;
use emd_synth::noise::NoiseConfig;
use std::time::Instant;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);
    let batch: usize = std::env::var("DIAG_BATCH")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(512);
    let noise = if std::env::var_os("DIAG_CLEAN").is_some() {
        NoiseConfig::none()
    } else {
        NoiseConfig::default()
    };
    let (_, world) = bench_stream();
    let t0 = Instant::now();
    let churn = gen_churn_stream(&world, n, 5_000, "diag", &noise, SEED);
    let sents: Vec<_> = churn.sentences.iter().map(|a| a.sentence.clone()).collect();
    println!("gen {} sentences: {:?}", n, t0.elapsed());
    let (chunker, accept_all) = chunker_variant();
    let mut cfg = GlobalizerConfig {
        window: WindowConfig::sliding(20_000),
        ..Default::default()
    };
    if std::env::var_os("DIAG_NO_PRUNE").is_some() {
        cfg.window.prune_max_frequency = 0;
    }
    if std::env::var_os("DIAG_NO_PROMO").is_some() {
        cfg.promotion_support = 0;
    }
    let g = Globalizer::new(&chunker, None, &accept_all, cfg);
    emd_obs::set_enabled(std::env::var_os("DIAG_OBS").is_some());
    let t0 = Instant::now();
    let (out, state) = g.run(&sents, batch);
    let dt = t0.elapsed();
    if emd_obs::enabled() {
        for h in g.metrics().snapshot().histograms {
            if h.count > 0 {
                println!(
                    "  hist {:<30} n={:<7} sum={:>8.1}ms p50={:>9.0} p99={:>10.0}",
                    h.name,
                    h.count,
                    h.sum as f64 / 1e6,
                    h.p50,
                    h.p99
                );
            }
        }
    }
    println!(
        "run: {:?} ({:.0} sent/s), emitted {}",
        dt,
        n as f64 / dt.as_secs_f64(),
        out.per_sentence.len()
    );
    for (name, ns) in out.phase_timings.as_pairs() {
        if ns > 0 {
            println!(
                "  {:<28} {:>14} ns  ({:.1}%)",
                name,
                ns,
                ns as f64 * 100.0 / dt.as_nanos() as f64
            );
        }
    }
    println!(
        "candidates: {}, tweetbase live: {}",
        state.candidates.len(),
        state.tweetbase.len()
    );
}
