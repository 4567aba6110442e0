//! The three workloads. Each drives the pipeline through public entry
//! points only, single-threaded wherever the API allows it
//! (`process_batch`, `finalize_with_threads(state, 1)`).
//!
//! * `churn-window` — the committed production shape: the churn stream,
//!   the NP chunker with an accept-all classifier, a 20k sliding window
//!   and batches of 512. Set-up fills the window, so every timed batch
//!   settles, evicts and prunes. Eviction and scan dominate it, so
//!   eviction or scan work moves it and local-model work leaves it flat.
//! * `deep-drift` — the drift stream through a deep local system
//!   (Aguilar, 1 epoch) with a 100→100 phrase embedder and a 101-dim
//!   classifier, no window, small batches. Local inference and the
//!   100-dim pooling and classifier kernels dominate it, so local and
//!   kernel work moves it; it never evicts, so eviction work leaves it
//!   flat.
//! * `supervised-churn` — `StreamSupervisor::run` over the churn stream
//!   with the window, checkpoints every 6 batches on a two-generation
//!   ladder, a detached obs scope (recording on) and a default sentinel.
//!   Its set-up is a restart from a ladder an untimed prefix run wrote.
//!   It alone clones the state per batch, walks `resident_bytes` per
//!   batch, writes checkpoints and restores one, so clone, checkpoint
//!   and restore work moves it and only it. The prefix is small because
//!   restore is quadratic in checkpoint size today: a full-window
//!   restore would take hours. Once restore is fixed the prefix should
//!   grow to a full window.
//!
//! A run draws several streams from its `--seed` and gives each an equal
//! share of `--seconds`: set it up, then repeat one fixed-size *episode*
//! on it (same input, fresh copy of the set-up state) until its share has
//! passed, and at least `min_repeats` times. Throughput is the median
//! episode over all streams, so neither one stream's peculiar vocabulary
//! nor a slow spell of the host moves it much. A batch's latency is its
//! median over the repeats of its episode, so a host stall during one
//! repeat does not reach the percentiles; p50 and the tail are taken over
//! those medians.
//!
//! Every timed section (episode or set-up) is bracketed by a fixed kernel
//! of this benchmark's own ([`host::kernel_ms`]), and the end-to-end
//! timings are scaled to the reference host by it: the host's clock
//! speed on a shared VM wanders by up to 1.7x over minutes, and the
//! pipeline's times follow the kernel's within a few percent. Raw values
//! are printed beside them.

use crate::digest::{spans_digest, Fnv};
use crate::host::{self, HostSample, Speed, KERNEL_REF_MS};
use crate::layers::{self, MentionProbe};
use crate::report::Outcome;
use crate::stats::{median, tail};
use emd_core::config::WindowConfig;
use emd_core::globalizer::{GlobalizerOutput, GlobalizerState};
use emd_core::{
    EntityClassifier, Globalizer, GlobalizerConfig, LocalEmd, LocalEmdOutput, PhaseTimings,
    PhraseEmbedder, StreamSupervisor, SupervisorConfig,
};
use emd_local::aguilar::{Aguilar, AguilarConfig, EMB_DIM};
use emd_local::np_chunker::NpChunker;
use emd_nn::param::Net;
use emd_sentinel::Sentinel;
use emd_synth::datasets::generic_training_corpus;
use emd_synth::{gen_churn_stream, gen_drift_stream, NoiseConfig, World, WorldConfig};
use emd_text::casing::SyntacticClass;
use emd_text::token::{Dataset, Sentence, SentenceId, Span};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["churn-window", "deep-drift", "supervised-churn"];

/// World seed of the committed production stream (the `emd-bench`
/// seed). `--seed` varies the streams drawn from this world.
const WORLD_SEED: u64 = 99;
/// Churn cadence of the committed production stream.
const CHURN_EVERY: usize = 5_000;
/// Drift epoch: the topic changes this often, so one deep-drift episode
/// spans eight topics and streams differ little in entity density.
const DRIFT_EPOCH: usize = 256;
/// Checkpoint generations the supervisor keeps.
const GENERATIONS: usize = 2;
/// Streams one seed can name; stream `j` of seed `s` is generated from
/// `s * MAX_STREAMS + j`.
const MAX_STREAMS: u64 = 64;

/// Sizes of one run. [`Scale::FULL`] is what the benchmark measures;
/// [`Scale::TINY`] exercises every path in a second or two for tests.
#[derive(Debug)]
pub struct Scale {
    pub name: &'static str,
    /// Sliding window of the churn workloads, in sentences.
    pub window: usize,
    pub churn_batch: usize,
    /// Timed sentences per churn-window episode, after the window fill.
    pub churn_timed: usize,
    pub churn_streams: usize,
    pub deep_batch: usize,
    /// Sentences per deep-drift episode.
    pub deep_episode: usize,
    /// Sentences of the generic corpus the deep model trains on.
    pub deep_train: usize,
    /// Model trainings; deep-drift's `setup_s` is their median.
    pub deep_setups: usize,
    pub deep_streams: usize,
    /// Sentences behind the supervised restart ladder. Restore is
    /// quadratic in checkpoint size today, so this stays small.
    pub prefix: usize,
    /// Sentences behind the restart probe of the deep state, whose
    /// token embeddings make each sentence's checkpoint far larger.
    pub deep_prefix: usize,
    pub supervised_batch: usize,
    /// Sentences per supervised episode (fills the window, then runs in
    /// steady state).
    pub supervised_episode: usize,
    pub supervised_streams: usize,
    /// Supervisor checkpoint period in batches. At 6, a seventh of the
    /// timed batch intervals hold a checkpoint write, so the p90 tail
    /// falls among them rather than on the edge between them and the
    /// rest, where it would jump between the two.
    pub checkpoint_every: usize,
    /// Episodes each stream of churn-window and deep-drift runs at least.
    pub min_repeats: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        name: "full",
        window: 20_000,
        churn_batch: 512,
        churn_timed: 16_384,
        churn_streams: 4,
        deep_batch: 32,
        deep_episode: 2_048,
        deep_train: 1_000,
        deep_setups: 3,
        deep_streams: 8,
        prefix: 160,
        deep_prefix: 16,
        supervised_batch: 512,
        supervised_episode: 24_576,
        supervised_streams: 3,
        checkpoint_every: 6,
        min_repeats: 3,
    };

    #[cfg(test)]
    pub const TINY: Scale = Scale {
        name: "tiny",
        window: 600,
        churn_batch: 16,
        churn_timed: 256,
        churn_streams: 2,
        deep_batch: 4,
        deep_episode: 64,
        deep_train: 200,
        deep_setups: 2,
        deep_streams: 2,
        prefix: 64,
        deep_prefix: 8,
        supervised_batch: 64,
        supervised_episode: 900,
        supervised_streams: 2,
        checkpoint_every: 4,
        min_repeats: 3,
    };
}

/// One run's settings.
pub struct Ctx<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: &'a Scale,
    /// Scratch directory for checkpoints and recorded digests.
    pub work: PathBuf,
}

impl Ctx<'_> {
    fn stream_seed(&self, j: usize) -> u64 {
        self.seed.wrapping_mul(MAX_STREAMS).wrapping_add(j as u64)
    }
}

/// Run workload `name`.
pub fn run(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    std::fs::create_dir_all(&ctx.work).map_err(|e| format!("{}: {e}", ctx.work.display()))?;
    let host0 = HostSample::now();
    let mut out = match name {
        "churn-window" => churn_window(ctx)?,
        "deep-drift" => deep_drift(ctx)?,
        "supervised-churn" => supervised_churn(ctx)?,
        _ => return Err(format!("unknown workload {name:?}; one of {WORKLOADS:?}")),
    };
    let h = host0.since();
    out.note(format!(
        "{name} seed={} scale={} trace={}: wall {:.2} s, cpu {:.2} s, host steal {:.0} ms",
        ctx.seed, ctx.scale.name, ctx.trace, h.wall_s, h.cpu_s, h.steal_ms
    ));
    if ctx.trace {
        out.metric("host.steal_ms", "ms", h.steal_ms);
        out.metric("host.cpu_s", "s", h.cpu_s);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Inputs and fixtures.

fn world() -> World {
    World::generate(&WorldConfig {
        seed: WORLD_SEED,
        ..Default::default()
    })
}

/// One generated stream: its sentences and their gold spans.
struct Input {
    sentences: Vec<Sentence>,
    gold: HashMap<SentenceId, Vec<Span>>,
}

impl From<Dataset> for Input {
    fn from(d: Dataset) -> Input {
        let gold = d
            .sentences
            .iter()
            .map(|a| (a.sentence.id, a.gold.clone()))
            .collect();
        let sentences = d.sentences.into_iter().map(|a| a.sentence).collect();
        Input { sentences, gold }
    }
}

fn churn_input(world: &World, n: usize, seed: u64) -> Input {
    gen_churn_stream(
        world,
        n,
        CHURN_EVERY,
        "churn",
        &NoiseConfig::default(),
        seed,
    )
    .into()
}

/// A classifier over `in_dim` features that accepts every candidate (its
/// output bias is saturated), so classification costs what it costs but
/// never filters.
fn accept_all(in_dim: usize) -> EntityClassifier {
    let mut clf = EntityClassifier::new(in_dim, WORLD_SEED);
    let bias = clf.params_mut().into_iter().last().expect("output bias");
    bias.value.data[0] = 10.0;
    clf
}

fn windowed(window: usize) -> GlobalizerConfig {
    GlobalizerConfig {
        window: WindowConfig::sliding(window),
        ..Default::default()
    }
}

/// Exact-span mention F1 of the emitted sentences against gold.
fn mention_f1(out: &GlobalizerOutput, gold: &HashMap<SentenceId, Vec<Span>>) -> f64 {
    let (mut tp, mut fp, mut fneg) = (0usize, 0usize, 0usize);
    for (sid, pred) in &out.per_sentence {
        let g: HashSet<Span> = gold.get(sid).into_iter().flatten().copied().collect();
        let p: HashSet<Span> = pred.iter().copied().collect();
        tp += g.intersection(&p).count();
        fp += p.difference(&g).count();
        fneg += g.difference(&p).count();
    }
    let denom = 2 * tp + fp + fneg;
    if denom == 0 {
        0.0
    } else {
        2.0 * tp as f64 / denom as f64
    }
}

/// A cheap fingerprint of a set-up state, to check set-up repeats.
fn state_print(s: &GlobalizerState) -> (usize, usize, usize, usize, u64) {
    (
        s.tweetbase.len(),
        s.candidates.len(),
        s.ctrie.n_nodes(),
        s.n_dirty(),
        s.n_evicted(),
    )
}

/// State after feeding `stream` in `batch`-sized batches.
fn feed(g: &Globalizer, stream: &[Sentence], batch: usize) -> GlobalizerState {
    let mut st = g.new_state();
    for b in stream.chunks(batch) {
        g.process_batch(&mut st, b);
    }
    st
}

fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------------
// Episodes.

/// One timed pass over one stream's episode input.
struct Episode {
    stream: usize,
    sentences: usize,
    wall_s: f64,
    /// Per-batch latencies.
    batch_ms: Vec<f64>,
    /// `None` where `StreamSupervisor::run` hides the finalize call.
    finalize_ms: Option<f64>,
    phases: PhaseTimings,
    digest: u64,
    f1: f64,
    /// Sentences quarantined, dead-lettered or shed.
    failed: u64,
    /// Host slowness around the episode ([`Speed::factor`]).
    slowness: f64,
}

impl Episode {
    #[allow(clippy::too_many_arguments)]
    fn new(
        stream: usize,
        sentences: usize,
        wall_s: f64,
        batch_ms: Vec<f64>,
        finalize_ms: Option<f64>,
        phases: PhaseTimings,
        output: &GlobalizerOutput,
        gold: &HashMap<SentenceId, Vec<Span>>,
    ) -> Episode {
        Episode {
            stream,
            sentences,
            wall_s,
            batch_ms,
            finalize_ms,
            phases,
            digest: spans_digest(&output.per_sentence),
            f1: mention_f1(output, gold),
            failed: output.quarantined.len() as u64,
            slowness: 1.0,
        }
    }
}

/// Feed stream `j` to `state` batch by batch, timing each call, then
/// finalize on one thread, and score the output against `gold`.
fn timed_episode(
    g: &Globalizer,
    state: &mut GlobalizerState,
    j: usize,
    stream: &[Sentence],
    gold: &HashMap<SentenceId, Vec<Span>>,
    batch: usize,
) -> Episode {
    let before = state.timings().clone();
    let mut batch_ms = Vec::with_capacity(stream.len().div_ceil(batch));
    let mut busy = Duration::ZERO;
    for b in stream.chunks(batch) {
        let t0 = Instant::now();
        g.process_batch(state, b);
        let dt = t0.elapsed();
        busy += dt;
        batch_ms.push(dt.as_secs_f64() * 1e3);
    }
    let t0 = Instant::now();
    let output = g.finalize_with_threads(state, 1);
    let fin = t0.elapsed();
    Episode::new(
        j,
        stream.len(),
        (busy + fin).as_secs_f64(),
        batch_ms,
        Some(fin.as_secs_f64() * 1e3),
        layers::phase_delta(&before, state.timings()),
        &output,
        gold,
    )
}

/// The episodes of one run.
struct Log {
    streams: usize,
    episodes: Vec<Episode>,
}

impl Log {
    /// Mean over streams of each stream's median of `f`, so every stream
    /// weighs the same however many episodes it ran.
    fn stream_mean(&self, f: impl Fn(&Episode) -> f64) -> f64 {
        let mut per = vec![Vec::new(); self.streams];
        for e in &self.episodes {
            per[e.stream].push(f(e));
        }
        per.iter().map(|v| median(v)).sum::<f64>() / self.streams as f64
    }

    fn batch_ms(&self) -> Vec<f64> {
        self.episodes
            .iter()
            .flat_map(|e| e.batch_ms.iter().copied())
            .collect()
    }

    /// Each batch position's median over the repeats of its stream, scaled
    /// to the reference host.
    fn batch_ms_over_repeats(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for j in 0..self.streams {
            let reps: Vec<Vec<f64>> = self
                .episodes
                .iter()
                .filter(|e| e.stream == j)
                .map(|e| e.batch_ms.iter().map(|ms| ms / e.slowness).collect())
                .collect();
            let n = reps.iter().map(|r| r.len()).min().unwrap_or(0);
            out.extend((0..n).map(|k| median(&reps.iter().map(|r| r[k]).collect::<Vec<_>>())));
        }
        out
    }

    fn finalize_ms(&self) -> Vec<f64> {
        self.episodes.iter().filter_map(|e| e.finalize_ms).collect()
    }

    fn phases(&self) -> Vec<PhaseTimings> {
        self.episodes.iter().map(|e| e.phases.clone()).collect()
    }

    fn attempted(&self) -> u64 {
        self.episodes.iter().map(|e| e.sentences as u64).sum()
    }

    fn failed(&self) -> u64 {
        self.episodes.iter().map(|e| e.failed).sum()
    }
}

/// For each stream `j` in turn: `prepare(j)` (its set-up), then
/// `episode(j, &prepared)` until stream `j`'s share of `ctx.seconds` has
/// passed, and at least `min_repeats` times.
fn repeat<P>(
    ctx: &Ctx,
    streams: usize,
    min_repeats: usize,
    mut prepare: impl FnMut(usize) -> Result<P, String>,
    mut episode: impl FnMut(usize, &P) -> Result<Episode, String>,
) -> Result<Log, String> {
    let mut log = Log {
        streams,
        episodes: Vec::new(),
    };
    let t0 = Instant::now();
    for j in 0..streams {
        let prepared = prepare(j)?;
        let until = ctx.seconds * (j + 1) as f64 / streams as f64;
        let mut n = 0;
        while n < min_repeats || secs(t0) < until {
            let (e, _, speed) = Speed::around(|| episode(j, &prepared));
            log.episodes.push(Episode {
                slowness: speed.factor(),
                ..e?
            });
            n += 1;
        }
    }
    Ok(log)
}

/// The output-correctness gates every workload shares: episodes of one
/// stream agree with each other, and with every earlier run of this seed
/// in this checkout.
fn digest_gates(out: &mut Outcome, ctx: &Ctx, workload: &str, log: &Log) -> Result<(), String> {
    let mut per = vec![Vec::new(); log.streams];
    for e in &log.episodes {
        per[e.stream].push(e.digest);
    }
    out.gate(
        "episodes of a stream agree",
        per.iter().all(|d| d.windows(2).all(|w| w[0] == w[1])),
        format!(
            "{} episodes over {} streams",
            log.episodes.len(),
            log.streams
        ),
    );
    let now: String = per.iter().map(|d| format!("{:016x}\n", d[0])).collect();
    let dir = ctx.work.join("digests");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    // Keyed by every size of the scale, so resized inputs never compare
    // against an old record.
    let mut sizes = Fnv::new();
    sizes.bytes(format!("{:?}", ctx.scale).as_bytes());
    let sizes = sizes.finish();
    let path = dir.join(format!(
        "{workload}-{}-{}-{sizes:016x}",
        ctx.scale.name, ctx.seed
    ));
    match std::fs::read_to_string(&path) {
        Ok(prev) => out.gate(
            "repeats across runs of this seed",
            prev == now,
            format!("span digests recorded in {}", path.display()),
        ),
        Err(_) => {
            let tmp = path.with_extension("tmp");
            std::fs::write(&tmp, &now).map_err(|e| e.to_string())?;
            std::fs::rename(&tmp, &path).map_err(|e| e.to_string())?;
            out.gate(
                "repeats across runs of this seed",
                true,
                format!("first run; span digests recorded in {}", path.display()),
            );
        }
    }
    Ok(())
}

/// The end-to-end metrics, from the episodes and the set-up timings.
/// Batch latencies are per-position medians over repeats, so every run of
/// a workload has the same number of them and reports its tail at the
/// same percentile, however many repeats it ran.
fn end_to_end(out: &mut Outcome, log: &Log, setup_s: &[f64]) {
    let raw_sps: Vec<f64> = log
        .episodes
        .iter()
        .map(|e| e.sentences as f64 / e.wall_s)
        .collect();
    let sps: Vec<f64> = log
        .episodes
        .iter()
        .zip(&raw_sps)
        .map(|(e, r)| r * e.slowness)
        .collect();
    let slowness: Vec<f64> = log.episodes.iter().map(|e| e.slowness).collect();
    out.note(format!(
        "host: kernel {:.3} ms median against {KERNEL_REF_MS} ms reference; \
         unscaled throughput {:.0}/s",
        median(&slowness) * KERNEL_REF_MS,
        median(&raw_sps)
    ));
    out.metric_noted(
        "throughput_sps",
        "1/s",
        median(&sps),
        format!(
            "median of {} episodes over {} streams",
            sps.len(),
            log.streams
        ),
    );
    for j in 0..log.streams {
        let sps: Vec<String> = log
            .episodes
            .iter()
            .filter(|e| e.stream == j)
            .map(|e| format!("{:.0}", e.sentences as f64 / e.wall_s))
            .collect();
        out.note(format!(
            "stream {j}: sentences/s per episode {}",
            sps.join(" ")
        ));
    }
    let batch_ms = log.batch_ms_over_repeats();
    out.metric_noted(
        "batch_p50_ms",
        "ms",
        median(&batch_ms),
        format!("{} batches, each its median over repeats", batch_ms.len()),
    );
    match tail(&batch_ms) {
        Some(t) => out.metric_noted(
            "batch_tail_ms",
            "ms",
            t.value,
            format!("p{} of {} batches, {} beyond it", t.pct, t.n, t.beyond),
        ),
        None => out.metric_noted(
            "batch_tail_ms",
            "ms",
            f64::NAN,
            format!(
                "only {} batches: no percentile has 10 beyond it",
                batch_ms.len()
            ),
        ),
    }
    out.metric_noted(
        "setup_s",
        "s",
        median(setup_s),
        format!("median of {} set-ups", setup_s.len()),
    );
    out.metric("peak_rss_mb", "MB", host::peak_rss_mb());
    out.metric_noted(
        "mention_f1",
        "ratio",
        log.stream_mean(|e| e.f1),
        format!("mean over {} streams", log.streams),
    );
    let (attempted, failed) = (log.attempted(), log.failed());
    out.metric_noted(
        "served_ratio",
        "ratio",
        (attempted - failed) as f64 / attempted as f64,
        format!("{} of {attempted} sentences", attempted - failed),
    );
}

/// In the traced run: incremental finalize must equal the brute-force
/// full rescan on a copy of the same closing state.
fn finalize_gate(out: &mut Outcome, g: &Globalizer, closing: &GlobalizerState) {
    let inc = g.finalize_with_threads(&mut closing.clone(), 1);
    let full = g.finalize_full_rescan(&mut closing.clone());
    let (a, b) = (
        spans_digest(&inc.per_sentence),
        spans_digest(&full.per_sentence),
    );
    out.gate(
        "incremental finalize == full rescan",
        a == b,
        format!("{a:016x} vs {b:016x}"),
    );
}

/// `host.kernel_ms`: the host-speed kernel's median around the episodes.
/// Per-layer timings are not scaled; this says how fast the host ran.
fn host_kernel(out: &mut Outcome, log: &Log) {
    let slowness: Vec<f64> = log.episodes.iter().map(|e| e.slowness).collect();
    out.metric("host.kernel_ms", "ms", median(&slowness) * KERNEL_REF_MS);
}

/// Gate: every set-up of one stream produced the same fingerprint.
fn setup_gate<T: PartialEq + std::fmt::Debug>(out: &mut Outcome, prints: &BTreeMap<usize, Vec<T>>) {
    out.gate(
        "set-up repeats",
        prints.values().all(|p| p.windows(2).all(|w| w[0] == w[1])),
        format!(
            "{} set-ups over {} streams; first: {:?}",
            prints.values().map(Vec::len).sum::<usize>(),
            prints.len(),
            prints.values().next().and_then(|p| p.first())
        ),
    );
}

/// Traced-run probes on an episode replayed with the mention probe
/// between batches: finalize gate, then every layer on its closing state.
#[allow(clippy::too_many_arguments)]
fn direct_layers(
    out: &mut Outcome,
    ctx: &Ctx,
    g: &Globalizer,
    local: &dyn LocalEmd,
    phrase: Option<&PhraseEmbedder>,
    clf: &EntityClassifier,
    mut closing: GlobalizerState,
    timed: &[Sentence],
    batch: usize,
    restart: &GlobalizerState,
    log: &Log,
) -> Result<(), String> {
    let evicted0 = closing.n_evicted();
    let mut mentions = MentionProbe::default();
    for b in timed.chunks(batch) {
        g.process_batch(&mut closing, b);
        mentions.batch(&closing, b, g.config.max_candidate_len);
    }
    finalize_gate(out, g, &closing);
    host_kernel(out, log);
    layers::local(out, local, timed);
    layers::globalizer(out, &log.batch_ms(), &log.finalize_ms());
    layers::phases(out, &log.phases());
    mentions.report(out);
    layers::state(out, &closing, closing.n_evicted() - evicted0);
    layers::embed_and_classify(out, &closing, phrase, clf);
    layers::checkpoint(out, &ctx.work.join("probe"), restart, &closing)
}

// ---------------------------------------------------------------------
// churn-window

fn churn_window(ctx: &Ctx) -> Result<Outcome, String> {
    let sc = ctx.scale;
    let world = world();
    let chunker = NpChunker::new();
    let clf = accept_all(SyntacticClass::COUNT + 1);
    let g = Globalizer::new(&chunker, None, &clf, windowed(sc.window));
    let mut out = Outcome::default();

    // Per stream: generate it (untimed) and fill the window twice (the
    // set-up, timed); each episode then times the rest of the stream on a
    // copy of the filled state.
    let mut setup_s = Vec::new();
    let mut prints = BTreeMap::new();
    let prepare = |j: usize| {
        let input = churn_input(&world, sc.window + sc.churn_timed, ctx.stream_seed(j));
        let mut filled = None;
        for _ in 0..2 {
            let (state, dt, speed) =
                Speed::around(|| feed(&g, &input.sentences[..sc.window], sc.churn_batch));
            setup_s.push(dt / speed.factor());
            prints
                .entry(j)
                .or_insert_with(Vec::new)
                .push(state_print(&state));
            filled = Some(state);
        }
        Ok((input, filled.expect("filled")))
    };
    let episode = |j: usize, (input, filled): &(Input, GlobalizerState)| {
        Ok(timed_episode(
            &g,
            &mut filled.clone(),
            j,
            &input.sentences[sc.window..],
            &input.gold,
            sc.churn_batch,
        ))
    };
    let log = repeat(ctx, sc.churn_streams, sc.min_repeats, prepare, episode)?;
    setup_gate(&mut out, &prints);
    digest_gates(&mut out, ctx, "churn-window", &log)?;
    out.attempted = log.attempted();
    out.failed = log.failed();
    if !ctx.trace {
        end_to_end(&mut out, &log, &setup_s);
        return Ok(out);
    }

    let input = churn_input(&world, sc.window + sc.churn_timed, ctx.stream_seed(0));
    let (fill, timed) = input.sentences.split_at(sc.window);
    let filled = feed(&g, fill, sc.churn_batch);
    let restart = feed(&g, &input.sentences[..sc.prefix], sc.churn_batch);
    direct_layers(
        &mut out,
        ctx,
        &g,
        &chunker,
        None,
        &clf,
        filled,
        timed,
        sc.churn_batch,
        &restart,
        &log,
    )?;
    Ok(out)
}

// ---------------------------------------------------------------------
// deep-drift

/// Digest of a model's raw output on a few sentences: spans and the
/// bit patterns of the token embeddings.
fn model_print(model: &dyn LocalEmd, probe: &[Sentence]) -> u64 {
    let mut h = Fnv::new();
    for s in probe {
        let o = model.process(s);
        h.word(spans_digest(&[(s.id, o.spans)]));
        for v in o.token_embeddings.iter().flat_map(|m| m.data.iter()) {
            h.word(v.to_bits() as u64);
        }
    }
    h.finish()
}

fn deep_drift(ctx: &Ctx) -> Result<Outcome, String> {
    let sc = ctx.scale;
    let world = world();
    let (train_world, mut corpus) = generic_training_corpus(WORLD_SEED, 0.25);
    corpus.sentences.truncate(sc.deep_train);
    let inputs: Vec<Input> = (0..sc.deep_streams)
        .map(|j| {
            gen_drift_stream(
                &world,
                sc.deep_episode,
                DRIFT_EPOCH,
                "drift",
                &NoiseConfig::default(),
                ctx.stream_seed(j),
            )
            .into()
        })
        .collect();
    let mut out = Outcome::default();

    // Set-up: train the deep local system.
    let mut setup_s = Vec::new();
    let mut prints = BTreeMap::new();
    let mut model = None;
    for _ in 0..sc.deep_setups {
        let (m, dt, speed) = Speed::around(|| {
            let (mut m, _) = Aguilar::train(
                &corpus,
                train_world.gazetteer.clone(),
                &AguilarConfig {
                    epochs: 1,
                    ..Default::default()
                },
            );
            m.set_gazetteer(world.gazetteer.clone());
            m
        });
        setup_s.push(dt / speed.factor());
        let probe = &inputs[0].sentences[..sc.deep_batch];
        prints
            .entry(0)
            .or_insert_with(Vec::new)
            .push(model_print(&m, probe));
        model = Some(m);
    }
    setup_gate(&mut out, &prints);
    let model = model.ok_or("no set-up ran")?;

    let phrase = PhraseEmbedder::new(EMB_DIM, EMB_DIM, WORLD_SEED);
    let clf = accept_all(EMB_DIM + 1);
    let g = Globalizer::new(&model, Some(&phrase), &clf, GlobalizerConfig::default());
    let episode = |j: usize, input: &&Input| {
        Ok(timed_episode(
            &g,
            &mut g.new_state(),
            j,
            &input.sentences,
            &input.gold,
            sc.deep_batch,
        ))
    };
    let log = repeat(
        ctx,
        sc.deep_streams,
        sc.min_repeats,
        |j| Ok(&inputs[j]),
        episode,
    )?;
    digest_gates(&mut out, ctx, "deep-drift", &log)?;
    out.attempted = log.attempted();
    out.failed = log.failed();
    if !ctx.trace {
        end_to_end(&mut out, &log, &setup_s);
        return Ok(out);
    }

    let stream = &inputs[0].sentences;
    let restart = feed(&g, &stream[..sc.deep_prefix], sc.deep_batch);
    direct_layers(
        &mut out,
        ctx,
        &g,
        &model,
        Some(&phrase),
        &clf,
        g.new_state(),
        stream,
        sc.deep_batch,
        &restart,
        &log,
    )?;
    Ok(out)
}

// ---------------------------------------------------------------------
// supervised-churn

/// A pass-through local system that stamps the moment each batch's
/// first sentence reaches it. `StreamSupervisor::run` hides batch
/// boundaries; consecutive stamps are the batch-to-batch service time
/// the stream sees (state clone, processing, checkpoint write).
struct BatchClock<'a> {
    inner: &'a dyn LocalEmd,
    batch: u64,
    first_id: AtomicU64,
    stamps: Mutex<Vec<Instant>>,
}

impl<'a> BatchClock<'a> {
    fn new(inner: &'a dyn LocalEmd, batch: usize) -> Self {
        BatchClock {
            inner,
            batch: batch as u64,
            first_id: AtomicU64::new(0),
            stamps: Mutex::new(Vec::new()),
        }
    }

    /// Start a stream whose first sentence has tweet id `first_id`.
    fn reset(&self, first_id: u64) {
        self.first_id.store(first_id, Ordering::Relaxed);
        self.stamps.lock().expect("clock lock").clear();
    }

    /// Milliseconds between consecutive batch starts.
    fn intervals_ms(&self) -> Vec<f64> {
        let s = self.stamps.lock().expect("clock lock");
        s.windows(2)
            .map(|w| w[1].duration_since(w[0]).as_secs_f64() * 1e3)
            .collect()
    }
}

impl LocalEmd for BatchClock<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn embedding_dim(&self) -> Option<usize> {
        self.inner.embedding_dim()
    }

    fn process(&self, sentence: &Sentence) -> LocalEmdOutput {
        let pos = sentence
            .id
            .tweet_id
            .wrapping_sub(self.first_id.load(Ordering::Relaxed));
        if sentence.id.sent_id == 0 && pos.is_multiple_of(self.batch) {
            self.stamps.lock().expect("clock lock").push(Instant::now());
        }
        self.inner.process(sentence)
    }
}

/// The monitored production stack: a default sentinel and a detached,
/// recording obs scope.
fn monitored<'a>(
    local: &'a dyn LocalEmd,
    clf: &'a EntityClassifier,
    window: usize,
) -> Globalizer<'a> {
    let mut g = Globalizer::new(local, None, clf, windowed(window));
    g.set_scope(&emd_obs::Scope::detached(&[(
        "workload",
        "supervised-churn",
    )]));
    g.set_sentinel(Sentinel::with_defaults());
    g
}

fn supervisor_config(sc: &Scale, path: &Path) -> SupervisorConfig {
    SupervisorConfig {
        checkpoint_path: Some(path.to_path_buf()),
        checkpoint_every: sc.checkpoint_every,
        checkpoint_generations: GENERATIONS,
        batch_size: sc.supervised_batch,
        ..Default::default()
    }
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

fn supervised_churn(ctx: &Ctx) -> Result<Outcome, String> {
    let sc = ctx.scale;
    let world = world();
    let inputs: Vec<Input> = (0..sc.supervised_streams)
        .map(|j| {
            churn_input(
                &world,
                sc.prefix + sc.supervised_episode,
                ctx.stream_seed(j),
            )
        })
        .collect();
    let chunker = NpChunker::new();
    let clock = BatchClock::new(&chunker, sc.supervised_batch);
    let clf = accept_all(SyntacticClass::COUNT + 1);
    let mut out = Outcome::default();
    let base = ctx.work.join(format!("supervised-{}", std::process::id()));
    emd_obs::set_enabled(true);

    // Per stream: an untimed prefix run writes a ladder; the set-up is a
    // restart on it — restore, skip the covered batches, finalize — whose
    // output must match the prefix run's bit for bit.
    let ladder = |j: usize| base.join(format!("ladder-{j}")).join("state.ckpt");
    let mut setup_s = Vec::new();
    let prepare = |j: usize| {
        let prefix = &inputs[j].sentences[..sc.prefix];
        fresh_dir(ladder(j).parent().expect("ladder dir"))?;
        let cfg = supervisor_config(sc, &ladder(j));
        let g = monitored(&clock, &clf, sc.window);
        let first = StreamSupervisor::new(&g, cfg.clone()).run(prefix);
        let want = spans_digest(&first.output.per_sentence);
        let g = monitored(&clock, &clf, sc.window);
        let (r, dt, speed) = Speed::around(|| StreamSupervisor::new(&g, cfg).run(prefix));
        setup_s.push(dt / speed.factor());
        let got = spans_digest(&r.output.per_sentence);
        out.gate(
            format!("stream {j}: restart == prefix run"),
            first.checkpoints_written >= 1
                && r.resumed_from_checkpoint
                && r.batches_skipped == r.batches_total
                && got == want,
            format!(
                "{} checkpoints written; restart resumed={} skipped {}/{} batches, \
                 digest {got:016x} vs {want:016x}",
                first.checkpoints_written,
                r.resumed_from_checkpoint,
                r.batches_skipped,
                r.batches_total
            ),
        );
        Ok(())
    };

    // A supervised episode fills the whole window, so one per stream.
    let episode_dir = base.join("episode");
    let episode = |j: usize, _: &()| {
        let timed = &inputs[j].sentences[sc.prefix..];
        fresh_dir(&episode_dir)?;
        let g = monitored(&clock, &clf, sc.window);
        let sup = StreamSupervisor::new(&g, supervisor_config(sc, &episode_dir.join("state.ckpt")));
        clock.reset(timed[0].id.tweet_id);
        let t0 = Instant::now();
        let r = sup.run(timed);
        let wall_s = secs(t0);
        Ok(Episode::new(
            j,
            timed.len(),
            wall_s,
            clock.intervals_ms(),
            None,
            r.output.phase_timings.clone(),
            &r.output,
            &inputs[j].gold,
        ))
    };
    let log = repeat(ctx, sc.supervised_streams, 1, prepare, episode)?;
    digest_gates(&mut out, ctx, "supervised-churn", &log)?;
    out.attempted = log.attempted();
    out.failed = log.failed();

    if ctx.trace {
        let timed = &inputs[0].sentences[sc.prefix..];
        supervised_layers(
            &mut out,
            ctx,
            &chunker,
            &clf,
            timed,
            &log,
            &base,
            &ladder(0),
        )?;
    } else {
        end_to_end(&mut out, &log, &setup_s);
    }
    emd_obs::set_enabled(false);
    std::fs::remove_dir_all(&base).map_err(|e| format!("{}: {e}", base.display()))?;
    Ok(out)
}

/// The supervisor's batch loop taken apart through public calls: clone
/// the state, process the batch on the clone, compact and checkpoint on
/// schedule; then the restart probe on the prefix ladder.
#[allow(clippy::too_many_arguments)]
fn supervised_layers(
    out: &mut Outcome,
    ctx: &Ctx,
    local: &dyn LocalEmd,
    clf: &EntityClassifier,
    timed: &[Sentence],
    log: &Log,
    base: &Path,
    ladder: &Path,
) -> Result<(), String> {
    let sc = ctx.scale;
    let g = monitored(local, clf, sc.window);
    let dir = base.join("decomposed");
    fresh_dir(&dir)?;
    let path = dir.join("state.ckpt");
    let mut state = g.new_state();
    let mut mentions = MentionProbe::default();
    let (mut batch_ms, mut clone_ms) = (Vec::new(), Vec::new());
    let batches: Vec<&[Sentence]> = timed.chunks(sc.supervised_batch).collect();
    for (i, b) in batches.iter().enumerate() {
        let t0 = Instant::now();
        let mut trial = state.clone();
        clone_ms.push(secs(t0) * 1e3);
        let t0 = Instant::now();
        g.process_batch(&mut trial, b);
        batch_ms.push(secs(t0) * 1e3);
        state = trial;
        mentions.batch(&state, b, g.config.max_candidate_len);
        if (i + 1) % sc.checkpoint_every == 0 || i + 1 == batches.len() {
            state.compact();
            emd_resilience::checkpoint::save_generations(
                &path,
                (i + 1) as u64,
                &state,
                GENERATIONS,
            )
            .map_err(|e| e.to_string())?;
        }
    }
    finalize_gate(out, &g, &state);
    let t0 = Instant::now();
    g.finalize_with_threads(&mut state.clone(), 1);
    let finalize_ms = [secs(t0) * 1e3];

    host_kernel(out, log);
    layers::local(out, local, timed);
    layers::globalizer(out, &batch_ms, &finalize_ms);
    layers::phases(out, &log.phases());
    mentions.report(out);
    layers::state(out, &state, state.n_evicted());
    out.note(format!(
        "decomposed supervisor: per-batch clone {:.1} ms median over {} batches",
        median(&clone_ms),
        clone_ms.len()
    ));
    layers::embed_and_classify(out, &state, None, clf);

    // The restart probe: the very state a restart restores from the
    // prefix ladder, saved and loaded again.
    let (restored, _) =
        emd_resilience::checkpoint::load_chain::<GlobalizerState>(ladder, GENERATIONS);
    let (_, restart, _) = restored.ok_or("prefix ladder did not restore")?;
    layers::checkpoint(out, &dir.join("probe"), &restart, &state)
}
