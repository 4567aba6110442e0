//! Report generators: one function per table/figure, shared by the
//! standalone binaries and `run_all`.

use crate::{
    build_hire, evaluate_cell, evaluate_hire, run_variant, CellResult, Suite, SystemKind, Variant,
};
use emd_core::config::Ablation;
use emd_eval::error_analysis::analyze;
use emd_eval::freq_bins::entity_recall_by_frequency;
use emd_eval::metrics::mention_prf;
use emd_eval::paper_ref;
use emd_eval::tables::{f2, pct, TextTable};
use emd_synth::datasets::{standard_datasets, stats};
use emd_text::token::DatasetKind;

/// Table I: dataset statistics (always at full scale — generation is cheap).
pub fn table1() -> String {
    let mut out =
        String::from("Table I: Twitter datasets (synthetic regeneration, full scale)\n\n");
    let suite = standard_datasets(crate::SEED, 1.0);
    let (_, d5) = emd_synth::datasets::training_stream(crate::SEED, 1.0);
    let mut t = TextTable::new([
        "Dataset",
        "#Topics",
        "#Hashtags",
        "#Entities",
        "#Mentions",
        "Size",
    ]);
    for d in suite.datasets.iter().chain(std::iter::once(&d5)) {
        let s = stats(d);
        let topics = if d.kind == DatasetKind::NonStreaming {
            "per-msg".to_string()
        } else {
            s.n_topics.to_string()
        };
        t.row([
            s.name.clone(),
            topics,
            s.n_hashtags.to_string(),
            s.n_entities.to_string(),
            s.n_mentions.to_string(),
            s.size.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("\nPaper reference sizes: D1=1K, D2=2K, D3=3K, D4=6K, D5=38K, WNUT17≈1287 entities, BTC≈9553 entities.\n");
    out
}

/// Table II: classifier validation F1 per variant.
pub fn table2(variants: &[Variant]) -> String {
    let mut out = String::from("Table II: Validation performance of the Entity Classifier\n\n");
    let mut t = TextTable::new([
        "Local EMD",
        "System Type",
        "Embedding Size",
        "Validation F1",
        "Paper F1",
    ]);
    for v in variants {
        let (ty, paper) = paper_ref::TABLE2
            .iter()
            .find(|(n, _, _, _)| *n == v.kind.name())
            .map(|(_, ty, _, f)| (*ty, *f))
            .unwrap_or(("?", 0.0));
        t.row([
            v.kind.name().to_string(),
            ty.to_string(),
            format!("{}+1", v.embedding_dim),
            format!("{:.3}", v.classifier_report.best_val_f1),
            format!("{paper:.3}"),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Table III: effectiveness and execution time for every (dataset, system)
/// cell. Returns the rendered report and the raw cells.
pub fn table3(suite: &Suite, variants: &[Variant]) -> (String, Vec<CellResult>) {
    let mut cells = Vec::new();
    let mut t = TextTable::new([
        "Dataset",
        "System",
        "L-P",
        "L-R",
        "L-F1",
        "L-time(s)",
        "G-P",
        "G-R",
        "G-F1",
        "G-time(s)",
        "F1 Gain",
        "Overhead(s)",
        "Paper L-F1",
        "Paper G-F1",
    ]);
    for d in &suite.std.datasets {
        for v in variants {
            let cell = evaluate_cell(v, d);
            let paper = paper_ref::TABLE3
                .iter()
                .find(|r| r.dataset == d.name && r.system == v.kind.name());
            t.row([
                d.name.clone(),
                v.kind.name().to_string(),
                f2(cell.local.p),
                f2(cell.local.r),
                f2(cell.local.f1),
                format!("{:.2}", cell.local_secs),
                f2(cell.global.p),
                f2(cell.global.r),
                f2(cell.global.f1),
                format!("{:.2}", cell.global_secs),
                pct(cell.gain()),
                format!("{:.2}", cell.overhead()),
                paper.map(|r| f2(r.local.2)).unwrap_or_default(),
                paper.map(|r| f2(r.global.2)).unwrap_or_default(),
            ]);
            cells.push(cell);
        }
    }
    let mut out =
        String::from("Table III: Effectiveness and execution time with EMD Globalizer\n\n");
    out.push_str(&t.render());

    // Aggregates (the §VI headline claims).
    let agg = |filter: &dyn Fn(&CellResult) -> bool| -> f64 {
        let xs: Vec<f64> = cells
            .iter()
            .filter(|c| filter(c))
            .map(|c| c.gain())
            .collect();
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    let streaming = |c: &CellResult| c.dataset.starts_with('D');
    out.push_str(&format!(
        "\nAverage F1 gain, all datasets     : {} (paper: {})\n",
        pct(agg(&|_| true)),
        pct(paper_ref::claims::AVG_GAIN_ALL)
    ));
    out.push_str(&format!(
        "Average F1 gain, streaming (D1-D4): {} (paper: {})\n",
        pct(agg(&streaming)),
        pct(paper_ref::claims::AVG_GAIN_STREAMING)
    ));
    out.push_str(&format!(
        "Average F1 gain, non-streaming    : {} (paper: {})\n",
        pct(agg(&|c| !streaming(c))),
        pct(paper_ref::claims::AVG_GAIN_NON_STREAMING)
    ));
    for kind in SystemKind::all() {
        out.push_str(&format!(
            "Average F1 gain, {:<15}  : {}\n",
            kind.name(),
            pct(agg(&|c| c.system == kind.name()))
        ));
    }

    // Incremental-finalize statistics: how much of each stream the
    // inverted-index close-of-stream rescan actually revisits, and how
    // many candidates adjacent-fragment promotion recovered.
    let total_sentences: usize = cells.iter().map(|c| c.n_sentences).sum();
    let total_rescanned: usize = cells.iter().map(|c| c.n_rescanned).sum();
    let total_promoted: usize = cells.iter().map(|c| c.n_promoted).sum();
    out.push_str(&format!(
        "\nClosing rescan (incremental finalize): {total_rescanned} of {total_sentences} sentences revisited ({}), {total_promoted} candidates promoted from adjacent fragments\n",
        pct(if total_sentences > 0 {
            total_rescanned as f64 / total_sentences as f64
        } else {
            0.0
        }),
    ));
    (out, cells)
}

/// Table IV: EMD Globalizer (Aguilar variant) vs HIRE-NER.
pub fn table4(suite: &Suite, aguilar: &Variant) -> String {
    let hire = build_hire(suite);
    let mut t = TextTable::new([
        "Dataset", "System", "P", "R", "F1", "Paper P", "Paper R", "Paper F1",
    ]);
    for d in &suite.std.datasets {
        let (preds, _, _, _) = run_variant(aguilar, d, Ablation::Full);
        let g = mention_prf(d, &preds);
        let h = evaluate_hire(&hire, d);
        let paper = paper_ref::TABLE4.iter().find(|r| r.dataset == d.name);
        t.row([
            d.name.clone(),
            "EMD Globalizer".to_string(),
            f2(g.p),
            f2(g.r),
            f2(g.f1),
            paper.map(|r| f2(r.globalizer.0)).unwrap_or_default(),
            paper.map(|r| f2(r.globalizer.1)).unwrap_or_default(),
            paper.map(|r| f2(r.globalizer.2)).unwrap_or_default(),
        ]);
        t.row([
            String::new(),
            "HIRE-NER".to_string(),
            f2(h.p),
            f2(h.r),
            f2(h.f1),
            paper.map(|r| f2(r.hire.0)).unwrap_or_default(),
            paper.map(|r| f2(r.hire.1)).unwrap_or_default(),
            paper.map(|r| f2(r.hire.2)).unwrap_or_default(),
        ]);
    }
    let mut out = String::from(
        "Table IV: Effectiveness of Global EMD systems (Aguilar variant vs HIRE-NER)\n\n",
    );
    out.push_str(&t.render());
    out
}

/// Figure 6: component ablation on the streaming datasets (Aguilar variant).
pub fn fig6(suite: &Suite, aguilar: &Variant) -> String {
    let mut t = TextTable::new([
        "Dataset",
        "Local only",
        "+Mention extraction",
        "Full framework",
    ]);
    let mut gains_mention = Vec::new();
    let mut gains_full = Vec::new();
    for d in &suite.std.datasets {
        if !d.name.starts_with('D') {
            continue;
        }
        let f1_of = |ablation| {
            let (preds, _, _, _) = run_variant(aguilar, d, ablation);
            mention_prf(d, &preds).f1
        };
        let local = f1_of(Ablation::LocalOnly);
        let mention = f1_of(Ablation::MentionExtraction);
        let full = f1_of(Ablation::Full);
        if local > 0.0 {
            gains_mention.push((mention - local) / local);
            gains_full.push((full - local) / local);
        }
        t.row([d.name.clone(), f2(local), f2(mention), f2(full)]);
    }
    let mut out = String::from(
        "Figure 6: Impact of framework components on performance (Aguilar variant, D1-D4)\n\n",
    );
    out.push_str(&t.render());
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    out.push_str(&format!(
        "\nMention-extraction-only avg gain: {} (paper: {})\n",
        pct(mean(&gains_mention)),
        pct(paper_ref::claims::FIG6_MENTION_ONLY_GAIN)
    ));
    out.push_str(&format!(
        "Full-framework avg gain         : {} (paper: {})\n",
        pct(mean(&gains_full)),
        pct(paper_ref::claims::FIG6_FULL_GAIN)
    ));
    out
}

/// Figure 7: entity detection recall vs mention frequency (BERTweet
/// variant, streaming datasets, bins of width 5).
pub fn fig7(suite: &Suite, bert: &Variant) -> String {
    // Sum bins across the streaming datasets.
    let mut merged: Vec<(usize, usize, usize, usize)> = Vec::new(); // lo, hi, ents, detected
    for d in &suite.std.datasets {
        if !d.name.starts_with('D') {
            continue;
        }
        let (preds, _, _, _) = run_variant(bert, d, Ablation::Full);
        for b in entity_recall_by_frequency(d, &preds, 5) {
            let idx = (b.lo - 1) / 5;
            if merged.len() <= idx {
                merged.resize(idx + 1, (0, 0, 0, 0));
            }
            let slot = &mut merged[idx];
            slot.0 = b.lo;
            slot.1 = b.hi;
            slot.2 += b.n_entities;
            slot.3 += b.n_detected;
        }
    }
    let mut t = TextTable::new(["Mention freq", "#Entities", "#Detected", "Recall"]);
    for (lo, hi, n, det) in merged.iter().filter(|m| m.2 > 0) {
        let rec = *det as f64 / *n as f64;
        t.row([
            format!("{lo}-{hi}"),
            n.to_string(),
            det.to_string(),
            f2(rec),
        ]);
    }
    let mut out = String::from(
        "Figure 7: Impact of mention frequency on detecting entities (BERTweet variant, D1-D4)\n\n",
    );
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nPaper: recall ≈ {} for entities with ≤5 mentions, rising to ~1.0 for frequent entities.\n",
        paper_ref::claims::FIG7_LOW_FREQ_RECALL
    ));
    out
}

/// §VI-C error analysis (BERTweet variant, streaming datasets).
pub fn error_analysis(suite: &Suite, bert: &Variant) -> String {
    let mut total = emd_eval::error_analysis::ErrorBreakdown::default();
    for d in &suite.std.datasets {
        if !d.name.starts_with('D') {
            continue;
        }
        let (_, _, state, _) = run_variant(bert, d, Ablation::Full);
        let e = analyze(d, &state);
        total.total_mentions += e.total_mentions;
        total.total_entities += e.total_entities;
        total.entities_never_candidate += e.entities_never_candidate;
        total.mentions_unrecoverable += e.mentions_unrecoverable;
        total.entities_classifier_fn += e.entities_classifier_fn;
        total.mentions_classifier_fn += e.mentions_classifier_fn;
    }
    let mut out = String::from("Error analysis (§VI-C), BERTweet variant over D1-D4:\n\n");
    out.push_str(&format!(
        "Gold mentions: {}   gold entities: {}\n",
        total.total_mentions, total.total_entities
    ));
    out.push_str(&format!(
        "Unrecoverable (local EMD missed every mention of the entity): {} mentions of {} entities = {} (paper: {})\n",
        total.mentions_unrecoverable,
        total.entities_never_candidate,
        pct(total.unrecoverable_rate()),
        pct(paper_ref::claims::UNRECOVERABLE_RATE)
    ));
    out.push_str(&format!(
        "Classifier false negatives: {} mentions of {} entities = {} (paper: {})\n",
        total.mentions_classifier_fn,
        total.entities_classifier_fn,
        pct(total.classifier_fn_rate()),
        pct(paper_ref::claims::CLASSIFIER_FN_RATE)
    ));
    out
}
