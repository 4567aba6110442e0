//! # emd-sentinel
//!
//! Windowed quality telemetry, streaming drift detection, and per-stream
//! health for the EMD Globalizer pipeline — the "is this stream getting
//! worse *right now*?" layer that cumulative `emd-obs` counters and
//! after-the-fact `emd-trace` provenance cannot answer.
//!
//! Three pieces, layered:
//!
//! * **Windowed series** ([`window`], [`series`]) — every pipeline batch
//!   contributes one [`BatchObservation`] of raw counts, which derives a
//!   catalog of decision-quality series ([`SeriesId`]): promotion rate,
//!   classifier score mean, accept/reject ratios, quarantine + degraded
//!   fallback rates, candidate churn, eviction pressure, per-batch
//!   latency. Each series keeps a ring-buffered sliding window (mean,
//!   min/max, exact quantiles) plus an EWMA.
//! * **Change detectors** ([`detect`]) — Page–Hinkley and an ADWIN-style
//!   adaptive-window detector watch configured series and flag
//!   distribution shifts; both are proptest-pinned to brute-force
//!   reference implementations.
//! * **Health state machine** ([`health`]) — declarative threshold /
//!   drift rules reduce to a per-batch severity that drives a
//!   Healthy → Degraded → Critical machine with hysteresis and flap
//!   suppression.
//! * **SLO burn-rate engine** ([`slo`]) — declarative objectives ("p99
//!   batch latency < X", "quarantine ratio < Y") evaluated as
//!   multi-window burn rates (fast 5-batch confirmation / slow 60-batch
//!   significance) that press the health machine and surface as
//!   [`SloBurn`] events the pipeline mirrors into the trace.
//!
//! The [`Sentinel`] owns all three. It is deliberately *passive*: it
//! never touches pipeline state, so monitored and unmonitored runs are
//! bit-identical (proptest-enforced from the pipeline side), and it is
//! pure scalar math — no clocks, no I/O, no global state. Exports reuse
//! the `emd-obs` [`Snapshot`](emd_obs::Snapshot) type, so windowed
//! series ride the same Prometheus/JSON exporters as the cumulative
//! metrics.

pub mod detect;
pub mod health;
pub mod series;
pub mod slo;
pub mod window;

pub use detect::{Adwin, AdwinConfig, Detection, PageHinkley, PhConfig, PhDirection};
pub use health::{Condition, HealthMachine, HealthPolicy, HealthState, Rule, Severity, Transition};
pub use series::SeriesId;
pub use slo::{SloObjective, SloSpec, SloStatus};
pub use window::{Ewma, SeriesWindow};

use slo::SloTracker;

use serde::{Deserialize, Serialize};

/// Raw counts from one pipeline batch (or the closing finalize pass).
/// All fields are plain accumulators the pipeline increments in its
/// sequential apply sections; the sentinel derives per-sentence rates
/// and ratios from them (see [`SeriesId`] for the normalization rules).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchObservation {
    /// Causal batch sequence number (finalize reuses the last batch's).
    pub batch: u64,
    /// Sentences processed this batch.
    pub sentences: u64,
    /// Local-EMD spans ingested.
    pub local_spans: u64,
    /// Brand-new candidate phrases registered in the trie.
    pub trie_inserts: u64,
    /// Candidate-occurrence mentions found by the scan.
    pub scan_mentions: u64,
    /// Mentions pooled into candidate embeddings.
    pub pooled: u64,
    /// Candidates scored by the entity classifier.
    pub scored: u64,
    /// Scored candidates labelled Entity.
    pub accepted: u64,
    /// Scored candidates labelled NonEntity.
    pub rejected: u64,
    /// Scored candidates labelled Ambiguous.
    pub ambiguous: u64,
    /// Sum of classifier scores over scored candidates.
    pub score_sum: f64,
    /// Sentences quarantined.
    pub quarantined: u64,
    /// Candidates that fell back to degraded (local-only) handling.
    pub degraded: u64,
    /// Sentences evicted by window enforcement.
    pub evicted: u64,
    /// Cold candidates pruned.
    pub pruned: u64,
    /// Adjacent-fragment promotions (finalize only).
    pub promoted: u64,
    /// Sentences shed by the admission gate before this batch ran
    /// (overload pressure; zero in unguarded runs).
    pub shed: u64,
    /// Wall-clock nanoseconds spent on the batch: the sum of its
    /// top-level phase readings (finalize's own reading when closing).
    pub latency_ns: u64,
}

impl BatchObservation {
    /// Derive the series samples this observation contributes. Series
    /// whose denominator is zero contribute nothing (no misleading 0s).
    pub fn samples(&self) -> Vec<(SeriesId, f64)> {
        let mut out = Vec::with_capacity(SeriesId::ALL.len());
        if self.sentences == 0 {
            return out;
        }
        let n = self.sentences as f64;
        out.push((SeriesId::BatchLatencyNs, self.latency_ns as f64));
        out.push((SeriesId::LocalSpanRate, self.local_spans as f64 / n));
        out.push((SeriesId::MentionRate, self.scan_mentions as f64 / n));
        out.push((SeriesId::NewCandidateRate, self.trie_inserts as f64 / n));
        out.push((SeriesId::QuarantineRate, self.quarantined as f64 / n));
        out.push((SeriesId::EvictionRate, self.evicted as f64 / n));
        out.push((SeriesId::PruneRate, self.pruned as f64 / n));
        out.push((SeriesId::PromotionRate, self.promoted as f64 / n));
        out.push((SeriesId::ShedRate, self.shed as f64 / n));
        if self.scored > 0 {
            let s = self.scored as f64;
            out.push((SeriesId::ScoreMean, self.score_sum / s));
            out.push((SeriesId::AcceptRatio, self.accepted as f64 / s));
            out.push((SeriesId::RejectRatio, self.rejected as f64 / s));
            out.push((SeriesId::DegradedRate, self.degraded as f64 / s));
        }
        out
    }
}

/// A change detector attached to one series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DetectorKind {
    /// Page–Hinkley with the given parameters.
    PageHinkley(PhConfig),
    /// ADWIN-style adaptive window with the given parameters.
    Adwin(AdwinConfig),
}

/// Binds a [`DetectorKind`] to the [`SeriesId`] it watches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorSpec {
    /// The series fed to the detector.
    pub series: SeriesId,
    /// The detector and its parameters.
    pub detector: DetectorKind,
}

/// Sentinel construction parameters.
#[derive(Debug, Clone)]
pub struct SentinelConfig {
    /// Sliding-window capacity per series (batches).
    pub window: usize,
    /// EWMA smoothing factor.
    pub ewma_alpha: f64,
    /// Batches a drift detection keeps its rule "pressed" after firing.
    /// Detections are impulsive (the detector resets), but escalation
    /// needs `trip_after` consecutive pressure — the hold bridges the
    /// two. Must be ≥ `policy.trip_after` for drift rules to escalate.
    pub drift_hold: u32,
    /// Change detectors to run.
    pub detectors: Vec<DetectorSpec>,
    /// Health rules + hysteresis knobs.
    pub policy: HealthPolicy,
    /// Declarative SLOs evaluated as multi-window burn rates (see
    /// [`slo`]). Firing SLOs press their severity into the health
    /// machine alongside the rules.
    pub slos: Vec<SloSpec>,
}

impl Default for SentinelConfig {
    fn default() -> Self {
        SentinelConfig {
            window: 64,
            ewma_alpha: 0.3,
            drift_hold: 4,
            detectors: vec![
                DetectorSpec {
                    series: SeriesId::ScoreMean,
                    detector: DetectorKind::PageHinkley(PhConfig {
                        delta: 0.01,
                        lambda: 0.5,
                        warmup: 16,
                        direction: PhDirection::Both,
                    }),
                },
                DetectorSpec {
                    series: SeriesId::NewCandidateRate,
                    detector: DetectorKind::Adwin(AdwinConfig::default()),
                },
            ],
            policy: HealthPolicy {
                rules: vec![
                    Rule::drift(SeriesId::ScoreMean, Severity::Degraded),
                    Rule::drift(SeriesId::NewCandidateRate, Severity::Degraded),
                    Rule::above(SeriesId::QuarantineRate, 0.5, Severity::Critical),
                ],
                ..HealthPolicy::default()
            },
            slos: Vec::new(),
        }
    }
}

/// Why an alert fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlertKind {
    /// A change detector fired.
    Drift,
    /// A threshold rule's windowed mean rose above its limit.
    Above,
    /// A threshold rule's windowed mean fell below its limit.
    Below,
    /// An SLO's fast and slow burn rates both crossed the threshold.
    SloBurn,
}

/// One alert raised by the sentinel. Drift alerts fire on every
/// detection; threshold alerts fire only on the violation's rising edge
/// (so a sustained breach is one alert, not one per batch).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Alert {
    /// Batch sequence number the alert fired on.
    pub batch: u64,
    /// The offending series.
    pub series: SeriesId,
    /// Severity the alert presses toward.
    pub severity: Severity,
    /// Drift / Above / Below.
    pub kind: AlertKind,
    /// Observed statistic (detector stat, or the windowed mean).
    pub value: f64,
    /// Threshold it crossed (detector threshold, or the rule limit).
    pub threshold: f64,
    /// Human-readable window stats / rule description.
    pub detail: String,
}

/// One batch of a firing SLO: both burn rates are at or above the
/// spec's threshold. Emitted for *every* firing batch (not just the
/// rising edge) so the trace mirror reconstructs the full burn interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloBurn {
    /// Batch sequence number.
    pub batch: u64,
    /// The SLO's name.
    pub name: String,
    /// Burn rate over the fast window.
    pub burn_fast: f64,
    /// Burn rate over the slow window.
    pub burn_slow: f64,
    /// The threshold both rates crossed.
    pub threshold: f64,
    /// Severity pressed into the health machine.
    pub severity: Severity,
}

/// What one [`Sentinel::observe`] call produced.
#[derive(Debug, Clone, Default)]
pub struct Observed {
    /// Alerts raised this batch (drift + threshold/SLO rising edges).
    pub alerts: Vec<Alert>,
    /// Health transition taken this batch, if any.
    pub transition: Option<Transition>,
    /// SLOs firing this batch (one entry per firing SLO, every batch).
    pub slo_burns: Vec<SloBurn>,
}

/// End-of-run health summary (surfaced on `RunReport::health`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    /// Final health state.
    pub state: HealthState,
    /// Observations folded in.
    pub batches: u64,
    /// Total alerts raised.
    pub alerts_total: u64,
    /// Total drift detections.
    pub drift_total: u64,
    /// Total firing SLO batch-events (see [`SloBurn`]).
    pub slo_burn_total: u64,
    /// Every state change, in order.
    pub transitions: Vec<Transition>,
}

enum DetectorImpl {
    Ph(PageHinkley),
    Adwin(Adwin),
}

impl DetectorImpl {
    fn push(&mut self, x: f64) -> Option<Detection> {
        match self {
            DetectorImpl::Ph(d) => d.push(x),
            DetectorImpl::Adwin(d) => d.push(x),
        }
    }
}

/// The live monitor for one stream: windowed series + detectors + health
/// machine. Feed it one [`BatchObservation`] per batch via
/// [`observe`](Sentinel::observe); read the verdict from
/// [`report`](Sentinel::report) or export windowed series with
/// [`snapshot`](Sentinel::snapshot).
pub struct Sentinel {
    window_cap: usize,
    ewma_alpha: f64,
    drift_hold: u32,
    windows: Vec<SeriesWindow>,
    ewmas: Vec<Ewma>,
    detectors: Vec<(SeriesId, DetectorImpl)>,
    rules: Vec<Rule>,
    rule_violated: Vec<bool>,
    /// Remaining "pressed" batches per series after a drift detection.
    drift_pressed: Vec<u32>,
    machine: HealthMachine,
    slo_trackers: Vec<SloTracker>,
    slo_burned: Vec<bool>,
    batches: u64,
    alerts_total: u64,
    drift_total: u64,
    slo_burn_total: u64,
    transitions: Vec<Transition>,
}

impl Sentinel {
    /// Build a sentinel from its config.
    pub fn new(cfg: SentinelConfig) -> Self {
        let detectors = cfg
            .detectors
            .iter()
            .map(|spec| {
                let imp = match spec.detector {
                    DetectorKind::PageHinkley(c) => DetectorImpl::Ph(PageHinkley::new(c)),
                    DetectorKind::Adwin(c) => DetectorImpl::Adwin(Adwin::new(c)),
                };
                (spec.series, imp)
            })
            .collect();
        Sentinel {
            window_cap: cfg.window.max(1),
            ewma_alpha: cfg.ewma_alpha,
            drift_hold: cfg.drift_hold.max(1),
            drift_pressed: vec![0; SeriesId::ALL.len()],
            windows: SeriesId::ALL
                .iter()
                .map(|_| SeriesWindow::new(cfg.window.max(1)))
                .collect(),
            ewmas: SeriesId::ALL
                .iter()
                .map(|_| Ewma::new(cfg.ewma_alpha))
                .collect(),
            detectors,
            rule_violated: vec![false; cfg.policy.rules.len()],
            machine: HealthMachine::new(&cfg.policy),
            rules: cfg.policy.rules.clone(),
            slo_burned: vec![false; cfg.slos.len()],
            slo_trackers: cfg.slos.into_iter().map(SloTracker::new).collect(),
            batches: 0,
            alerts_total: 0,
            drift_total: 0,
            slo_burn_total: 0,
            transitions: Vec::new(),
        }
    }

    /// A sentinel with the default catalog, detectors, and policy.
    pub fn with_defaults() -> Self {
        Sentinel::new(SentinelConfig::default())
    }

    fn idx(series: SeriesId) -> usize {
        SeriesId::ALL
            .iter()
            .position(|s| *s == series)
            .expect("SeriesId::ALL is complete")
    }

    /// Fold one batch in: update windows/EWMAs, run detectors, evaluate
    /// rules, advance the health machine. Pure scalar math — safe to
    /// call from a pipeline hot loop at batch cadence.
    pub fn observe(&mut self, obs: &BatchObservation) -> Observed {
        self.batches += 1;
        let samples = obs.samples();
        for &(series, x) in &samples {
            let i = Self::idx(series);
            self.windows[i].push(x);
            self.ewmas[i].push(x);
        }

        // Detectors see only series that produced a sample this batch.
        let mut detections: Vec<(SeriesId, Detection)> = Vec::new();
        for (series, det) in &mut self.detectors {
            if let Some(&(_, x)) = samples.iter().find(|(s, _)| s == series) {
                if let Some(d) = det.push(x) {
                    self.drift_pressed[Self::idx(*series)] = self.drift_hold;
                    detections.push((*series, d));
                }
            }
        }

        let mut alerts: Vec<Alert> = Vec::new();
        let mut target: Option<Severity> = None;
        let mut reason = String::new();

        for (ri, rule) in self.rules.iter().enumerate() {
            let mean = self.windows[Self::idx(rule.series)].mean();
            let (violated, value, threshold, kind) = match rule.condition {
                Condition::Above(limit) => {
                    let v = mean.unwrap_or(0.0);
                    (mean.is_some() && v > limit, v, limit, AlertKind::Above)
                }
                Condition::Below(limit) => {
                    let v = mean.unwrap_or(0.0);
                    (mean.is_some() && v < limit, v, limit, AlertKind::Below)
                }
                Condition::Drift => {
                    let hit = detections.iter().find(|(s, _)| *s == rule.series);
                    match hit {
                        Some((_, d)) => (true, d.stat, d.threshold, AlertKind::Drift),
                        // A recent detection keeps pressing for
                        // `drift_hold` batches so hysteresis can trip.
                        None => (
                            self.drift_pressed[Self::idx(rule.series)] > 0,
                            0.0,
                            0.0,
                            AlertKind::Drift,
                        ),
                    }
                }
            };
            if violated {
                if target.is_none_or(|t| rule.severity > t) {
                    target = Some(rule.severity);
                    reason = format!("{}:{}", kind_name(kind), rule.series.name());
                }
                // Threshold alerts only on the rising edge; drift alerts
                // are handled uniformly below (one per detection).
                if kind != AlertKind::Drift && !self.rule_violated[ri] {
                    alerts.push(Alert {
                        batch: obs.batch,
                        series: rule.series,
                        severity: rule.severity,
                        kind,
                        value,
                        threshold,
                        detail: format!(
                            "window mean {value:.4} crossed limit {threshold:.4} (n={})",
                            self.windows[Self::idx(rule.series)].len()
                        ),
                    });
                }
                self.rule_violated[ri] = true;
            } else {
                self.rule_violated[ri] = false;
            }
        }

        // SLO burn rates: a firing SLO presses its severity exactly like
        // a violated rule, reports one SloBurn per firing batch, and
        // raises a rising-edge alert.
        let mut slo_burns: Vec<SloBurn> = Vec::new();
        for (si, tracker) in self.slo_trackers.iter_mut().enumerate() {
            let status = tracker.observe(obs, &samples);
            if status.firing {
                let spec = &tracker.spec;
                if target.is_none_or(|t| spec.severity > t) {
                    target = Some(spec.severity);
                    reason = format!("slo:{}", spec.name);
                }
                slo_burns.push(SloBurn {
                    batch: obs.batch,
                    name: spec.name.clone(),
                    burn_fast: status.burn_fast,
                    burn_slow: status.burn_slow,
                    threshold: spec.burn_threshold,
                    severity: spec.severity,
                });
                if !self.slo_burned[si] {
                    alerts.push(Alert {
                        batch: obs.batch,
                        series: spec.series(),
                        severity: spec.severity,
                        kind: AlertKind::SloBurn,
                        value: status.burn_fast,
                        threshold: spec.burn_threshold,
                        detail: format!(
                            "slo {}: fast burn {:.1}x / slow burn {:.1}x >= {:.1}x of budget {:.4}",
                            spec.name,
                            status.burn_fast,
                            status.burn_slow,
                            spec.burn_threshold,
                            spec.budget
                        ),
                    });
                }
                self.slo_burned[si] = true;
            } else {
                self.slo_burned[si] = false;
            }
        }
        self.slo_burn_total += slo_burns.len() as u64;

        // Every drift detection is an alert, whether or not a rule
        // routes it into the health machine.
        for (series, d) in &detections {
            let severity = self
                .rules
                .iter()
                .find(|r| r.condition == Condition::Drift && r.series == *series)
                .map(|r| r.severity)
                .unwrap_or(Severity::Degraded);
            alerts.push(Alert {
                batch: obs.batch,
                series: *series,
                severity,
                kind: AlertKind::Drift,
                value: d.stat,
                threshold: d.threshold,
                detail: format!(
                    "stat {:.4} > {:.4}; mean {:.4} -> {:.4}",
                    d.stat, d.threshold, d.mean_before, d.mean_after
                ),
            });
        }

        let transition = self.machine.tick(obs.batch, target, &reason);
        for pressed in &mut self.drift_pressed {
            *pressed = pressed.saturating_sub(1);
        }
        self.drift_total += detections.len() as u64;
        self.alerts_total += alerts.len() as u64;
        if let Some(t) = &transition {
            self.transitions.push(t.clone());
        }
        Observed {
            alerts,
            transition,
            slo_burns,
        }
    }

    /// Current health state.
    pub fn health(&self) -> HealthState {
        self.machine.state()
    }

    /// End-of-run summary for `RunReport::health`.
    pub fn report(&self) -> HealthReport {
        HealthReport {
            state: self.machine.state(),
            batches: self.batches,
            alerts_total: self.alerts_total,
            drift_total: self.drift_total,
            slo_burn_total: self.slo_burn_total,
            transitions: self.transitions.clone(),
        }
    }

    /// Live burn-rate status of every configured SLO, in config order.
    pub fn slo_status(&self) -> Vec<SloStatus> {
        self.slo_trackers.iter().map(|t| t.status()).collect()
    }

    /// The sliding window behind one series (for tests and dashboards).
    pub fn series_window(&self, series: SeriesId) -> &SeriesWindow {
        &self.windows[Self::idx(series)]
    }

    /// Current EWMA of one series.
    pub fn ewma(&self, series: SeriesId) -> Option<f64> {
        self.ewmas[Self::idx(series)].get()
    }

    /// Ring capacity per series.
    pub fn window_capacity(&self) -> usize {
        self.window_cap
    }

    /// EWMA smoothing factor in use.
    pub fn ewma_alpha(&self) -> f64 {
        self.ewma_alpha
    }

    /// Export the windowed state as an `emd-obs` snapshot: per-series
    /// `emd_sentinel_<series>_{last,mean,ewma,p90}` gauges, the health
    /// level gauge, and the alert/drift/transition counters — so the
    /// sentinel rides the existing Prometheus/JSON exporters.
    pub fn snapshot(&self) -> emd_obs::Snapshot {
        let mut snap = emd_obs::Snapshot::default();
        snap.counters.push(emd_obs::CounterSnapshot {
            name: "emd_sentinel_alerts_total".into(),
            value: self.alerts_total,
        });
        snap.counters.push(emd_obs::CounterSnapshot {
            name: "emd_sentinel_drift_total".into(),
            value: self.drift_total,
        });
        snap.counters.push(emd_obs::CounterSnapshot {
            name: "emd_sentinel_transitions_total".into(),
            value: self.transitions.len() as u64,
        });
        snap.counters.push(emd_obs::CounterSnapshot {
            name: "emd_sentinel_slo_burn_total".into(),
            value: self.slo_burn_total,
        });
        snap.gauges.push(emd_obs::GaugeSnapshot {
            name: "emd_sentinel_health".into(),
            value: self.machine.state().level() as f64,
        });
        for t in &self.slo_trackers {
            let s = t.status();
            let base = format!("emd_sentinel_slo_{}", s.name);
            for (suffix, value) in [
                ("burn_fast", s.burn_fast),
                ("burn_slow", s.burn_slow),
                ("firing", if s.firing { 1.0 } else { 0.0 }),
            ] {
                snap.gauges.push(emd_obs::GaugeSnapshot {
                    name: format!("{base}_{suffix}"),
                    value,
                });
            }
        }
        for (i, series) in SeriesId::ALL.iter().enumerate() {
            let w = &self.windows[i];
            if w.is_empty() {
                continue;
            }
            let base = format!("emd_sentinel_{}", series.name());
            for (suffix, value) in [
                ("last", w.last()),
                ("mean", w.mean()),
                ("ewma", self.ewmas[i].get()),
                ("p90", w.quantile(0.9)),
            ] {
                if let Some(v) = value {
                    snap.gauges.push(emd_obs::GaugeSnapshot {
                        name: format!("{base}_{suffix}"),
                        value: v,
                    });
                }
            }
        }
        snap.counters.sort_by(|a, b| a.name.cmp(&b.name));
        snap.gauges.sort_by(|a, b| a.name.cmp(&b.name));
        snap
    }
}

fn kind_name(kind: AlertKind) -> &'static str {
    match kind {
        AlertKind::Drift => "drift",
        AlertKind::Above => "above",
        AlertKind::Below => "below",
        AlertKind::SloBurn => "slo_burn",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(batch: u64, sentences: u64, scored: u64, score_sum: f64) -> BatchObservation {
        BatchObservation {
            batch,
            sentences,
            scored,
            score_sum,
            accepted: scored / 2,
            rejected: scored - scored / 2,
            ..Default::default()
        }
    }

    #[test]
    fn samples_skip_zero_denominators() {
        let o = BatchObservation {
            batch: 1,
            sentences: 10,
            ..Default::default()
        };
        let s = o.samples();
        assert!(s.iter().any(|(id, _)| *id == SeriesId::MentionRate));
        assert!(
            !s.iter().any(|(id, _)| *id == SeriesId::ScoreMean),
            "score_mean must not report 0 when nothing was scored"
        );
        assert!(BatchObservation::default().samples().is_empty());
    }

    #[test]
    fn stationary_stream_raises_no_alerts() {
        let mut s = Sentinel::with_defaults();
        for b in 1..=200 {
            let got = s.observe(&obs(b, 50, 20, 10.0));
            assert!(got.alerts.is_empty(), "batch {b}: {:?}", got.alerts);
            assert_eq!(got.transition, None);
        }
        assert_eq!(s.health(), HealthState::Healthy);
        assert_eq!(s.report().alerts_total, 0);
    }

    #[test]
    fn score_shift_fires_drift_and_degrades() {
        let mut s = Sentinel::with_defaults();
        let mut fired_at = None;
        for b in 1..=200 {
            // Score mean collapses from 0.5 to 0.1 at batch 100.
            let sum = if b < 100 { 10.0 } else { 2.0 };
            let got = s.observe(&obs(b, 50, 20, sum));
            if fired_at.is_none() && got.alerts.iter().any(|a| a.kind == AlertKind::Drift) {
                fired_at = Some(b);
            }
        }
        let at = fired_at.expect("score collapse must fire drift");
        assert!((100..130).contains(&at), "fired at {at}");
        let rep = s.report();
        assert!(rep.drift_total >= 1);
        // The drift tripped the machine to Degraded; once the new regime
        // settles (detector reset, no further pressure) the machine
        // clears back to Healthy — drift is transient by design.
        assert_eq!(
            rep.transitions.first().map(|t| t.to),
            Some(HealthState::Degraded)
        );
        assert_eq!(s.health(), HealthState::Healthy);
    }

    #[test]
    fn threshold_alerts_fire_on_rising_edge_only() {
        let mut s = Sentinel::new(SentinelConfig {
            window: 4,
            detectors: Vec::new(),
            policy: HealthPolicy {
                rules: vec![Rule::above(
                    SeriesId::QuarantineRate,
                    0.3,
                    Severity::Critical,
                )],
                trip_after: 2,
                clear_after: 2,
                min_dwell: 0,
            },
            ..SentinelConfig::default()
        });
        let mut alerts = 0;
        for b in 1..=10 {
            let o = BatchObservation {
                batch: b,
                sentences: 10,
                quarantined: 8,
                ..Default::default()
            };
            alerts += s.observe(&o).alerts.len();
        }
        assert_eq!(alerts, 1, "sustained breach is one alert, not ten");
        assert_eq!(s.health(), HealthState::Critical);
    }

    #[test]
    fn snapshot_exports_series_and_health() {
        let mut s = Sentinel::with_defaults();
        for b in 1..=20 {
            s.observe(&obs(b, 50, 20, 10.0));
        }
        let snap = s.snapshot();
        assert_eq!(snap.counter("emd_sentinel_alerts_total"), Some(0));
        assert_eq!(snap.gauge("emd_sentinel_health"), Some(0.0));
        let mean = snap.gauge("emd_sentinel_score_mean_mean").unwrap();
        assert!((mean - 0.5).abs() < 1e-9);
        // Exports ride the existing exporters.
        let prom = snap.to_prometheus();
        assert!(prom.contains("emd_sentinel_score_mean_mean"));
        let back = emd_obs::Snapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        // Sorted, as the Snapshot contract requires.
        let names: Vec<_> = snap.gauges.iter().map(|g| g.name.clone()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn slo_burn_presses_health_and_reports_every_firing_batch() {
        let mut s = Sentinel::new(SentinelConfig {
            detectors: Vec::new(),
            slos: vec![slo::SloSpec::p99_latency_below("batch_latency", 1_000_000)],
            policy: HealthPolicy {
                rules: Vec::new(),
                trip_after: 2,
                clear_after: 8,
                min_dwell: 0,
            },
            ..SentinelConfig::default()
        });
        let mut o = obs(0, 50, 20, 10.0);
        for b in 1..=30 {
            o.batch = b;
            o.latency_ns = 100_000;
            let got = s.observe(&o);
            assert!(got.slo_burns.is_empty(), "batch {b}");
        }
        let mut slo_alerts = 0;
        let mut burn_batches = 0;
        for b in 31..=60 {
            o.batch = b;
            o.latency_ns = 50_000_000;
            let got = s.observe(&o);
            burn_batches += got.slo_burns.len();
            slo_alerts += got
                .alerts
                .iter()
                .filter(|a| a.kind == AlertKind::SloBurn)
                .count();
        }
        assert_eq!(slo_alerts, 1, "sustained burn is one rising-edge alert");
        assert!(
            burn_batches >= 20,
            "every firing batch reports: {burn_batches}"
        );
        assert_eq!(s.health(), HealthState::Critical, "slo pressed the machine");
        assert_eq!(s.report().slo_burn_total, burn_batches as u64);
        let snap = s.snapshot();
        assert_eq!(
            snap.counter("emd_sentinel_slo_burn_total"),
            Some(burn_batches as u64)
        );
        assert_eq!(
            snap.gauge("emd_sentinel_slo_batch_latency_firing"),
            Some(1.0)
        );
    }

    #[test]
    fn report_counts_batches_and_transitions() {
        let mut s = Sentinel::with_defaults();
        for b in 1..=5 {
            s.observe(&obs(b, 10, 4, 2.0));
        }
        let rep = s.report();
        assert_eq!(rep.batches, 5);
        assert_eq!(rep.state, HealthState::Healthy);
        assert!(rep.transitions.is_empty());
        let back: HealthReport =
            serde_json::from_str(&serde_json::to_string(&rep).unwrap()).unwrap();
        assert_eq!(back, rep);
    }
}
