//! # emd-obs
//!
//! Zero-dependency tracing + metrics for the EMD Globalizer pipeline
//! (the only dependencies are the in-repo `serde`/`serde_json` shims, per
//! the offline `shims/` policy).
//!
//! Four layers:
//!
//! * a [`Registry`] of named metrics — atomic [`Counter`]s, float
//!   [`Gauge`]s, and log-bucketed latency [`Histogram`]s with quantile
//!   estimation and per-bucket trace **exemplars** — safe to record into
//!   from any number of threads;
//! * lightweight RAII [`Timer`] spans that measure a scope and record the
//!   elapsed nanoseconds into a histogram on drop (a sample tagged with a
//!   trace sequence exemplar goes through
//!   [`Histogram::record_with_exemplar`]);
//! * per-stream [`Scope`]s managed by a cardinality-capped [`ScopeSet`]
//!   whose roll-up snapshot renders every stream as labeled series plus a
//!   process-level aggregate on one Prometheus page ([`promcheck`] is
//!   the CI validator for those pages);
//! * two exporters over a point-in-time [`Snapshot`]: Prometheus text
//!   exposition format ([`Snapshot::to_prometheus`]) and a JSON document
//!   ([`Snapshot::to_json`]) that round-trips through the serde shim —
//!   each available cumulative ([`Registry::snapshot`]) or reset-on-scrape
//!   ([`Registry::snapshot_delta`]).
//!
//! ## The global noop mode
//!
//! All recording — counter increments, gauge stores, histogram samples,
//! timer spans — is gated on a process-wide flag ([`set_enabled`]).
//! The flag starts **off**, so an uninstrumented binary pays only a
//! relaxed atomic load + branch per call site and never reads the clock
//! (timers skip `Instant::now()` entirely when disabled). Flip it on with
//! `emd_obs::set_enabled(true)` to start collecting.
//!
//! ## Naming convention
//!
//! Metric names follow `emd_<area>_<metric>_<unit>`: durations are
//! histograms in nanoseconds (`..._ns`), monotonic counts end in
//! `_total`, and instantaneous values are gauges with no unit suffix
//! (or a ratio in `[0, 1]`). See DESIGN.md § "Observability".
//!
//! ## Example
//!
//! ```
//! emd_obs::set_enabled(true);
//! let reg = emd_obs::Registry::new();
//! let scans = reg.counter("emd_scan_records_total");
//! let latency = reg.histogram("emd_scan_ns");
//! for _ in 0..10 {
//!     let _span = emd_obs::Timer::start(&latency);
//!     scans.inc();
//! }
//! drop(reg.gauge("emd_dirty_depth")); // gauges register on first use
//! let snap = reg.snapshot();
//! assert_eq!(snap.counters[0].value, 10);
//! println!("{}", snap.to_prometheus());
//! emd_obs::set_enabled(false);
//! ```

mod hist;
mod metrics;
pub mod promcheck;
mod registry;
mod scope;
mod snapshot;
mod timer;

pub use hist::Histogram;
pub use metrics::{Counter, Gauge};
pub use registry::Registry;
pub use scope::{LabelPair, RollupSnapshot, Scope, ScopeSet, ScopeSnapshot, SCOPES_DROPPED_TOTAL};
pub use snapshot::{
    BucketSnapshot, CounterSnapshot, ExemplarSnapshot, GaugeSnapshot, HistogramSnapshot, Snapshot,
};
pub use timer::Timer;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// Process-wide recording switch. Off by default (noop mode).
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn metric recording on or off for the whole process. Off (the
/// default) is the *noop* mode: every recording call becomes a relaxed
/// load + branch and timers never read the clock.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether metric recording is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();

/// The process-wide default registry. Pipeline instrumentation records
/// here unless pointed at a private [`Registry`] or a [`Scope`]; it is
/// also the registry behind the default scope ([`Scope::process`]).
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(|| Arc::new(Registry::new())).as_ref()
}

/// Shared handle to the process-wide default registry (the same registry
/// [`global`] borrows).
pub fn global_arc() -> Arc<Registry> {
    GLOBAL.get_or_init(|| Arc::new(Registry::new())).clone()
}

#[cfg(test)]
pub(crate) mod test_lock {
    //! Tests that flip the global enabled flag serialize on this lock so
    //! the libtest thread pool cannot interleave them.
    use std::sync::{Mutex, MutexGuard};

    static LOCK: Mutex<()> = Mutex::new(());

    /// Hold the flag lock with recording forced to `on` for the guard's
    /// lifetime; restores "disabled" on drop.
    pub struct EnabledGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

    impl Drop for EnabledGuard {
        fn drop(&mut self) {
            super::set_enabled(false);
        }
    }

    pub fn enable() -> EnabledGuard {
        let g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        super::set_enabled(true);
        EnabledGuard(g)
    }

    pub fn disable() -> EnabledGuard {
        let g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        super::set_enabled(false);
        EnabledGuard(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_shared() {
        let _g = test_lock::enable();
        let c1 = global().counter("emd_obs_test_shared_total");
        let c2 = global().counter("emd_obs_test_shared_total");
        let before = c1.get();
        c2.add(3);
        assert_eq!(c1.get(), before + 3, "handles alias the same counter");
    }

    #[test]
    fn noop_mode_records_nothing() {
        let _g = test_lock::disable();
        let reg = Registry::new();
        let c = reg.counter("c_total");
        let h = reg.histogram("h_ns");
        let ga = reg.gauge("g");
        c.inc();
        c.add(10);
        ga.set(4.5);
        h.record(123);
        drop(Timer::start(&h));
        assert_eq!(c.get(), 0);
        assert_eq!(ga.get(), 0.0);
        assert_eq!(h.count(), 0);
    }
}
