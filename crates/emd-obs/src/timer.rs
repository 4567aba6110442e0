//! RAII timer spans.

use crate::Histogram;
use std::time::Instant;

/// Measures the wall-clock time of a scope and records the elapsed
/// nanoseconds into a [`Histogram`] when dropped.
///
/// When recording is disabled ([`crate::enabled`] is false) at
/// construction, the timer is fully inert: it never reads the clock and
/// its drop is a no-op, so instrumented code paths stay within a relaxed
/// atomic load + branch of their uninstrumented cost.
#[must_use = "a timer records on drop; binding it to `_` drops it immediately"]
#[derive(Debug)]
pub struct Timer {
    // None in noop mode: no clock read on either end of the span.
    inner: Option<(Instant, Histogram)>,
}

impl Timer {
    /// Start timing a span that records into `hist` on drop.
    #[inline]
    pub fn start(hist: &Histogram) -> Timer {
        Timer {
            inner: if crate::enabled() {
                Some((Instant::now(), hist.clone()))
            } else {
                None
            },
        }
    }

    /// End the span early and return the elapsed nanoseconds that were
    /// recorded (0 in noop mode).
    pub fn stop(mut self) -> u64 {
        self.finish()
    }

    fn finish(&mut self) -> u64 {
        match self.inner.take() {
            Some((t0, hist)) => {
                let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                hist.record(ns);
                ns
            }
            None => 0,
        }
    }
}

impl Drop for Timer {
    #[inline]
    fn drop(&mut self) {
        if self.inner.is_some() {
            self.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    #[test]
    fn timer_records_on_drop() {
        let _g = test_lock::enable();
        let h = Histogram::new();
        {
            let _span = Timer::start(&h);
            std::hint::black_box(());
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn stop_returns_recorded_nanos() {
        let _g = test_lock::enable();
        let h = Histogram::new();
        let ns = Timer::start(&h).stop();
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), ns);
    }

    #[test]
    fn noop_timer_is_inert() {
        let _g = test_lock::disable();
        let h = Histogram::new();
        let ns = Timer::start(&h).stop();
        assert_eq!(ns, 0);
        assert_eq!(h.count(), 0);
    }
}
