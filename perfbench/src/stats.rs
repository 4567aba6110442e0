//! Order statistics for the reported timings.

/// Percentiles a tail may be reported at, in tenths, highest first. A
/// coarse ladder keeps the reported percentile the same from run to run
/// while the sample count drifts with machine speed.
const TAIL_LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A tail percentile with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `95.0`.
    pub pct: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Samples strictly after it in rank order.
    pub beyond: usize,
    /// All samples.
    pub n: usize,
}

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, by nearest rank. `None` when
/// even the median lacks that many.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let s = sorted(xs);
    let n = s.len();
    TAIL_LADDER.iter().find_map(|&tenths| {
        let rank = nearest_rank(tenths, n);
        let beyond = n.checked_sub(rank)?;
        (rank >= 1 && beyond >= TAIL_MIN_BEYOND).then(|| Tail {
            pct: tenths as f64 / 10.0,
            value: s[rank - 1],
            beyond,
            n,
        })
    })
}

/// 1-based nearest rank of the `tenths / 10` percentile among `n`
/// samples, in integers so that e.g. p99 of 1000 is exactly rank 990.
fn nearest_rank(tenths: usize, n: usize) -> usize {
    (tenths * n).div_ceil(1000)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reverse order, so the helpers must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 has exactly 10 beyond it, p99.9 only 1.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond, t.n), (99.0, 990.0, 10, 1000));
        // 999 samples: p99 has 9 beyond, so the tail falls back to p95.
        let t = tail(&ramp(999)).unwrap();
        assert_eq!(t.pct, 95.0);
        assert!(t.beyond >= TAIL_MIN_BEYOND);
        // 200 samples: p95 sits at rank 190, with 10 beyond.
        let t = tail(&ramp(200)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (95.0, 190.0, 10));
    }

    #[test]
    fn tail_needs_enough_samples() {
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
        let t = tail(&ramp(20)).unwrap();
        assert_eq!((t.pct, t.beyond), (50.0, 10));
    }

    #[test]
    fn every_ladder_choice_has_ten_beyond() {
        for n in 20..3000 {
            let t = tail(&ramp(n)).unwrap();
            assert!(t.beyond >= TAIL_MIN_BEYOND, "n={n}: {t:?}");
            // No higher rung of the ladder would also qualify.
            let higher = TAIL_LADDER.iter().filter(|&&p| p as f64 / 10.0 > t.pct);
            for &p in higher {
                let rank = nearest_rank(p, n);
                assert!(n - rank < TAIL_MIN_BEYOND, "n={n}: p{p}/10 also qualifies");
            }
        }
    }
}
