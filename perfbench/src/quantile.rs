//! Nearest-rank quantiles that state their sample count.
//!
//! A percentile is only reported when at least [`MIN_TAIL`] samples lie
//! beyond it (above it for upper percentiles, below it for lower ones);
//! otherwise the estimate rests on a handful of outliers and is refused.

use std::fmt;

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// A sorted sample.
#[derive(Debug, Clone)]
pub struct Sample {
    sorted: Vec<f64>,
}

/// One reported quantile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The nearest-rank value.
    pub value: f64,
    /// Size of the sample it was read from.
    pub samples: usize,
    /// Samples beyond it, on the side of the tail it describes.
    pub beyond: usize,
}

/// Why a quantile was refused.
#[derive(Debug, Clone, PartialEq)]
pub struct Refused {
    /// The requested quantile, in `[0, 1]`.
    pub q: f64,
    /// Size of the sample.
    pub samples: usize,
    /// Samples that would lie beyond the value.
    pub beyond: usize,
}

impl fmt::Display for Refused {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{} refused: {} of {} samples lie beyond it, {MIN_TAIL} needed",
            self.q * 100.0,
            self.beyond,
            self.samples
        )
    }
}

impl Sample {
    /// Sort `values` into a sample. Non-finite values are a bug in the
    /// caller's timing code.
    ///
    /// # Panics
    ///
    /// Panics if any value is NaN.
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(|a, b| a.partial_cmp(b).expect("sample values are never NaN"));
        Self { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The nearest-rank `q`-quantile: the value at 1-based rank
    /// `max(1, ⌈q·n⌉)`. Refused when fewer than [`MIN_TAIL`] samples lie
    /// beyond that rank — above it for `q ≥ 0.5`, below it otherwise.
    pub fn quantile(&self, q: f64) -> Result<Quantile, Refused> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        let n = self.sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
        let beyond = if q >= 0.5 {
            n.saturating_sub(rank)
        } else {
            rank - 1
        };
        if n == 0 || beyond < MIN_TAIL {
            return Err(Refused {
                q,
                samples: n,
                beyond,
            });
        }
        Ok(Quantile {
            value: self.sorted[rank - 1],
            samples: n,
            beyond,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Sample {
        // Reverse order, so sorting is exercised.
        Sample::new((1..=n).rev().map(|i| i as f64).collect())
    }

    #[test]
    fn nearest_rank_values_and_counts() {
        let s = ramp(1000);
        let p50 = s.quantile(0.5).unwrap();
        assert_eq!((p50.value, p50.samples, p50.beyond), (500.0, 1000, 500));
        let p99 = s.quantile(0.99).unwrap();
        assert_eq!((p99.value, p99.samples, p99.beyond), (990.0, 1000, 10));
        let p1 = ramp(1100).quantile(0.01).unwrap();
        assert_eq!((p1.value, p1.beyond), (11.0, 10));
    }

    #[test]
    fn refuses_thin_tails() {
        // 999 samples put only 9 beyond nearest-rank p99.
        let r = ramp(999).quantile(0.99).unwrap_err();
        assert_eq!((r.samples, r.beyond), (999, 9));
        // p1 of 1000 samples has 9 below it.
        assert_eq!(ramp(1000).quantile(0.01).unwrap_err().beyond, 9);
        assert!(ramp(19).quantile(0.5).is_err());
        assert_eq!(ramp(20).quantile(0.5).unwrap().value, 10.0);
        assert_eq!(ramp(21).quantile(0.5).unwrap().value, 11.0);
        assert!(Sample::new(Vec::new()).quantile(0.5).is_err());
        assert!(ramp(5000).quantile(1.0).is_err());
    }
}
