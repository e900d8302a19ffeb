//! The benchmark's one quantile helper: exact, sort-based, and always
//! paired with its sample count.

/// How many samples must lie beyond a tail percentile for it to be
/// reported: with fewer, the value is a single outlier, not a
/// percentile.
const MIN_BEYOND: usize = 10;

/// A sorted sample set.
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// The exact median (mean of the two middle samples for an even
    /// count). `None` for an empty set.
    pub fn median(&self) -> Option<f64> {
        let n = self.sorted.len();
        match n {
            0 => None,
            _ if n % 2 == 1 => Some(self.sorted[n / 2]),
            _ => Some((self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0),
        }
    }

    /// The nearest-rank `q`-quantile, refused (`None`) when fewer than
    /// ten samples lie beyond it.
    pub fn tail(&self, q: f64) -> Option<f64> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        (n - rank >= MIN_BEYOND).then(|| self.sorted[rank - 1])
    }

    /// The highest of p99.9 / p99 / p95 / p90 that has ten samples
    /// beyond it, as `(q, value)`.
    pub fn highest_tail(&self) -> Option<(f64, f64)> {
        [0.999, 0.99, 0.95, 0.90]
            .into_iter()
            .find_map(|q| self.tail(q).map(|v| (q, v)))
    }
}

/// Median of a handful of repeats (set-up times, round throughputs).
/// Panics on an empty slice: every caller measured at least once.
pub fn median_of(values: &[f64]) -> f64 {
    Samples::new(values.to_vec())
        .median()
        .expect("median of at least one measurement")
}

/// Median of ns samples in µs (0 for none), with the sample count.
pub fn p50_us(samples_ns: &[f64]) -> (f64, usize) {
    let s = Samples::new(samples_ns.to_vec());
    (s.median().unwrap_or(0.0) / 1000.0, s.count())
}
