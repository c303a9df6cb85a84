//! Order statistics over latency samples.
//!
//! Percentiles use the nearest-rank definition: the `p`-th percentile of `N`
//! sorted samples is the sample at 1-based rank `⌈p·N/100⌉`. A tail
//! percentile is only meaningful with enough samples *beyond* that rank, so
//! [`Samples::tail`] refuses to report one with fewer than [`MIN_BEYOND`].

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
pub fn nearest_rank(p: f64, n: usize) -> usize {
    assert!(n > 0, "a percentile of no samples is undefined");
    assert!(
        (0.0..=100.0).contains(&p),
        "percentile {p} is outside [0, 100]"
    );
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// A bag of samples, sorted on demand.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

/// A percentile with the sample count it was read from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantile {
    /// The percentile's value.
    pub value: f64,
    /// Samples the percentile was read from.
    pub count: usize,
    /// Samples strictly beyond its rank.
    pub beyond: usize,
}

impl Samples {
    /// An empty bag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    /// Moves every sample of `other` into this bag.
    pub fn extend(&mut self, other: Samples) {
        self.values.extend(other.values);
        self.sorted = false;
    }

    /// Whether the bag is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean (0 for an empty bag).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Largest sample (0 for an empty bag).
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The nearest-rank `p`-th percentile. Panics on an empty bag.
    pub fn percentile(&mut self, p: f64) -> Quantile {
        self.sort();
        let rank = nearest_rank(p, self.values.len());
        Quantile {
            value: self.values[rank - 1],
            count: self.values.len(),
            beyond: self.values.len() - rank,
        }
    }

    /// The median (nearest rank). Panics on an empty bag.
    pub fn median(&mut self) -> f64 {
        self.percentile(50.0).value
    }

    /// A tail percentile, or an error naming how few samples lie beyond it.
    pub fn tail(&mut self, p: f64, what: &str) -> Result<Quantile, String> {
        if self.values.is_empty() {
            return Err(format!("{what}: no samples for p{p}"));
        }
        let q = self.percentile(p);
        if q.beyond < MIN_BEYOND {
            return Err(format!(
                "{what}: p{p} of {} samples has only {} beyond it (need {MIN_BEYOND})",
                q.count, q.beyond
            ));
        }
        Ok(q)
    }
}

/// Median of a slice of durations or counts (nearest rank).
pub fn median_of(values: &[f64]) -> f64 {
    let mut s = Samples::new();
    for &v in values {
        s.push(v);
    }
    s.median()
}
