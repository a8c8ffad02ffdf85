//! Order statistics over latency samples.

use std::time::Duration;

/// A growable set of samples in one unit.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn push_ms(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e3);
    }

    /// Adds every sample of `other`.
    pub fn append(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile (`p` in `0..=100`); 0 when empty.
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.sort();
        let n = self.values.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        self.values[rank.clamp(1, n) - 1]
    }

    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }

    pub fn max(&mut self) -> f64 {
        self.percentile(100.0)
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Samples strictly above the `p`-th percentile.
    pub fn beyond(&mut self, p: f64) -> usize {
        let cut = self.percentile(p);
        self.values.iter().filter(|&&v| v > cut).count()
    }

    /// Interquartile range as a share of the median.
    pub fn iqr_frac(&mut self) -> f64 {
        let m = self.median();
        if m == 0.0 {
            return 0.0;
        }
        (self.percentile(75.0) - self.percentile(25.0)) / m
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Self {
            values: iter.into_iter().collect(),
            sorted: false,
        }
    }
}

/// Share of `reference`'s rows that `answer` also returned (recall@K).
pub fn recall(answer: &[(u32, f64)], reference: &[(u32, f64)]) -> f64 {
    if reference.is_empty() {
        return 1.0;
    }
    let hits = answer
        .iter()
        .filter(|(row, _)| reference.iter().any(|(r, _)| r == row))
        .count();
    hits as f64 / reference.len() as f64
}
