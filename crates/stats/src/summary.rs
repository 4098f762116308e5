//! Exact CDFs.

/// An exact empirical CDF built from stored samples; used for the size
/// distribution figures where sample counts are modest.
#[derive(Debug, Clone, Default)]
pub struct Ecdf {
    samples: Vec<f64>,
    sorted: bool,
}

impl Ecdf {
    /// Empty CDF.
    pub fn new() -> Self {
        Ecdf {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Add a sample.
    pub fn add(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
            self.sorted = true;
        }
    }

    /// Fraction of samples ≤ `x` (0 when empty).
    pub fn fraction_le(&mut self, x: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let idx = self.samples.partition_point(|&s| s <= x);
        idx as f64 / self.samples.len() as f64
    }

    /// Exact quantile by rank (0 when empty).
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let q = q.clamp(0.0, 1.0);
        let idx = ((q * (self.samples.len() - 1) as f64).round()) as usize;
        self.samples[idx]
    }

    /// Evaluate the CDF at each of `points`, returning `(x, F(x))` pairs —
    /// the series plotted in the paper's Figure 5.
    pub fn curve(&mut self, points: &[f64]) -> Vec<(f64, f64)> {
        points.iter().map(|&x| (x, self.fraction_le(x))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecdf_fractions() {
        let mut e = Ecdf::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            e.add(x);
        }
        assert_eq!(e.fraction_le(0.5), 0.0);
        assert_eq!(e.fraction_le(2.0), 0.5);
        assert_eq!(e.fraction_le(10.0), 1.0);
    }

    #[test]
    fn ecdf_quantile() {
        let mut e = Ecdf::new();
        for x in 0..101 {
            e.add(x as f64);
        }
        assert_eq!(e.quantile(0.5), 50.0);
        assert_eq!(e.quantile(1.0), 100.0);
    }

    #[test]
    fn ecdf_curve() {
        let mut e = Ecdf::new();
        for x in [4.0, 4.0, 16.0, 64.0] {
            e.add(x);
        }
        let curve = e.curve(&[4.0, 16.0, 64.0]);
        assert_eq!(curve, vec![(4.0, 0.5), (16.0, 0.75), (64.0, 1.0)]);
    }

    #[test]
    fn ecdf_empty_and_single() {
        let mut e = Ecdf::new();
        assert_eq!(e.count(), 0);
        assert_eq!(e.fraction_le(1.0), 0.0);
        assert_eq!(e.quantile(0.5), 0.0);
        e.add(9.0);
        assert_eq!(e.count(), 1);
        assert_eq!(e.fraction_le(8.9), 0.0);
        assert_eq!(e.fraction_le(9.0), 1.0);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(e.quantile(q), 9.0, "q={q}");
        }
    }
}
