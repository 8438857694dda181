//! Repeated measurements and the percentile rule the benchmark reports by.

/// Repeated measurements of one quantity, in whatever unit the caller
/// pushes (milliseconds for operation latencies).
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
}

/// Samples that must lie beyond a tail percentile before it is reported.
const TAIL_SAMPLES: usize = 10;

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Median (mean of the two middle samples for an even count); 0 when
    /// empty.
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => 0.0,
            n if n % 2 == 1 => v[n / 2],
            n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    /// Nearest-rank percentile `q` in `(0, 1)`, and the number of samples
    /// lying beyond it. The benchmark reports a tail only when that
    /// number is at least [`TAIL_SAMPLES`]; see [`Samples::min_count_for`].
    pub fn percentile(&self, q: f64) -> (f64, usize) {
        let v = self.sorted();
        if v.is_empty() {
            return (0.0, 0);
        }
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        (v[rank - 1], v.len() - rank)
    }

    /// Smallest sample count that leaves [`TAIL_SAMPLES`] beyond the
    /// nearest-rank percentile `q`.
    pub fn min_count_for(q: f64) -> usize {
        (TAIL_SAMPLES as f64 / (1.0 - q)).round() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(values: &[f64]) -> Samples {
        let mut s = Samples::default();
        for &v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(of(&[3.0, 1.0, 2.0]).median(), 2.0);
        assert_eq!(of(&[4.0, 1.0, 3.0, 2.0]).median(), 2.5);
        assert_eq!(Samples::default().median(), 0.0);
    }

    #[test]
    fn p90_of_a_hundred_samples_leaves_ten_beyond() {
        let s = of(&(1..=100).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.percentile(0.9), (90.0, 10));
        assert_eq!(Samples::min_count_for(0.9), 100);
    }
}
