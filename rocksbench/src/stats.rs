//! Order statistics for latency samples and per-chunk rates.

/// Nearest-rank quantile of an ascending-sorted slice: the smallest sample
/// with at least `q` of the samples at or below it.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly greater than `value` in an ascending-sorted slice.
pub fn beyond(sorted: &[u64], value: u64) -> usize {
    sorted.len() - sorted.partition_point(|&s| s <= value)
}

/// A tail percentile that is only reported when at least ten samples lie
/// beyond it; `None` when the sample is too small to support it.
pub fn tail_quantile(sorted: &[u64], q: f64) -> Option<u64> {
    let v = quantile_sorted(sorted, q)?;
    (beyond(sorted, v) >= 10).then_some(v)
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A uniform random sample of at most [`Reservoir::CAPACITY`] values
/// (Algorithm R). Its memory is allocated and touched up front, so the
/// benchmark's resident size does not grow with the operations it times.
#[derive(Debug)]
pub struct Reservoir {
    samples: Vec<u64>,
    seen: u64,
    rng: crate::Rng,
}

impl Default for Reservoir {
    fn default() -> Self {
        // A non-zero fill writes every page (zeroed memory may stay lazy).
        let mut samples = vec![u64::MAX; Self::CAPACITY];
        samples.clear();
        Reservoir { samples, seen: 0, rng: crate::Rng::new(0, 0x7265_7365_7276) }
    }
}

impl Reservoir {
    /// Samples kept.
    pub const CAPACITY: usize = 1 << 17;

    /// Offer one value.
    pub fn push(&mut self, v: u64) {
        self.seen += 1;
        if self.samples.len() < Self::CAPACITY {
            self.samples.push(v);
        } else {
            let j = (self.rng.next_u64() % self.seen) as usize;
            if j < Self::CAPACITY {
                self.samples[j] = v;
            }
        }
    }

    /// Values offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The kept samples, in no particular order.
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    /// The kept samples, ascending.
    pub fn sorted(&self) -> Vec<u64> {
        let mut v = self.samples.clone();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservoir_keeps_everything_until_full_then_samples_uniformly() {
        let mut r = Reservoir::default();
        for v in 0..1000 {
            r.push(v);
        }
        assert_eq!(r.sorted(), (0..1000).collect::<Vec<_>>());
        let n = 4 * Reservoir::CAPACITY as u64;
        for v in 1000..n {
            r.push(v);
        }
        assert_eq!(r.seen(), n);
        assert_eq!(r.samples().len(), Reservoir::CAPACITY);
        // The kept sample's median sits near the median of everything seen.
        let median = quantile_sorted(&r.sorted(), 0.5).unwrap() as f64;
        assert!((median / (n as f64 / 2.0) - 1.0).abs() < 0.01, "{median}");
    }

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&s, 0.5), Some(50));
        assert_eq!(quantile_sorted(&s, 0.99), Some(99));
        assert_eq!(quantile_sorted(&s, 1.0), Some(100));
        assert_eq!(quantile_sorted(&s, 0.0), Some(1));
        assert_eq!(quantile_sorted(&[], 0.5), None);
        assert_eq!(quantile_sorted(&[7], 0.99), Some(7));
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        // 1000 distinct samples: p99 is the 990th, and exactly ten lie beyond.
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail_quantile(&s, 0.99), Some(990));
        assert_eq!(beyond(&s, 990), 10);
        // One sample fewer leaves only nine beyond the p99.
        let s: Vec<u64> = (1..=999).collect();
        assert_eq!(tail_quantile(&s, 0.99), None);
        // The median of a small sample still has plenty beyond it.
        assert_eq!(tail_quantile(&s[..40], 0.5), Some(20));
    }

    #[test]
    fn ties_do_not_count_as_beyond() {
        let mut s = vec![5u64; 990];
        s.extend([9u64; 10]);
        assert_eq!(tail_quantile(&s, 0.99), Some(5));
        let s = vec![5u64; 2000];
        assert_eq!(tail_quantile(&s, 0.99), None);
    }

    #[test]
    fn median_and_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
