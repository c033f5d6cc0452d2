//! One log-bucketed histogram for every ungated latency figure (tails,
//! open-loop ladders, fsync times). 16 sub-buckets per power of two keep
//! the relative error under 3.2 %; recording is two shifts and an add.
//!
//! A percentile is handed out only when at least [`MIN_BEYOND`] samples lie
//! beyond it, together with the sample count — a p99 over 300 samples is
//! three samples' worth of luck, and says so by being absent.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: u64 = 10;

const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
            max: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros();
        let shift = exp - SUB_BITS;
        let mantissa = ((v >> shift) as usize) & (SUB - 1);
        ((shift as usize + 1) << SUB_BITS) | mantissa
    }

    /// Midpoint of the bucket `idx` covers.
    fn value(idx: usize) -> f64 {
        if idx < SUB {
            return idx as f64;
        }
        let shift = (idx >> SUB_BITS) as u32 - 1;
        let lo = ((SUB | (idx & (SUB - 1))) as u64) << shift;
        lo as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.total += 1;
        self.max = self.max.max(v);
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile, if at least [`MIN_BEYOND`] samples lie beyond it
    /// on the far side (above for `q >= 0.5`, below otherwise).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let beyond = if q >= 0.5 { 1.0 - q } else { q };
        if (self.total as f64 * beyond) < MIN_BEYOND as f64 {
            return None;
        }
        let target = (self.total as f64 * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(Self::value(i));
            }
        }
        Some(self.max as f64)
    }

    /// Like [`Histogram::quantile`], 0 when the sample cannot support it —
    /// for result lines, where every metric must carry a number.
    pub fn quantile_or_zero(&self, q: f64) -> f64 {
        self.quantile(q).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_error_stays_under_four_percent() {
        for v in [1u64, 15, 16, 17, 100, 999, 4096, 123_456, 9_999_999_999] {
            let got = Histogram::value(Histogram::index(v));
            let err = (got - v as f64).abs() / v as f64;
            assert!(err < 0.04, "{v} -> {got}");
        }
        // Bucket indices are monotone in the value.
        let mut last = 0;
        for v in (0..100_000u64).step_by(7) {
            let i = Histogram::index(v);
            assert!(i >= last);
            last = i;
        }
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let mut h = Histogram::new();
        for v in 1..=999u64 {
            h.record(v * 1000);
        }
        assert!(h.quantile(0.5).is_some());
        assert!(h.quantile(0.99).is_none(), "9.99 samples beyond p99");
        h.record(1_000_000);
        let p99 = h.quantile(0.99).expect("ten samples beyond p99 now");
        assert!((p99 / 990_000.0 - 1.0).abs() < 0.04, "p99 = {p99}");
        assert_eq!(h.total, 1000);
        assert_eq!(h.quantile_or_zero(0.999), 0.0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 0..600 {
            a.record(100 + v);
            b.record(10_000 + v);
        }
        a.merge(&b);
        assert_eq!(a.total, 1200);
        assert!(a.quantile(0.25).unwrap() < 1000.0);
        assert!(a.quantile(0.75).unwrap() > 9000.0);
    }
}
