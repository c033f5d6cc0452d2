//! Quiet-slice estimators.
//!
//! On this class of host (2 shared vCPUs) interference comes and goes in
//! bursts of seconds and only ever makes a piece of work *slower*. A mean
//! or median over a 30 s run therefore tracks how much of the run the
//! neighbour stole; a high percentile of per-slice speed tracks the code.
//! Every timed phase is cut into slices of *fixed work*:
//!
//! * a throughput is the 90th-percentile slice rate ([`quiet_rate`]),
//! * a latency is the 10th percentile of the slice medians
//!   ([`quiet_latency`]),
//!
//! and the plain figure (all work over all time, median of all samples) is
//! reported beside each, ungated. A uniform slow-down of the code moves a
//! quiet-slice estimate one for one (see the tests), so it is still a
//! ruler; it just does not wobble with the neighbour.

use std::time::Instant;

/// Fewest slices a gated estimate should be read from; a run that closes
/// fewer says so in its notes (a `--smoke` run always does).
pub const MIN_SLICES: usize = 90;

/// The note a run leaves about how much its estimates rest on.
pub fn slices_note(latency_slices: usize, rate_slices: usize) -> String {
    let thin = latency_slices.min(rate_slices) < MIN_SLICES;
    format!(
        "{latency_slices} latency slices, {rate_slices} throughput slices{}",
        if thin {
            " — FEWER THAN 90: not a measurement"
        } else {
            ""
        }
    )
}

/// Linear-interpolated percentile of an ascending slice, `q` in `[0, 1]`.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of a (small) sample.
pub fn median(values: &[f64]) -> f64 {
    percentile_sorted(&sorted(values), 0.5)
}

/// 90th-percentile slice rate: what the code does when the host lets it.
pub fn quiet_rate(slice_rates: &[f64]) -> f64 {
    percentile_sorted(&sorted(slice_rates), 0.90)
}

/// 10th percentile of per-slice median latencies.
pub fn quiet_latency(slice_medians: &[f64]) -> f64 {
    percentile_sorted(&sorted(slice_medians), 0.10)
}

/// Quartile distance over median: the spread figure used for slices inside
/// a run (`load.slice_spread_frac`) and for runs inside a set (`compare`).
/// The quartiles are Python's `statistics.quantiles(values, n=4)`
/// (exclusive method), the driver's own definition.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let med = percentile_sorted(&v, 0.5);
    if med == 0.0 {
        return 0.0;
    }
    (quartile(3) - quartile(1)) / med.abs()
}

/// Collects fixed-work throughput slices: call [`RateSlices::add`] with the
/// ops completed so far; every `slice_ops` of them closes a slice.
pub struct RateSlices {
    slice_ops: u64,
    /// Rate of each closed slice, ops/s.
    pub rates: Vec<f64>,
    slice_start: Instant,
    in_slice: u64,
    total_ops: u64,
    total_secs: f64,
}

impl RateSlices {
    pub fn new(slice_ops: u64) -> Self {
        RateSlices {
            slice_ops,
            rates: Vec::new(),
            slice_start: Instant::now(),
            in_slice: 0,
            total_ops: 0,
            total_secs: 0.0,
        }
    }

    /// A new phase begins now; a part-filled slice from the last one is
    /// dropped (it straddles work that was not measured).
    pub fn restart(&mut self) {
        self.slice_start = Instant::now();
        self.in_slice = 0;
    }

    /// `n` more ops completed at `now`.
    pub fn add(&mut self, n: u64, now: Instant) {
        self.in_slice += n;
        if self.in_slice >= self.slice_ops {
            let secs = now.duration_since(self.slice_start).as_secs_f64();
            if secs > 0.0 {
                self.rates.push(self.in_slice as f64 / secs);
                self.total_ops += self.in_slice;
                self.total_secs += secs;
            }
            self.slice_start = now;
            self.in_slice = 0;
        }
    }

    /// All sliced work over all sliced time: the plain throughput.
    pub fn plain_rate(&self) -> f64 {
        if self.total_secs > 0.0 {
            self.total_ops as f64 / self.total_secs
        } else {
            0.0
        }
    }
}

/// Collects fixed-count latency slices: every `slice_len` samples close a
/// slice whose exact median is kept.
pub struct LatencySlices {
    slice_len: usize,
    current: Vec<f64>,
    /// Median of each closed slice, in the unit of the samples.
    pub medians: Vec<f64>,
}

impl LatencySlices {
    pub fn new(slice_len: usize) -> Self {
        LatencySlices {
            slice_len,
            current: Vec::with_capacity(slice_len),
            medians: Vec::new(),
        }
    }

    pub fn restart(&mut self) {
        self.current.clear();
    }

    pub fn add(&mut self, sample: f64) {
        self.current.push(sample);
        if self.current.len() == self.slice_len {
            self.medians.push(median(&self.current));
            self.current.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simulator::Rng;

    /// Per-op latencies of a quiet host: 75–125 units, flat.
    fn op_latency(rng: &mut Rng) -> f64 {
        75.0 + 50.0 * rng.next_f64()
    }

    /// Which 160 of 400 slices (a random 40 %) a neighbour's bursts hit.
    fn burst_mask(seed: u64) -> Vec<bool> {
        let mut rng = Rng::seed_from_u64(seed ^ 0xB0B);
        let mut hit: Vec<bool> = (0..400).map(|i| i < 160).collect();
        for i in (1..hit.len()).rev() {
            hit.swap(i, rng.below_usize(i + 1));
        }
        hit
    }

    /// 400 slices of 50 ops; `slow(slice)` scales a whole slice, as a
    /// neighbour's burst does.
    fn latency_run(seed: u64, slow: impl Fn(usize) -> f64) -> (f64, f64) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut slices = LatencySlices::new(50);
        let mut all = Vec::new();
        for s in 0..400 {
            let factor = slow(s);
            for _ in 0..50 {
                let v = op_latency(&mut rng) * factor;
                slices.add(v);
                all.push(v);
            }
        }
        (quiet_latency(&slices.medians), median(&all))
    }

    fn rate_run(seed: u64, slow: impl Fn(usize) -> f64) -> (f64, f64) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut rates = Vec::new();
        let (mut work, mut time) = (0.0, 0.0);
        for s in 0..400 {
            // 1000 ops at ~1 unit each, ±2 % of honest jitter.
            let secs = 1000.0 * (0.98 + 0.04 * rng.next_f64()) * slow(s);
            rates.push(1000.0 / secs);
            work += 1000.0;
            time += secs;
        }
        (quiet_rate(&rates), work / time)
    }

    #[test]
    fn bursts_on_forty_percent_of_slices_barely_move_the_quiet_estimates() {
        for seed in 1..=5 {
            let hit = burst_mask(seed);
            let burst = |s: usize| if hit[s] { 2.0 } else { 1.0 };
            let (q0, p0) = latency_run(seed, |_| 1.0);
            let (q1, p1) = latency_run(seed, burst);
            assert!(((q1 - q0) / q0).abs() < 0.03, "quiet latency {q0} -> {q1}");
            assert!((p1 - p0) / p0 > 0.15, "plain median {p0} -> {p1}");

            let (q0, p0) = rate_run(seed, |_| 1.0);
            let (q1, p1) = rate_run(seed, burst);
            assert!(((q1 - q0) / q0).abs() < 0.03, "quiet rate {q0} -> {q1}");
            assert!((p0 - p1) / p0 > 0.15, "plain rate {p0} -> {p1}");
        }
    }

    #[test]
    fn a_uniform_slow_down_moves_the_quiet_estimates_one_for_one() {
        let (q0, _) = latency_run(7, |_| 1.0);
        let (q1, _) = latency_run(7, |_| 1.1);
        assert!(((q1 / q0) - 1.1).abs() < 0.005, "latency ratio {}", q1 / q0);
        let (q0, _) = rate_run(7, |_| 1.0);
        let (q1, _) = rate_run(7, |_| 1.1);
        assert!(((q0 / q1) - 1.1).abs() < 0.005, "rate ratio {}", q0 / q1);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_over_median(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn slices_close_on_fixed_work() {
        let mut r = RateSlices::new(100);
        let t0 = Instant::now();
        r.restart();
        r.add(60, t0 + std::time::Duration::from_millis(5));
        assert!(r.rates.is_empty());
        r.add(60, t0 + std::time::Duration::from_millis(10));
        assert_eq!(r.rates.len(), 1);
        let mut l = LatencySlices::new(3);
        for v in [3.0, 1.0, 2.0, 9.0] {
            l.add(v);
        }
        assert_eq!(l.medians, vec![2.0]);
    }
}
