//! Sample statistics: the percentile rule of the latency metrics and the
//! quartile spread the repeatability report uses.

/// Nearest-rank percentile `p` (0–100) of sorted samples.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((sorted.len() as f64) * p / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(sorted: &[u64]) -> u64 {
    percentile(sorted, 50.0)
}

/// Percentiles a tail metric may report, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// The percentile rule: the highest percentile on the ladder, not above
/// `want`, that still has at least ten of `samples` beyond it.
pub fn tail_percentile(samples: usize, want: f64) -> f64 {
    TAIL_LADDER
        .into_iter()
        .filter(|&p| p <= want)
        .find(|&p| (samples as f64) * (100.0 - p) / 100.0 >= 10.0)
        .unwrap_or(50.0)
}

/// The percentile the rule picks for these samples, and its value.
pub fn tail(sorted: &[u64], want: f64) -> (f64, u64) {
    let p = tail_percentile(sorted.len(), want);
    (p, percentile(sorted, p))
}

/// Throughput and latency of one class of request over a window, made
/// steady against stalls and bursts of a shared host: the window is cut
/// into equal slices, each slice gives its own count, median and tail, and
/// the medians over the slices are reported. What a single long stall does
/// to the clients shows in the per-layer stall metrics instead.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sliced {
    pub per_s: f64,
    pub p50_ns: f64,
    /// The percentile the typical slice supports under the rule, and the
    /// median over the slices of that percentile.
    pub tail_pct: f64,
    pub tail_ns: f64,
    pub samples: u64,
}

/// `done` holds `(completion time, latency)` of every request that
/// completed in `[from_ns, to_ns)`.
pub fn sliced(
    done: &[(u64, u64)],
    from_ns: u64,
    to_ns: u64,
    slices: usize,
    want: f64,
) -> Option<Sliced> {
    let width = (to_ns - from_ns) as f64 / slices as f64;
    let mut by_slice: Vec<Vec<u64>> = vec![Vec::new(); slices];
    for &(at, lat) in done.iter().filter(|d| (from_ns..to_ns).contains(&d.0)) {
        let i = (((at - from_ns) as f64 / width) as usize).min(slices - 1);
        by_slice[i].push(lat);
    }
    let samples: usize = by_slice.iter().map(Vec::len).sum();
    if samples == 0 {
        return None;
    }
    let counts: Vec<f64> = by_slice.iter().map(|s| s.len() as f64).collect();
    let tail_pct = tail_percentile(median_f64(&counts) as usize, want);
    let (mut p50s, mut tails) = (Vec::new(), Vec::new());
    for s in by_slice.iter_mut().filter(|s| !s.is_empty()) {
        s.sort_unstable();
        p50s.push(median(s) as f64);
        tails.push(percentile(s, tail_pct) as f64);
    }
    Some(Sliced {
        per_s: median_f64(&counts) / (width / 1e9),
        p50_ns: median_f64(&p50s),
        tail_pct,
        tail_ns: median_f64(&tails),
        samples: samples as u64,
    })
}

pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (exclusive method) — the driver's spread is `(q3 - q1) /
/// median`.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let many: Vec<u64> = (1..=1_000).collect();
        assert_eq!(tail(&many, 99.0), (99.0, 990));
        // 999 samples leave 9.99 beyond p99: fall to p95.
        assert_eq!(tail(&many[..999], 99.0).0, 95.0);
        // 200 samples support p95 exactly; 199 do not.
        assert_eq!(tail(&many[..200], 99.0).0, 95.0);
        assert_eq!(tail(&many[..199], 99.0).0, 90.0);
        // Never above what was asked for, and never below the median.
        assert_eq!(tail(&many, 95.0).0, 95.0);
        assert_eq!(tail(&many[..5], 99.0), (50.0, 3));
    }

    #[test]
    fn slices_report_the_typical_slice_not_the_stall() {
        // 10 slices of 1 s; 200 requests of 1 ms in each, except that one
        // slice stalls: 20 requests of 50 ms.
        let mut done = Vec::new();
        for slice in 0..10u64 {
            let (n, lat) = if slice == 4 {
                (20, 50_000_000)
            } else {
                (200, 1_000_000)
            };
            for i in 0..n {
                done.push((slice * 1_000_000_000 + i * 1_000_000, lat + i));
            }
        }
        let s = sliced(&done, 0, 10_000_000_000, 10, 99.0).expect("samples");
        assert_eq!(s.per_s, 200.0);
        assert_eq!(s.samples, 9 * 200 + 20);
        // 200 per slice leave ten beyond p95, not beyond p99.
        assert_eq!(s.tail_pct, 95.0);
        assert!((1_000_000.0..1_000_200.0).contains(&s.p50_ns));
        assert!((1_000_000.0..1_000_200.0).contains(&s.tail_ns));
        assert_eq!(sliced(&[], 0, 10, 10, 99.0), None);
        // Completions outside the window do not count.
        assert_eq!(sliced(&[(11, 5)], 0, 10, 10, 99.0), None);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(median(&v), 5);
        assert_eq!(percentile(&v, 90.0), 9);
        assert_eq!(percentile(&v, 100.0), 10);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
