//! Order statistics and means. Every timing the benchmark reports is a
//! median or a tail percentile of per-operation samples, never a mean: one
//! descheduled frame must not move the number.

use std::time::Duration;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle samples for an even count); `0.0`
/// for no samples, which the callers use for "not measured here".
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` of the
/// samples at or below it. `0.0` for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile, capped at the 95th, that still has at least ten
/// samples beyond it; below twenty samples that is the median.
pub fn tail_fraction(n: usize) -> f64 {
    if n < 20 {
        return 0.5;
    }
    ((n - 10) as f64 / n as f64).min(0.95)
}

/// The tail percentile of `samples` under the ten-beyond rule.
pub fn tail(samples: &[f64]) -> f64 {
    percentile(samples, tail_fraction(samples.len()))
}

/// Geometric mean of the positive values; `0.0` when there are none.
pub fn geomean(values: &[f64]) -> f64 {
    let logs: Vec<f64> = values
        .iter()
        .filter(|v| **v > 0.0)
        .map(|v| v.ln())
        .collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// `num / den`, or `0.0` when the denominator is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 240 samples: the 95th percentile has 12 beyond it.
        assert_eq!(tail_fraction(240), 0.95);
        // 200 samples: exactly ten beyond the 95th.
        assert_eq!(tail_fraction(200), 0.95);
        // 40 samples: only the 75th leaves ten beyond.
        assert_eq!(tail_fraction(40), 0.75);
        // Too few samples for any tail: fall back to the median.
        assert_eq!(tail_fraction(19), 0.5);
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), 30.0);
        assert_eq!(v.iter().filter(|x| **x > tail(&v)).count(), 10);
    }

    #[test]
    fn geomean_ignores_unmeasured_zeros() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 0.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
