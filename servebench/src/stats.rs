//! Order statistics over measured samples.

/// The nearest-rank `q`-quantile of `samples` (sorted in place);
/// `None` when empty.
#[must_use]
pub fn quantile(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

/// The median of `samples`, or 0 when empty.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    quantile(&mut v, 0.5).unwrap_or(0.0)
}

/// The mean of `samples`, or 0 when empty.
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The mean of the middle half of `samples` (the values between the
/// first and third quartile ranks), or 0 when empty.
#[must_use]
pub fn interquartile_mean(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let (lo, hi) = (v.len() / 4, v.len() - v.len() / 4);
    mean(&v[lo..hi.max(lo + 1).min(v.len())])
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
