//! Order statistics and the naming rule shared by every metric.

/// A tail percentile is reported only when at least this many samples lie
/// strictly beyond it; below that it is mostly one unlucky sample.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (0 < q ≤ 1) of `samples`.
///
/// Failed operations enter as `f64::INFINITY`, so they count as missing
/// every latency limit. The median (`q ≤ 0.5`) is always reported for a
/// non-empty sample; a tail (`q > 0.5`) is refused (`None`) unless at
/// least [`TAIL_MIN_BEYOND`] samples lie beyond its rank.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if q > 0.5 && n - rank < TAIL_MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The median of `samples` (nearest rank), `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// The median over windows of each window's percentile `q`. `ends[i]` is
/// where window `i` ends in `samples`; the last window runs to the end of
/// `samples`, and no `ends` means one window. `None` when any window
/// cannot report `q`.
pub fn windowed_percentile(samples: &[f64], ends: &[usize], q: f64) -> Option<f64> {
    let mut per_window = Vec::with_capacity(ends.len().max(1));
    let mut start = 0;
    for (i, &end) in ends.iter().enumerate() {
        let end = if i + 1 == ends.len() {
            samples.len()
        } else {
            end
        };
        per_window.push(percentile(&samples[start..end], q)?);
        start = end;
    }
    if ends.is_empty() {
        per_window.push(percentile(samples, q)?);
    }
    median(&per_window)
}

/// Smallest sample count for which [`percentile`] reports `q`.
pub fn samples_needed(q: f64) -> usize {
    if q <= 0.5 {
        return 1;
    }
    // n - ceil(q n) >= TAIL_MIN_BEYOND, searched upward from the estimate.
    let mut n = (TAIL_MIN_BEYOND as f64 / (1.0 - q)).floor() as usize;
    while n - ((q * n as f64).ceil() as usize).min(n) < TAIL_MIN_BEYOND {
        n += 1;
    }
    n
}

/// Metric and workload names: 1–64 characters from `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_refuses_with_fewer_than_ten_beyond() {
        // p99 of 1000 samples has exactly 10 beyond its rank (990).
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 0.99), Some(990.0));
        assert_eq!(percentile(&thousand[..999], 0.99), None);
        // p90 needs 100 samples.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Some(90.0));
        assert_eq!(percentile(&hundred[..99], 0.9), None);
        assert_eq!(samples_needed(0.99), 1000);
        assert_eq!(samples_needed(0.9), 100);
        assert_eq!(samples_needed(0.5), 1);
    }

    #[test]
    fn windowed_tails_take_the_median_window() {
        // Three windows of 1000; the middle one has a hiccup in its tail.
        let mut samples: Vec<f64> = (0..3000).map(|i| f64::from(i % 1000)).collect();
        for s in &mut samples[1990..2000] {
            *s = 1e6;
        }
        // The last window also takes the 5 samples after its end index.
        samples.extend([0.0; 5]);
        let p99 = windowed_percentile(&samples, &[1000, 2000, 3000], 0.99).unwrap();
        assert_eq!(p99, 989.0);
        assert_eq!(percentile(&samples, 0.99), Some(989.0));
        assert_eq!(
            windowed_percentile(&samples[..1000], &[], 0.99),
            Some(989.0)
        );
        // A window too small for the tail refuses the whole metric.
        assert_eq!(
            windowed_percentile(&samples, &[1000, 1500, 3000], 0.99),
            None
        );
    }

    #[test]
    fn median_is_nearest_rank_and_always_reported() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn failures_are_latency_misses() {
        let mut samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        for s in samples.iter_mut().rev().take(11) {
            *s = f64::INFINITY;
        }
        assert_eq!(percentile(&samples, 0.99), Some(f64::INFINITY));
        assert!(percentile(&samples, 0.5).unwrap().is_finite());
    }

    #[test]
    fn names_follow_the_charset() {
        for ok in ["events_per_s", "net.poll_us_p99", "corpus-inproc", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "ümlaut",
            "a/b",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
