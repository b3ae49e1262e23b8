//! Statistics helpers: every number the benchmark reports goes through one
//! of these, so their definitions are pinned by unit tests.

/// Nearest-rank percentile (`q` in 0..=100) of `samples`: the smallest
/// sample with at least `q` % of the samples at or below it. Panics on an
/// empty slice — a metric with no samples is a bug in the runner.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median as the mean of the two middle samples (Python's
/// `statistics.median`), used where runs — not searches — are pooled.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Harmonic mean — the Graph500 / paper §6 way to average per-search TEPS.
pub fn harmonic_mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "harmonic mean of no samples");
    samples.len() as f64 / samples.iter().map(|x| 1.0 / x).sum::<f64>()
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them — the spread rule the acceptance runs
/// use. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median: the run-to-run spread.
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / median(samples)
}

/// 64-bit FNV-1a over a slice of 64-bit words: the fingerprint of a level
/// array (and of a CSR for the provenance block). Position-sensitive, so a
/// single perturbed entry changes it.
pub fn fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        // One extra rotation so high-order input bits reach the low ones.
        h = h.rotate_left(29);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 90.0), 5.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        // Even count: nearest rank takes the lower middle, never a mean.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn harmonic_mean_is_dominated_by_slow_searches() {
        assert_eq!(harmonic_mean(&[2.0, 2.0]), 2.0);
        assert!((harmonic_mean(&[1.0, 4.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!(harmonic_mean(&[100.0, 1.0]) < 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fingerprint_sees_one_perturbed_entry_and_order() {
        let levels: Vec<u64> = (0..1000).map(|i| i % 7).collect();
        let base = fingerprint(levels.iter().copied());
        assert_eq!(base, fingerprint(levels.iter().copied()));
        let mut bad = levels.clone();
        bad[617] += 1;
        assert_ne!(base, fingerprint(bad.iter().copied()));
        let mut swapped = levels.clone();
        swapped.swap(1, 2);
        assert_ne!(base, fingerprint(swapped.iter().copied()));
    }
}
