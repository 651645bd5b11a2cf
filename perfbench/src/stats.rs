//! Order statistics over timing samples.

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The tail of a latency sample: the highest percentile of
/// [`TAIL_LADDER`] that still has at least ten samples beyond it, or the
/// maximum when the sample is too small for any of them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Latency at the chosen percentile.
    pub value: f64,
    /// The chosen percentile (100 = the maximum).
    pub percentile: f64,
    /// Sample count.
    pub samples: usize,
    /// Samples strictly above the chosen rank.
    pub beyond: usize,
}

/// Percentiles a tail may be reported at, lowest first.
const TAIL_LADDER: [f64; 5] = [50.0, 75.0, 90.0, 95.0, 99.0];

/// Nearest-rank tail of `values` (see [`Tail`]).
pub fn tail(values: &[f64]) -> Tail {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let mut best = Tail {
        value: sorted.last().copied().unwrap_or(0.0),
        percentile: 100.0,
        samples: n,
        beyond: 0,
    };
    for &pct in &TAIL_LADDER {
        // Nearest rank (1-based) of the percentile.
        let rank = ((pct / 100.0) * n as f64).ceil().max(1.0) as usize;
        if rank > n || n - rank < 10 {
            continue;
        }
        best = Tail {
            value: sorted[rank - 1],
            percentile: pct,
            samples: n,
            beyond: n - rank,
        };
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_beyond() {
        let small: Vec<f64> = (1..=15).map(f64::from).collect();
        let t = tail(&small);
        assert_eq!((t.value, t.percentile, t.beyond), (15.0, 100.0, 0));
        let big: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&big);
        assert_eq!((t.value, t.percentile, t.beyond), (190.0, 95.0, 10));
    }
}
