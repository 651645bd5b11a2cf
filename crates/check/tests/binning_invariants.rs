//! Binning invariants: histograms conserve mass, assignment is monotone
//! with right-closed tie semantics, non-finite inputs never shift an
//! edge, and the selection-based edges and counting spike detector agree
//! bit for bit with the sort-based reference.

use proptest::prelude::*;

use irma_check::encode_oracle;
use irma_prep::{detect_spike, BinEdges, BinningScheme};

fn arb_values() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1.0e9f64..1.0e9, 1..200)
}

fn arb_scheme() -> impl Strategy<Value = BinningScheme> {
    proptest::any::<bool>().prop_map(|eq_freq| {
        if eq_freq {
            BinningScheme::EqualFrequency
        } else {
            BinningScheme::EqualWidth
        }
    })
}

proptest! {
    #![proptest_config(irma_check::config())]

    #[test]
    fn histogram_conserves_mass(
        values in arb_values(),
        n_bins in 1usize..=8,
        scheme in arb_scheme(),
    ) {
        let edges = BinEdges::fit(&values, n_bins, scheme).expect("non-empty input");
        let hist = edges.histogram(&values);
        prop_assert_eq!(hist.len(), n_bins);
        prop_assert_eq!(hist.iter().sum::<usize>(), values.len());
    }

    #[test]
    fn assign_is_monotone_and_in_range(
        values in arb_values(),
        probes in proptest::collection::vec(-2.0e9f64..2.0e9, 2..40),
        n_bins in 1usize..=8,
        scheme in arb_scheme(),
    ) {
        let edges = BinEdges::fit(&values, n_bins, scheme).expect("non-empty input");
        let mut sorted = probes;
        sorted.sort_unstable_by(f64::total_cmp);
        let bins: Vec<usize> = sorted.iter().map(|&v| edges.assign(v)).collect();
        for pair in bins.windows(2) {
            prop_assert!(pair[0] <= pair[1], "assign not monotone: {:?}", bins);
        }
        for &b in &bins {
            prop_assert!(b < n_bins);
        }
    }

    #[test]
    fn edges_sorted_and_ties_right_closed(
        values in arb_values(),
        n_bins in 2usize..=8,
        scheme in arb_scheme(),
    ) {
        let edges = BinEdges::fit(&values, n_bins, scheme).expect("non-empty input");
        let interior = edges.edges();
        prop_assert_eq!(interior.len(), n_bins - 1);
        for pair in interior.windows(2) {
            prop_assert!(pair[0] <= pair[1], "edges unsorted: {:?}", interior);
        }
        // Right-closed intervals: a value equal to edge i lands at or
        // below bin i (strictly below when earlier edges tie with it).
        for (i, &edge) in interior.iter().enumerate() {
            prop_assert!(edges.assign(edge) <= i, "edge {} assigned above its bin", edge);
        }
    }

    #[test]
    fn non_finite_values_never_shift_edges(
        values in arb_values(),
        // Positions (mod len+1) at which to splice sentinels in.
        splices in proptest::collection::vec((0usize..256, 0u8..3), 0..8),
        n_bins in 1usize..=8,
        scheme in arb_scheme(),
    ) {
        let mut dirty = values.clone();
        for (pos, kind) in splices {
            let sentinel = match kind {
                0 => f64::NAN,
                1 => f64::INFINITY,
                _ => f64::NEG_INFINITY,
            };
            let at = pos % (dirty.len() + 1);
            dirty.insert(at, sentinel);
        }
        let clean = BinEdges::fit(&values, n_bins, scheme).expect("non-empty input");
        let spliced = BinEdges::fit(&dirty, n_bins, scheme).expect("finite values remain");
        prop_assert_eq!(clean, spliced);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded(
        values in arb_values(),
        qs in proptest::collection::vec(0.0f64..=1.0, 2..10),
    ) {
        let mut sorted = values;
        sorted.sort_unstable_by(f64::total_cmp);
        let mut qs = qs;
        qs.sort_unstable_by(f64::total_cmp);
        let lo = sorted[0];
        let hi = sorted[sorted.len() - 1];
        let mut last = f64::NEG_INFINITY;
        for &q in &qs {
            let v = irma_prep::quantile_sorted(&sorted, q);
            prop_assert!((lo..=hi).contains(&v), "quantile {} out of range", v);
            prop_assert!(v >= last, "quantile not monotone in q");
            last = v;
        }
    }

    #[test]
    fn selection_edges_and_spikes_match_sort_reference(
        // Indices into a pool with heavy ties, both zeros, NaN and ±inf.
        picks in proptest::collection::vec(0usize..12, 0..120),
        spread in proptest::collection::vec(-1.0e3f64..1.0e3, 0..40),
        n_bins in 1usize..=8,
        scheme in arb_scheme(),
        min_share in 0.0f64..0.6,
    ) {
        let pool = [
            0.0, -0.0, 0.0, 600.0, 600.0, 1.5, -2.25, f64::NAN, -f64::NAN,
            f64::INFINITY, f64::NEG_INFINITY, 1e300,
        ];
        let mut values: Vec<f64> = picks.iter().map(|&i| pool[i]).collect();
        values.extend(spread);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let got = BinEdges::fit(&values, n_bins, scheme);
        let want = encode_oracle::fit_edges(&values, n_bins, scheme);
        prop_assert_eq!(
            got.as_ref().map(|e| bits(e.edges())),
            want.as_ref().map(|e| bits(e))
        );
        prop_assert_eq!(
            detect_spike(&values, min_share).map(f64::to_bits),
            encode_oracle::detect_spike(&values, min_share).map(f64::to_bits)
        );
    }
}
