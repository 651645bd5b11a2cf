//! The pre-rewrite encoder and sort-based binning, kept as the
//! differential oracle.
//!
//! The library's encoder resolves each feature's labels to item ids once
//! and writes the transaction buffer directly, and its binning selects
//! quantiles instead of sorting. This module keeps what they replaced:
//! [`fit`] and [`Fitted::transform`] format a label for every emitting
//! cell and intern it (fit) or look it up (transform) row by row, then
//! build the database with `TransactionDb::from_transactions`; bin edges
//! come from a full sort ([`fit_edges`]) and spikes from a sorted run
//! scan ([`detect_spike`]). The `ingest_differential` suite asserts the
//! library yields the same catalog, report and transactions, and
//! `binning_invariants` pins edges and spikes bit for bit to these.

use std::collections::{HashMap, HashSet};

use irma_data::Frame;
use irma_mine::{ItemCatalog, ItemId, TransactionDb};
use irma_prep::{try_quantile_sorted, BinningScheme, EncoderSpec, FeatureSpec};

/// Sort-based bin edges: the old `BinEdges::fit`, returning the interior
/// edges (`None` when no finite value remains).
pub fn fit_edges(values: &[f64], n_bins: usize, scheme: BinningScheme) -> Option<Vec<f64>> {
    assert!(n_bins >= 1, "need at least one bin");
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_unstable_by(f64::total_cmp);
    Some(match scheme {
        BinningScheme::EqualFrequency => (1..n_bins)
            .map(|i| try_quantile_sorted(&sorted, i as f64 / n_bins as f64))
            .collect::<Option<Vec<f64>>>()?,
        BinningScheme::EqualWidth => {
            let lo = sorted[0];
            let hi = sorted[sorted.len() - 1];
            let width = (hi - lo) / n_bins as f64;
            (1..n_bins).map(|i| lo + width * i as f64).collect()
        }
    })
}

/// Sort-based spike detection: the old `detect_spike`, a scan over runs
/// of `==` values in sorted order where the first strictly largest run
/// wins. The old loop never advanced past a NaN (`NaN != NaN`); here a
/// NaN is skipped, so it is never the spike but stays in the share's
/// denominator.
pub fn detect_spike(values: &[f64], min_share: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let mut best_value = sorted[0];
    let mut best_count = 0usize;
    let mut i = 0;
    while i < sorted.len() {
        if sorted[i].is_nan() {
            i += 1;
            continue;
        }
        let mut j = i;
        while j < sorted.len() && sorted[j] == sorted[i] {
            j += 1;
        }
        if j - i > best_count {
            best_count = j - i;
            best_value = sorted[i];
        }
        i = j;
    }
    if best_count > 0 && best_count as f64 / values.len() as f64 >= min_share {
        Some(best_value)
    } else {
        None
    }
}

/// Fit state for one numeric feature (edges as a plain vector).
#[derive(Debug, Clone)]
pub struct NumericFit {
    /// Display name of the feature.
    pub display: String,
    /// Detected standard/default value, if any.
    pub spike_value: Option<f64>,
    /// Interior edges fitted on values outside the zero and spike bins.
    pub edges: Option<Vec<f64>>,
}

#[derive(Debug, Clone, Default)]
struct FrequencyFit {
    head: HashSet<String>,
    tail: HashSet<String>,
}

/// A reference fit: the frozen vocabulary plus the fit diagnostics.
#[derive(Debug, Clone)]
pub struct Fitted {
    spec: EncoderSpec,
    /// Per numeric column: the fit.
    pub numeric_fits: HashMap<String, NumericFit>,
    frequency_fits: HashMap<String, FrequencyFit>,
    /// The item vocabulary after the prevalence cut.
    pub catalog: ItemCatalog,
    /// Labels dropped by the prevalence cut-off, with their share.
    pub dropped: Vec<(String, f64)>,
    /// Item count before the prevalence cut.
    pub n_items_before_drop: usize,
}

fn fit_frequency(frame: &Frame, column: &str, head_share: f64, tail_share: f64) -> FrequencyFit {
    let counts = frame
        .value_counts(column)
        .expect("frequency feature requires a string column");
    let total: usize = counts.iter().map(|(_, c)| c).sum();
    let mut fit = FrequencyFit::default();
    if total == 0 {
        return fit;
    }
    let mut cum = 0usize;
    for (value, count) in &counts {
        cum += count;
        fit.head.insert(value.clone());
        if cum as f64 / total as f64 >= head_share {
            break;
        }
    }
    let mut back = 0usize;
    for (value, count) in counts.iter().rev() {
        back += count;
        fit.tail.insert(value.clone());
        if back as f64 / total as f64 >= tail_share {
            break;
        }
    }
    for v in &fit.head {
        fit.tail.remove(v);
    }
    fit
}

/// Emits each row's item labels for one feature via `sink(row, label)`.
fn emit_feature<F: FnMut(usize, &str)>(
    frame: &Frame,
    feature: &FeatureSpec,
    numeric_fits: &HashMap<String, NumericFit>,
    frequency_fits: &HashMap<String, FrequencyFit>,
    mut sink: F,
) {
    let n_rows = frame.n_rows();
    match feature {
        FeatureSpec::Numeric { column, zero, .. } => {
            let fit = &numeric_fits[column];
            let col = frame.column(column).expect("numeric column");
            for r in 0..n_rows {
                let Some(v) = col.numeric(r).filter(|v| v.is_finite()) else {
                    continue;
                };
                if let Some(z) = zero.as_ref().filter(|z| v <= z.threshold) {
                    sink(r, &format!("{} = {}", fit.display, z.label));
                } else if fit.spike_value == Some(v) {
                    sink(r, &format!("{} = Std", fit.display));
                } else if let Some(edges) = &fit.edges {
                    let bin = edges.partition_point(|&e| e < v);
                    sink(r, &format!("{} = Bin{}", fit.display, bin + 1));
                }
            }
        }
        FeatureSpec::Categorical {
            column,
            display,
            remap,
            skip,
        } => {
            let storage = frame
                .column(column)
                .expect("categorical column")
                .as_strs()
                .expect("string column");
            for r in 0..n_rows {
                let Some(raw) = storage.get(r) else { continue };
                let value = remap.get(raw).map(String::as_str).unwrap_or(raw);
                if skip.iter().any(|s| s == value) {
                    continue;
                }
                if display.is_empty() {
                    sink(r, value);
                } else {
                    sink(r, &format!("{display} = {value}"));
                }
            }
        }
        FeatureSpec::FrequencyClass {
            column,
            head_label,
            tail_label,
            ..
        } => {
            let fit = &frequency_fits[column];
            let storage = frame
                .column(column)
                .expect("frequency column")
                .as_strs()
                .expect("string column");
            for r in 0..n_rows {
                let Some(value) = storage.get(r) else {
                    continue;
                };
                if fit.head.contains(value) {
                    sink(r, head_label);
                } else if fit.tail.contains(value) {
                    sink(r, tail_label);
                }
            }
        }
        FeatureSpec::Flag {
            column,
            label,
            greater_than,
        } => {
            let col = frame.column(column).expect("flag column");
            for r in 0..n_rows {
                if col.numeric(r).is_some_and(|v| v > *greater_than) {
                    sink(r, label);
                }
            }
        }
    }
}

/// Reference for [`irma_prep::fit`].
pub fn fit(frame: &Frame, spec: &EncoderSpec) -> Fitted {
    let n_rows = frame.n_rows();
    let mut numeric_fits: HashMap<String, NumericFit> = HashMap::new();
    let mut frequency_fits: HashMap<String, FrequencyFit> = HashMap::new();
    for feature in &spec.features {
        match feature {
            FeatureSpec::Numeric {
                column,
                display,
                n_bins,
                scheme,
                zero,
                spike,
            } => {
                let col = frame.column(column).expect("numeric column");
                let mut values: Vec<f64> = (0..n_rows)
                    .filter_map(|r| col.numeric(r))
                    .filter(|v| v.is_finite())
                    .collect();
                if let Some(z) = zero {
                    values.retain(|&v| v > z.threshold);
                }
                let spike_value = spike
                    .as_ref()
                    .and_then(|s| detect_spike(&values, s.min_share));
                if let Some(sv) = spike_value {
                    values.retain(|&v| v != sv);
                }
                numeric_fits.insert(
                    column.clone(),
                    NumericFit {
                        display: display.clone(),
                        spike_value,
                        edges: fit_edges(&values, *n_bins, *scheme),
                    },
                );
            }
            FeatureSpec::FrequencyClass {
                column,
                head_share,
                tail_share,
                ..
            } => {
                frequency_fits.insert(
                    column.clone(),
                    fit_frequency(frame, column, *head_share, *tail_share),
                );
            }
            _ => {}
        }
    }

    let mut prelim = ItemCatalog::new();
    let mut counts: Vec<usize> = Vec::new();
    for feature in &spec.features {
        emit_feature(
            frame,
            feature,
            &numeric_fits,
            &frequency_fits,
            |_, label| {
                let id = prelim.intern(label) as usize;
                if id >= counts.len() {
                    counts.resize(id + 1, 0);
                }
                counts[id] += 1;
            },
        );
    }

    let mut dropped = Vec::new();
    let mut catalog = ItemCatalog::new();
    for (id, label) in prelim.labels().iter().enumerate() {
        let share = counts[id] as f64 / n_rows.max(1) as f64;
        if share > spec.drop_prevalence {
            dropped.push((label.clone(), share));
        } else {
            catalog.intern(label);
        }
    }

    Fitted {
        spec: spec.clone(),
        numeric_fits,
        frequency_fits,
        catalog,
        dropped,
        n_items_before_drop: prelim.len(),
    }
}

impl Fitted {
    /// Reference for [`irma_prep::FittedEncoder::transform`].
    pub fn transform(&self, frame: &Frame) -> TransactionDb {
        let mut rows: Vec<Vec<ItemId>> = vec![Vec::new(); frame.n_rows()];
        for feature in &self.spec.features {
            emit_feature(
                frame,
                feature,
                &self.numeric_fits,
                &self.frequency_fits,
                |r, label| {
                    if let Some(id) = self.catalog.id(label) {
                        rows[r].push(id);
                    }
                },
            );
        }
        TransactionDb::from_transactions(rows).with_universe(self.catalog.len().max(1))
    }
}
