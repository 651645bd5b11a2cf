//! Front-end differential suite: the one-pass CSV reader, the typed-gather
//! joins and the id-table encoder against the implementations they
//! replaced ([`irma_check::csv_oracle`], [`irma_check::join_oracle`],
//! [`irma_check::encode_oracle`]).
//!
//! Each property draws its input procedurally from the case's choice
//! sequence, so the shim's shrinker minimizes it like any other strategy.
//! Rare events (corruption, ragged rows, type errors) fire on the
//! *largest* draw, so shrinking walks away from them.

use std::collections::HashMap;

use proptest::prelude::*;
use proptest::TestRng;

use irma_check::{csv_oracle, encode_oracle, join_oracle};
use irma_data::{Column, DataError, Frame};
use irma_mine::TransactionDb;
use irma_prep::{BinningScheme, EncoderSpec, FeatureSpec, SpikeBin, ZeroBin};

fn pick<'a>(rng: &mut TestRng, items: &[&'a str]) -> &'a str {
    items[rng.below(items.len() as u64) as usize]
}

/// True with probability `1/n`, on the largest draw.
fn rare(rng: &mut TestRng, n: u64) -> bool {
    rng.below(n) == n - 1
}

/// Frames equal column by column, floats bit for bit (a `NaN` cell makes
/// `Frame`'s own `==` false) and strings by codes and dictionary.
fn same_frame(a: &Frame, b: &Frame) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.names(), b.names());
    for (name, (x, y)) in a.names().iter().zip(a.columns().iter().zip(b.columns())) {
        match (x, y) {
            (Column::Float(x), Column::Float(y)) => {
                let bits = |v: &[Option<f64>]| -> Vec<Option<u64>> {
                    v.iter().map(|c| c.map(f64::to_bits)).collect()
                };
                prop_assert_eq!(bits(x), bits(y), "column {}", name);
            }
            (Column::Str(x), Column::Str(y)) => {
                prop_assert_eq!(x.codes(), y.codes(), "column {}", name);
                prop_assert_eq!(x.dict(), y.dict(), "column {}", name);
            }
            (x, y) => prop_assert_eq!(x, y, "column {}", name),
        }
    }
    Ok(())
}

fn same_result(
    got: irma_data::Result<Frame>,
    want: irma_data::Result<Frame>,
) -> Result<(), TestCaseError> {
    match (got, want) {
        (Ok(got), Ok(want)) => same_frame(&got, &want),
        (Err(got), Err(want)) => {
            prop_assert_eq!(got, want);
            Ok(())
        }
        (got, want) => Err(TestCaseError::fail(format!(
            "outcomes differ: got {got:?}, oracle {want:?}"
        ))),
    }
}

// ---------------------------------------------------------------- CSV

/// Cell pools per column flavour; a cell occasionally comes from the
/// full pool, so columns change dtype at random rows.
const INT_CELLS: &[&str] = &["", "NA", "0", "-7", "+5", "007", "42", "-0"];
const FLOAT_CELLS: &[&str] = &[
    "",
    "nan",
    "2.5",
    "1e3",
    "inf",
    "-inf",
    "-0.0",
    "1.5e-3",
    "0",
    "9223372036854775808",
];
const BOOL_CELLS: &[&str] = &["", "NA", "true", "False", "TRUE", "false"];
const TEXT_CELLS: &[&str] = &[
    "",
    "x",
    "v100",
    "a b",
    "say \"hi\"",
    "p,q",
    "two\nlines",
    "crlf\r\nin",
    "lone\rcr",
    "ü",
    "null",
    "NaN",
];
const ALL_CELLS: &[&[&str]] = &[INT_CELLS, FLOAT_CELLS, BOOL_CELLS, TEXT_CELLS];

fn quote(cell: &str) -> String {
    format!("\"{}\"", cell.replace('"', "\"\""))
}

/// One cell as CSV text: quoted when it must be (or at random), and now
/// and then written raw although it needs quotes, or as a quoted head
/// with an unquoted tail (`"a"bc`, `""abc`).
fn encode_cell(rng: &mut TestRng, cell: &str) -> String {
    let special = cell.contains([',', '"', '\n', '\r']);
    match rng.below(9) {
        8 => cell.to_string(),
        7 if !special => format!("\"\"{cell}"),
        6 if !special && cell.len() > 1 => {
            let split = cell.char_indices().nth(1).map_or(cell.len(), |(i, _)| i);
            format!("{}{}", quote(&cell[..split]), &cell[split..])
        }
        5 => quote(cell),
        _ if special => quote(cell),
        _ => cell.to_string(),
    }
}

/// CSV text: a header (names may repeat), typed columns with nulls and
/// late dtype changes, LF or CRLF per record, an optional final
/// terminator, and rare ragged rows, bare CRs and truncations.
struct CsvText;

impl Strategy for CsvText {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let n_cols = 1 + rng.below(4) as usize;
        let n_rows = rng.below(10) as usize;
        let flavours: Vec<usize> = (0..n_cols).map(|_| rng.below(4) as usize).collect();
        let mut records: Vec<Vec<String>> = vec![(0..n_cols)
            .map(|c| {
                if rare(rng, 12) {
                    "a".to_string()
                } else {
                    ["a", "b", "c", "d"][c].to_string()
                }
            })
            .collect()];
        for _ in 0..n_rows {
            let mut row: Vec<String> = flavours
                .iter()
                .map(|&f| {
                    let pool = if rare(rng, 10) {
                        ALL_CELLS[rng.below(4) as usize]
                    } else {
                        ALL_CELLS[f]
                    };
                    let cell = pick(rng, pool);
                    encode_cell(rng, cell)
                })
                .collect();
            match rng.below(24) {
                23 => {
                    row.pop();
                }
                22 => row.push("extra".to_string()),
                _ => {}
            }
            records.push(row);
        }
        let mut text = String::new();
        let last = records.len() - 1;
        for (i, record) in records.iter().enumerate() {
            text.push_str(&record.join(","));
            if i < last || rng.below(3) != 2 {
                text.push_str(if rng.below(3) == 2 { "\r\n" } else { "\n" });
            }
        }
        let boundaries: Vec<usize> = text.char_indices().map(|(i, _)| i).collect();
        if rare(rng, 16) && !boundaries.is_empty() {
            let at = boundaries[rng.below(boundaries.len() as u64) as usize];
            text.insert(at, '\r');
        }
        if rare(rng, 16) && !boundaries.is_empty() {
            text.truncate(boundaries[rng.below(boundaries.len() as u64) as usize]);
        }
        text
    }
}

/// A large frame whose columns turn `Str` late, at different rows, after
/// holding ints, floats, bools, only nulls or quoted numbers, next to
/// columns that never switch or are text from the first row. The reader
/// reads all skipped cells back in one pass after the last record.
#[test]
fn late_str_switches_in_a_large_frame_match_oracle() {
    let n = 20_000usize;
    let mut text = String::from("int,float,nulls,bool,plain,widen,text,quoted\n");
    for r in 0..n {
        let k = (r * 7919) % 97;
        let cells = [
            if r == n - 1 {
                "late".to_string()
            } else {
                format!("{k}")
            },
            if r >= n / 2 && r % 3 == 0 {
                format!("t{}", k % 5)
            } else {
                format!("{k}.5")
            },
            match r {
                _ if r == n - 3 => "first".to_string(),
                _ if r % 2 == 0 => "NA".to_string(),
                _ => String::new(),
            },
            match r {
                _ if r == n - 2 => "7".to_string(),
                _ if k % 4 == 0 => String::new(),
                _ => (k % 2 == 0).to_string(),
            },
            format!("{}", r % 13),
            if r > n - 100 {
                format!("{k}.25")
            } else {
                format!("{k}")
            },
            format!("v{}", k % 11),
            match r {
                _ if r == n - 50 => "\"x,\"\"y\"\"\"".to_string(),
                _ if k % 3 == 0 => format!("\"{k}\""),
                _ if k % 3 == 1 => format!("\"{}\"{}", k / 10, k % 10),
                _ => format!("{k}"),
            },
        ];
        text.push_str(&cells.join(","));
        text.push_str(if r % 5 == 0 { "\r\n" } else { "\n" });
    }
    let got = irma_data::read_csv_str(&text);
    let str_columns = got.as_ref().map(|f| {
        f.columns()
            .iter()
            .filter(|c| c.dtype() == irma_data::DType::Str)
            .count()
    });
    assert_eq!(str_columns.ok(), Some(6));
    same_result(got, csv_oracle::read_csv_str(&text)).unwrap();
}

// --------------------------------------------------------------- joins

/// A key column of `n` rows: Int, Str or Bool keys from a small domain
/// (duplicates and nulls likely), or rarely a Float column.
fn key_column(rng: &mut TestRng, kind: u64, n: usize) -> Column {
    let draw = |rng: &mut TestRng| (rng.below(6) != 5).then(|| rng.below(5) as i64);
    let keys: Vec<Option<i64>> = (0..n).map(|_| draw(rng)).collect();
    match kind {
        0 => Column::from_opt_ints(keys),
        1 => {
            let names: Vec<Option<String>> =
                keys.iter().map(|k| k.map(|k| format!("k{k}"))).collect();
            Column::from_opt_strs(names.iter().map(Option::as_deref))
        }
        2 => Column::Bool(keys.iter().map(|k| k.map(|k| k % 2 == 0)).collect()),
        _ => Column::from_opt_floats(keys.iter().map(|k| k.map(|k| k as f64))),
    }
}

/// A value column of `n` rows of a random dtype, nulls included.
fn value_column(rng: &mut TestRng, n: usize) -> Column {
    let kind = rng.below(4);
    let mut cells = Vec::with_capacity(n);
    for _ in 0..n {
        cells.push((rng.below(5) != 4).then(|| rng.below(4)));
    }
    match kind {
        0 => Column::from_opt_ints(cells.iter().map(|c| c.map(|v| v as i64 - 1))),
        1 => Column::from_opt_floats(
            cells
                .iter()
                .map(|c| c.map(|v| [f64::NAN, -0.0, 0.5, f64::INFINITY][v as usize])),
        ),
        2 => Column::Bool(cells.iter().map(|c| c.map(|v| v % 2 == 0)).collect()),
        _ => {
            let text = ["zeta", "alpha", "", "beta"];
            Column::from_opt_strs(cells.iter().map(|c| c.map(|v| text[v as usize])))
        }
    }
}

/// A frame keyed on `k` (rarely without it) with a few value columns
/// whose names collide with the other side's now and then.
fn join_frame(rng: &mut TestRng, key_kind: u64, names: &[&str]) -> Frame {
    let n = rng.below(8) as usize;
    let mut frame = Frame::new();
    let kind = if rare(rng, 8) { 3 } else { key_kind };
    let mut columns = vec![("k".to_string(), key_column(rng, kind, n))];
    for _ in 0..rng.below(4) {
        columns.push((pick(rng, names).to_string(), value_column(rng, n)));
    }
    if rare(rng, 16) {
        columns.remove(0);
    }
    for (name, column) in columns {
        if !frame.has_column(&name) {
            frame.add_column(&name, column).expect("equal lengths");
        }
    }
    frame
}

struct JoinPair;

impl Strategy for JoinPair {
    type Value = (Frame, Frame);

    fn generate(&self, rng: &mut TestRng) -> (Frame, Frame) {
        let left_kind = rng.below(3);
        let right_kind = if rare(rng, 6) {
            rng.below(3)
        } else {
            left_kind
        };
        let left = join_frame(rng, left_kind, &["user", "a", "b", "b_right"]);
        let right = join_frame(rng, right_kind, &["user", "b", "c", "b_right"]);
        (left, right)
    }
}

// ------------------------------------------------------------- encoder

const CATEGORIES: &[&str] = &["resnet", "vgg", "bert", "Pass", "Failed", ""];
const USERS: &[&str] = &["alice", "bob", "carol", "dave", "erin", "frank"];

/// A frame with two numeric columns (zeros of both signs, a repeated
/// spike value, ties, non-finite values, nulls), a category, a user id
/// and a GPU count.
fn encoder_frame(rng: &mut TestRng, n: usize) -> Frame {
    let numbers = [0.0, -0.0, 0.5, 600.0, 600.0, 600.0, 3.0, 7.5, 42.0, 1e6];
    let mut num = Vec::with_capacity(n);
    let mut wait = Vec::with_capacity(n);
    let mut cat = Vec::with_capacity(n);
    let mut user = Vec::with_capacity(n);
    let mut gpus = Vec::with_capacity(n);
    for _ in 0..n {
        num.push(match rng.below(14) {
            13 => None,
            12 => Some(f64::NAN),
            11 => Some(if rng.below(2) == 0 {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            }),
            i => Some(if i < 10 {
                numbers[i as usize]
            } else {
                rng.below(1000) as f64 / 8.0
            }),
        });
        wait.push((rng.below(8) != 7).then(|| rng.below(6) as i64 * 100));
        cat.push((rng.below(8) != 7).then(|| pick(rng, CATEGORIES)));
        // Skewed users: low codes dominate.
        let u = (rng.below(6) * rng.below(6) / 5) as usize;
        user.push((rng.below(10) != 9).then_some(USERS[u]));
        gpus.push((rng.below(8) != 7).then(|| rng.below(4) as i64));
    }
    let mut frame = Frame::new();
    let columns = [
        ("num", Column::from_opt_floats(num)),
        ("wait", Column::from_opt_ints(wait)),
        ("cat", Column::from_opt_strs(cat)),
        ("user", Column::from_opt_strs(user)),
        ("gpus", Column::from_opt_ints(gpus)),
    ];
    for (name, column) in columns {
        frame.add_column(name, column).expect("equal lengths");
    }
    frame
}

fn numeric_feature(rng: &mut TestRng, column: &str, display: &str) -> FeatureSpec {
    FeatureSpec::Numeric {
        column: column.to_string(),
        display: display.to_string(),
        n_bins: 1 + rng.below(5) as usize,
        scheme: if rng.below(4) == 3 {
            BinningScheme::EqualWidth
        } else {
            BinningScheme::EqualFrequency
        },
        zero: (rng.below(2) == 1).then(|| ZeroBin {
            threshold: [0.0, 0.5, 100.0][rng.below(3) as usize],
            label: "0".to_string(),
        }),
        spike: (rng.below(2) == 1).then(|| SpikeBin {
            min_share: [0.0, 0.2, 0.4][rng.below(3) as usize],
            label: "Std".to_string(),
        }),
    }
}

/// A spec over the encoder frame's columns: every feature kind, with
/// zero bins, spikes, remaps onto shared labels, skips, an empty display
/// and, sometimes, two features on one column.
struct EncoderCase;

impl Strategy for EncoderCase {
    type Value = (Frame, Frame, EncoderSpec);

    fn generate(&self, rng: &mut TestRng) -> (Frame, Frame, EncoderSpec) {
        let n = rng.below(40) as usize;
        let train = encoder_frame(rng, n);
        let heldout_rows = rng.below(10) as usize;
        let heldout = encoder_frame(rng, heldout_rows);
        let mut features = vec![
            numeric_feature(rng, "num", "Num"),
            numeric_feature(rng, "wait", "Wait"),
        ];
        let mut remap = HashMap::new();
        if rng.below(2) == 1 {
            remap.insert("resnet".to_string(), "CV".to_string());
            remap.insert("vgg".to_string(), "CV".to_string());
            remap.insert("bert".to_string(), "Pass".to_string());
        }
        let skip = match rng.below(3) {
            0 => Vec::new(),
            1 => vec!["Pass".to_string()],
            _ => vec!["CV".to_string(), "".to_string()],
        };
        features.push(FeatureSpec::Categorical {
            column: "cat".to_string(),
            display: if rng.below(2) == 0 {
                String::new()
            } else {
                "Model".to_string()
            },
            remap,
            skip,
        });
        features.push(FeatureSpec::FrequencyClass {
            column: "user".to_string(),
            head_label: "Freq User".to_string(),
            tail_label: if rare(rng, 8) {
                "Freq User"
            } else {
                "New User"
            }
            .to_string(),
            head_share: [0.1, 0.25, 0.6][rng.below(3) as usize],
            tail_share: [0.1, 0.25, 0.6][rng.below(3) as usize],
        });
        features.push(FeatureSpec::Flag {
            column: "gpus".to_string(),
            label: "Multi-GPU".to_string(),
            greater_than: 1.0,
        });
        if rare(rng, 4) {
            features.push(numeric_feature(rng, "num", "Num"));
        }
        if rare(rng, 4) {
            features.push(FeatureSpec::Flag {
                column: "num".to_string(),
                label: "Model = CV".to_string(),
                greater_than: 7.0,
            });
        }
        let order = proptest_shuffle(rng, features.len());
        let features = order.into_iter().map(|i| features[i].clone()).collect();
        let spec = EncoderSpec {
            features,
            drop_prevalence: [0.3, 0.8, 1.0][rng.below(3) as usize],
        };
        (train, heldout, spec)
    }
}

fn proptest_shuffle(rng: &mut TestRng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

fn same_db(got: &TransactionDb, want: &TransactionDb) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len());
    prop_assert_eq!(got.n_items(), want.n_items());
    for t in 0..want.len() {
        prop_assert_eq!(got.transaction(t), want.transaction(t), "row {}", t);
    }
    Ok(())
}

fn bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

proptest! {
    #![proptest_config(irma_check::config())]

    #[test]
    fn csv_reader_matches_three_pass_oracle(text in CsvText) {
        same_result(irma_data::read_csv_str(&text), csv_oracle::read_csv_str(&text))?;
        prop_assert_eq!(
            irma_data::parse_records(&text),
            csv_oracle::parse_records(&text)
        );
    }

    #[test]
    fn joins_match_cell_by_cell_oracle((left, right) in JoinPair) {
        same_result(
            irma_data::inner_join(&left, &right, "k"),
            join_oracle::inner_join(&left, &right, "k"),
        )?;
        same_result(
            irma_data::left_join(&left, &right, "k"),
            join_oracle::left_join(&left, &right, "k"),
        )?;
        // The typed gather behind `take` re-codes like re-interning did.
        let rows: Vec<usize> = (0..left.n_rows()).rev().chain(0..left.n_rows()).collect();
        let mut taken = Frame::new();
        for (name, col) in left.names().iter().zip(left.columns()) {
            let mut want = Column::with_capacity(col.dtype(), rows.len());
            for &r in &rows {
                want.push_value(name, col.get(r)).map_err(|e: DataError| TestCaseError::fail(e.to_string()))?;
            }
            taken.add_column(name, want).map_err(|e| TestCaseError::fail(e.to_string()))?;
        }
        same_frame(&left.take(&rows), &taken)?;
    }

    #[test]
    fn encoder_matches_label_emitting_oracle((train, heldout, spec) in EncoderCase) {
        let fitted = irma_prep::fit(&train, &spec);
        let want = encode_oracle::fit(&train, &spec);
        prop_assert_eq!(fitted.catalog().labels(), want.catalog.labels());
        let report = fitted.report();
        prop_assert_eq!(report.n_items_before_drop, want.n_items_before_drop);
        let dropped = |d: &[(String, f64)]| -> Vec<(String, u64)> {
            d.iter().map(|(l, s)| (l.clone(), s.to_bits())).collect()
        };
        prop_assert_eq!(dropped(&report.dropped), dropped(&want.dropped));
        prop_assert_eq!(report.numeric_fits.len(), want.numeric_fits.len());
        for (column, fit) in &want.numeric_fits {
            let got = report.numeric_fits.get(column);
            prop_assert!(got.is_some(), "no fit for {}", column);
            let got = got.expect("checked");
            prop_assert_eq!(&got.display, &fit.display);
            prop_assert_eq!(bits(got.spike_value), bits(fit.spike_value), "spike of {}", column);
            let edges = |e: Option<Vec<f64>>| e.map(|e| e.into_iter().map(f64::to_bits).collect::<Vec<_>>());
            prop_assert_eq!(
                edges(got.edges.as_ref().map(|e| e.edges().to_vec())),
                edges(fit.edges.clone()),
                "edges of {}", column
            );
        }
        same_db(&fitted.transform(&train), &want.transform(&train))?;
        same_db(&fitted.transform(&heldout), &want.transform(&heldout))?;
        let encoded = irma_prep::encode(&train, &spec);
        same_db(&encoded.db, &want.transform(&train))?;
    }
}
