//! The pre-rewrite key joins, kept as the differential oracle.
//!
//! The library's joins gather typed cells directly; this is the old
//! implementation they replaced: every right-hand cell goes through
//! [`Column::get`] (a `String` per text cell) and [`Column::push_value`]
//! (hashed again), and the left side is copied by re-interning every
//! string row in output order, as the old `Column::take` did. The
//! `ingest_differential` suite asserts the library returns an equal
//! [`Frame`] (dictionaries included) or the same error.

use std::collections::HashMap;

use irma_data::{Column, DataError, Frame, Result, Value};

/// A hashable join key extracted from a column cell.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    Int(i64),
    Str(String),
    Bool(bool),
}

fn key_at(col: &Column, row: usize) -> Result<Option<Key>> {
    Ok(match col {
        Column::Int(v) => v[row].map(Key::Int),
        Column::Str(v) => v.get(row).map(|s| Key::Str(s.to_string())),
        Column::Bool(v) => v[row].map(Key::Bool),
        Column::Float(_) => {
            return Err(DataError::Join("cannot join on a float column".to_string()))
        }
    })
}

/// Builds key -> row-indices for the right frame.
fn build_index(frame: &Frame, key: &str) -> Result<HashMap<Key, Vec<usize>>> {
    let col = frame.column(key)?;
    let mut index: HashMap<Key, Vec<usize>> = HashMap::with_capacity(frame.n_rows());
    for row in 0..frame.n_rows() {
        if let Some(k) = key_at(col, row)? {
            index.entry(k).or_default().push(row);
        }
    }
    Ok(index)
}

/// The old `Frame::take`: every column rebuilt cell by cell, so string
/// dictionaries are re-interned in output-row order.
fn take(frame: &Frame, rows: &[usize]) -> Result<Frame> {
    let mut out = Frame::new();
    for (name, col) in frame.names().iter().zip(frame.columns()) {
        let mut taken = Column::with_capacity(col.dtype(), rows.len());
        for &r in rows {
            taken.push_value(name, col.get(r))?;
        }
        out.add_column(name, taken)?;
    }
    Ok(out)
}

fn join_impl(left: &Frame, right: &Frame, key: &str, keep_unmatched_left: bool) -> Result<Frame> {
    let index = build_index(right, key)?;
    let left_key = left.column(key)?;

    let mut left_rows: Vec<usize> = Vec::new();
    let mut right_rows: Vec<Option<usize>> = Vec::new();
    for row in 0..left.n_rows() {
        match key_at(left_key, row)?.and_then(|k| index.get(&k)) {
            Some(matches) => {
                for &r in matches {
                    left_rows.push(row);
                    right_rows.push(Some(r));
                }
            }
            None => {
                if keep_unmatched_left {
                    left_rows.push(row);
                    right_rows.push(None);
                }
            }
        }
    }

    let mut out = take(left, &left_rows)?;
    for (name, col) in right.names().iter().zip(right.columns()) {
        if name == key {
            continue;
        }
        let out_name = if out.has_column(name) {
            format!("{name}_right")
        } else {
            name.clone()
        };
        let mut new_col = Column::with_capacity(col.dtype(), right_rows.len());
        for r in &right_rows {
            let v = match r {
                Some(r) => col.get(*r),
                None => Value::Null,
            };
            new_col.push_value(&out_name, v)?;
        }
        out.add_column(&out_name, new_col)?;
    }
    Ok(out)
}

/// Reference inner join (see [`irma_data::inner_join`]).
pub fn inner_join(left: &Frame, right: &Frame, key: &str) -> Result<Frame> {
    join_impl(left, right, key, false)
}

/// Reference left join (see [`irma_data::left_join`]).
pub fn left_join(left: &Frame, right: &Frame, key: &str) -> Result<Frame> {
    join_impl(left, right, key, true)
}
