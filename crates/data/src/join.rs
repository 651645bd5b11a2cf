//! Key-based joins between frames.
//!
//! The paper's first preprocessing step merges features collected at
//! different levels (scheduler log, node-level GPU reductions) into a single
//! per-job table; [`inner_join`] / [`left_join`] implement that merge keyed
//! on the job id.

use std::collections::HashMap;

use crate::column::Column;
use crate::error::{DataError, Result};
use crate::frame::Frame;

/// A hashable join key borrowed from a column cell. Keys of different
/// types never match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key<'a> {
    Int(i64),
    Str(&'a str),
    Bool(bool),
}

/// Per-row keys of a join column (`None` for null cells).
fn keys(col: &Column) -> Result<Vec<Option<Key<'_>>>> {
    Ok(match col {
        Column::Int(v) => v.iter().map(|k| k.map(Key::Int)).collect(),
        Column::Str(v) => (0..v.len()).map(|r| v.get(r).map(Key::Str)).collect(),
        Column::Bool(v) => v.iter().map(|k| k.map(Key::Bool)).collect(),
        Column::Float(v) if v.is_empty() => Vec::new(),
        Column::Float(_) => {
            return Err(DataError::Join("cannot join on a float column".to_string()))
        }
    })
}

const NO_ROW: usize = usize::MAX;

/// Right-frame rows grouped by key: `heads` finds a key's first row and
/// `next[row]` the following row with the same key, so each key's
/// matches come out in row order without a `Vec` per key.
struct Index<'a> {
    heads: HashMap<Key<'a>, usize>,
    next: Vec<usize>,
}

impl<'a> Index<'a> {
    fn build(keys: &[Option<Key<'a>>]) -> Index<'a> {
        let mut next = vec![NO_ROW; keys.len()];
        let mut heads = HashMap::with_capacity(keys.len());
        // Walking the rows backwards leaves every chain in row order.
        for (row, key) in keys.iter().enumerate().rev() {
            let Some(key) = key else { continue };
            let head = heads.entry(*key).or_insert(NO_ROW);
            next[row] = *head;
            *head = row;
        }
        Index { heads, next }
    }

    /// Rows holding `key`, in row order.
    fn matches(&self, key: &Key<'a>) -> impl Iterator<Item = usize> + '_ {
        let mut row = self.heads.get(key).copied().unwrap_or(NO_ROW);
        std::iter::from_fn(move || {
            (row != NO_ROW).then(|| {
                let current = row;
                row = self.next[current];
                current
            })
        })
    }
}

fn join_impl(left: &Frame, right: &Frame, key: &str, keep_unmatched_left: bool) -> Result<Frame> {
    let right_keys = keys(right.column(key)?)?;
    let index = Index::build(&right_keys);
    let left_keys = keys(left.column(key)?)?;

    let mut left_rows: Vec<usize> = Vec::with_capacity(left.n_rows());
    let mut right_rows: Vec<Option<usize>> = Vec::with_capacity(left.n_rows());
    for (row, k) in left_keys.iter().enumerate() {
        let before = left_rows.len();
        if let Some(k) = k {
            for r in index.matches(k) {
                left_rows.push(row);
                right_rows.push(Some(r));
            }
        }
        if keep_unmatched_left && left_rows.len() == before {
            left_rows.push(row);
            right_rows.push(None);
        }
    }

    let mut out = left.take(&left_rows);
    for (name, col) in right.names().iter().zip(right.columns()) {
        if name == key {
            continue;
        }
        let out_name = if out.has_column(name) {
            format!("{name}_right")
        } else {
            name.clone()
        };
        out.add_column(&out_name, col.gather(right_rows.iter().copied()))?;
    }
    Ok(out)
}

/// Inner join: keeps left rows with at least one key match in `right`;
/// multiple matches multiply rows (needed for one-to-many log merges).
pub fn inner_join(left: &Frame, right: &Frame, key: &str) -> Result<Frame> {
    join_impl(left, right, key, false)
}

/// Left join: like [`inner_join`] but unmatched left rows survive with
/// nulls in the right-hand columns.
pub fn left_join(left: &Frame, right: &Frame, key: &str) -> Result<Frame> {
    join_impl(left, right, key, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::read_csv_str;
    use crate::value::Value;

    fn sched() -> Frame {
        read_csv_str("job_id,user,status\n1,alice,pass\n2,bob,fail\n3,carol,pass\n").unwrap()
    }

    fn gpu() -> Frame {
        read_csv_str("job_id,sm_util\n1,0.0\n2,87.5\n9,50.0\n").unwrap()
    }

    #[test]
    fn inner_join_drops_unmatched() {
        let j = inner_join(&sched(), &gpu(), "job_id").unwrap();
        assert_eq!(j.n_rows(), 2);
        assert_eq!(j.get(0, "user").unwrap(), Value::Str("alice".into()));
        assert_eq!(j.get(0, "sm_util").unwrap(), Value::Float(0.0));
        assert_eq!(j.get(1, "sm_util").unwrap(), Value::Float(87.5));
    }

    #[test]
    fn left_join_keeps_unmatched_with_nulls() {
        let j = left_join(&sched(), &gpu(), "job_id").unwrap();
        assert_eq!(j.n_rows(), 3);
        assert_eq!(j.get(2, "user").unwrap(), Value::Str("carol".into()));
        assert_eq!(j.get(2, "sm_util").unwrap(), Value::Null);
    }

    #[test]
    fn one_to_many_multiplies_rows() {
        let right = read_csv_str("job_id,attempt\n1,1\n1,2\n").unwrap();
        let j = inner_join(&sched(), &right, "job_id").unwrap();
        assert_eq!(j.n_rows(), 2);
        assert_eq!(j.get(0, "attempt").unwrap(), Value::Int(1));
        assert_eq!(j.get(1, "attempt").unwrap(), Value::Int(2));
    }

    #[test]
    fn name_collision_gets_suffix() {
        let right = read_csv_str("job_id,user\n1,server-a\n").unwrap();
        let j = inner_join(&sched(), &right, "job_id").unwrap();
        assert!(j.has_column("user_right"));
        assert_eq!(
            j.get(0, "user_right").unwrap(),
            Value::Str("server-a".into())
        );
    }

    #[test]
    fn join_on_string_key() {
        let left = read_csv_str("user,a\nalice,1\nbob,2\n").unwrap();
        let right = read_csv_str("user,b\nbob,9\n").unwrap();
        let j = inner_join(&left, &right, "user").unwrap();
        assert_eq!(j.n_rows(), 1);
        assert_eq!(j.get(0, "b").unwrap(), Value::Int(9));
    }

    #[test]
    fn join_on_float_rejected() {
        let left = read_csv_str("k,a\n1.5,1\n").unwrap();
        let right = read_csv_str("k,b\n1.5,2\n").unwrap();
        assert!(inner_join(&left, &right, "k").is_err());
    }

    #[test]
    fn sparse_and_negative_int_keys() {
        let right = read_csv_str("k,b\n-9223372036854775808,1\n9223372036854775807,2\n").unwrap();
        let left = read_csv_str("k,a\n9223372036854775807,x\n0,y\n").unwrap();
        let j = inner_join(&left, &right, "k").unwrap();
        assert_eq!(j.n_rows(), 1);
        assert_eq!(j.get(0, "b").unwrap(), Value::Int(2));
        let right = read_csv_str("k,b\n-3,1\n-1,2\n-3,3\n").unwrap();
        let left = read_csv_str("k,a\n-3,x\n-2,y\n-1,z\n5,w\n").unwrap();
        let j = left_join(&left, &right, "k").unwrap();
        let b: Vec<Value> = (0..j.n_rows()).map(|r| j.get(r, "b").unwrap()).collect();
        assert_eq!(
            b,
            [
                Value::Int(1),
                Value::Int(3),
                Value::Null,
                Value::Int(2),
                Value::Null
            ]
        );
    }

    #[test]
    fn null_keys_never_match() {
        let left = read_csv_str("k,a\n,1\n2,2\n").unwrap();
        let right = read_csv_str("k,b\n,9\n2,8\n").unwrap();
        let j = inner_join(&left, &right, "k").unwrap();
        assert_eq!(j.n_rows(), 1);
        assert_eq!(j.get(0, "b").unwrap(), Value::Int(8));
    }
}
