//! The pre-rewrite CSV reader, kept as the differential oracle.
//!
//! This is the three-pass `read_csv_str` the one-pass reader replaced,
//! preserved verbatim apart from its own copy of the cell rules: a
//! char-by-char tokenizer that
//! materializes `Vec<Vec<String>>`, a [`Value`] per cell, and column
//! dtype inference over the parsed values. The `ingest_differential`
//! suite asserts `irma_data::read_csv_str` returns an equal [`Frame`]
//! (dictionaries included) or the same error variant and line.

use irma_data::{Column, DType, DataError, Frame, Result, Value};

/// Reference for [`irma_data::parse_records`]: splits raw CSV text into
/// records of unescaped fields.
pub fn parse_records(text: &str) -> Result<Vec<Vec<String>>> {
    let mut records = Vec::new();
    let mut fields: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    // True when the current (possibly empty) field came from a quoted
    // token — "" at EOF is a real empty field, not a missing record.
    let mut field_quoted = false;
    let mut line = 1usize;
    let mut chars = text.chars().peekable();
    let mut seen_any = false;

    while let Some(c) = chars.next() {
        seen_any = true;
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                '\n' => {
                    line += 1;
                    field.push('\n');
                }
                // A quoted CRLF is the same record terminator dialect as an
                // unquoted one, so it normalizes to '\n' too; a lone '\r'
                // is not a terminator and stays literal.
                '\r' if chars.peek() == Some(&'\n') => {
                    chars.next();
                    line += 1;
                    field.push('\n');
                }
                other => field.push(other),
            }
            continue;
        }
        match c {
            '"' => {
                if !field.is_empty() {
                    return Err(DataError::Csv {
                        line,
                        message: "quote inside unquoted field".to_string(),
                    });
                }
                in_quotes = true;
                field_quoted = true;
            }
            ',' => {
                fields.push(std::mem::take(&mut field));
                field_quoted = false;
            }
            '\r' => {
                if chars.peek() == Some(&'\n') {
                    continue; // handled by the \n branch
                }
                return Err(DataError::Csv {
                    line,
                    message: "bare carriage return".to_string(),
                });
            }
            '\n' => {
                fields.push(std::mem::take(&mut field));
                records.push(std::mem::take(&mut fields));
                field_quoted = false;
                line += 1;
            }
            other => field.push(other),
        }
    }
    if in_quotes {
        return Err(DataError::Csv {
            line,
            message: "unterminated quoted field".to_string(),
        });
    }
    // Final record without trailing newline.
    if seen_any && (!field.is_empty() || !fields.is_empty() || field_quoted) {
        fields.push(field);
        records.push(fields);
    }
    Ok(records)
}

/// Parses CSV text (header row required) into a frame, inferring column
/// types from the first non-null value of each column.
///
/// Type inference promotes Int -> Float when a float appears later in an
/// integer-looking column, and anything -> Str on conflict.
pub fn read_csv_str(text: &str) -> Result<Frame> {
    let records = parse_records(text)?;
    let mut iter = records.into_iter();
    let header = iter.next().ok_or(DataError::Csv {
        line: 1,
        message: "missing header row".to_string(),
    })?;
    let rows: Vec<Vec<String>> = iter.collect();
    for (i, row) in rows.iter().enumerate() {
        if row.len() != header.len() {
            return Err(DataError::Csv {
                line: i + 2,
                message: format!("expected {} fields, found {}", header.len(), row.len()),
            });
        }
    }

    // Parse every cell once, then decide each column's type.
    let parsed: Vec<Vec<Value>> = rows
        .iter()
        .map(|row| row.iter().map(|f| parse_lossy(f)).collect())
        .collect();

    let mut frame = Frame::new();
    for (c, name) in header.iter().enumerate() {
        let dtype = infer_dtype(parsed.iter().map(|row| &row[c]));
        let mut col = Column::with_capacity(dtype, parsed.len());
        for (r, row) in parsed.iter().enumerate() {
            let v = coerce(&row[c], dtype, &rows[r][c]);
            col.push_value(name, v).map_err(|e| DataError::Csv {
                line: r + 2,
                message: e.to_string(),
            })?;
        }
        frame.add_column(name, col)?;
    }
    Ok(frame)
}

/// The cell rules as the old reader applied them (the library's copy
/// now lives in one allocation-free classifier behind
/// [`Value::parse_lossy`]; this one is independent on purpose).
fn parse_lossy(field: &str) -> Value {
    if field.is_empty() {
        return Value::Null;
    }
    match field {
        "null" | "NULL" | "NaN" | "nan" | "NA" | "na" => return Value::Null,
        "true" | "TRUE" | "True" => return Value::Bool(true),
        "false" | "FALSE" | "False" => return Value::Bool(false),
        _ => {}
    }
    if let Ok(i) = field.parse::<i64>() {
        return Value::Int(i);
    }
    if let Ok(f) = field.parse::<f64>() {
        return Value::Float(f);
    }
    Value::Str(field.to_string())
}

/// Picks the narrowest dtype that can represent every non-null value.
fn infer_dtype<'a, I: Iterator<Item = &'a Value>>(values: I) -> DType {
    let mut seen_int = false;
    let mut seen_float = false;
    let mut seen_bool = false;
    for v in values {
        match v {
            Value::Null => {}
            Value::Int(_) => seen_int = true,
            Value::Float(_) => seen_float = true,
            Value::Bool(_) => seen_bool = true,
            Value::Str(_) => return DType::Str,
        }
    }
    match (seen_bool, seen_int, seen_float) {
        (true, false, false) => DType::Bool,
        (false, _, true) => DType::Float,
        (false, true, false) => DType::Int,
        (false, false, false) => DType::Str, // all-null column defaults to str
        _ => DType::Str,                     // mixed bool/number: keep raw text
    }
}

/// Re-coerces a parsed value to the column's final dtype.
fn coerce(value: &Value, dtype: DType, raw: &str) -> Value {
    match (value, dtype) {
        (Value::Null, _) => Value::Null,
        (Value::Int(v), DType::Float) => Value::Float(*v as f64),
        (v, DType::Str) if !matches!(v, Value::Str(_)) => Value::Str(raw.to_string()),
        (v, _) => v.clone(),
    }
}
