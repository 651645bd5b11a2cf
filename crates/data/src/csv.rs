//! Hand-rolled CSV reader and writer (RFC 4180 quoting rules).
//!
//! The paper's traces ship as CSV files split across collection levels
//! (scheduler log vs node measurements); the reproduction keeps the parsing
//! in-repo instead of depending on a CSV crate, per the reproduction brief.
//!
//! Supported dialect: comma separator, `"`-quoting with `""` escapes,
//! embedded newlines inside quoted fields, LF or CRLF record terminators,
//! and a mandatory header row. CRLF is treated as the file's line-ending
//! dialect rather than data, so a quoted `\r\n` normalizes to `\n` exactly
//! as unquoted terminators do; a lone `\r` inside quotes stays literal.

use std::borrow::Cow;
use std::io::{BufReader, Read, Write};
use std::path::Path;

use crate::column::{Column, StrStorage};
use crate::error::{DataError, Result};
use crate::frame::Frame;
use crate::value::Cell;

fn csv_error(line: usize, message: &str) -> DataError {
    DataError::Csv {
        line,
        message: message.to_string(),
    }
}

/// One-pass field tokenizer over the raw text.
///
/// Fields borrow from the input; only a quoted field holding a `""`
/// escape or a CRLF (normalized to `\n`), or a quoted section followed
/// by more unquoted text, is copied. Cloning the tokenizer saves its
/// position, which the reader uses to read cells back (see [`fill_skipped`]).
#[derive(Clone)]
struct Tokenizer<'a> {
    text: &'a str,
    pos: usize,
    /// 1-based source line of `pos` (newlines inside quotes count).
    line: usize,
    /// True when the next field opens a record.
    at_record_start: bool,
}

impl<'a> Tokenizer<'a> {
    fn new(text: &'a str) -> Tokenizer<'a> {
        Tokenizer {
            text,
            pos: 0,
            line: 1,
            at_record_start: true,
        }
    }

    /// The next field and whether it ends its record; `None` once the
    /// input ends on a record boundary.
    fn next_field(&mut self) -> Result<Option<(Cow<'a, str>, bool)>> {
        let text = self.text;
        let bytes = text.as_bytes();
        if self.pos >= bytes.len() && self.at_record_start {
            return Ok(None);
        }
        let mut i = self.pos;
        let quoted = if bytes.get(i) == Some(&b'"') {
            i += 1;
            let (content, close) = self.quoted_section(i)?;
            i = close + 1;
            Some(content)
        } else {
            None
        };
        // Unquoted text: the whole field, or what trails a quoted section.
        let tail_start = i;
        i += bytes[i..]
            .iter()
            .position(|&b| matches!(b, b',' | b'\n' | b'\r' | b'"'))
            .unwrap_or(bytes.len() - i);
        let tail = &text[tail_start..i];
        let field = match quoted {
            None => Cow::Borrowed(tail),
            Some(q) if tail.is_empty() => q,
            Some(q) if q.is_empty() => Cow::Borrowed(tail),
            Some(q) => Cow::Owned(q.into_owned() + tail),
        };
        // A quote can never directly follow a closing quote (that is an
        // escape), so any quote here sits inside a non-empty field.
        let last = match bytes.get(i) {
            None => {
                self.pos = i;
                true
            }
            Some(b',') => {
                self.pos = i + 1;
                false
            }
            Some(b'\n') => {
                self.line += 1;
                self.pos = i + 1;
                true
            }
            Some(b'\r') if bytes.get(i + 1) == Some(&b'\n') => {
                self.line += 1;
                self.pos = i + 2;
                true
            }
            Some(b'\r') => return Err(csv_error(self.line, "bare carriage return")),
            Some(_) => return Err(csv_error(self.line, "quote inside unquoted field")),
        };
        self.at_record_start = last;
        Ok(Some((field, last)))
    }

    /// Scans a quoted section whose content starts at `start`; returns
    /// the unescaped content and the index of the closing quote.
    fn quoted_section(&mut self, start: usize) -> Result<(Cow<'a, str>, usize)> {
        let text = self.text;
        let bytes = text.as_bytes();
        let mut copy: Option<String> = None;
        let mut segment = start;
        let mut i = start;
        loop {
            let Some(offset) = bytes[i..]
                .iter()
                .position(|&b| matches!(b, b'"' | b'\n' | b'\r'))
            else {
                return Err(csv_error(self.line, "unterminated quoted field"));
            };
            i += offset;
            match bytes[i] {
                b'"' if bytes.get(i + 1) == Some(&b'"') => {
                    // Keep one quote of the pair.
                    copy.get_or_insert_with(String::new)
                        .push_str(&text[segment..=i]);
                    i += 2;
                    segment = i;
                }
                b'"' => break,
                b'\n' => {
                    self.line += 1;
                    i += 1;
                }
                // A quoted CRLF is the same record terminator dialect as
                // an unquoted one, so it normalizes to '\n' too; a lone
                // '\r' is not a terminator and stays literal.
                b'\r' if bytes.get(i + 1) == Some(&b'\n') => {
                    let buf = copy.get_or_insert_with(String::new);
                    buf.push_str(&text[segment..i]);
                    buf.push('\n');
                    self.line += 1;
                    i += 2;
                    segment = i;
                }
                _ => i += 1,
            }
        }
        let content = match copy {
            Some(mut buf) => {
                buf.push_str(&text[segment..i]);
                Cow::Owned(buf)
            }
            None => Cow::Borrowed(&text[start..i]),
        };
        Ok((content, i))
    }
}

/// Splits raw CSV text into records of unescaped fields.
///
/// Exposed for testing; most callers want [`read_csv`] / [`read_csv_path`].
pub fn parse_records(text: &str) -> Result<Vec<Vec<String>>> {
    let mut tokens = Tokenizer::new(text);
    let mut records = Vec::new();
    let mut fields = Vec::new();
    while let Some((field, last)) = tokens.next_field()? {
        fields.push(field.into_owned());
        if last {
            records.push(std::mem::take(&mut fields));
        }
    }
    Ok(records)
}

/// A column under construction. Its dtype is the narrowest one that
/// holds every non-null cell seen so far:
///
/// * only nulls so far: just counted (an all-null column ends as `Str`);
/// * `Int` widens to `Float` when a float arrives, and `Float` takes
///   later ints as floats;
/// * text, or a bool mixed with a number, makes it `Str`, which keeps
///   each cell's raw text (`"007"` stays `"007"`). The cells a column
///   held before it switched are read back from the source text after
///   the last record (see [`fill_skipped`]).
enum Builder {
    Nulls(usize),
    Int(Vec<Option<i64>>),
    Float(Vec<Option<f64>>),
    Bool(Vec<Option<bool>>),
    /// `st` holds the rows from `skipped` on; rows `0..skipped` are
    /// still to be read back.
    Str {
        skipped: usize,
        st: StrStorage,
    },
}

impl Builder {
    /// Appends a classified cell; `false` means the column must become
    /// `Str` before this cell can go in.
    fn push(&mut self, cell: Cell, raw: &str) -> bool {
        match (&mut *self, cell) {
            (Builder::Nulls(n), Cell::Null) => *n += 1,
            (Builder::Nulls(n), Cell::Int(v)) => *self = Builder::Int(nulls_then(*n, v)),
            (Builder::Nulls(n), Cell::Float(v)) => *self = Builder::Float(nulls_then(*n, v)),
            (Builder::Nulls(n), Cell::Bool(v)) => *self = Builder::Bool(nulls_then(*n, v)),
            (Builder::Nulls(_), Cell::Str) => return false,
            (Builder::Int(v), Cell::Null) => v.push(None),
            (Builder::Int(v), Cell::Int(x)) => v.push(Some(x)),
            (Builder::Int(v), Cell::Float(x)) => {
                let mut floats: Vec<Option<f64>> = v.iter().map(|c| c.map(|i| i as f64)).collect();
                floats.push(Some(x));
                *self = Builder::Float(floats);
            }
            (Builder::Float(v), Cell::Null) => v.push(None),
            (Builder::Float(v), Cell::Int(x)) => v.push(Some(x as f64)),
            (Builder::Float(v), Cell::Float(x)) => v.push(Some(x)),
            (Builder::Bool(v), Cell::Null) => v.push(None),
            (Builder::Bool(v), Cell::Bool(x)) => v.push(Some(x)),
            (Builder::Str { st, .. }, Cell::Null) => st.push(None),
            (Builder::Str { st, .. }, _) => st.push(Some(raw)),
            _ => return false,
        }
        true
    }

    fn finish(self) -> Column {
        match self {
            Builder::Nulls(n) => Column::from_opt_strs(std::iter::repeat_n(None, n)),
            Builder::Int(v) => Column::Int(v),
            Builder::Float(v) => Column::Float(v),
            Builder::Bool(v) => Column::Bool(v),
            Builder::Str { st, .. } => Column::Str(st),
        }
    }
}

fn nulls_then<T: Clone>(n: usize, value: T) -> Vec<Option<T>> {
    let mut v = vec![None; n];
    v.push(Some(value));
    v
}

/// Reads back the raw text of the rows each column held before it
/// turned `Str`, in one pass over the data records that start at `from`,
/// and puts them in front of the column's later cells. The pass stops at
/// the latest switch, so however many columns switch, the reader
/// tokenizes the text at most twice.
fn fill_skipped(mut from: Tokenizer<'_>, builders: &mut [Builder]) -> Result<()> {
    let skipped: Vec<usize> = builders
        .iter()
        .map(|b| match b {
            Builder::Str { skipped, .. } => *skipped,
            _ => 0,
        })
        .collect();
    let rows = skipped.iter().copied().max().unwrap_or(0);
    if rows == 0 {
        return Ok(());
    }
    let mut heads: Vec<StrStorage> = vec![StrStorage::default(); builders.len()];
    let (mut row, mut index) = (0, 0);
    while row < rows {
        let Some((field, last)) = from.next_field()? else {
            break;
        };
        if row < skipped[index] {
            match Cell::parse(&field) {
                Cell::Null => heads[index].push(None),
                _ => heads[index].push(Some(&field)),
            }
        }
        index += 1;
        if last {
            index = 0;
            row += 1;
        }
    }
    for (builder, mut head) in builders.iter_mut().zip(heads) {
        if let Builder::Str { skipped, st } = builder {
            if *skipped > 0 {
                head.append(st);
                *st = head;
                *skipped = 0;
            }
        }
    }
    Ok(())
}

/// Parses CSV text (header row required) into a frame in one pass,
/// building typed columns as it goes (see [`Builder`] for the dtype
/// rules).
///
/// Errors, first match wins: a tokenizer error anywhere in the text, then
/// the first record whose width differs from the header's, then a
/// duplicate column name.
pub fn read_csv_str(text: &str) -> Result<Frame> {
    let mut tokens = Tokenizer::new(text);
    let mut header: Vec<String> = Vec::new();
    while let Some((field, last)) = tokens.next_field()? {
        header.push(field.into_owned());
        if last {
            break;
        }
    }
    if header.is_empty() {
        return Err(csv_error(1, "missing header row"));
    }
    let data_start = tokens.clone();
    let width = header.len();
    let mut builders: Vec<Builder> = (0..width).map(|_| Builder::Nulls(0)).collect();
    let mut ragged: Option<DataError> = None;
    let mut rows = 0usize;
    let mut index = 0usize;
    while let Some((field, last)) = tokens.next_field()? {
        // After a ragged record only the tokenizer runs: a later syntax
        // error still takes precedence over the width error.
        if ragged.is_none() && index < width {
            let cell = Cell::parse(&field);
            let builder = &mut builders[index];
            if !builder.push(cell, &field) {
                *builder = Builder::Str {
                    skipped: rows,
                    st: StrStorage::default(),
                };
                builder.push(cell, &field);
            }
        }
        index += 1;
        if last {
            if ragged.is_none() && index != width {
                ragged = Some(DataError::Csv {
                    line: rows + 2,
                    message: format!("expected {width} fields, found {index}"),
                });
            }
            rows += 1;
            index = 0;
        }
    }
    if let Some(err) = ragged {
        return Err(err);
    }
    fill_skipped(data_start, &mut builders)?;

    let mut frame = Frame::new();
    for (name, builder) in header.iter().zip(builders) {
        frame.add_column(name, builder.finish())?;
    }
    Ok(frame)
}

/// Reads a frame from any reader.
pub fn read_csv<R: Read>(reader: R) -> Result<Frame> {
    let mut text = String::new();
    BufReader::new(reader).read_to_string(&mut text)?;
    read_csv_str(&text)
}

/// Reads a frame from a file path.
pub fn read_csv_path<P: AsRef<Path>>(path: P) -> Result<Frame> {
    read_csv_str(&std::fs::read_to_string(path)?)
}

/// Quotes a field if it contains a separator, quote, or newline.
fn escape_field(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') || field.contains('\r') {
        let mut out = String::with_capacity(field.len() + 2);
        out.push('"');
        for c in field.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
        out
    } else {
        field.to_string()
    }
}

/// Serializes a frame to CSV text (header + rows, LF terminators).
pub fn write_csv_string(frame: &Frame) -> String {
    let mut out = String::new();
    let header: Vec<String> = frame.names().iter().map(|n| escape_field(n)).collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in 0..frame.n_rows() {
        let mut first = true;
        for col in frame.columns() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&escape_field(&col.get(row).to_string()));
        }
        out.push('\n');
    }
    out
}

/// Writes a frame as CSV to any writer.
pub fn write_csv<W: Write>(frame: &Frame, mut writer: W) -> Result<()> {
    writer.write_all(write_csv_string(frame).as_bytes())?;
    Ok(())
}

/// Writes a frame as CSV to a file path.
pub fn write_csv_path<P: AsRef<Path>>(frame: &Frame, path: P) -> Result<()> {
    let file = std::fs::File::create(path)?;
    write_csv(frame, file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::DType;
    use crate::value::Value;

    #[test]
    fn parses_simple_records() {
        let recs = parse_records("a,b\n1,2\n3,4\n").unwrap();
        assert_eq!(recs, vec![vec!["a", "b"], vec!["1", "2"], vec!["3", "4"]]);
    }

    #[test]
    fn parses_quotes_and_escapes() {
        let recs = parse_records("name,note\n\"smith, j\",\"said \"\"hi\"\"\"\n").unwrap();
        assert_eq!(recs[1], vec!["smith, j", "said \"hi\""]);
    }

    #[test]
    fn parses_embedded_newline() {
        let recs = parse_records("a\n\"line1\nline2\"\n").unwrap();
        assert_eq!(recs[1], vec!["line1\nline2"]);
    }

    #[test]
    fn parses_crlf_and_missing_trailing_newline() {
        let recs = parse_records("a,b\r\n1,2").unwrap();
        assert_eq!(recs, vec![vec!["a", "b"], vec!["1", "2"]]);
    }

    #[test]
    fn quoted_crlf_normalizes_to_lf() {
        // Pre-fix the stray '\r' survived into the field; both terminator
        // dialects must yield the same parsed data.
        let crlf = parse_records("a\r\n\"line1\r\nline2\"\r\n").unwrap();
        let lf = parse_records("a\n\"line1\nline2\"\n").unwrap();
        assert_eq!(crlf, lf);
        assert_eq!(crlf[1], vec!["line1\nline2"]);
    }

    #[test]
    fn lone_cr_inside_quotes_is_literal() {
        let recs = parse_records("a\n\"x\ry\"\n").unwrap();
        assert_eq!(recs[1], vec!["x\ry"]);
    }

    #[test]
    fn quoted_crlf_counts_one_line() {
        // The embedded CRLF advances the line counter once, so a later
        // error still points at the right source line (here: line 3).
        let err = parse_records("a\r\n\"x\r\ny\",bad\"quote\n").unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("line 3"), "got: {msg}");
    }

    #[test]
    fn rejects_unterminated_quote() {
        assert!(parse_records("a\n\"oops\n").is_err());
    }

    #[test]
    fn rejects_unterminated_quote_at_eof() {
        // Quote still open when the input ends — with and without content,
        // and even when the opening quote is the very last byte.
        assert!(parse_records("a\n\"oops").is_err());
        assert!(parse_records("a\n\"").is_err());
        let err = parse_records("a\nx,\"trailing").unwrap_err();
        assert!(format!("{err}").contains("unterminated"));
    }

    #[test]
    fn final_record_without_newline_variants() {
        // Unquoted, quoted, and trailing-empty-field finals all complete.
        assert_eq!(
            parse_records("a,b\n1,2").unwrap(),
            vec![vec!["a", "b"], vec!["1", "2"]]
        );
        assert_eq!(
            parse_records("a\n\"done\"").unwrap(),
            vec![vec!["a"], vec!["done"]]
        );
        // A record ending in a comma has a final empty field; the quoted
        // empty field "" at EOF likewise yields one empty final field.
        assert_eq!(
            parse_records("a,b\n1,").unwrap(),
            vec![vec!["a", "b"], vec!["1", ""]]
        );
        assert_eq!(
            parse_records("a,b\n1,\"\"").unwrap(),
            vec![vec!["a", "b"], vec!["1", ""]]
        );
        // A record whose only field is the quoted empty string was dropped
        // pre-fix (indistinguishable from "no final record").
        assert_eq!(parse_records("a\n\"\"").unwrap(), vec![vec!["a"], vec![""]]);
    }

    #[test]
    fn rejects_ragged_rows() {
        assert!(read_csv_str("a,b\n1\n").is_err());
    }

    #[test]
    fn infers_types() {
        let f = read_csv_str("id,util,gpu,ok\n1,0.5,v100,true\n2,,t4,false\n").unwrap();
        assert_eq!(f.column("id").unwrap().dtype(), DType::Int);
        assert_eq!(f.column("util").unwrap().dtype(), DType::Float);
        assert_eq!(f.column("gpu").unwrap().dtype(), DType::Str);
        assert_eq!(f.column("ok").unwrap().dtype(), DType::Bool);
        assert_eq!(f.get(1, "util").unwrap(), Value::Null);
    }

    #[test]
    fn int_column_promoted_to_float() {
        let f = read_csv_str("x\n1\n2.5\n").unwrap();
        assert_eq!(f.column("x").unwrap().dtype(), DType::Float);
        assert_eq!(f.get(0, "x").unwrap(), Value::Float(1.0));
    }

    #[test]
    fn mixed_number_and_text_becomes_str() {
        let f = read_csv_str("x\n1\nabc\n").unwrap();
        assert_eq!(f.column("x").unwrap().dtype(), DType::Str);
        assert_eq!(f.get(0, "x").unwrap(), Value::Str("1".into()));
    }

    #[test]
    fn roundtrip_write_read() {
        let f = read_csv_str("id,note\n1,\"a,b\"\n2,\"quote \"\" here\"\n").unwrap();
        let text = write_csv_string(&f);
        let g = read_csv_str(&text).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn empty_body_gives_empty_frame() {
        let f = read_csv_str("a,b\n").unwrap();
        assert_eq!(f.n_rows(), 0);
        assert_eq!(f.n_cols(), 2);
    }
}
