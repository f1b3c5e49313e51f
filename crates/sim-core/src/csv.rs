//! Minimal CSV log writing.
//!
//! The RoSÉ artifact emits CSV logs from the synchronizer tracking UAV
//! dynamics, sensing requests, and control targets (Artifact §A.2). This
//! module provides the same capability without an external dependency.
//!
//! Rows hold typed [`CsvCell`]s — integers serialize without a lossy f64
//! round-trip and strings (metric names, labels) are quoted as needed —
//! while the original all-f64 [`CsvLog::row`] remains for numeric tables.

use std::fmt::{self, Write as _};
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

/// One typed CSV value.
#[derive(Debug, Clone, PartialEq)]
pub enum CsvCell {
    /// An integer, serialized exactly.
    Int(i64),
    /// A real value.
    Float(f64),
    /// Text, quoted on output when it contains delimiters.
    Str(String),
}

impl CsvCell {
    /// The cell as an f64: exact for [`CsvCell::Float`], converted for
    /// [`CsvCell::Int`], and NaN for text.
    pub fn as_f64(&self) -> f64 {
        match self {
            CsvCell::Int(v) => *v as f64,
            CsvCell::Float(v) => *v,
            CsvCell::Str(_) => f64::NAN,
        }
    }
}

impl From<i64> for CsvCell {
    fn from(v: i64) -> CsvCell {
        CsvCell::Int(v)
    }
}

impl From<u64> for CsvCell {
    /// Saturates at `i64::MAX` (no simulated counter approaches it).
    fn from(v: u64) -> CsvCell {
        CsvCell::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}

impl From<f64> for CsvCell {
    fn from(v: f64) -> CsvCell {
        CsvCell::Float(v)
    }
}

impl From<&str> for CsvCell {
    fn from(v: &str) -> CsvCell {
        CsvCell::Str(v.to_string())
    }
}

impl From<String> for CsvCell {
    fn from(v: String) -> CsvCell {
        CsvCell::Str(v)
    }
}

impl fmt::Display for CsvCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvCell::Int(v) => write!(f, "{v}"),
            CsvCell::Float(v) => write!(f, "{v}"),
            CsvCell::Str(s) => {
                if s.contains([',', '"', '\n', '\r']) {
                    write!(f, "\"{}\"", s.replace('"', "\"\""))
                } else {
                    f.write_str(s)
                }
            }
        }
    }
}

/// An in-memory CSV table with a fixed header.
///
/// # Example
///
/// ```
/// use rose_sim_core::csv::CsvLog;
///
/// let mut log = CsvLog::new(&["t", "x", "y"]);
/// log.row(&[0.0, 1.0, 2.0]);
/// log.row(&[0.1, 1.5, 2.5]);
/// assert_eq!(log.len(), 2);
/// let text = log.to_csv_string();
/// assert!(text.starts_with("t,x,y\n"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsvLog {
    header: Vec<String>,
    rows: Vec<Vec<CsvCell>>,
}

impl CsvLog {
    /// Creates an empty table with the given column names.
    ///
    /// # Panics
    ///
    /// Panics if `header` is empty.
    pub fn new(header: &[&str]) -> CsvLog {
        assert!(!header.is_empty(), "CSV log needs at least one column");
        CsvLog {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends an all-numeric row (a thin wrapper over
    /// [`push_row`](CsvLog::push_row)).
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header.
    pub fn row(&mut self, values: &[f64]) {
        self.push_row(values.iter().map(|&v| CsvCell::Float(v)).collect());
    }

    /// Appends a typed row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header.
    pub fn push_row(&mut self, cells: Vec<CsvCell>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "CSV row width {} != header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Column names.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// Data rows.
    pub fn rows(&self) -> &[Vec<CsvCell>] {
        &self.rows
    }

    /// Returns one column by name as f64 (text cells become NaN), or
    /// `None` if it does not exist.
    pub fn column(&self, name: &str) -> Option<Vec<f64>> {
        let idx = self.header.iter().position(|h| h == name)?;
        Some(self.rows.iter().map(|r| r[idx].as_f64()).collect())
    }

    /// Serializes the table to CSV text.
    pub fn to_csv_string(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header.join(","));
        out.push('\n');
        for row in &self.rows {
            let mut first = true;
            for v in row {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "{v}");
            }
            out.push('\n');
        }
        out
    }

    /// Writes the table to a file.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or writing the file.
    pub fn write_to<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        let mut f = File::create(path)?;
        f.write_all(self.to_csv_string().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_text() {
        let mut log = CsvLog::new(&["a", "b"]);
        log.row(&[1.0, 2.5]);
        log.row(&[-3.0, 0.0]);
        assert_eq!(log.to_csv_string(), "a,b\n1,2.5\n-3,0\n");
    }

    #[test]
    fn column_extraction() {
        let mut log = CsvLog::new(&["t", "y"]);
        log.row(&[0.0, 5.0]);
        log.row(&[1.0, 6.0]);
        assert_eq!(log.column("y"), Some(vec![5.0, 6.0]));
        assert_eq!(log.column("missing"), None);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_mismatch_panics() {
        CsvLog::new(&["a"]).row(&[1.0, 2.0]);
    }

    #[test]
    fn typed_rows_serialize_exactly() {
        let mut log = CsvLog::new(&["metric", "value"]);
        // 2^60 + 1 is not representable as f64; Int cells must not lose it.
        log.push_row(vec![
            CsvCell::from("soc.cycles"),
            CsvCell::Int((1 << 60) + 1),
        ]);
        log.push_row(vec![CsvCell::from("ipc"), CsvCell::Float(0.75)]);
        assert_eq!(
            log.to_csv_string(),
            format!("metric,value\nsoc.cycles,{}\nipc,0.75\n", (1i64 << 60) + 1)
        );
    }

    #[test]
    fn text_cells_are_quoted_when_needed() {
        let mut log = CsvLog::new(&["name", "note"]);
        log.push_row(vec![
            CsvCell::from("plain"),
            CsvCell::from("has, comma and \"quotes\""),
        ]);
        assert_eq!(
            log.to_csv_string(),
            "name,note\nplain,\"has, comma and \"\"quotes\"\"\"\n"
        );
    }

    #[test]
    fn mixed_columns_read_back_as_f64() {
        let mut log = CsvLog::new(&["name", "v"]);
        log.push_row(vec![CsvCell::from("a"), CsvCell::from(7u64)]);
        log.push_row(vec![CsvCell::from("b"), CsvCell::Float(1.5)]);
        assert_eq!(log.column("v"), Some(vec![7.0, 1.5]));
        let names = log.column("name").unwrap();
        assert!(names.iter().all(|v| v.is_nan()), "text reads back as NaN");
    }
}
