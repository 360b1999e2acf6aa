//! Plain-text and CSV rendering of experiment results.

use crate::error::StudyError;
use std::fmt;

/// A titled table of strings, the uniform output of every experiment.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title (e.g. "Figure 1: IPC over 8 and 28 shaders").
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of cells; each row must match `columns` in length.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: &str, columns: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            columns: columns
                .iter()
                .map(std::string::ToString::to_string)
                .collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Errors
    ///
    /// [`StudyError::TableRow`] if the row length does not match the
    /// header; the table is left unchanged.
    pub fn push(&mut self, row: Vec<String>) -> Result<(), StudyError> {
        if row.len() != self.columns.len() {
            return Err(StudyError::TableRow {
                got: row.len(),
                expected: self.columns.len(),
            });
        }
        self.rows.push(row);
        Ok(())
    }

    /// Renders the table as CSV (title omitted).
    pub fn to_csv(&self) -> String {
        let escape = |s: &str| -> String {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .columns
                .iter()
                .map(|c| escape(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        // First column (names, dendrogram art) reads left-aligned;
        // numeric columns right-align.
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .enumerate()
                .map(|(i, (c, w))| {
                    if i == 0 {
                        format!("{c:<w$}")
                    } else {
                        format!("{c:>w$}")
                    }
                })
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        };
        writeln!(f, "{}", fmt_row(&self.columns))?;
        writeln!(
            f,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
        )?;
        for row in &self.rows {
            writeln!(f, "{}", fmt_row(row))?;
        }
        Ok(())
    }
}

/// Formats a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a fraction as a percentage with 1 decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> Table {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.push(vec!["alpha".into(), "1.5".into()]).unwrap();
        t.push(vec!["b,c".into(), "2".into()]).unwrap();
        t
    }

    #[test]
    fn text_render_aligns() {
        let s = example().to_string();
        assert!(s.contains("Demo"));
        assert!(s.contains("alpha"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    fn csv_escapes_commas() {
        let csv = example().to_csv();
        assert!(csv.contains("\"b,c\""));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn push_rejects_bad_row_untouched() {
        let mut t = Table::new("t", &["a", "b"]);
        let err = t.push(vec!["only-one".into()]).unwrap_err();
        assert_eq!(
            err,
            crate::error::StudyError::TableRow {
                got: 1,
                expected: 2
            }
        );
        assert!(t.rows.is_empty(), "table unchanged on error");
    }

    #[test]
    fn formatters() {
        assert_eq!(f1(1.25), "1.2");
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(pct(0.5), "50.0%");
    }
}
