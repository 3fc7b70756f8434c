//! Plain-text table rendering for the benchmark harnesses.

use std::fmt::Write as _;

/// A printable table with a caption (one per paper figure/table).
#[derive(Clone, Debug)]
pub struct Report {
    caption: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Report {
    /// Creates a report with the given caption and column headers.
    pub fn new(caption: impl Into<String>, headers: &[&str]) -> Report {
        Report {
            caption: caption.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Appends a footnote.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// The number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the report has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.caption);
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row));
        }
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        out
    }

    /// Renders and prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
        println!();
    }
}

/// Formats seconds as engineering-readable milliseconds/microseconds.
pub fn fmt_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.3} s")
    } else if seconds >= 1e-3 {
        format!("{:.3} ms", seconds * 1e3)
    } else {
        format!("{:.1} us", seconds * 1e6)
    }
}

/// Formats a speedup factor.
pub fn fmt_x(factor: f64) -> String {
    format!("{factor:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut r = Report::new("Demo", &["name", "value"]);
        r.row(&["a".into(), "1".into()]);
        r.row(&["long-name".into(), "2.5".into()]);
        r.note("calibration note");
        let text = r.render();
        assert!(text.contains("== Demo =="));
        assert!(text.contains("long-name"));
        assert!(text.contains("note: calibration note"));
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        let mut r = Report::new("Demo", &["a", "b"]);
        r.row(&["only-one".into()]);
    }

    #[test]
    fn time_formats() {
        assert_eq!(fmt_time(2.5), "2.500 s");
        assert_eq!(fmt_time(0.0125), "12.500 ms");
        assert_eq!(fmt_time(42e-6), "42.0 us");
        assert_eq!(fmt_x(1.345), "1.34x");
    }
}
