//! Markdown / CSV table rendering for the benchmark harness.

use std::fmt::Write as _;

/// A simple column-aligned table builder.
///
/// # Examples
///
/// ```
/// use refil_eval::Table;
///
/// let mut t = Table::new(vec!["Method".into(), "Avg".into()]);
/// t.row(vec!["RefFiL".into(), "86.94".into()]);
/// let md = t.to_markdown();
/// assert!(md.contains("| RefFiL"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given header.
    pub fn new(header: Vec<String>) -> Self {
        Self {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders GitHub-flavoured markdown with aligned columns.
    pub fn to_markdown(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                let _ = write!(line, " {c:<w$} |");
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{}|", "-".repeat(w + 2));
        }
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        let _ = cols;
        out
    }

    /// Renders CSV (no quoting — cells are expected to be plain numbers/names).
    pub fn to_csv(&self) -> String {
        let mut out = self.header.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Formats an accuracy as the paper does (two decimals).
pub fn pct(x: f32) -> String {
    format!("{x:.2}")
}

/// Formats a signed delta with two decimals.
pub fn signed(x: f32) -> String {
    format!("{x:+.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_has_header_separator_rows() {
        let mut t = Table::new(vec!["A".into(), "B".into()]);
        t.row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("|--") || lines[1].starts_with("|-"));
    }

    #[test]
    fn csv_roundtrip_structure() {
        let mut t = Table::new(vec!["A".into(), "B".into()]);
        t.row(vec!["x".into(), "y".into()]);
        assert_eq!(t.to_csv(), "A,B\nx,y\n");
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn row_width_checked() {
        Table::new(vec!["A".into()]).row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(86.938), "86.94");
        assert_eq!(signed(9.55), "+9.55");
        assert_eq!(signed(-1.2), "-1.20");
    }
}
