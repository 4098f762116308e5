//! Plain-text table rendering for experiment output.
//!
//! The benchmark harness prints each reproduced figure/table as an aligned
//! text table; keeping the renderer here lets integration tests snapshot
//! the same structure the harness prints.

/// A simple column-aligned table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; short rows are padded with empty cells.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len().max(row.len()), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if there are no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Access the raw rows (for assertions in tests).
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Render with aligned columns and a separator under the header.
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(|r| r.len())
            .chain([self.header.len()])
            .max()
            .unwrap_or(0);
        let mut width = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = width[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<w$}", c, w = width[i]));
            }
            line.trim_end().to_string()
        };
        if !self.header.is_empty() {
            out.push_str(&fmt_row(&self.header, &width));
            out.push('\n');
            let total: usize = width.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
            out.push_str(&"-".repeat(total));
            out.push('\n');
        }
        for row in &self.rows {
            out.push_str(&fmt_row(row, &width));
            out.push('\n');
        }
        out
    }
}

/// Format a float with one decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Format a float with two decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TextTable::new(["name", "value"]);
        t.row(["short", "1"]);
        t.row(["a-much-longer-name", "22"]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[3].starts_with("a-much-longer-name  22"));
    }

    #[test]
    fn pads_short_rows() {
        let mut t = TextTable::new(["a", "b", "c"]);
        t.row(["only-one"]);
        assert_eq!(t.rows()[0].len(), 3);
    }

    #[test]
    fn formats() {
        assert_eq!(f1(3.15159), "3.2");
        assert_eq!(f2(3.15159), "3.15");
    }
}
