//! The committed `results/` goldens that grid cells are checked against.
//!
//! Rows are keyed by their leading label columns (`benchmark,size` in
//! fig9, `benchmark,environment` in fig12_13, `benchmark` in fig10) and
//! kept as the exact CSV line, so a re-rendered row compares as a string.

use std::collections::HashMap;
use std::path::Path;

/// Golden files read, with the number of leading label columns that key
/// a row.
pub const FILES: [(&str, usize); 6] = [
    ("fig9_chrome", 2),
    ("fig12_13", 2),
    ("fig10_js_polybench", 1),
    ("fig10_js_chstone", 1),
    ("fig10_wasm_polybench", 1),
    ("fig10_wasm_chstone", 1),
];

/// Golden rows by `(file, key)`.
#[derive(Debug, Clone, Default)]
pub struct Goldens {
    rows: HashMap<(String, String), String>,
}

impl Goldens {
    /// Read every file of [`FILES`] from `dir`.
    pub fn load(dir: &Path) -> Result<Goldens, String> {
        let mut goldens = Goldens::default();
        for (file, key_cols) in FILES {
            let path = dir.join(format!("{file}.csv"));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read golden {}: {e}", path.display()))?;
            goldens.add(file, key_cols, &text);
        }
        Ok(goldens)
    }

    /// Add the data rows of one CSV text (the header line is skipped).
    pub fn add(&mut self, file: &str, key_cols: usize, text: &str) {
        for line in text.lines().skip(1) {
            let key = line.split(',').take(key_cols).collect::<Vec<_>>().join(",");
            self.rows.insert((file.to_string(), key), line.to_string());
        }
    }

    /// The golden line for `key` in `file`.
    pub fn row(&self, file: &str, key: &str) -> Option<&str> {
        self.rows
            .get(&(file.to_string(), key.to_string()))
            .map(String::as_str)
    }

    /// Sum of numeric columns `cols` over every row of `file` whose key is
    /// `key` or starts with the label columns in `key`.
    #[cfg(test)]
    pub fn sum_for(&self, file: &str, key: &str, cols: &[usize]) -> f64 {
        let prefix = format!("{key},");
        self.rows
            .iter()
            .filter(|((f, k), _)| f == file && (k == key || k.starts_with(&prefix)))
            .flat_map(|(_, line)| {
                let fields: Vec<&str> = line.split(',').collect();
                cols.iter()
                    .filter_map(|&c| fields.get(c).and_then(|v| v.parse::<f64>().ok()))
                    .collect::<Vec<_>>()
            })
            .sum()
    }

    /// Replace one golden line (used to prove a changed golden is caught).
    pub fn set_row(&mut self, file: &str, key: &str, line: String) {
        self.rows.insert((file.to_string(), key.to_string()), line);
    }
}

/// A cell-derived row to compare with its golden.
#[derive(Debug, Clone)]
pub struct RenderedRow {
    /// Golden file the row belongs to.
    pub file: &'static str,
    /// Row key (leading label columns).
    pub key: String,
    /// The row as rendered from the cells' measurements.
    pub line: String,
    /// Ids of the cells the row was rendered from.
    pub cells: Vec<usize>,
}

/// Rows that differ from (or are missing in) the goldens.
pub fn mismatches<'a>(goldens: &Goldens, rows: &'a [RenderedRow]) -> Vec<&'a RenderedRow> {
    rows.iter()
        .filter(|r| goldens.row(r.file, &r.key) != Some(r.line.as_str()))
        .collect()
}

/// Check the checker: alter one digit of the golden behind `rows[0]` in a
/// copy of the goldens and confirm that exactly that row is then flagged.
pub fn altered_golden_is_caught(goldens: &Goldens, rows: &[RenderedRow]) -> bool {
    let Some(first) = rows.first() else {
        return true;
    };
    let Some(line) = goldens.row(first.file, &first.key) else {
        return false;
    };
    let Some(pos) = line.rfind(|c: char| c.is_ascii_digit()) else {
        return false;
    };
    let digit = line.as_bytes()[pos];
    let replacement = if digit == b'9' {
        '0'
    } else {
        (digit + 1) as char
    };
    let mut altered_line = line.to_string();
    altered_line.replace_range(pos..pos + 1, &replacement.to_string());
    let mut altered = goldens.clone();
    altered.set_row(first.file, &first.key, altered_line);
    let flagged = mismatches(&altered, rows);
    flagged.len() == mismatches(goldens, rows).len() + 1
        && flagged.iter().any(|r| std::ptr::eq(*r, first))
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG9: &str = "benchmark,size,wasm ms,js ms,wasm/js time,wasm KB,js KB\n\
                        gemm,XS,0.101,0.700,0.14x,2126.0,880.1\n\
                        gemm,L,17.254,16.597,1.04x,2126.0,880.1\n";

    fn goldens() -> Goldens {
        let mut g = Goldens::default();
        g.add("fig9_chrome", 2, FIG9);
        g
    }

    fn row(line: &str) -> RenderedRow {
        RenderedRow {
            file: "fig9_chrome",
            key: "gemm,XS".into(),
            line: line.into(),
            cells: vec![0, 1],
        }
    }

    #[test]
    fn rows_are_keyed_by_label_columns() {
        let g = goldens();
        assert_eq!(
            g.row("fig9_chrome", "gemm,L"),
            Some("gemm,L,17.254,16.597,1.04x,2126.0,880.1")
        );
        assert!((g.sum_for("fig9_chrome", "gemm", &[2]) - 17.355).abs() < 1e-9);
    }

    #[test]
    fn matching_row_passes_and_changed_row_fails() {
        let g = goldens();
        let good = [row("gemm,XS,0.101,0.700,0.14x,2126.0,880.1")];
        assert!(mismatches(&g, &good).is_empty());
        let bad = [row("gemm,XS,0.102,0.700,0.14x,2126.0,880.1")];
        assert_eq!(mismatches(&g, &bad).len(), 1);
    }

    #[test]
    fn an_altered_copy_of_a_golden_is_caught() {
        let g = goldens();
        let good = [row("gemm,XS,0.101,0.700,0.14x,2126.0,880.1")];
        assert!(altered_golden_is_caught(&g, &good));
    }
}
