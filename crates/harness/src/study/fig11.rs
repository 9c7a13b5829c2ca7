//! Fig 11: five-number summaries (min/Q1/median/Q3/max) of the
//! optimization-level ratios — execution time, code size and memory of
//! JS, Wasm and x86 at `-O1`/`-Ofast`/`-Oz` relative to `-O2`.

use super::{vs_o2, Metric, Study, Tables};
use wb_core::report::Table;
use wb_core::stats::five_number;

pub(super) fn render(s: &Study) -> Tables {
    let grid = s.level_grid();
    let mut t = Table::new(
        "Fig 11: five-number summaries of opt-level ratios (vs -O2)",
        &["series", "min", "q1", "median", "q3", "max"],
    );
    let metrics: [(&str, Metric); 8] = [
        ("JS Time", |c| c.js.time.0),
        ("JS CS", |c| c.js.code_size as f64),
        ("JS Mem", |c| c.js.memory_bytes as f64),
        ("WASM Time", |c| c.wasm.time.0),
        ("WASM CS", |c| c.wasm.code_size as f64),
        ("WASM Mem", |c| c.wasm.memory_bytes as f64),
        ("x86 Time", |c| c.x86.time.0),
        ("x86 CS", |c| c.x86.code_size as f64),
    ];
    for (metric, f) in metrics {
        for (label, level) in [("O1/O2", 0), ("Ofast/O2", 2), ("Oz/O2", 3)] {
            let five = five_number(&vs_o2(grid, level, f)).expect("non-empty");
            t.row(vec![
                format!("{metric} {label}"),
                format!("{:.3}", five.min),
                format!("{:.3}", five.q1),
                format!("{:.3}", five.median),
                format!("{:.3}", five.q3),
                format!("{:.3}", five.max),
            ]);
        }
    }
    vec![("fig11".into(), t)]
}
