//! Table 2: geometric means of compiler-optimization results — execution
//! time, code size and memory of JS, Wasm and x86 at `-O1`/`-Ofast`/`-Oz`
//! relative to `-O2`.

use super::{vs_o2, Metric, Study, Tables};
use wb_core::report::{ratio, Table};
use wb_core::stats::geomean;

/// A metric per target (JS, Wasm, x86); `None` where it is not measured.
type Targets = [Option<Metric>; 3];

pub(super) fn render(s: &Study) -> Tables {
    let grid = s.level_grid();
    let mut t = Table::new(
        "Table 2: geometric means of compiler optimization results (vs -O2)",
        &["Metric", "Targets", "JS", "WASM", "x86"],
    );
    let metrics: [(&str, Targets); 3] = [
        (
            "Exec. Time",
            [
                Some(|c| c.js.time.0),
                Some(|c| c.wasm.time.0),
                Some(|c| c.x86.time.0),
            ],
        ),
        (
            "Code Size",
            [
                Some(|c| c.js.code_size as f64),
                Some(|c| c.wasm.code_size as f64),
                Some(|c| c.x86.code_size as f64),
            ],
        ),
        (
            "Memory",
            [
                Some(|c| c.js.memory_bytes as f64),
                Some(|c| c.wasm.memory_bytes as f64),
                None,
            ],
        ),
    ];
    for (metric, targets) in metrics {
        for (label, level) in [("O1/O2", 0), ("Ofast/O2", 2), ("Oz/O2", 3)] {
            let mut row = vec![metric.to_string(), label.to_string()];
            row.extend(targets.map(|target| match target {
                Some(f) => ratio(geomean(&vs_o2(grid, level, f)).expect("positive ratios")),
                None => "-".into(),
            }));
            t.row(row);
        }
    }
    vec![("table2".into(), t)]
}
