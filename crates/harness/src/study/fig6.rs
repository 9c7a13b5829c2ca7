//! Fig 6: execution time and code size of the x86 (native control) build
//! at `-O1`, `-Ofast` and `-Oz`, relative to `-O2`.

use super::{vs_o2, Metric, Study, Tables};
use wb_core::report::{ratio, Table};

pub(super) fn render(s: &Study) -> Tables {
    let grid = s.level_grid();
    let headers = ["benchmark", "O1/O2", "Ofast/O2", "Oz/O2"];
    let mut time_table = Table::new("Fig 6 (top): x86 execution time relative to -O2", &headers);
    let mut size_table = Table::new("Fig 6 (bottom): x86 code size relative to -O2", &headers);
    let columns = |metric: Metric| [0, 2, 3].map(|level| vs_o2(grid, level, metric));
    let times = columns(|c| c.x86.time.0);
    let sizes = columns(|c| c.x86.code_size as f64);
    for (i, (name, _)) in grid.iter().enumerate() {
        for (table, cols) in [(&mut time_table, &times), (&mut size_table, &sizes)] {
            let mut row = vec![name.to_string()];
            row.extend(cols.iter().map(|col| ratio(col[i])));
            table.row(row);
        }
    }
    vec![
        ("fig6_time".into(), time_table),
        ("fig6_code_size".into(), size_table),
    ]
}
