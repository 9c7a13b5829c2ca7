//! Fig 5: execution time and code size of WebAssembly and JavaScript at
//! `-O1`, `-Ofast` and `-Oz`, relative to `-O2`, per benchmark
//! (desktop Chrome, default = medium input).

use super::{vs_o2, Metric, Study, Tables};
use wb_core::report::{ratio, Table};
use wb_minic::OptLevel;

pub(super) fn render(s: &Study) -> Tables {
    let grid = s.level_grid();
    let headers = [
        "benchmark",
        "wasm O1/O2",
        "wasm Ofast/O2",
        "wasm Oz/O2",
        "js O1/O2",
        "js Ofast/O2",
        "js Oz/O2",
    ];
    let mut time_table = Table::new(
        "Fig 5 (top): execution time relative to -O2 (Chrome desktop, M input)",
        &headers,
    );
    let mut size_table = Table::new("Fig 5 (bottom): code size relative to -O2", &headers);
    // Columns relative to -O2, like the figure's y-axis: wasm then js,
    // each at -O1, -Ofast and -Oz.
    let columns = |wasm: Metric, js: Metric| {
        [wasm, js].map(|metric| [0, 2, 3].map(|level| vs_o2(grid, level, metric)))
    };
    let times = columns(|c| c.wasm.time.0, |c| c.js.time.0);
    let sizes = columns(|c| c.wasm.code_size as f64, |c| c.js.code_size as f64);
    for (i, (name, _)) in grid.iter().enumerate() {
        for (table, cols) in [(&mut time_table, &times), (&mut size_table, &sizes)] {
            let mut row = vec![name.to_string()];
            row.extend(cols.iter().flatten().map(|col| ratio(col[i])));
            table.row(row);
        }
    }

    // Per-level winner census (§4.2.1's "no silver bullet" paragraph).
    let mut fastest = [0usize; 4];
    for (_, cells) in grid {
        let mut best = 0;
        for i in 1..4 {
            if cells[i].wasm.time.0 < cells[best].wasm.time.0 {
                best = i;
            }
        }
        fastest[best] += 1;
    }
    let mut census = Table::new(
        "Fastest Wasm binary per optimization level (§4.2.1)",
        &["level", "benchmarks fastest"],
    );
    for (level, n) in OptLevel::EVALUATED.iter().zip(fastest) {
        census.row(vec![level.to_string(), n.to_string()]);
    }
    vec![
        ("fig5_time".into(), time_table),
        ("fig5_code_size".into(), size_table),
        ("fig5_fastest_census".into(), census),
    ]
}
