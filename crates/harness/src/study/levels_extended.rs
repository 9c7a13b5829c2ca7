//! Extension beyond the paper's grid: sweep **all seven** optimization
//! levels (the paper dropped `-O0`, `-O3`/`-O4` and `-Os` as
//! unrepresentative, §3.2) over a representative benchmark slice, so the
//! full Fig 1 design space is visible.

use super::{Study, Tables};
use crate::Run;
use wb_benchmarks::InputSize;
use wb_core::report::{ratio, Table};
use wb_minic::OptLevel;

pub(super) fn render(s: &Study) -> Tables {
    let (cli, engine) = (s.cli, s.engine);
    let names = ["gemm", "jacobi-2d", "durbin", "AES", "SHA"];
    let benchmarks: Vec<_> = names
        .iter()
        .filter_map(|n| wb_benchmarks::suite::find(n))
        .filter(|b| {
            cli.get("filter")
                .map(|f| b.name.to_lowercase().contains(&f.to_lowercase()))
                .unwrap_or(true)
        })
        .collect();

    let rows = engine.map(benchmarks, |b| {
        let mut wasm = Vec::new();
        let mut size = Vec::new();
        for level in OptLevel::ALL {
            let mut run = Run::new(b.clone(), InputSize::M);
            run.level = level;
            let w = engine.wasm(&run);
            wasm.push(w.time.0);
            size.push(w.code_size as f64);
        }
        (b.name, wasm, size)
    });

    let base = OptLevel::ALL
        .iter()
        .position(|l| *l == OptLevel::O2)
        .expect("O2 in ALL");
    let headers: Vec<String> = std::iter::once("benchmark".to_string())
        .chain(OptLevel::ALL.iter().map(|l| format!("{l}/‑O2")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();

    let mut time_table = Table::new(
        "Extended levels: Wasm execution time relative to -O2 (all 7 levels)",
        &header_refs,
    );
    let mut size_table = Table::new(
        "Extended levels: Wasm code size relative to -O2",
        &header_refs,
    );
    for (name, wasm, size) in &rows {
        let mut trow = vec![name.to_string()];
        let mut srow = vec![name.to_string()];
        for i in 0..OptLevel::ALL.len() {
            trow.push(ratio(wasm[i] / wasm[base]));
            srow.push(ratio(size[i] / size[base]));
        }
        time_table.row(trow);
        size_table.row(srow);
    }
    vec![
        ("levels_extended_time".into(), time_table),
        ("levels_extended_size".into(), size_table),
    ]
}
