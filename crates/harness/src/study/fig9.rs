//! Fig 9 + Tables 3/4 (Chrome) and Tables 5/6 (Firefox): execution time
//! and memory of Wasm and JS across the five input sizes.

use super::{Study, Tables};
use crate::Run;
use wb_core::report::{kilobytes, millis, ratio, Table};
use wb_core::stats::{mean, speedup_split};
use wb_env::Environment;

/// The Fig 9 size sweep and its Tables 3–6 summaries in `env`.
pub(super) fn render(s: &Study, env: Environment) -> Tables {
    let (cli, engine) = (s.cli, s.engine);
    let sizes = cli.sizes();
    let browser = env.browser.name();
    let tag = browser.to_lowercase();

    let grid: Vec<(wb_benchmarks::Benchmark, wb_benchmarks::InputSize)> = cli
        .benchmarks()
        .into_iter()
        .flat_map(|b| {
            sizes
                .iter()
                .map(move |s| (b.clone(), *s))
                .collect::<Vec<_>>()
        })
        .collect();

    let cells = engine.map(grid, |(b, size)| {
        let mut run = Run::new(b.clone(), size);
        run.env = env;
        let w = engine.wasm(&run);
        let j = engine.js(&run);
        assert_eq!(w.output, j.output, "{} {size}: outputs must agree", b.name);
        (b.name, size, w, j)
    });

    // Fig 9 per-benchmark rows.
    let mut fig = Table::new(
        &format!("Fig 9: time (ms) and memory (KB) per input size — {browser} desktop"),
        &[
            "benchmark",
            "size",
            "wasm ms",
            "js ms",
            "wasm/js time",
            "wasm KB",
            "js KB",
        ],
    );
    for (name, size, w, j) in &cells {
        fig.row(vec![
            name.to_string(),
            size.code().into(),
            millis(w.time),
            millis(j.time),
            ratio(w.time.0 / j.time.0),
            kilobytes(w.memory_bytes),
            kilobytes(j.memory_bytes),
        ]);
    }

    // Tables 3/5: SD/SU split per size.
    let mut split = Table::new(
        &format!("Table 3/5: {browser} execution time statistics"),
        &[
            "Input Size",
            "SD #",
            "SD gmean",
            "SU #",
            "SU gmean",
            "All gmean",
        ],
    );
    for size in &sizes {
        let pairs: Vec<(f64, f64)> = cells
            .iter()
            .filter(|(_, s, _, _)| s == size)
            .map(|(_, _, w, j)| (j.time.0, w.time.0))
            .collect();
        let s = speedup_split(&pairs).expect("non-empty grid");
        let all = if s.all_gmean >= 1.0 {
            format!("{:.2}x up", s.all_gmean)
        } else {
            format!("{:.2}x down", 1.0 / s.all_gmean)
        };
        split.row(vec![
            size.name().into(),
            s.slowdown_count.to_string(),
            format!("{:.2}x", s.slowdown_gmean),
            s.speedup_count.to_string(),
            format!("{:.2}x", s.speedup_gmean),
            all,
        ]);
    }

    // Tables 4/6: average memory per size.
    let mut memory = Table::new(
        &format!("Table 4/6: {browser} average memory usage (KB)"),
        &["Input Size", "JavaScript", "WebAssembly"],
    );
    for size in &sizes {
        let js_mem: Vec<f64> = cells
            .iter()
            .filter(|(_, s, _, _)| s == size)
            .map(|(_, _, _, j)| j.memory_bytes as f64)
            .collect();
        let wasm_mem: Vec<f64> = cells
            .iter()
            .filter(|(_, s, _, _)| s == size)
            .map(|(_, _, w, _)| w.memory_bytes as f64)
            .collect();
        memory.row(vec![
            size.name().into(),
            kilobytes(mean(&js_mem).expect("non-empty") as u64),
            kilobytes(mean(&wasm_mem).expect("non-empty") as u64),
        ]);
    }
    vec![
        (format!("fig9_{tag}"), fig),
        (format!("table3_5_{tag}"), split),
        (format!("table4_6_{tag}"), memory),
    ]
}
