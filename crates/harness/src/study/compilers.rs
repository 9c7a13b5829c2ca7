//! §4.2.2: Cheerp vs Emscripten — execution time and memory of the 41
//! benchmarks compiled by both toolchains at `-O2` on desktop Chrome.

use super::{Study, Tables};
use crate::Run;
use wb_benchmarks::InputSize;
use wb_core::report::{kilobytes, millis, ratio, Table};
use wb_core::stats::geomean;
use wb_env::Toolchain;

pub(super) fn render(s: &Study) -> Tables {
    let (cli, engine) = (s.cli, s.engine);

    let rows = engine.map(cli.benchmarks(), |b| {
        let cheerp = engine.wasm(&Run::new(b.clone(), InputSize::M));
        let mut em = Run::new(b.clone(), InputSize::M);
        em.toolchain = Toolchain::Emscripten;
        let emscripten = engine.wasm(&em);
        (b.name, cheerp, emscripten)
    });

    let mut t = Table::new(
        "§4.2.2: Cheerp vs Emscripten (-O2, Chrome desktop, M input)",
        &[
            "benchmark",
            "cheerp ms",
            "emscripten ms",
            "time ratio",
            "cheerp KB",
            "emscripten KB",
        ],
    );
    let mut time_ratios = Vec::new();
    let mut mem_ratios = Vec::new();
    for (name, c, e) in &rows {
        time_ratios.push(c.time.0 / e.time.0);
        mem_ratios.push(e.memory_bytes as f64 / c.memory_bytes as f64);
        t.row(vec![
            name.to_string(),
            millis(c.time),
            millis(e.time),
            ratio(c.time.0 / e.time.0),
            kilobytes(c.memory_bytes),
            kilobytes(e.memory_bytes),
        ]);
    }
    t.row(vec![
        "geomean".into(),
        "-".into(),
        "-".into(),
        format!(
            "{:.2}x faster (Emscripten)",
            geomean(&time_ratios).expect("positive")
        ),
        "-".into(),
        format!(
            "{:.2}x more memory (Emscripten)",
            geomean(&mem_ratios).expect("positive")
        ),
    ]);
    vec![("compilers".into(), t)]
}
