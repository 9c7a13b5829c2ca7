//! Figs 12/13 + Table 8: execution time and memory of Wasm and JS across
//! the six deployment settings (Chrome/Firefox/Edge × desktop/mobile).

use super::{Study, Tables};
use crate::Run;
use wb_benchmarks::InputSize;
use wb_core::report::{kilobytes, millis, ratio, Table};
use wb_core::stats::mean;
use wb_core::Measurement;
use wb_env::Environment;

/// One measured grid cell: (benchmark name, environment, wasm, js).
type Cell = (&'static str, Environment, Measurement, Measurement);

pub(super) fn render(s: &Study) -> Tables {
    let (cli, engine) = (s.cli, s.engine);
    let envs = Environment::all_six();

    let grid: Vec<(wb_benchmarks::Benchmark, Environment)> = cli
        .benchmarks()
        .into_iter()
        .flat_map(|b| {
            envs.iter()
                .map(move |e| (b.clone(), *e))
                .collect::<Vec<_>>()
        })
        .collect();

    let cells = engine.map(grid, |(b, env)| {
        let mut run = Run::new(b.clone(), InputSize::M);
        run.env = env;
        let w = engine.wasm(&run);
        let j = engine.js(&run);
        (b.name, env, w, j)
    });

    // Figs 12/13 per-benchmark rows.
    let mut fig = Table::new(
        "Figs 12/13: per-benchmark time (ms) and memory (KB), six environments (-O2, M input)",
        &[
            "benchmark",
            "environment",
            "wasm ms",
            "js ms",
            "wasm KB",
            "js KB",
        ],
    );
    for (name, env, w, j) in &cells {
        fig.row(vec![
            name.to_string(),
            env.label(),
            millis(w.time),
            millis(j.time),
            kilobytes(w.memory_bytes),
            kilobytes(j.memory_bytes),
        ]);
    }

    // Table 8: arithmetic averages per environment.
    let mut t8 = Table::new(
        "Table 8: arithmetic averages across 41 benchmarks",
        &["metric", "Chrome", "Firefox", "Edge"],
    );
    let avg = |env: Environment, f: &dyn Fn(&Cell) -> f64| -> f64 {
        let vals: Vec<f64> = cells
            .iter()
            .filter(|(_, e, _, _)| *e == env)
            .map(f)
            .collect();
        mean(&vals).expect("non-empty")
    };
    for (platform, tag) in [
        (wb_env::Platform::Desktop, "D."),
        (wb_env::Platform::Mobile, "M."),
    ] {
        for (metric, getter) in [
            ("JS Exec. Time (ms)", 0),
            ("WASM Exec. Time (ms)", 1),
            ("JS Memory (KB)", 2),
            ("WASM Memory (KB)", 3),
        ] {
            let mut row = vec![format!("{tag} {metric}")];
            for browser in wb_env::Browser::ALL {
                let env = Environment::new(browser, platform);
                let v = match getter {
                    0 => avg(env, &|c| c.3.time.as_millis()),
                    1 => avg(env, &|c| c.2.time.as_millis()),
                    2 => avg(env, &|c| c.3.memory_bytes as f64 / 1024.0),
                    _ => avg(env, &|c| c.2.memory_bytes as f64 / 1024.0),
                };
                row.push(format!("{v:.2}"));
            }
            t8.row(row);
        }
    }

    // §4.5 relative-time summary (the paper's headline ratios).
    let mut rel = Table::new(
        "§4.5: execution time relative to Chrome (same platform)",
        &["platform", "language", "Chrome", "Firefox", "Edge"],
    );
    for platform in wb_env::Platform::ALL {
        for (lang, time_of) in [("JS", 0usize), ("WASM", 1usize)] {
            let base = {
                let env = Environment::new(wb_env::Browser::Chrome, platform);
                match time_of {
                    0 => avg(env, &|c| c.3.time.as_millis()),
                    _ => avg(env, &|c| c.2.time.as_millis()),
                }
            };
            let mut row = vec![platform.name().to_string(), lang.to_string()];
            for browser in wb_env::Browser::ALL {
                let env = Environment::new(browser, platform);
                let v = match time_of {
                    0 => avg(env, &|c| c.3.time.as_millis()),
                    _ => avg(env, &|c| c.2.time.as_millis()),
                };
                row.push(ratio(v / base));
            }
            rel.row(row);
        }
    }
    vec![
        ("fig12_13".into(), fig),
        ("table8".into(), t8),
        ("table8_relative".into(), rel),
    ]
}
