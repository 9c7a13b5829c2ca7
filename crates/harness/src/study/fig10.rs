//! Fig 10: performance improvement with JIT optimization — execution time
//! without JIT divided by time with JIT, per benchmark, for JS (`--no-opt`)
//! and Wasm (`--liftoff --no-wasm-tier-up`) on Chrome.

use super::{Study, Tables};
use crate::Run;
use wb_benchmarks::{InputSize, Suite};
use wb_core::report::Table;
use wb_core::stats::{geomean, mean};
use wb_env::{JitMode, TierPolicy};

pub(super) fn render(s: &Study) -> Tables {
    let (cli, engine) = (s.cli, s.engine);

    let rows = engine.map(cli.benchmarks(), |b| {
        let base = Run::new(b.clone(), InputSize::M);

        let js_jit = engine.js(&base);
        let mut no_jit = base.clone();
        no_jit.jit = JitMode::Disabled;
        let js_nojit = engine.js(&no_jit);

        let wasm_default = engine.wasm(&base);
        let mut basic_only = base.clone();
        basic_only.tier_policy = TierPolicy::BasicOnly;
        let wasm_basic = engine.wasm(&basic_only);

        (
            b.name,
            b.suite,
            js_nojit.time.0 / js_jit.time.0,
            wasm_basic.time.0 / wasm_default.time.0,
        )
    });

    let mut tables = Tables::new();
    for (suite, tag) in [
        (Suite::PolyBenchC, "polybench"),
        (Suite::CHStone, "chstone"),
    ] {
        let mut js_table = Table::new(
            &format!("Fig 10: JS speedup with JIT — {}", suite.name()),
            &["benchmark", "speedup"],
        );
        let mut wasm_table = Table::new(
            &format!("Fig 10: Wasm speedup with JIT (tier-up) — {}", suite.name()),
            &["benchmark", "speedup"],
        );
        let mut js_vals = Vec::new();
        let mut wasm_vals = Vec::new();
        for (name, s, js, wasm) in &rows {
            if *s != suite {
                continue;
            }
            js_table.row(vec![name.to_string(), format!("{js:.2}x")]);
            wasm_table.row(vec![name.to_string(), format!("{wasm:.2}x")]);
            js_vals.push(*js);
            wasm_vals.push(*wasm);
        }
        if js_vals.is_empty() {
            continue;
        }
        for (t, vals) in [(&mut js_table, &js_vals), (&mut wasm_table, &wasm_vals)] {
            t.row(vec![
                "geomean".into(),
                format!("{:.2}x", geomean(vals).expect("positive")),
            ]);
            t.row(vec![
                "average".into(),
                format!("{:.2}x", mean(vals).expect("non-empty")),
            ]);
        }
        tables.push((format!("fig10_js_{tag}"), js_table));
        tables.push((format!("fig10_wasm_{tag}"), wasm_table));
    }
    tables
}
