//! Table 12 (Appendix D): arithmetic operations executed by the Long.js
//! programs — JS vs Wasm, by operation kind.

use super::{Study, Tables};
use crate::run_or_exit;
use wb_benchmarks::apps::longjs::LongOp;
use wb_core::apps::{longjs_js, longjs_wasm};
use wb_core::report::Table;
use wb_env::{ArithCounts, Environment};

pub(super) fn render(_: &Study) -> Tables {
    let env = Environment::desktop_chrome();
    let mut t = Table::new(
        "Table 12: Long.js arithmetic operation counts",
        &[
            "Benchmark",
            "JS/WASM",
            "ADD",
            "MUL",
            "DIV",
            "REM",
            "SHIFT",
            "AND",
            "OR",
            "Total",
        ],
    );
    let fmt = |c: &ArithCounts| -> Vec<String> {
        c.columns()
            .iter()
            .map(|v| v.to_string())
            .chain(std::iter::once(c.total().to_string()))
            .collect()
    };
    for op in LongOp::ALL {
        let j = run_or_exit(&format!("longjs-{}/js", op.name()), longjs_js(op, env));
        let w = run_or_exit(&format!("longjs-{}/wasm", op.name()), longjs_wasm(op, env));
        let mut row = vec![op.name().to_string(), "JS".into()];
        row.extend(fmt(&j.arith));
        t.row(row);
        let mut row = vec![op.name().to_string(), "WASM".into()];
        row.extend(fmt(&w.arith));
        t.row(row);
    }
    vec![("table12".into(), t)]
}
