//! §4.5 context-switch microbenchmark: JS↔Wasm boundary cost per call on
//! the three desktop browsers (the paper: Firefox ≈ 0.13× of Chrome).

use super::{Study, Tables};
use crate::run_or_exit;
use wb_core::apps::context_switch_bench;
use wb_core::report::{ratio, Table};
use wb_env::{Browser, Environment, Platform};

pub(super) fn render(_: &Study) -> Tables {
    let calls = 1_000;
    let mut t = Table::new(
        "§4.5: JS↔Wasm context-switch cost (desktop)",
        &["browser", "ns per boundary crossing", "relative to Chrome"],
    );
    let chrome = run_or_exit(
        "ctxswitch/Chrome",
        context_switch_bench(Environment::desktop_chrome(), calls),
    );
    for browser in Browser::ALL {
        let env = Environment::new(browser, Platform::Desktop);
        let ns = run_or_exit(browser.name(), context_switch_bench(env, calls));
        t.row(vec![
            browser.name().into(),
            format!("{:.1}", ns.0),
            ratio(ns.0 / chrome.0),
        ]);
    }
    vec![("ctxswitch".into(), t)]
}
