//! Table 7: Wasm performance with three tier configurations on Chrome
//! and Firefox — the execution-speed ratio of the default two-tier
//! setting to basic-only and to optimizing-only.

use super::{Study, Tables};
use crate::Run;
use wb_benchmarks::{InputSize, Suite};
use wb_core::report::{ratio, Table};
use wb_core::stats::{geomean, mean};
use wb_env::{Browser, Environment, Platform, TierPolicy};

pub(super) fn render(s: &Study) -> Tables {
    let (cli, engine) = (s.cli, s.engine);
    let chrome = Environment::desktop_chrome();
    let firefox = Environment::new(Browser::Firefox, Platform::Desktop);

    // ratio = time(single-tier) / time(default): > 1 means default faster.
    let rows = engine.map(cli.benchmarks(), |b| {
        let measure = |env: Environment, policy: TierPolicy| {
            let mut run = Run::new(b.clone(), InputSize::M);
            run.env = env;
            run.tier_policy = policy;
            engine.wasm(&run).time.0
        };
        let mut out = Vec::new();
        for env in [chrome, firefox] {
            let default = measure(env, TierPolicy::Default);
            let basic = measure(env, TierPolicy::BasicOnly);
            let optimizing = measure(env, TierPolicy::OptimizingOnly);
            out.push((basic / default, optimizing / default));
        }
        (b.name, b.suite, out)
    });

    let mut t = Table::new(
        "Table 7: Wasm speed ratio of default tiers to basic/optimizing-only",
        &[
            "Benchmark",
            "Metric",
            "LiftOff",
            "Baseline",
            "TurboFan",
            "Ion",
        ],
    );
    for (suite, label) in [
        (Some(Suite::PolyBenchC), "PolyBenchC"),
        (Some(Suite::CHStone), "CHStone"),
        (None, "Overall"),
    ] {
        let mut cols: [Vec<f64>; 4] = Default::default();
        for (_, s, vals) in &rows {
            if suite.is_some() && Some(*s) != suite {
                continue;
            }
            cols[0].push(vals[0].0); // Chrome basic-only (LiftOff)
            cols[1].push(vals[1].0); // Firefox basic-only (Baseline)
            cols[2].push(vals[0].1); // Chrome optimizing-only (TurboFan)
            cols[3].push(vals[1].1); // Firefox optimizing-only (Ion)
        }
        if cols[0].is_empty() {
            continue;
        }
        t.row(vec![
            label.into(),
            "Geo. mean".into(),
            ratio(geomean(&cols[0]).expect("positive")),
            ratio(geomean(&cols[1]).expect("positive")),
            ratio(geomean(&cols[2]).expect("positive")),
            ratio(geomean(&cols[3]).expect("positive")),
        ]);
        t.row(vec![
            label.into(),
            "Average".into(),
            ratio(mean(&cols[0]).expect("non-empty")),
            ratio(mean(&cols[1]).expect("non-empty")),
            ratio(mean(&cols[2]).expect("non-empty")),
            ratio(mean(&cols[3]).expect("non-empty")),
        ]);
    }
    vec![("table7".into(), t)]
}
