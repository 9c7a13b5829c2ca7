//! Correctness of a pass: every cell ran, outputs agree across backends,
//! and the cells that also exist in a committed golden re-render it
//! byte for byte with the `wb_core::report` formatters.

use crate::goldens::{altered_golden_is_caught, mismatches, Goldens, RenderedRow};
use crate::workloads::{Cell, Target};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use wb_benchmarks::{InputSize, Suite};
use wb_core::report::{kilobytes, millis, ratio, Table};
use wb_core::Measurement;
use wb_env::{Environment, JitMode, TierPolicy};
use wb_minic::OptLevel;

/// What one cell produced.
pub type Outcome = Result<Measurement, String>;

/// Every field of a [`Measurement`], with floats as their exact bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    time: u64,
    buckets: [u64; 6],
    memory_bytes: u64,
    code_size: u64,
    counts: Vec<u64>,
    arith: [u64; 7],
    output: Vec<String>,
    context_switches: u64,
}

impl Fingerprint {
    /// Fingerprint of a measurement.
    pub fn of(m: &Measurement) -> Fingerprint {
        let c = &m.clock;
        Fingerprint {
            time: m.time.0.to_bits(),
            buckets: [
                c.load_time.0.to_bits(),
                c.compile_time.0.to_bits(),
                c.exec_time.0.to_bits(),
                c.gc_time.0.to_bits(),
                c.mem_grow_time.0.to_bits(),
                c.context_switch_time.0.to_bits(),
            ],
            memory_bytes: m.memory_bytes,
            code_size: m.code_size,
            counts: m.counts.0.to_vec(),
            arith: m.arith.columns(),
            output: m.output.clone(),
            context_switches: m.context_switches,
        }
    }
}

/// Fingerprints of a pass (`None` for a cell that failed).
pub fn fingerprints(outcomes: &[Outcome]) -> Vec<Option<Fingerprint>> {
    outcomes
        .iter()
        .map(|o| o.as_ref().ok().map(Fingerprint::of))
        .collect()
}

/// Ids of cells whose fingerprint differs from (or is missing in) `reference`.
pub fn differing(
    reference: &[Option<Fingerprint>],
    other: &[Option<Fingerprint>],
) -> BTreeSet<usize> {
    reference
        .iter()
        .zip(other)
        .enumerate()
        .filter(|(_, (a, b))| a.is_none() || a != b)
        .map(|(i, _)| i)
        .collect()
}

/// The verdict on one pass.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Cells that errored or failed a check.
    pub failed: BTreeSet<usize>,
    /// One line per problem found.
    pub problems: Vec<String>,
    /// Golden rows compared.
    pub golden_rows: usize,
    /// Whether an altered copy of a golden was caught.
    pub checker_ok: bool,
}

/// Check one pass's outcomes.
pub fn check(cells: &[Cell], outcomes: &[Outcome], goldens: &Goldens) -> Verdict {
    let mut v = Verdict::default();
    for (cell, outcome) in cells.iter().zip(outcomes) {
        if let Err(e) = outcome {
            v.failed.insert(cell.id);
            v.problems.push(format!("{}: {e}", cell.label()));
        }
    }

    // Outputs agree within each (benchmark, size, level): across wasm, js
    // and native, every environment, tier policy and JIT mode.
    let mut groups: BTreeMap<(&str, usize, &str), Vec<usize>> = BTreeMap::new();
    for cell in cells {
        let r = &cell.run;
        groups
            .entry((r.benchmark.name, r.size.index(), r.level.name()))
            .or_default()
            .push(cell.id);
    }
    for ((name, _, level), ids) in groups {
        let outputs: BTreeSet<&Vec<String>> = ids
            .iter()
            .filter_map(|&i| outcomes[i].as_ref().ok().map(|m| &m.output))
            .collect();
        if outputs.len() > 1 {
            v.failed.extend(ids);
            v.problems
                .push(format!("{name} {level}: outputs disagree across cells"));
        }
    }

    let rows = golden_rows(cells, outcomes);
    v.golden_rows = rows.len();
    for row in mismatches(goldens, &rows) {
        v.failed.extend(row.cells.iter().copied());
        v.problems.push(format!(
            "{} {}: rendered `{}`, golden `{}`",
            row.file,
            row.key,
            row.line,
            goldens.row(row.file, &row.key).unwrap_or("<missing>")
        ));
    }
    v.checker_ok = altered_golden_is_caught(goldens, &rows);
    if !v.checker_ok {
        v.problems
            .push("an altered copy of a golden was not caught".to_string());
    }
    v
}

/// One CSV data row rendered like the experiment binaries render it.
fn csv_row(headers: &[&str], fields: Vec<String>) -> String {
    let mut table = Table::new("", headers);
    table.row(fields);
    table
        .to_csv()
        .lines()
        .nth(1)
        .unwrap_or_default()
        .to_string()
}

/// Rows of fig9 (Chrome), fig12_13 and fig10 that the pass's cells
/// reproduce. A row is rendered only when every cell it needs is in the
/// workload and ran.
fn golden_rows(cells: &[Cell], outcomes: &[Outcome]) -> Vec<RenderedRow> {
    let mut index: HashMap<String, usize> = HashMap::new();
    for cell in cells {
        let r = &cell.run;
        index.insert(
            coords(
                r.benchmark.name,
                r.size,
                r.level,
                r.env,
                r.tier_policy,
                r.jit,
                cell.target,
            ),
            cell.id,
        );
    }
    let find = |name: &str, size, env, tier, jit, target| -> Option<(usize, &Measurement)> {
        let id = *index.get(&coords(name, size, OptLevel::O2, env, tier, jit, target))?;
        outcomes[id].as_ref().ok().map(|m| (id, m))
    };
    let chrome = Environment::desktop_chrome();
    let (default, basic) = (TierPolicy::Default, TierPolicy::BasicOnly);
    let (jit, no_jit) = (JitMode::Enabled, JitMode::Disabled);

    let mut seen = BTreeSet::new();
    let mut rows = Vec::new();
    for cell in cells {
        let b = &cell.run.benchmark;
        let size = cell.run.size;
        if !seen.insert((b.name, size.index())) {
            continue;
        }
        if let (Some((wi, w)), Some((ji, j))) = (
            find(b.name, size, chrome, default, jit, Target::Wasm),
            find(b.name, size, chrome, default, jit, Target::Js),
        ) {
            rows.push(RenderedRow {
                file: "fig9_chrome",
                key: format!("{},{}", b.name, size.code()),
                line: csv_row(
                    &[
                        "benchmark",
                        "size",
                        "wasm ms",
                        "js ms",
                        "wasm/js time",
                        "wasm KB",
                        "js KB",
                    ],
                    vec![
                        b.name.to_string(),
                        size.code().into(),
                        millis(w.time),
                        millis(j.time),
                        ratio(w.time.0 / j.time.0),
                        kilobytes(w.memory_bytes),
                        kilobytes(j.memory_bytes),
                    ],
                ),
                cells: vec![wi, ji],
            });
        }
        if size != InputSize::M {
            continue;
        }
        for env in Environment::all_six() {
            if let (Some((wi, w)), Some((ji, j))) = (
                find(b.name, size, env, default, jit, Target::Wasm),
                find(b.name, size, env, default, jit, Target::Js),
            ) {
                rows.push(RenderedRow {
                    file: "fig12_13",
                    key: format!("{},{}", b.name, env.label()),
                    line: csv_row(
                        &[
                            "benchmark",
                            "environment",
                            "wasm ms",
                            "js ms",
                            "wasm KB",
                            "js KB",
                        ],
                        vec![
                            b.name.to_string(),
                            env.label(),
                            millis(w.time),
                            millis(j.time),
                            kilobytes(w.memory_bytes),
                            kilobytes(j.memory_bytes),
                        ],
                    ),
                    cells: vec![wi, ji],
                });
            }
        }
        let polybench = b.suite == Suite::PolyBenchC;
        let speedup =
            |slow: (usize, &Measurement), fast: (usize, &Measurement), file| RenderedRow {
                file,
                key: b.name.to_string(),
                line: csv_row(
                    &["benchmark", "speedup"],
                    vec![
                        b.name.to_string(),
                        format!("{:.2}x", slow.1.time.0 / fast.1.time.0),
                    ],
                ),
                cells: vec![slow.0, fast.0],
            };
        if let (Some(slow), Some(fast)) = (
            find(b.name, size, chrome, default, no_jit, Target::Js),
            find(b.name, size, chrome, default, jit, Target::Js),
        ) {
            let file = if polybench {
                "fig10_js_polybench"
            } else {
                "fig10_js_chstone"
            };
            rows.push(speedup(slow, fast, file));
        }
        if let (Some(slow), Some(fast)) = (
            find(b.name, size, chrome, basic, jit, Target::Wasm),
            find(b.name, size, chrome, default, jit, Target::Wasm),
        ) {
            let file = if polybench {
                "fig10_wasm_polybench"
            } else {
                "fig10_wasm_chstone"
            };
            rows.push(speedup(slow, fast, file));
        }
    }
    rows
}

/// A cell's grid coordinates as a lookup key.
fn coords(
    name: &str,
    size: InputSize,
    level: OptLevel,
    env: Environment,
    tier: TierPolicy,
    jit: JitMode,
    target: Target,
) -> String {
    format!(
        "{name}/{}/{}/{}/{tier:?}/{jit:?}/{}",
        size.code(),
        level.name(),
        env.label(),
        target.name()
    )
}
