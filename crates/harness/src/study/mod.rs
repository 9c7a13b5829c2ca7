//! The study as one registry: every paper artifact is an [`Entry`] — a
//! name plus a render function over one shared [`Study`] — and
//! `wb regen [<name>…]` runs the named entries (all of them when none is
//! named) in one process.
//!
//! Entries share their cells two ways. Every grid cell goes through the
//! one [`GridEngine`], whose process-wide artifact cache and execution
//! memo let a cell that several entries need run once. And fig5, fig6,
//! table2 and fig11 are views over one [`LevelRow`] grid — 41 benchmarks
//! × 4 levels × {wasm, js, native} at M — measured on first use.
//!
//! Each entry writes one CSV per table plus `<entry>.txt`, the tables'
//! aligned text one after another; both are goldens under `results/`.

mod ablations;
mod compilers;
mod ctxswitch;
mod fig10;
mod fig11;
mod fig12_13;
mod fig5;
mod fig6;
mod fig9;
mod levels_extended;
mod table10;
mod table12;
mod table2;
mod table7;
mod table9;

use crate::{Cli, GridEngine, Run};
use std::sync::OnceLock;
use std::time::Instant;
use wb_benchmarks::InputSize;
use wb_core::report::Table;
use wb_core::Measurement;
use wb_env::Environment;
use wb_minic::OptLevel;

/// An entry's output: one `(csv file stem, table)` pair per table, in
/// the order its text appears in `<entry>.txt`.
pub type Tables = Vec<(String, Table)>;

/// One experiment of the study.
pub struct Entry {
    /// `wb regen` name, and the stem of the entry's `.txt` output.
    pub name: &'static str,
    /// Measure (through the study's engine) and tabulate.
    pub render: fn(&Study) -> Tables,
}

impl Entry {
    const fn new(name: &'static str, render: fn(&Study) -> Tables) -> Self {
        Entry { name, render }
    }
}

/// Every entry, in the order `wb regen` runs them when none is named.
pub const ENTRIES: &[Entry] = &[
    Entry::new("fig5", fig5::render),
    Entry::new("fig6", fig6::render),
    Entry::new("table2", table2::render),
    Entry::new("fig11", fig11::render),
    Entry::new("compilers", compilers::render),
    Entry::new("fig9_chrome", |s| {
        fig9::render(s, Environment::desktop_chrome())
    }),
    Entry::new("fig9_firefox", |s| {
        fig9::render(s, Environment::desktop_firefox())
    }),
    Entry::new("fig10", fig10::render),
    Entry::new("table7", table7::render),
    Entry::new("fig12_13", fig12_13::render),
    Entry::new("ctxswitch", ctxswitch::render),
    Entry::new("table9", table9::render),
    Entry::new("table10", table10::render),
    Entry::new("table12", table12::render),
    Entry::new("ablations", ablations::render),
    Entry::new("levels_extended", levels_extended::render),
];

/// The registry entry called `name`.
pub fn find(name: &str) -> Option<&'static Entry> {
    ENTRIES.iter().find(|e| e.name == name)
}

/// `wb regen` flags that take a value.
const VALUE_FLAGS: [&str; 4] = ["filter", "out", "jobs", "retries"];
/// `wb regen` flags that take none.
const BARE_FLAGS: [&str; 5] = ["quick", "no-cache", "stats", "reference-exec", "keep-going"];

/// Split `wb regen` arguments into the entries to run (all of them when
/// none is named) and the shared flags. Unknown names and flags are
/// errors that list the known ones.
pub fn parse_regen(args: &[String]) -> Result<(Vec<&'static Entry>, Cli), String> {
    let mut entries = Vec::new();
    let mut flags = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let Some(flag) = arg.strip_prefix("--") else {
            let known: Vec<&str> = ENTRIES.iter().map(|e| e.name).collect();
            entries.push(
                find(arg).ok_or_else(|| {
                    format!("unknown entry '{arg}' (known: {})", known.join(", "))
                })?,
            );
            continue;
        };
        let (name, inline_value) = flag
            .split_once('=')
            .map_or((flag, false), |(k, _)| (k, true));
        flags.push(arg.clone());
        if VALUE_FLAGS.contains(&name) {
            if !inline_value {
                flags.push(
                    args.next()
                        .ok_or(format!("--{name} expects a value"))?
                        .clone(),
                );
            }
        } else if !BARE_FLAGS.contains(&name) {
            let known: Vec<&str> = VALUE_FLAGS.iter().chain(&BARE_FLAGS).copied().collect();
            return Err(format!(
                "unknown flag '--{name}' (known: --{})",
                known.join(", --")
            ));
        }
    }
    if entries.is_empty() {
        entries = ENTRIES.iter().collect();
    }
    Ok((entries, Cli::from_args(flags)))
}

/// Run `entries` in order, writing each one's CSVs and `<entry>.txt`
/// under `--out`, with one stderr line per entry giving its wall time.
pub fn regen(study: &Study, entries: &[&Entry]) {
    let out = study.cli.out_dir();
    for entry in entries {
        let start = Instant::now();
        let mut text = String::new();
        for (stem, table) in (entry.render)(study) {
            std::fs::write(out.join(format!("{stem}.csv")), table.to_csv()).expect("write csv");
            text += &table.render();
            text.push('\n');
        }
        std::fs::write(out.join(format!("{}.txt", entry.name)), text).expect("write txt");
        eprintln!(
            "[regen] {} {:.2} s",
            entry.name,
            start.elapsed().as_secs_f64()
        );
    }
}

/// What every entry renders over: the shared flags, the shared engine
/// and the shared level grid.
pub struct Study<'a> {
    /// The shared flags.
    pub cli: &'a Cli,
    /// The engine every grid cell runs through.
    pub engine: &'a GridEngine,
    levels: OnceLock<Vec<LevelRow>>,
}

/// A number read off a [`LevelCell`].
pub type Metric = fn(&LevelCell) -> f64;

/// One benchmark's builds at one level of the shared level grid.
pub struct LevelCell {
    /// The Wasm build.
    pub wasm: Measurement,
    /// The compiled-JS build.
    pub js: Measurement,
    /// The native (x86 control) build.
    pub x86: Measurement,
}

/// One benchmark's row of the level grid: its name and its cells at
/// each of [`OptLevel::EVALUATED`] (`-O2`, the baseline, at index 1).
pub type LevelRow = (&'static str, [LevelCell; 4]);

impl<'a> Study<'a> {
    /// A study over `cli`'s flags whose cells run on `engine`.
    pub fn new(cli: &'a Cli, engine: &'a GridEngine) -> Self {
        Study {
            cli,
            engine,
            levels: OnceLock::new(),
        }
    }

    /// The level grid: every benchmark after `--filter`/`--quick` at
    /// each evaluated level, M input, desktop Chrome, Cheerp. Measured
    /// on the first call; later calls share it.
    pub fn level_grid(&self) -> &[LevelRow] {
        self.levels.get_or_init(|| {
            self.engine.map(self.cli.benchmarks(), |b| {
                let cells = OptLevel::EVALUATED.map(|level| {
                    let mut run = Run::new(b.clone(), InputSize::M);
                    run.level = level;
                    LevelCell {
                        wasm: self.engine.wasm(&run),
                        js: self.engine.js(&run),
                        x86: self.engine.native(&run),
                    }
                });
                (b.name, cells)
            })
        })
    }
}

/// `metric` at `OptLevel::EVALUATED[level]` relative to `-O2`, per
/// benchmark of the level grid.
pub fn vs_o2(grid: &[LevelRow], level: usize, metric: Metric) -> Vec<f64> {
    grid.iter()
        .map(|(_, cells)| metric(&cells[level]) / metric(&cells[1]))
        .collect()
}
