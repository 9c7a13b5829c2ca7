//! `perfbench`: the repository's benchmark. It runs a named workload of
//! grid cells through the public `wb_harness::GridEngine`/`Run` API,
//! checks every cell, and prints one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <compile_xs|exec_large|env_sweep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times passes with tracing off and prints the end-to-end
//! metrics. `--trace 1` runs the cells once stage by stage with spans and
//! prints the per-layer metrics. `--spec` prints `BENCHMARK.json`. Run it
//! from the repository root: it reads the goldens in `results/`.

mod check;
mod goldens;
mod spec;
mod sys;
mod timed;
mod traced;
mod workloads;

use check::{differing, fingerprints, Verdict};
use goldens::Goldens;
use std::collections::{BTreeSet, HashMap};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use timed::{grid_pass, Pass};
use traced::{CellTrace, Counts};
use workloads::{Cell, Workload};

/// Directory of the committed goldens, relative to the repository root.
const GOLDENS: &str = "results";
/// Directory the traced run writes its spans to.
const TRACE_DIR: &str = "perfbench/out";
/// Fewest timed passes a run reports medians over.
const MIN_TIMED_PASSES: usize = 5;
/// Set-up probes after each timed pass; `setup_s` is their median.
const PROBES_PER_PASS: usize = 2;
/// Percentiles `cell_tail_ms` may use, highest last.
const TAIL_PERCENTILES: [f64; 8] = [0.5, 0.75, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Workers of the multi-worker passes: 2, or 1 on a single core.
    jobs: usize,
}

/// What the command line asks for.
enum Mode {
    /// Print `BENCHMARK.json`.
    Spec,
    /// Set up as a run would, then exit: one sample of `setup_s`.
    SetupProbe(Args),
    /// A benchmark run.
    Run(Args),
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Mode, String> {
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut probe = false;
    while let Some(arg) = args.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
        match key {
            "spec" => return Ok(Mode::Spec),
            "setup-probe" => probe = true,
            _ => {
                let value = args
                    .next()
                    .ok_or_else(|| format!("--{key} needs a value"))?;
                flags.insert(key.to_string(), value);
            }
        }
    }
    let num = |key: &str, default: u64| -> Result<u64, String> {
        flags.get(key).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("--{key} expects a whole number, got `{v}`"))
        })
    };
    let name = flags.get("workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!(
            "unknown workload `{name}`; expected one of {}",
            names.join(", ")
        )
    })?;
    let trace = match num("trace", 0)? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace expects 0 or 1, got {t}")),
    };
    let known = ["workload", "seed", "seconds", "trace"];
    if let Some(k) = flags.keys().find(|k| !known.contains(&k.as_str())) {
        return Err(format!("unknown flag --{k}"));
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let args = Args {
        workload,
        seed: num("seed", 1)?,
        seconds: num("seconds", spec::RUN_SECONDS)?,
        trace,
        jobs: cores.min(2),
    };
    Ok(if probe {
        Mode::SetupProbe(args)
    } else {
        Mode::Run(args)
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Mode::Run(args)) => args,
        Ok(Mode::SetupProbe(args)) => {
            std::hint::black_box(setup(&args));
            return;
        }
        Ok(Mode::Spec) => {
            print!("{}", spec::benchmark_json());
            return;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Everything a run builds before its first cell is dispatched: the
/// corpus, the seeded kernel draw, the cells, an artifact cache and an
/// engine. The goldens are read only after the first pass.
struct Setup {
    kernels: Vec<&'static str>,
    cells: Vec<Cell>,
}

fn setup(args: &Args) -> Setup {
    let kernels = args.workload.kernels(args.seed);
    let cells = args.workload.cells(&kernels);
    std::hint::black_box((
        wb_core::ArtifactCache::new(),
        wb_harness::GridEngine::with_settings(None, Some(args.jobs)),
    ));
    Setup {
        kernels: kernels.iter().map(|b| b.name).collect(),
        cells,
    }
}

/// One `setup_s` sample: seconds from spawning a fresh process of this
/// benchmark until it has done [`setup`] and exited. A fresh process pays
/// the one-time work (lazy statics, first-touch pages) that a later change
/// might move ahead of the cells; a second set-up in the same process
/// would not.
fn setup_probe(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let t = Instant::now();
    let status = Command::new(exe)
        .args(["--setup-probe", "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot start set-up probe: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    if !status.success() {
        return Err(format!("set-up probe failed: {status}"));
    }
    Ok(secs)
}

/// Cells attempted and failed, summed over passes.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

impl Tally {
    fn pass(&mut self, cells: usize, failed: &BTreeSet<usize>, what: &str) {
        self.attempted += cells;
        self.failed += failed.len();
        if !failed.is_empty() {
            self.problems
                .push(format!("{what}: {} cell(s) failed", failed.len()));
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let s = setup(args);
    eprintln!(
        "perfbench: {} seed {}: {} kernels, {} cells, {} worker(s): {}",
        args.workload.name(),
        args.seed,
        s.kernels.len(),
        s.cells.len(),
        args.jobs,
        s.kernels.join(" ")
    );

    let start = Instant::now();
    let first = grid_pass(&s.cells, args.jobs);
    let goldens = Goldens::load(Path::new(GOLDENS))?;
    let verdict = check::check(&s.cells, &first.outcomes, &goldens);
    let mut tally = Tally::default();
    tally.pass(s.cells.len(), &verdict.failed, "checked pass");
    tally.problems.extend(verdict.problems.iter().cloned());
    eprintln!(
        "perfbench: {} golden rows compared, altered golden caught: {}",
        verdict.golden_rows, verdict.checker_ok
    );
    let metrics = if args.trace {
        traced_run(args, &s, &first, &mut tally)?
    } else {
        timed_run(args, &s, first, start, &mut tally)?
    };

    for p in &tally.problems {
        eprintln!("perfbench: FAIL {p}");
    }
    let correct = tally.problems.is_empty() && accepted(&verdict);
    let wanted = if args.trace {
        &spec::PER_LAYER[..]
    } else {
        &spec::END_TO_END[..]
    };
    let mut fields = Vec::new();
    for m in wanted {
        let v = metrics
            .get(m.name)
            .copied()
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        let v = if v.is_finite() { v } else { 0.0 };
        fields.push(format!(
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        fields.join(", ")
    ))
}

fn accepted(v: &Verdict) -> bool {
    v.checker_ok && v.golden_rows > 0
}

/// Timed passes, the checked `first` one included, until `--seconds` have
/// passed since `start` and at least [`MIN_TIMED_PASSES`] ran.
/// `cells_per_s` is the median over passes. `cpu_ms_per_cell` is the CPU
/// of all passes over all their cells: the clock it reads ticks in 10 ms,
/// too coarse for one pass of light cells. A cell's latency is its median
/// over passes, and `cell_p50_ms` and `cell_tail_ms` are percentiles of those,
/// so a pass in which the machine stalls a few cells does not move the
/// tail. Every pass must reproduce the first bit for bit.
fn timed_run(
    args: &Args,
    s: &Setup,
    first: Pass,
    start: Instant,
    tally: &mut Tally,
) -> Result<HashMap<&'static str, f64>, String> {
    let reference = fingerprints(&first.outcomes);
    let n = s.cells.len();
    let tail_p = tail_percentile(n);
    let mut samples: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut cell_ms: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut cpu = 0.0;
    let budget = Duration::from_secs(args.seconds);
    let mut pass = first;
    let mut passes = 1;
    loop {
        for (times, secs) in cell_ms.iter_mut().zip(&pass.cell_secs) {
            times.push(secs * 1e3);
        }
        cpu += pass.cpu;
        samples
            .entry("cells_per_s")
            .or_default()
            .push(pass.cells_per_s());
        // Sample set-up across the run, not only at its start.
        for _ in 0..PROBES_PER_PASS {
            samples
                .entry("setup_s")
                .or_default()
                .push(setup_probe(args)?);
        }
        if passes >= MIN_TIMED_PASSES && start.elapsed() >= budget {
            break;
        }
        pass = grid_pass(&s.cells, args.jobs);
        passes += 1;
        tally.pass(
            n,
            &differing(&reference, &fingerprints(&pass.outcomes)),
            "timed pass",
        );
    }
    eprintln!(
        "perfbench: {passes} timed passes in {:.1} s; cell_tail_ms is p{}",
        start.elapsed().as_secs_f64(),
        tail_p * 100.0
    );
    let mut metrics: HashMap<&'static str, f64> = HashMap::new();
    let mut names: Vec<&&'static str> = samples.keys().collect();
    names.sort();
    for name in names {
        let vals = &samples[*name];
        let (q1, q2, q3) = quartiles(vals);
        eprintln!(
            "perfbench:   {name:<16} median {q2:.6} (q1 {q1:.6}, q3 {q3:.6}, n {})",
            vals.len()
        );
        metrics.insert(name, q2);
    }
    metrics.insert("cpu_ms_per_cell", cpu * 1e3 / (passes * n) as f64);
    let mut ms: Vec<f64> = cell_ms.iter().map(|t| quartiles(t).1).collect();
    ms.sort_by(f64::total_cmp);
    metrics.insert("cell_p50_ms", percentile(&ms, 0.5));
    metrics.insert("cell_tail_ms", percentile(&ms, tail_p));
    eprintln!(
        "perfbench:   cpu_ms_per_cell  {:.6}; cell latency p50 {:.6} ms, p{} {:.6} ms over {n} cells",
        metrics["cpu_ms_per_cell"],
        metrics["cell_p50_ms"],
        tail_p * 100.0,
        metrics["cell_tail_ms"]
    );
    metrics.insert("peak_rss_mb", sys::peak_rss_mb());
    Ok(metrics)
}

/// One timed 2-worker pass (done by the caller), an untraced 1-worker
/// pass, the traced 1-worker pass and an untraced stage-by-stage 2-worker
/// pass; every cell must match bit for bit across all four.
fn traced_run(
    args: &Args,
    s: &Setup,
    first: &Pass,
    tally: &mut Tally,
) -> Result<HashMap<&'static str, f64>, String> {
    let cells = &s.cells;
    let n = cells.len();
    let reference = fingerprints(&first.outcomes);
    let single = grid_pass(cells, 1);
    tally.pass(
        n,
        &differing(&reference, &fingerprints(&single.outcomes)),
        "1-worker pass",
    );

    let (traced, origin, traced_wall) = traced::stage_pass(cells, 1);
    tally.pass(
        n,
        &differing(&reference, &trace_fingerprints(&traced)),
        "traced pass",
    );
    let (counted, _, _) = traced::stage_pass(cells, args.jobs);
    tally.pass(
        n,
        &differing(&reference, &trace_fingerprints(&counted)),
        "stage pass",
    );
    let counts = Counts::total(&traced);
    if counts != Counts::total(&counted) {
        tally
            .problems
            .push(format!("counts differ between 1 and {} workers", args.jobs));
    }
    tally
        .problems
        .extend(traced::compile_equivalence(cells, &traced));
    let layers = traced::layer_seconds(&traced)?;
    let path = format!("{TRACE_DIR}/trace-{}.jsonl", args.workload.name());
    let jsonl = traced::spans_jsonl(cells, &traced, origin);
    if let Err(e) = std::fs::create_dir_all(TRACE_DIR).and_then(|()| std::fs::write(&path, jsonl)) {
        eprintln!("perfbench: cannot write {path}: {e}");
    }

    let secs = |name: &str| layers.get(name).copied().unwrap_or(0.0);
    let host: f64 = layers.values().sum();
    let compile_side: f64 = layers
        .iter()
        .filter(|(k, _)| {
            k.starts_with("minic.")
                || k.starts_with("wasm.")
                || **k == "wasm_vm.prepare"
                || **k == "jsvm.load"
        })
        .map(|(_, v)| v)
        .sum();
    let exec = secs("wasm_vm.exec") + secs("jsvm.exec") + secs("native.exec");
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let mops = |ops: u64, s: f64| if s > 0.0 { ops as f64 / s / 1e6 } else { 0.0 };

    let mut m: HashMap<&'static str, f64> = HashMap::new();
    for metric in &spec::PER_LAYER {
        if let Some(stage) = metric.name.strip_suffix("_s") {
            m.insert(metric.name, secs(stage));
        }
    }
    m.insert("harness.glue_s", secs(traced::ROOT));
    m.insert("minic.compiles", counts.compiles as f64);
    m.insert("wasm.bytes", counts.wasm_bytes as f64);
    m.insert("wasm_vm.ops", counts.wasm_ops as f64);
    m.insert(
        "wasm_vm.mops_per_s",
        mops(counts.wasm_ops, secs("wasm_vm.exec")),
    );
    m.insert("wasm_vm.tier_ups", counts.tier_ups as f64);
    m.insert(
        "wasm_vm.opt_tier_share",
        ratio(counts.wasm_opt_ops, counts.wasm_ops),
    );
    m.insert("wasm_vm.context_switches", counts.context_switches as f64);
    m.insert("jsvm.ops", counts.js_ops as f64);
    m.insert("jsvm.mops_per_s", mops(counts.js_ops, secs("jsvm.exec")));
    m.insert(
        "jsvm.ic_hit_ratio",
        ratio(counts.ic_hits, counts.ic_hits + counts.ic_misses),
    );
    m.insert("jsvm.jit_compiles", counts.jit_compiles as f64);
    m.insert("jsvm.gc_count", counts.gc_count as f64);
    m.insert("jsvm.allocs", counts.allocs as f64);
    m.insert("native.ops", counts.native_ops as f64);
    m.insert(
        "core.cache_hit_ratio",
        ratio(counts.cache_hits, counts.cache_hits + counts.cache_misses),
    );
    m.insert("core.cache_misses", counts.cache_misses as f64);
    m.insert("harness.worker_idle_share", first.idle_share());
    m.insert("trace.compile_share", compile_side / host);
    m.insert("trace.exec_share", exec / host);
    m.insert("trace.host_s", host);
    m.insert("trace.overhead_s", traced_wall - single.wall);

    eprintln!(
        "perfbench: traced {traced_wall:.3} s vs untraced 1-worker {:.3} s; compile side {:.1}% , execution {:.1}% of {host:.3} s host",
        single.wall,
        100.0 * compile_side / host,
        100.0 * exec / host
    );
    eprintln!("perfbench: counts {counts:?}");
    Ok(m)
}

fn trace_fingerprints(traces: &[CellTrace]) -> Vec<Option<check::Fingerprint>> {
    traces
        .iter()
        .map(|t| t.outcome.as_ref().ok().map(check::Fingerprint::of))
        .collect()
}

/// The highest of [`TAIL_PERCENTILES`] with at least ten of `n` cells
/// beyond it.
fn tail_percentile(n: usize) -> f64 {
    TAIL_PERCENTILES
        .into_iter()
        .rfind(|p| n as f64 * (1.0 - p) >= 10.0 - 1e-9)
        .unwrap_or(0.5)
}

/// Nearest-rank percentile of sorted values.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// First quartile, median and third quartile (linear interpolation).
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        if v.is_empty() {
            return 0.0;
        }
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_cells_beyond() {
        assert_eq!(tail_percentile(714), 0.98);
        assert_eq!(tail_percentile(74), 0.75);
        assert_eq!(tail_percentile(480), 0.95);
        assert_eq!(tail_percentile(12), 0.5);
    }

    #[test]
    fn percentiles_and_quartiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.5, 2.0, 2.5));
    }

    #[test]
    fn spec_lists_unique_names() {
        let names: BTreeSet<&str> = spec::END_TO_END
            .iter()
            .chain(spec::PER_LAYER.iter())
            .map(|m| m.name)
            .collect();
        assert_eq!(names.len(), spec::END_TO_END.len() + spec::PER_LAYER.len());
    }
}
