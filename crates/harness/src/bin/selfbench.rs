//! Wall-clock self-benchmark of the grid engine itself: run the same
//! benchmark × environment grid with and without the artifact cache and
//! report the speedup. This measures *our* engineering (compile-once +
//! pre-decoded modules), not the paper's virtual numbers — which are
//! asserted bit-identical between the two passes.
//!
//! Writes `BENCH_selfbench.json` (repo root by default, `--out <dir>`
//! to relocate) so successive PRs can track the perf trajectory, and
//! `BENCH_vmexec.json` with raw VM throughput (virtual ops retired per
//! host second, per VM, fusion on vs fusion off — the `reference_*`
//! fields, one op per dispatch in the same loop) over the exec-dominated
//! kernels the cache section deliberately excludes: many short rounds,
//! each running every kernel under both settings in alternating order,
//! reported as medians and quartiles per kernel and per VM.
//!
//! `--vmexec-only` runs that probe alone; `scripts/ab_vmexec.sh`
//! alternates it between two builds.

use std::time::Instant;
use wb_benchmarks::InputSize;
use wb_core::{ArtifactCache, Measurement};
use wb_env::{Environment, TierPolicy};
use wb_harness::{Cli, Run};

/// The compile-bound slice of the suite: kernels whose XS-dataset
/// execution is cheap relative to the MiniC pipeline + module
/// preparation, i.e. the cells where grid wall-clock is compile-
/// dominated (the exec-dominated outliers — AES, MIPS, BLOWFISH —
/// measure the interpreter, not the cache).
const COMPILE_BOUND: &[&str] = &[
    "DFADD",
    "DFMUL",
    "DFDIV",
    "DFSIN",
    "ADPCM",
    "SHA",
    "MOTION",
    "nussinov",
    "cholesky",
    "ludcmp",
    "covariance",
    "correlation",
    "durbin",
    "trisolv",
    "lu",
    "adi",
    "jacobi-1d",
    "trmm",
];

fn main() {
    let cli = Cli::from_env();
    let dir = std::path::PathBuf::from(cli.get("out").unwrap_or("."));
    std::fs::create_dir_all(&dir).expect("out dir");
    if cli.has("vmexec-only") {
        vmexec(&dir);
        return;
    }
    // Each artifact is executed in 6 environments x 2 tier policies —
    // the fig12_13 x table7 shape, where one compile serves 12 cells.
    let benchmarks: Vec<_> = wb_benchmarks::all_benchmarks()
        .into_iter()
        .filter(|b| COMPILE_BOUND.contains(&b.name))
        .collect();
    let envs = Environment::all_six();
    let grid: Vec<Run> = benchmarks
        .iter()
        .flat_map(|b| {
            envs.iter().flat_map(|&env| {
                [TierPolicy::Default, TierPolicy::OptimizingOnly].map(|tier| {
                    let mut run = Run::new(b.clone(), InputSize::XS);
                    run.env = env;
                    run.tier_policy = tier;
                    run
                })
            })
        })
        .collect();
    let cells = grid.len();
    eprintln!(
        "[selfbench] {} benchmarks x {} envs x 2 tier policies = {} wasm cells",
        benchmarks.len(),
        envs.len(),
        cells
    );

    // Warm up the process before timing: the first handful of cells pay
    // one-time costs (allocator growth, lazy statics, CPU frequency
    // ramp) that belong to neither pass.
    for run in grid.iter().take(24) {
        run.wasm_with(None);
    }

    // Sequential on purpose (wall-clock ratios, not throughput), and
    // best-of-3 per pass: each pass is ~0.1s, short enough that one
    // scheduler hiccup skews the ratio.
    let mut uncached = Vec::new();
    let mut uncached_wall = std::time::Duration::MAX;
    for _ in 0..3 {
        let t0 = Instant::now();
        uncached = grid.iter().map(|run| run.wasm_with(None)).collect();
        uncached_wall = uncached_wall.min(t0.elapsed());
    }

    // The cached pass measures compile-once: from the second pass on,
    // every artifact is warm, but each pass starts with an empty
    // execution memo, so it executes every artifact again instead of
    // only pricing the records of the pass before.
    let cache = ArtifactCache::new();
    let mut cached = Vec::new();
    let mut cached_wall = std::time::Duration::MAX;
    for _ in 0..3 {
        cache.forget_executions();
        let t1 = Instant::now();
        cached = grid.iter().map(|run| run.wasm_with(Some(&cache))).collect();
        cached_wall = cached_wall.min(t1.elapsed());
    }

    // The cache must not change a single measured bit.
    for (u, c) in uncached.iter().zip(&cached) {
        assert_eq!(u.time.0.to_bits(), c.time.0.to_bits(), "virtual time");
        assert_eq!(u.memory_bytes, c.memory_bytes, "memory");
        assert_eq!(u.output, c.output, "output");
    }

    let stats = cache.stats();
    let speedup = uncached_wall.as_secs_f64() / cached_wall.as_secs_f64();
    eprintln!(
        "[selfbench] uncached {:.3}s, cached (warm artifacts, empty execution memo) {:.3}s -> {speedup:.2}x ({} hits / {} misses)",
        uncached_wall.as_secs_f64(),
        cached_wall.as_secs_f64(),
        stats.hits,
        stats.misses
    );

    let json = format!(
        "{{\n  \"bench\": \"selfbench\",\n  \"cells\": {cells},\n  \"runs_per_pass\": {},\n  \"uncached_s\": {:.6},\n  \"cached_s\": {:.6},\n  \"cached_pass\": \"warm artifacts, empty execution memo\",\n  \"speedup\": {:.3},\n  \"cache_hits\": {},\n  \"cache_misses\": {},\n  \"cache_bytes_saved\": {},\n  \"measurements_bit_identical\": true\n}}\n",
        cells,
        uncached_wall.as_secs_f64(),
        cached_wall.as_secs_f64(),
        speedup,
        stats.hits,
        stats.misses,
        stats.bytes_saved
    );
    let path = dir.join("BENCH_selfbench.json");
    std::fs::write(&path, json).expect("write json");
    eprintln!("[wrote {}]", path.display());

    vmexec(&dir);
    analyze_bench(&dir);
}

/// Wall-clock of the full static-verification sweep (`wb analyze --all`):
/// IR verification of every kernel at every level for every target, a
/// type-check of every emitted Wasm module, the fusion audit of both VMs
/// and the corpus lints. Tracked so the verification layer's cost stays
/// visible as the corpus and pass pipeline grow.
fn analyze_bench(dir: &std::path::Path) {
    let cfg = wb_analysis::AnalysisConfig::full();
    let t0 = Instant::now();
    let report = wb_analysis::analyze(&cfg);
    let wall = t0.elapsed().as_secs_f64();
    let checks = report.ir.len() + report.wasm.len() + report.fusion.len();
    assert!(report.ok(), "analysis failures: {:?}", report.failures());
    eprintln!(
        "[analyze] {checks} checks, {} lint finding(s), {wall:.3}s",
        report.lints.len()
    );
    let json = format!(
        "{{\n  \"bench\": \"analyze\",\n  \"checks\": {checks},\n  \"ir_checks\": {},\n  \"wasm_checks\": {},\n  \"fusion_checks\": {},\n  \"lint_findings\": {},\n  \"wall_s\": {wall:.6},\n  \"ok\": {}\n}}\n",
        report.ir.len(),
        report.wasm.len(),
        report.fusion.len(),
        report.lints.len(),
        report.ok()
    );
    let path = dir.join("BENCH_analyze.json");
    std::fs::write(&path, json).expect("write json");
    eprintln!("[wrote {}]", path.display());
}

/// The exec-dominated slice: kernels whose grid wall-clock is spent
/// retiring VM operations, not compiling — exactly where the fused
/// micro-op engines earn their keep. Six at S, and eight at L whose
/// execution dominates a full regeneration.
const EXEC_BOUND: &[(&str, InputSize)] = &[
    ("AES", InputSize::S),
    ("MIPS", InputSize::S),
    ("BLOWFISH", InputSize::S),
    ("gemm", InputSize::S),
    ("2mm", InputSize::S),
    ("floyd-warshall", InputSize::S),
    ("AES", InputSize::L),
    ("BLOWFISH", InputSize::L),
    ("gemm", InputSize::L),
    ("2mm", InputSize::L),
    ("floyd-warshall", InputSize::L),
    ("jacobi-2d", InputSize::L),
    ("atax", InputSize::L),
    ("SHA", InputSize::L),
];

/// Total virtual ops a measurement retired (sum over all op classes).
fn retired_ops(m: &Measurement) -> u64 {
    m.counts.0.iter().sum()
}

/// `[first quartile, median, third quartile]` of `samples`.
fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    [at(0.25), at(0.5), at(0.75)]
}

/// Rounds of the `vmexec` probe: enough short ones that a median and
/// quartiles hold up against a shared host's drift.
const ROUNDS: usize = 7;

fn json_quartiles(q: [f64; 3]) -> String {
    format!("[{:.6}, {:.6}, {:.6}]", q[0], q[1], q[2])
}

/// Raw VM throughput, fusion on vs off (`reference_exec`): run the
/// exec-bound kernels through a warm artifact cache (so host wall-clock
/// is execution, not compilation) in [`ROUNDS`] rounds. Each round runs
/// every kernel in each VM under both settings, one after the other,
/// alternating which goes first, and times each execution on its own.
/// Reports per-kernel quartiles, and per VM the quartiles of a round's
/// total and the virtual ops per host second at its median. The virtual
/// measurements are asserted bit-identical between the settings — same
/// discipline as the cache section above.
fn vmexec(dir: &std::path::Path) {
    let rounds = ROUNDS;
    let grid: Vec<Run> = EXEC_BOUND
        .iter()
        .map(|&(name, size)| {
            let b = wb_benchmarks::find(name).unwrap_or_else(|| panic!("{name} in corpus"));
            Run::new(b, size)
        })
        .collect();
    let cache = ArtifactCache::new();
    let run = |backend: &str, r: &Run, reference_exec: bool| -> (Measurement, f64) {
        let mut r = r.clone();
        r.reference_exec = reference_exec;
        // Artifacts stay cached; executions must not be memo hits.
        cache.forget_executions();
        let t = Instant::now();
        let m = if backend == "wasm" {
            r.wasm_with(Some(&cache))
        } else {
            r.js_with(Some(&cache))
        };
        (m, t.elapsed().as_secs_f64())
    };

    let mut rows = Vec::new();
    let mut all_identical = true;
    for backend in ["wasm", "js"] {
        // Warm the artifact cache (and the measurements to compare)
        // outside the timed rounds.
        let fused: Vec<Measurement> = grid.iter().map(|r| run(backend, r, false).0).collect();
        // walls[setting][kernel][round], setting 0 = fusion on.
        let mut walls = vec![vec![Vec::with_capacity(rounds); grid.len()]; 2];
        for round in 0..rounds {
            for (k, r) in grid.iter().enumerate() {
                let first = (round + k) % 2 == 1;
                for reference_exec in [first, !first] {
                    let (m, wall) = run(backend, r, reference_exec);
                    let f = &fused[k];
                    all_identical &= f.time.0.to_bits() == m.time.0.to_bits()
                        && f.counts.0 == m.counts.0
                        && f.output == m.output;
                    walls[usize::from(reference_exec)][k].push(wall);
                }
            }
        }
        let round_totals = |setting: usize| -> Vec<f64> {
            (0..rounds)
                .map(|round| walls[setting].iter().map(|k| k[round]).sum())
                .collect()
        };
        let (fused_q, reference_q) = (quartiles(&round_totals(0)), quartiles(&round_totals(1)));
        let ops: u64 = fused.iter().map(retired_ops).sum();
        let fused_tput = ops as f64 / fused_q[1];
        let reference_tput = ops as f64 / reference_q[1];
        eprintln!(
            "[vmexec] {backend}: {ops} virtual ops, {rounds} rounds; fusion on median {:.4} s (q1 {:.4}, q3 {:.4}), {:.1}M ops/s; fusion off median {:.4} s (q1 {:.4}, q3 {:.4}), {:.1}M ops/s ({:.2}x)",
            fused_q[1],
            fused_q[0],
            fused_q[2],
            fused_tput / 1e6,
            reference_q[1],
            reference_q[0],
            reference_q[2],
            reference_tput / 1e6,
            fused_tput / reference_tput
        );
        let kernels: Vec<String> = grid
            .iter()
            .enumerate()
            .map(|(k, r)| {
                format!(
                    "        {{\"kernel\": \"{}\", \"size\": \"{}\", \"virtual_ops\": {}, \"fused_wall_s_q1_median_q3\": {}, \"reference_wall_s_q1_median_q3\": {}}}",
                    r.benchmark.name,
                    r.size.name(),
                    retired_ops(&fused[k]),
                    json_quartiles(quartiles(&walls[0][k])),
                    json_quartiles(quartiles(&walls[1][k]))
                )
            })
            .collect();
        rows.push(format!(
            "    {{\n      \"vm\": \"{backend}\",\n      \"virtual_ops\": {ops},\n      \"fused_round_wall_s_q1_median_q3\": {},\n      \"reference_round_wall_s_q1_median_q3\": {},\n      \"fused_ops_per_s\": {fused_tput:.0},\n      \"reference_ops_per_s\": {reference_tput:.0},\n      \"speedup\": {:.3},\n      \"kernels\": [\n{}\n      ]\n    }}",
            json_quartiles(fused_q),
            json_quartiles(reference_q),
            fused_tput / reference_tput,
            kernels.join(",\n")
        ));
    }
    assert!(
        all_identical,
        "fusion-on and fusion-off measurements must match"
    );

    let json = format!(
        "{{\n  \"bench\": \"vmexec\",\n  \"kernels\": {},\n  \"rounds\": {rounds},\n  \"order\": \"each round runs every kernel under both settings, alternating which goes first; a round total sums one run of each kernel\",\n  \"vms\": [\n{}\n  ],\n  \"measurements_bit_identical\": true\n}}\n",
        grid.len(),
        rows.join(",\n")
    );
    let path = dir.join("BENCH_vmexec.json");
    std::fs::write(&path, json).expect("write json");
    eprintln!("[wrote {}]", path.display());
}
