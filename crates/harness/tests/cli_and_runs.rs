//! Tests for the harness CLI parsing and the `Run` grid-cell helper the
//! experiment binaries are built from.

use wb_benchmarks::InputSize;
use wb_core::ArtifactCache;
use wb_env::{Environment, ResourceLimits};
use wb_harness::{parallel_map, parallel_map_jobs, Cli, GridEngine, Run};

// --- Cli parsing -----------------------------------------------------------

#[test]
fn parses_key_value_and_key_eq_value_and_bare_flags() {
    let cli = Cli::from_args(["--filter", "gemm", "--out=custom", "--quick"]);
    assert_eq!(cli.get("filter"), Some("gemm"));
    assert_eq!(cli.get("out"), Some("custom"));
    assert!(cli.has("quick"));
    assert!(!cli.has("stats"));
    assert_eq!(cli.get("missing"), None);
}

#[test]
fn bare_flag_before_another_flag_is_boolean() {
    // `--quick --filter x`: `--quick` must not swallow `--filter`.
    let cli = Cli::from_args(["--quick", "--filter", "x"]);
    assert!(cli.has("quick"));
    assert_eq!(cli.get("quick"), Some("true"));
    assert_eq!(cli.get("filter"), Some("x"));
}

#[test]
fn positional_noise_without_dashes_is_ignored() {
    let cli = Cli::from_args(["stray", "--filter", "lu"]);
    assert_eq!(cli.get("filter"), Some("lu"));
    assert!(!cli.has("stray"));
}

#[test]
fn filter_restricts_benchmarks_case_insensitively() {
    let all = Cli::from_args(Vec::<String>::new()).benchmarks();
    assert_eq!(all.len(), 41, "paper corpus: 30 PolyBench + 11 CHStone");

    let some = Cli::from_args(["--filter", "GEMM"]).benchmarks();
    assert!(!some.is_empty() && some.len() < all.len());
    assert!(some.iter().all(|b| b.name.contains("gemm")));

    let none = Cli::from_args(["--filter", "no-such-kernel"]).benchmarks();
    assert!(none.is_empty());
}

#[test]
fn quick_mode_reduces_the_size_grid() {
    let full = Cli::from_args(Vec::<String>::new()).sizes();
    assert_eq!(full, InputSize::ALL.to_vec());
    let quick = Cli::from_args(["--quick"]).sizes();
    assert_eq!(quick, vec![InputSize::XS, InputSize::M, InputSize::XL]);
}

#[test]
fn quick_mode_subsamples_the_benchmark_suite() {
    let quick = Cli::from_args(["--quick"]).benchmarks();
    assert_eq!(quick.len(), 11, "every 4th of the 41 benchmarks");
    // An explicit filter wins over the subsample.
    let filtered = Cli::from_args(["--quick", "--filter", "gemm"]).benchmarks();
    assert!(filtered.iter().all(|b| b.name.contains("gemm")));
}

#[test]
fn jobs_flag_parses_and_rejects_zero() {
    assert_eq!(Cli::from_args(Vec::<String>::new()).jobs(), None);
    assert_eq!(Cli::from_args(["--jobs", "3"]).jobs(), Some(3));
    assert_eq!(Cli::from_args(["--jobs=1"]).jobs(), Some(1));
    assert_eq!(Cli::from_args(["--jobs", "0"]).jobs(), None);
}

// --- parallel_map ------------------------------------------------------------

#[test]
fn parallel_map_preserves_input_order() {
    let items: Vec<u64> = (0..200).collect();
    let out = parallel_map(items.clone(), |x| x * x);
    let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
    assert_eq!(out, expect);
}

#[test]
fn parallel_map_handles_empty_and_single_item() {
    let empty: Vec<u32> = parallel_map(Vec::<u32>::new(), |x| x);
    assert!(empty.is_empty());
    assert_eq!(parallel_map(vec![7], |x| x + 1), vec![8]);
}

#[test]
fn parallel_map_with_one_job_runs_in_submission_order() {
    // With a single worker the FIFO queue fixes the execution order, not
    // just the output order.
    let executed = std::sync::Mutex::new(Vec::new());
    let out = parallel_map_jobs((0..50).collect(), Some(1), |x: u32| {
        executed.lock().unwrap().push(x);
        x
    });
    assert_eq!(out, (0..50).collect::<Vec<_>>());
    assert_eq!(executed.into_inner().unwrap(), (0..50).collect::<Vec<_>>());
}

#[test]
fn parallel_map_respects_job_bounds() {
    for jobs in [Some(1), Some(2), Some(64), None] {
        let out = parallel_map_jobs((0..20).collect(), jobs, |x: u64| x * 2);
        assert_eq!(out, (0..20).map(|x| x * 2).collect::<Vec<_>>());
    }
}

// --- GridEngine --------------------------------------------------------------

#[test]
fn grid_engine_shares_compiles_across_cells_and_workers() {
    static CACHE: std::sync::OnceLock<ArtifactCache> = std::sync::OnceLock::new();
    let cache = CACHE.get_or_init(ArtifactCache::new);
    let engine = GridEngine::with_settings(Some(cache), Some(4));
    let b = wb_benchmarks::find("trisolv").expect("trisolv in corpus");
    let baseline = Run::new(b.clone(), InputSize::XS).wasm();

    // 6 environments, one compile key: same artifact, same measurements
    // as the uncached baseline in the matching environment.
    let runs: Vec<Run> = Environment::all_six()
        .iter()
        .map(|&env| {
            let mut run = Run::new(b.clone(), InputSize::XS);
            run.env = env;
            run
        })
        .collect();
    let results = engine.map(runs.clone(), |run| engine.wasm(&run));
    assert_eq!(results.len(), 6);
    let chrome = &results[runs
        .iter()
        .position(|r| r.env == Environment::desktop_chrome())
        .unwrap()];
    assert_eq!(chrome.time.0.to_bits(), baseline.time.0.to_bits());
    assert_eq!(chrome.output, baseline.output);

    let stats = cache.stats();
    assert_eq!(stats.misses, 1, "one compile for six cells");
    assert_eq!(stats.hits, 5);
    // The six environments share two executions: one per tier-up
    // threshold (Chrome/Edge, Firefox).
    assert_eq!((stats.exec_misses, stats.exec_hits), (2, 4));
}

#[test]
fn failures_of_cells_that_differ_only_in_environment_stay_apart() {
    let engine = GridEngine::with_settings(None, Some(2)).with_keep_going();
    let b = wb_benchmarks::find("trisolv").expect("trisolv in corpus");
    let cells: Vec<Run> = [
        Environment::desktop_chrome(),
        Environment::desktop_firefox(),
    ]
    .into_iter()
    .map(|env| {
        let mut run = Run::new(b.clone(), InputSize::XS);
        run.env = env;
        run.limits = ResourceLimits::default().with_fuel(10);
        run
    })
    .collect();
    assert_eq!(cells[0].label("wasm"), cells[1].label("wasm"));
    engine.map(cells, |c| engine.wasm(&c));
    assert_eq!(engine.failure_count(), 2, "one quarantine entry per cell");

    let out = std::env::temp_dir().join(format!("wb-failures-{}", std::process::id()));
    let cli = Cli::from_args(["--out", out.to_str().unwrap()]);
    engine.emit_failures(&cli, "envs");
    let csv = std::fs::read_to_string(out.join("envs_failures.csv")).unwrap();
    std::fs::remove_dir_all(&out).unwrap();
    let rows: Vec<&str> = csv.lines().skip(1).collect();
    assert_eq!(rows.len(), 2, "{csv}");
    assert!(rows.iter().any(|r| r.contains("Desktop Chrome")), "{csv}");
    assert!(rows.iter().any(|r| r.contains("Desktop Firefox")), "{csv}");
}

// --- Run ---------------------------------------------------------------------

#[test]
fn run_defaults_are_the_study_baseline() {
    let b = wb_benchmarks::find("gemm").expect("gemm in corpus");
    let run = Run::new(b, InputSize::XS);
    assert_eq!(run.env, Environment::desktop_chrome());
    assert_eq!(run.toolchain, wb_env::Toolchain::Cheerp);
    assert_eq!(run.level, wb_minic::OptLevel::O2);
    assert_eq!(run.tier_policy, wb_env::TierPolicy::Default);
    assert_eq!(run.jit, wb_env::JitMode::Enabled);
}

#[test]
fn run_executes_all_three_backends_with_identical_output() {
    let b = wb_benchmarks::find("durbin").expect("durbin in corpus");
    let run = Run::new(b, InputSize::XS);
    let w = run.wasm();
    let j = run.js();
    let n = run.native();
    assert!(!w.output.is_empty());
    assert_eq!(w.output, j.output, "Wasm and JS must agree");
    assert_eq!(w.output, n.output, "Wasm and native must agree");
    // Wasm runs cross the boundary at least twice (call in, return out).
    assert!(w.context_switches >= 2);
    // Every backend reports positive time, memory and code size.
    for m in [&w, &j, &n] {
        assert!(m.time.0 > 0.0);
        assert!(m.memory_bytes > 0);
        assert!(m.code_size > 0);
        assert!(m.counts.total() > 0);
    }
}

#[test]
fn run_grid_cell_is_deterministic() {
    let b = wb_benchmarks::find("trisolv").expect("trisolv in corpus");
    let run = Run::new(b, InputSize::XS);
    let a = run.wasm();
    let b2 = run.wasm();
    assert_eq!(
        a.time.0, b2.time.0,
        "virtual time must be exactly reproducible"
    );
    assert_eq!(a.memory_bytes, b2.memory_bytes);
    assert_eq!(a.output, b2.output);
    assert_eq!(a.counts.total(), b2.counts.total());
}

#[test]
fn larger_inputs_take_longer_on_every_backend() {
    let b = wb_benchmarks::find("bicg").expect("bicg in corpus");
    let xs = Run::new(b.clone(), InputSize::XS);
    let m = Run::new(b, InputSize::M);
    assert!(m.wasm().time.0 > xs.wasm().time.0);
    assert!(m.js().time.0 > xs.js().time.0);
    assert!(m.native().time.0 > xs.native().time.0);
}
