//! Tests for the study registry behind `wb regen`: entries render in
//! process to the committed goldens, and argument errors are rejected.

use std::path::{Path, PathBuf};
use wb_core::ArtifactCache;
use wb_harness::study::{self, Study};
use wb_harness::{Cli, GridEngine};

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

#[test]
fn entries_regenerate_their_goldens_in_process() {
    let out = std::env::temp_dir().join(format!("wb-study-{}", std::process::id()));
    let (entries, cli) = study::parse_regen(&args(&[
        "ctxswitch",
        "table12",
        "--out",
        out.to_str().unwrap(),
    ]))
    .unwrap();
    let engine = GridEngine::from_cli(&cli);
    study::regen(&Study::new(&cli, &engine), &entries);
    for file in [
        "ctxswitch.csv",
        "ctxswitch.txt",
        "table12.csv",
        "table12.txt",
    ] {
        let got = std::fs::read_to_string(out.join(file)).unwrap();
        let golden = std::fs::read_to_string(results_dir().join(file)).unwrap();
        assert_eq!(got, golden, "{file} differs from results/{file}");
    }
    std::fs::remove_dir_all(&out).unwrap();
}

#[test]
fn unknown_entries_and_flags_are_rejected() {
    let err = study::parse_regen(&args(&["fig5", "fig99"])).err().unwrap();
    assert!(err.contains("unknown entry 'fig99'"), "{err}");
    assert!(
        err.contains("fig9_firefox"),
        "lists the known entries: {err}"
    );

    let err = study::parse_regen(&args(&["fig9", "--browser", "firefox"])).err();
    assert!(err.unwrap().contains("unknown entry 'fig9'"));
    let err = study::parse_regen(&args(&["--browser", "firefox"]))
        .err()
        .unwrap();
    assert!(err.contains("unknown flag '--browser'"), "{err}");
    assert!(
        err.contains("--reference-exec"),
        "lists the known flags: {err}"
    );

    // Malformed values are usage errors too, not panics at first use.
    for (flag, value, expects) in [
        ("--jobs", "abc", "a positive integer"),
        ("--jobs", "0", "a positive integer"),
        ("--jobs", "-2", "a positive integer"),
        ("--retries", "-1", "a non-negative integer"),
        ("--retries", "x", "a non-negative integer"),
    ] {
        for spelled in [
            args(&["table9", flag, value]),
            args(&["table9", &format!("{flag}={value}")]),
        ] {
            let err = study::parse_regen(&spelled).err().unwrap();
            assert_eq!(err, format!("{flag} expects {expects}, got '{value}'"));
        }
    }
    assert!(study::parse_regen(&args(&["--jobs", "3", "--retries", "0"])).is_ok());
}

#[test]
fn regen_arguments_select_entries_and_shared_flags() {
    let (all, cli) = study::parse_regen(&[]).unwrap();
    assert_eq!(all.len(), study::ENTRIES.len());
    assert!(!cli.has("quick"));

    // A bare flag does not swallow the entry name after it.
    let (entries, cli) =
        study::parse_regen(&args(&["--quick", "fig5", "--jobs", "2", "--out=x"])).unwrap();
    let names: Vec<&str> = entries.iter().map(|e| e.name).collect();
    assert_eq!(names, ["fig5"]);
    assert!(cli.has("quick"));
    assert_eq!((cli.jobs(), cli.get("out")), (Some(2), Some("x")));
}

#[test]
fn compilers_runs_both_toolchains_through_the_engine_cache() {
    static CACHE: std::sync::OnceLock<ArtifactCache> = std::sync::OnceLock::new();
    let cache = CACHE.get_or_init(ArtifactCache::new);
    let engine = GridEngine::with_settings(Some(cache), Some(1));
    let cli = Cli::from_args(["--filter", "trisolv"]);
    let tables = (study::find("compilers").unwrap().render)(&Study::new(&cli, &engine));
    assert_eq!(tables[0].1.len(), 2, "trisolv plus the geomean row");
    // One artifact per toolchain: the Cheerp column is built through
    // the engine's cache too.
    assert_eq!(cache.stats().misses, 2);
}

#[test]
fn firefox_tier_policy_and_jit_off_cells_are_memo_hits_after_the_chrome_defaults() {
    use wb_benchmarks::InputSize;
    use wb_env::{Environment, JitMode, TierPolicy};
    use wb_harness::Run;

    static CACHE: std::sync::OnceLock<ArtifactCache> = std::sync::OnceLock::new();
    let cache = CACHE.get_or_init(ArtifactCache::new);
    let engine = GridEngine::with_settings(Some(cache), Some(2));
    let kernels: Vec<_> = ["trisolv", "atax", "DFADD", "SHA"]
        .iter()
        .map(|n| wb_benchmarks::find(n).expect("kernel in corpus"))
        .collect();
    // fig9 sweeps sizes; table7 and fig10 measure at M.
    let sizes = [InputSize::XS, InputSize::S, InputSize::M];
    let cells = |env: Environment| {
        let mut runs = Vec::new();
        for b in &kernels {
            for size in sizes {
                let mut run = Run::new(b.clone(), size);
                run.env = env;
                runs.push(run);
            }
        }
        runs
    };

    // The Chrome default cells (fig9_chrome, and the default columns of
    // table7 and fig10) execute once each.
    for run in cells(Environment::desktop_chrome()) {
        engine.wasm(&run);
        engine.js(&run);
    }
    let executed = cache.stats().exec_misses;
    assert_eq!(executed, 2 * (kernels.len() * sizes.len()) as u64);

    // fig9_firefox: every size, both backends.
    for run in cells(Environment::desktop_firefox()) {
        engine.wasm(&run);
        engine.js(&run);
    }
    for b in &kernels {
        let base = Run::new(b.clone(), InputSize::M);
        // table7: the single-tier policies on Chrome and Firefox.
        for env in [
            Environment::desktop_chrome(),
            Environment::desktop_firefox(),
        ] {
            for tier_policy in [TierPolicy::BasicOnly, TierPolicy::OptimizingOnly] {
                let mut run = base.clone();
                run.env = env;
                run.tier_policy = tier_policy;
                engine.wasm(&run);
            }
        }
        // fig10: JS with the JIT off.
        let mut run = base.clone();
        run.jit = JitMode::Disabled;
        engine.js(&run);
    }
    assert_eq!(
        cache.stats().exec_misses,
        executed,
        "Firefox, single-tier and JIT-off cells price the Chrome executions"
    );
}
