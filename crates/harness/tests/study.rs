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
