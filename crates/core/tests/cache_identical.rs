//! The cache invariant, end to end: a run served from the artifact
//! cache or the execution memo must produce a bit-identical
//! [`Measurement`] to an uncached run — same virtual time and clock
//! buckets (to the bit), same memory, same output, same per-class and
//! arithmetic counts — across all three backends and across
//! environments, tier policies and JIT modes.

use wb_core::{
    run_compiled_js_with, run_native_with, run_wasm_with, try_run_wasm_with, ArtifactCache, JsSpec,
    Measurement, WasmSpec,
};
use wb_env::{Browser, Environment, JitMode, Platform, ResourceLimits, TierPolicy};
use wb_minic::OptLevel;

const KERNEL: &str = "#define N 20\n\
    double A[N][N];\n\
    void bench_main() {\n\
      for (int i = 0; i < N; i++)\n\
        for (int j = 0; j < N; j++)\n\
          A[i][j] = (double)(i * j % N) / N;\n\
      double s = 0.0;\n\
      for (int i = 0; i < N; i++)\n\
        for (int j = 0; j < N; j++) s += A[i][j] * A[j][i];\n\
      print_double(s);\n\
    }";

fn assert_identical(a: &Measurement, b: &Measurement, what: &str) {
    assert_eq!(
        a.time.0.to_bits(),
        b.time.0.to_bits(),
        "{what}: virtual time"
    );
    let buckets = |m: &Measurement| {
        let c = &m.clock;
        [
            c.now(),
            c.load_time,
            c.compile_time,
            c.exec_time,
            c.gc_time,
            c.mem_grow_time,
            c.context_switch_time,
        ]
        .map(|t| t.0.to_bits())
    };
    assert_eq!(buckets(a), buckets(b), "{what}: clock buckets");
    assert_eq!(a.memory_bytes, b.memory_bytes, "{what}: memory");
    assert_eq!(a.code_size, b.code_size, "{what}: code size");
    assert_eq!(a.output, b.output, "{what}: output");
    assert_eq!(a.counts, b.counts, "{what}: per-class op counts");
    assert_eq!(a.arith, b.arith, "{what}: arithmetic counts");
    assert_eq!(a.context_switches, b.context_switches, "{what}: crossings");
}

#[test]
fn cached_wasm_runs_are_bit_identical() {
    let cache = ArtifactCache::new();
    let spec = WasmSpec::new(KERNEL);
    let uncached = run_wasm_with(&spec, None).unwrap();
    let miss = run_wasm_with(&spec, Some(&cache)).unwrap();
    let hit = run_wasm_with(&spec, Some(&cache)).unwrap();
    assert_identical(&uncached, &miss, "wasm cache miss");
    assert_identical(&uncached, &hit, "wasm cache hit");
    let s = cache.stats();
    assert_eq!((s.misses, s.hits), (1, 1));
}

#[test]
fn cached_wasm_is_identical_across_environments_and_tiers() {
    // One compile key serves many run configurations; each must match
    // its own uncached twin exactly.
    let cache = ArtifactCache::new();
    for env in [
        Environment::desktop_chrome(),
        Environment::new(Browser::Firefox, Platform::Desktop),
        Environment::new(Browser::Edge, Platform::Mobile),
    ] {
        for tier in [
            TierPolicy::Default,
            TierPolicy::BasicOnly,
            TierPolicy::OptimizingOnly,
        ] {
            let mut spec = WasmSpec::new(KERNEL);
            spec.env = env;
            spec.tier_policy = tier;
            let uncached = run_wasm_with(&spec, None).unwrap();
            let cached = run_wasm_with(&spec, Some(&cache)).unwrap();
            assert_identical(&uncached, &cached, "wasm env/tier grid");
        }
    }
    // 9 cells, one compile: run-time knobs are not part of the key.
    assert_eq!(cache.stats().misses, 1);
    assert_eq!(cache.stats().hits, 8);
}

#[test]
fn cached_js_runs_are_bit_identical() {
    let cache = ArtifactCache::new();
    let spec = JsSpec::new(KERNEL);
    let uncached = run_compiled_js_with(&spec, None).unwrap();
    let miss = run_compiled_js_with(&spec, Some(&cache)).unwrap();
    let hit = run_compiled_js_with(&spec, Some(&cache)).unwrap();
    assert_identical(&uncached, &miss, "js cache miss");
    assert_identical(&uncached, &hit, "js cache hit");
}

#[test]
fn cached_native_runs_are_bit_identical() {
    let cache = ArtifactCache::new();
    let uncached = run_native_with(KERNEL, &[], OptLevel::O2, "bench_main", None).unwrap();
    let miss = run_native_with(KERNEL, &[], OptLevel::O2, "bench_main", Some(&cache)).unwrap();
    let hit = run_native_with(KERNEL, &[], OptLevel::O2, "bench_main", Some(&cache)).unwrap();
    assert_identical(&uncached, &miss, "native cache miss");
    assert_identical(&uncached, &hit, "native cache hit");
}

#[test]
fn distinct_configurations_do_not_share_artifacts() {
    // Changing a compile-relevant knob must miss, and the result must
    // still match its uncached twin.
    let cache = ArtifactCache::new();
    for level in [OptLevel::O0, OptLevel::O2, OptLevel::Ofast] {
        let mut spec = WasmSpec::new(KERNEL);
        spec.level = level;
        let uncached = run_wasm_with(&spec, None).unwrap();
        let cached = run_wasm_with(&spec, Some(&cache)).unwrap();
        assert_identical(&uncached, &cached, "per-level");
    }
    assert_eq!(cache.stats().misses, 3, "each level compiles once");
}

#[test]
fn repeated_runs_are_execution_memo_hits() {
    let cache = ArtifactCache::new();
    let wasm = WasmSpec::new(KERNEL);
    let js = JsSpec::new(KERNEL);
    let uncached = (
        run_wasm_with(&wasm, None).unwrap(),
        run_compiled_js_with(&js, None).unwrap(),
    );
    for _ in 0..2 {
        assert_identical(
            &uncached.0,
            &run_wasm_with(&wasm, Some(&cache)).unwrap(),
            "wasm memo",
        );
        assert_identical(
            &uncached.1,
            &run_compiled_js_with(&js, Some(&cache)).unwrap(),
            "js memo",
        );
    }
    let s = cache.stats();
    assert_eq!(
        (s.exec_misses, s.exec_hits),
        (2, 2),
        "one execution per backend"
    );
    // Forgetting the executions keeps the artifacts: both run again
    // without compiling.
    cache.forget_executions();
    assert_identical(
        &uncached.0,
        &run_wasm_with(&wasm, Some(&cache)).unwrap(),
        "wasm re-run",
    );
    assert_identical(
        &uncached.1,
        &run_compiled_js_with(&js, Some(&cache)).unwrap(),
        "js re-run",
    );
    let s = cache.stats();
    assert_eq!((s.exec_misses, s.exec_hits, s.misses), (4, 2, 2));
}

#[test]
fn one_wasm_execution_serves_every_environment_and_tier_policy() {
    let cache = ArtifactCache::new();
    for tier in [
        TierPolicy::Default,
        TierPolicy::BasicOnly,
        TierPolicy::OptimizingOnly,
    ] {
        for env in Environment::all_six() {
            let mut spec = WasmSpec::new(KERNEL);
            spec.env = env;
            spec.tier_policy = tier;
            let uncached = run_wasm_with(&spec, None).unwrap();
            let cached = run_wasm_with(&spec, Some(&cache)).unwrap();
            assert_identical(&uncached, &cached, &format!("wasm {env:?} {tier:?}"));
        }
    }
    // A record counts hotness bands, not tiers: every policy and both
    // tier-up thresholds (Chrome/Edge, Firefox) price one execution.
    let s = cache.stats();
    assert_eq!((s.exec_misses, s.exec_hits), (1, 17));
}

#[test]
fn one_js_execution_serves_every_environment_and_jit_mode() {
    let cache = ArtifactCache::new();
    for jit in [JitMode::Enabled, JitMode::Disabled] {
        for env in Environment::all_six() {
            let mut spec = JsSpec::new(KERNEL);
            spec.env = env;
            spec.jit = jit;
            let uncached = run_compiled_js_with(&spec, None).unwrap();
            let cached = run_compiled_js_with(&spec, Some(&cache)).unwrap();
            assert_identical(&uncached, &cached, &format!("js {env:?} {jit:?}"));
        }
    }
    // A record counts hotness bands, not tiers: both JIT modes and both
    // JIT thresholds price one execution.
    let s = cache.stats();
    assert_eq!((s.exec_misses, s.exec_hits), (1, 11));
}

#[test]
fn failed_runs_are_never_memoized() {
    let cache = ArtifactCache::new();
    let mut spec = WasmSpec::new(KERNEL);
    spec.limits = ResourceLimits::default().with_fuel(500);
    let uncached = try_run_wasm_with(&spec, None).unwrap_err();
    for _ in 0..2 {
        let cached = try_run_wasm_with(&spec, Some(&cache)).unwrap_err();
        assert_eq!(cached.error.kind(), uncached.error.kind());
        assert_identical(
            uncached.partial.as_deref().unwrap(),
            cached.partial.as_deref().unwrap(),
            "partial measurement",
        );
    }
    let s = cache.stats();
    assert_eq!(
        (s.exec_misses, s.exec_hits),
        (2, 0),
        "each failure executes"
    );
}
