//! Suite-wide fusion-on vs fusion-off differential test.
//!
//! Runs every benchmark at XS through each VM's one dispatch loop twice —
//! with fusion on (default) and off, one op per dispatch
//! (`--reference-exec`) — across backends, Wasm tier policies and JS JIT
//! modes, asserting the resulting [`Measurement`]s are bit-identical. Both
//! backends are also checked at L (Wasm under the default tier policy),
//! where their loops run hottest (release builds only).
//! This is the end-to-end proof of the cost-equivalence invariant the
//! per-VM differential tests check in miniature.

use wb_benchmarks::InputSize;
use wb_core::Measurement;
use wb_env::{JitMode, TierPolicy};
use wb_harness::{parallel_map, Run};

fn assert_measurements_identical(a: &Measurement, b: &Measurement, what: &str) {
    assert_eq!(a.time.0.to_bits(), b.time.0.to_bits(), "{what}: time");
    let buckets = [
        ("load", a.clock.load_time, b.clock.load_time),
        ("compile", a.clock.compile_time, b.clock.compile_time),
        ("exec", a.clock.exec_time, b.clock.exec_time),
        ("gc", a.clock.gc_time, b.clock.gc_time),
        ("grow", a.clock.mem_grow_time, b.clock.mem_grow_time),
        (
            "ctx",
            a.clock.context_switch_time,
            b.clock.context_switch_time,
        ),
    ];
    for (name, x, y) in buckets {
        assert_eq!(x.0.to_bits(), y.0.to_bits(), "{what}: {name} time");
    }
    assert_eq!(a.memory_bytes, b.memory_bytes, "{what}: memory");
    assert_eq!(a.code_size, b.code_size, "{what}: code size");
    assert_eq!(a.counts.0, b.counts.0, "{what}: op counts");
    assert_eq!(a.arith, b.arith, "{what}: arith profile");
    assert_eq!(a.output, b.output, "{what}: program output");
    assert_eq!(
        a.context_switches, b.context_switches,
        "{what}: context switches"
    );
}

fn fused_and_reference(mut run: Run) -> (Run, Run) {
    run.reference_exec = false;
    let mut reference = run.clone();
    reference.reference_exec = true;
    (run, reference)
}

#[test]
fn wasm_suite_matches_across_engines_and_tier_policies() {
    let mut cells = Vec::new();
    for b in wb_benchmarks::all_benchmarks() {
        for tier_policy in [
            TierPolicy::Default,
            TierPolicy::BasicOnly,
            TierPolicy::OptimizingOnly,
        ] {
            let mut run = Run::new(b.clone(), InputSize::XS);
            run.tier_policy = tier_policy;
            cells.push(run);
        }
    }
    parallel_map(cells, |run| {
        let what = format!("{} wasm {:?}", run.benchmark.name, run.tier_policy);
        let (fused, reference) = fused_and_reference(run);
        assert_measurements_identical(&fused.wasm(), &reference.wasm(), &what);
    });
}

#[test]
fn js_suite_matches_across_engines_and_jit_modes() {
    let mut cells = Vec::new();
    for b in wb_benchmarks::all_benchmarks() {
        for jit in [JitMode::Enabled, JitMode::Disabled] {
            let mut run = Run::new(b.clone(), InputSize::XS);
            run.jit = jit;
            cells.push(run);
        }
    }
    parallel_map(cells, |run| {
        let what = format!("{} js {:?}", run.benchmark.name, run.jit);
        let (fused, reference) = fused_and_reference(run);
        assert_measurements_identical(&fused.js(), &reference.js(), &what);
    });
}

#[test]
#[cfg_attr(debug_assertions, ignore = "every kernel at L: release builds only")]
fn suites_match_at_large_size() {
    let backends = [
        ("wasm", Run::wasm as fn(&Run) -> Measurement),
        ("js", Run::js),
    ];
    let mut cells = Vec::new();
    for b in wb_benchmarks::all_benchmarks() {
        for backend in backends {
            cells.push((Run::new(b.clone(), InputSize::L), backend));
        }
    }
    parallel_map(cells, |(run, (backend, measure))| {
        let what = format!("{} {backend} L", run.benchmark.name);
        let (fused, reference) = fused_and_reference(run);
        assert_measurements_identical(&measure(&fused), &measure(&reference), &what);
    });
}
