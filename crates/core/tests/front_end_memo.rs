//! The front-end memo, end to end: artifacts built through one
//! [`ArtifactCache`], whose level × target compiles of a kernel share one
//! checked HIR, must equal what the uncached compiler emits, and a
//! front end must be built once per `(source, defines)`.

use wb_benchmarks::{all_benchmarks, Benchmark, InputSize};
use wb_core::{
    run_compiled_js_with, run_native, run_native_with, run_wasm_with, ArtifactCache, ArtifactKey,
    ArtifactKind, JsSpec, Measurement, RunError, WasmSpec,
};
use wb_env::Toolchain;
use wb_minic::{CompileError, Compiler, OptLevel};

/// Kernels also compiled at S, so a front-end key that dropped the
/// defines would hand them their XS front end.
const AT_TWO_SIZES: [&str; 2] = ["durbin", "jacobi-1d"];

const ENTRY: &str = "bench_main";

fn compiler(defines: &[(String, String)], level: OptLevel, heap: Option<u64>) -> Compiler {
    let mut c = Compiler::cheerp().opt_level(level);
    if let Some(h) = heap {
        c = c.heap_limit(h);
    }
    for (k, v) in defines {
        c = c.define(k, v);
    }
    c
}

fn same_measurement(a: &Measurement, b: &Measurement) -> bool {
    a.time.0.to_bits() == b.time.0.to_bits()
        && a.memory_bytes == b.memory_bytes
        && a.code_size == b.code_size
        && a.output == b.output
        && a.counts == b.counts
}

/// Build every level × target of `bench` at `size` through `cache` and
/// compare each artifact with the uncached compile.
fn check_kernel(cache: &ArtifactCache, bench: &Benchmark, size: InputSize) {
    let defines = bench.defines(size);
    let label = format!("{}/{}", bench.name, size.name());
    for level in OptLevel::ALL {
        let mut wasm = WasmSpec::new(bench.source);
        wasm.defines = defines.clone();
        wasm.level = level;
        run_wasm_with(&wasm, Some(cache)).unwrap_or_else(|e| panic!("{label} wasm: {e}"));
        let key = ArtifactKey::compute(
            ArtifactKind::Wasm,
            bench.source,
            &defines,
            level,
            Toolchain::Cheerp,
            wasm.heap_limit,
            false,
        );
        let cached = cache
            .wasm(key, || -> Result<_, ()> {
                unreachable!("the run above built it")
            })
            .expect("cached wasm");
        let fresh = compiler(&defines, level, wasm.heap_limit)
            .compile_wasm(bench.source)
            .expect("uncached wasm compile");
        assert!(
            wb_wasm::encode_module(&fresh.module) == cached.bytes,
            "{label} {level:?}: wasm bytes"
        );
        assert_eq!(fresh.strings, cached.strings, "{label} {level:?}: strings");

        let mut js = JsSpec::new(bench.source);
        js.defines = defines.clone();
        js.level = level;
        run_compiled_js_with(&js, Some(cache)).unwrap_or_else(|e| panic!("{label} js: {e}"));
        let key = ArtifactKey::compute(
            ArtifactKind::Js,
            bench.source,
            &defines,
            level,
            Toolchain::Cheerp,
            None,
            false,
        );
        let cached = cache
            .js(key, || -> Result<_, ()> {
                unreachable!("the run above built it")
            })
            .expect("cached js");
        let fresh = compiler(&defines, level, None)
            .compile_js(bench.source)
            .expect("uncached js compile");
        assert!(
            fresh.source == cached.source,
            "{label} {level:?}: js source"
        );

        let cached = run_native_with(bench.source, &defines, level, ENTRY, Some(cache))
            .unwrap_or_else(|e| panic!("{label} native: {e}"));
        let fresh = run_native(bench.source, &defines, level, ENTRY).expect("uncached native");
        assert!(
            same_measurement(&cached, &fresh),
            "{label} {level:?}: native measurement"
        );
    }
}

#[test]
fn every_kernel_builds_one_front_end_for_all_levels_and_targets() {
    let cache = ArtifactCache::new();
    let mut kernels = 0;
    for bench in all_benchmarks() {
        let sizes: &[InputSize] = if AT_TWO_SIZES.contains(&bench.name) {
            &[InputSize::XS, InputSize::S]
        } else {
            &[InputSize::XS]
        };
        for &size in sizes {
            let built = cache.stats().frontend_misses;
            check_kernel(&cache, &bench, size);
            assert_eq!(
                cache.stats().frontend_misses - built,
                1,
                "{}/{}: one front end for 7 levels x 3 targets",
                bench.name,
                size.name()
            );
            kernels += 1;
        }
    }
    let s = cache.stats();
    assert_eq!(s.frontend_misses, kernels);
    assert_eq!(s.frontend_hits, kernels * (7 * 3 - 1));
}

#[test]
fn a_front_end_error_reaches_every_level_and_target_and_is_not_kept() {
    let source = "void bench_main() { int x = ; }";
    let expected = Compiler::cheerp()
        .frontend(source)
        .expect_err("the source does not parse");
    let cache = ArtifactCache::new();
    let compile_error = |r: Result<Measurement, RunError>| match r {
        Err(RunError::Compile(e)) => e,
        other => panic!("expected a compile error, got {other:?}"),
    };
    for level in OptLevel::ALL {
        let mut wasm = WasmSpec::new(source);
        wasm.level = level;
        let mut js = JsSpec::new(source);
        js.level = level;
        let errors: [CompileError; 3] = [
            compile_error(run_wasm_with(&wasm, Some(&cache))),
            compile_error(run_compiled_js_with(&js, Some(&cache))),
            compile_error(run_native_with(source, &[], level, ENTRY, Some(&cache))),
        ];
        for e in errors {
            assert_eq!(e, expected, "{level:?}");
        }
    }
    let s = cache.stats();
    assert_eq!(
        (s.frontend_misses, s.frontend_hits),
        (21, 0),
        "every lookup builds again"
    );
}
