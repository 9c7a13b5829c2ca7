//! Cross-crate integration tests asserting the paper's headline *shapes*
//! hold on a representative slice of the corpus. The full-grid numbers
//! live in EXPERIMENTS.md; these tests keep the shapes from regressing.

use std::sync::OnceLock;
use wasmbench::benchmarks::{suite, InputSize};
use wasmbench::core::stats::geomean;
use wasmbench::core::{
    run_compiled_js_with, run_native_with, run_wasm_with, ArtifactCache, JsSpec, Measurement,
    RunError, WasmSpec,
};
use wasmbench::env::{Browser, Environment, JitMode, Platform, TierPolicy, Toolchain};
use wasmbench::minic::OptLevel;

/// One artifact cache and execution memo for the whole binary, so the
/// Chrome/Firefox, JIT on/off, tier-policy and six-environment
/// comparisons price shared executions instead of running again.
fn cache() -> &'static ArtifactCache {
    static CACHE: OnceLock<ArtifactCache> = OnceLock::new();
    CACHE.get_or_init(ArtifactCache::new)
}

fn run_wasm(spec: &WasmSpec<'_>) -> Result<Measurement, RunError> {
    run_wasm_with(spec, Some(cache()))
}

fn run_compiled_js(spec: &JsSpec<'_>) -> Result<Measurement, RunError> {
    run_compiled_js_with(spec, Some(cache()))
}

fn run_native(
    source: &str,
    defines: &[(String, String)],
    level: OptLevel,
    entry: &str,
) -> Result<Measurement, RunError> {
    run_native_with(source, defines, level, entry, Some(cache()))
}

fn reps() -> Vec<wasmbench::benchmarks::Benchmark> {
    [
        "gemm",
        "jacobi-2d",
        "durbin",
        "floyd-warshall",
        "AES",
        "DFADD",
        "SHA",
    ]
    .iter()
    .map(|n| suite::find(n).expect("representative exists"))
    .collect()
}

fn wasm_spec(b: &wasmbench::benchmarks::Benchmark, size: InputSize) -> WasmSpec<'_> {
    let mut s = WasmSpec::new(b.source);
    s.defines = b.defines(size);
    s
}

fn js_spec(b: &wasmbench::benchmarks::Benchmark, size: InputSize) -> JsSpec<'_> {
    let mut s = JsSpec::new(b.source);
    s.defines = b.defines(size);
    s
}

/// §4.3 / Table 3: on Chrome, Wasm dominates at XS; JS catches up at
/// larger inputs (the gap shrinks monotonically in the geomean).
#[test]
fn wasm_advantage_shrinks_with_input_size_on_chrome() {
    let mut gmeans = Vec::new();
    for size in [InputSize::XS, InputSize::M, InputSize::XL] {
        let mut speedups = Vec::new();
        for b in reps() {
            let w = run_wasm(&wasm_spec(&b, size)).expect("wasm");
            let j = run_compiled_js(&js_spec(&b, size)).expect("js");
            assert_eq!(w.output, j.output, "{} {size}", b.name);
            speedups.push(j.time.0 / w.time.0);
        }
        gmeans.push(geomean(&speedups).expect("positive"));
    }
    assert!(gmeans[0] > gmeans[1], "XS {} > M {}", gmeans[0], gmeans[1]);
    assert!(gmeans[1] > gmeans[2], "M {} > XL {}", gmeans[1], gmeans[2]);
    assert!(gmeans[0] > 4.0, "Wasm dominates at XS: {}", gmeans[0]);
}

/// §4.3.2 / Table 5: on Firefox the sign flips — JS wins at XS (slow Wasm
/// instantiation), Wasm wins at XL (best optimizing tier on desktop).
#[test]
fn firefox_inverts_the_small_input_result() {
    let firefox = Environment::new(Browser::Firefox, Platform::Desktop);
    let mut xs_speedups = Vec::new();
    let mut xl_speedups = Vec::new();
    for b in reps() {
        for (size, out) in [
            (InputSize::XS, &mut xs_speedups),
            (InputSize::XL, &mut xl_speedups),
        ] {
            let mut ws = wasm_spec(&b, size);
            ws.env = firefox;
            let mut js = js_spec(&b, size);
            js.env = firefox;
            let w = run_wasm(&ws).expect("wasm");
            let j = run_compiled_js(&js).expect("js");
            out.push(j.time.0 / w.time.0);
        }
    }
    let xs = geomean(&xs_speedups).expect("positive");
    let xl = geomean(&xl_speedups).expect("positive");
    assert!(xs < 1.0, "JS wins at XS on Firefox (gmean speedup {xs})");
    assert!(xl > 1.0, "Wasm wins at XL on Firefox (gmean speedup {xl})");
}

/// §4.4 / Fig 10: JIT transforms JS performance but barely moves Wasm.
#[test]
fn jit_matters_for_js_not_for_wasm() {
    let b = suite::find("gemm").expect("gemm");
    let mut js = js_spec(&b, InputSize::M);
    let js_on = run_compiled_js(&js).expect("js");
    js.jit = JitMode::Disabled;
    let js_off = run_compiled_js(&js).expect("js");
    let js_speedup = js_off.time.0 / js_on.time.0;

    let mut ws = wasm_spec(&b, InputSize::M);
    let wasm_default = run_wasm(&ws).expect("wasm");
    ws.tier_policy = TierPolicy::BasicOnly;
    let wasm_basic = run_wasm(&ws).expect("wasm");
    let wasm_speedup = wasm_basic.time.0 / wasm_default.time.0;

    assert!(js_speedup > 5.0, "JS JIT speedup {js_speedup}");
    assert!(wasm_speedup < 1.6, "Wasm tier-up speedup {wasm_speedup}");
    assert!(js_speedup > 4.0 * wasm_speedup);
}

/// §4.2.1 / Table 2: -Ofast does not produce the fastest Wasm; -Oz is
/// competitive or better (the headline counter-intuition). On x86 the
/// optimizations behave as designed.
#[test]
fn ofast_counterintuition_on_wasm_but_not_x86() {
    let mut wasm_ofast_over_oz = Vec::new();
    let mut x86_o1_over_o2 = Vec::new();
    let mut x86_ofast_over_o2 = Vec::new();
    for b in reps() {
        let t = |level: OptLevel| {
            let mut s = wasm_spec(&b, InputSize::M);
            s.level = level;
            run_wasm(&s).expect("wasm").time.0
        };
        wasm_ofast_over_oz.push(t(OptLevel::Ofast) / t(OptLevel::Oz));
        let n = |level: OptLevel| {
            run_native(b.source, &b.defines(InputSize::M), level, "bench_main")
                .expect("native")
                .time
                .0
        };
        x86_o1_over_o2.push(n(OptLevel::O1) / n(OptLevel::O2));
        x86_ofast_over_o2.push(n(OptLevel::Ofast) / n(OptLevel::O2));
    }
    let wasm_ratio = geomean(&wasm_ofast_over_oz).expect("positive");
    assert!(wasm_ratio >= 1.0, "-Ofast ≥ -Oz on Wasm, got {wasm_ratio}");
    let x86_o1 = geomean(&x86_o1_over_o2).expect("positive");
    assert!(x86_o1 > 1.1, "x86 -O1 slower than -O2: {x86_o1}");
    let x86_ofast = geomean(&x86_ofast_over_o2).expect("positive");
    assert!(x86_ofast < 1.0, "x86 -Ofast fastest: {x86_ofast}");
}

/// §4.3 / Tables 4, 6: Wasm memory grows with input, JS stays flat.
#[test]
fn wasm_memory_grows_js_stays_flat() {
    let b = suite::find("jacobi-2d").expect("jacobi-2d");
    let wasm_xs = run_wasm(&wasm_spec(&b, InputSize::XS)).expect("wasm");
    let wasm_xl = run_wasm(&wasm_spec(&b, InputSize::XL)).expect("wasm");
    let js_xs = run_compiled_js(&js_spec(&b, InputSize::XS)).expect("js");
    let js_xl = run_compiled_js(&js_spec(&b, InputSize::XL)).expect("js");

    assert!(
        wasm_xl.memory_bytes > wasm_xs.memory_bytes + 1024 * 1024,
        "wasm grew: {} -> {}",
        wasm_xs.memory_bytes,
        wasm_xl.memory_bytes
    );
    let js_growth = js_xl.memory_bytes as f64 / js_xs.memory_bytes as f64;
    assert!(js_growth < 1.05, "js flat: {js_growth}");
    // Table 8: Wasm uses a multiple of JS memory.
    assert!(wasm_xs.memory_bytes > 2 * js_xs.memory_bytes);
}

/// §4.2.2: Emscripten output runs faster but reserves far more memory.
#[test]
fn emscripten_faster_but_bigger_than_cheerp() {
    let b = suite::find("gemm").expect("gemm");
    let cheerp = run_wasm(&wasm_spec(&b, InputSize::M)).expect("wasm");
    let mut spec = wasm_spec(&b, InputSize::M);
    spec.toolchain = Toolchain::Emscripten;
    let emscripten = run_wasm(&spec).expect("wasm");
    let speed = cheerp.time.0 / emscripten.time.0;
    assert!(
        speed > 2.0 && speed < 3.5,
        "Emscripten ~2.7x faster: {speed}"
    );
    let mem = emscripten.memory_bytes as f64 / cheerp.memory_bytes as f64;
    assert!(mem > 4.0, "Emscripten uses much more memory: {mem}");
}

/// Table 8 orderings across the six environments (desktop Wasm: Firefox
/// fastest, Edge slowest; mobile Wasm: Edge fastest, Firefox slowest).
#[test]
fn six_environment_orderings() {
    // A compute-heavy kernel, so per-browser steady-state speed (not
    // instantiation constants) decides the ordering, as in Table 8's
    // across-corpus averages.
    let b = suite::find("gemm").expect("gemm");
    let time = |env: Environment| {
        let mut s = wasm_spec(&b, InputSize::M);
        s.env = env;
        run_wasm(&s).expect("wasm").time.0
    };
    let d = |br| time(Environment::new(br, Platform::Desktop));
    let m = |br| time(Environment::new(br, Platform::Mobile));
    assert!(d(Browser::Firefox) < d(Browser::Chrome));
    assert!(d(Browser::Chrome) < d(Browser::Edge));
    assert!(m(Browser::Edge) < m(Browser::Chrome));
    assert!(m(Browser::Chrome) < m(Browser::Firefox));
    // Mobile slower than desktop.
    assert!(m(Browser::Chrome) > d(Browser::Chrome));
}

/// The §3.1 transformation pipeline end-to-end: a benchmark with
/// exceptions and unions compiles and agrees across backends only after
/// transformation, which the frontend applies automatically.
#[test]
fn transformed_constructs_run_everywhere() {
    let src = "union U { double d; long long ll; };\n\
               union U u;\n\
               int status;\n\
               void bench_main() {\n\
                 try {\n\
                   u.d = 2.5;\n\
                   if (u.ll < 0) throw 1;\n\
                   status = 1;\n\
                 } catch (...) { status = 0; }\n\
                 print_int(status);\n\
                 print_long(u.ll);\n\
               }";
    let w = run_wasm(&WasmSpec::new(src)).expect("wasm");
    let j = run_compiled_js(&JsSpec::new(src)).expect("js");
    let n = run_native(src, &[], OptLevel::O2, "bench_main").expect("native");
    assert_eq!(w.output, j.output);
    assert_eq!(w.output, n.output);
    assert_eq!(w.output[0], "1");
}
