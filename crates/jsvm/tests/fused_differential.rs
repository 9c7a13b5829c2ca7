//! Fused-vs-reference differential tests for the MiniJS VM.
//!
//! The fused forms of the lowered stream exist purely to make the host
//! run faster; they must be invisible in every measured quantity. Each
//! differential test runs the same script through both modes
//! (`reference_exec` toggled) and asserts the *entire* report matches
//! to the bit — virtual time, per-bucket clock attribution, per-class
//! and per-tier op counts, Table 12 arithmetic profile, heap statistics
//! and JIT compiles — alongside results and console output.

use wb_env::JitMode;
use wb_jsvm::{JsError, JsReport, JsValue, JsVm, JsVmConfig};

fn config(reference_exec: bool, jit: JitMode) -> JsVmConfig {
    let mut cfg = JsVmConfig::reference();
    cfg.jit = jit;
    cfg.reference_exec = reference_exec;
    cfg
}

/// Compare every field of two reports bit-exactly (floats via to_bits).
fn assert_reports_identical(a: &JsReport, b: &JsReport) {
    assert_eq!(a.total.0.to_bits(), b.total.0.to_bits(), "total time");
    assert_eq!(
        a.clock.load_time.0.to_bits(),
        b.clock.load_time.0.to_bits(),
        "load time"
    );
    assert_eq!(
        a.clock.compile_time.0.to_bits(),
        b.clock.compile_time.0.to_bits(),
        "compile time"
    );
    assert_eq!(
        a.clock.exec_time.0.to_bits(),
        b.clock.exec_time.0.to_bits(),
        "exec time"
    );
    assert_eq!(
        a.clock.gc_time.0.to_bits(),
        b.clock.gc_time.0.to_bits(),
        "gc time"
    );
    assert_eq!(a.counts.0, b.counts.0, "op counts by class");
    assert_eq!(
        a.interp_counts.0, b.interp_counts.0,
        "interp-tier op counts"
    );
    assert_eq!(a.heap, b.heap, "heap stats");
    assert_eq!(a.arith, b.arith, "arith profile");
    assert_eq!(a.jit_compiles, b.jit_compiles, "jit compiles");
    assert_eq!(a.code_ops, b.code_ops, "code ops");
}

/// Load `src` in a fresh VM per mode (reference first), under both JIT
/// settings, apply `tweak` to each config, run `drive`, and assert both
/// modes give the same outcome, console output and report, bit for bit.
/// Returns the outcome and the two JIT-enabled VMs, reference first.
fn differential<T: PartialEq + std::fmt::Debug>(
    src: &str,
    tweak: impl Fn(&mut JsVmConfig),
    drive: impl Fn(&mut JsVm) -> T,
) -> (T, [JsVm; 2]) {
    let mut kept = None;
    for jit in [JitMode::Disabled, JitMode::Enabled] {
        let [mut reference, mut fused] = [true, false].map(|reference_exec| {
            let mut cfg = config(reference_exec, jit);
            tweak(&mut cfg);
            JsVm::new(cfg)
        });
        let outcomes = [&mut reference, &mut fused].map(|vm| {
            vm.load(src).expect("script loads");
            drive(vm)
        });
        let [want, got] = outcomes;
        assert_eq!(want, got, "outcome (jit {jit:?})");
        assert_eq!(
            reference.output, fused.output,
            "console output (jit {jit:?})"
        );
        assert_reports_identical(&reference.report(), &fused.report());
        kept = Some((got, [reference, fused]));
    }
    kept.unwrap()
}

/// [`differential`] of one call that must succeed; returns its result.
fn run_both(src: &str, entry: &str, args: &[JsValue]) -> JsValue {
    differential(
        src,
        |_| {},
        |vm| vm.call(entry, args).expect("call succeeds"),
    )
    .0
}

#[test]
fn hot_numeric_loop_matches() {
    // Exercises LCCmpJf / LLCmpJf, LCBinStore (i++), LLBinStore and
    // tier-up under JIT.
    let src = "function sum(n) {\n\
               var s = 0;\n\
               for (var i = 0; i < n; i = i + 1) { s = s + i; }\n\
               return s;\n\
             }";
    assert_eq!(
        run_both(src, "sum", &[JsValue::Num(20000.0)]),
        JsValue::Num(199990000.0)
    );
}

#[test]
fn typed_array_kernel_matches() {
    // Exercises LLGetIndex / SetIndexIc on Float64Array, including the
    // typed-array counting split (typed_band_counts).
    let src = "function dot(n) {\n\
               var a = new Float64Array(n);\n\
               var b = new Float64Array(n);\n\
               for (var i = 0; i < n; i = i + 1) { a[i] = i * 0.5; b[i] = 2; }\n\
               var s = 0;\n\
               for (var i = 0; i < n; i = i + 1) { s = s + a[i] * b[i]; }\n\
               return s;\n\
             }";
    assert_eq!(
        run_both(src, "dot", &[JsValue::Num(5000.0)]),
        JsValue::Num((0..5000).map(|i| i as f64 * 0.5 * 2.0).sum::<f64>())
    );
}

#[test]
fn int32_and_u8_arrays_match() {
    let src = "function mix(n) {\n\
               var a = new Int32Array(n);\n\
               var b = new Uint8Array(n);\n\
               for (var i = 0; i < n; i = i + 1) { a[i] = i * 7; b[i] = i * 3; }\n\
               var s = 0;\n\
               for (var i = 0; i < n; i = i + 1) { s = s + (a[i] ^ b[i]); }\n\
               return s;\n\
             }";
    let expect: i32 = (0..2000).map(|i| (i * 7) ^ ((i * 3) & 0xff)).sum();
    assert_eq!(
        run_both(src, "mix", &[JsValue::Num(2000.0)]),
        JsValue::Num(expect as f64)
    );
}

#[test]
fn plain_arrays_and_growth_match() {
    // Plain-array stores resize (bytes_since_gc growth) and must stay
    // on the reference path; reads take the fused element read.
    let src = "function build(n) {\n\
               var a = [];\n\
               for (var i = 0; i < n; i = i + 1) { a[i] = i * 2; }\n\
               var s = 0;\n\
               for (var i = 0; i < n; i = i + 1) { s = s + a[i]; }\n\
               return s;\n\
             }";
    assert_eq!(
        run_both(src, "build", &[JsValue::Num(3000.0)]),
        JsValue::Num((0..3000).map(|i| (i * 2) as f64).sum())
    );
}

#[test]
fn string_paths_fall_back_and_match() {
    // String concatenation (allocating Add) and string indexing
    // (allocating GetIndex) must take the reference path — and still
    // produce identical measurements.
    let src = "function weave(n) {\n\
               var s = '';\n\
               for (var i = 0; i < n; i = i + 1) { s = s + 'ab'[i % 2]; }\n\
               return s.length;\n\
             }";
    assert_eq!(
        run_both(src, "weave", &[JsValue::Num(64.0)]),
        JsValue::Num(64.0)
    );
}

#[test]
fn gc_churn_matches() {
    // Allocation churn with GC in the middle of fused loops: pause
    // charges and heap stats must be measurement-invisible.
    let src = "function churn(n) {\n\
               var keep = [];\n\
               for (var i = 0; i < n; i = i + 1) {\n\
                 var t = [i, i + 1, i + 2];\n\
                 if (i % 50 === 0) { keep.push(t); }\n\
               }\n\
               var s = 0;\n\
               for (var j = 0; j < keep.length; j = j + 1) { s = s + keep[j][0]; }\n\
               return s;\n\
             }";
    let (_, vms) = differential(
        src,
        |cfg| cfg.profile.gc.trigger_bytes = 16 * 1024,
        |vm| vm.call("churn", &[JsValue::Num(4000.0)]).unwrap(),
    );
    for vm in vms {
        assert!(vm.report().heap.gc_count > 0, "GC must have run");
    }
}

#[test]
fn mixed_arithmetic_and_compares_match() {
    let src = "function f(n) {\n\
               var x = 1.5;\n\
               var k = 0;\n\
               for (var i = 1; i <= n; i = i + 1) {\n\
                 x = (x * 3.0) % 97.0 + i / 7.0 - (i % 5);\n\
                 if (x > 50.0) { k = k + 1; }\n\
                 if (x === 12.0) { k = k + 100; }\n\
               }\n\
               return k + x;\n\
             }";
    run_both(src, "f", &[JsValue::Num(5000.0)]);
}

// ---- fused index forms ----------------------------------------------

#[test]
fn ic_hits_dominate_on_monomorphic_typed_loops() {
    let src = "function fill(n) {\n\
               var a = new Float64Array(n);\n\
               for (var i = 0; i < n; i = i + 1) { a[i] = i; }\n\
               var s = 0;\n\
               for (var i = 0; i < n; i = i + 1) { s = s + a[i]; }\n\
               return s;\n\
             }";
    let mut vm = JsVm::new(JsVmConfig::reference());
    vm.load(src).unwrap();
    vm.call("fill", &[JsValue::Num(10000.0)]).unwrap();
    let (hits, misses) = vm.ic_stats();
    assert!(hits > 15000, "expected ~2n hits, got {hits}");
    assert!(
        misses <= 4,
        "monomorphic sites should miss at most once each, got {misses}"
    );
}

#[test]
fn receiver_swaps_through_one_site_read_the_right_element() {
    // One fused load site (`t[i]`) sees a Float64Array, a plain array, an
    // Int32Array and a string in turn, and each read must be its own
    // receiver's element.
    let src = "var a = new Float64Array(4);\n\
             var b = [10, 11, 12, 13];\n\
             var c = new Int32Array(4);\n\
             var s = 'wxyz';\n\
             function init() { for (var i = 0; i < 4; i = i + 1) { a[i] = i + 0.5; c[i] = 0 - i; } return 0; }\n\
             function pick(k, i) { var t = k == 0 ? a : (k == 1 ? b : (k == 2 ? c : s)); return t[i]; }";
    let picks = [
        (0, 1),
        (1, 1),
        (2, 1),
        (0, 2),
        (3, 1),
        (2, 3),
        (1, 0),
        (0, 3),
    ];
    let (r, [_, fused]) = differential(
        src,
        |_| {},
        |vm| {
            vm.call("init", &[]).unwrap();
            picks.map(|(k, i)| vm.call("pick", &[JsValue::Num(k as f64), JsValue::Num(i as f64)]))
        },
    );
    let n = |x: f64| Ok(JsValue::Num(x));
    assert_eq!(
        r,
        [
            n(1.5),
            n(11.0),
            n(-1.0),
            n(2.5),
            Ok(JsValue::Str("x".into())),
            n(-3.0),
            n(10.0),
            n(3.5)
        ]
    );
    // The fused forms served `init`'s 8 stores and the 7 array reads, and
    // fell back on the string.
    assert_eq!(fused.ic_stats(), (15, 1));
}

#[test]
fn reads_after_a_gc_read_the_right_element() {
    // A collection frees the receiver a fused site last read and recycles
    // heap slots; the site must then read whatever the global holds.
    let src = "var a = new Float64Array(8);\n\
             function read(i) { var t = a; return t[i]; }\n\
             function init() { a[1] = 7; return 0; }\n\
             function churn(n) {\n\
               for (var i = 0; i < n; i = i + 1) { var t = [i, i, i, i]; }\n\
               return 0;\n\
             }\n\
             function refill(v) { a = null; churn(2000); a = [v, v + 1, v + 2]; return 0; }\n\
             function restring() { a = null; churn(2000); a = 'pqr'; return 0; }";
    let (r, vms) = differential(
        src,
        |cfg| cfg.profile.gc.trigger_bytes = 8 * 1024,
        |vm| {
            let mut out = Vec::new();
            let one = [JsValue::Num(1.0)];
            vm.call("init", &[]).unwrap();
            out.push(vm.call("read", &one));
            vm.call("churn", &[JsValue::Num(2000.0)]).unwrap();
            out.push(vm.call("read", &one));
            vm.call("refill", &[JsValue::Num(20.0)]).unwrap();
            out.push(vm.call("read", &one));
            vm.call("restring", &[]).unwrap();
            out.push(vm.call("read", &one));
            out
        },
    );
    let n = |x: f64| Ok(JsValue::Num(x));
    assert_eq!(
        r,
        vec![n(7.0), n(7.0), n(21.0), Ok(JsValue::Str("q".into()))]
    );
    for vm in vms {
        assert!(vm.report().heap.gc_count >= 3, "each churn must collect");
    }
}

#[test]
fn only_typed_receivers_count_as_typed_accesses() {
    // One load and one store into a Float64Array, then the same into a
    // plain array, each through a fused site: only the first pair lands
    // in the typed counts, fused and reference alike.
    let src = "var t = new Float64Array(4);\n\
             var p = [0, 0, 0, 0];\n\
             function typed(i) { var r = t; r[i] = 2; return r[i]; }\n\
             function plain(i) { var r = p; r[i] = 3; return r[i]; }";
    let index = |vm: &JsVm| {
        let counts = vm.record().band_counts;
        let sum = |bands: &[wb_env::OpCounts]| {
            let merged = bands
                .iter()
                .fold(wb_env::OpCounts::new(), |a, c| a.merged(c));
            [wb_env::OpClass::Load, wb_env::OpClass::Store].map(|c| merged.get(c))
        };
        (sum(&counts.typed), sum(&counts.ops))
    };
    let (r, [reference, fused]) = differential(
        src,
        |_| {},
        |vm| {
            let one = [JsValue::Num(1.0)];
            let typed = (vm.call("typed", &one), index(vm));
            let plain = (vm.call("plain", &one), index(vm));
            [typed, plain]
        },
    );
    let [(typed, after_typed), (plain, after_plain)] = r;
    assert_eq!(
        (typed, plain),
        (Ok(JsValue::Num(2.0)), Ok(JsValue::Num(3.0)))
    );
    assert_eq!(after_typed, ([1, 1], [0, 0]), "typed receiver");
    assert_eq!(after_plain, ([1, 1], [1, 1]), "plain receiver");
    // Both fused sites served the typed receiver; the plain array's store
    // fell back to the plain op, which may resize.
    assert_eq!(fused.ic_stats(), (3, 1));
    assert_eq!(reference.ic_stats(), (0, 0));
}

// ---- the compiled-JS idioms: element address, coerced store, loop test --

/// A 2-D kernel in the shape the MiniC JS backend emits: materialized
/// loop tests, coerced counter stores and `A[(i) * 8 + j]` addressing.
const KERNEL_2D: &str = "var A_a = new Float64Array(64);\n\
    function fill(n) {\n\
      var i = 0; var j = 0;\n\
      for (i = 0; ((i) < (8) ? 1 : 0); i = (((i) + (1)) | 0)) {\n\
        for (j = 0; ((j) < (n) ? 1 : 0); j = (((j) + (1)) | 0)) {\n\
          A_a[((i) * 8 + j)] = ((i) * (j)) | 0;\n\
        }\n\
      }\n\
      return 0;\n\
    }\n\
    function sum(n) {\n\
      var s = 0.0; var i = 0; var j = 0; var t = 0;\n\
      for (i = 0; ((i) < (8) ? 1 : 0); i = (((i) + (1)) | 0)) {\n\
        for (j = 0; ((j) < (n) ? 1 : 0); j = (((j) + (1)) | 0)) {\n\
          s = s + A_a[((i) * 8 + j)];\n\
          t = (t + 1) & 3;\n\
        }\n\
      }\n\
      return s + t;\n\
    }\n\
    function main(n) { fill(n); return sum(n); }";

#[test]
fn backend_idioms_match_and_cut_dispatches() {
    let (r, [reference, fused]) = differential(
        KERNEL_2D,
        |_| {},
        |vm| vm.call("main", &[JsValue::Num(8.0)]),
    );
    // Σ i·j over 8×8, plus the 64 increments of t mod 4.
    assert_eq!(r, Ok(JsValue::Num(28.0 * 28.0)));
    let (f_fused, f_plain) = fused.dispatch_stats();
    let (r_fused, r_plain) = reference.dispatch_stats();
    assert_eq!(r_fused, 0, "the reference engine never fuses");
    assert!(
        (f_fused + f_plain) * 3 < r_plain,
        "fused {f_fused} + plain {f_plain} dispatches vs reference {r_plain}"
    );
}

#[test]
fn loop_test_tail_matches_on_both_paths() {
    // The tail on an `if` whose comparison alternates, on a loop test
    // that fails at once (n = 0) and on one that runs (n = 30).
    let src = "function f(n) {\n\
               var k = 0; var r = 0; var i = 0;\n\
               for (i = 0; ((i) < (n) ? 1 : 0); i = (((i) + (1)) | 0)) {\n\
                 r = (i % 3) | 0;\n\
                 if (((r) == (0) ? 1 : 0)) { k = (((k) + (10)) | 0); }\n\
                 if (((r) < (k) ? 1 : 0)) { k = (((k) - (1)) | 0); }\n\
               }\n\
               return k;\n\
             }";
    let expect = |n: u32| {
        let mut k = 0;
        for i in 0..n {
            let r = (i % 3) as i32;
            if r == 0 {
                k += 10;
            }
            if r < k {
                k -= 1;
            }
        }
        k
    };
    for n in [0, 1, 30] {
        let (r, _) = differential(src, |_| {}, |vm| vm.call("f", &[JsValue::Num(n as f64)]));
        assert_eq!(r, Ok(JsValue::Num(expect(n) as f64)), "n = {n}");
    }
}

#[test]
fn unbound_global_raises_the_same_reference_error() {
    // GAddr's global guard: both the address form (a store) and the
    // cached-load form fall back, and LoadGlobal raises.
    let src = "function load(i, j) { return B_b[((i) * 4 + j)]; }\n\
             function store(i, j) { B_b[((i) * 4 + j)] = 1; return 0; }";
    for entry in ["load", "store"] {
        let (r, _) = differential(
            src,
            |_| {},
            |vm| vm.call(entry, &[JsValue::Num(1.0), JsValue::Num(2.0)]),
        );
        assert!(
            matches!(&r, Err(JsError::Reference { name }) if name == "B_b"),
            "{entry}: {r:?}"
        );
    }
}

#[test]
fn non_number_locals_take_the_plain_path() {
    // String operands: `Add` concatenates (and allocates), so every new
    // family's number guard must fail and hand over to the plain ops.
    let src = "var A_a = new Float64Array(64);\n\
             function coerce(t) { t = (((t) + (1)) | 0); return t; }\n\
             function at(i, j) { A_a[42] = 5; return A_a[((i) * 4 + j)]; }\n\
             function count(s) { var n = 0; while (((s) < (5) ? 1 : 0)) { n = n + 1; s = s + 1; } return n; }";
    let s = |v: &str| JsValue::Str(v.into());
    let (r, _) = differential(
        src,
        |_| {},
        |vm| {
            [
                vm.call("coerce", &[s("41")]),
                // (1 * 4) + "2" is "42".
                vm.call("at", &[JsValue::Num(1.0), s("2")]),
                vm.call("count", &[s("3")]),
            ]
        },
    );
    assert_eq!(
        r,
        [
            Ok(JsValue::Num(411.0)),
            Ok(JsValue::Num(5.0)),
            Ok(JsValue::Num(1.0))
        ]
    );
}

#[test]
fn gaddr_reads_the_swapped_receiver() {
    // One element-address load site reads `A_a`, then, after `swap`
    // rebinds the global, `B_b`'s elements.
    let src = "var A_a = new Float64Array(16);\n\
             var B_b = new Float64Array(16);\n\
             function init() { var i = 0; for (i = 0; ((i) < (16) ? 1 : 0); i = (((i) + (1)) | 0)) { B_b[i] = i; } return 0; }\n\
             function read(i, j) { return A_a[((i) * 4 + j)]; }\n\
             function swap() { A_a = B_b; return 0; }";
    let (r, [_, fused]) = differential(
        src,
        |_| {},
        |vm| {
            vm.call("init", &[]).unwrap();
            let mut out = Vec::new();
            for (i, j) in [(1.0, 1.0), (1.0, 2.0), (1.0, 3.0), (2.0, 0.0)] {
                if i == 1.0 && j == 3.0 {
                    vm.call("swap", &[]).unwrap();
                }
                out.push(vm.call("read", &[JsValue::Num(i), JsValue::Num(j)]));
            }
            out
        },
    );
    let n = |x: f64| Ok(JsValue::Num(x));
    assert_eq!(r, vec![n(0.0), n(0.0), n(7.0), n(8.0)]);
    // The fused forms served `init`'s 16 stores and all four reads.
    assert_eq!(fused.ic_stats(), (20, 0));
}

#[test]
fn jumps_into_a_group_interior_run_plain_ops() {
    // `c ? a : (b + 1)` jumps from its true branch to the `Const 0; BitOr`
    // inside the coerced store headed by `b + 1`; the outer `? 1 : 0`
    // jumps from `i < 4` into the bool tail headed by `j < 4`.
    let src = "function pick(c, a, b) { var x = 0; x = ((c ? a : (b + 1)) | 0); return x; }\n\
             function both(c, i, j) {\n\
               var n = 0;\n\
               while (((c ? ((i) < (4)) : ((j) < (4))) ? 1 : 0)) { n = n + 1; i = i + 1; j = j + 2; }\n\
               return n;\n\
             }";
    let (r, _) = differential(
        src,
        |_| {},
        |vm| {
            let mut out = Vec::new();
            for c in [true, false] {
                let c = JsValue::Bool(c);
                out.push(vm.call("pick", &[c.clone(), JsValue::Num(7.5), JsValue::Num(2.0)]));
                out.push(vm.call("both", &[c, JsValue::Num(0.0), JsValue::Num(0.0)]));
            }
            out
        },
    );
    let n = |x: f64| Ok(JsValue::Num(x));
    assert_eq!(r, vec![n(7.0), n(4.0), n(3.0), n(2.0)]);
}

#[test]
fn a_guard_failing_at_a_region_head_enters_it_once() {
    // The loop test `((i) < (30) ? 1 : 0)` fuses into `LCCmpJf` with the
    // bool tail and heads the loop's first region, which `s = 0` falls
    // into (through an `Enter`) and the back-edge jumps to. `i` is a
    // string on the first visit and on every third one after, so the
    // guard fails at that head after either way in; the plain copies it
    // falls back to must not enter the head's region a second time.
    let src = "function f() {\n\
               var i = \"0\"; var j = 0; var s = 0;\n\
               while (((i) < (30) ? 1 : 0)) {\n\
                 j = j + 1; s = s + j;\n\
                 if (j % 3 === 0) { i = \"\" + j; } else { i = j; }\n\
               }\n\
               return s;\n\
             }";
    let (r, [reference, fused]) = differential(src, |_| {}, |vm| vm.call("f", &[]));
    assert_eq!(r, Ok(JsValue::Num((1..=30).sum::<i32>() as f64)));
    assert_eq!(reference.region_profile(), fused.region_profile());
    let (served, plain) = fused.dispatch_stats();
    assert!(served > 0, "the loop test fused");
    assert!(plain < reference.dispatch_stats().1, "and ran fused");
}

#[test]
fn fuel_runs_out_inside_groups_with_the_same_trap() {
    // Fuel is checked once per region, where the plain loop and a fused
    // path enter one, so a budget that runs out inside a fused group is
    // noticed where the unfused ops would notice it. The trap kind, and
    // whether the run traps at all, must not change.
    let outcome = |reference_exec: bool, fuel: u64| {
        let mut cfg = config(reference_exec, JitMode::Enabled);
        cfg.limits = wb_env::ResourceLimits::default().with_fuel(fuel);
        let mut vm = JsVm::new(cfg);
        vm.load(KERNEL_2D)
            .and_then(|()| vm.call("main", &[JsValue::Num(2.0)]))
    };
    let budgets = 1..=1500u64;
    let mut trapped = 0;
    for fuel in budgets.clone() {
        let want = outcome(true, fuel);
        assert_eq!(want, outcome(false, fuel), "fuel {fuel}");
        trapped += matches!(want, Err(JsError::StepBudgetExhausted)) as usize;
    }
    assert!(
        trapped > 100 && trapped < budgets.count(),
        "{trapped} budgets trapped"
    );
}
