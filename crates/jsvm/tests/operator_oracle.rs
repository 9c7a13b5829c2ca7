//! Operator oracle for the MiniJS fused fast paths.
//!
//! The fused forms compute arithmetic and comparisons on their own
//! number-only paths (`BinKind::apply`, `CmpKind::apply`), apart from
//! the plain interpreter's arms. The differential suites feed them
//! kernel-shaped values only; this test feeds every fusable operator the
//! edge operands of JS number semantics — signed zeros, NaN, infinities,
//! the int32/uint32 wrap points, 2^53 + 1, out-of-range shift counts —
//! through each source shape that fuses, and checks that fusion on and
//! fusion off agree on the result and on the whole report, bit for bit.
//! Every call must take at least one fused dispatch, so a shape that
//! stops fusing fails here instead of passing on the plain path. A few
//! results are pinned to their literal JS values as well.
//!
//! The index rows do the same for element reads and stores: every
//! receiver kind at every kind of index, through fused sites and plain
//! ones, against literal results.

use wb_jsvm::{JsError, JsValue, JsVm, JsVmConfig};

const BIN_OPS: [&str; 11] = ["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>", ">>>"];
const CMP_OPS: [&str; 8] = ["<", ">", "<=", ">=", "==", "!=", "===", "!=="];

/// Edge operands, passed as arguments.
const OPERANDS: [f64; 21] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    0.5,
    -0.5,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    2147483647.0,  // 2^31 - 1
    2147483648.0,  // 2^31
    -2147483648.0, // -2^31
    -2147483649.0, // -2^31 - 1
    4294967295.0,  // 2^32 - 1
    4294967296.0,  // 2^32
    9007199254740993.0,
    31.0,
    32.0,
    33.0,
    -33.0,
    1e300,
];

/// Edge constants, written into the source as literals (a literal
/// cannot be negative, NaN or infinite: those are not constants).
const CONSTANTS: [&str; 10] = [
    "0",
    "1",
    "0.5",
    "31",
    "32",
    "33",
    "2147483648",
    "4294967295",
    "4294967296",
    "1e300",
];

/// One script loaded with fusion on and with fusion off.
struct Pair {
    src: String,
    vms: [JsVm; 2],
}

impl Pair {
    fn new(src: String) -> Pair {
        let vms = [false, true].map(|reference_exec| {
            let mut cfg = JsVmConfig::reference();
            cfg.reference_exec = reference_exec;
            let mut vm = JsVm::new(cfg);
            vm.load(&src).expect("script loads");
            vm
        });
        Pair { src, vms }
    }

    /// Call `f(a, b)` in both modes: the results must be equal to the
    /// bit, the reports identical, and the fused call must have run at
    /// least one fused form.
    fn call(&mut self, a: f64, b: f64) -> JsValue {
        let args = [JsValue::Num(a), JsValue::Num(b)];
        let before = self.vms[0].dispatch_stats().0;
        let [fused, plain] = &mut self.vms;
        let got = fused.call("f", &args).expect("fused call");
        let want = plain.call("f", &args).expect("plain call");
        let what = || format!("{} with a = {a:?}, b = {b:?}", self.src);
        match (&got, &want) {
            (JsValue::Num(x), JsValue::Num(y)) => {
                assert_eq!(x.to_bits(), y.to_bits(), "{}: {x} vs {y}", what())
            }
            _ => assert_eq!(got, want, "{}", what()),
        }
        assert_eq!(
            format!("{:?}", fused.report()),
            format!("{:?}", plain.report()),
            "report of {}",
            what()
        );
        assert!(
            fused.dispatch_stats().0 > before,
            "{} ran no fused form",
            what()
        );
        got
    }
}

/// The shapes of `a op b` that fuse: `var c = a op b` (`LLBinStore`)
/// and `return a op b` (`LLBin`).
fn bin_shapes(op: &str) -> [String; 2] {
    [
        format!("function f(a, b) {{ var c = a {op} b; return c; }}"),
        format!("function f(a, b) {{ return a {op} b; }}"),
    ]
}

/// The shapes of `a cmp b` that fuse: an `if` on it (`LLCmpJf`) and the
/// backend's bool tail (`LLCmpJf` with its tail). Nothing else in them
/// fuses, so a fused dispatch is the comparison's.
fn cmp_shapes(op: &str) -> [String; 2] {
    [
        format!("function f(a, b) {{ if (a {op} b) {{ return 1; }} return 0; }}"),
        format!("function f(a, b) {{ if (((a) {op} (b) ? 1 : 0)) {{ return 1; }} return 0; }}"),
    ]
}

#[test]
fn binary_operators_agree_on_edge_operands() {
    for op in BIN_OPS {
        for src in bin_shapes(op) {
            let mut pair = Pair::new(src);
            for a in OPERANDS {
                for b in OPERANDS {
                    pair.call(a, b);
                }
            }
        }
        // `a op K` (`LCBin`): `b` is unused.
        for k in CONSTANTS {
            let mut pair = Pair::new(format!("function f(a, b) {{ return a {op} {k}; }}"));
            for a in OPERANDS {
                pair.call(a, 0.0);
            }
        }
    }
}

#[test]
fn comparisons_agree_on_edge_operands() {
    for op in CMP_OPS {
        for src in cmp_shapes(op) {
            let mut pair = Pair::new(src);
            for a in OPERANDS {
                for b in OPERANDS {
                    pair.call(a, b);
                }
            }
        }
        // The bool tail against a constant (`LCCmpJf` with its tail).
        for k in CONSTANTS {
            let mut pair = Pair::new(format!(
                "function f(a, b) {{ if (((a) {op} ({k}) ? 1 : 0)) {{ return 1; }} return 0; }}"
            ));
            for a in OPERANDS {
                pair.call(a, 0.0);
            }
        }
    }
}

#[test]
fn fused_results_are_the_js_results() {
    let bin = |op: &str, a: f64, b: f64| {
        let [store, ret] = bin_shapes(op).map(|src| match Pair::new(src).call(a, b) {
            JsValue::Num(n) => n,
            other => panic!("{op}: {other:?}"),
        });
        assert_eq!(store.to_bits(), ret.to_bits(), "{op}");
        store
    };
    assert_eq!(bin(">>>", -1.0, 0.0), 4294967295.0);
    assert_eq!(bin("<<", 1.0, 32.0), 1.0);
    assert_eq!(bin("|", 2147483648.0, 0.0), -2147483648.0);
    assert!(bin("%", 5.0, -0.0).is_nan());
    let holds = |op: &str, a: f64, b: f64| {
        let [branch, tail] = cmp_shapes(op);
        let value = Pair::new(branch).call(a, b);
        assert_eq!(Pair::new(tail).call(a, b), value);
        value == JsValue::Num(1.0)
    };
    assert!(holds("!=", f64::NAN, f64::NAN));
    assert!(holds("===", -0.0, 0.0));
}

/// Receivers by kind, `R[k]`: a plain array, a `Float64Array`, an
/// `Int32Array` and a `Uint8Array` each holding 1.5, -2 and 300 as its
/// kind stores them, a string, an object and a number. `make(k)` builds
/// a fresh one of the same kind (typed arrays zeroed) for a store.
const INDEX_SRC: &str = "function fill(t) { t[0] = 1.5; t[1] = -2; t[2] = 300; return t; }\n\
    var R = [[1.5, -2, 300], fill(new Float64Array(3)), fill(new Int32Array(3)),\n\
             fill(new Uint8Array(3)), 'abc', { x: 1 }, 7];\n\
    var G = 0;\n\
    function get(k, i) { var r = R[k]; return r[i]; }\n\
    function getp(k, i) { return R[k][i]; }\n\
    function geta(k, i) { var z = 0; G = R[k]; return G[((i) * 1 + z)]; }\n\
    function make(k) {\n\
      if (k == 0) { return [1.5, -2, 300]; }\n\
      if (k == 1) { return new Float64Array(3); }\n\
      if (k == 2) { return new Int32Array(3); }\n\
      if (k == 3) { return new Uint8Array(3); }\n\
      return R[k];\n\
    }\n\
    function set(k, i) { var r = make(k); r[i] = 300.75; return r; }\n\
    function setp(k, i) { var r = make(k); var v = (r[i] = 300.75); return r; }";

/// In bounds, out of bounds, negative, fractional and NaN.
const INDICES: [f64; 5] = [1.0, 5.0, -1.0, 0.5, f64::NAN];

/// What `R[k][INDICES[at]]` reads; `None` for a `TypeError`.
fn read(k: usize, at: usize) -> Option<JsValue> {
    let n = JsValue::Num;
    Some(match (k, at) {
        (6, _) => return None,
        (0..=2, 0) => n(-2.0),
        (3, 0) => n(254.0),
        (4, 0) => JsValue::Str("b".into()),
        _ => JsValue::Undefined,
    })
}

/// What `make(k)` holds after `r[INDICES[at]] = 300.75`; `None` for a
/// `TypeError`.
fn stored(k: usize, at: usize) -> Option<JsValue> {
    let n = JsValue::Num;
    let arr = |xs: &[f64]| JsValue::Array(xs.iter().map(|x| n(*x)).collect());
    let u = JsValue::Undefined;
    Some(match (k, at) {
        (0, 0) => arr(&[1.5, 300.75, 300.0]),
        // A plain array grows to take an out-of-bounds store.
        (0, 1) => JsValue::Array(vec![n(1.5), n(-2.0), n(300.0), u.clone(), u, n(300.75)]),
        (0, _) => arr(&[1.5, -2.0, 300.0]),
        (1, 0) => arr(&[0.0, 300.75, 0.0]),
        (2, 0) => arr(&[0.0, 300.0, 0.0]),
        (3, 0) => arr(&[0.0, 44.0, 0.0]),
        (1..=3, _) => arr(&[0.0; 3]),
        (4, _) => JsValue::Str("abc".into()),
        (5, _) => JsValue::Undefined,
        _ => return None,
    })
}

#[test]
fn index_reads_and_stores_are_the_js_results() {
    // (entry, fused form at its site, expected result)
    type Want = fn(usize, usize) -> Option<JsValue>;
    let sites: [(&str, bool, Want); 5] = [
        ("get", true, read),
        ("geta", true, read),
        ("getp", false, read),
        ("set", true, stored),
        ("setp", false, stored),
    ];
    let vms = [false, true].map(|reference_exec| {
        let mut cfg = JsVmConfig::reference();
        cfg.reference_exec = reference_exec;
        let mut vm = JsVm::new(cfg);
        vm.load(INDEX_SRC).expect("script loads");
        vm
    });
    let [mut fused, mut plain] = vms;
    for (entry, fuses, want) in sites {
        for k in 0..7 {
            for (at, i) in INDICES.into_iter().enumerate() {
                let what = format!("{entry}({k}, {i})");
                let args = [JsValue::Num(k as f64), JsValue::Num(i)];
                let before = fused.ic_stats();
                let got = fused.call(entry, &args);
                assert_eq!(got, plain.call(entry, &args), "{what}");
                let (served, fell_back) = fused.ic_stats();
                let got = match got {
                    Ok(v) => Some(v),
                    Err(JsError::Type { .. }) => None,
                    Err(e) => panic!("{what}: {e:?}"),
                };
                assert_eq!(got, want(k, at), "{what}");
                // A fused site serves arrays and typed arrays on a load and
                // typed arrays on a store, and falls back on the rest; a
                // plain site runs no fused index form.
                let serves = match entry {
                    "set" => (1..=3).contains(&k),
                    _ => k <= 3,
                };
                let expect = match (fuses, serves) {
                    (false, _) => (0, 0),
                    (true, true) => (1, 0),
                    (true, false) => (0, 1),
                };
                assert_eq!(
                    (served - before.0, fell_back - before.1),
                    expect,
                    "{what}: fused index forms (served, fell back)"
                );
            }
        }
    }
    assert_eq!(
        format!("{:?}", fused.report()),
        format!("{:?}", plain.report())
    );
    assert_eq!(plain.ic_stats(), (0, 0));
}

/// `ToNumber` on strings follows JS `StringToNumber`, not Rust's float
/// grammar: through a fused site (`s * 1` is `LCBin`, whose guard falls
/// back on a string) and a plain one, with fusion on and off.
#[test]
fn strings_convert_by_the_js_grammar() {
    let src = "function f(s) { return s * 1; }\nfunction g(s) { return -s; }";
    let vms = [false, true].map(|reference_exec| {
        let mut cfg = JsVmConfig::reference();
        cfg.reference_exec = reference_exec;
        let mut vm = JsVm::new(cfg);
        vm.load(src).expect("script loads");
        vm
    });
    let [mut fused, mut plain] = vms;
    let cases: [(&str, f64); 26] = [
        ("0x10", 16.0),
        ("0X1f", 31.0),
        ("0o17", 15.0),
        ("0B101", 5.0),
        // 2^53 + 1 rounds to even, as JS reads it.
        ("0x20000000000001", 9007199254740992.0),
        ("0x20000000000003", 9007199254740996.0),
        ("0xffffffffffffffffffffffffffffffffff", 2f64.powi(136)),
        (" \u{feff}12 ", 12.0),
        ("\u{2028}\t7\u{3000}\r\n", 7.0),
        ("", 0.0),
        (" \n ", 0.0),
        ("Infinity", f64::INFINITY),
        ("-Infinity", f64::NEG_INFINITY),
        ("+Infinity", f64::INFINITY),
        ("1e3", 1000.0),
        (".5", 0.5),
        ("5.", 5.0),
        ("-2.5e-1", -0.25),
        ("inf", f64::NAN),
        ("INFINITY", f64::NAN),
        ("-0x1", f64::NAN),
        ("+0x1", f64::NAN),
        ("0x", f64::NAN),
        ("0b2", f64::NAN),
        ("\u{85}1", f64::NAN),
        ("12px", f64::NAN),
    ];
    for (s, want) in cases {
        for (entry, sign) in [("f", 1.0), ("g", -1.0)] {
            let args = [JsValue::Str(s.into())];
            let num = |r: Result<JsValue, JsError>| match r {
                Ok(JsValue::Num(n)) => n,
                other => panic!("{entry}({s:?}): {other:?}"),
            };
            let got = num(fused.call(entry, &args));
            let reference = num(plain.call(entry, &args));
            assert_eq!(got.to_bits(), reference.to_bits(), "{entry}({s:?})");
            let want = sign * want;
            assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "{entry}({s:?}) = {got}, JS gives {want}"
            );
        }
    }
    assert_eq!(
        format!("{:?}", fused.report()),
        format!("{:?}", plain.report())
    );
}
