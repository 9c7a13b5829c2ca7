//! Fault-injection harness (`wb inject`): drive every deliberate fault
//! the deterministic trap/limit layer can produce and verify that each
//! one surfaces as a *structured, caught* error — never an uncaught
//! panic, never a wedged worker pool.
//!
//! Five fault families:
//!
//! | fault    | what is injected                                   | expected surface |
//! |----------|----------------------------------------------------|------------------|
//! | `decode` | seeded random corruption of a real Wasm binary     | `Err(DecodeError)` or valid re-decode |
//! | `fuel`   | tiny fuel budget on all three backends             | `TrapKind::FuelExhausted` |
//! | `memory` | tiny memory ceiling on all three backends          | `TrapKind::MemoryLimit` |
//! | `stack`  | tiny call-depth limit on a recursive program       | `TrapKind::StackOverflow` |
//! | `panic`  | forced worker panics inside the grid's thread pool | per-cell `Err`, pool drains fully |
//!
//! Every probe runs under `catch_unwind`; a panic that escapes the
//! library under test is counted as **uncaught** and fails the harness.
//! `scripts/verify.sh` runs `wb inject --all` and requires zero.

use crate::{panic_message, parallel_map_catch, GridEngine, Run};
use std::panic::AssertUnwindSafe;
use wb_benchmarks::InputSize;
use wb_core::{
    try_run_compiled_js_with, try_run_native_with, try_run_wasm_with, JsSpec, Measurement,
    RunFailure, TrapKind, WasmSpec,
};
use wb_env::ResourceLimits;
use wb_minic::{Compiler, OptLevel};

/// Outcome of one fault family.
#[derive(Debug, Clone)]
pub struct InjectReport {
    /// Fault family name.
    pub fault: &'static str,
    /// Probes executed.
    pub probes: usize,
    /// Probes that produced the expected structured error.
    pub expected: usize,
    /// Probes whose error had the wrong [`TrapKind`] (or that
    /// unexpectedly succeeded).
    pub unexpected: usize,
    /// Panics that escaped the library under test.
    pub uncaught_panics: usize,
    /// Diagnostics for everything that went wrong.
    pub diagnostics: Vec<String>,
}

impl InjectReport {
    fn new(fault: &'static str) -> Self {
        InjectReport {
            fault,
            probes: 0,
            expected: 0,
            unexpected: 0,
            uncaught_panics: 0,
            diagnostics: Vec::new(),
        }
    }

    /// Did every probe in this family behave?
    pub fn ok(&self) -> bool {
        self.unexpected == 0 && self.uncaught_panics == 0
    }
}

/// The fault families `--all` runs, in order.
pub const ALL_FAULTS: &[&str] = &["decode", "fuel", "memory", "stack", "panic"];

/// Run one fault family by name. Unknown names return `None`.
pub fn run_fault(name: &str, quick: bool) -> Option<InjectReport> {
    match name {
        "decode" => Some(decode_corruption(quick)),
        "fuel" => Some(fuel_exhaustion()),
        "memory" => Some(memory_exhaustion()),
        "stack" => Some(stack_exhaustion()),
        "panic" => Some(forced_panics()),
        _ => None,
    }
}

/// Run every fault family.
pub fn run_all(quick: bool) -> Vec<InjectReport> {
    ALL_FAULTS
        .iter()
        .map(|f| run_fault(f, quick).expect("known fault"))
        .collect()
}

/// A run probe: execute `f` under `catch_unwind` and classify the
/// outcome against the expected [`TrapKind`].
fn probe(
    report: &mut InjectReport,
    label: &str,
    expect: TrapKind,
    f: impl FnOnce() -> Result<Measurement, RunFailure>,
) {
    report.probes += 1;
    match std::panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(_)) => {
            report.unexpected += 1;
            report
                .diagnostics
                .push(format!("{label}: expected {expect}, but the run succeeded"));
        }
        Ok(Err(fail)) => {
            if fail.error.kind() == expect {
                report.expected += 1;
            } else {
                report.unexpected += 1;
                report.diagnostics.push(format!(
                    "{label}: expected {expect}, got {} ({})",
                    fail.error.kind(),
                    fail.error
                ));
            }
        }
        Err(payload) => {
            report.uncaught_panics += 1;
            report.diagnostics.push(format!(
                "{label}: UNCAUGHT PANIC: {}",
                panic_message(payload)
            ));
        }
    }
}

/// Deterministic 64-bit LCG (same constants as MMIX) — the seeded
/// corruption source. No OS randomness: every `wb inject` run mutates
/// the same bytes.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }
}

/// Fault family `decode`: compile a real kernel, then feed seeded
/// corruptions of its binary (byte flips, truncations, length-field
/// splices) to the decoder. The decoder must return `Err` or a valid
/// module — never panic.
fn decode_corruption(quick: bool) -> InjectReport {
    let mut report = InjectReport::new("decode");
    let bytes = match Compiler::cheerp()
        .define("N", 24)
        .compile_wasm(GRID_SRC)
        .map(|out| wb_wasm::encode_module(&out.module))
    {
        Ok(b) => b,
        Err(e) => {
            report.probes = 1;
            report.unexpected = 1;
            report.diagnostics.push(format!("seed compile failed: {e}"));
            return report;
        }
    };
    let rounds = if quick { 500 } else { 5_000 };
    let mut rng = Lcg(0x77_61_73_6d); // "wasm"
    for i in 0..rounds {
        let mut mutated = bytes.clone();
        match rng.next() % 3 {
            0 => {
                // Flip one byte anywhere (headers, LEB128 counts, opcodes).
                let pos = (rng.next() as usize) % mutated.len();
                mutated[pos] ^= (rng.next() % 255 + 1) as u8;
            }
            1 => {
                // Truncate mid-stream.
                let len = (rng.next() as usize) % mutated.len();
                mutated.truncate(len);
            }
            _ => {
                // Splice a run of bytes with raw noise (corrupts section
                // payloads and vector counts wholesale).
                let start = (rng.next() as usize) % mutated.len();
                let len = ((rng.next() as usize) % 16).min(mutated.len() - start);
                for b in &mut mutated[start..start + len] {
                    *b = rng.next() as u8;
                }
            }
        }
        report.probes += 1;
        match std::panic::catch_unwind(AssertUnwindSafe(|| wb_wasm::decode_module(&mutated))) {
            Ok(_) => report.expected += 1, // Err(DecodeError) and survivable Ok both fine
            Err(payload) => {
                report.uncaught_panics += 1;
                if report.diagnostics.len() < 10 {
                    report.diagnostics.push(format!(
                        "decode #{i}: UNCAUGHT PANIC: {}",
                        panic_message(payload)
                    ));
                }
            }
        }
    }
    report
}

/// A small dense kernel: enough work that a tiny fuel budget trips
/// mid-run on every backend, and a static footprint (8·N²+8·N bytes)
/// that a tiny memory ceiling rejects.
const GRID_SRC: &str = "double A[N][N]; double v[N];\n\
    void bench_main() {\n\
      for (int t = 0; t < 50; t++)\n\
        for (int i = 0; i < N; i++)\n\
          for (int j = 0; j < N; j++)\n\
            A[i][j] = A[i][j] + (double)(i + j + t) / N;\n\
      double s = 0.0;\n\
      for (int i = 0; i < N; i++) s += A[i][i];\n\
      print_double(s);\n\
    }";

/// A recursive program for the call-depth probes. `DEPTH` is a define so
/// the recursion comfortably exceeds the injected limit while staying
/// far below the host's real stack.
const RECURSE_SRC: &str = "int rec(int n) {\n\
      if (n <= 0) return 0;\n\
      return rec(n - 1) + 1;\n\
    }\n\
    void bench_main() { print_int(rec(DEPTH)); }";

fn wasm_spec<'a>(
    source: &'a str,
    defines: &[(&str, &str)],
    limits: ResourceLimits,
) -> WasmSpec<'a> {
    let mut spec = WasmSpec::new(source);
    spec.defines = defines
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    spec.limits = limits;
    spec
}

fn js_spec<'a>(source: &'a str, defines: &[(&str, &str)], limits: ResourceLimits) -> JsSpec<'a> {
    let mut spec = JsSpec::new(source);
    spec.defines = defines
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    spec.limits = limits;
    spec
}

fn string_defines(defines: &[(&str, &str)]) -> Vec<(String, String)> {
    defines
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// Fault family `fuel`: a 1000-step budget on a kernel that needs far
/// more. All three backends must stop with `FuelExhausted`, not spin.
fn fuel_exhaustion() -> InjectReport {
    let mut report = InjectReport::new("fuel");
    let limits = ResourceLimits::default().with_fuel(1_000);
    let defines = [("N", "32")];
    probe(&mut report, "fuel/wasm", TrapKind::FuelExhausted, || {
        try_run_wasm_with(&wasm_spec(GRID_SRC, &defines, limits), None)
    });
    probe(&mut report, "fuel/js", TrapKind::FuelExhausted, || {
        try_run_compiled_js_with(&js_spec(GRID_SRC, &defines, limits), None)
    });
    probe(&mut report, "fuel/native", TrapKind::FuelExhausted, || {
        try_run_native_with(
            GRID_SRC,
            &string_defines(&defines),
            OptLevel::O2,
            "bench_main",
            limits,
            None,
        )
    });
    report
}

/// Fault family `memory`: a 4 KiB ceiling against a ~66 KiB footprint.
/// Wasm rejects at instantiation/grow, JS at the GC safe point, native
/// against its static data segment — same `MemoryLimit` kind everywhere.
fn memory_exhaustion() -> InjectReport {
    let mut report = InjectReport::new("memory");
    let limits = ResourceLimits::default().with_max_memory_bytes(4 * 1024);
    let defines = [("N", "90")]; // 8·90² ≈ 63 KiB of arrays
    probe(&mut report, "memory/wasm", TrapKind::MemoryLimit, || {
        try_run_wasm_with(&wasm_spec(GRID_SRC, &defines, limits), None)
    });
    probe(&mut report, "memory/js", TrapKind::MemoryLimit, || {
        try_run_compiled_js_with(&js_spec(GRID_SRC, &defines, limits), None)
    });
    probe(&mut report, "memory/native", TrapKind::MemoryLimit, || {
        try_run_native_with(
            GRID_SRC,
            &string_defines(&defines),
            OptLevel::O2,
            "bench_main",
            limits,
            None,
        )
    });
    report
}

/// Fault family `stack`: recursion to depth 5000 under a 64-frame
/// limit. The limit is checked per guest frame on every backend.
fn stack_exhaustion() -> InjectReport {
    let mut report = InjectReport::new("stack");
    let limits = ResourceLimits::default().with_max_call_depth(64);
    let defines = [("DEPTH", "5000")];
    probe(&mut report, "stack/wasm", TrapKind::StackOverflow, || {
        try_run_wasm_with(&wasm_spec(RECURSE_SRC, &defines, limits), None)
    });
    probe(&mut report, "stack/js", TrapKind::StackOverflow, || {
        try_run_compiled_js_with(&js_spec(RECURSE_SRC, &defines, limits), None)
    });
    probe(&mut report, "stack/native", TrapKind::StackOverflow, || {
        try_run_native_with(
            RECURSE_SRC,
            &string_defines(&defines),
            OptLevel::O2,
            "bench_main",
            limits,
            None,
        )
    });
    report
}

/// Fault family `panic`: panics forced inside grid worker cells. The
/// pool must run every item (a panic stalls no worker's share), surface
/// each panic as that cell's `Err`, and the grid engine must quarantine
/// a failing cell while healthy cells still produce measurements.
fn forced_panics() -> InjectReport {
    let mut report = InjectReport::new("panic");
    // The injected panics are all caught, but the default hook would
    // still spray backtraces on stderr; silence it for this family.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    // 1. Raw pool isolation: 16 cells, every third one panics.
    report.probes += 1;
    let results = parallel_map_catch((0..16).collect::<Vec<u32>>(), Some(4), |i| {
        if i % 3 == 0 {
            panic!("injected panic in cell {i}");
        }
        i * 2
    });
    let oks = results.iter().filter(|r| r.is_ok()).count();
    let errs = results.iter().filter(|r| r.is_err()).count();
    if results.len() == 16 && errs == 6 && oks == 10 {
        report.expected += 1;
    } else {
        report.unexpected += 1;
        report.diagnostics.push(format!(
            "pool isolation: got {} results, {oks} ok, {errs} err (want 16/10/6)",
            results.len()
        ));
    }

    // 2. Engine-level degradation: one poisoned cell (fuel-starved) in a
    // healthy grid under keep-going. The healthy cells must measure, the
    // poisoned one must land on the quarantine list.
    report.probes += 1;
    let engine = GridEngine::with_settings(None, Some(2)).with_keep_going();
    let bench = wb_benchmarks::find("trisolv").expect("trisolv in corpus");
    let mut cells: Vec<Run> = (0..3)
        .map(|_| Run::new(bench.clone(), InputSize::XS))
        .collect();
    cells[1].limits = ResourceLimits::default().with_fuel(10);
    let measurements = engine.map(cells, |c| engine.wasm(&c));
    let quarantined_kinds: Vec<TrapKind> = engine.failures().iter().map(|f| f.kind).collect();
    if measurements.len() == 3 && quarantined_kinds == [TrapKind::FuelExhausted] {
        report.expected += 1;
    } else {
        report.unexpected += 1;
        report.diagnostics.push(format!(
            "engine degradation: {} measurements, quarantine {quarantined_kinds:?} \
             (want 3 and [fuel-exhausted])",
            measurements.len()
        ));
    }
    std::panic::set_hook(prev_hook);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_fault_families_pass_quick() {
        for r in run_all(true) {
            assert!(
                r.ok(),
                "fault family '{}' failed: {:?}",
                r.fault,
                r.diagnostics
            );
            assert!(r.probes > 0);
        }
    }

    #[test]
    fn unknown_fault_is_rejected() {
        assert!(run_fault("no-such-fault", true).is_none());
    }
}
