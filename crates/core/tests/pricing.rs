//! Execution and pricing are separate: a VM records what a run did, and
//! `wb_env::price` alone decides what it costs.
//!
//! * Metamorphic pricing: one recorded execution priced under all six
//!   environments keeps its counts, arithmetic, output, tier-ups and GC
//!   count; only the clock moves.
//! * Projection: configs whose [`WasmVmConfig::projection`] /
//!   [`JsVmConfig::projection`] agree execute identically, down to the
//!   unpriced record. This is what lets the execution memo leave the
//!   thresholds a run never consults out of its key.

use std::collections::HashSet;
use wb_core::host::standard_imports;
use wb_env::{calibration, Environment, JitMode, TierPolicy, Toolchain};
use wb_jsvm::{JsRecord, JsVm, JsVmConfig};
use wb_minic::Compiler;
use wb_wasm_vm::{ExecutionRecord, Instance, WasmVmConfig};

/// Hot enough that the default tier policy tiers `bench_main` up.
const KERNEL: &str = "#define N 64\n\
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

/// Allocates enough to collect, calls `f` enough to JIT it, and hashes.
const SCRIPT: &str = "function f(n) { var a = []; for (var i = 0; i < n; i++) { a.push(i * 0.5); } return a.length; }\n\
    function main() {\n\
      var t = 0;\n\
      for (var k = 0; k < 2000; k++) { t = t + f(40); }\n\
      var h = crypto.sha256('wasmbench');\n\
      console.log(t, h.length);\n\
      return t;\n\
    }";

fn wasm_config(env: Environment, tier_policy: TierPolicy) -> WasmVmConfig {
    let mut config = WasmVmConfig::for_env(&env.profile());
    config.tier_policy = tier_policy;
    config.exec_overhead = calibration::toolchain_exec_overhead(Toolchain::Cheerp);
    config
}

fn js_config(env: Environment, jit: JitMode) -> JsVmConfig {
    let mut config = JsVmConfig::for_env(&env.profile());
    config.jit = jit;
    config
}

fn run_wasm(config: WasmVmConfig) -> (ExecutionRecord, Vec<String>) {
    let out = Compiler::new(Toolchain::Cheerp)
        .compile_wasm(KERNEL)
        .unwrap();
    let bytes = wb_wasm::encode_module(&out.module);
    let mut inst = Instance::instantiate(&bytes, config, standard_imports(out.strings)).unwrap();
    inst.invoke("bench_main", &[]).unwrap();
    (inst.record(), inst.output)
}

fn run_js(config: JsVmConfig) -> (JsRecord, Vec<String>) {
    let mut vm = JsVm::new(config);
    vm.load(SCRIPT).unwrap();
    vm.call("main", &[]).unwrap();
    (vm.record(), vm.output)
}

#[test]
fn wasm_record_priced_in_six_environments_changes_only_the_clock() {
    let chrome = Environment::desktop_chrome();
    let (record, output) = run_wasm(wasm_config(chrome, TierPolicy::Default));
    assert!(record.tier_ups > 0, "the kernel must tier up");
    let mut totals = HashSet::new();
    for env in Environment::all_six() {
        let report = record.price(&wasm_config(env, TierPolicy::Default));
        assert_eq!(
            report.counts,
            record.tier_counts[0].merged(&record.tier_counts[1])
        );
        assert_eq!(report.baseline_counts, record.tier_counts[0]);
        assert_eq!(report.arith, record.arith);
        assert_eq!(report.tier_ups, record.tier_ups);
        assert_eq!(report.memory, record.memory);
        assert_eq!(report.context_switches, record.context_switches);
        totals.insert(report.total.0.to_bits());
    }
    assert_eq!(totals.len(), 6, "every environment prices differently");
    assert_eq!(output, run_wasm(wasm_config(chrome, TierPolicy::Default)).1);
}

#[test]
fn js_record_priced_in_six_environments_changes_only_the_clock() {
    let chrome = Environment::desktop_chrome();
    let (record, output) = run_js(js_config(chrome, JitMode::Enabled));
    assert!(record.heap.gc_count > 0, "the script must collect");
    assert!(record.jit_compiles > 0, "the script must JIT");
    let mut totals = HashSet::new();
    for env in Environment::all_six() {
        let report = record.price(&js_config(env, JitMode::Enabled));
        let [interp, jit, ta] = &record.tier_counts;
        assert_eq!(report.counts, interp.merged(jit).merged(ta));
        assert_eq!(report.interp_counts, *interp);
        assert_eq!(report.arith, record.arith);
        assert_eq!(report.jit_compiles, record.jit_compiles);
        assert_eq!(report.heap.gc_count, record.heap.gc_count);
        assert_eq!(report.heap, record.heap);
        totals.insert(report.total.0.to_bits());
    }
    assert_eq!(totals.len(), 6, "every environment prices differently");
    assert_eq!(output, run_js(js_config(chrome, JitMode::Enabled)).1);
}

#[test]
fn a_report_is_its_record_priced() {
    let config = wasm_config(Environment::desktop_firefox(), TierPolicy::Default);
    let out = Compiler::new(Toolchain::Cheerp)
        .compile_wasm(KERNEL)
        .unwrap();
    let bytes = wb_wasm::encode_module(&out.module);
    let mut inst =
        Instance::instantiate(&bytes, config.clone(), standard_imports(out.strings)).unwrap();
    inst.invoke("bench_main", &[]).unwrap();
    let (report, priced) = (inst.report(), inst.record().price(&config));
    assert_eq!(report.total.0.to_bits(), priced.total.0.to_bits());
    assert_eq!(
        report.clock.exec_time.0.to_bits(),
        priced.clock.exec_time.0.to_bits()
    );

    let config = js_config(Environment::desktop_firefox(), JitMode::Enabled);
    let mut vm = JsVm::new(config.clone());
    vm.load(SCRIPT).unwrap();
    vm.call("main", &[]).unwrap();
    let (report, priced) = (vm.report(), vm.record().price(&config));
    assert_eq!(report.total.0.to_bits(), priced.total.0.to_bits());
    assert_eq!(
        report.clock.gc_time.0.to_bits(),
        priced.clock.gc_time.0.to_bits()
    );
}

#[test]
fn wasm_tier_thresholds_outside_the_default_policy_do_not_change_execution() {
    let (chrome, firefox) = (
        Environment::desktop_chrome(),
        Environment::desktop_firefox(),
    );
    for tier in [TierPolicy::BasicOnly, TierPolicy::OptimizingOnly] {
        let (a, b) = (wasm_config(chrome, tier), wasm_config(firefox, tier));
        assert_ne!(a.profile.tier_up_threshold, b.profile.tier_up_threshold);
        assert_eq!(a.projection(), b.projection(), "{tier:?}");
        assert_eq!(run_wasm(a), run_wasm(b), "{tier:?}: unpriced records");
    }
    assert_ne!(
        wasm_config(chrome, TierPolicy::Default).projection(),
        wasm_config(firefox, TierPolicy::Default).projection(),
        "the default policy reads the threshold"
    );
}

#[test]
fn js_jit_threshold_with_the_jit_disabled_does_not_change_execution() {
    let mut a = js_config(Environment::desktop_chrome(), JitMode::Disabled);
    let mut b = js_config(Environment::desktop_firefox(), JitMode::Disabled);
    a.profile.jit_threshold = 400;
    b.profile.jit_threshold = 900;
    assert_eq!(a.projection(), b.projection());
    assert_eq!(run_js(a.clone()), run_js(b.clone()), "unpriced records");
    a.jit = JitMode::Enabled;
    b.jit = JitMode::Enabled;
    assert_ne!(
        a.projection(),
        b.projection(),
        "an enabled JIT reads the threshold"
    );
}
