//! Execution and pricing are separate: a VM records what a run did, and
//! `wb_env::price` alone decides what it costs.
//!
//! * Metamorphic pricing: one recorded execution priced under all six
//!   environments keeps its counts, arithmetic, output and GC count;
//!   the clock moves, and the tier split and tier-ups follow each
//!   environment's threshold.
//! * Projection: configs whose [`WasmVmConfig::projection`] /
//!   [`JsVmConfig::projection`] agree execute identically, down to the
//!   unpriced record. A run records hotness bands, not tiers, so the
//!   tier policy, the JIT mode and every calibrated threshold stay out of
//!   the execution memo's key.
//! * Every kernel, every tier cell: at XS, each Wasm tier policy and
//!   threshold and each JS JIT mode and threshold measured fresh equals
//!   the same cell priced from another cell's record, to the bit.

use std::collections::HashSet;
use std::sync::Arc;
use wb_benchmarks::{all_benchmarks, InputSize};
use wb_core::host::standard_imports;
use wb_core::measure::reported_wasm_memory;
use wb_core::{
    run_compiled_js_with, run_wasm_with, ArtifactCache, ArtifactKey, ArtifactKind, JsSpec,
    Measurement, WasmSpec,
};
use wb_env::{
    calibration, Browser, Charge, Environment, JitMode, Platform, TierPolicy, Tiering, Toolchain,
    VirtualClock,
};
use wb_jsvm::{JsRecord, JsReport, JsVm, JsVmConfig};
use wb_minic::{Compiler, OptLevel};
use wb_wasm_vm::{ExecutionRecord, ExecutionReport, Instance, WasmVmConfig};

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

/// The band-crossing markers a record holds at `threshold`: the tier-up
/// events a run that tiered there records.
fn markers_at(charges: &wb_env::ChargeRecord, threshold: u64) -> u32 {
    charges
        .runs()
        .iter()
        .filter(
            |(c, _)| matches!(c, Charge::BandCrossed { boundary, .. } if *boundary == threshold),
        )
        .map(|&(_, n)| n as u32)
        .sum()
}

#[test]
fn wasm_record_priced_in_six_environments_changes_only_the_clock() {
    let chrome = Environment::desktop_chrome();
    let (record, output) = run_wasm(wasm_config(chrome, TierPolicy::Default));
    assert!(
        markers_at(&record.charges, chrome.profile().wasm.tier_up_threshold) > 0,
        "the kernel must tier up"
    );
    let mut totals = HashSet::new();
    for env in Environment::all_six() {
        let report = record.price(&wasm_config(env, TierPolicy::Default));
        let threshold = env.profile().wasm.tier_up_threshold;
        let [baseline, optimizing, _] = record.band_counts.tiers(Tiering::TierUp { threshold });
        assert_eq!(report.counts, baseline.merged(&optimizing));
        assert_eq!(report.counts, record.band_counts.total());
        assert_eq!(report.baseline_counts, baseline);
        assert_eq!(report.arith, record.arith);
        assert_eq!(report.tier_ups, markers_at(&record.charges, threshold));
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
    assert!(
        markers_at(&record.charges, chrome.profile().js.jit_threshold) > 0,
        "the script must JIT"
    );
    let mut totals = HashSet::new();
    for env in Environment::all_six() {
        let report = record.price(&js_config(env, JitMode::Enabled));
        let threshold = env.profile().js.jit_threshold;
        let [interp, jit, ta] = &record.band_counts.tiers(Tiering::TierUp { threshold });
        assert_eq!(report.counts, interp.merged(jit).merged(ta));
        assert_eq!(report.counts, record.band_counts.total());
        assert_eq!(report.interp_counts, *interp);
        assert_eq!(report.arith, record.arith);
        assert_eq!(report.jit_compiles, markers_at(&record.charges, threshold));
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
    // The key no longer holds the threshold: a run records hotness
    // bands over every calibrated threshold, and pricing picks one.
    let (a, b) = (
        wasm_config(chrome, TierPolicy::Default),
        wasm_config(firefox, TierPolicy::Default),
    );
    assert_eq!(
        a.projection(),
        b.projection(),
        "the default policy's threshold is a price"
    );
    assert_eq!(run_wasm(a), run_wasm(b), "Default: unpriced records");
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
    // The key no longer holds the threshold: a run records hotness
    // bands over every calibrated threshold, and pricing picks one.
    assert_eq!(
        a.projection(),
        b.projection(),
        "an enabled JIT's threshold is a price"
    );
    assert_eq!(run_js(a), run_js(b), "JIT on: unpriced records");
}

/// Assert two measurements agree on every field, floats to the bit.
fn assert_same_measurement(fresh: &Measurement, priced: &Measurement, cell: &str) {
    assert_eq!(
        fresh.time.0.to_bits(),
        priced.time.0.to_bits(),
        "{cell}: total"
    );
    assert_same_clock(&fresh.clock, &priced.clock, cell);
    assert_eq!(fresh.memory_bytes, priced.memory_bytes, "{cell}: memory");
    assert_eq!(fresh.code_size, priced.code_size, "{cell}: code size");
    assert_eq!(fresh.counts, priced.counts, "{cell}: counts");
    assert_eq!(fresh.arith, priced.arith, "{cell}: arith");
    assert_eq!(fresh.output, priced.output, "{cell}: output");
    assert_eq!(
        fresh.context_switches, priced.context_switches,
        "{cell}: crossings"
    );
}

fn assert_same_clock(fresh: &VirtualClock, priced: &VirtualClock, cell: &str) {
    let buckets = |c: &VirtualClock| {
        [
            c.now(),
            c.load_time,
            c.compile_time,
            c.exec_time,
            c.gc_time,
            c.mem_grow_time,
            c.context_switch_time,
        ]
        .map(|n| n.0.to_bits())
    };
    assert_eq!(buckets(fresh), buckets(priced), "{cell}: clock buckets");
}

fn assert_same_wasm_report(fresh: &ExecutionReport, priced: &ExecutionReport, cell: &str) {
    assert_eq!(
        fresh.total.0.to_bits(),
        priced.total.0.to_bits(),
        "{cell}: total"
    );
    assert_same_clock(&fresh.clock, &priced.clock, cell);
    assert_eq!(fresh.counts, priced.counts, "{cell}: counts");
    assert_eq!(
        fresh.baseline_counts, priced.baseline_counts,
        "{cell}: baseline counts"
    );
    assert_eq!(fresh.memory, priced.memory, "{cell}: memory");
    assert_eq!(fresh.arith, priced.arith, "{cell}: arith");
    assert_eq!(fresh.tier_ups, priced.tier_ups, "{cell}: tier-ups");
    assert_eq!(
        fresh.context_switches, priced.context_switches,
        "{cell}: crossings"
    );
}

fn assert_same_js_report(fresh: &JsReport, priced: &JsReport, cell: &str) {
    assert_eq!(
        fresh.total.0.to_bits(),
        priced.total.0.to_bits(),
        "{cell}: total"
    );
    assert_same_clock(&fresh.clock, &priced.clock, cell);
    assert_eq!(fresh.counts, priced.counts, "{cell}: counts");
    assert_eq!(
        fresh.interp_counts, priced.interp_counts,
        "{cell}: interpreter counts"
    );
    assert_eq!(fresh.heap, priced.heap, "{cell}: heap");
    assert_eq!(fresh.arith, priced.arith, "{cell}: arith");
    assert_eq!(
        fresh.jit_compiles, priced.jit_compiles,
        "{cell}: JIT compiles"
    );
    assert_eq!(fresh.code_ops, priced.code_ops, "{cell}: code ops");
}

/// The Wasm tier cells: the default policy at both calibrated
/// thresholds (Chrome 2000, Firefox 1500), then basic-only and
/// optimizing-only.
fn wasm_cells() -> [(Environment, TierPolicy); 4] {
    let (chrome, firefox) = (
        Environment::desktop_chrome(),
        Environment::desktop_firefox(),
    );
    [
        (chrome, TierPolicy::Default),
        (firefox, TierPolicy::Default),
        (chrome, TierPolicy::BasicOnly),
        (chrome, TierPolicy::OptimizingOnly),
    ]
}

/// The JS tier cells: the JIT at both calibrated thresholds (Chrome 400,
/// Firefox 900), then the JIT off.
fn js_cells() -> [(Environment, JitMode); 3] {
    let (chrome, firefox) = (
        Environment::desktop_chrome(),
        Environment::desktop_firefox(),
    );
    [
        (chrome, JitMode::Enabled),
        (firefox, JitMode::Enabled),
        (chrome, JitMode::Disabled),
    ]
}

/// A cell outside both lists, whose memoized record every listed cell is
/// then priced from.
fn donor_env() -> Environment {
    Environment::new(Browser::Edge, Platform::Mobile)
}

#[test]
fn every_kernel_prices_every_tier_cell_from_another_cells_record() {
    let cache = ArtifactCache::new();
    // Kernels whose two calibrated thresholds split the tiers apart, so
    // the test is not vacuous.
    let (mut wasm_split, mut js_split) = (0, 0);
    for b in all_benchmarks() {
        let defines = b.defines(InputSize::XS);

        // Wasm: one memoized execution serves every cell...
        let wasm_spec = |env, tier_policy| {
            let mut spec = WasmSpec::new(b.source);
            spec.defines = defines.clone();
            spec.env = env;
            spec.tier_policy = tier_policy;
            spec
        };
        run_wasm_with(&wasm_spec(donor_env(), TierPolicy::BasicOnly), Some(&cache)).unwrap();
        let executed = cache.stats().exec_misses;
        let key = ArtifactKey::compute(
            ArtifactKind::Wasm,
            b.source,
            &defines,
            OptLevel::O2,
            Toolchain::Cheerp,
            Some(256 << 20),
            false,
        );
        let artifact = cache
            .wasm(key, || Err::<_, ()>(()))
            .expect("the donor cached the artifact");
        // ...and each cell, executed fresh, equals its memo hit and
        // every other cell's record priced for it.
        let fresh: Vec<(WasmVmConfig, ExecutionRecord, ExecutionReport, Vec<String>)> =
            wasm_cells()
                .into_iter()
                .map(|(env, tier_policy)| {
                    let config = wasm_config(env, tier_policy);
                    let mut inst = Instance::instantiate_prepared(
                        Arc::clone(&artifact.prepared),
                        artifact.bytes.len(),
                        config.clone(),
                        standard_imports(artifact.strings.clone()),
                    )
                    .unwrap();
                    inst.invoke("bench_main", &[]).unwrap();
                    (config, inst.record(), inst.report(), inst.output)
                })
                .collect();
        wasm_split += usize::from(fresh[0].2.baseline_counts != fresh[1].2.baseline_counts);
        for (i, (env, tier_policy)) in wasm_cells().into_iter().enumerate() {
            let cell = format!("{} wasm {} {tier_policy:?}", b.name, env.label());
            let (config, _, report, output) = &fresh[i];
            let hit = run_wasm_with(&wasm_spec(env, tier_policy), Some(&cache)).unwrap();
            let expected = Measurement {
                time: report.total,
                clock: report.clock.clone(),
                memory_bytes: reported_wasm_memory(env, report.memory.linear_bytes),
                code_size: artifact.bytes.len() as u64,
                counts: report.counts,
                arith: report.arith,
                output: output.clone(),
                context_switches: report.context_switches,
            };
            assert_same_measurement(&expected, &hit, &cell);
            for (j, (_, record, _, _)) in fresh.iter().enumerate() {
                if j != i {
                    assert_same_wasm_report(report, &record.price(config), &cell);
                }
            }
        }
        assert_eq!(
            cache.stats().exec_misses,
            executed,
            "{}: wasm memo hits",
            b.name
        );

        // JS: the same, over the JIT modes and thresholds.
        let js_spec = |env, jit| {
            let mut spec = JsSpec::new(b.source);
            spec.defines = defines.clone();
            spec.env = env;
            spec.jit = jit;
            spec
        };
        run_compiled_js_with(&js_spec(donor_env(), JitMode::Disabled), Some(&cache)).unwrap();
        let executed = cache.stats().exec_misses;
        let key = ArtifactKey::compute(
            ArtifactKind::Js,
            b.source,
            &defines,
            OptLevel::O2,
            Toolchain::Cheerp,
            None,
            false,
        );
        let artifact = cache
            .js(key, || Err::<_, ()>(()))
            .expect("the donor cached the artifact");
        let fresh: Vec<(JsVmConfig, JsRecord, JsReport, Vec<String>)> = js_cells()
            .into_iter()
            .map(|(env, jit)| {
                let config = js_config(env, jit);
                let mut vm = JsVm::new(config.clone());
                vm.load(&artifact.source).unwrap();
                vm.call("bench_main", &[]).unwrap();
                (config, vm.record(), vm.report(), vm.output)
            })
            .collect();
        js_split += usize::from(fresh[0].2.interp_counts != fresh[1].2.interp_counts);
        for (i, (env, jit)) in js_cells().into_iter().enumerate() {
            let cell = format!("{} js {} {jit:?}", b.name, env.label());
            let (config, _, report, output) = &fresh[i];
            let hit = run_compiled_js_with(&js_spec(env, jit), Some(&cache)).unwrap();
            let expected = Measurement {
                time: report.total,
                clock: report.clock.clone(),
                memory_bytes: env.profile().js.baseline_memory_bytes + report.heap.peak_live_bytes,
                code_size: artifact.source.len() as u64,
                counts: report.counts,
                arith: report.arith,
                output: output.clone(),
                context_switches: 0,
            };
            assert_same_measurement(&expected, &hit, &cell);
            for (j, (_, record, _, _)) in fresh.iter().enumerate() {
                if j != i {
                    assert_same_js_report(report, &record.price(config), &cell);
                }
            }
        }
        assert_eq!(
            cache.stats().exec_misses,
            executed,
            "{}: js memo hits",
            b.name
        );
    }
    assert!(wasm_split > 0 && js_split > 0, "{wasm_split} / {js_split}");
}
