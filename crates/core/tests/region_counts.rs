//! Both VMs count region entries, not retired ops, and a record folds
//! each region's class and Table 12 vector into its band once. This
//! suite checks, for every kernel at XS in both VMs, that the fold gives
//! what per-op counting gives: a walk over the run's region profile,
//! charging each op of each entered region one by one, must reproduce
//! the record's band and Table 12 counts exactly. It also checks that the
//! fused and the one-op-per-dispatch (`reference_exec`) runs enter the
//! same regions the same number of times in the same bands.

use std::sync::Arc;
use wb_benchmarks::{all_benchmarks, InputSize};
use wb_core::host::standard_imports;
use wb_core::{
    run_compiled_js_with, run_wasm_with, ArtifactCache, ArtifactKey, ArtifactKind, JsSpec, WasmSpec,
};
use wb_env::{ArithCounts, BandCounts, OpCounts, RegionHits, Toolchain};
use wb_jsvm::{JsVm, JsVmConfig};
use wb_minic::OptLevel;
use wb_wasm_vm::{Instance, WasmVmConfig};

/// Per-op counts of a profile: every op of every entered region, once
/// per entry, in the band the region was entered in.
fn walk<'a, T: 'a>(
    profile: &[RegionHits],
    code: impl Fn(usize) -> &'a [T],
    charge: impl Fn(&T) -> (wb_env::OpClass, Option<wb_env::ArithKind>),
) -> (Vec<OpCounts>, ArithCounts) {
    let mut bands = vec![OpCounts::new(); 8];
    let mut arith = ArithCounts::default();
    for entry in profile {
        for op in &code(entry.func)[entry.code.clone()] {
            let (class, kind) = charge(op);
            bands[entry.band].bump(class, entry.hits);
            for _ in 0..entry.hits {
                if let Some(kind) = kind {
                    arith.bump(kind);
                }
            }
        }
    }
    (bands, arith)
}

fn assert_bands(walked: &[OpCounts], counts: &BandCounts, typed_too: bool, what: &str) {
    for (band, walked) in walked.iter().enumerate() {
        let recorded = if typed_too {
            counts.ops[band].merged(&counts.typed[band])
        } else {
            counts.ops[band]
        };
        assert_eq!(*walked, recorded, "{what}: band {band}");
    }
}

#[test]
fn every_kernel_folds_its_regions_into_the_per_op_counts() {
    let cache = ArtifactCache::new();
    for b in all_benchmarks() {
        let defines = b.defines(InputSize::XS);

        // Wasm, fused and one op per dispatch.
        let mut spec = WasmSpec::new(b.source);
        spec.defines = defines.clone();
        run_wasm_with(&spec, Some(&cache)).unwrap();
        let key = ArtifactKey::compute(
            ArtifactKind::Wasm,
            b.source,
            &defines,
            OptLevel::O2,
            Toolchain::Cheerp,
            Some(256 << 20),
            false,
        );
        let artifact = cache.wasm(key, || Err::<_, ()>(())).unwrap();
        let module = &artifact.prepared.module;
        let profiles: Vec<Vec<RegionHits>> = [false, true]
            .into_iter()
            .map(|reference_exec| {
                let mut config = WasmVmConfig::for_env(&spec.env.profile());
                config.reference_exec = reference_exec;
                let mut inst = Instance::instantiate_prepared(
                    Arc::clone(&artifact.prepared),
                    artifact.bytes.len(),
                    config,
                    standard_imports(artifact.strings.clone()),
                )
                .unwrap();
                inst.invoke("bench_main", &[]).unwrap();
                let record = inst.record();
                let profile = inst.region_profile();
                let (walked, arith) = walk(
                    &profile,
                    |f| &module.functions[f].body,
                    |i| (wb_wasm_vm::classify(i), wb_wasm_vm::arith_kind(i)),
                );
                let what = format!("{} wasm reference_exec={reference_exec}", b.name);
                assert_bands(&walked, &record.band_counts, false, &what);
                assert_eq!(arith, record.arith, "{what}: Table 12");
                assert!(!profile.is_empty(), "{what}: ran no region");
                profile
            })
            .collect();
        assert_eq!(
            profiles[0], profiles[1],
            "{} wasm: fused vs reference",
            b.name
        );

        // JS, fused and one op per dispatch. Index ops count by their
        // receiver, with the plain ops or the typed-array ones.
        let mut spec = JsSpec::new(b.source);
        spec.defines = defines.clone();
        run_compiled_js_with(&spec, Some(&cache)).unwrap();
        let key = ArtifactKey::compute(
            ArtifactKind::Js,
            b.source,
            &defines,
            OptLevel::O2,
            Toolchain::Cheerp,
            None,
            false,
        );
        let artifact = cache.js(key, || Err::<_, ()>(())).unwrap();
        let program = wb_jsvm::compile_script(&artifact.source).unwrap();
        let profiles: Vec<Vec<RegionHits>> = [false, true]
            .into_iter()
            .map(|reference_exec| {
                let mut config = JsVmConfig::for_env(&spec.env.profile());
                config.reference_exec = reference_exec;
                let mut vm = JsVm::new(config);
                vm.load(&artifact.source).unwrap();
                vm.call("bench_main", &[]).unwrap();
                let record = vm.record();
                let profile = vm.region_profile();
                let (walked, arith) = walk(
                    &profile,
                    |c| &program.chunks[c].code,
                    |op| (op.class(), op.arith()),
                );
                let what = format!("{} js reference_exec={reference_exec}", b.name);
                assert_bands(&walked, &record.band_counts, true, &what);
                assert_eq!(arith, record.arith, "{what}: Table 12");
                assert!(!profile.is_empty(), "{what}: ran no region");
                profile
            })
            .collect();
        assert_eq!(
            profiles[0], profiles[1],
            "{} js: fused vs reference",
            b.name
        );
    }
}

/// A trap inside a region charges the region up to and including the
/// trapping op, as per-op counting would, with fusion on and off: the
/// Wasm divisions and the JS unbound global below each sit in the middle
/// of their function's only region. The second division follows a
/// `block`, which leaves the micro-op stream but not the region, so the
/// settled prefix counts it.
#[test]
fn a_trap_charges_its_region_through_the_trapping_op() {
    use wb_env::OpClass::{Const, IntDiv, Local, Other};
    use wb_wasm::{BlockType, Instr::*, ModuleBuilder, ValType};

    let divide = [LocalGet(0), I32Const(0), I32DivS, LocalSet(0)];
    let tail = [I32Const(1), I32Const(2), I32Add, Drop];
    let cases = [
        (
            "div",
            [&divide[..], &tail].concat(),
            vec![(Local, 1), (Const, 1), (IntDiv, 1)],
        ),
        (
            "div_in_block",
            [
                &[I32Const(1), Drop, Block(BlockType::Empty)][..],
                &divide,
                &[End],
                &tail,
            ]
            .concat(),
            vec![(Const, 2), (Other, 2), (Local, 1), (IntDiv, 1)],
        ),
    ];
    for (name, body, charged) in cases {
        for reference_exec in [false, true] {
            let what = format!("{name}, reference_exec={reference_exec}");
            let mut mb = ModuleBuilder::new();
            let mut f = mb.func(name, vec![ValType::I32], vec![]);
            f.ops(body.clone()).done();
            mb.finish_func(f, true);
            let mut config = WasmVmConfig::reference();
            config.reference_exec = reference_exec;
            let mut inst =
                Instance::from_module(mb.build(), config, std::collections::HashMap::new())
                    .unwrap();
            assert_eq!(
                inst.invoke(name, &[wb_wasm_vm::Value::I32(7)]),
                Err(wb_wasm_vm::Trap::DivByZero),
                "{what}"
            );
            let record = inst.record();
            let mut want = OpCounts::new();
            for &(class, n) in &charged {
                want.bump(class, n);
            }
            assert_eq!(record.band_counts.total(), want, "{what}");
            assert_eq!((record.arith.div, record.arith.total()), (1, 1), "{what}");
        }
    }

    let src = "function f(a) { var s = a + 1; var t = s * 2; var u = missing; return t + u; }";
    let chunk = wb_jsvm::compile_script(src)
        .unwrap()
        .chunks
        .into_iter()
        .find(|c| c.name == "f")
        .unwrap();
    let failing = chunk
        .code
        .iter()
        .position(|op| matches!(op, wb_jsvm::Op::LoadGlobal(_)))
        .unwrap();
    assert!(
        failing + 1 < chunk.code.len(),
        "the failing op is mid-region"
    );
    let (mut want, mut want_arith) = (OpCounts::new(), ArithCounts::default());
    for op in &chunk.code[..=failing] {
        want.bump(op.class(), 1);
        if let Some(kind) = op.arith() {
            want_arith.bump(kind);
        }
    }
    for reference_exec in [false, true] {
        let mut config = JsVmConfig::reference();
        config.reference_exec = reference_exec;
        let mut vm = JsVm::new(config);
        vm.load(src).unwrap();
        let before = vm.record();
        assert!(matches!(
            vm.call("f", &[wb_jsvm::JsValue::Num(1.0)]),
            Err(wb_jsvm::JsError::Reference { .. })
        ));
        let after = vm.record();
        let ran = after
            .band_counts
            .total()
            .delta_since(&before.band_counts.total());
        assert_eq!(ran, want, "reference_exec={reference_exec}");
        let arith = ArithCounts::from_columns(std::array::from_fn(|c| {
            after.arith.columns()[c] - before.arith.columns()[c]
        }));
        assert_eq!(arith, want_arith, "reference_exec={reference_exec}");
    }
}

/// Fuel is checked at region heads, yet a budget that runs out inside a
/// region ends the run as per-op counting would: a trap at the `k`-th
/// op of a run is reported when the budget covers `k` ops, and
/// `StepBudgetExhausted` when it covers fewer, whatever the region's
/// length; a run that needs `n` ops finishes with a budget of `n`.
#[test]
fn a_budget_that_runs_out_inside_a_region_keeps_the_per_op_outcome() {
    use wb_wasm::{Instr, ModuleBuilder, ValType};
    use wb_wasm_vm::{Trap, Value};

    // `div` traps at its third op, with five more to go in its region.
    let mut mb = ModuleBuilder::new();
    for (name, divisor) in [("div", 0), ("ok", 1)] {
        let mut f = mb.func(name, vec![ValType::I32], vec![]);
        f.ops([
            Instr::LocalGet(0),
            Instr::I32Const(divisor),
            Instr::I32DivS,
            Instr::LocalSet(0),
            Instr::I32Const(1),
            Instr::I32Const(2),
            Instr::I32Add,
            Instr::Drop,
        ])
        .done();
        mb.finish_func(f, true);
    }
    let module = mb.build();
    for reference_exec in [false, true] {
        let run = |name: &str, fuel: Option<u64>| {
            let mut config = WasmVmConfig::reference();
            config.reference_exec = reference_exec;
            config.limits.fuel = fuel;
            let mut inst =
                Instance::from_module(module.clone(), config, std::collections::HashMap::new())
                    .unwrap();
            let r = inst.invoke(name, &[Value::I32(7)]);
            (r, inst.record().band_counts.total().total())
        };
        let what = format!("reference_exec={reference_exec}");
        let (r, ops) = run("div", None);
        assert_eq!((r, ops), (Err(Trap::DivByZero), 3), "{what}");
        assert_eq!(run("div", Some(3)).0, Err(Trap::DivByZero), "{what}");
        assert_eq!(
            run("div", Some(2)).0,
            Err(Trap::StepBudgetExhausted),
            "{what}"
        );
        let (r, ops) = run("ok", None);
        assert_eq!(r, Ok(None), "{what}");
        assert!(ops > 3, "{what}: ok ran its whole region");
        assert_eq!(run("ok", Some(ops)).0, Ok(None), "{what}");
        for fuel in 1..ops {
            let r = run("ok", Some(fuel)).0;
            assert_eq!(r, Err(Trap::StepBudgetExhausted), "{what}: fuel {fuel}");
        }
    }

    // `f` fails at its unbound global mid-region.
    let src = "function f(a) { var s = a + 1; var t = s * 2; var u = missing; return t + u; }";
    for reference_exec in [false, true] {
        let run = |fuel: Option<u64>| {
            let mut config = JsVmConfig::reference();
            config.reference_exec = reference_exec;
            config.limits.fuel = fuel;
            let mut vm = JsVm::new(config);
            let r = vm
                .load(src)
                .and_then(|()| vm.call("f", &[wb_jsvm::JsValue::Num(1.0)]));
            (r, vm.record().band_counts.total().total())
        };
        let what = format!("reference_exec={reference_exec}");
        let (r, ops) = run(None);
        assert!(
            matches!(r, Err(wb_jsvm::JsError::Reference { .. })),
            "{what}"
        );
        assert!(
            matches!(run(Some(ops)).0, Err(wb_jsvm::JsError::Reference { .. })),
            "{what}"
        );
        assert_eq!(
            run(Some(ops - 1)).0,
            Err(wb_jsvm::JsError::StepBudgetExhausted),
            "{what}"
        );
    }
}

/// Loading a second script into a VM keeps what the first one ran in the
/// record: its region counters fold into the record before its regions
/// are replaced.
#[test]
fn a_second_load_keeps_the_counts_of_the_first() {
    use wb_jsvm::JsValue;
    let first =
        "function f(n) { var s = 0; for (var i = 0; i < n; i++) { s = s + i * 2; } return s; }";
    let second = "var x = 1 + 2; var y = x / 3;";
    let mut vm = JsVm::new(JsVmConfig::reference());
    vm.load(first).unwrap();
    vm.call("f", &[JsValue::Num(10.0)]).unwrap();
    let before = vm.record();
    vm.load(second).unwrap();
    let mut alone = JsVm::new(JsVmConfig::reference());
    alone.load(second).unwrap();
    let (after, alone) = (vm.record(), alone.record());
    assert_eq!(
        after.band_counts.total(),
        before
            .band_counts
            .total()
            .merged(&alone.band_counts.total())
    );
    assert_eq!(
        after.arith.columns(),
        std::array::from_fn(|c| before.arith.columns()[c] + alone.arith.columns()[c])
    );
}
