//! Fusion-on vs fusion-off differential tests.
//!
//! Operands resolved in place exist purely to make the host run faster;
//! they must be invisible in every measured quantity. These tests run the
//! same module through the one dispatch loop with fusion on and off
//! (`reference_exec` toggled: one micro-op per instruction) and assert
//! the *entire* execution report matches to the bit — virtual time,
//! per-bucket clock attribution, per-class op counts, per-tier counts,
//! Table 12 arithmetic profile, memory statistics, tier-ups and context
//! switches — alongside the computed results themselves.
//!
//! Each test targets one kind of resolved operand (see
//! `src/fuse.rs`); the final tests sweep tier policies and trapping
//! executions, where accounting order at the fault matters.

use std::collections::HashMap;
use std::sync::Arc;
use wb_env::TierPolicy;
use wb_wasm::{BlockType, Instr, Module, ModuleBuilder, ValType};
use wb_wasm_vm::{ExecutionReport, Instance, PreparedModule, Trap, Value, WasmVmConfig};

fn config(reference_exec: bool, tier_policy: TierPolicy) -> WasmVmConfig {
    WasmVmConfig {
        tier_policy,
        reference_exec,
        ..WasmVmConfig::reference()
    }
}

/// Compare every field of two reports bit-exactly (floats via to_bits).
fn assert_reports_identical(a: &ExecutionReport, b: &ExecutionReport) {
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
    assert_eq!(
        a.clock.mem_grow_time.0.to_bits(),
        b.clock.mem_grow_time.0.to_bits(),
        "mem grow time"
    );
    assert_eq!(
        a.clock.context_switch_time.0.to_bits(),
        b.clock.context_switch_time.0.to_bits(),
        "context switch time"
    );
    assert_eq!(a.counts.0, b.counts.0, "op counts by class");
    assert_eq!(
        a.baseline_counts.0, b.baseline_counts.0,
        "baseline-tier op counts"
    );
    assert_eq!(a.arith, b.arith, "arith profile");
    assert_eq!(a.memory.linear_bytes, b.memory.linear_bytes, "linear bytes");
    assert_eq!(a.memory.grow_count, b.memory.grow_count, "grow count");
    assert_eq!(a.memory.grown_pages, b.memory.grown_pages, "grown pages");
    assert_eq!(a.tier_ups, b.tier_ups, "tier ups");
    assert_eq!(a.context_switches, b.context_switches, "context switches");
}

/// Run `entry(args)` on both engines over one shared preparation and
/// assert results and reports are identical. Returns the common result.
fn run_both(
    module: Module,
    tier_policy: TierPolicy,
    entry: &str,
    args: &[Value],
) -> Result<Option<Value>, Trap> {
    wb_wasm::validate(&module).expect("test module must validate");
    let prepared = Arc::new(PreparedModule::new(module));
    let mut outcome = None;
    for reference_exec in [true, false] {
        let mut inst = Instance::from_prepared(
            Arc::clone(&prepared),
            config(reference_exec, tier_policy),
            HashMap::new(),
        )
        .unwrap();
        let result = inst.invoke(entry, args);
        let report = inst.report();
        match &outcome {
            None => outcome = Some((result, report)),
            Some((ref_result, ref_report)) => {
                assert_eq!(*ref_result, result, "result must match reference");
                assert_reports_identical(ref_report, &report);
            }
        }
    }
    outcome.unwrap().0
}

/// Sum 1..=n: exercises a `Bin` of two locals (the loop test) before a
/// plain `br_if`, a `Bin` of a local and a constant into a local (counter
/// increment), `LocalTee`, a `Bin` of two locals into a local, a dropped
/// `block`, a kept `loop` and loop back-edges, which also drive tier-up
/// hotness.
fn sum_module() -> Module {
    let mut mb = ModuleBuilder::new();
    let mut f = mb.func("sum", vec![ValType::I32], vec![ValType::I32]);
    let acc = f.local(ValType::I32);
    let i = f.local(ValType::I32);
    f.ops([
        Instr::Block(BlockType::Empty),
        Instr::Loop(BlockType::Empty),
        Instr::LocalGet(i),
        Instr::LocalGet(0),
        Instr::I32GeS,
        Instr::BrIf(1),
        Instr::LocalGet(i),
        Instr::I32Const(1),
        Instr::I32Add,
        Instr::LocalTee(i),
        Instr::LocalGet(acc),
        Instr::I32Add,
        Instr::LocalSet(acc),
        Instr::Br(0),
        Instr::End,
        Instr::End,
        Instr::LocalGet(acc),
    ])
    .done();
    mb.finish_func(f, true);
    mb.build()
}

#[test]
fn loop_sum_matches_across_engines() {
    let r = run_both(sum_module(), TierPolicy::Default, "sum", &[Value::I32(500)]);
    assert_eq!(r.unwrap(), Some(Value::I32(125250)));
}

#[test]
fn tier_policies_all_match() {
    for policy in [
        TierPolicy::Default,
        TierPolicy::BasicOnly,
        TierPolicy::OptimizingOnly,
    ] {
        let r = run_both(sum_module(), policy, "sum", &[Value::I32(2000)]);
        assert_eq!(r.unwrap(), Some(Value::I32(2001000)));
    }
}

/// Memory traffic: narrow loads/stores after local-and-constant `Bin`
/// address arithmetic,
/// in loops whose `block` and the `loop`'s `end` leave the stream while
/// the `loop` and the `block`'s `end` fall into region heads.
#[test]
fn memory_loop_matches_across_engines() {
    let mut mb = ModuleBuilder::new();
    mb.memory(1, Some(2));
    let mut f = mb.func("fill", vec![ValType::I32], vec![ValType::I32]);
    let i = f.local(ValType::I32);
    let acc = f.local(ValType::I32);
    f.ops([
        // for i in 0..n { mem[i*4] = i*3; }
        Instr::Block(BlockType::Empty),
        Instr::Loop(BlockType::Empty),
        Instr::LocalGet(i),
        Instr::LocalGet(0),
        Instr::I32GeU,
        Instr::BrIf(1),
        Instr::LocalGet(i),
        Instr::I32Const(4),
        Instr::I32Mul,
        Instr::LocalGet(i),
        Instr::I32Const(3),
        Instr::I32Mul,
        Instr::I32Store(wb_wasm::MemArg {
            align: 2,
            offset: 0,
        }),
        Instr::LocalGet(i),
        Instr::I32Const(1),
        Instr::I32Add,
        Instr::LocalSet(i),
        Instr::Br(0),
        Instr::End,
        Instr::End,
        // acc = sum of mem[i*4] as u8 loads + a 16-bit and full load mix
        Instr::LocalGet(0),
        Instr::I32Const(1),
        Instr::I32Sub,
        Instr::LocalSet(i),
        Instr::Block(BlockType::Empty),
        Instr::Loop(BlockType::Empty),
        Instr::LocalGet(i),
        Instr::I32Const(0),
        Instr::I32LtS,
        Instr::BrIf(1),
        Instr::LocalGet(acc),
        Instr::LocalGet(i),
        Instr::I32Const(4),
        Instr::I32Mul,
        Instr::I32Load8U(wb_wasm::MemArg {
            align: 0,
            offset: 0,
        }),
        Instr::I32Add,
        Instr::LocalSet(acc),
        Instr::LocalGet(i),
        Instr::I32Const(1),
        Instr::I32Sub,
        Instr::LocalSet(i),
        Instr::Br(0),
        Instr::End,
        Instr::End,
        Instr::LocalGet(acc),
    ])
    .done();
    mb.finish_func(f, true);
    let r = run_both(mb.build(), TierPolicy::Default, "fill", &[Value::I32(60)]);
    // sum of (i*3) & 0xff for i in 0..60
    let expect: i32 = (0..60).map(|i| (i * 3) & 0xff).sum();
    assert_eq!(r.unwrap(), Some(Value::I32(expect)));
}

/// Floats and conversions: `Bin`s of a stack value and a constant or
/// into a local over f64, unary ops,
/// truncation, reinterpret — none of which may lose bits crossing the
/// untagged stack.
#[test]
fn float_kernel_matches_across_engines() {
    let mut mb = ModuleBuilder::new();
    let mut f = mb.func("poly", vec![ValType::F64], vec![ValType::F64]);
    let x = f.local(ValType::F64);
    f.ops([
        // x = arg * 1.5 + sqrt(|arg|)
        Instr::LocalGet(0),
        Instr::F64Const(1.5),
        Instr::F64Mul,
        Instr::LocalGet(0),
        Instr::F64Abs,
        Instr::F64Sqrt,
        Instr::F64Add,
        Instr::LocalSet(x),
        // result = x - floor(x) + f64(i32.trunc(x))
        Instr::LocalGet(x),
        Instr::LocalGet(x),
        Instr::F64Floor,
        Instr::F64Sub,
        Instr::LocalGet(x),
        Instr::I32TruncF64S,
        Instr::F64ConvertI32S,
        Instr::F64Add,
    ])
    .done();
    mb.finish_func(f, true);
    let module = mb.build();
    for arg in [0.0, 2.75, -3.5, 1e9] {
        let r = run_both(
            module.clone(),
            TierPolicy::Default,
            "poly",
            &[Value::F64(arg)],
        );
        let x = arg * 1.5 + arg.abs().sqrt();
        let expect = x - x.floor() + (x as i32) as f64;
        assert_eq!(r.unwrap(), Some(Value::F64(expect)), "arg {arg}");
    }
}

/// Calls, indirect calls, globals, select and br_table — control-heavy
/// code where fusion groups are short and frame bookkeeping dominates.
#[test]
fn control_heavy_module_matches_across_engines() {
    let mut mb = ModuleBuilder::new();
    mb.table(2);
    let g = mb.global(ValType::I64, true, Instr::I64Const(0));

    let mut sq = mb.func("sq", vec![ValType::I32], vec![ValType::I32]);
    sq.ops([Instr::LocalGet(0), Instr::LocalGet(0), Instr::I32Mul])
        .done();
    let sq_idx = mb.finish_func(sq, false);

    let mut dbl = mb.func("dbl", vec![ValType::I32], vec![ValType::I32]);
    dbl.ops([Instr::LocalGet(0), Instr::I32Const(1), Instr::I32Shl])
        .done();
    let dbl_idx = mb.finish_func(dbl, false);

    mb.elements(0, vec![sq_idx, dbl_idx]);

    let mut f = mb.func("go", vec![ValType::I32, ValType::I32], vec![ValType::I64]);
    f.ops([
        // direct call, indirect call via selector, br_table over arg1
        Instr::LocalGet(0),
        Instr::Call(sq_idx),
        Instr::LocalGet(0),
        Instr::LocalGet(1),
        Instr::CallIndirect(0),
        Instr::I32Add,
        // select between that and zero on (arg0 > 3)
        Instr::I32Const(0),
        Instr::LocalGet(0),
        Instr::I32Const(3),
        Instr::I32GtS,
        Instr::Select,
        Instr::I64ExtendI32U,
        Instr::GlobalSet(g),
        Instr::Block(BlockType::Empty),
        Instr::Block(BlockType::Empty),
        Instr::LocalGet(1),
        Instr::BrTable(vec![0, 1], 1),
        Instr::End,
        // arm 0: add 100
        Instr::GlobalGet(g),
        Instr::I64Const(100),
        Instr::I64Add,
        Instr::GlobalSet(g),
        Instr::End,
        Instr::GlobalGet(g),
    ])
    .done();
    mb.finish_func(f, true);
    let module = mb.build();
    for (a, b, expect) in [
        (5, 0, 5 * 5 + 5 * 5 + 100),
        (5, 1, 5 * 5 + 5 * 2),
        (2, 0, 100),
    ] {
        let r = run_both(
            module.clone(),
            TierPolicy::Default,
            "go",
            &[Value::I32(a), Value::I32(b)],
        );
        assert_eq!(r.unwrap(), Some(Value::I64(expect as i64)), "args {a} {b}");
    }
}

/// `memory.grow` charges the MemGrow bucket and updates stats; both
/// engines must agree on every grow outcome including the failure path.
#[test]
fn memory_grow_matches_across_engines() {
    let mut mb = ModuleBuilder::new();
    mb.memory(1, Some(3));
    let mut f = mb.func("grow", vec![ValType::I32], vec![ValType::I32]);
    f.ops([
        Instr::LocalGet(0),
        Instr::MemoryGrow,
        Instr::Drop,
        Instr::LocalGet(0),
        Instr::MemoryGrow,
        Instr::Drop,
        Instr::MemorySize,
    ])
    .done();
    mb.finish_func(f, true);
    let module = mb.build();
    // arg 1: both grows succeed (1 -> 2 -> 3 pages).
    let r = run_both(
        module.clone(),
        TierPolicy::Default,
        "grow",
        &[Value::I32(1)],
    );
    assert_eq!(r.unwrap(), Some(Value::I32(3)));
    // arg 2: first grow succeeds (1 -> 3), second exceeds max and fails.
    let r = run_both(module, TierPolicy::Default, "grow", &[Value::I32(2)]);
    assert_eq!(r.unwrap(), Some(Value::I32(3)));
}

/// Trapping executions: the virtual-cost state at the fault must be
/// identical, i.e. the trapping constituent was charged and nothing
/// after it. `i32.div_s` by zero in a `Bin` of two locals is the
/// sharpest probe: the two `local.get`s and the div itself must land,
/// the downstream `local.set` must not.
#[test]
fn division_trap_accounting_matches_across_engines() {
    let mut mb = ModuleBuilder::new();
    let mut f = mb.func("div", vec![ValType::I32, ValType::I32], vec![ValType::I32]);
    let out = f.local(ValType::I32);
    f.ops([
        Instr::LocalGet(0),
        Instr::LocalGet(1),
        Instr::I32DivS,
        Instr::LocalSet(out),
        Instr::LocalGet(out),
    ])
    .done();
    mb.finish_func(f, true);
    let module = mb.build();

    let ok = run_both(
        module.clone(),
        TierPolicy::Default,
        "div",
        &[Value::I32(42), Value::I32(6)],
    );
    assert_eq!(ok.unwrap(), Some(Value::I32(7)));

    let err = run_both(
        module.clone(),
        TierPolicy::Default,
        "div",
        &[Value::I32(42), Value::I32(0)],
    );
    assert_eq!(err.unwrap_err(), Trap::DivByZero);

    let err = run_both(
        module,
        TierPolicy::Default,
        "div",
        &[Value::I32(i32::MIN), Value::I32(-1)],
    );
    assert_eq!(err.unwrap_err(), Trap::IntegerOverflow);
}

/// Out-of-bounds access in a `Load` from a local.
#[test]
fn oob_trap_accounting_matches_across_engines() {
    let mut mb = ModuleBuilder::new();
    mb.memory(1, Some(1));
    let mut f = mb.func("peek", vec![ValType::I32], vec![ValType::I32]);
    f.ops([
        Instr::LocalGet(0),
        Instr::I32Load(wb_wasm::MemArg {
            align: 2,
            offset: 0,
        }),
    ])
    .done();
    mb.finish_func(f, true);
    let module = mb.build();
    let ok = run_both(
        module.clone(),
        TierPolicy::Default,
        "peek",
        &[Value::I32(0)],
    );
    assert_eq!(ok.unwrap(), Some(Value::I32(0)));
    let err = run_both(module, TierPolicy::Default, "peek", &[Value::I32(65536)]);
    assert!(matches!(err.unwrap_err(), Trap::MemoryOutOfBounds { .. }));
}
