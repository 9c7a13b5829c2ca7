//! End-to-end semantics tests: build modules with `wb-wasm`, execute them,
//! and check results, traps, tiering and accounting.

use std::collections::HashMap;
use wb_env::{TierPolicy, TimeBucket};
use wb_wasm::{BlockType, Instr, MemArg, ModuleBuilder, ValType};
use wb_wasm_vm::{Instance, Trap, Value, WasmVmConfig};

fn instance(module: wb_wasm::Module) -> Instance {
    wb_wasm::validate(&module).expect("test module must validate");
    Instance::from_module(module, WasmVmConfig::reference(), HashMap::new()).unwrap()
}

fn fib_module() -> wb_wasm::Module {
    // Recursive fib like the paper's Fig 4(a).
    let mut mb = ModuleBuilder::new();
    let mut f = mb.func("fib", vec![ValType::I32], vec![ValType::I32]);
    f.ops([
        Instr::LocalGet(0),
        Instr::I32Const(3),
        Instr::I32LtS,
        Instr::If(BlockType::Empty),
        Instr::I32Const(1),
        Instr::Return,
        Instr::End,
        Instr::LocalGet(0),
        Instr::I32Const(1),
        Instr::I32Sub,
        Instr::Call(0),
        Instr::LocalGet(0),
        Instr::I32Const(2),
        Instr::I32Sub,
        Instr::Call(0),
        Instr::I32Add,
    ])
    .done();
    mb.finish_func(f, true);
    mb.build()
}

#[test]
fn fibonacci_matches_reference() {
    let mut inst = instance(fib_module());
    let r = inst.invoke("fib", &[Value::I32(10)]).unwrap();
    assert_eq!(r, Some(Value::I32(55)));
    let r = inst.invoke("fib", &[Value::I32(1)]).unwrap();
    assert_eq!(r, Some(Value::I32(1)));
}

#[test]
fn loop_sum_and_back_edges() {
    // sum 1..=n via a loop.
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
    let mut inst = instance(mb.build());
    let r = inst.invoke("sum", &[Value::I32(100)]).unwrap();
    assert_eq!(r, Some(Value::I32(5050)));
    let report = inst.report();
    assert!(report.counts.total() > 500, "loop ops retired");
}

#[test]
fn division_traps() {
    let mut mb = ModuleBuilder::new();
    let mut f = mb.func("div", vec![ValType::I32, ValType::I32], vec![ValType::I32]);
    f.ops([Instr::LocalGet(0), Instr::LocalGet(1), Instr::I32DivS])
        .done();
    mb.finish_func(f, true);
    let mut inst = instance(mb.build());
    assert_eq!(
        inst.invoke("div", &[Value::I32(7), Value::I32(0)]),
        Err(Trap::DivByZero)
    );
    assert_eq!(
        inst.invoke("div", &[Value::I32(i32::MIN), Value::I32(-1)]),
        Err(Trap::IntegerOverflow)
    );
    assert_eq!(
        inst.invoke("div", &[Value::I32(-7), Value::I32(2)]),
        Ok(Some(Value::I32(-3)))
    );
}

#[test]
fn memory_store_load_round_trip() {
    let mut mb = ModuleBuilder::new();
    mb.memory(1, None);
    let mut f = mb.func(
        "poke_peek",
        vec![ValType::I32, ValType::F64],
        vec![ValType::F64],
    );
    f.ops([
        Instr::LocalGet(0),
        Instr::LocalGet(1),
        Instr::F64Store(MemArg::natural(8)),
        Instr::LocalGet(0),
        Instr::F64Load(MemArg::natural(8)),
    ])
    .done();
    mb.finish_func(f, true);
    let mut inst = instance(mb.build());
    let r = inst
        .invoke("poke_peek", &[Value::I32(128), Value::F64(3.25)])
        .unwrap();
    assert_eq!(r, Some(Value::F64(3.25)));
}

#[test]
fn out_of_bounds_traps() {
    let mut mb = ModuleBuilder::new();
    mb.memory(1, None);
    let mut f = mb.func("peek", vec![ValType::I32], vec![ValType::I32]);
    f.ops([Instr::LocalGet(0), Instr::I32Load(MemArg::natural(4))])
        .done();
    mb.finish_func(f, true);
    let mut inst = instance(mb.build());
    assert!(matches!(
        inst.invoke("peek", &[Value::I32(65536)]),
        Err(Trap::MemoryOutOfBounds { .. })
    ));
    // Last valid word.
    assert!(inst.invoke("peek", &[Value::I32(65532)]).is_ok());
}

/// Run `f(grow)` in a fresh instance of `module`, with fusion on and off.
fn run_both(module: &wb_wasm::Module, grow: i32) -> [Result<Option<Value>, Trap>; 2] {
    [false, true].map(|reference_exec| {
        let config = WasmVmConfig {
            reference_exec,
            ..WasmVmConfig::reference()
        };
        wb_wasm::validate(module).expect("test module must validate");
        let mut inst = Instance::from_module(module.clone(), config, HashMap::new()).unwrap();
        inst.invoke("f", &[Value::I32(grow)])
    })
}

/// An i32 access at byte 8 of the second page, which exists only after a
/// grow of the one-page memory.
const PAGE_TWO: i32 = 65536 + 8;

#[test]
fn a_page_grown_inside_a_loop_is_accessible_in_the_same_run() {
    // Two iterations store `40 + i` at byte 8 of page `i`; after the
    // first iteration's store, `f(1)` grows the memory by a page. Then
    // the second page's word is loaded back. A run that kept the length
    // it saw at the loop's (or the function's) entry would trap on the
    // second store.
    let mut mb = ModuleBuilder::new();
    mb.memory(1, None);
    let mut f = mb.func("f", vec![ValType::I32], vec![ValType::I32]);
    let i = f.local(ValType::I32);
    let word = MemArg::natural(4);
    f.ops([
        Instr::Loop(BlockType::Empty),
        Instr::LocalGet(i),
        Instr::I32Const(65536),
        Instr::I32Mul,
        Instr::I32Const(8),
        Instr::I32Add,
        Instr::LocalGet(i),
        Instr::I32Const(40),
        Instr::I32Add,
        Instr::I32Store(word),
        Instr::LocalGet(i),
        Instr::I32Eqz,
        Instr::LocalGet(0),
        Instr::I32And,
        Instr::If(BlockType::Empty),
        Instr::I32Const(1),
        Instr::MemoryGrow,
        Instr::Drop,
        Instr::End,
        Instr::LocalGet(i),
        Instr::I32Const(1),
        Instr::I32Add,
        Instr::LocalTee(i),
        Instr::I32Const(2),
        Instr::I32LtU,
        Instr::BrIf(0),
        Instr::End,
        Instr::I32Const(PAGE_TWO),
        Instr::I32Load(word),
    ])
    .done();
    mb.finish_func(f, true);
    let module = mb.build();
    let oob = Err(Trap::MemoryOutOfBounds {
        addr: PAGE_TWO as u64,
        width: 4,
    });
    assert_eq!(
        run_both(&module, 1),
        [Ok(Some(Value::I32(41))), Ok(Some(Value::I32(41)))]
    );
    assert_eq!(run_both(&module, 0), [oob.clone(), oob]);
}

#[test]
fn a_page_a_callee_grew_is_accessible_to_its_caller() {
    // `f(1)` stores to and loads from page one, calls `grow`, which adds
    // a page, then stores to and loads back from the new page. A caller
    // that kept the length it saw before the call would trap there.
    let mut mb = ModuleBuilder::new();
    mb.memory(1, None);
    let mut grow = mb.func("grow", vec![], vec![]);
    grow.ops([Instr::I32Const(1), Instr::MemoryGrow, Instr::Drop])
        .done();
    let grow = mb.finish_func(grow, false);
    let mut f = mb.func("f", vec![ValType::I32], vec![ValType::I32]);
    let word = MemArg::natural(4);
    f.ops([
        Instr::I32Const(8),
        Instr::I32Const(7),
        Instr::I32Store(word),
        Instr::LocalGet(0),
        Instr::If(BlockType::Empty),
        Instr::Call(grow),
        Instr::End,
        Instr::I32Const(PAGE_TWO),
        Instr::I32Const(8),
        Instr::I32Load(word),
        Instr::I32Const(35),
        Instr::I32Add,
        Instr::I32Store(word),
        Instr::I32Const(PAGE_TWO),
        Instr::I32Load(word),
    ])
    .done();
    mb.finish_func(f, true);
    let module = mb.build();
    let oob = Err(Trap::MemoryOutOfBounds {
        addr: PAGE_TWO as u64,
        width: 4,
    });
    assert_eq!(
        run_both(&module, 1),
        [Ok(Some(Value::I32(42))), Ok(Some(Value::I32(42)))]
    );
    assert_eq!(run_both(&module, 0), [oob.clone(), oob]);
}

#[test]
fn memory_grow_updates_stats_and_charges_time() {
    let mut mb = ModuleBuilder::new();
    mb.memory(1, Some(10));
    let mut f = mb.func("grow", vec![ValType::I32], vec![ValType::I32]);
    f.ops([Instr::LocalGet(0), Instr::MemoryGrow]).done();
    mb.finish_func(f, true);
    let mut inst = instance(mb.build());
    let before = inst.report();
    assert_eq!(before.clock.mem_grow_time.0, 0.0);
    assert_eq!(
        inst.invoke("grow", &[Value::I32(4)]),
        Ok(Some(Value::I32(1)))
    );
    let after = inst.report();
    assert_eq!(after.memory.linear_bytes, 5 * 64 * 1024);
    assert_eq!(after.memory.grow_count, 1);
    assert_eq!(after.memory.grown_pages, 4);
    assert!(after.clock.mem_grow_time.0 > 0.0);
    // Refused grow returns -1 and charges nothing extra.
    assert_eq!(
        inst.invoke("grow", &[Value::I32(100)]),
        Ok(Some(Value::I32(-1)))
    );
    assert_eq!(inst.report().memory.grow_count, 1);
}

#[test]
fn host_functions_and_context_switches() {
    let mut mb = ModuleBuilder::new();
    let imp = mb.import_func("env", "add_ten", vec![ValType::I32], vec![ValType::I32]);
    let mut f = mb.func("run", vec![ValType::I32], vec![ValType::I32]);
    f.ops([Instr::LocalGet(0), Instr::Call(imp)]).done();
    mb.finish_func(f, true);
    let module = mb.build();
    wb_wasm::validate(&module).unwrap();
    let mut hostfns: HashMap<String, wb_wasm_vm::HostFn> = HashMap::new();
    hostfns.insert(
        "env.add_ten".into(),
        Box::new(|_ctx, args| Ok(Some(Value::I32(args[0].as_i32() + 10)))),
    );
    let mut inst = Instance::from_module(module, WasmVmConfig::reference(), hostfns).unwrap();
    let r = inst.invoke("run", &[Value::I32(32)]).unwrap();
    assert_eq!(r, Some(Value::I32(42)));
    // invoke: 2 crossings; host call: 2 more.
    assert_eq!(inst.report().context_switches, 4);
    assert!(inst.report().clock.context_switch_time.0 > 0.0);
}

#[test]
fn missing_import_traps() {
    let mut mb = ModuleBuilder::new();
    let imp = mb.import_func("env", "absent", vec![], vec![]);
    let mut f = mb.func("run", vec![], vec![]);
    f.ops([Instr::Call(imp)]).done();
    mb.finish_func(f, true);
    let mut inst =
        Instance::from_module(mb.build(), WasmVmConfig::reference(), HashMap::new()).unwrap();
    assert!(matches!(
        inst.invoke("run", &[]),
        Err(Trap::MissingImport { .. })
    ));
}

#[test]
fn call_indirect_dispatches_and_checks_types() {
    let mut mb = ModuleBuilder::new();
    mb.table(2);
    let mut f0 = mb.func("three", vec![], vec![ValType::I32]);
    f0.op(Instr::I32Const(3)).done();
    mb.finish_func(f0, false);
    let mut f1 = mb.func("four", vec![], vec![ValType::I32]);
    f1.op(Instr::I32Const(4)).done();
    mb.finish_func(f1, false);
    mb.elements(0, vec![0, 1]);
    let mut f = mb.func("pick", vec![ValType::I32], vec![ValType::I32]);
    // type index of () -> i32 is 0 (first interned).
    f.ops([Instr::LocalGet(0), Instr::CallIndirect(0)]).done();
    mb.finish_func(f, true);
    let mut inst = instance(mb.build());
    assert_eq!(
        inst.invoke("pick", &[Value::I32(0)]),
        Ok(Some(Value::I32(3)))
    );
    assert_eq!(
        inst.invoke("pick", &[Value::I32(1)]),
        Ok(Some(Value::I32(4)))
    );
    assert_eq!(
        inst.invoke("pick", &[Value::I32(5)]),
        Err(Trap::TableOutOfBounds)
    );
}

#[test]
fn br_table_selects_arms() {
    let mut mb = ModuleBuilder::new();
    let mut f = mb.func("classify", vec![ValType::I32], vec![ValType::I32]);
    f.ops([
        Instr::Block(BlockType::Empty), // depth 2 at br_table
        Instr::Block(BlockType::Empty), // depth 1
        Instr::Block(BlockType::Empty), // depth 0
        Instr::LocalGet(0),
        Instr::BrTable(vec![0, 1], 2),
        Instr::End,
        Instr::I32Const(100), // case 0
        Instr::Return,
        Instr::End,
        Instr::I32Const(200), // case 1
        Instr::Return,
        Instr::End,
        Instr::I32Const(300), // default
    ])
    .done();
    mb.finish_func(f, true);
    let mut inst = instance(mb.build());
    assert_eq!(
        inst.invoke("classify", &[Value::I32(0)]),
        Ok(Some(Value::I32(100)))
    );
    assert_eq!(
        inst.invoke("classify", &[Value::I32(1)]),
        Ok(Some(Value::I32(200)))
    );
    assert_eq!(
        inst.invoke("classify", &[Value::I32(9)]),
        Ok(Some(Value::I32(300)))
    );
}

#[test]
fn stack_overflow_trap() {
    let mut mb = ModuleBuilder::new();
    let mut f = mb.func("spin", vec![], vec![]);
    f.ops([Instr::Call(0)]).done();
    mb.finish_func(f, true);
    let mut cfg = WasmVmConfig::reference();
    cfg.limits.max_call_depth = 64;
    let mut inst = Instance::from_module(mb.build(), cfg, HashMap::new()).unwrap();
    assert_eq!(inst.invoke("spin", &[]), Err(Trap::StackOverflow));
}

#[test]
fn step_budget_trap() {
    let mut mb = ModuleBuilder::new();
    let mut f = mb.func("forever", vec![], vec![]);
    f.ops([Instr::Loop(BlockType::Empty), Instr::Br(0), Instr::End])
        .done();
    mb.finish_func(f, true);
    let mut cfg = WasmVmConfig::reference();
    cfg.limits.fuel = Some(10_000);
    let mut inst = Instance::from_module(mb.build(), cfg, HashMap::new()).unwrap();
    assert_eq!(inst.invoke("forever", &[]), Err(Trap::StepBudgetExhausted));
}

#[test]
fn tier_up_happens_under_default_policy_only() {
    // A function hot enough to cross the reference threshold.
    let run = |policy: TierPolicy| {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("hot", vec![ValType::I32], vec![ValType::I32]);
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
            Instr::LocalSet(i),
            Instr::Br(0),
            Instr::End,
            Instr::End,
            Instr::LocalGet(i),
        ])
        .done();
        mb.finish_func(f, true);
        let mut cfg = WasmVmConfig::reference();
        cfg.tier_policy = policy;
        let mut inst = Instance::from_module(mb.build(), cfg, HashMap::new()).unwrap();
        inst.invoke("hot", &[Value::I32(50_000)]).unwrap();
        inst.report()
    };

    let default = run(TierPolicy::Default);
    assert_eq!(default.tier_ups, 1);
    assert!(default.baseline_counts.total() > 0, "warm-up in baseline");
    assert!(default.counts.total() > default.baseline_counts.total());
    assert!(default.clock.compile_time.0 > 0.0);

    let basic = run(TierPolicy::BasicOnly);
    assert_eq!(basic.tier_ups, 0);
    assert_eq!(basic.baseline_counts.total(), basic.counts.total());

    let optimizing = run(TierPolicy::OptimizingOnly);
    assert_eq!(optimizing.tier_ups, 0);
    assert_eq!(optimizing.baseline_counts.total(), 0);

    // Table 7 shape: default beats basic-only; optimizing-only beats
    // default (compile up front, no baseline warm-up) for hot code.
    assert!(default.total.0 < basic.total.0, "default < basic-only");
    assert!(
        optimizing.total.0 < default.total.0,
        "optimizing-only < default"
    );
}

#[test]
fn instantiate_from_binary_charges_load_time() {
    let bytes = wb_wasm::encode_module(&fib_module());
    let mut inst =
        Instance::instantiate(&bytes, WasmVmConfig::reference(), HashMap::new()).unwrap();
    let report = inst.report();
    assert!(report.clock.load_time.0 > 0.0);
    assert!(report.clock.compile_time.0 > 0.0);
    assert_eq!(
        inst.invoke("fib", &[Value::I32(7)]).unwrap(),
        Some(Value::I32(13))
    );
}

#[test]
fn select_and_globals() {
    let mut mb = ModuleBuilder::new();
    let g = mb.global(ValType::I32, true, Instr::I32Const(17));
    let mut f = mb.func("pick", vec![ValType::I32], vec![ValType::I32]);
    f.ops([
        Instr::GlobalGet(g),
        Instr::I32Const(99),
        Instr::LocalGet(0),
        Instr::Select,
    ])
    .done();
    mb.finish_func(f, true);
    let mut inst = instance(mb.build());
    assert_eq!(
        inst.invoke("pick", &[Value::I32(1)]),
        Ok(Some(Value::I32(17)))
    );
    assert_eq!(
        inst.invoke("pick", &[Value::I32(0)]),
        Ok(Some(Value::I32(99)))
    );
}

#[test]
fn i64_and_f64_arithmetic() {
    let mut mb = ModuleBuilder::new();
    let mut f = mb.func("mix", vec![ValType::I64, ValType::F64], vec![ValType::F64]);
    f.ops([
        Instr::LocalGet(0),
        Instr::F64ConvertI64S,
        Instr::LocalGet(1),
        Instr::F64Mul,
        Instr::F64Sqrt,
    ])
    .done();
    mb.finish_func(f, true);
    let mut inst = instance(mb.build());
    let r = inst
        .invoke("mix", &[Value::I64(4), Value::F64(4.0)])
        .unwrap();
    assert_eq!(r, Some(Value::F64(4.0)));
}

#[test]
fn unreachable_traps() {
    let mut mb = ModuleBuilder::new();
    let mut f = mb.func("boom", vec![], vec![]);
    f.op(Instr::Unreachable).done();
    mb.finish_func(f, true);
    let mut inst = instance(mb.build());
    assert_eq!(inst.invoke("boom", &[]), Err(Trap::Unreachable));
}

#[test]
fn invoke_argument_checking() {
    let mut inst = instance(fib_module());
    assert!(matches!(
        inst.invoke("fib", &[]),
        Err(Trap::BadInvokeArgs { .. })
    ));
    assert!(matches!(
        inst.invoke("fib", &[Value::F64(1.0)]),
        Err(Trap::BadInvokeArgs { .. })
    ));
    assert!(matches!(
        inst.invoke("nope", &[]),
        Err(Trap::NoSuchExport { .. })
    ));
}

#[test]
fn clock_buckets_are_disjoint_and_sum() {
    let mut inst = instance(fib_module());
    inst.invoke("fib", &[Value::I32(15)]).unwrap();
    let r = inst.report();
    let parts = r.clock.load_time
        + r.clock.compile_time
        + r.clock.exec_time
        + r.clock.gc_time
        + r.clock.mem_grow_time
        + r.clock.context_switch_time;
    assert!((parts.0 - r.total.0).abs() < 1e-6);
    let _ = TimeBucket::Exec; // bucket type is part of the public API
}

#[test]
fn branches_to_the_function_label_return() {
    // The function's own label is the outermost one: a branch to it
    // returns, carrying the result if the function has one. Each valued
    // function leaves junk below its result, and a caller leaves some
    // below its call, so a wrong frame height shows in the sums.
    use Instr::*;
    let i32x2 = || vec![ValType::I32, ValType::I32];
    let mut mb = ModuleBuilder::new();
    let g = mb.global(ValType::I32, true, I32Const(-1));
    let valued: [(&str, Vec<Instr>); 4] = [
        // Returns 7.
        ("br", vec![I32Const(99), I32Const(7), Br(0)]),
        // Returns 1 when p != 0, else 2.
        (
            "br_if",
            vec![I32Const(1), LocalGet(0), BrIf(0), Drop, I32Const(2)],
        ),
        // Returns 5 when p == 0 (arm 0 names the function), else 6.
        (
            "br_table",
            vec![
                Block(BlockType::Value(ValType::I32)),
                I32Const(5),
                LocalGet(0),
                BrTable(vec![1], 0),
                End,
                I32Const(1),
                I32Add,
            ],
        ),
        // Returns 3 when p >= q (`eqz; br_if`, one branch on zero when
        // fused), else 4.
        (
            "cmp_br",
            vec![
                I32Const(3),
                LocalGet(0),
                LocalGet(1),
                I32LtS,
                I32Eqz,
                BrIf(0),
                Drop,
                I32Const(4),
            ],
        ),
    ];
    let void: [(&str, Vec<Instr>); 4] = [
        // Sets g to p.
        (
            "br_void",
            vec![LocalGet(0), GlobalSet(g), Br(0), I32Const(9), GlobalSet(g)],
        ),
        // Sets g to 1 when p != 0, else 2.
        (
            "br_if_void",
            vec![
                I32Const(1),
                GlobalSet(g),
                LocalGet(0),
                BrIf(0),
                I32Const(2),
                GlobalSet(g),
            ],
        ),
        // Sets g to 0 when p == 0, else 3.
        (
            "br_table_void",
            vec![
                I32Const(0),
                GlobalSet(g),
                Block(BlockType::Empty),
                LocalGet(0),
                BrTable(vec![1], 0),
                End,
                I32Const(3),
                GlobalSet(g),
            ],
        ),
        // Sets g to 0 when p < q, else 4.
        (
            "cmp_br_void",
            vec![
                I32Const(0),
                GlobalSet(g),
                LocalGet(0),
                LocalGet(1),
                I32LtS,
                BrIf(0),
                I32Const(4),
                GlobalSet(g),
            ],
        ),
    ];
    for (name, body) in &valued {
        let mut f = mb.func(name, i32x2(), vec![ValType::I32]);
        f.ops(body.clone()).done();
        let index = mb.finish_func(f, true);
        // 1000 + name(p, q), with 1000 left below the call.
        let mut f = mb.func(&format!("call_{name}"), i32x2(), vec![ValType::I32]);
        f.ops([
            I32Const(1000),
            LocalGet(0),
            LocalGet(1),
            Call(index),
            I32Add,
        ])
        .done();
        mb.finish_func(f, true);
    }
    for (name, body) in &void {
        let mut f = mb.func(name, i32x2(), vec![]);
        f.ops(body.clone()).done();
        mb.finish_func(f, true);
    }
    let mut module = mb.build();
    module.exports.push(wb_wasm::Export {
        name: "g".into(),
        kind: wb_wasm::ExportKind::Global(g),
    });
    wb_wasm::validate(&module).expect("test module must validate");
    let cases: [(&str, i32, i32, i32); 16] = [
        ("br", 0, 0, 7),
        ("br", 1, 0, 7),
        ("br_if", 1, 0, 1),
        ("br_if", 0, 0, 2),
        ("br_table", 0, 0, 5),
        ("br_table", 1, 0, 6),
        ("cmp_br", 2, 1, 3),
        ("cmp_br", 1, 2, 4),
        ("br_void", 42, 0, 42),
        ("br_void", -3, 0, -3),
        ("br_if_void", 1, 0, 1),
        ("br_if_void", 0, 0, 2),
        ("br_table_void", 0, 0, 0),
        ("br_table_void", 5, 0, 3),
        ("cmp_br_void", 1, 2, 0),
        ("cmp_br_void", 2, 1, 4),
    ];
    for reference_exec in [false, true] {
        let config = WasmVmConfig {
            reference_exec,
            ..WasmVmConfig::reference()
        };
        let mut inst = Instance::from_module(module.clone(), config, HashMap::new()).unwrap();
        for (name, p, q, want) in cases {
            let args = [Value::I32(p), Value::I32(q)];
            let r = inst.invoke(name, &args).unwrap();
            let case = format!("{name}({p}, {q}), reference_exec={reference_exec}");
            if name.ends_with("_void") {
                assert_eq!(r, None, "{case}");
                assert_eq!(inst.exported_global("g"), Some(Value::I32(want)), "{case}");
            } else {
                assert_eq!(r, Some(Value::I32(want)), "{case}");
                let r = inst.invoke(&format!("call_{name}"), &args).unwrap();
                assert_eq!(r, Some(Value::I32(1000 + want)), "call_{case}");
            }
        }
    }
}

#[test]
fn reads_before_a_local_write_keep_the_old_value() {
    // With fusion on, `local.get` lowers to nothing: its slot is named by
    // the micro-op that reads the value. Each body here writes a local
    // while a read of it is still on the operand stack, so that read must
    // be copied out first. Every case is a `(p, q) -> i32` function.
    use Instr::*;
    // A body and the value it must return.
    type Case = (&'static str, Vec<Instr>, fn(i32, i32) -> i32);
    let cases: [Case; 6] = [
        // The old and the new value of local 0.
        (
            "set",
            vec![LocalGet(0), LocalGet(1), LocalSet(0), LocalGet(0), I32Sub],
            |p, q| p.wrapping_sub(q),
        ),
        (
            "tee",
            vec![LocalGet(0), LocalGet(1), LocalTee(0), I32Sub],
            |p, q| p.wrapping_sub(q),
        ),
        // An `add` whose result goes to local 0 while a read of local 0
        // waits below it.
        (
            "bin_into_local",
            vec![
                LocalGet(0),
                LocalGet(0),
                LocalGet(1),
                I32Add,
                LocalSet(0),
                LocalGet(0),
                I32Sub,
            ],
            |p, q| p.wrapping_sub(p.wrapping_add(q)),
        ),
        // A read of local 0 carried into a loop that increments it.
        (
            "loop",
            vec![
                LocalGet(0),
                Loop(BlockType::Empty),
                LocalGet(0),
                I32Const(1),
                I32Add,
                LocalSet(0),
                LocalGet(0),
                LocalGet(1),
                I32LtS,
                BrIf(0),
                End,
                LocalGet(0),
                I32Sub,
            ],
            |p, q| {
                let mut x = p.wrapping_add(1);
                while x < q {
                    x += 1;
                }
                p.wrapping_sub(x)
            },
        ),
        // Reads of local 0 below a call's arguments, and one the call's
        // result then overwrites.
        (
            "call",
            vec![LocalGet(0), LocalGet(1), Call(0), I32Sub],
            |p, q| p.wrapping_sub(q),
        ),
        (
            "call_then_set",
            vec![
                LocalGet(0),
                I32Const(7),
                Call(0),
                LocalSet(0),
                LocalGet(0),
                I32Sub,
            ],
            |p, _| p.wrapping_sub(7),
        ),
    ];
    let mut mb = ModuleBuilder::new();
    let mut id = mb.func("id", vec![ValType::I32], vec![ValType::I32]);
    id.ops([LocalGet(0)]).done();
    mb.finish_func(id, true);
    for (name, body, _) in &cases {
        let mut f = mb.func(name, vec![ValType::I32, ValType::I32], vec![ValType::I32]);
        f.ops(body.clone()).done();
        mb.finish_func(f, true);
    }
    let module = mb.build();
    wb_wasm::validate(&module).expect("test module must validate");
    for reference_exec in [false, true] {
        let config = WasmVmConfig {
            reference_exec,
            ..WasmVmConfig::reference()
        };
        let mut inst = Instance::from_module(module.clone(), config, HashMap::new()).unwrap();
        for (name, _, want) in &cases {
            for (p, q) in [(5, 3), (-2, 4), (1, 9)] {
                let r = inst.invoke(name, &[Value::I32(p), Value::I32(q)]).unwrap();
                let case = format!("{name}({p}, {q}), reference_exec={reference_exec}");
                assert_eq!(r, Some(Value::I32(want(p, q))), "{case}");
            }
        }
    }
}

#[test]
fn modules_that_do_not_validate_fail_to_instantiate() {
    use Instr::*;
    // An `i32.add` with no operands, and a `block` whose `end` is the
    // function's last: the function itself is never closed.
    for (what, body) in [
        ("operand underflow", vec![I32Add, Drop, End]),
        ("unclosed body", vec![Block(BlockType::Empty), End]),
    ] {
        let module = wb_wasm::Module {
            types: vec![wb_wasm::FuncType {
                params: vec![],
                results: vec![],
            }],
            functions: vec![wb_wasm::Function {
                type_index: 0,
                locals: vec![],
                body,
                name: None,
            }],
            exports: vec![wb_wasm::Export {
                name: "f".into(),
                kind: wb_wasm::ExportKind::Func(0),
            }],
            ..Default::default()
        };
        assert!(wb_wasm::validate(&module).is_err(), "{what}");
        let r = Instance::from_module(module, WasmVmConfig::reference(), HashMap::new());
        match r {
            Err(Trap::Host { message }) => {
                assert!(
                    message.starts_with("validation failed: "),
                    "{what}: {message}"
                )
            }
            Err(other) => panic!("{what}: {other:?}"),
            Ok(_) => panic!("{what}: an invalid module instantiated"),
        }
    }
}
