//! Integration tests of the WAT printer and linear-memory semantics on
//! realistic (compiler-shaped) modules.

use wb_wasm::{
    print_wat, BlockType, Instr, Limits, LinearMemory, MemArg, ModuleBuilder, ValType, PAGE_SIZE,
};

fn fig4_style_module() -> wb_wasm::Module {
    // A fib module like the paper's Fig 4(c) disassembly.
    let mut mb = ModuleBuilder::new();
    mb.memory(1, None);
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
fn wat_rendering_shows_fig4_features() {
    let m = fig4_style_module();
    let wat = print_wat(&m);
    // The structural features the paper's Fig 4(c) shows.
    for needle in [
        "(module",
        "(type $t0 (func (param i32) (result i32)))",
        "(func $fib",
        "local.get 0",
        "i32.lt_s",
        "call 0",
        "(memory 1)",
        "(export \"fib\" (func 0))",
    ] {
        assert!(wat.contains(needle), "missing {needle} in:\n{wat}");
    }
}

#[test]
fn wat_rendering_round_trips_through_codec() {
    let m = fig4_style_module();
    let decoded = wb_wasm::decode_module(&wb_wasm::encode_module(&m)).expect("round trip");
    assert_eq!(print_wat(&m), print_wat(&decoded));
}

#[test]
fn memory_never_shrinks_and_tracks_growth() {
    // The §2.2.2 semantics underpinning the paper's memory findings.
    let mut mem = LinearMemory::new(Limits::at_least(1));
    let mut sizes = vec![mem.size_bytes()];
    for delta in [1, 4, 2, 8] {
        assert!(mem.grow(delta) >= 0);
        sizes.push(mem.size_bytes());
    }
    for w in sizes.windows(2) {
        assert!(w[1] > w[0], "monotonic growth: {sizes:?}");
    }
    assert_eq!(mem.size_pages(), 16);
    assert_eq!(mem.grow_count, 4);
    assert_eq!(mem.grown_pages, 15);
}

#[test]
fn data_past_initial_memory_is_reachable_after_growth() {
    let mut mem = LinearMemory::new(Limits::at_least(1));
    let last = (PAGE_SIZE - 8) as u64;
    mem.store(last, 0xfeed_face_dead_beef_u64.to_le_bytes())
        .expect("in page one");
    assert!(mem.store(last + PAGE_SIZE as u64, [1; 8]).is_err());
    mem.grow(1);
    mem.store(last + PAGE_SIZE as u64, 0xabad_cafe_u64.to_le_bytes())
        .expect("reachable after grow");
    assert_eq!(
        mem.load(last)
            .map(u64::from_le_bytes)
            .expect("still intact"),
        0xfeed_face_dead_beef
    );
}

#[test]
fn offset_addressing_matches_effective_address_rules() {
    // A store with a memarg offset at the very end of memory must trap,
    // even when the dynamic address alone is in bounds.
    let mut mb = ModuleBuilder::new();
    mb.memory(1, None);
    let mut f = mb.func("poke", vec![ValType::I32], vec![]);
    f.ops([
        Instr::LocalGet(0),
        Instr::I32Const(7),
        Instr::I32Store(MemArg::natural(4).with_offset((PAGE_SIZE - 2) as u32)),
    ])
    .done();
    mb.finish_func(f, true);
    let m = mb.build();
    wb_wasm::validate(&m).expect("validates");
    let mut inst = wb_wasm_vm::Instance::from_module(
        m,
        wb_wasm_vm::WasmVmConfig::reference(),
        Default::default(),
    )
    .expect("instantiates");
    assert!(matches!(
        inst.invoke("poke", &[wb_wasm_vm::Value::I32(0)]),
        Err(wb_wasm_vm::Trap::MemoryOutOfBounds { .. })
    ));
    inst.invoke("poke", &[wb_wasm_vm::Value::I32(-(PAGE_SIZE as i32))])
        .expect_err("negative wraps to huge unsigned address and traps");
}
