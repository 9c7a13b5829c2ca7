//! Randomized (deterministic, LCG-seeded) tests for the Wasm
//! interpreter: randomly generated i32 arithmetic, which also writes
//! its two locals (`local.set`, `local.tee`) while reads of them wait on
//! the operand stack, wrapped in random
//! value-preserving control (blocks left by `br`, `br_if` or `br_table`
//! over junk operands, a branch out of two blocks, `if`/`else`, a
//! top-level `br 0`), agrees with a Rust reference model with fusion on
//! and off, and accounting invariants hold on every run. The expected
//! value is a literal, not the other fusion setting's result: both read
//! the same resolved branch targets, so only a literal catches a wrong
//! label height. Each case prints its seed on failure.

use std::collections::HashMap;
use wb_env::rng::Lcg;
use wb_wasm::{BlockType, Instr, ModuleBuilder, ValType};
use wb_wasm_vm::{Instance, Value, WasmVmConfig};

/// A random stack program over two i32 params that is valid by
/// construction: ops are emitted only when enough operands are on the
/// simulated stack, and it ends by collapsing to one value.
#[derive(Debug, Clone)]
enum StackOp {
    PushConst(i32),
    PushP0,
    PushP1,
    Add,
    Sub,
    Mul,
    Xor,
    And,
    Or,
    Shl,
    ShrU,
    Rotl,
    Eqz,
    /// `local.set` of param 0 or 1.
    Set(u32),
    /// `local.tee` of param 0 or 1.
    Tee(u32),
}

fn gen_stack_op(rng: &mut Lcg) -> StackOp {
    match rng.index(17) {
        13 | 14 => StackOp::Set(rng.index(2) as u32),
        15 | 16 => StackOp::Tee(rng.index(2) as u32),
        0 => StackOp::PushConst(rng.next_i32()),
        1 => StackOp::PushP0,
        2 => StackOp::PushP1,
        3 => StackOp::Add,
        4 => StackOp::Sub,
        5 => StackOp::Mul,
        6 => StackOp::Xor,
        7 => StackOp::And,
        8 => StackOp::Or,
        9 => StackOp::Shl,
        10 => StackOp::ShrU,
        11 => StackOp::Rotl,
        _ => StackOp::Eqz,
    }
}

/// Build both the wasm body and the reference result simultaneously.
fn realize(ops: &[StackOp], p0: i32, p1: i32) -> (Vec<Instr>, i32) {
    let mut body = Vec::new();
    let mut stack: Vec<i32> = Vec::new();
    let mut locals = [p0, p1];
    for op in ops {
        match op {
            StackOp::PushConst(v) => {
                body.push(Instr::I32Const(*v));
                stack.push(*v);
            }
            StackOp::PushP0 => {
                body.push(Instr::LocalGet(0));
                stack.push(locals[0]);
            }
            StackOp::PushP1 => {
                body.push(Instr::LocalGet(1));
                stack.push(locals[1]);
            }
            StackOp::Set(x) | StackOp::Tee(x) => {
                let Some(&v) = stack.last() else {
                    continue;
                };
                locals[*x as usize] = v;
                if let StackOp::Set(_) = op {
                    body.push(Instr::LocalSet(*x));
                    stack.pop();
                } else {
                    body.push(Instr::LocalTee(*x));
                }
            }
            binop @ (StackOp::Add
            | StackOp::Sub
            | StackOp::Mul
            | StackOp::Xor
            | StackOp::And
            | StackOp::Or
            | StackOp::Shl
            | StackOp::ShrU
            | StackOp::Rotl) => {
                if stack.len() < 2 {
                    continue;
                }
                let b = stack.pop().expect("len checked");
                let a = stack.pop().expect("len checked");
                let (instr, v) = match binop {
                    StackOp::Add => (Instr::I32Add, a.wrapping_add(b)),
                    StackOp::Sub => (Instr::I32Sub, a.wrapping_sub(b)),
                    StackOp::Mul => (Instr::I32Mul, a.wrapping_mul(b)),
                    StackOp::Xor => (Instr::I32Xor, a ^ b),
                    StackOp::And => (Instr::I32And, a & b),
                    StackOp::Or => (Instr::I32Or, a | b),
                    StackOp::Shl => (Instr::I32Shl, a.wrapping_shl(b as u32)),
                    StackOp::ShrU => (Instr::I32ShrU, ((a as u32).wrapping_shr(b as u32)) as i32),
                    StackOp::Rotl => (Instr::I32Rotl, a.rotate_left(b as u32 & 31)),
                    _ => unreachable!(),
                };
                body.push(instr);
                stack.push(v);
            }
            StackOp::Eqz => {
                if stack.is_empty() {
                    continue;
                }
                let a = stack.pop().expect("non-empty");
                body.push(Instr::I32Eqz);
                stack.push((a == 0) as i32);
            }
        }
    }
    // Collapse everything to a single result with xors.
    while stack.len() > 1 {
        let b = stack.pop().expect("len > 1");
        let a = stack.pop().expect("len > 1");
        body.push(Instr::I32Xor);
        stack.push(a ^ b);
    }
    if stack.is_empty() {
        body.push(Instr::I32Const(7));
        stack.push(7);
    }
    (body, stack[0])
}

/// Wrap `body`, which leaves one i32 on the stack, in one random control
/// shape that leaves the same value. Junk operands sit below each label
/// and inside it, so a branch that keeps the wrong value or cuts the
/// stack at the wrong height changes the result.
fn wrap(rng: &mut Lcg, body: Vec<Instr>) -> Vec<Instr> {
    use Instr::*;
    let i32_block = || Block(BlockType::Value(ValType::I32));
    let (below, inside) = (rng.next_i32(), rng.next_i32());
    let mut out = vec![I32Const(below)];
    match rng.index(6) {
        // block (result i32), left by `br 0`.
        0 => {
            out.extend([i32_block(), I32Const(inside)]);
            out.extend(body);
            out.extend([Br(0), End]);
        }
        // ... by a taken `br_if 0` (a compare into a slot and one
        // branch micro-op); not taken, the block would yield the junk.
        1 => {
            let k = rng.next_i32();
            out.extend([i32_block(), I32Const(inside)]);
            out.extend(body);
            out.extend([
                I32Const(k),
                I32Const(k.wrapping_add(1)),
                I32Ne,
                BrIf(0),
                Drop,
                End,
            ]);
        }
        // ... by a `br_table` whose arms and default all name it.
        2 => {
            let arms = rng.index(3);
            out.extend([i32_block(), I32Const(inside)]);
            out.extend(body);
            out.extend([
                I32Const(rng.index(5) as i32),
                BrTable(vec![0; arms], 0),
                End,
            ]);
        }
        // A branch out of two nested blocks, past the inner one's end.
        3 => {
            out.extend([i32_block(), I32Const(inside), Block(BlockType::Empty)]);
            out.push(I32Const(rng.next_i32()));
            out.extend(body);
            out.extend([Br(1), End, Drop, I32Const(rng.next_i32()), End]);
        }
        // if/else with a result, the value in either arm.
        _ => {
            let junk = I32Const(inside);
            if rng.index(2) == 0 {
                out.extend([
                    I32Const(1 + rng.index(9) as i32),
                    If(BlockType::Value(ValType::I32)),
                ]);
                out.extend(body);
                out.extend([Else, junk, End]);
            } else {
                out.extend([I32Const(0), If(BlockType::Value(ValType::I32)), junk, Else]);
                out.extend(body);
                out.push(End);
            }
        }
    }
    // Take the junk below back out: below ^ (below ^ value).
    out.extend([I32Xor, I32Const(below), I32Xor]);
    out
}

#[test]
fn random_arithmetic_matches_reference() {
    for seed in 0..256 {
        let mut rng = Lcg::new(seed);
        let nops = 1 + rng.index(39);
        let ops: Vec<StackOp> = (0..nops).map(|_| gen_stack_op(&mut rng)).collect();
        let p0 = rng.next_i32();
        let p1 = rng.next_i32();
        let (mut body, expected) = realize(&ops, p0, p1);
        for _ in 0..rng.index(4) {
            body = wrap(&mut rng, body);
        }
        if rng.index(2) == 0 {
            // A top-level `br 0` returns through the function's label.
            body.extend([Instr::I32Const(rng.next_i32()), Instr::Drop, Instr::Br(0)]);
        }
        body.push(Instr::End);
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("f", vec![ValType::I32, ValType::I32], vec![ValType::I32]);
        f.ops(body);
        mb.finish_func(f, true);
        let module = mb.build();
        wb_wasm::validate(&module).expect("constructed module validates");
        // Round-trip through the binary codec before running.
        let bytes = wb_wasm::encode_module(&module);
        for reference_exec in [false, true] {
            let config = WasmVmConfig {
                reference_exec,
                ..WasmVmConfig::reference()
            };
            let mut inst =
                Instance::instantiate(&bytes, config, HashMap::new()).expect("instantiates");
            let r = inst
                .invoke("f", &[Value::I32(p0), Value::I32(p1)])
                .expect("runs");
            let case = format!("seed {seed}, reference_exec={reference_exec}");
            assert_eq!(r, Some(Value::I32(expected)), "{case}");

            // Accounting invariants.
            let report = inst.report();
            assert!(report.total.0 > 0.0, "{case}");
            assert!(report.counts.total() > 0, "{case}");
            assert_eq!(report.context_switches, 2, "{case}"); // one invoke
        }
    }
}

#[test]
fn report_is_monotonic_across_invocations() {
    for seed in 0..32 {
        let mut rng = Lcg::new(500 + seed);
        let n = 1 + rng.index(7);
        let p = rng.next_i32();
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("id", vec![ValType::I32], vec![ValType::I32]);
        f.ops([Instr::LocalGet(0)]).done();
        mb.finish_func(f, true);
        let mut inst = Instance::from_module(mb.build(), WasmVmConfig::reference(), HashMap::new())
            .expect("instantiates");
        let mut last = 0.0;
        for _ in 0..n {
            inst.invoke("id", &[Value::I32(p)]).expect("runs");
            let t = inst.report().total.0;
            assert!(t > last, "seed {seed}");
            last = t;
        }
    }
}

#[test]
fn step_budget_always_terminates() {
    for seed in 0..32 {
        let mut rng = Lcg::new(900 + seed);
        let budget = 100 + rng.below(49_900);
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("spin", vec![], vec![]);
        f.ops([
            Instr::Loop(wb_wasm::BlockType::Empty),
            Instr::Br(0),
            Instr::End,
        ])
        .done();
        mb.finish_func(f, true);
        let mut cfg = WasmVmConfig::reference();
        cfg.limits.fuel = Some(budget);
        let mut inst =
            Instance::from_module(mb.build(), cfg, HashMap::new()).expect("instantiates");
        let r = inst.invoke("spin", &[]);
        assert_eq!(r, Err(wb_wasm_vm::Trap::StepBudgetExhausted), "seed {seed}");
    }
}
