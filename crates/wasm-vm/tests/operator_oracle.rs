//! Operator oracle: every lifted numeric operator and every load and
//! store kind, run on its own through [`Instance::invoke`] against
//! results written out as literals.
//!
//! The differential tests compare fusion on against fusion off, and both
//! settings run one dispatch arm per operator, expanded from the one
//! operator list (`fuse.rs` `operators!`), so a wrong operator is wrong
//! on both sides and no differential can see it: this literal table is
//! the only independent check of each operator's semantics. It pins each
//! operator to its Wasm MVP result on edge operands: division by zero and
//! `MIN / -1`, shift and rotate counts at and past the bit width, bit
//! counts of zero, NaN and signed zeros, `nearest` ties, the truncation
//! bounds at 2^31, 2^32, 2^63 and 2^64, and sign versus zero extension.
//! Every access kind is also run at its last in-bounds address, one byte
//! past it and with an offset that carries the effective address past
//! 2^32, and a store that traps must leave memory as it was.
//!
//! Every case runs with `reference_exec` off and on. A binary operator
//! runs as `local.get; local.get; op` and as `local.get; const; op`, a
//! load as `local.get; load` and a store as `local.get; local.get;
//! store`: with fusion on each is one micro-op that reads its locals and
//! constant in place, with it off one micro-op per instruction, the
//! operands copied into their own slots. Coverage is checked by
//! opcode: the table must hold every numeric MVP opcode (0x45–0xBF) and
//! every load and store opcode (0x28–0x3E), which the `fuse` unit tests
//! show are exactly the entries of `BinOp::ALL`, `UnOp::ALL`,
//! `LoadKind::ALL` and `StoreKind::ALL`.

use std::collections::HashMap;
use std::mem::discriminant;
use wb_wasm::leb128::write_u32;
use wb_wasm::{Data, Instr, MemArg, Module, ModuleBuilder, ValType};
use wb_wasm_vm::{Instance, Trap, Value, WasmVmConfig};

const TYPES: [ValType; 4] = [ValType::I32, ValType::I64, ValType::F32, ValType::F64];

fn i32v(x: i32) -> Value {
    Value::I32(x)
}
fn i64v(x: i64) -> Value {
    Value::I64(x)
}
fn f32v(x: f32) -> Value {
    Value::F32(x)
}
fn f64v(x: f64) -> Value {
    Value::F64(x)
}
fn h32(bits: u32) -> Value {
    Value::I32(bits as i32)
}
fn h64(bits: u64) -> Value {
    Value::I64(bits as i64)
}

const NAN32: f32 = f32::NAN;
const NAN64: f64 = f64::NAN;
const INF32: f32 = f32::INFINITY;
const INF64: f64 = f64::INFINITY;
const MIN32: i32 = i32::MIN;
const MAX32: i32 = i32::MAX;
const MIN64: i64 = i64::MIN;
const MAX64: i64 = i64::MAX;

type Want = Result<Value, Trap>;

struct Case {
    op: Instr,
    args: Vec<Value>,
    want: Want,
}

fn ok(v: Value) -> Want {
    Ok(v)
}

fn bin(op: Instr, rows: &[(Value, Value, Want)], out: &mut Vec<Case>) {
    for (a, b, want) in rows {
        out.push(Case {
            op: op.clone(),
            args: vec![*a, *b],
            want: want.clone(),
        });
    }
}

fn un(op: Instr, rows: &[(Value, Want)], out: &mut Vec<Case>) {
    for (a, want) in rows {
        out.push(Case {
            op: op.clone(),
            args: vec![*a],
            want: want.clone(),
        });
    }
}

#[rustfmt::skip]
fn int_binop_cases(out: &mut Vec<Case>) {
    use Instr::*;
    let (div0, ovf) = (Err(Trap::DivByZero), Err(Trap::IntegerOverflow));
    let (t, f) = (ok(i32v(1)), ok(i32v(0)));
    let i = i32v;
    bin(I32Add, &[(i(MAX32), i(1), ok(i(MIN32))), (i(-1), i(-1), ok(i(-2)))], out);
    bin(I32Sub, &[(i(MIN32), i(1), ok(i(MAX32))), (i(0), i(1), ok(i(-1)))], out);
    bin(I32Mul, &[(i(0x10000), i(0x10000), ok(i(0))), (i(-3), i(7), ok(i(-21))), (i(MIN32), i(-1), ok(i(MIN32)))], out);
    bin(I32DivS, &[(i(7), i(-2), ok(i(-3))), (i(-7), i(2), ok(i(-3))), (i(MIN32), i(2), ok(i(-1073741824))), (i(1), i(0), div0.clone()), (i(MIN32), i(-1), ovf.clone())], out);
    bin(I32DivU, &[(i(-1), i(2), ok(i(MAX32))), (i(MIN32), i(-1), ok(i(0))), (i(7), i(0), div0.clone())], out);
    bin(I32RemS, &[(i(-7), i(2), ok(i(-1))), (i(7), i(-2), ok(i(1))), (i(MIN32), i(-1), ok(i(0))), (i(1), i(0), div0.clone())], out);
    bin(I32RemU, &[(i(-1), i(10), ok(i(5))), (i(MIN32), i(3), ok(i(2))), (i(1), i(0), div0.clone())], out);
    bin(I32And, &[(i(0xf0f0), i(0xff00), ok(i(0xf000)))], out);
    bin(I32Or, &[(i(0xf0f0), i(0xff00), ok(i(0xfff0)))], out);
    bin(I32Xor, &[(i(0xf0f0), i(0xff00), ok(i(0x0ff0)))], out);
    bin(I32Shl, &[(i(1), i(31), ok(i(MIN32))), (i(1), i(32), ok(i(1))), (i(3), i(33), ok(i(6))), (i(1), i(-1), ok(i(MIN32)))], out);
    bin(I32ShrS, &[(i(MIN32), i(31), ok(i(-1))), (i(MIN32), i(32), ok(i(MIN32))), (i(-8), i(1), ok(i(-4))), (i(-8), i(33), ok(i(-4)))], out);
    bin(I32ShrU, &[(i(MIN32), i(31), ok(i(1))), (i(MIN32), i(32), ok(i(MIN32))), (i(-1), i(36), ok(i(0x0fff_ffff)))], out);
    bin(I32Rotl, &[(h32(0x8000_0001), i(1), ok(i(3))), (i(0x1234_5678), i(36), ok(i(0x2345_6781))), (i(0x1234_5678), i(0), ok(i(0x1234_5678)))], out);
    bin(I32Rotr, &[(i(1), i(1), ok(i(MIN32))), (i(0x1234_5678), i(36), ok(h32(0x8123_4567))), (i(1), i(32), ok(i(1)))], out);
    bin(I32Eq, &[(i(1), i(1), t.clone()), (i(1), i(2), f.clone())], out);
    bin(I32Ne, &[(i(1), i(1), f.clone()), (i(MIN32), i(MAX32), t.clone())], out);
    bin(I32LtS, &[(i(-1), i(0), t.clone()), (i(0), i(-1), f.clone())], out);
    bin(I32LtU, &[(i(-1), i(0), f.clone()), (i(0), i(-1), t.clone())], out);
    bin(I32GtS, &[(i(-1), i(0), f.clone()), (i(MAX32), i(MIN32), t.clone())], out);
    bin(I32GtU, &[(i(-1), i(0), t.clone()), (i(MAX32), i(MIN32), f.clone())], out);
    bin(I32LeS, &[(i(MIN32), i(MIN32), t.clone()), (i(0), i(-1), f.clone())], out);
    bin(I32LeU, &[(i(0), i(-1), t.clone()), (i(-1), i(0), f.clone())], out);
    bin(I32GeS, &[(i(MIN32), i(MAX32), f.clone()), (i(3), i(3), t.clone())], out);
    bin(I32GeU, &[(i(MIN32), i(MAX32), t.clone()), (i(0), i(1), f.clone())], out);

    let l = i64v;
    bin(I64Add, &[(l(MAX64), l(1), ok(l(MIN64))), (l(0xffff_ffff), l(1), ok(l(0x1_0000_0000)))], out);
    bin(I64Sub, &[(l(MIN64), l(1), ok(l(MAX64))), (l(0), l(1), ok(l(-1)))], out);
    bin(I64Mul, &[(l(1 << 32), l(1 << 32), ok(l(0))), (l(0xffff_ffff), l(0xffff_ffff), ok(h64(0xffff_fffe_0000_0001))), (l(-3), l(7), ok(l(-21)))], out);
    bin(I64DivS, &[(l(7), l(-2), ok(l(-3))), (l(MIN64), l(2), ok(l(-4611686018427387904))), (l(1), l(0), div0.clone()), (l(MIN64), l(-1), ovf.clone())], out);
    bin(I64DivU, &[(l(-1), l(2), ok(l(MAX64))), (l(MIN64), l(-1), ok(l(0))), (l(1), l(0), div0.clone())], out);
    bin(I64RemS, &[(l(-7), l(2), ok(l(-1))), (l(MIN64), l(-1), ok(l(0))), (l(1), l(0), div0.clone())], out);
    bin(I64RemU, &[(l(-1), l(10), ok(l(5))), (l(1), l(0), div0.clone())], out);
    bin(I64And, &[(l(0xff00_0000_f0f0), l(0xf000_0000_ff00), ok(l(0xf000_0000_f000)))], out);
    bin(I64Or, &[(l(0xff00_0000_f0f0), l(0xf000_0000_ff00), ok(l(0xff00_0000_fff0)))], out);
    bin(I64Xor, &[(l(0xff00_0000_f0f0), l(0xf000_0000_ff00), ok(l(0x0f00_0000_0ff0)))], out);
    bin(I64Shl, &[(l(1), l(63), ok(l(MIN64))), (l(1), l(64), ok(l(1))), (l(3), l(65), ok(l(6))), (l(1), l(32), ok(l(1 << 32)))], out);
    bin(I64ShrS, &[(l(MIN64), l(63), ok(l(-1))), (l(MIN64), l(64), ok(l(MIN64))), (l(-8), l(1), ok(l(-4)))], out);
    bin(I64ShrU, &[(l(MIN64), l(63), ok(l(1))), (l(MIN64), l(64), ok(l(MIN64))), (l(-1), l(68), ok(l(0x0fff_ffff_ffff_ffff)))], out);
    bin(I64Rotl, &[(h64(0x8000_0000_0000_0001), l(1), ok(l(3))), (l(0x0123_4567_89ab_cdef), l(68), ok(l(0x1234_5678_9abc_def0)))], out);
    bin(I64Rotr, &[(l(1), l(1), ok(l(MIN64))), (l(0x0123_4567_89ab_cdef), l(68), ok(h64(0xf012_3456_789a_bcde))), (l(1), l(64), ok(l(1)))], out);
    bin(I64Eq, &[(l(1 << 32), l(0), f.clone()), (l(5), l(5), t.clone())], out);
    bin(I64Ne, &[(l(1 << 32), l(0), t.clone()), (l(5), l(5), f.clone())], out);
    bin(I64LtS, &[(l(-1), l(0), t.clone()), (l(0), l(-1), f.clone())], out);
    bin(I64LtU, &[(l(-1), l(0), f.clone()), (l(0), l(-1), t.clone())], out);
    bin(I64GtS, &[(l(MAX64), l(MIN64), t.clone()), (l(-1), l(0), f.clone())], out);
    bin(I64GtU, &[(l(MAX64), l(MIN64), f.clone()), (l(-1), l(0), t.clone())], out);
    bin(I64LeS, &[(l(MIN64), l(MIN64), t.clone()), (l(0), l(-1), f.clone())], out);
    bin(I64LeU, &[(l(0), l(-1), t.clone()), (l(-1), l(0), f.clone())], out);
    bin(I64GeS, &[(l(MIN64), l(MAX64), f.clone()), (l(3), l(3), t.clone())], out);
    bin(I64GeU, &[(l(MIN64), l(MAX64), t.clone()), (l(0), l(1), f)], out);
}

#[rustfmt::skip]
fn float_binop_cases(out: &mut Vec<Case>) {
    use Instr::*;
    let (t, f) = (ok(i32v(1)), ok(i32v(0)));
    let s = f32v;
    let neg_nan32 = f32::from_bits(0xffc0_0000);
    bin(F32Add, &[(s(1.5), s(2.25), ok(s(3.75))), (s(-0.0), s(-0.0), ok(s(-0.0))), (s(0.0), s(-0.0), ok(s(0.0))), (s(INF32), s(-INF32), ok(s(NAN32)))], out);
    bin(F32Sub, &[(s(1.0), s(3.0), ok(s(-2.0))), (s(0.0), s(0.0), ok(s(0.0))), (s(-0.0), s(0.0), ok(s(-0.0)))], out);
    bin(F32Mul, &[(s(-2.0), s(0.0), ok(s(-0.0))), (s(INF32), s(0.0), ok(s(NAN32))), (s(1.5), s(-4.0), ok(s(-6.0)))], out);
    bin(F32Div, &[(s(7.0), s(2.0), ok(s(3.5))), (s(1.0), s(0.0), ok(s(INF32))), (s(-1.0), s(0.0), ok(s(-INF32))), (s(1.0), s(-0.0), ok(s(-INF32))), (s(0.0), s(0.0), ok(s(NAN32)))], out);
    bin(F32Min, &[(s(-0.0), s(0.0), ok(s(-0.0))), (s(0.0), s(-0.0), ok(s(-0.0))), (s(NAN32), s(1.0), ok(s(NAN32))), (s(1.0), s(NAN32), ok(s(NAN32))), (s(1.0), s(2.0), ok(s(1.0))), (s(-INF32), s(3.0), ok(s(-INF32)))], out);
    bin(F32Max, &[(s(-0.0), s(0.0), ok(s(0.0))), (s(0.0), s(-0.0), ok(s(0.0))), (s(NAN32), s(1.0), ok(s(NAN32))), (s(1.0), s(NAN32), ok(s(NAN32))), (s(1.0), s(2.0), ok(s(2.0)))], out);
    bin(F32Copysign, &[(s(1.5), s(-0.0), ok(s(-1.5))), (s(-1.5), s(0.0), ok(s(1.5))), (s(-2.0), s(-1.0), ok(s(-2.0))), (s(1.0), s(neg_nan32), ok(s(-1.0))), (s(INF32), s(-1.0), ok(s(-INF32)))], out);
    bin(F32Eq, &[(s(NAN32), s(NAN32), f.clone()), (s(0.0), s(-0.0), t.clone())], out);
    bin(F32Ne, &[(s(NAN32), s(NAN32), t.clone()), (s(0.0), s(-0.0), f.clone())], out);
    bin(F32Lt, &[(s(1.0), s(2.0), t.clone()), (s(NAN32), s(1.0), f.clone()), (s(-0.0), s(0.0), f.clone())], out);
    bin(F32Gt, &[(s(2.0), s(1.0), t.clone()), (s(1.0), s(NAN32), f.clone())], out);
    bin(F32Le, &[(s(-0.0), s(0.0), t.clone()), (s(NAN32), s(NAN32), f.clone())], out);
    bin(F32Ge, &[(s(NAN32), s(0.0), f.clone()), (s(INF32), s(INF32), t.clone())], out);

    let d = f64v;
    let neg_nan64 = f64::from_bits(0xfff8_0000_0000_0000);
    bin(F64Add, &[(d(1.5), d(2.25), ok(d(3.75))), (d(-0.0), d(-0.0), ok(d(-0.0))), (d(0.0), d(-0.0), ok(d(0.0))), (d(INF64), d(-INF64), ok(d(NAN64)))], out);
    bin(F64Sub, &[(d(1.0), d(3.0), ok(d(-2.0))), (d(0.0), d(0.0), ok(d(0.0))), (d(-0.0), d(0.0), ok(d(-0.0)))], out);
    bin(F64Mul, &[(d(-2.0), d(0.0), ok(d(-0.0))), (d(INF64), d(0.0), ok(d(NAN64))), (d(1.5), d(-4.0), ok(d(-6.0)))], out);
    bin(F64Div, &[(d(7.0), d(2.0), ok(d(3.5))), (d(1.0), d(0.0), ok(d(INF64))), (d(-1.0), d(0.0), ok(d(-INF64))), (d(1.0), d(-0.0), ok(d(-INF64))), (d(0.0), d(0.0), ok(d(NAN64)))], out);
    bin(F64Min, &[(d(-0.0), d(0.0), ok(d(-0.0))), (d(0.0), d(-0.0), ok(d(-0.0))), (d(NAN64), d(1.0), ok(d(NAN64))), (d(1.0), d(NAN64), ok(d(NAN64))), (d(1.0), d(2.0), ok(d(1.0))), (d(-INF64), d(3.0), ok(d(-INF64)))], out);
    bin(F64Max, &[(d(-0.0), d(0.0), ok(d(0.0))), (d(0.0), d(-0.0), ok(d(0.0))), (d(NAN64), d(1.0), ok(d(NAN64))), (d(1.0), d(NAN64), ok(d(NAN64))), (d(1.0), d(2.0), ok(d(2.0)))], out);
    bin(F64Copysign, &[(d(1.0), d(-0.0), ok(d(-1.0))), (d(-1.5), d(0.0), ok(d(1.5))), (d(-2.0), d(-1.0), ok(d(-2.0))), (d(1.0), d(neg_nan64), ok(d(-1.0))), (d(INF64), d(-1.0), ok(d(-INF64)))], out);
    bin(F64Eq, &[(d(NAN64), d(NAN64), f.clone()), (d(0.0), d(-0.0), t.clone())], out);
    bin(F64Ne, &[(d(NAN64), d(NAN64), t.clone()), (d(0.0), d(-0.0), f.clone())], out);
    bin(F64Lt, &[(d(1.0), d(2.0), t.clone()), (d(NAN64), d(1.0), f.clone()), (d(-0.0), d(0.0), f.clone())], out);
    bin(F64Gt, &[(d(2.0), d(1.0), t.clone()), (d(1.0), d(NAN64), f.clone())], out);
    bin(F64Le, &[(d(-0.0), d(0.0), t.clone()), (d(NAN64), d(NAN64), f.clone())], out);
    bin(F64Ge, &[(d(NAN64), d(0.0), f), (d(INF64), d(INF64), t)], out);
}

#[rustfmt::skip]
fn unop_cases(out: &mut Vec<Case>) {
    use Instr::*;
    let bad = Err(Trap::InvalidConversion);
    let (i, l, s, d) = (i32v, i64v, f32v, f64v);
    un(I32Eqz, &[(i(0), ok(i(1))), (i(5), ok(i(0))), (i(MIN32), ok(i(0)))], out);
    un(I32Clz, &[(i(0), ok(i(32))), (i(1), ok(i(31))), (i(-1), ok(i(0)))], out);
    un(I32Ctz, &[(i(0), ok(i(32))), (i(MIN32), ok(i(31))), (i(8), ok(i(3)))], out);
    un(I32Popcnt, &[(i(0), ok(i(0))), (i(-1), ok(i(32))), (i(0x0f0f), ok(i(8)))], out);
    un(I64Eqz, &[(l(0), ok(i(1))), (l(1 << 32), ok(i(0)))], out);
    un(I64Clz, &[(l(0), ok(l(64))), (l(1), ok(l(63))), (l(1 << 32), ok(l(31)))], out);
    un(I64Ctz, &[(l(0), ok(l(64))), (l(1 << 32), ok(l(32)))], out);
    un(I64Popcnt, &[(l(-1), ok(l(64))), (l(0x1_0000_0001), ok(l(2)))], out);

    un(F32Abs, &[(s(-0.0), ok(s(0.0))), (s(-INF32), ok(s(INF32))), (s(-1.5), ok(s(1.5)))], out);
    un(F32Neg, &[(s(0.0), ok(s(-0.0))), (s(-INF32), ok(s(INF32))), (s(1.5), ok(s(-1.5)))], out);
    un(F32Ceil, &[(s(-0.5), ok(s(-0.0))), (s(1.5), ok(s(2.0))), (s(-1.5), ok(s(-1.0))), (s(INF32), ok(s(INF32)))], out);
    un(F32Floor, &[(s(-0.5), ok(s(-1.0))), (s(0.5), ok(s(0.0))), (s(-0.0), ok(s(-0.0)))], out);
    un(F32Trunc, &[(s(-1.75), ok(s(-1.0))), (s(1.75), ok(s(1.0))), (s(-0.5), ok(s(-0.0)))], out);
    un(F32Nearest, &[(s(0.5), ok(s(0.0))), (s(1.5), ok(s(2.0))), (s(2.5), ok(s(2.0))), (s(-0.5), ok(s(-0.0))), (s(-1.5), ok(s(-2.0))), (s(-2.5), ok(s(-2.0)))], out);
    un(F32Sqrt, &[(s(4.0), ok(s(2.0))), (s(-1.0), ok(s(NAN32))), (s(-0.0), ok(s(-0.0))), (s(INF32), ok(s(INF32)))], out);
    un(F64Abs, &[(d(-0.0), ok(d(0.0))), (d(-INF64), ok(d(INF64))), (d(-1.5), ok(d(1.5)))], out);
    un(F64Neg, &[(d(0.0), ok(d(-0.0))), (d(-INF64), ok(d(INF64))), (d(1.5), ok(d(-1.5)))], out);
    un(F64Ceil, &[(d(-0.5), ok(d(-0.0))), (d(1.5), ok(d(2.0))), (d(-1.5), ok(d(-1.0))), (d(INF64), ok(d(INF64)))], out);
    un(F64Floor, &[(d(-0.5), ok(d(-1.0))), (d(0.5), ok(d(0.0))), (d(-0.0), ok(d(-0.0)))], out);
    un(F64Trunc, &[(d(-1.75), ok(d(-1.0))), (d(1.75), ok(d(1.0))), (d(-0.5), ok(d(-0.0)))], out);
    un(F64Nearest, &[(d(0.5), ok(d(0.0))), (d(1.5), ok(d(2.0))), (d(2.5), ok(d(2.0))), (d(-0.5), ok(d(-0.0))), (d(-1.5), ok(d(-2.0))), (d(-2.5), ok(d(-2.0)))], out);
    un(F64Sqrt, &[(d(4.0), ok(d(2.0))), (d(-1.0), ok(d(NAN64))), (d(-0.0), ok(d(-0.0))), (d(INF64), ok(d(INF64)))], out);

    un(I32WrapI64, &[(l(0x1_2345_6789), ok(i(0x2345_6789))), (l(-1), ok(i(-1))), (l(0x1_8000_0000), ok(i(MIN32)))], out);
    un(I32TruncF32S, &[(s(-1.75), ok(i(-1))), (s(2147483648.0), bad.clone()), (s(-2147483648.0), ok(i(MIN32))), (s(2147483520.0), ok(i(2147483520))), (s(-2147483904.0), bad.clone()), (s(NAN32), bad.clone())], out);
    un(I32TruncF32U, &[(s(-0.75), ok(i(0))), (s(-1.0), bad.clone()), (s(4294967296.0), bad.clone()), (s(4294967040.0), ok(h32(0xffff_ff00))), (s(NAN32), bad.clone())], out);
    un(I32TruncF64S, &[(d(2147483647.9), ok(i(MAX32))), (d(2147483648.0), bad.clone()), (d(-2147483648.9), ok(i(MIN32))), (d(-2147483649.0), bad.clone()), (d(INF64), bad.clone())], out);
    un(I32TruncF64U, &[(d(4294967295.9), ok(h32(0xffff_ffff))), (d(4294967296.0), bad.clone()), (d(-0.9), ok(i(0))), (d(-1.0), bad.clone())], out);
    un(I64ExtendI32S, &[(i(-1), ok(l(-1))), (i(MAX32), ok(l(2147483647)))], out);
    un(I64ExtendI32U, &[(i(-1), ok(l(0xffff_ffff))), (i(MIN32), ok(l(0x8000_0000)))], out);
    un(I64TruncF32S, &[(s(-9223372036854775808.0), ok(l(MIN64))), (s(9223372036854775808.0), bad.clone()), (s(INF32), bad.clone()), (s(-1.5), ok(l(-1)))], out);
    un(I64TruncF32U, &[(s(9223372036854775808.0), ok(h64(0x8000_0000_0000_0000))), (s(18446744073709551616.0), bad.clone()), (s(-0.5), ok(l(0))), (s(NAN32), bad.clone())], out);
    un(I64TruncF64S, &[(d(9223372036854774784.0), ok(l(9223372036854774784))), (d(9223372036854775808.0), bad.clone()), (d(-9223372036854775808.0), ok(l(MIN64))), (d(NAN64), bad.clone())], out);
    un(I64TruncF64U, &[(d(18446744073709549568.0), ok(h64(18446744073709549568))), (d(18446744073709551616.0), bad.clone()), (d(-1.0), bad), (d(-0.99), ok(l(0)))], out);
    un(F32ConvertI32S, &[(i(-1), ok(s(-1.0))), (i(16777217), ok(s(16777216.0))), (i(16777219), ok(s(16777220.0)))], out);
    un(F32ConvertI32U, &[(i(-1), ok(s(4294967296.0))), (i(MIN32), ok(s(2147483648.0)))], out);
    un(F32ConvertI64S, &[(l(MIN64), ok(s(-9223372036854775808.0))), (l(-1), ok(s(-1.0)))], out);
    un(F32ConvertI64U, &[(l(-1), ok(s(18446744073709551616.0)))], out);
    un(F32DemoteF64, &[(d(1e300), ok(s(INF32))), (d(1.5), ok(s(1.5))), (d(-0.0), ok(s(-0.0))), (d(NAN64), ok(s(NAN32)))], out);
    un(F64ConvertI32S, &[(i(MIN32), ok(d(-2147483648.0)))], out);
    un(F64ConvertI32U, &[(i(-1), ok(d(4294967295.0)))], out);
    un(F64ConvertI64S, &[(l(-1), ok(d(-1.0))), (l(MAX64), ok(d(9223372036854775808.0)))], out);
    un(F64ConvertI64U, &[(l(-1), ok(d(18446744073709551616.0))), (l(MIN64), ok(d(9223372036854775808.0)))], out);
    un(F64PromoteF32, &[(s(1.5), ok(d(1.5))), (s(-INF32), ok(d(-INF64)))], out);
    un(I32ReinterpretF32, &[(s(-0.0), ok(i(MIN32))), (s(1.0), ok(i(0x3f80_0000)))], out);
    un(I64ReinterpretF64, &[(d(-0.0), ok(l(MIN64))), (d(1.0), ok(l(0x3ff0_0000_0000_0000)))], out);
    un(F32ReinterpretI32, &[(i(0x7f80_0000), ok(s(INF32))), (i(MIN32), ok(s(-0.0)))], out);
    un(F64ReinterpretI64, &[(l(0x3ff0_0000_0000_0000), ok(d(1.0))), (l(MIN64), ok(d(-0.0)))], out);
}

fn numeric_cases() -> Vec<Case> {
    let mut out = Vec::new();
    int_binop_cases(&mut out);
    float_binop_cases(&mut out);
    unop_cases(&mut out);
    out
}

fn mem(offset: u32) -> MemArg {
    MemArg { align: 0, offset }
}

/// Linear memory's first 16 bytes: high bits set, then clear, so sign and
/// zero extension differ on the first half.
const DATA: [u8; 16] = [
    0x80, 0x81, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, //
    0x7f, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
];

fn oob(addr: u64, width: u32) -> Trap {
    Trap::MemoryOutOfBounds { addr, width }
}

/// `(load, address, result)` over [`DATA`] in a one-page memory.
#[rustfmt::skip]
fn load_cases() -> Vec<(Instr, i32, Want)> {
    use Instr::*;
    vec![
        (I32Load(mem(0)), 0, ok(h32(0x8382_8180))),
        (I32Load(mem(4)), 4, ok(i32v(0x0302_017f))),
        (I64Load(mem(0)), 0, ok(h64(0x8786_8584_8382_8180))),
        (I64Load(mem(8)), 0, ok(i64v(0x0706_0504_0302_017f))),
        (F32Load(mem(0)), 8, ok(f32v(f32::from_bits(0x0302_017f)))),
        (F32Load(mem(0)), 0, ok(f32v(f32::from_bits(0x8382_8180)))),
        (F64Load(mem(0)), 8, ok(f64v(f64::from_bits(0x0706_0504_0302_017f)))),
        (F64Load(mem(0)), 0, ok(f64v(f64::from_bits(0x8786_8584_8382_8180)))),
        (I32Load8S(mem(0)), 0, ok(i32v(-128))),
        (I32Load8S(mem(0)), 8, ok(i32v(127))),
        (I32Load8U(mem(0)), 0, ok(i32v(128))),
        (I32Load16S(mem(0)), 0, ok(i32v(-32384))),
        (I32Load16S(mem(0)), 8, ok(i32v(383))),
        (I32Load16U(mem(0)), 0, ok(i32v(33152))),
        (I64Load8S(mem(0)), 0, ok(i64v(-128))),
        (I64Load8U(mem(0)), 0, ok(i64v(128))),
        (I64Load16S(mem(0)), 0, ok(i64v(-32384))),
        (I64Load16U(mem(0)), 0, ok(i64v(33152))),
        (I64Load32S(mem(0)), 0, ok(h64(0xffff_ffff_8382_8180))),
        (I64Load32S(mem(0)), 8, ok(i64v(0x0302_017f))),
        (I64Load32U(mem(0)), 0, ok(i64v(0x8382_8180))),
        // Bounds: the last byte is readable, a read past it traps with the
        // effective address and the access width, and the address plus the
        // offset does not wrap at 32 bits.
        (I32Load8U(mem(0)), 65535, ok(i32v(0))),
        (I32Load16U(mem(0)), 65535, Err(oob(65535, 2))),
        (I32Load(mem(0)), 65533, Err(oob(65533, 4))),
        (I64Load(mem(0)), 65529, Err(oob(65529, 8))),
        (F64Load(mem(0)), 65536, Err(oob(65536, 8))),
        (I64Load32U(mem(1)), -1, Err(oob(0x1_0000_0000, 4))),
    ]
}

/// Bytes 16..24 of memory after a store, or its trap.
type WantBytes = Result<[u8; 8], Trap>;

/// `(store, address, value, bytes afterwards)` in a zeroed page.
#[rustfmt::skip]
fn store_cases() -> Vec<(Instr, i32, Value, WantBytes)> {
    use Instr::*;
    let wide = h64(0xfedc_ba98_7654_3210);
    vec![
        (I32Store(mem(0)), 16, h32(0x89ab_cdef), Ok([0xef, 0xcd, 0xab, 0x89, 0, 0, 0, 0])),
        (I32Store(mem(8)), 8, h32(0x89ab_cdef), Ok([0xef, 0xcd, 0xab, 0x89, 0, 0, 0, 0])),
        (I64Store(mem(0)), 16, i64v(0x0123_4567_89ab_cdef), Ok([0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01])),
        (F32Store(mem(0)), 16, f32v(-1.5), Ok([0, 0, 0xc0, 0xbf, 0, 0, 0, 0])),
        (F64Store(mem(0)), 16, f64v(-0.0), Ok([0, 0, 0, 0, 0, 0, 0, 0x80])),
        (I32Store8(mem(0)), 16, h32(0x1234_56ff), Ok([0xff, 0, 0, 0, 0, 0, 0, 0])),
        (I32Store16(mem(0)), 16, h32(0x1234_56ff), Ok([0xff, 0x56, 0, 0, 0, 0, 0, 0])),
        (I64Store8(mem(0)), 16, wide, Ok([0x10, 0, 0, 0, 0, 0, 0, 0])),
        (I64Store16(mem(0)), 16, wide, Ok([0x10, 0x32, 0, 0, 0, 0, 0, 0])),
        (I64Store32(mem(0)), 16, wide, Ok([0x10, 0x32, 0x54, 0x76, 0, 0, 0, 0])),
        (I32Store8(mem(0)), 65535, i32v(1), Ok([0; 8])),
        (I64Store16(mem(0)), 65535, i64v(1), Err(oob(65535, 2))),
        (I32Store(mem(0)), 65533, i32v(1), Err(oob(65533, 4))),
        (F64Store(mem(1)), -1, f64v(1.0), Err(oob(0x1_0000_0000, 8))),
    ]
}

fn config(reference_exec: bool) -> WasmVmConfig {
    WasmVmConfig {
        reference_exec,
        ..WasmVmConfig::reference()
    }
}

/// A module exporting `f(params) -> results` with `body`, over a
/// one-page memory holding [`DATA`].
fn module(params: &[ValType], results: &[ValType], body: &[Instr]) -> Module {
    let mut mb = ModuleBuilder::new();
    mb.memory(1, None).data(0, DATA.to_vec());
    let mut f = mb.func("f", params.to_vec(), results.to_vec());
    f.ops(body.iter().cloned()).done();
    mb.finish_func(f, true);
    mb.build()
}

/// The one result type under which `body` validates.
fn result_type(params: &[ValType], body: &[Instr]) -> ValType {
    let fits: Vec<ValType> = TYPES
        .into_iter()
        .filter(|t| wb_wasm::validate(&module(params, &[*t], body)).is_ok())
        .collect();
    assert_eq!(fits.len(), 1, "{body:?} over {params:?} fits {fits:?}");
    fits[0]
}

fn run(m: Module, reference_exec: bool, args: &[Value]) -> (Result<Option<Value>, Trap>, Instance) {
    let mut inst =
        Instance::from_module(m, config(reference_exec), HashMap::new()).expect("instantiates");
    (inst.invoke("f", args), inst)
}

fn bits(v: &Value) -> (ValType, u64, bool) {
    match *v {
        Value::I32(x) => (ValType::I32, x as u32 as u64, false),
        Value::I64(x) => (ValType::I64, x as u64, false),
        Value::F32(x) => (ValType::F32, x.to_bits() as u64, x.is_nan()),
        Value::F64(x) => (ValType::F64, x.to_bits(), x.is_nan()),
    }
}

/// Bit equality, except that any NaN matches an expected NaN of its type.
fn matches(got: &Result<Option<Value>, Trap>, want: &Want) -> bool {
    match (got, want) {
        (Ok(Some(g)), Ok(w)) => {
            let ((gt, gb, gnan), (wt, wb, wnan)) = (bits(g), bits(w));
            gt == wt && (gb == wb || (gnan && wnan))
        }
        (Err(g), Err(w)) => g == w,
        _ => false,
    }
}

fn const_of(v: Value) -> Instr {
    match v {
        Value::I32(x) => Instr::I32Const(x),
        Value::I64(x) => Instr::I64Const(x),
        Value::F32(x) => Instr::F32Const(x),
        Value::F64(x) => Instr::F64Const(x),
    }
}

#[test]
fn every_operator_matches_its_oracle_fused_and_unfused() {
    let mut failures = Vec::new();
    let mut runs = 0;
    for case in numeric_cases() {
        let params: Vec<ValType> = case.args.iter().map(Value::ty).collect();
        let mut bodies = vec![(0..case.args.len() as u32)
            .map(Instr::LocalGet)
            .chain([case.op.clone()])
            .collect::<Vec<_>>()];
        if let [_, b] = case.args[..] {
            bodies.push(vec![Instr::LocalGet(0), const_of(b), case.op.clone()]);
        }
        for body in bodies {
            let ret = result_type(&params, &body);
            if let Ok(w) = &case.want {
                assert_eq!(
                    w.ty(),
                    ret,
                    "{:?}: expected value has the wrong type",
                    case.op
                );
            }
            for reference_exec in [false, true] {
                let (got, _) = run(module(&params, &[ret], &body), reference_exec, &case.args);
                runs += 1;
                if !matches(&got, &case.want) {
                    failures.push(format!(
                        "{body:?} on {:?} (reference_exec {reference_exec}): got {got:?}, want {:?}",
                        case.args, case.want
                    ));
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {runs} runs wrong:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn every_load_and_store_kind_matches_its_oracle_fused_and_unfused() {
    let mut failures = Vec::new();
    for (op, addr, want) in load_cases() {
        let body = [Instr::LocalGet(0), op];
        let ret = result_type(&[ValType::I32], &body);
        for reference_exec in [false, true] {
            let m = module(&[ValType::I32], &[ret], &body);
            let (got, _) = run(m, reference_exec, &[i32v(addr)]);
            if !matches(&got, &want) {
                failures.push(format!(
                    "{body:?} at {addr} ({reference_exec}): got {got:?}, want {want:?}"
                ));
            }
        }
    }
    for (op, addr, value, want) in store_cases() {
        let body = [Instr::LocalGet(0), Instr::LocalGet(1), op];
        let params = [ValType::I32, value.ty()];
        for reference_exec in [false, true] {
            // Store into a zeroed page: only the data segment is dropped.
            let mut m = module(&params, &[], &body);
            m.data.clear();
            let (got, inst) = run(m, reference_exec, &[i32v(addr), value]);
            let got = got.and_then(|_| inst.read_memory(16, 8));
            let want = want.clone().map(|b| b.to_vec());
            if got != want {
                failures.push(format!("{body:?} of {value:?} at {addr} ({reference_exec}): got {got:?}, want {want:?}"));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The access width of each load and store opcode, 0x28-0x3E in order.
const WIDTHS: [u32; 23] = [
    4, 8, 4, 8, 1, 1, 2, 2, 1, 1, 2, 2, 4, 4, // loads
    4, 8, 4, 8, 1, 2, 1, 2, 4, // stores
];

/// The last 8 bytes of the one-page memory the bounds cases load from:
/// below 0x80, so a load of the last `width` bytes, sign- or
/// zero-extended, is their little-endian value.
const END: [u8; 8] = [0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x08];

/// Every load and store opcode with static offset `offset`, decoded
/// through the real decoder.
fn accesses(offset: u8) -> Vec<Instr> {
    decode_body(
        &(0x28..=0x3e)
            .flat_map(|op| [op, 0x00, offset])
            .collect::<Vec<u8>>(),
    )
}

/// The type that makes `body` over `(i32, t)` validate with no result:
/// the value type a store writes.
fn stored_type(body: &[Instr]) -> ValType {
    let fits: Vec<ValType> = TYPES
        .into_iter()
        .filter(|t| wb_wasm::validate(&module(&[ValType::I32, *t], &[], body)).is_ok())
        .collect();
    assert_eq!(fits.len(), 1, "{body:?} stores {fits:?}");
    fits[0]
}

/// A value of type `t` whose bits are distinct bytes, none of them zero.
fn distinct(t: ValType) -> Value {
    match t {
        ValType::I32 => h32(0x8182_8384),
        ValType::I64 => h64(0x8182_8384_8586_8788),
        ValType::F32 => f32v(f32::from_bits(0x8182_8384)),
        ValType::F64 => f64v(f64::from_bits(0x8182_8384_8586_8788)),
    }
}

#[test]
fn every_access_kind_is_bounds_checked_at_the_end_of_memory() {
    // Each load and store kind at its last in-bounds address (65536 -
    // width), which succeeds, one byte past it, and at address 2^32 - 1
    // with offset 1, whose effective address 2^32 does not wrap: both
    // trap with the effective address and the width, and a trapping
    // store leaves memory as it was.
    let mut failures = Vec::new();
    let mut check = |what: String, ok: bool| {
        if !ok {
            failures.push(what);
        }
    };
    let kinds = accesses(0).into_iter().zip(accesses(1)).zip(WIDTHS);
    for (k, ((op, far), width)) in kinds.enumerate() {
        // The first 14 opcodes load, the other 9 store.
        let load = k < 14;
        let last = 65536 - width as i32;
        let cases = [
            (op.clone(), last, true),
            (op, last + 1, false),
            (far, -1, false),
        ];
        for (access, addr, in_bounds) in cases {
            let effective = addr as u32 as u64 + u64::from(addr == -1);
            let trap = Err(oob(effective, width));
            for reference_exec in [false, true] {
                let what = format!("{access:?} at {addr} (reference_exec {reference_exec})");
                if load {
                    let body = [Instr::LocalGet(0), access.clone()];
                    let ret = result_type(&[ValType::I32], &body);
                    let mut m = module(&[ValType::I32], &[ret], &body);
                    m.data = vec![Data {
                        offset: 65536 - END.len() as i32,
                        bytes: END.to_vec(),
                    }];
                    let (got, _) = run(m, reference_exec, &[i32v(addr)]);
                    let got = got.map(|v| v.map(|v| bits(&v)));
                    let want = if in_bounds {
                        let mut le = [0; 8];
                        le[..width as usize].copy_from_slice(&END[8 - width as usize..]);
                        Ok(Some((ret, u64::from_le_bytes(le), false)))
                    } else {
                        trap.clone().map(|_: ()| None)
                    };
                    check(format!("{what}: got {got:?}, want {want:?}"), got == want);
                } else {
                    let body = [Instr::LocalGet(0), Instr::LocalGet(1), access.clone()];
                    let t = stored_type(&body);
                    let mut m = module(&[ValType::I32, t], &[], &body);
                    m.data.clear();
                    let value = distinct(t);
                    let (got, inst) = run(m, reference_exec, &[i32v(addr), value]);
                    let after = inst.read_memory(0, 65536).expect("one page");
                    let mut want_memory = vec![0; 65536];
                    let want = if in_bounds {
                        let le = bits(&value).1.to_le_bytes();
                        want_memory[last as usize..].copy_from_slice(&le[..width as usize]);
                        Ok(None)
                    } else {
                        trap.clone().map(|_: ()| None)
                    };
                    check(format!("{what}: got {got:?}, want {want:?}"), got == want);
                    check(format!("{what}: memory changed"), after == want_memory);
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Decode raw instruction bytes, through the real decoder, as the body of
/// a one-function module.
fn decode_body(code: &[u8]) -> Vec<Instr> {
    let mut body = vec![0x00]; // no local declarations
    body.extend_from_slice(code);
    body.push(0x0b);
    let mut section = vec![0x01];
    write_u32(&mut section, body.len() as u32);
    section.extend(body);
    let mut bytes = b"\0asm\x01\0\0\0".to_vec();
    bytes.extend([0x01, 0x04, 0x01, 0x60, 0x00, 0x00]); // type 0: [] -> []
    bytes.extend([0x03, 0x02, 0x01, 0x00]); // function 0 has type 0
    bytes.push(0x0a);
    write_u32(&mut bytes, section.len() as u32);
    bytes.extend(section);
    let mut module = wb_wasm::decode_module(&bytes).expect("well-formed module");
    let mut body = module.functions.remove(0).body;
    assert_eq!(body.pop(), Some(Instr::End));
    body
}

#[test]
fn the_oracle_covers_every_numeric_and_memory_opcode() {
    let numeric = decode_body(&(0x45..=0xbf).collect::<Vec<u8>>());
    assert_eq!(numeric.len(), 123);
    let cases = numeric_cases();
    for i in &numeric {
        assert!(cases.iter().any(|c| c.op == *i), "no oracle case for {i:?}");
    }
    for c in &cases {
        assert!(
            numeric.contains(&c.op),
            "{:?} is not a numeric opcode",
            c.op
        );
    }

    let memory = decode_body(
        &(0x28..=0x3e)
            .flat_map(|op| [op, 0x00, 0x00])
            .collect::<Vec<u8>>(),
    );
    assert_eq!(memory.len(), 23);
    let ops: Vec<Instr> = load_cases()
        .into_iter()
        .map(|(op, ..)| op)
        .chain(store_cases().into_iter().map(|(op, ..)| op))
        .collect();
    for i in &memory {
        assert!(
            ops.iter().any(|op| discriminant(op) == discriminant(i)),
            "no oracle case for {i:?}"
        );
    }
}
