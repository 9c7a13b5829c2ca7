//! Lowering: flat function bodies → micro-ops, fused or not.
//!
//! The one dispatch loop in `exec.rs` runs a stream of [`Mop`] micro-ops.
//! This module lowers a body once (per prepared module and fusion
//! setting, lazily, on first execution) into that stream, in which
//!
//! * with fusion on, common short sequences are **fused** into a single
//!   op (`local.get local.get binop local.set`, `const binop`,
//!   `cmp br_if`, `local.get load`, …) with immediates inlined; with it
//!   off (`reference_exec`), every instruction becomes its singleton op,
//! * operand types are baked in at lowering time so execution runs over
//!   an **untagged `u64` stack** (i32 zero-extended, floats as raw bits),
//! * structured-control targets are pre-translated to micro-op indices,
//! * the body is cut into regions ([`region_heads`]), each with its
//!   instruction count and class and Table 12 counts stored once; the
//!   micro-op at each head carries its region ([`LoweredFunc::heads`]).
//!
//! ## Why fusion can never span a branch target
//!
//! Every branch target in structured Wasm control flow is one of
//! `end+1` (forward branch / if-false without else / else-arm skip),
//! `else+1` (if-false with else) or `loop_opener+1` (back-edge). Each of
//! those pcs is immediately preceded by a control instruction (`end`,
//! `else`, `loop`) — and control instructions are never fused into a
//! group. So every jump target is automatically a group boundary and no
//! explicit leader analysis is required.
//!
//! Lowering also never fuses past a region head, so every group lies
//! inside one region.
//!
//! ## Cost equivalence
//!
//! No micro-op charges anything of its own: the loop counts region
//! entries, and a region's counts come from its source instructions, cut
//! the same way with fusion on and off. A fused op therefore retires
//! exactly its constituents' counts, in the band the unfused stream
//! would have used (a band crossing can only happen at function entry and
//! taken loop back-edges, which are region boundaries), and traps where
//! its trapping constituent would, charging its region through that
//! constituent. See `DESIGN.md` §4 and §7.

use crate::classify::{arith_kind, classify};
use crate::prep::{SideTable, NO_PC};
use crate::trap::Trap;
use crate::value::Value;
use wb_env::{OpClass, RegionTable};
use wb_wasm::{Instr, MemArg, Module, ValType};

/// Convert a tagged value to its untagged bit pattern (i32 zero-extended,
/// floats as IEEE bits).
#[inline]
pub(crate) fn value_bits(v: Value) -> u64 {
    match v {
        Value::I32(x) => x as u32 as u64,
        Value::I64(x) => x as u64,
        Value::F32(f) => f.to_bits() as u64,
        Value::F64(f) => f.to_bits(),
    }
}

/// Convert an untagged bit pattern back to a tagged value of type `t`.
#[inline]
pub(crate) fn bits_to_value(t: ValType, b: u64) -> Value {
    match t {
        ValType::I32 => Value::I32(b as u32 as i32),
        ValType::I64 => Value::I64(b as i64),
        ValType::F32 => Value::F32(f32::from_bits(b as u32)),
        ValType::F64 => Value::F64(f64::from_bits(b)),
    }
}

#[inline]
fn u_i32(v: i32) -> u64 {
    v as u32 as u64
}

#[inline]
fn b_i32(x: u64) -> i32 {
    x as u32 as i32
}

#[inline]
fn b_f32(x: u64) -> f32 {
    f32::from_bits(x as u32)
}

#[inline]
fn u_f32(v: f32) -> u64 {
    v.to_bits() as u64
}

/// Declares one family of lifted numeric operators. Each name is both the
/// family's variant and the [`Instr`] variant it lifts, so the list below
/// is the only place a family names its operators. Generates the enum,
/// `ALL`, the lifts `of`/`instr`, and whether each operator yields an
/// i32, evaluated at compile time from `classify.rs`. The family keeps no
/// charge table: what an operator costs is counted by the region it runs
/// in, from its source instruction.
macro_rules! lifted_ops {
    ($(#[$doc:meta])* $family:ident { $($op:ident),* $(,)? }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[allow(missing_docs)]
        pub(crate) enum $family {
            $($op),*
        }

        impl $family {
            /// Every operator of the family, in declaration order.
            pub(crate) const ALL: [$family; [$(stringify!($op)),*].len()] = [$($family::$op),*];
            const INSTRS: [Instr; $family::ALL.len()] = [$(Instr::$op),*];
            const I32_RESULT: [bool; $family::ALL.len()] =
                [$(yields_i32(stringify!($op), classify(&Instr::$op))),*];

            /// Lift an instruction of this family, if it is one.
            pub(crate) fn of(i: &Instr) -> Option<$family> {
                Some(match i {
                    $(Instr::$op => $family::$op,)*
                    _ => return None,
                })
            }

            /// The instruction this operator was lifted from.
            pub(crate) fn instr(self) -> Instr {
                Self::INSTRS[self as usize].clone()
            }

            /// Whether the result is an i32, a prerequisite for fusing with
            /// a following `br_if` (which consumes an i32 condition).
            pub(crate) fn result_is_i32(self) -> bool {
                Self::I32_RESULT[self as usize]
            }
        }
    };
}

/// Whether the operator named `name` yields an i32. A Wasm `t.op` yields a
/// `t`, except comparisons and tests, which yield an i32 condition.
const fn yields_i32(name: &str, class: OpClass) -> bool {
    let n = name.as_bytes();
    matches!(class, OpClass::Compare) || (n[0] == b'I' && n[1] == b'3' && n[2] == b'2')
}

lifted_ops! {
    /// Binary operators with type knowledge baked in, operating on untagged
    /// bits, with Wasm MVP semantics.
    BinOp {
        // i32 arithmetic / bitwise.
        I32Add, I32Sub, I32Mul, I32DivS, I32DivU, I32RemS, I32RemU,
        I32And, I32Or, I32Xor, I32Shl, I32ShrS, I32ShrU, I32Rotl, I32Rotr,
        // i32 comparisons.
        I32Eq, I32Ne, I32LtS, I32LtU, I32GtS, I32GtU, I32LeS, I32LeU, I32GeS, I32GeU,
        // i64 arithmetic / bitwise.
        I64Add, I64Sub, I64Mul, I64DivS, I64DivU, I64RemS, I64RemU,
        I64And, I64Or, I64Xor, I64Shl, I64ShrS, I64ShrU, I64Rotl, I64Rotr,
        // i64 comparisons.
        I64Eq, I64Ne, I64LtS, I64LtU, I64GtS, I64GtU, I64LeS, I64LeU, I64GeS, I64GeU,
        // f32.
        F32Add, F32Sub, F32Mul, F32Div, F32Min, F32Max, F32Copysign,
        F32Eq, F32Ne, F32Lt, F32Gt, F32Le, F32Ge,
        // f64.
        F64Add, F64Sub, F64Mul, F64Div, F64Min, F64Max, F64Copysign,
        F64Eq, F64Ne, F64Lt, F64Gt, F64Le, F64Ge,
    }
}

lifted_ops! {
    /// Unary operators (tests, bit counts, float unaries, conversions) on
    /// untagged bits.
    UnOp {
        I32Eqz, I32Clz, I32Ctz, I32Popcnt, I64Eqz, I64Clz, I64Ctz, I64Popcnt,
        F32Abs, F32Neg, F32Ceil, F32Floor, F32Trunc, F32Nearest, F32Sqrt,
        F64Abs, F64Neg, F64Ceil, F64Floor, F64Trunc, F64Nearest, F64Sqrt,
        I32WrapI64, I32TruncF32S, I32TruncF32U, I32TruncF64S, I32TruncF64U,
        I64ExtendI32S, I64ExtendI32U, I64TruncF32S, I64TruncF32U, I64TruncF64S, I64TruncF64U,
        F32ConvertI32S, F32ConvertI32U, F32ConvertI64S, F32ConvertI64U, F32DemoteF64,
        F64ConvertI32S, F64ConvertI32U, F64ConvertI64S, F64ConvertI64U, F64PromoteF32,
        I32ReinterpretF32, I64ReinterpretF64, F32ReinterpretI32, F64ReinterpretI64,
    }
}

macro_rules! i32_bin {
    ($a:expr, $b:expr, $f:expr) => {{
        let f: fn(i32, i32) -> i32 = $f;
        u_i32(f(b_i32($a), b_i32($b)))
    }};
}
macro_rules! i32_cmp {
    ($a:expr, $b:expr, $f:expr) => {{
        let f: fn(i32, i32) -> bool = $f;
        f(b_i32($a), b_i32($b)) as u64
    }};
}
macro_rules! i64_bin {
    ($a:expr, $b:expr, $f:expr) => {{
        let f: fn(i64, i64) -> i64 = $f;
        f($a as i64, $b as i64) as u64
    }};
}
macro_rules! i64_cmp {
    ($a:expr, $b:expr, $f:expr) => {{
        let f: fn(i64, i64) -> bool = $f;
        f($a as i64, $b as i64) as u64
    }};
}
macro_rules! f32_bin {
    ($a:expr, $b:expr, $f:expr) => {{
        let f: fn(f32, f32) -> f32 = $f;
        u_f32(f(b_f32($a), b_f32($b)))
    }};
}
macro_rules! f32_cmp {
    ($a:expr, $b:expr, $f:expr) => {{
        let f: fn(f32, f32) -> bool = $f;
        f(b_f32($a), b_f32($b)) as u64
    }};
}
macro_rules! f64_bin {
    ($a:expr, $b:expr, $f:expr) => {{
        let f: fn(f64, f64) -> f64 = $f;
        f(f64::from_bits($a), f64::from_bits($b)).to_bits()
    }};
}
macro_rules! f64_cmp {
    ($a:expr, $b:expr, $f:expr) => {{
        let f: fn(f64, f64) -> bool = $f;
        f(f64::from_bits($a), f64::from_bits($b)) as u64
    }};
}

impl BinOp {
    /// Execute on untagged bits.
    #[inline]
    pub(crate) fn apply(self, a: u64, b: u64) -> Result<u64, Trap> {
        use crate::interp::{wasm_max_f32, wasm_max_f64, wasm_min_f32, wasm_min_f64};
        use BinOp::*;
        Ok(match self {
            I32Add => i32_bin!(a, b, i32::wrapping_add),
            I32Sub => i32_bin!(a, b, i32::wrapping_sub),
            I32Mul => i32_bin!(a, b, i32::wrapping_mul),
            I32DivS => {
                let (a, b) = (b_i32(a), b_i32(b));
                if b == 0 {
                    return Err(Trap::DivByZero);
                }
                if a == i32::MIN && b == -1 {
                    return Err(Trap::IntegerOverflow);
                }
                u_i32(a.wrapping_div(b))
            }
            I32DivU => {
                let (a, b) = (a as u32, b as u32);
                if b == 0 {
                    return Err(Trap::DivByZero);
                }
                u_i32((a / b) as i32)
            }
            I32RemS => {
                let (a, b) = (b_i32(a), b_i32(b));
                if b == 0 {
                    return Err(Trap::DivByZero);
                }
                u_i32(a.wrapping_rem(b))
            }
            I32RemU => {
                let (a, b) = (a as u32, b as u32);
                if b == 0 {
                    return Err(Trap::DivByZero);
                }
                u_i32((a % b) as i32)
            }
            I32And => i32_bin!(a, b, |a, b| a & b),
            I32Or => i32_bin!(a, b, |a, b| a | b),
            I32Xor => i32_bin!(a, b, |a, b| a ^ b),
            I32Shl => i32_bin!(a, b, |a, b| a.wrapping_shl(b as u32)),
            I32ShrS => i32_bin!(a, b, |a, b| a.wrapping_shr(b as u32)),
            I32ShrU => i32_bin!(a, b, |a, b| ((a as u32).wrapping_shr(b as u32)) as i32),
            I32Rotl => i32_bin!(a, b, |a, b| a.rotate_left(b as u32 & 31)),
            I32Rotr => i32_bin!(a, b, |a, b| a.rotate_right(b as u32 & 31)),
            I32Eq => i32_cmp!(a, b, |a, b| a == b),
            I32Ne => i32_cmp!(a, b, |a, b| a != b),
            I32LtS => i32_cmp!(a, b, |a, b| a < b),
            I32LtU => i32_cmp!(a, b, |a, b| (a as u32) < (b as u32)),
            I32GtS => i32_cmp!(a, b, |a, b| a > b),
            I32GtU => i32_cmp!(a, b, |a, b| (a as u32) > (b as u32)),
            I32LeS => i32_cmp!(a, b, |a, b| a <= b),
            I32LeU => i32_cmp!(a, b, |a, b| (a as u32) <= (b as u32)),
            I32GeS => i32_cmp!(a, b, |a, b| a >= b),
            I32GeU => i32_cmp!(a, b, |a, b| (a as u32) >= (b as u32)),
            I64Add => i64_bin!(a, b, i64::wrapping_add),
            I64Sub => i64_bin!(a, b, i64::wrapping_sub),
            I64Mul => i64_bin!(a, b, i64::wrapping_mul),
            I64DivS => {
                let (a, b) = (a as i64, b as i64);
                if b == 0 {
                    return Err(Trap::DivByZero);
                }
                if a == i64::MIN && b == -1 {
                    return Err(Trap::IntegerOverflow);
                }
                a.wrapping_div(b) as u64
            }
            I64DivU => {
                if b == 0 {
                    return Err(Trap::DivByZero);
                }
                a / b
            }
            I64RemS => {
                let (a, b) = (a as i64, b as i64);
                if b == 0 {
                    return Err(Trap::DivByZero);
                }
                a.wrapping_rem(b) as u64
            }
            I64RemU => {
                if b == 0 {
                    return Err(Trap::DivByZero);
                }
                a % b
            }
            I64And => a & b,
            I64Or => a | b,
            I64Xor => a ^ b,
            I64Shl => i64_bin!(a, b, |a, b| a.wrapping_shl(b as u32)),
            I64ShrS => i64_bin!(a, b, |a, b| a.wrapping_shr(b as u32)),
            I64ShrU => i64_bin!(a, b, |a, b| ((a as u64).wrapping_shr(b as u32)) as i64),
            I64Rotl => i64_bin!(a, b, |a, b| a.rotate_left(b as u32 & 63)),
            I64Rotr => i64_bin!(a, b, |a, b| a.rotate_right(b as u32 & 63)),
            I64Eq => i64_cmp!(a, b, |a, b| a == b),
            I64Ne => i64_cmp!(a, b, |a, b| a != b),
            I64LtS => i64_cmp!(a, b, |a, b| a < b),
            I64LtU => i64_cmp!(a, b, |a, b| (a as u64) < (b as u64)),
            I64GtS => i64_cmp!(a, b, |a, b| a > b),
            I64GtU => i64_cmp!(a, b, |a, b| (a as u64) > (b as u64)),
            I64LeS => i64_cmp!(a, b, |a, b| a <= b),
            I64LeU => i64_cmp!(a, b, |a, b| (a as u64) <= (b as u64)),
            I64GeS => i64_cmp!(a, b, |a, b| a >= b),
            I64GeU => i64_cmp!(a, b, |a, b| (a as u64) >= (b as u64)),
            F32Add => f32_bin!(a, b, |a, b| a + b),
            F32Sub => f32_bin!(a, b, |a, b| a - b),
            F32Mul => f32_bin!(a, b, |a, b| a * b),
            F32Div => f32_bin!(a, b, |a, b| a / b),
            F32Min => f32_bin!(a, b, wasm_min_f32),
            F32Max => f32_bin!(a, b, wasm_max_f32),
            F32Copysign => f32_bin!(a, b, f32::copysign),
            F32Eq => f32_cmp!(a, b, |a, b| a == b),
            F32Ne => f32_cmp!(a, b, |a, b| a != b),
            F32Lt => f32_cmp!(a, b, |a, b| a < b),
            F32Gt => f32_cmp!(a, b, |a, b| a > b),
            F32Le => f32_cmp!(a, b, |a, b| a <= b),
            F32Ge => f32_cmp!(a, b, |a, b| a >= b),
            F64Add => f64_bin!(a, b, |a, b| a + b),
            F64Sub => f64_bin!(a, b, |a, b| a - b),
            F64Mul => f64_bin!(a, b, |a, b| a * b),
            F64Div => f64_bin!(a, b, |a, b| a / b),
            F64Min => f64_bin!(a, b, wasm_min_f64),
            F64Max => f64_bin!(a, b, wasm_max_f64),
            F64Copysign => f64_bin!(a, b, f64::copysign),
            F64Eq => f64_cmp!(a, b, |a, b| a == b),
            F64Ne => f64_cmp!(a, b, |a, b| a != b),
            F64Lt => f64_cmp!(a, b, |a, b| a < b),
            F64Gt => f64_cmp!(a, b, |a, b| a > b),
            F64Le => f64_cmp!(a, b, |a, b| a <= b),
            F64Ge => f64_cmp!(a, b, |a, b| a >= b),
        })
    }
}

impl UnOp {
    /// Execute on untagged bits.
    #[inline]
    pub(crate) fn apply(self, a: u64) -> Result<u64, Trap> {
        use crate::interp::{trunc_to_i32, trunc_to_i64, trunc_to_u32, trunc_to_u64};
        use UnOp::*;
        Ok(match self {
            I32Eqz => (b_i32(a) == 0) as u64,
            I32Clz => u_i32(b_i32(a).leading_zeros() as i32),
            I32Ctz => u_i32(b_i32(a).trailing_zeros() as i32),
            I32Popcnt => u_i32(b_i32(a).count_ones() as i32),
            I64Eqz => ((a as i64) == 0) as u64,
            I64Clz => (a as i64).leading_zeros() as u64,
            I64Ctz => (a as i64).trailing_zeros() as u64,
            I64Popcnt => (a as i64).count_ones() as u64,
            F32Abs => u_f32(b_f32(a).abs()),
            F32Neg => u_f32(-b_f32(a)),
            F32Ceil => u_f32(b_f32(a).ceil()),
            F32Floor => u_f32(b_f32(a).floor()),
            F32Trunc => u_f32(b_f32(a).trunc()),
            F32Nearest => u_f32(b_f32(a).round_ties_even()),
            F32Sqrt => u_f32(b_f32(a).sqrt()),
            F64Abs => f64::from_bits(a).abs().to_bits(),
            F64Neg => (-f64::from_bits(a)).to_bits(),
            F64Ceil => f64::from_bits(a).ceil().to_bits(),
            F64Floor => f64::from_bits(a).floor().to_bits(),
            F64Trunc => f64::from_bits(a).trunc().to_bits(),
            F64Nearest => f64::from_bits(a).round_ties_even().to_bits(),
            F64Sqrt => f64::from_bits(a).sqrt().to_bits(),
            I32WrapI64 => u_i32(a as i64 as i32),
            I32TruncF32S => u_i32(trunc_to_i32(b_f32(a) as f64)?),
            I32TruncF32U => u_i32(trunc_to_u32(b_f32(a) as f64)? as i32),
            I32TruncF64S => u_i32(trunc_to_i32(f64::from_bits(a))?),
            I32TruncF64U => u_i32(trunc_to_u32(f64::from_bits(a))? as i32),
            I64ExtendI32S => (b_i32(a) as i64) as u64,
            I64ExtendI32U => (b_i32(a) as u32 as i64) as u64,
            I64TruncF32S => trunc_to_i64(b_f32(a) as f64)? as u64,
            I64TruncF32U => trunc_to_u64(b_f32(a) as f64)?,
            I64TruncF64S => trunc_to_i64(f64::from_bits(a))? as u64,
            I64TruncF64U => trunc_to_u64(f64::from_bits(a))?,
            F32ConvertI32S => u_f32(b_i32(a) as f32),
            F32ConvertI32U => u_f32((b_i32(a) as u32) as f32),
            F32ConvertI64S => u_f32((a as i64) as f32),
            F32ConvertI64U => u_f32(a as f32),
            F32DemoteF64 => u_f32(f64::from_bits(a) as f32),
            F64ConvertI32S => (b_i32(a) as f64).to_bits(),
            F64ConvertI32U => ((b_i32(a) as u32) as f64).to_bits(),
            F64ConvertI64S => ((a as i64) as f64).to_bits(),
            F64ConvertI64U => (a as f64).to_bits(),
            F64PromoteF32 => (b_f32(a) as f64).to_bits(),
            I32ReinterpretF32 => a & 0xFFFF_FFFF,
            I64ReinterpretF64 => a,
            F32ReinterpretI32 => a & 0xFFFF_FFFF,
            F64ReinterpretI64 => a,
        })
    }
}

/// Declares one memory-access family as (kind, [`Instr`] variant) pairs,
/// the only place the family names its instructions. Generates the enum,
/// `ALL`, and the lifts `of`/`instr`, which carry the static offset.
macro_rules! memory_ops {
    ($(#[$doc:meta])* $family:ident { $($kind:ident = $instr:ident),* $(,)? }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[allow(missing_docs)]
        pub(crate) enum $family {
            $($kind),*
        }

        impl $family {
            /// Every kind of the family, in declaration order.
            pub(crate) const ALL: [$family; [$(stringify!($kind)),*].len()] =
                [$($family::$kind),*];

            /// Lift an access of this family to its kind and static offset.
            pub(crate) fn of(i: &Instr) -> Option<($family, u64)> {
                Some(match i {
                    $(Instr::$instr(m) => ($family::$kind, m.offset as u64),)*
                    _ => return None,
                })
            }

            /// The instruction of this kind with the given static offset.
            pub(crate) fn instr(self, offset: u32) -> Instr {
                let m = MemArg { align: 0, offset };
                match self {
                    $($family::$kind => Instr::$instr(m)),*
                }
            }
        }
    };
}

memory_ops! {
    /// Memory-load flavor with the extension behaviour baked in.
    LoadKind {
        I32 = I32Load, I64 = I64Load, F32 = F32Load, F64 = F64Load,
        I32S8 = I32Load8S, I32U8 = I32Load8U, I32S16 = I32Load16S, I32U16 = I32Load16U,
        I64S8 = I64Load8S, I64U8 = I64Load8U, I64S16 = I64Load16S, I64U16 = I64Load16U,
        I64S32 = I64Load32S, I64U32 = I64Load32U,
    }
}

memory_ops! {
    /// Memory-store flavor with the truncation behaviour baked in.
    StoreKind {
        I32 = I32Store, I64 = I64Store, F32 = F32Store, F64 = F64Store,
        I32As8 = I32Store8, I32As16 = I32Store16,
        I64As8 = I64Store8, I64As16 = I64Store16, I64As32 = I64Store32,
    }
}

impl LoadKind {
    /// Access width in bytes (also the trap's reported width).
    #[inline]
    pub(crate) fn width(self) -> u32 {
        use LoadKind::*;
        match self {
            I32S8 | I32U8 | I64S8 | I64U8 => 1,
            I32S16 | I32U16 | I64S16 | I64U16 => 2,
            I32 | F32 | I64S32 | I64U32 => 4,
            I64 | F64 => 8,
        }
    }
}

impl StoreKind {
    /// Access width in bytes (also the trap's reported width).
    #[inline]
    pub(crate) fn width(self) -> u32 {
        use StoreKind::*;
        match self {
            I32As8 | I64As8 => 1,
            I32As16 | I64As16 => 2,
            I32 | F32 | I64As32 => 4,
            I64 | F64 => 8,
        }
    }
}

fn local_get_of(i: &Instr) -> Option<u32> {
    match i {
        Instr::LocalGet(x) => Some(*x),
        _ => None,
    }
}

fn local_set_of(i: &Instr) -> Option<u32> {
    match i {
        Instr::LocalSet(x) => Some(*x),
        _ => None,
    }
}

fn const_bits_of(i: &Instr) -> Option<u64> {
    Some(match i {
        Instr::I32Const(v) => u_i32(*v),
        Instr::I64Const(v) => *v as u64,
        Instr::F32Const(f) => u_f32(*f),
        Instr::F64Const(f) => f.to_bits(),
        _ => None?,
    })
}

fn br_if_of(i: &Instr) -> Option<u32> {
    match i {
        Instr::BrIf(d) => Some(*d),
        _ => None,
    }
}

/// One micro-op. Singleton variants mirror [`Instr`] one-to-one (with
/// branch targets pre-translated to micro-op indices); the variants after
/// the marker comment are fused superinstructions.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub(crate) enum Mop {
    Unreachable,
    Nop,
    /// `after_end` = micro-op index just past the matching `end`.
    Block {
        after_end: u32,
        arity: u8,
    },
    Loop {
        after_end: u32,
    },
    /// `else_skip` = target when the condition is false and an `else`
    /// exists ([`NO_PC`] otherwise, in which case control jumps to
    /// `after_end` with the frame popped).
    If {
        after_end: u32,
        else_skip: u32,
        arity: u8,
    },
    Else,
    End,
    Br(u32),
    BrIf(u32),
    BrTable(Box<[u32]>, u32),
    Return,
    Call(u32),
    CallIndirect(u32),
    Drop,
    Select,
    LocalGet(u32),
    LocalSet(u32),
    LocalTee(u32),
    GlobalGet(u32),
    GlobalSet {
        idx: u32,
        ty: ValType,
    },
    Load {
        kind: LoadKind,
        offset: u64,
    },
    Store {
        kind: StoreKind,
        offset: u64,
    },
    MemorySize,
    MemoryGrow,
    Const(u64),
    Un(UnOp),
    Bin(BinOp),
    // ---- fused superinstructions ------------------------------------
    /// `local.get a; local.get b; binop`
    LLBin {
        a: u32,
        b: u32,
        op: BinOp,
    },
    /// `local.get a; local.get b; binop; local.set dst`
    LLBinSet {
        a: u32,
        b: u32,
        dst: u32,
        op: BinOp,
    },
    /// `local.get a; const c; binop`
    LCBin {
        a: u32,
        c: u64,
        op: BinOp,
    },
    /// `local.get a; const c; binop; local.set dst`
    LCBinSet {
        a: u32,
        c: u64,
        dst: u32,
        op: BinOp,
    },
    /// `local.get b; binop` (lhs already on the stack)
    LBin {
        b: u32,
        op: BinOp,
    },
    /// `const c; binop` (lhs already on the stack)
    CBin {
        c: u64,
        op: BinOp,
    },
    /// `const c; binop; local.set dst`
    CBinSet {
        c: u64,
        dst: u32,
        op: BinOp,
    },
    /// `binop; local.set dst` (both operands on the stack)
    BinSet {
        dst: u32,
        op: BinOp,
    },
    /// `const c; local.set dst`
    LConst {
        c: u64,
        dst: u32,
    },
    /// `local.get src; local.set dst`
    LocalCopy {
        src: u32,
        dst: u32,
    },
    /// `local.get a; local.get b; binop; br_if depth`
    LLCmpBr {
        a: u32,
        b: u32,
        op: BinOp,
        depth: u32,
    },
    /// `local.get a; const c; binop; br_if depth`
    LCCmpBr {
        a: u32,
        c: u64,
        op: BinOp,
        depth: u32,
    },
    /// `binop; br_if depth` (both operands on the stack)
    CmpBr {
        op: BinOp,
        depth: u32,
    },
    /// `local.get a; unop; br_if depth` (e.g. `i32.eqz; br_if`)
    LUnBr {
        a: u32,
        un: UnOp,
        depth: u32,
    },
    /// `unop; br_if depth`
    UnBr {
        un: UnOp,
        depth: u32,
    },
    /// `local.get a; load`
    LLoad {
        a: u32,
        kind: LoadKind,
        offset: u64,
    },
    /// `local.get a; local.get b; store` (a = address, b = value)
    LLStore {
        a: u32,
        b: u32,
        kind: StoreKind,
        offset: u64,
    },
}

impl Mop {
    /// Number of source instructions this micro-op retires: its
    /// constituent count.
    pub(crate) fn width(&self) -> usize {
        use Mop::*;
        match self {
            LLBinSet { .. } | LCBinSet { .. } | LLCmpBr { .. } | LCCmpBr { .. } => 4,
            LLBin { .. } | LCBin { .. } | CBinSet { .. } | LUnBr { .. } | LLStore { .. } => 3,
            LBin { .. }
            | CBin { .. }
            | BinSet { .. }
            | LConst { .. }
            | LocalCopy { .. }
            | CmpBr { .. }
            | UnBr { .. }
            | LLoad { .. } => 2,
            _ => 1,
        }
    }
}

/// A function body lowered to micro-ops.
#[derive(Debug)]
pub(crate) struct LoweredFunc {
    /// The micro-op stream; control targets are indices into this vec.
    pub(crate) code: Vec<Mop>,
    /// Per micro-op, the region it heads ([`NO_PC`] where none starts).
    pub(crate) heads: Vec<u32>,
    /// Each region's source-instruction range and class and Table 12
    /// counts, in source order.
    pub(crate) regions: RegionTable,
}

/// Where regions start, by source pc: at pc 0; at every branch target (a
/// targeted loop's body, a targeted block's or if's `end + 1`, an else
/// arm); and after every branch, call, return and `unreachable`. Every
/// op that can leave a region by jumping is a branch, so a region, once
/// entered, retires every one of its instructions unless one traps.
pub(crate) fn region_heads(body: &[Instr], side: &SideTable) -> Vec<bool> {
    let mut heads = vec![false; body.len()];
    let mut mark = |pc: Option<usize>| {
        if let Some(h) = pc.and_then(|pc| heads.get_mut(pc)) {
            *h = true;
        }
    };
    mark(Some(0));
    let end_of = |opener: usize| side.end_of[opener] as usize;
    // Openers of the enclosing labels, innermost last.
    let mut labels: Vec<usize> = Vec::new();
    // The target of a branch to relative depth `d`, if it names a block
    // (a branch to the function's own label returns).
    let target = |labels: &[usize], d: &u32| {
        let opener = *labels.get(labels.len().checked_sub(1 + *d as usize)?)?;
        Some(match body[opener] {
            Instr::Loop(_) => opener + 1,
            _ => end_of(opener) + 1,
        })
    };
    for (pc, instr) in body.iter().enumerate() {
        match instr {
            Instr::Block(_) | Instr::Loop(_) => labels.push(pc),
            Instr::If(_) => {
                labels.push(pc);
                mark(Some(match side.else_of[pc] {
                    NO_PC => end_of(pc) + 1,
                    else_pc => else_pc as usize + 1,
                }));
            }
            Instr::Else => mark(labels.last().map(|&opener| end_of(opener) + 1)),
            Instr::End => {
                labels.pop();
            }
            Instr::Br(d) | Instr::BrIf(d) => mark(target(&labels, d)),
            Instr::BrTable(ds, default) => {
                for d in ds.iter().chain([default]) {
                    mark(target(&labels, d));
                }
            }
            _ => {}
        }
        if matches!(
            instr,
            Instr::If(_)
                | Instr::Else
                | Instr::Br(_)
                | Instr::BrIf(_)
                | Instr::BrTable(..)
                | Instr::Return
                | Instr::Call(_)
                | Instr::CallIndirect(_)
                | Instr::Unreachable
        ) {
            mark(Some(pc + 1));
        }
    }
    heads
}

/// Try to recognize a fused pattern starting at `w[0]`; returns the fused
/// op and the number of source instructions consumed.
pub(crate) fn match_fused(w: &[Instr]) -> Option<(Mop, usize)> {
    // Longest patterns first. Every constituent past the first is a
    // data/branch instruction, never a control opener/closer, so no group
    // can swallow a branch target (see module docs).
    if w.len() >= 4 {
        if let (Some(a), Some(op)) = (local_get_of(&w[0]), BinOp::of(&w[2])) {
            if let Some(b) = local_get_of(&w[1]) {
                if let Some(dst) = local_set_of(&w[3]) {
                    return Some((Mop::LLBinSet { a, b, dst, op }, 4));
                }
                if let Some(depth) = br_if_of(&w[3]) {
                    if op.result_is_i32() {
                        return Some((Mop::LLCmpBr { a, b, op, depth }, 4));
                    }
                }
            }
            if let Some(c) = const_bits_of(&w[1]) {
                if let Some(dst) = local_set_of(&w[3]) {
                    return Some((Mop::LCBinSet { a, c, dst, op }, 4));
                }
                if let Some(depth) = br_if_of(&w[3]) {
                    if op.result_is_i32() {
                        return Some((Mop::LCCmpBr { a, c, op, depth }, 4));
                    }
                }
            }
        }
    }
    if w.len() >= 3 {
        if let Some(a) = local_get_of(&w[0]) {
            if let Some(b) = local_get_of(&w[1]) {
                if let Some(op) = BinOp::of(&w[2]) {
                    return Some((Mop::LLBin { a, b, op }, 3));
                }
                if let Some((kind, offset)) = StoreKind::of(&w[2]) {
                    return Some((Mop::LLStore { a, b, kind, offset }, 3));
                }
            }
            if let Some(c) = const_bits_of(&w[1]) {
                if let Some(op) = BinOp::of(&w[2]) {
                    return Some((Mop::LCBin { a, c, op }, 3));
                }
            }
            if let Some(un) = UnOp::of(&w[1]) {
                if let Some(depth) = br_if_of(&w[2]) {
                    if un.result_is_i32() {
                        return Some((Mop::LUnBr { a, un, depth }, 3));
                    }
                }
            }
        }
        if let Some(c) = const_bits_of(&w[0]) {
            if let Some(op) = BinOp::of(&w[1]) {
                if let Some(dst) = local_set_of(&w[2]) {
                    return Some((Mop::CBinSet { c, dst, op }, 3));
                }
            }
        }
    }
    if w.len() >= 2 {
        if let Some(a) = local_get_of(&w[0]) {
            if let Some((kind, offset)) = LoadKind::of(&w[1]) {
                return Some((Mop::LLoad { a, kind, offset }, 2));
            }
            if let Some(dst) = local_set_of(&w[1]) {
                return Some((Mop::LocalCopy { src: a, dst }, 2));
            }
            if let Some(op) = BinOp::of(&w[1]) {
                return Some((Mop::LBin { b: a, op }, 2));
            }
        }
        if let Some(c) = const_bits_of(&w[0]) {
            if let Some(op) = BinOp::of(&w[1]) {
                return Some((Mop::CBin { c, op }, 2));
            }
            if let Some(dst) = local_set_of(&w[1]) {
                return Some((Mop::LConst { c, dst }, 2));
            }
        }
        if let Some(op) = BinOp::of(&w[0]) {
            if let Some(dst) = local_set_of(&w[1]) {
                return Some((Mop::BinSet { dst, op }, 2));
            }
            if let Some(depth) = br_if_of(&w[1]) {
                if op.result_is_i32() {
                    return Some((Mop::CmpBr { op, depth }, 2));
                }
            }
        }
        if let Some(un) = UnOp::of(&w[0]) {
            if let Some(depth) = br_if_of(&w[1]) {
                if un.result_is_i32() {
                    return Some((Mop::UnBr { un, depth }, 2));
                }
            }
        }
    }
    None
}

/// Translate one instruction to its singleton micro-op. Control targets
/// are patched afterwards from the side table.
fn singleton(i: &Instr, module: &Module) -> Mop {
    if let Some(op) = BinOp::of(i) {
        return Mop::Bin(op);
    }
    if let Some(un) = UnOp::of(i) {
        return Mop::Un(un);
    }
    if let Some((kind, offset)) = LoadKind::of(i) {
        return Mop::Load { kind, offset };
    }
    if let Some((kind, offset)) = StoreKind::of(i) {
        return Mop::Store { kind, offset };
    }
    if let Some(c) = const_bits_of(i) {
        return Mop::Const(c);
    }
    match i {
        Instr::Unreachable => Mop::Unreachable,
        Instr::Nop => Mop::Nop,
        Instr::Block(bt) => Mop::Block {
            after_end: NO_PC,
            arity: bt.arity() as u8,
        },
        Instr::Loop(_) => Mop::Loop { after_end: NO_PC },
        Instr::If(bt) => Mop::If {
            after_end: NO_PC,
            else_skip: NO_PC,
            arity: bt.arity() as u8,
        },
        Instr::Else => Mop::Else,
        Instr::End => Mop::End,
        Instr::Br(d) => Mop::Br(*d),
        Instr::BrIf(d) => Mop::BrIf(*d),
        Instr::BrTable(targets, default) => {
            Mop::BrTable(targets.clone().into_boxed_slice(), *default)
        }
        Instr::Return => Mop::Return,
        Instr::Call(f) => Mop::Call(*f),
        Instr::CallIndirect(t) => Mop::CallIndirect(*t),
        Instr::Drop => Mop::Drop,
        Instr::Select => Mop::Select,
        Instr::LocalGet(x) => Mop::LocalGet(*x),
        Instr::LocalSet(x) => Mop::LocalSet(*x),
        Instr::LocalTee(x) => Mop::LocalTee(*x),
        Instr::GlobalGet(x) => Mop::GlobalGet(*x),
        Instr::GlobalSet(x) => Mop::GlobalSet {
            idx: *x,
            ty: module.globals[*x as usize].ty.ty,
        },
        Instr::MemorySize => Mop::MemorySize,
        Instr::MemoryGrow => Mop::MemoryGrow,
        _ => unreachable!("covered by BinOp/UnOp/load/store/const lifts"),
    }
}

/// Lower one flat body to micro-ops.
///
/// Pass 1 greedily matches fused patterns when `fuse` is on (falling back
/// to singletons; with `fuse` off every instruction is a singleton),
/// never past the next region head, and records the micro-op index of
/// every source pc. Pass 2 patches the structured-control targets
/// (`after_end`, `else_skip`) from the side table, translating
/// instruction pcs to micro-op indices. The regions are cut from the
/// source instructions; each head's micro-op carries its region, so both
/// settings run the same regions.
pub(crate) fn lower(body: &[Instr], side: &SideTable, module: &Module, fuse: bool) -> LoweredFunc {
    let n = body.len();
    let is_head = region_heads(body, side);
    let mut code: Vec<Mop> = Vec::with_capacity(n);
    let mut mop_of: Vec<u32> = vec![NO_PC; n + 1];
    let (mut pc, mut limit) = (0usize, 0usize);
    while pc < n {
        if limit <= pc {
            limit = (pc + 1..n).find(|&p| is_head[p]).unwrap_or(n);
        }
        mop_of[pc] = code.len() as u32;
        let fused = if fuse {
            match_fused(&body[pc..limit])
        } else {
            None
        };
        if let Some((mop, len)) = fused {
            code.push(mop);
            pc += len;
        } else {
            code.push(singleton(&body[pc], module));
            pc += 1;
        }
    }
    mop_of[n] = code.len() as u32;
    for (pc, instr) in body.iter().enumerate() {
        match instr {
            Instr::Block(_) | Instr::Loop(_) | Instr::If(_) => {
                let end_pc = side.end_of[pc] as usize;
                let idx = mop_of[pc] as usize;
                // `end` is always a singleton, so the op after it is at
                // the next micro-op index.
                let after_end = mop_of[end_pc] + 1;
                match &mut code[idx] {
                    Mop::Block { after_end: t, .. } | Mop::Loop { after_end: t } => {
                        *t = after_end;
                    }
                    Mop::If {
                        after_end: t,
                        else_skip,
                        ..
                    } => {
                        *t = after_end;
                        if side.else_of[pc] != NO_PC {
                            // `else` is always a singleton too.
                            *else_skip = mop_of[side.else_of[pc] as usize] + 1;
                        }
                    }
                    other => unreachable!("opener lowered to {other:?}"),
                }
            }
            _ => {}
        }
    }
    let regions = RegionTable::build(&is_head, |pc| {
        Some((classify(&body[pc]), arith_kind(&body[pc])))
    });
    // Fused code is shorter than the body it was sized for, and lives as
    // long as its cached artifact.
    code.shrink_to_fit();
    let mut heads = vec![NO_PC; code.len()];
    for r in 0..regions.len() {
        heads[mop_of[regions.range(r).start] as usize] = r as u32;
    }
    LoweredFunc {
        code,
        heads,
        regions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prep::PreparedModule;
    use wb_wasm::leb128::write_u32;
    use wb_wasm::{BlockType, Instr, MemArg};

    fn lower_body(body: Vec<Instr>) -> LoweredFunc {
        lower_body_with(body, true)
    }

    fn lower_body_with(body: Vec<Instr>, fuse: bool) -> LoweredFunc {
        let module = Module {
            functions: vec![wb_wasm::Function {
                type_index: 0,
                locals: vec![ValType::I32; 4],
                body,
                name: None,
            }],
            types: vec![wb_wasm::FuncType {
                params: vec![],
                results: vec![],
            }],
            ..Default::default()
        };
        let prepared = PreparedModule::new(module);
        lower(
            &prepared.module.functions[0].body,
            &prepared.side_tables[0],
            &prepared.module,
            fuse,
        )
    }

    /// Decode raw instruction bytes, through the real decoder, as the body
    /// of a one-function module.
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
    fn every_numeric_instruction_lifts_to_exactly_one_operator() {
        let numeric: Vec<u8> = (0x45..=0xbf).collect();
        let instrs = decode_body(&numeric);
        assert_eq!(instrs.len(), 123);
        for i in &instrs {
            let (bin, un) = (BinOp::of(i), UnOp::of(i));
            assert!(
                bin.is_some() != un.is_some(),
                "{i:?} lifts to {bin:?} and {un:?}"
            );
        }
        assert_eq!(BinOp::ALL.len() + UnOp::ALL.len(), instrs.len());
    }

    #[test]
    fn every_memory_access_lifts_with_its_offset() {
        let mut code = Vec::new();
        for opcode in 0x28..=0x3e_u8 {
            code.extend([opcode, 0x00]);
            write_u32(&mut code, 1000 + u32::from(opcode));
        }
        let instrs = decode_body(&code);
        assert_eq!(instrs.len(), 23);
        for (i, opcode) in instrs.iter().zip(0x28..=0x3e_u64) {
            let offset = 1000 + opcode;
            match (LoadKind::of(i), StoreKind::of(i)) {
                (Some((_, off)), None) if opcode <= 0x35 => assert_eq!(off, offset, "{i:?}"),
                (None, Some((_, off))) if opcode >= 0x36 => assert_eq!(off, offset, "{i:?}"),
                lifted => panic!("{i:?} lifts to {lifted:?}"),
            }
        }
        assert_eq!(LoadKind::ALL.len() + StoreKind::ALL.len(), instrs.len());
    }

    #[test]
    fn every_lift_round_trips() {
        for op in BinOp::ALL {
            assert_eq!(BinOp::of(&op.instr()), Some(op));
        }
        for un in UnOp::ALL {
            assert_eq!(UnOp::of(&un.instr()), Some(un));
        }
        for kind in LoadKind::ALL {
            assert_eq!(LoadKind::of(&kind.instr(7)), Some((kind, 7)));
        }
        for kind in StoreKind::ALL {
            assert_eq!(StoreKind::of(&kind.instr(7)), Some((kind, 7)));
        }
    }

    #[test]
    fn result_is_i32_agrees_with_the_validator() {
        // `br_if` type-checks only on an i32 condition, and one of the four
        // parameter types is the operator's operand type.
        let feeds_br_if = |op: Instr, arity: usize| {
            [ValType::I32, ValType::I64, ValType::F32, ValType::F64]
                .into_iter()
                .any(|t| {
                    let mut body = vec![Instr::LocalGet(0); arity];
                    body.extend([op.clone(), Instr::BrIf(0), Instr::End]);
                    let module = Module {
                        functions: vec![wb_wasm::Function {
                            type_index: 0,
                            locals: vec![],
                            body,
                            name: None,
                        }],
                        types: vec![wb_wasm::FuncType {
                            params: vec![t],
                            results: vec![],
                        }],
                        ..Default::default()
                    };
                    wb_wasm::validate(&module).is_ok()
                })
        };
        for op in BinOp::ALL {
            assert_eq!(op.result_is_i32(), feeds_br_if(op.instr(), 2), "{op:?}");
        }
        for un in UnOp::ALL {
            assert_eq!(un.result_is_i32(), feeds_br_if(un.instr(), 1), "{un:?}");
        }
    }

    #[test]
    fn fuses_local_local_bin_set() {
        let f = lower_body(vec![
            Instr::LocalGet(0),
            Instr::LocalGet(1),
            Instr::I32Add,
            Instr::LocalSet(2),
            Instr::End,
        ]);
        assert_eq!(
            f.code,
            vec![
                Mop::LLBinSet {
                    a: 0,
                    b: 1,
                    dst: 2,
                    op: BinOp::I32Add
                },
                Mop::End,
            ]
        );
    }

    #[test]
    fn fuses_counter_increment() {
        // The canonical loop-counter idiom from the MiniC backend.
        let f = lower_body(vec![
            Instr::LocalGet(3),
            Instr::I32Const(1),
            Instr::I32Add,
            Instr::LocalSet(3),
            Instr::End,
        ]);
        assert_eq!(
            f.code,
            vec![
                Mop::LCBinSet {
                    a: 3,
                    c: 1,
                    dst: 3,
                    op: BinOp::I32Add
                },
                Mop::End,
            ]
        );
    }

    #[test]
    fn fuses_cmp_br_if() {
        let f = lower_body(vec![
            Instr::Block(BlockType::Empty),
            Instr::LocalGet(0),
            Instr::LocalGet(1),
            Instr::I32GeU,
            Instr::BrIf(0),
            Instr::End,
            Instr::End,
        ]);
        assert_eq!(
            f.code,
            vec![
                Mop::Block {
                    after_end: 3,
                    arity: 0
                },
                Mop::LLCmpBr {
                    a: 0,
                    b: 1,
                    op: BinOp::I32GeU,
                    depth: 0
                },
                Mop::End,
                Mop::End,
            ]
        );
    }

    #[test]
    fn fuses_local_load_and_local_local_store() {
        let m = MemArg {
            align: 0,
            offset: 8,
        };
        let f = lower_body(vec![
            Instr::LocalGet(0),
            Instr::I32Load8U(m),
            Instr::Drop,
            Instr::LocalGet(0),
            Instr::LocalGet(1),
            Instr::I32Store(m),
            Instr::End,
        ]);
        assert_eq!(
            f.code,
            vec![
                Mop::LLoad {
                    a: 0,
                    kind: LoadKind::I32U8,
                    offset: 8
                },
                Mop::Drop,
                Mop::LLStore {
                    a: 0,
                    b: 1,
                    kind: StoreKind::I32,
                    offset: 8
                },
                Mop::End,
            ]
        );
    }

    #[test]
    fn fuses_eqz_br_if_and_stack_lhs_patterns() {
        let f = lower_body(vec![
            Instr::Block(BlockType::Empty),
            Instr::LocalGet(0),
            Instr::I32Eqz,
            Instr::BrIf(0),
            Instr::GlobalGet(0),
            Instr::I32Const(7),
            Instr::I32Mul,
            Instr::LocalSet(1),
            Instr::End,
            Instr::End,
        ]);
        assert_eq!(
            f.code,
            vec![
                Mop::Block {
                    after_end: 5,
                    arity: 0
                },
                Mop::LUnBr {
                    a: 0,
                    un: UnOp::I32Eqz,
                    depth: 0
                },
                Mop::GlobalGet(0),
                Mop::CBinSet {
                    c: 7,
                    dst: 1,
                    op: BinOp::I32Mul
                },
                Mop::End,
                Mop::End,
            ]
        );
    }

    #[test]
    fn loop_and_if_targets_are_micro_op_indices() {
        let f = lower_body(vec![
            Instr::Loop(BlockType::Empty), // 0 -> mop 0
            Instr::LocalGet(0),            // 1 ┐
            Instr::I32Eqz,                 // 2 ├ mop 1 (LUnBr)
            Instr::BrIf(1),                // 3 ┘  (wildly typed, but shape is what matters)
            Instr::If(BlockType::Empty),   // 4 -> mop 2 (consumes a cond in real code)
            Instr::Nop,                    // 5 -> mop 3
            Instr::Else,                   // 6 -> mop 4
            Instr::Nop,                    // 7 -> mop 5
            Instr::End,                    // 8 -> mop 6 (closes if)
            Instr::Br(0),                  // 9 -> mop 7
            Instr::End,                    // 10 -> mop 8 (closes loop)
            Instr::End,                    // 11 -> mop 9
        ]);
        assert_eq!(f.code.len(), 10);
        assert_eq!(f.code[0], Mop::Loop { after_end: 9 });
        assert_eq!(
            f.code[2],
            Mop::If {
                after_end: 7,
                else_skip: 5,
                arity: 0
            }
        );
    }

    #[test]
    fn never_fuses_across_control_instructions() {
        // `local.get` right before `end`: the would-be partner on the
        // other side of `end` must not be swallowed.
        let f = lower_body(vec![
            Instr::Block(BlockType::Value(ValType::I32)),
            Instr::LocalGet(0),
            Instr::End,
            Instr::LocalSet(1),
            Instr::End,
        ]);
        assert_eq!(
            f.code,
            vec![
                Mop::Block {
                    after_end: 3,
                    arity: 1
                },
                Mop::LocalGet(0),
                Mop::End,
                Mop::LocalSet(1),
                Mop::End,
            ]
        );
    }

    #[test]
    fn regions_start_at_every_branch_target_and_after_every_exit() {
        // Nested control of every kind, a counted loop with a fused
        // back-edge test, a call, a `br_table` and an early return.
        use Instr::*;
        let body = vec![
            Block(BlockType::Empty), // 0
            Loop(BlockType::Empty),  // 1
            LocalGet(0),             // 2
            LocalGet(1),             // 3
            I32GeS,                  // 4
            BrIf(1),                 // 5 exits the block
            LocalGet(0),             // 6
            If(BlockType::Empty),    // 7
            Call(0),                 // 8
            Else,                    // 9
            LocalGet(2),             // 10
            BrTable(vec![0, 1], 2),  // 11
            End,                     // 12 closes if
            LocalGet(0),             // 13
            I32Const(1),             // 14
            I32Add,                  // 15
            LocalSet(0),             // 16
            Br(0),                   // 17 back-edge
            End,                     // 18 closes loop
            End,                     // 19 closes block
            LocalGet(0),             // 20
            If(BlockType::Empty),    // 21
            Return,                  // 22
            End,                     // 23
            Nop,                     // 24
            End,                     // 25
        ];
        for fuse in [true, false] {
            let f = lower_body_with(body.clone(), fuse);
            let head = |pc: usize| f.heads.get(pc).is_some_and(|&r| r != NO_PC);
            // Follow the structured control the way `take_branch` does.
            let mut ctrl: Vec<(usize, usize, bool)> = Vec::new(); // (restart, after_end, loop)
            let target = |ctrl: &Vec<(usize, usize, bool)>, d: u32| {
                let (restart, after_end, is_loop) = ctrl[ctrl.len() - 1 - d as usize];
                if is_loop {
                    restart
                } else {
                    after_end
                }
            };
            for (pc, mop) in f.code.iter().enumerate() {
                let mut targets = Vec::new();
                let mut exits = false;
                match mop {
                    Mop::Block { after_end, .. } => ctrl.push((0, *after_end as usize, false)),
                    Mop::Loop { after_end } => ctrl.push((pc + 1, *after_end as usize, true)),
                    Mop::If {
                        after_end,
                        else_skip,
                        ..
                    } => {
                        ctrl.push((0, *after_end as usize, false));
                        targets.push(match *else_skip {
                            NO_PC => *after_end as usize,
                            e => e as usize,
                        });
                        exits = true;
                    }
                    Mop::Else => {
                        targets.push(ctrl.last().unwrap().1);
                        exits = true;
                    }
                    Mop::End => {
                        ctrl.pop();
                    }
                    Mop::Br(d) | Mop::BrIf(d) | Mop::LLCmpBr { depth: d, .. } => {
                        targets.push(target(&ctrl, *d));
                        exits = true;
                    }
                    Mop::BrTable(ds, default) => {
                        targets.extend(ds.iter().chain([default]).map(|d| target(&ctrl, *d)));
                        exits = true;
                    }
                    Mop::Call(_) | Mop::Return => exits = true,
                    _ => {}
                }
                for t in targets {
                    assert!(
                        head(t),
                        "fuse={fuse}: target {t} of {pc} ({mop:?}) heads no region"
                    );
                }
                if exits {
                    assert!(
                        head(pc + 1),
                        "fuse={fuse}: {pc} ({mop:?}) does not end a region"
                    );
                }
            }
            // Regions partition the body; the fused loop test is one op
            // and lies inside its region.
            let steps: u32 = (0..f.regions.len()).map(|r| f.regions.steps(r)).sum();
            assert_eq!(steps as usize, body.len());
            assert_eq!(f.regions.range(0), 0..2, "the loop body is a branch target");
            assert!(head(0) && !head(1));
            if fuse {
                assert!(f.code.iter().any(|m| matches!(m, Mop::LLCmpBr { .. })));
            }
        }
    }

    #[test]
    fn widths_sum_to_body_length() {
        let body = vec![
            Instr::Block(BlockType::Empty),
            Instr::LocalGet(0),
            Instr::LocalGet(1),
            Instr::I32GeU,
            Instr::BrIf(0),
            Instr::LocalGet(2),
            Instr::I32Const(1),
            Instr::I32Add,
            Instr::LocalSet(2),
            Instr::LocalGet(0),
            Instr::F64Const(1.5),
            Instr::F64Mul,
            Instr::End,
            Instr::End,
        ];
        let n = body.len();
        let f = lower_body(body.clone());
        assert_eq!(f.code.iter().map(|m| m.width()).sum::<usize>(), n);
        assert!(f.code.len() < body.len(), "fusion on fuses");
        // Fusion off (`reference_exec`): one singleton op per instruction.
        let f = lower_body_with(body.clone(), false);
        assert_eq!(f.code.len(), body.len());
        assert!(f.code.iter().all(|m| m.width() == 1), "{:?}", f.code);
    }
}
