//! Lowering: flat function bodies → micro-ops, fused or not.
//!
//! The one dispatch loop in `exec.rs` runs a stream of [`Mop`] micro-ops.
//! This module lowers a body once (per prepared module and fusion
//! setting, lazily, on first execution) into that stream, in which
//!
//! * only instructions that do work are lowered: a `nop`, `block`, `loop`
//!   or `end` leaves the stream, unless the next instruction heads a
//!   region, and then it is one [`Mop::Fall`] that enters that region,
//! * with fusion on, common short sequences are **fused** into a single
//!   op (`local.get local.get binop local.set`, `const binop`,
//!   `i32.eqz br_if`, `local.get load`, …) with immediates inlined; with
//!   it off (`reference_exec`), every other instruction becomes its
//!   singleton op,
//! * operand types are baked in at lowering time so execution runs over
//!   an **untagged `u64` stack** (i32 zero-extended, floats as raw bits),
//! * every branch (`br`, each `br_table` arm, `br_if`, the exits of
//!   `if` and `else`) is resolved once ([`resolve_labels`]) to a
//!   [`Target`]: the micro-op it continues at, the stack height at its
//!   label (from the validator, [`wb_wasm::label_heights`]), the values it
//!   keeps and whether it is a loop back-edge; the branch micro-op holds
//!   the target's index in [`LoweredFunc::targets`], so execution keeps
//!   no control stack,
//! * the body is cut into regions ([`region_heads`], which reads the same
//!   resolved targets), each with its instruction count and class and
//!   Table 12 counts stored once; the micro-op at each head carries its
//!   region ([`LoweredFunc::heads`]) and every micro-op the source
//!   position of its first instruction ([`LoweredFunc::pos`]), which is
//!   how a trap finds the instruction that trapped.
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
//! inside one region. A dropped instruction is never followed by a head,
//! so the micro-op after it lies in its region and a branch to it enters
//! that region there.
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
use crate::trap::Trap;
use crate::value::Value;
use wb_env::{OpClass, RegionTable};
use wb_wasm::{Function, Instr, MemArg, Module, ValType};

/// Sentinel for "no micro-op": at a micro-op that heads no region, and as
/// the target of a branch to the function's own label, which returns.
pub(crate) const NO_PC: u32 = u32::MAX;

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
/// i32, evaluated at compile time from `classify.rs`; a `[cfg(test)]`
/// after the name keeps that last item to the tests, for a family no
/// fused branch carries. The family keeps no charge table: what an
/// operator costs is counted by the region it runs in, from its source
/// instruction.
macro_rules! lifted_ops {
    ($(#[$doc:meta])* $family:ident $([$gate:meta])? { $($op:ident),* $(,)? }) => {
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
            $(#[$gate])?
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
            $(#[$gate])?
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
    BinOp [cfg(test)] {
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
/// `ALL`, and the lifts `of`/`instr`, which carry the static offset; a
/// `[cfg(test)]` after the name keeps `ALL` and `instr` to the tests, for
/// a family no fused op carries.
macro_rules! memory_ops {
    ($(#[$doc:meta])* $family:ident $([$gate:meta])? { $($kind:ident = $instr:ident),* $(,)? }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[allow(missing_docs)]
        pub(crate) enum $family {
            $($kind),*
        }

        impl $family {
            /// Every kind of the family, in declaration order.
            $(#[$gate])?
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
            $(#[$gate])?
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
    StoreKind [cfg(test)] {
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

/// One micro-op. Singleton variants mirror [`Instr`] one-to-one, except
/// that every branch holds the index of its resolved [`Target`] in
/// [`LoweredFunc::targets`], the function's final `end` is a `Return`
/// and no-op control is dropped or kept as [`Mop::Fall`]; the variants
/// after the marker comment are fused superinstructions.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub(crate) enum Mop {
    Unreachable,
    /// A `loop` or `end` kept because the next instruction heads a
    /// region: falls through into it. Every other `nop`, `block`,
    /// `loop` and `end` does no work and leaves the stream.
    Fall,
    /// Continues at its target when the condition is false: the `else`
    /// arm, or past the `end` when there is none.
    If(u32),
    /// Reached at the end of a then-arm: continues past the `end`.
    Else(u32),
    Br(u32),
    BrIf(u32),
    /// The first of the arms' consecutive targets and the number of arms
    /// before the default, which is the last.
    BrTable(u32, u32),
    Return,
    Call(u32),
    CallIndirect(u32),
    Drop,
    Select,
    LocalGet(u32),
    LocalSet(u32),
    LocalTee(u32),
    GlobalGet(u32),
    GlobalSet(u32),
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
    /// `unop; br_if` (the compiler's `cmp; i32.eqz; br_if` loop exit)
    UnBr {
        un: UnOp,
        target: u32,
    },
    /// `local.get a; load`
    LLoad {
        a: u32,
        kind: LoadKind,
        offset: u64,
    },
}

/// Where a branch goes, resolved once at lowering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Target {
    /// The micro-op the branch continues at (a source pc until `lower`
    /// maps it), or [`NO_PC`] for the function's own label: the branch
    /// returns.
    pub(crate) pc: u32,
    /// Stack slots above the frame base that stay below the kept values:
    /// the locals plus the label's operand height.
    pub(crate) height: u32,
    /// Values the branch carries to its label (at most one in the MVP).
    pub(crate) keep: u8,
    /// A loop back-edge, which notes hotness and so may move the band.
    pub(crate) back_edge: bool,
}

/// Every branch of a body, resolved in one pass over it.
pub(crate) struct Labels {
    /// The targets in source order, at source pcs; a `br_table`'s arms
    /// are consecutive, its default last.
    pub(crate) targets: Vec<Target>,
    /// Per source pc, the index in `targets` of the instruction's (first)
    /// target ([`NO_PC`] where it does not branch).
    pub(crate) first: Vec<u32>,
}

/// Resolve every branch of `body`: `br` and `br_if` to relative depth
/// `d`, each `br_table` arm, an `if`'s false edge (its `else` arm, or past
/// its `end`) and the `else` that ends a then-arm. A branch to a loop goes
/// back to the loop's body; one to a block or `if` goes past its `end`
/// (patched when the `end` is reached); one to the function's own label
/// returns. `heights` is the validator's operand height at each opener
/// ([`wb_wasm::label_heights`]), `nlocals` the function's parameters plus
/// locals and `results` its result arity.
pub(crate) fn resolve_labels(body: &[Instr], heights: &[u32], nlocals: u32, results: u8) -> Labels {
    // The enclosing labels' openers, innermost last, each with the targets
    // that wait for its `end` (an `if`'s false edge first, until `else`).
    let mut open: Vec<(usize, Vec<usize>)> = Vec::new();
    let (mut targets, mut first) = (Vec::new(), vec![NO_PC; body.len()]);
    // A branch past the `end` of the label `opener` opens.
    let forward = |opener: usize| Target {
        pc: NO_PC,
        height: nlocals + heights[opener],
        keep: match &body[opener] {
            Instr::Block(bt) | Instr::If(bt) => bt.arity() as u8,
            _ => 0,
        },
        back_edge: false,
    };
    for (pc, instr) in body.iter().enumerate() {
        let next = targets.len();
        match instr {
            Instr::Block(_) | Instr::Loop(_) => open.push((pc, Vec::new())),
            Instr::If(_) => {
                targets.push(Target {
                    keep: 0,
                    ..forward(pc)
                });
                open.push((pc, vec![next]));
            }
            Instr::Else => {
                if let Some((opener, exits)) = open.last_mut() {
                    targets[exits.remove(0)].pc = pc as u32 + 1;
                    exits.push(next);
                    targets.push(forward(*opener));
                }
            }
            Instr::End => {
                for t in open.pop().map(|(_, exits)| exits).unwrap_or_default() {
                    targets[t].pc = pc as u32 + 1;
                }
            }
            Instr::Br(d) | Instr::BrIf(d) | Instr::BrTable(_, d) => {
                let arms = match instr {
                    Instr::BrTable(ds, _) => ds.as_slice(),
                    _ => &[],
                };
                for &d in arms.iter().chain([d]) {
                    let label = open.len().checked_sub(1 + d as usize);
                    targets.push(match label.map(|i| &mut open[i]) {
                        None => Target {
                            pc: NO_PC,
                            height: 0,
                            keep: results,
                            back_edge: false,
                        },
                        Some((opener, _)) if matches!(body[*opener], Instr::Loop(_)) => Target {
                            pc: *opener as u32 + 1,
                            back_edge: true,
                            ..forward(*opener)
                        },
                        Some((opener, exits)) => {
                            exits.push(targets.len());
                            forward(*opener)
                        }
                    });
                }
            }
            _ => continue,
        }
        if next < targets.len() {
            first[pc] = next as u32;
        }
    }
    Labels { targets, first }
}

/// A function body lowered to micro-ops.
#[derive(Debug)]
pub(crate) struct LoweredFunc {
    /// The micro-op stream.
    pub(crate) code: Vec<Mop>,
    /// Per micro-op, the source position of its first instruction: a
    /// trap settles its region through the constituent that trapped.
    pub(crate) pos: Vec<u32>,
    /// The branch targets, at micro-op indices; branch micro-ops hold
    /// indices into this table.
    pub(crate) targets: Vec<Target>,
    /// Per micro-op, the region it heads ([`NO_PC`] where none starts).
    pub(crate) heads: Vec<u32>,
    /// Each region's source-instruction range and class and Table 12
    /// counts, in source order.
    pub(crate) regions: RegionTable,
    /// The frame: parameters, then zeroed locals, then operands.
    pub(crate) params: u32,
    pub(crate) locals: u32,
    /// Whether the function returns a value.
    pub(crate) result: bool,
}

/// Where regions start, by source pc: at pc 0; at every branch target (a
/// targeted loop's body, a targeted block's or if's `end + 1`, an else
/// arm), as [`resolve_labels`] resolved them; and after every branch,
/// call, return and `unreachable`. Every op that can leave a region by
/// jumping is a branch, so a region, once entered, retires every one of
/// its instructions unless one traps.
pub(crate) fn region_heads(body: &[Instr], labels: &Labels) -> Vec<bool> {
    let mut heads = vec![false; body.len()];
    heads[0] = true;
    for t in &labels.targets {
        if let Some(h) = heads.get_mut(t.pc as usize) {
            *h = true;
        }
    }
    for (pc, instr) in body.iter().enumerate() {
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
            if let Some(h) = heads.get_mut(pc + 1) {
                *h = true;
            }
        }
    }
    heads
}

/// Try to recognize a fused pattern starting at `w[0]`; returns the fused
/// op and the number of source instructions consumed. `first` is
/// [`Labels::first`] over `w`: a group that ends in a `br_if` takes its
/// target.
pub(crate) fn match_fused(w: &[Instr], first: &[u32]) -> Option<(Mop, usize)> {
    // Longest patterns first. Every constituent past the first is a
    // data/branch instruction, never a control opener/closer, so no group
    // can swallow a branch target (see module docs).
    if w.len() >= 4 {
        if let (Some(a), Some(op), Some(dst)) =
            (local_get_of(&w[0]), BinOp::of(&w[2]), local_set_of(&w[3]))
        {
            if let Some(b) = local_get_of(&w[1]) {
                return Some((Mop::LLBinSet { a, b, dst, op }, 4));
            }
            if let Some(c) = const_bits_of(&w[1]) {
                return Some((Mop::LCBinSet { a, c, dst, op }, 4));
            }
        }
    }
    if w.len() >= 3 {
        if let (Some(a), Some(op)) = (local_get_of(&w[0]), BinOp::of(&w[2])) {
            if let Some(b) = local_get_of(&w[1]) {
                return Some((Mop::LLBin { a, b, op }, 3));
            }
            if let Some(c) = const_bits_of(&w[1]) {
                return Some((Mop::LCBin { a, c, op }, 3));
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
        }
        if let (Some(un), Instr::BrIf(_)) = (UnOp::of(&w[0]), &w[1]) {
            if un.result_is_i32() {
                return Some((
                    Mop::UnBr {
                        un,
                        target: first[1],
                    },
                    2,
                ));
            }
        }
    }
    None
}

/// Translate one instruction to its singleton micro-op; a branch takes
/// `target`, its index in [`Labels::targets`].
fn singleton(i: &Instr, target: u32) -> Mop {
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
        Instr::Nop | Instr::Block(_) | Instr::Loop(_) | Instr::End => Mop::Fall,
        Instr::If(_) => Mop::If(target),
        Instr::Else => Mop::Else(target),
        Instr::Br(_) => Mop::Br(target),
        Instr::BrIf(_) => Mop::BrIf(target),
        Instr::BrTable(arms, _) => Mop::BrTable(target, arms.len() as u32),
        Instr::Return => Mop::Return,
        Instr::Call(f) => Mop::Call(*f),
        Instr::CallIndirect(t) => Mop::CallIndirect(*t),
        Instr::Drop => Mop::Drop,
        Instr::Select => Mop::Select,
        Instr::LocalGet(x) => Mop::LocalGet(*x),
        Instr::LocalSet(x) => Mop::LocalSet(*x),
        Instr::LocalTee(x) => Mop::LocalTee(*x),
        Instr::GlobalGet(x) => Mop::GlobalGet(*x),
        Instr::GlobalSet(x) => Mop::GlobalSet(*x),
        Instr::MemorySize => Mop::MemorySize,
        Instr::MemoryGrow => Mop::MemoryGrow,
        _ => unreachable!("covered by BinOp/UnOp/load/store/const lifts"),
    }
}

/// Lower one flat body to micro-ops that do work.
///
/// The branches are resolved first ([`resolve_labels`], over the
/// validator's `heights`) and the regions cut from them. A `nop`,
/// `block`, `loop` or `end` is dropped unless the next instruction heads
/// a region (then it is kept as [`Mop::Fall`]; `block` and `nop` never
/// precede a head). Then fused patterns are matched greedily when `fuse`
/// is on (falling back to singletons; with `fuse` off every other
/// instruction is a singleton), never past the next region head; each
/// branch micro-op takes the target of its branch instruction, and the
/// function's final `end` becomes a `Return`. Last, the targets move
/// from source pcs to micro-op indices. Each head's micro-op carries its
/// region, so both settings run the same regions.
pub(crate) fn lower(func: &Function, module: &Module, heights: &[u32], fuse: bool) -> LoweredFunc {
    let body = &func.body;
    let ty = &module.types[func.type_index as usize];
    let (params, locals) = (ty.params.len() as u32, func.locals.len() as u32);
    let labels = resolve_labels(body, heights, params + locals, ty.results.len() as u8);
    let n = body.len();
    let is_head = region_heads(body, &labels);
    let mut code: Vec<Mop> = Vec::with_capacity(n);
    let mut pos: Vec<u32> = Vec::with_capacity(n);
    let mut mop_of: Vec<u32> = vec![NO_PC; n + 1];
    let (mut pc, mut limit) = (0usize, 0usize);
    while pc < n {
        if limit <= pc {
            limit = (pc + 1..n).find(|&p| is_head[p]).unwrap_or(n);
        }
        // A dropped instruction maps to the next micro-op, which lies in
        // its region.
        mop_of[pc] = code.len() as u32;
        let instr = &body[pc];
        if pc + 1 < limit
            && matches!(
                instr,
                Instr::Nop | Instr::Block(_) | Instr::Loop(_) | Instr::End
            )
        {
            pc += 1;
            continue;
        }
        let fused = if fuse {
            match_fused(&body[pc..limit], &labels.first[pc..limit])
        } else {
            None
        };
        let (mop, len) = fused.unwrap_or_else(|| match instr {
            Instr::End if pc + 1 == n => (Mop::Return, 1),
            _ => (singleton(instr, labels.first[pc]), 1),
        });
        code.push(mop);
        pos.push(pc as u32);
        pc += len;
    }
    let targets = labels
        .targets
        .iter()
        .map(|t| Target {
            pc: mop_of.get(t.pc as usize).copied().unwrap_or(NO_PC),
            ..*t
        })
        .collect();
    let regions = RegionTable::build(&is_head, |pc| {
        Some((classify(&body[pc]), arith_kind(&body[pc])))
    });
    // Lowered code is shorter than the body it was sized for, and lives
    // as long as its cached artifact.
    code.shrink_to_fit();
    pos.shrink_to_fit();
    let mut heads = vec![NO_PC; code.len()];
    for r in 0..regions.len() {
        heads[mop_of[regions.range(r).start] as usize] = r as u32;
    }
    LoweredFunc {
        code,
        pos,
        targets,
        heads,
        regions,
        params,
        locals,
        result: !ty.results.is_empty(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wb_wasm::leb128::write_u32;
    use wb_wasm::{BlockType, Global, GlobalType, Instr, Limits, MemArg, MemorySpec};

    fn lower_body(body: Vec<Instr>) -> LoweredFunc {
        lower_body_with(body, true)
    }

    /// Lower `body` as a `[] -> []` function with i32 locals 0-2, f64
    /// local 3, a mutable i32 global and a memory; the body must validate.
    fn lower_body_with(body: Vec<Instr>, fuse: bool) -> LoweredFunc {
        let module = Module {
            functions: vec![wb_wasm::Function {
                type_index: 0,
                locals: vec![ValType::I32, ValType::I32, ValType::I32, ValType::F64],
                body,
                name: None,
            }],
            types: vec![wb_wasm::FuncType {
                params: vec![],
                results: vec![],
            }],
            globals: vec![Global {
                ty: GlobalType {
                    ty: ValType::I32,
                    mutable: true,
                },
                init: Instr::I32Const(0),
            }],
            memory: Some(MemorySpec {
                limits: Limits::at_least(1),
            }),
            ..Default::default()
        };
        let heights = wb_wasm::label_heights(&module, 0).expect("test bodies validate");
        lower(&module.functions[0], &module, &heights, fuse)
    }

    /// The target index a micro-op holds, if it branches.
    fn target_of(mop: &Mop) -> Option<u32> {
        use Mop::*;
        match *mop {
            If(t) | Else(t) | Br(t) | BrIf(t) | BrTable(t, _) | UnBr { target: t, .. } => Some(t),
            _ => None,
        }
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
                Mop::Return,
            ]
        );
    }

    #[test]
    fn fuses_counter_increment() {
        // The canonical loop-counter idiom from the MiniC backend.
        let f = lower_body(vec![
            Instr::LocalGet(2),
            Instr::I32Const(1),
            Instr::I32Add,
            Instr::LocalSet(2),
            Instr::End,
        ]);
        assert_eq!(
            f.code,
            vec![
                Mop::LCBinSet {
                    a: 2,
                    c: 1,
                    dst: 2,
                    op: BinOp::I32Add
                },
                Mop::Return,
            ]
        );
    }

    #[test]
    fn fuses_the_compilers_loop_exit() {
        // `cmp; i32.eqz; br_if`, as the MiniC backend emits a loop test:
        // the comparison fuses with its operands, the test with the
        // branch. The `block` falls into no region head and leaves the
        // stream; its `end` falls into the branch target and stays.
        let f = lower_body(vec![
            Instr::Block(BlockType::Empty),
            Instr::LocalGet(0),
            Instr::LocalGet(1),
            Instr::I32GeU,
            Instr::I32Eqz,
            Instr::BrIf(0),
            Instr::End,
            Instr::End,
        ]);
        assert_eq!(
            f.code,
            vec![
                Mop::LLBin {
                    a: 0,
                    b: 1,
                    op: BinOp::I32GeU
                },
                Mop::UnBr {
                    un: UnOp::I32Eqz,
                    target: 0
                },
                Mop::Fall,
                Mop::Return,
            ]
        );
        assert_eq!(f.pos, vec![1, 4, 6, 7]);
        // Past the block's `end`, at the height of the four locals.
        assert_eq!(
            f.targets,
            vec![Target {
                pc: 3,
                height: 4,
                keep: 0,
                back_edge: false
            }]
        );
    }

    #[test]
    fn fuses_local_load_but_not_a_store_of_two_locals() {
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
                Mop::LocalGet(0),
                Mop::LocalGet(1),
                Mop::Store {
                    kind: StoreKind::I32,
                    offset: 8
                },
                Mop::Return,
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
                Mop::LocalGet(0),
                Mop::UnBr {
                    un: UnOp::I32Eqz,
                    target: 0
                },
                Mop::GlobalGet(0),
                Mop::CBinSet {
                    c: 7,
                    dst: 1,
                    op: BinOp::I32Mul
                },
                Mop::Fall,
                Mop::Return,
            ]
        );
    }

    #[test]
    fn loop_and_if_targets_are_micro_op_indices() {
        let f = lower_body(vec![
            Instr::Loop(BlockType::Empty), // 0 -> mop 0 (falls into the body)
            Instr::LocalGet(0),            // 1 -> mop 1
            Instr::I32Eqz,                 // 2 ┐ mop 2 (UnBr: returns)
            Instr::BrIf(1),                // 3 ┘
            Instr::LocalGet(1),            // 4 -> mop 3
            Instr::If(BlockType::Empty),   // 5 -> mop 4
            Instr::Nop,                    // 6 dropped
            Instr::Else,                   // 7 -> mop 5
            Instr::Nop,                    // 8 dropped
            Instr::End,                    // 9 -> mop 6 (closes if, falls)
            Instr::Br(0),                  // 10 -> mop 7
            Instr::End,                    // 11 dropped (closes loop)
            Instr::End,                    // 12 -> mop 8
        ]);
        assert_eq!(f.code.len(), 9);
        assert_eq!(f.pos, vec![0, 1, 2, 4, 5, 7, 9, 10, 12]);
        let targets: Vec<_> = f.code.iter().filter_map(target_of).collect();
        assert_eq!(targets, vec![0, 1, 2, 3]);
        assert_eq!(f.code[0], Mop::Fall);
        assert_eq!(f.code[4], Mop::If(1));
        assert_eq!(f.code[5], Mop::Else(2));
        assert_eq!(f.code[6], Mop::Fall);
        assert_eq!(f.code[8], Mop::Return, "the final end returns");
        let to = |pc, back_edge| Target {
            pc,
            height: 4,
            keep: 0,
            back_edge,
        };
        let ret = Target {
            height: 0,
            ..to(NO_PC, false)
        };
        assert_eq!(
            f.targets,
            vec![ret, to(6, false), to(7, false), to(1, true)],
            "br_if 1 names the function's label; the if skips to its else arm, \
             whose dropped `nop` maps to the next micro-op, the else past the end; \
             br 0 goes back to the loop body"
        );
    }

    #[test]
    fn branches_keep_their_values_at_the_label_height() {
        use Instr::*;
        let i32_block = BlockType::Value(ValType::I32);
        let f = lower_body(vec![
            I32Const(1),             // 0 junk below both labels
            Block(i32_block),        // 1 label at operand height 1
            I32Const(2),             // 2 junk inside the outer block
            Block(BlockType::Empty), // 3 label at operand height 2
            LocalGet(0),             // 4
            BrTable(vec![0, 2], 0),  // 5 arms: inner block, function; default: inner
            End,                     // 6
            I32Const(4),             // 7
            Br(0),                   // 8 carries one value past 9, down to height 1
            End,                     // 9
            Drop,                    // 10
            Drop,                    // 11
            End,                     // 12
        ]);
        let to = |pc, height: u32, keep| Target {
            pc,
            height: 4 + height,
            keep,
            back_edge: false,
        };
        let ret = Target {
            height: 0,
            ..to(NO_PC, 0, 0)
        };
        // Nothing here fuses; the two `block`s drop, so each micro-op past
        // them is at most two behind its source pc.
        assert_eq!(f.pos, vec![0, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12]);
        assert_eq!(f.code[3], Mop::BrTable(0, 2));
        assert_eq!(f.code[6], Mop::Br(3));
        assert_eq!(f.targets, vec![to(5, 2, 0), ret, to(5, 2, 0), to(8, 1, 1)]);
    }

    #[test]
    fn else_binds_to_the_innermost_if() {
        use Instr::*;
        let body = vec![
            If(BlockType::Empty), // 0
            If(BlockType::Empty), // 1
            Else,                 // 2 -> if@1
            End,                  // 3
            Else,                 // 4 -> if@0
            End,                  // 5
            End,                  // 6
        ];
        let labels = resolve_labels(&body, &[0; 7], 0, 0);
        let pcs: Vec<u32> = labels.targets.iter().map(|t| t.pc).collect();
        // if@0 -> 5, if@1 -> 3, else@2 -> 4, else@4 -> 6.
        assert_eq!(pcs, vec![5, 3, 4, 6]);
        assert_eq!(labels.first, vec![0, 1, 2, NO_PC, 3, NO_PC, NO_PC]);
    }

    #[test]
    fn branch_micro_ops_stay_the_size_of_the_largest_op() {
        // A branch holds an index into its function's target table, so
        // resolving branches makes no micro-op bigger; lowered code lives
        // as long as its cached artifact.
        assert_eq!(std::mem::size_of::<Mop>(), 24);
        assert_eq!(std::mem::size_of::<Target>(), 12);
    }

    #[test]
    fn never_fuses_across_control_instructions() {
        // `local.get` right before `end`: the would-be partner on the
        // other side of `end` must not be swallowed, even where the `end`
        // itself leaves the stream.
        let f = lower_body(vec![
            Instr::Block(BlockType::Value(ValType::I32)),
            Instr::LocalGet(0),
            Instr::End,
            Instr::LocalSet(1),
            Instr::End,
        ]);
        assert_eq!(
            f.code,
            vec![Mop::LocalGet(0), Mop::LocalSet(1), Mop::Return]
        );
    }

    /// Nested control of every kind, a counted loop with a fused
    /// back-edge test, a call, a `br_table`, an early return and a `nop`.
    fn control_body() -> Vec<Instr> {
        use Instr::*;
        vec![
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
        ]
    }

    /// The source instructions micro-op `i` of `f` spans: from its
    /// position to the next micro-op's.
    fn span(f: &LoweredFunc, i: usize, n: usize) -> std::ops::Range<usize> {
        f.pos[i] as usize..f.pos.get(i + 1).map_or(n, |&p| p as usize)
    }

    #[test]
    fn regions_start_at_every_branch_target_and_after_every_exit() {
        use Instr::*;
        let body = control_body();
        // The matching `end` (or `else`) of the opener at `pc`.
        let close = |pc: usize, want_else: bool| {
            let mut depth = 0;
            (pc..body.len()).find(|&k| {
                match body[k] {
                    Block(_) | Loop(_) | If(_) => depth += 1,
                    End => depth -= 1,
                    Else if want_else && depth == 1 => return true,
                    _ => {}
                }
                depth == 0 && !want_else
            })
        };
        for fuse in [true, false] {
            let f = lower_body_with(body.clone(), fuse);
            let head = |pc: usize| f.heads.get(pc).is_some_and(|&r| r != NO_PC);
            // The micro-op a branch to source pc `p` continues at: the
            // first at or past it.
            let mop_at = |p: usize| f.pos.partition_point(|&q| (q as usize) < p) as u32;
            // Follow the structured control over the source, apart from
            // `resolve_labels`: the expected micro-op targets of each
            // branch instruction (NO_PC: it returns).
            let mut labels: Vec<usize> = Vec::new();
            let mut expected: Vec<Vec<u32>> = Vec::new();
            for (pc, instr) in body.iter().enumerate() {
                let past_end = |opener: usize| mop_at(close(opener, false).unwrap() + 1);
                let to = |labels: &[usize], d: u32| match labels.len().checked_sub(1 + d as usize) {
                    None => NO_PC,
                    Some(i) if matches!(body[labels[i]], Loop(_)) => mop_at(labels[i] + 1),
                    Some(i) => past_end(labels[i]),
                };
                let targets = match instr {
                    If(_) => vec![match close(pc, true) {
                        Some(e) => mop_at(e + 1),
                        None => past_end(pc),
                    }],
                    Else => vec![past_end(*labels.last().unwrap())],
                    Br(d) | BrIf(d) => vec![to(&labels, *d)],
                    BrTable(ds, d) => ds.iter().chain([d]).map(|d| to(&labels, *d)).collect(),
                    _ => vec![],
                };
                match instr {
                    Block(_) | Loop(_) | If(_) => labels.push(pc),
                    End => {
                        labels.pop();
                    }
                    _ => {}
                }
                expected.push(targets);
            }
            for (i, mop) in f.code.iter().enumerate() {
                let span = span(&f, i, body.len());
                let want: Vec<u32> = span.clone().flat_map(|k| expected[k].clone()).collect();
                let got: Vec<u32> = match (mop, target_of(mop)) {
                    (Mop::BrTable(_, arms), Some(t)) => {
                        (t..=t + arms).map(|t| f.targets[t as usize].pc).collect()
                    }
                    (_, Some(t)) => vec![f.targets[t as usize].pc],
                    (_, None) => vec![],
                };
                assert_eq!(got, want, "fuse={fuse}: targets of {i} ({mop:?})");
                for &t in &got {
                    assert!(
                        t == NO_PC || head(t as usize),
                        "fuse={fuse}: target {t} of {i} ({mop:?}) heads no region"
                    );
                }
                if body[span].iter().any(|instr| {
                    matches!(
                        instr,
                        If(_) | Else | Br(_) | BrIf(_) | BrTable(..) | Return | Call(_)
                    )
                }) {
                    assert!(
                        head(i + 1),
                        "fuse={fuse}: {i} ({mop:?}) does not end a region"
                    );
                }
            }
            // Regions partition the body; the fused loop test is one op
            // and lies inside its region.
            let steps: u32 = (0..f.regions.len()).map(|r| f.regions.steps(r)).sum();
            assert_eq!(steps as usize, body.len());
            assert_eq!(f.regions.range(0), 0..2, "the loop body is a branch target");
            assert_eq!(
                (&f.code[0], f.pos[0], f.heads[0]),
                (&Mop::Fall, 1, 0),
                "fuse={fuse}: the `block` drops; the `loop` heads region 0 and falls into the next"
            );
            if fuse {
                assert!(f.code.iter().any(|m| matches!(m, Mop::LLBin { .. })));
            }
        }
    }

    #[test]
    fn only_instructions_that_do_work_are_lowered() {
        use Instr::*;
        let body = control_body();
        let n = body.len();
        let no_op = |pc: usize| matches!(body[pc], Nop | Block(_) | Loop(_) | End);
        for fuse in [true, false] {
            let f = lower_body_with(body.clone(), fuse);
            let what = format!("fuse={fuse}");
            let starts: Vec<usize> = (0..f.regions.len())
                .map(|r| f.regions.range(r).start)
                .collect();
            let src_head = |pc: usize| starts.contains(&pc);
            // Positions strictly increase, one per micro-op, and the last
            // is the final `end`, which returns.
            assert_eq!(f.pos.len(), f.code.len(), "{what}");
            assert!(f.pos.windows(2).all(|w| w[0] < w[1]), "{what}: {:?}", f.pos);
            assert_eq!(f.pos.last(), Some(&(n as u32 - 1)), "{what}");
            assert_eq!(f.code.last(), Some(&Mop::Return), "{what}");
            // Before the first micro-op and after each group, only
            // dropped no-op control: a `nop`, `block`, `loop` or `end`
            // whose next instruction heads no region.
            let mut dropped: Vec<usize> = (0..f.pos[0] as usize).collect();
            for (i, mop) in f.code.iter().enumerate() {
                let span = span(&f, i, n);
                let at = span.start;
                let group = if *mop == Mop::Fall || at + 1 == n {
                    1
                } else {
                    assert!(!no_op(at), "{what}: {i} ({mop:?}) lowers no-op control");
                    span.clone().take_while(|&k| !no_op(k)).count()
                };
                if !fuse {
                    assert_eq!(group, 1, "{what}: {i} ({mop:?})");
                }
                if *mop == Mop::Fall {
                    assert!(no_op(at), "{what}: {i} falls from {:?}", body[at]);
                    assert!(
                        f.heads[i + 1] != NO_PC && src_head(at + 1),
                        "{what}: the `Fall` at {i} is followed by no region head"
                    );
                }
                dropped.extend(at + group..span.end);
            }
            for &pc in &dropped {
                assert!(
                    no_op(pc) && !src_head(pc + 1),
                    "{what}: dropped {pc} ({:?})",
                    body[pc]
                );
            }
            // The `block` at 0, the loop's `end` at 18 (nothing targets
            // the block's `end` after it) and the `nop` at 24 leave; the
            // `loop` and every other `end` fall into a region head.
            assert_eq!(dropped, vec![0, 18, 24], "{what}");
        }
    }
}
