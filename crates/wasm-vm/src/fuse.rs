//! Lowering: flat function bodies → micro-ops over frame slots.
//!
//! The one dispatch loop in `exec.rs` runs a stream of [`Mop`] micro-ops.
//! This module lowers a body once (per prepared module and fusion
//! setting, lazily, on first execution) into that stream, in which
//!
//! * every operand and result is a `u32` **slot** of the function's frame
//!   on the instance's untagged `u64` stack (i32 zero-extended, floats as
//!   raw bits), laid out `params | locals | constants | operands`: operand
//!   height `h` is slot `params + locals + constants + h`, with the
//!   heights and their peak from the validator
//!   ([`wb_wasm::operand_heights`]), and the body's distinct constants
//!   are stored once in [`LoweredFunc::frame_init`];
//! * one forward pass, the **operand resolver** ([`lower`]), keeps an
//!   abstract operand stack whose entries are the slots their values are
//!   in. With fusion on, `local.get` and a constant push the slot they
//!   already have and emit nothing, an operator reads its operands where
//!   they are and writes its own slot or the local a following
//!   `local.set`/`local.tee` names, and `i32.eqz` before a `br_if` or
//!   `if` flips the branch's test. A pending entry (one not in its own
//!   slot) is copied into its own slot before a region head that code
//!   falls into, a branch, a call, and any write to a local it reads.
//!   With fusion off (`reference_exec`) every push is copied at once, so
//!   every instruction that does work is one micro-op;
//! * every operator and every memory access kind is a micro-op of its
//!   own, named after its instruction: the one list [`operators!`] names
//!   each entry and writes its semantics once, and makes the families
//!   ([`BinOp`], [`UnOp`], [`LoadKind`], [`StoreKind`]), [`Mop`] and
//!   (in `exec.rs`) the entry's dispatch arm, so running a micro-op is
//!   one `match` on it; lowering builds an entry's micro-op from its
//!   [`Operation`], and [`Mop::operation`] reads it back;
//! * only instructions that do work are lowered: `nop`, `block` and
//!   `drop` leave the stream, a `loop` or `end` too unless the next
//!   instruction heads a region (then it is one [`Mop::Fall`] that
//!   enters that region), and so does code no branch reaches;
//! * every branch (`br`, each `br_table` arm, `br_if`, the exits of `if`
//!   and `else`) is resolved once ([`resolve_labels`]) to a [`Target`]:
//!   the micro-op it continues at, the slot of the value it carries and
//!   the slot at its label's height, and whether it is a loop back-edge;
//!   the branch micro-op holds the target's index in
//!   [`LoweredFunc::targets`], so execution keeps no control stack;
//! * the body is cut into regions ([`region_heads`], which reads the same
//!   resolved targets), each with its instruction count and class and
//!   Table 12 counts stored once; the micro-op at each head carries its
//!   region ([`LoweredFunc::heads`]) and every micro-op the source
//!   position of the instruction that emitted it ([`LoweredFunc::pos`]),
//!   which is how a trap finds the instruction that trapped.
//!
//! ## Why every region starts with its operands in place
//!
//! Every branch target in structured Wasm control flow is one of
//! `end+1`, `else+1` or `loop_opener+1`, a region head. The code that
//! falls into a head copies its pending entries out first, and so does
//! every branch, so wherever a region is entered from, each operand
//! below the head's height is in its own slot, and the resolver starts
//! the region from the validator's height with nothing pending. An
//! operator's micro-op is emitted at the operator's own position, so it
//! lies in the operator's region.
//!
//! ## Cost equivalence
//!
//! No micro-op charges anything of its own: the loop counts region
//! entries, and a region's counts come from its source instructions, cut
//! the same way with fusion on and off. Reading an operand in place
//! therefore retires exactly the counts of the `local.get` or constant
//! that pushed it, in the same band (a band crossing can only happen at
//! function entry and taken loop back-edges, which are region
//! boundaries), and a micro-op traps at its own instruction, charging its
//! region through it. See `DESIGN.md` §4 and §7.

use crate::classify::{arith_kind, classify};
use crate::value::Value;
use std::collections::HashMap;
use wb_env::RegionTable;
use wb_wasm::{FuncType, Function, Instr, MemArg, Module, OperandHeights, ValType};

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
pub(crate) fn u_i32(v: i32) -> u64 {
    v as u32 as u64
}

#[inline]
pub(crate) fn b_i32(x: u64) -> i32 {
    x as u32 as i32
}

#[inline]
pub(crate) fn u_f32(v: f32) -> u64 {
    v.to_bits() as u64
}

#[inline]
pub(crate) fn b_f32(x: u64) -> f32 {
    f32::from_bits(x as u32)
}

#[inline]
pub(crate) fn u_f64(v: f64) -> u64 {
    v.to_bits()
}

#[inline]
pub(crate) fn b_f64(x: u64) -> f64 {
    f64::from_bits(x)
}

/// The one list of lifted operators and memory accesses: each entry's
/// name is its micro-op's and, for an operator, the [`Instr`] it lifts
/// (a memory kind names its instruction after `=`), and its expression is
/// its Wasm MVP semantics on untagged bits. `operators!(m)` hands the list
/// to macro `m`: `define_operators!` below makes the families, their
/// lifts and [`Mop`] from it, and `exec.rs` makes one dispatch arm per
/// entry, where the expressions expand (so the helpers they name are
/// imported there).
///
/// * An operator's operands are bound to the names in its parentheses; its
///   expression is the result. An entry marked `traps` yields
///   `Result<u64, Trap>`, the rest a `u64` with no `Result`.
/// * A load binds the bytes it reads, as the typed value in its
///   parentheses (whose size is the access width), and its expression
///   widens that value to the slot's bits.
/// * A store binds the slot's bits, and its expression is the value it
///   writes (whose size is the access width). Every access traps out of
///   bounds.
macro_rules! operators {
    ($then:ident) => {
        $then! {
            BinOp {
                // i32 arithmetic / bitwise.
                I32Add(a, b) => u_i32(b_i32(a).wrapping_add(b_i32(b))),
                I32Sub(a, b) => u_i32(b_i32(a).wrapping_sub(b_i32(b))),
                I32Mul(a, b) => u_i32(b_i32(a).wrapping_mul(b_i32(b))),
                I32DivS(a, b) traps => match (b_i32(a), b_i32(b)) {
                    (_, 0) => Err(Trap::DivByZero),
                    (i32::MIN, -1) => Err(Trap::IntegerOverflow),
                    (a, b) => Ok(u_i32(a.wrapping_div(b))),
                },
                I32DivU(a, b) traps => {
                    (a as u32).checked_div(b as u32).map(u64::from).ok_or(Trap::DivByZero)
                },
                I32RemS(a, b) traps => match (b_i32(a), b_i32(b)) {
                    (_, 0) => Err(Trap::DivByZero),
                    (a, b) => Ok(u_i32(a.wrapping_rem(b))),
                },
                I32RemU(a, b) traps => {
                    (a as u32).checked_rem(b as u32).map(u64::from).ok_or(Trap::DivByZero)
                },
                I32And(a, b) => u_i32(b_i32(a) & b_i32(b)),
                I32Or(a, b) => u_i32(b_i32(a) | b_i32(b)),
                I32Xor(a, b) => u_i32(b_i32(a) ^ b_i32(b)),
                I32Shl(a, b) => u_i32(b_i32(a).wrapping_shl(b as u32)),
                I32ShrS(a, b) => u_i32(b_i32(a).wrapping_shr(b as u32)),
                I32ShrU(a, b) => u64::from((a as u32).wrapping_shr(b as u32)),
                I32Rotl(a, b) => u_i32(b_i32(a).rotate_left(b as u32 & 31)),
                I32Rotr(a, b) => u_i32(b_i32(a).rotate_right(b as u32 & 31)),
                // i32 comparisons.
                I32Eq(a, b) => (b_i32(a) == b_i32(b)) as u64,
                I32Ne(a, b) => (b_i32(a) != b_i32(b)) as u64,
                I32LtS(a, b) => (b_i32(a) < b_i32(b)) as u64,
                I32LtU(a, b) => ((a as u32) < (b as u32)) as u64,
                I32GtS(a, b) => (b_i32(a) > b_i32(b)) as u64,
                I32GtU(a, b) => ((a as u32) > (b as u32)) as u64,
                I32LeS(a, b) => (b_i32(a) <= b_i32(b)) as u64,
                I32LeU(a, b) => ((a as u32) <= (b as u32)) as u64,
                I32GeS(a, b) => (b_i32(a) >= b_i32(b)) as u64,
                I32GeU(a, b) => ((a as u32) >= (b as u32)) as u64,
                // i64 arithmetic / bitwise.
                I64Add(a, b) => a.wrapping_add(b),
                I64Sub(a, b) => a.wrapping_sub(b),
                I64Mul(a, b) => a.wrapping_mul(b),
                I64DivS(a, b) traps => match (a as i64, b as i64) {
                    (_, 0) => Err(Trap::DivByZero),
                    (i64::MIN, -1) => Err(Trap::IntegerOverflow),
                    (a, b) => Ok(a.wrapping_div(b) as u64),
                },
                I64DivU(a, b) traps => a.checked_div(b).ok_or(Trap::DivByZero),
                I64RemS(a, b) traps => match (a as i64, b as i64) {
                    (_, 0) => Err(Trap::DivByZero),
                    (a, b) => Ok(a.wrapping_rem(b) as u64),
                },
                I64RemU(a, b) traps => a.checked_rem(b).ok_or(Trap::DivByZero),
                I64And(a, b) => a & b,
                I64Or(a, b) => a | b,
                I64Xor(a, b) => a ^ b,
                I64Shl(a, b) => a.wrapping_shl(b as u32),
                I64ShrS(a, b) => (a as i64).wrapping_shr(b as u32) as u64,
                I64ShrU(a, b) => a.wrapping_shr(b as u32),
                I64Rotl(a, b) => a.rotate_left(b as u32 & 63),
                I64Rotr(a, b) => a.rotate_right(b as u32 & 63),
                // i64 comparisons.
                I64Eq(a, b) => (a == b) as u64,
                I64Ne(a, b) => (a != b) as u64,
                I64LtS(a, b) => ((a as i64) < (b as i64)) as u64,
                I64LtU(a, b) => (a < b) as u64,
                I64GtS(a, b) => ((a as i64) > (b as i64)) as u64,
                I64GtU(a, b) => (a > b) as u64,
                I64LeS(a, b) => ((a as i64) <= (b as i64)) as u64,
                I64LeU(a, b) => (a <= b) as u64,
                I64GeS(a, b) => ((a as i64) >= (b as i64)) as u64,
                I64GeU(a, b) => (a >= b) as u64,
                // f32: min and max widen exactly and narrow back.
                F32Add(a, b) => u_f32(b_f32(a) + b_f32(b)),
                F32Sub(a, b) => u_f32(b_f32(a) - b_f32(b)),
                F32Mul(a, b) => u_f32(b_f32(a) * b_f32(b)),
                F32Div(a, b) => u_f32(b_f32(a) / b_f32(b)),
                F32Min(a, b) => u_f32(wasm_min(b_f32(a).into(), b_f32(b).into()) as f32),
                F32Max(a, b) => u_f32(wasm_max(b_f32(a).into(), b_f32(b).into()) as f32),
                F32Copysign(a, b) => u_f32(b_f32(a).copysign(b_f32(b))),
                F32Eq(a, b) => (b_f32(a) == b_f32(b)) as u64,
                F32Ne(a, b) => (b_f32(a) != b_f32(b)) as u64,
                F32Lt(a, b) => (b_f32(a) < b_f32(b)) as u64,
                F32Gt(a, b) => (b_f32(a) > b_f32(b)) as u64,
                F32Le(a, b) => (b_f32(a) <= b_f32(b)) as u64,
                F32Ge(a, b) => (b_f32(a) >= b_f32(b)) as u64,
                // f64.
                F64Add(a, b) => u_f64(b_f64(a) + b_f64(b)),
                F64Sub(a, b) => u_f64(b_f64(a) - b_f64(b)),
                F64Mul(a, b) => u_f64(b_f64(a) * b_f64(b)),
                F64Div(a, b) => u_f64(b_f64(a) / b_f64(b)),
                F64Min(a, b) => u_f64(wasm_min(b_f64(a), b_f64(b))),
                F64Max(a, b) => u_f64(wasm_max(b_f64(a), b_f64(b))),
                F64Copysign(a, b) => u_f64(b_f64(a).copysign(b_f64(b))),
                F64Eq(a, b) => (b_f64(a) == b_f64(b)) as u64,
                F64Ne(a, b) => (b_f64(a) != b_f64(b)) as u64,
                F64Lt(a, b) => (b_f64(a) < b_f64(b)) as u64,
                F64Gt(a, b) => (b_f64(a) > b_f64(b)) as u64,
                F64Le(a, b) => (b_f64(a) <= b_f64(b)) as u64,
                F64Ge(a, b) => (b_f64(a) >= b_f64(b)) as u64,
            }
            UnOp {
                // Tests and bit counts.
                I32Eqz(a) => (b_i32(a) == 0) as u64,
                I32Clz(a) => u64::from((a as u32).leading_zeros()),
                I32Ctz(a) => u64::from((a as u32).trailing_zeros()),
                I32Popcnt(a) => u64::from((a as u32).count_ones()),
                I64Eqz(a) => (a == 0) as u64,
                I64Clz(a) => u64::from(a.leading_zeros()),
                I64Ctz(a) => u64::from(a.trailing_zeros()),
                I64Popcnt(a) => u64::from(a.count_ones()),
                // Float unaries.
                F32Abs(a) => u_f32(b_f32(a).abs()),
                F32Neg(a) => u_f32(-b_f32(a)),
                F32Ceil(a) => u_f32(b_f32(a).ceil()),
                F32Floor(a) => u_f32(b_f32(a).floor()),
                F32Trunc(a) => u_f32(b_f32(a).trunc()),
                F32Nearest(a) => u_f32(b_f32(a).round_ties_even()),
                F32Sqrt(a) => u_f32(b_f32(a).sqrt()),
                F64Abs(a) => u_f64(b_f64(a).abs()),
                F64Neg(a) => u_f64(-b_f64(a)),
                F64Ceil(a) => u_f64(b_f64(a).ceil()),
                F64Floor(a) => u_f64(b_f64(a).floor()),
                F64Trunc(a) => u_f64(b_f64(a).trunc()),
                F64Nearest(a) => u_f64(b_f64(a).round_ties_even()),
                F64Sqrt(a) => u_f64(b_f64(a).sqrt()),
                // Conversions: a truncation out of range traps.
                I32WrapI64(a) => u_i32(a as i32),
                I32TruncF32S(a) traps => trunc_to_i32(b_f32(a).into()).map(u_i32),
                I32TruncF32U(a) traps => trunc_to_u32(b_f32(a).into()).map(u64::from),
                I32TruncF64S(a) traps => trunc_to_i32(b_f64(a)).map(u_i32),
                I32TruncF64U(a) traps => trunc_to_u32(b_f64(a)).map(u64::from),
                I64ExtendI32S(a) => i64::from(b_i32(a)) as u64,
                I64ExtendI32U(a) => u64::from(a as u32),
                I64TruncF32S(a) traps => trunc_to_i64(b_f32(a).into()).map(|v| v as u64),
                I64TruncF32U(a) traps => trunc_to_u64(b_f32(a).into()),
                I64TruncF64S(a) traps => trunc_to_i64(b_f64(a)).map(|v| v as u64),
                I64TruncF64U(a) traps => trunc_to_u64(b_f64(a)),
                F32ConvertI32S(a) => u_f32(b_i32(a) as f32),
                F32ConvertI32U(a) => u_f32(a as u32 as f32),
                F32ConvertI64S(a) => u_f32(a as i64 as f32),
                F32ConvertI64U(a) => u_f32(a as f32),
                F32DemoteF64(a) => u_f32(b_f64(a) as f32),
                F64ConvertI32S(a) => u_f64(b_i32(a).into()),
                F64ConvertI32U(a) => u_f64((a as u32).into()),
                F64ConvertI64S(a) => u_f64(a as i64 as f64),
                F64ConvertI64U(a) => u_f64(a as f64),
                F64PromoteF32(a) => u_f64(b_f32(a).into()),
                // Reinterpretations keep the bits.
                I32ReinterpretF32(a) => a & 0xFFFF_FFFF,
                I64ReinterpretF64(a) => a,
                F32ReinterpretI32(a) => a & 0xFFFF_FFFF,
                F64ReinterpretI64(a) => a,
            }
            LoadKind {
                I32 = I32Load(v: u32) => u64::from(v),
                I64 = I64Load(v: u64) => v,
                F32 = F32Load(v: u32) => u64::from(v),
                F64 = F64Load(v: u64) => v,
                I32S8 = I32Load8S(v: i8) => u_i32(v.into()),
                I32U8 = I32Load8U(v: u8) => u64::from(v),
                I32S16 = I32Load16S(v: i16) => u_i32(v.into()),
                I32U16 = I32Load16U(v: u16) => u64::from(v),
                I64S8 = I64Load8S(v: i8) => i64::from(v) as u64,
                I64U8 = I64Load8U(v: u8) => u64::from(v),
                I64S16 = I64Load16S(v: i16) => i64::from(v) as u64,
                I64U16 = I64Load16U(v: u16) => u64::from(v),
                I64S32 = I64Load32S(v: i32) => i64::from(v) as u64,
                I64U32 = I64Load32U(v: u32) => u64::from(v),
            }
            StoreKind {
                I32 = I32Store(v) => v as u32,
                I64 = I64Store(v) => v,
                F32 = F32Store(v) => v as u32,
                F64 = F64Store(v) => v,
                I32As8 = I32Store8(v) => v as u8,
                I32As16 = I32Store16(v) => v as u16,
                I64As8 = I64Store8(v) => v as u8,
                I64As16 = I64Store16(v) => v as u16,
                I64As32 = I64Store32(v) => v as u32,
            }
        }
    };
}
pub(crate) use operators;

/// Declares one family of lifted numeric operators. Each name is both the
/// family's variant and the [`Instr`] variant it lifts. Generates the enum,
/// `ALL` and the lifts `of`/`instr`. The family keeps no charge table:
/// what an operator costs is counted by the region it runs in, from its
/// source instruction.
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
        }
    };
}

/// Declares one memory-access family as (kind, [`Instr`] variant) pairs.
/// Generates the enum, `ALL`, and the lifts `of`/`instr`, which carry the
/// static offset.
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
            pub(crate) fn of(i: &Instr) -> Option<($family, u32)> {
                Some(match i {
                    $(Instr::$instr(m) => ($family::$kind, m.offset),)*
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

/// Makes, from the operator list, the four families and [`Mop`], with one
/// micro-op per entry (named after its instruction), and the conversions
/// between an entry's micro-op and its [`Operation`].
macro_rules! define_operators {
    (
        BinOp { $($bin:ident($($_ba:ident),*) $($_bt:ident)? => $_be:expr,)* }
        UnOp { $($un:ident($_ua:ident) $($_ut:ident)? => $_ue:expr,)* }
        LoadKind { $($load:ident = $li:ident($_lv:ident: $_lt:ty) => $_le:expr,)* }
        StoreKind { $($store:ident = $si:ident($_sv:ident) => $_se:expr,)* }
    ) => {
        lifted_ops! {
            /// Binary operators on untagged bits.
            BinOp { $($bin),* }
        }

        lifted_ops! {
            /// Unary operators (tests, bit counts, float unaries,
            /// conversions) on untagged bits.
            UnOp { $($un),* }
        }

        memory_ops! {
            /// Memory-load flavor with the extension behaviour baked in.
            LoadKind { $($load = $li),* }
        }

        memory_ops! {
            /// Memory-store flavor with the truncation behaviour baked in.
            StoreKind { $($store = $si),* }
        }

        /// One micro-op. Every operand and result is a `u32` slot of the
        /// frame (`params | locals | constants | operands`, see
        /// [`LoweredFunc`]), every branch holds the index of its resolved
        /// [`Target`] in [`LoweredFunc::targets`], and an instruction that
        /// only moves a value onto the operand stack (`local.get`, a
        /// constant) or off it (`drop`) lowers to nothing when fusion is
        /// on: its slot is named by the micro-op that reads it. Each
        /// operator and each memory access kind is a micro-op of its own,
        /// named after its instruction (`I32Add { a, b, dst }`,
        /// `I32Load8U { addr, offset, dst }`, `I64Store { addr, val,
        /// offset }`), so the dispatch on the micro-op selects the work.
        #[derive(Debug, Clone, Copy, PartialEq)]
        #[allow(missing_docs)]
        pub(crate) enum Mop {
            Copy {
                src: u32,
                dst: u32,
            },
            $($bin { a: u32, b: u32, dst: u32 },)*
            $($un { a: u32, dst: u32 },)*
            $($li { addr: u32, offset: u32, dst: u32 },)*
            $($si { addr: u32, val: u32, offset: u32 },)*
            /// `dst` already holds the first operand: it takes `b` when
            /// `cond` is zero.
            Select {
                dst: u32,
                b: u32,
                cond: u32,
            },
            GlobalGet {
                global: u32,
                dst: u32,
            },
            GlobalSet {
                global: u32,
                src: u32,
            },
            MemorySize {
                dst: u32,
            },
            MemoryGrow {
                delta: u32,
                dst: u32,
            },
            /// A `br`, or the `else` that ends a then-arm.
            Br(u32),
            /// A `br_if`, taken when `cond` is nonzero, or zero with
            /// `when_zero`: an `if` (to its false edge) and an `i32.eqz`
            /// before either.
            BrIf {
                cond: u32,
                when_zero: bool,
                target: u32,
            },
            /// The first of the arms' consecutive targets and the number
            /// of arms before the default, which is the last.
            BrTable {
                index: u32,
                first: u32,
                arms: u32,
            },
            /// The callee's frame starts at its arguments, the slots below
            /// `end`.
            Call {
                func: u32,
                end: u32,
            },
            CallIndirect {
                type_index: u32,
                index: u32,
                end: u32,
            },
            /// Returns with the result, if the function has one, in this
            /// slot.
            Return(u32),
            /// A `loop` or `end` kept because the next instruction heads a
            /// region: falls through into it. Every other `nop`, `block`,
            /// `loop` and `end` does no work and leaves the stream.
            Fall,
            Unreachable,
        }

        impl From<Operation> for Mop {
            /// The micro-op of an operation's entry, over its slots.
            fn from(op: Operation) -> Mop {
                match op {
                    $(Operation::Bin { op: BinOp::$bin, a, b, dst } => Mop::$bin { a, b, dst },)*
                    $(Operation::Un { op: UnOp::$un, a, dst } => Mop::$un { a, dst },)*
                    $(Operation::Load { kind: LoadKind::$load, addr, offset, dst } => {
                        Mop::$li { addr, offset, dst }
                    })*
                    $(Operation::Store { kind: StoreKind::$store, addr, val, offset } => {
                        Mop::$si { addr, val, offset }
                    })*
                }
            }
        }

        impl Mop {
            /// The operation this micro-op runs, read back as its entry
            /// and slots, if it runs an operator or a memory access.
            pub(crate) fn operation(&self) -> Option<Operation> {
                Some(match *self {
                    $(Mop::$bin { a, b, dst } => Operation::Bin { op: BinOp::$bin, a, b, dst },)*
                    $(Mop::$un { a, dst } => Operation::Un { op: UnOp::$un, a, dst },)*
                    $(Mop::$li { addr, offset, dst } => {
                        Operation::Load { kind: LoadKind::$load, addr, offset, dst }
                    })*
                    $(Mop::$si { addr, val, offset } => {
                        Operation::Store { kind: StoreKind::$store, addr, val, offset }
                    })*
                    _ => return None,
                })
            }
        }
    };
}

operators!(define_operators);

/// An operator or memory access with the slots it reads and writes: what
/// lowering builds its micro-op from and the audit reads back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub(crate) enum Operation {
    Bin {
        op: BinOp,
        a: u32,
        b: u32,
        dst: u32,
    },
    Un {
        op: UnOp,
        a: u32,
        dst: u32,
    },
    Load {
        kind: LoadKind,
        addr: u32,
        offset: u32,
        dst: u32,
    },
    Store {
        kind: StoreKind,
        addr: u32,
        val: u32,
        offset: u32,
    },
}

impl Operation {
    /// The instruction this operation lowers.
    pub(crate) fn instr(self) -> Instr {
        match self {
            Operation::Bin { op, .. } => op.instr(),
            Operation::Un { op, .. } => op.instr(),
            Operation::Load { kind, offset, .. } => kind.instr(offset),
            Operation::Store { kind, offset, .. } => kind.instr(offset),
        }
    }
}

/// The bits of a constant instruction.
pub(crate) fn const_bits_of(i: &Instr) -> Option<u64> {
    Some(match i {
        Instr::I32Const(v) => u_i32(*v),
        Instr::I64Const(v) => *v as u64,
        Instr::F32Const(f) => u_f32(*f),
        Instr::F64Const(f) => f.to_bits(),
        _ => None?,
    })
}

/// Where a branch goes, resolved once at lowering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Target {
    /// The micro-op the branch continues at (a source pc until `lower`
    /// maps it), or [`NO_PC`] for the function's own label: the branch
    /// returns.
    pub(crate) pc: u32,
    /// The slot of the value the branch carries (of the result, for a
    /// return).
    pub(crate) src: u32,
    /// The slot at the label's operand height, which the carried value
    /// moves to.
    pub(crate) dst: u32,
    /// Whether the branch carries a value (at most one in the MVP).
    pub(crate) keep: bool,
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
/// returns. `heights` is the validator's operand height before each
/// instruction ([`wb_wasm::operand_heights`]), `operands` the frame slot
/// of operand height 0 and `results` the function's result arity. Each
/// target's `src` is its `dst` until `lower` names the carried value.
pub(crate) fn resolve_labels(
    body: &[Instr],
    heights: &[u32],
    operands: u32,
    results: u8,
) -> Labels {
    // The enclosing labels' openers, innermost last, each with the targets
    // that wait for its `end` (an `if`'s false edge first, until `else`).
    let mut open: Vec<(usize, Vec<usize>)> = Vec::new();
    let (mut targets, mut first) = (Vec::new(), vec![NO_PC; body.len()]);
    // A branch past the `end` of the label `opener` opens: an `if` has
    // popped its condition.
    let forward = |opener: usize| {
        let (keep, popped) = match &body[opener] {
            Instr::Block(bt) => (bt.arity() != 0, 0),
            Instr::If(bt) => (bt.arity() != 0, 1),
            _ => (false, 0),
        };
        let dst = operands + heights[opener].saturating_sub(popped);
        Target {
            pc: NO_PC,
            src: dst,
            dst,
            keep,
            back_edge: false,
        }
    };
    for (pc, instr) in body.iter().enumerate() {
        let next = targets.len();
        match instr {
            Instr::Block(_) | Instr::Loop(_) => open.push((pc, Vec::new())),
            Instr::If(_) => {
                targets.push(Target {
                    keep: false,
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
                            src: 0,
                            dst: 0,
                            keep: results != 0,
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

/// A function body lowered to micro-ops.
#[derive(Debug)]
pub(crate) struct LoweredFunc {
    /// The micro-op stream.
    pub(crate) code: Vec<Mop>,
    /// Per micro-op, the source position of the instruction that emitted
    /// it (non-decreasing): a trap settles its region through it.
    pub(crate) pos: Vec<u32>,
    /// The branch targets, at micro-op indices; branch micro-ops hold
    /// indices into this table.
    pub(crate) targets: Vec<Target>,
    /// Per micro-op, the region it heads ([`NO_PC`] where none starts).
    pub(crate) heads: Vec<u32>,
    /// Each region's source-instruction range and class and Table 12
    /// counts, in source order.
    pub(crate) regions: RegionTable,
    /// The parameters, which start the frame where the caller left them.
    pub(crate) params: u32,
    /// The rest of the frame at entry: zeroed locals, the body's distinct
    /// constants and a zeroed slot for each operand height up to its peak.
    pub(crate) frame_init: Vec<u64>,
    /// Whether the function returns a value.
    pub(crate) result: bool,
}

/// The operand resolver: the abstract operand stack of one body, whose
/// entries are the slots their values are in, and the stream it emits.
struct Resolver {
    code: Vec<Mop>,
    pos: Vec<u32>,
    stack: Vec<u32>,
    /// The slot of operand height 0.
    operands: u32,
    fuse: bool,
    /// The source position of the instruction being lowered.
    at: u32,
    /// Per source pc, whether a lowered branch reaches it.
    reached: Vec<bool>,
}

impl Resolver {
    fn emit(&mut self, mop: Mop) {
        self.code.push(mop);
        self.pos.push(self.at);
    }

    /// The slot of the next operand pushed.
    fn top_slot(&self) -> u32 {
        self.operands + self.stack.len() as u32
    }

    /// Push the value in `src`: pending (the entry names `src`) with
    /// fusion on, else copied into its own slot.
    fn push(&mut self, src: u32) {
        self.stack.push(src);
        if !self.fuse {
            self.settle(None);
        }
    }

    fn pop(&mut self) -> u32 {
        self.stack.pop().expect("validated: operand present")
    }

    /// The slot of the top entry (0 when empty: nothing reads it then).
    fn top(&self) -> u32 {
        self.stack.last().copied().unwrap_or(0)
    }

    /// Copy each pending entry (one not in its own slot) into its own
    /// slot: every one, or those that read local `local`.
    fn settle(&mut self, local: Option<u32>) {
        for h in 0..self.stack.len() {
            let (src, own) = (self.stack[h], self.operands + h as u32);
            if src != own && local.is_none_or(|x| x == src) {
                self.emit(Mop::Copy { src, dst: own });
                self.stack[h] = own;
            }
        }
    }

    /// Emit `make(dst)`, an operator whose operands are popped: its result
    /// goes to the local that a following `local.set` or `local.tee` names
    /// when fusing (the entries that read that local are copied out first,
    /// and that instruction lowers to nothing), else to its own slot.
    /// Returns how many instructions past it were lowered with it.
    fn produce(&mut self, next: Option<&Instr>, make: impl FnOnce(u32) -> Mop) -> usize {
        match next {
            Some(&Instr::LocalSet(x) | &Instr::LocalTee(x)) if self.fuse => {
                self.settle(Some(x));
                self.emit(make(x));
                if matches!(next, Some(Instr::LocalTee(_))) {
                    self.stack.push(x);
                }
                1
            }
            _ => {
                let dst = self.top_slot();
                self.emit(make(dst));
                self.stack.push(dst);
                0
            }
        }
    }

    /// Emit the branch `mop` to `targets`: every pending entry is copied
    /// into its own slot first, and each target that carries a value
    /// takes the top entry's slot.
    fn branch(&mut self, mop: Mop, targets: &mut [Target]) {
        self.settle(None);
        let top = self.top();
        for t in targets {
            if t.keep {
                t.src = top;
            }
            if let Some(reached) = self.reached.get_mut(t.pc as usize) {
                *reached = true;
            }
        }
        self.emit(mop);
    }

    /// Emit a call to `callee`, whose arguments are the top entries:
    /// each pending entry is copied into its own slot first, and the
    /// result takes the first argument's.
    fn call(&mut self, callee: Option<&FuncType>, make: impl FnOnce(u32) -> Mop) {
        let callee = callee.expect("validated: callee type");
        self.settle(None);
        self.emit(make(self.top_slot()));
        let args = self.stack.len() - callee.params.len();
        self.stack.truncate(args);
        if !callee.results.is_empty() {
            self.stack.push(self.operands + args as u32);
        }
    }
}

/// Lower one flat body to micro-ops over frame slots (see the module
/// docs): resolve its branches and cut its regions, then run the operand
/// resolver forward over it once, and last move the targets from source
/// pcs to micro-op indices and mark each head's micro-op with its
/// region, so both settings run the same regions.
pub(crate) fn lower(
    func: &Function,
    module: &Module,
    heights: &OperandHeights,
    fuse: bool,
) -> LoweredFunc {
    let body = &func.body;
    let ty = &module.types[func.type_index as usize];
    let (params, locals) = (ty.params.len() as u32, func.locals.len() as u32);
    // Each distinct constant once, in order of first use, after the locals.
    let (mut consts, mut const_slot) = (Vec::new(), HashMap::new());
    for c in body.iter().filter_map(const_bits_of) {
        const_slot.entry(c).or_insert_with(|| {
            consts.push(c);
            params + locals + consts.len() as u32 - 1
        });
    }
    let operands = params + locals + consts.len() as u32;
    let labels = resolve_labels(body, &heights.before, operands, ty.results.len() as u8);
    let n = body.len();
    let is_head = region_heads(body, &labels);
    let Labels { mut targets, first } = labels;
    let mut r = Resolver {
        code: Vec::with_capacity(n),
        pos: Vec::with_capacity(n),
        stack: Vec::new(),
        operands,
        fuse,
        at: 0,
        reached: vec![false; n],
    };
    // Whether the code being lowered is reached.
    let mut live = true;
    let mut mop_of: Vec<u32> = vec![NO_PC; n];
    let mut pc = 0;
    while pc < n {
        if is_head[pc] {
            live |= r.reached[pc];
            r.stack.clear();
            r.stack
                .extend((0..heights.before[pc]).map(|h| operands + h));
        }
        // Code that emits nothing maps to the next micro-op, which lies
        // in its region.
        mop_of[pc] = r.code.len() as u32;
        let (instr, next) = (&body[pc], body.get(pc + 1));
        r.at = pc as u32;
        let mut with = 0;
        match instr {
            _ if !live => {}
            Instr::Nop | Instr::Block(_) => {}
            Instr::End if pc + 1 == n => r.emit(Mop::Return(r.top())),
            Instr::Loop(_) | Instr::End => {
                if is_head[pc + 1] {
                    r.settle(None);
                    r.emit(Mop::Fall);
                }
            }
            Instr::Drop => {
                r.pop();
            }
            Instr::LocalGet(x) => r.push(*x),
            Instr::LocalSet(x) | Instr::LocalTee(x) => {
                let v = r.pop();
                if v != *x {
                    r.settle(Some(*x));
                    r.emit(Mop::Copy { src: v, dst: *x });
                }
                if matches!(instr, Instr::LocalTee(_)) {
                    r.stack.push(v);
                }
            }
            Instr::Select => {
                let (cond, b, a) = (r.pop(), r.pop(), r.pop());
                let dst = r.top_slot();
                if a != dst {
                    r.emit(Mop::Copy { src: a, dst });
                }
                r.emit(Mop::Select { dst, b, cond });
                r.stack.push(dst);
            }
            Instr::GlobalGet(g) => with = r.produce(next, |dst| Mop::GlobalGet { global: *g, dst }),
            Instr::GlobalSet(g) => {
                let src = r.pop();
                r.emit(Mop::GlobalSet { global: *g, src });
            }
            Instr::MemorySize => with = r.produce(next, |dst| Mop::MemorySize { dst }),
            Instr::MemoryGrow => {
                let delta = r.pop();
                with = r.produce(next, |dst| Mop::MemoryGrow { delta, dst });
            }
            Instr::Call(f) => r.call(module.func_type(*f), |end| Mop::Call { func: *f, end }),
            Instr::CallIndirect(t) => {
                let index = r.pop();
                r.call(module.types.get(*t as usize), |end| Mop::CallIndirect {
                    type_index: *t,
                    index,
                    end,
                });
            }
            Instr::I32Eqz | Instr::BrIf(_) | Instr::If(_)
                if instr != &Instr::I32Eqz
                    || (fuse && matches!(next, Some(Instr::BrIf(_) | Instr::If(_)))) =>
            {
                with = usize::from(instr == &Instr::I32Eqz);
                let cond = r.pop();
                // An `if` branches (to its false edge) on zero; an
                // `i32.eqz` before the branch flips the test.
                let when_zero = matches!(body[pc + with], Instr::If(_)) ^ (with == 1);
                let target = first[pc + with];
                let mop = Mop::BrIf {
                    cond,
                    when_zero,
                    target,
                };
                r.branch(mop, &mut targets[target as usize..=target as usize]);
            }
            Instr::Br(_) | Instr::Else => {
                let t = first[pc] as usize;
                r.branch(Mop::Br(first[pc]), &mut targets[t..=t]);
                live = false;
            }
            Instr::BrTable(arms, _) => {
                let index = r.pop();
                let (t, arms) = (first[pc], arms.len() as u32);
                let mop = Mop::BrTable {
                    index,
                    first: t,
                    arms,
                };
                r.branch(mop, &mut targets[t as usize..=(t + arms) as usize]);
                live = false;
            }
            Instr::Return => {
                r.emit(Mop::Return(r.top()));
                live = false;
            }
            Instr::Unreachable => {
                r.emit(Mop::Unreachable);
                live = false;
            }
            _ => {
                if let Some(c) = const_bits_of(instr) {
                    r.push(const_slot[&c]);
                } else if let Some(op) = BinOp::of(instr) {
                    let (b, a) = (r.pop(), r.pop());
                    with = r.produce(next, |dst| Operation::Bin { op, a, b, dst }.into());
                } else if let Some(op) = UnOp::of(instr) {
                    let a = r.pop();
                    with = r.produce(next, |dst| Operation::Un { op, a, dst }.into());
                } else if let Some((kind, offset)) = LoadKind::of(instr) {
                    let addr = r.pop();
                    with = r.produce(next, |dst| {
                        Operation::Load {
                            kind,
                            addr,
                            offset,
                            dst,
                        }
                        .into()
                    });
                } else if let Some((kind, offset)) = StoreKind::of(instr) {
                    let (val, addr) = (r.pop(), r.pop());
                    r.emit(
                        Operation::Store {
                            kind,
                            addr,
                            val,
                            offset,
                        }
                        .into(),
                    );
                }
            }
        }
        // What was lowered with the instruction heads no region and is no
        // branch target, so it needs no micro-op of its own.
        pc += 1 + with;
    }
    for t in &mut targets {
        t.pc = mop_of.get(t.pc as usize).copied().unwrap_or(NO_PC);
    }
    let regions = RegionTable::build(&is_head, |pc| {
        Some((classify(&body[pc]), arith_kind(&body[pc])))
    });
    let (mut code, mut pos) = (r.code, r.pos);
    // Lowered code is shorter than the body it was sized for, and lives
    // as long as its cached artifact.
    code.shrink_to_fit();
    pos.shrink_to_fit();
    // A region no branch reaches emits nothing and names the next live
    // head's micro-op (or none), so the live head, later in source
    // order, is written last.
    let mut heads = vec![NO_PC; code.len()];
    for region in 0..regions.len() {
        if let Some(h) = heads.get_mut(mop_of[regions.range(region).start] as usize) {
            *h = region as u32;
        }
    }
    let mut frame_init = vec![0; locals as usize];
    frame_init.extend(consts);
    frame_init.resize(frame_init.len() + heights.peak as usize, 0);
    LoweredFunc {
        code,
        pos,
        targets,
        heads,
        regions,
        params,
        frame_init,
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
        let module = module_of(body);
        let heights = wb_wasm::operand_heights(&module, 0).expect("test bodies validate");
        lower(&module.functions[0], &module, &heights, fuse)
    }

    /// The one-function module `lower_body_with` lowers.
    fn module_of(body: Vec<Instr>) -> Module {
        Module {
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
        }
    }

    /// The target index a micro-op holds, if it branches.
    fn target_of(mop: &Mop) -> Option<u32> {
        use Mop::*;
        match *mop {
            Br(t) | BrIf { target: t, .. } | BrTable { first: t, .. } => Some(t),
            _ => None,
        }
    }

    /// A target that carries nothing, to `pc` at slot `dst`.
    fn to(pc: u32, dst: u32, back_edge: bool) -> Target {
        Target {
            pc,
            src: dst,
            dst,
            keep: false,
            back_edge,
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
        for (i, opcode) in instrs.iter().zip(0x28..=0x3e_u32) {
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
    fn every_entry_lowers_to_a_micro_op_of_its_own() {
        // Each entry of the four families, as the operation it lowers to
        // when its operands are in slots `a` and `b` and its result goes
        // to slot 4 (operand height 0, past the four locals).
        type Make = Box<dyn Fn(u32, u32) -> Operation>;
        let entries = (BinOp::ALL
            .map(|op| -> Make { Box::new(move |a, b| Operation::Bin { op, a, b, dst: 4 }) }))
        .into_iter()
        .chain(
            UnOp::ALL.map(|op| -> Make { Box::new(move |a, _| Operation::Un { op, a, dst: 4 }) }),
        )
        .chain(LoadKind::ALL.map(|kind| -> Make {
            Box::new(move |addr, _| Operation::Load {
                kind,
                addr,
                offset: 12,
                dst: 4,
            })
        }))
        .chain(StoreKind::ALL.map(|kind| -> Make {
            Box::new(move |addr, val| Operation::Store {
                kind,
                addr,
                val,
                offset: 12,
            })
        }));
        let mut variants = std::collections::HashMap::new();
        for make in entries {
            let instr = make(0, 1).instr();
            let (inputs, result) = match make(0, 1) {
                Operation::Bin { .. } => (2, true),
                Operation::Un { .. } | Operation::Load { .. } => (1, true),
                Operation::Store { .. } => (2, false),
            };
            // Its operands are locals 0 and 1 and its result is dropped.
            // Lowering reads no types, so the heights are given by hand
            // and the body need not validate over i32 locals.
            let mut body: Vec<Instr> = (0..inputs).map(Instr::LocalGet).collect();
            body.push(instr.clone());
            let mut before: Vec<u32> = (0..=inputs).collect();
            if result {
                body.push(Instr::Drop);
                before.push(1);
            }
            body.push(Instr::End);
            before.push(0);
            let module = module_of(body);
            let heights = OperandHeights {
                before,
                peak: inputs,
            };
            for fuse in [true, false] {
                let f = lower(&module.functions[0], &module, &heights, fuse);
                // The one micro-op at the entry's position: with fusion
                // on it reads locals 0 and 1 in place, with it off their
                // copies at operand heights 0 and 1 (slots 4 and 5).
                let mops: Vec<&Mop> = (f.code.iter().zip(&f.pos))
                    .filter(|&(_, &p)| p == inputs)
                    .map(|(m, _)| m)
                    .collect();
                assert_eq!(
                    mops.len(),
                    1,
                    "{instr:?} (fuse {fuse}) lowers to {:?}",
                    f.code
                );
                let want = if fuse { make(0, 1) } else { make(4, 5) };
                let got = mops[0].operation();
                assert_eq!(got, Some(want), "{instr:?}: {:?} reads back wrong", mops[0]);
                // The audit's round trip reads the operator this way.
                assert_eq!(got.map(Operation::instr), Some(instr.clone()));
                // Operators of one shape (every binary operator, say)
                // never share a variant.
                let variant = std::mem::discriminant(mops[0]);
                let first = variants.entry(variant).or_insert_with(|| instr.clone());
                assert_eq!(*first, instr, "{instr:?} shares a micro-op with {first:?}");
            }
        }
        let entries =
            BinOp::ALL.len() + UnOp::ALL.len() + LoadKind::ALL.len() + StoreKind::ALL.len();
        assert_eq!((variants.len(), entries), (146, 146));
    }

    // Locals 0-3 are slots 0-3, the constants follow, then the operands.

    #[test]
    fn fuses_local_local_bin_set() {
        let f = lower_body(vec![
            Instr::LocalGet(0),
            Instr::LocalGet(1),
            Instr::I32Add,
            Instr::LocalSet(2),
            Instr::End,
        ]);
        let add = Mop::I32Add { a: 0, b: 1, dst: 2 };
        assert_eq!(f.code, vec![add, Mop::Return(0)]);
        assert_eq!(f.pos, vec![2, 4]);
        // Four zeroed locals, no constant, and the peak of two operands.
        assert_eq!(f.frame_init, vec![0; 6]);
    }

    #[test]
    fn fuses_counter_increment() {
        // The canonical loop-counter idiom from the MiniC backend: one
        // micro-op, the constant read from its slot after the locals.
        let f = lower_body(vec![
            Instr::LocalGet(2),
            Instr::I32Const(1),
            Instr::I32Add,
            Instr::LocalSet(2),
            Instr::End,
        ]);
        let add = Mop::I32Add { a: 2, b: 4, dst: 2 };
        assert_eq!(f.code, vec![add, Mop::Return(0)]);
        assert_eq!(f.frame_init, vec![0, 0, 0, 0, 1, 0, 0]);
    }

    #[test]
    fn const_local_sub_is_one_micro_op() {
        // The operands are read where they are, whichever comes first;
        // the result goes to the first operand's height (slot 5, past the
        // constant at 4).
        let f = lower_body(vec![
            Instr::I32Const(9),
            Instr::LocalGet(1),
            Instr::I32Sub,
            Instr::Drop,
            Instr::End,
        ]);
        let sub = Mop::I32Sub { a: 4, b: 1, dst: 5 };
        assert_eq!(f.code, vec![sub, Mop::Return(0)]);
    }

    #[test]
    fn fuses_the_compilers_loop_exit() {
        // `cmp; i32.eqz; br_if`, as the MiniC backend emits a loop test:
        // the comparison into its slot, and one branch on zero. The
        // `block` falls into no region head and leaves the stream; its
        // `end` falls into the branch target and stays.
        let body = vec![
            Instr::Block(BlockType::Empty),
            Instr::LocalGet(0),
            Instr::LocalGet(1),
            Instr::I32GeU,
            Instr::I32Eqz,
            Instr::BrIf(0),
            Instr::End,
            Instr::End,
        ];
        let f = lower_body(body.clone());
        let cmp = Mop::I32GeU { a: 0, b: 1, dst: 4 };
        let br = Mop::BrIf {
            cond: 4,
            when_zero: true,
            target: 0,
        };
        assert_eq!(f.code, vec![cmp, br, Mop::Fall, Mop::Return(0)]);
        assert_eq!(f.pos, vec![3, 4, 6, 7]);
        // Past the block's `end`, at operand height 0.
        assert_eq!(f.targets, vec![to(3, 4, false)]);
        // Fusion off: each instruction that does work is one micro-op.
        let reference = lower_body_with(body, false);
        assert_eq!(reference.code.len(), 7);
        assert!(matches!(
            reference.code[4],
            Mop::BrIf {
                when_zero: false,
                ..
            }
        ));
    }

    #[test]
    fn loads_and_stores_read_their_operands_in_place() {
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
                Mop::I32Load8U {
                    addr: 0,
                    offset: 8,
                    dst: 4
                },
                Mop::I32Store {
                    addr: 0,
                    val: 1,
                    offset: 8
                },
                Mop::Return(0),
            ]
        );
    }

    #[test]
    fn eqz_flips_a_branch_and_a_result_lands_in_its_local() {
        let f = lower_body(vec![
            Instr::Block(BlockType::Empty),
            Instr::LocalGet(0),
            Instr::I32Eqz,
            Instr::BrIf(0),
            Instr::GlobalGet(0),
            Instr::I32Const(7),
            Instr::I32Mul,
            Instr::LocalTee(1),
            Instr::LocalGet(0),
            Instr::I32Eqz,
            Instr::If(BlockType::Empty),
            Instr::End,
            Instr::Drop,
            Instr::End,
            Instr::End,
        ]);
        assert_eq!(
            f.code,
            vec![
                Mop::BrIf {
                    cond: 0,
                    when_zero: true,
                    target: 0
                },
                Mop::GlobalGet { global: 0, dst: 5 },
                Mop::I32Mul { a: 5, b: 4, dst: 1 },
                // The `if` skips its (empty) arm when local 0 is nonzero;
                // the teed local, still pending, is copied into its own
                // slot first.
                Mop::Copy { src: 1, dst: 5 },
                Mop::BrIf {
                    cond: 0,
                    when_zero: false,
                    target: 1
                },
                Mop::Fall,
                Mop::Fall,
                Mop::Return(0),
            ]
        );
    }

    #[test]
    fn loop_and_if_targets_are_micro_op_indices() {
        let f = lower_body(vec![
            Instr::Loop(BlockType::Empty), // 0 -> mop 0 (falls into the body)
            Instr::LocalGet(0),            // 1 read in place
            Instr::I32Eqz,                 // 2 ┐ mop 1 (BrIf on zero: returns)
            Instr::BrIf(1),                // 3 ┘
            Instr::LocalGet(1),            // 4 read in place
            Instr::If(BlockType::Empty),   // 5 -> mop 2
            Instr::Nop,                    // 6 dropped
            Instr::Else,                   // 7 -> mop 3 (Br)
            Instr::Nop,                    // 8 dropped
            Instr::End,                    // 9 -> mop 4 (closes if, falls)
            Instr::Br(0),                  // 10 -> mop 5
            Instr::End,                    // 11 unreached (closes loop)
            Instr::End,                    // 12 unreached: the loop only returns
        ]);
        assert_eq!(f.code.len(), 6);
        assert_eq!(f.pos, vec![0, 2, 5, 7, 9, 10]);
        let targets: Vec<_> = f.code.iter().filter_map(target_of).collect();
        assert_eq!(targets, vec![0, 1, 2, 3]);
        assert_eq!(f.code[0], Mop::Fall);
        assert_eq!(
            f.code[2],
            Mop::BrIf {
                cond: 1,
                when_zero: true,
                target: 1
            }
        );
        assert_eq!(f.code[3], Mop::Br(2));
        assert_eq!(f.code[4], Mop::Fall);
        assert_eq!(
            f.targets,
            vec![
                to(NO_PC, 0, false),
                to(4, 4, false),
                to(5, 4, false),
                to(1, 4, true)
            ],
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
        // The constants 1, 2 and 4 are slots 4-6, operand height h slot
        // 7 + h. Each branch first copies the pending constants below it
        // into their own slots.
        assert_eq!(
            f.code,
            vec![
                Mop::Copy { src: 4, dst: 7 },
                Mop::Copy { src: 5, dst: 8 },
                Mop::BrTable {
                    index: 0,
                    first: 0,
                    arms: 2
                },
                Mop::Copy { src: 6, dst: 9 },
                Mop::Br(3),
                Mop::Return(0),
            ]
        );
        assert_eq!(f.pos, vec![5, 5, 5, 8, 8, 12]);
        let carry = Target {
            keep: true,
            src: 9,
            ..to(5, 8, false)
        };
        let inner = to(3, 9, false);
        assert_eq!(f.targets, vec![inner, to(NO_PC, 0, false), inner, carry]);
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
        // Slots and offsets are `u32`s and a branch holds an index into its
        // function's target table, so no micro-op outgrows a `Bin` or a
        // memory access; lowered code lives as long as its cached artifact.
        assert_eq!(std::mem::size_of::<Mop>(), 16);
        assert_eq!(std::mem::size_of::<Target>(), 16);
    }

    #[test]
    fn pending_entries_cross_a_dropped_end() {
        // `local.get` right before an `end` no branch targets: nothing
        // merges there, so the entry stays pending past it and the
        // `local.set` copies the local directly.
        let f = lower_body(vec![
            Instr::Block(BlockType::Value(ValType::I32)),
            Instr::LocalGet(0),
            Instr::End,
            Instr::LocalSet(1),
            Instr::End,
        ]);
        assert_eq!(f.code, vec![Mop::Copy { src: 0, dst: 1 }, Mop::Return(0)]);
    }

    #[test]
    fn a_local_write_copies_out_the_entries_that_read_it() {
        // `local.get 0; local.get 1; local.set 0`: the pending read of
        // local 0 is copied into its own slot before the write.
        let f = lower_body(vec![
            Instr::LocalGet(0),
            Instr::LocalGet(1),
            Instr::LocalSet(0),
            Instr::LocalGet(0),
            Instr::I32Add,
            Instr::LocalSet(2),
            Instr::End,
        ]);
        assert_eq!(
            f.code,
            vec![
                Mop::Copy { src: 0, dst: 4 },
                Mop::Copy { src: 1, dst: 0 },
                Mop::I32Add { a: 4, b: 0, dst: 2 },
                Mop::Return(0),
            ]
        );
    }

    /// Nested control of every kind, a counted loop with a fused
    /// back-edge test, a call, a `br_table`, an early return, a `nop` and
    /// a `drop`.
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
            I32Const(5),             // 25
            Drop,                    // 26
            End,                     // 27
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
                    (Mop::BrTable { arms, .. }, Some(t)) => {
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
            // The loop test reads its two locals in place only when fusing.
            let in_place = |m: &Mop| matches!(m, Mop::I32GeS { a: 0, b: 1, .. });
            assert_eq!(f.code.iter().any(in_place), fuse, "fuse={fuse}");
        }
    }

    #[test]
    fn only_instructions_that_do_work_are_lowered() {
        use Instr::*;
        let body = control_body();
        let n = body.len();
        for fuse in [true, false] {
            let f = lower_body_with(body.clone(), fuse);
            let what = format!("fuse={fuse}");
            let starts: Vec<usize> = (0..f.regions.len())
                .map(|r| f.regions.range(r).start)
                .collect();
            // Positions never decrease, one per micro-op, and the last is
            // the final `end`, which returns.
            assert_eq!(f.pos.len(), f.code.len(), "{what}");
            assert!(
                f.pos.windows(2).all(|w| w[0] <= w[1]),
                "{what}: {:?}",
                f.pos
            );
            assert_eq!(f.pos.last(), Some(&(n as u32 - 1)), "{what}");
            assert_eq!(f.code.last(), Some(&Mop::Return(0)), "{what}");
            // No-op control lowers only to a `Fall` into a region head.
            for (i, mop) in f.code.iter().enumerate() {
                let at = f.pos[i] as usize;
                if matches!(body[at], Nop | Block(_) | Loop(_) | End) && at + 1 < n {
                    assert_eq!(*mop, Mop::Fall, "{what}: {i} lowers {:?}", body[at]);
                    assert!(
                        f.heads[i + 1] != NO_PC && starts.contains(&(at + 1)),
                        "{what}: the `Fall` at {i} is followed by no region head"
                    );
                }
            }
            let lowered: std::collections::BTreeSet<u32> = f.pos.iter().copied().collect();
            let dropped: Vec<usize> = (0..n)
                .filter(|&pc| !lowered.contains(&(pc as u32)))
                .collect();
            if fuse {
                // Every local and constant is read in place, the local
                // write is the `add`'s result slot, and nothing in this
                // body needs an operand copied.
                assert_eq!(
                    dropped,
                    vec![0, 2, 3, 6, 10, 12, 13, 14, 16, 18, 19, 20, 23, 24, 25, 26],
                    "{what}"
                );
            } else {
                // One micro-op per instruction that does work. The `block`
                // at 0, the `nop` at 24 and the `drop` at 26 do none; the
                // `end`s at 12, 18 and 19 and the `end` at 23 follow a
                // branch or return that no branch leads past.
                assert!(f.pos.windows(2).all(|w| w[0] < w[1]), "{what}: {:?}", f.pos);
                assert_eq!(dropped, vec![0, 12, 18, 19, 23, 24, 26], "{what}");
            }
        }
    }
}
