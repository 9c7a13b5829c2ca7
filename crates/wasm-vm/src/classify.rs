//! Mapping from WebAssembly instructions to the shared cost-model
//! operation classes: the one charge table of the Wasm VM.
//!
//! The functions are `const` so the engine's operator families
//! (`fuse.rs`) can read their class, Table 12 kind and trap-ability from
//! here at compile time instead of keeping tables of their own.

use wb_env::OpClass;
use wb_wasm::Instr;

pub use wb_env::ArithKind;

/// Table 12 classification of an instruction, if it is arithmetic.
pub const fn arith_kind(i: &Instr) -> Option<ArithKind> {
    use Instr::*;
    Some(match i {
        I32Add | I32Sub | I64Add | I64Sub | F32Add | F32Sub | F64Add | F64Sub => ArithKind::Add,
        I32Mul | I64Mul | F32Mul | F64Mul => ArithKind::Mul,
        I32DivS | I32DivU | I64DivS | I64DivU | F32Div | F64Div => ArithKind::Div,
        I32RemS | I32RemU | I64RemS | I64RemU => ArithKind::Rem,
        I32Shl | I32ShrS | I32ShrU | I32Rotl | I32Rotr | I64Shl | I64ShrS | I64ShrU | I64Rotl
        | I64Rotr => ArithKind::Shift,
        I32And | I64And => ArithKind::And,
        I32Or | I32Xor | I64Or | I64Xor => ArithKind::Or,
        _ => return None,
    })
}

/// Classify one instruction for cost accounting.
pub const fn classify(i: &Instr) -> OpClass {
    use Instr::*;
    match i {
        // Control.
        Unreachable | Nop | Block(_) | Loop(_) | End | Else => OpClass::Other,
        If(_) | Br(_) | BrIf(_) | BrTable(..) | Return => OpClass::Branch,
        Call(_) | CallIndirect(_) => OpClass::Call,
        Drop | Select => OpClass::Other,
        // Variables.
        LocalGet(_) | LocalSet(_) | LocalTee(_) => OpClass::Local,
        GlobalGet(_) | GlobalSet(_) => OpClass::Global,
        // Memory.
        I32Load(_) | I64Load(_) | F32Load(_) | F64Load(_) | I32Load8S(_) | I32Load8U(_)
        | I32Load16S(_) | I32Load16U(_) | I64Load8S(_) | I64Load8U(_) | I64Load16S(_)
        | I64Load16U(_) | I64Load32S(_) | I64Load32U(_) => OpClass::Load,
        I32Store(_) | I64Store(_) | F32Store(_) | F64Store(_) | I32Store8(_) | I32Store16(_)
        | I64Store8(_) | I64Store16(_) | I64Store32(_) => OpClass::Store,
        MemorySize | MemoryGrow => OpClass::Other,
        // Constants.
        I32Const(_) | I64Const(_) | F32Const(_) | F64Const(_) => OpClass::Const,
        // Comparisons.
        I32Eqz | I32Eq | I32Ne | I32LtS | I32LtU | I32GtS | I32GtU | I32LeS | I32LeU | I32GeS
        | I32GeU | I64Eqz | I64Eq | I64Ne | I64LtS | I64LtU | I64GtS | I64GtU | I64LeS | I64LeU
        | I64GeS | I64GeU | F32Eq | F32Ne | F32Lt | F32Gt | F32Le | F32Ge | F64Eq | F64Ne
        | F64Lt | F64Gt | F64Le | F64Ge => OpClass::Compare,
        // Integer ALU.
        I32Clz | I32Ctz | I32Popcnt | I32Add | I32Sub | I32And | I32Or | I32Xor | I32Shl
        | I32ShrS | I32ShrU | I32Rotl | I32Rotr | I64Clz | I64Ctz | I64Popcnt | I64Add | I64Sub
        | I64And | I64Or | I64Xor | I64Shl | I64ShrS | I64ShrU | I64Rotl | I64Rotr => {
            OpClass::IntAlu
        }
        I32Mul | I64Mul => OpClass::IntMul,
        I32DivS | I32DivU | I32RemS | I32RemU | I64DivS | I64DivU | I64RemS | I64RemU => {
            OpClass::IntDiv
        }
        // Float ALU.
        F32Abs | F32Neg | F32Ceil | F32Floor | F32Trunc | F32Nearest | F32Add | F32Sub | F32Min
        | F32Max | F32Copysign | F64Abs | F64Neg | F64Ceil | F64Floor | F64Trunc | F64Nearest
        | F64Add | F64Sub | F64Min | F64Max | F64Copysign => OpClass::FloatAlu,
        F32Mul | F64Mul => OpClass::FloatMul,
        F32Div | F32Sqrt | F64Div | F64Sqrt => OpClass::FloatDiv,
        // Conversions.
        I32WrapI64 | I32TruncF32S | I32TruncF32U | I32TruncF64S | I32TruncF64U | I64ExtendI32S
        | I64ExtendI32U | I64TruncF32S | I64TruncF32U | I64TruncF64S | I64TruncF64U
        | F32ConvertI32S | F32ConvertI32U | F32ConvertI64S | F32ConvertI64U | F32DemoteF64
        | F64ConvertI32S | F64ConvertI32U | F64ConvertI64S | F64ConvertI64U | F64PromoteF32
        | I32ReinterpretF32 | I64ReinterpretF64 | F32ReinterpretI32 | F64ReinterpretI64 => {
            OpClass::Convert
        }
    }
}

/// Whether `i` may trap at its execute point, after its class and Table 12
/// bumps: integer division and remainder (the `IntDiv` class), every load
/// and store, and float-to-integer truncation. Control instructions that
/// trap (`unreachable`, calls) never fuse and are not covered.
pub(crate) const fn can_trap(i: &Instr) -> bool {
    use Instr::*;
    matches!(
        classify(i),
        OpClass::IntDiv | OpClass::Load | OpClass::Store
    ) || matches!(
        i,
        I32TruncF32S
            | I32TruncF32U
            | I32TruncF64S
            | I32TruncF64U
            | I64TruncF32S
            | I64TruncF32U
            | I64TruncF64S
            | I64TruncF64U
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arith_kinds() {
        assert_eq!(arith_kind(&Instr::I64Add), Some(ArithKind::Add));
        assert_eq!(arith_kind(&Instr::I64Mul), Some(ArithKind::Mul));
        assert_eq!(arith_kind(&Instr::I64RemS), Some(ArithKind::Rem));
        assert_eq!(arith_kind(&Instr::I32Shl), Some(ArithKind::Shift));
        assert_eq!(arith_kind(&Instr::I64Or), Some(ArithKind::Or));
        assert_eq!(arith_kind(&Instr::LocalGet(0)), None);
    }

    #[test]
    fn representative_classifications() {
        assert_eq!(classify(&Instr::I32Add), OpClass::IntAlu);
        assert_eq!(classify(&Instr::I64Mul), OpClass::IntMul);
        assert_eq!(classify(&Instr::I32DivU), OpClass::IntDiv);
        assert_eq!(classify(&Instr::F64Mul), OpClass::FloatMul);
        assert_eq!(classify(&Instr::F64Sqrt), OpClass::FloatDiv);
        assert_eq!(classify(&Instr::F64Load(Default::default())), OpClass::Load);
        assert_eq!(
            classify(&Instr::I32Store8(Default::default())),
            OpClass::Store
        );
        assert_eq!(classify(&Instr::BrIf(0)), OpClass::Branch);
        assert_eq!(classify(&Instr::Call(0)), OpClass::Call);
        assert_eq!(classify(&Instr::LocalGet(0)), OpClass::Local);
        assert_eq!(classify(&Instr::GlobalSet(0)), OpClass::Global);
        assert_eq!(classify(&Instr::I32Const(0)), OpClass::Const);
        assert_eq!(classify(&Instr::F64ConvertI32S), OpClass::Convert);
        assert_eq!(classify(&Instr::I32LtS), OpClass::Compare);
    }
}
