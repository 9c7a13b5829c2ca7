//! The MiniJS stack bytecode.

use crate::ast::TypedKind;
use wb_env::{ArithKind, OpClass};

/// A compile-time constant.
#[derive(Debug, Clone, PartialEq)]
pub enum Const {
    /// A number.
    Num(f64),
    /// A string (materialized on the heap at load time).
    Str(String),
}

/// One bytecode operation.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // Mechanical 1:1 names; semantics in the VM.
pub enum Op {
    /// Push chunk constant.
    Const(u32),
    Undef,
    Null,
    True,
    False,
    LoadLocal(u16),
    StoreLocal(u16),
    /// Load a global by name index; `ReferenceError` if absent.
    LoadGlobal(u32),
    StoreGlobal(u32),
    // Arithmetic (JS numbers are doubles; `Add` also concatenates strings).
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Neg,
    Not,
    BitNot,
    TypeofOp,
    // Comparison.
    Lt,
    Gt,
    Le,
    Ge,
    EqEq,
    NotEq,
    StrictEq,
    StrictNe,
    // 32-bit coercing bitwise ops.
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
    UShr,
    /// Unconditional relative jump (negative = loop back-edge).
    Jump(i32),
    /// Pop condition; jump when falsy.
    JumpIfFalse(i32),
    /// Peek condition; jump when falsy (for `&&`), else pop.
    JumpIfFalsePeek(i32),
    /// Peek condition; jump when truthy (for `||`), else pop.
    JumpIfTruePeek(i32),
    Pop,
    Dup,
    /// Duplicate the top two stack values (compound index assignment).
    Dup2,
    /// Pop `n` values, push a new array.
    MakeArray(u16),
    /// Pop `n` (key-const-index baked) values, push a new object. The
    /// paired key name indices live in the chunk's `object_shapes`.
    MakeObject {
        shape: u32,
    },
    /// Pop length, push a typed array.
    NewTyped(TypedKind),
    /// Pop length, push a plain array of `undefined`s.
    NewArrayN,
    /// obj, index → value.
    GetIndex,
    /// obj, index, value → value.
    SetIndex,
    /// obj → value (property by name index).
    GetMember(u32),
    /// obj, value → value.
    SetMember(u32),
    /// callee, args… → result.
    Call(u8),
    /// obj, args… → result (dispatches stdlib methods or closure props).
    MethodCall {
        name: u32,
        argc: u8,
    },
    /// Push a closure over chunk `idx`.
    ClosureOp(u32),
    /// Pop return value, exit frame.
    Return,
    /// Exit frame with `undefined`.
    ReturnUndef,
}

impl Op {
    /// Cost-model class of this op.
    pub fn class(&self) -> OpClass {
        use Op::*;
        match self {
            Const(_) | Undef | Null | True | False => OpClass::Const,
            LoadLocal(_) | StoreLocal(_) => OpClass::Local,
            LoadGlobal(_) | StoreGlobal(_) => OpClass::Global,
            Add | Sub | Neg => OpClass::FloatAlu,
            Mul => OpClass::FloatMul,
            Div | Mod => OpClass::FloatDiv,
            Not | BitNot | TypeofOp => OpClass::IntAlu,
            Lt | Gt | Le | Ge | EqEq | NotEq | StrictEq | StrictNe => OpClass::Compare,
            BitAnd | BitOr | BitXor | Shl | Shr | UShr => OpClass::IntAlu,
            Jump(_) | JumpIfFalse(_) | JumpIfFalsePeek(_) | JumpIfTruePeek(_) => OpClass::Branch,
            Pop | Dup | Dup2 => OpClass::Other,
            MakeArray(_) | MakeObject { .. } | NewTyped(_) | NewArrayN | ClosureOp(_) => {
                OpClass::Other
            }
            GetIndex | GetMember(_) => OpClass::Load,
            SetIndex | SetMember(_) => OpClass::Store,
            Call(_) | MethodCall { .. } | Return | ReturnUndef => OpClass::Call,
        }
    }

    /// Table 12 column this op counts in, if it is arithmetic. The one
    /// arithmetic table: the plain loop and every fused form read it.
    #[inline]
    pub fn arith(&self) -> Option<ArithKind> {
        use Op::*;
        Some(match self {
            Add | Sub => ArithKind::Add,
            Mul => ArithKind::Mul,
            Div => ArithKind::Div,
            Mod => ArithKind::Rem,
            Shl | Shr | UShr => ArithKind::Shift,
            BitAnd => ArithKind::And,
            BitOr | BitXor => ArithKind::Or,
            _ => return None,
        })
    }
}

/// A compiled function (or the top-level script, chunk 0).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Chunk {
    /// Debug name.
    pub name: String,
    /// Parameter count.
    pub arity: u16,
    /// Total local slots (params + declared vars).
    pub nlocals: u16,
    /// The code.
    pub code: Vec<Op>,
    /// Constant pool.
    pub consts: Vec<Const>,
    /// Key-name-index lists for `MakeObject` shapes.
    pub object_shapes: Vec<Vec<u32>>,
}

/// A compiled script: chunks plus the interned name table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Chunk 0 is the top level; functions follow.
    pub chunks: Vec<Chunk>,
    /// Interned identifier/property names.
    pub names: Vec<String>,
}

impl Program {
    /// Total bytecode ops across chunks (compile-cost input and the JS
    /// "code size" proxy used in reports).
    pub fn op_count(&self) -> usize {
        self.chunks.iter().map(|c| c.code.len()).sum()
    }

    /// Resolve a name index back to its string.
    pub fn name(&self, idx: u32) -> &str {
        &self.names[idx as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_classes_are_sensible() {
        assert_eq!(Op::Add.class(), OpClass::FloatAlu);
        assert_eq!(Op::Mul.class(), OpClass::FloatMul);
        assert_eq!(Op::BitXor.class(), OpClass::IntAlu);
        assert_eq!(Op::GetIndex.class(), OpClass::Load);
        assert_eq!(Op::SetMember(0).class(), OpClass::Store);
        assert_eq!(Op::Jump(-5).class(), OpClass::Branch);
        assert_eq!(Op::Call(2).class(), OpClass::Call);
        assert_eq!(Op::LoadLocal(0).class(), OpClass::Local);
        assert_eq!(Op::LoadGlobal(0).class(), OpClass::Global);
    }

    #[test]
    fn arith_columns() {
        assert_eq!(Op::Sub.arith(), Some(ArithKind::Add));
        assert_eq!(Op::Mod.arith(), Some(ArithKind::Rem));
        assert_eq!(Op::UShr.arith(), Some(ArithKind::Shift));
        assert_eq!(Op::BitXor.arith(), Some(ArithKind::Or));
        assert_eq!(Op::Neg.arith(), None);
        assert_eq!(Op::Lt.arith(), None);
    }

    #[test]
    fn program_op_count_sums_chunks() {
        let mut p = Program::default();
        p.chunks.push(Chunk {
            code: vec![Op::Undef, Op::Return],
            ..Default::default()
        });
        p.chunks.push(Chunk {
            code: vec![Op::True, Op::Pop, Op::ReturnUndef],
            ..Default::default()
        });
        assert_eq!(p.op_count(), 5);
    }
}
