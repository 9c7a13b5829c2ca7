//! Module validation (spec §3): stack-discipline type checking of every
//! function body plus module-level index consistency.
//!
//! The algorithm is the spec appendix's control-frame validator: an operand
//! stack of possibly-unknown value types and a stack of control frames,
//! with polymorphic stack behaviour after `unreachable`/`br`.

use crate::error::ValidationError;
use crate::instr::{BlockType, Instr};
use crate::module::{ExportKind, Module};
use crate::types::{FuncType, ValType};

/// Validate a module. Returns `Ok(())` when every function body is
/// well-typed and all cross-references resolve.
pub fn validate(module: &Module) -> Result<(), ValidationError> {
    // --- module-level checks -------------------------------------------
    for imp in &module.imports {
        if imp.type_index as usize >= module.types.len() {
            return Err(ValidationError::BadTypeIndex {
                index: imp.type_index,
            });
        }
    }
    for f in &module.functions {
        if f.type_index as usize >= module.types.len() {
            return Err(ValidationError::BadTypeIndex {
                index: f.type_index,
            });
        }
    }
    for ty in &module.types {
        if ty.results.len() > 1 {
            return Err(ValidationError::BadModuleField {
                detail: "multi-value results are not part of the MVP".into(),
            });
        }
    }
    for (i, g) in module.globals.iter().enumerate() {
        let init_ty = match g.init {
            Instr::I32Const(_) => ValType::I32,
            Instr::I64Const(_) => ValType::I64,
            Instr::F32Const(_) => ValType::F32,
            Instr::F64Const(_) => ValType::F64,
            _ => {
                return Err(ValidationError::BadModuleField {
                    detail: format!("global {i} initializer is not a constant"),
                })
            }
        };
        if init_ty != g.ty.ty {
            return Err(ValidationError::BadModuleField {
                detail: format!("global {i} initializer type mismatch"),
            });
        }
    }
    for e in &module.exports {
        let ok = match e.kind {
            ExportKind::Func(i) => (i as usize) < module.func_count(),
            ExportKind::Memory(i) => i == 0 && module.memory.is_some(),
            ExportKind::Global(i) => (i as usize) < module.globals.len(),
            ExportKind::Table(i) => i == 0 && module.table.is_some(),
        };
        if !ok {
            return Err(ValidationError::BadExport {
                name: e.name.clone(),
            });
        }
    }
    if let Some(start) = module.start {
        let ty = module
            .func_type(start)
            .ok_or(ValidationError::BadFuncIndex { index: start })?;
        if !ty.params.is_empty() || !ty.results.is_empty() {
            return Err(ValidationError::BadModuleField {
                detail: "start function must have type [] -> []".into(),
            });
        }
    }
    for el in &module.elements {
        if module.table.is_none() {
            return Err(ValidationError::NoTable);
        }
        for &f in &el.funcs {
            if f as usize >= module.func_count() {
                return Err(ValidationError::BadFuncIndex { index: f });
            }
        }
    }
    if !module.data.is_empty() && module.memory.is_none() {
        return Err(ValidationError::NoMemory);
    }

    // --- function bodies -------------------------------------------------
    for def_index in 0..module.functions.len() {
        operand_heights(module, def_index)?;
    }
    Ok(())
}

/// The operand-stack heights of one function body, as its validation
/// tracks them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperandHeights {
    /// Per instruction, the operand height before it. The label a
    /// `block` or `loop` opens sits at its height, an `if`'s one below
    /// (after it pops its condition); a branch to a label leaves the
    /// stack at that height plus the values the label carries. In
    /// unreachable code it is the height of the polymorphic stack.
    pub before: Vec<u32>,
    /// The greatest height the body reaches.
    pub peak: u32,
}

/// Type-check the body of defined function `def_index` (spec §3.3) and
/// return its [`OperandHeights`].
pub fn operand_heights(
    module: &Module,
    def_index: usize,
) -> Result<OperandHeights, ValidationError> {
    let f = module
        .functions
        .get(def_index)
        .ok_or(ValidationError::BadFuncIndex {
            index: (module.imports.len() + def_index) as u32,
        })?;
    let ty = module
        .types
        .get(f.type_index as usize)
        .ok_or(ValidationError::BadTypeIndex {
            index: f.type_index,
        })?;
    FuncValidator::new(module, def_index, ty, &f.locals).run(&f.body)
}

/// `None` represents the unknown (bottom) type on a polymorphic stack.
type Operand = Option<ValType>;

struct Frame {
    /// Result types the frame yields at its `end`.
    end_types: Vec<ValType>,
    /// Types a branch *to this frame* expects (loop: entry types = none in
    /// MVP since blocks have no params; block/if: result types).
    label_types: Vec<ValType>,
    /// Operand-stack height at frame entry.
    height: usize,
    /// Set once the frame's remainder is unreachable.
    unreachable: bool,
    /// True for `if` frames that may still take an `else`.
    is_if: bool,
}

struct FuncValidator<'m> {
    module: &'m Module,
    func_index: usize,
    locals: Vec<ValType>,
    results: Vec<ValType>,
    operands: Vec<Operand>,
    frames: Vec<Frame>,
}

impl<'m> FuncValidator<'m> {
    fn new(module: &'m Module, func_index: usize, ty: &FuncType, locals: &[ValType]) -> Self {
        let mut all_locals = ty.params.clone();
        all_locals.extend_from_slice(locals);
        FuncValidator {
            module,
            func_index,
            locals: all_locals,
            results: ty.results.clone(),
            operands: Vec::new(),
            frames: Vec::new(),
        }
    }

    fn error(&self, detail: impl Into<String>) -> ValidationError {
        ValidationError::TypeMismatch {
            detail: detail.into(),
        }
    }

    fn push(&mut self, t: ValType) {
        self.operands.push(Some(t));
    }

    fn push_unknown(&mut self) {
        self.operands.push(None);
    }

    fn pop_any(&mut self) -> Result<Operand, ValidationError> {
        let frame = self
            .frames
            .last()
            .ok_or(ValidationError::MalformedControl {
                detail: "operand popped outside any frame".into(),
            })?;
        if self.operands.len() == frame.height {
            if frame.unreachable {
                return Ok(None);
            }
            return Err(self.error("operand stack underflow"));
        }
        Ok(self.operands.pop().expect("checked non-empty"))
    }

    fn pop_expect(&mut self, want: ValType) -> Result<(), ValidationError> {
        match self.pop_any()? {
            None => Ok(()),
            Some(got) if got == want => Ok(()),
            Some(got) => Err(self.error(format!("expected {}, got {}", want.wat(), got.wat()))),
        }
    }

    fn push_frame(&mut self, bt: BlockType, is_if: bool, is_loop: bool) {
        let results: Vec<ValType> = match bt {
            BlockType::Empty => vec![],
            BlockType::Value(t) => vec![t],
        };
        self.frames.push(Frame {
            label_types: if is_loop { vec![] } else { results.clone() },
            end_types: results,
            height: self.operands.len(),
            unreachable: false,
            is_if,
        });
    }

    fn set_unreachable(&mut self) {
        let frame = self.frames.last_mut().expect("frame always present");
        self.operands.truncate(frame.height);
        frame.unreachable = true;
    }

    fn label_types(&self, depth: u32) -> Result<Vec<ValType>, ValidationError> {
        let depth = depth as usize;
        if depth >= self.frames.len() {
            return Err(ValidationError::BadLabel {
                depth: depth as u32,
            });
        }
        Ok(self.frames[self.frames.len() - 1 - depth]
            .label_types
            .clone())
    }

    fn check_memory(&self) -> Result<(), ValidationError> {
        if self.module.memory.is_none() {
            return Err(ValidationError::NoMemory);
        }
        Ok(())
    }

    fn check_align(&self, align: u32, natural: u32) -> Result<(), ValidationError> {
        if align > natural {
            return Err(ValidationError::BadAlignment);
        }
        Ok(())
    }

    fn local_type(&self, index: u32) -> Result<ValType, ValidationError> {
        self.locals
            .get(index as usize)
            .copied()
            .ok_or(ValidationError::BadLocalIndex { index })
    }

    fn binary(&mut self, operand: ValType, result: ValType) -> Result<(), ValidationError> {
        self.pop_expect(operand)?;
        self.pop_expect(operand)?;
        self.push(result);
        Ok(())
    }

    fn unary(&mut self, operand: ValType, result: ValType) -> Result<(), ValidationError> {
        self.pop_expect(operand)?;
        self.push(result);
        Ok(())
    }

    fn load(
        &mut self,
        m: &crate::instr::MemArg,
        natural: u32,
        result: ValType,
    ) -> Result<(), ValidationError> {
        self.check_memory()?;
        self.check_align(m.align, natural)?;
        self.pop_expect(ValType::I32)?;
        self.push(result);
        Ok(())
    }

    fn store(
        &mut self,
        m: &crate::instr::MemArg,
        natural: u32,
        operand: ValType,
    ) -> Result<(), ValidationError> {
        self.check_memory()?;
        self.check_align(m.align, natural)?;
        self.pop_expect(operand)?;
        self.pop_expect(ValType::I32)?;
        Ok(())
    }

    fn run(mut self, body: &[Instr]) -> Result<OperandHeights, ValidationError> {
        // Implicit function frame.
        self.frames.push(Frame {
            end_types: self.results.clone(),
            label_types: self.results.clone(),
            height: 0,
            unreachable: false,
            is_if: false,
        });

        let mut before = Vec::with_capacity(body.len());
        let mut peak = 0;
        for (pc, instr) in body.iter().enumerate() {
            before.push(self.operands.len() as u32);
            self.step(instr)
                .map_err(|e| e.in_function(self.func_index, pc))?;
            peak = peak.max(self.operands.len() as u32);
        }

        if !self.frames.is_empty() {
            return Err(ValidationError::MalformedControl {
                detail: format!("{} unclosed frame(s) at end of body", self.frames.len()),
            }
            .in_function(self.func_index, body.len()));
        }
        Ok(OperandHeights { before, peak })
    }

    fn step(&mut self, instr: &Instr) -> Result<(), ValidationError> {
        use Instr::*;
        use ValType::*;
        // The final `End` pops the implicit function frame; nothing may
        // follow it.
        if self.frames.is_empty() {
            return Err(ValidationError::MalformedControl {
                detail: "instruction after end of function body".into(),
            });
        }
        match instr {
            Unreachable => self.set_unreachable(),
            Nop => {}
            Block(bt) => self.push_frame(*bt, false, false),
            Loop(bt) => self.push_frame(*bt, false, true),
            If(bt) => {
                self.pop_expect(I32)?;
                self.push_frame(*bt, true, false);
            }
            Else => {
                let frame = self
                    .frames
                    .last()
                    .ok_or(ValidationError::MalformedControl {
                        detail: "else outside any frame".into(),
                    })?;
                if !frame.is_if {
                    return Err(ValidationError::MalformedControl {
                        detail: "else without if".into(),
                    });
                }
                // End of then-arm: results must be on the stack.
                let end_types = frame.end_types.clone();
                let height = frame.height;
                let was_unreachable = frame.unreachable;
                for t in end_types.iter().rev() {
                    self.pop_expect(*t)?;
                }
                if self.operands.len() != height && !was_unreachable {
                    return Err(self.error("leftover operands before else"));
                }
                self.operands.truncate(height);
                if let Some(frame) = self.frames.last_mut() {
                    frame.unreachable = false;
                    frame.is_if = false;
                }
            }
            End => {
                let frame = self.frames.pop().ok_or(ValidationError::MalformedControl {
                    detail: "end outside any frame".into(),
                })?;
                // An `if` without `else` must have empty results (the
                // skipped else-arm yields nothing).
                if frame.is_if && !frame.end_types.is_empty() {
                    return Err(ValidationError::MalformedControl {
                        detail: "if with result type requires an else arm".into(),
                    });
                }
                if !frame.unreachable {
                    let mut popped = Vec::new();
                    for t in frame.end_types.iter().rev() {
                        match self.operands.pop() {
                            Some(Some(got)) if got == *t => popped.push(got),
                            Some(None) => popped.push(*t),
                            other => {
                                return Err(self
                                    .error(format!("block end expected {:?}, got {:?}", t, other)))
                            }
                        }
                    }
                    if self.operands.len() != frame.height {
                        return Err(self.error("leftover operands at block end"));
                    }
                } else {
                    self.operands.truncate(frame.height);
                }
                for t in &frame.end_types {
                    self.push(*t);
                }
            }
            Br(depth) => {
                let types = self.label_types(*depth)?;
                for t in types.iter().rev() {
                    self.pop_expect(*t)?;
                }
                self.set_unreachable();
            }
            BrIf(depth) => {
                self.pop_expect(I32)?;
                let types = self.label_types(*depth)?;
                for t in types.iter().rev() {
                    self.pop_expect(*t)?;
                }
                for t in &types {
                    self.push(*t);
                }
            }
            BrTable(targets, default) => {
                self.pop_expect(I32)?;
                let default_types = self.label_types(*default)?;
                for t in targets {
                    let tt = self.label_types(*t)?;
                    if tt != default_types {
                        return Err(self.error("br_table arms disagree on label types"));
                    }
                }
                for t in default_types.iter().rev() {
                    self.pop_expect(*t)?;
                }
                self.set_unreachable();
            }
            Return => {
                let results = self.results.clone();
                for t in results.iter().rev() {
                    self.pop_expect(*t)?;
                }
                self.set_unreachable();
            }
            Call(f) => {
                let ty = self
                    .module
                    .func_type(*f)
                    .ok_or(ValidationError::BadFuncIndex { index: *f })?
                    .clone();
                for t in ty.params.iter().rev() {
                    self.pop_expect(*t)?;
                }
                for t in &ty.results {
                    self.push(*t);
                }
            }
            CallIndirect(ti) => {
                if self.module.table.is_none() {
                    return Err(ValidationError::NoTable);
                }
                let ty = self
                    .module
                    .types
                    .get(*ti as usize)
                    .ok_or(ValidationError::BadTypeIndex { index: *ti })?
                    .clone();
                self.pop_expect(I32)?; // table index operand
                for t in ty.params.iter().rev() {
                    self.pop_expect(*t)?;
                }
                for t in &ty.results {
                    self.push(*t);
                }
            }
            Drop => {
                self.pop_any()?;
            }
            Select => {
                self.pop_expect(I32)?;
                let a = self.pop_any()?;
                let b = self.pop_any()?;
                match (a, b) {
                    (Some(x), Some(y)) if x != y => {
                        return Err(self.error("select operands disagree"))
                    }
                    (Some(x), _) => self.push(x),
                    (None, Some(y)) => self.push(y),
                    (None, None) => self.push_unknown(),
                }
            }
            LocalGet(i) => {
                let t = self.local_type(*i)?;
                self.push(t);
            }
            LocalSet(i) => {
                let t = self.local_type(*i)?;
                self.pop_expect(t)?;
            }
            LocalTee(i) => {
                let t = self.local_type(*i)?;
                self.pop_expect(t)?;
                self.push(t);
            }
            GlobalGet(i) => {
                let g = self
                    .module
                    .globals
                    .get(*i as usize)
                    .ok_or(ValidationError::BadGlobalIndex { index: *i })?;
                self.push(g.ty.ty);
            }
            GlobalSet(i) => {
                let g = self
                    .module
                    .globals
                    .get(*i as usize)
                    .ok_or(ValidationError::BadGlobalIndex { index: *i })?;
                if !g.ty.mutable {
                    return Err(ValidationError::ImmutableGlobal { index: *i });
                }
                let t = g.ty.ty;
                self.pop_expect(t)?;
            }
            I32Load(m) => self.load(m, 2, I32)?,
            I64Load(m) => self.load(m, 3, I64)?,
            F32Load(m) => self.load(m, 2, F32)?,
            F64Load(m) => self.load(m, 3, F64)?,
            I32Load8S(m) | I32Load8U(m) => self.load(m, 0, I32)?,
            I32Load16S(m) | I32Load16U(m) => self.load(m, 1, I32)?,
            I64Load8S(m) | I64Load8U(m) => self.load(m, 0, I64)?,
            I64Load16S(m) | I64Load16U(m) => self.load(m, 1, I64)?,
            I64Load32S(m) | I64Load32U(m) => self.load(m, 2, I64)?,
            I32Store(m) => self.store(m, 2, I32)?,
            I64Store(m) => self.store(m, 3, I64)?,
            F32Store(m) => self.store(m, 2, F32)?,
            F64Store(m) => self.store(m, 3, F64)?,
            I32Store8(m) => self.store(m, 0, I32)?,
            I32Store16(m) => self.store(m, 1, I32)?,
            I64Store8(m) => self.store(m, 0, I64)?,
            I64Store16(m) => self.store(m, 1, I64)?,
            I64Store32(m) => self.store(m, 2, I64)?,
            MemorySize => {
                self.check_memory()?;
                self.push(I32);
            }
            MemoryGrow => {
                self.check_memory()?;
                self.pop_expect(I32)?;
                self.push(I32);
            }
            I32Const(_) => self.push(I32),
            I64Const(_) => self.push(I64),
            F32Const(_) => self.push(F32),
            F64Const(_) => self.push(F64),
            I32Eqz => self.unary(I32, I32)?,
            I32Eq | I32Ne | I32LtS | I32LtU | I32GtS | I32GtU | I32LeS | I32LeU | I32GeS
            | I32GeU => self.binary(I32, I32)?,
            I64Eqz => self.unary(I64, I32)?,
            I64Eq | I64Ne | I64LtS | I64LtU | I64GtS | I64GtU | I64LeS | I64LeU | I64GeS
            | I64GeU => self.binary(I64, I32)?,
            F32Eq | F32Ne | F32Lt | F32Gt | F32Le | F32Ge => self.binary(F32, I32)?,
            F64Eq | F64Ne | F64Lt | F64Gt | F64Le | F64Ge => self.binary(F64, I32)?,
            I32Clz | I32Ctz | I32Popcnt => self.unary(I32, I32)?,
            I32Add | I32Sub | I32Mul | I32DivS | I32DivU | I32RemS | I32RemU | I32And | I32Or
            | I32Xor | I32Shl | I32ShrS | I32ShrU | I32Rotl | I32Rotr => self.binary(I32, I32)?,
            I64Clz | I64Ctz | I64Popcnt => self.unary(I64, I64)?,
            I64Add | I64Sub | I64Mul | I64DivS | I64DivU | I64RemS | I64RemU | I64And | I64Or
            | I64Xor | I64Shl | I64ShrS | I64ShrU | I64Rotl | I64Rotr => self.binary(I64, I64)?,
            F32Abs | F32Neg | F32Ceil | F32Floor | F32Trunc | F32Nearest | F32Sqrt => {
                self.unary(F32, F32)?
            }
            F32Add | F32Sub | F32Mul | F32Div | F32Min | F32Max | F32Copysign => {
                self.binary(F32, F32)?
            }
            F64Abs | F64Neg | F64Ceil | F64Floor | F64Trunc | F64Nearest | F64Sqrt => {
                self.unary(F64, F64)?
            }
            F64Add | F64Sub | F64Mul | F64Div | F64Min | F64Max | F64Copysign => {
                self.binary(F64, F64)?
            }
            I32WrapI64 => self.unary(I64, I32)?,
            I32TruncF32S | I32TruncF32U => self.unary(F32, I32)?,
            I32TruncF64S | I32TruncF64U => self.unary(F64, I32)?,
            I64ExtendI32S | I64ExtendI32U => self.unary(I32, I64)?,
            I64TruncF32S | I64TruncF32U => self.unary(F32, I64)?,
            I64TruncF64S | I64TruncF64U => self.unary(F64, I64)?,
            F32ConvertI32S | F32ConvertI32U => self.unary(I32, F32)?,
            F32ConvertI64S | F32ConvertI64U => self.unary(I64, F32)?,
            F32DemoteF64 => self.unary(F64, F32)?,
            F64ConvertI32S | F64ConvertI32U => self.unary(I32, F64)?,
            F64ConvertI64S | F64ConvertI64U => self.unary(I64, F64)?,
            F64PromoteF32 => self.unary(F32, F64)?,
            I32ReinterpretF32 => self.unary(F32, I32)?,
            I64ReinterpretF64 => self.unary(F64, I64)?,
            F32ReinterpretI32 => self.unary(I32, F32)?,
            F64ReinterpretI64 => self.unary(I64, F64)?,
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::Function;
    use crate::types::Limits;
    use crate::MemorySpec;

    fn module_with_body(params: Vec<ValType>, results: Vec<ValType>, body: Vec<Instr>) -> Module {
        let mut m = Module::new();
        let t = m.intern_type(FuncType::new(params, results));
        m.functions.push(Function {
            type_index: t,
            locals: vec![],
            body,
            name: None,
        });
        m
    }

    #[test]
    fn accepts_identity() {
        let m = module_with_body(
            vec![ValType::I32],
            vec![ValType::I32],
            vec![Instr::LocalGet(0), Instr::End],
        );
        validate(&m).unwrap();
    }

    #[test]
    fn rejects_missing_result() {
        let m = module_with_body(vec![], vec![ValType::I32], vec![Instr::End]);
        assert!(validate(&m).is_err());
    }

    #[test]
    fn rejects_type_confusion() {
        let m = module_with_body(
            vec![ValType::F64],
            vec![ValType::I32],
            vec![Instr::LocalGet(0), Instr::End],
        );
        let e = validate(&m).unwrap_err();
        assert!(matches!(
            e.root_cause(),
            ValidationError::TypeMismatch { .. }
        ));
    }

    #[test]
    fn rejects_stack_underflow() {
        let m = module_with_body(vec![], vec![], vec![Instr::I32Add, Instr::Drop, Instr::End]);
        assert!(validate(&m).is_err());
    }

    #[test]
    fn accepts_loop_with_branch() {
        // loop { local.get 0; i32.const 1; i32.sub; local.tee 0; br_if 0 }
        let m = module_with_body(
            vec![ValType::I32],
            vec![],
            vec![
                Instr::Loop(BlockType::Empty),
                Instr::LocalGet(0),
                Instr::I32Const(1),
                Instr::I32Sub,
                Instr::LocalTee(0),
                Instr::BrIf(0),
                Instr::End,
                Instr::End,
            ],
        );
        validate(&m).unwrap();
    }

    #[test]
    fn rejects_branch_depth_out_of_range() {
        let m = module_with_body(vec![], vec![], vec![Instr::Br(3), Instr::End]);
        let e = validate(&m).unwrap_err();
        assert!(matches!(
            e.root_cause(),
            ValidationError::BadLabel { depth: 3 }
        ));
    }

    #[test]
    fn code_after_unreachable_is_polymorphic() {
        let m = module_with_body(
            vec![],
            vec![ValType::I32],
            vec![Instr::Unreachable, Instr::I32Add, Instr::End],
        );
        validate(&m).unwrap();
    }

    #[test]
    fn rejects_memory_ops_without_memory() {
        let m = module_with_body(
            vec![],
            vec![],
            vec![
                Instr::I32Const(0),
                Instr::I32Load(crate::instr::MemArg::natural(4)),
                Instr::Drop,
                Instr::End,
            ],
        );
        let e = validate(&m).unwrap_err();
        assert_eq!(e.root_cause(), &ValidationError::NoMemory);
    }

    #[test]
    fn accepts_memory_ops_with_memory() {
        let mut m = module_with_body(
            vec![],
            vec![],
            vec![
                Instr::I32Const(0),
                Instr::I32Const(7),
                Instr::I32Store(crate::instr::MemArg::natural(4)),
                Instr::End,
            ],
        );
        m.memory = Some(MemorySpec {
            limits: Limits::at_least(1),
        });
        validate(&m).unwrap();
    }

    #[test]
    fn rejects_overaligned_access() {
        let mut m = module_with_body(
            vec![],
            vec![],
            vec![
                Instr::I32Const(0),
                Instr::I32Load(crate::instr::MemArg {
                    align: 3,
                    offset: 0,
                }),
                Instr::Drop,
                Instr::End,
            ],
        );
        m.memory = Some(MemorySpec {
            limits: Limits::at_least(1),
        });
        let e = validate(&m).unwrap_err();
        assert!(matches!(e.root_cause(), ValidationError::BadAlignment));
    }

    #[test]
    fn if_with_result_requires_else() {
        let m = module_with_body(
            vec![ValType::I32],
            vec![ValType::I32],
            vec![
                Instr::LocalGet(0),
                Instr::If(BlockType::Value(ValType::I32)),
                Instr::I32Const(1),
                Instr::End,
                Instr::End,
            ],
        );
        assert!(validate(&m).is_err());
    }

    #[test]
    fn if_else_with_result_accepted() {
        let m = module_with_body(
            vec![ValType::I32],
            vec![ValType::I32],
            vec![
                Instr::LocalGet(0),
                Instr::If(BlockType::Value(ValType::I32)),
                Instr::I32Const(1),
                Instr::Else,
                Instr::I32Const(2),
                Instr::End,
                Instr::End,
            ],
        );
        validate(&m).unwrap();
    }

    #[test]
    fn rejects_set_of_immutable_global() {
        let mut m = module_with_body(
            vec![],
            vec![],
            vec![Instr::I32Const(1), Instr::GlobalSet(0), Instr::End],
        );
        m.globals.push(crate::module::Global {
            ty: crate::types::GlobalType {
                ty: ValType::I32,
                mutable: false,
            },
            init: Instr::I32Const(0),
        });
        let e = validate(&m).unwrap_err();
        assert_eq!(
            e.root_cause(),
            &ValidationError::ImmutableGlobal { index: 0 }
        );
    }

    #[test]
    fn rejects_dangling_export() {
        let mut m = Module::new();
        m.exports.push(crate::module::Export {
            name: "f".into(),
            kind: ExportKind::Func(0),
        });
        assert!(matches!(
            validate(&m),
            Err(ValidationError::BadExport { .. })
        ));
    }

    #[test]
    fn rejects_call_of_missing_function() {
        let m = module_with_body(vec![], vec![], vec![Instr::Call(9), Instr::End]);
        let e = validate(&m).unwrap_err();
        assert!(matches!(
            e.root_cause(),
            ValidationError::BadFuncIndex { index: 9 }
        ));
    }

    #[test]
    fn call_indirect_requires_table() {
        let m = module_with_body(
            vec![],
            vec![],
            vec![Instr::I32Const(0), Instr::CallIndirect(0), Instr::End],
        );
        let e = validate(&m).unwrap_err();
        assert_eq!(e.root_cause(), &ValidationError::NoTable);
    }

    #[test]
    fn errors_carry_function_and_instruction_context() {
        let m = module_with_body(
            vec![],
            vec![],
            vec![
                Instr::Nop,
                Instr::I32Const(1),
                Instr::LocalSet(7),
                Instr::End,
            ],
        );
        match validate(&m).unwrap_err() {
            ValidationError::InFunction { func, at, source } => {
                assert_eq!(func, 0);
                assert_eq!(at, 2);
                assert_eq!(*source, ValidationError::BadLocalIndex { index: 7 });
            }
            other => panic!("expected InFunction, got {other:?}"),
        }
    }

    #[test]
    fn rejects_instruction_after_final_end() {
        let m = module_with_body(vec![], vec![], vec![Instr::End, Instr::Nop]);
        let e = validate(&m).unwrap_err();
        assert!(
            matches!(e.root_cause(), ValidationError::MalformedControl { detail }
                if detail.contains("after end")),
            "{e:?}"
        );
    }

    #[test]
    fn rejects_pop_after_final_end() {
        // A pop with no frames must error, not panic.
        let m = module_with_body(vec![], vec![], vec![Instr::End, Instr::Drop]);
        assert!(validate(&m).is_err());
    }

    #[test]
    fn operand_heights_are_the_heights_before_each_instruction() {
        use Instr::*;
        let m = module_with_body(
            vec![ValType::I32],
            vec![],
            vec![
                I32Const(1),             // 0
                Block(BlockType::Empty), // 1 label above the 1
                I32Const(2),             // 2
                LocalGet(0),             // 3
                If(BlockType::Empty),    // 4 label above the 1 and 2: pops its condition
                Loop(BlockType::Empty),  // 5
                I32Const(3),             // 6
                I32Const(4),             // 7 the peak: 1, 2, 3 and 4
                Br(2),                   // 8 leaves the block
                I32Const(5),             // 9 dead: the polymorphic stack at the loop's label
                Drop,                    // 10
                End,                     // 11 closes the loop
                End,                     // 12 closes the if, still dead
                Drop,                    // 13 the if's false edge: the 2
                End,                     // 14 closes the block
                Drop,                    // 15 the 1
                End,                     // 16
            ],
        );
        let heights = operand_heights(&m, 0).unwrap();
        assert_eq!(
            heights.before,
            vec![0, 1, 1, 2, 3, 2, 2, 3, 4, 2, 3, 2, 2, 2, 1, 1, 0]
        );
        assert_eq!(heights.peak, 4);
        assert!(matches!(
            operand_heights(&m, 1),
            Err(ValidationError::BadFuncIndex { index: 1 })
        ));
    }

    #[test]
    fn br_table_checked() {
        let m = module_with_body(
            vec![ValType::I32],
            vec![],
            vec![
                Instr::Block(BlockType::Empty),
                Instr::Block(BlockType::Empty),
                Instr::LocalGet(0),
                Instr::BrTable(vec![0, 1], 0),
                Instr::End,
                Instr::End,
                Instr::End,
            ],
        );
        validate(&m).unwrap();
    }
}
