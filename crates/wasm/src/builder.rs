//! Ergonomic module construction, used by the MiniC backend and by the
//! hand-written modules in `wb-benchmarks` (e.g. the Long.js analogue).

use crate::instr::Instr;
use crate::module::{
    Data, Element, Export, ExportKind, FuncImport, Function, Global, MemorySpec, Module, TableSpec,
};
use crate::types::{FuncType, GlobalType, Limits, ValType};

/// Builder for a [`Module`].
#[derive(Debug, Default)]
pub struct ModuleBuilder {
    module: Module,
}

impl ModuleBuilder {
    /// Start an empty module.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a linear memory with `min` pages and optional `max`.
    pub fn memory(&mut self, min: u32, max: Option<u32>) -> &mut Self {
        self.module.memory = Some(MemorySpec {
            limits: Limits { min, max },
        });
        self
    }

    /// Declare a funcref table with `min` elements.
    pub fn table(&mut self, min: u32) -> &mut Self {
        self.module.table = Some(TableSpec {
            limits: Limits::at_least(min),
        });
        self
    }

    /// Import a host function; returns its function index.
    ///
    /// All imports must be added before any defined function, mirroring the
    /// wasm index space.
    pub fn import_func(
        &mut self,
        module: &str,
        field: &str,
        params: Vec<ValType>,
        results: Vec<ValType>,
    ) -> u32 {
        assert!(
            self.module.functions.is_empty(),
            "imports must precede defined functions"
        );
        let type_index = self.module.intern_type(FuncType::new(params, results));
        self.module.imports.push(FuncImport {
            module: module.into(),
            field: field.into(),
            type_index,
        });
        (self.module.imports.len() - 1) as u32
    }

    /// Add a mutable global; returns its index.
    pub fn global(&mut self, ty: ValType, mutable: bool, init: Instr) -> u32 {
        self.module.globals.push(Global {
            ty: GlobalType { ty, mutable },
            init,
        });
        (self.module.globals.len() - 1) as u32
    }

    /// Add an active data segment.
    pub fn data(&mut self, offset: i32, bytes: Vec<u8>) -> &mut Self {
        self.module.data.push(Data { offset, bytes });
        self
    }

    /// Add an active element segment.
    pub fn elements(&mut self, offset: i32, funcs: Vec<u32>) -> &mut Self {
        self.module.elements.push(Element { offset, funcs });
        self
    }

    /// Begin a function; returns a [`FuncBuilder`]. The function index it
    /// will occupy is `imports.len() + functions.len()` at `finish` time.
    pub fn func(&mut self, name: &str, params: Vec<ValType>, results: Vec<ValType>) -> FuncBuilder {
        let type_index = self
            .module
            .intern_type(FuncType::new(params.clone(), results));
        FuncBuilder {
            type_index,
            param_count: params.len() as u32,
            locals: Vec::new(),
            body: Vec::new(),
            name: name.to_string(),
        }
    }

    /// Attach a finished function; returns its function index.
    pub fn finish_func(&mut self, f: FuncBuilder, export: bool) -> u32 {
        let index = self.module.func_count() as u32;
        if export {
            self.module.exports.push(Export {
                name: f.name.clone(),
                kind: ExportKind::Func(index),
            });
        }
        self.module.functions.push(Function {
            type_index: f.type_index,
            locals: f.locals,
            body: f.body,
            name: Some(f.name),
        });
        index
    }

    /// Set the start function.
    pub fn start(&mut self, func_index: u32) -> &mut Self {
        self.module.start = Some(func_index);
        self
    }

    /// Consume the builder, yielding the module.
    pub fn build(self) -> Module {
        self.module
    }
}

/// Builder for a single function body.
#[derive(Debug)]
pub struct FuncBuilder {
    type_index: u32,
    param_count: u32,
    locals: Vec<ValType>,
    body: Vec<Instr>,
    name: String,
}

impl FuncBuilder {
    /// Declare a local; returns its index (after parameters).
    pub fn local(&mut self, ty: ValType) -> u32 {
        self.locals.push(ty);
        self.param_count + (self.locals.len() - 1) as u32
    }

    /// Append one instruction.
    pub fn op(&mut self, i: Instr) -> &mut Self {
        self.body.push(i);
        self
    }

    /// Append many instructions.
    pub fn ops<I: IntoIterator<Item = Instr>>(&mut self, instrs: I) -> &mut Self {
        self.body.extend(instrs);
        self
    }

    /// Close the body with `end` (idempotent if already closed: the body
    /// has one more `end` than block openers, for the function's own
    /// frame).
    pub fn done(&mut self) -> &mut Self {
        if self.open_frames() >= 0 {
            self.body.push(Instr::End);
        }
        self
    }

    fn open_frames(&self) -> i32 {
        let mut depth = 0;
        for i in &self.body {
            if i.opens_block() {
                depth += 1;
            } else if matches!(i, Instr::End) {
                depth -= 1;
            }
        }
        depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode_module, encode_module, validate, BlockType};

    #[test]
    fn builds_a_valid_counting_module() {
        let mut mb = ModuleBuilder::new();
        mb.memory(1, Some(4));
        let mut f = mb.func("count", vec![ValType::I32], vec![ValType::I32]);
        let acc = f.local(ValType::I32);
        f.ops([
            Instr::Block(crate::instr::BlockType::Empty),
            Instr::Loop(crate::instr::BlockType::Empty),
            Instr::LocalGet(0),
            Instr::I32Eqz,
            Instr::BrIf(1),
            Instr::LocalGet(acc),
            Instr::I32Const(1),
            Instr::I32Add,
            Instr::LocalSet(acc),
            Instr::LocalGet(0),
            Instr::I32Const(1),
            Instr::I32Sub,
            Instr::LocalSet(0),
            Instr::Br(0),
            Instr::End,
            Instr::End,
            Instr::LocalGet(acc),
        ]);
        f.done();
        let idx = mb.finish_func(f, true);
        assert_eq!(idx, 0);
        let m = mb.build();
        validate(&m).unwrap();
        let round = decode_module(&encode_module(&m)).unwrap();
        assert_eq!(round, m);
    }

    #[test]
    fn imports_get_lower_indices() {
        let mut mb = ModuleBuilder::new();
        let imp = mb.import_func("env", "now", vec![], vec![ValType::F64]);
        let f = {
            let mut f = mb.func("main", vec![], vec![]);
            f.ops([Instr::Call(imp), Instr::Drop]).done();
            f
        };
        let idx = mb.finish_func(f, true);
        assert_eq!(imp, 0);
        assert_eq!(idx, 1);
        validate(&mb.build()).unwrap();
    }

    #[test]
    fn done_is_idempotent_for_closed_bodies() {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("nop", vec![], vec![]);
        f.op(Instr::Nop).done().done();
        let m = {
            mb.finish_func(f, false);
            mb.build()
        };
        assert_eq!(m.functions[0].body, vec![Instr::Nop, Instr::End]);
    }

    #[test]
    fn done_closes_a_body_whose_last_end_closes_a_block() {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("spin", vec![], vec![]);
        f.ops([Instr::Loop(BlockType::Empty), Instr::Br(0), Instr::End])
            .done()
            .done();
        mb.finish_func(f, false);
        let m = mb.build();
        assert_eq!(m.functions[0].body.len(), 4);
        validate(&m).unwrap();
    }
}
