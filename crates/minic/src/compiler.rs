//! The top-level compiler driver: source → (transform) → HIR → pipeline →
//! backend, mirroring the paper's Fig 2 steps 1–2.

use crate::backend::wasm::WasmEmitOptions;
use crate::backend::{emit_js_with, emit_wasm, JsEmitOptions, NativeProgram};
use crate::error::CompileError;
use crate::hir::HProgram;
use crate::opt::OptLevel;
use crate::passes::{run_pipeline, run_pipeline_verified, TargetKind};
use crate::transform::{transform_unit, TransformReport};
use std::collections::HashMap;
use wb_env::{CompilerProfile, Toolchain};

/// What [`Compiler::frontend`] builds: the checked, unoptimized HIR and
/// the transformation report. Every level × target compile of one
/// `(source, defines)` starts from it.
pub type FrontEnd = (HProgram, TransformReport);

/// Common compilation metadata.
#[derive(Debug, Clone)]
pub struct CompileOutput {
    /// Which source-transformations were needed (§3.1 accounting).
    pub transform: TransformReport,
    /// Static data footprint in bytes.
    pub data_bytes: u64,
    /// Optimization level used.
    pub level: OptLevel,
    /// Toolchain profile used.
    pub toolchain: Toolchain,
}

/// A compiled Wasm artifact.
#[derive(Debug, Clone)]
pub struct WasmOutput {
    /// The module (validated).
    pub module: wb_wasm::Module,
    /// Encoded binary size in bytes — the Fig 5 code-size metric.
    pub code_size: usize,
    /// The `print_str` string table (bound to the `env.print_str` import
    /// at instantiation).
    pub strings: Vec<String>,
    /// Common metadata.
    pub info: CompileOutput,
}

/// A compiled JavaScript artifact.
#[derive(Debug, Clone)]
pub struct JsOutput {
    /// MiniJS source text.
    pub source: String,
    /// Source size in bytes — the Fig 5 JS code-size metric (what ships
    /// over the network and gets parsed).
    pub code_size: usize,
    /// Common metadata.
    pub info: CompileOutput,
}

/// The MiniC compiler, configured like a command line:
/// `cheerp -O2 -DN=400 -cheerp-linear-heap-size=...`.
#[derive(Debug, Clone)]
pub struct Compiler {
    toolchain: Toolchain,
    level: OptLevel,
    defines: HashMap<String, String>,
    heap_limit: Option<u64>,
    verify_ir: bool,
    trap_checks: bool,
}

impl Compiler {
    /// A compiler for the given toolchain at `-O2` (the paper's baseline).
    pub fn new(toolchain: Toolchain) -> Self {
        Compiler {
            toolchain,
            level: OptLevel::O2,
            defines: HashMap::new(),
            heap_limit: None,
            // Debug builds always verify the IR between passes; release
            // builds opt in via `--verify-ir` / `.verify_ir(true)`.
            verify_ir: cfg!(debug_assertions),
            trap_checks: false,
        }
    }

    /// Cheerp at `-O2` (the study default).
    pub fn cheerp() -> Self {
        Self::new(Toolchain::Cheerp)
    }

    /// Emscripten at `-O2`.
    pub fn emscripten() -> Self {
        Self::new(Toolchain::Emscripten)
    }

    /// Set the optimization level.
    pub fn opt_level(mut self, level: OptLevel) -> Self {
        self.level = level;
        self
    }

    /// Add a `-D` style definition (dataset sizes, §3.2).
    pub fn define(mut self, name: &str, value: impl ToString) -> Self {
        self.defines.insert(name.to_string(), value.to_string());
        self
    }

    /// Raise the linear heap limit (`cheerp-linear-heap-size`, §3.2).
    pub fn heap_limit(mut self, bytes: u64) -> Self {
        self.heap_limit = Some(bytes);
        self
    }

    /// Verify IR invariants between every optimization pass
    /// (`--verify-ir`). On by default in debug builds.
    pub fn verify_ir(mut self, on: bool) -> Self {
        self.verify_ir = on;
        self
    }

    /// Emit wasm-parity trap checks in the JS backend (checked integer
    /// division and typed-array bounds; see
    /// [`crate::backend::JsEmitOptions`]). Off by default — this changes
    /// generated code, so it is part of the artifact cache key and is
    /// only enabled by the trap-parity fixtures.
    pub fn trap_checks(mut self, on: bool) -> Self {
        self.trap_checks = on;
        self
    }

    /// The configured level.
    pub fn level(&self) -> OptLevel {
        self.level
    }

    /// Front end: preprocess, parse, transform, analyze. Returns the
    /// unoptimized HIR plus the transformation report.
    ///
    /// It reads only the source and the defines, so one result serves
    /// every level, toolchain and target: hand a clone of it to
    /// [`Compiler::compile_wasm_from`], [`Compiler::compile_js_from`] or
    /// [`Compiler::compile_native_from`]. The HIR is plain owned data, so
    /// a clone is an independent copy.
    pub fn frontend(&self, source: &str) -> Result<FrontEnd, CompileError> {
        let text = crate::preprocess::preprocess(source, &self.defines)?;
        let tokens = crate::lexer::lex(&text)?;
        let unit = crate::parser::parse(tokens)?;
        let (unit, report) = transform_unit(&unit)?;
        let hir = crate::sema::analyze(&unit)?;
        Ok((hir, report))
    }

    fn optimized(
        &self,
        front: FrontEnd,
        target: TargetKind,
    ) -> Result<(HProgram, TransformReport), CompileError> {
        let (mut hir, report) = front;
        if self.verify_ir {
            run_pipeline_verified(&mut hir, self.level, target).map_err(|e| {
                CompileError::Verify {
                    pass: e.pass.to_string(),
                    message: e.error.to_string(),
                }
            })?;
        } else {
            run_pipeline(&mut hir, self.level, target);
        }
        Ok((hir, report))
    }

    /// Compile to WebAssembly.
    pub fn compile_wasm(&self, source: &str) -> Result<WasmOutput, CompileError> {
        self.compile_wasm_from(self.frontend(source)?)
    }

    /// Compile a [`Compiler::frontend`] result to WebAssembly.
    pub fn compile_wasm_from(&self, front: FrontEnd) -> Result<WasmOutput, CompileError> {
        let (hir, transform) = self.optimized(front, TargetKind::Wasm)?;
        let opts = WasmEmitOptions {
            profile: CompilerProfile::of(self.toolchain),
            heap_limit_bytes: self.heap_limit,
            // -O0/-O1 keep plain f64 constants; O2+ rematerializes (Fig 8).
            remat_int_consts: self.level >= OptLevel::O2 && self.level != OptLevel::O0,
        };
        let module = emit_wasm(&hir, &opts)?;
        debug_assert!(
            wb_wasm::validate(&module).is_ok(),
            "backend must emit valid modules: {:?}",
            wb_wasm::validate(&module)
        );
        let code_size = module.code_size();
        Ok(WasmOutput {
            code_size,
            strings: hir.strings.clone(),
            info: CompileOutput {
                transform,
                data_bytes: hir.static_data_bytes(),
                level: self.level,
                toolchain: self.toolchain,
            },
            module,
        })
    }

    /// Compile to JavaScript (MiniJS source).
    pub fn compile_js(&self, source: &str) -> Result<JsOutput, CompileError> {
        self.compile_js_from(self.frontend(source)?)
    }

    /// Compile a [`Compiler::frontend`] result to JavaScript.
    pub fn compile_js_from(&self, front: FrontEnd) -> Result<JsOutput, CompileError> {
        let (hir, transform) = self.optimized(front, TargetKind::Js)?;
        let js = emit_js_with(
            &hir,
            &JsEmitOptions {
                trap_checks: self.trap_checks,
            },
        )?;
        Ok(JsOutput {
            code_size: js.len(),
            info: CompileOutput {
                transform,
                data_bytes: hir.static_data_bytes(),
                level: self.level,
                toolchain: self.toolchain,
            },
            source: js,
        })
    }

    /// Compile for the native simulator (the x86 control, Fig 6).
    pub fn compile_native(&self, source: &str) -> Result<NativeProgram, CompileError> {
        self.compile_native_from(self.frontend(source)?)
    }

    /// Compile a [`Compiler::frontend`] result for the native simulator.
    pub fn compile_native_from(&self, front: FrontEnd) -> Result<NativeProgram, CompileError> {
        let (hir, _transform) = self.optimized(front, TargetKind::Native)?;
        Ok(NativeProgram::new(hir))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KERNEL: &str = "#define N 8\n\
                          double A[N][N];\n\
                          void k() {\n\
                            for (int i = 0; i < N; i++)\n\
                              for (int j = 0; j < N; j++)\n\
                                A[i][j] = (double)(i * j) / N;\n\
                          }\n\
                          double checksum() {\n\
                            double s = 0.0;\n\
                            for (int i = 0; i < N; i++)\n\
                              for (int j = 0; j < N; j++)\n\
                                s = s + A[i][j];\n\
                            return s;\n\
                          }";

    #[test]
    fn compiles_to_all_three_targets() {
        let c = Compiler::cheerp();
        let wasm = c.compile_wasm(KERNEL).unwrap();
        assert!(wb_wasm::validate(&wasm.module).is_ok());
        assert!(wasm.code_size > 0);
        let js = c.compile_js(KERNEL).unwrap();
        assert!(js.source.contains("function k("));
        let native = c.compile_native(KERNEL).unwrap();
        native.run("k", &[]).unwrap();
    }

    #[test]
    fn one_front_end_serves_every_level_and_target() {
        let front = Compiler::cheerp().frontend(KERNEL).unwrap();
        for level in OptLevel::ALL {
            let c = Compiler::cheerp().opt_level(level);
            let wasm = c.compile_wasm_from(front.clone()).unwrap();
            assert_eq!(wasm.module, c.compile_wasm(KERNEL).unwrap().module);
            let js = c.compile_js_from(front.clone()).unwrap();
            assert_eq!(js.source, c.compile_js(KERNEL).unwrap().source);
        }
    }

    #[test]
    fn defines_override_dataset() {
        let c = Compiler::cheerp().define("N", 4);
        let wasm = c.compile_wasm(KERNEL).unwrap();
        assert_eq!(wasm.info.data_bytes, 4 * 4 * 8);
    }

    #[test]
    fn heap_limit_enforced_and_raisable() {
        let big = "#define N 1200\ndouble A[N][N]; double k() { A[0][0] = 1.0; return A[0][0]; }";
        // 1200² × 8 = 11.5 MB > the 8 MiB Cheerp default (§3.2).
        let c = Compiler::cheerp();
        assert!(matches!(
            c.compile_wasm(big),
            Err(CompileError::Codegen { .. })
        ));
        let c = Compiler::cheerp().heap_limit(64 << 20);
        assert!(c.compile_wasm(big).is_ok());
    }

    #[test]
    fn opt_levels_change_artifacts() {
        let o1 = Compiler::cheerp().opt_level(OptLevel::O1);
        let o2 = Compiler::cheerp().opt_level(OptLevel::O2);
        let w1 = o1.compile_wasm(KERNEL).unwrap();
        let w2 = o2.compile_wasm(KERNEL).unwrap();
        assert_ne!(w1.module, w2.module, "O1 and O2 emit different code");
    }

    #[test]
    fn emscripten_reserves_16_mib() {
        let w = Compiler::emscripten().compile_wasm(KERNEL).unwrap();
        let mem = w.module.memory.unwrap();
        assert!(mem.limits.min >= 256);
        // Cheerp stays near the data size.
        let c = Compiler::cheerp().compile_wasm(KERNEL).unwrap();
        assert!(c.module.memory.unwrap().limits.min < 16);
        // And Cheerp emits a start function that grows memory at runtime.
        assert!(c.module.start.is_some());
        assert!(w.module.start.is_none());
    }
}
