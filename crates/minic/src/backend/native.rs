//! The native ("x86") backend: an HIR evaluator with an ahead-of-time
//! native cost model. This is the substrate for the paper's x86 control
//! experiment (Fig 6, Table 2's `x86` column): the same IR and the same
//! passes, but a target where the optimizations behave *as designed* —
//! vectorized loops genuinely run wider, and fast-math genuinely
//! discounts float ops.

use crate::hir::*;
use wb_env::{CostTable, Nanos, OpClass, OpCounts, ResourceLimits};

/// How much one 4-wide vector operation costs relative to one scalar op.
/// Real auto-vectorization rarely achieves the ideal 4×: memory-bound
/// kernels see far less. 0.45 per lane-op ≈ a 2.2× arithmetic speedup,
/// which lands Table 2's x86 `O1/O2 = 1.36×` shape.
const VECTOR_ARITH_SCALE: f64 = 0.55;
/// Memory ops benefit less from vectorization (bandwidth bound).
const VECTOR_MEM_SCALE: f64 = 0.78;
/// Fast-math discount on float operations (`-Ofast`, native only).
const FAST_MATH_SCALE: f64 = 0.85;
/// Estimated encoded bytes per HIR operation (x86-64 averages ~4).
const BYTES_PER_OP: f64 = 4.0;
/// Vectorized loops carry prologue/epilogue and wider encodings.
const VECTOR_SIZE_FACTOR: f64 = 1.25;
/// Base cycles per operation class, shared with both VMs' pricing.
const COSTS: CostTable = CostTable::reference();

/// A compiled-for-native program.
#[derive(Debug, Clone)]
pub struct NativeProgram {
    hir: HProgram,
    cycle_time_ns: f64,
    /// Resource ceilings: fuel ([`NativeTrap::StepBudget`]), static-data
    /// memory ceiling ([`NativeTrap::MemoryLimit`]) and call depth
    /// ([`NativeTrap::StackOverflow`]). Defaults match the other two
    /// backends so trap-parity fixtures agree across all three.
    pub limits: ResourceLimits,
}

/// Everything measured about a native run.
#[derive(Debug, Clone, PartialEq)]
pub struct NativeOutcome {
    /// Return value of the entry function (integer image).
    pub result: Option<i64>,
    /// `print_*` output lines.
    pub output: Vec<String>,
    /// Retired operations by class.
    pub counts: OpCounts,
    /// Execution time under the native cost model.
    pub exec_time: Nanos,
    /// Static memory footprint (arrays), bytes.
    pub data_bytes: u64,
}

/// Runtime errors (traps) during native evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum NativeTrap {
    /// Integer division by zero.
    DivByZero,
    /// Array index out of bounds.
    OutOfBounds {
        /// Array name.
        array: String,
        /// Offending flat index.
        index: i64,
    },
    /// Step budget exhausted.
    StepBudget,
    /// Call depth limit exceeded.
    StackOverflow,
    /// Static data footprint exceeds the configured memory ceiling.
    MemoryLimit {
        /// Bytes the program's arrays occupy.
        requested_bytes: u64,
        /// The configured ceiling.
        limit: u64,
    },
    /// Missing entry function.
    NoSuchFunction(String),
    /// Argument count mismatch.
    BadArgs(String),
}

impl std::fmt::Display for NativeTrap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NativeTrap::DivByZero => write!(f, "integer divide by zero"),
            NativeTrap::OutOfBounds { array, index } => {
                write!(f, "index {index} out of bounds for array {array}")
            }
            NativeTrap::StepBudget => write!(f, "step budget exhausted"),
            NativeTrap::StackOverflow => write!(f, "call stack exhausted"),
            NativeTrap::MemoryLimit {
                requested_bytes,
                limit,
            } => write!(
                f,
                "memory limit exceeded ({requested_bytes} bytes requested, limit {limit})"
            ),
            NativeTrap::NoSuchFunction(n) => write!(f, "no function named {n}"),
            NativeTrap::BadArgs(n) => write!(f, "bad argument count for {n}"),
        }
    }
}

impl std::error::Error for NativeTrap {}

/// Typed array storage.
#[derive(Debug, Clone)]
enum Buf {
    I8(Vec<i8>),
    I32(Vec<i32>),
    I64(Vec<i64>),
    F32(Vec<f32>),
    F64(Vec<f64>),
}

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
enum NVal {
    I(i64),
    F(f64),
}

impl NVal {
    fn as_i(self) -> i64 {
        match self {
            NVal::I(v) => v,
            NVal::F(v) => v as i64,
        }
    }

    fn as_f(self) -> f64 {
        match self {
            NVal::I(v) => v as f64,
            NVal::F(v) => v,
        }
    }

    fn truthy(self) -> bool {
        match self {
            NVal::I(v) => v != 0,
            NVal::F(v) => v != 0.0,
        }
    }
}

enum Flow {
    Normal,
    Break,
    Continue,
    Return(Option<NVal>),
}

impl NativeProgram {
    /// Wrap an optimized HIR program for native execution.
    pub fn new(hir: HProgram) -> Self {
        NativeProgram {
            hir,
            cycle_time_ns: wb_env::calibration::DESKTOP_CYCLE_NS,
            limits: ResourceLimits::default(),
        }
    }

    /// Estimated machine-code size in bytes (the Fig 6 code-size metric):
    /// HIR operation count at x86 encoding density, with vectorized loops
    /// carrying their prologue/epilogue and wider encodings, plus
    /// initialized data.
    pub fn code_size(&self) -> u64 {
        let mut ops = 0.0;
        for f in &self.hir.funcs {
            ops += 6.0; // prologue/epilogue
            ops += body_size(&f.body);
        }
        let data: u64 = self
            .hir
            .arrays
            .iter()
            .filter(|a| a.init.is_some())
            .map(|a| a.byte_size())
            .sum();
        // -Ofast additionally unrolls and pads for alignment (the Fig 6
        // code-size bump).
        let fast_math_factor = if self.hir.fast_math { 1.10 } else { 1.0 };
        (ops * BYTES_PER_OP * fast_math_factor) as u64 + data
    }

    /// Run `entry(args…)` and collect the outcome, under the program's
    /// own [`ResourceLimits`].
    pub fn run(&self, entry: &str, args: &[i64]) -> Result<NativeOutcome, NativeTrap> {
        self.run_with_limits(entry, args, self.limits)
    }

    /// Run `entry(args…)` under explicit resource limits. Programs are
    /// shared immutably through the artifact cache, so per-run limits are
    /// passed here rather than by mutating the program.
    pub fn run_with_limits(
        &self,
        entry: &str,
        args: &[i64],
        limits: ResourceLimits,
    ) -> Result<NativeOutcome, NativeTrap> {
        let (fid, f) = self
            .hir
            .func(entry)
            .ok_or_else(|| NativeTrap::NoSuchFunction(entry.into()))?;
        if f.params.len() != args.len() {
            return Err(NativeTrap::BadArgs(entry.into()));
        }
        if let Some(limit) = limits.max_memory_bytes {
            let requested_bytes = self.hir.static_data_bytes();
            if requested_bytes > limit {
                return Err(NativeTrap::MemoryLimit {
                    requested_bytes,
                    limit,
                });
            }
        }
        let mut st = Evaluator {
            p: &self.hir,
            globals: self
                .hir
                .globals
                .iter()
                .map(|g| match g.ty {
                    Ty::F32 | Ty::F64 => NVal::F(g.init.as_f64()),
                    _ => NVal::I(g.init.as_i64()),
                })
                .collect(),
            arrays: self.hir.arrays.iter().map(alloc_buf).collect(),
            output: Vec::new(),
            counts: OpCounts::new(),
            cycles: 0.0,
            steps: 0,
            max_steps: limits.fuel_budget(),
            depth: 0,
            max_depth: limits.max_call_depth,
            scale: 1.0,
            fast_math: self.hir.fast_math,
        };
        let argv: Vec<NVal> = args
            .iter()
            .zip(&f.params)
            .map(|(v, t)| match t {
                Ty::F32 | Ty::F64 => NVal::F(*v as f64),
                _ => NVal::I(*v),
            })
            .collect();
        let result = st.call(fid, &argv)?;
        Ok(NativeOutcome {
            result: result.map(|v| v.as_i()),
            output: st.output,
            counts: st.counts,
            exec_time: Nanos(st.cycles * self.cycle_time_ns),
            data_bytes: self.hir.static_data_bytes(),
        })
    }

    /// Access the underlying HIR (tests, reports).
    pub fn hir(&self) -> &HProgram {
        &self.hir
    }
}

impl From<HProgram> for NativeProgram {
    fn from(h: HProgram) -> Self {
        NativeProgram::new(h)
    }
}

fn alloc_buf(a: &HArray) -> Buf {
    let n = a.len() as usize;
    match a.elem {
        ElemTy::I8 { .. } => {
            let mut v = vec![0i8; n];
            if let Some(init) = &a.init {
                for (slot, c) in v.iter_mut().zip(init) {
                    *slot = c.as_i64() as i8;
                }
            }
            Buf::I8(v)
        }
        ElemTy::I32 { .. } => {
            let mut v = vec![0i32; n];
            if let Some(init) = &a.init {
                for (slot, c) in v.iter_mut().zip(init) {
                    *slot = c.as_i64() as i32;
                }
            }
            Buf::I32(v)
        }
        ElemTy::I64 { .. } => {
            let mut v = vec![0i64; n];
            if let Some(init) = &a.init {
                for (slot, c) in v.iter_mut().zip(init) {
                    *slot = c.as_i64();
                }
            }
            Buf::I64(v)
        }
        ElemTy::F32 => {
            let mut v = vec![0f32; n];
            if let Some(init) = &a.init {
                for (slot, c) in v.iter_mut().zip(init) {
                    *slot = c.as_f64() as f32;
                }
            }
            Buf::F32(v)
        }
        ElemTy::F64 => {
            let mut v = vec![0f64; n];
            if let Some(init) = &a.init {
                for (slot, c) in v.iter_mut().zip(init) {
                    *slot = c.as_f64();
                }
            }
            Buf::F64(v)
        }
    }
}

fn body_size(stmts: &[HStmt]) -> f64 {
    let mut n = 0.0;
    for s in stmts {
        match s {
            HStmt::DeclLocal { .. } | HStmt::Assign { .. } | HStmt::Expr(_) => n += 3.0,
            HStmt::Return(_) | HStmt::Break | HStmt::Continue => n += 1.0,
            HStmt::If(_, a, b) => n += 2.0 + body_size(a) + body_size(b),
            HStmt::Loop { body, meta, .. } => {
                let inner = 4.0 + body_size(body);
                n += if meta.vector_width > 1 {
                    inner * VECTOR_SIZE_FACTOR
                } else {
                    inner
                };
            }
            HStmt::Switch { cases, default, .. } => {
                n += 3.0;
                for (_, b) in cases {
                    n += 1.0 + body_size(b);
                }
                n += body_size(default);
            }
            HStmt::Block(b) => n += body_size(b),
        }
    }
    n
}

struct Evaluator<'a> {
    p: &'a HProgram,
    globals: Vec<NVal>,
    arrays: Vec<Buf>,
    output: Vec<String>,
    counts: OpCounts,
    cycles: f64,
    steps: u64,
    max_steps: u64,
    depth: usize,
    max_depth: usize,
    /// Current cost scale (vector bodies run discounted).
    scale: f64,
    fast_math: bool,
}

impl<'a> Evaluator<'a> {
    fn charge(&mut self, class: OpClass) -> Result<(), NativeTrap> {
        self.counts.bump(class, 1);
        self.steps += 1;
        if self.steps > self.max_steps {
            return Err(NativeTrap::StepBudget);
        }
        let mut c = COSTS.cost(class) * self.scale;
        if self.fast_math
            && matches!(
                class,
                OpClass::FloatAlu | OpClass::FloatMul | OpClass::FloatDiv
            )
        {
            c *= FAST_MATH_SCALE;
        }
        self.cycles += c;
        Ok(())
    }

    fn call(&mut self, fid: FuncId, args: &[NVal]) -> Result<Option<NVal>, NativeTrap> {
        // Depth guard matching the two VMs' frame limit, so deep-recursion
        // fixtures trap identically across backends (and the host Rust
        // stack — this evaluator recurses — is never at risk).
        if self.depth >= self.max_depth {
            return Err(NativeTrap::StackOverflow);
        }
        self.depth += 1;
        self.charge(OpClass::Call)?;
        let f = &self.p.funcs[fid as usize];
        let mut locals: Vec<NVal> = f
            .locals
            .iter()
            .map(|(_, t)| match t {
                Ty::F32 | Ty::F64 => NVal::F(0.0),
                _ => NVal::I(0),
            })
            .collect();
        locals[..args.len()].copy_from_slice(args);
        let flow = self.block(&f.body, &mut locals)?;
        self.depth -= 1;
        match flow {
            Flow::Return(v) => Ok(v),
            _ => Ok(None),
        }
    }

    fn block(&mut self, stmts: &[HStmt], locals: &mut Vec<NVal>) -> Result<Flow, NativeTrap> {
        for s in stmts {
            match self.stmt(s, locals)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn stmt(&mut self, s: &HStmt, locals: &mut Vec<NVal>) -> Result<Flow, NativeTrap> {
        match s {
            HStmt::DeclLocal { id, init } => {
                if let Some(e) = init {
                    let v = self.eval(e, locals)?;
                    self.charge(OpClass::Local)?;
                    locals[*id as usize] = v;
                }
                Ok(Flow::Normal)
            }
            HStmt::Assign { lhs, value } => {
                let v = self.eval(value, locals)?;
                self.store(lhs, v, locals)?;
                Ok(Flow::Normal)
            }
            HStmt::Expr(e) => {
                self.eval(e, locals)?;
                Ok(Flow::Normal)
            }
            HStmt::Return(e) => {
                let v = match e {
                    Some(e) => Some(self.eval(e, locals)?),
                    None => None,
                };
                Ok(Flow::Return(v))
            }
            HStmt::If(c, a, b) => {
                let cv = self.eval(c, locals)?;
                self.charge(OpClass::Branch)?;
                if cv.truthy() {
                    self.block(a, locals)
                } else {
                    self.block(b, locals)
                }
            }
            HStmt::Loop {
                kind,
                init,
                cond,
                step,
                body,
                meta,
            } => {
                match self.block(init, locals)? {
                    Flow::Normal => {}
                    other => return Ok(other),
                }
                let vectored = meta.vector_width > 1;
                if vectored {
                    // Vector prologue: trip-count and alignment checks.
                    self.charge(OpClass::Compare)?;
                    self.charge(OpClass::Branch)?;
                }
                let mut first = true;
                loop {
                    let run_body = if *kind == LoopKind::PostTest && first {
                        true
                    } else {
                        match cond {
                            Some(c) => {
                                let cv = self.eval(c, locals)?;
                                self.charge(OpClass::Branch)?;
                                cv.truthy()
                            }
                            None => true,
                        }
                    };
                    first = false;
                    if !run_body {
                        break;
                    }
                    // A 4-wide vector body costs each op `scale` (one
                    // vector instruction covers four lanes).
                    let saved = self.scale;
                    if vectored {
                        self.scale = saved * vector_scale_avg();
                    }
                    let flow = self.block(body, locals)?;
                    self.scale = saved;
                    match flow {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                    match self.block(step, locals)? {
                        Flow::Normal => {}
                        other => return Ok(other),
                    }
                    if *kind == LoopKind::PostTest {
                        if let Some(c) = cond {
                            let cv = self.eval(c, locals)?;
                            self.charge(OpClass::Branch)?;
                            if !cv.truthy() {
                                break;
                            }
                        }
                    }
                }
                Ok(Flow::Normal)
            }
            HStmt::Break => Ok(Flow::Break),
            HStmt::Continue => Ok(Flow::Continue),
            HStmt::Switch {
                scrut,
                cases,
                default,
            } => {
                let v = self.eval(scrut, locals)?.as_i();
                self.charge(OpClass::Branch)?;
                for (cv, body) in cases {
                    if *cv == v {
                        return self.block(body, locals);
                    }
                }
                self.block(default, locals)
            }
            HStmt::Block(b) => self.block(b, locals),
        }
    }

    fn store(&mut self, lhs: &HLval, v: NVal, locals: &mut Vec<NVal>) -> Result<(), NativeTrap> {
        match lhs {
            HLval::Local(id) => {
                self.charge(OpClass::Local)?;
                locals[*id as usize] = v;
            }
            HLval::Global(id) => {
                self.charge(OpClass::Global)?;
                self.globals[*id as usize] = v;
            }
            HLval::Elem { array, idx } => {
                let flat = self.flat_index(*array, idx, locals)?;
                self.charge(OpClass::Store)?;
                let buf = &mut self.arrays[*array as usize];
                match buf {
                    Buf::I8(b) => b[flat] = v.as_i() as i8,
                    Buf::I32(b) => b[flat] = v.as_i() as i32,
                    Buf::I64(b) => b[flat] = v.as_i(),
                    Buf::F32(b) => b[flat] = v.as_f() as f32,
                    Buf::F64(b) => b[flat] = v.as_f(),
                }
            }
        }
        Ok(())
    }

    fn flat_index(
        &mut self,
        array: ArrayId,
        idx: &[HExpr],
        locals: &mut Vec<NVal>,
    ) -> Result<usize, NativeTrap> {
        let dims = self.p.arrays[array as usize].dims.clone();
        let mut flat: i64 = 0;
        for (k, e) in idx.iter().enumerate() {
            let v = self.eval(e, locals)?.as_i();
            if k > 0 {
                self.charge(OpClass::IntMul)?;
                self.charge(OpClass::IntAlu)?;
            }
            flat = flat * dims[k] as i64 + v;
        }
        let len = self.p.arrays[array as usize].len() as i64;
        if flat < 0 || flat >= len {
            return Err(NativeTrap::OutOfBounds {
                array: self.p.arrays[array as usize].name.clone(),
                index: flat,
            });
        }
        Ok(flat as usize)
    }

    fn eval(&mut self, e: &HExpr, locals: &mut Vec<NVal>) -> Result<NVal, NativeTrap> {
        Ok(match e {
            HExpr::ConstI(v, _) => {
                self.charge(OpClass::Const)?;
                NVal::I(*v)
            }
            HExpr::ConstF(v, _) => {
                self.charge(OpClass::Const)?;
                NVal::F(*v)
            }
            HExpr::Local(id, _) => {
                self.charge(OpClass::Local)?;
                locals[*id as usize]
            }
            HExpr::Global(id, _) => {
                self.charge(OpClass::Global)?;
                self.globals[*id as usize]
            }
            HExpr::Elem { array, idx, ty } => {
                let flat = self.flat_index(*array, idx, locals)?;
                self.charge(OpClass::Load)?;
                let buf = &self.arrays[*array as usize];
                match (buf, ty) {
                    (Buf::I8(b), Ty::I32 { unsigned: true }) => NVal::I(b[flat] as u8 as i64),
                    (Buf::I8(b), _) => NVal::I(b[flat] as i64),
                    (Buf::I32(b), Ty::I32 { unsigned: true }) => NVal::I(b[flat] as u32 as i64),
                    (Buf::I32(b), _) => NVal::I(b[flat] as i64),
                    (Buf::I64(b), _) => NVal::I(b[flat]),
                    (Buf::F32(b), _) => NVal::F(b[flat] as f64),
                    (Buf::F64(b), _) => NVal::F(b[flat]),
                }
            }
            HExpr::Unary(op, a, ty) => {
                let av = self.eval(a, locals)?;
                match op {
                    HUnOp::Neg => {
                        if ty.is_float() {
                            self.charge(OpClass::FloatAlu)?;
                            NVal::F(-av.as_f())
                        } else {
                            self.charge(OpClass::IntAlu)?;
                            NVal::I(narrow(av.as_i().wrapping_neg(), *ty))
                        }
                    }
                    HUnOp::Not => {
                        self.charge(OpClass::Compare)?;
                        NVal::I((!av.truthy()) as i64)
                    }
                    HUnOp::BitNot => {
                        self.charge(OpClass::IntAlu)?;
                        NVal::I(narrow(!av.as_i(), *ty))
                    }
                }
            }
            HExpr::Binary(op, a, b, ty) => {
                let av = self.eval(a, locals)?;
                let bv = self.eval(b, locals)?;
                self.binary(*op, av, bv, *ty)?
            }
            HExpr::Cmp(op, a, b, operand_ty) => {
                let av = self.eval(a, locals)?;
                let bv = self.eval(b, locals)?;
                self.charge(OpClass::Compare)?;
                let r = if operand_ty.is_float() {
                    let (x, y) = (av.as_f(), bv.as_f());
                    match op {
                        HCmpOp::Eq => x == y,
                        HCmpOp::Ne => x != y,
                        HCmpOp::Lt => x < y,
                        HCmpOp::Le => x <= y,
                        HCmpOp::Gt => x > y,
                        HCmpOp::Ge => x >= y,
                    }
                } else if operand_ty.unsigned() {
                    let (x, y) = (
                        to_unsigned(av.as_i(), *operand_ty),
                        to_unsigned(bv.as_i(), *operand_ty),
                    );
                    match op {
                        HCmpOp::Eq => x == y,
                        HCmpOp::Ne => x != y,
                        HCmpOp::Lt => x < y,
                        HCmpOp::Le => x <= y,
                        HCmpOp::Gt => x > y,
                        HCmpOp::Ge => x >= y,
                    }
                } else {
                    let (x, y) = (av.as_i(), bv.as_i());
                    match op {
                        HCmpOp::Eq => x == y,
                        HCmpOp::Ne => x != y,
                        HCmpOp::Lt => x < y,
                        HCmpOp::Le => x <= y,
                        HCmpOp::Gt => x > y,
                        HCmpOp::Ge => x >= y,
                    }
                };
                NVal::I(r as i64)
            }
            HExpr::And(a, b) => {
                let av = self.eval(a, locals)?;
                self.charge(OpClass::Branch)?;
                if !av.truthy() {
                    NVal::I(0)
                } else {
                    let bv = self.eval(b, locals)?;
                    NVal::I(bv.truthy() as i64)
                }
            }
            HExpr::Or(a, b) => {
                let av = self.eval(a, locals)?;
                self.charge(OpClass::Branch)?;
                if av.truthy() {
                    NVal::I(1)
                } else {
                    let bv = self.eval(b, locals)?;
                    NVal::I(bv.truthy() as i64)
                }
            }
            HExpr::Ternary(c, a, b, _) => {
                let cv = self.eval(c, locals)?;
                self.charge(OpClass::Branch)?;
                if cv.truthy() {
                    self.eval(a, locals)?
                } else {
                    self.eval(b, locals)?
                }
            }
            HExpr::Call {
                callee,
                args,
                str_arg,
                ..
            } => {
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.eval(a, locals)?);
                }
                match callee {
                    Callee::Func(id) => {
                        let r = self.call(*id, &argv)?;
                        r.unwrap_or(NVal::I(0))
                    }
                    Callee::Intrinsic(intr) => self.intrinsic(*intr, &argv, *str_arg)?,
                }
            }
            HExpr::Cast { to, from, expr } => {
                let v = self.eval(expr, locals)?;
                self.charge(OpClass::Convert)?;
                cast(v, *from, *to)
            }
            HExpr::AssignExpr { lhs, value, .. } => {
                let v = self.eval(value, locals)?;
                self.store(lhs, v, locals)?;
                v
            }
        })
    }

    fn binary(&mut self, op: HBinOp, a: NVal, b: NVal, ty: Ty) -> Result<NVal, NativeTrap> {
        use HBinOp::*;
        if ty.is_float() {
            let (x, y) = (a.as_f(), b.as_f());
            let (class, v) = match op {
                Add => (OpClass::FloatAlu, x + y),
                Sub => (OpClass::FloatAlu, x - y),
                Mul => (OpClass::FloatMul, x * y),
                Div => (OpClass::FloatDiv, x / y),
                _ => unreachable!("sema rejects {op:?} on floats"),
            };
            self.charge(class)?;
            let v = if ty == Ty::F32 { v as f32 as f64 } else { v };
            return Ok(NVal::F(v));
        }
        let (x, y) = (a.as_i(), b.as_i());
        let unsigned = ty.unsigned();
        let (class, v) = match op {
            Add => (OpClass::IntAlu, x.wrapping_add(y)),
            Sub => (OpClass::IntAlu, x.wrapping_sub(y)),
            Mul => (OpClass::IntMul, x.wrapping_mul(y)),
            Div => {
                if y == 0 {
                    return Err(NativeTrap::DivByZero);
                }
                let v = if unsigned {
                    match ty {
                        Ty::I32 { .. } => ((x as u32) / (y as u32)) as i64,
                        _ => ((x as u64) / (y as u64)) as i64,
                    }
                } else {
                    x.wrapping_div(y)
                };
                (OpClass::IntDiv, v)
            }
            Rem => {
                if y == 0 {
                    return Err(NativeTrap::DivByZero);
                }
                let v = if unsigned {
                    match ty {
                        Ty::I32 { .. } => ((x as u32) % (y as u32)) as i64,
                        _ => ((x as u64) % (y as u64)) as i64,
                    }
                } else {
                    x.wrapping_rem(y)
                };
                (OpClass::IntDiv, v)
            }
            BitAnd => (OpClass::IntAlu, x & y),
            BitOr => (OpClass::IntAlu, x | y),
            BitXor => (OpClass::IntAlu, x ^ y),
            Shl => (
                OpClass::IntAlu,
                match ty {
                    Ty::I32 { .. } => ((x as i32).wrapping_shl(y as u32)) as i64,
                    _ => x.wrapping_shl((y & 63) as u32),
                },
            ),
            Shr => (
                OpClass::IntAlu,
                match ty {
                    Ty::I32 { unsigned: true } => ((x as u32).wrapping_shr(y as u32)) as i64,
                    Ty::I32 { unsigned: false } => ((x as i32).wrapping_shr(y as u32)) as i64,
                    Ty::I64 { unsigned: true } => ((x as u64).wrapping_shr((y & 63) as u32)) as i64,
                    _ => x.wrapping_shr((y & 63) as u32),
                },
            ),
        };
        self.charge(class)?;
        Ok(NVal::I(narrow(v, ty)))
    }

    fn intrinsic(
        &mut self,
        intr: Intrinsic,
        args: &[NVal],
        str_arg: Option<StrId>,
    ) -> Result<NVal, NativeTrap> {
        use Intrinsic::*;
        let a0 = args.first().copied().unwrap_or(NVal::I(0));
        Ok(match intr {
            Sqrt => {
                self.charge(OpClass::FloatDiv)?;
                NVal::F(a0.as_f().sqrt())
            }
            Fabs => {
                self.charge(OpClass::FloatAlu)?;
                NVal::F(a0.as_f().abs())
            }
            Floor => {
                self.charge(OpClass::FloatAlu)?;
                NVal::F(a0.as_f().floor())
            }
            Ceil => {
                self.charge(OpClass::FloatAlu)?;
                NVal::F(a0.as_f().ceil())
            }
            TruncF => {
                self.charge(OpClass::FloatAlu)?;
                NVal::F(a0.as_f().trunc())
            }
            Exp => {
                self.charge(OpClass::FloatDiv)?;
                NVal::F(a0.as_f().exp())
            }
            Log => {
                self.charge(OpClass::FloatDiv)?;
                NVal::F(a0.as_f().ln())
            }
            Sin => {
                self.charge(OpClass::FloatDiv)?;
                NVal::F(a0.as_f().sin())
            }
            Cos => {
                self.charge(OpClass::FloatDiv)?;
                NVal::F(a0.as_f().cos())
            }
            Tan => {
                self.charge(OpClass::FloatDiv)?;
                NVal::F(a0.as_f().tan())
            }
            Atan => {
                self.charge(OpClass::FloatDiv)?;
                NVal::F(a0.as_f().atan())
            }
            Pow => {
                self.charge(OpClass::FloatDiv)?;
                NVal::F(a0.as_f().powf(args[1].as_f()))
            }
            PrintI32 => {
                self.output.push((a0.as_i() as i32).to_string());
                NVal::I(0)
            }
            PrintI64 => {
                self.output.push(a0.as_i().to_string());
                NVal::I(0)
            }
            PrintF64 => {
                self.output.push(fmt_f64(a0.as_f()));
                NVal::I(0)
            }
            PrintStr => {
                let sid = str_arg.expect("sema attaches string id") as usize;
                self.output.push(self.p.strings[sid].clone());
                NVal::I(0)
            }
            F64Bits => {
                self.charge(OpClass::Other)?;
                NVal::I(a0.as_f().to_bits() as i64)
            }
            F64FromBits => {
                self.charge(OpClass::Other)?;
                NVal::F(f64::from_bits(a0.as_i() as u64))
            }
            F32Bits => {
                self.charge(OpClass::Other)?;
                NVal::I((a0.as_f() as f32).to_bits() as i64)
            }
            F32FromBits => {
                self.charge(OpClass::Other)?;
                NVal::F(f32::from_bits(a0.as_i() as u32) as f64)
            }
        })
    }
}

fn vector_scale_avg() -> f64 {
    // A single scale applied to vector bodies: between the arithmetic and
    // memory scales (bodies mix both).
    (VECTOR_ARITH_SCALE + VECTOR_MEM_SCALE) / 2.0
}

fn narrow(v: i64, ty: Ty) -> i64 {
    match ty {
        Ty::I32 { .. } => v as i32 as i64,
        _ => v,
    }
}

fn to_unsigned(v: i64, ty: Ty) -> u64 {
    match ty {
        Ty::I32 { .. } => v as u32 as u64,
        _ => v as u64,
    }
}

fn cast(v: NVal, from: Ty, to: Ty) -> NVal {
    use Ty::*;
    match to {
        F64 => match from {
            I32 { unsigned: true } => NVal::F(v.as_i() as u32 as f64),
            I64 { unsigned: true } => NVal::F(v.as_i() as u64 as f64),
            _ => NVal::F(v.as_f()),
        },
        F32 => match from {
            I32 { unsigned: true } => NVal::F(v.as_i() as u32 as f32 as f64),
            I64 { unsigned: true } => NVal::F(v.as_i() as u64 as f32 as f64),
            _ => NVal::F(v.as_f() as f32 as f64),
        },
        I32 { .. } => match from {
            F32 | F64 => NVal::I(v.as_f().trunc() as i64 as i32 as i64),
            _ => NVal::I(v.as_i() as i32 as i64),
        },
        I64 { .. } => match from {
            F32 | F64 => NVal::I(v.as_f().trunc() as i64),
            I32 { unsigned: true } => NVal::I(v.as_i() as u32 as i64),
            _ => NVal::I(v.as_i()),
        },
        Void => v,
    }
}

/// Canonical f64 text form shared by all three backends (integral values
/// print without a decimal point), so differential tests compare output
/// byte-for-byte.
pub(crate) fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v.is_infinite() {
        if v > 0.0 {
            "Infinity".into()
        } else {
            "-Infinity".into()
        }
    } else if v == v.trunc() && v.abs() < 1e21 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, lex, parse};

    fn program(src: &str) -> NativeProgram {
        NativeProgram::new(analyze(&parse(lex(src).unwrap()).unwrap()).unwrap())
    }

    #[test]
    fn runs_a_kernel_and_counts_ops() {
        let p = program(
            "double A[16];\n\
             double k(int n) {\n\
               double s = 0.0;\n\
               for (int i = 0; i < n; i++) { A[i] = i * 2.0; s = s + A[i]; }\n\
               return s;\n\
             }",
        );
        let out = p.run("k", &[8]).unwrap();
        // Σ 2i for i<8 = 56; returned as integer image.
        assert_eq!(out.result, Some(56));
        assert!(out.counts.get(OpClass::Store) >= 8);
        assert!(out.exec_time.0 > 0.0);
        assert_eq!(out.data_bytes, 128);
    }

    #[test]
    fn prints_deterministically() {
        let p = program(
            "void f() { print_str(\"start\"); print_int(42); print_double(2.5); print_double(3.0); }",
        );
        let out = p.run("f", &[]).unwrap();
        assert_eq!(out.output, vec!["start", "42", "2.5", "3"]);
    }

    #[test]
    fn div_by_zero_traps() {
        let p = program("int f(int x) { return 10 / x; }");
        assert_eq!(p.run("f", &[0]), Err(NativeTrap::DivByZero));
        assert_eq!(p.run("f", &[2]).unwrap().result, Some(5));
    }

    #[test]
    fn out_of_bounds_traps() {
        let p = program("int A[4]; int f(int i) { return A[i]; }");
        assert!(matches!(
            p.run("f", &[9]),
            Err(NativeTrap::OutOfBounds { .. })
        ));
    }

    #[test]
    fn unsigned_arithmetic_matches_c() {
        let p = program("unsigned int f(unsigned int a, unsigned int b) { return a / b; }");
        // 0xFFFFFFFF / 2 = 0x7FFFFFFF under unsigned semantics.
        let out = p.run("f", &[-1, 2]).unwrap();
        assert_eq!(out.result.map(|v| v as i32), Some(0x7fffffff));
    }

    #[test]
    fn vectorized_loops_run_cheaper() {
        let src = "double A[4096]; double B[4096];\n\
                   void k(int n) { for (int i = 0; i < n; i++) A[i] = A[i] * 2.0 + B[i]; }";
        let scalar = {
            let p = program(src);
            p.run("k", &[4096]).unwrap()
        };
        let vectored = {
            let mut h = analyze(&parse(lex(src).unwrap()).unwrap()).unwrap();
            crate::passes::vectorize_loops(&mut h);
            NativeProgram::new(h).run("k", &[4096]).unwrap()
        };
        // Near-identical retired-op counts (the vector prologue adds a
        // couple of checks), much lower virtual time.
        let diff = vectored.counts.total().abs_diff(scalar.counts.total());
        assert!(diff <= 4, "count diff {diff}");
        assert!(vectored.exec_time.0 < scalar.exec_time.0 * 0.8);
    }

    #[test]
    fn fast_math_discounts_float_time() {
        let src = "double A[1024];\n\
                   void k(int n) { for (int i = 0; i < n; i++) A[i] = A[i] * 1.5 + 0.5; }";
        let plain = program(src).run("k", &[1024]).unwrap();
        let mut h = analyze(&parse(lex(src).unwrap()).unwrap()).unwrap();
        h.fast_math = true;
        let fast = NativeProgram::new(h).run("k", &[1024]).unwrap();
        assert!(fast.exec_time.0 < plain.exec_time.0);
    }

    #[test]
    fn code_size_grows_with_vectorization() {
        let src = "double A[64]; void k(int n) { for (int i = 0; i < n; i++) A[i] = 1.0; }";
        let plain = program(src).code_size();
        let mut h = analyze(&parse(lex(src).unwrap()).unwrap()).unwrap();
        crate::passes::vectorize_loops(&mut h);
        let vectored = NativeProgram::new(h).code_size();
        assert!(vectored > plain);
    }

    #[test]
    fn union_reinterpret_round_trips() {
        let p = program(
            "long f(double d) { return __f64_bits(d); }\n\
             double g(long b) { return __f64_from_bits(b); }",
        );
        let bits = p.run("f", &[0]).unwrap(); // f(0.0) — param converts to double
        assert_eq!(bits.result, Some(0));
    }
}
