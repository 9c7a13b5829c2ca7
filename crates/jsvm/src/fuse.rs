//! Lowering: MiniJS bytecode → one micro-op stream per chunk, fused or
//! not.
//!
//! The one dispatch loop in `vm.rs` runs a stream of [`Mop`] micro-ops.
//! [`lower`] builds it once per chunk at load time:
//!
//! * every bytecode op becomes its singleton micro-op, in source order,
//!   and every jump holds the index of the micro-op it continues at, so a
//!   loop back-edge is still a jump to a smaller index ([`Mop::JumpBack`]);
//! * with fusion on, a fused form goes right before the plain copies of
//!   the constituents it covers: its fast path continues at its exit,
//!   and a failed guard falls through to the next micro-op, the plain
//!   copy of its first constituent. A jump into the middle of a span
//!   lands on the plain copy of its target. With fusion off
//!   (`reference_exec`) the stream is the singletons alone;
//! * the chunk is cut into regions ([`region_heads`]): runs of ops
//!   entered only at their head and left only at their end, each with its
//!   op count and its class and Table 12 counts stored once
//!   ([`LoweredChunk::regions`]). Every micro-op records its source pc
//!   ([`LoweredChunk::pos`]) and the region a transfer to it enters
//!   ([`LoweredChunk::heads`]). A region is entered only by the micro-op
//!   that moves control into it: a taken jump, a branch that is not
//!   taken, a method call that returns a value, a fused exit, frame entry
//!   and resume, and one [`Mop::Enter`] before each head a plain op falls
//!   through into. So the loop has no per-op region test.
//!
//! **A fused form enters the regions its plain copies enter.** At every
//! form, [`lower`] runs the plain loop's [`walk`] over the span's
//! constituents, once per outcome of its comparison, and stores what it
//! found ([`LoweredChunk::spans`]): the regions the path enters past its
//! first op (the one its exit heads included), its index access and the
//! micro-op it exits to. The fused arm only guards and computes values;
//! it retires the stored record for the outcome its comparison took. A
//! span the walk cannot follow (a back-edge, a branch on an unknown value,
//! a call) is not fused, so the counts hold by construction, and a guard
//! that fails runs exactly the plain ops, entering their regions once.
//!
//! Fusion eligibility mirrors the wasm engine's cost-equivalence
//! invariant (see `wb-wasm-vm/src/fuse.rs` and DESIGN.md): a fused
//! group's fast path must not allocate, must not grow heap bytes, and
//! must not note hotness — so GC safe-points and tier state are
//! provably identical at every group boundary. That is why:
//!
//! * arithmetic fast paths require *number* operands (`Add` on strings
//!   allocates; `to_num` on numbers is pure);
//! * the `SetIndex` fast path covers typed arrays only (a plain-array
//!   store can resize, changing `bytes_since_gc` and hence GC timing);
//! * the `GetIndex` fast paths read plain and typed arrays but never
//!   strings (string indexing allocates a fresh one-char string).
//!
//! Three families target the idioms the MiniC JS backend emits in every
//! loop: the element address `A[(i) * 64 + j]` ([`Mop::GAddr`]), the
//! coerced store `i = (((i) + (1)) | 0)` ([`Mop::LCBin2Store`]) and the
//! materialized loop test `for (; ((i) < (64) ? 1 : 0); …)` (the `tail`
//! of [`Mop::LCCmpJf`] and [`Mop::LLCmpJf`]).

use crate::ast::TypedKind;
use crate::bytecode::{Chunk, Const, Op};
use wb_env::{ArithKind, OpClass, RegionTable};

/// Fusable two-operand arithmetic, mirroring the corresponding [`Op`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BinKind {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
    UShr,
}

impl BinKind {
    /// Every kind, in declaration order.
    pub(crate) const ALL: [BinKind; 11] = [
        BinKind::Add,
        BinKind::Sub,
        BinKind::Mul,
        BinKind::Div,
        BinKind::Mod,
        BinKind::BitAnd,
        BinKind::BitOr,
        BinKind::BitXor,
        BinKind::Shl,
        BinKind::Shr,
        BinKind::UShr,
    ];

    pub(crate) fn of(op: &Op) -> Option<BinKind> {
        Some(match op {
            Op::Add => BinKind::Add,
            Op::Sub => BinKind::Sub,
            Op::Mul => BinKind::Mul,
            Op::Div => BinKind::Div,
            Op::Mod => BinKind::Mod,
            Op::BitAnd => BinKind::BitAnd,
            Op::BitOr => BinKind::BitOr,
            Op::BitXor => BinKind::BitXor,
            Op::Shl => BinKind::Shl,
            Op::Shr => BinKind::Shr,
            Op::UShr => BinKind::UShr,
            _ => return None,
        })
    }

    /// The source op this kind was lifted from (inverse of
    /// [`BinKind::of`]).
    pub(crate) fn op(self) -> Op {
        match self {
            BinKind::Add => Op::Add,
            BinKind::Sub => Op::Sub,
            BinKind::Mul => Op::Mul,
            BinKind::Div => Op::Div,
            BinKind::Mod => Op::Mod,
            BinKind::BitAnd => Op::BitAnd,
            BinKind::BitOr => Op::BitOr,
            BinKind::BitXor => Op::BitXor,
            BinKind::Shl => Op::Shl,
            BinKind::Shr => Op::Shr,
            BinKind::UShr => Op::UShr,
        }
    }

    /// Number-operands fast path. Exactly the reference semantics when
    /// both operands are already `Value::Num` (`to_num` is then the
    /// identity and `Add` cannot concatenate). The plain arms of the
    /// other kinds apply it to their `ToNumber`'d operands.
    #[inline(always)]
    pub(crate) fn apply(self, x: f64, y: f64) -> f64 {
        use crate::vm::{num_to_int32, num_to_uint32};
        match self {
            BinKind::Add => x + y,
            BinKind::Sub => x - y,
            BinKind::Mul => x * y,
            BinKind::Div => x / y,
            BinKind::Mod => x % y,
            BinKind::BitAnd => (num_to_int32(x) & num_to_int32(y)) as f64,
            BinKind::BitOr => (num_to_int32(x) | num_to_int32(y)) as f64,
            BinKind::BitXor => (num_to_int32(x) ^ num_to_int32(y)) as f64,
            BinKind::Shl => num_to_int32(x).wrapping_shl(num_to_int32(y) as u32 & 31) as f64,
            BinKind::Shr => num_to_int32(x).wrapping_shr(num_to_int32(y) as u32 & 31) as f64,
            BinKind::UShr => (num_to_uint32(x) >> (num_to_uint32(y) & 31)) as f64,
        }
    }
}

/// Fusable comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CmpKind {
    Lt,
    Gt,
    Le,
    Ge,
    EqEq,
    NotEq,
    StrictEq,
    StrictNe,
}

impl CmpKind {
    /// Every kind, in declaration order.
    pub(crate) const ALL: [CmpKind; 8] = [
        CmpKind::Lt,
        CmpKind::Gt,
        CmpKind::Le,
        CmpKind::Ge,
        CmpKind::EqEq,
        CmpKind::NotEq,
        CmpKind::StrictEq,
        CmpKind::StrictNe,
    ];

    pub(crate) fn of(op: &Op) -> Option<CmpKind> {
        Some(match op {
            Op::Lt => CmpKind::Lt,
            Op::Gt => CmpKind::Gt,
            Op::Le => CmpKind::Le,
            Op::Ge => CmpKind::Ge,
            Op::EqEq => CmpKind::EqEq,
            Op::NotEq => CmpKind::NotEq,
            Op::StrictEq => CmpKind::StrictEq,
            Op::StrictNe => CmpKind::StrictNe,
            _ => return None,
        })
    }

    /// The source op this kind was lifted from (inverse of
    /// [`CmpKind::of`]).
    pub(crate) fn op(self) -> Op {
        match self {
            CmpKind::Lt => Op::Lt,
            CmpKind::Gt => Op::Gt,
            CmpKind::Le => Op::Le,
            CmpKind::Ge => Op::Ge,
            CmpKind::EqEq => Op::EqEq,
            CmpKind::NotEq => Op::NotEq,
            CmpKind::StrictEq => Op::StrictEq,
            CmpKind::StrictNe => Op::StrictNe,
        }
    }

    /// Number-operands fast path: reference semantics for `Num`/`Num`
    /// (NaN makes relational comparisons false; equality is IEEE `==`).
    pub(crate) fn apply(self, x: f64, y: f64) -> bool {
        match self {
            CmpKind::Lt => x < y,
            CmpKind::Gt => x > y,
            CmpKind::Le => x <= y,
            CmpKind::Ge => x >= y,
            CmpKind::EqEq | CmpKind::StrictEq => x == y,
            CmpKind::NotEq | CmpKind::StrictNe => x != y,
        }
    }
}

/// One micro-op. The singletons mirror [`Op`] one to one, except that
/// `Sub` to `UShr` are one [`Mop::Bin`], the comparisons one
/// [`Mop::Cmp`], and every jump holds the micro-op it continues at. The
/// variants after [`Mop::Enter`] are fused forms. Field names: `a`/`b`
/// are local slots, `c` a numeric constant, `dst` a local slot written,
/// `g` a global's name index and `span` the form's index in
/// [`LoweredChunk::spans`], which says where each outcome goes.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)] // Mechanical 1:1 names; semantics in the VM.
pub(crate) enum Mop {
    Const(u32),
    Undef,
    Null,
    True,
    False,
    LoadLocal(u16),
    StoreLocal(u16),
    LoadGlobal(u32),
    StoreGlobal(u32),
    /// `Add`, which also concatenates strings.
    Add,
    Bin(BinKind),
    Neg,
    Not,
    BitNot,
    TypeofOp,
    Cmp(CmpKind),
    Jump(u32),
    /// A jump to an earlier micro-op: a loop back-edge, which notes
    /// hotness.
    JumpBack(u32),
    JumpIfFalse(u32),
    JumpIfFalsePeek(u32),
    JumpIfTruePeek(u32),
    Pop,
    Dup,
    Dup2,
    MakeArray(u16),
    MakeObject {
        shape: u32,
    },
    NewTyped(TypedKind),
    NewArrayN,
    GetIndex,
    SetIndex,
    GetMember(u32),
    SetMember(u32),
    ClosureOp(u32),
    Call(u8),
    MethodCall {
        name: u32,
        argc: u8,
    },
    Return,
    ReturnUndef,
    /// Falls through into the next micro-op, which heads a region, and
    /// enters that region: lowered before each head a plain op falls
    /// through into.
    Enter,
    // ---- fused forms ------------------------------------------------
    /// `LoadLocal a; LoadLocal b; <bin>`
    LLBin {
        a: u16,
        b: u16,
        op: BinKind,
        span: u32,
    },
    /// `LoadLocal a; LoadLocal b; <bin>; StoreLocal dst`
    LLBinStore {
        a: u16,
        b: u16,
        op: BinKind,
        dst: u16,
        span: u32,
    },
    /// `LoadLocal a; Const c; <bin>`
    LCBin {
        a: u16,
        c: f64,
        op: BinKind,
        span: u32,
    },
    /// `LoadLocal a; Const c; <bin>; StoreLocal dst`
    LCBinStore {
        a: u16,
        c: f64,
        op: BinKind,
        dst: u16,
        span: u32,
    },
    /// `LoadLocal a; Const c1; <op1>; Const c2; <op2>; StoreLocal dst`:
    /// the coerced store `i = (((i) + (1)) | 0)`.
    LCBin2Store {
        a: u16,
        c1: f64,
        op1: BinKind,
        c2: f64,
        op2: BinKind,
        dst: u16,
        span: u32,
    },
    /// `Const c; StoreLocal dst`
    CStore {
        c: f64,
        dst: u16,
        span: u32,
    },
    /// `<cmp>; JumpIfFalse` (operands from the stack)
    CmpJf {
        op: CmpKind,
        span: u32,
    },
    /// `LoadLocal a; LoadLocal b; <cmp>; JumpIfFalse`, or with `tail`
    /// `LoadLocal a; LoadLocal b; <cmp>` and a bool tail (`bool_tail`).
    LLCmpJf {
        a: u16,
        b: u16,
        op: CmpKind,
        tail: bool,
        span: u32,
    },
    /// `LoadLocal a; Const c; <cmp>; JumpIfFalse`, or with `tail`
    /// `LoadLocal a; Const c; <cmp>` and a bool tail (`bool_tail`).
    LCCmpJf {
        a: u16,
        c: f64,
        op: CmpKind,
        tail: bool,
        span: u32,
    },
    /// `LoadGlobal g; LoadLocal a; Const c; <op1>; LoadLocal b; <op2>`:
    /// the element address `A[(a) * c + b]`, pushing the global and the
    /// index. With `get`, also the `GetIndex` after it, pushing the
    /// element instead.
    GAddr {
        g: u32,
        a: u16,
        c: f64,
        op1: BinKind,
        b: u16,
        op2: BinKind,
        get: bool,
        span: u32,
    },
    /// `LoadLocal obj; LoadLocal idx; GetIndex`
    LLGetIndex {
        obj: u16,
        idx: u16,
        span: u32,
    },
    /// `SetIndex; Pop` into a typed array.
    SetIndexPop {
        span: u32,
    },
}

impl Mop {
    /// Source ops this micro-op covers: a fused form's constituents, one
    /// for a singleton and none for an [`Mop::Enter`].
    pub(crate) fn width(&self) -> usize {
        match self {
            Mop::LLCmpJf { tail, .. } | Mop::LCCmpJf { tail, .. } => 4 + 4 * *tail as usize,
            Mop::GAddr { get, .. } => 6 + *get as usize,
            Mop::LCBin2Store { .. } => 6,
            Mop::LLBinStore { .. } | Mop::LCBinStore { .. } => 4,
            Mop::LLBin { .. } | Mop::LCBin { .. } | Mop::LLGetIndex { .. } => 3,
            Mop::CStore { .. } | Mop::CmpJf { .. } | Mop::SetIndexPop { .. } => 2,
            Mop::Enter => 0,
            _ => 1,
        }
    }

    /// A fused form's index in [`LoweredChunk::spans`]; `None` for any
    /// other micro-op.
    pub(crate) fn span(&self) -> Option<usize> {
        match *self {
            Mop::LLBin { span, .. }
            | Mop::LLBinStore { span, .. }
            | Mop::LCBin { span, .. }
            | Mop::LCBinStore { span, .. }
            | Mop::LCBin2Store { span, .. }
            | Mop::CStore { span, .. }
            | Mop::CmpJf { span, .. }
            | Mop::LLCmpJf { span, .. }
            | Mop::LCCmpJf { span, .. }
            | Mop::GAddr { span, .. }
            | Mop::LLGetIndex { span, .. }
            | Mop::SetIndexPop { span } => Some(span as usize),
            _ => None,
        }
    }
}

/// One chunk lowered to micro-ops.
#[derive(Debug)]
pub(crate) struct LoweredChunk {
    /// The micro-op stream.
    pub code: Vec<Mop>,
    /// Per micro-op, the source pc of its first op (an [`Mop::Enter`]'s
    /// is the head it enters): a failing op settles its region through
    /// itself, and a collection that fails at a boundary through the op
    /// before it.
    pub pos: Vec<u32>,
    /// Per micro-op, the region a transfer of control to it enters: the
    /// region it heads. (A micro-op that heads none holds the region it
    /// lies in; no transfer lands on it.)
    pub heads: Vec<u32>,
    /// Each fused form's charges when its comparison is false and when it
    /// is true, from [`walk`]. A form without a comparison has one path,
    /// stored twice.
    pub spans: Vec<[SpanCharges; 2]>,
    /// The chunk's regions: each one's pc range and class and Table 12
    /// counts. Index ops charge by receiver when they run, so their
    /// class is not in the table.
    pub regions: RegionTable,
}

/// Where regions start: at pc 0, at every jump target, and after every
/// jump, call and return. Every op that can leave a region by jumping
/// is a jump, so a region, once entered, retires every one of its ops
/// unless one fails.
pub(crate) fn region_heads(chunk: &Chunk) -> Vec<bool> {
    let n = chunk.code.len();
    let mut heads = vec![false; n];
    let mut mark = |pc: i64| {
        if let Some(h) = usize::try_from(pc).ok().and_then(|pc| heads.get_mut(pc)) {
            *h = true;
        }
    };
    mark(0);
    for (pc, op) in chunk.code.iter().enumerate() {
        let pc = pc as i64;
        match op {
            Op::Jump(d) | Op::JumpIfFalse(d) | Op::JumpIfFalsePeek(d) | Op::JumpIfTruePeek(d) => {
                mark(pc + i64::from(*d));
                mark(pc + 1);
            }
            Op::Call(_) | Op::MethodCall { .. } | Op::Return | Op::ReturnUndef => mark(pc + 1),
            _ => {}
        }
    }
    heads
}

/// Whether `op` continues at the next op without moving control itself:
/// not a jump, call or return. A head after such an op is one only
/// because a jump targets it, and is entered there by an [`Mop::Enter`].
pub(crate) fn falls_through(op: &Op) -> bool {
    !matches!(op.class(), OpClass::Branch | OpClass::Call)
}

/// What the plain loop charges for `op` when its region is entered: its
/// class and Table 12 kind. `None` for an index op, which charges by its
/// receiver when it runs.
pub(crate) fn static_charge(op: &Op) -> Option<(OpClass, Option<ArithKind>)> {
    match op {
        Op::GetIndex | Op::SetIndex => None,
        op => Some((op.class(), op.arith())),
    }
}

/// Lower `chunk` to micro-ops, with fused forms when `fuse` is on.
///
/// The regions are cut first; both settings cut the same ones. Fused
/// patterns are then matched greedily, longest first, each kept only when
/// the walk of every outcome follows its span. Last, the stream is laid
/// out in source order: an [`Mop::Enter`] before each head a plain op
/// falls through into, each fused form before the plain copies of its
/// constituents, and every jump and fused exit resolved to the micro-op
/// of its source target.
pub(crate) fn lower(chunk: &Chunk, fuse: bool) -> LoweredChunk {
    let ops = &chunk.code;
    let n = ops.len();
    let is_head = region_heads(chunk);
    let regions = RegionTable::build(&is_head, |pc| static_charge(&ops[pc]));
    let mut fused: Vec<Option<Mop>> = vec![None; n];
    let mut spans: Vec<[SpanCharges; 2]> = Vec::new();
    let mut pc = 0;
    while fuse && pc < n {
        match fuse_at(chunk, &is_head, &regions, pc, spans.len() as u32) {
            Some((mop, paths)) => {
                fused[pc] = Some(mop);
                spans.push(paths);
                pc += mop.width();
            }
            None => pc += 1,
        }
    }
    let enters = |pc: usize| pc > 0 && is_head[pc] && falls_through(&ops[pc - 1]);
    // The micro-op a transfer to each source pc (and to the end) lands
    // on: a fused form at its first pc, the plain copy elsewhere.
    let mut mop_of = Vec::with_capacity(n + 1);
    let mut next = 0u32;
    for (pc, form) in fused.iter().enumerate() {
        next += u32::from(enters(pc));
        mop_of.push(next);
        next += 1 + u32::from(form.is_some());
    }
    mop_of.push(next);
    let target = |pc: usize| mop_of.get(pc).copied().unwrap_or(u32::MAX);
    let (mut code, mut pos) = (
        Vec::with_capacity(next as usize),
        Vec::with_capacity(next as usize),
    );
    for (pc, op) in ops.iter().enumerate() {
        let enter = enters(pc).then_some(Mop::Enter);
        for mop in [enter, fused[pc], Some(singleton(op, pc, target))] {
            code.extend(mop);
            pos.extend(mop.map(|_| pc as u32));
        }
    }
    for path in spans.iter_mut().flatten() {
        path.exit = target(path.exit as usize);
    }
    let heads = pos
        .iter()
        .map(|&p| regions.region_at(p as usize) as u32)
        .collect();
    LoweredChunk {
        code,
        pos,
        heads,
        spans,
        regions,
    }
}

/// The singleton micro-op of `op` at source `pc`, its jump target (if
/// any) resolved by `target`.
fn singleton(op: &Op, pc: usize, target: impl Fn(usize) -> u32) -> Mop {
    let to = |d: i32| usize::try_from(pc as i64 + i64::from(d)).map_or(u32::MAX, &target);
    match *op {
        Op::Const(ci) => Mop::Const(ci),
        Op::Undef => Mop::Undef,
        Op::Null => Mop::Null,
        Op::True => Mop::True,
        Op::False => Mop::False,
        Op::LoadLocal(i) => Mop::LoadLocal(i),
        Op::StoreLocal(i) => Mop::StoreLocal(i),
        Op::LoadGlobal(ni) => Mop::LoadGlobal(ni),
        Op::StoreGlobal(ni) => Mop::StoreGlobal(ni),
        Op::Add => Mop::Add,
        Op::Neg => Mop::Neg,
        Op::Not => Mop::Not,
        Op::BitNot => Mop::BitNot,
        Op::TypeofOp => Mop::TypeofOp,
        Op::Jump(d) if d < 0 => Mop::JumpBack(to(d)),
        Op::Jump(d) => Mop::Jump(to(d)),
        Op::JumpIfFalse(d) => Mop::JumpIfFalse(to(d)),
        Op::JumpIfFalsePeek(d) => Mop::JumpIfFalsePeek(to(d)),
        Op::JumpIfTruePeek(d) => Mop::JumpIfTruePeek(to(d)),
        Op::Pop => Mop::Pop,
        Op::Dup => Mop::Dup,
        Op::Dup2 => Mop::Dup2,
        Op::MakeArray(n) => Mop::MakeArray(n),
        Op::MakeObject { shape } => Mop::MakeObject { shape },
        Op::NewTyped(kind) => Mop::NewTyped(kind),
        Op::NewArrayN => Mop::NewArrayN,
        Op::GetIndex => Mop::GetIndex,
        Op::SetIndex => Mop::SetIndex,
        Op::GetMember(ni) => Mop::GetMember(ni),
        Op::SetMember(ni) => Mop::SetMember(ni),
        Op::ClosureOp(idx) => Mop::ClosureOp(idx),
        Op::Call(argc) => Mop::Call(argc),
        Op::MethodCall { name, argc } => Mop::MethodCall { name, argc },
        Op::Return => Mop::Return,
        Op::ReturnUndef => Mop::ReturnUndef,
        ref other => match (BinKind::of(other), CmpKind::of(other)) {
            (Some(kind), _) => Mop::Bin(kind),
            (_, Some(kind)) => Mop::Cmp(kind),
            _ => unreachable!("every other op has an arm of its own"),
        },
    }
}

/// The fused form at `pc`, to be stored as span `span`: the longest
/// pattern there, with the walk of each outcome over the chunk's region
/// heads. `None` when no pattern matches or the walk cannot follow the
/// span.
fn fuse_at(
    chunk: &Chunk,
    is_head: &[bool],
    regions: &RegionTable,
    pc: usize,
    span: u32,
) -> Option<(Mop, [SpanCharges; 2])> {
    let mop = match_at(chunk, pc, span)?;
    let width = mop.width();
    let path = |cond| SpanCharges::walk(chunk, is_head, regions, pc, width, cond);
    let if_true = path(true)?;
    // A span without a comparison takes one path whatever `cond` is.
    let compares = chunk.code[pc..pc + width]
        .iter()
        .any(|o| CmpKind::of(o).is_some());
    let if_false = if compares { path(false)? } else { if_true };
    Some((mop, [if_false, if_true]))
}

/// A single cost event per-op counting applies for one op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ev {
    /// One `band_counts[band].bump(class, 1)`.
    Class(OpClass),
    /// One Table 12 arithmetic-profile bump.
    Arith(ArithKind),
    /// One index count by the receiver's typedness (`count_index`).
    Index {
        /// Whether it counts as a store.
        store: bool,
    },
}

/// What per-op counting charges for one op, in its order: the class bump
/// (index ops count inside their handler instead), then the Table 12
/// bump.
pub(crate) fn op_events(op: &Op, charge: &mut impl FnMut(Ev)) {
    match op {
        Op::GetIndex => charge(Ev::Index { store: false }),
        Op::SetIndex => charge(Ev::Index { store: true }),
        other => {
            charge(Ev::Class(other.class()));
            if let Some(kind) = other.arith() {
                charge(Ev::Arith(kind));
            }
        }
    }
}

/// The plain interpreter's walk over `chunk.code[head..head + width]`
/// with every comparison evaluating to `cond`, handing each op it
/// retires, with its pc, to `visit` in order. Returns the ops retired and
/// the pc the path leaves the span at. Branches are followed on the truthiness of the
/// value they pop, which the walk knows when a comparison or a numeric
/// constant pushed it. The walk only moves forward inside the span, so
/// it ends within `width` steps. It fails on a back-edge (which notes
/// hotness, as no fused form may), on a branch on an unknown value and
/// on an op that leaves the frame.
pub(crate) fn walk(
    chunk: &Chunk,
    head: usize,
    width: usize,
    cond: bool,
    mut visit: impl FnMut(usize, &Op),
) -> Result<(usize, usize), String> {
    let span = head..head + width;
    let (mut pc, mut steps) = (head, 0);
    // Truthiness of the value on top of the stack, where known.
    let mut top: Option<bool> = None;
    while span.contains(&pc) {
        let op = chunk.code.get(pc).ok_or("span runs past the chunk")?;
        steps += 1;
        visit(pc, op);
        let mut jump = None;
        match op {
            Op::Const(ci) => {
                top = match chunk.consts.get(*ci as usize) {
                    Some(Const::Num(n)) => Some(*n != 0.0 && !n.is_nan()),
                    _ => None,
                }
            }
            op if CmpKind::of(op).is_some() => top = Some(cond),
            Op::Jump(d) if *d < 0 => return Err(format!("back-edge at pc {pc}")),
            Op::Jump(d) => jump = Some(*d),
            Op::JumpIfFalse(d) => {
                let truthy = top
                    .take()
                    .ok_or_else(|| format!("branch on an unknown value at pc {pc}"))?;
                if !truthy {
                    jump = Some(*d);
                }
            }
            Op::JumpIfFalsePeek(_)
            | Op::JumpIfTruePeek(_)
            | Op::Call(_)
            | Op::MethodCall { .. }
            | Op::Return
            | Op::ReturnUndef => return Err(format!("cannot follow {op:?} at pc {pc}")),
            _ => top = None,
        }
        pc = match jump {
            None => pc + 1,
            Some(d) => usize::try_from(pc as i64 + d as i64)
                .ok()
                .filter(|to| *to > pc || !span.contains(to))
                .ok_or_else(|| format!("jump back inside the span at pc {pc}"))?,
        };
    }
    Ok((steps, pc))
}

/// What one path through a fused span charges beyond the region its
/// first op is in, from its [`walk`]: the regions it enters on the way and
/// at its exit, its index access and where it leaves the span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SpanCharges {
    /// Those regions, by id: `regions[..entered]`. At most 4: the bool
    /// tail enters two and its exit one, and a jump target inside the
    /// span one more.
    pub regions: [u32; 4],
    /// How many regions it enters.
    pub entered: u8,
    /// The ops it retires.
    pub ops: u8,
    /// The index access, if any: `Some(store)`.
    pub index: Option<bool>,
    /// The micro-op the path continues at (a source pc until [`lower`]
    /// resolves it).
    pub exit: u32,
}

impl SpanCharges {
    /// The [`walk`] of the span at `head` with every comparison giving
    /// `cond`: it enters the region of each head `is_head` marks that it
    /// passes after its first op, then the one it exits to, if that is a
    /// head. `None` if the walk cannot follow the span, enters more
    /// regions than fit or makes more than one index access.
    pub(crate) fn walk(
        chunk: &Chunk,
        is_head: &[bool],
        regions: &RegionTable,
        head: usize,
        width: usize,
        cond: bool,
    ) -> Option<Self> {
        let (mut passed, mut index, mut indices) = (Vec::new(), None, 0);
        let (ops, exit) = walk(chunk, head, width, cond, |pc, op| {
            if pc != head && is_head[pc] {
                passed.push(pc);
            }
            if let Op::GetIndex | Op::SetIndex = op {
                index = Some(matches!(op, Op::SetIndex));
                indices += 1;
            }
        })
        .ok()?;
        passed.extend(is_head.get(exit).filter(|h| **h).map(|_| exit));
        let mut charges = SpanCharges {
            regions: [0; 4],
            entered: u8::try_from(passed.len()).ok()?,
            ops: u8::try_from(ops).ok()?,
            index,
            exit: u32::try_from(exit).ok()?,
        };
        for (slot, pc) in charges.regions.iter_mut().zip(&passed) {
            *slot = regions.region_at(*pc) as u32;
        }
        (passed.len() <= charges.regions.len() && indices <= 1).then_some(charges)
    }

    /// The regions the path enters.
    #[inline]
    pub(crate) fn entered(&self) -> &[u32] {
        &self.regions[..self.entered as usize]
    }
}

/// Numeric constant at `ci`, if it is one.
fn num_const(chunk: &Chunk, ci: u32) -> Option<f64> {
    match chunk.consts.get(ci as usize) {
        Some(Const::Num(n)) => Some(*n),
        _ => None,
    }
}

/// Whether the bool tail starts at `pc`: the branch on a comparison
/// materialized as a number, `(<cmp> ? 1 : 0)` under an `if` or loop
/// test:
///
/// ```text
/// pc+0  JumpIfFalse +3
/// pc+1  Const t        t a truthy number
/// pc+2  Jump +2
/// pc+3  Const f        f a falsy number
/// pc+4  JumpIfFalse d  → the tail's target
/// ```
///
/// The comparison's truth decides the second branch too, so the tail
/// exits to `pc+5` when it holds and to the target when it does not.
fn bool_tail(chunk: &Chunk, pc: usize) -> bool {
    let truthy = |ci: &u32| num_const(chunk, *ci).map(|n| n != 0.0 && !n.is_nan());
    matches!(
        chunk.code.get(pc..pc + 5),
        Some([Op::JumpIfFalse(3), Op::Const(t), Op::Jump(2), Op::Const(f), Op::JumpIfFalse(_)])
            if truthy(t) == Some(true) && truthy(f) == Some(false)
    )
}

/// A comparison's branch at `pc`: `Some(true)` for the bool tail,
/// `Some(false)` for a plain `JumpIfFalse`.
fn cmp_branch(chunk: &Chunk, pc: usize) -> Option<bool> {
    if bool_tail(chunk, pc) {
        return Some(true);
    }
    matches!(chunk.code.get(pc), Some(Op::JumpIfFalse(_))).then_some(false)
}

/// Greedy longest-pattern match at `pc`, as a fused form stored as span
/// `span`.
fn match_at(chunk: &Chunk, pc: usize, span: u32) -> Option<Mop> {
    let code = &chunk.code;
    let at = |i: usize| code.get(pc + i);

    if let Some(Op::LoadGlobal(g)) = at(0) {
        // LoadGlobal; LoadLocal; Const(num); <bin>; LoadLocal; <bin> [; GetIndex]
        if let (
            Some(Op::LoadLocal(a)),
            Some(Op::Const(ci)),
            Some(o1),
            Some(Op::LoadLocal(b)),
            Some(o2),
        ) = (at(1), at(2), at(3), at(4), at(5))
        {
            if let (Some(c), Some(op1), Some(op2)) =
                (num_const(chunk, *ci), BinKind::of(o1), BinKind::of(o2))
            {
                return Some(Mop::GAddr {
                    g: *g,
                    a: *a,
                    c,
                    op1,
                    b: *b,
                    op2,
                    get: matches!(at(6), Some(Op::GetIndex)),
                    span,
                });
            }
        }
    }
    if let Some(Op::LoadLocal(a)) = at(0) {
        // LoadLocal; LoadLocal; ...
        if let Some(Op::LoadLocal(b)) = at(1) {
            if let Some(op2) = at(2) {
                if let Some(cmp) = CmpKind::of(op2) {
                    if let Some(tail) = cmp_branch(chunk, pc + 3) {
                        return Some(Mop::LLCmpJf {
                            a: *a,
                            b: *b,
                            op: cmp,
                            tail,
                            span,
                        });
                    }
                }
                if let Some(bin) = BinKind::of(op2) {
                    if let Some(Op::StoreLocal(dst)) = at(3) {
                        return Some(Mop::LLBinStore {
                            a: *a,
                            b: *b,
                            op: bin,
                            dst: *dst,
                            span,
                        });
                    }
                    return Some(Mop::LLBin {
                        a: *a,
                        b: *b,
                        op: bin,
                        span,
                    });
                }
                if matches!(op2, Op::GetIndex) {
                    return Some(Mop::LLGetIndex {
                        obj: *a,
                        idx: *b,
                        span,
                    });
                }
            }
        }
        // LoadLocal; Const(num); ...
        if let Some(Op::Const(ci)) = at(1) {
            if let Some(c) = num_const(chunk, *ci) {
                if let Some(op2) = at(2) {
                    if let Some(cmp) = CmpKind::of(op2) {
                        if let Some(tail) = cmp_branch(chunk, pc + 3) {
                            return Some(Mop::LCCmpJf {
                                a: *a,
                                c,
                                op: cmp,
                                tail,
                                span,
                            });
                        }
                    }
                    if let Some(bin) = BinKind::of(op2) {
                        // ...; Const(num); <bin>; StoreLocal
                        if let (Some(Op::Const(c2i)), Some(o4), Some(Op::StoreLocal(dst))) =
                            (at(3), at(4), at(5))
                        {
                            if let (Some(c2), Some(op2)) = (num_const(chunk, *c2i), BinKind::of(o4))
                            {
                                return Some(Mop::LCBin2Store {
                                    a: *a,
                                    c1: c,
                                    op1: bin,
                                    c2,
                                    op2,
                                    dst: *dst,
                                    span,
                                });
                            }
                        }
                        if let Some(Op::StoreLocal(dst)) = at(3) {
                            return Some(Mop::LCBinStore {
                                a: *a,
                                c,
                                op: bin,
                                dst: *dst,
                                span,
                            });
                        }
                        return Some(Mop::LCBin {
                            a: *a,
                            c,
                            op: bin,
                            span,
                        });
                    }
                }
            }
        }
    }
    if let Some(Op::Const(ci)) = at(0) {
        if let Some(c) = num_const(chunk, *ci) {
            if let Some(Op::StoreLocal(dst)) = at(1) {
                return Some(Mop::CStore { c, dst: *dst, span });
            }
        }
    }
    if let Some(op0) = at(0) {
        if let Some(cmp) = CmpKind::of(op0) {
            if let Some(Op::JumpIfFalse(_)) = at(1) {
                return Some(Mop::CmpJf { op: cmp, span });
            }
        }
    }
    if let (Some(Op::SetIndex), Some(Op::Pop)) = (at(0), at(1)) {
        return Some(Mop::SetIndexPop { span });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(code: Vec<Op>, consts: Vec<Const>) -> Chunk {
        Chunk {
            code,
            consts,
            ..Default::default()
        }
    }

    /// The fused forms of a lowered chunk, by micro-op index.
    fn forms(lowered: &LoweredChunk) -> Vec<(usize, Mop)> {
        let fused = |(i, m): (usize, &Mop)| m.span().map(|_| (i, *m));
        lowered.code.iter().enumerate().filter_map(fused).collect()
    }

    #[test]
    fn fuses_counter_increment() {
        // i = i + 1  →  LoadLocal i; Const 1; Add; StoreLocal i
        let c = chunk(
            vec![Op::LoadLocal(0), Op::Const(0), Op::Add, Op::StoreLocal(0)],
            vec![Const::Num(1.0)],
        );
        let l = lower(&c, true);
        assert_eq!(
            l.code,
            [
                Mop::LCBinStore {
                    a: 0,
                    c: 1.0,
                    op: BinKind::Add,
                    dst: 0,
                    span: 0
                },
                Mop::LoadLocal(0),
                Mop::Const(0),
                Mop::Add,
                Mop::StoreLocal(0),
            ]
        );
        // The form and the plain copy of its first op share a position;
        // the fast path exits past the copies.
        assert_eq!(l.pos, [0, 0, 1, 2, 3]);
        assert_eq!(l.spans[0][1].exit, 5);
        assert_eq!(lower(&c, false).code, l.code[1..]);
    }

    #[test]
    fn fuses_loop_condition() {
        // while (i < n): LoadLocal i; LoadLocal n; Lt; JumpIfFalse +5
        let c = chunk(
            vec![
                Op::LoadLocal(0),
                Op::LoadLocal(1),
                Op::Lt,
                Op::JumpIfFalse(5),
                Op::Pop,
            ],
            vec![],
        );
        let l = lower(&c, true);
        assert_eq!(
            l.code[0],
            Mop::LLCmpJf {
                a: 0,
                b: 1,
                op: CmpKind::Lt,
                tail: false,
                span: 0
            }
        );
        // JumpIfFalse at pc 3, d=5 → pc 8, past the chunk; falling
        // through → pc 4, micro-op 5 past the form and its four copies,
        // which heads region 1: the path enters it.
        let [if_false, if_true] = l.spans[0];
        assert_eq!(if_false.exit, u32::MAX);
        assert!(if_false.entered().is_empty());
        assert_eq!((if_true.exit, if_true.entered()), (5, &[1][..]));
        assert_eq!(l.code[4], Mop::JumpIfFalse(u32::MAX));
        assert_eq!((l.regions.steps(0), l.heads[5]), (4, 1));
    }

    #[test]
    fn fuses_index_ops_only_with_their_operands_or_pop() {
        let c = chunk(
            vec![
                Op::LoadLocal(0),
                Op::LoadLocal(1),
                Op::GetIndex,
                Op::GetIndex, // lone: plain
                Op::SetIndex,
                Op::Pop,
                Op::SetIndex, // no Pop: plain
            ],
            vec![],
        );
        let l = lower(&c, true);
        let at: Vec<_> = forms(&l).into_iter().map(|(i, m)| (l.pos[i], m)).collect();
        assert_eq!(
            at,
            [
                (
                    0,
                    Mop::LLGetIndex {
                        obj: 0,
                        idx: 1,
                        span: 0
                    }
                ),
                (4, Mop::SetIndexPop { span: 1 }),
            ]
        );
        assert_eq!(l.spans[1][1].index, Some(true));
    }

    /// The fused forms of `name`'s chunk in a compiled script.
    fn fused_forms(src: &str, name: &str) -> Vec<Mop> {
        let program = crate::compile_script(src).expect("compiles");
        let chunk = program.chunks.iter().find(|c| c.name == name).unwrap();
        forms(&lower(chunk, true))
            .into_iter()
            .map(|(_, m)| m)
            .collect()
    }

    #[test]
    fn fuses_the_backend_loop_idioms() {
        // The shapes the MiniC JS backend emits for a 2-D loop nest.
        let forms = fused_forms(
            "var A_a = new Float64Array(16);\n\
             function k(n) {\n\
               var s = 0.0; var i = 0; var j = 0;\n\
               for (i = 0; ((i) < (4) ? 1 : 0); i = (((i) + (1)) | 0)) {\n\
                 for (j = 0; ((j) < (n) ? 1 : 0); j = (((j) + (1)) | 0)) {\n\
                   s = s + A_a[((i) * 4 + j)];\n\
                   A_a[((i) * 4 + j)] = s;\n\
                 }\n\
               }\n\
               return s;\n\
             }",
            "k",
        );
        let has = |pred: &dyn Fn(&Mop) -> bool| forms.iter().any(pred);
        assert!(has(&|f| matches!(
            f,
            Mop::LCCmpJf {
                op: CmpKind::Lt,
                tail: true,
                ..
            }
        )));
        assert!(has(&|f| matches!(
            f,
            Mop::LLCmpJf {
                op: CmpKind::Lt,
                tail: true,
                ..
            }
        )));
        assert!(has(&|f| matches!(
            f,
            Mop::LCBin2Store {
                c1: 1.0,
                op1: BinKind::Add,
                c2: 0.0,
                op2: BinKind::BitOr,
                ..
            }
        )));
        // The load carries the GetIndex; the store's address does not.
        for get in [true, false] {
            assert!(has(&|f| matches!(
                f,
                Mop::GAddr {
                    c: 4.0,
                    op1: BinKind::Mul,
                    op2: BinKind::Add,
                    get: g,
                    ..
                } if *g == get
            )));
        }
    }

    #[test]
    fn jumps_into_a_span_land_on_its_plain_copies() {
        // The scripts of the interior-jump differential test: each must
        // really jump into a span, and the jump must land on the plain
        // copy of its target, so its fallback is exercised.
        let program = crate::compile_script(
            "function pick(c, a, b) { var x = 0; x = ((c ? a : (b + 1)) | 0); return x; }\n\
             function both(c, i, j) {\n\
               var n = 0;\n\
               while (((c ? ((i) < (4)) : ((j) < (4))) ? 1 : 0)) { n = n + 1; i = i + 1; j = j + 2; }\n\
               return n;\n\
             }",
        )
        .expect("compiles");
        type Family = fn(&Mop) -> bool;
        let families: [(&str, Family); 2] = [
            ("pick", |f| matches!(f, Mop::LCBin2Store { .. })),
            ("both", |f| matches!(f, Mop::LCCmpJf { tail: true, .. })),
        ];
        for (name, family) in families {
            let chunk = program.chunks.iter().find(|c| c.name == name).unwrap();
            let l = lower(chunk, true);
            let found = forms(&l).into_iter().any(|(at, f)| {
                let first = l.pos[at] as usize;
                let span = first..first + f.width();
                let inside = |i: usize| span.contains(&(l.pos[i] as usize));
                family(&f)
                    && l.code.iter().enumerate().any(|(i, m)| match m {
                        Mop::Jump(t) | Mop::JumpIfFalse(t) => {
                            let t = *t as usize;
                            !inside(i) && inside(t) && l.pos[t] as usize > first
                        }
                        _ => false,
                    })
            });
            assert!(found, "{name}: no jump onto the plain copies of its span");
        }
    }

    #[test]
    fn bool_tail_needs_the_exact_shape() {
        // `? 0 : 1` inverts the test: no tail, the plain LCCmpJf stays.
        let forms = fused_forms(
            "function f(i) { var n = 0; while (((i) < (4) ? 0 : 1)) { n = n + 1; i = i - 1; } return n; }",
            "f",
        );
        assert!(forms
            .iter()
            .any(|f| matches!(f, Mop::LCCmpJf { tail: false, .. })));
        assert!(!forms
            .iter()
            .any(|f| matches!(f, Mop::LCCmpJf { tail: true, .. })));
    }

    #[test]
    fn string_constants_are_not_fused() {
        // `x + "s"` must stay plain: string Add allocates.
        let c = chunk(
            vec![Op::LoadLocal(0), Op::Const(0), Op::Add],
            vec![Const::Str("s".into())],
        );
        assert!(forms(&lower(&c, true)).is_empty());
    }

    #[test]
    fn groups_do_not_overlap() {
        // Two adjacent increments: each 4-wide, at pcs 0 and 4.
        let ops = vec![
            Op::LoadLocal(0),
            Op::Const(0),
            Op::Add,
            Op::StoreLocal(0),
            Op::LoadLocal(1),
            Op::Const(0),
            Op::Add,
            Op::StoreLocal(1),
        ];
        let l = lower(&chunk(ops, vec![Const::Num(1.0)]), true);
        let at: Vec<_> = forms(&l).iter().map(|(i, _)| (*i, l.pos[*i])).collect();
        assert_eq!(at, [(0, 0), (5, 4)]);
        assert_eq!(l.spans[0][1].exit, 5, "the first exits onto the second");
    }

    #[test]
    fn fused_forms_stay_small() {
        // The largest form carries two constants; every other fits in
        // three words.
        assert!(std::mem::size_of::<Mop>() <= 32);
    }

    #[test]
    fn walk_follows_the_bool_tail() {
        // The plain ops' own jumps decide the path: seven constituents
        // and three branches when the comparison holds, six and an exit
        // to the target when it does not.
        let chunk = Chunk {
            code: [
                vec![Op::LoadLocal(0), Op::Const(0), Op::Lt],
                vec![
                    Op::JumpIfFalse(3),
                    Op::Const(0),
                    Op::Jump(2),
                    Op::Const(1),
                    Op::JumpIfFalse(100),
                ],
            ]
            .concat(),
            consts: vec![Const::Num(1.0), Const::Num(0.0)],
            ..Default::default()
        };
        let mut branches = 0;
        let taken = walk(&chunk, 0, 8, true, |_, op| {
            op_events(op, &mut |e| {
                branches += (e == Ev::Class(OpClass::Branch)) as usize
            })
        });
        assert_eq!(taken, Ok((7, 8)));
        assert_eq!(branches, 3);
        assert_eq!(walk(&chunk, 0, 8, false, |_, _| {}), Ok((6, 107)));
        // Lowered: `Const 1` falls into the head of the last branch, so
        // an `Enter` precedes its copy; each path enters what its
        // plain ops enter.
        let l = lower(&chunk, true);
        assert_eq!(l.code[8], Mop::Enter);
        assert_eq!(l.code[6], Mop::Jump(9));
        let [if_false, if_true] = l.spans[0];
        assert_eq!((if_true.exit, if_true.entered()), (10, &[1, 3][..]));
        assert_eq!((if_false.exit, if_false.entered()), (u32::MAX, &[2, 3][..]));
    }

    #[test]
    fn regions_start_at_every_jump_target_and_after_every_exit() {
        let program = crate::compile_script(
            "function g(x) { return x * 2; }\n\
             function f(n, c) {\n\
               var s = 0; var o = { h: g };\n\
               for (var i = 0; ((i) < (n) ? 1 : 0); i = (((i) + (1)) | 0)) {\n\
                 if (i % 3 === 0) continue;\n\
                 s = s + (c ? g(i) : o.h(i)) + (c && i > 2 ? 1 : 0);\n\
                 if (s > 1000) return s;\n\
               }\n\
               return s;\n\
             }",
        )
        .expect("compiles");
        let mut fused_crossings = 0;
        for chunk in &program.chunks {
            let l = lower(chunk, true);
            let heads = region_heads(chunk);
            let head = |pc: usize| heads.get(pc).is_some_and(|h| *h);
            assert!(head(0), "{}: entry", chunk.name);
            for (pc, op) in chunk.code.iter().enumerate() {
                let end = pc + 1 == chunk.code.len();
                match op {
                    Op::Jump(d)
                    | Op::JumpIfFalse(d)
                    | Op::JumpIfFalsePeek(d)
                    | Op::JumpIfTruePeek(d) => {
                        let to = (pc as i32 + d) as usize;
                        assert!(
                            head(to) || to >= chunk.code.len(),
                            "{}: target {to} of {pc}",
                            chunk.name
                        );
                        assert!(
                            head(pc + 1) || end,
                            "{}: {op:?} at {pc} ends no region",
                            chunk.name
                        );
                    }
                    Op::Call(_) | Op::MethodCall { .. } | Op::Return | Op::ReturnUndef => {
                        assert!(
                            head(pc + 1) || end,
                            "{}: {op:?} at {pc} ends no region",
                            chunk.name
                        );
                    }
                    _ => {}
                }
            }
            // The regions partition the chunk.
            let steps: u32 = (0..l.regions.len()).map(|r| l.regions.steps(r)).sum();
            assert_eq!(steps as usize, chunk.code.len(), "{}", chunk.name);
            // A fused path enters every region head it passes, and the
            // one it exits to.
            for (at, f) in forms(&l) {
                let (pc, span) = (l.pos[at] as usize, l.spans[f.span().unwrap()]);
                for (cond, path) in [false, true].into_iter().zip(&span) {
                    let mut passed = Vec::new();
                    let (_, exit) = walk(chunk, pc, f.width(), cond, |p, _| {
                        if p != pc && head(p) {
                            passed.push(l.regions.region_at(p) as u32);
                        }
                    })
                    .unwrap();
                    fused_crossings += passed.len();
                    if head(exit) {
                        passed.push(l.regions.region_at(exit) as u32);
                    }
                    let lands = (0..l.code.len())
                        .find(|&i| l.pos[i] as usize == exit && l.code[i] != Mop::Enter);
                    assert_eq!(Some(path.exit as usize), lands, "{}: {pc}", chunk.name);
                    assert_eq!(passed, path.entered(), "{}: {pc}", chunk.name);
                }
            }
        }
        assert!(fused_crossings > 0, "the bool tails enter regions");
    }

    #[test]
    fn unwalkable_spans_are_not_fused() {
        // `Lt; JumpIfFalse -1` matches `CmpJf` but jumps back inside its
        // own span: the walk refuses it, so nothing fuses.
        let back_inside = chunk(vec![Op::Lt, Op::JumpIfFalse(-1)], vec![]);
        assert!(walk(&back_inside, 0, 2, false, |_, _| {}).is_err());
        assert!(forms(&lower(&back_inside, true)).is_empty());
        // A back-edge notes hotness; a branch on a value the span did not
        // push has no known outcome.
        let back_edge = chunk(vec![Op::LoadLocal(0), Op::Jump(-1)], vec![]);
        assert!(walk(&back_edge, 0, 2, true, |_, _| {}).is_err());
        let unknown = chunk(vec![Op::LoadLocal(0), Op::JumpIfFalse(5)], vec![]);
        assert!(walk(&unknown, 0, 2, true, |_, _| {}).is_err());
    }
}
