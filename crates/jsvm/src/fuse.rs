//! Peephole fusion over MiniJS bytecode.
//!
//! After compilation, each chunk gets a fused **overlay**: a
//! `Vec<Option<Fused>>` the same length as the code, with an entry at
//! every pc where a multi-op pattern begins. The original bytecode is
//! untouched — the interpreter consults the overlay at each pc and either
//! executes the fused form (skipping `width` source ops) or falls back to
//! the plain op.
//!
//! That overlay shape buys two correctness properties for free:
//!
//! * **Jump targets need no analysis.** A jump landing in the middle of
//!   a fused group simply resumes plain execution there — the overlay is
//!   `None` at non-head pcs and the underlying ops are unchanged.
//! * **Guarded fallback is exact.** When a fused handler's fast-path
//!   guard fails (an operand is a heap reference, a receiver is a string
//!   or an object), it falls through to the plain op at the same pc
//!   *before charging anything*, so the virtual-cost trace is identical
//!   to the reference interpreter's.
//!
//! **Regions.** The overlay also cuts the chunk into regions
//! ([`region_heads`]): runs of ops entered only at their head and left
//! only at their end, each with its op count and its class and Table 12
//! counts stored once ([`FusedChunk::regions`]). A slot marks each head;
//! the interpreter counts an entry there instead of charging each op.
//!
//! **A fused form enters the regions its bytecode enters.** At every
//! head, [`build_overlay`] runs the plain loop's [`walk`] over the span's
//! constituents, once per outcome of its comparison, and stores what it
//! found beside the entry ([`Fused::paths`]): the regions the path enters
//! past its head, the index access and the pc the path leaves to. The
//! interpreter's fused handler only guards and computes values; it
//! retires the stored record for the outcome its comparison took. A span
//! the walk cannot follow (a back-edge, a branch on an unknown value, a
//! call) is not fused, so the counts hold by construction.
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
//! loop: the element address `A[(i) * 64 + j]` ([`FOp::GAddr`]), the
//! coerced store `i = (((i) + (1)) | 0)` ([`FOp::LCBin2Store`]) and the
//! materialized loop test `for (; ((i) < (64) ? 1 : 0); …)` (the `tail`
//! of [`FOp::LCCmpJf`] and [`FOp::LLCmpJf`]).

use crate::bytecode::{Chunk, Const, Op, Program};
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

/// A fused micro-op: what an overlay entry computes. Field names:
/// `a`/`b` are local slots, `c` a numeric constant, `dst` a local slot
/// written, `g` a global's name index. Where a form branches to comes
/// from its walk ([`Fused::paths`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum FOp {
    /// `LoadLocal a; LoadLocal b; <bin>`
    LLBin { a: u16, b: u16, op: BinKind },
    /// `LoadLocal a; LoadLocal b; <bin>; StoreLocal dst`
    LLBinStore {
        a: u16,
        b: u16,
        op: BinKind,
        dst: u16,
    },
    /// `LoadLocal a; Const c; <bin>`
    LCBin { a: u16, c: f64, op: BinKind },
    /// `LoadLocal a; Const c; <bin>; StoreLocal dst`
    LCBinStore {
        a: u16,
        c: f64,
        op: BinKind,
        dst: u16,
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
    },
    /// `Const c; StoreLocal dst`
    CStore { c: f64, dst: u16 },
    /// `<cmp>; JumpIfFalse` (operands from the stack)
    CmpJf { op: CmpKind },
    /// `LoadLocal a; LoadLocal b; <cmp>; JumpIfFalse`, or with `tail`
    /// `LoadLocal a; LoadLocal b; <cmp>` and a bool tail (`bool_tail`).
    LLCmpJf {
        a: u16,
        b: u16,
        op: CmpKind,
        tail: bool,
    },
    /// `LoadLocal a; Const c; <cmp>; JumpIfFalse`, or with `tail`
    /// `LoadLocal a; Const c; <cmp>` and a bool tail (`bool_tail`).
    LCCmpJf {
        a: u16,
        c: f64,
        op: CmpKind,
        tail: bool,
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
    },
    /// `LoadLocal obj; LoadLocal idx; GetIndex`
    LLGetIndex { obj: u16, idx: u16 },
    /// `SetIndex; Pop` into a typed array.
    SetIndexPop,
}

impl FOp {
    /// Source ops this entry's span covers.
    pub(crate) fn width(&self) -> usize {
        match self {
            FOp::LLCmpJf { tail, .. } | FOp::LCCmpJf { tail, .. } => 4 + 4 * *tail as usize,
            FOp::GAddr { get, .. } => 6 + *get as usize,
            FOp::LCBin2Store { .. } => 6,
            FOp::LLBinStore { .. } | FOp::LCBinStore { .. } => 4,
            FOp::LLBin { .. } | FOp::LCBin { .. } | FOp::LLGetIndex { .. } => 3,
            FOp::CStore { .. } | FOp::CmpJf { .. } | FOp::SetIndexPop => 2,
        }
    }
}

/// One overlay entry: a fused form and what each outcome of its
/// comparison charges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Fused {
    /// What the entry computes.
    pub op: FOp,
    /// The span's charges when its comparison is false and when it is
    /// true, from [`walk`]. A form without a comparison has one path,
    /// stored twice.
    pub paths: [SpanCharges; 2],
}

impl Fused {
    /// The path taken when the comparison gives `cond` (either, for a
    /// form without one).
    #[inline]
    pub(crate) fn path(&self, cond: bool) -> &SpanCharges {
        &self.paths[cond as usize]
    }
}

/// One overlay slot: the region that starts at its pc and the fused form
/// headed there, if any.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Slot {
    /// The region starting here ([`NO_REGION`] where none does).
    pub region: u32,
    /// That region's op count: the fuel entering it spends.
    pub steps: u32,
    /// The fused form headed here.
    pub fused: Option<Fused>,
}

/// [`Slot::region`] where no region starts.
pub(crate) const NO_REGION: u32 = u32::MAX;

/// The fused overlay for one chunk, with its regions.
#[derive(Debug)]
pub(crate) struct FusedChunk {
    /// One slot per op.
    pub ops: Vec<Slot>,
    /// The chunk's regions: each one's pc range and class and Table 12
    /// counts. Index ops charge by receiver when they run, so their
    /// class is not in the table.
    pub regions: RegionTable,
}

/// Build the overlay of every chunk.
pub(crate) fn build_overlays(program: &Program) -> Vec<FusedChunk> {
    program.chunks.iter().map(build_overlay).collect()
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

/// What the plain loop charges for `op` when its region is entered: its
/// class and Table 12 kind. `None` for an index op, which charges by its
/// receiver when it runs.
pub(crate) fn static_charge(op: &Op) -> Option<(OpClass, Option<ArithKind>)> {
    match op {
        Op::GetIndex | Op::SetIndex => None,
        op => Some((op.class(), op.arith())),
    }
}

/// The overlay of one chunk: its regions, and a fused form at each
/// pattern head.
pub(crate) fn build_overlay(chunk: &Chunk) -> FusedChunk {
    let code = &chunk.code;
    let heads = region_heads(chunk);
    let regions = RegionTable::build(&heads, |pc| static_charge(&code[pc]));
    let mut ops: Vec<Slot> = vec![
        Slot {
            region: NO_REGION,
            steps: 0,
            fused: None,
        };
        code.len()
    ];
    for r in 0..regions.len() {
        let slot = &mut ops[regions.range(r).start];
        (slot.region, slot.steps) = (r as u32, regions.steps(r));
    }
    let mut pc = 0;
    while pc < code.len() {
        match fuse_at(chunk, &ops, pc) {
            Some(f) => {
                ops[pc].fused = Some(f);
                pc += f.op.width();
            }
            None => pc += 1,
        }
    }
    FusedChunk { ops, regions }
}

/// The overlay entry at `pc`: the longest pattern there, with the walk
/// of each outcome over the chunk's region heads (`slots`). `None` when
/// no pattern matches or the walk cannot follow the span.
fn fuse_at(chunk: &Chunk, slots: &[Slot], pc: usize) -> Option<Fused> {
    let op = match_at(chunk, pc)?;
    let span = pc..pc + op.width();
    let path = |cond| SpanCharges::walk(chunk, slots, pc, span.len(), cond);
    let if_true = path(true);
    // A span without a comparison takes one path whatever `cond` is.
    let compares = chunk.code[span.clone()]
        .iter()
        .any(|o| CmpKind::of(o).is_some());
    let if_false = if compares { path(false) } else { if_true };
    Some(Fused {
        op,
        paths: [if_false?, if_true?],
    })
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
/// head is in, from its [`walk`]: the regions it enters on the way, its
/// index access and where it leaves the span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SpanCharges {
    /// The fuel of the regions it enters.
    pub steps: u32,
    /// Those regions, by id: `regions[..entered]`. At most 3: the bool
    /// tail enters two, and a jump target inside the span one more.
    pub regions: [u32; 3],
    /// How many regions it enters.
    pub entered: u8,
    /// The index access, if any: `Some(store)`.
    pub index: Option<bool>,
    /// The pc the path leaves the span at.
    pub exit: u32,
}

impl SpanCharges {
    /// The [`walk`] of the span at `head` with every comparison giving
    /// `cond`, entering the regions `slots` start at the heads it passes.
    /// `None` if the walk cannot follow the span or enters more regions
    /// than fit.
    pub(crate) fn walk(
        chunk: &Chunk,
        slots: &[Slot],
        head: usize,
        width: usize,
        cond: bool,
    ) -> Option<Self> {
        let mut charges = SpanCharges {
            steps: 0,
            regions: [0; 3],
            entered: 0,
            index: None,
            exit: 0,
        };
        let (mut indices, mut fits) = (0, true);
        let (_, exit) = walk(chunk, head, width, cond, |pc, op| {
            let slot = slots[pc];
            if slot.region != NO_REGION && pc != head {
                match charges.regions.get_mut(charges.entered as usize) {
                    Some(r) => *r = slot.region,
                    None => fits = false,
                }
                charges.entered += 1;
                charges.steps += slot.steps;
            }
            if let Op::GetIndex | Op::SetIndex = op {
                charges.index = Some(matches!(op, Op::SetIndex));
                indices += 1;
            }
        })
        .ok()?;
        charges.exit = u32::try_from(exit).ok()?;
        (fits && indices <= 1).then_some(charges)
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

/// Greedy longest-pattern match at `pc`.
fn match_at(chunk: &Chunk, pc: usize) -> Option<FOp> {
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
                return Some(FOp::GAddr {
                    g: *g,
                    a: *a,
                    c,
                    op1,
                    b: *b,
                    op2,
                    get: matches!(at(6), Some(Op::GetIndex)),
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
                        return Some(FOp::LLCmpJf {
                            a: *a,
                            b: *b,
                            op: cmp,
                            tail,
                        });
                    }
                }
                if let Some(bin) = BinKind::of(op2) {
                    if let Some(Op::StoreLocal(dst)) = at(3) {
                        return Some(FOp::LLBinStore {
                            a: *a,
                            b: *b,
                            op: bin,
                            dst: *dst,
                        });
                    }
                    return Some(FOp::LLBin {
                        a: *a,
                        b: *b,
                        op: bin,
                    });
                }
                if matches!(op2, Op::GetIndex) {
                    return Some(FOp::LLGetIndex { obj: *a, idx: *b });
                }
            }
        }
        // LoadLocal; Const(num); ...
        if let Some(Op::Const(ci)) = at(1) {
            if let Some(c) = num_const(chunk, *ci) {
                if let Some(op2) = at(2) {
                    if let Some(cmp) = CmpKind::of(op2) {
                        if let Some(tail) = cmp_branch(chunk, pc + 3) {
                            return Some(FOp::LCCmpJf {
                                a: *a,
                                c,
                                op: cmp,
                                tail,
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
                                return Some(FOp::LCBin2Store {
                                    a: *a,
                                    c1: c,
                                    op1: bin,
                                    c2,
                                    op2,
                                    dst: *dst,
                                });
                            }
                        }
                        if let Some(Op::StoreLocal(dst)) = at(3) {
                            return Some(FOp::LCBinStore {
                                a: *a,
                                c,
                                op: bin,
                                dst: *dst,
                            });
                        }
                        return Some(FOp::LCBin { a: *a, c, op: bin });
                    }
                }
            }
        }
    }
    if let Some(Op::Const(ci)) = at(0) {
        if let Some(c) = num_const(chunk, *ci) {
            if let Some(Op::StoreLocal(dst)) = at(1) {
                return Some(FOp::CStore { c, dst: *dst });
            }
        }
    }
    if let Some(op0) = at(0) {
        if let Some(cmp) = CmpKind::of(op0) {
            if let Some(Op::JumpIfFalse(_)) = at(1) {
                return Some(FOp::CmpJf { op: cmp });
            }
        }
    }
    if let (Some(Op::SetIndex), Some(Op::Pop)) = (at(0), at(1)) {
        return Some(FOp::SetIndexPop);
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

    #[test]
    fn fuses_counter_increment() {
        // i = i + 1  →  LoadLocal i; Const 1; Add; StoreLocal i
        let c = chunk(
            vec![Op::LoadLocal(0), Op::Const(0), Op::Add, Op::StoreLocal(0)],
            vec![Const::Num(1.0)],
        );
        let o = build_overlay(&c);
        assert_eq!(
            o.ops[0].fused.map(|f| f.op),
            Some(FOp::LCBinStore {
                a: 0,
                c: 1.0,
                op: BinKind::Add,
                dst: 0
            })
        );
        assert!(o.ops[1..].iter().all(|x| x.fused.is_none()));
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
        let o = build_overlay(&c);
        let fused = o.ops[0].fused.unwrap();
        assert_eq!(
            fused.op,
            FOp::LLCmpJf {
                a: 0,
                b: 1,
                op: CmpKind::Lt,
                tail: false
            }
        );
        // JumpIfFalse at pc 3, d=5 → absolute 8; falling through → 4.
        assert_eq!(fused.path(false).exit, 8);
        assert_eq!(fused.path(true).exit, 4);
        // The span is the chunk's first region, entered at its head; both
        // exits head regions of their own, which the loop enters.
        assert_eq!(o.ops[0].steps, 4);
        assert_eq!(o.ops[4].region, 1);
        assert!(fused.paths.iter().all(|p| p.entered().is_empty()));
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
        let o = build_overlay(&c);
        let forms: Vec<_> = o.ops.iter().map(|s| s.fused.map(|f| f.op)).collect();
        assert_eq!(
            forms,
            [
                Some(FOp::LLGetIndex { obj: 0, idx: 1 }),
                None,
                None,
                None,
                Some(FOp::SetIndexPop),
                None,
                None,
            ]
        );
    }

    /// The fused forms of `name`'s chunk in a compiled script.
    fn fused_forms(src: &str, name: &str) -> Vec<FOp> {
        let program = crate::compile_script(src).expect("compiles");
        let overlays = build_overlays(&program);
        let idx = program.chunks.iter().position(|c| c.name == name).unwrap();
        overlays[idx]
            .ops
            .iter()
            .filter_map(|s| s.fused)
            .map(|f| f.op)
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
        let has = |pred: &dyn Fn(&FOp) -> bool| forms.iter().any(pred);
        assert!(has(&|f| matches!(
            f,
            FOp::LCCmpJf {
                op: CmpKind::Lt,
                tail: true,
                ..
            }
        )));
        assert!(has(&|f| matches!(
            f,
            FOp::LLCmpJf {
                op: CmpKind::Lt,
                tail: true,
                ..
            }
        )));
        assert!(has(&|f| matches!(
            f,
            FOp::LCBin2Store {
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
                FOp::GAddr {
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
    fn jumps_may_land_inside_the_new_groups() {
        // The scripts of the interior-jump differential test: each must
        // really jump into a group, so its fallback is exercised.
        let program = crate::compile_script(
            "function pick(c, a, b) { var x = 0; x = ((c ? a : (b + 1)) | 0); return x; }\n\
             function both(c, i, j) {\n\
               var n = 0;\n\
               while (((c ? ((i) < (4)) : ((j) < (4))) ? 1 : 0)) { n = n + 1; i = i + 1; j = j + 2; }\n\
               return n;\n\
             }",
        )
        .expect("compiles");
        let overlays = build_overlays(&program);
        type Family = fn(&FOp) -> bool;
        let families: [(&str, Family); 2] = [
            ("pick", |f| matches!(f, FOp::LCBin2Store { .. })),
            ("both", |f| matches!(f, FOp::LCCmpJf { tail: true, .. })),
        ];
        for (name, family) in families {
            let idx = program.chunks.iter().position(|c| c.name == name).unwrap();
            let code = &program.chunks[idx].code;
            // A jump from outside [head, head + width) to strictly inside.
            let entered = |head: usize, width: usize| {
                code.iter().enumerate().any(|(pc, op)| match op {
                    Op::Jump(d) | Op::JumpIfFalse(d) => {
                        let to = (pc as i32 + d) as usize;
                        !(head..head + width).contains(&pc) && to > head && to < head + width
                    }
                    _ => false,
                })
            };
            let found = overlays[idx].ops.iter().enumerate().any(|(head, s)| {
                s.fused
                    .is_some_and(|f| family(&f.op) && entered(head, f.op.width()))
            });
            assert!(found, "{name}: no jump into its fused group");
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
            .any(|f| matches!(f, FOp::LCCmpJf { tail: false, .. })));
        assert!(!forms
            .iter()
            .any(|f| matches!(f, FOp::LCCmpJf { tail: true, .. })));
    }

    #[test]
    fn string_constants_are_not_fused() {
        // `x + "s"` must stay plain: string Add allocates.
        let c = chunk(
            vec![Op::LoadLocal(0), Op::Const(0), Op::Add],
            vec![Const::Str("s".into())],
        );
        let o = build_overlay(&c);
        assert!(o.ops.iter().all(|x| x.fused.is_none()));
    }

    #[test]
    fn groups_do_not_overlap() {
        // Two adjacent increments: each 4-wide, heads at 0 and 4.
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
        let c = chunk(ops, vec![Const::Num(1.0)]);
        let o = build_overlay(&c);
        assert!(o.ops[0].fused.is_some());
        assert!(o.ops[1].fused.is_none());
        assert!(o.ops[2].fused.is_none());
        assert!(o.ops[3].fused.is_none());
        assert!(o.ops[4].fused.is_some());
    }

    #[test]
    fn widths_cover_constituents() {
        for (fop, w) in [
            (
                FOp::LLBin {
                    a: 0,
                    b: 1,
                    op: BinKind::Add,
                },
                3,
            ),
            (
                FOp::LLBinStore {
                    a: 0,
                    b: 1,
                    op: BinKind::Add,
                    dst: 0,
                },
                4,
            ),
            (FOp::CStore { c: 0.0, dst: 0 }, 2),
            (FOp::CmpJf { op: CmpKind::Lt }, 2),
            (
                FOp::LCBin2Store {
                    a: 0,
                    c1: 1.0,
                    op1: BinKind::Add,
                    c2: 0.0,
                    op2: BinKind::BitOr,
                    dst: 0,
                },
                6,
            ),
            (
                FOp::LCCmpJf {
                    a: 0,
                    c: 4.0,
                    op: CmpKind::Lt,
                    tail: true,
                },
                8,
            ),
            (
                FOp::GAddr {
                    g: 0,
                    a: 0,
                    c: 4.0,
                    op1: BinKind::Mul,
                    b: 1,
                    op2: BinKind::Add,
                    get: true,
                },
                7,
            ),
            (FOp::LLGetIndex { obj: 0, idx: 1 }, 3),
            (FOp::SetIndexPop, 2),
        ] {
            assert_eq!(fop.width(), w, "{fop:?}");
        }
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
        let overlays = build_overlays(&program);
        let mut fused_crossings = 0;
        for (chunk, overlay) in program.chunks.iter().zip(&overlays) {
            let head = |pc: usize| overlay.ops.get(pc).is_some_and(|s| s.region != NO_REGION);
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
            let steps: u32 = overlay.ops.iter().map(|s| s.steps).sum();
            assert_eq!(steps as usize, chunk.code.len(), "{}", chunk.name);
            // A fused path enters every region head it passes, and only those.
            for (pc, slot) in overlay.ops.iter().enumerate() {
                let Some(f) = slot.fused else { continue };
                for (cond, path) in [false, true].into_iter().zip(&f.paths) {
                    let mut passed = Vec::new();
                    let walked = walk(chunk, pc, f.op.width(), cond, |p, _| {
                        if p != pc && head(p) {
                            passed.push(overlay.ops[p].region);
                        }
                    });
                    assert_eq!(walked.map(|(_, exit)| exit as u32), Ok(path.exit));
                    assert_eq!(passed, path.entered(), "{}: {pc}", chunk.name);
                    fused_crossings += passed.len();
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
        let o = build_overlay(&back_inside);
        assert!(o.ops.iter().all(|x| x.fused.is_none()));
        // A back-edge notes hotness; a branch on a value the span did not
        // push has no known outcome.
        let back_edge = chunk(vec![Op::LoadLocal(0), Op::Jump(-1)], vec![]);
        assert!(walk(&back_edge, 0, 2, true, |_, _| {}).is_err());
        let unknown = chunk(vec![Op::LoadLocal(0), Op::JumpIfFalse(5)], vec![]);
        assert!(walk(&unknown, 0, 2, true, |_, _| {}).is_err());
    }
}
