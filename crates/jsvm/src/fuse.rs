//! Lowering: MiniJS bytecode → micro-ops over frame slots, one stream
//! per chunk (DESIGN.md §7).
//!
//! [`lower`] runs once per chunk at load time. Every operand and result
//! is a `u32` slot of the call's frame, laid out `params | locals |
//! constants | operands` (operand height `h` is slot `operands + h`; the
//! non-string constants are stored once in [`LoweredChunk::frame_init`]),
//! with the heights checked by the same forward pass. The
//! **operand resolver** keeps an abstract stack of the slots values are
//! in: with fusion on, loads of locals and non-string constants, `Dup`,
//! `Dup2` and `Pop` emit nothing, and an operator reads its operands in
//! place and writes its own slot or the local a following `StoreLocal`
//! names, or, for a comparison, branches as the `JumpIfFalse` after it
//! would ([`Mop::CmpBr`]). A pending entry is copied into its own slot
//! before a head that code falls into, a branch, a call, an op that may
//! allocate and any write to the local it reads; with fusion off every
//! push is copied at once. Four fused forms go right before the plain
//! copies of their ops: [`Mop::CmpBrSpan`] (a comparison and the bool
//! tail, or a branch a jump lands on), which has no guard and keeps only
//! the copies a jump into its span reaches, and three guarded index
//! forms.
//!
//! Regions ([`region_heads`]) are entered only where control moves, and
//! by one [`Mop::Enter`] before each head a plain op falls into. A fused
//! form enters what its plain ops enter: [`lower`] stores the plain
//! loop's [`walk`] over its span per outcome ([`LoweredChunk::spans`]).
//! The collector roots each frame below [`LoweredChunk::roots`], the
//! reference's height at the boundary after the op that grew the heap.

use crate::ast::TypedKind;
use crate::bytecode::{Chunk, Const, Op};
use crate::value::Value;
use wb_env::{ArithKind, OpClass, RegionTable};

/// Declares a family of operators lifted from the [`Op`] variants of the
/// same names: the enum, `ALL` (every operator, in declaration order)
/// and the lift `of`.
macro_rules! lifted_ops {
    ($(#[$doc:meta])* $family:ident { $($op:ident),* $(,)? }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[allow(missing_docs)]
        pub(crate) enum $family {
            $($op),*
        }

        impl $family {
            pub(crate) const ALL: [$family; [$(stringify!($op)),*].len()] = [$($family::$op),*];

            pub(crate) fn of(op: &Op) -> Option<$family> {
                Some(match op {
                    $(Op::$op => $family::$op,)*
                    _ => return None,
                })
            }
        }
    };
}

lifted_ops! {
    /// Two-operand arithmetic.
    BinKind { Add, Sub, Mul, Div, Mod, BitAnd, BitOr, BitXor, Shl, Shr, UShr }
}

lifted_ops! {
    /// Comparisons.
    CmpKind { Lt, Gt, Le, Ge, EqEq, NotEq, StrictEq, StrictNe }
}

impl BinKind {
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

impl CmpKind {
    /// Number-operands fast path: reference semantics for `Num`/`Num`
    /// (NaN makes relational comparisons false; equality is IEEE `==`).
    #[inline(always)]
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

/// One micro-op. Every operand and result is a `u32` slot of the frame
/// (`params | locals | constants | operands`, see [`LoweredChunk`]),
/// results last, and every jump holds the micro-op it continues at. An
/// op that only moves a value onto the operand stack (`LoadLocal`, a
/// non-string `Const`, `Undef`, `Null`, `True`, `False`, `Dup`, `Dup2`)
/// or off it (`Pop`) lowers to nothing when fusion is on: its slot is
/// named by the micro-op that reads it. The variants after
/// [`Mop::Enter`] are fused forms, whose last field is their index in
/// [`LoweredChunk::spans`].
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)] // Mechanical names; semantics in the VM.
pub(crate) enum Mop {
    /// `(src, dst)`
    Copy(u32, u32),
    /// A string constant `(ci, dst)`, allocated anew on every run.
    Str(u32, u32),
    /// `(global, dst)`
    LoadGlobal(u32, u32),
    /// `(global, src)`
    StoreGlobal(u32, u32),
    /// `(chunk, dst)`
    Closure(u32, u32),
    /// `(a, b, dst)`: `Add`, which also concatenates strings.
    Add(u32, u32, u32),
    Bin(BinKind, u32, u32, u32),
    Cmp(CmpKind, u32, u32, u32),
    /// `(a, dst)`, as the next three.
    Neg(u32, u32),
    Not(u32, u32),
    BitNot(u32, u32),
    Typeof(u32, u32),
    Jump(u32),
    /// A loop back-edge, which notes hotness.
    JumpBack(u32),
    /// `(cond, to)`; the next two jump with `cond` left on the stack.
    JumpIfFalse(u32, u32),
    JumpIfFalsePeek(u32, u32),
    JumpIfTruePeek(u32, u32),
    /// `(kind, a, b, to)`: `<cmp>; JumpIfFalse`, jumping when the
    /// comparison is false; its `pos` is the branch's.
    CmpBr(CmpKind, u32, u32, u32),
    /// `(items, n, dst)`: the `n` slots from `items` on, as a new array.
    MakeArray(u32, u32, u32),
    /// `(items, shape, dst)`: a slot per key, as a new object.
    MakeObject(u32, u32, u32),
    /// `(kind, len, dst)`
    NewTyped(TypedKind, u32, u32),
    /// `(len, dst)`
    NewArrayN(u32, u32),
    /// `(obj, idx, dst)`
    GetIndex(u32, u32, u32),
    /// `(obj, idx, val, dst)`: stores `val`, which is also the result.
    SetIndex(u32, u32, u32, u32),
    /// `(obj, name, dst)`
    GetMember(u32, u32, u32),
    /// `(obj, name, val, dst)`: stores `val`, which is also the result.
    SetMember(u32, u32, u32, u32),
    /// `(callee, argc)`: the frame starts at the arguments above.
    Call(u32, u8),
    /// `(name, recv, argc)`: the arguments above the receiver.
    MethodCall(u32, u32, u8),
    Return(u32),
    ReturnUndef,
    /// Falls through into the next micro-op, which heads a region, and
    /// enters that region: lowered before each head a plain op falls
    /// through into.
    Enter,
    // ---- fused forms ------------------------------------------------
    /// `(kind, a, b, span)`: `<cmp>` and the bool tail ([`bool_tail`]),
    /// or `<cmp>; JumpIfFalse` where a jump lands on the branch.
    CmpBrSpan(CmpKind, u32, u32, u32),
    /// `LoadGlobal g; LoadLocal a; Const c; <op1>; LoadLocal b; <op2>`:
    /// the element address `A[(a) * c + b]`, the global into `dst` and
    /// the index into `dst + 1`. With `get`, also the `GetIndex` after
    /// it, the element into `dst`.
    GAddr {
        g: u32,
        a: u32,
        c: f64,
        op1: BinKind,
        b: u32,
        op2: BinKind,
        get: bool,
        dst: u32,
        span: u32,
    },
    /// `(obj, idx, dst, span)`: `LoadLocal obj; LoadLocal idx;
    /// GetIndex` on an array.
    LLGetIndex(u32, u32, u32, u32),
    /// `(obj, idx, val, span)`: `SetIndex; Pop` into a typed array.
    SetIndexPop(u32, u32, u32, u32),
}

impl Mop {
    /// A fused form's index in [`LoweredChunk::spans`]; `None` for any
    /// other micro-op.
    pub(crate) fn span(&self) -> Option<usize> {
        match *self {
            Mop::CmpBrSpan(.., span)
            | Mop::GAddr { span, .. }
            | Mop::LLGetIndex(.., span)
            | Mop::SetIndexPop(.., span) => Some(span as usize),
            _ => None,
        }
    }

    /// The micro-op a jump continues at (a source pc while lowering).
    pub(crate) fn target(&mut self) -> Option<&mut u32> {
        match self {
            Mop::Jump(to)
            | Mop::JumpBack(to)
            | Mop::JumpIfFalse(_, to)
            | Mop::JumpIfFalsePeek(_, to)
            | Mop::JumpIfTruePeek(_, to)
            | Mop::CmpBr(.., to) => Some(to),
            _ => None,
        }
    }
}

/// One chunk lowered to micro-ops over frame slots.
#[derive(Debug)]
pub(crate) struct LoweredChunk {
    /// The micro-op stream.
    pub code: Vec<Mop>,
    /// Per micro-op, the source pc of the op that emitted it (the copies
    /// and `Enter` before a head: of the op that falls into it).
    pub pos: Vec<u32>,
    /// Per micro-op, the region a transfer of control to it enters: the
    /// one its `pos` lies in.
    pub heads: Vec<u32>,
    /// Per micro-op, the frame slots the collector roots at the boundary
    /// before it: those below the height right after the last op that
    /// did work before it, or the height at a head.
    pub roots: Vec<u32>,
    /// Per micro-op, whether it retires more than one source op.
    pub fused: Vec<bool>,
    /// Each fused form's charges when its comparison is false and when it
    /// is true, from [`walk`] (one path, twice, without a comparison).
    pub spans: Vec<[SpanCharges; 2]>,
    /// The chunk's regions; index ops charge by receiver when they run.
    pub regions: RegionTable,
    /// The parameters, which start the frame where the caller left them.
    pub arity: u32,
    /// The parameters and the declared locals: slots `0..nlocals`.
    pub nlocals: u32,
    /// The slot of operand height 0, past the locals and constants.
    pub operands: u32,
    /// The frame past the parameters at entry: the declared locals as
    /// `undefined`, then the non-string constants.
    pub frame_init: Vec<Value>,
    /// The frame's length: `operands` and a slot per operand height up
    /// to the peak, which nothing reads before it is written.
    pub frame_len: u32,
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
        if let Some(to) = jump_target(op, pc) {
            mark(to);
        }
        if !falls_through(op) {
            mark(pc as i64 + 1);
        }
    }
    heads
}

/// Where `op` at `pc` jumps to, if it is a jump (perhaps out of the
/// chunk).
pub(crate) fn jump_target(op: &Op, pc: usize) -> Option<i64> {
    match op {
        Op::Jump(d) | Op::JumpIfFalse(d) | Op::JumpIfFalsePeek(d) | Op::JumpIfTruePeek(d) => {
            Some(pc as i64 + i64::from(*d))
        }
        _ => None,
    }
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

/// The operand stack values `op` pops and pushes (a peeking branch pops
/// its value only when it falls through).
fn stack_effect(chunk: &Chunk, op: &Op) -> Option<(u32, u32)> {
    Some(match op {
        Op::Const(_) | Op::Undef | Op::Null | Op::True | Op::False => (0, 1),
        Op::LoadLocal(_) | Op::LoadGlobal(_) | Op::ClosureOp(_) => (0, 1),
        Op::Dup => (1, 2),
        Op::Dup2 => (2, 4),
        Op::StoreLocal(_) | Op::StoreGlobal(_) | Op::Pop | Op::Return => (1, 0),
        Op::Jump(_) | Op::ReturnUndef => (0, 0),
        Op::JumpIfFalse(_) | Op::JumpIfFalsePeek(_) | Op::JumpIfTruePeek(_) => (1, 0),
        Op::Neg | Op::Not | Op::BitNot | Op::TypeofOp => (1, 1),
        Op::NewTyped(_) | Op::NewArrayN | Op::GetMember(_) => (1, 1),
        Op::GetIndex | Op::SetMember(_) => (2, 1),
        Op::SetIndex => (3, 1),
        Op::MakeArray(n) => (u32::from(*n), 1),
        Op::MakeObject { shape } => (chunk.object_shapes.get(*shape as usize)?.len() as u32, 1),
        Op::Call(argc) | Op::MethodCall { argc, .. } => (u32::from(*argc) + 1, 1),
        op if BinKind::of(op).is_some() || CmpKind::of(op).is_some() => (2, 1),
        _ => return None,
    })
}

/// Sentinel for a jump out of the chunk (only test chunks have one).
pub(crate) const NO_PC: u32 = u32::MAX;

/// The operand resolver: the abstract operand stack of one chunk, whose
/// entries are the slots their values are in, and the stream it emits.
struct Resolver<'a> {
    ops: &'a [Op],
    is_head: &'a [bool],
    code: Vec<Mop>,
    pos: Vec<u32>,
    roots: Vec<u32>,
    fused: Vec<bool>,
    stack: Vec<u32>,
    /// The slot of operand height 0.
    operands: u32,
    fuse: bool,
    /// The source pc of the op being lowered.
    at: u32,
    /// The root end after the last op that did work.
    after: u32,
    /// Whether the micro-op being lowered reads or writes in place.
    folded: bool,
    /// The source ops whose micro-ops no path reaches (see [`lower`]):
    /// what they emit is dropped.
    dead: std::ops::Range<usize>,
}

impl Resolver<'_> {
    fn emit(&mut self, mop: Mop) {
        if self.dead.contains(&(self.at as usize)) {
            self.folded = false;
            return;
        }
        self.code.push(mop);
        self.pos.push(self.at);
        self.roots.push(self.after);
        self.fused.push(std::mem::take(&mut self.folded));
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
        let src = self.stack.pop().expect("heights checked");
        self.folded |= src != self.top_slot();
        src
    }

    /// Copy each pending entry (one not in its own slot) into its own
    /// slot: every one, or those that read slot `slot`.
    fn settle(&mut self, slot: Option<u32>) {
        let folded = std::mem::take(&mut self.folded);
        for h in 0..self.stack.len() {
            let (src, own) = (self.stack[h], self.operands + h as u32);
            if src != own && slot.is_none_or(|x| x == src) {
                self.emit(Mop::Copy(src, own));
                self.stack[h] = own;
            }
        }
        self.folded = folded;
    }

    /// The local a `StoreLocal` at `next` takes a result to (fusing, and
    /// when it heads no region).
    fn store_target(&self, next: usize) -> Option<u32> {
        match self.ops.get(next) {
            Some(Op::StoreLocal(x)) if self.fuse && !self.is_head[next] => Some(u32::from(*x)),
            _ => None,
        }
    }

    /// The target of a `JumpIfFalse` at `next` that a comparison folds
    /// into (fusing, and when it heads no region).
    fn branch_target(&self, next: usize) -> Option<u32> {
        match self.ops.get(next) {
            Some(op @ Op::JumpIfFalse(_)) if self.fuse && !self.is_head[next] => {
                let to = jump_target(op, next).and_then(|to| u32::try_from(to).ok());
                Some(to.unwrap_or(NO_PC))
            }
            _ => None,
        }
    }

    /// Emit `make(dst)`, an operator whose operands are popped: its result
    /// goes to the local a following `StoreLocal` names (the entries that
    /// read that local are copied out first, and the `StoreLocal` lowers
    /// to nothing), else to its own slot. Returns how many ops past it
    /// were lowered with it.
    fn produce(&mut self, make: impl FnOnce(u32) -> Mop) -> usize {
        match self.store_target(self.at as usize + 1) {
            Some(x) => {
                self.settle(Some(x));
                self.folded = true;
                self.emit(make(x));
                1
            }
            None => {
                let dst = self.top_slot();
                self.emit(make(dst));
                self.stack.push(dst);
                0
            }
        }
    }

    /// Start a region at height `h`: every entry in its own slot.
    fn reset(&mut self, h: u32) {
        self.stack.clear();
        self.stack.extend((0..h).map(|k| self.operands + k));
        self.after = self.operands + h;
    }
}

/// The fused form that starts at `pc` of a chunk whose region heads are
/// `is_head`, its slots still to be named, with the source ops it covers:
/// a comparison and the bool tail, or its `JumpIfFalse` when that heads a
/// region (and so cannot fold into it), the element address (with or
/// without its `GetIndex`), a read at a local index of a local, or a
/// typed store whose result is dropped.
pub(crate) fn form_at(chunk: &Chunk, is_head: &[bool], pc: usize) -> Option<(Mop, usize)> {
    let at = |i: usize| chunk.code.get(pc + i);
    let local = |i: usize| match at(i) {
        Some(Op::LoadLocal(x)) => Some(u32::from(*x)),
        _ => None,
    };
    let bin = |i: usize| at(i).and_then(BinKind::of);
    if let Some(kind) = at(0).and_then(CmpKind::of) {
        let width = match at(1)? {
            _ if bool_tail(chunk, pc + 1) => 6,
            Op::JumpIfFalse(_) if is_head[pc + 1] => 2,
            _ => return None,
        };
        return Some((Mop::CmpBrSpan(kind, 0, 0, 0), width));
    }
    match (at(0)?, at(1)?, at(2)) {
        (Op::LoadGlobal(g), Op::LoadLocal(a), Some(Op::Const(ci))) => {
            let (c, op1, b, op2) = (num_const(chunk, *ci)?, bin(3)?, local(4)?, bin(5)?);
            // Without its `GetIndex`, the address must stay on the stack.
            let get = match at(6) {
                Some(Op::GetIndex) => true,
                Some(Op::StoreLocal(_)) => return None,
                _ => false,
            };
            let (g, a) = (*g, u32::from(*a));
            let (dst, span) = (0, 0);
            let form = Mop::GAddr {
                g,
                a,
                c,
                op1,
                b,
                op2,
                get,
                dst,
                span,
            };
            Some((form, 6 + usize::from(get)))
        }
        (Op::LoadLocal(_), Op::LoadLocal(_), Some(Op::GetIndex)) => {
            Some((Mop::LLGetIndex(local(0)?, local(1)?, 0, 0), 3))
        }
        (Op::SetIndex, Op::Pop, _) => Some((Mop::SetIndexPop(0, 0, 0, 0), 2)),
        _ => None,
    }
}

/// Lower `chunk` to micro-ops over frame slots, with fused forms when
/// `fuse` is on: the regions first, then one forward pass of the operand
/// resolver, and last every jump and fused exit resolved to the micro-op
/// of its source target. A [`Mop::CmpBrSpan`] has no guard to fail, so
/// only a jump from outside its span reaches the plain copies of its ops:
/// those before the first op such a jump lands on are lowered for their
/// heights alone, and what they emit is dropped. The pass checks the
/// operand heights: the compiler emits structured code, so every edge
/// into an op carries one height (code no edge reaches gets the height
/// falling into it would have). `Err` on an underflow, an unknown shape
/// or edges that disagree.
pub(crate) fn lower(chunk: &Chunk, fuse: bool) -> Result<LoweredChunk, String> {
    let ops = &chunk.code;
    let n = ops.len();
    let is_head = region_heads(chunk);
    let regions = RegionTable::build(&is_head, |pc| static_charge(&ops[pc]));
    // The frame's constants, each once, in order of first use, and how
    // many jumps land on each op.
    let nlocals = u32::from(chunk.nlocals);
    let arity = u32::from(chunk.arity).min(nlocals);
    let mut frame_init = vec![Value::Undefined; (nlocals - arity) as usize];
    let (mut pool, mut special) = (vec![NO_PC; chunk.consts.len()], [NO_PC; 4]);
    let mut landings = vec![0u32; n];
    for (pc, op) in ops.iter().enumerate() {
        let to = jump_target(op, pc).and_then(|to| usize::try_from(to).ok());
        if let Some(count) = to.and_then(|to| landings.get_mut(to)) {
            *count += 1;
        }
        let (slot, value) = match op {
            Op::Const(ci) => match chunk.consts.get(*ci as usize) {
                Some(Const::Num(v)) => (&mut pool[*ci as usize], Value::Num(*v)),
                _ => continue,
            },
            Op::Undef => (&mut special[0], Value::Undefined),
            Op::Null => (&mut special[1], Value::Null),
            Op::True => (&mut special[2], Value::Bool(true)),
            Op::False => (&mut special[3], Value::Bool(false)),
            _ => continue,
        };
        if *slot == NO_PC {
            *slot = arity + frame_init.len() as u32;
            frame_init.push(value);
        }
    }
    let operands = arity + frame_init.len() as u32;
    let mut r = Resolver {
        ops,
        is_head: &is_head,
        code: Vec::with_capacity(n),
        pos: Vec::with_capacity(n),
        roots: Vec::with_capacity(n),
        fused: Vec::with_capacity(n),
        stack: Vec::new(),
        operands,
        fuse,
        at: 0,
        after: operands,
        folded: false,
        dead: 0..0,
    };
    let mut spans: Vec<[SpanCharges; 2]> = Vec::new();
    let mut mop_of = vec![0; n + 1];
    // The height at each head, from the first edge into it; whether the
    // op before falls to the next; the peak height.
    let (mut height, mut falls, mut peak) = (vec![None; n], true, 0);
    let mut pc = 0;
    while pc < n {
        if is_head[pc] {
            let fall = r.stack.len() as u32;
            let h = match height[pc] {
                Some(j) if falls && j != fall => {
                    return Err(format!("heights {fall} and {j} meet at pc {pc}"))
                }
                h => h.unwrap_or(fall),
            };
            height[pc] = Some(h);
            // Code falling into a head copies its pending entries out and
            // enters the head's region.
            if pc > 0 && falls_through(&ops[pc - 1]) {
                r.at = pc as u32 - 1;
                r.settle(None);
                r.emit(Mop::Enter);
            }
            r.reset(h);
        }
        let op = &ops[pc];
        let (pops, pushes) = stack_effect(chunk, op).ok_or_else(|| format!("{op:?} at pc {pc}"))?;
        let before = r.stack.len() as u32;
        let out = before
            .checked_sub(pops)
            .ok_or_else(|| format!("{op:?} underflows at pc {pc}"))?;
        // The peak counts a result a `StoreLocal` takes: its own slot
        // holds it through the op's collection.
        peak = peak.max(before).max(out + pushes);
        mop_of[pc] = r.code.len() as u32;
        r.at = pc as u32;
        if let Some((form, width)) = form_at(chunk, &is_head, pc).filter(|_| fuse) {
            let path = |cond| SpanCharges::walk(chunk, &is_head, &regions, pc, width, cond);
            let paths = match form {
                Mop::CmpBrSpan(..) => path(false).zip(path(true)).map(|(f, t)| [f, t]),
                _ => path(true).map(|p| [p, p]),
            };
            if let Some(paths) = paths {
                emit_form(&mut r, form, width, spans.len() as u32);
                spans.push(paths);
                if let Mop::CmpBrSpan(..) = form {
                    let span = pc..pc + width;
                    let inside = |to: usize| {
                        let lands = |&q: &usize| jump_target(&ops[q], q) == Some(to as i64);
                        span.clone().filter(lands).count() as u32
                    };
                    let entered = span.clone().skip(1).find(|&p| landings[p] > inside(p));
                    r.dead = pc..entered.unwrap_or(span.end);
                }
            }
        }
        let with = lower_op(&mut r, chunk, pc, &pool, &special);
        for skipped in &mut mop_of[pc + 1..=pc + with] {
            *skipped = r.code.len() as u32;
        }
        // A jump carries its height to its target: forward, to be met
        // there; back, to agree with the head's.
        let (last, h) = (pc + with, r.stack.len() as u32);
        if let Some(to) = jump_target(&ops[last], last) {
            let peeks = matches!(ops[last], Op::JumpIfFalsePeek(_) | Op::JumpIfTruePeek(_));
            let carried = h + u32::from(peeks);
            let to = usize::try_from(to).map_err(|_| format!("pc {last} jumps out"))?;
            match height.get_mut(to) {
                Some(Some(j)) if *j != carried => {
                    return Err(format!("heights {j} and {carried} meet at pc {to}"))
                }
                Some(_) if to <= last => {}
                Some(at) => *at = Some(carried),
                None => {}
            }
        }
        falls = !matches!(ops[last], Op::Jump(_) | Op::Return | Op::ReturnUndef);
        pc = last + 1;
    }
    mop_of[n] = r.code.len() as u32;
    let target = |pc: u32| mop_of.get(pc as usize).copied().unwrap_or(NO_PC);
    let mut code = r.code;
    for to in code.iter_mut().filter_map(Mop::target) {
        *to = target(*to);
    }
    for path in spans.iter_mut().flatten() {
        path.exit = target(path.exit);
    }
    let heads = r
        .pos
        .iter()
        .map(|&p| regions.region_at(p as usize) as u32)
        .collect();
    Ok(LoweredChunk {
        code,
        pos: r.pos,
        heads,
        roots: r.roots,
        fused: r.fused,
        spans,
        regions,
        arity,
        nlocals,
        operands,
        frame_init,
        frame_len: operands + peak,
    })
}

/// Emit the fused form `form` as span `span`, in front of the plain
/// copies of its `width` ops, which the resolver lowers next from the
/// same abstract stack. Every pending entry below its operands is copied
/// out first: a form ends in a branch, or its fallback may allocate, so
/// every path leaves the same entries in their own slots.
fn emit_form(r: &mut Resolver, form: Mop, width: usize, span: u32) {
    let dst = |r: &Resolver| {
        r.store_target(r.at as usize + width)
            .unwrap_or(r.top_slot())
    };
    let mop = match form {
        Mop::CmpBrSpan(kind, ..) => {
            let (b, a) = (r.pop(), r.pop());
            r.settle(None);
            r.stack.extend([a, b]);
            Mop::CmpBrSpan(kind, a, b, span)
        }
        Mop::SetIndexPop(..) => {
            let (val, idx, obj) = (r.pop(), r.pop(), r.pop());
            r.settle(None);
            r.stack.extend([obj, idx, val]);
            Mop::SetIndexPop(obj, idx, val, span)
        }
        Mop::GAddr {
            g,
            a,
            c,
            op1,
            b,
            op2,
            get,
            ..
        } => {
            r.settle(None);
            let dst = if get { dst(r) } else { r.top_slot() };
            Mop::GAddr {
                g,
                a,
                c,
                op1,
                b,
                op2,
                get,
                dst,
                span,
            }
        }
        Mop::LLGetIndex(obj, idx, ..) => {
            r.settle(None);
            Mop::LLGetIndex(obj, idx, dst(r), span)
        }
        other => other,
    };
    r.folded = true;
    r.emit(mop);
}

/// Lower the op at `pc` (see the module docs), given the frame slots of
/// the pool's numeric constants and of `undefined`, `null`, `true` and
/// `false`. Returns how many ops past it were lowered with it.
fn lower_op(r: &mut Resolver, chunk: &Chunk, pc: usize, pool: &[u32], special: &[u32; 4]) -> usize {
    let op = &chunk.code[pc];
    let to = |d: i32| u32::try_from(pc as i64 + i64::from(d)).unwrap_or(NO_PC);
    let emitted = r.code.len();
    let mut with = 0;
    match *op {
        Op::Const(ci) if pool[ci as usize] != NO_PC => r.push(pool[ci as usize]),
        Op::Undef => r.push(special[0]),
        Op::Null => r.push(special[1]),
        Op::True => r.push(special[2]),
        Op::False => r.push(special[3]),
        Op::LoadLocal(x) => r.push(u32::from(x)),
        Op::Dup => r.push(*r.stack.last().expect("heights checked")),
        Op::Dup2 => {
            let [a, b] = [r.stack.len() - 2, r.stack.len() - 1].map(|h| r.stack[h]);
            r.push(a);
            r.push(b);
        }
        Op::Pop => {
            r.stack.pop();
        }
        Op::StoreLocal(x) => {
            let (src, dst) = (r.pop(), u32::from(x));
            if src != dst {
                r.settle(Some(dst));
                r.emit(Mop::Copy(src, dst));
            }
        }
        Op::StoreGlobal(g) => {
            let src = r.pop();
            r.emit(Mop::StoreGlobal(g, src));
        }
        Op::Jump(d) => {
            r.settle(None);
            r.emit(if d < 0 {
                Mop::JumpBack(to(d))
            } else {
                Mop::Jump(to(d))
            });
        }
        Op::JumpIfFalse(d) => {
            let cond = r.pop();
            r.settle(None);
            r.emit(Mop::JumpIfFalse(cond, to(d)));
        }
        Op::JumpIfFalsePeek(d) | Op::JumpIfTruePeek(d) => {
            // Taken, the value stays: it must be in its own slot.
            r.settle(None);
            let cond = r.pop();
            r.emit(match op {
                Op::JumpIfFalsePeek(_) => Mop::JumpIfFalsePeek(cond, to(d)),
                _ => Mop::JumpIfTruePeek(cond, to(d)),
            });
        }
        Op::Call(argc) | Op::MethodCall { argc, .. } => {
            r.settle(None);
            r.stack.truncate(r.stack.len() - usize::from(argc) - 1);
            let callee = r.top_slot();
            r.emit(match *op {
                Op::MethodCall { name, .. } => Mop::MethodCall(name, callee, argc),
                _ => Mop::Call(callee, argc),
            });
            r.stack.push(callee);
        }
        Op::Return => {
            let src = r.pop();
            r.emit(Mop::Return(src));
        }
        Op::ReturnUndef => r.emit(Mop::ReturnUndef),
        _ => with = lower_operator(r, chunk, op),
    }
    if r.code.len() > emitted {
        r.after = r.top_slot();
    }
    with
}

/// Lower an operator: pop its operands, copying the pending entries
/// below them out first when it may allocate (the items of a new array
/// or object are copied into their own slots, which it reads), then
/// produce its result; a comparison with a `JumpIfFalse` after it that
/// heads no region folds into it as one [`Mop::CmpBr`] instead.
fn lower_operator(r: &mut Resolver, chunk: &Chunk, op: &Op) -> usize {
    let mut items = 0;
    let mut x = [0; 3];
    if let Op::MakeArray(_) | Op::MakeObject { .. } = op {
        let n = stack_effect(chunk, op).map_or(0, |(pops, _)| pops);
        r.settle(None);
        r.stack.truncate(r.stack.len() - n as usize);
        items = r.top_slot();
    } else {
        let pops = stack_effect(chunk, op).map_or(0, |(pops, _)| pops as usize);
        for slot in x[..pops].iter_mut().rev() {
            *slot = r.pop();
        }
    }
    let allocates = matches!(
        op,
        Op::Const(_)
            | Op::Add
            | Op::TypeofOp
            | Op::NewTyped(_)
            | Op::NewArrayN
            | Op::GetIndex
            | Op::SetIndex
            | Op::SetMember(_)
    );
    if allocates {
        r.settle(None);
    }
    let [a, b, c] = x;
    if let (Some(kind), Some(to)) = (CmpKind::of(op), r.branch_target(r.at as usize + 1)) {
        r.settle(None);
        r.folded = true;
        r.at += 1;
        r.emit(Mop::CmpBr(kind, a, b, to));
        return 1;
    }
    r.produce(|dst| match *op {
        Op::Const(ci) => Mop::Str(ci, dst),
        Op::LoadGlobal(g) => Mop::LoadGlobal(g, dst),
        Op::ClosureOp(k) => Mop::Closure(k, dst),
        Op::Add => Mop::Add(a, b, dst),
        Op::Neg => Mop::Neg(a, dst),
        Op::Not => Mop::Not(a, dst),
        Op::BitNot => Mop::BitNot(a, dst),
        Op::TypeofOp => Mop::Typeof(a, dst),
        Op::MakeArray(n) => Mop::MakeArray(items, u32::from(n), dst),
        Op::MakeObject { shape } => Mop::MakeObject(items, shape, dst),
        Op::NewTyped(kind) => Mop::NewTyped(kind, a, dst),
        Op::NewArrayN => Mop::NewArrayN(a, dst),
        Op::GetIndex => Mop::GetIndex(a, b, dst),
        Op::SetIndex => Mop::SetIndex(a, b, c, dst),
        Op::GetMember(name) => Mop::GetMember(a, name, dst),
        Op::SetMember(name) => Mop::SetMember(a, name, b, dst),
        ref other => match (BinKind::of(other), CmpKind::of(other)) {
            (Some(kind), _) => Mop::Bin(kind, a, b, dst),
            (_, Some(kind)) => Mop::Cmp(kind, a, b, dst),
            _ => unreachable!("every other op has an arm of its own"),
        },
    })
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
            Op::Const(ci) => top = num_const(chunk, *ci).map(|n| n != 0.0 && !n.is_nan()),
            op if CmpKind::of(op).is_some() => top = Some(cond),
            Op::Jump(d) if *d < 0 => return Err(format!("back-edge at pc {pc}")),
            Op::Jump(d) => jump = Some(*d),
            Op::JumpIfFalse(d) => match top.take() {
                Some(truthy) => jump = (!truthy).then_some(*d),
                None => return Err(format!("branch on an unknown value at pc {pc}")),
            },
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
        let (_, exit) = walk(chunk, head, width, cond, |pc, op| {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(code: Vec<Op>, consts: Vec<Const>) -> Chunk {
        Chunk {
            code,
            consts,
            nlocals: 4,
            ..Default::default()
        }
    }

    fn lowered(c: &Chunk, fuse: bool) -> LoweredChunk {
        lower(c, fuse).expect("heights agree")
    }

    /// The fused forms of a lowered chunk, by micro-op index.
    fn forms(lowered: &LoweredChunk) -> Vec<(usize, Mop)> {
        let fused = |(i, m): (usize, &Mop)| m.span().map(|_| (i, *m));
        lowered.code.iter().enumerate().filter_map(fused).collect()
    }

    #[test]
    fn a_counter_increment_is_one_micro_op() {
        // i = i + 1  →  LoadLocal i; Const 1; Add; StoreLocal i
        let c = chunk(
            vec![Op::LoadLocal(0), Op::Const(0), Op::Add, Op::StoreLocal(0)],
            vec![Const::Num(1.0)],
        );
        let l = lowered(&c, true);
        // The constant's slot follows the four locals.
        assert_eq!(l.code, [Mop::Add(0, 4, 0)]);
        assert_eq!((l.pos[0], l.fused[0]), (2, true));
        assert_eq!(
            l.frame_init[..5],
            [Value::Undefined; 4]
                .iter()
                .copied()
                .chain([Value::Num(1.0)])
                .collect::<Vec<_>>()[..]
        );
        // The reference copies every push into its own slot and stores
        // through a copy: one micro-op per op that does work.
        let r = lowered(&c, false);
        assert_eq!(
            r.code,
            [
                Mop::Copy(0, 5),
                Mop::Copy(4, 6),
                Mop::Add(5, 6, 5),
                Mop::Copy(5, 0),
            ]
        );
        assert!(r.fused.iter().all(|f| !f));
    }

    #[test]
    fn a_loop_test_is_one_branch() {
        // while (i < n): LoadLocal i; LoadLocal n; Lt; JumpIfFalse +5
        let c = chunk(
            vec![
                Op::LoadLocal(0),
                Op::LoadLocal(1),
                Op::Lt,
                Op::JumpIfFalse(5),
                Op::Undef,
                Op::Return,
            ],
            vec![],
        );
        let l = lowered(&c, true);
        // JumpIfFalse at pc 3, d=5 → pc 8, past the chunk; falling
        // through → pc 4, which heads region 1. The comparison folds into
        // the branch, whose position it takes, and needs no span.
        assert_eq!(
            l.code,
            [Mop::CmpBr(CmpKind::Lt, 0, 1, NO_PC), Mop::Return(4)]
        );
        assert_eq!((l.pos[0], l.fused[0]), (3, true));
        assert!(l.spans.is_empty());
        assert_eq!((l.regions.steps(0), l.heads[1]), (4, 1));
        // The reference writes the comparison to its slot, then branches.
        let r = lowered(&c, false);
        assert_eq!(
            r.code[2..4],
            [Mop::Cmp(CmpKind::Lt, 5, 6, 5), Mop::JumpIfFalse(5, NO_PC)]
        );
    }

    #[test]
    fn index_forms_fuse_only_with_their_operands_or_pop() {
        let c = chunk(
            vec![
                Op::LoadLocal(3),
                Op::LoadLocal(0),
                Op::LoadLocal(1),
                Op::GetIndex,
                Op::LoadLocal(1),
                Op::GetIndex, // no local receiver: plain
                Op::LoadLocal(2),
                Op::SetIndex,
                Op::Pop,
                Op::LoadLocal(0),
                Op::LoadLocal(1),
                Op::LoadLocal(2),
                Op::SetIndex, // no Pop: plain
                Op::Return,
            ],
            vec![],
        );
        let l = lowered(&c, true);
        let at: Vec<_> = forms(&l).into_iter().map(|(i, m)| (l.pos[i], m)).collect();
        assert_eq!(
            at,
            [
                (1, Mop::LLGetIndex(0, 1, 5, 0)),
                (7, Mop::SetIndexPop(4, 5, 2, 1)),
            ]
        );
        assert_eq!(l.spans[1][1].index, Some(true));
        // The pending receiver below the read is copied out before it.
        assert_eq!(l.code[0], Mop::Copy(3, 4));
    }

    /// The fused forms of `name`'s chunk in a compiled script.
    fn fused_forms(src: &str, name: &str) -> Vec<Mop> {
        let program = crate::compile_script(src).expect("compiles");
        let chunk = program.chunks.iter().find(|c| c.name == name).unwrap();
        forms(&lowered(chunk, true))
            .into_iter()
            .map(|(_, m)| m)
            .collect()
    }

    #[test]
    fn fuses_the_backend_loop_idioms() {
        // The shapes the MiniC JS backend emits for a 2-D loop nest.
        let src = "var A_a = new Float64Array(16);\n\
             function k(n) {\n\
               var s = 0.0; var i = 0; var j = 0;\n\
               for (i = 0; ((i) < (4) ? 1 : 0); i = (((i) + (1)) | 0)) {\n\
                 for (j = 0; ((j) < (n) ? 1 : 0); j = (((j) + (1)) | 0)) {\n\
                   s = s + A_a[((i) * 4 + j)];\n\
                   A_a[((i) * 4 + j)] = s;\n\
                 }\n\
               }\n\
               return s;\n\
             }";
        let forms = fused_forms(src, "k");
        let has = |pred: &dyn Fn(&Mop) -> bool| forms.iter().any(pred);
        // Both loop tests, each with its bool tail.
        let tails = forms
            .iter()
            .filter(|f| matches!(f, Mop::CmpBrSpan(CmpKind::Lt, ..)))
            .count();
        assert_eq!(tails, 2);
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
        // The coerced store is two micro-ops, the second into the local.
        let program = crate::compile_script(src).expect("compiles");
        let k = program.chunks.iter().find(|c| c.name == "k").unwrap();
        let l = lowered(k, true);
        let stores = l.code.windows(2).filter(|w| {
            matches!(
                w,
                [
                    Mop::Add(a, ..),
                    Mop::Bin(BinKind::BitOr, _, _, dst)
                ] if a == dst
            )
        });
        assert_eq!(stores.count(), 2);
    }

    #[test]
    fn jumps_into_a_span_land_on_its_plain_copies() {
        // The outer `? 1 : 0` jumps from `i < 4` into the bool tail of
        // `j < 4`, so the jump lands on the plain copy of its target; the
        // comparison before it keeps no copy.
        let program = crate::compile_script(
            "function both(c, i, j) {\n\
               var n = 0;\n\
               while (((c ? ((i) < (4)) : ((j) < (4))) ? 1 : 0)) { n = n + 1; i = i + 1; j = j + 2; }\n\
               return n;\n\
             }",
        )
        .expect("compiles");
        let chunk = program.chunks.iter().find(|c| c.name == "both").unwrap();
        let l = lowered(chunk, true);
        let found = forms(&l).into_iter().any(|(at, f)| {
            let first = l.pos[at] as usize;
            let inside = |i: usize| (first + 1..first + 6).contains(&(l.pos[i] as usize));
            matches!(f, Mop::CmpBrSpan(..))
                && l.code.iter().enumerate().any(|(i, m)| match *m {
                    Mop::Jump(t) | Mop::JumpIfFalse(_, t) => {
                        !inside(i) && l.pos[i] as usize != first && inside(t as usize)
                    }
                    _ => false,
                })
                && l.pos.iter().filter(|&&p| p as usize == first).count() == 1
        });
        assert!(found, "no jump onto the plain copies of a tail");
    }

    #[test]
    fn bool_tail_needs_the_exact_shape() {
        // `? 0 : 1` inverts the test: the comparison fuses with its first
        // branch only, and the inverted tail stays plain.
        let src = "function f(i) { var n = 0; while (((i) < (4) ? 0 : 1)) { n = n + 1; i = i - 1; } return n; }";
        let program = crate::compile_script(src).expect("compiles");
        let f = program.chunks.iter().find(|c| c.name == "f").unwrap();
        let l = lowered(f, true);
        assert!(l.spans.is_empty(), "{:?}", l.code);
        let branches: Vec<_> = (0..l.code.len())
            .filter_map(|i| match l.code[i] {
                Mop::CmpBr(_, _, _, to) => Some((i, to as usize)),
                _ => None,
            })
            .collect();
        let [(at, to)] = branches[..] else {
            panic!("{:?}", l.code)
        };
        // Each outcome goes to its own constant: `0`, copied into its slot
        // by the `Jump` after it, or `1` past the `Jump`.
        let branch = l.pos[at] as usize;
        assert_eq!(
            (l.pos[at + 1], l.pos[to]),
            (branch as u32 + 2, branch as u32 + 3)
        );
    }

    #[test]
    fn a_branch_a_jump_lands_on_spans_its_comparison() {
        // `c && i < n`: the `&&` jumps onto the `JumpIfFalse`, which so
        // heads a region and cannot fold. The span form covers the two,
        // and only the branch keeps its plain copy, for that jump.
        let src = "function f(c, i, n) { if (c && i < n) { return 1; } return 0; }";
        let program = crate::compile_script(src).expect("compiles");
        let f = program.chunks.iter().find(|c| c.name == "f").unwrap();
        let l = lowered(f, true);
        let [(at, Mop::CmpBrSpan(CmpKind::Lt, 1, 2, 0))] = forms(&l)[..] else {
            panic!("{:?}", l.code)
        };
        let cmp = l.pos[at] as usize;
        let width = form_at(f, &region_heads(f), cmp).map(|(_, w)| w);
        assert_eq!(width, Some(2));
        assert!(matches!(l.code[at + 1], Mop::JumpIfFalse(..)));
        assert_eq!(l.pos[at + 1] as usize, cmp + 1);
    }

    #[test]
    fn string_constants_stay_micro_ops() {
        // `x + "s"` allocates the string on every run, so the pending `x`
        // is copied into its own slot first.
        let c = chunk(
            vec![Op::LoadLocal(0), Op::Const(0), Op::Add, Op::Return],
            vec![Const::Str("s".into())],
        );
        let l = lowered(&c, true);
        assert_eq!(
            l.code,
            [
                Mop::Copy(0, 4),
                Mop::Str(0, 5),
                Mop::Add(4, 5, 4),
                Mop::Return(4)
            ]
        );
        // No frame constant: the four locals, then two operand slots.
        assert_eq!((l.frame_init.len(), l.frame_len), (4, 4 + 2));
    }

    #[test]
    fn pending_reads_are_copied_before_their_local_is_written() {
        // `x = y + (y = 3)`-like: a load of local 1 is still pending when
        // local 1 is stored to, so it is copied out first.
        let c = chunk(
            vec![
                Op::LoadLocal(1),
                Op::Const(0),
                Op::StoreLocal(1),
                Op::LoadLocal(1),
                Op::Sub,
                Op::Return,
            ],
            vec![Const::Num(3.0)],
        );
        let l = lowered(&c, true);
        assert_eq!(
            l.code,
            [
                Mop::Copy(1, 5),
                Mop::Copy(4, 1),
                Mop::Bin(BinKind::Sub, 5, 1, 5),
                Mop::Return(5)
            ]
        );
    }

    #[test]
    fn allocating_ops_copy_pending_entries_below_them() {
        // `s + [x]`: the pending `s` is copied into its own slot before the
        // array is made, so the collector's roots hold its value.
        let c = chunk(
            vec![
                Op::LoadLocal(0),
                Op::LoadLocal(1),
                Op::MakeArray(1),
                Op::Add,
                Op::Return,
            ],
            vec![],
        );
        let l = lowered(&c, true);
        assert_eq!(
            l.code[..3],
            [Mop::Copy(0, 4), Mop::Copy(1, 5), Mop::MakeArray(5, 1, 5),]
        );
        // At the boundary after it, the array and the copy are rooted.
        assert_eq!(l.roots[3], 4 + 2);
    }

    #[test]
    fn heights_that_disagree_at_a_join_fail() {
        // The branch carries height 1 to pc 4; falling in from pc 3
        // carries 0.
        let bad = chunk(
            vec![Op::True, Op::True, Op::JumpIfFalse(2), Op::Pop, Op::Return],
            vec![],
        );
        assert!(lower(&bad, true).unwrap_err().contains("meet at pc 4"));
        let underflow = chunk(vec![Op::Pop], vec![]);
        assert!(lower(&underflow, true).unwrap_err().contains("underflows"));
        // Two frame constants past the four locals, and a peak of one.
        let joined = chunk(
            vec![Op::True, Op::JumpIfFalsePeek(2), Op::False, Op::Return],
            vec![],
        );
        assert_eq!(lowered(&joined, true).frame_len, 4 + 2 + 1);
    }

    #[test]
    fn fused_forms_stay_small() {
        // The element address carries a constant and five slots.
        assert!(std::mem::size_of::<Mop>() <= 32);
    }

    #[test]
    fn walk_follows_the_bool_tail() {
        // The plain ops' own jumps decide the path: seven ops and three
        // branches when the comparison holds, six and an exit to the
        // target when it does not.
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
                vec![Op::Undef, Op::Return],
            ]
            .concat(),
            consts: vec![Const::Num(1.0), Const::Num(0.0)],
            nlocals: 1,
            ..Default::default()
        };
        let mut branches = 0;
        let taken = walk(&chunk, 2, 6, true, |_, op| {
            branches += usize::from(op.class() == OpClass::Branch)
        });
        assert_eq!(taken, Ok((5, 8)));
        assert_eq!(branches, 3);
        assert_eq!(walk(&chunk, 2, 6, false, |_, _| {}), Ok((4, 107)));
        // Lowered: no jump from outside the span lands in it, so no path
        // reaches the plain copies of its ops and none is kept; each path
        // enters what its plain ops enter.
        let l = lowered(&chunk, true);
        assert_eq!(
            l.code,
            [Mop::CmpBrSpan(CmpKind::Lt, 0, 1, 0), Mop::Return(3)]
        );
        let [if_false, if_true] = l.spans[0];
        assert_eq!((if_true.exit, if_true.entered()), (1, &[1, 3, 4][..]));
        assert_eq!((if_false.exit, if_false.entered()), (NO_PC, &[2, 3][..]));
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
            let l = lowered(chunk, true);
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
                let pc = l.pos[at] as usize;
                let width = form_at(chunk, &heads, pc).expect("a form").1;
                let span = l.spans[f.span().unwrap()];
                for (cond, path) in [false, true].into_iter().zip(&span) {
                    let mut passed = Vec::new();
                    let (_, exit) = walk(chunk, pc, width, cond, |p, _| {
                        if p != pc && head(p) {
                            passed.push(l.regions.region_at(p) as u32);
                        }
                    })
                    .unwrap();
                    fused_crossings += passed.len();
                    if head(exit) {
                        passed.push(l.regions.region_at(exit) as u32);
                    }
                    let lands = (0..l.code.len()).find(|&i| l.pos[i] as usize >= exit);
                    assert_eq!(Some(path.exit as usize), lands, "{}: {pc}", chunk.name);
                    assert_eq!(passed, path.entered(), "{}: {pc}", chunk.name);
                }
            }
        }
        assert!(fused_crossings > 0, "the bool tails enter regions");
    }

    #[test]
    fn unwalkable_spans_are_not_fused() {
        // `Lt; JumpIfFalse -1` jumps back inside its own span: the walk
        // refuses it (and its heights cannot agree, so it never loads).
        let back_inside = chunk(
            vec![Op::True, Op::True, Op::Lt, Op::JumpIfFalse(-1)],
            vec![],
        );
        assert!(walk(&back_inside, 2, 2, false, |_, _| {}).is_err());
        assert!(lower(&back_inside, true).is_err());
        // A back-edge notes hotness; a branch on a value the span did not
        // push has no known outcome.
        let back_edge = chunk(vec![Op::LoadLocal(0), Op::Jump(-1)], vec![]);
        assert!(walk(&back_edge, 0, 2, true, |_, _| {}).is_err());
        let unknown = chunk(vec![Op::LoadLocal(0), Op::JumpIfFalse(5)], vec![]);
        assert!(walk(&unknown, 0, 2, true, |_, _| {}).is_err());
    }
}
