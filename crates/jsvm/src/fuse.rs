//! Peephole fusion over MiniJS bytecode, plus inline-cache site
//! assignment.
//!
//! After compilation, each chunk gets a fused **overlay**: a
//! `Vec<Option<FOp>>` the same length as the code, with `Some(fop)` at
//! every pc where a multi-op pattern (or an index op worth an inline
//! cache) begins. The original bytecode is untouched — the interpreter
//! consults the overlay at each pc and either executes the fused form
//! (skipping `width` source ops) or falls back to the plain op.
//!
//! That overlay shape buys two correctness properties for free:
//!
//! * **Jump targets need no analysis.** A jump landing in the middle of
//!   a fused group simply resumes plain execution there — the overlay is
//!   `None` at non-head pcs and the underlying ops are unchanged.
//! * **Guarded fallback is exact.** When a fused handler's fast-path
//!   guard fails (an operand is a heap reference, an inline cache
//!   misses), it falls through to the plain op at the same pc *before
//!   charging anything*, so the virtual-cost trace is identical to the
//!   reference interpreter's.
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
//! * `GetIndex` caches plain and typed arrays but never strings
//!   (string indexing allocates a fresh one-char string).
//!
//! Three families target the idioms the MiniC JS backend emits in every
//! loop: the element address `A[(i) * 64 + j]` ([`FOp::GAddr`]), the
//! coerced store `i = (((i) + (1)) | 0)` ([`FOp::LCBin2Store`]) and the
//! materialized loop test `for (; ((i) < (64) ? 1 : 0); …)` (the `tail`
//! of [`FOp::LCCmpJf`] and [`FOp::LLCmpJf`]).

use crate::bytecode::{Chunk, Const, Op, Program};
use wb_env::{ArithKind, OpClass};

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
    /// [`BinKind::of`]). Its charges come from that op's tables.
    #[inline]
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

    /// Cost-model class: [`Op::class`] of the source op.
    #[inline]
    pub(crate) fn class(self) -> OpClass {
        self.op().class()
    }

    /// Table 12 column: [`Op::arith`] of the source op.
    #[inline]
    pub(crate) fn arith(self) -> Option<ArithKind> {
        self.op().arith()
    }

    /// Number-operands fast path. Exactly the reference semantics when
    /// both operands are already `Value::Num` (`to_num` is then the
    /// identity and `Add` cannot concatenate).
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

/// A fused micro-op (overlay entry). Field names: `a`/`b` are local
/// slots, `c` a numeric constant, `dst` a local slot written, `g` a
/// global's name index, `target` an absolute pc, `ic` an inline-cache
/// site index.
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
    CmpJf { op: CmpKind, target: u32 },
    /// `LoadLocal a; LoadLocal b; <cmp>; JumpIfFalse`, or with `tail`
    /// `LoadLocal a; LoadLocal b; <cmp>` and a bool tail (`bool_tail`).
    LLCmpJf {
        a: u16,
        b: u16,
        op: CmpKind,
        target: u32,
        tail: bool,
    },
    /// `LoadLocal a; Const c; <cmp>; JumpIfFalse`, or with `tail`
    /// `LoadLocal a; Const c; <cmp>` and a bool tail (`bool_tail`).
    LCCmpJf {
        a: u16,
        c: f64,
        op: CmpKind,
        target: u32,
        tail: bool,
    },
    /// `LoadGlobal g; LoadLocal a; Const c; <op1>; LoadLocal b; <op2>`:
    /// the element address `A[(a) * c + b]`, pushing the global and the
    /// index. With `ic`, also the `GetIndex` after it, through that
    /// inline cache, pushing the element instead.
    GAddr {
        g: u32,
        a: u16,
        c: f64,
        op1: BinKind,
        b: u16,
        op2: BinKind,
        ic: Option<u32>,
    },
    /// `LoadLocal obj; LoadLocal idx; GetIndex`, with an inline cache.
    LLGetIndex { obj: u16, idx: u16, ic: u32 },
    /// A lone `GetIndex` with an inline cache.
    GetIndexIc { ic: u32 },
    /// `SetIndex` (+ `Pop` when `pop`), with an inline cache.
    SetIndexIc { ic: u32, pop: bool },
}

impl FOp {
    /// Source ops this entry covers (pc advance on the fused path, unless
    /// it branches).
    pub(crate) fn width(&self) -> usize {
        match self {
            FOp::LLCmpJf { tail, .. } | FOp::LCCmpJf { tail, .. } => 4 + 4 * *tail as usize,
            FOp::GAddr { ic, .. } => 6 + ic.is_some() as usize,
            FOp::LCBin2Store { .. } => 6,
            FOp::LLBinStore { .. } | FOp::LCBinStore { .. } => 4,
            FOp::LLBin { .. } | FOp::LCBin { .. } | FOp::LLGetIndex { .. } => 3,
            FOp::CStore { .. } | FOp::CmpJf { .. } => 2,
            FOp::SetIndexIc { pop, .. } => 1 + *pop as usize,
            FOp::GetIndexIc { .. } => 1,
        }
    }
}

/// What a monomorphic inline cache remembers about its last receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum IcKind {
    /// Empty cache (initial state, never matches).
    #[default]
    None,
    /// Plain JS array.
    Arr,
    /// `Float64Array`.
    F64,
    /// `Int32Array`.
    I32,
    /// `Uint8Array`.
    U8,
}

impl IcKind {
    /// Whether the receiver counts as a typed array for the cost model
    /// (must agree with the VM's `count_index_op`).
    pub(crate) fn is_typed(self) -> bool {
        matches!(self, IcKind::F64 | IcKind::I32 | IcKind::U8)
    }
}

/// One monomorphic inline-cache entry: valid while the heap generation
/// is unchanged (no GC since caching) and the receiver is `obj`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IcEntry {
    /// Heap generation at cache-fill time.
    pub generation: u64,
    /// Cached receiver reference.
    pub obj: u32,
    /// Cached receiver shape.
    pub kind: IcKind,
}

/// The fused overlay for one chunk.
#[derive(Debug, Default)]
pub(crate) struct FusedChunk {
    /// `Some(fop)` at each pattern head; `None` elsewhere.
    pub ops: Vec<Option<FOp>>,
}

/// Build overlays for every chunk. Returns the per-chunk overlays and
/// the total number of inline-cache sites assigned (indices are global
/// across chunks).
pub(crate) fn build_overlays(program: &Program) -> (Vec<FusedChunk>, u32) {
    let mut next_ic = 0u32;
    let overlays = program
        .chunks
        .iter()
        .map(|c| build_overlay(c, &mut next_ic))
        .collect();
    (overlays, next_ic)
}

fn build_overlay(chunk: &Chunk, next_ic: &mut u32) -> FusedChunk {
    let code = &chunk.code;
    let mut ops: Vec<Option<FOp>> = vec![None; code.len()];
    let mut pc = 0;
    while pc < code.len() {
        match match_at(chunk, pc, next_ic) {
            Some(fop) => {
                let w = fop.width();
                ops[pc] = Some(fop);
                pc += w;
            }
            None => pc += 1,
        }
    }
    FusedChunk { ops }
}

/// Numeric constant at `ci`, if it is one.
fn num_const(chunk: &Chunk, ci: u32) -> Option<f64> {
    match chunk.consts.get(ci as usize) {
        Some(Const::Num(n)) => Some(*n),
        _ => None,
    }
}

fn alloc_ic(next_ic: &mut u32) -> u32 {
    let ic = *next_ic;
    *next_ic += 1;
    ic
}

/// The bool tail at `pc`, the branch on a comparison materialized as a
/// number, `(<cmp> ? 1 : 0)` under an `if` or loop test:
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
/// Returns that target.
fn bool_tail(chunk: &Chunk, pc: usize) -> Option<u32> {
    let truthy = |ci: &u32| num_const(chunk, *ci).map(|n| n != 0.0 && !n.is_nan());
    match chunk.code.get(pc..pc + 5)? {
        [Op::JumpIfFalse(3), Op::Const(t), Op::Jump(2), Op::Const(f), Op::JumpIfFalse(d)]
            if truthy(t) == Some(true) && truthy(f) == Some(false) =>
        {
            Some((pc as i32 + 4 + d) as u32)
        }
        _ => None,
    }
}

/// A comparison's branch at `pc`: the bool tail when one is there, else
/// a plain `JumpIfFalse`. Returns `(target, tail)`.
fn cmp_branch(chunk: &Chunk, pc: usize) -> Option<(u32, bool)> {
    if let Some(target) = bool_tail(chunk, pc) {
        return Some((target, true));
    }
    match chunk.code.get(pc) {
        Some(Op::JumpIfFalse(d)) => Some(((pc as i32 + d) as u32, false)),
        _ => None,
    }
}

/// Greedy longest-pattern match at `pc`.
pub(crate) fn match_at(chunk: &Chunk, pc: usize, next_ic: &mut u32) -> Option<FOp> {
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
                let ic = matches!(at(6), Some(Op::GetIndex)).then(|| alloc_ic(next_ic));
                return Some(FOp::GAddr {
                    g: *g,
                    a: *a,
                    c,
                    op1,
                    b: *b,
                    op2,
                    ic,
                });
            }
        }
    }
    if let Some(Op::LoadLocal(a)) = at(0) {
        // LoadLocal; LoadLocal; ...
        if let Some(Op::LoadLocal(b)) = at(1) {
            if let Some(op2) = at(2) {
                if let Some(cmp) = CmpKind::of(op2) {
                    if let Some((target, tail)) = cmp_branch(chunk, pc + 3) {
                        return Some(FOp::LLCmpJf {
                            a: *a,
                            b: *b,
                            op: cmp,
                            target,
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
                    return Some(FOp::LLGetIndex {
                        obj: *a,
                        idx: *b,
                        ic: alloc_ic(next_ic),
                    });
                }
            }
        }
        // LoadLocal; Const(num); ...
        if let Some(Op::Const(ci)) = at(1) {
            if let Some(c) = num_const(chunk, *ci) {
                if let Some(op2) = at(2) {
                    if let Some(cmp) = CmpKind::of(op2) {
                        if let Some((target, tail)) = cmp_branch(chunk, pc + 3) {
                            return Some(FOp::LCCmpJf {
                                a: *a,
                                c,
                                op: cmp,
                                target,
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
            if let Some(Op::JumpIfFalse(d)) = at(1) {
                let target = (pc as i32 + 1 + d) as u32;
                return Some(FOp::CmpJf { op: cmp, target });
            }
        }
    }
    if matches!(at(0), Some(Op::GetIndex)) {
        return Some(FOp::GetIndexIc {
            ic: alloc_ic(next_ic),
        });
    }
    if matches!(at(0), Some(Op::SetIndex)) {
        let pop = matches!(at(1), Some(Op::Pop));
        return Some(FOp::SetIndexIc {
            ic: alloc_ic(next_ic),
            pop,
        });
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
        let mut ic = 0;
        let o = build_overlay(&c, &mut ic);
        assert_eq!(
            o.ops[0],
            Some(FOp::LCBinStore {
                a: 0,
                c: 1.0,
                op: BinKind::Add,
                dst: 0
            })
        );
        assert!(o.ops[1..].iter().all(|x| x.is_none()));
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
        let mut ic = 0;
        let o = build_overlay(&c, &mut ic);
        assert_eq!(
            o.ops[0],
            Some(FOp::LLCmpJf {
                a: 0,
                b: 1,
                op: CmpKind::Lt,
                // JumpIfFalse at pc 3, d=5 → absolute 8.
                target: 8,
                tail: false
            })
        );
    }

    #[test]
    fn fuses_index_ops_and_assigns_ic_sites() {
        let c = chunk(
            vec![
                Op::LoadLocal(0),
                Op::LoadLocal(1),
                Op::GetIndex, // site 0 (as LLGetIndex)
                Op::GetIndex, // site 1 (lone)
                Op::SetIndex, // site 2, with Pop
                Op::Pop,
            ],
            vec![],
        );
        let mut ic = 0;
        let o = build_overlay(&c, &mut ic);
        assert_eq!(
            o.ops[0],
            Some(FOp::LLGetIndex {
                obj: 0,
                idx: 1,
                ic: 0
            })
        );
        assert_eq!(o.ops[3], Some(FOp::GetIndexIc { ic: 1 }));
        assert_eq!(o.ops[4], Some(FOp::SetIndexIc { ic: 2, pop: true }));
        assert_eq!(ic, 3);
    }

    /// The fused forms of `name`'s chunk in a compiled script.
    fn fused_forms(src: &str, name: &str) -> Vec<FOp> {
        let program = crate::compile_script(src).expect("compiles");
        let (overlays, _) = build_overlays(&program);
        let idx = program.chunks.iter().position(|c| c.name == name).unwrap();
        overlays[idx].ops.iter().flatten().copied().collect()
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
        for ic in [true, false] {
            assert!(has(&|f| matches!(
                f,
                FOp::GAddr {
                    c: 4.0,
                    op1: BinKind::Mul,
                    op2: BinKind::Add,
                    ic: cache,
                    ..
                } if cache.is_some() == ic
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
        let (overlays, _) = build_overlays(&program);
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
            let found = overlays[idx]
                .ops
                .iter()
                .enumerate()
                .any(|(head, f)| f.is_some_and(|f| family(&f) && entered(head, f.width())));
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
        let mut ic = 0;
        let o = build_overlay(&c, &mut ic);
        assert!(o.ops.iter().all(|x| x.is_none()));
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
        let mut ic = 0;
        let o = build_overlay(&c, &mut ic);
        assert!(o.ops[0].is_some());
        assert!(o.ops[1].is_none());
        assert!(o.ops[2].is_none());
        assert!(o.ops[3].is_none());
        assert!(o.ops[4].is_some());
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
            (
                FOp::CmpJf {
                    op: CmpKind::Lt,
                    target: 0,
                },
                2,
            ),
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
                    target: 0,
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
                    ic: Some(0),
                },
                7,
            ),
            (FOp::GetIndexIc { ic: 0 }, 1),
            (FOp::SetIndexIc { ic: 0, pop: true }, 2),
            (FOp::SetIndexIc { ic: 0, pop: false }, 1),
        ] {
            assert_eq!(fop.width(), w, "{fop:?}");
        }
    }
}
