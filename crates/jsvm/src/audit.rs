//! Static cost-equivalence audit of the MiniJS fusion overlay.
//!
//! Mirror of `wb_wasm_vm::audit` for the JS engine: every fused form in
//! [`fuse`](crate::fuse) is symbolically expanded for every operator it
//! can carry (all 11 [`BinKind`]s, pairs of them for the two-operator
//! forms, all 8 [`CmpKind`]s, every inline-cache shape) and its charge
//! plan — op-class bumps, Table 12 arithmetic bumps, typed-array-aware
//! index counts — is compared event-for-event against the plain
//! interpreter's walk over the constituent opcodes. A form that branches
//! is audited once per outcome of its comparison: the walk follows the
//! plain ops' jumps, so the charges *and* the pc the fused form leaves to
//! must agree on both paths (the bool tail charges seven constituents
//! when its comparison holds and six when it does not).
//!
//! Two structural facts make the remaining behavior trivially equivalent
//! and are therefore *documented* rather than audited per instance:
//!
//! * fused guards run **before** any charge, so an IC miss or non-`Num`
//!   operand falls back with the virtual-cost state untouched and the
//!   plain loop replays the reference path exactly;
//! * fused fast paths never allocate, never resize heap objects and never
//!   note hotness, so GC safe-points and tier transitions coincide with
//!   the reference at every op boundary. The one permitted divergence is
//!   step-budget batching per group (checked as a total here).
//!
//! Index counts are compared as symbolic `index(load|store)` events,
//! and their routing is audited per receiver: the fused
//! `count_cached_index` and the reference `count_index_op` both count
//! through `index_route`, which sends a typed-array access to
//! `typed_band_counts[band]` and any other to `band_counts[band]` — on
//! typedness alone, in whichever band the chunk is in; the pricing fold
//! decides the tier. For every receiver typedness a fused form admits,
//! the audit checks that the `typed` bit its arm passes (the IC's, which
//! equals what the reference recomputes from the receiver, or a constant
//! where the IC guard admits typed receivers only) routes to the counter
//! the reference routes that receiver to.

use crate::bytecode::{Chunk, Const, Op};
use crate::fuse::{match_at, BinKind, CmpKind, FOp};
use crate::vm::index_route;
use wb_env::{ArithKind, OpClass};

/// One audited (family, operator) instance.
#[derive(Debug, Clone)]
pub struct FusionAuditEntry {
    /// Fused family name (e.g. `"LLBinStore"`).
    pub family: &'static str,
    /// Instance label (family plus the carried operators, and the
    /// comparison's outcome for a form that branches).
    pub instance: String,
    /// Source opcodes the fused form covers.
    pub constituents: Vec<String>,
    /// The fused form's charge plan, one event per line.
    pub fused_charges: Vec<String>,
    /// The plain interpreter's charge plan along the same path.
    pub reference_charges: Vec<String>,
    /// Whether the plans and exits agree (and the overlay round-trips).
    pub ok: bool,
    /// Human-readable reason when `ok` is false.
    pub detail: Option<String>,
}

/// A single observable cost event; `Step` totals are compared separately
/// (budget batching is the documented divergence).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Ev {
    /// One `band_counts[band].bump(class, 1)`.
    Class(OpClass),
    /// One Table 12 arithmetic-profile bump.
    Arith(ArithKind),
    /// One typed-array-aware index count (`count_index_op` /
    /// `count_cached_index`, both through `index_route`).
    Index {
        /// Whether it counts as a store.
        store: bool,
    },
}

impl Ev {
    fn render(&self) -> String {
        match self {
            Ev::Class(c) => format!("class:{c:?}"),
            Ev::Arith(kind) => format!("arith:{kind:?}"),
            Ev::Index { store: false } => "index:load".into(),
            Ev::Index { store: true } => "index:store".into(),
        }
    }
}

/// What the plain loop charges for one op, in its order: the class bump
/// (index ops count inside their handler instead), then the Table 12
/// bump.
fn op_events(op: &Op, evs: &mut Vec<Ev>) {
    match op {
        Op::GetIndex => evs.push(Ev::Index { store: false }),
        Op::SetIndex => evs.push(Ev::Index { store: true }),
        other => {
            evs.push(Ev::Class(other.class()));
            if let Some(kind) = other.arith() {
                evs.push(Ev::Arith(kind));
            }
        }
    }
}

/// The plain interpreter's walk over `chunk` from pc 0, with every
/// comparison evaluating to `cond`: its steps, its charge events and the
/// pc it leaves the chunk at. Branches are followed on the truthiness
/// of the value they pop, which the walk knows when a comparison or a
/// numeric constant pushed it.
fn reference_walk(chunk: &Chunk, cond: bool) -> Result<(u64, Vec<Ev>, usize), String> {
    let code = &chunk.code;
    let (mut pc, mut steps, mut evs) = (0usize, 0u64, Vec::new());
    // Truthiness of the value on top of the stack, where known.
    let mut top: Option<bool> = None;
    while pc < code.len() {
        let op = &code[pc];
        steps += 1;
        op_events(op, &mut evs);
        let mut next = pc + 1;
        match op {
            Op::Const(ci) => {
                top = match chunk.consts.get(*ci as usize) {
                    Some(Const::Num(n)) => Some(*n != 0.0 && !n.is_nan()),
                    _ => None,
                }
            }
            op if CmpKind::of(op).is_some() => top = Some(cond),
            // A fused form never notes hotness, so never holds a
            // back-edge.
            Op::Jump(d) if *d < 0 => return Err(format!("back-edge at constituent {pc}")),
            Op::Jump(d) => next = (pc as i32 + d) as usize,
            Op::JumpIfFalse(d) => {
                let Some(truthy) = top.take() else {
                    return Err(format!("branch on an unknown value at constituent {pc}"));
                };
                if !truthy {
                    next = (pc as i32 + d) as usize;
                }
            }
            _ => top = None,
        }
        pc = next;
    }
    Ok((steps, evs, pc))
}

/// The fused path's charge plan for `fop` at pc 0 when its comparison
/// (if any) gives `cond`: steps, events and the pc it continues at.
/// Transcribes the `exec_fused` arms in `vm.rs` event-for-event.
/// Wildcard-free: a new `FOp` variant fails to compile until the audit
/// covers it.
fn fused_plan(fop: &FOp, cond: bool) -> (u64, Vec<Ev>, usize) {
    use OpClass::{Branch, Compare, Const as ConstClass, Global, Local, Other};
    let mut evs = Vec::new();
    let bin = |evs: &mut Vec<Ev>, op: BinKind| {
        evs.push(Ev::Class(op.class()));
        if let Some(kind) = op.arith() {
            evs.push(Ev::Arith(kind));
        }
    };
    let classes = |evs: &mut Vec<Ev>, cs: &[OpClass]| evs.extend(cs.iter().map(|c| Ev::Class(*c)));
    let width = fop.width();
    let branch = |target: u32| if cond { width } else { target as usize };
    let (steps, next) = match *fop {
        FOp::LLBin { op, .. } => {
            classes(&mut evs, &[Local, Local]);
            bin(&mut evs, op);
            (3, width)
        }
        FOp::LLBinStore { op, .. } => {
            classes(&mut evs, &[Local, Local]);
            bin(&mut evs, op);
            classes(&mut evs, &[Local]);
            (4, width)
        }
        FOp::LCBin { op, .. } => {
            classes(&mut evs, &[Local, ConstClass]);
            bin(&mut evs, op);
            (3, width)
        }
        FOp::LCBinStore { op, .. } => {
            classes(&mut evs, &[Local, ConstClass]);
            bin(&mut evs, op);
            classes(&mut evs, &[Local]);
            (4, width)
        }
        FOp::LCBin2Store { op1, op2, .. } => {
            classes(&mut evs, &[Local, ConstClass]);
            bin(&mut evs, op1);
            classes(&mut evs, &[ConstClass]);
            bin(&mut evs, op2);
            classes(&mut evs, &[Local]);
            (6, width)
        }
        FOp::CStore { .. } => {
            classes(&mut evs, &[ConstClass, Local]);
            (2, width)
        }
        FOp::CmpJf { target, .. } => {
            classes(&mut evs, &[Compare, Branch]);
            (2, branch(target))
        }
        FOp::LLCmpJf { target, tail, .. } | FOp::LCCmpJf { target, tail, .. } => {
            let second = if matches!(fop, FOp::LLCmpJf { .. }) {
                Local
            } else {
                ConstClass
            };
            classes(&mut evs, &[Local, second, Compare, Branch]);
            let steps = match (tail, cond) {
                (false, _) => 4,
                (true, true) => {
                    classes(&mut evs, &[ConstClass, Branch, Branch]);
                    7
                }
                (true, false) => {
                    classes(&mut evs, &[ConstClass, Branch]);
                    6
                }
            };
            (steps, branch(target))
        }
        FOp::GAddr { op1, op2, ic, .. } => {
            classes(&mut evs, &[Global, Local, ConstClass]);
            bin(&mut evs, op1);
            classes(&mut evs, &[Local]);
            bin(&mut evs, op2);
            if ic.is_some() {
                evs.push(Ev::Index { store: false });
            }
            (width as u64, width)
        }
        FOp::LLGetIndex { .. } => {
            classes(&mut evs, &[Local, Local]);
            evs.push(Ev::Index { store: false });
            (3, width)
        }
        FOp::GetIndexIc { .. } => {
            evs.push(Ev::Index { store: false });
            (1, width)
        }
        FOp::SetIndexIc { pop, .. } => {
            evs.push(Ev::Index { store: true });
            if pop {
                classes(&mut evs, &[Other]);
            }
            (1 + pop as u64, width)
        }
    };
    (steps, evs, next)
}

/// The `typed` bit `fop`'s arm passes to `count_cached_index` for a
/// receiver of typedness `typed`, or `None` when the form's guard falls
/// back for such a receiver. Transcribes the `exec_fused` arms:
/// `SetIndexIc` fast-paths typed arrays only and passes `true`; every
/// other index form passes the IC's bit, which is the receiver's.
fn fused_typed_bit(fop: &FOp, typed: bool) -> Option<bool> {
    match fop {
        FOp::SetIndexIc { .. } => typed.then_some(true),
        _ => Some(typed),
    }
}

/// Check that each index event of `fop`'s plan lands, for every receiver
/// the form admits, in the counter the reference lands it in.
fn index_routing(fop: &FOp, evs: &[Ev]) -> Result<(), String> {
    for ev in evs {
        let Ev::Index { store } = *ev else { continue };
        for typed in [false, true] {
            let Some(bit) = fused_typed_bit(fop, typed) else {
                continue;
            };
            let (fused, reference) = (index_route(bit, store), index_route(typed, store));
            if fused != reference {
                return Err(format!(
                    "typed={typed} receiver counts in {fused:?}, reference in {reference:?}"
                ));
            }
        }
    }
    Ok(())
}

/// Family name of a fused form (wildcard-free on purpose).
fn family_of(fop: &FOp) -> &'static str {
    match fop {
        FOp::LLBin { .. } => "LLBin",
        FOp::LLBinStore { .. } => "LLBinStore",
        FOp::LCBin { .. } => "LCBin",
        FOp::LCBinStore { .. } => "LCBinStore",
        FOp::LCBin2Store { .. } => "LCBin2Store",
        FOp::CStore { .. } => "CStore",
        FOp::CmpJf { .. } => "CmpJf",
        FOp::LLCmpJf { tail: false, .. } => "LLCmpJf",
        FOp::LLCmpJf { tail: true, .. } => "LLCmpJfTail",
        FOp::LCCmpJf { tail: false, .. } => "LCCmpJf",
        FOp::LCCmpJf { tail: true, .. } => "LCCmpJfTail",
        FOp::GAddr { ic: None, .. } => "GAddr",
        FOp::GAddr { ic: Some(_), .. } => "GAddrIc",
        FOp::LLGetIndex { .. } => "LLGetIndex",
        FOp::GetIndexIc { .. } => "GetIndexIc",
        FOp::SetIndexIc { pop: false, .. } => "SetIndexIc",
        FOp::SetIndexIc { pop: true, .. } => "SetIndexPopIc",
    }
}

/// Every (family, constituent-sequence) instance the overlay builder can
/// produce. Constant 0 is the number 1 and constant 1 the number 0 (the
/// bool tail needs one truthy and one falsy); jump offsets leave the
/// group, so a taken branch is told apart from falling through. Charge
/// plans do not depend on the values.
fn enumerate_instances() -> Vec<(&'static str, String, Vec<Op>)> {
    let mut out = Vec::new();
    let ll = |i| Op::LoadLocal(i);
    let (one, zero) = (Op::Const(0), Op::Const(1));
    let out_jf = Op::JumpIfFalse(100);
    let tail = || {
        [
            Op::JumpIfFalse(3),
            one.clone(),
            Op::Jump(2),
            zero.clone(),
            out_jf.clone(),
        ]
    };
    for bin in BinKind::ALL {
        let b = bin.op();
        let label = format!("{bin:?}");
        out.push(("LLBin", label.clone(), vec![ll(0), ll(1), b.clone()]));
        out.push((
            "LLBinStore",
            label.clone(),
            vec![ll(0), ll(1), b.clone(), Op::StoreLocal(2)],
        ));
        out.push(("LCBin", label.clone(), vec![ll(0), one.clone(), b.clone()]));
        out.push((
            "LCBinStore",
            label,
            vec![ll(0), one.clone(), b.clone(), Op::StoreLocal(2)],
        ));
        for bin2 in BinKind::ALL {
            let b2 = bin2.op();
            let label = format!("{bin:?}, {bin2:?}");
            out.push((
                "LCBin2Store",
                label.clone(),
                vec![
                    ll(0),
                    one.clone(),
                    b.clone(),
                    zero.clone(),
                    b2.clone(),
                    Op::StoreLocal(2),
                ],
            ));
            let addr = vec![Op::LoadGlobal(0), ll(0), one.clone(), b.clone(), ll(1), b2];
            out.push(("GAddr", label.clone(), addr.clone()));
            out.push(("GAddrIc", label, [addr, vec![Op::GetIndex]].concat()));
        }
    }
    for cmp in CmpKind::ALL {
        let c = cmp.op();
        let label = format!("{cmp:?}");
        out.push(("CmpJf", label.clone(), vec![c.clone(), out_jf.clone()]));
        out.push((
            "LLCmpJf",
            label.clone(),
            vec![ll(0), ll(1), c.clone(), out_jf.clone()],
        ));
        out.push((
            "LCCmpJf",
            label.clone(),
            vec![ll(0), one.clone(), c.clone(), out_jf.clone()],
        ));
        out.push((
            "LLCmpJfTail",
            label.clone(),
            [vec![ll(0), ll(1), c.clone()], tail().to_vec()].concat(),
        ));
        out.push((
            "LCCmpJfTail",
            label,
            [vec![ll(0), one.clone(), c], tail().to_vec()].concat(),
        ));
    }
    out.push(("CStore", "Num".into(), vec![one, Op::StoreLocal(2)]));
    out.push(("LLGetIndex", "ic".into(), vec![ll(0), ll(1), Op::GetIndex]));
    out.push(("GetIndexIc", "ic".into(), vec![Op::GetIndex]));
    out.push(("SetIndexIc", "ic".into(), vec![Op::SetIndex]));
    out.push(("SetIndexPopIc", "ic".into(), vec![Op::SetIndex, Op::Pop]));
    out
}

/// Audit every fused form the MiniJS overlay can emit. An entry is `ok`
/// when the overlay builder recognizes the constituents as the expected
/// family at the full width, and the fused charge plan and exit equal
/// the plain interpreter's walk event-for-event. Forms with a branch get
/// one entry per outcome of their comparison.
pub fn audit_fusion_table() -> Vec<FusionAuditEntry> {
    let mut entries = Vec::new();
    for (family, label, ops) in enumerate_instances() {
        let chunk = Chunk {
            code: ops.clone(),
            consts: vec![Const::Num(1.0), Const::Num(0.0)],
            ..Default::default()
        };
        let branches = ops.iter().any(|op| matches!(op, Op::JumpIfFalse(_)));
        let paths: &[bool] = if branches { &[true, false] } else { &[true] };
        for &cond in paths {
            let mut detail = None;
            let mut fused_rendered = Vec::new();
            let mut reference_rendered = Vec::new();
            match (match_at(&chunk, 0, &mut 0), reference_walk(&chunk, cond)) {
                (_, Err(e)) => detail = Some(format!("reference walk: {e}")),
                (Some(fop), Ok((ref_steps, ref_evs, ref_exit)))
                    if fop.width() == ops.len() && family_of(&fop) == family =>
                {
                    let (steps, evs, exit) = fused_plan(&fop, cond);
                    fused_rendered = evs.iter().map(Ev::render).collect();
                    reference_rendered = ref_evs.iter().map(Ev::render).collect();
                    if steps != ref_steps {
                        detail = Some(format!("step total {steps} != reference {ref_steps}"));
                    } else if evs != ref_evs {
                        detail = Some("charge plans differ".into());
                    } else if exit != ref_exit {
                        detail = Some(format!("continues at {exit}, reference at {ref_exit}"));
                    } else if let Err(e) = index_routing(&fop, &evs) {
                        detail = Some(e);
                    }
                }
                (Some(fop), Ok(_)) => {
                    detail = Some(format!(
                        "overlay mismatch: got {} at width {}, expected {family} at width {}",
                        family_of(&fop),
                        fop.width(),
                        ops.len()
                    ));
                }
                (None, Ok(_)) => detail = Some("constituents did not fuse".into()),
            }
            let instance = if branches {
                format!("{family}[{label}, {cond}]")
            } else {
                format!("{family}[{label}]")
            };
            entries.push(FusionAuditEntry {
                family,
                instance,
                constituents: ops.iter().map(|o| format!("{o:?}")).collect(),
                fused_charges: fused_rendered,
                reference_charges: reference_rendered,
                ok: detail.is_none(),
                detail,
            });
        }
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_instance_is_cost_equivalent() {
        let entries = audit_fusion_table();
        let bad: Vec<_> = entries.iter().filter(|e| !e.ok).collect();
        assert!(
            bad.is_empty(),
            "{} non-equivalent instances, first: {:?}",
            bad.len(),
            bad.first()
        );
    }

    #[test]
    fn covers_every_family_and_operator() {
        let entries = audit_fusion_table();
        let (bins, cmps) = (BinKind::ALL.len(), CmpKind::ALL.len());
        // 11 bins × 4 one-operator families, 11 × 11 operator pairs ×
        // 3 two-operator families, 8 cmps × 5 branching families × 2
        // outcomes, CStore, LLGetIndex, GetIndexIc, SetIndexIc ± pop.
        let expected = bins * 4 + bins * bins * 3 + cmps * 5 * 2 + 1 + 4;
        assert_eq!(entries.len(), expected);
        assert_eq!(expected, 492);
        let families: std::collections::BTreeSet<_> = entries.iter().map(|e| e.family).collect();
        assert_eq!(
            families.into_iter().collect::<Vec<_>>(),
            vec![
                "CStore",
                "CmpJf",
                "GAddr",
                "GAddrIc",
                "GetIndexIc",
                "LCBin",
                "LCBin2Store",
                "LCBinStore",
                "LCCmpJf",
                "LCCmpJfTail",
                "LLBin",
                "LLBinStore",
                "LLCmpJf",
                "LLCmpJfTail",
                "LLGetIndex",
                "SetIndexIc",
                "SetIndexPopIc"
            ]
        );
    }

    #[test]
    fn index_routing_splits_on_typedness_alone() {
        use crate::vm::IndexCounter::{Plain, Typed};
        assert_eq!(index_route(false, false), (Plain, OpClass::Load));
        assert_eq!(index_route(true, false), (Typed, OpClass::Load));
        assert_eq!(index_route(false, true), (Plain, OpClass::Store));
        assert_eq!(index_route(true, true), (Typed, OpClass::Store));
        // A set form whose guard admitted plain arrays while passing a
        // constant `typed` bit would count them in the wrong set.
        let set = FOp::SetIndexIc { ic: 0, pop: false };
        assert!(index_routing(&set, &[Ev::Index { store: true }]).is_ok());
        assert_eq!(fused_typed_bit(&set, false), None);
    }

    #[test]
    fn arith_follows_reference_table() {
        let entries = audit_fusion_table();
        let div = entries
            .iter()
            .find(|e| e.instance == "LLBinStore[Div]")
            .unwrap();
        assert_eq!(
            div.fused_charges,
            vec![
                "class:Local",
                "class:Local",
                "class:FloatDiv",
                "arith:Div",
                "class:Local"
            ]
        );
        assert_eq!(div.fused_charges, div.reference_charges);
    }

    #[test]
    fn bool_tail_charges_depend_on_the_path() {
        let entries = audit_fusion_table();
        let plan = |name: &str| {
            let e = entries.iter().find(|e| e.instance == name).unwrap();
            assert!(e.ok, "{e:?}");
            e.fused_charges.clone()
        };
        let taken = plan("LCCmpJfTail[Lt, true]");
        let not_taken = plan("LCCmpJfTail[Lt, false]");
        assert_eq!(taken.len(), 7);
        assert_eq!(not_taken.len(), 6);
        assert_eq!(taken[..5], not_taken[..5]);
    }

    #[test]
    fn walk_follows_the_bool_tail() {
        // The plain ops' own jumps decide the reference path: seven
        // constituents and three branches when the comparison holds, six
        // and an exit to the target when it does not.
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
        let (steps, evs, exit) = reference_walk(&chunk, true).unwrap();
        assert_eq!((steps, exit), (7, 8));
        let branches = evs
            .iter()
            .filter(|e| **e == Ev::Class(OpClass::Branch))
            .count();
        assert_eq!(branches, 3);
        let (steps, _, exit) = reference_walk(&chunk, false).unwrap();
        assert_eq!((steps, exit), (6, 107));
    }
}
