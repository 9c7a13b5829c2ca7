//! Static cost-equivalence audit of the fusion table.
//!
//! The engine's hard invariant — a fused micro-op charges the **exact
//! same virtual-cost sequence** as its unfused constituents — is enforced
//! dynamically by the fusion-on vs fusion-off differential tests. This
//! module turns it into a *statically exhaustive* check: every fused
//! family in [`fuse`](crate::fuse) is symbolically expanded, for **every**
//! operator instance it can carry (each entry of `BinOp::ALL`,
//! `UnOp::ALL`, `LoadKind::ALL` and `StoreKind::ALL`), and its charge plan
//! is compared event-for-event against the concatenation of the plans of
//! the constituents' singleton ops — the reference plans, which is what
//! the unfused (`reference_exec`) stream charges.
//!
//! The operators' own charges (class, Table 12 kind, trap point) come from
//! one table on both sides: the families read them from `classify.rs` at
//! compile time. What the audit checks is each family's *shape*: which
//! constituents it charges, in which order, around which trap point.
//!
//! A charge plan is the sequence of observable cost events:
//!
//! * one op-class bump per retired constituent (`band_counts[band]`,
//!   in the band the function is in when the group starts),
//! * the Table 12 arithmetic bump for arithmetic constituents,
//! * the position of any trap point relative to those bumps.
//!
//! Step-budget consumption is compared as a total (a fused arm
//! batches a group's steps up front — the one documented divergence; see
//! `exec.rs`). The audit also proves each family's constituents carry no
//! `TimeBucket` charge and no hotness note (those exist only on
//! `memory.grow`, calls and loop back-edges, none of which fuse), so no
//! band crossing falls inside a group and all of a group's bumps land in
//! the band its unfused constituents would bump, and
//! round-trips each instance through [`match_fused`] to confirm the
//! lowering actually produces the audited family at the audited width.

use crate::classify::{arith_kind, can_trap, classify, ArithKind};
use crate::fuse::{match_fused, BinOp, LoadKind, Mop, StoreKind, UnOp};
use wb_env::OpClass;
use wb_wasm::Instr;

/// One audited (family, operator) instance.
#[derive(Debug, Clone)]
pub struct FusionAuditEntry {
    /// Fused family name (e.g. `"LLBinSet"`).
    pub family: &'static str,
    /// Instance label (family plus the carried operator).
    pub instance: String,
    /// Source instructions the fused op retires.
    pub constituents: Vec<String>,
    /// The fused op's charge plan, one event per line.
    pub fused_charges: Vec<String>,
    /// The unfused constituents' concatenated charge plan.
    pub reference_charges: Vec<String>,
    /// Whether the plans agree (and the lowering round-trips).
    pub ok: bool,
    /// Human-readable reason when `ok` is false.
    pub detail: Option<String>,
}

/// A single observable cost event. `Step` totals are compared separately
/// because a fused arm batches a group's budget consumption.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Ev {
    /// One `band_counts[band].bump(class, 1)`.
    Class(OpClass),
    /// One Table 12 arithmetic bump.
    Arith(ArithKind),
    /// A point at which execution may trap.
    Trap,
}

impl Ev {
    fn render(&self) -> String {
        match self {
            Ev::Class(c) => format!("class:{c:?}"),
            Ev::Arith(k) => format!("arith:{k:?}"),
            Ev::Trap => "trap-point".into(),
        }
    }
}

/// The reference charge plan for a constituent sequence, as its singleton
/// ops charge it: per instruction, one step, its op-class bump, its
/// Table 12 bump, then its (potential) trap point — the order of the
/// singleton arms in `exec.rs`.
fn reference_plan(instrs: &[Instr]) -> (u64, Vec<Ev>) {
    let mut evs = Vec::new();
    for i in instrs {
        evs.push(Ev::Class(classify(i)));
        if let Some(k) = arith_kind(i) {
            evs.push(Ev::Arith(k));
        }
        if can_trap(i) {
            evs.push(Ev::Trap);
        }
    }
    (instrs.len() as u64, evs)
}

/// `bump_bin!` — a fused arm's binop charge: class, then Table 12.
fn bin_evs(op: BinOp, evs: &mut Vec<Ev>) {
    evs.push(Ev::Class(op.class()));
    if let Some(k) = op.arith() {
        evs.push(Ev::Arith(k));
    }
    if op.can_trap() {
        evs.push(Ev::Trap);
    }
}

/// The charge plan of one fused micro-op, transcribing the
/// `run_body` arms in `exec.rs` event-for-event. Singleton micro-ops
/// return `None` (they are the reference plan); the match is
/// deliberately wildcard-free so a new `Mop` variant fails to compile
/// until the audit covers it.
fn fused_plan(mop: &Mop) -> Option<(u64, Vec<Ev>)> {
    use Mop::*;
    let mut evs = Vec::new();
    let steps = match mop {
        // Singletons: one step, one bump — the reference plan itself,
        // nothing to audit.
        Unreachable
        | Nop
        | Block { .. }
        | Loop { .. }
        | If { .. }
        | Else
        | End
        | Br(_)
        | BrIf(_)
        | BrTable(..)
        | Return
        | Call(_)
        | CallIndirect(_)
        | Drop
        | Select
        | LocalGet(_)
        | LocalSet(_)
        | LocalTee(_)
        | GlobalGet(_)
        | GlobalSet { .. }
        | Load { .. }
        | Store { .. }
        | MemorySize
        | MemoryGrow
        | Const(_)
        | Un(_)
        | Bin(_) => return None,
        LLBin { op, .. } => {
            evs.push(Ev::Class(OpClass::Local));
            evs.push(Ev::Class(OpClass::Local));
            bin_evs(*op, &mut evs);
            3
        }
        LLBinSet { op, .. } => {
            evs.push(Ev::Class(OpClass::Local));
            evs.push(Ev::Class(OpClass::Local));
            bin_evs(*op, &mut evs);
            evs.push(Ev::Class(OpClass::Local));
            4
        }
        LCBin { op, .. } => {
            evs.push(Ev::Class(OpClass::Local));
            evs.push(Ev::Class(OpClass::Const));
            bin_evs(*op, &mut evs);
            3
        }
        LCBinSet { op, .. } => {
            evs.push(Ev::Class(OpClass::Local));
            evs.push(Ev::Class(OpClass::Const));
            bin_evs(*op, &mut evs);
            evs.push(Ev::Class(OpClass::Local));
            4
        }
        LBin { op, .. } => {
            evs.push(Ev::Class(OpClass::Local));
            bin_evs(*op, &mut evs);
            2
        }
        CBin { op, .. } => {
            evs.push(Ev::Class(OpClass::Const));
            bin_evs(*op, &mut evs);
            2
        }
        CBinSet { op, .. } => {
            evs.push(Ev::Class(OpClass::Const));
            bin_evs(*op, &mut evs);
            evs.push(Ev::Class(OpClass::Local));
            3
        }
        BinSet { op, .. } => {
            bin_evs(*op, &mut evs);
            evs.push(Ev::Class(OpClass::Local));
            2
        }
        LConst { .. } => {
            evs.push(Ev::Class(OpClass::Const));
            evs.push(Ev::Class(OpClass::Local));
            2
        }
        LocalCopy { .. } => {
            evs.push(Ev::Class(OpClass::Local));
            evs.push(Ev::Class(OpClass::Local));
            2
        }
        LLCmpBr { op, .. } => {
            evs.push(Ev::Class(OpClass::Local));
            evs.push(Ev::Class(OpClass::Local));
            bin_evs(*op, &mut evs);
            evs.push(Ev::Class(OpClass::Branch));
            4
        }
        LCCmpBr { op, .. } => {
            evs.push(Ev::Class(OpClass::Local));
            evs.push(Ev::Class(OpClass::Const));
            bin_evs(*op, &mut evs);
            evs.push(Ev::Class(OpClass::Branch));
            4
        }
        CmpBr { op, .. } => {
            bin_evs(*op, &mut evs);
            evs.push(Ev::Class(OpClass::Branch));
            2
        }
        LUnBr { un, .. } => {
            evs.push(Ev::Class(OpClass::Local));
            evs.push(Ev::Class(un.class()));
            if un.can_trap() {
                evs.push(Ev::Trap);
            }
            evs.push(Ev::Class(OpClass::Branch));
            3
        }
        UnBr { un, .. } => {
            evs.push(Ev::Class(un.class()));
            if un.can_trap() {
                evs.push(Ev::Trap);
            }
            evs.push(Ev::Class(OpClass::Branch));
            2
        }
        LLoad { .. } => {
            evs.push(Ev::Class(OpClass::Local));
            evs.push(Ev::Class(OpClass::Load));
            evs.push(Ev::Trap);
            2
        }
        LLStore { .. } => {
            evs.push(Ev::Class(OpClass::Local));
            evs.push(Ev::Class(OpClass::Local));
            evs.push(Ev::Class(OpClass::Store));
            evs.push(Ev::Trap);
            3
        }
    };
    Some((steps, evs))
}

/// Family name of a fused micro-op (wildcard-free on purpose).
fn family_of(mop: &Mop) -> &'static str {
    use Mop::*;
    match mop {
        Unreachable
        | Nop
        | Block { .. }
        | Loop { .. }
        | If { .. }
        | Else
        | End
        | Br(_)
        | BrIf(_)
        | BrTable(..)
        | Return
        | Call(_)
        | CallIndirect(_)
        | Drop
        | Select
        | LocalGet(_)
        | LocalSet(_)
        | LocalTee(_)
        | GlobalGet(_)
        | GlobalSet { .. }
        | Load { .. }
        | Store { .. }
        | MemorySize
        | MemoryGrow
        | Const(_)
        | Un(_)
        | Bin(_) => "singleton",
        LLBin { .. } => "LLBin",
        LLBinSet { .. } => "LLBinSet",
        LCBin { .. } => "LCBin",
        LCBinSet { .. } => "LCBinSet",
        LBin { .. } => "LBin",
        CBin { .. } => "CBin",
        CBinSet { .. } => "CBinSet",
        BinSet { .. } => "BinSet",
        LConst { .. } => "LConst",
        LocalCopy { .. } => "LocalCopy",
        LLCmpBr { .. } => "LLCmpBr",
        LCCmpBr { .. } => "LCCmpBr",
        CmpBr { .. } => "CmpBr",
        LUnBr { .. } => "LUnBr",
        UnBr { .. } => "UnBr",
        LLoad { .. } => "LLoad",
        LLStore { .. } => "LLStore",
    }
}

/// Every (family, constituent-sequence) instance the fusion table can
/// produce. Branch targets/immediates are fixed placeholders — charge
/// plans do not depend on them.
fn enumerate_instances() -> Vec<(&'static str, String, Vec<Instr>)> {
    let mut out = Vec::new();
    let lg = |i| Instr::LocalGet(i);
    let ls = |i| Instr::LocalSet(i);
    for op in BinOp::ALL {
        let b = op.instr();
        let label = format!("{op:?}");
        out.push(("LLBin", label.clone(), vec![lg(0), lg(1), b.clone()]));
        out.push((
            "LLBinSet",
            label.clone(),
            vec![lg(0), lg(1), b.clone(), ls(2)],
        ));
        out.push((
            "LCBin",
            label.clone(),
            vec![lg(0), Instr::I32Const(1), b.clone()],
        ));
        out.push((
            "LCBinSet",
            label.clone(),
            vec![lg(0), Instr::I32Const(1), b.clone(), ls(2)],
        ));
        out.push(("LBin", label.clone(), vec![lg(0), b.clone()]));
        out.push(("CBin", label.clone(), vec![Instr::I32Const(1), b.clone()]));
        out.push((
            "CBinSet",
            label.clone(),
            vec![Instr::I32Const(1), b.clone(), ls(2)],
        ));
        out.push(("BinSet", label.clone(), vec![b.clone(), ls(2)]));
        if op.result_is_i32() {
            out.push((
                "LLCmpBr",
                label.clone(),
                vec![lg(0), lg(1), b.clone(), Instr::BrIf(0)],
            ));
            out.push((
                "LCCmpBr",
                label.clone(),
                vec![lg(0), Instr::I32Const(1), b.clone(), Instr::BrIf(0)],
            ));
            out.push(("CmpBr", label.clone(), vec![b.clone(), Instr::BrIf(0)]));
        }
    }
    for un in UnOp::ALL {
        if un.result_is_i32() {
            let u = un.instr();
            let label = format!("{un:?}");
            out.push((
                "LUnBr",
                label.clone(),
                vec![lg(0), u.clone(), Instr::BrIf(0)],
            ));
            out.push(("UnBr", label, vec![u, Instr::BrIf(0)]));
        }
    }
    for kind in LoadKind::ALL {
        out.push(("LLoad", format!("{kind:?}"), vec![lg(0), kind.instr(0)]));
    }
    for kind in StoreKind::ALL {
        out.push((
            "LLStore",
            format!("{kind:?}"),
            vec![lg(0), lg(1), kind.instr(0)],
        ));
    }
    for (label, c) in [
        ("I32Const", Instr::I32Const(1)),
        ("I64Const", Instr::I64Const(1)),
        ("F32Const", Instr::F32Const(1.0)),
        ("F64Const", Instr::F64Const(1.0)),
    ] {
        out.push(("LConst", label.into(), vec![c, ls(2)]));
    }
    out.push(("LocalCopy", "LocalGet".into(), vec![lg(0), ls(2)]));
    out
}

/// Audit every instance of every fused family. An entry is `ok` when
///
/// 1. `match_fused` lowers the constituents to the expected family at the
///    full width (the step-budget total therefore matches too),
/// 2. the fused charge plan equals the constituents' concatenated
///    reference plans event-for-event, and
/// 3. no constituent carries a `TimeBucket` charge or hotness note.
pub fn audit_fusion_table() -> Vec<FusionAuditEntry> {
    let mut entries = Vec::new();
    for (family, label, constituents) in enumerate_instances() {
        let mut detail = None;
        let mut fused_rendered = Vec::new();
        let (ref_steps, ref_evs) = reference_plan(&constituents);

        // (3) is structural: constituents are locals/consts/ops/branches,
        // never memory.grow, calls, or loop openers/back-edges.
        for c in &constituents {
            if matches!(
                c,
                Instr::MemoryGrow | Instr::Call(_) | Instr::CallIndirect(_)
            ) || matches!(c, Instr::Loop(_) | Instr::Block(_) | Instr::If(_))
            {
                detail = Some(format!("constituent {c:?} carries non-class charges"));
            }
        }

        match match_fused(&constituents) {
            Some((mop, len)) if len == constituents.len() && family_of(&mop) == family => {
                match fused_plan(&mop) {
                    Some((steps, evs)) => {
                        fused_rendered = evs.iter().map(Ev::render).collect();
                        if steps != ref_steps {
                            detail = Some(format!("step total {steps} != reference {ref_steps}"));
                        } else if evs != ref_evs {
                            detail = Some("charge plans differ".into());
                        }
                    }
                    None => detail = Some("fused op lowered to a singleton".into()),
                }
            }
            Some((mop, len)) => {
                detail = Some(format!(
                    "lowering mismatch: got {} at width {len}, expected {family} at width {}",
                    family_of(&mop),
                    constituents.len()
                ));
            }
            None => detail = Some("constituents did not fuse".into()),
        }

        entries.push(FusionAuditEntry {
            family,
            instance: format!("{family}[{label}]"),
            constituents: constituents.iter().map(|c| format!("{c:?}")).collect(),
            fused_charges: fused_rendered,
            reference_charges: ref_evs.iter().map(Ev::render).collect(),
            ok: detail.is_none(),
            detail,
        });
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
        // Every binop × 8 plain families + i32-result binops × 3 cmp-br
        // families + i32-result unops × 2 br families + every load +
        // every store + 4 const types + 1 copy.
        let i32_bins = BinOp::ALL.iter().filter(|b| b.result_is_i32()).count();
        let i32_uns = UnOp::ALL.iter().filter(|u| u.result_is_i32()).count();
        let expected = BinOp::ALL.len() * 8
            + i32_bins * 3
            + i32_uns * 2
            + LoadKind::ALL.len()
            + StoreKind::ALL.len()
            + 4
            + 1;
        assert_eq!(entries.len(), expected);
        let families: std::collections::BTreeSet<_> = entries.iter().map(|e| e.family).collect();
        assert_eq!(
            families.into_iter().collect::<Vec<_>>(),
            vec![
                "BinSet",
                "CBin",
                "CBinSet",
                "CmpBr",
                "LBin",
                "LCBin",
                "LCBinSet",
                "LCCmpBr",
                "LConst",
                "LLBin",
                "LLBinSet",
                "LLCmpBr",
                "LLStore",
                "LLoad",
                "LUnBr",
                "LocalCopy",
                "UnBr"
            ]
        );
    }

    #[test]
    fn trap_points_sit_after_class_bumps() {
        let entries = audit_fusion_table();
        let div = entries
            .iter()
            .find(|e| e.instance == "LLBinSet[I32DivS]")
            .unwrap();
        assert_eq!(
            div.fused_charges,
            vec![
                "class:Local",
                "class:Local",
                "class:IntDiv",
                "arith:Div",
                "trap-point",
                "class:Local"
            ]
        );
        assert_eq!(div.fused_charges, div.reference_charges);
    }
}
