//! Static audit of the fusion table.
//!
//! A fused micro-op charges nothing of its own: the loop counts region
//! entries, and a region's class and Table 12 counts come from its source
//! instructions (`fuse.rs` `lower`), so a fused group charges what its
//! constituents charge by construction, as long as it lies inside one
//! region. That is what this module checks, for **every** operator
//! instance each fused family can carry (each entry of `BinOp::ALL`,
//! `UnOp::ALL` and `LoadKind::ALL`):
//!
//! * **round trip**: [`match_fused`] lowers the constituents to the
//!   expected family, with a group length that covers all of them;
//! * **region walk**: lowering the constituents as a body, fused and
//!   unfused, gives the same regions; the group is the first micro-op,
//!   starts the first region and ends inside it (only a trailing `br_if`
//!   may end it, as the group's last constituent), so the next micro-op
//!   starts at the source position past it; and that region's counts are
//!   the per-op walk of its instructions;
//! * **no hotness inside**: no constituent is a call, a `memory.grow` or
//!   a structured-control opener, so no band crossing and no timed event
//!   falls inside a group.
//!
//! Each entry renders what per-op counting charges for the constituents,
//! one event per line: the class, the Table 12 kind and, for an
//! instruction that may trap, the trap point after them (a region that
//! traps charges its instructions up to and including that one).

use crate::classify::{arith_kind, can_trap, classify, ArithKind};
use crate::fuse::{lower, match_fused, resolve_labels, BinOp, LoadKind, Mop, UnOp};
use wb_env::{OpClass, OpCounts};
use wb_wasm::{FuncType, Function, Instr, Module, ValType};

/// One audited (family, operator) instance.
#[derive(Debug, Clone)]
pub struct FusionAuditEntry {
    /// Fused family name (e.g. `"LLBinSet"`).
    pub family: &'static str,
    /// Instance label (family plus the carried operator).
    pub instance: String,
    /// Source instructions the fused op retires.
    pub constituents: Vec<String>,
    /// What per-op counting charges for the constituents, one event per
    /// line.
    pub charges: Vec<String>,
    /// Whether the lowering round-trips and the region walk agrees.
    pub ok: bool,
    /// Human-readable reason when `ok` is false.
    pub detail: Option<String>,
}

/// A single cost event of per-op counting.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Ev {
    /// One retired instruction of a class.
    Class(OpClass),
    /// One Table 12 arithmetic count.
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

/// Per-op counting of `instrs`: per instruction, its class, its Table 12
/// kind, then its (potential) trap point.
fn per_op_events(instrs: &[Instr]) -> Vec<Ev> {
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
    evs
}

/// The region walk of a fused group: lower `constituents` (plus the
/// closing `end`) as a function body, fused and unfused, and check the
/// group lies inside one region whose counts are its instructions'.
fn region_walk(constituents: &[Instr]) -> Result<(), String> {
    let body = [constituents, &[Instr::End]].concat();
    let module = Module {
        functions: vec![Function {
            type_index: 0,
            locals: vec![ValType::I32; 3],
            body,
            name: None,
        }],
        types: vec![FuncType {
            params: vec![],
            results: vec![],
        }],
        ..Default::default()
    };
    let (func, body) = (&module.functions[0], &module.functions[0].body);
    // The constituents open no label (see `audit_fusion_table`), so the
    // body needs no label heights.
    let lowered = |fuse| lower(func, &module, &[], fuse);
    let (fused, unfused) = (lowered(true), lowered(false));
    if fused.regions != unfused.regions {
        return Err("fused and unfused lowerings cut different regions".into());
    }
    if fused.pos != [0, constituents.len() as u32] {
        return Err("lowering splits the group at a region head".into());
    }
    let region = fused.regions.range(0);
    if fused.heads[0] != 0 || region.end < constituents.len() {
        return Err(format!("the group spans regions {:?}", fused.regions));
    }
    let (mut counts, mut columns) = (OpCounts::new(), [0; 7]);
    fused.regions.fold(&[1], &mut counts, &mut columns);
    let (mut walked, mut walked_columns) = (OpCounts::new(), [0; 7]);
    for i in &body[region] {
        walked.bump(classify(i), 1);
        if let Some(k) = arith_kind(i) {
            walked_columns[k.column()] += 1;
        }
    }
    if (counts, columns) != (walked, walked_columns) {
        return Err("region counts differ from the per-op walk".into());
    }
    Ok(())
}

/// Family name of a fused micro-op (wildcard-free on purpose).
fn family_of(mop: &Mop) -> &'static str {
    use Mop::*;
    match mop {
        Unreachable
        | Fall
        | If(_)
        | Else(_)
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
        | GlobalSet(_)
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
        UnBr { .. } => "UnBr",
        LLoad { .. } => "LLoad",
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
    }
    for un in UnOp::ALL {
        if un.result_is_i32() {
            out.push(("UnBr", format!("{un:?}"), vec![un.instr(), Instr::BrIf(0)]));
        }
    }
    for kind in LoadKind::ALL {
        out.push(("LLoad", format!("{kind:?}"), vec![lg(0), kind.instr(0)]));
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
///    full width,
/// 2. the region walk agrees (see [`region_walk`]), and
/// 3. no constituent carries a `TimeBucket` charge or hotness note.
pub fn audit_fusion_table() -> Vec<FusionAuditEntry> {
    let mut entries = Vec::new();
    for (family, label, constituents) in enumerate_instances() {
        // (3) is structural: constituents are locals/consts/ops/branches,
        // never memory.grow, calls, or loop openers/back-edges.
        let structural = constituents.iter().find(|c| {
            matches!(
                c,
                Instr::MemoryGrow
                    | Instr::Call(_)
                    | Instr::CallIndirect(_)
                    | Instr::Loop(_)
                    | Instr::Block(_)
                    | Instr::If(_)
            )
        });
        let first = resolve_labels(&constituents, &[], 0, 0).first;
        let detail = match (structural, match_fused(&constituents, &first)) {
            (Some(c), _) => Some(format!("constituent {c:?} carries non-class charges")),
            (None, Some((mop, len))) if len == constituents.len() && family_of(&mop) == family => {
                region_walk(&constituents).err()
            }
            (None, Some((mop, len))) => Some(format!(
                "lowering mismatch: got {} at width {len}, expected {family} at width {}",
                family_of(&mop),
                constituents.len()
            )),
            (None, None) => Some("constituents did not fuse".into()),
        };
        entries.push(FusionAuditEntry {
            family,
            instance: format!("{family}[{label}]"),
            constituents: constituents.iter().map(|c| format!("{c:?}")).collect(),
            charges: per_op_events(&constituents)
                .iter()
                .map(Ev::render)
                .collect(),
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
        // Every binop × 8 plain families + i32-result unops × 1 br family
        // + every load + 4 const types + 1 copy.
        let i32_uns = UnOp::ALL.iter().filter(|u| u.result_is_i32()).count();
        let expected = BinOp::ALL.len() * 8 + i32_uns + LoadKind::ALL.len() + 4 + 1;
        assert_eq!(entries.len(), expected);
        let families: std::collections::BTreeSet<_> = entries.iter().map(|e| e.family).collect();
        assert_eq!(
            families.into_iter().collect::<Vec<_>>(),
            vec![
                "BinSet",
                "CBin",
                "CBinSet",
                "LBin",
                "LCBin",
                "LCBinSet",
                "LConst",
                "LLBin",
                "LLBinSet",
                "LLoad",
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
            div.charges,
            vec![
                "class:Local",
                "class:Local",
                "class:IntDiv",
                "arith:Div",
                "trap-point",
                "class:Local"
            ]
        );
        assert!(div.ok, "{div:?}");
    }
}
