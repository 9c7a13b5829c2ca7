//! Static audit of the MiniJS fusion overlay.
//!
//! A JS fused form charges nothing of its own: its ops are counted by
//! the regions they lie in, which both modes enter. At every head,
//! [`fuse`](crate::fuse) walks the plain loop over the span's
//! constituents, once per outcome of its comparison, and stores the
//! regions the path enters past its head, its index access and its exit
//! beside the entry. The interpreter's fused handler retires that record,
//! so a fused form enters the regions its plain ops would, by
//! construction. What the audit checks, for every
//! instance the overlay can emit (all 11 [`BinKind`]s, pairs of them for
//! the two-operator forms, all 8 [`CmpKind`]s, every index form), is what
//! that construction rests on:
//!
//! * **round trip**: the overlay builder recognizes the constituents as
//!   the expected family at the full width;
//! * **walkability**: the walk follows the span on every outcome of its
//!   comparison (a form that branches gets one entry per outcome; the
//!   bool tail retires seven constituents when its comparison holds and
//!   six when it does not), and the record stored for that outcome is
//!   the walk's.
//!
//! Each entry renders what per-op counting charges along the walk, one
//! event per line.
//!
//! Three structural facts make the remaining behavior equivalent and are
//! *documented* rather than audited per instance:
//!
//! * fused guards run **before** any charge, so a receiver the fast path
//!   does not serve or a non-`Num` operand falls back with the
//!   virtual-cost state untouched and the plain loop replays the
//!   reference path exactly;
//! * fused fast paths never allocate, never resize heap objects and never
//!   note hotness, so GC safe-points and tier transitions coincide with
//!   the reference at every op boundary. The one permitted divergence is
//!   step-budget batching per region;
//! * an index access counts through `count_index` on both paths, which
//!   sends a typed-array access to the band's typed counts and any other
//!   to its plain op counts on the receiver's typedness alone, which the
//!   same element read or typed store reports on both paths;
//!   `SetIndexPop`'s guard admits typed receivers only.

use crate::bytecode::{Chunk, Const, Op};
use crate::fuse::{build_overlay, op_events, walk, BinKind, CmpKind, Ev, FOp, SpanCharges};

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
    /// What the form charges along this path: the plain loop's walk over
    /// its constituents, one event per line.
    pub charges: Vec<String>,
    /// Whether the overlay round-trips and the walk follows the span.
    pub ok: bool,
    /// Human-readable reason when `ok` is false.
    pub detail: Option<String>,
}

fn render(ev: &Ev) -> String {
    match ev {
        Ev::Class(c) => format!("class:{c:?}"),
        Ev::Arith(kind) => format!("arith:{kind:?}"),
        Ev::Index { store: false } => "index:load".into(),
        Ev::Index { store: true } => "index:store".into(),
    }
}

/// A chunk of `ops` over the audit's constant pool.
fn instance_chunk(ops: Vec<Op>) -> Chunk {
    Chunk {
        code: ops,
        consts: vec![Const::Num(1.0), Const::Num(0.0)],
        ..Default::default()
    }
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
        FOp::GAddr { get: false, .. } => "GAddr",
        FOp::GAddr { get: true, .. } => "GAddrGet",
        FOp::LLGetIndex { .. } => "LLGetIndex",
        FOp::SetIndexPop => "SetIndexPop",
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
            out.push(("GAddrGet", label, [addr, vec![Op::GetIndex]].concat()));
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
    out.push(("LLGetIndex", "Ref".into(), vec![ll(0), ll(1), Op::GetIndex]));
    out.push(("SetIndexPop", "typed".into(), vec![Op::SetIndex, Op::Pop]));
    out
}

/// Audit every fused form the MiniJS overlay can emit. An entry is `ok`
/// when the overlay builder recognizes the constituents as the expected
/// family at the full width, the walk follows the span on the entry's
/// outcome, and the overlay stored that walk's charges. Forms with a
/// branch get one entry per outcome of their comparison.
pub fn audit_fusion_table() -> Vec<FusionAuditEntry> {
    let mut entries = Vec::new();
    for (family, label, ops) in enumerate_instances() {
        let constituents = ops.iter().map(|o| format!("{o:?}")).collect::<Vec<_>>();
        let width = ops.len();
        let branches = ops.iter().any(|op| matches!(op, Op::JumpIfFalse(_)));
        let chunk = instance_chunk(ops);
        let overlay = build_overlay(&chunk);
        let fused = overlay.ops[0].fused;
        let paths: &[bool] = if branches { &[true, false] } else { &[true] };
        for &cond in paths {
            let mut events = Vec::new();
            let walked = walk(&chunk, 0, width, cond, |_, op| {
                op_events(op, &mut |ev| events.push(render(&ev)))
            });
            let detail = match (&fused, walked) {
                (_, Err(e)) => Some(format!("walk: {e}")),
                (None, Ok(_)) => Some("constituents did not fuse".into()),
                (Some(f), Ok(_)) if f.op.width() != width || family_of(&f.op) != family => {
                    Some(format!(
                        "overlay mismatch: got {} at width {}, expected {family} at width {width}",
                        family_of(&f.op),
                        f.op.width(),
                    ))
                }
                (Some(f), Ok(_))
                    if SpanCharges::walk(&chunk, &overlay.ops, 0, width, cond).as_ref()
                        != Some(f.path(cond)) =>
                {
                    Some("stored charges are not the walk's".into())
                }
                _ => None,
            };
            let instance = if branches {
                format!("{family}[{label}, {cond}]")
            } else {
                format!("{family}[{label}]")
            };
            entries.push(FusionAuditEntry {
                family,
                instance,
                constituents: constituents.clone(),
                charges: events,
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
    use wb_env::{ArithKind, OpClass};

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
        // outcomes, CStore, LLGetIndex, SetIndexPop.
        let expected = bins * 4 + bins * bins * 3 + cmps * 5 * 2 + 1 + 2;
        assert_eq!(entries.len(), expected);
        assert_eq!(expected, 490);
        let families: std::collections::BTreeSet<_> = entries.iter().map(|e| e.family).collect();
        assert_eq!(
            families.into_iter().collect::<Vec<_>>(),
            vec![
                "CStore",
                "CmpJf",
                "GAddr",
                "GAddrGet",
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
                "SetIndexPop"
            ]
        );
    }

    #[test]
    fn arith_follows_reference_table() {
        let entries = audit_fusion_table();
        let div = entries
            .iter()
            .find(|e| e.instance == "LLBinStore[Div]")
            .unwrap();
        assert_eq!(
            div.charges,
            vec![
                "class:Local",
                "class:Local",
                "class:FloatDiv",
                "arith:Div",
                "class:Local"
            ]
        );
        assert!(div.ok, "{div:?}");
        // The span is one region, which the loop enters at its head: the
        // fused path enters no other, and the region folds those events
        // into counts.
        let ops = vec![
            Op::LoadLocal(0),
            Op::LoadLocal(1),
            Op::Div,
            Op::StoreLocal(2),
        ];
        let overlay = build_overlay(&instance_chunk(ops));
        let fused = overlay.ops[0].fused.unwrap();
        let path = fused.path(true);
        assert_eq!((path.entered(), path.exit, path.index), (&[][..], 4, None));
        assert_eq!((overlay.regions.len(), overlay.ops[0].steps), (1, 4));
        let (mut counts, mut arith) = (wb_env::OpCounts::new(), [0; 7]);
        overlay.regions.fold(&[1], &mut counts, &mut arith);
        assert_eq!(counts.get(OpClass::FloatDiv), 1);
        assert_eq!(counts.get(OpClass::Local), 3);
        assert_eq!(counts.total(), 4);
        assert_eq!(arith[ArithKind::Div.column()], 1);
        assert_eq!(arith.iter().sum::<u64>(), 1);
    }

    #[test]
    fn bool_tail_charges_depend_on_the_path() {
        let entries = audit_fusion_table();
        let plan = |name: &str| {
            let e = entries.iter().find(|e| e.instance == name).unwrap();
            assert!(e.ok, "{e:?}");
            e.charges.clone()
        };
        let taken = plan("LCCmpJfTail[Lt, true]");
        let not_taken = plan("LCCmpJfTail[Lt, false]");
        assert_eq!(taken.len(), 7);
        assert_eq!(not_taken.len(), 6);
        assert_eq!(taken[..5], not_taken[..5]);
    }
}
