//! Static audit of the MiniJS fused forms.
//!
//! A JS fused form charges nothing of its own: its ops are counted by
//! the regions they lie in, which both lowerings cut the same way. At
//! every form, [`lower`](crate::fuse::lower) walks the plain loop over
//! the span's source ops, once per outcome of its comparison, and stores
//! the regions the path enters past its first op (the one it exits to
//! included), its index access and the micro-op it exits to. The fused
//! arm retires that record; a guard that fails falls through to the plain
//! copies lowered right after the form. So the fast path is exact when
//! the record is what those plain copies do. What the audit checks, for
//! every instance lowering can emit (all 11 [`BinKind`]s, pairs of them
//! for the two-operator forms, all 8 [`CmpKind`]s, every index form), is
//! that:
//!
//! * **round trip**: lowering the constituents with fusion on gives the
//!   expected family at the full width as the first micro-op, followed by
//!   the reference lowering's micro-ops, at the same source positions,
//!   over the same regions;
//! * **region walk**: following those plain copies through the lowered
//!   stream on every outcome of the comparison (a form that branches gets
//!   one entry per outcome; the bool tail retires seven constituents when
//!   its comparison holds and six when it does not) enters the regions
//!   the stored record enters, at the same places, and leaves the span at
//!   its exit, with the same index access.
//!
//! Each entry renders what per-op counting charges along that walk, one
//! event per line.
//!
//! Three structural facts make the remaining behavior equivalent and are
//! *documented* rather than audited per instance:
//!
//! * fused guards run **before** any charge, so a receiver the fast path
//!   does not serve or a non-`Num` operand falls back with the
//!   virtual-cost state untouched and the plain copies replay the
//!   reference path exactly;
//! * fused fast paths never allocate, never resize heap objects and never
//!   note hotness, so GC safe-points and tier transitions coincide with
//!   the reference at every op boundary;
//! * an index access counts through `count_index` on both paths, which
//!   sends a typed-array access to the band's typed counts and any other
//!   to its plain op counts on the receiver's typedness alone, which the
//!   same element read or typed store reports on both paths;
//!   `SetIndexPop`'s guard admits typed receivers only.

use crate::bytecode::{Chunk, Const, Op, Program};
use crate::fuse::{falls_through, lower, op_events, BinKind, CmpKind, Ev, LoweredChunk, Mop};

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
    /// Whether the lowering round-trips and the walk of its plain copies
    /// is the stored record.
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

/// Family name of a micro-op: its fused family, or `"singleton"`.
fn family_of(mop: &Mop) -> &'static str {
    match mop {
        Mop::LLBin { .. } => "LLBin",
        Mop::LLBinStore { .. } => "LLBinStore",
        Mop::LCBin { .. } => "LCBin",
        Mop::LCBinStore { .. } => "LCBinStore",
        Mop::LCBin2Store { .. } => "LCBin2Store",
        Mop::CStore { .. } => "CStore",
        Mop::CmpJf { .. } => "CmpJf",
        Mop::LLCmpJf { tail: false, .. } => "LLCmpJf",
        Mop::LLCmpJf { tail: true, .. } => "LLCmpJfTail",
        Mop::LCCmpJf { tail: false, .. } => "LCCmpJf",
        Mop::LCCmpJf { tail: true, .. } => "LCCmpJfTail",
        Mop::GAddr { get: false, .. } => "GAddr",
        Mop::GAddr { get: true, .. } => "GAddrGet",
        Mop::LLGetIndex { .. } => "LLGetIndex",
        Mop::SetIndexPop { .. } => "SetIndexPop",
        _ => "singleton",
    }
}

/// What following the plain copies of the fused form at micro-op `at`
/// through the lowered stream does when every comparison gives `cond`:
/// the regions it enters (at a taken jump, a branch not taken and an
/// `Enter`), the micro-op it leaves the span at and its index access,
/// handing each op it retires to `visit`. Like the source walk, it knows
/// a branch's outcome only from a comparison or a numeric constant, and
/// it refuses a jump back and anything that leaves the frame.
fn stream_walk(
    chunk: &Chunk,
    lowered: &LoweredChunk,
    at: usize,
    cond: bool,
    mut visit: impl FnMut(&Op),
) -> Result<(Vec<u32>, u32, Option<bool>), String> {
    let (code, pos) = (&lowered.code, &lowered.pos);
    let span = pos[at] as usize..pos[at] as usize + code[at].width();
    let (mut pc, mut entered, mut index, mut top) = (at + 1, Vec::new(), None, None);
    while pc < code.len() && (code[pc] == Mop::Enter || span.contains(&(pos[pc] as usize))) {
        let op = &chunk.code[pos[pc] as usize];
        let to = match code[pc] {
            Mop::Enter => pc + 1,
            Mop::Jump(to) => to as usize,
            Mop::JumpIfFalse(to) => match top.take() {
                Some(truthy) => [to as usize, pc + 1][usize::from(truthy)],
                None => return Err(format!("branch on an unknown value at {pc}")),
            },
            mop if mop.span().is_some() || !falls_through(op) => {
                return Err(format!("cannot follow {mop:?} at {pc}"))
            }
            mop => {
                visit(op);
                top = match mop {
                    Mop::Const(ci) => match chunk.consts.get(ci as usize) {
                        Some(Const::Num(n)) => Some(*n != 0.0 && !n.is_nan()),
                        _ => None,
                    },
                    Mop::Cmp(_) => Some(cond),
                    _ => None,
                };
                if let Mop::GetIndex | Mop::SetIndex = mop {
                    index = Some(mop == Mop::SetIndex);
                }
                pc += 1;
                continue;
            }
        };
        if code[pc] != Mop::Enter {
            visit(op);
        }
        if to <= pc {
            return Err(format!("jump back at {pc}"));
        }
        entered.extend(lowered.heads.get(to));
        pc = to;
    }
    Ok((entered, u32::try_from(pc).unwrap_or(u32::MAX), index))
}

/// The invariants of one lowered stream of `chunk`: every source op
/// keeps one singleton, in order; every jump lands on the micro-op of its
/// source target (a back-edge on a `JumpBack`); every micro-op control
/// enters heads its region, and every fall-through stays in its region,
/// so each source position lies in the region its micro-op runs in; an
/// `Enter` stands exactly where a plain op falls into a head; and a fused
/// form falls back onto the plain copy of its first op.
fn check_stream(chunk: &Chunk, l: &LoweredChunk) -> Result<(), String> {
    let (code, pos, n) = (&l.code, &l.pos, l.code.len());
    let singletons = (0..n).filter(|&i| code[i].width() == 1);
    if !singletons.map(|i| pos[i] as usize).eq(0..chunk.code.len()) {
        return Err("the singletons are not the source ops in order".into());
    }
    let region = |i: usize| l.regions.region_at(pos[i] as usize);
    let heads = |i: usize| i < n && l.regions.range(l.heads[i] as usize).start == pos[i] as usize;
    let lands = |t: i64| (0..n).find(|&i| i64::from(pos[i]) == t && code[i] != Mop::Enter);
    if !heads(0) || code[0] == Mop::Enter {
        return Err("frame entry heads no region".into());
    }
    for i in 0..n {
        let op = &chunk.code[pos[i] as usize];
        if let Mop::Jump(to)
        | Mop::JumpBack(to)
        | Mop::JumpIfFalse(to)
        | Mop::JumpIfFalsePeek(to)
        | Mop::JumpIfTruePeek(to) = code[i]
        {
            let (Op::Jump(d) | Op::JumpIfFalse(d) | Op::JumpIfFalsePeek(d) | Op::JumpIfTruePeek(d)) =
                *op
            else {
                return Err(format!("micro-op {i} jumps for {op:?}"));
            };
            let want = lands(i64::from(pos[i]) + i64::from(d)).map_or(u32::MAX, |t| t as u32);
            let back = matches!(code[i], Mop::JumpBack(_));
            if to != want || back != (d < 0) || (to < n as u32 && !heads(to as usize)) {
                return Err(format!("{:?} at {i} does not land on {want}", code[i]));
            }
        }
        let next = i + 1;
        let ok = next == n
            || match code[i] {
                Mop::Enter => heads(next) && code[next] != Mop::Enter && pos[next] == pos[i],
                mop if mop.span().is_some() => code[next].width() == 1 && pos[next] == pos[i],
                _ if falls_through(op) => code[next] == Mop::Enter || region(next) == region(i),
                _ => heads(next) && code[next] != Mop::Enter,
            };
        if !ok {
            return Err(format!(
                "{:?} at {i} continues into {:?}",
                code[i], code[next]
            ));
        }
    }
    Ok(())
}

/// Lower `chunk` both ways and check both streams' invariants, that they
/// cut the same regions, and that every fused form's stored record, on
/// both outcomes, is what its plain copies do. Returns the fused stream.
fn check_chunk(chunk: &Chunk) -> Result<LoweredChunk, String> {
    let (fused, plain) = (lower(chunk, true), lower(chunk, false));
    if fused.regions != plain.regions || plain.code.iter().any(|m| m.span().is_some()) {
        return Err("the reference lowering differs beyond its fused forms".into());
    }
    check_stream(chunk, &fused)?;
    check_stream(chunk, &plain)?;
    for (at, span) in fused.code.iter().enumerate() {
        let Some(span) = span.span() else { continue };
        for cond in [false, true] {
            let mut ops = 0;
            let (entered, exit, index) = stream_walk(chunk, &fused, at, cond, |_| ops += 1)?;
            let path = &fused.spans[span][usize::from(cond)];
            let walked = (&entered[..], exit, index, ops);
            if (path.entered(), path.exit, path.index, path.ops) != walked {
                return Err(format!(
                    "{:?} at {at}: stored {path:?}, its plain copies {entered:?} to {exit}",
                    fused.code[at]
                ));
            }
        }
    }
    Ok(fused)
}

/// Audit the lowering of every chunk of `program` (see [`check_stream`]
/// and [`check_chunk`]): `Err` names the first chunk that fails and why.
pub fn audit_lowering(program: &Program) -> Result<(), String> {
    for chunk in &program.chunks {
        check_chunk(chunk).map_err(|e| format!("{}: {e}", chunk.name))?;
    }
    Ok(())
}

/// The round trip and region walk of one instance on the outcome `cond`
/// (see the module docs), rendering its events into `events`.
fn check(family: &str, chunk: &Chunk, cond: bool, events: &mut Vec<String>) -> Result<(), String> {
    let fused = check_chunk(chunk)?;
    let form = fused.code.first().ok_or("empty chunk")?;
    if form.width() != chunk.code.len() || family_of(form) != family {
        return Err(format!(
            "lowering mismatch: got {} at width {}, expected {family} at width {}",
            family_of(form),
            form.width(),
            chunk.code.len(),
        ));
    }
    let render_op = |op: &Op| op_events(op, &mut |ev| events.push(render(&ev)));
    stream_walk(chunk, &fused, 0, cond, render_op).map(|_| ())
}

/// Every (family, constituent-sequence) instance lowering can produce.
/// Constant 0 is the number 1 and constant 1 the number 0 (the
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

/// Audit every fused form MiniJS lowering can emit. An entry is `ok`
/// when the round trip holds and the plain copies' walk through the
/// lowered stream on the entry's outcome is the stored record (see the
/// module docs). Forms with a branch get one entry per outcome of their
/// comparison.
pub fn audit_fusion_table() -> Vec<FusionAuditEntry> {
    let mut entries = Vec::new();
    for (family, label, ops) in enumerate_instances() {
        let constituents = ops.iter().map(|o| format!("{o:?}")).collect::<Vec<_>>();
        let branches = ops.iter().any(|op| matches!(op, Op::JumpIfFalse(_)));
        let chunk = instance_chunk(ops);
        let paths: &[bool] = if branches { &[true, false] } else { &[true] };
        for &cond in paths {
            let mut events = Vec::new();
            let detail = check(family, &chunk, cond, &mut events).err();
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
        let lowered = lower(&instance_chunk(ops), true);
        let path = lowered.spans[0][1];
        // Past the form and its four plain copies.
        assert_eq!((path.entered(), path.exit, path.index), (&[][..], 5, None));
        assert_eq!((lowered.regions.len(), lowered.regions.steps(0)), (1, 4));
        let (mut counts, mut arith) = (wb_env::OpCounts::new(), [0; 7]);
        lowered.regions.fold(&[1], &mut counts, &mut arith);
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
