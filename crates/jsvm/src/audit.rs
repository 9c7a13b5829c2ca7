//! Static audit of the MiniJS operand resolver (DESIGN.md §8).
//!
//! No micro-op charges anything of its own (a region's counts come from
//! its source ops), so what lowering decides is where each operand is
//! read and each result written, and which regions a fused form enters.
//! [`audit_fusion_table`] checks that for every operator ([`BinKind::ALL`]
//! and [`CmpKind::ALL`]) with each input a local, a numeric constant or a
//! stack value and the result a stack slot or a local; every comparison
//! also as an `if` test, with and without the bool tail, on both
//! outcomes; and the three index forms. Each instance is a compiled
//! script whose fused stream must hold the operator as one micro-op with
//! slots that read back as the constituents (the **round trip**), whose
//! fused forms' stored records must enter the regions the reference
//! stream enters over their spans (the **region walk**), and whose two
//! streams, run, must return the same value with identical reports. A
//! branch's constituents and charges are those of its outcome's path. [`audit_lowering`] checks the
//! stream invariants and stored records of a whole program, and, through
//! `lower`, that each chunk's heights agree at every join.

use crate::bytecode::{Chunk, Op, Program};
use crate::fuse::{
    form_at, jump_target, lower, region_heads, walk, BinKind, CmpKind, LoweredChunk, Mop,
};
use crate::value::{JsValue, Value};
use crate::vm::{JsVm, JsVmConfig};

/// One audited (operator, operand shape) instance.
#[derive(Debug, Clone)]
pub struct FusionAuditEntry {
    /// The micro-op form (`"Bin"`, `"CmpBrTail"`, `"GAddr"`, …).
    pub family: &'static str,
    /// Instance label: the form, the operator, the operand shape and, for
    /// a branch, its outcome.
    pub instance: String,
    /// Source ops the instance retires: a branch's, on its outcome's
    /// path.
    pub constituents: Vec<String>,
    /// What per-op counting charges for the constituents, one event per
    /// line.
    pub charges: Vec<String>,
    /// Whether the round trip, the region walk and the values agree.
    pub ok: bool,
    /// Human-readable reason when `ok` is false.
    pub detail: Option<String>,
}

/// Whether micro-op `m` moves control itself.
fn moves(m: &Mop) -> bool {
    let calls = matches!(
        m,
        Mop::Call(..) | Mop::MethodCall(..) | Mop::Return(_) | Mop::ReturnUndef
    );
    calls || { *m }.target().is_some()
}

/// What the reference stream `l` does over the `width` source ops from
/// `head` when their comparison gives `cond`: the regions it enters (at
/// a taken jump, a branch not taken and an `Enter`), the source op it
/// leaves the span for and its index access. A branch's outcome is known
/// from the slot a comparison wrote or a constant was copied into; the
/// walk refuses a jump back and anything that leaves the frame.
fn stream_walk(chunk: &Chunk, l: &LoweredChunk, head: usize, width: usize, cond: bool) -> Walked {
    let (code, pos) = (&l.code, &l.pos);
    let span = head..head + width;
    let mut pc = landing(chunk, l, head) as usize;
    let (mut exit, mut entered, mut index) = (span.end, Vec::new(), None);
    // The truthiness of each slot, where known: the constants', and what
    // the path writes.
    let mut known = vec![None; l.frame_len as usize];
    for (s, v) in (l.nlocals..l.operands).zip(&l.frame_init[(l.nlocals - l.arity) as usize..]) {
        known[s as usize] = Some(v.truthy_shallow());
    }
    while pc < code.len() && span.contains(&(pos[pc] as usize)) {
        let to = match code[pc] {
            Mop::Enter => pc + 1,
            Mop::Jump(to) => to as usize,
            Mop::JumpIfFalse(c, to) => match known[c as usize] {
                Some(truthy) => [to as usize, pc + 1][usize::from(truthy)],
                None => return Err(format!("branch on an unknown value at {pc}")),
            },
            m if m.span().is_some() || moves(&m) => {
                return Err(format!("cannot follow {m:?} at {pc}"))
            }
            m => {
                index = match m {
                    Mop::GetIndex(..) => Some(false),
                    Mop::SetIndex(..) => Some(true),
                    _ => index,
                };
                let (dst, truth) = match m {
                    Mop::Cmp(.., dst) => (dst, Some(cond)),
                    Mop::Copy(src, dst) => (dst, known[src as usize]),
                    Mop::GetIndex(.., dst)
                    | Mop::SetIndex(.., dst)
                    | Mop::Add(.., dst)
                    | Mop::Bin(.., dst)
                    | Mop::LoadGlobal(_, dst) => (dst, None),
                    other => return Err(format!("unexpected {other:?} at {pc}")),
                };
                known[dst as usize] = truth;
                pc += 1;
                continue;
            }
        };
        if to <= pc {
            return Err(format!("jump back at {pc}"));
        }
        let p = pos[pc] as usize;
        exit = match to == pc + 1 {
            true => span.end,
            false => jump_target(&chunk.code[p], p).map_or(usize::MAX, |t| t as usize),
        };
        entered.extend(l.heads.get(to));
        pc = to;
    }
    Ok((entered, exit, index))
}

/// A span as [`stream_walk`] follows it: the regions it enters, the
/// source op it exits to and its index access.
type Walked = Result<(Vec<u32>, usize, Option<bool>), String>;

/// The micro-op of `l` a jump to source op `t` lands on, as `lower`
/// resolves it: the first lowered for `t` or past it (`u32::MAX` for a
/// `t` past the chunk's end).
fn landing(chunk: &Chunk, l: &LoweredChunk, t: usize) -> u32 {
    let first = (0..l.code.len()).find(|&k| l.pos[k] as usize >= t);
    match t <= chunk.code.len() {
        true => first.unwrap_or(l.code.len()) as u32,
        false => u32::MAX,
    }
}

/// The invariants of one lowered stream of `chunk`: source positions do
/// not decrease; every jump lands on the first micro-op lowered for its
/// source target (a back-edge on a `JumpBack`), which lies in the
/// target's region; an op that moves control continues at the first
/// micro-op of the next op's region, an `Enter` at the head it enters, a
/// guarded form at the plain copies of its span (a `CmpBrSpan` only at
/// its stored exits, which [`check_chunk`] follows), and every other
/// micro-op stays in its region (or meets an `Enter` there).
fn check_stream(chunk: &Chunk, l: &LoweredChunk) -> Result<(), String> {
    let (code, pos, n) = (&l.code, &l.pos, l.code.len());
    let region = |p: usize| l.regions.region_at(p);
    let is_head = |p: usize| p < chunk.code.len() && l.regions.range(region(p)).start == p;
    if n == 0 || code[0] == Mop::Enter || region(pos[0] as usize) != 0 {
        return Err("frame entry heads no region".into());
    }
    if pos.windows(2).any(|w| w[0] > w[1]) {
        return Err("source positions decrease".into());
    }
    for (i, mut m) in code.iter().copied().enumerate() {
        let p = pos[i] as usize;
        if let Some(&mut to) = m.target() {
            let (Op::Jump(d) | Op::JumpIfFalse(d) | Op::JumpIfFalsePeek(d) | Op::JumpIfTruePeek(d)) =
                chunk.code[p]
            else {
                return Err(format!("micro-op {i} jumps for {:?}", chunk.code[p]));
            };
            let target = usize::try_from(p as i64 + i64::from(d))
                .ok()
                .filter(|t| *t < chunk.code.len());
            let lands = |t: usize| (0..n).find(|&k| pos[k] as usize >= t);
            let want = target.and_then(lands).map_or(u32::MAX, |k| k as u32);
            let lies = target.is_none_or(|t| region(pos[to as usize] as usize) == region(t));
            if to != want || matches!(m, Mop::JumpBack(_)) != (d < 0) || !lies {
                return Err(format!("{m:?} at {i} does not land on {want}"));
            }
        }
        let Some(&next) = pos.get(i + 1) else {
            continue;
        };
        let next = next as usize;
        let ok = match m {
            Mop::Enter => is_head(p + 1) && region(next) == region(p + 1),
            Mop::CmpBrSpan(..) => next > p,
            m if m.span().is_some() => next >= p && region(next) == region(p),
            m if moves(&m) => next > p && region(next) == region(p + 1),
            _ => region(next) == region(p) || code[i + 1] == Mop::Enter,
        };
        if !ok {
            return Err(format!("{m:?} at {i} continues into {:?}", code[i + 1]));
        }
    }
    Ok(())
}

/// Lower `chunk` both ways and check both streams' invariants, that they
/// cut the same regions, that the reference stream reads no operand in
/// place, and that every fused form's stored record, on both outcomes,
/// is what the reference stream does over its span. Returns the fused
/// stream.
fn check_chunk(chunk: &Chunk) -> Result<LoweredChunk, String> {
    let (fused, plain) = (lower(chunk, true)?, lower(chunk, false)?);
    if fused.regions != plain.regions || plain.fused.iter().any(|f| *f) {
        return Err("the reference lowering differs beyond its fused forms".into());
    }
    check_stream(chunk, &fused)?;
    check_stream(chunk, &plain)?;
    let heads = region_heads(chunk);
    for (at, form) in fused.code.iter().enumerate() {
        let Some(span) = form.span() else { continue };
        let head = fused.pos[at] as usize;
        let width = form_at(chunk, &heads, head).map_or(0, |(_, w)| w);
        for cond in [false, true] {
            let (entered, exit, index) = stream_walk(chunk, &plain, head, width, cond)?;
            let exit = landing(chunk, &fused, exit);
            let path = &fused.spans[span][usize::from(cond)];
            if (path.entered(), path.exit, path.index) != (&entered[..], exit, index) {
                return Err(format!(
                    "{form:?} at {at}: stored {path:?}, the reference {entered:?} to {exit}"
                ));
            }
        }
    }
    Ok(fused)
}

/// Audit the lowering of every chunk of `program` (see [`check_stream`]
/// and [`check_chunk`]): `Err` names the first chunk that fails and why,
/// one whose operand heights disagree at a join among them.
pub fn audit_lowering(program: &Program) -> Result<(), String> {
    for chunk in &program.chunks {
        check_chunk(chunk).map_err(|e| format!("{}: {e}", chunk.name))?;
    }
    Ok(())
}

/// Slot `s` of `l` read back: `local <n>`, `const <value>` or `stack
/// <height>`.
fn resolve(l: &LoweredChunk, s: u32) -> String {
    match s {
        s if s < l.nlocals => format!("local {s}"),
        s if s < l.operands => format!("const {:?}", l.frame_init[(s - l.arity) as usize]),
        s => format!("stack {}", s - l.operands),
    }
}

/// The slots of the micro-op an instance checks, and the source ops its
/// path retires.
type Picked = Result<(Vec<u32>, Vec<Op>), String>;

/// An instance's constituents, or why it failed.
type Checked = Result<Vec<Op>, String>;

/// Lower `src`'s function `f(a, b)` (after [`check_chunk`], which also
/// walks every fused form), check that the slots of the micro-op `pick`
/// finds there read back as `want`, and run it in both settings on
/// `args`: the values must be equal to the bit and the reports
/// identical. Returns the ops `pick` names and the value.
fn check_script(
    src: &str,
    args: [f64; 2],
    pick: impl Fn(&Chunk, &LoweredChunk) -> Picked,
    want: &[String],
) -> Result<(Vec<Op>, JsValue), String> {
    let program = crate::compile_script(src).map_err(|e| format!("{e}"))?;
    let chunk = program
        .chunks
        .iter()
        .find(|c| c.name == "f")
        .ok_or("no f")?;
    let l = check_chunk(chunk)?;
    let (slots, ops) = pick(chunk, &l)?;
    let got: Vec<String> = slots.iter().map(|&s| resolve(&l, s)).collect();
    if got != want {
        return Err(format!("slots read back as {got:?}, not {want:?}"));
    }
    let mut runs = Vec::new();
    for reference_exec in [false, true] {
        let config = JsVmConfig {
            reference_exec,
            ..JsVmConfig::reference()
        };
        let mut vm = JsVm::new(config);
        vm.load(src).map_err(|e| format!("does not load: {e}"))?;
        let v = vm
            .call("f", &args.map(JsValue::Num))
            .map_err(|e| format!("fails: {e}"))?;
        let bits = v.as_num().map(f64::to_bits);
        runs.push((format!("{v:?} {bits:?} {:?}", vm.report()), v));
    }
    if runs[0].0 != runs[1].0 {
        return Err(format!(
            "fused {:?} != reference {:?}",
            runs[0].1, runs[1].1
        ));
    }
    Ok((ops, runs.swap_remove(0).1))
}

/// Lower, walk and run `op` on inputs given as `shapes` (`"local"`,
/// `"const"` or `"stack"`, a global's load) with values `values`: its
/// value returned, or stored in a local first when `local`, or, with
/// `branch` `Some((tail, cond))`, as the test of an `if`, with or without
/// the bool tail, coming out `cond`.
fn check_operator(
    op: &str,
    shapes: [&str; 2],
    values: [f64; 2],
    local: bool,
    branch: Option<(bool, bool)>,
) -> Checked {
    let input = |i: usize| match shapes[i] {
        "local" => ["a", "b"][i].to_string(),
        "const" => format!("{}", values[i]),
        _ => format!("g{i}"),
    };
    let expr = format!("({}) {op} ({})", input(0), input(1));
    let body = match branch {
        None if local => format!("var c = {expr}; return c;"),
        None => format!("return {expr};"),
        Some((false, _)) => format!("if ({expr}) {{ return 10; }} return 20;"),
        Some((true, _)) => format!("if (({expr} ? 1 : 0)) {{ return 10; }} return 20;"),
    };
    let [v0, v1] = values;
    let src = format!("var g0 = {v0}; var g1 = {v1};\nfunction f(a, b) {{ {body} }}");
    let mut want: Vec<String> = (0..2)
        .map(|k| match shapes[k] {
            "const" => format!("const {:?}", Value::Num(values[k])),
            shape => format!("{shape} {k}"),
        })
        .collect();
    if branch.is_none() {
        want.push(if local { "local 2" } else { "stack 0" }.into());
    }
    let stack_inputs = shapes.iter().filter(|&&s| s == "stack").count();
    // The operator is one micro-op, beside only the global loads, the
    // returns and the `undefined` one after them. A branch's path is the
    // operand loads and the plain loop's walk over its span.
    let pick = |chunk: &Chunk, l: &LoweredChunk| -> Picked {
        let lift = |o: &Op| (BinKind::of(o), CmpKind::of(o));
        let at = chunk
            .code
            .iter()
            .position(|o| lift(o) != (None, None))
            .ok_or("no operator")?;
        let end = match branch {
            None => at + 1 + usize::from(local),
            Some((tail, _)) => at + 2 + 4 * usize::from(tail),
        };
        let mops: Vec<Mop> = (0..l.code.len())
            .filter(|&i| (at..end).contains(&(l.pos[i] as usize)))
            .map(|i| l.code[i])
            .collect();
        let (bin, cmp) = lift(&chunk.code[at]);
        let slots = match (&mops[..], branch) {
            ([Mop::Add(a, b, d)], None) if bin == Some(BinKind::Add) => vec![*a, *b, *d],
            ([Mop::Bin(k, a, b, d)], None) if bin == Some(*k) => vec![*a, *b, *d],
            ([Mop::Cmp(k, a, b, d)], None) if cmp == Some(*k) => vec![*a, *b, *d],
            ([Mop::CmpBr(k, a, b, _)], Some((false, _))) if cmp == Some(*k) => vec![*a, *b],
            ([Mop::CmpBrSpan(k, a, b, _)], Some((true, _))) if cmp == Some(*k) => vec![*a, *b],
            _ => vec![],
        };
        if l.code.len() != stack_inputs + 3 + usize::from(branch.is_some()) || slots.is_empty() {
            return Err(format!("lowered to {:?}", l.code));
        }
        let mut ops = chunk.code[..at].to_vec();
        match branch {
            None => ops.extend_from_slice(&chunk.code[at..end]),
            Some((_, cond)) => {
                walk(chunk, at, end - at, cond, |_, op| ops.push(op.clone()))?;
            }
        }
        Ok((slots, ops))
    };
    let (ops, value) = check_script(&src, values, pick, &want)?;
    let want = branch.map(|(_, cond)| JsValue::Num(if cond { 10.0 } else { 20.0 }));
    match want.as_ref().is_some_and(|want| *want != value) {
        true => Err(format!("returned {value:?}, not {want:?}")),
        false => Ok(ops),
    }
}

/// Lower, walk and run one index form instance: `family`'s first fused
/// form in a script, with the element address under `ops`.
fn check_index(family: &str, [op1, op2]: [&str; 2]) -> Checked {
    let address = format!("(((a) {op1} (4)) {op2} (b))");
    let (body, want) = match family {
        "GAddrGet" => (
            format!("return A[{address}];"),
            ["local 0", "local 1", "stack 0"],
        ),
        "GAddr" => (
            format!("A[{address}] = 7; return A[1];"),
            ["local 0", "local 1", "stack 0"],
        ),
        "LLGetIndex" => (
            "var t = A; return t[b];".into(),
            ["local 2", "local 1", "stack 0"],
        ),
        _ => (
            "var t = A; t[b] = a; return t[b];".into(),
            ["local 2", "local 1", "local 0"],
        ),
    };
    let src = format!("var A = new Float64Array(64);\nA[1] = 5;\nfunction f(a, b) {{ {body} }}");
    let pick = |chunk: &Chunk, l: &LoweredChunk| -> Picked {
        let at = l
            .code
            .iter()
            .position(|m| m.span().is_some())
            .ok_or("no form")?;
        let slots = match (l.code[at], family) {
            (Mop::GAddr { get, a, b, dst, .. }, _) if get == (family == "GAddrGet") => {
                vec![a, b, dst]
            }
            (Mop::LLGetIndex(obj, idx, dst, _), "LLGetIndex") => vec![obj, idx, dst],
            (Mop::SetIndexPop(obj, idx, val, _), "SetIndexPop") => vec![obj, idx, val],
            (m, _) => return Err(format!("lowered to {m:?}")),
        };
        let p = l.pos[at] as usize;
        let width = form_at(chunk, &region_heads(chunk), p).map_or(0, |(_, w)| w);
        Ok((slots, chunk.code[p..p + width].to_vec()))
    };
    let want = want.map(String::from);
    check_script(&src, [1.0, 2.0], pick, &want).map(|(ops, _)| ops)
}

/// JS spellings of every [`BinKind`] and [`CmpKind`], in `ALL` order.
const BIN_SRC: [&str; 11] = ["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>", ">>>"];
const CMP_SRC: [&str; 8] = ["<", ">", "<=", ">=", "==", "!=", "===", "!=="];

/// Audit every operator under every operand shape, and the index forms.
/// An entry is `ok` when its round trip, region walk and values agree
/// (see the module docs).
pub fn audit_fusion_table() -> Vec<FusionAuditEntry> {
    let mut entries = Vec::new();
    let mut push = |family: &'static str, instance: String, checked: Checked| {
        let ops = checked.as_deref().unwrap_or_default();
        // Per op, its class and Table 12 kind; an index op counts by
        // its receiver instead.
        let charges = ops.iter().flat_map(|op| match op {
            Op::GetIndex => vec!["index:load".to_string()],
            Op::SetIndex => vec!["index:store".to_string()],
            op => [
                Some(format!("class:{:?}", op.class())),
                op.arith().map(|k| format!("arith:{k:?}")),
            ]
            .into_iter()
            .flatten()
            .collect(),
        });
        let charges = charges.collect();
        entries.push(FusionAuditEntry {
            family,
            instance,
            constituents: ops.iter().map(|o| format!("{o:?}")).collect(),
            charges,
            ok: checked.is_ok(),
            detail: checked.err(),
        });
    };
    let shapes = ["local", "const", "stack"];
    for shape in shapes.iter().flat_map(|&x| shapes.map(|y| [x, y])) {
        let label = shape.join(",");
        for (kind, op) in BinKind::ALL.into_iter().zip(BIN_SRC) {
            let family = if kind == BinKind::Add { "Add" } else { "Bin" };
            for (local, sink) in [(false, "stack"), (true, "local")] {
                let checked = check_operator(op, shape, [7.5, 2.25], local, None);
                push(
                    family,
                    format!("{family}[{kind:?}]({label}->{sink})"),
                    checked,
                );
            }
        }
        for (kind, op) in CmpKind::ALL.into_iter().zip(CMP_SRC) {
            for (local, sink) in [(false, "stack"), (true, "local")] {
                let checked = check_operator(op, shape, [1.5, 2.5], local, None);
                push("Cmp", format!("Cmp[{kind:?}]({label}->{sink})"), checked);
            }
            for (tail, family) in [(false, "CmpBr"), (true, "CmpBrTail")] {
                for cond in [true, false] {
                    // Operands whose comparison comes out `cond`.
                    let values = [[1.5, 2.5], [2.5, 2.5], [2.5, 1.5]]
                        .into_iter()
                        .find(|&[x, y]| kind.apply(x, y) == cond)
                        .unwrap_or([1.5, 2.5]);
                    let checked = check_operator(op, shape, values, false, Some((tail, cond)));
                    push(
                        family,
                        format!("{family}[{kind:?}]({label}, {cond})"),
                        checked,
                    );
                }
            }
        }
    }
    for (k1, op1) in BinKind::ALL.into_iter().zip(BIN_SRC) {
        for (k2, op2) in BinKind::ALL.into_iter().zip(BIN_SRC) {
            for family in ["GAddr", "GAddrGet"] {
                let checked = check_index(family, [op1, op2]);
                push(family, format!("{family}[{k1:?}, {k2:?}]"), checked);
            }
        }
    }
    for family in ["LLGetIndex", "SetIndexPop"] {
        push(
            family,
            format!("{family}[typed]"),
            check_index(family, ["*", "+"]),
        );
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
    fn covers_every_operator_and_shape() {
        let entries = audit_fusion_table();
        let (bins, cmps, shapes) = (BinKind::ALL.len(), CmpKind::ALL.len(), 9);
        // Each operator under 9 input shapes into 2 sinks, each
        // comparison also as a branch with and without the tail on both
        // outcomes, 11 × 11 operator pairs of the element address with
        // and without its read, LLGetIndex and SetIndexPop.
        let expected = (bins + cmps) * shapes * 2 + cmps * shapes * 4 + bins * bins * 2 + 2;
        assert_eq!(entries.len(), expected);
        assert_eq!(expected, 874);
        let families: std::collections::BTreeSet<_> = entries.iter().map(|e| e.family).collect();
        assert_eq!(
            families.into_iter().collect::<Vec<_>>(),
            [
                "Add",
                "Bin",
                "Cmp",
                "CmpBr",
                "CmpBrTail",
                "GAddr",
                "GAddrGet",
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
            .find(|e| e.instance == "Bin[Div](local,local->local)")
            .unwrap();
        assert_eq!(
            div.charges,
            [
                "class:Local",
                "class:Local",
                "class:FloatDiv",
                "arith:Div",
                "class:Local"
            ]
        );
        assert!(div.ok, "{div:?}");
        // One micro-op, in the region the loop enters at its head, which
        // folds those events into counts.
        let program = crate::compile_script("function f(a, b) { var c = a / b; return c; }");
        let chunk = program.unwrap().chunks.pop().unwrap();
        let l = lower(&chunk, true).unwrap();
        assert_eq!(l.code[0], Mop::Bin(BinKind::Div, 0, 1, 2));
        assert_eq!(l.regions.steps(0), chunk.code.len() as u32 - 1);
        let (mut counts, mut arith) = (wb_env::OpCounts::new(), [0; 7]);
        l.regions.fold(&[1, 0], &mut counts, &mut arith);
        assert_eq!(counts.get(OpClass::FloatDiv), 1);
        assert_eq!(counts.get(OpClass::Local), 4);
        assert_eq!(arith[ArithKind::Div.column()], 1);
        assert_eq!(arith.iter().sum::<u64>(), 1);
    }

    #[test]
    fn bool_tail_charges_depend_on_the_path() {
        let entries = audit_fusion_table();
        let e = |name: &str| {
            let e = entries.iter().find(|e| e.instance == name).unwrap();
            assert!(e.ok, "{e:?}");
            e.clone()
        };
        // Taken, the plain ops retire the loads, the comparison and four
        // branch ops; not taken, three: seven charges or six, the first
        // five alike.
        let (taken, not_taken) = (
            e("CmpBrTail[Lt](local,const, true)").charges,
            e("CmpBrTail[Lt](local,const, false)").charges,
        );
        assert_eq!(taken.len(), 7);
        assert_eq!(not_taken.len(), 6);
        assert_eq!(taken[..5], not_taken[..5]);
        // A branch without the tail retires the loads, the comparison and
        // the branch either way.
        let plain = e("CmpBr[Lt](local,const, false)");
        assert_eq!(plain.constituents.len(), 4);
    }
}
