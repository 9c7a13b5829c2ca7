//! Static audit of the operand resolver.
//!
//! No micro-op charges anything of its own: the loop counts region
//! entries, and a region's class and Table 12 counts come from its source
//! instructions (`fuse.rs` `lower`). What lowering decides is where each
//! operand is read and each result written, so that is what this module
//! checks, for **every** operator (each entry of `BinOp::ALL`,
//! `UnOp::ALL`, `LoadKind::ALL` and `StoreKind::ALL`) under every operand
//! shape: each input a local, a constant or a stack value (a
//! `global.get`), and the result a stack slot or a local (a following
//! `local.set`, read back), returned. For each instance:
//!
//! * **regions**: the fused and reference streams cut the same regions;
//! * **round trip**: the fused stream lowers the operator to one
//!   micro-op, beside only the `global.get`s that feed it and the
//!   return; that micro-op, read back as its `Operation`
//!   (`Mop::operation`), is the operator's own form (the operation's
//!   instruction is the operator's), and its slots resolve back to the
//!   constituents: each input to its local, its constant's bits or its
//!   operand height, the result to its local or its height;
//! * **bits**: the fused and reference streams, run, compute the same
//!   bits.
//!
//! Each entry renders what per-op counting charges for the constituents,
//! one event per line: the class, the Table 12 kind and, for an
//! instruction that may trap, the trap point after them (a region that
//! traps charges its instructions up to and including that one).

use crate::classify::{arith_kind, can_trap, classify};
use crate::engine::{Instance, WasmVmConfig};
use crate::fuse::{value_bits, BinOp, LoadKind, Mop, Operation, StoreKind, UnOp};
use crate::prep::PreparedModule;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;
use wb_env::OpClass;
use wb_wasm::{Instr, Module, ModuleBuilder, ValType};

/// One audited (operator, operand shape) instance.
#[derive(Debug, Clone)]
pub struct FusionAuditEntry {
    /// The operator's family (`"Bin"`, `"Un"`, `"Load"` or `"Store"`);
    /// each operator is a micro-op of its own.
    pub family: &'static str,
    /// Instance label: the form, the operator and the operand shape.
    pub instance: String,
    /// Source instructions the instance lowers.
    pub constituents: Vec<String>,
    /// What per-op counting charges for the constituents, one event per
    /// line.
    pub charges: Vec<String>,
    /// Whether the regions, the round trip and the bits agree.
    pub ok: bool,
    /// Human-readable reason when `ok` is false.
    pub detail: Option<String>,
}

/// Per-op counting of `instrs`, one event per line: per instruction, its
/// class, its Table 12 kind, then its (potential) trap point.
fn per_op_charges(instrs: &[Instr]) -> Vec<String> {
    let mut evs = Vec::new();
    for i in instrs {
        evs.push(format!("class:{:?}", classify(i)));
        evs.extend(arith_kind(i).map(|k| format!("arith:{k:?}")));
        if can_trap(i) {
            evs.push("trap-point".into());
        }
    }
    evs
}

/// Where a value is, read back from a slot of the frame.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Operand {
    Local(u32),
    Const(u64),
    Stack(u32),
}

/// The shape an operand is given in.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    Local,
    Const,
    Stack,
}

/// The value type a Wasm operator name starts with (`I32Add` → i32).
fn type_named(name: &str) -> Option<ValType> {
    Some(match name.get(..3)? {
        "I32" => ValType::I32,
        "I64" => ValType::I64,
        "F32" => ValType::F32,
        "F64" => ValType::F64,
        _ => return None,
    })
}

/// Input `i` of every instance: the same value as a parameter, a
/// constant and a global, so every shape computes the same bits. Input 0
/// of type i32 is also an in-bounds address.
fn input(t: ValType, i: usize) -> Value {
    match (t, i) {
        (ValType::I32, 0) => Value::I32(16),
        (ValType::I32, _) => Value::I32(-3),
        (ValType::I64, 0) => Value::I64(16),
        (ValType::I64, _) => Value::I64(-3),
        (ValType::F32, 0) => Value::F32(7.5),
        (ValType::F32, _) => Value::F32(-2.25),
        (ValType::F64, 0) => Value::F64(7.5),
        (ValType::F64, _) => Value::F64(-2.25),
    }
}

fn const_of(v: Value) -> Instr {
    match v {
        Value::I32(x) => Instr::I32Const(x),
        Value::I64(x) => Instr::I64Const(x),
        Value::F32(x) => Instr::F32Const(x),
        Value::F64(x) => Instr::F64Const(x),
    }
}

/// The static offset every audited access carries.
const OFFSET: u32 = 4;

/// Every operator with its form, its label, its input types and its
/// result type.
type Operator = (&'static str, String, Instr, Vec<ValType>, Option<ValType>);

fn operators() -> Vec<Operator> {
    let name = |i: &Instr| format!("{i:?}");
    // A comparison or test yields an i32; any other `t.op` a `t`.
    let result = |i: &Instr| match classify(i) {
        OpClass::Compare => Some(ValType::I32),
        _ => type_named(&name(i)),
    };
    let mut out = Vec::new();
    for op in BinOp::ALL {
        let i = op.instr();
        let t = type_named(&name(&i)).unwrap_or(ValType::I32);
        out.push(("Bin", format!("{op:?}"), i.clone(), vec![t, t], result(&i)));
    }
    for op in UnOp::ALL {
        let (i, n) = (op.instr(), format!("{op:?}"));
        // A conversion names its operand type after its own.
        let t = (3..n.len())
            .find_map(|k| type_named(&n[k..]))
            .or_else(|| type_named(&n))
            .unwrap_or(ValType::I32);
        out.push(("Un", n, i.clone(), vec![t], result(&i)));
    }
    for kind in LoadKind::ALL {
        let i = kind.instr(OFFSET);
        let label = format!("{kind:?}");
        out.push((
            "Load",
            label,
            i.clone(),
            vec![ValType::I32],
            type_named(&name(&i)),
        ));
    }
    for kind in StoreKind::ALL {
        let i = kind.instr(OFFSET);
        let t = type_named(&name(&i)).unwrap_or(ValType::I32);
        out.push(("Store", format!("{kind:?}"), i, vec![ValType::I32, t], None));
    }
    out
}

/// The one-function module of an instance: the inputs as parameters and
/// as globals, a result local, the result returned, and a memory with
/// distinct bytes around the address.
fn module_of(inputs: &[ValType], result: Option<ValType>, body: &[Instr]) -> Module {
    let mut mb = ModuleBuilder::new();
    mb.memory(1, None).data(16, (0x81..0x91).collect());
    for (i, &t) in inputs.iter().enumerate() {
        mb.global(t, false, const_of(input(t, i)));
    }
    let mut f = mb.func("f", inputs.to_vec(), result.into_iter().collect());
    if let Some(t) = result {
        f.local(t);
    }
    f.ops(body.iter().cloned()).done();
    mb.finish_func(f, true);
    mb.build()
}

/// Lower and run one instance.
fn check(
    form: &'static str,
    op: &Instr,
    inputs: &[(ValType, Shape)],
    result: Option<(ValType, Shape)>,
    body: &[Instr],
) -> Result<(), String> {
    let types: Vec<ValType> = inputs.iter().map(|&(t, _)| t).collect();
    let module = module_of(&types, result.map(|(t, _)| t), body);
    wb_wasm::validate(&module).map_err(|e| format!("does not validate: {e}"))?;
    let prepared = Arc::new(PreparedModule::new(module));
    let (fused, reference) = (prepared.lowered(0, true), prepared.lowered(0, false));
    if fused.regions != reference.regions {
        return Err("fused and reference streams cut different regions".into());
    }
    // The round trip: the operator's one micro-op and its slots.
    let at = body.iter().position(|i| i == op).unwrap_or(0) as u32;
    let mops: Vec<&Mop> = (fused.code.iter().zip(&fused.pos))
        .filter(|&(_, &p)| p == at)
        .map(|(m, _)| m)
        .collect();
    // The `global.get`s, the operator and the return.
    let stack_inputs = inputs.iter().filter(|&&(_, s)| s == Shape::Stack).count();
    if mops.len() != 1 || fused.code.len() != stack_inputs + 2 {
        return Err(format!("lowered to {:?}", fused.code));
    }
    // The inputs' constants differ, so each has its own slot.
    let locals = fused.params + u32::from(result.is_some());
    let operands = locals + inputs.iter().filter(|&&(_, s)| s == Shape::Const).count() as u32;
    let resolve = |slot: u32| match slot {
        s if s < locals => Operand::Local(s),
        s if s < operands => Operand::Const(fused.frame_init[(s - fused.params) as usize]),
        s => Operand::Stack(s - operands),
    };
    let (slots, dst) = match mops[0].operation() {
        Some(o) if o.instr() == *op => match o {
            Operation::Bin { a, b, dst, .. } => (vec![a, b], Some(dst)),
            Operation::Un { a, dst, .. } => (vec![a], Some(dst)),
            Operation::Load { addr, dst, .. } => (vec![addr], Some(dst)),
            Operation::Store { addr, val, .. } => (vec![addr, val], None),
        },
        _ => return Err(format!("{form} lowered to {:?}", mops[0])),
    };
    let want: Vec<Operand> = (inputs.iter().enumerate())
        .map(|(i, &(t, shape))| match shape {
            Shape::Local => Operand::Local(i as u32),
            Shape::Const => Operand::Const(value_bits(input(t, i))),
            Shape::Stack => Operand::Stack(i as u32),
        })
        .collect();
    let got: Vec<Operand> = slots.iter().map(|&s| resolve(s)).collect();
    let want_dst = result.map(|(_, shape)| match shape {
        Shape::Local => Operand::Local(inputs.len() as u32),
        _ => Operand::Stack(0),
    });
    if (got.clone(), dst.map(resolve)) != (want.clone(), want_dst) {
        return Err(format!(
            "slots resolve to {got:?} -> {:?}, not {want:?} -> {want_dst:?}",
            dst.map(resolve)
        ));
    }
    // The bits, computed by both streams.
    let args: Vec<Value> = (types.iter().enumerate())
        .map(|(i, &t)| input(t, i))
        .collect();
    let mut bits = Vec::new();
    for reference_exec in [false, true] {
        let config = WasmVmConfig {
            reference_exec,
            ..WasmVmConfig::reference()
        };
        let mut inst = Instance::from_prepared(Arc::clone(&prepared), config, HashMap::new())
            .map_err(|e| format!("{e}"))?;
        let r = inst.invoke("f", &args).map_err(|e| format!("traps: {e}"))?;
        bits.push(match r {
            Some(v) => value_bits(v).to_le_bytes().to_vec(),
            None => inst.read_memory(0, 64).map_err(|e| format!("{e}"))?,
        });
    }
    if bits[0] != bits[1] {
        return Err(format!("fused {:?} != reference {:?}", bits[0], bits[1]));
    }
    Ok(())
}

/// Audit every operator under every operand shape. An entry is `ok` when
/// its fused and reference streams cut the same regions, its operator
/// round-trips through one fused micro-op, and both streams compute the
/// same bits.
pub fn audit_fusion_table() -> Vec<FusionAuditEntry> {
    let shapes = [Shape::Local, Shape::Const, Shape::Stack];
    let mut entries = Vec::new();
    for (form, label, op, types, result) in operators() {
        // Every combination of input shapes, then of result shapes.
        let combos = shapes.len().pow(types.len() as u32);
        let sinks: &[Shape] = match result {
            Some(_) => &[Shape::Stack, Shape::Local],
            None => &[Shape::Stack],
        };
        for combo in 0..combos {
            let inputs: Vec<(ValType, Shape)> = (types.iter().enumerate())
                .map(|(i, &t)| (t, shapes[combo / shapes.len().pow(i as u32) % shapes.len()]))
                .collect();
            for &sink in sinks {
                let mut body: Vec<Instr> = (inputs.iter().enumerate())
                    .map(|(i, &(t, shape))| match shape {
                        Shape::Local => Instr::LocalGet(i as u32),
                        Shape::Const => const_of(input(t, i)),
                        Shape::Stack => Instr::GlobalGet(i as u32),
                    })
                    .collect();
                body.push(op.clone());
                if result.is_some() && sink == Shape::Local {
                    let out = types.len() as u32;
                    body.extend([Instr::LocalSet(out), Instr::LocalGet(out)]);
                }
                let result = result.map(|t| (t, sink));
                let detail = check(form, &op, &inputs, result, &body).err();
                let name = |s: Shape| format!("{s:?}").to_lowercase();
                let shape: Vec<String> = inputs.iter().map(|&(_, s)| name(s)).collect();
                let sink = match result {
                    Some(_) => format!("->{}", name(sink)),
                    None => String::new(),
                };
                entries.push(FusionAuditEntry {
                    family: form,
                    instance: format!("{form}[{label}]({}{sink})", shape.join(",")),
                    constituents: body.iter().map(|c| format!("{c:?}")).collect(),
                    charges: per_op_charges(&body),
                    ok: detail.is_none(),
                    detail,
                });
            }
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
            "{} failing instances, first: {:?}",
            bad.len(),
            bad.first()
        );
    }

    #[test]
    fn covers_every_family_and_operator() {
        let entries = audit_fusion_table();
        // Three input shapes per operand, two result shapes per result.
        let expected = BinOp::ALL.len() * 9 * 2
            + UnOp::ALL.len() * 3 * 2
            + LoadKind::ALL.len() * 3 * 2
            + StoreKind::ALL.len() * 9;
        assert_eq!(entries.len(), expected);
        assert_eq!(expected, 1815);
        let families: std::collections::BTreeSet<_> = entries.iter().map(|e| e.family).collect();
        assert_eq!(
            families.into_iter().collect::<Vec<_>>(),
            vec!["Bin", "Load", "Store", "Un"]
        );
    }

    #[test]
    fn trap_points_sit_after_class_bumps() {
        let entries = audit_fusion_table();
        let div = entries
            .iter()
            .find(|e| e.instance == "Bin[I32DivS](local,local->local)")
            .unwrap();
        assert_eq!(
            div.charges,
            vec![
                "class:Local",
                "class:Local",
                "class:IntDiv",
                "arith:Div",
                "trap-point",
                "class:Local",
                "class:Local"
            ]
        );
        assert!(div.ok, "{div:?}");
    }
}
