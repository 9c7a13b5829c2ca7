//! The charge record and the one pricing function.
//!
//! Both VMs record *what* happened during a run — discrete events with
//! the units they were observed in, plus retired operations per tier —
//! and never *what it costs*. [`price`] is the only code that turns
//! such a record into virtual time, so one recorded execution can be
//! priced for every environment without running again.
//!
//! **Bit-identity.** [`price`] replays the events in their recorded
//! order, one clock advance per event (a run-length entry advances the
//! clock once per repetition), and then adds the execution bucket —
//! exactly the sequence of `f64` additions the VMs used to perform
//! inline. The resulting [`VirtualClock`] is therefore equal to the bit.

use crate::{
    CostTable, JsEngineProfile, Nanos, OpCounts, TimeBucket, VirtualClock, WasmEngineProfile,
};

/// Cycles per byte of the native `crypto.sha256` builtin (hardware-speed
/// hashing).
const SHA256_CYCLES_PER_BYTE: f64 = 0.4;

/// One discrete virtual-cost event, in the units the VM observed it in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Charge {
    /// Wasm instantiation of a `bytes`-byte binary: fixed base plus
    /// decode and validate per byte.
    WasmLoad {
        /// Binary size in bytes.
        bytes: u64,
    },
    /// Initial compile of `units` Wasm instructions, by the optimizing
    /// compiler when `optimizing` (the optimizing-only policy), else by
    /// the baseline compiler.
    WasmCompile {
        /// Instructions compiled.
        units: u64,
        /// Whether the optimizing tier compiled them.
        optimizing: bool,
    },
    /// Runtime tier-up of one function of `units` instructions.
    WasmTierUp {
        /// Instructions in the function body.
        units: u64,
    },
    /// A successful `memory.grow` by `pages` 64 KiB pages.
    MemoryGrow {
        /// Pages added.
        pages: u64,
    },
    /// One JS↔Wasm boundary crossing (one direction).
    ContextSwitch,
    /// Parsing `bytes` bytes of JS source.
    JsParse {
        /// Source bytes.
        bytes: u64,
    },
    /// Bytecode compilation of `ops` ops.
    JsBytecode {
        /// Bytecode ops emitted.
        ops: u64,
    },
    /// One heap allocation's fast path.
    Alloc,
    /// A garbage-collection pause that traced `live_bytes`.
    GcPause {
        /// Live bytes after the collection.
        live_bytes: u64,
    },
    /// JIT compilation of a function of `ops` bytecode ops.
    JitCompile {
        /// Bytecode ops in the function.
        ops: u64,
    },
    /// `crypto.sha256` over `bytes` bytes.
    Sha256 {
        /// Bytes hashed.
        bytes: u64,
    },
}

/// The ordered discrete events of one run, run-length encoded: equal
/// consecutive events share one entry with a repeat count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChargeRecord {
    runs: Vec<(Charge, u64)>,
}

impl ChargeRecord {
    /// An empty record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one event.
    #[inline]
    pub fn push(&mut self, charge: Charge) {
        match self.runs.last_mut() {
            Some((last, n)) if *last == charge => *n += 1,
            _ => self.runs.push((charge, 1)),
        }
    }

    /// `(event, repeat count)` entries in recorded order.
    pub fn runs(&self) -> &[(Charge, u64)] {
        &self.runs
    }
}

/// The engine whose parameters price a record.
#[derive(Debug, Clone, Copy)]
pub enum EnginePrices<'a> {
    /// The Wasm VM. Tier counts are `[baseline, optimizing]`.
    Wasm(&'a WasmEngineProfile),
    /// The JS engine. Tier counts are `[interpreter, JIT, JIT typed-array
    /// accesses]`.
    Js(&'a JsEngineProfile),
}

/// Everything that turns a record into virtual time.
#[derive(Debug, Clone, Copy)]
pub struct PriceList<'a> {
    /// Engine cost parameters (compile, GC, grow, crossing, tier
    /// multipliers).
    pub engine: EnginePrices<'a>,
    /// Base cycles per operation class.
    pub cost: &'a CostTable,
    /// Nanoseconds per abstract cycle (platform speed).
    pub cycle_time_ns: f64,
    /// Toolchain codegen multiplier on executed-op cycles (1.0 for JS).
    pub exec_overhead: f64,
}

impl PriceList<'_> {
    /// Cycles and attribution bucket of one event. `None` for an event
    /// the other VM records, which never appears in this engine's runs.
    fn event(&self, charge: Charge) -> Option<(f64, TimeBucket)> {
        let priced = match (self.engine, charge) {
            (EnginePrices::Wasm(p), Charge::WasmLoad { bytes }) => (
                p.instantiate_base
                    + bytes as f64 * (p.decode_cost_per_byte + p.validate_cost_per_byte),
                TimeBucket::Load,
            ),
            (EnginePrices::Wasm(p), Charge::WasmCompile { units, optimizing }) => {
                let tier = if optimizing { p.optimizing } else { p.baseline };
                (
                    units as f64 * tier.compile_cost_per_unit,
                    TimeBucket::Compile,
                )
            }
            (EnginePrices::Wasm(p), Charge::WasmTierUp { units }) => (
                units as f64 * p.optimizing.compile_cost_per_unit,
                TimeBucket::Compile,
            ),
            (EnginePrices::Wasm(p), Charge::MemoryGrow { pages }) => (
                p.memory_grow_base + p.memory_grow_per_page * pages as f64,
                TimeBucket::MemGrow,
            ),
            (EnginePrices::Wasm(p), Charge::ContextSwitch) => {
                (p.context_switch, TimeBucket::ContextSwitch)
            }
            (EnginePrices::Js(p), Charge::JsParse { bytes }) => {
                (bytes as f64 * p.parse_cost_per_byte, TimeBucket::Load)
            }
            (EnginePrices::Js(p), Charge::JsBytecode { ops }) => {
                (ops as f64 * p.bytecode_cost_per_op, TimeBucket::Compile)
            }
            (EnginePrices::Js(p), Charge::Alloc) => (p.alloc_cost, TimeBucket::Exec),
            (EnginePrices::Js(p), Charge::GcPause { live_bytes }) => (
                p.gc.pause_base + p.gc.pause_per_live_byte * live_bytes as f64,
                TimeBucket::Gc,
            ),
            (EnginePrices::Js(p), Charge::JitCompile { ops }) => {
                (ops as f64 * p.jit_compile_cost_per_op, TimeBucket::Compile)
            }
            (EnginePrices::Js(_), Charge::Sha256 { bytes }) => {
                (bytes as f64 * SHA256_CYCLES_PER_BYTE, TimeBucket::Exec)
            }
            _ => return None,
        };
        Some(priced)
    }

    /// Execution time of the per-tier operation counts.
    fn exec(&self, tier_counts: &[OpCounts]) -> Nanos {
        let multipliers: &[f64] = match self.engine {
            EnginePrices::Wasm(p) => &[p.baseline.exec_multiplier, p.optimizing.exec_multiplier],
            EnginePrices::Js(p) => &[
                p.interp_multiplier,
                p.jit_multiplier,
                p.jit_typed_array_multiplier,
            ],
        };
        debug_assert_eq!(
            tier_counts.len(),
            multipliers.len(),
            "one count set per tier"
        );
        let cycles = tier_counts
            .iter()
            .zip(multipliers)
            .map(|(counts, &m)| self.cost.cycles(counts, m))
            .fold(0.0, |acc, c| acc + c);
        Nanos(cycles * self.exec_overhead * self.cycle_time_ns)
    }
}

/// Price one recorded run: replay `charges` in order, then add the
/// execution bucket from `tier_counts`. This is the only place that
/// knows what an event costs.
pub fn price(
    prices: &PriceList<'_>,
    charges: &ChargeRecord,
    tier_counts: &[OpCounts],
) -> VirtualClock {
    let mut clock = VirtualClock::new();
    for &(charge, repeats) in charges.runs() {
        let Some((cycles, bucket)) = prices.event(charge) else {
            debug_assert!(false, "{charge:?} priced by the other engine");
            continue;
        };
        let span = Nanos(cycles * prices.cycle_time_ns);
        for _ in 0..repeats {
            clock.advance(span, bucket);
        }
    }
    clock.advance(prices.exec(tier_counts), TimeBucket::Exec);
    clock
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpClass;

    #[test]
    fn equal_consecutive_events_share_an_entry() {
        let mut r = ChargeRecord::new();
        r.push(Charge::Alloc);
        r.push(Charge::Alloc);
        r.push(Charge::GcPause { live_bytes: 8 });
        r.push(Charge::Alloc);
        assert_eq!(
            r.runs(),
            [
                (Charge::Alloc, 2),
                (Charge::GcPause { live_bytes: 8 }, 1),
                (Charge::Alloc, 1)
            ]
        );
    }

    #[test]
    fn replay_matches_inline_charging() {
        let p = WasmEngineProfile::reference();
        let cost = CostTable::reference();
        let ct = 0.37;
        let events = [
            Charge::WasmLoad { bytes: 1234 },
            Charge::WasmCompile {
                units: 900,
                optimizing: false,
            },
            Charge::ContextSwitch,
            Charge::ContextSwitch,
            Charge::MemoryGrow { pages: 3 },
            Charge::WasmTierUp { units: 77 },
            Charge::ContextSwitch,
        ];
        let mut record = ChargeRecord::new();
        let list = PriceList {
            engine: EnginePrices::Wasm(&p),
            cost: &cost,
            cycle_time_ns: ct,
            exec_overhead: 1.1,
        };
        let mut inline = VirtualClock::new();
        for e in events {
            record.push(e);
            let (cycles, bucket) = list.event(e).unwrap();
            inline.advance(Nanos(cycles * ct), bucket);
        }
        let mut base = OpCounts::new();
        base.bump(OpClass::IntAlu, 1000);
        let mut opt = OpCounts::new();
        opt.bump(OpClass::FloatMul, 333);
        let exec = (cost.cycles(&base, p.baseline.exec_multiplier)
            + cost.cycles(&opt, p.optimizing.exec_multiplier))
            * 1.1
            * ct;
        inline.advance(Nanos(exec), TimeBucket::Exec);
        let priced = price(&list, &record, &[base, opt]);
        assert_eq!(priced.now().0.to_bits(), inline.now().0.to_bits());
        assert_eq!(
            priced.context_switch_time.0.to_bits(),
            inline.context_switch_time.0.to_bits()
        );
        assert_eq!(priced.exec_time.0.to_bits(), inline.exec_time.0.to_bits());
    }
}
