//! The charge record and the one pricing function.
//!
//! Both VMs record *what* happened during a run — discrete events with
//! the units they were observed in, plus retired operations per hotness
//! band (see [`crate::Bands`]) — and never *what it costs* or *which
//! tier ran it*. [`price`] is the only code that turns such a record
//! into virtual time, so one recorded execution can be priced for every
//! environment, tier policy, tier-up threshold and JIT mode without
//! running again.
//!
//! **The fold.** Pricing first folds the banded record under the price
//! list's [`Tiering`]: band counts sum into tier counts, the
//! [`Charge::BandCrossed`] marker at the tier-up threshold becomes a
//! [`Charge::WasmTierUp`] or [`Charge::JitCompile`], and every other
//! marker is dropped. The folded event list is rebuilt with
//! [`ChargeRecord::push`], so its run-length entries are those a run that
//! tiered that way records.
//!
//! **Bit-identity.** [`price`] then replays the folded events in their
//! recorded order, one clock advance per event (a run-length entry
//! advances the clock once per repetition), and adds the execution
//! bucket — exactly the sequence of `f64` additions the VMs used to
//! perform inline. Tier counts are integer sums of band counts, so the
//! resulting [`VirtualClock`] is equal to the bit.

use crate::{
    BandCounts, CostTable, JsEngineProfile, Nanos, OpCounts, Tiering, TimeBucket, VirtualClock,
    WasmEngineProfile,
};

/// Cycles per byte of the native `crypto.sha256` builtin (hardware-speed
/// hashing).
const SHA256_CYCLES_PER_BYTE: f64 = 0.4;

/// Base cycles per operation class, shared with native execution.
const COSTS: CostTable = CostTable::reference();

/// One discrete virtual-cost event, in the units the VM observed it in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Charge {
    /// Wasm instantiation of a `bytes`-byte binary: fixed base plus
    /// decode and validate per byte.
    WasmLoad {
        /// Binary size in bytes.
        bytes: u64,
    },
    /// Initial compile of `units` Wasm instructions: by the optimizing
    /// compiler under [`Tiering::UpperOnly`], else by the baseline one.
    WasmCompile {
        /// Instructions compiled.
        units: u64,
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
    /// A function's hotness reached `boundary` (see [`crate::Bands`]).
    /// Never priced itself: the fold turns the marker at the tier-up
    /// threshold into [`Charge::WasmTierUp`] or [`Charge::JitCompile`]
    /// of `size`, and drops the rest.
    BandCrossed {
        /// The boundary reached.
        boundary: u64,
        /// The function's size: Wasm instructions or JS bytecode ops.
        size: u64,
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
        self.push_n(charge, 1);
    }

    /// Append `n` repetitions of one event.
    fn push_n(&mut self, charge: Charge, n: u64) {
        match self.runs.last_mut() {
            Some((last, count)) if *last == charge => *count += n,
            _ => self.runs.push((charge, n)),
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
    /// The Wasm VM. Its tiers are baseline and optimizing.
    Wasm(&'a WasmEngineProfile),
    /// The JS engine. Its tiers are interpreter and JIT, with typed-array
    /// accesses in JIT code priced apart.
    Js(&'a JsEngineProfile),
}

/// Everything that turns a record into virtual time.
#[derive(Debug, Clone, Copy)]
pub struct PriceList<'a> {
    /// Engine cost parameters (compile, GC, grow, crossing, tier
    /// multipliers).
    pub engine: EnginePrices<'a>,
    /// Nanoseconds per abstract cycle (platform speed).
    pub cycle_time_ns: f64,
    /// Toolchain codegen multiplier on executed-op cycles (1.0 for JS).
    pub exec_overhead: f64,
    /// Which tiers the run uses (tier policy and threshold, or JIT mode).
    pub tiering: Tiering,
}

/// A banded record folded under one [`Tiering`]: what a run that tiered
/// that way records.
#[derive(Debug, Clone, PartialEq)]
struct Folded {
    /// The events, with the kept marker as a tier-up event.
    charges: ChargeRecord,
    /// Retired ops per tier: `[lower, upper, upper typed-array accesses]`.
    tiers: [OpCounts; 3],
    /// Tier-up events kept (Wasm tier-ups, JS JIT compiles).
    tier_ups: u32,
}

/// A priced record.
#[derive(Debug, Clone)]
pub struct Priced {
    /// Virtual time with its attribution.
    pub clock: VirtualClock,
    /// Retired ops per tier: `[lower, upper, upper typed-array accesses]`.
    pub tiers: [OpCounts; 3],
    /// Tier-up events priced (Wasm tier-ups, JS JIT compiles).
    pub tier_ups: u32,
}

impl PriceList<'_> {
    /// Fold a banded record under this list's tiering: sum band counts
    /// into tiers, turn the marker at the tier-up threshold into the
    /// engine's tier-up event and drop every other marker.
    fn fold(&self, charges: &ChargeRecord, counts: &BandCounts) -> Folded {
        let threshold = match self.tiering {
            Tiering::TierUp { threshold } => Some(threshold),
            Tiering::LowerOnly | Tiering::UpperOnly => None,
        };
        let mut folded = ChargeRecord::new();
        let mut tier_ups = 0u64;
        for &(charge, repeats) in charges.runs() {
            let charge = match charge {
                Charge::BandCrossed { boundary, size } if Some(boundary) == threshold => {
                    tier_ups += repeats;
                    match self.engine {
                        EnginePrices::Wasm(_) => Charge::WasmTierUp { units: size },
                        EnginePrices::Js(_) => Charge::JitCompile { ops: size },
                    }
                }
                Charge::BandCrossed { .. } => continue,
                other => other,
            };
            folded.push_n(charge, repeats);
        }
        Folded {
            charges: folded,
            tiers: counts.tiers(self.tiering),
            tier_ups: tier_ups as u32,
        }
    }

    /// Cycles and attribution bucket of one event. `None` for an event
    /// the other VM records, which never appears in this engine's runs.
    fn event(&self, charge: Charge) -> Option<(f64, TimeBucket)> {
        let priced = match (self.engine, charge) {
            (EnginePrices::Wasm(p), Charge::WasmLoad { bytes }) => (
                p.instantiate_base
                    + bytes as f64 * (p.decode_cost_per_byte + p.validate_cost_per_byte),
                TimeBucket::Load,
            ),
            (EnginePrices::Wasm(p), Charge::WasmCompile { units }) => {
                let tier = match self.tiering {
                    Tiering::UpperOnly => p.optimizing,
                    Tiering::TierUp { .. } | Tiering::LowerOnly => p.baseline,
                };
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

    /// Execution time of the per-tier operation counts. Wasm has no
    /// typed-array tier: its third count set is always empty.
    fn exec(&self, tier_counts: &[OpCounts; 3]) -> Nanos {
        let multipliers: &[f64] = match self.engine {
            EnginePrices::Wasm(p) => {
                debug_assert_eq!(tier_counts[2], OpCounts::new(), "no typed tier in Wasm");
                &[p.baseline.exec_multiplier, p.optimizing.exec_multiplier]
            }
            EnginePrices::Js(p) => &[
                p.interp_multiplier,
                p.jit_multiplier,
                p.jit_typed_array_multiplier,
            ],
        };
        let cycles = tier_counts
            .iter()
            .zip(multipliers)
            .map(|(counts, &m)| COSTS.cycles(counts, m))
            .fold(0.0, |acc, c| acc + c);
        Nanos(cycles * self.exec_overhead * self.cycle_time_ns)
    }
}

/// Price one recorded run: fold it under the list's tiering, replay the
/// folded events in order, then add the execution bucket from the tier
/// counts. This is the only place that knows what an event costs.
pub fn price(prices: &PriceList<'_>, charges: &ChargeRecord, counts: &BandCounts) -> Priced {
    let folded = prices.fold(charges, counts);
    let mut clock = VirtualClock::new();
    for &(charge, repeats) in folded.charges.runs() {
        let Some((cycles, bucket)) = prices.event(charge) else {
            debug_assert!(false, "{charge:?} priced by the other engine");
            continue;
        };
        let span = Nanos(cycles * prices.cycle_time_ns);
        for _ in 0..repeats {
            clock.advance(span, bucket);
        }
    }
    clock.advance(prices.exec(&folded.tiers), TimeBucket::Exec);
    Priced {
        clock,
        tiers: folded.tiers,
        tier_ups: folded.tier_ups,
    }
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
        let ct = 0.37;
        let events = [
            Charge::WasmLoad { bytes: 1234 },
            Charge::WasmCompile { units: 900 },
            Charge::ContextSwitch,
            Charge::ContextSwitch,
            Charge::MemoryGrow { pages: 3 },
            Charge::WasmTierUp { units: 77 },
            Charge::ContextSwitch,
        ];
        let list = PriceList {
            engine: EnginePrices::Wasm(&p),
            cycle_time_ns: ct,
            exec_overhead: 1.1,
            tiering: Tiering::TierUp { threshold: 2_000 },
        };
        // The recorded run: the tier-up is the marker at 2000, after one
        // at 1500 that this threshold drops.
        let mut record = ChargeRecord::new();
        let mut inline = VirtualClock::new();
        for e in events {
            match e {
                Charge::WasmTierUp { units } => {
                    for boundary in [1_500, 2_000] {
                        record.push(Charge::BandCrossed {
                            boundary,
                            size: units,
                        });
                    }
                }
                e => record.push(e),
            }
            let (cycles, bucket) = list.event(e).unwrap();
            inline.advance(Nanos(cycles * ct), bucket);
        }
        let mut counts = BandCounts::new(crate::Bands::wasm(2_000));
        counts.ops[0].bump(OpClass::IntAlu, 600);
        counts.ops[1].bump(OpClass::IntAlu, 400);
        counts.ops[2].bump(OpClass::FloatMul, 333);
        let [base, opt, _] = counts.tiers(list.tiering);
        assert_eq!(base.get(OpClass::IntAlu), 1000);
        let exec = (COSTS.cycles(&base, p.baseline.exec_multiplier)
            + COSTS.cycles(&opt, p.optimizing.exec_multiplier))
            * 1.1
            * ct;
        inline.advance(Nanos(exec), TimeBucket::Exec);
        let priced = price(&list, &record, &counts);
        assert_eq!(priced.tier_ups, 1);
        assert_eq!(priced.clock.now().0.to_bits(), inline.now().0.to_bits());
        assert_eq!(
            priced.clock.context_switch_time.0.to_bits(),
            inline.context_switch_time.0.to_bits()
        );
        assert_eq!(
            priced.clock.exec_time.0.to_bits(),
            inline.exec_time.0.to_bits()
        );
    }

    #[test]
    fn the_fold_keeps_the_threshold_marker_and_merges_what_it_joins() {
        let p = JsEngineProfile::reference();
        let mut record = ChargeRecord::new();
        for charge in [
            Charge::Alloc,
            Charge::BandCrossed {
                boundary: 400,
                size: 9,
            },
            Charge::Alloc,
            Charge::BandCrossed {
                boundary: 900,
                size: 9,
            },
            Charge::BandCrossed {
                boundary: 400,
                size: 5,
            },
        ] {
            record.push(charge);
        }
        let counts = BandCounts::new(crate::Bands::js(400));
        let fold = |tiering| {
            PriceList {
                engine: EnginePrices::Js(&p),
                cycle_time_ns: 1.0,
                exec_overhead: 1.0,
                tiering,
            }
            .fold(&record, &counts)
        };
        let at_400 = fold(Tiering::TierUp { threshold: 400 });
        assert_eq!(
            at_400.charges.runs(),
            [
                (Charge::Alloc, 1),
                (Charge::JitCompile { ops: 9 }, 1),
                (Charge::Alloc, 1),
                (Charge::JitCompile { ops: 5 }, 1)
            ]
        );
        assert_eq!(at_400.tier_ups, 2);
        let at_900 = fold(Tiering::TierUp { threshold: 900 });
        assert_eq!(
            at_900.charges.runs(),
            [(Charge::Alloc, 2), (Charge::JitCompile { ops: 9 }, 1)]
        );
        assert_eq!(at_900.tier_ups, 1);
        let off = fold(Tiering::LowerOnly);
        assert_eq!(off.charges.runs(), [(Charge::Alloc, 2)]);
        assert_eq!(off.tier_ups, 0);
    }
}
