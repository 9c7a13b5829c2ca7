//! Where MiniJS collects garbage.
//!
//! The dispatch loop checks for a collection only at op boundaries after
//! the heap's accounting grew (`Heap::dirty`). These scripts cross the
//! GC trigger through each kind of growth, an allocation and an array
//! resize, and pin every collection to the boundary right after the op
//! that crossed it, fused and reference alike, against a model of the
//! accounting written out here. Two run under a heap ceiling, one of
//! them crossing it in the op that ends a region, so that the check runs
//! at a region head before its entry; two more check that a failed call
//! or load leaves nothing rooted.

use wb_env::{Charge, ResourceLimits};
use wb_jsvm::{JsError, JsRecord, JsValue, JsVm, JsVmConfig};

/// Heap bytes of an object header (`Obj::heap_bytes`).
const HEADER: u64 = 32;
/// Heap bytes of one plain-array element.
const ELEMENT: u64 = 16;

fn config(reference_exec: bool, trigger_bytes: u64) -> JsVmConfig {
    let mut cfg = JsVmConfig::reference();
    cfg.reference_exec = reference_exec;
    cfg.profile.gc.trigger_bytes = trigger_bytes;
    cfg
}

/// Load `src` and call `name(n)` in a fresh VM under `cfg`.
fn run(cfg: JsVmConfig, src: &str, name: &str, n: f64) -> (Result<JsValue, JsError>, JsVm) {
    let mut vm = JsVm::new(cfg);
    vm.load(src).expect("script loads");
    let r = vm.call(name, &[JsValue::Num(n)]);
    (r, vm)
}

/// The record's events in order, run-length entries expanded.
fn events(record: &JsRecord) -> Vec<Charge> {
    record
        .charges
        .runs()
        .iter()
        .flat_map(|&(c, n)| std::iter::repeat_n(c, n as usize))
        .collect()
}

fn pauses(record: &JsRecord) -> Vec<u64> {
    events(record)
        .into_iter()
        .filter_map(|c| match c {
            Charge::GcPause { live_bytes } => Some(live_bytes),
            _ => None,
        })
        .collect()
}

/// Script (a): one plain array, allocated at load, grown one element per
/// store. No op in `grow` allocates, so only `note_resize` moves the
/// accounting.
const GROW: &str = "var a = [];\n\
     function grow(n) { for (var i = 0; i < n; i++) { a[i] = i; } return a.length; }";

/// Script (b): one 8-byte string allocated per iteration, and nothing
/// else allocated.
const CHURN: &str =
    "function churn(n) { var s; for (var i = 0; i < n; i++) { s = \"abcdefgh\"; } return 0; }";

#[test]
fn resizes_alone_cross_the_trigger() {
    const TRIGGER: u64 = 100 * ELEMENT;
    const STORES: u64 = 1000;
    // The model: the array's header counts from its allocation, then
    // every store adds an element; a store that brings the bytes since
    // the last collection to the trigger is followed by a collection
    // that keeps the array alone, at its length after that store.
    let mut since = HEADER;
    let mut expected = Vec::new();
    for len in 1..=STORES {
        since += ELEMENT;
        if since >= TRIGGER {
            expected.push(HEADER + ELEMENT * len);
            since = 0;
        }
    }
    assert_eq!(expected.len(), 10, "the model crosses ten times");
    for reference_exec in [true, false] {
        let (r, vm) = run(config(reference_exec, TRIGGER), GROW, "grow", STORES as f64);
        assert_eq!(r, Ok(JsValue::Num(STORES as f64)));
        let record = vm.record();
        // A collection at any other boundary keeps a longer or shorter
        // array, so each pause's live bytes names the store before it.
        assert_eq!(pauses(&record), expected, "reference_exec {reference_exec}");
        assert_eq!(record.heap.gc_count, expected.len() as u64);
        // No allocation either: nothing else could have set a pause off.
        let allocs = events(&record)
            .iter()
            .filter(|c| matches!(c, Charge::Alloc))
            .count();
        assert_eq!(allocs, 1, "only the array itself allocates");
    }
}

#[test]
fn allocations_cross_the_trigger() {
    const STRING: u64 = HEADER + 8;
    const TRIGGER: u64 = 1000;
    const ITERATIONS: u64 = 1010;
    for reference_exec in [true, false] {
        let (r, vm) = run(
            config(reference_exec, TRIGGER),
            CHURN,
            "churn",
            ITERATIONS as f64,
        );
        assert_eq!(r, Ok(JsValue::Num(0.0)));
        let record = vm.record();
        let (mut since, mut crossings, mut prev) = (0, 0, None);
        for event in events(&record) {
            match event {
                Charge::Alloc => {
                    assert!(
                        since < TRIGGER,
                        "an allocation past the trigger went uncollected"
                    );
                    since += STRING;
                }
                Charge::GcPause { live_bytes } => {
                    // Right after the allocation that crossed: the new
                    // string still on the stack and the one before it in
                    // `s` are live. One boundary later, after the store,
                    // only one would be.
                    assert_eq!(
                        prev,
                        Some(Charge::Alloc),
                        "pause {crossings} follows an alloc"
                    );
                    assert!(since >= TRIGGER && since - STRING < TRIGGER);
                    assert_eq!(live_bytes, 2 * STRING);
                    crossings += 1;
                    since = 0;
                }
                _ => {}
            }
            prev = Some(event);
        }
        assert_eq!(
            crossings,
            ITERATIONS * STRING / TRIGGER,
            "every crossing collects"
        );
        assert_eq!(record.heap.gc_count, crossings);
        assert!(crossings > 0);
    }
}

#[test]
fn heap_ceiling_still_stops_the_run() {
    const LIMIT: u64 = 8192;
    for reference_exec in [true, false] {
        let mut cfg = config(reference_exec, 1 << 20);
        cfg.limits = ResourceLimits {
            max_memory_bytes: Some(LIMIT),
            ..ResourceLimits::default()
        };
        let (r, vm) = run(cfg, GROW, "grow", 10_000.0);
        // The first store past the ceiling: 511 elements.
        assert_eq!(
            r,
            Err(JsError::MemoryLimitExceeded {
                requested_bytes: HEADER + ELEMENT * 511,
                limit: LIMIT,
            })
        );
        assert_eq!(vm.record().heap.gc_count, 1, "one last-ditch collection");
    }
}

/// The external bytes left after `churn` forces a collection.
fn external_after_churn(vm: &mut JsVm) -> u64 {
    let before = vm.record().heap.gc_count;
    // Still usable, and this forces a collection.
    assert_eq!(
        vm.call("churn", &[JsValue::Num(10_000.0)]),
        Ok(JsValue::Num(0.0))
    );
    let heap = vm.record().heap;
    assert!(heap.gc_count > before, "churn collects");
    heap.external_bytes
}

#[test]
fn failed_calls_leave_nothing_rooted() {
    let src = format!(
        "{CHURN}\n\
         function hold(n) {{ var big = new Float64Array(n); return big.nope(); }}\n\
         function keep(n) {{ var big = new Float64Array(n); return 0; }}"
    );
    let external_after = |name: &str| {
        let mut vm = JsVm::new(config(false, 64 * 1024));
        vm.load(&src).expect("script loads");
        for _ in 0..4 {
            let r = vm.call(name, &[JsValue::Num(100_000.0)]);
            assert_eq!(r.is_err(), name == "hold", "{name}: {r:?}");
        }
        external_after_churn(&mut vm)
    };
    assert_eq!(external_after("keep"), 0);
    assert_eq!(
        external_after("hold"),
        0,
        "a failed call's locals are no root"
    );
}

#[test]
fn a_failed_load_leaves_nothing_rooted() {
    // The array is held only by the top level's stack when it throws.
    let mut vm = JsVm::new(config(false, 64 * 1024));
    let r = vm.load(&format!(
        "{CHURN}\nfunction make(n) {{ return new Float64Array(n); }}\nmake(100000).nope();"
    ));
    assert!(matches!(r, Err(JsError::Type { .. })), "{r:?}");
    assert_eq!(external_after_churn(&mut vm), 0);
}

#[test]
fn a_heap_ceiling_at_a_region_head_stops_before_entering_it() {
    // `a.push(i)` grows the array inside a method call, which ends its
    // region: the boundary after it is a region head, where the safe
    // point runs before the region is entered. The push that crosses the
    // ceiling therefore leaves the region after it unentered.
    const LIMIT: u64 = 8192;
    let src = "var a = [];\n\
         function push(n) { for (var i = 0; i < n; i++) { a.push(i); } return a.length; }";
    let program = wb_jsvm::compile_script(src).unwrap();
    let chunk = program.chunks.iter().position(|c| c.name == "push");
    let chunk = chunk.unwrap();
    let call = program.chunks[chunk]
        .code
        .iter()
        .position(|op| matches!(op, wb_jsvm::Op::MethodCall { .. }))
        .unwrap();
    let runs = [true, false].map(|reference_exec| {
        let mut cfg = config(reference_exec, 1 << 20);
        cfg.limits = ResourceLimits {
            max_memory_bytes: Some(LIMIT),
            ..ResourceLimits::default()
        };
        let (r, vm) = run(cfg, src, "push", 10_000.0);
        // The 511th element takes the array past the ceiling.
        assert_eq!(
            r,
            Err(JsError::MemoryLimitExceeded {
                requested_bytes: HEADER + ELEMENT * 511,
                limit: LIMIT,
            }),
            "reference_exec {reference_exec}"
        );
        let profile = vm.region_profile();
        let after_call: u64 = profile
            .iter()
            .filter(|h| h.func == chunk && h.code.start == call + 1)
            .map(|h| h.hits)
            .sum();
        assert_eq!(after_call, 510, "one entry per push that fit");
        (vm.record().band_counts, profile)
    });
    assert_eq!(runs[0], runs[1], "fused and reference");
}
