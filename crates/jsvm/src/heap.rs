//! The GC heap: a mark-sweep collector over arrays, objects, strings and
//! typed arrays.
//!
//! Measurement model (Table 4/6, §2.2.1): the reported "JS heap" counts
//! live object headers and payloads, while typed-array *backing stores*
//! are accounted as **external** bytes — exactly how V8's DevTools splits
//! them. This is the mechanism that keeps compiled-JS memory flat across
//! input sizes in the paper while the arrays themselves grow.
//!
//! One `dirty` bit says whether the accounting may have moved towards a
//! collection since the VM last checked: [`Heap::alloc`] sets it, and so
//! does [`Heap::note_resize`] when an object grows. The VM checks for a
//! collection only at an op boundary where the bit is set, and clears it
//! whenever the check passes. Trigger and ceiling are fixed per VM
//! and nothing else grows `bytes_since_gc` or the live and external
//! bytes, and a collection leaves `bytes_since_gc` below any positive
//! trigger (every engine profile's), so every boundary it skips would
//! have found nothing to do: collections happen at the same boundaries
//! as with a check at every one, and a second check at one boundary (a
//! region entry's, then the loop's) finds nothing.

use crate::value::Value;

/// Heap object payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum Obj {
    /// A growable JS array of values.
    Arr(Vec<Value>),
    /// A plain object: insertion-ordered (name-index, value) pairs.
    /// MiniJS objects are small; linear lookup is deterministic and cheap.
    Dict(Vec<(u32, Value)>),
    /// A string.
    Str(String),
    /// `Float64Array` (backing store counted as external bytes).
    F64(Vec<f64>),
    /// `Int32Array`.
    I32(Vec<i32>),
    /// `Uint8Array`.
    U8(Vec<u8>),
}

impl Obj {
    /// Bytes charged to the *JS heap* for this object (header + in-heap
    /// payload; typed arrays charge only a header here).
    pub fn heap_bytes(&self) -> u64 {
        const HEADER: u64 = 32;
        match self {
            Obj::Arr(v) => HEADER + 16 * v.len() as u64,
            Obj::Dict(fields) => HEADER + 32 * fields.len() as u64,
            Obj::Str(s) => HEADER + s.len() as u64,
            Obj::F64(_) | Obj::I32(_) | Obj::U8(_) => HEADER,
        }
    }

    /// Bytes charged as *external* (ArrayBuffer backing stores).
    pub fn external_bytes(&self) -> u64 {
        match self {
            Obj::F64(v) => 8 * v.len() as u64,
            Obj::I32(v) => 4 * v.len() as u64,
            Obj::U8(v) => v.len() as u64,
            _ => 0,
        }
    }
}

/// Aggregate heap statistics for reports.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HeapStats {
    /// Live JS-heap bytes right now.
    pub live_bytes: u64,
    /// Peak live JS-heap bytes observed at any collection or snapshot.
    pub peak_live_bytes: u64,
    /// Current external (typed-array backing) bytes.
    pub external_bytes: u64,
    /// Peak external bytes.
    pub peak_external_bytes: u64,
    /// Collections performed.
    pub gc_count: u64,
    /// Objects allocated over the VM lifetime.
    pub alloc_count: u64,
}

/// The mark-sweep heap.
#[derive(Debug, Default)]
pub struct Heap {
    cells: Vec<Option<Obj>>,
    marks: Vec<bool>,
    free: Vec<u32>,
    /// Bytes allocated since the last collection (GC trigger input).
    pub bytes_since_gc: u64,
    /// Set when the accounting grew since a collection check last passed
    /// (which clears it): only then can one be due.
    pub(crate) dirty: bool,
    stats: HeapStats,
}

impl Heap {
    /// An empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate an object, returning its reference.
    pub fn alloc(&mut self, obj: Obj) -> u32 {
        let hb = obj.heap_bytes();
        let eb = obj.external_bytes();
        self.stats.live_bytes += hb;
        self.stats.external_bytes += eb;
        self.stats.peak_live_bytes = self.stats.peak_live_bytes.max(self.stats.live_bytes);
        self.stats.peak_external_bytes = self
            .stats
            .peak_external_bytes
            .max(self.stats.external_bytes);
        self.stats.alloc_count += 1;
        self.bytes_since_gc += hb + eb;
        self.dirty = true;
        match self.free.pop() {
            Some(slot) => {
                self.cells[slot as usize] = Some(obj);
                slot
            }
            None => {
                self.cells.push(Some(obj));
                self.marks.push(false);
                (self.cells.len() - 1) as u32
            }
        }
    }

    /// Borrow an object.
    pub fn get(&self, r: u32) -> &Obj {
        self.cells[r as usize].as_ref().expect("live reference")
    }

    /// Mutably borrow an object. The caller must re-account size changes
    /// via [`Heap::note_resize`] when it grows/shrinks payloads.
    pub fn get_mut(&mut self, r: u32) -> &mut Obj {
        self.cells[r as usize].as_mut().expect("live reference")
    }

    /// Re-account an object's size after in-place mutation. `old_heap`
    /// and `old_external` are the sizes before mutation.
    pub fn note_resize(&mut self, old_heap: u64, old_external: u64, r: u32) {
        let (nh, ne) = {
            let o = self.get(r);
            (o.heap_bytes(), o.external_bytes())
        };
        self.stats.live_bytes = self.stats.live_bytes - old_heap + nh;
        self.stats.external_bytes = self.stats.external_bytes - old_external + ne;
        self.stats.peak_live_bytes = self.stats.peak_live_bytes.max(self.stats.live_bytes);
        self.stats.peak_external_bytes = self
            .stats
            .peak_external_bytes
            .max(self.stats.external_bytes);
        if nh + ne > old_heap + old_external {
            self.bytes_since_gc += nh + ne - old_heap - old_external;
            self.dirty = true;
        }
    }

    /// Whether allocation pressure warrants a collection.
    pub fn should_collect(&self, trigger_bytes: u64) -> bool {
        self.bytes_since_gc >= trigger_bytes
    }

    /// Mark-sweep collection from the given roots. Returns live JS-heap
    /// bytes after the sweep (the pause-cost input).
    pub fn collect(&mut self, roots: impl Iterator<Item = Value>) -> u64 {
        for m in self.marks.iter_mut() {
            *m = false;
        }
        let mut worklist: Vec<u32> = roots
            .filter_map(|v| match v {
                Value::Ref(r) => Some(r),
                _ => None,
            })
            .collect();
        while let Some(r) = worklist.pop() {
            let idx = r as usize;
            if self.marks[idx] || self.cells[idx].is_none() {
                continue;
            }
            self.marks[idx] = true;
            match self.cells[idx].as_ref().expect("checked above") {
                Obj::Arr(items) => {
                    for v in items {
                        if let Value::Ref(child) = v {
                            worklist.push(*child);
                        }
                    }
                }
                Obj::Dict(fields) => {
                    for (_, v) in fields {
                        if let Value::Ref(child) = v {
                            worklist.push(*child);
                        }
                    }
                }
                _ => {}
            }
        }
        let mut live = 0u64;
        let mut external = 0u64;
        for i in 0..self.cells.len() {
            if self.cells[i].is_some() && !self.marks[i] {
                self.cells[i] = None;
                self.free.push(i as u32);
            } else if let Some(o) = &self.cells[i] {
                live += o.heap_bytes();
                external += o.external_bytes();
            }
        }
        self.stats.live_bytes = live;
        self.stats.external_bytes = external;
        self.stats.gc_count += 1;
        self.bytes_since_gc = 0;
        live
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> HeapStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_tracks_sizes() {
        let mut h = Heap::new();
        let a = h.alloc(Obj::Arr(vec![Value::Num(1.0); 4]));
        assert_eq!(h.stats().live_bytes, 32 + 64);
        let t = h.alloc(Obj::F64(vec![0.0; 100]));
        assert_eq!(h.stats().live_bytes, 32 + 64 + 32);
        assert_eq!(h.stats().external_bytes, 800);
        assert_ne!(a, t);
    }

    #[test]
    fn collect_frees_unreachable_keeps_reachable() {
        let mut h = Heap::new();
        let kept_child = h.alloc(Obj::Str("hi".into()));
        let kept = h.alloc(Obj::Arr(vec![Value::Ref(kept_child)]));
        let _garbage = h.alloc(Obj::Arr(vec![Value::Num(1.0); 100]));
        let live = h.collect([Value::Ref(kept)].into_iter());
        assert_eq!(live, (32 + 2) + (32 + 16));
        assert_eq!(h.stats().gc_count, 1);
        // Reachable survives.
        assert!(matches!(h.get(kept), Obj::Arr(_)));
        assert!(matches!(h.get(kept_child), Obj::Str(_)));
        // A freed cell is reused.
        let reused = h.alloc(Obj::Str("new".into()));
        assert_eq!(reused, 2, "freed slot is recycled");
    }

    #[test]
    fn cycles_are_collected() {
        let mut h = Heap::new();
        let a = h.alloc(Obj::Arr(vec![]));
        let b = h.alloc(Obj::Arr(vec![Value::Ref(a)]));
        if let Obj::Arr(items) = h.get_mut(a) {
            items.push(Value::Ref(b));
        }
        h.note_resize(32, 0, a);
        let live = h.collect(std::iter::empty());
        assert_eq!(live, 0);
    }

    #[test]
    fn note_resize_adjusts_accounting() {
        let mut h = Heap::new();
        let a = h.alloc(Obj::Arr(vec![]));
        let (oh, oe) = (32, 0);
        if let Obj::Arr(items) = h.get_mut(a) {
            items.extend([Value::Num(0.0); 10]);
        }
        h.note_resize(oh, oe, a);
        assert_eq!(h.stats().live_bytes, 32 + 160);
        assert!(h.stats().peak_live_bytes >= 192);
    }

    #[test]
    fn trigger_threshold() {
        let mut h = Heap::new();
        assert!(!h.should_collect(1024));
        h.alloc(Obj::Str("x".repeat(2000)));
        assert!(h.should_collect(1024));
        h.collect(std::iter::empty());
        assert!(!h.should_collect(1024));
    }
}
