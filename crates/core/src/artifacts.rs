//! Content-keyed compile-artifact cache — the "compile once" half of the
//! grid engine.
//!
//! The study grid re-runs identical MiniC compilations for every cell
//! that shares `(source, defines, level, toolchain, heap limit)`: the six
//! environments of Fig 12/13 differ only at *run* time, the tier policies
//! of Table 7 only at *instantiation* time. This module memoizes the
//! compile outputs (and, for Wasm, the decode+validate+side-table
//! preparation) under a 128-bit content key so each distinct artifact is
//! built exactly once per process, across threads.
//!
//! Below the artifacts sit *front ends*: preprocess, lex, parse,
//! transform and sema read only `(source, defines)`, so every level ×
//! target compile of one kernel at one size starts from the same checked
//! HIR. The cache keeps front ends under their own key
//! ([`ArtifactKey::front_end`]) and each compile clones one into its
//! pass pipeline. Grids are kernel-major, so a kernel's compiles come in
//! one burst on one worker, and the cache keeps only the front end each
//! worker used last; a dropped front end is simply built again.
//!
//! The same cache also memoizes *executions*: a VM run is a pure
//! function of the artifact, the entry point and the part of the VM
//! config that execution reads (its projection), so its unpriced record
//! is stored under that key and priced again for every environment that
//! shares it. The projection holds no tier policy, JIT mode or
//! threshold: a record counts operations per hotness band, and pricing
//! turns bands into tiers, so one execution per artifact serves every
//! environment, tier policy and JIT mode.
//!
//! **Invariant: caching may never change virtual numbers.** A cached run
//! replays the same virtual load/compile charges as an uncached one
//! ([`wb_wasm_vm::Instance::instantiate_prepared`]); only wall-clock work
//! is skipped. The cached Wasm preparation is built from the
//! encode→decode roundtrip of the module, exactly like the uncached
//! path, so execution is bit-identical too. A memoized execution is
//! priced by the same function as a fresh one ([`wb_env::price`]), so
//! the memo may never change virtual numbers either.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, TryLockError};
use std::thread::ThreadId;
use wb_env::Toolchain;
use wb_jsvm::{JsExecProjection, JsRecord};
use wb_minic::backend::native::NativeProgram;
use wb_minic::{FrontEnd, OptLevel};
use wb_wasm_vm::{ExecutionRecord, PreparedModule, WasmExecProjection};

/// 128-bit FNV-1a content hash identifying one compile artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArtifactKey(pub u128);

/// Which backend an artifact was compiled for (part of the key).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// MiniC → Wasm binary (+ prepared module).
    Wasm,
    /// MiniC → MiniJS source.
    Js,
    /// MiniC → native evaluator program.
    Native,
}

/// The key tag of a front end; the artifact kinds use 1–3.
const FRONT_END_TAG: u8 = 4;

const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

struct Fnv128(u128);

impl Fnv128 {
    fn new() -> Self {
        Fnv128(FNV128_OFFSET)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u128;
            self.0 = self.0.wrapping_mul(FNV128_PRIME);
        }
        // Field separator so concatenations can't collide ("ab","c" vs
        // "a","bc").
        self.0 ^= 0x1f;
        self.0 = self.0.wrapping_mul(FNV128_PRIME);
    }
}

impl ArtifactKey {
    /// `tag`, the source and the defines: what a front end reads, and the
    /// start of every artifact key.
    fn hash_front_end(tag: u8, source: &str, defines: &[(String, String)]) -> Fnv128 {
        let mut h = Fnv128::new();
        h.write(&[tag]);
        h.write(source.as_bytes());
        h.write(&(defines.len() as u64).to_le_bytes());
        for (k, v) in defines {
            h.write(k.as_bytes());
            h.write(v.as_bytes());
        }
        h
    }

    /// Key for the front end of `(source, defines)`
    /// ([`wb_minic::Compiler::frontend`]). Level, toolchain, heap limit
    /// and trap checks only affect passes and emit, so they are not part
    /// of it.
    pub fn front_end(source: &str, defines: &[(String, String)]) -> ArtifactKey {
        ArtifactKey(Self::hash_front_end(FRONT_END_TAG, source, defines).0)
    }

    /// Key for one compile configuration. Everything that can change the
    /// compile output is hashed; everything that only affects run time
    /// (environment, tier policy, JIT mode, entry point) deliberately is
    /// not, which is where the grid's cache hits come from.
    pub fn compute(
        kind: ArtifactKind,
        source: &str,
        defines: &[(String, String)],
        level: OptLevel,
        toolchain: Toolchain,
        heap_limit: Option<u64>,
        trap_checks: bool,
    ) -> ArtifactKey {
        let tag = match kind {
            ArtifactKind::Wasm => 1u8,
            ArtifactKind::Js => 2,
            ArtifactKind::Native => 3,
        };
        let mut h = Self::hash_front_end(tag, source, defines);
        h.write(level.name().as_bytes());
        h.write(format!("{toolchain:?}").as_bytes());
        match heap_limit {
            Some(v) => {
                h.write(&[1]);
                h.write(&v.to_le_bytes());
            }
            None => h.write(&[0]),
        }
        // Trap-checks builds emit different JS (checked div / bounds
        // helpers), so they must never share a slot with plain builds.
        h.write(&[trap_checks as u8]);
        ArtifactKey(h.0)
    }
}

/// A cached Wasm compile: the encoded binary, the `print_str` table and
/// the shared decode+validate+side-table preparation.
pub struct CachedWasm {
    /// Encoded module binary (the Fig 5 code-size metric measures this).
    pub bytes: Vec<u8>,
    /// Host string table for `standard_imports`.
    pub strings: Vec<String>,
    /// Prepared module, built from `decode(encode(module))` exactly like
    /// the uncached instantiate path.
    pub prepared: Arc<PreparedModule>,
}

/// A cached JS compile.
pub struct CachedJs {
    /// Generated MiniJS source.
    pub source: String,
}

/// A cached native compile.
pub struct CachedNative {
    /// The immutable native program (its `run` takes `&self`).
    pub prog: NativeProgram,
}

/// What one execution-memo entry is keyed on: the artifact, the entry
/// point and the VM config's projection (`WasmVmConfig::projection` /
/// `JsVmConfig::projection`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct ExecKey<P> {
    pub artifact: ArtifactKey,
    pub entry: String,
    pub projection: P,
}

/// A memoized Wasm execution: the unpriced record and the output.
pub(crate) struct RecordedWasm {
    pub record: ExecutionRecord,
    pub output: Vec<String>,
}

/// A memoized JS execution: the unpriced record and the output.
pub(crate) struct RecordedJs {
    pub record: JsRecord,
    pub output: Vec<String>,
}

/// One cache slot. The per-key mutex serializes *building* that key
/// across workers: a worker that looks the key up while another builds
/// it blocks until the build is done, then takes the hit (counted in
/// [`CacheStats::waits`]). The outer map lock is only held long enough
/// to fetch the slot.
struct Slot<T> {
    filled: Mutex<Option<Arc<T>>>,
}

impl<T> Slot<T> {
    fn new() -> Self {
        Slot {
            filled: Mutex::new(None),
        }
    }

    /// Take the slot's value or build it: returns `(value, was_hit)`. A
    /// lookup that finds the slot held counts one wait in `waits`.
    ///
    /// A build that panics poisons the mutex while the slot is still
    /// empty, so the guard is recovered and the next lookup simply builds
    /// again; a build that fails leaves the slot empty too.
    fn get_or_build<E>(
        &self,
        waits: &AtomicU64,
        build: impl FnOnce() -> Result<T, E>,
    ) -> Result<(Arc<T>, bool), E> {
        let mut filled = match self.filled.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => {
                waits.fetch_add(1, Ordering::Relaxed);
                self.filled.lock().unwrap_or_else(PoisonError::into_inner)
            }
        };
        if let Some(v) = filled.as_ref() {
            return Ok((Arc::clone(v), true));
        }
        let built = Arc::new(build()?);
        *filled = Some(Arc::clone(&built));
        Ok((built, false))
    }
}

struct KeyedCache<K, T> {
    slots: Mutex<HashMap<K, Arc<Slot<T>>>>,
    waits: AtomicU64,
}

impl<K: Eq + Hash, T> KeyedCache<K, T> {
    fn new() -> Self {
        KeyedCache {
            slots: Mutex::new(HashMap::new()),
            waits: AtomicU64::new(0),
        }
    }

    /// Get-or-build: returns `(artifact, was_hit)` ([`Slot::get_or_build`]).
    fn get_or_build<E>(
        &self,
        key: K,
        build: impl FnOnce() -> Result<T, E>,
    ) -> Result<(Arc<T>, bool), E> {
        let slot = {
            let mut map = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(map.entry(key).or_insert_with(|| Arc::new(Slot::new())))
        };
        slot.get_or_build(&self.waits, build)
    }

    fn clear(&self) {
        self.slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }
}

/// The most front ends a cache keeps: twice the host's cores, read once
/// per process at the first front-end lookup. Only entries of workers
/// that have finished can pile up against it.
fn front_ends_kept() -> usize {
    static KEPT: OnceLock<usize> = OnceLock::new();
    *KEPT.get_or_init(|| 2 * std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The front ends workers are compiling from, least recently used
/// first, each with the thread that used it last. The same per-key
/// slots as [`KeyedCache`], but each thread keeps only the front end it
/// used last: a kernel-major grid runs a kernel's level × target
/// compiles as one burst on one worker, and a worker that moves to
/// another kernel drops the one it left, however long its cells ran.
/// Past [`front_ends_kept`] entries the least recent goes too. A worker
/// still building or cloning a dropped front end keeps its own `Arc`,
/// and a dropped one is simply built again.
struct WorkerFrontEnds {
    kept: Mutex<VecDeque<KeptFrontEnd>>,
    waits: AtomicU64,
}

/// One kept front end and the thread that used it last.
struct KeptFrontEnd {
    key: ArtifactKey,
    user: ThreadId,
    slot: Arc<Slot<FrontEnd>>,
}

impl WorkerFrontEnds {
    fn new() -> Self {
        WorkerFrontEnds {
            kept: Mutex::new(VecDeque::new()),
            waits: AtomicU64::new(0),
        }
    }

    fn get_or_build<E>(
        &self,
        key: ArtifactKey,
        build: impl FnOnce() -> Result<FrontEnd, E>,
    ) -> Result<(Arc<FrontEnd>, bool), E> {
        let slot = {
            let me = std::thread::current().id();
            let mut kept = self.kept.lock().unwrap_or_else(PoisonError::into_inner);
            let slot = kept
                .iter()
                .position(|k| k.key == key)
                .and_then(|i| kept.remove(i))
                .map_or_else(|| Arc::new(Slot::new()), |k| k.slot);
            kept.retain(|k| k.user != me);
            kept.push_back(KeptFrontEnd {
                key,
                user: me,
                slot: Arc::clone(&slot),
            });
            if kept.len() > front_ends_kept() {
                kept.pop_front();
            }
            slot
        };
        slot.get_or_build(&self.waits, build)
    }
}

/// Cache statistics snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Artifact bytes we did not have to re-produce (sum of hit artifact
    /// sizes).
    pub bytes_saved: u64,
    /// Runs priced from a memoized execution.
    pub exec_hits: u64,
    /// Runs that executed (whether or not the memo kept the result).
    pub exec_misses: u64,
    /// Lookups, of an artifact, a front end or an execution, that found
    /// their slot held by another worker's build and blocked until it
    /// was done.
    pub waits: u64,
    /// Artifact builds that reused a kept front end.
    pub frontend_hits: u64,
    /// Artifact builds that ran the front end (failed runs included).
    pub frontend_misses: u64,
}

impl CacheStats {
    /// Hits / (hits + misses), or 0 when empty.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Thread-safe, content-keyed compile-artifact cache with hit/miss
/// accounting. One instance is usually shared per process via
/// [`ArtifactCache::global`].
pub struct ArtifactCache {
    wasm: KeyedCache<ArtifactKey, CachedWasm>,
    js: KeyedCache<ArtifactKey, CachedJs>,
    native: KeyedCache<ArtifactKey, CachedNative>,
    front_ends: WorkerFrontEnds,
    wasm_runs: KeyedCache<ExecKey<WasmExecProjection>, RecordedWasm>,
    js_runs: KeyedCache<ExecKey<JsExecProjection>, RecordedJs>,
    hits: AtomicU64,
    misses: AtomicU64,
    bytes_saved: AtomicU64,
    exec_hits: AtomicU64,
    exec_misses: AtomicU64,
    frontend_hits: AtomicU64,
    frontend_misses: AtomicU64,
}

impl Default for ArtifactCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ArtifactCache {
    /// An empty cache.
    pub fn new() -> Self {
        ArtifactCache {
            wasm: KeyedCache::new(),
            js: KeyedCache::new(),
            native: KeyedCache::new(),
            front_ends: WorkerFrontEnds::new(),
            wasm_runs: KeyedCache::new(),
            js_runs: KeyedCache::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bytes_saved: AtomicU64::new(0),
            exec_hits: AtomicU64::new(0),
            exec_misses: AtomicU64::new(0),
            frontend_hits: AtomicU64::new(0),
            frontend_misses: AtomicU64::new(0),
        }
    }

    /// The process-wide cache all harness binaries share.
    pub fn global() -> &'static ArtifactCache {
        static GLOBAL: OnceLock<ArtifactCache> = OnceLock::new();
        GLOBAL.get_or_init(ArtifactCache::new)
    }

    fn note(&self, hit: bool, artifact_bytes: u64) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.bytes_saved
                .fetch_add(artifact_bytes, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Get or build the Wasm artifact for `key`.
    pub fn wasm<E>(
        &self,
        key: ArtifactKey,
        build: impl FnOnce() -> Result<CachedWasm, E>,
    ) -> Result<Arc<CachedWasm>, E> {
        let (v, hit) = self.wasm.get_or_build(key, build)?;
        self.note(hit, v.bytes.len() as u64);
        Ok(v)
    }

    /// Get or build the JS artifact for `key`.
    pub fn js<E>(
        &self,
        key: ArtifactKey,
        build: impl FnOnce() -> Result<CachedJs, E>,
    ) -> Result<Arc<CachedJs>, E> {
        let (v, hit) = self.js.get_or_build(key, build)?;
        self.note(hit, v.source.len() as u64);
        Ok(v)
    }

    /// Get or build the native artifact for `key`.
    pub fn native<E>(
        &self,
        key: ArtifactKey,
        build: impl FnOnce() -> Result<CachedNative, E>,
    ) -> Result<Arc<CachedNative>, E> {
        let (v, hit) = self.native.get_or_build(key, build)?;
        self.note(hit, v.prog.code_size());
        Ok(v)
    }

    /// Get the kept front end for `key` ([`ArtifactKey::front_end`]), or
    /// build it. A build error is handed back and not kept, so the next
    /// lookup builds again.
    pub fn front_end<E>(
        &self,
        key: ArtifactKey,
        build: impl FnOnce() -> Result<FrontEnd, E>,
    ) -> Result<Arc<FrontEnd>, E> {
        let lookup = self.front_ends.get_or_build(key, build);
        Self::count(&lookup, &self.frontend_hits, &self.frontend_misses);
        lookup.map(|(v, _)| v)
    }

    fn count<T, E>(lookup: &Result<(Arc<T>, bool), E>, hits: &AtomicU64, misses: &AtomicU64) {
        let counter = match lookup {
            Ok((_, true)) => hits,
            _ => misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn note_exec<T, E>(&self, lookup: Result<(Arc<T>, bool), E>) -> Result<Arc<T>, E> {
        Self::count(&lookup, &self.exec_hits, &self.exec_misses);
        lookup.map(|(v, _)| v)
    }

    /// Get the memoized Wasm execution for `key`, or execute it. `run`
    /// returns `Err` for an execution the memo must not keep; the error
    /// is handed back unchanged.
    pub(crate) fn wasm_execution<E>(
        &self,
        key: ExecKey<WasmExecProjection>,
        run: impl FnOnce() -> Result<RecordedWasm, E>,
    ) -> Result<Arc<RecordedWasm>, E> {
        self.note_exec(self.wasm_runs.get_or_build(key, run))
    }

    /// Get the memoized JS execution for `key`, or execute it (semantics
    /// as [`ArtifactCache::wasm_execution`]).
    pub(crate) fn js_execution<E>(
        &self,
        key: ExecKey<JsExecProjection>,
        run: impl FnOnce() -> Result<RecordedJs, E>,
    ) -> Result<Arc<RecordedJs>, E> {
        self.note_exec(self.js_runs.get_or_build(key, run))
    }

    /// Drop every memoized execution and keep the compiled artifacts, so
    /// the next run of each cell executes again: how host time of the
    /// VMs is measured through a warm cache.
    pub fn forget_executions(&self) {
        self.wasm_runs.clear();
        self.js_runs.clear();
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bytes_saved: self.bytes_saved.load(Ordering::Relaxed),
            exec_hits: self.exec_hits.load(Ordering::Relaxed),
            exec_misses: self.exec_misses.load(Ordering::Relaxed),
            waits: self.wasm.waits.load(Ordering::Relaxed)
                + self.js.waits.load(Ordering::Relaxed)
                + self.native.waits.load(Ordering::Relaxed)
                + self.front_ends.waits.load(Ordering::Relaxed)
                + self.wasm_runs.waits.load(Ordering::Relaxed)
                + self.js_runs.waits.load(Ordering::Relaxed),
            frontend_hits: self.frontend_hits.load(Ordering::Relaxed),
            frontend_misses: self.frontend_misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(source: &str, defines: &[(&str, &str)], level: OptLevel, tc: Toolchain) -> ArtifactKey {
        let defines: Vec<(String, String)> = defines
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        ArtifactKey::compute(
            ArtifactKind::Wasm,
            source,
            &defines,
            level,
            tc,
            Some(1 << 20),
            false,
        )
    }

    #[test]
    fn distinct_configurations_get_distinct_keys() {
        let base = key("int x;", &[("N", "10")], OptLevel::O2, Toolchain::Cheerp);
        assert_ne!(
            base,
            key("int y;", &[("N", "10")], OptLevel::O2, Toolchain::Cheerp),
            "source"
        );
        assert_ne!(
            base,
            key("int x;", &[("N", "11")], OptLevel::O2, Toolchain::Cheerp),
            "define value"
        );
        assert_ne!(
            base,
            key("int x;", &[("M", "10")], OptLevel::O2, Toolchain::Cheerp),
            "define name"
        );
        assert_ne!(
            base,
            key("int x;", &[], OptLevel::O2, Toolchain::Cheerp),
            "define count"
        );
        assert_ne!(
            base,
            key("int x;", &[("N", "10")], OptLevel::O0, Toolchain::Cheerp),
            "level"
        );
        assert_ne!(
            base,
            key(
                "int x;",
                &[("N", "10")],
                OptLevel::O2,
                Toolchain::Emscripten
            ),
            "toolchain"
        );
    }

    #[test]
    fn kind_heap_limit_and_boundaries_are_part_of_the_key() {
        let mk = |kind, heap| {
            ArtifactKey::compute(
                kind,
                "int x;",
                &[],
                OptLevel::O2,
                Toolchain::Cheerp,
                heap,
                false,
            )
        };
        let trapped = ArtifactKey::compute(
            ArtifactKind::Js,
            "int x;",
            &[],
            OptLevel::O2,
            Toolchain::Cheerp,
            None,
            true,
        );
        assert_ne!(mk(ArtifactKind::Js, None), trapped, "trap-checks flag");
        assert_ne!(mk(ArtifactKind::Wasm, None), mk(ArtifactKind::Js, None));
        assert_ne!(mk(ArtifactKind::Js, None), mk(ArtifactKind::Native, None));
        assert_ne!(
            mk(ArtifactKind::Wasm, None),
            mk(ArtifactKind::Wasm, Some(0)),
            "heap limit None vs Some(0)"
        );
        assert_ne!(
            mk(ArtifactKind::Wasm, Some(1 << 20)),
            mk(ArtifactKind::Wasm, Some(1 << 21))
        );
        // Field-boundary shifts must not collide.
        let a = ArtifactKey::compute(
            ArtifactKind::Wasm,
            "ab",
            &[("c".into(), "d".into())],
            OptLevel::O2,
            Toolchain::Cheerp,
            None,
            false,
        );
        let b = ArtifactKey::compute(
            ArtifactKind::Wasm,
            "a",
            &[("bc".into(), "d".into())],
            OptLevel::O2,
            Toolchain::Cheerp,
            None,
            false,
        );
        assert_ne!(a, b);
    }

    #[test]
    fn front_end_keys_hash_source_and_defines_under_their_own_tag() {
        let defs = |v: &str| vec![("N".to_string(), v.to_string())];
        let base = ArtifactKey::front_end("int x;", &defs("10"));
        assert_eq!(base, ArtifactKey::front_end("int x;", &defs("10")));
        assert_ne!(base, ArtifactKey::front_end("int y;", &defs("10")));
        assert_ne!(base, ArtifactKey::front_end("int x;", &defs("11")));
        assert_ne!(base, ArtifactKey::front_end("int x;", &[]));
        for kind in [ArtifactKind::Wasm, ArtifactKind::Js, ArtifactKind::Native] {
            let artifact = ArtifactKey::compute(
                kind,
                "int x;",
                &defs("10"),
                OptLevel::O2,
                Toolchain::Cheerp,
                None,
                false,
            );
            assert_ne!(base, artifact, "{kind:?}");
        }
    }

    #[test]
    fn a_worker_keeps_only_the_front_end_it_used_last() {
        let cache = ArtifactCache::new();
        let [k1, k2, k3] =
            ["int a;", "int b;", "int c;"].map(|src| ArtifactKey::front_end(src, &[]));
        let lookup = |k| {
            cache
                .front_end(k, || -> Result<FrontEnd, ()> { Ok(FrontEnd::default()) })
                .unwrap();
        };
        // Another worker compiles from k2 and is still on it.
        std::thread::scope(|scope| {
            scope.spawn(|| lookup(k2));
        });
        lookup(k1);
        lookup(k1);
        // Moving on to k3 drops k1, not the other worker's k2.
        lookup(k3);
        lookup(k1);
        lookup(k2);
        let s = cache.stats();
        assert_eq!((s.frontend_misses, s.frontend_hits), (4, 2));
    }

    #[test]
    fn same_configuration_is_stable() {
        let a = key("int x;", &[("N", "10")], OptLevel::O2, Toolchain::Cheerp);
        let b = key("int x;", &[("N", "10")], OptLevel::O2, Toolchain::Cheerp);
        assert_eq!(a, b);
    }

    #[test]
    fn cache_counts_hits_misses_and_bytes_saved() {
        let cache = ArtifactCache::new();
        let k = key("int x;", &[], OptLevel::O2, Toolchain::Cheerp);
        let build = || -> Result<CachedJs, ()> {
            Ok(CachedJs {
                source: "function f() {}".to_string(),
            })
        };
        let first = cache.js(k, build).unwrap();
        let again = cache.js(k, build).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(s.bytes_saved, first.source.len() as u64);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn build_errors_are_not_cached() {
        let cache = ArtifactCache::new();
        let k = key("bad", &[], OptLevel::O2, Toolchain::Cheerp);
        let r: Result<_, String> = cache.js(k, || Err("boom".to_string()));
        assert!(r.is_err());
        // A later successful build fills the slot.
        let ok = cache.js(k, || -> Result<CachedJs, String> {
            Ok(CachedJs { source: "x".into() })
        });
        assert!(ok.is_ok());
    }

    #[test]
    fn a_build_that_panics_leaves_a_slot_the_retry_fills() {
        let cache = ArtifactCache::new();
        let k = key("int z;", &[], OptLevel::O2, Toolchain::Cheerp);
        let panicked = std::panic::catch_unwind(|| {
            cache.js(k, || -> Result<CachedJs, ()> {
                panic!("injected build panic")
            })
        });
        assert!(panicked.is_err());
        let retried = cache
            .js(k, || -> Result<CachedJs, ()> {
                Ok(CachedJs { source: "g".into() })
            })
            .expect("the retry rebuilds the poisoned slot");
        assert_eq!(retried.source, "g");
        let again = cache
            .js(k, || -> Result<CachedJs, ()> {
                unreachable!("slot is filled")
            })
            .unwrap();
        assert!(Arc::ptr_eq(&retried, &again));
    }

    #[test]
    fn concurrent_builders_compile_once() {
        let cache = Arc::new(ArtifactCache::new());
        let k = key("int y;", &[], OptLevel::O2, Toolchain::Cheerp);
        let built = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let built = Arc::clone(&built);
                scope.spawn(move || {
                    cache
                        .js(k, || -> Result<CachedJs, ()> {
                            built.fetch_add(1, Ordering::Relaxed);
                            Ok(CachedJs { source: "f".into() })
                        })
                        .unwrap();
                });
            }
        });
        assert_eq!(built.load(Ordering::Relaxed), 1, "one compile total");
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 7);
    }

    #[test]
    fn a_lookup_of_a_slot_under_construction_counts_one_wait() {
        let cache = ArtifactCache::new();
        let k = key("int w;", &[], OptLevel::O2, Toolchain::Cheerp);
        let building = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                cache
                    .js(k, || -> Result<CachedJs, ()> {
                        building.wait();
                        // Hold the slot until the other lookup has found
                        // it taken (bounded, so a lost count fails below
                        // instead of hanging).
                        let deadline =
                            std::time::Instant::now() + std::time::Duration::from_secs(10);
                        while cache.stats().waits == 0 && std::time::Instant::now() < deadline {
                            std::thread::yield_now();
                        }
                        Ok(CachedJs { source: "w".into() })
                    })
                    .unwrap();
            });
            scope.spawn(|| {
                building.wait();
                cache
                    .js(k, || -> Result<CachedJs, ()> {
                        unreachable!("the other thread builds this key")
                    })
                    .unwrap();
            });
        });
        let s = cache.stats();
        assert_eq!((s.misses, s.hits, s.waits), (1, 1, 1));
    }
}
