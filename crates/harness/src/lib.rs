//! # wb-harness — the study
//!
//! One registry ([`study::ENTRIES`]) holds every paper artifact; `wb
//! regen [<entry>…]` runs the named entries, or all of them, in one
//! process. Each entry writes one CSV per table and `<entry>.txt`, the
//! tables' aligned text, under `results/`:
//!
//! | entry | artifact |
//! |---|---|
//! | `fig5` | Fig 5 — Wasm/JS time & code size across `-O` levels |
//! | `fig6` | Fig 6 — x86 control across `-O` levels |
//! | `table2` | Table 2 — geomean opt-level ratios (JS/Wasm/x86) |
//! | `fig11` | Fig 11 — five-number summaries of opt-level ratios |
//! | `compilers` | §4.2.2 — Cheerp vs Emscripten |
//! | `fig9_chrome` | Fig 9 + Tables 3/4 — input-size sweep on Chrome |
//! | `fig9_firefox` | Fig 9 + Tables 5/6 — input-size sweep on Firefox |
//! | `fig10` | Fig 10 — JIT on/off speedups |
//! | `table7` | Table 7 — Wasm tier policies on Chrome & Firefox |
//! | `fig12_13` | Figs 12/13 + Table 8 — six environments |
//! | `ctxswitch` | §4.5 — JS↔Wasm context-switch microbenchmark |
//! | `table9` | Table 9 — manual JS vs Cheerp JS vs Wasm |
//! | `table10` | Table 10 — Long.js / Hyphenopoly / FFmpeg |
//! | `table12` | Table 12 — Long.js arithmetic operation counts |
//! | `ablations` | extension — per-mechanism ablations |
//! | `levels_extended` | extension — all seven `-O` levels |
//!
//! Shared flags: `--filter <substr>` restricts benchmarks, `--out <dir>`
//! changes the output directory, `--quick` runs a reduced grid, `--jobs
//! N` bounds the worker pool (default: `available_parallelism`),
//! `--no-cache` disables the shared artifact cache and execution memo,
//! `--stats` prints their hit/miss summary and `--reference-exec` runs
//! both VMs with fusion off, one op per dispatch in each VM's one
//! dispatch loop (the measured numbers are bit-identical either way —
//! this flag exists to prove exactly that), `--keep-going` quarantines
//! failed cells instead of exiting and `--retries N` bounds re-runs of a
//! panicking cell. Every entry executes its grid through one
//! [`GridEngine`], which compiles each distinct
//! `(source, defines, level, toolchain, heap)` configuration exactly
//! once per process and executes each distinct run once, pricing it for
//! every environment that shares it — measured virtual numbers are
//! unaffected.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod inject;
pub mod study;

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::Mutex;
use wb_benchmarks::{Benchmark, InputSize};
use wb_core::report::Table;
use wb_core::{
    try_run_compiled_js_with, try_run_native_with, try_run_wasm_with, ArtifactCache, JsSpec,
    Measurement, RunError, RunFailure, TrapKind, WasmSpec,
};
use wb_env::{Environment, JitMode, Nanos, ResourceLimits, TierPolicy, Toolchain, VirtualClock};
use wb_minic::OptLevel;

/// Best-effort text of a caught panic payload (`&str` or `String`
/// payloads cover everything `panic!` produces in this workspace).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Unwrap a run result or exit with the one-line diagnostic every
/// harness binary promises on failure: `error: <label> [<kind>]: <msg>`.
pub fn run_or_exit<T>(label: &str, result: Result<T, RunError>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {label} [{}]: {e}", e.kind());
        std::process::exit(1);
    })
}

/// Minimal CLI flags: `--key value` / `--key=value` / bare `--flag`.
#[derive(Debug, Clone, Default)]
pub struct Cli {
    flags: HashMap<String, String>,
}

impl Cli {
    /// Parse from `std::env::args`.
    pub fn from_env() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parse from an explicit argument list (testable core of [`Cli::from_env`]).
    pub fn from_args<I, S>(args: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut flags = HashMap::new();
        let mut args = args.into_iter().map(Into::into).peekable();
        while let Some(arg) = args.next() {
            if let Some(stripped) = arg.strip_prefix("--") {
                if let Some((k, v)) = stripped.split_once('=') {
                    flags.insert(k.to_string(), v.to_string());
                } else if args.peek().map(|n| !n.starts_with("--")).unwrap_or(false) {
                    let v = args.next().expect("peeked");
                    flags.insert(stripped.to_string(), v);
                } else {
                    flags.insert(stripped.to_string(), "true".to_string());
                }
            }
        }
        Cli { flags }
    }

    /// String flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(|s| s.as_str())
    }

    /// Boolean flag.
    pub fn has(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    /// Benchmarks after `--filter`. Under `--quick` (and no filter) the
    /// suite is subsampled to every fourth benchmark for a fast smoke
    /// grid that still spans both PolyBench and CHStone.
    pub fn benchmarks(&self) -> Vec<Benchmark> {
        let all = wb_benchmarks::all_benchmarks();
        match self.get("filter") {
            Some(f) => all
                .into_iter()
                .filter(|b| b.name.to_lowercase().contains(&f.to_lowercase()))
                .collect(),
            None if self.has("quick") => all.into_iter().step_by(4).collect(),
            None => all,
        }
    }

    /// Worker-thread bound from `--jobs N`. `None` means "use
    /// [`std::thread::available_parallelism`]" (resolved at pool build).
    pub fn jobs(&self) -> Option<usize> {
        self.get("jobs")
            .map(|v| v.parse().expect("--jobs expects a positive integer"))
            .filter(|&n| n > 0)
    }

    /// Whether `--reference-exec` asks for fusion off in both VMs (one op
    /// per dispatch).
    pub fn reference_exec(&self) -> bool {
        self.has("reference-exec")
    }

    /// Whether `--keep-going` asks the grid to degrade gracefully: a
    /// failed cell is recorded (and annotated in the partial-results
    /// CSV) instead of aborting the whole binary.
    pub fn keep_going(&self) -> bool {
        self.has("keep-going")
    }

    /// Bounded retry count from `--retries N` (default 1). Only panics
    /// are retried — deterministic traps fail identically every time.
    pub fn retries(&self) -> u32 {
        self.get("retries")
            .map(|v| v.parse().expect("--retries expects a non-negative integer"))
            .unwrap_or(1)
    }

    /// Input sizes: all five, or `XS,M,XL` under `--quick`.
    pub fn sizes(&self) -> Vec<InputSize> {
        if self.has("quick") {
            vec![InputSize::XS, InputSize::M, InputSize::XL]
        } else {
            InputSize::ALL.to_vec()
        }
    }

    /// CSV output directory (`results/` by default), created on demand.
    pub fn out_dir(&self) -> PathBuf {
        let dir = PathBuf::from(self.get("out").unwrap_or("results"));
        std::fs::create_dir_all(&dir).expect("create results dir");
        dir
    }
}

/// Run a closure per item on a scoped thread pool, preserving order.
/// The VMs are single-threaded; each worker builds its own.
///
/// Ordering guarantee: the result vector is returned in input order
/// regardless of which worker finished when. With one worker the items
/// also run in input order.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_jobs(items, None, f)
}

/// [`parallel_map`] with an explicit worker bound (`--jobs N`). Worker
/// `w` of `k` owns the contiguous share `[w·n/k, (w+1)·n/k)` of the `n`
/// items and claims it front to back; a worker whose share runs out
/// takes the back half of the largest share left. Study grids are
/// kernel-major, so workers start on different kernels and rarely wait
/// on one another's build of the same cache slot.
///
/// A panicking cell does **not** wedge the pool: every other item still
/// runs to completion, and only then is the first panic re-raised on the
/// caller's thread (with the original message). Callers that want
/// panics as per-cell values use [`parallel_map_catch`].
pub fn parallel_map_jobs<T, R, F>(items: Vec<T>, jobs: Option<usize>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let results = parallel_map_catch(items, jobs, f);
    results
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|msg| panic!("grid cell {i} panicked: {msg}")))
        .collect()
}

/// [`parallel_map_jobs`], but a panicking cell yields `Err(message)`
/// instead of killing its worker thread: the pool keeps claiming items
/// and every input produces an output. This is the isolation boundary
/// the grid engine's graceful-degradation mode is built on.
pub fn parallel_map_catch<T, R, F>(
    items: Vec<T>,
    jobs: Option<usize>,
    f: F,
) -> Vec<Result<R, String>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let n_threads = jobs.unwrap_or(cores).max(1).min(items.len().max(1));
    let unclaimed = Mutex::new((
        Shares::new(items.len(), n_threads),
        items.into_iter().map(Some).collect::<Vec<_>>(),
    ));
    let mut out: Vec<(usize, Result<R, String>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..n_threads)
            .map(|worker| {
                let (unclaimed, f) = (&unclaimed, &f);
                scope.spawn(move || {
                    // Recover from a lock poisoned by a panic that escaped
                    // `catch_unwind` (e.g. a panic while unwinding): no user
                    // code runs under the lock, so its data stays valid and
                    // the remaining items must still run.
                    let claim = || {
                        let mut guard = unclaimed
                            .lock()
                            .unwrap_or_else(|poisoned| poisoned.into_inner());
                        let (shares, items) = &mut *guard;
                        let i = shares.claim(worker)?;
                        let t = items[i].take().expect("Shares hands out each index once");
                        Some((i, t))
                    };
                    let mut done = Vec::new();
                    while let Some((i, t)) = claim() {
                        let r = std::panic::catch_unwind(AssertUnwindSafe(|| f(t)))
                            .map_err(panic_message);
                        done.push((i, r));
                    }
                    done
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, r)| r).collect()
}

/// Which item indices of a [`parallel_map_catch`] call each worker has
/// yet to claim: one contiguous range per worker.
///
/// Worker `w` of `k` starts with `[w·n/k, (w+1)·n/k)` and claims it front
/// to back. A worker whose range is empty takes the back half of the
/// largest range left (rounded up, so a last item is taken too). Every
/// range stays contiguous, so a worker keeps to neighbouring cells, and
/// the worker it took from keeps the front it is working through.
struct Shares {
    left: Vec<std::ops::Range<usize>>,
}

impl Shares {
    fn new(n: usize, workers: usize) -> Self {
        Shares {
            left: (0..workers)
                .map(|w| w * n / workers..(w + 1) * n / workers)
                .collect(),
        }
    }

    /// The next index for `worker`, or `None` once every index is
    /// claimed.
    fn claim(&mut self, worker: usize) -> Option<usize> {
        if self.left[worker].is_empty() {
            let largest = (0..self.left.len()).max_by_key(|&w| self.left[w].len())?;
            let victim = &mut self.left[largest];
            let mid = victim.start + victim.len() / 2;
            let stolen = mid..victim.end;
            victim.end = mid;
            self.left[worker] = stolen;
        }
        self.left[worker].next()
    }
}

/// The shared execution engine behind every study entry: one
/// process-wide artifact cache (so identical compiles across grid cells
/// and across worker threads happen once), a `--jobs` bound for the
/// thread pool, and a `--stats` summary.
///
/// Flags: `--no-cache` disables artifact sharing and the execution memo
/// (each cell compiles and executes from scratch — the measured virtual
/// numbers are bit-identical either way), `--jobs N` caps worker
/// threads, `--stats` prints cache hit/miss/bytes-saved, execution
/// memo, slot-wait and front-end counters to stderr at the end.
pub struct GridEngine {
    cache: Option<&'static ArtifactCache>,
    jobs: Option<usize>,
    stats: bool,
    reference_exec: bool,
    keep_going: bool,
    retries: u32,
    failures: Mutex<Vec<CellFailure>>,
}

/// One failed grid cell, as recorded on the engine's quarantine list and
/// written to the `<name>_failures.csv` partial-results annex.
#[derive(Debug)]
pub struct CellFailure {
    /// The whole cell, as [`Run::cell_label`] writes it.
    pub cell: String,
    /// Backend-independent fault class.
    pub kind: TrapKind,
    /// Human-readable error text.
    pub message: String,
    /// Virtual time accumulated before the fault, when the VM got far
    /// enough to have any.
    pub partial_time: Option<Nanos>,
    /// How many attempts were made (1 + retries actually used).
    pub attempts: u32,
}

/// Deterministic backoff before retry `attempt` (1-based): a fixed
/// exponential schedule, a pure function of the attempt number — no
/// jitter, so two runs of the same failing grid retry on the same
/// schedule. Wall-clock sleeps never touch virtual measurements.
fn backoff(attempt: u32) -> std::time::Duration {
    std::time::Duration::from_millis(10u64 << (attempt - 1).min(6))
}

impl GridEngine {
    /// Build from CLI flags.
    pub fn from_cli(cli: &Cli) -> Self {
        GridEngine {
            cache: if cli.has("no-cache") {
                None
            } else {
                Some(ArtifactCache::global())
            },
            jobs: cli.jobs(),
            stats: cli.has("stats"),
            reference_exec: cli.reference_exec(),
            keep_going: cli.keep_going(),
            retries: cli.retries(),
            failures: Mutex::new(Vec::new()),
        }
    }

    /// An engine with explicit settings (testable core of
    /// [`GridEngine::from_cli`]).
    pub fn with_settings(cache: Option<&'static ArtifactCache>, jobs: Option<usize>) -> Self {
        GridEngine {
            cache,
            jobs,
            stats: false,
            reference_exec: false,
            keep_going: false,
            retries: 1,
            failures: Mutex::new(Vec::new()),
        }
    }

    /// [`GridEngine::with_settings`] in graceful-degradation mode
    /// (`--keep-going`): failed cells are quarantined instead of
    /// aborting the binary.
    pub fn with_keep_going(mut self) -> Self {
        self.keep_going = true;
        self
    }

    /// Map the grid over the worker pool ([`parallel_map_jobs`]: results
    /// in input order, each worker on its own contiguous share of the
    /// cells, bounded by `--jobs`).
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        parallel_map_jobs(items, self.jobs, f)
    }

    /// Execute a cell's Wasm build through the shared cache. Strict by
    /// default (one-line diagnostic on stderr, exit 1); under
    /// `--keep-going` a failed cell yields its partial measurement (or a
    /// zeroed one) and lands on the quarantine list.
    pub fn wasm(&self, run: &Run) -> Measurement {
        self.degrade(run, "wasm", self.try_wasm(run))
    }

    /// Execute a cell's compiled-JS build through the shared cache
    /// (strict / keep-going semantics as [`GridEngine::wasm`]).
    pub fn js(&self, run: &Run) -> Measurement {
        self.degrade(run, "js", self.try_js(run))
    }

    /// Execute a cell's native control build through the shared cache
    /// (strict / keep-going semantics as [`GridEngine::wasm`]).
    pub fn native(&self, run: &Run) -> Measurement {
        self.degrade(run, "native", self.try_native(run))
    }

    /// Fallible Wasm cell: panics are caught at the cell boundary, only
    /// panics are retried (deterministic traps fail identically), and a
    /// cell that exhausts its attempts is quarantined.
    pub fn try_wasm(&self, run: &Run) -> Result<Measurement, RunFailure> {
        let cell = self.configured(run);
        self.attempt(&cell.cell_label("wasm"), || cell.try_wasm_with(self.cache))
    }

    /// Fallible compiled-JS cell (semantics as [`GridEngine::try_wasm`]).
    pub fn try_js(&self, run: &Run) -> Result<Measurement, RunFailure> {
        let cell = self.configured(run);
        self.attempt(&cell.cell_label("js"), || cell.try_js_with(self.cache))
    }

    /// Fallible native cell (semantics as [`GridEngine::try_wasm`]).
    pub fn try_native(&self, run: &Run) -> Result<Measurement, RunFailure> {
        self.attempt(&run.cell_label("native"), || {
            run.try_native_with(self.cache)
        })
    }

    /// A cell with the engine-wide `--reference-exec` choice applied.
    fn configured(&self, run: &Run) -> Run {
        let mut run = run.clone();
        run.reference_exec |= self.reference_exec;
        run
    }

    /// Per-cell isolation + bounded retry. Each attempt runs under
    /// `catch_unwind`, so a panicking cell becomes [`RunError::Panic`]
    /// instead of tearing down the worker. Panics get up to `--retries`
    /// re-attempts on the deterministic [`backoff`] schedule;
    /// deterministic faults (traps, limits, compile errors) fail
    /// identically every time, so they don't.
    fn attempt(
        &self,
        label: &str,
        f: impl Fn() -> Result<Measurement, RunFailure>,
    ) -> Result<Measurement, RunFailure> {
        let mut attempts = 0u32;
        let failure = loop {
            attempts += 1;
            let outcome = match std::panic::catch_unwind(AssertUnwindSafe(&f)) {
                Ok(r) => r,
                Err(payload) => Err(RunFailure {
                    error: RunError::Panic(panic_message(payload)),
                    partial: None,
                }),
            };
            match outcome {
                Ok(m) => return Ok(m),
                Err(fail) => {
                    let retryable = matches!(fail.error, RunError::Panic(_));
                    if retryable && attempts <= self.retries {
                        std::thread::sleep(backoff(attempts));
                        continue;
                    }
                    break fail;
                }
            }
        };
        self.record_failure(label, &failure, attempts);
        Err(failure)
    }

    /// Put a spent cell on the quarantine list (deduplicated by its
    /// [`Run::cell_label`] and kept sorted by it, so the list does not
    /// depend on which worker finished first).
    fn record_failure(&self, label: &str, failure: &RunFailure, attempts: u32) {
        let mut failures = self.failures();
        let Err(at) = failures.binary_search_by(|f| f.cell.as_str().cmp(label)) else {
            return; // already quarantined; don't double-report
        };
        failures.insert(
            at,
            CellFailure {
                cell: label.to_string(),
                kind: failure.error.kind(),
                message: failure.error.to_string(),
                partial_time: failure.partial.as_ref().map(|m| m.time),
                attempts,
            },
        );
    }

    /// Strict-vs-keep-going policy for the infallible cell methods.
    fn degrade(
        &self,
        run: &Run,
        backend: &'static str,
        outcome: Result<Measurement, RunFailure>,
    ) -> Measurement {
        match outcome {
            Ok(m) => m,
            Err(fail) if self.keep_going => {
                fail.partial.map(|m| *m).unwrap_or_else(zero_measurement)
            }
            Err(fail) => {
                eprintln!(
                    "error: {} [{}]: {}",
                    run.cell_label(backend),
                    fail.error.kind(),
                    fail.error
                );
                std::process::exit(1);
            }
        }
    }

    /// The quarantine list: every cell that exhausted its attempts,
    /// sorted by [`Run::cell_label`].
    pub fn failures(&self) -> std::sync::MutexGuard<'_, Vec<CellFailure>> {
        self.failures
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Number of quarantined cells.
    pub fn failure_count(&self) -> usize {
        self.failures().len()
    }

    /// Write the partial-results annex `<name>_failures.csv` (one row
    /// per quarantined cell, sorted by cell label) when any cell failed,
    /// and print the quarantine summary. No file is written on a clean
    /// grid, so default runs produce byte-identical `results/` trees.
    pub fn emit_failures(&self, cli: &Cli, name: &str) {
        let failures = self.failures();
        if failures.is_empty() {
            return;
        }
        let mut table = Table::new(
            &format!("{name}: quarantined cells (partial results)"),
            &["cell", "kind", "attempts", "partial virtual ns", "error"],
        );
        for f in failures.iter() {
            table.row(vec![
                f.cell.clone(),
                f.kind.to_string(),
                f.attempts.to_string(),
                f.partial_time
                    .map(|t| format!("{}", t.0))
                    .unwrap_or_else(|| "-".to_string()),
                f.message.clone(),
            ]);
        }
        let path = cli.out_dir().join(format!("{name}_failures.csv"));
        std::fs::write(&path, table.to_csv()).expect("write failures csv");
        eprintln!(
            "[quarantine] {} cell(s) failed; annotated in {}",
            failures.len(),
            path.display()
        );
    }

    /// Print the `--stats` / quarantine summary and, under
    /// `--keep-going`, write the failure annex. Call once, after the
    /// grid. Exits nonzero when cells were quarantined, so a degraded
    /// grid is still visible to scripts.
    pub fn finish_with(&self, cli: &Cli, name: &str) {
        self.emit_failures(cli, name);
        self.finish();
        if self.failure_count() > 0 {
            std::process::exit(2);
        }
    }

    /// Print the `--stats` summary (call once, after the grid).
    pub fn finish(&self) {
        for f in self.failures().iter() {
            eprintln!(
                "[quarantine] {} [{}] after {} attempt(s): {}",
                f.cell, f.kind, f.attempts, f.message
            );
        }
        if !self.stats {
            return;
        }
        match self.cache {
            Some(cache) => {
                let s = cache.stats();
                eprintln!(
                    "[cache] {} hits / {} misses ({:.1}% hit rate), {} artifact bytes not re-built",
                    s.hits,
                    s.misses,
                    100.0 * s.hit_rate(),
                    s.bytes_saved
                );
                eprintln!(
                    "[cache] executions: {} memo hits / {} executed, {} waits",
                    s.exec_hits, s.exec_misses, s.waits
                );
                eprintln!(
                    "[cache] front ends: {} reused / {} built",
                    s.frontend_hits, s.frontend_misses
                );
            }
            None => eprintln!("[cache] disabled (--no-cache)"),
        }
    }
}

/// The sentinel a quarantined cell contributes under `--keep-going`
/// when it faulted before producing any measurement state.
fn zero_measurement() -> Measurement {
    Measurement {
        time: Nanos::ZERO,
        clock: VirtualClock::new(),
        memory_bytes: 0,
        code_size: 0,
        counts: wb_env::OpCounts::new(),
        arith: wb_env::ArithCounts::default(),
        output: Vec::new(),
        context_switches: 0,
    }
}

/// One benchmark run request (a grid cell).
#[derive(Debug, Clone)]
pub struct Run {
    /// Which benchmark.
    pub benchmark: Benchmark,
    /// Dataset size.
    pub size: InputSize,
    /// Optimization level.
    pub level: OptLevel,
    /// Toolchain.
    pub toolchain: Toolchain,
    /// Environment.
    pub env: Environment,
    /// Wasm tier policy.
    pub tier_policy: TierPolicy,
    /// JS JIT mode.
    pub jit: JitMode,
    /// Run both VMs with fusion off (one op per dispatch).
    pub reference_exec: bool,
    /// Resource ceilings (fuel, memory, call depth). Default-unlimited,
    /// so study grids are bit-identical to the pre-limit engine; the
    /// fault-injection harness tightens them per cell.
    pub limits: ResourceLimits,
}

impl Run {
    /// Default configuration of a benchmark at a size (the study
    /// baseline: Cheerp `-O2`, desktop Chrome, default tiers).
    pub fn new(benchmark: Benchmark, size: InputSize) -> Self {
        Run {
            benchmark,
            size,
            level: OptLevel::O2,
            toolchain: Toolchain::Cheerp,
            env: Environment::desktop_chrome(),
            tier_policy: TierPolicy::Default,
            jit: JitMode::Enabled,
            reference_exec: false,
            limits: ResourceLimits::default(),
        }
    }

    /// `benchmark/size/level/backend` label.
    pub fn label(&self, backend: &str) -> String {
        format!(
            "{}/{:?}/{}/{backend}",
            self.benchmark.name,
            self.size,
            self.level.name()
        )
    }

    /// The whole cell: [`Run::label`] plus every setting it leaves out —
    /// toolchain, environment, tier policy and JIT mode, then the limits
    /// and `reference-exec` when they differ from the study default.
    /// Keys the quarantine list and labels failure rows, so cells that
    /// differ only in a run-time setting stay apart.
    pub fn cell_label(&self, backend: &str) -> String {
        let mut label = format!(
            "{} {:?} {} {:?} {:?}",
            self.label(backend),
            self.toolchain,
            self.env.label(),
            self.tier_policy,
            self.jit
        );
        let l = self.limits;
        if l != ResourceLimits::default() {
            let show = |v: Option<u64>| v.map_or("-".to_string(), |v| v.to_string());
            label += &format!(
                " fuel={} memory={} depth={}",
                show(l.fuel),
                show(l.max_memory_bytes),
                l.max_call_depth
            );
        }
        if self.reference_exec {
            label += " reference-exec";
        }
        label
    }

    /// Execute the Wasm build.
    pub fn wasm(&self) -> Measurement {
        self.wasm_with(None)
    }

    /// Execute the Wasm build, optionally through an artifact cache.
    pub fn wasm_with(&self, cache: Option<&ArtifactCache>) -> Measurement {
        self.try_wasm_with(cache)
            .unwrap_or_else(|e| panic!("{} wasm: {e}", self.benchmark.name))
    }

    /// Execute the Wasm build, returning the failure (with partial
    /// measurement state) instead of panicking.
    pub fn try_wasm_with(&self, cache: Option<&ArtifactCache>) -> Result<Measurement, RunFailure> {
        let spec = WasmSpec {
            source: self.benchmark.source,
            defines: self.benchmark.defines(self.size),
            level: self.level,
            toolchain: self.toolchain,
            env: self.env,
            tier_policy: self.tier_policy,
            heap_limit: Some(256 << 20),
            reference_exec: self.reference_exec,
            limits: self.limits,
            entry: "bench_main",
        };
        try_run_wasm_with(&spec, cache)
    }

    /// Execute the compiled-JS build.
    pub fn js(&self) -> Measurement {
        self.js_with(None)
    }

    /// Execute the compiled-JS build, optionally through an artifact cache.
    pub fn js_with(&self, cache: Option<&ArtifactCache>) -> Measurement {
        self.try_js_with(cache)
            .unwrap_or_else(|e| panic!("{} js: {e}", self.benchmark.name))
    }

    /// Execute the compiled-JS build, returning the failure (with
    /// partial measurement state) instead of panicking.
    pub fn try_js_with(&self, cache: Option<&ArtifactCache>) -> Result<Measurement, RunFailure> {
        let spec = JsSpec {
            source: self.benchmark.source,
            defines: self.benchmark.defines(self.size),
            level: self.level,
            toolchain: self.toolchain,
            env: self.env,
            jit: self.jit,
            reference_exec: self.reference_exec,
            limits: self.limits,
            trap_checks: false,
            entry: "bench_main",
        };
        try_run_compiled_js_with(&spec, cache)
    }

    /// Execute the native control build (Fig 6).
    pub fn native(&self) -> Measurement {
        self.native_with(None)
    }

    /// Execute the native control build, optionally through an artifact
    /// cache.
    pub fn native_with(&self, cache: Option<&ArtifactCache>) -> Measurement {
        self.try_native_with(cache)
            .unwrap_or_else(|e| panic!("{} native: {e}", self.benchmark.name))
    }

    /// Execute the native control build, returning the failure instead
    /// of panicking.
    pub fn try_native_with(
        &self,
        cache: Option<&ArtifactCache>,
    ) -> Result<Measurement, RunFailure> {
        try_run_native_with(
            self.benchmark.source,
            &self.benchmark.defines(self.size),
            self.level,
            "bench_main",
            self.limits,
            cache,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::Shares;

    #[test]
    fn initial_shares_are_contiguous_and_cover_every_index() {
        for n in 0..64 {
            for k in 1..8 {
                let left = Shares::new(n, k).left;
                assert_eq!(left.len(), k);
                assert_eq!(left[0].start, 0, "n={n} k={k}");
                assert_eq!(left[k - 1].end, n, "n={n} k={k}");
                for pair in left.windows(2) {
                    assert_eq!(pair[0].end, pair[1].start, "n={n} k={k}");
                }
                let lens: Vec<usize> = left.iter().map(|r| r.len()).collect();
                let (lo, hi) = (lens.iter().min(), lens.iter().max());
                assert!(hi.zip(lo).is_some_and(|(hi, lo)| hi - lo <= 1), "{lens:?}");
            }
        }
    }

    #[test]
    fn an_idle_worker_takes_the_back_half_of_the_largest_share() {
        let mut shares = Shares::new(10, 3);
        assert_eq!(shares.left, [0..3, 3..6, 6..10]);
        assert_eq!(shares.claim(1), Some(3));
        assert_eq!(
            (0..3).map(|_| shares.claim(0)).collect::<Vec<_>>(),
            [Some(0), Some(1), Some(2)]
        );
        // Worker 0 is out: worker 2's 6..10 is the largest share left.
        assert_eq!(shares.claim(0), Some(8));
        assert_eq!(shares.left, [9..10, 4..6, 6..8]);
        // An odd share gives up its larger back half; a last item goes too.
        let mut shares = Shares::new(3, 2);
        assert_eq!(shares.left, [0..1, 1..3]);
        assert_eq!(shares.claim(0), Some(0));
        assert_eq!(shares.claim(0), Some(2));
        assert_eq!(shares.left, [3..3, 1..2]);
        assert_eq!(shares.claim(0), Some(1));
        assert_eq!(shares.claim(1), None);
    }

    #[test]
    fn every_index_is_claimed_exactly_once() {
        // Three claim schedules: round-robin, one worker three times as
        // often as the rest, and one worker alone until it runs dry.
        let schedules: [fn(usize, usize) -> usize; 3] = [
            |step, k| step % k,
            |step, k| if step % 4 == 3 { step / 4 % k } else { 0 },
            |_, k| k - 1,
        ];
        for n in 0..64 {
            for k in 1..8 {
                for schedule in schedules {
                    let mut shares = Shares::new(n, k);
                    let mut claimed = vec![0u32; n];
                    let mut step = 0;
                    while let Some(i) = shares.claim(schedule(step, k)) {
                        claimed[i] += 1;
                        step += 1;
                    }
                    assert!(claimed.iter().all(|&c| c == 1), "n={n} k={k}");
                    assert!((0..k).all(|w| shares.claim(w).is_none()), "n={n} k={k}");
                }
            }
        }
    }
}
