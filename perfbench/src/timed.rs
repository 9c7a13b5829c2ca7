//! Untraced passes through the public `GridEngine`/`Run` API, the way
//! the experiment binaries run a grid.

use crate::check::Outcome;
use crate::workloads::{Cell, Target};
use std::time::Instant;
use wb_core::ArtifactCache;
use wb_harness::GridEngine;

/// One pass over a workload's cells.
pub struct Pass {
    /// What each cell produced, in cell order.
    pub outcomes: Vec<Outcome>,
    /// Host seconds each cell took, in cell order.
    pub cell_secs: Vec<f64>,
    /// Host seconds from the first dispatch to the last completion.
    pub wall: f64,
    /// Process user+system CPU seconds over the pass.
    pub cpu: f64,
    /// Worker threads.
    pub jobs: usize,
}

impl Pass {
    /// Cells completed per host second.
    pub fn cells_per_s(&self) -> f64 {
        self.outcomes.len() as f64 / self.wall
    }

    /// Share of worker time spent without a cell: 1 − Σ cell time ⁄
    /// (workers × wall).
    pub fn idle_share(&self) -> f64 {
        1.0 - self.cell_secs.iter().sum::<f64>() / (self.jobs as f64 * self.wall)
    }
}

/// Run every cell once on `jobs` workers through a `GridEngine` with a
/// fresh artifact cache, as a regeneration pays its compiles every time.
pub fn grid_pass(cells: &[Cell], jobs: usize) -> Pass {
    with_fresh_cache(jobs, |engine| {
        let cpu0 = crate::sys::cpu_seconds();
        let t0 = Instant::now();
        let results = engine.map(cells.iter().collect(), |cell: &Cell| {
            let start = Instant::now();
            let outcome = match cell.target {
                Target::Wasm => engine.try_wasm(&cell.run),
                Target::Js => engine.try_js(&cell.run),
                Target::Native => engine.try_native(&cell.run),
            };
            (
                start.elapsed().as_secs_f64(),
                outcome.map_err(|f| f.to_string()),
            )
        });
        let wall = t0.elapsed().as_secs_f64();
        let cpu = crate::sys::cpu_seconds() - cpu0;
        let (cell_secs, outcomes) = results.into_iter().unzip();
        Pass {
            outcomes,
            cell_secs,
            wall,
            cpu,
            jobs,
        }
    })
}

/// Run `f` with a `GridEngine` over an artifact cache that lives only for
/// the call.
///
/// The engine takes its cache as `&'static`, the lifetime of the
/// process-wide cache the experiment binaries share. A benchmark that
/// runs many passes needs a fresh cache per pass whose artifacts are
/// freed afterwards, or memory would grow with the number of passes.
fn with_fresh_cache<R>(jobs: usize, f: impl FnOnce(&GridEngine) -> R) -> R {
    let raw: *mut ArtifactCache = Box::into_raw(Box::new(ArtifactCache::new()));
    // SAFETY: `raw` comes from `Box::into_raw` above and stays valid until
    // the `Box::from_raw` below, after the last use of this reference.
    let cache: &'static ArtifactCache = unsafe { &*raw };
    let engine = GridEngine::with_settings(Some(cache), Some(jobs));
    let out = f(&engine);
    drop(engine);
    // SAFETY: the engine was the only holder of `cache`; it has no accessor
    // that hands the reference out, and its worker threads were joined
    // before `map` returned. It is dropped above, so nothing refers to the
    // cache any more and the box is freed exactly once.
    unsafe { drop(Box::from_raw(raw)) };
    out
}
