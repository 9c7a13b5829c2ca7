//! The workloads: fixed slices of the paper's grid, each chosen to load
//! one layer. The seed only decides which of the lighter kernels take
//! part; the program receives the generated cells.

use wb_benchmarks::{all_benchmarks, Benchmark, InputSize};
use wb_env::rng::Lcg;
use wb_env::{Environment, JitMode, TierPolicy};
use wb_harness::Run;
use wb_minic::OptLevel;

/// Which backend a cell runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// MiniC → Wasm in the wasm VM.
    Wasm,
    /// MiniC → JS in the JS VM.
    Js,
    /// MiniC → native evaluator (the x86 control).
    Native,
}

impl Target {
    /// Lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Target::Wasm => "wasm",
            Target::Js => "js",
            Target::Native => "native",
        }
    }
}

/// One grid cell: a run request on one backend.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Position in the workload's cell list.
    pub id: usize,
    /// The grid coordinates.
    pub run: Run,
    /// The backend.
    pub target: Target,
}

impl Cell {
    /// `benchmark/size/level/target` plus the settings the label leaves out.
    pub fn label(&self) -> String {
        format!(
            "{} {} {:?} {:?}",
            self.run.label(self.target.name()),
            self.run.env.label(),
            self.run.tier_policy,
            self.run.jit
        )
    }
}

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Compile-bound kernels at XS, all 7 `-O` levels, wasm/js/native.
    CompileXs,
    /// The fig9 Chrome cells at L: wasm and js at `-O2`.
    ExecLarge,
    /// Kernels at M in all six environments under every tier/JIT mode.
    EnvSweep,
}

/// Kernels whose XS runs are dominated by execution, not compilation.
const EXEC_HEAVY_AT_XS: [&str; 3] = ["AES", "MIPS", "BLOWFISH"];
/// The five kernels with the largest golden fig9 L wasm + js time. They
/// take two thirds of the L grid's host time (MIPS alone a third), so
/// with them a pass lasts about 10 s and a run holds too few passes for
/// a steady median; `exec_large` leaves them out.
const HEAVIEST_AT_L: [&str; 5] = ["heat-3d", "seidel-2d", "jacobi-2d", "fdtd-2d", "MIPS"];
/// The lighter half of `exec_large`'s pool by golden fig9 L wasm + js
/// time, lightest first: the kernels a seed may leave out.
const EXEC_LARGE_LIGHT: [&str; 18] = [
    "durbin", "trisolv", "SHA", "ADPCM", "MOTION", "cholesky", "BLOWFISH", "DFADD", "nussinov",
    "ludcmp", "DFMUL", "GSM", "bicg", "lu", "atax", "mvt", "gesummv", "trmm",
];
/// `env_sweep`'s pool: the 20 kernels with the smallest golden fig12_13
/// time summed over the six environments, lightest first. A seed may
/// leave out one of the first ten.
const ENV_SWEEP_POOL: [&str; 20] = [
    "durbin",
    "trisolv",
    "cholesky",
    "ludcmp",
    "SHA",
    "nussinov",
    "lu",
    "MOTION",
    "jacobi-1d",
    "ADPCM",
    "trmm",
    "GSM",
    "covariance",
    "atax",
    "bicg",
    "DFADD",
    "syrk",
    "correlation",
    "mvt",
    "doitgen",
];
/// Kernels each seed leaves out, drawn from the lighter half of the pool
/// so the heavy cells that set a pass's wall time are always there. One
/// keeps the per-cell mix, and so the metrics, steady across seeds.
const DROPPED: usize = 1;

impl Workload {
    /// Every workload, in the order they are documented.
    pub const ALL: [Workload; 3] = [Workload::CompileXs, Workload::ExecLarge, Workload::EnvSweep];

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CompileXs => "compile_xs",
            Workload::ExecLarge => "exec_large",
            Workload::EnvSweep => "env_sweep",
        }
    }

    /// The kernels this seed draws, in corpus order.
    pub fn kernels(self, seed: u64) -> Vec<Benchmark> {
        let mut rng = Lcg::new(seed);
        let corpus = all_benchmarks();
        match self {
            Workload::CompileXs => {
                let pool: Vec<Benchmark> = corpus
                    .into_iter()
                    .filter(|b| !EXEC_HEAVY_AT_XS.contains(&b.name))
                    .collect();
                // Compile time grows with the program's size.
                let mut by_size: Vec<&Benchmark> = pool.iter().collect();
                by_size.sort_by_key(|b| (b.source.len(), b.name));
                let light: Vec<&str> = by_size[..pool.len() / 2].iter().map(|b| b.name).collect();
                draw(pool, &light, &mut rng)
            }
            Workload::ExecLarge => {
                let pool = corpus
                    .into_iter()
                    .filter(|b| !HEAVIEST_AT_L.contains(&b.name))
                    .collect();
                draw(pool, &EXEC_LARGE_LIGHT, &mut rng)
            }
            Workload::EnvSweep => {
                let pool = corpus
                    .into_iter()
                    .filter(|b| ENV_SWEEP_POOL.contains(&b.name))
                    .collect();
                draw(pool, &ENV_SWEEP_POOL[..ENV_SWEEP_POOL.len() / 2], &mut rng)
            }
        }
    }

    /// The workload's cells over `kernels`, in grid order (kernel-major,
    /// as the experiment binaries dispatch them).
    pub fn cells(self, kernels: &[Benchmark]) -> Vec<Cell> {
        let mut runs: Vec<(Run, Target)> = Vec::new();
        for b in kernels {
            match self {
                Workload::CompileXs => {
                    for level in OptLevel::ALL {
                        for target in [Target::Wasm, Target::Js, Target::Native] {
                            let mut run = Run::new(b.clone(), InputSize::XS);
                            run.level = level;
                            runs.push((run, target));
                        }
                    }
                }
                Workload::ExecLarge => {
                    for target in [Target::Wasm, Target::Js] {
                        runs.push((Run::new(b.clone(), InputSize::L), target));
                    }
                }
                Workload::EnvSweep => {
                    for env in Environment::all_six() {
                        let mut base = Run::new(b.clone(), InputSize::M);
                        base.env = env;
                        for policy in [
                            TierPolicy::Default,
                            TierPolicy::BasicOnly,
                            TierPolicy::OptimizingOnly,
                        ] {
                            let mut run = base.clone();
                            run.tier_policy = policy;
                            runs.push((run, Target::Wasm));
                        }
                        for jit in [JitMode::Enabled, JitMode::Disabled] {
                            let mut run = base.clone();
                            run.jit = jit;
                            runs.push((run, Target::Js));
                        }
                    }
                }
            }
        }
        runs.into_iter()
            .enumerate()
            .map(|(id, (run, target))| Cell { id, run, target })
            .collect()
    }
}

/// `pool` without [`DROPPED`] seed-chosen kernels of `light`, in corpus
/// order.
fn draw(pool: Vec<Benchmark>, light: &[&str], rng: &mut Lcg) -> Vec<Benchmark> {
    let mut light = light.to_vec();
    let mut dropped = Vec::new();
    for _ in 0..DROPPED.min(light.len()) {
        dropped.push(light.swap_remove(rng.index(light.len())));
    }
    pool.into_iter()
        .filter(|b| !dropped.contains(&b.name))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goldens::Goldens;

    fn names(kernels: &[Benchmark]) -> Vec<&'static str> {
        kernels.iter().map(|b| b.name).collect()
    }

    #[test]
    fn same_seed_same_cells_and_seeds_differ() {
        for w in Workload::ALL {
            let a = w.kernels(1);
            assert_eq!(names(&a), names(&w.kernels(1)));
            assert!((2..40).any(|s| names(&w.kernels(s)) != names(&a)));
        }
        assert_eq!(Workload::CompileXs.kernels(1).len(), 38 - DROPPED);
        assert_eq!(Workload::ExecLarge.kernels(1).len(), 36 - DROPPED);
        assert_eq!(Workload::EnvSweep.kernels(1).len(), 20 - DROPPED);
    }

    #[test]
    fn heavy_half_is_always_drawn() {
        let pool: Vec<Benchmark> = all_benchmarks()
            .into_iter()
            .filter(|b| !EXEC_HEAVY_AT_XS.contains(&b.name))
            .collect();
        let mut by_size: Vec<&Benchmark> = pool.iter().collect();
        by_size.sort_by_key(|b| (b.source.len(), b.name));
        for seed in 0..20 {
            let drawn = names(&Workload::CompileXs.kernels(seed));
            for b in &by_size[pool.len() / 2..] {
                assert!(drawn.contains(&b.name), "seed {seed} dropped {}", b.name);
            }
            let drawn = names(&Workload::EnvSweep.kernels(seed));
            for name in &ENV_SWEEP_POOL[ENV_SWEEP_POOL.len() / 2..] {
                assert!(drawn.contains(name), "seed {seed} dropped {name}");
            }
        }
    }

    /// The pools are the committed goldens' rankings.
    #[test]
    fn pools_follow_the_goldens() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../results");
        let g = Goldens::load(&dir).expect("goldens");
        let ranked = |weight: &dyn Fn(&str) -> f64| {
            let mut by: Vec<(f64, &str)> = all_benchmarks()
                .iter()
                .map(|b| (weight(b.name), b.name))
                .collect();
            by.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(b.1)));
            by.into_iter().map(|w| w.1).collect::<Vec<_>>()
        };
        let at_l = ranked(&|name| g.sum_for("fig9_chrome", &format!("{name},L"), &[2, 3]));
        let (pool, heaviest) = at_l.split_at(at_l.len() - HEAVIEST_AT_L.len());
        assert_eq!(heaviest, HEAVIEST_AT_L);
        assert_eq!(&pool[..pool.len() / 2], EXEC_LARGE_LIGHT);
        let at_m = ranked(&|name| g.sum_for("fig12_13", name, &[2, 3]));
        assert_eq!(&at_m[..ENV_SWEEP_POOL.len()], ENV_SWEEP_POOL);
    }

    #[test]
    fn cell_counts_per_kernel() {
        let k = &Workload::CompileXs.kernels(3)[..1];
        assert_eq!(Workload::CompileXs.cells(k).len(), 21);
        assert_eq!(Workload::ExecLarge.cells(k).len(), 2);
        assert_eq!(Workload::EnvSweep.cells(k).len(), 30);
    }
}
