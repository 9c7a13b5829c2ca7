//! # wb-analysis — the static verification layer
//!
//! Ties the repo's four static analyses into one corpus-wide sweep
//! (DESIGN.md §8), exposed to the command line as `wb analyze`:
//!
//! 1. **IR verification** — every kernel's typed HIR is run through
//!    [`wb_minic::passes::run_pipeline_verified`] at all seven opt levels
//!    for all three targets; a pass that breaks an invariant is named.
//! 2. **Wasm type-checking** — every module the compiler emits (all
//!    kernels × all levels) is validated by the stack-polymorphic
//!    type-checker in `wb_wasm::validate`, with function/instruction
//!    context on failure.
//! 3. **Fusion cost-equivalence** — both VMs' fusion tables are
//!    symbolically audited ([`wb_wasm_vm::audit`], [`wb_jsvm::audit`]):
//!    every fused family × operator instance must round-trip through the
//!    matcher and enter exactly the regions its constituents enter, so it
//!    charges their cost.
//! 4. **Corpus lints** ([`lint`]) — advisory findings (constant-index
//!    out-of-bounds, uninitialized locals, dead results) across all
//!    kernels × dataset sizes.
//!
//! Checks 1–3 are hard: any failure makes the report fail. Lints are
//! warnings and never fail a run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lint;

use lint::LintFinding;
use wb_benchmarks::{all_benchmarks, InputSize};
use wb_minic::passes::{run_pipeline_verified, TargetKind};
use wb_minic::{Compiler, OptLevel};

/// All seven optimization levels, in sweep order.
pub const ALL_LEVELS: [OptLevel; 7] = [
    OptLevel::O0,
    OptLevel::O1,
    OptLevel::O2,
    OptLevel::O3,
    OptLevel::Ofast,
    OptLevel::Os,
    OptLevel::Oz,
];

const ALL_TARGETS: [(TargetKind, &str); 3] = [
    (TargetKind::Wasm, "wasm"),
    (TargetKind::Js, "js"),
    (TargetKind::Native, "native"),
];

/// Outcome of one hard check (IR verification or Wasm validation).
#[derive(Debug, Clone)]
pub struct Check {
    /// Kernel name.
    pub kernel: String,
    /// Opt level (`-O2` style).
    pub level: String,
    /// Target or engine the check ran against.
    pub subject: String,
    /// Whether the check passed.
    pub ok: bool,
    /// Diagnostic on failure.
    pub error: Option<String>,
}

/// A lint finding with its corpus coordinates.
#[derive(Debug, Clone)]
pub struct CorpusLint {
    /// Kernel name.
    pub kernel: String,
    /// Dataset size name.
    pub size: String,
    /// The finding.
    pub finding: LintFinding,
}

/// What to sweep. [`AnalysisConfig::full`] covers the acceptance surface;
/// [`AnalysisConfig::quick`] is a smoke subset for tests.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Kernels to analyze (names from the 41-kernel corpus); empty = all.
    pub kernels: Vec<String>,
    /// Dataset sizes the lints sweep.
    pub sizes: Vec<InputSize>,
    /// Run the fusion cost-equivalence audit.
    pub fusion: bool,
}

impl AnalysisConfig {
    /// The full corpus: 41 kernels × 7 levels × 3 targets, lints at all
    /// five sizes, both fusion tables.
    pub fn full() -> Self {
        AnalysisConfig {
            kernels: Vec::new(),
            sizes: InputSize::ALL.to_vec(),
            fusion: true,
        }
    }

    /// A fast subset (three kernels, one size) for smoke tests.
    pub fn quick() -> Self {
        AnalysisConfig {
            kernels: vec!["gemm".into(), "jacobi-2d".into(), "AES".into()],
            sizes: vec![InputSize::XS],
            fusion: true,
        }
    }
}

/// The machine-readable result of a sweep.
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    /// IR-verification outcomes (kernel × level × target).
    pub ir: Vec<Check>,
    /// Wasm type-check outcomes (kernel × level).
    pub wasm: Vec<Check>,
    /// Fusion-audit outcomes (engine × family × operator).
    pub fusion: Vec<Check>,
    /// Advisory lint findings (kernel × size).
    pub lints: Vec<CorpusLint>,
}

impl AnalysisReport {
    /// Whether every hard check passed (lints don't count).
    pub fn ok(&self) -> bool {
        self.ir.iter().all(|c| c.ok)
            && self.wasm.iter().all(|c| c.ok)
            && self.fusion.iter().all(|c| c.ok)
    }

    /// Failed hard checks, in report order.
    pub fn failures(&self) -> Vec<&Check> {
        self.ir
            .iter()
            .chain(&self.wasm)
            .chain(&self.fusion)
            .filter(|c| !c.ok)
            .collect()
    }

    /// One-paragraph human summary.
    pub fn summary(&self) -> String {
        format!(
            "ir: {}/{} ok, wasm: {}/{} ok, fusion: {}/{} ok, lints: {} finding(s)",
            self.ir.iter().filter(|c| c.ok).count(),
            self.ir.len(),
            self.wasm.iter().filter(|c| c.ok).count(),
            self.wasm.len(),
            self.fusion.iter().filter(|c| c.ok).count(),
            self.fusion.len(),
            self.lints.len(),
        )
    }

    /// Deterministic JSON rendering (same hand-rolled style as the
    /// harness result writers; no external dependencies).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"ok\": {},\n", self.ok()));
        s.push_str(&format!("  \"summary\": \"{}\",\n", esc(&self.summary())));
        for (key, checks) in [
            ("ir", &self.ir),
            ("wasm", &self.wasm),
            ("fusion", &self.fusion),
        ] {
            s.push_str(&format!("  \"{key}\": [\n"));
            // Only failures carry detail; passing checks are summarized by
            // the counts above to keep the report reviewable.
            let mut first = true;
            for c in checks.iter().filter(|c| !c.ok) {
                if !first {
                    s.push_str(",\n");
                }
                first = false;
                s.push_str(&format!(
                    "    {{\"kernel\": \"{}\", \"level\": \"{}\", \"subject\": \"{}\", \"error\": \"{}\"}}",
                    esc(&c.kernel),
                    esc(&c.level),
                    esc(&c.subject),
                    esc(c.error.as_deref().unwrap_or(""))
                ));
            }
            if !first {
                s.push('\n');
            }
            s.push_str("  ],\n");
        }
        s.push_str(&format!(
            "  \"checks\": {},\n",
            self.ir.len() + self.wasm.len() + self.fusion.len()
        ));
        s.push_str("  \"lints\": [\n");
        for (i, l) in self.lints.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"kernel\": \"{}\", \"size\": \"{}\", \"lint\": \"{}\", \"func\": \"{}\", \"message\": \"{}\"}}{}\n",
                esc(&l.kernel),
                esc(&l.size),
                esc(l.finding.lint),
                esc(&l.finding.func),
                esc(&l.finding.message),
                if i + 1 < self.lints.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

fn esc(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn level_name(l: OptLevel) -> &'static str {
    match l {
        OptLevel::O0 => "-O0",
        OptLevel::O1 => "-O1",
        OptLevel::O2 => "-O2",
        OptLevel::O3 => "-O3",
        OptLevel::Ofast => "-Ofast",
        OptLevel::Os => "-Os",
        OptLevel::Oz => "-Oz",
    }
}

/// Run the configured sweep.
pub fn analyze(cfg: &AnalysisConfig) -> AnalysisReport {
    let mut report = AnalysisReport::default();
    let benches: Vec<_> = all_benchmarks()
        .into_iter()
        .filter(|b| cfg.kernels.is_empty() || cfg.kernels.iter().any(|k| k == b.name))
        .collect();

    for bench in &benches {
        // Front end once per kernel at M: the IR checks, each level's
        // Wasm compile and the M lints start from it (verification
        // invariants don't depend on the dataset; lints sweep the sizes
        // below).
        let mut compiler = Compiler::cheerp();
        for (k, v) in bench.defines(InputSize::M) {
            compiler = compiler.define(&k, v);
        }
        let front = compiler.frontend(bench.source);
        for level in ALL_LEVELS {
            for (target, tname) in ALL_TARGETS {
                let (ok, error) = match &front {
                    Ok((hir, _)) => {
                        let mut h = hir.clone();
                        match run_pipeline_verified(&mut h, level, target) {
                            Ok(()) => (true, None),
                            Err(e) => (false, Some(e.to_string())),
                        }
                    }
                    Err(e) => (false, Some(format!("frontend: {e}"))),
                };
                report.ir.push(Check {
                    kernel: bench.name.to_string(),
                    level: level_name(level).into(),
                    subject: tname.into(),
                    ok,
                    error,
                });
            }

            // Emit and type-check the Wasm artifact at this level.
            let c = compiler.clone().opt_level(level).verify_ir(false);
            let (ok, error) = match front.clone().and_then(|f| c.compile_wasm_from(f)) {
                Ok(out) => match wb_wasm::validate(&out.module) {
                    Ok(()) => (true, None),
                    Err(e) => (false, Some(e.to_string())),
                },
                Err(e) => (false, Some(format!("compile: {e}"))),
            };
            report.wasm.push(Check {
                kernel: bench.name.to_string(),
                level: level_name(level).into(),
                subject: "wasm".into(),
                ok,
                error,
            });
        }

        // Lints, per dataset size: raw HIR for flow lints, folded (-O1)
        // HIR for constant-index bounds.
        for &size in &cfg.sizes {
            let sized = if size == InputSize::M {
                front.clone()
            } else {
                let mut c = Compiler::cheerp();
                for (k, v) in bench.defines(size) {
                    c = c.define(&k, v);
                }
                c.frontend(bench.source)
            };
            let Ok((raw, _)) = sized else {
                continue; // already reported as an IR failure above
            };
            let mut folded = raw.clone();
            let _ = run_pipeline_verified(&mut folded, OptLevel::O1, TargetKind::Wasm);
            for finding in lint::lint_program(&raw, &folded) {
                report.lints.push(CorpusLint {
                    kernel: bench.name.to_string(),
                    size: size.name().to_string(),
                    finding,
                });
            }
        }
    }

    if cfg.fusion {
        for e in wb_wasm_vm::audit::audit_fusion_table() {
            report.fusion.push(Check {
                kernel: "wasm-vm".into(),
                level: "-".into(),
                subject: e.instance,
                ok: e.ok,
                error: e.detail,
            });
        }
        for e in wb_jsvm::audit::audit_fusion_table() {
            report.fusion.push(Check {
                kernel: "jsvm".into(),
                level: "-".into(),
                subject: e.instance,
                ok: e.ok,
                error: e.detail,
            });
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_is_clean() {
        let report = analyze(&AnalysisConfig::quick());
        assert!(report.ok(), "failures: {:?}", report.failures());
        // 3 kernels × 7 levels × 3 targets IR checks, × 1 wasm check.
        assert_eq!(report.ir.len(), 3 * 7 * 3);
        assert_eq!(report.wasm.len(), 3 * 7);
        assert!(!report.fusion.is_empty());
    }

    #[test]
    fn report_json_is_wellformed_enough() {
        let report = analyze(&AnalysisConfig {
            kernels: vec!["gemm".into()],
            sizes: vec![],
            fusion: false,
        });
        let json = report.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.contains("\"ok\": true"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
    }
}
