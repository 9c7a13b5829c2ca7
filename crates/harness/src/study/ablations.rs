//! Ablation study: quantify each §4.2 mechanism's contribution by
//! toggling it off and re-measuring — the design-choice ablations called
//! out in DESIGN.md.
//!
//! * **vectorize-scalarization**: `-O2` with vectorization vs the same
//!   pipeline without `-vectorize-loops` (what a Wasm-aware `-O2` would
//!   do), on the Wasm target;
//! * **constant rematerialization**: `-O2` Wasm emission with and without
//!   the `i32.const; f64.convert` encoding (Fig 8);
//! * **dead-store bug**: `-Ofast` Wasm with and without the LLVM#37449
//!   emulation (Fig 7), on ADPCM, where the paper observed it.

use super::{Study, Tables};
use wb_benchmarks::InputSize;
use wb_core::host::standard_imports;
use wb_core::report::{ratio, Table};
use wb_env::calibration;
use wb_minic::backend::wasm::{emit_wasm, WasmEmitOptions};
use wb_minic::passes;
use wb_minic::{Compiler, OptLevel};
use wb_wasm_vm::{Instance, WasmVmConfig};

/// Compile with a hand-rolled pipeline and measure the Wasm run.
fn measure(
    source: &str,
    defines: &[(String, String)],
    level: OptLevel,
    vectorize: bool,
    remat: bool,
    bug_emulation: bool,
) -> (f64, u64) {
    let mut compiler = Compiler::cheerp().opt_level(level).heap_limit(256 << 20);
    for (k, v) in defines {
        compiler = compiler.define(k, v.clone());
    }
    let (mut hir, _) = compiler.frontend(source).expect("frontend");

    // Re-create the level's pipeline with the ablation toggles.
    passes::const_fold(&mut hir);
    passes::const_prop(&mut hir);
    passes::const_fold(&mut hir);
    passes::dce(&mut hir);
    passes::globalopt(&mut hir, bug_emulation && level == OptLevel::Ofast);
    match level {
        OptLevel::O1 => passes::const_hoist(&mut hir),
        _ => {
            passes::inline(&mut hir, 12);
            if vectorize {
                passes::vectorize_loops(&mut hir);
            }
            passes::shrinkwrap(&mut hir);
            if level == OptLevel::Ofast {
                passes::fast_math(&mut hir);
            }
        }
    }
    passes::const_fold(&mut hir);
    passes::dce(&mut hir);

    let opts = WasmEmitOptions {
        profile: wb_env::CompilerProfile::cheerp(),
        heap_limit_bytes: Some(256 << 20),
        remat_int_consts: remat,
    };
    let module = emit_wasm(&hir, &opts).expect("emit");
    wb_wasm::validate(&module).expect("valid");
    let bytes = wb_wasm::encode_module(&module);
    let mut config = WasmVmConfig::reference();
    config.exec_overhead = calibration::toolchain_exec_overhead(wb_env::Toolchain::Cheerp);
    let mut inst = Instance::instantiate(&bytes, config, standard_imports(hir.strings.clone()))
        .expect("instantiate");
    inst.invoke("bench_main", &[]).expect("run");
    (inst.report().total.0, bytes.len() as u64)
}

pub(super) fn render(_: &Study) -> Tables {
    let mut t = Table::new(
        "Ablations: each §4.2 mechanism's contribution (Wasm target)",
        &[
            "mechanism",
            "benchmark",
            "with (ms)",
            "without (ms)",
            "with/without time",
            "size ratio",
        ],
    );

    // 1. Vectorize-then-scalarize on a hot float kernel.
    let gemm = wb_benchmarks::suite::find("gemm").expect("gemm");
    let defines = gemm.defines(InputSize::M);
    let (with_t, with_s) = measure(gemm.source, &defines, OptLevel::O2, true, true, false);
    let (wo_t, wo_s) = measure(gemm.source, &defines, OptLevel::O2, false, true, false);
    t.row(vec![
        "vectorize+scalarize".into(),
        "gemm".into(),
        format!("{:.3}", with_t / 1e6),
        format!("{:.3}", wo_t / 1e6),
        ratio(with_t / wo_t),
        ratio(with_s as f64 / wo_s as f64),
    ]);

    // 2. Constant rematerialization (Fig 8) on seidel-2d, whose inner
    // loop divides by the integral constant 9.0 every iteration.
    let cov = wb_benchmarks::suite::find("seidel-2d").expect("seidel-2d");
    let defines = cov.defines(InputSize::M);
    let (with_t, with_s) = measure(cov.source, &defines, OptLevel::O2, true, true, false);
    let (wo_t, wo_s) = measure(cov.source, &defines, OptLevel::O2, true, false, false);
    t.row(vec![
        "const remat (Fig 8)".into(),
        "seidel-2d".into(),
        format!("{:.3}", with_t / 1e6),
        format!("{:.3}", wo_t / 1e6),
        ratio(with_t / wo_t),
        ratio(with_s as f64 / wo_s as f64),
    ]);

    // 3. Dead-store bug emulation (Fig 7) on ADPCM at -Ofast.
    let adpcm = wb_benchmarks::suite::find("ADPCM").expect("ADPCM");
    let defines = adpcm.defines(InputSize::M);
    let (with_t, with_s) = measure(adpcm.source, &defines, OptLevel::Ofast, true, true, true);
    let (wo_t, wo_s) = measure(adpcm.source, &defines, OptLevel::Ofast, true, true, false);
    t.row(vec![
        "dead-store bug (Fig 7)".into(),
        "ADPCM".into(),
        format!("{:.3}", with_t / 1e6),
        format!("{:.3}", wo_t / 1e6),
        ratio(with_t / wo_t),
        ratio(with_s as f64 / wo_s as f64),
    ]);

    vec![("ablations".into(), t)]
}
