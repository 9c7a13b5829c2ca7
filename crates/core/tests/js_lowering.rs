//! The JS VM lowers each chunk once into one micro-op stream, fused or
//! not (`reference_exec`). This suite runs the lowering audit
//! (`wb_jsvm::audit::audit_lowering`) over the whole JS corpus: every
//! kernel's compiled JS at every optimization level, the hand-written JS
//! benchmarks and the app scripts. For each chunk it checks that the
//! fused and reference lowerings cut the same regions, that every source
//! jump resolves to the micro-op of its source target, that every
//! micro-op's source position lies in the region it runs in, that an
//! `Enter` stands exactly where a plain op falls into a region head, and
//! that every fused form's stored path is what its plain copies do.

use wb_benchmarks::{all_benchmarks, apps, manual_js, InputSize};
use wb_jsvm::audit::audit_lowering;
use wb_minic::{Compiler, OptLevel};

fn audit(what: &str, source: &str) -> usize {
    let program = wb_jsvm::compile_script(source).unwrap_or_else(|e| panic!("{what}: {e}"));
    audit_lowering(&program).unwrap_or_else(|e| panic!("{what}: {e}"));
    program.chunks.len()
}

#[test]
fn every_kernel_at_every_level_lowers_soundly() {
    let mut chunks = 0;
    for b in all_benchmarks() {
        for level in OptLevel::ALL {
            let mut c = Compiler::cheerp().opt_level(level);
            for (k, v) in b.defines(InputSize::XS) {
                c = c.define(&k, v);
            }
            let js = c.compile_js(b.source).expect("compiles");
            chunks += audit(&format!("{} {level}", b.name), &js.source);
        }
    }
    assert!(chunks > 1000, "{chunks} chunks audited");
}

#[test]
fn the_manual_js_and_the_app_scripts_lower_soundly() {
    for m in manual_js::all_manual() {
        audit(m.name, &m.full_source());
    }
    for (name, source) in [
        ("ffmpeg", apps::ffmpeg::JS_SOURCE),
        ("hyphen", apps::hyphen::JS_SOURCE),
        ("longjs", apps::longjs::JS_SOURCE),
    ] {
        audit(name, source);
    }
}
