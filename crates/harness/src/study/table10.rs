//! Table 10: the three real-world applications — Long.js (mul/div/rem),
//! Hyphenopoly (en-us/fr) and FFmpeg — Wasm vs JS execution time.

use super::{Study, Tables};
use crate::run_or_exit;
use wb_benchmarks::apps::{ffmpeg, hyphen, longjs};
use wb_core::apps;
use wb_core::report::{millis, Table};
use wb_env::Environment;

pub(super) fn render(_: &Study) -> Tables {
    let env = Environment::desktop_chrome();
    let mut t = Table::new(
        "Table 10: real-world applications (Chrome desktop)",
        &[
            "Benchmark",
            "Input",
            "WA Time (ms)",
            "JS Time (ms)",
            "Ratio",
        ],
    );

    for op in longjs::LongOp::ALL {
        let w = run_or_exit(
            &format!("longjs-{}/wasm", op.name()),
            apps::longjs_wasm(op, env),
        );
        let j = run_or_exit(
            &format!("longjs-{}/js", op.name()),
            apps::longjs_js(op, env),
        );
        t.row(vec![
            format!("Long.js {}", op.name()),
            op.input_desc().into(),
            millis(w.time),
            millis(j.time),
            format!("{:.3}", w.time.0 / j.time.0),
        ]);
    }
    for lang in hyphen::Lang::ALL {
        let w = run_or_exit(
            &format!("hyphen-{}/wasm", lang.name()),
            apps::hyphen_wasm(lang, env),
        );
        let j = run_or_exit(
            &format!("hyphen-{}/js", lang.name()),
            apps::hyphen_js(lang, env),
        );
        assert_eq!(w.output, j.output, "hyphenation must agree");
        t.row(vec![
            format!("Hyphenopoly {}", lang.name()),
            format!("{} KB generated text", hyphen::TEXT_BYTES / 1024),
            millis(w.time),
            millis(j.time),
            format!("{:.3}", w.time.0 / j.time.0),
        ]);
    }
    {
        let w = run_or_exit("ffmpeg/wasm", apps::ffmpeg_wasm(env));
        let j = run_or_exit("ffmpeg/js", apps::ffmpeg_js(env));
        t.row(vec![
            "FFmpeg mp4 to avi".into(),
            format!(
                "{} MB stream, {} workers",
                ffmpeg::STREAM_BYTES / (1024 * 1024),
                ffmpeg::WORKER_COUNT
            ),
            millis(w.time),
            millis(j.time),
            format!("{:.3}", w.time.0 / j.time.0),
        ]);
    }
    vec![("table10".into(), t)]
}
