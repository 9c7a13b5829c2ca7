//! `wb` — the repo's front door: the study, static verification and
//! fault injection.
//!
//! ```text
//! wb regen                         # every entry into results/ (verify.sh gate)
//! wb regen fig5 table2 --stats     # named entries, cache summary
//! wb regen fig5 --quick --out /tmp/q
//! wb analyze --all                 # full corpus sweep (verify.sh gate)
//! wb analyze --quick               # 3-kernel smoke subset
//! wb analyze --kernels gemm,AES    # named kernels only
//! wb analyze --all --out report.json
//! wb inject --all                  # every fault family (verify.sh gate)
//! wb inject --fault decode --quick # one family, reduced corpus
//! ```
//!
//! `regen` runs the study registry ([`wb_harness::study`]) in one
//! process, writing each entry's CSVs and `<entry>.txt`.
//!
//! `analyze` runs the `wb-analysis` sweep — IR verification between
//! every pass at every opt level, Wasm type-checking of every emitted
//! module, the fusion cost-equivalence audit of both VMs, and the
//! corpus lints — and prints a one-line summary. Failures of the hard
//! checks (everything but lints) list their diagnostics and set a
//! non-zero exit status. `--out` additionally writes the
//! machine-readable JSON report.
//!
//! `inject` runs the fault-injection harness ([`wb_harness::inject`]):
//! decode corruption, fuel/memory/stack exhaustion and forced worker
//! panics, asserting every fault surfaces as a structured error with
//! zero uncaught panics.

use wb_analysis::{analyze, AnalysisConfig};
use wb_benchmarks::InputSize;
use wb_harness::study::{self, Study};
use wb_harness::{Cli, GridEngine};

const USAGE: &str = "usage: wb regen [<entry>...] [--quick] [--filter s] [--out dir] [--jobs N] [--no-cache] [--stats] [--reference-exec] [--keep-going] [--retries N]\n       wb analyze [--all|--quick] [--kernels a,b] [--sizes XS,M] [--no-fusion] [--out report.json]\n       wb inject [--all|--fault <name>] [--quick]";

fn inject_main(args: &[String]) {
    for flag in args.iter().filter_map(|a| a.strip_prefix("--")) {
        let name = flag.split_once('=').map_or(flag, |(k, _)| k);
        if !matches!(name, "all" | "fault" | "quick") {
            eprintln!("unknown flag '--{name}'\n{USAGE}");
            std::process::exit(2);
        }
    }
    let cli = Cli::from_args(args.iter().cloned());
    let quick = cli.has("quick");
    let reports = match cli.get("fault") {
        Some(name) => match wb_harness::inject::run_fault(name, quick) {
            Some(r) => vec![r],
            None => {
                eprintln!(
                    "unknown fault '{name}' (known: {})",
                    wb_harness::inject::ALL_FAULTS.join(", ")
                );
                std::process::exit(2);
            }
        },
        None => wb_harness::inject::run_all(quick),
    };
    let mut uncaught = 0usize;
    let mut unexpected = 0usize;
    println!("fault     probes  expected  unexpected  uncaught-panics");
    for r in &reports {
        println!(
            "{:<8}  {:>6}  {:>8}  {:>10}  {:>15}",
            r.fault, r.probes, r.expected, r.unexpected, r.uncaught_panics
        );
        for d in &r.diagnostics {
            eprintln!("  {}: {d}", r.fault);
        }
        uncaught += r.uncaught_panics;
        unexpected += r.unexpected;
    }
    println!("inject: {uncaught} uncaught panics, {unexpected} unexpected outcomes");
    if uncaught + unexpected > 0 {
        std::process::exit(1);
    }
}

fn regen_main(args: &[String]) {
    let (entries, cli) = study::parse_regen(args).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let engine = GridEngine::from_cli(&cli);
    study::regen(&Study::new(&cli, &engine), &entries);
    engine.finish_with(&cli, "regen");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => {}
        Some("regen") => {
            regen_main(&args[1..]);
            return;
        }
        Some("inject") => {
            inject_main(&args[1..]);
            return;
        }
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
    for flag in args[1..].iter().filter_map(|a| a.strip_prefix("--")) {
        let name = flag.split_once('=').map_or(flag, |(k, _)| k);
        if !matches!(
            name,
            "all" | "quick" | "kernels" | "sizes" | "no-fusion" | "out"
        ) {
            eprintln!("unknown flag '--{name}'\n{USAGE}");
            std::process::exit(2);
        }
    }
    let cli = Cli::from_args(args[1..].iter().cloned());

    let mut cfg = if cli.has("quick") {
        AnalysisConfig::quick()
    } else {
        AnalysisConfig::full()
    };
    if let Some(list) = cli.get("kernels") {
        cfg.kernels = list.split(',').map(str::to_string).collect();
    }
    if let Some(list) = cli.get("sizes") {
        cfg.sizes = list
            .split(',')
            .map(|s| match s {
                "XS" => InputSize::XS,
                "S" => InputSize::S,
                "M" => InputSize::M,
                "L" => InputSize::L,
                "XL" => InputSize::XL,
                other => {
                    eprintln!("unknown size '{other}' (use XS,S,M,L,XL)");
                    std::process::exit(2);
                }
            })
            .collect();
    }
    if cli.has("no-fusion") {
        cfg.fusion = false;
    }

    let t0 = std::time::Instant::now();
    let report = analyze(&cfg);
    let elapsed = t0.elapsed();

    println!(
        "analyze: {} ({:.2}s)",
        report.summary(),
        elapsed.as_secs_f64()
    );
    for lint in &report.lints {
        println!(
            "  lint [{}] {} ({}, {}): {}",
            lint.finding.lint, lint.kernel, lint.size, lint.finding.func, lint.finding.message
        );
    }
    for failure in report.failures() {
        println!(
            "  FAIL {} {} [{}]: {}",
            failure.kernel,
            failure.level,
            failure.subject,
            failure.error.as_deref().unwrap_or("?")
        );
    }

    if let Some(path) = cli.get("out") {
        std::fs::write(path, report.to_json()).expect("write report");
        println!("[wrote {path}]");
    }

    if !report.ok() {
        std::process::exit(1);
    }
}
