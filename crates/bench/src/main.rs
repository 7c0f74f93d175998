//! `mgg-bench`: regenerates the paper's tables and figures.
//!
//! ```text
//! mgg-bench <experiment>... [--scale S] [--out DIR]
//! mgg-bench all [--scale S] [--out DIR]
//! ```
//!
//! Experiments: fig2 fig3 fig7 fig8 fig9a fig9b fig10 occupancy tab1 tab2
//! tab4 tab5 (plus `ext_*` extensions). Reports print to stdout and persist
//! as JSON under `--out` (default `bench-results/`). `--threads N` sizes the
//! deterministic worker pool (default: all cores; 1 = fully sequential —
//! results are bit-identical either way).

use std::path::PathBuf;

use mgg_bench::experiments::{
    cache, churn, ext, failover, fault, fig10, fig2, fig3, fig7, fig8, fig9, hostperf, occupancy, serve,
    tab1, tab2, tab3, tab4, tab5,
};
use mgg_bench::report::{write_json, ExperimentReport};
use mgg_bench::DEFAULT_SCALE;

const ALL: &[&str] = &[
    "fig2", "fig3", "tab1", "tab2", "fig7", "fig8", "fig9a", "fig9b", "fig10", "occupancy",
    "tab3", "tab4", "tab5", "ext_reorder", "ext_replicated", "ext_fabric", "ext_train", "ext_cpu", "ext_putget", "ext_dims", "ext_scaling", "ext_fault", "ext_failover", "ext_hostperf", "ext_cache", "ext_serve", "ext_churn", "microcal",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = DEFAULT_SCALE;
    let mut out = PathBuf::from("bench-results");
    let mut selected: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it.next().unwrap_or_else(|| usage("missing value for --scale"));
                scale = v.parse().unwrap_or_else(|_| usage("--scale expects a number"));
                if scale <= 0.0 {
                    usage("--scale must be positive");
                }
            }
            "--out" => {
                out = PathBuf::from(it.next().unwrap_or_else(|| usage("missing value for --out")));
            }
            "--threads" => {
                let v = it.next().unwrap_or_else(|| usage("missing value for --threads"));
                let n: usize =
                    v.parse().unwrap_or_else(|_| usage("--threads expects a positive integer"));
                if n == 0 {
                    usage("--threads must be >= 1 (1 = sequential)");
                }
                mgg_runtime::set_threads(n);
            }
            "all" => selected.extend(ALL.iter().map(|s| s.to_string())),
            "summary" => selected.push("summary".to_string()),
            "--help" | "-h" => usage(""),
            other if ALL.contains(&other) => selected.push(other.to_string()),
            other => usage(&format!("unknown experiment '{other}'")),
        }
    }
    if selected.is_empty() {
        usage("no experiment selected");
    }
    selected.dedup();

    for exp in &selected {
        let start = std::time::Instant::now();
        println!("\n=== {exp} (scale {scale}) ===");
        run_one(exp, scale, &out);
        println!("[{exp} done in {:.1}s]", start.elapsed().as_secs_f64());
    }
}

fn run_one(exp: &str, scale: f64, out: &std::path::Path) {
    match exp {
        "summary" => {
            let lines = mgg_bench::summary::summarize(out);
            if lines.is_empty() {
                eprintln!("no reports under {} — run experiments first", out.display());
            } else {
                print!("{}", mgg_bench::summary::to_markdown(&lines));
            }
        }
        "fig2" => emit(fig2::run(scale, 8), out),
        "fig3" => emit(fig3::run(scale), out),
        "tab1" => emit(tab1::run(scale, 8), out),
        "tab2" => emit(tab2::run(), out),
        "fig7" => emit(fig7::run(scale, 8), out),
        "fig8" => emit(fig8::run(scale), out),
        "fig9a" => emit(fig9::run_9a(scale, 4), out),
        "fig9b" => emit(fig9::run_9b(scale, 4), out),
        "fig10" => emit(fig10::run(scale), out),
        "occupancy" => emit(occupancy::run(scale, 8), out),
        "tab4" => emit(tab4::run(scale, 8), out),
        "tab5" => emit(tab5::run(scale, 8), out),
        "tab3" => emit(tab3::run(scale), out),
        "ext_reorder" => emit(ext::run_reorder(scale, 8), out),
        "ext_replicated" => emit(ext::run_replicated(scale, 8), out),
        "ext_fabric" => emit(ext::run_fabric(scale, 8), out),
        "ext_train" => emit(ext::run_train(scale, 8), out),
        "ext_cpu" => emit(ext::run_cpu(scale, 8), out),
        "ext_putget" => emit(ext::run_putget(scale, 8), out),
        "ext_dims" => emit(ext::run_dims(scale, 8), out),
        "ext_scaling" => emit(ext::run_scaling(scale), out),
        "ext_fault" => emit(fault::run(scale, 8), out),
        "ext_failover" => emit(failover::run(scale), out),
        "ext_hostperf" => emit(hostperf::run(scale), out),
        "ext_cache" => emit(cache::run(scale, 8), out),
        "ext_serve" => emit(serve::run(scale, 8), out),
        "ext_churn" => emit(churn::run(scale, 8), out),
        "microcal" => emit(mgg_bench::experiments::microcal::run(), out),
        other => unreachable!("validated experiment '{other}'"),
    }
}

fn emit<R: ExperimentReport>(report: R, out: &std::path::Path) {
    report.print();
    if let Err(e) = write_json(&report, out) {
        eprintln!("warning: could not write {}/{}.json: {e}", out.display(), report.id());
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}\n");
    }
    eprintln!("usage: mgg-bench <experiment>... [--scale S] [--out DIR] [--threads N]");
    eprintln!("       mgg-bench all [--scale S] [--out DIR] [--threads N]");
    eprintln!("       mgg-bench summary [--out DIR]   # markdown digest of saved reports");
    eprintln!("experiments: {}", ALL.join(" "));
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}
