//! Command-line entry point; see the library docs for usage.

use secloc_perfbench::harness::{max_threads, parse_args, Args, Outcome};
use secloc_perfbench::spec::{OFF_PATH, PER_LAYER, WORKLOADS};
use secloc_perfbench::{alerter_replay, figure, paper_run};
use std::process::ExitCode;

fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = match args.workload.as_str() {
        "paper_run" => paper_run::run(args)?,
        "figure_sweep" => figure::run_cold(args)?,
        "figure_warm" => figure::run_warm(args)?,
        "alerter_replay" => alerter_replay::run(args)?,
        other => {
            return Err(format!(
                "unknown workload {other}; expected one of {}",
                WORKLOADS.join(", ")
            ))
        }
    };
    if args.trace {
        out.zero_unset_layers();
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={} nproc={cores} threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        max_threads()
    );
    let line = run(&args).and_then(|out| out.render(args.trace));
    match line {
        Ok(line) => {
            if args.trace {
                for l in &PER_LAYER {
                    eprintln!(
                        "perfbench: layer {} [{}] at {}: moves {} on {}; no change on {}",
                        l.metric.name, l.metric.unit, l.measured_at, l.moves, l.on, l.no_change_on
                    );
                }
                for (what, why) in OFF_PATH {
                    eprintln!("perfbench: not on any workload path: {what} ({why})");
                }
            }
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
