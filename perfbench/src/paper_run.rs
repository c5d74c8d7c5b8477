//! `paper_run`: paper-default runs one at a time, the way a user asks for
//! one point of a figure, from `min(2, cores)` closed-loop clients side by
//! side. An operation is `Runner::new` (deployment generation included)
//! followed by `Runner::run` with default options.

use crate::harness::{max_threads, repeat_setup, time_ops, trace_overhead, Args, Outcome, MIN_OPS};
use crate::inputs::seed_list;
use crate::simlayers;
use secloc_obs::{MetricsRegistry, Obs};
use secloc_sim::{RunOptions, Runner, SimConfig, SimOutcome};
use std::hint::black_box;
use std::sync::{Arc, Mutex};

/// Seeds the timed loop cycles through; more than a run can use.
const SEEDS: usize = 8192;
/// Untimed runs in each set-up, so the timed loop starts warm.
const WARMUP_RUNS: usize = 30;
/// Seeds whose timed outcome is re-run on the reference path.
const REFERENCE_SAMPLES: usize = 4;
/// Observed runs behind the phase shares of the traced run.
const TRACED_RUNS: usize = 300;
/// Deployments the per-call layer timings run on.
const LAYER_DEPLOYMENTS: usize = 4;
/// Plain/observed run pairs behind `obs.trace_overhead`.
const OVERHEAD_PAIRS: usize = 150;

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let config = SimConfig::paper_default();
    let (seeds, setup_s) = repeat_setup(|_| {
        let seeds = seed_list(args.seed, "paper_run", SEEDS);
        for s in seed_list(args.seed, "paper_run.warmup", WARMUP_RUNS) {
            black_box(Runner::new(config.clone(), s).run(RunOptions::new()));
        }
        Ok(seeds)
    })?;
    let mut out = Outcome::default();
    if args.trace {
        traced(&config, &seeds, &mut out);
        return Ok(out);
    }

    // Only the first outcomes are kept for the gates, so memory does not
    // grow with the number of runs.
    let kept: Mutex<Vec<Option<SimOutcome>>> = Mutex::new(vec![None; MIN_OPS]);
    let timed = time_ops(
        args.seconds,
        max_threads(),
        |i| {
            Runner::new(config.clone(), seeds[i % seeds.len()])
                .run(RunOptions::new())
                .outcome
        },
        |i, outcome| {
            let ok = plausible(&outcome, &config);
            if let Some(slot) = kept.lock().expect("no client panicked").get_mut(i) {
                *slot = Some(outcome);
            }
            ok
        },
    );
    let outcomes = kept.into_inner().expect("no client panicked");
    // Gates: sampled runs match the reference path outcome for outcome,
    // and a repeated seed repeats its outcome.
    for k in 0..REFERENCE_SAMPLES {
        let i = k * MIN_OPS / REFERENCE_SAMPLES;
        let reference = Runner::new(config.clone(), seeds[i])
            .run(RunOptions::new().reference())
            .outcome;
        out.check(
            outcomes[i] == Some(reference),
            "run matches the reference path",
        );
    }
    let again = Runner::new(config.clone(), seeds[0])
        .run(RunOptions::new())
        .outcome;
    out.check(
        outcomes[0] == Some(again),
        "a repeated seed repeats its outcome",
    );

    out.set_end_to_end(setup_s, &timed, 1.0)?;
    Ok(out)
}

/// The traced run: phase shares, per-call layer costs, and the cost of
/// the program's telemetry.
fn traced(config: &SimConfig, seeds: &[u64], out: &mut Outcome) {
    let cells: Vec<(SimConfig, u64)> = seeds
        .iter()
        .take(TRACED_RUNS)
        .map(|&s| (config.clone(), s))
        .collect();
    let share_sum = simlayers::phase_metrics(&cells, out);
    out.check(
        (share_sum - 1.0).abs() <= 0.1,
        "phase spans account for the run wall within 10%",
    );
    out.set("sim.phases.share_sum", share_sum);
    simlayers::call_metrics(&cells[..LAYER_DEPLOYMENTS], out);
    let obs = Obs::with_metrics(Arc::new(MetricsRegistry::new()));
    let overhead = trace_overhead(
        OVERHEAD_PAIRS,
        |i| {
            black_box(Runner::new(config.clone(), seeds[i]).run(RunOptions::new()));
        },
        |i| {
            black_box(
                Runner::new_observed(config.clone(), seeds[i], &obs)
                    .run(RunOptions::new().observed(&obs)),
            );
        },
    );
    out.set("obs.trace_overhead", overhead);
}

/// Invariants every outcome must satisfy.
fn plausible(o: &SimOutcome, config: &SimConfig) -> bool {
    o.malicious_total == config.malicious
        && o.benign_total == config.beacons - config.malicious
        && o.revoked_malicious <= o.malicious_total
        && o.revoked_benign <= o.benign_total
        && o.affected_after <= o.affected_before
        && o.mean_loc_error_before_ft.is_some()
}
