//! `figure_sweep` and `figure_warm`: regenerating the τ × τ′ × P grid
//! behind Figs. 12–14 through the `Orchestrator`, with a binary cache and
//! a checkpoint, on `min(2, cores)` workers.
//!
//! `figure_sweep` is the cold, write-heavy path: every operation sweeps a
//! fresh batch of seeds into a fresh cache and checkpoint, so it simulates
//! every cell (per-unit probe stages, per-cell finishes), inserts every
//! outcome and streams every checkpoint record. `figure_warm` is the
//! read-only path: set-up populates a cache, and every operation re-sweeps
//! the same grid over it — cache open and gets, no simulation.

use crate::harness::{
    disk_bytes, max_threads, repeat_setup, time_ops, timed, trace_overhead, Args, Outcome, Scratch,
};
use crate::inputs::{figure_configs, seed_list};
use crate::simlayers;
use crate::stats::median;
use secloc_obs::json::JsonValue;
use secloc_obs::{MetricsRegistry, Obs};
use secloc_sim::orchestrator::{cell_key, code_version_tag};
use secloc_sim::{
    BinaryCache, CacheFormat, ImpactMemo, Orchestrator, RunOptions, Runner, SimConfig, SimOutcome,
    SweepReport, SweepSpec,
};
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Seeds per cold operation: 4 seeds × 4 P values = 16 probe units of 18
/// policy cells each, 288 cells.
const COLD_BATCH: usize = 4;
/// Batches available to one run; more than the timed loop can use.
const COLD_BATCHES: usize = 2000;
/// Seeds of the warm grid: 72 policies × 100 seeds = 7200 cells.
const WARM_SEEDS: usize = 100;
/// Cells re-run from scratch to check sweep outcomes.
const FRESH_SAMPLES: usize = 3;
/// Seeds per P value behind the traced run's phase shares.
const TRACED_SEEDS: usize = 20;
/// Deployments the per-call layer timings run on.
const LAYER_DEPLOYMENTS: usize = 4;
/// Cold batches the traced run re-enacts serially.
const TRACED_BATCHES: usize = 6;
/// Plain/observed operation pairs behind `obs.trace_overhead`.
const OVERHEAD_PAIRS: usize = 8;

fn sweep(
    spec: &SweepSpec,
    dir: &Path,
    checkpoint: bool,
    obs: Option<&Obs>,
) -> Result<SweepReport, String> {
    let mut orchestrator = Orchestrator::new()
        .workers(max_threads())
        .cache(dir.join("cache"))
        .cache_format(CacheFormat::Binary);
    if checkpoint {
        orchestrator = orchestrator.checkpoint(dir.join("checkpoint.jsonl"));
    }
    if let Some(obs) = obs {
        orchestrator = orchestrator.observed(obs);
    }
    orchestrator
        .run(spec)
        .map_err(|e| format!("sweep in {}: {e}", dir.display()))
}

/// Cold sweeps of fresh seed batches.
struct Cold {
    configs: Vec<SimConfig>,
    seeds: Vec<u64>,
    scratch: Scratch,
}

impl Cold {
    fn spec(&self, batch: usize) -> SweepSpec {
        let seeds = &self.seeds[batch * COLD_BATCH..(batch + 1) * COLD_BATCH];
        SweepSpec::product(&self.configs, seeds)
    }

    fn dir(&self, batch: usize) -> std::path::PathBuf {
        self.scratch.path(&format!("cold-{batch}"))
    }

    fn run(&self, batch: usize, obs: Option<&Obs>) -> Result<SweepReport, String> {
        sweep(&self.spec(batch), &self.dir(batch), true, obs)
    }
}

/// Runs `figure_sweep`.
pub fn run_cold(args: &Args) -> Result<Outcome, String> {
    let warmup = COLD_BATCHES - 1;
    let (cold, setup_s) = repeat_setup(|_| {
        let cold = Cold {
            configs: figure_configs(),
            seeds: seed_list(args.seed, "figure_sweep", COLD_BATCHES * COLD_BATCH),
            scratch: Scratch::new("figure_sweep")?,
        };
        cold.run(warmup, None)?;
        Ok(cold)
    })?;
    let mut out = Outcome::default();
    if args.trace {
        traced_cold(&cold, &mut out)?;
        return Ok(out);
    }

    // Timed batches count up from 0; the set-up's warm-up batch is last.
    // One client: each sweep already runs on `min(2, cores)` workers.
    let batch_of = |i: usize| i.min(warmup - 1);
    let last: Mutex<Option<(usize, SweepReport)>> = Mutex::new(None);
    let timed = time_ops(
        args.seconds,
        1,
        |i| cold.run(batch_of(i), None),
        |i, report| {
            let expected = cold.spec(batch_of(i)).len();
            let Ok(report) = report else { return false };
            let ok = report.executed == expected && report.outcomes.len() == expected;
            *last.lock().expect("no client panicked") = Some((batch_of(i), report));
            ok
        },
    );
    let (batch, report) = last
        .into_inner()
        .expect("no client panicked")
        .ok_or("no cold sweep succeeded")?;
    let spec = cold.spec(batch);
    let dir = cold.dir(batch);

    // Gates: a warm re-sweep over the populated cache reproduces the cold
    // outcomes without simulating, sampled cells match fresh runs, and
    // the checkpoint holds every cell.
    let warm = sweep(&spec, &dir, false, None);
    out.check(
        warm.is_ok_and(|w| w.executed == 0 && w.outcomes == report.outcomes),
        "warm re-sweep returns the cold outcomes from cache",
    );
    check_fresh(&spec, &report.outcomes, &mut out);
    let checkpoint = std::fs::read_to_string(dir.join("checkpoint.jsonl")).unwrap_or_default();
    out.check(
        checkpoint_cells(&checkpoint) == spec.len(),
        "checkpoint holds every cell",
    );

    out.set_end_to_end(setup_s, &timed, spec.len() as f64)?;
    Ok(out)
}

/// Runs `figure_warm`.
pub fn run_warm(args: &Args) -> Result<Outcome, String> {
    let ((scratch, spec, populated), setup_s) = repeat_setup(|i| {
        let scratch = Scratch::new(&format!("figure_warm{i}"))?;
        let seeds = seed_list(args.seed, "figure_warm", WARM_SEEDS);
        let spec = SweepSpec::product(&figure_configs(), &seeds);
        let dir = scratch.path("warm");
        let report = sweep(&spec, &dir, false, None)?;
        // The first re-sweep over a fresh cache grows its index (a sweep
        // reserves room for its whole grid on open); the timed re-sweeps
        // after it only read.
        sweep(&spec, &dir, false, None)?;
        Ok((scratch, spec, report.outcomes))
    })?;
    let dir = scratch.path("warm");
    let mut out = Outcome::default();
    if args.trace {
        traced_warm(&spec, &dir, &mut out)?;
        return Ok(out);
    }

    // Warm re-sweeps spawn no workers, so two clients fill both cores.
    let timed = time_ops(
        args.seconds,
        max_threads(),
        |_| sweep(&spec, &dir, false, None),
        |_, report| {
            report.is_ok_and(|r| {
                r.executed == 0 && r.cache_hits == spec.len() && r.outcomes == populated
            })
        },
    );
    check_fresh(&spec, &populated, &mut out);
    out.set_end_to_end(setup_s, &timed, spec.len() as f64)?;
    Ok(out)
}

/// Sampled cells of `spec` equal fresh `Runner::run` outcomes.
fn check_fresh(spec: &SweepSpec, outcomes: &[SimOutcome], out: &mut Outcome) {
    for k in 0..FRESH_SAMPLES {
        let i = k * (spec.len() - 1) / (FRESH_SAMPLES - 1);
        let cell = &spec.cells()[i];
        let fresh = Runner::new(cell.config.clone(), cell.seed)
            .run(RunOptions::new())
            .outcome;
        out.check(
            outcomes.get(i) == Some(&fresh),
            "swept cell equals a fresh run",
        );
    }
}

/// Cell records in a checkpoint.
fn checkpoint_cells(text: &str) -> usize {
    text.lines()
        .filter_map(|l| JsonValue::parse(l).ok())
        .filter(|v| v.get("kind").and_then(JsonValue::as_str) == Some("cell"))
        .count()
}

/// The traced `figure_sweep` run.
fn traced_cold(cold: &Cold, out: &mut Outcome) -> Result<(), String> {
    // Phase shares and per-call costs on the grid's own (P, seed) units.
    let mut cells = Vec::new();
    for config in cold.configs.iter().step_by(18) {
        for &seed in &cold.seeds[..TRACED_SEEDS] {
            cells.push((config.clone(), seed));
        }
    }
    let stride = cells.len() / LAYER_DEPLOYMENTS;
    simlayers::phase_metrics(&cells, out);
    let layer_cells: Vec<_> = cells.iter().step_by(stride).cloned().collect();
    simlayers::call_metrics(&layer_cells, out);

    // Cold sweeps, each re-enacted serially through the same public
    // entry points the orchestrator calls, and its outcomes inserted into
    // a cache of the benchmark's own. Shares are taken per batch and the
    // median reported, so a batch that met a noisy neighbour on the host
    // does not skew them.
    let dir = cold.scratch.path("cache-layer");
    let tag = code_version_tag();
    let per_batch = cold.spec(0).len();
    let mut cache =
        BinaryCache::open(&dir, TRACED_BATCHES * per_batch).map_err(|e| format!("cache: {e}"))?;
    let (mut stage_s, mut finish_s, mut insert_s) = (0.0, 0.0, 0.0);
    let (mut units, mut steals, mut checkpoint_bytes) = (0usize, 0u64, 0u64);
    let (mut busy_ns, mut idle_ns) = (0u64, 0u64);
    let (mut sim_shares, mut layer_shares) = (Vec::new(), Vec::new());
    let (mut keys, mut outcomes) = (Vec::new(), Vec::new());
    for batch in 0..TRACED_BATCHES {
        let spec = cold.spec(batch);
        let (report, wall) = timed(|| cold.run(batch, None));
        let report = report?;
        let capacity_s = wall * report.workers_used.max(1) as f64;
        steals += report.steal_batches;
        for w in &report.worker_stats {
            busy_ns += w.busy_ns;
            idle_ns += w.idle_ns;
        }
        checkpoint_bytes += disk_bytes(&cold.dir(batch).join("checkpoint.jsonl"));
        let re = reenact(&spec);
        out.check(
            re.outcomes == report.outcomes,
            "re-enacted batch equals the sweep",
        );
        let batch_keys: Vec<_> = spec
            .cells()
            .iter()
            .map(|c| cell_key(&c.config, c.seed, &tag))
            .collect();
        let (inserted, batch_insert_s) = timed(|| {
            batch_keys
                .iter()
                .zip(&report.outcomes)
                .all(|(&k, o)| cache.insert_checked(k, o.clone()).is_ok())
        });
        out.check(inserted, "cache inserts succeed");
        let sim_s = re.deploy_s + re.stage_s + re.finish_s;
        sim_shares.push(sim_s / capacity_s);
        layer_shares.push((sim_s + batch_insert_s) / capacity_s);
        stage_s += re.stage_s;
        finish_s += re.finish_s;
        insert_s += batch_insert_s;
        units += re.units;
        keys.extend(batch_keys);
        outcomes.extend(report.outcomes);
    }
    let swept = keys.len() as f64;
    out.set("sim.probe_stage.ms_per_unit", stage_s * 1e3 / units as f64);
    out.set("sim.finish.us_per_cell", finish_s * 1e6 / swept);
    out.set("sim.cells_per_unit", swept / units as f64);
    let med = |v: &[f64]| median(v).expect("batches ran");
    out.set("sim.orchestrator.overhead_share", 1.0 - med(&sim_shares));
    out.set("sim.phases.share_sum", med(&layer_shares));
    let worker_ns = (busy_ns + idle_ns) as f64;
    out.set("sim.orchestrator.busy_share", busy_ns as f64 / worker_ns);
    out.set("sim.orchestrator.idle_share", idle_ns as f64 / worker_ns);
    out.set(
        "sim.orchestrator.steal_batches",
        steals as f64 / TRACED_BATCHES as f64,
    );
    out.set(
        "sim.checkpoint.bytes_per_cell",
        checkpoint_bytes as f64 / swept,
    );
    let get_s = time_gets(&cache, &keys, &outcomes, out);
    out.set("sim.cache.insert.us", insert_s * 1e6 / swept);
    out.set("sim.cache.get.us", get_s * 1e6 / swept);
    drop(cache);
    out.set("sim.cache.bytes_per_cell", disk_bytes(&dir) as f64 / swept);

    let obs = Obs::with_metrics(Arc::new(MetricsRegistry::new()));
    let first = TRACED_BATCHES;
    let overhead = trace_overhead(
        OVERHEAD_PAIRS,
        |i| {
            black_box(cold.run(first + 2 * i, None)).ok();
        },
        |i| {
            black_box(cold.run(first + 2 * i + 1, Some(&obs))).ok();
        },
    );
    out.set("obs.trace_overhead", overhead);
    Ok(())
}

/// Times `BinaryCache::get` of every key, checking each against
/// `expected`; returns the seconds spent.
fn time_gets(
    cache: &BinaryCache,
    keys: &[secloc_sim::orchestrator::CellKey],
    expected: &[SimOutcome],
    out: &mut Outcome,
) -> f64 {
    let (got, secs) = timed(|| {
        keys.iter()
            .map(|&k| cache.get(k).ok().flatten())
            .collect::<Vec<_>>()
    });
    out.check(
        got.iter().zip(expected).all(|(g, e)| g.as_ref() == Some(e)),
        "cache gets return what was inserted",
    );
    secs
}

/// Serial re-enactment of one cold spec's simulation, as the orchestrator
/// schedules it: per (P, seed) unit one deployment and probe stage, then
/// per policy cell a re-keyed finish sharing one impact memo.
struct Reenacted {
    outcomes: Vec<SimOutcome>,
    units: usize,
    deploy_s: f64,
    stage_s: f64,
    finish_s: f64,
}

fn reenact(spec: &SweepSpec) -> Reenacted {
    let cells = spec.cells();
    let mut outcomes: Vec<Option<SimOutcome>> = vec![None; cells.len()];
    let (mut units, mut deploy_s, mut stage_s, mut finish_s) = (0, 0.0, 0.0, 0.0);
    for first in 0..cells.len() {
        if outcomes[first].is_some() {
            continue;
        }
        let unit: Vec<usize> = (first..cells.len())
            .filter(|&i| {
                cells[i].seed == cells[first].seed
                    && cells[i].config.attacker_p == cells[first].config.attacker_p
            })
            .collect();
        let (base, secs) = timed(|| Runner::new(cells[first].config.clone(), cells[first].seed));
        deploy_s += secs;
        let (stage, secs) = timed(|| base.probe_stage());
        stage_s += secs;
        units += 1;
        let mut memo = ImpactMemo::new();
        for &i in &unit {
            let (outcome, secs) = timed(|| {
                let rekeyed = base
                    .deployment()
                    .with_policy(cells[i].config.clone())
                    .expect("grid cells of one unit share a topology");
                Runner::from_deployment(rekeyed).finish_from_stage_memo(&stage, &mut memo)
            });
            finish_s += secs;
            outcomes[i] = Some(outcome);
        }
    }
    Reenacted {
        outcomes: outcomes
            .into_iter()
            .map(|o| o.expect("every cell ran"))
            .collect(),
        units,
        deploy_s,
        stage_s,
        finish_s,
    }
}

/// The traced `figure_warm` run.
fn traced_warm(spec: &SweepSpec, dir: &Path, out: &mut Outcome) -> Result<(), String> {
    const REPEATS: usize = 5;
    let tag = code_version_tag();
    let keys: Vec<_> = spec
        .cells()
        .iter()
        .map(|c| cell_key(&c.config, c.seed, &tag))
        .collect();
    let expected = sweep(spec, dir, false, None)?.outcomes;
    let mut walls = Vec::new();
    let mut cache_s = Vec::new();
    let mut get_s = Vec::new();
    for _ in 0..REPEATS {
        walls.push(timed(|| sweep(spec, dir, false, None)).1);
        let (cache, open_s) = timed(|| BinaryCache::open(dir.join("cache"), keys.len()));
        let cache = cache.map_err(|e| format!("cache: {e}"))?;
        let gets = time_gets(&cache, &keys, &expected, out);
        get_s.push(gets);
        cache_s.push(open_s + gets);
    }
    let wall = median(&walls).ok_or("no warm sweep")?;
    let cache_time = median(&cache_s).ok_or("no cache pass")?;
    out.set(
        "sim.cache.get.us",
        median(&get_s).ok_or("no gets")? * 1e6 / keys.len() as f64,
    );
    out.set(
        "sim.cache.bytes_per_cell",
        disk_bytes(&dir.join("cache")) as f64 / keys.len() as f64,
    );
    out.set("sim.orchestrator.overhead_share", 1.0);
    out.set("sim.phases.share_sum", cache_time / wall);

    let obs = Obs::with_metrics(Arc::new(MetricsRegistry::new()));
    let overhead = trace_overhead(
        REPEATS * 4,
        |_| {
            black_box(sweep(spec, dir, false, None)).ok();
        },
        |_| {
            black_box(sweep(spec, dir, false, Some(&obs))).ok();
        },
    );
    out.set("obs.trace_overhead", overhead);
    Ok(())
}
