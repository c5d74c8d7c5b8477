//! Per-layer measurement of the simulator, shared by the workloads that
//! simulate (`paper_run`, `figure_sweep`): phase shares from the
//! program's own `phase.*` spans and counters, and per-call costs timed
//! around the public entry points on the workload's own deployments.

use crate::harness::Outcome;
use rand::rngs::StdRng;
use rand::SeedableRng;
use secloc_core::Observation;
use secloc_crypto::NodeId;
use secloc_geometry::{Field, GridIndex};
use secloc_localization::{BatchedMmse, LocationReference, MmseScratch};
use secloc_obs::{MetricsRegistry, Obs};
use secloc_sim::{Deployment, NodeKind, ProbeContext, RunOptions, Runner, SimConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Phases whose span time and share of the run are reported.
const REPORTED_PHASES: [(&str, &str, &str); 4] = [
    ("deploy", "sim.deploy.ms_per_run", "sim.deploy.share"),
    (
        "detection",
        "sim.detection.ms_per_run",
        "sim.detection.share",
    ),
    ("location", "sim.location.ms_per_run", "sim.location.share"),
    ("impact", "sim.impact.ms_per_run", "sim.impact.share"),
];

/// Rounds each per-call micro-timing repeats over its inputs.
const ROUNDS: u32 = 5;

/// Observed runs of `cells`: phase times and shares, and the probe and
/// pipeline counters. Returns the summed share of all phases, which falls
/// short of 1 by whatever a run spends outside its phase spans.
pub fn phase_metrics(cells: &[(SimConfig, u64)], out: &mut Outcome) -> f64 {
    let registry = Arc::new(MetricsRegistry::new());
    let obs = Obs::with_metrics(registry.clone());
    let mut wall_s = 0.0;
    for (config, seed) in cells {
        let t = Instant::now();
        let runner = Runner::new_observed(config.clone(), *seed, &obs);
        black_box(runner.run(RunOptions::new().observed(&obs)));
        wall_s += t.elapsed().as_secs_f64();
    }
    let snap = registry.snapshot();
    let runs = cells.len() as f64;
    let span_s = |phase: &str| {
        snap.histogram(&format!("span.phase.{phase}.ns"))
            .map_or(0.0, |h| h.sum / 1e9)
    };
    for (phase, ms_name, share_name) in REPORTED_PHASES {
        out.set(ms_name, span_s(phase) * 1e3 / runs);
        out.set(share_name, span_s(phase) / wall_s);
    }
    let all_phases: f64 = secloc_sim::report::PHASE_NAMES
        .iter()
        .map(|p| span_s(p))
        .sum();

    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let answered = counter("probe.exchanges");
    let silent = counter("probe.no_signal");
    out.check(answered > 0.0, "observed runs count probe exchanges");
    out.set("sim.probe.exchanges_per_run", (answered + silent) / runs);
    out.set("sim.probe.no_signal_ratio", silent / (answered + silent));
    let verdicts: f64 = ["benign", "wormhole_replay", "local_replay", "alert"]
        .iter()
        .map(|v| counter(&format!("pipeline.verdict.{v}")))
        .sum();
    out.set(
        "core.pipeline.alert_ratio",
        counter("pipeline.verdict.alert") / verdicts,
    );
    out.check(
        snap.gauge("run.location_workers") == Some(0),
        "default runs keep intra-run location workers off",
    );
    all_phases / wall_s
}

/// Per-call costs on the deployments of `cells`: grid queries, probe
/// exchanges, pipeline verdicts and MMSE solves, plus the solve counts of
/// a re-enacted impact phase.
pub fn call_metrics(cells: &[(SimConfig, u64)], out: &mut Outcome) {
    let mut grid = Tally::default();
    let mut probe = Tally::default();
    let mut verdict = Tally::default();
    let mut solve = Tally::default();
    let mut solves_ok = 0u64;
    let mut queries_per_run = 0.0;
    for (config, seed) in cells {
        let runner = Runner::new(config.clone(), *seed);
        let d = runner.deployment();
        // The run's own revocations decide which sensors re-solve.
        let trace = runner
            .run(RunOptions::new().traced())
            .trace
            .expect("traced run returns a trace");
        let mut revoked = vec![false; config.beacons as usize];
        for &(_, NodeId(b)) in trace.revocations() {
            revoked[b as usize] = true;
        }

        grid.add(time_grid(d));
        // One audible-beacon query per node and one requester count per
        // beacon, as `Deployment::generate` and the outcome make them.
        queries_per_run += f64::from(config.nodes + config.beacons);

        let (observations, kept, t) = time_probes(d, *seed);
        probe.add(t);
        verdict.add(time_verdicts(&runner, &observations));

        let cap = kept.iter().map(Vec::len).max().unwrap_or(0);
        let mut scratch = MmseScratch::with_capacity(cap);
        let solver = BatchedMmse::default();
        for _ in 0..ROUNDS {
            let t = Instant::now();
            let mut ok = 0u64;
            let mut n = 0u64;
            for refs in &kept {
                scratch.load_from_iter(refs.iter().map(|&(_, r)| r));
                ok += u64::from(black_box(solver.estimate(&scratch)).is_ok());
                n += 1;
                if refs.iter().any(|&(b, _)| revoked[b as usize]) {
                    scratch.retain(|i| !revoked[refs[i].0 as usize]);
                    ok += u64::from(black_box(solver.estimate(&scratch)).is_ok());
                    n += 1;
                }
            }
            solve.add((t.elapsed().as_secs_f64(), n));
            solves_ok += ok;
        }
    }
    let runs = cells.len() as f64;
    out.set("geometry.within_into.ns_per_query", grid.ns_per());
    out.set("geometry.queries_per_run", queries_per_run / runs);
    out.set("sim.probe.ns_per_exchange", probe.ns_per());
    out.set("core.pipeline.ns_per_verdict", verdict.ns_per());
    out.set("localization.mmse.ns_per_solve", solve.ns_per());
    out.set(
        "localization.solves_per_run",
        solve.calls as f64 / runs / f64::from(ROUNDS),
    );
    out.set(
        "localization.solve_ok_ratio",
        solves_ok as f64 / solve.calls as f64,
    );
}

/// Total seconds and call count of one timed layer.
#[derive(Debug, Default)]
struct Tally {
    secs: f64,
    calls: u64,
}

impl Tally {
    fn add(&mut self, (secs, calls): (f64, u64)) {
        self.secs += secs;
        self.calls += calls;
    }

    fn ns_per(&self) -> f64 {
        self.secs * 1e9 / self.calls as f64
    }
}

/// `GridIndex::within_into` over every node position on a beacon index,
/// the query `Deployment::generate` makes per node.
fn time_grid(d: &Deployment) -> (f64, u64) {
    let cfg = d.config();
    let field = Field::square(cfg.field_side_ft);
    let positions: Vec<_> = (0..cfg.nodes).map(|i| d.position(i)).collect();
    let index = GridIndex::build(
        &field,
        cfg.range_ft,
        positions.iter().take(cfg.beacons as usize).copied(),
    );
    let mut found = Vec::new();
    let t = Instant::now();
    for _ in 0..ROUNDS {
        for &p in &positions {
            index.within_into(p, cfg.range_ft, &mut found);
            black_box(found.len());
        }
    }
    (
        t.elapsed().as_secs_f64(),
        u64::from(ROUNDS) * positions.len() as u64,
    )
}

type Kept = Vec<Vec<(u32, LocationReference)>>;

/// `ProbeContext::probe` over the exchanges of a run: each benign beacon
/// probes every beacon it hears under its first detecting ID, and each
/// sensor requests a signal from every beacon it hears. Returns the
/// observations, each sensor's kept references, and the timing.
fn time_probes(d: &Deployment, seed: u64) -> (Vec<Observation>, Kept, (f64, u64)) {
    let cfg = d.config();
    let ctx = ProbeContext::new(d);
    let mut pairs: Vec<(u32, NodeId, u32)> = Vec::new();
    for u in d.beacons_of_kind(NodeKind::BenignBeacon) {
        for &v in d.audible_beacons(u) {
            pairs.push((u, d.ids().detecting_id(u, 0), v));
        }
    }
    for w in d.sensors() {
        for &v in d.audible_beacons(w) {
            pairs.push((w, NodeId(w), v));
        }
    }
    let mut observations = Vec::with_capacity(pairs.len());
    let mut kept: Kept = vec![Vec::new(); (cfg.nodes - cfg.beacons) as usize];
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EC1_0C00);
    let t = Instant::now();
    let results: Vec<_> = pairs
        .iter()
        .map(|&(from, wire, to)| ctx.probe(from, wire, to, &mut rng))
        .collect();
    let secs = t.elapsed().as_secs_f64();
    for (&(from, _, to), result) in pairs.iter().zip(results) {
        let Some(r) = result else { continue };
        observations.push(r.observation);
        if from >= cfg.beacons && r.accepted_for_localization {
            kept[(from - cfg.beacons) as usize].push((
                to,
                LocationReference::new(
                    r.observation.declared_position,
                    r.observation.measured_distance_ft,
                ),
            ));
        }
    }
    (observations, kept, (secs, pairs.len() as u64))
}

/// `DetectionPipeline::evaluate_with_acceptance` over `observations`.
fn time_verdicts(runner: &Runner, observations: &[Observation]) -> (f64, u64) {
    let ctx = ProbeContext::new(runner.deployment());
    let pipeline = ctx.pipeline();
    let t = Instant::now();
    for _ in 0..ROUNDS {
        for o in observations {
            black_box(pipeline.evaluate_with_acceptance(black_box(o)));
        }
    }
    (
        t.elapsed().as_secs_f64(),
        u64::from(ROUNDS) * observations.len() as u64,
    )
}
