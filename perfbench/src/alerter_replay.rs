//! `alerter_replay`: the streaming path. Set-up records the JSONL event
//! stream and checkpoint of a cold sweep; every operation replays the
//! in-memory stream through `replay_stream` in verify mode and diffs the
//! replayed machines against the checkpoint. No simulation runs in the
//! timed region.

use crate::harness::{
    max_threads, repeat_setup, time_ops, timed, trace_overhead, Args, Outcome, Scratch,
};
use crate::inputs::{alerter_configs, fnv1a, seed_list};
use crate::stats::median;
use secloc_alerter::{
    diff_checkpoint, parse_line, replay_stream, Alerter, AlerterConfig, ReplayReport, WireEvent,
};
use secloc_core::{RevocationConfig, RevocationMachine};
use secloc_crypto::NodeId;
use secloc_obs::json::JsonValue;
use secloc_obs::{MemorySink, MetricsRegistry, Obs};
use secloc_sim::{Orchestrator, SweepSpec};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::Cursor;
use std::sync::Arc;

/// Seeds of the recorded sweep: 12 policies × 18 seeds = 216 cells.
const STREAM_SEEDS: usize = 18;
/// Rounds each per-call micro-timing repeats over the stream.
const ROUNDS: usize = 9;
/// Plain/observed replay pairs behind `obs.trace_overhead`.
const OVERHEAD_PAIRS: usize = 20;

/// A recorded sweep: its event stream and checkpoint, plus what a
/// faithful replay must reproduce.
#[derive(Debug, Clone)]
pub struct Recording {
    /// The JSONL event stream, one event per line.
    pub stream: String,
    /// The sweep checkpoint.
    pub checkpoint: String,
    /// Recorded `bs.alert` decisions.
    pub decisions: u64,
    /// Cells the sweep executed.
    pub cells: usize,
}

impl Recording {
    /// Runs `spec` cold on one worker (so events arrive in cell order) with
    /// an in-memory event sink and a checkpoint under `scratch`.
    pub fn record(spec: &SweepSpec, scratch: &Scratch) -> Result<Recording, String> {
        let sink = Arc::new(MemorySink::new());
        let checkpoint_path = scratch.path("checkpoint.jsonl");
        let _ = std::fs::remove_file(&checkpoint_path);
        Orchestrator::new()
            .workers(1)
            .observed(&Obs::with_sink(sink.clone()))
            .checkpoint(&checkpoint_path)
            .run(spec)
            .map_err(|e| format!("recording sweep: {e}"))?;
        let stream: String = sink.events().iter().map(|e| e.to_json() + "\n").collect();
        let decisions = stream
            .lines()
            .filter(|l| {
                JsonValue::parse(l)
                    .ok()
                    .and_then(|v| {
                        v.get("kind")
                            .and_then(JsonValue::as_str)
                            .map(|k| k == "bs.alert")
                    })
                    .unwrap_or(false)
            })
            .count() as u64;
        let checkpoint = std::fs::read_to_string(&checkpoint_path)
            .map_err(|e| format!("read checkpoint: {e}"))?;
        Ok(Recording {
            stream,
            checkpoint,
            decisions,
            cells: spec.len(),
        })
    }

    /// Digest of what the alerter acts on: every decoded event except
    /// ignored kinds. Timing fields (span durations) are left out, so equal
    /// inputs give equal digests.
    pub fn digest(&self) -> u64 {
        let acted_on: String = self
            .stream
            .lines()
            .filter_map(|l| match parse_line(l) {
                Ok(WireEvent::Ignored) => None,
                Ok(event) => Some(format!("{event:?}\n")),
                Err(e) => Some(format!("malformed {e}\n")),
            })
            .collect();
        fnv1a(acted_on.as_bytes())
    }
}

/// One operation: a verified replay of the stream, then the checkpoint
/// diff.
pub fn replay(rec: &Recording, obs: Obs) -> ReplayReport {
    let (alerter, elapsed) = replay_stream(
        Cursor::new(rec.stream.as_bytes()),
        AlerterConfig::default(),
        obs,
    )
    .expect("reading an in-memory stream cannot fail");
    let checkpoint = diff_checkpoint(&alerter, &rec.checkpoint);
    ReplayReport {
        stats: alerter.stats(),
        mismatches: alerter.mismatches().to_vec(),
        checkpoint: Some(checkpoint),
        elapsed,
    }
}

/// The correctness gate of one replay: parity with the recording, a clean
/// checkpoint diff that accounts for every cell, no malformed line, and as
/// many decisions as the recording holds. The diff compares the cells that
/// paid their own probe stage; the cells that shared one are covered by
/// the per-decision parity.
pub fn replay_ok(rec: &Recording, report: &ReplayReport) -> bool {
    let diff_covers_all = report.checkpoint.as_ref().is_some_and(|c| {
        c.cells_total == rec.cells
            && c.cells_compared > 0
            && c.cells_compared + c.cells_skipped == rec.cells
    });
    report.parity_holds()
        && diff_covers_all
        && report.stats.malformed == 0
        && report.stats.decisions == rec.decisions
}

/// The sweep whose stream `alerter_replay` replays under workload seed
/// `seed`.
pub fn stream_spec(seed: u64) -> SweepSpec {
    SweepSpec::product(
        &alerter_configs(),
        &seed_list(seed, "alerter_replay", STREAM_SEEDS),
    )
}

/// Runs `alerter_replay`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut digests = Vec::new();
    let (rec, setup_s) = repeat_setup(|i| {
        let scratch = Scratch::new(&format!("alerter_replay{i}"))?;
        let rec = Recording::record(&stream_spec(args.seed), &scratch)?;
        digests.push(rec.digest());
        Ok(rec)
    })?;
    out.check(
        digests.windows(2).all(|w| w[0] == w[1]),
        "re-recording gives the same stream",
    );
    if args.trace {
        traced(&rec, &mut out);
        return Ok(out);
    }
    let lines = rec.stream.lines().count();
    let timed_ops = time_ops(
        args.seconds,
        max_threads(),
        |_| replay(&rec, Obs::disabled()),
        |_, report| replay_ok(&rec, &report),
    );
    out.set_end_to_end(setup_s, &timed_ops, lines as f64)?;
    Ok(out)
}

/// The traced run: parse vs decide per line, raw machine decisions, and
/// the cost of the alerter's telemetry.
fn traced(rec: &Recording, out: &mut Outcome) {
    let lines: Vec<&str> = rec.stream.lines().collect();
    let n = lines.len() as f64;
    // Each round times parsing, ingestion and a full replay back to back;
    // differences and shares are taken within a round, then the median
    // across rounds reported, so the host's speed drifting between rounds
    // does not leak into them.
    let (mut parse_ns, mut ingest_ns, mut decide_ns, mut shares) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut stats = None;
    for _ in 0..ROUNDS {
        let parse = timed(|| {
            for l in &lines {
                black_box(parse_line(black_box(l))).ok();
            }
        })
        .1;
        let mut alerter = Alerter::new(
            AlerterConfig {
                verify_recorded: true,
                ..AlerterConfig::default()
            },
            Obs::disabled(),
        );
        let ingest = timed(|| {
            for l in &lines {
                alerter.ingest_line(l);
            }
        })
        .1;
        stats = Some(alerter.stats());
        let replay_s = replay(rec, Obs::disabled()).elapsed.as_secs_f64();
        parse_ns.push(parse * 1e9 / n);
        ingest_ns.push(ingest * 1e9 / n);
        decide_ns.push((ingest - parse) * 1e9 / n);
        shares.push(ingest / replay_s);
    }
    let med = |v: &[f64]| median(v).expect("rounds ran");
    let stats = stats.expect("rounds ran");
    out.set("alerter.parse.ns_per_line", med(&parse_ns));
    out.set("alerter.ingest.ns_per_line", med(&ingest_ns));
    out.set("alerter.decide.ns_per_line", med(&decide_ns));
    out.set("alerter.decisions_per_line", stats.decisions as f64 / n);
    out.set("alerter.peak_active", stats.peak_active as f64);
    out.set("sim.phases.share_sum", med(&shares));

    // The machines alone, fed the stream's accusations per deployment.
    let mut policy: HashMap<String, RevocationConfig> = HashMap::new();
    let mut slots: HashMap<String, usize> = HashMap::new();
    let mut accusations = Vec::new();
    for l in &lines {
        match parse_line(l) {
            Ok(WireEvent::DeployStart {
                deployment,
                tau,
                tau_prime,
                ..
            }) => {
                let default = RevocationConfig::paper_default();
                policy.insert(
                    deployment,
                    RevocationConfig {
                        tau: tau.unwrap_or(default.tau),
                        tau_prime: tau_prime.unwrap_or(default.tau_prime),
                    },
                );
            }
            Ok(WireEvent::Accusation {
                deployment,
                reporter,
                target,
                ..
            }) => {
                let key = deployment.unwrap_or_default();
                let next = slots.len();
                let slot = *slots.entry(key).or_insert(next);
                accusations.push((slot, NodeId(reporter), NodeId(target)));
            }
            _ => {}
        }
    }
    let mut configs = vec![RevocationConfig::paper_default(); slots.len()];
    for (key, &slot) in &slots {
        if let Some(&c) = policy.get(key) {
            configs[slot] = c;
        }
    }
    let mut decide_s = Vec::new();
    for _ in 0..ROUNDS {
        let mut machines: Vec<RevocationMachine> =
            configs.iter().map(|&c| RevocationMachine::new(c)).collect();
        decide_s.push(
            timed(|| {
                for &(slot, reporter, target) in &accusations {
                    black_box(machines[slot].decide(reporter, target));
                }
            })
            .1,
        );
    }
    out.check(
        accusations.len() as u64 == rec.decisions,
        "every recorded decision reaches a machine",
    );
    out.set(
        "core.machine.ns_per_decide",
        med(&decide_s) * 1e9 / accusations.len() as f64,
    );

    let registry = Arc::new(MetricsRegistry::new());
    let overhead = trace_overhead(
        OVERHEAD_PAIRS,
        |_| {
            black_box(replay(rec, Obs::disabled()));
        },
        |_| {
            black_box(replay(rec, Obs::with_metrics(registry.clone())));
        },
    );
    out.set("obs.trace_overhead", overhead);
}
