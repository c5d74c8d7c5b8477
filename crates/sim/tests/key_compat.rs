//! Cell-key compatibility: every persisted key must survive changes to how
//! keys are derived.
//!
//! Cache entries and checkpoints are addressed by FNV-1a hashes of a
//! canonical `(config, seed, options, tag)` encoding. Two checks pin that
//! encoding:
//!
//! - golden values — a cell key, a checkpoint header's `grid` and a config
//!   fingerprint recorded as hex literals — so any change to the hashed
//!   bytes fails here rather than silently orphaning every existing cache;
//! - a property that the keys a sweep derives once per config run equal
//!   the per-cell [`cell_key`] for every way of building a spec, including
//!   configs that are equal under `PartialEq` but format differently
//!   (`0.0` vs `-0.0`), which must keep distinct keys.
//!
//! The orchestrator is observed from outside: a binary cache pre-filled
//! under per-cell keys must serve every cell of the sweep, and the
//! checkpoint it writes must record those keys. Nothing is simulated
//! there.
//!
//! A key is only as good as the outcome stored under it, so the last test
//! pins simulated outcomes too: every field of a few runs, floats by their
//! bits.

use proptest::prelude::*;
use secloc_faults::NoiseRegion;
use secloc_obs::fnv1a;
use secloc_sim::orchestrator::{cell_key, config_fingerprint, CellKey};
use secloc_sim::{
    BinaryCache, CacheFormat, FaultPlan, ImpactMemo, Orchestrator, RunOptions, Runner, SimConfig,
    SimOutcome, SweepCell, SweepSpec,
};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const TAG: &str = "key-compat";

/// A unique temp dir per test — the suite runs tests in parallel.
fn scratch(label: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "secloc-keycompat-{label}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A made-up outcome that is a pure function of its key, so duplicate
/// cells agree on it.
fn outcome_for(key: CellKey) -> SimOutcome {
    SimOutcome {
        malicious_total: 10,
        benign_total: 90,
        revoked_malicious: (key.0 % 11) as u32,
        revoked_benign: 0,
        affected_before: (key.0 % 1000) as f64 / 8.0,
        affected_after: 0.5,
        benign_alerts: (key.0 >> 40) as usize,
        collusion_alerts: 3,
        mean_requesters_per_beacon: 1.0 / 3.0,
        mean_loc_error_before_ft: Some(2.25),
        mean_loc_error_after_ft: None,
    }
}

/// The checkpoint lines a sweep of `spec` writes when a cache pre-filled
/// under per-cell [`cell_key`]s serves every cell.
fn checkpoint_of_warm_sweep(spec: &SweepSpec) -> Vec<String> {
    let dir = scratch("warm");
    let cache_dir = dir.join("cache.bin");
    let mut cache = BinaryCache::open(&cache_dir, spec.len()).unwrap();
    for cell in spec.cells() {
        let key = cell_key(&cell.config, cell.seed, TAG);
        cache.insert_checked(key, outcome_for(key)).unwrap();
    }
    drop(cache);
    let checkpoint = dir.join("checkpoint.jsonl");
    let report = Orchestrator::new()
        .tag(TAG)
        .cache(&cache_dir)
        .cache_format(CacheFormat::Binary)
        .checkpoint(&checkpoint)
        .run(spec)
        .unwrap();
    assert_eq!(report.executed, 0, "every cell is served by its cell_key");
    assert_eq!(report.cache_hits, spec.len());
    for (cell, outcome) in spec.cells().iter().zip(&report.outcomes) {
        assert_eq!(
            *outcome,
            outcome_for(cell_key(&cell.config, cell.seed, TAG))
        );
    }
    let text = fs::read_to_string(&checkpoint).unwrap();
    fs::remove_dir_all(&dir).ok();
    text.lines().map(str::to_string).collect()
}

/// The value of string field `name` in a flat JSON line.
fn str_field(line: &str, name: &str) -> String {
    let pat = format!("\"{name}\":\"");
    let start = line.find(&pat).expect("field present") + pat.len();
    let len = line[start..].find('"').expect("closing quote");
    line[start..start + len].to_string()
}

fn golden_grid() -> SweepSpec {
    let paper = SimConfig::paper_default();
    let stricter = SimConfig {
        tau: paper.tau + 1,
        ..paper.clone()
    };
    SweepSpec::product(&[paper, stricter], &[7, 8, 9])
}

#[test]
fn golden_keys_are_pinned() {
    let paper = SimConfig::paper_default();
    assert_eq!(
        cell_key(&paper, 7, TAG).to_string(),
        "25ef3d9e145ea752",
        "cell_key of paper_default, seed 7"
    );
    assert_eq!(
        config_fingerprint(&paper),
        "ec107f0494119334",
        "config_fingerprint of paper_default under the current code tag"
    );
    let single = checkpoint_of_warm_sweep(&SweepSpec::single(&paper, &[7]));
    assert_eq!(str_field(&single[0], "grid"), "497a0e0d49077b63");
    let product = checkpoint_of_warm_sweep(&golden_grid());
    assert_eq!(str_field(&product[0], "grid"), "ef227e510c24b34b");
}

/// Keys the orchestrator derives for `spec`, checked three ways against
/// per-cell `cell_key`: the spec's own derivation, the keys recorded in
/// the checkpoint, and the checkpoint header's grid hash.
fn assert_run_keys_match(spec: &SweepSpec) {
    let expected: Vec<CellKey> = spec
        .cells()
        .iter()
        .map(|c| cell_key(&c.config, c.seed, TAG))
        .collect();
    assert_eq!(spec.cell_keys(TAG), expected);
    let lines = checkpoint_of_warm_sweep(spec);
    assert_eq!(lines.len(), spec.len() + 1, "header plus one line per cell");
    let joined: String = expected.iter().map(|k| format!("{k};")).collect();
    assert_eq!(
        str_field(&lines[0], "grid"),
        CellKey(fnv1a(joined.as_bytes())).to_string()
    );
    for (line, key) in lines[1..].iter().zip(&expected) {
        assert_eq!(str_field(line, "key"), key.to_string());
    }
}

fn with_attacker_p(p: f64) -> SimConfig {
    SimConfig {
        nodes: 120,
        beacons: 12,
        malicious: 3,
        attacker_p: p,
        ..SimConfig::paper_default()
    }
}

#[test]
fn equal_configs_with_different_encodings_keep_different_keys() {
    let (plus, minus) = (with_attacker_p(0.0), with_attacker_p(-0.0));
    assert_eq!(plus, minus, "equal under PartialEq");
    assert_ne!(format!("{plus:?}"), format!("{minus:?}"));
    assert_ne!(cell_key(&plus, 1, TAG), cell_key(&minus, 1, TAG));
    let specs = [
        SweepSpec::product(&[plus.clone(), minus.clone()], &[1, 2]),
        SweepSpec::new(vec![
            SweepCell {
                config: plus.clone(),
                seed: 1,
            },
            SweepCell {
                config: minus.clone(),
                seed: 1,
            },
        ]),
    ];
    for spec in &specs {
        let keys = spec.cell_keys(TAG);
        assert_ne!(keys[0], keys[spec.len() / 2], "{spec:?}");
        assert_run_keys_match(spec);
    }
    let singles = [
        SweepSpec::single(&plus, &[1]).cell_keys(TAG),
        SweepSpec::single(&minus, &[1]).cell_keys(TAG),
    ];
    assert_ne!(singles[0], singles[1]);
}

/// One of a few configs, some equal under `PartialEq` but not in `Debug`.
fn config_from(choice: u8) -> SimConfig {
    match choice % 4 {
        0 => with_attacker_p(0.0),
        1 => with_attacker_p(-0.0),
        2 => with_attacker_p(0.5),
        _ => SimConfig {
            tau_prime: 3,
            ..with_attacker_p(0.5)
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Run-derived keys equal per-cell keys for every constructor, with
    /// repeated configs and repeated seeds allowed.
    #[test]
    fn run_derived_keys_equal_cell_keys(
        choices in proptest::collection::vec(any::<u8>(), 0..5),
        seeds in proptest::collection::vec(0u64..4, 0..4),
        shape in 0u8..3,
    ) {
        let configs: Vec<SimConfig> = choices.iter().map(|&c| config_from(c)).collect();
        let spec = match shape {
            0 => SweepSpec::product(&configs, &seeds),
            1 => SweepSpec::single(&configs.first().cloned().unwrap_or_default(), &seeds),
            _ => SweepSpec::new(
                configs
                    .iter()
                    .zip(seeds.iter().cycle())
                    .map(|(config, &seed)| SweepCell { config: config.clone(), seed })
                    .collect(),
            ),
        };
        assert_run_keys_match(&spec);
    }
}

/// Every field of `o` as text, with each float as its IEEE-754 bits, so a
/// change in the last bit of any field changes the string.
fn outcome_bits(o: &SimOutcome) -> String {
    let opt = |v: Option<f64>| v.map_or("none".to_string(), |x| format!("{:016x}", x.to_bits()));
    format!(
        "{} {} {} {} {:016x} {:016x} {} {} {:016x} {} {}",
        o.malicious_total,
        o.benign_total,
        o.revoked_malicious,
        o.revoked_benign,
        o.affected_before.to_bits(),
        o.affected_after.to_bits(),
        o.benign_alerts,
        o.collusion_alerts,
        o.mean_requesters_per_beacon.to_bits(),
        opt(o.mean_loc_error_before_ft),
        opt(o.mean_loc_error_after_ft),
    )
}

fn run_bits(config: &SimConfig, seed: u64) -> String {
    outcome_bits(
        &Runner::new(config.clone(), seed)
            .run(RunOptions::new())
            .outcome,
    )
}

/// Outcome values pinned bit for bit, so a change to any solver, draw
/// order or accumulation order on the simulated path fails here. Covers
/// plain runs, an aggressive attacker, a ranging-noise fault plan, and a
/// two-cell τ′ pair finished from one shared probe stage and impact memo.
#[test]
fn golden_outcomes_are_pinned() {
    let paper = SimConfig::paper_default();
    let paper_runs: Vec<String> = (0..4).map(|seed| run_bits(&paper, seed)).collect();
    assert_eq!(paper_runs, [
            "10 90 5 10 401acccccccccccd 400c000000000000 39 30 404f8147ae147ae1 4044a9bc998e930a 4044c237230cf13d",
            "10 90 6 10 4018cccccccccccd 400599999999999a 39 30 404e6e147ae147ae 404098f27c0c1dd8 404068ecffe6575d",
            "10 90 6 10 4014666666666666 3ff6666666666666 29 30 404f947ae147ae14 4043bbbd72bf4821 4043c441f66d63c4",
            "10 90 4 10 401a666666666666 400d99999999999a 35 30 404f9d70a3d70a3d 40443f2cd331cf93 4042fadcbe1161ac",
        ], "paper_default, seeds 0-3");

    let aggressive = SimConfig {
        attacker_p: 0.6,
        ..paper.clone()
    };
    assert_eq!(run_bits(&aggressive, 5),
        "10 90 9 10 404099999999999a 4008cccccccccccd 56 30 404ebc28f5c28f5c 40519b48caf08715 404927306f9e4d24", "attacker_p = 0.6, seed 5");

    let noisy = SimConfig {
        faults: FaultPlan::default().with_noise_region(NoiseRegion::whole_field(1000.0, 1.5)),
        ..paper.clone()
    };
    assert_eq!(run_bits(&noisy, 6),
        "10 90 7 64 4016000000000000 3ff8000000000000 543 30 404fa8f5c28f5c29 404b1d389aecab26 4050dae2e7bfcceb", "ranging-noise plan, seed 6");

    let loose = SimConfig {
        attacker_p: 0.6,
        tau_prime: 1,
        ..paper.clone()
    };
    let base = Runner::new(aggressive.clone(), 7);
    let stage = base.probe_stage();
    let mut memo = ImpactMemo::new();
    let first = base.finish_from_stage_memo(&stage, &mut memo);
    let rekeyed = base.deployment().with_policy(loose).unwrap();
    let second = Runner::from_deployment(rekeyed).finish_from_stage_memo(&stage, &mut memo);
    assert_eq!(
        [outcome_bits(&first), outcome_bits(&second)],
        [
            "10 90 7 10 40410ccccccccccd 402399999999999a 45 30 404e570a3d70a3d7 4051ec548a448260 404932c6f2e139de",
            "10 90 8 15 40410ccccccccccd 4018666666666666 45 30 404e570a3d70a3d7 4051ec548a448260 404793f13ddebbd1",
        ],
        "tau' = 2 then 1 from one probe stage, seed 7"
    );
}
