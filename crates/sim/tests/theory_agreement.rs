//! Cross-validation: the simulation must track the closed-form analysis —
//! the headline claim of the paper's Figs. 12 and 13 ("the simulation
//! result and the theoretical result are in general close to each other").

use secloc_analysis::{affected_nonbeacons, revocation_rate_pd, NetworkPopulation};
use secloc_sim::{average_outcomes, RunOptions, Runner, SimConfig, SimOutcome};

fn outcomes_over(p: f64, seeds: std::ops::Range<u64>) -> (Vec<SimOutcome>, f64) {
    let cfg = SimConfig {
        attacker_p: p,
        collusion: false, // theory models no collusion
        wormhole: None,   // and no wormhole false positives
        ..SimConfig::paper_default()
    };
    let outcomes: Vec<SimOutcome> = seeds
        .map(|s| Runner::new(cfg.clone(), s).run(RunOptions::new()).outcome)
        .collect();
    let mean_nc = outcomes
        .iter()
        .map(|o| o.mean_requesters_per_beacon)
        .sum::<f64>()
        / outcomes.len() as f64;
    (outcomes, mean_nc)
}

#[test]
fn detection_rate_tracks_theory_fig12() {
    let pop = NetworkPopulation::paper_simulation();
    for &p in &[0.1, 0.3, 0.6] {
        let (outcomes, mean_nc) = outcomes_over(p, 0..6);
        let agg = average_outcomes(&outcomes);
        let theory = revocation_rate_pd(p, 8, 2, mean_nc.round() as u64, pop);
        assert!(
            (agg.detection_rate - theory).abs() < 0.15,
            "P={p}: simulated {:.3} vs theoretical {:.3} (Nc={mean_nc:.1})",
            agg.detection_rate,
            theory
        );
    }
}

#[test]
fn affected_nonbeacons_tracks_theory_fig13() {
    let pop = NetworkPopulation::paper_simulation();
    for &p in &[0.05, 0.1] {
        let (outcomes, mean_nc) = outcomes_over(p, 10..16);
        let agg = average_outcomes(&outcomes);
        let theory = affected_nonbeacons(p, 8, 2, mean_nc.round() as u64, pop);
        // N' is small (a few nodes); allow absolute slack of 1.5 nodes.
        assert!(
            (agg.affected_after - theory).abs() < 1.5,
            "P={p}: simulated N'={:.2} vs theoretical {:.2} (Nc={mean_nc:.1})",
            agg.affected_after,
            theory
        );
    }
}

#[test]
fn no_attack_no_alerts_no_revocations() {
    let cfg = SimConfig {
        malicious: 0,
        collusion: false,
        wormhole: None,
        ..SimConfig::paper_default()
    };
    let o = Runner::new(cfg, 42).run(RunOptions::new()).outcome;
    assert_eq!(o.benign_alerts, 0, "benign network must be alert-free");
    assert_eq!(o.revoked_benign, 0);
    assert_eq!(o.detection_rate(), 1.0); // vacuous
    assert_eq!(o.false_positive_rate(), 0.0);
}

#[test]
fn wormhole_alone_causes_bounded_false_alerts() {
    // Only the wormhole (no malicious beacons, no collusion): benign
    // detectors may mis-accuse each other at rate <= (1 - p_d) per
    // wormhole-connected pair.
    let cfg = SimConfig {
        malicious: 0,
        collusion: false,
        ..SimConfig::paper_default()
    };
    let mut total_alerts = 0usize;
    for seed in 0..5 {
        let o = Runner::new(cfg.clone(), seed)
            .run(RunOptions::new())
            .outcome;
        total_alerts += o.benign_alerts;
        // (1-p_d) N_w stays tiny; the tau' = 2 threshold keeps revocations
        // near zero.
        assert!(
            o.revoked_benign <= 2,
            "seed {seed}: {} benign revoked",
            o.revoked_benign
        );
    }
    // Alerts can occur (the wormhole detector misses 10%) but must be few.
    assert!(
        total_alerts < 200,
        "too many wormhole false alerts: {total_alerts}"
    );
}

#[test]
fn collusion_false_positive_bound_holds_in_full_config() {
    // Full paper config: the Na(tau+1)/(tau'+1) bound on spam revocations,
    // plus a little room for wormhole-induced false positives.
    let cfg = SimConfig::paper_default();
    let bound = (cfg.malicious * (cfg.tau + 1)) / (cfg.tau_prime + 1);
    for seed in 0..4 {
        let o = Runner::new(cfg.clone(), seed)
            .run(RunOptions::new())
            .outcome;
        assert!(
            o.revoked_benign <= bound + 3,
            "seed {seed}: {} > bound {}",
            o.revoked_benign,
            bound
        );
    }
}

#[test]
fn more_detecting_ids_means_more_revocations() {
    // Fig. 6b seen from the simulation: m = 1 vs m = 8 at moderate P.
    let run = |m: u32| -> f64 {
        let cfg = SimConfig {
            detecting_ids: m,
            attacker_p: 0.15,
            collusion: false,
            wormhole: None,
            ..SimConfig::paper_default()
        };
        let outs: Vec<SimOutcome> = (20..26)
            .map(|s| Runner::new(cfg.clone(), s).run(RunOptions::new()).outcome)
            .collect();
        average_outcomes(&outs).detection_rate
    };
    let m1 = run(1);
    let m8 = run(8);
    assert!(
        m8 > m1 + 0.1,
        "detection rate must grow with m: m=1 {m1:.3}, m=8 {m8:.3}"
    );
}
