//! Workload inputs, all derived from the `--seed` argument: the same seed
//! gives byte-identical seed lists, grids and recorded streams, and a
//! different seed gives different ones.

use secloc_sim::SimConfig;

/// SplitMix64: a full-period 64-bit generator, used only to spread the
/// workload seed into per-purpose seed lists.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a, for digests of generated inputs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `n` distinct simulation seeds for `purpose` under workload seed `seed`.
/// Different purposes draw independent streams.
pub fn seed_list(seed: u64, purpose: &str, n: usize) -> Vec<u64> {
    let mut state = seed ^ fnv1a(purpose.as_bytes());
    let mut seen = std::collections::HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        // Kept below 2^53 so any JSON reader of a checkpoint or event
        // stream holds the seed exactly.
        let s = splitmix64(&mut state) >> 11;
        if seen.insert(s) {
            out.push(s);
        }
    }
    out
}

/// The figure grid behind Figs. 12–14: τ × τ′ × P at paper scale, every
/// other knob at [`SimConfig::paper_default`]. The 18 (τ, τ′) cells of one
/// P value share each (P, seed) probe stage.
pub fn figure_configs() -> Vec<SimConfig> {
    let mut configs = Vec::new();
    for attacker_p in [0.1, 0.3, 0.5, 0.8] {
        for tau in [2, 3, 4] {
            for tau_prime in [0, 1, 2, 3, 4, 6] {
                configs.push(SimConfig {
                    tau,
                    tau_prime,
                    attacker_p,
                    ..SimConfig::paper_default()
                });
            }
        }
    }
    configs
}

/// The grid whose sweep is recorded for `alerter_replay`: a τ × τ′ grid
/// with collusion on and an aggressive attacker, so the stream carries
/// accepted, duplicate, budget-exhausted and revoking decisions.
pub fn alerter_configs() -> Vec<SimConfig> {
    let mut configs = Vec::new();
    for tau in [1, 2, 3] {
        for tau_prime in [1, 2, 3, 4] {
            configs.push(SimConfig {
                tau,
                tau_prime,
                attacker_p: 0.5,
                collusion: true,
                ..SimConfig::paper_default()
            });
        }
    }
    configs
}
