//! The benchmark's own checks: metric names, percentile reporting,
//! input determinism, failure accounting, and agreement with the
//! repository's `BENCHMARK.json`.

use secloc_obs::json::JsonValue;
use secloc_obs::Obs;
use secloc_perfbench::alerter_replay::{replay, replay_ok, stream_spec, Recording};
use secloc_perfbench::harness::{time_ops, Outcome, Scratch};
use secloc_perfbench::inputs::{figure_configs, seed_list};
use secloc_perfbench::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use secloc_perfbench::stats::percentile;
use secloc_sim::{SimConfig, SweepSpec};

/// The naming rule for metrics: 1 to 64 of `[A-Za-z0-9_.-]`, starting
/// with a letter or digit.
fn valid_metric_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A canonical text rendering of a sweep's cells.
fn spec_text(spec: &SweepSpec) -> String {
    spec.cells()
        .iter()
        .map(|c| format!("{:?};seed={}\n", c.config, c.seed))
        .collect()
}

fn all_metrics() -> Vec<secloc_perfbench::spec::Metric> {
    END_TO_END
        .iter()
        .copied()
        .chain(PER_LAYER.iter().map(|l| l.metric))
        .collect()
}

#[test]
fn metric_names_use_only_the_allowed_characters() {
    let metrics = all_metrics();
    for m in &metrics {
        assert!(valid_metric_name(m.name), "bad metric name {}", m.name);
        assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
    }
    let mut names: Vec<_> = metrics.iter().map(|m| m.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), metrics.len(), "metric names must be unique");
    for bad in [
        "",
        "has space",
        "slash/name",
        "_leading",
        "a".repeat(65).as_str(),
        "ünïcode",
    ] {
        assert!(!valid_metric_name(bad), "{bad:?} accepted");
    }
}

#[test]
fn percentiles_need_ten_samples_beyond_them() {
    let samples = |n: u32| (1..=n).map(f64::from).collect::<Vec<_>>();
    assert_eq!(percentile(&samples(99), 0.9), None);
    assert_eq!(percentile(&samples(100), 0.9), Some(90.0));
    assert_eq!(percentile(&samples(19), 0.5), None);
    assert_eq!(percentile(&samples(20), 0.5), Some(10.0));
    assert_eq!(percentile(&[], 0.5), None);
}

fn tiny_spec(seed: u64) -> SweepSpec {
    let config = SimConfig {
        nodes: 200,
        beacons: 20,
        malicious: 3,
        attacker_p: 0.8,
        ..SimConfig::paper_default()
    };
    let policies: Vec<SimConfig> = [1, 2]
        .iter()
        .map(|&tau_prime| SimConfig {
            tau_prime,
            ..config.clone()
        })
        .collect();
    SweepSpec::product(&policies, &seed_list(seed, "test", 2))
}

#[test]
fn inputs_are_a_function_of_the_seed() {
    assert_eq!(seed_list(7, "paper_run", 64), seed_list(7, "paper_run", 64));
    assert_ne!(seed_list(7, "paper_run", 64), seed_list(8, "paper_run", 64));
    let list = seed_list(7, "paper_run", 4096);
    let mut distinct = list.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), list.len(), "seed lists hold distinct seeds");

    let grid = |seed| {
        spec_text(&SweepSpec::product(
            &figure_configs(),
            &seed_list(seed, "figure_sweep", 4),
        ))
    };
    assert_eq!(grid(7), grid(7));
    assert_ne!(grid(7), grid(8));
    assert_eq!(spec_text(&stream_spec(7)), spec_text(&stream_spec(7)));
    assert_ne!(spec_text(&stream_spec(7)), spec_text(&stream_spec(8)));

    let scratch = Scratch::new("test-digest").expect("scratch");
    let digest = |seed| {
        Recording::record(&tiny_spec(seed), &scratch)
            .expect("record")
            .digest()
    };
    assert_eq!(digest(7), digest(7), "same seed, same recorded stream");
    assert_ne!(digest(7), digest(8), "different seed, different stream");
}

#[test]
fn a_corrupt_replay_line_counts_as_a_failure() {
    let scratch = Scratch::new("test-corrupt").expect("scratch");
    let clean = Recording::record(&tiny_spec(3), &scratch).expect("record");
    assert!(clean.decisions > 0, "the stream must carry decisions");
    let mut corrupt = clean.clone();
    let cut = corrupt.stream.len() / 2;
    let at = corrupt.stream[cut..].find('\n').expect("a line break") + cut + 1;
    corrupt
        .stream
        .insert_str(at, "{\"kind\":\"bs.alert\",\"reporter\":\n");

    // The workload's own loop and accounting, on each recording.
    let error_rate = |rec: &Recording| {
        let timed = time_ops(
            0.0,
            2,
            |_| replay(rec, Obs::disabled()),
            |_, r| replay_ok(rec, &r),
        );
        let mut out = Outcome::default();
        out.set_end_to_end(0.1, &timed, 1.0)
            .expect("enough operations");
        let line = out.render(false).expect("render");
        let parsed = JsonValue::parse(&line).expect("result line is JSON");
        let field = |f: &str| parsed.get(f).and_then(JsonValue::as_u64).expect(f);
        let correct = parsed.get("correct").and_then(JsonValue::as_bool);
        (field("failed") as f64 / field("attempted") as f64, correct)
    };
    assert_eq!(error_rate(&clean), (0.0, Some(true)));
    assert_eq!(error_rate(&corrupt), (1.0, Some(false)));
}

#[test]
fn render_refuses_missing_or_undeclared_metrics() {
    let mut out = Outcome::default();
    out.check(true, "one op");
    out.set("setup_s", 1.0);
    assert!(
        out.render(false).is_err(),
        "missing metrics must not render"
    );
    out.zero_unset_layers();
    assert!(
        out.render(false).is_err(),
        "layer metrics are not end-to-end"
    );
    let mut layers = Outcome::default();
    layers.check(true, "one op");
    layers.zero_unset_layers();
    assert!(layers.render(true).is_ok());
}

#[test]
fn benchmark_json_declares_what_the_benchmark_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let json = JsonValue::parse(&text).expect("BENCHMARK.json is JSON");
    let entries = |key: &str| -> Vec<(String, String, String)> {
        json.get(key)
            .and_then(JsonValue::as_array)
            .expect(key)
            .iter()
            .map(|e| {
                let field = |f: &str| {
                    e.get(f)
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_string()
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    };
    let declared = |metrics: Vec<secloc_perfbench::spec::Metric>| -> Vec<(String, String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
            .collect()
    };
    assert_eq!(entries("end_to_end"), declared(END_TO_END.to_vec()));
    assert_eq!(
        entries("per_layer"),
        declared(PER_LAYER.iter().map(|l| l.metric).collect())
    );
    let workloads: Vec<String> = entries("workloads").into_iter().map(|w| w.0).collect();
    assert_eq!(workloads, WORKLOADS);
    for l in &PER_LAYER {
        assert!(!l.measured_at.is_empty() && !l.moves.is_empty() && !l.on.is_empty());
    }
}
