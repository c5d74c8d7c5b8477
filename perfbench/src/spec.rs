//! What the benchmark reports: the end-to-end metrics, the per-layer
//! metrics, and for each layer metric the prediction of which end-to-end
//! metric it should move on which workload. `BENCHMARK.json` at the
//! repository root declares the same names, units and directions; a test
//! keeps the two in step.

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["paper_run", "figure_sweep", "figure_warm", "alerter_replay"];

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name: letters, digits, `_`, `.` and `-` only.
    pub name: &'static str,
    /// Unit of the reported value.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`: which direction is an improvement.
    pub better: &'static str,
}

const fn metric(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Reported by every workload with tracing off. An *operation* is one
/// paper-default run (`paper_run`), one cold sweep of a seed batch
/// (`figure_sweep`), one warm re-sweep over a populated cache
/// (`figure_warm`), or one verified replay of the recorded stream
/// (`alerter_replay`); `ops_per_s` counts the work those operations do:
/// runs, cold cells, warm cells and stream lines respectively.
pub const END_TO_END: [Metric; 5] = [
    metric("setup_s", "s", "lower"),
    metric("peak_rss_mb", "MB", "lower"),
    metric("ops_per_s", "1/s", "higher"),
    metric("op_ms_p50", "ms", "lower"),
    metric("op_ms_p90", "ms", "lower"),
];

/// One per-layer metric and its prediction.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// The metric.
    pub metric: Metric,
    /// The public entry point (or span) the value is measured around.
    pub measured_at: &'static str,
    /// End-to-end metric(s) a change to this layer should move.
    pub moves: &'static str,
    /// Workloads whose end-to-end metrics it should move.
    pub on: &'static str,
    /// Workloads whose end-to-end metrics should not change.
    pub no_change_on: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    measured_at: &'static str,
    moves: &'static str,
    on: &'static str,
    no_change_on: &'static str,
) -> Layer {
    Layer {
        metric: metric(name, unit, better),
        measured_at,
        moves,
        on,
        no_change_on,
    }
}

const SIM_E2E: &str = "op_ms_p50, op_ms_p90, ops_per_s";
const SIM_ON: &str = "paper_run, figure_sweep";
const SIM_OFF: &str = "figure_warm, alerter_replay";

/// Reported by every workload with tracing on. A layer the workload never
/// calls reads 0 there.
pub const PER_LAYER: [Layer; 37] = [
    layer(
        "sim.deploy.ms_per_run",
        "ms",
        "lower",
        "span phase.deploy (Runner::new_observed)",
        SIM_E2E,
        "paper_run (small on figure_sweep)",
        SIM_OFF,
    ),
    layer(
        "sim.deploy.share",
        "ratio",
        "lower",
        "span phase.deploy / run wall",
        SIM_E2E,
        "paper_run (small on figure_sweep)",
        SIM_OFF,
    ),
    layer(
        "sim.detection.ms_per_run",
        "ms",
        "lower",
        "span phase.detection",
        SIM_E2E,
        SIM_ON,
        SIM_OFF,
    ),
    layer(
        "sim.detection.share",
        "ratio",
        "lower",
        "span phase.detection / run wall",
        SIM_E2E,
        SIM_ON,
        SIM_OFF,
    ),
    layer(
        "sim.location.ms_per_run",
        "ms",
        "lower",
        "span phase.location",
        SIM_E2E,
        SIM_ON,
        SIM_OFF,
    ),
    layer(
        "sim.location.share",
        "ratio",
        "lower",
        "span phase.location / run wall",
        SIM_E2E,
        SIM_ON,
        SIM_OFF,
    ),
    layer(
        "sim.impact.ms_per_run",
        "ms",
        "lower",
        "span phase.impact",
        SIM_E2E,
        SIM_ON,
        "alerter_replay",
    ),
    layer(
        "sim.impact.share",
        "ratio",
        "lower",
        "span phase.impact / run wall",
        SIM_E2E,
        SIM_ON,
        "alerter_replay",
    ),
    layer(
        "geometry.within_into.ns_per_query",
        "ns",
        "lower",
        "GridIndex::within_into",
        SIM_E2E,
        "paper_run (small on figure_sweep)",
        SIM_OFF,
    ),
    layer(
        "geometry.queries_per_run",
        "count",
        "lower",
        "spatial queries of Deployment::generate",
        SIM_E2E,
        "paper_run (small on figure_sweep)",
        SIM_OFF,
    ),
    layer(
        "sim.probe.ns_per_exchange",
        "ns",
        "lower",
        "ProbeContext::probe",
        SIM_E2E,
        SIM_ON,
        SIM_OFF,
    ),
    layer(
        "sim.probe.exchanges_per_run",
        "count",
        "lower",
        "counters probe.exchanges + probe.no_signal",
        SIM_E2E,
        SIM_ON,
        SIM_OFF,
    ),
    layer(
        "sim.probe.no_signal_ratio",
        "ratio",
        "lower",
        "counter probe.no_signal / exchanges",
        SIM_E2E,
        SIM_ON,
        SIM_OFF,
    ),
    layer(
        "core.pipeline.ns_per_verdict",
        "ns",
        "lower",
        "DetectionPipeline::evaluate_with_acceptance",
        SIM_E2E,
        SIM_ON,
        SIM_OFF,
    ),
    layer(
        "core.pipeline.alert_ratio",
        "ratio",
        "higher",
        "counter pipeline.verdict.alert / verdicts",
        SIM_E2E,
        SIM_ON,
        SIM_OFF,
    ),
    layer(
        "localization.mmse.ns_per_solve",
        "ns",
        "lower",
        "MmseScratch::load + BatchedMmse::estimate",
        SIM_E2E,
        SIM_ON,
        "alerter_replay",
    ),
    layer(
        "localization.solves_per_run",
        "count",
        "lower",
        "solves of the impact phase, re-enacted",
        SIM_E2E,
        SIM_ON,
        "alerter_replay",
    ),
    layer(
        "localization.solve_ok_ratio",
        "ratio",
        "higher",
        "BatchedMmse::estimate Ok / attempts",
        SIM_E2E,
        SIM_ON,
        "alerter_replay",
    ),
    layer(
        "sim.probe_stage.ms_per_unit",
        "ms",
        "lower",
        "Runner::probe_stage (re-enacted cold batches)",
        "ops_per_s (cold cells)",
        "figure_sweep",
        "paper_run",
    ),
    layer(
        "sim.finish.us_per_cell",
        "us",
        "lower",
        "Deployment::with_policy + Runner::finish_from_stage_memo",
        "ops_per_s (cold cells)",
        "figure_sweep",
        "paper_run",
    ),
    layer(
        "sim.cells_per_unit",
        "count",
        "higher",
        "SweepSpec cells / (P, seed) units",
        "ops_per_s (cold cells)",
        "figure_sweep",
        "paper_run",
    ),
    layer(
        "sim.orchestrator.overhead_share",
        "ratio",
        "lower",
        "1 - simulated time / (cold wall x workers)",
        "ops_per_s, op_ms_p50",
        "figure_sweep, figure_warm",
        "paper_run",
    ),
    layer(
        "sim.orchestrator.busy_share",
        "ratio",
        "higher",
        "SweepReport::worker_stats busy_ns",
        "ops_per_s (cold cells)",
        "figure_sweep",
        "paper_run",
    ),
    layer(
        "sim.orchestrator.idle_share",
        "ratio",
        "lower",
        "SweepReport::worker_stats idle_ns",
        "ops_per_s (cold cells)",
        "figure_sweep",
        "paper_run",
    ),
    layer(
        "sim.orchestrator.steal_batches",
        "count",
        "lower",
        "SweepReport::steal_batches",
        "ops_per_s (cold cells)",
        "figure_sweep",
        "paper_run",
    ),
    layer(
        "sim.cache.get.us",
        "us",
        "lower",
        "BinaryCache::get",
        "ops_per_s (warm cells)",
        "figure_warm",
        "paper_run, alerter_replay",
    ),
    layer(
        "sim.cache.insert.us",
        "us",
        "lower",
        "BinaryCache::insert_checked",
        "ops_per_s (cold cells)",
        "figure_sweep",
        "paper_run, alerter_replay",
    ),
    layer(
        "sim.cache.bytes_per_cell",
        "B",
        "lower",
        "cache directory size / cells",
        "ops_per_s",
        "figure_sweep, figure_warm",
        "paper_run, alerter_replay",
    ),
    layer(
        "sim.checkpoint.bytes_per_cell",
        "B",
        "lower",
        "checkpoint file size / cells",
        "ops_per_s (cold cells)",
        "figure_sweep",
        "paper_run, alerter_replay",
    ),
    layer(
        "alerter.parse.ns_per_line",
        "ns",
        "lower",
        "secloc_alerter::parse_line",
        "ops_per_s (lines)",
        "alerter_replay",
        "paper_run, figure_sweep, figure_warm",
    ),
    layer(
        "alerter.ingest.ns_per_line",
        "ns",
        "lower",
        "Alerter::ingest_line",
        "ops_per_s (lines)",
        "alerter_replay",
        "paper_run, figure_sweep, figure_warm",
    ),
    layer(
        "alerter.decide.ns_per_line",
        "ns",
        "lower",
        "ingest - parse",
        "ops_per_s (lines)",
        "alerter_replay",
        "paper_run, figure_sweep, figure_warm",
    ),
    layer(
        "core.machine.ns_per_decide",
        "ns",
        "lower",
        "RevocationMachine::decide",
        "ops_per_s (lines)",
        "alerter_replay",
        "paper_run, figure_sweep, figure_warm",
    ),
    layer(
        "alerter.decisions_per_line",
        "ratio",
        "higher",
        "AlerterStats decisions / lines",
        "ops_per_s (lines)",
        "alerter_replay",
        "paper_run, figure_sweep, figure_warm",
    ),
    layer(
        "alerter.peak_active",
        "count",
        "lower",
        "AlerterStats::peak_active",
        "peak_rss_mb",
        "alerter_replay",
        "paper_run, figure_sweep, figure_warm",
    ),
    layer(
        "sim.phases.share_sum",
        "ratio",
        "higher",
        "measured layer time / operation wall",
        "(health of the trace)",
        "all",
        "-",
    ),
    layer(
        "obs.trace_overhead",
        "ratio",
        "lower",
        "traced / untraced operation wall",
        "(health of the trace)",
        "all",
        "-",
    ),
];

/// Code that no workload reaches. It is listed rather than timed: no
/// benchmark number can show it paying for itself.
pub const OFF_PATH: [(&str, &str); 2] = [
    (
        "secloc_radio::medium::Medium::transmit_into",
        "no caller in secloc-sim or secloc-alerter; runs probe through ProbeContext",
    ),
    (
        "RunOptions::location_workers / Orchestrator::location_workers",
        "default 0 on every path; traced runs read gauge run.location_workers = 0",
    ),
];
