//! The parts every workload shares: arguments, the closed timing loop,
//! set-up timing, peak memory, a scratch directory inside the checkout,
//! and the result line.

use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{median, percentile};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Fewest timed operations per run: enough for the p90 to have
/// [`crate::stats::MIN_BEYOND`] samples beyond it.
pub const MIN_OPS: usize = 100;
/// Times each workload's set-up is repeated; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Wall-clock cap on the timed loop, however few operations have run, so
/// a run ends well inside the time allowed for it.
const MAX_TIMED_S: f64 = 90.0;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed every input is derived from.
    pub seed: u64,
    /// Seconds the timed region should last.
    pub seconds: f64,
    /// Whether to run the traced (per-layer) measurement instead.
    pub trace: bool,
}

/// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {s} outside (0, 60]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

/// What a workload hands back: correctness tallies and metric values.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations and correctness gates attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Counts one attempted operation or gate, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }

    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Counts the timed operations and their failures, and sets the
    /// end-to-end metrics from a set-up time, the timed loop, and the work
    /// units (runs, cells, lines) one operation completes.
    pub fn set_end_to_end(
        &mut self,
        setup_s: f64,
        timed: &Timed,
        work_per_op: f64,
    ) -> Result<(), String> {
        self.attempted += timed.op_s.len() as u64;
        self.failed += timed.failed;
        let ms: Vec<f64> = timed.op_s.iter().map(|s| s * 1e3).collect();
        let p50 = percentile(&ms, 0.5).ok_or("too few operations for a p50")?;
        let p90 = percentile(&ms, 0.9).ok_or("too few operations for a p90")?;
        let work = timed.op_s.len() as f64 * work_per_op;
        self.set("setup_s", setup_s);
        self.set("peak_rss_mb", peak_rss_mb()?);
        self.set("ops_per_s", work / timed.wall_s);
        self.set("op_ms_p50", p50);
        self.set("op_ms_p90", p90);
        Ok(())
    }

    /// Reports 0 for every per-layer metric the workload did not set: it
    /// makes no calls into that layer.
    pub fn zero_unset_layers(&mut self) {
        for l in &PER_LAYER {
            if !self.metrics.iter().any(|(n, _)| *n == l.metric.name) {
                self.metrics.push((l.metric.name, 0.0));
            }
        }
    }

    /// The result line: exactly the declared metrics for the mode, in
    /// declaration order, each with its unit.
    pub fn render(&self, trace: bool) -> Result<String, String> {
        let declared: Vec<(&str, &str)> = if trace {
            PER_LAYER
                .iter()
                .map(|l| (l.metric.name, l.metric.unit))
                .collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        for (name, _) in &self.metrics {
            if !declared.iter().any(|(d, _)| d == name) {
                return Err(format!("metric {name} is not declared for this mode"));
            }
        }
        let mut body = Vec::with_capacity(declared.len());
        for (name, unit) in declared {
            let mut values = self.metrics.iter().filter(|(n, _)| *n == name);
            let (Some(&(_, value)), None) = (values.next(), values.next()) else {
                return Err(format!("metric {name} missing or reported twice"));
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            body.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            body.join(", ")
        ))
    }
}

/// What one timed loop measured.
#[derive(Debug, Default)]
pub struct Timed {
    /// Duration of each operation, in seconds, over all clients.
    pub op_s: Vec<f64>,
    /// Wall time of the whole loop, in seconds.
    pub wall_s: f64,
    /// Operations whose result failed its check.
    pub failed: u64,
}

/// Runs `clients` closed loops, each issuing its next operation only after
/// the previous one returned, until `seconds` have passed and at least
/// [`MIN_OPS`] operations completed. Every call of `op(i)` is timed, with
/// `i` unique across clients; `check(i, result)` runs outside the timed
/// span and says whether the result is correct.
pub fn time_ops<T>(
    seconds: f64,
    clients: usize,
    op: impl Fn(usize) -> T + Sync,
    check: impl Fn(usize, T) -> bool + Sync,
) -> Timed {
    let start = Instant::now();
    let issued = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let client = || {
        let (mut op_s, mut failed) = (Vec::new(), 0u64);
        loop {
            let elapsed = start.elapsed().as_secs_f64();
            let enough = elapsed >= seconds && done.load(Ordering::Relaxed) >= MIN_OPS;
            if enough || elapsed >= MAX_TIMED_S {
                return (op_s, failed);
            }
            let i = issued.fetch_add(1, Ordering::Relaxed);
            let t = Instant::now();
            let result = op(i);
            op_s.push(t.elapsed().as_secs_f64());
            done.fetch_add(1, Ordering::Relaxed);
            if !check(i, result) {
                if failed == 0 {
                    eprintln!("perfbench: operation {i} failed its check");
                }
                failed += 1;
            }
        }
    };
    let per_client: Vec<(Vec<f64>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients.max(1)).map(|_| scope.spawn(client)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("benchmark client panicked"))
            .collect()
    });
    let mut timed = Timed {
        wall_s: start.elapsed().as_secs_f64(),
        ..Timed::default()
    };
    for (op_s, failed) in per_client {
        timed.op_s.extend(op_s);
        timed.failed += failed;
    }
    timed
}

/// Runs `setup` [`SETUP_REPEATS`] times; returns the last result and the
/// median duration in seconds.
pub fn repeat_setup<T>(
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut secs = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for i in 0..SETUP_REPEATS {
        let t = Instant::now();
        last = Some(setup(i)?);
        secs.push(t.elapsed().as_secs_f64());
    }
    let value = last.ok_or("no set-up ran")?;
    Ok((value, median(&secs).ok_or("no set-up ran")?))
}

/// Traced ÷ untraced wall over `pairs` paired operations, alternating
/// which of the pair runs first so drift and warm-up fall on both sides.
pub fn trace_overhead(
    pairs: usize,
    mut plain: impl FnMut(usize),
    mut traced: impl FnMut(usize),
) -> f64 {
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    for i in 0..pairs {
        for traced_turn in [i % 2 == 1, i % 2 == 0] {
            let t = Instant::now();
            if traced_turn {
                traced(i);
                traced_s += t.elapsed().as_secs_f64();
            } else {
                plain(i);
                plain_s += t.elapsed().as_secs_f64();
            }
        }
    }
    traced_s / plain_s
}

/// Seconds `f` takes, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Peak resident memory of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Threads the benchmark loads the machine with: `min(2, available
/// cores)`. A sweep runs that many workers; a workload whose operation is
/// single-threaded runs that many closed-loop clients instead. On a shared
/// host the speeds of the two cores vary independently, so loading both
/// gives steadier figures than either alone.
pub fn max_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// A directory under `.bench_tmp/` in the working directory, removed on
/// drop, for the caches and checkpoints the sweeps write.
#[derive(Debug)]
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Creates a fresh scratch directory for `workload`.
    pub fn new(workload: &str) -> Result<Self, String> {
        let dir = Path::new(".bench_tmp").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch { dir })
    }

    /// A path inside the scratch directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // Leave no empty parent behind either; fails harmlessly while
        // another run's directory is still there.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// Total size in bytes of the regular files under `path`.
pub fn disk_bytes(path: &Path) -> u64 {
    let Ok(meta) = std::fs::metadata(path) else {
        return 0;
    };
    if meta.is_file() {
        return meta.len();
    }
    std::fs::read_dir(path)
        .map(|entries| entries.flatten().map(|e| disk_bytes(&e.path())).sum())
        .unwrap_or(0)
}
