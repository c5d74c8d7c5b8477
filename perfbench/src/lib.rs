//! The secloc benchmark: end-to-end and per-layer measurement of the
//! simulator, the sweep orchestrator with its cache, and the streaming
//! alerter, driven only through their public entry points.
//!
//! Run one workload with
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_run --seed 1 --seconds 10 --trace 0
//! ```
//!
//! from the repository root. The last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1` (see [`spec`]). Progress and the layer prediction map go to
//! standard error. All load is closed-loop from this one process, on at
//! most `min(2, cores)` threads, with default options throughout.

pub mod alerter_replay;
pub mod figure;
pub mod harness;
pub mod inputs;
pub mod paper_run;
pub mod simlayers;
pub mod spec;
pub mod stats;
