//! Index sizing of the binary result cache under the orchestrator.
//!
//! A sweep reserves index slots only for the cells that miss, once its hit
//! scan has counted them: a warm re-sweep leaves `index.bin` exactly as it
//! found it, and a sweep with misses grows the index at most once, before
//! its first insert, never mid-run.

use secloc_obs::{fnv1a, Event, EventSink, Obs};
use secloc_sim::orchestrator::{cell_key, CellKey};
use secloc_sim::{BinaryCache, CacheFormat, Orchestrator, SimConfig, SimOutcome, SweepSpec};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const TAG: &str = "cache-reserve";

/// A unique temp dir per test — the suite runs tests in parallel.
fn scratch(label: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "secloc-reserve-{label}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn tiny(attacker_p: f64) -> SimConfig {
    SimConfig {
        nodes: 120,
        beacons: 12,
        malicious: 3,
        attacker_p,
        ..SimConfig::paper_default()
    }
}

/// A made-up outcome, as a pre-filled cache entry.
fn outcome_for(key: CellKey) -> SimOutcome {
    SimOutcome {
        malicious_total: 3,
        benign_total: 9,
        revoked_malicious: (key.0 % 4) as u32,
        revoked_benign: 0,
        affected_before: 1.5,
        affected_after: 0.25,
        benign_alerts: 2,
        collusion_alerts: 0,
        mean_requesters_per_beacon: 4.0,
        mean_loc_error_before_ft: Some(3.0),
        mean_loc_error_after_ft: Some(2.0),
    }
}

/// Inserts `dead` entries outside any grid plus an entry for every cell
/// of `hits`, under the keys a sweep tagged [`TAG`] looks up.
fn prefill(cache_dir: &Path, dead: u64, hits: &SweepSpec) {
    let mut cache = BinaryCache::open(cache_dir, 0).unwrap();
    for i in 0..dead {
        let key = CellKey(fnv1a(&i.to_le_bytes()));
        cache.insert_checked(key, outcome_for(key)).unwrap();
    }
    for cell in hits.cells() {
        let key = cell_key(&cell.config, cell.seed, TAG);
        cache.insert_checked(key, outcome_for(key)).unwrap();
    }
}

fn index_len(cache_dir: &Path) -> u64 {
    fs::metadata(cache_dir.join("index.bin")).unwrap().len()
}

fn sweep(cache_dir: &Path) -> Orchestrator {
    Orchestrator::new()
        .tag(TAG)
        .workers(2)
        .cache(cache_dir)
        .cache_format(CacheFormat::Binary)
}

#[test]
fn warm_resweep_leaves_the_index_untouched() {
    // 400 cached cells fit the minimum 1024-slot index; reserving room
    // for 400 *more* on open would double it although nothing is inserted.
    let configs: Vec<SimConfig> = [0.2, 0.4, 0.6, 0.8].map(tiny).to_vec();
    let seeds: Vec<u64> = (0..100).collect();
    let spec = SweepSpec::product(&configs, &seeds);
    let dir = scratch("warm");
    let cache_dir = dir.join("cache.bin");
    prefill(&cache_dir, 0, &spec);
    let before = fs::read(cache_dir.join("index.bin")).unwrap();
    for _ in 0..2 {
        let report = sweep(&cache_dir).run(&spec).unwrap();
        assert_eq!(report.cache_hits, spec.len());
        assert_eq!(report.executed, 0);
        assert_eq!(
            index_len(&cache_dir),
            before.len() as u64,
            "a re-sweep that inserts nothing must not grow the index"
        );
    }
    assert_eq!(fs::read(cache_dir.join("index.bin")).unwrap(), before);
    fs::remove_dir_all(&dir).ok();
}

/// Records the length of `index.bin` at every checkpoint advance — one
/// sample after each run of cells the frontier flushes into the cache.
struct IndexSampler {
    index: PathBuf,
    lens: Mutex<Vec<u64>>,
}

impl EventSink for IndexSampler {
    fn emit(&self, event: &Event) {
        if event.kind == "checkpoint.advance" {
            let len = fs::metadata(&self.index).unwrap().len();
            self.lens.lock().unwrap().push(len);
        }
    }
}

#[test]
fn sweep_with_misses_grows_the_index_before_its_first_insert() {
    // 704 dead entries + 8 hits fill 712 of 1024 slots; the 8 misses take
    // the cache past the 70% load limit, so the index must grow — once,
    // before the frontier inserts anything.
    let (cached, missing) = (tiny(0.3), tiny(0.7));
    let seeds: Vec<u64> = (1..=8).collect();
    let spec = SweepSpec::product(&[cached.clone(), missing], &seeds);
    let dir = scratch("misses");
    let cache_dir = dir.join("cache.bin");
    prefill(&cache_dir, 704, &SweepSpec::single(&cached, &seeds));
    let initial = index_len(&cache_dir);

    let sampler = Arc::new(IndexSampler {
        index: cache_dir.join("index.bin"),
        lens: Mutex::new(Vec::new()),
    });
    let report = sweep(&cache_dir)
        .checkpoint(dir.join("checkpoint.jsonl"))
        .observed(&Obs::with_sink(sampler.clone()))
        .run(&spec)
        .unwrap();
    assert_eq!((report.cache_hits, report.executed), (8, 8));

    let grown = index_len(&cache_dir);
    assert!(grown > initial, "the misses needed a larger index");
    let lens = sampler.lens.lock().unwrap().clone();
    assert!(!lens.is_empty(), "the frontier advanced");
    assert!(
        lens.iter().all(|&len| len == grown),
        "index grew mid-run: {lens:?} (final {grown})"
    );
    assert_eq!(BinaryCache::open(&cache_dir, 0).unwrap().len(), 720);
    fs::remove_dir_all(&dir).ok();
}
