//! Crash-recovery and determinism guarantees of the sharded binary result
//! cache (`secloc_sim::cache`):
//!
//! - every externally inducible corruption — a garbage tail appended to a
//!   shard, a record torn in half, a deleted index, a shard truncated
//!   behind the index's back, an index that missed the last appends — is
//!   repaired on open and costs at most the damaged entries;
//! - scheduling is invisible in the bytes: serial, multi-worker and
//!   kill-anywhere-resume sweeps produce byte-identical checkpoints *and*
//!   byte-identical cache directories (index + every shard);
//! - a batched lookup answers exactly what per-key lookups answer, through
//!   corrupt records, corrupt or out-of-range index locations, probe
//!   chains that wrap past the table end, and dead-cell floods.

use proptest::prelude::*;
use secloc_sim::cache::RECORD_LEN;
use secloc_sim::orchestrator::{code_version_tag, CacheInsert, CellKey};
use secloc_sim::{BinaryCache, CacheFormat, Orchestrator, SimConfig, SimOutcome, SweepSpec};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn tiny(attacker_p: f64) -> SimConfig {
    SimConfig {
        nodes: 120,
        beacons: 12,
        malicious: 3,
        attacker_p,
        ..SimConfig::paper_default()
    }
}

fn grid() -> SweepSpec {
    SweepSpec::product(&[tiny(0.3), tiny(0.7)], &[1, 2, 3])
}

/// A unique temp dir per test — the suite runs tests in parallel.
fn scratch(label: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "secloc-cachebin-{label}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn cold_binary_sweep(dir: &Path, spec: &SweepSpec) -> PathBuf {
    let cache = dir.join("cache.bin");
    let report = Orchestrator::new()
        .workers(2)
        .cache(&cache)
        .cache_format(CacheFormat::Binary)
        .run(spec)
        .unwrap();
    assert_eq!(report.executed, spec.len());
    assert!(report.cache_shards >= 1);
    cache
}

/// Sorted (name, bytes) of everything in a binary cache directory — the
/// equality notion for "identical cache contents".
fn dir_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    files.sort();
    files
}

fn shard_path(cache: &Path) -> PathBuf {
    cache.join("shard-000.bin")
}

#[test]
fn garbage_shard_tail_is_truncated_on_open() {
    let dir = scratch("tail");
    let spec = grid();
    let cache = cold_binary_sweep(&dir, &spec);

    // A crash mid-append leaves bytes that never form a valid record.
    let clean_len = fs::metadata(shard_path(&cache)).unwrap().len();
    let mut bytes = fs::read(shard_path(&cache)).unwrap();
    bytes.extend_from_slice(&[0xAB; 37]);
    fs::write(shard_path(&cache), &bytes).unwrap();

    let reopened = BinaryCache::open(&cache, 0).unwrap();
    assert_eq!(reopened.recovery().truncated_bytes, 37);
    assert!(!reopened.recovery().rebuilt_index);
    assert_eq!(reopened.len(), spec.len());
    assert_eq!(fs::metadata(shard_path(&cache)).unwrap().len(), clean_len);
    drop(reopened);

    // The repaired cache still serves the whole grid.
    let warm = Orchestrator::new()
        .cache(&cache)
        .cache_format(CacheFormat::Binary)
        .run(&spec)
        .unwrap();
    assert_eq!(warm.cache_hits, spec.len());
    assert_eq!(warm.executed, 0);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn mid_record_cut_costs_exactly_the_torn_record() {
    let dir = scratch("torn");
    let spec = grid();
    let cache = cold_binary_sweep(&dir, &spec);

    // Tear the last (indexed) record in half. The shard is now shorter
    // than the index believes — open must notice and rebuild.
    let len = fs::metadata(shard_path(&cache)).unwrap().len();
    fs::OpenOptions::new()
        .write(true)
        .open(shard_path(&cache))
        .unwrap()
        .set_len(len - (RECORD_LEN as u64) / 2)
        .unwrap();

    let reopened = BinaryCache::open(&cache, 0).unwrap();
    assert!(reopened.recovery().rebuilt_index);
    assert_eq!(reopened.recovery().truncated_bytes, (RECORD_LEN as u64) / 2);
    assert_eq!(reopened.len(), spec.len() - 1, "only the torn entry lost");
    drop(reopened);

    // Exactly one cell re-executes; everything else is a hit. The re-run
    // restores the cache to full coverage.
    let warm = Orchestrator::new()
        .cache(&cache)
        .cache_format(CacheFormat::Binary)
        .run(&spec)
        .unwrap();
    assert_eq!(warm.cache_hits, spec.len() - 1);
    assert_eq!(warm.executed, 1);
    let again = Orchestrator::new()
        .cache(&cache)
        .cache_format(CacheFormat::Binary)
        .run(&spec)
        .unwrap();
    assert_eq!(again.cache_hits, spec.len());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_index_is_rebuilt_from_shards() {
    let dir = scratch("noindex");
    let spec = grid();
    let cache = cold_binary_sweep(&dir, &spec);

    fs::remove_file(cache.join("index.bin")).unwrap();
    let reopened = BinaryCache::open(&cache, 0).unwrap();
    assert!(reopened.recovery().rebuilt_index);
    assert_eq!(reopened.len(), spec.len());
    drop(reopened);

    let warm = Orchestrator::new()
        .cache(&cache)
        .cache_format(CacheFormat::Binary)
        .run(&spec)
        .unwrap();
    assert_eq!(warm.cache_hits, spec.len());
    assert_eq!(warm.executed, 0);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_index_header_is_rebuilt_from_shards() {
    let dir = scratch("badheader");
    let spec = grid();
    let cache = cold_binary_sweep(&dir, &spec);

    let mut index = fs::read(cache.join("index.bin")).unwrap();
    index[0] ^= 0xFF; // break the magic
    fs::write(cache.join("index.bin"), &index).unwrap();

    let reopened = BinaryCache::open(&cache, 0).unwrap();
    assert!(reopened.recovery().rebuilt_index);
    assert_eq!(reopened.len(), spec.len());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn index_behind_the_shards_reindexes_just_the_tail() {
    let dir = scratch("behind");
    let full = grid();
    let prefix = SweepSpec::product(&[tiny(0.3), tiny(0.7)], &[1, 2]);
    let cache = scratch("behind-cache").join("cache.bin");

    // Sweep the prefix grid, stash its index, then sweep the full grid
    // into the same cache and put the stale index back: exactly the state
    // a crash between a record append and its index update leaves behind.
    Orchestrator::new()
        .cache(&cache)
        .cache_format(CacheFormat::Binary)
        .run(&prefix)
        .unwrap();
    let stale_index = fs::read(cache.join("index.bin")).unwrap();
    Orchestrator::new()
        .cache(&cache)
        .cache_format(CacheFormat::Binary)
        .run(&full)
        .unwrap();
    fs::write(cache.join("index.bin"), &stale_index).unwrap();

    let reopened = BinaryCache::open(&cache, 0).unwrap();
    assert!(
        reopened.recovery().reindexed >= full.len() - prefix.len(),
        "the unindexed tail records were recovered"
    );
    assert!(!reopened.recovery().rebuilt_index, "tail scan, not rebuild");
    assert_eq!(reopened.len(), full.len());
    drop(reopened);

    let warm = Orchestrator::new()
        .cache(&cache)
        .cache_format(CacheFormat::Binary)
        .run(&full)
        .unwrap();
    assert_eq!(warm.cache_hits, full.len());
    assert_eq!(warm.executed, 0);
    fs::remove_dir_all(&dir).ok();
    fs::remove_dir_all(cache.parent().unwrap()).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The tentpole invariant: scheduling and interruption are invisible
    /// in the bytes. A serial sweep, a 4-worker sweep, and a sweep killed
    /// at an arbitrary checkpoint boundary (losing the *entire* cache
    /// directory with it) and then resumed all leave byte-identical
    /// checkpoints and byte-identical cache directories.
    #[test]
    fn scheduling_and_resume_never_change_the_bytes(
        seeds in 2u64..4,
        p_hi in 0.55f64..0.9,
        cut_frac in 0.0f64..1.0,
    ) {
        let dir = scratch("det");
        let configs = [tiny(0.25), tiny(p_hi)];
        let seed_list: Vec<u64> = (1..=seeds).collect();
        let spec = SweepSpec::product(&configs, &seed_list);

        let run = |label: &str, workers: usize| {
            let ckpt = dir.join(format!("{label}.ckpt.jsonl"));
            let cache = dir.join(format!("{label}.cache.bin"));
            Orchestrator::new()
                .workers(workers)
                .checkpoint(&ckpt)
                .cache(&cache)
                .cache_format(CacheFormat::Binary)
                .run(&spec)
                .unwrap();
            (fs::read(&ckpt).unwrap(), cache, ckpt)
        };

        let (serial_ckpt, serial_cache, _) = run("serial", 1);
        let (parallel_ckpt, parallel_cache, _) = run("parallel", 4);
        prop_assert_eq!(&serial_ckpt, &parallel_ckpt, "checkpoint depends on worker count");
        prop_assert_eq!(
            dir_bytes(&serial_cache),
            dir_bytes(&parallel_cache),
            "cache bytes depend on worker count"
        );

        // Kill-and-resume at a proptest-chosen line boundary, with the
        // cache directory lost entirely — the harshest crash that still
        // has a checkpoint. Resume must regenerate both files exactly.
        let lines: Vec<&str> = std::str::from_utf8(&serial_ckpt).unwrap().lines().collect();
        let keep = (cut_frac * lines.len() as f64) as usize; // 0..=lines
        let kept: String = lines[..keep.min(lines.len())]
            .iter()
            .map(|l| format!("{l}\n"))
            .collect();
        let ckpt = dir.join("resume.ckpt.jsonl");
        let cache = dir.join("resume.cache.bin");
        fs::write(&ckpt, kept).unwrap();
        let resumed = Orchestrator::new()
            .workers(3)
            .checkpoint(&ckpt)
            .cache(&cache)
            .cache_format(CacheFormat::Binary)
            .run(&spec)
            .unwrap();
        prop_assert_eq!(
            resumed.resumed + resumed.executed,
            spec.len(),
            "every cell resumed or executed (cache was lost)"
        );
        prop_assert_eq!(&fs::read(&ckpt).unwrap(), &serial_ckpt, "resume checkpoint diverged");
        prop_assert_eq!(
            dir_bytes(&serial_cache),
            dir_bytes(&cache),
            "resume cache bytes diverged"
        );
        fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------------
// Batched lookup: `get_many` answers exactly what per-key `get` answers.
// ---------------------------------------------------------------------------

/// Index header length and slot width, from the on-disk format.
const HEADER_LEN: u64 = 4096;
const SLOT_LEN: u64 = 16;

/// A distinct outcome per tag, so a record served for the wrong key shows.
fn outcome(tag: u64) -> SimOutcome {
    SimOutcome {
        malicious_total: 10,
        benign_total: 90,
        revoked_malicious: (tag % 11) as u32,
        revoked_benign: (tag % 7) as u32,
        affected_before: tag as f64 + 0.5,
        affected_after: 0.25,
        benign_alerts: tag as usize,
        collusion_alerts: 3,
        mean_requesters_per_beacon: 1.0 / 3.0,
        mean_loc_error_before_ft: tag.is_multiple_of(2).then_some(4.5),
        mean_loc_error_after_ft: None,
    }
}

/// A well-mixed key per `(salt, i)` (SplitMix64).
fn mixed_key(salt: u64, i: u64) -> CellKey {
    let mut z = salt
        .wrapping_mul(0xD1B5_4A32_D192_ED03)
        .wrapping_add(i)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    CellKey(z ^ (z >> 31))
}

/// Slot capacity recorded in a cache's index header.
fn index_capacity(cache: &Path) -> u64 {
    let index = fs::read(cache.join("index.bin")).unwrap();
    u64::from_le_bytes(index[16..24].try_into().unwrap())
}

/// The index's placement rule: a Fibonacci hash of the key.
fn home_slot(key: CellKey, capacity: u64) -> u64 {
    key.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) & (capacity - 1)
}

/// `n` distinct keys whose home slot is `home`.
fn keys_homed_at(home: u64, capacity: u64, n: usize) -> Vec<CellKey> {
    (0..)
        .map(|i| mixed_key(0xC0FFEE, i))
        .filter(|&k| home_slot(k, capacity) == home)
        .take(n)
        .collect()
}

/// Overwrites the `loc` word of `key`'s index slot.
fn write_slot_loc(cache: &Path, key: CellKey, loc: u64) {
    let path = cache.join("index.bin");
    let mut index = fs::read(&path).unwrap();
    let slot = (HEADER_LEN as usize..index.len())
        .step_by(SLOT_LEN as usize)
        .find(|&at| index[at..at + 8] == key.0.to_le_bytes())
        .expect("key is indexed");
    index[slot + 8..slot + 16].copy_from_slice(&loc.to_le_bytes());
    fs::write(&path, &index).unwrap();
}

/// Batched answers for `keys`, asserted equal to per-key `get`.
fn batched(cache: &BinaryCache, keys: &[CellKey]) -> Vec<Option<SimOutcome>> {
    let mut out = vec![Some(outcome(u64::MAX)); keys.len()];
    cache.get_many(keys, &mut out).unwrap();
    let single: Vec<_> = keys.iter().map(|&k| cache.get(k).unwrap()).collect();
    assert_eq!(out, single, "get_many disagrees with get");
    out
}

/// A cache at `dir` sized for `expected` cells holding `keys[i] →
/// outcome(i)`.
fn populated(dir: &Path, expected: usize, keys: &[CellKey]) -> BinaryCache {
    let mut cache = BinaryCache::open(dir, expected).unwrap();
    for (i, &key) in keys.iter().enumerate() {
        assert_eq!(
            cache.insert_checked(key, outcome(i as u64)).unwrap(),
            CacheInsert::Inserted
        );
    }
    cache
}

#[test]
fn corrupt_slot_location_reads_as_a_miss_and_re_simulates() {
    let dir = scratch("badloc");
    let spec = grid();
    let cold = Orchestrator::new()
        .cache(dir.join("cache.bin"))
        .cache_format(CacheFormat::Binary)
        .run(&spec)
        .unwrap();
    let cache = dir.join("cache.bin");
    let keys = spec.cell_keys(&code_version_tag());

    // A non-empty slot whose offset bits are zero: no insert writes one,
    // and decoding it must not underflow.
    write_slot_loc(&cache, keys[2], 1 << 48);
    let reopened = BinaryCache::open(&cache, 0).unwrap();
    assert_eq!(reopened.get(keys[2]).unwrap(), None);
    let answers = batched(&reopened, &keys);
    assert_eq!(
        answers.iter().filter(|a| a.is_some()).count(),
        spec.len() - 1
    );
    drop(reopened);

    // The sweep re-simulates exactly that cell, gets the same outcome, and
    // its re-insert repairs the slot.
    let warm = Orchestrator::new()
        .cache(&cache)
        .cache_format(CacheFormat::Binary)
        .run(&spec)
        .unwrap();
    assert_eq!(warm.executed, 1);
    assert_eq!(warm.cache_hits, spec.len() - 1);
    assert_eq!(warm.outcomes, cold.outcomes);
    let again = Orchestrator::new()
        .cache(&cache)
        .cache_format(CacheFormat::Binary)
        .run(&spec)
        .unwrap();
    assert_eq!(again.cache_hits, spec.len());

    // The same with a valid shard number (two shards), and with a shard
    // number past the shard count.
    let wide = dir.join("wide.bin");
    let keys: Vec<CellKey> = (0..40).map(|i| mixed_key(1, i)).collect();
    let cache = populated(&wide, 10_000, &keys);
    assert_eq!(cache.shard_count(), 2);
    drop(cache);
    write_slot_loc(&wide, keys[5], 1 << 48);
    write_slot_loc(&wide, keys[6], (0xFFFF << 48) | 1);
    let cache = BinaryCache::open(&wide, 0).unwrap();
    let answers = batched(&cache, &keys);
    for (i, answer) in answers.iter().enumerate() {
        let expected = (i != 5 && i != 6).then(|| outcome(i as u64));
        assert_eq!(answer, &expected, "key {i}");
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_record_in_a_merged_window_misses_alone() {
    let dir = scratch("torn-window");
    let cache_dir = dir.join("cache.bin");
    let keys: Vec<CellKey> = (0..64).map(|i| mixed_key(2, i)).collect();
    drop(populated(&cache_dir, 0, &keys));

    // One shard, records in insert order: flip a byte inside record 20.
    let mut shard = fs::read(shard_path(&cache_dir)).unwrap();
    shard[20 * RECORD_LEN + 50] ^= 0x10;
    fs::write(shard_path(&cache_dir), &shard).unwrap();

    let cache = BinaryCache::open(&cache_dir, 0).unwrap();
    let answers = batched(&cache, &keys);
    for (i, answer) in answers.iter().enumerate() {
        assert_eq!(answer, &(i != 20).then(|| outcome(i as u64)), "key {i}");
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn index_entries_past_the_shard_or_at_another_record_miss() {
    let dir = scratch("ahead");
    let cache_dir = dir.join("cache.bin");
    let keys: Vec<CellKey> = (0..64).map(|i| mixed_key(3, i)).collect();
    drop(populated(&cache_dir, 0, &keys));

    // Shard 0 holds 64 records: point one entry just past its end, one at
    // a record straddling it, and one at another key's intact record.
    let shard_len = 64 * RECORD_LEN as u64;
    write_slot_loc(&cache_dir, keys[10], shard_len + 1);
    write_slot_loc(&cache_dir, keys[11], shard_len - 60 + 1);
    write_slot_loc(&cache_dir, keys[12], 1);
    let cache = BinaryCache::open(&cache_dir, 0).unwrap();
    assert!(cache.recovery().clean());
    let answers = batched(&cache, &keys);
    for (i, answer) in answers.iter().enumerate() {
        let expected = (!(10..=12).contains(&i)).then(|| outcome(i as u64));
        assert_eq!(answer, &expected, "key {i}");
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn probe_chains_past_their_window_and_around_the_table_end() {
    let dir = scratch("chains");
    let cache_dir = dir.join("cache.bin");
    drop(BinaryCache::open(&cache_dir, 0).unwrap());
    let capacity = index_capacity(&cache_dir);
    let last = capacity - 1;

    // Fourteen keys homed at the last slot fill it and wrap to the start
    // of the table; fourteen homed mid-table run past the slots a lone
    // probe reads. Absent keys with the same homes walk the full chains.
    let wrapping = keys_homed_at(last, capacity, 17);
    let clustered = keys_homed_at(capacity / 2, capacity, 17);
    let first = keys_homed_at(0, capacity, 2);
    let stored: Vec<CellKey> = wrapping[..14]
        .iter()
        .chain(&clustered[..14])
        .chain(&first[..1])
        .copied()
        .collect();
    let cache = populated(&cache_dir, 0, &stored);
    assert_eq!(index_capacity(&cache_dir), capacity);

    let mut queries: Vec<CellKey> = stored.iter().rev().copied().collect();
    queries.extend(&wrapping[14..]);
    queries.extend(&clustered[14..]);
    queries.push(first[1]);
    queries.extend(&stored[..3]); // duplicates
    let answers = batched(&cache, &queries);
    for (q, answer) in queries.iter().zip(&answers) {
        let expected = stored
            .iter()
            .position(|k| k == q)
            .map(|i| outcome(i as u64));
        assert_eq!(answer, &expected, "key {q:?}");
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn dead_cell_flood_leaves_batched_answers_unchanged() {
    let dir = scratch("flood");
    let cache_dir = dir.join("cache.bin");
    let live: Vec<CellKey> = (0..300).map(|i| mixed_key(4, i)).collect();
    let mut cache = populated(&cache_dir, live.len(), &live);
    let before = batched(&cache, &live);
    cache.reserve(10_000).unwrap();
    let donor = outcome(7);
    for i in 0..10_000 {
        cache
            .insert_checked(mixed_key(5, i), donor.clone())
            .unwrap();
    }
    drop(cache);

    let cache = BinaryCache::open(&cache_dir, 0).unwrap();
    let mut queries = live.clone();
    queries.extend((0..50).map(|i| mixed_key(6, i)));
    let answers = batched(&cache, &queries);
    assert_eq!(answers[..live.len()], before[..]);
    assert!(answers[live.len()..].iter().all(Option::is_none));
    fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random key lists — hits, misses, duplicates, any order — over
    /// caches of one to eight shards and dense to sparse indexes.
    #[test]
    fn batched_lookup_agrees_with_single_gets(
        stored in 1usize..700,
        queries in proptest::collection::vec(0u64..1400, 0..400),
        salt in any::<u64>(),
        sizing in 0usize..3,
    ) {
        let dir = scratch("agree");
        let cache_dir = dir.join("cache.bin");
        let keys: Vec<CellKey> = (0..stored as u64).map(|i| mixed_key(salt, i)).collect();
        let expected_cells = [stored, 10_000, 40_000][sizing];
        let cache = populated(&cache_dir, expected_cells, &keys);
        let asked: Vec<CellKey> = queries.iter().map(|&i| mixed_key(salt, i)).collect();
        let answers = batched(&cache, &asked);
        for (&i, answer) in queries.iter().zip(&answers) {
            let expected = ((i as usize) < stored).then(|| outcome(i));
            prop_assert_eq!(answer, &expected);
        }
        fs::remove_dir_all(&dir).ok();
    }
}
