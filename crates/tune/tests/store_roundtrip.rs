//! UMPT format property tests, mirroring the snapshot corruption suite
//! in `checkpoint_roundtrip.rs`: hostile bytes must produce a typed
//! `Err` (or decode to a still-valid store), never a panic; well-formed
//! stores round-trip bit-identically.

use proptest::prelude::*;
use std::sync::OnceLock;
use ump_core::Backend;
use ump_tune::{registry_hash, App, TuneEntry, TuneKey, TuneStore, Tuner};

/// A realistic store shared by every corruption case: every registered
/// backend appears as some entry's decision, so name decoding is
/// exercised across the whole registry.
fn sample_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let mut store = TuneStore::new();
        for (i, backend) in Backend::all().into_iter().enumerate() {
            store.upsert(TuneEntry {
                key: TuneKey {
                    app: if i % 2 == 0 { App::Airfoil } else { App::Volna },
                    nx: 32 + i as u64,
                    ny: 16 + i as u64,
                    registry: registry_hash(),
                    cores: 1 + i as u64,
                },
                backend,
                block_size: 256 << (i % 3),
                trials: i as u32 + 1,
                seconds_per_step: 1e-3 * (i + 1) as f64,
                gb_per_s: 0.5 * i as f64,
            });
        }
        store.encode()
    })
}

#[test]
fn round_trip_is_bit_identical() {
    let bytes = sample_bytes();
    let store = TuneStore::decode(bytes).expect("own encoding decodes");
    assert_eq!(store.len(), Backend::all().len());
    assert_eq!(store.encode(), bytes, "encode∘decode must be the identity");
}

#[test]
fn version_bump_and_empty_input_are_typed_errors() {
    assert!(TuneStore::decode(&[]).is_err());
    let mut bumped = sample_bytes().to_vec();
    bumped[4] = bumped[4].wrapping_add(1); // version low byte
    assert!(
        TuneStore::decode(&bumped).is_err(),
        "future version accepted"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Flip one byte anywhere: decode must return — Ok with
    // different-but-valid entries is fine (a flipped mesh dim is just a
    // different key), a typed error is fine, a panic is the bug. The
    // magic/version prefix must always be *detected*.
    #[test]
    fn single_byte_corruption_never_panics(idx in 0usize..1 << 20, mask in 1usize..256) {
        let mut bytes = sample_bytes().to_vec();
        let i = idx % bytes.len();
        bytes[i] ^= mask as u8;
        let decoded = TuneStore::decode(&bytes);
        if i < 8 {
            prop_assert!(decoded.is_err(), "corrupt magic/version at byte {i} accepted");
        }
        if let Ok(store) = decoded {
            // whatever decoded must still be a coherent store: every
            // entry names a registered backend with plausible numbers
            let reencoded = store.encode();
            prop_assert_eq!(TuneStore::decode(&reencoded).unwrap(), store);
        }
    }

    // Any strict prefix is a typed error — the torn-write case.
    #[test]
    fn truncated_store_is_a_typed_error(cut in 0usize..1 << 20) {
        let bytes = sample_bytes();
        let cut = cut % bytes.len(); // strict prefix
        prop_assert!(TuneStore::decode(&bytes[..cut]).is_err(), "truncation at {cut} accepted");
    }

    // Corruption composed with truncation must also degrade to a typed
    // error, never a panic.
    #[test]
    fn corrupt_then_truncate_never_panics(
        idx in 0usize..1 << 20,
        mask in 1usize..256,
        cut in 0usize..1 << 20,
    ) {
        let mut bytes = sample_bytes().to_vec();
        let i = idx % bytes.len();
        bytes[i] ^= mask as u8;
        let cut = cut % bytes.len();
        prop_assert!(TuneStore::decode(&bytes[..cut]).is_err());
    }

    // Arbitrary garbage prefixed with the right magic+version still
    // never panics.
    #[test]
    fn random_payloads_never_panic(len in 0usize..256, seed in 0u64..u64::MAX) {
        let mut bytes = Vec::with_capacity(12 + len);
        bytes.extend_from_slice(b"UMPT");
        bytes.extend_from_slice(&1u32.to_le_bytes());
        let mut x = seed | 1;
        for _ in 0..len {
            // xorshift garbage
            x ^= x << 13; x ^= x >> 7; x ^= x << 17;
            bytes.push(x as u8);
        }
        let _ = TuneStore::decode(&bytes);
    }
}

// ---------------------------------------------------------------------
// File-backed degradation: a corrupt or missing store file must cold-
// start the tuner, never fail it.
// ---------------------------------------------------------------------

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(dir).unwrap();
    dir.join(name)
}

#[test]
fn warm_start_from_persisted_store_runs_zero_trials() {
    let path = tmp("warm_start.umpt");
    let _ = std::fs::remove_file(&path);
    // two `Tuner::new()`s key on the same core count: no triad noise
    // can move the second one off the first one's entry
    let cold = Tuner::new()
        .with_store_path(&path)
        .with_trial_steps(1)
        .with_team(2);
    let first = cold.pick(App::Airfoil, 12, 8);
    assert!(!first.from_store && first.trials > 0);
    assert!(path.exists(), "search must persist its decision");

    // a brand-new tuner (fresh process stand-in) warm-starts from disk
    let warm = Tuner::new()
        .with_store_path(&path)
        .with_trial_steps(1)
        .with_team(2);
    let second = warm.pick(App::Airfoil, 12, 8);
    assert!(second.from_store, "persisted decision not picked up");
    assert_eq!(second.trials, 0, "warm start must run zero trials");
    assert_eq!(second.backend, first.backend);
    assert_eq!(warm.stats().store_hits, 1);
    assert_eq!(warm.stats().trials_run, 0);
}

#[test]
fn corrupt_store_file_degrades_to_fresh_search() {
    let path = tmp("corrupt.umpt");
    std::fs::write(&path, b"UMPT\x63\x00\x00\x00garbage").unwrap();
    let tuner = Tuner::new()
        .with_store_path(&path)
        .with_trial_steps(1)
        .with_team(2);
    let c = tuner.pick(App::Volna, 10, 8);
    assert!(!c.from_store, "corrupt store must not produce hits");
    assert!(Backend::all().contains(&c.backend));
    // and the fresh search overwrites the corrupt file with a valid one
    assert!(TuneStore::load(&path).unwrap().len() == 1);
}
