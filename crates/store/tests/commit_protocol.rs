//! Property tests of the slot commit protocol.
//!
//! The contract under attack: for *any* set of keys, *any* injected crash
//! point in the commit protocol, and *any* bit/truncation corruption of the
//! surviving files, a reopened store serves each key either its exact
//! committed payload or nothing — never a torn read, never another key's
//! bytes — and a recompute-and-recommit always restores full service.

use proptest::collection;
use proptest::prelude::*;

use neummu_store::fault::{CommitStep, FaultPlan, FaultPoint};
use neummu_store::{Store, StoreError};
use neummu_testdir::ScratchDir;

fn temp_dir(tag: &str) -> ScratchDir {
    ScratchDir::new(&format!("store-proptest-{tag}"))
}

/// A deterministic key set: the vendored proptest has no string strategies,
/// so keys are derived from a salt — which still varies hash placement,
/// slashes and lengths across cases.
fn keys_for(salt: u64, count: usize) -> Vec<String> {
    (0..count)
        .map(|i| match (salt + i as u64) % 3 {
            0 => format!("oracle/v{salt}/key{i}"),
            1 => format!("tenant/v{salt}/k{i}/sub{}", salt % 7),
            _ => format!("family/{salt}-{i}"),
        })
        .collect()
}

/// Deterministic per-key payload, so the "recompute" of a key is a pure
/// function of the key — exactly the store's production contract.
fn payload_for(key: &str, len: usize) -> Vec<u8> {
    key.as_bytes().iter().copied().cycle().take(len).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Crash at a random step of a random put over a random key set:
    /// recovery yields the committed value or a clean recompute, never a
    /// torn read.
    #[test]
    fn recovery_after_any_injected_crash_is_committed_or_recomputed(
        salt in 0u64..1000,
        key_count in 1usize..8,
        victim in 0u64..8,
        step_index in 0usize..CommitStep::ALL.len(),
        torn_at in 0usize..4096,
        payload_len in 0usize..2048,
    ) {
        let keys = keys_for(salt, key_count);
        let step = CommitStep::ALL[step_index];
        let victim_index = victim % keys.len() as u64;
        let dir = temp_dir("crash");

        let store = Store::open_with_fault(
            &dir,
            FaultPlan::crash_at(FaultPoint { put_index: victim_index, step, torn_at }),
        ).unwrap();
        let mut crashed_at_key = None;
        for (i, key) in keys.iter().enumerate() {
            match store.put(key, &payload_for(key, payload_len + i)) {
                Ok(()) => prop_assert!(crashed_at_key.is_none(), "puts continued after the crash"),
                Err(StoreError::InjectedCrash { step: s }) => {
                    prop_assert_eq!(s, step);
                    prop_assert_eq!(i as u64, victim_index);
                    crashed_at_key = Some(key.clone());
                    break; // the process is "dead" from here on
                }
                Err(err) => prop_assert!(false, "unexpected I/O error: {err}"),
            }
        }
        prop_assert!(crashed_at_key.is_some(), "the armed fault must strike");
        drop(store);

        // Reboot. Every key committed before the crash must read back
        // exactly; the victim key reads back either fully (crash after the
        // commit point) or not at all; keys after the victim are absent.
        let recovered = Store::open(&dir).unwrap();
        for (i, key) in keys.iter().enumerate() {
            let expected = payload_for(key, payload_len + i);
            let value = recovered.get(key);
            match (i as u64).cmp(&victim_index) {
                std::cmp::Ordering::Less => {
                    prop_assert_eq!(value.as_deref(), Some(expected.as_slice()),
                        "pre-crash commit of `{}` must survive", key);
                }
                std::cmp::Ordering::Equal => {
                    if step == CommitStep::PostRenamePreJournal {
                        prop_assert_eq!(value.as_deref(), Some(expected.as_slice()),
                            "post-commit-point crash must leave `{}` durable", key);
                    } else if let Some(read) = value {
                        // A pre-commit-point crash may never fabricate a
                        // value: the slot must be absent.
                        prop_assert_eq!(&read, &expected,
                            "victim key `{}` returned torn bytes", key);
                        prop_assert!(false, "victim slot visible before the commit point");
                    }
                }
                std::cmp::Ordering::Greater => {
                    prop_assert_eq!(value, None, "key `{}` was never committed", key);
                }
            }
        }
        // The resumed run recomputes every missing key; afterwards the
        // store serves the full set.
        for (i, key) in keys.iter().enumerate() {
            let expected = payload_for(key, payload_len + i);
            if recovered.get(key).is_none() {
                recovered.put(key, &expected).unwrap();
            }
            prop_assert_eq!(recovered.get(key).as_deref(), Some(expected.as_slice()));
        }
            }

    /// Random bit flips and truncations over committed slots: a lookup
    /// returns the exact committed payload or falls back to recompute —
    /// never corrupted bytes — and the store never errors.
    #[test]
    fn corruption_yields_committed_value_or_clean_recompute(
        salt in 0u64..1000,
        key_count in 1usize..8,
        corruptions in collection::vec((0u64..8, 0u64..1_000_000, 0usize..4096), 1..6),
        payload_len in 0usize..2048,
    ) {
        let keys = keys_for(salt, key_count);
        let dir = temp_dir("bitrot");
        let store = Store::open(&dir).unwrap();
        for (i, key) in keys.iter().enumerate() {
            store.put(key, &payload_for(key, payload_len + i)).unwrap();
        }
        for (which, bit, len) in corruptions {
            let key = &keys[(which % keys.len() as u64) as usize];
            if bit % 2 == 0 {
                store.corrupt_slot(key, bit).unwrap();
            } else {
                store.truncate_slot(key, len).unwrap();
            }
        }
        drop(store);

        let recovered = Store::open(&dir).unwrap();
        for (i, key) in keys.iter().enumerate() {
            let expected = payload_for(key, payload_len + i);
            match recovered.get(key) {
                Some(read) => prop_assert_eq!(read, expected,
                    "corrupted slot `{}` served torn bytes", key),
                None => {
                    // Clean recompute path: recommit and verify.
                    recovered.put(key, &expected).unwrap();
                    prop_assert_eq!(recovered.get(key).as_deref(), Some(expected.as_slice()));
                }
            }
        }
            }

    /// Committing twice (the resume overlap case: two runs both computed a
    /// key) is idempotent — the slot always serves the deterministic value.
    #[test]
    fn double_commit_is_idempotent(
        salt in 0u64..1000,
        key_count in 1usize..8,
        payload_len in 0usize..512,
    ) {
        let keys = keys_for(salt, key_count);
        let dir = temp_dir("idem");
        let store = Store::open(&dir).unwrap();
        for (i, key) in keys.iter().enumerate() {
            let payload = payload_for(key, payload_len + i);
            store.put(key, &payload).unwrap();
            store.put(key, &payload).unwrap();
            prop_assert_eq!(store.get(key).as_deref(), Some(payload.as_slice()));
        }
            }
}

/// Exhaustive (non-randomized) sweep: every labeled injection point, with
/// and without a previously committed value, with tears at every
/// interesting byte of a small slot. This is the matrix the acceptance
/// criterion names: every labeled injection point exercised, recovery
/// always committed-or-recomputed.
#[test]
fn every_injection_point_with_every_tear_offset_recovers() {
    let payload = b"deterministic-payload";
    for step in CommitStep::ALL {
        // A small slot is ~28 + key + payload bytes; sweep tears across it.
        for torn_at in [0, 1, 7, 27, 28, 29, 40, 64, 4096] {
            for preexisting in [false, true] {
                let dir = temp_dir(&format!("matrix_{}_{torn_at}_{preexisting}", step.label()));
                {
                    let setup = Store::open(&dir).unwrap();
                    if preexisting {
                        setup.put("matrix-key", payload).unwrap();
                    }
                }
                let store = Store::open_with_fault(
                    &dir,
                    FaultPlan::crash_at(FaultPoint {
                        put_index: 0,
                        step,
                        torn_at,
                    }),
                )
                .unwrap();
                store.put("matrix-key", payload).unwrap_err();
                drop(store);

                let recovered = Store::open(&dir).unwrap();
                match recovered.get("matrix-key") {
                    Some(read) => assert_eq!(read, payload, "torn read at {step:?}/{torn_at}"),
                    None => assert!(
                        !preexisting && step != CommitStep::PostRenamePreJournal,
                        "lost a durable value at {step:?}/{torn_at}"
                    ),
                }
                recovered.put("matrix-key", payload).unwrap();
                assert_eq!(
                    recovered.get("matrix-key").as_deref(),
                    Some(payload.as_ref())
                );
            }
        }
    }
}

/// Seed-driven plans drive the same machinery (the out-of-process harness's
/// in-process twin): any seed must leave the store recoverable.
#[test]
fn seeded_fault_plans_always_recover() {
    for seed in 0..32u64 {
        let dir = temp_dir(&format!("seeded_{seed}"));
        let keys: Vec<String> = (0..6).map(|i| format!("seeded/key{i}")).collect();
        let store = Store::open_with_fault(&dir, FaultPlan::from_seed(seed, 6)).unwrap();
        for key in &keys {
            if store.put(key, key.as_bytes()).is_err() {
                break;
            }
        }
        drop(store);
        let recovered = Store::open(&dir).unwrap();
        for key in &keys {
            match recovered.get(key) {
                Some(read) => assert_eq!(read, key.as_bytes(), "seed {seed}"),
                None => recovered.put(key, key.as_bytes()).unwrap(),
            }
            assert_eq!(
                recovered.get(key).as_deref(),
                Some(key.as_bytes()),
                "seed {seed}"
            );
        }
    }
}
