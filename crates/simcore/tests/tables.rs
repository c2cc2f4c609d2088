//! Oracle tests for the hash-free tables: `IdMap` against a `BTreeMap`,
//! `IdRing` against a `HashMap`, over random operation sequences.

use proptest::prelude::*;
use resex_simcore::ids::{IdMap, IdRing};
use std::collections::BTreeMap;

resex_simcore::define_id!(TestId);

proptest! {
    /// Every `IdMap` operation returns what a `BTreeMap` returns, and the
    /// two iterate the same entries in the same (ascending) order.
    #[test]
    fn id_map_matches_btree_map(
        ops in prop::collection::vec((0u8..6, 0u32..40, any::<u32>()), 1..200),
    ) {
        let mut map: IdMap<TestId, u32> = IdMap::new();
        let mut reference: BTreeMap<TestId, u32> = BTreeMap::new();
        for &(op, raw, val) in &ops {
            let k = TestId::new(raw);
            match op {
                0 => prop_assert_eq!(map.insert(k, val), reference.insert(k, val)),
                1 => prop_assert_eq!(map.remove(&k), reference.remove(&k)),
                2 => prop_assert_eq!(map.get(&k), reference.get(&k)),
                3 => {
                    if let Some(v) = map.get_mut(&k) {
                        *v = v.wrapping_add(val);
                    }
                    if let Some(v) = reference.get_mut(&k) {
                        *v = v.wrapping_add(val);
                    }
                }
                4 => prop_assert_eq!(map.contains_key(&k), reference.contains_key(&k)),
                _ => {
                    let got = *map.get_or_insert_with(k, || val);
                    prop_assert_eq!(got, *reference.entry(k).or_insert(val));
                }
            }
            prop_assert_eq!(map.len(), reference.len());
            prop_assert_eq!(map.is_empty(), reference.is_empty());
            let entries: Vec<(TestId, u32)> = map.iter().map(|(k, &v)| (k, v)).collect();
            let want: Vec<(TestId, u32)> = reference.iter().map(|(&k, &v)| (k, v)).collect();
            prop_assert_eq!(&entries, &want);
            prop_assert!(map.values().eq(reference.values()));
        }
        for (k, v) in map.iter_mut() {
            *v = v.wrapping_add(k.raw());
        }
        for (k, v) in reference.iter_mut() {
            *v = v.wrapping_add(k.raw());
        }
        let rebuilt: IdMap<TestId, u32> = reference.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert!(rebuilt.iter().eq(map.iter()));
        for (k, v) in &reference {
            prop_assert_eq!(&map[k], v);
        }
    }

    /// `IdRing` driven like a client's outstanding-request table returns
    /// what a `HashMap` returns: ids issued from a random first id, retired
    /// out of order, retried (removed and re-inserted) or overwritten while
    /// live, and removals of unknown, retired and below-base ids.
    #[test]
    #[allow(clippy::disallowed_types)] // the reference model
    fn id_ring_matches_hash_map(
        first in 0u64..1_000_000,
        ops in prop::collection::vec((0u8..7, any::<u32>()), 1..300),
    ) {
        let mut ring: IdRing<u32> = IdRing::new();
        let mut reference: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
        let mut next = first;
        let mut live: Vec<u64> = Vec::new();
        let mut retired: Vec<u64> = Vec::new();
        for &(op, x) in &ops {
            let pick = |ids: &[u64]| ids.get(x as usize % ids.len().max(1)).copied();
            match op {
                // Issue the next id (twice as likely as any other op).
                0 | 1 => {
                    prop_assert_eq!(ring.insert(next, x), reference.insert(next, x));
                    live.push(next);
                    next += 1;
                }
                // Retire a live id, in any order.
                2 => {
                    if let Some(id) = pick(&live) {
                        prop_assert_eq!(ring.remove(id), reference.remove(&id));
                        live.retain(|&l| l != id);
                        retired.push(id);
                    }
                }
                // Retry: retire a live id and re-insert it at once.
                3 => {
                    if let Some(id) = pick(&live) {
                        prop_assert_eq!(ring.remove(id), reference.remove(&id));
                        prop_assert_eq!(ring.insert(id, x), reference.insert(id, x));
                    }
                }
                // Overwrite a live id in place.
                4 => {
                    if let Some(id) = pick(&live) {
                        prop_assert_eq!(ring.insert(id, x), reference.insert(id, x));
                    }
                }
                // A retired id comes back (a late retry), possibly below
                // the ring's base.
                5 => {
                    if let Some(id) = pick(&retired) {
                        prop_assert_eq!(ring.insert(id, x), reference.insert(id, x));
                        retired.retain(|&r| r != id);
                        live.push(id);
                    }
                }
                // Remove an id that is unknown, retired or below the base.
                _ => {
                    let id = match x % 3 {
                        0 => next + u64::from(x % 5),
                        1 => pick(&retired).unwrap_or(next),
                        _ => first.saturating_sub(1 + u64::from(x % 4)),
                    };
                    prop_assert_eq!(ring.remove(id), reference.remove(&id));
                }
            }
            prop_assert_eq!(ring.len(), reference.len());
            prop_assert_eq!(ring.is_empty(), reference.is_empty());
            for id in first.saturating_sub(3)..next + 3 {
                prop_assert_eq!(ring.get(id), reference.get(&id), "id {}", id);
            }
        }
    }
}

#[test]
fn id_ring_sheds_retired_prefix() {
    let mut ring = IdRing::new();
    for id in 10..20u64 {
        ring.insert(id, id);
    }
    for id in 10..19u64 {
        assert_eq!(ring.remove(id), Some(id));
    }
    assert_eq!(ring.len(), 1);
    // Retired ids are gone for good; a duplicate response finds nothing.
    assert_eq!(ring.remove(12), None);
    assert_eq!(ring.get(19), Some(&19));
    assert_eq!(ring.remove(19), Some(19));
    assert!(ring.is_empty());
    // An emptied ring rebases on the next insert.
    ring.insert(1_000_000, 1);
    assert_eq!(ring.get(1_000_000), Some(&1));
}
