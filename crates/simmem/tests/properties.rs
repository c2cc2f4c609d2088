//! Property-based tests for guest-memory invariants.

use proptest::prelude::*;
use resex_simmem::{ForeignMapping, Gpa, GuestMemory, MemoryHandle, PAGE_SIZE};

proptest! {
    /// Any in-bounds write is read back exactly, including across page
    /// boundaries.
    #[test]
    fn write_read_roundtrip(
        offset in 0u64..(63 * PAGE_SIZE as u64),
        data in prop::collection::vec(any::<u8>(), 1..2 * PAGE_SIZE),
    ) {
        let mut m = GuestMemory::new(66 * PAGE_SIZE as u64);
        m.write(Gpa::new(offset), &data).unwrap();
        let mut out = vec![0u8; data.len()];
        m.read(Gpa::new(offset), &mut out).unwrap();
        prop_assert_eq!(out, data);
    }

    /// Disjoint writes never clobber each other.
    #[test]
    fn disjoint_writes_independent(
        a_off in 0u64..PAGE_SIZE as u64,
        a in prop::collection::vec(any::<u8>(), 1..256),
        b in prop::collection::vec(any::<u8>(), 1..256),
    ) {
        let mut m = GuestMemory::new(16 * PAGE_SIZE as u64);
        // Place b far from a.
        let b_off = a_off + a.len() as u64 + PAGE_SIZE as u64;
        m.write(Gpa::new(a_off), &a).unwrap();
        m.write(Gpa::new(b_off), &b).unwrap();
        let mut out_a = vec![0u8; a.len()];
        m.read(Gpa::new(a_off), &mut out_a).unwrap();
        prop_assert_eq!(out_a, a);
        let mut out_b = vec![0u8; b.len()];
        m.read(Gpa::new(b_off), &mut out_b).unwrap();
        prop_assert_eq!(out_b, b);
    }

    /// A foreign mapping observes exactly what the owner wrote, at the
    /// right offsets.
    #[test]
    fn foreign_mapping_coherent(
        base_page in 0u64..4,
        offset in 0usize..PAGE_SIZE,
        data in prop::collection::vec(any::<u8>(), 1..512),
    ) {
        let owner = MemoryHandle::new(16 * PAGE_SIZE as u64);
        let base = Gpa::new(base_page * PAGE_SIZE as u64);
        let map = ForeignMapping::map(&owner, base, 4 * PAGE_SIZE).unwrap();
        owner.write(base.add(offset as u64), &data).unwrap();
        let mut got = vec![0u8; data.len()];
        map.read_at(offset, &mut got).unwrap();
        prop_assert_eq!(got, data);
    }

    /// dma_write to a fully pinned range always succeeds and is visible;
    /// to any range containing an unpinned page it always fails and leaves
    /// memory untouched.
    #[test]
    fn dma_respects_pinning(pin_first in any::<bool>(), len in 1usize..PAGE_SIZE) {
        let h = MemoryHandle::new(8 * PAGE_SIZE as u64);
        if pin_first {
            h.with_write(|m| m.pin_range(Gpa::new(0), len)).unwrap();
            h.dma_write(Gpa::new(0), &vec![0xAB; len]).unwrap();
            let mut out = vec![0u8; len];
            h.read(Gpa::new(0), &mut out).unwrap();
            prop_assert!(out.iter().all(|&b| b == 0xAB));
        } else {
            prop_assert!(h.dma_write(Gpa::new(0), &vec![0xAB; len]).is_err());
            let mut out = vec![0u8; len];
            h.read(Gpa::new(0), &mut out).unwrap();
            prop_assert!(out.iter().all(|&b| b == 0), "failed DMA must not write");
        }
    }
}
