//! Property tests of the mapping table: per-block semantics must be
//! indistinguishable from a `BTreeMap<u64, u64>` table, the extent view
//! must stay in canonical (maximally merged) form, and the serialized
//! metadata must realize the size win the extent format exists for. Keys
//! span four 512-block pages and cluster at the page edges, where runs
//! cross from one page into the next.

// Test binary: aborting on an unexpected error is the point.
#![allow(clippy::unwrap_used)]

use mobiceal_thinp::{Extent, ExtentMap};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Bytes one extent occupies in the on-disk payload (three u64 fields).
const EXTENT_TRIPLE_BYTES: usize = 24;
/// Bytes one mapping occupied in the per-block format ((virtual, physical)
/// u64 pair) — the seed layout the extent format replaced.
const PER_BLOCK_PAIR_BYTES: usize = 16;

#[derive(Debug, Clone)]
enum MapOp {
    Insert { v: u64, p: u64 },
    Remove { v: u64 },
    InsertRun { v: u64, p: u64, len: u64 },
    RemoveRun { v: u64, len: u64 },
}

/// Virtual blocks over four 512-block pages, half of them within eight
/// blocks of a page edge (511/512, 1023/1024, 1535/1536).
fn vblock() -> impl Strategy<Value = u64> {
    prop_oneof![0..2048u64, (1..4u64, 0..16u64).prop_map(|(edge, off)| edge * 512 - 8 + off)]
}

fn op_strategy() -> impl Strategy<Value = MapOp> {
    prop_oneof![
        3 => (vblock(), 0..4096u64).prop_map(|(v, p)| MapOp::Insert { v, p }),
        // A fixed virtual-to-physical offset: neighbouring inserts merge.
        2 => vblock().prop_map(|v| MapOp::Insert { v, p: v + 3000 }),
        2 => vblock().prop_map(|v| MapOp::Remove { v }),
        1 => (vblock(), 0..4096u64, 1..40u64)
            .prop_map(|(v, p, len)| MapOp::InsertRun { v, p, len }),
        1 => (vblock(), 1..40u64).prop_map(|(v, len)| MapOp::RemoveRun { v, len }),
    ]
}

/// Every virtual block an operation can touch lies below this.
const PROBE_END: u64 = 2100;

fn apply(map: &mut ExtentMap, reference: &mut BTreeMap<u64, u64>, op: &MapOp) {
    match *op {
        MapOp::Insert { v, p } => {
            assert_eq!(map.insert(v, p), reference.insert(v, p));
        }
        MapOp::Remove { v } => {
            assert_eq!(map.remove(&v), reference.remove(&v));
        }
        MapOp::InsertRun { v, p, len } => {
            map.insert_run(Extent { virt_begin: v, data_begin: p, len });
            for i in 0..len {
                reference.insert(v + i, p + i);
            }
        }
        MapOp::RemoveRun { v, len } => {
            map.remove_run(v, len);
            for i in v..v + len {
                reference.remove(&i);
            }
        }
    }
}

proptest! {
    /// Any operation sequence leaves the extent map observably identical
    /// to the per-block reference: same returns, same length, same
    /// iteration, same point lookups (mapped and unmapped alike).
    #[test]
    fn extent_map_matches_per_block_reference(
        ops in prop::collection::vec(op_strategy(), 1..200),
    ) {
        let mut map = ExtentMap::new();
        let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
        for op in &ops {
            apply(&mut map, &mut reference, op);
            prop_assert_eq!(map.len(), reference.len());
            prop_assert_eq!(map.is_empty(), reference.is_empty());
        }
        prop_assert_eq!(
            map.iter().collect::<Vec<_>>(),
            reference.iter().map(|(&v, &p)| (v, p)).collect::<Vec<_>>()
        );
        prop_assert_eq!(map.keys().collect::<Vec<_>>(), reference.keys().copied().collect::<Vec<_>>());
        prop_assert_eq!(
            map.values().collect::<Vec<_>>(),
            reference.values().copied().collect::<Vec<_>>()
        );
        for v in 0..PROBE_END {
            prop_assert_eq!(map.get(&v), reference.get(&v).copied(), "lookup at {}", v);
            prop_assert_eq!(map.contains_key(&v), reference.contains_key(&v));
        }
    }

    /// The stored runs stay canonical: sorted, non-empty, non-overlapping,
    /// and never mergeable with a neighbour (two adjacent runs always have
    /// a virtual or physical discontinuity between them). The extents also
    /// reproduce exactly the per-block view.
    #[test]
    fn extents_stay_canonical(
        ops in prop::collection::vec(op_strategy(), 1..200),
    ) {
        let mut map = ExtentMap::new();
        let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
        for op in &ops {
            apply(&mut map, &mut reference, op);
        }
        let extents: Vec<Extent> = map.extents().collect();
        let mut total = 0u64;
        for e in &extents {
            prop_assert!(e.len >= 1, "zero-length run {:?}", e);
            total += e.len;
        }
        for pair in extents.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            prop_assert!(a.virt_begin + a.len <= b.virt_begin, "overlap: {:?} then {:?}", a, b);
            let mergeable =
                a.virt_begin + a.len == b.virt_begin && a.data_begin + a.len == b.data_begin;
            prop_assert!(!mergeable, "non-canonical neighbours {:?} / {:?}", a, b);
        }
        prop_assert_eq!(total as usize, map.len(), "cached length vs run lengths");
        let mut expanded = ExtentMap::new();
        for e in extents {
            expanded.insert_run(e);
        }
        prop_assert_eq!(&expanded, &map, "extents round-trip the map");
    }

    /// `first_unmapped_from` agrees with a per-block walk of the
    /// reference after every operation — probed around the operation's own
    /// range, where runs were just merged, split or made to touch — and
    /// from every start at the end. The run-heavy prefix fills whole pages
    /// and builds long chains of touching runs, physically contiguous or
    /// not, that cross page edges.
    #[test]
    fn first_unmapped_from_matches_per_block_walk(
        runs in prop::collection::vec((vblock(), 0..4096u64, 1..1100u64), 0..8),
        ops in prop::collection::vec(op_strategy(), 1..120),
    ) {
        let reference_walk = |reference: &BTreeMap<u64, u64>, v: u64| {
            let mut u = v;
            for &mapped in reference.range(v..).map(|(k, _)| k) {
                if mapped != u {
                    break;
                }
                u += 1;
            }
            u
        };
        let mut map = ExtentMap::new();
        let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
        let prefix = runs.into_iter().map(|(v, p, len)| MapOp::InsertRun { v, p, len });
        for op in prefix.chain(ops) {
            apply(&mut map, &mut reference, &op);
            let (v, len) = match op {
                MapOp::Insert { v, .. } | MapOp::Remove { v } => (v, 1),
                MapOp::InsertRun { v, len, .. } | MapOp::RemoveRun { v, len } => (v, len),
            };
            for probe in [0, v.saturating_sub(1), v, v + len - 1, v + len] {
                prop_assert_eq!(
                    map.first_unmapped_from(probe),
                    reference_walk(&reference, probe),
                    "probe {} after {:?}", probe, op
                );
            }
        }
        // Every start at once: one backward walk over the blocks, each
        // unmapped one the answer for itself and the mapped run below it.
        let end = PROBE_END + 1100;
        let mut next_unmapped = end;
        for v in (0..end).rev() {
            if !reference.contains_key(&v) {
                next_unmapped = v;
            }
            prop_assert_eq!(map.first_unmapped_from(v), next_unmapped, "from {}", v);
        }
    }

    /// Building from an arbitrary pair list equals the reference map (the
    /// last insert of a duplicate virtual block wins in both).
    #[test]
    fn from_iterator_roundtrip(
        pairs in prop::collection::vec((vblock(), 0..4096u64), 0..128),
    ) {
        let map: ExtentMap = pairs.iter().copied().collect();
        let reference: BTreeMap<u64, u64> = pairs.into_iter().collect();
        prop_assert_eq!(
            map.iter().collect::<Vec<_>>(),
            reference.into_iter().collect::<Vec<_>>()
        );
    }
}

/// The headline win: a 2048-block sequential workload (what the public
/// volume's sequential allocator produces) serializes at least 32x smaller
/// as extents than as per-block pairs.
#[test]
fn sequential_workload_serializes_at_least_32x_smaller() {
    let mut map = ExtentMap::new();
    for i in 0..2048u64 {
        map.insert(i, 64 + i);
    }
    assert_eq!(map.len(), 2048);
    assert_eq!(map.extent_count(), 1, "fully sequential traffic is one run");
    let extent_bytes = map.extent_count() * EXTENT_TRIPLE_BYTES;
    let per_block_bytes = map.len() * PER_BLOCK_PAIR_BYTES;
    assert!(
        per_block_bytes >= 32 * extent_bytes,
        "expected >= 32x shrink, got {per_block_bytes} -> {extent_bytes} bytes"
    );
}

/// MobiCeal's random allocator is the worst case: the extent map must
/// degrade gracefully (every mapping its own run), never worse than the
/// per-block format by more than the extra length field.
#[test]
fn random_workload_degrades_to_per_block_runs() {
    let mut map = ExtentMap::new();
    // Physical blocks deliberately scattered so nothing merges.
    for i in 0..512u64 {
        map.insert(i, (i * 2) % 1024 + (i % 2) * 511);
    }
    assert_eq!(map.len(), 512);
    let extent_bytes = map.extent_count() * EXTENT_TRIPLE_BYTES;
    let per_block_bytes = map.len() * PER_BLOCK_PAIR_BYTES;
    assert!(
        extent_bytes <= per_block_bytes * 3 / 2,
        "worst case bounded by the 24/16 byte ratio: {extent_bytes} vs {per_block_bytes}"
    );
}
