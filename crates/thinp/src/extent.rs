//! Run-length extent mapping: virtual → physical block runs.
//!
//! Real dm-thin maps block ranges, not single blocks: `Map { virt_begin,
//! data_begin, len }` describes `len` contiguous virtual blocks backed by
//! `len` contiguous physical blocks. Sequential traffic collapses into a
//! handful of extents (~64x smaller serialized metadata than per-block
//! entries), while MobiCeal's random allocator degenerates gracefully to
//! one-block extents. [`ExtentMap`] keeps the per-block semantics of the
//! old `BTreeMap<u64, u64>` mapping table — lookup, insert, remove — while
//! storing runs: inserts merge into adjacent extents when both the virtual
//! and physical sides are contiguous, and removing a block from the middle
//! of a run splits it.

use std::collections::BTreeMap;

/// One mapping run: `len` virtual blocks starting at `virt_begin`, backed
/// by `len` physical blocks starting at `data_begin`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// First virtual block of the run.
    pub virt_begin: u64,
    /// First physical (data-device) block of the run.
    pub data_begin: u64,
    /// Run length in blocks (always ≥ 1).
    pub len: u64,
}

impl Extent {
    /// The physical block backing `vblock`, if this run covers it.
    fn lookup(&self, vblock: u64) -> Option<u64> {
        if vblock >= self.virt_begin && vblock < self.virt_begin + self.len {
            Some(self.data_begin + (vblock - self.virt_begin))
        } else {
            None
        }
    }
}

/// A virtual → physical mapping table stored as run-length extents.
///
/// Per-block view (iteration, lookup, equality) is identical to a
/// `BTreeMap<u64, u64>` of (virtual, physical) pairs; the extent view
/// ([`ExtentMap::extents`]) is what the on-disk format serializes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExtentMap {
    /// virt_begin → (data_begin, len), non-overlapping, never adjacent
    /// when mergeable (canonical form: two neighbours are only kept
    /// separate when their virtual or physical runs do not touch).
    runs: BTreeMap<u64, (u64, u64)>,
    /// Total mapped blocks (sum of run lengths), cached.
    mapped: u64,
}

impl ExtentMap {
    /// An empty mapping table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of mapped virtual blocks.
    pub fn len(&self) -> usize {
        self.mapped as usize
    }

    /// Whether nothing is mapped.
    pub fn is_empty(&self) -> bool {
        self.mapped == 0
    }

    /// Number of extents (runs) in canonical form.
    pub fn extent_count(&self) -> usize {
        self.runs.len()
    }

    /// The run covering `vblock`, if any.
    fn run_over(&self, vblock: u64) -> Option<Extent> {
        let (&virt_begin, &(data_begin, len)) = self.runs.range(..=vblock).next_back()?;
        let e = Extent { virt_begin, data_begin, len };
        e.lookup(vblock).map(|_| e)
    }

    /// The physical block backing `vblock`, if mapped.
    ///
    /// Takes `&u64` (like `BTreeMap::get`) but returns the block by value.
    pub fn get(&self, vblock: &u64) -> Option<u64> {
        self.run_over(*vblock).and_then(|e| e.lookup(*vblock))
    }

    /// Whether `vblock` is mapped.
    pub fn contains_key(&self, vblock: &u64) -> bool {
        self.get(vblock).is_some()
    }

    /// The lowest unmapped virtual block at or above `vblock`. Skips the run
    /// covering `vblock`, then every run that starts exactly where the last
    /// one ended, in one ascending range walk.
    pub fn first_unmapped_from(&self, vblock: u64) -> u64 {
        let mut v = self.run_over(vblock).map_or(vblock, |e| e.virt_begin + e.len);
        for (&virt_begin, &(_, len)) in self.runs.range(v..) {
            if virt_begin != v {
                break;
            }
            v = virt_begin + len;
        }
        v
    }

    /// Maps `vblock` to `physical`, returning the previous backing block if
    /// one existed. Merges into the left/right neighbouring runs when both
    /// the virtual and physical sides are contiguous.
    pub fn insert(&mut self, vblock: u64, physical: u64) -> Option<u64> {
        let old = self.remove(&vblock);
        // Left neighbour: a run ending exactly at (vblock, physical).
        let left = self
            .runs
            .range(..vblock)
            .next_back()
            .map(|(&v, &(d, l))| (v, d, l))
            .filter(|&(v, d, l)| v + l == vblock && d + l == physical);
        // Right neighbour: a run starting exactly at (vblock + 1,
        // physical + 1).
        let right =
            self.runs.get(&(vblock + 1)).map(|&(d, l)| (d, l)).filter(|&(d, _)| d == physical + 1);
        match (left, right) {
            (Some((lv, _, ll)), Some((_, rl))) => {
                self.runs.remove(&(vblock + 1));
                self.runs.get_mut(&lv).expect("left run exists").1 = ll + 1 + rl;
            }
            (Some((lv, _, ll)), None) => {
                self.runs.get_mut(&lv).expect("left run exists").1 = ll + 1;
            }
            (None, Some((_, rl))) => {
                self.runs.remove(&(vblock + 1));
                self.runs.insert(vblock, (physical, rl + 1));
            }
            (None, None) => {
                self.runs.insert(vblock, (physical, 1));
            }
        }
        self.mapped += 1;
        old
    }

    /// Unmaps `vblock`, returning the physical block that backed it.
    /// Removing from the middle of a run splits it in two.
    pub fn remove(&mut self, vblock: &u64) -> Option<u64> {
        let e = self.run_over(*vblock)?;
        let physical = e.lookup(*vblock).expect("run covers vblock");
        self.runs.remove(&e.virt_begin);
        let off = *vblock - e.virt_begin;
        if off > 0 {
            self.runs.insert(e.virt_begin, (e.data_begin, off));
        }
        if off + 1 < e.len {
            self.runs.insert(*vblock + 1, (e.data_begin + off + 1, e.len - off - 1));
        }
        self.mapped -= 1;
        Some(physical)
    }

    /// Per-block iteration in ascending virtual order: `(virtual, physical)`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.runs.iter().flat_map(|(&v, &(d, len))| (0..len).map(move |i| (v + i, d + i)))
    }

    /// Mapped virtual blocks in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(v, _)| v)
    }

    /// Backing physical blocks, in ascending virtual order.
    pub fn values(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(_, p)| p)
    }

    /// The extents in ascending virtual order (the serialized form).
    pub fn extents(&self) -> impl Iterator<Item = Extent> + '_ {
        self.runs.iter().map(|(&virt_begin, &(data_begin, len))| Extent {
            virt_begin,
            data_begin,
            len,
        })
    }

    /// Maps a whole run at once (replaying a journaled extent op). Existing
    /// mappings inside the run are overwritten.
    pub fn insert_run(&mut self, e: Extent) {
        for i in 0..e.len {
            self.insert(e.virt_begin + i, e.data_begin + i);
        }
    }

    /// Unmaps a whole virtual run (no-op where nothing is mapped).
    pub fn remove_run(&mut self, virt_begin: u64, len: u64) {
        for v in virt_begin..virt_begin + len {
            self.remove(&v);
        }
    }
}

impl FromIterator<(u64, u64)> for ExtentMap {
    fn from_iter<I: IntoIterator<Item = (u64, u64)>>(iter: I) -> Self {
        let mut map = ExtentMap::new();
        for (v, p) in iter {
            map.insert(v, p);
        }
        map
    }
}

impl From<BTreeMap<u64, u64>> for ExtentMap {
    fn from(m: BTreeMap<u64, u64>) -> Self {
        m.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_map_has_no_mappings() {
        let m = ExtentMap::new();
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert_eq!(m.extent_count(), 0);
        assert_eq!(m.get(&0), None);
        assert!(!m.contains_key(&0));
    }

    #[test]
    fn sequential_inserts_merge_into_one_extent() {
        let mut m = ExtentMap::new();
        for i in 0..64u64 {
            assert_eq!(m.insert(i, 100 + i), None);
        }
        assert_eq!(m.len(), 64);
        assert_eq!(m.extent_count(), 1, "sequential run must merge");
        let e: Vec<Extent> = m.extents().collect();
        assert_eq!(e, vec![Extent { virt_begin: 0, data_begin: 100, len: 64 }]);
        for i in 0..64u64 {
            assert_eq!(m.get(&i), Some(100 + i));
        }
    }

    #[test]
    fn merge_requires_both_sides_contiguous() {
        let mut m = ExtentMap::new();
        m.insert(0, 10);
        m.insert(1, 99); // virtual side contiguous, physical not
        assert_eq!(m.extent_count(), 2);
        m.insert(3, 12); // physical side would continue 10,11,12 but virtual skips 2
        assert_eq!(m.extent_count(), 3);
    }

    #[test]
    fn gap_fill_merges_left_and_right() {
        let mut m = ExtentMap::new();
        m.insert(0, 10);
        m.insert(2, 12);
        assert_eq!(m.extent_count(), 2);
        m.insert(1, 11); // bridges both neighbours
        assert_eq!(m.extent_count(), 1);
        assert_eq!(
            m.extents().collect::<Vec<_>>(),
            vec![Extent { virt_begin: 0, data_begin: 10, len: 3 }]
        );
    }

    #[test]
    fn remove_splits_a_run() {
        let mut m = ExtentMap::new();
        for i in 0..10u64 {
            m.insert(i, 50 + i);
        }
        assert_eq!(m.remove(&4), Some(54));
        assert_eq!(m.extent_count(), 2);
        assert_eq!(m.get(&4), None);
        assert_eq!(m.get(&3), Some(53));
        assert_eq!(m.get(&5), Some(55));
        assert_eq!(m.len(), 9);
        // Edges shrink instead of splitting.
        assert_eq!(m.remove(&0), Some(50));
        assert_eq!(m.remove(&9), Some(59));
        assert_eq!(m.extent_count(), 2);
        assert_eq!(m.len(), 7);
        assert_eq!(m.remove(&4), None, "double remove is a no-op");
    }

    #[test]
    fn overwrite_returns_previous_physical() {
        let mut m = ExtentMap::new();
        m.insert(5, 100);
        assert_eq!(m.insert(5, 200), Some(100));
        assert_eq!(m.get(&5), Some(200));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn iteration_matches_btreemap_order() {
        let pairs = [(7u64, 3u64), (0, 9), (1, 10), (2, 11), (50, 4)];
        let m: ExtentMap = pairs.iter().copied().collect();
        let reference: BTreeMap<u64, u64> = pairs.iter().copied().collect();
        assert_eq!(m.iter().collect::<Vec<_>>(), reference.into_iter().collect::<Vec<_>>());
        assert_eq!(m.keys().collect::<Vec<_>>(), vec![0, 1, 2, 7, 50]);
        assert_eq!(m.values().collect::<Vec<_>>(), vec![9, 10, 11, 3, 4]);
    }

    #[test]
    fn first_unmapped_from_skips_touching_runs() {
        let mut m = ExtentMap::new();
        assert_eq!(m.first_unmapped_from(0), 0);
        m.insert_run(Extent { virt_begin: 0, data_begin: 10, len: 3 });
        // Virtually adjacent but physically discontiguous: a separate run.
        m.insert_run(Extent { virt_begin: 3, data_begin: 50, len: 2 });
        m.insert(7, 1);
        assert_eq!(m.extent_count(), 3);
        assert_eq!(m.first_unmapped_from(0), 5);
        assert_eq!(m.first_unmapped_from(4), 5);
        assert_eq!(m.first_unmapped_from(5), 5);
        assert_eq!(m.first_unmapped_from(6), 6);
        assert_eq!(m.first_unmapped_from(7), 8);
        assert_eq!(m.first_unmapped_from(100), 100);
    }

    #[test]
    fn insert_and_remove_runs() {
        let mut m = ExtentMap::new();
        m.insert_run(Extent { virt_begin: 4, data_begin: 40, len: 8 });
        assert_eq!(m.len(), 8);
        assert_eq!(m.extent_count(), 1);
        m.remove_run(6, 2);
        assert_eq!(m.len(), 6);
        assert_eq!(m.extent_count(), 2);
        m.remove_run(0, 100); // covers everything + unmapped space
        assert!(m.is_empty());
    }
}
