//! Virtual → physical mapping table with a run-length extent view.
//!
//! Real dm-thin maps block ranges, not single blocks: `Map { virt_begin,
//! data_begin, len }` describes `len` contiguous virtual blocks backed by
//! `len` contiguous physical blocks, and that is the form the on-disk
//! format serializes ([`ExtentMap::extents`]). In memory, [`ExtentMap`]
//! keeps pages of 512 physical block numbers in a `BTreeMap` keyed by
//! `vblock / 512`, each page with an occupancy mask and a count. MobiCeal
//! places every fresh block at random, so its mappings are one-block runs;
//! with pages, `get`, `insert` and `remove` are one small-map lookup plus
//! an index whatever the runs look like, and `first_unmapped_from` scans
//! occupancy words.
//!
//! The extent view is derived: one ascending scan merges neighbours whose
//! virtual and physical sides are both contiguous, so the runs always come
//! out canonical (maximally merged). A page is dropped with its last
//! mapping and its unmapped slots hold zero, so derived equality is
//! per-block equality. Memory grows with the pages touched, never with a
//! volume's virtual size.

use crate::bitmap::first_clear_bit;
use std::collections::BTreeMap;

/// Mapping slots per page.
const PAGE_SLOTS: usize = 512;

/// Occupancy words per page.
const PAGE_WORDS: usize = PAGE_SLOTS / 64;

/// The page holding `u64::MAX`; no page follows it.
const LAST_PAGE: u64 = u64::MAX / PAGE_SLOTS as u64;

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

/// The mappings of [`PAGE_SLOTS`] consecutive virtual blocks.
#[derive(Clone, PartialEq, Eq)]
struct Page {
    /// Bit `i` is set when slot `i` is mapped.
    occupied: [u64; PAGE_WORDS],
    /// Set bits in `occupied`; the page is dropped when this reaches 0.
    count: u32,
    /// Physical block per slot; 0 in every unmapped slot.
    physical: Box<[u64; PAGE_SLOTS]>,
}

impl Page {
    fn new() -> Self {
        Page { occupied: [0; PAGE_WORDS], count: 0, physical: Box::new([0; PAGE_SLOTS]) }
    }
}

/// `(virtual, physical)` for every mapping of a run of pages, ascending:
/// one occupancy word at a time within each page.
struct Blocks<'a, I> {
    pages: I,
    /// The page being walked, with its first virtual block.
    page: Option<(u64, &'a Page)>,
    /// Index of the next occupancy word to load.
    word: usize,
    /// Set bits of word `word - 1` not yet yielded.
    bits: u64,
}

impl<'a, I: Iterator<Item = (&'a u64, &'a Page)>> Blocks<'a, I> {
    fn new(mut pages: I) -> Self {
        let page = Self::start(pages.next());
        Blocks { pages, page, word: 0, bits: 0 }
    }

    fn start(page: Option<(&'a u64, &'a Page)>) -> Option<(u64, &'a Page)> {
        page.map(|(&key, page)| (key * PAGE_SLOTS as u64, page))
    }
}

impl<'a, I: Iterator<Item = (&'a u64, &'a Page)>> Iterator for Blocks<'a, I> {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        loop {
            let (base, page) = self.page?;
            if self.bits != 0 {
                let slot = (self.word - 1) * 64 + self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some((base + slot as u64, page.physical[slot]));
            }
            if self.word < PAGE_WORDS {
                self.bits = page.occupied[self.word];
                self.word += 1;
            } else {
                self.page = Self::start(self.pages.next());
                self.word = 0;
            }
        }
    }
}

/// The page number of `vblock`, its slot in that page, and the slot's
/// occupancy word and bit.
fn locate(vblock: u64) -> (u64, usize, usize, u64) {
    let slot = (vblock % PAGE_SLOTS as u64) as usize;
    (vblock / PAGE_SLOTS as u64, slot, slot / 64, 1 << (slot % 64))
}

/// A virtual → physical mapping table: pages of per-block entries in
/// memory, a canonical run-length extent view for serialization.
///
/// Per-block view (iteration, lookup, equality) is identical to a
/// `BTreeMap<u64, u64>` of (virtual, physical) pairs; the extent view
/// ([`ExtentMap::extents`]) is what the on-disk format serializes.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct ExtentMap {
    /// Page number (`vblock / PAGE_SLOTS`) → page; no page is empty.
    pages: BTreeMap<u64, Page>,
    /// Total mapped blocks (sum of page counts), cached.
    mapped: u64,
}

impl std::fmt::Debug for ExtentMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.extents()).finish()
    }
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

    /// Number of extents (runs) in canonical form. This scans every
    /// mapping, so a caller that also walks [`ExtentMap::extents`] should
    /// count the runs as it goes.
    pub fn extent_count(&self) -> usize {
        let mut count = 0;
        self.for_each_extent(|_| count += 1);
        count
    }

    /// Pages held: the map's memory, in units of one page.
    #[cfg(test)]
    pub(crate) fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// The physical block backing `vblock`, if mapped.
    ///
    /// Takes `&u64` (like `BTreeMap::get`) but returns the block by value.
    pub fn get(&self, vblock: &u64) -> Option<u64> {
        let (key, slot, word, bit) = locate(*vblock);
        let page = self.pages.get(&key)?;
        (page.occupied[word] & bit != 0).then(|| page.physical[slot])
    }

    /// Whether `vblock` is mapped.
    pub fn contains_key(&self, vblock: &u64) -> bool {
        self.get(vblock).is_some()
    }

    /// The lowest unmapped virtual block at or above `vblock`. Scans the
    /// occupancy words of consecutive pages and stops at the first clear
    /// bit or missing page. Saturates at `u64::MAX` when every block from
    /// `vblock` up is mapped.
    pub fn first_unmapped_from(&self, vblock: u64) -> u64 {
        let mut key = vblock / PAGE_SLOTS as u64;
        let mut slot = vblock % PAGE_SLOTS as u64;
        for (&present, page) in self.pages.range(key..) {
            if present != key {
                break; // page `key` is missing: its slots are all unmapped
            }
            if let Some(free) = first_clear_bit(&page.occupied, slot) {
                slot = free;
                break;
            }
            if key == LAST_PAGE {
                return u64::MAX;
            }
            key += 1;
            slot = 0;
        }
        key * PAGE_SLOTS as u64 + slot
    }

    /// Maps `vblock` to `physical`, returning the previous backing block if
    /// one existed.
    pub fn insert(&mut self, vblock: u64, physical: u64) -> Option<u64> {
        let (key, slot, word, bit) = locate(vblock);
        let page = self.pages.entry(key).or_insert_with(Page::new);
        let previous = std::mem::replace(&mut page.physical[slot], physical);
        if page.occupied[word] & bit != 0 {
            return Some(previous);
        }
        page.occupied[word] |= bit;
        page.count += 1;
        self.mapped += 1;
        None
    }

    /// Unmaps `vblock`, returning the physical block that backed it. The
    /// page goes with its last mapping.
    pub fn remove(&mut self, vblock: &u64) -> Option<u64> {
        let (key, slot, word, bit) = locate(*vblock);
        let page = self.pages.get_mut(&key)?;
        if page.occupied[word] & bit == 0 {
            return None;
        }
        page.occupied[word] &= !bit;
        page.count -= 1;
        let physical = std::mem::take(&mut page.physical[slot]);
        if page.count == 0 {
            self.pages.remove(&key);
        }
        self.mapped -= 1;
        Some(physical)
    }

    /// Per-block iteration in ascending virtual order: `(virtual, physical)`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        Blocks::new(self.pages.iter())
    }

    /// Mapped virtual blocks in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(v, _)| v)
    }

    /// Backing physical blocks, in ascending virtual order.
    pub fn values(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(_, p)| p)
    }

    /// The canonical extents in ascending virtual order (the serialized
    /// form), derived in one scan of the mappings.
    pub fn extents(&self) -> impl Iterator<Item = Extent> + '_ {
        let mut runs = Vec::new();
        self.for_each_extent(|e| runs.push(e));
        runs.into_iter()
    }

    /// Hands each canonical extent to `emit`, in ascending virtual order:
    /// a run absorbs the next mapping while both its virtual and its
    /// physical side continue it.
    pub(crate) fn for_each_extent(&self, mut emit: impl FnMut(Extent)) {
        // Nested loops rather than `iter()`: the checkpoint encoder runs
        // this over every mapping, and the loops keep it as fast as walking
        // stored runs was.
        let mut run: Option<Extent> = None;
        for (&key, page) in &self.pages {
            let base = key * PAGE_SLOTS as u64;
            for (word, &bits) in page.occupied.iter().enumerate() {
                let mut bits = bits;
                while bits != 0 {
                    let slot = word * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let (v, p) = (base + slot as u64, page.physical[slot]);
                    match run.as_mut() {
                        Some(r)
                            if r.virt_begin.checked_add(r.len) == Some(v)
                                && r.data_begin.checked_add(r.len) == Some(p) =>
                        {
                            r.len += 1
                        }
                        _ => {
                            if let Some(done) =
                                run.replace(Extent { virt_begin: v, data_begin: p, len: 1 })
                            {
                                emit(done);
                            }
                        }
                    }
                }
            }
        }
        if let Some(done) = run {
            emit(done);
        }
    }

    /// Maps a whole run at once (replaying a journaled extent op). Existing
    /// mappings inside the run are overwritten.
    pub fn insert_run(&mut self, e: Extent) {
        for i in 0..e.len {
            self.insert(e.virt_begin + i, e.data_begin + i);
        }
    }

    /// Unmaps a whole virtual run (no-op where nothing is mapped). Visits
    /// only the mapped blocks of the pages the run overlaps, so a huge
    /// `len` costs no more than the mappings it removes.
    pub fn remove_run(&mut self, virt_begin: u64, len: u64) {
        let Some(last) = len.checked_sub(1).map(|l| virt_begin.saturating_add(l)) else {
            return;
        };
        let pages = self.pages.range(virt_begin / PAGE_SLOTS as u64..=last / PAGE_SLOTS as u64);
        let doomed: Vec<u64> = Blocks::new(pages)
            .map(|(v, _)| v)
            .filter(|v| (virt_begin..=last).contains(v))
            .collect();
        for v in doomed {
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

    #[test]
    fn runs_merge_across_page_edges() {
        let mut m = ExtentMap::new();
        for v in 500..530u64 {
            m.insert(v, 7000 + v);
        }
        m.insert(1023, 5);
        m.insert(1024, 6);
        assert_eq!(
            m.extents().collect::<Vec<_>>(),
            vec![
                Extent { virt_begin: 500, data_begin: 7500, len: 30 },
                Extent { virt_begin: 1023, data_begin: 5, len: 2 },
            ]
        );
        m.remove_run(511, 2);
        assert_eq!(m.extent_count(), 3, "a removal at the page edge splits the run");
    }

    #[test]
    fn removing_a_pages_last_mapping_leaves_the_map_it_never_held() {
        let mut m = ExtentMap::new();
        m.insert(3, 10);
        m.insert(600, 20);
        m.insert(1_000_000, 30);
        let mut never: ExtentMap = [(3u64, 10u64)].into_iter().collect();
        assert_ne!(m, never);
        assert_eq!(m.remove(&600), Some(20));
        assert_eq!(m.remove(&1_000_000), Some(30));
        assert_eq!(m, never);
        assert_eq!(m.extent_count(), 1);
        // A slot unmapped from a page that stays, or overwritten, leaves
        // no trace either.
        m.insert(7, 70);
        assert_eq!(m.remove(&7), Some(70));
        assert_eq!(m, never);
        m.insert(4, 99);
        m.insert(4, 11);
        never.insert(4, 11);
        assert_eq!(m, never);
        m.remove(&3);
        m.remove(&4);
        assert_eq!(m, ExtentMap::new());
    }

    #[test]
    fn first_unmapped_from_scans_across_pages() {
        let mut m = ExtentMap::new();
        m.insert_run(Extent { virt_begin: 0, data_begin: 0, len: 1024 });
        assert_eq!(m.first_unmapped_from(0), 1024, "two full pages, then a missing one");
        assert_eq!(m.first_unmapped_from(700), 1024);
        m.insert_run(Extent { virt_begin: 1024, data_begin: 5000, len: 130 });
        assert_eq!(m.first_unmapped_from(0), 1154, "a clear bit in the third page's third word");
        m.remove(&511);
        assert_eq!(m.first_unmapped_from(0), 511);
        assert_eq!(m.first_unmapped_from(512), 1154);
        assert_eq!(m.first_unmapped_from(2048), 2048);
    }

    #[test]
    fn the_top_of_the_address_space_saturates() {
        let mut m = ExtentMap::new();
        m.insert(u64::MAX - 1, 1);
        assert_eq!(m.first_unmapped_from(u64::MAX - 1), u64::MAX);
        m.insert(u64::MAX, 2);
        assert_eq!(m.first_unmapped_from(u64::MAX - 1), u64::MAX, "nothing above is free");
        assert_eq!(
            m.extents().collect::<Vec<_>>(),
            vec![Extent { virt_begin: u64::MAX - 1, data_begin: 1, len: 2 }]
        );
        m.remove_run(u64::MAX - 1, u64::MAX);
        assert!(m.is_empty(), "a run past the top removes what is mapped");
    }
}
