//! The pool's global free-space bitmap.
//!
//! One bit per physical data block, shared by *all* volumes — public,
//! hidden, and dummy. This is the paper's "global bitmap" moved to the
//! block layer (§IV-A Q3): because hidden writes mark their blocks
//! allocated here, public writes can never be given those blocks, and the
//! marks themselves are deniable (dummy writes produce identical marks).

/// Words per rank group: [`Bitmap::nth_free`] skips whole 512-bit groups
/// by their set-bit counts before it walks words.
const GROUP_WORDS: usize = 8;

/// Bits per rank group.
const GROUP_BITS: u64 = GROUP_WORDS as u64 * 64;

/// Indices of the set bits of a word slice, ascending: one step per word
/// plus one per set bit.
struct SetBits<'a> {
    words: &'a [u64],
    /// Index of the next word to load.
    word: usize,
    /// Set bits of word `word - 1` not yet yielded.
    bits: u64,
}

impl<'a> SetBits<'a> {
    fn new(words: &'a [u64]) -> Self {
        SetBits { words, word: 0, bits: 0 }
    }
}

impl Iterator for SetBits<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        while self.bits == 0 {
            self.bits = *self.words.get(self.word)?;
            self.word += 1;
        }
        let bit = (self.word as u64 - 1) * 64 + self.bits.trailing_zeros() as u64;
        self.bits &= self.bits - 1;
        Some(bit)
    }
}

/// Index of the first clear bit of `words` at or after `from`, if any.
pub(crate) fn first_clear_bit(words: &[u64], from: u64) -> Option<u64> {
    let first = (from / 64) as usize;
    words.iter().enumerate().skip(first).find_map(|(word, &bits)| {
        let mask = if word == first { !0u64 << (from % 64) } else { !0 };
        let clear = !bits & mask;
        (clear != 0).then(|| word as u64 * 64 + clear.trailing_zeros() as u64)
    })
}

/// A fixed-size bitmap over physical block indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    bits: Vec<u64>,
    len: u64,
    allocated: u64,
    /// Set bits per [`GROUP_WORDS`]-word group, kept by `set` and `clear`
    /// and rebuilt by `from_bytes`; derived from `bits`, never serialized.
    group_set: Vec<u32>,
}

impl Bitmap {
    /// Creates a bitmap of `len` clear bits.
    pub fn new(len: u64) -> Self {
        let words = len.div_ceil(64) as usize;
        Bitmap {
            bits: vec![0u64; words],
            len,
            allocated: 0,
            group_set: vec![0; words.div_ceil(GROUP_WORDS)],
        }
    }

    /// Number of tracked blocks.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the bitmap tracks zero blocks.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set (allocated) bits.
    pub fn allocated(&self) -> u64 {
        self.allocated
    }

    /// Number of clear (free) bits.
    pub fn free(&self) -> u64 {
        self.len - self.allocated
    }

    /// Whether bit `index` is set.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn get(&self, index: u64) -> bool {
        assert!(index < self.len, "bit {index} out of range");
        self.bits[(index / 64) as usize] & (1 << (index % 64)) != 0
    }

    /// Sets bit `index`; returns whether it was previously clear.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn set(&mut self, index: u64) -> bool {
        assert!(index < self.len, "bit {index} out of range");
        let word = (index / 64) as usize;
        let mask = 1u64 << (index % 64);
        let was_clear = self.bits[word] & mask == 0;
        if was_clear {
            self.bits[word] |= mask;
            self.allocated += 1;
            self.group_set[word / GROUP_WORDS] += 1;
        }
        was_clear
    }

    /// Clears bit `index`; returns whether it was previously set.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn clear(&mut self, index: u64) -> bool {
        assert!(index < self.len, "bit {index} out of range");
        let word = (index / 64) as usize;
        let mask = 1u64 << (index % 64);
        let was_set = self.bits[word] & mask != 0;
        if was_set {
            self.bits[word] &= !mask;
            self.allocated -= 1;
            self.group_set[word / GROUP_WORDS] -= 1;
        }
        was_set
    }

    /// Index of the first free bit at or after `from`, if any.
    pub fn first_free_from(&self, from: u64) -> Option<u64> {
        first_clear_bit(&self.bits, from).filter(|&bit| bit < self.len)
    }

    /// Index of the `n`-th free bit (0-based), if at least `n + 1` bits are
    /// free. This is the primitive behind random allocation: "generate a
    /// random number i between 1 and x; the i-th free block is the result"
    /// (§V-A of the paper).
    ///
    /// Cost: one step per 512-bit group before the answer's group (from
    /// the per-group set counts), at most eight word popcounts inside it,
    /// and at most 63 bit steps inside the word: O(len / 512). On the
    /// suite's 16 384-block pool (32 groups) a uniform draw takes 65–75 ns
    /// on a 2-vCPU Xeon, against 275–360 ns for a walk of every word.
    pub fn nth_free(&self, n: u64) -> Option<u64> {
        if n >= self.free() {
            return None;
        }
        let mut remaining = n;
        let mut first_word = 0;
        // The bits past `len` count as free in the partial last group and
        // word, but the walk never passes them: `n < free()` puts the
        // answer below `len`.
        for (g, &set) in self.group_set.iter().enumerate() {
            let free_in_group = GROUP_BITS - set as u64;
            if remaining < free_in_group {
                first_word = g * GROUP_WORDS;
                break;
            }
            remaining -= free_in_group;
        }
        for (w, &bits) in self.bits.iter().enumerate().skip(first_word) {
            let mut free_bits = !bits;
            let free_in_word = free_bits.count_ones() as u64;
            if remaining < free_in_word {
                for _ in 0..remaining {
                    free_bits &= free_bits - 1;
                }
                return Some(w as u64 * 64 + free_bits.trailing_zeros() as u64);
            }
            remaining -= free_in_word;
        }
        None
    }

    /// Iterator over all set (allocated) bit indices, ascending: one step
    /// per word plus one per set bit.
    pub fn iter_allocated(&self) -> impl Iterator<Item = u64> + '_ {
        SetBits::new(&self.bits)
    }

    /// Serializes to little-endian words.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.bits.len() * 8);
        out.extend_from_slice(&self.len.to_le_bytes());
        for w in &self.bits {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Deserializes from [`Bitmap::to_bytes`] output.
    ///
    /// Returns `None` if the buffer is malformed.
    pub fn from_bytes(data: &[u8]) -> Option<Self> {
        if data.len() < 8 {
            return None;
        }
        let len = u64::from_le_bytes(data[..8].try_into().ok()?);
        let words = len.div_ceil(64) as usize;
        if data.len() < 8 + words * 8 {
            return None;
        }
        let mut bits = Vec::with_capacity(words);
        for i in 0..words {
            let start = 8 + i * 8;
            bits.push(u64::from_le_bytes(data[start..start + 8].try_into().ok()?));
        }
        // Validate tail bits beyond len are clear.
        if len % 64 != 0 {
            if let Some(last) = bits.last() {
                if last >> (len % 64) != 0 {
                    return None;
                }
            }
        }
        let group_set: Vec<u32> = bits
            .chunks(GROUP_WORDS)
            .map(|group| group.iter().map(|w| w.count_ones()).sum())
            .collect();
        let allocated = group_set.iter().map(|&set| set as u64).sum();
        Some(Bitmap { bits, len, allocated, group_set })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn set_clear_get() {
        let mut bm = Bitmap::new(130);
        assert_eq!(bm.free(), 130);
        assert!(bm.set(0));
        assert!(bm.set(64));
        assert!(bm.set(129));
        assert!(!bm.set(129), "double set reports already-set");
        assert!(bm.get(0) && bm.get(64) && bm.get(129));
        assert!(!bm.get(1));
        assert_eq!(bm.allocated(), 3);
        assert!(bm.clear(64));
        assert!(!bm.clear(64));
        assert_eq!(bm.allocated(), 2);
    }

    #[test]
    fn first_free_skips_allocated_runs() {
        let mut bm = Bitmap::new(200);
        for i in 0..100 {
            bm.set(i);
        }
        assert_eq!(bm.first_free_from(0), Some(100));
        assert_eq!(bm.first_free_from(150), Some(150));
        for i in 100..200 {
            bm.set(i);
        }
        assert_eq!(bm.first_free_from(0), None);
    }

    #[test]
    fn first_free_respects_partial_last_word() {
        let mut bm = Bitmap::new(70);
        for i in 0..70 {
            bm.set(i);
        }
        assert_eq!(bm.first_free_from(0), None);
        bm.clear(69);
        assert_eq!(bm.first_free_from(0), Some(69));
        assert_eq!(bm.first_free_from(70), None);
    }

    #[test]
    fn nth_free_enumerates_in_order() {
        let mut bm = Bitmap::new(10);
        bm.set(0);
        bm.set(3);
        bm.set(4);
        // Free: 1,2,5,6,7,8,9
        assert_eq!(bm.nth_free(0), Some(1));
        assert_eq!(bm.nth_free(1), Some(2));
        assert_eq!(bm.nth_free(2), Some(5));
        assert_eq!(bm.nth_free(6), Some(9));
        assert_eq!(bm.nth_free(7), None);
    }

    #[test]
    fn nth_free_across_words() {
        let mut bm = Bitmap::new(256);
        for i in 0..256 {
            if i % 2 == 0 {
                bm.set(i);
            }
        }
        // Free bits are the odd indices.
        for n in 0..128 {
            assert_eq!(bm.nth_free(n), Some(2 * n + 1), "n={n}");
        }
        assert_eq!(bm.nth_free(128), None);
    }

    #[test]
    fn serialization_roundtrip() {
        let mut bm = Bitmap::new(777);
        for i in (0..777).step_by(3) {
            bm.set(i);
        }
        let bytes = bm.to_bytes();
        let back = Bitmap::from_bytes(&bytes).unwrap();
        assert_eq!(back, bm);
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(Bitmap::from_bytes(&[]).is_none());
        assert!(Bitmap::from_bytes(&[1, 2, 3]).is_none());
        // Claimed length larger than provided words.
        let mut bytes = 1000u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 8]);
        assert!(Bitmap::from_bytes(&bytes).is_none());
    }

    #[test]
    fn from_bytes_rejects_dirty_tail() {
        let mut bm = Bitmap::new(65);
        bm.set(64);
        let mut bytes = bm.to_bytes();
        // Corrupt a bit beyond len in the last word.
        let last = bytes.len() - 1;
        bytes[last] |= 0x80;
        assert!(Bitmap::from_bytes(&bytes).is_none());
    }

    #[test]
    fn iter_allocated_matches_gets() {
        let mut bm = Bitmap::new(100);
        let set: Vec<u64> = vec![1, 17, 63, 64, 65, 99];
        for &i in &set {
            bm.set(i);
        }
        assert_eq!(bm.iter_allocated().collect::<Vec<_>>(), set);
    }

    proptest! {
        #[test]
        fn prop_allocated_count_consistent(ops in prop::collection::vec((0u64..500, any::<bool>()), 0..200)) {
            let mut bm = Bitmap::new(500);
            let mut model = std::collections::HashSet::new();
            for (idx, set) in ops {
                if set {
                    bm.set(idx);
                    model.insert(idx);
                } else {
                    bm.clear(idx);
                    model.remove(&idx);
                }
            }
            prop_assert_eq!(bm.allocated(), model.len() as u64);
            prop_assert_eq!(bm.free(), 500 - model.len() as u64);
            let mut sorted: Vec<u64> = model.iter().copied().collect();
            sorted.sort_unstable();
            prop_assert_eq!(bm.iter_allocated().collect::<Vec<_>>(), sorted);
            for i in 0..500 {
                prop_assert_eq!(bm.get(i), model.contains(&i));
            }
        }

        #[test]
        fn prop_nth_free_agrees_with_linear_scan(
            len in 1u64..2600,
            ops in prop::collection::vec((any::<u64>(), 0u8..8), 0..4000),
            set_weight in 0u8..9,
            rebuild in any::<bool>(),
        ) {
            // Lengths span up to six rank groups with a partial last word
            // and group; `set_weight` of 8 op kinds set, the rest clear,
            // so maps run from empty through mixed to full groups.
            let mut bm = Bitmap::new(len);
            let mut model = vec![false; len as usize];
            for (idx, kind) in ops {
                let idx = idx % len;
                if kind < set_weight {
                    bm.set(idx);
                    model[idx as usize] = true;
                } else {
                    bm.clear(idx);
                    model[idx as usize] = false;
                }
            }
            let bm = if rebuild { Bitmap::from_bytes(&bm.to_bytes()).unwrap() } else { bm };
            let frees: Vec<u64> = (0..len).filter(|&i| !model[i as usize]).collect();
            prop_assert_eq!(bm.free(), frees.len() as u64);
            for n in 0..=frees.len() as u64 + 1 {
                prop_assert_eq!(bm.nth_free(n), frees.get(n as usize).copied());
            }
        }

        #[test]
        fn prop_serialization_roundtrip(set_bits in prop::collection::hash_set(0u64..400, 0..300)) {
            let mut bm = Bitmap::new(400);
            for &b in &set_bits {
                bm.set(b);
            }
            let back = Bitmap::from_bytes(&bm.to_bytes()).unwrap();
            prop_assert_eq!(back, bm);
        }
    }
}
