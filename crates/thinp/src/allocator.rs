//! Block allocation strategies.
//!
//! The stock `dm-thin` allocator hands out blocks **sequentially**, which is
//! what lets a multi-snapshot adversary correlate "one public block followed
//! by a long run of non-public blocks" with hidden writes (§IV-B of the
//! paper). MobiCeal's kernel modification replaces it with **random
//! allocation**: every write, from any volume, lands on a uniformly random
//! free block. Both strategies implement [`Allocator`] so the pool — and
//! every experiment — can swap them.

use crate::bitmap::Bitmap;
use mobiceal_crypto::ChaCha20Rng;

/// Strategy selector for [`crate::ThinPool`] construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocStrategy {
    /// Stock dm-thin behaviour: first-fit ascending. Used by the paper's
    /// A-T-P / A-T-H configurations and the MobiPluto baseline.
    Sequential,
    /// MobiCeal's modification (§IV-B): uniformly random free block.
    Random,
}

/// A block allocation policy over the pool's global bitmap.
///
/// Implementations must *not* mark the bitmap; the pool does that once the
/// allocation is accepted. `reserved`, a bitmap over the same blocks, marks
/// the blocks the committed `bitmap` shows free but the allocator must not
/// hand out: those already allocated inside the current transaction — the
/// "transaction problem" the paper fixes in §V-A ("the block numbers
/// allocated within a transaction are recorded") — and committed blocks
/// freed in it, until the free commits.
pub trait Allocator: Send {
    /// Picks a free block, or `None` if the pool is exhausted.
    fn allocate(&mut self, bitmap: &Bitmap, reserved: &Bitmap) -> Option<u64>;

    /// The strategy this allocator implements.
    fn strategy(&self) -> AllocStrategy;
}

/// First-fit ascending allocation with a roving cursor (stock dm-thin).
#[derive(Debug, Default)]
pub struct SequentialAllocator {
    cursor: u64,
}

impl SequentialAllocator {
    /// Creates an allocator scanning from block 0.
    pub fn new() -> Self {
        SequentialAllocator { cursor: 0 }
    }
}

impl Allocator for SequentialAllocator {
    fn allocate(&mut self, bitmap: &Bitmap, reserved: &Bitmap) -> Option<u64> {
        if bitmap.free() <= reserved.allocated() {
            return None;
        }
        let mut from = self.cursor;
        let mut wrapped = false;
        loop {
            match bitmap.first_free_from(from) {
                Some(block) if !reserved.get(block) => {
                    self.cursor = block + 1;
                    return Some(block);
                }
                Some(block) => {
                    from = block + 1;
                }
                None if !wrapped => {
                    wrapped = true;
                    from = 0;
                }
                None => return None,
            }
            if wrapped && from >= self.cursor && bitmap.first_free_from(from).is_none() {
                return None;
            }
        }
    }

    fn strategy(&self) -> AllocStrategy {
        AllocStrategy::Sequential
    }
}

/// Uniformly random allocation (MobiCeal, §IV-B and §V-A).
///
/// "We first obtain the number of free blocks (denoted by x), and then we
/// generate a random number i between 1 and x. The i-th free block is the
/// result." Blocks already reserved in the open transaction are skipped by
/// re-drawing, which resolves the paper's transaction problem.
pub struct RandomAllocator {
    rng: ChaCha20Rng,
}

impl std::fmt::Debug for RandomAllocator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RandomAllocator").finish_non_exhaustive()
    }
}

impl RandomAllocator {
    /// Creates an allocator drawing from the given CSPRNG.
    pub fn new(rng: ChaCha20Rng) -> Self {
        RandomAllocator { rng }
    }

    /// Creates an allocator with a deterministic seed (tests, experiments).
    pub fn with_seed(seed: u64) -> Self {
        RandomAllocator { rng: ChaCha20Rng::from_u64_seed(seed) }
    }
}

impl Allocator for RandomAllocator {
    fn allocate(&mut self, bitmap: &Bitmap, reserved: &Bitmap) -> Option<u64> {
        let free = bitmap.free();
        if free <= reserved.allocated() {
            return None;
        }
        // Rejection-sample against the reservations; they are few relative
        // to free space in practice, so this terminates fast. Fall back to
        // linear enumeration if free space is nearly exhausted.
        for _ in 0..64 {
            let n = self.rng.next_below(free);
            let block = bitmap.nth_free(n).expect("nth_free within free count");
            if !reserved.get(block) {
                return Some(block);
            }
        }
        // Dense-reservation fallback: pick uniformly among the not-reserved
        // free blocks, enumerated in one ascending pass.
        let candidates: Vec<u64> =
            std::iter::successors(bitmap.first_free_from(0), |&b| bitmap.first_free_from(b + 1))
                .filter(|&b| !reserved.get(b))
                .collect();
        if candidates.is_empty() {
            None
        } else {
            let pick = self.rng.next_below(candidates.len() as u64) as usize;
            Some(candidates[pick])
        }
    }

    fn strategy(&self) -> AllocStrategy {
        AllocStrategy::Random
    }
}

/// The allocators as they were written against a `HashSet<u64>` of
/// reservations: the reference the bitmap versions must match pick for
/// pick.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use std::collections::HashSet;

    /// [`SequentialAllocator::allocate`] over a reservation set.
    pub(crate) fn sequential(
        cursor: &mut u64,
        bitmap: &Bitmap,
        reserved: &HashSet<u64>,
    ) -> Option<u64> {
        if bitmap.free() as usize <= reserved.len() {
            return None;
        }
        let mut from = *cursor;
        let mut wrapped = false;
        loop {
            match bitmap.first_free_from(from) {
                Some(block) if !reserved.contains(&block) => {
                    *cursor = block + 1;
                    return Some(block);
                }
                Some(block) => from = block + 1,
                None if !wrapped => {
                    wrapped = true;
                    from = 0;
                }
                None => return None,
            }
            if wrapped && from >= *cursor && bitmap.first_free_from(from).is_none() {
                return None;
            }
        }
    }

    /// [`RandomAllocator::allocate`] over a reservation set.
    pub(crate) fn random(
        rng: &mut ChaCha20Rng,
        bitmap: &Bitmap,
        reserved: &HashSet<u64>,
    ) -> Option<u64> {
        let free = bitmap.free();
        if free as usize <= reserved.len() {
            return None;
        }
        for _ in 0..64 {
            let block = bitmap.nth_free(rng.next_below(free))?;
            if !reserved.contains(&block) {
                return Some(block);
            }
        }
        let candidates: Vec<u64> =
            std::iter::successors(bitmap.first_free_from(0), |&b| bitmap.first_free_from(b + 1))
                .filter(|b| !reserved.contains(b))
                .collect();
        (!candidates.is_empty())
            .then(|| candidates[rng.next_below(candidates.len() as u64) as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// A reservation bitmap over `len` blocks with `blocks` set.
    fn reserve(len: u64, blocks: impl IntoIterator<Item = u64>) -> Bitmap {
        let mut bm = Bitmap::new(len);
        for b in blocks {
            bm.set(b);
        }
        bm
    }

    #[test]
    fn sequential_allocates_ascending() {
        // Even without bitmap marks, the roving cursor advances — matching
        // dm-thin's behaviour of not reusing an address inside one burst.
        let bitmap = Bitmap::new(100);
        let none = Bitmap::new(100);
        let mut alloc = SequentialAllocator::new();
        let picks: Vec<u64> = (0..5).map(|_| alloc.allocate(&bitmap, &none).unwrap()).collect();
        assert_eq!(picks, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn sequential_respects_bitmap_and_cursor() {
        let mut bitmap = Bitmap::new(100);
        let none = Bitmap::new(100);
        let mut alloc = SequentialAllocator::new();
        for expected in 0..10u64 {
            let b = alloc.allocate(&bitmap, &none).unwrap();
            assert_eq!(b, expected);
            bitmap.set(b);
        }
    }

    #[test]
    fn sequential_skips_reserved() {
        let bitmap = Bitmap::new(10);
        let mut alloc = SequentialAllocator::new();
        assert_eq!(alloc.allocate(&bitmap, &reserve(10, [0, 1, 2])), Some(3));
    }

    #[test]
    fn sequential_wraps_around() {
        let mut bitmap = Bitmap::new(10);
        let none = Bitmap::new(10);
        let mut alloc = SequentialAllocator::new();
        for _ in 0..10 {
            let b = alloc.allocate(&bitmap, &none).unwrap();
            bitmap.set(b);
        }
        assert_eq!(alloc.allocate(&bitmap, &none), None);
        bitmap.clear(3);
        assert_eq!(alloc.allocate(&bitmap, &none), Some(3));
    }

    #[test]
    fn random_allocates_free_nonreserved_blocks() {
        let mut bitmap = Bitmap::new(50);
        for i in 0..25 {
            bitmap.set(i * 2); // even blocks taken
        }
        let mut alloc = RandomAllocator::with_seed(1);
        let reserved = reserve(50, [1, 3, 5]);
        for _ in 0..100 {
            let b = alloc.allocate(&bitmap, &reserved).unwrap();
            assert!(b % 2 == 1, "only odd blocks are free, got {b}");
            assert!(!reserved.get(b));
        }
    }

    #[test]
    fn random_exhaustion_returns_none() {
        let mut bitmap = Bitmap::new(4);
        for i in 0..4 {
            bitmap.set(i);
        }
        let mut alloc = RandomAllocator::with_seed(2);
        assert_eq!(alloc.allocate(&bitmap, &Bitmap::new(4)), None);
    }

    #[test]
    fn random_with_everything_reserved_returns_none() {
        let bitmap = Bitmap::new(4);
        let mut alloc = RandomAllocator::with_seed(3);
        assert_eq!(alloc.allocate(&bitmap, &reserve(4, 0..4)), None);
    }

    #[test]
    fn random_dense_reservation_fallback_still_uniformish() {
        // Reserve all but 2 free blocks; the allocator must still find them.
        let bitmap = Bitmap::new(64);
        let reserved = reserve(64, 0..62);
        let mut alloc = RandomAllocator::with_seed(4);
        let mut seen = HashSet::new();
        for _ in 0..50 {
            seen.insert(alloc.allocate(&bitmap, &reserved).unwrap());
        }
        assert_eq!(seen, [62u64, 63].into_iter().collect());
    }

    #[test]
    fn dense_reservation_fallback_picks_equal_the_rank_enumeration() {
        // 320 blocks over five words, every even block committed and all
        // but two of the odd ones reserved: most allocations exhaust their
        // 64 draws and take the fallback. The reference is the fallback's
        // earlier form, which enumerated candidates by `nth_free` rank.
        let mut bitmap = Bitmap::new(320);
        for b in (0..320).step_by(2) {
            bitmap.set(b);
        }
        let reserved = reserve(320, (1..320).step_by(2).filter(|&b| b != 77 && b != 251));
        let mut fallbacks = 0;
        let mut reference = |rng: &mut ChaCha20Rng| {
            let free = bitmap.free();
            for _ in 0..64 {
                let block = bitmap.nth_free(rng.next_below(free)).unwrap();
                if !reserved.get(block) {
                    return block;
                }
            }
            fallbacks += 1;
            let candidates: Vec<u64> = (0..free)
                .filter_map(|n| bitmap.nth_free(n))
                .filter(|&b| !reserved.get(b))
                .collect();
            candidates[rng.next_below(candidates.len() as u64) as usize]
        };
        for seed in 0..6 {
            let mut alloc = RandomAllocator::with_seed(seed);
            let mut rng = ChaCha20Rng::from_u64_seed(seed);
            for _ in 0..20 {
                assert_eq!(alloc.allocate(&bitmap, &reserved), Some(reference(&mut rng)));
            }
        }
        assert!(fallbacks >= 30, "only {fallbacks} allocations took the fallback");
    }

    proptest! {
        /// Both allocators pick exactly what their `HashSet` forms pick,
        /// allocation after allocation, as reservations accumulate over a
        /// random committed bitmap and a random starting reservation set:
        /// the draws, the rejections, the dense fallback and exhaustion
        /// all agree. A high `reserve_weight` leaves few blocks free, so
        /// many cases end in the fallback and then in `None`.
        #[test]
        fn bitmap_reservations_pick_what_the_set_reference_picks(
            len in 1u64..1300,
            marks in prop::collection::vec((any::<u64>(), 0u8..10), 0..1500),
            reserve_weight in 0u8..10,
            seed in any::<u64>(),
        ) {
            let mut bitmap = Bitmap::new(len);
            let mut reserved = Bitmap::new(len);
            let mut set = HashSet::new();
            for (block, kind) in marks {
                let block = block % len;
                if kind < reserve_weight {
                    if !bitmap.get(block) {
                        reserved.set(block);
                        set.insert(block);
                    }
                } else if !reserved.get(block) {
                    bitmap.set(block);
                }
            }
            let mut sequential = SequentialAllocator::new();
            let mut random = RandomAllocator::with_seed(seed);
            let mut cursor = 0u64;
            let mut rng = ChaCha20Rng::from_u64_seed(seed);
            let (mut seq_set, mut seq_bits) = (set.clone(), reserved.clone());
            let (mut rand_set, mut rand_bits) = (set, reserved);
            for _ in 0..40 {
                let seq = sequential.allocate(&bitmap, &seq_bits);
                prop_assert_eq!(seq, reference::sequential(&mut cursor, &bitmap, &seq_set));
                let pick = random.allocate(&bitmap, &rand_bits);
                prop_assert_eq!(pick, reference::random(&mut rng, &bitmap, &rand_set));
                for (block, set, bits) in
                    [(seq, &mut seq_set, &mut seq_bits), (pick, &mut rand_set, &mut rand_bits)]
                {
                    if let Some(b) = block {
                        prop_assert!(!bitmap.get(b) && set.insert(b) && bits.set(b));
                    }
                }
            }
        }
    }

    #[test]
    fn random_spreads_across_disk() {
        // With 1000 free blocks, 100 draws should not cluster at the front
        // (that's the sequential signature the adversary exploits).
        let bitmap = Bitmap::new(1000);
        let none = Bitmap::new(1000);
        let mut alloc = RandomAllocator::with_seed(5);
        let picks: Vec<u64> = (0..100).map(|_| alloc.allocate(&bitmap, &none).unwrap()).collect();
        let in_back_half = picks.iter().filter(|&&b| b >= 500).count();
        assert!(
            (25..=75).contains(&in_back_half),
            "expected roughly half in back half, got {in_back_half}"
        );
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let bitmap = Bitmap::new(100);
        let none = Bitmap::new(100);
        let picks = |seed| {
            let mut alloc = RandomAllocator::with_seed(seed);
            (0..10).map(|_| alloc.allocate(&bitmap, &none).unwrap()).collect::<Vec<_>>()
        };
        assert_eq!(picks(7), picks(7));
        assert_ne!(picks(7), picks(8));
    }

    #[test]
    fn strategies_report_identity() {
        assert_eq!(SequentialAllocator::new().strategy(), AllocStrategy::Sequential);
        assert_eq!(RandomAllocator::with_seed(0).strategy(), AllocStrategy::Random);
    }
}
