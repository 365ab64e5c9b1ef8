//! Pool metadata: on-disk format and the adversary-visible view.
//!
//! The paper's storage layout (Fig. 3) keeps "the information of virtual
//! volumes, e.g. the global bitmap, the sizes and mappings of virtual
//! volumes" in a metadata area at a **known location** that the adversary
//! can read (§IV-B: "the system keeps the metadata in a known location and
//! the adversary can have access to them"). Deniability must therefore not
//! depend on hiding this structure — only on the hidden volume's metadata
//! being indistinguishable from a dummy volume's.
//!
//! Checkpoints are crash-consistent via A/B shadow areas: the payload is
//! written to the inactive half, then the superblock (which names the
//! active half and transaction id, and carries a SHA-256 of the payload)
//! is written last. Between checkpoints, commits append checksummed delta
//! records to the journal region (`crate::journal`); the superblock names
//! the committed journal extent, so a torn commit — journal blocks that
//! landed without their superblock — rolls back to the previous
//! transaction on replay. Mappings are serialized as run-length extents
//! (`virt_begin, data_begin, len`), so sequential traffic costs a handful
//! of triples instead of an entry per block.

use crate::bitmap::Bitmap;
use crate::extent::{Extent, ExtentMap};
use mobiceal_blockdev::BlockDeviceError;
use std::collections::BTreeMap;

/// Magic identifying a MobiCeal-thin superblock.
pub const SUPERBLOCK_MAGIC: &[u8; 8] = b"MCTHNP02";

/// On-disk version understood by this implementation (2: extent-based
/// mappings, journal region between superblock and shadow halves).
pub const FORMAT_VERSION: u32 = 2;

/// Per-volume metadata as persisted and as visible to the adversary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VolumeMeta {
    /// Volume identifier (V1 = public in MobiCeal's convention).
    pub id: u32,
    /// Provisioned (virtual) size in blocks.
    pub virtual_blocks: u64,
    /// virtual block → physical block, serialized as run-length extents.
    pub mappings: ExtentMap,
}

/// Everything stored in the metadata area, decoded.
///
/// Handing this to the adversary models its full metadata access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetadataView {
    /// Transaction id of the commit this view reflects.
    pub transaction_id: u64,
    /// The global free-space bitmap.
    pub bitmap: Bitmap,
    /// All volumes, by id.
    pub volumes: BTreeMap<u32, VolumeMeta>,
}

/// Decodes a little-endian `u32` from an exact-length field, surfacing a
/// short slice as corrupt metadata instead of panicking.
fn le_u32(bytes: &[u8]) -> Result<u32, BlockDeviceError> {
    let arr = bytes
        .try_into()
        .map_err(|_| BlockDeviceError::CorruptMetadata { detail: "short u32 field".into() })?;
    Ok(u32::from_le_bytes(arr))
}

/// [`le_u32`] for `u64` fields.
fn le_u64(bytes: &[u8]) -> Result<u64, BlockDeviceError> {
    let arr = bytes
        .try_into()
        .map_err(|_| BlockDeviceError::CorruptMetadata { detail: "short u64 field".into() })?;
    Ok(u64::from_le_bytes(arr))
}

/// Appends the checkpoint payload for `transaction_id`, `bitmap` and
/// `(id, virtual_blocks, mappings)` per volume (ascending id) to `out`.
/// The one encoder behind [`MetadataView::to_bytes`] and the pool's
/// checkpoint, which hands it the mapping tables it holds locked instead
/// of cloning them into a view.
pub(crate) fn encode_payload<'a, I>(
    transaction_id: u64,
    bitmap: &Bitmap,
    volumes: I,
    out: &mut Vec<u8>,
) where
    I: ExactSizeIterator<Item = (u32, u64, &'a ExtentMap)> + Clone,
{
    let bm = bitmap.to_bytes();
    // Every run covers at least one mapping, so one triple per mapped
    // block bounds a volume's extent bytes without deriving its runs.
    let volume_bytes: usize =
        volumes.clone().map(|(_, _, mappings)| 4 + 8 + 8 + 24 * mappings.len()).sum();
    out.reserve(8 + 8 + bm.len() + 4 + volume_bytes);
    out.extend_from_slice(&transaction_id.to_le_bytes());
    out.extend_from_slice(&(bm.len() as u64).to_le_bytes());
    out.extend_from_slice(&bm);
    out.extend_from_slice(&(volumes.len() as u32).to_le_bytes());
    for (id, virtual_blocks, mappings) in volumes {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&virtual_blocks.to_le_bytes());
        // The runs are derived in one scan: write them, counting, then
        // fill in the count they follow.
        let count_at = out.len();
        out.extend_from_slice(&0u64.to_le_bytes());
        let mut count = 0u64;
        mappings.for_each_extent(|e| {
            out.extend_from_slice(&e.virt_begin.to_le_bytes());
            out.extend_from_slice(&e.data_begin.to_le_bytes());
            out.extend_from_slice(&e.len.to_le_bytes());
            count += 1;
        });
        out[count_at..count_at + 8].copy_from_slice(&count.to_le_bytes());
    }
}

impl MetadataView {
    /// Total physical blocks mapped by volume `id` (0 if absent).
    pub fn mapped_blocks(&self, id: u32) -> u64 {
        self.volumes.get(&id).map(|v| v.mappings.len() as u64).unwrap_or(0)
    }

    /// Serializes to the on-disk payload format (extent triples per
    /// volume).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        encode_payload(
            self.transaction_id,
            &self.bitmap,
            self.volumes.values().map(|v| (v.id, v.virtual_blocks, &v.mappings)),
            &mut out,
        );
        out
    }

    /// Parses the on-disk payload format.
    ///
    /// # Errors
    ///
    /// [`BlockDeviceError::CorruptMetadata`] on any structural problem.
    pub fn from_bytes(data: &[u8]) -> Result<Self, BlockDeviceError> {
        let corrupt = |detail: &str| BlockDeviceError::CorruptMetadata { detail: detail.into() };
        let mut pos = 0usize;
        let mut take = |n: usize| -> Result<&[u8], BlockDeviceError> {
            if pos + n > data.len() {
                return Err(corrupt("truncated payload"));
            }
            let s = &data[pos..pos + n];
            pos += n;
            Ok(s)
        };
        let transaction_id = le_u64(take(8)?)?;
        let bm_len = le_u64(take(8)?)? as usize;
        let bitmap =
            Bitmap::from_bytes(take(bm_len)?).ok_or_else(|| corrupt("bad bitmap encoding"))?;
        let vol_count = le_u32(take(4)?)?;
        let mut volumes = BTreeMap::new();
        for _ in 0..vol_count {
            let id = le_u32(take(4)?)?;
            let virtual_blocks = le_u64(take(8)?)?;
            let extent_count = le_u64(take(8)?)?;
            let mut mappings = ExtentMap::new();
            let mut total = 0u64;
            for _ in 0..extent_count {
                let virt_begin = le_u64(take(8)?)?;
                let data_begin = le_u64(take(8)?)?;
                let len = le_u64(take(8)?)?;
                if len == 0 {
                    return Err(corrupt("zero-length extent"));
                }
                let virt_end = virt_begin
                    .checked_add(len)
                    .ok_or_else(|| corrupt("extent virtual range overflows"))?;
                let data_end = data_begin
                    .checked_add(len)
                    .ok_or_else(|| corrupt("extent data range overflows"))?;
                if virt_end > virtual_blocks {
                    return Err(corrupt("mapping beyond virtual size"));
                }
                if data_end > bitmap.len() {
                    return Err(corrupt("mapping beyond data device"));
                }
                mappings.insert_run(Extent { virt_begin, data_begin, len });
                total += len;
            }
            if mappings.len() as u64 != total {
                return Err(corrupt("duplicate virtual block mapping"));
            }
            if volumes.insert(id, VolumeMeta { id, virtual_blocks, mappings }).is_some() {
                return Err(corrupt("duplicate volume id"));
            }
        }
        Ok(MetadataView { transaction_id, bitmap, volumes })
    }
}

/// Superblock contents (always block 0 of the metadata device).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Superblock {
    /// Monotonic commit counter (checkpoint + replayed journal records).
    pub transaction_id: u64,
    /// Which shadow half (0 or 1) holds the checkpoint payload.
    pub active_half: u8,
    /// Byte length of the checkpoint payload in the active half.
    pub payload_len: u64,
    /// SHA-256 of the checkpoint payload.
    pub payload_digest: [u8; 32],
    /// Transaction id the checkpoint payload itself reflects. Journal
    /// records carry seqs `checkpoint_txid + 1 ..= transaction_id`.
    pub checkpoint_txid: u64,
    /// Committed journal extent in blocks (from the start of the journal
    /// region). Blocks beyond this are uncommitted appends — a torn
    /// commit — and are ignored on replay.
    pub journal_blocks: u64,
}

impl Superblock {
    /// Encodes into a metadata block (must be at least 77 bytes).
    ///
    /// # Panics
    ///
    /// Panics if `block` is too small.
    pub fn encode_into(&self, block: &mut [u8]) {
        assert!(block.len() >= 77, "superblock needs at least 77 bytes");
        block.fill(0);
        block[..8].copy_from_slice(SUPERBLOCK_MAGIC);
        block[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        block[12..20].copy_from_slice(&self.transaction_id.to_le_bytes());
        block[20] = self.active_half;
        block[21..29].copy_from_slice(&self.payload_len.to_le_bytes());
        block[29..61].copy_from_slice(&self.payload_digest);
        block[61..69].copy_from_slice(&self.checkpoint_txid.to_le_bytes());
        block[69..77].copy_from_slice(&self.journal_blocks.to_le_bytes());
    }

    /// Decodes from a metadata block.
    ///
    /// # Errors
    ///
    /// [`BlockDeviceError::CorruptMetadata`] if the magic, version or shape
    /// is wrong.
    pub fn decode(block: &[u8]) -> Result<Self, BlockDeviceError> {
        let corrupt = |detail: &str| BlockDeviceError::CorruptMetadata { detail: detail.into() };
        if block.len() < 77 {
            return Err(corrupt("superblock block too small"));
        }
        if &block[..8] != SUPERBLOCK_MAGIC {
            return Err(corrupt("bad magic"));
        }
        let version = le_u32(&block[8..12])?;
        if version != FORMAT_VERSION {
            return Err(corrupt("unsupported version"));
        }
        let transaction_id = le_u64(&block[12..20])?;
        let active_half = block[20];
        if active_half > 1 {
            return Err(corrupt("bad active half"));
        }
        let payload_len = le_u64(&block[21..29])?;
        let mut payload_digest = [0u8; 32];
        payload_digest.copy_from_slice(&block[29..61]);
        let checkpoint_txid = le_u64(&block[61..69])?;
        let journal_blocks = le_u64(&block[69..77])?;
        if checkpoint_txid > transaction_id {
            return Err(corrupt("checkpoint ahead of transaction id"));
        }
        Ok(Superblock {
            transaction_id,
            active_half,
            payload_len,
            payload_digest,
            checkpoint_txid,
            journal_blocks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_view() -> MetadataView {
        let mut bitmap = Bitmap::new(128);
        bitmap.set(3);
        bitmap.set(77);
        let mut volumes = BTreeMap::new();
        let mut m1 = ExtentMap::new();
        m1.insert(0u64, 3u64);
        volumes.insert(1, VolumeMeta { id: 1, virtual_blocks: 64, mappings: m1 });
        let mut m2 = ExtentMap::new();
        m2.insert(9u64, 77u64);
        volumes.insert(2, VolumeMeta { id: 2, virtual_blocks: 64, mappings: m2 });
        MetadataView { transaction_id: 5, bitmap, volumes }
    }

    #[test]
    fn view_roundtrip() {
        let view = sample_view();
        let back = MetadataView::from_bytes(&view.to_bytes()).unwrap();
        assert_eq!(back, view);
        assert_eq!(back.mapped_blocks(1), 1);
        assert_eq!(back.mapped_blocks(42), 0);
    }

    #[test]
    fn view_rejects_truncation() {
        let bytes = sample_view().to_bytes();
        for cut in [0, 4, 10, bytes.len() - 1] {
            assert!(MetadataView::from_bytes(&bytes[..cut]).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn view_rejects_mapping_beyond_virtual_size() {
        let mut view = sample_view();
        let vol = view.volumes.get_mut(&1).unwrap();
        vol.mappings.insert(64, 5); // virtual_blocks is 64, so index 64 is invalid
        let bytes = view.to_bytes();
        assert!(MetadataView::from_bytes(&bytes).is_err());
    }

    #[test]
    fn view_rejects_mapping_beyond_device() {
        let mut view = sample_view();
        let vol = view.volumes.get_mut(&1).unwrap();
        vol.mappings.insert(1, 999); // bitmap len is 128
        assert!(MetadataView::from_bytes(&view.to_bytes()).is_err());
    }

    #[test]
    fn sequential_mappings_serialize_as_one_extent() {
        let mut bitmap = Bitmap::new(4096);
        for p in 100..100 + 64 {
            bitmap.set(p);
        }
        let mappings: ExtentMap = (0..64u64).map(|i| (i, 100 + i)).collect();
        let mut volumes = BTreeMap::new();
        volumes.insert(1, VolumeMeta { id: 1, virtual_blocks: 4096, mappings });
        let view = MetadataView { transaction_id: 1, bitmap, volumes };
        let bytes = view.to_bytes();
        let back = MetadataView::from_bytes(&bytes).unwrap();
        assert_eq!(back, view);
        assert_eq!(back.volumes[&1].mappings.extent_count(), 1);
        // One 24-byte triple instead of 64 16-byte pairs.
        let per_volume = 4 + 8 + 8 + 24;
        let bm = view.bitmap.to_bytes().len();
        assert_eq!(bytes.len(), 8 + 8 + bm + 4 + per_volume);
    }

    #[test]
    fn huge_virtual_size_decodes_to_one_page_or_a_typed_error() {
        // A corrupt size and one one-block extent at the top of the
        // address space: the decoder must build the one page that extent
        // touches, never a table dense over `virtual_blocks`.
        let mut bitmap = Bitmap::new(128);
        bitmap.set(5);
        let mappings: ExtentMap = [(u64::MAX - 3, 5u64)].into_iter().collect();
        let mut volumes = BTreeMap::new();
        volumes.insert(1, VolumeMeta { id: 1, virtual_blocks: u64::MAX, mappings });
        let view = MetadataView { transaction_id: 3, bitmap, volumes };
        let bytes = view.to_bytes();
        let back = MetadataView::from_bytes(&bytes).unwrap();
        assert_eq!(back, view);
        assert_eq!(back.volumes[&1].mappings.page_count(), 1);
        assert_eq!(back.volumes[&1].mappings.get(&(u64::MAX - 3)), Some(5));

        // The extent triple is the last 24 bytes, its count the 8 before.
        let triple = bytes.len() - 24;
        let mut long = bytes.clone();
        long[triple + 16..].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            MetadataView::from_bytes(&long),
            Err(BlockDeviceError::CorruptMetadata { .. })
        ));
        let mut many = bytes.clone();
        many[triple - 8..triple].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            MetadataView::from_bytes(&many),
            Err(BlockDeviceError::CorruptMetadata { .. })
        ));
    }

    #[test]
    fn superblock_roundtrip() {
        let sb = Superblock {
            transaction_id: 42,
            active_half: 1,
            payload_len: 1234,
            payload_digest: [7u8; 32],
            checkpoint_txid: 40,
            journal_blocks: 3,
        };
        let mut block = vec![0u8; 512];
        sb.encode_into(&mut block);
        assert_eq!(Superblock::decode(&block).unwrap(), sb);
    }

    #[test]
    fn superblock_rejects_corruption() {
        let sb = Superblock {
            transaction_id: 1,
            active_half: 0,
            payload_len: 10,
            payload_digest: [0u8; 32],
            checkpoint_txid: 1,
            journal_blocks: 0,
        };
        let mut block = vec![0u8; 512];
        sb.encode_into(&mut block);

        let mut bad_magic = block.clone();
        bad_magic[0] ^= 0xFF;
        assert!(Superblock::decode(&bad_magic).is_err());

        let mut bad_version = block.clone();
        bad_version[8] = 99;
        assert!(Superblock::decode(&bad_version).is_err());

        let mut bad_half = block.clone();
        bad_half[20] = 2;
        assert!(Superblock::decode(&bad_half).is_err());

        let mut ahead = block.clone();
        ahead[61] = 9; // checkpoint_txid 9 > transaction_id 1
        assert!(Superblock::decode(&ahead).is_err());

        assert!(Superblock::decode(&block[..10]).is_err());
    }
}
