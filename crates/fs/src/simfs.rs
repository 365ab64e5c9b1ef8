//! [`SimFs`]: an ext4-like file system.
//!
//! On-disk layout:
//!
//! ```text
//! block 0        superblock
//! blocks 1..     block bitmap
//! blocks ..      inode table (256-byte inodes, names embedded)
//! blocks ..      data region (file blocks + indirect pointer blocks)
//! ```
//!
//! Files are addressed by 10 direct pointers, one indirect and one
//! double-indirect pointer block, giving ~1 GiB per file at 4 KiB blocks.
//! The block allocator is a roving first-fit — like ext4's goal-based
//! allocator it produces spatially local writes, which is the access
//! pattern MobiCeal's random physical allocation must hide (§IV-B).
//! Metadata (superblock, bitmap, inode table) is cached in memory and
//! written back on [`FileSystem::sync`], modelling the page cache.
//!
//! Data writes and the metadata write-back each land as one vectored
//! `write_blocks` batch, so when the device below is a `DmCrypt` target the
//! whole batch is encrypted in place with no per-sector allocation — the
//! file system itself never re-buffers full-block writes. Reads go the
//! other way as one `read_blocks_to` batch straight into the buffer the
//! read returns, where dm-crypt decrypts them; the file's pieces are then
//! slid into place and its holes zeroed in that buffer.

use crate::fs_trait::{FileSystem, FsError};
use mobiceal_blockdev::{ReadDest, SharedDevice};

const MAGIC: &[u8; 8] = b"SIMFS001";
const INODE_SIZE: usize = 256;
const NAME_MAX: usize = 39;
const DIRECT_PTRS: usize = 10;

#[derive(Debug, Clone, PartialEq, Eq)]
struct Inode {
    used: bool,
    name: String,
    size: u64,
    direct: [u64; DIRECT_PTRS],
    indirect: u64,
    dindirect: u64,
}

impl Inode {
    fn empty() -> Self {
        Inode {
            used: false,
            name: String::new(),
            size: 0,
            direct: [0; DIRECT_PTRS],
            indirect: 0,
            dindirect: 0,
        }
    }

    fn encode(&self, out: &mut [u8]) {
        out.fill(0);
        out[0] = self.used as u8;
        let name = self.name.as_bytes();
        out[1] = name.len() as u8;
        out[2..2 + name.len()].copy_from_slice(name);
        out[48..56].copy_from_slice(&self.size.to_le_bytes());
        for (i, p) in self.direct.iter().enumerate() {
            out[56 + i * 8..64 + i * 8].copy_from_slice(&p.to_le_bytes());
        }
        out[136..144].copy_from_slice(&self.indirect.to_le_bytes());
        out[144..152].copy_from_slice(&self.dindirect.to_le_bytes());
    }

    fn decode(data: &[u8]) -> Result<Self, FsError> {
        let bad = |d: &str| FsError::NotFormatted { detail: d.into() };
        if data.len() < INODE_SIZE {
            return Err(bad("short inode"));
        }
        let used = match data[0] {
            0 => false,
            1 => true,
            _ => return Err(bad("bad inode kind")),
        };
        let name_len = data[1] as usize;
        if name_len > NAME_MAX {
            return Err(bad("bad inode name length"));
        }
        let name = String::from_utf8(data[2..2 + name_len].to_vec())
            .map_err(|_| bad("non-utf8 inode name"))?;
        let size = u64::from_le_bytes(data[48..56].try_into().unwrap());
        let mut direct = [0u64; DIRECT_PTRS];
        for (i, p) in direct.iter_mut().enumerate() {
            *p = u64::from_le_bytes(data[56 + i * 8..64 + i * 8].try_into().unwrap());
        }
        let indirect = u64::from_le_bytes(data[136..144].try_into().unwrap());
        let dindirect = u64::from_le_bytes(data[144..152].try_into().unwrap());
        Ok(Inode { used, name, size, direct, indirect, dindirect })
    }
}

/// An ext4-like file system over any block device. See the module docs.
pub struct SimFs {
    dev: SharedDevice,
    block_size: usize,
    total_blocks: u64,
    inode_count: u32,
    bitmap_start: u64,
    bitmap_blocks: u32,
    itable_start: u64,
    itable_blocks: u32,
    data_start: u64,
    // Cached metadata (the "page cache").
    bitmap: Vec<u8>,
    inodes: Vec<Inode>,
    alloc_cursor: u64,
    meta_dirty: bool,
    // Indirect pointer blocks, cached like ext4 keeps them in the page
    // cache; written back on sync.
    ptr_cache: std::collections::HashMap<u64, Vec<u8>>,
    ptr_dirty: std::collections::HashSet<u64>,
}

impl std::fmt::Debug for SimFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimFs")
            .field("total_blocks", &self.total_blocks)
            .field("inode_count", &self.inode_count)
            .finish_non_exhaustive()
    }
}

impl SimFs {
    /// Formats `dev` with a fresh, empty file system.
    ///
    /// Inode count defaults to 1 inode per 64 data blocks (min 64).
    ///
    /// # Errors
    ///
    /// Fails if the device is too small (needs ~16 blocks minimum) or on
    /// device errors.
    pub fn format(dev: SharedDevice) -> Result<Self, FsError> {
        let inode_count = (dev.num_blocks() / 64).clamp(64, 4096) as u32;
        Self::format_with_inodes(dev, inode_count)
    }

    /// Formats with an explicit inode budget.
    ///
    /// # Errors
    ///
    /// Fails if the device is too small for the metadata or on device
    /// errors.
    pub fn format_with_inodes(dev: SharedDevice, inode_count: u32) -> Result<Self, FsError> {
        let block_size = dev.block_size();
        if block_size < 512 {
            return Err(FsError::NotFormatted { detail: "block size below 512".into() });
        }
        let total_blocks = dev.num_blocks();
        let bitmap_blocks = (total_blocks.div_ceil(8)).div_ceil(block_size as u64) as u32;
        let inodes_per_block = (block_size / INODE_SIZE) as u32;
        let itable_blocks = inode_count.div_ceil(inodes_per_block);
        let bitmap_start = 1u64;
        let itable_start = bitmap_start + bitmap_blocks as u64;
        let data_start = itable_start + itable_blocks as u64;
        if data_start + 8 > total_blocks {
            return Err(FsError::NotFormatted { detail: "device too small".into() });
        }
        let mut fs = SimFs {
            dev,
            block_size,
            total_blocks,
            inode_count,
            bitmap_start,
            bitmap_blocks,
            itable_start,
            itable_blocks,
            data_start,
            bitmap: vec![0u8; bitmap_blocks as usize * block_size],
            inodes: vec![Inode::empty(); inode_count as usize],
            alloc_cursor: data_start,
            meta_dirty: true,
            ptr_cache: std::collections::HashMap::new(),
            ptr_dirty: std::collections::HashSet::new(),
        };
        // Reserve the metadata region in the bitmap.
        for b in 0..data_start {
            fs.bitmap_set(b, true);
        }
        fs.sync()?;
        Ok(fs)
    }

    /// Mounts an existing file system.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFormatted`] if the superblock is invalid, or device
    /// errors.
    pub fn mount(dev: SharedDevice) -> Result<Self, FsError> {
        let bad = |d: &str| FsError::NotFormatted { detail: d.into() };
        let sb = dev.read_block(0)?;
        if &sb[..8] != MAGIC {
            return Err(bad("bad magic"));
        }
        let block_size = u32::from_le_bytes(sb[8..12].try_into().unwrap()) as usize;
        if block_size != dev.block_size() {
            return Err(bad("block size mismatch"));
        }
        let total_blocks = u64::from_le_bytes(sb[12..20].try_into().unwrap());
        if total_blocks != dev.num_blocks() {
            return Err(bad("geometry mismatch"));
        }
        let inode_count = u32::from_le_bytes(sb[20..24].try_into().unwrap());
        let bitmap_start = u64::from_le_bytes(sb[24..32].try_into().unwrap());
        let bitmap_blocks = u32::from_le_bytes(sb[32..36].try_into().unwrap());
        let itable_start = u64::from_le_bytes(sb[36..44].try_into().unwrap());
        let itable_blocks = u32::from_le_bytes(sb[44..48].try_into().unwrap());
        let data_start = u64::from_le_bytes(sb[48..56].try_into().unwrap());
        if data_start > total_blocks {
            return Err(bad("data region beyond device"));
        }
        // Load bitmap and inode table with one vectored read each.
        let bitmap_indices: Vec<u64> =
            (0..bitmap_blocks as u64).map(|i| bitmap_start + i).collect();
        // The device sizes both buffers once the batch is known to be in
        // range, so a corrupt superblock cannot ask for a huge allocation.
        let mut bitmap = Vec::new();
        dev.read_blocks_to(&bitmap_indices, ReadDest::Append(&mut bitmap))?;
        let inodes_per_block = block_size / INODE_SIZE;
        let itable_indices: Vec<u64> =
            (0..itable_blocks as u64).map(|i| itable_start + i).collect();
        let mut itable = Vec::new();
        dev.read_blocks_to(&itable_indices, ReadDest::Append(&mut itable))?;
        let mut inodes = Vec::with_capacity(inode_count as usize);
        'outer: for block in itable.chunks(block_size) {
            for j in 0..inodes_per_block {
                if inodes.len() == inode_count as usize {
                    break 'outer;
                }
                inodes.push(Inode::decode(&block[j * INODE_SIZE..(j + 1) * INODE_SIZE])?);
            }
        }
        Ok(SimFs {
            dev,
            block_size,
            total_blocks,
            inode_count,
            bitmap_start,
            bitmap_blocks,
            itable_start,
            itable_blocks,
            data_start,
            bitmap,
            inodes,
            alloc_cursor: data_start,
            meta_dirty: false,
            ptr_cache: std::collections::HashMap::new(),
            ptr_dirty: std::collections::HashSet::new(),
        })
    }

    /// Blocks available for new data.
    pub fn free_blocks(&self) -> u64 {
        (self.data_start..self.total_blocks).filter(|&b| !self.bitmap_get(b)).count() as u64
    }

    /// The device's block size.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    fn bitmap_get(&self, block: u64) -> bool {
        self.bitmap[(block / 8) as usize] & (1 << (block % 8)) != 0
    }

    fn bitmap_set(&mut self, block: u64, val: bool) {
        let byte = (block / 8) as usize;
        let mask = 1u8 << (block % 8);
        if val {
            self.bitmap[byte] |= mask;
        } else {
            self.bitmap[byte] &= !mask;
        }
        self.meta_dirty = true;
    }

    /// Roving first-fit allocation: search from the cursor, wrap once.
    fn alloc_block(&mut self) -> Result<u64, FsError> {
        let ranges = [(self.alloc_cursor, self.total_blocks), (self.data_start, self.alloc_cursor)];
        for (lo, hi) in ranges {
            for b in lo..hi {
                if !self.bitmap_get(b) {
                    self.bitmap_set(b, true);
                    self.alloc_cursor = b + 1;
                    return Ok(b);
                }
            }
        }
        Err(FsError::NoSpace)
    }

    fn free_block(&mut self, block: u64) {
        debug_assert!(block >= self.data_start);
        self.bitmap_set(block, false);
    }

    fn find_inode(&self, name: &str) -> Option<usize> {
        self.inodes.iter().position(|i| i.used && i.name == name)
    }

    fn ptrs_per_block(&self) -> u64 {
        (self.block_size / 8) as u64
    }

    fn max_file_blocks(&self) -> u64 {
        DIRECT_PTRS as u64 + self.ptrs_per_block() + self.ptrs_per_block() * self.ptrs_per_block()
    }

    fn ptr_block_mut(&mut self, ptr_block: u64) -> Result<&mut Vec<u8>, FsError> {
        if !self.ptr_cache.contains_key(&ptr_block) {
            let block = self.dev.read_block(ptr_block)?;
            self.ptr_cache.insert(ptr_block, block);
        }
        Ok(self.ptr_cache.get_mut(&ptr_block).expect("just inserted"))
    }

    fn read_ptr(&mut self, ptr_block: u64, slot: u64) -> Result<u64, FsError> {
        let block = self.ptr_block_mut(ptr_block)?;
        let off = slot as usize * 8;
        Ok(u64::from_le_bytes(block[off..off + 8].try_into().unwrap()))
    }

    fn write_ptr(&mut self, ptr_block: u64, slot: u64, value: u64) -> Result<(), FsError> {
        let block = self.ptr_block_mut(ptr_block)?;
        let off = slot as usize * 8;
        block[off..off + 8].copy_from_slice(&value.to_le_bytes());
        self.ptr_dirty.insert(ptr_block);
        self.meta_dirty = true;
        Ok(())
    }

    /// Registers a freshly allocated, zeroed pointer block in the cache.
    fn fresh_ptr_block(&mut self, ptr_block: u64) {
        self.ptr_cache.insert(ptr_block, vec![0u8; self.block_size]);
        self.ptr_dirty.insert(ptr_block);
        self.meta_dirty = true;
    }

    /// Physical block backing file-block `fbn`, allocating structure if
    /// `allocate` and the slot is a hole. Returns 0 for unallocated holes
    /// when not allocating.
    fn map_block(&mut self, ino: usize, fbn: u64, allocate: bool) -> Result<u64, FsError> {
        let p = self.ptrs_per_block();
        if fbn < DIRECT_PTRS as u64 {
            let cur = self.inodes[ino].direct[fbn as usize];
            if cur != 0 || !allocate {
                return Ok(cur);
            }
            let b = self.alloc_block()?;
            self.inodes[ino].direct[fbn as usize] = b;
            self.meta_dirty = true;
            return Ok(b);
        }
        let fbn1 = fbn - DIRECT_PTRS as u64;
        if fbn1 < p {
            let mut ind = self.inodes[ino].indirect;
            if ind == 0 {
                if !allocate {
                    return Ok(0);
                }
                ind = self.alloc_block()?;
                self.fresh_ptr_block(ind);
                self.inodes[ino].indirect = ind;
                self.meta_dirty = true;
            }
            let cur = self.read_ptr(ind, fbn1)?;
            if cur != 0 || !allocate {
                return Ok(cur);
            }
            let b = self.alloc_block()?;
            self.write_ptr(ind, fbn1, b)?;
            return Ok(b);
        }
        let fbn2 = fbn1 - p;
        if fbn2 >= p * p {
            return Err(FsError::FileTooLarge);
        }
        let mut dind = self.inodes[ino].dindirect;
        if dind == 0 {
            if !allocate {
                return Ok(0);
            }
            dind = self.alloc_block()?;
            self.fresh_ptr_block(dind);
            self.inodes[ino].dindirect = dind;
            self.meta_dirty = true;
        }
        let (outer, inner) = (fbn2 / p, fbn2 % p);
        let mut mid = self.read_ptr(dind, outer)?;
        if mid == 0 {
            if !allocate {
                return Ok(0);
            }
            mid = self.alloc_block()?;
            self.fresh_ptr_block(mid);
            self.write_ptr(dind, outer, mid)?;
        }
        let cur = self.read_ptr(mid, inner)?;
        if cur != 0 || !allocate {
            return Ok(cur);
        }
        let b = self.alloc_block()?;
        self.write_ptr(mid, inner, b)?;
        Ok(b)
    }

    fn release_ptr_block(&mut self, block: u64) {
        self.ptr_cache.remove(&block);
        self.ptr_dirty.remove(&block);
        self.free_block(block);
    }

    fn release_file_blocks(&mut self, ino: usize) -> Result<(), FsError> {
        let inode = self.inodes[ino].clone();
        for &b in inode.direct.iter().filter(|&&b| b != 0) {
            self.free_block(b);
        }
        let p = self.ptrs_per_block();
        if inode.indirect != 0 {
            for slot in 0..p {
                let b = self.read_ptr(inode.indirect, slot)?;
                if b != 0 {
                    self.free_block(b);
                }
            }
            self.release_ptr_block(inode.indirect);
        }
        if inode.dindirect != 0 {
            for outer in 0..p {
                let mid = self.read_ptr(inode.dindirect, outer)?;
                if mid != 0 {
                    for inner in 0..p {
                        let b = self.read_ptr(mid, inner)?;
                        if b != 0 {
                            self.free_block(b);
                        }
                    }
                    self.release_ptr_block(mid);
                }
            }
            self.release_ptr_block(inode.dindirect);
        }
        Ok(())
    }
}

/// Turns `out`, which holds the whole blocks of `pieces`' mapped pieces
/// back to back, into the `len` bytes the pieces describe in order: each
/// mapped piece's `take` bytes from `in_block` into its block, each hole
/// (`phys == 0`) as `take` zeros. Pieces that move toward the front go
/// first, front to back, and the rest back to front, so no piece is
/// overwritten before it has moved. An aligned read with no holes moves
/// nothing.
fn place_pieces(out: &mut Vec<u8>, pieces: &[(u64, usize, usize)], block_size: usize, len: usize) {
    if out.len() < len {
        out.resize(len, 0); // only holes push the file's bytes past the blocks read
    }
    let (mut at, mut block) = (0usize, 0usize);
    for &(phys, in_block, take) in pieces {
        if phys != 0 {
            let from = block * block_size + in_block;
            if at < from {
                out.copy_within(from..from + take, at);
            }
            block += 1;
        }
        at += take;
    }
    for &(phys, in_block, take) in pieces.iter().rev() {
        at -= take;
        if phys == 0 {
            out[at..at + take].fill(0);
        } else {
            block -= 1;
            let from = block * block_size + in_block;
            if at > from {
                out.copy_within(from..from + take, at);
            }
        }
    }
    out.truncate(len);
}

impl FileSystem for SimFs {
    fn create(&mut self, name: &str) -> Result<(), FsError> {
        if name.len() > NAME_MAX {
            return Err(FsError::NameTooLong { name: name.into() });
        }
        if self.find_inode(name).is_some() {
            return Err(FsError::AlreadyExists { name: name.into() });
        }
        let slot = self.inodes.iter().position(|i| !i.used).ok_or(FsError::NoSpace)?;
        self.inodes[slot] = Inode { used: true, name: name.to_string(), ..Inode::empty() };
        self.meta_dirty = true;
        Ok(())
    }

    fn write(&mut self, name: &str, offset: u64, data: &[u8]) -> Result<(), FsError> {
        let ino = self.find_inode(name).ok_or_else(|| FsError::NotFound { name: name.into() })?;
        let bs = self.block_size as u64;
        let end = offset + data.len() as u64;
        if end.div_ceil(bs) > self.max_file_blocks() {
            return Err(FsError::FileTooLarge);
        }
        // Pass 1: resolve/allocate the physical block of every piece. On
        // NoSpace mid-file the already-mapped prefix still lands on the
        // device (below) before the error surfaces, like the sequential
        // loop; the file size only grows on full success.
        struct Piece {
            phys: u64,
            in_block: usize,
            data_off: usize,
            take: usize,
            was_mapped: bool,
        }
        let mut pieces: Vec<Piece> = Vec::with_capacity(data.len() / self.block_size + 2);
        let mut alloc_error = None;
        let mut written = 0usize;
        while written < data.len() {
            let pos = offset + written as u64;
            let fbn = pos / bs;
            let in_block = (pos % bs) as usize;
            let take = (self.block_size - in_block).min(data.len() - written);
            // Any failure resolving this piece (probe read of a pointer
            // block, allocation) still lands the resolved prefix below,
            // exactly as the sequential loop had already written it.
            let resolved = self
                .map_block(ino, fbn, false)
                .and_then(|cur| self.map_block(ino, fbn, true).map(|phys| (phys, cur != 0)));
            match resolved {
                Ok((phys, was_mapped)) => {
                    pieces.push(Piece { phys, in_block, data_off: written, take, was_mapped })
                }
                Err(e) => {
                    alloc_error = Some(e);
                    break;
                }
            }
            written += take;
        }
        // Pass 2: one vectored read for every partial block that needs
        // read-modify-write.
        let rmw_phys: Vec<u64> = pieces
            .iter()
            .filter(|p| p.take != self.block_size && p.was_mapped)
            .map(|p| p.phys)
            .collect();
        let mut rmw_bufs = self.dev.read_blocks(&rmw_phys)?.into_iter();
        // Pass 3: assemble the batch and land it in one vectored write.
        let buffers: Vec<Option<Vec<u8>>> = pieces
            .iter()
            .map(|p| {
                if p.take == self.block_size {
                    None // full block: write the caller's bytes in place
                } else {
                    // Partial block: splice into the old contents, or into
                    // zeros for a fresh block (never read back whatever a
                    // previously freed block contained).
                    let mut block = if p.was_mapped {
                        rmw_bufs.next().expect("one buffer per rmw piece")
                    } else {
                        vec![0u8; self.block_size]
                    };
                    block[p.in_block..p.in_block + p.take]
                        .copy_from_slice(&data[p.data_off..p.data_off + p.take]);
                    Some(block)
                }
            })
            .collect();
        let writes: Vec<(u64, &[u8])> = pieces
            .iter()
            .zip(&buffers)
            .map(|(p, buf)| match buf {
                Some(block) => (p.phys, block.as_slice()),
                None => (p.phys, &data[p.data_off..p.data_off + p.take]),
            })
            .collect();
        self.dev.write_blocks(&writes)?;
        if let Some(e) = alloc_error {
            return Err(e);
        }
        if end > self.inodes[ino].size {
            self.inodes[ino].size = end;
            self.meta_dirty = true;
        }
        Ok(())
    }

    fn read(&mut self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>, FsError> {
        let ino = self.find_inode(name).ok_or_else(|| FsError::NotFound { name: name.into() })?;
        let size = self.inodes[ino].size;
        if offset > size {
            return Err(FsError::BadOffset { offset, size });
        }
        let len = len.min((size - offset) as usize);
        let bs = self.block_size as u64;
        // Pass 1: resolve every piece's mapping (0 = hole).
        let mut pieces: Vec<(u64, usize, usize)> = Vec::new(); // (phys, in_block, take)
        let mut resolved = 0usize;
        while resolved < len {
            let pos = offset + resolved as u64;
            let fbn = pos / bs;
            let in_block = (pos % bs) as usize;
            let take = (self.block_size - in_block).min(len - resolved);
            let phys = self.map_block(ino, fbn, false)?;
            pieces.push((phys, in_block, take));
            resolved += take;
        }
        // Pass 2: one vectored read puts every mapped piece's whole block
        // in `out`, back to back.
        let mapped: Vec<u64> = pieces.iter().filter(|p| p.0 != 0).map(|p| p.0).collect();
        let mut out = Vec::with_capacity(len.max(mapped.len() * self.block_size));
        self.dev.read_blocks_to(&mapped, ReadDest::Append(&mut out))?;
        // Pass 3: slide the pieces into place and zero the holes.
        place_pieces(&mut out, &pieces, self.block_size, len);
        Ok(out)
    }

    fn file_size(&self, name: &str) -> Result<u64, FsError> {
        let ino = self.find_inode(name).ok_or_else(|| FsError::NotFound { name: name.into() })?;
        Ok(self.inodes[ino].size)
    }

    fn delete(&mut self, name: &str) -> Result<(), FsError> {
        let ino = self.find_inode(name).ok_or_else(|| FsError::NotFound { name: name.into() })?;
        self.release_file_blocks(ino)?;
        self.inodes[ino] = Inode::empty();
        self.meta_dirty = true;
        Ok(())
    }

    fn list(&self) -> Vec<String> {
        self.inodes.iter().filter(|i| i.used).map(|i| i.name.clone()).collect()
    }

    fn sync(&mut self) -> Result<(), FsError> {
        if !self.meta_dirty {
            return Ok(());
        }
        // Superblock.
        let mut sb = vec![0u8; self.block_size];
        sb[..8].copy_from_slice(MAGIC);
        sb[8..12].copy_from_slice(&(self.block_size as u32).to_le_bytes());
        sb[12..20].copy_from_slice(&self.total_blocks.to_le_bytes());
        sb[20..24].copy_from_slice(&self.inode_count.to_le_bytes());
        sb[24..32].copy_from_slice(&self.bitmap_start.to_le_bytes());
        sb[32..36].copy_from_slice(&self.bitmap_blocks.to_le_bytes());
        sb[36..44].copy_from_slice(&self.itable_start.to_le_bytes());
        sb[44..48].copy_from_slice(&self.itable_blocks.to_le_bytes());
        sb[48..56].copy_from_slice(&self.data_start.to_le_bytes());
        // The whole metadata write-back — superblock, bitmap, inode table
        // and dirty indirect pointer blocks — lands in one vectored write.
        let inodes_per_block = self.block_size / INODE_SIZE;
        let itable: Vec<Vec<u8>> = (0..self.itable_blocks as u64)
            .map(|i| {
                let mut block = vec![0u8; self.block_size];
                for j in 0..inodes_per_block {
                    let idx = i as usize * inodes_per_block + j;
                    if idx < self.inodes.len() {
                        self.inodes[idx].encode(&mut block[j * INODE_SIZE..(j + 1) * INODE_SIZE]);
                    }
                }
                block
            })
            .collect();
        // Keep ptr_dirty intact until the write-back lands: a failed sync
        // must leave the dirty set (and meta_dirty) in place so a retry
        // writes everything, not just the sb/bitmap/itable. Sorted, because
        // HashSet order is randomly seeded per process and the simulated
        // cost of the batch depends on block order (sequential vs random):
        // an unsorted write-back would charge different virtual time on
        // identical runs.
        let mut dirty: Vec<u64> = self.ptr_dirty.iter().copied().collect();
        dirty.sort_unstable();
        let mut writes: Vec<(u64, &[u8])> =
            Vec::with_capacity(1 + self.bitmap_blocks as usize + itable.len() + dirty.len());
        writes.push((0, sb.as_slice()));
        for i in 0..self.bitmap_blocks as u64 {
            let lo = i as usize * self.block_size;
            writes.push((self.bitmap_start + i, &self.bitmap[lo..lo + self.block_size]));
        }
        for (i, block) in itable.iter().enumerate() {
            writes.push((self.itable_start + i as u64, block.as_slice()));
        }
        for b in &dirty {
            let block = self.ptr_cache.get(b).expect("dirty block must be cached");
            writes.push((*b, block.as_slice()));
        }
        self.dev.write_blocks(&writes)?;
        self.dev.flush()?;
        self.ptr_dirty.clear();
        self.meta_dirty = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobiceal_blockdev::{BlockDevice, FaultInjection, MemDisk};
    use std::sync::Arc;

    fn fs_with(blocks: u64) -> SimFs {
        SimFs::format(Arc::new(MemDisk::with_default_timing(blocks, 4096))).unwrap()
    }

    #[test]
    fn create_write_read_roundtrip() {
        let mut fs = fs_with(256);
        fs.create("a.bin").unwrap();
        let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        fs.write("a.bin", 0, &data).unwrap();
        assert_eq!(fs.read("a.bin", 0, 10_000).unwrap(), data);
        assert_eq!(fs.file_size("a.bin").unwrap(), 10_000);
    }

    #[test]
    fn partial_and_unaligned_io() {
        let mut fs = fs_with(256);
        fs.create("f").unwrap();
        fs.write("f", 0, &[1u8; 100]).unwrap();
        fs.write("f", 50, &[2u8; 100]).unwrap(); // overlap
        let out = fs.read("f", 0, 150).unwrap();
        assert_eq!(&out[..50], &[1u8; 50][..]);
        assert_eq!(&out[50..150], &[2u8; 100][..]);
        // Cross-block unaligned write.
        fs.write("f", 4090, &[9u8; 20]).unwrap();
        assert_eq!(fs.read("f", 4090, 20).unwrap(), vec![9u8; 20]);
    }

    #[test]
    fn sparse_files_read_zeros_in_holes() {
        let mut fs = fs_with(256);
        fs.create("sparse").unwrap();
        fs.write("sparse", 100_000, b"end").unwrap();
        assert_eq!(fs.file_size("sparse").unwrap(), 100_003);
        let hole = fs.read("sparse", 5_000, 64).unwrap();
        assert_eq!(hole, vec![0u8; 64]);
        assert_eq!(fs.read("sparse", 100_000, 3).unwrap(), b"end");
    }

    #[test]
    fn large_file_through_indirect_blocks() {
        // > 10 direct blocks (40 KiB) and > indirect range to touch
        // double-indirect: indirect covers 512 blocks = 2 MiB at 4 KiB.
        let mut fs = fs_with(2048);
        fs.create("big").unwrap();
        let chunk = vec![0xCDu8; 64 * 1024];
        let total = 3 * 1024 * 1024u64; // 3 MiB
        let mut off = 0u64;
        while off < total {
            fs.write("big", off, &chunk).unwrap();
            off += chunk.len() as u64;
        }
        assert_eq!(fs.file_size("big").unwrap(), total);
        // Spot-check reads across the pointer-level boundaries.
        for probe in [0u64, 39 * 1024, 41 * 1024, 2 * 1024 * 1024 + 123_456] {
            assert_eq!(fs.read("big", probe, 16).unwrap(), vec![0xCD; 16], "probe {probe}");
        }
    }

    #[test]
    fn delete_frees_space_for_reuse() {
        let mut fs = fs_with(128);
        let before = fs.free_blocks();
        fs.create("tmp").unwrap();
        fs.write("tmp", 0, &vec![1u8; 200_000]).unwrap();
        assert!(fs.free_blocks() < before);
        fs.delete("tmp").unwrap();
        assert_eq!(fs.free_blocks(), before);
        assert!(matches!(fs.read("tmp", 0, 1), Err(FsError::NotFound { .. })));
    }

    #[test]
    fn fills_disk_then_no_space() {
        let mut fs = fs_with(64); // tiny disk
        fs.create("filler").unwrap();
        let mut off = 0u64;
        let chunk = vec![7u8; 4096];
        let err = loop {
            match fs.write("filler", off, &chunk) {
                Ok(()) => off += 4096,
                Err(e) => break e,
            }
        };
        assert_eq!(err, FsError::NoSpace);
        // Existing data still readable.
        assert_eq!(fs.read("filler", 0, 16).unwrap(), vec![7u8; 16]);
    }

    #[test]
    fn mount_after_sync_sees_files() {
        let disk = Arc::new(MemDisk::with_default_timing(256, 4096));
        let mut fs = SimFs::format(disk.clone()).unwrap();
        fs.create("persist").unwrap();
        fs.write("persist", 0, b"durable data").unwrap();
        fs.sync().unwrap();
        drop(fs);
        let mut fs2 = SimFs::mount(disk).unwrap();
        assert_eq!(fs2.list(), vec!["persist".to_string()]);
        assert_eq!(fs2.read("persist", 0, 12).unwrap(), b"durable data");
    }

    #[test]
    fn unsynced_metadata_is_lost_on_remount() {
        let disk = Arc::new(MemDisk::with_default_timing(256, 4096));
        let mut fs = SimFs::format(disk.clone()).unwrap();
        fs.create("ghost").unwrap();
        // No sync.
        drop(fs);
        let fs2 = SimFs::mount(disk).unwrap();
        assert!(fs2.list().is_empty());
    }

    #[test]
    fn failed_sync_retries_indirect_pointer_blocks() {
        // A transient device fault during sync must not lose the dirty
        // pointer-block set: the retry has to write them or remount reads
        // stale pointers.
        let disk = Arc::new(MemDisk::with_default_timing(256, 4096));
        let mut fs = SimFs::format(disk.clone()).unwrap();
        fs.create("big").unwrap();
        // Past the 10 direct pointers so an indirect pointer block exists.
        fs.write("big", 0, &vec![0x5Au8; 12 * 4096]).unwrap();
        let mut faults = FaultInjection::default();
        faults.failing_writes.insert(0); // superblock write fails
        disk.set_faults(faults);
        assert!(fs.sync().is_err());
        disk.set_faults(FaultInjection::default());
        fs.sync().unwrap(); // retry must write the pointer blocks too
        drop(fs);
        let mut fs2 = SimFs::mount(disk).unwrap();
        assert_eq!(fs2.read("big", 11 * 4096, 16).unwrap(), vec![0x5A; 16]);
    }

    #[test]
    fn mount_rejects_foreign_device() {
        let disk = Arc::new(MemDisk::with_default_timing(64, 4096));
        assert!(matches!(SimFs::mount(disk), Err(FsError::NotFormatted { .. })));
    }

    #[test]
    fn name_rules() {
        let mut fs = fs_with(128);
        let long = "x".repeat(NAME_MAX + 1);
        assert!(matches!(fs.create(&long), Err(FsError::NameTooLong { .. })));
        fs.create("dup").unwrap();
        assert!(matches!(fs.create("dup"), Err(FsError::AlreadyExists { .. })));
    }

    #[test]
    fn read_past_eof_is_error_but_short_read_ok() {
        let mut fs = fs_with(128);
        fs.create("f").unwrap();
        fs.write("f", 0, b"12345").unwrap();
        assert!(matches!(fs.read("f", 6, 1), Err(FsError::BadOffset { .. })));
        assert_eq!(fs.read("f", 3, 100).unwrap(), b"45"); // short read
        assert_eq!(fs.read("f", 5, 10).unwrap(), b""); // at EOF
    }

    #[test]
    fn many_files_create_stat_delete_churn() {
        let mut fs = fs_with(512);
        for i in 0..60 {
            fs.create(&format!("file_{i:04}")).unwrap();
            fs.write(&format!("file_{i:04}"), 0, &vec![i as u8; 1000]).unwrap();
        }
        assert_eq!(fs.list().len(), 60);
        for i in (0..60).step_by(2) {
            fs.delete(&format!("file_{i:04}")).unwrap();
        }
        assert_eq!(fs.list().len(), 30);
        for i in (1..60).step_by(2) {
            assert_eq!(fs.file_size(&format!("file_{i:04}")).unwrap(), 1000);
        }
    }

    #[test]
    fn writes_show_spatial_locality() {
        // The allocator hands out mostly-contiguous runs — the property the
        // paper's footnote 3 attributes to real file systems. Check that the
        // blocks a 40-block file occupies form one contiguous extent.
        let disk = Arc::new(MemDisk::with_default_timing(512, 4096));
        let mut fs = SimFs::format(disk.clone()).unwrap();
        let data_start = fs.data_start;
        fs.create("seq").unwrap();
        fs.write("seq", 0, &vec![1u8; 40 * 4096]).unwrap();
        fs.sync().unwrap();
        let snap = disk.snapshot();
        let touched: Vec<u64> =
            (data_start..disk.num_blocks()).filter(|&b| !snap.is_zero_block(b)).collect();
        assert!(touched.len() >= 40);
        let span = touched.last().unwrap() - touched.first().unwrap() + 1;
        assert_eq!(
            span,
            touched.len() as u64,
            "file blocks should form one contiguous extent: {touched:?}"
        );
    }

    #[test]
    fn inode_exhaustion() {
        let disk = Arc::new(MemDisk::with_default_timing(512, 4096));
        let mut fs = SimFs::format_with_inodes(disk, 4).unwrap();
        for i in 0..4 {
            fs.create(&format!("f{i}")).unwrap();
        }
        assert!(matches!(fs.create("one-too-many"), Err(FsError::NoSpace)));
    }
}
