//! Opening a store: validate the header and TOC, then hand out tensors
//! and packs that borrow the mapped pages.

use std::collections::HashMap;
use std::fs::File;
use std::io::Read;
use std::path::Path;
use std::sync::Arc;

use lancet_tensor::{gemm, PackedTensor, Tensor};

use crate::format::{fnv1a, Cursor, Header, TocEntry, DEVICE_ALL, HEADER_LEN, KIND_PACK};
use crate::mapping::FileBuf;
use crate::writer::StoredPacks;
use crate::StoreError;

/// Knobs for [`open_store_with`].
#[derive(Debug, Clone, Copy)]
pub struct OpenOptions {
    /// Map the file instead of heap-loading it (zero-copy). Default on;
    /// platforms that cannot map fall back to the heap either way.
    pub mmap: bool,
    /// Verify the data-section checksum at open. Costs a full read of the
    /// weights — O(copy), exactly what mapping avoids — so the default
    /// (off) only verifies header + TOC; turn it on for untrusted files.
    pub verify_data: bool,
}

impl Default for OpenOptions {
    fn default() -> Self {
        OpenOptions { mmap: true, verify_data: false }
    }
}

/// A model loaded from a store file. Tensors and packs borrow the backing
/// buffer ([`StoredModel::mapped`] tells whether that buffer is mapped
/// pages — shared with every other process that opened the same store —
/// or a heap fallback copy).
pub struct StoredModel {
    /// Model name recorded at pack time.
    pub name: String,
    /// Device count the weights were canonicalized for.
    pub devices: usize,
    /// Per-device canonical weights, keyed by name. Replicated entries
    /// share one storage window across devices.
    pub weights: Vec<HashMap<String, Tensor>>,
    /// Per-device prepacked GEMM panels, keyed by name (empty maps when
    /// the store carries no packs).
    pub packs: StoredPacks,
    /// Whether the backing buffer is a genuine file mapping.
    pub mapped: bool,
    /// Store file size in bytes.
    pub bytes: u64,
}

impl std::fmt::Debug for StoredModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoredModel")
            .field("name", &self.name)
            .field("devices", &self.devices)
            .field("mapped", &self.mapped)
            .field("bytes", &self.bytes)
            .finish()
    }
}

/// [`open_store_with`] under default options.
///
/// # Errors
///
/// See [`open_store_with`].
pub fn open_store(path: &Path) -> Result<StoredModel, StoreError> {
    open_store_with(path, OpenOptions::default())
}

/// Opens and validates a store file, returning tensors/packs that borrow
/// the backing buffer (mapped when possible: the zero-copy path).
///
/// Always verified: magic, version, endianness, section bounds, TOC
/// checksum, and every payload's bounds/alignment. The data checksum is
/// verified when [`OpenOptions::verify_data`] asks for it.
///
/// # Errors
///
/// Every corruption mode is a typed [`StoreError`]; no input bytes can
/// cause UB or a panic.
pub fn open_store_with(path: &Path, opts: OpenOptions) -> Result<StoredModel, StoreError> {
    // Header + TOC come from ordinary reads (they are small); only the
    // data section is served from the mapping.
    let mut file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut head = [0u8; HEADER_LEN];
    read_fully(&mut file, &mut head, file_len)?;
    let header = Header::parse(&head, file_len)?;

    if header.toc_off != HEADER_LEN as u64 {
        return Err(StoreError::BadToc(format!(
            "TOC offset {} != header length {HEADER_LEN}",
            header.toc_off
        )));
    }
    let mut toc_bytes = vec![0u8; header.toc_len as usize];
    read_fully(&mut file, &mut toc_bytes, file_len)?;
    if fnv1a(&toc_bytes) != header.toc_checksum {
        return Err(StoreError::ChecksumMismatch { section: "toc" });
    }

    let mut cur = Cursor::new(&toc_bytes);
    let name = cur.string()?;
    let mut entries = Vec::with_capacity(header.entries as usize);
    for _ in 0..header.entries {
        entries.push(TocEntry::read(&mut cur)?);
    }
    if cur.remaining() != 0 {
        return Err(StoreError::BadToc(format!("{} trailing TOC bytes", cur.remaining())));
    }

    let data_end = header.data_off + header.data_len;
    for e in &entries {
        let bytes = e.payload_words.checked_mul(4).ok_or_else(|| {
            StoreError::BadToc(format!("entry `{}` word count overflows", e.name))
        })?;
        let end = e.payload_off.checked_add(bytes).ok_or_else(|| {
            StoreError::BadToc(format!("entry `{}` payload range overflows", e.name))
        })?;
        if e.payload_off < header.data_off || end > data_end {
            return Err(StoreError::BadToc(format!(
                "entry `{}` payload [{}, {end}) outside data section",
                e.name, e.payload_off
            )));
        }
        if e.payload_off % 4 != 0 {
            return Err(StoreError::BadToc(format!(
                "entry `{}` payload offset {} not word-aligned",
                e.name, e.payload_off
            )));
        }
        if e.device != DEVICE_ALL && e.device >= header.devices.max(1) {
            return Err(StoreError::BadToc(format!(
                "entry `{}` names device {} of {}",
                e.name, e.device, header.devices
            )));
        }
        let volume: u64 = e.dims.iter().try_fold(1u64, |acc, &d| acc.checked_mul(d)).ok_or_else(
            || StoreError::BadToc(format!("entry `{}` shape volume overflows", e.name)),
        )?;
        if e.kind != KIND_PACK && volume != e.payload_words {
            return Err(StoreError::BadToc(format!(
                "entry `{}` shape volume {volume} != payload words {}",
                e.name, e.payload_words
            )));
        }
    }

    if opts.verify_data {
        let mut data = vec![0u8; header.data_len as usize];
        read_at(&mut file, header.data_off, &mut data, file_len)?;
        if fnv1a(&data) != header.data_checksum {
            return Err(StoreError::ChecksumMismatch { section: "data" });
        }
    }
    drop(file);

    let (owner, mapped) = FileBuf::open(path, opts.mmap)?;
    // The owner exposes the whole file as words; a payload at byte
    // offset `o` starts at word `o / 4` (offsets are word-aligned).
    if (owner.as_f32().len() as u64) < data_end / 4 {
        return Err(StoreError::Truncated {
            needed: data_end,
            actual: owner.as_f32().len() as u64 * 4,
        });
    }

    let devices = header.devices as usize;
    let mut weights: Vec<HashMap<String, Tensor>> = vec![HashMap::new(); devices];
    let mut packs: StoredPacks = vec![HashMap::new(); devices];
    for e in &entries {
        let word_off = (e.payload_off / 4) as usize;
        let words = e.payload_words as usize;
        let dims: Vec<usize> = e.dims.iter().map(|&d| d as usize).collect();
        if e.kind == KIND_PACK {
            let m = e.pack.as_ref().ok_or_else(|| {
                StoreError::BadToc(format!("pack entry `{}` lacks pack metadata", e.name))
            })?;
            // Panels are laid out by the GEMM's fixed blocking; ones
            // recorded under any other would be read at wrong offsets.
            let recorded = (m.mc, m.kc, m.nc);
            let fixed = (gemm::MC as u32, gemm::KC as u32, gemm::NC as u32);
            if recorded != fixed {
                return Err(StoreError::BadToc(format!(
                    "pack entry `{}` has blocking {recorded:?}, not {fixed:?}",
                    e.name
                )));
            }
            let pack = Arc::new(PackedTensor::from_shared_panels(
                Arc::clone(&owner),
                word_off,
                words,
                m.batch as usize,
                m.k as usize,
                m.n as usize,
                dims,
                m.transposed,
            )?);
            for d in devices_of(e.device, devices) {
                packs[d].insert(e.name.clone(), Arc::clone(&pack));
            }
        } else {
            let tensor = Tensor::from_shared(dims, Arc::clone(&owner), word_off, words)?;
            for d in devices_of(e.device, devices) {
                // Clones share the window (refcount bump), preserving the
                // replicated-weight sharing the writer deduplicated.
                weights[d].insert(e.name.clone(), tensor.clone());
            }
        }
    }

    Ok(StoredModel { name, devices, weights, packs, mapped, bytes: file_len })
}

fn devices_of(device: u32, devices: usize) -> std::ops::Range<usize> {
    if device == DEVICE_ALL {
        0..devices
    } else {
        device as usize..device as usize + 1
    }
}

fn read_fully(file: &mut File, buf: &mut [u8], file_len: u64) -> Result<(), StoreError> {
    file.read_exact(buf).map_err(|_| StoreError::Truncated {
        needed: buf.len() as u64,
        actual: file_len,
    })
}

fn read_at(file: &mut File, off: u64, buf: &mut [u8], file_len: u64) -> Result<(), StoreError> {
    use std::io::{Seek, SeekFrom};
    file.seek(SeekFrom::Start(off))?;
    file.read_exact(buf).map_err(|_| StoreError::Truncated {
        needed: off + buf.len() as u64,
        actual: file_len,
    })
}
