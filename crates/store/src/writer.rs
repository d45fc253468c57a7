//! Serializing a model (canonical weights + prepacked panels) into the
//! store format.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Arc;

use lancet_tensor::{gemm, PackedTensor, Tensor};

use crate::format::{
    align_up, fnv1a, Header, PackMeta, TocEntry, DEVICE_ALL, HEADER_LEN, KIND_PACK, KIND_TENSOR,
};
use crate::StoreError;

/// Per-device prepacked panels, keyed by weight name — the same shape as
/// `lancet-serve`'s canonical pack set.
pub type StoredPacks = Vec<HashMap<String, Arc<PackedTensor>>>;

/// What [`write_store`] produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteSummary {
    /// Total file size in bytes.
    pub bytes: u64,
    /// Tensor entries written.
    pub tensors: usize,
    /// Pack entries written.
    pub packs: usize,
    /// Entries collapsed to a single replicated (`ALL`-device) payload —
    /// per-device copies the file does *not* carry.
    pub deduped: usize,
}

enum Payload {
    Tensor(Tensor),
    Pack(Arc<PackedTensor>),
}

impl Payload {
    fn words(&self) -> &[f32] {
        match self {
            Payload::Tensor(t) => t.data(),
            Payload::Pack(p) => p.panel_data(),
        }
    }
}

/// Writes `weights` (one name→tensor map per device) and `packs` (same
/// layout; may be empty or shorter than `weights`) for model `name` to
/// `path`, replacing any existing file.
///
/// Weights and packs whose bits are identical on every device are written
/// once under the `ALL` device sentinel, so replicated parameters cost one
/// payload no matter the device count. Entry order is deterministic
/// (device, then name), making the bytes reproducible for fixed input.
///
/// # Errors
///
/// [`StoreError::Io`] on filesystem failure; [`StoreError::BadToc`] if a
/// name exceeds the format's sanity bounds.
pub fn write_store(
    path: &Path,
    name: &str,
    weights: &[HashMap<String, Tensor>],
    packs: &StoredPacks,
) -> Result<WriteSummary, StoreError> {
    let devices = weights.len();
    if name.len() > 4096 {
        return Err(StoreError::BadToc(format!("model name length {} implausible", name.len())));
    }

    // Collect entries: replicated payloads (bit-identical on every
    // device) dedupe to one ALL entry.
    let mut entries: Vec<(TocEntry, Payload)> = Vec::new();
    let mut summary = WriteSummary { bytes: 0, tensors: 0, packs: 0, deduped: 0 };

    let mut tensor_names: Vec<&String> = weights.iter().flat_map(|m| m.keys()).collect();
    tensor_names.sort();
    tensor_names.dedup();
    for wname in tensor_names {
        if wname.len() > 4096 {
            return Err(StoreError::BadToc(format!(
                "weight name length {} implausible",
                wname.len()
            )));
        }
        let on_all: Vec<Option<&Tensor>> = weights.iter().map(|m| m.get(wname)).collect();
        let replicated = devices > 0
            && on_all.iter().all(|t| t.is_some())
            && on_all.windows(2).all(|w| {
                let (a, b) = (w[0].unwrap(), w[1].unwrap());
                a.shape() == b.shape() && bits_equal(a.data(), b.data())
            });
        if replicated {
            let t = on_all[0].unwrap();
            if devices > 1 {
                summary.deduped += devices - 1;
            }
            summary.tensors += 1;
            entries.push((tensor_entry(wname, DEVICE_ALL, t), Payload::Tensor(t.clone())));
        } else {
            for (d, t) in on_all.iter().enumerate() {
                if let Some(t) = t {
                    summary.tensors += 1;
                    entries.push((tensor_entry(wname, d as u32, t), Payload::Tensor((*t).clone())));
                }
            }
        }
    }

    let mut pack_names: Vec<&String> = packs.iter().flat_map(|m| m.keys()).collect();
    pack_names.sort();
    pack_names.dedup();
    for pname in pack_names {
        let on_all: Vec<Option<&Arc<PackedTensor>>> = packs.iter().map(|m| m.get(pname)).collect();
        let replicated = !packs.is_empty()
            && packs.len() == devices
            && on_all.iter().all(|p| p.is_some())
            && on_all.windows(2).all(|w| {
                let (a, b) = (w[0].unwrap(), w[1].unwrap());
                Arc::ptr_eq(a, b) || bits_equal(a.panel_data(), b.panel_data())
            });
        if replicated {
            let p = on_all[0].unwrap();
            if devices > 1 {
                summary.deduped += devices - 1;
            }
            summary.packs += 1;
            entries.push((pack_entry(pname, DEVICE_ALL, p), Payload::Pack(Arc::clone(p))));
        } else {
            for (d, p) in on_all.iter().enumerate() {
                if let Some(p) = p {
                    summary.packs += 1;
                    entries.push((pack_entry(pname, d as u32, p), Payload::Pack(Arc::clone(p))));
                }
            }
        }
    }

    // Lay out: header | TOC (name preamble + entries) | data (aligned).
    let mut toc_len = 4 + name.len();
    for (e, _) in &entries {
        toc_len += e.encoded_len();
    }
    let data_off = align_up((HEADER_LEN + toc_len) as u64);
    let mut cursor = data_off;
    for (e, p) in &mut entries {
        cursor = align_up(cursor);
        e.payload_off = cursor;
        e.payload_words = p.words().len() as u64;
        cursor += 4 * e.payload_words;
    }
    let file_len = align_up(cursor);
    let data_len = file_len - data_off;

    // Serialize the TOC and data section, then the header over them.
    let mut toc = Vec::with_capacity(toc_len);
    toc.extend_from_slice(&(name.len() as u32).to_le_bytes());
    toc.extend_from_slice(name.as_bytes());
    for (e, _) in &entries {
        e.write(&mut toc);
    }
    debug_assert_eq!(toc.len(), toc_len);

    let mut data = vec![0u8; data_len as usize];
    for (e, p) in &entries {
        let at = (e.payload_off - data_off) as usize;
        let words = p.words();
        for (i, w) in words.iter().enumerate() {
            data[at + 4 * i..at + 4 * i + 4].copy_from_slice(&w.to_le_bytes());
        }
    }

    let header = Header {
        devices: devices as u32,
        entries: entries.len() as u32,
        toc_off: HEADER_LEN as u64,
        toc_len: toc_len as u64,
        data_off,
        data_len,
        toc_checksum: fnv1a(&toc),
        data_checksum: fnv1a(&data),
    };

    let mut out = BufWriter::new(File::create(path)?);
    out.write_all(&header.to_bytes())?;
    out.write_all(&toc)?;
    out.write_all(&vec![0u8; (data_off as usize) - HEADER_LEN - toc_len])?;
    out.write_all(&data)?;
    out.flush()?;
    summary.bytes = file_len;
    Ok(summary)
}

/// Bit-exact slice comparison (distinguishes `0.0`/`-0.0`, treats equal
/// NaN bit patterns as equal): the dedupe predicate must be exactly the
/// "loads identically" predicate.
fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn tensor_entry(name: &str, device: u32, t: &Tensor) -> TocEntry {
    TocEntry {
        kind: KIND_TENSOR,
        device,
        name: name.to_string(),
        dims: t.shape().iter().map(|&d| d as u64).collect(),
        payload_off: 0,
        payload_words: 0,
        pack: None,
    }
}

fn pack_entry(name: &str, device: u32, p: &PackedTensor) -> TocEntry {
    TocEntry {
        kind: KIND_PACK,
        device,
        name: name.to_string(),
        dims: p.src_shape().iter().map(|&d| d as u64).collect(),
        payload_off: 0,
        payload_words: 0,
        pack: Some(PackMeta {
            batch: p.batch() as u64,
            k: p.k() as u64,
            n: p.n() as u64,
            mc: gemm::MC as u32,
            kc: gemm::KC as u32,
            nc: gemm::NC as u32,
            transposed: p.transposed(),
        }),
    }
}
