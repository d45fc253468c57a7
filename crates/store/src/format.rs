//! The on-disk layout: header, table of contents, aligned data section.
//!
//! Everything is little-endian and position-independent; payloads are
//! 64-byte aligned so a page-aligned mapping yields aligned `f32` slices
//! (and cache-line-aligned panel reads). See `docs/ARCHITECTURE.md` for
//! the layout diagram.
//!
//! ```text
//! ┌────────────────────────────────────────────────────────────┐
//! │ header (128 B): magic, version, endian tag, devices,       │
//! │   entry count, toc off/len, data off/len, toc/data FNV-1a  │
//! ├────────────────────────────────────────────────────────────┤
//! │ TOC: model name, then one entry per payload                │
//! │   (kind, device|ALL, name, dims, byte offset, word count,  │
//! │    pack metadata for panel entries)                        │
//! ├──────────────────────── pad to 64 B ───────────────────────┤
//! │ data: raw f32 words, each payload 64-byte aligned          │
//! └────────────────────────────────────────────────────────────┘
//! ```

use crate::StoreError;

/// First eight bytes of every store file.
pub const MAGIC: [u8; 8] = *b"LNCSTOR\x01";

/// Format version this crate reads and writes. Version 2 stores packed
/// panels tight (`k · n` words per slice, no panel padded to the full
/// `kc × nc` block); version 1 files used the padded layout, so their
/// panel words sit at other offsets whenever `k % kc ≠ 0` or `n % nc ≠ 0`,
/// and they are refused instead of misread.
pub const VERSION: u32 = 2;

/// Endianness canary: decodes to this value only when the file is read
/// with the same byte order it was written with.
pub const ENDIAN_TAG: u32 = 0x0A0B_0C0D;

/// Header size in bytes (fixed; trailing bytes reserved as zero).
pub const HEADER_LEN: usize = 128;

/// Alignment of the data section and of every payload within it.
pub const ALIGN: usize = 64;

/// Device sentinel marking a payload shared by all devices (replicated
/// weights are deduplicated to a single entry).
pub const DEVICE_ALL: u32 = u32::MAX;

/// Entry payload kind: a dense tensor.
pub const KIND_TENSOR: u8 = 0;

/// Entry payload kind: prepacked GEMM panels.
pub const KIND_PACK: u8 = 1;

/// Rounds `off` up to the next [`ALIGN`] boundary.
pub fn align_up(off: u64) -> u64 {
    off.div_ceil(ALIGN as u64) * ALIGN as u64
}

/// The store's integrity checksum: FNV-1a-64 over a byte slice.
/// Deterministic, dependency-free, and fast enough to cover the TOC on
/// every open (the data section is covered on demand; see
/// [`crate::OpenOptions::verify_data`]).
pub use lancet_tensor::det::fnv1a;

/// Parsed store header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Number of devices the model was canonicalized for.
    pub devices: u32,
    /// Number of TOC entries.
    pub entries: u32,
    /// Byte offset of the TOC region.
    pub toc_off: u64,
    /// Byte length of the TOC region.
    pub toc_len: u64,
    /// Byte offset of the data section (64-byte aligned).
    pub data_off: u64,
    /// Byte length of the data section.
    pub data_len: u64,
    /// FNV-1a of the TOC region.
    pub toc_checksum: u64,
    /// FNV-1a of the data section.
    pub data_checksum: u64,
}

impl Header {
    /// Serializes the header into its fixed 128-byte form.
    pub fn to_bytes(&self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[0..8].copy_from_slice(&MAGIC);
        out[8..12].copy_from_slice(&VERSION.to_le_bytes());
        out[12..16].copy_from_slice(&ENDIAN_TAG.to_le_bytes());
        out[16..20].copy_from_slice(&self.devices.to_le_bytes());
        out[20..24].copy_from_slice(&self.entries.to_le_bytes());
        out[24..32].copy_from_slice(&self.toc_off.to_le_bytes());
        out[32..40].copy_from_slice(&self.toc_len.to_le_bytes());
        out[40..48].copy_from_slice(&self.data_off.to_le_bytes());
        out[48..56].copy_from_slice(&self.data_len.to_le_bytes());
        out[56..64].copy_from_slice(&self.toc_checksum.to_le_bytes());
        out[64..72].copy_from_slice(&self.data_checksum.to_le_bytes());
        out
    }

    /// Parses and validates the fixed header: magic, version, endianness,
    /// and that the promised sections lie within `file_len`.
    pub fn parse(bytes: &[u8], file_len: u64) -> Result<Header, StoreError> {
        if bytes.len() < HEADER_LEN {
            return Err(StoreError::Truncated {
                needed: HEADER_LEN as u64,
                actual: bytes.len() as u64,
            });
        }
        if bytes[0..8] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(StoreError::WrongVersion { found: version, expected: VERSION });
        }
        let endian = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        if endian != ENDIAN_TAG {
            return Err(StoreError::BadEndianTag);
        }
        let h = Header {
            devices: u32::from_le_bytes(bytes[16..20].try_into().unwrap()),
            entries: u32::from_le_bytes(bytes[20..24].try_into().unwrap()),
            toc_off: u64::from_le_bytes(bytes[24..32].try_into().unwrap()),
            toc_len: u64::from_le_bytes(bytes[32..40].try_into().unwrap()),
            data_off: u64::from_le_bytes(bytes[40..48].try_into().unwrap()),
            data_len: u64::from_le_bytes(bytes[48..56].try_into().unwrap()),
            toc_checksum: u64::from_le_bytes(bytes[56..64].try_into().unwrap()),
            data_checksum: u64::from_le_bytes(bytes[64..72].try_into().unwrap()),
        };
        for (off, len) in [(h.toc_off, h.toc_len), (h.data_off, h.data_len)] {
            let end = off.checked_add(len).ok_or(StoreError::BadToc(
                "section range overflows u64".to_string(),
            ))?;
            if end > file_len {
                return Err(StoreError::Truncated { needed: end, actual: file_len });
            }
        }
        if !h.data_off.is_multiple_of(ALIGN as u64) {
            return Err(StoreError::BadToc(format!(
                "data section offset {} not {ALIGN}-byte aligned",
                h.data_off
            )));
        }
        Ok(h)
    }
}

/// Pack metadata carried by a [`KIND_PACK`] TOC entry — everything
/// [`lancet_tensor::PackedTensor::from_shared_panels`] needs besides the
/// panel words themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackMeta {
    /// Leading batch extent (1 for rank-2 sources).
    pub batch: u64,
    /// Contraction dimension after transpose resolution.
    pub k: u64,
    /// Output-column dimension after transpose resolution.
    pub n: u64,
    /// Cache blocking the panels were packed with: MC. Always
    /// `lancet_tensor::gemm::MC`; a reader refuses any other blocking.
    pub mc: u32,
    /// Cache blocking: KC (`gemm::KC`).
    pub kc: u32,
    /// Cache blocking: NC (`gemm::NC`).
    pub nc: u32,
    /// Whether the source was interpreted transposed while packing.
    pub transposed: bool,
}

/// One table-of-contents entry: a named payload on a device (or on all).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TocEntry {
    /// [`KIND_TENSOR`] or [`KIND_PACK`].
    pub kind: u8,
    /// Owning device ordinal, or [`DEVICE_ALL`] for replicated payloads.
    pub device: u32,
    /// Weight name (the binding key).
    pub name: String,
    /// Tensor shape — for packs, the *source* tensor's shape.
    pub dims: Vec<u64>,
    /// Absolute byte offset of the payload (64-byte aligned).
    pub payload_off: u64,
    /// Payload length in `f32` words.
    pub payload_words: u64,
    /// Present iff `kind == KIND_PACK`.
    pub pack: Option<PackMeta>,
}

impl TocEntry {
    /// Appends the entry's serialized form to `out`.
    pub fn write(&self, out: &mut Vec<u8>) {
        out.push(self.kind);
        out.extend_from_slice(&self.device.to_le_bytes());
        out.extend_from_slice(&(self.name.len() as u32).to_le_bytes());
        out.extend_from_slice(self.name.as_bytes());
        out.extend_from_slice(&(self.dims.len() as u32).to_le_bytes());
        for &d in &self.dims {
            out.extend_from_slice(&d.to_le_bytes());
        }
        out.extend_from_slice(&self.payload_off.to_le_bytes());
        out.extend_from_slice(&self.payload_words.to_le_bytes());
        if let Some(p) = &self.pack {
            out.extend_from_slice(&p.batch.to_le_bytes());
            out.extend_from_slice(&p.k.to_le_bytes());
            out.extend_from_slice(&p.n.to_le_bytes());
            out.extend_from_slice(&p.mc.to_le_bytes());
            out.extend_from_slice(&p.kc.to_le_bytes());
            out.extend_from_slice(&p.nc.to_le_bytes());
            out.push(p.transposed as u8);
        }
    }

    /// Serialized byte length of this entry.
    pub fn encoded_len(&self) -> usize {
        let base = 1 + 4 + 4 + self.name.len() + 4 + 8 * self.dims.len() + 8 + 8;
        if self.pack.is_some() {
            base + 8 * 3 + 4 * 3 + 1
        } else {
            base
        }
    }

    /// Parses one entry from `cur`, advancing it.
    pub fn read(cur: &mut Cursor<'_>) -> Result<TocEntry, StoreError> {
        let kind = cur.u8()?;
        if kind != KIND_TENSOR && kind != KIND_PACK {
            return Err(StoreError::BadToc(format!("unknown entry kind {kind}")));
        }
        let device = cur.u32()?;
        let name_len = cur.u32()? as usize;
        if name_len > 4096 {
            return Err(StoreError::BadToc(format!("entry name length {name_len} implausible")));
        }
        let name = String::from_utf8(cur.bytes(name_len)?.to_vec())
            .map_err(|_| StoreError::BadToc("entry name is not UTF-8".to_string()))?;
        let rank = cur.u32()? as usize;
        if rank > 8 {
            return Err(StoreError::BadToc(format!("entry rank {rank} implausible")));
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(cur.u64()?);
        }
        let payload_off = cur.u64()?;
        let payload_words = cur.u64()?;
        let pack = if kind == KIND_PACK {
            Some(PackMeta {
                batch: cur.u64()?,
                k: cur.u64()?,
                n: cur.u64()?,
                mc: cur.u32()?,
                kc: cur.u32()?,
                nc: cur.u32()?,
                transposed: cur.u8()? != 0,
            })
        } else {
            None
        };
        Ok(TocEntry { kind, device, name, dims, payload_off, payload_words, pack })
    }
}

/// Bounds-checked little-endian reader over the TOC region.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor over `buf`, starting at its beginning.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Truncated {
                needed: (self.pos + n) as u64,
                actual: self.buf.len() as u64,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Reads a length-prefixed UTF-8 string (the model-name preamble).
    pub fn string(&mut self) -> Result<String, StoreError> {
        let len = self.u32()? as usize;
        if len > 4096 {
            return Err(StoreError::BadToc(format!("string length {len} implausible")));
        }
        String::from_utf8(self.bytes(len)?.to_vec())
            .map_err(|_| StoreError::BadToc("string is not UTF-8".to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips() {
        let h = Header {
            devices: 4,
            entries: 17,
            toc_off: 128,
            toc_len: 1000,
            data_off: 1152,
            data_len: 4096,
            toc_checksum: 0xDEAD,
            data_checksum: 0xBEEF,
        };
        let bytes = h.to_bytes();
        let parsed = Header::parse(&bytes, 1152 + 4096).unwrap();
        assert_eq!(parsed, h);
    }

    #[test]
    fn header_rejects_corruption() {
        let h = Header {
            devices: 1,
            entries: 0,
            toc_off: 128,
            toc_len: 0,
            data_off: 128,
            data_len: 0,
            toc_checksum: 0,
            data_checksum: 0,
        };
        let good = h.to_bytes();
        let mut bad = good;
        bad[0] = b'X';
        assert!(matches!(Header::parse(&bad, 128), Err(StoreError::BadMagic)));
        let mut bad = good;
        bad[8] = 99;
        assert!(matches!(Header::parse(&bad, 128), Err(StoreError::WrongVersion { found: 99, .. })));
        let mut bad = good;
        bad[12] = 0;
        assert!(matches!(Header::parse(&bad, 128), Err(StoreError::BadEndianTag)));
        assert!(matches!(Header::parse(&good[..64], 128), Err(StoreError::Truncated { .. })));
        // Sections past EOF are truncation, not UB.
        let mut h2 = h;
        h2.data_len = 1 << 40;
        assert!(matches!(Header::parse(&h2.to_bytes(), 128), Err(StoreError::Truncated { .. })));
    }

    #[test]
    fn toc_entry_round_trips() {
        let entries = vec![
            TocEntry {
                kind: KIND_TENSOR,
                device: DEVICE_ALL,
                name: "h0.attn.wq".to_string(),
                dims: vec![8, 8],
                payload_off: 1152,
                payload_words: 64,
                pack: None,
            },
            TocEntry {
                kind: KIND_PACK,
                device: 1,
                name: "h0.moe.expert.w1".to_string(),
                dims: vec![2, 8, 16],
                payload_off: 1472,
                payload_words: 4096,
                pack: Some(PackMeta {
                    batch: 2,
                    k: 8,
                    n: 16,
                    mc: 256,
                    kc: 256,
                    nc: 512,
                    transposed: false,
                }),
            },
        ];
        let mut buf = Vec::new();
        for e in &entries {
            let before = buf.len();
            e.write(&mut buf);
            assert_eq!(buf.len() - before, e.encoded_len());
        }
        let mut cur = Cursor::new(&buf);
        for e in &entries {
            assert_eq!(&TocEntry::read(&mut cur).unwrap(), e);
        }
        assert_eq!(cur.remaining(), 0);
    }

    #[test]
    fn fnv1a_is_stable() {
        // Regression pin: the checksum function is part of the format.
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"lancet"), fnv1a(b"lancet"));
        assert_ne!(fnv1a(b"lancet"), fnv1a(b"lancer"));
    }

    #[test]
    fn align_up_rounds_to_64() {
        assert_eq!(align_up(0), 0);
        assert_eq!(align_up(1), 64);
        assert_eq!(align_up(64), 64);
        assert_eq!(align_up(65), 128);
    }
}
