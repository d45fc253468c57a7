//! File-backed buffer owners: a read-only memory mapping (zero-copy, the
//! whole point of the store) with a heap fallback for platforms or
//! configurations where mapping is unavailable.
//!
//! The workspace is hermetic — no `libc`/`memmap2` — so the mapping is a
//! raw `mmap(2)` syscall, currently wired for Linux on x86_64 and aarch64
//! (little-endian, where reinterpreting mapped bytes as `f32` words is the
//! identity). Everything else, plus an open with
//! [`OpenOptions::mmap`](crate::OpenOptions::mmap) off, takes the
//! [`HeapOwner`] path: read the file once and decode little-endian words —
//! still a correct load, just O(copy) instead of O(open).

use std::fs::File;
use std::io::Read;
use std::path::Path;
use std::sync::Arc;

use lancet_tensor::BufOwner;

use crate::StoreError;

/// Whether this build can map files at all.
pub fn mmap_supported() -> bool {
    cfg!(all(
        target_os = "linux",
        target_endian = "little",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))
}

/// A file's contents as `f32` words, either mapped or heap-decoded.
pub enum FileBuf {
    /// Pages mapped read-only straight from the file (shared across every
    /// replica that opens the same store).
    Mapped(MapOwner),
    /// Heap copy decoded from little-endian bytes.
    Heap(HeapOwner),
}

impl FileBuf {
    /// Opens `path`, mapping when `want_mmap` and the platform allows,
    /// falling back to a heap read otherwise. Returns the owner and
    /// whether it is genuinely mapped.
    pub fn open(path: &Path, want_mmap: bool) -> Result<(Arc<dyn BufOwner>, bool), StoreError> {
        if want_mmap && mmap_supported() {
            if let Some(m) = MapOwner::open(path)? {
                return Ok((Arc::new(FileBuf::Mapped(m)), true));
            }
        }
        Ok((Arc::new(FileBuf::Heap(HeapOwner::open(path)?)), false))
    }
}

impl BufOwner for FileBuf {
    fn as_f32(&self) -> &[f32] {
        match self {
            FileBuf::Mapped(m) => m.as_f32(),
            FileBuf::Heap(h) => &h.words,
        }
    }
}

/// Heap fallback: the whole file decoded as little-endian `f32` words
/// (trailing bytes that do not fill a word are dropped; the writer pads
/// the file to a 64-byte multiple so nothing meaningful is lost).
pub struct HeapOwner {
    words: Vec<f32>,
}

impl HeapOwner {
    fn open(path: &Path) -> Result<HeapOwner, StoreError> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        let words = bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        Ok(HeapOwner { words })
    }
}

/// A read-only private mapping of an entire file.
///
/// The base address is page-aligned, so word `i` of [`BufOwner::as_f32`]
/// is 4-byte aligned for any `i`; the store format additionally 64-byte
/// aligns payloads for cache-line-friendly panel reads.
pub struct MapOwner {
    addr: *mut u8,
    /// Mapped length in bytes (never 0; empty files skip mapping).
    len: usize,
}

// SAFETY: the mapping is PROT_READ and never remapped after construction;
// concurrent reads from any thread are fine, and munmap happens only in
// Drop when no other reference exists (owners are held behind Arc).
unsafe impl Send for MapOwner {}
unsafe impl Sync for MapOwner {}

impl MapOwner {
    /// Maps `path` read-only. Returns `Ok(None)` when the file is empty or
    /// the kernel refuses the mapping (caller falls back to heap).
    fn open(path: &Path) -> Result<Option<MapOwner>, StoreError> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        if len == 0 || len > usize::MAX as u64 {
            return Ok(None);
        }
        let fd = fd_of(&file);
        let addr = unsafe { sys_mmap(len as usize, fd) };
        // The kernel returns small negative values (-errno) on failure.
        if addr as isize <= 0 {
            return Ok(None);
        }
        Ok(Some(MapOwner { addr: addr as *mut u8, len: len as usize }))
    }

    fn as_f32(&self) -> &[f32] {
        // SAFETY: the mapping is live for &self (munmap only in Drop), at
        // least `len` bytes, page-aligned (so f32-aligned), and read-only;
        // on the little-endian targets this path compiles for, the bytes
        // are exactly the stored words. Any bit pattern is a valid f32.
        unsafe { std::slice::from_raw_parts(self.addr as *const f32, self.len / 4) }
    }
}

impl Drop for MapOwner {
    fn drop(&mut self) {
        // SAFETY: addr/len are the exact mapping established in open().
        unsafe { sys_munmap(self.addr as usize, self.len) };
    }
}

#[cfg(unix)]
fn fd_of(file: &File) -> i32 {
    use std::os::unix::io::AsRawFd;
    file.as_raw_fd()
}

#[cfg(not(unix))]
fn fd_of(_file: &File) -> i32 {
    -1
}

const PROT_READ: usize = 1;
const MAP_PRIVATE: usize = 2;

/// `mmap(NULL, len, PROT_READ, MAP_PRIVATE, fd, 0)` via raw syscall.
///
/// # Safety
///
/// `fd` must be a readable open file descriptor and `len > 0`.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe fn sys_mmap(len: usize, fd: i32) -> usize {
    let ret: usize;
    std::arch::asm!(
        "syscall",
        inlateout("rax") 9usize => ret, // SYS_mmap
        in("rdi") 0usize,
        in("rsi") len,
        in("rdx") PROT_READ,
        in("r10") MAP_PRIVATE,
        in("r8") fd as isize,
        in("r9") 0usize,
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack)
    );
    ret
}

/// `munmap(addr, len)` via raw syscall.
///
/// # Safety
///
/// `(addr, len)` must be a live mapping produced by [`sys_mmap`].
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe fn sys_munmap(addr: usize, len: usize) -> usize {
    let ret: usize;
    std::arch::asm!(
        "syscall",
        inlateout("rax") 11usize => ret, // SYS_munmap
        in("rdi") addr,
        in("rsi") len,
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack)
    );
    ret
}

/// `mmap` via raw syscall (aarch64 numbering).
///
/// # Safety
///
/// As for the x86_64 variant.
#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
unsafe fn sys_mmap(len: usize, fd: i32) -> usize {
    let ret: usize;
    std::arch::asm!(
        "svc 0",
        inlateout("x8") 222usize => _, // SYS_mmap
        inlateout("x0") 0usize => ret,
        in("x1") len,
        in("x2") PROT_READ,
        in("x3") MAP_PRIVATE,
        in("x4") fd as isize,
        in("x5") 0usize,
        options(nostack)
    );
    ret
}

/// `munmap` via raw syscall (aarch64 numbering).
///
/// # Safety
///
/// As for the x86_64 variant.
#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
unsafe fn sys_munmap(addr: usize, len: usize) -> usize {
    let ret: usize;
    std::arch::asm!(
        "svc 0",
        inlateout("x8") 215usize => _, // SYS_munmap
        inlateout("x0") addr => ret,
        in("x1") len,
        options(nostack)
    );
    ret
}

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
unsafe fn sys_mmap(_len: usize, _fd: i32) -> usize {
    0 // treated as failure → heap fallback
}

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
unsafe fn sys_munmap(_addr: usize, _len: usize) -> usize {
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmp(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!("lancet-store-map-{}-{name}", std::process::id()));
        let mut f = File::create(&p).unwrap();
        f.write_all(bytes).unwrap();
        p
    }

    #[test]
    fn mapped_and_heap_agree() {
        let words: Vec<f32> = (0..64).map(|x| x as f32 * 0.5).collect();
        let mut bytes = Vec::new();
        for w in &words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        let p = tmp("agree", &bytes);
        let (mapped, was_mapped) = FileBuf::open(&p, true).unwrap();
        let (heap, heap_mapped) = FileBuf::open(&p, false).unwrap();
        assert!(!heap_mapped);
        if mmap_supported() {
            assert!(was_mapped, "mmap syscall should succeed on this platform");
        }
        assert_eq!(mapped.as_f32(), &words[..]);
        assert_eq!(heap.as_f32(), &words[..]);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn empty_file_falls_back() {
        let p = tmp("empty", &[]);
        let (owner, was_mapped) = FileBuf::open(&p, true).unwrap();
        assert!(!was_mapped);
        assert!(owner.as_f32().is_empty());
        std::fs::remove_file(&p).ok();
    }
}
