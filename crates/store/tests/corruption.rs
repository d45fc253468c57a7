//! Adversarial-input coverage: every way a store file can be wrong must
//! surface as a typed [`StoreError`] — no UB, no panic — and a clean file
//! must round-trip bit-identically through both load paths.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use lancet_store::format::{fnv1a, Cursor, Header, TocEntry, HEADER_LEN};
use lancet_store::{
    open_store, open_store_with, write_store, OpenOptions, StoreError, StoredPacks,
};
use lancet_tensor::{PackedTensor, Tensor, TensorRng};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lancet-store-test-{}-{name}.lancet", std::process::id()))
}

fn sample_model(devices: usize) -> (Vec<HashMap<String, Tensor>>, StoredPacks) {
    let mut rng = TensorRng::seed(7);
    let shared = rng.uniform(vec![8, 12], -1.0, 1.0);
    let expert_stack = rng.uniform(vec![2, 12, 8], -1.0, 1.0);
    let mut weights = Vec::new();
    let mut packs: StoredPacks = Vec::new();
    let shared_pack = Arc::new(PackedTensor::pack(&shared, false).unwrap());
    for d in 0..devices {
        let local = rng.uniform(vec![4, 4], -1.0, 1.0);
        weights.push(HashMap::from([
            ("shared.w".to_string(), shared.clone()),
            ("expert.stack".to_string(), expert_stack.clone()),
            (format!("local.{d}"), local.clone()),
        ]));
        packs.push(HashMap::from([
            ("shared.w".to_string(), Arc::clone(&shared_pack)),
            (
                "expert.stack".to_string(),
                Arc::new(PackedTensor::pack_batched(&expert_stack).unwrap()),
            ),
        ]));
    }
    (weights, packs)
}

#[test]
fn round_trip_is_bit_identical_mapped_and_heap() {
    let (weights, packs) = sample_model(2);
    let path = tmp("roundtrip");
    let summary = write_store(&path, "sample", &weights, &packs).unwrap();
    assert!(summary.deduped > 0, "replicated weights must dedupe");

    for mmap in [true, false] {
        let model = open_store_with(
            &path,
            OpenOptions { mmap, verify_data: true },
        )
        .unwrap();
        assert_eq!(model.name, "sample");
        assert_eq!(model.devices, 2);
        for d in 0..2 {
            for (name, want) in &weights[d] {
                let got = &model.weights[d][name];
                assert_eq!(got.shape(), want.shape());
                let same_bits = got
                    .data()
                    .iter()
                    .zip(want.data())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same_bits, "weight `{name}` device {d} differs ({})", if mmap { "mmap" } else { "heap" });
            }
            for (name, want) in &packs[d] {
                let got = &model.packs[d][name];
                assert_eq!(got.as_ref(), want.as_ref(), "pack `{name}` device {d} differs");
            }
        }
        // Replicated entries share storage across devices after load.
        assert_eq!(
            model.weights[0]["shared.w"].data().as_ptr(),
            model.weights[1]["shared.w"].data().as_ptr()
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn empty_model_round_trips() {
    let path = tmp("empty");
    write_store(&path, "nothing", &[], &Vec::new()).unwrap();
    let model = open_store(&path).unwrap();
    assert_eq!(model.devices, 0);
    assert!(model.weights.is_empty());
    std::fs::remove_file(&path).ok();
}

/// Version 1 files hold panels in the padded layout; reading them with
/// the tight one would misplace panel words, so they must be refused.
#[test]
fn version_1_files_are_refused() {
    let (weights, packs) = sample_model(1);
    let path = tmp("v1");
    write_store(&path, "sample", &weights, &packs).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(open_store(&path), Err(StoreError::WrongVersion { found: 1, expected: 2 })));
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupted_header_fields_are_typed_errors() {
    let (weights, packs) = sample_model(1);
    let path = tmp("header");
    write_store(&path, "sample", &weights, &packs).unwrap();
    let clean = std::fs::read(&path).unwrap();

    let mutate = |at: usize, to: u8| {
        let mut bytes = clean.clone();
        bytes[at] = to;
        std::fs::write(&path, &bytes).unwrap();
        open_store(&path)
    };

    assert!(matches!(mutate(0, b'Z'), Err(StoreError::BadMagic)));
    assert!(matches!(mutate(8, 42), Err(StoreError::WrongVersion { found: 42, .. })));
    assert!(matches!(mutate(13, 0xFF), Err(StoreError::BadEndianTag)));
    // Flipping a byte inside the TOC region breaks its checksum.
    assert!(matches!(mutate(140, 0xA5), Err(StoreError::ChecksumMismatch { section: "toc" })));
    std::fs::remove_file(&path).ok();
}

/// Panels are laid out by the GEMM's fixed blocking. A pack entry that
/// records any other one (here `kc = 17`), with the TOC re-checksummed so
/// the change passes the cheap checks, must be refused with a typed error
/// rather than multiplied at wrong panel offsets.
#[test]
fn pack_entries_under_another_blocking_are_refused() {
    let (weights, packs) = sample_model(1);
    let path = tmp("blocking");
    write_store(&path, "sample", &weights, &packs).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let header = Header::parse(&bytes, bytes.len() as u64).unwrap();
    let toc_end = HEADER_LEN + header.toc_len as usize;
    let mut cur = Cursor::new(&bytes[HEADER_LEN..toc_end]);
    let name = cur.string().unwrap();
    let mut entries: Vec<TocEntry> =
        (0..header.entries).map(|_| TocEntry::read(&mut cur).unwrap()).collect();
    let pack = entries.iter_mut().find_map(|e| e.pack.as_mut()).expect("sample has packs");
    pack.kc = 17;
    let mut toc = (name.len() as u32).to_le_bytes().to_vec();
    toc.extend_from_slice(name.as_bytes());
    entries.iter().for_each(|e| e.write(&mut toc));
    assert_eq!(toc.len(), header.toc_len as usize);
    bytes[HEADER_LEN..toc_end].copy_from_slice(&toc);
    let header = Header { toc_checksum: fnv1a(&toc), ..header };
    bytes[..HEADER_LEN].copy_from_slice(&header.to_bytes());
    std::fs::write(&path, &bytes).unwrap();
    for mmap in [true, false] {
        let err = open_store_with(&path, OpenOptions { mmap, verify_data: true }).unwrap_err();
        assert!(matches!(&err, StoreError::BadToc(why) if why.contains("blocking")), "{err:?}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_files_are_typed_errors() {
    let (weights, packs) = sample_model(1);
    let path = tmp("truncated");
    write_store(&path, "sample", &weights, &packs).unwrap();
    let clean = std::fs::read(&path).unwrap();

    for keep in [0, 8, 64, 127, 200, clean.len() - 64] {
        std::fs::write(&path, &clean[..keep]).unwrap();
        let err = open_store(&path).unwrap_err();
        assert!(
            matches!(err, StoreError::Truncated { .. } | StoreError::ChecksumMismatch { .. }),
            "{keep}-byte prefix gave {err:?}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupted_data_is_caught_when_verification_is_on() {
    let (weights, packs) = sample_model(1);
    let path = tmp("data");
    write_store(&path, "sample", &weights, &packs).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let at = bytes.len() - 16;
    bytes[at] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    // Cheap open (header + TOC only) accepts it: the O(open) contract.
    assert!(open_store_with(&path, OpenOptions::default()).is_ok());
    // Deep verification rejects it.
    let err = open_store_with(&path, OpenOptions { verify_data: true, ..OpenOptions::default() })
        .unwrap_err();
    assert!(matches!(err, StoreError::ChecksumMismatch { section: "data" }), "{err:?}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn garbage_and_short_files_never_panic() {
    let path = tmp("garbage");
    for bytes in [
        Vec::new(),
        vec![0u8; 3],
        vec![0xFFu8; 4096],
        b"LNCSTOR\x01 but then nonsense follows here".to_vec(),
    ] {
        std::fs::write(&path, &bytes).unwrap();
        assert!(open_store(&path).is_err());
    }
    assert!(matches!(open_store(std::path::Path::new("/nonexistent/nowhere.lancet")), Err(StoreError::Io(_))));
    std::fs::remove_file(&path).ok();
}
