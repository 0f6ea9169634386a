//! Error-path coverage for `HDP1` model loading: every malformed
//! buffer must come back as a typed [`PersistError`] — truncated
//! headers, wrong magic, unknown modes, corrupted payload lengths,
//! dimensionality lies — and never a panic. The serving layer loads
//! untrusted model files at boot, so these paths are load-bearing.

use std::sync::OnceLock;

use hdface::datasets::face2_spec;
use hdface::hdc::{BitVector, HdcRng, SeedableRng};
use hdface::learn::{BinaryHdModel, TrainConfig};
use hdface::persist::{encode_model, load_bytes_with_integrity, PersistError, MAX_DIM};
use hdface::pipeline::{HdFeatureMode, HdPipeline};
use proptest::prelude::*;

/// One trained, serialized pipeline shared by every corruption test.
fn model_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let ds = face2_spec().at_size(32).scaled(48).generate(29);
        let mut p = HdPipeline::new(HdFeatureMode::encoded_classic(512), 29);
        p.train(&ds, &TrainConfig::default()).unwrap();
        p.save_bytes().unwrap()
    })
}

#[test]
fn empty_and_short_buffers_are_bad_headers() {
    for len in 0..17 {
        let buf = &model_bytes()[..len];
        assert!(
            matches!(HdPipeline::load_bytes(buf), Err(PersistError::BadHeader)),
            "prefix of {len} bytes must be a BadHeader"
        );
    }
}

#[test]
fn wrong_magic_is_rejected() {
    let mut bytes = model_bytes().to_vec();
    for (i, wrong) in [b"HDM1", b"hdp1", b"HDP2", b"\0\0\0\0"].iter().enumerate() {
        bytes[..4].copy_from_slice(&wrong[..]);
        assert!(
            matches!(HdPipeline::load_bytes(&bytes), Err(PersistError::BadHeader)),
            "case {i}"
        );
    }
}

#[test]
fn unknown_mode_tag_is_typed() {
    let mut bytes = model_bytes().to_vec();
    // Tag 3 named a level-id encoded mode that no longer exists.
    for tag in [0, 3, 77] {
        bytes[4] = tag;
        match HdPipeline::load_bytes(&bytes) {
            Err(PersistError::UnknownMode(t)) if t == tag => {}
            other => panic!("tag {tag}: expected UnknownMode, got {other:?}"),
        }
    }
}

#[test]
fn truncated_model_payload_is_a_model_error() {
    let bytes = model_bytes();
    // Cut inside the embedded HDM1 container at several depths: right
    // after the pipeline header, mid-magic, and mid-class-vector.
    for cut in [17, 19, 25, bytes.len() / 2] {
        match HdPipeline::load_bytes(&bytes[..cut]) {
            Err(PersistError::Model(_)) => {}
            other => panic!("cut at {cut}: expected Model error, got {other:?}"),
        }
    }
}

/// `HDI1` trailer = magic (4) + class count (4) + 2 classes × u64.
const TRAILER_LEN: usize = 4 + 4 + 2 * 8;

#[test]
fn truncated_integrity_trailer_is_typed() {
    let bytes = model_bytes();
    // A cut landing inside the trailer leaves a decodable model with
    // a recognizable-but-short HDI1 record.
    assert!(matches!(
        HdPipeline::load_bytes(&bytes[..bytes.len() - 1]),
        Err(PersistError::BadTrailer)
    ));
    // A trailer claiming the wrong class count is equally malformed.
    let mut lying = bytes.to_vec();
    let count_at = bytes.len() - TRAILER_LEN + 4;
    lying[count_at..count_at + 4].copy_from_slice(&7u32.to_le_bytes());
    assert!(matches!(
        HdPipeline::load_bytes(&lying),
        Err(PersistError::BadTrailer)
    ));
}

#[test]
fn corrupted_class_words_fail_the_golden_checksum() {
    let mut bytes = model_bytes().to_vec();
    // Flip one payload bit of class 0: first word lives right after
    // the HDP1 header (17), the HDM1 header (8) and the HDV1 header
    // (12).
    bytes[37] ^= 0x10;
    assert!(matches!(
        HdPipeline::load_bytes(&bytes),
        Err(PersistError::ChecksumMismatch { class: 0 })
    ));
    // The tolerant loader hands the mismatch to the caller as data
    // instead of refusing.
    let loaded = hdface::persist::load_bytes_with_integrity(&bytes).unwrap();
    let golden = loaded.golden.expect("trailer present");
    assert_ne!(loaded.classes[0].checksum(), golden[0]);
    assert_eq!(loaded.classes[1].checksum(), golden[1]);
}

#[test]
fn legacy_files_without_trailer_still_load() {
    let bytes = model_bytes();
    let model_end = bytes.len() - TRAILER_LEN;
    let p = HdPipeline::load_bytes(&bytes[..model_end]).unwrap();
    assert!(p.classifier().is_some());
    let loaded = hdface::persist::load_bytes_with_integrity(&bytes[..model_end]).unwrap();
    assert!(loaded.golden.is_none());
}

#[test]
fn corrupted_class_count_is_a_model_error_not_a_panic() {
    let mut bytes = model_bytes().to_vec();
    // The embedded HDM1 container declares its class count at offset
    // 17+4; claiming far more classes than the payload holds must
    // surface as a typed truncation error.
    bytes[21..25].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        HdPipeline::load_bytes(&bytes),
        Err(PersistError::Model(_))
    ));
    // Zero classes is equally malformed.
    bytes[21..25].copy_from_slice(&0u32.to_le_bytes());
    assert!(matches!(
        HdPipeline::load_bytes(&bytes),
        Err(PersistError::Model(_))
    ));
}

#[test]
fn header_dim_must_match_the_embedded_model() {
    let mut bytes = model_bytes().to_vec();
    bytes[5..9].copy_from_slice(&1024u32.to_le_bytes());
    match HdPipeline::load_bytes(&bytes) {
        Err(PersistError::DimMismatch { header, model }) => {
            assert_eq!(header, 1024);
            assert_eq!(model, 512);
        }
        other => panic!("expected DimMismatch, got {other:?}"),
    }
}

#[test]
fn every_error_variant_displays_and_sources() {
    let errors = [
        HdPipeline::load_bytes(b"ZZZZ").unwrap_err(),
        {
            let mut b = model_bytes().to_vec();
            b[4] = 9;
            HdPipeline::load_bytes(&b).unwrap_err()
        },
        HdPipeline::load_bytes(&model_bytes()[..20]).unwrap_err(),
        {
            let mut b = model_bytes().to_vec();
            b[5..9].copy_from_slice(&2048u32.to_le_bytes());
            HdPipeline::load_bytes(&b).unwrap_err()
        },
    ];
    for e in &errors {
        assert!(!e.to_string().is_empty());
    }
    // Only the Model variant carries a source.
    use std::error::Error as _;
    assert!(errors[2].source().is_some());
    assert!(errors[0].source().is_none());
}

#[test]
fn intact_bytes_still_load_after_all_that() {
    // Control: the shared buffer itself is valid.
    let p = HdPipeline::load_bytes(model_bytes()).unwrap();
    assert_eq!(p.dim(), 512);
    assert!(p.classifier().is_some());
}

/// A hand-built `HDP1` file whose header declares `dim = 0` and whose
/// `HDM1` holds one zero-dimensional `HDV1` record: 17 + 8 + 12 bytes,
/// optionally followed by a well-formed one-class `HDI1` trailer.
fn zero_dim_file(mode: u8, trailer: bool) -> Vec<u8> {
    let mut bytes = b"HDP1".to_vec();
    bytes.push(mode);
    bytes.extend_from_slice(&0u32.to_le_bytes());
    bytes.extend_from_slice(&5u64.to_le_bytes());
    bytes.extend_from_slice(b"HDM1");
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(b"HDV1");
    bytes.extend_from_slice(&0u64.to_le_bytes());
    if trailer {
        bytes.extend_from_slice(b"HDI1");
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&BitVector::zeros(0).checksum().to_le_bytes());
    }
    bytes
}

#[test]
fn zero_dimension_headers_are_typed_errors_in_every_mode() {
    // Mode 1 used to panic building its stochastic context; mode 2
    // used to load a zero-dimensional pipeline.
    for mode in 1..=3 {
        for trailer in [false, true] {
            let bytes = zero_dim_file(mode, trailer);
            assert!(
                matches!(HdPipeline::load_bytes(&bytes), Err(PersistError::ZeroDim)),
                "mode {mode}, trailer {trailer}"
            );
            assert!(
                matches!(
                    load_bytes_with_integrity(&bytes),
                    Err(PersistError::ZeroDim)
                ),
                "mode {mode}, trailer {trailer}"
            );
        }
    }
    assert!(PersistError::ZeroDim
        .to_string()
        .contains("zero-dimensional"));
}

#[test]
fn dimensions_past_the_cap_are_refused_from_the_header() {
    // A valid hyper-HOG file at the cap loads; one a bit larger is
    // refused before its extractor is built.
    let (at_cap, _) = valid_file(1, MAX_DIM, 1, 3, true);
    assert_eq!(HdPipeline::load_bytes(&at_cap).unwrap().dim(), MAX_DIM);
    let (past, _) = valid_file(1, MAX_DIM + 1, 1, 3, true);
    let e = HdPipeline::load_bytes(&past).unwrap_err();
    assert!(
        matches!(e, PersistError::DimTooLarge(d) if d == MAX_DIM + 1),
        "{e:?}"
    );
    assert!(e.to_string().contains("65537"), "{e}");
    assert!(matches!(
        load_bytes_with_integrity(&past),
        Err(PersistError::DimTooLarge(_))
    ));
}

/// A valid `HDP1` file of `classes` random class vectors at `dim`, with
/// or without its `HDI1` trailer, and the class vectors it holds.
fn valid_file(
    mode: u8,
    dim: usize,
    classes: usize,
    seed: u64,
    trailer: bool,
) -> (Vec<u8>, Vec<BitVector>) {
    let mut rng = HdcRng::seed_from_u64(seed);
    let vectors: Vec<BitVector> = (0..classes)
        .map(|_| BitVector::random(dim, &mut rng))
        .collect();
    let model = BinaryHdModel::from_classes(vectors.clone()).expect("equal dims");
    let mut bytes = encode_model(mode, dim, seed, &model);
    if !trailer {
        bytes.truncate(bytes.len() - (8 + 8 * classes));
    }
    (bytes, vectors)
}

/// Values a rewritten header field takes.
const FIELD_DIMS: [u64; 6] = [0, 1, 63, 64, 65, u32::MAX as u64];
const MODE_TAGS: [u8; 6] = [0, 1, 2, 3, 4, u8::MAX];
const CLASS_COUNTS: [u32; 6] = [0, 1, 2, 3, 1 << 20, u32::MAX];

/// What an intact input must load back to.
#[derive(Debug, Clone)]
struct Intact {
    mode: u8,
    dim: usize,
    seed: u64,
    classes: Vec<BitVector>,
    trailer: bool,
}

/// Hostile model bytes: raw random bytes (half of them behind a valid
/// magic), and files — with and without their trailer — that are
/// truncated, have one byte overwritten or inserted anywhere, or carry
/// a rewritten header field (mode, header dim, class count, the first
/// `HDV1` dim, or both dims at once). Files are encoded at dims
/// 0, 1, 63, 64, 65 and 130; a dim-0 file is well formed but must not
/// load. The `Intact` marks inputs that are still exactly a valid
/// file.
fn arb_model_input() -> impl Strategy<Value = (Vec<u8>, Option<Intact>)> {
    (
        (0usize..7, 1u8..=2, 0usize..6, 1usize..=3, any::<bool>()),
        (any::<u64>(), any::<u8>(), 0usize..5, 0usize..6),
        prop::collection::vec(any::<u8>(), 0..96),
    )
        .prop_map(
            |((kind, mode, dim_at, classes, trailer), (pos, byte, field, value), noise)| {
                let dim = [0usize, 1, 63, 64, 65, 130][dim_at];
                let seed = pos % 1000;
                let (valid, vectors) = valid_file(mode, dim, classes, seed, trailer);
                let at = |len: usize| (pos % (len as u64 + 1)) as usize;
                let input = match kind {
                    0 => {
                        let mut v = if byte % 2 == 0 {
                            b"HDP1".to_vec()
                        } else {
                            Vec::new()
                        };
                        v.extend_from_slice(&noise);
                        v
                    }
                    1 => valid[..at(valid.len() - 1)].to_vec(),
                    2 => {
                        let mut v = valid.clone();
                        let i = at(v.len() - 1);
                        v[i] ^= byte | 1;
                        v
                    }
                    3 => {
                        let mut v = valid.clone();
                        v.insert(at(v.len()), byte);
                        v
                    }
                    4 => {
                        let mut v = valid.clone();
                        let dim = FIELD_DIMS[value];
                        match field {
                            0 => v[4] = MODE_TAGS[value],
                            1 => v[5..9].copy_from_slice(&(dim as u32).to_le_bytes()),
                            2 => v[21..25].copy_from_slice(&CLASS_COUNTS[value].to_le_bytes()),
                            3 => v[29..37].copy_from_slice(&dim.to_le_bytes()),
                            _ => {
                                v[5..9].copy_from_slice(&(dim as u32).to_le_bytes());
                                v[29..37].copy_from_slice(&dim.to_le_bytes());
                            }
                        }
                        v
                    }
                    _ => valid.clone(),
                };
                let intact = (input == valid && dim > 0).then_some(Intact {
                    mode,
                    dim,
                    seed,
                    classes: vectors,
                    trailer,
                });
                (input, intact)
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Both model loaders survive hostile bytes: no panic, every
    /// failure a typed `PersistError` the two loaders agree on (only
    /// the strict one enforces checksums), nothing zero-dimensional
    /// loads, and an intact file loads to exactly its classes and
    /// re-saves to exactly its bytes.
    #[test]
    fn model_loaders_survive_hostile_input((input, intact) in arb_model_input()) {
        let strict = HdPipeline::load_bytes(&input);
        let tolerant = load_bytes_with_integrity(&input);
        match (&strict, &tolerant) {
            (Ok(_), Ok(_)) | (Err(PersistError::ChecksumMismatch { .. }), Ok(_)) => {}
            (Err(a), Err(b)) => {
                prop_assert_eq!(a.to_string(), b.to_string());
                prop_assert!(!a.to_string().is_empty());
            }
            _ => prop_assert!(false, "loaders disagree: {:?} vs {:?}", strict.as_ref().err(), tolerant.as_ref().err()),
        }
        if let Ok(loaded) = &tolerant {
            prop_assert!(loaded.pipeline.dim() > 0);
            prop_assert_eq!(loaded.pipeline.dim(), loaded.classes[0].dim());
        }
        if let Some(want) = intact {
            let loaded = tolerant.expect("an intact file loads");
            prop_assert_eq!(&loaded.classes, &want.classes);
            prop_assert_eq!(loaded.golden.is_some(), want.trailer);
            let pipeline = strict.expect("an intact file passes its checksums");
            prop_assert_eq!(pipeline.dim(), want.dim);
            let model = BinaryHdModel::from_classes(want.classes).expect("equal dims");
            let resaved = pipeline.save_bytes().expect("installed model saves");
            prop_assert!(resaved == encode_model(want.mode, want.dim, want.seed, &model));
            if want.trailer {
                prop_assert!(resaved == input, "re-saved bytes differ from the file");
            }
        }
    }
}
