//! Whole-pipeline persistence.
//!
//! An [`HdPipeline`]'s extractor state (basis, codebooks, slot keys,
//! encoder matrices) is fully determined by its feature mode, its
//! dimensionality and its seed, so a trained pipeline serializes as a
//! small header plus the class accumulators' binary model:
//!
//! ```text
//! magic   "HDP1"        4 bytes
//! mode    u8            1 = hyper-hog, 2 = encoded(projection)
//! dim     u32 LE        1 ..= MAX_DIM (2¹⁶)
//! seed    u64 LE
//! model   HDM1 container (see hdface-learn)
//! ```
//!
//! Loading reconstructs the extractor from the header and installs the
//! classes — predictions after a round-trip are identical up to the
//! stochastic masks drawn during feature extraction.
//!
//! ## Integrity trailer (`HDI1`)
//!
//! Saved pipelines additionally carry a per-class checksum trailer
//! right after the model container:
//!
//! ```text
//! magic     "HDI1"      4 bytes
//! classes   u32 LE      must equal the model's class count
//! checksums classes × u64 LE   (FNV-1a over dim + words, see
//!                               `BitVector::checksum`)
//! ```
//!
//! The trailer is invisible to pre-trailer readers (`HDM1` tolerates
//! trailing bytes) and files without one still load — the golden
//! checksums are simply absent. [`HdPipeline::load_bytes`] verifies
//! the trailer when present and rejects corrupted class words;
//! [`load_bytes_with_integrity`] returns the golden checksums to the
//! caller instead, so the serving layer can quarantine and repair
//! rather than refuse to start.

use std::error::Error;
use std::fmt;

use hdface_hdc::BitVector;
use hdface_learn::{BinaryHdModel, ModelIoError};
use hdface_noise::FaultPlan;

use crate::engine::derive_seed;
use crate::pipeline::{HdFeatureMode, HdPipeline, PipelineError};

const MAGIC: &[u8; 4] = b"HDP1";
const INTEGRITY_MAGIC: &[u8; 4] = b"HDI1";

/// Byte offset where the `HDM1` model container starts.
const MODEL_OFFSET: usize = 17;

/// The largest dimensionality a model may have: 2¹⁶, well past the
/// paper's 10k sweep and inside the header's `u32`. `hdface train
/// --dim` and every model load refuse a larger `D` before anything is
/// allocated: a hyper-HOG extractor built at `D` holds ~36·`D` bytes of
/// codebooks, so a forged header could otherwise abort the process on
/// a failed allocation.
pub const MAX_DIM: usize = 1 << 16;

/// Site salt for the load-time model-byte fault arm (class `c` is
/// struck at site `derive_seed(MODEL_BYTES_SALT, c)`).
const MODEL_BYTES_SALT: u64 = 0x5afe_c0de_8b1e_55ed;

/// Errors raised when decoding a serialized pipeline.
#[derive(Debug)]
#[non_exhaustive]
pub enum PersistError {
    /// Missing `HDP1` magic or truncated header.
    BadHeader,
    /// Unknown feature-mode tag.
    UnknownMode(u8),
    /// The header declares a zero-dimensional model, which no feature
    /// mode can be built at.
    ZeroDim,
    /// The header declares a dimensionality past [`MAX_DIM`].
    DimTooLarge(usize),
    /// The embedded model failed to decode.
    Model(ModelIoError),
    /// The embedded model's dimensionality disagrees with the header.
    DimMismatch {
        /// Dimensionality from the header.
        header: usize,
        /// Dimensionality of the embedded model.
        model: usize,
    },
    /// An `HDI1` trailer is present but malformed (truncated, or its
    /// class count disagrees with the model).
    BadTrailer,
    /// A class hypervector's words do not match the golden checksum
    /// recorded in the `HDI1` trailer.
    ChecksumMismatch {
        /// Index of the corrupted class.
        class: usize,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::BadHeader => write!(f, "missing or truncated HDP1 header"),
            PersistError::UnknownMode(m) => write!(f, "unknown feature-mode tag {m}"),
            PersistError::ZeroDim => write!(f, "header declares a zero-dimensional model"),
            PersistError::DimTooLarge(dim) => {
                write!(f, "header declares D={dim}, past the largest D={MAX_DIM}")
            }
            PersistError::Model(e) => write!(f, "embedded model is invalid: {e}"),
            PersistError::DimMismatch { header, model } => {
                write!(f, "header says D={header} but the model is D={model}")
            }
            PersistError::BadTrailer => write!(f, "malformed HDI1 integrity trailer"),
            PersistError::ChecksumMismatch { class } => {
                write!(f, "class {class} fails its golden checksum")
            }
        }
    }
}

impl Error for PersistError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PersistError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelIoError> for PersistError {
    fn from(e: ModelIoError) -> Self {
        PersistError::Model(e)
    }
}

impl HdPipeline {
    /// Serializes the trained pipeline to the `HDP1` byte format.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::NotTrained`] when no classifier has
    /// been fit yet.
    pub fn save_bytes(&self) -> Result<Vec<u8>, PipelineError> {
        // The binary model is derived deterministically (seed-fixed
        // tie-break RNG) — see `HdPipeline::quantized_model`.
        let model = self.quantized_model().ok_or(PipelineError::NotTrained)?;
        Ok(encode_model(
            self.mode_tag(),
            self.dim(),
            self.seed(),
            &model,
        ))
    }

    /// Reconstructs a pipeline from the `HDP1` byte format: the
    /// extractor is rebuilt from (mode, dim, seed) and the binary
    /// model is installed as the classifier.
    ///
    /// When the buffer carries an `HDI1` integrity trailer, every
    /// class is verified against its golden checksum — this is the
    /// strict loader for paths with no quarantine/repair story.
    ///
    /// # Errors
    ///
    /// Returns a [`PersistError`] for malformed buffers and
    /// [`PersistError::ChecksumMismatch`] for corrupted class words.
    pub fn load_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        let loaded = load_bytes_with_integrity(bytes)?;
        if let Some(golden) = &loaded.golden {
            for (class, (v, want)) in loaded.classes.iter().zip(golden).enumerate() {
                if v.checksum() != *want {
                    return Err(PersistError::ChecksumMismatch { class });
                }
            }
        }
        Ok(loaded.pipeline)
    }
}

/// A pipeline loaded together with its integrity material: the raw
/// class hypervectors and the golden checksums from the `HDI1`
/// trailer (when present). Unlike [`HdPipeline::load_bytes`] this
/// does **not** verify the checksums — the caller (the serving
/// layer's `IntegrityGuard`) verifies, quarantines and repairs.
#[derive(Debug)]
pub struct LoadedModel {
    /// The reconstructed pipeline, classifier installed.
    pub pipeline: HdPipeline,
    /// The model's class hypervectors, as loaded.
    pub classes: Vec<BitVector>,
    /// Golden per-class checksums from the trailer, if one was
    /// present.
    pub golden: Option<Vec<u64>>,
}

/// Encodes a binary model as a complete `HDP1` buffer (header, `HDM1`
/// container, `HDI1` golden-checksum trailer). This is the one
/// encoder shared by [`HdPipeline::save_bytes`] and the online
/// trainer's registry snapshots, so every persisted model carries the
/// trailer.
#[must_use]
pub fn encode_model(mode_tag: u8, dim: usize, seed: u64, model: &BinaryHdModel) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(mode_tag);
    out.extend_from_slice(&(dim as u32).to_le_bytes());
    out.extend_from_slice(&seed.to_le_bytes());
    out.extend(model.to_bytes());
    // Golden per-class checksums: the integrity trailer the serving
    // layer's scrubber verifies resident words against.
    out.extend_from_slice(INTEGRITY_MAGIC);
    out.extend_from_slice(&(model.num_classes() as u32).to_le_bytes());
    for c in model.classes() {
        out.extend_from_slice(&c.checksum().to_le_bytes());
    }
    out
}

/// Canonical 64-bit identity of a set of class hypervectors: FNV-1a
/// over the dimensionality and every per-class golden checksum (the
/// same `BitVector::checksum` values the `HDI1` trailer stores). Two
/// models hash equal iff their class words are bit-identical, so this
/// one value ties together the registry manifest, `GET /model`,
/// `GET /metrics` and `hdface eval` output.
#[must_use]
pub fn model_hash(classes: &[BitVector]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: [u8; 8]| {
        for b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    };
    let dim = classes.first().map_or(0, BitVector::dim);
    eat((dim as u64).to_le_bytes());
    for c in classes {
        eat(c.checksum().to_le_bytes());
    }
    h
}

/// Decodes the `HDP1` header and returns `(mode_tag, dim, seed)`.
/// A zero dimensionality or one past [`MAX_DIM`] is rejected here,
/// before any extractor is built from it.
fn decode_header(bytes: &[u8]) -> Result<(u8, usize, u64), PersistError> {
    if bytes.len() < MODEL_OFFSET || &bytes[..4] != MAGIC {
        return Err(PersistError::BadHeader);
    }
    let dim = u32::from_le_bytes(bytes[5..9].try_into().expect("sized")) as usize;
    if dim == 0 {
        return Err(PersistError::ZeroDim);
    }
    if dim > MAX_DIM {
        return Err(PersistError::DimTooLarge(dim));
    }
    let seed = u64::from_le_bytes(bytes[9..17].try_into().expect("sized"));
    Ok((bytes[4], dim, seed))
}

/// The feature mode a header's mode tag names at dimensionality `dim`.
fn mode_for_tag(mode_tag: u8, dim: usize) -> Option<HdFeatureMode> {
    match mode_tag {
        1 => Some(HdFeatureMode::hyper_hog(dim)),
        2 => Some(HdFeatureMode::encoded_classic(dim)),
        _ => None,
    }
}

/// Serialized length of an `HDM1` container holding `classes` vectors
/// of dimensionality `dim` (header + back-to-back `HDV1` records).
fn model_len(classes: usize, dim: usize) -> usize {
    8 + classes * (12 + dim.div_ceil(64) * 8)
}

/// [`HdPipeline::load_bytes`] without checksum enforcement: returns
/// the pipeline plus the loaded class vectors and the golden
/// checksums so an integrity guard can verify/quarantine/repair
/// instead of refusing a corrupted model outright.
///
/// # Errors
///
/// Returns a [`PersistError`] for structurally malformed buffers
/// (including a present-but-malformed trailer) — but never
/// [`PersistError::ChecksumMismatch`].
pub fn load_bytes_with_integrity(bytes: &[u8]) -> Result<LoadedModel, PersistError> {
    let (mode_tag, dim, seed) = decode_header(bytes)?;
    let mode = mode_for_tag(mode_tag, dim).ok_or(PersistError::UnknownMode(mode_tag))?;
    let model = BinaryHdModel::from_bytes(&bytes[MODEL_OFFSET..])?;
    if model.dim() != dim {
        return Err(PersistError::DimMismatch {
            header: dim,
            model: model.dim(),
        });
    }
    let trailer_at = MODEL_OFFSET + model_len(model.num_classes(), dim);
    let golden = match bytes.get(trailer_at..trailer_at + 4) {
        Some(magic) if magic == INTEGRITY_MAGIC => {
            let n = bytes
                .get(trailer_at + 4..trailer_at + 8)
                .map(|b| u32::from_le_bytes(b.try_into().expect("sized")) as usize)
                .ok_or(PersistError::BadTrailer)?;
            if n != model.num_classes() {
                return Err(PersistError::BadTrailer);
            }
            let sums = bytes
                .get(trailer_at + 8..trailer_at + 8 + n * 8)
                .ok_or(PersistError::BadTrailer)?;
            Some(
                sums.chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().expect("sized")))
                    .collect(),
            )
        }
        // No trailer (legacy file) or foreign trailing bytes — both
        // tolerated, exactly as HDM1 tolerates padding.
        _ => None,
    };
    let classes = model.classes().to_vec();
    let mut pipeline = HdPipeline::new(mode, seed);
    pipeline.install_binary_model(model);
    Ok(LoadedModel {
        pipeline,
        classes,
        golden,
    })
}

/// The load-time "model bytes" fault arm: flips bits across the class
/// hypervector **word payloads** of a serialized `HDP1` buffer,
/// leaving headers, magics and the integrity trailer intact, and
/// re-clearing padding bits past `dim` in the final word (set padding
/// is a structural corruption canary — `SerialError::DirtyPadding` —
/// not a soft error the integrity machinery is meant to absorb).
///
/// Class `c` is struck at fault site `derive_seed(salt, c)`, so the
/// corruption is a pure function of the plan and the class index.
/// Returns the number of bits actually flipped.
///
/// # Errors
///
/// Returns [`PersistError`] when the buffer is not a structurally
/// valid `HDP1` file.
pub fn corrupt_model_payload(bytes: &mut [u8], plan: &FaultPlan) -> Result<u64, PersistError> {
    let (_, dim, _) = decode_header(bytes)?;
    let model = &bytes[MODEL_OFFSET..];
    if model.len() < 8 || &model[..4] != b"HDM1" {
        return Err(PersistError::Model(ModelIoError::BadMagic));
    }
    let n = u32::from_le_bytes(model[4..8].try_into().expect("sized")) as usize;
    let words = dim.div_ceil(64);
    let rec = 12 + words * 8;
    let mut flips = 0u64;
    for c in 0..n {
        let start = MODEL_OFFSET + 8 + c * rec + 12;
        let end = start + words * 8;
        let region = bytes
            .get_mut(start..end)
            .ok_or(PersistError::Model(ModelIoError::Truncated))?;
        flips += plan.corrupt_bytes(derive_seed(MODEL_BYTES_SALT, c as u64), region);
        let rem = dim % 64;
        if rem != 0 {
            let last = end - 8;
            let w = u64::from_le_bytes(bytes[last..end].try_into().expect("sized"));
            let masked = w & ((1u64 << rem) - 1);
            flips -= u64::from((w ^ masked).count_ones());
            bytes[last..end].copy_from_slice(&masked.to_le_bytes());
        }
    }
    Ok(flips)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdface_datasets::face2_spec;
    use hdface_learn::TrainConfig;

    fn trained(mode: HdFeatureMode, seed: u64) -> (HdPipeline, hdface_datasets::Dataset) {
        let ds = face2_spec().at_size(32).scaled(64).generate(seed);
        let mut p = HdPipeline::new(mode, seed);
        let (train, _) = ds.split(0.75);
        p.train(&train, &TrainConfig::default()).unwrap();
        (p, ds)
    }

    #[test]
    fn roundtrip_preserves_predictions_for_every_mode() {
        for (mode, tag_seed) in [
            (HdFeatureMode::hyper_hog(2048), 41u64),
            (HdFeatureMode::encoded_classic(2048), 42),
        ] {
            let (mut original, ds) = trained(mode, tag_seed);
            let bytes = original.save_bytes().unwrap();
            let mut reloaded = HdPipeline::load_bytes(&bytes).unwrap();

            // The rebuilt extractor is the saved one: seeded features
            // agree bit for bit.
            let (_, test) = ds.split(0.75);
            for s in test.samples().iter().take(3) {
                assert_eq!(
                    reloaded.extract_seeded(&s.image, 7).unwrap(),
                    original.extract_seeded(&s.image, 7).unwrap(),
                    "mode seed {tag_seed}: features moved across the round trip"
                );
            }

            // The reloaded classifier is the binary quantization of
            // the trained one, so compare accuracy.
            let a = original.evaluate(&test).unwrap();
            let b = reloaded.evaluate(&test).unwrap();
            assert!(
                (a - b).abs() <= 0.25,
                "mode seed {tag_seed}: accuracies diverged {a} vs {b}"
            );
            assert!(b >= 0.55, "reloaded pipeline lost the model ({b})");
        }
    }

    #[test]
    fn untrained_pipelines_do_not_save() {
        let p = HdPipeline::new(HdFeatureMode::encoded_classic(512), 1);
        assert!(matches!(p.save_bytes(), Err(PipelineError::NotTrained)));
    }

    #[test]
    fn malformed_buffers_are_rejected() {
        assert!(matches!(
            HdPipeline::load_bytes(b"NOPE"),
            Err(PersistError::BadHeader)
        ));
        let (p, _) = trained(HdFeatureMode::encoded_classic(512), 44);
        let mut bytes = p.save_bytes().unwrap();
        bytes[4] = 99; // unknown mode tag
        assert!(matches!(
            HdPipeline::load_bytes(&bytes),
            Err(PersistError::UnknownMode(99))
        ));
        let bytes = p.save_bytes().unwrap();
        assert!(HdPipeline::load_bytes(&bytes[..20]).is_err());
    }

    #[test]
    fn model_hash_tracks_class_words_exactly() {
        let (p, _) = trained(HdFeatureMode::encoded_classic(512), 45);
        let bytes = p.save_bytes().unwrap();
        let loaded = load_bytes_with_integrity(&bytes).unwrap();
        let h0 = model_hash(&loaded.classes);
        // Same bytes → same hash; save is deterministic.
        let again = load_bytes_with_integrity(&p.save_bytes().unwrap()).unwrap();
        assert_eq!(h0, model_hash(&again.classes));
        // One flipped bit anywhere changes the hash.
        let mut mutated = loaded.classes.clone();
        mutated[0].flip(17);
        assert_ne!(h0, model_hash(&mutated));
        assert_ne!(
            model_hash(&loaded.classes[..1]),
            model_hash(&loaded.classes)
        );
    }

    #[test]
    fn error_display_and_source() {
        let e = PersistError::DimMismatch {
            header: 512,
            model: 256,
        };
        assert!(e.to_string().contains("512"));
        assert!(e.source().is_none());
        let m: PersistError = ModelIoError::BadMagic.into();
        assert!(m.source().is_some());
    }
}
