//! End-to-end train / evaluate pipelines in the paper's three
//! configurations.

use std::error::Error;
use std::fmt;
use std::sync::OnceLock;

use hdface_baselines::{BaselineError, LinearSvm, Mlp, MlpConfig, SvmConfig};
use hdface_datasets::Dataset;
use hdface_hdc::{BitVector, HdcRng, SeedableRng};
use hdface_hog::{ClassicHog, HogConfig, HyperHog, HyperHogConfig, HyperHogError};
use hdface_imaging::GrayImage;
use hdface_learn::{
    FeatureEncoder, HdClassifier, LearnError, ProjectionEncoder, TrainConfig, TrainReport,
};

use crate::engine::{derive_seed, Engine};

/// Salts separating the per-sample stochastic streams of the dataset
/// extraction and evaluation scans (so a sample extracted during
/// training never shares a mask stream with its evaluation pass).
const EXTRACT_STREAM_SALT: u64 = 0x7d0f_66ae_f2c1_3b55;
const EVAL_STREAM_SALT: u64 = 0x3ac9_55e1_90d7_421b;

/// Samples grouped into one evaluation task: each chunk is encoded
/// sample by sample and then classified through one
/// [`HdClassifier::predict_batch`] call, which rides the blocked SIMD
/// Hamming kernels on deployed binary models. Streams are keyed off
/// the global sample index, so chunking never changes the verdicts.
const EVAL_SAMPLES_PER_TASK: usize = 32;

/// Errors raised by the end-to-end pipelines.
#[derive(Debug)]
#[non_exhaustive]
pub enum PipelineError {
    /// Hyperdimensional feature extraction failed.
    Feature(HyperHogError),
    /// HDC learning failed.
    Learn(LearnError),
    /// A float baseline failed.
    Baseline(BaselineError),
    /// The pipeline was asked to predict/evaluate before training.
    NotTrained,
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Feature(e) => write!(f, "feature extraction failed: {e}"),
            PipelineError::Learn(e) => write!(f, "hdc learning failed: {e}"),
            PipelineError::Baseline(e) => write!(f, "baseline failed: {e}"),
            PipelineError::NotTrained => write!(f, "pipeline has not been trained yet"),
        }
    }
}

impl Error for PipelineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PipelineError::Feature(e) => Some(e),
            PipelineError::Learn(e) => Some(e),
            PipelineError::Baseline(e) => Some(e),
            PipelineError::NotTrained => None,
        }
    }
}

impl From<HyperHogError> for PipelineError {
    fn from(e: HyperHogError) -> Self {
        PipelineError::Feature(e)
    }
}

impl From<LearnError> for PipelineError {
    fn from(e: LearnError) -> Self {
        PipelineError::Learn(e)
    }
}

impl From<BaselineError> for PipelineError {
    fn from(e: BaselineError) -> Self {
        PipelineError::Baseline(e)
    }
}

/// How an [`HdPipeline`] turns images into hypervectors: exactly what
/// an `HDP1` header records besides the seed (its mode tag and `D`).
/// Every other extractor parameter is the paper's.
#[derive(Debug, Clone)]
pub enum HdFeatureMode {
    /// The paper's contribution: HOG computed entirely in hyperspace.
    HyperHog {
        /// Hypervector dimensionality.
        dim: usize,
    },
    /// Configuration (1): classic float HOG followed by a
    /// random-projection HDC encoder.
    EncodedClassicHog {
        /// Hypervector dimensionality.
        dim: usize,
    },
}

impl HdFeatureMode {
    /// The HD-HOG mode at dimensionality `dim`.
    #[must_use]
    pub fn hyper_hog(dim: usize) -> Self {
        HdFeatureMode::HyperHog { dim }
    }

    /// The encoded-classic mode at dimensionality `dim`.
    #[must_use]
    pub fn encoded_classic(dim: usize) -> Self {
        HdFeatureMode::EncodedClassicHog { dim }
    }

    /// Hypervector dimensionality this mode produces.
    #[must_use]
    pub fn dim(&self) -> usize {
        match *self {
            HdFeatureMode::HyperHog { dim } | HdFeatureMode::EncodedClassicHog { dim } => dim,
        }
    }
}

enum HdExtractor {
    Hyper(Box<HyperHog>),
    /// Classic HOG plus a lazily built encoder (its input length is
    /// only known once the first image fixes the cell grid). The
    /// `OnceLock` lets concurrent workers race to initialize it: the
    /// construction is deterministic in `(input_len, dim, seed)`, so
    /// whichever worker wins installs the same encoder any other
    /// would have.
    Encoded {
        hog: ClassicHog,
        dim: usize,
        seed: u64,
        encoder: OnceLock<ProjectionEncoder>,
    },
}

/// An end-to-end hyperdimensional pipeline: image → feature
/// hypervector → HDC classifier.
pub struct HdPipeline {
    extractor: HdExtractor,
    classifier: Option<HdClassifier>,
    num_classes: usize,
    dim: usize,
    seed: u64,
    rng: HdcRng,
}

impl HdPipeline {
    /// Creates an untrained pipeline; `seed` drives every random
    /// choice (basis, masks, codebooks, training shuffles).
    #[must_use]
    pub fn new(mode: HdFeatureMode, seed: u64) -> Self {
        let dim = mode.dim();
        let extractor = match mode {
            HdFeatureMode::HyperHog { dim } => {
                HdExtractor::Hyper(Box::new(HyperHog::new(HyperHogConfig::with_dim(dim), seed)))
            }
            HdFeatureMode::EncodedClassicHog { dim } => HdExtractor::Encoded {
                hog: ClassicHog::new(HogConfig::paper()),
                dim,
                seed,
                encoder: OnceLock::new(),
            },
        };
        HdPipeline {
            extractor,
            classifier: None,
            num_classes: 0,
            dim,
            seed,
            rng: HdcRng::seed_from_u64(seed ^ 0x1234_5678_9abc_def0),
        }
    }

    /// The seed the pipeline was created with (reconstructs the whole
    /// extractor state; see the persistence module).
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Byte tag of the feature mode (`HDP1` header field).
    #[must_use]
    pub(crate) fn mode_tag(&self) -> u8 {
        match &self.extractor {
            HdExtractor::Hyper(_) => 1,
            HdExtractor::Encoded { .. } => 2,
        }
    }

    /// Installs a deployed binary model as the classifier (used when
    /// loading a persisted pipeline).
    pub fn install_binary_model(&mut self, model: hdface_learn::BinaryHdModel) {
        self.num_classes = model.num_classes();
        self.classifier = Some(HdClassifier::from_binary(&model));
    }

    /// The pipeline's classifier quantized to a binary model with the
    /// same seed-fixed tie-break RNG `save_bytes` uses — the one
    /// quantization every consumer (persistence, the serving guard's
    /// bootstrap, the online trainer's v0 baseline) must share so
    /// resident class words are bit-identical to the persisted file.
    /// For a pipeline loaded from a binary model the ±1 components
    /// have no threshold ties, so this reproduces the loaded words
    /// exactly. Returns `None` when no classifier is trained.
    #[must_use]
    pub(crate) fn quantized_model(&self) -> Option<hdface_learn::BinaryHdModel> {
        let clf = self.classifier()?;
        let mut rng = HdcRng::seed_from_u64(self.seed ^ 0x7e57_ab1e);
        Some(clf.to_binary(&mut rng))
    }

    /// Hypervector dimensionality of the pipeline.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Extracts the feature hypervector of one image.
    ///
    /// Hyperdimensional extraction advances the pipeline's own
    /// stochastic-mask stream, hence `&mut`; for reproducible
    /// extraction independent of call history use [`extract_seeded`].
    ///
    /// # Errors
    ///
    /// Propagates extraction failures (e.g. an image smaller than one
    /// HOG cell).
    ///
    /// [`extract_seeded`]: HdPipeline::extract_seeded
    pub fn extract(&mut self, image: &GrayImage) -> Result<BitVector, PipelineError> {
        // Per-window contrast normalization (every pipeline applies
        // it, keeping the comparison fair): gradients of low-contrast
        // windows would otherwise sit below the stochastic noise
        // floor.
        let image = image.normalized();
        if let HdExtractor::Hyper(h) = &mut self.extractor {
            return Ok(h.extract(&image)?);
        }
        self.extract_shared(&image, 0)
    }

    /// Extracts the feature hypervector of one image through shared
    /// read-only state, drawing stochastic masks from the dedicated
    /// stream `stream` instead of the pipeline's own generator.
    ///
    /// The same `(image, stream)` pair always produces the same bits,
    /// no matter how many times the pipeline was used before or how
    /// many threads call this concurrently — the determinism contract
    /// the parallel scans are built on. Features live in the same
    /// space as [`extract`](HdPipeline::extract)'s: basis, codebooks
    /// and slot keys are shared; only the mask stream differs.
    ///
    /// # Errors
    ///
    /// Propagates extraction failures.
    pub fn extract_seeded(
        &self,
        image: &GrayImage,
        stream: u64,
    ) -> Result<BitVector, PipelineError> {
        self.extract_shared(&image.normalized(), stream)
    }

    /// Shared-state extraction over an already normalized image.
    fn extract_shared(&self, image: &GrayImage, stream: u64) -> Result<BitVector, PipelineError> {
        match &self.extractor {
            HdExtractor::Hyper(h) => {
                let mut scratch = h.scratch_for_stream(stream);
                Ok(h.extract_with(image, &mut scratch)?)
            }
            HdExtractor::Encoded {
                hog,
                dim,
                seed,
                encoder,
            } => {
                // The same O(1) rescaling the float baselines use (the
                // projection encoder's bias spread assumes it).
                let features: Vec<f64> = hog.extract_vec(image).iter().map(|v| v * 8.0).collect();
                let enc =
                    encoder.get_or_init(|| ProjectionEncoder::new(features.len(), *dim, *seed));
                Ok(enc.encode(&features)?)
            }
        }
    }

    /// Pre-sizes the shared slot-key cache for images of the given
    /// geometry so subsequent [`extract_seeded`] calls (from any
    /// thread) never have to re-derive slot keys. Purely a warm-up:
    /// extraction is correct — and bit-identical — without it, paying
    /// one cold lookup instead (see
    /// [`key_cache_stats`](HdPipeline::key_cache_stats)).
    ///
    /// [`extract_seeded`]: HdPipeline::extract_seeded
    pub fn prepare(&self, width: usize, height: usize) {
        if let HdExtractor::Hyper(h) = &self.extractor {
            h.prepare_for_image(width, height);
        }
    }

    /// The hyperdimensional extractor, when the pipeline runs in
    /// hyper-HOG mode. The detector's level-cell cache is only
    /// available through it; encoded-classic pipelines return `None`
    /// and their scans extract every window on its own.
    #[must_use]
    pub fn hyper_extractor(&self) -> Option<&HyperHog> {
        match &self.extractor {
            HdExtractor::Hyper(h) => Some(h),
            HdExtractor::Encoded { .. } => None,
        }
    }

    /// Cumulative `(warm, cold)` slot-key cache lookups of the hyper
    /// extractor — warm lookups found every binding key already
    /// cached, cold ones had to derive and install keys. `(0, 0)` for
    /// encoded-classic pipelines, which have no slot keys.
    #[must_use]
    pub fn key_cache_stats(&self) -> (u64, u64) {
        self.hyper_extractor()
            .map_or((0, 0), HyperHog::key_cache_stats)
    }

    /// Extracts features for a whole dataset as `(hypervector, label)`
    /// pairs, fanning out across the default [`Engine`].
    ///
    /// Every worker reads the same shared extraction context (basis,
    /// codebooks, slot keys — features stay in one space) and each
    /// *sample* draws its masks from a stream derived from the
    /// pipeline seed and the sample index, so the output is
    /// bit-identical at any thread count, including 1.
    ///
    /// # Errors
    ///
    /// Propagates extraction failures.
    pub fn extract_dataset(
        &mut self,
        dataset: &Dataset,
    ) -> Result<Vec<(BitVector, usize)>, PipelineError> {
        self.extract_dataset_with(dataset, &Engine::from_env())
    }

    /// [`extract_dataset`](HdPipeline::extract_dataset) on an explicit
    /// engine (e.g. [`Engine::serial`] to pin the scan to one thread —
    /// the results are the same either way).
    ///
    /// # Errors
    ///
    /// Propagates extraction failures.
    pub fn extract_dataset_with(
        &mut self,
        dataset: &Dataset,
        engine: &Engine,
    ) -> Result<Vec<(BitVector, usize)>, PipelineError> {
        let base = derive_seed(self.seed, EXTRACT_STREAM_SALT);
        for s in dataset.samples() {
            self.prepare(s.image.width(), s.image.height());
        }
        let samples = dataset.samples();
        let this: &Self = self;
        engine
            .run(samples.len(), |i| {
                let s = &samples[i];
                let feature = this.extract_seeded(&s.image, derive_seed(base, i as u64))?;
                Ok((feature, s.label))
            })
            .into_iter()
            .collect()
    }

    /// Trains the classifier on a dataset.
    ///
    /// # Errors
    ///
    /// Propagates extraction and learning failures.
    pub fn train(
        &mut self,
        dataset: &Dataset,
        config: &TrainConfig,
    ) -> Result<TrainReport, PipelineError> {
        self.train_with(dataset, config, &Engine::from_env())
    }

    /// [`train`](HdPipeline::train) with the extraction scan on an
    /// explicit engine (e.g. [`Engine::serial`], or an
    /// [`Engine::new`] built from a CLI `--threads` flag — the
    /// trained model is the same either way).
    ///
    /// # Errors
    ///
    /// Propagates extraction and learning failures.
    pub fn train_with(
        &mut self,
        dataset: &Dataset,
        config: &TrainConfig,
        engine: &Engine,
    ) -> Result<TrainReport, PipelineError> {
        let samples = self.extract_dataset_with(dataset, engine)?;
        let mut clf = HdClassifier::new(dataset.num_classes(), self.dim);
        let report = clf.fit(&samples, config, &mut self.rng)?;
        self.classifier = Some(clf);
        self.num_classes = dataset.num_classes();
        Ok(report)
    }

    /// Trains directly on pre-extracted feature hypervectors.
    ///
    /// # Errors
    ///
    /// Propagates learning failures.
    pub fn train_on_features(
        &mut self,
        samples: &[(BitVector, usize)],
        num_classes: usize,
        config: &TrainConfig,
    ) -> Result<TrainReport, PipelineError> {
        let mut clf = HdClassifier::new(num_classes, self.dim);
        let report = clf.fit(samples, config, &mut self.rng)?;
        self.classifier = Some(clf);
        self.num_classes = num_classes;
        Ok(report)
    }

    /// Predicts the class of one image.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::NotTrained`] before training;
    /// propagates extraction failures.
    pub fn predict(&mut self, image: &GrayImage) -> Result<usize, PipelineError> {
        let feature = self.extract(image)?;
        let clf = self.classifier.as_ref().ok_or(PipelineError::NotTrained)?;
        Ok(clf.predict(&feature)?)
    }

    /// Classification accuracy on a dataset, scanned on the default
    /// [`Engine`]. Like every parallel path in the crate the result is
    /// bit-identical at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::NotTrained`] before training;
    /// propagates extraction failures.
    pub fn evaluate(&mut self, dataset: &Dataset) -> Result<f64, PipelineError> {
        self.evaluate_with(dataset, &Engine::from_env())
    }

    /// [`evaluate`](HdPipeline::evaluate) on an explicit engine.
    ///
    /// Samples are scanned in chunks of 32 (`EVAL_SAMPLES_PER_TASK`):
    /// each chunk is encoded one sample at a time (per-sample streams
    /// derived from the global sample index, so the features never
    /// depend on chunking) and classified through one
    /// [`HdClassifier::predict_batch`] call — the blocked SIMD path on
    /// deployed binary models, the per-sample scalar path otherwise.
    /// Verdicts are bit-identical at any thread count either way.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::NotTrained`] before training;
    /// propagates extraction failures.
    pub fn evaluate_with(
        &mut self,
        dataset: &Dataset,
        engine: &Engine,
    ) -> Result<f64, PipelineError> {
        let Some(clf) = self.classifier.as_ref() else {
            return Err(PipelineError::NotTrained);
        };
        if dataset.is_empty() {
            return Ok(0.0);
        }
        let base = derive_seed(self.seed, EVAL_STREAM_SALT);
        for s in dataset.samples() {
            self.prepare(s.image.width(), s.image.height());
        }
        let samples = dataset.samples();
        let this: &Self = self;
        let verdicts: Result<Vec<bool>, PipelineError> = engine
            .run_chunked(samples.len(), EVAL_SAMPLES_PER_TASK, |range| {
                let mut out: Vec<Result<bool, PipelineError>> = Vec::with_capacity(range.len());
                // (slot in `out`, feature, expected label) per sample
                // that encoded cleanly; failed slots keep their error.
                let mut encoded: Vec<(usize, BitVector, usize)> = Vec::new();
                for (slot, i) in range.enumerate() {
                    let s = &samples[i];
                    match this.extract_seeded(&s.image, derive_seed(base, i as u64)) {
                        Ok(feature) => {
                            out.push(Ok(false));
                            encoded.push((slot, feature, s.label));
                        }
                        Err(e) => out.push(Err(e)),
                    }
                }
                if encoded.is_empty() {
                    return out;
                }
                let queries: Vec<&BitVector> = encoded.iter().map(|(_, f, _)| f).collect();
                match clf.predict_batch(&queries) {
                    Ok(preds) => {
                        for ((slot, _, label), pred) in encoded.iter().zip(preds) {
                            out[*slot] = Ok(pred == *label);
                        }
                    }
                    // A batch-level failure surfaces where the
                    // per-sample path would have reported it first.
                    Err(e) => out[encoded[0].0] = Err(e.into()),
                }
                out
            })
            .into_iter()
            .collect();
        let correct = verdicts?.into_iter().filter(|&c| c).count();
        Ok(correct as f64 / samples.len() as f64)
    }

    /// The trained classifier, if any.
    #[must_use]
    pub fn classifier(&self) -> Option<&HdClassifier> {
        self.classifier.as_ref()
    }
}

impl fmt::Debug for HdPipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mode = match &self.extractor {
            HdExtractor::Hyper(_) => "hyper-hog",
            HdExtractor::Encoded { .. } => "classic-hog+encoder",
        };
        write!(
            f,
            "HdPipeline({mode}, D={}, trained={})",
            self.dim,
            self.classifier.is_some()
        )
    }
}

/// The DNN baseline pipeline: classic HOG → MLP.
pub struct DnnPipeline {
    hog: ClassicHog,
    hidden: (usize, usize),
    epochs: usize,
    seed: u64,
    mlp: Option<Mlp>,
}

impl DnnPipeline {
    /// Creates an untrained pipeline with the given hidden-layer
    /// sizes.
    #[must_use]
    pub fn new(hog: HogConfig, hidden: (usize, usize), epochs: usize, seed: u64) -> Self {
        DnnPipeline {
            hog: ClassicHog::new(hog),
            hidden,
            epochs,
            seed,
            mlp: None,
        }
    }

    /// Extracts the float features of a dataset.
    #[must_use]
    pub fn extract_dataset(&self, dataset: &Dataset) -> Vec<(Vec<f64>, usize)> {
        dataset
            .iter()
            .map(|s| {
                // HOG histogram values are O(0.01-0.1); rescaling to an
                // O(1) dynamic range is standard input conditioning for
                // gradient-trained models (it changes nothing for the
                // scale-free HDC encoders).
                let features = self
                    .hog
                    .extract_vec(&s.image.normalized())
                    .iter()
                    .map(|v| v * 8.0)
                    .collect();
                (features, s.label)
            })
            .collect()
    }

    /// Trains the MLP; returns the final-epoch mean loss.
    ///
    /// # Errors
    ///
    /// Propagates baseline training failures.
    pub fn train(&mut self, dataset: &Dataset) -> Result<f64, PipelineError> {
        let data = self.extract_dataset(dataset);
        let input = data.first().map_or(0, |(x, _)| x.len());
        let cfg = MlpConfig {
            input,
            hidden1: self.hidden.0,
            hidden2: self.hidden.1,
            output: dataset.num_classes(),
            lr: 0.02,
            momentum: 0.9,
            epochs: self.epochs,
            batch_size: 16,
            seed: self.seed,
        };
        let mut mlp = Mlp::new(&cfg);
        let loss = mlp.fit(&data)?;
        self.mlp = Some(mlp);
        Ok(loss)
    }

    /// Classification accuracy on a dataset.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::NotTrained`] before training.
    pub fn evaluate(&self, dataset: &Dataset) -> Result<f64, PipelineError> {
        let mlp = self.mlp.as_ref().ok_or(PipelineError::NotTrained)?;
        let data = self.extract_dataset(dataset);
        Ok(mlp.accuracy(&data)?)
    }

    /// The trained network, if any.
    #[must_use]
    pub fn mlp(&self) -> Option<&Mlp> {
        self.mlp.as_ref()
    }
}

/// The SVM baseline pipeline: classic HOG → one-vs-rest linear SVM.
pub struct SvmPipeline {
    hog: ClassicHog,
    epochs: usize,
    seed: u64,
    svm: Option<LinearSvm>,
}

impl SvmPipeline {
    /// Creates an untrained pipeline.
    #[must_use]
    pub fn new(hog: HogConfig, epochs: usize, seed: u64) -> Self {
        SvmPipeline {
            hog: ClassicHog::new(hog),
            epochs,
            seed,
            svm: None,
        }
    }

    /// Extracts the float features of a dataset.
    #[must_use]
    pub fn extract_dataset(&self, dataset: &Dataset) -> Vec<(Vec<f64>, usize)> {
        dataset
            .iter()
            .map(|s| {
                // HOG histogram values are O(0.01-0.1); rescaling to an
                // O(1) dynamic range is standard input conditioning for
                // gradient-trained models (it changes nothing for the
                // scale-free HDC encoders).
                let features = self
                    .hog
                    .extract_vec(&s.image.normalized())
                    .iter()
                    .map(|v| v * 8.0)
                    .collect();
                (features, s.label)
            })
            .collect()
    }

    /// Trains the SVM, selecting the regularization strength on a
    /// held-out fifth of the training set (the paper's baselines are
    /// "optimized to provide their maximum accuracy").
    ///
    /// # Errors
    ///
    /// Propagates baseline training failures.
    pub fn train(&mut self, dataset: &Dataset) -> Result<(), PipelineError> {
        let data = self.extract_dataset(dataset);
        let input = data.first().map_or(0, |(x, _)| x.len());
        let holdout = (data.len() / 5).max(1).min(data.len().saturating_sub(1));
        let (fit_part, val_part) = data.split_at(data.len() - holdout);

        let mut best: Option<(f64, f64)> = None; // (accuracy, lambda)
        for &lambda in &[1e-4, 1e-3, 1e-2, 3e-2] {
            let mut cfg = SvmConfig::new(input, dataset.num_classes());
            cfg.epochs = self.epochs;
            cfg.seed = self.seed;
            cfg.lambda = lambda;
            let mut svm = LinearSvm::new(&cfg);
            if fit_part.is_empty() {
                continue;
            }
            svm.fit(fit_part)?;
            let acc = svm.accuracy(val_part)?;
            if best.is_none_or(|(b, _)| acc > b) {
                best = Some((acc, lambda));
            }
        }

        let mut cfg = SvmConfig::new(input, dataset.num_classes());
        cfg.epochs = self.epochs;
        cfg.seed = self.seed;
        cfg.lambda = best.map_or(1e-3, |(_, l)| l);
        let mut svm = LinearSvm::new(&cfg);
        svm.fit(&data)?;
        self.svm = Some(svm);
        Ok(())
    }

    /// Classification accuracy on a dataset.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::NotTrained`] before training.
    pub fn evaluate(&self, dataset: &Dataset) -> Result<f64, PipelineError> {
        let svm = self.svm.as_ref().ok_or(PipelineError::NotTrained)?;
        let data = self.extract_dataset(dataset);
        Ok(svm.accuracy(&data)?)
    }

    /// The trained machine, if any.
    #[must_use]
    pub fn svm(&self) -> Option<&LinearSvm> {
        self.svm.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdface_datasets::face2_spec;

    fn tiny_dataset() -> Dataset {
        face2_spec().scaled(80).at_size(32).generate(3)
    }

    #[test]
    fn hd_hyper_pipeline_learns_face_vs_clutter() {
        let ds = tiny_dataset();
        let (train, test) = ds.split(0.75);
        let mut p = HdPipeline::new(HdFeatureMode::hyper_hog(4096), 1);
        p.train(&train, &TrainConfig::default()).unwrap();
        let acc = p.evaluate(&test).unwrap();
        assert!(acc >= 0.6, "hd pipeline accuracy {acc}");
    }

    #[test]
    fn encoded_pipeline_learns_face_vs_clutter() {
        let ds = tiny_dataset();
        let (train, test) = ds.split(0.75);
        let mut p = HdPipeline::new(HdFeatureMode::encoded_classic(4096), 2);
        p.train(&train, &TrainConfig::default()).unwrap();
        let acc = p.evaluate(&test).unwrap();
        assert!(acc >= 0.6, "encoded pipeline accuracy {acc}");
    }

    #[test]
    fn dnn_pipeline_learns() {
        let ds = tiny_dataset();
        let (train, test) = ds.split(0.75);
        let mut p = DnnPipeline::new(HogConfig::paper(), (64, 32), 40, 3);
        p.train(&train).unwrap();
        let acc = p.evaluate(&test).unwrap();
        assert!(acc > 0.6, "dnn accuracy {acc}");
        assert!(p.mlp().is_some());
    }

    #[test]
    fn svm_pipeline_learns() {
        let ds = tiny_dataset();
        let (train, test) = ds.split(0.75);
        let mut p = SvmPipeline::new(HogConfig::paper(), 40, 4);
        p.train(&train).unwrap();
        let acc = p.evaluate(&test).unwrap();
        assert!(acc > 0.6, "svm accuracy {acc}");
        assert!(p.svm().is_some());
    }

    #[test]
    fn untrained_pipelines_error() {
        let ds = tiny_dataset();
        let mut hd = HdPipeline::new(HdFeatureMode::hyper_hog(512), 0);
        assert!(matches!(hd.evaluate(&ds), Err(PipelineError::NotTrained)));
        assert!(matches!(
            hd.predict(&ds.samples()[0].image),
            Err(PipelineError::NotTrained)
        ));
        let dnn = DnnPipeline::new(HogConfig::paper(), (8, 8), 1, 0);
        assert!(matches!(dnn.evaluate(&ds), Err(PipelineError::NotTrained)));
        let svm = SvmPipeline::new(HogConfig::paper(), 1, 0);
        assert!(matches!(svm.evaluate(&ds), Err(PipelineError::NotTrained)));
    }

    #[test]
    fn parallel_and_serial_extraction_share_feature_space() {
        // Train via the (potentially parallel) dataset path, then
        // evaluate through serial per-image prediction: accuracy must
        // be far above chance, which fails if worker slot keys ever
        // diverge from the original extractor's.
        let ds = face2_spec().scaled(64).at_size(32).generate(9);
        let (train, test) = ds.split(0.75);
        let mut p = HdPipeline::new(HdFeatureMode::hyper_hog(4096), 9);
        p.train(&train, &TrainConfig::default()).unwrap();
        let acc = p.evaluate(&test).unwrap();
        assert!(acc >= 0.6, "cross-path accuracy {acc}");
    }

    #[test]
    fn batched_evaluation_matches_per_sample_prediction() {
        // The chunked predict_batch scan must agree with a hand-rolled
        // per-sample extract_seeded + predict loop, on the float
        // classifier straight out of training AND on the deployed
        // binary model (the bipolar fast path), at several thread
        // counts.
        let ds = tiny_dataset();
        let (train, test) = ds.split(0.75);
        let mut p = HdPipeline::new(HdFeatureMode::hyper_hog(1024), 11);
        p.train(&train, &TrainConfig::default()).unwrap();

        for make_binary in [false, true] {
            if make_binary {
                let model = p.quantized_model().unwrap();
                p.install_binary_model(model);
            }
            let base = derive_seed(p.seed(), EVAL_STREAM_SALT);
            let clf = p.classifier().unwrap();
            let mut correct = 0usize;
            for (i, s) in test.samples().iter().enumerate() {
                let f = p
                    .extract_seeded(&s.image, derive_seed(base, i as u64))
                    .unwrap();
                if clf.predict(&f).unwrap() == s.label {
                    correct += 1;
                }
            }
            let expected = correct as f64 / test.samples().len() as f64;
            for engine in [Engine::serial(), Engine::new(8)] {
                let acc = p.evaluate_with(&test, &engine).unwrap();
                assert_eq!(
                    acc.to_bits(),
                    expected.to_bits(),
                    "batched eval diverged (binary={make_binary})"
                );
            }
        }
    }

    #[test]
    fn feature_mode_dims() {
        assert_eq!(HdFeatureMode::hyper_hog(1024).dim(), 1024);
        assert_eq!(HdFeatureMode::encoded_classic(2048).dim(), 2048);
    }

    #[test]
    fn pipeline_debug() {
        let p = HdPipeline::new(HdFeatureMode::hyper_hog(256), 0);
        let s = format!("{p:?}");
        assert!(s.contains("hyper-hog") && s.contains("trained=false"));
    }

    #[test]
    fn error_display_and_source() {
        let e = PipelineError::NotTrained;
        assert!(e.to_string().contains("trained"));
        assert!(e.source().is_none());
        let e2: PipelineError = LearnError::NoClasses.into();
        assert!(e2.source().is_some());
    }
}
