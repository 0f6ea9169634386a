//! The shadow trainer: a single background thread that owns a private
//! float-accumulator copy of the class vectors and learns from
//! `POST /feedback` samples without ever touching the live model
//! until a candidate passes its gate.
//!
//! # Determinism contract
//!
//! Given the same feedback sequence (images + labels in arrival
//! order), the trainer produces bit-identical candidates, registry
//! contents and promotions at any `HDFACE_THREADS` setting:
//!
//! * samples are processed by **one** thread in queue (arrival)
//!   order, and sample *i* extracts with the pure stream
//!   `derive_seed(derive_seed(seed, FEEDBACK_STREAM_SALT), i)`;
//! * the paper's similarity-weighted update
//!   (`C_label += (1−δ)·H`, on mispredict `C_pred −= (1−δ_pred)·H`,
//!   via [`HdClassifier::update`]) is a pure function of the
//!   accumulator state and the feature;
//! * candidate *k* quantizes with the seed-fixed tie-break RNG
//!   `derive_seed(derive_seed(seed, SNAPSHOT_RNG_SALT), k)`;
//! * the held-out shadow set is generated from a fixed dataset seed
//!   and extracted with its own fixed streams, and the gate compares
//!   integer Hamming accuracies.
//!
//! # Promotion gate
//!
//! Every `snapshot_every` trained samples the shadow classifier is
//! quantized into a candidate. A candidate whose class words equal the
//! live model's is no new version: it is neither published nor
//! counted, nothing is swapped, and training goes on from the same
//! shadow accumulators. Any other candidate is evaluated against the
//! current live model on the held-out shadow set. "No worse than
//! current" (`candidate ≥ live`) promotes: the candidate is published
//! to the registry and hot-swapped into the [`IntegrityGuard`].
//! Anything worse is published as `rejected` for forensics and the
//! shadow accumulators reset to the live model, so poisoned feedback
//! cannot leak into the next window.
//!
//! [`IntegrityGuard`]: crate::integrity::IntegrityGuard

use crate::sync::PoisonFreeMutex;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use hdface_datasets::face2_spec;
use hdface_hdc::{BitVector, HdcRng, SeedableRng};
use hdface_imaging::GrayImage;
use hdface_learn::{BinaryHdModel, HdClassifier};

use crate::detector::FaceDetector;
use crate::engine::derive_seed;
use crate::online::registry::{ModelRegistry, PublishMeta, VersionStatus};
use crate::online::swap::{ActiveModel, ModelSwitch};
use crate::persist::{encode_model, model_hash};
use crate::serve::queue::BoundedQueue;

/// Salt separating per-feedback-sample mask streams from every other
/// use of the pipeline seed.
pub const FEEDBACK_STREAM_SALT: u64 = 0xfeed_bac4_57a2_ea19;

/// Salt for the held-out shadow set's extraction streams.
const SHADOW_STREAM_SALT: u64 = 0x5ad0_3e7a_11da_7a5e;

/// Salt for candidate quantization tie-break RNGs.
const SNAPSHOT_RNG_SALT: u64 = 0x5a95_40f5_ca9d_1da7;

/// One labeled feedback sample, parsed at the endpoint and queued for
/// the trainer.
#[derive(Debug, Clone)]
pub struct FeedbackSample {
    /// The window-sized grayscale image (same PGM parse as
    /// `/classify`; the endpoint refuses any other size).
    pub image: GrayImage,
    /// Class label in `0..num_classes` (validated at the endpoint).
    pub label: usize,
}

/// Online-learning configuration (CLI flags `--registry-dir`,
/// `--feedback-queue`, `--snapshot-every`, `--shadow-samples`,
/// `--shadow-seed`).
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Registry directory (created if absent).
    pub registry_dir: PathBuf,
    /// Bounded feedback-queue depth; `POST /feedback` beyond it sheds
    /// with `503` (clamped ≥ 1).
    pub feedback_queue: usize,
    /// Trained samples between candidate snapshots (clamped ≥ 1).
    pub snapshot_every: usize,
    /// Held-out shadow-eval set size (clamped ≥ 2).
    pub shadow_samples: usize,
    /// Dataset seed for the shadow-eval set.
    pub shadow_seed: u64,
}

impl OnlineConfig {
    /// Defaults for everything but the registry directory.
    #[must_use]
    pub fn new(registry_dir: PathBuf) -> Self {
        OnlineConfig {
            registry_dir,
            feedback_queue: 256,
            snapshot_every: 16,
            shadow_samples: 48,
            shadow_seed: 97,
        }
    }
}

/// Monotonic online-learning counters, rendered under `"online"` in
/// `GET /metrics`.
#[derive(Debug, Default)]
pub struct OnlineCounters {
    /// Feedback samples accepted into the queue (`202`).
    pub samples_ingested: AtomicU64,
    /// Feedback samples shed because the queue was full (`503`).
    pub samples_shed: AtomicU64,
    /// Samples the trainer has applied to the shadow accumulators.
    pub samples_trained: AtomicU64,
    /// Candidates that passed the gate and were hot-swapped live.
    pub versions_promoted: AtomicU64,
    /// Candidates that failed the gate.
    pub versions_rejected: AtomicU64,
    /// Registry writes that failed (I/O); the candidate is dropped
    /// (neither promoted nor rolled back) and training continues to
    /// the next snapshot interval.
    pub registry_errors: AtomicU64,
}

/// Everything the feedback endpoint, the metrics endpoints and the
/// trainer thread share.
#[derive(Debug)]
pub struct OnlineState {
    /// The configuration the server booted with.
    pub config: OnlineConfig,
    /// Bounded feedback queue (endpoint → trainer).
    pub queue: BoundedQueue<FeedbackSample>,
    /// Monotonic counters.
    pub counters: OnlineCounters,
    /// Active-model gauge + swap telemetry.
    pub switch: ModelSwitch,
    /// The registry, serialized behind a mutex (trainer + CLI-style
    /// maintenance share it).
    pub registry: PoisonFreeMutex<ModelRegistry>,
    /// Current manifest generation (mirrored out of the registry so
    /// metrics never block on a registry fsync).
    pub generation: AtomicU64,
    /// Class count feedback labels are validated against.
    pub num_classes: usize,
}

impl OnlineState {
    /// Bundles the shared state; `initial` is the model the server
    /// booted with (already installed in the guard).
    #[must_use]
    pub fn new(
        config: OnlineConfig,
        registry: ModelRegistry,
        initial: ActiveModel,
        num_classes: usize,
    ) -> Self {
        let generation = AtomicU64::new(registry.generation());
        OnlineState {
            queue: BoundedQueue::new(config.feedback_queue),
            counters: OnlineCounters::default(),
            switch: ModelSwitch::new(initial),
            registry: PoisonFreeMutex::new(registry),
            generation,
            num_classes,
            config,
        }
    }

    /// Renders the `"online"` section of `GET /metrics`.
    #[must_use]
    pub fn metrics_json(&self) -> String {
        let c = &self.counters;
        let active = self.switch.active();
        let fmt = |v: Option<u64>| v.map_or("null".to_owned(), |u| u.to_string());
        format!(
            "{{\"queue_depth\":{},\"queue_capacity\":{},\"samples_ingested\":{},\
             \"samples_shed\":{},\"samples_trained\":{},\"versions_promoted\":{},\
             \"versions_rejected\":{},\"registry_errors\":{},\"active_version\":{},\
             \"active_hash\":\"{:016x}\",\"registry_generation\":{},\"swaps\":{},\
             \"swap_ns\":{{\"count\":{},\"p50_ns\":{},\"p99_ns\":{}}}}}",
            self.queue.len(),
            self.queue.capacity(),
            c.samples_ingested.load(Ordering::Relaxed),
            c.samples_shed.load(Ordering::Relaxed),
            c.samples_trained.load(Ordering::Relaxed),
            c.versions_promoted.load(Ordering::Relaxed),
            c.versions_rejected.load(Ordering::Relaxed),
            c.registry_errors.load(Ordering::Relaxed),
            active.version,
            active.hash,
            self.generation.load(Ordering::Relaxed),
            self.switch.swaps(),
            self.switch.swap_ns.count(),
            fmt(self.switch.swap_ns.quantile(0.50)),
            fmt(self.switch.swap_ns.quantile(0.99)),
        )
    }
}

/// The trainer thread body: pops feedback until the queue closes and
/// drains, applying updates and running the snapshot/gate/promote
/// cycle. See the module docs for the determinism contract.
pub fn run(detector: &FaceDetector, state: &OnlineState) {
    let pipeline = detector.pipeline();
    let Some(guard) = detector.integrity() else {
        // Server::start always attaches a guard in online mode; a
        // guard-free call has nothing to swap into, so don't train.
        return;
    };
    // Baseline = whatever the guard is serving right now (the
    // registry's latest promoted version after boot).
    let mut live =
        BinaryHdModel::from_classes(guard.classes()).expect("guard holds a non-empty model");
    let mut shadow = HdClassifier::from_binary(&live);

    // Held-out shadow-eval set: fixed dataset seed, fixed extraction
    // streams, integer Hamming accuracies — the gate is exact.
    let window = detector.config().window;
    let eval_ds = face2_spec()
        .at_size(window)
        .scaled(state.config.shadow_samples.max(2))
        .generate(state.config.shadow_seed);
    let shadow_base = derive_seed(pipeline.seed(), SHADOW_STREAM_SALT);
    let eval: Vec<(BitVector, usize)> = eval_ds
        .samples()
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let f = pipeline
                .extract_seeded(&s.image, derive_seed(shadow_base, i as u64))
                .expect("shadow-set extraction is infallible for generated images");
            (f, s.label)
        })
        .collect();
    let mut live_acc = live.accuracy(&eval).expect("dims match by construction");

    let feedback_base = derive_seed(pipeline.seed(), FEEDBACK_STREAM_SALT);
    let snapshot_base = derive_seed(pipeline.seed(), SNAPSHOT_RNG_SALT);
    let snapshot_every = state.config.snapshot_every.max(1);
    let mut seq: u64 = 0;
    let mut since_snapshot = 0usize;
    let mut candidate_index: u64 = 0;

    while let Some(sample) = state.queue.pop() {
        // The stream is a pure function of the arrival index, so a
        // replayed sequence re-extracts identical features.
        let stream = derive_seed(feedback_base, seq);
        seq += 1;
        let Ok(feature) = pipeline.extract_seeded(&sample.image, stream) else {
            continue;
        };
        if shadow.update(&feature, sample.label, true).is_err() {
            continue;
        }
        state
            .counters
            .samples_trained
            .fetch_add(1, Ordering::Relaxed);
        since_snapshot += 1;
        if since_snapshot < snapshot_every {
            continue;
        }
        since_snapshot = 0;
        candidate_index += 1;

        // Quantize candidate k with its own fixed tie-break RNG.
        let mut rng = HdcRng::seed_from_u64(derive_seed(snapshot_base, candidate_index));
        let candidate = shadow.to_binary(&mut rng);
        if candidate.classes() == live.classes() {
            continue;
        }
        let cand_acc = candidate.accuracy(&eval).expect("dims match");
        let promote = cand_acc >= live_acc;

        let bytes = encode_model(
            pipeline.mode_tag(),
            pipeline.dim(),
            pipeline.seed(),
            &candidate,
        );
        let meta = PublishMeta {
            parent: model_hash(live.classes()),
            samples: seq,
            shadow_acc: Some(cand_acc),
            live_acc: Some(live_acc),
            status: if promote {
                VersionStatus::Promoted
            } else {
                VersionStatus::Rejected
            },
        };
        let published = {
            let mut registry = state.registry.lock();
            let r = registry.publish(&bytes, meta);
            if r.is_ok() {
                state
                    .generation
                    .store(registry.generation(), Ordering::Relaxed);
            }
            r.map(|id| (id, registry.generation()))
        };
        match published {
            Ok((id, generation)) => {
                if promote {
                    state.switch.hot_swap(
                        guard,
                        candidate.classes(),
                        None,
                        ActiveModel {
                            version: id,
                            hash: model_hash(candidate.classes()),
                            generation,
                        },
                    );
                    live = candidate;
                    live_acc = cand_acc;
                    state
                        .counters
                        .versions_promoted
                        .fetch_add(1, Ordering::Relaxed);
                } else {
                    // Discard the window that produced the failed
                    // candidate: learning restarts from the live
                    // model.
                    shadow.reset_to_binary(&live);
                    state
                        .counters
                        .versions_rejected
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(_) => {
                state
                    .counters
                    .registry_errors
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}
