//! Contracts of the level-cell extraction cache at the detector
//! level: a cached scan and a per-window scan of the same scene agree
//! on where the face is (the restructured stochastic stream is allowed
//! to differ in bits, not in answers), cache hits are accounted
//! honestly, and cached scans are invariant under the order windows
//! are visited in.

use std::sync::OnceLock;

use hdface::datasets::{face2_spec, render_face, Emotion, FaceParams};
use hdface::detector::{iou, DetectorConfig, FaceDetector};
use hdface::engine::{derive_seed, Engine};
use hdface::hdc::{BitVector, HdcRng, SeedableRng};
use hdface::imaging::{GrayImage, ImagePyramid, SlidingWindows, Window};
use hdface::learn::TrainConfig;
use hdface::pipeline::{HdFeatureMode, HdPipeline};
use proptest::prelude::*;

const WINDOW: usize = 32;
const FACE_AT: (usize, usize) = (16, 16);

/// The salt of the detector's per-window scan streams: window `i` of a
/// scan draws its masks from `derive_seed(derive_seed(seed, SALT), i)`.
const DETECT_STREAM_SALT: u64 = 0xdef0_1c7e_55ca_4b1d;

/// One trained hyper-HOG model shared (serialized) by every test in
/// this file: training dominates each test's cost otherwise.
///
/// The model must be strong enough that both a cached and a
/// per-window scan put their best box on the face, not merely near it:
/// the two draw different stochastic bits, so a weak model's top window
/// is decided by noise. `fixture_localizes_the_face_for_almost_every_seed`
/// sweeps the training seed to show the size is enough.
fn model_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| train_model(3))
}

/// The fixture model trained (data and pipeline) with `seed`: D = 8192
/// on 320 samples.
fn train_model(seed: u64) -> Vec<u8> {
    let data = face2_spec().at_size(WINDOW).scaled(320).generate(seed);
    let mut pipeline = HdPipeline::new(HdFeatureMode::hyper_hog(8192), seed);
    pipeline.train(&data, &TrainConfig::default()).unwrap();
    pipeline.save_bytes().unwrap()
}

fn make_detector(config: DetectorConfig) -> FaceDetector {
    FaceDetector::new(HdPipeline::load_bytes(model_bytes()).unwrap(), config)
}

/// The default detector, shared across tests.
fn detector() -> &'static FaceDetector {
    static DET: OnceLock<FaceDetector> = OnceLock::new();
    DET.get_or_init(|| make_detector(DetectorConfig::default()))
}

/// A flat scene with one rendered face pasted at [`FACE_AT`].
fn face_scene(size: usize) -> GrayImage {
    let mut rng = HdcRng::seed_from_u64(4);
    let face = render_face(
        WINDOW,
        &FaceParams::centered(WINDOW, Emotion::Neutral),
        &mut rng,
    );
    let mut scene = GrayImage::filled(size, size, 0.3);
    for y in 0..WINDOW {
        for x in 0..WINDOW {
            scene.set(FACE_AT.0 + x, FACE_AT.1 + y, face.get(x, y));
        }
    }
    scene
}

fn face_window() -> Window {
    Window {
        x: FACE_AT.0,
        y: FACE_AT.1,
        width: WINDOW,
        height: WINDOW,
    }
}

/// The best box of a per-window scan of `scene` at the default
/// geometry: every window of the pyramid extracted on its own with
/// [`HdPipeline::extract_seeded`] on the stream the detector gives it,
/// then scored by its face margin. Ties go to the earlier window, as in
/// the detector's NMS; `None` when no margin clears the threshold.
fn per_window_best(pipeline: &HdPipeline, scene: &GrayImage) -> Option<Window> {
    let config = DetectorConfig::default();
    let stride = ((WINDOW as f64 * config.stride_fraction).round() as usize).max(1);
    let pyramid = ImagePyramid::new(scene, config.pyramid_step, WINDOW).unwrap();
    let base = derive_seed(pipeline.seed(), DETECT_STREAM_SALT);
    let (mut windows, mut features) = (Vec::new(), Vec::new());
    for level in pyramid.iter() {
        for w in SlidingWindows::new(&level.image, WINDOW, WINDOW, stride) {
            let crop = level.image.crop(w.x, w.y, w.width, w.height).unwrap();
            let stream = derive_seed(base, windows.len() as u64);
            features.push(pipeline.extract_seeded(&crop, stream).unwrap());
            windows.push(level.to_original(w));
        }
    }
    let refs: Vec<&BitVector> = features.iter().collect();
    let margins = pipeline
        .classifier()
        .unwrap()
        .margin_batch(&refs, 1)
        .unwrap();
    let mut best: Option<(f64, Window)> = None;
    for (w, margin) in windows.into_iter().zip(margins) {
        if margin > config.score_threshold && best.is_none_or(|(top, _)| margin > top) {
            best = Some((margin, w));
        }
    }
    best.map(|(_, w)| w)
}

/// A cached scan and a per-window scan must both localize the embedded
/// face. Bit-level agreement between them is *not* required (the cache
/// normalizes contrast per level, a per-window scan per crop), so this
/// is the accuracy-parity gate from the design: divergent bits, same
/// answer.
#[test]
fn cached_and_per_window_modes_agree_on_the_face() {
    let scene = face_scene(64);
    let cached = detector().detect_with(&scene, &Engine::serial()).unwrap();
    let cached = cached
        .first()
        .expect("cached scan: no detections at all")
        .window;
    let per_window = per_window_best(detector().pipeline(), &scene)
        .expect("per-window scan: no detections at all");
    for (name, best) in [("cached", cached), ("per-window", per_window)] {
        let overlap = iou(best, face_window());
        assert!(overlap > 0.2, "{name}: best hit {best:?} misses the face");
    }
    // The two scans' best boxes overlap each other too.
    assert!(
        iou(cached, per_window) > 0.2,
        "scans disagree on location: {cached:?} vs {per_window:?}"
    );
}

/// The checks of `cached_and_per_window_modes_agree_on_the_face`, run
/// on the fixture trained with each of seeds 1–100. A fixture that
/// fails them for a sizeable share of seeds makes that test a coin
/// toss that any change to the stochastic draws can flip: at D = 2048
/// on 160 samples they failed for 32 of the 100. It prints the seeds
/// it misses, pass or fail. Slow, so run on demand: `cargo test
/// --release --test detector_cache -- --ignored --nocapture`.
#[test]
#[ignore = "trains 100 models"]
fn fixture_localizes_the_face_for_almost_every_seed() {
    let scene = face_scene(64);
    let engine = Engine::serial();
    let misses: Vec<u64> = (1..=100)
        .filter(|&seed| {
            let pipeline = HdPipeline::load_bytes(&train_model(seed)).unwrap();
            let det = FaceDetector::new(pipeline, DetectorConfig::default());
            let cached = det.detect_with(&scene, &engine).unwrap();
            match (
                cached.first().map(|d| d.window),
                per_window_best(det.pipeline(), &scene),
            ) {
                (Some(a), Some(b)) => {
                    iou(a, face_window()) <= 0.2 || iou(b, face_window()) <= 0.2 || iou(a, b) <= 0.2
                }
                _ => true,
            }
        })
        .collect();
    println!("misses the face for seeds {misses:?}");
    assert!(misses.len() <= 2, "misses the face for seeds {misses:?}");
}

/// With the default geometry (stride = window/2, a multiple of the
/// cell size) every window is cell-aligned, so a scan serves every
/// window from the cache.
#[test]
fn scan_stats_account_for_every_window() {
    let scene = face_scene(64);
    let engine = Engine::serial();

    let (dets, stats) = detector().detect_with_stats(&scene, &engine).unwrap();
    assert!(stats.cached_windows > 0, "{stats:?}");
    assert_eq!(stats.fallback_windows, 0, "{stats:?}");
    assert_eq!(dets, detector().detect_with(&scene, &engine).unwrap());
}

/// A stride that breaks cell alignment must *fall back*, not fail:
/// the scan still works and the stats show the unaligned windows paid
/// the per-window path.
#[test]
fn unaligned_stride_falls_back_per_window() {
    let det = make_detector(DetectorConfig {
        // stride = round(32 · 0.2) = 6, not a multiple of the
        // 8-pixel cell: most windows start off-grid.
        stride_fraction: 0.2,
        ..DetectorConfig::default()
    });
    let scene = face_scene(64);
    let (_, stats) = det.detect_with_stats(&scene, &Engine::serial()).unwrap();
    assert!(stats.fallback_windows > 0, "{stats:?}");
    // x = 0 windows are still aligned, so the cache serves some.
    assert!(stats.cached_windows > 0, "{stats:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Cached-mode detection is a pure function of the scene: however
    /// the windows are distributed over workers (and therefore in
    /// whatever order cells and windows are visited), the scan
    /// returns the serial scan's bits exactly.
    #[test]
    fn cached_scan_is_invariant_under_visit_order(
        threads in 2usize..12,
        scene_size in 48usize..80,
    ) {
        let scene = face_scene(scene_size);
        let reference = detector().detect_with(&scene, &Engine::serial()).unwrap();
        let shuffled = detector().detect_with(&scene, &Engine::new(threads)).unwrap();
        prop_assert_eq!(reference, shuffled);
    }
}
