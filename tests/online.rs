//! Integration tests for the online adaptive learning subsystem:
//! boot `hdface serve` with a model registry, stream labeled feedback
//! over real sockets, and pin the subsystem's contracts — gated
//! promotion with atomic hot-swap, rejection of poisoned feedback,
//! bit-identical rollback, and replay determinism at any scan thread
//! count.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use hdface::datasets::face2_spec;
use hdface::detector::{DetectorConfig, FaceDetector};
use hdface::engine::Engine;
use hdface::imaging::{write_pgm, GrayImage};
use hdface::learn::TrainConfig;
use hdface::online::{ModelRegistry, OnlineConfig, VersionStatus};
use hdface::pipeline::{HdFeatureMode, HdPipeline};
use hdface::serve::{ServeConfig, Server, ServerHandle};

/// Serialized binary model shared by every test (trained once).
fn model_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let data = face2_spec().at_size(32).scaled(64).generate(17);
        let mut p = HdPipeline::new(HdFeatureMode::encoded_classic(1024), 17);
        p.train(&data, &TrainConfig::default()).unwrap();
        p.save_bytes().unwrap()
    })
}

/// The shadow-eval dataset seed every test's server is configured
/// with; feedback drawn from the same generated set with correct
/// labels makes promotion certain, inverted labels make rejection
/// certain (the gate is deterministic either way).
const SHADOW_SEED: u64 = 97;
const SHADOW_SAMPLES: usize = 24;

/// `(pgm bytes, label)` pairs matching the server's held-out shadow
/// set.
fn shadow_feedback() -> Vec<(Vec<u8>, usize)> {
    face2_spec()
        .at_size(32)
        .scaled(SHADOW_SAMPLES)
        .generate(SHADOW_SEED)
        .samples()
        .iter()
        .map(|s| {
            let mut pgm = Vec::new();
            write_pgm(&s.image, &mut pgm).unwrap();
            (pgm, s.label)
        })
        .collect()
}

/// A process-unique scratch registry directory (removed on re-entry,
/// best-effort removed by the OS temp cleaner otherwise).
fn scratch_registry(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "hdface-online-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn online_config(dir: &std::path::Path, snapshot_every: usize) -> OnlineConfig {
    let mut cfg = OnlineConfig::new(dir.to_path_buf());
    cfg.snapshot_every = snapshot_every;
    cfg.shadow_samples = SHADOW_SAMPLES;
    cfg.shadow_seed = SHADOW_SEED;
    cfg
}

fn start_online_server(
    dir: &std::path::Path,
    snapshot_every: usize,
    engine: Engine,
) -> ServerHandle {
    let pipeline = HdPipeline::load_bytes(model_bytes()).unwrap();
    let detector = FaceDetector::new(
        pipeline,
        DetectorConfig {
            stride_fraction: 0.5,
            ..DetectorConfig::default()
        },
    );
    Server::start(
        detector,
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            engine,
            online: Some(online_config(dir, snapshot_every)),
            ..ServeConfig::default()
        },
    )
    .unwrap()
}

type HttpResponse = (u16, Vec<(String, String)>, Vec<u8>);

/// One blocking HTTP exchange with optional extra headers.
fn http_with(
    addr: SocketAddr,
    method: &str,
    path: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> HttpResponse {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    // `Connection: close` ends the exchange at the response, so the
    // read to EOF does not wait out the server's idle timeout.
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n");
    for (k, v) in extra_headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    conn.write_all(head.as_bytes()).expect("write head");
    conn.write_all(body).expect("write body");
    conn.flush().unwrap();

    let mut raw = Vec::new();
    conn.read_to_end(&mut raw).expect("read response");
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator");
    let head = std::str::from_utf8(&raw[..head_end]).expect("ASCII head");
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_owned()))
        .collect();
    (status, headers, raw[head_end + 4..].to_vec())
}

fn http(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> HttpResponse {
    http_with(addr, method, path, &[], body)
}

fn body_text(body: &[u8]) -> String {
    String::from_utf8(body.to_vec()).expect("JSON body is UTF-8")
}

/// Reads one numeric `"name":N` gauge out of a JSON document.
fn gauge(json: &str, name: &str) -> u64 {
    json.split(&format!("\"{name}\":"))
        .nth(1)
        .and_then(|t| t.split(&[',', '}'][..]).next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no {name} gauge in {json}"))
}

/// Posts one labeled feedback sample, asserting the `202` accept.
fn post_feedback(addr: SocketAddr, pgm: &[u8], label: usize) {
    let label = label.to_string();
    let (status, _, body) = http_with(addr, "POST", "/feedback", &[("X-Label", &label)], pgm);
    assert_eq!(status, 202, "{}", body_text(&body));
    assert!(body_text(&body).contains("\"status\":\"queued\""));
}

/// Polls `GET /metrics` until `predicate` holds on the body.
fn wait_for_metrics(addr: SocketAddr, what: &str, predicate: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (_, _, body) = http(addr, "GET", "/metrics", b"");
        let text = body_text(&body);
        if predicate(&text) {
            return text;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}; last metrics: {text}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The deterministic part of a `/classify` response (everything but
/// the timing field) — byte-equal iff the serving model is bit-equal.
fn classify_scores(addr: SocketAddr, crop: &[u8]) -> String {
    let (status, _, body) = http(addr, "POST", "/classify", crop);
    assert_eq!(status, 200, "{}", body_text(&body));
    body_text(&body)
        .split("\"scan_micros\"")
        .next()
        .unwrap()
        .to_owned()
}

/// The detections array of a `/detect` response (timing stripped).
fn detect_payload(addr: SocketAddr, scene: &[u8]) -> String {
    let (status, _, body) = http(addr, "POST", "/detect", scene);
    assert_eq!(status, 200, "{}", body_text(&body));
    let text = body_text(&body);
    text.split("\"detections\":").nth(1).unwrap().to_owned()
}

#[test]
fn feedback_requires_online_mode_and_valid_labels() {
    // A server without a registry: /feedback is absent, /model
    // reports the boot identity with a null version.
    let pipeline = HdPipeline::load_bytes(model_bytes()).unwrap();
    let detector = FaceDetector::new(pipeline, DetectorConfig::default());
    let offline = Server::start(
        detector,
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let (sample, label) = shadow_feedback().remove(0);
    let (status, _, _) = http_with(
        offline.addr(),
        "POST",
        "/feedback",
        &[("X-Label", "0")],
        &sample,
    );
    assert_eq!(status, 404);
    let (status, _, body) = http(offline.addr(), "GET", "/model", b"");
    assert_eq!(status, 200);
    let text = body_text(&body);
    assert!(text.contains("\"version\":null"), "{text}");
    assert!(text.contains("\"registry_generation\":null"), "{text}");
    offline.shutdown();

    // With a registry: label validation happens at the endpoint.
    let dir = scratch_registry("validate");
    let handle = start_online_server(&dir, 8, Engine::new(1));
    let addr = handle.addr();
    let (status, _, _) = http(addr, "POST", "/feedback", &sample);
    assert_eq!(status, 400, "missing X-Label must be rejected");
    let (status, _, _) = http_with(addr, "POST", "/feedback", &[("X-Label", "face")], &sample);
    assert_eq!(status, 400, "non-numeric label must be rejected");
    let (status, _, _) = http_with(addr, "POST", "/feedback", &[("X-Label", "9")], &sample);
    assert_eq!(status, 400, "out-of-range label must be rejected");
    let (status, _, _) = http_with(addr, "POST", "/feedback", &[("X-Label", "0")], b"not a pgm");
    assert_eq!(status, 400, "non-PGM body must be rejected");
    let (status, _, _) = http(addr, "GET", "/feedback", b"");
    assert_eq!(status, 405);
    // A sample that is not the 32x32 detector window would train in
    // another feature space (or queue a huge extraction): refused
    // before anything is queued.
    for side in [16, 64] {
        let mut off_size = Vec::new();
        write_pgm(&GrayImage::new(side, side), &mut off_size).unwrap();
        let label = ("X-Label", "0");
        let (status, _, body) = http_with(addr, "POST", "/feedback", &[label], &off_size);
        assert_eq!(status, 400, "{side}x{side}: {}", body_text(&body));
    }
    let (_, _, body) = http(addr, "GET", "/metrics", b"");
    assert_eq!(gauge(&body_text(&body), "samples_ingested"), 0);
    post_feedback(addr, &sample, label);

    // The online identity threads through /healthz, /model and
    // /metrics consistently.
    let (status, _, body) = http(addr, "GET", "/healthz", b"");
    assert_eq!(status, 200);
    let health = body_text(&body);
    assert!(health.contains("\"model_version\":1"), "{health}");
    assert!(health.contains("\"model_hash\":\""), "{health}");
    let (_, _, body) = http(addr, "GET", "/model", b"");
    let model = body_text(&body);
    assert!(model.contains("\"version\":1"), "{model}");
    let (_, _, body) = http(addr, "GET", "/metrics", b"");
    let metrics = body_text(&body);
    assert!(metrics.contains("\"online\":{"), "{metrics}");
    assert!(gauge(&metrics, "samples_ingested") >= 1, "{metrics}");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn promotion_hot_swaps_and_rollback_restores_v0_bit_identically() {
    let dir = scratch_registry("e2e");
    let feedback = shadow_feedback();
    let scene = {
        let data = face2_spec().at_size(64).scaled(2).generate(5);
        let mut pgm = Vec::new();
        write_pgm(&data.samples()[0].image, &mut pgm).unwrap();
        pgm
    };
    let crop = feedback[0].0.clone();

    // Boot: the empty registry is seeded with the model as v1.
    let handle = start_online_server(&dir, 8, Engine::new(2));
    let addr = handle.addr();
    let (_, _, body) = http(addr, "GET", "/model", b"");
    let model_v1 = body_text(&body);
    assert!(model_v1.contains("\"version\":1"), "{model_v1}");
    let hash_v1 = model_v1
        .split("\"hash\":\"")
        .nth(1)
        .and_then(|t| t.split('"').next())
        .expect("hash in /model")
        .to_owned();
    let scores_v1 = classify_scores(addr, &crop);
    let detect_v1 = detect_payload(addr, &scene);

    // Feedback drawn from the shadow-eval set with correct labels:
    // candidates trained on it cannot score below the live model on
    // it, so the gate promotes.
    for (pgm, label) in &feedback {
        post_feedback(addr, pgm, *label);
    }
    let metrics = wait_for_metrics(addr, "a promotion", |m| gauge(m, "versions_promoted") >= 1);
    assert!(gauge(&metrics, "swaps") >= 1, "{metrics}");
    assert!(
        gauge(&metrics, "samples_trained") >= 8,
        "snapshot fired before 8 samples? {metrics}"
    );
    assert!(metrics.contains("\"swap_ns\":{\"count\":"), "{metrics}");

    // The hot-swap changed the serving identity and the served bits.
    let (_, _, body) = http(addr, "GET", "/model", b"");
    let model_v2 = body_text(&body);
    assert!(!model_v2.contains("\"version\":1"), "{model_v2}");
    assert!(!model_v2.contains(&hash_v1), "hash must change: {model_v2}");
    let scores_v2 = classify_scores(addr, &crop);
    assert_ne!(
        scores_v1, scores_v2,
        "promoted model must answer with different scores"
    );
    // /healthz agrees with /model about what is live.
    let (_, _, body) = http(addr, "GET", "/healthz", b"");
    let health = body_text(&body);
    assert!(!health.contains(&hash_v1), "{health}");
    handle.shutdown();

    // Offline rollback retargets v1; a restarted server must
    // reproduce the v0 responses bit-for-bit.
    let mut registry = ModelRegistry::open(&dir).unwrap();
    let latest = registry.latest_promoted().expect("promoted version").id;
    assert!(latest >= 2, "expected a promoted candidate, got v{latest}");
    registry.rollback(1).unwrap();
    drop(registry);

    let handle = start_online_server(&dir, 8, Engine::new(2));
    let addr = handle.addr();
    let (_, _, body) = http(addr, "GET", "/model", b"");
    let model_rb = body_text(&body);
    assert!(model_rb.contains("\"version\":1"), "{model_rb}");
    assert!(model_rb.contains(&hash_v1), "{model_rb}");
    assert_eq!(classify_scores(addr, &crop), scores_v1);
    assert_eq!(detect_payload(addr, &scene), detect_v1);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn poisoned_feedback_is_rejected_and_live_model_untouched() {
    let dir = scratch_registry("poison");
    let feedback = shadow_feedback();
    let crop = feedback[0].0.clone();

    let handle = start_online_server(&dir, 16, Engine::new(1));
    let addr = handle.addr();
    let scores_v1 = classify_scores(addr, &crop);

    // Inverted labels: a candidate trained on them collapses on the
    // shadow set, so the gate must reject it.
    for (pgm, label) in feedback.iter().take(16) {
        post_feedback(addr, pgm, 1 - *label);
    }
    let metrics = wait_for_metrics(addr, "the gate verdict", |m| {
        gauge(m, "versions_promoted") + gauge(m, "versions_rejected") >= 1
    });
    assert_eq!(
        gauge(&metrics, "versions_promoted"),
        0,
        "poisoned candidate must not be promoted: {metrics}"
    );
    assert!(gauge(&metrics, "versions_rejected") >= 1, "{metrics}");
    assert_eq!(gauge(&metrics, "swaps"), 0, "{metrics}");

    // The live model never changed.
    let (_, _, body) = http(addr, "GET", "/model", b"");
    let model = body_text(&body);
    assert!(model.contains("\"version\":1"), "{model}");
    assert_eq!(classify_scores(addr, &crop), scores_v1);
    handle.shutdown();

    // The rejected candidate is on disk for forensics, and a restart
    // still installs v1.
    let registry = ModelRegistry::open(&dir).unwrap();
    assert_eq!(registry.latest_promoted().unwrap().id, 1);
    assert!(
        registry
            .list()
            .iter()
            .any(|r| r.status == VersionStatus::Rejected),
        "{:?}",
        registry.list()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_is_deterministic_across_scan_thread_counts() {
    let feedback = shadow_feedback();
    // (id, parent hash, hash, status, samples) per registry version.
    type Row = (u64, u64, u64, VersionStatus, u64);
    let mut manifests: Vec<Vec<Row>> = Vec::new();
    for threads in [1usize, 2, 8] {
        let dir = scratch_registry(&format!("replay{threads}"));
        let handle = start_online_server(&dir, 8, Engine::new(threads));
        let addr = handle.addr();
        // Sequential posts fix the arrival order; shutdown drains the
        // feedback queue through the trainer before joining it, so
        // every snapshot lands in the registry.
        for (pgm, label) in &feedback {
            post_feedback(addr, pgm, *label);
        }
        handle.shutdown();
        let registry = ModelRegistry::open(&dir).unwrap();
        manifests.push(
            registry
                .list()
                .iter()
                .map(|r| (r.id, r.parent, r.hash, r.status, r.samples))
                .collect(),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        manifests[0].len() >= 3,
        "24 samples at snapshot_every=8 must yield v1 + 2 changed candidates: {:?}",
        manifests[0]
    );
    // A snapshot that reproduces its parent's classes is no version.
    for &(id, parent, hash, _, _) in &manifests[0][1..] {
        assert_ne!(hash, parent, "v{id} republished its parent's classes");
    }
    assert_eq!(
        manifests[0], manifests[1],
        "registry diverged between 1 and 2 scan threads"
    );
    assert_eq!(
        manifests[0], manifests[2],
        "registry diverged between 1 and 8 scan threads"
    );
}
