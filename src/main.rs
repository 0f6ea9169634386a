//! `hdface` — command-line face detection with hyperdimensional
//! computing.
//!
//! ```text
//! hdface train  --out model.hdp [--dim 4096] [--seed 7] [--samples 160] [--mode hyper|encoded] [--threads N]
//! hdface detect --model model.hdp --image scene.pgm --out overlay.ppm [--threshold 0.0] [--stride 0.25] [--threads N]
//! hdface eval   --model model.hdp [--samples 80] [--seed 9] [--threads N]
//! hdface serve  --model model.hdp [--addr 127.0.0.1:8080] [--threads N] [--workers N] [--queue-depth N] [--registry-dir DIR]
//! hdface model  ls|publish|rollback|promote --registry-dir DIR [--model model.hdp] [--version N]
//! hdface demo
//! ```
//!
//! Models are `HDP1` files (see `hdface::persist`); images are binary
//! PGM in, PPM overlays out. `--threads` overrides the
//! `HDFACE_THREADS` environment variable for the scan engine; results
//! are bit-identical at any thread count. `train --dim` takes 1 to
//! 65536 (2¹⁶). A flag the subcommand does not accept, or one given
//! twice, is an error. `serve --registry-dir` switches on online
//! adaptive learning (see `hdface::online`):
//! `POST /feedback` samples feed a shadow trainer whose gated
//! candidates are versioned in the registry and hot-swapped live;
//! `hdface model` maintains that registry offline.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hdface::datasets::face2_spec;
use hdface::detector::{DetectorConfig, FaceDetector};
use hdface::engine::Engine;
use hdface::imaging::{read_pgm, write_pgm, write_ppm_overlay, GrayImage, Rgb};
use hdface::integrity::IntegrityGuard;
use hdface::learn::TrainConfig;
use hdface::loadgen::{self, LoadgenConfig};
use hdface::noise::{FaultPlan, FaultTargets};
use hdface::online::{ModelRegistry, OnlineConfig, PublishMeta, VersionRecord, VersionStatus};
use hdface::persist::{corrupt_model_payload, load_bytes_with_integrity, model_hash};
use hdface::pipeline::{HdFeatureMode, HdPipeline};
use hdface::serve::{ServeConfig, Server};

/// The flags each subcommand (and each `model` verb) accepts, without
/// the leading `--`, space-separated; `None` for an unknown command.
/// `detect` and `serve` share the fault-injection flags.
fn accepted_flags(cmd: &str) -> Option<&'static str> {
    Some(match cmd {
        "train" => "out dim seed samples mode threads",
        "detect" => {
            "model image out threshold stride threads \
             inject-bits inject-seed inject-targets replicas"
        }
        "eval" => "model samples seed threads",
        "serve" => {
            "model addr threads workers queue-depth threshold stride \
             scrub-interval-ms max-requests-per-conn idle-timeout-ms registry-dir \
             feedback-queue snapshot-every shadow-samples shadow-seed inject-bits \
             inject-seed inject-targets replicas"
        }
        "loadgen" => {
            "addr connections duration-secs rate keep-alive path method image \
             fail-on-errors shutdown"
        }
        "demo" => "",
        "model ls" => "registry-dir",
        "model publish" => "registry-dir model",
        "model rollback" | "model promote" => "registry-dir version",
        _ => return None,
    })
}

/// Minimal flag parser: `--key value` pairs after the subcommand.
struct Args {
    flags: Vec<(String, String)>,
}

impl Args {
    /// Parses `raw` for the command `cmd`, rejecting any flag `cmd`
    /// does not accept and any flag given twice, so a typo or a
    /// removed flag fails loudly instead of running with defaults.
    fn parse(cmd: &str, accepted: &str, raw: &[String]) -> Result<Self, String> {
        let mut flags: Vec<(String, String)> = Vec::new();
        let mut it = raw.iter();
        while let Some(k) = it.next() {
            let key = k
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {k}"))?;
            if !accepted.split_whitespace().any(|flag| flag == key) {
                return Err(format!("unknown flag --{key} for `hdface {cmd}`"));
            }
            if flags.iter().any(|(seen, _)| seen == key) {
                return Err(format!("--{key} given more than once"));
            }
            let value = it
                .next()
                .ok_or_else(|| format!("--{key} requires a value"))?;
            flags.push((key.to_owned(), value.clone()));
        }
        Ok(Args { flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse {v:?}")),
        }
    }

    /// Reads a count, refusing one above `max` before anything is
    /// allocated for it.
    fn count_at_most(&self, key: &str, default: usize, max: usize) -> Result<usize, String> {
        let n = self.get_or(key, default)?;
        if n > max {
            return Err(format!("--{key} must be at most {max}, got {n}"));
        }
        Ok(n)
    }

    /// [`count_at_most`](Self::count_at_most), refusing zero too.
    fn positive_count_at_most(
        &self,
        key: &str,
        default: usize,
        max: usize,
    ) -> Result<usize, String> {
        match self.count_at_most(key, default, max)? {
            0 => Err(format!("--{key} must be at least 1")),
            n => Ok(n),
        }
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("--{key} is required"))
    }
}

fn usage() -> String {
    "usage:\n  \
     hdface train  --out model.hdp [--dim 4096] [--seed 7] [--samples 160] [--mode hyper|encoded] [--threads N]\n  \
     hdface detect --model model.hdp --image scene.pgm --out overlay.ppm [--threshold 0.0] [--stride 0.25] [--threads N]\n  \
     hdface eval   --model model.hdp [--samples 80] [--seed 9] [--threads N]\n  \
     hdface serve  --model model.hdp [--addr 127.0.0.1:8080] [--threads N] [--workers 2] [--queue-depth 64] [--scrub-interval-ms 1000]\n  \
     hdface loadgen [--addr 127.0.0.1:8080] [--connections 4] [--duration-secs 10] [--rate RPS] [--keep-alive true] [--path /classify] [--image scene.pgm] [--fail-on-errors false] [--shutdown false]\n  \
     hdface model  ls       --registry-dir DIR\n  \
     hdface model  publish  --registry-dir DIR --model model.hdp\n  \
     hdface model  rollback --registry-dir DIR --version N\n  \
     hdface model  promote  --registry-dir DIR --version N\n  \
     hdface demo\n\n\
     keep-alive (serve):\n  \
     [--max-requests-per-conn 1024] [--idle-timeout-ms 5000]\n  \
     a connection closes after --max-requests-per-conn responses (1 closes after every\n  \
     response) or --idle-timeout-ms without a request\n\n\
     load generation (loadgen):\n  \
     drives N connections at an optional --rate (requests/s, split across connections)\n  \
     against a running server and prints a JSON report (achieved RPS, p50/p99 latency,\n  \
     2xx/503-shed/5xx/4xx/framing counts); --fail-on-errors true exits nonzero on any\n  \
     non-shed 5xx, 4xx or framing violation, or when no request succeeded (the CI soak\n  \
     gate); --shutdown true POSTs /shutdown afterwards; --path /classify posts a\n  \
     synthetic PGM unless --image is given\n\n\
     online learning (serve):\n  \
     [--registry-dir DIR] [--feedback-queue 256] [--snapshot-every 16] [--shadow-samples 48] [--shadow-seed 97]\n  \
     --registry-dir enables POST /feedback + the shadow trainer: every --snapshot-every\n  \
     trained samples a candidate model is gated against a held-out shadow set and, when\n  \
     no worse than the live model, versioned in DIR and hot-swapped with zero downtime\n\n\
     fault injection (detect and serve):\n  \
     [--inject-bits RATE] [--inject-seed S] [--inject-targets class,cells,bytes|all] [--replicas R]\n  \
     --inject-bits flips each targeted bit with probability RATE (deterministic in S);\n  \
     --replicas R keeps R copies of every class vector so the integrity scrubber can\n  \
     repair corruption by clean-copy or majority vote (R=1 disables repair)\n\n\
     panic chaos (serve):\n  \
     HDFACE_PANIC_INJECT=RATE panics ~RATE of handler requests (POST /detect, /classify,\n  \
     /feedback), deterministically over the request sequence; each injected panic is\n  \
     caught and answered 500 with a request id while the worker keeps serving — counters\n  \
     under \"panics\" in GET /metrics (caught, injected, worker_restarts, join_panics,\n  \
     poison_recoveries); see scripts/soak.sh and DESIGN.md s15 for the chaos soak"
        .to_owned()
}

/// The scan engine every subcommand shares: `--threads N` (1 to
/// [`MAX_THREADS`]) wins over the `HDFACE_THREADS` environment
/// variable, which wins over the detected hardware parallelism. Scans
/// are bit-identical at any setting. Every `cmd_*` reads it first, so
/// a refused count stops the command before any work starts.
fn engine_from_args(args: &Args) -> Result<Engine, String> {
    if args.get("threads").is_none() {
        return Ok(Engine::from_env());
    }
    let threads = args.positive_count_at_most("threads", 1, MAX_THREADS)?;
    Ok(Engine::new(threads))
}

/// The most OS threads one flag may start: `--threads` (every
/// subcommand), `serve --workers` and `loadgen --connections` each
/// start one thread per unit. Checked at the top of each `cmd_*`,
/// before any thread starts, because `serve` aborts on a failed spawn
/// and reaches one only after exhausting the host.
const MAX_THREADS: usize = 1024;

/// The largest `--dim` `hdface train` accepts: 2¹⁶, well past the
/// paper's 10k sweep and inside the HDP1 header's `u32`. Checked
/// before anything is allocated, so a typo cannot abort the process
/// on a failed allocation.
const MAX_TRAIN_DIM: usize = 1 << 16;

/// The largest `--samples` (`train`, `eval`) and `--shadow-samples`
/// (`serve`) accept: 2²⁰ synthetic windows, which holds FACE2's
/// nominal 522,441. Every window of the set is generated up front, so
/// a larger count could abort the process on a failed allocation.
const MAX_SAMPLES: usize = 1 << 20;

/// The largest `--replicas` (`detect`, `serve`) accepts. Each replica
/// is a full copy of the class vectors that every scrub pass re-reads;
/// 16 is far past the three a majority vote needs.
const MAX_REPLICAS: usize = 16;

fn cmd_train(args: &Args) -> Result<(), String> {
    let engine = engine_from_args(args)?;
    let out = args.require("out")?;
    let dim: usize = args.get_or("dim", 4096)?;
    if !(1..=MAX_TRAIN_DIM).contains(&dim) {
        return Err(format!(
            "--dim must be between 1 and {MAX_TRAIN_DIM}, got {dim}"
        ));
    }
    let seed: u64 = args.get_or("seed", 7)?;
    let samples = args.positive_count_at_most("samples", 160, MAX_SAMPLES)?;
    let mode = match args.get("mode").unwrap_or("encoded") {
        "hyper" => HdFeatureMode::hyper_hog(dim),
        "encoded" => HdFeatureMode::encoded_classic(dim),
        other => return Err(format!("--mode must be hyper or encoded, got {other}")),
    };

    eprintln!("generating {samples} synthetic face/no-face windows (seed {seed})…");
    let data = face2_spec().at_size(32).scaled(samples).generate(seed);
    let mut pipeline = HdPipeline::new(mode, seed);
    eprintln!("training (D = {dim}, {} threads)…", engine.threads());
    pipeline
        .train_with(&data, &TrainConfig::default(), &engine)
        .map_err(|e| e.to_string())?;
    let bytes = pipeline.save_bytes().map_err(|e| e.to_string())?;
    std::fs::write(out, &bytes).map_err(|e| e.to_string())?;
    eprintln!("wrote {} bytes to {out}", bytes.len());
    Ok(())
}

fn load_pipeline(args: &Args) -> Result<HdPipeline, String> {
    let path = args.require("model")?;
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    HdPipeline::load_bytes(&bytes).map_err(|e| e.to_string())
}

/// Parses the fault-injection flags shared by `detect` and `serve`:
/// `--inject-bits RATE` switches injection on; `--inject-seed` and
/// `--inject-targets` refine which memories are dosed and how.
fn fault_plan_from_args(args: &Args) -> Result<Option<FaultPlan>, String> {
    let Some(raw) = args.get("inject-bits") else {
        return Ok(None);
    };
    let rate: f64 = raw
        .parse()
        .map_err(|_| format!("--inject-bits: cannot parse {raw:?}"))?;
    let seed: u64 = args.get_or("inject-seed", 0xfa_0175)?;
    let targets = match args.get("inject-targets") {
        None => FaultTargets::all(),
        Some(v) => FaultTargets::parse(v).ok_or_else(|| {
            format!("--inject-targets must list class, cells, bytes (or all), got {v:?}")
        })?,
    };
    FaultPlan::new(rate, seed, targets)
        .map(Some)
        .map_err(|e| format!("--inject-bits: {e}"))
}

/// Builds the detector for `detect`/`serve`. Without fault flags the
/// strict loader runs (golden checksums enforced, no guard, zero
/// overhead); with `--inject-bits` or `--replicas` the tolerant
/// loader runs instead and an [`IntegrityGuard`] is attached — dosing
/// the model bytes on disk image, the resident class vectors, and the
/// level cell caches as targeted, with quarantine/repair in the loop.
fn load_detector(
    args: &Args,
    config: DetectorConfig,
    replicas: usize,
) -> Result<FaceDetector, String> {
    let plan = fault_plan_from_args(args)?;
    if plan.is_none() && replicas <= 1 {
        return Ok(FaceDetector::new(load_pipeline(args)?, config));
    }
    let path = args.require("model")?;
    let mut bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let mut byte_flips = 0;
    if let Some(p) = plan.as_ref().filter(|p| p.targets().model_bytes) {
        byte_flips = corrupt_model_payload(&mut bytes, p).map_err(|e| e.to_string())?;
    }
    let loaded = load_bytes_with_integrity(&bytes).map_err(|e| e.to_string())?;
    let guard = IntegrityGuard::new(&loaded.classes, loaded.golden, plan, replicas);
    guard.note_injected_flips(byte_flips);
    let snapshot = guard.snapshot();
    if snapshot.flips_injected > 0 || snapshot.classes_quarantined > 0 {
        eprintln!(
            "fault injection: {} bit flips dosed into the loaded model (R = {})",
            snapshot.flips_injected, replicas,
        );
    }
    let mut detector = FaceDetector::new(loaded.pipeline, config);
    detector.set_integrity(Arc::new(guard));
    Ok(detector)
}

fn cmd_detect(args: &Args) -> Result<(), String> {
    let engine = engine_from_args(args)?;
    let replicas = args.count_at_most("replicas", 1, MAX_REPLICAS)?;
    let image_path = args.require("image")?;
    let out = args.require("out")?;
    let threshold: f64 = args.get_or("threshold", 0.0)?;
    let stride: f64 = args.get_or("stride", 0.25)?;

    let reader = BufReader::new(File::open(image_path).map_err(|e| format!("{image_path}: {e}"))?);
    let scene = read_pgm(reader).map_err(|e| e.to_string())?;

    let detector = load_detector(
        args,
        DetectorConfig {
            score_threshold: threshold,
            stride_fraction: stride,
            ..DetectorConfig::default()
        },
        replicas,
    )?;
    let (detections, stats) = detector
        .detect_with_stats(&scene, &engine)
        .map_err(|e| e.to_string())?;
    if let Some(guard) = detector.integrity() {
        let snap = guard.snapshot();
        eprintln!(
            "integrity: {} model-bit flips, {} cell-bit flips this scan, \
             {} windows skipped by quarantine, {} classes quarantined",
            snap.flips_injected,
            stats.cell_flips_injected,
            stats.quarantined_windows,
            snap.classes_quarantined,
        );
    }
    println!("{} detections:", detections.len());
    let mut marked = Vec::new();
    for d in &detections {
        println!(
            "  ({}, {}) size {}x{}  score {:+.3}  scale {:.2}",
            d.window.x, d.window.y, d.window.width, d.window.height, d.score, d.scale
        );
        marked.push((d.window, Rgb::DETECTION_BLUE));
    }
    let writer = BufWriter::new(File::create(out).map_err(|e| format!("{out}: {e}"))?);
    write_ppm_overlay(&scene, &marked, writer).map_err(|e| e.to_string())?;
    eprintln!("overlay written to {out}");
    Ok(())
}

fn cmd_eval(args: &Args) -> Result<(), String> {
    let engine = engine_from_args(args)?;
    let samples = args.positive_count_at_most("samples", 80, MAX_SAMPLES)?;
    let path = args.require("model")?;
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    // The tolerant loader surfaces the golden trailer so eval can
    // report the model's integrity identity alongside its accuracy;
    // mismatches still fail, exactly like the strict loader.
    let loaded = load_bytes_with_integrity(&bytes).map_err(|e| e.to_string())?;
    let hash = model_hash(&loaded.classes);
    match &loaded.golden {
        Some(golden) => {
            let clean = loaded
                .classes
                .iter()
                .zip(golden)
                .filter(|(class, want)| class.checksum() == **want)
                .count();
            println!(
                "model hash {hash:016x}; golden trailer: {clean}/{} class checksums verified",
                golden.len()
            );
            if clean != golden.len() {
                return Err(format!(
                    "{} of {} class vectors fail their golden checksum",
                    golden.len() - clean,
                    golden.len()
                ));
            }
        }
        None => println!("model hash {hash:016x}; no golden-checksum trailer"),
    }
    let mut pipeline = loaded.pipeline;
    let seed: u64 = args.get_or("seed", 9)?;
    let data = face2_spec().at_size(32).scaled(samples).generate(seed);
    let acc = pipeline
        .evaluate_with(&data, &engine)
        .map_err(|e| e.to_string())?;
    println!(
        "accuracy on {} fresh synthetic windows: {:.1}%",
        data.len(),
        acc * 100.0
    );
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let engine = engine_from_args(args)?;
    let workers = args.count_at_most("workers", 2, MAX_THREADS)?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:8080").to_owned();
    let queue_depth: usize = args.get_or("queue-depth", 64)?;
    let threshold: f64 = args.get_or("threshold", 0.0)?;
    let stride: f64 = args.get_or("stride", 0.25)?;
    let scrub_interval_ms: u64 = args.get_or("scrub-interval-ms", 1000)?;
    let replicas = args.count_at_most("replicas", 1, MAX_REPLICAS)?;
    let defaults = ServeConfig::default();
    let max_requests_per_conn: usize =
        args.get_or("max-requests-per-conn", defaults.max_requests_per_conn)?;
    let idle_timeout_ms: u64 = args.get_or("idle-timeout-ms", defaults.idle_timeout_ms)?;
    let online = match args.get("registry-dir") {
        None => None,
        Some(dir) => {
            let mut cfg = OnlineConfig::new(dir.into());
            cfg.feedback_queue = args.get_or("feedback-queue", cfg.feedback_queue)?;
            cfg.snapshot_every = args.get_or("snapshot-every", cfg.snapshot_every)?;
            cfg.shadow_samples =
                args.count_at_most("shadow-samples", cfg.shadow_samples, MAX_SAMPLES)?;
            cfg.shadow_seed = args.get_or("shadow-seed", cfg.shadow_seed)?;
            Some(cfg)
        }
    };
    let online_enabled = online.is_some();

    let detector = load_detector(
        args,
        DetectorConfig {
            score_threshold: threshold,
            stride_fraction: stride,
            ..DetectorConfig::default()
        },
        replicas,
    )?;
    let handle = Server::start(
        detector,
        ServeConfig {
            addr,
            workers,
            queue_depth,
            engine,
            scrub_interval_ms,
            online,
            max_requests_per_conn,
            idle_timeout_ms,
            ..ServeConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    eprintln!(
        "serving on http://{} ({workers} workers, queue depth {queue_depth}, {} scan threads)",
        handle.addr(),
        engine.threads(),
    );
    if online_enabled {
        eprintln!(
            "endpoints: POST /detect  POST /classify  POST /feedback  GET /model  \
             GET /healthz  GET /metrics  POST /shutdown"
        );
    } else {
        eprintln!(
            "endpoints: POST /detect  POST /classify  GET /healthz  GET /metrics  POST /shutdown"
        );
    }
    // Foreground until a POST /shutdown arrives, then drain in-flight
    // requests before exiting (std cannot install a SIGTERM handler
    // without new dependencies; see DESIGN.md §8).
    handle.wait();
    eprintln!("shutdown requested; draining…");
    handle.shutdown();
    eprintln!("drained, exiting");
    Ok(())
}

/// A deterministic synthetic scene for loadgen when `--image` is not
/// given: a gradient with stripes, enough structure to make the
/// extraction path do real work. `/classify` gets a window-sized crop
/// (encoded models reject any other size); `/detect` gets a larger
/// scene so the sliding-window scan has something to do.
fn synthetic_scene_pgm(side: usize) -> Vec<u8> {
    let image = GrayImage::from_fn(side, side, |x, y| {
        let gradient = (x as f32 + y as f32) / (2 * side - 2).max(1) as f32;
        let stripes = if (x / 6 + y / 6) % 2 == 0 { 0.2 } else { 0.0 };
        (gradient * 0.8 + stripes).clamp(0.0, 1.0)
    });
    let mut out = Vec::new();
    write_pgm(&image, &mut out).expect("in-memory PGM write cannot fail");
    out
}

/// `secs` as a span the clock can be advanced by: `None` for a
/// negative or non-finite value, or one too long for a `Duration` or
/// an `Instant` deadline.
fn clock_span(secs: f64) -> Option<Duration> {
    Duration::try_from_secs_f64(secs)
        .ok()
        .filter(|span| Instant::now().checked_add(*span).is_some())
}

/// `hdface loadgen`: drive a running server with N concurrent
/// connections and print a JSON report. Every flag is checked before
/// any client thread starts.
fn cmd_loadgen(args: &Args) -> Result<(), String> {
    let connections = args.positive_count_at_most("connections", 4, MAX_THREADS)?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:8080").to_owned();
    let duration_secs: f64 = args.get_or("duration-secs", 10.0)?;
    let duration = clock_span(duration_secs)
        .filter(|_| duration_secs > 0.0)
        .ok_or_else(|| {
            format!(
                "--duration-secs must be positive and fit a run deadline, got {duration_secs:?}"
            )
        })?;
    let rate: Option<f64> = match args.get("rate") {
        None => None,
        Some(v) => {
            let rate: f64 = v
                .parse()
                .map_err(|_| format!("--rate: cannot parse {v:?}"))?;
            // Each connection paces at `connections / rate` seconds.
            if !(rate.is_finite() && rate > 0.0) || clock_span(connections as f64 / rate).is_none()
            {
                return Err(format!(
                    "--rate must be positive and finite, with a per-connection interval \
                     that fits a Duration, got {v}"
                ));
            }
            Some(rate)
        }
    };
    let keep_alive: bool = args.get_or("keep-alive", true)?;
    let path = args.get("path").unwrap_or("/classify").to_owned();
    let method = match args.get("method") {
        Some(m) => m.to_owned(),
        None => match path.as_str() {
            "/healthz" | "/metrics" | "/model" => "GET".to_owned(),
            _ => "POST".to_owned(),
        },
    };
    let body = match args.get("image") {
        Some(p) => std::fs::read(p).map_err(|e| format!("{p}: {e}"))?,
        None if method == "POST" && path == "/classify" => synthetic_scene_pgm(32),
        None if method == "POST" && path == "/detect" => synthetic_scene_pgm(48),
        None => Vec::new(),
    };
    let fail_on_errors: bool = args.get_or("fail-on-errors", false)?;
    let shutdown_after: bool = args.get_or("shutdown", false)?;

    let config = LoadgenConfig {
        addr: addr.clone(),
        connections,
        duration,
        rate,
        keep_alive,
        method,
        path,
        body,
    };
    eprintln!(
        "loadgen: {} {} on {addr} for {duration_secs}s over {connections} {} connections{}…",
        config.method,
        config.path,
        if keep_alive {
            "keep-alive"
        } else {
            "close-per-request"
        },
        rate.map_or(String::new(), |r| format!(" at {r} req/s")),
    );
    let report = loadgen::run(&config);
    println!("{}", report.to_json());
    if shutdown_after {
        post_shutdown(&addr)?;
    }
    if fail_on_errors && !report.clean() {
        return Err(format!(
            "loadgen run failed: {} ok, {} non-shed 5xx, {} other non-2xx, {} framing errors",
            report.ok, report.errors_5xx, report.errors_other, report.framing_errors
        ));
    }
    Ok(())
}

/// POSTs `/shutdown` so a scripted soak can drain the server it
/// targeted (`loadgen --shutdown true`).
fn post_shutdown(addr: &str) -> Result<(), String> {
    use std::io::Write;
    let mut conn = std::net::TcpStream::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    conn.write_all(
        format!("POST /shutdown HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\nContent-Length: 0\r\n\r\n")
            .as_bytes(),
    )
    .map_err(|e| e.to_string())?;
    let response = hdface::loadgen::ResponseReader::new(&mut conn)
        .read_response()
        .map_err(|e| format!("shutdown response: {e}"))?;
    if response.status == 200 {
        eprintln!("shutdown requested; server draining");
        Ok(())
    } else {
        Err(format!("shutdown returned status {}", response.status))
    }
}

/// Renders one registry row for `hdface model ls`; `live` marks the
/// version a restarting server would install.
fn format_version(record: &VersionRecord, live: bool) -> String {
    let fmt_acc = |acc: Option<f64>| acc.map_or_else(|| "-".to_owned(), |a| format!("{a:.3}"));
    format!(
        "{} v{:06}  {:<11}  hash {:016x}  parent {:016x}  samples {:>6}  \
         shadow_acc {:>6}  live_acc {:>6}  {} bytes",
        if live { "*" } else { " " },
        record.id,
        record.status.to_string(),
        record.hash,
        record.parent,
        record.samples,
        fmt_acc(record.shadow_acc),
        fmt_acc(record.live_acc),
        record.bytes,
    )
}

/// `hdface model <ls|publish|rollback|promote>`: offline maintenance
/// of the online-learning registry (`hdface::online::registry`).
fn cmd_model(verb: &str, args: &Args) -> Result<(), String> {
    let dir = args.require("registry-dir")?;
    let mut registry = ModelRegistry::open(std::path::Path::new(dir)).map_err(|e| e.to_string())?;
    match verb {
        "ls" => {
            let live = registry.latest_promoted().map(|r| r.id);
            println!(
                "registry {dir} (generation {}, {} versions):",
                registry.generation(),
                registry.list().len()
            );
            for record in registry.list() {
                println!("{}", format_version(record, live == Some(record.id)));
            }
            Ok(())
        }
        "publish" => {
            let path = args.require("model")?;
            let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
            let loaded = load_bytes_with_integrity(&bytes).map_err(|e| e.to_string())?;
            let meta = PublishMeta {
                parent: 0,
                samples: 0,
                shadow_acc: None,
                live_acc: None,
                status: VersionStatus::Promoted,
            };
            let id = registry.publish(&bytes, meta).map_err(|e| e.to_string())?;
            println!(
                "published {path} as v{id:06} (hash {:016x}, generation {})",
                model_hash(&loaded.classes),
                registry.generation()
            );
            Ok(())
        }
        "rollback" | "promote" => {
            let id: u64 = args
                .require("version")?
                .trim_start_matches('v')
                .parse()
                .map_err(|_| "--version: expected a version number".to_owned())?;
            if verb == "rollback" {
                registry.rollback(id).map_err(|e| e.to_string())?;
            } else {
                registry.promote(id).map_err(|e| e.to_string())?;
            }
            println!(
                "v{id:06} is now the live version (generation {}); a restarting \
                 `hdface serve --registry-dir {dir}` will install it",
                registry.generation()
            );
            Ok(())
        }
        _ => unreachable!("parse_command rejects verbs accepted_flags does not know"),
    }
}

fn cmd_demo() -> Result<(), String> {
    let data = face2_spec().at_size(32).scaled(100).generate(1);
    let (train, test) = data.split(0.75);
    let mut pipeline = HdPipeline::new(HdFeatureMode::encoded_classic(4096), 1);
    pipeline
        .train(&train, &TrainConfig::default())
        .map_err(|e| e.to_string())?;
    let acc = pipeline.evaluate(&test).map_err(|e| e.to_string())?;
    println!(
        "trained a 4096-bit hyperdimensional face detector on {} windows; \
         held-out accuracy {:.1}%",
        train.len(),
        acc * 100.0
    );
    println!("next: `hdface train --out model.hdp` then `hdface detect …`");
    Ok(())
}

/// Parses the flags after `cmd` against the flags `cmd` accepts.
/// `model` takes its verb first; the verb is returned (empty for every
/// other command).
fn parse_command<'a>(cmd: &str, rest: &'a [String]) -> Result<(&'a str, Args), String> {
    let (name, verb, rest) = match (cmd, rest.split_first()) {
        ("model", Some((verb, flags))) => (format!("model {verb}"), verb.as_str(), flags),
        ("model", None) => {
            return Err(format!(
                "model requires a verb: ls, publish, rollback or promote\n{}",
                usage()
            ))
        }
        _ => (cmd.to_owned(), "", rest),
    };
    let accepted = accepted_flags(&name).ok_or_else(|| match cmd {
        "model" => format!("unknown model verb {verb}: expected ls, publish, rollback or promote"),
        _ => format!("unknown command {cmd}\n{}", usage()),
    })?;
    Ok((verb, Args::parse(&name, accepted, rest)?))
}

/// Runs one subcommand with its flags.
fn run(cmd: &str, rest: &[String]) -> Result<(), String> {
    let (verb, args) = parse_command(cmd, rest)?;
    match cmd {
        "train" => cmd_train(&args),
        "detect" => cmd_detect(&args),
        "eval" => cmd_eval(&args),
        "serve" => cmd_serve(&args),
        "loadgen" => cmd_loadgen(&args),
        "model" => cmd_model(verb, &args),
        _ => cmd_demo(),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    if matches!(cmd.as_str(), "--help" | "-h" | "help") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    match run(cmd, rest) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `line` (a command line after `hdface`) without running
    /// the command.
    fn parse_line(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        let (cmd, rest) = argv.split_first().expect("a command");
        parse_command(cmd, rest).map(|(_, args)| args)
    }

    #[test]
    fn documented_invocations_parse() {
        // Every flag set used by scripts/soak.sh, the CI workflow and
        // the README examples.
        for line in [
            "train --out m.hdp --dim 1024 --samples 48 --seed 17",
            "train --out m.hdp --dim 2048 --mode hyper --samples 60 --threads 2",
            "detect --model m.hdp --image s.pgm --out o.ppm --threshold 0.1 --stride 0.25 \
             --threads 2",
            "detect --model m.hdp --image s.pgm --out o.ppm --inject-bits 0.01 \
             --inject-seed 4 --inject-targets all --replicas 3",
            "eval --model m.hdp --samples 40 --seed 9 --threads 1",
            "serve --model m.hdp --addr 127.0.0.1:0 --workers 8",
            "serve --model m.hdp --addr 127.0.0.1:8080 --threads 4 --workers 2 --queue-depth 64",
            "serve --model m.hdp --workers 8 --max-requests-per-conn 9 --idle-timeout-ms 50",
            "serve --model m.hdp --registry-dir r --feedback-queue 256 --snapshot-every 16 \
             --shadow-samples 48 --shadow-seed 97",
            "serve --model m.hdp --inject-bits 0.02 --inject-seed 42 --inject-targets all \
             --replicas 3 --scrub-interval-ms 1000",
            "loadgen --addr 127.0.0.1:1 --path /healthz --connections 1 --duration-secs 0.2",
            "loadgen --addr 127.0.0.1:1 --path /classify --connections 16 --duration-secs 30 \
             --keep-alive true --fail-on-errors true --shutdown true",
            "loadgen --rate 5 --method POST --path /detect --image s.pgm",
            "model ls --registry-dir r",
            "model publish --registry-dir r --model m.hdp",
            "model rollback --registry-dir r --version 1",
            "model promote --registry-dir r --version 2",
            "demo",
        ] {
            if let Err(e) = parse_line(line) {
                panic!("{line}: {e}");
            }
        }
    }

    #[test]
    fn unknown_and_removed_flags_are_rejected_by_name() {
        // The window-scheduling and extraction-mode flags `detect` and
        // `serve` used to take, and `serve`'s micro-batch and
        // keep-alive switches.
        for (line, flag) in [
            ("detect --model m.hdp --scan per-window", "scan"),
            ("serve --model m.hdp --scan blocked", "scan"),
            ("detect --model m.hdp --extraction cached", "extraction"),
            ("serve --model m.hdp --extraction per-window", "extraction"),
            ("serve --model m.hdp --max-batch 4", "max-batch"),
            (
                "serve --model m.hdp --max-batch-delay-us 200",
                "max-batch-delay-us",
            ),
            ("serve --model m.hdp --keep-alive false", "keep-alive"),
            ("detect --model m.hdp --treads 8", "treads"),
            ("train --out m.hdp --extraction cached", "extraction"),
            ("eval --model m.hdp --inject-bits 0.1", "inject-bits"),
            ("model ls --registry-dir r --version 3", "version"),
        ] {
            let err = parse_line(line)
                .err()
                .unwrap_or_else(|| panic!("{line} parsed"));
            assert!(err.contains(&format!("--{flag}")), "{line}: {err}");
        }
        assert!(parse_line("demo --seed 1").is_err());
        assert!(parse_line("model frobnicate --registry-dir r").is_err());
    }

    #[test]
    fn train_rejects_a_dimension_out_of_range_before_allocating() {
        let out = std::env::temp_dir().join(format!("hdface-dim-{}.hdp", std::process::id()));
        let out = out.to_str().expect("a UTF-8 temp path");
        for mode in ["hyper", "encoded"] {
            for dim in ["0", "4294967297"] {
                let line = format!("train --out {out} --mode {mode} --dim {dim} --samples 4");
                let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
                let err = run(&argv[0], &argv[1..]).expect_err(&line);
                assert!(err.contains("--dim"), "{line}: {err}");
            }
        }
        assert!(!std::path::Path::new(out).exists(), "nothing is written");
    }

    /// Runs `line`, which must be refused for `--flag` before it
    /// allocates or starts a thread. Each caller's line fails fast
    /// without the check too: its count is one the allocator refuses
    /// at once (an unchecked flag aborts the test binary), or the line
    /// fails a later check before any thread starts.
    fn refuses_count(line: &str, flag: &str) {
        let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        let err = run(&argv[0], &argv[1..]).expect_err(line);
        assert!(
            err.contains(&format!("--{flag} must be at most")),
            "{line}: {err}"
        );
    }

    #[test]
    fn train_and_eval_refuse_a_sample_count_past_the_cap() {
        let out = std::env::temp_dir().join(format!("hdface-samples-{}.hdp", std::process::id()));
        let out = out.to_str().expect("a UTF-8 temp path");
        refuses_count(
            &format!("train --out {out} --samples 100000000000"),
            "samples",
        );
        assert!(!std::path::Path::new(out).exists(), "nothing is written");
        refuses_count("eval --model m.hdp --samples 100000000000", "samples");
    }

    #[test]
    fn detect_and_serve_refuse_a_replica_count_past_the_cap() {
        refuses_count(
            "detect --model m.hdp --image s.pgm --out o.ppm --replicas 1000000000000",
            "replicas",
        );
        refuses_count(
            "serve --model m.hdp --addr 127.0.0.1:0 --replicas 1000000000000",
            "replicas",
        );
    }

    #[test]
    fn serve_refuses_a_shadow_sample_count_past_the_cap() {
        refuses_count(
            "serve --model m.hdp --addr 127.0.0.1:0 --registry-dir r --shadow-samples 100000000000",
            "shadow-samples",
        );
    }

    #[test]
    fn thread_counts_past_the_cap_are_refused_before_any_thread_starts() {
        // Each line also fails a later check (an unknown mode, a missing
        // model, a negative duration), so a build without the cap errs
        // there instead of starting 1025 threads.
        for (line, flag) in [
            ("train --out m.hdp --mode none --threads 1025", "threads"),
            (
                "detect --model missing.hdp --image s.pgm --out o.ppm --threads 1025",
                "threads",
            ),
            ("eval --model missing.hdp --threads 1025", "threads"),
            ("serve --model missing.hdp --threads 1025", "threads"),
            ("serve --model missing.hdp --workers 1025", "workers"),
            (
                "loadgen --addr 127.0.0.1:1 --connections 1025 --duration-secs -1",
                "connections",
            ),
        ] {
            refuses_count(line, flag);
        }
        let args = parse_line("serve --threads 1024 --workers 1024").unwrap();
        assert_eq!(args.count_at_most("threads", 1, MAX_THREADS), Ok(1024));
        assert_eq!(args.count_at_most("workers", 2, MAX_THREADS), Ok(1024));
    }

    #[test]
    fn zero_counts_are_refused_by_name() {
        let out = std::env::temp_dir().join(format!("hdface-zero-{}.hdp", std::process::id()));
        let out = out.to_str().expect("a UTF-8 temp path");
        for (line, flag) in [
            (format!("train --out {out} --samples 0"), "samples"),
            ("eval --model missing.hdp --samples 0".to_owned(), "samples"),
            ("eval --model missing.hdp --threads 0".to_owned(), "threads"),
        ] {
            let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
            let err = run(&argv[0], &argv[1..]).expect_err(&line);
            assert_eq!(err, format!("--{flag} must be at least 1"), "{line}");
        }
        assert!(!std::path::Path::new(out).exists(), "nothing is written");
    }

    /// Runs `line` as a `loadgen` that must be refused before any
    /// client thread starts; returns the error.
    fn refused_loadgen(line: &str) -> String {
        let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        run(&argv[0], &argv[1..]).expect_err(line)
    }

    #[test]
    fn loadgen_rejects_zero_connections() {
        let err = refused_loadgen("loadgen --addr 127.0.0.1:1 --connections 0 --rate 10");
        assert!(err.contains("--connections"), "{err}");
    }

    #[test]
    fn loadgen_rejects_a_rate_whose_interval_overflows() {
        let err = refused_loadgen("loadgen --addr 127.0.0.1:1 --rate 1e-20");
        assert!(err.contains("--rate"), "{err}");
    }

    #[test]
    fn loadgen_rejects_a_rate_that_is_not_positive_and_finite() {
        for rate in ["0", "-5", "inf", "NaN"] {
            let err = refused_loadgen(&format!("loadgen --addr 127.0.0.1:1 --rate {rate}"));
            assert!(err.contains("--rate"), "{rate}: {err}");
        }
    }

    #[test]
    fn loadgen_rejects_a_duration_past_any_deadline() {
        let err = refused_loadgen("loadgen --addr 127.0.0.1:1 --duration-secs 1e300");
        assert!(err.contains("--duration-secs"), "{err}");
    }

    #[test]
    fn repeated_flags_are_rejected() {
        let err = parse_line("detect --threads 2 --threads 4").err().unwrap();
        assert!(err.contains("--threads"), "{err}");
        assert!(parse_line("serve --addr a --model m --addr b").is_err());
    }

    #[test]
    fn parsed_flags_read_back() {
        let args = parse_line("eval --model m.hdp --samples 12").unwrap();
        assert_eq!(args.require("model"), Ok("m.hdp"));
        assert_eq!(args.get_or("samples", 80usize), Ok(12));
        assert_eq!(args.get_or("seed", 9u64), Ok(9));
        assert!(args.require("threads").is_err());
        assert!(parse_line("eval --model").is_err(), "a flag needs a value");
        assert!(parse_line("eval model.hdp").is_err(), "values need a flag");
    }
}
