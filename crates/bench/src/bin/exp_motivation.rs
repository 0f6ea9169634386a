//! **§2 motivation reproduction** — the two observations that motivate
//! HDFace:
//!
//! 1. "HoG takes above 85% of total training time" on the embedded
//!    CPU — measured here with the operation-count CPU model over the
//!    classic HOG + DNN training pipeline.
//! 2. "2% random bit error on HoG feature extraction causes 12%
//!    quality loss, while the HDC model is significantly robust" —
//!    measured by corrupting float HOG features feeding an HDC
//!    learner versus corrupting the HDC model itself.
//!
//! ```sh
//! cargo run --release -p hdface-bench --bin exp_motivation [-- --full]
//! ```

use hdface::datasets::face2_spec;
use hdface::hdc::{BitVector, HdcRng, SeedableRng};
use hdface::hog::{ClassicHog, HogConfig};
use hdface::learn::{FeatureEncoder, HdClassifier, LevelIdEncoder, TrainConfig};
use hdface::noise::BitErrorModel;
use hdface_bench::{pct, RunConfig, Table};
use hdface_hwsim::{classic_hog_ops, dnn_train_epoch_ops, CpuModel, MlpShape, Platform, Scenario};

fn main() {
    let cfg = RunConfig::from_args();

    // ---- 1. HOG share of training time on the embedded CPU --------
    println!("== §2(a): share of training time spent in HOG feature extraction ==\n");
    let cpu = CpuModel::cortex_a53();
    let mut t1 = Table::new(&["dataset", "HOG time", "DNN learn time", "HOG share"]);
    for sc in Scenario::table1() {
        let hog = cpu.execute(
            &(classic_hog_ops(sc.image_size, sc.image_size, sc.bins) * sc.train_size as f64),
        );
        let shape = MlpShape {
            input: sc.hog_features(),
            hidden1: 1024,
            hidden2: 1024,
            output: sc.classes,
        };
        // A realistic embedded budget of a handful of epochs per
        // sweep keeps the HOG fraction in focus (the paper's number
        // is for the full preprocessing-dominated workload).
        let learn = cpu.execute(&(dnn_train_epoch_ops(sc.train_size, &shape) * 1.0));
        let share = hog.seconds / (hog.seconds + learn.seconds);
        t1.row(&[
            &sc.name,
            &format!("{:.1}s", hog.seconds),
            &format!("{:.1}s", learn.seconds),
            &pct(share),
        ]);
    }
    t1.print();
    println!(
        "paper reference: 'HoG takes above 85% of total training time' on the\n\
         ARM A53 (their pipeline is preprocessing-bound; the share depends on\n\
         how many learning epochs amortize it — shown per single epoch here).\n"
    );

    // ---- 2. Float-HOG fragility vs HDC-model robustness ------------
    println!("== §2(b): 2% bit error — float HOG features vs the HDC model ==\n");
    let spec = face2_spec().at_size(32).scaled(cfg.pick(160, 280));
    let ds = spec.generate(cfg.seed);
    let (train, test) = ds.split(0.7);
    let dim = 4096;

    let hog = ClassicHog::new(HogConfig::paper());
    let feats = |d: &hdface::datasets::Dataset| -> Vec<(Vec<f64>, usize)> {
        d.iter()
            .map(|s| {
                let f: Vec<f64> = hog
                    .extract_vec(&s.image.normalized())
                    .iter()
                    .map(|v| v * 8.0)
                    .collect();
                (f, s.label)
            })
            .collect()
    };
    let train_f = feats(&train);
    let test_f = feats(&test);
    let encoder = LevelIdEncoder::new(train_f[0].0.len(), dim, 32, 0.0, 0.8, cfg.seed);
    let train_enc: Vec<(BitVector, usize)> = train_f
        .iter()
        .map(|(x, y)| (encoder.encode(x).expect("encode"), *y))
        .collect();
    let mut clf = HdClassifier::new(ds.num_classes(), dim);
    let mut rng = HdcRng::seed_from_u64(cfg.seed);
    clf.fit(&train_enc, &TrainConfig::default(), &mut rng)
        .expect("fit");
    let binary = clf.to_binary(&mut rng);

    let clean_acc = {
        let mut correct = 0;
        for (x, y) in &test_f {
            if binary
                .predict(&encoder.encode(x).expect("encode"))
                .expect("predict")
                == *y
            {
                correct += 1;
            }
        }
        correct as f64 / test_f.len() as f64
    };

    let mut t2 = Table::new(&["fault site", "clean acc", "acc @2% errors", "quality loss"]);
    // (a) errors on the float HOG feature words.
    let trials = cfg.pick(4, 8);
    let mut acc_float = 0.0;
    for t in 0..trials {
        let mut channel = BitErrorModel::new(0.02, cfg.seed + 31 + t).expect("rate");
        let mut correct = 0;
        for (x, y) in &test_f {
            let noisy = channel.corrupt_f32_features(x);
            if binary
                .predict(&encoder.encode(&noisy).expect("encode"))
                .expect("predict")
                == *y
            {
                correct += 1;
            }
        }
        acc_float += correct as f64 / test_f.len() as f64;
    }
    acc_float /= trials as f64;
    t2.row(&[
        &"float HOG feature words",
        &pct(clean_acc),
        &pct(acc_float),
        &pct(clean_acc - acc_float),
    ]);

    // (b) errors on the HDC model + query hypervectors.
    let mut acc_hd = 0.0;
    for t in 0..trials {
        let mut rng = HdcRng::seed_from_u64(cfg.seed + 61 + t);
        let noisy_model = binary.with_bit_errors(0.02, &mut rng);
        let mut channel = BitErrorModel::new(0.02, cfg.seed + 71 + t).expect("rate");
        let mut correct = 0;
        for (x, y) in &test_f {
            let q = channel.corrupt_hypervector(&encoder.encode(x).expect("encode"));
            if noisy_model.predict(&q).expect("predict") == *y {
                correct += 1;
            }
        }
        acc_hd += correct as f64 / test_f.len() as f64;
    }
    acc_hd /= trials as f64;
    t2.row(&[
        &"HDC model + query hypervectors",
        &pct(clean_acc),
        &pct(acc_hd),
        &pct(clean_acc - acc_hd),
    ]);
    t2.print();
    println!(
        "paper reference: '2% random bit error on HoG feature extraction causes\n\
         12% quality loss, while the HDC model is significantly robust against\n\
         noise'."
    );
    let (loss_float, loss_hd) = (clean_acc - acc_float, clean_acc - acc_hd);
    let verdict = if loss_float > loss_hd {
        "the float row loses more, as the paper reports"
    } else {
        "the HDC row loses at least as much, so the paper's asymmetry does not reproduce here"
    };
    println!(
        "measured at seed {}: float HOG words lose {:.1} points, the HDC model + queries {:.1};\n\
         {verdict}.",
        cfg.seed,
        100.0 * loss_float,
        100.0 * loss_hd,
    );
}
