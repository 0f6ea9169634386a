//! **Table 2 reproduction** — robustness to random bit errors.
//!
//! Fault model: memory faults — every *stored* artifact of the
//! deployed classifier is corrupted once at the given bit-error rate:
//!
//! * `DNN 16/8/4-bit` — the fixed-point weight memory of the MLP
//!   baseline;
//! * `HDFace+HoG+Learn (D = 10k/4k/1k)` — the feature hypervectors
//!   produced by the fully hyperdimensional HOG pipeline *and* the
//!   binary class hypervectors (both are plain bit memories);
//! * `HDFace+Learn (D = 10k/4k/1k)` — HOG on the original float
//!   representation: the IEEE-754 feature words are corrupted before
//!   HDC encoding, plus the same class-hypervector corruption.
//!
//! Entries are **quality loss** relative to the clean reference,
//! matching the paper's table semantics, with each cell's raw accuracy
//! beside it. A second table gives each HDFace row's loss against its
//! own clean accuracy, so a row whose clean accuracy rises does not
//! read as less robust, and the shape checks are computed from it.
//!
//! Paper claims to reproduce: DNN precision trades accuracy for
//! robustness; full-HD HDFace absorbs several percent bit error with
//! ≈0 loss at D ≥ 4k; HOG on the original representation "entirely
//! removes the advantage".
//!
//! ```sh
//! cargo run --release -p hdface-bench --bin exp_table2 [-- --full]
//! ```

use hdface::baselines::{QuantizedMlp, WeightPrecision};
use hdface::hdc::{BitVector, HdcRng, SeedableRng};
use hdface::hog::{ClassicHog, HogConfig, HyperHog, HyperHogConfig};
use hdface::learn::{FeatureEncoder, HdClassifier, LevelIdEncoder, TrainConfig};
use hdface::noise::BitErrorModel;
use hdface::pipeline::DnnPipeline;
use hdface_bench::{RunConfig, Table};

const DIMS: [usize; 3] = [10_240, 4096, 1024];

/// One model's accuracy at each bit-error rate; `accs[0]` is clean.
struct Row {
    name: String,
    accs: Vec<f64>,
}

impl Row {
    /// Loss at rate index `i` against the row's own clean accuracy.
    fn own_loss(&self, i: usize) -> f64 {
        self.accs[0] - self.accs[i]
    }
}

/// Quality loss against `reference` (clamped at zero, as in the
/// paper's table) with the raw accuracy beside it.
fn fmt_loss(reference: f64, acc: f64) -> String {
    format!(
        "{:.1}% ({:.1})",
        (reference - acc).max(0.0) * 100.0,
        acc * 100.0
    )
}

fn push_row(table: &mut Table, cells: &[String]) {
    let refs: Vec<&dyn std::fmt::Display> =
        cells.iter().map(|c| c as &dyn std::fmt::Display).collect();
    table.row(&refs);
}

fn push_rows(table: &mut Table, rows: &[Row], reference: f64) {
    for row in rows {
        let mut cells = vec![row.name.clone()];
        cells.extend(row.accs.iter().map(|&a| fmt_loss(reference, a)));
        push_row(table, &cells);
    }
}

/// `yes` or `no`.
fn yes(holds: bool) -> &'static str {
    if holds {
        "yes"
    } else {
        "no"
    }
}

/// Whether `xs` (one value per row, highest precision first) falls as
/// precision falls: `tied` when every value is equal.
fn falls(xs: &[f64]) -> &'static str {
    if xs.windows(2).all(|w| w[0] == w[1]) {
        "tied"
    } else {
        yes(xs.windows(2).all(|w| w[0] >= w[1]))
    }
}

fn main() {
    let cfg = RunConfig::from_args();
    let rates: &[f64] = cfg.pick(
        &[0.0, 0.02, 0.04, 0.08, 0.14][..],
        &[0.0, 0.01, 0.02, 0.04, 0.08, 0.12, 0.14][..],
    );
    let trials = cfg.pick(4, 8);
    // Hard-negative workload (see hdface_bench::hard_face_dataset):
    // thin margins make fault sensitivity measurable.
    let ds = hdface_bench::hard_face_dataset(32, cfg.pick(200, 320), cfg.seed);
    let (train, test) = ds.split(0.7);
    println!(
        "workload: {} at 32x32, {} train / {} test, {} fault patterns per cell\n",
        ds.name(),
        train.len(),
        test.len(),
        trials
    );

    let mut header: Vec<String> = vec!["model".into()];
    header.extend(rates.iter().map(|r| format!("{:.0}%", r * 100.0)));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(&header_refs);

    // ---------------- DNN with quantized weights --------------------
    let mut dnn = DnnPipeline::new(HogConfig::paper(), (512, 512), 120, cfg.seed);
    dnn.train(&train).expect("dnn train");
    let dnn_test = dnn.extract_dataset(&test);
    let float_ref = dnn.evaluate(&test).expect("dnn eval");

    let mut dnn_rows = Vec::new();
    for precision in WeightPrecision::ALL {
        let q = QuantizedMlp::from_mlp(dnn.mlp().expect("trained"), precision);
        let mut accs = Vec::new();
        for (ri, &rate) in rates.iter().enumerate() {
            let mut acc = 0.0;
            for t in 0..trials {
                let mut rng = HdcRng::seed_from_u64(cfg.seed + 100 + (ri * 97 + t * 13) as u64);
                acc += q
                    .with_bit_errors(rate, &mut rng)
                    .accuracy(&dnn_test)
                    .expect("acc");
            }
            accs.push(acc / trials as f64);
        }
        dnn_rows.push(Row {
            name: format!("DNN {}", precision.name()),
            accs,
        });
    }
    push_rows(&mut table, &dnn_rows, float_ref);

    // ------------- HDFace, fully hyperdimensional pipeline ----------
    // Features and models are extracted/trained once per D (clean);
    // faults then strike the stored bit memories.
    let mut hd_reference = 0.0f64;
    let mut hd_rows = Vec::new();
    for &dim in &DIMS {
        let mut hog = HyperHog::new(HyperHogConfig::with_dim(dim), cfg.seed);
        let train_feats: Vec<(BitVector, usize)> = train
            .iter()
            .map(|s| {
                (
                    hog.extract(&s.image.normalized()).expect("extract"),
                    s.label,
                )
            })
            .collect();
        let test_feats: Vec<(BitVector, usize)> = test
            .iter()
            .map(|s| {
                (
                    hog.extract(&s.image.normalized()).expect("extract"),
                    s.label,
                )
            })
            .collect();
        let mut clf = HdClassifier::new(ds.num_classes(), dim);
        let mut rng = HdcRng::seed_from_u64(cfg.seed + 7);
        clf.fit(&train_feats, &TrainConfig::default(), &mut rng)
            .expect("fit");
        let binary = clf.to_binary(&mut rng);

        let mut accs = Vec::new();
        for (ri, &rate) in rates.iter().enumerate() {
            let mut acc = 0.0;
            for t in 0..trials {
                let mut mrng = HdcRng::seed_from_u64(cfg.seed + 300 + (ri * 89 + t * 17) as u64);
                let noisy_model = binary.with_bit_errors(rate, &mut mrng);
                let mut channel =
                    BitErrorModel::new(rate, cfg.seed + 500 + (ri * 83 + t * 19) as u64)
                        .expect("rate");
                let noisy_queries = channel.corrupt_hypervector_set(&test_feats);
                acc += noisy_model.accuracy(&noisy_queries).expect("acc");
            }
            accs.push(acc / trials as f64);
        }
        hd_reference = hd_reference.max(accs[0]);
        hd_rows.push(Row {
            name: format!("HDFace+HoG+Learn D={}k", dim / 1024),
            accs,
        });
    }
    push_rows(&mut table, &hd_rows, hd_reference);

    // -------- HDFace learning on original-representation HOG --------
    let hog = ClassicHog::new(HogConfig::paper());
    let extract = |d: &hdface::datasets::Dataset| -> Vec<(Vec<f64>, usize)> {
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
    let train_float = extract(&train);
    let test_float = extract(&test);

    let mut float_hd_reference = 0.0f64;
    let mut float_rows = Vec::new();
    for &dim in &DIMS {
        // The record-based id x level encoder bounds each feature's
        // influence to its own slot, so a corrupted float word cannot
        // poison the whole encoding — the graceful-degradation regime
        // the paper reports for this configuration.
        let encoder = LevelIdEncoder::new(train_float[0].0.len(), dim, 32, 0.0, 0.8, cfg.seed);
        let train_enc: Vec<(BitVector, usize)> = train_float
            .iter()
            .map(|(x, y)| (encoder.encode(x).expect("encode"), *y))
            .collect();
        let mut clf = HdClassifier::new(ds.num_classes(), dim);
        let mut rng = HdcRng::seed_from_u64(cfg.seed + 9);
        clf.fit(&train_enc, &TrainConfig::default(), &mut rng)
            .expect("fit");
        let binary = clf.to_binary(&mut rng);

        let mut accs = Vec::new();
        for (ri, &rate) in rates.iter().enumerate() {
            let mut acc = 0.0;
            for t in 0..trials {
                let mut mrng = HdcRng::seed_from_u64(cfg.seed + 700 + (ri * 79 + t * 23) as u64);
                let noisy_model = binary.with_bit_errors(rate, &mut mrng);
                let mut channel =
                    BitErrorModel::new(rate, cfg.seed + 900 + (ri * 73 + t * 29) as u64)
                        .expect("rate");
                let mut correct = 0usize;
                for (x, y) in &test_float {
                    // The fault sits in the float feature words — the
                    // original-representation memory.
                    let noisy = channel.corrupt_f32_features(x);
                    let feat = encoder.encode(&noisy).expect("encode");
                    if noisy_model.predict(&feat).expect("predict") == *y {
                        correct += 1;
                    }
                }
                acc += correct as f64 / test_float.len() as f64;
            }
            accs.push(acc / trials as f64);
        }
        float_hd_reference = float_hd_reference.max(accs[0]);
        float_rows.push(Row {
            name: format!("HDFace+Learn D={}k", dim / 1024),
            accs,
        });
    }
    push_rows(&mut table, &float_rows, float_hd_reference);

    table.print();
    println!(
        "(entries are quality LOSS vs the clean reference, as in the paper: the\n\
         float DNN for DNN rows, the best clean D of each HDFace family; raw\n\
         accuracy in parentheses)\n"
    );

    // Each HDFace row against its own clean accuracy (signed: a
    // negative entry is a fault pattern that scored above clean).
    let mut own = Table::new(&header_refs);
    for row in hd_rows.iter().chain(&float_rows) {
        let mut cells = vec![row.name.clone()];
        cells.extend((0..rates.len()).map(|i| format!("{:.1}%", row.own_loss(i) * 100.0)));
        push_row(&mut own, &cells);
    }
    println!("quality loss vs each HDFace row's own clean accuracy:");
    own.print();

    // Shape checks, computed from the rows above.
    let top = rates.len() - 1;
    let top_rate = format!("{:.0}%", rates[top] * 100.0);
    let pct1 = |x: f64| format!("{:.1}", x * 100.0);
    // "16-bit 90.0, 8-bit …": each row's last name token and value.
    let list = |rows: &[Row], value: &dyn Fn(&Row) -> f64| -> String {
        let parts: Vec<String> = rows
            .iter()
            .map(|r| {
                let label = r.name.rsplit(' ').next().unwrap_or(&r.name);
                format!("{label} {}", pct1(value(r)))
            })
            .collect();
        parts.join(", ")
    };
    let dnn_clean: Vec<f64> = dnn_rows.iter().map(|r| r.accs[0]).collect();
    let dnn_top: Vec<f64> = dnn_rows.iter().map(|r| float_ref - r.accs[top]).collect();
    // Through 8% error at D ≥ 4k (the first two dims): the worst
    // own-clean loss.
    let mid = rates.iter().rposition(|&r| r <= 0.08).unwrap_or(0);
    let mid_rate = format!("{:.0}%", rates[mid] * 100.0);
    let hd_mid_worst = hd_rows[..2]
        .iter()
        .flat_map(|r| (1..=mid).map(move |i| r.own_loss(i)))
        .fold(f64::NEG_INFINITY, f64::max);
    let steeper = float_rows
        .iter()
        .zip(&hd_rows)
        .filter(|(f, h)| f.own_loss(top) > h.own_loss(top))
        .count();
    println!(
        "\nshape checks (paper Table 2), at seed {seed}, computed from the rows:\n\
         * DNN clean accuracy: {dnn_clean_list}; higher with precision: {clean_rises}.\n\
         \x20 loss at {top_rate} vs the float DNN: {dnn_top_list}; steeper with precision: {loss_rises}\n\
         \x20 (paper: 16-bit loses 39.8% at 14%).\n\
         * HDFace+HoG+Learn clean accuracy: {hd_clean_list}.\n\
         \x20 worst own-clean loss through {mid_rate} at D >= 4k: {hd_mid_worst} points;\n\
         \x20 near zero (at most 2 points), as the paper reports: {near_zero}.\n\
         * at {top_rate}, HDFace+Learn (float HOG words) loses more of its own clean\n\
         \x20 accuracy than HDFace+HoG+Learn at {steeper} of {dims} dims (paper: the original\n\
         \x20 representation 'entirely removes the advantage').",
        seed = cfg.seed,
        dnn_clean_list = list(&dnn_rows, &|r| r.accs[0]),
        clean_rises = falls(&dnn_clean),
        dnn_top_list = list(&dnn_rows, &|r| float_ref - r.accs[top]),
        loss_rises = falls(&dnn_top),
        hd_clean_list = list(&hd_rows, &|r| r.accs[0]),
        hd_mid_worst = pct1(hd_mid_worst),
        near_zero = yes(hd_mid_worst <= 0.02),
        dims = DIMS.len(),
    );
}
