//! **Fig. 4 reproduction** — classification accuracy of HDFace in its
//! configurations against the DNN and SVM baselines, on all three
//! (synthetic-substitute) datasets with identical HOG geometry.
//!
//! Columns follow the paper's bar groups:
//! * `HDC+HOG(orig)` — classic float HOG + non-linear HDC encoder +
//!   HDC learning (paper configuration 1);
//! * `HDC+HOG(HD)` — the fully hyperdimensional pipeline (stochastic
//!   HOG, no encoder; paper configuration 2);
//! * `DNN` — 4-layer MLP (best 1024×1024-class architecture scaled to
//!   the quick run);
//! * `SVM` — one-vs-rest linear SVM.
//!
//! Paper claims to reproduce: HDC accuracy ≥ DNN > SVM on average, and
//! the stochastic feature extraction matching original-space HOG
//! quality.
//!
//! ```sh
//! cargo run --release -p hdface-bench --bin exp_fig4 [-- --full]
//! ```

use hdface::datasets::{emotion_spec, face1_spec, face2_spec, DatasetSpec};
use hdface::hog::HogConfig;
use hdface::learn::TrainConfig;

const HD_EPOCHS: usize = 10;
use hdface::pipeline::{DnnPipeline, HdFeatureMode, HdPipeline, SvmPipeline};
use hdface_bench::{pct, RunConfig, Table};

fn main() {
    let cfg = RunConfig::from_args();
    // Generation sizes: windows stay small so the stochastic pipeline
    // runs in minutes; --full doubles data and window size.
    let win = cfg.pick(32, 48);
    let dim = 4096;
    let specs: Vec<DatasetSpec> = vec![
        // EMOTION stays at its native 48x48 (expression geometry does
        // not survive harsher downscaling).
        emotion_spec().scaled(cfg.pick(350, 560)),
        face1_spec().at_size(win).scaled(cfg.pick(160, 320)),
        face2_spec().at_size(win).scaled(cfg.pick(160, 320)),
    ];

    println!("== Fig. 4: accuracy vs state-of-the-art (D = {dim}) ==\n");
    let mut table = Table::new(&["dataset", "HDC+HOG(orig)", "HDC+HOG(HD)", "DNN", "SVM"]);
    let mut sums = [0.0f64; 4];

    for spec in &specs {
        let ds = spec.generate(cfg.seed);
        let (train, test) = ds.split(0.75);

        let hd_train = TrainConfig {
            epochs: HD_EPOCHS,
            ..TrainConfig::default()
        };
        let mut enc = HdPipeline::new(HdFeatureMode::encoded_classic(dim), cfg.seed);
        enc.train(&train, &hd_train).expect("train");
        let a_enc = enc.evaluate(&test).expect("eval");

        let mut hd = HdPipeline::new(HdFeatureMode::hyper_hog(dim), cfg.seed);
        hd.train(&train, &hd_train).expect("train");
        let a_hd = hd.evaluate(&test).expect("eval");

        let mut dnn = DnnPipeline::new(
            HogConfig::paper(),
            cfg.pick((256, 256), (1024, 1024)),
            120,
            cfg.seed,
        );
        dnn.train(&train).expect("train");
        let a_dnn = dnn.evaluate(&test).expect("eval");

        let mut svm = SvmPipeline::new(HogConfig::paper(), 40, cfg.seed);
        svm.train(&train).expect("train");
        let a_svm = svm.evaluate(&test).expect("eval");

        for (s, a) in sums.iter_mut().zip([a_enc, a_hd, a_dnn, a_svm]) {
            *s += a;
        }
        table.row(&[
            &spec.name,
            &pct(a_enc),
            &pct(a_hd),
            &pct(a_dnn),
            &pct(a_svm),
        ]);
    }
    let n = specs.len() as f64;
    table.row(&[
        &"average",
        &pct(sums[0] / n),
        &pct(sums[1] / n),
        &pct(sums[2] / n),
        &pct(sums[3] / n),
    ]);
    table.print();

    // Shape checks, computed from the averages above (in points).
    let [enc, hd, dnn, svm] = sums.map(|s| 100.0 * s / n);
    let verdict = |holds: bool| if holds { "holds" } else { "does not hold" };
    println!(
        "\nshape checks (paper Fig. 4), at seed {seed}, on the averages:\n\
         * HDC >= DNN (paper: HDC +3.9 points): HOG(orig) {d_enc:+.1}, HOG(HD) {d_hd:+.1}\n\
         \x20 points vs the DNN; {hdc_dnn}.\n\
         * HDC and DNN > SVM (paper: HDC +10.4 points): HOG(HD) {hd_svm:+.1}, DNN {d_svm:+.1}\n\
         \x20 points vs the SVM; {over_svm}.\n\
         * HOG(HD) within 3 points of HOG(orig) (paper: 'same quality'):\n\
         \x20 {d_same:+.1} points; {same}.\n\
         note: on these small synthetic sets the linear SVM is unusually\n\
         strong because the classes are clean; the HDC-vs-DNN ordering is\n\
         the paper-relevant comparison.",
        seed = cfg.seed,
        d_enc = enc - dnn,
        d_hd = hd - dnn,
        hdc_dnn = verdict(enc.max(hd) >= dnn),
        hd_svm = hd - svm,
        d_svm = dnn - svm,
        over_svm = verdict(hd > svm && dnn > svm),
        d_same = hd - enc,
        same = verdict((hd - enc).abs() <= 3.0),
    );
}
