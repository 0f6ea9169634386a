//! **Design-choice ablations** (DESIGN.md §6) — quantifies each
//! engineering decision the reproduction documents:
//!
//! 1. **Correlation-safe squaring** — `V ⊗ V` of the same instance
//!    collapses to 1; resampling restores `a²`.
//! 2. **Square-root iteration budget** — bisection accuracy vs cost.
//! 3. **Adaptive vs naive training** — similarity-scaled updates vs
//!    plain bundling, on the plain FACE2 crops and on their
//!    hard-negative variant.
//!
//! ```sh
//! cargo run --release -p hdface-bench --bin exp_ablation [-- --full]
//! ```

use hdface::datasets::{face2_spec, Dataset};
use hdface::hdc::{HdcRng, SeedableRng};
use hdface::hog::{HyperHog, HyperHogConfig};
use hdface::learn::{HdClassifier, TrainConfig};
use hdface::stochastic::StochasticContext;
use hdface_bench::{pct, RunConfig, Table};

fn main() {
    let cfg = RunConfig::from_args();
    let dim = 4096;

    // ---------------- 1. correlation-safe squaring ------------------
    println!("== ablation 1: self-multiplication without resampling ==\n");
    let mut ctx = StochasticContext::new(16_384, cfg.seed);
    let mut t1 = Table::new(&["a", "exact a^2", "V (x) V (naive)", "square() (resampled)"]);
    for &a in &[-0.8, -0.3, 0.0, 0.4, 0.9] {
        let v = ctx.encode(a).expect("encode");
        let naive = ctx.mul(&v, &v).expect("mul");
        let proper = ctx.square(&v).expect("square");
        t1.row(&[
            &format!("{a:+.1}"),
            &format!("{:.3}", a * a),
            &format!("{:+.3}", ctx.decode(&naive).expect("decode")),
            &format!("{:+.3}", ctx.decode(&proper).expect("decode")),
        ]);
    }
    t1.print();
    println!("naive self-multiplication always decodes to 1.0 — the documented pitfall.\n");

    // ---------------- 2. sqrt iteration budget ----------------------
    println!("== ablation 2: square-root bisection budget ==\n");
    let mut t2 = Table::new(&["iterations", "mean |error| over [0,1] grid"]);
    for iters in [1usize, 2, 4, 6, 8, 12] {
        let grid = cfg.pick(9, 17);
        let mut err = 0.0;
        for i in 0..grid {
            let x = i as f64 / (grid - 1) as f64;
            let v = ctx.encode(x).expect("encode");
            let r = ctx.sqrt_with_iters(&v, iters).expect("sqrt");
            err += (ctx.decode(&r).expect("decode") - x.sqrt()).abs();
        }
        t2.row(&[&iters, &format!("{:.4}", err / grid as f64)]);
    }
    t2.print();
    println!("6 iterations reach the decode noise floor; more buys nothing.\n");

    // ---------------- 3. adaptive vs naive training -----------------
    // The plain FACE2 crops, then the hard-negative variant Fig. 5b
    // uses, at the same size and seed: the rules can only separate on
    // a workload whose margins are not wide from the start.
    println!("== ablation 3: adaptive vs naive class-hypervector training ==\n");
    let count = cfg.pick(160, 280);
    let plain = face2_spec().at_size(32).scaled(count).generate(cfg.seed);
    let hard = hdface_bench::hard_face_dataset(32, count, cfg.seed);
    for (i, ds) in [plain, hard].iter().enumerate() {
        if i > 0 {
            println!("\n{}:\n", ds.name());
        }
        let verdict = training_rules(ds, dim, cfg.seed);
        println!(
            "{}: adaptive + retraining {verdict} at seed {}.",
            ds.name(),
            cfg.seed
        );
    }
}

/// Ablation 3 on one workload: trains the three rules on the same
/// features, prints their table and returns the verdict on retraining
/// against naive bundling, computed from the held-out counts.
fn training_rules(ds: &Dataset, dim: usize, seed: u64) -> String {
    let (train, test) = ds.split(0.75);
    let mut hog = HyperHog::new(HyperHogConfig::with_dim(dim), seed);
    let mut features = |set: &Dataset| -> Vec<_> {
        set.iter()
            .map(|s| {
                (
                    hog.extract(&s.image.normalized()).expect("extract"),
                    s.label,
                )
            })
            .collect()
    };
    let train_feats = features(&train);
    let test_feats = features(&test);
    let mut t3 = Table::new(&["training rule", "train acc", "test acc"]);
    let mut test_correct = Vec::new();
    for (name, tc) in [
        ("naive bundling (1 pass)", TrainConfig::naive()),
        ("adaptive single-pass", TrainConfig::single_pass()),
        ("adaptive + retraining", TrainConfig::default()),
    ] {
        let mut clf = HdClassifier::new(ds.num_classes(), dim);
        let mut rng = HdcRng::seed_from_u64(seed);
        clf.fit(&train_feats, &tc, &mut rng).expect("fit");
        let test_acc = clf.accuracy(&test_feats).expect("acc");
        test_correct.push((test_acc * test_feats.len() as f64).round() as usize);
        t3.row(&[
            &name,
            &pct(clf.accuracy(&train_feats).expect("acc")),
            &pct(test_acc),
        ]);
    }
    t3.print();
    let (naive, retrained) = (test_correct[0], test_correct[2]);
    let n = test_feats.len();
    match retrained.cmp(&naive) {
        std::cmp::Ordering::Equal => format!("ties naive bundling ({retrained} of {n})"),
        std::cmp::Ordering::Greater => format!(
            "beats naive bundling by {} of {n} held-out crops",
            retrained - naive
        ),
        std::cmp::Ordering::Less => format!(
            "trails naive bundling by {} of {n} held-out crops",
            naive - retrained
        ),
    }
}
