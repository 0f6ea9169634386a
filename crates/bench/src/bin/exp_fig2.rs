//! **Fig. 2 reproduction** — relative error of the stochastic
//! primitives (construction, average, multiplication) as a function
//! of hypervector dimensionality, plus the square-root and division
//! binary searches as supplementary series.
//!
//! Paper claim to reproduce: "the relative error rate decreases with
//! the hypervector dimensionality".
//!
//! ```sh
//! cargo run --release -p hdface-bench --bin exp_fig2 [-- --full]
//! ```

use hdface_bench::{RunConfig, Table};
use hdface_stochastic::{expected_sigma, measure_errors, OpKind, StochasticContext};

fn main() {
    let cfg = RunConfig::from_args();
    let dims: &[usize] = cfg.pick(
        &[512, 1024, 2048, 4096, 8192][..],
        &[512, 1024, 2048, 4096, 8192, 16384, 32768][..],
    );
    let grid = cfg.pick(7, 11);
    let trials = cfg.pick(3, 8);

    println!("== Fig. 2: stochastic arithmetic error vs dimensionality ==\n");
    let mut table = Table::new(&[
        "D",
        "construction",
        "average",
        "multiplication",
        "sqrt",
        "divide",
        "sigma=1/sqrt(D)",
    ]);

    // Each row's errors, in column order, for the shape check.
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for &dim in dims {
        let mut errors = Vec::new();
        for op in OpKind::ALL {
            let stats = measure_errors(op, dim, grid, trials, cfg.seed).expect("dim > 0");
            errors.push(stats.mean_abs_error);
        }
        // Supplementary: sqrt and divide over a value grid.
        let mut ctx = StochasticContext::new(dim, cfg.seed + 1);
        let mut e_sqrt = 0.0;
        let mut e_div = 0.0;
        let mut n_sqrt = 0usize;
        let mut n_div = 0usize;
        for i in 0..grid {
            let x = i as f64 / (grid - 1) as f64;
            let vx = ctx.encode(x).unwrap();
            let r = ctx.sqrt(&vx).unwrap();
            e_sqrt += (ctx.decode(&r).unwrap() - x.sqrt()).abs();
            n_sqrt += 1;
            let denom = 0.4 + 0.6 * x; // keep |num| ≤ |den|
            let num = denom * (2.0 * (i as f64 / (grid - 1) as f64) - 1.0) * 0.9;
            let vn = ctx.encode(num).unwrap();
            let vd = ctx.encode(denom).unwrap();
            if let Ok(q) = ctx.div(&vn, &vd) {
                e_div += (ctx.decode(&q).unwrap() - num / denom).abs();
                n_div += 1;
            }
        }
        errors.push(e_sqrt / n_sqrt as f64);
        errors.push(e_div / n_div.max(1) as f64);
        errors.push(expected_sigma(dim, 0.0));
        let mut cells: Vec<String> = vec![dim.to_string()];
        cells.extend(errors.iter().map(|e| format!("{e:.5}")));
        let refs: Vec<&dyn std::fmt::Display> =
            cells.iter().map(|c| c as &dyn std::fmt::Display).collect();
        table.row(&refs);
        rows.push(errors);
    }
    table.print();

    // The paper's shape: error falls as D grows. How far each column
    // falls over the sweep, and whether it falls at every step.
    let names = OpKind::ALL
        .iter()
        .map(|op| op.name())
        .chain(["sqrt", "divide", "1/sqrt(D)"]);
    let (first, last) = (&rows[0], &rows[rows.len() - 1]);
    let shape: Vec<String> = names
        .enumerate()
        .map(|(c, name)| {
            let every_step = rows.windows(2).all(|w| w[1][c] < w[0][c]);
            let note = if every_step {
                ""
            } else {
                " (not at every step)"
            };
            format!("{name} {:.1}x{note}", first[c] / last[c])
        })
        .collect();
    println!(
        "\nshape check (paper: error falls as D grows), at seed {} on a {grid}-value grid,\n\
         fall from D = {} to {}: {}.\n\
         paper reference: errors become negligible by D = 4k-8k (Fig. 2a-c).",
        cfg.seed,
        dims[0],
        dims[dims.len() - 1],
        shape.join(", "),
    );
}
