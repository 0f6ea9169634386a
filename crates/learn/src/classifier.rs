//! The adaptive hyperdimensional classifier (§5).

use std::fmt;

use hdface_hdc::{
    hamming_distances_block, hamming_top2, top2_scores, Accumulator, BitVector, HdcRng, ScoreTop2,
};

use crate::error::LearnError;

/// Training schedule for [`HdClassifier::fit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set. HDFace is a
    /// single-pass learner by design; additional epochs run the
    /// adaptive (mispredict-driven) refinement the paper calls
    /// "adaptive training".
    pub epochs: usize,
    /// When `true` (the default, matching the paper), updates are
    /// scaled by `1 − δ`, the distance of the sample to its class
    /// hypervector — samples the model already memorized contribute
    /// almost nothing, which "eliminates redundant information
    /// memorization … to eliminate overfitting". When `false`,
    /// training degenerates to naive bundling (the ablation case).
    pub adaptive: bool,
    /// Shuffle the training order each epoch.
    pub shuffle: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 3,
            adaptive: true,
            shuffle: true,
        }
    }
}

impl TrainConfig {
    /// The paper's single-pass configuration.
    #[must_use]
    pub fn single_pass() -> Self {
        TrainConfig {
            epochs: 1,
            adaptive: true,
            shuffle: false,
        }
    }

    /// Naive bundling (no adaptive scaling) — the ablation baseline.
    #[must_use]
    pub fn naive() -> Self {
        TrainConfig {
            epochs: 1,
            adaptive: false,
            shuffle: false,
        }
    }
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainReport {
    /// Epochs actually run.
    pub epochs: usize,
    /// Training-set errors observed in the final epoch.
    pub last_epoch_errors: usize,
    /// Samples seen per epoch.
    pub samples: usize,
}

/// The HDFace classifier: one real-valued class accumulator per class,
/// cosine-similarity inference, adaptive updates.
///
/// Class hypervectors are kept as non-quantized accumulators during
/// training (saturation-free) and can be exported as a
/// [`BinaryHdModel`] for bitwise deployment — the form whose
/// robustness Table 2 studies.
pub struct HdClassifier {
    classes: Vec<Accumulator>,
    dim: usize,
    /// When the accumulators are exactly the bipolar (±1) view of a
    /// binary model (set by [`HdClassifier::from_binary`], cleared by
    /// any accumulator mutation), this holds the underlying class bit
    /// patterns so batched scoring can run on the blocked SIMD
    /// Hamming kernel instead of per-class float walks. Cosine on a
    /// ±1 accumulator is an exact function of the integer Hamming
    /// distance (see [`cosine_from_distance`]), so the fast path is
    /// bit-identical, not approximate.
    bipolar: Option<Vec<BitVector>>,
}

/// Cosine similarity of a bipolar query against a **±1 accumulator**,
/// reconstructed from the integer Hamming distance `dist` between the
/// query and the accumulator's sign pattern.
///
/// Replicates [`Accumulator::cosine`] bit-for-bit for this input
/// class: the per-bit `dot` accumulation sums ±1.0 terms — every
/// partial sum is an integer below 2^53, so the final value is
/// exactly `dim − 2·dist` — and `norm` sums `dim` ones, exactly
/// `dim as f64`. The divisor is spelled the same way as the original
/// (`norm.sqrt() * (dim as f64).sqrt()`, *not* `dim as f64`), because
/// `sqrt(D)·sqrt(D)` need not round to `D` for non-square `D`.
fn cosine_from_distance(dim: usize, dist: usize) -> f64 {
    if dim == 0 {
        return 0.0;
    }
    let dot = (dim as f64) - 2.0 * (dist as f64);
    let norm = dim as f64;
    dot / (norm.sqrt() * (dim as f64).sqrt())
}

impl HdClassifier {
    /// Creates an untrained classifier.
    #[must_use]
    pub fn new(num_classes: usize, dim: usize) -> Self {
        HdClassifier {
            classes: (0..num_classes).map(|_| Accumulator::new(dim)).collect(),
            dim,
            bipolar: None,
        }
    }

    /// `true` when batched scoring will take the blocked Hamming
    /// fast path (the accumulators are an unmodified bipolar view of
    /// a binary model).
    #[must_use]
    pub fn is_bipolar(&self) -> bool {
        self.bipolar.is_some()
    }

    /// Hypervector dimensionality.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of classes.
    #[must_use]
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Read-only view of a class accumulator.
    ///
    /// # Panics
    ///
    /// Panics if `label` is out of range.
    #[must_use]
    pub fn class(&self, label: usize) -> &Accumulator {
        &self.classes[label]
    }

    /// Cosine similarities of a query against every class.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::DimensionMismatch`] for foreign queries.
    pub fn similarities(&self, query: &BitVector) -> Result<Vec<f64>, LearnError> {
        self.classes
            .iter()
            .map(|c| c.cosine(query).map_err(LearnError::from))
            .collect()
    }

    /// Fused top-2 similarity scan: streams the per-class cosines
    /// straight into running best/runner-up state, never materializing
    /// the full similarity vector. Tie-breaking keeps the **latest**
    /// class, matching the historical `max_by(f64::total_cmp)` argmax.
    ///
    /// Returns `None` on an empty model.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::DimensionMismatch`] for foreign queries.
    pub fn top2(&self, query: &BitVector) -> Result<Option<ScoreTop2>, LearnError> {
        let mut err = None;
        let top = top2_scores(self.classes.iter().map(|c| match c.cosine(query) {
            Ok(s) => s,
            Err(e) => {
                err.get_or_insert(e);
                f64::NAN
            }
        }));
        match err {
            Some(e) => Err(LearnError::from(e)),
            None => Ok(top),
        }
    }

    /// Predicts the class with maximal similarity.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::NoClasses`] on an empty model and
    /// [`LearnError::DimensionMismatch`] for foreign queries.
    pub fn predict(&self, query: &BitVector) -> Result<usize, LearnError> {
        self.top2(query)?
            .map(|t| t.best)
            .ok_or(LearnError::NoClasses)
    }

    /// Margin of the `positive` class over its strongest rival:
    /// `cos(query, C_positive) − max_{i ≠ positive} cos(query, C_i)`.
    ///
    /// Positive margins mean the positive class wins; the magnitude is
    /// the detection confidence used by the sliding-window detector.
    /// Computed in one fused pass over the class list.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::LabelOutOfRange`] for a bad `positive`
    /// index, [`LearnError::NoClasses`] when no rival class exists and
    /// [`LearnError::DimensionMismatch`] for foreign queries.
    pub fn margin(&self, query: &BitVector, positive: usize) -> Result<f64, LearnError> {
        if positive >= self.classes.len() {
            return Err(LearnError::LabelOutOfRange {
                label: positive,
                num_classes: self.classes.len(),
            });
        }
        let mut pos_score = f64::NAN;
        let mut err = None;
        let top = top2_scores(self.classes.iter().enumerate().map(|(i, c)| {
            let s = match c.cosine(query) {
                Ok(s) => s,
                Err(e) => {
                    err.get_or_insert(e);
                    f64::NAN
                }
            };
            if i == positive {
                pos_score = s;
            }
            s
        }));
        if let Some(e) = err {
            return Err(LearnError::from(e));
        }
        let top = top.ok_or(LearnError::NoClasses)?;
        let rival = if top.best == positive {
            top.second.map(|(_, s)| s)
        } else {
            Some(top.best_score)
        };
        let rival = rival.ok_or(LearnError::NoClasses)?;
        Ok(pos_score - rival)
    }

    /// Batched [`HdClassifier::margin`]: scores every query against
    /// every class in one blocked pass.
    ///
    /// When the classifier [`is_bipolar`](HdClassifier::is_bipolar),
    /// per-class cosines are reconstructed from the blocked SIMD
    /// Hamming kernel via `cosine_from_distance` and fed through the
    /// same fused [`top2_scores`] logic as the scalar path — identical
    /// floats, identical tie-breaking. Otherwise this falls back to
    /// per-query [`HdClassifier::margin`] calls, still bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::LabelOutOfRange`] for a bad `positive`
    /// index, [`LearnError::NoClasses`] when no rival class exists and
    /// [`LearnError::DimensionMismatch`] for foreign queries.
    pub fn margin_batch(
        &self,
        queries: &[&BitVector],
        positive: usize,
    ) -> Result<Vec<f64>, LearnError> {
        if positive >= self.classes.len() {
            return Err(LearnError::LabelOutOfRange {
                label: positive,
                num_classes: self.classes.len(),
            });
        }
        let Some(bits) = &self.bipolar else {
            return queries.iter().map(|q| self.margin(q, positive)).collect();
        };
        let ncand = bits.len();
        let dists = hamming_distances_block(queries, bits)?;
        let mut out = Vec::with_capacity(queries.len());
        for row in dists.chunks(ncand.max(1)).take(queries.len()) {
            let mut pos_score = f64::NAN;
            let top = top2_scores(row.iter().enumerate().map(|(i, &d)| {
                let s = cosine_from_distance(self.dim, d);
                if i == positive {
                    pos_score = s;
                }
                s
            }));
            let top = top.ok_or(LearnError::NoClasses)?;
            let rival = if top.best == positive {
                top.second.map(|(_, s)| s)
            } else {
                Some(top.best_score)
            };
            out.push(pos_score - rival.ok_or(LearnError::NoClasses)?);
        }
        Ok(out)
    }

    /// Batched [`HdClassifier::predict`]: one blocked pass over all
    /// queries, bit-identical to per-query prediction (cosines are
    /// reconstructed from Hamming distances on the bipolar fast path
    /// and ranked by the same last-wins [`top2_scores`] scan).
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::NoClasses`] on an empty model and
    /// [`LearnError::DimensionMismatch`] for foreign queries.
    pub fn predict_batch(&self, queries: &[&BitVector]) -> Result<Vec<usize>, LearnError> {
        let Some(bits) = &self.bipolar else {
            return queries.iter().map(|q| self.predict(q)).collect();
        };
        let ncand = bits.len();
        let dists = hamming_distances_block(queries, bits)?;
        let mut out = Vec::with_capacity(queries.len());
        for row in dists.chunks(ncand.max(1)).take(queries.len()) {
            let top = top2_scores(row.iter().map(|&d| cosine_from_distance(self.dim, d)));
            out.push(top.ok_or(LearnError::NoClasses)?.best);
        }
        Ok(out)
    }

    /// Batched prediction *and* per-class similarity scores in one
    /// blocked pass — the kernel behind the serving layer's
    /// `/classify`, which scores one query per request.
    ///
    /// On the bipolar fast path one
    /// [`hamming_distances_block`] call produces the full
    /// query×class distance matrix; per-class cosines are
    /// reconstructed exactly via `cosine_from_distance` and the
    /// winner comes from the same last-wins [`top2_scores`] scan the
    /// scalar [`predict`](HdClassifier::predict) uses, so every
    /// `(class, scores)` pair is bit-identical to a per-query
    /// [`predict`](HdClassifier::predict) +
    /// [`similarities`](HdClassifier::similarities) call. Non-bipolar
    /// classifiers fall back to exactly those per-query calls.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::NoClasses`] on an empty model and
    /// [`LearnError::DimensionMismatch`] for foreign queries.
    #[allow(clippy::type_complexity)]
    pub fn classify_batch(
        &self,
        queries: &[&BitVector],
    ) -> Result<Vec<(usize, Vec<f64>)>, LearnError> {
        let Some(bits) = &self.bipolar else {
            return queries
                .iter()
                .map(|q| Ok((self.predict(q)?, self.similarities(q)?)))
                .collect();
        };
        let ncand = bits.len();
        let dists = hamming_distances_block(queries, bits)?;
        let mut out = Vec::with_capacity(queries.len());
        for row in dists.chunks(ncand.max(1)).take(queries.len()) {
            let scores: Vec<f64> = row
                .iter()
                .map(|&d| cosine_from_distance(self.dim, d))
                .collect();
            let top = top2_scores(scores.iter().copied()).ok_or(LearnError::NoClasses)?;
            out.push((top.best, scores));
        }
        Ok(out)
    }

    /// One adaptive update with a single sample:
    /// `C_label += (1 − δ_label)·H`, and on misprediction
    /// `C_pred −= (1 − δ_pred)·H` (the OnlineHD-style rule the paper's
    /// adaptive training implements).
    ///
    /// Returns `true` when the sample was mispredicted before the
    /// update.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::LabelOutOfRange`] /
    /// [`LearnError::DimensionMismatch`] for invalid samples.
    pub fn update(
        &mut self,
        sample: &BitVector,
        label: usize,
        adaptive: bool,
    ) -> Result<bool, LearnError> {
        if label >= self.classes.len() {
            return Err(LearnError::LabelOutOfRange {
                label,
                num_classes: self.classes.len(),
            });
        }
        // One fused pass yields the argmax (last-wins, as before), the
        // winner's similarity and the label's similarity — the only
        // three values the update rule reads.
        let mut label_sim = f64::NAN;
        let mut err = None;
        let top = top2_scores(self.classes.iter().enumerate().map(|(i, c)| {
            let s = match c.cosine(sample) {
                Ok(s) => s,
                Err(e) => {
                    err.get_or_insert(e);
                    f64::NAN
                }
            };
            if i == label {
                label_sim = s;
            }
            s
        }));
        if let Some(e) = err {
            return Err(LearnError::from(e));
        }
        let top = top.ok_or(LearnError::NoClasses)?;
        let predicted = top.best;
        let mispredicted = predicted != label;

        // The accumulators are about to drift from any bipolar view:
        // batched scoring must return to the float path.
        self.bipolar = None;

        let lr_pos = if adaptive { 1.0 - label_sim } else { 1.0 };
        self.classes[label].add_weighted(sample, lr_pos)?;
        if mispredicted {
            let lr_neg = if adaptive { 1.0 - top.best_score } else { 1.0 };
            self.classes[predicted].add_weighted(sample, -lr_neg)?;
        }
        Ok(mispredicted)
    }

    /// Trains on labeled hypervectors according to the schedule.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::EmptyTrainingSet`] when `samples` is
    /// empty, plus any per-sample validation error.
    pub fn fit(
        &mut self,
        samples: &[(BitVector, usize)],
        config: &TrainConfig,
        rng: &mut HdcRng,
    ) -> Result<TrainReport, LearnError> {
        if samples.is_empty() {
            return Err(LearnError::EmptyTrainingSet);
        }
        let mut order: Vec<usize> = (0..samples.len()).collect();
        let mut last_errors = 0;
        for _ in 0..config.epochs.max(1) {
            if config.shuffle {
                for i in (1..order.len()).rev() {
                    let j = rng.random_range(0..=i);
                    order.swap(i, j);
                }
            }
            last_errors = 0;
            for &i in &order {
                let (sample, label) = &samples[i];
                if self.update(sample, *label, config.adaptive)? {
                    last_errors += 1;
                }
            }
        }
        Ok(TrainReport {
            epochs: config.epochs.max(1),
            last_epoch_errors: last_errors,
            samples: samples.len(),
        })
    }

    /// Fraction of correctly classified samples.
    ///
    /// # Errors
    ///
    /// Propagates prediction errors; an empty slice scores `0.0`.
    pub fn accuracy(&self, samples: &[(BitVector, usize)]) -> Result<f64, LearnError> {
        if samples.is_empty() {
            return Ok(0.0);
        }
        let mut correct = 0usize;
        for (s, l) in samples {
            if self.predict(s)? == *l {
                correct += 1;
            }
        }
        Ok(correct as f64 / samples.len() as f64)
    }

    /// Rebuilds a classifier from a binary deployment model: each
    /// class accumulator holds the bipolar (±1) values of the stored
    /// hypervector, so cosine inference ranks classes exactly like the
    /// binary model's Hamming inference.
    #[must_use]
    pub fn from_binary(model: &BinaryHdModel) -> Self {
        let mut clf = HdClassifier::new(model.num_classes(), model.dim());
        for (acc, bits) in clf.classes.iter_mut().zip(model.classes()) {
            acc.add(bits).expect("dims equal by construction");
        }
        // Remember the sign patterns: batched scoring can now run on
        // the blocked Hamming kernel (invalidated by any `update`).
        clf.bipolar = Some(model.classes().to_vec());
        clf
    }

    /// Resets every class accumulator to the bipolar values of
    /// `model`, discarding all accumulated float state. This is the
    /// shadow trainer's rejection rollback: when a candidate fails
    /// its held-out gate, the updates that produced it are thrown
    /// away and learning restarts from the live deployment model.
    pub fn reset_to_binary(&mut self, model: &BinaryHdModel) {
        *self = HdClassifier::from_binary(model);
    }

    /// Exports the sign-quantized binary deployment model.
    #[must_use]
    pub fn to_binary(&self, rng: &mut HdcRng) -> BinaryHdModel {
        BinaryHdModel {
            classes: self.classes.iter().map(|c| c.threshold(rng)).collect(),
            dim: self.dim,
        }
    }
}

impl fmt::Debug for HdClassifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "HdClassifier({} classes, D={})",
            self.classes.len(),
            self.dim
        )
    }
}

/// The binary (1-bit-per-dimension) deployment model: class
/// hypervectors are plain bit vectors and inference is Hamming
/// similarity — pure popcounts, the form the FPGA implementation
/// accelerates and the robustness study corrupts.
#[derive(Debug, Clone, PartialEq)]
pub struct BinaryHdModel {
    classes: Vec<BitVector>,
    dim: usize,
}

impl BinaryHdModel {
    /// Builds a model directly from class hypervectors (e.g. loaded
    /// from the `HDM1` byte format).
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::NoClasses`] for an empty set and
    /// [`LearnError::DimensionMismatch`] for ragged dimensionalities.
    pub fn from_classes(classes: Vec<BitVector>) -> Result<Self, LearnError> {
        let first = classes.first().ok_or(LearnError::NoClasses)?;
        let dim = first.dim();
        for c in &classes {
            if c.dim() != dim {
                return Err(LearnError::DimensionMismatch(
                    hdface_hdc::DimensionMismatchError {
                        left: dim,
                        right: c.dim(),
                    },
                ));
            }
        }
        Ok(BinaryHdModel { classes, dim })
    }

    /// Number of classes.
    #[must_use]
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Hypervector dimensionality.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Read-only view of the class hypervectors.
    #[must_use]
    pub fn classes(&self) -> &[BitVector] {
        &self.classes
    }

    /// Predicts by maximal Hamming similarity.
    ///
    /// The scan runs on the fused word-level [`hamming_top2`] kernel:
    /// maximal Hamming similarity is minimal Hamming distance, and the
    /// kernel's first-wins tie-breaking matches the historical strict
    /// `sim > best` scan.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::NoClasses`] on an empty model and
    /// [`LearnError::DimensionMismatch`] for foreign queries.
    pub fn predict(&self, query: &BitVector) -> Result<usize, LearnError> {
        hamming_top2(query, &self.classes)?
            .map(|t| t.best)
            .ok_or(LearnError::NoClasses)
    }

    /// Fraction of correctly classified samples.
    ///
    /// # Errors
    ///
    /// Propagates prediction errors; an empty slice scores `0.0`.
    pub fn accuracy(&self, samples: &[(BitVector, usize)]) -> Result<f64, LearnError> {
        if samples.is_empty() {
            return Ok(0.0);
        }
        let mut correct = 0usize;
        for (s, l) in samples {
            if self.predict(s)? == *l {
                correct += 1;
            }
        }
        Ok(correct as f64 / samples.len() as f64)
    }

    /// Returns a copy whose class hypervectors have random bit errors
    /// at the given rate — the model-corruption arm of Table 2.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::DimensionMismatch`] never in practice;
    /// the rate is validated by the underlying flip routine and an
    /// invalid rate is reported as a dimension-preserving clone.
    ///
    /// # Panics
    ///
    /// Panics if `rate ∉ [0, 1]`.
    #[must_use]
    pub fn with_bit_errors(&self, rate: f64, rng: &mut HdcRng) -> Self {
        BinaryHdModel {
            classes: self
                .classes
                .iter()
                .map(|c| {
                    c.with_bit_errors(rate, rng)
                        .expect("rate validated by caller")
                })
                .collect(),
            dim: self.dim,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdface_hdc::SeedableRng;

    const D: usize = 4096;

    /// Builds a toy dataset: `k` random prototypes, samples are
    /// prototypes with `flip` fraction of bits flipped.
    fn toy(
        k: usize,
        per_class: usize,
        flip: f64,
        rng: &mut HdcRng,
    ) -> (Vec<BitVector>, Vec<(BitVector, usize)>) {
        let protos: Vec<BitVector> = (0..k).map(|_| BitVector::random(D, rng)).collect();
        let mut samples = Vec::new();
        for (label, proto) in protos.iter().enumerate() {
            for _ in 0..per_class {
                samples.push((proto.with_bit_errors(flip, rng).unwrap(), label));
            }
        }
        (protos, samples)
    }

    #[test]
    fn learns_separable_prototypes() {
        let mut rng = HdcRng::seed_from_u64(1);
        let (_, train) = toy(4, 16, 0.25, &mut rng);
        let (_, test) = toy(4, 16, 0.25, &mut HdcRng::seed_from_u64(1));
        let mut clf = HdClassifier::new(4, D);
        clf.fit(&train, &TrainConfig::default(), &mut rng).unwrap();
        let acc = clf.accuracy(&test).unwrap();
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn single_pass_already_learns() {
        let mut rng = HdcRng::seed_from_u64(2);
        let (_, train) = toy(3, 12, 0.2, &mut rng);
        let mut clf = HdClassifier::new(3, D);
        let report = clf
            .fit(&train, &TrainConfig::single_pass(), &mut rng)
            .unwrap();
        assert_eq!(report.epochs, 1);
        assert_eq!(report.samples, 36);
        let acc = clf.accuracy(&train).unwrap();
        assert!(acc > 0.9, "single-pass accuracy {acc}");
    }

    #[test]
    fn adaptive_beats_naive_on_imbalanced_difficulty() {
        // Mix one tight class with one noisy class: naive bundling
        // lets the tight class dominate while adaptive scaling keeps
        // updates proportional to novelty.
        let mut rng = HdcRng::seed_from_u64(3);
        let proto_a = BitVector::random(D, &mut rng);
        let proto_b = BitVector::random(D, &mut rng);
        let mut train = Vec::new();
        for i in 0..60 {
            // Class 0 oversampled and tight; class 1 rare and noisy.
            if i % 3 != 0 {
                train.push((proto_a.with_bit_errors(0.05, &mut rng).unwrap(), 0));
            } else {
                train.push((proto_b.with_bit_errors(0.35, &mut rng).unwrap(), 1));
            }
        }
        let mut test = Vec::new();
        for _ in 0..40 {
            test.push((proto_a.with_bit_errors(0.05, &mut rng).unwrap(), 0));
            test.push((proto_b.with_bit_errors(0.35, &mut rng).unwrap(), 1));
        }
        let mut adaptive = HdClassifier::new(2, D);
        adaptive
            .fit(&train, &TrainConfig::default(), &mut rng)
            .unwrap();
        let mut naive = HdClassifier::new(2, D);
        naive.fit(&train, &TrainConfig::naive(), &mut rng).unwrap();
        let a = adaptive.accuracy(&test).unwrap();
        let n = naive.accuracy(&test).unwrap();
        assert!(a >= n, "adaptive {a} should be at least naive {n}");
        assert!(a > 0.9, "adaptive accuracy {a}");
    }

    #[test]
    fn update_reports_mispredictions() {
        let mut rng = HdcRng::seed_from_u64(4);
        let v = BitVector::random(D, &mut rng);
        let mut clf = HdClassifier::new(2, D);
        // Empty model: prediction is arbitrary but updates proceed.
        let _ = clf.update(&v, 0, true).unwrap();
        // Now a sample equal to class 0's content labeled 1 must
        // mispredict.
        assert!(clf.update(&v, 1, true).unwrap());
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut rng = HdcRng::seed_from_u64(5);
        let mut clf = HdClassifier::new(2, 64);
        assert!(matches!(
            clf.fit(&[], &TrainConfig::default(), &mut rng),
            Err(LearnError::EmptyTrainingSet)
        ));
        let v = BitVector::zeros(64);
        assert!(matches!(
            clf.update(&v, 7, true),
            Err(LearnError::LabelOutOfRange { .. })
        ));
        let alien = BitVector::zeros(65);
        assert!(clf.predict(&alien).is_err());
        let empty = HdClassifier::new(0, 64);
        assert!(matches!(empty.predict(&v), Err(LearnError::NoClasses)));
    }

    #[test]
    fn from_binary_ranks_like_hamming() {
        let mut rng = HdcRng::seed_from_u64(21);
        let (_, train) = toy(3, 10, 0.2, &mut rng);
        let mut clf = HdClassifier::new(3, D);
        clf.fit(&train, &TrainConfig::default(), &mut rng).unwrap();
        let binary = clf.to_binary(&mut rng);
        let rebuilt = HdClassifier::from_binary(&binary);
        for (s, _) in &train {
            assert_eq!(
                rebuilt.predict(s).unwrap(),
                binary.predict(s).unwrap(),
                "cosine-on-bipolar must agree with Hamming"
            );
        }
    }

    #[test]
    fn batch_margins_bit_identical_on_both_paths() {
        let mut rng = HdcRng::seed_from_u64(40);
        let (_, train) = toy(3, 10, 0.2, &mut rng);
        let mut trained = HdClassifier::new(3, D);
        trained
            .fit(&train, &TrainConfig::default(), &mut rng)
            .unwrap();
        assert!(!trained.is_bipolar());
        let bipolar = HdClassifier::from_binary(&trained.to_binary(&mut rng));
        assert!(bipolar.is_bipolar());
        let queries: Vec<&BitVector> = train.iter().map(|(s, _)| s).collect();
        for clf in [&trained, &bipolar] {
            let batch = clf.margin_batch(&queries, 1).unwrap();
            let preds = clf.predict_batch(&queries).unwrap();
            for (q, (m, p)) in queries.iter().zip(batch.iter().zip(&preds)) {
                assert_eq!(m.to_bits(), clf.margin(q, 1).unwrap().to_bits());
                assert_eq!(*p, clf.predict(q).unwrap());
            }
        }
    }

    #[test]
    fn classify_batch_bit_identical_on_both_paths() {
        let mut rng = HdcRng::seed_from_u64(47);
        let (_, train) = toy(3, 10, 0.2, &mut rng);
        let mut trained = HdClassifier::new(3, D);
        trained
            .fit(&train, &TrainConfig::default(), &mut rng)
            .unwrap();
        let bipolar = HdClassifier::from_binary(&trained.to_binary(&mut rng));
        let queries: Vec<&BitVector> = train.iter().map(|(s, _)| s).collect();
        for clf in [&trained, &bipolar] {
            let batch = clf.classify_batch(&queries).unwrap();
            for (q, (class, scores)) in queries.iter().zip(&batch) {
                assert_eq!(*class, clf.predict(q).unwrap());
                let want = clf.similarities(q).unwrap();
                assert_eq!(scores.len(), want.len());
                for (got, want) in scores.iter().zip(&want) {
                    assert_eq!(got.to_bits(), want.to_bits());
                }
            }
        }
        assert!(bipolar.classify_batch(&[]).unwrap().is_empty());
        let empty = HdClassifier::new(0, 64);
        let v = BitVector::zeros(64);
        assert!(matches!(
            empty.classify_batch(&[&v]),
            Err(LearnError::NoClasses)
        ));
    }

    #[test]
    fn update_invalidates_the_bipolar_fast_path() {
        let mut rng = HdcRng::seed_from_u64(41);
        let (_, train) = toy(2, 6, 0.2, &mut rng);
        let mut clf = HdClassifier::new(2, D);
        clf.fit(&train, &TrainConfig::default(), &mut rng).unwrap();
        let mut bipolar = HdClassifier::from_binary(&clf.to_binary(&mut rng));
        assert!(bipolar.is_bipolar());
        bipolar.update(&train[0].0, train[0].1, true).unwrap();
        assert!(!bipolar.is_bipolar());
        // Post-update batch margins must still match the scalar path.
        let queries: Vec<&BitVector> = train.iter().map(|(s, _)| s).collect();
        let batch = bipolar.margin_batch(&queries, 1).unwrap();
        for (q, m) in queries.iter().zip(batch) {
            assert_eq!(m.to_bits(), bipolar.margin(q, 1).unwrap().to_bits());
        }
    }

    #[test]
    fn batch_rejects_bad_inputs_like_scalar() {
        let clf = HdClassifier::new(2, 64);
        let alien = BitVector::zeros(65);
        assert!(matches!(
            clf.margin_batch(&[&alien], 7),
            Err(LearnError::LabelOutOfRange { .. })
        ));
        assert!(clf.margin_batch(&[&alien], 1).is_err());
        assert!(clf.predict_batch(&[&alien]).is_err());
        let empty = HdClassifier::new(0, 64);
        let v = BitVector::zeros(64);
        assert!(matches!(
            empty.predict_batch(&[&v]),
            Err(LearnError::NoClasses)
        ));
        assert!(clf.margin_batch(&[], 1).unwrap().is_empty());
        assert!(clf.predict_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn reset_to_binary_discards_accumulated_updates() {
        let mut rng = HdcRng::seed_from_u64(33);
        let (_, train) = toy(3, 10, 0.2, &mut rng);
        let mut clf = HdClassifier::new(3, D);
        clf.fit(&train, &TrainConfig::default(), &mut rng).unwrap();
        let live = clf.to_binary(&mut rng);
        let mut shadow = HdClassifier::from_binary(&live);
        // Poison the shadow with deliberately wrong labels, then
        // roll it back: quantizing it again must reproduce the live
        // model bit-for-bit (the rejection path's guarantee).
        for (sample, label) in train.iter().take(5) {
            shadow.update(sample, (label + 1) % 3, true).unwrap();
        }
        shadow.reset_to_binary(&live);
        let requantized = shadow.to_binary(&mut HdcRng::seed_from_u64(99));
        assert_eq!(requantized.classes(), live.classes());
    }

    #[test]
    fn binary_model_matches_float_model_closely() {
        let mut rng = HdcRng::seed_from_u64(6);
        let (_, train) = toy(3, 20, 0.2, &mut rng);
        let (_, test) = toy(3, 20, 0.2, &mut HdcRng::seed_from_u64(6));
        let mut clf = HdClassifier::new(3, D);
        clf.fit(&train, &TrainConfig::default(), &mut rng).unwrap();
        let bin = clf.to_binary(&mut rng);
        let fa = clf.accuracy(&test).unwrap();
        let ba = bin.accuracy(&test).unwrap();
        assert!(ba > fa - 0.1, "binary {ba} vs float {fa}");
        assert_eq!(bin.num_classes(), 3);
        assert_eq!(bin.dim(), D);
        assert_eq!(bin.classes().len(), 3);
    }

    #[test]
    fn binary_model_degrades_gracefully_with_bit_errors() {
        let mut rng = HdcRng::seed_from_u64(7);
        let (_, train) = toy(2, 24, 0.2, &mut rng);
        let (_, test) = toy(2, 24, 0.2, &mut HdcRng::seed_from_u64(7));
        let mut clf = HdClassifier::new(2, D);
        clf.fit(&train, &TrainConfig::default(), &mut rng).unwrap();
        let bin = clf.to_binary(&mut rng);
        let clean = bin.accuracy(&test).unwrap();
        let noisy = bin.with_bit_errors(0.1, &mut rng).accuracy(&test).unwrap();
        // The holographic claim: 10% model bit errors barely move
        // accuracy.
        assert!(
            noisy > clean - 0.1,
            "noisy {noisy} collapsed from clean {clean}"
        );
    }

    #[test]
    fn accuracy_of_empty_set_is_zero() {
        let clf = HdClassifier::new(2, 16);
        assert_eq!(clf.accuracy(&[]).unwrap(), 0.0);
        let mut rng = HdcRng::seed_from_u64(0);
        let bin = clf.to_binary(&mut rng);
        assert_eq!(bin.accuracy(&[]).unwrap(), 0.0);
    }

    #[test]
    fn debug_formats() {
        let clf = HdClassifier::new(3, 128);
        assert!(format!("{clf:?}").contains("3 classes"));
        assert_eq!(clf.num_classes(), 3);
        assert_eq!(clf.dim(), 128);
        assert_eq!(clf.class(0).dim(), 128);
    }
}
