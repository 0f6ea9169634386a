//! Fused word-level similarity kernels.
//!
//! Nearest-neighbour queries against a handful of class hypervectors
//! dominate both training and sliding-window detection. The naive
//! shape — materialize a `Vec<f64>` of similarities, then argmax — is
//! wasteful in exactly the place the profile cares about, so these
//! kernels stream the packed `u64` words once and keep only the
//! running top-2 state.
//!
//! Tie-breaking is part of each caller's observable behaviour and is
//! therefore explicit here: [`hamming_top2`] keeps the **first**
//! minimum (matching a `sim > best` scan over similarities), while
//! [`top2_scores`] keeps the **last** maximum (matching
//! `Iterator::max_by`, which `HdClassifier::predict` historically
//! used).
//!
//! All Hamming kernels route their word loops through the
//! runtime-dispatched backends in [`crate::simd`] (AVX2 / NEON /
//! scalar). Because a Hamming distance is an integer sum of per-word
//! popcounts, every backend returns identical distances — the `_with`
//! variants exist so benchmarks and differential tests can pin a
//! backend explicitly; everything else uses
//! [`active_backend`](crate::simd::active_backend).

use crate::bitvec::BitVector;
use crate::error::DimensionMismatchError;
use crate::simd::{active_backend, hamming_tile_into_with, hamming_words_with, SimdBackend};

/// Queries per tile in the blocked kernels: small enough that a
/// tile's words stay L1-resident while each class vector streams
/// through once per tile.
const QUERY_TILE: usize = 8;

/// Result of a fused nearest/runner-up Hamming query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HammingTop2 {
    /// Index of the closest candidate (ties keep the earliest).
    pub best: usize,
    /// Hamming distance to the closest candidate.
    pub best_distance: usize,
    /// Index and distance of the runner-up, if a second candidate
    /// exists (ties keep the earliest).
    pub second: Option<(usize, usize)>,
}

/// Folds one `(candidate index, distance)` observation into a running
/// top-2 state with **first-wins** tie-breaking. This is the single
/// definition every Hamming kernel shares, so the batched and blocked
/// paths cannot drift from the per-query semantics.
#[inline]
fn push_min2(top: &mut Option<HammingTop2>, i: usize, dist: usize) {
    match top {
        None => {
            *top = Some(HammingTop2 {
                best: i,
                best_distance: dist,
                second: None,
            });
        }
        Some(t) => {
            if dist < t.best_distance {
                t.second = Some((t.best, t.best_distance));
                t.best = i;
                t.best_distance = dist;
            } else {
                match t.second {
                    Some((_, sd)) if dist >= sd => {}
                    _ => t.second = Some((i, dist)),
                }
            }
        }
    }
}

/// Finds the closest and second-closest candidates to `query` by
/// Hamming distance in one pass, streaming each candidate's packed
/// words once with no intermediate distance buffer.
///
/// Returns `None` when `candidates` is empty. Ties keep the earliest
/// candidate, which matches a strict `distance < best` scan (and thus
/// the historical first-wins argmax over Hamming *similarities*).
///
/// # Errors
///
/// Returns [`DimensionMismatchError`] if any candidate's
/// dimensionality differs from the query's.
pub fn hamming_top2(
    query: &BitVector,
    candidates: &[BitVector],
) -> Result<Option<HammingTop2>, DimensionMismatchError> {
    hamming_top2_with(active_backend(), query, candidates)
}

/// [`hamming_top2`] with an explicitly pinned SIMD backend. Distances
/// are integer popcount sums, so every backend returns identical
/// results; this variant exists for benchmarks and differential tests.
///
/// # Errors
///
/// Returns [`DimensionMismatchError`] if any candidate's
/// dimensionality differs from the query's.
pub fn hamming_top2_with(
    backend: SimdBackend,
    query: &BitVector,
    candidates: &[BitVector],
) -> Result<Option<HammingTop2>, DimensionMismatchError> {
    let qwords = query.as_words();
    let mut top: Option<HammingTop2> = None;
    for (i, cand) in candidates.iter().enumerate() {
        if cand.dim() != query.dim() {
            return Err(DimensionMismatchError {
                left: query.dim(),
                right: cand.dim(),
            });
        }
        let dist = hamming_words_with(backend, qwords, cand.as_words()) as usize;
        push_min2(&mut top, i, dist);
    }
    Ok(top)
}

/// Batched form of [`hamming_top2`]: resolves every query against the
/// same candidate set through the blocked tile kernel
/// ([`hamming_top2_block`]), so each candidate's words stay hot in
/// cache across a tile of queries.
///
/// # Errors
///
/// Returns [`DimensionMismatchError`] on the first dimensionality
/// mismatch between any query and any candidate.
pub fn hamming_top2_batch(
    queries: &[BitVector],
    candidates: &[BitVector],
) -> Result<Vec<Option<HammingTop2>>, DimensionMismatchError> {
    let refs: Vec<&BitVector> = queries.iter().collect();
    hamming_top2_block_with(active_backend(), &refs, candidates)
}

/// Shared validation of the blocked kernels: every query must share
/// its dimensionality with every candidate.
fn check_block_dims(
    queries: &[&BitVector],
    candidates: &[BitVector],
) -> Result<(), DimensionMismatchError> {
    for q in queries {
        for cand in candidates {
            if cand.dim() != q.dim() {
                return Err(DimensionMismatchError {
                    left: q.dim(),
                    right: cand.dim(),
                });
            }
        }
    }
    Ok(())
}

/// Raw blocked distance kernel: the full `queries × candidates`
/// Hamming-distance matrix, row-major by query, with queries tiled in
/// groups of 8 (`QUERY_TILE`) so a tile's words stay cache-resident
/// while each candidate streams through once per tile.
///
/// This is the primitive under both [`hamming_top2_block`] and the
/// batched margin scoring in the learn crate (which needs every
/// distance, not just the top 2, to reproduce per-class cosines).
///
/// # Errors
///
/// Returns [`DimensionMismatchError`] on the first dimensionality
/// mismatch between any query and any candidate.
pub fn hamming_distances_block_with(
    backend: SimdBackend,
    queries: &[&BitVector],
    candidates: &[BitVector],
) -> Result<Vec<usize>, DimensionMismatchError> {
    check_block_dims(queries, candidates)?;
    let ncand = candidates.len();
    let mut dists = vec![0usize; queries.len() * ncand];
    if ncand == 0 || queries.is_empty() {
        return Ok(dists);
    }
    let cand_words: Vec<&[u64]> = candidates.iter().map(BitVector::as_words).collect();
    let mut buf = vec![0u64; QUERY_TILE * ncand];
    let mut tile_words: Vec<&[u64]> = Vec::with_capacity(QUERY_TILE);
    for (tile_idx, tile) in queries.chunks(QUERY_TILE).enumerate() {
        let base = tile_idx * QUERY_TILE;
        tile_words.clear();
        tile_words.extend(tile.iter().map(|q| q.as_words()));
        let out = &mut buf[..tile.len() * ncand];
        hamming_tile_into_with(backend, &tile_words, &cand_words, out);
        let rows = &mut dists[base * ncand..(base + tile.len()) * ncand];
        for (dst, &src) in rows.iter_mut().zip(out.iter()) {
            *dst = src as usize;
        }
    }
    Ok(dists)
}

/// [`hamming_distances_block_with`] using the process-wide active
/// backend.
///
/// # Errors
///
/// Returns [`DimensionMismatchError`] on the first dimensionality
/// mismatch between any query and any candidate.
pub fn hamming_distances_block(
    queries: &[&BitVector],
    candidates: &[BitVector],
) -> Result<Vec<usize>, DimensionMismatchError> {
    hamming_distances_block_with(active_backend(), queries, candidates)
}

/// Blocked many-queries × many-candidates top-2 kernel: tiles queries
/// through cache (see [`hamming_distances_block_with`]) and produces,
/// for each query, exactly the result [`hamming_top2`] would — same
/// first-wins tie-breaking, same distances, any backend.
///
/// # Errors
///
/// Returns [`DimensionMismatchError`] on the first dimensionality
/// mismatch between any query and any candidate.
pub fn hamming_top2_block_with(
    backend: SimdBackend,
    queries: &[&BitVector],
    candidates: &[BitVector],
) -> Result<Vec<Option<HammingTop2>>, DimensionMismatchError> {
    check_block_dims(queries, candidates)?;
    let ncand = candidates.len();
    if ncand == 0 || queries.is_empty() {
        return Ok(vec![None; queries.len()]);
    }
    let mut tops: Vec<Option<HammingTop2>> = Vec::with_capacity(queries.len());
    let cand_words: Vec<&[u64]> = candidates.iter().map(BitVector::as_words).collect();
    let mut buf = vec![0u64; QUERY_TILE * ncand];
    let mut tile_words: Vec<&[u64]> = Vec::with_capacity(QUERY_TILE);
    for tile in queries.chunks(QUERY_TILE) {
        tile_words.clear();
        tile_words.extend(tile.iter().map(|q| q.as_words()));
        let out = &mut buf[..tile.len() * ncand];
        hamming_tile_into_with(backend, &tile_words, &cand_words, out);
        // Reduce row by row with a flat register-resident top-2.
        // Candidates ascend within each row and both comparisons are
        // strict, so this reproduces push_min2's first-wins ties
        // exactly (the differential tests against hamming_top2 pin
        // that). usize::MAX is a safe "unset" sentinel: a real
        // distance is bounded by the dimensionality, which can never
        // reach usize::MAX bits.
        for row in out.chunks_exact(ncand) {
            let top = if ncand == 1 {
                HammingTop2 {
                    best: 0,
                    best_distance: row[0] as usize,
                    second: None,
                }
            } else {
                // Seed the state from the first two candidates so the
                // common two-class case (face vs non-face) reduces to
                // one comparison with no loop at all.
                let (d0, d1) = (row[0] as usize, row[1] as usize);
                let (mut best_i, mut best_d, mut sec_i, mut sec_d) = if d1 < d0 {
                    (1, d1, 0, d0)
                } else {
                    (0, d0, 1, d1)
                };
                for (ci, &dist) in row.iter().enumerate().skip(2) {
                    let d = dist as usize;
                    if d < best_d {
                        (sec_i, sec_d) = (best_i, best_d);
                        (best_i, best_d) = (ci, d);
                    } else if d < sec_d {
                        (sec_i, sec_d) = (ci, d);
                    }
                }
                HammingTop2 {
                    best: best_i,
                    best_distance: best_d,
                    second: Some((sec_i, sec_d)),
                }
            };
            tops.push(Some(top));
        }
    }
    Ok(tops)
}

/// [`hamming_top2_block_with`] using the process-wide active backend.
///
/// # Errors
///
/// Returns [`DimensionMismatchError`] on the first dimensionality
/// mismatch between any query and any candidate.
pub fn hamming_top2_block(
    queries: &[&BitVector],
    candidates: &[BitVector],
) -> Result<Vec<Option<HammingTop2>>, DimensionMismatchError> {
    hamming_top2_block_with(active_backend(), queries, candidates)
}

/// Result of a fused top-2 scan over real-valued scores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreTop2 {
    /// Index of the highest score (ties keep the latest, matching
    /// `Iterator::max_by` with `f64::total_cmp`).
    pub best: usize,
    /// The highest score.
    pub best_score: f64,
    /// Index and score of the runner-up, if at least two scores were
    /// supplied.
    pub second: Option<(usize, f64)>,
}

/// Single-pass top-2 over a score stream without materializing a
/// `Vec<f64>`. Ordering uses [`f64::total_cmp`]; ties keep the
/// **latest** index, which is exactly what
/// `iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1))` returns.
pub fn top2_scores<I: IntoIterator<Item = f64>>(scores: I) -> Option<ScoreTop2> {
    let mut top: Option<ScoreTop2> = None;
    for (i, s) in scores.into_iter().enumerate() {
        match &mut top {
            None => {
                top = Some(ScoreTop2 {
                    best: i,
                    best_score: s,
                    second: None,
                });
            }
            Some(t) => {
                if s.total_cmp(&t.best_score) != std::cmp::Ordering::Less {
                    t.second = Some((t.best, t.best_score));
                    t.best = i;
                    t.best_score = s;
                } else {
                    match t.second {
                        Some((_, ss)) if s.total_cmp(&ss) == std::cmp::Ordering::Less => {}
                        _ => t.second = Some((i, s)),
                    }
                }
            }
        }
    }
    top
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HdcRng, SeedableRng};

    fn naive_argmin_first(query: &BitVector, cands: &[BitVector]) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None;
        for (i, c) in cands.iter().enumerate() {
            let d = query.hamming(c).unwrap();
            match best {
                Some((_, bd)) if d >= bd => {}
                _ => best = Some((i, d)),
            }
        }
        best.map(|(i, _)| i)
    }

    #[test]
    fn top2_matches_naive_scan() {
        let mut rng = HdcRng::seed_from_u64(1);
        let query = BitVector::random(512, &mut rng);
        let cands: Vec<BitVector> = (0..7).map(|_| BitVector::random(512, &mut rng)).collect();
        let top = hamming_top2(&query, &cands).unwrap().unwrap();
        assert_eq!(Some(top.best), naive_argmin_first(&query, &cands));
        assert_eq!(top.best_distance, query.hamming(&cands[top.best]).unwrap());
        let (si, sd) = top.second.unwrap();
        assert_eq!(sd, query.hamming(&cands[si]).unwrap());
        // Runner-up really is the second-smallest distance.
        let mut dists: Vec<usize> = cands.iter().map(|c| query.hamming(c).unwrap()).collect();
        dists.sort_unstable();
        assert_eq!(top.best_distance, dists[0]);
        assert_eq!(sd, dists[1]);
    }

    #[test]
    fn ties_keep_the_first_candidate() {
        let query = BitVector::zeros(64);
        // Candidates 1 and 2 are identical: both at distance 1.
        let mut near = BitVector::zeros(64);
        near.set(0, true);
        let cands = vec![near.clone(), near.clone(), BitVector::ones(64)];
        let top = hamming_top2(&query, &cands).unwrap().unwrap();
        assert_eq!(top.best, 0);
        assert_eq!(top.second, Some((1, 1)));
    }

    #[test]
    fn empty_and_singleton_candidate_sets() {
        let q = BitVector::zeros(8);
        assert_eq!(hamming_top2(&q, &[]).unwrap(), None);
        let top = hamming_top2(&q, &[BitVector::ones(8)]).unwrap().unwrap();
        assert_eq!(top.best, 0);
        assert_eq!(top.best_distance, 8);
        assert_eq!(top.second, None);
    }

    #[test]
    fn dimension_mismatch_detected() {
        let q = BitVector::zeros(8);
        assert!(hamming_top2(&q, &[BitVector::zeros(9)]).is_err());
        assert!(hamming_top2_batch(&[q], &[BitVector::zeros(9)]).is_err());
    }

    #[test]
    fn batch_agrees_with_single_query_kernel() {
        let mut rng = HdcRng::seed_from_u64(2);
        let queries: Vec<BitVector> = (0..5).map(|_| BitVector::random(256, &mut rng)).collect();
        let cands: Vec<BitVector> = (0..4).map(|_| BitVector::random(256, &mut rng)).collect();
        let batch = hamming_top2_batch(&queries, &cands).unwrap();
        for (q, b) in queries.iter().zip(batch) {
            assert_eq!(b, hamming_top2(q, &cands).unwrap());
        }
    }

    #[test]
    fn block_agrees_with_single_query_kernel_on_every_backend() {
        let mut rng = HdcRng::seed_from_u64(3);
        // 21 queries: exercises full tiles plus a ragged final tile.
        let queries: Vec<BitVector> = (0..21).map(|_| BitVector::random(300, &mut rng)).collect();
        let cands: Vec<BitVector> = (0..5).map(|_| BitVector::random(300, &mut rng)).collect();
        let refs: Vec<&BitVector> = queries.iter().collect();
        for backend in [
            SimdBackend::Scalar,
            SimdBackend::Avx2,
            SimdBackend::Avx512,
            SimdBackend::Neon,
        ] {
            let block = hamming_top2_block_with(backend, &refs, &cands).unwrap();
            let dists = hamming_distances_block_with(backend, &refs, &cands).unwrap();
            for (qi, (q, b)) in queries.iter().zip(&block).enumerate() {
                assert_eq!(*b, hamming_top2(q, &cands).unwrap());
                for (ci, c) in cands.iter().enumerate() {
                    assert_eq!(dists[qi * cands.len() + ci], q.hamming(c).unwrap());
                }
            }
        }
        assert_eq!(
            hamming_top2_block(&refs, &cands).unwrap(),
            hamming_top2_block_with(SimdBackend::Scalar, &refs, &cands).unwrap()
        );
        assert_eq!(
            hamming_distances_block(&refs, &cands).unwrap(),
            hamming_distances_block_with(SimdBackend::Scalar, &refs, &cands).unwrap()
        );
    }

    #[test]
    fn block_kernels_handle_empty_inputs_and_mismatches() {
        let q = BitVector::zeros(8);
        let refs = [&q];
        assert_eq!(hamming_top2_block(&refs, &[]).unwrap(), vec![None]);
        assert!(hamming_top2_block(&[], &[BitVector::zeros(8)])
            .unwrap()
            .is_empty());
        assert!(hamming_distances_block(&refs, &[]).unwrap().is_empty());
        assert!(hamming_top2_block(&refs, &[BitVector::zeros(9)]).is_err());
        assert!(hamming_distances_block(&refs, &[BitVector::zeros(9)]).is_err());
    }

    #[test]
    fn score_top2_matches_max_by_last_wins() {
        let cases: Vec<Vec<f64>> = vec![
            vec![0.3, 0.9, 0.9, -0.2],
            vec![1.0],
            vec![-0.5, -0.5],
            vec![0.0, 0.0, 0.0],
            vec![f64::NEG_INFINITY, 2.0, 2.0],
        ];
        for scores in cases {
            let top = top2_scores(scores.iter().copied()).unwrap();
            let expected = scores
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap();
            assert_eq!(top.best, expected, "scores {scores:?}");
            if scores.len() >= 2 {
                let (_, ss) = top.second.unwrap();
                let mut sorted = scores.clone();
                sorted.sort_by(f64::total_cmp);
                assert_eq!(
                    ss.total_cmp(&sorted[sorted.len() - 2]),
                    std::cmp::Ordering::Equal
                );
            } else {
                assert_eq!(top.second, None);
            }
        }
        assert_eq!(top2_scores(std::iter::empty()), None);
    }
}
