//! Feature selection by backward elimination.
//!
//! The paper sorts the candidate features "in order of relevance" with backward
//! elimination (Devijver & Kittler, 1982) and keeps the ten most relevant ones.
//! This module implements the generic backward-elimination wrapper together
//! with a simple class-separability criterion that does not require training a
//! classifier.

use crate::error::FeatureError;
use crate::matrix::FeatureMatrix;
use seizure_dsp::stats;

/// A criterion that scores a subset of feature columns for a binary labeling
/// (seizure vs. non-seizure windows); larger is better.
pub trait SubsetScorer {
    /// Scores the feature subset `subset` (column indices into `matrix`).
    fn score(&self, matrix: &FeatureMatrix, subset: &[usize], labels: &[bool]) -> f64;
}

/// Separation between the class centroids in the (z-scored) subset space,
/// normalized by the pooled within-class spread — a multivariate
/// Fisher-discriminant-style criterion that is cheap enough to evaluate inside
/// the backward-elimination loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CentroidSeparation;

impl SubsetScorer for CentroidSeparation {
    fn score(&self, matrix: &FeatureMatrix, subset: &[usize], labels: &[bool]) -> f64 {
        if subset.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for &col in subset {
            total += fisher_score_column(&matrix.column(col), labels);
        }
        total / subset.len() as f64
    }
}

/// Fisher score of one feature column for a binary labeling:
/// `(mean_1 - mean_0)^2 / (var_1 + var_0)`. Returns `0` for degenerate cases
/// (one class empty or both variances zero with equal means).
pub fn fisher_score_column(column: &[f64], labels: &[bool]) -> f64 {
    let positives: Vec<f64> = column
        .iter()
        .zip(labels.iter())
        .filter_map(|(x, &l)| l.then_some(*x))
        .collect();
    let negatives: Vec<f64> = column
        .iter()
        .zip(labels.iter())
        .filter_map(|(x, &l)| (!l).then_some(*x))
        .collect();
    if positives.is_empty() || negatives.is_empty() {
        return 0.0;
    }
    let m1 = stats::mean(&positives).unwrap_or(0.0);
    let m0 = stats::mean(&negatives).unwrap_or(0.0);
    let v1 = stats::variance(&positives).unwrap_or(0.0);
    let v0 = stats::variance(&negatives).unwrap_or(0.0);
    let denom = v1 + v0;
    let num = (m1 - m0) * (m1 - m0);
    if denom <= 0.0 {
        if num > 0.0 {
            return f64::INFINITY;
        }
        return 0.0;
    }
    num / denom
}

/// Result of a backward-elimination run.
#[derive(Debug, Clone, PartialEq)]
pub struct EliminationResult {
    /// Feature indices sorted from most to least relevant.
    pub ranking: Vec<usize>,
    /// Score of the surviving subset after each elimination step; entry `i`
    /// corresponds to a subset of `num_features - i` features (entry 0 is the
    /// full set).
    pub scores: Vec<f64>,
}

/// Ranks all features by relevance with backward elimination.
///
/// Starting from the full feature set, the feature whose removal maximizes the
/// criterion on the remaining subset is repeatedly eliminated; the elimination
/// order, reversed, gives the relevance ranking (the last surviving feature is
/// the most relevant).
///
/// # Errors
///
/// Returns [`FeatureError::DimensionMismatch`] if `labels` does not have one
/// entry per window or the matrix has no features.
///
/// # Example
///
/// ```
/// use seizure_features::FeatureMatrix;
/// use seizure_features::selection::{backward_elimination, CentroidSeparation};
///
/// # fn main() -> Result<(), seizure_features::FeatureError> {
/// // Feature 0 separates the classes, feature 1 is pure noise.
/// let matrix = FeatureMatrix::from_rows(
///     vec!["informative".into(), "noise".into()],
///     vec![
///         vec![0.0, 0.3], vec![0.1, -0.2], vec![0.05, 0.9],
///         vec![5.0, 0.1], vec![5.2, -0.7], vec![4.9, 0.4],
///     ],
/// )?;
/// let labels = vec![false, false, false, true, true, true];
/// let result = backward_elimination(&matrix, &labels, &CentroidSeparation)?;
/// assert_eq!(result.ranking[0], 0);
/// # Ok(())
/// # }
/// ```
pub fn backward_elimination<S: SubsetScorer>(
    matrix: &FeatureMatrix,
    labels: &[bool],
    scorer: &S,
) -> Result<EliminationResult, FeatureError> {
    validate_labels(matrix, labels)?;
    if matrix.num_features() == 0 {
        return Err(FeatureError::DimensionMismatch {
            detail: "cannot run backward elimination without features".to_string(),
        });
    }
    let mut remaining: Vec<usize> = (0..matrix.num_features()).collect();
    let mut eliminated: Vec<usize> = Vec::with_capacity(matrix.num_features());
    let mut scores = vec![total_score(scorer.score(matrix, &remaining, labels))];

    while remaining.len() > 1 {
        // Find the feature whose removal leaves the best-scoring subset.
        let mut best_idx = 0;
        let mut best_score = f64::NEG_INFINITY;
        for (pos, _) in remaining.iter().enumerate() {
            let candidate: Vec<usize> = remaining
                .iter()
                .enumerate()
                .filter_map(|(p, &f)| (p != pos).then_some(f))
                .collect();
            let s = total_score(scorer.score(matrix, &candidate, labels));
            if s > best_score {
                best_score = s;
                best_idx = pos;
            }
        }
        eliminated.push(remaining.remove(best_idx));
        scores.push(best_score);
    }
    eliminated.push(remaining[0]);
    eliminated.reverse();
    Ok(EliminationResult {
        ranking: eliminated,
        scores,
    })
}

/// Maps a criterion score into the total order the elimination loop ranks
/// by: a NaN score (e.g. a corrupted feature column propagating NaN through
/// the criterion) counts as the worst possible subset, so the offending
/// feature is eliminated first instead of scrambling the ranking.
fn total_score(s: f64) -> f64 {
    if s.is_nan() {
        f64::NEG_INFINITY
    } else {
        s
    }
}

fn validate_labels(matrix: &FeatureMatrix, labels: &[bool]) -> Result<(), FeatureError> {
    if labels.len() != matrix.num_windows() {
        return Err(FeatureError::DimensionMismatch {
            detail: format!(
                "expected one label per window ({} windows, {} labels)",
                matrix.num_windows(),
                labels.len()
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three features: #0 strongly separates classes, #1 weakly, #2 is noise.
    fn labeled_matrix() -> (FeatureMatrix, Vec<bool>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let noise = ((i * 37 + 11) % 17) as f64 / 17.0 - 0.5;
            if i < 20 {
                rows.push(vec![0.0 + noise * 0.1, 1.0 + noise, noise]);
                labels.push(false);
            } else {
                rows.push(vec![10.0 + noise * 0.1, 1.8 + noise, noise]);
                labels.push(true);
            }
        }
        (
            FeatureMatrix::from_rows(vec!["strong".into(), "weak".into(), "noise".into()], rows)
                .unwrap(),
            labels,
        )
    }

    #[test]
    fn fisher_score_orders_by_separability() {
        let (m, labels) = labeled_matrix();
        let scores: Vec<f64> = (0..m.num_features())
            .map(|c| fisher_score_column(&m.column(c), &labels))
            .collect();
        assert!(scores[0] > scores[1]);
        assert!(scores[1] > scores[2]);
    }

    #[test]
    fn fisher_score_degenerate_cases() {
        assert_eq!(fisher_score_column(&[1.0, 2.0], &[true, true]), 0.0);
        assert_eq!(fisher_score_column(&[1.0, 1.0], &[true, false]), 0.0);
        assert_eq!(
            fisher_score_column(&[1.0, 2.0], &[false, true]),
            f64::INFINITY
        );
    }

    #[test]
    fn backward_elimination_ranks_strong_feature_first() {
        let (m, labels) = labeled_matrix();
        let result = backward_elimination(&m, &labels, &CentroidSeparation).unwrap();
        assert_eq!(result.ranking.len(), 3);
        assert_eq!(result.ranking[0], 0);
        assert_eq!(result.ranking[2], 2);
        assert_eq!(result.scores.len(), 3);
    }

    #[test]
    fn nan_feature_column_is_ranked_last_without_panicking() {
        // A corrupted (NaN) column makes every subset containing it score
        // NaN; the ranking must shed it first instead of letting NaN
        // comparisons scramble the elimination order.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..30 {
            let x = if i < 15 { 0.0 } else { 10.0 };
            rows.push(vec![x, f64::NAN]);
            labels.push(i >= 15);
        }
        let m = FeatureMatrix::from_rows(vec!["clean".into(), "nan".into()], rows).unwrap();
        let result = backward_elimination(&m, &labels, &CentroidSeparation).unwrap();
        assert_eq!(result.ranking, vec![0, 1]);
    }

    #[test]
    fn label_length_mismatch_rejected() {
        let (m, _) = labeled_matrix();
        assert!(backward_elimination(&m, &[true], &CentroidSeparation).is_err());
    }

    #[test]
    fn empty_feature_matrix_rejected() {
        let m = FeatureMatrix::with_names(vec![]);
        assert!(backward_elimination(&m, &[], &CentroidSeparation).is_err());
    }

    #[test]
    fn centroid_separation_empty_subset_scores_zero() {
        let (m, labels) = labeled_matrix();
        assert_eq!(CentroidSeparation.score(&m, &[], &labels), 0.0);
    }

    #[test]
    fn single_feature_matrix_ranks_trivially() {
        let m = FeatureMatrix::from_rows(
            vec!["only".into()],
            vec![vec![0.0], vec![1.0], vec![5.0], vec![6.0]],
        )
        .unwrap();
        let labels = vec![false, false, true, true];
        let result = backward_elimination(&m, &labels, &CentroidSeparation).unwrap();
        assert_eq!(result.ranking, vec![0]);
    }
}
