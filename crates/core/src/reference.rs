//! Algorithm 1 transcribed line for line from the paper's pseudo-code, at
//! its `O(L² · W · F)` cost. It exists only as a test oracle for
//! `algorithm::posteriori_detect`; the cross-crate property suite compiles
//! this file too, so it names nothing but the public feature crate.

use seizure_features::normalize::normalize_features;
use seizure_features::FeatureMatrix;

/// The distance of every candidate window position `i` in `0..L − W`:
/// Line 1 normalizes each feature, then for every row inside
/// `[i, i + W)` the absolute per-feature differences to every `step`-th row
/// outside it are accumulated, averaged, and the Euclidean norm of the
/// per-feature distance vector is taken.
pub(crate) fn algorithm1_distances(
    features: &FeatureMatrix,
    w_len: usize,
    step: usize,
) -> Vec<f64> {
    let matrix = normalize_features(features).expect("a non-empty feature matrix");
    let rows = matrix.num_windows();
    let features = matrix.num_features();
    let candidates = rows - w_len;
    let norm_outside = ((rows - w_len) as f64 / step as f64).max(1.0);
    let mut distances = Vec::with_capacity(candidates);

    for i in 0..candidates {
        let mut distance_vector = vec![0.0; features];
        for w in 0..w_len {
            let inside = matrix.row(i + w);
            let mut edge = vec![0.0; features];
            let mut k = 0;
            while k < rows {
                if k < i || k >= i + w_len {
                    let outside = matrix.row(k);
                    for f in 0..features {
                        edge[f] += (inside[f] - outside[f]).abs();
                    }
                }
                k += step;
            }
            for f in 0..features {
                distance_vector[f] += edge[f] / norm_outside;
            }
        }
        let norm: f64 = distance_vector
            .iter()
            .map(|v| {
                let v = v / w_len as f64;
                v * v
            })
            .sum::<f64>()
            .sqrt();
        distances.push(norm);
    }
    distances
}
