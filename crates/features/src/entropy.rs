//! Nonlinear entropy features.
//!
//! The paper's selected feature set uses permutation entropy (Bandt & Pompe,
//! 2002), Rényi entropy and sample entropy (Chen et al., 2005) computed on the
//! detail coefficients of a Daubechies-4 wavelet decomposition. Shannon
//! entropy is provided in addition for the rich feature set.

use crate::error::FeatureError;
use seizure_dsp::stats;

/// `ln(order!)`, the entropy of a uniform ordinal-pattern distribution.
pub(crate) fn ln_factorial(n: usize) -> f64 {
    (2..=n).map(|k| (k as f64).ln()).sum()
}

/// Largest ordinal-pattern order supported by
/// [`permutation_entropy_scratch`]'s dense counting table (`8! = 40320`
/// buckets).
pub const MAX_SCRATCH_ORDER: usize = 8;

/// Permutation entropy of `data` with ordinal patterns of length `order` and
/// the given `delay` between successive samples of a pattern (Bandt & Pompe,
/// 2002), over a reusable counting buffer.
///
/// The result is normalized by `ln(order!)` so it lies in `[0, 1]`, with 1
/// corresponding to a fully random ordinal structure. If the series is too
/// short to contain a single pattern the entropy is defined as `0`.
///
/// Each pattern is ranked with its Lehmer code and counted in a dense
/// `order!`-slot table (`counts`, resized once and reused across calls): zero
/// allocations per call once `counts` has warmed up, and no hashing. Ordinal
/// ranks come from a stable insertion sort under `total_cmp`, so equal
/// samples keep their position order and a NaN sample ranks largest.
///
/// # Example
///
/// ```
/// use seizure_features::entropy::permutation_entropy_scratch;
///
/// # fn main() -> Result<(), seizure_features::FeatureError> {
/// // A monotonically increasing ramp has a single ordinal pattern -> entropy 0.
/// let ramp: Vec<f64> = (0..100).map(|i| i as f64).collect();
/// let mut counts = Vec::new();
/// assert!(permutation_entropy_scratch(&ramp, 3, 1, &mut counts)? < 1e-12);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`FeatureError::InvalidConfig`] if `order < 2`,
/// `order > MAX_SCRATCH_ORDER` or `delay == 0`.
pub fn permutation_entropy_scratch(
    data: &[f64],
    order: usize,
    delay: usize,
    counts: &mut Vec<u32>,
) -> Result<f64, FeatureError> {
    if !(2..=MAX_SCRATCH_ORDER).contains(&order) {
        return Err(FeatureError::InvalidConfig {
            name: "order",
            reason: format!("permutation order must lie in [2, {MAX_SCRATCH_ORDER}], got {order}"),
        });
    }
    if delay == 0 {
        return Err(FeatureError::InvalidConfig {
            name: "delay",
            reason: "delay must be at least 1".to_string(),
        });
    }
    let span = (order - 1) * delay;
    if data.len() <= span {
        return Ok(0.0);
    }
    let num_patterns = data.len() - span;
    let table_size: usize = (2..=order).product();
    counts.clear();
    counts.resize(table_size, 0);
    accumulate_pattern_counts(data, order, delay, counts);
    Ok(entropy_from_counts(counts, num_patterns, order))
}

/// Ranks every ordinal pattern of `data` (starts `0..len − span`) with its
/// Lehmer code and increments the matching slot of the dense `order!`-entry
/// table `counts`. Shared between [`permutation_entropy_scratch`] and the
/// streaming extractor's per-hop pattern tables, so summing hop tables and
/// running [`entropy_from_counts`] over the merged counts is bit-identical
/// to the batch computation by construction.
// lint: hot-path
pub(crate) fn accumulate_pattern_counts(
    data: &[f64],
    order: usize,
    delay: usize,
    counts: &mut [u32],
) {
    let span = (order - 1) * delay;
    if data.len() <= span {
        return;
    }
    let num_patterns = data.len() - span;
    let mut values = [0.0f64; MAX_SCRATCH_ORDER];
    let mut perm = [0u8; MAX_SCRATCH_ORDER];
    for start in 0..num_patterns {
        for (slot, value) in values[..order]
            .iter_mut()
            .zip(data[start..].iter().step_by(delay))
        {
            *slot = *value;
        }
        // Stable insertion sort of (value, position) pairs on the stack;
        // shifting only on strictly-greater keeps equal samples in position
        // order. The comparison is `total_cmp`: a NaN sample ranks largest
        // instead of freezing wherever it happens to sit.
        for (slot, position) in perm[..order].iter_mut().zip(0..order as u8) {
            *slot = position;
        }
        for i in 1..order {
            let key_value = values[i];
            let key_position = perm[i];
            let mut j = i;
            while j > 0 && values[j - 1].total_cmp(&key_value) == std::cmp::Ordering::Greater {
                values[j] = values[j - 1];
                perm[j] = perm[j - 1];
                j -= 1;
            }
            values[j] = key_value;
            perm[j] = key_position;
        }
        // Lehmer-code rank of the permutation in mixed-radix form.
        let mut rank = 0usize;
        for i in 0..order {
            let mut smaller_later = 0usize;
            for j in i + 1..order {
                smaller_later += usize::from(perm[j] < perm[i]);
            }
            rank = rank * (order - i) + smaller_later;
        }
        counts[rank] += 1;
    }
}

/// Drop-front / insert-back transition tables for the incremental ordinal
/// ranker: `drop[r]` is the Lehmer rank of an order-`m` pattern after its
/// first (oldest) sample leaves, `ins[r_sub * m + c]` the rank after a new
/// sample enters at the back with `c` of the retained samples ordered at or
/// below it. Both are pure combinatorics — built once from the permutation
/// group, independent of any signal.
pub(crate) struct OrdinalTransitions {
    /// Order-3 rank → order-2 rank of the two retained samples.
    drop3: [u8; 6],
    /// `[order-2 rank][insert slot 0..=2]` → order-3 rank.
    ins3: [u8; 6],
    /// Order-5 rank → order-4 rank of the four retained samples.
    drop5: [u8; 120],
    /// `[order-4 rank][insert slot 0..=4]` → order-5 rank.
    ins5: [u8; 120],
}

static ORDINAL_TRANSITIONS: std::sync::OnceLock<OrdinalTransitions> = std::sync::OnceLock::new();

/// Lehmer-code rank of a permutation of `0..len`, in the same mixed-radix
/// form as [`accumulate_pattern_counts`]'s inner loop.
fn lehmer_rank(perm: &[u8]) -> usize {
    let order = perm.len();
    let mut rank = 0usize;
    for i in 0..order {
        let mut smaller_later = 0usize;
        for j in i + 1..order {
            smaller_later += usize::from(perm[j] < perm[i]);
        }
        rank = rank * (order - i) + smaller_later;
    }
    rank
}

/// All permutations of `0..order` indexed by their Lehmer rank.
fn perms_by_rank(order: usize) -> Vec<Vec<u8>> {
    let table_size: usize = (2..=order).product();
    let mut by_rank = vec![Vec::new(); table_size];
    let mut current: Vec<u8> = Vec::with_capacity(order);
    let mut used = vec![false; order];
    fn rec(order: usize, current: &mut Vec<u8>, used: &mut [bool], by_rank: &mut [Vec<u8>]) {
        if current.len() == order {
            by_rank[lehmer_rank(current)] = current.clone();
            return;
        }
        for p in 0..order {
            if !used[p] {
                used[p] = true;
                current.push(p as u8);
                rec(order, current, used, by_rank);
                current.pop();
                used[p] = false;
            }
        }
    }
    rec(order, &mut current, &mut used, &mut by_rank);
    by_rank
}

/// Fills one order's transition tables from the permutation group.
fn fill_transitions(order: usize, drop: &mut [u8], ins: &mut [u8]) {
    let by_rank = perms_by_rank(order);
    let by_rank_sub = perms_by_rank(order - 1);
    for (rank, perm) in by_rank.iter().enumerate() {
        // Removing the oldest sample (position 0) keeps the value order of
        // the rest; renumber positions down by one.
        let sub: Vec<u8> = perm.iter().filter(|&&p| p != 0).map(|&p| p - 1).collect();
        drop[rank] = lehmer_rank(&sub) as u8;
    }
    for (rank_sub, perm_sub) in by_rank_sub.iter().enumerate() {
        for slot in 0..order {
            // The incoming sample has the latest position, so a stable order
            // puts it immediately after the `slot` retained samples that
            // compare at or below it.
            let mut full: Vec<u8> = perm_sub.clone();
            full.insert(slot, (order - 1) as u8);
            ins[rank_sub * order + slot] = lehmer_rank(&full) as u8;
        }
    }
}

pub(crate) fn ordinal_transitions() -> &'static OrdinalTransitions {
    ORDINAL_TRANSITIONS.get_or_init(|| {
        let mut tables = OrdinalTransitions {
            drop3: [0; 6],
            ins3: [0; 6],
            drop5: [0; 120],
            ins5: [0; 120],
        };
        fill_transitions(3, &mut tables.drop3, &mut tables.ins3);
        fill_transitions(5, &mut tables.drop5, &mut tables.ins5);
        tables
    })
}

/// Delay-1 fast twin of [`accumulate_pattern_counts`] for orders 3 and 5:
/// ranks the first window with the same stable sort, then slides — each
/// subsequent start costs `order − 1` `total_cmp` comparisons (the incoming
/// sample against the retained ones) and two table lookups instead of a full
/// sort. Counts are integers and the transition tables replicate the stable
/// tie order, so the resulting table is identical to the generic ranker's
/// bit for bit (property-tested below, NaNs included). Used by the streaming
/// extractor's per-hop tables.
// lint: hot-path
pub(crate) fn accumulate_pattern_counts_delay1(data: &[f64], order: usize, counts: &mut [u32]) {
    debug_assert!(
        order == 3 || order == 5,
        "transition tables are built for orders 3 and 5"
    );
    if data.len() < order {
        return;
    }
    let tables = ordinal_transitions();
    let (drop, ins): (&[u8], &[u8]) = if order == 3 {
        (&tables.drop3, &tables.ins3)
    } else {
        (&tables.drop5, &tables.ins5)
    };

    // Seed: rank the first window exactly as the generic ranker does.
    let mut values = [0.0f64; MAX_SCRATCH_ORDER];
    let mut perm = [0u8; MAX_SCRATCH_ORDER];
    values[..order].copy_from_slice(&data[..order]);
    for (slot, position) in perm[..order].iter_mut().zip(0..order as u8) {
        *slot = position;
    }
    for i in 1..order {
        let key_value = values[i];
        let key_position = perm[i];
        let mut j = i;
        while j > 0 && values[j - 1].total_cmp(&key_value) == std::cmp::Ordering::Greater {
            values[j] = values[j - 1];
            perm[j] = perm[j - 1];
            j -= 1;
        }
        values[j] = key_value;
        perm[j] = key_position;
    }
    let mut rank = lehmer_rank(&perm[..order]);
    counts[rank] += 1;

    for start in 1..=data.len() - order {
        let incoming = data[start + order - 1];
        let mut slot = 0usize;
        for &retained in &data[start..start + order - 1] {
            slot += usize::from(retained.total_cmp(&incoming) != std::cmp::Ordering::Greater);
        }
        rank = usize::from(ins[usize::from(drop[rank]) * order + slot]);
        counts[rank] += 1;
    }
}

/// Normalized permutation entropy from a filled pattern-count table: the
/// entropy sum runs in rank order (exactly as [`permutation_entropy_scratch`]
/// always has), normalized by `ln(order!)` and clamped to `[0, 1]`.
// lint: hot-path
pub(crate) fn entropy_from_counts(counts: &[u32], num_patterns: usize, order: usize) -> f64 {
    let mut entropy = 0.0;
    for &count in counts.iter() {
        if count > 0 {
            let p = count as f64 / num_patterns as f64;
            entropy -= p * p.ln();
        }
    }
    let max_entropy = ln_factorial(order);
    if max_entropy <= 0.0 {
        return 0.0;
    }
    (entropy / max_entropy).clamp(0.0, 1.0)
}

/// Shannon entropy (in nats) of the energy distribution of `data`.
///
/// Each sample contributes `p_i = x_i^2 / sum(x^2)`; this is the standard
/// "wavelet entropy" construction when applied to sub-band coefficients. A
/// zero-energy series has zero entropy.
pub fn shannon_entropy(data: &[f64]) -> f64 {
    let probs = energy_distribution(data);
    let mut h = 0.0;
    for p in probs {
        if p > 0.0 {
            h -= p * p.ln();
        }
    }
    h
}

/// Allocation-free twin of [`shannon_entropy`], bit-identical by replicating
/// the same per-element expression `x * x / total` instead of materializing
/// the probability vector. Used on streaming hot paths where the batch
/// function's intermediate `Vec` is forbidden.
// lint: hot-path
pub fn shannon_entropy_noalloc(data: &[f64]) -> f64 {
    let total: f64 = data.iter().map(|x| x * x).sum();
    if total <= 0.0 {
        return 0.0;
    }
    let mut h = 0.0;
    for x in data {
        let p = x * x / total;
        if p > 0.0 {
            h -= p * p.ln();
        }
    }
    h
}

/// Rényi entropy of order `alpha` of the energy distribution of `data`.
///
/// For `alpha == 1` the Rényi entropy degenerates to the Shannon entropy; the
/// paper uses the common quadratic case `alpha = 2` (see
/// [`renyi_entropy_quadratic`]). A zero-energy series has zero entropy.
///
/// # Errors
///
/// Returns [`FeatureError::InvalidConfig`] if `alpha <= 0` or `alpha` is NaN.
pub fn renyi_entropy(data: &[f64], alpha: f64) -> Result<f64, FeatureError> {
    if alpha <= 0.0 || alpha.is_nan() {
        return Err(FeatureError::InvalidConfig {
            name: "alpha",
            reason: format!("Rényi order must be positive, got {alpha}"),
        });
    }
    if (alpha - 1.0).abs() < 1e-9 {
        return Ok(shannon_entropy(data));
    }
    let probs = energy_distribution(data);
    let sum: f64 = probs.iter().map(|p| p.powf(alpha)).sum();
    if sum <= 0.0 {
        return Ok(0.0);
    }
    Ok(sum.ln() / (1.0 - alpha))
}

/// Quadratic (order-2) Rényi entropy, the variant used by the paper's feature
/// set ("third level Rényi entropy" is this quantity computed on level-3 detail
/// coefficients).
pub fn renyi_entropy_quadratic(data: &[f64]) -> f64 {
    renyi_entropy(data, 2.0).expect("alpha = 2 is always valid")
}

fn energy_distribution(data: &[f64]) -> Vec<f64> {
    let total: f64 = data.iter().map(|x| x * x).sum();
    if total <= 0.0 {
        return vec![0.0; data.len()];
    }
    data.iter().map(|x| x * x / total).collect()
}

/// Sample entropy `SampEn(m, r)` of `data` with embedding dimension `m` and a
/// tolerance of `r = k * std(data)`.
///
/// Sample entropy is the negative logarithm of the conditional probability that
/// two sequences similar for `m` points remain similar at the next point,
/// excluding self-matches. Following Chen et al. (2005) the tolerance is
/// expressed as a fraction `k` of the standard deviation; the paper uses
/// `k = 0.2` and `k = 0.35`. Degenerate cases (too few points, zero matches)
/// return `0`.
///
/// # Errors
///
/// Returns [`FeatureError::InvalidConfig`] if `m == 0`, `k <= 0` or `k` is NaN.
pub fn sample_entropy(data: &[f64], m: usize, k: f64) -> Result<f64, FeatureError> {
    if m == 0 {
        return Err(FeatureError::InvalidConfig {
            name: "m",
            reason: "embedding dimension must be at least 1".to_string(),
        });
    }
    if k <= 0.0 || k.is_nan() {
        return Err(FeatureError::InvalidConfig {
            name: "k",
            reason: format!("tolerance fraction must be positive, got {k}"),
        });
    }
    if data.len() < m + 2 {
        return Ok(0.0);
    }
    let sd = stats::std_dev(data).unwrap_or(0.0);
    if sd == 0.0 {
        // A constant series is perfectly regular.
        return Ok(0.0);
    }
    let r = k * sd;
    let count_m = count_similar(data, m, r);
    let count_m1 = count_similar(data, m + 1, r);
    if count_m == 0 || count_m1 == 0 {
        return Ok(0.0);
    }
    Ok(-((count_m1 as f64) / (count_m as f64)).ln())
}

/// Counts pairs of template vectors of length `m` whose Chebyshev distance is
/// at most `r` (self-matches excluded).
fn count_similar(data: &[f64], m: usize, r: f64) -> usize {
    if data.len() < m {
        return 0;
    }
    let n = data.len() - m + 1;
    let mut count = 0;
    for i in 0..n {
        for j in (i + 1)..n {
            let mut similar = true;
            for k in 0..m {
                if (data[i + k] - data[j + k]).abs() > r {
                    similar = false;
                    break;
                }
            }
            if similar {
                count += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::permutation_entropy;

    /// The production kernel with a fresh counting table.
    fn pe(data: &[f64], order: usize, delay: usize) -> Result<f64, FeatureError> {
        permutation_entropy_scratch(data, order, delay, &mut Vec::new())
    }

    fn pseudo_random(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            })
            .collect()
    }

    #[test]
    fn incremental_pattern_counts_match_the_generic_ranker() {
        // Random data, quantized data (heavy ties), constants and NaNs all
        // have to produce bit-identical tables for orders 3 and 5, at every
        // length from degenerate to a few hundred samples.
        for seed in 0..20u64 {
            for n in [0usize, 1, 2, 3, 4, 5, 6, 7, 31, 256] {
                let mut data = pseudo_random(n, seed);
                if seed % 3 == 1 {
                    for x in &mut data {
                        *x = (*x * 4.0).round();
                    }
                }
                if seed % 5 == 2 && n > 4 {
                    data[n / 2] = f64::NAN;
                    data[n - 1] = f64::NAN;
                }
                for order in [3usize, 5] {
                    let table_size: usize = (2..=order).product();
                    let mut generic = vec![0u32; table_size];
                    let mut fast = vec![0u32; table_size];
                    accumulate_pattern_counts(&data, order, 1, &mut generic);
                    accumulate_pattern_counts_delay1(&data, order, &mut fast);
                    assert_eq!(generic, fast, "seed {seed}, n {n}, order {order}");
                }
            }
        }
    }

    #[test]
    fn permutation_entropy_of_monotone_series_is_zero() {
        let ramp: Vec<f64> = (0..200).map(|i| i as f64 * 0.5).collect();
        for order in [3, 5, 7] {
            assert!(pe(&ramp, order, 1).unwrap() < 1e-12);
        }
    }

    #[test]
    fn permutation_entropy_of_random_series_is_high() {
        let noise = pseudo_random(4000, 7);
        let pe = pe(&noise, 3, 1).unwrap();
        assert!(pe > 0.95, "pe = {pe}");
    }

    #[test]
    fn permutation_entropy_is_bounded() {
        let noise = pseudo_random(500, 13);
        for order in [3, 4, 5, 6, 7] {
            let pe = pe(&noise, order, 1).unwrap();
            assert!((0.0..=1.0).contains(&pe));
        }
    }

    #[test]
    fn permutation_entropy_short_series_is_zero() {
        assert_eq!(pe(&[1.0, 2.0], 5, 1).unwrap(), 0.0);
        assert_eq!(pe(&[], 3, 1).unwrap(), 0.0);
    }

    #[test]
    fn permutation_entropy_invalid_parameters() {
        assert!(pe(&[1.0; 10], 1, 1).is_err());
        assert!(pe(&[1.0; 10], 3, 0).is_err());
    }

    #[test]
    fn permutation_entropy_periodic_vs_random() {
        let periodic: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.3).sin()).collect();
        let random = pseudo_random(1000, 23);
        let pe_per = pe(&periodic, 5, 1).unwrap();
        let pe_rand = pe(&random, 5, 1).unwrap();
        assert!(pe_rand > pe_per);
    }

    #[test]
    fn shannon_entropy_uniform_energy_is_log_n() {
        let data = vec![1.0; 16];
        assert!((shannon_entropy(&data) - (16.0f64).ln()).abs() < 1e-9);
    }

    #[test]
    fn shannon_entropy_single_spike_is_zero() {
        let mut data = vec![0.0; 32];
        data[5] = 4.0;
        assert!(shannon_entropy(&data).abs() < 1e-12);
    }

    #[test]
    fn shannon_entropy_zero_signal_is_zero() {
        assert_eq!(shannon_entropy(&[0.0; 8]), 0.0);
        assert_eq!(shannon_entropy(&[]), 0.0);
    }

    #[test]
    fn shannon_entropy_noalloc_is_bit_identical() {
        let data = pseudo_random(256, 11);
        assert_eq!(shannon_entropy_noalloc(&data), shannon_entropy(&data));
        assert_eq!(shannon_entropy_noalloc(&[0.0; 8]), 0.0);
        assert_eq!(shannon_entropy_noalloc(&[]), 0.0);
    }

    #[test]
    fn renyi_entropy_quadratic_uniform_is_log_n() {
        let data = vec![2.0; 8];
        assert!((renyi_entropy_quadratic(&data) - (8.0f64).ln()).abs() < 1e-9);
    }

    #[test]
    fn renyi_entropy_alpha_one_matches_shannon() {
        let data = pseudo_random(64, 3);
        let r1 = renyi_entropy(&data, 1.0).unwrap();
        let sh = shannon_entropy(&data);
        assert!((r1 - sh).abs() < 1e-9);
    }

    #[test]
    fn renyi_entropy_is_nonincreasing_in_alpha() {
        let data = pseudo_random(128, 5);
        let r1 = renyi_entropy(&data, 1.0).unwrap();
        let r2 = renyi_entropy(&data, 2.0).unwrap();
        let r3 = renyi_entropy(&data, 3.0).unwrap();
        assert!(r1 + 1e-9 >= r2);
        assert!(r2 + 1e-9 >= r3);
    }

    #[test]
    fn renyi_entropy_rejects_bad_alpha() {
        assert!(renyi_entropy(&[1.0, 2.0], 0.0).is_err());
        assert!(renyi_entropy(&[1.0, 2.0], -1.0).is_err());
        assert!(renyi_entropy(&[1.0, 2.0], f64::NAN).is_err());
    }

    #[test]
    fn renyi_entropy_zero_signal_is_zero() {
        assert_eq!(renyi_entropy(&[0.0; 8], 2.0).unwrap(), 0.0);
    }

    #[test]
    fn sample_entropy_of_constant_is_zero() {
        assert_eq!(sample_entropy(&[3.0; 100], 2, 0.2).unwrap(), 0.0);
    }

    #[test]
    fn sample_entropy_of_random_exceeds_periodic() {
        let periodic: Vec<f64> = (0..400).map(|i| (i as f64 * 0.2).sin()).collect();
        let random = pseudo_random(400, 11);
        let se_periodic = sample_entropy(&periodic, 2, 0.2).unwrap();
        let se_random = sample_entropy(&random, 2, 0.2).unwrap();
        assert!(se_random > se_periodic);
    }

    #[test]
    fn sample_entropy_decreases_with_larger_tolerance() {
        let data = pseudo_random(300, 17);
        let tight = sample_entropy(&data, 2, 0.2).unwrap();
        let loose = sample_entropy(&data, 2, 0.35).unwrap();
        assert!(loose <= tight + 1e-9);
    }

    #[test]
    fn sample_entropy_invalid_parameters() {
        assert!(sample_entropy(&[1.0; 10], 0, 0.2).is_err());
        assert!(sample_entropy(&[1.0; 10], 2, 0.0).is_err());
        assert!(sample_entropy(&[1.0; 10], 2, f64::NAN).is_err());
    }

    #[test]
    fn sample_entropy_short_series_is_zero() {
        assert_eq!(sample_entropy(&[1.0, 2.0], 2, 0.2).unwrap(), 0.0);
    }

    #[test]
    fn scratch_permutation_entropy_matches_hashmap_variant() {
        let signals = [
            pseudo_random(300, 7),
            (0..200)
                .map(|i| (i as f64 * 0.21).sin())
                .collect::<Vec<_>>(),
            // Ties everywhere: a square-ish wave exercises stable ordering.
            (0..150).map(|i| ((i / 3) % 2) as f64).collect::<Vec<_>>(),
            vec![2.5; 64],
        ];
        let mut counts = Vec::new();
        for signal in &signals {
            for order in 2..=7 {
                for delay in [1usize, 2] {
                    let reference = permutation_entropy(signal, order, delay).unwrap();
                    let fast =
                        permutation_entropy_scratch(signal, order, delay, &mut counts).unwrap();
                    assert!(
                        (reference - fast).abs() < 1e-12,
                        "order {order} delay {delay}: {reference} vs {fast}"
                    );
                }
            }
        }
    }

    #[test]
    fn permutation_entropy_ranks_nan_samples_worst() {
        // Regression for the NaN-unsafe rank sort: with the former
        // `partial_cmp().unwrap_or(Equal)` comparator a NaN sample froze the
        // sort mid-pattern and scrambled the ordinal ranks; with `total_cmp`
        // it ranks as the largest sample, so a NaN behaves exactly like an
        // infinite-amplitude spike.
        let mut with_nan = pseudo_random(300, 41);
        let mut with_inf = with_nan.clone();
        with_nan[137] = f64::NAN;
        with_inf[137] = f64::INFINITY;
        for order in [3, 5] {
            let pe_nan = pe(&with_nan, order, 1).unwrap();
            let pe_inf = pe(&with_inf, order, 1).unwrap();
            assert!(pe_nan.is_finite() && (0.0..=1.0).contains(&pe_nan));
            assert_eq!(pe_nan.to_bits(), pe_inf.to_bits());
        }
    }

    #[test]
    fn scratch_permutation_entropy_matches_on_nan_input() {
        let mut signal = pseudo_random(200, 43);
        signal[17] = f64::NAN;
        signal[90] = f64::NAN;
        let mut counts = Vec::new();
        for order in [3, 4, 6] {
            let reference = permutation_entropy(&signal, order, 1).unwrap();
            let fast = permutation_entropy_scratch(&signal, order, 1, &mut counts).unwrap();
            assert!(
                (reference - fast).abs() < 1e-12,
                "order {order}: {reference} vs {fast}"
            );
        }
    }

    #[test]
    fn scratch_permutation_entropy_short_series_and_validation() {
        let mut counts = Vec::new();
        assert_eq!(
            permutation_entropy_scratch(&[1.0, 2.0], 5, 1, &mut counts).unwrap(),
            0.0
        );
        assert!(permutation_entropy_scratch(&[1.0; 10], 1, 1, &mut counts).is_err());
        assert!(permutation_entropy_scratch(&[1.0; 10], 9, 1, &mut counts).is_err());
        assert!(permutation_entropy_scratch(&[1.0; 10], 3, 0, &mut counts).is_err());
    }
}
