//! Property-based tests for the DSP substrate. The transform properties run
//! against the test-only oracles inside the crate (`src/reference.rs`).

use proptest::prelude::*;
use seizure_dsp::stats;

fn finite_signal(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e3f64..1e3f64, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn percentile_lies_within_data_range(signal in finite_signal(1..64), p in 0.0f64..100.0) {
        let v = stats::percentile(&signal, p).unwrap();
        let (lo, hi) = stats::min_max(&signal).unwrap();
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
    }

    #[test]
    fn geometric_mean_between_min_and_max(signal in prop::collection::vec(1e-3f64..1e3, 1..64)) {
        let g = stats::geometric_mean(&signal).unwrap();
        let (lo, hi) = stats::min_max(&signal).unwrap();
        prop_assert!(g >= lo - 1e-9 && g <= hi + 1e-9);
    }
}
