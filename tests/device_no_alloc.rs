//! The device path's allocation promise, measured: once
//! `RealTimeDetector::streaming` has returned, pushing a whole 256 Hz record
//! through a gate-on detector performs no heap allocation — not on the first
//! completed window, not on any later one.
//!
//! A counting global allocator tallies allocations made by the thread that
//! pushes samples. This binary holds a single test so no other test's
//! allocations can interleave with the measured loop.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use selflearn_seizure::core::realtime::{RealTimeDetector, RealTimeDetectorConfig};
use selflearn_seizure::core::SeizureLabel;
use selflearn_seizure::data::cohort::Cohort;
use selflearn_seizure::data::sampler::SampleConfig;
use selflearn_seizure::ml::forest::RandomForestConfig;

thread_local! {
    /// Whether allocations on this thread are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocations counted on this thread.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct CountingAllocator;

impl CountingAllocator {
    fn record() {
        // `try_with` keeps allocations made during thread teardown safe.
        let _ = COUNTING.try_with(|counting| {
            if counting.get() {
                let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
            }
        });
    }
}

// SAFETY: every method forwards unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; the bookkeeping only touches
// const-initialized thread-locals and never allocates itself.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: the caller's layout contract passes straight to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record();
        System.alloc(layout)
    }

    // SAFETY: as for `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record();
        System.alloc_zeroed(layout)
    }

    // SAFETY: `ptr` came from `System` through this allocator with `layout`,
    // as the caller guarantees.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record();
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: `ptr` came from `System` through this allocator.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations `f` makes on the calling thread.
fn allocations_during(f: impl FnOnce()) -> usize {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn gated_streaming_push_never_allocates() {
    let fs = 256.0;
    let cohort = Cohort::chb_mit_like(29);
    let sample = SampleConfig::new(90.0, 120.0, fs).unwrap();
    let patient = 4;
    let train = cohort.sample_record(patient, 0, &sample, 1).unwrap();
    let truth = SeizureLabel::new(train.annotation().onset(), train.annotation().offset()).unwrap();
    let config = RealTimeDetectorConfig {
        forest: RandomForestConfig {
            n_trees: 8,
            max_depth: 6,
            ..RandomForestConfig::default()
        },
        ..RealTimeDetectorConfig::default()
    };
    assert!(config.quality_gate, "the device path runs with the gate on");
    let mut detector = RealTimeDetector::new(config);
    let training = detector
        .build_training_windows(train.signal(), &truth)
        .unwrap();
    detector.train(&training).unwrap();
    detector.calibrate_quality(train.signal(), &truth).unwrap();

    let record = cohort.sample_record(patient, 1, &sample, 2).unwrap();
    let signal = record.signal();
    let mut streaming = detector.streaming(fs).unwrap();
    let mut windows = 0usize;
    let allocations = allocations_during(|| {
        for (&a, &b) in signal.f7t3().iter().zip(signal.f8t4()) {
            if streaming.push(a, b).unwrap().is_some() {
                windows += 1;
            }
        }
    });

    let expected = (signal.len() - streaming.window_samples()) / streaming.step_samples() + 1;
    assert_eq!(windows, expected, "every completed window was emitted");
    assert_eq!(allocations, 0, "push allocated over {windows} windows");
}
