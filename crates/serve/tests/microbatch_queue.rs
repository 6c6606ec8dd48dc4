//! Micro-batch queue invariants.
//!
//! Property tests drive [`optinter_serve::simulate`] — the deterministic
//! single-threaded model of the live batcher's work-conserving policy —
//! over arbitrary arrival sequences, service times and capacities: no
//! request is ever lost, duplicated, or reordered, batches respect
//! `max_batch`, and no request waits while the batcher is idle. Threaded
//! tests then check the live [`serve`] loop: ordered delivery, full
//! batches out of a backlog, clean mid-flight drain on submitter drop,
//! and panic propagation out of the scope (nothing hangs).

use optinter_core::net::DataDims;
use optinter_core::{Architecture, Method, OptInterConfig, OptInterNet};
use optinter_data::{DatasetBundle, Profile};
use optinter_serve::{
    freeze, serve, simulate, Clock, FrozenScorer, ManualClock, MicroBatchOptions, MonotonicClock,
    Quant, ServeStats,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn simulated_queue_never_loses_duplicates_or_reorders(
        gaps in proptest::collection::vec(0u64..200_000, 0..200),
        max_batch in 1usize..16,
        service_ns in 0u64..100_000,
    ) {
        let (responses, batch_sizes) = simulate(max_batch, service_ns, &gaps);

        // Exactly one response per request, in submission order.
        prop_assert_eq!(responses.len(), gaps.len());
        for (i, r) in responses.iter().enumerate() {
            prop_assert_eq!(r.id, i as u64, "response {} out of order", i);
        }

        // Batches are non-empty, bounded, and account for every request.
        let mut total = 0usize;
        for &n in &batch_sizes {
            prop_assert!(n >= 1);
            prop_assert!(n <= max_batch);
            total += n;
        }
        prop_assert_eq!(total, gaps.len());

        // No request waits while the batcher is idle: each batch starts at
        // the later of its first arrival and the previous batch's end, and
        // takes exactly the requests queued by then (up to max_batch).
        let mut prev_done = 0u64;
        let mut first = 0usize;
        for &n in &batch_sizes {
            let batch = &responses[first..first + n];
            let start = batch[0].submit_ns.max(prev_done);
            for r in batch {
                prop_assert!(r.submit_ns <= start, "request {} scored before it arrived", r.id);
                prop_assert_eq!(r.done_ns, start + service_ns);
            }
            if let Some(next) = responses.get(first + n) {
                prop_assert!(
                    n == max_batch || next.submit_ns > start,
                    "request {} was queued at a flush but left behind", next.id
                );
            }
            prev_done = start + service_ns;
            first += n;
        }
    }

    #[test]
    fn back_to_back_arrivals_fill_batches(
        n in 1usize..300,
        max_batch in 1usize..16,
        service_ns in 0u64..100_000,
    ) {
        // Gap 0: every request is queued before the first flush, so every
        // batch except possibly the last is exactly max_batch.
        let gaps = vec![0u64; n];
        let (responses, batch_sizes) = simulate(max_batch, service_ns, &gaps);
        prop_assert_eq!(responses.len(), n);
        for (i, &b) in batch_sizes.iter().enumerate() {
            if i + 1 < batch_sizes.len() {
                prop_assert_eq!(b, max_batch);
            } else {
                prop_assert!(b <= max_batch);
            }
        }
    }

    #[test]
    fn spaced_arrivals_flush_alone_one_service_time_after_submit(
        n in 1usize..50,
        service_ns in 1u64..10_000,
        slack in 0u64..10_000,
    ) {
        // Arrivals at least one service time apart always find the batcher
        // idle: each flushes alone, one service time after its submit.
        let gaps = vec![service_ns + slack; n];
        let (responses, batch_sizes) = simulate(64, service_ns, &gaps);
        prop_assert_eq!(responses.len(), n);
        prop_assert!(batch_sizes.iter().all(|&b| b == 1));
        for r in &responses {
            prop_assert_eq!(r.done_ns, r.submit_ns + service_ns);
        }
    }
}

// ---------------------------------------------------------------------------
// Threaded front-door tests against a real scorer.

fn tiny_scorer() -> (FrozenScorer, DatasetBundle) {
    let bundle: DatasetBundle = Profile::Tiny.bundle_with_rows(200, 7);
    let dims = DataDims::of(&bundle.data);
    let arch = Architecture::new(
        (0..dims.num_pairs)
            .map(|p| Method::from_index(p % 3))
            .collect(),
    );
    let cfg = OptInterConfig {
        seed: 2,
        ..OptInterConfig::test_small()
    };
    let mut net = OptInterNet::new(cfg, dims, arch);
    let frozen = freeze(&mut net, &bundle.data, Quant::F32);
    let scorer = FrozenScorer::new(&frozen, 1).expect("frozen model loads");
    (scorer, bundle)
}

#[test]
fn live_serve_delivers_every_request_in_order() {
    let (mut scorer, bundle) = tiny_scorer();
    let clock = ManualClock::new();
    let opts = MicroBatchOptions {
        queue_slots: 8,
        max_batch: 8,
    };
    const N: usize = 100;
    let mut got = Vec::new();
    let stats = serve(
        &mut scorer,
        &clock,
        &opts,
        |mut submitter| {
            for k in 0..N {
                let row = k % bundle.data.len();
                let ok = submitter.submit(
                    k as u64,
                    bundle.data.row_fields(row),
                    bundle.data.row_cross(row),
                );
                assert!(ok, "batcher vanished at request {k}");
            }
        },
        |resp| got.push(resp),
    );
    assert_eq!(got.len(), N);
    assert_eq!(stats.rows, N as u64);
    assert_eq!(stats.nan_rows, 0);
    assert!(stats.flushes >= (N / opts.max_batch) as u64);
    for (k, r) in got.iter().enumerate() {
        assert_eq!(r.id, k as u64, "response order broken at {k}");
        assert!(r.prob.is_finite() && r.prob > 0.0 && r.prob < 1.0);
        assert!(r.done_ns >= r.submit_ns);
    }
    // Responses match scoring the same rows directly (forward passes are
    // row-independent, so batch composition cannot matter).
    let mut batch = optinter_data::Batch::empty();
    let mut probs = Vec::new();
    for (k, r) in got.iter().enumerate() {
        let row = k % bundle.data.len();
        batch.begin(bundle.data.num_fields, bundle.data.num_pairs);
        batch.push_row(bundle.data.row_fields(row), bundle.data.row_cross(row), 0.0);
        scorer
            .score_into(&batch, &mut probs)
            .expect("dataset rows score");
        assert_eq!(
            probs[0].to_bits(),
            r.prob.to_bits(),
            "micro-batched probability differs from direct scoring at {k}"
        );
    }
}

#[test]
fn a_backlog_flushes_as_one_full_batch() {
    // The batcher is stalled in `on_response` for over a millisecond while
    // the client queues a full batch behind it. Those requests are all late
    // by then; the next flush must still take max_batch of them at once
    // instead of flushing the oldest alone.
    let (mut scorer, bundle) = tiny_scorer();
    let clock = MonotonicClock::new();
    const MAX: usize = 8;
    let opts = MicroBatchOptions {
        queue_slots: MAX,
        max_batch: MAX,
    };
    let stalled = AtomicBool::new(false);
    let queued = AtomicBool::new(false);
    let mut got = Vec::new();
    let stats = serve(
        &mut scorer,
        &clock,
        &opts,
        |mut submitter| {
            let (f, c) = (bundle.data.row_fields(0), bundle.data.row_cross(0));
            assert!(submitter.submit(0, f, c));
            while !stalled.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            for k in 1..=MAX as u64 {
                assert!(submitter.submit(k, f, c));
            }
            queued.store(true, Ordering::Release);
        },
        |resp| {
            if resp.id == 0 {
                let from = clock.now_ns();
                stalled.store(true, Ordering::Release);
                while !queued.load(Ordering::Acquire) || clock.now_ns() - from < 1_000_000 {
                    std::thread::yield_now();
                }
            }
            got.push(resp);
        },
    );
    assert_eq!(got.len(), MAX + 1);
    let backlog = &got[1..];
    assert!(
        backlog.iter().all(|r| r.done_ns == backlog[0].done_ns),
        "the queued backlog was split across flushes: {:?}",
        backlog.iter().map(|r| r.done_ns).collect::<Vec<_>>()
    );
    assert_eq!(
        stats,
        ServeStats {
            flushes: 2,
            rows: MAX as u64 + 1,
            full_flushes: 1,
            nan_rows: 0,
        }
    );
}

#[test]
fn dropping_the_submitter_drains_in_flight_requests() {
    let (mut scorer, bundle) = tiny_scorer();
    let clock = ManualClock::new();
    // max_batch unreachable: every flush is partial, and the last ones
    // race the submitter's drop.
    let opts = MicroBatchOptions {
        queue_slots: 16,
        max_batch: 1_000,
    };
    let mut got = Vec::new();
    serve(
        &mut scorer,
        &clock,
        &opts,
        |mut submitter| {
            for k in 0..10u64 {
                assert!(submitter.submit(k, bundle.data.row_fields(0), bundle.data.row_cross(0)));
            }
            // Submitter dropped here, mid-flight.
        },
        |resp| got.push(resp.id),
    );
    assert_eq!(
        got,
        (0..10).collect::<Vec<u64>>(),
        "shutdown drain lost requests"
    );
}

#[test]
fn client_panic_propagates_and_does_not_hang() {
    let (mut scorer, bundle) = tiny_scorer();
    let clock = ManualClock::new();
    let opts = MicroBatchOptions::default();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        serve(
            &mut scorer,
            &clock,
            &opts,
            |mut submitter| {
                submitter.submit(0, bundle.data.row_fields(0), bundle.data.row_cross(0));
                panic!("client died");
            },
            |_| {},
        );
    }));
    assert!(result.is_err(), "client panic must propagate out of serve");
}
