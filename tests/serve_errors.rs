//! Typed error surface of the serving tier: a scorer fed ids it did not
//! mint must reject them with a [`ScoreError`] — never panic — for both
//! dense and hashed embedding stores, and the micro-batching front door
//! must keep serving valid requests around a malformed one.

use optinter_core::net::DataDims;
use optinter_core::{Architecture, Method, OptInterConfig, OptInterNet};
use optinter_data::{Batch, DatasetBundle, Profile};
use optinter_nn::StoreKind;
use optinter_serve::{
    freeze, serve, FrozenScorer, MicroBatchOptions, MonotonicClock, Quant, ScoreError,
};
use std::sync::atomic::{AtomicBool, Ordering};

fn bundle() -> DatasetBundle {
    Profile::Tiny.bundle_with_rows(600, 5)
}

fn scorer_for(
    bundle: &DatasetBundle,
    orig_store: StoreKind,
    cross_store: StoreKind,
) -> FrozenScorer {
    let dims = DataDims::of(&bundle.data);
    let arch = Architecture::new(
        (0..dims.num_pairs)
            .map(|p| Method::from_index(p % 3))
            .collect(),
    );
    let cfg = OptInterConfig {
        seed: 3,
        ..OptInterConfig::test_small()
    }
    .with_stores(orig_store, cross_store);
    let mut net = OptInterNet::new(cfg, dims, arch);
    let frozen = freeze(&mut net, &bundle.data, Quant::F32);
    FrozenScorer::new(&frozen, 1).expect("frozen model loads")
}

fn stores() -> [(StoreKind, StoreKind); 2] {
    [
        (StoreKind::Dense, StoreKind::Dense),
        (
            StoreKind::HashedQr { bucket: 11 },
            StoreKind::HashedDouble { rows: 17 },
        ),
    ]
}

#[test]
fn out_of_range_field_id_is_a_typed_error_not_a_panic() {
    let bundle = bundle();
    for (orig, cross) in stores() {
        let mut scorer = scorer_for(&bundle, orig, cross);
        let vocab = scorer.dims().orig_vocab;
        let mut fields = bundle.data.row_fields(0).to_vec();
        fields[2] = vocab + 41; // beyond the frozen key space
        let mut batch = Batch::empty();
        batch.begin(bundle.data.num_fields, bundle.data.num_pairs);
        batch.push_row(&fields, bundle.data.row_cross(0), 0.0);
        let mut probs = vec![0.5];
        match scorer.score_into(&batch, &mut probs) {
            Err(ScoreError::FieldIdOutOfRange {
                row,
                field,
                id,
                key_space,
            }) => {
                assert_eq!((row, field), (0, 2));
                assert_eq!(id, vocab + 41);
                assert_eq!(key_space, vocab);
            }
            other => panic!("expected FieldIdOutOfRange ({orig:?}), got {other:?}"),
        }
        assert!(probs.is_empty(), "rejected batch must leave out cleared");
        // The scorer survives the rejection and still scores valid rows.
        batch.begin(bundle.data.num_fields, bundle.data.num_pairs);
        batch.push_row(bundle.data.row_fields(0), bundle.data.row_cross(0), 0.0);
        scorer
            .score_into(&batch, &mut probs)
            .expect("valid batch scores after a rejection");
        assert_eq!(probs.len(), 1);
        assert!(probs[0].is_finite());
    }
}

#[test]
fn cross_id_outside_its_pair_block_is_a_typed_error() {
    let bundle = bundle();
    for (orig, cross_kind) in stores() {
        let mut scorer = scorer_for(&bundle, orig, cross_kind);
        // Find a memorized pair (arch cycles M/F/N, so pair 0 memorizes).
        let dims = scorer.dims().clone();
        let mut cross = bundle.data.row_cross(0).to_vec();
        cross[0] = dims.pair_offsets[0] + dims.pair_vocab_sizes[0]; // one past the block
        let mut batch = Batch::empty();
        batch.begin(bundle.data.num_fields, bundle.data.num_pairs);
        batch.push_row(bundle.data.row_fields(0), &cross, 0.0);
        let mut probs = Vec::new();
        match scorer.score_into(&batch, &mut probs) {
            Err(ScoreError::CrossIdOutOfRange {
                row,
                pair,
                id,
                lo,
                hi,
            }) => {
                assert_eq!((row, pair), (0, 0));
                assert_eq!(id, hi);
                assert!(lo < hi);
            }
            other => panic!("expected CrossIdOutOfRange, got {other:?}"),
        }
    }
}

#[test]
fn missing_cross_and_bad_arity_are_typed_errors() {
    let bundle = bundle();
    let mut scorer = scorer_for(&bundle, StoreKind::Dense, StoreKind::Dense);
    assert!(scorer.requires_cross());
    let mut probs = Vec::new();

    // No cross features while the architecture memorizes pairs.
    let mut batch = Batch::empty();
    batch.begin(bundle.data.num_fields, bundle.data.num_pairs);
    batch.push_row(bundle.data.row_fields(0), &[], 0.0);
    assert_eq!(
        scorer.score_into(&batch, &mut probs),
        Err(ScoreError::MissingCross)
    );

    // Wrong field arity.
    let mut batch = Batch::empty();
    batch.begin(bundle.data.num_fields + 1, bundle.data.num_pairs);
    assert_eq!(
        scorer.score_into(&batch, &mut probs),
        Err(ScoreError::FieldCountMismatch {
            got: bundle.data.num_fields + 1,
            expected: bundle.data.num_fields,
        })
    );
}

#[test]
fn microbatch_degrades_to_nan_for_malformed_requests_only() {
    let bundle = bundle();
    let mut scorer = scorer_for(&bundle, StoreKind::Dense, StoreKind::Dense);
    let vocab = scorer.dims().orig_vocab;
    let clock = MonotonicClock::new();
    // Request 0 flushes alone, and its response holds the batcher until
    // the client has queued the next three: they share one flush, so the
    // malformed middle one forces the degraded per-request path for the
    // whole batch.
    let opts = MicroBatchOptions {
        queue_slots: 8,
        max_batch: 3,
    };
    let stalled = AtomicBool::new(false);
    let queued = AtomicBool::new(false);
    let mut responses = Vec::new();
    let stats = serve(
        &mut scorer,
        &clock,
        &opts,
        |mut submitter| {
            let good = bundle.data.row_fields(1).to_vec();
            let mut bad = good.clone();
            bad[0] = vocab + 7;
            let cross = bundle.data.row_cross(1);
            assert!(submitter.submit(0, &good, cross));
            while !stalled.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            assert!(submitter.submit(1, &good, cross));
            assert!(submitter.submit(2, &bad, cross));
            assert!(submitter.submit(3, &good, cross));
            queued.store(true, Ordering::Release);
        },
        |r| {
            if r.id == 0 {
                stalled.store(true, Ordering::Release);
                while !queued.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            }
            responses.push(r);
        },
    );
    assert_eq!(responses.len(), 4);
    assert_eq!(stats.flushes, 2, "the three queued requests share a flush");
    assert_eq!(stats.nan_rows, 1, "the front door counts the NaN answer");
    assert!(responses[0].prob.is_finite(), "valid request still scores");
    assert!(responses[1].prob.is_finite(), "valid request still scores");
    assert!(responses[2].prob.is_nan(), "malformed request answers NaN");
    assert!(responses[3].prob.is_finite(), "valid request still scores");
    for r in [&responses[1], &responses[3]] {
        assert_eq!(
            responses[0].prob.to_bits(),
            r.prob.to_bits(),
            "identical requests score identically through the degraded path"
        );
    }
}
