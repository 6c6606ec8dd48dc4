//! Traced-run replays of single layers on a workload's own shapes: the
//! embedding stores and the MLP (`nn`), the first-layer matmul and an
//! empty pool dispatch (`tensor`), and batch-1 / batch-32 scoring
//! (`serve`). Each call is timed by a span from outside the layer.

use crate::pipeline::Model;
use crate::serving::Requests;
use crate::trace::Tracer;
use optinter_core::Method;
use optinter_data::{Batch, BatchIter};
use optinter_nn::{Adam, DenseOptimizer, EmbedStore, Layer, Mlp, MlpConfig};
use optinter_serve::FrozenScorer;
use optinter_tensor::{init, Matrix, Pool};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Replayed training batches for the store and MLP layers.
const REPLAY_BATCHES: usize = 200;

/// Compact cross ids of the memorized pairs, as the re-trained net
/// gathers them: `[B * num_memorized]`.
fn memorized_ids(run: &Model, batch: &Batch, out: &mut Vec<u32>) {
    let dims = &run.bundle.data;
    let arch = run.net.architecture();
    out.clear();
    for r in 0..batch.len() {
        let row = &batch.cross[r * dims.num_pairs..(r + 1) * dims.num_pairs];
        let mut offset = 0u32;
        for (p, &id) in row.iter().enumerate() {
            if arch.method(p) == Method::Memorize {
                out.push(offset + id - dims.pair_offsets[p]);
                offset += dims.pair_vocab_sizes[p];
            }
        }
    }
}

/// Embedding-store lookup, gradient accumulation and Adam apply, and
/// MLP forward and backward, on the re-trained net's stores, widths and
/// training batches.
pub fn replay_nn(run: &Model, tr: &mut Tracer) {
    let cfg = &run.cfg;
    let data = &run.bundle.data;
    let m = data.num_fields;
    let num_mem = run.net.num_memorized();
    let compact: usize = (0..data.num_pairs)
        .filter(|&p| run.net.architecture().method(p) == Method::Memorize)
        .map(|p| data.pair_vocab_sizes[p] as usize)
        .sum();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x2E_71A7);
    let mut orig = EmbedStore::new(
        cfg.orig_store,
        &mut rng,
        data.orig_vocab as usize,
        cfg.orig_dim,
        cfg.seed ^ 0x0517_0E0A,
    );
    let mut cross = EmbedStore::new(
        cfg.cross_store,
        &mut rng,
        compact.max(1),
        cfg.cross_dim,
        cfg.seed ^ 0x0517_0ECA,
    );
    orig.set_optimizer_mode(cfg.embed_opt);
    cross.set_optimizer_mode(cfg.embed_opt);
    let mut mlp = Mlp::new(
        &mut rng,
        &MlpConfig {
            input_dim: run.net.input_dim(),
            hidden: cfg.hidden.clone(),
            output_dim: 1,
            layer_norm: cfg.layer_norm,
            ln_eps: 1e-5,
        },
    );
    let pool = Pool::new(cfg.num_threads);
    mlp.set_pool(&pool);
    let mut adam = Adam::with_lr_eps(cfg.lr, cfg.adam_eps);
    let mut adam_cross = Adam::with_lr_eps(cfg.lr_cross, cfg.adam_eps);

    let (mut eo, mut em) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    let mut ids = Vec::new();
    let (mut logits, mut dx) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    let mut batches = BatchIter::new(
        data,
        run.bundle.split.train.clone(),
        cfg.batch_size,
        Some(1),
    );
    let mut batch = Batch::empty();
    for _ in 0..REPLAY_BATCHES {
        if !batches.next_into(&mut batch) {
            batches = BatchIter::new(
                data,
                run.bundle.split.train.clone(),
                cfg.batch_size,
                Some(2),
            );
            if !batches.next_into(&mut batch) {
                return;
            }
        }
        let b = batch.len();
        memorized_ids(run, &batch, &mut ids);

        let s = tr.enter("nn.store.lookup");
        orig.lookup_fields_pooled_into(&batch.fields, m, &pool, &mut eo);
        if num_mem > 0 {
            cross.lookup_fields_pooled_into(&ids, num_mem, &pool, &mut em);
        }
        tr.exit(s);

        let g_orig = Matrix::filled(b, m * cfg.orig_dim, 1e-3);
        let g_cross = Matrix::filled(b, num_mem * cfg.cross_dim, 1e-3);
        let s = tr.enter("nn.store.accumulate");
        orig.accumulate_grad_fields_pooled(&batch.fields, m, &g_orig, &pool);
        if num_mem > 0 {
            cross.accumulate_grad_fields_pooled(&ids, num_mem, &g_cross, &pool);
        }
        tr.exit(s);

        let s = tr.enter("nn.store.apply_adam");
        adam.begin_step();
        orig.apply_adam(&adam, cfg.l2_orig);
        if num_mem > 0 {
            adam_cross.begin_step();
            cross.apply_adam(&adam_cross, cfg.l2_cross);
        }
        tr.exit(s);

        let x = init::uniform(&mut rng, b, run.net.input_dim(), -1.0, 1.0);
        let s = tr.enter("nn.mlp.forward");
        mlp.forward_into(&x, &mut logits);
        tr.exit(s);
        let grad = Matrix::filled(b, 1, 1.0 / b as f32);
        let s = tr.enter("nn.mlp.backward");
        mlp.backward_into(&x, &grad, &mut dx);
        tr.exit(s);
        mlp.zero_grads();
        std::hint::black_box((&eo, &em, &dx));
    }
}

/// First-layer matmul `[B, input] x [input, hidden0]` under the active
/// backend. Returns GFLOP/s per call, one sample per span.
pub fn replay_matmul(run: &Model, tr: &mut Tracer) -> Vec<f64> {
    let cfg = &run.cfg;
    let (b, k) = (cfg.batch_size, run.net.input_dim());
    let n = cfg.hidden.first().copied().unwrap_or(1);
    let mut rng = StdRng::seed_from_u64(7);
    let a = init::uniform(&mut rng, b, k, -1.0, 1.0);
    let w = init::uniform(&mut rng, k, n, -1.0, 1.0);
    let mut out = Matrix::zeros(b, n);
    let flops = 2.0 * (b * k * n) as f64;
    (0..400)
        .map(|_| {
            let s = tr.enter("tensor.matmul");
            let t = Instant::now();
            a.matmul_into(&w, &mut out);
            let dt = t.elapsed().as_secs_f64();
            tr.exit(s);
            std::hint::black_box(&out);
            flops / dt.max(1e-12) * 1e-9
        })
        .collect()
}

/// Cost of one empty `Pool::run` at 2 threads, ns per call, one sample
/// per span of 1000 calls.
pub fn replay_dispatch(tr: &mut Tracer) -> Vec<f64> {
    let pool = Pool::new(2);
    (0..100)
        .map(|_| {
            let s = tr.enter("tensor.pool.dispatch_x1000");
            let t = Instant::now();
            for _ in 0..1000 {
                pool.run(2, |j| {
                    std::hint::black_box(j);
                });
            }
            let dt = t.elapsed().as_nanos() as f64 / 1000.0;
            tr.exit(s);
            dt
        })
        .collect()
}

/// `score_into` at batch 1 and batch 32 on the loaded scorer, one span
/// per call. Returns µs per call at batch 1 and µs per row at batch 32.
pub fn replay_scoring(
    scorer: &mut FrozenScorer,
    req: &Requests,
    tr: &mut Tracer,
) -> (Vec<f64>, Vec<f64>) {
    let mut batch = Batch::empty();
    let mut out = Vec::new();
    let mut per_call = |bsz: usize, calls: u64, name: &'static str, tr: &mut Tracer| {
        (0..calls)
            .map(|c| {
                req.fill(&mut batch, c * bsz as u64, bsz);
                let s = tr.enter(name);
                let t = Instant::now();
                let _ = scorer.score_into(&batch, &mut out);
                let dt = t.elapsed().as_nanos() as f64 * 1e-3;
                tr.exit(s);
                dt / bsz as f64
            })
            .collect::<Vec<f64>>()
    };
    per_call(1, 64, "serve.warmup", tr);
    let b1 = per_call(1, 4000, "serve.score_b1", tr);
    let b32 = per_call(32, 1000, "serve.score_b32", tr);
    (b1, b32)
}
