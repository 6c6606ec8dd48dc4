//! The three reference workloads and the pipeline they share: encode →
//! joint search → re-train → freeze → artifact round-trip → scorer load,
//! followed by a train/serve parity check on the test split.
//!
//! The search and re-train loops mirror `optinter_core`'s
//! `joint_search_supernet` and `train_fixed` through public calls, so the
//! benchmark can count the epochs actually run. Untraced, a step is one
//! `train_batch` call; traced, the same step is split into the public
//! forward, loss, backward and step calls with a span around each. The
//! traced run checks that both give bit-identical results.

use crate::trace::Tracer;
use crate::Tally;
use optinter_bench::configs::optinter_config;
use optinter_core::net::DataDims;
use optinter_core::{evaluate_net, Architecture, Method, OptInterConfig, OptInterNet, Supernet};
use optinter_data::cross::CrossVocab;
use optinter_data::vocab::Vocabulary;
use optinter_data::{
    BatchIter, BatchStream, DatasetBundle, EncodedDataset, Profile, RawDataset, Split,
    SyntheticGenerator,
};
use optinter_nn::{bce_with_logits, EmbedOptimizerMode, StoreKind};
use optinter_serve::{freeze, FrozenModel, FrozenScorer, Quant};
use optinter_tensor::Pool;
use std::time::Instant;

/// One named reference workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Data profile, generated at its default row count.
    pub profile: Profile,
    /// Override of the profile's search epochs.
    pub search_epochs: Option<usize>,
    /// Re-train epoch budget.
    pub retrain_epochs: usize,
    /// Hashed quotient-remainder stores with lazy catch-up Adam.
    pub hashed: bool,
    /// The serving workload: its set-up also builds the served model.
    pub serving: bool,
}

/// Re-train epoch budget of the pipeline workloads. Early stopping waits
/// two epochs without a validation gain, so it cannot stop before epoch
/// three: every seed runs exactly this many epochs and `pipeline_s`
/// measures the same work on every seed.
const PIPELINE_RETRAIN_EPOCHS: usize = 3;

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "criteo_pipeline",
        profile: Profile::CriteoLike,
        search_epochs: None,
        retrain_epochs: PIPELINE_RETRAIN_EPOCHS,
        hashed: false,
        serving: false,
    },
    Workload {
        name: "giant_vocab_pipeline",
        profile: Profile::GiantVocab,
        search_epochs: None,
        retrain_epochs: PIPELINE_RETRAIN_EPOCHS,
        hashed: true,
        serving: false,
    },
    Workload {
        name: "criteo_serve",
        profile: Profile::CriteoLike,
        search_epochs: Some(1),
        retrain_epochs: 1,
        hashed: false,
        serving: true,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The profile's paper-scaled config at one training thread, with
    /// this workload's overrides.
    pub fn config(&self, seed: u64) -> OptInterConfig {
        let mut cfg = optinter_config(self.profile, seed, 1);
        if let Some(e) = self.search_epochs {
            cfg.search_epochs = e;
        }
        cfg.retrain_epochs = self.retrain_epochs;
        if self.hashed {
            cfg = cfg.with_embed_opt(EmbedOptimizerMode::LazyCatchUp);
        }
        cfg
    }

    /// Generates the raw rows (the pipelines' set-up).
    pub fn generate(&self, seed: u64) -> RawDataset {
        SyntheticGenerator::new(self.profile.spec()).generate(self.profile.default_rows(), seed)
    }
}

/// Hashed quotient-remainder store sized at a sixth of `key_space`.
fn qr_store(key_space: u32) -> StoreKind {
    StoreKind::HashedQr {
        bucket: (key_space / 6).max(1),
    }
}

/// The part of the pipeline a lap times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LapKind {
    /// One search batch after an epoch's first, its wait on the batch
    /// stream included.
    Search,
    /// The same for a re-train epoch's training pass.
    Retrain,
    /// Everything else: encoding, model set-up, each epoch's start (the
    /// batch stream's start and the first batch) and end, evaluation,
    /// freeze, artifact round-trip and scorer load.
    Other,
}

/// One lap: its kind, wall time and, for a training batch, the rows
/// trained.
#[derive(Debug, Clone, Copy)]
pub struct Lap {
    pub kind: LapKind,
    pub secs: f64,
    pub rows: usize,
}

/// Consecutive wall-time laps over one pipeline run. Each lap starts
/// where the previous one ended, so together they cover the run from raw
/// rows to loaded scorer without gap or overlap. Every run of one seed
/// does the same work in the same order, so lap `i` of one run times the
/// same step as lap `i` of another.
pub struct Laps {
    last: Instant,
    pub laps: Vec<Lap>,
}

impl Laps {
    fn starting_at(t0: Instant) -> Self {
        Self {
            last: t0,
            laps: Vec::new(),
        }
    }

    /// Ends the current lap, which trained `rows` rows; returns when it
    /// ended.
    fn mark_rows(&mut self, kind: LapKind, rows: usize) -> Instant {
        let now = Instant::now();
        self.laps.push(Lap {
            kind,
            secs: now.duration_since(self.last).as_secs_f64(),
            rows,
        });
        self.last = now;
        now
    }

    /// Ends the current lap.
    fn mark(&mut self, kind: LapKind) -> Instant {
        self.mark_rows(kind, 0)
    }

    /// The lap kinds, in order: equal for runs of the same work.
    pub fn kinds(&self) -> Vec<LapKind> {
        self.laps.iter().map(|l| l.kind).collect()
    }
}

/// Wall time of each pipeline phase, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    pub encode: f64,
    pub search: f64,
    pub retrain: f64,
    pub freeze: f64,
    pub roundtrip: f64,
    pub load: f64,
}

impl Phases {
    /// Sum of the phase times.
    pub fn sum(&self) -> f64 {
        self.encode + self.search + self.retrain + self.freeze + self.roundtrip + self.load
    }
}

/// What one pipeline run measured.
pub struct RunStats {
    /// Raw rows to loaded scorer, seconds.
    pub pipeline_s: f64,
    pub phases: Phases,
    /// The run cut into laps: one per training batch, one per other step.
    pub laps: Laps,
    /// Training-split rows.
    pub train_rows: usize,
    pub search_batches: usize,
    /// Wall time of each search epoch.
    pub search_epoch_s: Vec<f64>,
    /// Wall time of each re-train epoch's training pass.
    pub retrain_epoch_s: Vec<f64>,
    /// Test AUC of the best-validation epoch.
    pub test_auc: f64,
    /// Share of pairs whose searched method equals the planted one.
    pub agreement: f64,
    /// Searched architecture, one letter per pair.
    pub arch: String,
    pub artifact_bytes: usize,
    /// Digest of the served test-split probabilities' bits.
    pub probs_digest: u64,
}

impl RunStats {
    /// Training rows per second of each search epoch.
    pub fn search_rows_per_s(&self) -> impl Iterator<Item = f64> + '_ {
        self.search_epoch_s
            .iter()
            .map(|s| self.train_rows as f64 / s)
    }

    /// Training rows per second of each re-train epoch.
    pub fn retrain_rows_per_s(&self) -> impl Iterator<Item = f64> + '_ {
        self.retrain_epoch_s
            .iter()
            .map(|s| self.train_rows as f64 / s)
    }

    /// The values two runs of one seed must reproduce bit for bit.
    pub fn identity(&self) -> (&str, u64, u64) {
        (&self.arch, self.test_auc.to_bits(), self.probs_digest)
    }
}

/// The model one pipeline run serves, with the data the serving phases
/// and the layer replays read.
pub struct Model {
    /// Served probability of every test row (index = row - test start).
    pub test_probs: Vec<f32>,
    pub bundle: DatasetBundle,
    pub cfg: OptInterConfig,
    pub net: OptInterNet,
    pub scorer: FrozenScorer,
}

/// FNV-1a over the bits of `probs`.
pub fn digest(probs: &[f32]) -> u64 {
    probs.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, p| {
        (h ^ u64::from(p.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs the pipeline on `raw`. Returns `Err` when no scorer could be
/// built; row-level check failures are counted in `tally`.
pub fn run(
    w: &Workload,
    raw: &RawDataset,
    seed: u64,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<(RunStats, Model), String> {
    let spec = w.profile.spec();
    let root = tr.enter("pipeline");
    let t0 = Instant::now();
    let mut laps = Laps::starting_at(t0);

    let span = tr.enter("data.encode");
    let split = Split::fractions(raw.len(), 0.7, 0.1);
    let data = encode(raw, &split, w.profile.min_count(), tr);
    let bundle = DatasetBundle {
        planted: spec.planted.clone(),
        spec,
        data,
        split,
        oracle_logits: raw.logits.clone(),
    };
    tr.exit(span);
    let t1 = laps.mark(LapKind::Other);

    let span = tr.enter("core.search");
    let mut cfg = w.config(seed);
    if w.hashed {
        cfg = cfg.with_stores(
            qr_store(bundle.data.orig_vocab),
            qr_store(bundle.data.cross_vocab),
        );
    }
    let (searched, search_batches, search_epoch_s) = search(&bundle, &cfg, tr, &mut laps);
    tr.exit(span);
    let t2 = laps.mark(LapKind::Other);

    let span = tr.enter("core.retrain");
    // Every workload re-trains and serves the planted (oracle)
    // architecture, not the searched one: the searched one moves re-train
    // and serving cost with the seed (by up to 1.5x with 15 pairs), and a
    // change to the search must not change the work timed after it.
    let served = Architecture::oracle(&bundle.planted);
    if w.hashed {
        let compact: u32 = (0..bundle.data.num_pairs)
            .filter(|&p| served.method(p) == Method::Memorize)
            .map(|p| bundle.data.pair_vocab_sizes[p])
            .sum();
        cfg = cfg.with_stores(qr_store(bundle.data.orig_vocab), qr_store(compact));
    }
    let mut retrained = retrain(&bundle, &cfg, served, tr, &mut laps);
    tr.exit(span);
    let t3 = laps.mark(LapKind::Other);

    let span = tr.enter("serve.freeze");
    let frozen = freeze(&mut retrained.net, &bundle.data, Quant::F32);
    tr.exit(span);
    let t4 = laps.mark(LapKind::Other);

    let span = tr.enter("serve.artifact_roundtrip");
    let bytes = frozen.to_bytes();
    let loaded = FrozenModel::from_bytes(&bytes);
    tr.exit(span);
    let t5 = laps.mark(LapKind::Other);
    tally.attempted += 1;
    let loaded = loaded.map_err(|e| {
        tally.failed += 1;
        format!("artifact round-trip failed: {e}")
    })?;

    let span = tr.enter("serve.scorer_load");
    let scorer = FrozenScorer::new(&loaded, 1);
    tr.exit(span);
    let t6 = laps.mark(LapKind::Other);
    tr.exit(root);
    tally.attempted += 1;
    let mut scorer = scorer.map_err(|e| {
        tally.failed += 1;
        format!("scorer load failed: {e}")
    })?;

    let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
    let phases = Phases {
        encode: secs(t0, t1),
        search: secs(t1, t2),
        retrain: secs(t2, t3),
        freeze: secs(t3, t4),
        roundtrip: secs(t4, t5),
        load: secs(t5, t6),
    };
    let test_probs = score_test_split(&mut retrained.net, &mut scorer, &bundle, &cfg, tally);
    let arch = searched
        .methods()
        .iter()
        .map(|m| m.tag())
        .collect::<Vec<_>>();
    let stats = RunStats {
        pipeline_s: secs(t0, t6),
        phases,
        laps,
        train_rows: bundle.split.train.len(),
        search_batches,
        search_epoch_s,
        retrain_epoch_s: retrained.epoch_s,
        test_auc: retrained.test_auc,
        agreement: searched.agreement_with(&bundle.planted),
        arch: arch.join(""),
        artifact_bytes: bytes.len(),
        probs_digest: digest(&test_probs),
    };
    let model = Model {
        test_probs,
        bundle,
        cfg,
        net: retrained.net,
        scorer,
    };
    Ok((stats, model))
}

/// Vocabulary build and row encoding. Untraced this is the public
/// `EncodedDataset::encode`; traced it is the same two steps called
/// separately, each under its own span.
fn encode(raw: &RawDataset, split: &Split, min_count: u32, tr: &mut Tracer) -> EncodedDataset {
    if !tr.is_on() {
        return EncodedDataset::encode(raw, split.train.clone(), min_count);
    }
    let m = raw.schema.num_fields();
    let train = &raw.rows[split.train.start * m..split.train.end * m];
    let span = tr.enter("data.vocab_build");
    let vocab = Vocabulary::build(&raw.schema, train, min_count);
    let cross_vocab = CrossVocab::build_with_pool(&raw.schema, train, min_count, &Pool::serial());
    tr.exit(span);
    let span = tr.enter("data.encode_rows");
    let fields = vocab.encode_rows(&raw.rows);
    let cross = cross_vocab.encode_rows_with_pool(&raw.schema, &raw.rows, &Pool::serial());
    tr.exit(span);
    let num_pairs = raw.schema.num_pairs();
    EncodedDataset {
        num_fields: m,
        num_pairs,
        orig_vocab: vocab.total(),
        cross_vocab: cross_vocab.total(),
        fields,
        cross,
        labels: raw.labels.iter().map(|&y| f32::from(y)).collect(),
        field_vocab_sizes: vocab.sizes(),
        pair_vocab_sizes: cross_vocab.sizes(),
        field_offsets: (0..m).map(|f| vocab.offset(f)).collect(),
        pair_offsets: (0..num_pairs).map(|p| cross_vocab.offset(p)).collect(),
    }
}

/// Records the time the loop waited on the batch stream since `*last`.
fn batch_wait(tr: &mut Tracer, last: &mut u64) {
    let now = tr.now_ns();
    tr.record("data.batch_wait", *last, now);
}

/// Joint search (Algorithm 1) as `joint_search_supernet` runs it.
/// Returns the argmax architecture, the number of batches trained and
/// the wall time of each epoch.
fn search(
    bundle: &DatasetBundle,
    cfg: &OptInterConfig,
    tr: &mut Tracer,
    laps: &mut Laps,
) -> (Architecture, usize, Vec<f64>) {
    let mut net = Supernet::new(cfg.clone(), DataDims::of(&bundle.data));
    laps.mark(LapKind::Other);
    let epochs = cfg.search_epochs.max(1);
    let train = bundle.split.train.clone();
    let per_epoch = BatchIter::new(&bundle.data, train.clone(), cfg.batch_size, None).num_batches();
    let total = (per_epoch * epochs).max(1);
    let mut seen = 0usize;
    let mut epoch_s = Vec::with_capacity(epochs);
    for epoch in 0..epochs {
        let t = Instant::now();
        let mut last = tr.now_ns();
        let mut first = true;
        BatchStream::new(
            &bundle.data,
            train.clone(),
            cfg.batch_size,
            Some(cfg.seed.wrapping_add(epoch as u64)),
        )
        .prefetch(cfg.prefetch)
        .for_each(|batch| {
            // The epoch's first batch also waits for the stream to start.
            let kind = if first {
                LapKind::Other
            } else {
                LapKind::Search
            };
            first = false;
            let tau = cfg.tau.at(seen as f32 / total as f32);
            if tr.is_on() {
                batch_wait(tr, &mut last);
                let s = tr.enter("core.supernet.forward");
                let logits = net.forward(batch, tau, true);
                tr.exit(s);
                let (_, grad) = bce_with_logits(&logits, &batch.labels);
                let s = tr.enter("core.supernet.backward");
                net.backward(batch, &grad);
                tr.exit(s);
                let s = tr.enter("core.supernet.step");
                net.step();
                tr.exit(s);
                last = tr.now_ns();
            } else {
                std::hint::black_box(net.train_batch(batch, tau));
            }
            seen += 1;
            laps.mark_rows(kind, batch.len());
        });
        laps.mark(LapKind::Other);
        epoch_s.push(t.elapsed().as_secs_f64());
    }
    (net.extract_architecture(), seen, epoch_s)
}

struct Retrained {
    net: OptInterNet,
    /// Wall time of each epoch's training pass (evaluation excluded).
    epoch_s: Vec<f64>,
    test_auc: f64,
}

/// Fixed-architecture re-train (Algorithm 2) with `train_fixed`'s
/// early stopping: stop once validation AUC has not improved for two
/// epochs, report the test AUC of the best-validation epoch.
fn retrain(
    bundle: &DatasetBundle,
    cfg: &OptInterConfig,
    arch: Architecture,
    tr: &mut Tracer,
    laps: &mut Laps,
) -> Retrained {
    let mut net = OptInterNet::new(cfg.clone(), DataDims::of(&bundle.data), arch);
    laps.mark(LapKind::Other);
    let mut best_val = f64::NEG_INFINITY;
    let mut best_test = None;
    let mut since_best = 0usize;
    let mut epoch_s = Vec::new();
    let bs = cfg.batch_size;
    for epoch in 0..cfg.retrain_epochs.max(1) {
        let t = Instant::now();
        let mut last = tr.now_ns();
        let mut first = true;
        BatchStream::new(
            &bundle.data,
            bundle.split.train.clone(),
            bs,
            Some(cfg.seed.wrapping_add(0x5EED + epoch as u64)),
        )
        .prefetch(cfg.prefetch)
        .for_each(|batch| {
            let kind = if first {
                LapKind::Other
            } else {
                LapKind::Retrain
            };
            first = false;
            if tr.is_on() {
                batch_wait(tr, &mut last);
                let s = tr.enter("core.net.forward");
                let logits = net.forward(batch);
                tr.exit(s);
                let (_, grad) = bce_with_logits(&logits, &batch.labels);
                let s = tr.enter("core.net.backward");
                net.backward(batch, &grad);
                tr.exit(s);
                let s = tr.enter("core.net.step");
                net.step();
                tr.exit(s);
                last = tr.now_ns();
            } else {
                std::hint::black_box(net.train_batch(batch));
            }
            laps.mark_rows(kind, batch.len());
        });
        laps.mark(LapKind::Other);
        epoch_s.push(t.elapsed().as_secs_f64());
        let s = tr.enter("core.trainer.eval");
        let val = evaluate_net(&mut net, bundle, bundle.split.val.clone(), bs);
        let improved = val.auc > best_val;
        if improved {
            best_val = val.auc;
            best_test = Some(evaluate_net(
                &mut net,
                bundle,
                bundle.split.test.clone(),
                bs,
            ));
        }
        tr.exit(s);
        laps.mark(LapKind::Other);
        if improved {
            since_best = 0;
        } else {
            since_best += 1;
            if since_best >= 2 {
                break;
            }
        }
    }
    let test_auc = match best_test {
        Some(r) => r.auc,
        None => evaluate_net(&mut net, bundle, bundle.split.test.clone(), bs).auc,
    };
    Retrained {
        net,
        epoch_s,
        test_auc,
    }
}

/// Scores the test split through the frozen scorer and checks each row
/// against `OptInterNet::predict` bit for bit. Returns the served
/// probabilities (NaN where scoring failed).
fn score_test_split(
    net: &mut OptInterNet,
    scorer: &mut FrozenScorer,
    bundle: &DatasetBundle,
    cfg: &OptInterConfig,
    tally: &mut Tally,
) -> Vec<f32> {
    let test = bundle.split.test.clone();
    let mut served = Vec::with_capacity(test.len());
    let mut out = Vec::new();
    for batch in BatchIter::new(&bundle.data, test, cfg.batch_size, None) {
        let expect = net.predict(&batch);
        tally.attempted += batch.len() as u64;
        match scorer.score_into(&batch, &mut out) {
            Ok(()) => {
                let base = served.len();
                for (i, (&got, &want)) in out.iter().zip(&expect).enumerate() {
                    tally.check(got.is_finite() && got.to_bits() == want.to_bits(), || {
                        format!("test row {}: served {got} != trained {want}", base + i)
                    });
                }
                if out.len() != expect.len() {
                    tally.fail(format!(
                        "scorer returned {} of {} rows",
                        out.len(),
                        expect.len()
                    ));
                }
                served.extend_from_slice(&out);
                served.resize(
                    served.len() + expect.len().saturating_sub(out.len()),
                    f32::NAN,
                );
            }
            Err(e) => {
                tally.failed += batch.len() as u64;
                tally.note(format!("test split scoring failed: {e}"));
                served.resize(served.len() + batch.len(), f32::NAN);
            }
        }
    }
    served
}
