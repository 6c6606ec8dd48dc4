//! Pinned numerics: the exact bits that search, re-train and serving
//! produce today, folded into one digest per (model, factorization).
//!
//! The determinism and parity suites compare the code with itself — one
//! thread against four, the trainer against the frozen scorer — so a
//! numerics change made the same way in every path passes them all. This
//! test compares against constants captured from a known-good build
//! instead: any refactor of the interaction block, the MLP or the
//! optimizers that moves a single loss or probability bit fails it.
//!
//! Each kernel backend has its own digests, both pinned on x86_64 Linux:
//! the AVX backend fuses multiply-adds in its matmuls, so its bits differ
//! from the scalar ones, and `exp`/`ln` come from the platform's libm, so
//! other targets legitimately differ. The backend is process-global
//! (`kernels::set_active`), so one test runs the scalar pass and then the
//! avx2fma pass; a host without AVX2+FMA skips the second with a note.

#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use optinter_core::net::DataDims;
use optinter_core::{Architecture, FactFn, Method, OptInterConfig, OptInterNet, Supernet};
use optinter_data::{BatchIter, Profile};
use optinter_serve::{freeze, FrozenScorer, Quant};
use optinter_tensor::kernels::{self, Backend};

/// `(fact_fn, supernet digest, net + scorer digest)`, scalar backend.
const PINNED: [(FactFn, u64, u64); 3] = [
    (
        FactFn::Hadamard,
        0x1948_3d33_a48f_e073,
        0x1d87_67d4_e352_b6da,
    ),
    (
        FactFn::PointwiseAdd,
        0xf878_d015_64c3_440a,
        0x82f6_506f_ea69_25da,
    ),
    (
        FactFn::Generalized,
        0x6219_6f58_3e77_a3b9,
        0x559d_d652_2c53_0f1b,
    ),
];

/// The same digests on the avx2fma backend (the default on AVX2+FMA hosts).
const PINNED_AVX2FMA: [(FactFn, u64, u64); 3] = [
    (
        FactFn::Hadamard,
        0xf253_851b_22ee_7a45,
        0x7834_0b02_fd45_2f95,
    ),
    (
        FactFn::PointwiseAdd,
        0xaf20_22cb_f57a_c394,
        0x3d4d_fe1f_b42e_f77c,
    ),
    (
        FactFn::Generalized,
        0x08bd_c80a_0075_0131,
        0x01cc_edf0_5ddb_d322,
    ),
];

/// 64-bit FNV-1a over the little-endian bytes of each folded value.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn fold(&mut self, x: f32) {
        for byte in x.to_bits().to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn config(fact_fn: FactFn) -> OptInterConfig {
    OptInterConfig {
        seed: 17,
        num_threads: 1,
        fact_fn,
        ..OptInterConfig::test_small()
    }
}

/// Runs search, re-train and serving for every `(model, factorization)` of
/// `pinned` on `backend` and asserts each digest.
fn check_digests(backend: Backend, pinned: &[(FactFn, u64, u64); 3]) {
    kernels::set_active(backend);
    let bundle = Profile::Tiny.bundle_with_rows(1_500, 29);
    let dims = DataDims::of(&bundle.data);
    let held_out = BatchIter::new(&bundle.data, 1_000..1_300, 300, None)
        .next()
        .expect("held-out batch");
    let mut got = Vec::new();
    for &(fact_fn, _, _) in pinned {
        // Search stage: one epoch with Gumbel noise on, then the noiseless
        // relaxation on the held-out rows.
        let mut supernet = Supernet::new(config(fact_fn), dims.clone());
        let mut search = Fnv::new();
        for batch in BatchIter::new(&bundle.data, 0..1_000, 128, Some(0)) {
            search.fold(supernet.train_batch(&batch, 1.0));
        }
        for p in supernet.predict(&held_out, 1.0) {
            search.fold(p);
        }

        // Re-train stage on a mixed architecture (every method present),
        // then the frozen f32 scorer on the held-out rows.
        let arch = Architecture::new(
            (0..dims.num_pairs)
                .map(|p| Method::from_index(p % 3))
                .collect(),
        );
        let mut net = OptInterNet::new(config(fact_fn), dims.clone(), arch);
        let mut retrain = Fnv::new();
        for batch in BatchIter::new(&bundle.data, 0..1_000, 128, Some(1)) {
            retrain.fold(net.train_batch(&batch));
        }
        let frozen = freeze(&mut net, &bundle.data, Quant::F32);
        let mut scorer = FrozenScorer::new(&frozen, 1).expect("frozen model loads");
        let mut probs = Vec::new();
        scorer
            .score_into(&held_out, &mut probs)
            .expect("held-out batch scores");
        for p in probs {
            retrain.fold(p);
        }
        got.push((fact_fn, search.0, retrain.0));
    }
    for ((fact_fn, want_search, want_net), (_, search, net)) in pinned.iter().zip(&got) {
        assert_eq!(
            (search, net),
            (want_search, want_net),
            "{} on {}: digests moved; all: {got:#x?}",
            fact_fn.tag(),
            backend.name()
        );
    }
}

#[test]
fn search_retrain_and_serve_bits_match_the_pinned_digests() {
    check_digests(Backend::Scalar, &PINNED);
    if Backend::AvxFma.is_supported() {
        check_digests(Backend::AvxFma, &PINNED_AVX2FMA);
    } else {
        println!("avx2fma digests skipped: this host has no AVX2+FMA");
    }
}
