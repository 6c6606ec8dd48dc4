//! The feature-interaction layer (paper Fig. 2): how a feature pair
//! becomes MLP input, and how the gradient flows back. Search, re-train
//! and serving all call this module, so the combination block is defined
//! exactly once.
//!
//! - [`Factorization`] is the factorized candidate `f(e^o_i, e^o_j)`
//!   (Eq. 14 and its Table IX variants) with its weights resolved, plus
//!   its backward; [`generalized_weight_grad_row`] is the weight gradient
//!   of the one variant with weights. The supernet computes it for every pair and mixes it
//!   under relaxed weights (Eq. 18), scaling the backward by `p_f`; the
//!   fixed-architecture paths use it with scale `1.0`.
//! - [`PairLayout`] places each pair of a discrete architecture (Eq. 19)
//!   in the MLP input: memorized pairs copy their compact cross row,
//!   factorized pairs write `f(e_i, e_j)`, naïve pairs write nothing.
//!   `OptInterNet` and the frozen serving scorer both build one and call
//!   the same [`PairLayout::assemble_input`], which is what makes f32
//!   serving bitwise-identical to the training forward.
//!
//! Every row function matches on the factorization once per pair and
//! then runs a straight element loop, so no path pays a per-element
//! branch.

use crate::arch::{Architecture, Method};
use crate::config::FactFn;
use crate::net::DataDims;
use optinter_data::Batch;
use optinter_nn::Parameter;
use optinter_tensor::{Matrix, Pool};

/// A factorization function with its weights resolved. Built once per
/// forward or backward call, so the generalized product always carries
/// its weight matrix.
#[derive(Debug, Clone, Copy)]
pub enum Factorization<'a> {
    /// `e_i ⊙ e_j`.
    Hadamard,
    /// `e_i + e_j`.
    PointwiseAdd,
    /// `w_p ⊙ e_i ⊙ e_j`, one weight row per pair.
    Generalized(&'a Matrix),
}

impl<'a> Factorization<'a> {
    /// Resolves `fact_fn` against the model's generalized-product weights.
    /// The generalized product without a weight matrix is the unit-weight
    /// product, which is exactly Hadamard; the other functions have no
    /// weights and ignore `weights`.
    pub fn new(fact_fn: FactFn, weights: Option<&'a Matrix>) -> Self {
        match (fact_fn, weights) {
            (FactFn::Generalized, Some(w)) => Self::Generalized(w),
            (FactFn::PointwiseAdd, _) => Self::PointwiseAdd,
            _ => Self::Hadamard,
        }
    }

    /// [`new`](Self::new) for a model that keeps its generalized-product
    /// weights as a trainable [`Parameter`].
    pub fn of(fact_fn: FactFn, weights: Option<&'a Parameter>) -> Self {
        Self::new(fact_fn, weights.map(|w| &w.value))
    }

    /// Writes `f(e_i, e_j)` for pair `p` into `dst`. All three slices are
    /// one original-embedding wide.
    #[inline]
    pub fn forward_row(self, p: usize, (ei, ej): (&[f32], &[f32]), dst: &mut [f32]) {
        let pairs = ei.iter().zip(ej);
        match self {
            Self::Hadamard => {
                for (d, (&a, &b)) in dst.iter_mut().zip(pairs) {
                    *d = a * b;
                }
            }
            Self::PointwiseAdd => {
                for (d, (&a, &b)) in dst.iter_mut().zip(pairs) {
                    *d = a + b;
                }
            }
            Self::Generalized(w) => {
                for ((d, &w), (&a, &b)) in dst.iter_mut().zip(w.row(p)).zip(pairs) {
                    *d = w * a * b;
                }
            }
        }
    }

    /// Adds `scale · g` back through `f` for pair `p`: `d_i += ∂f/∂e_i ·
    /// scale·g` and `d_j += ∂f/∂e_j · scale·g`, elementwise. `scale` is the
    /// supernet's `p_f`, or `1.0` for a fixed architecture (exact, so that
    /// path adds `g` itself).
    #[inline]
    pub fn backward_row(
        self,
        p: usize,
        scale: f32,
        g: &[f32],
        (ei, ej): (&[f32], &[f32]),
        (di, dj): (&mut [f32], &mut [f32]),
    ) {
        let n = g.len();
        let (ei, ej, di, dj) = (&ei[..n], &ej[..n], &mut di[..n], &mut dj[..n]);
        match self {
            Self::Hadamard => {
                for c in 0..n {
                    let gs = scale * g[c];
                    di[c] += gs * ej[c];
                    dj[c] += gs * ei[c];
                }
            }
            Self::PointwiseAdd => {
                for c in 0..n {
                    let gs = scale * g[c];
                    di[c] += gs;
                    dj[c] += gs;
                }
            }
            Self::Generalized(w) => {
                let w = &w.row(p)[..n];
                for c in 0..n {
                    let gs = scale * g[c];
                    di[c] += gs * w[c] * ej[c];
                    dj[c] += gs * w[c] * ei[c];
                }
            }
        }
    }
}

/// Adds `scale · g ⊙ e_i ⊙ e_j` into `dw`: the gradient of the generalized
/// product `w ⊙ e_i ⊙ e_j` with respect to the pair's weight row, the only
/// factorization with weights of its own.
#[inline]
pub fn generalized_weight_grad_row(
    scale: f32,
    g: &[f32],
    (ei, ej): (&[f32], &[f32]),
    dw: &mut [f32],
) {
    for (d, (&g, (&a, &b))) in dw.iter_mut().zip(g.iter().zip(ei.iter().zip(ej))) {
        *d += scale * g * a * b;
    }
}

/// The embeddings of fields `i` and `j` inside one row of `[e^o_1 | … |
/// e^o_M]`, each `dim` wide.
#[inline]
pub(crate) fn field_pair(row: &[f32], (i, j): (usize, usize), dim: usize) -> (&[f32], &[f32]) {
    (&row[i * dim..(i + 1) * dim], &row[j * dim..(j + 1) * dim])
}

/// Mutable form of [`field_pair`] for a gradient row; needs `i < j`, as
/// every pair index produces.
#[inline]
pub(crate) fn field_pair_mut(
    row: &mut [f32],
    (i, j): (usize, usize),
    dim: usize,
) -> (&mut [f32], &mut [f32]) {
    let (lo, hi) = row.split_at_mut(j * dim);
    (&mut lo[i * dim..(i + 1) * dim], &mut hi[..dim])
}

/// Where one pair of a fixed architecture lands in the MLP input.
#[derive(Debug, Clone, Copy)]
pub struct PairSlot {
    /// The pair's interaction method.
    pub method: Method,
    /// Field indices `(i, j)`, `i < j`.
    pub(crate) fields: (usize, usize),
    /// Column offset in the MLP input (meaningless for naïve pairs).
    pub(crate) input_offset: usize,
    /// For memorized pairs: slot index among memorized pairs.
    pub(crate) mem_slot: usize,
    /// For memorized pairs: row offset in the compact cross table.
    pub(crate) compact_offset: u32,
}

/// The MLP-input layout of a fixed architecture: `[e^o_1 | … | e^o_M]`
/// followed by each non-naïve pair's embedding in pair order. The cross
/// table is *compact*: rows only for memorized pairs, block by block.
#[derive(Debug, Clone)]
pub struct PairLayout {
    slots: Vec<PairSlot>,
    /// Global cross-id offset of each pair (from the dataset encoding).
    pair_offsets: Vec<u32>,
    num_fields: usize,
    orig_dim: usize,
    cross_dim: usize,
    num_memorized: usize,
    input_dim: usize,
    cross_rows: usize,
}

impl PairLayout {
    /// Lays out `architecture` over a dataset's dimensions with original
    /// embeddings `orig_dim` wide and cross embeddings `cross_dim` wide.
    pub fn new(
        architecture: &Architecture,
        dims: &DataDims,
        orig_dim: usize,
        cross_dim: usize,
    ) -> Self {
        let mut slots = Vec::with_capacity(dims.num_pairs);
        let mut input_offset = dims.num_fields * orig_dim;
        let mut compact_offset = 0u32;
        let mut mem_slot = 0usize;
        for (p, fields) in dims.pairs().iter().enumerate() {
            let method = architecture.method(p);
            slots.push(PairSlot {
                method,
                fields,
                input_offset,
                mem_slot,
                compact_offset,
            });
            match method {
                Method::Memorize => {
                    input_offset += cross_dim;
                    compact_offset += dims.pair_vocab_sizes[p];
                    mem_slot += 1;
                }
                Method::Factorize => input_offset += orig_dim,
                Method::Naive => {}
            }
        }
        Self {
            slots,
            pair_offsets: dims.pair_offsets.clone(),
            num_fields: dims.num_fields,
            orig_dim,
            cross_dim,
            num_memorized: mem_slot,
            input_dim: input_offset,
            cross_rows: compact_offset.max(1) as usize,
        }
    }

    /// One slot per pair, in pair order.
    pub fn pair_slots(&self) -> &[PairSlot] {
        &self.slots
    }

    /// Number of memorized pairs.
    pub fn num_memorized(&self) -> usize {
        self.num_memorized
    }

    /// MLP input width.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Rows of the compact cross table (at least 1, so an architecture
    /// without memorized pairs still gets a valid, unused table).
    pub fn cross_rows(&self) -> usize {
        self.cross_rows
    }

    /// Translates a batch's global cross ids into compact-table ids for
    /// the memorized pairs, into `out` (cleared first):
    /// `[B * num_memorized]`. The batch must carry in-range cross ids
    /// whenever the architecture memorizes a pair.
    pub fn gather_mem_ids_into(&self, batch: &Batch, out: &mut Vec<u32>) {
        out.clear();
        if self.num_memorized == 0 {
            return;
        }
        let p_count = self.slots.len();
        out.reserve(batch.len() * self.num_memorized);
        for row in batch.cross.chunks_exact(p_count).take(batch.len()) {
            for ((slot, &id), &offset) in self.slots.iter().zip(row).zip(&self.pair_offsets) {
                if slot.method == Method::Memorize {
                    out.push(slot.compact_offset + (id - offset));
                }
            }
        }
    }

    /// Assembles the MLP input from the original embeddings `eo`
    /// (`[B, M·s1]`) and the gathered compact cross embeddings `em`
    /// (`[B, num_memorized·s2]`), sharded over batch rows. Every element is
    /// written exactly once by the job owning its row, so the result is
    /// bit-identical to serial assembly for any thread count.
    pub fn assemble_input(
        &self,
        pool: &Pool,
        fact: Factorization<'_>,
        eo: &Matrix,
        em: &Matrix,
        input: &mut Matrix,
    ) {
        let (s1, s2) = (self.orig_dim, self.cross_dim);
        let eo_width = self.num_fields * s1;
        input.reset(eo.rows(), self.input_dim);
        pool.for_rows(input.as_mut_slice(), self.input_dim, |r, dst| {
            let eo_row = eo.row(r);
            dst[..eo_width].copy_from_slice(eo_row);
            for (p, slot) in self.slots.iter().enumerate() {
                let at = slot.input_offset;
                match slot.method {
                    Method::Memorize => {
                        let k = slot.mem_slot * s2;
                        dst[at..at + s2].copy_from_slice(&em.row(r)[k..k + s2]);
                    }
                    Method::Factorize => {
                        let e = field_pair(eo_row, slot.fields, s1);
                        fact.forward_row(p, e, &mut dst[at..at + s1]);
                    }
                    Method::Naive => {}
                }
            }
        });
    }

    /// Accumulates the generalized-product weight gradient of a batch
    /// into `dw` (`[num_pairs, s1]`, one row per pair), given the original
    /// embeddings `eo` and the MLP-input gradient `dinput`. Parallel over
    /// pairs: each factorized pair owns its `dw` row and sums it over
    /// ascending batch rows, the serial order, for any thread count.
    pub fn weight_grad(&self, pool: &Pool, eo: &Matrix, dinput: &Matrix, dw: &mut Matrix) {
        let s1 = self.orig_dim;
        pool.for_rows(dw.as_mut_slice(), s1, |p, dw_row| {
            let slot = &self.slots[p];
            if slot.method != Method::Factorize {
                return;
            }
            let at = slot.input_offset;
            for r in 0..dinput.rows() {
                let e = field_pair(eo.row(r), slot.fields, s1);
                generalized_weight_grad_row(1.0, &dinput.row(r)[at..at + s1], e, dw_row);
            }
        });
    }

    /// Backward through [`assemble_input`](Self::assemble_input): splits
    /// the MLP-input gradient `dinput` into `d_eo` (`[B, M·s1]`: the direct
    /// gradient plus every factorized pair's contribution) and `d_em`,
    /// which the caller passes in at `[B, num_memorized·s2]` (a fresh
    /// `Workspace::take`; every element is overwritten). Parallel over
    /// batch rows: each row owns its slices of `d_eo` and `d_em` and
    /// visits pairs in ascending order, the serial accumulation order, so
    /// the gradients are bit-identical for any thread count.
    pub fn backward_input(
        &self,
        pool: &Pool,
        fact: Factorization<'_>,
        eo: &Matrix,
        dinput: &Matrix,
        d_eo: &mut Matrix,
        d_em: &mut Matrix,
    ) {
        let (s1, s2) = (self.orig_dim, self.cross_dim);
        let eo_width = self.num_fields * s1;
        let em_width = self.num_memorized * s2;
        debug_assert_eq!(d_em.shape(), (dinput.rows(), em_width));
        dinput.block_into(0, eo_width, d_eo);
        pool.for_rows2(
            d_eo.as_mut_slice(),
            eo_width,
            d_em.as_mut_slice(),
            em_width,
            |r, deo_row, dem_row| {
                let eo_row = eo.row(r);
                let g_row = dinput.row(r);
                for (p, slot) in self.slots.iter().enumerate() {
                    let at = slot.input_offset;
                    match slot.method {
                        Method::Memorize => {
                            let k = slot.mem_slot * s2;
                            dem_row[k..k + s2].copy_from_slice(&g_row[at..at + s2]);
                        }
                        Method::Factorize => {
                            let e = field_pair(eo_row, slot.fields, s1);
                            let d = field_pair_mut(deo_row, slot.fields, s1);
                            fact.backward_row(p, 1.0, &g_row[at..at + s1], e, d);
                        }
                        Method::Naive => {}
                    }
                }
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optinter_nn::gradcheck::check_grad_entries;
    use std::cell::RefCell;

    const DIM: usize = 5;
    const SCALE: f32 = 0.7;

    fn values(seed: f32) -> Vec<f32> {
        (0..DIM)
            .map(|c| ((c as f32 + seed) * 1.3).sin() * 0.8)
            .collect()
    }

    /// `Σ_c scale · g_c · f(e_i, e_j)_c` for pair 1 and a fixed `g`: its
    /// gradients with respect to `e_i`, `e_j` and weight row 1 are exactly
    /// what `backward_row` and `generalized_weight_grad_row` accumulate.
    fn loss(fact_fn: FactFn, ei: &[f32], ej: &[f32], w: &Matrix, g: &[f32]) -> f32 {
        let mut out = vec![0.0; DIM];
        Factorization::new(fact_fn, Some(w)).forward_row(1, (ei, ej), &mut out);
        let mut total = 0.0;
        for (o, g) in out.iter().zip(g) {
            total += SCALE * g * o;
        }
        total
    }

    /// Central finite differences against the analytic `d e_i`, `d e_j`
    /// and (generalized only) `d w`, with a non-unit scale.
    fn gradcheck(fact_fn: FactFn) {
        // Pair 1 reads weight row 1; row 0 must stay unused.
        let w = Matrix::from_vec(2, DIM, [values(9.0), values(3.0)].concat());
        let (ei, ej, g) = (values(0.0), values(1.5), values(4.2));
        let fact = Factorization::new(fact_fn, Some(&w));
        let (mut di, mut dj, mut dw) = (vec![0.0; DIM], vec![0.0; DIM], vec![0.0; DIM]);
        fact.backward_row(1, SCALE, &g, (&ei, &ej), (&mut di, &mut dj));
        if fact_fn == FactFn::Generalized {
            generalized_weight_grad_row(SCALE, &g, (&ei, &ej), &mut dw);
        }

        // Entry (0, c) perturbs e_i, (1, c) e_j, (2, c) weight row 1.
        let state = RefCell::new((ei, ej, w));
        let entries: Vec<(usize, usize)> =
            (0..3).flat_map(|t| (0..DIM).map(move |c| (t, c))).collect();
        let report = check_grad_entries(
            &entries,
            1e-2,
            |t, c| [&di, &dj, &dw][t][c],
            |t, c| {
                let s = state.borrow();
                [s.0[c], s.1[c], s.2.get(1, c)][t]
            },
            |t, c, v| {
                let mut s = state.borrow_mut();
                match t {
                    0 => s.0[c] = v,
                    1 => s.1[c] = v,
                    _ => s.2.set(1, c, v),
                }
            },
            || {
                let s = state.borrow();
                loss(fact_fn, &s.0, &s.1, &s.2, &g)
            },
        );
        assert!(
            report.max_abs_err < 1e-3,
            "{} interaction gradient check failed: {report:?}",
            fact_fn.tag()
        );
    }

    #[test]
    fn hadamard_backward_matches_finite_differences() {
        gradcheck(FactFn::Hadamard);
    }

    #[test]
    fn pointwise_add_backward_matches_finite_differences() {
        gradcheck(FactFn::PointwiseAdd);
    }

    #[test]
    fn generalized_backward_matches_finite_differences() {
        gradcheck(FactFn::Generalized);
    }

    #[test]
    fn backward_accumulates_into_existing_gradients() {
        let (ei, ej, g) = (values(0.0), values(1.5), values(4.2));
        let (mut di, mut dj) = (vec![0.0; DIM], vec![0.0; DIM]);
        let fact = Factorization::Hadamard;
        fact.backward_row(0, SCALE, &g, (&ei, &ej), (&mut di, &mut dj));
        let once = (di.clone(), dj.clone());
        fact.backward_row(0, SCALE, &g, (&ei, &ej), (&mut di, &mut dj));
        for c in 0..DIM {
            assert_eq!(di[c], once.0[c] + once.0[c]);
            assert_eq!(dj[c], once.1[c] + once.1[c]);
        }
    }

    #[test]
    fn generalized_without_weights_is_hadamard() {
        let (ei, ej) = (values(0.0), values(2.0));
        let (mut h, mut g) = (vec![0.0; DIM], vec![0.0; DIM]);
        Factorization::Hadamard.forward_row(0, (&ei, &ej), &mut h);
        Factorization::new(FactFn::Generalized, None).forward_row(0, (&ei, &ej), &mut g);
        assert_eq!(h, g);
    }

    #[test]
    fn field_pair_mut_splits_the_two_fields() {
        let mut row: Vec<f32> = (0..4 * DIM).map(|x| x as f32).collect();
        let (a, b) = field_pair_mut(&mut row, (1, 3), DIM);
        assert_eq!((a[0], a.len()), (DIM as f32, DIM));
        assert_eq!((b[0], b.len()), ((3 * DIM) as f32, DIM));
    }
}
