//! Optimizers: SGD, Adam (paper Sec. III-A4) and GRDA (the directional
//! pruning optimizer AutoFIS uses for its gate parameters).
//!
//! Adam keeps its first/second-moment state inside each
//! [`Parameter`]'s optimizer slots, so one `Adam` instance
//! can drive any number of parameters while owning only the shared timestep.
//! Weight decay is the classic L2-in-gradient form (`g += wd * w`), matching
//! the paper's `l2_o` / `l2_c` hyper-parameters.

use crate::param::Parameter;

/// A dense-parameter optimizer. `begin_step` is called once per mini-batch,
/// then `step` once per parameter. `step` consumes (and zeroes) the
/// parameter's accumulated gradient.
pub trait DenseOptimizer {
    /// Advances the shared timestep.
    fn begin_step(&mut self);
    /// Applies one update to `p` with the given L2 weight decay.
    fn step(&mut self, p: &mut Parameter, weight_decay: f32);
}

/// Plain stochastic gradient descent.
#[derive(Debug, Clone, Copy)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub fn new(lr: f32) -> Self {
        Self { lr }
    }
}

impl DenseOptimizer for Sgd {
    fn begin_step(&mut self) {}

    fn step(&mut self, p: &mut Parameter, weight_decay: f32) {
        let lr = self.lr;
        if weight_decay > 0.0 {
            let wd = weight_decay;
            for (g, &w) in p
                .grad
                .as_mut_slice()
                .iter_mut()
                .zip(p.value.as_slice().iter())
            {
                *g += wd * w;
            }
        }
        p.value.axpy(-lr, &p.grad);
        p.grad.fill_zero();
    }
}

/// Adam hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Denominator epsilon (the paper tunes this per dataset, Table IV).
    pub eps: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }
}

/// Adam optimizer with per-parameter moment state and a shared timestep.
/// `Copy` so hot-path callers that need a disjoint borrow can copy the
/// optimizer (config + timestep) instead of heap-cloning it.
///
/// The dense step, the embedding row step and the zero-gradient catch-up
/// step all run one element update over equal-length zipped slices, which
/// vectorizes without changing a bit (DESIGN.md §8, "Elementwise loops").
#[derive(Debug, Clone, Copy)]
pub struct Adam {
    /// Hyper-parameters.
    pub config: AdamConfig,
    t: u64,
}

impl Adam {
    /// Creates an Adam optimizer from a config.
    pub fn new(config: AdamConfig) -> Self {
        Self { config, t: 0 }
    }

    /// Creates Adam with the default betas and the given lr / eps.
    pub fn with_lr_eps(lr: f32, eps: f32) -> Self {
        Self::new(AdamConfig {
            lr,
            eps,
            ..AdamConfig::default()
        })
    }

    /// Current timestep (number of `begin_step` calls).
    pub fn timestep(&self) -> u64 {
        self.t
    }

    /// Bias-correction factors `(1 - beta1^t, 1 - beta2^t)` at the current
    /// timestep, shared by dense and sparse updates.
    pub fn bias_corrections(&self) -> (f32, f32) {
        self.bias_corrections_at(self.t)
    }

    /// Bias-correction factors at an arbitrary timestep `t`. The lazy
    /// catch-up path replays skipped steps one at a time and needs the
    /// corrections *those* steps would have used — computed here with the
    /// exact float expression of [`bias_corrections`](Self::bias_corrections)
    /// so a replayed step is bitwise identical to the live step it stands for.
    pub fn bias_corrections_at(&self, t: u64) -> (f32, f32) {
        let t = t.max(1) as i32;
        (
            1.0 - self.config.beta1.powi(t),
            1.0 - self.config.beta2.powi(t),
        )
    }

    /// Applies a lazy Adam update to a single row (used by embedding tables:
    /// only rows touched in the batch are updated). `bc` is the
    /// `(bc1, bc2)` pair of [`bias_corrections`](Self::bias_corrections).
    pub fn step_row(
        &self,
        value: &mut [f32],
        grad: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        weight_decay: f32,
        bc: (f32, f32),
    ) {
        assert_eq!(grad.len(), value.len(), "Adam: gradient length differs");
        self.update(value, grad.iter().copied(), m, v, weight_decay, bc);
    }

    /// One Adam row step with an all-zero gradient — the catch-up step the
    /// lazy embedding optimizer replays for rows skipped while untouched.
    /// It runs the update of [`step_row`](Self::step_row) with every
    /// gradient `0.0`, so replaying `k` zero-grad steps is bitwise identical
    /// to `k` live steps on a row whose batches never touched it.
    pub fn step_row_zero_grad(
        &self,
        value: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
        weight_decay: f32,
        bc: (f32, f32),
    ) {
        self.update(value, std::iter::repeat(0.0), m, v, weight_decay, bc);
    }

    /// The Adam update every entry point shares: one pass over equal-length
    /// value, gradient and moment slices. The weight-decay branch is loop
    /// invariant, so it is taken once here and each loop body is
    /// branch-free and vectorizes.
    fn update(
        &self,
        value: &mut [f32],
        grads: impl Iterator<Item = f32>,
        m: &mut [f32],
        v: &mut [f32],
        weight_decay: f32,
        bc: (f32, f32),
    ) {
        assert!(
            m.len() == value.len() && v.len() == value.len(),
            "Adam: value and moment lengths differ"
        );
        if weight_decay > 0.0 {
            self.update_loop::<true>(value, grads, m, v, weight_decay, bc);
        } else {
            self.update_loop::<false>(value, grads, m, v, weight_decay, bc);
        }
    }

    /// The one Adam element update, `DECAY` adding the L2 term
    /// `weight_decay * w` to the gradient first. Each element runs the
    /// same IEEE operations in the same order whatever the vector width:
    /// rustc never contracts a multiply and an add into an FMA, and vector
    /// `div` and `sqrt` round exactly like the scalar ones.
    #[inline(always)]
    fn update_loop<const DECAY: bool>(
        &self,
        value: &mut [f32],
        grads: impl Iterator<Item = f32>,
        m: &mut [f32],
        v: &mut [f32],
        weight_decay: f32,
        (bc1, bc2): (f32, f32),
    ) {
        let c = self.config;
        for (((w, m), v), mut g) in value.iter_mut().zip(m).zip(v).zip(grads) {
            if DECAY {
                g += weight_decay * *w;
            }
            *m = c.beta1 * *m + (1.0 - c.beta1) * g;
            *v = c.beta2 * *v + (1.0 - c.beta2) * g * g;
            let m_hat = *m / bc1;
            let v_hat = *v / bc2;
            *w -= c.lr * m_hat / (v_hat.sqrt() + c.eps);
        }
    }
}

impl DenseOptimizer for Adam {
    fn begin_step(&mut self) {
        self.t += 1;
    }

    /// Updates `p` and zeroes its gradient in the same pass.
    fn step(&mut self, p: &mut Parameter, weight_decay: f32) {
        p.ensure_slots();
        let bc = self.bias_corrections();
        let (Some(m), Some(v)) = (p.slot_a.as_mut(), p.slot_b.as_mut()) else {
            unreachable!("ensure_slots allocated both moment slots");
        };
        assert_eq!(p.grad.len(), p.value.len(), "Adam: gradient length differs");
        let grads = p.grad.as_mut_slice().iter_mut().map(std::mem::take);
        self.update(
            p.value.as_mut_slice(),
            grads,
            m.as_mut_slice(),
            v.as_mut_slice(),
            weight_decay,
            bc,
        );
    }
}

/// GRDA (generalized regularized dual averaging) hyper-parameters.
///
/// GRDA performs *directional pruning*: parameters whose accumulated
/// gradient path stays small are driven exactly to zero. AutoFIS uses it on
/// the interaction gates so unimportant interactions are removed. The
/// update follows Chao et al. (NeurIPS 2020):
///
/// `v_{t+1} = v_t - lr * g_t`, then
/// `w_{t+1} = sign(v_{t+1}) * max(|v_{t+1}| - g(t), 0)` with
/// `g(t) = c * lr^{1/2} * (t * lr)^{mu}`.
#[derive(Debug, Clone, Copy)]
pub struct GrdaConfig {
    /// Learning rate.
    pub lr: f32,
    /// Soft-threshold scale `c` (Table IV: `c`).
    pub c: f32,
    /// Soft-threshold growth exponent `mu` (Table IV: `mu`).
    pub mu: f32,
}

impl Default for GrdaConfig {
    fn default() -> Self {
        Self {
            lr: 1e-3,
            c: 5e-4,
            mu: 0.8,
        }
    }
}

/// GRDA optimizer. Keeps the dual accumulator in the parameter's slot A.
#[derive(Debug, Clone, Copy)]
pub struct Grda {
    /// Hyper-parameters.
    pub config: GrdaConfig,
    t: u64,
}

impl Grda {
    /// Creates a GRDA optimizer.
    pub fn new(config: GrdaConfig) -> Self {
        Self { config, t: 0 }
    }

    /// Current soft-threshold `g(t)`.
    pub fn threshold(&self) -> f32 {
        let c = self.config;
        c.c * c.lr.sqrt() * (self.t as f32 * c.lr).powf(c.mu)
    }
}

impl DenseOptimizer for Grda {
    fn begin_step(&mut self) {
        self.t += 1;
    }

    fn step(&mut self, p: &mut Parameter, _weight_decay: f32) {
        // The accumulator starts at the initial parameter value so that the
        // first shrinkage is relative to the initialisation.
        if p.slot_a.is_none() {
            // lint: allow(hot-path-alloc, reason="one-time lazy accumulator init on the first step, not steady-state")
            p.slot_a = Some(p.value.clone());
        }
        let lr = self.config.lr;
        let thr = self.threshold();
        let Some(acc) = p.slot_a.as_mut() else {
            unreachable!("accumulator initialised above");
        };
        assert!(
            acc.len() == p.value.len() && p.grad.len() == p.value.len(),
            "Grda: value, gradient and accumulator lengths differ"
        );
        let grads = p.grad.as_mut_slice().iter_mut().map(std::mem::take);
        let value = p.value.as_mut_slice();
        for ((w, a), g) in value.iter_mut().zip(acc.as_mut_slice()).zip(grads) {
            *a -= lr * g;
            *w = a.signum() * (a.abs() - thr).max(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optinter_tensor::Matrix;

    fn quad_grad(p: &Parameter) -> Matrix {
        // f(w) = 0.5 * ||w - 3||^2, grad = w - 3
        p.value.map(|w| w - 3.0)
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut p = Parameter::new(Matrix::filled(1, 4, 0.0));
        let mut opt = Sgd::new(0.3);
        for _ in 0..100 {
            p.grad = quad_grad(&p);
            opt.begin_step();
            opt.step(&mut p, 0.0);
        }
        assert!(p.value.as_slice().iter().all(|&w| (w - 3.0).abs() < 1e-3));
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut p = Parameter::new(Matrix::filled(1, 4, 10.0));
        let mut opt = Adam::with_lr_eps(0.1, 1e-8);
        for _ in 0..600 {
            p.grad = quad_grad(&p);
            opt.begin_step();
            opt.step(&mut p, 0.0);
        }
        assert!(
            p.value.as_slice().iter().all(|&w| (w - 3.0).abs() < 1e-2),
            "{:?}",
            p.value
        );
    }

    #[test]
    fn adam_zeroes_grad_after_step() {
        let mut p = Parameter::new(Matrix::filled(1, 2, 1.0));
        p.grad = Matrix::filled(1, 2, 1.0);
        let mut opt = Adam::with_lr_eps(0.01, 1e-8);
        opt.begin_step();
        opt.step(&mut p, 0.0);
        assert_eq!(p.grad.max_abs(), 0.0);
    }

    #[test]
    fn adam_first_step_magnitude_is_lr() {
        // With bias correction, the first Adam step has magnitude ~lr.
        let mut p = Parameter::new(Matrix::filled(1, 1, 0.0));
        p.grad = Matrix::filled(1, 1, 0.5);
        let mut opt = Adam::with_lr_eps(0.1, 1e-8);
        opt.begin_step();
        opt.step(&mut p, 0.0);
        assert!(
            (p.value.get(0, 0) + 0.1).abs() < 1e-4,
            "{}",
            p.value.get(0, 0)
        );
    }

    #[test]
    fn weight_decay_pulls_towards_zero() {
        let mut with_wd = Parameter::new(Matrix::filled(1, 1, 5.0));
        let mut without = Parameter::new(Matrix::filled(1, 1, 5.0));
        let mut opt = Sgd::new(0.1);
        // Zero task gradient: only decay acts.
        opt.step(&mut with_wd, 0.5);
        opt.step(&mut without, 0.0);
        assert!(with_wd.value.get(0, 0) < without.value.get(0, 0));
    }

    #[test]
    fn grda_prunes_small_unimportant_weights() {
        // One coordinate receives consistent gradient pressure, the other
        // receives none; GRDA should keep the first alive and shrink the
        // second to exactly zero.
        let mut p = Parameter::new(Matrix::from_rows(&[&[0.01, 0.01]]));
        let mut opt = Grda::new(GrdaConfig {
            lr: 0.05,
            c: 0.3,
            mu: 0.6,
        });
        for _ in 0..200 {
            // Gradient pushes coordinate 0 strongly negative (grow w), none on 1.
            p.grad = Matrix::from_rows(&[&[-1.0, 0.0]]);
            opt.begin_step();
            opt.step(&mut p, 0.0);
        }
        assert!(
            p.value.get(0, 0) > 0.5,
            "driven weight {}",
            p.value.get(0, 0)
        );
        assert_eq!(p.value.get(0, 1), 0.0, "idle weight must be pruned to zero");
    }

    #[test]
    fn grda_threshold_grows_with_time() {
        let mut opt = Grda::new(GrdaConfig::default());
        opt.begin_step();
        let t1 = opt.threshold();
        for _ in 0..99 {
            opt.begin_step();
        }
        let t100 = opt.threshold();
        assert!(t100 > t1);
    }

    #[test]
    fn step_row_matches_dense_adam() {
        // A single-row "embedding" updated via step_row must match a dense
        // parameter of the same shape updated via step().
        let mut dense = Parameter::new(Matrix::filled(1, 3, 1.0));
        dense.grad = Matrix::from_rows(&[&[0.1, -0.2, 0.3]]);
        let mut opt = Adam::with_lr_eps(0.01, 1e-8);
        opt.begin_step();

        let mut row_value = [1.0f32; 3];
        let grad = [0.1f32, -0.2, 0.3];
        let mut m = [0.0f32; 3];
        let mut v = [0.0f32; 3];
        let (bc1, bc2) = opt.bias_corrections();
        opt.step_row(&mut row_value, &grad, &mut m, &mut v, 0.0, (bc1, bc2));
        opt.step(&mut dense, 0.0);
        for (rv, dv) in row_value.iter().zip(dense.value.as_slice()) {
            assert!((rv - dv).abs() < 1e-7);
        }
    }

    /// `n` values that cycle through ±0.0, subnormals, ±inf and NaN every
    /// fifth element and are ordinary otherwise; `salt` shifts both.
    fn edge_values(n: usize, salt: usize) -> Vec<f32> {
        const SPECIAL: [f32; 7] = [
            0.0,
            -0.0,
            1e-40,
            -3e-42,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        (0..n)
            .map(|i| {
                if i % 5 == 0 {
                    SPECIAL[(i / 5 + salt) % SPECIAL.len()]
                } else {
                    ((i + 3 * salt) as f32 * 0.731).sin() * 2.0
                }
            })
            .collect()
    }

    /// Equal bit for bit, except that any NaN matches any NaN.
    fn assert_same_bits(what: &str, got: &[f32], want: &[f32]) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let same = g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
            assert!(
                same,
                "{what}[{i}]: got {g:e} ({:#x}), want {w:e}",
                g.to_bits()
            );
        }
    }

    /// The indexed per-element Adam loop the optimizer used before its
    /// update was shared: the bitwise reference for `step` and `step_row`.
    #[allow(clippy::too_many_arguments)]
    fn indexed_adam_row(
        c: AdamConfig,
        value: &mut [f32],
        grad: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        weight_decay: f32,
        bc1: f32,
        bc2: f32,
    ) {
        for i in 0..value.len() {
            let mut g = grad[i];
            if weight_decay > 0.0 {
                g += weight_decay * value[i];
            }
            m[i] = c.beta1 * m[i] + (1.0 - c.beta1) * g;
            v[i] = c.beta2 * v[i] + (1.0 - c.beta2) * g * g;
            let m_hat = m[i] / bc1;
            let v_hat = v[i] / bc2;
            value[i] -= c.lr * m_hat / (v_hat.sqrt() + c.eps);
        }
    }

    /// The indexed zero-gradient catch-up loop, likewise.
    fn indexed_adam_zero_grad_row(
        c: AdamConfig,
        value: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
        weight_decay: f32,
        bc1: f32,
        bc2: f32,
    ) {
        for i in 0..value.len() {
            let mut g = 0.0f32;
            if weight_decay > 0.0 {
                g += weight_decay * value[i];
            }
            m[i] = c.beta1 * m[i] + (1.0 - c.beta1) * g;
            v[i] = c.beta2 * v[i] + (1.0 - c.beta2) * g * g;
            let m_hat = m[i] / bc1;
            let v_hat = v[i] / bc2;
            value[i] -= c.lr * m_hat / (v_hat.sqrt() + c.eps);
        }
    }

    #[test]
    fn adam_step_matches_the_indexed_loop_bitwise() {
        // 37 elements: a vector body plus a scalar tail at any width.
        let n = 37;
        for weight_decay in [0.0, 0.01] {
            let mut p = Parameter::new(Matrix::from_fn(1, n, |_, c| edge_values(n, 1)[c]));
            let mut value = p.value.as_slice().to_vec();
            let (mut m, mut v) = (vec![0.0; n], vec![0.0; n]);
            let mut opt = Adam::with_lr_eps(0.01, 1e-8);
            for step in 0..4 {
                let grad = edge_values(n, step + 2);
                p.grad.as_mut_slice().copy_from_slice(&grad);
                opt.begin_step();
                let (bc1, bc2) = opt.bias_corrections();
                indexed_adam_row(
                    opt.config,
                    &mut value,
                    &grad,
                    &mut m,
                    &mut v,
                    weight_decay,
                    bc1,
                    bc2,
                );
                opt.step(&mut p, weight_decay);
                let what = format!("wd {weight_decay} step {step}");
                assert_same_bits(&what, p.value.as_slice(), &value);
                let slot = |s: &Option<Matrix>| s.as_ref().expect("moments").as_slice().to_vec();
                assert_same_bits(&what, &slot(&p.slot_a), &m);
                assert_same_bits(&what, &slot(&p.slot_b), &v);
                assert!(p.grad.as_slice().iter().all(|g| g.to_bits() == 0));
            }
        }
    }

    #[test]
    fn adam_row_kernels_match_the_indexed_loops_bitwise() {
        let n = 19;
        let opt = Adam::with_lr_eps(0.02, 1e-6);
        for weight_decay in [0.0, 0.5] {
            let mut got = edge_values(n, 4);
            let (mut got_m, mut got_v) = (edge_values(n, 5), vec![0.0; n]);
            let (mut want, mut want_m, mut want_v) = (got.clone(), got_m.clone(), got_v.clone());
            for t in 1..5 {
                let (bc1, bc2) = opt.bias_corrections_at(t);
                if t % 2 == 0 {
                    opt.step_row_zero_grad(
                        &mut got,
                        &mut got_m,
                        &mut got_v,
                        weight_decay,
                        (bc1, bc2),
                    );
                    indexed_adam_zero_grad_row(
                        opt.config,
                        &mut want,
                        &mut want_m,
                        &mut want_v,
                        weight_decay,
                        bc1,
                        bc2,
                    );
                } else {
                    let grad = edge_values(n, t as usize);
                    opt.step_row(
                        &mut got,
                        &grad,
                        &mut got_m,
                        &mut got_v,
                        weight_decay,
                        (bc1, bc2),
                    );
                    indexed_adam_row(
                        opt.config,
                        &mut want,
                        &grad,
                        &mut want_m,
                        &mut want_v,
                        weight_decay,
                        bc1,
                        bc2,
                    );
                }
                let what = format!("wd {weight_decay} t {t}");
                assert_same_bits(&what, &got, &want);
                assert_same_bits(&what, &got_m, &want_m);
                assert_same_bits(&what, &got_v, &want_v);
            }
        }
    }

    #[test]
    fn grda_step_matches_the_indexed_loop_bitwise() {
        let n = 23;
        let mut p = Parameter::new(Matrix::from_fn(1, n, |_, c| edge_values(n, 3)[c]));
        let mut opt = Grda::new(GrdaConfig {
            lr: 0.05,
            c: 0.3,
            mu: 0.6,
        });
        let mut value = p.value.as_slice().to_vec();
        let mut acc = value.clone();
        for step in 0..4 {
            let grad = edge_values(n, step + 6);
            p.grad.as_mut_slice().copy_from_slice(&grad);
            opt.begin_step();
            let (lr, thr) = (opt.config.lr, opt.threshold());
            for i in 0..n {
                acc[i] -= lr * grad[i];
                let v = acc[i];
                value[i] = v.signum() * (v.abs() - thr).max(0.0);
            }
            opt.step(&mut p, 0.0);
            let what = format!("step {step}");
            assert_same_bits(&what, p.value.as_slice(), &value);
            assert_same_bits(
                &what,
                p.slot_a.as_ref().expect("accumulator").as_slice(),
                &acc,
            );
            assert!(p.grad.as_slice().iter().all(|g| g.to_bits() == 0));
        }
    }
}
