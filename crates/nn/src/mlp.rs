//! The paper's classifier: a stack of `LN(relu(W a + b))` hidden layers
//! followed by a linear output to a single logit (Eqs. 9–12).

use crate::layers::{Dense, LayerNorm, Relu};
use crate::param::Parameter;
use crate::workspace::Workspace;
use crate::Layer;
use optinter_tensor::Matrix;
use rand::Rng;

/// Configuration for an [`Mlp`].
#[derive(Debug, Clone)]
pub struct MlpConfig {
    /// Input feature dimension.
    pub input_dim: usize,
    /// Hidden layer widths, e.g. `[128, 128, 64]` (paper's `net`).
    pub hidden: Vec<usize>,
    /// Output dimension (1 for a CTR logit).
    pub output_dim: usize,
    /// Whether to apply layer normalisation after each ReLU (paper: `LN=true`).
    pub layer_norm: bool,
    /// LayerNorm epsilon.
    pub ln_eps: f32,
}

impl MlpConfig {
    /// The paper's default classifier shape for a given input size.
    pub fn classifier(input_dim: usize, hidden: Vec<usize>) -> Self {
        Self {
            input_dim,
            hidden,
            output_dim: 1,
            layer_norm: true,
            ln_eps: 1e-5,
        }
    }
}

struct HiddenBlock {
    dense: Dense,
    relu: Relu,
    norm: Option<LayerNorm>,
}

/// Multi-layer perceptron with ReLU activations and optional LayerNorm.
///
/// The allocation-free entry points are [`forward_into`](Self::forward_into)
/// and [`backward_into`](Self::backward_into): the MLP owns its activation
/// chain in [`Workspace`]-recycled buffers and the caller owns the input, so
/// a steady-state forward/backward cycle touches the heap zero times. The
/// [`Layer`] trait impl delegates to the same code (cloning the input so the
/// trait's self-contained `backward` contract still holds).
pub struct Mlp {
    blocks: Vec<HiddenBlock>,
    output: Dense,
    input_dim: usize,
    ws: Workspace,
    /// Output of each hidden block from the last `forward_into`, held until
    /// `backward_into` consumes them as the dense layers' inputs.
    acts: Vec<Matrix>,
    /// Input clone for the [`Layer`] trait path only; `forward_into` never
    /// touches it.
    cached_input: Option<Matrix>,
}

impl Mlp {
    /// Builds an MLP from a config with Xavier-initialised weights.
    pub fn new(rng: &mut impl Rng, config: &MlpConfig) -> Self {
        let mut blocks = Vec::with_capacity(config.hidden.len());
        let mut prev = config.input_dim;
        for &width in &config.hidden {
            blocks.push(HiddenBlock {
                dense: Dense::new(rng, prev, width),
                relu: Relu::new(),
                norm: config
                    .layer_norm
                    .then(|| LayerNorm::new(width, config.ln_eps)),
            });
            prev = width;
        }
        let output = Dense::new(rng, prev, config.output_dim);
        Self {
            blocks,
            output,
            input_dim: config.input_dim,
            ws: Workspace::new(),
            acts: Vec::new(),
            cached_input: None,
        }
    }

    /// Input dimension the MLP expects.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Number of hidden blocks.
    pub fn depth(&self) -> usize {
        self.blocks.len()
    }

    /// Runs every dense layer's matmuls on `pool` from now on. Results stay
    /// bit-identical to serial execution for any thread count (see
    /// [`optinter_tensor::pool`]).
    pub fn set_pool(&mut self, pool: &optinter_tensor::Pool) {
        for block in self.blocks.iter_mut() {
            block.dense.set_pool(pool.clone());
        }
        self.output.set_pool(pool.clone());
    }

    /// Forward pass into `out` (reshaped to `[B, output_dim]`), holding the
    /// activation chain in recycled workspace buffers for the matching
    /// [`backward_into`](Self::backward_into). Allocation-free once the
    /// workspace has warmed up.
    pub fn forward_into(&mut self, x: &Matrix, out: &mut Matrix) {
        // lint: allow(panic-free, reason="input width is pinned at FrozenScorer construction: weights and workspace are sized from the same artifact dims")
        assert_eq!(x.cols(), self.input_dim, "Mlp: input dim mismatch");
        for a in self.acts.drain(..) {
            self.ws.recycle(a);
        }
        for i in 0..self.blocks.len() {
            let mut z = self.ws.take(x.rows(), self.blocks[i].dense.out_dim());
            {
                let input: &Matrix = if i == 0 { x } else { &self.acts[i - 1] };
                self.blocks[i].dense.forward_into(input, &mut z);
            }
            self.blocks[i].relu.forward_inplace(&mut z);
            let z = if let Some(norm) = self.blocks[i].norm.as_mut() {
                let mut y = self.ws.take(z.rows(), z.cols());
                norm.forward_into(&z, &mut y);
                self.ws.recycle(z);
                y
            } else {
                z
            };
            self.acts.push(z);
        }
        let last: &Matrix = if self.blocks.is_empty() {
            x
        } else {
            &self.acts[self.blocks.len() - 1]
        };
        self.output.forward_into(last, out);
    }

    /// Sizes every forward scratch buffer for batches of up to `rows` rows,
    /// so that afterwards [`forward_into`](Self::forward_into) on any batch
    /// of at most `rows` rows, in any order of sizes, allocates nothing.
    ///
    /// One forward at `rows` grows the LayerNorm caches, the kernels'
    /// per-thread packing scratch (on every pool thread a smaller batch
    /// could use) and the workspace to its full buffer count; each of
    /// those buffers is then grown to fit the widest layer, because the
    /// workspace may hand any buffer to any layer. Drops held
    /// activations: call it before a forward, never between a forward and
    /// its backward.
    pub fn reserve_rows(&mut self, rows: usize) {
        let x = Matrix::zeros(rows, self.input_dim);
        let mut out = Matrix::zeros(0, 0);
        self.forward_into(&x, &mut out);
        for a in self.acts.drain(..) {
            self.ws.recycle(a);
        }
        let widest = self.blocks.iter().map(|b| b.dense.out_dim()).max();
        self.ws.reserve_each(rows * widest.unwrap_or(0));
    }

    /// Backward pass from `grad_out` into `dx` (reshaped to `[B,
    /// input_dim]`), accumulating parameter gradients. `x` must be the same
    /// input the matching [`forward_into`](Self::forward_into) saw; the
    /// held activation chain is recycled on the way down.
    pub fn backward_into(&mut self, x: &Matrix, grad_out: &Matrix, dx: &mut Matrix) {
        assert_eq!(
            self.acts.len(),
            self.blocks.len(),
            "Mlp::backward_into called before forward_into"
        );
        if self.blocks.is_empty() {
            self.output.backward_into(x, grad_out, dx);
            return;
        }
        let rows = grad_out.rows();
        let nb = self.blocks.len();
        let mut g = self.ws.take(rows, self.output.in_dim());
        self.output
            .backward_into(&self.acts[nb - 1], grad_out, &mut g);
        for i in (0..nb).rev() {
            if let Some(norm) = self.blocks[i].norm.as_mut() {
                let mut t = self.ws.take(rows, g.cols());
                norm.backward_into(&g, &mut t);
                self.ws.recycle(std::mem::replace(&mut g, t));
            }
            self.blocks[i].relu.backward_inplace(&mut g);
            if i == 0 {
                self.blocks[i].dense.backward_into(x, &g, dx);
            } else {
                let mut t = self.ws.take(rows, self.blocks[i].dense.in_dim());
                self.blocks[i]
                    .dense
                    .backward_into(&self.acts[i - 1], &g, &mut t);
                self.ws.recycle(std::mem::replace(&mut g, t));
            }
        }
        self.ws.recycle(g);
        for a in self.acts.drain(..) {
            self.ws.recycle(a);
        }
    }
}

impl Layer for Mlp {
    fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.forward_into(x, &mut out);
        self.cached_input = Some(x.clone());
        out
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let x = match self.cached_input.take() {
            Some(x) => x,
            None => panic!("Mlp::backward called before forward"),
        };
        let mut dx = Matrix::zeros(0, 0);
        self.backward_into(&x, grad_out, &mut dx);
        self.cached_input = Some(x);
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        for block in self.blocks.iter_mut() {
            block.dense.visit_params(f);
            if let Some(norm) = block.norm.as_mut() {
                norm.visit_params(f);
            }
        }
        self.output.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::bce_with_logits;
    use crate::optim::{Adam, DenseOptimizer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_shape_is_batch_by_out() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut mlp = Mlp::new(&mut rng, &MlpConfig::classifier(6, vec![8, 4]));
        let x = Matrix::zeros(5, 6);
        let y = mlp.forward(&x);
        assert_eq!(y.shape(), (5, 1));
    }

    #[test]
    fn param_count_matches_architecture() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = MlpConfig::classifier(6, vec![8, 4]);
        let mut mlp = Mlp::new(&mut rng, &cfg);
        // dense: 6*8+8, ln: 8+8, dense: 8*4+4, ln: 4+4, out: 4*1+1
        let expected = (6 * 8 + 8) + 16 + (8 * 4 + 4) + 8 + 5;
        assert_eq!(mlp.num_params(), expected);
    }

    #[test]
    fn learns_xor_like_function() {
        // A small MLP must fit a nonlinear function of two inputs; a linear
        // model cannot, so convergence validates the full backward chain.
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = MlpConfig {
            input_dim: 2,
            hidden: vec![16, 16],
            output_dim: 1,
            layer_norm: true,
            ln_eps: 1e-5,
        };
        let mut mlp = Mlp::new(&mut rng, &cfg);
        let x = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let labels = [0.0, 1.0, 1.0, 0.0];
        let mut opt = Adam::with_lr_eps(0.02, 1e-8);
        let mut final_loss = f32::MAX;
        for _ in 0..800 {
            let logits = mlp.forward(&x);
            let (loss, grad) = bce_with_logits(&logits, &labels);
            final_loss = loss;
            mlp.backward(&grad);
            opt.begin_step();
            mlp.visit_params(&mut |p| opt.step(p, 0.0));
        }
        assert!(final_loss < 0.05, "XOR loss did not converge: {final_loss}");
    }

    #[test]
    fn gradcheck_full_mlp_input_gradient() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = MlpConfig {
            input_dim: 3,
            hidden: vec![5],
            output_dim: 1,
            layer_norm: true,
            ln_eps: 1e-3,
        };
        let mut mlp = Mlp::new(&mut rng, &cfg);
        let x = Matrix::from_rows(&[&[0.3, -0.5, 0.9], &[1.1, 0.2, -0.7]]);
        let labels = [1.0, 0.0];
        let logits = mlp.forward(&x);
        let (_, grad) = bce_with_logits(&logits, &labels);
        let dx = mlp.backward(&grad);
        crate::gradcheck::assert_grad_matches(&x, &dx, 5e-3, 3e-2, |xp| {
            let logits = mlp.forward(xp);
            let mut loss = 0.0;
            for (i, &y) in labels.iter().enumerate() {
                loss += optinter_tensor::numerics::stable_bce(logits.get(i, 0), y);
            }
            loss / labels.len() as f32
        });
    }

    #[test]
    fn no_layernorm_variant_works() {
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = MlpConfig {
            input_dim: 4,
            hidden: vec![6],
            output_dim: 1,
            layer_norm: false,
            ln_eps: 1e-5,
        };
        let mut mlp = Mlp::new(&mut rng, &cfg);
        let x = Matrix::filled(2, 4, 0.5);
        let y = mlp.forward(&x);
        assert_eq!(y.shape(), (2, 1));
        let g = Matrix::filled(2, 1, 1.0);
        let dx = mlp.backward(&g);
        assert_eq!(dx.shape(), (2, 4));
    }
}
