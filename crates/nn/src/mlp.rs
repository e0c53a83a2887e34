//! Multilayer perceptron with back-propagation and QAT hooks.

use std::sync::OnceLock;

use fixar_fixed::Scalar;
use fixar_pool::Parallelism;
use fixar_tensor::{vector, Matrix, WeightPack};

use crate::activation::Activation;
use crate::error::NnError;
use crate::init::{seeded_rng, WeightInit};
use crate::qat::QatRuntime;

/// Configuration of a fully-connected network.
///
/// `layer_sizes` includes the input dimension, e.g. the paper's actor for
/// HalfCheetah is `vec![17, 400, 300, 6]`.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpConfig {
    /// Layer widths, input first. Must have at least two entries.
    pub layer_sizes: Vec<usize>,
    /// Activation after every hidden layer (paper: ReLU).
    pub hidden_activation: Activation,
    /// Activation after the output layer (actor: tanh, critic: identity).
    pub output_activation: Activation,
    /// Initialization for hidden layers.
    pub hidden_init: WeightInit,
    /// Initialization for the output layer (DDPG: small uniform).
    pub output_init: WeightInit,
}

impl MlpConfig {
    /// Creates a configuration with the paper's defaults: ReLU hidden
    /// layers, identity output, Xavier hidden init, ±3e-3 output init.
    pub fn new(layer_sizes: Vec<usize>) -> Self {
        Self {
            layer_sizes,
            hidden_activation: Activation::Relu,
            output_activation: Activation::Identity,
            hidden_init: WeightInit::XavierUniform,
            output_init: WeightInit::Uniform(3e-3),
        }
    }

    /// Sets the output activation (builder style).
    pub fn with_output_activation(mut self, act: Activation) -> Self {
        self.output_activation = act;
        self
    }

    /// Sets the hidden activation (builder style).
    pub fn with_hidden_activation(mut self, act: Activation) -> Self {
        self.hidden_activation = act;
        self
    }

    /// Number of weight layers (`layer_sizes.len() - 1`).
    pub fn num_layers(&self) -> usize {
        self.layer_sizes.len().saturating_sub(1)
    }

    fn validate(&self) -> Result<(), NnError> {
        if self.layer_sizes.len() < 2 {
            return Err(NnError::InvalidConfig(
                "layer_sizes needs at least an input and an output width".into(),
            ));
        }
        if self.layer_sizes.contains(&0) {
            return Err(NnError::InvalidConfig("zero-width layer".into()));
        }
        Ok(())
    }
}

/// Per-layer gradients of an [`Mlp`], accumulated across a batch.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpGrads<S> {
    /// Weight gradients, one matrix per layer.
    pub w: Vec<Matrix<S>>,
    /// Bias gradients, one vector per layer.
    pub b: Vec<Vec<S>>,
}

impl<S: Scalar> MlpGrads<S> {
    /// Zero gradients shaped like `mlp`.
    pub fn zeros_like(mlp: &Mlp<S>) -> Self {
        Self {
            w: mlp
                .weights
                .iter()
                .map(|w| Matrix::zeros(w.rows(), w.cols()))
                .collect(),
            b: mlp
                .biases
                .iter()
                .map(|b| vec![S::zero(); b.len()])
                .collect(),
        }
    }

    /// Resets all gradients to zero.
    pub fn reset(&mut self) {
        for w in &mut self.w {
            w.fill_zero();
        }
        for b in &mut self.b {
            for v in b {
                *v = S::zero();
            }
        }
    }

    /// Scales all gradients by a constant (e.g. `1/batch`).
    pub fn scale(&mut self, factor: S) {
        for w in &mut self.w {
            w.map_inplace(|v| v * factor);
        }
        for b in &mut self.b {
            vector::scale(factor, b);
        }
    }

    /// Accumulates another gradient buffer into this one — the reduction
    /// of per-core partial gradients into the shared gradient memory.
    ///
    /// # Panics
    ///
    /// Panics if the buffers were shaped from different networks.
    pub fn accumulate(&mut self, other: &MlpGrads<S>) {
        assert_eq!(self.w.len(), other.w.len(), "gradient layer count mismatch");
        for (mine, theirs) in self.w.iter_mut().zip(&other.w) {
            let dst = mine.as_mut_slice();
            for (d, &s) in dst.iter_mut().zip(theirs.as_slice()) {
                *d += s;
            }
        }
        for (mine, theirs) in self.b.iter_mut().zip(&other.b) {
            for (d, &s) in mine.iter_mut().zip(theirs) {
                *d += s;
            }
        }
    }
}

/// Activations captured during a forward pass, needed by back-propagation.
///
/// When the pass ran with quantization enabled, `inputs` holds the
/// *quantized* activations — so the weight-gradient outer products consume
/// exactly what Algorithm 1 prescribes (`Update θ with Qn(A)`).
#[derive(Debug, Clone)]
pub struct ForwardTrace<S> {
    /// Input to each layer: `inputs[0]` is the network input, `inputs[l]`
    /// the (possibly quantized) output of layer `l-1`.
    pub inputs: Vec<Vec<S>>,
    /// Pre-activation `z = W·a + b` of each layer.
    pub pre: Vec<Vec<S>>,
    /// Final network output (after output activation and, under QAT,
    /// quantization).
    pub output: Vec<S>,
}

/// Activations captured during a **batched** forward pass: the same data
/// as [`ForwardTrace`], with one minibatch sample per matrix row.
///
/// Row `b` of every matrix is bit-identical to the vectors a per-sample
/// [`ForwardTrace`] of sample `b` would hold (see the accumulation-order
/// contract in the `fixar-tensor` crate docs).
#[derive(Debug, Clone)]
pub struct BatchTrace<S> {
    /// Input to each layer: `inputs[0]` is the `(batch, in_dim)` network
    /// input, `inputs[l]` the (possibly quantized) output of layer `l-1`.
    pub inputs: Vec<Matrix<S>>,
    /// Pre-activation `Z = A·Wᵀ + b` of each layer, `(batch, fan_out)`.
    pub pre: Vec<Matrix<S>>,
    /// Final network output, `(batch, out_dim)`.
    pub output: Matrix<S>,
}

impl<S: Scalar> BatchTrace<S> {
    /// Number of samples in the traced minibatch.
    pub fn batch_size(&self) -> usize {
        self.output.rows()
    }
}

/// Fully-connected network, generic over the numeric backend.
///
/// See the [crate docs](crate) for an example.
#[derive(Debug)]
pub struct Mlp<S> {
    weights: Vec<Matrix<S>>,
    biases: Vec<Vec<S>>,
    hidden_act: Activation,
    output_act: Activation,
    layer_sizes: Vec<usize>,
    /// Lazily built packed (pre-transposed) weight layouts, one per
    /// layer — the cache behind every batched forward/backward MVM.
    /// Invalidated ([`OnceLock::take`]) by [`Mlp::weight_mut`] and
    /// [`Mlp::soft_update_from`]; bias updates don't touch it. Pure
    /// cache: never part of equality, never cloned.
    packs: Vec<OnceLock<WeightPack<S>>>,
}

impl<S: Clone> Clone for Mlp<S> {
    fn clone(&self) -> Self {
        Self {
            weights: self.weights.clone(),
            biases: self.biases.clone(),
            hidden_act: self.hidden_act,
            output_act: self.output_act,
            layer_sizes: self.layer_sizes.clone(),
            // A fresh clone starts with a cold cache rather than deep-
            // copying transposes it may never use (target-network clones
            // are mutated immediately anyway).
            packs: fresh_packs(self.weights.len()),
        }
    }
}

impl<S: PartialEq> PartialEq for Mlp<S> {
    fn eq(&self, other: &Self) -> bool {
        self.weights == other.weights
            && self.biases == other.biases
            && self.hidden_act == other.hidden_act
            && self.output_act == other.output_act
            && self.layer_sizes == other.layer_sizes
    }
}

fn fresh_packs<S>(n: usize) -> Vec<OnceLock<WeightPack<S>>> {
    (0..n).map(|_| OnceLock::new()).collect()
}

impl<S: Scalar> Mlp<S> {
    /// Creates a network with freshly initialized weights.
    ///
    /// Weights are drawn in `f64` from a deterministic RNG seeded with
    /// `seed`, then converted to `S`; the same seed yields the same
    /// underlying model at every precision.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for malformed configurations.
    pub fn new_random(cfg: &MlpConfig, seed: u64) -> Result<Self, NnError> {
        cfg.validate()?;
        let mut rng = seeded_rng(seed);
        let n = cfg.num_layers();
        let mut weights = Vec::with_capacity(n);
        let mut biases = Vec::with_capacity(n);
        for l in 0..n {
            let (fan_in, fan_out) = (cfg.layer_sizes[l], cfg.layer_sizes[l + 1]);
            let init = if l + 1 == n {
                cfg.output_init
            } else {
                cfg.hidden_init
            };
            let wf = init.sample(fan_in, fan_out, fan_in * fan_out, &mut rng);
            let bf = init.sample(fan_in, fan_out, fan_out, &mut rng);
            let data = wf.into_iter().map(S::from_f64).collect();
            weights
                .push(Matrix::from_vec(fan_out, fan_in, data).expect("init produced sized buffer"));
            biases.push(bf.into_iter().map(S::from_f64).collect());
        }
        Ok(Self {
            packs: fresh_packs(weights.len()),
            weights,
            biases,
            hidden_act: cfg.hidden_activation,
            output_act: cfg.output_activation,
            layer_sizes: cfg.layer_sizes.clone(),
        })
    }

    /// Number of weight layers.
    #[inline]
    pub fn num_layers(&self) -> usize {
        self.weights.len()
    }

    /// Layer widths, input first.
    #[inline]
    pub fn layer_sizes(&self) -> &[usize] {
        &self.layer_sizes
    }

    /// Input dimension.
    #[inline]
    pub fn input_dim(&self) -> usize {
        self.layer_sizes[0]
    }

    /// Output dimension.
    #[inline]
    pub fn output_dim(&self) -> usize {
        *self.layer_sizes.last().expect("validated non-empty")
    }

    /// Hidden activation function.
    #[inline]
    pub fn hidden_activation(&self) -> Activation {
        self.hidden_act
    }

    /// Output activation function.
    #[inline]
    pub fn output_activation(&self) -> Activation {
        self.output_act
    }

    /// Weight matrix of layer `l` (rows = fan-out, cols = fan-in).
    ///
    /// # Panics
    ///
    /// Panics if `l >= num_layers()`.
    #[inline]
    pub fn weight(&self, l: usize) -> &Matrix<S> {
        &self.weights[l]
    }

    /// Mutable weight matrix of layer `l` (used by optimizers and the
    /// accelerator write-back path). Invalidates the layer's cached
    /// packed layout — the next batched pass re-packs from the updated
    /// weights.
    ///
    /// # Panics
    ///
    /// Panics if `l >= num_layers()`.
    #[inline]
    pub fn weight_mut(&mut self, l: usize) -> &mut Matrix<S> {
        self.packs[l].take();
        &mut self.weights[l]
    }

    /// The cached packed layout of layer `l`, building it on first use
    /// after construction or invalidation.
    #[inline]
    fn pack(&self, l: usize) -> &WeightPack<S> {
        self.packs[l].get_or_init(|| self.weights[l].pack())
    }

    /// Bias vector of layer `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l >= num_layers()`.
    #[inline]
    pub fn bias(&self, l: usize) -> &[S] {
        &self.biases[l]
    }

    /// Mutable bias vector of layer `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l >= num_layers()`.
    #[inline]
    pub fn bias_mut(&mut self, l: usize) -> &mut [S] {
        &mut self.biases[l]
    }

    /// Total number of parameters (weights + biases).
    pub fn param_count(&self) -> usize {
        self.weights.iter().map(Matrix::len).sum::<usize>()
            + self.biases.iter().map(Vec::len).sum::<usize>()
    }

    /// Model size in bytes at this backend's precision (what the paper
    /// reports as "network size"; 32-bit weights for `Fx32`).
    pub fn model_bytes(&self) -> usize {
        self.param_count() * (S::BITS as usize / 8)
    }

    /// Plain inference without gradient bookkeeping.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Shape`] if `x.len() != input_dim()`.
    pub fn forward(&self, x: &[S]) -> Result<Vec<S>, NnError> {
        let mut qat = QatRuntime::disabled(self.num_layers() + 1);
        Ok(self.forward_qat(x, &mut qat)?.output)
    }

    /// Forward pass capturing the trace needed by [`Mlp::backward`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Shape`] if `x.len() != input_dim()`.
    pub fn forward_trace(&self, x: &[S]) -> Result<ForwardTrace<S>, NnError> {
        let mut qat = QatRuntime::disabled(self.num_layers() + 1);
        self.forward_qat(x, &mut qat)
    }

    /// Forward pass through the QAT runtime: in `Calibrate` mode every
    /// activation point feeds its [`fixar_fixed::RangeMonitor`]; in
    /// `Quantize` mode activations are projected onto the n-bit grid
    /// before being stored and propagated.
    ///
    /// Quantization point `0` is the network input; point `l+1` is the
    /// post-activation output of layer `l`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Shape`] on input-size mismatch and
    /// [`NnError::InvalidConfig`] if `qat` was built for a different
    /// number of points.
    pub fn forward_qat(&self, x: &[S], qat: &mut QatRuntime) -> Result<ForwardTrace<S>, NnError> {
        self.forward_with(x, qat.num_points(), |point, xs| qat.process(point, xs))
    }

    /// Forward pass against an immutable QAT runtime: frozen quantizers
    /// apply but no ranges are recorded. This is the thread-parallel
    /// training path — workers share `&self` and `&QatRuntime`,
    /// calibrating (if needed) into per-worker clones merged afterwards
    /// with [`QatRuntime::merge_from`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Mlp::forward_qat`].
    pub fn forward_qat_frozen(
        &self,
        x: &[S],
        qat: &QatRuntime,
    ) -> Result<ForwardTrace<S>, NnError> {
        self.forward_with(x, qat.num_points(), |point, xs| qat.apply(point, xs))
    }

    fn forward_with(
        &self,
        x: &[S],
        qat_points: usize,
        mut process: impl FnMut(usize, &mut [S]),
    ) -> Result<ForwardTrace<S>, NnError> {
        if x.len() != self.input_dim() {
            return Err(NnError::Shape(fixar_tensor::ShapeError::new(
                "mlp input",
                (self.input_dim(), 1),
                (x.len(), 1),
            )));
        }
        if qat_points != self.num_layers() + 1 {
            return Err(NnError::InvalidConfig(format!(
                "qat runtime has {} points, network needs {}",
                qat_points,
                self.num_layers() + 1
            )));
        }
        let n = self.num_layers();
        let mut inputs = Vec::with_capacity(n);
        let mut pre = Vec::with_capacity(n);

        let mut a = x.to_vec();
        process(0, &mut a);
        for l in 0..n {
            let mut z = self.weights[l].gemv_alloc(&a)?;
            for (zi, &bi) in z.iter_mut().zip(&self.biases[l]) {
                *zi += bi;
            }
            let act = if l + 1 == n {
                self.output_act
            } else {
                self.hidden_act
            };
            let mut y = z.clone();
            act.apply_slice(&mut y);
            process(l + 1, &mut y);
            inputs.push(a);
            pre.push(z);
            a = y;
        }
        Ok(ForwardTrace {
            inputs,
            pre,
            output: a,
        })
    }

    /// Batched inference: one minibatch sample per row of `x`, no
    /// gradient bookkeeping. Row `b` of the result is bit-identical to
    /// `forward(x.row(b))`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Shape`] if `x.cols() != input_dim()`.
    pub fn forward_batch(&self, x: &Matrix<S>) -> Result<Matrix<S>, NnError> {
        let mut qat = QatRuntime::disabled(self.num_layers() + 1);
        Ok(self.forward_batch_qat(x, &mut qat)?.output)
    }

    /// Pool-parallel [`Mlp::forward_batch`]: every layer's batched MVM
    /// shards across the workers of `par` (see
    /// [`Matrix::gemv_batch_par`]); bit-identical to the sequential
    /// batched pass — and hence to the per-sample pass — at every
    /// worker count.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Shape`] if `x.cols() != input_dim()`.
    pub fn forward_batch_par(
        &self,
        x: &Matrix<S>,
        par: &Parallelism,
    ) -> Result<Matrix<S>, NnError> {
        let mut qat = QatRuntime::disabled(self.num_layers() + 1);
        Ok(self.forward_batch_qat_par(x, &mut qat, par)?.output)
    }

    /// Batched forward pass capturing the trace needed by
    /// [`Mlp::backward_batch`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Shape`] if `x.cols() != input_dim()`.
    pub fn forward_batch_trace(&self, x: &Matrix<S>) -> Result<BatchTrace<S>, NnError> {
        let mut qat = QatRuntime::disabled(self.num_layers() + 1);
        self.forward_batch_qat(x, &mut qat)
    }

    /// Pool-parallel [`Mlp::forward_batch_trace`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Shape`] if `x.cols() != input_dim()`.
    pub fn forward_batch_trace_par(
        &self,
        x: &Matrix<S>,
        par: &Parallelism,
    ) -> Result<BatchTrace<S>, NnError> {
        let mut qat = QatRuntime::disabled(self.num_layers() + 1);
        self.forward_batch_qat_par(x, &mut qat, par)
    }

    /// Batched forward pass through the QAT runtime: every quantization
    /// point observes (or quantizes) the **whole activation matrix** of
    /// the minibatch in one call, instead of one sample vector at a time.
    /// Range monitors see exactly the same values as `batch` per-sample
    /// passes (min/max/count are order-independent), and frozen
    /// quantizers apply elementwise, so the batched pass stays
    /// bit-exact with the per-sample path under every QAT mode.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Shape`] on input-width mismatch and
    /// [`NnError::InvalidConfig`] if `qat` was built for a different
    /// number of points.
    pub fn forward_batch_qat(
        &self,
        x: &Matrix<S>,
        qat: &mut QatRuntime,
    ) -> Result<BatchTrace<S>, NnError> {
        self.forward_batch_with(
            x,
            qat.num_points(),
            &Parallelism::sequential(),
            |point, xs| qat.process(point, xs),
        )
    }

    /// Pool-parallel [`Mlp::forward_batch_qat`]: the batched MVMs shard
    /// across the pool; QAT observation/quantization still processes the
    /// whole activation matrix on the calling thread (monitors are
    /// order-independent, frozen quantizers elementwise), so the trace
    /// is bit-identical to the sequential batched pass under every QAT
    /// mode.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Mlp::forward_batch_qat`].
    pub fn forward_batch_qat_par(
        &self,
        x: &Matrix<S>,
        qat: &mut QatRuntime,
        par: &Parallelism,
    ) -> Result<BatchTrace<S>, NnError> {
        self.forward_batch_with(x, qat.num_points(), par, |point, xs| qat.process(point, xs))
    }

    /// Batched forward pass against an immutable QAT runtime (frozen
    /// quantizers apply, nothing is recorded) — the batched analogue of
    /// [`Mlp::forward_qat_frozen`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Mlp::forward_batch_qat`].
    pub fn forward_batch_qat_frozen(
        &self,
        x: &Matrix<S>,
        qat: &QatRuntime,
    ) -> Result<BatchTrace<S>, NnError> {
        self.forward_batch_with(
            x,
            qat.num_points(),
            &Parallelism::sequential(),
            |point, xs| qat.apply(point, xs),
        )
    }

    /// Pool-parallel [`Mlp::forward_batch_qat_frozen`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Mlp::forward_batch_qat`].
    pub fn forward_batch_qat_frozen_par(
        &self,
        x: &Matrix<S>,
        qat: &QatRuntime,
        par: &Parallelism,
    ) -> Result<BatchTrace<S>, NnError> {
        self.forward_batch_with(x, qat.num_points(), par, |point, xs| qat.apply(point, xs))
    }

    fn forward_batch_with(
        &self,
        x: &Matrix<S>,
        qat_points: usize,
        par: &Parallelism,
        mut process: impl FnMut(usize, &mut [S]),
    ) -> Result<BatchTrace<S>, NnError> {
        if qat_points != self.num_layers() + 1 {
            return Err(NnError::InvalidConfig(format!(
                "qat runtime has {} points, network needs {}",
                qat_points,
                self.num_layers() + 1
            )));
        }
        // One pass through the shared fused driver: the single-network
        // forward is the one-element case of the fused multi-network
        // forward, so the two cannot drift apart.
        let mut p: &mut dyn FnMut(usize, &mut [S]) = &mut process;
        let mut traces =
            forward_batch_fused_driver(&[self], &[x], std::slice::from_mut(&mut p), par)?;
        Ok(traces.pop().expect("one pass in, one trace out"))
    }

    /// Back-propagates a minibatch of output gradients (`dl_dout`, one
    /// sample per row) through the batched trace, accumulating parameter
    /// gradients into `grads` and returning the `(batch, input_dim)`
    /// matrix of input gradients.
    ///
    /// Gradient accumulation across the batch runs in **ascending sample
    /// order** (the documented reduction order of the gradient memory),
    /// so the accumulated `grads` are bit-identical to calling
    /// [`Mlp::backward`] on each sample's trace in row order.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Shape`] if `dl_dout` is not
    /// `(batch, output_dim())` or `grads` was shaped for another network.
    pub fn backward_batch(
        &self,
        trace: &BatchTrace<S>,
        dl_dout: &Matrix<S>,
        grads: &mut MlpGrads<S>,
    ) -> Result<Matrix<S>, NnError> {
        self.backward_batch_with(trace, dl_dout, grads, &Parallelism::sequential())
    }

    /// Pool-parallel [`Mlp::backward_batch`]: per layer, the transposed
    /// error MVM shards across batch rows and the weight-gradient
    /// accumulation shards across weight rows (see
    /// [`Matrix::gemv_t_batch_par`] / [`Matrix::add_outer_batch_par`]),
    /// so the accumulated gradients stay bit-identical to the
    /// sequential batched backward — and to the per-sample backward in
    /// ascending sample order — at every worker count.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Mlp::backward_batch`].
    pub fn backward_batch_par(
        &self,
        trace: &BatchTrace<S>,
        dl_dout: &Matrix<S>,
        grads: &mut MlpGrads<S>,
        par: &Parallelism,
    ) -> Result<Matrix<S>, NnError> {
        self.backward_batch_with(trace, dl_dout, grads, par)
    }

    fn backward_batch_with(
        &self,
        trace: &BatchTrace<S>,
        dl_dout: &Matrix<S>,
        grads: &mut MlpGrads<S>,
        par: &Parallelism,
    ) -> Result<Matrix<S>, NnError> {
        // One pass through the shared fused driver (see
        // [`backward_batch_fused`]): even a single network benefits —
        // each layer's gradient outer product and error MVM now share
        // one fused scope (one join) instead of opening two.
        let mut passes = [FusedBackward {
            mlp: self,
            trace,
            dl_dout,
            grads: Some(grads),
        }];
        let mut outs = backward_batch_fused(&mut passes, par)?;
        Ok(outs.pop().expect("one pass in, one input gradient out"))
    }

    /// Back-propagates `dl_dout` (∂loss/∂output) through the trace,
    /// accumulating parameter gradients into `grads` and returning
    /// ∂loss/∂input (the path by which the critic "leads the BP and WU of
    /// the actor network").
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Shape`] if `dl_dout.len() != output_dim()` or
    /// `grads` was not shaped by [`MlpGrads::zeros_like`] on this network.
    pub fn backward(
        &self,
        trace: &ForwardTrace<S>,
        dl_dout: &[S],
        grads: &mut MlpGrads<S>,
    ) -> Result<Vec<S>, NnError> {
        let n = self.num_layers();
        if dl_dout.len() != self.output_dim() {
            return Err(NnError::Shape(fixar_tensor::ShapeError::new(
                "mlp backward",
                (self.output_dim(), 1),
                (dl_dout.len(), 1),
            )));
        }
        if grads.w.len() != n {
            return Err(NnError::InvalidConfig(
                "gradient buffer has wrong layer count".into(),
            ));
        }
        // Output-layer delta: dL/dz = dL/dy ⊙ f'(z).
        let mut delta: Vec<S> = dl_dout
            .iter()
            .zip(trace.pre[n - 1].iter().zip(&trace.output))
            .map(|(&g, (&z, &y))| g * self.output_act.derivative(z, y))
            .collect();

        let mut input_err = Vec::new();
        for l in (0..n).rev() {
            grads.w[l].add_outer(&delta, &trace.inputs[l])?;
            for (gb, &d) in grads.b[l].iter_mut().zip(&delta) {
                *gb += d;
            }
            let err = self.weights[l].gemv_t_alloc(&delta)?;
            if l > 0 {
                delta = err
                    .iter()
                    .zip(trace.pre[l - 1].iter().zip(&trace.inputs[l]))
                    .map(|(&e, (&z, &y))| e * self.hidden_act.derivative(z, y))
                    .collect();
            } else {
                input_err = err;
            }
        }
        Ok(input_err)
    }

    /// Polyak/soft update `θ ← τ·θ_src + (1−τ)·θ` used for DDPG target
    /// networks, computed in the backend arithmetic.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the architectures differ.
    pub fn soft_update_from(&mut self, src: &Mlp<S>, tau: f64) -> Result<(), NnError> {
        if self.layer_sizes != src.layer_sizes {
            return Err(NnError::InvalidConfig(
                "soft update requires identical architectures".into(),
            ));
        }
        let t = S::from_f64(tau);
        for p in &mut self.packs {
            p.take();
        }
        for (w, ws) in self.weights.iter_mut().zip(&src.weights) {
            let dst = w.as_mut_slice();
            for (d, &s) in dst.iter_mut().zip(ws.as_slice()) {
                *d = *d + t * (s - *d);
            }
        }
        for (b, bs) in self.biases.iter_mut().zip(&src.biases) {
            for (d, &s) in b.iter_mut().zip(bs) {
                *d = *d + t * (s - *d);
            }
        }
        Ok(())
    }

    /// Converts the model to another backend through `f64` (used when the
    /// dynamic-fixed mode hands a pre-trained full-precision model to the
    /// quantized phase, and to build bit-identical accelerator images).
    pub fn cast<T: Scalar>(&self) -> Mlp<T> {
        Mlp {
            packs: fresh_packs(self.weights.len()),
            weights: self.weights.iter().map(Matrix::cast).collect(),
            biases: self
                .biases
                .iter()
                .map(|b| b.iter().map(|v| T::from_f64(v.to_f64())).collect())
                .collect(),
            hidden_act: self.hidden_act,
            output_act: self.output_act,
            layer_sizes: self.layer_sizes.clone(),
        }
    }
}

// --- fused multi-network passes --------------------------------------------
//
// Independent networks fed independent inputs (TD3's twin critics, a
// target actor alongside an online critic) used to run one batched pass
// after another, each layer opening its own pool scope. The fused
// drivers below run such passes **layer-locked**: per layer step, every
// still-active pass submits its kernels into ONE fused scope
// (`Parallelism::fused`) and they all share a single barrier join —
// cutting the joins per phase from `passes × layers` to `layers` while
// keeping every worker busy on the union of the kernels. Host-side work
// (bias broadcast, activation, QAT observation, bias gradients) stays
// on the calling thread in ascending pass order. Per-element reduction
// chains are untouched and distinct passes write disjoint outputs, so
// fused results are **bit-identical** to running the passes back to
// back — sequentially or pool-parallel — at every worker count.

/// A per-pass activation hook `(point, values)` — QAT observation,
/// quantization, or a no-op — applied on the calling thread between
/// fused layer steps.
type ProcessHook<'a, S> = &'a mut dyn FnMut(usize, &mut [S]);

/// One independent batched QAT forward pass in a fused group: the
/// network, its `(batch, input_dim)` input, and the QAT runtime
/// observing (or quantizing) its activations. See
/// [`forward_batch_qat_fused`].
pub struct FusedForward<'a, S: Scalar> {
    /// Network to run.
    pub mlp: &'a Mlp<S>,
    /// `(batch, input_dim)` input matrix.
    pub input: &'a Matrix<S>,
    /// QAT runtime for this pass (disabled runtimes are fine).
    pub qat: &'a mut QatRuntime,
}

/// Runs several **independent** batched QAT forward passes layer-locked
/// through fused scopes: one join per layer step for the whole group.
/// Element `i` of the result is bit-identical to
/// `passes[i].mlp.forward_batch_qat_par(passes[i].input, passes[i].qat, par)`
/// run on its own — in every backend, at every worker count (QAT range
/// monitors are order-independent, so observing two passes interleaved
/// leaves each runtime exactly as running them apart would).
///
/// Passes may have different depths; a shallower pass simply stops
/// contributing kernels once its layers are exhausted.
///
/// # Errors
///
/// Returns [`NnError::Shape`] on input-width mismatch,
/// [`NnError::InvalidConfig`] if a QAT runtime was built for a
/// different point count, and [`NnError::Pool`] if a fused kernel
/// panicked (contained per task; sibling kernels complete and the pool
/// survives).
pub fn forward_batch_qat_fused<S: Scalar>(
    passes: &mut [FusedForward<'_, S>],
    par: &Parallelism,
) -> Result<Vec<BatchTrace<S>>, NnError> {
    for p in passes.iter() {
        if p.qat.num_points() != p.mlp.num_layers() + 1 {
            return Err(NnError::InvalidConfig(format!(
                "qat runtime has {} points, network needs {}",
                p.qat.num_points(),
                p.mlp.num_layers() + 1
            )));
        }
    }
    let mut nets = Vec::with_capacity(passes.len());
    let mut inputs = Vec::with_capacity(passes.len());
    let mut runtimes: Vec<&mut QatRuntime> = Vec::with_capacity(passes.len());
    for p in passes.iter_mut() {
        nets.push(p.mlp);
        inputs.push(p.input);
        runtimes.push(&mut *p.qat);
    }
    let mut closures: Vec<_> = runtimes
        .into_iter()
        .map(|qat| move |point: usize, xs: &mut [S]| qat.process(point, xs))
        .collect();
    let mut processes: Vec<ProcessHook<'_, S>> = closures
        .iter_mut()
        .map(|c| c as ProcessHook<'_, S>)
        .collect();
    forward_batch_fused_driver(&nets, &inputs, &mut processes, par)
}

/// [`forward_batch_qat_fused`] without QAT bookkeeping, returning full
/// traces — the fused analogue of [`Mlp::forward_batch_trace_par`] for
/// a group of independent networks (e.g. both TD3 critics on the same
/// `(state ‖ action)` batch before their fused backward).
///
/// # Errors
///
/// Returns [`NnError::Shape`] on input-width mismatch and
/// [`NnError::Pool`] on a contained worker panic.
pub fn forward_batch_trace_fused<S: Scalar>(
    nets: &[&Mlp<S>],
    inputs: &[&Matrix<S>],
    par: &Parallelism,
) -> Result<Vec<BatchTrace<S>>, NnError> {
    let mut noops: Vec<_> = (0..nets.len())
        .map(|_| |_: usize, _: &mut [S]| {})
        .collect();
    let mut processes: Vec<ProcessHook<'_, S>> =
        noops.iter_mut().map(|c| c as ProcessHook<'_, S>).collect();
    forward_batch_fused_driver(nets, inputs, &mut processes, par)
}

/// [`forward_batch_trace_fused`] keeping only the outputs — the fused
/// analogue of [`Mlp::forward_batch_par`] for a group of independent
/// networks (e.g. TD3's twin *target* critics on the smoothed target
/// action batch).
///
/// # Errors
///
/// Returns [`NnError::Shape`] on input-width mismatch and
/// [`NnError::Pool`] on a contained worker panic.
pub fn forward_batch_fused<S: Scalar>(
    nets: &[&Mlp<S>],
    inputs: &[&Matrix<S>],
    par: &Parallelism,
) -> Result<Vec<Matrix<S>>, NnError> {
    Ok(forward_batch_trace_fused(nets, inputs, par)?
        .into_iter()
        .map(|t| t.output)
        .collect())
}

/// The layer-locked fused forward engine: per layer step, every active
/// pass submits its batched MVM into one fused scope; bias broadcast,
/// activation, and the per-pass `process` hook run on the calling
/// thread in ascending pass order after the join.
fn forward_batch_fused_driver<S: Scalar>(
    nets: &[&Mlp<S>],
    inputs: &[&Matrix<S>],
    processes: &mut [ProcessHook<'_, S>],
    par: &Parallelism,
) -> Result<Vec<BatchTrace<S>>, NnError> {
    assert_eq!(nets.len(), inputs.len(), "one input per fused network");
    assert_eq!(nets.len(), processes.len(), "one process hook per pass");
    for (m, x) in nets.iter().zip(inputs) {
        if x.cols() != m.input_dim() {
            return Err(NnError::Shape(fixar_tensor::ShapeError::new(
                "mlp batch input",
                (x.rows(), m.input_dim()),
                x.shape(),
            )));
        }
    }
    let k = nets.len();
    let mut acts: Vec<Matrix<S>> = inputs.iter().map(|x| (*x).clone()).collect();
    for (a, process) in acts.iter_mut().zip(processes.iter_mut()) {
        process(0, a.as_mut_slice());
    }
    let mut input_traces: Vec<Vec<Matrix<S>>> = nets
        .iter()
        .map(|m| Vec::with_capacity(m.num_layers()))
        .collect();
    let mut pre_traces: Vec<Vec<Matrix<S>>> = nets
        .iter()
        .map(|m| Vec::with_capacity(m.num_layers()))
        .collect();
    let steps = nets.iter().map(|m| m.num_layers()).max().unwrap_or(0);
    for l in 0..steps {
        // Allocate this step's pre-activation outputs up front: fused
        // kernels write into caller-owned buffers that outlive the
        // scope.
        let mut zs: Vec<Option<Matrix<S>>> = nets
            .iter()
            .zip(&acts)
            .map(|(m, a)| {
                (l < m.num_layers()).then(|| Matrix::zeros(a.rows(), m.weights[l].rows()))
            })
            .collect();
        par.fused(|ks| -> Result<(), fixar_tensor::ShapeError> {
            for ((m, a), z) in nets.iter().zip(&acts).zip(zs.iter_mut()) {
                if let Some(z) = z.as_mut() {
                    // The cached pack replaces the per-call transpose
                    // the unpacked kernel would rebuild every batch.
                    m.pack(l).gemv_batch_par_in(a, z, ks)?;
                }
            }
            Ok(())
        })??;
        for i in 0..k {
            let Some(mut z) = zs[i].take() else { continue };
            let n_i = nets[i].num_layers();
            z.add_row_broadcast(&nets[i].biases[l])?;
            let act = if l + 1 == n_i {
                nets[i].output_act
            } else {
                nets[i].hidden_act
            };
            let mut y = z.clone();
            act.apply_slice(y.as_mut_slice());
            processes[i](l + 1, y.as_mut_slice());
            input_traces[i].push(core::mem::replace(&mut acts[i], y));
            pre_traces[i].push(z);
        }
    }
    let mut traces = Vec::with_capacity(k);
    for ((inputs, pre), output) in input_traces.into_iter().zip(pre_traces).zip(acts) {
        traces.push(BatchTrace {
            inputs,
            pre,
            output,
        });
    }
    Ok(traces)
}

/// One independent batched backward pass in a fused group: the network,
/// its forward trace, the output gradient, and the gradient buffer it
/// accumulates into, if any. See [`backward_batch_fused`].
pub struct FusedBackward<'a, S: Scalar> {
    /// Network to back-propagate through.
    pub mlp: &'a Mlp<S>,
    /// Trace captured by a batched forward of `mlp`.
    pub trace: &'a BatchTrace<S>,
    /// `(batch, output_dim)` loss gradient w.r.t. the output.
    pub dl_dout: &'a Matrix<S>,
    /// Gradient buffer shaped by [`MlpGrads::zeros_like`] on `mlp`, or
    /// `None` for an input-gradient-only pass: the weight-gradient outer
    /// products and bias sums are skipped, the error MVMs still run, and
    /// the returned input gradient is bit-identical to a full pass's.
    pub grads: Option<&'a mut MlpGrads<S>>,
}

/// Runs several **independent** batched backward passes layer-locked
/// through fused scopes, returning each pass's `(batch, input_dim)`
/// input gradient. Per layer step one fused scope hosts, for every
/// active pass, its gradient outer product (weight-row shards) *and*
/// its error MVM (batch-row shards) — for TD3's twin critics that is
/// four kernels under a single join where the unfused path paid four.
/// Bias gradients accumulate on the calling thread (ascending sample
/// order, as documented) while the shards run. A pass with
/// `grads: None` runs only its error MVMs: the layer deltas never
/// depend on the gradients, so its input gradient is unchanged.
///
/// Element `i` of the result — and `passes[i].grads` — is bit-identical
/// to `passes[i].mlp.backward_batch_par(..)` run on its own, in every
/// backend, at every worker count.
///
/// # Errors
///
/// Returns [`NnError::Shape`] if a `dl_dout` is not
/// `(batch, output_dim)`, [`NnError::InvalidConfig`] for a gradient
/// buffer shaped on another network, and [`NnError::Pool`] if a fused
/// kernel panicked (contained; siblings complete, the pool survives).
pub fn backward_batch_fused<S: Scalar>(
    passes: &mut [FusedBackward<'_, S>],
    par: &Parallelism,
) -> Result<Vec<Matrix<S>>, NnError> {
    for p in passes.iter() {
        let n = p.mlp.num_layers();
        if p.dl_dout.shape() != (p.trace.batch_size(), p.mlp.output_dim()) {
            return Err(NnError::Shape(fixar_tensor::ShapeError::new(
                "mlp batch backward",
                (p.trace.batch_size(), p.mlp.output_dim()),
                p.dl_dout.shape(),
            )));
        }
        if p.grads.as_ref().is_some_and(|g| g.w.len() != n) {
            return Err(NnError::InvalidConfig(
                "gradient buffer has wrong layer count".into(),
            ));
        }
    }
    let k = passes.len();
    // Output-layer deltas: dL/dZ = dL/dY ⊙ f'(Z), elementwise per pass.
    let mut deltas: Vec<Matrix<S>> = passes
        .iter()
        .map(|p| {
            let n = p.mlp.num_layers();
            let mut delta = p.dl_dout.clone();
            for ((d, &z), &y) in delta
                .as_mut_slice()
                .iter_mut()
                .zip(p.trace.pre[n - 1].as_slice())
                .zip(p.trace.output.as_slice())
            {
                *d *= p.mlp.output_act.derivative(z, y);
            }
            delta
        })
        .collect();

    let steps = passes.iter().map(|p| p.mlp.num_layers()).max().unwrap_or(0);
    let mut input_grads: Vec<Option<Matrix<S>>> = (0..k).map(|_| None).collect();
    // Step `s` processes layer `n_i - 1 - s` of every pass deep enough.
    for s in 0..steps {
        let mut errs: Vec<Option<Matrix<S>>> = passes
            .iter()
            .map(|p| {
                let n = p.mlp.num_layers();
                (s < n)
                    .then(|| Matrix::zeros(p.trace.batch_size(), p.mlp.weights[n - 1 - s].cols()))
            })
            .collect();
        par.fused(|ks| -> Result<(), fixar_tensor::ShapeError> {
            for ((i, p), err_slot) in passes.iter_mut().enumerate().zip(errs.iter_mut()) {
                let n = p.mlp.num_layers();
                if s >= n {
                    continue;
                }
                let l = n - 1 - s;
                let delta = &deltas[i];
                let err = err_slot.as_mut().expect("active pass has an err buffer");
                let bias = match p.grads.as_deref_mut() {
                    Some(g) => {
                        g.w[l].add_outer_batch_par_in(delta, &p.trace.inputs[l], ks)?;
                        Some(&mut g.b[l])
                    }
                    None => None,
                };
                p.mlp.pack(l).gemv_t_batch_par_in(delta, err, ks)?;
                // Bias gradients: ascending sample order on the calling
                // thread, overlapping the queued shards (disjoint from
                // both kernel outputs).
                if let Some(b) = bias {
                    for bi in 0..delta.rows() {
                        for (gb, &d) in b.iter_mut().zip(delta.row(bi)) {
                            *gb += d;
                        }
                    }
                }
            }
            Ok(())
        })??;
        for (i, p) in passes.iter().enumerate() {
            let n = p.mlp.num_layers();
            if s >= n {
                continue;
            }
            let l = n - 1 - s;
            let mut err = errs[i].take().expect("active pass has an err buffer");
            if l > 0 {
                for ((d, &z), &y) in err
                    .as_mut_slice()
                    .iter_mut()
                    .zip(p.trace.pre[l - 1].as_slice())
                    .zip(p.trace.inputs[l].as_slice())
                {
                    *d *= p.mlp.hidden_act.derivative(z, y);
                }
                deltas[i] = err;
            } else {
                input_grads[i] = Some(err);
            }
        }
    }
    Ok(input_grads
        .into_iter()
        .map(|g| g.expect("every validated network has at least one layer"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixar_fixed::Fx32;

    fn tiny_cfg() -> MlpConfig {
        MlpConfig::new(vec![3, 5, 2]).with_output_activation(Activation::Tanh)
    }

    #[test]
    fn construction_validates_config() {
        assert!(Mlp::<f64>::new_random(&MlpConfig::new(vec![3]), 0).is_err());
        assert!(Mlp::<f64>::new_random(&MlpConfig::new(vec![3, 0, 2]), 0).is_err());
        assert!(Mlp::<f64>::new_random(&tiny_cfg(), 0).is_ok());
    }

    #[test]
    fn same_seed_same_model_across_precisions() {
        let f = Mlp::<f64>::new_random(&tiny_cfg(), 123).unwrap();
        let q = Mlp::<Fx32>::new_random(&tiny_cfg(), 123).unwrap();
        for l in 0..f.num_layers() {
            for (a, b) in f.weight(l).as_slice().iter().zip(q.weight(l).as_slice()) {
                assert!((a - b.to_f64()).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn forward_shape_checked() {
        let mlp = Mlp::<f64>::new_random(&tiny_cfg(), 1).unwrap();
        assert!(mlp.forward(&[1.0, 2.0]).is_err());
        assert_eq!(mlp.forward(&[1.0, 2.0, 3.0]).unwrap().len(), 2);
    }

    #[test]
    fn tanh_output_is_bounded() {
        let mlp = Mlp::<f64>::new_random(&tiny_cfg(), 5).unwrap();
        let y = mlp.forward(&[10.0, -10.0, 10.0]).unwrap();
        assert!(y.iter().all(|v| (-1.0..=1.0).contains(v)));
    }

    #[test]
    fn backward_gradients_match_finite_differences() {
        let cfg = MlpConfig::new(vec![4, 6, 3]).with_output_activation(Activation::Tanh);
        let mlp = Mlp::<f64>::new_random(&cfg, 9).unwrap();
        let x = [0.3, -0.7, 0.5, 0.1];
        // Loss: L = ½ Σ y_k², so dL/dy = y.
        let trace = mlp.forward_trace(&x).unwrap();
        let dl_dout = trace.output.clone();
        let mut grads = MlpGrads::zeros_like(&mlp);
        let input_err = mlp.backward(&trace, &dl_dout, &mut grads).unwrap();

        let loss = |m: &Mlp<f64>| -> f64 {
            let y = m.forward(&x).unwrap();
            0.5 * y.iter().map(|v| v * v).sum::<f64>()
        };
        let eps = 1e-6;
        // Check a sample of weight coordinates in every layer.
        for l in 0..mlp.num_layers() {
            for &(r, c) in &[(0usize, 0usize), (1, 2), (2, 1)] {
                if r >= mlp.weight(l).rows() || c >= mlp.weight(l).cols() {
                    continue;
                }
                let mut plus = mlp.clone();
                plus.weight_mut(l)[(r, c)] += eps;
                let mut minus = mlp.clone();
                minus.weight_mut(l)[(r, c)] -= eps;
                let fd = (loss(&plus) - loss(&minus)) / (2.0 * eps);
                let an = grads.w[l][(r, c)];
                assert!(
                    (fd - an).abs() < 1e-6,
                    "layer {l} w[{r}][{c}]: fd={fd} an={an}"
                );
            }
            // And one bias coordinate.
            let mut plus = mlp.clone();
            plus.bias_mut(l)[0] += eps;
            let mut minus = mlp.clone();
            minus.bias_mut(l)[0] -= eps;
            let fd = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            assert!((fd - grads.b[l][0]).abs() < 1e-6, "layer {l} bias");
        }
        // Input gradient against finite differences too.
        for i in 0..x.len() {
            let mut xp = x;
            xp[i] += eps;
            let mut xm = x;
            xm[i] -= eps;
            let yp = mlp.forward(&xp).unwrap();
            let ym = mlp.forward(&xm).unwrap();
            let lp = 0.5 * yp.iter().map(|v| v * v).sum::<f64>();
            let lm = 0.5 * ym.iter().map(|v| v * v).sum::<f64>();
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - input_err[i]).abs() < 1e-6, "input {i}");
        }
    }

    #[test]
    fn soft_update_moves_toward_source() {
        let mut target = Mlp::<f64>::new_random(&tiny_cfg(), 1).unwrap();
        let online = Mlp::<f64>::new_random(&tiny_cfg(), 2).unwrap();
        let before = target.weight(0)[(0, 0)];
        let src = online.weight(0)[(0, 0)];
        target.soft_update_from(&online, 0.25).unwrap();
        let after = target.weight(0)[(0, 0)];
        assert!((after - (before + 0.25 * (src - before))).abs() < 1e-12);
        // tau = 1 copies exactly.
        target.soft_update_from(&online, 1.0).unwrap();
        assert_eq!(target.weight(0)[(0, 0)], src);
    }

    #[test]
    fn soft_update_rejects_architecture_mismatch() {
        let mut a = Mlp::<f64>::new_random(&tiny_cfg(), 1).unwrap();
        let b = Mlp::<f64>::new_random(&MlpConfig::new(vec![3, 4, 2]), 1).unwrap();
        assert!(a.soft_update_from(&b, 0.1).is_err());
    }

    #[test]
    fn param_count_matches_paper_model() {
        // HalfCheetah actor: 17*400+400 + 400*300+300 + 300*6+6 = 129_306.
        let cfg = MlpConfig::new(vec![17, 400, 300, 6]);
        let mlp = Mlp::<Fx32>::new_random(&cfg, 0).unwrap();
        assert_eq!(mlp.param_count(), 129_306);
        assert_eq!(mlp.model_bytes(), 129_306 * 4);
    }

    #[test]
    fn fixed_point_forward_tracks_float() {
        let cfg = MlpConfig::new(vec![6, 16, 4]).with_output_activation(Activation::Tanh);
        let f = Mlp::<f64>::new_random(&cfg, 33).unwrap();
        let q: Mlp<Fx32> = f.cast();
        let x = [0.2, -0.4, 0.6, -0.8, 1.0, -0.1];
        let xf = f.forward(&x).unwrap();
        let xq = q
            .forward(&x.iter().map(|&v| Fx32::from_f64(v)).collect::<Vec<_>>())
            .unwrap();
        for (a, b) in xf.iter().zip(&xq) {
            assert!(
                (a - b.to_f64()).abs() < 3e-3,
                "float={a} fixed={}",
                b.to_f64()
            );
        }
    }

    /// Deterministic pseudo-random Fx32 batch for a given input width.
    fn fx32_batch(batch: usize, dim: usize) -> Matrix<Fx32> {
        Matrix::<f64>::from_fn(batch, dim, |b, i| {
            (((b * 13 + i * 7) % 17) as f64 - 8.0) * 0.11
        })
        .cast()
    }

    #[test]
    fn forward_batch_bit_exact_with_per_sample_forward() {
        let cfg = MlpConfig::new(vec![6, 16, 9, 4]).with_output_activation(Activation::Tanh);
        let mlp = Mlp::<Fx32>::new_random(&cfg, 77).unwrap();
        let x = fx32_batch(9, 6);
        let y = mlp.forward_batch(&x).unwrap();
        assert_eq!(y.shape(), (9, 4));
        for b in 0..x.rows() {
            assert_eq!(
                y.row(b),
                mlp.forward(x.row(b)).unwrap().as_slice(),
                "row {b}"
            );
        }
    }

    #[test]
    fn weight_updates_invalidate_cached_packs() {
        // The batched paths cache a packed transpose per layer; a stale
        // pack would keep serving the old weights. The per-sample
        // forward never touches the cache, so it is the oracle.
        let cfg = MlpConfig::new(vec![6, 16, 4]).with_output_activation(Activation::Tanh);
        let mut mlp = Mlp::<Fx32>::new_random(&cfg, 31).unwrap();
        let x = fx32_batch(5, 6);
        let before = mlp.forward_batch(&x).unwrap(); // populates the pack cache

        // Direct weight write through `weight_mut`.
        mlp.weight_mut(0)[(0, 0)] = Fx32::from_f64(1.25);
        mlp.weight_mut(1)[(2, 3)] = Fx32::from_f64(-0.75);
        let after = mlp.forward_batch(&x).unwrap();
        assert_ne!(before, after, "weight change must be visible");
        for b in 0..x.rows() {
            assert_eq!(after.row(b), mlp.forward(x.row(b)).unwrap().as_slice());
        }

        // Polyak update path.
        let src = Mlp::<Fx32>::new_random(&cfg, 77).unwrap();
        let warm = mlp.forward_batch(&x).unwrap(); // re-populate the cache
        mlp.soft_update_from(&src, 0.5).unwrap();
        let updated = mlp.forward_batch(&x).unwrap();
        assert_ne!(warm, updated, "soft update must be visible");
        for b in 0..x.rows() {
            assert_eq!(updated.row(b), mlp.forward(x.row(b)).unwrap().as_slice());
        }

        // The backward path reads the same cache: gradients after the
        // updates must match the per-sample reference.
        let bt = mlp.forward_batch_trace(&x).unwrap();
        let dl = fx32_batch(5, 4);
        let mut batched = MlpGrads::zeros_like(&mlp);
        let input_err = mlp.backward_batch(&bt, &dl, &mut batched).unwrap();
        let mut looped = MlpGrads::zeros_like(&mlp);
        for b in 0..x.rows() {
            let t = mlp.forward_trace(x.row(b)).unwrap();
            let err = mlp.backward(&t, dl.row(b), &mut looped).unwrap();
            assert_eq!(input_err.row(b), err.as_slice(), "input grad row {b}");
        }
        assert_eq!(batched.w, looped.w);
        assert_eq!(batched.b, looped.b);
    }

    #[test]
    fn forward_batch_trace_rows_match_per_sample_traces() {
        let cfg = MlpConfig::new(vec![5, 12, 3]);
        let mlp = Mlp::<Fx32>::new_random(&cfg, 3).unwrap();
        let x = fx32_batch(6, 5);
        let bt = mlp.forward_batch_trace(&x).unwrap();
        for b in 0..x.rows() {
            let t = mlp.forward_trace(x.row(b)).unwrap();
            for l in 0..mlp.num_layers() {
                assert_eq!(bt.inputs[l].row(b), t.inputs[l].as_slice());
                assert_eq!(bt.pre[l].row(b), t.pre[l].as_slice());
            }
            assert_eq!(bt.output.row(b), t.output.as_slice());
        }
        assert_eq!(bt.batch_size(), 6);
    }

    #[test]
    fn backward_batch_bit_exact_with_sample_order_backward() {
        let cfg = MlpConfig::new(vec![5, 14, 8, 2]).with_output_activation(Activation::Tanh);
        let mlp = Mlp::<Fx32>::new_random(&cfg, 21).unwrap();
        let x = fx32_batch(7, 5);
        let dl = Matrix::<f64>::from_fn(7, 2, |b, i| ((b + i * 3) % 5) as f64 * 0.2 - 0.4)
            .cast::<Fx32>();

        // Batched path.
        let bt = mlp.forward_batch_trace(&x).unwrap();
        let mut batched = MlpGrads::zeros_like(&mlp);
        let input_err_b = mlp.backward_batch(&bt, &dl, &mut batched).unwrap();

        // Per-sample reference, ascending sample order.
        let mut looped = MlpGrads::zeros_like(&mlp);
        for b in 0..x.rows() {
            let t = mlp.forward_trace(x.row(b)).unwrap();
            let err = mlp.backward(&t, dl.row(b), &mut looped).unwrap();
            assert_eq!(input_err_b.row(b), err.as_slice(), "input grad row {b}");
        }
        assert_eq!(batched.w, looped.w, "weight gradients must be bit-exact");
        assert_eq!(batched.b, looped.b, "bias gradients must be bit-exact");
    }

    #[test]
    fn batched_qat_calibration_and_quantization_match_per_sample() {
        let cfg = MlpConfig::new(vec![4, 10, 2]).with_output_activation(Activation::Tanh);
        let mlp = Mlp::<Fx32>::new_random(&cfg, 9).unwrap();
        let x = fx32_batch(8, 4);

        let mut qat_batched = QatRuntime::new(mlp.num_layers() + 1, 8);
        let mut qat_looped = qat_batched.clone();

        mlp.forward_batch_qat(&x, &mut qat_batched).unwrap();
        for b in 0..x.rows() {
            mlp.forward_qat(x.row(b), &mut qat_looped).unwrap();
        }
        for p in 0..qat_batched.num_points() {
            assert_eq!(
                qat_batched.monitor(p).range(),
                qat_looped.monitor(p).range(),
                "point {p} range"
            );
            assert_eq!(
                qat_batched.monitor(p).count(),
                qat_looped.monitor(p).count(),
                "point {p} count"
            );
        }

        qat_batched.freeze().unwrap();
        qat_looped.freeze().unwrap();
        let yb = mlp.forward_batch_qat(&x, &mut qat_batched).unwrap().output;
        for b in 0..x.rows() {
            let y = mlp.forward_qat(x.row(b), &mut qat_looped).unwrap().output;
            assert_eq!(yb.row(b), y.as_slice(), "quantized row {b}");
        }

        // The frozen (read-only) variant agrees too.
        let yf = mlp
            .forward_batch_qat_frozen(&x, &qat_batched)
            .unwrap()
            .output;
        assert_eq!(yf, yb);
    }

    #[test]
    fn batch_shape_errors_are_reported() {
        let mlp = Mlp::<f64>::new_random(&tiny_cfg(), 1).unwrap();
        let bad = Matrix::<f64>::zeros(4, 2);
        assert!(mlp.forward_batch(&bad).is_err());
        let x = Matrix::<f64>::zeros(4, 3);
        let t = mlp.forward_batch_trace(&x).unwrap();
        let bad_dl = Matrix::<f64>::zeros(3, 2);
        let mut grads = MlpGrads::zeros_like(&mlp);
        assert!(mlp.backward_batch(&t, &bad_dl, &mut grads).is_err());
    }

    #[test]
    fn pool_parallel_batch_passes_bit_exact_with_sequential() {
        use fixar_pool::Parallelism;
        let cfg = MlpConfig::new(vec![5, 14, 8, 2]).with_output_activation(Activation::Tanh);
        let mlp = Mlp::<Fx32>::new_random(&cfg, 21).unwrap();
        let x = fx32_batch(11, 5);
        let dl = Matrix::<f64>::from_fn(11, 2, |b, i| ((b + i * 3) % 5) as f64 * 0.2 - 0.4)
            .cast::<Fx32>();

        // Sequential reference.
        let trace_seq = mlp.forward_batch_trace(&x).unwrap();
        let mut grads_seq = MlpGrads::zeros_like(&mlp);
        let err_seq = mlp.backward_batch(&trace_seq, &dl, &mut grads_seq).unwrap();

        for workers in [1, 2, 3, 4, 8] {
            let par = Parallelism::with_workers(workers);
            let trace = mlp.forward_batch_trace_par(&x, &par).unwrap();
            assert_eq!(trace.output, trace_seq.output, "{workers} workers");
            let mut grads = MlpGrads::zeros_like(&mlp);
            let err = mlp
                .backward_batch_par(&trace, &dl, &mut grads, &par)
                .unwrap();
            assert_eq!(err, err_seq, "{workers} workers input grads");
            assert_eq!(grads.w, grads_seq.w, "{workers} workers weight grads");
            assert_eq!(grads.b, grads_seq.b, "{workers} workers bias grads");
            assert_eq!(mlp.forward_batch_par(&x, &par).unwrap(), trace_seq.output);
        }

        // QAT: calibration counts and frozen quantized outputs agree too.
        let par = Parallelism::with_workers(4);
        let mut qat_seq = QatRuntime::new(mlp.num_layers() + 1, 8);
        let mut qat_par = qat_seq.clone();
        mlp.forward_batch_qat(&x, &mut qat_seq).unwrap();
        mlp.forward_batch_qat_par(&x, &mut qat_par, &par).unwrap();
        for p in 0..qat_seq.num_points() {
            assert_eq!(qat_seq.monitor(p).range(), qat_par.monitor(p).range());
        }
        qat_seq.freeze().unwrap();
        qat_par.freeze().unwrap();
        let y_seq = mlp.forward_batch_qat_frozen(&x, &qat_seq).unwrap().output;
        let y_par = mlp
            .forward_batch_qat_frozen_par(&x, &qat_par, &par)
            .unwrap()
            .output;
        assert_eq!(y_seq, y_par);
    }

    #[test]
    fn fused_multi_network_forward_matches_separate_passes() {
        use fixar_pool::Parallelism;
        // Two independent networks of different depths on different
        // inputs, fused layer-locked: outputs and traces must equal the
        // separate pool-parallel passes bit-for-bit, in Fx32, at every
        // worker count.
        let cfg_a = MlpConfig::new(vec![5, 12, 7, 2]).with_output_activation(Activation::Tanh);
        let cfg_b = MlpConfig::new(vec![6, 9, 1]);
        let net_a = Mlp::<Fx32>::new_random(&cfg_a, 4).unwrap();
        let net_b = Mlp::<Fx32>::new_random(&cfg_b, 5).unwrap();
        let x_a = fx32_batch(8, 5);
        let x_b = fx32_batch(8, 6);
        let ref_a = net_a.forward_batch_trace(&x_a).unwrap();
        let ref_b = net_b.forward_batch_trace(&x_b).unwrap();
        for workers in [1usize, 2, 8] {
            let par = Parallelism::with_workers(workers);
            let traces = forward_batch_trace_fused(&[&net_a, &net_b], &[&x_a, &x_b], &par).unwrap();
            assert_eq!(traces.len(), 2);
            assert_eq!(traces[0].output, ref_a.output, "workers {workers}: A");
            assert_eq!(traces[1].output, ref_b.output, "workers {workers}: B");
            for l in 0..net_a.num_layers() {
                assert_eq!(traces[0].inputs[l], ref_a.inputs[l]);
                assert_eq!(traces[0].pre[l], ref_a.pre[l]);
            }
            for l in 0..net_b.num_layers() {
                assert_eq!(traces[1].pre[l], ref_b.pre[l]);
            }
            let outs = forward_batch_fused(&[&net_a, &net_b], &[&x_a, &x_b], &par).unwrap();
            assert_eq!(outs[0], ref_a.output);
            assert_eq!(outs[1], ref_b.output);
        }
        // Shape errors surface before anything runs.
        let bad = fx32_batch(3, 4);
        assert!(
            forward_batch_fused(&[&net_a, &net_b], &[&x_a, &bad], &Parallelism::sequential())
                .is_err()
        );
    }

    #[test]
    fn fused_qat_forward_leaves_each_runtime_as_separate_passes_would() {
        use fixar_pool::Parallelism;
        let cfg = MlpConfig::new(vec![4, 10, 2]).with_output_activation(Activation::Tanh);
        let net_a = Mlp::<Fx32>::new_random(&cfg, 9).unwrap();
        let net_b = Mlp::<Fx32>::new_random(&cfg, 10).unwrap();
        let x_a = fx32_batch(6, 4);
        let x_b = fx32_batch(6, 4);

        // Separate reference passes.
        let mut qat_a_ref = QatRuntime::new(net_a.num_layers() + 1, 8);
        let mut qat_b_ref = qat_a_ref.clone();
        let out_a_ref = net_a
            .forward_batch_qat(&x_a, &mut qat_a_ref)
            .unwrap()
            .output;
        let out_b_ref = net_b
            .forward_batch_qat(&x_b, &mut qat_b_ref)
            .unwrap()
            .output;

        // Fused pass over a 2-worker pool.
        let par = Parallelism::with_workers(2);
        let mut qat_a = QatRuntime::new(net_a.num_layers() + 1, 8);
        let mut qat_b = qat_a.clone();
        let traces = forward_batch_qat_fused(
            &mut [
                FusedForward {
                    mlp: &net_a,
                    input: &x_a,
                    qat: &mut qat_a,
                },
                FusedForward {
                    mlp: &net_b,
                    input: &x_b,
                    qat: &mut qat_b,
                },
            ],
            &par,
        )
        .unwrap();
        assert_eq!(traces[0].output, out_a_ref);
        assert_eq!(traces[1].output, out_b_ref);
        for p in 0..qat_a.num_points() {
            assert_eq!(qat_a.monitor(p).range(), qat_a_ref.monitor(p).range());
            assert_eq!(qat_a.monitor(p).count(), qat_a_ref.monitor(p).count());
            assert_eq!(qat_b.monitor(p).range(), qat_b_ref.monitor(p).range());
        }
        // Quantized phase agrees too.
        qat_a.freeze().unwrap();
        qat_a_ref.freeze().unwrap();
        let mut frozen = qat_a.clone();
        let fused_q = forward_batch_qat_fused(
            &mut [FusedForward {
                mlp: &net_a,
                input: &x_a,
                qat: &mut frozen,
            }],
            &par,
        )
        .unwrap();
        let sep_q = net_a.forward_batch_qat(&x_a, &mut qat_a_ref).unwrap();
        assert_eq!(fused_q[0].output, sep_q.output);
        // Mismatched runtime point counts are rejected up front.
        let mut wrong = QatRuntime::disabled(net_a.num_layers() + 5);
        assert!(forward_batch_qat_fused(
            &mut [FusedForward {
                mlp: &net_a,
                input: &x_a,
                qat: &mut wrong,
            }],
            &par,
        )
        .is_err());
    }

    #[test]
    fn fused_twin_backward_matches_separate_backwards() {
        use fixar_pool::Parallelism;
        // The TD3 twin-critic shape: two same-architecture networks,
        // same input batch, different output gradients — fused backward
        // must reproduce each separate backward bit-for-bit (grads and
        // input gradients), at every worker count.
        let cfg = MlpConfig::new(vec![6, 14, 8, 1]);
        let c1 = Mlp::<Fx32>::new_random(&cfg, 31).unwrap();
        let c2 = Mlp::<Fx32>::new_random(&cfg, 32).unwrap();
        let x = fx32_batch(9, 6);
        let dl1 = Matrix::<f64>::from_fn(9, 1, |b, _| (b as f64 - 4.0) * 0.11).cast::<Fx32>();
        let dl2 = Matrix::<f64>::from_fn(9, 1, |b, _| (b as f64 - 2.0) * 0.07).cast::<Fx32>();

        let t1 = c1.forward_batch_trace(&x).unwrap();
        let t2 = c2.forward_batch_trace(&x).unwrap();
        let mut g1_ref = MlpGrads::zeros_like(&c1);
        let mut g2_ref = MlpGrads::zeros_like(&c2);
        let e1_ref = c1.backward_batch(&t1, &dl1, &mut g1_ref).unwrap();
        let e2_ref = c2.backward_batch(&t2, &dl2, &mut g2_ref).unwrap();

        for workers in [1usize, 2, 8] {
            let par = Parallelism::with_workers(workers);
            let mut g1 = MlpGrads::zeros_like(&c1);
            let mut g2 = MlpGrads::zeros_like(&c2);
            let errs = backward_batch_fused(
                &mut [
                    FusedBackward {
                        mlp: &c1,
                        trace: &t1,
                        dl_dout: &dl1,
                        grads: Some(&mut g1),
                    },
                    FusedBackward {
                        mlp: &c2,
                        trace: &t2,
                        dl_dout: &dl2,
                        grads: Some(&mut g2),
                    },
                ],
                &par,
            )
            .unwrap();
            assert_eq!(errs[0], e1_ref, "workers {workers}: input grads 1");
            assert_eq!(errs[1], e2_ref, "workers {workers}: input grads 2");
            assert_eq!(g1.w, g1_ref.w, "workers {workers}: weight grads 1");
            assert_eq!(g1.b, g1_ref.b, "workers {workers}: bias grads 1");
            assert_eq!(g2.w, g2_ref.w, "workers {workers}: weight grads 2");
            assert_eq!(g2.b, g2_ref.b, "workers {workers}: bias grads 2");
        }

        // Bad output-gradient shape is rejected before any kernel runs.
        let bad = Matrix::<Fx32>::zeros(3, 1);
        let mut g = MlpGrads::zeros_like(&c1);
        assert!(backward_batch_fused(
            &mut [FusedBackward {
                mlp: &c1,
                trace: &t1,
                dl_dout: &bad,
                grads: Some(&mut g),
            }],
            &Parallelism::sequential(),
        )
        .is_err());
    }

    /// `grads: None` must return the input gradient of a full backward,
    /// bit for bit, single-pass and fused twin, at 1, 2 and 8 workers.
    fn input_gradient_only_matches_full_backward<S: Scalar>() {
        use fixar_pool::Parallelism;
        let cfg = MlpConfig::new(vec![6, 14, 17, 1]);
        let c1 = Mlp::<S>::new_random(&cfg, 41).unwrap();
        let c2 = Mlp::<S>::new_random(&cfg, 42).unwrap();
        let x = fx32_batch(9, 6).cast::<S>();
        let dl1 = Matrix::<f64>::from_fn(9, 1, |b, _| (b as f64 - 4.0) * 0.11).cast::<S>();
        let dl2 = Matrix::<f64>::from_fn(9, 1, |b, _| (b as f64 - 2.0) * 0.07).cast::<S>();
        let t1 = c1.forward_batch_trace(&x).unwrap();
        let t2 = c2.forward_batch_trace(&x).unwrap();
        let e1_ref = c1
            .backward_batch(&t1, &dl1, &mut MlpGrads::zeros_like(&c1))
            .unwrap();
        let e2_ref = c2
            .backward_batch(&t2, &dl2, &mut MlpGrads::zeros_like(&c2))
            .unwrap();

        for workers in [1usize, 2, 8] {
            let par = Parallelism::with_workers(workers);
            let single = backward_batch_fused(
                &mut [FusedBackward {
                    mlp: &c1,
                    trace: &t1,
                    dl_dout: &dl1,
                    grads: None,
                }],
                &par,
            )
            .unwrap();
            assert_eq!(single[0], e1_ref, "workers {workers}: single pass");

            // Twin passes, one with gradients and one without: the
            // gradient-carrying pass is unaffected by its sibling.
            let mut g1 = MlpGrads::zeros_like(&c1);
            let twin = backward_batch_fused(
                &mut [
                    FusedBackward {
                        mlp: &c1,
                        trace: &t1,
                        dl_dout: &dl1,
                        grads: Some(&mut g1),
                    },
                    FusedBackward {
                        mlp: &c2,
                        trace: &t2,
                        dl_dout: &dl2,
                        grads: None,
                    },
                ],
                &par,
            )
            .unwrap();
            assert_eq!(twin[0], e1_ref, "workers {workers}: twin pass 1");
            assert_eq!(twin[1], e2_ref, "workers {workers}: twin pass 2");
            let mut g1_ref = MlpGrads::zeros_like(&c1);
            c1.backward_batch(&t1, &dl1, &mut g1_ref).unwrap();
            assert_eq!(g1.w, g1_ref.w, "workers {workers}: twin weight grads");
            assert_eq!(g1.b, g1_ref.b, "workers {workers}: twin bias grads");

            let both = backward_batch_fused(
                &mut [
                    FusedBackward {
                        mlp: &c1,
                        trace: &t1,
                        dl_dout: &dl1,
                        grads: None,
                    },
                    FusedBackward {
                        mlp: &c2,
                        trace: &t2,
                        dl_dout: &dl2,
                        grads: None,
                    },
                ],
                &par,
            )
            .unwrap();
            assert_eq!(both, [e1_ref.clone(), e2_ref.clone()], "workers {workers}");
        }
    }

    #[test]
    fn input_gradient_only_backward_is_bit_exact_fx32() {
        input_gradient_only_matches_full_backward::<Fx32>();
    }

    #[test]
    fn input_gradient_only_backward_is_bit_exact_q32_28() {
        input_gradient_only_matches_full_backward::<fixar_fixed::Q32<28>>();
    }

    #[test]
    fn input_gradient_only_backward_is_bit_exact_f64() {
        input_gradient_only_matches_full_backward::<f64>();
    }

    #[test]
    fn grads_reset_and_scale() {
        let mlp = Mlp::<f64>::new_random(&tiny_cfg(), 3).unwrap();
        let mut grads = MlpGrads::zeros_like(&mlp);
        let trace = mlp.forward_trace(&[1.0, 1.0, 1.0]).unwrap();
        mlp.backward(&trace, &[1.0, 1.0], &mut grads).unwrap();
        let norm_before = grads.w[0].max_abs();
        assert!(norm_before > 0.0);
        grads.scale(0.5);
        assert!((grads.w[0].max_abs() - norm_before * 0.5).abs() < 1e-12);
        grads.reset();
        assert_eq!(grads.w[0].max_abs(), 0.0);
    }
}
