//! Deep Deterministic Policy Gradients in backend arithmetic.

use fixar_fixed::Scalar;
use fixar_nn::{
    Activation, Adam, AdamConfig, Mlp, MlpConfig, MlpGrads, PrecisionPolicy, QatMode, QatRuntime,
};
use fixar_pool::Parallelism;
use fixar_tensor::Matrix;

use crate::error::RlError;
use crate::replay::{ReplayStrategy, Transition, TransitionBatch};

/// Runs `f` over every item on the pool behind `par`, one task per
/// item, collecting the outcomes in **ascending item order** (the
/// deterministic shard-merge order). Falls back to a plain sequential
/// loop when `par` carries no pool or when already on a pool thread.
///
/// Worker panics are contained by the pool and surface as
/// [`RlError::Worker`] instead of aborting the process.
pub(crate) fn pool_shard_map<I, T, F>(
    par: &Parallelism,
    items: &[I],
    f: F,
) -> Result<Vec<T>, RlError>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> Result<T, RlError> + Sync,
{
    if par.shards(items.len()) <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(idx, item)| f(idx, item))
            .collect();
    }
    let pool = par.pool().expect("shards > 1 implies a pool");
    let mut slots: Vec<Option<Result<T, RlError>>> = Vec::new();
    slots.resize_with(items.len(), || None);
    pool.scope(|scope| {
        let f = &f;
        for (slot, (idx, item)) in slots.iter_mut().zip(items.iter().enumerate()) {
            scope.execute(move || {
                *slot = Some(f(idx, item));
            });
        }
    })?;
    slots
        .into_iter()
        .map(|slot| slot.expect("scope joined every task"))
        .collect()
}

/// Algorithm 1's schedule: full-precision calibration for `delay`
/// training timesteps, then quantized activations.
///
/// The format each activation point freezes to is governed per network
/// by a [`PrecisionPolicy`]: `actor_policy` drives the actor and
/// actor-target runtimes, `critic_policy` the critic side. Leaving a
/// policy `None` falls back to [`PrecisionPolicy::Uniform`] at `bits` —
/// bit-for-bit the legacy global-bits behaviour. Split policies are the
/// mixed-precision serving story: an 8-bit actor on the request path
/// with 16-bit critics for training.
#[derive(Debug, Clone, PartialEq)]
pub struct QatSchedule {
    /// Quantization delay `d` in timesteps.
    pub delay: u64,
    /// Post-delay activation bit width `n` (paper: 16) — the fallback
    /// when a per-network policy is not set.
    pub bits: u32,
    /// Calibration headroom: frozen ranges widen by this factor away
    /// from zero so moderate post-delay activation drift quantizes
    /// instead of clamping (see `QatRuntime::with_headroom`). Default 1.5.
    pub headroom: f64,
    /// Precision policy for the actor and actor-target runtimes
    /// (`None` = uniform at `bits`).
    pub actor_policy: Option<PrecisionPolicy>,
    /// Precision policy for the critic and critic-target runtimes
    /// (`None` = uniform at `bits`).
    pub critic_policy: Option<PrecisionPolicy>,
}

impl QatSchedule {
    /// The legacy uniform schedule: every network quantizes to `bits`
    /// bits after `delay` steps, with the default 1.5× headroom.
    pub fn uniform(delay: u64, bits: u32) -> Self {
        Self {
            delay,
            bits,
            headroom: 1.5,
            actor_policy: None,
            critic_policy: None,
        }
    }

    /// Builder-style actor-side precision policy.
    pub fn with_actor_policy(mut self, policy: PrecisionPolicy) -> Self {
        self.actor_policy = Some(policy);
        self
    }

    /// Builder-style critic-side precision policy.
    pub fn with_critic_policy(mut self, policy: PrecisionPolicy) -> Self {
        self.critic_policy = Some(policy);
        self
    }

    /// The effective actor-side policy (fallback: uniform at `bits`).
    pub fn actor_policy(&self) -> PrecisionPolicy {
        self.actor_policy
            .clone()
            .unwrap_or(PrecisionPolicy::Uniform { bits: self.bits })
    }

    /// The effective critic-side policy (fallback: uniform at `bits`).
    pub fn critic_policy(&self) -> PrecisionPolicy {
        self.critic_policy
            .clone()
            .unwrap_or(PrecisionPolicy::Uniform { bits: self.bits })
    }
}

/// DDPG hyperparameters (defaults follow the paper where stated, and
/// Lillicrap et al. 2015 otherwise).
#[derive(Debug, Clone, PartialEq)]
pub struct DdpgConfig {
    /// Hidden-layer widths (paper: 400 and 300).
    pub hidden: (usize, usize),
    /// Discount factor γ.
    pub gamma: f64,
    /// Target-network soft-update rate τ.
    pub tau: f64,
    /// Actor Adam learning rate (paper: 1e-4).
    pub actor_lr: f64,
    /// Critic Adam learning rate (paper: 1e-4).
    pub critic_lr: f64,
    /// Adam epsilon (shared across backends; see `fixar_nn::AdamConfig`).
    pub adam_eps: f64,
    /// Training batch size `B` (paper sweeps 64–512).
    pub batch_size: usize,
    /// Replay buffer capacity.
    pub replay_capacity: usize,
    /// Replay sampling strategy (uniform — the paper's protocol and the
    /// bit-exact legacy behaviour — or proportional prioritized replay;
    /// see [`ReplayStrategy`]).
    pub replay: ReplayStrategy,
    /// Uniform-random action steps before training starts.
    pub warmup_steps: u64,
    /// Exploration noise standard deviation.
    pub exploration_sigma: f64,
    /// Quantization-aware-training schedule; `None` disables QAT (the
    /// float32/fixed32/fixed16 study arms).
    pub qat: Option<QatSchedule>,
    /// Seed for weight init and all agent-side randomness.
    pub seed: u64,
    /// Worker threads for kernel-level parallel training (the software
    /// twin of the AAP core count): the batched kernels of
    /// [`Ddpg::train_minibatch`] shard across a persistent pool,
    /// bit-identical to the sequential path at every count. `1` keeps
    /// the strictly sequential reference path. The `FIXAR_WORKERS`
    /// environment variable overrides this at agent construction.
    pub parallel_workers: usize,
}

impl Default for DdpgConfig {
    fn default() -> Self {
        Self {
            hidden: (400, 300),
            gamma: 0.99,
            tau: 0.005,
            actor_lr: 1e-4,
            critic_lr: 1e-4,
            adam_eps: 1e-4,
            batch_size: 64,
            replay_capacity: 100_000,
            replay: ReplayStrategy::Uniform,
            warmup_steps: 1_000,
            exploration_sigma: 0.1,
            qat: None,
            seed: 0,
            parallel_workers: 1,
        }
    }
}

impl DdpgConfig {
    /// A deliberately tiny configuration so debug-mode tests finish in
    /// seconds: 16×12 hidden units, batch 16, short warmup.
    pub fn small_test() -> Self {
        Self {
            hidden: (16, 12),
            batch_size: 16,
            replay_capacity: 10_000,
            warmup_steps: 64,
            ..Self::default()
        }
    }

    /// Builder-style QAT schedule (with the default 1.5× calibration
    /// headroom): uniform `bits`-bit quantization, the legacy path.
    pub fn with_qat(mut self, delay: u64, bits: u32) -> Self {
        self.qat = Some(QatSchedule::uniform(delay, bits));
        self
    }

    /// Builder-style QAT schedule with explicit per-network precision
    /// policies — the redesigned entry point. `bits` on the stored
    /// schedule records each policy's nominal width for diagnostics.
    pub fn with_qat_policies(
        mut self,
        delay: u64,
        actor: PrecisionPolicy,
        critic: PrecisionPolicy,
    ) -> Self {
        let bits = actor.nominal_bits().max(critic.nominal_bits());
        self.qat = Some(
            QatSchedule::uniform(delay, bits)
                .with_actor_policy(actor)
                .with_critic_policy(critic),
        );
        self
    }

    /// Builder-style mixed-precision QAT: `actor_bits`-bit actor (and
    /// actor target) with `critic_bits`-bit critics — e.g. `(d, 8, 16)`
    /// for 8-bit request-path serving and 16-bit training.
    pub fn with_mixed_precision_qat(self, delay: u64, actor_bits: u32, critic_bits: u32) -> Self {
        self.with_qat_policies(
            delay,
            PrecisionPolicy::Uniform { bits: actor_bits },
            PrecisionPolicy::Uniform { bits: critic_bits },
        )
    }

    /// Builder-style batch size.
    pub fn with_batch_size(mut self, batch: usize) -> Self {
        self.batch_size = batch;
        self
    }

    /// Builder-style seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style replay strategy (see [`ReplayStrategy`] for the
    /// determinism contract of each arm).
    pub fn with_replay(mut self, replay: ReplayStrategy) -> Self {
        self.replay = replay;
        self
    }

    fn validate(&self) -> Result<(), RlError> {
        if self.batch_size == 0 {
            return Err(RlError::InvalidConfig("batch_size must be positive".into()));
        }
        if self.parallel_workers == 0 {
            return Err(RlError::InvalidConfig(
                "parallel_workers must be at least 1".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.gamma) {
            return Err(RlError::InvalidConfig("gamma must be in [0, 1]".into()));
        }
        if !(0.0..=1.0).contains(&self.tau) {
            return Err(RlError::InvalidConfig("tau must be in [0, 1]".into()));
        }
        if let Some(q) = &self.qat {
            if q.bits == 0 || q.bits > 31 {
                return Err(RlError::InvalidConfig(format!(
                    "qat bits must be 1..=31, got {}",
                    q.bits
                )));
            }
        }
        if let ReplayStrategy::Prioritized(p) = self.replay {
            p.validate().map_err(RlError::InvalidConfig)?;
        }
        Ok(())
    }
}

/// Diagnostics from one training batch.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TrainMetrics {
    /// Critic half-MSE against the TD targets.
    pub critic_loss: f64,
    /// Mean predicted Q over the batch.
    pub mean_q: f64,
}

/// The DDPG agent: actor/critic with target networks, fixed-point-capable
/// optimizers, and the QAT runtimes of Algorithm 1.
///
/// The generic parameter selects the arithmetic — `f32` for the CPU-GPU
/// baseline, `Fx32`/`Fx16` for the FIXAR fixed-point modes.
#[derive(Debug, Clone)]
pub struct Ddpg<S: Scalar> {
    actor: Mlp<S>,
    critic: Mlp<S>,
    actor_target: Mlp<S>,
    critic_target: Mlp<S>,
    actor_opt: Adam<S>,
    critic_opt: Adam<S>,
    actor_qat: QatRuntime,
    critic_qat: QatRuntime,
    actor_target_qat: QatRuntime,
    critic_target_qat: QatRuntime,
    actor_grads: MlpGrads<S>,
    critic_grads: MlpGrads<S>,
    cfg: DdpgConfig,
    par: Parallelism,
    state_dim: usize,
    action_dim: usize,
    train_steps: u64,
    qat_frozen: bool,
}

impl<S: Scalar> Ddpg<S> {
    /// Builds the agent for the given observation/action dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::InvalidConfig`] for malformed configurations or
    /// zero dimensions.
    pub fn new(state_dim: usize, action_dim: usize, cfg: DdpgConfig) -> Result<Self, RlError> {
        cfg.validate()?;
        if state_dim == 0 || action_dim == 0 {
            return Err(RlError::InvalidConfig(
                "state and action dimensions must be positive".into(),
            ));
        }
        let (h1, h2) = cfg.hidden;
        let actor_cfg = MlpConfig::new(vec![state_dim, h1, h2, action_dim])
            .with_output_activation(Activation::Tanh);
        let critic_cfg = MlpConfig::new(vec![state_dim + action_dim, h1, h2, 1]);
        let actor = Mlp::new_random(&actor_cfg, cfg.seed)?;
        let critic = Mlp::new_random(&critic_cfg, cfg.seed.wrapping_add(1))?;
        let actor_target = actor.clone();
        let critic_target = critic.clone();
        let actor_opt = Adam::new(
            &actor,
            AdamConfig {
                lr: cfg.actor_lr,
                eps: cfg.adam_eps,
                ..AdamConfig::default()
            },
        );
        let critic_opt = Adam::new(
            &critic,
            AdamConfig {
                lr: cfg.critic_lr,
                eps: cfg.adam_eps,
                ..AdamConfig::default()
            },
        );
        let points = actor.num_layers() + 1;
        let cpoints = critic.num_layers() + 1;
        let (actor_qat, critic_qat, actor_target_qat, critic_target_qat) = match &cfg.qat {
            Some(q) => {
                let make = |n: usize, policy: PrecisionPolicy| -> Result<QatRuntime, RlError> {
                    // The final output is a regression result (Q-value)
                    // or the action handed to the host — not a hidden
                    // activation; clamping it to a frozen range would
                    // strangle TD learning as Q magnitudes drift.
                    QatRuntime::builder(n)
                        .policy(policy)
                        .headroom(q.headroom)
                        .exclude_point(n - 1)
                        .build()
                        .map_err(fixar_nn::NnError::Precision)
                        .map_err(RlError::from)
                };
                (
                    make(points, q.actor_policy())?,
                    make(cpoints, q.critic_policy())?,
                    make(points, q.actor_policy())?,
                    make(cpoints, q.critic_policy())?,
                )
            }
            None => (
                QatRuntime::disabled(points),
                QatRuntime::disabled(cpoints),
                QatRuntime::disabled(points),
                QatRuntime::disabled(cpoints),
            ),
        };
        let actor_grads = MlpGrads::zeros_like(&actor);
        let critic_grads = MlpGrads::zeros_like(&critic);
        let par = Parallelism::from_env_or(cfg.parallel_workers);
        Ok(Self {
            actor,
            critic,
            actor_target,
            critic_target,
            actor_opt,
            critic_opt,
            actor_qat,
            critic_qat,
            actor_target_qat,
            critic_target_qat,
            actor_grads,
            critic_grads,
            cfg,
            par,
            state_dim,
            action_dim,
            train_steps: 0,
            qat_frozen: false,
        })
    }

    /// The parallelism handle driving the batched kernels (worker count
    /// resolved from the config and the `FIXAR_WORKERS` override).
    pub fn parallelism(&self) -> &Parallelism {
        &self.par
    }

    /// Replaces the parallelism handle — used by benches and the
    /// worker-sweep property tests to pin an explicit worker count
    /// regardless of the environment. Any count yields bit-identical
    /// training results; only throughput changes.
    pub fn set_parallelism(&mut self, par: Parallelism) {
        self.par = par;
    }

    /// Observation dimension.
    pub fn state_dim(&self) -> usize {
        self.state_dim
    }

    /// Action dimension.
    pub fn action_dim(&self) -> usize {
        self.action_dim
    }

    /// Configuration the agent was built with.
    pub fn config(&self) -> &DdpgConfig {
        &self.cfg
    }

    /// The online actor network (read access for the accelerator loader).
    pub fn actor(&self) -> &Mlp<S> {
        &self.actor
    }

    /// The online critic network.
    pub fn critic(&self) -> &Mlp<S> {
        &self.critic
    }

    /// Completed training batches.
    pub fn train_steps(&self) -> u64 {
        self.train_steps
    }

    /// `true` once the QAT schedule has switched to quantized activations.
    pub fn qat_frozen(&self) -> bool {
        self.qat_frozen
    }

    /// Current QAT phase of the actor runtime (diagnostics).
    pub fn qat_mode(&self) -> QatMode {
        self.actor_qat.mode()
    }

    /// The actor's QAT runtime, for snapshot freezing.
    pub(crate) fn actor_qat_runtime(&self) -> &QatRuntime {
        &self.actor_qat
    }

    /// Advances the QAT schedule: once `global_step` reaches the delay,
    /// every runtime whose range monitors have calibration data freezes
    /// into 16-bit quantizers. Runtimes that have not executed yet (e.g.
    /// the critic while the delay falls inside the exploration warmup)
    /// freeze on the first later step at which they have data. Returns
    /// `true` on the step the switch completes for all four runtimes.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::Nn`]-wrapped calibration errors if a runtime
    /// with observations fails to build any quantizer (degenerate
    /// all-zero ranges) — a protocol bug, not a timing artifact.
    pub fn on_timestep(&mut self, global_step: u64) -> Result<bool, RlError> {
        let Some(q) = &self.cfg.qat else {
            return Ok(false);
        };
        if self.qat_frozen || global_step < q.delay {
            return Ok(false);
        }
        let mut all_frozen = true;
        for rt in [
            &mut self.actor_qat,
            &mut self.critic_qat,
            &mut self.actor_target_qat,
            &mut self.critic_target_qat,
        ] {
            if rt.mode() == QatMode::Quantize {
                continue;
            }
            if rt.has_observations() {
                rt.freeze_at_step(global_step)
                    .map_err(fixar_nn::NnError::Quant)?;
            } else {
                all_frozen = false;
            }
        }
        self.qat_frozen = all_frozen;
        Ok(all_frozen)
    }

    /// Actor inference: `state → action` in the backend arithmetic,
    /// returned as `f64` for the environment. During QAT calibration this
    /// also feeds the activation range monitors.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::Nn`] on dimension mismatch.
    pub fn act(&mut self, state: &[f64]) -> Result<Vec<f64>, RlError> {
        let s: Vec<S> = state.iter().map(|&v| S::from_f64(v)).collect();
        let trace = self.actor.forward_qat(&s, &mut self.actor_qat)?;
        Ok(trace.output.iter().map(|v| v.to_f64()).collect())
    }

    /// Batched actor inference for a fleet of environments: one
    /// observation per row of `states`, one batched QAT-aware forward
    /// pass over the worker pool instead of `states.rows()` per-sample
    /// `gemv` passes — the rollout hot path of
    /// [`VecTrainer`](crate::VecTrainer) and the software twin of
    /// `FixarAccelerator::actor_inference_batch`.
    ///
    /// Row `i` of the result is **bit-identical** to
    /// [`Ddpg::act`]`(states.row(i))` (the batched kernels preserve
    /// per-element reduction order, and QAT range monitors are
    /// order-independent), so serving a fleet never perturbs any single
    /// env's action stream. During QAT calibration the pass feeds the
    /// activation range monitors, exactly like [`Ddpg::act`].
    ///
    /// # Errors
    ///
    /// Returns [`RlError::Nn`] if `states.cols()` differs from the
    /// observation dimension.
    pub fn select_actions_batch(&mut self, states: &Matrix<f64>) -> Result<Matrix<f64>, RlError> {
        let s: Matrix<S> = states.cast();
        let out = self
            .actor
            .forward_batch_qat_par(&s, &mut self.actor_qat, &self.par)?
            .output;
        Ok(Matrix::from_fn(out.rows(), out.cols(), |r, c| {
            out[(r, c)].to_f64()
        }))
    }

    /// One training update with the whole minibatch flowing through the
    /// stack as **one matrix per layer** — the software image of the
    /// accelerator's intra-batch parallelism, and the hot path the
    /// [`Trainer`](crate::Trainer) drives.
    ///
    /// The update follows the paper's Fig. 3 sequence exactly like
    /// [`Ddpg::train_batch`]: critic BP/WU from TD targets, then actor
    /// BP/WU led by the critic's action gradient, then target soft
    /// updates. Per-element kernel reduction order and the
    /// ascending-sample gradient accumulation order are preserved (see
    /// the `fixar-tensor` crate docs), so the resulting weights are
    /// **bit-identical** to the per-sample path on the same batch in
    /// every backend, including `Fx32` — property-tested in
    /// `tests/props.rs` and `tests/workspace_props.rs`.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::ReplayUnderflow`] for an empty batch and
    /// [`RlError::Nn`] on shape mismatches.
    pub fn train_minibatch(&mut self, batch: &TransitionBatch) -> Result<TrainMetrics, RlError> {
        self.train_minibatch_weighted(batch, None).map(|(m, _)| m)
    }

    /// [`Ddpg::train_minibatch`] with optional per-sample importance
    /// weights — the prioritized-replay entry point. `weights[i]`
    /// scales sample `i`'s contribution to the critic regression (both
    /// the loss and the TD-error gradient); the actor ascent and the
    /// target updates are unweighted, per the usual prioritized-DDPG
    /// formulation. Returns the metrics **and the per-sample TD errors
    /// `q_i − y_i`** the caller feeds back into the priority structure.
    ///
    /// With `weights == None` this is *exactly* [`Ddpg::train_minibatch`]
    /// (the unweighted expressions are untouched, not multiplied by a
    /// `1.0` that could re-round), so uniform-strategy training stays on
    /// the bit-exact legacy path.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::ReplayUnderflow`] for an empty batch,
    /// [`RlError::InvalidConfig`] if `weights` disagrees with the batch
    /// length, and [`RlError::Nn`] on shape mismatches.
    pub fn train_minibatch_weighted(
        &mut self,
        batch: &TransitionBatch,
        weights: Option<&[f64]>,
    ) -> Result<(TrainMetrics, Vec<f64>), RlError> {
        if batch.is_empty() {
            return Err(RlError::ReplayUnderflow {
                have: 0,
                need: self.cfg.batch_size,
            });
        }
        if let Some(w) = weights {
            if w.len() != batch.len() {
                return Err(RlError::InvalidConfig(format!(
                    "importance weights ({}) disagree with batch ({})",
                    w.len(),
                    batch.len()
                )));
            }
        }
        let b = batch.len();
        let scale = 1.0 / b as f64;
        let gamma = S::from_f64(self.cfg.gamma);

        // Phase 1 — one fused scope for the two *independent* forward
        // passes of the update: the target actor on s' (start of the TD
        // target chain) and the online critic on (s, a) (the regression
        // forward). The critic-target pass cannot join them — it
        // consumes the target actor's output — so it forms phase 2.
        // Fusing halves the joins of the pre-update forwards while
        // keeping every result bit-identical (disjoint outputs,
        // unchanged per-element chains, separate QAT runtimes).
        self.critic_grads.reset();
        let s_next: Matrix<S> = batch.next_states().cast();
        let states: Matrix<S> = batch.states().cast();
        let actions: Matrix<S> = batch.actions().cast();
        let critic_in = states.hcat(&actions).map_err(fixar_nn::NnError::Shape)?;
        let par = self.par.clone();
        let mut fused = fixar_nn::forward_batch_qat_fused(
            &mut [
                fixar_nn::FusedForward {
                    mlp: &self.actor_target,
                    input: &s_next,
                    qat: &mut self.actor_target_qat,
                },
                fixar_nn::FusedForward {
                    mlp: &self.critic,
                    input: &critic_in,
                    qat: &mut self.critic_qat,
                },
            ],
            &par,
        )?;
        let trace = fused.pop().expect("critic pass");
        let a_next = fused.pop().expect("target actor pass").output;

        // Phase 2 — the dependent tail of the TD-target chain.
        let target_in = s_next.hcat(&a_next).map_err(fixar_nn::NnError::Shape)?;
        let q_next = self
            .critic_target
            .forward_batch_qat_par(&target_in, &mut self.critic_target_qat, &self.par)?
            .output;
        let targets: Vec<S> = (0..b)
            .map(|i| {
                let bootstrap = if batch.terminals()[i] {
                    S::zero()
                } else {
                    gamma * q_next[(i, 0)]
                };
                S::from_f64(batch.rewards()[i]) + bootstrap
            })
            .collect();

        // Critic regression toward the targets: the fused forward from
        // phase 1, one batched backward (whose per-layer gradient outer
        // product and error MVM share a fused scope), gradients reduced
        // in ascending sample order.
        let mut critic_loss = 0.0;
        let mut q_sum = 0.0;
        let mut td_errors = Vec::with_capacity(b);
        let mut dl = Matrix::zeros(b, 1);
        for (i, &y) in targets.iter().enumerate() {
            let q = trace.output[(i, 0)];
            q_sum += q.to_f64();
            let td = q.to_f64() - y.to_f64();
            td_errors.push(td);
            match weights {
                None => {
                    critic_loss += 0.5 * td * td * scale;
                    dl[(i, 0)] = (q - y) * S::from_f64(scale);
                }
                Some(w) => {
                    critic_loss += 0.5 * w[i] * td * td * scale;
                    dl[(i, 0)] = (q - y) * S::from_f64(w[i] * scale);
                }
            }
        }
        self.critic
            .backward_batch_par(&trace, &dl, &mut self.critic_grads, &self.par)?;
        self.critic_opt.step(&mut self.critic, &self.critic_grads)?;

        // Actor ascent on Q through the batched critic input gradient.
        self.actor_grads.reset();
        let atrace = self
            .actor
            .forward_batch_qat_par(&states, &mut self.actor_qat, &self.par)?;
        let policy_in = states
            .hcat(&atrace.output)
            .map_err(fixar_nn::NnError::Shape)?;
        let ctrace =
            self.critic
                .forward_batch_qat_par(&policy_in, &mut self.critic_qat, &self.par)?;
        // Only the critic's input gradient is needed here: the pass
        // skips the critic's weight-gradient outer products and bias sums.
        let minus_scale = Matrix::from_fn(b, 1, |_, _| S::from_f64(-scale));
        let dq_dinput = fixar_nn::backward_batch_fused(
            &mut [fixar_nn::FusedBackward {
                mlp: &self.critic,
                trace: &ctrace,
                dl_dout: &minus_scale,
                grads: None,
            }],
            &self.par,
        )?
        .pop()
        .expect("one pass in, one input gradient out");
        let dq_da = dq_dinput.columns(self.state_dim, self.state_dim + self.action_dim);
        self.actor
            .backward_batch_par(&atrace, &dq_da, &mut self.actor_grads, &self.par)?;
        self.actor_opt.step(&mut self.actor, &self.actor_grads)?;

        // Target soft updates.
        self.actor_target
            .soft_update_from(&self.actor, self.cfg.tau)?;
        self.critic_target
            .soft_update_from(&self.critic, self.cfg.tau)?;

        self.train_steps += 1;
        Ok((
            TrainMetrics {
                critic_loss,
                mean_q: q_sum * scale,
            },
            td_errors,
        ))
    }

    /// One training update from a sampled batch, processed **one sample
    /// at a time** through the vector kernels — the bit-exactness
    /// reference for [`Ddpg::train_minibatch`] and the building block of
    /// the sharded [`Ddpg::train_batch_parallel`] path.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::ReplayUnderflow`] for an empty batch and
    /// [`RlError::Nn`] on shape mismatches.
    pub fn train_batch(&mut self, batch: &[&Transition]) -> Result<TrainMetrics, RlError> {
        if batch.is_empty() {
            return Err(RlError::ReplayUnderflow {
                have: 0,
                need: self.cfg.batch_size,
            });
        }
        let b = batch.len();
        let scale = 1.0 / b as f64;
        let gamma = S::from_f64(self.cfg.gamma);

        // TD targets from the target networks (no gradients).
        let mut targets = Vec::with_capacity(b);
        for t in batch {
            let s_next: Vec<S> = t.next_state.iter().map(|&v| S::from_f64(v)).collect();
            let a_next = self
                .actor_target
                .forward_qat(&s_next, &mut self.actor_target_qat)?
                .output;
            let mut critic_in = s_next;
            critic_in.extend_from_slice(&a_next);
            let q_next = self
                .critic_target
                .forward_qat(&critic_in, &mut self.critic_target_qat)?
                .output[0];
            let bootstrap = if t.terminal {
                S::zero()
            } else {
                gamma * q_next
            };
            targets.push(S::from_f64(t.reward) + bootstrap);
        }

        // Critic regression toward the targets.
        self.critic_grads.reset();
        let mut critic_loss = 0.0;
        let mut q_sum = 0.0;
        for (t, &y) in batch.iter().zip(&targets) {
            let mut critic_in: Vec<S> = t.state.iter().map(|&v| S::from_f64(v)).collect();
            critic_in.extend(t.action.iter().map(|&v| S::from_f64(v)));
            let trace = self.critic.forward_qat(&critic_in, &mut self.critic_qat)?;
            let q = trace.output[0];
            q_sum += q.to_f64();
            let td = q.to_f64() - y.to_f64();
            critic_loss += 0.5 * td * td * scale;
            let dl = [(q - y) * S::from_f64(scale)];
            self.critic.backward(&trace, &dl, &mut self.critic_grads)?;
        }
        self.critic_opt.step(&mut self.critic, &self.critic_grads)?;

        // Actor ascent on Q: the critic's input gradient w.r.t. the action
        // "leads the BP and WU of the actor network".
        // The critic's parameter gradients of this pass are discarded.
        self.actor_grads.reset();
        let mut critic_scratch = MlpGrads::zeros_like(&self.critic);
        let minus_scale = [S::from_f64(-scale)];
        for t in batch {
            let s: Vec<S> = t.state.iter().map(|&v| S::from_f64(v)).collect();
            let atrace = self.actor.forward_qat(&s, &mut self.actor_qat)?;
            let mut critic_in = s;
            critic_in.extend_from_slice(&atrace.output);
            let ctrace = self.critic.forward_qat(&critic_in, &mut self.critic_qat)?;
            let dq_dinput = self
                .critic
                .backward(&ctrace, &minus_scale, &mut critic_scratch)?;
            let dq_da = &dq_dinput[self.state_dim..];
            self.actor.backward(&atrace, dq_da, &mut self.actor_grads)?;
        }
        self.actor_opt.step(&mut self.actor, &self.actor_grads)?;

        // Target soft updates.
        self.actor_target
            .soft_update_from(&self.actor, self.cfg.tau)?;
        self.critic_target
            .soft_update_from(&self.critic, self.cfg.tau)?;

        self.train_steps += 1;
        Ok(TrainMetrics {
            critic_loss,
            mean_q: q_sum * scale,
        })
    }

    /// Intra-batch-parallel training update over the **persistent
    /// worker pool** — the software twin of the accelerator's per-core
    /// gradient memory: the batch splits into `workers` contiguous
    /// shards (one per AAP core), each shard accumulates its own
    /// gradients through the per-sample kernels, and the partial
    /// gradients merge in **ascending shard order** into the shared
    /// buffer. With `workers == 1` this is bit-identical to
    /// [`Ddpg::train_batch`]; with more workers the result is
    /// deterministic and independent of thread scheduling, differing
    /// from the sequential result only in the (saturating) gradient
    /// accumulation order — exactly as the hardware differs.
    ///
    /// Contrast [`Ddpg::train_minibatch`], whose kernel-level sharding
    /// is bit-identical to sequential at *every* worker count — that is
    /// the hot path; this method remains as the shard-merge model of
    /// the hardware's gradient-memory reduction.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Ddpg::train_batch`], plus
    /// [`RlError::Worker`] if a pool task panics (contained by the
    /// pool: the process no longer aborts and the pool stays usable).
    pub fn train_batch_parallel(
        &mut self,
        batch: &[&Transition],
        workers: usize,
    ) -> Result<TrainMetrics, RlError> {
        if workers <= 1 || batch.len() < 2 {
            return self.train_batch(batch);
        }
        let b = batch.len();
        let scale = 1.0 / b as f64;
        let gamma = S::from_f64(self.cfg.gamma);
        let shard_len = b.div_ceil(workers.min(b));
        let shards: Vec<&[&Transition]> = batch.chunks(shard_len).collect();
        let par = Parallelism::with_workers(workers);

        // Phase A — TD targets and critic gradients, one task per shard.
        struct CriticShard<S: Scalar> {
            grads: MlpGrads<S>,
            actor_t_qat: QatRuntime,
            critic_t_qat: QatRuntime,
            critic_qat: QatRuntime,
            loss: f64,
            q_sum: f64,
        }
        let actor_target = &self.actor_target;
        let critic_target = &self.critic_target;
        let critic = &self.critic;
        let state_dim = self.state_dim;
        let base_actor_t_qat = &self.actor_target_qat;
        let base_critic_t_qat = &self.critic_target_qat;
        let base_critic_qat = &self.critic_qat;

        let shard_results: Vec<CriticShard<S>> = pool_shard_map(
            &par,
            &shards,
            |_, shard| -> Result<CriticShard<S>, RlError> {
                let mut actor_t_qat = base_actor_t_qat.clone();
                let mut critic_t_qat = base_critic_t_qat.clone();
                let mut critic_qat = base_critic_qat.clone();
                let mut grads = MlpGrads::zeros_like(critic);
                let mut loss = 0.0;
                let mut q_sum = 0.0;
                for t in *shard {
                    let s_next: Vec<S> = t.next_state.iter().map(|&v| S::from_f64(v)).collect();
                    let a_next = actor_target.forward_qat(&s_next, &mut actor_t_qat)?.output;
                    let mut critic_in = s_next;
                    critic_in.extend_from_slice(&a_next);
                    let q_next = critic_target
                        .forward_qat(&critic_in, &mut critic_t_qat)?
                        .output[0];
                    let bootstrap = if t.terminal {
                        S::zero()
                    } else {
                        gamma * q_next
                    };
                    let y = S::from_f64(t.reward) + bootstrap;

                    let mut input: Vec<S> = t.state.iter().map(|&v| S::from_f64(v)).collect();
                    input.extend(t.action.iter().map(|&v| S::from_f64(v)));
                    let trace = critic.forward_qat(&input, &mut critic_qat)?;
                    let q = trace.output[0];
                    q_sum += q.to_f64();
                    let td = q.to_f64() - y.to_f64();
                    loss += 0.5 * td * td * scale;
                    let dl = [(q - y) * S::from_f64(scale)];
                    critic.backward(&trace, &dl, &mut grads)?;
                }
                Ok(CriticShard {
                    grads,
                    actor_t_qat,
                    critic_t_qat,
                    critic_qat,
                    loss,
                    q_sum,
                })
            },
        )?;

        self.critic_grads.reset();
        let mut critic_loss = 0.0;
        let mut q_sum = 0.0;
        // Ascending-shard merge into the shared gradient buffer.
        for shard in shard_results {
            self.critic_grads.accumulate(&shard.grads);
            self.actor_target_qat
                .merge_from(&shard.actor_t_qat)
                .map_err(fixar_nn::NnError::Precision)?;
            self.critic_target_qat
                .merge_from(&shard.critic_t_qat)
                .map_err(fixar_nn::NnError::Precision)?;
            self.critic_qat
                .merge_from(&shard.critic_qat)
                .map_err(fixar_nn::NnError::Precision)?;
            critic_loss += shard.loss;
            q_sum += shard.q_sum;
        }
        self.critic_opt.step(&mut self.critic, &self.critic_grads)?;

        // Phase B — actor gradients against the freshly updated critic.
        struct ActorShard<S: Scalar> {
            grads: MlpGrads<S>,
            actor_qat: QatRuntime,
            critic_qat: QatRuntime,
        }
        let actor = &self.actor;
        let critic = &self.critic;
        let base_actor_qat = &self.actor_qat;
        let base_critic_qat = &self.critic_qat;
        let minus_scale = [S::from_f64(-scale)];

        let shard_results: Vec<ActorShard<S>> = pool_shard_map(
            &par,
            &shards,
            |_, shard| -> Result<ActorShard<S>, RlError> {
                let mut actor_qat = base_actor_qat.clone();
                let mut critic_qat = base_critic_qat.clone();
                let mut grads = MlpGrads::zeros_like(actor);
                let mut scratch = MlpGrads::zeros_like(critic);
                for t in *shard {
                    let s: Vec<S> = t.state.iter().map(|&v| S::from_f64(v)).collect();
                    let atrace = actor.forward_qat(&s, &mut actor_qat)?;
                    let mut critic_in = s;
                    critic_in.extend_from_slice(&atrace.output);
                    let ctrace = critic.forward_qat(&critic_in, &mut critic_qat)?;
                    let dq_dinput = critic.backward(&ctrace, &minus_scale, &mut scratch)?;
                    let dq_da = &dq_dinput[state_dim..];
                    actor.backward(&atrace, dq_da, &mut grads)?;
                }
                Ok(ActorShard {
                    grads,
                    actor_qat,
                    critic_qat,
                })
            },
        )?;

        self.actor_grads.reset();
        for shard in shard_results {
            self.actor_grads.accumulate(&shard.grads);
            self.actor_qat
                .merge_from(&shard.actor_qat)
                .map_err(fixar_nn::NnError::Precision)?;
            self.critic_qat
                .merge_from(&shard.critic_qat)
                .map_err(fixar_nn::NnError::Precision)?;
        }
        self.actor_opt.step(&mut self.actor, &self.actor_grads)?;

        self.actor_target
            .soft_update_from(&self.actor, self.cfg.tau)?;
        self.critic_target
            .soft_update_from(&self.critic, self.cfg.tau)?;

        self.train_steps += 1;
        Ok(TrainMetrics {
            critic_loss,
            mean_q: q_sum * scale,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixar_fixed::Fx32;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn toy_batch(rng: &mut StdRng, n: usize) -> Vec<Transition> {
        (0..n)
            .map(|_| Transition {
                state: vec![rng.gen_range(-1.0..1.0); 3],
                action: vec![rng.gen_range(-1.0..1.0)],
                reward: rng.gen_range(-1.0..1.0),
                next_state: vec![rng.gen_range(-1.0..1.0); 3],
                terminal: rng.gen_bool(0.1),
            })
            .collect()
    }

    #[test]
    fn construction_validates() {
        let mut bad = DdpgConfig::small_test();
        bad.batch_size = 0;
        assert!(Ddpg::<f64>::new(3, 1, bad).is_err());
        assert!(Ddpg::<f64>::new(0, 1, DdpgConfig::small_test()).is_err());
        let mut bad_qat = DdpgConfig::small_test();
        bad_qat.qat = Some(QatSchedule::uniform(10, 0));
        assert!(Ddpg::<f64>::new(3, 1, bad_qat).is_err());
    }

    #[test]
    fn uniform_policy_schedule_is_bit_identical_to_legacy() {
        // A Uniform precision policy is the redesigned spelling of the
        // legacy global-bits schedule: same runtimes, same weights.
        let mut rng = StdRng::seed_from_u64(33);
        let data = toy_batch(&mut rng, 16);
        let refs: Vec<&Transition> = data.iter().collect();
        let legacy_cfg = DdpgConfig::small_test().with_qat(1, 16);
        let policy_cfg = DdpgConfig::small_test().with_qat_policies(
            1,
            PrecisionPolicy::Uniform { bits: 16 },
            PrecisionPolicy::Uniform { bits: 16 },
        );
        let mut legacy = Ddpg::<Fx32>::new(3, 1, legacy_cfg).unwrap();
        let mut policy = Ddpg::<Fx32>::new(3, 1, policy_cfg).unwrap();
        for agent in [&mut legacy, &mut policy] {
            agent.act(&[0.1, 0.2, 0.3]).unwrap();
            agent.train_batch(&refs).unwrap();
            assert!(agent.on_timestep(2).unwrap());
            agent.train_batch(&refs).unwrap();
        }
        assert_eq!(legacy.actor(), policy.actor());
        assert_eq!(legacy.critic(), policy.critic());
    }

    #[test]
    fn mixed_precision_gives_actor_and_critic_different_widths() {
        let cfg = DdpgConfig::small_test().with_mixed_precision_qat(1, 8, 16);
        let mut agent = Ddpg::<Fx32>::new(3, 1, cfg).unwrap();
        agent.act(&[0.1, 0.2, 0.3]).unwrap();
        let mut rng = StdRng::seed_from_u64(34);
        let data = toy_batch(&mut rng, 8);
        let refs: Vec<&Transition> = data.iter().collect();
        agent.train_batch(&refs).unwrap();
        assert!(agent.on_timestep(2).unwrap());
        let actor_fmt = agent.actor_qat_runtime().point_format(0).unwrap();
        assert_eq!(actor_fmt.total_bits(), 8);
        let critic_fmt = agent.critic_qat.point_format(0).unwrap();
        assert_eq!(critic_fmt.total_bits(), 16);
    }

    #[test]
    fn act_produces_bounded_actions() {
        let mut agent = Ddpg::<f64>::new(3, 2, DdpgConfig::small_test()).unwrap();
        let a = agent.act(&[0.5, -0.5, 1.0]).unwrap();
        assert_eq!(a.len(), 2);
        assert!(a.iter().all(|v| (-1.0..=1.0).contains(v)));
    }

    #[test]
    fn train_batch_reduces_critic_loss_on_fixed_data() {
        let mut rng = StdRng::seed_from_u64(0);
        let data = toy_batch(&mut rng, 16);
        let refs: Vec<&Transition> = data.iter().collect();
        let mut agent = Ddpg::<f64>::new(3, 1, DdpgConfig::small_test()).unwrap();
        let first = agent.train_batch(&refs).unwrap();
        let mut last = first;
        for _ in 0..200 {
            last = agent.train_batch(&refs).unwrap();
        }
        assert!(
            last.critic_loss < first.critic_loss,
            "critic loss should fall: {} -> {}",
            first.critic_loss,
            last.critic_loss
        );
        assert_eq!(agent.train_steps(), 201);
    }

    #[test]
    fn fixed32_training_also_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = toy_batch(&mut rng, 16);
        let refs: Vec<&Transition> = data.iter().collect();
        let mut cfg = DdpgConfig::small_test();
        cfg.critic_lr = 1e-3;
        let mut agent = Ddpg::<Fx32>::new(3, 1, cfg).unwrap();
        let first = agent.train_batch(&refs).unwrap();
        let mut last = first;
        for _ in 0..200 {
            last = agent.train_batch(&refs).unwrap();
        }
        assert!(
            last.critic_loss < first.critic_loss,
            "fixed-point critic loss should fall: {} -> {}",
            first.critic_loss,
            last.critic_loss
        );
    }

    #[test]
    fn qat_schedule_freezes_at_delay() {
        let cfg = DdpgConfig::small_test().with_qat(100, 16);
        let mut agent = Ddpg::<Fx32>::new(3, 1, cfg).unwrap();
        assert_eq!(agent.qat_mode(), QatMode::Calibrate);
        // Generate observations so calibration has data.
        agent.act(&[0.1, 0.2, 0.3]).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let data = toy_batch(&mut rng, 8);
        let refs: Vec<&Transition> = data.iter().collect();
        agent.train_batch(&refs).unwrap();

        assert!(!agent.on_timestep(99).unwrap());
        assert!(!agent.qat_frozen());
        assert!(agent.on_timestep(100).unwrap());
        assert!(agent.qat_frozen());
        assert_eq!(agent.qat_mode(), QatMode::Quantize);
        // Idempotent afterwards.
        assert!(!agent.on_timestep(101).unwrap());
        // Training continues in quantized mode.
        agent.train_batch(&refs).unwrap();
    }

    #[test]
    fn freeze_defers_until_calibration_data_exists() {
        let cfg = DdpgConfig::small_test().with_qat(0, 16);
        let mut agent = Ddpg::<Fx32>::new(3, 1, cfg).unwrap();
        // No forward pass has run: the switch waits instead of erroring.
        assert!(!agent.on_timestep(0).unwrap());
        assert!(!agent.qat_frozen());
        // Give every runtime (online + target) data, then it completes.
        agent.act(&[0.1, 0.2, 0.3]).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let data = toy_batch(&mut rng, 8);
        let refs: Vec<&Transition> = data.iter().collect();
        agent.train_batch(&refs).unwrap();
        assert!(agent.on_timestep(1).unwrap());
        assert!(agent.qat_frozen());
    }

    #[test]
    fn no_qat_modes_never_freeze() {
        let mut agent = Ddpg::<f64>::new(3, 1, DdpgConfig::small_test()).unwrap();
        assert_eq!(agent.qat_mode(), QatMode::Off);
        assert!(!agent.on_timestep(1_000_000).unwrap());
        assert!(!agent.qat_frozen());
    }

    #[test]
    fn empty_batch_is_an_error() {
        let mut agent = Ddpg::<f64>::new(3, 1, DdpgConfig::small_test()).unwrap();
        assert!(matches!(
            agent.train_batch(&[]),
            Err(RlError::ReplayUnderflow { .. })
        ));
    }

    #[test]
    fn parallel_one_worker_is_bit_identical_to_sequential() {
        let mut rng = StdRng::seed_from_u64(7);
        let data = toy_batch(&mut rng, 16);
        let refs: Vec<&Transition> = data.iter().collect();
        let mut seq = Ddpg::<Fx32>::new(3, 1, DdpgConfig::small_test()).unwrap();
        let mut par = seq.clone();
        for _ in 0..5 {
            let a = seq.train_batch(&refs).unwrap();
            let b = par.train_batch_parallel(&refs, 1).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(seq.actor(), par.actor());
        assert_eq!(seq.critic(), par.critic());
    }

    #[test]
    fn parallel_workers_deterministic_and_close_to_sequential() {
        let mut rng = StdRng::seed_from_u64(8);
        let data = toy_batch(&mut rng, 32);
        let refs: Vec<&Transition> = data.iter().collect();

        // Determinism: two 4-worker runs agree exactly despite thread
        // scheduling (shard-order merges).
        let mut a = Ddpg::<Fx32>::new(3, 1, DdpgConfig::small_test()).unwrap();
        let mut b = a.clone();
        for _ in 0..3 {
            a.train_batch_parallel(&refs, 4).unwrap();
            b.train_batch_parallel(&refs, 4).unwrap();
        }
        assert_eq!(a.actor(), b.actor());
        assert_eq!(a.critic(), b.critic());

        // Fidelity: the shard-merged gradients stay numerically close to
        // the sequential reference (differences only from saturating
        // accumulation order).
        let mut seq = Ddpg::<Fx32>::new(3, 1, DdpgConfig::small_test()).unwrap();
        for _ in 0..3 {
            seq.train_batch(&refs).unwrap();
        }
        for l in 0..seq.actor().num_layers() {
            for (x, y) in seq
                .actor()
                .weight(l)
                .as_slice()
                .iter()
                .zip(a.actor().weight(l).as_slice())
            {
                assert!(
                    (x.to_f64() - y.to_f64()).abs() < 1e-4,
                    "layer {l}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn minibatch_update_is_bit_identical_to_per_sample_fx32() {
        let mut rng = StdRng::seed_from_u64(13);
        let data = toy_batch(&mut rng, 24);
        let refs: Vec<&Transition> = data.iter().collect();
        let batch = TransitionBatch::from_transitions(&refs).unwrap();

        let mut per_sample = Ddpg::<Fx32>::new(3, 1, DdpgConfig::small_test()).unwrap();
        let mut batched = per_sample.clone();
        for step in 0..5 {
            let a = per_sample.train_batch(&refs).unwrap();
            let b = batched.train_minibatch(&batch).unwrap();
            assert_eq!(a, b, "metrics diverged at step {step}");
        }
        assert_eq!(per_sample.actor(), batched.actor(), "actor weights");
        assert_eq!(per_sample.critic(), batched.critic(), "critic weights");
        assert_eq!(per_sample.train_steps(), batched.train_steps());
    }

    #[test]
    fn minibatch_update_is_bit_identical_in_f64_and_under_qat() {
        let mut rng = StdRng::seed_from_u64(14);
        let data = toy_batch(&mut rng, 16);
        let refs: Vec<&Transition> = data.iter().collect();
        let batch = TransitionBatch::from_transitions(&refs).unwrap();

        // Plain f64.
        let mut a = Ddpg::<f64>::new(3, 1, DdpgConfig::small_test()).unwrap();
        let mut b = a.clone();
        for _ in 0..3 {
            a.train_batch(&refs).unwrap();
            b.train_minibatch(&batch).unwrap();
        }
        assert_eq!(a.actor(), b.actor());

        // QAT: calibrate, freeze, then train quantized — both paths.
        let cfg = DdpgConfig::small_test().with_qat(1, 16);
        let mut qa = Ddpg::<Fx32>::new(3, 1, cfg).unwrap();
        let mut qb = qa.clone();
        qa.act(&[0.1, 0.2, 0.3]).unwrap();
        qb.act(&[0.1, 0.2, 0.3]).unwrap();
        qa.train_batch(&refs).unwrap();
        qb.train_minibatch(&batch).unwrap();
        assert!(qa.on_timestep(2).unwrap());
        assert!(qb.on_timestep(2).unwrap());
        qa.train_batch(&refs).unwrap();
        qb.train_minibatch(&batch).unwrap();
        assert_eq!(qa.actor(), qb.actor(), "QAT actor weights");
        assert_eq!(qa.critic(), qb.critic(), "QAT critic weights");
    }

    #[test]
    fn minibatch_empty_batch_is_an_error() {
        let mut agent = Ddpg::<f64>::new(3, 1, DdpgConfig::small_test()).unwrap();
        let empty = TransitionBatch::from_transitions(&[]).unwrap();
        assert!(matches!(
            agent.train_minibatch(&empty),
            Err(RlError::ReplayUnderflow { .. })
        ));
    }

    #[test]
    fn zero_workers_rejected_by_config() {
        let mut cfg = DdpgConfig::small_test();
        cfg.parallel_workers = 0;
        assert!(Ddpg::<f64>::new(3, 1, cfg).is_err());
    }

    #[test]
    fn parallel_training_works_under_qat() {
        let cfg = DdpgConfig::small_test().with_qat(1, 16);
        let mut agent = Ddpg::<Fx32>::new(3, 1, cfg).unwrap();
        agent.act(&[0.1, 0.2, 0.3]).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let data = toy_batch(&mut rng, 16);
        let refs: Vec<&Transition> = data.iter().collect();
        agent.train_batch_parallel(&refs, 2).unwrap();
        assert!(agent.on_timestep(2).unwrap());
        // Quantized phase also trains in parallel.
        agent.train_batch_parallel(&refs, 2).unwrap();
        assert_eq!(agent.train_steps(), 2);
    }

    #[test]
    fn shard_map_panics_become_typed_errors_not_aborts() {
        // The satellite contract: a panicking pool task must surface as
        // RlError::Worker (process intact, pool reusable), not abort
        // through an expect().
        let par = Parallelism::with_workers(2);
        let items = [0usize, 1, 2, 3];
        let err = pool_shard_map(&par, &items, |idx, &item| {
            if idx == 1 {
                panic!("injected shard failure {item}");
            }
            Ok(item * 10)
        })
        .unwrap_err();
        match &err {
            RlError::Worker(msg) => {
                assert!(msg.contains("injected shard failure"), "got: {msg}")
            }
            other => panic!("expected RlError::Worker, got {other:?}"),
        }
        // The pool survives: the same handle runs clean work afterwards,
        // merged in ascending item order.
        let ok = pool_shard_map(&par, &items, |_, &item| Ok(item * 10)).unwrap();
        assert_eq!(ok, vec![0, 10, 20, 30]);
        // Shard-level Err values (not panics) propagate too.
        let err = pool_shard_map(&par, &items, |idx, &item| {
            if idx == 2 {
                Err(RlError::InvalidConfig("bad shard".into()))
            } else {
                Ok(item)
            }
        })
        .unwrap_err();
        assert!(matches!(err, RlError::InvalidConfig(_)));
    }

    #[test]
    fn pooled_minibatch_bit_exact_across_worker_counts() {
        // The tentpole contract end to end: kernel-sharded
        // train_minibatch produces bit-identical Fx32 weights at every
        // worker count — equal to the sequential batched path and to
        // the per-sample reference.
        let mut rng = StdRng::seed_from_u64(21);
        let data = toy_batch(&mut rng, 24);
        let refs: Vec<&Transition> = data.iter().collect();
        let batch = TransitionBatch::from_transitions(&refs).unwrap();

        let mut reference = Ddpg::<Fx32>::new(3, 1, DdpgConfig::small_test()).unwrap();
        let mut sequential = reference.clone();
        sequential.set_parallelism(Parallelism::sequential());
        let mut pooled: Vec<Ddpg<Fx32>> = [2, 3, 8]
            .iter()
            .map(|&w| {
                let mut agent = reference.clone();
                agent.set_parallelism(Parallelism::with_workers(w));
                agent
            })
            .collect();
        for step in 0..4 {
            let m_ref = reference.train_batch(&refs).unwrap();
            let m_seq = sequential.train_minibatch(&batch).unwrap();
            assert_eq!(m_ref, m_seq, "sequential metrics at step {step}");
            for agent in pooled.iter_mut() {
                let m = agent.train_minibatch(&batch).unwrap();
                assert_eq!(m_ref, m, "pooled metrics at step {step}");
            }
        }
        for agent in &pooled {
            assert_eq!(sequential.actor(), agent.actor(), "actor weights");
            assert_eq!(sequential.critic(), agent.critic(), "critic weights");
        }
        assert_eq!(reference.actor(), sequential.actor());
    }

    #[test]
    fn parallelism_handle_resolves_from_config() {
        let mut cfg = DdpgConfig::small_test();
        cfg.parallel_workers = 3;
        let agent = Ddpg::<f64>::new(3, 1, cfg).unwrap();
        // Unless FIXAR_WORKERS overrides it, the config count sticks.
        if std::env::var(fixar_pool::WORKERS_ENV).is_err() {
            assert_eq!(agent.parallelism().workers(), 3);
            assert!(agent.parallelism().pool().is_some());
        } else {
            assert!(agent.parallelism().workers() >= 1);
        }
    }

    #[test]
    fn paper_network_shapes() {
        // HalfCheetah: actor 17-400-300-6, critic 23-400-300-1.
        let agent = Ddpg::<f32>::new(17, 6, DdpgConfig::default()).unwrap();
        assert_eq!(agent.actor().layer_sizes(), &[17, 400, 300, 6]);
        assert_eq!(agent.critic().layer_sizes(), &[23, 400, 300, 1]);
        // Combined model ≈ 1.05 MB of 32-bit parameters (paper's weight
        // memory sizing).
        let bytes = agent.actor().model_bytes() + agent.critic().model_bytes();
        assert!((bytes as f64 / 1e6 - 1.038).abs() < 0.02, "bytes={bytes}");
    }
}
