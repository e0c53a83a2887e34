//! TD3 — Twin Delayed DDPG (Fujimoto et al. 2018), the strongest of the
//! "DDPG variants" the paper cites as FIXAR's algorithm family.
//!
//! Three changes over DDPG, all of which map onto the same accelerator
//! primitives (the critic is simply instantiated twice):
//!
//! 1. **Clipped double-Q**: two critics; TD targets bootstrap from the
//!    *minimum* of the two target critics, fighting overestimation.
//! 2. **Target policy smoothing**: clipped Gaussian noise on the target
//!    action when forming targets.
//! 3. **Delayed policy updates**: the actor and the target networks
//!    update once every `policy_delay` critic updates.
//!
//! Like [`Ddpg`](crate::Ddpg), the agent is generic over the numeric
//! backend, so TD3 can be trained in 32-bit fixed-point, and the QAT
//! schedule of Algorithm 1 is wired through all six networks (actor,
//! twin critics, and their targets) — set [`Td3Config::qat`] and drive
//! [`Td3::on_timestep`] exactly as with DDPG. Per-network
//! [`PrecisionPolicy`] support (mixed-precision actors/critics) carries
//! over unchanged.

use fixar_fixed::Scalar;
use fixar_nn::{
    Activation, Adam, AdamConfig, Mlp, MlpConfig, MlpGrads, PrecisionPolicy, QatMode, QatRuntime,
};
use fixar_pool::Parallelism;
use fixar_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ddpg::{QatSchedule, TrainMetrics};
use crate::error::RlError;
use crate::replay::{Transition, TransitionBatch};

/// TD3 hyperparameters (defaults follow Fujimoto et al.).
#[derive(Debug, Clone, PartialEq)]
pub struct Td3Config {
    /// Hidden-layer widths (FIXAR's 400 and 300 by default).
    pub hidden: (usize, usize),
    /// Discount factor γ.
    pub gamma: f64,
    /// Target soft-update rate τ.
    pub tau: f64,
    /// Actor learning rate.
    pub actor_lr: f64,
    /// Critic learning rate (both critics).
    pub critic_lr: f64,
    /// Adam epsilon (see [`AdamConfig`]).
    pub adam_eps: f64,
    /// Target-policy smoothing noise standard deviation.
    pub target_noise_sigma: f64,
    /// Clip bound for the smoothing noise.
    pub target_noise_clip: f64,
    /// Critic updates per actor/target update.
    pub policy_delay: u64,
    /// Seed for weight init and smoothing noise.
    pub seed: u64,
    /// Worker threads for kernel-level parallel training (see
    /// `DdpgConfig::parallel_workers`); the `FIXAR_WORKERS` environment
    /// variable overrides it at agent construction.
    pub parallel_workers: usize,
    /// Quantization-aware-training schedule, as
    /// [`DdpgConfig::qat`](crate::DdpgConfig::qat): `None` trains full
    /// precision; `Some` calibrates all six networks during the delay
    /// window and freezes them per the schedule's precision policies.
    pub qat: Option<QatSchedule>,
}

impl Default for Td3Config {
    fn default() -> Self {
        Self {
            hidden: (400, 300),
            gamma: 0.99,
            tau: 0.005,
            actor_lr: 1e-4,
            critic_lr: 1e-4,
            adam_eps: 1e-4,
            target_noise_sigma: 0.2,
            target_noise_clip: 0.5,
            policy_delay: 2,
            seed: 0,
            parallel_workers: 1,
            qat: None,
        }
    }
}

impl Td3Config {
    /// Tiny configuration for debug-mode tests.
    pub fn small_test() -> Self {
        Self {
            hidden: (16, 12),
            ..Self::default()
        }
    }

    /// Builder-style uniform QAT schedule (default 1.5× headroom) — the
    /// TD3 twin of [`DdpgConfig::with_qat`](crate::DdpgConfig::with_qat).
    pub fn with_qat(mut self, delay: u64, bits: u32) -> Self {
        self.qat = Some(QatSchedule::uniform(delay, bits));
        self
    }

    /// Builder-style QAT schedule with explicit per-network precision
    /// policies (actor side covers the actor and its target; critic
    /// side covers both twins and their targets).
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

    /// Builder-style mixed-precision QAT (`actor_bits`-bit actor,
    /// `critic_bits`-bit twin critics).
    pub fn with_mixed_precision_qat(self, delay: u64, actor_bits: u32, critic_bits: u32) -> Self {
        self.with_qat_policies(
            delay,
            PrecisionPolicy::Uniform { bits: actor_bits },
            PrecisionPolicy::Uniform { bits: critic_bits },
        )
    }

    fn validate(&self) -> Result<(), RlError> {
        if self.policy_delay == 0 {
            return Err(RlError::InvalidConfig("policy_delay must be >= 1".into()));
        }
        if self.parallel_workers == 0 {
            return Err(RlError::InvalidConfig(
                "parallel_workers must be at least 1".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.gamma) || !(0.0..=1.0).contains(&self.tau) {
            return Err(RlError::InvalidConfig(
                "gamma and tau must be in [0, 1]".into(),
            ));
        }
        if self.target_noise_sigma < 0.0 || self.target_noise_clip < 0.0 {
            return Err(RlError::InvalidConfig(
                "noise parameters must be non-negative".into(),
            ));
        }
        if let Some(q) = &self.qat {
            if q.bits == 0 || q.bits > 31 {
                return Err(RlError::InvalidConfig(format!(
                    "qat bits must be 1..=31, got {}",
                    q.bits
                )));
            }
        }
        Ok(())
    }
}

/// The TD3 agent: one actor, twin critics, and their targets.
///
/// # Example
///
/// ```
/// use fixar_rl::{Td3, Td3Config};
///
/// let mut agent = Td3::<f32>::new(3, 1, Td3Config::small_test())?;
/// let action = agent.act(&[0.1, -0.2, 0.3])?;
/// assert_eq!(action.len(), 1);
/// # Ok::<(), fixar_rl::RlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Td3<S: Scalar> {
    actor: Mlp<S>,
    critic1: Mlp<S>,
    critic2: Mlp<S>,
    actor_target: Mlp<S>,
    critic1_target: Mlp<S>,
    critic2_target: Mlp<S>,
    actor_opt: Adam<S>,
    critic1_opt: Adam<S>,
    critic2_opt: Adam<S>,
    actor_grads: MlpGrads<S>,
    critic_grads: MlpGrads<S>,
    /// Second gradient buffer so both twin critics can accumulate
    /// inside one fused backward scope (disjoint outputs).
    critic2_grads: MlpGrads<S>,
    actor_qat: QatRuntime,
    critic1_qat: QatRuntime,
    critic2_qat: QatRuntime,
    actor_target_qat: QatRuntime,
    critic1_target_qat: QatRuntime,
    critic2_target_qat: QatRuntime,
    cfg: Td3Config,
    par: Parallelism,
    state_dim: usize,
    action_dim: usize,
    rng: StdRng,
    critic_updates: u64,
    qat_frozen: bool,
}

impl<S: Scalar> Td3<S> {
    /// Builds the agent.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::InvalidConfig`] for malformed configurations or
    /// zero dimensions.
    pub fn new(state_dim: usize, action_dim: usize, cfg: Td3Config) -> Result<Self, RlError> {
        cfg.validate()?;
        if state_dim == 0 || action_dim == 0 {
            return Err(RlError::InvalidConfig(
                "state and action dimensions must be positive".into(),
            ));
        }
        let (h1, h2) = cfg.hidden;
        let actor = Mlp::new_random(
            &MlpConfig::new(vec![state_dim, h1, h2, action_dim])
                .with_output_activation(Activation::Tanh),
            cfg.seed,
        )?;
        let critic_cfg = MlpConfig::new(vec![state_dim + action_dim, h1, h2, 1]);
        let critic1 = Mlp::new_random(&critic_cfg, cfg.seed.wrapping_add(1))?;
        let critic2 = Mlp::new_random(&critic_cfg, cfg.seed.wrapping_add(2))?;
        let adam = |lr: f64, net: &Mlp<S>| {
            Adam::new(
                net,
                AdamConfig {
                    lr,
                    eps: cfg.adam_eps,
                    ..AdamConfig::default()
                },
            )
        };
        let apoints = actor.num_layers() + 1;
        let cpoints = critic1.num_layers() + 1;
        let make_qat = |n: usize, policy: PrecisionPolicy, q: &QatSchedule| {
            QatRuntime::builder(n)
                .policy(policy)
                .headroom(q.headroom)
                // As in DDPG, the final point (Q-value / host-bound
                // action) is a regression output, not a hidden
                // activation — it stays full precision.
                .exclude_point(n - 1)
                .build()
                .map_err(fixar_nn::NnError::Precision)
                .map_err(RlError::from)
        };
        let (aq, c1q, c2q, atq, c1tq, c2tq) = match &cfg.qat {
            Some(q) => (
                make_qat(apoints, q.actor_policy(), q)?,
                make_qat(cpoints, q.critic_policy(), q)?,
                make_qat(cpoints, q.critic_policy(), q)?,
                make_qat(apoints, q.actor_policy(), q)?,
                make_qat(cpoints, q.critic_policy(), q)?,
                make_qat(cpoints, q.critic_policy(), q)?,
            ),
            None => (
                QatRuntime::disabled(apoints),
                QatRuntime::disabled(cpoints),
                QatRuntime::disabled(cpoints),
                QatRuntime::disabled(apoints),
                QatRuntime::disabled(cpoints),
                QatRuntime::disabled(cpoints),
            ),
        };
        Ok(Self {
            actor_target: actor.clone(),
            critic1_target: critic1.clone(),
            critic2_target: critic2.clone(),
            actor_opt: adam(cfg.actor_lr, &actor),
            critic1_opt: adam(cfg.critic_lr, &critic1),
            critic2_opt: adam(cfg.critic_lr, &critic2),
            actor_grads: MlpGrads::zeros_like(&actor),
            critic_grads: MlpGrads::zeros_like(&critic1),
            critic2_grads: MlpGrads::zeros_like(&critic2),
            actor_qat: aq,
            critic1_qat: c1q,
            critic2_qat: c2q,
            actor_target_qat: atq,
            critic1_target_qat: c1tq,
            critic2_target_qat: c2tq,
            actor,
            critic1,
            critic2,
            par: Parallelism::from_env_or(cfg.parallel_workers),
            rng: StdRng::seed_from_u64(cfg.seed.wrapping_add(0x7d3)),
            cfg,
            state_dim,
            action_dim,
            critic_updates: 0,
            qat_frozen: false,
        })
    }

    /// Action dimension.
    pub fn action_dim(&self) -> usize {
        self.action_dim
    }

    /// The online actor.
    pub fn actor(&self) -> &Mlp<S> {
        &self.actor
    }

    /// Both online critics.
    pub fn critics(&self) -> (&Mlp<S>, &Mlp<S>) {
        (&self.critic1, &self.critic2)
    }

    /// Critic updates performed so far.
    pub fn critic_updates(&self) -> u64 {
        self.critic_updates
    }

    /// The parallelism handle driving the batched kernels.
    pub fn parallelism(&self) -> &Parallelism {
        &self.par
    }

    /// Replaces the parallelism handle (any worker count yields
    /// bit-identical training results; only throughput changes).
    pub fn set_parallelism(&mut self, par: Parallelism) {
        self.par = par;
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

    /// Advances the QAT schedule across all **six** runtimes (actor,
    /// twin critics, and their targets) — the TD3 twin of
    /// [`Ddpg::on_timestep`](crate::Ddpg::on_timestep): once
    /// `global_step` reaches the delay, every runtime with calibration
    /// data freezes per its precision policy; stragglers freeze on the
    /// first later step at which they have data. Returns `true` on the
    /// step the switch completes for all six.
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
            &mut self.critic1_qat,
            &mut self.critic2_qat,
            &mut self.actor_target_qat,
            &mut self.critic1_target_qat,
            &mut self.critic2_target_qat,
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

    /// Actor inference. During QAT calibration this also feeds the
    /// activation range monitors, exactly like [`Ddpg::act`](crate::Ddpg::act).
    ///
    /// # Errors
    ///
    /// Returns [`RlError::Nn`] on dimension mismatch.
    pub fn act(&mut self, state: &[f64]) -> Result<Vec<f64>, RlError> {
        let s: Vec<S> = state.iter().map(|&v| S::from_f64(v)).collect();
        let trace = self.actor.forward_qat(&s, &mut self.actor_qat)?;
        Ok(trace.output.iter().map(|v| v.to_f64()).collect())
    }

    /// Batched actor inference for a fleet of environments — the TD3
    /// twin of [`Ddpg::select_actions_batch`](crate::Ddpg::select_actions_batch):
    /// one observation per row, one pool-parallel batched forward pass,
    /// row `i` bit-identical to [`Td3::act`]`(states.row(i))`.
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

    /// One clipped Gaussian smoothing-noise draw (two uniforms through
    /// Box–Muller). Both the per-sample and the batched update draw
    /// through this single helper, so their RNG consumption — part of
    /// the bit-exactness contract — cannot drift apart.
    fn smoothing_noise(&mut self) -> f64 {
        let n: f64 = {
            let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = self.rng.gen_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        };
        (n * self.cfg.target_noise_sigma)
            .clamp(-self.cfg.target_noise_clip, self.cfg.target_noise_clip)
    }

    /// Clipped double-Q TD target for one transition.
    fn td_target(&mut self, t: &Transition, gamma: S) -> Result<S, RlError> {
        let s_next: Vec<S> = t.next_state.iter().map(|&v| S::from_f64(v)).collect();
        let mut a_next = self
            .actor_target
            .forward_qat(&s_next, &mut self.actor_target_qat)?
            .output;
        // Target policy smoothing: clipped Gaussian noise, then clamp the
        // action back into the tanh range (noise drawn per element in
        // ascending order — the RNG contract shared with the batched
        // path).
        let noises: Vec<f64> = (0..a_next.len()).map(|_| self.smoothing_noise()).collect();
        for (a, noise) in a_next.iter_mut().zip(noises) {
            let v = (a.to_f64() + noise).clamp(-1.0, 1.0);
            *a = S::from_f64(v);
        }
        let mut critic_in = s_next;
        critic_in.extend_from_slice(&a_next);
        let q1 = self
            .critic1_target
            .forward_qat(&critic_in, &mut self.critic1_target_qat)?
            .output[0];
        let q2 = self
            .critic2_target
            .forward_qat(&critic_in, &mut self.critic2_target_qat)?
            .output[0];
        let q_min = q1.min(q2);
        let bootstrap = if t.terminal { S::zero() } else { gamma * q_min };
        Ok(S::from_f64(t.reward) + bootstrap)
    }

    /// One TD3 training update with the minibatch flowing through the
    /// stack as batch matrices (the TD3 analogue of
    /// [`Ddpg::train_minibatch`](crate::Ddpg::train_minibatch)).
    ///
    /// The smoothing-noise RNG is consumed in exactly the per-sample
    /// order (ascending sample, then ascending action dimension), and
    /// gradients accumulate in ascending sample order, so the update is
    /// **bit-identical** to [`Td3::train_batch`] on the same batch from
    /// the same agent state, in every backend.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::ReplayUnderflow`] for an empty batch and
    /// [`RlError::Nn`] on shape mismatches.
    pub fn train_minibatch(&mut self, batch: &TransitionBatch) -> Result<TrainMetrics, RlError> {
        self.train_minibatch_weighted(batch, None).map(|(m, _)| m)
    }

    /// [`Td3::train_minibatch`] with optional per-sample importance
    /// weights — the TD3 twin of
    /// [`Ddpg::train_minibatch_weighted`](crate::Ddpg::train_minibatch_weighted):
    /// `weights[i]` scales sample `i`'s contribution to **both** twin
    /// critics' regression; the delayed actor/target updates stay
    /// unweighted. Returns the metrics and the per-sample TD errors of
    /// critic 1 (the critic that leads the actor), for priority
    /// feedback.
    ///
    /// With `weights == None` this is *exactly* [`Td3::train_minibatch`]
    /// — the unweighted loss expressions are untouched, so the
    /// uniform-strategy bit-exactness contract with
    /// [`Td3::train_batch`] carries over unchanged.
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
            return Err(RlError::ReplayUnderflow { have: 0, need: 1 });
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
        let par = self.par.clone();

        // Clipped double-Q targets: batched target-actor pass,
        // per-sample noise draws in the per-sample RNG order, then the
        // twin *target* critics — two independent networks on the same
        // smoothed batch — as ONE fused scope per layer instead of two
        // back-to-back batched passes (the heterogeneous-scheduling
        // tentpole at work; outputs are disjoint, per-element chains
        // untouched, so the min-bootstrap is bit-identical).
        let s_next: Matrix<S> = batch.next_states().cast();
        let mut a_next = self
            .actor_target
            .forward_batch_qat_par(&s_next, &mut self.actor_target_qat, &self.par)?
            .output;
        for i in 0..b {
            for k in 0..self.action_dim {
                let noise = self.smoothing_noise();
                let v = (a_next[(i, k)].to_f64() + noise).clamp(-1.0, 1.0);
                a_next[(i, k)] = S::from_f64(v);
            }
        }
        let target_in = s_next.hcat(&a_next).map_err(fixar_nn::NnError::Shape)?;
        let q_next = fixar_nn::forward_batch_qat_fused(
            &mut [
                fixar_nn::FusedForward {
                    mlp: &self.critic1_target,
                    input: &target_in,
                    qat: &mut self.critic1_target_qat,
                },
                fixar_nn::FusedForward {
                    mlp: &self.critic2_target,
                    input: &target_in,
                    qat: &mut self.critic2_target_qat,
                },
            ],
            &par,
        )?;
        let targets: Vec<S> = (0..b)
            .map(|i| {
                let q_min = q_next[0].output[(i, 0)].min(q_next[1].output[(i, 0)]);
                let bootstrap = if batch.terminals()[i] {
                    S::zero()
                } else {
                    gamma * q_min
                };
                S::from_f64(batch.rewards()[i]) + bootstrap
            })
            .collect();

        // Both critics regress toward the shared clipped targets: the
        // twin forwards fuse (one scope per layer), the losses and TD
        // errors accumulate in the sequential order (critic 1's samples
        // then critic 2's), and the twin backwards fuse — each critic
        // owning its gradient buffer, so all four per-layer kernels
        // (2× outer product, 2× error MVM) share a single join.
        let states: Matrix<S> = batch.states().cast();
        let actions: Matrix<S> = batch.actions().cast();
        let critic_in = states.hcat(&actions).map_err(fixar_nn::NnError::Shape)?;
        let mut critic_loss = 0.0;
        let mut q_sum = 0.0;
        let mut td_errors = Vec::with_capacity(b);
        self.critic_grads.reset();
        self.critic2_grads.reset();
        let traces = fixar_nn::forward_batch_qat_fused(
            &mut [
                fixar_nn::FusedForward {
                    mlp: &self.critic1,
                    input: &critic_in,
                    qat: &mut self.critic1_qat,
                },
                fixar_nn::FusedForward {
                    mlp: &self.critic2,
                    input: &critic_in,
                    qat: &mut self.critic2_qat,
                },
            ],
            &par,
        )?;
        let mut dls = [Matrix::<S>::zeros(b, 1), Matrix::<S>::zeros(b, 1)];
        for critic_idx in 0..2 {
            let trace = &traces[critic_idx];
            let dl = &mut dls[critic_idx];
            for (i, &y) in targets.iter().enumerate() {
                let q = trace.output[(i, 0)];
                if critic_idx == 0 {
                    q_sum += q.to_f64();
                }
                let td = q.to_f64() - y.to_f64();
                if critic_idx == 0 {
                    td_errors.push(td);
                }
                match weights {
                    None => {
                        critic_loss += 0.5 * td * td * scale * 0.5;
                        dl[(i, 0)] = (q - y) * S::from_f64(scale);
                    }
                    Some(w) => {
                        critic_loss += 0.5 * w[i] * td * td * scale * 0.5;
                        dl[(i, 0)] = (q - y) * S::from_f64(w[i] * scale);
                    }
                }
            }
        }
        let [dl1, dl2] = &dls;
        fixar_nn::backward_batch_fused(
            &mut [
                fixar_nn::FusedBackward {
                    mlp: &self.critic1,
                    trace: &traces[0],
                    dl_dout: dl1,
                    grads: Some(&mut self.critic_grads),
                },
                fixar_nn::FusedBackward {
                    mlp: &self.critic2,
                    trace: &traces[1],
                    dl_dout: dl2,
                    grads: Some(&mut self.critic2_grads),
                },
            ],
            &par,
        )?;
        self.critic1_opt
            .step(&mut self.critic1, &self.critic_grads)?;
        self.critic2_opt
            .step(&mut self.critic2, &self.critic2_grads)?;
        self.critic_updates += 1;

        // Delayed policy and target updates (through critic 1 only).
        if self.critic_updates.is_multiple_of(self.cfg.policy_delay) {
            self.actor_grads.reset();
            let atrace =
                self.actor
                    .forward_batch_qat_par(&states, &mut self.actor_qat, &self.par)?;
            let policy_in = states
                .hcat(&atrace.output)
                .map_err(fixar_nn::NnError::Shape)?;
            let ctrace =
                self.critic1
                    .forward_batch_qat_par(&policy_in, &mut self.critic1_qat, &self.par)?;
            // Input gradient only: critic 1's parameter gradients of
            // this pass would be discarded, so they are never formed.
            let minus_scale = Matrix::from_fn(b, 1, |_, _| S::from_f64(-scale));
            let dq_dinput = fixar_nn::backward_batch_fused(
                &mut [fixar_nn::FusedBackward {
                    mlp: &self.critic1,
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
            self.actor_target
                .soft_update_from(&self.actor, self.cfg.tau)?;
            self.critic1_target
                .soft_update_from(&self.critic1, self.cfg.tau)?;
            self.critic2_target
                .soft_update_from(&self.critic2, self.cfg.tau)?;
        }

        Ok((
            TrainMetrics {
                critic_loss,
                mean_q: q_sum * scale,
            },
            td_errors,
        ))
    }

    /// One TD3 training update from a batch, one sample at a time — the
    /// bit-exactness reference for [`Td3::train_minibatch`]. Critics
    /// update every call; the actor and targets update every
    /// `policy_delay` calls.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::ReplayUnderflow`] for an empty batch and
    /// [`RlError::Nn`] on shape mismatches.
    pub fn train_batch(&mut self, batch: &[&Transition]) -> Result<TrainMetrics, RlError> {
        if batch.is_empty() {
            return Err(RlError::ReplayUnderflow { have: 0, need: 1 });
        }
        let b = batch.len();
        let scale = 1.0 / b as f64;
        let gamma = S::from_f64(self.cfg.gamma);

        let mut targets = Vec::with_capacity(b);
        for t in batch {
            targets.push(self.td_target(t, gamma)?);
        }

        // Both critics regress toward the shared clipped targets.
        let mut critic_loss = 0.0;
        let mut q_sum = 0.0;
        for critic_idx in 0..2 {
            self.critic_grads.reset();
            for (t, &y) in batch.iter().zip(&targets) {
                let mut input: Vec<S> = t.state.iter().map(|&v| S::from_f64(v)).collect();
                input.extend(t.action.iter().map(|&v| S::from_f64(v)));
                let (critic, qat) = if critic_idx == 0 {
                    (&self.critic1, &mut self.critic1_qat)
                } else {
                    (&self.critic2, &mut self.critic2_qat)
                };
                let trace = critic.forward_qat(&input, qat)?;
                let q = trace.output[0];
                if critic_idx == 0 {
                    q_sum += q.to_f64();
                }
                let td = q.to_f64() - y.to_f64();
                critic_loss += 0.5 * td * td * scale * 0.5;
                let dl = [(q - y) * S::from_f64(scale)];
                if critic_idx == 0 {
                    self.critic1.backward(&trace, &dl, &mut self.critic_grads)?;
                } else {
                    self.critic2.backward(&trace, &dl, &mut self.critic_grads)?;
                }
            }
            if critic_idx == 0 {
                self.critic1_opt
                    .step(&mut self.critic1, &self.critic_grads)?;
            } else {
                self.critic2_opt
                    .step(&mut self.critic2, &self.critic_grads)?;
            }
        }
        self.critic_updates += 1;

        // Delayed policy and target updates (through critic 1 only, per
        // the TD3 paper).
        if self.critic_updates.is_multiple_of(self.cfg.policy_delay) {
            // Critic 1's parameter gradients of this pass are discarded.
            self.actor_grads.reset();
            let mut critic_scratch = MlpGrads::zeros_like(&self.critic1);
            let minus_scale = [S::from_f64(-scale)];
            for t in batch {
                let s: Vec<S> = t.state.iter().map(|&v| S::from_f64(v)).collect();
                let atrace = self.actor.forward_qat(&s, &mut self.actor_qat)?;
                let mut critic_in = s;
                critic_in.extend_from_slice(&atrace.output);
                let ctrace = self
                    .critic1
                    .forward_qat(&critic_in, &mut self.critic1_qat)?;
                let dq_dinput =
                    self.critic1
                        .backward(&ctrace, &minus_scale, &mut critic_scratch)?;
                let dq_da = &dq_dinput[self.state_dim..];
                self.actor.backward(&atrace, dq_da, &mut self.actor_grads)?;
            }
            self.actor_opt.step(&mut self.actor, &self.actor_grads)?;
            self.actor_target
                .soft_update_from(&self.actor, self.cfg.tau)?;
            self.critic1_target
                .soft_update_from(&self.critic1, self.cfg.tau)?;
            self.critic2_target
                .soft_update_from(&self.critic2, self.cfg.tau)?;
        }

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

    fn toy_batch(n: usize) -> Vec<Transition> {
        let mut rng = StdRng::seed_from_u64(0);
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
        let mut bad = Td3Config::small_test();
        bad.policy_delay = 0;
        assert!(Td3::<f64>::new(3, 1, bad).is_err());
        assert!(Td3::<f64>::new(0, 1, Td3Config::small_test()).is_err());
        assert!(Td3::<f64>::new(3, 1, Td3Config::small_test()).is_ok());
    }

    #[test]
    fn actor_updates_are_delayed() {
        let data = toy_batch(8);
        let refs: Vec<&Transition> = data.iter().collect();
        let mut agent = Td3::<f64>::new(3, 1, Td3Config::small_test()).unwrap();
        let actor_before = agent.actor().clone();
        // First critic update: policy_delay = 2, so the actor must not move.
        agent.train_batch(&refs).unwrap();
        assert_eq!(agent.actor(), &actor_before, "actor updated too early");
        // Second: now it moves.
        agent.train_batch(&refs).unwrap();
        assert_ne!(agent.actor(), &actor_before, "actor never updated");
        assert_eq!(agent.critic_updates(), 2);
    }

    #[test]
    fn twin_critics_diverge_from_different_seeds_then_both_learn() {
        let data = toy_batch(16);
        let refs: Vec<&Transition> = data.iter().collect();
        let mut agent = Td3::<f64>::new(3, 1, Td3Config::small_test()).unwrap();
        let (c1, c2) = agent.critics();
        assert_ne!(c1, c2, "twin critics must start differently");
        let first = agent.train_batch(&refs).unwrap();
        let mut last = first;
        for _ in 0..150 {
            last = agent.train_batch(&refs).unwrap();
        }
        assert!(
            last.critic_loss < first.critic_loss,
            "TD3 critics should fit: {} -> {}",
            first.critic_loss,
            last.critic_loss
        );
    }

    #[test]
    fn td3_trains_in_fixed_point() {
        let data = toy_batch(16);
        let refs: Vec<&Transition> = data.iter().collect();
        let mut cfg = Td3Config::small_test();
        cfg.critic_lr = 1e-3;
        let mut agent = Td3::<Fx32>::new(3, 1, cfg).unwrap();
        let first = agent.train_batch(&refs).unwrap();
        let mut last = first;
        for _ in 0..150 {
            last = agent.train_batch(&refs).unwrap();
        }
        assert!(last.critic_loss < first.critic_loss);
    }

    #[test]
    fn clipped_double_q_never_exceeds_single_q() {
        // The TD3 target uses min(Q1', Q2'): for any transition it is at
        // most what either single critic would bootstrap.
        let mut agent = Td3::<f64>::new(3, 1, Td3Config::small_test()).unwrap();
        let data = toy_batch(8);
        let gamma = agent.cfg.gamma;
        for t in &data {
            if t.terminal {
                continue;
            }
            let y = agent.td_target(t, gamma).unwrap();
            // Recompute both single-critic bootstraps with smoothing off
            // for an upper bound (noise is clipped, actions clamped, so
            // the min-property still holds per draw; we check against a
            // fresh draw being bounded by max of the two critics).
            let s_next: Vec<f64> = t.next_state.clone();
            let a_next = agent.act(&s_next).unwrap(); // online actor ≈ target at init
            let mut ci = s_next;
            ci.extend(a_next);
            let q1 = agent.critic1_target.forward(&ci).unwrap()[0];
            let q2 = agent.critic2_target.forward(&ci).unwrap()[0];
            let upper = t.reward + gamma * q1.max(q2) + 0.2; // smoothing slack
            assert!(y <= upper, "target {y} above loose bound {upper}");
        }
    }

    #[test]
    fn minibatch_update_is_bit_identical_to_per_sample() {
        let data = toy_batch(20);
        let refs: Vec<&Transition> = data.iter().collect();
        let batch = TransitionBatch::from_transitions(&refs).unwrap();

        // Fx32 and f64: same agent state, same RNG stream, same batch —
        // both paths must agree bit-for-bit across several updates
        // (including the delayed actor update at step 2).
        let mut a32 = Td3::<Fx32>::new(3, 1, Td3Config::small_test()).unwrap();
        let mut b32 = a32.clone();
        for step in 0..4 {
            let ma = a32.train_batch(&refs).unwrap();
            let mb = b32.train_minibatch(&batch).unwrap();
            assert_eq!(ma, mb, "Fx32 metrics diverged at step {step}");
        }
        assert_eq!(a32.actor(), b32.actor());
        assert_eq!(a32.critics(), b32.critics());

        let mut a64 = Td3::<f64>::new(3, 1, Td3Config::small_test()).unwrap();
        let mut b64 = a64.clone();
        for _ in 0..4 {
            a64.train_batch(&refs).unwrap();
            b64.train_minibatch(&batch).unwrap();
        }
        assert_eq!(a64.actor(), b64.actor());
        assert_eq!(a64.critic_updates(), b64.critic_updates());
    }

    #[test]
    fn pooled_td3_minibatch_bit_exact_across_worker_counts() {
        let data = toy_batch(20);
        let refs: Vec<&Transition> = data.iter().collect();
        let batch = TransitionBatch::from_transitions(&refs).unwrap();

        let mut reference = Td3::<Fx32>::new(3, 1, Td3Config::small_test()).unwrap();
        let mut pooled: Vec<Td3<Fx32>> = [1, 2, 4, 8]
            .iter()
            .map(|&w| {
                let mut agent = reference.clone();
                agent.set_parallelism(Parallelism::with_workers(w));
                agent
            })
            .collect();
        // Four updates so the delayed actor update fires twice.
        for step in 0..4 {
            let m_ref = reference.train_batch(&refs).unwrap();
            for agent in pooled.iter_mut() {
                let m = agent.train_minibatch(&batch).unwrap();
                assert_eq!(m_ref, m, "metrics diverged at step {step}");
            }
        }
        for agent in &pooled {
            assert_eq!(reference.actor(), agent.actor());
            assert_eq!(reference.critics(), agent.critics());
        }
    }

    #[test]
    fn minibatch_empty_batch_is_an_error() {
        let mut agent = Td3::<f64>::new(3, 1, Td3Config::small_test()).unwrap();
        let empty = TransitionBatch::from_transitions(&[]).unwrap();
        assert!(agent.train_minibatch(&empty).is_err());
    }

    #[test]
    fn qat_schedule_freezes_all_six_runtimes() {
        let data = toy_batch(16);
        let refs: Vec<&Transition> = data.iter().collect();
        let mut agent = Td3::<f64>::new(3, 1, Td3Config::small_test().with_qat(1, 16)).unwrap();
        assert_eq!(agent.qat_mode(), QatMode::Calibrate);
        // Feed every runtime: the online actor only runs in the delayed
        // policy update, so two critic updates (policy_delay = 2) are
        // needed before all six runtimes have calibration data.
        agent.train_batch(&refs).unwrap();
        agent.train_batch(&refs).unwrap();
        let frozen = agent.on_timestep(2).unwrap();
        assert!(frozen, "all six runtimes had data; freeze must complete");
        assert!(agent.qat_frozen());
        assert_eq!(agent.qat_mode(), QatMode::Quantize);
        // Still trains after the switch.
        agent.train_batch(&refs).unwrap();
    }

    #[test]
    fn qat_minibatch_is_bit_identical_to_per_sample() {
        let data = toy_batch(20);
        let refs: Vec<&Transition> = data.iter().collect();
        let batch = TransitionBatch::from_transitions(&refs).unwrap();
        let mut a = Td3::<Fx32>::new(3, 1, Td3Config::small_test().with_qat(1, 16)).unwrap();
        let mut b = a.clone();
        for step in 0..4 {
            let ma = a.train_batch(&refs).unwrap();
            let mb = b.train_minibatch(&batch).unwrap();
            assert_eq!(ma, mb, "QAT metrics diverged at step {step}");
            a.on_timestep(step + 1).unwrap();
            b.on_timestep(step + 1).unwrap();
            assert_eq!(a.qat_frozen(), b.qat_frozen());
        }
        assert!(a.qat_frozen(), "schedule should have frozen by now");
        assert_eq!(a.actor(), b.actor());
        assert_eq!(a.critics(), b.critics());
    }

    #[test]
    fn mixed_precision_qat_gives_actor_and_critics_different_widths() {
        let data = toy_batch(8);
        let refs: Vec<&Transition> = data.iter().collect();
        let mut agent = Td3::<f64>::new(
            3,
            1,
            Td3Config::small_test().with_mixed_precision_qat(1, 8, 16),
        )
        .unwrap();
        agent.train_batch(&refs).unwrap();
        agent.train_batch(&refs).unwrap();
        assert!(agent.on_timestep(2).unwrap());
        let actor_fmt = agent.actor_qat_runtime().point_format(0).unwrap();
        assert_eq!(actor_fmt.total_bits(), 8);
        for critic_qat in [&agent.critic1_qat, &agent.critic2_qat] {
            let fmt = critic_qat.point_format(0).unwrap();
            assert_eq!(fmt.total_bits(), 16);
        }
    }

    #[test]
    fn bounded_actions() {
        let mut agent = Td3::<f64>::new(4, 2, Td3Config::small_test()).unwrap();
        let a = agent.act(&[5.0, -5.0, 5.0, -5.0]).unwrap();
        assert!(a.iter().all(|v| (-1.0..=1.0).contains(v)));
    }

    #[test]
    fn empty_batch_is_an_error() {
        let mut agent = Td3::<f64>::new(3, 1, Td3Config::small_test()).unwrap();
        assert!(agent.train_batch(&[]).is_err());
    }
}
