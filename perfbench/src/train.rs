//! The training workloads: `VecTrainer::run`'s timestep sequence driven
//! by hand, so every call into `fixar-rl` and `fixar-env` can carry a
//! span, and the output gate that holds the hand-driven loop to the
//! library trainer bit for bit.

use std::time::Instant;

use fixar_env::{EnvKind, EnvPool, Environment};
use fixar_fixed::Fx32;
use fixar_pool::Parallelism;
use fixar_rl::{
    action_stream_seed, priority_stream_seed, replay_stream_seed, Ddpg, DdpgConfig,
    ExplorationNoise, GaussianNoise, PrioritizedConfig, ReplayBuffer, ReplaySampler,
    ReplayStrategy, RlError, SampledBatch, Transition, VecTrainer,
};
use fixar_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{digest_nets, favourable_quartile, percentile};
use crate::trace::Tracer;

/// One training regime. The warmup fills replay exactly to capacity
/// with uniform random actions, so the timed region starts on a full
/// buffer whose working set no longer grows.
#[derive(Debug, Clone, Copy)]
pub struct TrainSpec {
    pub kind: EnvKind,
    pub fleet: usize,
    pub hidden: (usize, usize),
    pub batch: usize,
    pub prioritized: bool,
    pub qat_bits: u32,
    /// Warmup fleet steps; replay capacity is `warmup × fleet`.
    pub warmup: u64,
    /// Updates after set-up at which the checkpoint digest is taken.
    pub checkpoint: u64,
}

/// Paper-scale DDPG on HalfCheetah: 400-300 networks, batch 64, one env.
pub const PAPER: TrainSpec = TrainSpec {
    kind: EnvKind::HalfCheetah,
    fleet: 1,
    hidden: (400, 300),
    batch: 64,
    prioritized: false,
    qat_bits: 16,
    warmup: 1024,
    checkpoint: 16,
};

/// Small networks on a 16-env Hopper fleet with prioritized replay.
pub const FLEET: TrainSpec = TrainSpec {
    kind: EnvKind::Hopper,
    fleet: 16,
    hidden: (64, 48),
    batch: 64,
    prioritized: true,
    qat_bits: 8,
    warmup: 1024,
    checkpoint: 256,
};

impl TrainSpec {
    pub fn capacity(&self) -> usize {
        self.warmup as usize * self.fleet
    }

    /// The agent configuration: QAT calibrates through the warmup and
    /// its delay falls at the end of it, so the freeze completes on the
    /// first step after the first update.
    pub fn config(&self, seed: u64) -> DdpgConfig {
        let cfg = DdpgConfig {
            hidden: self.hidden,
            batch_size: self.batch,
            replay_capacity: self.capacity(),
            warmup_steps: self.warmup,
            seed,
            parallel_workers: 1,
            ..DdpgConfig::default()
        }
        .with_qat(self.warmup, self.qat_bits);
        if self.prioritized {
            cfg.with_replay(ReplayStrategy::Prioritized(PrioritizedConfig::default()))
        } else {
            cfg
        }
    }

    fn env_seed(seed: u64) -> u64 {
        seed ^ 0x00e5_eed0_f1ee_7000
    }

    pub fn pool(&self, seed: u64) -> EnvPool {
        EnvPool::from_kind(self.kind, self.fleet, Self::env_seed(seed))
    }

    pub fn eval_env(&self, seed: u64) -> Box<dyn Environment> {
        self.kind.make(Self::env_seed(seed).wrapping_add(1))
    }

    /// Set-up steps: the warmup plus the one calibration update.
    pub fn setup_steps(&self) -> u64 {
        self.warmup + 1
    }
}

/// The state `VecTrainer` keeps, rebuilt from the same public seeds.
pub struct Loop {
    spec: TrainSpec,
    pool: EnvPool,
    pub agent: Ddpg<Fx32>,
    pub replay: ReplayBuffer,
    sampler: ReplaySampler,
    scratch: SampledBatch,
    noises: Vec<GaussianNoise>,
    action_rngs: Vec<StdRng>,
    replay_rng: StdRng,
    priority_rng: StdRng,
    actions: Matrix<f64>,
    /// Fleet steps taken.
    pub steps: u64,
    /// Minibatch updates applied.
    pub updates: u64,
    /// Digest of actor and critic after `spec.checkpoint` timed updates.
    pub checkpoint_digest: Option<u64>,
}

/// Wall time of each timestep of a timed region.
pub struct Timed {
    pub updates: u64,
    pub step_us: Vec<f64>,
}

/// Timed regions report window statistics over windows of consecutive
/// steps lasting about this many seconds.
const WINDOW_S: f64 = 1.0;

impl Timed {
    /// The paper's IPS (updates × batch ÷ seconds; every timed step
    /// updates once), and the p50 and p99 step latency, each the
    /// favourable quartile over windows.
    pub fn summary(&self, batch: usize) -> (f64, f64, f64) {
        let mut windows: Vec<Vec<f64>> = vec![Vec::new()];
        let mut filled = 0.0;
        for &us in &self.step_us {
            if filled >= WINDOW_S * 1e6 {
                windows.push(Vec::new());
                filled = 0.0;
            }
            windows.last_mut().expect("starts with one window").push(us);
            filled += us;
        }
        // A short last window joins the one before it.
        if windows.len() > 1 && filled < WINDOW_S * 1e6 {
            let last = windows.pop().expect("more than one window");
            windows
                .last_mut()
                .expect("more than one window")
                .extend(last);
        }
        let (mut ips, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
        for w in windows.iter_mut().filter(|w| !w.is_empty()) {
            let secs = w.iter().sum::<f64>() / 1e6;
            ips.push((w.len() * batch) as f64 / secs);
            p50.push(percentile(w, 0.5));
            p99.push(percentile(w, 0.99));
        }
        (
            favourable_quartile(&mut ips, true),
            favourable_quartile(&mut p50, false),
            favourable_quartile(&mut p99, false),
        )
    }
}

impl Loop {
    pub fn new(spec: TrainSpec, seed: u64) -> Result<Self, RlError> {
        let cfg = spec.config(seed);
        let mut pool = spec.pool(seed);
        let (obs_dim, action_dim) = (pool.spec().obs_dim, pool.spec().action_dim);
        let agent = Ddpg::new(obs_dim, action_dim, cfg.clone())?;
        pool.reset_all();
        Ok(Self {
            spec,
            replay: ReplayBuffer::with_dims(cfg.replay_capacity, obs_dim, action_dim),
            sampler: ReplaySampler::new(cfg.replay, cfg.replay_capacity),
            scratch: SampledBatch::scratch(),
            noises: (0..spec.fleet)
                .map(|_| GaussianNoise::new(action_dim, cfg.exploration_sigma))
                .collect(),
            action_rngs: (0..spec.fleet)
                .map(|i| StdRng::seed_from_u64(action_stream_seed(seed, i)))
                .collect(),
            replay_rng: StdRng::seed_from_u64(replay_stream_seed(seed)),
            priority_rng: StdRng::seed_from_u64(priority_stream_seed(seed)),
            actions: Matrix::zeros(spec.fleet, action_dim),
            pool,
            agent,
            steps: 0,
            updates: 0,
            checkpoint_digest: None,
        })
    }

    /// Builds the agent, fills replay and fires the QAT freeze, so that
    /// every later update runs the post-QAT path.
    pub fn setup(spec: TrainSpec, seed: u64, tr: &mut Tracer) -> Result<Self, RlError> {
        let mut lp = Self::new(spec, seed)?;
        for _ in 0..spec.setup_steps() {
            lp.step(tr)?;
        }
        // The next step's own `on_timestep` would fire the freeze; firing
        // it here moves it into set-up and makes that call a no-op.
        lp.agent.on_timestep(lp.steps + 1)?;
        if !lp.agent.qat_frozen() {
            return Err(RlError::InvalidConfig(
                "QAT did not freeze in set-up".into(),
            ));
        }
        Ok(lp)
    }

    /// One fleet step, in `VecTrainer::run`'s lockstep order.
    pub fn step(&mut self, tr: &mut Tracer) -> Result<(), RlError> {
        let local = self.steps + 1;
        let root = tr.begin("rl.timestep", local, None);
        let parent = Some(root);
        self.agent.on_timestep(local)?;
        let states = self.pool.observations().clone();
        let agent = &mut self.agent;
        let policy = tr.span("rl.act", local, parent, || {
            agent.select_actions_batch(&states)
        })?;
        self.fill_actions(local, &policy);
        let (pool, actions) = (&mut self.pool, &self.actions);
        let fs = tr.span("env.step", local, parent, || pool.step(actions));
        let open = tr.begin("rl.replay_push", local, parent);
        for r in 0..self.spec.fleet {
            let slot = self.replay.push(Transition {
                state: states.row(r).to_vec(),
                action: self.actions.row(r).to_vec(),
                reward: fs.rewards[r],
                next_state: fs.next_observations.row(r).to_vec(),
                terminal: fs.terminated[r],
            });
            self.sampler.on_insert(slot);
            if fs.terminated[r] || fs.truncated[r] {
                self.noises[r].reset();
            }
        }
        tr.end(open);
        if local > self.spec.warmup {
            let par = self.agent.parallelism().clone();
            let rng = if self.sampler.is_prioritized() {
                &mut self.priority_rng
            } else {
                &mut self.replay_rng
            };
            let batch = self.spec.batch;
            let (sampler, replay, scratch) = (&mut self.sampler, &self.replay, &mut self.scratch);
            let sampled = tr.span("rl.replay_sample", local, parent, || {
                sampler.sample_into(replay, batch, rng, &par, scratch)
            });
            if sampled {
                let (agent, scratch) = (&mut self.agent, &self.scratch);
                let (_, tds) = tr.span("rl.train_update", local, parent, || {
                    agent.train_minibatch_weighted(&scratch.batch, scratch.weights.as_deref())
                })?;
                let sampler = &mut self.sampler;
                tr.span("rl.priority_update", local, parent, || {
                    sampler.update_priorities(&scratch.indices, &tds)
                });
                self.updates += 1;
                if self.updates == 1 + self.spec.checkpoint {
                    self.checkpoint_digest = Some(self.digest());
                }
            }
        }
        self.steps = local;
        tr.end(root);
        Ok(())
    }

    /// `VecTrainer`'s action fill: uniform warmup draws, then policy
    /// plus per-slot exploration noise, each slot on its own stream.
    fn fill_actions(&mut self, local: u64, policy: &Matrix<f64>) {
        for r in 0..policy.rows() {
            if local <= self.spec.warmup {
                for d in 0..policy.cols() {
                    self.actions[(r, d)] = self.action_rngs[r].gen_range(-1.0..1.0);
                }
            } else {
                let noise = self.noises[r].sample(&mut self.action_rngs[r]);
                for d in 0..policy.cols() {
                    self.actions[(r, d)] = (policy[(r, d)] + noise[d]).clamp(-1.0, 1.0);
                }
            }
        }
    }

    /// Steps until `seconds` of wall time have passed.
    pub fn run_for(&mut self, seconds: f64, tr: &mut Tracer) -> Result<Timed, RlError> {
        let updates0 = self.updates;
        let mut step_us = Vec::new();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            let t = Instant::now();
            self.step(tr)?;
            step_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        Ok(Timed {
            updates: self.updates - updates0,
            step_us,
        })
    }

    /// Digest of the online actor and critic.
    pub fn digest(&self) -> u64 {
        digest_nets(&[self.agent.actor(), self.agent.critic()])
    }
}

/// The training gate: the final actor and critic words must hash to
/// the reference digest.
pub fn gate_passes(nets: &[&fixar_nn::Mlp<Fx32>], reference: u64) -> bool {
    digest_nets(nets) == reference
}

/// The reference digest for the training gate: the library's own
/// `VecTrainer::run` over the same number of fleet steps, from the same
/// seed, on a 2-worker pool.
pub fn reference_digest(spec: TrainSpec, seed: u64, fleet_steps: u64) -> Result<u64, RlError> {
    let mut t = VecTrainer::<Fx32>::new(spec.pool(seed), spec.eval_env(seed), spec.config(seed))?;
    t.agent_mut().set_parallelism(Parallelism::with_workers(2));
    t.run(fleet_steps, u64::MAX, 1)?;
    Ok(digest_nets(&[t.agent().actor(), t.agent().critic()]))
}

/// Checkpoint digests recorded with the benchmark, one line
/// `<workload> <seed> <hex digest>` each.
const RECORDED: &str = include_str!("../reference_digests.txt");

pub fn recorded_digest(workload: &str, seed: u64) -> Option<u64> {
    RECORDED.lines().find_map(|line| {
        let mut it = line.split_whitespace();
        let (w, s, d) = (it.next()?, it.next()?, it.next()?);
        (w == workload && s.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: TrainSpec = TrainSpec {
        kind: EnvKind::Hopper,
        fleet: 3,
        hidden: (8, 6),
        batch: 8,
        prioritized: true,
        qat_bits: 8,
        warmup: 16,
        checkpoint: 4,
    };

    #[test]
    fn hand_driven_loop_matches_the_library_trainer_and_a_flipped_word_fails() {
        let mut off = Tracer::new(false, Instant::now());
        let mut lp = Loop::setup(TINY, 5, &mut off).unwrap();
        for _ in 0..12 {
            lp.step(&mut off).unwrap();
        }
        let reference = reference_digest(TINY, 5, lp.steps).unwrap();
        let (actor, critic) = (lp.agent.actor(), lp.agent.critic());
        assert!(gate_passes(&[actor, critic], reference));
        assert!(lp.checkpoint_digest.is_some());

        let mut flipped = actor.clone();
        let w = flipped.weight(1).as_slice()[3].raw();
        flipped.weight_mut(1).as_mut_slice()[3] = Fx32::from_raw(w ^ 1);
        assert!(!gate_passes(&[&flipped, critic], reference));
    }

    #[test]
    fn recorded_digests_cover_seeds_0_to_99() {
        for w in ["train_paper", "train_fleet"] {
            assert!((0..100).all(|s| recorded_digest(w, s).is_some()), "{w}");
        }
        assert!(recorded_digest("serve_artifact", 0).is_some());
        assert_eq!(recorded_digest("train_paper", 100), None);
    }
}
