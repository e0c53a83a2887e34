//! Layer probes of the traced run: calls into `fixar-nn`, `fixar-tensor`,
//! `fixar-fixed`, `fixar-pool`, `fixar-deploy` and the platform and
//! accelerator models, timed from outside.

use std::error::Error;
use std::hint::black_box;
use std::time::Instant;

use fixar_accel::{AccelConfig, FixarAccelerator, Precision};
use fixar_deploy::PolicyArtifact;
use fixar_fixed::{AffineQuantizer, Fx32, Scalar};
use fixar_nn::{Adam, AdamConfig, Mlp, MlpGrads, QatRuntime};
use fixar_platform::{FixarPlatformModel, HostModel};
use fixar_pool::Parallelism;
use fixar_rl::{Ddpg, TransitionBatch};
use fixar_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::median;
use crate::trace::Tracer;

type Res<T> = Result<T, Box<dyn Error>>;

/// Median µs per update of each network's calls, indexed
/// `[forward, backward, adam, soft_update]`.
pub struct NnTimes {
    pub actor: [f64; 4],
    pub critic: [f64; 4],
    /// The frozen quantizer of the actor's first hidden activation.
    pub quantizer: Option<AffineQuantizer>,
}

/// A QAT runtime shaped like the agent's: the configured policy and
/// headroom, output point excluded.
fn qat_like(agent: &Ddpg<Fx32>, net: &Mlp<Fx32>, actor: bool) -> Res<QatRuntime> {
    let q = agent
        .config()
        .qat
        .clone()
        .ok_or("workloads train with QAT")?;
    let n = net.num_layers() + 1;
    let policy = if actor {
        q.actor_policy()
    } else {
        q.critic_policy()
    };
    Ok(QatRuntime::builder(n)
        .policy(policy)
        .headroom(q.headroom)
        .exclude_point(n - 1)
        .build()?)
}

/// Replays one update's calls (`Mlp::forward_batch_qat_par`,
/// `backward_batch_par`, `Adam::step`, `soft_update_from`) on clones of
/// the agent's networks, in `Ddpg::train_minibatch`'s order, with QAT
/// runtimes calibrated on the batch and frozen first.
pub fn nn(
    agent: &Ddpg<Fx32>,
    batch: &TransitionBatch,
    reps: usize,
    tr: &mut Tracer,
) -> Res<NnTimes> {
    let cfg = agent.config().clone();
    let par = agent.parallelism().clone();
    let (sd, ad) = (agent.state_dim(), agent.action_dim());
    let mut actor = agent.actor().clone();
    let mut critic = agent.critic().clone();
    let mut actor_t = actor.clone();
    let mut critic_t = critic.clone();
    let adam = |lr| AdamConfig {
        lr,
        eps: cfg.adam_eps,
        ..AdamConfig::default()
    };
    let mut actor_opt = Adam::new(&actor, adam(cfg.actor_lr));
    let mut critic_opt = Adam::new(&critic, adam(cfg.critic_lr));
    let mut actor_grads = MlpGrads::zeros_like(&actor);
    let mut critic_grads = MlpGrads::zeros_like(&critic);
    let mut critic_scratch = MlpGrads::zeros_like(&critic);

    let b = batch.len();
    let scale = 1.0 / b as f64;
    let gamma = Fx32::from_f64(cfg.gamma);
    let s_next: Matrix<Fx32> = batch.next_states().cast();
    let states: Matrix<Fx32> = batch.states().cast();
    let actions: Matrix<Fx32> = batch.actions().cast();
    let critic_in = states.hcat(&actions)?;

    let mut qa = qat_like(agent, &actor, true)?;
    let mut qa_t = qat_like(agent, &actor, true)?;
    let mut qc = qat_like(agent, &critic, false)?;
    let mut qc_t = qat_like(agent, &critic, false)?;
    let a_cal = actor.forward_batch_qat_par(&states, &mut qa, &par)?.output;
    actor_t.forward_batch_qat_par(&s_next, &mut qa_t, &par)?;
    critic.forward_batch_qat_par(&critic_in, &mut qc, &par)?;
    critic_t.forward_batch_qat_par(&s_next.hcat(&a_cal)?, &mut qc_t, &par)?;
    for q in [&mut qa, &mut qa_t, &mut qc, &mut qc_t] {
        q.freeze()?;
    }

    // Per network and call kind, the time of every rep.
    let mut per_rep: [[Vec<f64>; 4]; 2] = Default::default();
    for rep in 0..reps {
        let (mut at, mut ct) = ([0.0f64; 4], [0.0f64; 4]);
        let group = rep as u64;
        let root = Some(tr.begin("nn.update", group, None));
        macro_rules! timed {
            ($acc:expr, $name:expr, $e:expr) => {{
                let open = tr.begin($name, group, root);
                let t = Instant::now();
                let r = $e;
                $acc += t.elapsed().as_secs_f64() * 1e6;
                tr.end(open);
                r
            }};
        }
        let a_next = timed!(
            at[0],
            "nn.actor.forward",
            actor_t.forward_batch_qat_par(&s_next, &mut qa_t, &par)
        )?
        .output;
        let trace = timed!(
            ct[0],
            "nn.critic.forward",
            critic.forward_batch_qat_par(&critic_in, &mut qc, &par)
        )?;
        let target_in = s_next.hcat(&a_next)?;
        let q_next = timed!(
            ct[0],
            "nn.critic.forward",
            critic_t.forward_batch_qat_par(&target_in, &mut qc_t, &par)
        )?
        .output;
        let dl = Matrix::from_fn(b, 1, |i, _| {
            let bootstrap = if batch.terminals()[i] {
                Fx32::zero()
            } else {
                gamma * q_next[(i, 0)]
            };
            let y = Fx32::from_f64(batch.rewards()[i]) + bootstrap;
            (trace.output[(i, 0)] - y) * Fx32::from_f64(scale)
        });
        critic_grads.reset();
        timed!(
            ct[1],
            "nn.critic.backward",
            critic.backward_batch_par(&trace, &dl, &mut critic_grads, &par)
        )?;
        timed!(
            ct[2],
            "nn.critic.adam",
            critic_opt.step(&mut critic, &critic_grads)
        )?;
        actor_grads.reset();
        critic_scratch.reset();
        let atrace = timed!(
            at[0],
            "nn.actor.forward",
            actor.forward_batch_qat_par(&states, &mut qa, &par)
        )?;
        let policy_in = states.hcat(&atrace.output)?;
        let ctrace = timed!(
            ct[0],
            "nn.critic.forward",
            critic.forward_batch_qat_par(&policy_in, &mut qc, &par)
        )?;
        let minus = Matrix::from_fn(b, 1, |_, _| Fx32::from_f64(-scale));
        let dq = timed!(
            ct[1],
            "nn.critic.backward",
            critic.backward_batch_par(&ctrace, &minus, &mut critic_scratch, &par)
        )?;
        let dq_da = dq.columns(sd, sd + ad);
        timed!(
            at[1],
            "nn.actor.backward",
            actor.backward_batch_par(&atrace, &dq_da, &mut actor_grads, &par)
        )?;
        timed!(
            at[2],
            "nn.actor.adam",
            actor_opt.step(&mut actor, &actor_grads)
        )?;
        timed!(
            at[3],
            "nn.actor.soft_update",
            actor_t.soft_update_from(&actor, cfg.tau)
        )?;
        timed!(
            ct[3],
            "nn.critic.soft_update",
            critic_t.soft_update_from(&critic, cfg.tau)
        )?;
        if let Some(open) = root {
            tr.end(open);
        }
        for (net, times) in per_rep.iter_mut().zip([at, ct]) {
            for (samples, t) in net.iter_mut().zip(times) {
                samples.push(t);
            }
        }
    }
    let [actor, critic] = per_rep.map(|net| net.map(|mut v| median(&mut v)));
    Ok(NnTimes {
        actor,
        critic,
        quantizer: qa.quantizer(1).cloned(),
    })
}

/// The widest layer, as `(rows, cols)` of its weight matrix.
pub fn widest_layer(nets: &[&Mlp<Fx32>]) -> (usize, usize) {
    nets.iter()
        .flat_map(|n| (0..n.num_layers()).map(|l| n.weight(l).shape()))
        .max_by_key(|&(r, c)| r * c)
        .unwrap_or((1, 1))
}

/// MACs of one timestep's kernels, counted from layer shapes: the act
/// pass over the fleet, and per update two actor and three critic
/// forward passes, two critic and one actor backward pass (each an
/// error MVM plus a gradient outer product per layer).
pub fn macs_per_update(actor: &Mlp<Fx32>, critic: &Mlp<Fx32>, batch: usize, fleet: usize) -> u64 {
    let macs = |n: &Mlp<Fx32>| -> u64 {
        (0..n.num_layers())
            .map(|l| {
                let (r, c) = n.weight(l).shape();
                (r * c) as u64
            })
            .sum()
    };
    let (a, c) = (macs(actor), macs(critic));
    batch as u64 * (2 * a + 3 * c + 2 * (2 * c) + 2 * a) + fleet as u64 * a
}

fn panel(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix<Fx32> {
    Matrix::from_fn(rows, cols, |_, _| Fx32::from_f64(rng.gen_range(-0.5..0.5)))
}

fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&mut v)
}

/// GMAC/s of `gemv_batch`, `gemv_t_batch` and `add_outer_batch` on a
/// `rows × cols` weight at `batch` rows.
pub fn tensor(
    rows: usize,
    cols: usize,
    batch: usize,
    reps: usize,
    tr: &mut Tracer,
) -> Res<[f64; 3]> {
    let mut rng = StdRng::seed_from_u64(0x7e45);
    let w = panel(rows, cols, &mut rng);
    let a = panel(batch, cols, &mut rng);
    let e = panel(batch, rows, &mut rng);
    let mut y = Matrix::zeros(batch, rows);
    let mut yt = Matrix::zeros(batch, cols);
    let mut g = Matrix::zeros(rows, cols);
    let gmacs = |us: f64| (rows * cols * batch) as f64 / us / 1e3;
    let mut err = None;
    let mut run = |name: &'static str,
                   tr: &mut Tracer,
                   f: &mut dyn FnMut() -> Result<(), fixar_tensor::ShapeError>| {
        let us = median_us(reps, || {
            let open = tr.begin(name, 0, None);
            if let Err(e) = f() {
                err = Some(e);
            }
            tr.end(open);
        });
        gmacs(us)
    };
    let out = [
        run("tensor.gemv_batch", tr, &mut || {
            w.gemv_batch(black_box(&a), &mut y)
        }),
        run("tensor.gemv_t_batch", tr, &mut || {
            w.gemv_t_batch(black_box(&e), &mut yt)
        }),
        run("tensor.add_outer_batch", tr, &mut || {
            g.add_outer_batch(black_box(&e), &a)
        }),
    ];
    match err {
        Some(e) => Err(e.into()),
        None => Ok(out),
    }
}

/// ns per element of the frozen quantizer and of `tanh` on a
/// `batch × width` activation panel.
pub fn fixed(
    q: &AffineQuantizer,
    width: usize,
    batch: usize,
    reps: usize,
    tr: &mut Tracer,
) -> [f64; 2] {
    let mut rng = StdRng::seed_from_u64(0xf1ed);
    let src: Vec<Fx32> = (0..width * batch)
        .map(|_| Fx32::from_f64(rng.gen_range(-2.0..2.0)))
        .collect();
    let mut buf = src.clone();
    let n = src.len() as f64;
    let mut per_elem = |name: &'static str, f: &dyn Fn(&mut [Fx32])| {
        let mut v: Vec<f64> = (0..reps)
            .map(|_| {
                buf.copy_from_slice(&src);
                let open = tr.begin(name, 0, None);
                let t = Instant::now();
                f(black_box(&mut buf));
                let ns = t.elapsed().as_secs_f64() * 1e9 / n;
                tr.end(open);
                ns
            })
            .collect();
        median(&mut v)
    };
    [
        per_elem("fixed.quantize", &|xs| q.fake_quantize_slice(xs)),
        per_elem("fixed.tanh", &|xs| {
            xs.iter_mut().for_each(|x| *x = x.tanh())
        }),
    ]
}

/// µs to open and join a two-task scope on a 2-worker pool.
pub fn pool_scope_join(reps: usize, tr: &mut Tracer) -> Res<f64> {
    let par = Parallelism::with_workers(2);
    let pool = par.pool().ok_or("a 2-worker handle has a pool")?;
    let mut err = None;
    let us = median_us(reps, || {
        let open = tr.begin("pool.scope_join", 0, None);
        let r = pool.scope(|s| {
            s.execute(|| {
                black_box(1u64);
            });
            s.execute(|| {
                black_box(2u64);
            });
        });
        tr.end(open);
        if let Err(e) = r {
            err = Some(e);
        }
    });
    match err {
        Some(e) => Err(e.into()),
        None => Ok(us),
    }
}

pub struct DeployTimes {
    pub infer_us: f64,
    pub infer_raw_us: f64,
    pub decode_ms: f64,
    pub blob_bytes: f64,
    pub affine_table_frac: f64,
}

/// `PolicyArtifact::infer`, `infer_raw` and `decode`, and the blob's
/// table statistics.
pub fn deploy(
    art: &PolicyArtifact,
    obs: &[Vec<f64>],
    reps: usize,
    tr: &mut Tracer,
) -> Res<DeployTimes> {
    let raw: Vec<Vec<i32>> = obs
        .iter()
        .map(|o| o.iter().map(|&x| Fx32::from_f64(x).raw()).collect())
        .collect();
    let mut err = None;
    let mut i = 0usize;
    let infer_us = median_us(reps, || {
        i += 1;
        let open = tr.begin("deploy.infer", i as u64, None);
        if let Err(e) = art.infer(black_box(&obs[i % obs.len()])) {
            err = Some(e);
        }
        tr.end(open);
    });
    let infer_raw_us = median_us(reps, || {
        i += 1;
        let open = tr.begin("deploy.infer_raw", i as u64, None);
        if let Err(e) = art.infer_raw(black_box(&raw[i % raw.len()])) {
            err = Some(e);
        }
        tr.end(open);
    });
    let blob = art.encode();
    let decode_ms = median_us(5, || {
        let open = tr.begin("deploy.decode", 0, None);
        if let Err(e) = PolicyArtifact::decode(black_box(&blob)) {
            err = Some(e);
        }
        tr.end(open);
    }) / 1e3;
    if let Some(e) = err {
        return Err(e.into());
    }
    let stats = art.blob_stats();
    Ok(DeployTimes {
        infer_us,
        infer_raw_us,
        decode_ms,
        blob_bytes: stats.bytes as f64,
        affine_table_frac: if stats.table_points == 0 {
            0.0
        } else {
            stats.tables_affine as f64 / stats.table_points as f64
        },
    })
}

/// Model predictions at the workload's batch, in the post-QAT phase:
/// the platform model's IPS for the paper's 400-300 networks on this
/// environment, and the accelerator's share of a timestep for the
/// workload's own networks (cycles from `FixarAccelerator`, host time
/// from the default `HostModel`).
pub struct ModelView {
    pub platform_ips: f64,
    pub accel_share: f64,
}

pub fn model(actor: &Mlp<Fx32>, critic: &Mlp<Fx32>, batch: usize) -> Res<ModelView> {
    let platform = FixarPlatformModel::for_benchmark(actor.input_dim(), actor.output_dim())?;
    let platform_ips = platform.breakdown_batched(batch, Precision::Half16)?.ips();
    let mut accel = FixarAccelerator::new(AccelConfig::default())?;
    accel.load_ddpg(actor, critic)?;
    let accel_s = accel
        .train_timestep_cycles_batched(batch, Precision::Half16)?
        .seconds;
    let host = HostModel::default();
    let total = host.env_time_s + host.runtime_s(batch) + accel_s;
    Ok(ModelView {
        platform_ips,
        accel_share: accel_s / total,
    })
}
