//! Pipeline-overlap benchmark: what phase-scoped heterogeneous
//! scheduling buys on this host.
//!
//! Two series, both gated on bit-equality before any timing:
//!
//! 1. **Fused vs per-kernel scopes** — the TD3 twin-critic shape
//!    (two 23-400-300-1 critics, Fx32) forward+backward, either as
//!    back-to-back pool-parallel passes (one scope per kernel, the
//!    pre-fusion path) or through the fused drivers (one scope per
//!    layer step hosting both critics' kernels), across worker counts.
//! 2. **Overlapped vs lockstep `VecTrainer`** — env steps/sec of the
//!    double-buffered serving loop against the lockstep loop at fleet
//!    sizes {4, 16, 64}.
//!
//! Environment:
//!
//! * `FIXAR_PIPELINE_BENCH_REPS` — fused-kernel reps per cell
//!   (default 40; CI's bench-smoke job uses a short count);
//! * `FIXAR_PIPELINE_BENCH_STEPS` — timed fleet steps per serving cell
//!   (default 250);
//! * `FIXAR_BENCH_JSON` — when set, also writes the results as a JSON
//!   document (the `BENCH_pipeline_overlap.json` artifact extending the
//!   perf trajectory with a scheduling series).

use fixar_env::{EnvKind, EnvPool};
use fixar_fixed::Fx32;
use fixar_nn::{
    backward_batch_fused, forward_batch_trace_fused, FusedBackward, Mlp, MlpConfig, MlpGrads,
};
use fixar_rl::{DdpgConfig, VecTrainer};
use fixar_tensor::{Matrix, Parallelism};
use std::fmt::Write as _;
use std::time::Instant;

const WORKER_COUNTS: [usize; 3] = [1, 2, 4];
const FLEET_SIZES: [usize; 3] = [4, 16, 64];
const BATCH: usize = 64;

struct KernelRecord {
    workers: usize,
    path: &'static str,
    ns_per_step: f64,
}

struct ServingRecord {
    fleet: usize,
    mode: &'static str,
    steps_per_sec: f64,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

/// One twin-critic training step's compute on the given path; returns
/// the per-step wall clock over `reps` repetitions.
fn time_twin_step(
    c1: &Mlp<Fx32>,
    c2: &Mlp<Fx32>,
    x: &Matrix<Fx32>,
    dl: &Matrix<Fx32>,
    par: &Parallelism,
    fused: bool,
    reps: usize,
) -> f64 {
    let mut g1 = MlpGrads::zeros_like(c1);
    let mut g2 = MlpGrads::zeros_like(c2);
    let t = Instant::now();
    for _ in 0..reps {
        g1.reset();
        g2.reset();
        if fused {
            let traces = forward_batch_trace_fused(&[c1, c2], &[x, x], par).unwrap();
            backward_batch_fused(
                &mut [
                    FusedBackward {
                        mlp: c1,
                        trace: &traces[0],
                        dl_dout: dl,
                        grads: Some(&mut g1),
                    },
                    FusedBackward {
                        mlp: c2,
                        trace: &traces[1],
                        dl_dout: dl,
                        grads: Some(&mut g2),
                    },
                ],
                par,
            )
            .unwrap();
        } else {
            // Pre-fusion shape: each pass (and each backward kernel)
            // joins its own scope.
            let t1 = c1.forward_batch_trace_par(x, par).unwrap();
            let t2 = c2.forward_batch_trace_par(x, par).unwrap();
            c1.backward_batch_par(&t1, dl, &mut g1, par).unwrap();
            c2.backward_batch_par(&t2, dl, &mut g2, par).unwrap();
        }
        std::hint::black_box((&g1, &g2));
    }
    t.elapsed().as_nanos() as f64 / reps as f64
}

/// Env steps/sec of a `VecTrainer` run in the given serving mode.
fn time_serving(fleet: usize, overlap: bool, workers: usize, steps: u64) -> f64 {
    let mut cfg = DdpgConfig::small_test();
    cfg.hidden = (64, 48);
    cfg.warmup_steps = 8;
    let mut t = VecTrainer::<Fx32>::new(
        EnvPool::from_kind(EnvKind::Pendulum, fleet, 0),
        EnvKind::Pendulum.make(99),
        cfg,
    )
    .unwrap();
    t.set_overlap(overlap);
    t.agent_mut()
        .set_parallelism(Parallelism::with_workers(workers));
    // Warm the pipeline (and the replay scratch), then time.
    t.run(10, 10, 1).unwrap();
    let clock = Instant::now();
    t.run(steps, steps, 1).unwrap();
    (steps * fleet as u64) as f64 / clock.elapsed().as_secs_f64()
}

fn main() {
    let reps = env_usize("FIXAR_PIPELINE_BENCH_REPS", 40);
    let steps = env_usize("FIXAR_PIPELINE_BENCH_STEPS", 250) as u64;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "pipeline_overlap: twin 23-400-300-1 critics Fx32 batch {BATCH}, {reps} reps/cell; \
         Pendulum fleet serving, {steps} fleet steps/cell; {cores} host core(s)"
    );

    // --- series 1: fused vs per-kernel scopes -------------------------
    let critic_cfg = MlpConfig::new(vec![23, 400, 300, 1]);
    let c1 = Mlp::<Fx32>::new_random(&critic_cfg, 1).unwrap();
    let c2 = Mlp::<Fx32>::new_random(&critic_cfg, 2).unwrap();
    let x = Matrix::<f64>::from_fn(BATCH, 23, |b, i| ((b * 7 + i * 3) % 17) as f64 * 0.11 - 0.9)
        .cast::<Fx32>();
    let dl = Matrix::<f64>::from_fn(BATCH, 1, |b, _| (b as f64 - 32.0) * 0.002).cast::<Fx32>();

    // Bit-equality gate: fused ≡ per-kernel on every worker count.
    for &workers in &WORKER_COUNTS {
        let par = Parallelism::with_workers(workers);
        let fused = forward_batch_trace_fused(&[&c1, &c2], &[&x, &x], &par).unwrap();
        assert_eq!(fused[0].output, c1.forward_batch(&x).unwrap());
        assert_eq!(fused[1].output, c2.forward_batch(&x).unwrap());
    }

    let mut kernel_records = Vec::new();
    for &workers in &WORKER_COUNTS {
        let par = Parallelism::with_workers(workers);
        for (path, fused) in [("per_kernel", false), ("fused", true)] {
            let ns = time_twin_step(&c1, &c2, &x, &dl, &par, fused, reps);
            println!("twin-step w{workers} {path:>10}  {ns:>12.0} ns/step");
            kernel_records.push(KernelRecord {
                workers,
                path,
                ns_per_step: ns,
            });
        }
    }

    // --- series 2: overlapped vs lockstep serving ---------------------
    // Bit-equality gate: a short run must agree between the modes.
    {
        let mut cfg = DdpgConfig::small_test();
        cfg.hidden = (64, 48);
        let run = |overlap: bool| {
            let mut t = VecTrainer::<Fx32>::new(
                EnvPool::from_kind(EnvKind::Pendulum, 4, 0),
                EnvKind::Pendulum.make(99),
                cfg.clone(),
            )
            .unwrap();
            t.set_overlap(overlap);
            t.run(80, 80, 1).unwrap();
            t
        };
        let lock = run(false);
        let over = run(true);
        assert_eq!(
            lock.agent().actor(),
            over.agent().actor(),
            "overlap gate: weights must match lockstep"
        );
        assert_eq!(lock.replay().transitions(), over.replay().transitions());
    }

    let mut serving_records = Vec::new();
    for &fleet in &FLEET_SIZES {
        for (mode, overlap) in [("lockstep", false), ("overlap", true)] {
            let sps = time_serving(fleet, overlap, 2, steps);
            println!("serving fleet {fleet:>3} w2 {mode:>9}  {sps:>12.0} env steps/s");
            serving_records.push(ServingRecord {
                fleet,
                mode,
                steps_per_sec: sps,
            });
        }
    }

    if let Ok(path) = std::env::var("FIXAR_BENCH_JSON") {
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"bench\": \"pipeline_overlap\",");
        let _ = writeln!(json, "  \"batch\": {BATCH},");
        let _ = writeln!(json, "  \"reps\": {reps},");
        let _ = writeln!(json, "  \"fleet_steps\": {steps},");
        let _ = writeln!(json, "  \"host_cores\": {cores},");
        json.push_str("  \"fused_kernels\": [\n");
        for (i, r) in kernel_records.iter().enumerate() {
            let comma = if i + 1 == kernel_records.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(
                json,
                "    {{\"workers\": {}, \"path\": \"{}\", \"ns_per_step\": {:.0}}}{comma}",
                r.workers, r.path, r.ns_per_step
            );
        }
        json.push_str("  ],\n  \"serving\": [\n");
        for (i, r) in serving_records.iter().enumerate() {
            let comma = if i + 1 == serving_records.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(
                json,
                "    {{\"fleet\": {}, \"mode\": \"{}\", \"env_steps_per_sec\": {:.0}}}{comma}",
                r.fleet, r.mode, r.steps_per_sec
            );
        }
        json.push_str("  ]\n}\n");
        std::fs::write(&path, json).expect("write bench JSON");
        println!("wrote {path}");
    }
}
