//! Seeded benchmark of the FIXAR workspace: paper-scale and fleet-scale
//! DDPG training throughput, and open-loop serving of an integer-only
//! policy artifact. See `perfbench/README.md` for workloads and metrics.
//!
//! ```text
//! fixar-perfbench --workload <train_paper|train_fleet|serve_artifact>
//!                 --seed <n> --seconds <s> --trace <0|1>
//!                 [--trace-dir <dir>] [--commit <id>] [--rustc <version>]
//! fixar-perfbench digests <workload> <first seed> <last seed>
//! ```
//!
//! The last line of standard output is the result object; with
//! `--trace 0` it carries the end-to-end metrics, with `--trace 1` the
//! per-layer metrics. Every line before it is a report for people.

mod probes;
mod serve;
mod stats;
mod trace;
mod train;

use std::error::Error;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use fixar_deploy::PolicyArtifact;
use fixar_fixed::{AffineQuantizer, Fx32};
use fixar_rl::Ddpg;
use rand::rngs::StdRng;
use rand::SeedableRng;

use serve::{Offer, PhaseResult, Rig};
use stats::{median, percentile};
use trace::Tracer;
use train::{Loop, TrainSpec, FLEET, PAPER};

type Res<T> = Result<T, Box<dyn Error>>;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Updates the serving set-up trains after the first artifact, so the
/// second artifact differs from it.
const SERVE_EXTRA_UPDATES: usize = 4;
/// Length of the serving phases the traced run of a training workload
/// adds for its own policy.
const BURST_S: f64 = 1.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: Option<PathBuf>,
    commit: String,
    rustc: String,
}

/// The result of one run.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    correct: bool,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn result_line(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        trace_dir: None,
        commit: "unknown".into(),
        rustc: "unknown".into(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad value for {flag}: {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--trace-dir" => args.trace_dir = Some(PathBuf::from(value)),
            "--commit" => args.commit = value.clone(),
            "--rustc" => args.rustc = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 1.0) {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn json_str(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() -> ExitCode {
    // `Parallelism::from_env_or` lets this variable override every
    // worker count, which would silently change the measured regime.
    if std::env::var_os(fixar_pool::WORKERS_ENV).is_some() {
        eprintln!(
            "refusing to run: unset {} so the workloads keep their worker counts",
            fixar_pool::WORKERS_ENV
        );
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("digests") {
        return match record_digests(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("digests: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"context\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host_cores\": {host_cores}, \"git_commit\": \"{}\", \"rustc\": \"{}\"}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        json_str(&args.commit),
        json_str(&args.rustc)
    );
    let outcome = match args.workload.as_str() {
        "train_paper" => run_train(PAPER, &args),
        "train_fleet" => run_train(FLEET, &args),
        "serve_artifact" => run_serve(&args),
        other => {
            eprintln!("unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(o) if o.metrics.iter().all(|m| m.1.is_finite()) => {
            println!("{}", o.result_line());
            ExitCode::SUCCESS
        }
        Ok(o) => {
            eprintln!(
                "non-finite metric: {:?}",
                o.metrics.iter().find(|m| !m.1.is_finite())
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints `<workload> <seed> <hex digest>` for each seed in a range: the
/// checkpoint digests `reference_digests.txt` records.
fn record_digests(argv: &[String]) -> Res<()> {
    let [workload, first, last] = argv else {
        return Err("usage: digests <workload> <first seed> <last seed>".into());
    };
    let (first, last): (u64, u64) = (first.parse()?, last.parse()?);
    let mut off = Tracer::new(false, Instant::now());
    for seed in first..=last {
        let digest = match workload.as_str() {
            "serve_artifact" if seed == SERVE_POLICY_SEED => serve_setup(&mut off)?.artifact_digest,
            "serve_artifact" => continue,
            w => {
                let spec = if w == "train_paper" { PAPER } else { FLEET };
                let mut lp = Loop::setup(spec, seed, &mut off)?;
                while lp.checkpoint_digest.is_none() {
                    lp.step(&mut off)?;
                }
                lp.checkpoint_digest.unwrap_or_default()
            }
        };
        println!("{workload} {seed} {digest:016x}");
    }
    Ok(())
}

/// Runs the set-up `SETUP_REPS` times (the last one traced when the run
/// is), handing each earlier result to `retire` before the next starts;
/// returns the median time and the last result.
fn repeat_setup<T>(mut f: impl FnMut(bool) -> Res<T>, mut retire: impl FnMut(T)) -> Res<(f64, T)> {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        if let Some(prev) = last.take() {
            retire(prev);
        }
        let t = Instant::now();
        last = Some(f(rep + 1 == SETUP_REPS)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((median(&mut times), last.ok_or("no set-up ran")?))
}

fn gate_line(name: &str, passed: bool, detail: &str) {
    println!(
        "{{\"gate\": \"{name}\", \"passed\": {passed}, \"detail\": \"{}\"}}",
        json_str(detail)
    );
}

fn run_train(spec: TrainSpec, args: &Args) -> Res<Outcome> {
    let origin = Instant::now();
    let mut off = Tracer::new(false, origin);
    let (setup_s, mut lp) = repeat_setup(|_| Ok(Loop::setup(spec, args.seed, &mut off)?), drop)?;
    let mut out = Outcome::default();
    let mut tr = Tracer::new(args.trace, origin);
    let first_artifact = if args.trace {
        Some(lp.agent.policy_snapshot(1).export_artifact()?)
    } else {
        None
    };
    let (timed, base) = if args.trace {
        let base = lp.run_for(args.seconds / 2.0, &mut off)?;
        (lp.run_for(args.seconds / 2.0, &mut tr)?, Some(base))
    } else {
        (lp.run_for(args.seconds, &mut off)?, None)
    };
    out.attempted = timed.updates + base.as_ref().map_or(0, |b| b.updates);
    if args.trace {
        // Layer probes first, while the host is in the state the timed
        // region saw; the 2-worker gate replay and the serving burst
        // load both cores.
        let mut rng = StdRng::seed_from_u64(args.seed ^ 0xba7c);
        let batch = lp
            .replay
            .sample_batch(spec.batch, &mut rng)
            .ok_or("replay holds a batch")?;
        rl_layer(&mut out, &tr);
        layer_probes(&mut out, &lp.agent, &batch, spec.fleet, &mut tr)?;
    }

    // Output gate: the hand-driven loop against the library trainer, and
    // the checkpoint against the digest recorded for this seed.
    let reference = train::reference_digest(spec, args.seed, lp.steps)?;
    let final_ok = train::gate_passes(&[lp.agent.actor(), lp.agent.critic()], reference);
    gate_line(
        "train_final_digest",
        final_ok,
        &format!("{:016x} vs VecTrainer::run {reference:016x}", lp.digest()),
    );
    let mut ok = final_ok;
    match (
        train::recorded_digest(&args.workload, args.seed),
        lp.checkpoint_digest,
    ) {
        (Some(want), Some(got)) => {
            ok &= want == got;
            gate_line(
                "train_checkpoint_digest",
                want == got,
                &format!("{got:016x} vs recorded {want:016x}"),
            );
        }
        (None, _) => gate_line(
            "train_checkpoint_digest",
            true,
            "no digest recorded for this seed",
        ),
        (Some(_), None) => gate_line("train_checkpoint_digest", true, "checkpoint not reached"),
    }
    out.failed = if ok { 0 } else { out.attempted };
    out.correct = ok;

    let (ips, p50, _) = timed.summary(spec.batch);
    if !args.trace {
        out.put("ips", ips, "1/s");
        out.put("setup_s", setup_s, "s");
        out.put("peak_rss_mb", stats::peak_rss_mb(), "MB");
        return Ok(out);
    }

    let base = base.ok_or("traced run keeps an untraced half")?;
    let obs = replay_observations(&lp);
    let second_artifact = lp.agent.policy_snapshot(2).export_artifact()?;
    let first_artifact = first_artifact.ok_or("traced run exports a first artifact")?;
    let mut rig = Rig::start([second_artifact, first_artifact], obs)?;
    let phases = vec![
        serve::run_phase(
            &mut rig,
            Offer::Rate(serve::LATENCY_RATE),
            BURST_S,
            args.seed ^ 1,
            &mut tr,
        ),
        serve::run_phase(
            &mut rig,
            Offer::Overload,
            BURST_S / 2.0,
            args.seed ^ 2,
            &mut tr,
        ),
    ];
    let (max_rate, rungs) = serve::ladder(&mut rig, BURST_S / 2.0, args.seed ^ 3, &mut tr);
    // Wrong served actions of the trained policy fail the whole run.
    if serve_layer(&mut out, rig, &phases, max_rate, &rungs, &tr)? > 0 {
        out.failed = out.attempted;
        out.correct = false;
    }
    let (base_ips, bp50, bp99) = base.summary(spec.batch);
    out.put("rl.timestep_p99_us", bp99, "us");
    out.put("trace.ips_overhead_frac", 1.0 - ips / base_ips, "frac");
    out.put("trace.p50_overhead_us", p50 - bp50, "us");
    fig9_table(&tr, &out, ips);
    span_table(&tr);
    write_trace(args, &tr)?;
    Ok(out)
}

/// Observations of the set-up rollout, as stored in replay: they sit
/// inside the range QAT calibrated on.
fn replay_observations(lp: &Loop) -> Vec<Vec<f64>> {
    (0..lp.replay.len())
        .map(|i| lp.replay.transition(i).state)
        .collect()
}

struct ServeSetup {
    rig: Rig,
    agent: Ddpg<Fx32>,
    batch: fixar_rl::TransitionBatch,
    artifact_digest: u64,
}

/// Seed of the served policy. The run's seed drives the request stream
/// (arrival times and which observations are sent), not the policy:
/// whether a calibrated 16-bit quantizer table takes the interpreter's
/// affine fast path depends on the policy, and across policy seeds that
/// alone moved capacity by 20%.
const SERVE_POLICY_SEED: u64 = 0;

/// Policy freeze, export, encode → decode and server start. The policy
/// is a paper-scale actor trained by the `train_paper` set-up; a few
/// more updates give the second artifact the run publishes.
fn serve_setup(tr: &mut Tracer) -> Res<ServeSetup> {
    let seed = SERVE_POLICY_SEED;
    let mut lp = Loop::setup(PAPER, seed, tr)?;
    let first = lp.agent.policy_snapshot(1).export_artifact()?;
    for _ in 0..SERVE_EXTRA_UPDATES {
        lp.step(tr)?;
    }
    let second = lp.agent.policy_snapshot(2).export_artifact()?;
    let open = tr.begin("deploy.decode", 0, None);
    let decoded = [
        PolicyArtifact::decode(&second.encode())?,
        PolicyArtifact::decode(&first.encode())?,
    ];
    tr.end(open);
    let artifact_digest = stats::fnv1a(
        decoded.iter().flat_map(|a| {
            let h = a.content_hash();
            [h as i32, (h >> 32) as i32]
        }),
        stats::FNV_OFFSET,
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0xba7c);
    let batch = lp
        .replay
        .sample_batch(PAPER.batch, &mut rng)
        .ok_or("replay holds a batch")?;
    let obs = replay_observations(&lp);
    Ok(ServeSetup {
        rig: Rig::start(decoded, obs)?,
        agent: lp.agent,
        batch,
        artifact_digest,
    })
}

fn run_serve(args: &Args) -> Res<Outcome> {
    let origin = Instant::now();
    let mut off = Tracer::new(false, origin);
    let mut tr = Tracer::new(args.trace, origin);
    let (setup_s, setup) = repeat_setup(
        |last| serve_setup(if last { &mut tr } else { &mut off }),
        |s: ServeSetup| {
            s.rig.server.shutdown();
        },
    )?;
    let ServeSetup {
        mut rig,
        agent,
        batch,
        artifact_digest,
    } = setup;
    let recorded_ok = match train::recorded_digest(&args.workload, SERVE_POLICY_SEED) {
        Some(want) => {
            gate_line(
                "serve_artifact_digest",
                want == artifact_digest,
                &format!("{artifact_digest:016x} vs recorded {want:016x}"),
            );
            want == artifact_digest
        }
        None => {
            gate_line(
                "serve_artifact_digest",
                true,
                "no digest recorded for the served policy",
            );
            true
        }
    };
    let mut out = Outcome::default();
    let s = args.seconds;
    let seed = args.seed;
    let latency = |rig: &mut Rig, secs: f64, tr: &mut Tracer| {
        serve::run_phase(rig, Offer::Rate(serve::LATENCY_RATE), secs, seed ^ 1, tr)
    };
    let overload = |rig: &mut Rig, secs: f64, tr: &mut Tracer| {
        serve::run_phase(rig, Offer::Overload, secs, seed ^ 2, tr)
    };
    if !args.trace {
        let cap = overload(&mut rig, s, &mut off);
        out.put("ips", cap.completions_per_s(), "1/s");
        out.put("setup_s", setup_s, "s");
        let phases = [cap];
        let failed = serve_gate(rig, &phases, &[])?;
        out.put("peak_rss_mb", stats::peak_rss_mb(), "MB");
        out.attempted = phases.iter().map(|p| p.attempted).sum();
        out.failed = if recorded_ok {
            failed.min(out.attempted)
        } else {
            out.attempted
        };
        out.correct = out.failed == 0;
        return Ok(out);
    }
    // Traced: an untraced and a traced half of the same phases give the
    // tracing overhead; the ladder runs traced after them.
    let base_lat = latency(&mut rig, 0.25 * s, &mut off);
    let base_cap = overload(&mut rig, 0.1 * s, &mut off);
    let lat = latency(&mut rig, 0.25 * s, &mut tr);
    let cap = overload(&mut rig, 0.1 * s, &mut tr);
    let (max_rate, rungs) = serve::ladder(
        &mut rig,
        0.3 * s / serve::LADDER.len() as f64,
        seed ^ 3,
        &mut tr,
    );
    let (p50, _) = lat.latency_p50_p99();
    let (bp50, _) = base_lat.latency_p50_p99();
    rl_timestep_p99(&mut out, &tr);
    out.put(
        "trace.ips_overhead_frac",
        1.0 - cap.completions_per_s() / base_cap.completions_per_s(),
        "frac",
    );
    out.put("trace.p50_overhead_us", p50 - bp50, "us");
    let phases = [lat, cap, base_lat, base_cap];
    let failed = serve_layer(&mut out, rig, &phases, max_rate, &rungs, &tr)?;
    out.attempted = phases.iter().chain(&rungs).map(|p| p.attempted).sum();
    out.failed = if recorded_ok {
        failed.min(out.attempted)
    } else {
        out.attempted
    };
    out.correct = out.failed == 0;
    rl_layer(&mut out, &tr);
    layer_probes(&mut out, &agent, &batch, 1, &mut tr)?;
    span_table(&tr);
    write_trace(args, &tr)?;
    Ok(out)
}

/// Shuts the server down and runs the serving gate over every phase;
/// returns the number of requests that errored, were dropped, or
/// differ from their offline replay.
fn serve_gate(rig: Rig, phases: &[PhaseResult], rungs: &[PhaseResult]) -> Res<u64> {
    let stats = rig.server.shutdown();
    let dropped: u64 = stats.shards.iter().map(|s| s.dropped_replies).sum();
    let failed = phases
        .iter()
        .chain(rungs)
        .map(|p| p.errors + serve::gate_failures(&p.served, &rig.artifacts, &rig.obs))
        .sum::<u64>()
        + dropped;
    gate_line(
        "serve_offline_replay",
        failed == 0,
        &format!("{failed} failed, errored or dropped requests"),
    );
    Ok(failed)
}

/// Serving per-layer metrics from the phases and the server's counters
/// (the first phase is the fixed-rate one); runs the serving gate and
/// returns the number of requests that failed it.
fn serve_layer(
    out: &mut Outcome,
    rig: Rig,
    phases: &[PhaseResult],
    max_rate: f64,
    rungs: &[PhaseResult],
    tr: &Tracer,
) -> Res<u64> {
    let stats = rig.server.stats();
    let mut infer: Vec<f64> = Vec::new();
    for o in rig.obs.iter().take(64) {
        let t = Instant::now();
        rig.artifacts[0].infer(o)?;
        infer.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let all = || phases.iter().chain(rungs);
    let mut publish: Vec<f64> = all().flat_map(|p| p.publish_us.iter().copied()).collect();
    let mut late: Vec<f64> = all().flat_map(|p| p.late_ms.iter().copied()).collect();
    let batches = stats.batches();
    let full: u64 = stats.shards.iter().map(|s| s.full_flushes).sum();
    let dropped: u64 = stats.shards.iter().map(|s| s.dropped_replies).sum();
    let (p50, p99) = phases[0].latency_p50_p99();
    out.put("load.latency_p50_us", p50, "us");
    out.put("load.latency_p99_us", p99, "us");
    // Queue wait, estimated: the fixed-rate p50 minus the offline
    // compute time of a batch of mean size.
    let compute_us = stats.mean_batch_rows() * median(&mut infer);
    out.put("serve.submit_us", median_span(tr, "serve.submit"), "us");
    out.put("serve.publish_us", median(&mut publish), "us");
    out.put("serve.batches", batches as f64, "count");
    out.put("serve.mean_batch_rows", stats.mean_batch_rows(), "rows");
    out.put(
        "serve.full_flush_frac",
        if batches == 0 {
            0.0
        } else {
            full as f64 / batches as f64
        },
        "frac",
    );
    out.put("serve.dropped_replies", dropped as f64, "count");
    out.put("serve.queue_wait_us", p50 - compute_us, "us");
    out.put("serve.max_rate", max_rate, "1/s");
    out.put("load.gen_late_ms", percentile(&mut late, 0.99), "ms");
    serve_gate(rig, phases, rungs)
}

/// p99 timestep time of the serving workload's traced set-up.
fn rl_timestep_p99(out: &mut Outcome, tr: &Tracer) {
    out.put(
        "rl.timestep_p99_us",
        percentile(&mut tr.durations_us("rl.timestep"), 0.99),
        "us",
    );
}

fn median_span(tr: &Tracer, name: &str) -> f64 {
    median(&mut tr.durations_us(name))
}

/// `rl` and `env` layer metrics from the timestep spans.
fn rl_layer(out: &mut Outcome, tr: &Tracer) {
    for (metric, span) in [
        ("rl.timestep_us", "rl.timestep"),
        ("rl.act_us", "rl.act"),
        ("rl.train_update_us", "rl.train_update"),
        ("rl.replay_push_us", "rl.replay_push"),
        ("rl.replay_sample_us", "rl.replay_sample"),
        ("rl.priority_update_us", "rl.priority_update"),
        ("env.step_us", "env.step"),
    ] {
        out.put(metric, median_span(tr, span), "us");
    }
    let total: f64 = tr.durations_us("rl.timestep").iter().sum();
    let share = |name: &str| tr.durations_us(name).iter().sum::<f64>() / total;
    out.put("rl.train_share", share("rl.train_update"), "frac");
    out.put("rl.env_share", share("env.step"), "frac");
}

/// `nn`, `tensor`, `fixed`, `pool`, `deploy` and model metrics.
fn layer_probes(
    out: &mut Outcome,
    agent: &Ddpg<Fx32>,
    batch: &fixar_rl::TransitionBatch,
    fleet: usize,
    tr: &mut Tracer,
) -> Res<()> {
    let (actor, critic) = (agent.actor(), agent.critic());
    let reps = if actor.param_count() > 50_000 {
        12
    } else {
        200
    };
    let nn = probes::nn(agent, batch, reps, tr)?;
    let names = [
        [
            "nn.actor.forward_us",
            "nn.actor.backward_us",
            "nn.actor.adam_us",
            "nn.actor.soft_update_us",
        ],
        [
            "nn.critic.forward_us",
            "nn.critic.backward_us",
            "nn.critic.adam_us",
            "nn.critic.soft_update_us",
        ],
    ];
    for (names, times) in names.iter().zip([nn.actor, nn.critic]) {
        for (&name, t) in names.iter().zip(times) {
            out.put(name, t, "us");
        }
    }
    let nn_sum: f64 = nn.actor.iter().chain(&nn.critic).sum();
    let update = out
        .metrics
        .iter()
        .find(|m| m.0 == "rl.train_update_us")
        .map_or(0.0, |m| m.1);
    out.put(
        "nn.update_coverage",
        if update > 0.0 { nn_sum / update } else { 0.0 },
        "frac",
    );

    let (rows, cols) = probes::widest_layer(&[actor, critic]);
    let b = batch.len();
    let [g, gt, outer] = probes::tensor(rows, cols, b, reps * 4, tr)?;
    out.put("tensor.gemv_batch_gmacs", g, "GMAC/s");
    out.put("tensor.gemv_t_batch_gmacs", gt, "GMAC/s");
    out.put("tensor.add_outer_batch_gmacs", outer, "GMAC/s");
    out.put(
        "tensor.macs_per_update",
        probes::macs_per_update(actor, critic, b, fleet) as f64,
        "count",
    );

    let q = match nn.quantizer {
        Some(q) => q,
        None => AffineQuantizer::from_range(
            -4.0,
            4.0,
            agent.config().qat.as_ref().map_or(16, |q| q.bits),
        )?,
    };
    let [quant, tanh] = probes::fixed(&q, rows.max(cols), b, 50, tr);
    out.put("fixed.quantize_ns_per_elem", quant, "ns");
    out.put("fixed.tanh_ns_per_elem", tanh, "ns");
    out.put(
        "pool.scope_join_us",
        probes::pool_scope_join(2_000, tr)?,
        "us",
    );

    let art = agent.policy_snapshot(1).export_artifact()?;
    let obs: Vec<Vec<f64>> = (0..batch.len())
        .map(|i| batch.states().row(i).to_vec())
        .collect();
    let d = probes::deploy(&art, &obs, 400, tr)?;
    out.put("deploy.infer_us", d.infer_us, "us");
    out.put("deploy.infer_raw_us", d.infer_raw_us, "us");
    out.put("deploy.decode_ms", d.decode_ms, "ms");
    out.put("deploy.blob_bytes", d.blob_bytes, "B");
    out.put("deploy.affine_table_frac", d.affine_table_frac, "frac");

    let m = probes::model(actor, critic, b)?;
    out.put("model.platform_ips", m.platform_ips, "1/s");
    out.put("model.accel_share", m.accel_share, "frac");
    Ok(())
}

/// Fig. 9 beside the models: measured shares of a traced timestep and
/// the measured IPS, next to the modelled accelerator share and platform
/// IPS at the same batch.
fn fig9_table(tr: &Tracer, out: &Outcome, measured_ips: f64) {
    let total: f64 = tr.durations_us("rl.timestep").iter().sum();
    let share = |name: &str| tr.durations_us(name).iter().sum::<f64>() / total;
    let metric = |name: &str| {
        out.metrics
            .iter()
            .find(|m| m.0 == name)
            .map_or(0.0, |m| m.1)
    };
    let rows = [
        ("env step (host)", share("env.step")),
        ("act", share("rl.act")),
        (
            "replay push + sample + priorities",
            share("rl.replay_push") + share("rl.replay_sample") + share("rl.priority_update"),
        ),
        ("train update", share("rl.train_update")),
    ];
    let other = 1.0 - rows.iter().map(|r| r.1).sum::<f64>();
    println!("Fig. 9: share of a traced timestep (measured on this host) vs the FIXAR models");
    for (name, v) in rows.iter().chain(&[("other (glue)", other)]) {
        println!("  {name:<36} {:>6.2}%", v * 100.0);
    }
    println!(
        "  act + train update (accelerator work) {:>6.2}%   model.accel_share {:>6.2}%",
        (rows[1].1 + rows[3].1) * 100.0,
        metric("model.accel_share") * 100.0
    );
    println!(
        "  IPS measured {measured_ips:.1}   model.platform_ips {:.1}",
        metric("model.platform_ips")
    );
}

/// Count, median duration and median self time of every span name.
fn span_table(tr: &Tracer) {
    println!("  span                       count    median us   median self us");
    for (name, (n, med, own)) in tr.summary() {
        println!("  {name:<25} {n:>7} {med:>12.2} {own:>16.2}");
    }
}

fn write_trace(args: &Args, tr: &Tracer) -> Res<()> {
    if let Some(dir) = &args.trace_dir {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        std::fs::write(&path, tr.to_json())?;
        println!("spans written to {}", path.display());
    }
    Ok(())
}
