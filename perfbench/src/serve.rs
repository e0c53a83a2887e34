//! Open-loop load against `ArtifactServer`, with artifact swaps beside
//! the requests, and the output gate that replays every served request
//! offline.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use fixar_deploy::PolicyArtifact;
use fixar_serve::{ArtifactReplica, ArtifactServer, ServeConfig, ServeError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{favourable_quartile, percentile};
use crate::trace::Tracer;

/// Latency limit of the rate ladder, on p99.
const P99_LIMIT_US: f64 = 30_000.0;
/// Offered rates of the ladder, actions/s.
pub const LADDER: [f64; 7] = [
    4_000.0, 6_000.0, 8_000.0, 10_000.0, 12_000.0, 14_000.0, 16_000.0,
];
/// The fixed rate at which latency is reported.
pub const LATENCY_RATE: f64 = 6_000.0;
/// Interval between artifact publications.
const PUBLISH_EVERY: Duration = Duration::from_millis(100);
/// Outstanding requests while the offered load exceeds capacity.
const OVERLOAD_WINDOW: usize = 512;
/// Completions in the first part of an overload phase are not counted.
const OVERLOAD_RAMP_S: f64 = 0.25;
/// Phases report window statistics over windows of this many seconds
/// (of scheduled send time for latency, of completion time for rates).
const WINDOW_S: f64 = 0.5;

fn serve_config() -> ServeConfig {
    ServeConfig {
        max_batch: 32,
        max_delay: Duration::from_micros(200),
        shards: 1,
        workers: 1,
    }
}

/// A running server with the two artifacts it alternates between: the
/// replica with id `i` serves `artifacts[i % 2]`.
pub struct Rig {
    pub server: ArtifactServer,
    pub artifacts: [PolicyArtifact; 2],
    pub obs: Vec<Vec<f64>>,
    next_id: u64,
}

impl Rig {
    pub fn start(artifacts: [PolicyArtifact; 2], obs: Vec<Vec<f64>>) -> Result<Self, ServeError> {
        let server = ArtifactServer::start(
            ArtifactReplica::new(artifacts[1].clone(), 1),
            serve_config(),
        )?;
        Ok(Self {
            server,
            artifacts,
            obs,
            next_id: 2,
        })
    }
}

/// One served request, kept for the offline replay.
#[derive(Debug, Clone)]
pub struct Served {
    pub obs_idx: usize,
    pub artifact_id: u64,
    pub content_hash: u64,
    pub action: Vec<f64>,
}

/// How requests are offered in a phase.
#[derive(Debug, Clone, Copy)]
pub enum Offer {
    /// Poisson arrivals at this many requests per second; latency counts
    /// from each request's scheduled send time.
    Rate(f64),
    /// As fast as a window of outstanding requests allows.
    Overload,
}

pub struct PhaseResult {
    pub attempted: u64,
    pub errors: u64,
    /// Latency of each completed request, in completion order.
    pub latencies_us: Vec<f64>,
    /// Scheduled send time of each completed request, s into the phase.
    sent_s: Vec<f64>,
    /// Completion time of each completed request, s into the phase.
    completed_s: Vec<f64>,
    seconds: f64,
    pub late_ms: Vec<f64>,
    pub publish_us: Vec<f64>,
    pub served: Vec<Served>,
}

impl PhaseResult {
    /// A rung meets the limit when nothing failed, p99 is within the
    /// limit and the last quarter of requests waited no longer than
    /// twice the first quarter (plus 1 ms): the backlog did not grow.
    pub fn meets_limit(&self) -> bool {
        let n = self.latencies_us.len();
        if self.errors > 0 || n < 100 {
            return false;
        }
        let q = n / 4;
        let first = percentile(&mut self.latencies_us[..q].to_vec(), 0.5);
        let last = percentile(&mut self.latencies_us[n - q..].to_vec(), 0.5);
        percentile(&mut self.latencies_us.clone(), 0.99) <= P99_LIMIT_US
            && last <= 2.0 * first + 1_000.0
    }

    /// p50 and p99 latency, each the favourable quartile over windows
    /// of scheduled send time.
    pub fn latency_p50_p99(&self) -> (f64, f64) {
        let windows = (self.seconds / WINDOW_S).floor().max(1.0) as usize;
        let mut by: Vec<Vec<f64>> = vec![Vec::new(); windows];
        for (&t, &l) in self.sent_s.iter().zip(&self.latencies_us) {
            by[((t / WINDOW_S) as usize).min(windows - 1)].push(l);
        }
        let (mut p50, mut p99): (Vec<f64>, Vec<f64>) = by
            .iter_mut()
            .filter(|w| !w.is_empty())
            .map(|w| (percentile(w, 0.5), percentile(w, 0.99)))
            .unzip();
        (
            favourable_quartile(&mut p50, false),
            favourable_quartile(&mut p99, false),
        )
    }

    /// Completions per second after the ramp: the favourable quartile
    /// over windows, each timed from its first to its last completion.
    pub fn completions_per_s(&self) -> f64 {
        let windows = ((self.seconds - OVERLOAD_RAMP_S) / WINDOW_S)
            .floor()
            .max(1.0) as usize;
        let mut by: Vec<Vec<f64>> = vec![Vec::new(); windows];
        for &t in &self.completed_s {
            let k = ((t - OVERLOAD_RAMP_S) / WINDOW_S).floor();
            if k >= 0.0 && (k as usize) < windows {
                by[k as usize].push(t);
            }
        }
        let mut rates: Vec<f64> = by
            .iter()
            .filter(|w| w.len() >= 2)
            .map(|w| (w.len() - 1) as f64 / (w[w.len() - 1] - w[0]))
            .collect();
        favourable_quartile(&mut rates, true)
    }
}

/// Runs one phase: a sender thread offers requests, a collector thread
/// waits for the replies, and the calling thread publishes the next
/// artifact every 100 ms until the sender is done.
pub fn run_phase(
    rig: &mut Rig,
    offer: Offer,
    seconds: f64,
    seed: u64,
    tr: &mut Tracer,
) -> PhaseResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let schedule: Vec<Duration> = match offer {
        Offer::Rate(rate) => {
            let mut t = 0.0;
            let mut v = Vec::new();
            loop {
                t += -(1.0 - rng.gen_range(0.0..1.0f64)).ln() / rate;
                if t >= seconds {
                    break v;
                }
                v.push(Duration::from_secs_f64(t));
            }
        }
        Offer::Overload => Vec::new(),
    };
    let picks: Vec<usize> = (0..1 << 16)
        .map(|_| rng.gen_range(0..rig.obs.len()))
        .collect();
    let client = rig.server.client();
    let publisher = rig.server.publisher();
    // Overload phases keep `OVERLOAD_WINDOW` requests outstanding: the
    // sender takes a token per request, the collector returns it.
    let (token_tx, token_rx) = mpsc::sync_channel::<()>(OVERLOAD_WINDOW);
    for _ in 0..OVERLOAD_WINDOW {
        token_tx
            .send(())
            .expect("the token channel has room for the window");
    }
    let done = AtomicBool::new(false);
    let start = Instant::now();
    let mut sender_tr = tr.fork();
    let mut collector_tr = tr.fork();
    let (tx, rx) = mpsc::channel();
    let obs = &rig.obs;
    let done = &done;
    let mut publish_us = Vec::new();
    let (send_out, collect_out) = thread::scope(|s| {
        let sender = s.spawn(move || {
            let mut late_ms = Vec::new();
            let (mut attempted, mut errors) = (0u64, 0u64);
            let mut i = 0usize;
            loop {
                let due = match offer {
                    Offer::Rate(_) => {
                        let Some(&at) = schedule.get(i) else { break };
                        let due = start + at;
                        let now = Instant::now();
                        if due > now {
                            thread::sleep(due - now);
                        }
                        late_ms.push((Instant::now() - due).as_secs_f64() * 1e3);
                        due
                    }
                    Offer::Overload => {
                        let left = seconds - start.elapsed().as_secs_f64();
                        if left <= 0.0 {
                            break;
                        }
                        if token_rx
                            .recv_timeout(Duration::from_secs_f64(left))
                            .is_err()
                        {
                            continue;
                        }
                        Instant::now()
                    }
                };
                let k = picks[i % picks.len()];
                let group = i as u64;
                attempted += 1;
                match sender_tr.span("serve.submit", group, None, || client.submit(&obs[k])) {
                    Ok(pending) => {
                        // The collector only ends once this sender drops `tx`.
                        let _ = tx.send((group, k, due, pending));
                    }
                    Err(_) => errors += 1,
                }
                i += 1;
            }
            drop(tx);
            done.store(true, Ordering::SeqCst);
            (attempted, errors, late_ms, sender_tr)
        });
        let collector = s.spawn(move || {
            let mut latencies_us = Vec::new();
            let mut sent_s = Vec::new();
            let mut completed_s = Vec::new();
            let mut served = Vec::new();
            let mut errors = 0u64;
            for (group, k, due, pending) in rx {
                let reply = collector_tr.span("serve.wait", group, None, || pending.wait());
                let now = Instant::now();
                // Full only outside overload phases, where no one takes tokens.
                let _ = token_tx.try_send(());
                match reply {
                    Ok(resp) => {
                        latencies_us.push((now - due).as_secs_f64() * 1e6);
                        sent_s.push((due - start).as_secs_f64());
                        completed_s.push((now - start).as_secs_f64());
                        served.push(Served {
                            obs_idx: k,
                            artifact_id: resp.artifact_id,
                            content_hash: resp.content_hash,
                            action: resp.action,
                        });
                    }
                    Err(_) => errors += 1,
                }
            }
            (
                latencies_us,
                sent_s,
                completed_s,
                served,
                errors,
                collector_tr,
            )
        });
        let mut next_publish = start + PUBLISH_EVERY;
        while !done.load(Ordering::SeqCst) {
            let now = Instant::now();
            if now < next_publish {
                thread::sleep((next_publish - now).min(Duration::from_millis(5)));
                continue;
            }
            let id = rig.next_id;
            let replica = ArtifactReplica::new(rig.artifacts[(id % 2) as usize].clone(), id);
            let t = Instant::now();
            let open = tr.begin("serve.publish", id, None);
            let published = publisher.publish(replica);
            tr.end(open);
            publish_us.push(t.elapsed().as_secs_f64() * 1e6);
            if published.is_ok() {
                rig.next_id += 1;
            }
            next_publish += PUBLISH_EVERY;
        }
        (
            sender.join().expect("sender thread panicked"),
            collector.join().expect("collector thread panicked"),
        )
    });
    let (attempted, send_errors, late_ms, sender_tr) = send_out;
    let (latencies_us, sent_s, completed_s, served, reply_errors, collector_tr) = collect_out;
    tr.absorb(sender_tr);
    tr.absorb(collector_tr);
    PhaseResult {
        attempted,
        errors: send_errors + reply_errors,
        latencies_us,
        sent_s,
        completed_s,
        seconds,
        late_ms,
        publish_us,
        served,
    }
}

/// Climbs the ladder until a rung misses the limit; returns the highest
/// rung that met it (0 when none did) and the results of every rung run.
pub fn ladder(rig: &mut Rig, rung_s: f64, seed: u64, tr: &mut Tracer) -> (f64, Vec<PhaseResult>) {
    let mut best = 0.0;
    let mut rungs = Vec::new();
    for (i, &rate) in LADDER.iter().enumerate() {
        let r = run_phase(
            rig,
            Offer::Rate(rate),
            rung_s,
            seed.wrapping_add(i as u64 + 1),
            tr,
        );
        let ok = r.meets_limit();
        rungs.push(r);
        if !ok {
            break;
        }
        best = rate;
    }
    (best, rungs)
}

/// The serving gate: every served action must equal the offline
/// `PolicyArtifact::infer` of the artifact its response names, bit for
/// bit, and carry that artifact's content hash. Returns the number of
/// requests that fail it.
pub fn gate_failures(served: &[Served], artifacts: &[PolicyArtifact; 2], obs: &[Vec<f64>]) -> u64 {
    let hashes = [artifacts[0].content_hash(), artifacts[1].content_hash()];
    let mut expected: HashMap<(usize, usize), Option<Vec<u64>>> = HashMap::new();
    served
        .iter()
        .filter(|s| {
            let which = (s.artifact_id % 2) as usize;
            let want = expected.entry((which, s.obs_idx)).or_insert_with(|| {
                artifacts[which]
                    .infer(&obs[s.obs_idx])
                    .ok()
                    .map(|a| a.iter().map(|x| x.to_bits()).collect())
            });
            let got: Vec<u64> = s.action.iter().map(|x| x.to_bits()).collect();
            s.artifact_id == 0 || s.content_hash != hashes[which] || want.as_ref() != Some(&got)
        })
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixar_deploy::ActKind;
    use fixar_fixed::Fx32;

    fn artifact(scale: i32) -> PolicyArtifact {
        let one = Fx32::ONE.raw();
        PolicyArtifact::from_parts(
            &[2, 1],
            ActKind::Identity,
            ActKind::Tanh,
            vec![vec![one * scale / 4, -one / 2]],
            vec![vec![0]],
            &[None, None],
        )
        .unwrap()
    }

    #[test]
    fn served_actions_replay_offline_and_a_flipped_action_fails_the_gate() {
        let artifacts = [artifact(1), artifact(3)];
        let obs: Vec<Vec<f64>> = (0..16).map(|i| vec![i as f64 * 0.1, -0.3]).collect();
        let mut rig = Rig::start(artifacts.clone(), obs.clone()).unwrap();
        let mut off = Tracer::new(false, Instant::now());
        let r = run_phase(&mut rig, Offer::Rate(2_000.0), 0.25, 3, &mut off);
        rig.server.shutdown();
        assert_eq!(r.errors, 0);
        assert_eq!(r.served.len() as u64, r.attempted);
        assert!(
            r.served.iter().any(|s| s.artifact_id >= 2),
            "a publish landed"
        );
        assert_eq!(gate_failures(&r.served, &artifacts, &obs), 0);

        let mut bad = r.served.clone();
        bad[7].action[0] = f64::from_bits(bad[7].action[0].to_bits() ^ 1);
        assert_eq!(gate_failures(&bad, &artifacts, &obs), 1);
    }
}
