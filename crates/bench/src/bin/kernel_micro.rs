//! Kernel-level microbenchmark: batched matrix-matrix kernels vs their
//! per-row (per-sample) counterparts, plus the **pool-parallel scaling
//! sweep** of every batched kernel across worker counts {1, 2, 4, 8},
//! at the quick-study layer shape (192×128) and batch 128 in `Fx32`.
//! Prints ns/sample per kernel — the raw numbers behind the end-to-end
//! speedups measured by `benches/batched_training.rs`.
//!
//! Two further arms ride along:
//!
//! * packed-weight kernels ([`Matrix::pack`]) against their unpacked
//!   counterparts, at the base shape and at 256×192 where the
//!   column-strided `gemv_t_batch` walk hurts most — every packed
//!   result is asserted bit-identical before timing;
//! * `quantizer_micro`: the per-element cost of each deploy-time
//!   quantizer spec (Shift, affine fast path, threshold-table search),
//!   isolated by subtracting a passthrough baseline artifact;
//! * `exact_mac_micro`: the three training kernels at the paper's
//!   300×400 layer and batch 64, on inputs whose no-saturation
//!   certificate holds (wrapping MAC loop) against near-saturation
//!   inputs it refuses (saturating chain) — both bit-equality gated
//!   against the per-sample chain kernels before timing.
//!
//! Environment:
//!
//! * `FIXAR_KERNEL_MICRO_REPS` — timed repetitions per kernel
//!   (default 2000; CI's bench-smoke job uses a short count);
//! * `FIXAR_BENCH_JSON` — when set to a path, also writes the results
//!   as a JSON document (the `BENCH_kernel_micro.json` artifact that
//!   seeds the perf trajectory).

use fixar_deploy::{ActKind, PolicyArtifact};
use fixar_fixed::{AffineQuantizer, Fx32, QFormat};
use fixar_tensor::{exact_mac_stats, Matrix, Parallelism};
use std::fmt::Write as _;
use std::time::Instant;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const BATCH: usize = 128;
const ROWS: usize = 192;
const COLS: usize = 128;

struct Record {
    name: String,
    ns_per_sample: f64,
}

fn push(records: &mut Vec<Record>, name: String, ns: f64) {
    println!("{name:<28} {ns:>9.1} ns/sample");
    records.push(Record {
        name,
        ns_per_sample: ns,
    });
}

fn time_ns_per_sample(reps: usize, samples: usize, mut f: impl FnMut()) -> f64 {
    f(); // warmup
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_secs_f64() * 1e9 / (reps * samples) as f64
}

fn main() {
    let reps: usize = std::env::var("FIXAR_KERNEL_MICRO_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&r| r > 0)
        .unwrap_or(2000);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("kernel_micro: {ROWS}x{COLS} weights, batch {BATCH}, Fx32, {reps} reps, {cores} host core(s)");

    let w = Matrix::<f64>::from_fn(ROWS, COLS, |r, c| ((r * 7 + c) % 13) as f64 * 0.1 - 0.6)
        .cast::<Fx32>();
    let a = Matrix::<f64>::from_fn(BATCH, COLS, |b, c| ((b + c * 3) % 11) as f64 * 0.15 - 0.7)
        .cast::<Fx32>();
    let e = Matrix::<f64>::from_fn(BATCH, ROWS, |b, c| ((b * 3 + c) % 7) as f64 * 0.2 - 0.6)
        .cast::<Fx32>();
    let mut records: Vec<Record> = Vec::new();

    // Per-row (per-sample) references.
    let ns = time_ns_per_sample(reps, BATCH, || {
        for b in 0..BATCH {
            std::hint::black_box(w.gemv_alloc(std::hint::black_box(a.row(b))).unwrap());
        }
    });
    push(&mut records, "gemv per-row".into(), ns);
    let ns = time_ns_per_sample(reps, BATCH, || {
        for b in 0..BATCH {
            std::hint::black_box(w.gemv_t_alloc(std::hint::black_box(e.row(b))).unwrap());
        }
    });
    push(&mut records, "gemv_t per-row".into(), ns);
    let mut g = Matrix::<Fx32>::zeros(ROWS, COLS);
    let ns = time_ns_per_sample(reps, BATCH, || {
        for b in 0..BATCH {
            g.add_outer(
                std::hint::black_box(e.row(b)),
                std::hint::black_box(a.row(b)),
            )
            .unwrap();
        }
    });
    push(&mut records, "add_outer per-row".into(), ns);

    // Batched kernels across worker counts (1 worker = the sequential
    // batched kernel; every count is bit-identical, only throughput
    // differs — and scaling requires free host cores).
    for &workers in &WORKER_COUNTS {
        let par = Parallelism::with_workers(workers);
        let ns = time_ns_per_sample(reps, BATCH, || {
            std::hint::black_box(
                w.gemv_batch_par_alloc(std::hint::black_box(&a), &par)
                    .unwrap(),
            );
        });
        push(&mut records, format!("gemv_batch w{workers}"), ns);
    }
    for &workers in &WORKER_COUNTS {
        let par = Parallelism::with_workers(workers);
        let ns = time_ns_per_sample(reps, BATCH, || {
            std::hint::black_box(
                w.gemv_t_batch_par_alloc(std::hint::black_box(&e), &par)
                    .unwrap(),
            );
        });
        push(&mut records, format!("gemv_t_batch w{workers}"), ns);
    }
    for &workers in &WORKER_COUNTS {
        let par = Parallelism::with_workers(workers);
        let mut g = Matrix::<Fx32>::zeros(ROWS, COLS);
        let ns = time_ns_per_sample(reps, BATCH, || {
            g.add_outer_batch_par(std::hint::black_box(&e), std::hint::black_box(&a), &par)
                .unwrap();
        });
        push(&mut records, format!("add_outer_batch w{workers}"), ns);
    }
    let wt = w.transposed();
    for &workers in &WORKER_COUNTS {
        let par = Parallelism::with_workers(workers);
        let ns = time_ns_per_sample(reps, BATCH, || {
            std::hint::black_box(a.matmul_par(std::hint::black_box(&wt), &par).unwrap());
        });
        push(&mut records, format!("matmul w{workers}"), ns);
    }

    // Packed-weight kernels at the base shape: identical reduction
    // order, unit-stride inner loops. The gate proves bit-equality with
    // the unpacked kernel before any timing is recorded.
    let pack = w.pack();
    {
        let mut y = Matrix::<Fx32>::zeros(BATCH, ROWS);
        pack.gemv_batch(&a, &mut y).unwrap();
        assert_eq!(
            y,
            w.gemv_batch_par_alloc(&a, &Parallelism::with_workers(1))
                .unwrap(),
            "packed gemv_batch diverged from the unpacked kernel"
        );
        let mut yt = Matrix::<Fx32>::zeros(BATCH, COLS);
        pack.gemv_t_batch(&e, &mut yt).unwrap();
        assert_eq!(
            yt,
            w.gemv_t_batch_par_alloc(&e, &Parallelism::with_workers(1))
                .unwrap(),
            "packed gemv_t_batch diverged from the unpacked kernel"
        );
    }
    for &workers in &WORKER_COUNTS {
        let par = Parallelism::with_workers(workers);
        let mut y = Matrix::<Fx32>::zeros(BATCH, ROWS);
        let ns = time_ns_per_sample(reps, BATCH, || {
            pack.gemv_batch_par(std::hint::black_box(&a), &mut y, &par)
                .unwrap();
            std::hint::black_box(&y);
        });
        push(&mut records, format!("gemv_batch_packed w{workers}"), ns);
    }
    for &workers in &WORKER_COUNTS {
        let par = Parallelism::with_workers(workers);
        let mut y = Matrix::<Fx32>::zeros(BATCH, COLS);
        let ns = time_ns_per_sample(reps, BATCH, || {
            pack.gemv_t_batch_par(std::hint::black_box(&e), &mut y, &par)
                .unwrap();
            std::hint::black_box(&y);
        });
        push(&mut records, format!("gemv_t_batch_packed w{workers}"), ns);
    }

    // Wider shape arm: 256×192 is where the column-strided gemv_t walk
    // pays the most per element, so the packed layout's win is clearest.
    // Both sides reuse a preallocated output so the comparison is pure
    // kernel time.
    const ROWS2: usize = 256;
    const COLS2: usize = 192;
    let w2 = Matrix::<f64>::from_fn(ROWS2, COLS2, |r, c| ((r * 5 + c) % 17) as f64 * 0.08 - 0.6)
        .cast::<Fx32>();
    let e2 = Matrix::<f64>::from_fn(BATCH, ROWS2, |b, c| ((b * 3 + c) % 9) as f64 * 0.15 - 0.6)
        .cast::<Fx32>();
    let pack2 = w2.pack();
    let mut y2u = Matrix::<Fx32>::zeros(BATCH, COLS2);
    let mut y2p = Matrix::<Fx32>::zeros(BATCH, COLS2);
    w2.gemv_t_batch(&e2, &mut y2u).unwrap();
    pack2.gemv_t_batch(&e2, &mut y2p).unwrap();
    assert_eq!(
        y2u, y2p,
        "packed gemv_t_batch diverged from the unpacked kernel at 256x192"
    );
    let par1 = Parallelism::with_workers(1);
    let ns = time_ns_per_sample(reps, BATCH, || {
        w2.gemv_t_batch_par(std::hint::black_box(&e2), &mut y2u, &par1)
            .unwrap();
        std::hint::black_box(&y2u);
    });
    push(&mut records, "gemv_t_batch 256x192 w1".into(), ns);
    let ns = time_ns_per_sample(reps, BATCH, || {
        pack2
            .gemv_t_batch_par(std::hint::black_box(&e2), &mut y2p, &par1)
            .unwrap();
        std::hint::black_box(&y2p);
    });
    push(&mut records, "gemv_t_batch_packed 256x192 w1".into(), ns);

    quantizer_micro(reps, &mut records);
    exact_mac_micro(reps, &mut records);

    if let Ok(path) = std::env::var("FIXAR_BENCH_JSON") {
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"bench\": \"kernel_micro\",");
        let _ = writeln!(
            json,
            "  \"shape\": {{\"rows\": {ROWS}, \"cols\": {COLS}, \"batch\": {BATCH}}},"
        );
        let _ = writeln!(json, "  \"reps\": {reps},");
        let _ = writeln!(json, "  \"host_cores\": {cores},");
        let _ = writeln!(json, "  \"backend\": \"Fx32\",");
        json.push_str("  \"kernels\": [\n");
        for (i, r) in records.iter().enumerate() {
            let comma = if i + 1 == records.len() { "" } else { "," };
            let _ = writeln!(
                json,
                "    {{\"name\": \"{}\", \"ns_per_sample\": {:.1}}}{comma}",
                r.name, r.ns_per_sample
            );
        }
        json.push_str("  ]\n}\n");
        std::fs::write(&path, json).expect("write bench JSON");
        println!("wrote {path}");
    }
}

/// Per-element cost of each deploy-time quantizer spec.
///
/// Four single-layer `[3, 64]` artifacts share identical weights and
/// differ only in the output activation point's spec: no quantizer at
/// all (the baseline), a power-of-two `Shift`, a 16-bit range whose
/// threshold table admits the O(1) affine multiply-shift, and a 16-bit
/// range whose bottom-clamped table forces the binary-search fallback.
/// The quantizer's per-element cost is the arm's ns/element minus the
/// baseline's, so the shared matrix walk cancels out.
fn quantizer_micro(reps: usize, records: &mut Vec<Record>) {
    const QDIM: usize = 64;
    const OBS: usize = 3;
    const POOL: usize = 64;
    println!("quantizer_micro: [{OBS}, {QDIM}] artifact, {POOL} raw obs, per-element ns");

    let weights = vec![(0..QDIM * OBS)
        .map(|i| (((i * 37) % 41) as i32 - 20) * (1 << 14))
        .collect::<Vec<i32>>()];
    let biases = vec![vec![0i32; QDIM]];
    let build = |q: Option<&AffineQuantizer>| {
        PolicyArtifact::from_parts(
            &[OBS, QDIM],
            ActKind::Identity,
            ActKind::Identity,
            weights.clone(),
            biases.clone(),
            &[None, q],
        )
        .expect("quantizer_micro artifact")
    };
    let base = build(None);
    let q_shift = AffineQuantizer::from_format(QFormat::q(4, 12).unwrap()).unwrap();
    let shift = build(Some(&q_shift));
    let q_affine = AffineQuantizer::from_range(-0.9, 1.2, 16).unwrap();
    let affine = build(Some(&q_affine));
    let q_table = AffineQuantizer::from_range(-5000.0, 5000.0, 16).unwrap();
    let table = build(Some(&q_table));

    // The arms must actually exercise the code paths they claim to: the
    // affine range's table qualifies for the multiply-shift fast path,
    // the wide bottom-clamped range provably does not.
    assert_eq!(base.blob_stats().table_points, 0);
    assert_eq!(shift.blob_stats().table_points, 0);
    assert_eq!(affine.blob_stats().table_points, 1);
    assert_eq!(affine.blob_stats().tables_affine, 1);
    assert_eq!(table.blob_stats().table_points, 1);
    assert_eq!(table.blob_stats().tables_affine, 0);

    let pool: Vec<[i32; OBS]> = (0..POOL)
        .map(|k| {
            let k = k as i32;
            [
                (k - 32) * (1 << 15),
                (k * 7 % 61 - 30) * (1 << 14),
                (k * 13 % 53 - 26) * (1 << 16),
            ]
        })
        .collect();
    let time_arm = |art: &PolicyArtifact| {
        time_ns_per_sample(reps, POOL * QDIM, || {
            for obs in &pool {
                std::hint::black_box(art.infer_raw(std::hint::black_box(obs)).unwrap());
            }
        })
    };
    let base_ns = time_arm(&base);
    push(records, "quant baseline (no spec)".into(), base_ns);
    for (name, art) in [
        ("quant_shift", &shift),
        ("quant_affine", &affine),
        ("quant_table_search", &table),
    ] {
        let ns = (time_arm(art) - base_ns).max(0.0);
        push(records, name.into(), ns);
    }
}

/// Certified vs refused inputs on the three kernels `Mlp` trains
/// through, at the paper's 300×400 layer and batch 64.
///
/// Both arms share the weights and every input but one element: the
/// refused arm plants a near-rail value (1800.0) in the first input row,
/// the first error row and the first gradient row, which breaks every
/// certificate (for the gradient, through `max|a|`, every row's) so the
/// whole call runs the saturating chain. Before
/// timing, each arm is gated bit-equal to the per-sample chain kernels
/// (`gemv`, `gemv_t`, `add_outer`) and the certified/fallback counters
/// must show the path the arm claims.
fn exact_mac_micro(reps: usize, records: &mut Vec<Record>) {
    const OUT: usize = 300;
    const IN: usize = 400;
    const B: usize = 64;
    // A 300×400 call costs ~50× a base-shape one: a tenth of the reps.
    let reps = reps.div_ceil(10);
    println!("exact_mac_micro: {OUT}x{IN} weights, batch {B}, Fx32, {reps} reps");

    let w = Matrix::<f64>::from_fn(OUT, IN, |r, c| {
        ((r * 7 + c * 3) % 29) as f64 * 0.004 - 0.056
    })
    .cast::<Fx32>();
    let pack = w.pack();
    let inputs = |rail: bool| {
        let mut a = Matrix::<f64>::from_fn(B, IN, |b, c| ((b + c * 3) % 11) as f64 * 0.3 - 1.5)
            .cast::<Fx32>();
        let mut e = Matrix::<f64>::from_fn(B, OUT, |b, c| ((b * 3 + c) % 7) as f64 * 0.05 - 0.15)
            .cast::<Fx32>();
        let mut g = Matrix::<Fx32>::zeros(OUT, IN);
        if rail {
            a[(0, 0)] = Fx32::from_f64(1800.0);
            e[(0, 0)] = Fx32::from_f64(1800.0);
            g[(0, 0)] = Fx32::from_f64(1800.0);
        }
        (a, e, g)
    };
    for (arm, rail) in [("certified", false), ("refused", true)] {
        let (a, e, g0) = inputs(rail);
        let before = exact_mac_stats();
        let mut y = Matrix::<Fx32>::zeros(B, OUT);
        pack.gemv_batch(&a, &mut y).unwrap();
        let mut yt = Matrix::<Fx32>::zeros(B, IN);
        pack.gemv_t_batch(&e, &mut yt).unwrap();
        let mut g = g0.clone();
        g.add_outer_batch(&e, &a).unwrap();
        let after = exact_mac_stats();
        let (hits, falls) = (
            after.certified - before.certified,
            after.fallback - before.fallback,
        );
        assert_eq!(
            (hits, falls),
            if rail { (0, 3) } else { (3, 0) },
            "exact_mac_micro {arm} arm took the wrong path"
        );
        let mut g_ref = g0.clone();
        for b in 0..B {
            assert_eq!(y.row(b), w.gemv_alloc(a.row(b)).unwrap().as_slice());
            assert_eq!(yt.row(b), w.gemv_t_alloc(e.row(b)).unwrap().as_slice());
            g_ref.add_outer(e.row(b), a.row(b)).unwrap();
        }
        assert_eq!(g, g_ref, "exact_mac_micro {arm} add_outer_batch diverged");

        let ns = time_ns_per_sample(reps, B, || {
            pack.gemv_batch(std::hint::black_box(&a), &mut y).unwrap();
            std::hint::black_box(&y);
        });
        push(records, format!("exact_mac gemv_batch {arm}"), ns);
        let ns = time_ns_per_sample(reps, B, || {
            pack.gemv_t_batch(std::hint::black_box(&e), &mut yt)
                .unwrap();
            std::hint::black_box(&yt);
        });
        push(records, format!("exact_mac gemv_t_batch {arm}"), ns);
        // The gradient restarts from its initial value every rep, so
        // every timed call sees the arm's inputs (and takes its path).
        let ns = time_ns_per_sample(reps, B, || {
            g.as_mut_slice().copy_from_slice(g0.as_slice());
            g.add_outer_batch(std::hint::black_box(&e), std::hint::black_box(&a))
                .unwrap();
            std::hint::black_box(&g);
        });
        push(records, format!("exact_mac add_outer_batch {arm}"), ns);
    }
}
