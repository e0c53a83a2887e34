//! Saturation health of the certified exact-MAC kernels.
//!
//! `WeightPack::gemv_batch`, `WeightPack::gemv_t_batch` and
//! `Matrix::add_outer_batch` take their wrapping-MAC fast path only when
//! a no-saturation certificate holds, and count every decision in
//! `fixar_tensor::exact_mac_stats`. The counters are process-wide, so
//! this suite has its own test binary and its tests take one lock: each
//! reads the counters before and after its own work.

use std::sync::{Mutex, MutexGuard};

use fixar_env::{EnvKind, EnvPool};
use fixar_fixed::Fx32;
use fixar_rl::{DdpgConfig, VecTrainer};
use fixar_tensor::{exact_mac_stats, ExactMacStats, Matrix};

static COUNTERS: Mutex<()> = Mutex::new(());

fn counters() -> MutexGuard<'static, ()> {
    COUNTERS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// `(certified, fallback)` spans counted since `before`.
fn since(before: ExactMacStats) -> (u64, u64) {
    let now = exact_mac_stats();
    (
        now.certified - before.certified,
        now.fallback - before.fallback,
    )
}

#[test]
fn paper_scale_ddpg_updates_never_fall_back() {
    let _lock = counters();
    // Paper-scale DDPG (400-300 networks, batch 64) on HalfCheetah with
    // 16-bit QAT; the QAT delay ends with the warmup, so the updates
    // cover the calibrating and the frozen path.
    let warmup = 64;
    let cfg = DdpgConfig {
        hidden: (400, 300),
        batch_size: 64,
        replay_capacity: 256,
        warmup_steps: warmup,
        seed: 3,
        ..DdpgConfig::default()
    }
    .with_qat(warmup, 16);
    let pool = EnvPool::from_kind(EnvKind::HalfCheetah, 1, 11);
    let mut trainer = VecTrainer::<Fx32>::new(pool, EnvKind::HalfCheetah.make(12), cfg).unwrap();
    let before = exact_mac_stats();
    trainer.run(warmup + 4, u64::MAX, 1).unwrap();
    let (certified, fallback) = since(before);
    assert_eq!(fallback, 0, "a paper-scale update fell back to the chain");
    assert!(certified > 0, "no kernel span took the certified path");
}

#[test]
fn certificate_decides_exactly_at_the_rail() {
    let _lock = counters();
    // Row 0 of W sums to T raw units and every input is 1.0, so the
    // forward bound is T + cols + 2: admitted up to i32::MAX - 1.
    const COLS: usize = 40;
    let admitted = i32::MAX - COLS as i32 - 3;
    for (t, expect) in [(admitted, (1, 0)), (admitted + 1, (0, 1))] {
        let mut w = Matrix::<Fx32>::zeros(3, COLS);
        w.row_mut(0)[0] = Fx32::from_raw(t - (COLS as i32 - 1));
        for v in &mut w.row_mut(0)[1..] {
            *v = Fx32::EPSILON;
        }
        let a = Matrix::from_vec(2, COLS, vec![Fx32::ONE; 2 * COLS]).unwrap();
        let pack = w.pack();
        let mut y = Matrix::zeros(2, 3);
        let before = exact_mac_stats();
        pack.gemv_batch(&a, &mut y).unwrap();
        assert_eq!(since(before), expect, "row sum {t}");
        assert_eq!(y[(1, 0)].raw(), t);
    }
}

#[test]
fn near_max_weight_row_takes_the_fallback() {
    let _lock = counters();
    let mut w = Matrix::<f64>::from_fn(300, 400, |r, c| ((r * 7 + c) % 13) as f64 * 0.01 - 0.06)
        .cast::<Fx32>();
    let a = Matrix::<f64>::from_fn(64, 400, |b, c| ((b + 3 * c) % 11) as f64 * 0.1 - 0.5)
        .cast::<Fx32>();
    let e =
        Matrix::<f64>::from_fn(64, 300, |b, r| ((b * 5 + r) % 7) as f64 * 0.1 - 0.3).cast::<Fx32>();
    let run = |w: &Matrix<Fx32>| {
        let pack = w.pack();
        let (mut y, mut yt) = (Matrix::zeros(64, 300), Matrix::zeros(64, 400));
        let before = exact_mac_stats();
        pack.gemv_batch(&a, &mut y).unwrap();
        pack.gemv_t_batch(&e, &mut yt).unwrap();
        let counts = since(before);
        for b in 0..64 {
            assert_eq!(y.row(b), w.gemv_alloc(a.row(b)).unwrap().as_slice());
            assert_eq!(yt.row(b), w.gemv_t_alloc(e.row(b)).unwrap().as_slice());
        }
        counts
    };
    assert_eq!(run(&w), (2, 0));
    for v in w.row_mut(0) {
        *v = Fx32::from_f64(2047.0);
    }
    // The forward bound sums the whole row and refuses; each column of
    // the transposed bound holds one near-MAX word, which still fits.
    assert_eq!(run(&w), (1, 1), "a near-MAX weight row must be refused");
}
