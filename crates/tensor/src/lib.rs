//! Dense matrix/vector kernels generic over the FIXAR [`Scalar`] trait.
//!
//! This crate provides exactly the kernel set the FIXAR accelerator
//! implements in hardware: matrix-vector multiplication by **column-wise
//! matrix decomposition** (Fig. 4 of the paper), the transposed variant
//! used in back-propagation, and outer-product gradient accumulation —
//! plus their **batched matrix-matrix forms** ([`Matrix::gemv_batch`],
//! [`Matrix::gemv_t_batch`], [`Matrix::add_outer_batch`],
//! [`Matrix::matmul`]) that move a whole minibatch through a layer as one
//! operand, the software image of the accelerator's intra-batch
//! parallelism.
//!
//! # Accumulation-order contract
//!
//! Saturating fixed-point addition is not associative, so the *order* of a
//! dot-product reduction is part of its semantics. Every kernel here
//! accumulates in **column order** — for each matrix column `j` (one
//! broadcast activation element), partial products are added into the
//! output vector — because that is the order the adaptive array processing
//! core produces them. The accelerator model in `fixar-accel` replays the
//! same order, which is what makes the cycle-level model bit-exact against
//! this reference. Each product is rounded to the scalar format before
//! accumulation (the PE output register), and accumulation saturates (the
//! accumulator clamp).
//!
//! The batched kernels extend the contract to minibatches: a batch is one
//! row-major matrix with **one sample per row**, every output element
//! keeps the exact per-element reduction order of its per-sample kernel
//! (ascending `j` for forward, ascending `i` for the transpose), and
//! batch-level reductions (gradient accumulation across samples) run in
//! **ascending sample order**. Batched results are therefore bit-exact
//! with running the per-sample kernel row by row — only the loop nest
//! (and the throughput) differs.
//!
//! The pool-parallel kernels (`*_par`, backed by the persistent
//! [`fixar_pool::WorkerPool`]) extend it once more: work shards into
//! **disjoint output regions** — batch rows for the forward/transposed
//! MVMs and `matmul`, *weight rows* for `add_outer_batch` (whose
//! reduction runs across the batch) — and every shard executes the very
//! same span loop nest as the sequential kernel over its range. No
//! reduction chain changes and no two workers touch the same element,
//! so parallel output is **bit-identical to sequential at every worker
//! count**, for every backend including saturating `Fx32`, independent
//! of thread scheduling.
//!
//! The packed-layout kernels ([`Matrix::pack`] → [`WeightPack`])
//! restate the same contract from a cache-resident pre-transposed copy
//! of the weights: [`WeightPack::gemv_batch`] reuses the transpose
//! across calls instead of rebuilding it per batch, and
//! [`WeightPack::gemv_t_batch`] turns the transposed MVM into
//! unit-stride register-accumulated dot products. Only the loop nests
//! differ — per-element chains are unchanged — so packed ≡ unpacked ≡
//! per-sample, bit for bit, at every worker count. A pack is a
//! snapshot of the weights at [`Matrix::pack`] time; mutating the
//! source matrix afterwards does not update it (callers invalidate and
//! re-pack, as `fixar-nn`'s `Mlp` does on weight updates).
//!
//! # Certified exact-integer MACs
//!
//! The order only matters while a saturating add can clamp. The batched
//! kernels the training path runs through — [`WeightPack::gemv_batch`],
//! [`WeightPack::gemv_t_batch`] and [`Matrix::add_outer_batch`], their
//! unpacked [`Matrix::gemv_batch`] / [`Matrix::gemv_t_batch`] forms, and
//! all their `_par`/`_par_in` forms — certify each span before running it:
//! when the bound `acc + (Σ|w|·max|x|) >> F + n + 2` of a `Q32<F>`
//! reduction of length `n` stays below `i32::MAX`, no product and no
//! partial sum can saturate, so the chain equals the exact integer sum
//! in any order and the span runs the cheaper wrapping MAC
//! ([`fixar_fixed::Scalar::wrapping_mac`]). The weight side of the bound
//! is cached by [`Matrix::pack`] (the unpacked forms scan it per call,
//! next to the transpose they already rebuild); the input side is one
//! `max|x|` scan of the span's rows. A refused span runs the saturating chain unchanged,
//! so the result is the chain's bit for bit either way. Floats have no
//! certificate and always run the chain. [`exact_mac_stats`] counts the
//! certified and fallback spans.
//!
//! The `*_par_in` forms ([`Matrix::gemv_batch_par_in`],
//! [`Matrix::gemv_t_batch_par_in`], [`Matrix::add_outer_batch_par_in`],
//! [`Matrix::matmul_par_in`], [`Matrix::gather_columns_par_in`]) extend
//! the contract a final time: instead of opening a scope per kernel
//! call, they enqueue their shards into a **caller-owned fused scope**
//! ([`fixar_pool::Parallelism::fused`]), so several *independent*
//! kernels — disjoint output regions, e.g. the twin TD3 critics' MVMs
//! or a layer's gradient outer product alongside its error MVM — share
//! one barrier join per phase. The shards are the same span loop nests,
//! so fused output is bit-identical to per-kernel scopes and to
//! sequential execution at every worker count.
//!
//! [`fixar_pool::Parallelism::fused`]: Parallelism::fused
//!
//! [`Scalar`]: fixar_fixed::Scalar

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cert;
mod matrix;
pub mod vector;

pub use cert::{exact_mac_stats, ExactMacStats};
pub use fixar_pool::{KernelScope, Parallelism, PoolError, WorkerPool};
pub use matrix::{Matrix, ShapeError, WeightPack};
