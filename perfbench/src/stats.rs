//! Order statistics, digests and process memory.

use fixar_fixed::Fx32;
use fixar_nn::Mlp;

/// Median of `xs` (sorts in place); 0.0 for an empty slice.
pub fn median(xs: &mut [f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Nearest-rank percentile `p ∈ [0, 1]` of `xs` (sorts in place); 0.0
/// for an empty slice.
pub fn percentile(xs: &mut [f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let idx = ((xs.len() as f64 - 1.0) * p).round() as usize;
    xs[idx]
}

/// The window statistic every timed metric reports: the quartile of
/// per-window values on the favourable side (the lower quartile of
/// latencies, the upper quartile of rates). Other tenants of the host
/// only ever slow a window down, while a slower build slows every window,
/// so this quartile follows the code and not the neighbours.
pub fn favourable_quartile(per_window: &mut [f64], higher_is_better: bool) -> f64 {
    percentile(per_window, if higher_is_better { 0.75 } else { 0.25 })
}

/// FNV-1a 64 over 32-bit words.
pub fn fnv1a(words: impl IntoIterator<Item = i32>, mut h: u64) -> u64 {
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of every raw weight and bias word of the given networks, in
/// order.
pub fn digest_nets(nets: &[&Mlp<Fx32>]) -> u64 {
    let mut h = FNV_OFFSET;
    for net in nets {
        for l in 0..net.num_layers() {
            h = fnv1a(net.weight(l).as_slice().iter().map(|x| x.raw()), h);
            h = fnv1a(net.bias(l).iter().map(|x| x.raw()), h);
        }
    }
    h
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut xs: Vec<f64> = (1..=101).map(f64::from).rev().collect();
        assert_eq!(median(&mut xs), 51.0);
        assert_eq!(percentile(&mut xs, 0.99), 100.0);
        assert_eq!(median(&mut []), 0.0);
    }
}
