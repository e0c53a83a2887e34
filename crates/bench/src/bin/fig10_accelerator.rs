//! Full Fig. 10 harness: accelerator-only throughput and energy
//! efficiency for FIXAR vs the GPU model, across batch sizes and both
//! precision phases, averaged over the three paper benchmarks (the
//! paper's power figures are three-benchmark averages).

use fixar::prelude::*;
use fixar_bench::{paper, render_table, verdict};

fn main() {
    println!("Fig. 10: accelerator throughput and energy efficiency\n");
    let gpu = CpuGpuPlatformModel::for_benchmark();
    let power = PowerModel::default();

    for kind in EnvKind::PAPER_BENCHMARKS {
        let spec_env = kind.make(0);
        let spec = spec_env.spec();
        let model =
            FixarPlatformModel::for_benchmark(spec.obs_dim, spec.action_dim).expect("paper dims");
        println!("— {} —", kind.name());
        let mut rows = Vec::new();
        for batch in paper::BATCH_SIZES {
            let f_full = model.accelerator_ips(batch, Precision::Full32);
            let f_half = model.accelerator_ips(batch, Precision::Half16);
            let g = gpu.accelerator_ips(batch);
            let util = model.accelerator_utilization(batch, Precision::Half16);
            rows.push(vec![
                batch.to_string(),
                format!("{f_full:.1}"),
                format!("{f_half:.1}"),
                format!("{g:.1}"),
                format!("{:.2}x", f_half / g),
                format!("{:.1}%", util * 100.0),
            ]);
        }
        println!(
            "{}",
            render_table(
                &[
                    "batch",
                    "FIXAR IPS (32b)",
                    "FIXAR IPS (16b)",
                    "GPU IPS",
                    "gap",
                    "util"
                ],
                &rows
            )
        );
    }

    // Energy efficiency at the headline operating point.
    let hc = FixarPlatformModel::for_benchmark(17, 6).unwrap();
    let f512 = hc.accelerator_ips(512, Precision::Half16);
    let g512 = gpu.accelerator_ips(512);
    println!("Fig. 10b — energy efficiency at batch 512:");
    let rows = vec![
        vec![
            "FIXAR (U50)".to_string(),
            format!("{f512:.1}"),
            format!("{:.1}", paper::FPGA_POWER_W),
            format!("{:.1}", PowerModel::ips_per_watt(f512, paper::FPGA_POWER_W)),
        ],
        vec![
            "GPU (Titan RTX)".to_string(),
            format!("{g512:.1}"),
            format!("{:.1}", paper::GPU_POWER_W),
            format!("{:.1}", power.gpu_ips_per_watt(g512)),
        ],
    ];
    println!(
        "{}",
        render_table(&["accelerator", "IPS", "avg W", "IPS/W"], &rows)
    );
    let mut rows = Vec::new();
    for batch in paper::BATCH_SIZES {
        let f_eff = PowerModel::ips_per_watt(
            hc.accelerator_ips(batch, Precision::Half16),
            paper::FPGA_POWER_W,
        );
        let g_eff = power.gpu_ips_per_watt(gpu.accelerator_ips(batch));
        rows.push(vec![
            batch.to_string(),
            format!("{f_eff:.1}"),
            format!("{g_eff:.1}"),
            format!("{:.1}x", f_eff / g_eff),
            format!(
                "{:.1}%",
                hc.accelerator_utilization(batch, Precision::Half16) * 100.0
            ),
        ]);
    }
    println!("Fig. 10b — HalfCheetah energy efficiency across batch sizes (IPS/W):");
    println!(
        "{}",
        render_table(
            &["batch", "FIXAR IPS/W", "GPU IPS/W", "gap", "PE util"],
            &rows
        )
    );
    println!(
        "{}",
        verdict("FIXAR accelerator IPS", f512, paper::ACCEL_IPS)
    );
    println!(
        "{}",
        verdict("accelerator gap @512", f512 / g512, paper::ACCEL_SPEEDUP)
    );
    println!(
        "{}",
        verdict(
            "FIXAR IPS/W",
            PowerModel::ips_per_watt(f512, paper::FPGA_POWER_W),
            paper::IPS_PER_WATT
        )
    );
    println!(
        "{}",
        verdict(
            "efficiency gap",
            PowerModel::ips_per_watt(f512, paper::FPGA_POWER_W) / power.gpu_ips_per_watt(g512),
            15.4
        )
    );
}
