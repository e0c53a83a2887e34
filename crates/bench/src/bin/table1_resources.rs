//! Table I harness: per-component FPGA resource usage plus a
//! design-space sweep over core count, PE geometry, and Adam width.
//!
//! ```text
//! cargo run --release -p fixar-bench --bin table1_resources
//! ```

use fixar::prelude::*;
use fixar_accel::ResourceModel;
use fixar_bench::render_table;

fn fmt_k(v: f64) -> String {
    if v >= 1000.0 {
        format!("{:.1}K", v / 1000.0)
    } else {
        format!("{v:.0}")
    }
}

fn print_design_point(label: &str, cfg: AccelConfig) {
    let model = ResourceModel::new(cfg);
    println!("— {label} —");
    let mut rows: Vec<Vec<String>> = model
        .components()
        .into_iter()
        .map(|(name, u)| {
            vec![
                name.to_string(),
                fmt_k(u.lut),
                fmt_k(u.ff),
                format!("{:.0}", u.bram),
                format!("{:.0}", u.uram),
                format!("{:.0}", u.dsp),
            ]
        })
        .collect();
    let total = model.total();
    let (lut, ff, bram, uram, dsp) = model.utilization(&U50_BUDGET);
    rows.push(vec![
        "Total".into(),
        format!("{} ({:.1}%)", fmt_k(total.lut), lut * 100.0),
        format!("{} ({:.1}%)", fmt_k(total.ff), ff * 100.0),
        format!("{:.0} ({:.1}%)", total.bram, bram * 100.0),
        format!("{:.0} ({:.1}%)", total.uram, uram * 100.0),
        format!("{:.0} ({:.1}%)", total.dsp, dsp * 100.0),
    ]);
    println!(
        "{}",
        render_table(&["Component", "LUT", "FF", "BRAM", "URAM", "DSP"], &rows)
    );
}

fn main() {
    println!("Table I: FPGA resource usage on Xilinx Alveo U50\n");
    print_design_point(
        "paper design point (2 cores, 16x16 PEs)",
        AccelConfig::default(),
    );
    println!(
        "paper totals: 508.1K LUT (58.4%), 408.8K FF (23.5%), 774 BRAM (57.6%), \
         128 URAM (20.0%), 2302 DSP (38.8%)\n"
    );

    println!("design-space sweep:");
    let mut rows = Vec::new();
    for (cores, lanes) in [(1usize, 16usize), (2, 16), (2, 32), (4, 16), (8, 16)] {
        let cfg = AccelConfig {
            n_cores: cores,
            adam_lanes: lanes,
            ..AccelConfig::default()
        };
        let m = ResourceModel::new(cfg);
        let t = m.total();
        let (lut, _, _, _, dsp) = m.utilization(&U50_BUDGET);
        rows.push(vec![
            format!("{cores} cores / {lanes} adam lanes"),
            fmt_k(t.lut),
            format!("{:.1}%", lut * 100.0),
            format!("{:.0}", t.dsp),
            format!("{:.1}%", dsp * 100.0),
            if m.fits(&U50_BUDGET) { "yes" } else { "NO" }.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["design", "LUT", "LUT util", "DSP", "DSP util", "fits U50"],
            &rows
        )
    );
}
