//! Regenerates Fig. 2a: the mean filament temperature of every cell of a
//! 5×5 crossbar while the centre cell dissipates its LRS write power, plus
//! the extracted thermal resistance and crosstalk coefficients (Eq. 3–4).
//!
//! The headline hammer burst is expressed as a (single-point, FEM-coupled)
//! campaign spec and executed through the streaming campaign runner, so the
//! binary understands the same `--campaign`/`--csv`/`--json`/`--spec`/
//! `--shard`/`--checkpoint`/`--resume`/`--merge` flags as the other
//! figures; the per-cell temperature matrix and α extraction are rendered
//! alongside. They always show the default problem — 5×5 at 50 nm, at the
//! quick or full voxel size — whatever `--campaign` asks the burst to run;
//! with the default spec that is the field the campaign has just solved, so
//! the extraction comes from the in-process cache.
//!
//! Run with `cargo run -p neurohammer-bench --release --bin fig2a_temperature_matrix`.

use neurohammer::campaign::{CampaignAxis, CouplingSpec};
use neurohammer::fig2a_temperature_matrix;
use neurohammer_bench::{
    campaign_figure, figure_campaign, maybe_print_report_json, maybe_print_spec, quick_requested,
    resolve_campaign, run_figure_campaign, shard_requested,
};

fn main() {
    let quick = quick_requested();
    let voxel = if quick { 25.0 } else { 10.0 };

    // The paper's single experiment point — centre cell hammered at V_SET,
    // 50 nm spacing, 300 K — as a declarative campaign. The burst budget is
    // small: Fig. 2a is about the thermal field, not the bit-flip.
    let mut spec = figure_campaign(quick);
    spec.name = "fig2a temperature matrix (50 nm, 300 K)".into();
    spec.coupling = CouplingSpec::Fem { voxel_nm: voxel };
    spec.max_pulses = 20_000;
    let campaign = resolve_campaign(spec.clone());
    let report = run_figure_campaign(campaign.clone(), CampaignAxis::Spacing);
    if maybe_print_report_json(&report) {
        return;
    }

    println!(
        "{}",
        campaign_figure(
            "Fig. 2a — temperature values of the 5x5 crossbar (50 nm spacing, 300 K ambient)",
            &report,
            CampaignAxis::Spacing,
        )
    );

    // The per-cell matrix/α rendering is not sharded; only shard 0 (or an
    // unsharded/merged run) renders it, so a distributed run does not repeat
    // the extraction in every process.
    if shard_requested().is_some_and(|shard| shard.index != 0) {
        maybe_print_spec(&campaign);
        return;
    }
    let result = fig2a_temperature_matrix(&spec, &spec.points()[0]).expect("field solve failed");

    println!(
        "hammered-cell power P_LRS        : {:.3e} W",
        result.hammered_power.0
    );
    println!(
        "compact-model filament T (Eq. 6) : {:.1} K",
        result.compact_model_temperature.0
    );
    println!(
        "field-solver R_th (Eq. 3)        : {:.3e} K/W",
        result.extraction.r_th.0
    );
    println!(
        "fit intercept T0                 : {:.2} K",
        result.extraction.t0.0
    );
    println!(
        "worst per-cell fit R^2           : {:.6}",
        result.extraction.min_r_squared
    );

    println!("\nmean filament temperature per cell [K]:");
    let matrix = &result.extraction.temperature_matrix;
    for row in 0..matrix.rows() {
        let line: Vec<String> = (0..matrix.cols())
            .map(|c| format!("{:7.1}", matrix.get(row, c).0))
            .collect();
        println!("  {}", line.join(" "));
    }

    println!("\ncrosstalk coefficients alpha_ij (Eq. 4, selected cell = centre):");
    let alpha = &result.extraction.alpha;
    for row in 0..alpha.rows() {
        let line: Vec<String> = (0..alpha.cols())
            .map(|c| format!("{:7.4}", alpha.get(row, c)))
            .collect();
        println!("  {}", line.join(" "));
    }
    maybe_print_spec(&campaign);
}
