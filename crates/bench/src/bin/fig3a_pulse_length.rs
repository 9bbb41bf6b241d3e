//! Regenerates Fig. 3a: number of pulses to trigger a bit-flip vs. pulse
//! length (10–100 ns), 50 nm electrode spacing, 300 K ambient — expressed as
//! a declarative campaign grid.
//!
//! Run with `cargo run -p neurohammer-bench --release --bin fig3a_pulse_length`.
//! Pass `--campaign <spec.json>` to run a custom grid, `--csv` for raw rows,
//! `--json` for the bit-exact report JSON instead of the figure, `--spec`
//! to print the executed grid as JSON, `--shard i/n`, `--checkpoint <path>`,
//! `--resume` and `--merge <path>...` for distributed/resumable execution
//! (see the crate docs).

use neurohammer::campaign::CampaignAxis;
use neurohammer_bench::{
    campaign_figure, figure_campaign, maybe_print_report_json, maybe_print_spec, quick_requested,
    resolve_campaign, run_figure_campaign,
};

fn main() {
    let quick = quick_requested();
    let mut spec = figure_campaign(quick);
    spec.name = "fig3a pulse length sweep (50 nm, 300 K)".into();
    spec.pulse_lengths_ns = if quick {
        vec![10.0, 30.0, 50.0, 100.0]
    } else {
        (1..=10).map(|i| i as f64 * 10.0).collect()
    };
    let spec = resolve_campaign(spec);

    let report = run_figure_campaign(spec.clone(), CampaignAxis::PulseLength);
    // Machine-readable form, every float bit-exact: the CI smoke jobs diff
    // it against the scalar kernel's and the campaign service's output.
    if maybe_print_report_json(&report) {
        return;
    }
    println!(
        "{}",
        campaign_figure(
            "Fig. 3a — impact of the pulse length (50 nm spacing, 300 K)",
            &report,
            CampaignAxis::PulseLength,
        )
    );
    for series in report.series_over(CampaignAxis::PulseLength) {
        println!(
            "monotonically decreasing: {} | first/last ratio: {:.1}",
            series.is_monotonically_decreasing(),
            series.endpoint_ratio().unwrap_or(f64::NAN)
        );
    }
    maybe_print_spec(&spec);
}
