//! Ablation study over the design choices of the reproduction:
//! crosstalk hub on/off, thermal time constant, pulse batching, the
//! closed-form estimator vs. the simulation — plus a cross-backend agreement
//! campaign that runs the same short burst through the fast pulse engine and
//! the MNA-backed detailed engine. Each design-choice variant is the figure
//! binaries' base campaign with one field changed, run through the campaign
//! executor.
//!
//! Run with `cargo run -p neurohammer-bench --release --bin ablation_report`.

use neurohammer::ablation_report;
use neurohammer::campaign::{CampaignAxis, CampaignSpec};
use neurohammer_bench::{figure_campaign, quick_requested, resolve_campaign, run_figure_campaign};
use rram_analysis::{Report, Table};
use rram_crossbar::BackendKind;

fn main() {
    let report = ablation_report(&figure_campaign(quick_requested())).expect("ablation failed");

    let mut rendered = Report::new("Ablation report (50 ns pulses, 50 nm spacing, 300 K)");
    rendered.section("Design-choice ablations");
    let mut table = Table::with_headers(&["variant", "# pulses to bit-flip"]);
    for row in &report.rows {
        table.push_row(vec![
            row.variant.clone(),
            row.pulses
                .map(|p| p.to_string())
                .unwrap_or_else(|| "no flip within budget".into()),
        ]);
    }
    rendered.push(table.to_string());
    rendered.push(format!(
        "closed-form estimator: {} pulses (aggressor {:.0} K, victim {:.0} K)",
        report
            .estimate
            .pulses_to_flip
            .map(|p| p.to_string())
            .unwrap_or_else(|| "-".into()),
        report.estimate.aggressor_temperature.0,
        report.estimate.victim_temperature.0
    ));

    // Backend ablation: the same 24-pulse burst through both engines, as a
    // declarative two-point campaign. The victim's drift must agree within a
    // small factor (the engines differ only in wiring parasitics).
    let spec = resolve_campaign(CampaignSpec {
        name: "backend agreement burst".into(),
        array_sizes: vec![(3, 3)],
        backends: vec![BackendKind::Pulse, BackendKind::detailed()],
        max_pulses: 24,
        batching: false,
        ..CampaignSpec::default()
    });
    let agreement = run_figure_campaign(spec, CampaignAxis::Backend);
    rendered.section("Backend agreement (pulse vs detailed engine)");
    rendered.push(agreement.to_table().to_string());
    rendered.push(match agreement.max_backend_drift_ratio() {
        Some(ratio) => format!("worst victim-drift ratio between backends: {ratio:.2}x"),
        None => "backends not comparable (no positive drift)".into(),
    });

    println!("{rendered}");
}
