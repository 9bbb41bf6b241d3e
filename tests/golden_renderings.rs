//! Every text rendering of the golden corpus, pinned absolutely.
//!
//! `tests/golden_reports.rs` pins the report JSON; this file pins what is
//! rendered from it. For each golden name it parses the recorded
//! `<name>.report.json` (no simulation runs) and compares with
//! `renderings/<name>.txt`:
//!
//! * `CampaignReport::to_csv_string()` and `to_table()`;
//! * `series_over(axis)` for every axis in `CampaignAxis::ALL`: each
//!   series name, then each point's parameter, label, pulses and flip;
//! * the defence and Monte Carlo analyses: `defense_table`, `pareto_table`,
//!   `pareto_csv`, `defense_json`, `variability_table`, `variability_csv`
//!   and `variability_json`;
//! * the spec's JSON after a parse/render round trip.
//!
//! The recordings were made once, before the campaign axes were moved into
//! one table. A mismatch is a behaviour change: find it, never re-record.

use std::fmt::Write;
use std::path::PathBuf;

use neurohammer_repro::attack::campaign::{CampaignAxis, CampaignReport, CampaignSpec};

const NAMES: [&str; 9] = [
    "fig1",
    "fig2a",
    "fig3a",
    "fig3b",
    "fig3c",
    "fig3d",
    "fig_defense",
    "fig_variability",
    "ablation",
];

fn golden(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

fn read(file: &str) -> String {
    let path = golden(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"))
}

/// Every rendering of one golden spec and its report, as one document.
fn renderings(name: &str) -> String {
    let report = CampaignReport::from_json(&read(&format!("{name}.report.json")))
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let spec = CampaignSpec::from_json(&read(&format!("{name}.spec.json")))
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut out = String::new();
    writeln!(out, "## csv\n{}", report.to_csv_string()).unwrap();
    writeln!(out, "## table\n{}", report.to_table()).unwrap();
    for axis in CampaignAxis::ALL {
        writeln!(out, "## series over {axis:?}").unwrap();
        for series in report.series_over(axis) {
            writeln!(out, "{}", series.name).unwrap();
            for point in &series.points {
                writeln!(
                    out,
                    "  {:?} | {} | {:?} | {}",
                    point.parameter, point.label, point.pulses, point.flipped
                )
                .unwrap();
            }
        }
    }
    writeln!(out, "## defense table\n{}", report.defense_table()).unwrap();
    writeln!(out, "## pareto table\n{}", report.pareto_table()).unwrap();
    writeln!(out, "## pareto csv\n{}", report.pareto_csv()).unwrap();
    writeln!(out, "## defense json\n{}", report.defense_json()).unwrap();
    writeln!(out, "## variability table\n{}", report.variability_table()).unwrap();
    writeln!(out, "## variability csv\n{}", report.variability_csv()).unwrap();
    writeln!(out, "## variability json\n{}", report.variability_json()).unwrap();
    writeln!(out, "## spec\n{}", spec.to_json()).unwrap();
    out
}

#[test]
fn every_golden_rendering_is_unchanged() {
    for name in NAMES {
        let fresh = renderings(name);
        let expected = read(&format!("renderings/{name}.txt"));
        if fresh != expected {
            let line = fresh
                .lines()
                .zip(expected.lines())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| fresh.lines().count().min(expected.lines().count()));
            panic!(
                "{name}: rendering differs at line {}:\n  fresh:  {:?}\n  golden: {:?}",
                line + 1,
                fresh.lines().nth(line),
                expected.lines().nth(line)
            );
        }
    }
}
