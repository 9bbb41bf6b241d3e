//! Monte Carlo statistics over campaign reports: flip-probability
//! estimates with Wilson intervals and hammer-count percentile curves,
//! grouped over the trial axis.
//!
//! A variability campaign fans every grid point into `trials` Monte Carlo
//! trials (one sampled device array each). This module collapses the trial
//! axis back out: outcomes that agree on every axis *except*
//! [`CampaignAxis::Trial`] form one [`VariabilityGroup`], which carries the
//! attack-success probability (with its Wilson confidence interval) and the
//! p5/p50/p95 hammer counts over the flipped trials — the distributional
//! answer the paper's single-device Figs. 3a–d cannot give.
//!
//! # Examples
//!
//! ```
//! use neurohammer::campaign::CampaignSpec;
//! use rram_jart::DeviceParams;
//! use rram_variability::{ParamField, ParamSpread};
//!
//! let spec = CampaignSpec {
//!     name: "variability demo".into(),
//!     spreads: vec![ParamSpread::relative_normal(
//!         ParamField::FilamentRadius, 0.05, &DeviceParams::default())],
//!     trials: 3,
//!     seed: 7,
//!     max_pulses: 40_000,
//!     ..CampaignSpec::default()
//! };
//! let report = spec.run().unwrap();
//! let groups = report.variability_groups();
//! assert_eq!(groups.len(), 1);
//! assert_eq!(groups[0].trials, 3);
//! println!("{}", report.variability_table());
//! ```

use super::{csv_of, table_of, CampaignAxis, CampaignOutcome, CampaignReport, Column};
use crate::campaign::json::{object, Json, ToJson};
use rram_analysis::stats::{percentile, wilson_interval};
use rram_analysis::Table;

/// The normal quantile of the 95 % confidence level used by the report
/// renderings.
const Z_95: f64 = 1.96;

/// Aggregated Monte Carlo statistics of one grid point across its trials.
#[derive(Debug, Clone, PartialEq)]
pub struct VariabilityGroup {
    /// Labels of every non-trial axis, joined — the group's identity.
    pub name: String,
    /// Number of trials aggregated.
    pub trials: u64,
    /// Trials whose victim flipped within the budget.
    pub flips: u64,
    /// Point estimate of the flip probability (`flips / trials`).
    pub flip_probability: f64,
    /// Lower bound of the 95 % Wilson interval of the flip probability.
    pub wilson_low: f64,
    /// Upper bound of the 95 % Wilson interval of the flip probability.
    pub wilson_high: f64,
    /// 5th percentile of the hammer counts over *flipped* trials.
    pub pulses_p5: Option<f64>,
    /// Median hammer count over flipped trials.
    pub pulses_p50: Option<f64>,
    /// 95th percentile of the hammer counts over flipped trials.
    pub pulses_p95: Option<f64>,
    /// Median victim drift over *all* trials (the progress measure when
    /// nothing flips).
    pub drift_p50: f64,
}

impl VariabilityGroup {
    /// Builds the statistics of one group from its member outcomes.
    fn of(name: String, members: &[&CampaignOutcome]) -> VariabilityGroup {
        let trials = members.len() as u64;
        let flips = members.iter().filter(|o| o.flipped).count() as u64;
        let pulse_counts: Vec<f64> = members
            .iter()
            .filter(|o| o.flipped)
            .map(|o| o.pulses as f64)
            .collect();
        let drifts: Vec<f64> = members.iter().map(|o| o.victim_drift).collect();
        let (wilson_low, wilson_high) = wilson_interval(flips, trials, Z_95).unwrap_or((0.0, 1.0));
        VariabilityGroup {
            name,
            trials,
            flips,
            flip_probability: flips as f64 / trials as f64,
            wilson_low,
            wilson_high,
            pulses_p5: percentile(&pulse_counts, 0.05),
            pulses_p50: percentile(&pulse_counts, 0.50),
            pulses_p95: percentile(&pulse_counts, 0.95),
            drift_p50: percentile(&drifts, 0.50).unwrap_or(f64::NAN),
        }
    }
}

fn pulses_cell(pulses: Option<f64>) -> String {
    pulses.map_or_else(|| "—".into(), |p| format!("{p:.0}"))
}

fn pulses_raw(pulses: Option<f64>) -> String {
    pulses.map_or_else(String::new, |p| format!("{p}"))
}

const VARIABILITY_TABLE: [Column<VariabilityGroup>; 9] = [
    ("point", |g| g.name.clone()),
    ("trials", |g| g.trials.to_string()),
    ("flips", |g| g.flips.to_string()),
    ("P(flip)", |g| format!("{:.3}", g.flip_probability)),
    ("95% Wilson", |g| {
        format!("[{:.3}, {:.3}]", g.wilson_low, g.wilson_high)
    }),
    ("pulses p5", |g| pulses_cell(g.pulses_p5)),
    ("pulses p50", |g| pulses_cell(g.pulses_p50)),
    ("pulses p95", |g| pulses_cell(g.pulses_p95)),
    ("drift p50", |g| format!("{:.3e}", g.drift_p50)),
];

const VARIABILITY_CSV: [Column<VariabilityGroup>; 10] = [
    ("point", |g| g.name.clone()),
    ("trials", |g| g.trials.to_string()),
    ("flips", |g| g.flips.to_string()),
    ("flip_probability", |g| format!("{}", g.flip_probability)),
    ("wilson_low_95", |g| format!("{}", g.wilson_low)),
    ("wilson_high_95", |g| format!("{}", g.wilson_high)),
    ("pulses_p5", |g| pulses_raw(g.pulses_p5)),
    ("pulses_p50", |g| pulses_raw(g.pulses_p50)),
    ("pulses_p95", |g| pulses_raw(g.pulses_p95)),
    ("drift_p50", |g| format!("{}", g.drift_p50)),
];

impl CampaignReport {
    /// Collapses the trial axis: one [`VariabilityGroup`] per combination
    /// of the remaining axes, in first-seen (grid) order.
    ///
    /// Grouping keys on the exact coordinate bits (the point's content
    /// fingerprint with the trial zeroed), not on display labels — grid
    /// points that merely *render* identically (e.g. amplitudes 1.049 V
    /// and 1.051 V, both shown as "1.05 V") stay separate groups.
    pub fn variability_groups(&self) -> Vec<VariabilityGroup> {
        let group_id = |outcome: &CampaignOutcome| {
            let mut point = outcome.point;
            point.trial = 0;
            point.id()
        };
        self.groups_by(group_id)
            .into_iter()
            .map(|members| {
                let name = members[0].point.series_key(CampaignAxis::Trial);
                VariabilityGroup::of(name, &members)
            })
            .collect()
    }

    /// Renders the Monte Carlo statistics as a text table: flip probability
    /// with its 95 % Wilson interval and the p5/p50/p95 hammer counts per
    /// group.
    pub fn variability_table(&self) -> Table {
        table_of(&self.variability_groups(), &VARIABILITY_TABLE)
    }

    /// Renders the Monte Carlo statistics as CSV (raw numeric columns; the
    /// pulse percentiles are empty when no trial flipped).
    pub fn variability_csv(&self) -> String {
        csv_of(&self.variability_groups(), &VARIABILITY_CSV)
    }

    /// Renders the Monte Carlo statistics as pretty-printed JSON (one
    /// object per group, same fields as the CSV).
    pub fn variability_json(&self) -> String {
        let groups = self.variability_groups().into_iter().map(|group| {
            object([
                ("point", group.name.to_json()),
                ("trials", group.trials.to_json()),
                ("flips", group.flips.to_json()),
                ("flip_probability", group.flip_probability.to_json()),
                ("wilson_low_95", group.wilson_low.to_json()),
                ("wilson_high_95", group.wilson_high.to_json()),
                ("pulses_p5", group.pulses_p5.to_json()),
                ("pulses_p50", group.pulses_p50.to_json()),
                ("pulses_p95", group.pulses_p95.to_json()),
                ("drift_p50", group.drift_p50.to_json()),
            ])
        });
        Json::Array(groups.collect()).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::super::CampaignSpec;
    use rram_jart::DeviceParams;
    use rram_variability::{ParamField, ParamSpread};

    fn monte_carlo_spec() -> CampaignSpec {
        CampaignSpec {
            name: "stats test".into(),
            spreads: vec![ParamSpread::relative_normal(
                ParamField::FilamentRadius,
                0.06,
                &DeviceParams::default(),
            )],
            trials: 4,
            seed: 99,
            amplitudes_v: vec![1.05, 1.15],
            max_pulses: 60_000,
            ..CampaignSpec::default()
        }
    }

    #[test]
    fn groups_collapse_the_trial_axis() {
        let report = monte_carlo_spec().run().unwrap();
        assert_eq!(report.outcomes.len(), 8);
        let groups = report.variability_groups();
        assert_eq!(groups.len(), 2, "one group per amplitude");
        for group in &groups {
            assert_eq!(group.trials, 4);
            assert!(group.flips <= group.trials);
            assert!(
                group.wilson_low <= group.flip_probability
                    && group.flip_probability <= group.wilson_high,
                "{group:?}"
            );
            if group.flips > 0 {
                let (p5, p50, p95) = (
                    group.pulses_p5.unwrap(),
                    group.pulses_p50.unwrap(),
                    group.pulses_p95.unwrap(),
                );
                assert!(p5 <= p50 && p50 <= p95, "{group:?}");
            } else {
                assert!(group.pulses_p50.is_none());
            }
        }
    }

    #[test]
    fn renderings_cover_every_group() {
        let report = monte_carlo_spec().run().unwrap();
        let table = report.variability_table().to_string();
        assert!(table.contains("P(flip)"), "{table}");
        let csv = report.variability_csv();
        assert_eq!(csv.lines().count(), 1 + report.variability_groups().len());
        assert!(csv.lines().next().unwrap().contains("wilson_low_95"));
        let json = report.variability_json();
        assert!(json.contains("flip_probability"), "{json}");
    }

    #[test]
    fn single_trial_reports_degenerate_statistics() {
        let spec = CampaignSpec {
            name: "single".into(),
            max_pulses: 200_000,
            ..CampaignSpec::default()
        };
        let report = spec.run().unwrap();
        let groups = report.variability_groups();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].trials, 1);
        // One flipped trial: all percentiles collapse onto its pulse count.
        assert!(groups[0].flips == 1);
        assert_eq!(groups[0].pulses_p5, groups[0].pulses_p50);
        assert_eq!(groups[0].pulses_p50, groups[0].pulses_p95);
    }
}
