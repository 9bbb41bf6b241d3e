//! Defence aggregation over campaign reports: protection probabilities with
//! Wilson intervals per guarded grid point, and the guard-level
//! defence/overhead Pareto front.
//!
//! A defence campaign sweeps [`rram_defense::GuardSpec`]s against an attack
//! grid (× Monte Carlo trials when the spec carries spreads). This module
//! collapses those reports two ways:
//!
//! * [`CampaignReport::defense_groups`] — one [`DefenseGroup`] per guarded
//!   grid point (trial axis collapsed): the protection probability with its
//!   95 % Wilson interval — variability-aware tuning data — plus the mean
//!   overheads;
//! * [`CampaignReport::defense_pareto`] — one [`DefenseParetoPoint`] per
//!   *guard*, aggregated over the whole attack grid, flagged `on_front`
//!   when no other guard dominates it
//!   ([`rram_analysis::pareto::pareto_front_indices`]).
//!
//! The front coordinates are `(protection, mean relative latency
//! overhead)`; the energy overhead and false-trigger counts ride along as
//! columns. Unguarded baseline points participate with zero overhead and
//! `protection = 1 − P(flip)` — on the front unless some guard achieves at
//! least the baseline's protection at zero measured overhead (a defence
//! that is strictly free *should* dominate doing nothing).
//!
//! # Examples
//!
//! ```
//! use neurohammer::campaign::CampaignSpec;
//! use rram_defense::GuardSpec;
//! use rram_units::Seconds;
//!
//! let spec = CampaignSpec {
//!     name: "defense demo".into(),
//!     guards: vec![
//!         GuardSpec::None,
//!         GuardSpec::WriteCounter { threshold: 50, window: Seconds(1.0) },
//!     ],
//!     max_pulses: 3_000,
//!     benign_writes: 32,
//!     batching: false,
//!     ..CampaignSpec::default()
//! };
//! let report = spec.run().unwrap();
//! let pareto = report.defense_pareto();
//! assert_eq!(pareto.len(), 2);
//! // The most protective guard is always on the front.
//! let best = pareto
//!     .iter()
//!     .max_by(|a, b| a.protection.total_cmp(&b.protection))
//!     .unwrap();
//! assert!(best.on_front);
//! println!("{}", report.defense_table());
//! ```

use super::{csv_of, table_of, CampaignAxis, CampaignOutcome, CampaignReport, Column};
use crate::campaign::json::{object, Json, ToJson};
use rram_analysis::pareto::pareto_front_indices;
use rram_analysis::stats::{percentile, wilson_interval};
use rram_analysis::Table;
use rram_defense::GuardSpec;

/// The normal quantile of the 95 % confidence level used by the renderings.
const Z_95: f64 = 1.96;

/// Protection/overhead statistics of one guarded grid point across its
/// Monte Carlo trials.
#[derive(Debug, Clone, PartialEq)]
pub struct DefenseGroup {
    /// Labels of every non-trial axis, joined — the group's identity.
    pub name: String,
    /// The guard defending this group's points.
    pub guard: GuardSpec,
    /// Number of trials aggregated.
    pub trials: u64,
    /// Trials in which the attack was blocked.
    pub blocked: u64,
    /// Point estimate of the protection probability (`blocked / trials`).
    pub protection: f64,
    /// Lower bound of the 95 % Wilson interval of the protection
    /// probability.
    pub wilson_low: f64,
    /// Upper bound of the 95 % Wilson interval.
    pub wilson_high: f64,
    /// Mean relative latency overhead on the benign workload (0 for the
    /// undefended baseline).
    pub mean_overhead: f64,
    /// Mean defence energy on the benign workload, J.
    pub mean_energy_overhead_j: f64,
    /// Mean false-trigger count on the benign workload.
    pub mean_false_triggers: f64,
    /// Median pulses-to-detection over the trials in which the guard fired.
    pub detection_p50: Option<f64>,
}

/// One guard's aggregate over the whole attack grid — a candidate point of
/// the defence/overhead Pareto front.
#[derive(Debug, Clone, PartialEq)]
pub struct DefenseParetoPoint {
    /// The guard.
    pub guard: GuardSpec,
    /// The guard's display label.
    pub label: String,
    /// Outcomes aggregated (attack points × trials).
    pub points: u64,
    /// Outcomes in which the attack was blocked.
    pub blocked: u64,
    /// Protection probability over the whole grid.
    pub protection: f64,
    /// Lower bound of the 95 % Wilson interval.
    pub wilson_low: f64,
    /// Upper bound of the 95 % Wilson interval.
    pub wilson_high: f64,
    /// Mean relative latency overhead on the benign workload.
    pub mean_overhead: f64,
    /// Mean defence energy on the benign workload, J.
    pub mean_energy_overhead_j: f64,
    /// Mean false-trigger count on the benign workload.
    pub mean_false_triggers: f64,
    /// Whether this guard is non-dominated in `(protection,
    /// mean_overhead)` — on the Pareto front.
    pub on_front: bool,
}

/// Whether the attack of `outcome` was blocked (guarded points report it
/// directly; unguarded baselines block exactly when the victim survived).
fn blocked(outcome: &CampaignOutcome) -> bool {
    outcome.defense.map_or(!outcome.flipped, |d| d.blocked)
}

fn overhead_fraction(outcome: &CampaignOutcome) -> f64 {
    outcome.defense.map_or(0.0, |d| d.overhead_fraction)
}

struct Tally {
    n: u64,
    blocked: u64,
    overhead_sum: f64,
    energy_sum: f64,
    false_trigger_sum: f64,
    detections: Vec<f64>,
}

impl Tally {
    fn of(members: &[&CampaignOutcome]) -> Tally {
        Tally {
            n: members.len() as u64,
            blocked: members.iter().filter(|o| blocked(o)).count() as u64,
            overhead_sum: members.iter().map(|o| overhead_fraction(o)).sum(),
            energy_sum: members
                .iter()
                .map(|o| o.defense.map_or(0.0, |d| d.energy_overhead.0))
                .sum(),
            false_trigger_sum: members
                .iter()
                .map(|o| o.defense.map_or(0.0, |d| d.false_triggers as f64))
                .sum(),
            detections: members
                .iter()
                .filter_map(|o| o.defense.and_then(|d| d.pulses_to_detection))
                .map(|p| p as f64)
                .collect(),
        }
    }

    fn protection(&self) -> f64 {
        self.blocked as f64 / self.n as f64
    }

    fn wilson(&self) -> (f64, f64) {
        wilson_interval(self.blocked, self.n, Z_95).unwrap_or((0.0, 1.0))
    }
}

const DEFENSE_TABLE: [Column<DefenseGroup>; 9] = [
    ("point", |g| g.name.clone()),
    ("trials", |g| g.trials.to_string()),
    ("blocked", |g| g.blocked.to_string()),
    ("P(block)", |g| format!("{:.3}", g.protection)),
    ("95% Wilson", |g| {
        format!("[{:.3}, {:.3}]", g.wilson_low, g.wilson_high)
    }),
    ("overhead", |g| format!("{:.4}", g.mean_overhead)),
    ("energy [pJ]", |g| {
        format!("{:.3}", g.mean_energy_overhead_j * 1e12)
    }),
    ("false trig", |g| format!("{:.1}", g.mean_false_triggers)),
    ("detect p50", |g| {
        g.detection_p50
            .map_or_else(|| "—".into(), |p| format!("{p:.0}"))
    }),
];

const PARETO_TABLE: [Column<DefenseParetoPoint>; 8] = [
    ("guard", |p| p.label.clone()),
    ("points", |p| p.points.to_string()),
    ("P(block)", |p| format!("{:.3}", p.protection)),
    ("95% Wilson", |p| {
        format!("[{:.3}, {:.3}]", p.wilson_low, p.wilson_high)
    }),
    ("overhead", |p| format!("{:.4}", p.mean_overhead)),
    ("energy [pJ]", |p| {
        format!("{:.3}", p.mean_energy_overhead_j * 1e12)
    }),
    ("false trig", |p| format!("{:.1}", p.mean_false_triggers)),
    ("Pareto", |p| if p.on_front { "*" } else { "" }.into()),
];

const PARETO_CSV: [Column<DefenseParetoPoint>; 12] = [
    ("guard_kind", |p| p.guard.kind_label().into()),
    ("guard", |p| p.label.clone()),
    ("guard_threshold", |p| format!("{}", p.guard.axis_value())),
    ("points", |p| p.points.to_string()),
    ("blocked", |p| p.blocked.to_string()),
    ("protection", |p| format!("{}", p.protection)),
    ("wilson_low_95", |p| format!("{}", p.wilson_low)),
    ("wilson_high_95", |p| format!("{}", p.wilson_high)),
    ("mean_overhead_fraction", |p| format!("{}", p.mean_overhead)),
    ("mean_energy_overhead_j", |p| {
        format!("{}", p.mean_energy_overhead_j)
    }),
    ("mean_false_triggers", |p| {
        format!("{}", p.mean_false_triggers)
    }),
    ("on_front", |p| p.on_front.to_string()),
];

impl CampaignReport {
    /// Collapses the trial axis of a defence campaign: one [`DefenseGroup`]
    /// per combination of the remaining axes, in first-seen (grid) order.
    /// With `trials > 1` the Wilson interval quantifies how confidently the
    /// guard's protection probability is known — the variability-aware
    /// tuning signal.
    pub fn defense_groups(&self) -> Vec<DefenseGroup> {
        let group_id = |outcome: &CampaignOutcome| {
            let mut point = outcome.point;
            point.trial = 0;
            point.id()
        };
        self.groups_by(group_id)
            .into_iter()
            .map(|members| {
                let tally = Tally::of(&members);
                let (wilson_low, wilson_high) = tally.wilson();
                DefenseGroup {
                    name: members[0].point.series_key(CampaignAxis::Trial),
                    guard: members[0].point.guard,
                    trials: tally.n,
                    blocked: tally.blocked,
                    protection: tally.protection(),
                    wilson_low,
                    wilson_high,
                    mean_overhead: tally.overhead_sum / tally.n as f64,
                    mean_energy_overhead_j: tally.energy_sum / tally.n as f64,
                    mean_false_triggers: tally.false_trigger_sum / tally.n as f64,
                    detection_p50: percentile(&tally.detections, 0.50),
                }
            })
            .collect()
    }

    /// Aggregates the report per *guard* — over every attack point and
    /// trial — and flags the non-dominated `(protection, mean_overhead)`
    /// guards as the defence/overhead Pareto front.
    ///
    /// Guards appear in first-seen (grid) order, so the extraction is
    /// deterministic and identical across shard counts, backends and
    /// resumes of the same campaign.
    pub fn defense_pareto(&self) -> Vec<DefenseParetoPoint> {
        let mut points: Vec<DefenseParetoPoint> = self
            .groups_by(|outcome| outcome.point.guard.fingerprint_words())
            .into_iter()
            .map(|members| {
                let guard = members[0].point.guard;
                let tally = Tally::of(&members);
                let (wilson_low, wilson_high) = tally.wilson();
                DefenseParetoPoint {
                    guard,
                    label: guard.label(),
                    points: tally.n,
                    blocked: tally.blocked,
                    protection: tally.protection(),
                    wilson_low,
                    wilson_high,
                    mean_overhead: tally.overhead_sum / tally.n as f64,
                    mean_energy_overhead_j: tally.energy_sum / tally.n as f64,
                    mean_false_triggers: tally.false_trigger_sum / tally.n as f64,
                    on_front: false,
                }
            })
            .collect();
        let coordinates: Vec<(f64, f64)> = points
            .iter()
            .map(|p| (p.protection, p.mean_overhead))
            .collect();
        for index in pareto_front_indices(&coordinates) {
            points[index].on_front = true;
        }
        points
    }

    /// Renders the per-point defence statistics as a text table.
    pub fn defense_table(&self) -> Table {
        table_of(&self.defense_groups(), &DEFENSE_TABLE)
    }

    /// Renders the guard-level Pareto analysis as a text table (one row per
    /// guard, front members marked `*`).
    pub fn pareto_table(&self) -> Table {
        table_of(&self.defense_pareto(), &PARETO_TABLE)
    }

    /// Renders the guard-level Pareto analysis as CSV (raw numeric
    /// columns; see the README for the column semantics).
    pub fn pareto_csv(&self) -> String {
        csv_of(&self.defense_pareto(), &PARETO_CSV)
    }

    /// Renders the defence analysis as pretty-printed JSON:
    /// `{"groups": [...], "pareto": [...]}` with every float bit-exact, so
    /// two runs of the same campaign diff empty.
    pub fn defense_json(&self) -> String {
        let groups = self.defense_groups().into_iter().map(|group| {
            object([
                ("point", group.name.to_json()),
                ("guard", group.guard.label().to_json()),
                ("trials", group.trials.to_json()),
                ("blocked", group.blocked.to_json()),
                ("protection", group.protection.to_json()),
                ("wilson_low_95", group.wilson_low.to_json()),
                ("wilson_high_95", group.wilson_high.to_json()),
                ("mean_overhead_fraction", group.mean_overhead.to_json()),
                (
                    "mean_energy_overhead_j",
                    group.mean_energy_overhead_j.to_json(),
                ),
                ("mean_false_triggers", group.mean_false_triggers.to_json()),
                ("detection_p50", group.detection_p50.to_json()),
            ])
        });
        let pareto = self.defense_pareto().into_iter().map(|point| {
            object([
                ("guard", point.label.to_json()),
                ("guard_kind", Json::String(point.guard.kind_label().into())),
                ("points", point.points.to_json()),
                ("blocked", point.blocked.to_json()),
                ("protection", point.protection.to_json()),
                ("wilson_low_95", point.wilson_low.to_json()),
                ("wilson_high_95", point.wilson_high.to_json()),
                ("mean_overhead_fraction", point.mean_overhead.to_json()),
                (
                    "mean_energy_overhead_j",
                    point.mean_energy_overhead_j.to_json(),
                ),
                ("mean_false_triggers", point.mean_false_triggers.to_json()),
                ("on_front", point.on_front.to_json()),
            ])
        });
        object([
            ("groups", Json::Array(groups.collect())),
            ("pareto", Json::Array(pareto.collect())),
        ])
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::super::CampaignSpec;
    use rram_defense::GuardSpec;
    use rram_units::Seconds;

    fn defense_spec() -> CampaignSpec {
        CampaignSpec {
            name: "defense stats test".into(),
            guards: vec![
                GuardSpec::None,
                GuardSpec::WriteCounter {
                    threshold: 50,
                    window: Seconds(1.0),
                },
                GuardSpec::WriteCounter {
                    threshold: 1_000_000,
                    window: Seconds(1.0),
                },
            ],
            pulse_lengths_ns: vec![100.0],
            max_pulses: 20_000,
            benign_writes: 32,
            batching: false,
            ..CampaignSpec::default()
        }
    }

    #[test]
    fn groups_and_pareto_cover_every_guard() {
        let report = defense_spec().run().unwrap();
        assert_eq!(report.outcomes.len(), 3);
        let groups = report.defense_groups();
        assert_eq!(groups.len(), 3);
        for group in &groups {
            assert_eq!(group.trials, 1);
            assert!(
                group.wilson_low <= group.protection && group.protection <= group.wilson_high,
                "{group:?}"
            );
        }
        // The undefended baseline and the lax counter let the attack
        // through; the aggressive counter blocks it.
        let pareto = report.defense_pareto();
        assert_eq!(pareto.len(), 3);
        let by_label = |needle: &str| {
            pareto
                .iter()
                .find(|p| p.label.contains(needle))
                .unwrap_or_else(|| panic!("no guard labelled {needle}"))
        };
        assert_eq!(by_label("none").protection, 0.0);
        assert_eq!(by_label("t=50 ").protection, 1.0);
        assert_eq!(by_label("t=1000000").protection, 0.0);
        // The baseline has zero overhead by definition.
        assert_eq!(by_label("none").mean_overhead, 0.0);

        // Pareto flags: the aggressive counter blocks the attack and (with
        // only 32 spread-out benign writes, far below its threshold) never
        // fires on legitimate traffic — full protection at zero measured
        // latency overhead. It therefore dominates both the undefended
        // baseline and the lax counter: the front is exactly that guard.
        assert_eq!(by_label("t=50 ").mean_overhead, 0.0);
        assert!(by_label("t=50 ").on_front);
        assert!(!by_label("none").on_front);
        assert!(!by_label("t=1000000").on_front);
        assert_eq!(pareto.iter().filter(|p| p.on_front).count(), 1);
    }

    #[test]
    fn renderings_are_consistent_and_deterministic() {
        let report = defense_spec().run().unwrap();
        let table = report.defense_table().to_string();
        assert!(table.contains("P(block)"), "{table}");
        let pareto_table = report.pareto_table().to_string();
        assert!(pareto_table.contains("Pareto"), "{pareto_table}");
        let csv = report.pareto_csv();
        assert_eq!(csv.lines().count(), 1 + report.defense_pareto().len());
        assert!(csv.lines().next().unwrap().contains("on_front"));
        assert_eq!(report.defense_json(), report.defense_json());
        assert!(report.defense_json().contains("\"pareto\""));
    }
}
