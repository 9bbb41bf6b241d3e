//! Sweep data types: the series a [`crate::campaign::CampaignReport`] is
//! sliced into along one grid axis (one line of a Fig. 3 plot).

use serde::{Deserialize, Serialize};

/// One point of a parameter sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The swept parameter value (in the unit stated by the series label).
    pub parameter: f64,
    /// Human-readable label of the point (e.g. `"50 ns"`).
    pub label: String,
    /// Number of pulses needed to trigger the bit-flip, if it occurred
    /// within the budget.
    pub pulses: Option<u64>,
    /// Whether the flip occurred within the budget.
    pub flipped: bool,
}

/// A named series of sweep points (one line of a Fig. 3 plot).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct SweepSeries {
    /// Name of the series (e.g. `"50 ns pulses"`).
    pub name: String,
    /// The points, in sweep order.
    pub points: Vec<SweepPoint>,
}

impl SweepSeries {
    /// Creates an empty series.
    pub fn new(name: impl Into<String>) -> Self {
        SweepSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Pulse counts of the points that flipped, in order.
    pub fn pulse_counts(&self) -> Vec<f64> {
        self.points
            .iter()
            .filter_map(|p| p.pulses.map(|n| n as f64))
            .collect()
    }

    /// Returns `true` when every point flipped within its budget.
    pub fn all_flipped(&self) -> bool {
        self.points.iter().all(|p| p.flipped)
    }

    /// Returns `true` when the pulse counts decrease (non-strictly) along the
    /// sweep — the qualitative check used for Fig. 3a/3c.
    pub fn is_monotonically_decreasing(&self) -> bool {
        rram_analysis::stats::is_monotonic_decreasing(&self.pulse_counts())
    }

    /// Returns `true` when the pulse counts increase (non-strictly) along the
    /// sweep — the qualitative check used for Fig. 3b.
    pub fn is_monotonically_increasing(&self) -> bool {
        rram_analysis::stats::is_monotonic_increasing(&self.pulse_counts())
    }

    /// Ratio between the first and last pulse count, if both exist.
    pub fn endpoint_ratio(&self) -> Option<f64> {
        rram_analysis::stats::endpoint_ratio(&self.pulse_counts())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(pulses: &[u64]) -> SweepSeries {
        SweepSeries {
            name: "test".into(),
            points: pulses
                .iter()
                .enumerate()
                .map(|(i, &n)| SweepPoint {
                    parameter: i as f64,
                    label: format!("{i}"),
                    pulses: Some(n),
                    flipped: true,
                })
                .collect(),
        }
    }

    #[test]
    fn monotonicity_helpers() {
        assert!(series(&[1000, 500, 100]).is_monotonically_decreasing());
        assert!(!series(&[100, 500]).is_monotonically_decreasing());
        assert!(series(&[100, 500, 500]).is_monotonically_increasing());
        assert_eq!(series(&[1000, 100]).endpoint_ratio(), Some(10.0));
    }

    #[test]
    fn all_flipped_accounts_for_failures() {
        let mut s = series(&[10, 20]);
        assert!(s.all_flipped());
        s.points.push(SweepPoint {
            parameter: 2.0,
            label: "x".into(),
            pulses: None,
            flipped: false,
        });
        assert!(!s.all_flipped());
        // Unflipped points do not contribute pulse counts.
        assert_eq!(s.pulse_counts().len(), 2);
    }
}
