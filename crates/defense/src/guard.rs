//! Runtime guards: the [`Countermeasure`] trait and the three modelled
//! defence families.
//!
//! A guard observes the write stream and the thermal state of the array and
//! answers, per write, with a [`GuardAction`]: let it pass, insert idle time
//! (throttling) or refresh the half-selected neighbours of the written cell.
//! Guards are deliberately cheap state machines — what an on-die memory
//! controller could realistically implement — and are built from a
//! declarative [`crate::GuardSpec`] so whole guard grids can be swept by the
//! campaign layer.

use serde::{Deserialize, Serialize};

use rram_crossbar::CellAddress;
use rram_units::{Kelvin, Seconds};

/// Action a guard requests after observing a write.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum GuardAction {
    /// Let the write proceed normally.
    Allow,
    /// Insert idle time before the next write (throttling).
    Throttle(Seconds),
    /// Refresh the half-selected neighbours of the hammered cell.
    RefreshNeighbors,
}

/// A runtime defence observing the write stream and the thermal state.
///
/// Implementations must be deterministic, and their answers may depend
/// only on the observations they are given (the `on_write` arguments so
/// far), never on the engine or on anything outside the guard: campaign
/// reproducibility relies on a guard answering identically for the
/// identical observation sequence, and a guard family
/// ([`crate::Trunk`]) runs every guard of a campaign point's family on one
/// shared trajectory, which is exact only because a guard that has
/// answered [`GuardAction::Allow`] to every write so far cannot tell that
/// trajectory from its own.
pub trait Countermeasure: std::fmt::Debug {
    /// Called for every write pulse issued to `cell` at simulated time
    /// `now`; `peak_crosstalk` is the hottest crosstalk ΔT anywhere in the
    /// array at the sampling instant (what an on-die sensor network reports,
    /// and what every backend exposes lane-wise through
    /// [`rram_crossbar::HammerBackend::peak_crosstalk`]).
    fn on_write(&mut self, cell: CellAddress, now: Seconds, peak_crosstalk: Kelvin) -> GuardAction;

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// pTRR/TRR-like write-counter guard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WriteCounterGuard {
    /// Writes allowed to a single cell within one window before its
    /// neighbours are refreshed.
    pub threshold: u64,
    /// Length of the counting window, s.
    pub window: Seconds,
    counts: std::collections::HashMap<CellAddress, u64>,
    window_start: f64,
}

impl WriteCounterGuard {
    /// Creates a guard with the given per-window write threshold.
    pub fn new(threshold: u64, window: Seconds) -> Self {
        WriteCounterGuard {
            threshold,
            window,
            counts: std::collections::HashMap::new(),
            window_start: 0.0,
        }
    }
}

impl Countermeasure for WriteCounterGuard {
    fn on_write(&mut self, cell: CellAddress, now: Seconds, _peak: Kelvin) -> GuardAction {
        if now.0 - self.window_start > self.window.0 {
            self.counts.clear();
            self.window_start = now.0;
        }
        let count = self.counts.entry(cell).or_insert(0);
        *count += 1;
        if *count >= self.threshold {
            *count = 0;
            GuardAction::RefreshNeighbors
        } else {
            GuardAction::Allow
        }
    }

    fn name(&self) -> &'static str {
        "write counters (TRR-like)"
    }
}

/// Thermal-sensor guard: throttles writes when the hottest cell's crosstalk
/// ΔT exceeds a threshold.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalSensorGuard {
    /// Crosstalk temperature threshold, K.
    pub threshold: Kelvin,
    /// Idle time inserted when the threshold is exceeded, s.
    pub cooldown: Seconds,
}

impl ThermalSensorGuard {
    /// Creates a guard that cools the array down whenever any cell's
    /// crosstalk ΔT exceeds `threshold`.
    pub fn new(threshold: Kelvin, cooldown: Seconds) -> Self {
        ThermalSensorGuard {
            threshold,
            cooldown,
        }
    }
}

impl Countermeasure for ThermalSensorGuard {
    fn on_write(&mut self, _cell: CellAddress, _now: Seconds, peak: Kelvin) -> GuardAction {
        if peak.0 > self.threshold.0 {
            GuardAction::Throttle(self.cooldown)
        } else {
            GuardAction::Allow
        }
    }

    fn name(&self) -> &'static str {
        "thermal sensors + throttling"
    }
}

/// Periodic scrubbing guard: refreshes the neighbours of the most recently
/// written cell every `period` of simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScrubbingGuard {
    /// Scrub period, s.
    pub period: Seconds,
    last_scrub: f64,
}

impl ScrubbingGuard {
    /// Creates a scrubbing guard with the given period.
    pub fn new(period: Seconds) -> Self {
        ScrubbingGuard {
            period,
            last_scrub: 0.0,
        }
    }
}

impl Countermeasure for ScrubbingGuard {
    fn on_write(&mut self, _cell: CellAddress, now: Seconds, _peak: Kelvin) -> GuardAction {
        if now.0 - self.last_scrub >= self.period.0 {
            self.last_scrub = now.0;
            GuardAction::RefreshNeighbors
        } else {
            GuardAction::Allow
        }
    }

    fn name(&self) -> &'static str {
        "periodic scrubbing"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_counter_fires_at_the_threshold_and_resets() {
        let mut guard = WriteCounterGuard::new(3, Seconds(1.0));
        let cell = CellAddress::new(1, 1);
        let peak = Kelvin(0.0);
        assert_eq!(guard.on_write(cell, Seconds(0.0), peak), GuardAction::Allow);
        assert_eq!(
            guard.on_write(cell, Seconds(1e-9), peak),
            GuardAction::Allow
        );
        assert_eq!(
            guard.on_write(cell, Seconds(2e-9), peak),
            GuardAction::RefreshNeighbors
        );
        // The counter reset: three more writes before the next refresh.
        assert_eq!(
            guard.on_write(cell, Seconds(3e-9), peak),
            GuardAction::Allow
        );
    }

    #[test]
    fn write_counter_window_expiry_clears_the_counts() {
        let mut guard = WriteCounterGuard::new(2, Seconds(1e-6));
        let cell = CellAddress::new(0, 0);
        let peak = Kelvin(0.0);
        assert_eq!(guard.on_write(cell, Seconds(0.0), peak), GuardAction::Allow);
        // Past the window: the count restarts instead of firing.
        assert_eq!(
            guard.on_write(cell, Seconds(2e-6), peak),
            GuardAction::Allow
        );
    }

    #[test]
    fn thermal_guard_throttles_above_the_threshold_only() {
        let mut guard = ThermalSensorGuard::new(Kelvin(10.0), Seconds(1e-6));
        let cell = CellAddress::new(0, 0);
        assert_eq!(
            guard.on_write(cell, Seconds(0.0), Kelvin(5.0)),
            GuardAction::Allow
        );
        assert_eq!(
            guard.on_write(cell, Seconds(0.0), Kelvin(15.0)),
            GuardAction::Throttle(Seconds(1e-6))
        );
    }

    #[test]
    fn scrubbing_guard_fires_once_per_period() {
        let mut guard = ScrubbingGuard::new(Seconds(1e-6));
        let cell = CellAddress::new(0, 0);
        let peak = Kelvin(0.0);
        // The very first write is already one period past t = 0? No: the
        // guard scrubs when `now - last_scrub >= period`, so t = 0 passes.
        assert_eq!(guard.on_write(cell, Seconds(0.0), peak), GuardAction::Allow);
        assert_eq!(
            guard.on_write(cell, Seconds(1.5e-6), peak),
            GuardAction::RefreshNeighbors
        );
        assert_eq!(
            guard.on_write(cell, Seconds(2e-6), peak),
            GuardAction::Allow
        );
        assert_eq!(
            guard.on_write(cell, Seconds(2.5e-6), peak),
            GuardAction::RefreshNeighbors
        );
    }
}
