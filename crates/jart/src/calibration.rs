//! Calibration helpers: switching-time measurements of an isolated device.
//!
//! The NeuroHammer evaluation only makes sense if the compact model sits in
//! the right operating regime (fast nominal SET, effectively-never half-select
//! disturb at ambient, attack-relevant disturb when heated). These helpers
//! measure those characteristic times so tests and the ablation report can
//! assert the regime instead of hard-coding device internals.

use crate::device::JartDevice;
use crate::params::DeviceParams;
use rram_units::{Kelvin, Seconds, Volts};

/// Outcome of a switching-time measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SwitchingTime {
    /// The device switched after the given stress time.
    Switched(Seconds),
    /// The device had not switched when the time budget ran out.
    NotSwitchedWithin(Seconds),
}

impl SwitchingTime {
    /// The switching time, if the device switched.
    pub fn time(self) -> Option<Seconds> {
        match self {
            SwitchingTime::Switched(t) => Some(t),
            SwitchingTime::NotSwitchedWithin(_) => None,
        }
    }

    /// `true` if the device switched within the budget.
    pub fn switched(self) -> bool {
        matches!(self, SwitchingTime::Switched(_))
    }
}

/// Measures the time a fresh HRS device needs to switch to LRS under a
/// constant voltage and an externally imposed crosstalk temperature.
///
/// The measurement advances the device in geometrically growing time slices,
/// so the result carries a relative error of at most ~10 % while cheap for
/// both nanosecond-scale and second-scale switching times.
pub fn time_to_set(
    params: &DeviceParams,
    v_cell: Volts,
    crosstalk: Kelvin,
    budget: Seconds,
) -> SwitchingTime {
    let mut device = JartDevice::new(params.clone());
    device.set_crosstalk_delta(crosstalk);

    let mut elapsed = 0.0_f64;
    // Start with a 1 ns slice and grow by 10 % per slice.
    let mut slice = 1e-9_f64;
    while elapsed < budget.0 {
        let dt = slice.min(budget.0 - elapsed);
        device.step(v_cell, Seconds(dt));
        elapsed += dt;
        if device.is_lrs() {
            return SwitchingTime::Switched(Seconds(elapsed));
        }
        slice *= 1.1;
    }
    SwitchingTime::NotSwitchedWithin(budget)
}

/// Summary of the calibration regime of a parameter set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationReport {
    /// SET time at nominal V_SET and ambient temperature.
    pub nominal_set: SwitchingTime,
    /// SET (disturb) time at V_SET/2 and ambient temperature.
    pub half_select_ambient: SwitchingTime,
    /// SET (disturb) time at V_SET/2 with a 55 K crosstalk temperature —
    /// roughly the neighbour heating of Fig. 2a.
    pub half_select_heated: SwitchingTime,
    /// Filament temperature of an LRS cell biased at V_SET.
    pub hammered_filament_temperature: Kelvin,
}

/// Runs the three characteristic measurements used to validate a parameter
/// set.
pub fn calibrate(params: &DeviceParams) -> CalibrationReport {
    let v_set = Volts(rram_units::V_SET);
    let v_half = Volts(rram_units::V_SET / 2.0);

    let nominal_set = time_to_set(params, v_set, Kelvin(0.0), Seconds(1e-3));
    let half_select_ambient = time_to_set(params, v_half, Kelvin(0.0), Seconds(50e-3));
    let half_select_heated = time_to_set(params, v_half, Kelvin(55.0), Seconds(50e-3));

    let mut lrs = JartDevice::with_state(params.clone(), crate::device::DigitalState::Lrs);
    lrs.step(v_set, Seconds(0.0));
    let hammered_filament_temperature = lrs.temperature();

    CalibrationReport {
        nominal_set,
        half_select_ambient,
        half_select_heated,
        hammered_filament_temperature,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_parameters_sit_in_the_paper_regime() {
        let report = calibrate(&DeviceParams::default());

        // Nominal SET completes within a few microseconds.
        let nominal = report.nominal_set.time().expect("nominal SET must switch");
        assert!(nominal.0 < 5e-6, "nominal SET took {nominal:?}");

        // Half-select disturb at ambient must be at least 100× slower than the
        // heated case (if it completes at all within the budget).
        let heated = report
            .half_select_heated
            .time()
            .expect("heated half-select must flip within 50 ms");
        match report.half_select_ambient {
            SwitchingTime::Switched(t) => {
                assert!(t.0 > 100.0 * heated.0, "ambient {t:?} vs heated {heated:?}")
            }
            SwitchingTime::NotSwitchedWithin(_) => {}
        }

        // The heated half-select disturb happens on the 10 µs – 10 ms scale,
        // which maps to the 10²–10⁵ pulse counts of Fig. 3.
        assert!(
            heated.0 > 1e-6 && heated.0 < 2e-2,
            "heated half-select took {heated:?}"
        );

        // Hammered filament lands in the neighbourhood of Fig. 2a's 947 K.
        let t = report.hammered_filament_temperature.0;
        assert!(t > 750.0 && t < 1100.0, "hammered filament at {t} K");
    }

    #[test]
    fn time_to_set_respects_budget() {
        let r = time_to_set(
            &DeviceParams::default(),
            Volts(0.2),
            Kelvin(0.0),
            Seconds(1e-6),
        );
        assert!(!r.switched());
        assert_eq!(r.time(), None);
    }

    #[test]
    fn higher_crosstalk_switches_faster() {
        let p = DeviceParams::default();
        let warm = time_to_set(&p, Volts(0.525), Kelvin(40.0), Seconds(1.0));
        let hot = time_to_set(&p, Volts(0.525), Kelvin(90.0), Seconds(1.0));
        let tw = warm.time().expect("40 K crosstalk should flip within 1 s");
        let th = hot.time().expect("90 K crosstalk should flip within 1 s");
        assert!(th.0 < tw.0, "hot {th:?} vs warm {tw:?}");
    }
}
