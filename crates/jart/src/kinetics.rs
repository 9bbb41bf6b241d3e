//! Switching kinetics: oxygen-vacancy drift in the disc region.
//!
//! The rate of change of the disc vacancy concentration follows a
//! Mott–Gurney ion-hopping law with an Arrhenius temperature factor
//! (cf. Menzel et al., "Origin of the ultra-nonlinear switching kinetics in
//! oxide-based resistive switches"):
//!
//! ```text
//!   dn/dt = K₀ · exp(−E_A / k_B·T) · sinh( a·z·e·E_disc / (2·k_B·T) ) · W(n)
//!   K₀    = 2 · c_vo · a · ν₀ / l_disc
//! ```
//!
//! * the **Arrhenius factor** makes the kinetics exponentially sensitive to
//!   the filament temperature — this is precisely the lever NeuroHammer
//!   pulls by heating the victim cell through thermal crosstalk;
//! * the **sinh field factor** makes the kinetics ultra-nonlinear in the
//!   applied voltage, which is why a V/2 half-select pulse is normally
//!   harmless while a full V_SET pulse switches within nanoseconds to
//!   microseconds;
//! * the **window function** `W(n)` limits the concentration to
//!   `[n_min, n_max]`.
//!
//! Positive applied voltage drives SET (n increases towards `n_max`),
//! negative voltage drives RESET (n decreases towards `n_min`).

use rram_units::BOLTZMANN_EV;
use serde::{Deserialize, Serialize};

use crate::params::DeviceParams;

/// Switching direction implied by the sign of the applied voltage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// HRS → LRS (vacancy concentration increases).
    Set,
    /// LRS → HRS (vacancy concentration decreases).
    Reset,
    /// No voltage: no ion motion.
    None,
}

impl Direction {
    /// Direction implied by the sign of the active-region voltage.
    #[inline]
    pub fn from_voltage(v_active: f64) -> Self {
        if v_active > 0.0 {
            Direction::Set
        } else if v_active < 0.0 {
            Direction::Reset
        } else {
            Direction::None
        }
    }
}

/// Concentration window function limiting growth near the bounds.
///
/// For SET the window is `1 − (n/n_max)^p`, for RESET `1 − (n_min/n)^p`;
/// both are ≈1 far from the respective bound and →0 at the bound.
#[inline]
pub fn window(params: &DeviceParams, n: f64, direction: Direction) -> f64 {
    match direction {
        Direction::Set => {
            let x = (n / params.n_max).clamp(0.0, 1.0);
            (1.0 - x.powf(params.window_exponent)).max(0.0)
        }
        Direction::Reset => {
            let x = (params.n_min / n.max(params.n_min)).clamp(0.0, 1.0);
            (1.0 - x.powf(params.window_exponent)).max(0.0)
        }
        Direction::None => 0.0,
    }
}

/// Rate of change of the disc concentration, in 10²⁶ m⁻³ per second.
///
/// `v_active` is the voltage across the active (disc + junction) region in
/// volts, `temperature` the filament temperature in kelvin, `n` the current
/// disc concentration in 10²⁶ m⁻³.
///
/// The sign of the returned rate matches the switching direction: positive
/// for SET, negative for RESET, zero for an unbiased cell.
pub fn concentration_rate(params: &DeviceParams, v_active: f64, temperature: f64, n: f64) -> f64 {
    let direction = Direction::from_voltage(v_active);
    if direction == Direction::None {
        return 0.0;
    }

    let kt = BOLTZMANN_EV * temperature; // eV
    let e_field = v_active.abs() / params.l_disc; // V/m

    // Arrhenius factor with the direction-specific activation energy.
    let ea = match direction {
        Direction::Set => params.ea_set,
        Direction::Reset => params.ea_reset,
        Direction::None => unreachable!(),
    };

    // Field acceleration: sinh(a·z·E / (2·kT)), with a·z·E expressed in eV/m·m.
    let field_arg = params.hop_distance * params.z_vo * e_field / (2.0 * kt);

    // Effective vacancy supply: mean of disc and plug concentration for SET
    // (vacancies drift in from the plug reservoir), disc concentration for
    // RESET (vacancies drift out of the disc).
    let c_vo = match direction {
        Direction::Set => 0.5 * (n + params.n_plug),
        Direction::Reset => n,
        Direction::None => unreachable!(),
    };

    let k0 = 2.0 * c_vo * params.hop_distance * params.attempt_frequency / params.l_disc;
    let arrhenius = (-ea / kt).exp();
    // Guard against overflow for extreme (unphysical) voltages.
    let field_factor = if field_arg > 700.0 {
        f64::MAX
    } else {
        field_arg.sinh()
    };
    let magnitude = k0 * arrhenius * field_factor * window(params, n, direction);

    match direction {
        Direction::Set => magnitude,
        Direction::Reset => -magnitude,
        Direction::None => 0.0,
    }
}

/// Characteristic time (seconds) to traverse a concentration change `dn`
/// at a frozen rate — a convenience used by the analytic estimator and the
/// calibration module. Returns `f64::INFINITY` for a zero rate.
#[inline]
pub fn traversal_time(rate: f64, dn: f64) -> f64 {
    if rate == 0.0 {
        f64::INFINITY
    } else {
        (dn / rate).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> DeviceParams {
        DeviceParams::default()
    }

    #[test]
    fn zero_voltage_means_zero_rate() {
        assert_eq!(concentration_rate(&p(), 0.0, 300.0, 1.0), 0.0);
    }

    #[test]
    fn positive_voltage_sets_negative_resets() {
        let params = p();
        assert!(concentration_rate(&params, 0.8, 300.0, 1.0) > 0.0);
        assert!(concentration_rate(&params, -0.8, 300.0, 10.0) < 0.0);
    }

    #[test]
    fn rate_grows_with_temperature() {
        let params = p();
        let cold = concentration_rate(&params, 0.5, 300.0, 0.1);
        let warm = concentration_rate(&params, 0.5, 350.0, 0.1);
        let hot = concentration_rate(&params, 0.5, 400.0, 0.1);
        assert!(warm > 10.0 * cold, "warm {warm} vs cold {cold}");
        assert!(hot > 10.0 * warm, "hot {hot} vs warm {warm}");
    }

    #[test]
    fn rate_is_ultra_nonlinear_in_voltage() {
        let params = p();
        let half = concentration_rate(&params, 0.525, 300.0, 0.1);
        let full = concentration_rate(&params, 1.05, 300.0, 0.1);
        // Doubling the voltage must buy far more than double the rate
        // (the paper relies on half-select stress being "normally harmless").
        assert!(full > 1e3 * half, "full {full} vs half {half}");
    }

    #[test]
    fn window_blocks_further_set_at_n_max() {
        let params = p();
        assert_eq!(window(&params, params.n_max, Direction::Set), 0.0);
        assert!(window(&params, params.n_min, Direction::Set) > 0.99);
        assert_eq!(concentration_rate(&params, 1.0, 400.0, params.n_max), 0.0);
    }

    #[test]
    fn window_blocks_further_reset_at_n_min() {
        let params = p();
        assert_eq!(window(&params, params.n_min, Direction::Reset), 0.0);
        assert!(window(&params, params.n_max, Direction::Reset) > 0.99);
        assert_eq!(concentration_rate(&params, -1.0, 400.0, params.n_min), 0.0);
    }

    #[test]
    fn direction_from_voltage_sign() {
        assert_eq!(Direction::from_voltage(0.3), Direction::Set);
        assert_eq!(Direction::from_voltage(-0.3), Direction::Reset);
        assert_eq!(Direction::from_voltage(0.0), Direction::None);
    }

    #[test]
    fn traversal_time_handles_zero_rate() {
        assert!(traversal_time(0.0, 1.0).is_infinite());
        assert!((traversal_time(2.0, 1.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn victim_regime_rates_bracket_the_attack_window() {
        // Order-of-magnitude calibration check: under
        // half-select stress the rate at a crosstalk-heated ~355 K filament
        // must be 2–4 orders of magnitude faster than at 300 K.
        let params = p();
        let cold = concentration_rate(&params, 0.52, 300.0, params.n_min);
        let heated = concentration_rate(&params, 0.52, 355.0, params.n_min);
        let ratio = heated / cold;
        assert!(ratio > 1e2 && ratio < 1e5, "ratio = {ratio}");
    }
}
