//! Static I–V solution of the cell.
//!
//! The cell is a series connection of
//!
//! ```text
//!   V_cell = I·R_series + I·R_plug + I·R_disc(n) + V_j(I, n)
//! ```
//!
//! where the interface junction is a smooth nonlinear element
//! `V_j(I) = V₀·asinh(I / (g_j(n)·V₀))` that is ohmic for small currents
//! (conductance `g_j(n)`) and sub-linear for large currents, mimicking the
//! barrier-dominated interface of a VCM cell. The junction voltage is a
//! strictly increasing function of the current, so the scalar equation for
//! `I` has a unique solution which is found with a safeguarded
//! Newton/bisection iteration.

use serde::{Deserialize, Serialize};

use crate::params::DeviceParams;

/// The static operating point of a cell for a given applied voltage and
/// state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperatingPoint {
    /// Voltage applied across the whole cell (including series resistance), V.
    pub v_cell: f64,
    /// Cell current, A. Positive for positive applied voltage.
    pub current: f64,
    /// Voltage across the active region (disc + junction), V.
    pub v_active: f64,
    /// Power dissipated in the active region, W (this is the `P_d` of Eq. 6).
    pub power_active: f64,
    /// Total static resistance `V/I`, Ω (infinite for zero voltage).
    pub resistance: f64,
}

impl OperatingPoint {
    /// Operating point of an unbiased cell.
    pub fn zero() -> Self {
        OperatingPoint {
            v_cell: 0.0,
            current: 0.0,
            v_active: 0.0,
            power_active: 0.0,
            resistance: f64::INFINITY,
        }
    }
}

/// Junction voltage for a given current.
#[inline]
fn junction_voltage(current: f64, g_j: f64, v0: f64) -> f64 {
    v0 * (current / (g_j * v0)).asinh()
}

/// Derivative of the junction voltage with respect to current.
#[inline]
fn junction_dv_di(current: f64, g_j: f64, v0: f64) -> f64 {
    let x = current / (g_j * v0);
    1.0 / (g_j * (1.0 + x * x).sqrt())
}

/// Solves the cell current for an applied voltage `v_cell` and disc
/// concentration `n` (10²⁶ m⁻³).
///
/// The returned operating point is exact to a relative tolerance of ~1e-12
/// on the voltage balance.
///
/// # Panics
///
/// Panics if `v_cell` is not finite (callers always pass controller-generated
/// voltages).
pub fn solve_operating_point(params: &DeviceParams, v_cell: f64, n: f64) -> OperatingPoint {
    assert!(v_cell.is_finite(), "applied voltage must be finite");
    if v_cell == 0.0 {
        return OperatingPoint::zero();
    }

    let r_ohm = params.r_series + params.plug_resistance() + params.disc_resistance(n);
    let g_j = params.junction_conductance(n);
    let v0 = params.junction_v0;

    // f(I) = I·R_ohm + V_j(I) − V_cell, strictly increasing in I.
    let f = |i: f64| i * r_ohm + junction_voltage(i, g_j, v0) - v_cell;
    let df = |i: f64| r_ohm + junction_dv_di(i, g_j, v0);

    // Bracket the root: at I = 0, f = −V_cell (same sign as −V); at
    // I = V_cell/R_ohm the ohmic drop alone equals V_cell and the junction
    // adds a same-signed contribution, so f has the sign of V.
    let (mut lo, mut hi) = if v_cell > 0.0 {
        (0.0, v_cell / r_ohm)
    } else {
        (v_cell / r_ohm, 0.0)
    };

    let mut i = 0.5 * (lo + hi);
    for _ in 0..200 {
        let fi = f(i);
        if fi.abs() < 1e-15 + 1e-12 * v_cell.abs() {
            break;
        }
        if fi > 0.0 {
            hi = i;
        } else {
            lo = i;
        }
        // Newton step, safeguarded to stay inside the bracket.
        let step = fi / df(i);
        let newton = i - step;
        i = if newton > lo && newton < hi {
            newton
        } else {
            0.5 * (lo + hi)
        };
    }

    let v_active = v_cell - i * (params.r_series + params.plug_resistance());
    let power_active = (v_active * i).abs();
    let resistance = if i == 0.0 { f64::INFINITY } else { v_cell / i };
    OperatingPoint {
        v_cell,
        current: i,
        v_active,
        power_active,
        resistance,
    }
}

/// Static resistance of the cell at a given read voltage and state — the
/// value a read circuit would observe.
pub fn read_resistance(params: &DeviceParams, v_read: f64, n: f64) -> f64 {
    solve_operating_point(params, v_read, n).resistance
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> DeviceParams {
        DeviceParams::default()
    }

    #[test]
    fn zero_voltage_gives_zero_current() {
        let op = solve_operating_point(&params(), 0.0, 1.0);
        assert_eq!(op.current, 0.0);
        assert_eq!(op.power_active, 0.0);
        assert!(op.resistance.is_infinite());
    }

    #[test]
    fn voltage_balance_holds() {
        let p = params();
        for &n in &[p.n_min, 1.0, 5.0, p.n_max] {
            for &v in &[-1.5, -0.525, 0.2, 0.525, 1.05, 1.5] {
                let op = solve_operating_point(&p, v, n);
                let g_j = p.junction_conductance(n);
                let vj = junction_voltage(op.current, g_j, p.junction_v0);
                let balance =
                    op.current * (p.r_series + p.plug_resistance() + p.disc_resistance(n)) + vj;
                assert!(
                    (balance - v).abs() < 1e-9 * v.abs().max(1e-3),
                    "balance {balance} vs {v} at n={n}"
                );
            }
        }
    }

    #[test]
    fn lrs_carries_much_more_current_than_hrs() {
        let p = params();
        let i_lrs = solve_operating_point(&p, 1.05, p.n_max).current;
        let i_hrs = solve_operating_point(&p, 1.05, p.n_min).current;
        assert!(i_lrs > 30.0 * i_hrs, "i_lrs={i_lrs}, i_hrs={i_hrs}");
        // LRS current should be in the hundreds of microamps at V_SET.
        assert!(i_lrs > 100e-6 && i_lrs < 1e-3, "i_lrs = {i_lrs}");
    }

    #[test]
    fn hrs_read_resistance_is_hundreds_of_kohm() {
        let p = params();
        let r = read_resistance(&p, 0.2, p.n_min);
        assert!(r > 1e5 && r < 1e7, "r_hrs = {r}");
        let r_lrs = read_resistance(&p, 0.2, p.n_max);
        assert!(r_lrs < 2e4, "r_lrs = {r_lrs}");
    }

    #[test]
    fn current_is_odd_in_voltage() {
        let p = params();
        let fwd = solve_operating_point(&p, 0.7, 3.0).current;
        let rev = solve_operating_point(&p, -0.7, 3.0).current;
        assert!((fwd + rev).abs() < 1e-9 * fwd.abs());
    }

    #[test]
    fn current_increases_with_voltage_and_state() {
        let p = params();
        let i1 = solve_operating_point(&p, 0.3, 1.0).current;
        let i2 = solve_operating_point(&p, 0.6, 1.0).current;
        let i3 = solve_operating_point(&p, 0.6, 10.0).current;
        assert!(i2 > i1);
        assert!(i3 > i2);
    }

    #[test]
    fn active_power_is_less_than_total_power() {
        let p = params();
        let op = solve_operating_point(&p, 1.05, p.n_max);
        let total = op.v_cell * op.current;
        assert!(op.power_active > 0.0);
        assert!(op.power_active < total);
    }

    #[test]
    fn lrs_active_power_supports_900k_filament() {
        // The hammered (LRS) cell at V_SET should dissipate enough power in
        // the active region that Rth,eff · P lands the filament in the
        // vicinity of the ~947 K reported in Fig. 2a.
        let p = params();
        let op = solve_operating_point(&p, 1.05, p.n_max);
        let dt = p.r_th_eff * op.power_active;
        assert!(dt > 450.0 && dt < 900.0, "ΔT = {dt}");
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_voltage_panics() {
        let _ = solve_operating_point(&params(), f64::NAN, 1.0);
    }
}
