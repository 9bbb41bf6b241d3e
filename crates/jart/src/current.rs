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
//! Newton/bisection iteration. The lane kernel runs that iteration for up
//! to [`LOCKSTEP`] cells in lockstep, and [`solve_operating_point`] is its
//! one-cell case.

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

/// The ohmic part of the cell, `R_series + R_plug + R_disc(n)`, Ω.
#[inline]
fn ohmic_resistance(params: &DeviceParams, n: f64) -> f64 {
    params.r_series + params.plug_resistance() + params.disc_resistance(n)
}

/// The cell's small-signal conductance dI/dV, S, where it carries
/// `current` at disc concentration `n` (10²⁶ m⁻³): `1 / (R_ohm + dV_j/dI)`,
/// the slope the Newton step of [`solve_operating_point`] takes. Positive
/// and finite for every finite current.
pub fn differential_conductance(params: &DeviceParams, n: f64, current: f64) -> f64 {
    let g_j = params.junction_conductance(n);
    1.0 / (ohmic_resistance(params, n) + junction_dv_di(current, g_j, params.junction_v0))
}

/// Most cells one lockstep Newton solve takes, and the width of the lane
/// kernel's lockstep groups.
pub const LOCKSTEP: usize = 16;

/// Solves the cell current for an applied voltage `v_cell` and disc
/// concentration `n` (10²⁶ m⁻³): the one-cell case of the lockstep solve
/// the lane kernel runs.
///
/// The returned operating point is exact to a relative tolerance of ~1e-12
/// on the voltage balance.
///
/// # Panics
///
/// Panics if `v_cell` is not finite (callers always pass controller-generated
/// voltages).
pub fn solve_operating_point(params: &DeviceParams, v_cell: f64, n: f64) -> OperatingPoint {
    let mut op = [OperatingPoint::zero()];
    solve_operating_points::<1>(&[params], &[v_cell], &[n], &mut op);
    op[0]
}

/// The Newton state of one cell of a lockstep solve.
#[derive(Clone, Copy)]
struct Newton {
    v_cell: f64,
    /// `R_series + R_plug + R_disc(n)`.
    r_ohm: f64,
    /// Junction conductance `g_j(n)` and shape voltage `V₀`.
    g_j: f64,
    v0: f64,
    /// Convergence threshold on `|f(I)|`.
    tolerance: f64,
    /// The bracket around the root, and the iterate inside it.
    lo: f64,
    hi: f64,
    i: f64,
    /// Whether the cell still iterates.
    open: bool,
}

impl Newton {
    /// A cell that takes no iteration (a zero voltage, or a slot past the
    /// call's cells).
    const CLOSED: Newton = Newton {
        v_cell: 0.0,
        r_ohm: 0.0,
        g_j: 0.0,
        v0: 0.0,
        tolerance: 0.0,
        lo: 0.0,
        hi: 0.0,
        i: 0.0,
        open: false,
    };

    /// The bracketed start of the solve for a non-zero `v_cell`.
    #[inline]
    fn start(params: &DeviceParams, v_cell: f64, n: f64) -> Newton {
        let r_ohm = ohmic_resistance(params, n);
        // Bracket the root: at I = 0, f = −V_cell (same sign as −V); at
        // I = V_cell/R_ohm the ohmic drop alone equals V_cell and the
        // junction adds a same-signed contribution, so f has the sign of V.
        let (lo, hi) = if v_cell > 0.0 {
            (0.0, v_cell / r_ohm)
        } else {
            (v_cell / r_ohm, 0.0)
        };
        Newton {
            v_cell,
            r_ohm,
            g_j: params.junction_conductance(n),
            v0: params.junction_v0,
            tolerance: 1e-15 + 1e-12 * v_cell.abs(),
            lo,
            hi,
            i: 0.5 * (lo + hi),
            open: true,
        }
    }

    /// One iteration: closes the cell when `f(I)` is within tolerance,
    /// otherwise narrows the bracket and takes the Newton step, safeguarded
    /// to stay inside it.
    #[inline]
    fn iterate(&mut self) {
        // f(I) = I·R_ohm + V_j(I) − V_cell, strictly increasing in I.
        let i = self.i;
        let fi = i * self.r_ohm + junction_voltage(i, self.g_j, self.v0) - self.v_cell;
        if fi.abs() < self.tolerance {
            self.open = false;
            return;
        }
        if fi > 0.0 {
            self.hi = i;
        } else {
            self.lo = i;
        }
        let step = fi / (self.r_ohm + junction_dv_di(i, self.g_j, self.v0));
        let newton = i - step;
        self.i = if newton > self.lo && newton < self.hi {
            newton
        } else {
            0.5 * (self.lo + self.hi)
        };
    }
}

/// The one Newton routine: solves up to `N` cells at once, cell `k` under
/// `params[k]` at applied voltage `v_cell[k]` and concentration `n[k]`,
/// into `out[k]`.
///
/// Each cell runs exactly the iteration of [`solve_operating_point`] (at
/// most 200 safeguarded Newton steps), on its own values, so `out[k]`
/// equals its one-cell solve bit for bit. The cells advance in lockstep,
/// one iteration of every unconverged cell per round, until none is left:
/// their iterations are independent, so the processor overlaps the long
/// `asinh`/`sqrt`/division chain of one cell with the others'.
///
/// # Panics
///
/// Panics if the four slices differ in length, if they hold more than `N`
/// cells, or if a voltage is not finite.
#[inline]
pub(crate) fn solve_operating_points<const N: usize>(
    params: &[&DeviceParams],
    v_cell: &[f64],
    n: &[f64],
    out: &mut [OperatingPoint],
) {
    let cells = out.len();
    assert!(
        cells <= N && params.len() == cells && v_cell.len() == cells && n.len() == cells,
        "a lockstep solve takes at most {N} cells, each with params, a voltage and an n"
    );
    let mut newton = [Newton::CLOSED; N];
    for (k, state) in newton.iter_mut().enumerate().take(cells) {
        assert!(v_cell[k].is_finite(), "applied voltage must be finite");
        if v_cell[k] != 0.0 {
            *state = Newton::start(params[k], v_cell[k], n[k]);
        }
    }
    for _ in 0..200 {
        let mut open = false;
        for state in &mut newton[..cells] {
            if state.open {
                state.iterate();
                open |= state.open;
            }
        }
        if !open {
            break;
        }
    }
    for (k, (slot, state)) in out.iter_mut().zip(&newton).enumerate() {
        *slot = if v_cell[k] == 0.0 {
            OperatingPoint::zero()
        } else {
            let i = state.i;
            let v_active = v_cell[k] - i * (params[k].r_series + params[k].plug_resistance());
            let power_active = (v_active * i).abs();
            let resistance = if i == 0.0 {
                f64::INFINITY
            } else {
                v_cell[k] / i
            };
            OperatingPoint {
                v_cell: v_cell[k],
                current: i,
                v_active,
                power_active,
                resistance,
            }
        };
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
    use crate::params::{ParamColumns, ParamField};

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

    /// Asserts `I·R_ohm + V_j(I) = V_cell` at a solved point.
    fn assert_balanced(p: &DeviceParams, op: OperatingPoint, v: f64, n: f64) {
        let g_j = p.junction_conductance(n);
        let vj = junction_voltage(op.current, g_j, p.junction_v0);
        let balance = op.current * (p.r_series + p.plug_resistance() + p.disc_resistance(n)) + vj;
        assert!(
            (balance - v).abs() < 1e-9 * v.abs().max(1e-3),
            "balance {balance} vs {v} at n={n}"
        );
    }

    #[test]
    fn voltage_balance_holds() {
        let p = params();
        let mut cases = Vec::new();
        for &n in &[p.n_min, 1.0, 5.0, p.n_max] {
            for &v in &[-1.5, -0.525, 0.2, 0.525, 1.05, 1.5] {
                assert_balanced(&p, solve_operating_point(&p, v, n), v, n);
                cases.push((v, n));
            }
        }
        // The same points solved in lockstep groups, a full one and a
        // partial one.
        for group in cases.chunks(LOCKSTEP) {
            let v: Vec<f64> = group.iter().map(|&(v, _)| v).collect();
            let n: Vec<f64> = group.iter().map(|&(_, n)| n).collect();
            let mut out = vec![OperatingPoint::zero(); group.len()];
            solve_operating_points::<LOCKSTEP>(&vec![&p; group.len()], &v, &n, &mut out);
            for (op, &(v, n)) in out.into_iter().zip(group) {
                assert_balanced(&p, op, v, n);
            }
        }
    }

    /// splitmix64, the test's deterministic source of cases.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `[lo, hi)`.
        fn range(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (self.next() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
        }
    }

    #[test]
    fn lockstep_groups_match_their_one_cell_solves_bit_for_bit() {
        // Every field the solve reads varies per cell.
        let fields = [
            ParamField::FilamentRadius,
            ParamField::LDisc,
            ParamField::LPlug,
            ParamField::RSeries,
            ParamField::JunctionV0,
            ParamField::JunctionGMin,
            ParamField::JunctionGMax,
        ];
        let mut rng = Rng(0x1ab5_7e90);
        let nominal = params();
        let cells = 4 * LOCKSTEP;
        let mut table = ParamColumns::uniform(nominal.clone(), cells);
        for field in fields {
            let column = (0..cells)
                .map(|_| rng.range(0.7, 1.3) * field.get(&nominal))
                .collect();
            table.set_column(field, column);
        }
        let special = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-12, 1e-9];
        for len in 1..=LOCKSTEP {
            for _ in 0..40 {
                let lanes: Vec<DeviceParams> = (0..len)
                    .map(|_| table.lane(rng.next() as usize % cells).into_owned())
                    .collect();
                let v: Vec<f64> = (0..len)
                    .map(|_| match rng.next() % 4 {
                        0 => special[rng.next() as usize % special.len()],
                        _ => rng.range(-1.5, 1.5),
                    })
                    .collect();
                let n: Vec<f64> = lanes
                    .iter()
                    .map(|p| match rng.next() % 8 {
                        0 => p.n_min,
                        1 => p.n_max,
                        _ => rng.range(p.n_min, p.n_max),
                    })
                    .collect();
                let mut out = vec![OperatingPoint::zero(); len];
                let refs: Vec<&DeviceParams> = lanes.iter().collect();
                solve_operating_points::<LOCKSTEP>(&refs, &v, &n, &mut out);
                for k in 0..len {
                    let one = solve_operating_point(&lanes[k], v[k], n[k]);
                    let fields = |op: OperatingPoint| {
                        [
                            op.v_cell,
                            op.current,
                            op.v_active,
                            op.power_active,
                            op.resistance,
                        ]
                        .map(f64::to_bits)
                    };
                    assert_eq!(
                        fields(out[k]),
                        fields(one),
                        "cell {k} of {len}: v {} n {}",
                        v[k],
                        n[k]
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn a_non_finite_voltage_in_a_group_panics() {
        let p = params();
        let mut out = [OperatingPoint::zero(); 2];
        solve_operating_points::<LOCKSTEP>(&[&p, &p], &[0.5, f64::INFINITY], &[1.0, 1.0], &mut out);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn a_group_wider_than_the_lockstep_panics() {
        let p = params();
        let mut out = [OperatingPoint::zero(); LOCKSTEP + 1];
        let v = [0.5; LOCKSTEP + 1];
        solve_operating_points::<LOCKSTEP>(&[&p; LOCKSTEP + 1], &v, &v, &mut out);
    }

    #[test]
    fn differential_conductance_matches_the_finite_difference() {
        let p = params();
        let current = |v: f64, n: f64| solve_operating_point(&p, v, n).current;
        let dv = 1e-6;
        for k in 0..=10 {
            let n = p.n_min + (p.n_max - p.n_min) * f64::from(k) / 10.0;
            for magnitude in [0.05, 0.1, 0.2, 0.4, 0.525, 0.7, 0.9, 1.05, 1.15, 1.3] {
                for v in [magnitude, -magnitude] {
                    let g = differential_conductance(&p, n, current(v, n));
                    let slope = (current(v + dv, n) - current(v - dv, n)) / (2.0 * dv);
                    assert!(
                        (g - slope).abs() <= 1e-6 * slope.abs(),
                        "n {n} v {v}: {g} vs {slope}"
                    );
                }
            }
            let g = differential_conductance(&p, n, current(0.0, n));
            assert!(g > 0.0 && g.is_finite(), "n {n}: {g} at 0 V");
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
