//! The crossbar's resistive word and bit lines: the wired line stage of
//! the `detailed` backend, and what the [`crate::sneak`]-path analysis
//! solves.
//!
//! The line network drives each line through an ideal source behind an
//! output resistance and joins consecutive crosspoints on a line by a
//! segment resistance ([`WiringParasitics`]); it is stamped once, when it
//! is built. The cells sit at the crosspoints, so the voltage across each
//! comes from a damped Newton DC solve of the whole network. A
//! [`crate::PulseEngine`] with wired lines runs one solve before every
//! pulse sub-step, from the previous sub-step's node voltages, each
//! crosspoint linearised around its cell as it stands with the cell's
//! analytic small-signal conductance
//! ([`rram_jart::current::differential_conductance`]). The dense solve is
//! orders of magnitude slower than ideal lines, so hammer campaigns use
//! those; `tests/engine_agreement.rs` (workspace root) checks the two agree
//! when line resistance is negligible.

use std::sync::Arc;

use crate::array::CrossbarArray;
use rram_circuit::{CircuitError, DenseMatrix};
use rram_jart::current::{differential_conductance, solve_operating_point};
use rram_units::Ohms;

/// Convergence tolerance of the Newton solve on the largest node-voltage
/// update, V.
const TOLERANCE: f64 = 1e-9;
/// Newton iterations before a solve gives up.
const MAX_ITERATIONS: usize = 200;
/// Largest node-voltage update per Newton iteration (damping), V.
const MAX_STEP: f64 = 0.5;

/// Electrical parasitics of the crossbar wiring. The line network can only
/// stamp positive, finite resistances.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WiringParasitics {
    /// Resistance of one line segment between adjacent cells, Ω.
    pub segment_resistance: Ohms,
    /// Output resistance of each line driver, Ω.
    pub driver_resistance: Ohms,
}

impl Default for WiringParasitics {
    fn default() -> Self {
        WiringParasitics {
            segment_resistance: Ohms(2.5),
            driver_resistance: Ohms(50.0),
        }
    }
}

/// The modified-nodal system of a crossbar's word and bit lines, and its
/// damped Newton DC solve.
///
/// Word line `r` is driven at its column-0 end and bit line `c` at its
/// row-0 end, each by an ideal source behind the driver resistance;
/// consecutive crosspoints on a line are joined by the segment resistance.
/// The unknowns are each word line's driver node and its `cols` crosspoint
/// nodes, then each bit line's driver node and its `rows` crosspoint nodes,
/// then one branch current per source, word lines first, so bit line `c`'s
/// source is number `rows + c`. The lines are stamped once, word lines
/// first, each line's source, driver resistor and segments in turn; every
/// Newton iteration stamps the crosspoints onto a copy, in row-major order.
/// Each matrix entry so sums the same terms in the same order at every
/// solve, and that fixes the dense LU's pivoting and the solution's bits.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LineNetwork {
    rows: usize,
    cols: usize,
    /// The sources, driver resistors and segments, stamped once and shared
    /// by every clone (a forked engine copies no line matrix).
    lines: Arc<DenseMatrix>,
    /// The right-hand side before the crosspoints: zero node rows, then
    /// the source levels, V.
    levels: Vec<f64>,
    /// The node voltages, then the source currents, of the last solve.
    solution: Vec<f64>,
}

impl LineNetwork {
    /// Stamps the lines of a `rows × cols` crossbar, every source at 0 V.
    ///
    /// # Panics
    ///
    /// Panics if a resistance it stamps is not positive and finite.
    pub(crate) fn new(rows: usize, cols: usize, parasitics: WiringParasitics) -> Self {
        let nodes = 2 * rows * cols + rows + cols;
        let dim = nodes + rows + cols;
        let mut lines = DenseMatrix::zeros(dim, dim);
        let word = (0..rows).map(|r| (r * (cols + 1), cols));
        let bit = (0..cols).map(|c| (rows * (cols + 1) + c * (rows + 1), rows));
        for (source, (driver, len)) in word.chain(bit).enumerate() {
            let branch = nodes + source;
            lines[(driver, branch)] += 1.0;
            lines[(branch, driver)] += 1.0;
            let g = conductance(parasitics.driver_resistance.0);
            stamp(&mut lines, driver, driver + 1, g);
            for node in driver + 1..driver + len {
                let g = conductance(parasitics.segment_resistance.0);
                stamp(&mut lines, node, node + 1, g);
            }
        }
        LineNetwork {
            rows,
            cols,
            lines: Arc::new(lines),
            levels: vec![0.0; dim],
            solution: vec![0.0; dim],
        }
    }

    /// Sets the source levels of the word and bit lines, V.
    ///
    /// # Panics
    ///
    /// Panics if the line counts do not match the network.
    pub(crate) fn drive(&mut self, word_lines: &[f64], bit_lines: &[f64]) {
        let nodes = self.nodes();
        let (word, bit) = self.levels[nodes..].split_at_mut(self.rows);
        word.copy_from_slice(word_lines);
        bit.copy_from_slice(bit_lines);
    }

    /// Returns the network to how it was built: every source level and
    /// every node voltage, where the next solve starts, at 0 V.
    pub(crate) fn clear(&mut self) {
        self.levels.fill(0.0);
        self.solution.fill(0.0);
    }

    /// Runs the damped Newton DC solve from the present node voltages.
    /// `crosspoint(lane, v)` linearises row-major crosspoint `lane` at the
    /// voltage `v` across it (word line minus bit line): it returns the
    /// conductance `g` and the current `g·v − I(v)` of the companion source
    /// that drives from the bit line into the word line.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] if a linear solve fails or the iteration
    /// does not converge.
    pub(crate) fn solve(
        &mut self,
        mut crosspoint: impl FnMut(usize, f64) -> (f64, f64),
    ) -> Result<(), CircuitError> {
        let nodes = self.nodes();
        let mut last_update = f64::INFINITY;
        for _ in 0..MAX_ITERATIONS {
            let mut matrix = DenseMatrix::clone(&self.lines);
            let mut rhs = self.levels.clone();
            for lane in 0..self.rows * self.cols {
                let (word, bit) = self.crosspoint(lane);
                let (g, amps) = crosspoint(lane, self.solution[word] - self.solution[bit]);
                stamp(&mut matrix, word, bit, g);
                rhs[word] += amps;
                rhs[bit] -= amps;
            }
            let x = matrix.solve(&rhs)?;
            last_update = 0.0;
            for (voltage, new) in self.solution[..nodes].iter_mut().zip(&x) {
                let delta = (new - *voltage).clamp(-MAX_STEP, MAX_STEP);
                last_update = last_update.max(delta.abs());
                *voltage += delta;
            }
            self.solution[nodes..].copy_from_slice(&x[nodes..]);
            if last_update < TOLERANCE {
                return Ok(());
            }
        }
        Err(CircuitError::NewtonDiverged {
            iterations: MAX_ITERATIONS,
            last_update,
        })
    }

    /// Solves the network from its present node voltages with the cells of
    /// `array` at its crosspoints, each linearised around its parameters
    /// and disc concentration as they stand, and writes every cell's
    /// voltage into `voltages` (row-major).
    ///
    /// # Panics
    ///
    /// Panics if the array does not match the network or the solve does
    /// not converge.
    pub(crate) fn solve_cells(&mut self, array: &CrossbarArray, voltages: &mut [f64]) {
        let (columns, bank) = (array.param_columns(), array.bank());
        self.solve(|lane, v| {
            let params = columns.lane(lane);
            let n = bank.concentrations()[lane];
            let current = solve_operating_point(&params, v, n).current;
            let g = differential_conductance(&params, n, current);
            (g, g * v - current)
        })
        .expect("crossbar line network must converge");
        for (lane, v) in voltages.iter_mut().enumerate() {
            *v = self.cell_voltage(lane);
        }
    }

    /// The voltage across crosspoint `lane` (word line minus bit line) in
    /// the last solve.
    pub(crate) fn cell_voltage(&self, lane: usize) -> f64 {
        let (word, bit) = self.crosspoint(lane);
        self.solution[word] - self.solution[bit]
    }

    /// The branch current of source `source` in the last solve: positive
    /// when it flows from the line into the source, that is, when the line
    /// collects current from the array.
    pub(crate) fn source_current(&self, source: usize) -> f64 {
        self.solution[self.nodes() + source]
    }

    /// Number of node unknowns.
    fn nodes(&self) -> usize {
        2 * self.rows * self.cols + self.rows + self.cols
    }

    /// The word- and bit-line unknowns of row-major crosspoint `lane`.
    fn crosspoint(&self, lane: usize) -> (usize, usize) {
        let (r, c) = (lane / self.cols, lane % self.cols);
        let bit_lines = self.rows * (self.cols + 1);
        (
            r * (self.cols + 1) + 1 + c,
            bit_lines + c * (self.rows + 1) + 1 + r,
        )
    }
}

/// The conductance of `ohms`, S.
///
/// # Panics
///
/// Panics if `ohms` is not positive and finite.
pub(crate) fn conductance(ohms: f64) -> f64 {
    assert!(
        ohms > 0.0 && ohms.is_finite(),
        "resistance must be positive"
    );
    1.0 / ohms
}

/// Stamps the conductance `g` between unknowns `a` and `b`.
fn stamp(matrix: &mut DenseMatrix, a: usize, b: usize, g: f64) {
    matrix[(a, a)] += g;
    matrix[(b, b)] += g;
    matrix[(a, b)] -= g;
    matrix[(b, a)] -= g;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::HammerBackend;
    use crate::crosstalk::CrosstalkHub;
    use crate::engine::{EngineConfig, PulseEngine};
    use crate::scheme::CellAddress;
    use rram_jart::{DeviceParams, DigitalState};
    use rram_units::{Seconds, SiExt, Volts};

    /// A pulse engine with wired lines on a fresh HRS array.
    fn detailed_with(
        rows: usize,
        cols: usize,
        parasitics: WiringParasitics,
        hub: CrosstalkHub,
    ) -> PulseEngine {
        PulseEngine::wired(
            CrossbarArray::new(rows, cols, DeviceParams::default()),
            hub,
            EngineConfig::default(),
            parasitics,
        )
    }

    fn detailed(rows: usize, cols: usize) -> PulseEngine {
        let hub = CrosstalkHub::uniform(rows, cols, 0.12, 0.06, 0.03, Seconds(30e-9));
        detailed_with(rows, cols, WiringParasitics::default(), hub)
    }

    #[test]
    fn set_pulse_switches_the_selected_cell_only() {
        let mut xbar = detailed(3, 3);
        let target = CellAddress::new(1, 1);
        xbar.apply_pulse(target, Volts(1.05), 2.0.us());
        assert_eq!(xbar.read(target), DigitalState::Lrs);
        for r in 0..3 {
            for c in 0..3 {
                if (r, c) != (1, 1) {
                    assert_eq!(
                        xbar.read(CellAddress::new(r, c)),
                        DigitalState::Hrs,
                        "cell ({r},{c}) was disturbed"
                    );
                }
            }
        }
    }

    #[test]
    fn hammering_an_lrs_cell_heats_its_neighbours() {
        let mut xbar = detailed(3, 3);
        let aggressor = CellAddress::new(1, 1);
        xbar.force_state(aggressor, DigitalState::Lrs);
        for _ in 0..5 {
            xbar.apply_pulse(aggressor, Volts(1.05), 50.0.ns());
        }
        assert!(xbar.hub().delta(1, 0).0 > 10.0);
    }

    #[test]
    fn half_selected_cells_make_more_progress_than_unselected() {
        let mut xbar = detailed(3, 3);
        let aggressor = CellAddress::new(1, 1);
        xbar.force_state(aggressor, DigitalState::Lrs);
        for _ in 0..10 {
            xbar.apply_pulse(aggressor, Volts(1.05), 100.0.ns());
        }
        let half_selected = xbar.normalized_state(CellAddress::new(1, 0));
        let unselected = xbar.normalized_state(CellAddress::new(0, 0));
        assert!(
            half_selected > unselected,
            "half-selected {half_selected} vs unselected {unselected}"
        );
    }

    #[test]
    fn line_resistance_reduces_delivered_voltage() {
        // With large segment resistance the far cell of a long word line
        // switches more slowly than with negligible parasitics.
        let hub = || CrosstalkHub::two_ring(1, 4, 0.0, Seconds(0.0));
        let mut ideal = detailed_with(
            1,
            4,
            WiringParasitics {
                segment_resistance: Ohms(0.1),
                driver_resistance: Ohms(1.0),
            },
            hub(),
        );
        let mut resistive = detailed_with(
            1,
            4,
            WiringParasitics {
                segment_resistance: Ohms(500.0),
                driver_resistance: Ohms(500.0),
            },
            hub(),
        );
        let far = CellAddress::new(0, 3);
        // Make every cell on the word line LRS so sneak currents load the line.
        for c in 0..3 {
            ideal.force_state(CellAddress::new(0, c), DigitalState::Lrs);
            resistive.force_state(CellAddress::new(0, c), DigitalState::Lrs);
        }
        ideal.apply_pulse(far, Volts(1.05), 300.0.ns());
        resistive.apply_pulse(far, Volts(1.05), 300.0.ns());
        assert!(
            ideal.normalized_state(far) >= resistive.normalized_state(far),
            "ideal {} vs resistive {}",
            ideal.normalized_state(far),
            resistive.normalized_state(far)
        );
    }

    /// A 1 kΩ resistor at every crosspoint.
    fn resistive(_: usize, _: f64) -> (f64, f64) {
        (conductance(1e3), 0.0)
    }

    #[test]
    fn the_line_network_keeps_its_node_and_source_order() {
        // Word line r's driver and crosspoints come first, then bit line
        // c's, then the sources; bit line c's source is number rows + c.
        let mut network = LineNetwork::new(2, 3, WiringParasitics::default());
        assert_eq!(network.crosspoint(0), (1, 9));
        assert_eq!(network.crosspoint(5), (7, 16));
        network.drive(&[1.0, 0.5], &[0.0, 0.1, 0.2]);
        network.solve(resistive).unwrap();
        // Unknown 11 is bit line 1's driver.
        assert!((network.solution[11] - 0.1).abs() < 1e-12);
        for c in 0..3 {
            // Every bit line sits below both word lines and collects
            // current: what leaves its first crosspoint through the driver
            // resistor flows on into the source.
            let driver = 8 + 3 * c;
            let collected = (network.solution[driver + 1] - network.solution[driver]) / 50.0;
            let sensed = network.source_current(2 + c);
            assert!(sensed > 0.0, "bit line {c}: {sensed}");
            assert!((sensed - collected).abs() < 1e-12, "bit line {c}");
        }
        assert!(network.source_current(0) < 0.0 && network.source_current(1) < 0.0);
    }

    #[test]
    fn a_resistive_network_solves_to_the_hand_computed_answer() {
        // 1 V behind 40 Ω feeds two 560 Ω cells 300 Ω apart, each into a
        // grounded bit line behind 40 Ω: 600 Ω ∥ 900 Ω = 360 Ω, so the
        // source carries 2.5 mA and the word line starts at 0.9 V; 1.5 mA
        // and 1 mA flow through the cells.
        let mut network = LineNetwork::new(
            1,
            2,
            WiringParasitics {
                segment_resistance: Ohms(300.0),
                driver_resistance: Ohms(40.0),
            },
        );
        network.drive(&[1.0], &[0.0, 0.0]);
        network.solve(|_, _| (conductance(560.0), 0.0)).unwrap();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(network.cell_voltage(0), 0.84));
        assert!(close(network.cell_voltage(1), 0.56));
        assert!(close(network.source_current(0), -2.5e-3));
        assert!(close(network.source_current(1), 1.5e-3));
        assert!(close(network.source_current(2), 1e-3));
    }

    #[test]
    fn a_solve_from_its_own_solution_stays_there() {
        let mut array = CrossbarArray::new(3, 3, DeviceParams::default());
        array
            .cell_mut(CellAddress::new(1, 1))
            .force_state(DigitalState::Lrs);
        let mut network = LineNetwork::new(3, 3, WiringParasitics::default());
        network.drive(&[0.525, 1.05, 0.525], &[0.525, 0.0, 0.525]);
        let mut voltages = vec![0.0; 9];
        network.solve_cells(&array, &mut voltages);
        let solution = network.solution.clone();
        network.solve_cells(&array, &mut voltages);
        for (again, first) in network.solution.iter().zip(&solution) {
            assert!((again - first).abs() < 1e-9, "{again} vs {first}");
        }
        assert!(voltages[4] > 0.9 && voltages[4] < 1.05, "{}", voltages[4]);
    }

    #[test]
    fn a_cloned_network_shares_its_stamped_lines() {
        let mut network = LineNetwork::new(3, 3, WiringParasitics::default());
        network.drive(&[0.525, 1.05, 0.525], &[0.525, 0.0, 0.525]);
        network.solve(resistive).unwrap();
        let mut fork = network.clone();
        assert!(Arc::ptr_eq(&fork.lines, &network.lines));
        // The fork's solves leave the shared matrix as it was stamped.
        fork.drive(&[1.05, 0.525, 0.525], &[0.0, 0.525, 0.525]);
        fork.solve(resistive).unwrap();
        assert_eq!(
            fork.lines,
            LineNetwork::new(3, 3, WiringParasitics::default()).lines
        );
        assert!(fork != network);
    }

    #[test]
    #[should_panic(expected = "resistance must be positive")]
    fn a_zero_segment_resistance_panics() {
        let parasitics = WiringParasitics {
            segment_resistance: Ohms(0.0),
            ..WiringParasitics::default()
        };
        LineNetwork::new(2, 2, parasitics);
    }

    #[test]
    #[should_panic(expected = "resistance must be positive")]
    fn a_non_finite_driver_resistance_panics() {
        let hub = CrosstalkHub::uniform(2, 2, 0.12, 0.06, 0.03, Seconds(30e-9));
        let parasitics = WiringParasitics {
            driver_resistance: Ohms(f64::INFINITY),
            ..WiringParasitics::default()
        };
        detailed_with(2, 2, parasitics, hub);
    }
}
