//! The detailed crossbar engine: the pulse engine's cells and hub, with the
//! cell voltages solved from the resistive line network.
//!
//! The ideal-driver [`crate::engine::PulseEngine`] takes every cell voltage
//! straight from the write scheme's line levels. This engine models the
//! word and bit lines with explicit driver output resistances and segment
//! resistances between adjacent cells, and solves that network with the
//! nonlinear cells in it by a damped Newton DC solve. It is the reference
//! the pulse engine is validated against, and its line network is what the
//! [`crate::sneak`]-path analysis solves too. It is orders of magnitude
//! slower than the pulse engine, so hammer campaigns do not use it.
//!
//! Both engines hold their cells in a [`CrossbarArray`] and couple them
//! through a [`CrosstalkHub`]. This engine stamps its line network once,
//! when it is built, and cuts a pulse into hub slices; each slice
//!
//! 1. imports the hub's ΔT into the array;
//! 2. solves the line network from 0 V, each crosspoint linearised around
//!    its cell's parameters and disc concentration as they stand;
//! 3. takes backward-Euler time steps: each solves the network again,
//!    starting from the previous solution, and steps the whole array with
//!    [`CrossbarArray::step_lanes`] under the solved cell voltages, so the
//!    next step's solve sees the stepped cells;
//! 4. updates the hub with [`CrosstalkHub::update_batched`].
//!
//! The network has no capacitors and only DC sources, so each time step's
//! solve is the DC solve of the network as its cells stand.

use crate::array::CrossbarArray;
use crate::backend::{HammerBackend, ThermalReadout};
use crate::crosstalk::CrosstalkHub;
use crate::scheme::{CellAddress, WriteScheme};
use rram_circuit::{CircuitError, DenseMatrix};
use rram_jart::current::solve_operating_point;
use rram_jart::DigitalState;
use rram_units::{Kelvin, Ohms, Seconds, Volts};

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
#[derive(Debug)]
pub(crate) struct LineNetwork {
    rows: usize,
    cols: usize,
    /// The sources, driver resistors and segments.
    lines: DenseMatrix,
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
            lines,
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

    /// Sets every node voltage back to 0 V, where the next solve starts.
    pub(crate) fn clear(&mut self) {
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
            let mut matrix = self.lines.clone();
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

/// The detailed crossbar engine (see the module docs).
#[derive(Debug)]
pub struct DetailedCrossbar {
    array: CrossbarArray,
    network: LineNetwork,
    hub: CrosstalkHub,
    scheme: WriteScheme,
    /// Time step of the pulses applied through the [`HammerBackend`]
    /// interface, which carries no per-call step.
    time_step: Seconds,
    /// Simulated time elapsed, s.
    elapsed: f64,
    /// Reused per-cell voltage buffer (row-major).
    voltages: Vec<f64>,
}

impl DetailedCrossbar {
    /// Creates an engine around an existing array and hub. Pulses applied
    /// through the [`HammerBackend`] interface take time steps of
    /// `time_step`, and idles five times that.
    ///
    /// # Panics
    ///
    /// Panics if the hub dimensions do not match the array, `time_step` is
    /// not positive, or a wiring resistance the network stamps is not
    /// positive and finite.
    pub fn new(
        array: CrossbarArray,
        parasitics: WiringParasitics,
        hub: CrosstalkHub,
        scheme: WriteScheme,
        time_step: Seconds,
    ) -> Self {
        assert_eq!(hub.rows(), array.rows(), "hub row mismatch");
        assert_eq!(hub.cols(), array.cols(), "hub column mismatch");
        assert!(time_step.0 > 0.0, "time step must be positive");
        let network = LineNetwork::new(array.rows(), array.cols(), parasitics);
        let voltages = vec![0.0; array.len()];
        DetailedCrossbar {
            array,
            network,
            hub,
            scheme,
            time_step,
            elapsed: 0.0,
            voltages,
        }
    }

    /// Solves the line network from its present node voltages, each
    /// crosspoint linearised around its cell as it stands. Panics if the
    /// solve does not converge.
    fn solve(&mut self) {
        let (columns, bank) = (self.array.param_columns(), self.array.bank());
        self.network
            .solve(|lane, v| {
                let params = columns.lane(lane);
                let n = bank.concentrations()[lane];
                let current = |v: f64| solve_operating_point(&params, v, n).current;
                let dv = 1e-6;
                let g = ((current(v + dv) - current(v - dv)) / (2.0 * dv)).max(1e-15);
                (g, g * v - current(v))
            })
            .expect("crossbar line network must converge");
    }

    /// Applies one write pulse to `selected` with the configured scheme,
    /// solving the line network at every backward-Euler step of `dt` (the
    /// [`HammerBackend`] interface uses the configured step instead). A
    /// zero length does nothing.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive for a positive length, or if the
    /// network solve fails to converge (which indicates a malformed network
    /// rather than a recoverable condition).
    pub fn apply_pulse_with_dt(
        &mut self,
        selected: CellAddress,
        amplitude: Volts,
        length: Seconds,
        dt: Seconds,
    ) {
        let (rows, cols) = (self.array.rows(), self.array.cols());
        let bias = self.scheme.line_bias(rows, cols, selected, amplitude);
        let wl: Vec<f64> = bias.word_lines.iter().map(|v| v.0).collect();
        let bl: Vec<f64> = bias.bit_lines.iter().map(|v| v.0).collect();

        // The crosstalk state evolves on the hub's time constant, so the
        // pulse is cut into slices: import → network steps → hub update →
        // next slice, mirroring the pulse engine's sub-stepping.
        let hub_slice = 10e-9_f64.max(dt.0);
        let slices = (length.0 / hub_slice).ceil() as usize;
        if slices == 0 {
            return;
        }
        assert!(dt.0 > 0.0, "time step must be positive");
        let slice_len = length.0 / slices as f64;
        let step = dt.0.min(slice_len);
        let steps = (slice_len / step).ceil() as usize;
        let ambient = Kelvin(self.array.params().ambient_temperature);
        self.network.drive(&wl, &bl);

        for _ in 0..slices {
            self.array.import_crosstalk(self.hub.deltas());
            self.network.clear();
            self.solve();
            let mut time = 0.0;
            for _ in 0..steps {
                let h = step.min(slice_len - time);
                if h <= 0.0 {
                    break;
                }
                time += h;
                self.solve();
                for (lane, v) in self.voltages.iter_mut().enumerate() {
                    *v = self.network.cell_voltage(lane);
                }
                self.array.step_lanes(&self.voltages, Seconds(h));
            }
            self.hub
                .update_batched(self.array.temperatures(), ambient, Seconds(slice_len));
            self.elapsed += slice_len;
        }
    }
}

impl HammerBackend for DetailedCrossbar {
    fn label(&self) -> &'static str {
        "detailed"
    }

    fn rows(&self) -> usize {
        self.array.rows()
    }

    fn cols(&self) -> usize {
        self.array.cols()
    }

    fn apply_pulse(&mut self, selected: CellAddress, amplitude: Volts, length: Seconds) {
        let dt = Seconds(self.time_step.0.min(length.0));
        self.apply_pulse_with_dt(selected, amplitude, length, dt);
    }

    fn idle(&mut self, duration: Seconds) {
        // All schemes produce an all-grounded bias at zero amplitude, and the
        // dynamics reduce to thermal decay, which tolerates a coarser step.
        let dt = Seconds((self.time_step.0 * 5.0).min(duration.0));
        self.apply_pulse_with_dt(CellAddress::new(0, 0), Volts(0.0), duration, dt);
    }

    fn read(&self, address: CellAddress) -> DigitalState {
        self.array.read(address)
    }

    fn normalized_state(&self, address: CellAddress) -> f64 {
        self.array.cell(address).normalized_state()
    }

    fn force_state(&mut self, address: CellAddress, state: DigitalState) {
        self.array.cell_mut(address).force_state(state);
    }

    fn force_normalized_state(&mut self, address: CellAddress, normalized: f64) {
        self.array
            .cell_mut(address)
            .force_normalized_state(normalized);
    }

    fn thermal_readout(&self, address: CellAddress) -> ThermalReadout {
        self.array.thermal_readout(address)
    }

    fn hub(&self) -> &CrosstalkHub {
        &self.hub
    }

    fn hub_mut(&mut self) -> &mut CrosstalkHub {
        &mut self.hub
    }

    fn elapsed(&self) -> Seconds {
        Seconds(self.elapsed)
    }

    fn reset(&mut self) {
        self.array.reset_cells();
        self.hub.reset();
        self.elapsed = 0.0;
    }

    fn read_all(&self) -> Vec<DigitalState> {
        self.array.read_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rram_jart::DeviceParams;
    use rram_units::SiExt;

    fn detailed_with(
        rows: usize,
        cols: usize,
        parasitics: WiringParasitics,
        hub: CrosstalkHub,
    ) -> DetailedCrossbar {
        DetailedCrossbar::new(
            CrossbarArray::new(rows, cols, DeviceParams::default()),
            parasitics,
            hub,
            WriteScheme::HalfVoltage,
            10.0.ns(),
        )
    }

    fn detailed(rows: usize, cols: usize) -> DetailedCrossbar {
        let hub = CrosstalkHub::uniform(rows, cols, 0.12, 0.06, 0.03, Seconds(30e-9));
        detailed_with(rows, cols, WiringParasitics::default(), hub)
    }

    #[test]
    fn set_pulse_switches_the_selected_cell_only() {
        let mut xbar = detailed(3, 3);
        let target = CellAddress::new(1, 1);
        xbar.apply_pulse_with_dt(target, Volts(1.05), 2.0.us(), 20.0.ns());
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
            xbar.apply_pulse_with_dt(aggressor, Volts(1.05), 50.0.ns(), 10.0.ns());
        }
        assert!(xbar.hub().delta(1, 0).0 > 10.0);
    }

    #[test]
    fn half_selected_cells_make_more_progress_than_unselected() {
        let mut xbar = detailed(3, 3);
        let aggressor = CellAddress::new(1, 1);
        xbar.force_state(aggressor, DigitalState::Lrs);
        for _ in 0..10 {
            xbar.apply_pulse_with_dt(aggressor, Volts(1.05), 100.0.ns(), 20.0.ns());
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
        ideal.apply_pulse_with_dt(far, Volts(1.05), 300.0.ns(), 20.0.ns());
        resistive.apply_pulse_with_dt(far, Volts(1.05), 300.0.ns(), 20.0.ns());
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
        let mut xbar = detailed(3, 3);
        xbar.force_state(CellAddress::new(1, 1), DigitalState::Lrs);
        xbar.network
            .drive(&[0.525, 1.05, 0.525], &[0.525, 0.0, 0.525]);
        xbar.solve();
        let solution = xbar.network.solution.clone();
        xbar.solve();
        for (again, first) in xbar.network.solution.iter().zip(&solution) {
            assert!((again - first).abs() < 1e-9, "{again} vs {first}");
        }
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

    #[test]
    #[should_panic(expected = "time step must be positive")]
    fn a_zero_time_step_panics() {
        let mut xbar = detailed(2, 2);
        xbar.apply_pulse_with_dt(CellAddress::new(0, 0), Volts(1.0), 10.0.ns(), Seconds(0.0));
    }
}
