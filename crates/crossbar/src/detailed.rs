//! The detailed crossbar engine: the pulse engine's cells and hub, with the
//! cell voltages solved from the resistive line network.
//!
//! The ideal-driver [`crate::engine::PulseEngine`] takes every cell voltage
//! straight from the write scheme's line levels. This engine models the
//! word and bit lines with explicit driver output resistances and segment
//! resistances between adjacent cells, and solves that network with the
//! nonlinear cells in it (`rram-circuit`'s Newton DC solve). It is the
//! reference the pulse engine is validated against, and its
//! line network is what the [`crate::sneak`]-path analysis solves too.
//! It is orders of magnitude slower than the pulse engine, so hammer
//! campaigns do not use it.
//!
//! Both engines hold their cells in a [`CrossbarArray`] and couple them
//! through a [`CrosstalkHub`]. This engine cuts a pulse into hub slices,
//! and each slice
//!
//! 1. imports the hub's ΔT into the array;
//! 2. solves the line network from 0 V, with each crosspoint holding a
//!    snapshot of its cell's parameters and disc concentration;
//! 3. takes backward-Euler time steps: each solves the network again,
//!    starting from the previous solution, and steps the whole array with
//!    [`CrossbarArray::step_lanes`] under the solved cell voltages; the next
//!    step's network holds the new snapshot;
//! 4. updates the hub with [`CrosstalkHub::update_batched`].
//!
//! The network has no capacitors and only DC sources, so each time step's
//! solve is the DC solve of the network as its cells stand.

use crate::array::CrossbarArray;
use crate::backend::{HammerBackend, ThermalReadout};
use crate::crosstalk::CrosstalkHub;
use crate::scheme::{CellAddress, WriteScheme};
use rram_circuit::{solve_dc, solve_dc_from, Netlist, NodeId, NonlinearTwoTerminal, Solution};
use rram_jart::current::solve_operating_point;
use rram_jart::{DeviceParams, DigitalState};
use rram_units::{Kelvin, Ohms, Seconds, Volts};

/// Electrical parasitics of the crossbar wiring.
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

/// The resistive line network of a crossbar, with one element per
/// crosspoint.
///
/// Word line `r` is driven at its column-0 end and bit line `c` at its
/// row-0 end, each by an ideal source behind the driver resistance;
/// consecutive crosspoints on a line are joined by the segment resistance.
/// The netlist holds the word lines, then the bit lines, then the
/// crosspoints in row-major order. That order fixes the pivoting of the
/// dense LU, so every caller builds the same network the same way, and the
/// source of bit line `c` is source number `rows + c`.
pub(crate) struct LineNetwork {
    /// The network, ready to solve.
    pub(crate) netlist: Netlist,
    /// Word- and bit-line node of each crosspoint, row-major.
    crosspoints: Vec<(NodeId, NodeId)>,
}

impl LineNetwork {
    /// Builds the network of a `word_lines.len() × bit_lines.len()` array
    /// whose lines are driven at the given levels, V. `crosspoint(netlist,
    /// word, bit, lane)` adds the element between the word- and bit-line
    /// node of row-major cell `lane`.
    pub(crate) fn new(
        parasitics: WiringParasitics,
        word_lines: &[f64],
        bit_lines: &[f64],
        mut crosspoint: impl FnMut(&mut Netlist, NodeId, NodeId, usize),
    ) -> Self {
        let (rows, cols) = (word_lines.len(), bit_lines.len());
        let mut netlist = Netlist::new();
        let mut line = |volts: f64, len: usize| {
            let driver = netlist.add_node();
            netlist.add_voltage_source(driver, NodeId::GROUND, volts);
            let nodes: Vec<NodeId> = (0..len).map(|_| netlist.add_node()).collect();
            netlist.add_resistor(driver, nodes[0], parasitics.driver_resistance.0);
            for pair in nodes.windows(2) {
                netlist.add_resistor(pair[0], pair[1], parasitics.segment_resistance.0);
            }
            nodes
        };
        let word: Vec<Vec<NodeId>> = word_lines.iter().map(|&v| line(v, cols)).collect();
        let bit: Vec<Vec<NodeId>> = bit_lines.iter().map(|&v| line(v, rows)).collect();
        let mut crosspoints = Vec::with_capacity(rows * cols);
        for (r, word) in word.iter().enumerate() {
            for (c, bit) in bit.iter().enumerate() {
                crosspoint(&mut netlist, word[c], bit[r], r * cols + c);
                crosspoints.push((word[c], bit[r]));
            }
        }
        LineNetwork {
            netlist,
            crosspoints,
        }
    }

    /// The voltage across crosspoint `lane` (word line minus bit line) in
    /// `solution`.
    pub(crate) fn cell_voltage(&self, solution: &Solution, lane: usize) -> f64 {
        let (word, bit) = self.crosspoints[lane];
        solution.voltage(word) - solution.voltage(bit)
    }
}

/// A cell as the line network sees it during one time step: its parameters
/// and its disc concentration at the start of the step. Its current is a
/// pure function of these and the cell voltage.
#[derive(Debug)]
struct FrozenCell {
    params: DeviceParams,
    n: f64,
}

impl NonlinearTwoTerminal for FrozenCell {
    fn current(&self, voltage: f64) -> f64 {
        solve_operating_point(&self.params, voltage, self.n).current
    }
}

/// The detailed crossbar engine (see the module docs).
#[derive(Debug)]
pub struct DetailedCrossbar {
    array: CrossbarArray,
    parasitics: WiringParasitics,
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
    /// Panics if the hub dimensions do not match the array, or `time_step`
    /// is not positive.
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
        let voltages = vec![0.0; array.len()];
        DetailedCrossbar {
            array,
            parasitics,
            hub,
            scheme,
            time_step,
            elapsed: 0.0,
            voltages,
        }
    }

    /// The line network at the given line levels, each crosspoint holding a
    /// snapshot of its cell.
    fn network(&self, word_lines: &[f64], bit_lines: &[f64]) -> LineNetwork {
        let (columns, bank) = (self.array.param_columns(), self.array.bank());
        LineNetwork::new(
            self.parasitics,
            word_lines,
            bit_lines,
            |netlist, word, bit, lane| {
                let cell = FrozenCell {
                    params: columns.lane(lane).into_owned(),
                    n: bank.concentrations()[lane],
                };
                netlist.add_nonlinear(word, bit, Box::new(cell));
            },
        )
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
        let converged = "crossbar line network must converge";

        for _ in 0..slices {
            self.array.import_crosstalk(self.hub.deltas());
            let mut network = self.network(&wl, &bl);
            let mut solution = solve_dc(&network.netlist).expect(converged);
            let mut time = 0.0;
            for k in 0..steps {
                let h = step.min(slice_len - time);
                if h <= 0.0 {
                    break;
                }
                time += h;
                if k > 0 {
                    network = self.network(&wl, &bl);
                }
                solution = solve_dc_from(&network.netlist, &solution).expect(converged);
                for (lane, v) in self.voltages.iter_mut().enumerate() {
                    *v = network.cell_voltage(&solution, lane);
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

    #[test]
    fn the_line_network_keeps_its_node_and_source_order() {
        // Word line r's driver and crosspoints come first, then bit line
        // c's; bit line c's source is number rows + c.
        let network = LineNetwork::new(
            WiringParasitics::default(),
            &[1.0, 0.5],
            &[0.0, 0.25, 0.5],
            |netlist, word, bit, _| netlist.add_resistor(word, bit, 1e3),
        );
        assert_eq!(network.netlist.node_count(), 1 + 2 * 4 + 3 * 3);
        assert_eq!(network.crosspoints[0], (NodeId(2), NodeId(10)));
        assert_eq!(network.crosspoints[5], (NodeId(8), NodeId(17)));
        let solution = solve_dc(&network.netlist).unwrap();
        // Node 12 is bit line 1's driver.
        assert!((solution.voltage(NodeId(12)) - 0.25).abs() < 1e-12);
        assert!(solution.source_current(2 + 1) != 0.0);
    }

    #[test]
    #[should_panic(expected = "time step must be positive")]
    fn a_zero_time_step_panics() {
        let mut xbar = detailed(2, 2);
        xbar.apply_pulse_with_dt(CellAddress::new(0, 0), Volts(1.0), 10.0.ns(), Seconds(0.0));
    }
}
