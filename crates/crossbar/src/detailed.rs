//! The detailed, MNA-backed crossbar engine.
//!
//! This engine models the crossbar as an electrical network with explicit
//! word/bit-line segment resistances and driver output resistances, and
//! solves every pulse with the `rram-circuit` transient simulator. It is the
//! reference the ideal-driver [`crate::engine::PulseEngine`] is validated
//! against, and it is what the sneak-path analysis builds on. Its cells
//! couple through the crosstalk hub's dense gather,
//! [`crate::CrosstalkHub::update`]. It is orders of magnitude slower than the
//! pulse engine, so hammer campaigns do not use it.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use crate::backend::{HammerBackend, ThermalReadout};
use crate::crosstalk::CrosstalkHub;
use crate::scheme::{CellAddress, WriteScheme};
use rram_circuit::{
    run_transient, Netlist, NewtonOptions, NodeId, NonlinearTwoTerminal, TransientOptions, Waveform,
};
use rram_jart::{DeviceParams, DigitalState, JartDevice};
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

/// Adapter exposing a shared [`JartDevice`] to the circuit simulator.
pub struct SharedCell {
    device: Rc<RefCell<JartDevice>>,
}

impl fmt::Debug for SharedCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let device = self.device.borrow();
        write!(
            f,
            "SharedCell(n = {:.3}, T = {:.1} K)",
            device.concentration(),
            device.temperature().0
        )
    }
}

impl NonlinearTwoTerminal for SharedCell {
    fn current(&self, voltage: f64) -> f64 {
        let device = self.device.borrow();
        rram_jart::current::solve_operating_point(device.params(), voltage, device.concentration())
            .current
    }

    fn commit(&mut self, voltage: f64, dt: f64) {
        self.device.borrow_mut().step(Volts(voltage), Seconds(dt));
    }
}

/// The detailed crossbar engine.
pub struct DetailedCrossbar {
    rows: usize,
    cols: usize,
    devices: Vec<Rc<RefCell<JartDevice>>>,
    parasitics: WiringParasitics,
    hub: CrosstalkHub,
    scheme: WriteScheme,
    ambient: Kelvin,
    /// Transient time step used when pulses are applied through the
    /// [`HammerBackend`] interface (which carries no per-call `dt`).
    dt: Seconds,
    /// Simulated time elapsed, s.
    elapsed: f64,
}

impl fmt::Debug for DetailedCrossbar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DetailedCrossbar({}x{}, scheme = {:?})",
            self.rows, self.cols, self.scheme
        )
    }
}

impl DetailedCrossbar {
    /// Creates a detailed crossbar with every cell in HRS.
    ///
    /// # Panics
    ///
    /// Panics if the hub dimensions do not match `rows`/`cols`.
    pub fn new(
        rows: usize,
        cols: usize,
        params: DeviceParams,
        parasitics: WiringParasitics,
        hub: CrosstalkHub,
        scheme: WriteScheme,
    ) -> Self {
        assert_eq!(hub.rows(), rows, "hub row mismatch");
        assert_eq!(hub.cols(), cols, "hub column mismatch");
        let ambient = Kelvin(params.ambient_temperature);
        let devices = (0..rows * cols)
            .map(|_| Rc::new(RefCell::new(JartDevice::new(params.clone()))))
            .collect();
        DetailedCrossbar {
            rows,
            cols,
            devices,
            parasitics,
            hub,
            scheme,
            ambient,
            dt: Seconds(10e-9),
            elapsed: 0.0,
        }
    }

    /// Sets the transient time step used by pulses applied through the
    /// [`HammerBackend`] interface (default 10 ns).
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive.
    pub fn with_time_step(mut self, dt: Seconds) -> Self {
        assert!(dt.0 > 0.0, "time step must be positive");
        self.dt = dt;
        self
    }

    /// Installs a per-cell parameter table (row-major): every device is
    /// recreated in the HRS at ambient under its table entry — the detailed
    /// engine's side of the Monte Carlo variability support, matching
    /// [`crate::CrossbarArray::set_params_table`].
    ///
    /// # Panics
    ///
    /// Panics if the table length does not match the cell count.
    pub fn set_params_table(&mut self, table: &[DeviceParams]) {
        assert_eq!(
            table.len(),
            self.rows * self.cols,
            "params table length mismatch"
        );
        for (device, params) in self.devices.iter().zip(table) {
            *device.borrow_mut() = JartDevice::new(params.clone());
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    fn device(&self, address: CellAddress) -> &Rc<RefCell<JartDevice>> {
        assert!(
            address.row < self.rows && address.col < self.cols,
            "cell out of range"
        );
        &self.devices[address.row * self.cols + address.col]
    }

    /// Forces the digital state of one cell.
    pub fn force_state(&mut self, address: CellAddress, state: DigitalState) {
        self.device(address).borrow_mut().force_state(state);
    }

    /// Digital read-out of one cell.
    pub fn read(&self, address: CellAddress) -> DigitalState {
        self.device(address).borrow().digital_state()
    }

    /// Normalised internal state of one cell.
    pub fn normalized_state(&self, address: CellAddress) -> f64 {
        self.device(address).borrow().normalized_state()
    }

    /// The crosstalk hub.
    pub fn hub(&self) -> &CrosstalkHub {
        &self.hub
    }

    /// Builds the MNA netlist of the array for the given line voltages.
    ///
    /// Word line `r` is driven at its column-0 end, bit line `c` at its
    /// row-0 end, each through the driver resistance; consecutive crosspoints
    /// on a line are connected by the segment resistance.
    fn build_netlist(&self, word_line_v: &[f64], bit_line_v: &[f64]) -> Netlist {
        let mut netlist = Netlist::new();

        // Node names: wl_<r>_<c> and bl_<r>_<c> are the word/bit line nodes
        // at crosspoint (r, c).
        for (r, &line_v) in word_line_v.iter().enumerate() {
            let driver = netlist.node(&format!("wl_drv_{r}"));
            netlist.add_voltage_source(driver, NodeId::GROUND, Waveform::Dc(line_v));
            let first = netlist.node(&format!("wl_{r}_0"));
            netlist.add_resistor(driver, first, self.parasitics.driver_resistance.0);
            for c in 1..self.cols {
                let prev = netlist.node(&format!("wl_{r}_{}", c - 1));
                let here = netlist.node(&format!("wl_{r}_{c}"));
                netlist.add_resistor(prev, here, self.parasitics.segment_resistance.0);
            }
        }
        for (c, &line_v) in bit_line_v.iter().enumerate() {
            let driver = netlist.node(&format!("bl_drv_{c}"));
            netlist.add_voltage_source(driver, NodeId::GROUND, Waveform::Dc(line_v));
            let first = netlist.node(&format!("bl_0_{c}"));
            netlist.add_resistor(driver, first, self.parasitics.driver_resistance.0);
            for r in 1..self.rows {
                let prev = netlist.node(&format!("bl_{}_{c}", r - 1));
                let here = netlist.node(&format!("bl_{r}_{c}"));
                netlist.add_resistor(prev, here, self.parasitics.segment_resistance.0);
            }
        }
        for r in 0..self.rows {
            for c in 0..self.cols {
                let wl = netlist.node(&format!("wl_{r}_{c}"));
                let bl = netlist.node(&format!("bl_{r}_{c}"));
                let cell = SharedCell {
                    device: Rc::clone(&self.devices[r * self.cols + c]),
                };
                netlist.add_nonlinear(wl, bl, Box::new(cell));
            }
        }
        netlist
    }

    /// Applies one write pulse to `selected` with the configured scheme,
    /// solving the full network transient with the explicit time step `dt`
    /// (the [`HammerBackend`] interface uses the configured default instead).
    ///
    /// # Panics
    ///
    /// Panics if the transient solver fails to converge (which indicates a
    /// malformed network rather than a recoverable condition).
    pub fn apply_pulse_with_dt(
        &mut self,
        selected: CellAddress,
        amplitude: Volts,
        length: Seconds,
        dt: Seconds,
    ) {
        let bias = self
            .scheme
            .line_bias(self.rows, self.cols, selected, amplitude);
        let wl: Vec<f64> = bias.word_lines.iter().map(|v| v.0).collect();
        let bl: Vec<f64> = bias.bit_lines.iter().map(|v| v.0).collect();

        // The crosstalk state evolves on the hub's time constant, so the
        // pulse is cut into slices: electrical transient → hub update →
        // next slice, mirroring the pulse engine's sub-stepping.
        let hub_slice = 10e-9_f64.max(dt.0);
        let slices = (length.0 / hub_slice).ceil().max(1.0) as usize;
        let slice_len = length.0 / slices as f64;

        for _ in 0..slices {
            // Import the current crosstalk state into the devices.
            let deltas = self.hub.deltas().to_vec();
            for (idx, device) in self.devices.iter().enumerate() {
                device.borrow_mut().set_crosstalk_delta(Kelvin(deltas[idx]));
            }

            let mut netlist = self.build_netlist(&wl, &bl);
            run_transient(
                &mut netlist,
                TransientOptions {
                    dt: dt.0.min(slice_len),
                    t_stop: slice_len,
                    newton: NewtonOptions::default(),
                },
            )
            .expect("crossbar transient must converge");

            // Update the hub from the exported filament temperatures.
            let temperatures: Vec<f64> = self
                .devices
                .iter()
                .map(|d| d.borrow().exported_temperature().0)
                .collect();
            self.hub
                .update(&temperatures, self.ambient, Seconds(slice_len));
            self.elapsed += slice_len;
        }
    }
}

impl HammerBackend for DetailedCrossbar {
    fn label(&self) -> &'static str {
        "detailed"
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn apply_pulse(&mut self, selected: CellAddress, amplitude: Volts, length: Seconds) {
        let dt = Seconds(self.dt.0.min(length.0));
        self.apply_pulse_with_dt(selected, amplitude, length, dt);
    }

    fn idle(&mut self, duration: Seconds) {
        // All schemes produce an all-grounded bias at zero amplitude, and the
        // dynamics reduce to thermal decay, which tolerates a coarser step.
        let dt = Seconds((self.dt.0 * 5.0).min(duration.0));
        self.apply_pulse_with_dt(CellAddress::new(0, 0), Volts(0.0), duration, dt);
    }

    fn read(&self, address: CellAddress) -> DigitalState {
        DetailedCrossbar::read(self, address)
    }

    fn normalized_state(&self, address: CellAddress) -> f64 {
        DetailedCrossbar::normalized_state(self, address)
    }

    fn force_state(&mut self, address: CellAddress, state: DigitalState) {
        DetailedCrossbar::force_state(self, address, state);
    }

    fn force_normalized_state(&mut self, address: CellAddress, normalized: f64) {
        self.device(address)
            .borrow_mut()
            .force_normalized_state(normalized);
    }

    fn thermal_readout(&self, address: CellAddress) -> ThermalReadout {
        let device = self.device(address).borrow();
        ThermalReadout {
            temperature: device.temperature(),
            crosstalk: device.crosstalk_delta(),
            normalized_state: device.normalized_state(),
        }
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
        for device in &self.devices {
            let mut device = device.borrow_mut();
            device.force_state(DigitalState::Hrs);
            device.set_crosstalk_delta(Kelvin(0.0));
        }
        self.hub.reset();
        self.elapsed = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rram_units::SiExt;

    fn detailed(rows: usize, cols: usize) -> DetailedCrossbar {
        DetailedCrossbar::new(
            rows,
            cols,
            DeviceParams::default(),
            WiringParasitics::default(),
            CrosstalkHub::uniform(rows, cols, 0.12, 0.06, 0.03, Seconds(30e-9)),
            WriteScheme::HalfVoltage,
        )
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
        let params = DeviceParams::default();
        let hub = |n| CrosstalkHub::two_ring(1, n, 0.0, Seconds(0.0));
        let mut ideal = DetailedCrossbar::new(
            1,
            4,
            params.clone(),
            WiringParasitics {
                segment_resistance: Ohms(0.1),
                driver_resistance: Ohms(1.0),
            },
            hub(4),
            WriteScheme::HalfVoltage,
        );
        let mut resistive = DetailedCrossbar::new(
            1,
            4,
            params,
            WiringParasitics {
                segment_resistance: Ohms(500.0),
                driver_resistance: Ohms(500.0),
            },
            hub(4),
            WriteScheme::HalfVoltage,
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
    fn read_back_of_forced_states() {
        let mut xbar = detailed(2, 2);
        xbar.force_state(CellAddress::new(0, 1), DigitalState::Lrs);
        assert_eq!(xbar.read(CellAddress::new(0, 1)), DigitalState::Lrs);
        assert_eq!(xbar.read(CellAddress::new(1, 1)), DigitalState::Hrs);
    }
}
