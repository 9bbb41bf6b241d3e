//! The ideal-driver pulse engine.
//!
//! Long hammer campaigns apply 10²–10⁵ identical pulses; simulating each one
//! through the full MNA solver would dominate the runtime without changing
//! the outcome, because with ideal line drivers the voltage across every cell
//! follows directly from the write scheme. This engine exploits that:
//!
//! 1. the write scheme's line biases are stamped **once per pulse** into a
//!    reused per-cell voltage buffer from two row patterns (a write access
//!    produces only a selected and an unselected word-line pattern),
//! 2. one [`rram_jart::kernel::step_lanes`] call per sub-step integrates
//!    every cell's state/temperature over the array's
//!    [`rram_jart::CellBank`] lanes, optionally split across
//!    [`EngineConfig::threads`] scoped threads (gaps take the all-grounded
//!    relax update instead),
//! 3. the crosstalk hub redistributes the exported filament temperatures
//!    through its scatter-based [`CrosstalkHub::update_batched`], which
//!    costs `O(cells · coupling-support)` instead of the dense gather's
//!    `O(cells²)` and is bit-identical to it.
//!
//! No sub-step allocates. The sub-step length is chosen from the hub's
//! thermal time constant so the first-order coupling lag is resolved. Both
//! the `pulse` and the `batched` backend labels build this engine (see
//! [`crate::BackendKind`]). The `detailed` module provides the MNA-backed
//! reference engine; `tests/engine_agreement.rs` (workspace root) checks the
//! two agree when line resistance is negligible.

use serde::{Deserialize, Serialize};

use crate::array::CrossbarArray;
use crate::backend::{HammerBackend, ThermalReadout};
use crate::crosstalk::CrosstalkHub;
use crate::scheme::{CellAddress, WriteScheme};
use rram_jart::{DeviceParams, DigitalState};
use rram_units::{Kelvin, Seconds, Volts};

/// Shared handle to the pulse counter (one registry registration per
/// process; every pulse after that is a single atomic add).
fn pulses_integrated() -> &'static std::sync::Arc<rram_telemetry::Counter> {
    static HANDLE: std::sync::OnceLock<std::sync::Arc<rram_telemetry::Counter>> =
        std::sync::OnceLock::new();
    HANDLE.get_or_init(|| {
        rram_telemetry::Registry::global().counter(
            "kernel_pulses_total",
            "Hammer pulses integrated by the ideal-driver engine",
        )
    })
}

/// Configuration of the pulse engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Write scheme used for every access.
    pub scheme: WriteScheme,
    /// Nominal write amplitude (V_SET of the paper).
    pub v_write: Volts,
    /// Maximum sub-step used to resolve the crosstalk lag, s.
    pub max_substep: Seconds,
    /// Ambient temperature, K.
    pub ambient: Kelvin,
    /// Worker threads for the pulse engine's lane integration (1 =
    /// single-threaded). Results are bit-identical for any value; values
    /// above 1 only pay off once the array is large enough to amortise the
    /// scoped-thread dispatch (≳256×256). The detailed engine ignores it.
    pub threads: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            scheme: WriteScheme::HalfVoltage,
            v_write: Volts(rram_units::V_SET),
            max_substep: Seconds(10e-9),
            ambient: Kelvin(300.0),
            threads: 1,
        }
    }
}

impl EngineConfig {
    /// Integration sub-step length in seconds for an active pulse (`true`)
    /// or an idle, all-lines-grounded stretch (`false`).
    ///
    /// Idle periods have no electrical drive; the only dynamics is the
    /// exponential decay of the crosstalk state, which tolerates 10× coarser
    /// steps than an active pulse. [`PulseEngine`] takes its sub-steps from
    /// this policy.
    pub fn substep(&self, active: bool) -> f64 {
        if active {
            self.max_substep.0.max(1e-12)
        } else {
            (self.max_substep.0 * 10.0).max(1e-12)
        }
    }
}

/// Snapshot of one cell's thermal/electrical situation, used for tracing the
/// attack phases of Fig. 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellSnapshot {
    /// Cell address.
    pub address: CellAddress,
    /// Applied cell voltage during the last step, V.
    pub voltage: Volts,
    /// Filament temperature, K.
    pub temperature: Kelvin,
    /// Imported crosstalk temperature, K.
    pub crosstalk: Kelvin,
    /// Normalised internal state (0 = HRS, 1 = LRS).
    pub state: f64,
}

/// The ideal-driver pulse engine: array + hub + scheme, integrated one
/// whole-array kernel call per sub-step.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PulseEngine {
    array: CrossbarArray,
    hub: CrosstalkHub,
    config: EngineConfig,
    /// Simulated time elapsed, s.
    elapsed: f64,
    /// Reused per-cell voltage buffer (row-major), filled once per pulse.
    #[serde(skip)]
    voltages: Vec<f64>,
    /// Reused per-column voltage patterns the buffer is stamped from, for
    /// the selected and for every unselected word line.
    #[serde(skip)]
    pattern_selected: Vec<f64>,
    #[serde(skip)]
    pattern_unselected: Vec<f64>,
}

/// Two engines are equal when their array, hub, configuration and clock
/// agree; the voltage buffer and its patterns are scratch and excluded.
impl PartialEq for PulseEngine {
    fn eq(&self, other: &Self) -> bool {
        self.array == other.array
            && self.hub == other.hub
            && self.config == other.config
            && self.elapsed == other.elapsed
    }
}

impl PulseEngine {
    /// Creates an engine around an existing array and hub.
    ///
    /// # Panics
    ///
    /// Panics if the hub dimensions do not match the array.
    pub fn new(array: CrossbarArray, hub: CrosstalkHub, config: EngineConfig) -> Self {
        assert_eq!(array.rows(), hub.rows(), "row count mismatch");
        assert_eq!(array.cols(), hub.cols(), "column count mismatch");
        let cells = array.len();
        PulseEngine {
            array,
            hub,
            config,
            elapsed: 0.0,
            voltages: vec![0.0; cells],
            pattern_selected: Vec::new(),
            pattern_unselected: Vec::new(),
        }
    }

    /// Convenience constructor: fresh HRS array with the given device
    /// parameters and a synthetic uniform coupling profile.
    pub fn with_uniform_coupling(
        rows: usize,
        cols: usize,
        params: DeviceParams,
        nearest_alpha: f64,
        config: EngineConfig,
    ) -> Self {
        let array = CrossbarArray::new(rows, cols, params);
        let hub = CrosstalkHub::two_ring(rows, cols, nearest_alpha, Seconds(30e-9));
        PulseEngine::new(array, hub, config)
    }

    /// The underlying array.
    pub fn array(&self) -> &CrossbarArray {
        &self.array
    }

    /// Mutable access to the array (initialisation, fault injection).
    pub fn array_mut(&mut self) -> &mut CrossbarArray {
        &mut self.array
    }

    /// The crosstalk hub.
    pub fn hub(&self) -> &CrosstalkHub {
        &self.hub
    }

    /// Mutable access to the hub (ablations).
    pub fn hub_mut(&mut self) -> &mut CrosstalkHub {
        &mut self.hub
    }

    /// Engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Total simulated time, s.
    pub fn elapsed(&self) -> Seconds {
        Seconds(self.elapsed)
    }

    /// Worker threads used for the lane integration (the configured count,
    /// at least 1).
    fn threads(&self) -> usize {
        self.config.threads.max(1)
    }

    /// Advances the whole array by `duration` with the line bias produced by
    /// selecting `selected` at amplitude `amplitude` (None = all lines
    /// grounded / idle).
    fn advance(&mut self, selected: Option<(CellAddress, Volts)>, duration: Seconds) {
        let mut remaining = duration.0;
        let substep = self.config.substep(selected.is_some());
        if let Some((address, amplitude)) = selected {
            self.stamp_voltages(address, amplitude);
        }
        while remaining > 0.0 {
            let dt = Seconds(remaining.min(substep));
            // Import the hub state, step every cell in one kernel call (or
            // relax them all when the lines are grounded: every cell
            // voltage is zero, so the relax update skips the kernel
            // dispatch bit-identically), then redistribute the exported
            // temperatures. Every transfer borrows the struct-of-arrays
            // lanes directly, so no sub-step allocates.
            self.array.import_crosstalk(self.hub.deltas());
            if selected.is_some() {
                let threads = self.threads();
                self.array.step_lanes_threaded(&self.voltages, dt, threads);
            } else {
                self.array.relax_lanes(dt);
            }
            self.hub
                .update_batched(self.array.temperatures(), self.config.ambient, dt);
            remaining -= dt.0;
            self.elapsed += dt.0;
        }
    }

    /// Fills the voltage buffer with the scheme's cell voltages for a write
    /// of `amplitude` to `address`.
    ///
    /// The line biases produce only two distinct row patterns (selected
    /// word line / every unselected one): each is built once and stamped per
    /// row. The per-column values are exactly the `LineBias::cell_voltage`
    /// subtraction over the same line levels, so the buffer is bit-identical
    /// to evaluating the scheme per cell (a test below pins this).
    fn stamp_voltages(&mut self, address: CellAddress, amplitude: Volts) {
        let (rows, cols) = (self.array.rows(), self.array.cols());
        let (unselected_wl, unselected_bl) = self.config.scheme.unselected_levels(amplitude);
        self.pattern_selected.clear();
        self.pattern_unselected.clear();
        for col in 0..cols {
            let bit_line = if col == address.col {
                Volts(0.0)
            } else {
                unselected_bl
            };
            self.pattern_selected.push((amplitude - bit_line).0);
            self.pattern_unselected.push((unselected_wl - bit_line).0);
        }
        self.voltages.resize(rows * cols, 0.0);
        for (row, cells) in self.voltages.chunks_exact_mut(cols).enumerate() {
            let pattern = if row == address.row {
                &self.pattern_selected
            } else {
                &self.pattern_unselected
            };
            cells.copy_from_slice(pattern);
        }
    }

    /// Applies one write pulse of the given length to `selected` using the
    /// configured scheme and amplitude. Positive amplitude drives SET.
    pub fn apply_pulse(&mut self, selected: CellAddress, amplitude: Volts, length: Seconds) {
        pulses_integrated().inc();
        self.advance(Some((selected, amplitude)), length);
    }

    /// Lets the array idle (all lines grounded) for `duration`; filaments
    /// cool and the crosstalk state decays.
    pub fn idle(&mut self, duration: Seconds) {
        self.advance(None, duration);
    }

    /// Performs a full write of `target` into `selected`: applies SET or
    /// RESET pulses (with the configured amplitude, RESET uses −1.25·V) until
    /// the cell reads back the target state or the attempt budget is
    /// exhausted. Returns `true` on success.
    pub fn write(&mut self, selected: CellAddress, target: DigitalState) -> bool {
        let pulse = Seconds(100e-9);
        for _ in 0..50 {
            if self.array.read(selected) == target {
                return true;
            }
            let amplitude = match target {
                DigitalState::Lrs => self.config.v_write,
                DigitalState::Hrs => Volts(-1.25 * self.config.v_write.0),
            };
            self.apply_pulse(selected, amplitude, pulse);
        }
        self.array.read(selected) == target
    }

    /// Non-destructive read of one cell.
    pub fn read(&self, selected: CellAddress) -> DigitalState {
        self.array.read(selected)
    }

    /// Thermal/electrical snapshot of one cell (for the Fig. 1 trace).
    pub fn snapshot(&self, address: CellAddress, voltage: Volts) -> CellSnapshot {
        let cell = self.array.cell(address);
        CellSnapshot {
            address,
            voltage,
            temperature: cell.temperature(),
            crosstalk: cell.crosstalk_delta(),
            state: cell.normalized_state(),
        }
    }
}

impl HammerBackend for PulseEngine {
    fn label(&self) -> &'static str {
        "pulse"
    }

    fn worker_threads(&self) -> usize {
        self.threads()
    }

    fn simd_isa(&self) -> &'static str {
        rram_jart::simd::active().label()
    }

    fn rows(&self) -> usize {
        self.array.rows()
    }

    fn cols(&self) -> usize {
        self.array.cols()
    }

    fn apply_pulse(&mut self, selected: CellAddress, amplitude: Volts, length: Seconds) {
        PulseEngine::apply_pulse(self, selected, amplitude, length);
    }

    fn idle(&mut self, duration: Seconds) {
        PulseEngine::idle(self, duration);
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
        let cell = self.array.cell(address);
        ThermalReadout {
            temperature: cell.temperature(),
            crosstalk: cell.crosstalk_delta(),
            normalized_state: cell.normalized_state(),
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
        self.array.for_each_cell_mut(|_, mut cell| {
            cell.force_state(DigitalState::Hrs);
            cell.set_crosstalk_delta(Kelvin(0.0));
        });
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

    fn engine() -> PulseEngine {
        PulseEngine::with_uniform_coupling(
            5,
            5,
            DeviceParams::default(),
            0.12,
            EngineConfig::default(),
        )
    }

    #[test]
    fn write_and_read_back_both_states() {
        let mut e = engine();
        let cell = CellAddress::new(2, 2);
        assert!(e.write(cell, DigitalState::Lrs));
        assert_eq!(e.read(cell), DigitalState::Lrs);
        assert!(e.write(cell, DigitalState::Hrs));
        assert_eq!(e.read(cell), DigitalState::Hrs);
    }

    #[test]
    fn writing_one_cell_leaves_the_rest_untouched() {
        let mut e = engine();
        let reference = e.array().read_all();
        assert!(e.write(CellAddress::new(1, 3), DigitalState::Lrs));
        // Only the written cell changed.
        assert_eq!(e.array().count_differences(&reference), 1);
    }

    #[test]
    fn hammering_heats_the_neighbours() {
        let mut e = engine();
        let aggressor = CellAddress::new(2, 2);
        // Aggressor in LRS maximises the current (paper, Phase 1).
        e.array_mut()
            .cell_mut(aggressor)
            .force_state(DigitalState::Lrs);
        for _ in 0..20 {
            e.apply_pulse(aggressor, Volts(1.05), 50.0.ns());
        }
        // The half-selected neighbour should have accumulated crosstalk heat.
        let victim = CellAddress::new(2, 1);
        assert!(
            e.hub().delta(victim.row, victim.col).0 > 20.0,
            "victim ΔT = {}",
            e.hub().delta(victim.row, victim.col).0
        );
        // A fully unselected cell far away should be much cooler.
        let far = CellAddress::new(0, 0);
        assert!(e.hub().delta(far.row, far.col).0 < e.hub().delta(victim.row, victim.col).0);
    }

    #[test]
    fn idle_cools_the_array() {
        let mut e = engine();
        let aggressor = CellAddress::new(2, 2);
        e.array_mut()
            .cell_mut(aggressor)
            .force_state(DigitalState::Lrs);
        for _ in 0..10 {
            e.apply_pulse(aggressor, Volts(1.05), 50.0.ns());
        }
        let hot = e.hub().delta(2, 1).0;
        e.idle(1.0.us());
        let cooled = e.hub().delta(2, 1).0;
        assert!(cooled < 0.2 * hot, "hot {hot} vs cooled {cooled}");
    }

    #[test]
    fn elapsed_time_accumulates() {
        let mut e = engine();
        e.apply_pulse(CellAddress::new(0, 0), Volts(0.5), 100.0.ns());
        e.idle(100.0.ns());
        assert!((e.elapsed().0 - 200e-9).abs() < 1e-15);
    }

    #[test]
    fn snapshot_reports_state_and_temperature() {
        let mut e = engine();
        let aggressor = CellAddress::new(2, 2);
        e.array_mut()
            .cell_mut(aggressor)
            .force_state(DigitalState::Lrs);
        e.apply_pulse(aggressor, Volts(1.05), 20.0.ns());
        let snap = e.snapshot(aggressor, Volts(1.05));
        assert!(snap.temperature.0 > 600.0);
        assert!((snap.state - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_coupling_blocks_crosstalk() {
        let mut e = PulseEngine::with_uniform_coupling(
            5,
            5,
            DeviceParams::default(),
            0.0,
            EngineConfig::default(),
        );
        let aggressor = CellAddress::new(2, 2);
        e.array_mut()
            .cell_mut(aggressor)
            .force_state(DigitalState::Lrs);
        for _ in 0..20 {
            e.apply_pulse(aggressor, Volts(1.05), 50.0.ns());
        }
        assert_eq!(e.hub().delta(2, 1).0, 0.0);
    }

    #[test]
    fn gap_stepping_is_bit_identical_to_the_all_zero_kernel_call() {
        // The gap phase (no voltage-buffer refill, relax update instead of
        // the full kernel) must be bit-identical to explicitly stepping the
        // whole array with an all-zero voltage vector.
        let mut fast = engine();
        let aggressor = CellAddress::new(2, 2);
        fast.force_state(aggressor, DigitalState::Lrs);
        let mut reference = fast.clone();

        for _ in 0..5 {
            fast.apply_pulse(aggressor, Volts(1.05), 50.0.ns());
            reference.apply_pulse(aggressor, Volts(1.05), 50.0.ns());
            // Gap phase under test:
            fast.idle(130.0.ns());
            // Reference: the same sub-step schedule with an explicit
            // all-zero kernel call.
            let mut remaining = 130.0e-9_f64;
            let substep = reference.config.substep(false);
            let zeros = vec![0.0; reference.array.len()];
            while remaining > 0.0 {
                let dt = remaining.min(substep);
                reference.array.import_crosstalk(reference.hub.deltas());
                reference.array.step_lanes(&zeros, Seconds(dt));
                reference.hub.update_batched(
                    reference.array.temperatures(),
                    reference.config.ambient,
                    Seconds(dt),
                );
                remaining -= dt;
                reference.elapsed += dt;
            }
        }

        assert_eq!(fast.elapsed, reference.elapsed);
        assert_eq!(fast.hub.deltas(), reference.hub.deltas());
        let (a, b) = (fast.array.bank(), reference.array.bank());
        for lane in 0..a.lanes() {
            assert_eq!(
                a.concentrations()[lane].to_bits(),
                b.concentrations()[lane].to_bits()
            );
            assert_eq!(
                a.temperatures()[lane].to_bits(),
                b.temperatures()[lane].to_bits()
            );
            assert_eq!(a.charges()[lane].to_bits(), b.charges()[lane].to_bits());
            assert_eq!(
                a.stress_times()[lane].to_bits(),
                b.stress_times()[lane].to_bits()
            );
            assert_eq!(a.digital()[lane], b.digital()[lane]);
        }
    }

    #[test]
    fn threaded_engine_is_bit_identical_to_single_threaded() {
        let mut single = engine();
        let mut threaded = PulseEngine::with_uniform_coupling(
            5,
            5,
            DeviceParams::default(),
            0.12,
            EngineConfig {
                threads: 4,
                ..EngineConfig::default()
            },
        );
        assert_eq!(single.worker_threads(), 1);
        assert_eq!(threaded.worker_threads(), 4);
        let aggressor = CellAddress::new(2, 2);
        for engine in [&mut single, &mut threaded] {
            engine.force_state(aggressor, DigitalState::Lrs);
            for _ in 0..8 {
                engine.apply_pulse(aggressor, Volts(1.05), 50.0.ns());
                engine.idle(50.0.ns());
            }
        }
        assert_eq!(single.hub.deltas(), threaded.hub.deltas());
        for lane in 0..single.array.bank().lanes() {
            assert_eq!(
                single.array.bank().concentrations()[lane].to_bits(),
                threaded.array.bank().concentrations()[lane].to_bits()
            );
        }
    }

    #[test]
    fn pattern_voltage_fill_matches_the_per_cell_line_bias_bitwise() {
        // The stamped row patterns must reproduce evaluating
        // `LineBias::cell_voltage` for every cell, bit for bit, for every
        // scheme and for selected cells on array edges.
        for scheme in WriteScheme::ALL {
            for selected in [
                CellAddress::new(0, 0),
                CellAddress::new(2, 3),
                CellAddress::new(4, 6),
            ] {
                let config = EngineConfig {
                    scheme,
                    ..EngineConfig::default()
                };
                let mut e =
                    PulseEngine::with_uniform_coupling(5, 7, DeviceParams::default(), 0.1, config);
                let amplitude = Volts(1.05);
                e.apply_pulse(selected, amplitude, 1.0.ns());
                let bias = scheme.line_bias(5, 7, selected, amplitude);
                for row in 0..5 {
                    for col in 0..7 {
                        let expected = bias.cell_voltage(CellAddress::new(row, col)).0;
                        let got = e.voltages[row * 7 + col];
                        assert_eq!(
                            got.to_bits(),
                            expected.to_bits(),
                            "{scheme:?} selected {selected:?} cell ({row},{col}): \
                             {got} vs {expected}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "row count mismatch")]
    fn mismatched_hub_panics() {
        let array = CrossbarArray::new(3, 3, DeviceParams::default());
        let hub = CrosstalkHub::uniform(4, 3, 0.1, 0.05, 0.02, Seconds(0.0));
        let _ = PulseEngine::new(array, hub, EngineConfig::default());
    }
}
