//! The batched (struct-of-arrays) pulse engine.
//!
//! [`BatchedEngine`] drives the same ideal-driver physics as
//! [`crate::engine::PulseEngine`], through the same one kernel call per
//! sub-step, and differs in how it feeds and couples that call:
//!
//! 1. the write scheme's line biases are stamped **once per pulse** into a
//!    reused per-cell voltage buffer from two row patterns (they are
//!    constant while the bias is),
//! 2. all cells integrate in a single [`rram_jart::kernel::step_lanes`] call
//!    over the array's [`rram_jart::CellBank`] lanes,
//! 3. crosstalk import/export moves lane-wise — the hub state is copied into
//!    the bank's crosstalk lane and the bank's temperature lane is borrowed
//!    straight back — and the hub advances through its scatter-based
//!    [`crate::crosstalk::CrosstalkHub::update_batched`].
//!
//! No sub-step allocates, and the hub cost drops from the pulse engine's
//! `O(cells²)` gather to `O(cells · coupling-support)`, which is what makes
//! 10²–10⁵-pulse campaigns on large arrays tractable. Because the kernel
//! call is shared with the pulse engine, per-cell trajectories are
//! bit-identical to [`crate::engine::PulseEngine`]; only the hub's
//! floating-point accumulation order differs. `tests/engine_agreement.rs` (workspace root)
//! pins the Pulse↔Batched agreement across write schemes.

use serde::{Deserialize, Serialize};

use crate::array::CrossbarArray;
use crate::backend::{HammerBackend, ThermalReadout};
use crate::crosstalk::CrosstalkHub;
use crate::engine::EngineConfig;
use crate::scheme::CellAddress;
use rram_jart::{DeviceParams, DigitalState};
use rram_units::{Kelvin, Seconds, Volts};

/// Shared handle to the pulse counter (one registry registration per
/// process; every pulse after that is a single atomic add). Registration
/// also publishes the active SIMD tier as a labelled gauge, so `/metrics`
/// reports which kernel the fleet actually dispatched.
fn pulses_integrated() -> &'static std::sync::Arc<rram_telemetry::Counter> {
    static HANDLE: std::sync::OnceLock<std::sync::Arc<rram_telemetry::Counter>> =
        std::sync::OnceLock::new();
    HANDLE.get_or_init(|| {
        let registry = rram_telemetry::Registry::global();
        registry
            .gauge_with(
                "kernel_simd_tier",
                "Active SIMD lane-kernel tier (1 = in use)",
                &[("tier", rram_jart::simd::active().label())],
            )
            .set(1.0);
        registry.counter(
            "kernel_pulses_total",
            "Hammer pulses integrated by the batched engine",
        )
    })
}

/// The batched ideal-driver engine: array + hub + scheme, integrated one
/// whole-array kernel call per sub-step.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchedEngine {
    array: CrossbarArray,
    hub: CrosstalkHub,
    config: EngineConfig,
    /// Simulated time elapsed, s.
    elapsed: f64,
    /// Reused per-cell voltage buffer (row-major), filled once per pulse.
    voltages: Vec<f64>,
    /// Reused per-column voltage patterns the buffer is stamped from: a
    /// write access produces only two distinct row patterns (selected /
    /// unselected word line).
    pattern_selected: Vec<f64>,
    pattern_unselected: Vec<f64>,
    /// Worker threads for the lane integration (1 = single-threaded).
    threads: usize,
}

impl BatchedEngine {
    /// Creates an engine around an existing array and hub.
    ///
    /// # Panics
    ///
    /// Panics if the hub dimensions do not match the array.
    pub fn new(array: CrossbarArray, hub: CrosstalkHub, config: EngineConfig) -> Self {
        assert_eq!(array.rows(), hub.rows(), "row count mismatch");
        assert_eq!(array.cols(), hub.cols(), "column count mismatch");
        let cells = array.len();
        let threads = config.threads.max(1);
        BatchedEngine {
            array,
            hub,
            config,
            elapsed: 0.0,
            voltages: vec![0.0; cells],
            pattern_selected: Vec::new(),
            pattern_unselected: Vec::new(),
            threads,
        }
    }

    /// Sets the number of worker threads for the lane integration and
    /// returns the engine (builder style). Per-cell trajectories are
    /// bit-identical for any thread count; values above 1 only pay off once
    /// the array is large enough to amortise the scoped-thread dispatch
    /// (≳256×256).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Worker threads used for the lane integration.
    pub fn threads(&self) -> usize {
        self.threads
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
        BatchedEngine::new(array, hub, config)
    }

    /// The underlying array.
    pub fn array(&self) -> &CrossbarArray {
        &self.array
    }

    /// Mutable access to the array (initialisation, fault injection).
    pub fn array_mut(&mut self) -> &mut CrossbarArray {
        &mut self.array
    }

    /// Engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Advances the whole array by `duration` with the line bias produced by
    /// selecting `selected` at amplitude `amplitude` (None = all lines
    /// grounded / idle).
    fn advance(&mut self, selected: Option<(CellAddress, Volts)>, duration: Seconds) {
        let mut remaining = duration.0;
        let substep = self.config.substep(selected.is_some());

        // Gap phase: every cell voltage is zero by construction, so skip
        // both the voltage-buffer refill and the full kernel dispatch and
        // run the bit-identical relax update instead (a test below pins
        // gap-stepping against the explicit all-zero kernel call).
        let Some((address, amplitude)) = selected else {
            while remaining > 0.0 {
                let dt = remaining.min(substep);
                self.array.import_crosstalk(self.hub.deltas());
                self.array.relax_lanes(Seconds(dt));
                self.hub.update_batched(
                    self.array.temperatures(),
                    self.config.ambient,
                    Seconds(dt),
                );
                remaining -= dt;
                self.elapsed += dt;
            }
            return;
        };

        // The line biases are constant for the whole advance, and a write
        // access produces only two distinct row voltage patterns (selected
        // word line / every unselected one): build each pattern once and
        // stamp it per row. The per-column values are exactly the
        // `LineBias::cell_voltage` subtraction over the same line levels,
        // so the buffer is bit-identical to evaluating the scheme per cell
        // (a test below pins this).
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
        for row in 0..rows {
            let pattern = if row == address.row {
                &self.pattern_selected
            } else {
                &self.pattern_unselected
            };
            self.voltages[row * cols..(row + 1) * cols].copy_from_slice(pattern);
        }

        while remaining > 0.0 {
            let dt = remaining.min(substep);
            // Lane-wise crosstalk import, one kernel call over all lanes,
            // lane-borrowed export — no per-sub-step allocation.
            self.array.import_crosstalk(self.hub.deltas());
            if self.threads > 1 {
                self.array
                    .step_lanes_threaded(&self.voltages, Seconds(dt), self.threads);
            } else {
                self.array.step_lanes(&self.voltages, Seconds(dt));
            }
            self.hub
                .update_batched(self.array.temperatures(), self.config.ambient, Seconds(dt));
            remaining -= dt;
            self.elapsed += dt;
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
}

impl HammerBackend for BatchedEngine {
    fn label(&self) -> &'static str {
        "batched"
    }

    fn worker_threads(&self) -> usize {
        self.threads
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
        BatchedEngine::apply_pulse(self, selected, amplitude, length);
    }

    fn idle(&mut self, duration: Seconds) {
        BatchedEngine::idle(self, duration);
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
    use crate::engine::PulseEngine;
    use rram_units::SiExt;

    fn engines() -> (PulseEngine, BatchedEngine) {
        let pulse = PulseEngine::with_uniform_coupling(
            5,
            5,
            DeviceParams::default(),
            0.12,
            EngineConfig::default(),
        );
        let batched = BatchedEngine::with_uniform_coupling(
            5,
            5,
            DeviceParams::default(),
            0.12,
            EngineConfig::default(),
        );
        (pulse, batched)
    }

    #[test]
    fn batched_burst_matches_the_scalar_engine_per_cell() {
        let (mut pulse, mut batched) = engines();
        let aggressor = CellAddress::new(2, 2);
        for engine in [&mut pulse as &mut dyn HammerBackend, &mut batched] {
            engine.force_state(aggressor, DigitalState::Lrs);
            for _ in 0..10 {
                engine.apply_pulse(aggressor, Volts(1.05), 50.0.ns());
                engine.idle(50.0.ns());
            }
        }
        assert_eq!(pulse.elapsed().0, HammerBackend::elapsed(&batched).0);
        // Cell trajectories go through the identical kernel; only the hub's
        // accumulation order differs, so states agree to float precision.
        for (address, cell) in pulse.array().iter() {
            let b = batched.array().cell(address);
            let (a_n, b_n) = (cell.normalized_state(), b.normalized_state());
            assert!(
                (a_n - b_n).abs() < 1e-9 * a_n.abs().max(1e-9),
                "{address:?}: {a_n} vs {b_n}"
            );
        }
    }

    #[test]
    fn hammering_heats_the_neighbours() {
        let (_, mut e) = engines();
        let aggressor = CellAddress::new(2, 2);
        e.array_mut()
            .cell_mut(aggressor)
            .force_state(DigitalState::Lrs);
        for _ in 0..20 {
            e.apply_pulse(aggressor, Volts(1.05), 50.0.ns());
        }
        let victim = CellAddress::new(2, 1);
        assert!(
            e.hub().delta(victim.row, victim.col).0 > 20.0,
            "victim ΔT = {}",
            e.hub().delta(victim.row, victim.col).0
        );
        let far = CellAddress::new(0, 0);
        assert!(e.hub().delta(far.row, far.col).0 < e.hub().delta(victim.row, victim.col).0);
    }

    #[test]
    fn reset_restores_a_pristine_array() {
        let (_, mut e) = engines();
        let cell = CellAddress::new(1, 2);
        e.force_state(cell, DigitalState::Lrs);
        BatchedEngine::apply_pulse(&mut e, cell, Volts(1.05), 50.0.ns());
        HammerBackend::reset(&mut e);
        assert_eq!(e.read(cell), DigitalState::Hrs);
        assert_eq!(HammerBackend::elapsed(&e).0, 0.0);
        assert!(e.hub().deltas().iter().all(|&d| d == 0.0));
    }

    #[test]
    fn gap_stepping_is_bit_identical_to_the_all_zero_kernel_call() {
        // The gap-phase fast path (no voltage-buffer refill, relax update
        // instead of the full kernel) must be bit-identical to explicitly
        // stepping the whole array with an all-zero voltage vector.
        let (_, mut fast) = engines();
        let aggressor = CellAddress::new(2, 2);
        fast.force_state(aggressor, DigitalState::Lrs);
        let mut reference = fast.clone();

        for _ in 0..5 {
            fast.apply_pulse(aggressor, Volts(1.05), 50.0.ns());
            reference.apply_pulse(aggressor, Volts(1.05), 50.0.ns());
            // Fast path under test:
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
        let (_, mut single) = engines();
        let mut threaded = single.clone().with_threads(4);
        assert_eq!(threaded.threads(), 4);
        let aggressor = CellAddress::new(2, 2);
        for engine in [&mut single, &mut threaded] {
            engine.force_state(aggressor, DigitalState::Lrs);
            for _ in 0..8 {
                BatchedEngine::apply_pulse(engine, aggressor, Volts(1.05), 50.0.ns());
                BatchedEngine::idle(engine, 50.0.ns());
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
        for scheme in crate::scheme::WriteScheme::ALL {
            for selected in [
                CellAddress::new(0, 0),
                CellAddress::new(2, 3),
                CellAddress::new(4, 6),
            ] {
                let config = EngineConfig {
                    scheme,
                    ..EngineConfig::default()
                };
                let mut e = BatchedEngine::with_uniform_coupling(
                    5,
                    7,
                    DeviceParams::default(),
                    0.1,
                    config,
                );
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
        let _ = BatchedEngine::new(array, hub, EngineConfig::default());
    }
}
