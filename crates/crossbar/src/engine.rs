//! The pulse engine, the one engine behind every backend kind.
//!
//! Each sub-step of a pulse or an idle ([`EngineConfig::substep`]) imports
//! the hub's ΔT, finds the voltage across every cell, steps the cells and
//! updates the hub. The engine's *line stage* finds the voltages. Ideal
//! lines (the `pulse` and `batched` backends) stamp the write scheme's line
//! biases **once per pulse** into a reused per-cell voltage buffer from two
//! row patterns, since a write access produces only a selected and an
//! unselected word-line pattern; long hammer campaigns apply 10²–10⁵
//! identical pulses. Wired lines (the `detailed` backend) solve the
//! [`crate::detailed`] line network before every pulse sub-step, and mark
//! every row warm (below), because line resistance biases every cell. An
//! idle grounds every line, so neither stage has anything to find. Then
//!
//! 1. one [`rram_jart::kernel::step_lane_ranges`] call per sub-step
//!    integrates the warm and the biased cells (below) over the array's
//!    [`rram_jart::CellBank`] lanes, optionally split across
//!    [`EngineConfig::threads`] scoped threads (gaps take the all-grounded
//!    relax update instead),
//! 2. the crosstalk hub redistributes the exported filament temperatures
//!    through [`CrosstalkHub::update_spans`], a register-blocked stencil
//!    over a zero-padded plane of the cells' rises, which costs
//!    `O(cells · coupling-support)` instead of the dense gather's
//!    `O(cells²)` and is bit-identical to it.
//!
//! # Warm spans
//!
//! Thermal crosstalk is local (Eq. 5's α vanishes beyond two cells), so a
//! pulse on a large array heats only the biased lines and their fringe. The
//! engine keeps, per row, a `[lo, hi)` column span of *warm* cells; every
//! cell outside it is *cold*, which means its whole sub-step is a bitwise
//! no-op:
//!
//! - its hub ΔT and its imported ΔT are both `+0.0`, so the import stores
//!   what the cell holds;
//! - its temperature is the relax value at ΔT 0, it holds no operating
//!   point and its read-out matches its state
//!   ([`rram_jart::CellBank::at_rest`]), so the relax update stores what
//!   the cell holds;
//! - it is not biased by the current pulse.
//!
//! A cold cell also exports no rise to the hub, because the relax value
//! minus the hub's ambient is not positive, so it adds only `+0.0` terms
//! to its neighbours' targets. Each sub-step therefore imports, steps and
//! hub-couples only the warm and the biased cells; the hub visits those
//! spans dilated by its coupling support and reports the dilated spans,
//! and the cells verified cold are trimmed from their edges. Contiguous
//! spans merge into one lane range, so a fully warm array is one kernel
//! range and does exactly the whole-array work. Where the promise cannot
//! be made — a column table that varies a field the relax update reads, or
//! a relax value above the hub's ambient — nothing is trimmed and every
//! row stays warm, on the same code path. A fresh or cloned engine starts
//! with every row warm, and [`PulseEngine::array_mut`],
//! [`PulseEngine::hub_mut`], `force_state`, `force_normalized_state` and
//! `reset` mark the cells they may touch warm.
//!
//! No sub-step of the ideal stage allocates; `tests/substep_allocations.rs`
//! (workspace root) counts allocations to pin this. The sub-step length is
//! chosen from the hub's thermal time constant so the first-order coupling
//! lag is resolved. [`crate::BackendKind`] selects the line stage;
//! `tests/engine_agreement.rs` (workspace root) checks the two stages
//! agree when line resistance is negligible.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::array::CrossbarArray;
use crate::backend::{HammerBackend, ThermalReadout};
use crate::crosstalk::{hull, nonzero_span, CrosstalkHub};
use crate::detailed::{LineNetwork, WiringParasitics};
use crate::scheme::{CellAddress, WriteScheme};
use rram_jart::thermal::filament_temperature;
use rram_jart::{DeviceParams, DigitalState, LaneParams};
use rram_units::{Kelvin, Seconds, Volts};

/// Shared handle to the pulse counter (one registry registration per
/// process; every pulse after that is a single atomic add).
fn pulses_integrated() -> &'static std::sync::Arc<rram_telemetry::Counter> {
    static HANDLE: std::sync::OnceLock<std::sync::Arc<rram_telemetry::Counter>> =
        std::sync::OnceLock::new();
    HANDLE.get_or_init(|| {
        rram_telemetry::Registry::global().counter(
            "kernel_pulses_total",
            "Hammer pulses integrated by the pulse engine",
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
    /// single-threaded). Results are bit-identical for any value. It has
    /// not paid off on any array measured: on 2 cores, two threads ran a
    /// 256×256 array at 0.83× one thread before the warm spans and at
    /// 0.44–0.73× after (`threaded_over_batched_speedup_256` in
    /// `BENCH_backends.json`), and the campaign executor already spreads
    /// points over the cores. It is slated for deletion (ROADMAP item 4).
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

/// The pulse engine: array + hub + scheme + line stage, integrated one
/// kernel call over the warm and biased cells per sub-step (see the module
/// docs).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PulseEngine {
    array: CrossbarArray,
    hub: CrosstalkHub,
    config: EngineConfig,
    /// How a pulse finds its cell voltages.
    lines: LineStage,
    /// Simulated time elapsed, s.
    elapsed: f64,
    /// Reused per-cell voltage buffer (row-major), filled once per pulse or,
    /// with wired lines, once per pulse sub-step.
    #[serde(skip)]
    voltages: Vec<f64>,
    /// Reused per-column voltage patterns the buffer is stamped from, for
    /// the selected and for every unselected word line.
    #[serde(skip)]
    pattern_selected: Vec<f64>,
    #[serde(skip)]
    pattern_unselected: Vec<f64>,
    /// The cells each sub-step visits.
    #[serde(skip)]
    warm: WarmSpans,
}

/// How a [`PulseEngine`] finds its cell voltages (see the module docs).
#[derive(Debug, Clone, PartialEq)]
enum LineStage {
    /// The scheme's line levels, with ideal drivers and lossless lines.
    Ideal,
    /// The line network, solved before every pulse sub-step.
    Wired(LineNetwork),
}

/// The warm spans of a [`PulseEngine`] (see the module docs): per row, a
/// `[lo, hi)` column span outside which every cell is cold, and the lane
/// ranges of the current sub-step. Scratch, like the voltage buffer: an
/// empty span table — a fresh, cloned or deserialised engine — means every
/// row is warm.
#[derive(Debug, Default)]
struct WarmSpans {
    spans: Vec<(usize, usize)>,
    ranges: Vec<Range<usize>>,
}

/// A clone starts with every row warm and verifies its cold cells afresh.
impl Clone for WarmSpans {
    fn clone(&self) -> Self {
        WarmSpans::default()
    }
}

impl WarmSpans {
    /// Marks every row warm.
    fn fill(&mut self) {
        self.spans.clear();
    }

    /// Marks one cell warm.
    fn mark(&mut self, address: CellAddress) {
        if let Some(span) = self.spans.get_mut(address.row) {
            *span = hull(*span, (address.col, address.col + 1));
        }
    }

    /// Widens each row's span by the columns `biased` drives in it —
    /// `(selected row, [its span, every other row's span])` — and lists
    /// the sub-step's lane ranges: one per row span, contiguous ones
    /// merged.
    fn activate(&mut self, rows: usize, cols: usize, biased: Option<(usize, [(usize, usize); 2])>) {
        if self.spans.len() != rows {
            self.spans.clear();
            self.spans.resize(rows, (0, cols));
        }
        self.ranges.clear();
        for (row, span) in self.spans.iter_mut().enumerate() {
            if let Some((selected_row, [selected, others])) = biased {
                let driven = if row == selected_row {
                    selected
                } else {
                    others
                };
                *span = hull(*span, driven);
            }
            let (lo, hi) = *span;
            if lo == hi {
                continue;
            }
            let lanes = row * cols + lo..row * cols + hi;
            match self.ranges.last_mut() {
                Some(last) if last.end == lanes.start => last.end = lanes.end,
                _ => self.ranges.push(lanes),
            }
        }
    }

    /// Trims from both edges of every span the cells that are cold for the
    /// next sub-step: hub ΔT `+0.0` and at rest. Trims nothing when the
    /// cells do not share one relax set, or when a cell at rest would
    /// export a rise to the hub.
    fn trim(&mut self, array: &CrossbarArray, deltas: &[f64], ambient: Kelvin) {
        let Some(relax) = LaneParams::from(array.param_columns()).relax_shared() else {
            return;
        };
        // The hub's rise of a cell at rest, whose ΔT is `+0.0`.
        if filament_temperature(relax, 0.0, 0.0) - ambient.0 - 0.0 > 0.0 {
            return;
        }
        let (cols, bank) = (array.cols(), array.bank());
        let cold = |lane: usize| deltas[lane].to_bits() == 0 && bank.at_rest(lane, relax);
        for (row, span) in self.spans.iter_mut().enumerate() {
            let (mut lo, mut hi) = *span;
            while lo < hi && cold(row * cols + lo) {
                lo += 1;
            }
            while lo < hi && cold(row * cols + hi - 1) {
                hi -= 1;
            }
            *span = if lo < hi { (lo, hi) } else { (0, 0) };
        }
    }
}

/// Two engines are equal when their array, hub, configuration, line stage
/// and clock agree; the voltage buffer, its patterns and the warm spans
/// are scratch and excluded.
impl PartialEq for PulseEngine {
    fn eq(&self, other: &Self) -> bool {
        self.array == other.array
            && self.hub == other.hub
            && self.config == other.config
            && self.lines == other.lines
            && self.elapsed == other.elapsed
    }
}

impl PulseEngine {
    /// Creates an engine with ideal lines around an existing array and hub.
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
            lines: LineStage::Ideal,
            elapsed: 0.0,
            voltages: vec![0.0; cells],
            pattern_selected: Vec::new(),
            pattern_unselected: Vec::new(),
            warm: WarmSpans::default(),
        }
    }

    /// Creates an engine with wired lines (the `detailed` backend). Panics
    /// like [`PulseEngine::new`], or on a wiring resistance the network
    /// cannot stamp.
    pub(crate) fn wired(
        array: CrossbarArray,
        hub: CrosstalkHub,
        config: EngineConfig,
        parasitics: WiringParasitics,
    ) -> Self {
        let network = LineNetwork::new(array.rows(), array.cols(), parasitics);
        PulseEngine {
            lines: LineStage::Wired(network),
            ..PulseEngine::new(array, hub, config)
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
    /// Marks every cell warm.
    pub fn array_mut(&mut self) -> &mut CrossbarArray {
        self.warm.fill();
        &mut self.array
    }

    /// The crosstalk hub.
    pub fn hub(&self) -> &CrosstalkHub {
        &self.hub
    }

    /// Mutable access to the hub (ablations). Marks every cell warm.
    pub fn hub_mut(&mut self) -> &mut CrosstalkHub {
        self.warm.fill();
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

    /// Advances the array by `duration` with the line bias produced by
    /// selecting `selected` at amplitude `amplitude` (None = all lines
    /// grounded / idle).
    fn advance(&mut self, selected: Option<(CellAddress, Volts)>, duration: Seconds) {
        let mut remaining = duration.0;
        let substep = self.config.substep(selected.is_some());
        let biased = selected.map(|(address, amplitude)| self.bias(address, amplitude));
        let (rows, cols, threads) = (self.array.rows(), self.array.cols(), self.threads());
        while remaining > 0.0 {
            let dt = Seconds(remaining.min(substep));
            // Import the hub state into the warm and biased cells, step
            // them in one kernel call (or relax them when the lines are
            // grounded: every cell voltage is zero, so the relax update
            // skips the kernel dispatch bit-identically), redistribute the
            // exported temperatures over their spans dilated by the
            // coupling support, then trim what turned cold. Every transfer
            // borrows the struct-of-arrays lanes directly, so no sub-step
            // of the ideal stage allocates.
            self.warm.activate(rows, cols, biased);
            let ranges = &self.warm.ranges;
            self.array
                .import_crosstalk_ranges(self.hub.deltas(), ranges);
            if selected.is_some() {
                if let LineStage::Wired(network) = &mut self.lines {
                    network.solve_cells(&self.array, &mut self.voltages);
                }
                self.array
                    .step_lane_ranges_threaded(&self.voltages, ranges, dt, threads);
            } else {
                self.array.relax_lane_ranges(ranges, dt);
            }
            self.hub.update_spans(
                self.array.temperatures(),
                self.config.ambient,
                dt,
                &mut self.warm.spans,
            );
            self.warm
                .trim(&self.array, self.hub.deltas(), self.config.ambient);
            remaining -= dt.0;
            self.elapsed += dt.0;
        }
    }

    /// Sets up the line stage for a pulse of `amplitude` to `address` and
    /// returns the columns it biases: `(selected row, [its span, every
    /// other row's span])`, every column with wired lines.
    fn bias(&mut self, address: CellAddress, amplitude: Volts) -> (usize, [(usize, usize); 2]) {
        let (rows, cols) = (self.array.rows(), self.array.cols());
        match &mut self.lines {
            LineStage::Ideal => {
                self.stamp_voltages(address, amplitude);
                let patterns = [&self.pattern_selected, &self.pattern_unselected];
                (address.row, patterns.map(|p| nonzero_span(p)))
            }
            LineStage::Wired(network) => {
                let bias = self.config.scheme.line_bias(rows, cols, address, amplitude);
                let levels = |lines: &[Volts]| lines.iter().map(|v| v.0).collect::<Vec<_>>();
                network.drive(&levels(&bias.word_lines), &levels(&bias.bit_lines));
                (address.row, [(0, cols); 2])
            }
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
        match self.lines {
            LineStage::Ideal => "pulse",
            LineStage::Wired(_) => "detailed",
        }
    }

    fn fork(&self) -> Option<Box<dyn HammerBackend>> {
        Some(Box::new(self.clone()))
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
        self.warm.mark(address);
    }

    fn force_normalized_state(&mut self, address: CellAddress, normalized: f64) {
        self.array
            .cell_mut(address)
            .force_normalized_state(normalized);
        self.warm.mark(address);
    }

    fn thermal_readout(&self, address: CellAddress) -> ThermalReadout {
        self.array.thermal_readout(address)
    }

    fn hub(&self) -> &CrosstalkHub {
        &self.hub
    }

    fn hub_mut(&mut self) -> &mut CrosstalkHub {
        PulseEngine::hub_mut(self)
    }

    fn elapsed(&self) -> Seconds {
        Seconds(self.elapsed)
    }

    fn reset(&mut self) {
        self.array.reset_cells();
        self.hub.reset();
        if let LineStage::Wired(network) = &mut self.lines {
            network.clear();
        }
        self.elapsed = 0.0;
        self.warm.fill();
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
    fn reset_returns_the_wired_network_to_0_v() {
        let fresh = PulseEngine::wired(
            CrossbarArray::new(3, 3, DeviceParams::default()),
            CrosstalkHub::two_ring(3, 3, 0.15, Seconds(30e-9)),
            EngineConfig::default(),
            WiringParasitics::default(),
        );
        let mut engine = fresh.clone();
        let aggressor = CellAddress::new(1, 1);
        engine.force_state(aggressor, DigitalState::Lrs);
        engine.apply_pulse(aggressor, Volts(1.05), 50.0.ns());
        engine.idle(50.0.ns());
        // The source levels, and the node voltages the next solve starts
        // from.
        assert!(engine.lines != fresh.lines);
        engine.reset();
        assert!(engine.lines == fresh.lines);
    }

    /// Fresh 3×4 engines on every stage: ideal lines with one shared
    /// parameter set, ideal lines under a column table, and wired lines.
    fn every_stage() -> [PulseEngine; 3] {
        let ideal = |array| {
            let hub = CrosstalkHub::two_ring(3, 4, 0.15, Seconds(30e-9));
            PulseEngine::new(array, hub, EngineConfig::default())
        };
        let wired = |array| {
            let hub = CrosstalkHub::two_ring(3, 4, 0.15, Seconds(30e-9));
            PulseEngine::wired(
                array,
                hub,
                EngineConfig::default(),
                WiringParasitics::default(),
            )
        };
        let nominal = DeviceParams::default();
        let mut spread = CrossbarArray::new(3, 4, nominal.clone());
        let mut table = rram_jart::ParamColumns::uniform(nominal.clone(), 12);
        let radii = (0..12).map(|i| nominal.filament_radius * (0.9 + 0.02 * i as f64));
        table.set_column(rram_jart::ParamField::FilamentRadius, radii.collect());
        spread.set_param_columns(table);
        [
            ideal(CrossbarArray::new(3, 4, nominal.clone())),
            ideal(spread),
            wired(CrossbarArray::new(3, 4, nominal)),
        ]
    }

    #[test]
    fn a_reset_engine_equals_a_fresh_one() {
        for fresh in every_stage() {
            let mut engine = fresh.clone();
            let aggressor = CellAddress::new(1, 2);
            engine.force_state(aggressor, DigitalState::Lrs);
            for _ in 0..3 {
                engine.apply_pulse(aggressor, Volts(1.05), 50.0.ns());
                engine.idle(50.0.ns());
            }
            engine.apply_pulse(CellAddress::new(0, 0), Volts(-1.3), 30.0.ns());
            let burst = engine.clone();
            assert!(
                engine != fresh,
                "{}: the burst left no trace",
                engine.label()
            );
            engine.reset();
            assert!(
                engine == fresh,
                "{}: reset differs from fresh",
                engine.label()
            );
            // Stress time and charge are the lanes the reset used to keep.
            let (spent, new) = (burst.array.bank(), fresh.array.bank());
            assert!(spent.stress_times() != new.stress_times());
            assert!(spent.charges() != new.charges());
        }
    }

    /// Every lane of the bank, the hub and the clock, as bits.
    fn lane_bits(engine: &PulseEngine) -> Vec<u64> {
        let bank = engine.array.bank();
        let lanes = [
            bank.concentrations(),
            bank.crosstalk(),
            bank.temperatures(),
            bank.stress_times(),
            bank.charges(),
            engine.hub.deltas(),
        ];
        let mut words: Vec<u64> = lanes
            .iter()
            .flat_map(|l| l.iter().map(|v| v.to_bits()))
            .collect();
        words.extend(bank.digital().iter().map(|&d| d as u64));
        words.push(engine.elapsed.to_bits());
        words
    }

    /// What a backend shows through the trait, as bits.
    fn backend_bits(backend: &dyn HammerBackend) -> Vec<u64> {
        let cells = (0..backend.rows() * backend.cols())
            .map(|lane| CellAddress::new(lane / backend.cols(), lane % backend.cols()));
        let mut words: Vec<u64> = cells
            .flat_map(|cell| {
                let readout = backend.thermal_readout(cell);
                [
                    readout.temperature.0,
                    readout.crosstalk.0,
                    readout.normalized_state,
                ]
            })
            .chain(backend.hub().deltas().iter().copied())
            .chain([backend.elapsed().0])
            .map(f64::to_bits)
            .collect();
        words.extend(backend.read_all().iter().map(|&s| s as u64));
        words
    }

    /// One step of a script driven on several engines.
    type Step<'a> = &'a dyn Fn(&mut dyn HammerBackend);

    #[test]
    fn a_fork_taken_mid_burst_continues_bit_for_bit() {
        let aggressor = CellAddress::new(1, 2);
        let burst = |engine: &mut dyn HammerBackend| {
            engine.force_state(aggressor, DigitalState::Lrs);
            for _ in 0..3 {
                engine.apply_pulse(aggressor, Volts(1.05), 50.0.ns());
                engine.idle(50.0.ns());
            }
        };
        // A guard's refresh: every HRS cell on the aggressor's lines
        // rewritten.
        let refresh = |engine: &mut dyn HammerBackend| {
            for lane in 0..12 {
                let cell = CellAddress::new(lane / 4, lane % 4);
                let on_lines = cell.row == aggressor.row || cell.col == aggressor.col;
                if on_lines && engine.read(cell) == DigitalState::Hrs {
                    engine.force_state(cell, DigitalState::Hrs);
                }
            }
        };
        let script: [Step<'_>; 7] = [
            &|e| e.idle(50.0.ns()),
            &burst,
            &refresh,
            &|e| e.apply_pulse(CellAddress::new(0, 0), Volts(-1.3), 30.0.ns()),
            &|e| e.idle(1.0.us()),
            &|e| e.reset(),
            &burst,
        ];
        for fresh in every_stage() {
            let mut engine = fresh;
            engine.force_state(aggressor, DigitalState::Lrs);
            engine.apply_pulse(aggressor, Volts(1.05), 50.0.ns());
            engine.idle(50.0.ns());
            engine.apply_pulse(aggressor, Volts(1.05), 50.0.ns());
            let mut clone = engine.clone();
            let mut fork = engine.fork().expect("a pulse engine forks");
            for (step, action) in script.iter().enumerate() {
                action(&mut engine);
                action(&mut clone);
                action(fork.as_mut());
                let label = engine.label();
                assert!(
                    clone == engine,
                    "{label}: the clone differs after step {step}"
                );
                assert_eq!(
                    lane_bits(&clone),
                    lane_bits(&engine),
                    "{label}: step {step}"
                );
                assert_eq!(
                    backend_bits(fork.as_ref()),
                    backend_bits(&engine),
                    "{label}: the fork differs after step {step}"
                );
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
