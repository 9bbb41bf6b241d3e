//! The [`HammerBackend`] abstraction: one interface over every crossbar
//! simulation engine.
//!
//! The workspace ships one engine, [`crate::engine::PulseEngine`], with two
//! line stages of different cost and fidelity — ideal drivers, or the
//! resistive line network of [`crate::detailed`] — and the attack layer
//! (`neurohammer`) should not care which one it is driving. `HammerBackend`
//! captures exactly what a hammering campaign needs from an engine: pulse
//! application, idling, digital and analogue cell read-out, a thermal
//! snapshot per cell, crosstalk-hub access and a whole-array reset. Every
//! attack driver, countermeasure evaluation, scenario and campaign in
//! `neurohammer` is generic over this trait, so adding another engine
//! (e.g. a GPU backend) only requires implementing it here.
//!
//! [`BackendKind`] is the declarative, serialisable selector used by campaign
//! specifications to choose an engine at runtime.
//!
//! # Examples
//!
//! Running the same burst on every backend kind through the trait:
//!
//! ```
//! use rram_crossbar::{BackendKind, CellAddress, EngineConfig, HammerBackend};
//! use rram_crossbar::CrosstalkHub;
//! use rram_jart::{DeviceParams, DigitalState};
//! use rram_units::{Seconds, Volts};
//!
//! for kind in [BackendKind::Pulse, BackendKind::Batched, BackendKind::detailed()] {
//!     let hub = CrosstalkHub::uniform(3, 3, 0.15, 0.075, 0.0375, Seconds(30e-9));
//!     let mut backend = kind.build(3, 3, DeviceParams::default(), hub,
//!                                  EngineConfig::default());
//!     let aggressor = CellAddress::new(1, 1);
//!     backend.force_state(aggressor, DigitalState::Lrs);
//!     backend.apply_pulse(aggressor, Volts(1.05), Seconds(50e-9));
//!     assert!(backend.thermal_readout(aggressor).temperature.0 > 300.0);
//! }
//! ```

use serde::{Deserialize, Serialize};

use crate::array::CrossbarArray;
use crate::crosstalk::CrosstalkHub;
use crate::detailed::WiringParasitics;
use crate::engine::{EngineConfig, PulseEngine};
use crate::scheme::CellAddress;
use rram_jart::{DeviceParams, DigitalState, ParamColumns, ParamField};
use rram_units::{Kelvin, Seconds, Volts};

/// Thermal/electrical snapshot of one cell, as exposed by any backend.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalReadout {
    /// Filament temperature, K.
    pub temperature: Kelvin,
    /// Imported crosstalk temperature increase, K.
    pub crosstalk: Kelvin,
    /// Normalised internal state (0 = HRS, 1 = LRS).
    pub normalized_state: f64,
}

/// A crossbar simulation engine a hammering campaign can drive.
///
/// The trait is object safe: campaign runners hold `Box<dyn HammerBackend>`
/// chosen at runtime from a [`BackendKind`].
///
/// # Examples
///
/// Code written against the trait runs on any backend:
///
/// ```
/// use rram_crossbar::{CellAddress, EngineConfig, HammerBackend, PulseEngine};
/// use rram_jart::{DeviceParams, DigitalState};
/// use rram_units::{Seconds, Volts};
///
/// fn hammer_once<B: HammerBackend + ?Sized>(engine: &mut B) -> f64 {
///     let aggressor = CellAddress::new(1, 1);
///     engine.force_state(aggressor, DigitalState::Lrs);
///     engine.apply_pulse(aggressor, Volts(1.05), Seconds(50e-9));
///     engine.thermal_readout(CellAddress::new(1, 0)).crosstalk.0
/// }
///
/// let mut engine = PulseEngine::with_uniform_coupling(
///     3, 3, DeviceParams::default(), 0.15, EngineConfig::default());
/// assert!(hammer_once(&mut engine) > 0.0);
/// ```
pub trait HammerBackend {
    /// Short human-readable engine name for diagnostics: `"pulse"` for a
    /// [`PulseEngine`] with ideal lines, `"detailed"` for one with wired
    /// lines. Reports and point fingerprints use the [`BackendKind`] label
    /// instead, which can differ (the `batched` kind builds an ideal
    /// [`PulseEngine`] too).
    fn label(&self) -> &'static str;

    /// Number of array rows.
    fn rows(&self) -> usize;

    /// Number of array columns.
    fn cols(&self) -> usize;

    /// Applies one write pulse of `length` to `selected` under the engine's
    /// write scheme. Positive amplitude drives SET.
    fn apply_pulse(&mut self, selected: CellAddress, amplitude: Volts, length: Seconds);

    /// Grounds all lines for `duration`: filaments cool, crosstalk decays.
    fn idle(&mut self, duration: Seconds);

    /// Digital read-out of one cell.
    fn read(&self, address: CellAddress) -> DigitalState;

    /// Normalised internal state of one cell (0 = HRS, 1 = LRS).
    fn normalized_state(&self, address: CellAddress) -> f64;

    /// Forces the digital state of one cell (initialisation, fault
    /// injection).
    fn force_state(&mut self, address: CellAddress, state: DigitalState);

    /// Forces the normalised internal state of one cell (used by pulse
    /// batching to extrapolate slow drift).
    fn force_normalized_state(&mut self, address: CellAddress, normalized: f64);

    /// Thermal snapshot of one cell.
    fn thermal_readout(&self, address: CellAddress) -> ThermalReadout;

    /// The crosstalk hub.
    fn hub(&self) -> &CrosstalkHub;

    /// Mutable access to the crosstalk hub (ablations).
    fn hub_mut(&mut self) -> &mut CrosstalkHub;

    /// Total simulated time, s.
    fn elapsed(&self) -> Seconds;

    /// Resets the array to all-HRS at ambient temperature, clears the
    /// crosstalk state and rewinds the simulated clock.
    fn reset(&mut self);

    /// The hottest imported crosstalk ΔT anywhere in the array, K — what an
    /// on-die thermal-sensor network reports to a countermeasure. The
    /// default implementation scans the hub's lane-wise delta vector, so it
    /// works unchanged on every engine without touching the `step_lanes`
    /// kernel.
    fn peak_crosstalk(&self) -> Kelvin {
        Kelvin(
            self.hub()
                .deltas()
                .iter()
                .fold(0.0_f64, |peak, &delta| peak.max(delta)),
        )
    }

    /// An independent copy of this engine that continues bit for bit as
    /// this one would under the same calls, or `None` if the engine cannot
    /// be copied (the default). A guard family forks its shared trajectory
    /// this way where a guard first acts (`neurohammer::attack::hammer`);
    /// [`PulseEngine`] forks by `Clone`.
    fn fork(&self) -> Option<Box<dyn HammerBackend>> {
        None
    }

    /// Worker threads this engine actually integrates lanes with — the
    /// clamped, effective count, not whatever a configuration asked for.
    /// Engines without a threaded path report 1.
    fn worker_threads(&self) -> usize {
        1
    }

    /// The instruction-set tier this engine's lane kernel runs on. There is
    /// one scalar tier (see `rram_jart::simd`), so every engine reports
    /// `"scalar"`.
    fn simd_isa(&self) -> &'static str {
        "scalar"
    }

    /// Digital read-out of the whole array in row-major order.
    fn read_all(&self) -> Vec<DigitalState> {
        let mut states = Vec::with_capacity(self.rows() * self.cols());
        for row in 0..self.rows() {
            for col in 0..self.cols() {
                states.push(self.read(CellAddress::new(row, col)));
            }
        }
        states
    }

    /// Addresses of the cells whose digital state differs from `reference`
    /// (as returned by [`HammerBackend::read_all`]).
    ///
    /// # Panics
    ///
    /// Panics if `reference` does not have `rows × cols` entries.
    fn changed_cells(&self, reference: &[DigitalState]) -> Vec<CellAddress> {
        assert_eq!(
            reference.len(),
            self.rows() * self.cols(),
            "reference snapshot has the wrong length"
        );
        let cols = self.cols();
        self.read_all()
            .into_iter()
            .zip(reference.iter())
            .enumerate()
            .filter(|(_, (now, before))| now != *before)
            .map(|(i, _)| CellAddress::new(i / cols, i % cols))
            .collect()
    }
}

/// Declarative backend selector used by campaign specifications.
///
/// # Examples
///
/// `Batched` is selected from campaign JSON by its `"batched"` label and
/// runs the ideal-driver engine:
///
/// ```
/// use rram_crossbar::{BackendKind, CellAddress, CrosstalkHub, EngineConfig, WriteScheme};
/// use rram_jart::{DeviceParams, DigitalState};
/// use rram_units::{Seconds, Volts};
///
/// let kind: BackendKind = "batched".parse().unwrap();
/// assert_eq!(kind, BackendKind::Batched);
/// let hub = CrosstalkHub::two_ring(5, 5, 0.15, Seconds(30e-9));
/// let mut engine = kind.build(5, 5, DeviceParams::default(), hub,
///                             EngineConfig::default());
/// let aggressor = CellAddress::new(2, 2);
/// engine.force_state(aggressor, DigitalState::Lrs);
/// engine.apply_pulse(aggressor, Volts(1.05), Seconds(50e-9));
/// assert!(engine.thermal_readout(CellAddress::new(2, 1)).crosstalk.0 > 0.0);
/// ```
///
/// `Pulse` and `Batched` build the same engine, [`PulseEngine`], and produce
/// bit-identical outcomes. They stay two variants because each keeps its own
/// label and fingerprint tag, and both enter every `PointKey` and every
/// report: removing either would change recorded report bytes and orphan
/// existing checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BackendKind {
    /// The ideal-driver [`PulseEngine`], under the `"pulse"` label.
    Pulse,
    /// The ideal-driver [`PulseEngine`], under the `"batched"` label.
    Batched,
    /// A [`PulseEngine`] with wired lines: every pulse sub-step solves the
    /// line network with the given wiring parasitics (see
    /// [`crate::detailed`]).
    Detailed(WiringParasitics),
}

impl BackendKind {
    /// The detailed backend with default wiring parasitics.
    pub fn detailed() -> Self {
        BackendKind::Detailed(WiringParasitics::default())
    }

    /// Short label used in reports ("pulse" / "batched" / "detailed").
    pub fn label(&self) -> &'static str {
        match self {
            BackendKind::Pulse => "pulse",
            BackendKind::Batched => "batched",
            BackendKind::Detailed(_) => "detailed",
        }
    }

    /// Builds a fresh all-HRS backend of this kind.
    ///
    /// The device ambient temperature is aligned with `config.ambient` so
    /// every engine sees the same thermal baseline.
    ///
    /// # Panics
    ///
    /// Panics if the hub dimensions do not match `rows`/`cols`.
    pub fn build(
        &self,
        rows: usize,
        cols: usize,
        params: DeviceParams,
        hub: CrosstalkHub,
        config: EngineConfig,
    ) -> Box<dyn HammerBackend> {
        self.build_heterogeneous(rows, cols, params, None, hub, config)
    }

    /// Builds a fresh all-HRS backend with an optional per-cell parameter
    /// table (row-major columns) — the Monte Carlo variability entry point.
    /// With `table == None` this is exactly [`BackendKind::build`]. Every
    /// kind installs the columns in its [`CrossbarArray`] as they are.
    ///
    /// The ambient temperature of the nominal parameters *and of every
    /// table lane* is aligned with `config.ambient`: the campaign's ambient
    /// axis always wins over a sampled ambient, so thermal baselines stay
    /// comparable across the grid.
    ///
    /// # Panics
    ///
    /// Panics if the hub dimensions do not match `rows`/`cols`, or the
    /// table's lane count does not match the cell count.
    pub fn build_heterogeneous(
        &self,
        rows: usize,
        cols: usize,
        params: DeviceParams,
        table: Option<ParamColumns>,
        hub: CrosstalkHub,
        config: EngineConfig,
    ) -> Box<dyn HammerBackend> {
        let params = DeviceParams {
            ambient_temperature: config.ambient.0,
            ..params
        };
        let table = table.map(|mut table| {
            table.set_shared(ParamField::AmbientTemperature, config.ambient.0);
            table
        });
        let mut array = CrossbarArray::new(rows, cols, params);
        if let Some(table) = table {
            array.set_param_columns(table);
        }
        Box::new(match self {
            BackendKind::Pulse | BackendKind::Batched => PulseEngine::new(array, hub, config),
            BackendKind::Detailed(parasitics) => {
                PulseEngine::wired(array, hub, config, *parasitics)
            }
        })
    }
}

/// Parses a backend label as written in campaign JSON ("pulse", "batched"
/// or "detailed"); the detailed backend gets default parasitics.
impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "pulse" => Ok(BackendKind::Pulse),
            "batched" => Ok(BackendKind::Batched),
            "detailed" => Ok(BackendKind::detailed()),
            other => Err(format!("unknown backend kind {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rram_units::SiExt;

    fn hub() -> CrosstalkHub {
        CrosstalkHub::uniform(3, 3, 0.15, 0.075, 0.0375, Seconds(30e-9))
    }

    fn backends() -> Vec<Box<dyn HammerBackend>> {
        [
            BackendKind::Pulse,
            BackendKind::Batched,
            BackendKind::detailed(),
        ]
        .iter()
        .map(|kind| {
            kind.build(
                3,
                3,
                DeviceParams::default(),
                hub(),
                EngineConfig::default(),
            )
        })
        .collect()
    }

    #[test]
    fn both_backends_run_the_same_burst() {
        for mut backend in backends() {
            let aggressor = CellAddress::new(1, 1);
            backend.force_state(aggressor, DigitalState::Lrs);
            for _ in 0..3 {
                backend.apply_pulse(aggressor, Volts(1.05), 50.0.ns());
                backend.idle(50.0.ns());
            }
            assert!(
                backend.thermal_readout(CellAddress::new(1, 0)).crosstalk.0 > 0.0,
                "{}: no crosstalk imported",
                backend.label()
            );
            assert!(backend.elapsed().0 > 0.0);
        }
    }

    /// Every cell's thermal read-out, the hub ΔT, the clock and the digital
    /// read-out, as bits.
    fn bits(backend: &dyn HammerBackend) -> Vec<u64> {
        let mut words: Vec<u64> = (0..9)
            .flat_map(|lane| {
                let readout = backend.thermal_readout(CellAddress::new(lane / 3, lane % 3));
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

    #[test]
    fn reset_restores_a_pristine_array() {
        let cell = CellAddress::new(0, 1);
        let burst = |backend: &mut dyn HammerBackend| {
            backend.force_state(cell, DigitalState::Lrs);
            backend.apply_pulse(cell, Volts(1.05), 50.0.ns());
            backend.idle(50.0.ns());
            backend.apply_pulse(CellAddress::new(2, 2), Volts(-1.3), 50.0.ns());
            backend.idle(50.0.ns());
        };
        for (mut backend, mut fresh) in backends().into_iter().zip(backends()) {
            burst(backend.as_mut());
            backend.reset();
            assert_eq!(backend.read(cell), DigitalState::Hrs, "{}", backend.label());
            assert_eq!(backend.elapsed().0, 0.0);
            assert!(backend.hub().deltas().iter().all(|&d| d == 0.0));
            // A reset backend replays a fresh one bit for bit.
            burst(backend.as_mut());
            burst(fresh.as_mut());
            assert_eq!(
                bits(backend.as_ref()),
                bits(fresh.as_ref()),
                "{}",
                backend.label()
            );
        }
    }

    #[test]
    fn changed_cells_reports_exactly_the_flipped_cell() {
        for mut backend in backends() {
            let reference = backend.read_all();
            backend.force_state(CellAddress::new(2, 0), DigitalState::Lrs);
            assert_eq!(
                backend.changed_cells(&reference),
                vec![CellAddress::new(2, 0)],
                "{}",
                backend.label()
            );
        }
    }

    #[test]
    fn peak_crosstalk_tracks_the_hottest_lane_on_every_backend() {
        for mut backend in backends() {
            assert_eq!(backend.peak_crosstalk().0, 0.0, "{}", backend.label());
            let aggressor = CellAddress::new(1, 1);
            backend.force_state(aggressor, DigitalState::Lrs);
            backend.apply_pulse(aggressor, Volts(1.05), 50.0.ns());
            let peak = backend.peak_crosstalk().0;
            assert!(peak > 0.0, "{}", backend.label());
            let max_delta = backend
                .hub()
                .deltas()
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(peak, max_delta, "{}", backend.label());
        }
    }

    #[test]
    fn force_normalized_state_round_trips() {
        for mut backend in backends() {
            let cell = CellAddress::new(1, 2);
            backend.force_normalized_state(cell, 0.9);
            assert!((backend.normalized_state(cell) - 0.9).abs() < 1e-9);
            assert_eq!(backend.read(cell), DigitalState::Lrs);
        }
    }

    #[test]
    fn zero_length_pulses_and_idles_change_nothing() {
        for mut backend in backends() {
            let aggressor = CellAddress::new(1, 1);
            backend.force_state(aggressor, DigitalState::Lrs);
            backend.apply_pulse(aggressor, Volts(1.05), 50.0.ns());
            let before = bits(backend.as_ref());
            backend.apply_pulse(aggressor, Volts(1.05), Seconds(0.0));
            backend.idle(Seconds(0.0));
            assert_eq!(bits(backend.as_ref()), before, "{}", backend.label());
        }
    }

    #[test]
    fn labels_and_parsing_agree() {
        for kind in [
            BackendKind::Pulse,
            BackendKind::Batched,
            BackendKind::detailed(),
        ] {
            let parsed: BackendKind = kind.label().parse().unwrap();
            assert_eq!(parsed.label(), kind.label());
        }
        assert!("gpu".parse::<BackendKind>().is_err());
    }
}
