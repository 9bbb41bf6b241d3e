//! The stateful memristive device: state integration, readout and the
//! crosstalk interface.
//!
//! Since the struct-of-arrays refactor the per-cell state lives in a
//! [`CellBank`] (see [`crate::kernel`]); [`JartDevice`] is the scalar
//! convenience wrapper — a device *is* a 1-lane bank plus its parameters —
//! and [`CellRef`]/[`CellMut`] are the borrowed per-lane views a bank owner
//! (such as the crossbar array) hands out. All three expose the same method
//! surface, and all integration funnels through the one kernel routine, so
//! scalar and batched stepping are bit-identical.

use std::borrow::Cow;

use serde::{Deserialize, Serialize};

use crate::current::OperatingPoint;
use crate::kernel::{step_lane, CellBank};
use crate::params::DeviceParams;
use rram_units::{Coulombs, Kelvin, Ohms, Seconds, Volts};

/// Digital interpretation of the cell state.
///
/// The mapping between resistance state and logical bit is a system-level
/// convention; the crossbar crate defaults to `Lrs == 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DigitalState {
    /// Low-resistive state.
    Lrs,
    /// High-resistive state.
    Hrs,
}

impl DigitalState {
    /// The opposite state.
    #[inline]
    pub fn flipped(self) -> Self {
        match self {
            DigitalState::Lrs => DigitalState::Hrs,
            DigitalState::Hrs => DigitalState::Lrs,
        }
    }
}

/// Read-only view of one lane of a [`CellBank`] — what a bank owner hands
/// out for inspection (thermal snapshots, digital read-out, resistance).
///
/// The view carries the lane's parameter set: a borrow of a shared set, or
/// an owned copy for a cell of a heterogeneous array (see
/// [`crate::ParamColumns::lane`]).
#[derive(Debug, Clone)]
pub struct CellRef<'a> {
    params: Cow<'a, DeviceParams>,
    bank: &'a CellBank,
    lane: usize,
}

impl<'a> CellRef<'a> {
    /// Creates a view of `lane` of `bank` governed by `params`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn new(params: Cow<'a, DeviceParams>, bank: &'a CellBank, lane: usize) -> Self {
        assert!(lane < bank.lanes(), "lane out of range");
        CellRef { params, bank, lane }
    }

    /// The parameter set governing this lane.
    pub fn params(&self) -> &DeviceParams {
        &self.params
    }

    /// Current disc vacancy concentration (10²⁶ m⁻³).
    pub fn concentration(&self) -> f64 {
        self.bank.concentrations()[self.lane]
    }

    /// Normalised state in `[0, 1]` (0 = deep HRS, 1 = deep LRS).
    pub fn normalized_state(&self) -> f64 {
        (self.concentration() - self.params.n_min) / (self.params.n_max - self.params.n_min)
    }

    /// Filament temperature of the most recent step.
    pub fn temperature(&self) -> Kelvin {
        Kelvin(self.bank.temperatures()[self.lane])
    }

    /// Operating point of the most recent step.
    pub fn operating_point(&self) -> OperatingPoint {
        self.bank.operating_point(self.lane)
    }

    /// Total time the cell has spent under non-zero bias, in seconds.
    pub fn stress_time(&self) -> Seconds {
        Seconds(self.bank.stress_times()[self.lane])
    }

    /// Total conduction charge `∫|I|·dt` through the cell, in coulombs.
    pub fn conduction_charge(&self) -> Coulombs {
        Coulombs(self.bank.charges()[self.lane])
    }

    /// Crosstalk interface (export): the filament temperature the hub should
    /// use as this cell's contribution to its neighbours.
    pub fn exported_temperature(&self) -> Kelvin {
        self.temperature()
    }

    /// Currently imported crosstalk temperature increase.
    pub fn crosstalk_delta(&self) -> Kelvin {
        Kelvin(self.bank.crosstalk()[self.lane])
    }

    /// Digital read-out of the cell.
    pub fn digital_state(&self) -> DigitalState {
        self.bank.digital()[self.lane]
    }

    /// Returns `true` if the cell currently reads as LRS.
    pub fn is_lrs(&self) -> bool {
        self.digital_state() == DigitalState::Lrs
    }

    /// Returns `true` if the cell currently reads as HRS.
    pub fn is_hrs(&self) -> bool {
        self.digital_state() == DigitalState::Hrs
    }

    /// Non-destructive read: static resistance at the given read voltage.
    ///
    /// Read voltages are assumed small enough not to disturb the state, so
    /// this does not advance the internal state.
    pub fn read_resistance(&self, v_read: Volts) -> Ohms {
        Ohms(crate::current::read_resistance(
            &self.params,
            v_read.0,
            self.concentration(),
        ))
    }
}

/// Mutable view of one lane of a [`CellBank`] — what a bank owner hands out
/// for initialisation, fault injection and scalar stepping. Like
/// [`CellRef`], it borrows a shared parameter set or owns a heterogeneous
/// cell's copy.
#[derive(Debug)]
pub struct CellMut<'a> {
    params: Cow<'a, DeviceParams>,
    bank: &'a mut CellBank,
    lane: usize,
}

impl<'a> CellMut<'a> {
    /// Creates a mutable view of `lane` of `bank` governed by `params`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn new(params: Cow<'a, DeviceParams>, bank: &'a mut CellBank, lane: usize) -> Self {
        assert!(lane < bank.lanes(), "lane out of range");
        CellMut { params, bank, lane }
    }

    /// Reborrows as a read-only view.
    pub fn as_ref(&self) -> CellRef<'_> {
        CellRef {
            params: Cow::Borrowed(&self.params),
            bank: self.bank,
            lane: self.lane,
        }
    }

    /// Digital read-out of the cell.
    pub fn digital_state(&self) -> DigitalState {
        self.as_ref().digital_state()
    }

    /// Normalised state in `[0, 1]` (0 = deep HRS, 1 = deep LRS).
    pub fn normalized_state(&self) -> f64 {
        self.as_ref().normalized_state()
    }

    /// Crosstalk interface (import): sets the additional temperature the
    /// crosstalk hub attributes to this cell. Negative values are clamped to
    /// zero.
    pub fn set_crosstalk_delta(&mut self, delta_t: Kelvin) {
        self.bank.set_crosstalk(self.lane, delta_t.0);
    }

    /// Forces the cell into a deep version of the given digital state
    /// (used by the memory controller to initialise memory contents without
    /// simulating forming/write transients).
    pub fn force_state(&mut self, state: DigitalState) {
        self.bank.force_state(self.lane, state, &self.params);
    }

    /// Forces the raw concentration value (clamped into the valid range).
    pub fn force_concentration(&mut self, n: f64) {
        self.bank.force_concentration(self.lane, n, &self.params);
    }

    /// Forces the normalised state (0 = HRS, 1 = LRS) — the inverse of
    /// [`CellRef::normalized_state`], clamped into the valid range.
    pub fn force_normalized_state(&mut self, normalized: f64) {
        self.force_concentration(
            self.params.n_min + normalized * (self.params.n_max - self.params.n_min),
        );
    }

    /// Advances the cell by `dt` with a constant applied cell voltage; see
    /// [`JartDevice::step`] for the integration contract.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is negative or not finite.
    pub fn step(&mut self, v_cell: Volts, dt: Seconds) -> OperatingPoint {
        step_lane(
            &self.params,
            &mut self.bank.view_mut(),
            self.lane,
            v_cell.0,
            dt,
        )
    }
}

/// A single memristive cell with its internal state and crosstalk interface.
///
/// The device integrates the vacancy-drift ODE with adaptive sub-stepping:
/// each call to [`JartDevice::step`] advances the state by at most
/// `max_dn_per_step` per internal sub-step, so stiff phases (thermal runaway
/// during an actual switching event) remain accurate while idle phases cost a
/// single evaluation.
///
/// Internally the device is a thin scalar view over a 1-lane
/// [`CellBank`], so stepping a device and stepping the same lane through
/// [`crate::kernel::step_lanes`] are bit-identical.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JartDevice {
    params: DeviceParams,
    bank: CellBank,
}

impl JartDevice {
    /// Creates a device in the HRS with the given parameters.
    pub fn new(params: DeviceParams) -> Self {
        let bank = CellBank::new(1, &params);
        JartDevice { params, bank }
    }

    /// Creates a device with an explicit initial digital state.
    pub fn with_state(params: DeviceParams, state: DigitalState) -> Self {
        let mut device = JartDevice::new(params);
        device.force_state(state);
        device
    }

    fn cell(&self) -> CellRef<'_> {
        CellRef::new(Cow::Borrowed(&self.params), &self.bank, 0)
    }

    fn cell_mut(&mut self) -> CellMut<'_> {
        CellMut::new(Cow::Borrowed(&self.params), &mut self.bank, 0)
    }

    /// Parameters of the device.
    pub fn params(&self) -> &DeviceParams {
        &self.params
    }

    /// Current disc vacancy concentration (10²⁶ m⁻³).
    pub fn concentration(&self) -> f64 {
        self.cell().concentration()
    }

    /// Normalised state in `[0, 1]` (0 = deep HRS, 1 = deep LRS).
    pub fn normalized_state(&self) -> f64 {
        self.cell().normalized_state()
    }

    /// Filament temperature of the most recent step.
    pub fn temperature(&self) -> Kelvin {
        self.cell().temperature()
    }

    /// Operating point of the most recent step.
    pub fn operating_point(&self) -> OperatingPoint {
        self.cell().operating_point()
    }

    /// Total time the device has spent under non-zero bias, in seconds.
    pub fn stress_time(&self) -> Seconds {
        self.cell().stress_time()
    }

    /// Total conduction charge `∫|I|·dt` through the device, in coulombs
    /// (a wear/energy diagnostic).
    pub fn conduction_charge(&self) -> Coulombs {
        self.cell().conduction_charge()
    }

    /// Crosstalk interface (import): sets the additional temperature the
    /// crosstalk hub attributes to this cell. Negative values are clamped to
    /// zero.
    pub fn set_crosstalk_delta(&mut self, delta_t: Kelvin) {
        self.cell_mut().set_crosstalk_delta(delta_t);
    }

    /// Crosstalk interface (export): the filament temperature the hub should
    /// use as this cell's contribution to its neighbours.
    pub fn exported_temperature(&self) -> Kelvin {
        self.cell().exported_temperature()
    }

    /// Currently imported crosstalk temperature increase.
    pub fn crosstalk_delta(&self) -> Kelvin {
        self.cell().crosstalk_delta()
    }

    /// Digital read-out of the cell.
    pub fn digital_state(&self) -> DigitalState {
        self.cell().digital_state()
    }

    /// Returns `true` if the cell currently reads as LRS.
    pub fn is_lrs(&self) -> bool {
        self.cell().is_lrs()
    }

    /// Returns `true` if the cell currently reads as HRS.
    pub fn is_hrs(&self) -> bool {
        self.cell().is_hrs()
    }

    /// Non-destructive read: static resistance at the given read voltage.
    ///
    /// Read voltages are assumed small enough not to disturb the state, so
    /// this does not advance the internal state.
    pub fn read_resistance(&self, v_read: Volts) -> Ohms {
        self.cell().read_resistance(v_read)
    }

    /// Forces the device into a deep version of the given digital state
    /// (used by the memory controller to initialise memory contents without
    /// simulating forming/write transients).
    pub fn force_state(&mut self, state: DigitalState) {
        self.cell_mut().force_state(state);
    }

    /// Forces the raw concentration value (clamped into the valid range).
    pub fn force_concentration(&mut self, n: f64) {
        self.cell_mut().force_concentration(n);
    }

    /// Forces the normalised state (0 = HRS, 1 = LRS) — the inverse of
    /// [`JartDevice::normalized_state`], clamped into the valid range.
    pub fn force_normalized_state(&mut self, normalized: f64) {
        self.cell_mut().force_normalized_state(normalized);
    }

    /// Advances the device by `dt` with a constant applied cell voltage.
    ///
    /// Returns the operating point at the *beginning* of the interval. The
    /// state is integrated with adaptive sub-stepping so that the
    /// concentration never changes by more than `max_dn_per_step` per
    /// sub-step.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is negative or not finite.
    pub fn step(&mut self, v_cell: Volts, dt: Seconds) -> OperatingPoint {
        self.cell_mut().step(v_cell, dt)
    }

    /// Applies a rectangular voltage pulse of the given length and returns
    /// the digital state after the pulse.
    pub fn apply_pulse(&mut self, amplitude: Volts, length: Seconds) -> DigitalState {
        self.step(amplitude, length);
        self.digital_state()
    }

    /// Relaxes the device with no applied bias for `dt`. The filament cools
    /// to ambient plus whatever crosstalk temperature is currently imported;
    /// the state does not move.
    pub fn relax(&mut self, dt: Seconds) {
        self.step(Volts(0.0), dt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rram_units::SiExt;

    fn device() -> JartDevice {
        JartDevice::new(DeviceParams::default())
    }

    #[test]
    fn new_device_is_hrs_at_ambient() {
        let d = device();
        assert!(d.is_hrs());
        assert_eq!(d.digital_state(), DigitalState::Hrs);
        assert_eq!(
            d.temperature().0,
            DeviceParams::default().ambient_temperature
        );
        assert_eq!(d.normalized_state(), 0.0);
    }

    #[test]
    fn force_state_round_trip() {
        let mut d = device();
        d.force_state(DigitalState::Lrs);
        assert!(d.is_lrs());
        assert_eq!(d.normalized_state(), 1.0);
        d.force_state(DigitalState::Hrs);
        assert!(d.is_hrs());
    }

    #[test]
    fn force_concentration_clamps() {
        let mut d = device();
        d.force_concentration(1e9);
        assert_eq!(d.concentration(), d.params().n_max);
        d.force_concentration(-5.0);
        assert_eq!(d.concentration(), d.params().n_min);
    }

    #[test]
    fn nominal_set_pulse_switches_the_cell() {
        let mut d = device();
        let state = d.apply_pulse(Volts(1.05), 5.0.us());
        assert_eq!(state, DigitalState::Lrs);
    }

    #[test]
    fn half_select_pulse_does_not_switch_a_cold_cell() {
        let mut d = device();
        let state = d.apply_pulse(Volts(0.525), 5.0.us());
        assert_eq!(state, DigitalState::Hrs);
        // The state barely moved.
        assert!(
            d.normalized_state() < 0.05,
            "state = {}",
            d.normalized_state()
        );
    }

    #[test]
    fn heated_half_select_is_much_faster() {
        // The core NeuroHammer mechanism at device level: importing a
        // crosstalk temperature makes the half-select stress effective.
        let mut cold = device();
        let mut hot = device();
        hot.set_crosstalk_delta(Kelvin(60.0));
        cold.step(Volts(0.525), 100.0.us());
        hot.step(Volts(0.525), 100.0.us());
        assert!(
            hot.normalized_state() > 10.0 * cold.normalized_state().max(1e-12),
            "hot {} vs cold {}",
            hot.normalized_state(),
            cold.normalized_state()
        );
    }

    #[test]
    fn reset_pulse_returns_cell_to_hrs() {
        let mut d = device();
        d.force_state(DigitalState::Lrs);
        d.apply_pulse(Volts(-1.3), 20.0.us());
        assert!(d.is_hrs(), "state = {}", d.normalized_state());
    }

    #[test]
    fn lrs_cell_under_set_bias_heats_to_900k_range() {
        let mut d = device();
        d.force_state(DigitalState::Lrs);
        d.step(Volts(1.05), 1.0.ns());
        let t = d.temperature().0;
        assert!(t > 700.0 && t < 1100.0, "T = {t}");
    }

    #[test]
    fn crosstalk_delta_is_clamped_non_negative() {
        let mut d = device();
        d.set_crosstalk_delta(Kelvin(-40.0));
        assert_eq!(d.crosstalk_delta().0, 0.0);
        d.set_crosstalk_delta(Kelvin(25.0));
        assert_eq!(d.crosstalk_delta().0, 25.0);
    }

    #[test]
    fn exported_temperature_tracks_bias() {
        let mut d = device();
        d.force_state(DigitalState::Lrs);
        d.step(Volts(1.05), 0.0.ns());
        assert!(d.exported_temperature().0 > 500.0);
        d.step(Volts(0.0), 1.0.ns());
        assert_eq!(d.exported_temperature().0, d.params().ambient_temperature);
    }

    #[test]
    fn relax_does_not_change_state() {
        let mut d = device();
        d.force_concentration(5.0);
        let before = d.concentration();
        d.relax(1.0.ms());
        assert_eq!(d.concentration(), before);
    }

    #[test]
    fn stress_time_accumulates_only_under_bias() {
        let mut d = device();
        d.step(Volts(0.5), 10.0.ns());
        d.step(Volts(0.0), 10.0.ns());
        assert!((d.stress_time().0 - 10e-9).abs() < 1e-18);
    }

    #[test]
    fn conduction_charge_accumulates_under_bias() {
        let mut d = device();
        d.force_state(DigitalState::Lrs);
        d.step(Volts(1.05), 10.0.ns());
        let q = d.conduction_charge().0;
        // LRS current is hundreds of µA, so 10 ns conducts a few pC.
        assert!(q > 1e-13 && q < 1e-10, "q = {q}");
        // No bias, no additional charge.
        d.step(Volts(0.0), 10.0.ns());
        assert_eq!(d.conduction_charge().0, q);
    }

    #[test]
    fn read_resistance_distinguishes_states() {
        let mut d = device();
        let r_hrs = d.read_resistance(Volts(0.2));
        d.force_state(DigitalState::Lrs);
        let r_lrs = d.read_resistance(Volts(0.2));
        assert!(r_hrs.0 > 20.0 * r_lrs.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_dt_panics() {
        let mut d = device();
        d.step(Volts(0.1), Seconds(-1.0));
    }

    #[test]
    fn flipped_state_is_involutive() {
        assert_eq!(DigitalState::Lrs.flipped().flipped(), DigitalState::Lrs);
        assert_eq!(DigitalState::Hrs.flipped(), DigitalState::Lrs);
    }
}
