//! The passive memristive crossbar array: a grid of VCM cells.
//!
//! Since the struct-of-arrays refactor the array no longer stores one
//! `JartDevice` per cell; the whole grid's state lives in a single
//! [`CellBank`] (row-major lane order) shared with the integration kernel,
//! and [`CrossbarArray::cell`]/[`CrossbarArray::cell_mut`] hand out
//! [`CellRef`]/[`CellMut`] views with the familiar per-device method
//! surface. The pulse engine steps many cells at once through the
//! [`rram_jart::kernel`] on row-major lane ranges;
//! [`CrossbarArray::step_lanes`] and [`CrossbarArray::relax_lanes`] are the
//! one-range case, every cell.

use std::borrow::Cow;
use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::backend::ThermalReadout;
use crate::scheme::CellAddress;
use rram_jart::{CellBank, CellMut, CellRef, DeviceParams, DigitalState, ParamColumns};
use rram_units::{Kelvin, Ohms, Volts};

/// A rows × cols array of memristive cells backed by one
/// struct-of-arrays [`CellBank`] (row-major).
///
/// The device parameters are a [`ParamColumns`] table: by default uniform,
/// so every cell shares the nominal set. Arrays with device-to-device
/// variability install columns for the sampled fields with
/// [`CrossbarArray::set_param_columns`] (or a full per-cell table with
/// [`CrossbarArray::set_params_table`]), after which every view, scalar step
/// and batched kernel call resolves each cell's own parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrossbarArray {
    rows: usize,
    cols: usize,
    params: ParamColumns,
    bank: CellBank,
}

impl CrossbarArray {
    /// Creates an array with every cell in the HRS.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn new(rows: usize, cols: usize, params: DeviceParams) -> Self {
        assert!(rows > 0 && cols > 0, "array must have at least one cell");
        let bank = CellBank::new(rows * cols, &params);
        CrossbarArray {
            rows,
            cols,
            params: ParamColumns::uniform(params, rows * cols),
            bank,
        }
    }

    /// Creates an array and initialises every cell to the given state.
    pub fn filled(rows: usize, cols: usize, params: DeviceParams, state: DigitalState) -> Self {
        let mut array = CrossbarArray::new(rows, cols, params);
        for lane in 0..array.bank.lanes() {
            array.bank.force_state(lane, state, array.params.nominal());
        }
        array
    }

    /// Number of word lines (rows).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of bit lines (columns).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of cells.
    pub fn len(&self) -> usize {
        self.bank.lanes()
    }

    /// Returns `true` if the array has no cells (never true for a
    /// constructed array).
    pub fn is_empty(&self) -> bool {
        self.bank.lanes() == 0
    }

    /// The nominal device parameters — every cell's value of each field
    /// without a per-cell column (see [`CrossbarArray::param_columns`]).
    pub fn params(&self) -> &DeviceParams {
        self.params.nominal()
    }

    /// The per-cell parameter table (row-major); uniform unless columns
    /// were installed.
    pub fn param_columns(&self) -> &ParamColumns {
        &self.params
    }

    /// The parameters governing one cell: a borrow of the nominal set on a
    /// uniform array, an owned copy carrying the cell's column values
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn cell_params(&self, address: CellAddress) -> Cow<'_, DeviceParams> {
        self.params.lane(self.index(address))
    }

    /// Installs a per-cell parameter table (row-major) and re-initialises
    /// every cell to the HRS at ambient under its new parameters — the
    /// Monte Carlo entry point: sample a table, install it, then run the
    /// attack preparation as usual. The table's nominal set becomes the
    /// array's.
    ///
    /// # Panics
    ///
    /// Panics if the table's lane count does not match the cell count.
    pub fn set_param_columns(&mut self, columns: ParamColumns) {
        assert_eq!(
            columns.lanes(),
            self.bank.lanes(),
            "params table length mismatch"
        );
        let bank = &mut self.bank;
        columns.for_each_lane(|lane, params| bank.force_state(lane, DigitalState::Hrs, params));
        // The kernel's per-lane operating-point cache is keyed on (v, n)
        // under the *current* parameters; swapping the table invalidates
        // every cached solve.
        self.bank.invalidate_op_cache();
        self.params = columns;
    }

    /// [`CrossbarArray::set_param_columns`] from a full table with one
    /// `DeviceParams` per cell (row-major), compacted against the array's
    /// nominal set: only the fields that vary are stored per cell.
    ///
    /// # Panics
    ///
    /// Panics if the table length does not match the cell count.
    pub fn set_params_table(&mut self, table: Vec<DeviceParams>) {
        let columns = ParamColumns::compact(self.params.nominal().clone(), &table);
        self.set_param_columns(columns);
    }

    /// The struct-of-arrays state bank (row-major lane order).
    pub fn bank(&self) -> &CellBank {
        &self.bank
    }

    /// Mutable access to the state bank, for engines that integrate all
    /// cells in one [`rram_jart::kernel::step_lanes`] call.
    pub fn bank_mut(&mut self) -> &mut CellBank {
        &mut self.bank
    }

    fn index(&self, address: CellAddress) -> usize {
        assert!(
            address.row < self.rows && address.col < self.cols,
            "cell {address:?} outside a {}x{} array",
            self.rows,
            self.cols
        );
        address.row * self.cols + address.col
    }

    /// Read-only view of a cell.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn cell(&self, address: CellAddress) -> CellRef<'_> {
        let lane = self.index(address);
        CellRef::new(self.params.lane(lane), &self.bank, lane)
    }

    /// Mutable view of a cell.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn cell_mut(&mut self, address: CellAddress) -> CellMut<'_> {
        let lane = self.index(address);
        CellMut::new(self.params.lane(lane), &mut self.bank, lane)
    }

    /// Iterates over `(address, cell)` pairs in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (CellAddress, CellRef<'_>)> {
        (0..self.bank.lanes()).map(move |lane| {
            (
                CellAddress::new(lane / self.cols, lane % self.cols),
                CellRef::new(self.params.lane(lane), &self.bank, lane),
            )
        })
    }

    /// Visits every cell mutably in row-major order (the struct-of-arrays
    /// bank cannot hand out coexisting mutable per-cell views, so mutable
    /// iteration takes a closure).
    pub fn for_each_cell_mut(&mut self, mut f: impl FnMut(CellAddress, CellMut<'_>)) {
        let cols = self.cols;
        let bank = &mut self.bank;
        self.params.for_each_lane(|lane, params| {
            let address = CellAddress::new(lane / cols, lane % cols);
            f(address, CellMut::new(Cow::Borrowed(params), bank, lane));
        });
    }

    /// Digital read-out of the whole array, row-major.
    pub fn read_all(&self) -> Vec<DigitalState> {
        self.bank.digital().to_vec()
    }

    /// Digital read-out of the whole array into a caller-owned buffer
    /// (cleared first), so hot loops reuse their allocation.
    pub fn read_all_into(&self, out: &mut Vec<DigitalState>) {
        out.clear();
        out.extend_from_slice(self.bank.digital());
    }

    /// Digital state of one cell.
    pub fn read(&self, address: CellAddress) -> DigitalState {
        self.bank.digital()[self.index(address)]
    }

    /// Read resistance of one cell at the given read voltage.
    pub fn read_resistance(&self, address: CellAddress, v_read: Volts) -> Ohms {
        self.cell(address).read_resistance(v_read)
    }

    /// Thermal snapshot of one cell, as every engine reports it.
    pub(crate) fn thermal_readout(&self, address: CellAddress) -> ThermalReadout {
        let cell = self.cell(address);
        ThermalReadout {
            temperature: cell.temperature(),
            crosstalk: cell.crosstalk_delta(),
            normalized_state: cell.normalized_state(),
        }
    }

    /// Returns every cell to the HRS at ambient with no imported crosstalk,
    /// under its own parameters, and clears its stress time and conduction
    /// charge — an engine's reset, after which the array equals a fresh
    /// one.
    pub(crate) fn reset_cells(&mut self) {
        self.for_each_cell_mut(|_, mut cell| {
            cell.force_state(DigitalState::Hrs);
            cell.set_crosstalk_delta(Kelvin(0.0));
        });
        self.bank.clear_diagnostics();
    }

    /// Exported filament temperatures of all cells, row-major (the hub's
    /// input vector) — a direct borrow of the bank's temperature lane, so
    /// reading it costs nothing.
    pub fn temperatures(&self) -> &[f64] {
        self.bank.temperatures()
    }

    /// Writes the crosstalk ΔT of every cell from a row-major slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice length does not match the cell count.
    pub fn import_crosstalk(&mut self, deltas: &[f64]) {
        self.bank.import_crosstalk(deltas);
    }

    /// Writes the crosstalk ΔT of the cells in the row-major lane `ranges`
    /// from a row-major slice; every other cell keeps its own.
    ///
    /// # Panics
    ///
    /// Panics if the slice length does not match the cell count or a range
    /// is out of bounds.
    pub(crate) fn import_crosstalk_ranges(&mut self, deltas: &[f64], ranges: &[Range<usize>]) {
        self.bank.import_crosstalk_ranges(deltas, ranges);
    }

    /// Integrates every cell by `dt` under its per-cell voltage (row-major)
    /// in one kernel call.
    ///
    /// # Panics
    ///
    /// Panics if `voltages.len()` does not match the cell count or `dt` is
    /// negative.
    pub fn step_lanes(&mut self, voltages: &[f64], dt: rram_units::Seconds) {
        rram_jart::kernel::step_lanes(&self.params, voltages, &mut self.bank.view_mut(), dt)
    }

    /// Integrates the cells in the disjoint, ascending row-major lane
    /// `ranges` by `dt` under their voltages (`voltages` is row-major over
    /// every cell), split across `threads` scoped worker threads, and
    /// leaves every other cell untouched — the hot path of the
    /// ideal-driver engine. Bit-identical for any thread count; `threads
    /// <= 1` does not spawn at all.
    ///
    /// # Panics
    ///
    /// Panics if `voltages.len()` does not match the cell count, the ranges
    /// are not disjoint, ascending and in bounds, or `dt` is negative.
    pub(crate) fn step_lane_ranges_threaded(
        &mut self,
        voltages: &[f64],
        ranges: &[Range<usize>],
        dt: rram_units::Seconds,
        threads: usize,
    ) {
        rram_jart::kernel::step_lane_ranges_threaded(
            &self.params,
            voltages,
            self.bank.view_mut(),
            ranges,
            dt,
            threads,
        )
    }

    /// Advances every cell by `dt` with all lines grounded — bit-identical
    /// to [`CrossbarArray::step_lanes`] with an all-zero voltage vector,
    /// without needing the voltage buffer at all.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is negative.
    pub fn relax_lanes(&mut self, dt: rram_units::Seconds) {
        rram_jart::kernel::relax_lanes(&self.params, &mut self.bank.view_mut(), dt)
    }

    /// Advances the cells in the row-major lane `ranges` by `dt` with all
    /// lines grounded and leaves every other cell untouched. The
    /// ideal-driver engine's gap phases run on this.
    ///
    /// # Panics
    ///
    /// Panics if the ranges are not disjoint, ascending and in bounds, or
    /// `dt` is negative.
    pub(crate) fn relax_lane_ranges(&mut self, ranges: &[Range<usize>], dt: rram_units::Seconds) {
        rram_jart::kernel::relax_lane_ranges(&self.params, &mut self.bank.view_mut(), ranges, dt)
    }

    /// Number of cells whose digital state differs from `reference`
    /// (row-major). Used to count attack-induced bit-flips.
    ///
    /// # Panics
    ///
    /// Panics if `reference.len()` does not match the cell count.
    pub fn count_differences(&self, reference: &[DigitalState]) -> usize {
        assert_eq!(
            reference.len(),
            self.bank.lanes(),
            "reference length mismatch"
        );
        self.bank
            .digital()
            .iter()
            .zip(reference.iter())
            .filter(|(a, b)| a != b)
            .count()
    }

    /// Addresses of the cells whose state differs from `reference`.
    ///
    /// # Panics
    ///
    /// Panics if `reference.len()` does not match the cell count.
    pub fn changed_cells(&self, reference: &[DigitalState]) -> Vec<CellAddress> {
        assert_eq!(
            reference.len(),
            self.bank.lanes(),
            "reference length mismatch"
        );
        self.bank
            .digital()
            .iter()
            .zip(reference.iter())
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| CellAddress::new(i / self.cols, i % self.cols))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array() -> CrossbarArray {
        CrossbarArray::new(3, 4, DeviceParams::default())
    }

    #[test]
    fn new_array_is_all_hrs() {
        let a = array();
        assert_eq!(a.rows(), 3);
        assert_eq!(a.cols(), 4);
        assert_eq!(a.len(), 12);
        assert!(!a.is_empty());
        assert!(a.read_all().iter().all(|&s| s == DigitalState::Hrs));
    }

    #[test]
    fn filled_array_is_all_lrs() {
        let a = CrossbarArray::filled(2, 2, DeviceParams::default(), DigitalState::Lrs);
        assert!(a.read_all().iter().all(|&s| s == DigitalState::Lrs));
    }

    #[test]
    fn cell_access_round_trips() {
        let mut a = array();
        a.cell_mut(CellAddress::new(1, 2))
            .force_state(DigitalState::Lrs);
        assert_eq!(a.read(CellAddress::new(1, 2)), DigitalState::Lrs);
        assert_eq!(a.read(CellAddress::new(1, 1)), DigitalState::Hrs);
    }

    #[test]
    fn iter_visits_every_cell_once() {
        let a = array();
        let addresses: Vec<CellAddress> = a.iter().map(|(addr, _)| addr).collect();
        assert_eq!(addresses.len(), 12);
        assert_eq!(addresses[0], CellAddress::new(0, 0));
        assert_eq!(addresses[11], CellAddress::new(2, 3));
    }

    #[test]
    fn for_each_cell_mut_visits_every_cell() {
        let mut a = array();
        a.for_each_cell_mut(|_, mut cell| cell.force_state(DigitalState::Lrs));
        assert!(a.read_all().iter().all(|&s| s == DigitalState::Lrs));
    }

    #[test]
    fn count_differences_detects_flips() {
        let mut a = array();
        let reference = a.read_all();
        assert_eq!(a.count_differences(&reference), 0);
        a.cell_mut(CellAddress::new(0, 1))
            .force_state(DigitalState::Lrs);
        a.cell_mut(CellAddress::new(2, 3))
            .force_state(DigitalState::Lrs);
        assert_eq!(a.count_differences(&reference), 2);
        let changed = a.changed_cells(&reference);
        assert_eq!(
            changed,
            vec![CellAddress::new(0, 1), CellAddress::new(2, 3)]
        );
    }

    #[test]
    fn crosstalk_import_reaches_cells() {
        let mut a = array();
        let mut deltas = vec![0.0; 12];
        deltas[5] = 42.0;
        a.import_crosstalk(&deltas);
        assert_eq!(a.cell(CellAddress::new(1, 1)).crosstalk_delta().0, 42.0);
        assert_eq!(a.cell(CellAddress::new(0, 0)).crosstalk_delta().0, 0.0);
    }

    #[test]
    fn into_variants_reuse_buffers() {
        let mut a = array();
        a.cell_mut(CellAddress::new(0, 0))
            .force_state(DigitalState::Lrs);
        let mut states = vec![DigitalState::Lrs; 99]; // stale garbage
        a.read_all_into(&mut states);
        assert_eq!(states, a.read_all());
        assert_eq!(a.temperatures().len(), 12);
    }

    #[test]
    fn read_resistance_separates_states() {
        let mut a = array();
        a.cell_mut(CellAddress::new(0, 0))
            .force_state(DigitalState::Lrs);
        let r_lrs = a.read_resistance(CellAddress::new(0, 0), Volts(0.2));
        let r_hrs = a.read_resistance(CellAddress::new(0, 1), Volts(0.2));
        assert!(r_hrs.0 > 20.0 * r_lrs.0);
    }

    #[test]
    fn params_table_governs_views_and_stepping() {
        let nominal = DeviceParams::default();
        let mut a = CrossbarArray::new(2, 2, nominal.clone());
        // Give one cell a much wider filament: more current, faster SET.
        let mut table = vec![nominal.clone(); 4];
        table[3].filament_radius = 2.0 * nominal.filament_radius;
        a.set_params_table(table.clone());

        assert_eq!(
            a.cell_params(CellAddress::new(1, 1)).filament_radius,
            2.0 * nominal.filament_radius
        );
        assert_eq!(
            a.cell_params(CellAddress::new(0, 0)).filament_radius,
            nominal.filament_radius
        );
        // Only the field that varies is stored per cell.
        let columns = a.param_columns();
        assert_eq!(columns.lanes(), 4);
        assert!(columns.has_column(rram_jart::ParamField::FilamentRadius));
        assert!(!columns.has_column(rram_jart::ParamField::LDisc));
        assert_eq!(columns.expand(), table);
        // Installing the table re-initialised the array to all-HRS.
        assert!(a.read_all().iter().all(|&s| s == DigitalState::Hrs));

        // Batched stepping resolves the per-cell parameters: the wide-
        // filament cell progresses faster under the same bias.
        a.step_lanes(&[1.05; 4], rram_units::Seconds(2e-9));
        let narrow = a.cell(CellAddress::new(0, 0)).concentration();
        let wide = a.cell(CellAddress::new(1, 1)).concentration();
        assert!(wide > narrow, "wide {wide} vs narrow {narrow}");

        // The scalar path resolves the same parameters: stepping the wide
        // cell through its CellMut view matches a standalone device with
        // the same parameter set, bit for bit.
        let mut reference =
            rram_jart::JartDevice::new(a.cell_params(CellAddress::new(1, 1)).into_owned());
        let mut fresh = CrossbarArray::new(2, 2, nominal.clone());
        fresh.set_param_columns(a.param_columns().clone());
        fresh
            .cell_mut(CellAddress::new(1, 1))
            .step(Volts(1.05), rram_units::Seconds(2e-9));
        reference.step(Volts(1.05), rram_units::Seconds(2e-9));
        assert_eq!(
            fresh.cell(CellAddress::new(1, 1)).concentration().to_bits(),
            reference.concentration().to_bits()
        );
    }

    #[test]
    fn a_nominal_table_compacts_to_a_uniform_array() {
        let mut a = array();
        a.set_params_table(vec![DeviceParams::default(); 12]);
        assert!(a.param_columns().is_uniform());
        assert!(matches!(
            a.cell_params(CellAddress::new(2, 3)),
            Cow::Borrowed(_)
        ));
    }

    #[test]
    #[should_panic(expected = "params table length mismatch")]
    fn wrong_table_length_panics() {
        let mut a = array();
        a.set_params_table(vec![DeviceParams::default(); 3]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_access_panics() {
        let a = array();
        let _ = a.cell(CellAddress::new(5, 0));
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn empty_array_panics() {
        let _ = CrossbarArray::new(0, 3, DeviceParams::default());
    }
}
