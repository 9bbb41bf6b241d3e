//! Struct-of-arrays cell storage and the shared vacancy-drift step kernel.
//!
//! Long hammer campaigns integrate the same stiff ODE for every cell of the
//! array, 10²–10⁵ pulses per grid point. Storing each cell as its own struct
//! (`Vec<JartDevice>`) scatters the state across memory and forces the
//! engines to allocate per-sub-step scratch vectors just to shuttle
//! temperatures in and out. [`CellBank`] keeps the per-cell state in parallel
//! lanes instead — one contiguous `Vec<f64>` per physical quantity — so an
//! engine can hand the whole array to [`step_lanes`] in a single call and
//! read the exported filament temperatures back as a plain slice, with no
//! per-sub-step allocation at all.
//!
//! The integration itself is one adaptive RK2 loop per lane. [`step_lane`]
//! runs it on one lane, uncached: it is what [`crate::JartDevice::step`]
//! does on its private 1-lane bank, and it is the reference the array
//! kernel is checked against. [`step_lane_ranges`], the kernel the crossbar
//! pulse engine calls, runs the same operations on every lane in the same
//! order, but it replays lanes whose step another lane has already taken,
//! reuses cached operating points, and advances the remaining biased lanes
//! in lockstep groups whose Newton solves interleave. None of this changes
//! a bit, so a bank stepped by it is *bit-identical* to the same cells
//! stepped one [`crate::JartDevice::step`] at a time (property tests in
//! `tests/` and the workspace root's `tests/echo_replay.rs` pin this down).
//! Every build runs this one scalar path.
//!
//! The kernel steps a list of disjoint, ascending lane ranges and leaves
//! every other lane untouched, so an engine can skip lanes whose step would
//! change no bit (see [`CellBank::at_rest`]). [`step_lanes`],
//! [`relax_lanes`] and [`step_lanes_threaded`] are the one-range case: the
//! whole bank.
//!
//! # Examples
//!
//! Stepping a 3-lane bank under different per-lane voltages:
//!
//! ```
//! use rram_jart::kernel::{step_lanes, CellBank};
//! use rram_jart::DeviceParams;
//! use rram_units::Seconds;
//!
//! let params = DeviceParams::default();
//! let mut bank = CellBank::new(3, &params);
//! // Full SET on lane 0, half-select stress on lane 1, idle lane 2.
//! let voltages = [1.05, 0.525, 0.0];
//! step_lanes(&params, &voltages, &mut bank.view_mut(), Seconds(5e-6));
//! assert!(bank.concentrations()[0] > bank.concentrations()[1]);
//! assert_eq!(bank.concentrations()[2], params.n_min);
//! ```

use std::borrow::Cow;
use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::current::{solve_operating_point, solve_operating_points, OperatingPoint, LOCKSTEP};
use crate::device::DigitalState;
use crate::kinetics::concentration_rate;
use crate::params::{DeviceParams, ParamColumns, ParamField};
use crate::thermal::filament_temperature;
use rram_units::Seconds;

/// Struct-of-arrays storage for the mutable state of `lanes` memristive
/// cells sharing one [`DeviceParams`] set.
///
/// Each physical quantity lives in its own contiguous lane, in the order the
/// owner chooses (the crossbar array uses row-major cell order). The bank
/// does not own the device parameters — they are shared across lanes and are
/// passed to [`step_lanes`] explicitly.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellBank {
    /// Disc vacancy concentration per lane, 10²⁶ m⁻³.
    n_disc: Vec<f64>,
    /// Imported crosstalk temperature increase per lane, K.
    crosstalk: Vec<f64>,
    /// Filament temperature of the most recent step per lane, K.
    temperature: Vec<f64>,
    /// Total time under non-zero bias per lane, s (diagnostics).
    stress_time: Vec<f64>,
    /// Total conduction charge `∫|I|·dt` per lane, C (diagnostics).
    charge: Vec<f64>,
    /// Cached digital read-out per lane, kept in sync by every mutation.
    digital: Vec<DigitalState>,
    /// Operating point of the most recent step per lane.
    last_op: Vec<OperatingPoint>,
    /// One-entry operating-point cache per lane: the `v_cell` bits of the
    /// key (0, i.e. `+0.0`, means empty — solves only cache non-zero
    /// voltages). The solve is a pure function of `(params, v_cell, n)`,
    /// so the cached point stays valid across sub-steps until the lane's
    /// parameters change (see [`CellBank::invalidate_op_cache`]).
    op_cache_v_bits: Vec<u64>,
    /// The `n` bits of the per-lane cache key.
    op_cache_n_bits: Vec<u64>,
    /// The cached operating point per lane.
    op_cache_op: Vec<OperatingPoint>,
}

/// Equality compares the observable lanes only; the operating-point cache
/// is a pure accelerator whose occupancy depends on which path stepped the
/// bank (the uncached [`step_lane`] never fills it), so two banks that took
/// different paths to bit-identical state compare equal (the same
/// convention the crosstalk hub uses for its scratch).
impl PartialEq for CellBank {
    fn eq(&self, other: &Self) -> bool {
        self.n_disc == other.n_disc
            && self.crosstalk == other.crosstalk
            && self.temperature == other.temperature
            && self.stress_time == other.stress_time
            && self.charge == other.charge
            && self.digital == other.digital
            && self.last_op == other.last_op
    }
}

impl CellBank {
    /// Creates a bank of `lanes` cells, each in the HRS at ambient
    /// temperature.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new(lanes: usize, params: &DeviceParams) -> Self {
        assert!(lanes > 0, "a cell bank needs at least one lane");
        CellBank {
            n_disc: vec![params.n_min; lanes],
            crosstalk: vec![0.0; lanes],
            temperature: vec![params.ambient_temperature; lanes],
            stress_time: vec![0.0; lanes],
            charge: vec![0.0; lanes],
            digital: vec![DigitalState::Hrs; lanes],
            last_op: vec![OperatingPoint::zero(); lanes],
            op_cache_v_bits: vec![0; lanes],
            op_cache_n_bits: vec![0; lanes],
            op_cache_op: vec![OperatingPoint::zero(); lanes],
        }
    }

    /// Empties every lane's operating-point cache.
    ///
    /// The cache maps `(v_cell, n)` to a solved operating point under the
    /// device parameters the lane was last stepped with; callers that
    /// change them — e.g. a crossbar installing a new per-lane parameter
    /// table — must invalidate before the next step.
    pub fn invalidate_op_cache(&mut self) {
        self.op_cache_v_bits.fill(0);
    }

    /// Zeroes every lane's accumulated stress time and conduction charge,
    /// as in a fresh bank.
    pub fn clear_diagnostics(&mut self) {
        self.stress_time.fill(0.0);
        self.charge.fill(0.0);
    }

    /// Number of lanes (cells).
    pub fn lanes(&self) -> usize {
        self.n_disc.len()
    }

    /// Disc vacancy concentrations, one per lane (10²⁶ m⁻³).
    pub fn concentrations(&self) -> &[f64] {
        &self.n_disc
    }

    /// Imported crosstalk temperature increases, one per lane (K).
    pub fn crosstalk(&self) -> &[f64] {
        &self.crosstalk
    }

    /// Filament temperatures of the most recent step, one per lane (K) —
    /// this is the export vector the crosstalk hub consumes, with no copy.
    pub fn temperatures(&self) -> &[f64] {
        &self.temperature
    }

    /// Accumulated time under non-zero bias, one per lane (s).
    pub fn stress_times(&self) -> &[f64] {
        &self.stress_time
    }

    /// Accumulated conduction charge `∫|I|·dt`, one per lane (C).
    pub fn charges(&self) -> &[f64] {
        &self.charge
    }

    /// Cached digital read-out, one per lane.
    pub fn digital(&self) -> &[DigitalState] {
        &self.digital
    }

    /// Operating point of the most recent step of one lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn operating_point(&self, lane: usize) -> OperatingPoint {
        self.last_op[lane]
    }

    /// A mutable lane view for [`step_lanes`].
    pub fn view_mut(&mut self) -> CellBankView<'_> {
        CellBankView {
            n_disc: &mut self.n_disc,
            crosstalk: &self.crosstalk,
            temperature: &mut self.temperature,
            stress_time: &mut self.stress_time,
            charge: &mut self.charge,
            digital: &mut self.digital,
            last_op: &mut self.last_op,
            op_cache_v_bits: &mut self.op_cache_v_bits,
            op_cache_n_bits: &mut self.op_cache_n_bits,
            op_cache_op: &mut self.op_cache_op,
        }
    }

    /// Sets the imported crosstalk ΔT of one lane (negative values clamp to
    /// zero, as unphysical).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn set_crosstalk(&mut self, lane: usize, delta_t: f64) {
        self.crosstalk[lane] = delta_t.max(0.0);
    }

    /// Writes the crosstalk ΔT of every lane from a slice (negative values
    /// clamp to zero).
    ///
    /// # Panics
    ///
    /// Panics if the slice length does not match the lane count.
    pub fn import_crosstalk(&mut self, deltas: &[f64]) {
        let whole = 0..self.lanes();
        self.import_crosstalk_ranges(deltas, &[whole]);
    }

    /// Writes the crosstalk ΔT of the lanes in `ranges` from a slice
    /// indexed like the bank (negative values clamp to zero); every other
    /// lane keeps its own.
    ///
    /// # Panics
    ///
    /// Panics if the slice length does not match the lane count or a range
    /// is out of bounds.
    pub fn import_crosstalk_ranges(&mut self, deltas: &[f64], ranges: &[Range<usize>]) {
        assert_eq!(deltas.len(), self.lanes(), "delta length mismatch");
        for range in ranges {
            let slots = &mut self.crosstalk[range.clone()];
            for (slot, &delta) in slots.iter_mut().zip(&deltas[range.clone()]) {
                *slot = delta.max(0.0);
            }
        }
    }

    /// Whether a zero-voltage step of `lane` under `params` that imports a
    /// crosstalk ΔT of `+0.0` would leave every bit of the lane as it is:
    /// the lane's imported ΔT is already `+0.0`, its temperature is the
    /// relax value at ΔT 0, it holds no operating point, and its digital
    /// read-out matches its concentration. The relax update then stores
    /// what each lane already holds.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn at_rest(&self, lane: usize, params: &DeviceParams) -> bool {
        self.crosstalk[lane].to_bits() == 0
            && self.temperature[lane].to_bits() == filament_temperature(params, 0.0, 0.0).to_bits()
            && self.last_op[lane].v_cell == 0.0
            && self.digital[lane] == digital_of(params, self.n_disc[lane])
    }

    /// Forces one lane into a deep version of the given digital state and
    /// resets its thermal/electrical observables (mirrors
    /// [`crate::JartDevice::force_state`]).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn force_state(&mut self, lane: usize, state: DigitalState, params: &DeviceParams) {
        self.n_disc[lane] = match state {
            DigitalState::Lrs => params.n_max,
            DigitalState::Hrs => params.n_min,
        };
        self.temperature[lane] = params.ambient_temperature;
        self.last_op[lane] = OperatingPoint::zero();
        self.digital[lane] = state;
    }

    /// Forces the raw concentration of one lane (clamped into the valid
    /// range).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn force_concentration(&mut self, lane: usize, n: f64, params: &DeviceParams) {
        self.n_disc[lane] = n.clamp(params.n_min, params.n_max);
        self.digital[lane] = digital_of(params, self.n_disc[lane]);
    }
}

/// Mutable lane view handed to [`step_lanes`]; obtained from
/// [`CellBank::view_mut`].
#[derive(Debug)]
pub struct CellBankView<'a> {
    n_disc: &'a mut [f64],
    crosstalk: &'a [f64],
    temperature: &'a mut [f64],
    stress_time: &'a mut [f64],
    charge: &'a mut [f64],
    digital: &'a mut [DigitalState],
    last_op: &'a mut [OperatingPoint],
    op_cache_v_bits: &'a mut [u64],
    op_cache_n_bits: &'a mut [u64],
    op_cache_op: &'a mut [OperatingPoint],
}

impl<'a> CellBankView<'a> {
    /// Number of lanes in the view.
    pub fn lanes(&self) -> usize {
        self.n_disc.len()
    }

    /// Splits the view into two disjoint sub-views at `mid` (the first
    /// covering lanes `0..mid`, the second `mid..`).
    ///
    /// The halves borrow disjoint slices of every lane, so they can be
    /// stepped concurrently — this is what [`step_lane_ranges_threaded`] uses to
    /// hand one array sub-step to several scoped threads without any
    /// unsafe code.
    ///
    /// # Panics
    ///
    /// Panics if `mid` is greater than the lane count.
    pub fn split_at(self, mid: usize) -> (CellBankView<'a>, CellBankView<'a>) {
        let (n_lo, n_hi) = self.n_disc.split_at_mut(mid);
        let (x_lo, x_hi) = self.crosstalk.split_at(mid);
        let (t_lo, t_hi) = self.temperature.split_at_mut(mid);
        let (s_lo, s_hi) = self.stress_time.split_at_mut(mid);
        let (c_lo, c_hi) = self.charge.split_at_mut(mid);
        let (d_lo, d_hi) = self.digital.split_at_mut(mid);
        let (o_lo, o_hi) = self.last_op.split_at_mut(mid);
        let (cv_lo, cv_hi) = self.op_cache_v_bits.split_at_mut(mid);
        let (cn_lo, cn_hi) = self.op_cache_n_bits.split_at_mut(mid);
        let (co_lo, co_hi) = self.op_cache_op.split_at_mut(mid);
        (
            CellBankView {
                n_disc: n_lo,
                crosstalk: x_lo,
                temperature: t_lo,
                stress_time: s_lo,
                charge: c_lo,
                digital: d_lo,
                last_op: o_lo,
                op_cache_v_bits: cv_lo,
                op_cache_n_bits: cn_lo,
                op_cache_op: co_lo,
            },
            CellBankView {
                n_disc: n_hi,
                crosstalk: x_hi,
                temperature: t_hi,
                stress_time: s_hi,
                charge: c_hi,
                digital: d_hi,
                last_op: o_hi,
                op_cache_v_bits: cv_hi,
                op_cache_n_bits: cn_hi,
                op_cache_op: co_hi,
            },
        )
    }
}

/// Digital interpretation of a concentration value.
#[inline]
fn digital_of(params: &DeviceParams, n: f64) -> DigitalState {
    if n >= params.flip_threshold() {
        DigitalState::Lrs
    } else {
        DigitalState::Hrs
    }
}

/// The parameter source of a [`step_lanes`] call: one shared set for a
/// homogeneous bank, or a [`ParamColumns`] table for arrays with
/// device-to-device variability (lane `i` of the bank is lane `i` of the
/// table).
///
/// `&DeviceParams` and `&ParamColumns` both convert into this, so
/// homogeneous callers keep the `step_lanes(&params, …)` shape and
/// heterogeneous callers pass the table. A uniform table converts to
/// [`LaneParams::Shared`]:
///
/// ```
/// use rram_jart::kernel::{step_lanes, CellBank};
/// use rram_jart::{DeviceParams, ParamColumns, ParamField};
/// use rram_units::Seconds;
///
/// let nominal = DeviceParams::default();
/// let mut table = ParamColumns::uniform(nominal.clone(), 2);
/// table.set_column(ParamField::FilamentRadius, vec![nominal.filament_radius, 18e-9]);
/// let mut bank = CellBank::new(2, &nominal);
/// step_lanes(&table, &[1.05, 1.05], &mut bank.view_mut(), Seconds(1e-9));
/// // The wider filament conducts more, so its state moves faster.
/// assert!(bank.concentrations()[1] > bank.concentrations()[0]);
/// ```
#[derive(Debug, Clone, Copy)]
pub enum LaneParams<'a> {
    /// Every lane shares one parameter set.
    Shared(&'a DeviceParams),
    /// Lane `i` uses lane `base + i` of a non-uniform column table; the
    /// call covers `len` lanes.
    Columns {
        /// The column table.
        table: &'a ParamColumns,
        /// Table lane of the call's first lane.
        base: usize,
        /// Number of lanes the call covers.
        len: usize,
    },
}

/// The fields the zero-bias lane update reads: the relax temperature
/// (`ambient + ΔT`, clamped) and the digital read-out. When none of them
/// is a column, every zero-voltage lane can relax under the nominal set.
const RELAX_FIELDS: [ParamField; 6] = [
    ParamField::AmbientTemperature,
    ParamField::MaxTemperature,
    ParamField::RThEff,
    ParamField::NMin,
    ParamField::NMax,
    ParamField::LrsThreshold,
];

impl<'a> LaneParams<'a> {
    /// The parameter set of one lane: borrowed when shared, built on the
    /// stack from the table's columns otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of the table's range.
    #[inline]
    pub fn of(&self, lane: usize) -> Cow<'a, DeviceParams> {
        match *self {
            LaneParams::Shared(params) => Cow::Borrowed(params),
            LaneParams::Columns { table, base, .. } => table.lane(base + lane),
        }
    }

    /// The parameter source restricted to `len` lanes starting at `base` —
    /// the companion of [`CellBankView::split_at`] for handing a sub-range
    /// of the lanes to another thread.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of the table's bounds.
    #[inline]
    pub fn narrow(&self, base: usize, len: usize) -> LaneParams<'a> {
        match *self {
            LaneParams::Shared(params) => LaneParams::Shared(params),
            LaneParams::Columns {
                table,
                base: start,
                len: total,
            } => {
                assert!(base + len <= total, "params table range out of bounds");
                LaneParams::Columns {
                    table,
                    base: start + base,
                    len,
                }
            }
        }
    }

    /// Checks a table covers exactly `lanes` lanes.
    fn check_lanes(&self, lanes: usize) {
        if let LaneParams::Columns { len, .. } = *self {
            assert_eq!(len, lanes, "params table length mismatch");
        }
    }

    /// The set every zero-voltage lane relaxes under, when the lanes agree
    /// on every field the relax update reads (ambient and maximum
    /// temperature, `R_th,eff`, the concentration bounds and the LRS
    /// threshold); `None` when one of them is a column.
    pub fn relax_shared(&self) -> Option<&'a DeviceParams> {
        match *self {
            LaneParams::Shared(params) => Some(params),
            LaneParams::Columns { table, .. } => {
                let per_lane = RELAX_FIELDS.iter().any(|&field| table.has_column(field));
                (!per_lane).then(|| table.nominal())
            }
        }
    }
}

impl<'a> From<&'a DeviceParams> for LaneParams<'a> {
    fn from(params: &'a DeviceParams) -> Self {
        LaneParams::Shared(params)
    }
}

impl<'a> From<&'a ParamColumns> for LaneParams<'a> {
    fn from(table: &'a ParamColumns) -> Self {
        if table.is_uniform() {
            LaneParams::Shared(table.nominal())
        } else {
            LaneParams::Columns {
                table,
                base: 0,
                len: table.lanes(),
            }
        }
    }
}

/// Number of lanes integrated per fixed-width chunk of [`step_lane_ranges`].
///
/// A fixed trip count lets the compiler vectorize the all-zero voltage test
/// and the all-idle relax update without a runtime remainder check inside
/// the chunk.
pub const LANE_CHUNK: usize = 8;

/// Advances every lane of the bank by `dt` under its per-lane cell voltage:
/// [`step_lane_ranges`] over the one range that covers the whole bank.
///
/// # Panics
///
/// Panics if `voltages.len()` (or a table's length) does not match the lane
/// count, or if `dt` is negative or not finite.
pub fn step_lanes<'a>(
    params: impl Into<LaneParams<'a>>,
    voltages: &[f64],
    lanes: &mut CellBankView<'_>,
    dt: Seconds,
) {
    let whole = 0..lanes.lanes();
    step_lane_ranges(params, voltages, lanes, &[whole], dt);
}

/// Advances the lanes in `ranges` by `dt`, each under its cell voltage
/// (`voltages` is indexed like the bank), and leaves every other lane
/// untouched.
///
/// This is the one array integration routine of the workspace: the
/// ideal-driver crossbar engine calls it once per sub-step on the lanes it
/// has not proven cold. Lanes are independent within a call (thermal
/// coupling happens *between* engine sub-steps, through the crosstalk
/// lane), so the kernel may take them in any interleaving. The ranges must
/// be disjoint and ascending; the biased lanes of all of them form one
/// scan, so they replay exactly as they would in one whole-bank call.
///
/// The result is bit-identical to calling the uncached reference
/// [`step_lane`] (that is, [`crate::JartDevice::step`]) on every lane of
/// the ranges — the proptests in `tests/kernel_lanes.rs` and the root
/// `tests/echo_replay.rs` pin this down, remainders, group edges and
/// replays included — while skipping or overlapping most of its work:
///
/// * each range is walked in fixed-width [`LANE_CHUNK`] blocks with a
///   remainder loop, and a block whose voltages are all exactly zero (the
///   common case on a large array, where only the selected row and column
///   are biased) takes a block-wide relax update;
/// * a zero-voltage lane inside a biased block takes the same relax update
///   (at `v = 0` the reference step solves nothing, accrues no stress time
///   and adds a `+0.0` charge term);
/// * with shared params, the biased lanes are scanned in lane order, and a
///   lane whose `(v, ΔT, n, charge)` key equals the last stepped lane's is
///   a replay: it copies that lane's outcome once it has been stepped. The
///   integrator is pure in the key, so the copy is what the lane's own step
///   would store. Line-bias schemes stamp long runs of identical voltages
///   onto lanes with identical histories, so most biased lanes of a quiet
///   array replay;
/// * every other biased lane joins a lockstep group of up to
///   [`LOCKSTEP`] lanes that runs the adaptive RK2 loop phase by phase
///   across its lanes. Each phase takes the lane's operating point from its
///   one-entry cache — `(v_cell, n)` pins the Newton solve completely
///   (temperature does not enter it), and the refresh solve that ends one
///   sub-step is the first solve of the next — and solves the misses of
///   the phase together in one lockstep Newton solve. Each lane
///   runs exactly the operations of [`step_lane`], in the same order, on
///   its own values; only the interleaving of independent lanes changes,
///   and it lets the processor overlap their long Newton chains.
///
/// `params` is either one shared `&DeviceParams` or a `&ParamColumns`
/// table (see [`LaneParams`]). A biased lane of a table builds its
/// parameter set on the stack from the nominal set and its column values;
/// zero-voltage lanes relax under the nominal set unless a field the relax
/// update reads is a column.
///
/// The operating-point cache assumes each lane's params are stable between
/// calls; callers that change them must [`CellBank::invalidate_op_cache`]
/// first.
///
/// # Panics
///
/// Panics if `voltages.len()` (or a table's length) does not match the lane
/// count, if the ranges are not disjoint, ascending and in bounds, or if
/// `dt` is negative or not finite.
pub fn step_lane_ranges<'a>(
    params: impl Into<LaneParams<'a>>,
    voltages: &[f64],
    lanes: &mut CellBankView<'_>,
    ranges: &[Range<usize>],
    dt: Seconds,
) {
    let params = check_call(params.into(), voltages, lanes, ranges, dt);
    step_ranges(params, voltages, lanes, ranges.iter().cloned(), dt);
}

/// The argument checks every stepping entry point shares; returns the
/// parameter source.
fn check_call<'a>(
    params: LaneParams<'a>,
    voltages: &[f64],
    lanes: &CellBankView<'_>,
    ranges: &[Range<usize>],
    dt: Seconds,
) -> LaneParams<'a> {
    assert_eq!(
        voltages.len(),
        lanes.lanes(),
        "voltage vector length mismatch"
    );
    params.check_lanes(lanes.lanes());
    check_ranges(ranges, lanes.lanes());
    assert!(dt.0.is_finite() && dt.0 >= 0.0, "dt must be non-negative");
    params
}

/// Checks that `ranges` are disjoint, ascending and within `lanes`.
fn check_ranges(ranges: &[Range<usize>], lanes: usize) {
    let mut floor = 0;
    for range in ranges {
        assert!(
            floor <= range.start && range.start <= range.end && range.end <= lanes,
            "lane ranges must be disjoint, ascending and in bounds"
        );
        floor = range.end;
    }
}

/// The body of [`step_lane_ranges`] on checked arguments: the zero-voltage
/// lanes relax in place, and the biased ones, in lane order across every
/// range, go through one [`BiasedLanes`] scan, with slot parameter sets of
/// the source's kind.
fn step_ranges(
    params: LaneParams<'_>,
    voltages: &[f64],
    lanes: &mut CellBankView<'_>,
    ranges: impl Iterator<Item = Range<usize>>,
    dt: Seconds,
) {
    match params {
        LaneParams::Shared(shared) => {
            scan_ranges(params, SharedSet(shared), voltages, lanes, ranges, dt);
        }
        LaneParams::Columns { table, base, .. } => {
            let sets = ColumnSets {
                table,
                base,
                sets: std::array::from_fn(|_| table.nominal().clone()),
            };
            scan_ranges(params, sets, voltages, lanes, ranges, dt);
        }
    }
}

/// [`step_ranges`] with the group's parameter sets `sets` built.
#[inline]
fn scan_ranges<S: SlotParams>(
    params: LaneParams<'_>,
    sets: S,
    voltages: &[f64],
    lanes: &mut CellBankView<'_>,
    ranges: impl Iterator<Item = Range<usize>>,
    dt: Seconds,
) {
    let relax = params.relax_shared();
    let mut biased = BiasedLanes {
        sets,
        dt: dt.0,
        group: Group {
            len: 0,
            slots: [Slot::EMPTY; LOCKSTEP],
        },
        source: None,
        pending: [(0, 0); PENDING],
        pending_len: 0,
        lookups: 0,
        hits: 0,
    };
    for range in ranges {
        let mut base = range.start;
        while base + LANE_CHUNK <= range.end {
            let chunk: &[f64; LANE_CHUNK] = voltages[base..base + LANE_CHUNK]
                .try_into()
                .expect("chunk slice has LANE_CHUNK lanes");
            if chunk.iter().all(|&v| v == 0.0) {
                relax_chunk(params, relax, lanes, base);
            } else {
                for (offset, &v_cell) in chunk.iter().enumerate() {
                    biased.step_or_relax(params, relax, lanes, base + offset, v_cell);
                }
            }
            base += LANE_CHUNK;
        }
        for (lane, &v_cell) in voltages.iter().enumerate().take(range.end).skip(base) {
            biased.step_or_relax(params, relax, lanes, lane, v_cell);
        }
    }
    biased.finish(lanes);
}

/// Advances every lane of the bank by `dt` with *all lines grounded*:
/// [`relax_lane_ranges`] over the whole bank.
///
/// # Panics
///
/// Panics if a table's length does not match the lane count, or if `dt` is
/// negative or not finite.
pub fn relax_lanes<'a>(
    params: impl Into<LaneParams<'a>>,
    lanes: &mut CellBankView<'_>,
    dt: Seconds,
) {
    let whole = 0..lanes.lanes();
    relax_lane_ranges(params, lanes, &[whole], dt);
}

/// Advances the lanes in `ranges` by `dt` with *all lines grounded* — the
/// gap interval between hammer pulses — and leaves every other lane
/// untouched.
///
/// This is the specialisation of [`step_lane_ranges`] to an all-zero
/// voltage vector, and it is bit-identical to it: with no bias the
/// operating point is [`OperatingPoint::zero`], the drift rate vanishes,
/// and the only state change is the filament temperature tracking the
/// imported crosstalk ΔT. Engines use it to skip both the per-pulse
/// voltage-buffer refill and the full kernel dispatch during gap phases (a
/// unit test on the crossbar pulse engine pins the before/after
/// bit-identity).
///
/// # Panics
///
/// Panics if a table's length does not match the lane count, if the ranges
/// are not disjoint, ascending and in bounds, or if `dt` is negative or not
/// finite.
pub fn relax_lane_ranges<'a>(
    params: impl Into<LaneParams<'a>>,
    lanes: &mut CellBankView<'_>,
    ranges: &[Range<usize>],
    dt: Seconds,
) {
    let params = params.into();
    params.check_lanes(lanes.lanes());
    check_ranges(ranges, lanes.lanes());
    assert!(dt.0.is_finite() && dt.0 >= 0.0, "dt must be non-negative");
    let relax = params.relax_shared();
    for range in ranges {
        let mut base = range.start;
        while base + LANE_CHUNK <= range.end {
            relax_chunk(params, relax, lanes, base);
            base += LANE_CHUNK;
        }
        for lane in base..range.end {
            relax_lane_of(params, relax, lanes, lane);
        }
    }
}

/// The zero-voltage lane update, bit-identical to
/// `step_lane(params, lanes, lane, 0.0, dt)`: refresh the temperature from
/// the imported crosstalk, zero the operating point, leave the state and
/// diagnostics lanes untouched. Two stores of the reference are skipped
/// because they cannot change a bit:
///
/// * the operating point is zeroed **lazily** — a stored point with
///   `v_cell != 0.0` can only have come from a biased solve (every zero-
///   voltage path stores `OperatingPoint::zero()`, whose `v_cell` is
///   `+0.0`), so skipping the 40-byte store when `v_cell == 0.0` leaves
///   bitwise-identical memory;
/// * the `charge += 0.0` accrual is dropped — the charge lane accumulates
///   only `|I|·dt ≥ +0.0` terms from a `+0.0` start, so it never holds
///   `-0.0` and adding `+0.0` is a bitwise no-op.
#[inline]
fn relax_lane(params: &DeviceParams, lanes: &mut CellBankView<'_>, lane: usize) {
    lanes.temperature[lane] = filament_temperature(params, 0.0, lanes.crosstalk[lane]);
    finish_relax(params, lanes, lane);
}

/// [`relax_lane`] under the shared relax set when there is one (see
/// [`LaneParams::relax_shared`]), under the lane's own set otherwise.
#[inline]
fn relax_lane_of(
    params: LaneParams<'_>,
    relax: Option<&DeviceParams>,
    lanes: &mut CellBankView<'_>,
    lane: usize,
) {
    match relax {
        Some(shared) => relax_lane(shared, lanes, lane),
        None => relax_lane(&params.of(lane), lanes, lane),
    }
}

#[inline]
fn finish_relax(params: &DeviceParams, lanes: &mut CellBankView<'_>, lane: usize) {
    if lanes.last_op[lane].v_cell != 0.0 {
        lanes.last_op[lane] = OperatingPoint::zero();
    }
    lanes.digital[lane] = digital_of(params, lanes.n_disc[lane]);
}

/// One all-idle [`LANE_CHUNK`]-wide block: with a shared relax set the
/// temperature update runs block-wide as
/// `T = min(ambient + max(ΔT, 0), max_temperature)`, which is bit-identical
/// to `filament_temperature(params, 0.0, ΔT)` (the zero self-heating term
/// adds an exact `+0.0`, and the lower clamp bound cannot bind because the
/// crosstalk term is non-negative); otherwise each lane relaxes under its
/// own parameter set.
#[inline]
fn relax_chunk(
    params: LaneParams<'_>,
    relax: Option<&DeviceParams>,
    lanes: &mut CellBankView<'_>,
    base: usize,
) {
    match relax {
        Some(shared) => {
            let crosstalk = &lanes.crosstalk[base..base + LANE_CHUNK];
            let temperature = &mut lanes.temperature[base..base + LANE_CHUNK];
            for (slot, &x) in temperature.iter_mut().zip(crosstalk) {
                *slot = (shared.ambient_temperature + x.max(0.0)).min(shared.max_temperature);
            }
            for lane in base..base + LANE_CHUNK {
                finish_relax(shared, lanes, lane);
            }
        }
        None => {
            for lane in base..base + LANE_CHUNK {
                relax_lane_of(params, None, lanes, lane);
            }
        }
    }
}

/// Upper bound on the scatter blocks of one threaded sub-step; sized so
/// the block table lives on the caller's stack (no per-sub-step heap
/// allocation) while still feeding four blocks to each of up to 64
/// workers.
const MAX_BLOCKS: usize = 256;

/// Advances every lane by `dt` like [`step_lanes`], split across `threads`
/// scoped worker threads: [`step_lane_ranges_threaded`] over the whole
/// bank.
///
/// # Panics
///
/// Panics if `voltages.len()` (or a per-lane table's length) does not match
/// the lane count, or if `dt` is negative or not finite.
pub fn step_lanes_threaded<'a>(
    params: impl Into<LaneParams<'a>>,
    voltages: &[f64],
    lanes: CellBankView<'_>,
    dt: Seconds,
    threads: usize,
) {
    let whole = 0..lanes.lanes();
    step_lane_ranges_threaded(params, voltages, lanes, &[whole], dt, threads);
}

/// Advances the lanes in `ranges` by `dt` like [`step_lane_ranges`], with
/// the work split across `threads` scoped worker threads.
///
/// Lanes are independent within a sub-step (the crosstalk lane is read-only
/// here), so the split is embarrassingly parallel: the view is cut via
/// [`CellBankView::split_at`] into blocks holding about equal numbers of
/// range lanes, and workers pull blocks from a shared queue, which keeps
/// the load balanced even though the few actively switching lanes (the
/// selected row and column) cost orders of magnitude more than the idle
/// majority. Each block steps its share of the ranges with a scan and
/// lockstep groups of its own. Every lane takes exactly the operations of
/// [`step_lane`], so the result is **bit-identical** for any thread count —
/// a proptest pins threads 1–8 against the single-threaded path.
///
/// `threads <= 1` (or too few range lanes to split) falls through to the
/// single-threaded [`step_lane_ranges`] without spawning.
///
/// # Panics
///
/// Panics if `voltages.len()` (or a per-lane table's length) does not match
/// the lane count, if the ranges are not disjoint, ascending and in bounds,
/// or if `dt` is negative or not finite.
pub fn step_lane_ranges_threaded<'a>(
    params: impl Into<LaneParams<'a>>,
    voltages: &[f64],
    lanes: CellBankView<'_>,
    ranges: &[Range<usize>],
    dt: Seconds,
    threads: usize,
) {
    let params = check_call(params.into(), voltages, &lanes, ranges, dt);
    let active: usize = ranges.iter().map(ExactSizeIterator::len).sum();
    let workers = threads.max(1).min(active).min(MAX_BLOCKS / 4);
    let mut lanes = lanes;
    if workers <= 1 {
        step_ranges(params, voltages, &mut lanes, ranges.iter().cloned(), dt);
        return;
    }

    // Blocks of `per_block` range lanes each, four per worker, pulled from
    // a shared queue so a worker that lands on the expensive switching
    // lanes does not serialise the idle majority. A block is cut only while
    // range lanes remain, so there are at most `ceil(active / per_block)
    // ≤ target_blocks ≤ MAX_BLOCKS` of them and the block table is a stack
    // array: the threaded dispatch allocates nothing per sub-step.
    let target_blocks = workers * 4;
    let per_block = active.div_ceil(target_blocks);
    let mut blocks: [Option<(usize, CellBankView<'_>)>; MAX_BLOCKS] = std::array::from_fn(|_| None);
    let mut count = 0;
    let (mut base, mut filled, mut left) = (0, 0, active);
    let mut rest = lanes;
    for range in ranges {
        let mut start = range.start;
        while start < range.end {
            let take = (per_block - filled).min(range.end - start);
            start += take;
            filled += take;
            left -= take;
            if filled == per_block && left > 0 {
                let (head, tail) = rest.split_at(start - base);
                blocks[count] = Some((base, head));
                count += 1;
                base = start;
                rest = tail;
                filled = 0;
            }
        }
    }
    blocks[count] = Some((base, rest));
    count += 1;

    let queue = std::sync::Mutex::new(blocks.iter_mut().take(count));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let slot = queue.lock().expect("block queue poisoned").next();
                let Some(slot) = slot else {
                    break;
                };
                let Some((start, mut view)) = slot.take() else {
                    break;
                };
                let end = start + view.lanes();
                // The block's share of the ranges, clipped and made local.
                let first = ranges.partition_point(|range| range.end <= start);
                let local = ranges[first..]
                    .iter()
                    .take_while(|range| range.start < end)
                    .map(|range| range.start.max(start) - start..range.end.min(end) - start);
                step_ranges(
                    params.narrow(start, end - start),
                    &voltages[start..end],
                    &mut view,
                    local,
                    dt,
                );
            });
        }
    });
}

/// Advances a single lane by `dt` under a constant cell voltage, returning
/// the operating point at the *beginning* of the interval.
///
/// The state is integrated with adaptive sub-stepping so the concentration
/// never changes by more than `max_dn_per_step` per sub-step (midpoint/RK2
/// on the stiff drift ODE); see [`crate::JartDevice::step`] for the
/// user-facing contract. This is the uncached scalar reference: it solves
/// every operating point afresh. [`step_lane_ranges`] runs the same
/// operations on each lane, in the same order, behind its caches and in
/// lockstep groups.
///
/// # Panics
///
/// Panics if `lane` is out of range or `dt` is negative or not finite.
pub fn step_lane(
    params: &DeviceParams,
    lanes: &mut CellBankView<'_>,
    lane: usize,
    v_cell: f64,
    dt: Seconds,
) -> OperatingPoint {
    assert!(dt.0.is_finite() && dt.0 >= 0.0, "dt must be non-negative");
    let mut remaining = dt.0;
    let mut first_op = None;
    let delta_t = lanes.crosstalk[lane];

    if v_cell != 0.0 {
        lanes.stress_time[lane] += dt.0;
    }

    // Operating point + filament temperature at a given concentration.
    let eval_op = |n: f64| -> (OperatingPoint, f64) {
        let op = solve_operating_point(params, v_cell, n);
        (op, filament_temperature(params, op.power_active, delta_t))
    };

    // Even for dt == 0 the operating point is refreshed so callers can
    // observe the instantaneous temperature under the new bias.
    loop {
        let n = lanes.n_disc[lane];
        let (op, temperature) = eval_op(n);
        let rate = concentration_rate(params, op.v_active, temperature, n);
        lanes.temperature[lane] = temperature;
        lanes.last_op[lane] = op;
        if first_op.is_none() {
            first_op = Some(op);
        }
        if remaining <= 0.0 {
            break;
        }
        if rate == 0.0 {
            // Nothing will change for the rest of the interval; the full
            // remaining conduction still counts towards the charge lane.
            lanes.charge[lane] += op.current.abs() * remaining;
            break;
        }

        let (sub_dt, n_mid) = substep(params, n, rate, remaining);
        lanes.charge[lane] += op.current.abs() * sub_dt;
        let (op_mid, t_mid) = eval_op(n_mid);
        let rate_mid = concentration_rate(params, op_mid.v_active, t_mid, n_mid);
        lanes.n_disc[lane] = substep_end(params, n, rate, rate_mid, sub_dt);
        remaining -= sub_dt;
        if remaining <= 0.0 {
            // Refresh the final operating point for observers (the drift
            // rate at the final point is dead and not evaluated).
            let (op, temperature) = eval_op(lanes.n_disc[lane]);
            lanes.last_op[lane] = op;
            lanes.temperature[lane] = temperature;
            break;
        }
    }

    lanes.digital[lane] = digital_of(params, lanes.n_disc[lane]);
    first_op.unwrap_or_else(OperatingPoint::zero)
}

/// The adaptive sub-step from concentration `n` at drift rate `rate`, with
/// `remaining` seconds left: its length and its midpoint concentration
/// (midpoint/RK2). The step caps the state change both absolutely and
/// relative to the distance from the HRS bound, because the runaway phase
/// grows exponentially with that distance.
#[inline]
fn substep(params: &DeviceParams, n: f64, rate: f64, remaining: f64) -> (f64, f64) {
    let allowed_dn = params.max_dn_per_step.min(0.02 * (n - params.n_min) + 1e-3);
    let max_dt = allowed_dn / rate.abs();
    let sub_dt = remaining.min(max_dt);
    let n_mid = (n + 0.5 * rate * sub_dt).clamp(params.n_min, params.n_max);
    (sub_dt, n_mid)
}

/// The concentration at the end of a sub-step of length `sub_dt` from `n`:
/// it moves at the midpoint rate, or at the start rate where the midpoint
/// rate vanishes.
#[inline]
fn substep_end(params: &DeviceParams, n: f64, rate: f64, rate_mid: f64, sub_dt: f64) -> f64 {
    let effective_rate = if rate_mid == 0.0 { rate } else { rate_mid };
    (n + effective_rate * sub_dt).clamp(params.n_min, params.n_max)
}

/// Most replays a [`BiasedLanes`] scan holds back while their source's
/// group is open.
const PENDING: usize = LOCKSTEP;

/// Where the slots of a [`Group`] find their parameter sets. The sets live
/// outside the slots, so opening a group or joining a lane copies no
/// parameter set.
trait SlotParams {
    /// Whether every lane shares one set, so that lanes with equal keys
    /// replay (see [`BiasedLanes`]).
    const SHARED: bool;
    /// Makes slot `k`'s set the one of lane `lane`.
    fn load(&mut self, k: usize, lane: usize);
    /// The set of slot `k`.
    fn get(&self, k: usize) -> &DeviceParams;
}

/// One set shared by every slot.
struct SharedSet<'a>(&'a DeviceParams);

impl SlotParams for SharedSet<'_> {
    const SHARED: bool = true;

    #[inline]
    fn load(&mut self, _: usize, _: usize) {}

    #[inline]
    fn get(&self, _: usize) -> &DeviceParams {
        self.0
    }
}

/// One set per slot, from a column table: each starts as a copy of the
/// nominal set, made once per call, and loading a lane writes only the
/// table's column values over it. A set holds the nominal value of every
/// other field, so it equals the table's lane bit for bit.
struct ColumnSets<'a> {
    table: &'a ParamColumns,
    /// Table lane of the call's first lane.
    base: usize,
    sets: [DeviceParams; LOCKSTEP],
}

impl SlotParams for ColumnSets<'_> {
    const SHARED: bool = false;

    #[inline]
    fn load(&mut self, k: usize, lane: usize) {
        self.table.write_lane(self.base + lane, &mut self.sets[k]);
    }

    #[inline]
    fn get(&self, k: usize) -> &DeviceParams {
        &self.sets[k]
    }
}

/// The biased lanes of one [`step_lane_ranges`] call, or of one block of
/// [`step_lane_ranges_threaded`], taken in lane order.
///
/// **The scan.** With shared `DeviceParams` and one `dt` per call, a
/// lane's whole step is a pure function of its key
/// `(v_cell, crosstalk ΔT, n, charge)`, the only per-lane state the
/// integrator reads. The operating-point cache is left out of the key on
/// purpose: its entry always equals the solve at its key bits, so it
/// changes which solves run, never their results. A biased lane whose key
/// equals the last stepped lane's (its *source*) is therefore a *replay*:
/// once the source's group has been stepped, it copies the source's
/// outcome instead of integrating. Line-bias schemes stamp long runs of
/// identical voltages onto lanes with identical histories, so on a quiet
/// array most of a selected line replays. `charge` sits in the key instead
/// of being replayed as a delta, because its accrual is a chain of `+=`
/// roundings on the lane's own running value. Under a column table every
/// lane has parameters of its own, so no lane replays.
///
/// **The groups.** Every other biased lane joins the open [`Group`], and
/// `sets` loads its parameter set into the slot's place. The group is
/// stepped when it holds [`LOCKSTEP`] lanes, when [`PENDING`] replays wait
/// for it, and at the end of the call; the replays that waited are copied
/// right after. The scan is built in place in [`scan_ranges`]'s frame and
/// holds only plain scalars besides the sets, so setting it up is one
/// block fill.
struct BiasedLanes<S> {
    sets: S,
    dt: f64,
    group: Group,
    /// The last lane that joined a group, with its key. It is in the open
    /// group exactly when the group is not empty.
    source: Option<(usize, [u64; 4])>,
    /// Replays `(lane, source)` waiting for the open group.
    pending: [(usize, usize); PENDING],
    pending_len: usize,
    /// Biased lanes looked up in the scan, and how many of them replayed:
    /// local tallies, flushed once per call (see [`flush_echo_telemetry`]).
    lookups: u64,
    hits: u64,
}

impl<S: SlotParams> BiasedLanes<S> {
    /// Relaxes a zero-voltage lane in place (at `v = 0` the reference step
    /// solves nothing, accrues no stress time and adds a `+0.0` charge
    /// term); scans a biased one.
    #[inline]
    fn step_or_relax(
        &mut self,
        params: LaneParams<'_>,
        relax: Option<&DeviceParams>,
        lanes: &mut CellBankView<'_>,
        lane: usize,
        v_cell: f64,
    ) {
        if v_cell == 0.0 {
            relax_lane_of(params, relax, lanes, lane);
        } else {
            self.scan(lanes, lane, v_cell);
        }
    }

    /// Replays a biased lane from its source, or adds it to the open group.
    fn scan(&mut self, lanes: &mut CellBankView<'_>, lane: usize, v_cell: f64) {
        if S::SHARED {
            let key = [
                v_cell.to_bits(),
                lanes.crosstalk[lane].to_bits(),
                lanes.n_disc[lane].to_bits(),
                lanes.charge[lane].to_bits(),
            ];
            self.lookups += 1;
            match self.source {
                Some((source, source_key)) if source_key == key => {
                    self.hits += 1;
                    if self.group.len == 0 {
                        replay(lanes, lane, source, self.dt);
                    } else {
                        self.pending[self.pending_len] = (lane, source);
                        self.pending_len += 1;
                        if self.pending_len == PENDING {
                            self.flush(lanes);
                        }
                    }
                    return;
                }
                _ => self.source = Some((lane, key)),
            }
        }
        self.sets.load(self.group.len, lane);
        self.group.join(lane, v_cell);
        if self.group.len == LOCKSTEP {
            self.flush(lanes);
        }
    }

    /// Steps the open group, then copies the replays that waited for it.
    fn flush(&mut self, lanes: &mut CellBankView<'_>) {
        self.group.step(&self.sets, lanes, self.dt);
        for &(lane, source) in &self.pending[..self.pending_len] {
            replay(lanes, lane, source, self.dt);
        }
        self.pending_len = 0;
    }

    /// Steps what is left and adds the call's tallies to the telemetry.
    fn finish(&mut self, lanes: &mut CellBankView<'_>) {
        self.flush(lanes);
        flush_echo_telemetry(self.lookups, self.hits);
    }
}

/// Copies the outcome of the stepped lane `source` onto the biased lane
/// `lane`, whose key equals the source's (see [`BiasedLanes`]). Only the
/// stress time, which the integrator never reads, accrues on the lane's
/// own value.
#[inline]
fn replay(lanes: &mut CellBankView<'_>, lane: usize, source: usize, dt: f64) {
    lanes.stress_time[lane] += dt;
    lanes.n_disc[lane] = lanes.n_disc[source];
    lanes.temperature[lane] = lanes.temperature[source];
    lanes.charge[lane] = lanes.charge[source];
    lanes.last_op[lane] = lanes.last_op[source];
    lanes.digital[lane] = lanes.digital[source];
    lanes.op_cache_v_bits[lane] = lanes.op_cache_v_bits[source];
    lanes.op_cache_n_bits[lane] = lanes.op_cache_n_bits[source];
    lanes.op_cache_op[lane] = lanes.op_cache_op[source];
}

/// Where a lane of a [`Group`] stands in the adaptive RK2 loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Next: the operating point at `n`, then a sub-step from it.
    Start,
    /// Next: the operating point at the sub-step's midpoint, then its end.
    Mid,
    /// Next: the operating point at the final `n`, for observers.
    Refresh,
    /// Finished.
    Done,
}

/// Up to [`LOCKSTEP`] biased lanes of one call, advanced through the loop
/// of [`step_lane`] together, phase by phase: the operating point at `n`;
/// the temperature, rate and sub-step; the operating point at the
/// midpoint; the midpoint rate and the new `n`. Lanes with time left go
/// round again, finished lanes take the refresh.
///
/// Each lane runs exactly the operations of [`step_lane`], in the same
/// order, on its own values; only the interleaving of independent lanes
/// changes, so a stepped lane is bit-identical to the reference. Each
/// phase's operating points come from the lanes' one-entry caches or from
/// one solve over the phase's misses: [`solve_operating_points`] in
/// lockstep, sized to the misses, or its one-cell case when a single lane
/// misses. The cache is exact because `(v_cell, n)` pins the Newton solve
/// completely (temperature does not enter it), and it hits because the
/// refresh solve that ends one call is the first solve of the lane's next
/// call.
///
/// The slots are plain scalars and the parameter sets live in the scan's
/// [`SlotParams`] (slot `k` uses set `k`), so the group opens with one
/// block fill and a lane joins with a few stores.
struct Group {
    /// The joined lanes are `slots[..len]`.
    len: usize,
    slots: [Slot; LOCKSTEP],
}

/// One lane of a [`Group`] and its place in the loop.
#[derive(Debug, Clone, Copy)]
struct Slot {
    lane: usize,
    v_cell: f64,
    stage: Stage,
    /// The concentration the next operating point is wanted at, and that
    /// operating point once found.
    at: f64,
    op: OperatingPoint,
    /// Time left of the call's `dt`.
    remaining: f64,
    /// The current sub-step: its start concentration, the drift rate there
    /// and its length.
    n: f64,
    rate: f64,
    sub_dt: f64,
}

impl Slot {
    /// An unused slot, all zero bytes, so that opening a group is one
    /// zero fill.
    const EMPTY: Slot = Slot {
        lane: 0,
        v_cell: 0.0,
        stage: Stage::Start,
        at: 0.0,
        op: OperatingPoint {
            v_cell: 0.0,
            current: 0.0,
            v_active: 0.0,
            power_active: 0.0,
            resistance: 0.0,
        },
        remaining: 0.0,
        n: 0.0,
        rate: 0.0,
        sub_dt: 0.0,
    };
}

impl Group {
    /// Adds a biased lane; the caller has loaded its parameter set into
    /// slot `len` and steps the group before it overflows.
    #[inline]
    fn join(&mut self, lane: usize, v_cell: f64) {
        let slot = &mut self.slots[self.len];
        slot.lane = lane;
        slot.v_cell = v_cell;
        self.len += 1;
    }

    /// Advances every lane of the group by `dt`, and empties the group.
    fn step<S: SlotParams>(&mut self, sets: &S, lanes: &mut CellBankView<'_>, dt: f64) {
        let slots = &mut self.slots[..self.len];
        for slot in slots.iter_mut() {
            lanes.stress_time[slot.lane] += dt;
            slot.remaining = dt;
            slot.stage = Stage::Start;
        }
        loop {
            // The operating point at `n`: a sub-step's start, or the
            // refresh of a lane whose time is up. Even for dt == 0 it is
            // refreshed, so callers can observe the instantaneous
            // temperature under the new bias.
            for slot in slots.iter_mut().filter(|slot| slot.stage != Stage::Done) {
                slot.at = lanes.n_disc[slot.lane];
            }
            operating_points(slots, sets, lanes);
            let mut open = false;
            for (k, slot) in slots.iter_mut().enumerate() {
                if slot.stage != Stage::Done {
                    open |= slot.begin_substep(sets.get(k), lanes);
                }
            }
            if !open {
                break;
            }
            operating_points(slots, sets, lanes);
            for (k, slot) in slots.iter_mut().enumerate() {
                if slot.stage != Stage::Done {
                    slot.end_substep(sets.get(k), lanes);
                }
            }
        }
        for (k, slot) in slots.iter().enumerate() {
            lanes.digital[slot.lane] = digital_of(sets.get(k), lanes.n_disc[slot.lane]);
        }
        self.len = 0;
    }
}

impl Slot {
    /// After the operating point at `n`: stores the temperature and the
    /// point, then either ends the lane (a refresh, no time left, or a
    /// vanishing rate) or plans a sub-step and asks for its midpoint.
    /// Returns whether the lane goes on.
    fn begin_substep(&mut self, params: &DeviceParams, lanes: &mut CellBankView<'_>) -> bool {
        let (lane, op, n) = (self.lane, self.op, self.at);
        let temperature = filament_temperature(params, op.power_active, lanes.crosstalk[lane]);
        lanes.temperature[lane] = temperature;
        lanes.last_op[lane] = op;
        let refresh = self.stage == Stage::Refresh;
        self.stage = Stage::Done;
        if refresh || self.remaining <= 0.0 {
            return false;
        }
        let rate = concentration_rate(params, op.v_active, temperature, n);
        if rate == 0.0 {
            // Nothing will change for the rest of the interval; the full
            // remaining conduction still counts towards the charge lane.
            lanes.charge[lane] += op.current.abs() * self.remaining;
            return false;
        }
        let (sub_dt, n_mid) = substep(params, n, rate, self.remaining);
        lanes.charge[lane] += op.current.abs() * sub_dt;
        (self.n, self.rate, self.sub_dt, self.at) = (n, rate, sub_dt, n_mid);
        self.stage = Stage::Mid;
        true
    }

    /// Takes a freshly solved operating point and caches it under the key
    /// `(v_cell, at)`.
    #[inline]
    fn cache(&mut self, lanes: &mut CellBankView<'_>, op: OperatingPoint) {
        self.op = op;
        lanes.op_cache_v_bits[self.lane] = self.v_cell.to_bits();
        lanes.op_cache_n_bits[self.lane] = self.at.to_bits();
        lanes.op_cache_op[self.lane] = op;
    }

    /// After the operating point at the midpoint: the sub-step's new `n`;
    /// the lane goes round again, or takes the refresh once its time is up.
    fn end_substep(&mut self, params: &DeviceParams, lanes: &mut CellBankView<'_>) {
        let (lane, op, n_mid) = (self.lane, self.op, self.at);
        let t_mid = filament_temperature(params, op.power_active, lanes.crosstalk[lane]);
        let rate_mid = concentration_rate(params, op.v_active, t_mid, n_mid);
        lanes.n_disc[lane] = substep_end(params, self.n, self.rate, rate_mid, self.sub_dt);
        self.remaining -= self.sub_dt;
        self.stage = if self.remaining <= 0.0 {
            Stage::Refresh
        } else {
            Stage::Start
        };
    }
}

/// The operating point of every slot not yet done, at its `at`
/// concentration: read from the lane's one-entry cache when the key
/// matches, otherwise solved with the phase's other misses in one lockstep
/// call, and cached.
fn operating_points<S: SlotParams>(slots: &mut [Slot], sets: &S, lanes: &mut CellBankView<'_>) {
    let mut misses = [0; LOCKSTEP];
    let mut count = 0;
    for (k, slot) in slots.iter_mut().enumerate() {
        if slot.stage == Stage::Done {
            continue;
        }
        let lane = slot.lane;
        if lanes.op_cache_v_bits[lane] == slot.v_cell.to_bits()
            && lanes.op_cache_n_bits[lane] == slot.at.to_bits()
        {
            slot.op = lanes.op_cache_op[lane];
        } else {
            misses[count] = k;
            count += 1;
        }
    }
    let misses = &misses[..count];
    // The lockstep state is sized to the misses: a phase where two lanes
    // miss sets up two Newton states, not sixteen.
    match misses.len() {
        0 => {}
        // A lane that outlasts the rest of its group (a switching cell takes
        // many short sub-steps) misses alone: the one-cell solve sets up no
        // lockstep state.
        1 => {
            let (k, slot) = (misses[0], &mut slots[misses[0]]);
            let op = solve_operating_point(sets.get(k), slot.v_cell, slot.at);
            slot.cache(lanes, op);
        }
        2 => solve_misses::<2, S>(slots, misses, sets, lanes),
        3..=4 => solve_misses::<4, S>(slots, misses, sets, lanes),
        5..=8 => solve_misses::<8, S>(slots, misses, sets, lanes),
        _ => solve_misses::<LOCKSTEP, S>(slots, misses, sets, lanes),
    }
}

/// Solves the operating points of the slots `misses` (at most `N`) in one
/// lockstep call, and caches them.
#[inline]
fn solve_misses<const N: usize, S: SlotParams>(
    slots: &mut [Slot],
    misses: &[usize],
    sets: &S,
    lanes: &mut CellBankView<'_>,
) {
    let count = misses.len();
    let mut params = [sets.get(misses[0]); N];
    let (mut v_cell, mut n) = ([0.0; N], [0.0; N]);
    for (m, &k) in misses.iter().enumerate() {
        (params[m], v_cell[m], n[m]) = (sets.get(k), slots[k].v_cell, slots[k].at);
    }
    let mut solved = [OperatingPoint::zero(); N];
    solve_operating_points::<N>(
        &params[..count],
        &v_cell[..count],
        &n[..count],
        &mut solved[..count],
    );
    for (&k, &op) in misses.iter().zip(&solved) {
        slots[k].cache(lanes, op);
    }
}

/// Shared handles to the echo telemetry counters (the registry mutex is
/// touched once, on the first kernel call of the process).
fn echo_telemetry() -> &'static (
    std::sync::Arc<rram_telemetry::Counter>,
    std::sync::Arc<rram_telemetry::Counter>,
) {
    static HANDLES: std::sync::OnceLock<(
        std::sync::Arc<rram_telemetry::Counter>,
        std::sync::Arc<rram_telemetry::Counter>,
    )> = std::sync::OnceLock::new();
    HANDLES.get_or_init(|| {
        let registry = rram_telemetry::Registry::global();
        (
            registry.counter(
                "kernel_echo_hits_total",
                "Biased lane steps replayed from the cross-lane echo cache",
            ),
            registry.counter(
                "kernel_echo_lookups_total",
                "Biased lane steps routed through the cross-lane echo cache",
            ),
        )
    })
}

/// Adds one kernel call's scan tallies to the process-wide counters: two
/// relaxed atomic adds per call, nothing per lane.
fn flush_echo_telemetry(lookups: u64, hits: u64) {
    if lookups == 0 {
        return;
    }
    let (hit_counter, lookup_counter) = echo_telemetry();
    hit_counter.add(hits);
    lookup_counter.add(lookups);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rram_units::SiExt;

    fn params() -> DeviceParams {
        DeviceParams::default()
    }

    #[test]
    fn new_bank_is_all_hrs_at_ambient() {
        let p = params();
        let bank = CellBank::new(4, &p);
        assert_eq!(bank.lanes(), 4);
        assert!(bank.concentrations().iter().all(|&n| n == p.n_min));
        assert!(bank
            .temperatures()
            .iter()
            .all(|&t| t == p.ambient_temperature));
        assert!(bank.digital().iter().all(|&s| s == DigitalState::Hrs));
        assert!(bank.charges().iter().all(|&q| q == 0.0));
    }

    #[test]
    fn lanes_integrate_independently() {
        let p = params();
        let mut bank = CellBank::new(3, &p);
        let voltages = [1.05, 0.525, 0.0];
        step_lanes(&p, &voltages, &mut bank.view_mut(), Seconds(5e-6));
        // Full SET switches, half-select barely moves, idle stays put.
        assert_eq!(bank.digital()[0], DigitalState::Lrs);
        assert_eq!(bank.digital()[1], DigitalState::Hrs);
        assert_eq!(bank.concentrations()[2], p.n_min);
        assert!(bank.concentrations()[0] > bank.concentrations()[1]);
        // Only the biased lanes accumulated stress time and charge.
        assert!(bank.stress_times()[0] > 0.0 && bank.stress_times()[1] > 0.0);
        assert_eq!(bank.stress_times()[2], 0.0);
        assert!(bank.charges()[0] > bank.charges()[1]);
        assert_eq!(bank.charges()[2], 0.0);
    }

    #[test]
    fn crosstalk_lane_accelerates_kinetics() {
        let p = params();
        let mut bank = CellBank::new(2, &p);
        bank.set_crosstalk(1, 60.0);
        let voltages = [0.525, 0.525];
        step_lanes(&p, &voltages, &mut bank.view_mut(), Seconds(100e-6));
        let rise = |lane: usize| bank.concentrations()[lane] - p.n_min;
        assert!(
            rise(1) > 10.0 * rise(0).max(1e-12),
            "hot {} vs cold {}",
            rise(1),
            rise(0)
        );
    }

    #[test]
    fn import_crosstalk_clamps_negatives() {
        let p = params();
        let mut bank = CellBank::new(2, &p);
        bank.import_crosstalk(&[-5.0, 25.0]);
        assert_eq!(bank.crosstalk(), &[0.0, 25.0]);
        bank.set_crosstalk(0, -1.0);
        assert_eq!(bank.crosstalk()[0], 0.0);
    }

    #[test]
    fn force_state_resets_observables() {
        let p = params();
        let mut bank = CellBank::new(1, &p);
        step_lanes(&p, &[1.05], &mut bank.view_mut(), Seconds(1e-6));
        bank.force_state(0, DigitalState::Lrs, &p);
        assert_eq!(bank.concentrations()[0], p.n_max);
        assert_eq!(bank.temperatures()[0], p.ambient_temperature);
        assert_eq!(bank.operating_point(0), OperatingPoint::zero());
        assert_eq!(bank.digital()[0], DigitalState::Lrs);
    }

    #[test]
    fn force_concentration_updates_the_digital_lane() {
        let p = params();
        let mut bank = CellBank::new(1, &p);
        bank.force_concentration(0, p.n_max * 2.0, &p);
        assert_eq!(bank.concentrations()[0], p.n_max);
        assert_eq!(bank.digital()[0], DigitalState::Lrs);
        bank.force_concentration(0, -1.0, &p);
        assert_eq!(bank.digital()[0], DigitalState::Hrs);
    }

    #[test]
    fn zero_dt_refreshes_the_operating_point() {
        let p = params();
        let mut bank = CellBank::new(1, &p);
        bank.force_state(0, DigitalState::Lrs, &p);
        step_lanes(&p, &[1.05], &mut bank.view_mut(), 0.0.ns());
        assert!(bank.temperatures()[0] > 500.0);
        assert!(bank.operating_point(0).current > 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_voltage_length_panics() {
        let p = params();
        let mut bank = CellBank::new(2, &p);
        step_lanes(&p, &[0.5], &mut bank.view_mut(), Seconds(1e-9));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_dt_panics() {
        let p = params();
        let mut bank = CellBank::new(1, &p);
        step_lanes(&p, &[0.5], &mut bank.view_mut(), Seconds(-1.0));
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn empty_bank_panics() {
        let _ = CellBank::new(0, &params());
    }
}
