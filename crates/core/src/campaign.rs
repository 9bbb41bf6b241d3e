//! Declarative, parallel hammering campaigns.
//!
//! A [`CampaignSpec`] describes a *grid* of NeuroHammer attacks — the
//! cartesian product of array sizes × attack patterns × hammer amplitudes ×
//! pulse lengths × electrode spacings × ambient temperatures × write
//! schemes × guard specifications × spread scales × simulation backends —
//! as plain data that can be stored next to the figures it reproduces (see
//! [`CampaignSpec::to_json`]).
//!
//! Two of those axes make *defence* a first-class campaign dimension:
//! [`CampaignSpec::guards`] sweeps countermeasure operating points
//! ([`rram_defense::GuardSpec`]) against every attack of the grid, and
//! [`CampaignSpec::spread_scales`] sweeps the magnitude of the Monte Carlo
//! device spreads (the σ axis) inside one campaign, so guard thresholds can
//! be tuned against the *distribution* of flip probabilities. Defence
//! aggregation and the protection/overhead Pareto front live in
//! [`defense`].
//!
//! Execution is the job of the streaming [`CampaignExecutor`]: it validates
//! the grid once, partitions the deterministic point list by an explicit
//! [`Shard`], resolves the thermal-coupling coefficients once per unique
//! geometry, executes the shard's points on worker threads and emits a
//! [`CampaignEvent`] per completed point *while the campaign is still
//! running* — so long grids render progressively, checkpoint to disk
//! ([`checkpoint`]) and resume after interruption. [`CampaignSpec::run`] is
//! a thin compatibility wrapper that executes the full grid with no event
//! sink and returns the final [`CampaignReport`], which renders directly
//! into `rram-analysis` tables and CSV, or into the
//! [`crate::sweep::SweepSeries`] the figure binaries plot.
//!
//! Every grid point carries a stable [`PointKey`], so reports produced by
//! different shards (or recovered from checkpoint files) merge back into the
//! exact unsharded report with [`CampaignReport::merge`].
//!
//! Because every point names its [`BackendKind`], cross-engine agreement
//! checks are one-liners: put both backends in the grid and ask the report
//! for [`CampaignReport::max_backend_drift_ratio`].
//!
//! # Examples
//!
//! A four-point pulse-length sweep on the fast engine:
//!
//! ```
//! use neurohammer::campaign::CampaignSpec;
//!
//! let spec = CampaignSpec {
//!     name: "pulse-length demo".into(),
//!     pulse_lengths_ns: vec![50.0, 100.0],
//!     amplitudes_v: vec![1.05, 1.15],
//!     max_pulses: 200_000,
//!     ..CampaignSpec::default()
//! };
//! assert_eq!(spec.num_points(), 4);
//! let report = spec.run().unwrap();
//! assert_eq!(report.outcomes.len(), 4);
//! println!("{}", report.to_table());
//!
//! // Round-trip through the JSON form used for figure reproduction.
//! let restored = CampaignSpec::from_json(&spec.to_json()).unwrap();
//! assert_eq!(restored, spec);
//! ```

mod axes;
pub mod checkpoint;
pub mod defense;
pub mod executor;
pub mod json;
pub mod stats;

use axes::require;
pub use axes::CampaignAxis;
pub use checkpoint::{read_checkpoint, CheckpointWriter};
pub use defense::{DefenseGroup, DefenseParetoPoint};
pub use executor::{CampaignEvent, CampaignExecutor, Shard};
pub use stats::VariabilityGroup;

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

use crate::attack::AttackConfig;
use crate::pattern::AttackPattern;
use crate::sweep::{SweepPoint, SweepSeries};
use json::{parse, Json, JsonError, ToJson};
use rram_crossbar::{
    BackendKind, CellAddress, CrosstalkHub, EngineConfig, HammerBackend, WriteScheme,
};
use rram_defense::{BenignWorkload, DefenseOutcome, GuardSpec};
use rram_fem::alpha::{extract_alpha_cached, extract_alpha_disk_cached, AlphaConfig};
use rram_fem::{AlphaError, AlphaMatrix, CrossbarGeometry};
use rram_jart::current::solve_operating_point;
use rram_jart::{DeviceParams, ParamColumns};
use rram_units::{Kelvin, Seconds, Volts, Watts};
use rram_variability::{try_sample_columns, Distribution, ParamSpread};

/// Where a campaign's thermal-coupling coefficients come from.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CouplingSpec {
    /// Synthetic two-ring profile with the given nearest-neighbour α
    /// (fast, no field solve).
    Uniform {
        /// α of the in-line nearest neighbours.
        nearest: f64,
    },
    /// Run the `rram-fem` finite-volume extraction once per unique
    /// (array size, spacing) combination, with the given voxel size in nm.
    Fem {
        /// Voxel edge length of the thermal solve, nm.
        voxel_nm: f64,
    },
}

/// A declarative grid of hammering attacks.
///
/// Every `Vec` field is one axis of the grid; the campaign runs the full
/// cartesian product. Attacks target the in-line neighbour of the array
/// centre (the paper's main experiment) with a 50 % duty cycle and default
/// device parameters.
///
/// # Examples
///
/// A grid comparing both simulation backends on a short burst:
///
/// ```
/// use neurohammer::campaign::CampaignSpec;
/// use rram_crossbar::BackendKind;
///
/// let spec = CampaignSpec {
///     name: "backend check".into(),
///     array_sizes: vec![(3, 3)],
///     backends: vec![BackendKind::Pulse, BackendKind::detailed()],
///     max_pulses: 10,
///     batching: false,
///     ..CampaignSpec::default()
/// };
/// let report = spec.run().unwrap();
/// assert!(report.max_backend_drift_ratio().unwrap() < 4.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Campaign name, used as the report title.
    pub name: String,
    /// Array sizes as (rows, cols); both must be ≥ 2.
    pub array_sizes: Vec<(usize, usize)>,
    /// Aggressor placement patterns.
    pub patterns: Vec<AttackPattern>,
    /// Hammer amplitudes, V.
    pub amplitudes_v: Vec<f64>,
    /// Hammer pulse lengths, ns.
    pub pulse_lengths_ns: Vec<f64>,
    /// Hammer duty cycles in `(0, 1]`: the inter-pulse gap equals
    /// `length · (1 − d) / d`, so `0.5` is the paper's symmetric
    /// pulse/gap train and `1.0` is back-to-back hammering with no gap.
    pub duty_cycles: Vec<f64>,
    /// Electrode spacings, nm (only meaningful with [`CouplingSpec::Fem`];
    /// the uniform coupling ignores it but keeps the axis for labelling).
    pub spacings_nm: Vec<f64>,
    /// Ambient temperatures, K.
    pub ambients_k: Vec<f64>,
    /// Write/bias schemes to hammer under (the paper's main experiment uses
    /// V/2; sweeping V/3 quantifies the scheme's disturb margin).
    pub schemes: Vec<WriteScheme>,
    /// Guard specifications to defend each attack with
    /// ([`GuardSpec::None`] is the undefended baseline). Guarded points run
    /// pulse by pulse (the guard observes every write) and additionally
    /// replay a benign workload for false-positive accounting — see
    /// [`crate::countermeasures::run_guarded_attack`]. The points that
    /// differ only in their guard run on one shared trajectory that forks
    /// where a guard first acts
    /// ([`crate::countermeasures::run_guard_family`]).
    pub guards: Vec<GuardSpec>,
    /// Scale factors applied to every spread's width — the σ grid axis.
    /// `vec![1.0]` runs the spreads as declared; `vec![0.0, 0.5, 1.0]`
    /// sweeps three magnitudes of the same spread shape in one campaign
    /// (`0.0` is the deterministic nominal device). See
    /// [`rram_variability::ParamSpread::scaled`].
    pub spread_scales: Vec<f64>,
    /// Simulation backends to run each point on.
    pub backends: Vec<BackendKind>,
    /// Thermal-coupling source.
    pub coupling: CouplingSpec,
    /// Device-parameter spreads (device-to-device variability). When
    /// non-empty, every grid point samples a fresh per-cell parameter
    /// table, deterministically from [`CampaignSpec::seed`] and the
    /// point's key — see [`rram_variability`].
    pub spreads: Vec<ParamSpread>,
    /// Monte Carlo trials per grid point (an extra grid axis: each trial
    /// re-samples the spreads under a different derived seed). `1` for
    /// deterministic single-device campaigns.
    pub trials: u32,
    /// Master seed of the Monte Carlo sampling. The same seed and spec
    /// produce bit-identical reports across shard counts, thread schedules
    /// and checkpoint resume.
    pub seed: u64,
    /// Writes of the benign workload replayed against every guarded point
    /// for false-positive/overhead accounting (unused on unguarded points).
    pub benign_writes: u64,
    /// Crosstalk time constant, ns.
    pub tau_ns: f64,
    /// Pulse budget per point before giving up.
    pub max_pulses: u64,
    /// Whether the attack engine may batch pulses.
    pub batching: bool,
    /// Worker threads executing grid points.
    pub threads: usize,
    /// Worker threads *inside* each ideal-driver sub-step (the
    /// [`rram_crossbar::EngineConfig`] `threads` knob). Results are
    /// bit-identical for any value, so this is deliberately excluded from
    /// point fingerprints. It has not paid off on any array measured: on 2
    /// cores, two threads ran a 256×256 array at 0.83× one thread before
    /// the engine's warm spans and at 0.44–0.73× after
    /// (`threaded_over_batched_speedup_256` in `BENCH_backends.json`). The
    /// engine knob is slated for deletion (ROADMAP item 4); the key will
    /// still be read, since any value gives the same bits.
    pub backend_threads: usize,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec {
            name: "campaign".into(),
            array_sizes: vec![(5, 5)],
            patterns: vec![AttackPattern::SingleAggressor],
            amplitudes_v: vec![rram_units::V_SET],
            pulse_lengths_ns: vec![50.0],
            duty_cycles: vec![0.5],
            spacings_nm: vec![50.0],
            ambients_k: vec![300.0],
            schemes: vec![WriteScheme::HalfVoltage],
            guards: vec![GuardSpec::None],
            spread_scales: vec![1.0],
            backends: vec![BackendKind::Pulse],
            coupling: CouplingSpec::Uniform { nearest: 0.15 },
            spreads: Vec::new(),
            trials: 1,
            seed: 0,
            benign_writes: 256,
            tau_ns: 30.0,
            max_pulses: 1_000_000,
            batching: true,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            backend_threads: 1,
        }
    }
}

/// One expanded grid point of a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CampaignPoint {
    /// Array rows.
    pub rows: usize,
    /// Array columns.
    pub cols: usize,
    /// Aggressor placement pattern.
    pub pattern: AttackPattern,
    /// Hammer amplitude.
    pub amplitude: Volts,
    /// Hammer pulse length.
    pub pulse_length: Seconds,
    /// Hammer duty cycle in `(0, 1]` (gap = length · (1 − d) / d).
    pub duty_cycle: f64,
    /// Electrode spacing, nm.
    pub spacing_nm: f64,
    /// Ambient temperature.
    pub ambient: Kelvin,
    /// Write/bias scheme hammer pulses are applied under.
    pub scheme: WriteScheme,
    /// Guard defending this point ([`GuardSpec::None`] = undefended).
    pub guard: GuardSpec,
    /// Scale factor applied to the spec's spreads at this point (the σ
    /// axis; `0.0` = deterministic nominal device).
    pub spread_scale: f64,
    /// Simulation backend.
    pub backend: BackendKind,
    /// Monte Carlo trial index (`0` in single-trial campaigns). Part of
    /// the point's content fingerprint, so reports and checkpoints from
    /// different trials can never be merged into one record.
    pub trial: u32,
}

/// Stable identity of one grid point.
///
/// `index` is the point's position in the deterministic
/// [`CampaignSpec::points`] order; `id` fingerprints the point's physical
/// coordinates (exact `f64` bit patterns) together with the spec's
/// execution-relevant fields (coupling source, pulse budget, batching,
/// crosstalk time constant). Keys order by grid position, so sorting
/// outcomes by key restores grid order after a merge; the fingerprint
/// catches accidental merges or resumes across different specs or
/// execution profiles (see [`CampaignReport::merge`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PointKey {
    /// Position of the point in [`CampaignSpec::points`] order.
    pub index: usize,
    /// FNV-1a fingerprint of the point's coordinates.
    pub id: u64,
}

impl CampaignPoint {
    /// Label of this point over every axis except `excluded` — the grouping
    /// key used when slicing a report into series (and the series name the
    /// live TUI dashboard groups under). Sweeping the guard axis keeps each
    /// guard *kind* its own series: threshold coordinates
    /// ([`GuardSpec::axis_value`]) are pulses, kelvin or microseconds
    /// depending on the kind, so only same-kind points order meaningfully.
    pub fn series_key(&self, excluded: CampaignAxis) -> String {
        let mut key = CampaignAxis::ALL
            .iter()
            .filter(|&&axis| axis != excluded)
            .map(|&axis| self.axis_label(axis))
            .collect::<Vec<_>>()
            .join(" · ");
        if excluded == CampaignAxis::Guard {
            key.push_str(" · ");
            key.push_str(self.guard.kind_label());
        }
        key
    }

    /// The victim cell this point attacks: the in-line neighbour of the
    /// array centre (as in the paper's main experiment).
    pub fn victim(&self) -> CellAddress {
        CellAddress::new(self.rows / 2, self.cols / 2 - 1)
    }

    /// Fingerprint of the point's *device-relevant* coordinates: everything
    /// in [`CampaignPoint::id`] except the simulation backend and the
    /// guard. This seeds the Monte Carlo parameter sampling, so every
    /// backend of a cross-engine comparison — and every guard of a defence
    /// sweep — simulates the identical sampled devices (guard comparisons
    /// are paired, not confounded by resampling).
    pub fn device_id(&self) -> u64 {
        self.coordinate_hash(true)
    }

    /// Content fingerprint of this point: an FNV-1a hash over the exact bit
    /// patterns of every coordinate — stable across processes, machines and
    /// sessions. [`CampaignSpec::keyed_points`] mixes this with the spec's
    /// execution fingerprint to form the [`PointKey`] id, so outcomes from
    /// a different execution profile never silently replay.
    pub fn id(&self) -> u64 {
        self.coordinate_hash(false)
    }
}

/// Streaming FNV-1a over little-endian `u64` words — the stable
/// fingerprint primitive behind [`PointKey`].
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    pub(crate) fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// [`Fnv1a`] over `words`.
pub(crate) fn fnv1a_words(words: &[u64]) -> u64 {
    let mut hash = Fnv1a::new();
    for &word in words {
        hash.write(word);
    }
    hash.finish()
}

/// Result of one executed grid point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignOutcome {
    /// Stable identity of the grid point (position + content fingerprint).
    pub key: PointKey,
    /// The grid point.
    pub point: CampaignPoint,
    /// Whether the victim flipped within the budget.
    pub flipped: bool,
    /// Hammer pulses issued.
    pub pulses: u64,
    /// Final normalised victim state (drift towards LRS; the agreement
    /// measure when the budget is too small for a flip).
    pub victim_drift: f64,
    /// Crosstalk ΔT at the victim's hub node at the end of the attack, K
    /// (the hub state is the sampling-instant-independent measure both
    /// engines agree on).
    pub final_crosstalk: Kelvin,
    /// Simulated attack time, s.
    pub sim_time: Seconds,
    /// Cells other than the victim that changed state.
    pub collateral_flips: usize,
    /// Defence-side results of a guarded point ([`None`] on unguarded
    /// points, which run the plain attack): blocked?, pulses to detection,
    /// false triggers on the benign workload, energy/latency overhead.
    pub defense: Option<DefenseOutcome>,
    /// Wall-clock time the point took to simulate, in nanoseconds
    /// ([`None`] when replayed from a pre-telemetry checkpoint). The
    /// executor simulates a guard family — the points that differ only in
    /// their guard — on one shared trajectory, so each member reports an
    /// even share of its family's time
    /// ([`crate::countermeasures::run_guard_family`]).
    ///
    /// Pure observability metadata: it is **not** part of the point's
    /// [`PointKey`] fingerprint, it never enters [`CampaignReport`]'s JSON,
    /// CSV or table renderings, and merge/resume ignore it — two outcomes
    /// differing only here are the same result. Checkpoint lines and
    /// streamed [`CampaignEvent`]s carry it (`wall_ns`) so dashboards can
    /// show per-point cost and throughput.
    pub wall_ns: Option<u64>,
}

/// Equality over the *result* fields only: the `wall_ns` observability
/// metadata is ignored, so a replayed checkpoint outcome compares equal to
/// the freshly computed point however long either took on the wall clock.
impl PartialEq for CampaignOutcome {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
            && self.point == other.point
            && self.flipped == other.flipped
            && self.pulses == other.pulses
            && self.victim_drift == other.victim_drift
            && self.final_crosstalk == other.final_crosstalk
            && self.sim_time == other.sim_time
            && self.collateral_flips == other.collateral_flips
            && self.defense == other.defense
    }
}

/// Everything that can go wrong assembling or executing a campaign.
#[derive(Debug)]
pub enum CampaignError {
    /// A grid axis is empty.
    EmptyAxis(&'static str),
    /// An array size is too small to place the centre victim.
    ArrayTooSmall {
        /// Requested rows.
        rows: usize,
        /// Requested columns.
        cols: usize,
    },
    /// A numeric field is out of range.
    InvalidValue(String),
    /// The thermal-coupling extraction failed.
    Alpha(AlphaError),
    /// A worker needed a coupling matrix that was never resolved — the
    /// executor's pre-resolution pass and the point it handed a worker
    /// disagree on the point's geometry.
    MissingCoupling {
        /// Array rows of the unresolved geometry.
        rows: usize,
        /// Array columns of the unresolved geometry.
        cols: usize,
        /// Electrode spacing of the unresolved geometry, nm.
        spacing_nm: f64,
    },
    /// A shard selector is malformed (`index` must be `< of`, `of ≥ 1`).
    InvalidShard {
        /// Requested shard index.
        index: usize,
        /// Requested shard count.
        of: usize,
    },
    /// Two merged reports claim the same grid position with different point
    /// fingerprints — they were produced by different campaign specs.
    MergeMismatch {
        /// Grid position both reports claim.
        index: usize,
    },
    /// A checkpoint file could not be read or written.
    Io(String),
    /// The JSON form could not be parsed.
    Json(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::EmptyAxis(axis) => write!(f, "campaign axis {axis:?} is empty"),
            CampaignError::ArrayTooSmall { rows, cols } => write!(
                f,
                "array size {rows}x{cols} is too small: campaigns need at least 2x2"
            ),
            CampaignError::InvalidValue(message) => f.write_str(message),
            CampaignError::Alpha(e) => write!(f, "coupling extraction failed: {e}"),
            CampaignError::MissingCoupling {
                rows,
                cols,
                spacing_nm,
            } => write!(
                f,
                "no coupling matrix was resolved for the {rows}x{cols} array \
                 at {spacing_nm} nm spacing"
            ),
            CampaignError::InvalidShard { index, of } => write!(
                f,
                "invalid shard {index}/{of}: the index must be below the \
                 shard count and the count at least 1"
            ),
            CampaignError::MergeMismatch { index } => write!(
                f,
                "cannot merge reports: grid position {index} carries two \
                 different point fingerprints (the reports come from \
                 different campaign specs)"
            ),
            CampaignError::Io(message) => write!(f, "checkpoint I/O failed: {message}"),
            CampaignError::Json(message) => write!(f, "invalid campaign JSON: {message}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<AlphaError> for CampaignError {
    fn from(e: AlphaError) -> Self {
        CampaignError::Alpha(e)
    }
}

impl From<JsonError> for CampaignError {
    fn from(e: JsonError) -> Self {
        CampaignError::Json(e.to_string())
    }
}

/// Most points [`CampaignSpec::validate`] accepts in one grid. The largest
/// figure grid, the full `fig_defense`, has 1,440.
pub const MAX_GRID_POINTS: usize = 1 << 20;

/// Most cells [`CampaignSpec::validate`] accepts in one array of the grid.
/// The largest array the figures and benchmarks run is 1024².
pub const MAX_ARRAY_CELLS: usize = 1 << 22;

/// Most cells [`CampaignSpec::validate`] accepts in one array of a grid
/// that runs the `detailed` backend. Its line network is a dense matrix of
/// (2·rows·cols + 2·(rows + cols))² doubles, held three times during a
/// solve: at most 227 MB at this cap (a 2×512 array), where 64×64 would
/// take 3 × 571 MB and 1024² 35 TB per copy.
pub const MAX_DETAILED_CELLS: usize = 1024;

/// Key identifying one resolved coupling matrix: rows, cols and the spacing
/// bit pattern (exact f64 identity is what we want for de-duplication).
type CouplingKey = (usize, usize, u64);

impl CampaignSpec {
    /// Number of grid points the campaign will execute (Monte Carlo trials
    /// count as grid points). Saturates at `usize::MAX`;
    /// [`CampaignSpec::validate`] rejects grids above [`MAX_GRID_POINTS`].
    pub fn num_points(&self) -> usize {
        CampaignAxis::ALL
            .iter()
            .try_fold(1usize, |n, &axis| n.checked_mul(self.axis_len(axis)))
            .unwrap_or(usize::MAX)
    }

    /// Checks the grid is well formed: no axis is empty, every axis value
    /// is in range, the grid has at most [`MAX_GRID_POINTS`] points and no
    /// array more than [`MAX_ARRAY_CELLS`] cells, or more than
    /// [`MAX_DETAILED_CELLS`] if the grid runs the `detailed` backend. A
    /// uniform coupling's `nearest` α must lie in `[0, 1]` (α is a ratio of
    /// temperature rises, Eq. 4; 0 switches the coupling off), and every
    /// field problem a FEM coupling would solve must be a valid
    /// [`CrossbarGeometry`].
    ///
    /// # Errors
    ///
    /// Returns the first [`CampaignError`] found.
    pub fn validate(&self) -> Result<(), CampaignError> {
        self.check_axes()?;
        let grid_fits = self.num_points() <= MAX_GRID_POINTS;
        let bound = format!("must have at most {MAX_GRID_POINTS} points");
        require("the grid", grid_fits, &bound)?;
        let wired = self
            .backends
            .iter()
            .any(|b| matches!(b, BackendKind::Detailed(_)));
        for &(rows, cols) in &self.array_sizes {
            let fits = !wired || rows.saturating_mul(cols) <= MAX_DETAILED_CELLS;
            let rule = format!(
                "must have at most {MAX_DETAILED_CELLS} cells per array on the detailed backend, \
                 got {rows}x{cols}"
            );
            require("array_sizes", fits, &rule)?;
        }
        require("max_pulses", self.max_pulses > 0, "must be at least 1")?;
        let benign = self.benign_writes > 0;
        require("benign_writes", benign, "must be at least 1")?;
        for spread in &self.spreads {
            spread
                .validate()
                .map_err(|e| CampaignError::InvalidValue(format!("invalid spread: {e}")))?;
        }
        let tau_ok = self.tau_ns >= 0.0 && self.tau_ns.is_finite();
        require("tau_ns", tau_ok, "must be finite and ≥ 0")?;
        match self.coupling {
            CouplingSpec::Uniform { nearest } => {
                let ok = (0.0..=1.0).contains(&nearest);
                require("coupling nearest", ok, "must lie in [0, 1]")
            }
            CouplingSpec::Fem { voxel_nm } => {
                for &(rows, cols) in &self.array_sizes {
                    for &spacing_nm in &self.spacings_nm {
                        fem_geometry(rows, cols, spacing_nm, voxel_nm)
                            .validate()
                            .map_err(|e| {
                                CampaignError::InvalidValue(format!("FEM coupling: {e}"))
                            })?;
                    }
                }
                Ok(())
            }
        }
    }

    /// Expands the grid into its points: point `i` takes the values whose
    /// indices are the mixed-radix digits of `i` over the axes in
    /// [`CampaignAxis::ALL`] order, the trial innermost.
    pub fn points(&self) -> Vec<CampaignPoint> {
        let lens = CampaignAxis::ALL.map(|axis| self.axis_len(axis));
        (0..self.num_points())
            .map(|mut rest| {
                let mut digits = [0; CampaignAxis::ALL.len()];
                for (digit, &len) in digits.iter_mut().zip(&lens).rev() {
                    *digit = rest % len;
                    rest /= len;
                }
                self.point_at(&digits)
            })
            .collect()
    }

    /// Fingerprint of the execution-relevant spec fields that are *not*
    /// part of any point's coordinates: the coupling source, the crosstalk
    /// time constant, the pulse budget, the batching mode and the amplitude
    /// the FEM power sweep is anchored to. Mixed into every [`PointKey`] so
    /// a checkpoint recorded under a different execution profile (e.g. a
    /// `--quick` run) never silently replays into a full-fidelity one.
    /// The `--html` export stamps it next to the campaign name so two
    /// artifacts are comparable at a glance.
    pub fn fingerprint(&self) -> u64 {
        let (coupling_tag, coupling_bits) = match self.coupling {
            CouplingSpec::Uniform { nearest } => (0u64, nearest.to_bits()),
            CouplingSpec::Fem { voxel_nm } => (1u64, voxel_nm.to_bits()),
        };
        let mut words = vec![
            coupling_tag,
            coupling_bits,
            self.tau_ns.to_bits(),
            self.max_pulses,
            u64::from(self.batching),
            self.amplitudes_v
                .first()
                .copied()
                .unwrap_or_default()
                .to_bits(),
            self.seed,
            u64::from(self.trials),
            self.benign_writes,
            // Once the removed fast-math tier's flag, always 0 for the
            // exact math every campaign runs: keeping the word keeps every
            // PointKey, so checkpoints recorded before the removal resume.
            0,
            self.spreads.len() as u64,
        ];
        for spread in &self.spreads {
            words.extend(spread.fingerprint_words());
        }
        fnv1a_words(&words)
    }

    /// Expands the grid into `(key, point)` pairs in grid order — the form
    /// the [`CampaignExecutor`] shards and checkpoints operate on. Each
    /// key's `id` fingerprints both the point's coordinates and the spec's
    /// execution-relevant fields.
    pub fn keyed_points(&self) -> Vec<(PointKey, CampaignPoint)> {
        let execution = self.fingerprint();
        self.points()
            .into_iter()
            .enumerate()
            .map(|(index, point)| {
                (
                    PointKey {
                        index,
                        id: fnv1a_words(&[execution, point.id()]),
                    },
                    point,
                )
            })
            .collect()
    }

    /// The attack configuration a given point runs (victim at the centre
    /// neighbour; the inter-pulse gap follows the point's duty cycle:
    /// `gap = length · (1 − d) / d`, so `d = 0.5` is the paper's symmetric
    /// train and `d = 1` hammers back to back).
    pub fn attack_config(&self, point: &CampaignPoint) -> AttackConfig {
        AttackConfig {
            victim: point.victim(),
            pattern: point.pattern,
            amplitude: point.amplitude,
            pulse_length: point.pulse_length,
            gap: Seconds(point.pulse_length.0 * (1.0 - point.duty_cycle) / point.duty_cycle),
            max_pulses: self.max_pulses,
            batching: self.batching,
            trace: false,
        }
    }

    /// The benign write workload replayed against a guarded point for
    /// false-positive accounting: [`CampaignSpec::benign_writes`] writes at
    /// the point's amplitude, pulse length and duty cycle, cell-selected
    /// deterministically from the point's sampling seed (so the stream —
    /// like the sampled devices — is identical across backends and guards,
    /// and across shards and resumes).
    pub fn benign_workload(&self, point: &CampaignPoint) -> BenignWorkload {
        BenignWorkload {
            writes: self.benign_writes,
            amplitude: point.amplitude,
            pulse_length: point.pulse_length,
            gap: self.attack_config(point).gap,
            seed: self.point_seed(point),
        }
    }

    /// The field problem behind one point's FEM coupling: the crossbar
    /// geometry and the power sweep whose extraction gives the point its α
    /// matrix. `None` for [`CouplingSpec::Uniform`], which solves nothing.
    pub fn alpha_problem(&self, point: &CampaignPoint) -> Option<(CrossbarGeometry, AlphaConfig)> {
        match self.coupling {
            CouplingSpec::Uniform { .. } => None,
            CouplingSpec::Fem { voxel_nm } => Some(self.fem_problem(point, voxel_nm)),
        }
    }

    /// [`CampaignSpec::alpha_problem`] at `voxel_nm`: four powers, ¼ to 1 ×
    /// the LRS power of the default device at the spec's first amplitude,
    /// dissipated in the array's centre cell.
    fn fem_problem(&self, point: &CampaignPoint, voxel_nm: f64) -> (CrossbarGeometry, AlphaConfig) {
        let geometry = fem_geometry(point.rows, point.cols, point.spacing_nm, voxel_nm);
        let device = DeviceParams::default();
        let p = solve_operating_point(&device, self.amplitudes_v[0], device.n_max).power_active;
        let config = AlphaConfig {
            ambient: Kelvin(300.0),
            selected: (point.rows / 2, point.cols / 2),
            powers: vec![Watts(0.25 * p), Watts(0.5 * p), Watts(0.75 * p), Watts(p)],
        };
        (geometry, config)
    }

    /// Resolves the coupling matrices for every unique (array size, spacing)
    /// combination the grid touches. For [`CouplingSpec::Uniform`] this is a
    /// cheap synthesis; for [`CouplingSpec::Fem`] one field extraction per
    /// combination ([`CampaignSpec::alpha_problem`]), de-duplicated so a
    /// pulse-length × spacing grid does not re-solve the thermal field per
    /// pulse length. With `cache_dir` given, extractions additionally go
    /// through the on-disk α cache
    /// ([`rram_fem::alpha::extract_alpha_disk_cached`]) so repeated campaign
    /// *processes* skip the field solve too. A fresh extraction splits its
    /// power sweep over the spec's `threads`, which gives the same bits at
    /// any thread count.
    fn resolve_couplings(
        &self,
        points: &[CampaignPoint],
        cache_dir: Option<&std::path::Path>,
    ) -> Result<HashMap<CouplingKey, AlphaMatrix>, CampaignError> {
        let mut couplings = HashMap::new();
        for point in points {
            let key = (point.rows, point.cols, point.spacing_nm.to_bits());
            if couplings.contains_key(&key) {
                continue;
            }
            let alpha = match self.coupling {
                CouplingSpec::Uniform { nearest } => CrosstalkHub::two_ring_alpha(nearest),
                CouplingSpec::Fem { voxel_nm } => {
                    let (geometry, config) = self.fem_problem(point, voxel_nm);
                    let extraction = match cache_dir {
                        Some(dir) => {
                            extract_alpha_disk_cached(&geometry, &config, dir, self.threads)?
                        }
                        None => extract_alpha_cached(&geometry, &config, self.threads)?,
                    };
                    extraction.alpha
                }
            };
            couplings.insert(key, alpha);
        }
        Ok(couplings)
    }

    /// The Monte Carlo sampling seed of one grid point: the spec's master
    /// seed mixed with the point's *device* fingerprint (physical
    /// coordinates and trial index). Deliberately excluded: the simulation
    /// backend — a Pulse/Batched/Detailed comparison runs the identical
    /// sampled device array — and the execution profile (pulse budget,
    /// batching, coupling source), so raising `max_pulses` to re-examine a
    /// stubborn trial re-simulates the *same* device population instead of
    /// silently resampling it. Depends only on the master seed and the
    /// point — never on shard layout or execution order — which keeps
    /// seeded campaigns bit-identical across `--shard` splits and
    /// checkpoint resume; staleness protection against changed execution
    /// profiles lives in the [`PointKey`] fingerprint, not here.
    pub fn point_seed(&self, point: &CampaignPoint) -> u64 {
        fnv1a_words(&[self.seed, point.device_id()])
    }

    /// Samples the per-cell parameters of one grid point as a column table
    /// (the nominal set plus one column per spread field), or `None` when
    /// the spec carries no spreads — or the point's σ-axis value is
    /// exactly `0.0` *and* every spread is centred on the nominal value
    /// (omitted `mean`/`median`), in which case scaled sampling would
    /// reproduce the nominal device anyway and the cheap homogeneous path
    /// is exact. Off-centre spreads (explicit `mean`/`median`, uniform
    /// intervals) collapse onto their *own* centre as σ → 0, so they keep
    /// sampling — the σ axis stays continuous at 0.
    ///
    /// The spec's spreads are scaled by the point's
    /// [`CampaignPoint::spread_scale`] before sampling
    /// ([`rram_variability::ParamSpread::scaled`]); scale `1.0` reproduces
    /// the unscaled sampling bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::InvalidValue`] when a sampled set violates
    /// the device-parameter constraints (reachable with explicit truncation
    /// bounds, or wide spreads on relationally constrained fields such as
    /// `lrs_threshold`), so a bad spec fails the campaign cleanly instead
    /// of panicking a worker thread.
    pub fn sampled_columns(
        &self,
        point: &CampaignPoint,
    ) -> Result<Option<ParamColumns>, CampaignError> {
        let centred_on_nominal = |spread: &ParamSpread| {
            matches!(
                spread.distribution,
                Distribution::Normal { mean: None, .. }
                    | Distribution::LogNormal { median: None, .. }
            )
        };
        if self.spreads.is_empty()
            || (point.spread_scale == 0.0 && self.spreads.iter().all(centred_on_nominal))
        {
            return Ok(None);
        }
        let spreads: Vec<ParamSpread> = self
            .spreads
            .iter()
            .map(|spread| spread.scaled(point.spread_scale))
            .collect();
        try_sample_columns(
            &DeviceParams::default(),
            &spreads,
            self.point_seed(point),
            point.rows * point.cols,
        )
        .map(Some)
        .map_err(|e| {
            CampaignError::InvalidValue(format!(
                "spreads sample invalid device parameters ({e}); tighten the truncation bounds"
            ))
        })
    }

    /// [`CampaignSpec::sampled_columns`] expanded into a full table, one
    /// `DeviceParams` per cell (row-major).
    ///
    /// # Errors
    ///
    /// As [`CampaignSpec::sampled_columns`].
    pub fn sampled_table(
        &self,
        point: &CampaignPoint,
    ) -> Result<Option<Vec<DeviceParams>>, CampaignError> {
        Ok(self.sampled_columns(point)?.map(|columns| columns.expand()))
    }

    /// Builds the backend a given point runs on, using a pre-resolved
    /// coupling matrix (and the point's sampled per-cell parameters when
    /// the spec carries spreads).
    fn backend_with_alpha(
        &self,
        point: &CampaignPoint,
        alpha: AlphaMatrix,
    ) -> Result<Box<dyn HammerBackend>, CampaignError> {
        let hub = CrosstalkHub::new(point.rows, point.cols, alpha, Seconds(self.tau_ns * 1e-9));
        let config = EngineConfig {
            scheme: point.scheme,
            v_write: point.amplitude,
            max_substep: Seconds(10e-9),
            ambient: point.ambient,
            threads: self.backend_threads,
        };
        Ok(point.backend.build_heterogeneous(
            point.rows,
            point.cols,
            DeviceParams::default(),
            self.sampled_columns(point)?,
            hub,
            config,
        ))
    }

    /// Builds a fresh, ready-to-hammer backend for one grid point (exposed
    /// for trace-style uses such as the Fig. 1 binary, which needs the
    /// engine rather than the aggregated outcome).
    ///
    /// # Errors
    ///
    /// Propagates coupling-resolution and spread-sampling failures.
    pub fn backend_for(
        &self,
        point: &CampaignPoint,
    ) -> Result<Box<dyn HammerBackend>, CampaignError> {
        let mut couplings = self.resolve_couplings(std::slice::from_ref(point), None)?;
        let key = (point.rows, point.cols, point.spacing_nm.to_bits());
        let alpha = couplings
            .remove(&key)
            .ok_or(CampaignError::MissingCoupling {
                rows: point.rows,
                cols: point.cols,
                spacing_nm: point.spacing_nm,
            })?;
        self.backend_with_alpha(point, alpha)
    }

    /// Validates the grid, resolves couplings and executes every point in
    /// parallel, returning the full report at the end.
    ///
    /// This is a thin compatibility wrapper over the streaming
    /// [`CampaignExecutor`] (full grid, no shard, no event sink); use the
    /// executor directly for progressive rendering, sharding across
    /// processes or checkpoint/resume.
    ///
    /// # Errors
    ///
    /// Returns a [`CampaignError`] if the grid is malformed or a coupling
    /// extraction fails; individual attacks cannot fail (a missed flip is a
    /// regular outcome).
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics.
    pub fn run(&self) -> Result<CampaignReport, CampaignError> {
        CampaignExecutor::new(self.clone())?.execute(|_| {})
    }

    /// Serialises the spec as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }

    /// The spec as a JSON value — the object [`CampaignSpec::to_json`]
    /// renders. The campaign service embeds this in lease grants so a
    /// worker executes exactly the spec the server validated.
    pub fn to_json_value(&self) -> Json {
        let mut entries = vec![("name".into(), self.name.to_json())];
        entries.extend(self.axes_json());
        entries.extend([
            ("coupling".into(), self.coupling.to_json()),
            ("spreads".into(), self.spreads.to_json()),
            ("trials".into(), self.trials.to_json()),
            ("seed".into(), seed_to_json(self.seed)),
            ("benign_writes".into(), self.benign_writes.to_json()),
            ("tau_ns".into(), self.tau_ns.to_json()),
            ("max_pulses".into(), self.max_pulses.to_json()),
            ("batching".into(), self.batching.to_json()),
            ("threads".into(), self.threads.to_json()),
            ("backend_threads".into(), self.backend_threads.to_json()),
        ]);
        Json::Object(entries)
    }

    /// Parses a spec from its JSON form. Missing keys keep their
    /// [`CampaignSpec::default`] values; unknown keys are rejected.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Json`] on malformed input and the usual
    /// validation errors on a malformed grid.
    pub fn from_json(text: &str) -> Result<Self, CampaignError> {
        Self::from_json_value(&Json::parse(text)?)
    }

    /// Parses a spec from an already-parsed JSON value (the object form
    /// produced by [`CampaignSpec::to_json_value`]); same semantics as
    /// [`CampaignSpec::from_json`].
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Json`] on a malformed value and the usual
    /// validation errors on a malformed grid.
    pub fn from_json_value(json: &Json) -> Result<Self, CampaignError> {
        let Json::Object(entries) = json else {
            return Err(CampaignError::Json("expected a top-level object".into()));
        };
        let mut spec = CampaignSpec::default();
        for (key, value) in entries {
            if spec.axis_from_json(key, value)? {
                continue;
            }
            match key.as_str() {
                "name" => spec.name = parse(key, value)?,
                "coupling" => spec.coupling = parse(key, value)?,
                "spreads" => spec.spreads = parse(key, value)?,
                "seed" => spec.seed = seed_from_json(value)?,
                "benign_writes" => spec.benign_writes = parse(key, value)?,
                "tau_ns" => spec.tau_ns = parse(key, value)?,
                "max_pulses" => spec.max_pulses = parse(key, value)?,
                "batching" => spec.batching = parse(key, value)?,
                "threads" => spec.threads = parse::<usize>(key, value)?.max(1),
                "backend_threads" => spec.backend_threads = parse::<usize>(key, value)?.max(1),
                // Every spec written before the fast-math tier was removed
                // carries `"backend_fast_math": false`; keep reading those.
                "backend_fast_math" if parse(key, value)? => {
                    return Err(CampaignError::Json(
                        "the fast-math tier (\"backend_fast_math\": true) was removed; \
                         drop the key or set it to false"
                            .into(),
                    ))
                }
                "backend_fast_math" => {}
                other => {
                    return Err(CampaignError::Json(format!(
                        "unknown campaign key {other:?}"
                    )));
                }
            }
        }
        spec.validate()?;
        Ok(spec)
    }
}

/// The crossbar a FEM coupling solves for one array size and spacing.
fn fem_geometry(rows: usize, cols: usize, spacing_nm: f64, voxel_nm: f64) -> CrossbarGeometry {
    CrossbarGeometry {
        rows,
        cols,
        electrode_spacing_nm: spacing_nm,
        voxel_nm,
        ..CrossbarGeometry::default()
    }
}

/// Serialises a Monte Carlo seed. Seeds up to 2⁵³ round-trip exactly as
/// JSON numbers (the friendly, hand-written form); larger seeds are written
/// as 16-digit hex strings, since an `f64` JSON number cannot hold them.
fn seed_to_json(seed: u64) -> Json {
    if seed <= (1u64 << 53) {
        Json::Number(seed as f64)
    } else {
        Json::String(format!("{seed:016x}"))
    }
}

/// Parses a seed written by [`seed_to_json`] (number or hex string).
/// Decimal seeds above 2⁵³ are *rejected* rather than silently rounded
/// through `f64` — a spec must never run under a different seed than it
/// states; such seeds must use the hex-string form.
fn seed_from_json(value: &Json) -> Result<u64, CampaignError> {
    if let Some(seed) = value.as_u64() {
        if seed > (1u64 << 53) {
            return Err(CampaignError::Json(
                "key \"seed\": decimal seeds above 2^53 lose precision in JSON — \
                 write the seed as a 16-digit hex string instead"
                    .into(),
            ));
        }
        return Ok(seed);
    }
    value
        .as_str()
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or_else(|| {
            CampaignError::Json(
                "key \"seed\" must be a non-negative integer or a 64-bit hex string".into(),
            )
        })
}

/// A rendering's column: its header and the cell it shows for a row.
pub(crate) type Column<T, C = String> = (&'static str, fn(&T) -> C);

/// Renders `rows` as an `rram-analysis` text table of `columns`.
pub(crate) fn table_of<T>(rows: &[T], columns: &[Column<T>]) -> rram_analysis::Table {
    let headers: Vec<&str> = columns.iter().map(|&(header, _)| header).collect();
    let mut table = rram_analysis::Table::with_headers(&headers);
    for row in rows {
        table.push_row(columns.iter().map(|(_, cell)| cell(row)).collect());
    }
    table
}

/// Renders `rows` as CSV with `columns`.
pub(crate) fn csv_of<T>(rows: &[T], columns: &[Column<T>]) -> String {
    let headers: Vec<&str> = columns.iter().map(|&(header, _)| header).collect();
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|row| columns.iter().map(|(_, cell)| cell(row)).collect())
        .collect();
    rram_analysis::csv::to_csv_string(&headers, &cells)
}

/// The table's result columns, after the axis columns.
const OUTCOME_TABLE: [Column<CampaignOutcome>; 2] = [
    ("# pulses to bit-flip", |o| match o.flipped {
        true => o.pulses.to_string(),
        false => "no flip within budget".into(),
    }),
    ("victim drift", |o| match o.victim_drift.abs() < 1e-3 {
        true => format!("{:.3e}", o.victim_drift),
        false => format!("{:.3}", o.victim_drift),
    }),
];

/// The CSV's result columns, after the axis columns. Defence columns are
/// empty on unguarded points.
type OutcomeCell = fn(&CampaignOutcome) -> Option<String>;
const OUTCOME_CSV: [(&str, OutcomeCell); 14] = [
    ("flipped", |o| Some(o.flipped.to_string())),
    ("pulses", |o| Some(o.pulses.to_string())),
    ("victim_drift", |o| Some(format!("{}", o.victim_drift))),
    ("final_crosstalk_k", |o| {
        Some(format!("{}", o.final_crosstalk.0))
    }),
    ("sim_time_s", |o| Some(format!("{}", o.sim_time.0))),
    ("collateral_flips", |o| Some(o.collateral_flips.to_string())),
    ("blocked", |o| Some(o.defense?.blocked.to_string())),
    ("pulses_to_detection", |o| {
        Some(o.defense?.pulses_to_detection?.to_string())
    }),
    ("refreshes", |o| Some(o.defense?.refreshes.to_string())),
    ("throttle_time_s", |o| {
        Some(format!("{}", o.defense?.throttle_time.0))
    }),
    ("false_triggers", |o| {
        Some(o.defense?.false_triggers.to_string())
    }),
    ("energy_overhead_j", |o| {
        Some(format!("{}", o.defense?.energy_overhead.0))
    }),
    ("latency_overhead_s", |o| {
        Some(format!("{}", o.defense?.latency_overhead.0))
    }),
    ("overhead_fraction", |o| {
        Some(format!("{}", o.defense?.overhead_fraction))
    }),
];

/// Aggregated results of a campaign run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Campaign name (from the spec).
    pub name: String,
    /// One outcome per grid point, in grid order.
    pub outcomes: Vec<CampaignOutcome>,
}

impl CampaignReport {
    /// Merges reports produced by different shards (or recovered from
    /// checkpoint files) back into one report.
    ///
    /// Outcomes are de-duplicated by [`PointKey`] (the first occurrence
    /// wins) and re-sorted into grid order, so merging the shards of a grid
    /// — in any order, with any overlap — reproduces the unsharded report
    /// byte for byte. The merged report takes the first report's name.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::MergeMismatch`] when two outcomes claim the
    /// same grid position with different point fingerprints, i.e. the
    /// reports come from different campaign specs.
    ///
    /// # Examples
    ///
    /// Merge two shard reports back into the full grid:
    ///
    /// ```
    /// use neurohammer::campaign::{CampaignExecutor, CampaignReport, CampaignSpec, Shard};
    ///
    /// let spec = CampaignSpec {
    ///     pulse_lengths_ns: vec![50.0, 100.0],
    ///     max_pulses: 200_000,
    ///     ..CampaignSpec::default()
    /// };
    /// let shard = |index| {
    ///     CampaignExecutor::new(spec.clone())
    ///         .unwrap()
    ///         .with_shard(Shard { index, of: 2 })
    ///         .unwrap()
    ///         .execute(|_| {})
    ///         .unwrap()
    /// };
    /// let (a, b) = (shard(0), shard(1));
    /// let merged = CampaignReport::merge([b, a]).unwrap(); // any order
    /// assert_eq!(merged.outcomes.len(), spec.num_points());
    /// assert_eq!(merged, spec.run().unwrap());
    /// ```
    pub fn merge<I>(reports: I) -> Result<CampaignReport, CampaignError>
    where
        I: IntoIterator<Item = CampaignReport>,
    {
        let mut name: Option<String> = None;
        let mut by_index: std::collections::BTreeMap<usize, CampaignOutcome> =
            std::collections::BTreeMap::new();
        for report in reports {
            name.get_or_insert(report.name);
            for outcome in report.outcomes {
                match by_index.entry(outcome.key.index) {
                    std::collections::btree_map::Entry::Vacant(slot) => {
                        slot.insert(outcome);
                    }
                    std::collections::btree_map::Entry::Occupied(slot) => {
                        if slot.get().key.id != outcome.key.id {
                            return Err(CampaignError::MergeMismatch {
                                index: outcome.key.index,
                            });
                        }
                    }
                }
            }
        }
        Ok(CampaignReport {
            name: name.unwrap_or_default(),
            outcomes: by_index.into_values().collect(),
        })
    }

    /// Renders the report as an `rram-analysis` text table.
    pub fn to_table(&self) -> rram_analysis::Table {
        let headers: Vec<&str> = CampaignAxis::report_order()
            .map(CampaignAxis::table_header)
            .chain(OUTCOME_TABLE.iter().map(|&(header, _)| header))
            .collect();
        let mut table = rram_analysis::Table::with_headers(&headers);
        for outcome in &self.outcomes {
            let axes = CampaignAxis::report_order().map(|axis| outcome.point.table_cell(axis));
            table.push_row(
                axes.chain(OUTCOME_TABLE.iter().map(|(_, cell)| cell(outcome)))
                    .collect(),
            );
        }
        table
    }

    /// Renders the report as CSV (same columns as the table, plus the raw
    /// numeric extras).
    pub fn to_csv_string(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .outcomes
            .iter()
            .map(|outcome| {
                let axes =
                    CampaignAxis::report_order().flat_map(|axis| outcome.point.csv_cells(axis));
                let results = OUTCOME_CSV
                    .iter()
                    .map(|(_, cell)| cell(outcome).unwrap_or_default());
                axes.chain(results).collect()
            })
            .collect();
        let headers: Vec<&str> = CampaignAxis::report_order()
            .flat_map(CampaignAxis::csv_headers)
            .chain(OUTCOME_CSV.iter().map(|&(header, _)| header))
            .collect();
        rram_analysis::csv::to_csv_string(&headers, &rows)
    }

    /// Slices the report into one [`SweepSeries`] per combination of the
    /// *other* axes, with `axis` as the swept parameter — the shape the
    /// figure binaries plot. Series and points keep grid order; points are
    /// sorted by the axis value.
    pub fn series_over(&self, axis: CampaignAxis) -> Vec<SweepSeries> {
        self.groups_by(|outcome| outcome.point.series_key(axis))
            .into_iter()
            .map(|mut members| {
                members.sort_by(|a, b| {
                    a.point
                        .axis_value(axis)
                        .partial_cmp(&b.point.axis_value(axis))
                        .expect("axis values are finite")
                });
                SweepSeries {
                    name: members[0].point.series_key(axis),
                    points: members
                        .into_iter()
                        .map(|outcome| SweepPoint {
                            parameter: outcome.point.axis_value(axis),
                            label: outcome.point.axis_label(axis),
                            pulses: outcome.flipped.then_some(outcome.pulses),
                            flipped: outcome.flipped,
                        })
                        .collect(),
                }
            })
            .collect()
    }

    /// The outcomes grouped by `key`, groups in first-seen (grid) order.
    pub(crate) fn groups_by<K: Eq + std::hash::Hash>(
        &self,
        key: impl Fn(&CampaignOutcome) -> K,
    ) -> Vec<Vec<&CampaignOutcome>> {
        let mut slots: HashMap<K, usize> = HashMap::new();
        let mut groups: Vec<Vec<&CampaignOutcome>> = Vec::new();
        for outcome in &self.outcomes {
            let slot = *slots.entry(key(outcome)).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[slot].push(outcome);
        }
        groups
    }

    /// Cross-backend agreement in one number: for every group of points that
    /// differ *only* in their backend, the victim-drift ratio between the
    /// most- and least-progressed backend; the maximum over all groups is
    /// returned. `None` when no group contains more than one backend or a
    /// drift is not positive.
    pub fn max_backend_drift_ratio(&self) -> Option<f64> {
        let mut worst: Option<f64> = None;
        for members in self.groups_by(|outcome| outcome.point.series_key(CampaignAxis::Backend)) {
            if members.len() < 2 {
                continue;
            }
            let drifts = members.iter().map(|outcome| outcome.victim_drift);
            let min = drifts.clone().fold(f64::INFINITY, f64::min);
            let max = drifts.fold(f64::NEG_INFINITY, f64::max);
            if min <= 0.0 {
                return None;
            }
            let ratio = max / min;
            worst = Some(worst.map_or(ratio, |w: f64| w.max(ratio)));
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::run_attack;
    use rram_variability::ParamField;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            name: "tiny".into(),
            pulse_lengths_ns: vec![50.0, 100.0],
            amplitudes_v: vec![1.05],
            max_pulses: 300_000,
            ..CampaignSpec::default()
        }
    }

    #[test]
    fn grid_expansion_covers_the_cartesian_product() {
        let spec = CampaignSpec {
            array_sizes: vec![(5, 5), (3, 3)],
            patterns: vec![AttackPattern::SingleAggressor, AttackPattern::Quad],
            pulse_lengths_ns: vec![20.0, 50.0],
            ..CampaignSpec::default()
        };
        assert_eq!(spec.num_points(), 8);
        let points = spec.points();
        assert_eq!(points.len(), 8);
        // Every point is unique.
        for (i, a) in points.iter().enumerate() {
            for b in &points[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn campaign_runs_and_renders() {
        let report = tiny_spec().run().unwrap();
        assert_eq!(report.outcomes.len(), 2);
        assert!(report.outcomes.iter().all(|o| o.flipped), "{report:?}");
        let table = report.to_table().to_string();
        assert!(table.contains("pulse"));
        let csv = report.to_csv_string();
        assert_eq!(csv.lines().count(), 3);
        // Longer pulses flip with fewer pulses.
        let series = report.series_over(CampaignAxis::PulseLength);
        assert_eq!(series.len(), 1);
        assert!(series[0].is_monotonically_decreasing(), "{series:?}");
    }

    #[test]
    fn validation_rejects_malformed_grids() {
        let mut spec = tiny_spec();
        spec.patterns.clear();
        assert!(matches!(
            spec.validate(),
            Err(CampaignError::EmptyAxis("patterns"))
        ));

        let mut spec = tiny_spec();
        spec.array_sizes = vec![(1, 5)];
        assert!(matches!(
            spec.validate(),
            Err(CampaignError::ArrayTooSmall { .. })
        ));

        let mut spec = tiny_spec();
        spec.amplitudes_v = vec![-1.0];
        assert!(matches!(
            spec.validate(),
            Err(CampaignError::InvalidValue(_))
        ));

        // A detailed backend whose wiring the line network cannot stamp,
        // built directly or read from JSON.
        for (segment, driver) in [(0.0, 50.0), (2.5, 0.0)] {
            let mut spec = tiny_spec();
            spec.backends = vec![BackendKind::Detailed(rram_crossbar::WiringParasitics {
                segment_resistance: rram_units::Ohms(segment),
                driver_resistance: rram_units::Ohms(driver),
            })];
            assert!(matches!(
                spec.validate(),
                Err(CampaignError::InvalidValue(_))
            ));
            assert!(matches!(
                CampaignSpec::from_json(&spec.to_json()),
                Err(CampaignError::InvalidValue(_))
            ));
        }

        // A detailed backend on an array whose line network would not fit
        // in memory, built directly or read from JSON; any other backend
        // may run it.
        let mut spec = tiny_spec();
        spec.backends = vec![BackendKind::Pulse, BackendKind::detailed()];
        spec.array_sizes = vec![(32, 32)];
        assert!(spec.validate().is_ok());
        spec.array_sizes = vec![(32, 32), (32, 33)];
        let rule = "array_sizes must have at most 1024 cells per array on the detailed backend, \
                    got 32x33";
        assert!(matches!(
            spec.validate(),
            Err(CampaignError::InvalidValue(e)) if e == rule
        ));
        assert!(matches!(
            CampaignSpec::from_json(&spec.to_json()),
            Err(CampaignError::InvalidValue(e)) if e == rule
        ));
        spec.backends = vec![BackendKind::Pulse];
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn json_round_trip_preserves_the_spec() {
        let spec = CampaignSpec {
            name: "round trip".into(),
            array_sizes: vec![(3, 4)],
            patterns: vec![AttackPattern::Quad, AttackPattern::Diagonal],
            amplitudes_v: vec![1.0, 1.1],
            coupling: CouplingSpec::Fem { voxel_nm: 25.0 },
            backends: vec![BackendKind::Pulse, BackendKind::Batched],
            batching: false,
            backend_threads: 3,
            ..CampaignSpec::default()
        };
        let text = spec.to_json();
        let restored = CampaignSpec::from_json(&text).unwrap();
        assert_eq!(restored, spec);
    }

    #[test]
    fn detailed_backend_parasitics_survive_the_json_round_trip() {
        use rram_units::Ohms;
        let spec = CampaignSpec {
            backends: vec![
                BackendKind::Pulse,
                BackendKind::detailed(),
                BackendKind::Detailed(rram_crossbar::WiringParasitics {
                    segment_resistance: Ohms(200.0),
                    driver_resistance: Ohms(1_000.0),
                }),
            ],
            ..CampaignSpec::default()
        };
        let restored = CampaignSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(restored, spec);
        // Default parasitics still serialise as the plain label.
        assert!(spec.to_json().contains("\"detailed\""));
        assert!(spec.to_json().contains("\"segment_ohms\""));
    }

    #[test]
    fn backend_tags_fingerprint_distinctly() {
        // The backend tag enters the point id: an outcome of one engine can
        // never be merged into (or replay as) another engine's.
        let mut point = tiny_spec().points()[0];
        let mut ids = Vec::new();
        for backend in [
            BackendKind::Pulse,
            BackendKind::Batched,
            BackendKind::detailed(),
        ] {
            point.backend = backend;
            ids.push(point.id());
        }
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3, "backend tags must separate point ids");
    }

    #[test]
    fn removed_backend_and_math_tier_are_rejected_by_name() {
        // Specs archived before the removal still parse: they all carry
        // `"backend_fast_math": false`, and it keys the points as before.
        let spec = tiny_spec();
        let mut archived = spec.to_json();
        assert!(!archived.contains("backend_fast_math"));
        archived.insert_str(1, "\"backend_fast_math\": false, ");
        let restored = CampaignSpec::from_json(&archived).unwrap();
        assert_eq!(restored, spec);
        assert_eq!(restored.keyed_points(), spec.keyed_points());

        let fast = archived.replace(
            "\"backend_fast_math\": false",
            "\"backend_fast_math\": true",
        );
        let surrogate = spec.to_json().replace("\"pulse\"", "\"surrogate\"");
        for text in [fast, surrogate] {
            match CampaignSpec::from_json(&text) {
                Err(CampaignError::Json(message)) => {
                    assert!(message.contains("removed"), "{message}");
                }
                other => panic!("expected a removal error, got {other:?}"),
            }
        }
    }

    #[test]
    fn validation_rejects_non_finite_values() {
        let mut spec = tiny_spec();
        spec.amplitudes_v = vec![f64::INFINITY];
        assert!(matches!(
            spec.validate(),
            Err(CampaignError::InvalidValue(_))
        ));
        let mut spec = tiny_spec();
        spec.ambients_k = vec![f64::NAN];
        assert!(matches!(
            spec.validate(),
            Err(CampaignError::InvalidValue(_))
        ));
        let mut spec = tiny_spec();
        spec.tau_ns = f64::INFINITY;
        assert!(matches!(
            spec.validate(),
            Err(CampaignError::InvalidValue(_))
        ));
    }

    #[test]
    fn json_rejects_unknown_keys_and_bad_shapes() {
        assert!(matches!(
            CampaignSpec::from_json(r#"{"unknown_key": 1}"#),
            Err(CampaignError::Json(_))
        ));
        assert!(matches!(
            CampaignSpec::from_json(r#"{"patterns": ["not a pattern"]}"#),
            Err(CampaignError::Json(_))
        ));
        assert!(matches!(
            CampaignSpec::from_json("[1, 2]"),
            Err(CampaignError::Json(_))
        ));
        // Partial specs inherit defaults.
        let spec = CampaignSpec::from_json(r#"{"name": "partial"}"#).unwrap();
        assert_eq!(spec.name, "partial");
        assert_eq!(spec.array_sizes, CampaignSpec::default().array_sizes);
    }

    #[test]
    fn scheme_axis_round_trips_and_groups() {
        let spec = CampaignSpec {
            name: "scheme sweep".into(),
            schemes: vec![WriteScheme::HalfVoltage, WriteScheme::ThirdVoltage],
            max_pulses: 2_000,
            batching: false,
            ..CampaignSpec::default()
        };
        // JSON round trip preserves the scheme axis.
        let text = spec.to_json();
        assert!(
            text.contains("\"half\"") && text.contains("\"third\""),
            "{text}"
        );
        let restored = CampaignSpec::from_json(&text).unwrap();
        assert_eq!(restored, spec);

        let report = spec.run().unwrap();
        assert_eq!(report.outcomes.len(), 2);
        // Report grouping: sweeping the scheme axis yields one series holding
        // both schemes, labelled V/2 and V/3.
        let series = report.series_over(CampaignAxis::Scheme);
        assert_eq!(series.len(), 1);
        let labels: Vec<&str> = series[0].points.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, vec!["V/2", "V/3"]);
        // V/3 half-select stress is much weaker than V/2, so the victim
        // drifts less under the third-voltage scheme.
        let drift = |scheme: WriteScheme| {
            report
                .outcomes
                .iter()
                .find(|o| o.point.scheme == scheme)
                .expect("scheme present")
                .victim_drift
        };
        assert!(
            drift(WriteScheme::HalfVoltage) > drift(WriteScheme::ThirdVoltage),
            "V/2 {} vs V/3 {}",
            drift(WriteScheme::HalfVoltage),
            drift(WriteScheme::ThirdVoltage)
        );
        // The CSV gains a scheme column.
        assert!(report
            .to_csv_string()
            .lines()
            .next()
            .unwrap()
            .contains("scheme"));
    }

    #[test]
    fn batched_backend_round_trips_and_runs() {
        let spec = CampaignSpec {
            name: "batched".into(),
            backends: vec![BackendKind::Batched],
            max_pulses: 150_000,
            ..CampaignSpec::default()
        };
        let restored = CampaignSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(restored, spec);
        let report = spec.run().unwrap();
        assert_eq!(report.outcomes.len(), 1);
        assert!(report.outcomes[0].flipped, "{report:?}");
        assert!(report.to_table().to_string().contains("batched"));
    }

    #[test]
    fn series_grouping_splits_on_the_other_axes() {
        let spec = CampaignSpec {
            pulse_lengths_ns: vec![20.0, 50.0],
            ambients_k: vec![300.0, 350.0],
            max_pulses: 150_000,
            ..CampaignSpec::default()
        };
        let report = spec.run().unwrap();
        // Sweeping pulse length → one series per ambient.
        let series = report.series_over(CampaignAxis::PulseLength);
        assert_eq!(series.len(), 2);
        assert!(series.iter().all(|s| s.points.len() == 2));
    }

    #[test]
    fn duty_cycle_axis_sets_the_gap_and_round_trips() {
        let spec = CampaignSpec {
            name: "duty sweep".into(),
            duty_cycles: vec![0.5, 1.0],
            max_pulses: 2_000,
            batching: false,
            ..CampaignSpec::default()
        };
        assert_eq!(spec.num_points(), 2);
        let points = spec.points();
        // d = 0.5: gap equals the pulse length; d = 1: back-to-back.
        let gap = |i: usize| spec.attack_config(&points[i]).gap.0;
        assert!((gap(0) - points[0].pulse_length.0).abs() < 1e-18);
        assert_eq!(gap(1), 0.0);

        // JSON round trip preserves the axis.
        let restored = CampaignSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(restored, spec);

        // Validation rejects out-of-range duty cycles.
        let mut bad = spec.clone();
        bad.duty_cycles = vec![0.0];
        assert!(matches!(
            bad.validate(),
            Err(CampaignError::InvalidValue(_))
        ));
        let mut bad = spec.clone();
        bad.duty_cycles = vec![1.5];
        assert!(matches!(
            bad.validate(),
            Err(CampaignError::InvalidValue(_))
        ));

        // Physics: back-to-back hammering skips the cooling gaps, so the
        // victim drifts at least as far in the same pulse budget.
        let report = spec.run().unwrap();
        let drift = |duty: f64| {
            report
                .outcomes
                .iter()
                .find(|o| o.point.duty_cycle == duty)
                .expect("duty present")
                .victim_drift
        };
        assert!(
            drift(1.0) > drift(0.5),
            "d=1 {} vs d=0.5 {}",
            drift(1.0),
            drift(0.5)
        );
        // The duty-cycle column reaches the CSV and the series labels.
        assert!(report
            .to_csv_string()
            .lines()
            .next()
            .unwrap()
            .contains("duty_cycle"));
        let series = report.series_over(CampaignAxis::DutyCycle);
        assert_eq!(series.len(), 1);
        let labels: Vec<&str> = series[0].points.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, vec!["d=50%", "d=100%"]);
    }

    #[test]
    fn spreads_trials_and_seed_round_trip_through_json() {
        let nominal = DeviceParams::default();
        let spec = CampaignSpec {
            name: "mc round trip".into(),
            spreads: vec![
                ParamSpread::relative_normal(ParamField::FilamentRadius, 0.05, &nominal),
                ParamSpread {
                    field: ParamField::LDisc,
                    distribution: Distribution::LogNormal {
                        median: None,
                        sigma: 0.2,
                    },
                    truncate_low: Some(0.1e-9),
                    truncate_high: None,
                },
                ParamSpread {
                    field: ParamField::EaSet,
                    distribution: Distribution::Uniform {
                        low: 1.2,
                        high: 1.3,
                    },
                    truncate_low: None,
                    truncate_high: None,
                },
            ],
            trials: 4,
            seed: 0xdead_beef,
            ..CampaignSpec::default()
        };
        let text = spec.to_json();
        assert!(text.contains("filament_radius"), "{text}");
        let restored = CampaignSpec::from_json(&text).unwrap();
        assert_eq!(restored, spec);

        // A seed beyond 2^53 survives via the hex-string form.
        let big_seed = CampaignSpec {
            seed: u64::MAX - 5,
            ..CampaignSpec::default()
        };
        let restored = CampaignSpec::from_json(&big_seed.to_json()).unwrap();
        assert_eq!(restored.seed, u64::MAX - 5);

        // Malformed spreads are rejected at the JSON layer.
        assert!(matches!(
            CampaignSpec::from_json(
                r#"{"spreads": [{"field": "no_such_field", "kind": "normal", "sigma": 1.0}]}"#
            ),
            Err(CampaignError::Json(_))
        ));
        assert!(matches!(
            CampaignSpec::from_json(r#"{"spreads": [{"field": "l_disc", "kind": "cauchy"}]}"#),
            Err(CampaignError::Json(_))
        ));
        // Invalid spread *values* are caught by validation.
        assert!(matches!(
            CampaignSpec::from_json(
                r#"{"spreads": [{"field": "l_disc", "kind": "normal", "sigma": -1.0}]}"#
            ),
            Err(CampaignError::InvalidValue(_))
        ));
    }

    #[test]
    fn trials_fan_out_the_grid_and_sample_distinct_devices() {
        let spec = CampaignSpec {
            name: "mc grid".into(),
            spreads: vec![ParamSpread::relative_normal(
                ParamField::FilamentRadius,
                0.08,
                &DeviceParams::default(),
            )],
            trials: 3,
            seed: 5,
            max_pulses: 40_000,
            ..CampaignSpec::default()
        };
        assert_eq!(spec.num_points(), 3);
        let points = spec.points();
        assert_eq!(
            points.iter().map(|p| p.trial).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        // Different trials own different point fingerprints (the merge /
        // resume guard) and different sampled device tables.
        assert_ne!(points[0].id(), points[1].id());
        let t0 = spec.sampled_table(&points[0]).unwrap().unwrap();
        let t1 = spec.sampled_table(&points[1]).unwrap().unwrap();
        assert_eq!(t0.len(), 25);
        assert_ne!(t0[0].filament_radius, t1[0].filament_radius);

        // The spread produces genuinely different outcomes across trials.
        let report = spec.run().unwrap();
        let drifts: Vec<f64> = report.outcomes.iter().map(|o| o.victim_drift).collect();
        assert_eq!(drifts.len(), 3);
        assert!(
            drifts.windows(2).any(|w| w[0] != w[1]),
            "all trials identical: {drifts:?}"
        );
    }

    #[test]
    fn execution_profile_changes_keep_the_sampled_devices() {
        // Raising the pulse budget (or toggling batching) must re-examine
        // the *same* device population, not silently resample it — the
        // sampling seed depends on the physical point only.
        let spec = CampaignSpec {
            spreads: vec![ParamSpread::relative_normal(
                ParamField::FilamentRadius,
                0.05,
                &DeviceParams::default(),
            )],
            trials: 2,
            seed: 3,
            ..CampaignSpec::default()
        };
        let bigger_budget = CampaignSpec {
            max_pulses: spec.max_pulses * 10,
            batching: !spec.batching,
            ..spec.clone()
        };
        for (a, b) in spec.points().iter().zip(bigger_budget.points().iter()) {
            assert_eq!(spec.point_seed(a), bigger_budget.point_seed(b));
            let (ta, tb) = (
                spec.sampled_table(a).unwrap().unwrap(),
                bigger_budget.sampled_table(b).unwrap().unwrap(),
            );
            for (pa, pb) in ta.iter().zip(tb.iter()) {
                assert_eq!(pa.filament_radius.to_bits(), pb.filament_radius.to_bits());
            }
        }
    }

    #[test]
    fn nonphysical_spread_samples_fail_the_campaign_cleanly() {
        // A wide lrs_threshold spread passes spec validation (the bounds
        // are per-field) but can sample values ≥ 1, which violate the
        // relational device constraints — the campaign must return an
        // error, not panic a worker thread.
        let spec = CampaignSpec {
            name: "bad spread".into(),
            spreads: vec![ParamSpread {
                field: ParamField::LrsThreshold,
                distribution: Distribution::Uniform {
                    low: 0.5,
                    high: 5.0,
                },
                truncate_low: None,
                truncate_high: None,
            }],
            trials: 4,
            max_pulses: 100,
            ..CampaignSpec::default()
        };
        assert!(spec.validate().is_ok(), "per-field validation passes");
        match spec.run() {
            Err(CampaignError::InvalidValue(message)) => {
                assert!(message.contains("truncation"), "{message}");
            }
            other => panic!("expected InvalidValue, got {other:?}"),
        }
    }

    #[test]
    fn lossy_decimal_seeds_are_rejected() {
        // 2^53 + 2 is representable in f64, but the hex form is required
        // above 2^53 so no seed can silently round through JSON.
        let doc = format!("{{\"seed\": {}}}", (1u64 << 53) + 2);
        assert!(matches!(
            CampaignSpec::from_json(&doc),
            Err(CampaignError::Json(_))
        ));
        // 2^53 itself is exact and accepted; so is the hex form above it.
        let doc = format!("{{\"seed\": {}}}", 1u64 << 53);
        assert_eq!(CampaignSpec::from_json(&doc).unwrap().seed, 1u64 << 53);
    }

    #[test]
    fn seeded_campaigns_are_bit_reproducible() {
        let spec = CampaignSpec {
            name: "mc determinism".into(),
            spreads: vec![ParamSpread::relative_normal(
                ParamField::FilamentRadius,
                0.06,
                &DeviceParams::default(),
            )],
            trials: 2,
            seed: 1234,
            max_pulses: 40_000,
            ..CampaignSpec::default()
        };
        let a = spec.run().unwrap();
        let b = spec.run().unwrap();
        assert_eq!(a.to_json(), b.to_json());
        // A different seed samples different devices.
        let other = CampaignSpec { seed: 4321, ..spec }.run().unwrap();
        assert_ne!(a.to_json(), other.to_json());
    }

    #[test]
    fn guard_axis_fans_out_round_trips_and_fingerprints() {
        let spec = CampaignSpec {
            name: "guard sweep".into(),
            guards: vec![
                GuardSpec::None,
                GuardSpec::WriteCounter {
                    threshold: 64,
                    window: Seconds(1.0),
                },
                GuardSpec::ThermalSensor {
                    threshold: rram_units::Kelvin(20.0),
                    cooldown: Seconds(1e-6),
                },
                GuardSpec::Scrubbing {
                    period: Seconds(5e-6),
                },
            ],
            max_pulses: 2_000,
            batching: false,
            ..CampaignSpec::default()
        };
        assert_eq!(spec.num_points(), 4);
        // JSON round trip preserves every guard's exact operating point.
        let text = spec.to_json();
        assert!(
            text.contains("\"none\"") && text.contains("\"counter\""),
            "{text}"
        );
        let restored = CampaignSpec::from_json(&text).unwrap();
        assert_eq!(restored, spec);

        // Guards are part of the point fingerprint (checkpoint staleness)
        // but NOT of the sampling seed (guard comparisons are paired).
        let points = spec.points();
        for (i, a) in points.iter().enumerate() {
            for b in &points[i + 1..] {
                assert_ne!(a.id(), b.id());
                assert_eq!(a.device_id(), b.device_id());
                assert_eq!(spec.point_seed(a), spec.point_seed(b));
            }
        }

        // Slicing a report over the guard axis keeps each guard kind its
        // own series: threshold coordinates are only comparable within one
        // family (pulses vs kelvin vs microseconds).
        let report = spec.run().unwrap();
        let series = report.series_over(CampaignAxis::Guard);
        assert_eq!(series.len(), 4, "{series:?}");
        for kind in ["none", "counter", "thermal", "scrub"] {
            assert!(
                series.iter().any(|s| s.name.ends_with(kind)),
                "missing {kind} series: {series:?}"
            );
        }

        // Malformed guard JSON is rejected.
        assert!(matches!(
            CampaignSpec::from_json(r#"{"guards": ["blast shield"]}"#),
            Err(CampaignError::Json(_))
        ));
        assert!(matches!(
            CampaignSpec::from_json(r#"{"guards": [{"kind": "counter", "threshold": 8}]}"#),
            Err(CampaignError::Json(_))
        ));
        // Degenerate operating points are caught by validation.
        assert!(matches!(
            CampaignSpec::from_json(
                r#"{"guards": [{"kind": "counter", "threshold": 0, "window_s": 1.0}]}"#
            ),
            Err(CampaignError::InvalidValue(_))
        ));
    }

    #[test]
    fn guarded_points_run_and_report_defense_outcomes() {
        let spec = CampaignSpec {
            name: "guarded run".into(),
            guards: vec![
                GuardSpec::None,
                GuardSpec::WriteCounter {
                    threshold: 50,
                    window: Seconds(1.0),
                },
            ],
            pulse_lengths_ns: vec![100.0],
            max_pulses: 20_000,
            benign_writes: 32,
            batching: false,
            ..CampaignSpec::default()
        };
        let report = spec.run().unwrap();
        assert_eq!(report.outcomes.len(), 2);
        let unguarded = &report.outcomes[0];
        let guarded = &report.outcomes[1];
        assert!(unguarded.point.guard.is_none());
        assert_eq!(unguarded.defense, None);
        assert!(unguarded.flipped);
        let defense = guarded.defense.expect("guarded point carries defense");
        assert!(defense.blocked);
        assert!(!guarded.flipped);
        assert_eq!(defense.pulses_to_detection, Some(50));
        assert_eq!(defense.benign_writes, 32);
        // The guard columns reach the CSV.
        let header = report.to_csv_string().lines().next().unwrap().to_string();
        for column in ["guard_kind", "guard_threshold", "blocked", "false_triggers"] {
            assert!(header.contains(column), "{header}");
        }
        // The report round-trips through JSON with the defense payload.
        let restored = CampaignReport::from_json(&report.to_json()).unwrap();
        assert_eq!(&restored, &report);
        assert_eq!(restored.to_csv_string(), report.to_csv_string());
    }

    #[test]
    fn spread_scale_axis_sweeps_sigma_inside_one_campaign() {
        let nominal = DeviceParams::default();
        let spec = CampaignSpec {
            name: "sigma axis".into(),
            spreads: vec![ParamSpread::relative_normal(
                ParamField::FilamentRadius,
                1.0,
                &nominal,
            )],
            spread_scales: vec![0.0, 0.05, 0.1],
            trials: 2,
            seed: 11,
            max_pulses: 1_000,
            ..CampaignSpec::default()
        };
        assert_eq!(spec.num_points(), 6);
        let restored = CampaignSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(restored, spec);

        let points = spec.points();
        // σ = 0 points of nominal-centred spreads are the deterministic
        // nominal device (no table).
        assert!(spec.sampled_table(&points[0]).unwrap().is_none());
        // An *off-centre* spread keeps sampling at σ = 0 (it collapses
        // onto its own centre, not the nominal value): the σ axis is
        // continuous at 0.
        let off_centre = CampaignSpec {
            spreads: vec![ParamSpread {
                field: ParamField::FilamentRadius,
                distribution: Distribution::Normal {
                    mean: Some(2.0 * nominal.filament_radius),
                    sigma: 0.1 * nominal.filament_radius,
                },
                truncate_low: None,
                truncate_high: None,
            }],
            ..spec.clone()
        };
        let table = off_centre
            .sampled_table(&off_centre.points()[0])
            .unwrap()
            .expect("off-centre spreads sample at sigma = 0");
        for params in &table {
            assert_eq!(params.filament_radius, 2.0 * nominal.filament_radius);
        }
        // σ = 0.05 and σ = 0.1 sample different widths of the same shape.
        let p05 = points.iter().find(|p| p.spread_scale == 0.05).unwrap();
        let p10 = points.iter().find(|p| p.spread_scale == 0.1).unwrap();
        let (t05, t10) = (
            spec.sampled_table(p05).unwrap().unwrap(),
            spec.sampled_table(p10).unwrap().unwrap(),
        );
        assert_ne!(t05[0].filament_radius, t10[0].filament_radius);
        let deviation = |table: &[DeviceParams]| {
            table
                .iter()
                .map(|p| (p.filament_radius - nominal.filament_radius).abs())
                .sum::<f64>()
        };
        assert!(
            deviation(&t10) > deviation(&t05),
            "wider σ must spread further: {} vs {}",
            deviation(&t10),
            deviation(&t05)
        );
        // A scale of exactly 1.0 reproduces the unscaled sampling bit for
        // bit (existing single-σ campaigns are unchanged).
        let unscaled = CampaignSpec {
            spread_scales: vec![1.0],
            ..spec.clone()
        };
        let p1 = unscaled.points()[0];
        let table = unscaled.sampled_table(&p1).unwrap().unwrap();
        let direct = rram_variability::try_sample_table(
            &nominal,
            &unscaled.spreads,
            unscaled.point_seed(&p1),
            25,
        )
        .unwrap();
        for (a, b) in table.iter().zip(direct.iter()) {
            assert_eq!(a.filament_radius.to_bits(), b.filament_radius.to_bits());
        }
        // Different σ values own different fingerprints AND different
        // sampling seeds (a σ axis samples distinct device populations).
        assert_ne!(p05.id(), p10.id());
        assert_ne!(spec.point_seed(p05), spec.point_seed(p10));

        // Validation rejects degenerate scales.
        let mut bad = spec.clone();
        bad.spread_scales = vec![-0.5];
        assert!(matches!(
            bad.validate(),
            Err(CampaignError::InvalidValue(_))
        ));
        let mut bad = spec;
        bad.spread_scales.clear();
        assert!(matches!(bad.validate(), Err(CampaignError::EmptyAxis(_))));
    }

    #[test]
    fn sampled_tables_are_the_expanded_sampled_columns() {
        let nominal = DeviceParams::default();
        let spec = CampaignSpec {
            name: "columns".into(),
            spreads: vec![
                ParamSpread::relative_normal(ParamField::FilamentRadius, 1.0, &nominal),
                ParamSpread::relative_normal(ParamField::LDisc, 1.0, &nominal),
            ],
            spread_scales: vec![0.0, 0.05],
            amplitudes_v: vec![1.05, 1.15],
            trials: 2,
            seed: 42,
            ..CampaignSpec::default()
        };
        let mut sampled = 0;
        for point in spec.points() {
            let table = spec.sampled_table(&point).unwrap();
            let columns = spec.sampled_columns(&point).unwrap();
            // σ = 0 points of nominal-centred spreads sample nothing, in
            // either form.
            assert_eq!(table.is_some(), point.spread_scale != 0.0);
            assert_eq!(columns.is_some(), table.is_some());
            let (Some(table), Some(columns)) = (table, columns) else {
                continue;
            };
            sampled += 1;
            // The column form stores only the spread fields...
            assert!(columns.has_column(ParamField::FilamentRadius));
            assert!(columns.has_column(ParamField::LDisc));
            assert!(!columns.has_column(ParamField::EaSet));
            // ...and every lane equals the per-cell row-form sampling, bit
            // for bit, in every field.
            let spreads: Vec<ParamSpread> = spec
                .spreads
                .iter()
                .map(|s| s.scaled(point.spread_scale))
                .collect();
            assert_eq!(table.len(), point.rows * point.cols);
            for (lane, entry) in table.iter().enumerate() {
                let row = rram_variability::try_sample_params(
                    &nominal,
                    &spreads,
                    spec.point_seed(&point),
                    lane as u64,
                )
                .unwrap();
                let column = columns.lane(lane);
                for &field in ParamField::ALL {
                    let bits = field.get(&row).to_bits();
                    assert_eq!(field.get(entry).to_bits(), bits, "lane {lane}");
                    assert_eq!(field.get(&column).to_bits(), bits, "lane {lane}");
                }
            }
        }
        assert_eq!(sampled, spec.num_points() / 2);
    }

    #[test]
    fn backend_for_builds_a_ready_engine() {
        let spec = tiny_spec();
        let point = spec.points()[0];
        let mut backend = spec.backend_for(&point).unwrap();
        assert_eq!(backend.rows(), 5);
        let config = spec.attack_config(&point);
        let result = run_attack(backend.as_mut(), &config);
        assert!(result.flipped);
    }

    /// A valid grid with two values on every axis.
    fn two_of_everything() -> CampaignSpec {
        CampaignSpec {
            name: "two of everything".into(),
            array_sizes: vec![(3, 3), (4, 5)],
            patterns: vec![AttackPattern::SingleAggressor, AttackPattern::Quad],
            amplitudes_v: vec![1.05, 1.15],
            pulse_lengths_ns: vec![50.0, 100.0],
            duty_cycles: vec![0.5, 1.0],
            spacings_nm: vec![50.0, 70.0],
            ambients_k: vec![300.0, 350.0],
            schemes: vec![WriteScheme::HalfVoltage, WriteScheme::ThirdVoltage],
            guards: vec![
                GuardSpec::None,
                GuardSpec::WriteCounter {
                    threshold: 64,
                    window: Seconds(1.0),
                },
            ],
            spread_scales: vec![0.5, 1.0],
            backends: vec![
                BackendKind::Pulse,
                BackendKind::Detailed(rram_crossbar::WiringParasitics {
                    segment_resistance: rram_units::Ohms(200.0),
                    driver_resistance: rram_units::Ohms(1_000.0),
                }),
            ],
            trials: 2,
            ..CampaignSpec::default()
        }
    }

    #[test]
    fn every_axis_fingerprints_and_seeds_as_its_table_entry_says() {
        // Guards and backends are compared on identical sampled devices;
        // every other axis samples its own population.
        for axis in CampaignAxis::ALL {
            let paired = matches!(axis, CampaignAxis::Guard | CampaignAxis::Backend);
            assert_eq!(axis.device_relevant(), !paired, "{axis:?}");
        }
        // Points 0 and `stride` differ only in the axis's value index.
        let spec = two_of_everything();
        let points = spec.points();
        let mut stride = points.len();
        for axis in CampaignAxis::ALL {
            stride /= spec.axis_len(axis);
            let (a, b) = (&points[0], &points[stride]);
            for other in CampaignAxis::ALL {
                assert_eq!(
                    a.axis_label(other) == b.axis_label(other),
                    other != axis,
                    "{axis:?} step changes {other:?}"
                );
            }
            assert_ne!(a.id(), b.id(), "{axis:?}");
            let relevant = axis.device_relevant();
            assert_eq!(a.device_id() != b.device_id(), relevant, "{axis:?}");
            assert_eq!(
                spec.point_seed(a) != spec.point_seed(b),
                relevant,
                "{axis:?}"
            );
        }
        assert_eq!(stride, 1);
    }

    #[test]
    fn points_walk_the_mixed_radix_digits_of_their_index() {
        let spec = two_of_everything();
        assert_eq!(spec.num_points(), 1 << 12);
        assert_eq!(CampaignSpec::from_json(&spec.to_json()).unwrap(), spec);
        for (index, point) in spec.points().into_iter().enumerate() {
            // Binary digits of the index, most significant first, in ALL
            // order: the trial is the last (innermost) digit.
            let d = |axis: CampaignAxis| (index >> (11 - axis as usize)) & 1;
            let (rows, cols) = spec.array_sizes[d(CampaignAxis::ArraySize)];
            let expected = CampaignPoint {
                rows,
                cols,
                pattern: spec.patterns[d(CampaignAxis::Pattern)],
                amplitude: Volts(spec.amplitudes_v[d(CampaignAxis::Amplitude)]),
                pulse_length: Seconds(spec.pulse_lengths_ns[d(CampaignAxis::PulseLength)] * 1e-9),
                duty_cycle: spec.duty_cycles[d(CampaignAxis::DutyCycle)],
                spacing_nm: spec.spacings_nm[d(CampaignAxis::Spacing)],
                ambient: Kelvin(spec.ambients_k[d(CampaignAxis::Ambient)]),
                scheme: spec.schemes[d(CampaignAxis::Scheme)],
                guard: spec.guards[d(CampaignAxis::Guard)],
                spread_scale: spec.spread_scales[d(CampaignAxis::Spread)],
                backend: spec.backends[d(CampaignAxis::Backend)],
                trial: d(CampaignAxis::Trial) as u32,
            };
            assert_eq!(point, expected, "point {index}");
        }
    }

    #[test]
    fn hostile_grids_are_rejected_before_anything_is_allocated() {
        // 4e9 trials × 64⁵ values × 10 duty cycles ≈ 2^65 points.
        let values = format!(
            "[{}]",
            (1..=64)
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
        let overflowing = format!(
            r#"{{"trials": 4000000000, "amplitudes_v": {values}, "pulse_lengths_ns": {values},
                "spacings_nm": {values}, "ambients_k": {values}, "spread_scales": {values},
                "duty_cycles": [0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1]}}"#
        );
        for body in [
            // 4e9 trials: expanding the points would allocate ~480 GB.
            r#"{"trials": 4000000000}"#,
            // An axis product that overflows usize.
            &overflowing,
            // One point, but its array alone would take 16 GB of cells.
            r#"{"array_sizes": [[2, 1000000000]]}"#,
        ] {
            match CampaignSpec::from_json(body) {
                Err(CampaignError::InvalidValue(message)) => {
                    assert!(message.contains("at most") || message.contains("more than"));
                }
                other => panic!("{body} was not rejected: {other:?}"),
            }
        }
        // Couplings whose points would report a NaN ΔT or fail their field
        // solve in a worker.
        for body in [
            r#"{"coupling": {"kind": "uniform", "nearest": -5}}"#,
            r#"{"coupling": {"kind": "uniform", "nearest": 1.5}}"#,
            r#"{"coupling": {"kind": "fem", "voxel_nm": 0}}"#,
            // 25 nm voxels cannot resolve a 10 nm electrode spacing.
            r#"{"coupling": {"kind": "fem", "voxel_nm": 25}, "spacings_nm": [50, 10]}"#,
        ] {
            assert!(
                matches!(
                    CampaignSpec::from_json(body),
                    Err(CampaignError::InvalidValue(_))
                ),
                "{body} was not rejected"
            );
        }
        for nearest in [0.0, 1.0] {
            let spec = CampaignSpec {
                coupling: CouplingSpec::Uniform { nearest },
                ..CampaignSpec::default()
            };
            assert!(spec.validate().is_ok(), "nearest {nearest}");
        }
        // The bounds leave room for the largest grids and arrays in use.
        let big = CampaignSpec {
            array_sizes: vec![(1024, 1024)],
            trials: 1 << 20,
            ..CampaignSpec::default()
        };
        assert!(big.validate().is_ok());
        let bigger = CampaignSpec {
            trials: (1 << 20) + 1,
            ..big
        };
        assert!(matches!(
            bigger.validate(),
            Err(CampaignError::InvalidValue(_))
        ));
    }

    #[test]
    fn axis_flags_and_captions_are_stable() {
        let named: Vec<(&str, &str)> = CampaignAxis::ALL
            .iter()
            .map(|axis| (axis.flag(), axis.caption()))
            .collect();
        assert_eq!(
            named,
            [
                ("array-size", "array rows"),
                ("pattern", "attack pattern (index)"),
                ("amplitude", "amplitude [V]"),
                ("pulse-length", "pulse length [ns]"),
                ("duty-cycle", "duty cycle"),
                ("spacing", "electrode spacing [nm]"),
                ("ambient", "ambient temperature [K]"),
                ("scheme", "write scheme (index)"),
                ("guard", "guard threshold"),
                ("spread", "spread scale σ"),
                ("backend", "backend (index)"),
                ("trial", "trial"),
            ]
        );
        for axis in CampaignAxis::ALL {
            assert_eq!(CampaignAxis::from_flag(axis.flag()), Some(axis));
        }
        assert_eq!(CampaignAxis::from_flag("voltage"), None);
    }
}
