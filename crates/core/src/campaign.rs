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

pub mod checkpoint;
pub mod defense;
pub mod executor;
pub mod json;
pub mod stats;

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
use json::{Json, JsonError};
use rram_crossbar::{
    BackendKind, CellAddress, CrosstalkHub, EngineConfig, HammerBackend, WiringParasitics,
    WriteScheme,
};
use rram_defense::{BenignWorkload, DefenseOutcome, GuardSpec};
use rram_fem::alpha::{extract_alpha_cached, AlphaConfig};
use rram_fem::{AlphaError, AlphaMatrix, CrossbarGeometry};
use rram_jart::current::solve_operating_point;
use rram_jart::{DeviceParams, ParamColumns};
use rram_units::{Kelvin, Ohms, Seconds, Volts, Watts};
use rram_variability::{try_sample_columns, Distribution, ParamField, ParamSpread};

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
    /// [`crate::countermeasures::run_guarded_attack`].
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
    /// point fingerprints; it only pays off on large arrays (≳256×256).
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

/// One grid axis of a campaign (used to slice reports into sweep series).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignAxis {
    /// Array size (parameter value: number of rows).
    ArraySize,
    /// Attack pattern (parameter value: index in [`AttackPattern::ALL`]).
    Pattern,
    /// Hammer amplitude in volts.
    Amplitude,
    /// Pulse length in nanoseconds.
    PulseLength,
    /// Hammer duty cycle (fraction of the period under bias).
    DutyCycle,
    /// Electrode spacing in nanometres.
    Spacing,
    /// Ambient temperature in kelvin.
    Ambient,
    /// Write scheme (parameter value: index in
    /// [`rram_crossbar::WriteScheme::ALL`]).
    Scheme,
    /// Guard specification (parameter value: the guard's threshold
    /// coordinate, see [`GuardSpec::axis_value`]).
    Guard,
    /// Spread scale — the σ axis (parameter value: the scale factor).
    Spread,
    /// Simulation backend (parameter value: 0 = pulse, 1 = detailed,
    /// 2 = batched).
    Backend,
    /// Monte Carlo trial index.
    Trial,
}

impl CampaignAxis {
    /// All axes, in the column order reports use.
    pub const ALL: [CampaignAxis; 12] = [
        CampaignAxis::ArraySize,
        CampaignAxis::Pattern,
        CampaignAxis::Amplitude,
        CampaignAxis::PulseLength,
        CampaignAxis::DutyCycle,
        CampaignAxis::Spacing,
        CampaignAxis::Ambient,
        CampaignAxis::Scheme,
        CampaignAxis::Guard,
        CampaignAxis::Spread,
        CampaignAxis::Backend,
        CampaignAxis::Trial,
    ];
}

impl CampaignPoint {
    /// Numeric coordinate of this point along `axis`.
    pub fn axis_value(&self, axis: CampaignAxis) -> f64 {
        match axis {
            CampaignAxis::ArraySize => self.rows as f64,
            CampaignAxis::Pattern => self.pattern.index() as f64,
            CampaignAxis::Amplitude => self.amplitude.0,
            CampaignAxis::PulseLength => self.pulse_length.0 * 1e9,
            CampaignAxis::DutyCycle => self.duty_cycle,
            CampaignAxis::Spacing => self.spacing_nm,
            CampaignAxis::Ambient => self.ambient.0,
            CampaignAxis::Scheme => self.scheme.index() as f64,
            CampaignAxis::Guard => self.guard.axis_value(),
            CampaignAxis::Spread => self.spread_scale,
            CampaignAxis::Backend => match self.backend {
                BackendKind::Pulse => 0.0,
                BackendKind::Detailed(_) => 1.0,
                BackendKind::Batched => 2.0,
            },
            CampaignAxis::Trial => self.trial as f64,
        }
    }

    /// Human-readable label of this point along `axis`.
    pub fn axis_label(&self, axis: CampaignAxis) -> String {
        match axis {
            CampaignAxis::ArraySize => format!("{}x{}", self.rows, self.cols),
            CampaignAxis::Pattern => self.pattern.label().to_string(),
            CampaignAxis::Amplitude => format!("{:.2} V", self.amplitude.0),
            CampaignAxis::PulseLength => format!("{:.0} ns", self.pulse_length.0 * 1e9),
            CampaignAxis::DutyCycle => format!("d={:.0}%", self.duty_cycle * 100.0),
            CampaignAxis::Spacing => format!("{:.0} nm", self.spacing_nm),
            CampaignAxis::Ambient => format!("{:.0} K", self.ambient.0),
            CampaignAxis::Scheme => match self.scheme {
                WriteScheme::HalfVoltage => "V/2".to_string(),
                WriteScheme::ThirdVoltage => "V/3".to_string(),
                WriteScheme::GroundedUnselected => "grounded".to_string(),
            },
            CampaignAxis::Guard => self.guard.label(),
            CampaignAxis::Spread => format!("σ×{}", self.spread_scale),
            CampaignAxis::Backend => self.backend.label().to_string(),
            CampaignAxis::Trial => format!("trial {}", self.trial),
        }
    }

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
        fnv1a_words(&[
            self.rows as u64,
            self.cols as u64,
            self.pattern.index() as u64,
            self.amplitude.0.to_bits(),
            self.pulse_length.0.to_bits(),
            self.duty_cycle.to_bits(),
            self.spacing_nm.to_bits(),
            self.ambient.0.to_bits(),
            self.scheme.index() as u64,
            self.spread_scale.to_bits(),
            u64::from(self.trial),
        ])
    }

    /// Content fingerprint of this point: an FNV-1a hash over the exact bit
    /// patterns of every coordinate — stable across processes, machines and
    /// sessions. [`CampaignSpec::keyed_points`] mixes this with the spec's
    /// execution fingerprint to form the [`PointKey`] id, so outcomes from
    /// a different execution profile never silently replay.
    pub fn id(&self) -> u64 {
        let (backend_tag, segment_bits, driver_bits) = match self.backend {
            BackendKind::Pulse => (0u64, 0u64, 0u64),
            BackendKind::Detailed(p) => (
                1,
                p.segment_resistance.0.to_bits(),
                p.driver_resistance.0.to_bits(),
            ),
            BackendKind::Batched => (2, 0, 0),
        };
        let [guard_tag, guard_a, guard_b] = self.guard.fingerprint_words();
        fnv1a_words(&[
            self.rows as u64,
            self.cols as u64,
            self.pattern.index() as u64,
            self.amplitude.0.to_bits(),
            self.pulse_length.0.to_bits(),
            self.duty_cycle.to_bits(),
            self.spacing_nm.to_bits(),
            self.ambient.0.to_bits(),
            self.scheme.index() as u64,
            guard_tag,
            guard_a,
            guard_b,
            self.spread_scale.to_bits(),
            backend_tag,
            segment_bits,
            driver_bits,
            u64::from(self.trial),
        ])
    }
}

/// FNV-1a over the little-endian bytes of `words` — the stable fingerprint
/// primitive behind [`PointKey`].
pub(crate) fn fnv1a_words(words: &[u64]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
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
    /// ([`None`] when replayed from a pre-telemetry checkpoint).
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

/// Key identifying one resolved coupling matrix: rows, cols and the spacing
/// bit pattern (exact f64 identity is what we want for de-duplication).
type CouplingKey = (usize, usize, u64);

impl CampaignSpec {
    /// Number of grid points the campaign will execute (Monte Carlo trials
    /// count as grid points).
    pub fn num_points(&self) -> usize {
        self.array_sizes.len()
            * self.patterns.len()
            * self.amplitudes_v.len()
            * self.pulse_lengths_ns.len()
            * self.duty_cycles.len()
            * self.spacings_nm.len()
            * self.ambients_k.len()
            * self.schemes.len()
            * self.guards.len()
            * self.spread_scales.len()
            * self.backends.len()
            * self.trials as usize
    }

    /// Checks the grid is well formed.
    ///
    /// # Errors
    ///
    /// Returns the first [`CampaignError`] found.
    pub fn validate(&self) -> Result<(), CampaignError> {
        let axes: [(&'static str, bool); 11] = [
            ("array_sizes", self.array_sizes.is_empty()),
            ("patterns", self.patterns.is_empty()),
            ("amplitudes_v", self.amplitudes_v.is_empty()),
            ("pulse_lengths_ns", self.pulse_lengths_ns.is_empty()),
            ("duty_cycles", self.duty_cycles.is_empty()),
            ("spacings_nm", self.spacings_nm.is_empty()),
            ("ambients_k", self.ambients_k.is_empty()),
            ("schemes", self.schemes.is_empty()),
            ("guards", self.guards.is_empty()),
            ("spread_scales", self.spread_scales.is_empty()),
            ("backends", self.backends.is_empty()),
        ];
        for (name, empty) in axes {
            if empty {
                return Err(CampaignError::EmptyAxis(name));
            }
        }
        for &(rows, cols) in &self.array_sizes {
            if rows < 2 || cols < 2 {
                return Err(CampaignError::ArrayTooSmall { rows, cols });
            }
        }
        let finite_positive = |values: &[f64]| values.iter().all(|&v| v > 0.0 && v.is_finite());
        let positive: [(&str, bool); 4] = [
            ("amplitudes_v", finite_positive(&self.amplitudes_v)),
            ("pulse_lengths_ns", finite_positive(&self.pulse_lengths_ns)),
            ("spacings_nm", finite_positive(&self.spacings_nm)),
            ("ambients_k", finite_positive(&self.ambients_k)),
        ];
        for (name, ok) in positive {
            if !ok {
                return Err(CampaignError::InvalidValue(format!(
                    "{name} must be strictly positive and finite"
                )));
            }
        }
        if self
            .duty_cycles
            .iter()
            .any(|&d| !(d > 0.0 && d <= 1.0 && d.is_finite()))
        {
            return Err(CampaignError::InvalidValue(
                "duty_cycles must lie in (0, 1]".into(),
            ));
        }
        for guard in &self.guards {
            guard
                .validate()
                .map_err(|e| CampaignError::InvalidValue(format!("invalid guard: {e}")))?;
        }
        if self
            .spread_scales
            .iter()
            .any(|&s| !(s >= 0.0 && s.is_finite()))
        {
            return Err(CampaignError::InvalidValue(
                "spread_scales must be finite and ≥ 0".into(),
            ));
        }
        if self.max_pulses == 0 {
            return Err(CampaignError::InvalidValue(
                "max_pulses must be at least 1".into(),
            ));
        }
        if self.benign_writes == 0 {
            return Err(CampaignError::InvalidValue(
                "benign_writes must be at least 1".into(),
            ));
        }
        if self.trials == 0 {
            return Err(CampaignError::InvalidValue(
                "trials must be at least 1".into(),
            ));
        }
        for spread in &self.spreads {
            spread
                .validate()
                .map_err(|e| CampaignError::InvalidValue(format!("invalid spread: {e}")))?;
        }
        if self.tau_ns < 0.0 || !self.tau_ns.is_finite() {
            return Err(CampaignError::InvalidValue(
                "tau_ns must be finite and ≥ 0".into(),
            ));
        }
        Ok(())
    }

    /// Expands the grid into its points (row-major over the axes in
    /// [`CampaignAxis::ALL`] order).
    pub fn points(&self) -> Vec<CampaignPoint> {
        let mut points = Vec::with_capacity(self.num_points());
        for &(rows, cols) in &self.array_sizes {
            for &pattern in &self.patterns {
                for &amplitude in &self.amplitudes_v {
                    for &length_ns in &self.pulse_lengths_ns {
                        for &duty in &self.duty_cycles {
                            for &spacing in &self.spacings_nm {
                                for &ambient in &self.ambients_k {
                                    for &scheme in &self.schemes {
                                        for &guard in &self.guards {
                                            for &spread_scale in &self.spread_scales {
                                                for &backend in &self.backends {
                                                    for trial in 0..self.trials {
                                                        points.push(CampaignPoint {
                                                            rows,
                                                            cols,
                                                            pattern,
                                                            amplitude: Volts(amplitude),
                                                            pulse_length: Seconds(length_ns * 1e-9),
                                                            duty_cycle: duty,
                                                            spacing_nm: spacing,
                                                            ambient: Kelvin(ambient),
                                                            scheme,
                                                            guard,
                                                            spread_scale,
                                                            backend,
                                                            trial,
                                                        });
                                                    }
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        points
    }

    /// Fingerprint of the execution-relevant spec fields that are *not*
    /// part of any point's coordinates: the coupling source, the crosstalk
    /// time constant, the pulse budget, the batching mode and the amplitude
    /// the FEM power sweep is anchored to. Mixed into every [`PointKey`] so
    /// a checkpoint recorded under a different execution profile (e.g. a
    /// `--quick` run) never silently replays into a full-fidelity one.
    fn execution_fingerprint(&self) -> u64 {
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

    /// Public form of the execution fingerprint, for report provenance
    /// (the `--html` export stamps it next to the campaign name so two
    /// artifacts are comparable at a glance).
    pub fn fingerprint(&self) -> u64 {
        self.execution_fingerprint()
    }

    /// Expands the grid into `(key, point)` pairs in grid order — the form
    /// the [`CampaignExecutor`] shards and checkpoints operate on. Each
    /// key's `id` fingerprints both the point's coordinates and the spec's
    /// execution-relevant fields.
    pub fn keyed_points(&self) -> Vec<(PointKey, CampaignPoint)> {
        let execution = self.execution_fingerprint();
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

    /// Resolves the coupling matrices for every unique (array size, spacing)
    /// combination the grid touches. For [`CouplingSpec::Uniform`] this is a
    /// cheap synthesis; for [`CouplingSpec::Fem`] one field extraction per
    /// combination, de-duplicated so a pulse-length × spacing grid does not
    /// re-solve the thermal field per pulse length. With `cache_dir` given,
    /// extractions additionally go through the on-disk α cache
    /// ([`rram_fem::alpha::extract_alpha_disk_cached`]) so repeated campaign
    /// *processes* skip the field solve too.
    fn resolve_couplings(
        &self,
        points: &[CampaignPoint],
        cache_dir: Option<&std::path::Path>,
    ) -> Result<HashMap<CouplingKey, AlphaMatrix>, CampaignError> {
        let tau = Seconds(self.tau_ns * 1e-9);
        let mut couplings = HashMap::new();
        for point in points {
            let key = (point.rows, point.cols, point.spacing_nm.to_bits());
            if couplings.contains_key(&key) {
                continue;
            }
            let alpha = match self.coupling {
                CouplingSpec::Uniform { nearest } => {
                    CrosstalkHub::two_ring(point.rows, point.cols, nearest, tau)
                        .alpha()
                        .clone()
                }
                CouplingSpec::Fem { voxel_nm } => {
                    let geometry = CrossbarGeometry {
                        rows: point.rows,
                        cols: point.cols,
                        electrode_spacing_nm: point.spacing_nm,
                        voxel_nm,
                        ..CrossbarGeometry::default()
                    };
                    let device = DeviceParams::default();
                    let p = solve_operating_point(&device, self.amplitudes_v[0], device.n_max)
                        .power_active;
                    let config = AlphaConfig {
                        ambient: Kelvin(300.0),
                        selected: (point.rows / 2, point.cols / 2),
                        powers: vec![Watts(0.25 * p), Watts(0.5 * p), Watts(0.75 * p), Watts(p)],
                    };
                    match cache_dir {
                        Some(dir) => {
                            rram_fem::alpha::extract_alpha_disk_cached(&geometry, &config, dir)?
                                .alpha
                        }
                        None => extract_alpha_cached(&geometry, &config)?.alpha,
                    }
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
        let sizes = self
            .array_sizes
            .iter()
            .map(|&(r, c)| Json::Array(vec![Json::Number(r as f64), Json::Number(c as f64)]))
            .collect();
        let coupling = match self.coupling {
            CouplingSpec::Uniform { nearest } => Json::Object(vec![
                ("kind".into(), Json::String("uniform".into())),
                ("nearest".into(), Json::Number(nearest)),
            ]),
            CouplingSpec::Fem { voxel_nm } => Json::Object(vec![
                ("kind".into(), Json::String("fem".into())),
                ("voxel_nm".into(), Json::Number(voxel_nm)),
            ]),
        };
        let numbers =
            |values: &[f64]| Json::Array(values.iter().map(|&v| Json::Number(v)).collect());
        Json::Object(vec![
            ("name".into(), Json::String(self.name.clone())),
            ("array_sizes".into(), Json::Array(sizes)),
            (
                "patterns".into(),
                Json::Array(
                    self.patterns
                        .iter()
                        .map(|p| Json::String(p.label().into()))
                        .collect(),
                ),
            ),
            ("amplitudes_v".into(), numbers(&self.amplitudes_v)),
            ("pulse_lengths_ns".into(), numbers(&self.pulse_lengths_ns)),
            ("duty_cycles".into(), numbers(&self.duty_cycles)),
            ("spacings_nm".into(), numbers(&self.spacings_nm)),
            ("ambients_k".into(), numbers(&self.ambients_k)),
            (
                "schemes".into(),
                Json::Array(
                    self.schemes
                        .iter()
                        .map(|s| Json::String(s.label().into()))
                        .collect(),
                ),
            ),
            (
                "guards".into(),
                Json::Array(self.guards.iter().map(guard_to_json).collect()),
            ),
            ("spread_scales".into(), numbers(&self.spread_scales)),
            (
                "backends".into(),
                Json::Array(self.backends.iter().map(backend_to_json).collect()),
            ),
            ("coupling".into(), coupling),
            (
                "spreads".into(),
                Json::Array(self.spreads.iter().map(spread_to_json).collect()),
            ),
            ("trials".into(), Json::Number(f64::from(self.trials))),
            ("seed".into(), seed_to_json(self.seed)),
            (
                "benign_writes".into(),
                Json::Number(self.benign_writes as f64),
            ),
            ("tau_ns".into(), Json::Number(self.tau_ns)),
            ("max_pulses".into(), Json::Number(self.max_pulses as f64)),
            ("batching".into(), Json::Bool(self.batching)),
            ("threads".into(), Json::Number(self.threads as f64)),
            (
                "backend_threads".into(),
                Json::Number(self.backend_threads as f64),
            ),
        ])
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

        let bad = |key: &str, expected: &str| {
            CampaignError::Json(format!("key {key:?} must be {expected}"))
        };
        let number_list = |key: &str, value: &Json| -> Result<Vec<f64>, CampaignError> {
            value
                .as_array()
                .ok_or_else(|| bad(key, "an array of numbers"))?
                .iter()
                .map(|v| v.as_f64().ok_or_else(|| bad(key, "an array of numbers")))
                .collect()
        };

        for (key, value) in entries {
            match key.as_str() {
                "name" => {
                    spec.name = value
                        .as_str()
                        .ok_or_else(|| bad(key, "a string"))?
                        .to_string();
                }
                "array_sizes" => {
                    let sizes = value
                        .as_array()
                        .ok_or_else(|| bad(key, "an array of [rows, cols] pairs"))?;
                    spec.array_sizes = sizes
                        .iter()
                        .map(|pair| {
                            let pair = pair
                                .as_array()
                                .filter(|p| p.len() == 2)
                                .ok_or_else(|| bad(key, "an array of [rows, cols] pairs"))?;
                            let rows = pair[0]
                                .as_u64()
                                .ok_or_else(|| bad(key, "an array of [rows, cols] pairs"))?;
                            let cols = pair[1]
                                .as_u64()
                                .ok_or_else(|| bad(key, "an array of [rows, cols] pairs"))?;
                            Ok((rows as usize, cols as usize))
                        })
                        .collect::<Result<_, CampaignError>>()?;
                }
                "patterns" => {
                    let patterns = value
                        .as_array()
                        .ok_or_else(|| bad(key, "an array of pattern labels"))?;
                    spec.patterns = patterns
                        .iter()
                        .map(|p| {
                            p.as_str()
                                .ok_or_else(|| bad(key, "an array of pattern labels"))?
                                .parse::<AttackPattern>()
                                .map_err(CampaignError::Json)
                        })
                        .collect::<Result<_, CampaignError>>()?;
                }
                "amplitudes_v" => spec.amplitudes_v = number_list(key, value)?,
                "pulse_lengths_ns" => spec.pulse_lengths_ns = number_list(key, value)?,
                "duty_cycles" => spec.duty_cycles = number_list(key, value)?,
                "spacings_nm" => spec.spacings_nm = number_list(key, value)?,
                "ambients_k" => spec.ambients_k = number_list(key, value)?,
                "spread_scales" => spec.spread_scales = number_list(key, value)?,
                "schemes" => {
                    let schemes = value
                        .as_array()
                        .ok_or_else(|| bad(key, "an array of scheme labels"))?;
                    spec.schemes = schemes
                        .iter()
                        .map(|s| {
                            s.as_str()
                                .ok_or_else(|| bad(key, "an array of scheme labels"))?
                                .parse::<WriteScheme>()
                                .map_err(CampaignError::Json)
                        })
                        .collect::<Result<_, CampaignError>>()?;
                }
                "guards" => {
                    let guards = value
                        .as_array()
                        .ok_or_else(|| bad(key, "an array of guard labels/objects"))?;
                    spec.guards = guards
                        .iter()
                        .map(guard_from_json)
                        .collect::<Result<_, CampaignError>>()?;
                }
                "backends" => {
                    let backends = value
                        .as_array()
                        .ok_or_else(|| bad(key, "an array of backend labels/objects"))?;
                    spec.backends = backends.iter().map(backend_from_json).collect::<Result<
                        _,
                        CampaignError,
                    >>(
                    )?;
                }
                "coupling" => {
                    let kind = value
                        .get("kind")
                        .and_then(Json::as_str)
                        .ok_or_else(|| bad(key, "an object with a \"kind\""))?;
                    spec.coupling = match kind {
                        "uniform" => CouplingSpec::Uniform {
                            nearest: value
                                .get("nearest")
                                .and_then(Json::as_f64)
                                .ok_or_else(|| bad(key, "uniform coupling with \"nearest\""))?,
                        },
                        "fem" => CouplingSpec::Fem {
                            voxel_nm: value
                                .get("voxel_nm")
                                .and_then(Json::as_f64)
                                .ok_or_else(|| bad(key, "fem coupling with \"voxel_nm\""))?,
                        },
                        other => {
                            return Err(CampaignError::Json(format!(
                                "unknown coupling kind {other:?}"
                            )))
                        }
                    };
                }
                "spreads" => {
                    let spreads = value
                        .as_array()
                        .ok_or_else(|| bad(key, "an array of spread objects"))?;
                    spec.spreads = spreads
                        .iter()
                        .map(spread_from_json)
                        .collect::<Result<_, CampaignError>>()?;
                }
                "trials" => {
                    let trials = value.as_u64().ok_or_else(|| bad(key, "an integer"))?;
                    spec.trials = u32::try_from(trials)
                        .map_err(|_| bad(key, "an integer fitting in 32 bits"))?;
                }
                "seed" => spec.seed = seed_from_json(value)?,
                "benign_writes" => {
                    spec.benign_writes = value.as_u64().ok_or_else(|| bad(key, "an integer"))?;
                }
                "tau_ns" => {
                    spec.tau_ns = value.as_f64().ok_or_else(|| bad(key, "a number"))?;
                }
                "max_pulses" => {
                    spec.max_pulses = value.as_u64().ok_or_else(|| bad(key, "an integer"))?;
                }
                "batching" => {
                    spec.batching = value.as_bool().ok_or_else(|| bad(key, "a boolean"))?;
                }
                "threads" => {
                    spec.threads =
                        value.as_u64().ok_or_else(|| bad(key, "an integer"))?.max(1) as usize;
                }
                "backend_threads" => {
                    spec.backend_threads =
                        value.as_u64().ok_or_else(|| bad(key, "an integer"))?.max(1) as usize;
                }
                // Every spec written before the fast-math tier was removed
                // carries `"backend_fast_math": false`; keep reading those.
                "backend_fast_math" => {
                    if value.as_bool().ok_or_else(|| bad(key, "a boolean"))? {
                        return Err(CampaignError::Json(
                            "the fast-math tier (\"backend_fast_math\": true) was removed; \
                             drop the key or set it to false"
                                .into(),
                        ));
                    }
                }
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

/// Serialises one device-parameter spread: the field label, the
/// distribution kind and its parameters, plus any truncation bounds.
/// Omitted `mean`/`median` mean "centred on the nominal value".
fn spread_to_json(spread: &ParamSpread) -> Json {
    let mut entries = vec![(
        "field".into(),
        Json::String(spread.field.label().to_string()),
    )];
    match spread.distribution {
        Distribution::Normal { mean, sigma } => {
            entries.push(("kind".into(), Json::String("normal".into())));
            if let Some(mean) = mean {
                entries.push(("mean".into(), Json::Number(mean)));
            }
            entries.push(("sigma".into(), Json::Number(sigma)));
        }
        Distribution::LogNormal { median, sigma } => {
            entries.push(("kind".into(), Json::String("lognormal".into())));
            if let Some(median) = median {
                entries.push(("median".into(), Json::Number(median)));
            }
            entries.push(("sigma".into(), Json::Number(sigma)));
        }
        Distribution::Uniform { low, high } => {
            entries.push(("kind".into(), Json::String("uniform".into())));
            entries.push(("low".into(), Json::Number(low)));
            entries.push(("high".into(), Json::Number(high)));
        }
    }
    if let Some(low) = spread.truncate_low {
        entries.push(("truncate_low".into(), Json::Number(low)));
    }
    if let Some(high) = spread.truncate_high {
        entries.push(("truncate_high".into(), Json::Number(high)));
    }
    Json::Object(entries)
}

/// Parses a spread entry written by [`spread_to_json`].
fn spread_from_json(value: &Json) -> Result<ParamSpread, CampaignError> {
    let bad = |message: &str| CampaignError::Json(format!("invalid spread: {message}"));
    let field = value
        .get("field")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing \"field\" label"))?
        .parse::<ParamField>()
        .map_err(CampaignError::Json)?;
    let kind = value
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing \"kind\""))?;
    let number = |key: &str| -> Result<f64, CampaignError> {
        value
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| bad(&format!("{key:?} must be a number")))
    };
    let optional = |key: &str| -> Result<Option<f64>, CampaignError> {
        match value.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_f64()
                .map(Some)
                .ok_or_else(|| bad(&format!("{key:?} must be a number"))),
        }
    };
    let distribution = match kind {
        "normal" => Distribution::Normal {
            mean: optional("mean")?,
            sigma: number("sigma")?,
        },
        "lognormal" => Distribution::LogNormal {
            median: optional("median")?,
            sigma: number("sigma")?,
        },
        "uniform" => Distribution::Uniform {
            low: number("low")?,
            high: number("high")?,
        },
        other => return Err(bad(&format!("unknown distribution kind {other:?}"))),
    };
    Ok(ParamSpread {
        field,
        distribution,
        truncate_low: optional("truncate_low")?,
        truncate_high: optional("truncate_high")?,
    })
}

/// Serialises one guard specification. The undefended baseline is the
/// plain string `"none"`; real guards are objects carrying the kind tag and
/// their exact operating point:
/// `{"kind": "counter", "threshold": 64, "window_s": 1.0}`,
/// `{"kind": "thermal", "threshold_k": 20.0, "cooldown_s": 1e-6}`,
/// `{"kind": "scrub", "period_s": 5e-6}`.
pub(crate) fn guard_to_json(guard: &GuardSpec) -> Json {
    match guard {
        GuardSpec::None => Json::String("none".into()),
        GuardSpec::WriteCounter { threshold, window } => Json::Object(vec![
            ("kind".into(), Json::String("counter".into())),
            ("threshold".into(), Json::Number(*threshold as f64)),
            ("window_s".into(), Json::Number(window.0)),
        ]),
        GuardSpec::ThermalSensor {
            threshold,
            cooldown,
        } => Json::Object(vec![
            ("kind".into(), Json::String("thermal".into())),
            ("threshold_k".into(), Json::Number(threshold.0)),
            ("cooldown_s".into(), Json::Number(cooldown.0)),
        ]),
        GuardSpec::Scrubbing { period } => Json::Object(vec![
            ("kind".into(), Json::String("scrub".into())),
            ("period_s".into(), Json::Number(period.0)),
        ]),
    }
}

/// Parses a guard entry written by [`guard_to_json`].
pub(crate) fn guard_from_json(value: &Json) -> Result<GuardSpec, CampaignError> {
    let bad = |message: &str| CampaignError::Json(format!("invalid guard: {message}"));
    if let Some(label) = value.as_str() {
        return match label {
            "none" => Ok(GuardSpec::None),
            other => Err(bad(&format!(
                "unknown guard label {other:?} (only \"none\" is a bare label; \
                 real guards are objects with a \"kind\")"
            ))),
        };
    }
    let kind = value
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("guard entries must be \"none\" or an object with a \"kind\""))?;
    let number = |key: &str| -> Result<f64, CampaignError> {
        value
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| bad(&format!("{key:?} must be a number")))
    };
    match kind {
        "counter" => Ok(GuardSpec::WriteCounter {
            threshold: value
                .get("threshold")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("\"threshold\" must be a non-negative integer"))?,
            window: Seconds(number("window_s")?),
        }),
        "thermal" => Ok(GuardSpec::ThermalSensor {
            threshold: Kelvin(number("threshold_k")?),
            cooldown: Seconds(number("cooldown_s")?),
        }),
        "scrub" => Ok(GuardSpec::Scrubbing {
            period: Seconds(number("period_s")?),
        }),
        other => Err(bad(&format!("unknown guard kind {other:?}"))),
    }
}

/// Serialises a backend choice: `"pulse"`, `"detailed"` (default
/// parasitics), or an object carrying non-default wiring parasitics so the
/// archived spec reproduces the same physics.
fn backend_to_json(backend: &BackendKind) -> Json {
    match backend {
        BackendKind::Pulse => Json::String("pulse".into()),
        BackendKind::Batched => Json::String("batched".into()),
        BackendKind::Detailed(parasitics) => {
            if *parasitics == WiringParasitics::default() {
                Json::String("detailed".into())
            } else {
                Json::Object(vec![
                    ("kind".into(), Json::String("detailed".into())),
                    (
                        "segment_ohms".into(),
                        Json::Number(parasitics.segment_resistance.0),
                    ),
                    (
                        "driver_ohms".into(),
                        Json::Number(parasitics.driver_resistance.0),
                    ),
                ])
            }
        }
    }
}

/// Parses a backend entry written by [`backend_to_json`].
fn backend_from_json(value: &Json) -> Result<BackendKind, CampaignError> {
    if let Some(label) = value.as_str() {
        if label == "surrogate" {
            return Err(CampaignError::Json(
                "the surrogate backend was removed; use \"batched\"".into(),
            ));
        }
        return label.parse::<BackendKind>().map_err(CampaignError::Json);
    }
    let kind = value.get("kind").and_then(Json::as_str).ok_or_else(|| {
        CampaignError::Json(r#"backend entries must be a label or an object with a "kind""#.into())
    })?;
    if kind != "detailed" {
        return Err(CampaignError::Json(format!(
            "only the detailed backend takes parameters, got kind {kind:?}"
        )));
    }
    let defaults = WiringParasitics::default();
    let field = |name: &str, fallback: f64| -> Result<f64, CampaignError> {
        match value.get(name) {
            None => Ok(fallback),
            Some(v) => v.as_f64().filter(|n| *n >= 0.0).ok_or_else(|| {
                CampaignError::Json(format!("backend field {name:?} must be a number ≥ 0"))
            }),
        }
    };
    Ok(BackendKind::Detailed(WiringParasitics {
        segment_resistance: Ohms(field("segment_ohms", defaults.segment_resistance.0)?),
        driver_resistance: Ohms(field("driver_ohms", defaults.driver_resistance.0)?),
    }))
}

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
        let mut table = rram_analysis::Table::with_headers(&[
            "backend",
            "array",
            "pattern",
            "amplitude",
            "pulse len",
            "duty",
            "spacing",
            "ambient",
            "scheme",
            "guard",
            "σ scale",
            "trial",
            "# pulses to bit-flip",
            "victim drift",
        ]);
        for outcome in &self.outcomes {
            let p = &outcome.point;
            table.push_row(vec![
                p.axis_label(CampaignAxis::Backend),
                p.axis_label(CampaignAxis::ArraySize),
                p.axis_label(CampaignAxis::Pattern),
                p.axis_label(CampaignAxis::Amplitude),
                p.axis_label(CampaignAxis::PulseLength),
                p.axis_label(CampaignAxis::DutyCycle),
                p.axis_label(CampaignAxis::Spacing),
                p.axis_label(CampaignAxis::Ambient),
                p.axis_label(CampaignAxis::Scheme),
                p.guard.label(),
                format!("{}", p.spread_scale),
                p.trial.to_string(),
                if outcome.flipped {
                    outcome.pulses.to_string()
                } else {
                    "no flip within budget".into()
                },
                if outcome.victim_drift.abs() < 1e-3 {
                    format!("{:.3e}", outcome.victim_drift)
                } else {
                    format!("{:.3}", outcome.victim_drift)
                },
            ]);
        }
        table
    }

    /// Renders the report as CSV (same columns as the table, plus the raw
    /// numeric extras).
    pub fn to_csv_string(&self) -> String {
        // Defence columns are empty on unguarded points.
        let optional = |value: Option<String>| value.unwrap_or_default();
        let rows: Vec<Vec<String>> = self
            .outcomes
            .iter()
            .map(|outcome| {
                let p = &outcome.point;
                vec![
                    p.backend.label().to_string(),
                    p.rows.to_string(),
                    p.cols.to_string(),
                    p.pattern.label().to_string(),
                    format!("{}", p.amplitude.0),
                    format!("{}", p.pulse_length.0 * 1e9),
                    format!("{}", p.duty_cycle),
                    format!("{}", p.spacing_nm),
                    format!("{}", p.ambient.0),
                    p.scheme.label().to_string(),
                    p.guard.kind_label().to_string(),
                    format!("{}", p.guard.axis_value()),
                    format!("{}", p.spread_scale),
                    p.trial.to_string(),
                    outcome.flipped.to_string(),
                    outcome.pulses.to_string(),
                    format!("{}", outcome.victim_drift),
                    format!("{}", outcome.final_crosstalk.0),
                    format!("{}", outcome.sim_time.0),
                    outcome.collateral_flips.to_string(),
                    optional(outcome.defense.map(|d| d.blocked.to_string())),
                    optional(
                        outcome
                            .defense
                            .and_then(|d| d.pulses_to_detection)
                            .map(|p| p.to_string()),
                    ),
                    optional(outcome.defense.map(|d| d.refreshes.to_string())),
                    optional(outcome.defense.map(|d| format!("{}", d.throttle_time.0))),
                    optional(outcome.defense.map(|d| d.false_triggers.to_string())),
                    optional(outcome.defense.map(|d| format!("{}", d.energy_overhead.0))),
                    optional(outcome.defense.map(|d| format!("{}", d.latency_overhead.0))),
                    optional(outcome.defense.map(|d| format!("{}", d.overhead_fraction))),
                ]
            })
            .collect();
        rram_analysis::csv::to_csv_string(
            &[
                "backend",
                "rows",
                "cols",
                "pattern",
                "amplitude_v",
                "pulse_length_ns",
                "duty_cycle",
                "spacing_nm",
                "ambient_k",
                "scheme",
                "guard_kind",
                "guard_threshold",
                "spread_scale",
                "trial",
                "flipped",
                "pulses",
                "victim_drift",
                "final_crosstalk_k",
                "sim_time_s",
                "collateral_flips",
                "blocked",
                "pulses_to_detection",
                "refreshes",
                "throttle_time_s",
                "false_triggers",
                "energy_overhead_j",
                "latency_overhead_s",
                "overhead_fraction",
            ],
            &rows,
        )
    }

    /// Slices the report into one [`SweepSeries`] per combination of the
    /// *other* axes, with `axis` as the swept parameter — the shape the
    /// figure binaries plot. Series and points keep grid order; points are
    /// sorted by the axis value.
    pub fn series_over(&self, axis: CampaignAxis) -> Vec<SweepSeries> {
        let mut order: Vec<String> = Vec::new();
        let mut groups: HashMap<String, Vec<&CampaignOutcome>> = HashMap::new();
        for outcome in &self.outcomes {
            let key = outcome.point.series_key(axis);
            if !groups.contains_key(&key) {
                order.push(key.clone());
            }
            groups.entry(key).or_default().push(outcome);
        }
        order
            .into_iter()
            .map(|key| {
                let mut members = groups.remove(&key).expect("group exists");
                members.sort_by(|a, b| {
                    a.point
                        .axis_value(axis)
                        .partial_cmp(&b.point.axis_value(axis))
                        .expect("axis values are finite")
                });
                SweepSeries {
                    name: key,
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

    /// Cross-backend agreement in one number: for every group of points that
    /// differ *only* in their backend, the victim-drift ratio between the
    /// most- and least-progressed backend; the maximum over all groups is
    /// returned. `None` when no group contains more than one backend or a
    /// drift is not positive.
    pub fn max_backend_drift_ratio(&self) -> Option<f64> {
        let mut groups: HashMap<String, Vec<f64>> = HashMap::new();
        for outcome in &self.outcomes {
            groups
                .entry(outcome.point.series_key(CampaignAxis::Backend))
                .or_default()
                .push(outcome.victim_drift);
        }
        let mut worst: Option<f64> = None;
        for drifts in groups.values() {
            if drifts.len() < 2 {
                continue;
            }
            let min = drifts.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = drifts.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
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
}
