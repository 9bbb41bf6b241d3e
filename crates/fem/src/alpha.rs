//! Extraction of the thermal resistance and the crosstalk coefficients
//! ("alpha values", Eq. 3–4 of the paper).
//!
//! The dissipated power of the selected cell is swept; for every cell of the
//! array the mean filament temperature is regressed against that power:
//!
//! ```text
//!   T_sel(P)  = T₀ + R_th · P            (Eq. 3)
//!   T_ij(P)   = T₀ + R_th · α_ij · P      (Eq. 4)
//! ```
//!
//! `R_th` is the slope of the selected cell's fit and `α_ij` the ratio of
//! cell (i,j)'s slope to the selected cell's slope. Because the steady-state
//! heat equation is linear, the fits are essentially exact (R² ≈ 1); the
//! regression is kept anyway because it mirrors the paper's methodology and
//! doubles as a numerical linearity check.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::{Mutex, OnceLock};

use serde::{Deserialize, Serialize};

use crate::geometry::{CrossbarGeometry, GeometryError};
use crate::heat::{sweep_cell_matrices, CellTemperatureMatrix};
use crate::solver::SolveError;
use rram_analysis::regression::{linear_fit, FitError};
use rram_units::{Kelvin, KelvinPerWatt, Watts};

/// The matrix of crosstalk coefficients for one selected (aggressor) cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlphaMatrix {
    rows: usize,
    cols: usize,
    selected_row: usize,
    selected_col: usize,
    /// α value per cell, row-major. The selected cell carries α = 1.
    values: Vec<f64>,
}

impl AlphaMatrix {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The selected (aggressor) cell this matrix was extracted for.
    pub fn selected(&self) -> (usize, usize) {
        (self.selected_row, self.selected_col)
    }

    /// α value of cell `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "cell out of range");
        self.values[row * self.cols + col]
    }

    /// α value looked up by the offset from the selected cell. Offsets beyond
    /// the extracted array return 0 (no coupling).
    ///
    /// The crosstalk hub uses this to apply one extraction (selected cell in
    /// the array centre) to arbitrary aggressor/victim pairs via translation:
    /// coupling is assumed to depend only on the relative cell offset, which
    /// holds away from the array edges.
    pub fn alpha_by_offset(&self, d_row: isize, d_col: isize) -> f64 {
        let row = self.selected_row as isize + d_row;
        let col = self.selected_col as isize + d_col;
        if row < 0 || col < 0 || row >= self.rows as isize || col >= self.cols as isize {
            return 0.0;
        }
        self.get(row as usize, col as usize)
    }

    /// Iterates over `(row, col, alpha)` in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(move |(i, &v)| (i / self.cols, i % self.cols, v))
    }

    /// Largest α value excluding the selected cell itself — the coupling to
    /// the most exposed victim.
    pub fn max_neighbor_alpha(&self) -> f64 {
        self.iter()
            .filter(|&(r, c, _)| (r, c) != (self.selected_row, self.selected_col))
            .map(|(_, _, a)| a)
            .fold(0.0, f64::max)
    }

    /// Builds a matrix directly from raw values (primarily for tests and for
    /// loading previously extracted coefficients).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != rows * cols` or the selected cell is out of
    /// range.
    pub fn from_values(
        rows: usize,
        cols: usize,
        selected: (usize, usize),
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(
            values.len(),
            rows * cols,
            "value count must match the array"
        );
        assert!(
            selected.0 < rows && selected.1 < cols,
            "selected cell out of range"
        );
        AlphaMatrix {
            rows,
            cols,
            selected_row: selected.0,
            selected_col: selected.1,
            values,
        }
    }
}

/// Result of the crosstalk-coefficient extraction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlphaExtraction {
    /// Thermal resistance of the selected cell (Eq. 3), K/W.
    pub r_th: KelvinPerWatt,
    /// Fitted ambient temperature intercept, K.
    pub t0: Kelvin,
    /// The crosstalk coefficient matrix.
    pub alpha: AlphaMatrix,
    /// Worst-case (lowest) R² over all per-cell fits — a linearity check.
    pub min_r_squared: f64,
    /// The cell-temperature matrix at the largest swept power
    /// (this is the Fig. 2a heat map).
    pub temperature_matrix: CellTemperatureMatrix,
}

/// Errors of the extraction flow.
#[derive(Debug, Clone, PartialEq)]
pub enum AlphaError {
    /// The geometry configuration is invalid.
    Geometry(GeometryError),
    /// The heat solve failed.
    Solve(SolveError),
    /// A regression failed (degenerate power sweep).
    Fit(FitError),
    /// Fewer than two powers were supplied.
    NotEnoughPowers {
        /// Number of powers supplied.
        provided: usize,
    },
    /// The selected cell lies outside the array.
    SelectedOutOfRange {
        /// Requested cell.
        cell: (usize, usize),
        /// Array dimensions.
        dims: (usize, usize),
    },
    /// The ambient temperature or a swept power is NaN or infinite.
    NotFinite {
        /// `"ambient"` or `"power"`.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for AlphaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlphaError::Geometry(e) => write!(f, "geometry error: {e}"),
            AlphaError::Solve(e) => write!(f, "heat solve failed: {e}"),
            AlphaError::Fit(e) => write!(f, "regression failed: {e}"),
            AlphaError::NotEnoughPowers { provided } => {
                write!(f, "power sweep needs at least 2 points, got {provided}")
            }
            AlphaError::SelectedOutOfRange { cell, dims } => write!(
                f,
                "selected cell ({}, {}) outside a {}×{} array",
                cell.0, cell.1, dims.0, dims.1
            ),
            AlphaError::NotFinite { name, value } => {
                write!(f, "{name} must be finite, got {value}")
            }
        }
    }
}

impl Error for AlphaError {}

impl From<GeometryError> for AlphaError {
    fn from(e: GeometryError) -> Self {
        AlphaError::Geometry(e)
    }
}

impl From<SolveError> for AlphaError {
    fn from(e: SolveError) -> Self {
        AlphaError::Solve(e)
    }
}

impl From<FitError> for AlphaError {
    fn from(e: FitError) -> Self {
        AlphaError::Fit(e)
    }
}

/// Extraction configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlphaConfig {
    /// Ambient (heat sink) temperature.
    pub ambient: Kelvin,
    /// The selected (aggressor) cell.
    pub selected: (usize, usize),
    /// The dissipated powers to sweep, W. The paper sweeps V_SET and records
    /// `P_LRS = V_SET · I`; this crate sweeps the power directly because the
    /// electrical operating point comes from the compact model.
    pub powers: Vec<Watts>,
}

impl AlphaConfig {
    /// A reasonable default sweep around the LRS operating point of the
    /// compact model: 10–50 µW in 5 steps, selected cell in the array centre.
    pub fn centered(geometry: &CrossbarGeometry) -> Self {
        AlphaConfig {
            ambient: Kelvin(300.0),
            selected: (geometry.rows / 2, geometry.cols / 2),
            powers: (1..=5).map(|i| Watts(i as f64 * 10e-6)).collect(),
        }
    }
}

/// Runs the full extraction: builds the geometry, sweeps the power, fits
/// every cell and normalises the slopes into α values. The sweep's solves
/// run on the calling thread; [`extract_alpha_threaded`] gives the same
/// bits on several.
///
/// # Errors
///
/// Returns an [`AlphaError`] describing the failing stage.
pub fn extract_alpha(
    geometry: &CrossbarGeometry,
    config: &AlphaConfig,
) -> Result<AlphaExtraction, AlphaError> {
    extract_alpha_threaded(geometry, config, 1)
}

/// [`extract_alpha`] with the power sweep's solves split over up to
/// `threads` threads. The result is bit-identical at every thread count.
///
/// # Errors
///
/// Returns an [`AlphaError`] describing the failing stage.
pub fn extract_alpha_threaded(
    geometry: &CrossbarGeometry,
    config: &AlphaConfig,
    threads: usize,
) -> Result<AlphaExtraction, AlphaError> {
    if config.powers.len() < 2 {
        return Err(AlphaError::NotEnoughPowers {
            provided: config.powers.len(),
        });
    }
    if config.selected.0 >= geometry.rows || config.selected.1 >= geometry.cols {
        return Err(AlphaError::SelectedOutOfRange {
            cell: config.selected,
            dims: (geometry.rows, geometry.cols),
        });
    }
    let inputs = std::iter::once(("ambient", config.ambient.0))
        .chain(config.powers.iter().map(|p| ("power", p.0)));
    for (name, value) in inputs {
        if !value.is_finite() {
            return Err(AlphaError::NotFinite { name, value });
        }
    }

    let model = geometry.build()?;
    let mut matrices = sweep_cell_matrices(
        &model,
        config.ambient,
        config.selected,
        &config.powers,
        threads,
    )?;

    let powers: Vec<f64> = config.powers.iter().map(|p| p.0).collect();

    // Fit the selected cell first (Eq. 3).
    let selected_temps: Vec<f64> = matrices
        .iter()
        .map(|m| m.get(config.selected.0, config.selected.1).0)
        .collect();
    let selected_fit = linear_fit(&powers, &selected_temps)?;
    let r_th = selected_fit.slope;
    let mut min_r_squared = selected_fit.r_squared;

    // Fit every cell and normalise (Eq. 4).
    let mut alpha_values = Vec::with_capacity(geometry.rows * geometry.cols);
    for row in 0..geometry.rows {
        for col in 0..geometry.cols {
            let temps: Vec<f64> = matrices.iter().map(|m| m.get(row, col).0).collect();
            let fit = linear_fit(&powers, &temps)?;
            min_r_squared = min_r_squared.min(fit.r_squared);
            alpha_values.push(fit.slope / r_th);
        }
    }

    let temperature_matrix = matrices
        .pop()
        .expect("at least two power points were simulated");

    Ok(AlphaExtraction {
        r_th: KelvinPerWatt(r_th),
        t0: Kelvin(selected_fit.intercept),
        alpha: AlphaMatrix::from_values(
            geometry.rows,
            geometry.cols,
            config.selected,
            alpha_values,
        ),
        min_r_squared,
        temperature_matrix,
    })
}

/// Exact-identity memo key: every number of the geometry and the extraction
/// configuration, as raw bit patterns (two extractions share a cache entry
/// only when their inputs are bit-for-bit identical, so memoisation can
/// never change a result).
type ExtractionKey = Vec<u64>;

fn extraction_key(geometry: &CrossbarGeometry, config: &AlphaConfig) -> ExtractionKey {
    let mut key = vec![
        geometry.rows as u64,
        geometry.cols as u64,
        geometry.electrode_width_nm.to_bits(),
        geometry.electrode_spacing_nm.to_bits(),
        geometry.electrode_thickness_nm.to_bits(),
        geometry.oxide_thickness_nm.to_bits(),
        geometry.substrate_thickness_nm.to_bits(),
        geometry.buffer_thickness_nm.to_bits(),
        geometry.passivation_thickness_nm.to_bits(),
        geometry.margin_nm.to_bits(),
        geometry.filament_diameter_nm.to_bits(),
        geometry.voxel_nm.to_bits(),
        geometry.materials.substrate.to_bits(),
        geometry.materials.isolation.to_bits(),
        geometry.materials.electrode.to_bits(),
        geometry.materials.switching_oxide.to_bits(),
        geometry.materials.filament.to_bits(),
        geometry.materials.passivation.to_bits(),
        config.ambient.0.to_bits(),
        config.selected.0 as u64,
        config.selected.1 as u64,
    ];
    key.extend(config.powers.iter().map(|p| p.0.to_bits()));
    key
}

fn extraction_cache() -> &'static Mutex<HashMap<ExtractionKey, AlphaExtraction>> {
    static CACHE: OnceLock<Mutex<HashMap<ExtractionKey, AlphaExtraction>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Number of distinct field problems memoised by
/// [`extract_alpha_cached`] in this process (diagnostics and tests).
pub fn cached_extraction_count() -> usize {
    extraction_cache().lock().expect("cache poisoned").len()
}

/// The version stamp of the on-disk α cache format; bumped whenever the
/// extraction physics or the file layout changes, so stale files from an
/// older build fall back to a fresh solve instead of replaying silently.
const DISK_CACHE_VERSION: u32 = 1;

/// The name of one field problem's cache file: the FNV-1a hash of the
/// exact-identity extraction key names the file, so distinct problems
/// never collide on a name and a changed input is simply a different file.
/// (The FNV-1a loop is deliberately duplicated from `neurohammer::campaign`
/// rather than shared — file names only need to be self-consistent within
/// this crate, and a cross-crate hash dependency is not worth it.)
fn disk_cache_name(key: &[u64]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for word in key {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("alpha-{hash:016x}.cache")
}

/// The on-disk cache entry [`extract_alpha_disk_cached`] writes for
/// `extraction` of the (`geometry`, `config`) problem: the file's name
/// inside the cache directory and its contents. Every number is written as
/// its exact bit pattern, so two entries are equal bytes exactly when the
/// extractions are bit-identical.
pub fn disk_cache_entry(
    geometry: &CrossbarGeometry,
    config: &AlphaConfig,
    extraction: &AlphaExtraction,
) -> (String, String) {
    let key = extraction_key(geometry, config);
    (disk_cache_name(&key), render_disk_entry(&key, extraction))
}

/// Serialises an extraction (plus its full key) as the versioned text
/// format of the on-disk cache: every `f64` as its exact hex bit pattern,
/// so a loaded extraction is bit-identical to the solved one.
fn render_disk_entry(key: &[u64], extraction: &AlphaExtraction) -> String {
    let words = |values: &mut dyn Iterator<Item = u64>| {
        values
            .map(|w| format!("{w:016x}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let alpha = &extraction.alpha;
    let temps = &extraction.temperature_matrix;
    let mut out = format!("rram-alpha-cache v{DISK_CACHE_VERSION}\n");
    out.push_str(&format!("key {}\n", words(&mut key.iter().copied())));
    out.push_str(&format!(
        "fit {}\n",
        words(
            &mut [
                extraction.r_th.0.to_bits(),
                extraction.t0.0.to_bits(),
                extraction.min_r_squared.to_bits(),
            ]
            .into_iter()
        )
    ));
    out.push_str(&format!(
        "alpha {} {} {} {} {}\n",
        alpha.rows(),
        alpha.cols(),
        alpha.selected().0,
        alpha.selected().1,
        words(&mut alpha.iter().map(|(_, _, a)| a.to_bits()))
    ));
    out.push_str(&format!(
        "temps {} {} {}\n",
        temps.rows(),
        temps.cols(),
        words(&mut temps.values().iter().map(|t| t.to_bits()))
    ));
    out
}

/// Parses a cache file written by [`render_disk_entry`]. Any mismatch —
/// wrong version, different key, truncated or corrupt content — returns
/// `None` and the caller re-solves.
fn parse_disk_entry(text: &str, expected_key: &[u64]) -> Option<AlphaExtraction> {
    let mut lines = text.lines();
    if lines.next()? != format!("rram-alpha-cache v{DISK_CACHE_VERSION}") {
        return None;
    }
    let words = |line: &str, tag: &str| -> Option<Vec<u64>> {
        let rest = line.strip_prefix(tag)?.strip_prefix(' ')?;
        rest.split_whitespace()
            .map(|w| u64::from_str_radix(w, 16).ok())
            .collect()
    };
    let key = words(lines.next()?, "key")?;
    if key != expected_key {
        return None; // stale: same name, different inputs
    }
    let fit = words(lines.next()?, "fit")?;
    let [r_th, t0, min_r_squared] = <[u64; 3]>::try_from(fit).ok()?;

    let alpha_line = lines.next()?.strip_prefix("alpha ")?;
    let mut alpha_fields = alpha_line.split_whitespace();
    let rows: usize = alpha_fields.next()?.parse().ok()?;
    let cols: usize = alpha_fields.next()?.parse().ok()?;
    let sel_row: usize = alpha_fields.next()?.parse().ok()?;
    let sel_col: usize = alpha_fields.next()?.parse().ok()?;
    let alpha_values: Vec<f64> = alpha_fields
        .map(|w| u64::from_str_radix(w, 16).ok().map(f64::from_bits))
        .collect::<Option<_>>()?;
    if alpha_values.len() != rows * cols || sel_row >= rows || sel_col >= cols {
        return None;
    }

    let temps_line = lines.next()?.strip_prefix("temps ")?;
    let mut temp_fields = temps_line.split_whitespace();
    let t_rows: usize = temp_fields.next()?.parse().ok()?;
    let t_cols: usize = temp_fields.next()?.parse().ok()?;
    let temp_values: Vec<f64> = temp_fields
        .map(|w| u64::from_str_radix(w, 16).ok().map(f64::from_bits))
        .collect::<Option<_>>()?;
    if temp_values.len() != t_rows * t_cols {
        return None;
    }

    Some(AlphaExtraction {
        r_th: KelvinPerWatt(f64::from_bits(r_th)),
        t0: Kelvin(f64::from_bits(t0)),
        alpha: AlphaMatrix::from_values(rows, cols, (sel_row, sel_col), alpha_values),
        min_r_squared: f64::from_bits(min_r_squared),
        temperature_matrix: CellTemperatureMatrix::from_values(t_rows, t_cols, temp_values),
    })
}

/// [`extract_alpha_cached`] with an additional *on-disk* memo in `dir`, so
/// repeated campaign **processes** over the same geometry skip the field
/// solve too (the figure binaries point this next to their checkpoint
/// directory).
///
/// The cache file is versioned and keyed by the exact geometry+config bit
/// fingerprint; a corrupt, truncated or stale entry (different inputs or
/// format version) silently falls back to a fresh solve and is rewritten.
/// Cache writes are atomic (write-temp-then-rename) and best-effort: an
/// unwritable directory degrades to the in-process memo, it never fails
/// the extraction. A fresh solve runs on up to `threads` threads, with the
/// same bits at every thread count.
///
/// # Errors
///
/// Returns an [`AlphaError`] describing the failing *solve* stage — disk
/// cache problems are not errors.
pub fn extract_alpha_disk_cached(
    geometry: &CrossbarGeometry,
    config: &AlphaConfig,
    dir: &std::path::Path,
    threads: usize,
) -> Result<AlphaExtraction, AlphaError> {
    let key = extraction_key(geometry, config);
    if let Some(hit) = extraction_cache().lock().expect("cache poisoned").get(&key) {
        return Ok(hit.clone());
    }

    let path = dir.join(disk_cache_name(&key));
    if let Ok(text) = std::fs::read_to_string(&path) {
        if let Some(extraction) = parse_disk_entry(&text, &key) {
            extraction_cache()
                .lock()
                .expect("cache poisoned")
                .insert(key, extraction.clone());
            return Ok(extraction);
        }
    }

    let extraction = extract_alpha_threaded(geometry, config, threads)?;
    extraction_cache()
        .lock()
        .expect("cache poisoned")
        .insert(key.clone(), extraction.clone());

    // Best-effort atomic write: a half-written file must never be read as
    // a valid entry by a concurrent process, and a failed write must not
    // leave its temp file behind.
    let _ = std::fs::create_dir_all(dir);
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let rendered = render_disk_entry(&key, &extraction);
    let written = std::fs::write(&tmp, rendered).is_ok();
    if !written || std::fs::rename(&tmp, &path).is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    Ok(extraction)
}

/// [`extract_alpha`] with a process-wide memo keyed by the exact
/// (geometry, configuration) inputs.
///
/// The steady-state heat solve is deterministic, so each distinct field
/// problem is solved once per process; campaign grids that revisit the same
/// (array size, spacing, voxel) combination — e.g. a pulse-length sweep on
/// FEM coupling, or several figure campaigns in one test binary — get the
/// coefficients back at the cost of a `HashMap` lookup and a clone. Errors
/// are not cached. A fresh solve runs on up to `threads` threads, with the
/// same bits at every thread count.
///
/// # Errors
///
/// Returns an [`AlphaError`] describing the failing stage.
pub fn extract_alpha_cached(
    geometry: &CrossbarGeometry,
    config: &AlphaConfig,
    threads: usize,
) -> Result<AlphaExtraction, AlphaError> {
    let key = extraction_key(geometry, config);
    if let Some(hit) = extraction_cache().lock().expect("cache poisoned").get(&key) {
        return Ok(hit.clone());
    }
    // The solve runs outside the lock so concurrent campaign workers are
    // not serialised on the cache; a racing duplicate solve is harmless
    // (both compute the same value).
    let extraction = extract_alpha_threaded(geometry, config, threads)?;
    extraction_cache()
        .lock()
        .expect("cache poisoned")
        .insert(key, extraction.clone());
    Ok(extraction)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_geometry(spacing_nm: f64) -> CrossbarGeometry {
        CrossbarGeometry {
            rows: 3,
            cols: 3,
            voxel_nm: 25.0,
            electrode_width_nm: 50.0,
            electrode_spacing_nm: spacing_nm,
            margin_nm: 50.0,
            ..CrossbarGeometry::default()
        }
    }

    fn quick_config() -> AlphaConfig {
        AlphaConfig {
            ambient: Kelvin(300.0),
            selected: (1, 1),
            powers: vec![Watts(10e-6), Watts(30e-6)],
        }
    }

    #[test]
    fn extraction_yields_unit_alpha_for_selected_cell() {
        let extraction = extract_alpha(&fast_geometry(50.0), &quick_config()).unwrap();
        assert!((extraction.alpha.get(1, 1) - 1.0).abs() < 1e-9);
        assert_eq!(extraction.alpha.selected(), (1, 1));
    }

    #[test]
    fn neighbours_have_alpha_between_zero_and_one() {
        let extraction = extract_alpha(&fast_geometry(50.0), &quick_config()).unwrap();
        for (r, c, a) in extraction.alpha.iter() {
            if (r, c) == (1, 1) {
                continue;
            }
            assert!(a > 0.0 && a < 1.0, "alpha({r},{c}) = {a}");
        }
        assert!(extraction.alpha.max_neighbor_alpha() < 0.6);
        assert!(extraction.alpha.max_neighbor_alpha() > 0.005);
    }

    #[test]
    fn fits_are_linear_and_intercept_is_ambient() {
        let extraction = extract_alpha(&fast_geometry(50.0), &quick_config()).unwrap();
        assert!(extraction.min_r_squared > 0.999_9);
        assert!((extraction.t0.0 - 300.0).abs() < 0.5);
        assert!(extraction.r_th.0 > 1e5, "R_th = {:?}", extraction.r_th);
    }

    #[test]
    fn closer_spacing_gives_stronger_coupling() {
        let tight = extract_alpha(&fast_geometry(25.0), &quick_config()).unwrap();
        let loose = extract_alpha(&fast_geometry(100.0), &quick_config()).unwrap();
        assert!(
            tight.alpha.max_neighbor_alpha() > loose.alpha.max_neighbor_alpha(),
            "tight {} vs loose {}",
            tight.alpha.max_neighbor_alpha(),
            loose.alpha.max_neighbor_alpha()
        );
    }

    #[test]
    fn offset_lookup_matches_direct_access() {
        let extraction = extract_alpha(&fast_geometry(50.0), &quick_config()).unwrap();
        assert_eq!(
            extraction.alpha.alpha_by_offset(0, 1),
            extraction.alpha.get(1, 2)
        );
        assert_eq!(
            extraction.alpha.alpha_by_offset(-1, -1),
            extraction.alpha.get(0, 0)
        );
        assert_eq!(extraction.alpha.alpha_by_offset(5, 5), 0.0);
    }

    #[test]
    fn config_errors_are_reported() {
        let geometry = fast_geometry(50.0);
        let mut config = quick_config();
        config.powers = vec![Watts(1e-6)];
        assert!(matches!(
            extract_alpha(&geometry, &config),
            Err(AlphaError::NotEnoughPowers { provided: 1 })
        ));

        let mut config = quick_config();
        config.selected = (7, 0);
        assert!(matches!(
            extract_alpha(&geometry, &config),
            Err(AlphaError::SelectedOutOfRange { .. })
        ));
    }

    #[test]
    fn non_finite_inputs_are_rejected_at_once() {
        // On the default 5×5 geometry at 10 nm voxels, a NaN power used to
        // run the whole 20,000-iteration budget on NaN.
        let geometry = CrossbarGeometry::default();
        let mut cases = Vec::new();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut config = AlphaConfig::centered(&geometry);
            config.powers[2] = Watts(bad);
            cases.push(("power", config));
            let mut config = AlphaConfig::centered(&geometry);
            config.ambient = Kelvin(bad);
            cases.push(("ambient", config));
        }
        for (name, config) in cases {
            let started = std::time::Instant::now();
            let result = extract_alpha(&geometry, &config);
            assert!(
                matches!(result, Err(AlphaError::NotFinite { name: n, .. }) if n == name),
                "{name}: {result:?}"
            );
            assert!(started.elapsed() < std::time::Duration::from_secs(1));
        }
    }

    #[test]
    fn from_values_validates_dimensions() {
        let m = AlphaMatrix::from_values(2, 2, (0, 0), vec![1.0, 0.1, 0.1, 0.05]);
        assert_eq!(m.get(1, 1), 0.05);
    }

    #[test]
    #[should_panic(expected = "match the array")]
    fn from_values_rejects_wrong_length() {
        AlphaMatrix::from_values(2, 2, (0, 0), vec![1.0]);
    }

    #[test]
    fn cached_extraction_matches_and_memoises() {
        // Other tests in this binary fill the same process-wide memo in
        // parallel, so this checks the memo's entries for its own keys
        // rather than the global entry count.
        let memoised = |key: &ExtractionKey| {
            extraction_cache()
                .lock()
                .expect("cache poisoned")
                .get(key)
                .cloned()
        };
        let geometry = fast_geometry(40.0);
        let config = quick_config();
        let key = extraction_key(&geometry, &config);
        let fresh = extract_alpha(&geometry, &config).unwrap();
        let first = extract_alpha_cached(&geometry, &config, 2).unwrap();
        assert_eq!(first, fresh);
        assert_eq!(memoised(&key), Some(fresh.clone()));
        // A bit-identical request replays the memoised entry.
        let second = extract_alpha_cached(&geometry, &config, 2).unwrap();
        assert_eq!(second, fresh);
        // A different geometry is a different field problem with its own
        // entry.
        let other = fast_geometry(75.0);
        let other_key = extraction_key(&other, &config);
        assert_ne!(other_key, key);
        let third = extract_alpha_cached(&other, &config, 2).unwrap();
        assert_ne!(third.alpha, fresh.alpha);
        assert_eq!(memoised(&other_key), Some(third));
        assert_eq!(memoised(&key), Some(fresh));
    }

    #[test]
    fn disk_cache_round_trips_bit_identically() {
        let dir = std::env::temp_dir().join(format!("rram-alpha-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let geometry = fast_geometry(35.0);
        let config = quick_config();

        let fresh = extract_alpha(&geometry, &config).unwrap();
        let first = extract_alpha_disk_cached(&geometry, &config, &dir, 2).unwrap();
        assert_eq!(first, fresh);
        let path = dir.join(disk_cache_name(&extraction_key(&geometry, &config)));
        assert!(path.exists(), "cache file was not written");

        // A fresh parse of the file (bypassing the in-process memo) must be
        // bit-identical to the solved extraction.
        let text = std::fs::read_to_string(&path).unwrap();
        let loaded = parse_disk_entry(&text, &extraction_key(&geometry, &config)).unwrap();
        assert_eq!(loaded, fresh);
        for ((_, _, a), (_, _, b)) in loaded.alpha.iter().zip(fresh.alpha.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_and_stale_disk_entries_fall_back_to_a_fresh_solve() {
        let dir =
            std::env::temp_dir().join(format!("rram-alpha-cache-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let geometry = fast_geometry(45.0);
        let config = quick_config();
        let key = extraction_key(&geometry, &config);
        let path = dir.join(disk_cache_name(&key));

        // Corrupt: truncated garbage at the expected path.
        std::fs::write(&path, "rram-alpha-cache v1\nkey 00ff\nfit").unwrap();
        let extraction = extract_alpha_disk_cached(&geometry, &config, &dir, 2).unwrap();
        assert_eq!(extraction, extract_alpha(&geometry, &config).unwrap());
        // The corrupt file was replaced by a valid entry.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(parse_disk_entry(&text, &key).is_some());

        // Stale: a valid entry whose key does not match is ignored.
        let other_key: Vec<u64> = key.iter().map(|w| w ^ 1).collect();
        assert!(parse_disk_entry(&text, &other_key).is_none());

        // Wrong version: rejected outright.
        let old = text.replacen("v1", "v0", 1);
        assert!(parse_disk_entry(&old, &key).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn centered_config_targets_array_centre() {
        let g = CrossbarGeometry::default();
        let c = AlphaConfig::centered(&g);
        assert_eq!(c.selected, (2, 2));
        assert!(c.powers.len() >= 2);
    }
}
