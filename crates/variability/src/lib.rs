//! Seeded Monte Carlo device-variability sampling.
//!
//! Real RRAM arrays show large device-to-device spreads: filament radii,
//! disc lengths and activation energies vary cell to cell, which moves the
//! switching time — and therefore the hammer-count-to-flip numbers of the
//! paper's Figs. 3a–d — by orders of magnitude. This crate turns a nominal
//! [`DeviceParams`] set plus a list of [`ParamSpread`]s into *per-cell*
//! parameter sets, deterministically:
//!
//! * [`ParamField`] names one `f64` field of [`DeviceParams`];
//! * [`Distribution`] is a normal / log-normal / uniform law, optionally
//!   truncated through [`ParamSpread`];
//! * [`sample_params`] draws one cell's parameters from a seed and the
//!   cell's index — and nothing else;
//! * [`try_sample_columns`] draws a whole array into a
//!   [`rram_jart::ParamColumns`] table, storing only the spread fields per
//!   cell.
//!
//! # Determinism contract
//!
//! Every `(seed, cell_index, field)` triple owns its own counter-derived
//! PRNG stream (xoshiro256** seeded from a FNV-1a mix of the triple), so
//! the sample for a cell depends only on the seed and the cell's identity —
//! never on which shard ran it, which thread got there first, or how many
//! other cells were sampled before it. Campaigns rely on this: the same
//! seed and spec produce bit-identical reports across any `--shard` split
//! and after checkpoint resume.
//!
//! # Examples
//!
//! A 5 % filament-radius spread, sampled for two cells:
//!
//! ```
//! use rram_jart::DeviceParams;
//! use rram_variability::{sample_params, ParamField, ParamSpread};
//!
//! let nominal = DeviceParams::default();
//! let spread = ParamSpread::relative_normal(ParamField::FilamentRadius, 0.05, &nominal);
//! spread.validate().unwrap();
//!
//! let cell0 = sample_params(&nominal, &[spread.clone()], 42, 0);
//! let cell1 = sample_params(&nominal, &[spread.clone()], 42, 1);
//! assert_ne!(cell0.filament_radius, cell1.filament_radius);
//! // Same seed + same cell index ⇒ the identical sample, bit for bit.
//! let again = sample_params(&nominal, &[spread], 42, 0);
//! assert_eq!(again.filament_radius.to_bits(), cell0.filament_radius.to_bits());
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

use std::error::Error;
use std::fmt;

use rand::rngs::Xoshiro256StarStar;
use rand::{Rng, SeedableRng};
use rram_jart::{DeviceParams, ParamColumns, ParamError};
use serde::{Deserialize, Serialize};

/// One `f64` field of [`DeviceParams`] a spread can target; defined next
/// to the parameter struct in `rram_jart`.
pub use rram_jart::ParamField;

/// FNV-1a over the little-endian bytes of `words` — the same stable mixing
/// primitive the campaign layer uses for point fingerprints, duplicated
/// here so the sampling seed derivation has no dependency on it.
fn fnv1a_words(words: &[u64]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// The probability law of one parameter spread.
///
/// `mean` / `median` default to the *nominal* field value when `None`, so a
/// spec only has to state the width of the spread.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Distribution {
    /// Gaussian with the given standard deviation (absolute units of the
    /// field).
    Normal {
        /// Mean; `None` = the nominal field value.
        mean: Option<f64>,
        /// Standard deviation, in the field's units.
        sigma: f64,
    },
    /// Log-normal: `ln X ~ N(ln median, sigma)`. The natural choice for
    /// strictly positive geometry parameters with multiplicative spreads.
    LogNormal {
        /// Median (the exponential of the log-space mean); `None` = the
        /// nominal field value.
        median: Option<f64>,
        /// Log-space standard deviation (dimensionless).
        sigma: f64,
    },
    /// Uniform on `[low, high]`.
    Uniform {
        /// Lower bound, inclusive.
        low: f64,
        /// Upper bound, inclusive.
        high: f64,
    },
}

/// One per-field device-parameter spread: the field, its distribution and
/// optional hard truncation bounds.
///
/// Unless explicit truncation is given, normal and log-normal samples are
/// truncated into `[0.05 · nominal, 20 · nominal]` — device parameters are
/// strictly positive, and a spread spec should not be able to produce a
/// nonphysical parameter set by accident. Truncation is by bounded
/// rejection (re-draw from the same deterministic stream), falling back to
/// a clamp, so it never breaks the determinism contract.
///
/// # Examples
///
/// A ±10 % uniform disc-length spread:
///
/// ```
/// use rram_jart::DeviceParams;
/// use rram_variability::{Distribution, ParamField, ParamSpread};
///
/// let nominal = DeviceParams::default();
/// let spread = ParamSpread {
///     field: ParamField::LDisc,
///     distribution: Distribution::Uniform {
///         low: 0.9 * nominal.l_disc,
///         high: 1.1 * nominal.l_disc,
///     },
///     truncate_low: None,
///     truncate_high: None,
/// };
/// spread.validate().unwrap();
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParamSpread {
    /// The targeted parameter field.
    pub field: ParamField,
    /// The probability law of the spread.
    pub distribution: Distribution,
    /// Optional hard lower truncation bound.
    pub truncate_low: Option<f64>,
    /// Optional hard upper truncation bound.
    pub truncate_high: Option<f64>,
}

impl ParamSpread {
    /// A Gaussian spread centred on the nominal value with a *relative*
    /// standard deviation: `sigma = rel_sigma · nominal`. The common way to
    /// express "a 5 % filament-radius spread".
    pub fn relative_normal(field: ParamField, rel_sigma: f64, nominal: &DeviceParams) -> Self {
        ParamSpread {
            field,
            distribution: Distribution::Normal {
                mean: None,
                sigma: rel_sigma * field.get(nominal),
            },
            truncate_low: None,
            truncate_high: None,
        }
    }

    /// A log-normal spread with the nominal value as median and the given
    /// log-space sigma.
    pub fn relative_lognormal(field: ParamField, sigma: f64) -> Self {
        ParamSpread {
            field,
            distribution: Distribution::LogNormal {
                median: None,
                sigma,
            },
            truncate_low: None,
            truncate_high: None,
        }
    }

    /// Checks the spread is well formed (finite, non-negative widths,
    /// ordered bounds).
    ///
    /// # Errors
    ///
    /// Returns the first [`SpreadError`] found.
    pub fn validate(&self) -> Result<(), SpreadError> {
        let finite = |name: &'static str, v: f64| {
            if v.is_finite() {
                Ok(())
            } else {
                Err(SpreadError::NotFinite { name, value: v })
            }
        };
        match self.distribution {
            Distribution::Normal { mean, sigma } => {
                if let Some(mean) = mean {
                    finite("mean", mean)?;
                }
                finite("sigma", sigma)?;
                if sigma < 0.0 {
                    return Err(SpreadError::NegativeWidth { value: sigma });
                }
            }
            Distribution::LogNormal { median, sigma } => {
                finite("sigma", sigma)?;
                if sigma < 0.0 {
                    return Err(SpreadError::NegativeWidth { value: sigma });
                }
                if let Some(median) = median {
                    finite("median", median)?;
                    if median <= 0.0 {
                        return Err(SpreadError::NonPositiveMedian { value: median });
                    }
                }
            }
            Distribution::Uniform { low, high } => {
                finite("low", low)?;
                finite("high", high)?;
                if low > high {
                    return Err(SpreadError::InvertedBounds { low, high });
                }
            }
        }
        if let Some(low) = self.truncate_low {
            finite("truncate_low", low)?;
        }
        if let Some(high) = self.truncate_high {
            finite("truncate_high", high)?;
        }
        if let (Some(low), Some(high)) = (self.truncate_low, self.truncate_high) {
            if low > high {
                return Err(SpreadError::InvertedBounds { low, high });
            }
        }
        Ok(())
    }

    /// Effective truncation bounds around a nominal field value: explicit
    /// bounds win; otherwise normal/log-normal spreads default to
    /// `[0.05 · nominal, 20 · nominal]` and uniform spreads to their own
    /// `[low, high]`.
    fn bounds(&self, nominal: f64) -> (f64, f64) {
        let (default_low, default_high) = match self.distribution {
            Distribution::Uniform { low, high } => (low, high),
            _ => (0.05 * nominal, 20.0 * nominal),
        };
        (
            self.truncate_low.unwrap_or(default_low),
            self.truncate_high.unwrap_or(default_high),
        )
    }

    /// This spread with its width scaled by `factor` — the campaign layer's
    /// σ grid axis (`spread_scales`): one base spread swept over several
    /// magnitudes inside a single campaign. Normal and log-normal sigmas
    /// scale directly; a uniform interval contracts around its centre.
    /// Truncation bounds are kept, and `factor = 1.0` reproduces the base
    /// spread bit for bit.
    ///
    /// # Examples
    ///
    /// ```
    /// use rram_jart::DeviceParams;
    /// use rram_variability::{Distribution, ParamField, ParamSpread};
    ///
    /// let base = ParamSpread::relative_normal(
    ///     ParamField::FilamentRadius, 1.0, &DeviceParams::default());
    /// let five_percent = base.scaled(0.05);
    /// let Distribution::Normal { sigma, .. } = five_percent.distribution else {
    ///     unreachable!()
    /// };
    /// let Distribution::Normal { sigma: base_sigma, .. } = base.distribution else {
    ///     unreachable!()
    /// };
    /// assert_eq!(sigma, 0.05 * base_sigma);
    /// ```
    pub fn scaled(&self, factor: f64) -> ParamSpread {
        let distribution = match self.distribution {
            Distribution::Normal { mean, sigma } => Distribution::Normal {
                mean,
                sigma: sigma * factor,
            },
            Distribution::LogNormal { median, sigma } => Distribution::LogNormal {
                median,
                sigma: sigma * factor,
            },
            Distribution::Uniform { low, high } => {
                let centre = 0.5 * (low + high);
                let half = 0.5 * (high - low) * factor;
                Distribution::Uniform {
                    low: centre - half,
                    high: centre + half,
                }
            }
        };
        ParamSpread {
            distribution,
            ..*self
        }
    }

    /// Fingerprint words of this spread (exact `f64` bit patterns), used by
    /// the campaign layer to mix spreads into execution fingerprints.
    pub fn fingerprint_words(&self) -> Vec<u64> {
        let opt = |v: Option<f64>| match v {
            // A tag word disambiguates None from Some(bits-that-look-small).
            None => (0u64, 0u64),
            Some(v) => (1u64, v.to_bits()),
        };
        let mut words = vec![self.field.index() as u64];
        match self.distribution {
            Distribution::Normal { mean, sigma } => {
                words.push(0);
                let (tag, bits) = opt(mean);
                words.extend([tag, bits, sigma.to_bits()]);
            }
            Distribution::LogNormal { median, sigma } => {
                words.push(1);
                let (tag, bits) = opt(median);
                words.extend([tag, bits, sigma.to_bits()]);
            }
            Distribution::Uniform { low, high } => {
                words.extend([2, 1, low.to_bits(), high.to_bits()]);
            }
        }
        let (tag, bits) = opt(self.truncate_low);
        words.extend([tag, bits]);
        let (tag, bits) = opt(self.truncate_high);
        words.extend([tag, bits]);
        words
    }
}

/// Errors raised by [`ParamSpread::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpreadError {
    /// A numeric field is not finite.
    NotFinite {
        /// Field name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// A spread width (sigma) is negative.
    NegativeWidth {
        /// Offending sigma.
        value: f64,
    },
    /// A log-normal median is not strictly positive.
    NonPositiveMedian {
        /// Offending median.
        value: f64,
    },
    /// A bound pair is inverted (low > high).
    InvertedBounds {
        /// Lower bound.
        low: f64,
        /// Upper bound.
        high: f64,
    },
}

impl fmt::Display for SpreadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpreadError::NotFinite { name, value } => {
                write!(f, "spread field {name} must be finite, got {value}")
            }
            SpreadError::NegativeWidth { value } => {
                write!(f, "spread sigma must be non-negative, got {value}")
            }
            SpreadError::NonPositiveMedian { value } => {
                write!(f, "log-normal median must be positive, got {value}")
            }
            SpreadError::InvertedBounds { low, high } => {
                write!(f, "spread bounds are inverted: {low} > {high}")
            }
        }
    }
}

impl Error for SpreadError {}

/// One standard-normal deviate via Box–Muller (the cosine branch only, so
/// each deviate consumes exactly two generator outputs).
fn standard_normal<G: Rng>(rng: &mut G) -> f64 {
    let u1 = rng.next_f64_open();
    let u2 = rng.next_f64_open();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Maximum redraws before truncation falls back to clamping.
const MAX_REJECTIONS: usize = 64;

/// Draws one value of `spread` for the cell whose stream is `rng`, around
/// the `nominal` field value.
fn draw<G: Rng>(spread: &ParamSpread, nominal: f64, rng: &mut G) -> f64 {
    let (low, high) = spread.bounds(nominal);
    let one = |rng: &mut G| match spread.distribution {
        Distribution::Normal { mean, sigma } => {
            mean.unwrap_or(nominal) + sigma * standard_normal(rng)
        }
        Distribution::LogNormal { median, sigma } => {
            median.unwrap_or(nominal) * (sigma * standard_normal(rng)).exp()
        }
        Distribution::Uniform {
            low: u_low,
            high: u_high,
        } => u_low + (u_high - u_low) * rng.next_f64(),
    };
    let mut value = one(rng);
    for _ in 0..MAX_REJECTIONS {
        if (low..=high).contains(&value) {
            return value;
        }
        value = one(rng);
    }
    value.clamp(low, high)
}

/// The per-(seed, cell, field) stream seed: a FNV-1a mix of the triple, so
/// every field of every cell owns an independent deterministic stream.
fn stream_seed(seed: u64, cell_index: u64, field: ParamField) -> u64 {
    fnv1a_words(&[seed, cell_index, field.index() as u64])
}

/// Fallible form of [`sample_params`]: returns the [`ParamError`] instead
/// of panicking when the sampled set violates [`DeviceParams::validate`].
///
/// The default truncation keeps every sample strictly positive, but it
/// cannot enforce *relational* constraints — a wide `lrs_threshold` spread
/// can reach 1.0, an untruncated `n_min` spread can cross `n_max`, a
/// `max_temperature` spread can drop below ambient. Campaign executors use
/// this form so such specs fail with a campaign error rather than a worker
/// panic.
///
/// # Errors
///
/// Returns the first constraint violation of the sampled set.
pub fn try_sample_params(
    nominal: &DeviceParams,
    spreads: &[ParamSpread],
    seed: u64,
    cell_index: u64,
) -> Result<DeviceParams, ParamError> {
    let mut params = nominal.clone();
    for spread in spreads {
        let mut rng =
            Xoshiro256StarStar::seed_from_u64(stream_seed(seed, cell_index, spread.field));
        let value = draw(spread, spread.field.get(nominal), &mut rng);
        spread.field.set(&mut params, value);
    }
    params.validate()?;
    Ok(params)
}

/// Samples one cell's full parameter set: the nominal set with every spread
/// applied, deterministically from `(seed, cell_index)` alone.
///
/// The draw for each field is independent of every other field, cell and
/// evaluation order — see the crate-level determinism contract. When the
/// same field appears in several spreads, the *last* spread wins (matching
/// the "later entries override" convention of layered configs).
///
/// # Panics
///
/// Panics if the sampled set fails [`DeviceParams::validate`] — reachable
/// through explicit truncation bounds that permit nonphysical values, or
/// wide spreads on fields with relational constraints (`lrs_threshold`,
/// `n_min`/`n_max`, `max_temperature`). Use [`try_sample_params`] where a
/// recoverable error is needed (the campaign executor does).
pub fn sample_params(
    nominal: &DeviceParams,
    spreads: &[ParamSpread],
    seed: u64,
    cell_index: u64,
) -> DeviceParams {
    match try_sample_params(nominal, spreads, seed, cell_index) {
        Ok(params) => params,
        Err(e) => panic!(
            "sampled device parameters for cell {cell_index} (seed {seed:#x}) are invalid: {e}; \
             tighten the spread's truncation bounds"
        ),
    }
}

/// Fallible form of [`sample_table`] — one [`try_sample_params`] call per
/// cell, stopping at the first invalid sample.
///
/// # Errors
///
/// Returns the first constraint violation found.
pub fn try_sample_table(
    nominal: &DeviceParams,
    spreads: &[ParamSpread],
    seed: u64,
    cells: usize,
) -> Result<Vec<DeviceParams>, ParamError> {
    (0..cells)
        .map(|cell| try_sample_params(nominal, spreads, seed, cell as u64))
        .collect()
}

/// Samples a whole array's parameters straight into a [`ParamColumns`]
/// table (row-major lane order): the nominal set plus one column per
/// spread field, with the same values [`try_sample_table`] gives each
/// cell, bit for bit, at a fraction of the memory.
///
/// Each spread fills its field's column from the same per-(seed, cell,
/// field) streams [`try_sample_params`] draws from; a later spread on the
/// same field replaces the column, so the last spread wins here too. Every
/// lane is validated after sampling, in lane order.
///
/// # Errors
///
/// Returns the first constraint violation found, as [`try_sample_table`]
/// does.
pub fn try_sample_columns(
    nominal: &DeviceParams,
    spreads: &[ParamSpread],
    seed: u64,
    cells: usize,
) -> Result<ParamColumns, ParamError> {
    let mut columns = ParamColumns::uniform(nominal.clone(), cells);
    for spread in spreads {
        let centre = spread.field.get(nominal);
        let values = (0..cells)
            .map(|cell| {
                let mut rng =
                    Xoshiro256StarStar::seed_from_u64(stream_seed(seed, cell as u64, spread.field));
                draw(spread, centre, &mut rng)
            })
            .collect();
        columns.set_column(spread.field, values);
    }
    columns.validate()?;
    Ok(columns)
}

/// Samples a whole array's parameter table (row-major lane order) — one
/// [`sample_params`] call per cell.
///
/// # Panics
///
/// Panics on an invalid sample; see [`sample_params`].
pub fn sample_table(
    nominal: &DeviceParams,
    spreads: &[ParamSpread],
    seed: u64,
    cells: usize,
) -> Vec<DeviceParams> {
    (0..cells)
        .map(|cell| sample_params(nominal, spreads, seed, cell as u64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nominal() -> DeviceParams {
        DeviceParams::default()
    }

    #[test]
    fn scaled_spreads_shrink_every_distribution_kind() {
        let normal = ParamSpread::relative_normal(ParamField::FilamentRadius, 0.1, &nominal());
        let Distribution::Normal { sigma, .. } = normal.scaled(0.5).distribution else {
            panic!("kind changed")
        };
        let Distribution::Normal { sigma: base, .. } = normal.distribution else {
            panic!("not normal")
        };
        assert_eq!(sigma, 0.5 * base);
        // Identity scaling is bit-exact (the σ-axis value 1.0 must not
        // perturb existing campaigns).
        assert_eq!(normal.scaled(1.0), normal);

        let lognormal = ParamSpread::relative_lognormal(ParamField::LDisc, 0.2);
        let Distribution::LogNormal { sigma, .. } = lognormal.scaled(0.25).distribution else {
            panic!("kind changed")
        };
        assert_eq!(sigma, 0.05);

        let uniform = ParamSpread {
            field: ParamField::EaSet,
            distribution: Distribution::Uniform {
                low: 1.0,
                high: 2.0,
            },
            truncate_low: None,
            truncate_high: None,
        };
        let Distribution::Uniform { low, high } = uniform.scaled(0.5).distribution else {
            panic!("kind changed")
        };
        assert_eq!((low, high), (1.25, 1.75));
        // Scale 0 collapses onto the centre.
        let Distribution::Uniform { low, high } = uniform.scaled(0.0).distribution else {
            panic!("kind changed")
        };
        assert_eq!((low, high), (1.5, 1.5));
    }

    #[test]
    fn same_seed_same_cell_is_bit_identical() {
        let spreads = vec![
            ParamSpread::relative_normal(ParamField::FilamentRadius, 0.1, &nominal()),
            ParamSpread::relative_lognormal(ParamField::LDisc, 0.2),
        ];
        let a = sample_params(&nominal(), &spreads, 7, 13);
        let b = sample_params(&nominal(), &spreads, 7, 13);
        assert_eq!(a.filament_radius.to_bits(), b.filament_radius.to_bits());
        assert_eq!(a.l_disc.to_bits(), b.l_disc.to_bits());
    }

    #[test]
    fn different_cells_and_seeds_differ() {
        let spreads = vec![ParamSpread::relative_normal(
            ParamField::FilamentRadius,
            0.1,
            &nominal(),
        )];
        let a = sample_params(&nominal(), &spreads, 7, 0);
        let b = sample_params(&nominal(), &spreads, 7, 1);
        let c = sample_params(&nominal(), &spreads, 8, 0);
        assert_ne!(a.filament_radius, b.filament_radius);
        assert_ne!(a.filament_radius, c.filament_radius);
    }

    #[test]
    fn unspread_fields_stay_nominal() {
        let spreads = vec![ParamSpread::relative_normal(
            ParamField::FilamentRadius,
            0.1,
            &nominal(),
        )];
        let sampled = sample_params(&nominal(), &spreads, 1, 2);
        assert_ne!(sampled.filament_radius, nominal().filament_radius);
        assert_eq!(sampled.l_disc, nominal().l_disc);
        assert_eq!(sampled.ea_set, nominal().ea_set);
    }

    #[test]
    fn zero_sigma_reproduces_the_nominal_value() {
        let spreads = vec![ParamSpread::relative_normal(
            ParamField::EaSet,
            0.0,
            &nominal(),
        )];
        let sampled = sample_params(&nominal(), &spreads, 9, 4);
        assert_eq!(sampled.ea_set, nominal().ea_set);
    }

    #[test]
    fn samples_respect_truncation() {
        let n = nominal();
        let spread = ParamSpread {
            field: ParamField::FilamentRadius,
            distribution: Distribution::Normal {
                mean: None,
                sigma: 0.5 * n.filament_radius,
            },
            truncate_low: Some(0.9 * n.filament_radius),
            truncate_high: Some(1.1 * n.filament_radius),
        };
        for cell in 0..200 {
            let sampled = sample_params(&n, &[spread], 3, cell);
            assert!(
                sampled.filament_radius >= 0.9 * n.filament_radius
                    && sampled.filament_radius <= 1.1 * n.filament_radius,
                "cell {cell}: {}",
                sampled.filament_radius
            );
        }
    }

    #[test]
    fn default_truncation_keeps_wild_spreads_physical() {
        let n = nominal();
        // A 500 % spread would go negative without the default truncation.
        let spread = ParamSpread::relative_normal(ParamField::LDisc, 5.0, &n);
        for cell in 0..500 {
            let sampled = sample_params(&n, &[spread], 11, cell);
            assert!(sampled.l_disc > 0.0);
            sampled.validate().unwrap();
        }
    }

    #[test]
    fn uniform_spread_stays_in_bounds() {
        let n = nominal();
        let spread = ParamSpread {
            field: ParamField::EaSet,
            distribution: Distribution::Uniform {
                low: 1.2,
                high: 1.3,
            },
            truncate_low: None,
            truncate_high: None,
        };
        for cell in 0..200 {
            let v = sample_params(&n, &[spread], 5, cell).ea_set;
            assert!((1.2..=1.3).contains(&v), "{v}");
        }
    }

    #[test]
    fn lognormal_median_is_roughly_nominal() {
        let n = nominal();
        let spread = ParamSpread::relative_lognormal(ParamField::FilamentRadius, 0.3);
        let mut values: Vec<f64> = (0..1001)
            .map(|cell| sample_params(&n, &[spread], 21, cell).filament_radius)
            .collect();
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = values[values.len() / 2];
        assert!(
            (median / n.filament_radius - 1.0).abs() < 0.1,
            "median {median} vs nominal {}",
            n.filament_radius
        );
    }

    #[test]
    fn validation_rejects_malformed_spreads() {
        let bad_sigma = ParamSpread {
            field: ParamField::LDisc,
            distribution: Distribution::Normal {
                mean: None,
                sigma: -1.0,
            },
            truncate_low: None,
            truncate_high: None,
        };
        assert!(matches!(
            bad_sigma.validate(),
            Err(SpreadError::NegativeWidth { .. })
        ));

        let bad_uniform = ParamSpread {
            field: ParamField::LDisc,
            distribution: Distribution::Uniform {
                low: 2.0,
                high: 1.0,
            },
            truncate_low: None,
            truncate_high: None,
        };
        assert!(matches!(
            bad_uniform.validate(),
            Err(SpreadError::InvertedBounds { .. })
        ));

        let bad_nan = ParamSpread {
            field: ParamField::LDisc,
            distribution: Distribution::Normal {
                mean: Some(f64::NAN),
                sigma: 1.0,
            },
            truncate_low: None,
            truncate_high: None,
        };
        assert!(matches!(
            bad_nan.validate(),
            Err(SpreadError::NotFinite { .. })
        ));

        let bad_median = ParamSpread {
            field: ParamField::LDisc,
            distribution: Distribution::LogNormal {
                median: Some(-1.0),
                sigma: 0.1,
            },
            truncate_low: None,
            truncate_high: None,
        };
        assert!(matches!(
            bad_median.validate(),
            Err(SpreadError::NonPositiveMedian { .. })
        ));

        let bad_truncation = ParamSpread {
            field: ParamField::LDisc,
            distribution: Distribution::LogNormal {
                median: None,
                sigma: 0.1,
            },
            truncate_low: Some(2.0),
            truncate_high: Some(1.0),
        };
        assert!(matches!(
            bad_truncation.validate(),
            Err(SpreadError::InvertedBounds { .. })
        ));
    }

    #[test]
    fn fingerprints_distinguish_spreads() {
        let n = nominal();
        let a = ParamSpread::relative_normal(ParamField::FilamentRadius, 0.05, &n);
        let b = ParamSpread::relative_normal(ParamField::FilamentRadius, 0.10, &n);
        let c = ParamSpread::relative_normal(ParamField::LDisc, 0.05, &n);
        assert_ne!(a.fingerprint_words(), b.fingerprint_words());
        assert_ne!(a.fingerprint_words(), c.fingerprint_words());
        assert_eq!(a.fingerprint_words(), a.fingerprint_words());
    }

    #[test]
    fn sample_table_matches_per_cell_sampling() {
        let spreads = vec![ParamSpread::relative_normal(
            ParamField::FilamentRadius,
            0.08,
            &nominal(),
        )];
        let table = sample_table(&nominal(), &spreads, 17, 6);
        assert_eq!(table.len(), 6);
        for (cell, params) in table.iter().enumerate() {
            let direct = sample_params(&nominal(), &spreads, 17, cell as u64);
            assert_eq!(
                params.filament_radius.to_bits(),
                direct.filament_radius.to_bits()
            );
        }
    }

    #[test]
    fn sampled_columns_expand_to_the_per_cell_table() {
        let n = nominal();
        let spreads = vec![
            ParamSpread::relative_normal(ParamField::FilamentRadius, 0.08, &n),
            ParamSpread::relative_lognormal(ParamField::LDisc, 0.15),
            // A duplicate field: the later spread must win in both forms.
            ParamSpread::relative_normal(ParamField::FilamentRadius, 0.02, &n),
        ];
        let columns = try_sample_columns(&n, &spreads, 23, 40).unwrap();
        assert!(columns.has_column(ParamField::FilamentRadius));
        assert!(columns.has_column(ParamField::LDisc));
        assert!(!columns.has_column(ParamField::EaSet));
        let table = try_sample_table(&n, &spreads, 23, 40).unwrap();
        let expanded = columns.expand();
        assert_eq!(expanded.len(), table.len());
        for (lane, (a, b)) in expanded.iter().zip(&table).enumerate() {
            for &field in ParamField::ALL {
                assert_eq!(
                    field.get(a).to_bits(),
                    field.get(b).to_bits(),
                    "lane {lane} {}",
                    field.label()
                );
            }
        }
    }

    #[test]
    fn sampled_columns_report_the_per_cell_error() {
        let n = nominal();
        let spread = ParamSpread {
            field: ParamField::LrsThreshold,
            distribution: Distribution::Uniform {
                low: 0.5,
                high: 1.5,
            },
            truncate_low: None,
            truncate_high: None,
        };
        let columns = try_sample_columns(&n, &[spread], 4, 64).unwrap_err();
        let table = try_sample_table(&n, &[spread], 4, 64).unwrap_err();
        assert_eq!(columns, table);
    }

    #[test]
    fn last_spread_wins_on_duplicate_fields() {
        let n = nominal();
        let first = ParamSpread::relative_normal(ParamField::EaSet, 0.0, &n);
        let second = ParamSpread {
            field: ParamField::EaSet,
            distribution: Distribution::Uniform {
                low: 1.30,
                high: 1.31,
            },
            truncate_low: None,
            truncate_high: None,
        };
        let sampled = sample_params(&n, &[first, second], 2, 0);
        assert!((1.30..=1.31).contains(&sampled.ea_set));
    }
}
