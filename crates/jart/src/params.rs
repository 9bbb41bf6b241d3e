//! Parameters of the VCM compact model, with validation and a builder.
//!
//! The default parameter set is calibrated (see [`crate::calibration`]) so
//! that the device operates in the regime the paper describes:
//!
//! * nominal SET at `V_SET = 1.05 V` and 300 K ambient completes in well under
//!   a microsecond,
//! * half-select (`V_SET/2`) stress at 300 K needs several orders of magnitude
//!   longer, so a victim cell does not flip within a realistic write campaign
//!   unless it is heated, and
//! * the LRS filament of a hammered cell reaches ≈950 K, matching the
//!   selected-cell temperature of Fig. 2a.
//!
//! Arrays with device-to-device variability store their per-cell sets as a
//! [`ParamColumns`] table: the nominal set plus one `Vec<f64>` per
//! [`ParamField`] that actually varies.

use std::borrow::Cow;
use std::error::Error;
use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

/// Complete parameter set of the compact model.
///
/// All lengths are metres, temperatures kelvin, resistances ohm, energies eV.
/// Vacancy concentrations are expressed in units of 10²⁶ m⁻³ throughout the
/// crate (so `n_max = 20.0` means 20·10²⁶ m⁻³).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceParams {
    /// Minimum (HRS) disc vacancy concentration, 10²⁶ m⁻³.
    pub n_min: f64,
    /// Maximum (LRS) disc vacancy concentration, 10²⁶ m⁻³.
    pub n_max: f64,
    /// Plug vacancy concentration, 10²⁶ m⁻³ (the vacancy reservoir).
    pub n_plug: f64,
    /// Filament radius in metres (Fig. 2b: ⌀ 30 nm → 15 nm radius).
    pub filament_radius: f64,
    /// Disc length (the switching region) in metres.
    pub l_disc: f64,
    /// Plug length in metres. `l_disc + l_plug` is the filament height
    /// (Fig. 2b: 5 nm).
    pub l_plug: f64,
    /// Electron mobility in the oxide, m²/(V·s).
    pub electron_mobility: f64,
    /// Charge number of the mobile oxygen vacancies.
    pub z_vo: f64,
    /// Series (electrode / line / contact) resistance in ohm.
    pub r_series: f64,
    /// Interface-junction shape voltage in volts (controls how nonlinear the
    /// junction I–V is).
    pub junction_v0: f64,
    /// Junction conductance at `n_min`, in siemens.
    pub junction_g_min: f64,
    /// Junction conductance at `n_max`, in siemens.
    pub junction_g_max: f64,
    /// Effective thermal resistance of the filament to its surroundings,
    /// K/W (Eq. 6 of the paper).
    pub r_th_eff: f64,
    /// Ion hopping distance in metres.
    pub hop_distance: f64,
    /// Attempt frequency of the ion hopping process, Hz.
    pub attempt_frequency: f64,
    /// Activation energy of vacancy migration for SET (HRS→LRS), eV.
    pub ea_set: f64,
    /// Activation energy of vacancy migration for RESET (LRS→HRS), eV.
    pub ea_reset: f64,
    /// Exponent of the concentration-limiting window function.
    pub window_exponent: f64,
    /// Ambient temperature T₀ in kelvin.
    pub ambient_temperature: f64,
    /// Upper clamp for the filament temperature in kelvin (numerical guard).
    pub max_temperature: f64,
    /// Fraction of the `[n_min, n_max]` range above which the cell reads as
    /// LRS (and below which it reads as HRS) — the bit-flip detection
    /// threshold.
    pub lrs_threshold: f64,
    /// Largest allowed change of `n_disc` (in concentration units) per
    /// integration sub-step; controls the adaptive step size.
    pub max_dn_per_step: f64,
}

impl Default for DeviceParams {
    fn default() -> Self {
        DeviceParams {
            n_min: 0.008,
            n_max: 20.0,
            n_plug: 20.0,
            filament_radius: 15e-9,
            l_disc: 0.4e-9,
            l_plug: 4.6e-9,
            electron_mobility: 4.0e-6,
            z_vo: 2.0,
            r_series: 650.0,
            junction_v0: 0.15,
            junction_g_min: 4.0e-6,
            junction_g_max: 3.3e-3,
            r_th_eff: 1.58e7,
            hop_distance: 0.25e-9,
            attempt_frequency: 1.0e14,
            ea_set: 1.25,
            ea_reset: 1.28,
            window_exponent: 10.0,
            ambient_temperature: 300.0,
            max_temperature: 1600.0,
            lrs_threshold: 0.5,
            max_dn_per_step: 0.05,
        }
    }
}

impl DeviceParams {
    /// Cross-sectional area of the filament in m².
    #[inline]
    pub fn filament_area(&self) -> f64 {
        std::f64::consts::PI * self.filament_radius * self.filament_radius
    }

    /// Electrical conductivity of a region with vacancy concentration `n`
    /// (in 10²⁶ m⁻³), in S/m: `σ = n · z · e · μ`.
    #[inline]
    pub fn conductivity(&self, n: f64) -> f64 {
        n * 1e26 * self.z_vo * rram_units::ELEMENTARY_CHARGE * self.electron_mobility
    }

    /// Ohmic resistance of the plug region in ohm.
    #[inline]
    pub fn plug_resistance(&self) -> f64 {
        self.l_plug / (self.conductivity(self.n_plug) * self.filament_area())
    }

    /// Ohmic resistance of the disc region for concentration `n`, in ohm.
    #[inline]
    pub fn disc_resistance(&self, n: f64) -> f64 {
        self.l_disc / (self.conductivity(n) * self.filament_area())
    }

    /// Junction small-signal conductance for concentration `n`, in siemens
    /// (linear interpolation between the HRS and LRS corner values).
    #[inline]
    pub fn junction_conductance(&self, n: f64) -> f64 {
        let x = ((n - self.n_min) / (self.n_max - self.n_min)).clamp(0.0, 1.0);
        self.junction_g_min + (self.junction_g_max - self.junction_g_min) * x
    }

    /// The concentration value at which the cell is considered to have
    /// crossed from HRS to LRS (bit-flip threshold).
    #[inline]
    pub fn flip_threshold(&self) -> f64 {
        self.n_min + self.lrs_threshold * (self.n_max - self.n_min)
    }

    /// Validates the parameter set.
    ///
    /// # Errors
    ///
    /// Returns the first constraint violation found (positive dimensions,
    /// ordered concentration bounds, threshold within (0, 1), …).
    pub fn validate(&self) -> Result<(), ParamError> {
        fn positive(name: &'static str, v: f64) -> Result<(), ParamError> {
            if v > 0.0 && v.is_finite() {
                Ok(())
            } else {
                Err(ParamError::NotPositive { name, value: v })
            }
        }
        positive("n_min", self.n_min)?;
        positive("n_max", self.n_max)?;
        positive("n_plug", self.n_plug)?;
        positive("filament_radius", self.filament_radius)?;
        positive("l_disc", self.l_disc)?;
        positive("l_plug", self.l_plug)?;
        positive("electron_mobility", self.electron_mobility)?;
        positive("z_vo", self.z_vo)?;
        positive("r_series", self.r_series)?;
        positive("junction_v0", self.junction_v0)?;
        positive("junction_g_min", self.junction_g_min)?;
        positive("junction_g_max", self.junction_g_max)?;
        positive("r_th_eff", self.r_th_eff)?;
        positive("hop_distance", self.hop_distance)?;
        positive("attempt_frequency", self.attempt_frequency)?;
        positive("ea_set", self.ea_set)?;
        positive("ea_reset", self.ea_reset)?;
        positive("window_exponent", self.window_exponent)?;
        positive("ambient_temperature", self.ambient_temperature)?;
        positive("max_temperature", self.max_temperature)?;
        positive("max_dn_per_step", self.max_dn_per_step)?;

        if self.n_min >= self.n_max {
            return Err(ParamError::InvertedBounds {
                lower: self.n_min,
                upper: self.n_max,
            });
        }
        if self.junction_g_min > self.junction_g_max {
            return Err(ParamError::InvertedBounds {
                lower: self.junction_g_max,
                upper: self.junction_g_min,
            });
        }
        if !(self.lrs_threshold > 0.0 && self.lrs_threshold < 1.0) {
            return Err(ParamError::ThresholdOutOfRange {
                value: self.lrs_threshold,
            });
        }
        if self.max_temperature <= self.ambient_temperature {
            return Err(ParamError::InvertedBounds {
                lower: self.max_temperature,
                upper: self.ambient_temperature,
            });
        }
        Ok(())
    }

    /// Starts a builder pre-populated with the default parameter set.
    pub fn builder() -> DeviceParamsBuilder {
        DeviceParamsBuilder::new()
    }
}

/// Errors raised by [`DeviceParams::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamError {
    /// A parameter that must be strictly positive is not.
    NotPositive {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// A pair of bounds is inverted (lower ≥ upper).
    InvertedBounds {
        /// Lower bound.
        lower: f64,
        /// Upper bound.
        upper: f64,
    },
    /// The LRS threshold is outside the open interval (0, 1).
    ThresholdOutOfRange {
        /// Offending value.
        value: f64,
    },
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::NotPositive { name, value } => {
                write!(
                    f,
                    "parameter {name} must be positive and finite, got {value}"
                )
            }
            ParamError::InvertedBounds { lower, upper } => {
                write!(f, "bounds are inverted: {lower} is not below {upper}")
            }
            ParamError::ThresholdOutOfRange { value } => {
                write!(f, "lrs_threshold must lie in (0, 1), got {value}")
            }
        }
    }
}

impl Error for ParamError {}

/// Builder for [`DeviceParams`]; every setter overrides one field of the
/// calibrated default set.
///
/// # Examples
///
/// ```
/// use rram_jart::DeviceParams;
/// let params = DeviceParams::builder()
///     .ambient_temperature(348.0)
///     .r_th_eff(1.2e7)
///     .build()?;
/// assert_eq!(params.ambient_temperature, 348.0);
/// # Ok::<(), rram_jart::ParamError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DeviceParamsBuilder {
    params: DeviceParams,
}

impl Default for DeviceParamsBuilder {
    fn default() -> Self {
        Self::new()
    }
}

macro_rules! builder_setters {
    ($($(#[$meta:meta])* $field:ident),* $(,)?) => {
        $(
            $(#[$meta])*
            pub fn $field(mut self, value: f64) -> Self {
                self.params.$field = value;
                self
            }
        )*
    };
}

impl DeviceParamsBuilder {
    /// Creates a builder initialised with [`DeviceParams::default`].
    pub fn new() -> Self {
        DeviceParamsBuilder {
            params: DeviceParams::default(),
        }
    }

    builder_setters! {
        /// Sets the HRS disc concentration (10²⁶ m⁻³).
        n_min,
        /// Sets the LRS disc concentration (10²⁶ m⁻³).
        n_max,
        /// Sets the plug concentration (10²⁶ m⁻³).
        n_plug,
        /// Sets the filament radius in metres.
        filament_radius,
        /// Sets the disc length in metres.
        l_disc,
        /// Sets the plug length in metres.
        l_plug,
        /// Sets the electron mobility in m²/(V·s).
        electron_mobility,
        /// Sets the vacancy charge number.
        z_vo,
        /// Sets the series resistance in ohm.
        r_series,
        /// Sets the junction shape voltage in volts.
        junction_v0,
        /// Sets the junction conductance at `n_min` in siemens.
        junction_g_min,
        /// Sets the junction conductance at `n_max` in siemens.
        junction_g_max,
        /// Sets the effective thermal resistance in K/W.
        r_th_eff,
        /// Sets the ion hopping distance in metres.
        hop_distance,
        /// Sets the attempt frequency in Hz.
        attempt_frequency,
        /// Sets the SET activation energy in eV.
        ea_set,
        /// Sets the RESET activation energy in eV.
        ea_reset,
        /// Sets the window-function exponent.
        window_exponent,
        /// Sets the ambient temperature in kelvin.
        ambient_temperature,
        /// Sets the maximum filament temperature clamp in kelvin.
        max_temperature,
        /// Sets the LRS read threshold as a fraction of the state range.
        lrs_threshold,
        /// Sets the maximum state change per integration sub-step.
        max_dn_per_step,
    }

    /// Validates and returns the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if any constraint of
    /// [`DeviceParams::validate`] is violated.
    pub fn build(self) -> Result<DeviceParams, ParamError> {
        self.params.validate()?;
        Ok(self.params)
    }
}

macro_rules! param_fields {
    ($($(#[$meta:meta])* $variant:ident => $field:ident),* $(,)?) => {
        /// One `f64` field of [`DeviceParams`]: what a variability spread
        /// targets and what a [`ParamColumns`] table stores per lane.
        /// Labels are the `DeviceParams` field names, so a spread spec reads
        /// the same as the parameter struct.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
        pub enum ParamField {
            $($(#[$meta])* $variant,)*
        }

        impl ParamField {
            /// Every field, in declaration order.
            pub const ALL: &'static [ParamField] = &[$(ParamField::$variant,)*];

            /// The `DeviceParams` field name (the JSON label).
            pub fn label(&self) -> &'static str {
                match self {
                    $(ParamField::$variant => stringify!($field),)*
                }
            }

            /// The field's value in a parameter set.
            pub fn get(&self, params: &DeviceParams) -> f64 {
                match self {
                    $(ParamField::$variant => params.$field,)*
                }
            }

            /// Overwrites the field's value in a parameter set.
            pub fn set(&self, params: &mut DeviceParams, value: f64) {
                match self {
                    $(ParamField::$variant => params.$field = value,)*
                }
            }

            /// Stable index of the field (its position in
            /// [`ParamField::ALL`], used in the per-field seed mix).
            pub fn index(&self) -> usize {
                Self::ALL.iter().position(|f| f == self).expect("field listed in ALL")
            }
        }

        impl FromStr for ParamField {
            type Err = String;

            fn from_str(s: &str) -> Result<Self, Self::Err> {
                match s {
                    $(stringify!($field) => Ok(ParamField::$variant),)*
                    other => Err(format!("unknown device parameter field {other:?}")),
                }
            }
        }
    };
}

param_fields! {
    /// HRS disc vacancy concentration, 10²⁶ m⁻³.
    NMin => n_min,
    /// LRS disc vacancy concentration, 10²⁶ m⁻³.
    NMax => n_max,
    /// Plug vacancy concentration, 10²⁶ m⁻³.
    NPlug => n_plug,
    /// Filament radius, m — the dominant device-to-device spread in VCM
    /// variability studies.
    FilamentRadius => filament_radius,
    /// Disc (switching region) length, m — the second dominant spread.
    LDisc => l_disc,
    /// Plug length, m.
    LPlug => l_plug,
    /// Electron mobility, m²/(V·s).
    ElectronMobility => electron_mobility,
    /// Vacancy charge number.
    ZVo => z_vo,
    /// Series resistance, Ω.
    RSeries => r_series,
    /// Junction shape voltage, V.
    JunctionV0 => junction_v0,
    /// Junction conductance at `n_min`, S.
    JunctionGMin => junction_g_min,
    /// Junction conductance at `n_max`, S.
    JunctionGMax => junction_g_max,
    /// Effective thermal resistance, K/W.
    RThEff => r_th_eff,
    /// Ion hopping distance, m.
    HopDistance => hop_distance,
    /// Attempt frequency, Hz.
    AttemptFrequency => attempt_frequency,
    /// SET activation energy, eV.
    EaSet => ea_set,
    /// RESET activation energy, eV.
    EaReset => ea_reset,
    /// Window-function exponent.
    WindowExponent => window_exponent,
    /// Ambient temperature, K. Note: campaign execution aligns every
    /// cell's ambient with the campaign's ambient axis *after* sampling, so
    /// spreading this field only takes effect outside campaigns.
    AmbientTemperature => ambient_temperature,
    /// Maximum filament temperature clamp, K.
    MaxTemperature => max_temperature,
    /// LRS read threshold (fraction of the state range).
    LrsThreshold => lrs_threshold,
    /// Maximum state change per integration sub-step.
    MaxDnPerStep => max_dn_per_step,
}

/// Per-lane device parameters stored by column: the nominal set plus one
/// `Vec<f64>` per [`ParamField`] that varies from lane to lane.
///
/// A Monte Carlo array usually samples two or three fields, so a column
/// table of a 256×256 array holds about 1 MB instead of the 11 MB of one
/// full `DeviceParams` per cell. A lane's parameter set is the nominal set
/// with the lane's column values written over it — the same `f64` values a
/// full table would hold, so stepping a lane from either form is
/// bit-identical. A table without columns is *uniform*: every lane shares
/// the nominal set.
///
/// # Examples
///
/// ```
/// use rram_jart::{DeviceParams, ParamColumns, ParamField};
///
/// let nominal = DeviceParams::default();
/// let mut table = ParamColumns::uniform(nominal.clone(), 3);
/// table.set_column(ParamField::FilamentRadius, vec![14e-9, 15e-9, 16e-9]);
/// assert_eq!(table.lane(2).filament_radius, 16e-9);
/// assert_eq!(table.lane(2).l_disc, nominal.l_disc);
/// // The expanded row form compacts back to the same columns.
/// let rows = table.expand();
/// assert_eq!(ParamColumns::compact(nominal, &rows), table);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParamColumns {
    nominal: DeviceParams,
    lanes: usize,
    /// At most one column per field, each `lanes` long.
    columns: Vec<(ParamField, Vec<f64>)>,
}

impl ParamColumns {
    /// A uniform table: `lanes` lanes sharing `nominal`.
    pub fn uniform(nominal: DeviceParams, lanes: usize) -> Self {
        ParamColumns {
            nominal,
            lanes,
            columns: Vec::new(),
        }
    }

    /// Compacts a full per-lane table against `nominal`: every field whose
    /// value differs from the nominal one, bit for bit, in at least one
    /// entry becomes a column; every other field is shared.
    pub fn compact(nominal: DeviceParams, table: &[DeviceParams]) -> Self {
        let mut columns = ParamColumns::uniform(nominal, table.len());
        for &field in ParamField::ALL {
            let shared = field.get(&columns.nominal).to_bits();
            if table.iter().any(|p| field.get(p).to_bits() != shared) {
                columns.set_column(field, table.iter().map(|p| field.get(p)).collect());
            }
        }
        columns
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The nominal set: every lane's value of each field without a column.
    pub fn nominal(&self) -> &DeviceParams {
        &self.nominal
    }

    /// Whether every lane shares the nominal set (no columns).
    pub fn is_uniform(&self) -> bool {
        self.columns.is_empty()
    }

    /// Whether `field` varies per lane.
    pub fn has_column(&self, field: ParamField) -> bool {
        self.columns.iter().any(|(f, _)| *f == field)
    }

    /// Stores `values` as the per-lane column of `field`, replacing any
    /// column it already has.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` does not match the lane count.
    pub fn set_column(&mut self, field: ParamField, values: Vec<f64>) {
        assert_eq!(values.len(), self.lanes, "column length mismatch");
        match self.columns.iter_mut().find(|(f, _)| *f == field) {
            Some((_, column)) => *column = values,
            None => self.columns.push((field, values)),
        }
    }

    /// Gives every lane the same `value` of `field`: sets it in the nominal
    /// set and drops the field's column, if any.
    pub fn set_shared(&mut self, field: ParamField, value: f64) {
        field.set(&mut self.nominal, value);
        self.columns.retain(|(f, _)| *f != field);
    }

    /// Writes lane `lane`'s column values into `params`; every other field
    /// of `params` is left as it is.
    #[inline]
    pub(crate) fn write_lane(&self, lane: usize, params: &mut DeviceParams) {
        for (field, values) in &self.columns {
            field.set(params, values[lane]);
        }
    }

    /// The parameter set of one lane: a borrow of the nominal set when the
    /// table is uniform, an owned copy with the lane's column values
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn lane(&self, lane: usize) -> Cow<'_, DeviceParams> {
        assert!(lane < self.lanes, "lane out of range");
        if self.is_uniform() {
            return Cow::Borrowed(&self.nominal);
        }
        let mut params = self.nominal.clone();
        self.write_lane(lane, &mut params);
        Cow::Owned(params)
    }

    /// Visits every lane's parameter set in lane order. One working copy
    /// is reused, and only its column fields change between lanes.
    pub fn for_each_lane(&self, mut f: impl FnMut(usize, &DeviceParams)) {
        let mut params = self.nominal.clone();
        for lane in 0..self.lanes {
            self.write_lane(lane, &mut params);
            f(lane, &params);
        }
    }

    /// The full per-lane table, one `DeviceParams` per lane.
    pub fn expand(&self) -> Vec<DeviceParams> {
        let mut table = Vec::with_capacity(self.lanes);
        self.for_each_lane(|_, params| table.push(params.clone()));
        table
    }

    /// Validates every lane's parameter set, in lane order.
    ///
    /// # Errors
    ///
    /// Returns the first [`ParamError`] found.
    pub fn validate(&self) -> Result<(), ParamError> {
        let mut params = self.nominal.clone();
        for lane in 0..self.lanes {
            self.write_lane(lane, &mut params);
            params.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_are_valid() {
        DeviceParams::default().validate().unwrap();
    }

    #[test]
    fn resistances_span_hrs_to_lrs() {
        let p = DeviceParams::default();
        let r_hrs = p.disc_resistance(p.n_min);
        let r_lrs = p.disc_resistance(p.n_max);
        assert!(r_hrs > 100.0 * r_lrs, "HRS {r_hrs} vs LRS {r_lrs}");
        // LRS disc resistance should be in the hundreds of ohms.
        assert!(r_lrs > 10.0 && r_lrs < 2_000.0, "r_lrs = {r_lrs}");
        // HRS disc resistance should be in the hundreds of kΩ.
        assert!(r_hrs > 1e5 && r_hrs < 1e7, "r_hrs = {r_hrs}");
    }

    #[test]
    fn plug_resistance_is_a_few_kilo_ohm() {
        let p = DeviceParams::default();
        let r = p.plug_resistance();
        assert!(r > 500.0 && r < 10_000.0, "r_plug = {r}");
    }

    #[test]
    fn junction_conductance_interpolates() {
        let p = DeviceParams::default();
        assert!((p.junction_conductance(p.n_min) - p.junction_g_min).abs() < 1e-12);
        assert!((p.junction_conductance(p.n_max) - p.junction_g_max).abs() < 1e-12);
        let mid = p.junction_conductance((p.n_min + p.n_max) / 2.0);
        assert!(mid > p.junction_g_min && mid < p.junction_g_max);
        // Clamped outside the range.
        assert_eq!(p.junction_conductance(-5.0), p.junction_g_min);
        assert_eq!(p.junction_conductance(100.0), p.junction_g_max);
    }

    #[test]
    fn flip_threshold_is_midway_by_default() {
        let p = DeviceParams::default();
        let t = p.flip_threshold();
        assert!((t - (p.n_min + 0.5 * (p.n_max - p.n_min))).abs() < 1e-12);
    }

    #[test]
    fn builder_overrides_single_field() {
        let p = DeviceParams::builder().r_series(1000.0).build().unwrap();
        assert_eq!(p.r_series, 1000.0);
        assert_eq!(p.n_max, DeviceParams::default().n_max);
    }

    #[test]
    fn builder_rejects_negative_values() {
        let err = DeviceParams::builder().l_disc(-1.0).build().unwrap_err();
        assert!(matches!(
            err,
            ParamError::NotPositive { name: "l_disc", .. }
        ));
    }

    #[test]
    fn builder_rejects_inverted_concentrations() {
        let err = DeviceParams::builder()
            .n_min(30.0)
            .n_max(20.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, ParamError::InvertedBounds { .. }));
    }

    #[test]
    fn builder_rejects_bad_threshold() {
        let err = DeviceParams::builder()
            .lrs_threshold(1.5)
            .build()
            .unwrap_err();
        assert!(matches!(err, ParamError::ThresholdOutOfRange { .. }));
    }

    #[test]
    fn validate_rejects_low_max_temperature() {
        let err = DeviceParams::builder()
            .max_temperature(200.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, ParamError::InvertedBounds { .. }));
    }

    #[test]
    fn error_messages_mention_the_field() {
        let err = DeviceParams::builder().ea_set(0.0).build().unwrap_err();
        assert!(err.to_string().contains("ea_set"));
    }

    fn spread_table() -> Vec<DeviceParams> {
        let nominal = DeviceParams::default();
        (0..5)
            .map(|i| DeviceParams {
                filament_radius: nominal.filament_radius * (1.0 + 0.01 * i as f64),
                ea_set: nominal.ea_set + 0.001 * (i % 2) as f64,
                ..nominal.clone()
            })
            .collect()
    }

    #[test]
    fn compacting_keeps_only_the_fields_that_vary() {
        let table = spread_table();
        let columns = ParamColumns::compact(DeviceParams::default(), &table);
        assert_eq!(columns.lanes(), 5);
        assert!(columns.has_column(ParamField::FilamentRadius));
        assert!(columns.has_column(ParamField::EaSet));
        assert!(!columns.has_column(ParamField::LDisc));
        // Expanding reproduces every entry bit for bit.
        assert_eq!(columns.expand(), table);
        for (lane, entry) in table.iter().enumerate() {
            assert_eq!(&*columns.lane(lane), entry);
        }
        // A table of nominal entries compacts to a uniform one.
        let uniform = ParamColumns::compact(DeviceParams::default(), &[DeviceParams::default()]);
        assert!(uniform.is_uniform());
        assert!(matches!(uniform.lane(0), Cow::Borrowed(_)));
    }

    #[test]
    fn set_shared_drops_the_column() {
        let mut columns = ParamColumns::compact(DeviceParams::default(), &spread_table());
        columns.set_shared(ParamField::EaSet, 1.3);
        assert!(!columns.has_column(ParamField::EaSet));
        assert!(columns.has_column(ParamField::FilamentRadius));
        columns.for_each_lane(|_, params| assert_eq!(params.ea_set, 1.3));
    }

    #[test]
    fn validation_reports_the_first_invalid_lane() {
        let mut columns = ParamColumns::uniform(DeviceParams::default(), 3);
        columns.validate().unwrap();
        columns.set_column(ParamField::LDisc, vec![0.4e-9, -1.0, 0.4e-9]);
        assert!(matches!(
            columns.validate(),
            Err(ParamError::NotPositive { name: "l_disc", .. })
        ));
    }

    #[test]
    #[should_panic(expected = "column length mismatch")]
    fn short_columns_panic() {
        ParamColumns::uniform(DeviceParams::default(), 3)
            .set_column(ParamField::LDisc, vec![1e-9; 2]);
    }

    #[test]
    fn field_labels_round_trip() {
        for &field in ParamField::ALL {
            let parsed: ParamField = field.label().parse().unwrap();
            assert_eq!(parsed, field);
        }
        assert!("bogus_field".parse::<ParamField>().is_err());
    }

    #[test]
    fn field_get_set_round_trip() {
        let mut p = DeviceParams::default();
        for &field in ParamField::ALL {
            let v = field.get(&p);
            field.set(&mut p, v * 1.5);
            assert_eq!(field.get(&p), v * 1.5, "{}", field.label());
            field.set(&mut p, v);
        }
        assert_eq!(p, DeviceParams::default());
    }
}
