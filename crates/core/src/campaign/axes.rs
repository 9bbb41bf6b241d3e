//! The axis table: every grid axis of a [`CampaignSpec`], written once.
//!
//! Each `campaign_axes!` entry declares one [`CampaignAxis`] variant and
//! everything the campaign layer knows about the axis:
//!
//! - `spec`: the [`CampaignSpec`] field listing its values, which is also
//!   its spec JSON key; `device`: whether it enters
//!   [`CampaignPoint::device_id`], and so the Monte Carlo sampling seed;
//! - `point`: the [`CampaignPoint`] fields it sets, each with its conversion
//!   from a spec value (none: the value itself), its point JSON key and,
//!   after `or`, the value an absent key takes. A field's type supplies its
//!   JSON codec and its fingerprint words;
//! - `value`, `label`: the sweep coordinate and its label;
//! - `table`, `csv`: its report columns (a table cell defaults to the label);
//! - `check`: the range check of each spec value;
//! - `flag`, `caption`: its `--axis` name and its chart caption.
//!
//! Grid size, validation, point expansion, fingerprints, spec and point
//! JSON and report columns all iterate the table. Adding an axis is an entry
//! here plus its `CampaignSpec` and `CampaignPoint` fields and its default.

use super::json::{field_or, parse, FromJson, Json, ToJson};
use super::{CampaignError, CampaignPoint, CampaignSpec, Column, Fnv1a, MAX_ARRAY_CELLS};
use crate::pattern::AttackPattern;
use rram_crossbar::{BackendKind, WriteScheme};
use rram_defense::GuardSpec;
use rram_units::{Kelvin, Seconds, Volts};

/// `$given` when the table entry has it, else `$fallback`.
macro_rules! or_default {
    ($fallback:expr) => {
        $fallback
    };
    ($fallback:expr, $given:expr) => {
        $given
    };
}

/// Renders one point as text.
type Text = fn(&CampaignPoint) -> String;

/// One row of the axis table: the entry's data and its accessors into the
/// spec and point fields.
struct Axis {
    spec_key: &'static str,
    device: bool,
    flag: &'static str,
    caption: &'static str,
    len: fn(&CampaignSpec) -> usize,
    check: fn(&CampaignSpec) -> Result<(), CampaignError>,
    spec_json: fn(&CampaignSpec) -> Option<Json>,
    read_spec: fn(&mut CampaignSpec, &Json) -> Result<(), CampaignError>,
    words: fn(&CampaignPoint, &mut Fnv1a),
    point_json: &'static [Column<CampaignPoint, Json>],
    value: fn(&CampaignPoint) -> f64,
    label: Text,
    table: (&'static str, Option<Text>),
    csv: &'static [Column<CampaignPoint>],
}

macro_rules! campaign_axes {
    ($(
        $(#[$doc:meta])*
        $axis:ident {
            spec: $spec:ident, device: $device:literal,
            point: [$($field:ident $(= $from_spec:expr)? => $key:literal $(or $default:expr)?),+],
            value: $value:expr, label: $label:expr,
            table: $table:literal $(=> $cell:expr)?, csv: [$($csv:literal => $csv_cell:expr),+],
            $(check: $check:expr,)? flag: $flag:literal, caption: $caption:literal,
        }
    )+) => {
        /// One grid axis of a campaign (used to slice reports into sweep
        /// series).
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum CampaignAxis {
            $($(#[$doc])* $axis,)+
        }

        impl CampaignAxis {
            /// All axes, in grid order: [`CampaignSpec::points`] walks them
            /// as mixed-radix digits with the trial innermost, and
            /// [`CampaignPoint::id`] hashes their coordinates in this order.
            /// Reports put the backend column first.
            pub const ALL: [CampaignAxis; [$(stringify!($axis)),+].len()] =
                [$(CampaignAxis::$axis),+];
        }

        const AXES: [Axis; CampaignAxis::ALL.len()] = [$(Axis {
            spec_key: stringify!($spec), device: $device, flag: $flag, caption: $caption,
            len: |spec| spec.$spec.count(),
            check: |spec| {
                let key = stringify!($spec);
                check_values(&spec.$spec, key, or_default!(|_, _| Ok(()) $(, $check)?))
            },
            spec_json: |spec| spec.$spec.list_json(),
            read_spec: |spec, value| { spec.$spec = parse(stringify!($spec), value)?; Ok(()) },
            words: |point, hash| { $(point.$field.write_words(hash);)+ },
            point_json: &[$(($key, |point| point.$field.to_json())),+],
            value: $value, label: $label,
            table: ($table, or_default!(None $(, Some($cell))?)),
            csv: &[$(($csv, $csv_cell)),+],
        },)+];

        impl CampaignSpec {
            /// The point taking, along every axis in [`CampaignAxis::ALL`]
            /// order, the value with the given index.
            pub(crate) fn point_at(&self, digits: &[usize; AXES.len()]) -> CampaignPoint {
                CampaignPoint {$($(
                    $field: convert(
                        self.$spec.nth(digits[CampaignAxis::$axis as usize]),
                        or_default!(|same| same $(, $from_spec)?),
                    ),
                )+)+}
            }
        }

        /// Absent keys take the axis's default, so checkpoints written
        /// before an axis existed still parse; their keys then miss the
        /// fingerprint and re-run as stale records instead of failing the
        /// whole resume.
        impl FromJson for CampaignPoint {
            fn from_json(value: &Json) -> Result<Self, CampaignError> {
                Ok(CampaignPoint {$($(
                    $field: field_or(value, $key, or_default!(None $(, Some($default))?))?,
                )+)+})
            }
        }
    };
}

campaign_axes! {
    /// Array size (parameter value: number of rows).
    ArraySize {
        spec: array_sizes, device: true,
        point: [rows = |size| size.0 => "rows", cols = |size| size.1 => "cols"],
        value: |p| p.rows as f64, label: |p| format!("{}x{}", p.rows, p.cols),
        table: "array", csv: ["rows" => |p| p.rows.to_string(), "cols" => |p| p.cols.to_string()],
        check: |_, (rows, cols)| array_size(rows, cols), flag: "array-size", caption: "array rows",
    }
    /// Attack pattern (parameter value: index in [`AttackPattern::ALL`]).
    Pattern {
        spec: patterns, device: true, point: [pattern => "pattern"],
        value: |p| p.pattern.index() as f64, label: |p| p.pattern.label().into(),
        table: "pattern", csv: ["pattern" => |p| p.pattern.label().into()],
        flag: "pattern", caption: "attack pattern (index)",
    }
    /// Hammer amplitude in volts.
    Amplitude {
        spec: amplitudes_v, device: true, point: [amplitude = Volts => "amplitude_v"],
        value: |p| p.amplitude.0, label: |p| format!("{:.2} V", p.amplitude.0),
        table: "amplitude", csv: ["amplitude_v" => |p| format!("{}", p.amplitude.0)],
        check: positive, flag: "amplitude", caption: "amplitude [V]",
    }
    /// Pulse length in nanoseconds (points and their JSON hold seconds).
    PulseLength {
        spec: pulse_lengths_ns, device: true,
        point: [pulse_length = |ns| Seconds(ns * 1e-9) => "pulse_length_s"],
        value: |p| p.pulse_length.0 * 1e9, label: |p| format!("{:.0} ns", p.pulse_length.0 * 1e9),
        table: "pulse len", csv: ["pulse_length_ns" => |p| format!("{}", p.pulse_length.0 * 1e9)],
        check: positive, flag: "pulse-length", caption: "pulse length [ns]",
    }
    /// Hammer duty cycle (fraction of the period under bias).
    DutyCycle {
        spec: duty_cycles, device: true, point: [duty_cycle => "duty_cycle" or 0.5],
        value: |p| p.duty_cycle, label: |p| format!("d={:.0}%", p.duty_cycle * 100.0),
        table: "duty", csv: ["duty_cycle" => |p| format!("{}", p.duty_cycle)],
        check: |key, d| require(key, d > 0.0 && d <= 1.0, "must lie in (0, 1]"),
        flag: "duty-cycle", caption: "duty cycle",
    }
    /// Electrode spacing in nanometres.
    Spacing {
        spec: spacings_nm, device: true, point: [spacing_nm => "spacing_nm"],
        value: |p| p.spacing_nm, label: |p| format!("{:.0} nm", p.spacing_nm),
        table: "spacing", csv: ["spacing_nm" => |p| format!("{}", p.spacing_nm)],
        check: positive, flag: "spacing", caption: "electrode spacing [nm]",
    }
    /// Ambient temperature in kelvin.
    Ambient {
        spec: ambients_k, device: true, point: [ambient = Kelvin => "ambient_k"],
        value: |p| p.ambient.0, label: |p| format!("{:.0} K", p.ambient.0),
        table: "ambient", csv: ["ambient_k" => |p| format!("{}", p.ambient.0)],
        check: positive, flag: "ambient", caption: "ambient temperature [K]",
    }
    /// Write scheme (parameter value: index in
    /// [`rram_crossbar::WriteScheme::ALL`]).
    Scheme {
        spec: schemes, device: true, point: [scheme => "scheme"],
        value: |p| p.scheme.index() as f64,
        label: |p| match p.scheme {
            WriteScheme::HalfVoltage => "V/2".into(),
            WriteScheme::ThirdVoltage => "V/3".into(),
            WriteScheme::GroundedUnselected => "grounded".into(),
        },
        table: "scheme", csv: ["scheme" => |p| p.scheme.label().into()],
        flag: "scheme", caption: "write scheme (index)",
    }
    /// Guard specification (parameter value: the guard's threshold
    /// coordinate, see [`GuardSpec::axis_value`]).
    Guard {
        spec: guards, device: false, point: [guard => "guard" or GuardSpec::None],
        value: |p| p.guard.axis_value(), label: |p| p.guard.label(),
        table: "guard", csv: [
            "guard_kind" => |p| p.guard.kind_label().into(),
            "guard_threshold" => |p| format!("{}", p.guard.axis_value())
        ],
        check: |_, guard| guard
            .validate()
            .map_err(|e| CampaignError::InvalidValue(format!("invalid guard: {e}"))),
        flag: "guard", caption: "guard threshold",
    }
    /// Spread scale — the σ axis (parameter value: the scale factor).
    Spread {
        spec: spread_scales, device: true, point: [spread_scale => "spread_scale" or 1.0],
        value: |p| p.spread_scale, label: |p| format!("σ×{}", p.spread_scale),
        table: "σ scale" => |p| format!("{}", p.spread_scale),
        csv: ["spread_scale" => |p| format!("{}", p.spread_scale)],
        check: |key, s| require(key, s >= 0.0 && s.is_finite(), "must be finite and ≥ 0"),
        flag: "spread", caption: "spread scale σ",
    }
    /// Simulation backend (parameter value: 0 = pulse, 2 = batched,
    /// 3 = detailed).
    Backend {
        spec: backends, device: false, point: [backend => "backend"],
        value: |p| backend_words(p.backend)[0] as f64, label: |p| p.backend.label().into(),
        table: "backend", csv: ["backend" => |p| p.backend.label().into()],
        check: |key, backend| match backend {
            BackendKind::Detailed(p) => {
                let ohms = [p.segment_resistance.0, p.driver_resistance.0];
                let ok = ohms.iter().all(|&r| r > 0.0 && r.is_finite());
                require(key, ok, "must have strictly positive and finite wiring resistances")
            }
            BackendKind::Pulse | BackendKind::Batched => Ok(()),
        },
        flag: "backend", caption: "backend (index)",
    }
    /// Monte Carlo trial index (the spec holds the trial count).
    Trial {
        spec: trials, device: true, point: [trial => "trial" or 0],
        value: |p| f64::from(p.trial), label: |p| format!("trial {}", p.trial),
        table: "trial" => |p| p.trial.to_string(), csv: ["trial" => |p| p.trial.to_string()],
        flag: "trial", caption: "trial",
    }
}

impl CampaignAxis {
    fn entry(self) -> &'static Axis {
        &AXES[self as usize]
    }

    /// The axis's `--axis` name (`neurohammer-events`).
    pub fn flag(self) -> &'static str {
        self.entry().flag
    }

    /// The axis named `flag` (see [`CampaignAxis::flag`]).
    pub fn from_flag(flag: &str) -> Option<CampaignAxis> {
        Self::ALL.into_iter().find(|axis| axis.flag() == flag)
    }

    /// Caption of the axis's values on a chart.
    pub fn caption(self) -> &'static str {
        self.entry().caption
    }

    /// Whether the axis's coordinate enters [`CampaignPoint::device_id`]
    /// and with it the Monte Carlo sampling seed. Guards and backends do
    /// not, so comparisons along them run on identical sampled devices.
    pub fn device_relevant(self) -> bool {
        self.entry().device
    }

    /// The column order of point JSON, report tables and CSV: the backend
    /// first, then the other axes in [`CampaignAxis::ALL`] order.
    pub(crate) fn report_order() -> impl Iterator<Item = CampaignAxis> {
        let rest = Self::ALL.into_iter().filter(|&axis| axis != Self::Backend);
        std::iter::once(Self::Backend).chain(rest)
    }

    pub(crate) fn table_header(self) -> &'static str {
        self.entry().table.0
    }

    pub(crate) fn csv_headers(self) -> impl Iterator<Item = &'static str> {
        self.entry().csv.iter().map(|&(header, _)| header)
    }
}

impl CampaignPoint {
    /// Numeric coordinate of this point along `axis`.
    pub fn axis_value(&self, axis: CampaignAxis) -> f64 {
        (axis.entry().value)(self)
    }

    /// Human-readable label of this point along `axis`.
    pub fn axis_label(&self, axis: CampaignAxis) -> String {
        (axis.entry().label)(self)
    }

    /// FNV-1a over the coordinate words of every axis (of the
    /// device-relevant ones with `device_only`) in [`CampaignAxis::ALL`]
    /// order.
    pub(crate) fn coordinate_hash(&self, device_only: bool) -> u64 {
        let mut hash = Fnv1a::new();
        for axis in AXES.iter().filter(|axis| axis.device || !device_only) {
            (axis.words)(self, &mut hash);
        }
        hash.finish()
    }

    pub(crate) fn table_cell(&self, axis: CampaignAxis) -> String {
        match axis.entry().table.1 {
            Some(cell) => cell(self),
            None => self.axis_label(axis),
        }
    }

    pub(crate) fn csv_cells(&self, axis: CampaignAxis) -> impl Iterator<Item = String> + '_ {
        axis.entry().csv.iter().map(|(_, cell)| cell(self))
    }
}

impl ToJson for CampaignPoint {
    fn to_json(&self) -> Json {
        let fields = CampaignAxis::report_order().flat_map(|axis| axis.entry().point_json);
        Json::Object(
            fields
                .map(|(key, field)| (key.to_string(), field(self)))
                .collect(),
        )
    }
}

impl CampaignSpec {
    /// Number of values along `axis` (the trial count for
    /// [`CampaignAxis::Trial`]).
    pub(crate) fn axis_len(&self, axis: CampaignAxis) -> usize {
        (axis.entry().len)(self)
    }

    /// Every axis's empty check, then every value's range check.
    pub(crate) fn check_axes(&self) -> Result<(), CampaignError> {
        if let Some(empty) = AXES.iter().find(|axis| (axis.len)(self) == 0) {
            return Err(CampaignError::EmptyAxis(empty.spec_key));
        }
        AXES.iter().try_for_each(|axis| (axis.check)(self))
    }

    /// The spec JSON lists of the axes, in [`CampaignAxis::ALL`] order.
    pub(crate) fn axes_json(&self) -> impl Iterator<Item = (String, Json)> + '_ {
        AXES.iter()
            .filter_map(|axis| Some((axis.spec_key.into(), (axis.spec_json)(self)?)))
    }

    /// Reads `value` into the axis whose spec key is `key`; `Ok(false)`
    /// when no axis has that key.
    pub(crate) fn axis_from_json(
        &mut self,
        key: &str,
        value: &Json,
    ) -> Result<bool, CampaignError> {
        match AXES.iter().find(|axis| axis.spec_key == key) {
            Some(axis) => (axis.read_spec)(self, value).map(|()| true),
            None => Ok(false),
        }
    }
}

/// What a spec field holds for one axis: a list of values, or the trial
/// count (trial `i` for every `i` below it).
trait AxisValues {
    type Value;
    fn count(&self) -> usize;
    fn nth(&self, index: usize) -> Self::Value;
    /// The spec JSON list; `None` for a count, which the spec writes among
    /// its scalar keys.
    fn list_json(&self) -> Option<Json> {
        None
    }
}

impl<T: Copy + ToJson> AxisValues for Vec<T> {
    type Value = T;
    fn count(&self) -> usize {
        self.len()
    }
    fn nth(&self, index: usize) -> T {
        self[index]
    }
    fn list_json(&self) -> Option<Json> {
        Some(self.to_json())
    }
}

impl AxisValues for u32 {
    type Value = u32;
    fn count(&self) -> usize {
        *self as usize
    }
    fn nth(&self, index: usize) -> u32 {
        index as u32
    }
}

fn convert<V, F>(value: V, conversion: fn(V) -> F) -> F {
    conversion(value)
}

fn check_values<A: AxisValues>(
    values: &A,
    key: &'static str,
    check: fn(&'static str, A::Value) -> Result<(), CampaignError>,
) -> Result<(), CampaignError> {
    (0..values.count()).try_for_each(|index| check(key, values.nth(index)))
}

/// `Ok` when `ok`, else `InvalidValue("<key> <rule>")`.
pub(super) fn require(key: &str, ok: bool, rule: &str) -> Result<(), CampaignError> {
    ok.then_some(())
        .ok_or_else(|| CampaignError::InvalidValue(format!("{key} {rule}")))
}

fn positive(key: &'static str, value: f64) -> Result<(), CampaignError> {
    let ok = value > 0.0 && value.is_finite();
    require(key, ok, "must be strictly positive and finite")
}

fn array_size(rows: usize, cols: usize) -> Result<(), CampaignError> {
    if rows < 2 || cols < 2 {
        return Err(CampaignError::ArrayTooSmall { rows, cols });
    }
    let cells = rows.saturating_mul(cols);
    let rule = format!("must have at most {MAX_ARRAY_CELLS} cells per array, got {rows}x{cols}");
    require("array_sizes", cells <= MAX_ARRAY_CELLS, &rule)
}

/// The backend's fingerprint words: its tag (0 = pulse, 2 = batched,
/// 3 = detailed), then the detailed engine's wiring parasitics. Tag 1 was
/// the detailed engine before it moved onto the pulse engine's sub-step
/// plan; its checkpoints do not resume into this one.
fn backend_words(backend: BackendKind) -> [u64; 3] {
    match backend {
        BackendKind::Pulse => [0, 0, 0],
        BackendKind::Detailed(p) => [
            3,
            p.segment_resistance.0.to_bits(),
            p.driver_resistance.0.to_bits(),
        ],
        BackendKind::Batched => [2, 0, 0],
    }
}

/// A point coordinate's fingerprint words, streamed into the hash: exact
/// bit patterns for reals, the position in `ALL` for labelled kinds.
trait FingerprintWords {
    fn write_words(&self, hash: &mut Fnv1a);
}

macro_rules! fingerprint_words {
    ($($ty:ty => |$value:ident| $words:expr,)+) => {$(
        impl FingerprintWords for $ty {
            fn write_words(&self, hash: &mut Fnv1a) {
                let $value = self;
                $words.into_iter().for_each(|word| hash.write(word));
            }
        }
    )+};
}

fingerprint_words! {
    usize => |n| [*n as u64],
    u32 => |n| [u64::from(*n)],
    f64 => |x| [x.to_bits()],
    Volts => |v| [v.0.to_bits()],
    Seconds => |s| [s.0.to_bits()],
    Kelvin => |k| [k.0.to_bits()],
    AttackPattern => |pattern| [pattern.index() as u64],
    WriteScheme => |scheme| [scheme.index() as u64],
    GuardSpec => |guard| guard.fingerprint_words(),
    BackendKind => |backend| backend_words(*backend),
}
