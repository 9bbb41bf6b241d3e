//! Property tests pinning the SIMD lane kernel to the scalar one, bit for
//! bit. Every level runs the same cached lane loop; the vector levels
//! (`simd::SimdLevel::Avx2` / `Neon`) only swap intrinsics into the
//! block-wide helpers (the all-zero test and the relax temperature update)
//! and must not change a single result bit.
//!
//! On hardware without the vector ISA, `simd::detected()` sanitises to
//! `Scalar` and every test here degenerates to scalar-vs-scalar: the
//! detection-gated identity is *skipped by construction*, never failed.
//! Compile with `--features simd` on AVX2/NEON hardware to exercise the
//! vector arms for real.

use std::borrow::Cow;

use proptest::prelude::*;
use rram_jart::kernel::{relax_lanes_with, step_lanes_with, CellBank, LANE_CHUNK};
use rram_jart::simd::{self, SimdLevel};
use rram_jart::{DeviceParams, ParamColumns, ParamField};
use rram_units::Seconds;

/// A column table scaled from the nominal set, as a variability campaign
/// would install: per-lane filament radius and disc length.
fn spread_columns(scales: &[(f64, f64)]) -> ParamColumns {
    let nominal = DeviceParams::default();
    let mut table = ParamColumns::uniform(nominal.clone(), scales.len());
    table.set_column(
        ParamField::FilamentRadius,
        scales
            .iter()
            .map(|s| s.0 * nominal.filament_radius)
            .collect(),
    );
    table.set_column(
        ParamField::LDisc,
        scales.iter().map(|s| s.1 * nominal.l_disc).collect(),
    );
    table
}

/// Per-lane proptest input: (initial state, crosstalk ΔT, cell voltage,
/// force-exact-zero flag). The flag grounds lanes *exactly* often enough to
/// cover the all-zero chunk fast path and zero lanes inside active chunks.
type LaneInput = (f64, f64, f64, bool);

fn bank_of(lanes: &[LaneInput], table: Option<&ParamColumns>) -> (CellBank, Vec<f64>) {
    let nominal = DeviceParams::default();
    let mut bank = CellBank::new(lanes.len(), &nominal);
    let mut voltages = Vec::with_capacity(lanes.len());
    for (lane, &(state, delta, voltage, grounded)) in lanes.iter().enumerate() {
        let params = table.map_or(Cow::Borrowed(&nominal), |t| t.lane(lane));
        let n = params.n_min + state * (params.n_max - params.n_min);
        bank.force_concentration(lane, n, &params);
        bank.set_crosstalk(lane, delta);
        voltages.push(if grounded { 0.0 } else { voltage });
    }
    (bank, voltages)
}

/// Bitwise equality over every state lane of two banks.
fn assert_banks_identical(a: &CellBank, b: &CellBank) -> Result<(), TestCaseError> {
    for lane in 0..a.lanes() {
        prop_assert_eq!(
            a.concentrations()[lane].to_bits(),
            b.concentrations()[lane].to_bits(),
            "lane {} concentration: {} vs {}",
            lane,
            a.concentrations()[lane],
            b.concentrations()[lane]
        );
        prop_assert_eq!(
            a.temperatures()[lane].to_bits(),
            b.temperatures()[lane].to_bits(),
            "lane {} temperature",
            lane
        );
        prop_assert_eq!(
            a.stress_times()[lane].to_bits(),
            b.stress_times()[lane].to_bits()
        );
        prop_assert_eq!(a.charges()[lane].to_bits(), b.charges()[lane].to_bits());
        prop_assert_eq!(a.digital()[lane], b.digital()[lane]);
    }
    Ok(())
}

proptest! {
    /// The detected vector level is bit-identical to the scalar one —
    /// across chunk-aligned lane counts, remainders
    /// shorter than `LANE_CHUNK`, exact-zero voltages mixed into active
    /// chunks, and whole all-zero chunks.
    #[test]
    fn vector_step_lanes_is_bit_identical_to_scalar(
        lanes in prop::collection::vec(
            (0.0f64..1.0, 0.0f64..80.0, -1.5f64..1.5, any::<bool>()),
            1..(5 * LANE_CHUNK),
        ),
        steps in prop::collection::vec(1e-10f64..5e-7, 1..4),
    ) {
        let params = DeviceParams::default();
        let (mut vector, voltages) = bank_of(&lanes, None);
        let mut scalar = vector.clone();

        for &dt in &steps {
            step_lanes_with(
                &params, &voltages, &mut vector.view_mut(), Seconds(dt),
                simd::detected(),
            );
            step_lanes_with(
                &params, &voltages, &mut scalar.view_mut(), Seconds(dt),
                SimdLevel::Scalar,
            );
            assert_banks_identical(&vector, &scalar)?;
        }
    }

    /// The same identity under a column table.
    #[test]
    fn vector_step_lanes_matches_scalar_under_spreads(
        lanes in prop::collection::vec(
            (0.0f64..1.0, 0.0f64..80.0, -1.5f64..1.5, any::<bool>()),
            1..(3 * LANE_CHUNK),
        ),
        scales in prop::collection::vec(
            (0.7f64..1.3, 0.7f64..1.3),
            (3 * LANE_CHUNK)..(3 * LANE_CHUNK + 1),
        ),
        dt in 1e-10f64..5e-7,
    ) {
        let table = spread_columns(&scales[..lanes.len()]);
        let (mut vector, voltages) = bank_of(&lanes, Some(&table));
        let mut scalar = vector.clone();

        step_lanes_with(
            &table, &voltages, &mut vector.view_mut(), Seconds(dt),
            simd::detected(),
        );
        step_lanes_with(
            &table, &voltages, &mut scalar.view_mut(), Seconds(dt),
            SimdLevel::Scalar,
        );
        assert_banks_identical(&vector, &scalar)?;
    }

    /// The vectorised relaxation (zero-voltage cooling between pulses) is
    /// bit-identical to the scalar one, under shared parameters and column
    /// tables alike.
    #[test]
    fn vector_relax_lanes_is_bit_identical_to_scalar(
        lanes in prop::collection::vec(
            (0.0f64..1.0, 0.0f64..80.0, -1.5f64..1.5, any::<bool>()),
            1..(5 * LANE_CHUNK),
        ),
        scales in prop::collection::vec(
            (0.7f64..1.3, 0.7f64..1.3),
            (5 * LANE_CHUNK)..(5 * LANE_CHUNK + 1),
        ),
        per_lane in any::<bool>(),
        steps in prop::collection::vec(1e-10f64..5e-7, 1..4),
    ) {
        let nominal = DeviceParams::default();
        let table = spread_columns(&scales[..lanes.len()]);
        let params_table = per_lane.then_some(&table);
        let (mut vector, _) = bank_of(&lanes, params_table);
        let mut scalar = vector.clone();

        for &dt in &steps {
            match params_table {
                Some(table) => {
                    relax_lanes_with(table, &mut vector.view_mut(), Seconds(dt), simd::detected());
                    relax_lanes_with(table, &mut scalar.view_mut(), Seconds(dt), SimdLevel::Scalar);
                }
                None => {
                    relax_lanes_with(
                        &nominal, &mut vector.view_mut(), Seconds(dt), simd::detected(),
                    );
                    relax_lanes_with(
                        &nominal, &mut scalar.view_mut(), Seconds(dt), SimdLevel::Scalar,
                    );
                }
            }
            assert_banks_identical(&vector, &scalar)?;
        }
    }
}

/// The detection plumbing itself: `detected()` is stable across calls,
/// sanitisation never *upgrades* a level, and the kill switch forces the
/// scalar tier.
#[test]
fn detection_is_stable_and_sanitisation_only_downgrades() {
    let level = simd::detected();
    assert_eq!(level, simd::detected());
    assert_eq!(simd::sanitize(level), level);
    assert_eq!(simd::sanitize(SimdLevel::Scalar), SimdLevel::Scalar);
    simd::force_scalar(true);
    assert_eq!(simd::active(), SimdLevel::Scalar);
    simd::force_scalar(false);
    assert_eq!(simd::active(), level);
}
