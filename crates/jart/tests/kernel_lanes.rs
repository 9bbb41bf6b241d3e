//! Property tests pinning the struct-of-arrays contract: stepping an N-lane
//! [`CellBank`] through the cached array kernel is *bit-identical* to
//! stepping N independent [`JartDevice`]s through the uncached reference,
//! for any mix of states, crosstalk imports, voltages, step lengths and
//! per-lane parameter columns. This is what lets the crossbar pulse engine
//! run every cell through one cached kernel call without moving a result
//! bit.

use std::borrow::Cow;

use proptest::prelude::*;
use rram_jart::kernel::{
    relax_lane_ranges, step_lane, step_lane_ranges, step_lane_ranges_threaded, step_lanes,
    step_lanes_threaded, CellBank, LaneParams, LANE_CHUNK,
};
use rram_jart::{DeviceParams, JartDevice, ParamColumns, ParamField};
use rram_units::{Kelvin, Seconds, Volts};

/// Per-lane spread scales: (filament radius, disc length, ambient).
type Scales = (f64, f64, f64);

/// A column table scaled from the nominal set: the kind of heterogeneity a
/// Monte Carlo variability campaign installs. Filament radius and disc
/// length always vary per lane; with `relax_spread` the ambient
/// temperature does too, and since the zero-bias update reads it, idle
/// lanes then relax under their own parameter sets.
fn spread_columns(scales: &[Scales], relax_spread: bool) -> ParamColumns {
    let nominal = DeviceParams::default();
    let column = |field: ParamField, scale: fn(&Scales) -> f64| -> Vec<f64> {
        scales
            .iter()
            .map(|s| scale(s) * field.get(&nominal))
            .collect()
    };
    let mut table = ParamColumns::uniform(nominal.clone(), scales.len());
    table.set_column(
        ParamField::FilamentRadius,
        column(ParamField::FilamentRadius, |s| s.0),
    );
    table.set_column(ParamField::LDisc, column(ParamField::LDisc, |s| s.1));
    if relax_spread {
        table.set_column(
            ParamField::AmbientTemperature,
            column(ParamField::AmbientTemperature, |s| s.2),
        );
    }
    table
}

/// The spread scales a proptest case draws per lane.
fn scales() -> (
    std::ops::Range<f64>,
    std::ops::Range<f64>,
    std::ops::Range<f64>,
) {
    (0.7f64..1.3, 0.7f64..1.3, 0.95f64..1.05)
}

/// Per-lane proptest input: (initial state, crosstalk ΔT, cell voltage,
/// force-exact-zero flag). The flag grounds the lane *exactly* often enough
/// to exercise the chunked kernel's all-zero fast path, both as whole zero
/// chunks and as zero lanes mixed into active chunks.
type LaneInput = (f64, f64, f64, bool);

/// A fully populated bank from proptest lane inputs, plus the resolved
/// voltage vector.
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
            b.temperatures()[lane].to_bits()
        );
        prop_assert_eq!(
            a.stress_times()[lane].to_bits(),
            b.stress_times()[lane].to_bits()
        );
        prop_assert_eq!(a.charges()[lane].to_bits(), b.charges()[lane].to_bits());
        prop_assert_eq!(a.digital()[lane], b.digital()[lane]);
        prop_assert_eq!(a.crosstalk()[lane].to_bits(), b.crosstalk()[lane].to_bits());
        let (p, q) = (a.operating_point(lane), b.operating_point(lane));
        for (x, y) in [
            (p.v_cell, q.v_cell),
            (p.current, q.current),
            (p.v_active, q.v_active),
            (p.power_active, q.power_active),
            (p.resistance, q.resistance),
        ] {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "lane {} operating point", lane);
        }
    }
    Ok(())
}

/// Disjoint, ascending lane ranges from per-lane `(inside, cut)` flags:
/// each run of `inside` lanes is a range, a `cut` inside a run starts a new
/// range right after the previous one ends (adjacent ranges the kernel must
/// not merge), and a `cut` outside a run adds an empty range there.
fn ranges_of(flags: &[(bool, bool)]) -> Vec<std::ops::Range<usize>> {
    let mut ranges: Vec<std::ops::Range<usize>> = Vec::new();
    let mut open = false;
    for (lane, &(inside, cut)) in flags.iter().enumerate() {
        match (inside, open && !cut) {
            (true, true) => ranges.last_mut().expect("an open range").end = lane + 1,
            (true, false) => ranges.push(lane..lane + 1),
            (false, _) if cut => ranges.push(lane..lane),
            (false, _) => {}
        }
        open = inside;
    }
    ranges
}

proptest! {
    #[test]
    fn step_lanes_is_bit_identical_to_independent_devices(
        // One (initial normalised state, crosstalk ΔT, cell voltage) per lane.
        lanes in prop::collection::vec(
            (0.0f64..1.0, 0.0f64..80.0, -1.5f64..1.5),
            1..10,
        ),
        // A shared sequence of step lengths, spanning idle to switching.
        steps in prop::collection::vec(1e-10f64..5e-7, 1..5),
    ) {
        let params = DeviceParams::default();
        let mut bank = CellBank::new(lanes.len(), &params);
        let mut devices: Vec<JartDevice> = Vec::with_capacity(lanes.len());
        let mut voltages: Vec<f64> = Vec::with_capacity(lanes.len());
        for (lane, &(state, delta, voltage)) in lanes.iter().enumerate() {
            let n = params.n_min + state * (params.n_max - params.n_min);
            bank.force_concentration(lane, n, &params);
            bank.set_crosstalk(lane, delta);
            let mut device = JartDevice::new(params.clone());
            device.force_concentration(n);
            device.set_crosstalk_delta(Kelvin(delta));
            devices.push(device);
            voltages.push(voltage);
        }

        for &dt in &steps {
            step_lanes(&params, &voltages, &mut bank.view_mut(), Seconds(dt));
            for (lane, device) in devices.iter_mut().enumerate() {
                device.step(Volts(voltages[lane]), Seconds(dt));
            }
            for (lane, device) in devices.iter().enumerate() {
                prop_assert_eq!(
                    bank.concentrations()[lane].to_bits(),
                    device.concentration().to_bits(),
                    "lane {} concentration: {} vs {}",
                    lane, bank.concentrations()[lane], device.concentration()
                );
                prop_assert_eq!(
                    bank.temperatures()[lane].to_bits(),
                    device.temperature().0.to_bits()
                );
                prop_assert_eq!(
                    bank.stress_times()[lane].to_bits(),
                    device.stress_time().0.to_bits()
                );
                prop_assert_eq!(
                    bank.charges()[lane].to_bits(),
                    device.conduction_charge().0.to_bits()
                );
                prop_assert_eq!(bank.digital()[lane], device.digital_state());
            }
        }
    }

    /// The same identity under device-to-device spreads: stepping a bank
    /// with a column table is bit-identical to stepping each lane as an
    /// independent `JartDevice` built from its table lane — with and
    /// without a column the zero-bias update reads.
    #[test]
    fn per_lane_params_keep_the_bank_bit_identical_to_devices(
        // One (spread scales, initial state, ΔT, voltage) per lane: each
        // lane is a different device.
        lanes in prop::collection::vec(
            (scales(), 0.0f64..1.0, 0.0f64..80.0, -1.5f64..1.5),
            1..8,
        ),
        relax_spread in any::<bool>(),
        steps in prop::collection::vec(1e-10f64..5e-7, 1..4),
    ) {
        let nominal = DeviceParams::default();
        let scales: Vec<Scales> = lanes.iter().map(|&(scales, ..)| scales).collect();
        let table = spread_columns(&scales, relax_spread);
        let mut bank = CellBank::new(lanes.len(), &nominal);
        let mut devices: Vec<JartDevice> = Vec::with_capacity(lanes.len());
        let mut voltages: Vec<f64> = Vec::with_capacity(lanes.len());
        for (lane, &(_, state, delta, voltage)) in lanes.iter().enumerate() {
            let params = table.lane(lane).into_owned();
            let n = params.n_min + state * (params.n_max - params.n_min);
            bank.force_concentration(lane, n, &params);
            bank.set_crosstalk(lane, delta);
            let mut device = JartDevice::new(params);
            device.force_concentration(n);
            device.set_crosstalk_delta(Kelvin(delta));
            devices.push(device);
            voltages.push(voltage);
        }

        for &dt in &steps {
            step_lanes(&table, &voltages, &mut bank.view_mut(), Seconds(dt));
            for (lane, device) in devices.iter_mut().enumerate() {
                device.step(Volts(voltages[lane]), Seconds(dt));
            }
            for (lane, device) in devices.iter().enumerate() {
                prop_assert_eq!(
                    bank.concentrations()[lane].to_bits(),
                    device.concentration().to_bits(),
                    "lane {} concentration under spreads: {} vs {}",
                    lane, bank.concentrations()[lane], device.concentration()
                );
                prop_assert_eq!(
                    bank.temperatures()[lane].to_bits(),
                    device.temperature().0.to_bits()
                );
                prop_assert_eq!(
                    bank.charges()[lane].to_bits(),
                    device.conduction_charge().0.to_bits()
                );
                prop_assert_eq!(bank.digital()[lane], device.digital_state());
            }
        }
    }

    /// The chunked `step_lanes` (fixed-width `LANE_CHUNK` blocks with an
    /// all-zero fast path, plus a scalar remainder loop) is bit-identical
    /// to stepping every lane through the per-lane `step_lane` reference —
    /// for lane counts spanning several chunks and every remainder length,
    /// with exact-zero voltages mixed into active chunks, and with zero and
    /// nonzero crosstalk.
    #[test]
    fn chunked_step_lanes_matches_the_per_lane_reference(
        lanes in prop::collection::vec(
            (0.0f64..1.0, 0.0f64..80.0, -1.5f64..1.5, any::<bool>()),
            1..(5 * LANE_CHUNK),
        ),
        steps in prop::collection::vec(1e-10f64..5e-7, 1..4),
    ) {
        let params = DeviceParams::default();
        let (mut chunked, voltages) = bank_of(&lanes, None);
        let mut reference = chunked.clone();

        for &dt in &steps {
            step_lanes(&params, &voltages, &mut chunked.view_mut(), Seconds(dt));
            for (lane, &v_cell) in voltages.iter().enumerate() {
                step_lane(&params, &mut reference.view_mut(), lane, v_cell, Seconds(dt));
            }
            assert_banks_identical(&chunked, &reference)?;
        }
    }

    /// The same chunk-vs-reference identity under a column table: chunk
    /// boundaries must resolve the table consistently with the per-lane
    /// lookup, on the shared relax path and on the per-lane one.
    #[test]
    fn chunked_step_lanes_matches_the_reference_under_spreads(
        lanes in prop::collection::vec(
            (0.0f64..1.0, 0.0f64..80.0, -1.5f64..1.5, any::<bool>()),
            1..(3 * LANE_CHUNK),
        ),
        scales in prop::collection::vec(
            scales(),
            (3 * LANE_CHUNK)..(3 * LANE_CHUNK + 1),
        ),
        relax_spread in any::<bool>(),
        dt in 1e-10f64..5e-7,
    ) {
        let table = spread_columns(&scales[..lanes.len()], relax_spread);
        let (mut chunked, voltages) = bank_of(&lanes, Some(&table));
        let mut reference = chunked.clone();

        step_lanes(&table, &voltages, &mut chunked.view_mut(), Seconds(dt));
        for (lane, &v_cell) in voltages.iter().enumerate() {
            step_lane(&table.lane(lane), &mut reference.view_mut(), lane, v_cell, Seconds(dt));
        }
        assert_banks_identical(&chunked, &reference)?;
    }

    /// Splitting one sub-step's lane range across scoped worker threads is
    /// bit-identical to the single-threaded kernel for any thread count
    /// 1–8 and any lane count (lanes are independent within a sub-step, so
    /// only the partitioning could go wrong — this pins it), under shared
    /// parameters and column tables alike.
    #[test]
    fn threaded_step_lanes_is_bit_identical_for_any_thread_count(
        lanes in prop::collection::vec(
            (0.0f64..1.0, 0.0f64..80.0, -1.5f64..1.5, any::<bool>()),
            1..(5 * LANE_CHUNK),
        ),
        scales in prop::collection::vec(
            scales(),
            (5 * LANE_CHUNK)..(5 * LANE_CHUNK + 1),
        ),
        threads in 1usize..9,
        per_lane in any::<bool>(),
        relax_spread in any::<bool>(),
        dt in 1e-10f64..5e-7,
    ) {
        let nominal = DeviceParams::default();
        let table = spread_columns(&scales[..lanes.len()], relax_spread);
        let params_table = per_lane.then_some(&table);
        let (mut threaded, voltages) = bank_of(&lanes, params_table);
        let mut reference = threaded.clone();

        match params_table {
            Some(table) => {
                step_lanes_threaded(table, &voltages, threaded.view_mut(), Seconds(dt), threads);
                step_lanes(table, &voltages, &mut reference.view_mut(), Seconds(dt));
            }
            None => {
                step_lanes_threaded(&nominal, &voltages, threaded.view_mut(), Seconds(dt), threads);
                step_lanes(&nominal, &voltages, &mut reference.view_mut(), Seconds(dt));
            }
        }
        assert_banks_identical(&threaded, &reference)?;
    }

    /// Stepping lane ranges is stepping exactly their lanes: each lane of a
    /// range ends bit-identical to the per-lane `step_lane` reference, every
    /// other lane is untouched, the all-grounded `relax_lane_ranges` matches
    /// the reference at zero voltage, and the threaded kernel agrees for
    /// threads 1–4 — under shared parameters and column tables, with and
    /// without a column the relax update reads.
    #[test]
    fn lane_ranges_step_exactly_their_lanes(
        lanes in prop::collection::vec(
            (0.0f64..1.0, 0.0f64..80.0, -1.5f64..1.5, any::<bool>()),
            1..(6 * LANE_CHUNK),
        ),
        flags in prop::collection::vec(
            (any::<bool>(), any::<bool>()),
            (6 * LANE_CHUNK)..(6 * LANE_CHUNK + 1),
        ),
        scales in prop::collection::vec(
            scales(),
            (6 * LANE_CHUNK)..(6 * LANE_CHUNK + 1),
        ),
        per_lane in any::<bool>(),
        relax_spread in any::<bool>(),
        dt in 1e-10f64..5e-7,
    ) {
        let nominal = DeviceParams::default();
        let table = spread_columns(&scales[..lanes.len()], relax_spread);
        let params_table = per_lane.then_some(&table);
        let params: LaneParams<'_> = match params_table {
            Some(table) => table.into(),
            None => (&nominal).into(),
        };
        let lane_params =
            |lane: usize| params_table.map_or(Cow::Borrowed(&nominal), |t| t.lane(lane));
        let ranges = ranges_of(&flags[..lanes.len()]);
        let (bank, voltages) = bank_of(&lanes, params_table);

        let mut reference = bank.clone();
        let mut relaxed_reference = bank.clone();
        for lane in ranges.iter().flat_map(Clone::clone) {
            let lane_set = lane_params(lane);
            let v_cell = voltages[lane];
            step_lane(&lane_set, &mut reference.view_mut(), lane, v_cell, Seconds(dt));
            step_lane(&lane_set, &mut relaxed_reference.view_mut(), lane, 0.0, Seconds(dt));
        }

        let mut ranged = bank.clone();
        step_lane_ranges(params, &voltages, &mut ranged.view_mut(), &ranges, Seconds(dt));
        assert_banks_identical(&ranged, &reference)?;

        let mut relaxed = bank.clone();
        relax_lane_ranges(params, &mut relaxed.view_mut(), &ranges, Seconds(dt));
        assert_banks_identical(&relaxed, &relaxed_reference)?;

        for threads in 1..=4 {
            let mut threaded = bank.clone();
            step_lane_ranges_threaded(
                params,
                &voltages,
                threaded.view_mut(),
                &ranges,
                Seconds(dt),
                threads,
            );
            assert_banks_identical(&threaded, &reference)?;
        }
    }
}

#[test]
#[should_panic(expected = "disjoint, ascending and in bounds")]
fn overlapping_lane_ranges_panic() {
    let params = DeviceParams::default();
    let mut bank = CellBank::new(8, &params);
    step_lane_ranges(
        &params,
        &[0.5; 8],
        &mut bank.view_mut(),
        &[0..4, 3..6],
        Seconds(1e-9),
    );
}
