//! The lane kernel advances a call's biased lanes in lockstep groups and
//! replays a biased lane whose key `(v, ΔT, n, charge)` equals the last
//! stepped lane's (the `rram_jart::kernel` docs say why both are exact).
//! Random banks hardly ever hold two lanes with one key, so this suite
//! builds banks from runs of identical `(state, ΔT, voltage)` lanes, with
//! run lengths from 1 to `2·LOCKSTEP + 1` so that runs straddle group
//! edges, and enough runs that groups fill and replays queue up behind an
//! open group. After every step, every lane field must equal the uncached
//! reference `kernel::step_lane` on that lane, bit for bit.
//!
//! The cases cover shared parameters and Monte Carlo column tables (some
//! with a column the relax update reads), one to four threads through
//! `step_lanes_threaded`, and step sequences with `dt = 0`, positive,
//! negative and exactly zero voltages.

use std::borrow::Cow;

use neurohammer_repro::jart::current::LOCKSTEP;
use neurohammer_repro::jart::kernel::{step_lane, step_lanes_threaded};
use neurohammer_repro::jart::{CellBank, DeviceParams, ParamColumns, ParamField};
use neurohammer_repro::telemetry::Registry;
use neurohammer_repro::units::Seconds;

/// splitmix64: the suite's deterministic source of cases.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }
}

/// One bank of runs: the bank, its voltages and the steps to take.
struct Case {
    bank: CellBank,
    voltages: Vec<f64>,
    steps: Vec<f64>,
}

/// A bank of runs of identical `(state, ΔT, voltage)` lanes. Consecutive
/// runs often share a voltage, a ΔT or a state, so keys differ in one
/// component at a time; some runs are grounded, and the echo must carry
/// across them.
fn case_of(rng: &mut Rng, table: Option<&ParamColumns>, lanes_cap: usize) -> Case {
    let nominal = DeviceParams::default();
    let mut runs: Vec<(usize, f64, f64, f64)> = Vec::new();
    let mut lanes = 0;
    let (mut state, mut delta, mut voltage) = (0.0, 0.0, 0.525);
    while lanes < lanes_cap {
        let len = 1 + rng.below(2 * LOCKSTEP + 1);
        match rng.below(6) {
            0 => state = [0.0, 1.0, rng.range(0.0, 1.0)][rng.below(3)],
            1 => delta = [0.0, rng.range(0.0, 80.0)][rng.below(2)],
            2 => voltage = [0.0, -0.525, 1.05, rng.range(-1.5, 1.5)][rng.below(4)],
            3 => {
                state = rng.range(0.0, 1.0);
                delta = rng.range(0.0, 80.0);
            }
            _ => {}
        }
        let len = len.min(lanes_cap - lanes);
        runs.push((len, state, delta, voltage));
        lanes += len;
    }
    let mut bank = CellBank::new(lanes, &nominal);
    let mut voltages = Vec::with_capacity(lanes);
    for (len, state, delta, voltage) in runs {
        for _ in 0..len {
            let lane = voltages.len();
            let params = table.map_or(Cow::Borrowed(&nominal), |t| t.lane(lane));
            bank.force_concentration(
                lane,
                params.n_min + state * (params.n_max - params.n_min),
                &params,
            );
            bank.set_crosstalk(lane, delta);
            voltages.push(voltage);
        }
    }
    let steps = (0..2 + rng.below(3))
        .map(|_| match rng.below(4) {
            0 => 0.0,
            _ => rng.range(1e-10, 5e-7),
        })
        .collect();
    Case {
        bank,
        voltages,
        steps,
    }
}

/// A Monte Carlo column table over `lanes` lanes; with `relax_spread` the
/// ambient temperature, which the zero-bias update reads, is a column too.
fn spread_table(rng: &mut Rng, lanes: usize, relax_spread: bool) -> ParamColumns {
    let nominal = DeviceParams::default();
    let mut fields = vec![ParamField::FilamentRadius, ParamField::LDisc];
    if relax_spread {
        fields.push(ParamField::AmbientTemperature);
    }
    let mut table = ParamColumns::uniform(nominal.clone(), lanes);
    for field in fields {
        let spread = if field == ParamField::AmbientTemperature {
            0.05
        } else {
            0.3
        };
        let column = (0..lanes)
            .map(|_| rng.range(1.0 - spread, 1.0 + spread) * field.get(&nominal))
            .collect();
        table.set_column(field, column);
    }
    table
}

/// Bitwise equality of every lane field of two banks.
fn assert_banks_identical(kernel: &CellBank, reference: &CellBank, context: &str) {
    for lane in 0..kernel.lanes() {
        let fields = |bank: &CellBank| {
            let op = bank.operating_point(lane);
            [
                bank.concentrations()[lane],
                bank.temperatures()[lane],
                bank.stress_times()[lane],
                bank.charges()[lane],
                bank.crosstalk()[lane],
                op.v_cell,
                op.current,
                op.v_active,
                op.power_active,
                op.resistance,
            ]
            .map(f64::to_bits)
        };
        assert_eq!(
            fields(kernel),
            fields(reference),
            "{context}: lane {lane} (n, T, stress, charge, ΔT, operating point)"
        );
        assert_eq!(
            kernel.digital()[lane],
            reference.digital()[lane],
            "{context}: lane {lane} digital state"
        );
    }
}

/// Steps `case` through the kernel on one to four threads and checks each
/// step against the per-lane reference.
fn check_case(case: &Case, table: Option<&ParamColumns>, context: &str) {
    let nominal = DeviceParams::default();
    let mut reference = case.bank.clone();
    let mut trajectory = Vec::with_capacity(case.steps.len());
    for &dt in &case.steps {
        for (lane, &v_cell) in case.voltages.iter().enumerate() {
            let params = table.map_or(Cow::Borrowed(&nominal), |t| t.lane(lane));
            step_lane(
                &params,
                &mut reference.view_mut(),
                lane,
                v_cell,
                Seconds(dt),
            );
        }
        trajectory.push(reference.clone());
    }
    for threads in 1..=4 {
        let mut bank = case.bank.clone();
        for (step, (&dt, expected)) in case.steps.iter().zip(&trajectory).enumerate() {
            let voltages = &case.voltages;
            match table {
                Some(table) => {
                    step_lanes_threaded(table, voltages, bank.view_mut(), Seconds(dt), threads)
                }
                None => {
                    step_lanes_threaded(&nominal, voltages, bank.view_mut(), Seconds(dt), threads)
                }
            }
            let context = format!("{context}, {threads} threads, step {step} (dt {dt:e})");
            assert_banks_identical(&bank, expected, &context);
        }
    }
}

/// The process-wide echo counters `(hits, lookups)`.
fn echo_counters() -> (u64, u64) {
    let registry = Registry::global();
    let hits = registry.counter(
        "kernel_echo_hits_total",
        "Biased lane steps replayed from the cross-lane echo cache",
    );
    let lookups = registry.counter(
        "kernel_echo_lookups_total",
        "Biased lane steps routed through the cross-lane echo cache",
    );
    (hits.value(), lookups.value())
}

#[test]
fn runs_of_identical_lanes_replay_bit_identically_under_shared_params() {
    let mut rng = Rng(0xec40_5eed);
    let (hits_before, lookups_before) = echo_counters();
    for case_index in 0..24 {
        let lanes_cap = [1, LOCKSTEP, 8 * LOCKSTEP, 40 * LOCKSTEP][case_index % 4];
        let case = case_of(&mut rng, None, lanes_cap);
        check_case(&case, None, &format!("shared case {case_index}"));
    }
    // Guard against a vacuous suite: the scan replayed lanes, and not all
    // of them.
    let (hits, lookups) = echo_counters();
    let (hits, lookups) = (hits - hits_before, lookups - lookups_before);
    assert!(
        hits > 0 && hits < lookups,
        "{hits} replays of {lookups} lookups"
    );
}

#[test]
fn runs_of_identical_lanes_step_bit_identically_under_column_tables() {
    let mut rng = Rng(0xc01_7ab1e);
    for case_index in 0..12 {
        let lanes_cap = [LOCKSTEP, 3 * LOCKSTEP, 12 * LOCKSTEP][case_index % 3];
        let table = spread_table(&mut rng, lanes_cap, case_index % 2 == 1);
        let case = case_of(&mut rng, Some(&table), lanes_cap);
        check_case(&case, Some(&table), &format!("column case {case_index}"));
    }
}
