//! The pulse engine visits only its warm and biased cells each sub-step;
//! the `rram_crossbar::engine` module docs say why that is exact. This
//! suite runs random operation sequences on random arrays from 1×1 to
//! 40×40 and checks, after every operation, that every lane field and the
//! hub state equal, bit for bit, an oracle that runs the whole-array
//! sub-step loop through public calls: import every cell, step or relax
//! every cell, update the hub over every row.
//!
//! The cases cover all three write schemes, the two-ring profile and a
//! wider asymmetric α, τ including 0, homogeneous arrays and Monte Carlo
//! column tables (some with a column the relax update reads), an engine
//! ambient above and below the devices' own, one to three lane threads,
//! and every call that edits the engine from outside.

use neurohammer_repro::crossbar::{
    CellAddress, CrossbarArray, CrosstalkHub, EngineConfig, HammerBackend, PulseEngine, WriteScheme,
};
use neurohammer_repro::fem::AlphaMatrix;
use neurohammer_repro::jart::{DeviceParams, DigitalState, ParamColumns, ParamField};
use neurohammer_repro::units::{Kelvin, Seconds, Volts};

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

    fn cell(&mut self, rows: usize, cols: usize) -> CellAddress {
        CellAddress::new(self.below(rows), self.below(cols))
    }
}

/// The whole-array engine: the same array, hub and configuration,
/// advanced by the sub-step loop every cell takes part in.
struct Oracle {
    array: CrossbarArray,
    hub: CrosstalkHub,
    config: EngineConfig,
    elapsed: f64,
}

impl Oracle {
    fn advance(&mut self, selected: Option<(CellAddress, Volts)>, duration: f64) {
        let (rows, cols) = (self.array.rows(), self.array.cols());
        let voltages: Option<Vec<f64>> = selected.map(|(address, amplitude)| {
            let bias = self.config.scheme.line_bias(rows, cols, address, amplitude);
            (0..rows * cols)
                .map(|i| bias.cell_voltage(CellAddress::new(i / cols, i % cols)).0)
                .collect()
        });
        let substep = self.config.substep(selected.is_some());
        let mut remaining = duration;
        while remaining > 0.0 {
            let dt = Seconds(remaining.min(substep));
            self.array.import_crosstalk(self.hub.deltas());
            match &voltages {
                Some(voltages) => self.array.step_lanes(voltages, dt),
                None => self.array.relax_lanes(dt),
            }
            self.hub
                .update_batched(self.array.temperatures(), self.config.ambient, dt);
            remaining -= dt.0;
            self.elapsed += dt.0;
        }
    }

    fn reset(&mut self) {
        self.array.for_each_cell_mut(|_, mut cell| {
            cell.force_state(DigitalState::Hrs);
            cell.set_crosstalk_delta(Kelvin(0.0));
        });
        self.array.bank_mut().clear_diagnostics();
        self.hub.reset();
        self.elapsed = 0.0;
    }
}

/// A 4×6 α map with its selected cell off-centre at (1, 2): the support
/// reaches one row up, two down, two columns left and three right, with
/// random couplings and holes.
fn asymmetric_alpha(rng: &mut Rng) -> AlphaMatrix {
    let values = (0..24)
        .map(|i| match (i, rng.below(4)) {
            (8, _) => 1.0,
            (_, 0) => 0.0,
            _ => rng.range(0.01, 0.2),
        })
        .collect();
    AlphaMatrix::from_values(4, 6, (1, 2), values)
}

/// A Monte Carlo column table: filament radius and disc length vary per
/// cell, and with `relax_read` so does a field the relax update reads.
fn spread_table(
    nominal: &DeviceParams,
    cells: usize,
    relax_read: bool,
    rng: &mut Rng,
) -> ParamColumns {
    let mut table = ParamColumns::uniform(nominal.clone(), cells);
    let mut column = |field: ParamField, spread: f64, rng: &mut Rng| {
        let values = (0..cells)
            .map(|_| field.get(nominal) * rng.range(1.0 - spread, 1.0 + spread))
            .collect();
        table.set_column(field, values);
    };
    column(ParamField::FilamentRadius, 0.2, rng);
    column(ParamField::LDisc, 0.2, rng);
    if relax_read {
        column(ParamField::RThEff, 0.1, rng);
    }
    table
}

/// Every lane field, the hub state and the clock, bit for bit.
fn assert_identical(engine: &PulseEngine, oracle: &Oracle, context: &str) {
    assert_eq!(
        engine.elapsed().0.to_bits(),
        oracle.elapsed.to_bits(),
        "{context}: clock"
    );
    for (cell, (a, b)) in engine
        .hub()
        .deltas()
        .iter()
        .zip(oracle.hub.deltas())
        .enumerate()
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{context}: hub ΔT of cell {cell}: {a} vs {b}"
        );
    }
    let (a, b) = (engine.array().bank(), oracle.array.bank());
    for lane in 0..a.lanes() {
        let lanes = [
            ("concentration", a.concentrations(), b.concentrations()),
            ("crosstalk", a.crosstalk(), b.crosstalk()),
            ("temperature", a.temperatures(), b.temperatures()),
            ("stress time", a.stress_times(), b.stress_times()),
            ("charge", a.charges(), b.charges()),
        ];
        for (name, x, y) in lanes {
            assert_eq!(
                x[lane].to_bits(),
                y[lane].to_bits(),
                "{context}: {name} of cell {lane}: {} vs {}",
                x[lane],
                y[lane]
            );
        }
        assert_eq!(
            a.digital()[lane],
            b.digital()[lane],
            "{context}: read-out of cell {lane}"
        );
        let (p, q) = (a.operating_point(lane), b.operating_point(lane));
        for (x, y) in [
            (p.v_cell, q.v_cell),
            (p.current, q.current),
            (p.v_active, q.v_active),
            (p.power_active, q.power_active),
            (p.resistance, q.resistance),
        ] {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{context}: operating point of cell {lane}"
            );
        }
    }
}

/// One random case: an engine and its oracle from the same array, hub and
/// configuration, driven through `ops` random operations.
fn run_case(case: u64, rng: &mut Rng, ops: usize) {
    let (rows, cols) = (1 + rng.below(40), 1 + rng.below(40));
    let scheme = WriteScheme::ALL[rng.below(3)];
    let device_ambient = [300.0, rng.range(250.0, 400.0)][rng.below(2)];
    // Mostly the campaigns' setting, an engine ambient equal to the
    // devices'; sometimes above it, and sometimes below, where a cell at
    // rest would export a rise and nothing may be trimmed.
    let ambient = match rng.below(6) {
        0 => device_ambient + 20.0,
        1 => device_ambient - 20.0,
        _ => device_ambient,
    };
    let tau = Seconds([0.0, rng.range(5e-9, 60e-9)][rng.below(2)]);
    let hub = if rng.below(2) == 0 {
        CrosstalkHub::two_ring(
            rows,
            cols,
            [0.0, rng.range(0.05, 0.2)][rng.below(4).min(1)],
            tau,
        )
    } else {
        CrosstalkHub::new(rows, cols, asymmetric_alpha(rng), tau)
    };
    let nominal = DeviceParams {
        ambient_temperature: device_ambient,
        ..DeviceParams::default()
    };
    let mut array = CrossbarArray::new(rows, cols, nominal.clone());
    let tables = rng.below(3);
    if tables > 0 {
        array.set_param_columns(spread_table(&nominal, rows * cols, tables == 2, rng));
    }
    let config = EngineConfig {
        scheme,
        max_substep: Seconds([10e-9, 7e-9, 4e-9][rng.below(3)]),
        ambient: Kelvin(ambient),
        threads: 1 + rng.below(3),
        ..EngineConfig::default()
    };
    let mut engine = PulseEngine::new(array.clone(), hub.clone(), config.clone());
    let mut oracle = Oracle {
        array,
        hub,
        config,
        elapsed: 0.0,
    };

    let aggressor = rng.cell(rows, cols);
    engine.force_state(aggressor, DigitalState::Lrs);
    oracle
        .array
        .cell_mut(aggressor)
        .force_state(DigitalState::Lrs);
    for op in 0..ops {
        let context = format!("case {case} ({rows}x{cols}, {scheme:?}) op {op}");
        let what = match rng.below(100) {
            0..=39 => {
                let (target, magnitude) = (rng.cell(rows, cols), rng.range(0.3, 1.3));
                let amplitude = Volts(if rng.below(4) == 0 {
                    -magnitude
                } else {
                    magnitude
                });
                let length = rng.range(0.5e-9, 30e-9);
                engine.apply_pulse(target, amplitude, Seconds(length));
                oracle.advance(Some((target, amplitude)), length);
                "pulse"
            }
            40..=64 => {
                let length = rng.range(1e-9, 350e-9);
                engine.idle(Seconds(length));
                oracle.advance(None, length);
                "idle"
            }
            65..=74 => {
                let (cell, state) = (
                    rng.cell(rows, cols),
                    [DigitalState::Lrs, DigitalState::Hrs][rng.below(2)],
                );
                engine.force_state(cell, state);
                oracle.array.cell_mut(cell).force_state(state);
                "force_state"
            }
            75..=84 => {
                let (cell, normalized) = (rng.cell(rows, cols), rng.range(0.0, 1.0));
                engine.force_normalized_state(cell, normalized);
                oracle
                    .array
                    .cell_mut(cell)
                    .force_normalized_state(normalized);
                "force_normalized_state"
            }
            85..=92 => {
                // A hub edit may put ΔT on any cell, warm or cold.
                if rng.below(3) == 0 {
                    engine.hub_mut().reset();
                    oracle.hub.reset();
                } else {
                    let mut temps = vec![ambient; rows * cols];
                    let hot = rng.cell(rows, cols);
                    temps[hot.row * cols + hot.col] = ambient + rng.range(50.0, 600.0);
                    let dt = Seconds(rng.range(1e-9, 40e-9));
                    engine.hub_mut().update(&temps, Kelvin(ambient), dt);
                    oracle.hub.update(&temps, Kelvin(ambient), dt);
                }
                "hub_mut"
            }
            93..=96 => {
                let (cell, delta) = (rng.cell(rows, cols), Kelvin(rng.range(0.0, 40.0)));
                engine.array_mut().cell_mut(cell).set_crosstalk_delta(delta);
                oracle.array.cell_mut(cell).set_crosstalk_delta(delta);
                "array_mut"
            }
            _ => {
                engine.reset();
                oracle.reset();
                "reset"
            }
        };
        assert_identical(&engine, &oracle, &format!("{context} {what}"));
    }
    // A clone starts with every row warm and must carry on identically.
    let mut clone = engine.clone();
    let target = rng.cell(rows, cols);
    clone.apply_pulse(target, Volts(1.05), Seconds(20e-9));
    clone.idle(Seconds(60e-9));
    oracle.advance(Some((target, Volts(1.05))), 20e-9);
    oracle.advance(None, 60e-9);
    assert_identical(&clone, &oracle, &format!("case {case} clone"));
}

#[test]
fn warm_span_stepping_is_bit_identical_to_whole_array_stepping() {
    let mut rng = Rng(0x0057_a7e5);
    for case in 0..48 {
        run_case(case, &mut rng, 24);
    }
}

#[test]
fn a_long_burst_on_a_large_array_stays_bit_identical() {
    // 150 pulses on one aggressor of a 40×36 array, each followed by a
    // gap, so the warm fringe grows, settles and cools while most cells
    // stay cold; homogeneous and Monte Carlo.
    let mut rng = Rng(0x0b0a_57ed);
    for monte_carlo in [false, true] {
        let (rows, cols) = (40, 36);
        let nominal = DeviceParams::default();
        let mut array = CrossbarArray::new(rows, cols, nominal.clone());
        if monte_carlo {
            array.set_param_columns(spread_table(&nominal, rows * cols, false, &mut rng));
        }
        let hub = CrosstalkHub::two_ring(rows, cols, 0.15, Seconds(30e-9));
        let config = EngineConfig::default();
        let mut engine = PulseEngine::new(array.clone(), hub.clone(), config.clone());
        let mut oracle = Oracle {
            array,
            hub,
            config,
            elapsed: 0.0,
        };
        let aggressor = CellAddress::new(17, 11);
        engine.force_state(aggressor, DigitalState::Lrs);
        oracle
            .array
            .cell_mut(aggressor)
            .force_state(DigitalState::Lrs);
        for pulse in 0..150 {
            let gap = if pulse % 25 == 24 { 2e-6 } else { 50e-9 };
            engine.apply_pulse(aggressor, Volts(1.05), Seconds(50e-9));
            engine.idle(Seconds(gap));
            oracle.advance(Some((aggressor, Volts(1.05))), 50e-9);
            oracle.advance(None, gap);
            assert_identical(
                &engine,
                &oracle,
                &format!("monte carlo {monte_carlo} pulse {pulse}"),
            );
        }
    }
}
