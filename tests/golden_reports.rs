//! The golden report corpus: every figure binary's `--quick` grid, next to
//! the exact report JSON the binary printed for it when the corpus was
//! recorded (`tests/golden/README.md` says how each file was made).
//!
//! Each spec runs through [`CampaignExecutor`], the runner behind every
//! figure binary, and its `CampaignReport::to_json()` must match the
//! recorded bytes exactly. The checkpoint fixtures were written by the
//! binaries' `--checkpoint` flag at the same time; resuming from them must
//! replay every point, which pins the `PointKey` fingerprints absolutely.
//! Two figure outputs that no report covers are pinned here as well: the
//! Fig. 1 trace and the design-choice ablation table. So are two paths of
//! the line-network solve that no golden campaign reaches: the detailed
//! engine's per-cell tables, multi-step slices and short idles, and the
//! sneak-path read analysis.
//! A mismatch is a behaviour change: find it, never re-record the corpus.

use std::fmt::Write;
use std::path::PathBuf;

use neurohammer_repro::attack::campaign::{read_checkpoint, CampaignExecutor, CampaignSpec};
use neurohammer_repro::attack::{ablation_report, run_attack, AttackConfig};
use neurohammer_repro::crossbar::{
    analyze_read, read_margin, BackendKind, CellAddress, CrossbarArray, CrosstalkHub, EngineConfig,
    HammerBackend, ReadBias, WiringParasitics, WriteScheme,
};
use neurohammer_repro::jart::{DeviceParams, DigitalState, ParamColumns};
use neurohammer_repro::units::{Kelvin, Seconds, Volts};

fn golden(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

fn spec(name: &str) -> CampaignSpec {
    let path = golden(&format!("{name}.spec.json"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    CampaignSpec::from_json(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"))
}

fn executor(name: &str) -> CampaignExecutor {
    CampaignExecutor::new(spec(name)).expect("golden spec validates")
}

/// Runs `executor` and compares its report with `<name>.report.json`.
fn assert_golden(name: &str, executor: CampaignExecutor) {
    let report = executor.execute(|_| {}).expect("golden campaign runs");
    assert_matches_file(
        name,
        &format!("{}\n", report.to_json()),
        &format!("{name}.report.json"),
    );
}

/// Compares `fresh` with the golden `file`, naming the first line that
/// differs.
fn assert_matches_file(name: &str, fresh: &str, file: &str) {
    let path = golden(file);
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    if fresh != expected {
        let line = fresh
            .lines()
            .zip(expected.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| fresh.lines().count().min(expected.lines().count()));
        panic!(
            "{name}: differs from {path:?} at line {}:\n  fresh:  {:?}\n  golden: {:?}",
            line + 1,
            fresh.lines().nth(line),
            expected.lines().nth(line)
        );
    }
}

fn assert_fresh_run_is_golden(name: &str) {
    assert_golden(name, executor(name));
}

/// Resumes the golden spec from its recorded checkpoint: nothing may be
/// left to run, and the replayed report is the golden one.
fn assert_checkpoint_resumes(name: &str) {
    let path = golden(&format!("checkpoints/{name}.jsonl"));
    let recorded = read_checkpoint(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let executor = executor(name).resume_from(recorded);
    assert!(
        executor.pending_points().is_empty(),
        "{name}: checkpoint keys no longer match the grid: {:?}",
        executor.pending_points()
    );
    assert_golden(name, executor);
}

#[test]
fn fig1_report_is_golden() {
    assert_fresh_run_is_golden("fig1");
}

#[test]
fn fig2a_report_is_golden() {
    assert_fresh_run_is_golden("fig2a");
}

#[test]
fn fig3a_report_is_golden() {
    assert_fresh_run_is_golden("fig3a");
}

#[test]
fn fig3b_report_is_golden() {
    assert_fresh_run_is_golden("fig3b");
}

#[test]
fn fig3c_report_is_golden() {
    assert_fresh_run_is_golden("fig3c");
}

#[test]
fn fig3d_report_is_golden() {
    assert_fresh_run_is_golden("fig3d");
}

#[test]
fn fig_defense_report_is_golden() {
    assert_fresh_run_is_golden("fig_defense");
}

#[test]
fn fig_variability_report_is_golden() {
    assert_fresh_run_is_golden("fig_variability");
}

#[test]
fn ablation_report_is_golden() {
    assert_fresh_run_is_golden("ablation");
}

/// The only golden array larger than 5×5: a non-square 40×72 `batched`
/// array under every write scheme, with and without a rewriting guard,
/// homogeneous and Monte Carlo, at a non-default ambient.
#[test]
fn large_array_report_is_golden() {
    assert_fresh_run_is_golden("large_array");
}

/// The `large_array` grid on a 4×5 `detailed` array: every write scheme,
/// with and without a rewriting guard, homogeneous and Monte Carlo, at two
/// amplitudes, with 35 ns pulses that the engine cuts into four 8.75 ns
/// hub slices.
#[test]
fn detailed_report_is_golden() {
    assert_fresh_run_is_golden("detailed");
}

#[test]
fn pulse_checkpoint_resumes_into_the_golden_report() {
    assert_checkpoint_resumes("fig3a");
}

#[test]
fn batched_monte_carlo_checkpoint_resumes_into_the_golden_report() {
    assert_checkpoint_resumes("fig_variability");
}

#[test]
fn guarded_checkpoint_resumes_into_the_golden_report() {
    assert_checkpoint_resumes("fig_defense");
}

#[test]
fn detailed_checkpoint_resumes_into_the_golden_report() {
    assert_checkpoint_resumes("ablation");
}

/// The detailed backend's fingerprint tag changed when its engine moved
/// onto the pulse engine's sub-step plan, so an outcome recorded before
/// the move (`fa4a9ced515dcad8` in the first recording of
/// `checkpoints/ablation.jsonl`) re-runs instead of replaying; the `pulse`
/// point keeps its key.
#[test]
fn pre_rebaseline_detailed_checkpoints_do_not_resume() {
    let ids: Vec<(&str, u64)> = spec("ablation")
        .keyed_points()
        .into_iter()
        .map(|(key, point)| (point.backend.label(), key.id))
        .collect();
    assert_eq!(ids.len(), 2);
    assert_eq!(ids[0], ("pulse", 0xef62_0a5d_ee80_a418));
    assert_eq!(ids[1].0, "detailed");
    assert_ne!(ids[1].1, 0xfa4a_9ced_515d_cad8);
}

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in words.into_iter().flat_map(u64::to_le_bytes) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The Fig. 1 trace, run the way `fig1_attack_phases` runs it: the golden
/// spec's point, unbatched, with every pulse traced. The length and the
/// digest over every bit of every trace point were recorded once.
#[test]
fn fig1_trace_is_pinned() {
    let spec = spec("fig1");
    let point = spec.points()[0];
    let mut backend = spec.backend_for(&point).expect("golden backend builds");
    let config = AttackConfig {
        trace: true,
        batching: false,
        ..spec.attack_config(&point)
    };
    let result = run_attack(backend.as_mut(), &config);
    assert_eq!(result.trace.len(), 3_575);
    let digest = fnv1a(result.trace.iter().flat_map(|p| {
        [
            p.pulses,
            p.time.0.to_bits(),
            p.aggressor_temperature.0.to_bits(),
            p.victim_temperature.0.to_bits(),
            p.victim_crosstalk.0.to_bits(),
            p.victim_state.to_bits(),
        ]
    }));
    assert_eq!(digest, 0x6398_1d03_8f6c_0337, "digest {digest:#018x}");
}

/// The ablation binary's design-choice variants at `--quick`, one line per
/// variant and the estimator in `{:?}` form, so every bit shows.
#[test]
fn ablation_design_table_is_golden() {
    let report = ablation_report(&neurohammer_bench::figure_campaign(true)).expect("ablation runs");
    let mut fresh = String::new();
    for row in &report.rows {
        let pulses = row.pulses.map_or("no flip".into(), |p| p.to_string());
        writeln!(fresh, "{}\t{pulses}\t{}", row.variant, row.flipped).unwrap();
    }
    writeln!(fresh, "{:?}", report.estimate).unwrap();
    assert_matches_file("ablation design", &fresh, "ablation_design.txt");
}

/// Hammers, idles, forces an analogue state and rewrites with a
/// RESET-polarity pulse: the detailed-engine sequence the digest pins.
fn drive_detailed<B: HammerBackend + ?Sized>(engine: &mut B) {
    let aggressor = CellAddress::new(1, 2);
    engine.force_state(aggressor, DigitalState::Lrs);
    for _ in 0..2 {
        engine.apply_pulse(aggressor, Volts(1.05), Seconds(35e-9));
        engine.idle(Seconds(7e-9));
        engine.apply_pulse(aggressor, Volts(1.05), Seconds(35e-9));
        engine.idle(Seconds(17e-9));
    }
    let forced = CellAddress::new(2, 3);
    engine.force_normalized_state(forced, 0.37);
    engine.apply_pulse(forced, Volts(-1.3), Seconds(35e-9));
    engine.idle(Seconds(17e-9));
}

/// Every cell's thermal read-out, the digital read-out, the hub ΔT and the
/// clock, as bits.
fn detailed_words<B: HammerBackend + ?Sized>(engine: &B) -> Vec<u64> {
    let mut words = Vec::new();
    for row in 0..engine.rows() {
        for col in 0..engine.cols() {
            let readout = engine.thermal_readout(CellAddress::new(row, col));
            words.extend([
                readout.temperature.0.to_bits(),
                readout.crosstalk.0.to_bits(),
                readout.normalized_state.to_bits(),
            ]);
        }
    }
    let states = engine.read_all();
    words.extend(states.iter().map(|&s| u64::from(s == DigitalState::Lrs)));
    words.extend(engine.hub().deltas().iter().map(|d| d.to_bits()));
    words.push(engine.elapsed().0.to_bits());
    words
}

/// The detailed engine on paths no golden campaign reaches: a per-cell
/// parameter table through `build_heterogeneous`, 4 ns sub-steps (a 35 ns
/// pulse takes eight and a 3 ns one), the V/3 scheme at 330 K, 7 ns and
/// 17 ns idles (one sub-step each), a forced analogue state and a −1.3 V
/// pulse; then a second engine built from the same table runs the same
/// sequence at 3 ns sub-steps. The digest over both engines' bits was
/// recorded once.
#[test]
fn detailed_engine_digest_is_pinned() {
    let (rows, cols) = (4, 5);
    let nominal = DeviceParams {
        ambient_temperature: 330.0,
        ..DeviceParams::default()
    };
    let table: Vec<DeviceParams> = (0..rows * cols)
        .map(|lane| {
            let k = (lane * 7 % 11) as f64 / 10.0 - 0.5;
            DeviceParams {
                filament_radius: nominal.filament_radius * (1.0 + 0.08 * k),
                l_disc: nominal.l_disc * (1.0 - 0.04 * k),
                ..nominal.clone()
            }
        })
        .collect();
    let hub = || CrosstalkHub::two_ring(rows, cols, 0.15, Seconds(30e-9));
    let config = EngineConfig {
        scheme: WriteScheme::ThirdVoltage,
        max_substep: Seconds(4e-9),
        ambient: Kelvin(330.0),
        ..EngineConfig::default()
    };
    let mut boxed = BackendKind::detailed().build_heterogeneous(
        rows,
        cols,
        DeviceParams::default(),
        Some(ParamColumns::compact(nominal.clone(), &table)),
        hub(),
        config.clone(),
    );
    drive_detailed(boxed.as_mut());
    let config = EngineConfig {
        max_substep: Seconds(3e-9),
        ..config
    };
    let mut finer = BackendKind::detailed().build_heterogeneous(
        rows,
        cols,
        DeviceParams::default(),
        Some(ParamColumns::compact(nominal, &table)),
        hub(),
        config,
    );
    drive_detailed(finer.as_mut());

    let mut words = detailed_words(boxed.as_ref());
    words.extend(detailed_words(finer.as_ref()));
    let digest = fnv1a(words);
    assert_eq!(digest, 0x7bd2_4b83_4ecd_682b, "digest {digest:#018x}");
}

/// The sneak-path read analysis of a 4×5 array of mixed LRS and HRS cells:
/// every cell's read and the whole-array margin, under both read biases.
/// The digest over their bits was recorded once per bias.
#[test]
fn sneak_path_reads_are_pinned() {
    let mut array = CrossbarArray::new(4, 5, DeviceParams::default());
    array.for_each_cell_mut(|address, mut cell| {
        if (address.row * 7 + address.col * 3) % 5 < 2 {
            cell.force_state(DigitalState::Lrs);
        }
    });
    let parasitics = WiringParasitics::default();
    let v_read = Volts(0.2);
    let mut digests = Vec::new();
    for bias in [ReadBias::GroundedUnselected, ReadBias::HalfBiased] {
        let mut words = Vec::new();
        for (address, _) in array.iter() {
            let read =
                analyze_read(&array, parasitics, address, v_read, bias).expect("read solves");
            words.extend([
                read.sensed_current.0.to_bits(),
                read.cell_current.0.to_bits(),
                read.selectivity.to_bits(),
            ]);
        }
        let margin = read_margin(&array, parasitics, v_read, bias).expect("margin solves");
        words.extend([
            margin.min_lrs_current.0.to_bits(),
            margin.max_hrs_current.0.to_bits(),
            margin.margin.to_bits(),
        ]);
        digests.push(fnv1a(words));
    }
    assert_eq!(
        digests,
        [0x0a6b_8e59_207c_1c63, 0x4984_e65b_0b85_0961],
        "digests {digests:#x?}"
    );
}
