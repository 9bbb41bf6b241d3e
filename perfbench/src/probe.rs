//! Per-layer probes of the traced run: each times one layer's public
//! functions from outside, on the workload's own inputs or outputs.

use std::path::Path;
use std::time::{Duration, Instant};

use neurohammer::campaign::{
    CampaignEvent, CampaignOutcome, CampaignPoint, CampaignReport, CampaignSpec, CheckpointWriter,
    CouplingSpec,
};
use rram_crossbar::{CellAddress, CrossbarArray, CrosstalkHub, EngineConfig};
use rram_fem::alpha::{extract_alpha, AlphaConfig};
use rram_fem::CrossbarGeometry;
use rram_jart::current::solve_operating_point;
use rram_jart::{DeviceParams, DigitalState};
use rram_server::{JobQueue, LeaseOffer};
use rram_units::{Kelvin, Seconds, Watts};

/// Probes shorter than this repeat until they reach it, so sub-millisecond
/// layers are timed over many calls.
const MIN_PROBE: Duration = Duration::from_millis(50);

/// Kernel and crosstalk-hub timings on one point's own array.
#[derive(Debug, Clone, Copy)]
pub struct LaneTiming {
    /// Whether the point carries a sampled per-cell parameter table.
    pub heterogeneous: bool,
    /// `CrossbarArray::step_lanes`, ns per lane per biased sub-step.
    pub step_ns: f64,
    /// `CrossbarArray::relax_lanes`, ns per lane per gap sub-step.
    pub relax_ns: f64,
    /// `CrosstalkHub::update_batched`, ns per cell per sub-step.
    pub update_ns: f64,
}

/// Drives the batched engine's per-sub-step calls — crosstalk import,
/// `step_lanes` / `relax_lanes`, `update_batched` — on `point`'s own array,
/// parameter table, coupling and bias, for `pulses` pulse/gap pairs, the
/// way `BatchedEngine` advances.
///
/// # Errors
///
/// Returns a message for FEM-coupled specs (their matrices come from the
/// FEM probe) and sampling failures.
pub fn lanes(
    spec: &CampaignSpec,
    point: &CampaignPoint,
    pulses: usize,
) -> Result<LaneTiming, String> {
    let CouplingSpec::Uniform { nearest } = spec.coupling else {
        return Err("the lane probe needs uniform coupling".into());
    };
    let (rows, cols) = (point.rows, point.cols);
    let ambient = point.ambient;
    let mut array = CrossbarArray::new(
        rows,
        cols,
        DeviceParams {
            ambient_temperature: ambient.0,
            ..DeviceParams::default()
        },
    );
    let table = spec.sampled_table(point).map_err(|e| e.to_string())?;
    let heterogeneous = table.is_some();
    if let Some(mut table) = table {
        for entry in &mut table {
            entry.ambient_temperature = ambient.0;
        }
        array.set_params_table(table);
    }
    let config = spec.attack_config(point);
    let aggressors = point.pattern.aggressors(config.victim, rows, cols);
    for &aggressor in &aggressors {
        array.cell_mut(aggressor).force_state(DigitalState::Lrs);
    }
    array.cell_mut(config.victim).force_state(DigitalState::Hrs);
    let mut hub = CrosstalkHub::two_ring(rows, cols, nearest, Seconds(spec.tau_ns * 1e-9));
    let bias = point
        .scheme
        .line_bias(rows, cols, aggressors[0], point.amplitude);
    let voltages: Vec<f64> = (0..rows * cols)
        .map(|i| bias.cell_voltage(CellAddress::new(i / cols, i % cols)).0)
        .collect();
    let engine = EngineConfig {
        max_substep: Seconds(10e-9),
        ..EngineConfig::default()
    };

    let (mut step, mut relax, mut update) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let (mut steps, mut relaxes) = (0u64, 0u64);
    let mut advance = |duration: f64, biased: bool| {
        let substep = engine.substep(biased);
        let mut remaining = duration;
        while remaining > 0.0 {
            let dt = Seconds(remaining.min(substep));
            array.import_crosstalk(hub.deltas());
            let started = Instant::now();
            if biased {
                array.step_lanes(&voltages, dt);
                step += started.elapsed();
                steps += 1;
            } else {
                array.relax_lanes(dt);
                relax += started.elapsed();
                relaxes += 1;
            }
            let started = Instant::now();
            hub.update_batched(array.temperatures(), ambient, dt);
            update += started.elapsed();
            remaining -= dt.0;
        }
    };
    for _ in 0..pulses {
        advance(point.pulse_length.0, true);
        if config.gap.0 > 0.0 {
            advance(config.gap.0, false);
        }
    }
    let lanes = (rows * cols) as f64;
    let per = |total: Duration, calls: u64| total.as_nanos() as f64 / (lanes * calls.max(1) as f64);
    Ok(LaneTiming {
        heterogeneous,
        step_ns: per(step, steps),
        relax_ns: per(relax, relaxes),
        update_ns: per(update, steps + relaxes),
    })
}

/// Pulse/gap pairs for the lane probe: about a million lane-steps' worth,
/// at least 8 pulses.
pub fn lane_probe_pulses(point: &CampaignPoint) -> usize {
    (1_000_000 / (point.rows * point.cols)).clamp(8, 4_000)
}

/// Times `CampaignSpec::sampled_table` on every point, seconds.
///
/// # Errors
///
/// Returns the first sampling failure.
pub fn sampling(specs: &[CampaignSpec]) -> Result<Duration, String> {
    let mut total = Duration::ZERO;
    for spec in specs {
        for point in spec.points() {
            let started = Instant::now();
            let table = spec.sampled_table(&point).map_err(|e| e.to_string())?;
            total += started.elapsed();
            drop(std::hint::black_box(table));
        }
    }
    Ok(total)
}

/// Times the uncached `rram_fem::extract_alpha` once per geometry of the
/// FEM-coupled specs, with the same geometry and power sweep the campaign
/// layer resolves couplings with. Zero when no spec uses FEM coupling.
///
/// # Errors
///
/// Returns the extraction error.
pub fn fem(specs: &[CampaignSpec]) -> Result<Duration, String> {
    let mut total = Duration::ZERO;
    let mut seen = std::collections::BTreeSet::new();
    for spec in specs {
        let CouplingSpec::Fem { voxel_nm } = spec.coupling else {
            continue;
        };
        let device = DeviceParams::default();
        let power = solve_operating_point(&device, spec.amplitudes_v[0], device.n_max).power_active;
        for point in spec.points() {
            if !seen.insert((
                point.rows,
                point.cols,
                point.spacing_nm.to_bits(),
                voxel_nm.to_bits(),
            )) {
                continue;
            }
            let geometry = CrossbarGeometry {
                rows: point.rows,
                cols: point.cols,
                electrode_spacing_nm: point.spacing_nm,
                voxel_nm,
                ..CrossbarGeometry::default()
            };
            let config = AlphaConfig {
                ambient: Kelvin(300.0),
                selected: (point.rows / 2, point.cols / 2),
                powers: [0.25, 0.5, 0.75, 1.0]
                    .iter()
                    .map(|f| Watts(f * power))
                    .collect(),
            };
            let started = Instant::now();
            let extraction = extract_alpha(&geometry, &config).map_err(|e| e.to_string())?;
            total += started.elapsed();
            drop(std::hint::black_box(extraction));
        }
    }
    Ok(total)
}

/// JSON codec throughput on the workload's reports.
#[derive(Debug, Clone, Copy)]
pub struct CodecTiming {
    /// `CampaignReport::to_json`, MB/s.
    pub encode_mb_s: f64,
    /// `CampaignReport::from_json`, MB/s.
    pub parse_mb_s: f64,
    /// One outcome event line encoded and decoded, µs.
    pub line_us: f64,
}

/// Repeats `f` until [`MIN_PROBE`] has passed (at least once) and returns
/// the mean time per call.
fn mean_time(mut f: impl FnMut()) -> Duration {
    let started = Instant::now();
    let mut calls = 0u32;
    while calls == 0 || started.elapsed() < MIN_PROBE {
        f();
        calls += 1;
    }
    started.elapsed() / calls
}

/// Times the campaign JSON codec on `reports`.
///
/// # Errors
///
/// Returns a message when a report or line does not round-trip.
pub fn codec(reports: &[CampaignReport]) -> Result<CodecTiming, String> {
    let mut bytes = 0usize;
    let (mut encode, mut parse) = (Duration::ZERO, Duration::ZERO);
    for report in reports {
        let text = report.to_json();
        bytes += text.len();
        encode += mean_time(|| drop(std::hint::black_box(report.to_json())));
        let decoded = CampaignReport::from_json(&text).map_err(|e| e.to_string())?;
        if &decoded != report {
            return Err(format!("report {:?} does not round-trip", report.name));
        }
        parse += mean_time(|| drop(std::hint::black_box(CampaignReport::from_json(&text))));
    }
    let events: Vec<CampaignEvent> = reports
        .iter()
        .flat_map(|r| r.outcomes.iter().cloned().map(CampaignEvent::PointFinished))
        .collect();
    for event in &events {
        let back = CampaignEvent::from_json(&event.to_json_line()).map_err(|e| e.to_string())?;
        if &back != event {
            return Err("an outcome line does not round-trip".into());
        }
    }
    let per_pass = mean_time(|| {
        for event in &events {
            drop(std::hint::black_box(CampaignEvent::from_json(
                &event.to_json_line(),
            )));
        }
    });
    let mb = bytes as f64 / 1e6;
    Ok(CodecTiming {
        encode_mb_s: mb / encode.as_secs_f64(),
        parse_mb_s: mb / parse.as_secs_f64(),
        line_us: per_pass.as_secs_f64() * 1e6 / events.len().max(1) as f64,
    })
}

/// Mean `CheckpointWriter::record` time over `outcomes`, µs, writing to a
/// fresh file at `path` (removed afterwards).
///
/// # Errors
///
/// Returns the I/O error.
pub fn checkpoint(outcomes: &[CampaignOutcome], path: &Path) -> Result<f64, String> {
    let mut writer = CheckpointWriter::create(path).map_err(|e| e.to_string())?;
    let started = Instant::now();
    for outcome in outcomes {
        writer.record(outcome).map_err(|e| e.to_string())?;
    }
    let elapsed = started.elapsed();
    drop(writer);
    std::fs::remove_file(path).map_err(|e| e.to_string())?;
    Ok(elapsed.as_secs_f64() * 1e6 / outcomes.len().max(1) as f64)
}

/// Job-queue timings on a standalone `JobQueue` with an injected clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueTiming {
    /// Mean `JobQueue::record` of one `PointFinished`, µs.
    pub fold_us: f64,
    /// Mean `JobQueue::lease`, µs.
    pub lease_us: f64,
    /// `JobQueue::report` of the finished job, ms.
    pub report_ms: f64,
}

/// Submits `spec` in `shards` shards to a fresh queue, leases every shard
/// and folds `outcomes` (the spec's own) into it, then builds the report,
/// checking it equals the outcomes in grid order.
///
/// # Errors
///
/// Returns a message on any queue error or report mismatch.
pub fn queue(
    spec: &CampaignSpec,
    shards: usize,
    outcomes: &[CampaignOutcome],
) -> Result<QueueTiming, String> {
    let origin = Instant::now();
    let mut clock = origin;
    let mut queue = JobQueue::new(Duration::from_secs(3600));
    let job = queue
        .submit(spec.clone(), shards, clock)
        .map_err(|e| e.to_string())?
        .id;
    let (mut lease, mut fold, mut folds) = (Duration::ZERO, Duration::ZERO, 0u32);
    for _ in 0..shards {
        clock += Duration::from_millis(1);
        let started = Instant::now();
        let offer = queue.lease("probe", clock);
        lease += started.elapsed();
        let LeaseOffer::Grant(grant) = offer else {
            return Err("the probe queue has no shard to lease".into());
        };
        for outcome in outcomes.iter().filter(|o| grant.shard.owns(o.key.index)) {
            clock += Duration::from_micros(1);
            let event = CampaignEvent::PointFinished(outcome.clone());
            let started = Instant::now();
            let ack = queue
                .record("probe", job, grant.shard, &event, grant.trace, clock)
                .map_err(|e| e.to_string())?;
            fold += started.elapsed();
            folds += 1;
            if !ack.accepted {
                return Err(format!(
                    "the probe queue refused point {}",
                    outcome.key.index
                ));
            }
        }
        queue
            .record(
                "probe",
                job,
                grant.shard,
                &CampaignEvent::Finished,
                grant.trace,
                clock,
            )
            .map_err(|e| e.to_string())?;
    }
    let started = Instant::now();
    let report = queue.report(job).map_err(|e| e.to_string())?;
    let report_time = started.elapsed();
    let mut expected = outcomes.to_vec();
    expected.sort_by_key(|o| o.key);
    if report.outcomes != expected {
        return Err("the probe queue's report differs from the folded outcomes".into());
    }
    Ok(QueueTiming {
        fold_us: fold.as_secs_f64() * 1e6 / f64::from(folds.max(1)),
        lease_us: lease.as_secs_f64() * 1e6 / shards.max(1) as f64,
        report_ms: report_time.as_secs_f64() * 1e3,
    })
}
