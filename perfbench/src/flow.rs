//! The benchmark's three commands: an untraced repetition, a traced
//! repetition and reference recording.

use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::time::{Duration, Instant};

use neurohammer::campaign::json::Json;
use neurohammer::campaign::{
    read_checkpoint, CampaignEvent, CampaignExecutor, CampaignOutcome, CampaignReport,
    CampaignSpec, CheckpointWriter, CouplingSpec,
};

use crate::reference::{self, Check, Expected};
use crate::replay::{replay, Replayed};
use crate::service::{self, FleetRun};
use crate::spans::SpanLog;
use crate::timing::Method;
use crate::workload::{flatten, Workload, FLEET_SHARDS, FLEET_WORKERS};
use crate::{probe, Metrics};

/// A workload executed through the programs' public entry points.
pub struct Executed {
    /// The workload's specs.
    pub specs: Vec<CampaignSpec>,
    /// Outcomes with their workload-wide indices, in workload order.
    pub outcomes: Vec<(usize, CampaignOutcome)>,
    /// Time before the first grid point could start.
    pub setup: Duration,
    /// Time from the first point's start to the last point's fold.
    pub run: Duration,
    /// Threads the points ran on.
    pub threads: usize,
    /// The service run, for `fleet-defense`.
    pub fleet: Option<FleetRun>,
}

impl Executed {
    /// Summed per-point wall time, ns.
    pub fn busy_ns(&self) -> u64 {
        self.outcomes.iter().filter_map(|(_, o)| o.wall_ns).sum()
    }

    /// Longest point, ns.
    pub fn point_max_ns(&self) -> u64 {
        self.outcomes
            .iter()
            .filter_map(|(_, o)| o.wall_ns)
            .max()
            .unwrap_or(0)
    }
}

/// Runs the workload untraced: every spec through `CampaignExecutor`, or
/// the `fleet-defense` job through the service.
///
/// # Errors
///
/// Returns a message on any failure.
pub fn execute(workload: Workload, seed: u64) -> Result<Executed, String> {
    let specs = workload.specs(seed);
    if workload == Workload::FleetDefense {
        let fleet = service::run(&specs[0], None, None)?;
        // Per-point wall times ride on the streamed events, not the report.
        let walls: std::collections::HashMap<_, _> = fleet
            .events
            .iter()
            .filter_map(|event| match event {
                CampaignEvent::PointFinished(outcome) => Some((outcome.key, outcome.wall_ns)),
                _ => None,
            })
            .collect();
        let mut outcomes = flatten(&specs, std::slice::from_ref(&fleet.report));
        for (_, outcome) in &mut outcomes {
            outcome.wall_ns = walls.get(&outcome.key).copied().flatten();
        }
        return Ok(Executed {
            setup: fleet.setup,
            run: fleet.job,
            threads: FLEET_WORKERS,
            outcomes,
            specs,
            fleet: Some(fleet),
        });
    }
    let (mut setup, mut run) = (Duration::ZERO, Duration::ZERO);
    let mut reports = Vec::new();
    for spec in &specs {
        let before = Instant::now();
        let executor = CampaignExecutor::new(spec.clone()).map_err(|e| e.to_string())?;
        let mut started = None;
        let report = executor
            .execute(|event| {
                if matches!(event, CampaignEvent::Started { .. }) {
                    started = Some(Instant::now());
                }
            })
            .map_err(|e| e.to_string())?;
        let finished = Instant::now();
        let started = started.unwrap_or(finished);
        setup += started - before;
        run += finished - started;
        reports.push(report);
    }
    Ok(Executed {
        outcomes: flatten(&specs, &reports),
        setup,
        run,
        threads: workload.threads(),
        fleet: None,
        specs,
    })
}

/// Payload that stops an executor right after its `Started` event.
struct SetupDone;

/// Measures the workload's set-up alone: each spec's executor from
/// construction to its `Started` event, where execution is stopped before
/// any point runs, or the service's bind and job submission.
///
/// # Errors
///
/// Returns a message on any failure.
pub fn setup_only(workload: Workload, seed: u64) -> Result<Duration, String> {
    let specs = workload.specs(seed);
    if workload == Workload::FleetDefense {
        let submitted = service::submit(&specs[0], None, None)?;
        let setup = submitted.setup;
        submitted.shutdown();
        return Ok(setup);
    }
    let mut setup = Duration::ZERO;
    for spec in &specs {
        let before = Instant::now();
        let executor = CampaignExecutor::new(spec.clone()).map_err(|e| e.to_string())?;
        let mut started = None;
        let stopped = std::panic::catch_unwind(AssertUnwindSafe(|| {
            executor.execute(|event| {
                if matches!(event, CampaignEvent::Started { .. }) {
                    started = Some(Instant::now());
                    // `Started` is delivered before any worker thread
                    // exists; `resume_unwind` skips the panic hook.
                    std::panic::resume_unwind(Box::new(SetupDone));
                }
            })
        }));
        match stopped {
            Err(payload) if payload.is::<SetupDone>() => {}
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(result) => {
                result.map_err(|e| e.to_string())?;
            }
        }
        setup += started.ok_or("the executor never started")? - before;
    }
    Ok(setup)
}

/// Checks outcomes against the workload's reference file.
pub fn check(
    refs: &Path,
    workload: Workload,
    seed: u64,
    outcomes: &[(usize, CampaignOutcome)],
) -> Check {
    let path = reference::path(refs, workload, seed);
    match reference::read(&path) {
        Ok((_, points)) => {
            let got: Vec<Expected> = outcomes.iter().map(|(i, o)| Expected::of(*i, o)).collect();
            reference::check(&points, &got)
        }
        Err(e) => Check::all_failed(outcomes.len(), &e),
    }
}

fn points(workload: Workload, seed: u64) -> usize {
    workload
        .specs(seed)
        .iter()
        .map(CampaignSpec::num_points)
        .sum()
}

/// One untraced repetition: the result line's fields, and the outcomes.
pub struct Repetition {
    /// End-to-end fields, in output order.
    pub fields: Vec<(&'static str, f64)>,
    /// The outcome check.
    pub check: Check,
    /// The outcomes, in workload order.
    pub outcomes: Vec<CampaignOutcome>,
}

/// Runs one untraced repetition from workload start to a verified result.
pub fn untraced(workload: Workload, seed: u64, refs: &Path) -> Repetition {
    let started = Instant::now();
    let executed = execute(workload, seed);
    let (executed, mut check) = match executed {
        Ok(executed) => {
            let check = check(refs, workload, seed, &executed.outcomes);
            (Some(executed), check)
        }
        Err(e) => (None, Check::all_failed(points(workload, seed), &e)),
    };
    let wall = started.elapsed();
    let Some(mut executed) = executed else {
        return Repetition {
            fields: vec![("wall_s", wall.as_secs_f64())],
            check,
            outcomes: Vec::new(),
        };
    };
    if let Some(fleet) = executed.fleet.take() {
        if let Err(e) = fleet.finish() {
            check.attempted += 1;
            check.failed += 1;
            check.failures.push(e);
        }
    }
    Repetition {
        fields: vec![
            ("wall_s", wall.as_secs_f64()),
            ("setup_s", executed.setup.as_secs_f64()),
            ("busy_s", executed.busy_ns() as f64 / 1e9),
            ("run_s", executed.run.as_secs_f64()),
            ("threads", executed.threads as f64),
            ("point_max_s", executed.point_max_ns() as f64 / 1e9),
        ],
        check,
        outcomes: executed.outcomes.into_iter().map(|(_, o)| o).collect(),
    }
}

/// Writes outcomes as checkpoint lines (with their wall times).
///
/// # Errors
///
/// Returns the I/O error.
pub fn write_outcomes(path: &Path, outcomes: &[CampaignOutcome]) -> Result<(), String> {
    let mut writer = CheckpointWriter::create(path).map_err(|e| e.to_string())?;
    for outcome in outcomes {
        writer.record(outcome).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Records the workload's reference file from one untraced execution.
///
/// # Errors
///
/// Returns a message on failure.
pub fn record(workload: Workload, seed: u64, refs: &Path) -> Result<std::path::PathBuf, String> {
    let mut executed = execute(workload, seed)?;
    if let Some(fleet) = executed.fleet.take() {
        fleet.finish()?;
    }
    let expected: Vec<Expected> = executed
        .outcomes
        .iter()
        .map(|(i, o)| Expected::of(*i, o))
        .collect();
    if expected.len() != points(workload, seed) {
        return Err("the execution did not cover the grid".into());
    }
    let path = reference::path(refs, workload, seed);
    reference::write(
        &path,
        &crate::workload::definition_hash(workload, seed),
        &expected,
    )
    .map_err(|e| e.to_string())?;
    Ok(path)
}

/// What the traced run hands back: its per-layer metrics and its checks.
pub struct Traced {
    /// Per-layer metrics with units.
    pub metrics: Metrics,
    /// The traced run's outcomes against the reference, plus replay
    /// mismatches against the untraced run.
    pub check: Check,
}

/// The untraced repetition a traced run is compared with.
pub struct Baseline {
    /// Its result line, parsed.
    pub result: Json,
    /// Its outcomes, in workload order.
    pub outcomes: Vec<CampaignOutcome>,
}

impl Baseline {
    /// Reads the result line and outcome file an untraced repetition
    /// wrote.
    ///
    /// # Errors
    ///
    /// Returns a message on I/O or format errors.
    pub fn read(result: &Path, outcomes: &Path) -> Result<Baseline, String> {
        let text =
            std::fs::read_to_string(result).map_err(|e| format!("{}: {e}", result.display()))?;
        Ok(Baseline {
            result: Json::parse(text.trim()).map_err(|e| format!("{}: {e}", result.display()))?,
            outcomes: read_checkpoint(outcomes).map_err(|e| e.to_string())?,
        })
    }

    fn field(&self, key: &str) -> f64 {
        self.result.get(key).and_then(Json::as_f64).unwrap_or(0.0)
    }
}

/// Counts outcomes that differ (in any result field) from the baseline's,
/// position by position, plus any length difference.
fn mismatches(
    got: &[CampaignOutcome],
    baseline: &[CampaignOutcome],
    what: &str,
    check: &mut Check,
) {
    let differing = got.iter().zip(baseline).filter(|(a, b)| a != b).count()
        + got.len().abs_diff(baseline.len());
    if differing > 0 {
        check.attempted += got.len().max(baseline.len());
        check.failed += differing;
        check.failures.push(format!(
            "{differing} {what} outcomes differ from the untraced run"
        ));
    }
}

fn reports(specs: &[CampaignSpec], replayed: &[Replayed]) -> Vec<CampaignReport> {
    let mut offset = 0;
    specs
        .iter()
        .map(|spec| {
            let range = offset..offset + spec.num_points();
            offset = range.end;
            CampaignReport {
                name: spec.name.clone(),
                outcomes: replayed
                    .iter()
                    .filter(|r| range.contains(&r.index))
                    .map(|r| r.outcome.clone())
                    .collect(),
            }
        })
        .collect()
}

/// Replays every spec of the workload under `parent`, on `threads`.
fn replay_all(
    specs: &[CampaignSpec],
    threads: usize,
    log: &SpanLog,
    parent: usize,
) -> Result<Vec<Replayed>, String> {
    let mut offset = 0;
    let mut all = Vec::new();
    for spec in specs {
        all.extend(replay(spec, threads, offset, log, parent)?);
        offset += spec.num_points();
    }
    Ok(all)
}

fn probe_span<T>(log: &SpanLog, parent: usize, name: &str, f: impl FnOnce() -> T) -> T {
    let span = log.open(name, Some(parent), None);
    let value = f();
    log.close(span);
    value
}

/// Reads a counter from Prometheus text (0 when absent).
fn prometheus_value(text: &str, name: &str) -> f64 {
    text.lines()
        .filter_map(|line| {
            line.strip_prefix(name)?
                .strip_prefix(' ')?
                .trim()
                .parse::<f64>()
                .ok()
        })
        .sum()
}

/// The traced repetition: the workload with spans at every layer boundary
/// the benchmark reaches, then the per-layer probes. `scratch` holds the
/// checkpoint probe's file; the spans are written to `spans`.
///
/// # Errors
///
/// Returns a message when the workload cannot run at all.
pub fn traced(
    workload: Workload,
    seed: u64,
    refs: &Path,
    baseline: &Baseline,
    spans: &Path,
    scratch: &Path,
) -> Result<Traced, String> {
    let specs = workload.specs(seed);
    let log = SpanLog::new(workload.name());
    let started = Instant::now();
    let root = log.open("workload", None, None);
    let mut fleet = None;
    let replayed = if workload == Workload::FleetDefense {
        fleet = Some(service::run(&specs[0], Some(&log), Some(root))?);
        None
    } else {
        Some(replay_all(&specs, workload.threads(), &log, root)?)
    };
    let outcomes: Vec<(usize, CampaignOutcome)> = match (&replayed, &fleet) {
        (Some(replayed), _) => replayed
            .iter()
            .map(|r| (r.index, r.outcome.clone()))
            .collect(),
        (None, Some(fleet)) => flatten(&specs, std::slice::from_ref(&fleet.report)),
        (None, None) => unreachable!("either a replay or a fleet run happened"),
    };
    let mut check = check(refs, workload, seed, &outcomes);
    let traced_wall = started.elapsed();
    log.close(root);
    let plain: Vec<CampaignOutcome> = outcomes.iter().map(|(_, o)| o.clone()).collect();
    mismatches(&plain, &baseline.outcomes, "traced", &mut check);

    let mut metrics = Metrics::default();
    let probes = log.open("probes", None, None);

    // Service readouts, then the fleet's points replayed for the engine
    // and defence layers (the workers build their backends internally).
    let (mut compute_frac, mut leases, mut echo) = (0.0, 0.0, None);
    let (mut submit_ms, mut report_ms) = (0.0, 0.0);
    if let Some(fleet) = fleet {
        submit_ms = fleet.submit.as_secs_f64() * 1e3;
        report_ms = fleet.report_get.as_secs_f64() * 1e3;
        let trace = fleet.get("/jobs/1/trace")?;
        let (mut compute_ns, mut job_ns) = (0.0, 0.0);
        for line in trace.lines() {
            let span = Json::parse(line).map_err(|e| format!("bad trace line {line:?}: {e}"))?;
            let duration = match (
                span.get("start_ns").and_then(Json::as_f64),
                span.get("end_ns").and_then(Json::as_f64),
            ) {
                (Some(start), Some(end)) => end - start,
                _ => 0.0,
            };
            match span.get("name").and_then(Json::as_str) {
                Some("compute") => compute_ns += duration,
                Some("job") => job_ns = duration,
                Some("lease") => leases += 1.0,
                _ => {}
            }
        }
        compute_frac = compute_ns / (FLEET_WORKERS as f64 * job_ns.max(1.0));
        let text = fleet.get("/metrics")?;
        echo = Some((
            prometheus_value(&text, "kernel_echo_hits_total"),
            prometheus_value(&text, "kernel_echo_lookups_total"),
        ));
        fleet.finish()?;
    }
    let replayed = match replayed {
        Some(replayed) => replayed,
        None => {
            let replayed = probe_span(&log, probes, "replay", || {
                replay_all(&specs, workload.threads(), &log, probes)
            })?;
            let replayed_outcomes: Vec<CampaignOutcome> =
                replayed.iter().map(|r| r.outcome.clone()).collect();
            mismatches(
                &replayed_outcomes,
                &baseline.outcomes,
                "replayed",
                &mut check,
            );
            replayed
        }
    };
    let (hits, lookups) = echo.unwrap_or_else(|| {
        let registry = rram_telemetry::Registry::global();
        (
            registry
                .counter(
                    "kernel_echo_hits_total",
                    "Biased lane steps replayed from the cross-lane echo cache",
                )
                .value() as f64,
            registry
                .counter(
                    "kernel_echo_lookups_total",
                    "Biased lane steps routed through the cross-lane echo cache",
                )
                .value() as f64,
        )
    });

    let fem_s = probe_span(&log, probes, "probe.fem", || probe::fem(&specs))?.as_secs_f64();
    let sample_ms = probe_span(&log, probes, "probe.variability", || {
        probe::sampling(&specs)
    })?
    .as_secs_f64()
        * 1e3;

    // Kernel and hub: every point of mc-256; the first homogeneous and
    // first heterogeneous point of the 5×5 workloads.
    let mut lane = Vec::new();
    probe_span(&log, probes, "probe.kernel", || -> Result<(), String> {
        let mut seen = [false, false];
        for spec in specs
            .iter()
            .filter(|s| matches!(s.coupling, CouplingSpec::Uniform { .. }))
        {
            for point in spec.points() {
                let heterogeneous = spec
                    .sampled_table(&point)
                    .map_err(|e| e.to_string())?
                    .is_some();
                if workload != Workload::Mc256 && seen[heterogeneous as usize] {
                    continue;
                }
                seen[heterogeneous as usize] = true;
                lane.push(probe::lanes(
                    spec,
                    &point,
                    probe::lane_probe_pulses(&point),
                )?);
            }
        }
        Ok(())
    })?;
    let mean = |values: Vec<f64>| values.iter().sum::<f64>() / values.len().max(1) as f64;

    let reports = match workload {
        Workload::FleetDefense => vec![CampaignReport {
            name: specs[0].name.clone(),
            outcomes: plain.clone(),
        }],
        _ => reports(&specs, &replayed),
    };
    let codec = probe_span(&log, probes, "probe.json", || probe::codec(&reports))?;
    let record_us = probe_span(&log, probes, "probe.checkpoint", || {
        probe::checkpoint(
            &plain,
            &scratch.join(format!("checkpoint-probe-{}.jsonl", workload.name())),
        )
    })?;
    let queue = probe_span(
        &log,
        probes,
        "probe.jobs",
        || -> Result<probe::QueueTiming, String> {
            let (mut total, mut folds, mut shards) = (probe::QueueTiming::default(), 0.0, 0.0);
            for (spec, report) in specs.iter().zip(&reports) {
                let n = FLEET_SHARDS.min(spec.num_points());
                let timing = probe::queue(spec, n, &report.outcomes)?;
                let points = report.outcomes.len() as f64;
                total.fold_us += timing.fold_us * points;
                total.lease_us += timing.lease_us * n as f64;
                total.report_ms += timing.report_ms;
                folds += points;
                shards += n as f64;
            }
            total.fold_us /= folds.max(1.0);
            total.lease_us /= shards.max(1.0);
            Ok(total)
        },
    )?;
    log.close(probes);

    // Engine and driver layers from the replay's timed backend calls.
    let mut calls = crate::timing::CallTotals::default();
    let (mut attack_ns, mut defense_ns, mut integrated, mut reported) = (0u64, 0u64, 0u64, 0u64);
    for r in &replayed {
        calls.add(&r.calls);
        if r.guarded {
            defense_ns += log.self_ns(r.span);
        } else {
            attack_ns += log.self_ns(r.span);
            integrated += r.calls.count(Method::ApplyPulse);
            reported += r.outcome.pulses;
        }
    }
    let per_call_us = |m: Method| calls.nanos(m) as f64 / 1e3 / calls.count(m).max(1) as f64;

    metrics.push("fem.extract_s", fem_s, "s");
    metrics.push("variability.sample_ms", sample_ms, "ms");
    metrics.push(
        "kernel.step_ns_hom",
        mean(
            lane.iter()
                .filter(|l| !l.heterogeneous)
                .map(|l| l.step_ns)
                .collect(),
        ),
        "ns",
    );
    metrics.push(
        "kernel.step_ns_het",
        mean(
            lane.iter()
                .filter(|l| l.heterogeneous)
                .map(|l| l.step_ns)
                .collect(),
        ),
        "ns",
    );
    metrics.push(
        "kernel.relax_ns",
        mean(lane.iter().map(|l| l.relax_ns).collect()),
        "ns",
    );
    metrics.push(
        "kernel.echo_hit_ratio",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
        "ratio",
    );
    metrics.push(
        "crosstalk.update_ns",
        mean(lane.iter().map(|l| l.update_ns).collect()),
        "ns",
    );
    metrics.push("engine.pulse_us", per_call_us(Method::ApplyPulse), "us");
    metrics.push("engine.idle_us", per_call_us(Method::Idle), "us");
    metrics.push(
        "engine.pulses",
        calls.count(Method::ApplyPulse) as f64,
        "count",
    );
    metrics.push("attack.self_s", attack_ns as f64 / 1e9, "s");
    metrics.push(
        "attack.integrated_frac",
        if reported > 0 {
            integrated as f64 / reported as f64
        } else {
            0.0
        },
        "ratio",
    );
    metrics.push("defense.self_s", defense_ns as f64 / 1e9, "s");
    metrics.push(
        "executor.busy_frac",
        baseline.field("busy_s") / (baseline.field("threads") * baseline.field("run_s")).max(1e-9),
        "ratio",
    );
    metrics.push("executor.point_max_s", baseline.field("point_max_s"), "s");
    metrics.push("json.parse_mb_s", codec.parse_mb_s, "MB/s");
    metrics.push("json.encode_mb_s", codec.encode_mb_s, "MB/s");
    metrics.push("json.line_us", codec.line_us, "us");
    metrics.push("checkpoint.record_us", record_us, "us");
    metrics.push("jobs.fold_us", queue.fold_us, "us");
    metrics.push("jobs.lease_us", queue.lease_us, "us");
    metrics.push("jobs.report_ms", queue.report_ms, "ms");
    metrics.push("http.submit_ms", submit_ms, "ms");
    metrics.push("http.report_ms", report_ms, "ms");
    metrics.push("worker.compute_frac", compute_frac, "ratio");
    metrics.push("worker.leases", leases, "count");
    metrics.push(
        "trace.overhead_s",
        traced_wall.as_secs_f64() - baseline.field("wall_s"),
        "s",
    );

    log.write_jsonl(spans)
        .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;
    Ok(Traced { metrics, check })
}
