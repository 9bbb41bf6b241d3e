//! Point replay through the timing wrapper.
//!
//! [`replay`] runs a spec's points through the same public per-point calls
//! the campaign executor's `execute_point` makes —
//! [`CampaignSpec::backend_for`], [`CampaignSpec::attack_config`],
//! [`CampaignSpec::benign_workload`] and [`run_attack`] or
//! [`run_guarded_attack`] — with the engine wrapped in a
//! [`TimedBackend`], on the same number of threads, handing points out in
//! the same order. Each point gets a `point` span with two children: the
//! `backend_for` build and an aggregated `engine` span as long as the
//! point's summed backend calls, so the point span's self time is the
//! attack (or guarded-attack) driver's own time.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use neurohammer::campaign::{CampaignOutcome, CampaignPoint, CampaignSpec, PointKey};
use neurohammer::countermeasures::run_guarded_attack;
use neurohammer::run_attack;
use rram_crossbar::HammerBackend;

use crate::spans::SpanLog;
use crate::timing::{CallTotals, TimedBackend};

/// One replayed point.
#[derive(Debug, Clone)]
pub struct Replayed {
    /// The outcome, built exactly as the executor builds it.
    pub outcome: CampaignOutcome,
    /// Workload-wide point index.
    pub index: usize,
    /// Whether a guard was in the loop.
    pub guarded: bool,
    /// The point's backend calls.
    pub calls: CallTotals,
    /// The point's span.
    pub span: usize,
}

/// Replays one point, recording its `point` span (and children) under
/// `parent`.
///
/// # Errors
///
/// Returns a message when the backend cannot be built.
pub fn replay_point(
    spec: &CampaignSpec,
    key: PointKey,
    point: &CampaignPoint,
    index: usize,
    log: &SpanLog,
    parent: usize,
) -> Result<Replayed, String> {
    let started = Instant::now();
    let mut backend = spec.backend_for(point).map_err(|e| e.to_string())?;
    let built = Instant::now();
    let mut timed = TimedBackend::new(backend.as_mut());
    let config = spec.attack_config(point);
    let guarded = !point.guard.is_none();
    let outcome = if guarded {
        let result = run_guarded_attack(
            &mut timed,
            &config,
            &point.guard,
            &spec.benign_workload(point),
        );
        CampaignOutcome {
            key,
            point: *point,
            flipped: result.attack.flipped,
            pulses: result.attack.pulses,
            victim_drift: result.attack.victim_drift,
            final_crosstalk: result.final_crosstalk,
            sim_time: result.attack.elapsed,
            collateral_flips: result.attack.collateral_flips,
            defense: Some(result.defense),
            wall_ns: None,
        }
    } else {
        let result = run_attack(&mut timed, &config);
        let final_crosstalk = timed.hub().delta(config.victim.row, config.victim.col);
        CampaignOutcome {
            key,
            point: *point,
            flipped: result.flipped,
            pulses: result.pulses,
            victim_drift: result.victim_drift,
            final_crosstalk,
            sim_time: result.elapsed,
            collateral_flips: result.collateral_flips,
            defense: None,
            wall_ns: None,
        }
    };
    let ended = Instant::now();
    let calls = timed.totals();
    let (start_ns, built_ns, end_ns) = (log.offset(started), log.offset(built), log.offset(ended));
    let span = log.record("point", Some(parent), Some(index), start_ns, end_ns);
    log.record("backend_for", Some(span), Some(index), start_ns, built_ns);
    log.record(
        "engine",
        Some(span),
        Some(index),
        built_ns,
        (built_ns + calls.total_nanos()).min(end_ns),
    );
    Ok(Replayed {
        outcome: CampaignOutcome {
            wall_ns: Some(end_ns - start_ns),
            ..outcome
        },
        index,
        guarded,
        calls,
        span,
    })
}

/// Replays every point of `spec` on `threads` threads, under a `campaign`
/// span parented to `parent`. `offset` is the workload-wide index of the
/// spec's first point. Like the executor, the couplings are resolved once
/// per geometry (a `setup` span) before any point starts.
///
/// # Errors
///
/// Returns the first point's error.
pub fn replay(
    spec: &CampaignSpec,
    threads: usize,
    offset: usize,
    log: &SpanLog,
    parent: usize,
) -> Result<Vec<Replayed>, String> {
    let campaign = log.open("campaign", Some(parent), None);
    let points = spec.keyed_points();

    let setup = log.open("setup", Some(campaign), None);
    let mut geometries = BTreeSet::new();
    for (_, point) in &points {
        if geometries.insert((point.rows, point.cols, point.spacing_nm.to_bits())) {
            spec.backend_for(point).map_err(|e| e.to_string())?;
        }
    }
    log.close(setup);

    let next = AtomicUsize::new(0);
    let mut replayed = Vec::with_capacity(points.len());
    let mut first_error = None;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.max(1).min(points.len()))
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let slot = next.fetch_add(1, Ordering::SeqCst);
                        let Some((key, point)) = points.get(slot) else {
                            return Ok(mine);
                        };
                        mine.push(replay_point(
                            spec,
                            *key,
                            point,
                            offset + key.index,
                            log,
                            campaign,
                        )?);
                    }
                })
            })
            .collect();
        for worker in workers {
            match worker.join().expect("replay thread panicked") {
                Ok(mine) => replayed.extend(mine),
                Err(error) => {
                    first_error.get_or_insert(error);
                }
            }
        }
    });
    log.close(campaign);
    if let Some(error) = first_error {
        return Err(error);
    }
    replayed.sort_by_key(|r| r.index);
    Ok(replayed)
}
