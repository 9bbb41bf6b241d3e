//! The streaming campaign executor: shard partitioning, per-point events
//! and checkpoint-aware resumption.
//!
//! [`CampaignExecutor`] is the execution engine behind
//! [`CampaignSpec::run`]. It validates the grid once at construction,
//! partitions the deterministic point list by an explicit [`Shard`],
//! resolves the thermal couplings once per unique geometry and then executes
//! the shard's points on worker threads, delivering a [`CampaignEvent`] to
//! the caller's sink *as points complete* — long FEM-backed grids
//! render progressively, persist partial results through
//! [`super::checkpoint`], and split across processes or machines. The
//! pending points that share their whole attack phase run as one *device
//! family* on one engine ([`run_guard_family`]), bit-identical to running
//! each alone: the points that differ only in their guard, and, where the
//! spec samples no device for them ([`CampaignSpec::samples_device`]), in
//! their Monte Carlo trial, which then changes only the benign stream's
//! seed. The attack phase runs once per distinct guard and the benign
//! phase once per trial. A shard with fewer device families than threads
//! that can run at once falls back to guard families (trials apart), then
//! to single points. A family's members complete together, when the family
//! returns: their events, checkpoint lines and progress arrive at once,
//! and a run killed mid-family keeps none of that family's members.
//!
//! # Examples
//!
//! Stream a two-point campaign, counting points as they land:
//!
//! ```
//! use neurohammer::campaign::{CampaignEvent, CampaignExecutor, CampaignSpec};
//!
//! let spec = CampaignSpec {
//!     pulse_lengths_ns: vec![50.0, 100.0],
//!     max_pulses: 200_000,
//!     ..CampaignSpec::default()
//! };
//! let executor = CampaignExecutor::new(spec).unwrap();
//! let mut done = 0;
//! let report = executor
//!     .execute(|event| {
//!         if let CampaignEvent::PointFinished(outcome) = event {
//!             done += 1;
//!             println!("{done}: {} pulses", outcome.pulses);
//!         }
//!     })
//!     .unwrap();
//! assert_eq!(done, report.outcomes.len());
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use serde::{Deserialize, Serialize};

use super::{
    CampaignError, CampaignOutcome, CampaignPoint, CampaignReport, CampaignSpec, PointKey,
};
use crate::countermeasures::{run_guard_family, GuardSpec};
use rram_fem::AlphaMatrix;

/// One slice of a campaign grid: shard `index` of `of` equal partitions.
///
/// Points are dealt round-robin (`point.index % of == index`), so every
/// shard sees a balanced mix of the grid even when cost correlates with an
/// axis (e.g. short pulse lengths needing many more pulses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shard {
    /// This shard's position, `0 ≤ index < of`.
    pub index: usize,
    /// Total number of shards.
    pub of: usize,
}

impl Default for Shard {
    /// The full grid as a single shard (`0/1`).
    fn default() -> Self {
        Shard { index: 0, of: 1 }
    }
}

impl Shard {
    /// Checks `index < of` and `of ≥ 1`.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::InvalidShard`] otherwise.
    pub fn validate(&self) -> Result<(), CampaignError> {
        if self.of == 0 || self.index >= self.of {
            return Err(CampaignError::InvalidShard {
                index: self.index,
                of: self.of,
            });
        }
        Ok(())
    }

    /// Whether this shard owns the grid point at `point_index`.
    pub fn owns(&self, point_index: usize) -> bool {
        point_index % self.of == self.index
    }

    /// Parses the `i/n` form used by the figure binaries' `--shard` flag.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::InvalidValue`] on malformed text and
    /// [`CampaignError::InvalidShard`] on an out-of-range selector.
    pub fn parse(text: &str) -> Result<Shard, CampaignError> {
        let malformed = || {
            CampaignError::InvalidValue(format!(
                "invalid shard selector {text:?}: expected \"i/n\" with two integers"
            ))
        };
        let (index, of) = text.split_once('/').ok_or_else(malformed)?;
        let shard = Shard {
            index: index.trim().parse().map_err(|_| malformed())?,
            of: of.trim().parse().map_err(|_| malformed())?,
        };
        shard.validate()?;
        Ok(shard)
    }
}

impl std::fmt::Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.of)
    }
}

/// One progress event of a streaming campaign execution.
///
/// Events are delivered to the sink passed to [`CampaignExecutor::execute`]
/// in order: one `Started`, then one `PointFinished` per grid point of the
/// executor's shard (resumed points first, in grid order; fresh points as
/// their workers complete them, a family's members together), then
/// one `Finished`.
// One event exists per grid point, each the product of seconds of
// simulation — the variant-size asymmetry (outcomes now carry an optional
// defence payload) is irrelevant next to keeping every existing event sink
// un-boxed.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignEvent {
    /// Execution began; `total` points will be reported by this executor
    /// (its shard's share of the grid, including resumed points).
    Started {
        /// Number of `PointFinished` events to expect.
        total: usize,
    },
    /// One grid point completed (or was recovered from a checkpoint).
    PointFinished(CampaignOutcome),
    /// Every point of this executor's shard completed.
    Finished,
}

/// Streaming, shardable, resumable campaign execution.
///
/// Construction validates the spec once; [`Self::with_shard`] restricts the
/// executor to one slice of the grid; [`Self::resume_from`] seeds it with
/// outcomes recovered from a checkpoint so only the missing points run.
/// [`Self::execute`] does the work, emitting [`CampaignEvent`]s as points
/// complete and returning the shard's [`CampaignReport`] (grid order).
///
/// # Examples
///
/// Shard a grid across two executors and merge the reports:
///
/// ```
/// use neurohammer::campaign::{CampaignExecutor, CampaignReport, CampaignSpec, Shard};
///
/// let spec = CampaignSpec {
///     amplitudes_v: vec![1.05, 1.15],
///     max_pulses: 200_000,
///     ..CampaignSpec::default()
/// };
/// let half = |index| {
///     CampaignExecutor::new(spec.clone())
///         .unwrap()
///         .with_shard(Shard { index, of: 2 })
///         .unwrap()
///         .execute(|_| {})
///         .unwrap()
/// };
/// let merged = CampaignReport::merge([half(0), half(1)]).unwrap();
/// assert_eq!(merged.outcomes.len(), spec.num_points());
/// ```
#[derive(Debug, Clone)]
pub struct CampaignExecutor {
    spec: CampaignSpec,
    shard: Shard,
    resumed: Vec<CampaignOutcome>,
    alpha_cache: Option<std::path::PathBuf>,
}

impl CampaignExecutor {
    /// Validates the spec and wraps it in an executor for the full grid.
    ///
    /// # Errors
    ///
    /// Returns the spec's first validation error.
    pub fn new(spec: CampaignSpec) -> Result<Self, CampaignError> {
        spec.validate()?;
        Ok(CampaignExecutor {
            spec,
            shard: Shard::default(),
            resumed: Vec::new(),
            alpha_cache: None,
        })
    }

    /// Routes FEM coupling extractions through the on-disk α cache in
    /// `dir` (see [`rram_fem::alpha::extract_alpha_disk_cached`]): repeated
    /// campaign *processes* over the same geometry skip the field solve.
    /// The figure binaries point this next to their checkpoint file.
    pub fn with_alpha_cache(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.alpha_cache = Some(dir.into());
        self
    }

    /// Restricts the executor to one shard of the grid.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::InvalidShard`] on a malformed selector.
    pub fn with_shard(mut self, shard: Shard) -> Result<Self, CampaignError> {
        shard.validate()?;
        self.shard = shard;
        Ok(self)
    }

    /// Seeds the executor with outcomes recovered from a checkpoint.
    ///
    /// Outcomes whose [`PointKey`] matches a point of this executor's shard
    /// are replayed instead of re-executed; stale outcomes (from an older or
    /// different spec) and duplicates are silently ignored, so feeding a
    /// checkpoint from a changed grid simply re-runs everything that no
    /// longer matches.
    pub fn resume_from<I>(mut self, outcomes: I) -> Self
    where
        I: IntoIterator<Item = CampaignOutcome>,
    {
        self.resumed.extend(outcomes);
        self
    }

    /// The validated spec this executor runs.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// The shard this executor is restricted to.
    pub fn shard(&self) -> Shard {
        self.shard
    }

    /// The `(key, point)` pairs this executor's shard owns, in grid order.
    pub fn owned_points(&self) -> Vec<(PointKey, CampaignPoint)> {
        self.spec
            .keyed_points()
            .into_iter()
            .filter(|(key, _)| self.shard.owns(key.index))
            .collect()
    }

    /// Number of points this executor will report (its shard's share of the
    /// grid, including resumed points).
    pub fn total(&self) -> usize {
        self.owned_points().len()
    }

    /// The owned points still missing after checkpoint resumption — the
    /// work [`Self::execute`] will actually run.
    pub fn pending_points(&self) -> Vec<(PointKey, CampaignPoint)> {
        let (_, pending) = self.split_resumed();
        pending
    }

    /// Splits the owned points into (recovered outcomes, still-pending
    /// points). A resumed outcome counts only if its key exactly matches
    /// the grid's key at that index.
    fn split_resumed(&self) -> (Vec<CampaignOutcome>, Vec<(PointKey, CampaignPoint)>) {
        let owned = self.owned_points();
        let mut recovered: HashMap<PointKey, &CampaignOutcome> = HashMap::new();
        for outcome in &self.resumed {
            recovered.entry(outcome.key).or_insert(outcome);
        }
        let mut replayed = Vec::new();
        let mut pending = Vec::new();
        for (key, point) in owned {
            match recovered.get(&key) {
                Some(outcome) => replayed.push((*outcome).clone()),
                None => pending.push((key, point)),
            }
        }
        (replayed, pending)
    }

    /// Executes the shard's points on worker threads, delivering a
    /// [`CampaignEvent`] to `on_event` as each unit of work completes (one
    /// per member, in grid order), and returns the shard's report
    /// (outcomes in grid order).
    ///
    /// The sink runs on the calling thread; workers hand their outcomes
    /// over a channel, so a slow sink never blocks the simulation threads.
    ///
    /// # Errors
    ///
    /// Returns a [`CampaignError`] if a coupling extraction fails or a
    /// worker needs a coupling that was never resolved
    /// ([`CampaignError::MissingCoupling`]); the first error wins and no
    /// `Finished` event is emitted.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics.
    pub fn execute<F>(&self, mut on_event: F) -> Result<CampaignReport, CampaignError>
    where
        F: FnMut(CampaignEvent),
    {
        let (replayed, pending) = self.split_resumed();
        let pending_points: Vec<CampaignPoint> = pending.iter().map(|(_, point)| *point).collect();
        let couplings = self
            .spec
            .resolve_couplings(&pending_points, self.alpha_cache.as_deref())?;

        // Process-wide telemetry (served by the campaign daemon's /metrics,
        // embedded in --html artifacts): registration touches a mutex once,
        // every per-point update below is a single atomic operation.
        let telemetry = rram_telemetry::Registry::global();
        let points_total =
            telemetry.counter("campaign_points_total", "Grid points finished (simulated)");
        let replayed_total = telemetry.counter(
            "campaign_points_replayed_total",
            "Grid points recovered from checkpoints instead of simulated",
        );
        let queue_depth = telemetry.gauge(
            "campaign_queue_depth",
            "Grid points owned by this executor but not yet finished",
        );
        let points_per_sec = telemetry.gauge(
            "campaign_points_per_sec",
            "Simulated points per wall-clock second over the current execution",
        );
        let point_seconds = telemetry.histogram(
            "campaign_point_seconds",
            "Per-point wall-clock simulation duration",
            &rram_telemetry::DURATION_SECONDS_BUCKETS,
        );

        on_event(CampaignEvent::Started {
            total: replayed.len() + pending.len(),
        });
        queue_depth.set((replayed.len() + pending.len()) as f64);
        let mut outcomes = Vec::with_capacity(replayed.len() + pending.len());
        for outcome in replayed {
            on_event(CampaignEvent::PointFinished(outcome.clone()));
            outcomes.push(outcome);
            replayed_total.inc();
            queue_depth.add(-1.0);
        }

        let mut first_error: Option<CampaignError> = None;
        if !pending.is_empty() {
            let run_started = std::time::Instant::now();
            let mut fresh_done = 0u64;
            let units = self.units_of_work(&pending);
            let threads = self.spec.threads.max(1).min(units.len());
            let next = AtomicUsize::new(0);
            let (sender, receiver) = mpsc::channel();
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    let sender = sender.clone();
                    let next = &next;
                    let units = &units;
                    let couplings = &couplings;
                    let point_seconds = &point_seconds;
                    scope.spawn(move || loop {
                        let slot = next.fetch_add(1, Ordering::SeqCst);
                        let Some(members) = units.get(slot) else {
                            break;
                        };
                        let sent = match self.execute_family(members, couplings, point_seconds) {
                            Ok(outcomes) => {
                                outcomes.into_iter().all(|o| sender.send(Ok(o)).is_ok())
                            }
                            Err(error) => sender.send(Err(error)).is_ok(),
                        };
                        if !sent {
                            break;
                        }
                    });
                }
                drop(sender);
                for result in receiver {
                    match result {
                        Ok(outcome) => {
                            on_event(CampaignEvent::PointFinished(outcome.clone()));
                            outcomes.push(outcome);
                            points_total.inc();
                            queue_depth.add(-1.0);
                            fresh_done += 1;
                            let elapsed = run_started.elapsed().as_secs_f64();
                            if elapsed > 0.0 {
                                points_per_sec.set(fresh_done as f64 / elapsed);
                            }
                        }
                        Err(error) => {
                            if first_error.is_none() {
                                first_error = Some(error);
                            }
                        }
                    }
                }
            });
        }
        if let Some(error) = first_error {
            return Err(error);
        }

        outcomes.sort_by_key(|outcome| outcome.key);
        on_event(CampaignEvent::Finished);
        Ok(CampaignReport {
            name: self.spec.name.clone(),
            outcomes,
        })
    }

    /// Deals the pending points into units of work, in grid order: the
    /// coarsest grouping that still gives at least as many units as threads
    /// that can run at once (`threads`, capped at the machine's available
    /// parallelism), so a grid with fewer families than cores keeps its
    /// parallelism. The ladder runs from *device families* (the points
    /// that share their whole attack phase: same point but for the guard,
    /// and but for the trial when the point samples no device,
    /// [`CampaignSpec::samples_device`]) through *guard families* (the
    /// points that differ only in their guard) to single points. On a
    /// two-core VM, `fig_defense`'s quick grid cut to one guard family
    /// took 31 % less wall time on two threads dealt per point than as one
    /// family, while two and four of its families on three and five threads
    /// took 10 % and 4 % less as families.
    fn units_of_work(
        &self,
        pending: &[(PointKey, CampaignPoint)],
    ) -> Vec<Vec<(PointKey, CampaignPoint)>> {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let wanted = self.spec.threads.max(1).min(cores);
        for share_trials in [true, false] {
            let mut families: Vec<Vec<(PointKey, CampaignPoint)>> = Vec::new();
            let mut family_of = HashMap::new();
            for &(key, point) in pending {
                // Every coordinate but the guard, and but the trial where
                // it seeds nothing but the benign stream.
                let shared = CampaignPoint {
                    guard: GuardSpec::None,
                    trial: if share_trials && !self.spec.samples_device(&point) {
                        0
                    } else {
                        point.trial
                    },
                    ..point
                };
                let family = *family_of.entry(shared.id()).or_insert_with(|| {
                    families.push(Vec::new());
                    families.len() - 1
                });
                families[family].push((key, point));
            }
            if families.len() >= wanted {
                return families;
            }
        }
        pending.iter().map(|&member| vec![member]).collect()
    }

    /// Runs one unit of work — a device family, a guard family or a single
    /// point — against its pre-resolved coupling matrix, on one engine
    /// ([`run_guard_family`]), and returns its members' outcomes in order,
    /// each with an even share of the unit's wall time (also observed in
    /// `point_seconds`). The engine is built from the first member: the
    /// members of a unit share its device and backend.
    fn execute_family(
        &self,
        members: &[(PointKey, CampaignPoint)],
        couplings: &HashMap<super::CouplingKey, AlphaMatrix>,
        point_seconds: &rram_telemetry::Histogram,
    ) -> Result<Vec<CampaignOutcome>, CampaignError> {
        let started = std::time::Instant::now();
        let (_, point) = &members[0];
        let coupling_key = (point.rows, point.cols, point.spacing_nm.to_bits());
        let alpha = couplings
            .get(&coupling_key)
            .ok_or(CampaignError::MissingCoupling {
                rows: point.rows,
                cols: point.cols,
                spacing_nm: point.spacing_nm,
            })?
            .clone();
        let mut backend = self.spec.backend_with_alpha(point, alpha)?;
        let family: Vec<_> = members
            .iter()
            .map(|(_, member)| (member.guard, self.spec.benign_workload(member)))
            .collect();
        let guarded = run_guard_family(backend.as_mut(), &self.spec.attack_config(point), &family);
        let share = started.elapsed() / members.len() as u32;
        let wall_ns = u64::try_from(share.as_nanos()).unwrap_or(u64::MAX);
        Ok(members
            .iter()
            .zip(guarded)
            .map(|(&(key, point), guarded)| {
                point_seconds.observe(share.as_secs_f64());
                CampaignOutcome {
                    key,
                    point,
                    flipped: guarded.attack.flipped,
                    pulses: guarded.attack.pulses,
                    victim_drift: guarded.attack.victim_drift,
                    final_crosstalk: guarded.final_crosstalk,
                    sim_time: guarded.attack.elapsed,
                    collateral_flips: guarded.attack.collateral_flips,
                    // Unguarded points report no defence at all.
                    defense: (!point.guard.is_none()).then_some(guarded.defense),
                    wall_ns: Some(wall_ns),
                }
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn four_point_spec() -> CampaignSpec {
        CampaignSpec {
            name: "executor test".into(),
            pulse_lengths_ns: vec![50.0, 100.0],
            amplitudes_v: vec![1.05, 1.15],
            max_pulses: 300_000,
            ..CampaignSpec::default()
        }
    }

    #[test]
    fn events_arrive_in_order_and_match_the_report() {
        let executor = CampaignExecutor::new(four_point_spec()).unwrap();
        let mut events = Vec::new();
        let report = executor.execute(|event| events.push(event)).unwrap();

        assert_eq!(events.len(), 6, "{events:?}");
        assert_eq!(events[0], CampaignEvent::Started { total: 4 });
        assert_eq!(*events.last().unwrap(), CampaignEvent::Finished);
        let mut streamed: Vec<CampaignOutcome> = events
            .into_iter()
            .filter_map(|event| match event {
                CampaignEvent::PointFinished(outcome) => Some(outcome),
                _ => None,
            })
            .collect();
        streamed.sort_by_key(|outcome| outcome.key);
        assert_eq!(streamed, report.outcomes);
    }

    #[test]
    fn sharding_partitions_and_merge_restores_the_full_report() {
        let spec = four_point_spec();
        let full = spec.run().unwrap();
        let half = |index| {
            CampaignExecutor::new(spec.clone())
                .unwrap()
                .with_shard(Shard { index, of: 2 })
                .unwrap()
                .execute(|_| {})
                .unwrap()
        };
        let (a, b) = (half(0), half(1));
        assert_eq!(a.outcomes.len() + b.outcomes.len(), 4);
        // Merge out of order; grid order is restored by the point keys.
        let merged = CampaignReport::merge([b, a]).unwrap();
        assert_eq!(merged.outcomes, full.outcomes);
        assert_eq!(merged.to_csv_string(), full.to_csv_string());
    }

    #[test]
    fn resume_skips_recovered_points() {
        let spec = four_point_spec();
        let first_half = CampaignExecutor::new(spec.clone())
            .unwrap()
            .with_shard(Shard { index: 0, of: 2 })
            .unwrap()
            .execute(|_| {})
            .unwrap();

        let resumed = CampaignExecutor::new(spec.clone())
            .unwrap()
            .resume_from(first_half.outcomes.clone());
        assert_eq!(resumed.total(), 4);
        assert_eq!(resumed.pending_points().len(), 2);

        let mut finished = 0;
        let report = resumed
            .execute(|event| {
                if matches!(event, CampaignEvent::PointFinished(_)) {
                    finished += 1;
                }
            })
            .unwrap();
        assert_eq!(finished, 4);
        assert_eq!(report, spec.run().unwrap());
    }

    #[test]
    fn stale_resume_outcomes_are_ignored() {
        let spec = four_point_spec();
        let mut stale = spec.run().unwrap().outcomes;
        for outcome in &mut stale {
            outcome.key.id ^= 1; // corrupt the fingerprint
        }
        let executor = CampaignExecutor::new(spec).unwrap().resume_from(stale);
        assert_eq!(executor.pending_points().len(), 4);
    }

    #[test]
    fn a_changed_execution_profile_invalidates_resume() {
        let spec = four_point_spec();
        let outcomes = spec.run().unwrap().outcomes;

        // Same grid coordinates, different pulse budget: every point must
        // re-run — the keys fingerprint the execution profile too.
        let bigger_budget = CampaignSpec {
            max_pulses: spec.max_pulses * 2,
            ..spec.clone()
        };
        let executor = CampaignExecutor::new(bigger_budget)
            .unwrap()
            .resume_from(outcomes.clone());
        assert_eq!(executor.pending_points().len(), 4);

        // The unchanged profile replays everything.
        let executor = CampaignExecutor::new(spec).unwrap().resume_from(outcomes);
        assert_eq!(executor.pending_points().len(), 0);
    }

    #[test]
    fn shard_selectors_validate_and_parse() {
        assert!(Shard { index: 0, of: 1 }.validate().is_ok());
        assert!(matches!(
            Shard { index: 2, of: 2 }.validate(),
            Err(CampaignError::InvalidShard { .. })
        ));
        assert!(matches!(
            Shard { index: 0, of: 0 }.validate(),
            Err(CampaignError::InvalidShard { .. })
        ));
        assert_eq!(Shard::parse("1/4").unwrap(), Shard { index: 1, of: 4 });
        assert_eq!(Shard::parse("1/4").unwrap().to_string(), "1/4");
        for bad in ["", "1", "4/1", "a/b", "1/0"] {
            assert!(Shard::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    proptest! {
        #[test]
        fn any_shard_partition_is_disjoint_and_complete(of in 1usize..8) {
            let spec = CampaignSpec {
                pulse_lengths_ns: vec![10.0, 20.0, 30.0],
                amplitudes_v: vec![1.0, 1.1],
                ambients_k: vec![300.0, 325.0],
                ..CampaignSpec::default()
            };
            let all = spec.keyed_points();
            let mut seen = vec![0usize; all.len()];
            for index in 0..of {
                let shard = Shard { index, of };
                prop_assert!(shard.validate().is_ok());
                let executor = CampaignExecutor::new(spec.clone())
                    .unwrap()
                    .with_shard(shard)
                    .unwrap();
                for (key, point) in executor.owned_points() {
                    prop_assert_eq!(all[key.index].0, key);
                    prop_assert_eq!(all[key.index].1, point);
                    seen[key.index] += 1;
                }
            }
            // Every point owned by exactly one shard: disjoint and complete.
            prop_assert!(seen.iter().all(|&count| count == 1));
        }
    }
}
