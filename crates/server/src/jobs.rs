//! The job-queue state machine: jobs, shard leases, outcome folding,
//! straggler detection and per-job trace assembly.
//!
//! [`JobQueue`] is deliberately pure — no sockets, no threads, and no
//! clock of its own. Every lease-sensitive method takes an explicit
//! `now: Instant`, so lease expiry, reassignment, straggler flagging and
//! speculation are unit-testable without sleeping, and the HTTP layer is
//! a thin shell around a `Mutex<JobQueue>`.
//!
//! Idempotency is structural rather than bolted on: outcomes fold into a
//! per-job `BTreeMap` keyed by grid index with the same semantics as
//! [`CampaignReport::merge`] — first submission wins, a duplicate is a
//! no-op, and a *conflicting* duplicate (same index, different content
//! fingerprint) is rejected as foreign. A worker whose lease expired and
//! was revived can therefore re-submit its whole shard without corrupting
//! the report the next lease-holder is completing. The same property is
//! what makes **speculative execution** safe: when a leased shard runs
//! far past its expected duration (estimated from the observed per-point
//! `wall_ns` median), the queue can hand an *additional* lease on it to an
//! idle worker — whichever copy finishes first wins every point, the
//! loser's duplicates fold to no-ops, and the merged report stays
//! byte-identical to an unsharded run.
//!
//! Every job also accumulates a [`TraceLog`] — submit → lease → per-point
//! compute → fold → finish spans on a monotonic timeline anchored at the
//! submission instant — which `GET /jobs/{id}/trace` serves as JSONL.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use neurohammer::campaign::{
    CampaignError, CampaignEvent, CampaignExecutor, CampaignOutcome, CampaignReport, CampaignSpec,
    Shard,
};
use rram_telemetry::trace::{SpanId, TraceClock, TraceContext, TraceId, TraceLog};

/// Why the queue refused an API call.
#[derive(Debug)]
pub enum QueueError {
    /// No job with that id exists (never created, or deleted).
    UnknownJob(u64),
    /// The request referenced a shard outside the job's partition.
    UnknownShard {
        /// The job the request addressed.
        job: u64,
        /// The out-of-range selector.
        shard: Shard,
    },
    /// A submitted outcome does not belong to the job's grid.
    ForeignOutcome(String),
    /// The submitted spec or shard count failed validation.
    Invalid(CampaignError),
}

impl std::fmt::Display for QueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueueError::UnknownJob(id) => write!(f, "no job {id}"),
            QueueError::UnknownShard { job, shard } => {
                write!(f, "job {job} has no shard {shard}")
            }
            QueueError::ForeignOutcome(what) => write!(f, "foreign outcome: {what}"),
            QueueError::Invalid(e) => write!(f, "invalid job: {e}"),
        }
    }
}

impl std::error::Error for QueueError {}

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted; no worker has leased a shard yet.
    Queued,
    /// At least one shard is leased or recorded, not all are done.
    Running,
    /// Every shard is done; the merged report covers the full grid.
    Complete,
}

impl JobState {
    /// The lower-case label used on the wire (`"queued"`, `"running"`,
    /// `"complete"`).
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Complete => "complete",
        }
    }
}

/// Lifecycle of one shard of a job, as reported by [`JobStatus`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardState {
    /// Waiting for a worker (never leased, or a lease expired).
    Pending,
    /// Leased until expiry; the label joins every concurrent holder with
    /// `+` (more than one only under speculative execution).
    Leased(String),
    /// Fully recorded.
    Done,
}

/// One live lease on a shard. A slot normally holds exactly one; a
/// straggler-flagged shard may carry a second, *speculative* lease
/// (which kind a lease is lives as an annotation on its trace span).
#[derive(Debug, Clone)]
struct Lease {
    worker: String,
    deadline: Instant,
    started: Instant,
    span: SpanId,
}

/// One shard's slot in the queue's bookkeeping.
#[derive(Debug, Clone)]
enum ShardSlot {
    Pending,
    Leased(Vec<Lease>),
    Done,
}

/// Straggler-detection and speculative-execution policy.
///
/// A leased shard's *expected duration* is the median of the job's
/// observed per-point `wall_ns` samples times the shard's point count.
/// Once at least `min_samples` samples exist, a shard whose oldest live
/// lease has run longer than `multiple` times that estimate is flagged:
/// a structured warning is emitted, `queue_stragglers_flagged_total` is
/// incremented, and — when `speculate` is on — the shard becomes eligible
/// for one additional lease to a different, idle worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerPolicy {
    /// Flag a shard once its lease age exceeds this multiple of the
    /// expected duration.
    pub multiple: f64,
    /// Minimum `wall_ns` samples before any estimate is trusted.
    pub min_samples: usize,
    /// Whether flagged shards may be speculatively re-leased.
    pub speculate: bool,
}

impl Default for StragglerPolicy {
    fn default() -> StragglerPolicy {
        StragglerPolicy {
            multiple: 4.0,
            min_samples: 3,
            speculate: false,
        }
    }
}

/// One worker's fleet-level view, as served by `GET /fleet`.
#[derive(Debug, Clone)]
pub struct WorkerInfo {
    /// The worker's self-reported name.
    pub name: String,
    /// Milliseconds since the worker last talked to the queue.
    pub last_seen_ms: u64,
    /// Live leases the worker currently holds.
    pub active_leases: usize,
    /// Age of its oldest live lease, if it holds any.
    pub oldest_lease_ms: Option<u64>,
}

/// A point-in-time snapshot of a job, as served by `GET /jobs/{id}`.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// The job's queue-assigned id.
    pub id: u64,
    /// The campaign name from the submitted spec.
    pub name: String,
    /// Derived lifecycle state.
    pub state: JobState,
    /// Outcomes recorded so far.
    pub points_done: usize,
    /// Grid points in total.
    pub points_total: usize,
    /// Per-shard states, indexed by shard index.
    pub shards: Vec<ShardState>,
    /// Shards currently flagged as stragglers.
    pub stragglers: usize,
}

/// A granted lease: everything a worker needs to execute one shard.
///
/// The spec is the server's validated copy (not the submitter's raw
/// bytes), and `resume` carries the outcomes already recorded for this
/// shard — a reassigned shard replays them through the executor's resume
/// path, so only its unfinished points are recomputed.
#[derive(Debug, Clone)]
pub struct LeaseGrant {
    /// The job this lease belongs to.
    pub job: u64,
    /// The campaign to execute.
    pub spec: CampaignSpec,
    /// The grid slice this lease covers.
    pub shard: Shard,
    /// How long the lease lasts without a heartbeat or result.
    pub lease: Duration,
    /// Already-recorded outcomes of this shard, to replay instead of
    /// recompute.
    pub resume: Vec<CampaignOutcome>,
    /// The trace context identifying this lease's span — the worker
    /// echoes it (as the [`TRACE_HEADER`](rram_telemetry::trace::TRACE_HEADER)
    /// request header) on every heartbeat and result submission, so
    /// folded points attribute to the lease that computed them.
    pub trace: Option<TraceContext>,
    /// Whether this is a speculative second lease on a straggling shard.
    pub speculative: bool,
}

/// What [`JobQueue::lease`] hands a worker asking for work.
#[derive(Debug, Clone)]
pub enum LeaseOffer {
    /// A shard to execute (boxed — a grant carries the whole spec and
    /// resume set, and the idle arm is a single counter).
    Grant(Box<LeaseGrant>),
    /// Nothing leasable right now.
    Idle {
        /// Jobs not yet complete (their shards are leased elsewhere).
        /// A draining worker exits when this reaches zero.
        outstanding: usize,
    },
}

/// The queue's answer to one submitted [`CampaignEvent`].
#[derive(Debug, Clone, Copy)]
pub struct EventAck {
    /// Whether a `PointFinished` outcome was newly folded in — `false`
    /// for duplicates, replayed resume points and non-point events.
    pub accepted: bool,
    /// Whether the submitting worker still holds the shard's lease
    /// (renewed by this very call when it does).
    pub held: bool,
    /// Whether the shard is now fully recorded.
    pub shard_done: bool,
    /// Whether the whole job is now complete.
    pub job_done: bool,
}

struct Job {
    spec: CampaignSpec,
    /// Grid index → content fingerprint, for foreign-outcome rejection.
    expected: HashMap<usize, u64>,
    total: usize,
    shards: Vec<ShardSlot>,
    /// Straggler flags, parallel to `shards`; cleared when a shard
    /// completes or returns to the pending pool.
    flagged: Vec<bool>,
    /// Folded outcomes, keyed by grid index — [`CampaignReport::merge`]
    /// semantics (first wins), kept in grid order by the `BTreeMap`.
    outcomes: BTreeMap<usize, CampaignOutcome>,
    /// The job's recorded event log, replayed (then followed) by
    /// `GET /jobs/{id}/events`: one `Started` at submission, one
    /// `PointFinished` per *newly folded* outcome (duplicates and resume
    /// replays are not re-logged) and one `Finished` when the last shard
    /// completes — the exact event set an unsharded run emits.
    events: Vec<CampaignEvent>,
    /// Converts wall instants into this job's monotonic trace offsets
    /// (origin = submission).
    clock: TraceClock,
    /// The job's span timeline, served by `GET /jobs/{id}/trace`.
    trace: TraceLog,
    /// The root `"job"` span every other span nests under.
    root: SpanId,
    /// Observed per-point compute times, for straggler estimation
    /// (bounded; the median stabilises long before the cap).
    wall_samples: Vec<u64>,
}

/// Cap on the per-job `wall_ns` sample buffer.
const WALL_SAMPLE_CAP: usize = 1024;

impl Job {
    fn complete(&self) -> bool {
        self.shards.iter().all(|s| matches!(s, ShardSlot::Done))
    }

    fn state(&self) -> JobState {
        if self.complete() {
            JobState::Complete
        } else if self.outcomes.is_empty()
            && self.shards.iter().all(|s| matches!(s, ShardSlot::Pending))
        {
            JobState::Queued
        } else {
            JobState::Running
        }
    }

    fn shard_recorded(&self, shard: Shard) -> bool {
        self.expected
            .keys()
            .filter(|&&index| shard.owns(index))
            .all(|index| self.outcomes.contains_key(index))
    }

    /// Grid points owned by shard `index` of this job's partition.
    fn shard_points(&self, index: usize) -> usize {
        let shard = Shard {
            index,
            of: self.shards.len(),
        };
        self.expected
            .keys()
            .filter(|&&point| shard.owns(point))
            .count()
    }

    /// Median of the observed per-point compute times, if any.
    fn wall_median(&self) -> Option<u64> {
        if self.wall_samples.is_empty() {
            return None;
        }
        let mut sorted = self.wall_samples.clone();
        sorted.sort_unstable();
        Some(sorted[sorted.len() / 2])
    }

    fn status(&self, id: u64) -> JobStatus {
        JobStatus {
            id,
            name: self.spec.name.clone(),
            state: self.state(),
            points_done: self.outcomes.len(),
            points_total: self.total,
            shards: self
                .shards
                .iter()
                .map(|slot| match slot {
                    ShardSlot::Pending => ShardState::Pending,
                    ShardSlot::Leased(leases) => ShardState::Leased(
                        leases
                            .iter()
                            .map(|l| l.worker.as_str())
                            .collect::<Vec<_>>()
                            .join("+"),
                    ),
                    ShardSlot::Done => ShardState::Done,
                })
                .collect(),
            stragglers: self.flagged.iter().filter(|&&f| f).count(),
        }
    }
}

/// The campaign service's job queue: validated jobs, shard leases with
/// expiry, idempotent outcome folding, per-job traces and straggler
/// detection.
///
/// # Examples
///
/// Submit a four-point grid split two ways and lease its first shard:
///
/// ```
/// use std::time::{Duration, Instant};
/// use neurohammer::campaign::CampaignSpec;
/// use rram_server::{JobQueue, LeaseOffer};
///
/// let mut queue = JobQueue::new(Duration::from_secs(30));
/// let spec = CampaignSpec {
///     pulse_lengths_ns: vec![50.0, 100.0],
///     amplitudes_v: vec![1.05, 1.15],
///     ..CampaignSpec::default()
/// };
/// let job = queue.submit(spec, 2, Instant::now()).unwrap();
/// assert_eq!((job.points_total, job.shards.len()), (4, 2));
///
/// let LeaseOffer::Grant(grant) = queue.lease("w0", Instant::now()) else {
///     panic!("fresh job must grant");
/// };
/// assert_eq!(grant.job, job.id);
/// assert_eq!(grant.shard.to_string(), "0/2");
/// assert!(grant.resume.is_empty());
/// // Every grant carries a trace context for the worker to echo back.
/// let ctx = grant.trace.unwrap();
/// assert_eq!(queue.trace_jsonl(job.id).unwrap().lines().count(), 3);
/// assert!(queue
///     .trace_jsonl(job.id)
///     .unwrap()
///     .contains(&format!("{}", ctx.span)));
/// ```
pub struct JobQueue {
    lease: Duration,
    next_id: u64,
    jobs: BTreeMap<u64, Job>,
    policy: StragglerPolicy,
    /// Worker name → last time it talked to the queue.
    workers: BTreeMap<String, Instant>,
    telemetry: QueueTelemetry,
}

/// The queue's shared telemetry handles (process-global registry, so the
/// daemon's `/metrics` endpoint sees every queue instance).
struct QueueTelemetry {
    leases_granted: std::sync::Arc<rram_telemetry::Counter>,
    leases_expired: std::sync::Arc<rram_telemetry::Counter>,
    outcomes_folded: std::sync::Arc<rram_telemetry::Counter>,
    stragglers_flagged: std::sync::Arc<rram_telemetry::Counter>,
    speculative_leases: std::sync::Arc<rram_telemetry::Counter>,
    jobs_outstanding: std::sync::Arc<rram_telemetry::Gauge>,
}

impl QueueTelemetry {
    fn new() -> QueueTelemetry {
        let registry = rram_telemetry::Registry::global();
        QueueTelemetry {
            leases_granted: registry.counter(
                "queue_leases_granted_total",
                "Shard leases granted to workers",
            ),
            leases_expired: registry.counter(
                "queue_leases_expired_total",
                "Shard leases returned to the pool after missed heartbeats",
            ),
            outcomes_folded: registry.counter(
                "queue_outcomes_folded_total",
                "Point outcomes newly folded into job reports",
            ),
            stragglers_flagged: registry.counter(
                "queue_stragglers_flagged_total",
                "Shards flagged as stragglers (lease age beyond the expected-duration multiple)",
            ),
            speculative_leases: registry.counter(
                "queue_speculative_leases_total",
                "Second leases granted on straggler-flagged shards",
            ),
            jobs_outstanding: registry.gauge(
                "queue_jobs_outstanding",
                "Jobs submitted but not yet complete",
            ),
        }
    }

    /// Publishes `worker`'s liveness: `1` while it holds (or renews) a
    /// lease, `0` once a lease of its expires.
    fn worker_up(&self, worker: &str, up: bool) {
        rram_telemetry::Registry::global()
            .gauge_with(
                "queue_worker_up",
                "Worker liveness (1 = holds a live lease)",
                &[("worker", worker)],
            )
            .set(if up { 1.0 } else { 0.0 });
    }
}

impl JobQueue {
    /// An empty queue whose leases last `lease` without renewal, with the
    /// default (non-speculating) [`StragglerPolicy`].
    pub fn new(lease: Duration) -> JobQueue {
        JobQueue {
            lease,
            next_id: 1,
            jobs: BTreeMap::new(),
            policy: StragglerPolicy::default(),
            workers: BTreeMap::new(),
            telemetry: QueueTelemetry::new(),
        }
    }

    /// The configured lease duration.
    pub fn lease_duration(&self) -> Duration {
        self.lease
    }

    /// Replaces the straggler policy (the `--speculate` and
    /// `--straggler-multiple` server flags end up here).
    pub fn set_straggler_policy(&mut self, policy: StragglerPolicy) {
        self.policy = policy;
    }

    /// The active straggler policy.
    pub fn straggler_policy(&self) -> StragglerPolicy {
        self.policy
    }

    /// Validates and enqueues a campaign split into `shards` slices.
    /// `now` anchors the job's trace timeline: every span offset counts
    /// from the submission instant.
    ///
    /// Validation constructs a [`CampaignExecutor`] once, server-side, so
    /// a worker never leases a spec that cannot execute.
    ///
    /// # Errors
    ///
    /// Returns [`QueueError::Invalid`] for a spec that fails validation
    /// or a shard count of zero or above the grid's point count.
    pub fn submit(
        &mut self,
        spec: CampaignSpec,
        shards: usize,
        now: Instant,
    ) -> Result<JobStatus, QueueError> {
        CampaignExecutor::new(spec.clone()).map_err(QueueError::Invalid)?;
        let expected: HashMap<usize, u64> = spec
            .keyed_points()
            .into_iter()
            .map(|(key, _)| (key.index, key.id))
            .collect();
        let total = expected.len();
        if shards == 0 || shards > total {
            return Err(QueueError::Invalid(CampaignError::InvalidValue(format!(
                "shards must be between 1 and the grid's {total} points, got {shards}"
            ))));
        }
        let id = self.next_id;
        self.next_id += 1;
        let mut trace = TraceLog::new(TraceId::derive(id));
        let root = trace.start("job", None, 0);
        trace.annotate(root, "name", &spec.name);
        trace.annotate(root, "points", &total.to_string());
        trace.annotate(root, "shards", &shards.to_string());
        trace.instant("submit", Some(root), 0);
        self.jobs.insert(
            id,
            Job {
                spec,
                expected,
                total,
                shards: vec![ShardSlot::Pending; shards],
                flagged: vec![false; shards],
                outcomes: BTreeMap::new(),
                events: vec![CampaignEvent::Started { total }],
                clock: TraceClock::new(now),
                trace,
                root,
                wall_samples: Vec::new(),
            },
        );
        self.telemetry
            .jobs_outstanding
            .set(self.outstanding() as f64);
        Ok(self.jobs[&id].status(id))
    }

    /// Returns expired leases to the pending pool and sweeps for
    /// stragglers. Called implicitly by every time-taking method; exposed
    /// for periodic sweeps.
    pub fn expire(&mut self, now: Instant) {
        let policy = self.policy;
        for (&id, job) in self.jobs.iter_mut() {
            let t = job.clock.at(now);
            // Expiry: drop lapsed leases; a slot with none left pends again.
            for index in 0..job.shards.len() {
                let expired: Vec<Lease> = match &mut job.shards[index] {
                    ShardSlot::Leased(leases) => {
                        let (dead, live): (Vec<Lease>, Vec<Lease>) =
                            leases.drain(..).partition(|l| l.deadline <= now);
                        *leases = live;
                        dead
                    }
                    _ => continue,
                };
                for lease in &expired {
                    self.telemetry.leases_expired.inc();
                    self.telemetry.worker_up(&lease.worker, false);
                    job.trace.annotate(lease.span, "outcome", "expired");
                    job.trace.end(lease.span, t);
                }
                if matches!(&job.shards[index], ShardSlot::Leased(l) if l.is_empty()) {
                    job.shards[index] = ShardSlot::Pending;
                    job.flagged[index] = false;
                }
            }
            // Straggler sweep: flag leased shards running far beyond the
            // median-based expectation.
            if job.wall_samples.len() < policy.min_samples {
                continue;
            }
            let Some(median) = job.wall_median() else {
                continue;
            };
            for index in 0..job.shards.len() {
                if job.flagged[index] {
                    continue;
                }
                let (oldest, span, workers) = match &job.shards[index] {
                    ShardSlot::Leased(leases) if !leases.is_empty() => {
                        let oldest = leases.iter().min_by_key(|l| l.started).expect("non-empty");
                        (
                            oldest.started,
                            oldest.span,
                            leases
                                .iter()
                                .map(|l| l.worker.as_str())
                                .collect::<Vec<_>>()
                                .join("+"),
                        )
                    }
                    _ => continue,
                };
                let expected_ns = median as f64 * job.shard_points(index).max(1) as f64;
                let elapsed_ns = now.saturating_duration_since(oldest).as_nanos() as f64;
                if elapsed_ns <= policy.multiple * expected_ns {
                    continue;
                }
                job.flagged[index] = true;
                self.telemetry.stragglers_flagged.inc();
                job.trace.instant("straggler", Some(span), t);
                let shard = Shard {
                    index,
                    of: job.shards.len(),
                };
                // Structured warning, one JSON object per line, greppable
                // alongside the daemon's other stderr output.
                eprintln!(
                    "{{\"warn\":\"straggler\",\"job\":{id},\"shard\":\"{shard}\",\
                     \"workers\":\"{}\",\"elapsed_ms\":{},\"expected_ms\":{}}}",
                    workers.replace('\\', "\\\\").replace('"', "\\\""),
                    (elapsed_ns / 1e6) as u64,
                    (expected_ns / 1e6) as u64,
                );
            }
        }
    }

    /// Offers `worker` a pending shard (lowest job id, lowest shard index
    /// first), or reports how many jobs are still outstanding. With
    /// speculation enabled and nothing pending, a straggler-flagged shard
    /// held by a *different* worker under a single lease is offered again
    /// as a speculative copy.
    pub fn lease(&mut self, worker: &str, now: Instant) -> LeaseOffer {
        self.expire(now);
        self.workers.insert(worker.to_string(), now);
        let lease = self.lease;
        for (&id, job) in self.jobs.iter_mut() {
            let Some(index) = job
                .shards
                .iter()
                .position(|s| matches!(s, ShardSlot::Pending))
            else {
                continue;
            };
            let grant = grant_lease(job, id, index, worker, now, lease, false);
            self.telemetry.leases_granted.inc();
            self.telemetry.worker_up(worker, true);
            return LeaseOffer::Grant(Box::new(grant));
        }
        if self.policy.speculate {
            for (&id, job) in self.jobs.iter_mut() {
                let Some(index) = (0..job.shards.len()).find(|&i| {
                    job.flagged[i]
                        && matches!(&job.shards[i], ShardSlot::Leased(leases)
                            if leases.len() == 1 && leases[0].worker != worker)
                }) else {
                    continue;
                };
                let grant = grant_lease(job, id, index, worker, now, lease, true);
                self.telemetry.leases_granted.inc();
                self.telemetry.speculative_leases.inc();
                self.telemetry.worker_up(worker, true);
                return LeaseOffer::Grant(Box::new(grant));
            }
        }
        LeaseOffer::Idle {
            outstanding: self.outstanding(),
        }
    }

    /// Renews `worker`'s lease on a shard. Returns whether the lease is
    /// (still) held — `false` tells the worker to abandon the shard, and
    /// a vanished job reads as not-held rather than an error so deleting
    /// a job quiesces its fleet.
    ///
    /// # Errors
    ///
    /// Returns [`QueueError::UnknownShard`] for an out-of-range selector.
    pub fn heartbeat(
        &mut self,
        worker: &str,
        job: u64,
        shard: Shard,
        now: Instant,
    ) -> Result<bool, QueueError> {
        self.expire(now);
        self.workers.insert(worker.to_string(), now);
        let Some(state) = self.jobs.get_mut(&job) else {
            return Ok(false);
        };
        if shard.of != state.shards.len() || shard.validate().is_err() {
            return Err(QueueError::UnknownShard { job, shard });
        }
        let held = renew(&mut state.shards[shard.index], worker, now, self.lease);
        if held {
            self.telemetry.worker_up(worker, true);
        }
        Ok(held)
    }

    /// Folds one worker event into a job.
    ///
    /// `PointFinished` outcomes are checked against the job's grid (index
    /// and content fingerprint) and de-duplicated by grid index — a
    /// duplicate submission, e.g. from an expired-then-revived worker or
    /// a losing speculative copy, is acknowledged but changes nothing.
    /// `Finished` marks the shard done only when every point it owns is
    /// recorded; a premature `Finished` from a lease holder drops that
    /// worker's lease instead (back to pending once no lease remains).
    /// Any event from a current lease holder renews its lease. A vanished
    /// job acknowledges with all-false flags so its fleet winds down.
    ///
    /// `ctx` is the trace context the worker echoed back (from
    /// [`LeaseGrant::trace`]); a newly folded outcome's `compute` span is
    /// parented under that lease span when it names one, falling back to
    /// the worker's live lease, then the job root.
    ///
    /// # Errors
    ///
    /// Returns [`QueueError::UnknownShard`] for an out-of-range selector
    /// and [`QueueError::ForeignOutcome`] for an outcome outside the
    /// job's grid, with a conflicting fingerprint, or outside the named
    /// shard.
    pub fn record(
        &mut self,
        worker: &str,
        job: u64,
        shard: Shard,
        event: &CampaignEvent,
        ctx: Option<TraceContext>,
        now: Instant,
    ) -> Result<EventAck, QueueError> {
        self.expire(now);
        self.workers.insert(worker.to_string(), now);
        let Some(state) = self.jobs.get_mut(&job) else {
            return Ok(EventAck {
                accepted: false,
                held: false,
                shard_done: false,
                job_done: false,
            });
        };
        if shard.of != state.shards.len() || shard.validate().is_err() {
            return Err(QueueError::UnknownShard { job, shard });
        }
        let t = state.clock.at(now);
        let mut accepted = false;
        match event {
            CampaignEvent::Started { .. } => {}
            CampaignEvent::PointFinished(outcome) => {
                let key = outcome.key;
                let Some(&id) = state.expected.get(&key.index) else {
                    return Err(QueueError::ForeignOutcome(format!(
                        "point index {} is outside job {job}'s {}-point grid",
                        key.index, state.total
                    )));
                };
                if id != key.id {
                    return Err(QueueError::ForeignOutcome(format!(
                        "point {} has fingerprint {:016x}, job {job} expects {id:016x} \
                         (different spec?)",
                        key.index, key.id
                    )));
                }
                if !shard.owns(key.index) {
                    return Err(QueueError::ForeignOutcome(format!(
                        "point index {} is not owned by shard {shard}",
                        key.index
                    )));
                }
                if let std::collections::btree_map::Entry::Vacant(slot) =
                    state.outcomes.entry(key.index)
                {
                    slot.insert(outcome.clone());
                    state.events.push(event.clone());
                    self.telemetry.outcomes_folded.inc();
                    accepted = true;
                    if let Some(wall) = outcome.wall_ns {
                        if state.wall_samples.len() < WALL_SAMPLE_CAP {
                            state.wall_samples.push(wall);
                        }
                    }
                    // Trace: the compute interval (reconstructed from the
                    // outcome's wall time) ending at this fold.
                    let parent = ctx
                        .filter(|c| c.trace == state.trace.trace() && state.trace.contains(c.span))
                        .map(|c| c.span)
                        .or_else(|| lease_span_of(&state.shards[shard.index], worker))
                        .or(Some(state.root));
                    let start = t.saturating_sub(outcome.wall_ns.unwrap_or(0));
                    let compute = state.trace.span("compute", parent, start, t);
                    state
                        .trace
                        .annotate(compute, "index", &key.index.to_string());
                    state.trace.annotate(compute, "worker", worker);
                    state.trace.instant("fold", Some(compute), t);
                }
            }
            CampaignEvent::Finished => {
                if state.shard_recorded(shard) {
                    let closing: Vec<(SpanId, bool)> = match &state.shards[shard.index] {
                        ShardSlot::Leased(leases) => leases
                            .iter()
                            .map(|l| (l.span, l.worker == worker))
                            .collect(),
                        _ => Vec::new(),
                    };
                    for (span, mine) in closing {
                        state.trace.annotate(
                            span,
                            "outcome",
                            if mine { "done" } else { "superseded" },
                        );
                        state.trace.end(span, t);
                    }
                    state.shards[shard.index] = ShardSlot::Done;
                    state.flagged[shard.index] = false;
                } else {
                    let mut returned = None;
                    let mut emptied = false;
                    if let ShardSlot::Leased(leases) = &mut state.shards[shard.index] {
                        if let Some(pos) = leases.iter().position(|l| l.worker == worker) {
                            returned = Some(leases.remove(pos));
                            emptied = leases.is_empty();
                        }
                    }
                    if let Some(lease) = returned {
                        state.trace.annotate(lease.span, "outcome", "returned");
                        state.trace.end(lease.span, t);
                        if emptied {
                            state.shards[shard.index] = ShardSlot::Pending;
                            state.flagged[shard.index] = false;
                        }
                    }
                }
            }
        }
        let held = renew(&mut state.shards[shard.index], worker, now, self.lease);
        if held {
            self.telemetry.worker_up(worker, true);
        }
        let job_done = state.complete();
        if job_done && state.events.last() != Some(&CampaignEvent::Finished) {
            // The last shard just completed: close the job's event stream
            // and its trace.
            state.events.push(CampaignEvent::Finished);
            state.trace.instant("finish", Some(state.root), t);
            let root = state.root;
            state.trace.end(root, t);
            self.telemetry
                .jobs_outstanding
                .set(self.outstanding() as f64);
        }
        let state = &self.jobs[&job];
        Ok(EventAck {
            accepted,
            held,
            shard_done: matches!(state.shards[shard.index], ShardSlot::Done),
            job_done,
        })
    }

    /// The job's recorded events from position `from` onwards, plus whether
    /// the log is closed (ends in [`CampaignEvent::Finished`]). The event
    /// streaming endpoint polls this with an advancing cursor: the first
    /// call replays history, subsequent calls return only live additions.
    ///
    /// # Errors
    ///
    /// Returns [`QueueError::UnknownJob`] for an unknown id.
    pub fn events_from(
        &self,
        job: u64,
        from: usize,
    ) -> Result<(Vec<CampaignEvent>, bool), QueueError> {
        let state = self.jobs.get(&job).ok_or(QueueError::UnknownJob(job))?;
        let fresh = state.events.get(from..).unwrap_or_default().to_vec();
        let closed = state.events.last() == Some(&CampaignEvent::Finished);
        Ok((fresh, closed))
    }

    /// The job's span timeline as JSONL, one
    /// [`SpanRecord`](rram_telemetry::trace::SpanRecord) per line in
    /// allocation order — what `GET /jobs/{id}/trace` serves.
    ///
    /// # Errors
    ///
    /// Returns [`QueueError::UnknownJob`] for an unknown id.
    pub fn trace_jsonl(&self, job: u64) -> Result<String, QueueError> {
        self.jobs
            .get(&job)
            .map(|state| state.trace.jsonl())
            .ok_or(QueueError::UnknownJob(job))
    }

    /// The merged report recorded so far — partial while the job runs,
    /// byte-identical to an unsharded [`CampaignSpec::run`] once
    /// complete (outcomes are kept in grid order).
    ///
    /// # Errors
    ///
    /// Returns [`QueueError::UnknownJob`] for an unknown id.
    pub fn report(&self, job: u64) -> Result<CampaignReport, QueueError> {
        let state = self.jobs.get(&job).ok_or(QueueError::UnknownJob(job))?;
        Ok(CampaignReport {
            name: state.spec.name.clone(),
            outcomes: state.outcomes.values().cloned().collect(),
        })
    }

    /// A snapshot of one job.
    ///
    /// # Errors
    ///
    /// Returns [`QueueError::UnknownJob`] for an unknown id.
    pub fn status(&self, job: u64) -> Result<JobStatus, QueueError> {
        self.jobs
            .get(&job)
            .map(|state| state.status(job))
            .ok_or(QueueError::UnknownJob(job))
    }

    /// Snapshots of every job, in id order.
    pub fn list(&self) -> Vec<JobStatus> {
        self.jobs.iter().map(|(&id, job)| job.status(id)).collect()
    }

    /// Every worker that ever talked to this queue, in name order, with
    /// its liveness as of `now` — the `GET /fleet` data source.
    pub fn fleet(&self, now: Instant) -> Vec<WorkerInfo> {
        self.workers
            .iter()
            .map(|(name, &seen)| {
                let mut active = 0;
                let mut oldest: Option<Duration> = None;
                for job in self.jobs.values() {
                    for slot in &job.shards {
                        let ShardSlot::Leased(leases) = slot else {
                            continue;
                        };
                        for lease in leases.iter().filter(|l| &l.worker == name) {
                            active += 1;
                            let age = now.saturating_duration_since(lease.started);
                            oldest = Some(oldest.map_or(age, |o| o.max(age)));
                        }
                    }
                }
                WorkerInfo {
                    name: name.clone(),
                    last_seen_ms: now.saturating_duration_since(seen).as_millis() as u64,
                    active_leases: active,
                    oldest_lease_ms: oldest.map(|d| d.as_millis() as u64),
                }
            })
            .collect()
    }

    /// Removes a job; in-flight workers discover the deletion through
    /// not-held heartbeat/result acknowledgements.
    ///
    /// # Errors
    ///
    /// Returns [`QueueError::UnknownJob`] for an unknown id.
    pub fn delete(&mut self, job: u64) -> Result<(), QueueError> {
        self.jobs
            .remove(&job)
            .map(|_| ())
            .ok_or(QueueError::UnknownJob(job))?;
        self.telemetry
            .jobs_outstanding
            .set(self.outstanding() as f64);
        Ok(())
    }

    /// Jobs not yet complete.
    pub fn outstanding(&self) -> usize {
        self.jobs.values().filter(|job| !job.complete()).count()
    }
}

/// Adds a lease on `job`'s shard `index` for `worker`, opening its trace
/// span, and builds the grant.
fn grant_lease(
    job: &mut Job,
    id: u64,
    index: usize,
    worker: &str,
    now: Instant,
    lease: Duration,
    speculative: bool,
) -> LeaseGrant {
    let shard = Shard {
        index,
        of: job.shards.len(),
    };
    let t = job.clock.at(now);
    let span = job.trace.start("lease", Some(job.root), t);
    job.trace.annotate(span, "worker", worker);
    job.trace.annotate(span, "shard", &shard.to_string());
    if speculative {
        job.trace.annotate(span, "speculative", "true");
    }
    let record = Lease {
        worker: worker.to_string(),
        deadline: now + lease,
        started: now,
        span,
    };
    match &mut job.shards[index] {
        ShardSlot::Leased(leases) => leases.push(record),
        slot => *slot = ShardSlot::Leased(vec![record]),
    }
    let resume = job
        .outcomes
        .values()
        .filter(|outcome| shard.owns(outcome.key.index))
        .cloned()
        .collect();
    LeaseGrant {
        job: id,
        spec: job.spec.clone(),
        shard,
        lease,
        resume,
        trace: Some(TraceContext {
            trace: job.trace.trace(),
            span,
        }),
        speculative,
    }
}

/// Renews `worker`'s lease in `slot` when it holds one; reports whether
/// it does.
fn renew(slot: &mut ShardSlot, worker: &str, now: Instant, lease: Duration) -> bool {
    match slot {
        ShardSlot::Leased(leases) => match leases.iter_mut().find(|l| l.worker == worker) {
            Some(held) => {
                held.deadline = now + lease;
                true
            }
            None => false,
        },
        _ => false,
    }
}

/// The span of `worker`'s live lease in `slot`, if any.
fn lease_span_of(slot: &ShardSlot, worker: &str) -> Option<SpanId> {
    match slot {
        ShardSlot::Leased(leases) => leases.iter().find(|l| l.worker == worker).map(|l| l.span),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A four-point grid that executes in well under a second.
    fn small_spec() -> CampaignSpec {
        CampaignSpec {
            name: "queue test".into(),
            pulse_lengths_ns: vec![50.0, 100.0],
            amplitudes_v: vec![1.05, 1.15],
            max_pulses: 200_000,
            ..CampaignSpec::default()
        }
    }

    fn grant(offer: LeaseOffer) -> LeaseGrant {
        match offer {
            LeaseOffer::Grant(grant) => *grant,
            LeaseOffer::Idle { outstanding } => {
                panic!("expected a grant, got idle ({outstanding} outstanding)")
            }
        }
    }

    #[test]
    fn submit_validates_spec_and_shard_count() {
        let mut queue = JobQueue::new(Duration::from_secs(30));
        let t0 = Instant::now();
        let empty = CampaignSpec {
            amplitudes_v: vec![],
            ..CampaignSpec::default()
        };
        assert!(matches!(
            queue.submit(empty, 1, t0),
            Err(QueueError::Invalid(_))
        ));
        assert!(matches!(
            queue.submit(small_spec(), 0, t0),
            Err(QueueError::Invalid(_))
        ));
        assert!(matches!(
            queue.submit(small_spec(), 5, t0),
            Err(QueueError::Invalid(_))
        ));
        let job = queue.submit(small_spec(), 4, t0).unwrap();
        assert_eq!(job.state, JobState::Queued);
        assert_eq!(job.points_total, 4);
    }

    #[test]
    fn specs_validate_on_submit_and_forward_through_leases() {
        let mut queue = JobQueue::new(Duration::from_secs(30));
        // A malformed grid is rejected at submission, before any shard is
        // leased.
        let mut invalid = small_spec();
        invalid.max_pulses = 0;
        assert!(matches!(
            queue.submit(invalid, 1, Instant::now()),
            Err(QueueError::Invalid(_))
        ));
        // Non-default execution settings survive the submit→lease round
        // trip, so every fleet worker executes the spec the submitter asked
        // for.
        let tuned = CampaignSpec {
            backend_threads: 2,
            batching: false,
            ..small_spec()
        };
        queue.submit(tuned.clone(), 1, Instant::now()).unwrap();
        let granted = grant(queue.lease("w1", Instant::now()));
        assert_eq!(granted.spec, tuned);
    }

    #[test]
    fn expired_lease_is_reassigned_with_recorded_outcomes() {
        let full = small_spec().run().unwrap();
        let mut queue = JobQueue::new(Duration::from_secs(5));
        let t0 = Instant::now();
        let job = queue.submit(small_spec(), 2, t0).unwrap().id;

        let lost = grant(queue.lease("w1", t0));
        assert_eq!(lost.shard.to_string(), "0/2");
        // w1 submits its first point, then falls silent.
        let first = full
            .outcomes
            .iter()
            .find(|o| lost.shard.owns(o.key.index))
            .unwrap();
        let ack = queue
            .record(
                "w1",
                job,
                lost.shard,
                &CampaignEvent::PointFinished(first.clone()),
                lost.trace,
                t0,
            )
            .unwrap();
        assert!(ack.accepted && ack.held && !ack.shard_done);

        // Within the lease the shard stays w1's...
        let within = t0 + Duration::from_secs(4);
        let other = grant(queue.lease("w2", within));
        assert_eq!(other.shard.to_string(), "1/2");
        // ...after expiry it is offered again, with w1's point to replay.
        let after = within + Duration::from_secs(6);
        let retaken = grant(queue.lease("w2", after));
        assert_eq!(retaken.shard.to_string(), "0/2");
        assert_eq!(retaken.resume, vec![first.clone()]);
        assert!(!queue.heartbeat("w1", job, lost.shard, after).unwrap());

        // The trace shows the reassignment: w1's lease span closed as
        // expired, and a fresh lease span for w2 on the same shard.
        let trace = queue.trace_jsonl(job).unwrap();
        assert!(trace.contains("\"outcome\":\"expired\""));
        assert_eq!(trace.matches("\"name\":\"lease\"").count(), 3);
        assert_eq!(trace.matches("\"name\":\"compute\"").count(), 1);
    }

    #[test]
    fn double_submit_after_revival_is_idempotent() {
        let full = small_spec().run().unwrap();
        let mut queue = JobQueue::new(Duration::from_secs(5));
        let t0 = Instant::now();
        let job = queue.submit(small_spec(), 2, t0).unwrap().id;

        let shard0 = grant(queue.lease("w1", t0)).shard;
        let owned: Vec<_> = full
            .outcomes
            .iter()
            .filter(|o| shard0.owns(o.key.index))
            .cloned()
            .collect();
        // w1 records one point, then its lease expires.
        queue
            .record(
                "w1",
                job,
                shard0,
                &CampaignEvent::PointFinished(owned[0].clone()),
                None,
                t0,
            )
            .unwrap();
        let late = t0 + Duration::from_secs(6);

        // w2 takes over shard 0 and completes it.
        let retaken = grant(queue.lease("w2", late));
        assert_eq!(retaken.shard, shard0);
        for outcome in &owned[1..] {
            queue
                .record(
                    "w2",
                    job,
                    shard0,
                    &CampaignEvent::PointFinished(outcome.clone()),
                    retaken.trace,
                    late,
                )
                .unwrap();
        }
        let ack = queue
            .record("w2", job, shard0, &CampaignEvent::Finished, None, late)
            .unwrap();
        assert!(ack.shard_done);
        let snapshot = queue.report(job).unwrap().to_json();

        // The revived w1 re-submits its entire old shard: every event is
        // acknowledged, none is accepted, the report does not change.
        for outcome in &owned {
            let ack = queue
                .record(
                    "w1",
                    job,
                    shard0,
                    &CampaignEvent::PointFinished(outcome.clone()),
                    None,
                    late,
                )
                .unwrap();
            assert!(!ack.accepted && !ack.held);
        }
        let ack = queue
            .record("w1", job, shard0, &CampaignEvent::Finished, None, late)
            .unwrap();
        assert!(ack.shard_done && !ack.held);
        assert_eq!(queue.report(job).unwrap().to_json(), snapshot);

        // w2 finishes shard 1; the full report matches the unsharded run.
        let shard1 = grant(queue.lease("w2", late)).shard;
        for outcome in full.outcomes.iter().filter(|o| shard1.owns(o.key.index)) {
            queue
                .record(
                    "w2",
                    job,
                    shard1,
                    &CampaignEvent::PointFinished(outcome.clone()),
                    None,
                    late,
                )
                .unwrap();
        }
        let ack = queue
            .record("w2", job, shard1, &CampaignEvent::Finished, None, late)
            .unwrap();
        assert!(ack.job_done);
        assert_eq!(queue.status(job).unwrap().state, JobState::Complete);
        assert_eq!(queue.report(job).unwrap().to_json(), full.to_json());

        // The closed trace covers every grid point exactly once and ends
        // with the finish marker.
        let trace = queue.trace_jsonl(job).unwrap();
        assert_eq!(
            trace.matches("\"name\":\"compute\"").count(),
            full.outcomes.len()
        );
        assert_eq!(
            trace.matches("\"name\":\"fold\"").count(),
            full.outcomes.len()
        );
        assert_eq!(trace.matches("\"name\":\"finish\"").count(), 1);
    }

    #[test]
    fn foreign_and_premature_submissions_are_rejected() {
        let full = small_spec().run().unwrap();
        let mut queue = JobQueue::new(Duration::from_secs(5));
        // A different spec: same grid shape, different physics.
        let other_spec = CampaignSpec {
            ambients_k: vec![350.0],
            ..small_spec()
        };
        let t0 = Instant::now();
        let job = queue.submit(other_spec, 2, t0).unwrap().id;
        let lease = grant(queue.lease("w1", t0));

        // Same index, different content fingerprint: rejected.
        let alien = CampaignEvent::PointFinished(full.outcomes[0].clone());
        assert!(matches!(
            queue.record("w1", job, lease.shard, &alien, None, t0),
            Err(QueueError::ForeignOutcome(_))
        ));
        // Finishing without recording anything returns the shard.
        let ack = queue
            .record("w1", job, lease.shard, &CampaignEvent::Finished, None, t0)
            .unwrap();
        assert!(!ack.shard_done && !ack.held);
        let regrant = grant(queue.lease("w2", t0));
        assert_eq!(regrant.shard, lease.shard);
        // Out-of-range shard selectors are protocol errors.
        let bogus = Shard { index: 5, of: 9 };
        assert!(matches!(
            queue.record("w1", job, bogus, &CampaignEvent::Finished, None, t0),
            Err(QueueError::UnknownShard { .. })
        ));
    }

    #[test]
    fn deleted_jobs_quiesce_their_workers() {
        let mut queue = JobQueue::new(Duration::from_secs(5));
        let t0 = Instant::now();
        let job = queue.submit(small_spec(), 1, t0).unwrap().id;
        let lease = grant(queue.lease("w1", t0));
        queue.delete(job).unwrap();
        assert!(matches!(queue.delete(job), Err(QueueError::UnknownJob(_))));
        assert!(!queue.heartbeat("w1", job, lease.shard, t0).unwrap());
        let ack = queue
            .record("w1", job, lease.shard, &CampaignEvent::Finished, None, t0)
            .unwrap();
        assert!(!ack.accepted && !ack.held && !ack.job_done);
        assert_eq!(queue.outstanding(), 0);
    }

    #[test]
    fn stragglers_are_flagged_and_speculatively_re_leased() {
        let full = small_spec().run().unwrap();
        let mut queue = JobQueue::new(Duration::from_secs(3600));
        queue.set_straggler_policy(StragglerPolicy {
            multiple: 2.0,
            min_samples: 1,
            speculate: true,
        });
        let t0 = Instant::now();
        let job = queue.submit(small_spec(), 2, t0).unwrap().id;

        // w1 takes shard 0; w2 takes shard 1, finishes it quickly, and
        // its wall samples seed the expected-duration estimate.
        let slow = grant(queue.lease("w1", t0));
        let fast = grant(queue.lease("w2", t0));
        assert!(!slow.speculative && !fast.speculative);
        let mut fast_outcomes: Vec<_> = full
            .outcomes
            .iter()
            .filter(|o| fast.shard.owns(o.key.index))
            .cloned()
            .collect();
        for outcome in &mut fast_outcomes {
            outcome.wall_ns = Some(1_000_000); // 1 ms per point
            queue
                .record(
                    "w2",
                    job,
                    fast.shard,
                    &CampaignEvent::PointFinished(outcome.clone()),
                    fast.trace,
                    t0 + Duration::from_millis(2),
                )
                .unwrap();
        }
        queue
            .record(
                "w2",
                job,
                fast.shard,
                &CampaignEvent::Finished,
                fast.trace,
                t0 + Duration::from_millis(2),
            )
            .unwrap();

        // Nothing pending, shard 0 not flagged yet: w2 idles.
        let offer = queue.lease("w2", t0 + Duration::from_millis(3));
        assert!(matches!(offer, LeaseOffer::Idle { outstanding: 1 }));

        // Expected duration for shard 0 is ~2 ms (2 points × 1 ms); far
        // beyond 2× that, a heartbeat-driven sweep flags it and the next
        // idle poll grants a speculative copy to w2.
        let later = t0 + Duration::from_millis(500);
        assert!(queue.heartbeat("w1", job, slow.shard, later).unwrap());
        assert_eq!(queue.status(job).unwrap().stragglers, 1);
        let spec_grant = grant(queue.lease("w2", later));
        assert!(spec_grant.speculative);
        assert_eq!(spec_grant.shard, slow.shard);
        // Both hold the shard now; neither lease displaced the other.
        assert!(queue.heartbeat("w1", job, slow.shard, later).unwrap());
        assert!(queue.heartbeat("w2", job, slow.shard, later).unwrap());
        let status = queue.status(job).unwrap();
        assert_eq!(
            status.shards[slow.shard.index],
            ShardState::Leased("w1+w2".into())
        );
        // No third copy: the slot already carries two leases.
        assert!(matches!(queue.lease("w3", later), LeaseOffer::Idle { .. }));

        // w2's copy wins every remaining point; w1's late duplicates fold
        // to no-ops and the report is byte-identical to the unsharded run.
        for outcome in full
            .outcomes
            .iter()
            .filter(|o| slow.shard.owns(o.key.index))
        {
            queue
                .record(
                    "w2",
                    job,
                    slow.shard,
                    &CampaignEvent::PointFinished(outcome.clone()),
                    spec_grant.trace,
                    later,
                )
                .unwrap();
        }
        let ack = queue
            .record(
                "w2",
                job,
                slow.shard,
                &CampaignEvent::Finished,
                spec_grant.trace,
                later,
            )
            .unwrap();
        assert!(ack.shard_done && ack.job_done);
        for outcome in full
            .outcomes
            .iter()
            .filter(|o| slow.shard.owns(o.key.index))
        {
            let ack = queue
                .record(
                    "w1",
                    job,
                    slow.shard,
                    &CampaignEvent::PointFinished(outcome.clone()),
                    slow.trace,
                    later,
                )
                .unwrap();
            assert!(!ack.accepted);
        }
        assert_eq!(queue.report(job).unwrap().to_json(), full.to_json());

        // The trace names the speculative lease and the straggler marker.
        let trace = queue.trace_jsonl(job).unwrap();
        assert!(trace.contains("\"speculative\":\"true\""));
        assert!(trace.contains("\"name\":\"straggler\""));
        assert!(trace.contains("\"outcome\":\"superseded\""));
    }

    #[test]
    fn fleet_reports_worker_liveness_and_lease_age() {
        let mut queue = JobQueue::new(Duration::from_secs(60));
        let t0 = Instant::now();
        queue.submit(small_spec(), 2, t0).unwrap();
        grant(queue.lease("w1", t0));
        let later = t0 + Duration::from_millis(250);
        let offer = queue.lease("w2", later); // takes shard 1
        assert!(matches!(offer, LeaseOffer::Grant(_)));
        let fleet = queue.fleet(t0 + Duration::from_millis(500));
        assert_eq!(fleet.len(), 2);
        assert_eq!(fleet[0].name, "w1");
        assert_eq!(fleet[0].active_leases, 1);
        assert_eq!(fleet[0].last_seen_ms, 500);
        assert_eq!(fleet[0].oldest_lease_ms, Some(500));
        assert_eq!(fleet[1].name, "w2");
        assert_eq!(fleet[1].last_seen_ms, 250);
        assert_eq!(fleet[1].oldest_lease_ms, Some(250));
    }
}
