//! The `fleet-defense` service flow: an in-process campaign server, two
//! draining workers and one closed-loop client, driven through
//! `rram_server`'s public API exactly as a fleet user drives the daemon.

use std::time::{Duration, Instant};

use neurohammer::campaign::json::Json;
use neurohammer::campaign::{CampaignEvent, CampaignReport, CampaignSpec};
use rram_server::{http, run_worker, Server, ServerHandle, ServerOptions, WorkerConfig};

use crate::spans::SpanLog;
use crate::workload::{FLEET_SHARDS, FLEET_WORKERS};

/// A worker lease no point in the workload comes near, so every shard is
/// leased exactly once.
const LEASE: Duration = Duration::from_secs(600);

/// What the client observed up to a decoded report.
pub struct FleetRun {
    /// Server bind plus the `POST /jobs` round trip.
    pub setup: Duration,
    /// The `POST /jobs` round trip alone.
    pub submit: Duration,
    /// From the `POST /jobs` request to the event stream closing.
    pub job: Duration,
    /// Every event the stream delivered.
    pub events: Vec<CampaignEvent>,
    /// The `GET /jobs/1/report` round trip.
    pub report_get: Duration,
    /// The decoded report.
    pub report: CampaignReport,
    addr: String,
    server: ServerHandle,
    workers: Vec<std::thread::JoinHandle<Result<usize, String>>>,
}

fn timed<T>(
    log: Option<&SpanLog>,
    parent: Option<usize>,
    name: &str,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    let span = log.map(|log| log.open(name, parent, None));
    let started = Instant::now();
    let value = f();
    let elapsed = started.elapsed();
    if let (Some(log), Some(span)) = (log, span) {
        log.close(span);
    }
    (value, elapsed)
}

/// A bound server holding the submitted job, before any worker starts.
pub struct Submitted {
    /// Server bind plus the `POST /jobs` round trip.
    pub setup: Duration,
    /// The `POST /jobs` round trip alone.
    pub submit: Duration,
    submitted: Instant,
    job_id: u64,
    addr: String,
    server: ServerHandle,
}

impl Submitted {
    /// Stops the server.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// Binds an in-process server and submits `spec` as an
/// [`FLEET_SHARDS`]-shard job: the workload's set-up.
///
/// # Errors
///
/// Returns a message when the server cannot bind or refuses the job.
pub fn submit(
    spec: &CampaignSpec,
    log: Option<&SpanLog>,
    parent: Option<usize>,
) -> Result<Submitted, String> {
    let started = Instant::now();
    let server = Server::bind_with(
        "127.0.0.1:0",
        ServerOptions {
            lease: LEASE,
            ..ServerOptions::default()
        },
    )
    .map_err(|e| format!("cannot bind the campaign server: {e}"))?;
    let addr = server.local_addr().to_string();
    let server = server.spawn();

    let body = format!(
        "{{\"shards\": {FLEET_SHARDS}, \"spec\": {}}}",
        spec.to_json()
    );
    let submitted = Instant::now();
    let (created, submit) = timed(log, parent, "http.submit", || {
        http::call(&addr, "POST", "/jobs", Some(&body))
    });
    let (status, created) = created.map_err(|e| format!("POST /jobs failed: {e}"))?;
    if status != 201 {
        return Err(format!("POST /jobs answered {status}: {created}"));
    }
    let setup = started.elapsed();
    let job_id = Json::parse(&created)
        .ok()
        .and_then(|job| job.get("id").and_then(Json::as_u64))
        .ok_or_else(|| format!("POST /jobs answered without a job id: {created}"))?;
    Ok(Submitted {
        setup,
        submit,
        submitted,
        job_id,
        addr,
        server,
    })
}

/// Runs the client side of the workload up to a decoded report, recording
/// a span per client call when `log` is given. The server and workers keep
/// running until [`FleetRun::finish`].
///
/// # Errors
///
/// Returns a message on any protocol or decoding failure.
pub fn run(
    spec: &CampaignSpec,
    log: Option<&SpanLog>,
    parent: Option<usize>,
) -> Result<FleetRun, String> {
    let Submitted {
        setup,
        submit,
        submitted,
        job_id,
        addr,
        server,
    } = submit(spec, log, parent)?;
    let workers = (0..FLEET_WORKERS)
        .map(|i| {
            let config = WorkerConfig {
                drain: true,
                ..WorkerConfig::new(addr.clone(), format!("bench-worker-{i}"))
            };
            std::thread::spawn(move || {
                run_worker(&config)
                    .map(|summary| summary.shards.len())
                    .map_err(|e| format!("worker {i} failed: {e}"))
            })
        })
        .collect();

    let mut events = Vec::new();
    let mut bad_event = None;
    let (status, _) = timed(log, parent, "http.events", || {
        http::stream_lines(&addr, &format!("/jobs/{job_id}/events"), |line| {
            match CampaignEvent::from_json(line) {
                Ok(event) => events.push(event),
                Err(e) => {
                    bad_event.get_or_insert(format!("undecodable event {line:?}: {e}"));
                }
            }
            true
        })
    });
    let job = submitted.elapsed();
    let status = status.map_err(|e| format!("GET /jobs/{job_id}/events failed: {e}"))?;
    if status != 200 {
        return Err(format!("GET /jobs/{job_id}/events answered {status}"));
    }
    if let Some(error) = bad_event {
        return Err(error);
    }

    let (served, report_get) = timed(log, parent, "http.report", || {
        http::call(&addr, "GET", &format!("/jobs/{job_id}/report"), None)
    });
    let (status, served) = served.map_err(|e| format!("GET /jobs/{job_id}/report failed: {e}"))?;
    if status != 200 {
        return Err(format!("GET /jobs/{job_id}/report answered {status}"));
    }
    let (report, _) = timed(log, parent, "json.decode", || {
        CampaignReport::from_json(&served)
    });
    let report = report.map_err(|e| format!("the served report does not decode: {e}"))?;
    Ok(FleetRun {
        setup,
        submit,
        job,
        events,
        report_get,
        report,
        addr,
        server,
        workers,
    })
}

impl FleetRun {
    /// `GET` on the running server, demanding HTTP 200.
    ///
    /// # Errors
    ///
    /// Returns a message on failure.
    pub fn get(&self, path: &str) -> Result<String, String> {
        match http::call(&self.addr, "GET", path, None) {
            Ok((200, body)) => Ok(body),
            Ok((status, body)) => Err(format!("GET {path} answered {status}: {body}")),
            Err(e) => Err(format!("GET {path} failed: {e}")),
        }
    }

    /// Joins the workers and stops the server, returning the number of
    /// shards each worker leased.
    ///
    /// # Errors
    ///
    /// Returns the first worker's failure.
    pub fn finish(self) -> Result<Vec<usize>, String> {
        let leased: Vec<Result<usize, String>> = self
            .workers
            .into_iter()
            .map(|worker| worker.join().expect("worker thread panicked"))
            .collect();
        self.server.shutdown();
        leased.into_iter().collect()
    }
}
