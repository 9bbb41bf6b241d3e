//! Campaign-service lifecycle, end to end: a server and two in-process
//! workers on a loopback port, one worker killed mid-grid, the reassigned
//! shard resumed by the survivor — and the merged report byte-identical
//! (JSON and CSV) to the same spec run unsharded.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use neurohammer_repro::attack::campaign::json::Json;
use neurohammer_repro::attack::campaign::{CampaignEvent, CampaignSpec, PointKey};
use neurohammer_repro::server::{
    http, run_worker, Server, ServerOptions, StragglerPolicy, WorkerConfig,
};

fn grid() -> CampaignSpec {
    CampaignSpec {
        name: "service lifecycle".into(),
        pulse_lengths_ns: vec![50.0, 100.0],
        amplitudes_v: vec![1.05, 1.15],
        max_pulses: 300_000,
        threads: 2,
        ..CampaignSpec::default()
    }
}

#[test]
fn killed_worker_lease_reassignment_is_byte_identical() {
    let spec = grid();
    let reference = spec.run().unwrap();

    // Short leases so the killed worker's shard frees up within the test.
    let server = Server::bind("127.0.0.1:0", Duration::from_millis(300)).unwrap();
    let addr = server.local_addr().to_string();
    let handle = server.spawn();

    let body = format!("{{\"shards\": 2, \"spec\": {}}}", spec.to_json());
    let (status, created) = http::call(&addr, "POST", "/jobs", Some(&body)).unwrap();
    assert_eq!(status, 201, "{created}");
    assert!(created.contains("\"state\":\"queued\""), "{created}");

    // Worker 1 leases shard 0 and "dies" (SIGKILL-equivalent: silent, no
    // heartbeats, no Finished) after streaming exactly one point.
    let mut crash_config = WorkerConfig::new(addr.clone(), "crash");
    crash_config.poll = Duration::from_millis(50);
    crash_config.kill_after = Some(1);
    let crash = run_worker(&crash_config).unwrap();
    assert!(crash.killed);
    assert_eq!(crash.shards.len(), 1);
    assert!(!crash.shards[0].completed);
    let crash_keys: HashSet<PointKey> = crash.shards[0].executed.iter().copied().collect();
    assert_eq!(crash_keys.len(), 1);

    // Worker 2 drains the queue: it takes shard 1, waits out the dead
    // lease, then re-leases shard 0 with the crash worker's point in the
    // grant's resume set — replayed, never recomputed or re-streamed.
    let mut survivor_config = WorkerConfig::new(addr.clone(), "survivor");
    survivor_config.poll = Duration::from_millis(50);
    survivor_config.drain = true;
    let survivor = run_worker(&survivor_config).unwrap();
    assert!(!survivor.killed);
    assert!(survivor.shards.iter().all(|run| run.completed));

    // No point executed twice by the surviving worker: its executed keys
    // are disjoint from the crash worker's, the union covers the grid,
    // and the one already-streamed point arrived as a replay.
    let survivor_keys: HashSet<PointKey> = survivor
        .shards
        .iter()
        .flat_map(|run| run.executed.iter().copied())
        .collect();
    assert!(crash_keys.is_disjoint(&survivor_keys));
    let all_keys: HashSet<PointKey> = spec
        .keyed_points()
        .into_iter()
        .map(|(key, _)| key)
        .collect();
    let union: HashSet<PointKey> = crash_keys.union(&survivor_keys).copied().collect();
    assert_eq!(union, all_keys);
    let replayed: usize = survivor.shards.iter().map(|run| run.replayed).sum();
    assert_eq!(replayed, crash_keys.len());

    // The merged report is byte-identical to the unsharded run — the
    // report route serves the figure binaries' exact `--json` bytes.
    let (status, report_json) = http::call(&addr, "GET", "/jobs/1/report", None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(report_json, format!("{}\n", reference.to_json()));
    let (status, report_csv) = http::call(&addr, "GET", "/jobs/1/report.csv", None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(report_csv, reference.to_csv_string());

    let (status, job) = http::call(&addr, "GET", "/jobs/1", None).unwrap();
    assert_eq!(status, 200);
    assert!(job.contains("\"state\":\"complete\""), "{job}");

    // The assembled trace timeline covers the whole job: one root span,
    // one submit and one finish instant, every grid point computed and
    // folded exactly once, and the crashed worker's shard visible as an
    // expired lease span followed by the survivor's second lease.
    let (status, trace) = http::call(&addr, "GET", "/jobs/1/trace", None).unwrap();
    assert_eq!(status, 200);
    let spans: Vec<Json> = trace
        .lines()
        .map(|line| Json::parse(line).unwrap_or_else(|e| panic!("bad span {line:?}: {e}")))
        .collect();
    let named = |name: &str| {
        spans
            .iter()
            .filter(|s| s.get("name").and_then(Json::as_str) == Some(name))
            .collect::<Vec<_>>()
    };
    assert_eq!(named("job").len(), 1);
    assert!(named("job")[0].get("end_ns").is_some(), "root span open");
    assert_eq!(named("submit").len(), 1);
    assert_eq!(named("finish").len(), 1);
    let computed: Vec<&str> = named("compute")
        .iter()
        .filter_map(|span| span.get("attrs")?.get("index")?.as_str())
        .collect();
    let mut sorted = computed.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(
        computed.len(),
        all_keys.len(),
        "every grid point computed exactly once:\n{trace}"
    );
    assert_eq!(sorted.len(), computed.len(), "duplicate compute span");
    assert_eq!(named("fold").len(), all_keys.len());
    // Two shards, three leases: the reassignment is a second lease span
    // on the crashed shard, its predecessor closed with outcome=expired.
    let leases = named("lease");
    assert_eq!(leases.len(), 3, "{trace}");
    let outcome = |spans: &[&Json], tag: &str| {
        spans
            .iter()
            .filter(|s| {
                s.get("attrs")
                    .and_then(|a| a.get("outcome"))
                    .and_then(Json::as_str)
                    == Some(tag)
            })
            .count()
    };
    assert_eq!(outcome(&leases, "expired"), 1, "{trace}");
    assert_eq!(outcome(&leases, "done"), 2, "{trace}");

    handle.shutdown();
}

#[test]
fn job_crud_lifecycle_over_http() {
    let server = Server::bind("127.0.0.1:0", Duration::from_secs(30)).unwrap();
    let addr = server.local_addr().to_string();
    let handle = server.spawn();

    let (status, body) = http::call(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200, "{body}");

    // Validation happens at submission, before any worker sees the job.
    let (status, body) = http::call(
        &addr,
        "POST",
        "/jobs",
        Some("{\"spec\": {\"amplitudes_v\": []}}"),
    )
    .unwrap();
    assert_eq!(status, 400, "{body}");
    let (status, body) = http::call(&addr, "POST", "/jobs", Some("not json")).unwrap();
    assert_eq!(status, 400, "{body}");
    let zero_parasitics = r#"{"spec": {"backends": [{"kind": "detailed", "driver_ohms": 0}]}}"#;
    let (status, body) = http::call(&addr, "POST", "/jobs", Some(zero_parasitics)).unwrap();
    assert_eq!(status, 400, "{body}");
    // So is a detailed array whose line network would not fit in memory.
    let oversized = r#"{"spec": {"backends": ["detailed"], "array_sizes": [[64, 64]]}}"#;
    let (status, body) = http::call(&addr, "POST", "/jobs", Some(oversized)).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("at most 1024 cells"), "{body}");

    let body = format!("{{\"shards\": 4, \"spec\": {}}}", grid().to_json());
    let (status, created) = http::call(&addr, "POST", "/jobs", Some(&body)).unwrap();
    assert_eq!(status, 201, "{created}");

    let (status, list) = http::call(&addr, "GET", "/jobs", None).unwrap();
    assert_eq!(status, 200);
    assert!(list.contains("\"service lifecycle\""), "{list}");

    // An idle lease against a fully-leased-or-absent queue reports the
    // outstanding count a draining worker exits on.
    let (status, partial) = http::call(&addr, "GET", "/jobs/1/report", None).unwrap();
    assert_eq!(status, 200);
    assert!(partial.contains("\"outcomes\": []"), "{partial}");

    // The observability routes are up even before any worker connects:
    // the Prometheus endpoint declares the exposition-format version, the
    // history is served as JSONL, and the fleet page is self-contained.
    let metrics = http::call_with(&addr, "GET", "/metrics", None, &[]).unwrap();
    assert_eq!(metrics.status, 200);
    assert_eq!(
        metrics.header("content-type"),
        Some("text/plain; version=0.0.4")
    );
    assert!(metrics.body.contains("# HELP"), "{}", metrics.body);
    assert!(metrics.body.contains("# TYPE"), "{}", metrics.body);
    let history =
        http::call_with(&addr, "GET", "/metrics/history?family=queue", None, &[]).unwrap();
    assert_eq!(history.status, 200);
    assert_eq!(history.header("content-type"), Some("application/jsonl"));
    let fleet = http::call_with(&addr, "GET", "/fleet", None, &[]).unwrap();
    assert_eq!(fleet.status, 200);
    assert_eq!(
        fleet.header("content-type"),
        Some("text/html; charset=utf-8")
    );
    assert!(fleet.body.starts_with("<!DOCTYPE html>"), "{}", fleet.body);
    assert!(fleet.body.contains("service lifecycle"), "{}", fleet.body);

    let (status, body) = http::call(&addr, "DELETE", "/jobs/1", None).unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, body) = http::call(&addr, "GET", "/jobs/1", None).unwrap();
    assert_eq!(status, 404, "{body}");
    let (status, body) = http::call(&addr, "PUT", "/jobs", None).unwrap();
    assert_eq!(status, 405, "{body}");

    handle.shutdown();
}

/// A client connecting to `/jobs/{id}/events` mid-run sees the recorded
/// events replayed, then the live tail, and — once the stream closes —
/// holds the exact event set an unsharded run emits: one `Started`, every
/// grid point's `PointFinished` exactly once, one `Finished`.
#[test]
fn event_stream_replays_then_follows_live() {
    let spec = grid();
    let reference = spec.run().unwrap();

    // Short leases so the killed worker's shard frees up within the test.
    let server = Server::bind("127.0.0.1:0", Duration::from_millis(300)).unwrap();
    let addr = server.local_addr().to_string();
    let handle = server.spawn();

    let body = format!("{{\"shards\": 1, \"spec\": {}}}", spec.to_json());
    let (status, _) = http::call(&addr, "POST", "/jobs", Some(&body)).unwrap();
    assert_eq!(status, 201);

    // A worker that falls silent after one point leaves a partial event
    // log behind …
    let mut crash_config = WorkerConfig::new(addr.clone(), "crash");
    crash_config.poll = Duration::from_millis(50);
    crash_config.kill_after = Some(1);
    let crash = run_worker(&crash_config).unwrap();
    assert!(crash.killed);

    // … which a follower connecting *now* — mid-run — receives as replay
    // before the live events the surviving worker appends.
    let stream_addr = addr.clone();
    let follower = std::thread::spawn(move || {
        let mut lines = Vec::new();
        let status = http::stream_lines(stream_addr.as_str(), "/jobs/1/events", |line| {
            if !line.is_empty() {
                lines.push(line.to_string());
            }
            true
        })
        .unwrap();
        (status, lines)
    });

    let mut survivor_config = WorkerConfig::new(addr.clone(), "survivor");
    survivor_config.poll = Duration::from_millis(50);
    survivor_config.drain = true;
    let survivor = run_worker(&survivor_config).unwrap();
    assert!(survivor.shards.iter().all(|run| run.completed));

    // The stream closes itself once the job finishes.
    let (status, lines) = follower.join().unwrap();
    assert_eq!(status, 200);
    let events: Vec<CampaignEvent> = lines
        .iter()
        .map(|line| CampaignEvent::from_json(line).unwrap())
        .collect();
    assert_eq!(
        events.first(),
        Some(&CampaignEvent::Started {
            total: reference.outcomes.len()
        })
    );
    assert_eq!(events.last(), Some(&CampaignEvent::Finished));

    // Every grid point streamed exactly once — the replayed point was not
    // re-emitted when the survivor resumed the dead worker's shard — and
    // each payload equals the unsharded result (equality ignores the
    // non-fingerprinted wall-clock duration).
    let streamed: Vec<_> = events
        .iter()
        .filter_map(|event| match event {
            CampaignEvent::PointFinished(outcome) => Some(outcome),
            _ => None,
        })
        .collect();
    assert_eq!(streamed.len(), reference.outcomes.len());
    let streamed_keys: HashSet<PointKey> = streamed.iter().map(|o| o.key).collect();
    let reference_keys: HashSet<PointKey> = reference.outcomes.iter().map(|o| o.key).collect();
    assert_eq!(streamed_keys, reference_keys);
    for outcome in &streamed {
        let expected = reference
            .outcomes
            .iter()
            .find(|o| o.key == outcome.key)
            .unwrap();
        assert_eq!(**outcome, *expected);
    }

    // The fleet run surfaced on the Prometheus endpoint.
    let (status, metrics) = http::call(&addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    assert!(metrics.contains("queue_leases_granted_total"), "{metrics}");
    assert!(metrics.contains("queue_outcomes_folded_total"), "{metrics}");

    handle.shutdown();
}

/// A follower hanging up mid-stream must not wedge the service: the
/// stream handler notices the broken socket and returns, while the accept
/// loop and the fleet keep going.
#[test]
fn event_stream_disconnect_does_not_wedge_the_service() {
    let server = Server::bind("127.0.0.1:0", Duration::from_secs(30)).unwrap();
    let addr = server.local_addr().to_string();
    let handle = server.spawn();

    let body = format!("{{\"shards\": 1, \"spec\": {}}}", grid().to_json());
    let (status, _) = http::call(&addr, "POST", "/jobs", Some(&body)).unwrap();
    assert_eq!(status, 201);

    // Hang up after the first replayed line (the `Started` event).
    let status = http::stream_lines(addr.as_str(), "/jobs/1/events", |_| false).unwrap();
    assert_eq!(status, 200);

    // The service still answers …
    let (status, body) = http::call(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200, "{body}");

    // … and the job still runs to completion.
    let mut config = WorkerConfig::new(addr.clone(), "drainer");
    config.poll = Duration::from_millis(50);
    config.drain = true;
    run_worker(&config).unwrap();
    let (status, job) = http::call(&addr, "GET", "/jobs/1", None).unwrap();
    assert_eq!(status, 200);
    assert!(job.contains("\"state\":\"complete\""), "{job}");

    // Streaming an unknown job is a plain 404, not a wedged chunked
    // response.
    let status = http::stream_lines(addr.as_str(), "/jobs/999/events", |_| true).unwrap();
    assert_eq!(status, 404);

    handle.shutdown();
}

/// A deliberately slow worker is flagged as a straggler and — with
/// `--speculate` — its shard re-leased to the idle fast worker, yet the
/// merged report stays byte-identical to the unsharded run (folding is
/// idempotent first-wins). The metric history meanwhile records the
/// straggler counters under strictly increasing timestamps.
#[test]
fn speculative_re_lease_is_byte_identical_and_lands_in_history() {
    let spec = grid();
    let reference = spec.run().unwrap();

    // Long leases: the shard must move by *speculation*, never by lease
    // expiry. An aggressive straggler policy and a fast sampler keep the
    // test short.
    let options = ServerOptions {
        lease: Duration::from_secs(30),
        straggler: StragglerPolicy {
            multiple: 1.5,
            min_samples: 1,
            speculate: true,
        },
        history_path: None,
        history_interval: Duration::from_millis(20),
        history_cap: 4096,
    };
    let server = Server::bind_with("127.0.0.1:0", options).unwrap();
    let addr = server.local_addr().to_string();
    let handle = server.spawn();

    let body = format!("{{\"shards\": 2, \"spec\": {}}}", spec.to_json());
    let (status, _) = http::call(&addr, "POST", "/jobs", Some(&body)).unwrap();
    assert_eq!(status, 201);

    // The tortoise dawdles a full second after each point, so its shard's
    // lease age dwarfs the expected duration long before it finishes.
    let tortoise_addr = addr.clone();
    let tortoise = std::thread::spawn(move || {
        let mut config = WorkerConfig::new(tortoise_addr, "tortoise");
        config.poll = Duration::from_millis(50);
        config.drain = true;
        config.slow_point = Some(Duration::from_secs(1));
        run_worker(&config).unwrap()
    });
    // Wait until the tortoise actually holds a lease before starting the
    // hare, so the shard assignment is deterministic.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, job) = http::call(&addr, "GET", "/jobs/1", None).unwrap();
        assert_eq!(status, 200);
        if job.contains("tortoise") {
            break;
        }
        assert!(Instant::now() < deadline, "tortoise never leased: {job}");
        std::thread::sleep(Duration::from_millis(10));
    }

    // The hare finishes its own shard fast (seeding the wall-time
    // samples the straggler estimate needs), then keeps polling until the
    // flagged shard is speculatively re-leased to it.
    let mut config = WorkerConfig::new(addr.clone(), "hare");
    config.poll = Duration::from_millis(25);
    config.drain = true;
    let hare = run_worker(&config).unwrap();
    assert!(!hare.killed);
    let tortoise_summary = tortoise.join().unwrap();
    assert!(!tortoise_summary.killed);

    // Speculation happened: the trace shows a speculative lease span and
    // a straggler flag on the tortoise's shard.
    let (status, trace) = http::call(&addr, "GET", "/jobs/1/trace", None).unwrap();
    assert_eq!(status, 200);
    assert!(trace.contains("\"speculative\":\"true\""), "{trace}");
    assert!(trace.contains("\"straggler\""), "{trace}");

    // The race's outcome is irrelevant to the data: the merged report is
    // byte-identical to the unsharded reference either way.
    let (status, report_json) = http::call(&addr, "GET", "/jobs/1/report", None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(report_json, format!("{}\n", reference.to_json()));

    // The sampler recorded the straggler counters under strictly
    // increasing timestamps.
    let (status, history) =
        http::call(&addr, "GET", "/metrics/history?family=queue", None).unwrap();
    assert_eq!(status, 200);
    let mut last_t: Option<u64> = None;
    let mut flagged_max = 0.0f64;
    let mut speculative_max = 0.0f64;
    for line in history.lines().filter(|l| !l.is_empty()) {
        let sample = Json::parse(line).unwrap_or_else(|e| panic!("bad sample {line:?}: {e}"));
        let t_ms = sample.get("t_ms").and_then(Json::as_u64).unwrap();
        assert!(last_t.is_none_or(|last| t_ms > last), "{history}");
        last_t = Some(t_ms);
        let counter = |name: &str| {
            sample
                .get("values")
                .and_then(|v| v.get(name))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        flagged_max = flagged_max.max(counter("queue_stragglers_flagged_total"));
        speculative_max = speculative_max.max(counter("queue_speculative_leases_total"));
    }
    assert!(last_t.is_some(), "history is empty");
    assert!(flagged_max >= 1.0, "{history}");
    assert!(speculative_max >= 1.0, "{history}");

    handle.shutdown();
}

/// The drain path must not hang when the queue was never populated.
#[test]
fn draining_worker_exits_on_empty_queue() {
    let server = Server::bind("127.0.0.1:0", Duration::from_secs(30)).unwrap();
    let addr = server.local_addr().to_string();
    let handle = server.spawn();

    let mut config = WorkerConfig::new(addr, "drainer");
    config.drain = true;
    let started = Instant::now();
    let summary = run_worker(&config).unwrap();
    assert!(summary.shards.is_empty());
    assert!(started.elapsed() < Duration::from_secs(10));
    handle.shutdown();
}

/// Grids too large to expand are refused at submission with a 400, so a
/// hostile `POST /jobs` can neither abort the daemon nor poison its queue
/// lock, and the service keeps running jobs afterwards.
#[test]
fn hostile_grids_get_a_400_and_the_daemon_keeps_serving() {
    let server = Server::bind("127.0.0.1:0", Duration::from_secs(30)).unwrap();
    let addr = server.local_addr().to_string();
    let handle = server.spawn();

    let values = format!(
        "[{}]",
        (1..=64)
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(",")
    );
    let overflowing = format!(
        r#"{{"trials": 4000000000, "amplitudes_v": {values}, "pulse_lengths_ns": {values},
            "spacings_nm": {values}, "ambients_k": {values}, "spread_scales": {values},
            "duty_cycles": [0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1]}}"#
    );
    for spec in [
        r#"{"trials": 4000000000}"#,
        overflowing.as_str(),
        r#"{"array_sizes": [[2, 1000000000]]}"#,
        // Couplings whose points would report a NaN ΔT or fail their field
        // solve in every worker that leases them.
        r#"{"coupling": {"kind": "uniform", "nearest": -5}}"#,
        r#"{"coupling": {"kind": "fem", "voxel_nm": 0}}"#,
        r#"{"coupling": {"kind": "fem", "voxel_nm": 25}, "spacings_nm": [10]}"#,
    ] {
        let body = format!("{{\"spec\": {spec}}}");
        let (status, reply) = http::call(&addr, "POST", "/jobs", Some(&body)).unwrap();
        assert_eq!(status, 400, "{reply}");
        let (status, reply) = http::call(&addr, "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200, "{reply}");
    }

    let spec = CampaignSpec {
        name: "after the hostile grids".into(),
        max_pulses: 2_000,
        batching: false,
        threads: 1,
        ..CampaignSpec::default()
    };
    let body = format!("{{\"spec\": {}}}", spec.to_json());
    let (status, created) = http::call(&addr, "POST", "/jobs", Some(&body)).unwrap();
    assert_eq!(status, 201, "{created}");
    let mut config = WorkerConfig::new(addr.clone(), "after");
    config.poll = Duration::from_millis(50);
    config.drain = true;
    let summary = run_worker(&config).unwrap();
    assert!(summary.shards.iter().all(|run| run.completed));
    let (status, job) = http::call(&addr, "GET", "/jobs/1", None).unwrap();
    assert_eq!(status, 200);
    assert!(job.contains("\"state\":\"complete\""), "{job}");
    let (status, report) = http::call(&addr, "GET", "/jobs/1/report", None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(report, format!("{}\n", spec.run().unwrap().to_json()));
    handle.shutdown();
}
