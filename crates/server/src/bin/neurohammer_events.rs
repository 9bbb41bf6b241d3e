//! Follows a campaign job's event stream — or the whole fleet — from a
//! `neurohammer-server`.
//!
//! ```text
//! neurohammer-events --job <id> [--server 127.0.0.1:7171]
//!                    [--tui] [--axis pulse-length]
//! neurohammer-events --fleet [--server 127.0.0.1:7171]
//!                    [--poll-ms 1000] [--once]
//! ```
//!
//! **Job mode** connects to `GET /jobs/{id}/events`: the server first
//! replays every [`CampaignEvent`] the job has recorded so far (one JSON
//! object per line, the checkpoint wire format) and then streams live
//! events as the fleet folds new points, closing the stream when the job
//! finishes. By default each line is echoed verbatim to stdout — pipe it
//! to a file and it *is* a valid checkpoint replay. With `--tui` the same
//! stream drives the live ANSI dashboard the figure binaries render
//! locally, so a sharded fleet run can be watched from any machine that
//! can reach the server; `--axis` picks the sweep axis the dashboard
//! groups series by (default `pulse-length`).
//!
//! **Fleet mode** (`--fleet`) polls `GET /jobs` and
//! `GET /metrics/history?family=queue` instead: every job's shard map
//! becomes a fleet status line and the sampled queue counters become
//! sparkline trends (points folded per second, stragglers flagged,
//! speculative leases). On a terminal the dashboard redraws in place;
//! piped, each poll prints one plain frame to stdout (`--once` polls a
//! single time and exits — the CI smoke jobs use that).

use std::io::IsTerminal;
use std::time::{Duration, Instant};

use neurohammer::campaign::json::Json;
use neurohammer::campaign::{CampaignAxis, CampaignEvent};
use neurohammer_bench::observe::{terminal_width, TuiDriver};
use rram_analysis::tui::{Dashboard, TuiEvent};
use rram_server::cli::{flag_present, flag_u64, flag_value};
use rram_server::http::{call, stream_lines};

/// Maps the `--axis` flag to a dashboard grouping axis; an unknown name
/// lists every axis and exits with status 2.
fn axis_from_flag() -> CampaignAxis {
    let Some(name) = flag_value("--axis") else {
        return CampaignAxis::PulseLength;
    };
    CampaignAxis::from_flag(&name).unwrap_or_else(|| {
        let names: Vec<&str> = CampaignAxis::ALL.iter().map(|axis| axis.flag()).collect();
        eprintln!(
            "--axis {name:?} is not a campaign axis; choose one of: {}",
            names.join(", ")
        );
        std::process::exit(2);
    })
}

/// One fleet status line per job: state, progress, stragglers, shard map.
fn job_lines(jobs: &Json) -> Vec<String> {
    let Some(jobs) = jobs.get("jobs").and_then(Json::as_array) else {
        return vec!["(malformed /jobs response)".into()];
    };
    if jobs.is_empty() {
        return vec!["no jobs submitted yet".into()];
    }
    jobs.iter()
        .map(|job| {
            let text = |key: &str| {
                job.get(key)
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string()
            };
            let count = |key: &str| job.get(key).and_then(Json::as_u64).unwrap_or(0);
            let shards: Vec<String> = job
                .get("shards")
                .and_then(Json::as_array)
                .unwrap_or(&[])
                .iter()
                .map(|shard| {
                    let id = shard.get("shard").and_then(Json::as_str).unwrap_or("?");
                    match shard.get("worker").and_then(Json::as_str) {
                        Some(worker) => format!("{id}:{worker}"),
                        None => format!(
                            "{id}:{}",
                            shard.get("state").and_then(Json::as_str).unwrap_or("?")
                        ),
                    }
                })
                .collect();
            let mut line = format!(
                "job {} {} · {} · {}/{} points",
                count("id"),
                text("name"),
                text("state"),
                count("points_done"),
                count("points_total"),
            );
            let stragglers = count("stragglers");
            if stragglers > 0 {
                line.push_str(&format!(" · {stragglers} straggling"));
            }
            line.push_str(&format!(" · {}", shards.join(" ")));
            line
        })
        .collect()
}

/// Extracts one counter's `(t_ms, value)` trajectory from the JSONL
/// history body.
fn history_series(body: &str, name: &str) -> Vec<(u64, f64)> {
    body.lines()
        .filter(|line| !line.is_empty())
        .filter_map(|line| {
            let sample = Json::parse(line).ok()?;
            let t_ms = sample.get("t_ms").and_then(Json::as_u64)?;
            let value = sample.get("values")?.get(name).and_then(Json::as_f64)?;
            Some((t_ms, value))
        })
        .collect()
}

/// Differentiates a cumulative counter into a per-second rate series.
fn rates(points: &[(u64, f64)]) -> Vec<f64> {
    points
        .windows(2)
        .filter_map(|pair| {
            let dt_ms = pair[1].0.saturating_sub(pair[0].0);
            if dt_ms == 0 {
                return None;
            }
            Some((pair[1].1 - pair[0].1).max(0.0) / (dt_ms as f64 / 1000.0))
        })
        .collect()
}

/// The `--fleet` dashboard loop; returns the process exit code.
fn follow_fleet(server: &str) -> i32 {
    let poll = Duration::from_millis(flag_u64("--poll-ms").unwrap_or(1000));
    let once = flag_present("--once");
    let in_place = std::io::stderr().is_terminal();
    let mut dash = Dashboard::new(format!("fleet @ {server}"));
    let started = Instant::now();
    loop {
        let (status, jobs) = match call(server, "GET", "/jobs", None) {
            Ok(reply) => reply,
            Err(e) => {
                eprintln!("cannot poll {server}/jobs: {e}");
                return 1;
            }
        };
        if status != 200 {
            eprintln!("{server}/jobs returned status {status}");
            return 1;
        }
        let lines = match Json::parse(&jobs) {
            Ok(parsed) => job_lines(&parsed),
            Err(e) => vec![format!("(malformed /jobs response: {e})")],
        };
        dash.on_event(&TuiEvent::Status(lines));

        if let Ok((200, history)) = call(server, "GET", "/metrics/history?family=queue", None) {
            let folded = history_series(&history, "queue_outcomes_folded_total");
            for (label, values) in [
                ("points folded/s", rates(&folded)),
                (
                    "stragglers flagged",
                    history_series(&history, "queue_stragglers_flagged_total")
                        .iter()
                        .map(|&(_, v)| v)
                        .collect(),
                ),
                (
                    "speculative leases",
                    history_series(&history, "queue_speculative_leases_total")
                        .iter()
                        .map(|&(_, v)| v)
                        .collect(),
                ),
            ] {
                if !values.is_empty() {
                    dash.on_event(&TuiEvent::Trend {
                        name: label.into(),
                        values,
                    });
                }
            }
        }

        let elapsed = started.elapsed().as_secs_f64();
        if in_place {
            eprint!("{}", dash.ansi_frame(terminal_width(), elapsed));
        } else {
            print!("{}", dash.frame(terminal_width(), elapsed));
        }
        if once {
            return 0;
        }
        std::thread::sleep(poll);
    }
}

fn main() {
    let server = flag_value("--server").unwrap_or_else(|| "127.0.0.1:7171".into());
    if flag_present("--fleet") {
        std::process::exit(follow_fleet(&server));
    }
    let job = flag_u64("--job").unwrap_or_else(|| panic!("--job <id> or --fleet is required"));
    let axis = axis_from_flag();

    let mut tui = TuiDriver::from_flags(&format!("job {job}"), axis);
    let path = format!("/jobs/{job}/events");
    let status = stream_lines(server.as_str(), &path, |line| {
        if line.is_empty() {
            return true;
        }
        match tui.as_mut() {
            Some(driver) => {
                let event = CampaignEvent::from_json(line)
                    .unwrap_or_else(|e| panic!("malformed event line {line:?}: {e}"));
                driver.observe(&event);
            }
            None => println!("{line}"),
        }
        true
    })
    .unwrap_or_else(|e| panic!("event stream from {server} failed: {e}"));

    if status != 200 {
        eprintln!("server returned status {status} for {path} (unknown job id?)");
        std::process::exit(1);
    }
    if let Some(driver) = tui {
        driver.finish();
    }
}
