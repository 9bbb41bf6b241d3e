//! A fleet worker for the campaign service.
//!
//! ```text
//! neurohammer-worker [--server 127.0.0.1:7171] [--name w0] [--poll-ms 500]
//!                    [--drain] [--alpha-cache <dir>] [--kill-after <n>]
//!                    [--slow-ms <ms>]
//! ```
//!
//! Leases shards from a `neurohammer-server`, executes them through the
//! shared figure-binary runner, and streams results back. `--drain`
//! exits once the server reports no outstanding jobs (for batch fleets);
//! without it the worker polls forever. `--kill-after <n>` is fault
//! injection for the CI smoke job: the worker falls silent — no results,
//! no heartbeats — after streaming its n-th point, exactly like a
//! `SIGKILL` mid-grid, and exits with status 2. Any other error (an
//! unreachable server, a 4xx reply from `/lease` or `/results`) is printed
//! to stderr and exits with status 1. `--slow-ms <ms>` is the
//! straggler fault injection for the speculation smoke job: the worker
//! dawdles that long after each streamed point (while dutifully
//! heartbeating), so the server's straggler detector has something real
//! to flag.

use std::time::Duration;

use rram_server::cli::{flag_present, flag_u64, flag_value};
use rram_server::{run_worker, WorkerConfig};

fn main() {
    let config = WorkerConfig {
        server: flag_value("--server").unwrap_or_else(|| "127.0.0.1:7171".into()),
        name: flag_value("--name").unwrap_or_else(|| format!("worker-{}", std::process::id())),
        poll: Duration::from_millis(flag_u64("--poll-ms").unwrap_or(500)),
        drain: flag_present("--drain"),
        kill_after: flag_u64("--kill-after"),
        slow_point: flag_u64("--slow-ms").map(Duration::from_millis),
        alpha_cache: flag_value("--alpha-cache").map(Into::into),
        progress: true,
    };
    let summary = match run_worker(&config) {
        Ok(summary) => summary,
        Err(e) => {
            eprintln!("worker {:?}: {e}", config.name);
            std::process::exit(1);
        }
    };
    for run in &summary.shards {
        eprintln!(
            "worker {:?}: job {} shard {}: {} executed, {} replayed, completed={}",
            config.name,
            run.job,
            run.shard,
            run.executed.len(),
            run.replayed,
            run.completed
        );
    }
    if summary.killed {
        eprintln!(
            "worker {:?}: killed by --kill-after fault injection",
            config.name
        );
        std::process::exit(2);
    }
}
