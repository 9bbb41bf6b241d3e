//! Shared helpers for the figure-regeneration binaries and Criterion
//! benchmarks of the NeuroHammer reproduction.
//!
//! Each binary in `src/bin/` regenerates one table/figure of the paper and
//! prints it as a plain-text table plus a log-scale ASCII chart. The sweep
//! binaries are driven by declarative [`CampaignSpec`]s: each builds its
//! default grid, optionally replaced by `--campaign <spec.json>` (so a
//! figure can be re-run with a different grid without recompiling), runs it
//! in parallel and renders the resulting [`CampaignReport`].
//!
//! Campaigns execute through the streaming
//! [`neurohammer::campaign::CampaignExecutor`] (see
//! [`run_figure_campaign`]): points are reported on a live progress line as
//! they finish, optionally checkpointed to disk, and the grid can be split
//! across processes/machines with `--shard` and recombined with `--merge`.
//!
//! Common flags understood by all binaries:
//!
//! * `--quick` (or the `NEUROHAMMER_QUICK` environment variable) — synthetic
//!   coupling coefficients and smaller budgets, for CI-grade runs;
//! * `--campaign <path>` — load the campaign grid from a JSON spec file;
//! * `--csv` — additionally print the raw campaign results as CSV;
//! * `--spec` — print the executed campaign spec as JSON (for archiving);
//! * `--shard <i/n>` — run only every `n`-th grid point starting at `i`
//!   (round-robin), for splitting a grid across processes or machines;
//! * `--checkpoint <path>` — append each finished point to a JSONL file as
//!   it completes, so an interrupted run keeps its progress;
//! * `--resume` — replay the outcomes already recorded in the
//!   `--checkpoint` file instead of re-running them;
//! * `--merge <path>...` — skip execution entirely: read the given
//!   checkpoint files, merge them (de-duplicating by point key, restoring
//!   grid order) and render the combined report;
//! * `--alpha-cache <dir>` — persist FEM α-matrix extractions to a
//!   versioned on-disk cache in `<dir>`, so repeated campaign *processes*
//!   skip the field solve (defaults to the `--checkpoint` directory when
//!   checkpointing);
//! * `--tui` — redraw a live ANSI dashboard (per-series sweep sparklines,
//!   defence Pareto front, throughput) on stderr as points finish; needs
//!   stderr to be a terminal;
//! * `--html <path>` — additionally export the finished report as one
//!   self-contained HTML file (inline SVG charts, campaign fingerprint,
//!   deterministic telemetry snapshot), byte-reproducible per spec at any
//!   thread count.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod observe;
pub mod worker;

use std::path::PathBuf;

use neurohammer::campaign::{read_checkpoint, CampaignAxis, CampaignReport, CampaignSpec, Shard};
use neurohammer::SweepSeries;
use rram_analysis::ascii_plot::log_bar_chart;
use rram_analysis::{Report, Table};

/// Base campaign grid shared by the figure binaries: the paper's 5×5 array,
/// single-aggressor pattern, V_SET amplitude, 50 nm spacing and 300 K — with
/// FEM-extracted coupling at full fidelity, or synthetic coupling and a
/// smaller budget in quick mode. Pulse batching keeps the multi-point
/// sweeps tractable; the ablation binary quantifies its (small) bias
/// against exact pulse-by-pulse simulation.
///
/// `quick` is set by the `--quick` flag or the `NEUROHAMMER_QUICK`
/// environment variable ([`quick_requested`]).
pub fn figure_campaign(quick: bool) -> CampaignSpec {
    if quick {
        CampaignSpec {
            coupling: neurohammer::CouplingSpec::Uniform { nearest: 0.15 },
            max_pulses: 1_500_000,
            batching: true,
            ..CampaignSpec::default()
        }
    } else {
        CampaignSpec {
            coupling: neurohammer::CouplingSpec::Fem { voxel_nm: 10.0 },
            max_pulses: 3_000_000,
            batching: true,
            ..CampaignSpec::default()
        }
    }
}

/// Reads the `--quick` flag / `NEUROHAMMER_QUICK` environment variable.
pub fn quick_requested() -> bool {
    std::env::args().any(|a| a == "--quick") || std::env::var_os("NEUROHAMMER_QUICK").is_some()
}

/// Reads the `--csv` flag.
pub fn csv_requested() -> bool {
    std::env::args().any(|a| a == "--csv")
}

/// Reads the `--spec` flag.
pub fn spec_requested() -> bool {
    std::env::args().any(|a| a == "--spec")
}

/// Reads the `--json` flag: the figure binaries print the full campaign
/// report as JSON instead of the rendered figure. Every float is bit-exact
/// in that form, so the CI reproducibility smoke jobs diff two such runs
/// and demand an empty diff.
pub fn json_requested() -> bool {
    std::env::args().any(|a| a == "--json")
}

/// Prints the bit-exact campaign-report JSON and returns `true` when
/// `--json` was passed; the figure binaries early-return on it instead of
/// rendering their figure.
pub fn maybe_print_report_json(report: &CampaignReport) -> bool {
    if json_requested() {
        println!("{}", report.to_json());
        return true;
    }
    false
}

/// Returns the value following `flag`, rejecting a missing value or one
/// that is itself a `--flag` token (a forgotten argument).
pub(crate) fn flag_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let flag_index = args.iter().position(|a| a == flag)?;
    let value = args
        .get(flag_index + 1)
        .filter(|value| !value.starts_with("--"))
        .unwrap_or_else(|| panic!("{flag} requires a value argument"));
    Some(value.clone())
}

/// Reads the `--shard i/n` flag.
///
/// # Panics
///
/// Panics when the selector is missing, malformed or out of range (these
/// binaries are command-line tools).
pub fn shard_requested() -> Option<Shard> {
    let selector = flag_value("--shard")?;
    Some(Shard::parse(&selector).unwrap_or_else(|e| panic!("invalid --shard {selector:?}: {e}")))
}

/// Reads the `--checkpoint <path>` flag.
///
/// # Panics
///
/// Panics when the flag has no path argument.
pub fn checkpoint_requested() -> Option<PathBuf> {
    flag_value("--checkpoint").map(PathBuf::from)
}

/// Reads the `--alpha-cache <dir>` flag: the directory of the on-disk
/// α-matrix cache. When absent but `--checkpoint` is given, the cache
/// lives next to the checkpoint file, so a resumed FEM campaign skips its
/// field solves along with its finished points.
///
/// # Panics
///
/// Panics when the flag has no directory argument.
pub fn alpha_cache_requested() -> Option<PathBuf> {
    flag_value("--alpha-cache").map(PathBuf::from).or_else(|| {
        checkpoint_requested().map(|checkpoint| {
            checkpoint
                .parent()
                .filter(|dir| !dir.as_os_str().is_empty())
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from("."))
        })
    })
}

/// Reads the `--resume` flag.
pub fn resume_requested() -> bool {
    std::env::args().any(|a| a == "--resume")
}

/// Reads the `--merge <path>...` flag: every argument following `--merge`
/// up to the next `--flag` is a checkpoint file to combine. `None` when the
/// flag is absent.
///
/// # Panics
///
/// Panics when `--merge` is present with no paths (a forgotten argument
/// must not silently fall through to a full, possibly hours-long run).
pub fn merge_requested() -> Option<Vec<PathBuf>> {
    let args: Vec<String> = std::env::args().collect();
    let flag_index = args.iter().position(|a| a == "--merge")?;
    let paths: Vec<PathBuf> = args[flag_index + 1..]
        .iter()
        .take_while(|a| !a.starts_with("--"))
        .map(PathBuf::from)
        .collect();
    assert!(
        !paths.is_empty(),
        "--merge requires at least one checkpoint path"
    );
    Some(paths)
}

/// Executes a figure campaign through the streaming executor, honouring the
/// `--shard`, `--checkpoint`, `--resume`, `--merge`, `--tui` and `--html`
/// flags, and renders a live progress line on stderr as points finish.
/// `axis` names the sweep the figure slices its series over — the live
/// `--tui` dashboard and the `--html` export group by it.
///
/// With `--merge <path>...` nothing is executed: the checkpoint files are
/// read, de-duplicated by point key and re-sorted into grid order, so a
/// merged report covering the full grid (and its CSV) is byte-identical to
/// an unsharded run. Outcomes that do not belong to this binary's grid are
/// rejected, and an incomplete merge (a forgotten shard file) renders with
/// a loud warning. Without `--resume`, `--checkpoint` starts the file from
/// scratch; with it, recovered points replay and the file is appended.
///
/// # Panics
///
/// Panics on an invalid spec, an unreadable or foreign checkpoint, or an
/// execution failure (these binaries are command-line tools).
pub fn run_figure_campaign(spec: CampaignSpec, axis: CampaignAxis) -> CampaignReport {
    if let Some(merge) = merge_requested() {
        let report = worker::merge_checkpoints(&spec, &merge)
            .unwrap_or_else(|e| panic!("cannot merge checkpoints: {e}"));
        observe::maybe_write_html(&spec.name.clone(), &spec, &report, axis);
        return report;
    }

    let checkpoint = checkpoint_requested();
    let resume = resume_requested();
    let mut recovered = Vec::new();
    if resume {
        let path = checkpoint
            .as_ref()
            .expect("--resume requires --checkpoint <path>");
        if path.exists() {
            recovered = read_checkpoint(path)
                .unwrap_or_else(|e| panic!("cannot read checkpoint {path:?}: {e}"));
        }
    }
    // A fresh (non-resume) run starts its checkpoint from scratch so stale
    // outcomes from an earlier run cannot shadow the new ones on later
    // reads; a resumed run appends (the reader de-duplicates by key).
    let mut tui = observe::TuiDriver::from_flags(&spec.name, axis);
    let options = worker::RunOptions {
        shard: shard_requested().unwrap_or_default(),
        resume: recovered,
        checkpoint: checkpoint.map(|path| worker::CheckpointSink {
            path,
            append: resume,
        }),
        alpha_cache: alpha_cache_requested(),
        // The dashboard owns the terminal while --tui is active; the plain
        // progress line would fight its in-place redraw.
        progress: tui.is_none(),
    };
    let report = worker::execute_shard(spec.clone(), options, |event| {
        if let Some(driver) = tui.as_mut() {
            driver.observe(event);
        }
    })
    .unwrap_or_else(|e| panic!("campaign failed: {e}"));
    if let Some(driver) = tui {
        driver.finish();
    }
    observe::maybe_write_html(&spec.name, &spec, &report, axis);
    report
}

/// Returns the campaign spec from `--campaign <path>` when given, otherwise
/// the binary's `default_spec`. Parse/IO failures abort with a message (these
/// binaries are command-line tools).
///
/// # Panics
///
/// Panics when the spec file cannot be read or parsed, or when `--campaign`
/// has no path argument.
pub fn resolve_campaign(default_spec: CampaignSpec) -> CampaignSpec {
    let args: Vec<String> = std::env::args().collect();
    let Some(flag_index) = args.iter().position(|a| a == "--campaign") else {
        return default_spec;
    };
    let path = args
        .get(flag_index + 1)
        .expect("--campaign requires a path argument");
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read campaign spec {path:?}: {e}"));
    CampaignSpec::from_json(&text)
        .unwrap_or_else(|e| panic!("cannot parse campaign spec {path:?}: {e}"))
}

/// Renders a campaign report as the standard figure output: one section per
/// series over `axis` (a table plus a log-scale pulse-count chart), honouring
/// the `--csv` flag.
pub fn campaign_figure(title: &str, report: &CampaignReport, axis: CampaignAxis) -> Report {
    let mut rendered = Report::new(title);
    for series in report.series_over(axis) {
        rendered.section(&series.name);
        rendered.push(series_table(&series, "parameter").to_string());
        let bars: Vec<(String, f64)> = series
            .points
            .iter()
            .filter_map(|p| p.pulses.map(|n| (p.label.clone(), n as f64)))
            .collect();
        if let Some(chart) = log_bar_chart(&bars, 50) {
            rendered.push(chart);
        }
    }
    if csv_requested() {
        rendered.section("CSV");
        rendered.push(report.to_csv_string());
    }
    rendered
}

/// Prints the executed spec as JSON when `--spec` was passed.
pub fn maybe_print_spec(spec: &CampaignSpec) {
    if spec_requested() {
        println!("\n## Campaign spec\n{}", spec.to_json());
    }
}

/// Formats a sweep series as a table with one row per point.
pub fn series_table(series: &SweepSeries, parameter_name: &str) -> Table {
    let mut table = Table::with_headers(&[parameter_name, "# pulses to trigger a bit-flip"]);
    for point in &series.points {
        let pulses = point
            .pulses
            .map(|p| p.to_string())
            .unwrap_or_else(|| "no flip within budget".to_string());
        table.push_row(vec![point.label.clone(), pulses]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurohammer::SweepPoint;

    fn series() -> SweepSeries {
        SweepSeries {
            name: "demo".into(),
            points: vec![
                SweepPoint {
                    parameter: 10.0,
                    label: "10 ns".into(),
                    pulses: Some(30_000),
                    flipped: true,
                },
                SweepPoint {
                    parameter: 100.0,
                    label: "100 ns".into(),
                    pulses: None,
                    flipped: false,
                },
            ],
        }
    }

    #[test]
    fn series_table_includes_budget_misses() {
        let table = series_table(&series(), "pulse length");
        let text = table.to_string();
        assert!(text.contains("30000"));
        assert!(text.contains("no flip within budget"));
    }

    #[test]
    fn quick_campaign_uses_synthetic_coupling() {
        assert!(matches!(
            figure_campaign(true).coupling,
            neurohammer::CouplingSpec::Uniform { .. }
        ));
        assert!(matches!(
            figure_campaign(false).coupling,
            neurohammer::CouplingSpec::Fem { .. }
        ));
    }
}
