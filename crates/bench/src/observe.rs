//! The `--tui` and `--html` observability modes of the figure binaries.
//!
//! This module is the translation layer between campaign types and the
//! campaign-agnostic renderers in `rram_analysis`:
//!
//! * [`TuiDriver`] folds live [`CampaignEvent`]s into a
//!   [`Dashboard`] and redraws it in place
//!   on stderr. `--tui` demands a terminal — on a pipe the ANSI redraw
//!   would shred the log, so the flag refuses loudly instead.
//! * [`render_html`] exports a finished [`CampaignReport`] as one
//!   self-contained HTML file: inline SVG sweep charts, the numeric
//!   tables, the campaign fingerprint and the deterministic telemetry
//!   snapshot. Identical reports export byte-identical files, at any
//!   thread count (the `report-smoke` CI job diffs two runs, and
//!   `defense-smoke` a one- and a two-thread run).

use std::io::{IsTerminal, Write};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use neurohammer::campaign::{
    CampaignAxis, CampaignEvent, CampaignOutcome, CampaignReport, CampaignSpec,
};
use rram_analysis::html::{svg_chart, HtmlReport, SvgSeries};
use rram_analysis::tui::{Dashboard, TuiEvent, TuiPoint};
use rram_telemetry::{Registry, SnapshotMode};

/// Reads the `--tui` flag.
pub fn tui_requested() -> bool {
    std::env::args().any(|a| a == "--tui")
}

/// Reads the `--html <path>` flag: where to write the self-contained
/// HTML report.
///
/// # Panics
///
/// Panics when the flag has no path argument.
pub fn html_requested() -> Option<PathBuf> {
    crate::flag_value("--html").map(PathBuf::from)
}

/// Translates one finished outcome for the dashboard: series grouped the
/// same way the final figure slices them ([`CampaignPoint::series_key`]
/// over `axis`), defence points carrying their Pareto coordinates.
///
/// [`CampaignPoint::series_key`]: neurohammer::campaign::CampaignPoint::series_key
pub fn tui_point(outcome: &CampaignOutcome, axis: CampaignAxis) -> TuiPoint {
    TuiPoint {
        series: outcome.point.series_key(axis),
        x: outcome.point.axis_value(axis),
        label: outcome.point.axis_label(axis),
        pulses: outcome.flipped.then_some(outcome.pulses),
        flipped: outcome.flipped,
        pareto: outcome.defense.map(|defense| {
            (
                outcome.point.guard.label(),
                defense.protection(),
                defense.overhead_fraction,
            )
        }),
        wall_ns: outcome.wall_ns,
    }
}

/// Translates one campaign event for the dashboard.
pub fn tui_event(event: &CampaignEvent, axis: CampaignAxis) -> TuiEvent {
    match event {
        CampaignEvent::Started { total } => TuiEvent::Started { total: *total },
        CampaignEvent::PointFinished(outcome) => TuiEvent::Point(tui_point(outcome, axis)),
        CampaignEvent::Finished => TuiEvent::Finished,
    }
}

/// Drives the live dashboard from a stream of campaign events.
pub struct TuiDriver {
    dashboard: Dashboard,
    axis: CampaignAxis,
    started: Instant,
    last_draw: Option<Instant>,
    width_probed: Option<(Instant, usize)>,
    rate_trend: Vec<f64>,
}

/// Width used when every probe fails (`$COLUMNS` unset, no `stty`).
const TUI_FALLBACK_WIDTH: usize = 100;

/// Minimum delay between redraws, so sub-millisecond points do not spend
/// the run repainting.
const TUI_REDRAW: Duration = Duration::from_millis(100);

/// How long a probed terminal width stays fresh. Re-probing every frame
/// would fork `stty` hundreds of times a second; half a second tracks
/// window resizes closely enough for a dashboard.
const TUI_WIDTH_REFRESH: Duration = Duration::from_millis(500);

/// Samples kept in the live points/s trend sparkline.
const TUI_TREND_SAMPLES: usize = 60;

/// Parses a `$COLUMNS`-style value: a positive decimal column count.
fn columns_width(value: Option<&str>) -> Option<usize> {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// Asks `stty` for the size of the terminal behind **stderr** (the fd
/// the dashboard draws on — stdin/stdout may well be redirected).
fn stty_width() -> Option<usize> {
    // BSD/macOS stty spells the device flag `-f`; GNU coreutils `-F`.
    let device_flag = if cfg!(target_os = "macos") {
        "-f"
    } else {
        "-F"
    };
    let output = std::process::Command::new("stty")
        .args([device_flag, "/dev/stderr", "size"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !output.status.success() {
        return None;
    }
    // `stty size` prints "rows cols".
    let text = String::from_utf8(output.stdout).ok()?;
    columns_width(text.split_whitespace().nth(1))
}

/// Probes the current terminal width: `$COLUMNS` when exported, else
/// `stty size` against stderr, else a 100-column fallback. The TUI
/// re-queries this every frame (cached for half a second), so resizing
/// the window reflows the dashboard instead of wrapping it.
pub fn terminal_width() -> usize {
    columns_width(std::env::var("COLUMNS").ok().as_deref())
        .or_else(stty_width)
        .unwrap_or(TUI_FALLBACK_WIDTH)
}

impl TuiDriver {
    /// A driver titled `title`, slicing series over `axis`.
    pub fn new(title: impl Into<String>, axis: CampaignAxis) -> TuiDriver {
        TuiDriver {
            dashboard: Dashboard::new(title),
            axis,
            started: Instant::now(),
            last_draw: None,
            width_probed: None,
            rate_trend: Vec::new(),
        }
    }

    /// Builds a driver when `--tui` was passed. Exits with a clear
    /// message when stderr is not a terminal: the in-place ANSI redraw is
    /// meaningless in a pipe or a CI log (use the plain progress line, or
    /// `--html` for an artifact, instead).
    pub fn from_flags(title: &str, axis: CampaignAxis) -> Option<TuiDriver> {
        if !tui_requested() {
            return None;
        }
        if !std::io::stderr().is_terminal() {
            eprintln!(
                "--tui needs stderr to be a terminal (the dashboard redraws in place \
                 with ANSI escapes); run without --tui for plain progress, or use \
                 --html <path> for a CI-friendly artifact"
            );
            std::process::exit(2);
        }
        Some(TuiDriver::new(title, axis))
    }

    /// Folds one event in and redraws (rate-limited; `Started`/`Finished`
    /// always repaint).
    pub fn observe(&mut self, event: &CampaignEvent) {
        self.dashboard.on_event(&tui_event(event, self.axis));
        let force = !matches!(event, CampaignEvent::PointFinished(_));
        self.draw(force);
    }

    /// Replaces the fleet status lines (the remote follower reports shard
    /// and worker states here) and redraws.
    pub fn status(&mut self, lines: Vec<String>) {
        self.dashboard.on_event(&TuiEvent::Status(lines));
        self.draw(false);
    }

    fn draw(&mut self, force: bool) {
        let now = Instant::now();
        if !force && self.last_draw.is_some_and(|last| now - last < TUI_REDRAW) {
            return;
        }
        self.last_draw = Some(now);
        let elapsed = self.started.elapsed().as_secs_f64();
        if elapsed > 0.0 {
            self.rate_trend.push(self.dashboard.done() as f64 / elapsed);
            if self.rate_trend.len() > TUI_TREND_SAMPLES {
                self.rate_trend.remove(0);
            }
            self.dashboard.on_event(&TuiEvent::Trend {
                name: "points/s".into(),
                values: self.rate_trend.clone(),
            });
        }
        let width = match self.width_probed {
            Some((at, width)) if now - at < TUI_WIDTH_REFRESH => width,
            _ => {
                let width = terminal_width();
                self.width_probed = Some((now, width));
                width
            }
        };
        let frame = self.dashboard.ansi_frame(width, elapsed);
        let mut stderr = std::io::stderr().lock();
        let _ = stderr.write_all(frame.as_bytes());
        let _ = stderr.flush();
    }

    /// Leaves the finished dashboard on screen and moves the cursor past
    /// it, so subsequent stdout output (the rendered figure) starts below.
    pub fn finish(mut self) {
        self.draw(true);
        eprintln!();
    }
}

/// Whether a sweep axis reads better log-scaled: strictly positive
/// values spanning at least one decade.
fn log_axis(values: impl Iterator<Item = f64> + Clone) -> bool {
    let mut positive = values.clone().peekable();
    if positive.peek().is_none() {
        return false;
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for value in values {
        if value <= 0.0 {
            return false;
        }
        lo = lo.min(value);
        hi = hi.max(value);
    }
    hi / lo >= 10.0
}

/// Renders a campaign report as one self-contained HTML document — see
/// the module docs for the sections. Pure function of its inputs plus
/// the global telemetry registry's deterministic snapshot, which leaves
/// out wall-clock series and the kernel's simulation-work counters (see
/// [`Registry::snapshot_json`]), so identical reports render
/// byte-identically however the executor dealt their points.
pub fn render_html(
    title: &str,
    spec: &CampaignSpec,
    report: &CampaignReport,
    axis: CampaignAxis,
) -> String {
    let mut doc = HtmlReport::new(title);

    doc.section("Campaign");
    let flips = report.outcomes.iter().filter(|o| o.flipped).count();
    doc.key_values(&[
        ("name".into(), spec.name.clone()),
        ("fingerprint".into(), format!("{:016x}", spec.fingerprint())),
        ("grid points".into(), spec.keyed_points().len().to_string()),
        ("outcomes".into(), report.outcomes.len().to_string()),
        ("victim flips".into(), flips.to_string()),
    ]);

    for series in report.series_over(axis) {
        doc.section(&series.name);
        let points: Vec<(f64, f64)> = series
            .points
            .iter()
            .filter_map(|p| p.pulses.map(|n| (p.parameter, n as f64)))
            .collect();
        let log_x = log_axis(points.iter().map(|&(x, _)| x));
        doc.raw(svg_chart(
            &[SvgSeries {
                name: "pulses to flip".into(),
                points,
            }],
            axis.caption(),
            "pulses to a bit-flip",
            log_x,
            true,
        ));
        doc.preformatted(crate::series_table(&series, axis.caption()).to_string());
    }

    if report.outcomes.iter().any(|o| o.defense.is_some()) {
        doc.section("Defence Pareto front");
        let pareto = report.defense_pareto();
        let split = |on_front: bool| -> Vec<(f64, f64)> {
            let mut points: Vec<(f64, f64)> = pareto
                .iter()
                .filter(|p| p.on_front == on_front)
                .map(|p| (p.mean_overhead, p.protection))
                .collect();
            points.sort_by(|a, b| a.partial_cmp(b).expect("finite coordinates"));
            points
        };
        doc.raw(svg_chart(
            &[
                SvgSeries {
                    name: "Pareto front".into(),
                    points: split(true),
                },
                SvgSeries {
                    name: "dominated".into(),
                    points: split(false),
                },
            ],
            "mean overhead fraction",
            "P(block)",
            false,
            false,
        ));
        doc.preformatted(report.pareto_table().to_string());
    }

    doc.section("Numbers");
    doc.paragraph(
        "Raw per-point campaign results — the exact rows behind the charts, \
         bit-identical to the --csv output.",
    );
    doc.preformatted(report.to_csv_string());

    doc.section("Telemetry snapshot");
    doc.paragraph(
        "Deterministic subset of the process-global telemetry registry: \
         volatile families (durations, rates, histograms) and the kernel's \
         simulation-work counters, which depend on how points shared \
         trajectories, are excluded, so identical campaigns snapshot \
         identically at any thread count.",
    );
    doc.preformatted(Registry::global().snapshot_json(SnapshotMode::Deterministic));

    doc.render()
}

/// Writes the `--html` report when the flag was passed.
///
/// # Panics
///
/// Panics when the file cannot be written (figure binaries are
/// command-line tools).
pub fn maybe_write_html(
    title: &str,
    spec: &CampaignSpec,
    report: &CampaignReport,
    axis: CampaignAxis,
) {
    let Some(path) = html_requested() else {
        return;
    };
    let html = render_html(title, spec, report, axis);
    std::fs::write(&path, html).unwrap_or_else(|e| panic!("cannot write --html {path:?}: {e}"));
    eprintln!("wrote HTML report to {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;
    use rram_units::{Kelvin, Seconds};

    fn tiny_report() -> (CampaignSpec, CampaignReport) {
        let spec = CampaignSpec {
            name: "observe test".into(),
            pulse_lengths_ns: vec![10.0, 100.0],
            max_pulses: 1_000,
            ..Default::default()
        };
        let keyed = spec.keyed_points();
        let outcomes: Vec<CampaignOutcome> = keyed
            .iter()
            .enumerate()
            .map(|(i, &(key, point))| CampaignOutcome {
                key,
                point,
                flipped: i == 0,
                pulses: 123,
                victim_drift: 0.25,
                final_crosstalk: Kelvin(1.5),
                sim_time: Seconds(1e-6),
                collateral_flips: 0,
                defense: None,
                wall_ns: Some(1_000 + i as u64),
            })
            .collect();
        let report = CampaignReport {
            name: spec.name.clone(),
            outcomes,
        };
        (spec, report)
    }

    #[test]
    fn tui_point_carries_axis_coordinates() {
        let (_, report) = tiny_report();
        let point = tui_point(&report.outcomes[0], CampaignAxis::PulseLength);
        assert_eq!(point.x, 10.0);
        assert_eq!(point.label, "10 ns");
        assert_eq!(point.pulses, Some(123));
        assert!(point.flipped);
        assert!(point.pareto.is_none());
        assert_eq!(point.wall_ns, Some(1_000));
    }

    #[test]
    fn tui_events_drive_a_dashboard() {
        let (_, report) = tiny_report();
        let mut dash = rram_analysis::tui::Dashboard::new("t");
        dash.on_event(&tui_event(
            &CampaignEvent::Started { total: 2 },
            CampaignAxis::PulseLength,
        ));
        for outcome in &report.outcomes {
            dash.on_event(&tui_event(
                &CampaignEvent::PointFinished(outcome.clone()),
                CampaignAxis::PulseLength,
            ));
        }
        dash.on_event(&tui_event(
            &CampaignEvent::Finished,
            CampaignAxis::PulseLength,
        ));
        assert_eq!(dash.done(), 2);
        assert!(dash.finished());
        let frame = dash.frame(100, 1.0);
        assert!(frame.contains("2/2"), "{frame}");
        assert!(frame.contains("campaign finished"), "{frame}");
    }

    #[test]
    fn html_export_is_reproducible_and_self_contained() {
        let (spec, report) = tiny_report();
        let first = render_html("demo", &spec, &report, CampaignAxis::PulseLength);
        let second = render_html("demo", &spec, &report, CampaignAxis::PulseLength);
        assert_eq!(first, second);
        assert!(first.contains(&format!("{:016x}", spec.fingerprint())));
        assert!(first.contains("<svg "));
        assert!(first.contains("Telemetry snapshot"));
        // Self-contained: no external references.
        assert!(!first.contains("http://") || first.contains("www.w3.org"));
        assert!(!first.contains("<script"));
    }

    #[test]
    fn columns_width_wants_a_positive_integer() {
        assert_eq!(columns_width(Some("120")), Some(120));
        assert_eq!(columns_width(Some(" 80 \n")), Some(80));
        assert_eq!(columns_width(Some("0")), None);
        assert_eq!(columns_width(Some("wide")), None);
        assert_eq!(columns_width(None), None);
    }

    #[test]
    fn terminal_width_always_falls_back_to_something_usable() {
        assert!(terminal_width() >= 1);
    }

    #[test]
    fn log_axis_wants_a_positive_decade() {
        assert!(log_axis([10.0, 1000.0].into_iter()));
        assert!(!log_axis([10.0, 20.0].into_iter()));
        assert!(!log_axis([0.0, 100.0].into_iter()));
        assert!(!log_axis(std::iter::empty()));
    }
}
