//! Reference outcomes and the output check.
//!
//! A reference file holds one line per workload point, recorded once on a
//! known-good commit: the flip verdict, pulses issued, final victim drift
//! and, on guarded points, the guard's `blocked` verdict. Every benchmark
//! run compares its outcomes against the file for its workload and seed.
//!
//! Format (one tab between fields, `#` lines are comments):
//!
//! ```text
//! # definition <hash>
//! <index> <flipped 0|1> <pulses> <victim drift> <blocked 0|1|-> <label>
//! ```
//!
//! The drift is printed in Rust's shortest round-trip form, so it parses
//! back bit for bit.

use std::path::{Path, PathBuf};

use neurohammer::campaign::CampaignOutcome;

use crate::workload::{population_seed, Workload};

/// The checked outputs of one point.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// Workload-wide point index.
    pub index: usize,
    /// Whether the victim flipped.
    pub flipped: bool,
    /// Hammer pulses issued.
    pub pulses: u64,
    /// Final normalised victim state.
    pub drift: f64,
    /// The guard's verdict on guarded points.
    pub blocked: Option<bool>,
    /// Human-readable point coordinates (not compared).
    pub label: String,
}

impl Expected {
    /// The checked outputs of `outcome` at workload-wide `index`.
    pub fn of(index: usize, outcome: &CampaignOutcome) -> Expected {
        let p = &outcome.point;
        Expected {
            index,
            flipped: outcome.flipped,
            pulses: outcome.pulses,
            drift: outcome.victim_drift,
            blocked: outcome.defense.as_ref().map(|d| d.blocked),
            label: format!(
                "{}x{} {} {}V {:.0}ns {}nm {}K guard={:?} scale={} trial={}",
                p.rows,
                p.cols,
                p.pattern.label(),
                p.amplitude.0,
                p.pulse_length.0 * 1e9,
                p.spacing_nm,
                p.ambient.0,
                p.guard,
                p.spread_scale,
                p.trial
            ),
        }
    }

    fn to_line(&self) -> String {
        let blocked = match self.blocked {
            None => "-",
            Some(true) => "1",
            Some(false) => "0",
        };
        format!(
            "{}\t{}\t{}\t{:?}\t{}\t{}",
            self.index, self.flipped as u8, self.pulses, self.drift, blocked, self.label
        )
    }

    fn parse(line: &str) -> Result<Expected, String> {
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != 6 {
            return Err(format!("expected 6 tab-separated fields in {line:?}"));
        }
        let bad = |what: &str| format!("bad {what} in {line:?}");
        Ok(Expected {
            index: fields[0].parse().map_err(|_| bad("index"))?,
            flipped: match fields[1] {
                "0" => false,
                "1" => true,
                _ => return Err(bad("flip flag")),
            },
            pulses: fields[2].parse().map_err(|_| bad("pulse count"))?,
            drift: fields[3].parse().map_err(|_| bad("drift"))?,
            blocked: match fields[4] {
                "-" => None,
                "0" => Some(false),
                "1" => Some(true),
                _ => return Err(bad("blocked flag")),
            },
            label: fields[5].to_string(),
        })
    }
}

/// The reference file of `workload` at `seed` under `dir`. `fig3-quick`
/// samples nothing, so one file serves every seed.
pub fn path(dir: &Path, workload: Workload, seed: u64) -> PathBuf {
    let file = if workload.sampled() {
        format!("seed-{}.tsv", population_seed(seed))
    } else {
        "all-seeds.tsv".to_string()
    };
    dir.join(workload.name()).join(file)
}

/// Writes a reference file.
///
/// # Errors
///
/// Returns the I/O error.
pub fn write(path: &Path, definition: &str, points: &[Expected]) -> std::io::Result<()> {
    let mut text = format!("# definition {definition}\n");
    for point in points {
        text.push_str(&point.to_line());
        text.push('\n');
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

/// Reads a reference file: its definition hash and its points.
///
/// # Errors
///
/// Returns a message naming the file on I/O or format errors.
pub fn read(path: &Path) -> Result<(String, Vec<Expected>), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut definition = String::new();
    let mut points = Vec::new();
    for line in text.lines() {
        if let Some(hash) = line.strip_prefix("# definition ") {
            definition = hash.trim().to_string();
        } else if !line.starts_with('#') && !line.is_empty() {
            points.push(Expected::parse(line).map_err(|e| format!("{}: {e}", path.display()))?);
        }
    }
    Ok((definition, points))
}

/// The result of comparing a run's outcomes with the reference.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Check {
    /// Points checked: every reference point, plus any unexpected extra.
    pub attempted: usize,
    /// Points that are missing, duplicated, unexpected, or whose flip or
    /// guard verdict differs from the reference.
    pub failed: usize,
    /// Largest deviation of pulses or victim drift from the reference:
    /// relative, or absolute where the reference is 0.
    pub accuracy_err: f64,
    /// One line per failed point.
    pub failures: Vec<String>,
}

impl Check {
    /// A check in which every one of `points` failed for `why`.
    pub fn all_failed(points: usize, why: &str) -> Check {
        Check {
            attempted: points.max(1),
            failed: points.max(1),
            accuracy_err: 0.0,
            failures: vec![why.to_string()],
        }
    }

    /// Whether every point matched the reference exactly.
    pub fn passed(&self) -> bool {
        self.failed == 0 && self.accuracy_err == 0.0
    }
}

fn deviation(got: f64, want: f64) -> f64 {
    if want == 0.0 {
        got.abs()
    } else {
        (got - want).abs() / want.abs()
    }
}

/// Compares `got` (any order) with the reference points.
pub fn check(reference: &[Expected], got: &[Expected]) -> Check {
    let mut seen = vec![0usize; reference.len()];
    let mut result = Check {
        attempted: reference.len(),
        ..Check::default()
    };
    for point in got {
        let Some(want) = reference
            .get(point.index)
            .filter(|w| w.index == point.index)
        else {
            result.attempted += 1;
            result.failed += 1;
            result
                .failures
                .push(format!("unexpected point {}", point.index));
            continue;
        };
        seen[point.index] += 1;
        if seen[point.index] > 1 {
            continue;
        }
        let err = deviation(point.pulses as f64, want.pulses as f64)
            .max(deviation(point.drift, want.drift));
        if point.flipped != want.flipped || point.blocked != want.blocked || !err.is_finite() {
            result.failed += 1;
            result.failures.push(format!(
                "point {} ({}): flipped {} blocked {:?}, reference flipped {} blocked {:?}",
                point.index, want.label, point.flipped, point.blocked, want.flipped, want.blocked
            ));
        }
        if err.is_finite() {
            result.accuracy_err = result.accuracy_err.max(err);
        }
    }
    for (index, count) in seen.iter().enumerate() {
        if *count != 1 {
            result.failed += 1;
            result.failures.push(format!(
                "point {index} ({}) listed {count} times",
                reference[index].label
            ));
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(index: usize, pulses: u64, drift: f64) -> Expected {
        Expected {
            index,
            flipped: index.is_multiple_of(2),
            pulses,
            drift,
            blocked: (index == 1).then_some(true),
            label: format!("p{index}"),
        }
    }

    #[test]
    fn lines_round_trip_bit_for_bit() {
        let p = point(1, 7, 0.1 + 0.2);
        assert_eq!(Expected::parse(&p.to_line()).unwrap(), p);
    }

    #[test]
    fn identical_outcomes_pass() {
        let reference = vec![point(0, 10, 0.5), point(1, 20, 0.0)];
        let got = vec![reference[1].clone(), reference[0].clone()];
        let check = check(&reference, &got);
        assert!(check.passed(), "{check:?}");
        assert_eq!(check.attempted, 2);
    }

    #[test]
    fn deviations_are_relative_or_absolute_at_zero() {
        let reference = vec![point(0, 100, 0.5), point(1, 20, 0.0)];
        let got = vec![point(0, 110, 0.5), point(1, 20, 0.25)];
        let check = check(&reference, &got);
        assert_eq!(check.failed, 0);
        assert_eq!(check.accuracy_err, 0.25);
    }
}
