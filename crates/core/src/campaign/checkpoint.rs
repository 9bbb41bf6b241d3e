//! Checkpoint files: append-only JSONL persistence of campaign outcomes.
//!
//! A checkpoint is a plain-text file with one compact JSON
//! [`CampaignOutcome`] per line, flushed as each point completes — so a
//! killed or interrupted run keeps everything it finished. The points of a
//! guard family complete together, when the whole family has run (see
//! [`super::executor`]). The reader is deliberately forgiving: a truncated
//! final line (the run died mid-write) is dropped, and duplicate keys (a
//! resumed run re-recording replayed points) are de-duplicated, first
//! occurrence wins — the same semantics as
//! [`CampaignReport::merge`](super::CampaignReport::merge).
//!
//! # Examples
//!
//! Record a shard's outcomes as they stream in, then recover them:
//!
//! ```no_run
//! use neurohammer::campaign::{
//!     read_checkpoint, CampaignEvent, CampaignExecutor, CampaignSpec, CheckpointWriter,
//! };
//!
//! let spec = CampaignSpec::default();
//! let mut writer = CheckpointWriter::append("campaign.jsonl").unwrap();
//! let report = CampaignExecutor::new(spec.clone())
//!     .unwrap()
//!     .execute(|event| {
//!         if let CampaignEvent::PointFinished(outcome) = &event {
//!             writer.record(outcome).unwrap();
//!         }
//!     })
//!     .unwrap();
//!
//! // Later (or in another process): resume from the partial file.
//! let recovered = read_checkpoint("campaign.jsonl").unwrap();
//! let resumed = CampaignExecutor::new(spec).unwrap().resume_from(recovered);
//! assert_eq!(resumed.pending_points().len(), 0);
//! # let _ = report;
//! ```

use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::Path;

use super::{CampaignError, CampaignOutcome, PointKey};

/// Appends campaign outcomes to a JSONL checkpoint file, flushing after
/// every record so an interrupted run loses at most the in-flight point.
#[derive(Debug)]
pub struct CheckpointWriter {
    out: BufWriter<File>,
}

impl CheckpointWriter {
    /// Opens `path` for appending, creating it if missing.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Io`] when the file cannot be opened.
    pub fn append(path: impl AsRef<Path>) -> Result<Self, CampaignError> {
        let path = path.as_ref();
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| CampaignError::Io(format!("cannot open checkpoint {path:?}: {e}")))?;
        Ok(CheckpointWriter {
            out: BufWriter::new(file),
        })
    }

    /// Truncates `path` and opens it for writing from scratch.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Io`] when the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, CampaignError> {
        let path = path.as_ref();
        let file = File::create(path)
            .map_err(|e| CampaignError::Io(format!("cannot create checkpoint {path:?}: {e}")))?;
        Ok(CheckpointWriter {
            out: BufWriter::new(file),
        })
    }

    /// Appends one outcome as a single compact JSON line and flushes.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Io`] on a write failure.
    pub fn record(&mut self, outcome: &CampaignOutcome) -> Result<(), CampaignError> {
        let io = |e: std::io::Error| CampaignError::Io(format!("checkpoint write failed: {e}"));
        writeln!(self.out, "{}", outcome.to_json_line()).map_err(io)?;
        self.out.flush().map_err(io)
    }
}

/// Reads every outcome recorded in a checkpoint file.
///
/// Duplicate keys keep their first occurrence; a malformed *final* line is
/// treated as the truncated record of an interrupted run and dropped. A
/// malformed line anywhere else is a real error.
///
/// # Errors
///
/// Returns [`CampaignError::Io`] when the file cannot be read and
/// [`CampaignError::Json`] when a non-final line is malformed.
pub fn read_checkpoint(path: impl AsRef<Path>) -> Result<Vec<CampaignOutcome>, CampaignError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| CampaignError::Io(format!("cannot read checkpoint {path:?}: {e}")))?;
    let lines: Vec<&str> = text
        .lines()
        .map(str::trim)
        .filter(|line| !line.is_empty())
        .collect();

    let mut seen: HashSet<PointKey> = HashSet::new();
    let mut outcomes = Vec::new();
    for (position, line) in lines.iter().enumerate() {
        match CampaignOutcome::from_json(line) {
            Ok(outcome) => {
                if seen.insert(outcome.key) {
                    outcomes.push(outcome);
                }
            }
            Err(_) if position + 1 == lines.len() => break, // truncated tail
            Err(e) => {
                return Err(CampaignError::Json(format!(
                    "checkpoint {path:?} line {}: {e}",
                    position + 1
                )))
            }
        }
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::super::CampaignSpec;
    use super::*;

    fn scratch_path(name: &str) -> std::path::PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "neurohammer-checkpoint-{name}-{}",
            std::process::id()
        ));
        path
    }

    fn outcomes() -> Vec<CampaignOutcome> {
        CampaignSpec {
            pulse_lengths_ns: vec![50.0, 100.0],
            max_pulses: 300_000,
            ..CampaignSpec::default()
        }
        .run()
        .unwrap()
        .outcomes
    }

    #[test]
    fn write_read_round_trip_preserves_outcomes() {
        let path = scratch_path("round-trip");
        let outcomes = outcomes();
        {
            let mut writer = CheckpointWriter::create(&path).unwrap();
            for outcome in &outcomes {
                writer.record(outcome).unwrap();
            }
        }
        let recovered = read_checkpoint(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(recovered, outcomes);
    }

    #[test]
    fn duplicates_are_dropped_and_truncated_tails_tolerated() {
        let path = scratch_path("truncated");
        let outcomes = outcomes();
        {
            let mut writer = CheckpointWriter::create(&path).unwrap();
            for outcome in &outcomes {
                writer.record(outcome).unwrap();
            }
            // A resumed run re-records the first point, then dies mid-write.
            writer.record(&outcomes[0]).unwrap();
        }
        {
            use std::io::Write;
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            write!(file, "{{\"key\":{{\"index\":9,").unwrap();
        }
        let recovered = read_checkpoint(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(recovered, outcomes);
    }

    #[test]
    fn malformed_interior_lines_are_real_errors() {
        let path = scratch_path("malformed");
        let outcomes = outcomes();
        std::fs::write(&path, format!("not json\n{}\n", outcomes[0].to_json_line())).unwrap();
        let result = read_checkpoint(&path);
        std::fs::remove_file(&path).ok();
        assert!(matches!(result, Err(CampaignError::Json(_))));
    }

    #[test]
    fn missing_files_report_io_errors() {
        assert!(matches!(
            read_checkpoint("/nonexistent/checkpoint.jsonl"),
            Err(CampaignError::Io(_))
        ));
    }
}
