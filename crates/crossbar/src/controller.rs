//! The memory controller: init files, stimulus files and their execution.
//!
//! The paper's circuit framework is driven by two configuration files: the
//! *init* file holds the initial resistance state of every cell and the
//! *stimuli* file lists the pulses (amplitude, length, duty cycle) the
//! controller must generate. This module provides both formats as simple
//! line-oriented text files plus a controller that executes a parsed stimulus
//! on the ideal-driver [`PulseEngine`].

use std::error::Error;
use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::engine::PulseEngine;
use crate::scheme::CellAddress;
use rram_jart::DigitalState;
use rram_units::{Seconds, Volts};

/// Initial contents of the array: one digital state per cell.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InitState {
    rows: usize,
    cols: usize,
    states: Vec<DigitalState>,
}

impl InitState {
    /// Creates an init state with every cell in `state`.
    pub fn uniform(rows: usize, cols: usize, state: DigitalState) -> Self {
        InitState {
            rows,
            cols,
            states: vec![state; rows * cols],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// State of cell `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn get(&self, row: usize, col: usize) -> DigitalState {
        assert!(row < self.rows && col < self.cols, "cell out of range");
        self.states[row * self.cols + col]
    }

    /// Sets the state of cell `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn set(&mut self, row: usize, col: usize, state: DigitalState) {
        assert!(row < self.rows && col < self.cols, "cell out of range");
        self.states[row * self.cols + col] = state;
    }

    /// Serialises to the text format: one line per row, `1` for LRS and `0`
    /// for HRS, separated by spaces.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for row in 0..self.rows {
            let line: Vec<&str> = (0..self.cols)
                .map(|col| match self.get(row, col) {
                    DigitalState::Lrs => "1",
                    DigitalState::Hrs => "0",
                })
                .collect();
            out.push_str(&line.join(" "));
            out.push('\n');
        }
        out
    }

    /// Applies the init state to an engine's array.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions do not match the engine's array.
    pub fn apply(&self, engine: &mut PulseEngine) {
        assert_eq!(engine.array().rows(), self.rows, "row count mismatch");
        assert_eq!(engine.array().cols(), self.cols, "column count mismatch");
        engine.array_mut().for_each_cell_mut(|address, mut cell| {
            cell.force_state(self.get(address.row, address.col));
        });
    }
}

impl FromStr for InitState {
    type Err = StimulusParseError;

    /// Parses the grid text format produced by [`InitState::to_text`].
    fn from_str(text: &str) -> Result<Self, Self::Err> {
        let mut rows_vec: Vec<Vec<DigitalState>> = Vec::new();
        for (line_no, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut row = Vec::new();
            for token in line.split_whitespace() {
                let state = match token {
                    "1" | "LRS" | "lrs" => DigitalState::Lrs,
                    "0" | "HRS" | "hrs" => DigitalState::Hrs,
                    other => {
                        return Err(StimulusParseError {
                            line: line_no + 1,
                            message: format!("unknown cell state '{other}'"),
                        })
                    }
                };
                row.push(state);
            }
            rows_vec.push(row);
        }
        if rows_vec.is_empty() {
            return Err(StimulusParseError {
                line: 0,
                message: "init file contains no rows".to_string(),
            });
        }
        let cols = rows_vec[0].len();
        if rows_vec.iter().any(|r| r.len() != cols) {
            return Err(StimulusParseError {
                line: 0,
                message: "init file rows have inconsistent lengths".to_string(),
            });
        }
        Ok(InitState {
            rows: rows_vec.len(),
            cols,
            states: rows_vec.into_iter().flatten().collect(),
        })
    }
}

/// One operation of a stimulus.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Operation {
    /// Write a digital state into a cell.
    Write {
        /// Target cell.
        cell: CellAddress,
        /// Target state.
        state: DigitalState,
    },
    /// Hammer a cell: apply `count` pulses of `amplitude` and `length`,
    /// separated by `gap` of idle time.
    Hammer {
        /// The aggressor cell.
        cell: CellAddress,
        /// Pulse amplitude, V.
        amplitude: Volts,
        /// Pulse length, s.
        length: Seconds,
        /// Idle gap between pulses, s.
        gap: Seconds,
        /// Number of pulses.
        count: usize,
    },
    /// Read a cell (the result is recorded in the controller report).
    Read {
        /// The cell to read.
        cell: CellAddress,
    },
    /// Let the array idle for the given duration.
    Idle {
        /// Idle duration, s.
        duration: Seconds,
    },
}

/// A parsed stimulus: an ordered list of operations.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Stimulus {
    /// The operations, in execution order.
    pub operations: Vec<Operation>,
}

/// Parse error with the offending line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StimulusParseError {
    /// 1-based line number (0 for file-level errors).
    pub line: usize,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for StimulusParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for StimulusParseError {}

fn parse_duration_ns(token: &str, line: usize) -> Result<Seconds, StimulusParseError> {
    let cleaned = token.trim_end_matches("ns");
    cleaned
        .parse::<f64>()
        .map(|ns| Seconds(ns * 1e-9))
        .map_err(|_| StimulusParseError {
            line,
            message: format!("cannot parse duration '{token}' (expected nanoseconds)"),
        })
}

impl FromStr for Stimulus {
    type Err = StimulusParseError;

    /// Parses the stimulus text format. Each non-empty, non-comment line is
    /// one operation:
    ///
    /// ```text
    /// write  <row> <col> <0|1>
    /// hammer <row> <col> <amplitude_V> <pulse_ns> <gap_ns> <count>
    /// read   <row> <col>
    /// idle   <ns>
    /// ```
    fn from_str(text: &str) -> Result<Self, Self::Err> {
        let mut operations = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let tokens: Vec<&str> = line.split_whitespace().collect();
            let err = |message: String| StimulusParseError {
                line: line_no,
                message,
            };
            let parse_usize = |t: &str| {
                t.parse::<usize>()
                    .map_err(|_| err(format!("cannot parse integer '{t}'")))
            };
            let parse_f64 = |t: &str| {
                t.trim_end_matches('V')
                    .parse::<f64>()
                    .map_err(|_| err(format!("cannot parse number '{t}'")))
            };
            match tokens[0].to_ascii_lowercase().as_str() {
                "write" => {
                    if tokens.len() != 4 {
                        return Err(err("write expects: write <row> <col> <0|1>".into()));
                    }
                    let state = match tokens[3] {
                        "1" | "LRS" | "lrs" => DigitalState::Lrs,
                        "0" | "HRS" | "hrs" => DigitalState::Hrs,
                        other => return Err(err(format!("unknown state '{other}'"))),
                    };
                    operations.push(Operation::Write {
                        cell: CellAddress::new(parse_usize(tokens[1])?, parse_usize(tokens[2])?),
                        state,
                    });
                }
                "hammer" => {
                    if tokens.len() != 7 {
                        return Err(err(
                            "hammer expects: hammer <row> <col> <amplitude> <pulse_ns> <gap_ns> <count>"
                                .into(),
                        ));
                    }
                    operations.push(Operation::Hammer {
                        cell: CellAddress::new(parse_usize(tokens[1])?, parse_usize(tokens[2])?),
                        amplitude: Volts(parse_f64(tokens[3])?),
                        length: parse_duration_ns(tokens[4], line_no)?,
                        gap: parse_duration_ns(tokens[5], line_no)?,
                        count: parse_usize(tokens[6])?,
                    });
                }
                "read" => {
                    if tokens.len() != 3 {
                        return Err(err("read expects: read <row> <col>".into()));
                    }
                    operations.push(Operation::Read {
                        cell: CellAddress::new(parse_usize(tokens[1])?, parse_usize(tokens[2])?),
                    });
                }
                "idle" => {
                    if tokens.len() != 2 {
                        return Err(err("idle expects: idle <ns>".into()));
                    }
                    operations.push(Operation::Idle {
                        duration: parse_duration_ns(tokens[1], line_no)?,
                    });
                }
                other => return Err(err(format!("unknown operation '{other}'"))),
            }
        }
        Ok(Stimulus { operations })
    }
}

/// Execution report of a stimulus.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ControllerReport {
    /// Results of every `read` operation, in order.
    pub reads: Vec<(CellAddress, DigitalState)>,
    /// Total number of write/hammer pulses issued.
    pub pulses_issued: usize,
    /// Total simulated time spent executing the stimulus, s.
    pub simulated_time: Seconds,
}

/// The memory controller: executes parsed stimuli on a pulse engine.
#[derive(Debug)]
pub struct MemoryController<'a> {
    engine: &'a mut PulseEngine,
}

impl<'a> MemoryController<'a> {
    /// Creates a controller driving the given engine.
    pub fn new(engine: &'a mut PulseEngine) -> Self {
        MemoryController { engine }
    }

    /// Executes a stimulus and returns the report.
    pub fn execute(&mut self, stimulus: &Stimulus) -> ControllerReport {
        let start = self.engine.elapsed();
        let mut report = ControllerReport::default();
        for operation in &stimulus.operations {
            match *operation {
                Operation::Write { cell, state } => {
                    self.engine.write(cell, state);
                    report.pulses_issued += 1;
                }
                Operation::Hammer {
                    cell,
                    amplitude,
                    length,
                    gap,
                    count,
                } => {
                    for _ in 0..count {
                        self.engine.apply_pulse(cell, amplitude, length);
                        if gap.0 > 0.0 {
                            self.engine.idle(gap);
                        }
                    }
                    report.pulses_issued += count;
                }
                Operation::Read { cell } => {
                    report.reads.push((cell, self.engine.read(cell)));
                }
                Operation::Idle { duration } => {
                    self.engine.idle(duration);
                }
            }
        }
        report.simulated_time = Seconds(self.engine.elapsed().0 - start.0);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use rram_jart::DeviceParams;

    fn engine() -> PulseEngine {
        PulseEngine::with_uniform_coupling(
            3,
            3,
            DeviceParams::default(),
            0.12,
            EngineConfig::default(),
        )
    }

    #[test]
    fn init_state_text_round_trip() {
        let mut init = InitState::uniform(2, 3, DigitalState::Hrs);
        init.set(0, 1, DigitalState::Lrs);
        init.set(1, 2, DigitalState::Lrs);
        let text = init.to_text();
        let parsed: InitState = text.parse().unwrap();
        assert_eq!(parsed, init);
    }

    #[test]
    fn init_state_accepts_word_tokens_and_comments() {
        let parsed: InitState = "# header\nLRS HRS\n0 1 # trailing\n".parse().unwrap();
        assert_eq!(parsed.get(0, 0), DigitalState::Lrs);
        assert_eq!(parsed.get(0, 1), DigitalState::Hrs);
        assert_eq!(parsed.get(1, 1), DigitalState::Lrs);
    }

    #[test]
    fn init_state_rejects_ragged_rows_and_garbage() {
        assert!("1 0\n1".parse::<InitState>().is_err());
        assert!("1 x".parse::<InitState>().is_err());
        assert!("".parse::<InitState>().is_err());
    }

    #[test]
    fn init_state_applies_to_engine() {
        let mut e = engine();
        let mut init = InitState::uniform(3, 3, DigitalState::Hrs);
        init.set(1, 1, DigitalState::Lrs);
        init.apply(&mut e);
        assert_eq!(e.read(CellAddress::new(1, 1)), DigitalState::Lrs);
        assert_eq!(e.read(CellAddress::new(0, 0)), DigitalState::Hrs);
    }

    #[test]
    fn stimulus_parses_all_operations() {
        let text = "\
# attack description
write 1 1 1
hammer 1 1 1.05 50 50 3
read 1 2
idle 200
";
        let stimulus: Stimulus = text.parse().unwrap();
        assert_eq!(stimulus.operations.len(), 4);
        assert!(matches!(
            stimulus.operations[1],
            Operation::Hammer { count: 3, .. }
        ));
        match stimulus.operations[1] {
            Operation::Hammer { length, gap, .. } => {
                assert!((length.0 - 50e-9).abs() < 1e-18);
                assert!((gap.0 - 50e-9).abs() < 1e-18);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn stimulus_parse_errors_carry_line_numbers() {
        let err = "write 1 1 1\nbogus 1 2".parse::<Stimulus>().unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("bogus"));

        let err = "hammer 1 1 1.05 50".parse::<Stimulus>().unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn controller_executes_stimulus_and_reports_reads() {
        let mut e = engine();
        let stimulus: Stimulus = "\
write 0 0 1
read 0 0
read 2 2
hammer 0 0 1.05 50 50 5
"
        .parse()
        .unwrap();
        let mut controller = MemoryController::new(&mut e);
        let report = controller.execute(&stimulus);
        assert_eq!(report.reads.len(), 2);
        assert_eq!(report.reads[0], (CellAddress::new(0, 0), DigitalState::Lrs));
        assert_eq!(report.reads[1], (CellAddress::new(2, 2), DigitalState::Hrs));
        assert_eq!(report.pulses_issued, 6);
        assert!(report.simulated_time.0 > 0.0);
    }
}
