//! Sneak-path analysis of the passive crossbar.
//!
//! In a passive (selector-free) crossbar, reading one cell also drives
//! current through unselected cells; the V/2 biasing the paper uses while
//! hammering exists precisely "to minimise the sneak-path currents". This
//! module quantifies sneak paths for a given array state by solving the
//! detailed engine's line network, built once per read, with each
//! crosspoint a plain conductance: the inverse of its cell's static read
//! resistance.

use serde::{Deserialize, Serialize};

use crate::array::CrossbarArray;
use crate::detailed::{conductance, LineNetwork, WiringParasitics};
use crate::scheme::CellAddress;
use rram_circuit::CircuitError;
use rram_units::{Amps, Volts};

/// Bias applied to the unselected lines during a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReadBias {
    /// Unselected word and bit lines are grounded (suppresses sneak paths at
    /// the cost of read power).
    GroundedUnselected,
    /// Unselected word lines are tied to the read voltage and unselected bit
    /// lines to ground — a common low-power scheme with worse margins.
    HalfBiased,
}

/// Result of a single-cell read analysis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReadAnalysis {
    /// The cell that was read.
    pub cell: CellAddress,
    /// Current delivered by the selected bit line (what a sense amplifier
    /// integrates), A.
    pub sensed_current: Amps,
    /// Current through the selected cell itself, A.
    pub cell_current: Amps,
    /// Fraction of the sensed current carried by the selected cell
    /// (1.0 = no sneak current at all).
    pub selectivity: f64,
}

/// Read-margin report over the whole array for a given state pattern.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReadMarginReport {
    /// Lowest sensed current over all cells that store LRS, A.
    pub min_lrs_current: Amps,
    /// Highest sensed current over all cells that store HRS, A.
    pub max_hrs_current: Amps,
    /// `min_lrs_current / max_hrs_current`; values ≤ 1 mean the states are
    /// indistinguishable for at least one cell.
    pub margin: f64,
}

/// Analyses a read of `selected` for the given array state.
///
/// # Errors
///
/// Propagates [`CircuitError`] if the network solve fails.
pub fn analyze_read(
    array: &CrossbarArray,
    parasitics: WiringParasitics,
    selected: CellAddress,
    v_read: Volts,
    bias: ReadBias,
) -> Result<ReadAnalysis, CircuitError> {
    let (rows, cols) = (array.rows(), array.cols());
    let unselected = match bias {
        ReadBias::GroundedUnselected => 0.0,
        ReadBias::HalfBiased => v_read.0,
    };
    let word_lines: Vec<f64> = (0..rows)
        .map(|r| {
            if r == selected.row {
                v_read.0
            } else {
                unselected
            }
        })
        .collect();
    // All bit lines are held at 0 V; the selected one's source current is
    // what the sense amplifier sees.
    let bit_lines = vec![0.0; cols];
    let conductances: Vec<f64> = (0..rows * cols)
        .map(|lane| {
            let address = CellAddress::new(lane / cols, lane % cols);
            conductance(array.read_resistance(address, v_read).0.max(1.0))
        })
        .collect();
    let mut network = LineNetwork::new(rows, cols, parasitics);
    network.drive(&word_lines, &bit_lines);
    network.solve(|lane, _| (conductances[lane], 0.0))?;

    // The bit-line sources come after the word-line sources, in column
    // order, so the selected bit line's source is number rows +
    // selected.col; the current it collects from the array is positive.
    let sensed = network.source_current(rows + selected.col);

    // Current through the selected cell: voltage across its read resistance.
    let v_cell = network.cell_voltage(selected.row * cols + selected.col);
    let r_cell = array.read_resistance(selected, v_read).0;
    let cell_current = v_cell / r_cell;

    let selectivity = if sensed.abs() < 1e-18 {
        0.0
    } else {
        (cell_current / sensed).clamp(0.0, 1.0)
    };
    Ok(ReadAnalysis {
        cell: selected,
        sensed_current: Amps(sensed),
        cell_current: Amps(cell_current),
        selectivity,
    })
}

/// Computes the worst-case read margin over the whole array.
///
/// # Errors
///
/// Propagates [`CircuitError`] if any network solve fails. Returns an error
/// margin of `f64::INFINITY` when the array stores only one of the two states.
pub fn read_margin(
    array: &CrossbarArray,
    parasitics: WiringParasitics,
    v_read: Volts,
    bias: ReadBias,
) -> Result<ReadMarginReport, CircuitError> {
    let mut min_lrs = f64::INFINITY;
    let mut max_hrs: f64 = 0.0;
    for (address, cell) in array.iter() {
        let analysis = analyze_read(array, parasitics, address, v_read, bias)?;
        if cell.is_lrs() {
            min_lrs = min_lrs.min(analysis.sensed_current.0);
        } else {
            max_hrs = max_hrs.max(analysis.sensed_current.0);
        }
    }
    let margin = if max_hrs == 0.0 {
        f64::INFINITY
    } else {
        min_lrs / max_hrs
    };
    Ok(ReadMarginReport {
        min_lrs_current: Amps(min_lrs),
        max_hrs_current: Amps(max_hrs),
        margin,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rram_jart::{DeviceParams, DigitalState};

    fn checkerboard(rows: usize, cols: usize) -> CrossbarArray {
        let mut array = CrossbarArray::new(rows, cols, DeviceParams::default());
        array.for_each_cell_mut(|address, mut cell| {
            if (address.row + address.col) % 2 == 0 {
                cell.force_state(DigitalState::Lrs);
            }
        });
        array
    }

    #[test]
    fn reading_an_lrs_cell_senses_more_current_than_hrs() {
        let array = checkerboard(3, 3);
        let lrs = analyze_read(
            &array,
            WiringParasitics::default(),
            CellAddress::new(0, 0),
            Volts(0.2),
            ReadBias::GroundedUnselected,
        )
        .unwrap();
        let hrs = analyze_read(
            &array,
            WiringParasitics::default(),
            CellAddress::new(0, 1),
            Volts(0.2),
            ReadBias::GroundedUnselected,
        )
        .unwrap();
        assert!(
            lrs.sensed_current.0 > 5.0 * hrs.sensed_current.0,
            "LRS {:?} vs HRS {:?}",
            lrs.sensed_current,
            hrs.sensed_current
        );
    }

    #[test]
    fn grounded_scheme_keeps_good_selectivity() {
        let array = checkerboard(3, 3);
        let analysis = analyze_read(
            &array,
            WiringParasitics::default(),
            CellAddress::new(1, 1),
            Volts(0.2),
            ReadBias::GroundedUnselected,
        )
        .unwrap();
        assert!(
            analysis.selectivity > 0.5,
            "selectivity {}",
            analysis.selectivity
        );
    }

    #[test]
    fn read_margin_distinguishes_states_in_small_array() {
        let array = checkerboard(3, 3);
        let report = read_margin(
            &array,
            WiringParasitics::default(),
            Volts(0.2),
            ReadBias::GroundedUnselected,
        )
        .unwrap();
        assert!(report.margin > 1.5, "margin = {}", report.margin);
        assert!(report.min_lrs_current.0 > report.max_hrs_current.0);
    }

    #[test]
    fn half_biased_read_has_worse_or_equal_margin() {
        let array = checkerboard(3, 3);
        let grounded = read_margin(
            &array,
            WiringParasitics::default(),
            Volts(0.2),
            ReadBias::GroundedUnselected,
        )
        .unwrap();
        let half = read_margin(
            &array,
            WiringParasitics::default(),
            Volts(0.2),
            ReadBias::HalfBiased,
        )
        .unwrap();
        assert!(half.margin <= grounded.margin * 1.5 + 1e-9);
    }

    #[test]
    fn all_hrs_array_reports_infinite_margin() {
        let array = CrossbarArray::new(2, 2, DeviceParams::default());
        let report = read_margin(
            &array,
            WiringParasitics::default(),
            Volts(0.2),
            ReadBias::GroundedUnselected,
        )
        .unwrap();
        assert!(report.margin.is_infinite());
    }
}
