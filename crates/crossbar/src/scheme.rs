//! Write/bias schemes of a passive crossbar.
//!
//! A passive crossbar is addressed by driving its word lines (rows) and bit
//! lines (columns). To write the selected cell without disturbing the rest of
//! the array, the unselected lines are biased at intermediate voltages. The
//! paper uses the V/2 scheme: the selected word line carries the full write
//! voltage, the selected bit line is grounded, and every unselected line sits
//! at V/2, so unselected cells on the selected row/column see V/2 and all
//! other cells see 0 V. Those V/2 cells are exactly the potential NeuroHammer
//! victims (the "blue cells" of Fig. 1).

use serde::{Deserialize, Serialize};

use rram_units::Volts;

/// Position of a cell in the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CellAddress {
    /// Word-line (row) index.
    pub row: usize,
    /// Bit-line (column) index.
    pub col: usize,
}

impl CellAddress {
    /// Convenience constructor.
    pub fn new(row: usize, col: usize) -> Self {
        CellAddress { row, col }
    }

    /// Chebyshev (chessboard) distance to another cell — 1 for the eight
    /// surrounding neighbours.
    pub fn chebyshev_distance(&self, other: CellAddress) -> usize {
        let dr = self.row.abs_diff(other.row);
        let dc = self.col.abs_diff(other.col);
        dr.max(dc)
    }

    /// Returns `true` when the two cells share a word line or a bit line.
    pub fn shares_line_with(&self, other: CellAddress) -> bool {
        self.row == other.row || self.col == other.col
    }
}

/// Bias scheme applied while writing a selected cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WriteScheme {
    /// Selected word line at V, selected bit line at 0, all other lines at
    /// V/2. Half-selected cells see V/2.
    HalfVoltage,
    /// Selected word line at V, selected bit line at 0, unselected word lines
    /// at V/3 and unselected bit lines at 2V/3. Half-selected cells see V/3
    /// and fully unselected cells see ±V/3.
    ThirdVoltage,
    /// Selected word line at V, every other line grounded. Half-selected
    /// cells see the full V (worst case for disturbs, used as an upper-bound
    /// reference).
    GroundedUnselected,
}

/// Line voltages produced by a scheme for one write access.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LineBias {
    /// Word-line (row) voltages.
    pub word_lines: Vec<Volts>,
    /// Bit-line (column) voltages.
    pub bit_lines: Vec<Volts>,
}

impl LineBias {
    /// Voltage across cell `(row, col)`: word-line voltage minus bit-line
    /// voltage.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn cell_voltage(&self, address: CellAddress) -> Volts {
        self.word_lines[address.row] - self.bit_lines[address.col]
    }
}

impl WriteScheme {
    /// All schemes, in the order campaign reports use.
    pub const ALL: [WriteScheme; 3] = [
        WriteScheme::HalfVoltage,
        WriteScheme::ThirdVoltage,
        WriteScheme::GroundedUnselected,
    ];

    /// Short label used in campaign JSON and report tables
    /// ("half" / "third" / "grounded").
    pub fn label(&self) -> &'static str {
        match self {
            WriteScheme::HalfVoltage => "half",
            WriteScheme::ThirdVoltage => "third",
            WriteScheme::GroundedUnselected => "grounded",
        }
    }

    /// Position of this scheme in [`WriteScheme::ALL`] (the numeric axis
    /// coordinate campaign reports use).
    pub fn index(&self) -> usize {
        WriteScheme::ALL
            .iter()
            .position(|s| s == self)
            .expect("every scheme is listed in ALL")
    }

    /// Computes the line biases for writing `selected` with amplitude
    /// `v_write` in an array of `rows × cols`.
    ///
    /// # Panics
    ///
    /// Panics if the selected cell lies outside the array.
    pub fn line_bias(
        &self,
        rows: usize,
        cols: usize,
        selected: CellAddress,
        v_write: Volts,
    ) -> LineBias {
        assert!(
            selected.row < rows && selected.col < cols,
            "selected cell outside the array"
        );
        let v = v_write.0;
        let (unselected_wl, unselected_bl) = self.unselected_levels(v_write);
        let word_lines = (0..rows)
            .map(|r| {
                if r == selected.row {
                    Volts(v)
                } else {
                    unselected_wl
                }
            })
            .collect();
        let bit_lines = (0..cols)
            .map(|c| {
                if c == selected.col {
                    Volts(0.0)
                } else {
                    unselected_bl
                }
            })
            .collect();
        LineBias {
            word_lines,
            bit_lines,
        }
    }

    /// The bias levels of unselected (word, bit) lines for a write at
    /// `v_write` — the two degrees of freedom that distinguish the schemes.
    /// [`WriteScheme::line_bias`] expands these into full per-line vectors;
    /// the pulse engine uses them directly to build the two distinct
    /// voltage row patterns a write access produces.
    pub fn unselected_levels(&self, v_write: Volts) -> (Volts, Volts) {
        let v = v_write.0;
        match self {
            WriteScheme::HalfVoltage => (Volts(v / 2.0), Volts(v / 2.0)),
            WriteScheme::ThirdVoltage => (Volts(v / 3.0), Volts(2.0 * v / 3.0)),
            WriteScheme::GroundedUnselected => (Volts(0.0), Volts(0.0)),
        }
    }

    /// The voltage a half-selected cell (sharing exactly one line with the
    /// selected cell) experiences under this scheme.
    pub fn half_select_voltage(&self, v_write: Volts) -> Volts {
        match self {
            WriteScheme::HalfVoltage => Volts(v_write.0 / 2.0),
            WriteScheme::ThirdVoltage => Volts(v_write.0 / 3.0),
            WriteScheme::GroundedUnselected => v_write,
        }
    }
}

/// Parses a scheme label as written in campaign JSON ("half", "third" or
/// "grounded").
impl std::str::FromStr for WriteScheme {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        WriteScheme::ALL
            .iter()
            .find(|scheme| scheme.label() == s)
            .copied()
            .ok_or_else(|| format!("unknown write scheme {s:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_parse_round_trip() {
        for (i, scheme) in WriteScheme::ALL.iter().enumerate() {
            assert_eq!(scheme.index(), i);
            let parsed: WriteScheme = scheme.label().parse().unwrap();
            assert_eq!(parsed, *scheme);
        }
        assert!("quarter".parse::<WriteScheme>().is_err());
    }

    #[test]
    fn half_voltage_scheme_biases() {
        let bias = WriteScheme::HalfVoltage.line_bias(5, 5, CellAddress::new(2, 2), Volts(1.05));
        // Selected cell sees the full voltage.
        assert!((bias.cell_voltage(CellAddress::new(2, 2)).0 - 1.05).abs() < 1e-12);
        // Cells sharing the word line or bit line see V/2.
        assert!((bias.cell_voltage(CellAddress::new(2, 0)).0 - 0.525).abs() < 1e-12);
        assert!((bias.cell_voltage(CellAddress::new(4, 2)).0 - 0.525).abs() < 1e-12);
        // Cells sharing neither line see 0.
        assert!(bias.cell_voltage(CellAddress::new(0, 0)).0.abs() < 1e-12);
    }

    #[test]
    fn third_voltage_scheme_biases() {
        let bias = WriteScheme::ThirdVoltage.line_bias(3, 3, CellAddress::new(1, 1), Volts(0.9));
        assert!((bias.cell_voltage(CellAddress::new(1, 1)).0 - 0.9).abs() < 1e-12);
        // Half-selected cells: V − 2V/3 = V/3 and V/3 − 0 = V/3.
        assert!((bias.cell_voltage(CellAddress::new(1, 0)).0 - 0.3).abs() < 1e-12);
        assert!((bias.cell_voltage(CellAddress::new(0, 1)).0 - 0.3).abs() < 1e-12);
        // Fully unselected cells: V/3 − 2V/3 = −V/3.
        assert!((bias.cell_voltage(CellAddress::new(0, 0)).0 + 0.3).abs() < 1e-12);
    }

    #[test]
    fn grounded_scheme_exposes_full_voltage() {
        let bias =
            WriteScheme::GroundedUnselected.line_bias(3, 3, CellAddress::new(0, 0), Volts(1.0));
        assert!((bias.cell_voltage(CellAddress::new(0, 2)).0 - 1.0).abs() < 1e-12);
        assert!(bias.cell_voltage(CellAddress::new(2, 2)).0.abs() < 1e-12);
    }

    #[test]
    fn half_select_voltage_matches_scheme() {
        assert!(
            (WriteScheme::HalfVoltage.half_select_voltage(Volts(1.05)).0 - 0.525).abs() < 1e-12
        );
        assert!(
            (WriteScheme::ThirdVoltage.half_select_voltage(Volts(1.05)).0 - 0.35).abs() < 1e-12
        );
        assert!(
            (WriteScheme::GroundedUnselected
                .half_select_voltage(Volts(1.05))
                .0
                - 1.05)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn unselected_levels_are_the_line_bias_levels_bitwise() {
        // The pulse engine builds its voltage patterns from the raw
        // levels; they must be the very same floats line_bias installs.
        for scheme in WriteScheme::ALL {
            let v = Volts(1.05);
            let (wl, bl) = scheme.unselected_levels(v);
            let bias = scheme.line_bias(3, 3, CellAddress::new(0, 0), v);
            assert_eq!(bias.word_lines[1].0.to_bits(), wl.0.to_bits());
            assert_eq!(bias.bit_lines[1].0.to_bits(), bl.0.to_bits());
        }
    }

    #[test]
    fn cell_address_helpers() {
        let a = CellAddress::new(2, 2);
        assert_eq!(a.chebyshev_distance(CellAddress::new(3, 1)), 1);
        assert_eq!(a.chebyshev_distance(CellAddress::new(2, 2)), 0);
        assert_eq!(a.chebyshev_distance(CellAddress::new(0, 4)), 2);
        assert!(a.shares_line_with(CellAddress::new(2, 4)));
        assert!(a.shares_line_with(CellAddress::new(0, 2)));
        assert!(!a.shares_line_with(CellAddress::new(0, 0)));
    }

    #[test]
    #[should_panic(expected = "outside the array")]
    fn out_of_range_selection_panics() {
        WriteScheme::HalfVoltage.line_bias(2, 2, CellAddress::new(5, 0), Volts(1.0));
    }
}
