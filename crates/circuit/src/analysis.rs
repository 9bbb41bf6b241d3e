//! Modified nodal analysis: the Newton–Raphson DC operating point.
//!
//! The unknown vector contains the voltages of all non-ground nodes followed
//! by the branch currents of the independent voltage sources. Nonlinear
//! devices are linearised around the current candidate at every iteration.

use std::error::Error;
use std::fmt;

use crate::dense::{DenseMatrix, LinearError};
use crate::netlist::{Element, Netlist, NodeId};

/// Convergence tolerance on the largest voltage update, V.
const TOLERANCE: f64 = 1e-9;
/// Maximum number of Newton iterations.
const MAX_ITERATIONS: usize = 200;
/// Largest voltage update per iteration (damping), V.
const MAX_STEP: f64 = 0.5;

/// Errors produced by the DC solve.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitError {
    /// The linear solve inside a Newton iteration failed.
    Linear(LinearError),
    /// Newton–Raphson did not converge.
    NewtonDiverged {
        /// Iterations performed.
        iterations: usize,
        /// Largest voltage update of the last iteration.
        last_update: f64,
    },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::Linear(e) => write!(f, "linear solve failed: {e}"),
            CircuitError::NewtonDiverged {
                iterations,
                last_update,
            } => write!(
                f,
                "newton iteration diverged after {iterations} iterations (last update {last_update:.3e} V)"
            ),
        }
    }
}

impl Error for CircuitError {}

impl From<LinearError> for CircuitError {
    fn from(e: LinearError) -> Self {
        CircuitError::Linear(e)
    }
}

/// Result of a DC solve.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    node_voltages: Vec<f64>,
    source_currents: Vec<f64>,
}

impl Solution {
    /// Voltage of a node (ground reads 0).
    pub fn voltage(&self, node: NodeId) -> f64 {
        self.node_voltages[node.0]
    }

    /// Branch current of the `k`-th voltage source (in the order they were
    /// added to the netlist). Positive current flows from the positive
    /// terminal through the source to the negative terminal.
    pub fn source_current(&self, k: usize) -> f64 {
        self.source_currents[k]
    }
}

fn assemble(netlist: &Netlist, candidate: &[f64]) -> (DenseMatrix, Vec<f64>) {
    let n_nodes = netlist.node_count();
    let n_unknown_nodes = n_nodes - 1;
    let n_sources = netlist.voltage_source_count();
    let dim = n_unknown_nodes + n_sources;

    let mut matrix = DenseMatrix::zeros(dim, dim);
    let mut rhs = vec![0.0; dim];

    // Helper closures translating node ids into matrix rows (ground drops out).
    let row_of = |node: NodeId| -> Option<usize> {
        if node.is_ground() {
            None
        } else {
            Some(node.0 - 1)
        }
    };
    let stamp_conductance = |m: &mut DenseMatrix, a: NodeId, b: NodeId, g: f64| {
        if let Some(ra) = row_of(a) {
            m[(ra, ra)] += g;
        }
        if let Some(rb) = row_of(b) {
            m[(rb, rb)] += g;
        }
        if let (Some(ra), Some(rb)) = (row_of(a), row_of(b)) {
            m[(ra, rb)] -= g;
            m[(rb, ra)] -= g;
        }
    };

    let mut source_index = 0usize;
    for element in netlist.elements() {
        match element {
            Element::Resistor { a, b, ohms } => {
                stamp_conductance(&mut matrix, *a, *b, 1.0 / ohms);
            }
            Element::VoltageSource { plus, minus, volts } => {
                let col = n_unknown_nodes + source_index;
                if let Some(rp) = row_of(*plus) {
                    matrix[(rp, col)] += 1.0;
                    matrix[(col, rp)] += 1.0;
                }
                if let Some(rm) = row_of(*minus) {
                    matrix[(rm, col)] -= 1.0;
                    matrix[(col, rm)] -= 1.0;
                }
                rhs[col] = *volts;
                source_index += 1;
            }
            Element::Nonlinear { a, b, device } => {
                let v = candidate[a.0] - candidate[b.0];
                let i0 = device.current(v);
                let g = device.conductance(v).max(1e-15);
                stamp_conductance(&mut matrix, *a, *b, g);
                // Linearised constant term: i(v) ≈ g·v + (i0 − g·v₀); the
                // constant part acts as a current source from a to b.
                let amps = g * v - i0;
                if let Some(r) = row_of(*a) {
                    rhs[r] += amps;
                }
                if let Some(r) = row_of(*b) {
                    rhs[r] -= amps;
                }
            }
        }
    }

    (matrix, rhs)
}

fn newton_solve(netlist: &Netlist, mut node_voltages: Vec<f64>) -> Result<Solution, CircuitError> {
    let n_nodes = netlist.node_count();
    let n_unknown = n_nodes - 1;
    let mut source_currents = vec![0.0; netlist.voltage_source_count()];

    let mut last_update = f64::INFINITY;
    for _iteration in 0..MAX_ITERATIONS {
        let (matrix, rhs) = assemble(netlist, &node_voltages);
        let x = matrix.solve(&rhs)?;

        last_update = 0.0;
        for node in 1..n_nodes {
            let new = x[node - 1];
            let delta = (new - node_voltages[node]).clamp(-MAX_STEP, MAX_STEP);
            last_update = last_update.max(delta.abs());
            node_voltages[node] += delta;
        }
        let n_sources = source_currents.len();
        source_currents.copy_from_slice(&x[n_unknown..n_unknown + n_sources]);
        if last_update < TOLERANCE {
            return Ok(Solution {
                node_voltages,
                source_currents,
            });
        }
    }
    Err(CircuitError::NewtonDiverged {
        iterations: MAX_ITERATIONS,
        last_update,
    })
}

/// Computes the DC operating point of the netlist, starting the Newton
/// iteration from 0 V on every node.
///
/// # Errors
///
/// Returns [`CircuitError`] if the Newton iteration or the linear solver fail.
pub fn solve_dc(netlist: &Netlist) -> Result<Solution, CircuitError> {
    newton_solve(netlist, vec![0.0; netlist.node_count()])
}

/// Computes the DC operating point of the netlist, starting the Newton
/// iteration from the node voltages of `start` — typically the solution of
/// the same network before its nonlinear devices moved.
///
/// # Errors
///
/// Returns [`CircuitError`] if the Newton iteration or the linear solver fail.
///
/// # Panics
///
/// Panics if `start` has a different node count than the netlist.
pub fn solve_dc_from(netlist: &Netlist, start: &Solution) -> Result<Solution, CircuitError> {
    assert_eq!(
        start.node_voltages.len(),
        netlist.node_count(),
        "start solution has the wrong node count"
    );
    newton_solve(netlist, start.node_voltages.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NonlinearTwoTerminal;

    fn divider() -> (Netlist, NodeId, NodeId) {
        let mut n = Netlist::new();
        let top = n.add_node();
        let mid = n.add_node();
        n.add_voltage_source(top, NodeId::GROUND, 2.0);
        n.add_resistor(top, mid, 1_000.0);
        n.add_resistor(mid, NodeId::GROUND, 1_000.0);
        (n, top, mid)
    }

    #[test]
    fn voltage_divider_dc() {
        let (n, top, mid) = divider();
        let sol = solve_dc(&n).unwrap();
        assert!((sol.voltage(mid) - 1.0).abs() < 1e-9);
        assert!((sol.voltage(top) - 2.0).abs() < 1e-9);
        // Source current: 2 V over 2 kΩ = 1 mA, flowing out of + terminal.
        assert!((sol.source_current(0).abs() - 1e-3).abs() < 1e-9);
    }

    #[derive(Debug)]
    struct Diode;
    impl NonlinearTwoTerminal for Diode {
        fn current(&self, v: f64) -> f64 {
            1e-12 * ((v / 0.02585).exp() - 1.0)
        }
    }

    fn diode_circuit() -> (Netlist, NodeId) {
        let mut n = Netlist::new();
        let top = n.add_node();
        let mid = n.add_node();
        n.add_voltage_source(top, NodeId::GROUND, 1.0);
        n.add_resistor(top, mid, 1_000.0);
        n.add_nonlinear(mid, NodeId::GROUND, Box::new(Diode));
        (n, mid)
    }

    #[test]
    fn diode_resistor_dc_converges() {
        let (n, mid) = diode_circuit();
        let sol = solve_dc(&n).unwrap();
        let v_diode = sol.voltage(mid);
        // The diode drop should land in the usual 0.5–0.7 V window and KCL
        // must hold: (1 − v)/1k ≈ I_diode(v).
        assert!(v_diode > 0.4 && v_diode < 0.8, "v_diode = {v_diode}");
        let i_r = (1.0 - v_diode) / 1_000.0;
        let i_d = Diode.current(v_diode);
        assert!((i_r - i_d).abs() < 1e-6 * i_r.max(1e-12));
    }

    #[test]
    fn a_solve_from_the_solution_stays_there() {
        let (n, mid) = diode_circuit();
        let sol = solve_dc(&n).unwrap();
        let again = solve_dc_from(&n, &sol).unwrap();
        assert!((again.voltage(mid) - sol.voltage(mid)).abs() < 1e-9);
        let (divider, _, _) = divider();
        let linear = solve_dc(&divider).unwrap();
        assert_eq!(solve_dc_from(&divider, &linear).unwrap(), linear);
    }

    #[test]
    #[should_panic(expected = "wrong node count")]
    fn a_start_from_another_network_panics() {
        let (n, _) = diode_circuit();
        let mut other = Netlist::new();
        let a = other.add_node();
        other.add_resistor(a, NodeId::GROUND, 1.0);
        let start = solve_dc(&other).unwrap();
        let _ = solve_dc_from(&n, &start);
    }

    #[test]
    fn floating_node_reports_singular_matrix() {
        let mut n = Netlist::new();
        let a = n.add_node();
        // The second node has no connection at all: the MNA matrix is
        // singular.
        n.add_node();
        n.add_voltage_source(a, NodeId::GROUND, 1.0);
        n.add_resistor(a, NodeId::GROUND, 100.0);
        let err = solve_dc(&n).unwrap_err();
        assert!(matches!(err, CircuitError::Linear(_)));
    }
}
