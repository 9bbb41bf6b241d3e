//! Circuit description: nodes and elements.

use std::fmt;

/// Identifier of a circuit node. Node 0 is always ground.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The ground node.
    pub const GROUND: NodeId = NodeId(0);

    /// Returns `true` for the ground node.
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }
}

/// A nonlinear two-terminal device that can be stamped into the MNA system.
///
/// `voltage` is the voltage from terminal `a` to terminal `b`. Implementors
/// provide the static current and (differential) conductance used for the
/// Newton linearisation.
pub trait NonlinearTwoTerminal: fmt::Debug {
    /// Static current through the device at the given branch voltage, A.
    fn current(&self, voltage: f64) -> f64;

    /// Differential conductance dI/dV at the given branch voltage, S.
    ///
    /// The default implementation uses a symmetric finite difference.
    fn conductance(&self, voltage: f64) -> f64 {
        let dv = 1e-6;
        (self.current(voltage + dv) - self.current(voltage - dv)) / (2.0 * dv)
    }
}

/// One element of the netlist.
#[derive(Debug)]
pub(crate) enum Element {
    /// Ideal resistor of `ohms` between `a` and `b`.
    Resistor { a: NodeId, b: NodeId, ohms: f64 },
    /// Ideal DC voltage source of `volts` from `minus` to `plus`.
    VoltageSource {
        plus: NodeId,
        minus: NodeId,
        volts: f64,
    },
    /// A nonlinear device from `a` (positive voltage reference) to `b`.
    Nonlinear {
        a: NodeId,
        b: NodeId,
        device: Box<dyn NonlinearTwoTerminal>,
    },
}

/// A circuit netlist. Nodes are numbered in the order they are added, and
/// elements are stamped in the order they are added, so the same sequence
/// of calls always assembles the same system.
#[derive(Debug)]
pub struct Netlist {
    node_count: usize,
    elements: Vec<Element>,
}

impl Default for Netlist {
    fn default() -> Self {
        Netlist::new()
    }
}

impl Netlist {
    /// Creates an empty netlist containing only the ground node.
    pub fn new() -> Self {
        Netlist {
            node_count: 1,
            elements: Vec::new(),
        }
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.node_count += 1;
        NodeId(self.node_count - 1)
    }

    /// Number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of independent voltage sources.
    pub fn voltage_source_count(&self) -> usize {
        self.elements
            .iter()
            .filter(|e| matches!(e, Element::VoltageSource { .. }))
            .count()
    }

    /// Elements of the netlist, in the order they were added.
    pub(crate) fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Adds a resistor.
    ///
    /// # Panics
    ///
    /// Panics if `ohms` is not strictly positive.
    pub fn add_resistor(&mut self, a: NodeId, b: NodeId, ohms: f64) {
        assert!(
            ohms > 0.0 && ohms.is_finite(),
            "resistance must be positive"
        );
        self.elements.push(Element::Resistor { a, b, ohms });
    }

    /// Adds an independent DC voltage source holding `plus` at `volts`
    /// above `minus`.
    pub fn add_voltage_source(&mut self, plus: NodeId, minus: NodeId, volts: f64) {
        self.elements
            .push(Element::VoltageSource { plus, minus, volts });
    }

    /// Adds a nonlinear two-terminal device.
    pub fn add_nonlinear(&mut self, a: NodeId, b: NodeId, device: Box<dyn NonlinearTwoTerminal>) {
        self.elements.push(Element::Nonlinear { a, b, device });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_are_numbered_in_order_after_ground() {
        let mut n = Netlist::new();
        assert_eq!(n.node_count(), 1);
        assert_eq!(n.add_node(), NodeId(1));
        assert_eq!(n.add_node(), NodeId(2));
        assert_eq!(n.node_count(), 3);
        assert!(NodeId::GROUND.is_ground());
        assert!(!NodeId(1).is_ground());
    }

    #[test]
    fn voltage_sources_are_counted() {
        let mut n = Netlist::new();
        let a = n.add_node();
        let b = n.add_node();
        n.add_resistor(a, b, 100.0);
        n.add_voltage_source(a, NodeId::GROUND, 1.0);
        n.add_voltage_source(b, NodeId::GROUND, 0.5);
        assert_eq!(n.elements().len(), 3);
        assert_eq!(n.voltage_source_count(), 2);
    }

    #[test]
    #[should_panic(expected = "resistance must be positive")]
    fn zero_resistance_rejected() {
        let mut n = Netlist::new();
        let a = n.add_node();
        n.add_resistor(a, NodeId::GROUND, 0.0);
    }

    #[derive(Debug)]
    struct Diode;
    impl NonlinearTwoTerminal for Diode {
        fn current(&self, v: f64) -> f64 {
            1e-12 * ((v / 0.026).exp() - 1.0)
        }
    }

    #[test]
    fn default_conductance_is_finite_difference() {
        let d = Diode;
        let g = d.conductance(0.3);
        let expected = 1e-12 / 0.026 * (0.3f64 / 0.026).exp();
        assert!((g - expected).abs() / expected < 1e-3);
    }
}
