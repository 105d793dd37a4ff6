//! Switched-capacitance model for the power computation.
//!
//! Cycle energy is `½·Vdd²·Σ_g C_g·toggles_g`; this module supplies `C_g`.
//! The model is the standard gate-level abstraction: each gate contributes
//! an intrinsic output capacitance plus a wire/input load proportional to
//! its fanout. Values default to a generic 0.5 µm-era library (the paper's
//! PowerMill runs were on mid-90s technology); absolute calibration only
//! scales every power number identically, which is irrelevant to the
//! statistical method being reproduced.

use crate::circuit::{Circuit, NodeId};
use crate::gate::GateKind;

/// Maps gates to switched capacitance (in femtofarads).
///
/// # Example
///
/// ```
/// use mpe_netlist::{CapacitanceModel, CircuitBuilder, GateKind};
/// # fn main() -> Result<(), mpe_netlist::NetlistError> {
/// let mut b = CircuitBuilder::new();
/// let a = b.input("a");
/// let x = b.gate("x", GateKind::Not, &[a])?;
/// let y = b.gate("y", GateKind::Nand, &[a, x])?;
/// b.mark_output(y);
/// let c = b.build()?;
/// let model = CapacitanceModel::default();
/// let caps = model.node_capacitances(&c);
/// assert_eq!(caps.len(), c.num_nodes());
/// assert!(caps.iter().all(|&c| c > 0.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacitanceModel {
    /// Intrinsic output capacitance of an inverter/buffer (fF).
    pub unit_gate_cap: f64,
    /// Additional intrinsic capacitance per gate input pin (fF) — wider
    /// gates have larger diffusion/gate loads.
    pub per_fanin_cap: f64,
    /// Wire + downstream input-pin load per fanout branch (fF).
    pub per_fanout_cap: f64,
    /// Load seen by a primary output pin (fF).
    pub output_pin_cap: f64,
}

impl Default for CapacitanceModel {
    fn default() -> Self {
        CapacitanceModel {
            unit_gate_cap: 8.0,
            per_fanin_cap: 3.0,
            per_fanout_cap: 5.0,
            output_pin_cap: 20.0,
        }
    }
}

impl CapacitanceModel {
    /// Switched capacitance at the output net of one node.
    fn node_capacitance(&self, circuit: &Circuit, id: NodeId) -> f64 {
        let kind = circuit.kind(id);
        let fanin = circuit.fanin(id).len() as f64;
        let fanout = circuit.fanout_count(id) as f64;
        let intrinsic = if kind == GateKind::Input {
            // Primary input pin driving the first level of logic.
            0.0
        } else {
            self.unit_gate_cap + self.per_fanin_cap * fanin
        };
        let pin = if circuit.outputs().contains(&id) {
            self.output_pin_cap
        } else {
            0.0
        };
        intrinsic + self.per_fanout_cap * fanout + pin
    }

    /// Capacitance of every node, indexed by `NodeId` — precompute once per
    /// circuit and reuse across millions of vector pairs.
    pub fn node_capacitances(&self, circuit: &Circuit) -> Vec<f64> {
        circuit
            .node_ids()
            .map(|id| self.node_capacitance(circuit, id))
            .collect()
    }

    /// Total capacitance of the circuit (the upper bound on switched
    /// capacitance in one cycle).
    pub fn total_capacitance(&self, circuit: &Circuit) -> f64 {
        self.node_capacitances(circuit).iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitBuilder;

    fn chain() -> Circuit {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let x = b.gate("x", GateKind::Not, &[a]).unwrap();
        let y = b.gate("y", GateKind::Not, &[x]).unwrap();
        b.mark_output(y);
        b.build().unwrap()
    }

    #[test]
    fn inverter_chain_capacitances() {
        let c = chain();
        let m = CapacitanceModel::default();
        let caps = m.node_capacitances(&c);
        let a = c.find("a").unwrap().index();
        let x = c.find("x").unwrap().index();
        let y = c.find("y").unwrap().index();
        // input: only fanout load
        assert_eq!(caps[a], m.per_fanout_cap);
        // x: intrinsic + 1 fanin + 1 fanout
        assert_eq!(
            caps[x],
            m.unit_gate_cap + m.per_fanin_cap + m.per_fanout_cap
        );
        // y: intrinsic + fanin + output pin, no fanout
        assert_eq!(
            caps[y],
            m.unit_gate_cap + m.per_fanin_cap + m.output_pin_cap
        );
    }

    #[test]
    fn wider_gates_cost_more() {
        let mut b = CircuitBuilder::new();
        let i1 = b.input("i1");
        let i2 = b.input("i2");
        let i3 = b.input("i3");
        let narrow = b.gate("narrow", GateKind::And, &[i1, i2]).unwrap();
        let wide = b.gate("wide", GateKind::And, &[i1, i2, i3]).unwrap();
        b.mark_output(narrow);
        b.mark_output(wide);
        let c = b.build().unwrap();
        let m = CapacitanceModel::default();
        assert!(
            m.node_capacitance(&c, c.find("wide").unwrap())
                > m.node_capacitance(&c, c.find("narrow").unwrap())
        );
    }

    #[test]
    fn total_is_sum() {
        let c = chain();
        let m = CapacitanceModel::default();
        let caps = m.node_capacitances(&c);
        assert!((m.total_capacitance(&c) - caps.iter().sum::<f64>()).abs() < 1e-12);
    }

    #[test]
    fn custom_model_respected() {
        let c = chain();
        let m = CapacitanceModel {
            unit_gate_cap: 1.0,
            per_fanin_cap: 0.0,
            per_fanout_cap: 0.0,
            output_pin_cap: 0.0,
        };
        let y = c.find("y").unwrap();
        assert_eq!(m.node_capacitance(&c, y), 1.0);
    }
}
