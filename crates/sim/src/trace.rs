//! Waveform tracing: per-node transition capture and VCD export.
//!
//! When the single number from the power estimator is not enough — why is
//! this vector pair the hot one? where do the glitch trains run? — the
//! tracer replays one vector pair through the event-driven kernel's
//! semantics and records every transition with its timestamp. The trace
//! exports as an IEEE-1364 Value Change Dump, viewable in GTKWave and
//! every other waveform browser.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Write as _;

use mpe_netlist::{Circuit, GateKind, NodeId};

use crate::delay::DelayModel;
use crate::error::SimError;

/// One recorded transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// Simulation time (delay units; the second vector lands at t = 0).
    pub time: u64,
    /// The node that changed.
    pub node: NodeId,
    /// The new value.
    pub value: bool,
}

/// A captured waveform for one vector pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Waveform {
    initial: Vec<bool>,
    transitions: Vec<Transition>,
    settle_time: u64,
}

impl Waveform {
    /// Replays `(v1, v2)` on `circuit` under `delay`, recording every
    /// transition (the same re-evaluation semantics as the power engine, so
    /// toggle counts here match [`crate::CycleReport::toggles`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WidthMismatch`] on wrong vector widths. The
    /// zero-delay model has no event times; it is traced as unit delay.
    pub fn capture(
        circuit: &Circuit,
        v1: &[bool],
        v2: &[bool],
        delay: DelayModel,
    ) -> Result<Waveform, SimError> {
        let width = circuit.num_inputs();
        if v1.len() != width || v2.len() != width {
            return Err(SimError::WidthMismatch {
                expected: width,
                got: v1.len().min(v2.len()),
            });
        }
        let delay = if delay == DelayModel::Zero {
            DelayModel::Unit
        } else {
            delay
        };
        let delays: Vec<u64> = circuit
            .node_ids()
            .map(|id| delay.gate_delay(circuit, id).max(1))
            .collect();

        let mut values = Vec::new();
        circuit.evaluate_into(v1, &mut values);
        let initial = values.clone();
        let mut transitions = Vec::new();
        let mut settle_time = 0u64;

        let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
        for (&id, &bit) in circuit.inputs().iter().zip(v2) {
            if values[id.index()] != bit {
                values[id.index()] = bit;
                transitions.push(Transition {
                    time: 0,
                    node: id,
                    value: bit,
                });
                for &f in circuit.fanouts(id) {
                    heap.push(Reverse((delays[f.index()], f.index() as u32)));
                }
            }
        }
        let mut fanin_vals: Vec<bool> = Vec::with_capacity(8);
        while let Some(Reverse((time, node))) = heap.pop() {
            let id = NodeId::from_index(node as usize);
            if circuit.kind(id) == GateKind::Input {
                continue;
            }
            fanin_vals.clear();
            fanin_vals.extend(circuit.fanin(id).iter().map(|f| values[f.index()]));
            let new_val = circuit.kind(id).eval(&fanin_vals);
            if new_val != values[id.index()] {
                values[id.index()] = new_val;
                transitions.push(Transition {
                    time,
                    node: id,
                    value: new_val,
                });
                settle_time = settle_time.max(time);
                for &f in circuit.fanouts(id) {
                    heap.push(Reverse((time + delays[f.index()], f.index() as u32)));
                }
            }
        }
        Ok(Waveform {
            initial,
            transitions,
            settle_time,
        })
    }

    /// All transitions in time order (ties in node order).
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Time of the final transition.
    pub fn settle_time(&self) -> u64 {
        self.settle_time
    }

    /// Nodes ranked by transition count — the glitchiest first.
    pub fn glitchiest(&self, top: usize) -> Vec<(NodeId, usize)> {
        use std::collections::HashMap;
        let mut counts: HashMap<NodeId, usize> = HashMap::new();
        for t in &self.transitions {
            *counts.entry(t.node).or_insert(0) += 1;
        }
        let mut ranked: Vec<(NodeId, usize)> = counts.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(top);
        ranked
    }

    /// Exports the waveform as an IEEE-1364 Value Change Dump.
    ///
    /// Identifier codes are assigned per node in id order; the timescale is
    /// nominal (`1ns` per delay unit).
    pub fn to_vcd(&self, circuit: &Circuit) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "$date generated by mpe-sim $end");
        let _ = writeln!(out, "$timescale 1ns $end");
        let _ = writeln!(out, "$scope module {} $end", circuit.name());
        let code = |id: NodeId| vcd_code(id.index());
        for id in circuit.node_ids() {
            let _ = writeln!(
                out,
                "$var wire 1 {} {} $end",
                code(id),
                circuit.node_name(id)
            );
        }
        let _ = writeln!(out, "$upscope $end");
        let _ = writeln!(out, "$enddefinitions $end");
        let _ = writeln!(out, "$dumpvars");
        for (i, &v) in self.initial.iter().enumerate() {
            let _ = writeln!(out, "{}{}", u8::from(v), vcd_code(i));
        }
        let _ = writeln!(out, "$end");
        let mut current_time: Option<u64> = None;
        for t in &self.transitions {
            if current_time != Some(t.time) {
                let _ = writeln!(out, "#{}", t.time);
                current_time = Some(t.time);
            }
            let _ = writeln!(out, "{}{}", u8::from(t.value), code(t.node));
        }
        // Close the dump one tick after settling so viewers show the tail.
        let _ = writeln!(out, "#{}", self.settle_time + 1);
        out
    }
}

/// Printable VCD identifier for a node index (base-94 over `!`..`~`).
fn vcd_code(mut index: usize) -> String {
    let mut code = String::new();
    loop {
        code.push((b'!' + (index % 94) as u8) as char);
        index /= 94;
        if index == 0 {
            break;
        }
        index -= 1;
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PowerSimulator;
    use crate::power::PowerConfig;
    use mpe_netlist::{generate, CircuitBuilder, Iscas85};

    fn glitch_circuit() -> Circuit {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let s = b.input("s");
        let na = b.gate("na", GateKind::Not, &[a]).unwrap();
        let x1 = b.gate("x1", GateKind::And, &[a, s]).unwrap();
        let x2 = b.gate("x2", GateKind::And, &[na, s]).unwrap();
        let y = b.gate("y", GateKind::Or, &[x1, x2]).unwrap();
        b.mark_output(y);
        b.build().unwrap()
    }

    #[test]
    fn transitions_ordered_and_counted() {
        let c = glitch_circuit();
        let w = Waveform::capture(&c, &[false, true], &[true, true], DelayModel::Unit).unwrap();
        assert!(!w.transitions().is_empty());
        for pair in w.transitions().windows(2) {
            assert!(pair[0].time <= pair[1].time);
        }
        assert!(w.settle_time() >= 1);
    }

    #[test]
    fn toggle_count_matches_power_engine() {
        let c = generate(Iscas85::C432, 5).unwrap();
        let v1: Vec<bool> = (0..c.num_inputs()).map(|i| i % 3 == 0).collect();
        let v2: Vec<bool> = (0..c.num_inputs()).map(|i| i % 2 == 0).collect();
        for model in [DelayModel::Unit, DelayModel::fanout_default()] {
            let sim = PowerSimulator::new(&c, model, PowerConfig::default());
            let report = sim.cycle_report(&v1, &v2).unwrap();
            let wave = Waveform::capture(&c, &v1, &v2, model).unwrap();
            assert_eq!(wave.transitions().len() as u64, report.toggles, "{model}");
            assert_eq!(wave.settle_time(), report.settle_time, "{model}");
        }
    }

    #[test]
    fn node_transitions_and_glitch_ranking() {
        let c = glitch_circuit();
        let w = Waveform::capture(&c, &[false, true], &[true, true], DelayModel::Unit).unwrap();
        let y = c.find("y").unwrap();
        // y may glitch (0->1->... ) but always ends at its steady value.
        if let Some(last) = w.transitions().iter().rfind(|t| t.node == y) {
            let steady = c.evaluate(&[true, true]);
            assert_eq!(last.value, steady[y.index()]);
        }
        let ranked = w.glitchiest(3);
        assert!(!ranked.is_empty());
        for pair in ranked.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
    }

    #[test]
    fn vcd_export_well_formed() {
        let c = glitch_circuit();
        let w = Waveform::capture(&c, &[false, true], &[true, true], DelayModel::Unit).unwrap();
        let vcd = w.to_vcd(&c);
        assert!(vcd.contains("$timescale 1ns $end"));
        assert!(vcd.contains("$enddefinitions $end"));
        assert!(vcd.contains("$var wire 1 ! a $end"));
        assert!(vcd.contains("$dumpvars"));
        // one #0 section exists because inputs change at t=0
        assert!(vcd.contains("\n#0\n"));
        // every node appears in the initial dump
        let dump_lines = vcd
            .split("$dumpvars")
            .nth(1)
            .unwrap()
            .split("$end")
            .next()
            .unwrap()
            .lines()
            .filter(|l| !l.trim().is_empty())
            .count();
        assert_eq!(dump_lines, c.num_nodes());
    }

    #[test]
    fn vcd_codes_unique_and_printable() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..20_000 {
            let code = vcd_code(i);
            assert!(code.chars().all(|c| ('!'..='~').contains(&c)));
            assert!(seen.insert(code), "collision at {i}");
        }
    }

    #[test]
    fn zero_delay_traced_as_unit() {
        let c = glitch_circuit();
        let a = Waveform::capture(&c, &[false, true], &[true, true], DelayModel::Zero).unwrap();
        let b = Waveform::capture(&c, &[false, true], &[true, true], DelayModel::Unit).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn width_validation() {
        let c = glitch_circuit();
        assert!(Waveform::capture(&c, &[true], &[true, true], DelayModel::Unit).is_err());
    }
}
