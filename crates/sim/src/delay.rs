//! Gate delay models.

use mpe_netlist::{Circuit, NodeId};

/// How long a gate takes to propagate an input change to its output.
///
/// The paper stresses that simulation-based estimation is *not* tied to
/// simple delay models (its advantage over ATPG methods, which are stuck
/// with zero/unit delay). Three models are provided; the ablation bench
/// `ablation_delay_model` quantifies how the choice moves the power
/// distribution:
///
/// * [`DelayModel::Zero`] — outputs settle instantly; each gate toggles at
///   most once per cycle (no glitches). Fast, optimistic.
/// * [`DelayModel::Unit`] — every gate takes one time unit; glitches on
///   reconvergent paths are captured.
/// * [`DelayModel::FanoutProportional`] — delay grows with fanout
///   (`base + per_fanout·fanout`), the standard first-order loading model;
///   produces the most realistic glitch profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DelayModel {
    /// Zero delay: steady-state comparison only.
    Zero,
    /// One time unit per gate.
    Unit,
    /// `base + per_fanout × fanout` time units per gate.
    FanoutProportional {
        /// Intrinsic gate delay (time units).
        base: u32,
        /// Extra delay per fanout branch (time units).
        per_fanout: u32,
    },
}

impl DelayModel {
    /// A reasonable default loading model (`base = 2`, `per_fanout = 1`).
    pub fn fanout_default() -> DelayModel {
        DelayModel::FanoutProportional {
            base: 2,
            per_fanout: 1,
        }
    }

    /// Parses a CLI-style delay-model name; `fanout` is
    /// [`DelayModel::fanout_default`].
    pub fn parse(s: &str) -> Option<DelayModel> {
        match s {
            "zero" => Some(DelayModel::Zero),
            "unit" => Some(DelayModel::Unit),
            "fanout" => Some(DelayModel::fanout_default()),
            _ => None,
        }
    }

    /// The name [`DelayModel::parse`] accepts for this model (every
    /// fanout-proportional model is `fanout`).
    pub fn as_str(self) -> &'static str {
        match self {
            DelayModel::Zero => "zero",
            DelayModel::Unit => "unit",
            DelayModel::FanoutProportional { .. } => "fanout",
        }
    }

    /// Delay of `node` under this model, in abstract time units.
    ///
    /// Zero-delay returns 0 for every gate (the engine special-cases the
    /// whole simulation in that mode anyway).
    pub fn gate_delay(&self, circuit: &Circuit, node: NodeId) -> u64 {
        match *self {
            DelayModel::Zero => 0,
            DelayModel::Unit => 1,
            DelayModel::FanoutProportional { base, per_fanout } => {
                base as u64 + per_fanout as u64 * circuit.fanout_count(node) as u64
            }
        }
    }
}

impl std::fmt::Display for DelayModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DelayModel::Zero => write!(f, "zero-delay"),
            DelayModel::Unit => write!(f, "unit-delay"),
            DelayModel::FanoutProportional { base, per_fanout } => {
                write!(f, "fanout-delay(base={base}, per_fanout={per_fanout})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpe_netlist::{CircuitBuilder, GateKind};

    fn fanout_circuit() -> Circuit {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let x = b.gate("x", GateKind::Not, &[a]).unwrap();
        let y1 = b.gate("y1", GateKind::Not, &[x]).unwrap();
        let y2 = b.gate("y2", GateKind::Not, &[x]).unwrap();
        b.mark_output(y1);
        b.mark_output(y2);
        b.build().unwrap()
    }

    #[test]
    fn zero_and_unit() {
        let c = fanout_circuit();
        let x = c.find("x").unwrap();
        assert_eq!(DelayModel::Zero.gate_delay(&c, x), 0);
        assert_eq!(DelayModel::Unit.gate_delay(&c, x), 1);
    }

    #[test]
    fn fanout_proportional_scales() {
        let c = fanout_circuit();
        let m = DelayModel::FanoutProportional {
            base: 2,
            per_fanout: 3,
        };
        let x = c.find("x").unwrap(); // fanout 2
        let y1 = c.find("y1").unwrap(); // fanout 0 (output)
        assert_eq!(m.gate_delay(&c, x), 2 + 3 * 2);
        assert_eq!(m.gate_delay(&c, y1), 2);
    }

    #[test]
    fn display_strings() {
        assert_eq!(DelayModel::Zero.to_string(), "zero-delay");
        assert_eq!(DelayModel::Unit.to_string(), "unit-delay");
        assert!(DelayModel::fanout_default().to_string().contains("base=2"));
    }

    #[test]
    fn names_roundtrip() {
        for model in [
            DelayModel::Zero,
            DelayModel::Unit,
            DelayModel::fanout_default(),
        ] {
            assert_eq!(DelayModel::parse(model.as_str()), Some(model));
        }
        assert_eq!(DelayModel::parse("fast"), None);
    }
}
