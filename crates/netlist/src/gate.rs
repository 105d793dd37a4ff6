//! Gate types and their boolean semantics.

/// The gate vocabulary of ISCAS85-class combinational netlists.
///
/// `Input` marks a primary input node (no logic, no fan-in); every other
/// kind evaluates a boolean function of its fan-in values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Primary input (no fan-in).
    Input,
    /// Identity buffer (1 input).
    Buf,
    /// Inverter (1 input).
    Not,
    /// Logical AND (≥ 2 inputs).
    And,
    /// Inverted AND (≥ 2 inputs).
    Nand,
    /// Logical OR (≥ 2 inputs).
    Or,
    /// Inverted OR (≥ 2 inputs).
    Nor,
    /// Parity (≥ 2 inputs).
    Xor,
    /// Inverted parity (≥ 2 inputs).
    Xnor,
}

impl GateKind {
    /// The permitted fan-in range `(min, max)` for this kind.
    pub fn arity(self) -> (usize, usize) {
        match self {
            GateKind::Input => (0, 0),
            GateKind::Buf | GateKind::Not => (1, 1),
            _ => (2, usize::MAX),
        }
    }

    /// Evaluates the gate over its input values.
    ///
    /// # Panics
    ///
    /// Debug-asserts the arity; on malformed fan-in in release builds the
    /// result is unspecified but memory-safe. Netlists built through
    /// [`crate::CircuitBuilder`] are always arity-correct.
    pub fn eval(self, inputs: &[bool]) -> bool {
        debug_assert!(
            inputs.len() >= self.arity().0 && inputs.len() <= self.arity().1,
            "arity violation for {self:?}: {}",
            inputs.len()
        );
        match self {
            GateKind::Input => false, // value supplied externally, never evaluated
            GateKind::Buf => inputs[0],
            GateKind::Not => !inputs[0],
            GateKind::And => inputs.iter().all(|&b| b),
            GateKind::Nand => !inputs.iter().all(|&b| b),
            GateKind::Or => inputs.iter().any(|&b| b),
            GateKind::Nor => !inputs.iter().any(|&b| b),
            GateKind::Xor => inputs.iter().fold(false, |acc, &b| acc ^ b),
            GateKind::Xnor => !inputs.iter().fold(false, |acc, &b| acc ^ b),
        }
    }

    /// The canonical `.bench` keyword for this kind.
    pub fn bench_keyword(self) -> &'static str {
        match self {
            GateKind::Input => "INPUT",
            GateKind::Buf => "BUFF",
            GateKind::Not => "NOT",
            GateKind::And => "AND",
            GateKind::Nand => "NAND",
            GateKind::Or => "OR",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
        }
    }

    /// Parses a `.bench` keyword (case-insensitive; accepts both `BUF` and
    /// `BUFF`). Returns `None` for unknown keywords.
    pub fn from_bench_keyword(word: &str) -> Option<GateKind> {
        match word.to_ascii_uppercase().as_str() {
            "INPUT" => Some(GateKind::Input),
            "BUF" | "BUFF" => Some(GateKind::Buf),
            "NOT" | "INV" => Some(GateKind::Not),
            "AND" => Some(GateKind::And),
            "NAND" => Some(GateKind::Nand),
            "OR" => Some(GateKind::Or),
            "NOR" => Some(GateKind::Nor),
            "XOR" => Some(GateKind::Xor),
            "XNOR" => Some(GateKind::Xnor),
            _ => None,
        }
    }
}

impl std::fmt::Display for GateKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.bench_keyword())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_tables_two_inputs() {
        let cases = [
            (GateKind::And, [false, false, false, true]),
            (GateKind::Nand, [true, true, true, false]),
            (GateKind::Or, [false, true, true, true]),
            (GateKind::Nor, [true, false, false, false]),
            (GateKind::Xor, [false, true, true, false]),
            (GateKind::Xnor, [true, false, false, true]),
        ];
        for (kind, expect) in cases {
            for (i, &e) in expect.iter().enumerate() {
                let a = i & 1 != 0;
                let b = i & 2 != 0;
                assert_eq!(kind.eval(&[a, b]), e, "{kind} ({a},{b})");
            }
        }
    }

    #[test]
    fn unary_gates() {
        assert!(GateKind::Buf.eval(&[true]));
        assert!(!GateKind::Buf.eval(&[false]));
        assert!(!GateKind::Not.eval(&[true]));
        assert!(GateKind::Not.eval(&[false]));
    }

    #[test]
    fn wide_gates() {
        let inputs = [true, true, true, false, true];
        assert!(!GateKind::And.eval(&inputs));
        assert!(GateKind::Or.eval(&inputs));
        assert!(!GateKind::Xor.eval(&inputs)); // four trues -> even parity
    }

    #[test]
    fn xor_parity_semantics() {
        // parity of the number of true inputs
        assert!(!GateKind::Xor.eval(&[true, true]));
        assert!(GateKind::Xor.eval(&[true, true, true]));
        assert!(GateKind::Xnor.eval(&[true, true, false, false]));
    }

    #[test]
    fn keyword_roundtrip() {
        use GateKind::*;
        for kind in [Input, Buf, Not, And, Nand, Or, Nor, Xor, Xnor] {
            assert_eq!(
                GateKind::from_bench_keyword(kind.bench_keyword()),
                Some(kind)
            );
        }
        assert_eq!(GateKind::from_bench_keyword("input"), Some(GateKind::Input));
        assert_eq!(GateKind::from_bench_keyword("buf"), Some(GateKind::Buf));
        assert_eq!(GateKind::from_bench_keyword("INV"), Some(GateKind::Not));
        assert_eq!(GateKind::from_bench_keyword("MYSTERY"), None);
    }

    #[test]
    fn arity_ranges() {
        assert_eq!(GateKind::Input.arity(), (0, 0));
        assert_eq!(GateKind::Not.arity(), (1, 1));
        assert_eq!(GateKind::And.arity().0, 2);
    }
}
