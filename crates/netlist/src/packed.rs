//! Word-level (bit-parallel) circuit evaluation.
//!
//! A [`PackedEvaluator`] flattens a [`Circuit`] into CSR (compressed sparse
//! row) adjacency arrays and evaluates **one word of input assignments at
//! once**: each node's value is one [`Block`] whose bit `l` holds the
//! node's boolean value under assignment (lane) `l`. Gate operations become
//! word-wide bitwise ops, so one pass over the netlist amortises
//! instruction and memory traffic across [`Block::LANES`] lanes — 64 for
//! `u64`, 128 for `u128`.
//!
//! The CSR layout itself is width-independent (offsets and adjacency are
//! the same arrays whatever the word), so the evaluator is a plain struct
//! whose *evaluation methods* are generic over the [`Block`] word type;
//! one flattening serves every lane width.
//!
//! The node order is the circuit's existing topological order, so a single
//! forward sweep suffices — exactly like [`Circuit::evaluate_into`], just
//! `LANES` wide.

use crate::block::Block;
use crate::circuit::Circuit;
use crate::gate::GateKind;

/// Number of assignment lanes packed into the default (`u64`) word —
/// kept for callers that are not generic over [`Block`].
pub const LANES: usize = u64::BITS as usize;

/// A CSR-flattened circuit with a word-level evaluator.
///
/// Construction copies the circuit's structure into four flat arrays (fan-in
/// and fanout adjacency in CSR form) plus per-node gate kinds; evaluation
/// then touches only contiguous memory. The evaluator is independent of the
/// source [`Circuit`]'s lifetime.
#[derive(Debug, Clone)]
pub struct PackedEvaluator {
    num_inputs: usize,
    kinds: Vec<GateKind>,
    /// Primary input node indices, in declaration order.
    input_ids: Vec<u32>,
    /// CSR fan-in: node `i`'s fan-ins are `fanin[fanin_offsets[i]..fanin_offsets[i+1]]`.
    fanin_offsets: Vec<u32>,
    fanin: Vec<u32>,
    /// CSR fanout: node `i`'s fanouts are `fanout[fanout_offsets[i]..fanout_offsets[i+1]]`.
    fanout_offsets: Vec<u32>,
    fanout: Vec<u32>,
}

impl PackedEvaluator {
    /// Flattens a circuit into CSR form.
    pub fn new(circuit: &Circuit) -> Self {
        let n = circuit.num_nodes();
        let mut kinds = Vec::with_capacity(n);
        let mut fanin_offsets = Vec::with_capacity(n + 1);
        let mut fanin = Vec::new();
        let mut fanout_offsets = Vec::with_capacity(n + 1);
        let mut fanout = Vec::new();
        fanin_offsets.push(0);
        fanout_offsets.push(0);
        for id in circuit.node_ids() {
            kinds.push(circuit.kind(id));
            fanin.extend(circuit.fanin(id).iter().map(|f| f.index() as u32));
            fanin_offsets.push(fanin.len() as u32);
            fanout.extend(circuit.fanouts(id).iter().map(|f| f.index() as u32));
            fanout_offsets.push(fanout.len() as u32);
        }
        PackedEvaluator {
            num_inputs: circuit.num_inputs(),
            kinds,
            input_ids: circuit.inputs().iter().map(|i| i.index() as u32).collect(),
            fanin_offsets,
            fanin,
            fanout_offsets,
            fanout,
        }
    }

    /// Total node count (primary inputs + gates).
    pub fn num_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// The gate kind of node `i`.
    pub fn kind(&self, i: usize) -> GateKind {
        self.kinds[i]
    }

    /// CSR fan-in indices of node `i`.
    fn fanin_of(&self, i: usize) -> &[u32] {
        let lo = self.fanin_offsets[i] as usize;
        let hi = self.fanin_offsets[i + 1] as usize;
        &self.fanin[lo..hi]
    }

    /// CSR fanout indices of node `i`.
    pub fn fanout_of(&self, i: usize) -> &[u32] {
        let lo = self.fanout_offsets[i] as usize;
        let hi = self.fanout_offsets[i + 1] as usize;
        &self.fanout[lo..hi]
    }

    /// Primary input node indices, in declaration order — the order the
    /// scalar engine applies a new input vector in.
    pub fn input_ids(&self) -> &[u32] {
        &self.input_ids
    }

    /// Evaluates up to [`Block::LANES`] assignments in one sweep.
    ///
    /// `input_words[j]` carries the value of primary input `j` across all
    /// lanes (bit `l` = input `j` under assignment `l`). On return,
    /// `values[i]` holds node `i`'s value across the same lanes. Lanes beyond
    /// the ones actually packed by the caller compute garbage-in/garbage-out
    /// and are simply ignored downstream.
    ///
    /// # Panics
    ///
    /// Panics if `input_words.len() != num_inputs()`.
    pub fn evaluate_packed<B: Block>(&self, input_words: &[B], values: &mut Vec<B>) {
        assert_eq!(
            input_words.len(),
            self.num_inputs,
            "input word count must equal the number of primary inputs"
        );
        values.clear();
        values.resize(self.kinds.len(), B::ZERO);
        for (&id, &w) in self.input_ids.iter().zip(input_words) {
            values[id as usize] = w;
        }
        for i in 0..self.kinds.len() {
            let kind = self.kinds[i];
            if kind == GateKind::Input {
                continue;
            }
            values[i] = eval_packed(kind, self.fanin_of(i), values);
        }
    }

    /// Packs one boolean assignment into lane `lane` of `input_words`.
    ///
    /// `input_words` must already be sized to `num_inputs()`; clears then
    /// sets bit `lane` of each word according to `assignment`.
    ///
    /// # Panics
    ///
    /// Panics if the widths disagree or `lane >= B::LANES`.
    pub fn pack_lane<B: Block>(&self, input_words: &mut [B], lane: usize, assignment: &[bool]) {
        assert_eq!(input_words.len(), self.num_inputs);
        assert_eq!(assignment.len(), self.num_inputs);
        let mask = B::lane_mask(lane);
        for (w, &bit) in input_words.iter_mut().zip(assignment) {
            if bit {
                *w |= mask;
            } else {
                *w &= !mask;
            }
        }
    }

    /// Extracts lane `lane` of `values` for a node index.
    pub fn lane_bit<B: Block>(values: &[B], node: usize, lane: usize) -> bool {
        values[node].get(lane)
    }
}

/// Creates a `PackedEvaluator` for each node id in `circuit` — convenience
/// re-export used by the simulator crate.
impl From<&Circuit> for PackedEvaluator {
    fn from(circuit: &Circuit) -> Self {
        PackedEvaluator::new(circuit)
    }
}

/// Word-wide gate evaluation over CSR fan-in indices.
#[inline]
pub(crate) fn eval_packed<B: Block>(kind: GateKind, fanin: &[u32], values: &[B]) -> B {
    match kind {
        GateKind::Input => B::ZERO,
        GateKind::Buf => values[fanin[0] as usize],
        GateKind::Not => !values[fanin[0] as usize],
        GateKind::And => fanin
            .iter()
            .fold(B::ONES, |acc, &f| acc & values[f as usize]),
        GateKind::Nand => !fanin
            .iter()
            .fold(B::ONES, |acc, &f| acc & values[f as usize]),
        GateKind::Or => fanin
            .iter()
            .fold(B::ZERO, |acc, &f| acc | values[f as usize]),
        GateKind::Nor => !fanin
            .iter()
            .fold(B::ZERO, |acc, &f| acc | values[f as usize]),
        GateKind::Xor => fanin
            .iter()
            .fold(B::ZERO, |acc, &f| acc ^ values[f as usize]),
        GateKind::Xnor => !fanin
            .iter()
            .fold(B::ZERO, |acc, &f| acc ^ values[f as usize]),
    }
}

/// Word-wide evaluation of one node of a [`PackedEvaluator`] — the packed
/// event kernels re-evaluate single gates out of topological order, so the
/// per-gate word op is exposed alongside the full-sweep
/// [`PackedEvaluator::evaluate_packed`].
#[inline]
pub fn eval_node<B: Block>(evaluator: &PackedEvaluator, node: usize, values: &[B]) -> B {
    eval_packed(evaluator.kind(node), evaluator.fanin_of(node), values)
}

/// Scalar reference for documentation and tests: evaluates one lane of a
/// packed sweep exactly like [`Circuit::evaluate`].
pub fn unpack_lane<B: Block>(values: &[B], lane: usize) -> Vec<bool> {
    values.iter().map(|&w| w.get(lane)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitBuilder;
    use crate::generator::random_dag;

    fn xor_via_nands() -> Circuit {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let bb = b.input("b");
        let n1 = b.gate("n1", GateKind::Nand, &[a, bb]).unwrap();
        let n2 = b.gate("n2", GateKind::Nand, &[a, n1]).unwrap();
        let n3 = b.gate("n3", GateKind::Nand, &[bb, n1]).unwrap();
        let n4 = b.gate("n4", GateKind::Nand, &[n2, n3]).unwrap();
        b.mark_output(n4);
        b.build().unwrap()
    }

    #[test]
    fn packed_matches_scalar_truth_table() {
        let c = xor_via_nands();
        let pe = PackedEvaluator::new(&c);
        // Pack all four assignments of (a, b) into four lanes.
        let mut words = vec![0u64; 2];
        let cases = [[false, false], [false, true], [true, false], [true, true]];
        for (lane, assignment) in cases.iter().enumerate() {
            pe.pack_lane(&mut words, lane, assignment);
        }
        let mut values = Vec::new();
        pe.evaluate_packed(&words, &mut values);
        for (lane, assignment) in cases.iter().enumerate() {
            let scalar = c.evaluate(assignment);
            let packed = unpack_lane(&values, lane);
            assert_eq!(scalar, packed, "lane {lane}");
        }
    }

    #[test]
    fn packed_matches_scalar_on_random_dags() {
        for seed in 0..20 {
            let c = random_dag("pk", 6, 3, 40, 6, seed).unwrap();
            let pe = PackedEvaluator::new(&c);
            let mut words = vec![0u64; c.num_inputs()];
            let mut assignments = Vec::new();
            // 64 pseudo-random lanes from a cheap LCG (no RNG dep here).
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            for lane in 0..LANES {
                let a: Vec<bool> = (0..c.num_inputs())
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        (state >> 33) & 1 != 0
                    })
                    .collect();
                pe.pack_lane(&mut words, lane, &a);
                assignments.push(a);
            }
            let mut values = Vec::new();
            pe.evaluate_packed(&words, &mut values);
            for (lane, a) in assignments.iter().enumerate() {
                assert_eq!(
                    c.evaluate(a),
                    unpack_lane(&values, lane),
                    "seed {seed} lane {lane}"
                );
            }
        }
    }

    #[test]
    fn u64_and_u128_words_agree_with_scalar() {
        // One flattening serves both widths: the same assignments packed
        // into `u64` and `u128` words must settle to the same lane values,
        // and both must equal the scalar evaluation.
        for seed in 0..8 {
            let c = random_dag("w", 7, 3, 45, 7, seed).unwrap();
            let pe = PackedEvaluator::new(&c);
            let mut w64 = vec![0u64; c.num_inputs()];
            let mut w128 = vec![0u128; c.num_inputs()];
            let mut assignments = Vec::new();
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            for lane in 0..<u128 as Block>::LANES {
                let a: Vec<bool> = (0..c.num_inputs())
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        (state >> 33) & 1 != 0
                    })
                    .collect();
                if lane < <u64 as Block>::LANES {
                    pe.pack_lane(&mut w64, lane, &a);
                }
                pe.pack_lane(&mut w128, lane, &a);
                assignments.push(a);
            }
            let mut v64 = Vec::new();
            let mut v128 = Vec::new();
            pe.evaluate_packed(&w64, &mut v64);
            pe.evaluate_packed(&w128, &mut v128);
            for (lane, a) in assignments.iter().enumerate() {
                let scalar = c.evaluate(a);
                assert_eq!(scalar, unpack_lane(&v128, lane), "seed {seed} lane {lane}");
                if lane < <u64 as Block>::LANES {
                    assert_eq!(scalar, unpack_lane(&v64, lane), "seed {seed} lane {lane}");
                }
            }
        }
    }

    #[test]
    fn eval_node_matches_full_sweep() {
        let c = xor_via_nands();
        let pe = PackedEvaluator::new(&c);
        let mut words = vec![0u64; 2];
        let cases = [[false, false], [false, true], [true, false], [true, true]];
        for (lane, assignment) in cases.iter().enumerate() {
            pe.pack_lane(&mut words, lane, assignment);
        }
        let mut values = Vec::new();
        pe.evaluate_packed(&words, &mut values);
        for i in 0..pe.num_nodes() {
            if pe.kind(i) == GateKind::Input {
                continue;
            }
            let low = eval_node(&pe, i, &values) & 0xF;
            assert_eq!(low, values[i] & 0xF, "node {i}");
        }
    }

    #[test]
    fn csr_matches_circuit_adjacency() {
        let c = xor_via_nands();
        let pe = PackedEvaluator::new(&c);
        assert_eq!(pe.num_nodes(), c.num_nodes());
        assert_eq!(pe.num_inputs(), c.num_inputs());
        for id in c.node_ids() {
            let i = id.index();
            assert_eq!(pe.kind(i), c.kind(id));
            let fanin: Vec<u32> = c.fanin(id).iter().map(|f| f.index() as u32).collect();
            assert_eq!(pe.fanin_of(i), &fanin[..]);
            let fanout: Vec<u32> = c.fanouts(id).iter().map(|f| f.index() as u32).collect();
            assert_eq!(pe.fanout_of(i), &fanout[..]);
        }
    }

    #[test]
    fn pack_lane_overwrites_previous_bit() {
        let c = xor_via_nands();
        let pe = PackedEvaluator::new(&c);
        let mut words = vec![!0u64; 2];
        pe.pack_lane(&mut words, 3, &[false, true]);
        assert_eq!((words[0] >> 3) & 1, 0);
        assert_eq!((words[1] >> 3) & 1, 1);
        // Other lanes untouched.
        assert_eq!((words[0] >> 4) & 1, 1);
    }
}
