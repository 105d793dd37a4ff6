//! Deterministic synthetic circuit generation.
//!
//! Two generators:
//!
//! * [`random_dag`] — a seeded, layered random combinational network with a
//!   given interface `(inputs, outputs, gates)`; used to synthesize stand-ins
//!   for the ISCAS85 circuits whose netlists are not shipped;
//! * [`multiplier`] — a genuine n×n carry-save array multiplier (AND
//!   partial products + half/full adder rows), standing in for C6288, whose
//!   original *is* a 16×16 array multiplier. The gate count differs from the
//!   NOR-mapped original (≈1.5k vs 2.4k for n = 16) but the switching
//!   structure — deep carry chains, heavy glitching — is the real thing.
//!
//! [`generate`] dispatches per ISCAS85 profile and is what the experiment
//! harness calls.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::circuit::{Circuit, CircuitBuilder, NodeId};
use crate::error::NetlistError;
use crate::gate::GateKind;
use crate::profiles::Iscas85;

/// Generates the workspace's stand-in circuit for an ISCAS85 benchmark.
///
/// `C6288` maps to a true 16×16 [`multiplier`]; every other profile maps to
/// a [`random_dag`] with the published interface and gate count. The same
/// `seed` always yields the identical circuit.
///
/// # Errors
///
/// Propagates construction errors (practically unreachable for the built-in
/// profiles).
///
/// # Example
///
/// ```
/// use mpe_netlist::{generate, Iscas85};
/// # fn main() -> Result<(), mpe_netlist::NetlistError> {
/// let c = generate(Iscas85::C432, 1)?;
/// assert_eq!(c.num_inputs(), 36);
/// assert_eq!(c.num_outputs(), 7);
/// assert_eq!(c.num_gates(), 160);
/// # Ok(())
/// # }
/// ```
pub fn generate(which: Iscas85, seed: u64) -> Result<Circuit, NetlistError> {
    let p = which.profile();
    if which == Iscas85::C6288 {
        return multiplier(16);
    }
    random_dag(p.name, p.inputs, p.outputs, p.gates, p.depth, seed)
}

/// Weighted random gate kind reflecting typical ISCAS85 composition
/// (NAND-heavy, some inverters, occasional XOR).
fn random_kind(rng: &mut SmallRng) -> GateKind {
    match rng.gen_range(0..100u32) {
        0..=31 => GateKind::Nand,
        32..=45 => GateKind::And,
        46..=63 => GateKind::Nor,
        64..=73 => GateKind::Or,
        74..=87 => GateKind::Not,
        88..=91 => GateKind::Xor,
        92..=93 => GateKind::Xnor,
        _ => GateKind::Buf,
    }
}

/// Whether extra fan-ins can be spliced into this kind (used to absorb
/// unused inputs and dangling gates while preserving the interface).
fn spliceable(kind: GateKind) -> bool {
    matches!(
        kind,
        GateKind::And
            | GateKind::Nand
            | GateKind::Or
            | GateKind::Nor
            | GateKind::Xor
            | GateKind::Xnor
    )
}

/// Generates a seeded random *layered* combinational DAG with exactly the
/// requested interface and logic depth.
///
/// Construction: gates are distributed over `depth` layers; each gate draws
/// most of its fan-in from the immediately preceding layer (with a minority
/// of longer connections creating reconvergence), and one designated gate
/// per layer is chained to the previous layer so the realized depth equals
/// `depth` exactly (clamped to `gates`). Matching the original benchmarks'
/// depth matters: under non-zero delay models, logic depth controls glitch
/// multiplication and therefore the spread of the power distribution.
/// Unused primary inputs are spliced into gates; dangling gates beyond the
/// requested output count are spliced forward until exactly `outputs`
/// endpoints remain.
///
/// # Errors
///
/// Returns [`NetlistError::InvalidArgument`] if `inputs < 2`,
/// `outputs == 0`, `gates < outputs`, or `depth == 0`.
pub fn random_dag(
    name: &str,
    inputs: usize,
    outputs: usize,
    gates: usize,
    depth: usize,
    seed: u64,
) -> Result<Circuit, NetlistError> {
    if inputs < 2 {
        return Err(NetlistError::InvalidArgument {
            message: format!("need at least 2 inputs, got {inputs}"),
        });
    }
    if outputs == 0 || gates < outputs {
        return Err(NetlistError::InvalidArgument {
            message: format!("need gates ({gates}) >= outputs ({outputs}) >= 1"),
        });
    }
    if depth == 0 {
        return Err(NetlistError::InvalidArgument {
            message: "depth must be at least 1".to_string(),
        });
    }
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);

    // Phase 1: layered gate list. Node ids: 0..inputs are primary inputs
    // (layer 0), then gates layer by layer — topologically ordered by
    // construction. layer_start[l] is the first node id of layer l. The
    // final layer holds exactly the `outputs` gates (nothing can consume
    // them, so they — and only they — end up dangling, which pins the
    // output count without post-hoc splicing in the deepest layer).
    // Requested depth is realized when structurally feasible, i.e. clamped
    // to `gates − outputs + 1` (and at least 2 when any pre-output gates
    // exist).
    let total_nodes = inputs + gates;
    let mut kinds: Vec<GateKind> = Vec::with_capacity(gates);
    let mut fanins: Vec<Vec<usize>> = Vec::with_capacity(gates);
    let pre_gates = gates - outputs;
    let pre_layers = if pre_gates == 0 {
        0
    } else {
        (depth.max(2) - 1).clamp(1, pre_gates)
    };
    let depth = pre_layers + 1; // realized depth
    let mut layer_start: Vec<usize> = Vec::with_capacity(depth + 1);
    let mut next = inputs;
    if let Some(base) = pre_gates.checked_div(pre_layers) {
        let extra = pre_gates % pre_layers;
        for l in 0..pre_layers {
            layer_start.push(next);
            next += base + usize::from(l < extra);
        }
    }
    layer_start.push(next); // final (output) layer
    next += outputs;
    layer_start.push(next);
    debug_assert_eq!(next, total_nodes);

    for l in 0..depth {
        let (prev_lo, prev_hi) = if l == 0 {
            (0, inputs)
        } else {
            (layer_start[l - 1], layer_start[l])
        };
        let avail = layer_start[l]; // nodes in all earlier layers + inputs
        for g in layer_start[l]..layer_start[l + 1] {
            let is_chain_gate = g == layer_start[l];
            let mut kind = random_kind(&mut rng);
            if is_chain_gate && matches!(kind, GateKind::Buf) {
                kind = GateKind::Nand; // keep the chain logically active
            }
            let arity = match kind {
                GateKind::Not | GateKind::Buf => 1,
                _ => {
                    if rng.gen_bool(0.12) && avail >= 3 {
                        3
                    } else {
                        2
                    }
                }
            };
            let mut chosen: Vec<usize> = Vec::with_capacity(arity);
            if is_chain_gate {
                // Chain to the previous layer's chain gate, whose level is
                // exactly its layer index — this single path realizes the
                // requested depth exactly.
                let prev_chain = if l == 0 {
                    rng.gen_range(0..inputs)
                } else {
                    layer_start[l - 1]
                };
                chosen.push(prev_chain);
            } else if arity == 1 {
                chosen.push(rng.gen_range(prev_lo..prev_hi));
            }
            let mut guard = 0;
            while chosen.len() < arity && guard < 1000 {
                guard += 1;
                // Mostly previous layer; occasional longer edge for
                // reconvergence and sharing.
                let candidate = if rng.gen_bool(0.7) {
                    rng.gen_range(prev_lo..prev_hi)
                } else {
                    rng.gen_range(0..avail)
                };
                if !chosen.contains(&candidate) {
                    chosen.push(candidate);
                }
            }
            let kind = match chosen.len() {
                1 if !matches!(kind, GateKind::Not | GateKind::Buf) => GateKind::Not,
                _ => kind,
            };
            kinds.push(kind);
            fanins.push(chosen);
        }
    }

    // Phase 2: splice unused primary inputs into later gates.
    let mut used = vec![false; total_nodes];
    for f in fanins.iter().flatten() {
        used[*f] = true;
    }
    // Indexing is deliberate: the loop both reads and writes `used`.
    #[allow(clippy::needless_range_loop)]
    for input_id in 0..inputs {
        if used[input_id] {
            continue;
        }
        // Find a spliceable gate (any gate is later than any input).
        let start = rng.gen_range(0..gates);
        let mut spliced = false;
        for off in 0..gates {
            let g = (start + off) % gates;
            if spliceable(kinds[g]) && !fanins[g].contains(&input_id) {
                fanins[g].push(input_id);
                used[input_id] = true;
                spliced = true;
                break;
            }
        }
        if !spliced {
            // All gates unary (pathological small case): retype one.
            kinds[0] = GateKind::Nand;
            fanins[0].push(input_id);
            used[input_id] = true;
        }
    }

    // Phase 3: reduce dangling gates to exactly `outputs`. After phase 2
    // `used` marks exactly the nodes with a fanout, and a splice gives a
    // fanout only to the node it splices, so the dangling list is built
    // once and shrinks from its head.
    let dangling: Vec<usize> = (inputs..total_nodes).filter(|&n| !used[n]).collect();
    // The layer of a gate node id; splice targets must sit in a strictly
    // later layer so intra-layer chains cannot exceed the requested depth.
    let layer_of = |node: usize| -> usize { layer_start.partition_point(|&s| s <= node) - 1 };
    let mut head = 0;
    while dangling.len() - head > outputs {
        // Splice the earliest dangling node into a spliceable gate in a
        // later layer.
        let d = dangling[head];
        let first_later = layer_start
            .get(layer_of(d) + 1)
            .copied()
            .unwrap_or(total_nodes);
        let mut spliced = false;
        for node in first_later..total_nodes {
            let g = node - inputs;
            if spliceable(kinds[g]) && !fanins[g].contains(&d) {
                fanins[g].push(d);
                spliced = true;
                break;
            }
        }
        if !spliced {
            // Retype a unary gate in a later layer, if any, to absorb it.
            let mut absorbed = false;
            for node in first_later..total_nodes {
                let g = node - inputs;
                if matches!(kinds[g], GateKind::Not | GateKind::Buf) && !fanins[g].contains(&d) {
                    kinds[g] = GateKind::Nand;
                    fanins[g].push(d);
                    absorbed = true;
                    break;
                }
            }
            if !absorbed {
                break; // d is in the last layer; it stays an output
            }
        }
        head += 1;
    }
    // If too few dangling nodes, promote additional deep gates to outputs.
    let mut output_ids: Vec<usize> = dangling[head..].to_vec();
    let mut probe = total_nodes;
    while output_ids.len() < outputs && probe > inputs {
        probe -= 1;
        if !output_ids.contains(&probe) {
            output_ids.push(probe);
        }
    }
    output_ids.truncate(outputs);

    // Phase 4: materialize through the builder.
    let mut b = CircuitBuilder::new();
    b.name(name);
    let mut ids: Vec<NodeId> = Vec::with_capacity(total_nodes);
    for i in 0..inputs {
        ids.push(b.input(&format!("in{i}")));
    }
    for g in 0..gates {
        let fanin_ids: Vec<NodeId> = fanins[g].iter().map(|&f| ids[f]).collect();
        let id = b.gate(&format!("g{g}"), kinds[g], &fanin_ids)?;
        ids.push(id);
    }
    for &o in &output_ids {
        b.mark_output(ids[o]);
    }
    b.build()
}

/// Builds an `n × n` carry-save array multiplier (the structure of C6288).
///
/// Inputs `a0..a{n−1}`, `b0..b{n−1}`; outputs `p0..p{2n−1}` with
/// `p = a × b`. Partial products are AND gates; accumulation uses rows of
/// half/full adders built from XOR/AND/OR cells.
///
/// # Errors
///
/// Returns [`NetlistError::InvalidArgument`] unless `2 ≤ n ≤ 32`.
///
/// # Example
///
/// ```
/// let c = mpe_netlist::multiplier(4)?;
/// assert_eq!(c.num_inputs(), 8);
/// assert_eq!(c.num_outputs(), 8);
/// # Ok::<(), mpe_netlist::NetlistError>(())
/// ```
pub fn multiplier(n: usize) -> Result<Circuit, NetlistError> {
    if !(2..=32).contains(&n) {
        return Err(NetlistError::InvalidArgument {
            message: format!("multiplier width must be in 2..=32, got {n}"),
        });
    }
    let mut b = CircuitBuilder::new();
    b.name(if n == 16 { "C6288" } else { "MULT" });
    let a: Vec<NodeId> = (0..n).map(|i| b.input(&format!("a{i}"))).collect();
    let bb: Vec<NodeId> = (0..n).map(|i| b.input(&format!("b{i}"))).collect();

    let mut counter = 0usize;
    let mut fresh = move || {
        counter += 1;
        format!("w{counter}")
    };

    // Half adder: (sum, carry).
    let half_adder = |b: &mut CircuitBuilder,
                      fresh: &mut dyn FnMut() -> String,
                      x: NodeId,
                      y: NodeId|
     -> Result<(NodeId, NodeId), NetlistError> {
        let s = b.gate(&fresh(), GateKind::Xor, &[x, y])?;
        let c = b.gate(&fresh(), GateKind::And, &[x, y])?;
        Ok((s, c))
    };
    // Full adder: (sum, carry).
    let full_adder = |b: &mut CircuitBuilder,
                      fresh: &mut dyn FnMut() -> String,
                      x: NodeId,
                      y: NodeId,
                      z: NodeId|
     -> Result<(NodeId, NodeId), NetlistError> {
        let xy = b.gate(&fresh(), GateKind::Xor, &[x, y])?;
        let s = b.gate(&fresh(), GateKind::Xor, &[xy, z])?;
        let c1 = b.gate(&fresh(), GateKind::And, &[x, y])?;
        let c2 = b.gate(&fresh(), GateKind::And, &[xy, z])?;
        let c = b.gate(&fresh(), GateKind::Or, &[c1, c2])?;
        Ok((s, c))
    };

    // Partial products pp[i][j] = a[j] AND b[i].
    let mut pp: Vec<Vec<NodeId>> = Vec::with_capacity(n);
    for (i, &bi) in bb.iter().enumerate() {
        let mut row = Vec::with_capacity(n);
        for (j, &aj) in a.iter().enumerate() {
            row.push(b.gate(&format!("pp{i}_{j}"), GateKind::And, &[aj, bi])?);
        }
        pp.push(row);
    }

    // Accumulate rows: acc holds bits of the running sum aligned to bit 0.
    // After processing row i, the low bit acc[0] is final output p_i.
    let mut outputs: Vec<NodeId> = Vec::with_capacity(2 * n);
    let mut acc: Vec<NodeId> = pp[0].clone(); // bits 0..n of a*b0
    for row in pp.iter().skip(1) {
        // p_{i-1} is the current low bit.
        outputs.push(acc[0]);
        // Add row (n bits) to acc[1..] (n-1 bits + possible carry bit).
        let mut next: Vec<NodeId> = Vec::with_capacity(n + 1);
        let mut carry: Option<NodeId> = None;
        for (j, &r) in row.iter().enumerate() {
            let upper = acc.get(j + 1).copied();
            let (s, c) = match (upper, carry) {
                (Some(u), Some(cin)) => full_adder(&mut b, &mut fresh, r, u, cin)?,
                (Some(u), None) => half_adder(&mut b, &mut fresh, r, u)?,
                (None, Some(cin)) => half_adder(&mut b, &mut fresh, r, cin)?,
                (None, None) => {
                    next.push(r);
                    continue;
                }
            };
            next.push(s);
            carry = Some(c);
        }
        if let Some(c) = carry {
            next.push(c);
        }
        acc = next;
    }
    // Remaining accumulated bits are the top outputs.
    outputs.extend(acc);
    // Pad (only needed for degenerate tiny widths) so we emit exactly 2n.
    while outputs.len() < 2 * n {
        let last = *outputs.last().expect("at least one output bit");
        let zero = b.gate(&fresh(), GateKind::Xor, &[last, last])?; // constant 0
        outputs.push(zero);
    }
    outputs.truncate(2 * n);
    for (i, &o) in outputs.iter().enumerate() {
        // Buffer each product bit so output names are uniform p0..p{2n-1}.
        let pbit = b.gate(&format!("p{i}"), GateKind::Buf, &[o])?;
        b.mark_output(pbit);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::Iscas85;

    /// Drives the multiplier with integers and reads back the product.
    fn multiply_via_circuit(c: &Circuit, n: usize, x: u64, y: u64) -> u64 {
        let mut assignment = vec![false; 2 * n];
        for i in 0..n {
            assignment[i] = (x >> i) & 1 == 1; // a bits first
            assignment[n + i] = (y >> i) & 1 == 1;
        }
        let vals = c.evaluate(&assignment);
        let outs = c.output_values(&vals);
        outs.iter()
            .enumerate()
            .map(|(i, &bit)| (bit as u64) << i)
            .sum()
    }

    #[test]
    fn multiplier_4x4_exhaustive() {
        let c = multiplier(4).unwrap();
        for x in 0..16u64 {
            for y in 0..16u64 {
                assert_eq!(multiply_via_circuit(&c, 4, x, y), x * y, "{x}*{y}");
            }
        }
    }

    #[test]
    fn multiplier_8x8_spot_checks() {
        let c = multiplier(8).unwrap();
        for (x, y) in [(0, 0), (255, 255), (17, 13), (128, 2), (99, 201)] {
            assert_eq!(multiply_via_circuit(&c, 8, x, y), x * y);
        }
    }

    #[test]
    fn multiplier_16x16_matches_c6288_interface() {
        let c = multiplier(16).unwrap();
        assert_eq!(c.name(), "C6288");
        assert_eq!(c.num_inputs(), 32);
        assert_eq!(c.num_outputs(), 32);
        assert!(c.num_gates() > 1000, "{} gates", c.num_gates());
        for (x, y) in [(65535u64, 65535u64), (12345, 54321), (1, 65535)] {
            assert_eq!(multiply_via_circuit(&c, 16, x, y), x * y);
        }
    }

    #[test]
    fn multiplier_validation() {
        assert!(multiplier(1).is_err());
        assert!(multiplier(33).is_err());
    }

    #[test]
    fn random_dag_exact_interface() {
        let c = random_dag("T", 20, 7, 100, 12, 42).unwrap();
        assert_eq!(c.num_inputs(), 20);
        assert_eq!(c.num_outputs(), 7);
        assert_eq!(c.num_gates(), 100);
    }

    #[test]
    fn random_dag_deterministic() {
        let c1 = random_dag("T", 10, 3, 50, 8, 7).unwrap();
        let c2 = random_dag("T", 10, 3, 50, 8, 7).unwrap();
        assert_eq!(c1, c2);
        let c3 = random_dag("T", 10, 3, 50, 8, 8).unwrap();
        assert_ne!(c1, c3);
    }

    #[test]
    fn random_dag_all_inputs_used() {
        let c = random_dag("T", 30, 5, 60, 10, 3).unwrap();
        for &i in c.inputs() {
            assert!(c.fanout_count(i) > 0, "input {} unused", c.node_name(i));
        }
    }

    #[test]
    fn random_dag_realizes_requested_depth() {
        for (gates, depth) in [(160, 17), (60, 9), (1669, 47)] {
            let c = random_dag("T", 36, 7, gates, depth, 1).unwrap();
            assert_eq!(c.depth() as usize, depth, "gates {gates}");
        }
    }

    #[test]
    fn random_dag_depth_clamped_to_gates() {
        // gates 5, outputs 2: at most 3 pre-output layers + the output
        // layer are feasible, so the realized depth is 4.
        let c = random_dag("T", 4, 2, 5, 100, 1).unwrap();
        assert_eq!(c.depth() as usize, 4);
    }

    #[test]
    fn random_dag_validation() {
        assert!(random_dag("T", 1, 1, 10, 3, 0).is_err());
        assert!(random_dag("T", 4, 0, 10, 3, 0).is_err());
        assert!(random_dag("T", 4, 11, 10, 3, 0).is_err());
        assert!(random_dag("T", 4, 1, 10, 0, 0).is_err());
    }

    #[test]
    fn generate_matches_all_profiles() {
        for which in Iscas85::all() {
            let c = generate(which, 1).unwrap();
            let p = which.profile();
            assert_eq!(c.num_inputs(), p.inputs, "{}", p.name);
            assert_eq!(c.num_outputs(), p.outputs, "{}", p.name);
            if which != Iscas85::C6288 {
                assert_eq!(c.num_gates(), p.gates, "{}", p.name);
                assert_eq!(c.depth() as usize, p.depth, "{}", p.name);
            }
        }
    }

    #[test]
    fn generate_is_seed_stable() {
        let a = generate(Iscas85::C432, 99).unwrap();
        let b = generate(Iscas85::C432, 99).unwrap();
        assert_eq!(a, b);
    }

    /// FNV-1a over every node's kind and fan-ins, then the outputs: unlike
    /// `DefaultHasher`, stable across Rust releases and platforms.
    fn netlist_digest(c: &Circuit) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for id in c.node_ids() {
            eat(c.kind(id).bench_keyword().as_bytes());
            for f in c.fanin(id) {
                eat(&(f.index() as u32).to_le_bytes());
            }
            eat(b";");
        }
        for o in c.outputs() {
            eat(&(o.index() as u32).to_le_bytes());
        }
        h
    }

    #[test]
    fn generate_matches_pinned_digest() {
        // Generated netlists are part of every estimate: a changed digest
        // moves every number downstream.
        let pinned: [(Iscas85, u64); 10] = [
            (Iscas85::C432, 0x062a4fbb1a000278),
            (Iscas85::C499, 0x848348aaa9f17530),
            (Iscas85::C880, 0x7a687bfbc5ab79b9),
            (Iscas85::C1355, 0x023cbe8a6072d7f2),
            (Iscas85::C1908, 0x40803648cfe84791),
            (Iscas85::C2670, 0x366250ad03794ec8),
            (Iscas85::C3540, 0xc4e0fbc9c37c7ab3),
            (Iscas85::C5315, 0x6b9f13db2e6b1968),
            (Iscas85::C6288, 0xa8167d7425a6c0ae),
            (Iscas85::C7552, 0xb6eb79c5307de56e),
        ];
        let got: Vec<(Iscas85, u64)> = pinned
            .iter()
            .map(|&(which, _)| (which, netlist_digest(&generate(which, 1).unwrap())))
            .collect();
        assert_eq!(got, pinned, "netlist digests at seed 1: {got:#x?}");
    }
}
