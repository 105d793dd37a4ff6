//! The paper's proposed extension, realized: **longest path delay
//! estimation** with the identical extreme-order-statistics machinery
//! ("the generality of this approach makes it applicable to other fields of
//! VLSI design automation; for example, longest path delay estimation" —
//! conclusion of the DAC 1998 paper).
//!
//! The settle time of a vector pair is a bounded random variable over the
//! input space; its right endpoint is the circuit's *exercisable* critical
//! delay. The static topological depth is an upper bound that false paths
//! may render unreachable — the statistical estimate reveals how much of it
//! real vectors can exercise.
//!
//! Run with: `cargo run --release --example delay_estimation`

use maxpower::{EstimationConfig, EstimatorBuilder, RunOptions, SimulatorSource};
use mpe_netlist::{generate, Iscas85};
use mpe_sim::DelayModel;
use mpe_vectors::PairGenerator;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("statistical maximum-delay estimation (unit-delay model)\n");
    println!(
        "{:<8} {:>6} {:>14} {:>10} {:>8}",
        "circuit", "depth", "est. max delay", "±err", "pairs"
    );
    for which in [Iscas85::C432, Iscas85::C880, Iscas85::C1355, Iscas85::C6288] {
        let circuit = generate(which, 7)?;
        let source =
            SimulatorSource::settle_time(&circuit, PairGenerator::Uniform, DelayModel::Unit);
        let config = EstimationConfig {
            finite_population: Some(100_000),
            max_hyper_samples: 500,
            ..EstimationConfig::default()
        };
        let session = EstimatorBuilder::new(config).build();
        match session.run(&source, RunOptions::default().seeded(3)) {
            Ok(est) => println!(
                "{:<8} {:>6} {:>14.2} {:>9.1}% {:>8}",
                which.to_string(),
                circuit.depth(),
                est.estimate_mw,
                100.0 * est.relative_error,
                est.units_used
            ),
            Err(e) => println!("{:<8} failed: {e}", which.to_string()),
        }
    }
    println!(
        "\nreading the table: the topological depth is a hard structural bound. \
         Estimates well below it (C6288: random operands rarely excite the full \
         carry chain) expose false or hard-to-sensitize paths; estimates slightly \
         above it are statistical extrapolation overshoot — the estimator knows \
         nothing about the structural bound, so min(estimate, depth) is the \
         practical number."
    );
    Ok(())
}
