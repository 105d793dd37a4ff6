//! # mpe-sim — gate-level logic and power simulation
//!
//! The power oracle of the workspace: given a [`mpe_netlist::Circuit`], a
//! delay model and an input **vector pair** `(v1, v2)`, it computes the
//! cycle-based power the circuit dissipates for that pair — the random
//! variable whose maximum the whole estimation method targets.
//!
//! The paper simulated its populations with PowerMill (transistor level);
//! this crate substitutes an event-driven gate-level simulator with a
//! switched-capacitance power model (see DESIGN.md, "Substitutions"). The
//! estimation method is simulator-agnostic — contribution #2 of the paper is
//! precisely that any per-pair power oracle plugs in — and the gate-level
//! engine reproduces the qualitatively important feature of real power
//! data: glitching under non-zero delay models makes power depend on timing,
//! not just on initial/final states.
//!
//! * [`DelayModel`] — zero-delay, unit-delay, or fanout-proportional
//!   inertial delay;
//! * [`PowerConfig`] — supply voltage and clock frequency, converting
//!   switched capacitance to milliwatts;
//! * [`PowerSimulator`] — per-pair cycle power, toggle counts, event
//!   statistics;
//! * [`population`] — multi-threaded batch simulation of whole vector-pair
//!   populations (the "pre-simulate everything with PowerMill" step of the
//!   paper's experimental setup).
//!
//! ## Example
//!
//! ```
//! use mpe_netlist::{generate, Iscas85};
//! use mpe_sim::{DelayModel, PowerConfig, PowerSimulator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let circuit = generate(Iscas85::C432, 7)?;
//! let sim = PowerSimulator::new(&circuit, DelayModel::Unit, PowerConfig::default());
//! let v1 = vec![false; circuit.num_inputs()];
//! let v2 = vec![true; circuit.num_inputs()];
//! let power_mw = sim.cycle_power(&v1, &v2)?;
//! assert!(power_mw > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod activity;
pub mod delay;
pub mod engine;
pub mod error;
mod lane_sums;
pub mod packed;
mod packed_event;
pub mod population;
pub mod power;
pub mod trace;

pub use activity::ActivityProfile;
pub use delay::DelayModel;
pub use engine::{CycleReport, PowerSimulator};
pub use error::SimError;
pub use packed::{KernelMode, PackedSimulator};
pub use population::{simulate_population, simulate_population_kernel, PopulationPair};
pub use power::PowerConfig;
pub use trace::{Transition, Waveform};

// Both simulators are constructed per worker thread and moved into it —
// by the population runner and by the estimation daemon's runner pool.
// This fails to compile if either ever grows a thread-bound field
// (`Rc`, raw pointer, `RefCell` shared across threads, ...).
const _: fn() = || {
    fn send<T: Send>() {}
    send::<PowerSimulator<'static>>();
    send::<PackedSimulator<u64>>();
    send::<PackedSimulator<u128>>();
};
