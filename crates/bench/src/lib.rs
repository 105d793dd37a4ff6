//! # mpe-bench — the experiment harness
//!
//! One binary per exhibit of the paper's evaluation:
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig1` | Figure 1 — sample-maxima distribution vs fitted Weibull, n ∈ {2, 20, 30, 50} |
//! | `fig2` | Figure 2 — distribution of the MLE estimate, m ∈ {10, 50}, vs fitted normal |
//! | `table1` | Table 1 — unconstrained efficiency vs SRS |
//! | `table2` | Table 2 — estimation quality vs SRS-2500/10k/20k |
//! | `table3` | Table 3 — constrained populations, activity 0.7 |
//! | `table4` | Table 4 — constrained populations, activity 0.3 |
//! | `ablation_sample_size` | sample-size sweep justifying n = 30 |
//! | `ablation_limit_law` | Weibull vs Gumbel fit quality (§3.1's argument) |
//! | `ablation_delay_model` | power distributions across delay models |
//! | `ablation_estimator` | finite-population estimator variants (§3.4) |
//! | `ablation_quantile_baseline` | EVT vs the quantile prior art (refs \[9\]\[10\]) |
//!
//! Every binary accepts:
//!
//! ```text
//! --scale smoke|default|paper    population sizes 4k / 40k / paper's 160k-80k
//! --runs N                       override repetitions per circuit
//! --seed S                       master seed (default 1998)
//! --circuit NAME                 restrict to one ISCAS85 circuit
//! --kernel auto|scalar|packed|packed128   population simulation kernel
//! ```
//!
//! Populations are derived deterministically from the master seed, so every
//! table is bit-reproducible.

pub mod efficiency;
pub mod quality;

use std::fmt::Write as _;

use mpe_netlist::{generate, Circuit, Iscas85};
use mpe_sim::{DelayModel, KernelMode, PowerConfig};
use mpe_vectors::{PairGenerator, Population, VectorsError};

/// Experiment scale: trades fidelity to the paper's population sizes
/// against runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny populations for CI smoke runs.
    Smoke,
    /// Laptop-friendly default.
    Default,
    /// The paper's sizes (160k unconstrained / 80k constrained).
    Paper,
}

impl Scale {
    /// Population size for the unconstrained experiments (Tables 1–2).
    pub fn unconstrained_population(self) -> usize {
        match self {
            Scale::Smoke => 4_000,
            Scale::Default => 40_000,
            Scale::Paper => 160_000,
        }
    }

    /// Population size for the constrained experiments (Tables 3–4).
    pub fn constrained_population(self) -> usize {
        match self {
            Scale::Smoke => 4_000,
            Scale::Default => 40_000,
            Scale::Paper => 80_000,
        }
    }

    /// Estimation repetitions per circuit (paper: 100).
    pub fn runs(self) -> usize {
        match self {
            Scale::Smoke => 5,
            Scale::Default => 25,
            Scale::Paper => 100,
        }
    }
}

/// Parsed command-line options shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct ExperimentArgs {
    /// Scale preset.
    pub scale: Scale,
    /// Repetitions override.
    pub runs: Option<usize>,
    /// Master seed.
    pub seed: u64,
    /// Optional restriction to one circuit.
    pub circuit: Option<Iscas85>,
    /// Simulation kernel used to build populations.
    pub kernel: KernelMode,
}

impl Default for ExperimentArgs {
    fn default() -> Self {
        ExperimentArgs {
            scale: Scale::Default,
            runs: None,
            seed: 1998, // the paper's year
            circuit: None,
            kernel: KernelMode::Auto,
        }
    }
}

impl ExperimentArgs {
    /// Parses `std::env::args`-style arguments. Unknown flags abort with a
    /// usage message (these are experiment binaries, not a public CLI).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> ExperimentArgs {
        let mut out = ExperimentArgs::default();
        let mut it = args.into_iter();
        let _argv0 = it.next();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next().unwrap_or_else(|| {
                    eprintln!("missing value for {name}");
                    std::process::exit(2);
                })
            };
            match flag.as_str() {
                "--scale" => {
                    out.scale = match value("--scale").as_str() {
                        "smoke" => Scale::Smoke,
                        "default" => Scale::Default,
                        "paper" => Scale::Paper,
                        other => {
                            eprintln!("unknown scale `{other}` (smoke|default|paper)");
                            std::process::exit(2);
                        }
                    }
                }
                "--runs" => {
                    out.runs = Some(value("--runs").parse().unwrap_or_else(|_| {
                        eprintln!("--runs expects an integer");
                        std::process::exit(2);
                    }))
                }
                "--seed" => {
                    out.seed = value("--seed").parse().unwrap_or_else(|_| {
                        eprintln!("--seed expects an integer");
                        std::process::exit(2);
                    })
                }
                "--circuit" => {
                    let name = value("--circuit");
                    out.circuit = Some(Iscas85::from_name(&name).unwrap_or_else(|| {
                        eprintln!("unknown circuit `{name}`");
                        std::process::exit(2);
                    }))
                }
                "--kernel" => {
                    let name = value("--kernel");
                    out.kernel = KernelMode::parse(&name).unwrap_or_else(|| {
                        eprintln!("unknown kernel `{name}` (auto|scalar|packed|packed128)");
                        std::process::exit(2);
                    })
                }
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --scale smoke|default|paper  --runs N  --seed S  --circuit NAME  --kernel auto|scalar|packed|packed128"
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown flag `{other}` (try --help)");
                    std::process::exit(2);
                }
            }
        }
        out
    }

    /// Parses the real process arguments.
    pub fn from_env() -> ExperimentArgs {
        ExperimentArgs::parse(std::env::args())
    }

    /// Repetitions to run (override or scale default).
    pub fn effective_runs(&self) -> usize {
        self.runs.unwrap_or_else(|| self.scale.runs())
    }

    /// The circuits to evaluate: the paper's nine, or the `--circuit`
    /// restriction.
    pub fn circuits(&self) -> Vec<Iscas85> {
        match self.circuit {
            Some(c) => vec![c],
            None => Iscas85::table_circuits().to_vec(),
        }
    }
}

/// The delay model used for every headline experiment (the ablation binary
/// varies it).
pub const EXPERIMENT_DELAY: DelayModel = DelayModel::Unit;

/// Builds the deterministic stand-in circuit for a benchmark under the
/// master seed.
///
/// # Panics
///
/// Panics on generation failure (impossible for built-in profiles).
pub fn experiment_circuit(which: Iscas85, seed: u64) -> Circuit {
    generate(which, seed ^ 0xc1c5).expect("profile generation cannot fail")
}

/// Builds (and fully simulates) an experiment population.
///
/// # Errors
///
/// Propagates population construction failures.
pub fn experiment_population(
    circuit: &Circuit,
    generator: &PairGenerator,
    size: usize,
    seed: u64,
    kernel: KernelMode,
) -> Result<Population, VectorsError> {
    Population::build_with_kernel(
        circuit,
        generator,
        size,
        EXPERIMENT_DELAY,
        PowerConfig::default(),
        seed,
        0,
        kernel,
    )
}

/// Plain-text fixed-width table printer used by every experiment binary.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header width).
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                let pad = widths[i] - c.chars().count();
                let _ = write!(out, "| {}{} ", c, " ".repeat(pad));
            }
            out.push_str("|\n");
        };
        write_row(&mut out, &self.header);
        for (i, w) in widths.iter().enumerate() {
            let _ = write!(out, "|{}", "-".repeat(w + 2));
            if i == cols - 1 {
                out.push_str("|\n");
            }
        }
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

impl std::fmt::Display for TextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Summary statistics helper used across experiment binaries.
pub fn mean_sd(v: &[f64]) -> (f64, f64) {
    let m = v.iter().sum::<f64>() / v.len() as f64;
    if v.len() < 2 {
        return (m, 0.0);
    }
    let sd = (v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (v.len() - 1) as f64).sqrt();
    (m, sd)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        std::iter::once("bin".to_string())
            .chain(parts.iter().map(|s| s.to_string()))
            .collect()
    }

    #[test]
    fn parse_defaults() {
        let a = ExperimentArgs::parse(argv(&[]));
        assert_eq!(a.scale, Scale::Default);
        assert_eq!(a.seed, 1998);
        assert_eq!(a.circuits().len(), 9);
        assert_eq!(a.effective_runs(), 25);
    }

    #[test]
    fn parse_all_flags() {
        let a = ExperimentArgs::parse(argv(&[
            "--scale",
            "paper",
            "--runs",
            "7",
            "--seed",
            "5",
            "--circuit",
            "c3540",
        ]));
        assert_eq!(a.scale, Scale::Paper);
        assert_eq!(a.effective_runs(), 7);
        assert_eq!(a.seed, 5);
        assert_eq!(a.circuits(), vec![Iscas85::C3540]);
    }

    #[test]
    fn scale_sizes() {
        assert_eq!(Scale::Paper.unconstrained_population(), 160_000);
        assert_eq!(Scale::Paper.constrained_population(), 80_000);
        assert_eq!(Scale::Paper.runs(), 100);
        assert!(
            Scale::Smoke.unconstrained_population() < Scale::Default.unconstrained_population()
        );
    }

    #[test]
    fn text_table_renders() {
        let mut t = TextTable::new(["a", "bb"]);
        t.row(["1", "2"]);
        t.row(["333", "4"]);
        let s = t.render();
        assert!(s.contains("| a   | bb |"));
        assert!(s.contains("| 333 | 4  |"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn text_table_checks_width() {
        let mut t = TextTable::new(["a"]);
        t.row(["1", "2"]);
    }

    #[test]
    fn helpers() {
        assert_eq!(pct(0.053), "5.3%");
        let (m, sd) = mean_sd(&[1.0, 3.0]);
        assert_eq!(m, 2.0);
        assert!((sd - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn circuit_population_smoke() {
        let c = experiment_circuit(Iscas85::C432, 1);
        let p =
            experiment_population(&c, &PairGenerator::Uniform, 200, 1, KernelMode::Auto).unwrap();
        assert_eq!(p.size(), 200);
    }

    #[test]
    fn parse_kernel_flag() {
        let a = ExperimentArgs::parse(argv(&["--kernel", "packed128"]));
        assert_eq!(a.kernel, KernelMode::Packed128);
        assert_eq!(ExperimentArgs::parse(argv(&[])).kernel, KernelMode::Auto);
    }
}
