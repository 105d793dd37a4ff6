//! **Ablation D** — finite-population estimator variants (§3.4):
//!
//! * `mu_hat` — the raw fitted endpoint `μ̂` (the infinite-population
//!   estimator the paper shows is biased high on finite populations);
//! * `paper` — the `(1 − 1/|V|)` quantile of the fitted Weibull (the
//!   paper's literal finite-population estimator);
//! * `block-aware` — the `(1 − 1/|V|)ⁿ` quantile, the exact image of the
//!   population maximum under `G = Fⁿ` (lower variance, more negative
//!   bias as the fitted tail is short).
//!
//! Also compares the MLE against the least-squares CDF fit the paper
//! dismisses as unstable.
//!
//! Usage: `cargo run -p mpe-bench --release --bin ablation_estimator`

use maxpower::{generate_hyper_sample, EstimationConfig, HyperSampleContext, PopulationSource};
use mpe_bench::{experiment_circuit, experiment_population, mean_sd, ExperimentArgs, TextTable};
use mpe_evt::tail::finite_population_maximum;
use mpe_mle::lsq_fit_reversed_weibull;
use mpe_netlist::Iscas85;
use mpe_vectors::PairGenerator;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const REPETITIONS: usize = 60;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = ExperimentArgs::from_env();
    let which = args.circuit.unwrap_or(Iscas85::C3540);
    let size = args.scale.unconstrained_population();
    println!("Ablation D — estimator variants ({which}, |V| = {size}, {REPETITIONS} reps)\n");
    let circuit = experiment_circuit(which, args.seed);
    let population = experiment_population(
        &circuit,
        &PairGenerator::HighActivity { min_activity: 0.3 },
        size,
        args.seed,
        args.kernel,
    )?;
    let actual = population.actual_max_power();
    let v = population.size() as u64;
    let mut rng = SmallRng::seed_from_u64(args.seed ^ 0xd);

    // Infinite-population config so the hyper-sample returns the raw fit;
    // we derive all estimator variants from the same fitted distribution.
    let config = EstimationConfig::default();
    let mut mu_hat = Vec::new();
    let mut paper = Vec::new();
    let mut block_aware = Vec::new();
    let mut lsq = Vec::new();
    let mut jackknife = Vec::new();
    for _ in 0..REPETITIONS {
        let mut source = PopulationSource::new(&population);
        // PopulationSource reports |V|; force the raw-μ̂ path by taking the
        // fit out of the hyper-sample instead of its estimate field.
        let hyper =
            generate_hyper_sample(&mut source, &HyperSampleContext::new(&config), &mut rng)?;
        let Some(fit) = &hyper.fit else {
            // A fallback estimator carries no Weibull fit to ablate.
            continue;
        };
        let dist = &fit.distribution;
        mu_hat.push(dist.mu().max(hyper.observed_max));
        paper.push(finite_population_maximum(dist, v, 1)?.max(hyper.observed_max));
        block_aware
            .push(finite_population_maximum(dist, v, config.sample_size)?.max(hyper.observed_max));
        if let Ok(fit) = lsq_fit_reversed_weibull(&hyper.sample_maxima) {
            lsq.push(finite_population_maximum(&fit.distribution, v, 1)?.max(hyper.observed_max));
        }
        // Delete-one jackknife over the same maxima:
        // θ_J = m·θ̂ − (m−1)·mean(θ̂₋ᵢ).
        {
            use mpe_mle::profile::fit_reversed_weibull;
            let m = hyper.sample_maxima.len();
            let mut loo_sum = 0.0;
            let mut ok = true;
            for skip in 0..m {
                let loo: Vec<f64> = hyper
                    .sample_maxima
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != skip)
                    .map(|(_, &x)| x)
                    .collect();
                match fit_reversed_weibull(&loo) {
                    Ok(fit) => loo_sum += finite_population_maximum(&fit.distribution, v, 1)?,
                    Err(_) => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                let plain = finite_population_maximum(dist, v, 1)?;
                let mf = m as f64;
                jackknife.push((mf * plain - (mf - 1.0) * loo_sum / mf).max(hyper.observed_max));
            }
        }
    }

    let mut table = TextTable::new(["estimator", "mean (mW)", "bias", "cv", "n"]);
    for (name, values) in [
        ("raw μ̂ (infinite pop.)", &mu_hat),
        ("paper §3.4 quantile", &paper),
        ("block-aware quantile", &block_aware),
        ("LSQ fit + quantile", &lsq),
        ("jackknife + quantile", &jackknife),
    ] {
        if values.len() < 2 {
            table.row([
                name.into(),
                "-".to_string(),
                "-".into(),
                "-".into(),
                "0".into(),
            ]);
            continue;
        }
        let (mean, sd) = mean_sd(values);
        table.row([
            name.into(),
            format!("{mean:.3}"),
            format!("{:+.1}%", 100.0 * (mean - actual) / actual),
            format!("{:.3}", sd / mean),
            values.len().to_string(),
        ]);
    }
    println!("{table}");
    println!("actual maximum power: {actual:.3} mW");
    println!("(paper §3.4: μ̂ overshoots finite populations; its quantile estimator corrects this)");
    Ok(())
}
