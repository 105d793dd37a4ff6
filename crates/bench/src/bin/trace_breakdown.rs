//! Replays a JSONL telemetry trace (from `mpe estimate --trace-file`)
//! into a per-phase time breakdown — the profiling companion to the
//! estimator benchmarks, attributing wall time to pipeline phases.
//!
//! Usage:
//!
//! * `cargo run -p mpe-bench --release --bin trace_breakdown -- trace.jsonl`
//! * `cargo run -p mpe-bench --release --bin trace_breakdown -- --parallel-smoke [out.json]`
//! * `cargo run -p mpe-bench --release --bin trace_breakdown -- --kernel-smoke [out.json]`
//! * `cargo run -p mpe-bench --release --bin trace_breakdown -- --population-smoke [out.json]`
//! * `cargo run -p mpe-bench --release --bin trace_breakdown -- --telemetry-smoke [out.json]`
//!
//! The first form validates the trace on the way through (schema version,
//! monotone seq, LIFO span nesting) and exits non-zero on the first
//! violation, so it doubles as the CI trace checker.
//!
//! The second form is the `cargo bench`-free parallel smoke benchmark: it
//! times the same fixed-seed estimate sequentially and with a worker pool
//! on the table-1 circuits, verifies the results are bit-identical, and
//! records the sequential-vs-parallel wall clock as JSON (default path
//! `BENCH_parallel.json`).
//!
//! The third form benchmarks the simulation kernel itself: scalar
//! `cycle_report` versus the bit-parallel packed kernels (64- and
//! 128-lane words) on the same fixed-seed vector pairs, under both the
//! zero-delay and the glitch-accurate unit-delay model, asserting
//! per-pair bit-identical reports before recording pairs/second as JSON
//! (default path `BENCH_kernel.json`).
//!
//! The `--population-smoke` form benchmarks the population sweep path
//! that the experiment binaries use at `--scale paper`: it builds the
//! same fixed-seed 4k-pair population through `simulate_population_kernel`
//! with the scalar kernel and with each packed kernel, asserts the power
//! vectors are bit-identical, and records pairs/second as JSON (default
//! path `BENCH_population.json`).
//!
//! The fourth form measures the cost of observability itself: the same
//! fixed-seed estimate with telemetry disabled, with the in-process
//! metrics registry only, and with a full JSONL trace sink. It asserts
//! the estimate is bit-identical across all three modes (telemetry must
//! never perturb the run) and records pairs/second per mode as JSON
//! (default path `BENCH_telemetry.json`).

use std::num::NonZeroUsize;
use std::time::Instant;

use maxpower::{EstimationConfig, EstimatorBuilder, MaxPowerEstimate, RunOptions, SimulatorSource};
use mpe_netlist::{generate, CapacitanceModel, Iscas85};
use mpe_sim::{
    simulate_population_kernel, CycleReport, DelayModel, KernelMode, PackedSimulator, PowerConfig,
    PowerSimulator,
};
use mpe_telemetry::json::{Encode, JsonWriter};
use mpe_telemetry::{names, replay, JsonlSink, SpanKind, Telemetry, TraceSummary};
use mpe_vectors::{PairGenerator, VectorPair};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Worker count for the parallel leg of the smoke benchmark.
const SMOKE_WORKERS: usize = 4;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [flag] if flag == "--parallel-smoke" => run_parallel_smoke("BENCH_parallel.json"),
        [flag, out] if flag == "--parallel-smoke" => run_parallel_smoke(out),
        [flag] if flag == "--kernel-smoke" => run_kernel_smoke("BENCH_kernel.json"),
        [flag, out] if flag == "--kernel-smoke" => run_kernel_smoke(out),
        [flag] if flag == "--population-smoke" => run_population_smoke("BENCH_population.json"),
        [flag, out] if flag == "--population-smoke" => run_population_smoke(out),
        [flag] if flag == "--telemetry-smoke" => run_telemetry_smoke("BENCH_telemetry.json"),
        [flag, out] if flag == "--telemetry-smoke" => run_telemetry_smoke(out),
        [path] if !path.starts_with("--") => {
            let text = std::fs::read_to_string(path)?;
            let summary = replay(text.lines())?;
            print!("{}", render_breakdown(path, &summary));
            Ok(())
        }
        _ => Err("usage: trace_breakdown <trace.jsonl> | \
                  --parallel-smoke [out.json] | --kernel-smoke [out.json] | \
                  --population-smoke [out.json] | --telemetry-smoke [out.json]"
            .into()),
    }
}

/// One circuit's sequential-vs-parallel measurement.
struct SmokeRow {
    circuit: String,
    sequential_s: f64,
    parallel_s: f64,
    hyper_samples: usize,
    units_used: usize,
    identical: bool,
}

impl SmokeRow {
    fn speedup(&self) -> f64 {
        self.sequential_s / self.parallel_s
    }
}

fn run_parallel_smoke(out_path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let host = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    if host < SMOKE_WORKERS {
        println!(
            "note: host exposes {host} core(s); speedup at {SMOKE_WORKERS} workers \
             is bounded by the hardware, only bit-identity is asserted"
        );
    }
    // Table-1 conditions: high-activity pairs over the finite 160k space.
    // A tighter-than-default target keeps every circuit busy long enough
    // for the pool to matter while staying a smoke test, not a benchmark.
    let config = EstimationConfig {
        finite_population: Some(160_000),
        max_hyper_samples: 500,
        min_reading_mw: 0.0,
        ..EstimationConfig::default()
    };
    let circuits = [Iscas85::C432, Iscas85::C880, Iscas85::C1355];
    let mut rows = Vec::new();
    for which in circuits {
        let circuit = generate(which, 7)?;
        let source = SimulatorSource::new(
            &circuit,
            PairGenerator::HighActivity { min_activity: 0.3 },
            DelayModel::Unit,
            PowerConfig::default(),
        );
        let session = EstimatorBuilder::new(config).build();
        let time_run =
            |opts: RunOptions<'_>| -> Result<(MaxPowerEstimate, f64), maxpower::MaxPowerError> {
                let started = Instant::now();
                let estimate = session.run(&source, opts)?;
                Ok((estimate, started.elapsed().as_secs_f64()))
            };
        let (sequential, sequential_s) = time_run(RunOptions::default().seeded(42))?;
        let (parallel, parallel_s) = time_run(
            RunOptions::default()
                .seeded(42)
                .workers(NonZeroUsize::new(SMOKE_WORKERS).expect("non-zero")),
        )?;
        let identical = format!("{sequential:?}") == format!("{parallel:?}");
        let row = SmokeRow {
            circuit: which.to_string(),
            sequential_s,
            parallel_s,
            hyper_samples: sequential.hyper_samples,
            units_used: sequential.units_used,
            identical,
        };
        println!(
            "{:<6} sequential {:.3} s, {} workers {:.3} s — {:.2}x speedup, identical: {}",
            row.circuit,
            row.sequential_s,
            SMOKE_WORKERS,
            row.parallel_s,
            row.speedup(),
            row.identical,
        );
        rows.push(row);
    }
    std::fs::write(out_path, render_bench_json("parallel_smoke", host, &rows))?;
    println!("wrote {out_path}");
    if rows.iter().any(|r| !r.identical) {
        return Err("parallel estimate diverged from sequential".into());
    }
    Ok(())
}

impl Encode for SmokeRow {
    fn encode(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field("circuit", &self.circuit);
        w.field("workers", &SMOKE_WORKERS);
        w.field("sequential_s", &round(self.sequential_s, 6));
        w.field("parallel_s", &round(self.parallel_s, 6));
        w.field("speedup", &round(self.speedup(), 3));
        w.field("hyper_samples", &self.hyper_samples);
        w.field("units_used", &self.units_used);
        w.field("identical", &self.identical);
        w.end_object();
    }
}

/// Writes a ledger file: the benchmark's name, the host's parallelism and
/// one object per row.
fn render_bench_json<R: Encode>(benchmark: &str, host: usize, rows: &[R]) -> String {
    let mut w = JsonWriter::pretty();
    w.begin_object();
    w.field("benchmark", benchmark);
    w.field("host_parallelism", &host);
    w.field("rows", rows);
    w.end_object();
    w.finish() + "\n"
}

/// Rounds `v` to `decimals` places, the precision the ledger files record.
fn round(v: f64, decimals: i32) -> f64 {
    let scale = 10f64.powi(decimals);
    (v * scale).round() / scale
}

/// Vector pairs per circuit for the kernel smoke. Large enough that the
/// per-call overhead is amortised, small enough to stay a smoke test.
const KERNEL_PAIRS: usize = 4096;

/// The delay models the kernel smoke measures: the zero-delay fast path,
/// the glitch-accurate unit-delay path, and the fanout-proportional
/// loading model (the heaviest timing wheel the packed kernel supports).
const KERNEL_DELAYS: [(&str, DelayModel); 3] = [
    ("zero", DelayModel::Zero),
    ("unit", DelayModel::Unit),
    (
        "fanout",
        DelayModel::FanoutProportional {
            base: 2,
            per_fanout: 1,
        },
    ),
];

/// One (circuit, kernel, delay model) scalar-vs-packed measurement.
struct KernelRow {
    circuit: String,
    kernel: &'static str,
    delay_model: &'static str,
    pairs: usize,
    scalar_pairs_per_s: f64,
    packed_pairs_per_s: f64,
    identical: bool,
}

impl KernelRow {
    fn speedup(&self) -> f64 {
        self.packed_pairs_per_s / self.scalar_pairs_per_s
    }
}

/// Times one packed width on a prepared pair set and checks every report
/// field (power, capacitance, toggles, events, settle time) against the
/// scalar kernel bit-for-bit.
fn time_packed<B: mpe_netlist::Block>(
    sim: &PowerSimulator<'_>,
    refs: &[(&[bool], &[bool])],
    scalar_reports: &[CycleReport],
) -> Result<(f64, bool), Box<dyn std::error::Error>> {
    let packed: PackedSimulator<B> = PackedSimulator::new(sim);
    let mut out = Vec::with_capacity(refs.len());
    let started = Instant::now();
    packed.cycle_reports_batch(refs, &mut out)?;
    let elapsed = started.elapsed().as_secs_f64();
    let identical = scalar_reports.len() == out.len()
        && scalar_reports.iter().zip(&out).all(|(s, p)| {
            s.power_mw.to_bits() == p.power_mw.to_bits()
                && s.switched_cap_ff.to_bits() == p.switched_cap_ff.to_bits()
                && s.toggles == p.toggles
                && s.events == p.events
                && s.settle_time == p.settle_time
        });
    Ok((refs.len() as f64 / elapsed, identical))
}

fn run_kernel_smoke(out_path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let host = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    // C3540 and C6288 are the circuits of the `population` and
    // `sim-bound` benchmark workloads.
    let circuits = [
        Iscas85::C432,
        Iscas85::C880,
        Iscas85::C1355,
        Iscas85::C3540,
        Iscas85::C6288,
    ];
    let mut rows = Vec::new();
    for which in circuits {
        let circuit = generate(which, 7)?;
        for (delay_name, delay) in KERNEL_DELAYS {
            let sim = PowerSimulator::new(&circuit, delay, PowerConfig::default());
            let mut rng = SmallRng::seed_from_u64(42);
            let pairs: Vec<VectorPair> = (0..KERNEL_PAIRS)
                .map(|_| PairGenerator::Uniform.generate(&mut rng, circuit.num_inputs()))
                .collect();

            let started = Instant::now();
            let scalar_reports: Vec<CycleReport> = pairs
                .iter()
                .map(|p| sim.cycle_report(&p.v1, &p.v2))
                .collect::<Result<_, _>>()?;
            let scalar_s = started.elapsed().as_secs_f64();
            let scalar_pairs_per_s = pairs.len() as f64 / scalar_s;

            let refs: Vec<(&[bool], &[bool])> = pairs.iter().map(VectorPair::as_slices).collect();
            let measurements = [
                (
                    "packed64",
                    time_packed::<u64>(&sim, &refs, &scalar_reports)?,
                ),
                (
                    "packed128",
                    time_packed::<u128>(&sim, &refs, &scalar_reports)?,
                ),
            ];
            for (kernel, (packed_pairs_per_s, identical)) in measurements {
                let row = KernelRow {
                    circuit: which.to_string(),
                    kernel,
                    delay_model: delay_name,
                    pairs: pairs.len(),
                    scalar_pairs_per_s,
                    packed_pairs_per_s,
                    identical,
                };
                println!(
                    "{:<6} {:<6} scalar {:>10.0} pairs/s, {:<9} {:>10.0} pairs/s — {:.2}x, identical: {}",
                    row.circuit,
                    row.delay_model,
                    row.scalar_pairs_per_s,
                    row.kernel,
                    row.packed_pairs_per_s,
                    row.speedup(),
                    row.identical,
                );
                rows.push(row);
            }
        }
    }
    std::fs::write(out_path, render_bench_json("kernel_smoke", host, &rows))?;
    println!("wrote {out_path}");
    if rows.iter().any(|r| !r.identical) {
        return Err("packed kernel diverged from the scalar kernel".into());
    }
    Ok(())
}

impl Encode for KernelRow {
    fn encode(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field("circuit", &self.circuit);
        w.field("kernel", self.kernel);
        w.field("delay_model", self.delay_model);
        w.field("pairs", &self.pairs);
        w.field("scalar_pairs_per_s", &round(self.scalar_pairs_per_s, 1));
        w.field("packed_pairs_per_s", &round(self.packed_pairs_per_s, 1));
        w.field("speedup", &round(self.speedup(), 3));
        w.field("identical", &self.identical);
        w.end_object();
    }
}

/// The delay models the population smoke measures. Fanout delay is
/// covered by `--kernel-smoke`; the sweep path adds no delay-model
/// dispatch of its own, so zero + unit bound it.
const POPULATION_DELAYS: [(&str, DelayModel); 2] =
    [("zero", DelayModel::Zero), ("unit", DelayModel::Unit)];

/// Benchmarks `simulate_population_kernel` — the exact path the
/// experiment binaries take via `Population::build` — with the scalar
/// kernel against each packed kernel, on one thread so the comparison
/// isolates the kernel and not the pool.
fn run_population_smoke(out_path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let host = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let circuits = [Iscas85::C432, Iscas85::C880, Iscas85::C1355];
    let cap_model = CapacitanceModel::default();
    let mut rows = Vec::new();
    for which in circuits {
        let circuit = generate(which, 7)?;
        for (delay_name, delay) in POPULATION_DELAYS {
            let mut rng = SmallRng::seed_from_u64(42);
            let pairs: Vec<VectorPair> = (0..KERNEL_PAIRS)
                .map(|_| PairGenerator::Uniform.generate(&mut rng, circuit.num_inputs()))
                .collect();
            let time_build = |kernel: KernelMode| -> Result<(Vec<f64>, f64), mpe_sim::SimError> {
                let started = Instant::now();
                let powers = simulate_population_kernel(
                    &circuit,
                    &pairs,
                    delay,
                    PowerConfig::default(),
                    &cap_model,
                    1,
                    kernel,
                )?;
                Ok((powers, started.elapsed().as_secs_f64()))
            };
            let (scalar_powers, scalar_s) = time_build(KernelMode::Scalar)?;
            let scalar_pairs_per_s = pairs.len() as f64 / scalar_s;
            for (kernel_name, kernel) in [
                ("packed64", KernelMode::Packed),
                ("packed128", KernelMode::Packed128),
            ] {
                let (packed_powers, packed_s) = time_build(kernel)?;
                let identical = scalar_powers.len() == packed_powers.len()
                    && scalar_powers
                        .iter()
                        .zip(&packed_powers)
                        .all(|(s, p)| s.to_bits() == p.to_bits());
                let row = KernelRow {
                    circuit: which.to_string(),
                    kernel: kernel_name,
                    delay_model: delay_name,
                    pairs: pairs.len(),
                    scalar_pairs_per_s,
                    packed_pairs_per_s: pairs.len() as f64 / packed_s,
                    identical,
                };
                println!(
                    "{:<6} {:<6} scalar {:>10.0} pairs/s, {:<9} {:>10.0} pairs/s — {:.2}x, identical: {}",
                    row.circuit,
                    row.delay_model,
                    row.scalar_pairs_per_s,
                    row.kernel,
                    row.packed_pairs_per_s,
                    row.speedup(),
                    row.identical,
                );
                rows.push(row);
            }
        }
    }
    std::fs::write(out_path, render_bench_json("population_smoke", host, &rows))?;
    println!("wrote {out_path}");
    if rows.iter().any(|r| !r.identical) {
        return Err("packed population sweep diverged from the scalar kernel".into());
    }
    Ok(())
}

/// One circuit's telemetry-overhead measurement: the same fixed-seed
/// estimate under three observability modes.
struct TelemetryRow {
    circuit: String,
    pairs: usize,
    off_pairs_per_s: f64,
    registry_pairs_per_s: f64,
    jsonl_pairs_per_s: f64,
    identical: bool,
}

impl TelemetryRow {
    /// Throughput loss of a mode relative to telemetry-off, in percent.
    fn overhead_pct(&self, mode_pairs_per_s: f64) -> f64 {
        100.0 * (1.0 - mode_pairs_per_s / self.off_pairs_per_s)
    }
}

fn run_telemetry_smoke(out_path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let host = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    // Same table-1 conditions as the parallel smoke, sequentially: the
    // observability overhead is a per-event cost, so a deterministic
    // single-worker run gives the cleanest off/on comparison.
    let config = EstimationConfig {
        finite_population: Some(160_000),
        max_hyper_samples: 500,
        min_reading_mw: 0.0,
        ..EstimationConfig::default()
    };
    let trace_path = std::env::temp_dir()
        .join("mpe_telemetry_smoke.jsonl")
        .to_string_lossy()
        .into_owned();
    let circuits = [Iscas85::C432, Iscas85::C880];
    let mut rows = Vec::new();
    for which in circuits {
        let circuit = generate(which, 7)?;
        let source = SimulatorSource::new(
            &circuit,
            PairGenerator::HighActivity { min_activity: 0.3 },
            DelayModel::Unit,
            PowerConfig::default(),
        );
        let time_run =
            |telemetry: Telemetry| -> Result<(MaxPowerEstimate, f64), Box<dyn std::error::Error>> {
                let session = EstimatorBuilder::new(config)
                    .telemetry(telemetry.clone())
                    .build();
                let started = Instant::now();
                let estimate = session.run(&source, RunOptions::default().seeded(42))?;
                telemetry.flush();
                Ok((estimate, started.elapsed().as_secs_f64()))
            };

        let (off, off_s) = time_run(Telemetry::disabled())?;
        let (registry, registry_s) = time_run(Telemetry::enabled())?;
        let jsonl_telemetry = Telemetry::enabled();
        let sink = JsonlSink::create(&trace_path)
            .map_err(|e| format!("cannot create {trace_path}: {e}"))?;
        jsonl_telemetry.add_sink(Box::new(sink));
        let (jsonl, jsonl_s) = time_run(jsonl_telemetry)?;

        let identical = format!("{off:?}") == format!("{registry:?}")
            && format!("{off:?}") == format!("{jsonl:?}");
        let pairs = off.units_used;
        let row = TelemetryRow {
            circuit: which.to_string(),
            pairs,
            off_pairs_per_s: pairs as f64 / off_s,
            registry_pairs_per_s: pairs as f64 / registry_s,
            jsonl_pairs_per_s: pairs as f64 / jsonl_s,
            identical,
        };
        println!(
            "{:<6} off {:>10.0} pairs/s, registry {:>10.0} pairs/s ({:+.1}%), \
             jsonl {:>10.0} pairs/s ({:+.1}%), identical: {}",
            row.circuit,
            row.off_pairs_per_s,
            row.registry_pairs_per_s,
            row.overhead_pct(row.registry_pairs_per_s),
            row.jsonl_pairs_per_s,
            row.overhead_pct(row.jsonl_pairs_per_s),
            row.identical,
        );
        rows.push(row);
    }
    let _ = std::fs::remove_file(&trace_path);
    std::fs::write(out_path, render_bench_json("telemetry_smoke", host, &rows))?;
    println!("wrote {out_path}");
    if rows.iter().any(|r| !r.identical) {
        return Err("telemetry perturbed the estimate: modes disagree".into());
    }
    Ok(())
}

impl Encode for TelemetryRow {
    fn encode(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field("circuit", &self.circuit);
        w.field("pairs", &self.pairs);
        w.field("off_pairs_per_s", &round(self.off_pairs_per_s, 1));
        w.field("registry_pairs_per_s", &round(self.registry_pairs_per_s, 1));
        w.field("jsonl_pairs_per_s", &round(self.jsonl_pairs_per_s, 1));
        let registry_overhead = self.overhead_pct(self.registry_pairs_per_s);
        w.field("registry_overhead_pct", &round(registry_overhead, 2));
        let jsonl_overhead = self.overhead_pct(self.jsonl_pairs_per_s);
        w.field("jsonl_overhead_pct", &round(jsonl_overhead, 2));
        w.field("identical", &self.identical);
        w.end_object();
    }
}

fn render_breakdown(path: &str, summary: &TraceSummary) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "trace {path}: {} events, max span depth {}\n\n",
        summary.events, summary.max_depth
    ));
    out.push_str(&format!(
        "{:<14} {:>8} {:>14} {:>14} {:>9}\n",
        "phase", "spans", "total", "mean", "run-share"
    ));
    for (kind, share) in summary.phase_shares() {
        let stat = summary.metrics.phase(kind);
        out.push_str(&format!(
            "{:<14} {:>8} {:>14} {:>14} {:>8.1}%\n",
            kind.label(),
            stat.count,
            format_ns(stat.total_ns as f64),
            format_ns(stat.mean_ns() as f64),
            100.0 * share,
        ));
    }
    let pairs = summary.metrics.counter(names::VECTOR_PAIRS_SIMULATED);
    let hypers = summary.metrics.counter(names::HYPER_SAMPLES);
    out.push_str(&format!(
        "\ncost: {pairs} vector pairs across {hypers} hyper-samples"
    ));
    let sim_ns = summary.metrics.phase(SpanKind::Simulate).total_ns;
    if pairs > 0 && sim_ns > 0 {
        out.push_str(&format!(
            " ({} simulate time per pair)",
            format_ns(sim_ns as f64 / pairs as f64)
        ));
    }
    out.push('\n');
    let widths = summary.metrics.gauge_series(names::CI_RELATIVE_HALF_WIDTH);
    if let Some(last) = widths.iter().rev().find(|w| w.is_finite()) {
        out.push_str(&format!(
            "convergence: relative CI half-width reached {:.3}% over {} iterations\n",
            100.0 * last,
            widths.len()
        ));
    }
    out
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpe_telemetry::json::{self, Json};
    use mpe_telemetry::{EventKind, EventRecord};

    #[test]
    fn breakdown_renders_phases_and_cost() {
        let kinds = [
            EventKind::SpanStart {
                span: SpanKind::Run,
                id: 0,
            },
            EventKind::Counter {
                name: names::VECTOR_PAIRS_SIMULATED.to_string(),
                delta: 300,
            },
            EventKind::Counter {
                name: names::HYPER_SAMPLES.to_string(),
                delta: 1,
            },
            EventKind::SpanEnd {
                span: SpanKind::Run,
                id: 0,
                elapsed_ns: 2_000_000,
            },
        ];
        let lines: Vec<String> = kinds
            .into_iter()
            .zip(0u64..)
            .map(|(kind, seq)| {
                EventRecord {
                    seq,
                    t_ns: seq,
                    worker: None,
                    kind,
                }
                .to_json_line()
            })
            .collect();
        let summary = replay(lines.iter().map(String::as_str)).unwrap();
        let text = render_breakdown("t.jsonl", &summary);
        assert!(text.contains("run"), "{text}");
        assert!(text.contains("2.000 ms"), "{text}");
        assert!(
            text.contains("300 vector pairs across 1 hyper-samples"),
            "{text}"
        );
    }

    /// Parses a rendered ledger file, checks its header, and returns its
    /// rows.
    fn parse_bench(text: &str, benchmark: &str, host: u64) -> Vec<Json> {
        assert!(text.ends_with("}\n"), "{text}");
        let doc = json::parse(text).expect("ledger file is valid JSON");
        assert_eq!(doc.get("benchmark").and_then(Json::as_str), Some(benchmark));
        assert_eq!(
            doc.get("host_parallelism").and_then(Json::as_u64),
            Some(host)
        );
        match doc.get("rows") {
            Some(Json::Arr(rows)) => rows.clone(),
            other => panic!("rows is not an array: {other:?}"),
        }
    }

    fn num(row: &Json, key: &str) -> f64 {
        row.get(key)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("`{key}` is not a number in {row:?}"))
    }

    fn text<'a>(row: &'a Json, key: &str) -> &'a str {
        row.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("`{key}` is not a string in {row:?}"))
    }

    #[test]
    fn smoke_json_is_well_formed() {
        let rows = [SmokeRow {
            circuit: "C432".to_string(),
            sequential_s: 1.234_567_89,
            parallel_s: 0.5,
            hyper_samples: 40,
            units_used: 12_000,
            identical: true,
        }];
        let rows = parse_bench(
            &render_bench_json("parallel_smoke", 8, &rows),
            "parallel_smoke",
            8,
        );
        let [row] = rows.as_slice() else {
            panic!("one row expected: {rows:?}")
        };
        assert_eq!(text(row, "circuit"), "C432");
        assert_eq!(num(row, "workers"), SMOKE_WORKERS as f64);
        assert_eq!(num(row, "sequential_s"), 1.234_568);
        assert_eq!(num(row, "parallel_s"), 0.5);
        assert_eq!(num(row, "speedup"), 2.469);
        assert_eq!(num(row, "hyper_samples"), 40.0);
        assert_eq!(num(row, "units_used"), 12_000.0);
        assert_eq!(row.get("identical"), Some(&Json::Bool(true)));
    }

    #[test]
    fn kernel_json_is_well_formed() {
        let rows = [
            KernelRow {
                circuit: "C880".to_string(),
                kernel: "packed64",
                delay_model: "zero",
                pairs: 4096,
                scalar_pairs_per_s: 1000.04,
                packed_pairs_per_s: 8000.0,
                identical: true,
            },
            KernelRow {
                circuit: "C880".to_string(),
                kernel: "packed128",
                delay_model: "unit",
                pairs: 4096,
                scalar_pairs_per_s: 500.0,
                packed_pairs_per_s: 4000.0,
                identical: false,
            },
        ];
        let rows = parse_bench(
            &render_bench_json("kernel_smoke", 1, &rows),
            "kernel_smoke",
            1,
        );
        assert_eq!(rows.len(), 2);
        for (row, (kernel, delay, identical)) in rows
            .iter()
            .zip([("packed64", "zero", true), ("packed128", "unit", false)])
        {
            assert_eq!(text(row, "circuit"), "C880");
            assert_eq!(text(row, "kernel"), kernel);
            assert_eq!(text(row, "delay_model"), delay);
            assert_eq!(num(row, "pairs"), 4096.0);
            assert_eq!(row.get("identical"), Some(&Json::Bool(identical)));
        }
        assert_eq!(num(&rows[0], "scalar_pairs_per_s"), 1000.0);
        assert_eq!(num(&rows[0], "packed_pairs_per_s"), 8000.0);
        assert_eq!(num(&rows[0], "speedup"), 8.0);
        assert_eq!(num(&rows[1], "speedup"), 8.0);
    }

    #[test]
    fn population_json_is_well_formed() {
        let rows = [KernelRow {
            circuit: "C432".to_string(),
            kernel: "packed64",
            delay_model: "zero",
            pairs: 4096,
            scalar_pairs_per_s: 1000.0,
            packed_pairs_per_s: 12_000.0,
            identical: true,
        }];
        let rows = parse_bench(
            &render_bench_json("population_smoke", 2, &rows),
            "population_smoke",
            2,
        );
        let [row] = rows.as_slice() else {
            panic!("one row expected: {rows:?}")
        };
        assert_eq!(text(row, "kernel"), "packed64");
        assert_eq!(num(row, "speedup"), 12.0);
        assert_eq!(row.get("identical"), Some(&Json::Bool(true)));
    }

    #[test]
    fn telemetry_json_is_well_formed() {
        let rows = [TelemetryRow {
            circuit: "C432".to_string(),
            pairs: 12_000,
            off_pairs_per_s: 1000.0,
            registry_pairs_per_s: 990.0,
            jsonl_pairs_per_s: 900.0,
            identical: true,
        }];
        let rows = parse_bench(
            &render_bench_json("telemetry_smoke", 4, &rows),
            "telemetry_smoke",
            4,
        );
        let [row] = rows.as_slice() else {
            panic!("one row expected: {rows:?}")
        };
        assert_eq!(text(row, "circuit"), "C432");
        assert_eq!(num(row, "pairs"), 12_000.0);
        assert_eq!(num(row, "off_pairs_per_s"), 1000.0);
        assert_eq!(num(row, "registry_pairs_per_s"), 990.0);
        assert_eq!(num(row, "jsonl_pairs_per_s"), 900.0);
        // 100 · (1 − 990/1000) is 1.0000000000000009 before rounding.
        assert_eq!(num(row, "registry_overhead_pct"), 1.0);
        assert_eq!(num(row, "jsonl_overhead_pct"), 10.0);
        assert_eq!(row.get("identical"), Some(&Json::Bool(true)));
    }

    #[test]
    fn format_ns_picks_sensible_units() {
        assert_eq!(format_ns(12.0), "12 ns");
        assert_eq!(format_ns(12_500.0), "12.500 µs");
        assert_eq!(format_ns(3_500_000.0), "3.500 ms");
        assert_eq!(format_ns(2_000_000_000.0), "2.000 s");
    }
}
