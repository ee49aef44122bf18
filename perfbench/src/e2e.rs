//! The untraced end-to-end runs: repeated set-up + timed-region
//! repetitions, then a reference run outside both that every repetition's
//! outputs are checked against.

use crate::report::{cpu_ticks, debug_digest, median, metric, peak_rss_mb, CpuRotation, RunResult};
use crate::workloads::{Kind, Sizes, Workload, CORES, SHARDS, WORKERS};
use ccd_coherence::{CmpSimulator, DirectorySpec, Hierarchy, SimReport, SystemConfig};
use ccd_directory::DirectoryOp;
use ccd_service::{DirectoryService, LoadSpec, ServiceConfig, ServiceReport};
use ccd_workloads::WorkloadSpec;
use std::time::{Duration, Instant};

/// Every run makes at least this many repetitions, and at most this many
/// so that a tiny size stops.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 200;
/// Set-up is sampled at least this often; `setup_s` is a median of them.
const MIN_SETUPS: usize = 5;
/// A repetition during which the hypervisor stole more than this share of
/// the machine's CPU time is left out of `throughput_mops` unless fewer
/// than `MIN_REPS` repetitions are below it.
const MAX_STEAL: f64 = 0.02;

/// The exact, worker-count-independent facts of one service run.  Two
/// runs of the same load agree on all of them, or one of them is wrong.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceFacts {
    pub requests: u64,
    pub entries: usize,
    pub outcome_digest: u64,
    pub invalidations: u64,
    pub forced_invalidations: u64,
    pub insertions: u64,
    pub insertion_failures: u64,
}

impl ServiceFacts {
    pub fn of(report: &ServiceReport) -> Self {
        ServiceFacts {
            requests: report.requests,
            entries: report.entries,
            outcome_digest: report.outcome_digest,
            invalidations: report.stats.invalidations.get(),
            forced_invalidations: report.stats.forced_invalidations.get(),
            insertions: report.stats.directory.insertions.get(),
            insertion_failures: report.stats.directory.insertion_failures.get(),
        }
    }
}

pub fn load(sizes: &Sizes, seed: u64) -> Result<LoadSpec, String> {
    LoadSpec::parse(sizes.traffic, CORES, seed, sizes.requests).map_err(|e| e.to_string())
}

pub fn build_service(sizes: &Sizes, record_outcomes: bool) -> Result<DirectoryService, String> {
    let config =
        ServiceConfig::new(sizes.service_spec, SHARDS, WORKERS).with_outcomes(record_outcomes);
    DirectoryService::build_standard(config).map_err(|e| e.to_string())
}

pub fn materialize(load: &LoadSpec) -> Result<Vec<DirectoryOp>, String> {
    Ok(load.ops().map_err(|e| e.to_string())?.collect())
}

/// The `run_serial` reference of a load, outside every timed region.
pub fn serial_reference(sizes: &Sizes, load: &LoadSpec) -> Result<ServiceFacts, String> {
    let ops = materialize(load)?;
    let service = build_service(sizes, true)?;
    Ok(ServiceFacts::of(&service.run_serial(ops.into_iter())))
}

/// The paper's 16-core Shared-L2 CMP with a 1x-provisioned 4-way Cuckoo
/// directory, as `sim-oracle` (and every traced coherence layer) runs it.
pub fn sim_system() -> (SystemConfig, DirectorySpec) {
    (
        SystemConfig::table1(Hierarchy::SharedL2),
        DirectorySpec::cuckoo(4, 1.0),
    )
}

/// The same organization with the probe kernel pinned to the scalar
/// reference (probe kernels are semantics-free by contract, so every
/// statistic must match the auto-selected kernel's).
fn scalar_reference_spec(system: &SystemConfig) -> Result<DirectorySpec, String> {
    let (_, spec) = sim_system();
    let slice = spec.build_slice(system).map_err(|e| e.to_string())?;
    let (ways, sets) = slice
        .geometry()
        .ok_or("the cuckoo slice reports no geometry")?;
    DirectorySpec::custom(format!("cuckoo-{ways}x{sets}-skew-scalar")).map_err(|e| e.to_string())
}

pub fn traffic(sizes: &Sizes) -> Result<WorkloadSpec, String> {
    sizes
        .traffic
        .parse()
        .map_err(|e: ccd_common::ConfigError| e.to_string())
}

/// Builds a simulator, warms it up and resets its statistics.
pub fn warmed_simulator(
    sizes: &Sizes,
    spec: &DirectorySpec,
    seed: u64,
) -> Result<(CmpSimulator, Box<dyn ccd_workloads::TraceStream>), String> {
    let (system, _) = sim_system();
    let mut refs = traffic(sizes)?
        .stream(system.num_cores, seed)
        .map_err(|e| e.to_string())?;
    let mut sim = CmpSimulator::new(system, spec).map_err(|e| e.to_string())?;
    sim.run(&mut refs, sizes.sim_warmup);
    sim.reset_stats();
    Ok((sim, refs))
}

/// A simulator report with the organization label blanked: the label
/// names the probe kernel, nothing else may differ.
fn unlabelled(mut report: SimReport) -> SimReport {
    report.organization.clear();
    report
}

/// One repetition's timed region and what it produced.
struct Rep<T> {
    timed: Duration,
    ops: u64,
    output: Result<T, String>,
    /// Share of the machine's CPU time the hypervisor stole while the
    /// timed region ran (`None` where `/proc/stat` is unreadable).
    steal: Option<f64>,
}

/// The repetitions of one run plus every set-up duration, in seconds.
struct Reps<T> {
    reps: Vec<Rep<T>>,
    setups: Vec<f64>,
}

/// Sets up and measures repetitions until `seconds` of timed region have
/// accumulated (and at least `MIN_REPS`), then sets up alone until there
/// are `MIN_SETUPS` set-up samples.  `setup` runs outside the timed
/// region; `measure` is the timed region and reports how many operations
/// it attempted.
fn repeat<S, T>(
    seconds: f64,
    mut setup: impl FnMut() -> Result<S, String>,
    mut measure: impl FnMut(S) -> (u64, Result<T, String>),
) -> Result<Reps<T>, String> {
    let mut out = Reps {
        reps: Vec::new(),
        setups: Vec::new(),
    };
    let mut timed = 0.0;
    while out.reps.len() < MIN_REPS || (timed < seconds && out.reps.len() < MAX_REPS) {
        let start = Instant::now();
        let state = setup()?;
        out.setups.push(start.elapsed().as_secs_f64());
        let ticks = cpu_ticks();
        let start = Instant::now();
        let (ops, output) = measure(state);
        let elapsed = start.elapsed();
        let steal = match (ticks, cpu_ticks()) {
            (Some((steal0, total0)), Some((steal1, total1))) if total1 > total0 => {
                Some((steal1 - steal0) as f64 / (total1 - total0) as f64)
            }
            _ => None,
        };
        timed += elapsed.as_secs_f64();
        out.reps.push(Rep {
            timed: elapsed,
            ops,
            output,
            steal,
        });
    }
    while out.setups.len() < MIN_SETUPS {
        let start = Instant::now();
        drop(setup()?);
        out.setups.push(start.elapsed().as_secs_f64());
    }
    Ok(out)
}

/// `setup_round` is how many consecutive set-ups make one round of the
/// CPU rotation (1 without one): `setup_s` is the median of the rounds'
/// mean set-up times, so each value weighs every CPU alike.
fn summarize<T>(reps: &Reps<T>, setup_round: usize, result: &mut RunResult) {
    // Repetitions during which the hypervisor stole CPU time measure the
    // host, not the program: the router and worker threads need both
    // virtual CPUs at once, so a stolen one stalls the whole pipeline.
    // Throughput counts the clean repetitions, topped up with the
    // least-stolen others when fewer than `MIN_REPS` are clean; such a run
    // is marked not steady, since the host slowed every repetition of it.
    let mut by_steal: Vec<&Rep<T>> = reps.reps.iter().collect();
    by_steal.sort_by(|a, b| {
        let steal = |r: &Rep<T>| r.steal.unwrap_or(f64::INFINITY);
        steal(a).total_cmp(&steal(b))
    });
    let clean = by_steal
        .iter()
        .take_while(|r| r.steal.is_some_and(|s| s <= MAX_STEAL))
        .count();
    let counted = &by_steal[..clean.max(MIN_REPS).min(by_steal.len())];
    // Work over time across the counted timed regions: a shared virtual
    // machine's speed also swings between a slow and a fast mode over
    // seconds, and a median repetition jumps between the modes where the
    // total averages them.
    let ops: u64 = counted.iter().map(|r| r.ops).sum();
    let rounds: Vec<f64> = reps
        .setups
        .chunks(setup_round.max(1))
        .map(|round| round.iter().sum::<f64>() / round.len() as f64)
        .collect();
    let timed: f64 = counted.iter().map(|r| r.timed.as_secs_f64()).sum();
    result
        .metrics
        .push(metric("throughput_mops", ops as f64 / timed / 1e6, "Mop/s"));
    result.metrics.push(metric("setup_s", median(&rounds), "s"));
    result
        .metrics
        .push(metric("peak_rss_mb", peak_rss_mb(), "MB"));
    let listed: Vec<String> = reps
        .reps
        .iter()
        .map(|r| {
            let rate = r.ops as f64 / r.timed.as_secs_f64() / 1e6;
            format!("{rate:.3}/{:.3}", r.steal.unwrap_or(f64::NAN))
        })
        .collect();
    result.note("repetition_mops/steal", listed.join(" "));
    result.note(
        "repetitions_counted",
        format!("{} of {} ({clean} clean)", counted.len(), reps.reps.len()),
    );
    result.note("steady", if clean >= MIN_REPS { "yes" } else { "no" });
    result.attempted += reps.reps.iter().map(|r| r.ops).sum::<u64>();
}

pub fn run(
    workload: &Workload,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
) -> Result<RunResult, String> {
    match workload.kind {
        Kind::Service => run_service(sizes, seed, seconds),
        Kind::Simulator => run_simulator(sizes, seed, seconds),
    }
}

fn run_service(sizes: &Sizes, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let load = load(sizes, seed)?;
    let reps = repeat(
        seconds,
        || {
            let ops = materialize(&load)?;
            let service = build_service(sizes, true)?;
            service.check_load(&load).map_err(|e| e.to_string())?;
            Ok((ops, service))
        },
        |(ops, service)| {
            let report = service.run(ops.into_iter());
            let facts = report
                .map(|r| ServiceFacts::of(&r))
                .map_err(|e| e.to_string());
            (sizes.requests, facts)
        },
    )?;
    let mut result = RunResult::default();
    summarize(&reps, 1, &mut result);

    let reference = serial_reference(sizes, &load)?;
    for (i, rep) in reps.reps.iter().enumerate() {
        match &rep.output {
            Ok(facts) if *facts == reference => {}
            Ok(facts) => result.fail(
                rep.ops,
                format!("repetition {i} diverged from run_serial: {facts:?} vs {reference:?}"),
            ),
            Err(e) => result.fail(rep.ops, format!("repetition {i} failed: {e}")),
        }
    }
    result.note(
        "outcome_digest",
        format!("{:016x}", reference.outcome_digest),
    );
    result.note("entries", reference.entries);
    result.note("forced_invalidations", reference.forced_invalidations);
    result.note(
        "forced_inval_per_kop",
        reference.forced_invalidations as f64 * 1000.0 / reference.requests.max(1) as f64,
    );
    Ok(result)
}

fn run_simulator(sizes: &Sizes, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let (system, spec) = sim_system();
    // The simulator runs on one thread, and on a shared virtual machine
    // each virtual CPU speeds up and slows down on its own.  Each
    // repetition, set-up included, runs on the next CPU in turn, so a run
    // averages the CPUs instead of measuring whichever one it landed on.
    let mut cpus = CpuRotation::new();
    let reps = repeat(
        seconds,
        || {
            cpus.next();
            warmed_simulator(sizes, &spec, seed)
        },
        |(mut sim, mut refs)| {
            sim.run(&mut refs, sizes.sim_measure);
            (sizes.sim_measure, Ok(sim.report()))
        },
    )?;
    let setup_round = cpus.len();
    drop(cpus);
    let mut result = RunResult::default();
    summarize(&reps, setup_round, &mut result);

    let scalar = scalar_reference_spec(&system)?;
    let (mut sim, mut refs) = warmed_simulator(sizes, &scalar, seed)?;
    sim.run(&mut refs, sizes.sim_measure);
    let reference = unlabelled(sim.report());
    for (i, rep) in reps.reps.iter().enumerate() {
        match &rep.output {
            Ok(report) if unlabelled(report.clone()) == reference => {}
            Ok(report) => result.fail(
                rep.ops,
                format!(
                    "repetition {i} diverged from the scalar-kernel reference: {:016x} vs {:016x}",
                    debug_digest(&unlabelled(report.clone())),
                    debug_digest(&reference)
                ),
            ),
            Err(e) => result.fail(rep.ops, format!("repetition {i} failed: {e}")),
        }
    }
    if reference.refs_processed != sizes.sim_measure {
        result.fail(
            sizes.sim_measure,
            format!(
                "the trace ended after {} references",
                reference.refs_processed
            ),
        );
    }
    result.note(
        "sim_report_digest",
        format!("{:016x}", debug_digest(&reference)),
    );
    result.note("forced_invalidations", reference.forced_invalidations);
    result.note(
        "forced_inval_per_kop",
        reference.forced_invalidations as f64 * 1000.0 / reference.refs_processed.max(1) as f64,
    );
    Ok(result)
}
