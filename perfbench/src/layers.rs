//! The traced run: every layer driven from outside through its public API
//! with the workload's own traffic, a span around each call, and the
//! per-layer metrics derived from those spans and the layers' exact
//! counters.
//!
//! * `ccd-workloads` — drawing the op stream (`LoadSpec::ops`) and the
//!   reference stream (`WorkloadSpec::stream`);
//! * `ccd-service` — `run_serial` with the outcome log on and off, `run`
//!   with one worker, and `run` again with the op iterator wrapped in a
//!   [`GapTimer`] to time the router thread;
//! * `ccd-directory` / `ccd-cuckoo` — the workload's own directory traffic
//!   replayed through fresh slices of the workload's own directory, once
//!   through `apply` (every 64th call timed, depth histograms armed) and
//!   once through the prefetching `apply_batch`.  For `svc-*` that is the
//!   op stream routed `block % shards` onto registry-built shard slices;
//!   for `sim-oracle` it is the operations the simulator sends its
//!   directory ([`capture`]), replayed through `DirectorySpec::build_slice`
//!   slices after the warm-up's operations;
//! * `ccd-coherence` / `ccd-cache` — the paper's CMP driven by the same
//!   workload's reference stream: warm-up, a measured phase, then
//!   individually timed `process` calls.

use crate::capture::{capture, SliceOp};
use crate::e2e::{self, ServiceFacts};
use crate::report::{metric, RunResult};
use crate::spans::{GapTimer, Tracer};
use crate::workloads::{Kind, Sizes, Workload, SHARDS};
use ccd_common::stats::LogHistogram;
use ccd_common::LineAddr;
use ccd_directory::{DepthMetrics, Directory, DirectoryOp, DirectorySpec, DirectoryStats, Outcome};
use ccd_service::{ObsConfig, ServiceReport, DEFAULT_BATCH};
use std::time::Instant;

/// Histogram resolution: quantiles within 2^-4 = 6.25%.
const SIG_BITS: u32 = 4;
/// Every n-th `Directory::apply` / `CmpSimulator::process` call is timed
/// on its own (two clock reads), so the sampling barely slows the pass.
const APPLY_SAMPLE_EVERY: usize = 64;
const PROCESS_SAMPLE_EVERY: u64 = 16;

fn per_op(seconds: f64, ops: u64) -> f64 {
    seconds * 1e9 / ops.max(1) as f64
}

fn per_kop(count: u64, ops: u64) -> f64 {
    count as f64 * 1000.0 / ops.max(1) as f64
}

fn route(op: DirectoryOp) -> SliceOp {
    let block = op.line().block_number();
    let shards = SHARDS as u64;
    (
        (block % shards) as usize,
        op.with_line(LineAddr::from_block_number(block / shards)),
    )
}

/// Builds the service (a `service.build` span) for one traced pass.
fn build(
    tr: &mut Tracer,
    sizes: &Sizes,
    record_outcomes: bool,
) -> Result<ccd_service::DirectoryService, String> {
    let (service, _) = tr.time("service.build", "service", 1, || {
        e2e::build_service(sizes, record_outcomes)
    });
    service
}

/// Checks a concurrent report against the serial reference, counting a
/// mismatch or an error as failed operations.
fn check(
    report: Result<ServiceReport, ccd_service::ServiceError>,
    reference: &ServiceFacts,
    pass: &str,
    result: &mut RunResult,
) -> Option<ServiceReport> {
    result.attempted += reference.requests;
    match report {
        Ok(report) if ServiceFacts::of(&report) == *reference => Some(report),
        Ok(report) => {
            let facts = ServiceFacts::of(&report);
            result.fail(
                reference.requests,
                format!("{pass} diverged from run_serial: {facts:?} vs {reference:?}"),
            );
            None
        }
        Err(e) => {
            result.fail(reference.requests, format!("{pass} failed: {e}"));
            None
        }
    }
}

/// Builds `count` slices of one directory (a `directory.build` span).
fn build_slices(
    tr: &mut Tracer,
    count: usize,
    build: &dyn Fn() -> Result<Box<dyn Directory>, String>,
) -> Result<Vec<Box<dyn Directory>>, String> {
    let (built, _) = tr.time("directory.build", "directory", count as u64, || {
        (0..count).map(|_| build()).collect::<Result<Vec<_>, _>>()
    });
    built
}

/// Applies `warmup` untimed, then clears every slice's statistics, as the
/// paper's method does between warm-up and measurement.
fn warm_up(tr: &mut Tracer, slices: &mut [Box<dyn Directory>], warmup: &[SliceOp]) {
    if warmup.is_empty() {
        return;
    }
    let mut out = Outcome::new();
    let id = tr.begin("directory.warmup", "directory");
    for &(slice, op) in warmup {
        slices[slice].apply(op, &mut out);
    }
    tr.end(id, warmup.len() as u64);
    for slice in slices.iter_mut() {
        slice.reset_stats();
    }
}

/// What one directory-layer replay measured.
struct Replay {
    ops: u64,
    t_apply: f64,
    t_apply_batch: f64,
    apply_ns: LogHistogram,
    stats: DirectoryStats,
    depth: DepthMetrics,
    forced: u64,
    invalidations: u64,
    batch_forced: u64,
    entries: usize,
    capacity: usize,
}

/// Replays `warmup` and then the `measured` operations through fresh
/// slices twice: through `apply`, every `APPLY_SAMPLE_EVERY`-th call timed
/// on its own and the depth histograms armed for the measured phase, and
/// through the prefetching `apply_batch` in per-slice batches of
/// `DEFAULT_BATCH`, as a service worker drains them.
fn replay<I: Iterator<Item = SliceOp>>(
    tr: &mut Tracer,
    count: usize,
    build: &dyn Fn() -> Result<Box<dyn Directory>, String>,
    warmup: &[SliceOp],
    measured: impl Fn() -> I,
    sig_bits: u32,
) -> Result<Replay, String> {
    let mut slices = build_slices(tr, count, build)?;
    warm_up(tr, &mut slices, warmup);
    for slice in &mut slices {
        slice.arm_depth_metrics(sig_bits);
    }
    let mut out = Outcome::new();
    let mut apply_ns = LogHistogram::new(SIG_BITS);
    let (mut ops, mut forced, mut invalidations) = (0u64, 0u64, 0u64);
    let id = tr.begin("directory.apply", "directory");
    for (i, (slice, op)) in measured().enumerate() {
        if i % APPLY_SAMPLE_EVERY == 0 {
            let start = Instant::now();
            slices[slice].apply(op, &mut out);
            apply_ns.record(start.elapsed().as_nanos() as u64);
        } else {
            slices[slice].apply(op, &mut out);
        }
        ops += 1;
        forced += out.forced_invalidation_count() as u64;
        invalidations += out.invalidate().len() as u64;
    }
    let t_apply = tr.end(id, ops);
    let mut stats = DirectoryStats::new();
    let mut depth = DepthMetrics::new(sig_bits);
    for slice in &slices {
        stats.merge(slice.stats());
        if let Some(recorded) = slice.depth_metrics() {
            depth.merge(recorded);
        }
    }
    let entries = slices.iter().map(|s| s.len()).sum();
    let capacity = slices.iter().map(|s| s.capacity()).sum();
    drop(slices);

    let mut slices = build_slices(tr, count, build)?;
    warm_up(tr, &mut slices, warmup);
    let mut pending: Vec<Vec<DirectoryOp>> = (0..count)
        .map(|_| Vec::with_capacity(DEFAULT_BATCH))
        .collect();
    let mut batch_forced = 0u64;
    let mut sink =
        |_: &DirectoryOp, out: &Outcome| batch_forced += out.forced_invalidation_count() as u64;
    let id = tr.begin("directory.apply_batch", "directory");
    for (slice, op) in measured() {
        pending[slice].push(op);
        if pending[slice].len() == DEFAULT_BATCH {
            slices[slice].apply_batch(&pending[slice], &mut out, &mut sink);
            pending[slice].clear();
        }
    }
    for (slice, batch) in slices.iter_mut().zip(&pending) {
        slice.apply_batch(batch, &mut out, &mut sink);
    }
    let t_apply_batch = tr.end(id, ops);
    Ok(Replay {
        ops,
        t_apply,
        t_apply_batch,
        apply_ns,
        stats,
        depth,
        forced,
        invalidations,
        batch_forced,
        entries,
        capacity,
    })
}

pub fn run(
    workload: &Workload,
    sizes: &Sizes,
    seed: u64,
    trace_dir: &str,
) -> Result<RunResult, String> {
    let mut tr = Tracer::new();
    let mut result = RunResult::default();
    let root = tr.begin("bench", "bench");
    let n = sizes.requests;
    let m = sizes.sim_measure;

    // --- ccd-workloads ------------------------------------------------
    let load = e2e::load(sizes, seed)?;
    let (ops, t_gen_ops) = tr.time("workloads.load_ops", "workloads", n, || {
        e2e::materialize(&load)
    });
    let ops = ops?;
    let traffic = e2e::traffic(sizes)?;
    let (system, sim_spec) = e2e::sim_system();
    let (drawn, t_gen_refs) = tr.time("workloads.stream_refs", "workloads", m, || {
        traffic
            .stream(system.num_cores, seed)
            .map(|refs| refs.take(m as usize).count() as u64)
    });
    if drawn.map_err(|e| e.to_string())? != m {
        return Err(format!("{} ended before {m} references", sizes.traffic));
    }

    // --- ccd-service --------------------------------------------------
    let service = build(&mut tr, sizes, true)?;
    let (serial, t_serial) = tr.time("service.run_serial", "service", n, || {
        service.run_serial(ops.iter().copied())
    });
    let reference = ServiceFacts::of(&serial);
    drop(serial);
    result.note(
        "outcome_digest",
        format!("{:016x}", reference.outcome_digest),
    );

    let service = build(&mut tr, sizes, false)?;
    let (unlogged, t_serial_unlogged) =
        tr.time("service.run_serial_unlogged", "service", n, || {
            service.run_serial(ops.iter().copied())
        });
    result.attempted += n;
    if unlogged.stats.forced_invalidations.get() != reference.forced_invalidations
        || unlogged.requests != reference.requests
    {
        result.fail(n, "run_serial without the outcome log diverged".to_string());
    }
    drop(unlogged);

    let service = build(&mut tr, sizes, true)?;
    let (report, t_run) = tr.time("service.run", "service", n, || {
        service.run(ops.iter().copied())
    });
    let batches = check(report, &reference, "service.run", &mut result).map_or(0, |r| r.batches);

    let mut gaps = LogHistogram::new(SIG_BITS);
    let service = build(&mut tr, sizes, true)?;
    let ((report, blocked_ns), t_run_timed) =
        tr.time("service.run_gap_timed", "service", n, || {
            let mut timer = GapTimer::new(ops.iter().copied(), &mut gaps);
            let report = service.run(&mut timer);
            (report, timer.blocked_ns)
        });
    check(report, &reference, "service.run_gap_timed", &mut result);

    // --- ccd-directory / ccd-cuckoo -----------------------------------
    let obs = ObsConfig::parse(&format!("obs-sig{SIG_BITS}")).map_err(|e| e.to_string())?;
    let mut captured = None;
    let dir = match workload.kind {
        Kind::Service => {
            let spec: DirectorySpec = sizes
                .service_spec
                .parse()
                .map_err(|e: ccd_common::ConfigError| e.to_string())?;
            let slice = DirectorySpec {
                sets: spec.sets / SHARDS,
                ..spec
            };
            let registry = ccd_cuckoo::standard_registry();
            let build = || registry.build(&slice).map_err(|e| e.to_string());
            let dir = replay(
                &mut tr,
                SHARDS,
                &build,
                &[],
                || ops.iter().map(|op| route(*op)),
                obs.sig_bits(),
            )?;
            result.attempted += 2 * n;
            if (
                dir.forced,
                dir.invalidations,
                dir.entries,
                dir.stats.insertions.get(),
            ) != (
                reference.forced_invalidations,
                reference.invalidations,
                reference.entries,
                reference.insertions,
            ) {
                result.fail(
                    n,
                    "the directory replay diverged from run_serial".to_string(),
                );
            }
            if dir.batch_forced != reference.forced_invalidations {
                result.fail(
                    n,
                    "the apply_batch replay diverged from run_serial".to_string(),
                );
            }
            dir
        }
        Kind::Simulator => {
            let mut refs = traffic
                .stream(system.num_cores, seed)
                .map_err(|e| e.to_string())?;
            let id = tr.begin("bench.capture_directory_ops", "bench");
            let ops = capture(&system, &sim_spec, &mut refs, sizes.sim_warmup, m)?;
            tr.end(id, sizes.sim_warmup + m);
            let build = || sim_spec.build_slice(&system).map_err(|e| e.to_string());
            let dir = replay(
                &mut tr,
                system.num_slices(),
                &build,
                &ops.warmup,
                || ops.measured.iter().copied(),
                obs.sig_bits(),
            )?;
            result.attempted += 2 * dir.ops;
            if dir.stats != ops.stats {
                result.fail(
                    dir.ops,
                    "the directory replay diverged from the recorded simulation".to_string(),
                );
            }
            if dir.batch_forced != dir.forced {
                result.fail(
                    dir.ops,
                    "the apply_batch replay diverged from apply".to_string(),
                );
            }
            captured = Some((ops.stats, ops.cache_totals));
            dir
        }
    };
    drop(ops);

    // --- ccd-coherence / ccd-cache ------------------------------------
    let id = tr.begin("coherence.build_warmup", "coherence");
    let (mut sim, mut refs) = e2e::warmed_simulator(sizes, &sim_spec, seed)?;
    tr.end(id, sizes.sim_warmup);
    let id = tr.begin("coherence.measure", "coherence");
    sim.run(&mut refs, m);
    let t_measure = tr.end(id, m);
    let sim_report = sim.report();
    let (accesses, misses) = sim.tiles().totals();
    result.attempted += m;
    if let Some((stats, totals)) = &captured {
        if *stats != sim_report.directory || *totals != (accesses, misses) {
            result.fail(
                m,
                "the recorded directory traffic does not reproduce the simulator".to_string(),
            );
        }
    }
    if sim_report.refs_processed != m {
        result.fail(
            m,
            format!(
                "the simulator processed {} of {m} references",
                sim_report.refs_processed
            ),
        );
    }

    let k = sizes.sim_sampled;
    let mut process_ns = LogHistogram::new(SIG_BITS);
    let id = tr.begin("coherence.process_sampled", "coherence");
    for i in 0..k {
        let r = refs.next().ok_or("the reference stream ended")?;
        if i % PROCESS_SAMPLE_EVERY == 0 {
            let start = Instant::now();
            sim.process(r);
            process_ns.record(start.elapsed().as_nanos() as u64);
        } else {
            sim.process(r);
        }
    }
    tr.end(id, k);

    // Tracing overhead: the workload's end-to-end call with one clock read
    // per operation (the GapTimer) against the same call without it.  The
    // simulator alternates quarters plain / timed / timed / plain, so a
    // drift in machine speed cancels out.
    let overhead = match workload.kind {
        Kind::Service => t_run_timed / t_run - 1.0,
        Kind::Simulator => {
            let mut sim_gaps = LogHistogram::new(SIG_BITS);
            let quarter = m / 4;
            let (mut plain, mut timed) = (0.0, 0.0);
            for gap_timed in [false, true, true, false] {
                if gap_timed {
                    let id = tr.begin("coherence.measure_gap_timed", "coherence");
                    sim.run(&mut GapTimer::new(&mut refs, &mut sim_gaps), quarter);
                    timed += tr.end(id, quarter);
                } else {
                    let id = tr.begin("coherence.measure_plain", "coherence");
                    sim.run(&mut refs, quarter);
                    plain += tr.end(id, quarter);
                }
            }
            timed / plain - 1.0
        }
    };
    tr.end(root, 1);

    // --- metrics --------------------------------------------------------
    let gen = match workload.kind {
        Kind::Service => per_op(t_gen_ops, n),
        Kind::Simulator => per_op(t_gen_refs, m),
    };
    let stats = &dir.stats;
    let attempts = &stats.insertion_attempts;
    let d = dir.ops;
    let attempt_sum: u64 = attempts.iter().map(|(value, count)| value * count).sum();
    let successes = stats
        .insertions
        .get()
        .saturating_sub(stats.insertion_failures.get());
    let metrics = &mut result.metrics;
    metrics.push(metric("workloads.gen_ns_per_op", gen, "ns"));
    metrics.push(metric(
        "service.serial_ns_per_op",
        per_op(t_serial, n),
        "ns",
    ));
    metrics.push(metric(
        "service.outcome_log_ns_per_op",
        per_op(t_serial - t_serial_unlogged, n),
        "ns",
    ));
    metrics.push(metric(
        "service.ingest_ns_per_op",
        per_op(t_run - t_serial, n),
        "ns",
    ));
    metrics.push(metric("service.router_gap_p50_ns", gaps.p50() as f64, "ns"));
    metrics.push(metric("service.router_gap_p99_ns", gaps.p99() as f64, "ns"));
    metrics.push(metric(
        "service.router_gap_samples",
        gaps.count() as f64,
        "count",
    ));
    metrics.push(metric(
        "service.router_blocked_frac",
        blocked_ns as f64 / 1e9 / t_run_timed,
        "frac",
    ));
    metrics.push(metric(
        "service.reqs_per_batch",
        n as f64 / batches.max(1) as f64,
        "count",
    ));
    metrics.push(metric(
        "directory.apply_ns_per_op",
        per_op(dir.t_apply, d),
        "ns",
    ));
    metrics.push(metric(
        "directory.apply_batch_ns_per_op",
        per_op(dir.t_apply_batch, d),
        "ns",
    ));
    metrics.push(metric(
        "directory.apply_p50_ns",
        dir.apply_ns.p50() as f64,
        "ns",
    ));
    metrics.push(metric(
        "directory.apply_p99_ns",
        dir.apply_ns.p99() as f64,
        "ns",
    ));
    metrics.push(metric(
        "directory.apply_samples",
        dir.apply_ns.count() as f64,
        "count",
    ));
    metrics.push(metric(
        "directory.lookups_per_kop",
        per_kop(stats.lookups.get(), d),
        "count",
    ));
    metrics.push(metric(
        "directory.insertions_per_kop",
        per_kop(stats.insertions.get(), d),
        "count",
    ));
    metrics.push(metric(
        "directory.occupancy",
        dir.entries as f64 / dir.capacity.max(1) as f64,
        "frac",
    ));
    metrics.push(metric(
        "directory.forced_inval_per_kop",
        per_kop(dir.forced, d),
        "count",
    ));
    metrics.push(metric(
        "cuckoo.attempts_per_insert",
        attempt_sum as f64 / successes.max(1) as f64,
        "count",
    ));
    metrics.push(metric(
        "cuckoo.insert_fail_frac",
        stats.insertion_failures.get() as f64 / stats.insertions.get().max(1) as f64,
        "frac",
    ));
    metrics.push(metric(
        "cuckoo.probe_depth_p99",
        dir.depth.probe_depth.p99() as f64,
        "count",
    ));
    metrics.push(metric(
        "cuckoo.probe_depth_samples",
        dir.depth.probe_depth.count() as f64,
        "count",
    ));
    metrics.push(metric(
        "cuckoo.displacement_chain_p99",
        dir.depth.displacement_chain.p99() as f64,
        "count",
    ));
    metrics.push(metric(
        "cuckoo.displacement_chain_samples",
        dir.depth.displacement_chain.count() as f64,
        "count",
    ));
    metrics.push(metric(
        "coherence.process_ns_per_ref",
        per_op(t_measure - t_gen_refs, m),
        "ns",
    ));
    metrics.push(metric(
        "coherence.process_p50_ns",
        process_ns.p50() as f64,
        "ns",
    ));
    metrics.push(metric(
        "coherence.process_p99_ns",
        process_ns.p99() as f64,
        "ns",
    ));
    metrics.push(metric(
        "coherence.process_samples",
        process_ns.count() as f64,
        "count",
    ));
    metrics.push(metric(
        "cache.miss_ratio",
        misses as f64 / accesses.max(1) as f64,
        "frac",
    ));
    metrics.push(metric(
        "coherence.dir_ops_per_ref",
        sim_report.directory.total_operations() as f64 / m as f64,
        "count",
    ));
    metrics.push(metric("trace.overhead_frac", overhead, "frac"));
    for (layer, ns) in tr.self_ns_by_layer() {
        metrics.push(metric(
            format!("trace.self_ms.{layer}"),
            ns as f64 / 1e6,
            "ms",
        ));
    }

    let path = std::path::Path::new(trace_dir).join(format!("{}-seed{seed}.jsonl", workload.name));
    tr.write_jsonl(&path)
        .map_err(|e| format!("writing spans to {}: {e}", path.display()))?;
    result.note("spans", path.display());
    Ok(result)
}
