//! The service's determinism contract, enforced as a property over the
//! topology grid: for a fixed shard count, **every** (workers × shards)
//! configuration must produce outcome digests and merged statistics
//! bit-identical to inline serial application of the same per-address
//! streams — across scenario families, a calibrated paper profile, and a
//! recorded trace replay.

use ccd_common::rng::{Rng64, SplitMix64};
use ccd_common::CacheId;
use ccd_directory::DirectoryOp;
use ccd_service::{DirectoryService, LoadSpec, ServiceConfig};
use ccd_workloads::{record_trace, WorkloadSpec};
use std::collections::BTreeMap;

const CORES: usize = 8;
const REQUESTS: u64 = 20_000;

fn build(spec: &str, shards: usize, workers: usize) -> DirectoryService {
    DirectoryService::build_standard(ServiceConfig::new(spec, shards, workers))
        .expect("test topology builds")
}

fn assert_matches_serial(spec: &str, shards: usize, workers: usize, load: &LoadSpec) {
    let serial = build(spec, shards, 1)
        .run_load_serial(load)
        .expect("serial reference runs");
    let report = build(spec, shards, workers)
        .run_load(load)
        .expect("service runs");
    assert_eq!(report.requests, REQUESTS);
    assert_eq!(
        report.semantics(),
        serial.semantics(),
        "{} x {shards} shards x {workers} workers must be bit-identical to serial",
        load.workload.label()
    );
}

/// The cache an operation acts for, and whether it claims exclusivity.
fn actor(op: &DirectoryOp) -> Option<(CacheId, bool)> {
    match *op {
        DirectoryOp::AddSharer { cache, .. } => Some((cache, false)),
        DirectoryOp::SetExclusive { cache, .. } => Some((cache, true)),
        _ => None,
    }
}

/// The outcome digests pin every request, in sequence, on its shard:
/// dropping the last request moves the serial digest, and so does swapping
/// two consecutive requests to one line (so on one shard) from different
/// caches, at least one of them exclusive — the later request's
/// invalidation set differs between the two orders.
fn assert_digest_pins_every_request(spec: &str, shards: usize, load: &LoadSpec) {
    let label = load.workload.label();
    let ops: Vec<DirectoryOp> = load.ops().expect("load streams").collect();
    let serial = |ops: &[DirectoryOp]| {
        build(spec, shards, 1)
            .run_serial(ops.iter().copied())
            .outcome_digest
    };
    let reference = serial(&ops);
    assert_ne!(
        serial(&ops[..ops.len() - 1]),
        reference,
        "{label} x {shards} shards: dropping the last request must move the digest"
    );

    let mut last_on_line: BTreeMap<u64, usize> = BTreeMap::new();
    let pair = ops.iter().enumerate().find_map(|(j, op)| {
        let i = last_on_line.insert(op.line().block_number(), j)?;
        let ((a, a_exclusive), (b, b_exclusive)) = (actor(&ops[i])?, actor(op)?);
        (a != b && (a_exclusive || b_exclusive)).then_some((i, j))
    });
    let (i, j) = pair.unwrap_or_else(|| panic!("{label}: no swappable same-line pair"));
    let mut swapped = ops.clone();
    swapped.swap(i, j);
    assert_ne!(
        serial(&swapped),
        reference,
        "{label} x {shards} shards: swapping requests {i} and {j} must move the digest"
    );
}

/// Two scenario families and a paper profile, across the topology grid and
/// two shard organizations (a set-associative baseline and the cuckoo
/// directory, whose displacement chains make outcome identity a much
/// stronger statement).
#[test]
fn every_topology_matches_serial_application() {
    let workloads = ["readmostly", "prodcons", "migratory-zipf0.9", "oracle"];
    for (index, workload) in workloads.iter().enumerate() {
        let load = LoadSpec::parse(workload, CORES, 0xD0_0D + index as u64, REQUESTS)
            .expect("catalog workload parses");
        for spec in ["sparse-4x256-c8", "cuckoo-4x128-c8"] {
            for shards in [2usize, 8] {
                for workers in [1usize, 2, shards] {
                    assert_matches_serial(spec, shards, workers, &load);
                }
                assert_digest_pins_every_request(spec, shards, &load);
            }
        }
    }
}

/// A recorded trace replayed as service traffic is subject to the same
/// contract — and, replayed twice, produces the same report bytes.
#[test]
fn trace_replay_traffic_matches_serial_application() {
    let dir = std::env::temp_dir().join("ccd-service-determinism");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("replay-{}.ccdt", std::process::id()));

    let recorded: WorkloadSpec = "falseshare".parse().unwrap();
    let stream = recorded.stream(CORES, 99).unwrap();
    let written = record_trace(&path, CORES as u32, stream, REQUESTS).unwrap();
    assert_eq!(written, REQUESTS);

    let load = LoadSpec {
        workload: WorkloadSpec::replay(path.to_str().unwrap()),
        cores: CORES,
        seed: 0, // ignored by replays
        requests: REQUESTS,
    };
    for workers in [1usize, 2, 4] {
        assert_matches_serial("cuckoo-4x128-c8", 4, workers, &load);
    }
    assert_digest_pins_every_request("cuckoo-4x128-c8", 4, &load);

    // Replay is also reproducible wholesale: same file, same report.
    let once = build("cuckoo-4x128-c8", 4, 2).run_load(&load).unwrap();
    let twice = build("cuckoo-4x128-c8", 4, 2).run_load(&load).unwrap();
    assert_eq!(once, twice);
    std::fs::remove_file(&path).ok();
}

/// Randomized topologies (seeded, reproducible): any (shards, workers,
/// queue depth, batch size) the config accepts obeys the contract.
#[test]
fn randomized_topologies_obey_the_contract() {
    let mut rng = SplitMix64::new(0x0CCD_5EED);
    let load = LoadSpec::parse("stream-b1024", CORES, 7, REQUESTS).unwrap();
    let serial = build("sparse-4x256-c8", 4, 1)
        .run_load_serial(&load)
        .expect("serial reference runs");
    for _ in 0..6 {
        let workers = 1 + (rng.next_u64() % 4) as usize;
        let queue_depth = 1 + (rng.next_u64() % 8) as usize;
        let batch = 1 + (rng.next_u64() % 500) as usize;
        let config = ServiceConfig::new("sparse-4x256-c8", 4, workers)
            .with_queue_depth(queue_depth)
            .with_batch(batch);
        let report = DirectoryService::build_standard(config)
            .expect("topology builds")
            .run_load(&load)
            .expect("service runs");
        assert_eq!(
            report.semantics(),
            serial.semantics(),
            "workers={workers} queue={queue_depth} batch={batch}"
        );
    }
}
