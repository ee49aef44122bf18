//! The benchmark's workload table: which traffic each workload drives
//! through which layer, at which size.

/// The service topology every `svc-*` workload uses.  The host has two
/// hardware threads, so one worker plus the calling router thread.
pub const SHARDS: usize = 4;
pub const WORKERS: usize = 1;
/// Cores issuing references (and caches the service specs track).
pub const CORES: usize = 16;

/// What a workload's end-to-end timed region measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `DirectoryService::run` over a materialized op stream.
    Service,
    /// `CmpSimulator::run` over an inline-generated reference stream.
    Simulator,
}

/// The sizes of one workload at one scale.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Directory spec of the service shards (and, for `svc-*`, of the
    /// directory-layer replay in the traced run).
    pub service_spec: &'static str,
    /// `ccd-workloads` spec string of the traffic.
    pub traffic: &'static str,
    /// Requests per service run.
    pub requests: u64,
    /// Simulated references before `reset_stats`.
    pub sim_warmup: u64,
    /// Simulated references in the measured phase.
    pub sim_measure: u64,
    /// Individually timed `CmpSimulator::process` calls (traced run).
    pub sim_sampled: u64,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub full: Sizes,
    /// A seconds-long version of the same pipeline for the smoke test.
    pub tiny: Sizes,
}

impl Workload {
    pub fn sizes(&self, tiny: bool) -> Sizes {
        if tiny {
            self.tiny
        } else {
            self.full
        }
    }
}

/// The service shape `svc-hot` uses; `sim-oracle`'s traced run drives its
/// service layer through it as well.
const HOT_SPEC: &str = "cuckoo-4x4096-c16";

pub const WORKLOADS: &[Workload] = &[
    // Ingestion-bound: a 16 Ki-entry table that fits in L2 and
    // read-modify-write traffic, so the router, channel hop and outcome
    // log dominate the per-request cost.
    Workload {
        name: "svc-hot",
        kind: Kind::Service,
        full: Sizes {
            service_spec: HOT_SPEC,
            traffic: "migratory-zipf0.9",
            requests: 2_000_000,
            sim_warmup: 500_000,
            sim_measure: 1_000_000,
            sim_sampled: 200_000,
        },
        tiny: Sizes {
            service_spec: HOT_SPEC,
            traffic: "migratory-zipf0.9",
            requests: 20_000,
            sim_warmup: 10_000,
            sim_measure: 10_000,
            sim_sampled: 2_000,
        },
    },
    // DRAM-bound: 8 Mi slots (hundreds of MB) and a 4 Mi-line read-mostly
    // stream, so every probe is a cold line.  `tagalt` is pinned because
    // the default skewing hash collapses on this address pattern.  The run
    // is long enough that hits on resident lines outnumber first-touch
    // inserts (4 Mi).
    Workload {
        name: "svc-spill",
        kind: Kind::Service,
        full: Sizes {
            service_spec: "cuckoo-4x2097152-tagalt-c16",
            traffic: "stream-b262144",
            requests: 9_000_000,
            sim_warmup: 500_000,
            sim_measure: 1_000_000,
            sim_sampled: 200_000,
        },
        tiny: Sizes {
            service_spec: "cuckoo-4x8192-tagalt-c16",
            traffic: "stream-b1024",
            requests: 40_000,
            sim_warmup: 10_000,
            sim_measure: 10_000,
            sim_sampled: 2_000,
        },
    },
    // The paper's methodology on its 16-core Shared-L2 CMP: caches, the
    // coherence engine and inline trace generation, no service at all.
    Workload {
        name: "sim-oracle",
        kind: Kind::Simulator,
        full: Sizes {
            service_spec: HOT_SPEC,
            traffic: "oracle",
            requests: 2_000_000,
            sim_warmup: 1_000_000,
            sim_measure: 4_000_000,
            sim_sampled: 500_000,
        },
        tiny: Sizes {
            service_spec: HOT_SPEC,
            traffic: "oracle",
            requests: 20_000,
            sim_warmup: 20_000,
            sim_measure: 20_000,
            sim_sampled: 2_000,
        },
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
