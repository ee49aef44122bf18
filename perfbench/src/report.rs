//! Metric values, the result line, and the host measurements (clock
//! statistics, peak resident memory) the workloads share.

use std::fmt::Write as _;

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Everything one invocation prints.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Reasons the outputs were judged wrong (empty when correct).
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Exact values printed beside the metrics so two commits compare
    /// bit-for-bit: outcome digests, forced-invalidation counts.
    pub notes: Vec<(String, String)>,
}

impl RunResult {
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.errors.push(why);
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Prints the human-readable lines, then the one-line JSON result as
    /// the last line of standard output.
    pub fn print(&mut self) {
        for metric in &self.metrics {
            if !metric.value.is_finite() {
                self.errors
                    .push(format!("metric {} is not finite", metric.name));
            }
        }
        for (key, value) in &self.notes {
            println!("{key:<34} {value}");
        }
        for metric in &self.metrics {
            println!("{:<34} {:>16.6} {}", metric.name, metric.value, metric.unit);
        }
        let fail_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!("{:<34} {:>16.6}", "fail_frac", fail_frac);
        for error in &self.errors {
            eprintln!("check failed: {error}");
        }
        let correct = self.errors.is_empty() && self.failed == 0 && self.attempted > 0;
        let mut line = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, metric) in self.metrics.iter().enumerate() {
            let value = if metric.value.is_finite() {
                metric.value
            } else {
                0.0
            };
            let sep = if i == 0 { "" } else { ", " };
            write!(
                line,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            )
            .expect("writing to a String cannot fail");
        }
        line.push_str("}}");
        println!("{line}");
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Steal and total CPU time of the whole machine so far, in clock ticks
/// (`/proc/stat`).  Steal is time the hypervisor ran something else on
/// this machine's virtual CPUs.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|field| field.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Moves the calling thread round the CPUs it may run on, one CPU per
/// call to [`CpuRotation::next`], and restores its original CPU set when
/// dropped.  Where the CPU set cannot be read or holds one CPU, it does
/// nothing.
pub struct CpuRotation {
    original: [u64; 16],
    allowed: Vec<usize>,
    turn: usize,
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Sets the calling thread's CPU set (a 1024-CPU `cpu_set_t`).
fn set_affinity(mask: &[u64; 16]) {
    // SAFETY: `mask` is a whole `cpu_set_t`, alive for the call; pid 0 is
    // the calling thread.  A failure leaves the CPU set as it was.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) };
}

impl CpuRotation {
    pub fn new() -> Self {
        let mut original = [0u64; 16];
        // SAFETY: as in `set_affinity`; the kernel writes at most
        // `cpusetsize` bytes into `original`.
        let read = unsafe {
            sched_getaffinity(0, std::mem::size_of_val(&original), original.as_mut_ptr())
        };
        let allowed = if read == 0 {
            (0..1024)
                .filter(|cpu| original[cpu / 64] >> (cpu % 64) & 1 == 1)
                .collect()
        } else {
            Vec::new()
        };
        CpuRotation {
            original,
            allowed,
            turn: 0,
        }
    }

    /// How many CPUs the rotation visits (1 when it does nothing).
    pub fn len(&self) -> usize {
        if self.allowed.len() < 2 {
            1
        } else {
            self.allowed.len()
        }
    }

    /// Pins the calling thread to the next allowed CPU.
    pub fn next(&mut self) {
        if self.allowed.len() < 2 {
            return;
        }
        let cpu = self.allowed[self.turn % self.allowed.len()];
        self.turn += 1;
        let mut mask = [0u64; 16];
        mask[cpu / 64] = 1 << (cpu % 64);
        set_affinity(&mask);
    }
}

impl Drop for CpuRotation {
    fn drop(&mut self) {
        if self.allowed.len() >= 2 {
            set_affinity(&self.original);
        }
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// FNV-1a over a value's `Debug` rendering: a digest of a whole report,
/// floats included (their `Debug` form round-trips exactly).
pub fn debug_digest(value: &impl std::fmt::Debug) -> u64 {
    let mut digest = ccd_common::stats::Fnv64::new();
    for byte in format!("{value:?}").bytes() {
        digest.fold(u64::from(byte));
    }
    digest.finish()
}
