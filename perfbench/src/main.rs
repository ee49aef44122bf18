//! The repository benchmark.
//!
//! ```text
//! ccd-perfbench --workload <svc-hot|svc-spill|sim-oracle> --seed <n>
//!               --seconds <s> --trace <0|1> [--scale tiny] [--trace-dir <dir>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics (`throughput_mops`,
//! `setup_s`, `peak_rss_mb`) with no instrumentation beyond one clock read
//! per repetition, and checks every repetition's outputs against a
//! reference run.  `--trace 1` is a separate run that drives each layer
//! from outside through its public API, records a span around every call,
//! and reports the per-layer metrics.  The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//!
//! See `README.md` beside this crate for the workloads, the metric tables
//! and the numbers measured so far.

mod capture;
mod e2e;
mod layers;
mod report;
mod spans;
mod workloads;

use std::process::ExitCode;

/// Environment overrides the library honours that would change what the
/// benchmark measures without relabelling it: `CCD_OBS` arms
/// observability in timed runs, `CCD_PROBE` swaps the probe kernel,
/// `CCD_FAULTS`, `CCD_WORKERS` and `CCD_SCALE` steer the repository's
/// tests and figure binaries.
const REFUSED_ENV: &[&str] = &[
    "CCD_PROBE",
    "CCD_OBS",
    "CCD_FAULTS",
    "CCD_WORKERS",
    "CCD_SCALE",
];

struct Args {
    workload: &'static workloads::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    trace_dir: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut trace_dir = "perfbench/traces".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(workloads::by_name(&name).ok_or_else(|| {
                    let known: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{name}` (known: {})", known.join(", "))
                })?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
                });
            }
            "--scale" => {
                tiny = match value()?.as_str() {
                    "full" => false,
                    "tiny" => true,
                    other => return Err(format!("--scale must be full or tiny, not `{other}`")),
                };
            }
            "--trace-dir" => trace_dir = value()?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
        trace_dir,
    })
}

fn main() -> ExitCode {
    if let Some(var) = REFUSED_ENV
        .iter()
        .find(|var| std::env::var_os(var).is_some())
    {
        eprintln!("ccd-perfbench: refusing to start: {var} is set; unset it to benchmark");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ccd-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let sizes = args.workload.sizes(args.tiny);
    println!(
        "ccd-perfbench: workload {} seed {} seconds {} trace {} scale {} (available parallelism {})",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.tiny { "tiny" } else { "full" },
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    let outcome = if args.trace {
        layers::run(args.workload, &sizes, args.seed, &args.trace_dir)
    } else {
        e2e::run(args.workload, &sizes, args.seed, args.seconds)
    };
    match outcome {
        Ok(mut result) => {
            result.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ccd-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
