//! `sfqbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Runs one workload and prints the detailed report followed by the result
//! line (the last line of standard output). Set-up time is the median over
//! fresh processes (`--setup-probe`) and this one: set-up includes cold
//! synthesis, whose memo cache is process-wide. Exits 1 when an output
//! check fails and 2 on a usage or environment error.

use sfq_telemetry::Fingerprint;
use sfqbench::report;
use sfqbench::{fig5, stats, RunConfig, Scale, Workload};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Fresh processes that each time one set-up: at least [`MIN_PROBES`],
/// and more while they fit in [`PROBE_BUDGET_S`], so that a set-up of a
/// few milliseconds still yields a steady median.
const MIN_PROBES: usize = 2;
const MAX_PROBES: usize = 15;
const PROBE_BUDGET_S: f64 = 1.0;

struct Args {
    workload: Workload,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Fig5Paper,
        seed: None,
        seconds: 20.0,
        trace: false,
        setup_probe: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            args.setup_probe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => args.seed = Some(value.parse().map_err(bad)?),
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Runs one set-up in a fresh process and returns its seconds.
fn probe_setup(cfg: &RunConfig) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let output = Command::new(exe)
        .args(["--setup-probe", "--workload", cfg.workload.name()])
        .args(["--seed", &cfg.seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up probe failed to start: {e}"))?;
    if !output.status.success() {
        return Err(format!("set-up probe exited with {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    text.trim()
        .parse()
        .map_err(|_| format!("set-up probe printed {text:?}"))
}

fn fingerprint(cfg: &RunConfig) -> Fingerprint {
    let (chips, messages) = match cfg.workload {
        Workload::Fig5Paper => (fig5::BATCHED_CHIPS, 100),
        Workload::CatalogCodec => (0, sfqbench::catalog::LANES),
        Workload::ScrubNominal | Workload::ScrubOverload => {
            (0, sfq_stream::StreamConfig::nominal().batch_messages)
        }
    };
    Fingerprint {
        code: cfg.workload.name().to_string(),
        chips,
        messages,
        seed: cfg.seed,
        // Every workload measures on one worker thread.
        threads: 1,
        // Only ask git inside a checkout that has one.
        git_sha: if std::path::Path::new(".git").exists() {
            sfq_telemetry::detect_git_sha()
        } else {
            None
        },
    }
}

fn run() -> Result<ExitCode, String> {
    if let Some(value) = std::env::var_os("SFQ_BATCH_KERNEL") {
        return Err(format!(
            "refusing to run with SFQ_BATCH_KERNEL={value:?}: the benchmark measures the \
             auto-selected kernels"
        ));
    }
    let args = parse_args()?;
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cfg = RunConfig {
        workload: args.workload,
        seed: args.seed.unwrap_or_else(|| args.workload.default_seed()),
        seconds: args.seconds,
        trace: args.trace && !args.setup_probe,
        threads: nproc.min(2),
        scale: Scale::Full,
    };
    if args.setup_probe {
        println!("{}", sfqbench::setup_seconds(&cfg));
        return Ok(ExitCode::SUCCESS);
    }
    // Set-up probes run first and one at a time, so they never compete
    // with each other or with the measurement for the cores.
    let mut setup_samples = if cfg.trace {
        Vec::new()
    } else {
        let start = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < MIN_PROBES
            || (samples.len() < MAX_PROBES && start.elapsed().as_secs_f64() < PROBE_BUDGET_S)
        {
            samples.push(probe_setup(&cfg)?);
        }
        samples
    };
    let (own_setup, outcome) = sfqbench::run(&cfg);
    setup_samples.push(own_setup);
    print!(
        "{}",
        report::detailed(&cfg, &fingerprint(&cfg), nproc, &setup_samples, &outcome)?
    );
    println!(
        "{}",
        report::result_line(&cfg, stats::median(&setup_samples), &outcome)?
    );
    for failure in &outcome.checks.failures {
        eprintln!("sfqbench: output check failed: {failure}");
    }
    Ok(if outcome.checks.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    run().unwrap_or_else(|error| {
        eprintln!("sfqbench: {error}");
        ExitCode::from(2)
    })
}
