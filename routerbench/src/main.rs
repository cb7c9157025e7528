//! `routerbench`: the router's benchmark, end to end and per layer.
//!
//! ```text
//! routerbench --workload <fullfeed|probe|churn> --seed <n> --seconds <s> --trace <0|1>
//! routerbench --check
//! ```
//!
//! With `--trace 0` the workload runs through the real three-process
//! router (BGP, RIB and FEA event loops on their own threads, XRLs over
//! loopback TCP) and prints the end-to-end metrics.  With `--trace 1` it
//! prints the per-layer metrics: the router's own registry read after a
//! shorter end-to-end run, XRL and event-loop micro-measurements, and an
//! in-process replay of the same inputs through each layer's public
//! functions, timed with benchmark-side spans, ending in the per-route
//! budget.  `--check` runs every workload at a small size in both modes
//! and fails unless every correctness check passes.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! See README.md in this directory for the workloads and metrics.

mod e2e;
mod micro;
mod replay;
mod report;

use std::process::ExitCode;
use std::time::Instant;

use xorp_harness::workload::{backbone_table, WorkloadConfig, PAPER_TABLE_SIZE};

use report::{Metric, Tally};

/// The three traffic mixes (README.md says why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Flood the full table in and out at 256 routes per XRL frame.
    FullFeed,
    /// Closed-loop single-route probes at one route per frame (§8.2).
    Probe,
    /// Best-path replace / delete / add rounds at 64 routes per frame.
    Churn,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::FullFeed, Workload::Probe, Workload::Churn];

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::FullFeed => "fullfeed",
            Workload::Probe => "probe",
            Workload::Churn => "churn",
        }
    }

    /// `RouterOptions::batch_size`: the most routes one XRL frame carries
    /// on either hop.
    pub fn batch_size(self) -> usize {
        match self {
            Workload::FullFeed => 256,
            Workload::Probe => 1,
            Workload::Churn => 64,
        }
    }
}

/// Input sizes.  Full runs use the paper's table; `--check` shrinks every
/// count so all workloads finish in seconds.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Routes in the generated backbone table.
    pub routes: usize,
    /// Probe announce/withdraw pairs, by workload: per probe block
    /// (`fullfeed`, two blocks a cycle; `probe`, one), or per run spread
    /// over the rounds (`churn`).
    pub probe_pairs: [usize; 3],
    /// Routes per churn round slice.
    pub churn_slice: usize,
    /// Router set-ups timed per run (the median is `setup_s`).
    pub setup_reps: usize,
    /// Probe pairs in the replay of the probe workload (its measured
    /// phase, so enough to take a few hundred milliseconds).
    pub replay_probes: usize,
    /// Churn rounds in the in-process replay.
    pub replay_rounds: usize,
}

impl Scale {
    const FULL: Scale = Scale {
        routes: PAPER_TABLE_SIZE,
        probe_pairs: [1000, 4000, 4000],
        churn_slice: 16_384,
        setup_reps: 7,
        replay_probes: 20_000,
        replay_rounds: 3,
    };

    const CHECK: Scale = Scale {
        routes: 4096,
        probe_pairs: [32, 64, 32],
        churn_slice: 1024,
        setup_reps: 2,
        replay_probes: 32,
        replay_rounds: 2,
    };

    pub fn probe_pairs(&self, w: Workload) -> usize {
        self.probe_pairs[w as usize]
    }
}

/// Routes per generated UPDATE (the table's attribute-block size).
pub const UPDATE_ROUTES: usize = 64;

/// How many cycles (`fullfeed`, `probe`) or churn rounds (`churn`) fill
/// `seconds` at full scale.  The count depends only on `seconds`, never
/// on how fast a run goes, so every run does the same work: the first
/// cycle after set-up runs faster than later ones, and a count that
/// followed the clock would mix the two differently from run to run.
/// The constants are the measured durations on a 2-core box.
fn repeats(w: Workload, seconds: u64) -> usize {
    let (fixed, each) = match w {
        Workload::FullFeed => (0.0, 4.2),
        Workload::Probe => (0.0, 12.0),
        Workload::Churn => (CHURN_FIXED_S, CHURN_ROUND_S),
    };
    (((seconds as f64 - fixed) / each).floor() as usize).max(1)
}

const CHURN_FIXED_S: f64 = 6.0;
const CHURN_ROUND_S: f64 = 0.9;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    if argv.len() == 1 && argv[0] == "--check" {
        return Ok(None);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    }))
}

/// One run: the workload through the router, plus (traced) the layer
/// measurements.  Returns the metrics and the correctness tally.
fn run(w: Workload, seed: u64, seconds: u64, trace: bool, scale: &Scale) -> (Vec<Metric>, Tally) {
    let table = backbone_table(&WorkloadConfig {
        routes: scale.routes,
        seed,
        batch: UPDATE_ROUTES,
        ..Default::default()
    });
    let mut tally = Tally::default();
    if !trace {
        let out = e2e::run(w, &table, scale, repeats(w, seconds), false, &mut tally);
        return (out.end_to_end(), tally);
    }
    // Traced run: one cycle end to end (registry, budget denominator),
    // then the micro-measurements and the replay.
    let out = e2e::run(w, &table, scale, 1, true, &mut tally);
    // A flood's frames carry at most one UPDATE's routes: the batchers'
    // deferred flush runs before their loop takes the next UPDATE.
    let xrl = micro::xrl(&table, w.batch_size().min(UPDATE_ROUTES));
    let wake = micro::event_wake();
    let replay = replay::run(w, &table, scale, &mut tally);
    let metrics = report::per_layer(w, &out, &xrl, wake, &replay);
    (metrics, tally)
}

/// `--check`: every workload, both modes, small inputs; any failed
/// operation or failed check is an error.
fn check() -> ExitCode {
    let mut ok = true;
    for w in Workload::ALL {
        for trace in [false, true] {
            let t0 = Instant::now();
            let (metrics, tally) = run(w, 7, 0, trace, &Scale::CHECK);
            let good = tally.correct() && tally.attempted > 0 && tally.failed == 0;
            println!(
                "check {} trace={}: {} ({} ops, {} failed, {} metrics, {:.1} s)",
                w.name(),
                trace as u8,
                if good { "ok" } else { "FAILED" },
                tally.attempted,
                tally.failed,
                metrics.len(),
                t0.elapsed().as_secs_f64()
            );
            for e in &tally.errors {
                println!("  {e}");
            }
            ok &= good;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(a)) => a,
        Ok(None) => return check(),
        Err(e) => {
            eprintln!("routerbench: {e}");
            eprintln!("usage: routerbench --workload <fullfeed|probe|churn> --seed <n> --seconds <s> --trace <0|1>");
            eprintln!("       routerbench --check");
            return ExitCode::from(2);
        }
    };
    let (metrics, tally) = run(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &Scale::FULL,
    );
    for e in &tally.errors {
        eprintln!("routerbench: check failed: {e}");
    }
    println!("{}", report::json(&tally, &metrics));
    ExitCode::SUCCESS
}
