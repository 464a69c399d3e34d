//! Repeatable benchmark of the cloud-repro workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each run repeats its workload through
//! the library's public entry points until `--seconds` have passed,
//! checks every output, and prints one JSON object as its last stdout
//! line. `--trace 0` reports the end-to-end metrics of untraced runs;
//! `--trace 1` re-drives the same tenants or repetitions from this
//! package's code with a span around each layer's public call and
//! reports per-layer metrics. NOTES.md defines every metric.

mod fleet;
mod layers;
mod procfs;
mod report;
mod stream;
mod tenant;

use report::{median, Metric, Outcome};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Workers used by every workload: two, or fewer on a smaller machine.
const MAX_WORKERS: usize = 2;

/// Timed batches of set-ups per sample; `setup_s` is the median over
/// all samples of a run.
const SETUP_BATCHES: usize = 3;

/// Target length of one batch of set-ups, seconds.
const SETUP_BATCH_S: f64 = 2e-3;

/// The seed at which outputs are pinned to golden values.
const DEFAULT_SEED: u64 = 1;

/// Where each run keeps its journals, relative to the working directory.
const WORK_ROOT: &str = ".bench_work";

/// The workloads, with their default seeds listed in NOTES.md.
const WORKLOADS: [&str; 3] = [
    "stream-ec2-tb",
    "stream-hpc8-journal",
    "bigdata-terasort-fattree",
];

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (known: {})",
            WORKLOADS.join(", ")
        ));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Everything a workload needs from the harness.
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub jobs: usize,
    /// A directory of this run's own, removed when the run ends.
    pub work: PathBuf,
}

impl Ctx {
    /// Call `f` at least once, and again while another call as long as
    /// the last one still fits in the run's time budget, so a run
    /// overshoots `seconds` only when a single call is longer.
    pub fn repeat<T>(
        &self,
        mut f: impl FnMut(usize) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let start = Instant::now();
        let mut out = Vec::new();
        let mut last = 0.0;
        while out.is_empty() || secs(start) + last <= self.seconds as f64 {
            let t = Instant::now();
            out.push(f(out.len())?);
            last = secs(t);
        }
        Ok(out)
    }

    /// A directory `name` under the run's work directory.
    pub fn dir(&self, name: &str) -> Result<PathBuf, String> {
        let d = self.work.join(name);
        std::fs::create_dir_all(&d).map_err(|e| format!("mkdir {}: {e}", d.display()))?;
        Ok(d)
    }
}

/// Set-up times sampled across a run. The machine's speed drifts by
/// tens of percent within seconds, so batches are taken before every
/// pass, not all at once.
#[derive(Default)]
pub struct SetupTimes {
    /// Seconds per call, one entry per timed batch.
    times: Vec<f64>,
    /// Calls made so far, so each call can be told apart (its index).
    calls: usize,
}

impl SetupTimes {
    /// Time `SETUP_BATCHES` batches of calls to `setup`. A batch holds
    /// enough calls to last about `SETUP_BATCH_S`, so a sub-microsecond
    /// set-up is not lost in the clock's resolution; the inputs are
    /// dropped outside the timed region.
    pub fn sample<T>(
        &mut self,
        mut setup: impl FnMut(usize) -> Result<T, String>,
    ) -> Result<(), String> {
        let t = Instant::now();
        drop(setup(self.calls)?);
        self.calls += 1;
        let batch = ((SETUP_BATCH_S / secs(t).max(1e-9)).ceil() as usize).clamp(1, 100_000);
        let mut made = Vec::with_capacity(batch);
        for _ in 0..SETUP_BATCHES {
            let t = Instant::now();
            for _ in 0..batch {
                made.push(setup(self.calls)?);
                self.calls += 1;
            }
            self.times.push(secs(t) / batch as f64);
            made.clear();
        }
        Ok(())
    }

    pub fn median(&self) -> f64 {
        median(&self.times)
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The end-to-end metrics shared by every workload, in BENCHMARK.json
/// order.
pub fn end_to_end(ops_per_s: f64, resume_s: f64, setup_s: f64, tally: &Tally) -> Vec<Metric> {
    let peak = procfs::peak_rss_kib().map(|kib| kib as f64 / 1024.0);
    vec![
        Metric::new("ops_per_s", ops_per_s, "1/s"),
        Metric::new("resume_s", resume_s, "s"),
        Metric::new("setup_s", setup_s, "s"),
        Metric::maybe("peak_rss_mib", peak, "MiB"),
        Metric::new(
            "ops_ok_frac",
            1.0 - tally.failed as f64 / tally.attempted.max(1) as f64,
            "frac",
        ),
    ]
}

/// Failure accounting and check results across a run's passes.
#[derive(Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// A digest of each pass's output; identical passes must agree.
    digests: Vec<u64>,
}

impl Tally {
    pub fn record(
        &mut self,
        attempted: u64,
        failed: u64,
        problems: &[String],
        digest: Option<u64>,
    ) {
        self.attempted += attempted;
        self.failed += failed;
        self.problems.extend_from_slice(problems);
        self.digests.extend(digest);
    }

    pub fn problem(&mut self, p: String) {
        self.problems.push(p);
    }

    pub fn finish(mut self, metrics: Vec<Metric>) -> Outcome {
        if self.digests.windows(2).any(|w| w[0] != w[1]) {
            let msg = format!(
                "output changed between identical passes: {:x?}",
                self.digests
            );
            self.problems.push(msg);
        }
        for p in &self.problems {
            eprintln!("perfbench: check failed: {p}");
        }
        Outcome {
            correct: self.problems.is_empty(),
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        }
    }
}

/// Removes the run's work directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave the shared root only if no concurrent run still uses it.
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let jobs = nproc.min(MAX_WORKERS);
    let work = Path::new(WORK_ROOT).join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("mkdir {}: {e}", work.display()))?;
    let _guard = WorkDir(work.clone());
    let fs = procfs::fs_type(&work).unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "{{\"context\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"workers\": {jobs}, \"build_profile\": \"{profile}\", \
         \"journal_fs\": \"{fs}\", \"os\": \"{}\"}}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::env::consts::OS
    );
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        jobs,
        work,
    };
    match args.workload.as_str() {
        "stream-ec2-tb" => stream::run(&stream::EC2_TB, &ctx, args.trace),
        "stream-hpc8-journal" => stream::run(&stream::HPC8_JOURNAL, &ctx, args.trace),
        "bigdata-terasort-fattree" => fleet::run(&ctx, args.trace),
        other => unreachable!("parse_args admitted {other:?}"),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(outcome) => println!("{}", outcome.to_json()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload stream-ec2-tb --seed 7 --seconds 30 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            a,
            Args {
                workload: "stream-ec2-tb".into(),
                seed: 7,
                seconds: 30,
                trace: true
            }
        );
        let d = parse_args(&argv("--workload bigdata-terasort-fattree")).expect("defaults");
        assert_eq!((d.seed, d.seconds, d.trace), (1, 10, false));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope",
            "--workload stream-ec2-tb --trace 2",
            "--workload stream-ec2-tb --seconds 0",
            "--workload stream-ec2-tb --seed -1",
            "--workload stream-ec2-tb --seed",
            "--workload stream-ec2-tb --bogus 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }

    /// The metric names this program prints must be exactly the ones
    /// BENCHMARK.json declares, so the two cannot drift apart.
    #[test]
    fn metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(spec) = std::fs::read_to_string(path) else {
            return; // building outside a checkout that has the file
        };
        let declared: Vec<&str> = spec
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .collect();
        let mut printed: Vec<&str> = WORKLOADS.to_vec();
        printed.extend(
            end_to_end(1.0, 1.0, 1.0, &Tally::default())
                .iter()
                .map(|m| m.name),
        );
        printed.extend(layers::PER_LAYER.iter().map(|(n, _, _)| *n));
        assert_eq!(declared, printed);
        for n in declared {
            assert!(report::valid_name(n), "{n}");
        }
    }
}
