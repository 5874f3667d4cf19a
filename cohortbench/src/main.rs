//! `wbsn-cohortbench`: the end-to-end and per-layer benchmark of the
//! cohort pipeline (synthesis → governed node → framed lossy link →
//! sharded gateway → report, and archive → replay).
//!
//! ```text
//! cargo run --release --manifest-path cohortbench/Cargo.toml -- \
//!     --workload <ward-events|ward-cs|replay> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the workload runs untraced through the public
//! entry points (`CohortRunner::run_plans`, `run_plans_recorded`,
//! `CohortReplayer`) for `--seconds` seconds and prints the end-to-end
//! metrics. With `--trace 1` it runs one untraced reference pass and
//! then a traced pass that attributes time and work to each layer. The
//! last line of standard output is always one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mirror;
mod trace;

use mirror::{MirrorTotals, Work};
use std::process::ExitCode;
use std::time::Instant;
use trace::{Layer, Tracer};
use wbsn::archive::SolverReplayReport;
use wbsn::cohort::{CohortReport, CohortRunConfig, CohortRunner, SessionPlan};
use wbsn::ecg_synth::cohort::CohortConfig;
use wbsn::replay::CohortReplayer;

const USAGE: &str = "usage: wbsn-cohortbench --workload <ward-events|ward-cs|replay> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Gateway decode workers: two, or fewer on a smaller machine.
const MAX_WORKERS: usize = 2;

/// Set-ups timed before the first pass. `setup_s` is the median of all
/// set-up times.
const SETUP_REPEATS: usize = 3;

/// A set-up shorter than this is timed again for this long before every
/// pass, so that its median, like the passes', spans the whole run
/// rather than one moment of it.
const SETUP_SLICE_S: f64 = 0.02;

/// Passes per untraced run at the least, however short `--seconds` is.
const MIN_PASSES: usize = 3;

type BenchResult<T> = Result<T, String>;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// Processed-event uplinks only: synthesis, node DSP and the link.
    WardEvents,
    /// Compressed-sensing uplinks solved in full, recorded to memory.
    WardCs,
    /// The `WardCs` recording read back, re-reported and re-solved.
    Replay,
}

impl Workload {
    fn parse(s: &str) -> BenchResult<Workload> {
        match s {
            "ward-events" => Ok(Workload::WardEvents),
            "ward-cs" => Ok(Workload::WardCs),
            "replay" => Ok(Workload::Replay),
            other => Err(format!("unknown workload {other:?}")),
        }
    }

    fn is_live(self) -> bool {
        self != Workload::Replay
    }
}

/// Size of a workload's cohort. Each pass is a few seconds on two
/// cores; many short sessions rather than a few long ones keep the
/// cohort's make-up, and so every metric, steady from seed to seed.
struct Shape {
    sessions: usize,
    modeled_hours: u32,
    segment_s: f64,
}

const WARD_EVENTS_SHAPE: Shape = Shape {
    sessions: 384,
    modeled_hours: 2,
    segment_s: 30.0,
};

const WARD_CS_SHAPE: Shape = Shape {
    sessions: 32,
    modeled_hours: 1,
    segment_s: 30.0,
};

/// Command-line arguments.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> BenchResult<Args> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value)?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(bad(&"must be a positive number"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"must be 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [cmd, seed] = argv.as_slice() {
        if cmd == RECORD {
            return match record(seed) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("wbsn-cohortbench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    let args = match Args::parse(argv.into_iter()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wbsn-cohortbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            out.print();
            if out.violations.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("wbsn-cohortbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The runner of `workload`'s cohort, seeded by `seed`.
fn runner(workload: Workload, seed: u64) -> CohortRunner {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(MAX_WORKERS));
    let (shape, cs) = match workload {
        Workload::WardEvents => (WARD_EVENTS_SHAPE, false),
        Workload::WardCs | Workload::Replay => (WARD_CS_SHAPE, true),
    };
    let defaults = CohortRunConfig::default();
    CohortRunner::new(CohortRunConfig {
        cohort: CohortConfig {
            cohort_seed: seed,
            sessions: shape.sessions,
            modeled_hours: shape.modeled_hours,
            segment_s: shape.segment_s,
            cs_fraction: if cs { 1.0 } else { 0.0 },
            ..CohortConfig::default()
        },
        workers,
        reconstruct_every: if cs { 1 } else { defaults.reconstruct_every },
        ..defaults
    })
}

/// What a set-up hands to the passes.
struct Setup {
    plans: Vec<SessionPlan>,
    /// `replay` only.
    recording: Option<Recording>,
}

/// A live recording of the `ward-cs` cohort.
struct Recording {
    /// The live run's report, as `CohortReport::to_json`.
    report_json: String,
    /// The archive.
    bytes: Vec<u8>,
}

/// The program's plan generation and, for `replay`, the recording of
/// the `ward-cs` cohort. The recording runs in a child process
/// ([`RECORD`]), so that the memory the live run leaves in this
/// process's allocator does not hide the replay pass's peak.
fn set_up(workload: Workload, runner: &CohortRunner) -> BenchResult<Setup> {
    let plans = runner.plans();
    let recording = if workload == Workload::Replay {
        let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
        let seed = runner.config().cohort.cohort_seed.to_string();
        let out = std::process::Command::new(exe)
            .args([RECORD, &seed])
            .output()
            .map_err(|e| format!("starting the recording: {e}"))?;
        let mut stdout = out.stdout;
        let newline = stdout.iter().position(|&b| b == b'\n');
        let (true, Some(newline)) = (out.status.success(), newline) else {
            return Err(format!(
                "recording the ward-cs cohort failed ({}): {}",
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        };
        let head: Vec<u8> = stdout.drain(..=newline).collect();
        Some(Recording {
            report_json: String::from_utf8_lossy(&head).trim_end().to_string(),
            bytes: stdout,
        })
    } else {
        None
    };
    Ok(Setup { plans, recording })
}

/// The subcommand the `replay` set-up runs in a child process:
/// `record <seed>` records the `ward-cs` cohort of `seed` and writes
/// the live report's JSON, a newline and the archive to standard
/// output.
const RECORD: &str = "record";

fn record(seed: &str) -> BenchResult<()> {
    use std::io::Write;
    let seed = seed
        .parse::<u64>()
        .map_err(|e| format!("seed {seed:?}: {e}"))?;
    let runner = runner(Workload::WardCs, seed);
    let (report, bytes) = runner
        .run_plans_recorded(&runner.plans(), Vec::new())
        .map_err(|e| format!("recording the ward-cs cohort: {e}"))?;
    let mut out = std::io::stdout().lock();
    writeln!(out, "{}", report.to_json())
        .and_then(|()| out.write_all(&bytes))
        .and_then(|()| out.flush())
        .map_err(|e| format!("writing the recording: {e}"))
}

/// The outputs of one untraced pass.
struct Pass {
    wall_s: f64,
    report: CohortReport,
    /// `ward-cs`: the archive the pass recorded.
    archive: Option<Vec<u8>>,
    /// `replay`: the archived-settings solver replay.
    solver: Option<SolverReplayReport>,
}

impl Pass {
    /// Operations the pass attempted: uplink messages sent for a live
    /// workload, archived windows compared for `replay`.
    fn ops(&self) -> u64 {
        match &self.solver {
            Some(s) => s.compared,
            None => self.report.link.messages + self.report.link.lost,
        }
    }
}

fn run_pass(workload: Workload, runner: &CohortRunner, setup: &Setup) -> BenchResult<Pass> {
    let err = |e: wbsn::core::WbsnError| format!("pass failed: {e}");
    let start = Instant::now();
    let (report, archive, solver) = match workload {
        Workload::WardEvents => (runner.run_plans(&setup.plans).map_err(err)?, None, None),
        Workload::WardCs => {
            let (report, bytes) = runner
                .run_plans_recorded(&setup.plans, Vec::new())
                .map_err(err)?;
            (report, Some(bytes), None)
        }
        Workload::Replay => {
            let replayer = CohortReplayer::from_bytes(&recording(setup)?.bytes).map_err(err)?;
            let report = replayer.report().map_err(err)?;
            let solver = replayer.solver_replay_archived().map_err(err)?;
            (report, None, Some(solver))
        }
    };
    Ok(Pass {
        wall_s: start.elapsed().as_secs_f64(),
        report,
        archive,
        solver,
    })
}

fn recording(setup: &Setup) -> BenchResult<&Recording> {
    setup
        .recording
        .as_ref()
        .ok_or_else(|| "the replay set-up made no recording".to_string())
}

/// Checks that hold at any seed; returns every violation found.
fn check_pass(
    workload: Workload,
    runner: &CohortRunner,
    pass: &Pass,
    first: Option<&Pass>,
    setup: &Setup,
) -> Vec<String> {
    let mut bad = Vec::new();
    let r = &pass.report;
    let cohort = &runner.config().cohort;
    let mut expect = |ok: bool, what: &str| {
        if !ok {
            bad.push(what.to_string());
        }
    };
    expect(r.sessions == cohort.sessions as u64, "session count");
    expect(r.modeled_hours == cohort.modeled_hours, "modeled hours");
    expect(
        r.strata.iter().map(|s| s.sessions).sum::<u64>() == r.sessions,
        "strata add up to the sessions",
    );
    expect(r.link.recovered <= r.link.lost, "recovered ≤ lost");
    expect(r.link.messages > 0, "uplink carried messages");
    expect(
        r.detection.detected <= r.detection.episodes,
        "detected ≤ episodes",
    );
    expect(r.battery_days_min > 0.0, "battery lifetimes priced");
    expect(r.windows_skipped == 0, "no CS window skipped");
    if workload == Workload::WardEvents {
        expect(r.prd.windows == 0, "no CS window on an events-only ward");
    } else {
        expect(r.prd.windows > 0, "CS windows reconstructed");
    }
    if let Some(first) = first {
        expect(r == &first.report, "report equals the first pass's");
        expect(
            pass.archive == first.archive,
            "archive equals the first pass's",
        );
    }
    if workload == Workload::Replay {
        match (recording(setup), &pass.solver) {
            (Ok(live), Some(s)) => {
                expect(
                    r.to_json() == live.report_json,
                    "replayed report equals the live ward-cs report",
                );
                expect(s.bit_identical, "solver replay bit-identical");
                expect(s.compared > 0, "solver replay compared windows");
            }
            _ => expect(false, "replay pass has its recording and solver report"),
        }
    }
    bad
}

/// A run's result, ready to print.
struct Outcome {
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    notes: Vec<String>,
    metrics: Vec<Metric>,
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// `"higher"` or `"lower"` is better; empty for per-layer figures.
    better: &'static str,
}

impl Metric {
    fn e2e(name: &str, value: f64, unit: &'static str, better: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            better,
        }
    }

    fn layer(name: String, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value,
            unit,
            better: "",
        }
    }
}

impl Outcome {
    fn print(&self) {
        for note in &self.notes {
            println!("# {note}");
        }
        for v in &self.violations {
            println!("# VIOLATION: {v}");
        }
        for m in &self.metrics {
            let better = if m.better.is_empty() {
                String::new()
            } else {
                format!("({} is better)", m.better)
            };
            println!(
                "{:<34} {:>22} {:<6} {better}",
                m.name,
                fmt_value(m.value),
                m.unit
            );
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    fmt_value(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.violations.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// JSON number with every digit; non-finite values (never expected)
/// print as 0 rather than as invalid JSON.
fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Seconds [`machine_speed`]'s kernel takes on the reference machine
/// (2 vCPUs, Xeon at 2.0 GHz), rounded up from its median there.
const NOMINAL_KERNEL_S: f64 = 0.03;

/// How fast this machine runs right now, as a fraction of nominal: a
/// fixed kernel of 4 M xorshift updates to a 32 KiB table (integer
/// work in the L1 cache) and 200 f64 matrix-vector products with a
/// 1 MiB matrix (floating point from the L2 cache and beyond), about
/// 30 ms in all. On a shared virtual machine the speed of the same code
/// moves by a quarter or more over minutes (other tenants; no steal
/// time is reported), and the CPU time of a pass moves with it.
///
/// The kernel is the benchmark's code, and it runs only while this is
/// the process's one thread, so the program cannot slow it: `None`
/// when program threads outlive the pass that started them.
fn machine_speed() -> BenchResult<Option<f64>> {
    const TABLE: usize = 4096;
    const ROWS: usize = 256;
    const COLS: usize = 512;
    if !alone()? {
        return Ok(None);
    }
    let mut table = vec![1u64; TABLE];
    let m = vec![0.5f64; ROWS * COLS];
    let mut x = vec![1.0f64; COLS];
    let mut y = vec![0.0f64; ROWS];
    let start = Instant::now();
    let mut z: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..4_000_000 {
        z ^= z << 13;
        z ^= z >> 7;
        z ^= z << 17;
        let j = (z % TABLE as u64) as usize;
        table[j] = table[j].wrapping_add(z);
    }
    for _ in 0..200 {
        for (yr, row) in y.iter_mut().zip(m.chunks_exact(COLS)) {
            *yr = row.iter().zip(&x).map(|(a, b)| a * b).sum();
        }
        for (c, xc) in x.iter_mut().enumerate() {
            *xc = 0.999 * *xc + 1e-6 * y[c % ROWS];
        }
    }
    let wall = start.elapsed().as_secs_f64();
    std::hint::black_box((&table, &x, &y));
    Ok(Some(NOMINAL_KERNEL_S / wall))
}

/// Whether this is the process's only thread, allowing 100 ms for
/// threads the program has just joined to leave `/proc/self/task`.
fn alone() -> BenchResult<bool> {
    for _ in 0..100 {
        let tasks = std::fs::read_dir("/proc/self/task")
            .map_err(|e| format!("listing /proc/self/task: {e}"))?;
        if tasks.count() == 1 {
            return Ok(true);
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    Ok(false)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A memory figure of this process from `/proc/self/status`, MiB:
/// `VmHWM` (peak resident) or `VmRSS` (resident now).
fn status_mib(key: &str) -> BenchResult<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("no {key} line in /proc/self/status"))
}

/// Lowers the process's `VmHWM` to its resident memory now, so that
/// the next reading covers only what runs after the call. Returns
/// whether the kernel took the reset.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The clinical and link-quality figures of a report. They are exact
/// functions of the seed, so they show a change in what the program
/// computes, not in how fast; some are zero on some workload (no PRD
/// without CS windows, no alerts from CS uplinks, often no unrecovered
/// message), so they are per-layer figures of the traced run and notes
/// of the untraced one rather than bounded end-to-end metrics.
fn report_quality(r: &CohortReport) -> [(&'static str, f64, &'static str, &'static str); 6] {
    let link_ops = (r.link.messages + r.link.lost) as f64;
    let unrecovered = r.link.lost.saturating_sub(r.link.recovered) as f64;
    [
        (
            "ops_failed_pct",
            100.0 * ratio(unrecovered, link_ops),
            "%",
            "lower",
        ),
        ("prd_mean_pct", r.prd.mean_percent, "%", "lower"),
        ("prd_p95_pct", r.prd.p95_percent, "%", "lower"),
        (
            "af_detected_pct",
            100.0 * ratio(r.detection.detected as f64, r.detection.episodes as f64),
            "%",
            "higher",
        ),
        (
            "alert_latency_p95_s",
            r.detection.latency_p95_s,
            "s",
            "lower",
        ),
        (
            "false_alerts_per_day",
            r.detection.false_alerts_per_day,
            "1/day",
            "lower",
        ),
    ]
}

fn run(args: &Args) -> BenchResult<Outcome> {
    let runner = runner(args.workload, args.seed);
    // Measured before any program code runs: the fallback for passes
    // whose own measurements are refused (see `machine_speed`).
    let first_speed = machine_speed()?.ok_or("another thread runs at start-up")?;
    let mut setup_walls = Vec::new();
    let mut setup: Option<Setup> = None;
    let mut recorded = None;
    for _ in 0..SETUP_REPEATS {
        // The previous set-up goes before the next is built, so that
        // two are never held at once.
        drop(setup.take());
        let start = Instant::now();
        let s = set_up(args.workload, &runner)?;
        setup_walls.push(start.elapsed().as_secs_f64());
        let digest = s
            .recording
            .as_ref()
            .map(|r| (r.report_json.clone(), fnv1a(&r.bytes)));
        if recorded.is_some() && digest != recorded {
            return Err("two recordings of the same cohort differ".into());
        }
        recorded = digest;
        setup = Some(s);
    }
    let setup = setup.ok_or("no set-up ran")?;
    if args.trace {
        traced_run(args.workload, &runner, &setup)
    } else {
        untraced_run(args, &runner, &setup, setup_walls, first_speed)
    }
}

/// 64-bit FNV-1a digest, to compare recordings without keeping two.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

fn untraced_run(
    args: &Args,
    runner: &CohortRunner,
    setup: &Setup,
    mut setup_walls: Vec<f64>,
    mut speed_now: f64,
) -> BenchResult<Outcome> {
    let cheap_setup = median(&setup_walls) < SETUP_SLICE_S;
    // Peak memory of one pass: the set-up's own peak (for `replay`, a
    // live recording) is left out, what the pass keeps of it is not.
    let rss_at_reset = status_mib("VmRSS")?;
    let peak_reset = reset_peak_rss();
    let start = Instant::now();
    // Only the first pass is kept (later ones are checked against it
    // and dropped), so peak memory does not grow with the pass count.
    let mut first: Option<Pass> = None;
    let mut walls = Vec::new();
    // Later passes only add allocator fragmentation, which varies with
    // thread timing, so the peak is read after the first.
    let mut peak_rss = None;
    let mut speeds = Vec::new();
    let mut stale_speeds = 0;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut violations = Vec::new();
    while walls.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        let slice = Instant::now();
        while cheap_setup && slice.elapsed().as_secs_f64() < SETUP_SLICE_S {
            let t = Instant::now();
            set_up(args.workload, runner)?;
            setup_walls.push(t.elapsed().as_secs_f64());
        }
        let before = machine_speed()?;
        let pass = run_pass(args.workload, runner, setup)?;
        let measured: Vec<f64> = [before, machine_speed()?].into_iter().flatten().collect();
        if measured.is_empty() {
            stale_speeds += 1;
        } else {
            speed_now = measured.iter().sum::<f64>() / measured.len() as f64;
        }
        speeds.push(speed_now);
        let bad = check_pass(args.workload, runner, &pass, first.as_ref(), setup);
        attempted += pass.ops();
        if !bad.is_empty() {
            failed += pass.ops();
            violations.extend(
                bad.into_iter()
                    .map(|b| format!("pass {}: {b}", walls.len())),
            );
        }
        walls.push(pass.wall_s);
        first.get_or_insert(pass);
        if peak_rss.is_none() {
            peak_rss = Some(status_mib("VmHWM")?);
        }
    }
    let r = &first.ok_or("no pass ran")?.report;
    let modeled_s = r.modeled_days * 86_400.0;
    let raw: Vec<f64> = walls.iter().map(|w| modeled_s / w).collect();
    let realtime: Vec<f64> = raw.iter().zip(&speeds).map(|(x, s)| x / s).collect();
    let speed = median(&speeds);
    let metrics = vec![
        Metric::e2e("setup_s", median(&setup_walls) * speed, "s", "lower"),
        Metric::e2e("realtime_x", median(&realtime), "x", "higher"),
        Metric::e2e("peak_rss_mib", peak_rss.unwrap_or(0.0), "MiB", "lower"),
        Metric::e2e("battery_days_mean", r.battery_days_mean, "days", "higher"),
    ];
    let shown: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    let mut notes = vec![
        format!(
            "{:?} seed {}: {} passes of {:.4} modeled days ({} s); set-up median of {}",
            args.workload,
            args.seed,
            walls.len(),
            r.modeled_days,
            shown.join(" "),
            setup_walls.len()
        ),
        format!(
            "machine speed {speed:.4} of nominal, {stale_speeds} pass(es) \
             with a stale speed; unscaled realtime_x {}, setup_s {}",
            fmt_value(median(&raw)),
            fmt_value(median(&setup_walls))
        ),
        if peak_reset {
            format!("peak_rss_mib counts from {rss_at_reset:.2} MiB resident after set-up")
        } else {
            "peak_rss_mib includes set-up: the kernel refused the VmHWM reset".to_string()
        },
    ];
    for (name, value, unit, better) in report_quality(r) {
        notes.push(format!(
            "report.{name} {} {unit} ({better} is better)",
            fmt_value(value)
        ));
    }
    Ok(Outcome {
        attempted,
        failed,
        violations,
        notes,
        metrics,
    })
}

/// Work units of the archive and replay layers (the mirror counts the
/// rest).
#[derive(Debug, Default)]
struct ArchiveWork {
    write_bytes: u64,
    write_blocks: u64,
    read_bytes: u64,
    solver_windows: u64,
    solver_iters: u64,
}

/// One traced pass of a live workload.
struct LivePass {
    wall_s: f64,
    totals: MirrorTotals,
    work: Work,
    /// Recorded runs: the re-streamed archive and its block count.
    archive: Option<(Vec<u8>, u64)>,
}

/// Runs the mirror and, for a recorded run, re-streams `recorded`
/// through a fresh writer: the live pass's work, traced.
fn traced_live_pass(
    runner: &CohortRunner,
    setup: &Setup,
    recorded: Option<&CohortReplayer>,
    workers: usize,
    tr: &mut Tracer,
) -> BenchResult<LivePass> {
    let start = Instant::now();
    let (totals, work) = mirror::run(
        &setup.plans,
        runner.config(),
        recorded.is_some(),
        workers,
        tr,
    )
    .map_err(|e| format!("traced pass: {e}"))?;
    let archive = match recorded {
        Some(rec) => Some(
            mirror::rewrite(rec.meta(), rec.blocks(), tr)
                .map_err(|e| format!("re-streaming the archive: {e}"))?,
        ),
        None => None,
    };
    Ok(LivePass {
        wall_s: start.elapsed().as_secs_f64(),
        totals,
        work,
        archive,
    })
}

fn traced_run(workload: Workload, runner: &CohortRunner, setup: &Setup) -> BenchResult<Outcome> {
    let reference = run_pass(workload, runner, setup)?;
    let mut violations = check_pass(workload, runner, &reference, None, setup);
    let mut attempted = reference.ops();
    let mut tr = Tracer::new();
    let mut work = Work::default();
    let mut archive = ArchiveWork::default();
    let (wall_s, worker_scaling_x) = if workload.is_live() {
        let recorded = match &reference.archive {
            Some(bytes) => Some(CohortReplayer::from_bytes(bytes).map_err(|e| e.to_string())?),
            None => None,
        };
        let expected = MirrorTotals {
            link: reference.report.link.clone(),
            windows_skipped: reference.report.windows_skipped,
            prd: reference.report.prd.clone(),
            reboots: reference.report.reboots,
        };
        let workers = runner.config().workers;
        let main = traced_live_pass(runner, setup, recorded.as_ref(), workers, &mut tr)?;
        let single = traced_live_pass(runner, setup, recorded.as_ref(), 1, &mut Tracer::new())?;
        for (pass, label) in [(&main, "configured"), (&single, "one")] {
            attempted += pass.totals.link.messages + pass.totals.link.lost;
            if pass.totals != expected {
                violations.push(format!(
                    "traced totals at {label} worker(s) differ from the untraced report: \
                     {:?} vs {expected:?}",
                    pass.totals
                ));
            }
        }
        if let Some((bytes, blocks)) = &main.archive {
            if Some(bytes) != reference.archive.as_ref() {
                violations.push("re-streamed archive differs from the recording".into());
            }
            archive.write_bytes = bytes.len() as u64;
            archive.write_blocks = *blocks;
        }
        work = main.work;
        (main.wall_s, single.wall_s / main.wall_s)
    } else {
        let live = recording(setup)?;
        let bytes = &live.bytes;
        let start = Instant::now();
        let replayer = tr
            .time(Layer::ArchiveRead, || CohortReplayer::from_bytes(bytes))
            .map_err(|e| e.to_string())?;
        let report = tr
            .time(Layer::ReplayReport, || replayer.report())
            .map_err(|e| e.to_string())?;
        let solver = tr
            .time(Layer::ReplaySolver, || replayer.solver_replay_archived())
            .map_err(|e| e.to_string())?;
        let wall_s = start.elapsed().as_secs_f64();
        attempted += solver.compared;
        if report.to_json() != live.report_json || report != reference.report {
            violations.push("traced replay report differs from the live ward-cs report".into());
        }
        if !solver.bit_identical {
            violations.push("traced solver replay is not bit-identical".into());
        }
        archive.read_bytes = bytes.len() as u64;
        archive.solver_windows = solver.windows_solved;
        archive.solver_iters = solver.solver_iters;
        (wall_s, 0.0)
    };

    let summary = tr.summary();
    let mut metrics = Vec::new();
    for s in &summary {
        let p = s.layer.name();
        metrics.push(Metric::layer(format!("{p}.self_s"), s.self_s, "s"));
        metrics.push(Metric::layer(format!("{p}.calls"), s.calls as f64, "count"));
        metrics.push(Metric::layer(
            format!("{p}.share"),
            ratio(s.self_s, wall_s),
            "ratio",
        ));
        metrics.push(Metric::layer(
            format!("{p}.p50_us"),
            s.p50_us.unwrap_or(0.0),
            "us",
        ));
        metrics.push(Metric::layer(
            format!("{p}.p99_us"),
            s.p99_us.unwrap_or(0.0),
            "us",
        ));
        for (name, value, unit) in layer_work(s.layer, &work, &archive) {
            metrics.push(Metric::layer(name, value, unit));
        }
    }
    let serial_s: f64 = summary
        .iter()
        .filter(|s| s.layer.serial())
        .map(|s| s.self_s)
        .sum();
    let derived = [
        ("control.serial_share", ratio(serial_s, wall_s), "ratio"),
        ("gateway.worker_scaling_x", worker_scaling_x, "x"),
        (
            "trace.overhead_pct",
            100.0 * (wall_s - reference.wall_s) / reference.wall_s,
            "%",
        ),
        ("trace.pass_s", wall_s, "s"),
    ];
    for (name, value, unit) in derived {
        metrics.push(Metric::layer(name.to_string(), value, unit));
    }
    for (name, value, unit, _) in report_quality(&reference.report) {
        metrics.push(Metric::layer(format!("report.{name}"), value, unit));
    }
    let notes = vec![format!(
        "{workload:?}: traced pass {wall_s:.3} s vs untraced {:.3} s",
        reference.wall_s
    )];
    let failed = if violations.is_empty() { 0 } else { attempted };
    Ok(Outcome {
        attempted,
        failed,
        violations,
        notes,
        metrics,
    })
}

/// The work units counted at `layer`'s boundary, as (name, value,
/// unit); zero where the workload does not run the layer.
fn layer_work(layer: Layer, w: &Work, a: &ArchiveWork) -> Vec<(String, f64, &'static str)> {
    let p = layer.name();
    let n = |v: u64| v as f64;
    let g = &w.gateway;
    let items: Vec<(&str, f64, &'static str)> = match layer {
        Layer::EcgSynth => vec![("samples", n(w.synth_samples), "count")],
        Layer::CoreMonitor => vec![
            ("frames", n(w.monitor_frames), "count"),
            ("payloads", n(w.monitor_payloads), "count"),
        ],
        Layer::CoreLink => vec![
            ("packets", n(w.link_packets), "count"),
            ("wire_bytes", n(w.link_wire_bytes), "B"),
            (
                "goodput_ratio",
                ratio(
                    n(w.link_payload_bytes),
                    n(w.link_wire_bytes + w.resent_bytes),
                ),
                "ratio",
            ),
        ],
        Layer::CoreRetransmit => vec![
            ("resent_packets", n(w.resent_packets), "count"),
            ("expired", n(w.expired), "count"),
        ],
        Layer::GatewayChannel => vec![
            ("packets", n(w.channel_packets), "count"),
            ("dropped", n(w.channel_dropped), "count"),
        ],
        Layer::GatewayIngest => vec![
            ("packets", n(g.packets), "count"),
            ("crc_rejected", n(g.crc_rejected), "count"),
            ("windows_reconstructed", n(g.windows_reconstructed), "count"),
            ("windows_skipped", n(g.windows_skipped), "count"),
            ("solver_iters", n(g.solver_iters), "count"),
            (
                "iters_per_window",
                ratio(n(g.solver_iters), n(g.windows_reconstructed)),
                "iters",
            ),
        ],
        Layer::GatewayDownlink => vec![
            ("frames", n(w.downlink_frames), "count"),
            ("nacks", n(g.nacks_sent), "count"),
            ("directives", n(g.directives_issued), "count"),
        ],
        Layer::GatewayControl | Layer::ReplayReport => vec![],
        Layer::ArchiveWrite => vec![
            ("bytes", n(a.write_bytes), "B"),
            ("blocks", n(a.write_blocks), "count"),
        ],
        Layer::ArchiveRead => vec![("bytes", n(a.read_bytes), "B")],
        Layer::ReplaySolver => vec![
            ("windows_solved", n(a.solver_windows), "count"),
            ("solver_iters", n(a.solver_iters), "count"),
        ],
    };
    let mut out: Vec<(String, f64, &'static str)> = items
        .into_iter()
        .map(|(name, v, unit)| (format!("{p}.{name}"), v, unit))
        .collect();
    if layer == Layer::GatewayIngest {
        let c = &w.cache;
        out.push((
            "gateway.cache.hit_ratio".to_string(),
            ratio(n(c.hits), n(c.hits + c.misses)),
            "ratio",
        ));
    }
    out
}
