//! Solver frontier: FISTA settings scored window by window on recorded
//! cohorts, against the gateway's previous default.
//!
//! Each seed records one `ward-cs`-shaped cohort (32 CS sessions × 1
//! modeled hour of 30 s segments, `cs_fraction = 1`, every window
//! solved) with the gateway running the **reference** solver: the
//! plain restarted FISTA at `tol = 3e-5` that was the default before
//! λ-continuation. Every candidate setting is then re-solved from the
//! archived measurements through `CohortReplayer::solver_replay`, so
//! its PRDs are compared with the reference's on exactly the same
//! windows. Per seed and setting it prints iterations per window, PRD
//! mean and p95, the mean and p95 PRD change, the p95 of the
//! per-window |Δ| and the largest per-window |Δ|. A summary table folds
//! the seeds: total iterations per window, the worst mean and p95
//! change, and whether the setting passes the quality gate (mean Δ ≤
//! +0.05 pt, p95 Δ ≤ +0.25 pt and every window within 2 pt on every
//! seed).
//!
//! Choose a point on some seeds, then judge it on others:
//!
//! ```text
//! cargo run --release --example solver_frontier -- --seeds 1,7,11
//! cargo run --release --example solver_frontier -- --seeds 21,22,23,24,25 --points gateway
//! ```
//!
//! `--points all` (the default) sweeps the grid below; `--points
//! gateway` scores only the reference and today's
//! `GatewayConfig::default_solver`. `--sessions <n>` shrinks the cohort
//! for a quick look.

use wbsn::archive::SolverReplayConfig;
use wbsn::cohort::{CohortRunConfig, CohortRunner};
use wbsn::cs::solver::{Continuation, FistaConfig};
use wbsn::ecg_synth::cohort::CohortConfig;
use wbsn::gateway::GatewayConfig;
use wbsn::replay::CohortReplayer;

/// The gate a new default must pass on held-out seeds, in PRD points.
const GATE_MEAN_DELTA: f64 = 0.05;
const GATE_P95_DELTA: f64 = 0.25;
const GATE_MAX_ABS_DELTA: f64 = 2.0;

/// The gateway's solver before λ-continuation: the reference every
/// setting is compared with.
fn reference() -> FistaConfig {
    FistaConfig {
        lambda_rel: 0.001,
        max_iters: 800,
        tol: 3e-5,
        restart: true,
        ..FistaConfig::default()
    }
}

/// A named setting on the frontier.
struct Point {
    name: String,
    cfg: FistaConfig,
}

fn point(name: impl Into<String>, cfg: FistaConfig) -> Point {
    Point {
        name: name.into(),
        cfg,
    }
}

/// `tol`, `max_iters` and continuation schedules around the reference.
fn grid() -> Vec<Point> {
    let base = reference();
    let mut points = vec![
        point("reference (tol 3e-5)", base),
        point("tol 1e-4", FistaConfig { tol: 1e-4, ..base }),
        point("tol 3e-4", FistaConfig { tol: 3e-4, ..base }),
        point(
            "max_iters 200",
            FistaConfig {
                max_iters: 200,
                ..base
            },
        ),
    ];
    for start_rel in [0.01, 0.03] {
        for factor in [0.3, 0.5] {
            for stage_tol in [1e-3, 3e-3] {
                for tol in [3e-5, 5e-5, 1e-4] {
                    points.push(point(
                        format!("cont {start_rel}/{factor}/{stage_tol:.0e}, tol {tol:.0e}"),
                        FistaConfig {
                            tol,
                            continuation: Some(Continuation {
                                start_rel,
                                factor,
                                stage_tol,
                            }),
                            ..base
                        },
                    ));
                }
            }
        }
    }
    points
}

/// One setting's replay on one seed, against the reference.
struct Score {
    iters: u64,
    windows: u64,
    prd_mean: f64,
    prd_p95: f64,
    mean_delta: f64,
    p95_delta: f64,
    p95_abs_delta: f64,
    max_abs_delta: f64,
}

impl Score {
    fn passes(&self) -> bool {
        self.mean_delta <= GATE_MEAN_DELTA
            && self.p95_delta <= GATE_P95_DELTA
            && self.max_abs_delta <= GATE_MAX_ABS_DELTA
    }
}

fn record(seed: u64, sessions: usize) -> CohortReplayer {
    let runner = CohortRunner::new(CohortRunConfig {
        cohort: CohortConfig {
            cohort_seed: seed,
            sessions,
            modeled_hours: 1,
            segment_s: 30.0,
            cs_fraction: 1.0,
            ..CohortConfig::default()
        },
        workers: 2,
        reconstruct_every: 1,
        solver: reference(),
        ..CohortRunConfig::default()
    });
    let (_, bytes) = runner.run_recorded(Vec::new()).expect("cohort run failed");
    CohortReplayer::from_bytes(&bytes).expect("recording reads back")
}

fn score(replayer: &CohortReplayer, cfg: FistaConfig) -> Score {
    let r = replayer
        .solver_replay(&SolverReplayConfig {
            solver: cfg,
            ..SolverReplayConfig::archived(replayer.meta())
        })
        .expect("solver replay failed");
    Score {
        iters: r.solver_iters,
        windows: r.windows_solved,
        prd_mean: r.replayed_prd_mean,
        prd_p95: r.replayed_prd_p95,
        mean_delta: r.mean_delta,
        p95_delta: r.replayed_prd_p95 - r.live_prd_p95,
        p95_abs_delta: r.p95_abs_delta,
        max_abs_delta: r.max_abs_delta,
    }
}

fn per_window(iters: u64, windows: u64) -> f64 {
    iters as f64 / windows.max(1) as f64
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let seeds: Vec<u64> = value("--seeds")
        .unwrap_or_else(|| "1,7,11".into())
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .expect("--seeds takes a comma-separated list")
        })
        .collect();
    let sessions: usize = value("--sessions").map_or(32, |s| s.parse().expect("--sessions <n>"));
    let points = match value("--points").as_deref() {
        None | Some("all") => grid(),
        Some("gateway") => vec![
            point("reference (tol 3e-5)", reference()),
            point("gateway default", GatewayConfig::default_solver()),
        ],
        Some(other) => panic!("--points takes `all` or `gateway`, not {other:?}"),
    };

    let mut scores: Vec<Vec<Score>> = points.iter().map(|_| Vec::new()).collect();
    for &seed in &seeds {
        let replayer = record(seed, sessions);
        println!("\n## seed {seed}\n");
        println!(
            "| setting | iterations/window | PRD mean | PRD p95 | mean Δ | p95 Δ | p95 \\|Δ\\| | max \\|Δ\\| |"
        );
        println!("|---|---|---|---|---|---|---|---|");
        for (p, acc) in points.iter().zip(&mut scores) {
            let s = score(&replayer, p.cfg);
            println!(
                "| {} | {:.1} | {:.3} % | {:.3} % | {:+.4} pt | {:+.3} pt | {:.3} pt | {:.3} pt |",
                p.name,
                per_window(s.iters, s.windows),
                s.prd_mean,
                s.prd_p95,
                s.mean_delta,
                s.p95_delta,
                s.p95_abs_delta,
                s.max_abs_delta
            );
            acc.push(s);
        }
    }

    println!("\n## summary over seeds {seeds:?}\n");
    println!(
        "| setting | iterations/window | vs reference | worst mean Δ | worst p95 Δ | max \\|Δ\\| | gate |"
    );
    println!("|---|---|---|---|---|---|---|");
    let total = |s: &[Score]| {
        per_window(
            s.iter().map(|x| x.iters).sum(),
            s.iter().map(|x| x.windows).sum(),
        )
    };
    let reference_ipw = total(&scores[0]);
    for (p, s) in points.iter().zip(&scores) {
        let worst = |f: fn(&Score) -> f64| s.iter().map(f).fold(f64::NEG_INFINITY, f64::max);
        let ipw = total(s);
        println!(
            "| {} | {:.1} | {:+.1} % | {:+.4} pt | {:+.3} pt | {:.3} pt | {} |",
            p.name,
            ipw,
            100.0 * (ipw / reference_ipw - 1.0),
            worst(|x| x.mean_delta),
            worst(|x| x.p95_delta),
            worst(|x| x.max_abs_delta),
            if s.iter().all(Score::passes) {
                "pass"
            } else {
                "FAIL"
            }
        );
    }
}
