//! Streaming-vs-fixed tracking experiment on a piecewise-constant
//! workload.
//!
//! The scenario an offline estimator *cannot* fit: an M/M/1 queue whose
//! arrival rate switches abruptly mid-trace. The fixed-log StEM engine
//! reports one blended λ̂ (close to neither segment); the streaming
//! engine's windowed trajectory should track each segment's true rate
//! once a window lies fully inside it. The experiment measures
//!
//! - per-window tracking error (relative λ̂ error vs. the owning
//!   segment's ground truth) for **warm** and **cold** window starts,
//! - per-window and total wall time for both modes,
//! - the fixed-log λ̂ and its error against *both* segments,
//!
//! and emits `results/BENCH_stream.json` (consumed by the CI gate) plus
//! the full per-window trajectory as `results/stream_trajectory.csv`
//! (uploaded as a CI artifact).

use qni_core::stem::{run_stem, StemOptions};
use qni_core::stream::{run_stream, RateTrajectory, StreamOptions};
use qni_model::topology::tandem;
use qni_sim::{Simulator, Workload};
use qni_stats::rng::rng_from_seed;
use qni_trace::{MaskedLog, ObservationScheme, WindowSchedule};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Monotonic seconds since the first call — the wall clock injected into
/// [`StreamOptions::clock`] so `qni-core` itself stays wall-clock-free.
fn monotonic_secs() -> f64 {
    use std::sync::OnceLock;
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// The piecewise-constant M/M/1 scenario every point runs on.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamScenario {
    /// Arrival rate of the first segment (`[0, switchpoint)`).
    pub lambda1: f64,
    /// Arrival rate of the second segment (`[switchpoint, horizon)`).
    pub lambda2: f64,
    /// The switch time.
    pub switchpoint: f64,
    /// Workload horizon.
    pub horizon: f64,
    /// Service rate of the single queue.
    pub mu: f64,
    /// Fraction of tasks with observed arrivals.
    pub fraction: f64,
    /// Window width of the schedule.
    pub width: f64,
    /// Window stride of the schedule.
    pub stride: f64,
    /// Per-window (and fixed-log) StEM iterations.
    pub iterations: usize,
    /// Per-window (and fixed-log) burn-in.
    pub burn_in: usize,
    /// Simulation/masking/inference master seed.
    pub seed: u64,
}

impl StreamScenario {
    /// The full-size scenario used by the `stream_tracking` binary.
    pub fn default_full() -> Self {
        StreamScenario {
            lambda1: 2.0,
            lambda2: 6.0,
            switchpoint: 100.0,
            horizon: 200.0,
            mu: 8.0,
            fraction: 0.5,
            width: 50.0,
            stride: 25.0,
            iterations: 80,
            burn_in: 40,
            seed: 7,
        }
    }

    /// A reduced scenario for CI smoke runs (`QNI_QUICK=1`).
    pub fn quick() -> Self {
        StreamScenario {
            switchpoint: 60.0,
            horizon: 120.0,
            width: 30.0,
            stride: 15.0,
            iterations: 40,
            burn_in: 20,
            ..StreamScenario::default_full()
        }
    }

    /// Simulates and masks the scenario's trace.
    pub fn build(&self) -> MaskedLog {
        let bp = tandem((self.lambda1 + self.lambda2) / 2.0, &[self.mu]).expect("topology");
        let mut rng = rng_from_seed(self.seed);
        let workload = Workload::piecewise_constant(
            vec![self.lambda1, self.lambda2],
            vec![self.switchpoint],
            self.horizon,
        )
        .expect("workload");
        let truth = Simulator::new(&bp.network)
            .run(&workload, &mut rng)
            .expect("simulation");
        ObservationScheme::task_sampling(self.fraction)
            .expect("fraction")
            .apply(truth, &mut rng)
            .expect("mask")
    }

    /// The shared per-window StEM options.
    pub fn stem_options(&self) -> StemOptions {
        StemOptions {
            iterations: self.iterations,
            burn_in: self.burn_in,
            waiting_sweeps: 1,
            ..StemOptions::default()
        }
    }

    /// The segment (0 or 1) a `[start, end)` window lies fully inside,
    /// if any. Windows straddling the switchpoint or running past the
    /// horizon are ineligible for tracking-error measurement.
    pub fn segment_of(&self, start: f64, end: f64) -> Option<usize> {
        if end <= self.switchpoint {
            Some(0)
        } else if start >= self.switchpoint && end <= self.horizon {
            Some(1)
        } else {
            None
        }
    }

    /// Ground-truth arrival rate of a segment.
    pub fn true_lambda(&self, segment: usize) -> f64 {
        if segment == 0 {
            self.lambda1
        } else {
            self.lambda2
        }
    }
}

/// Tracking-error summary of one streaming mode (warm or cold).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrackingSummary {
    /// `"warm"` or `"cold"`.
    pub mode: String,
    /// Scheduled windows in the trajectory.
    pub windows: usize,
    /// Windows fully inside one segment (tracking error is measured on
    /// these only).
    pub eligible_windows: usize,
    /// Mean relative λ̂ error over eligible windows.
    pub mean_rel_err: f64,
    /// Largest relative λ̂ error over eligible windows.
    pub max_rel_err: f64,
    /// Total wall-clock seconds for the whole stream.
    pub total_secs: f64,
    /// Mean per-window wall-clock seconds.
    pub mean_window_secs: f64,
}

/// The fixed-log baseline on the same trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FixedSummary {
    /// The single blended λ̂ of the whole trace.
    pub lambda_hat: f64,
    /// Relative error of `lambda_hat` against segment 1's true rate.
    pub rel_err_seg1: f64,
    /// Relative error of `lambda_hat` against segment 2's true rate.
    pub rel_err_seg2: f64,
    /// Wall-clock seconds of the fixed-log fit.
    pub secs: f64,
}

/// The full JSON report written to `BENCH_stream.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamTrackingReport {
    /// Report schema / experiment name.
    pub bench: String,
    /// Whether the reduced `QNI_QUICK` scenario was used.
    pub quick: bool,
    /// The scenario every point ran on.
    pub scenario: StreamScenario,
    /// Tasks in the simulated trace.
    pub tasks: usize,
    /// Warm-start streaming summary.
    pub warm: TrackingSummary,
    /// Cold-start streaming summary.
    pub cold: TrackingSummary,
    /// Fixed-log baseline summary.
    pub fixed: FixedSummary,
}

/// Summarizes one trajectory's tracking behaviour against the scenario.
pub fn summarize(
    scenario: &StreamScenario,
    traj: &RateTrajectory,
    mode: &str,
    total_secs: f64,
) -> TrackingSummary {
    let mut errs = Vec::new();
    for w in &traj.windows {
        if w.carried {
            continue;
        }
        if let Some(seg) = scenario.segment_of(w.start, w.end) {
            let truth = scenario.true_lambda(seg);
            errs.push((w.rates[0] - truth).abs() / truth);
        }
    }
    let eligible = errs.len();
    let mean = if eligible > 0 {
        errs.iter().sum::<f64>() / eligible as f64
    } else {
        f64::NAN
    };
    let max = errs.iter().copied().fold(f64::NAN, f64::max);
    TrackingSummary {
        mode: mode.to_owned(),
        windows: traj.windows.len(),
        eligible_windows: eligible,
        mean_rel_err: mean,
        max_rel_err: max,
        total_secs,
        mean_window_secs: total_secs / traj.windows.len().max(1) as f64,
    }
}

/// Runs the full experiment: warm stream, cold stream, fixed baseline.
///
/// Returns the report plus both trajectories (for the CSV artifact).
pub fn run_experiment(quick: bool) -> (StreamTrackingReport, RateTrajectory, RateTrajectory) {
    let scenario = if quick {
        StreamScenario::quick()
    } else {
        StreamScenario::default_full()
    };
    let masked = scenario.build();
    let schedule = WindowSchedule::new(scenario.width, scenario.stride).expect("schedule");
    let stream_opts = |warm: bool| StreamOptions {
        stem: scenario.stem_options(),
        chains: 1,
        master_seed: scenario.seed,
        thread_budget: None,
        warm_start: warm,
        warm_burn_in: None,
        occupancy_carry: true,
        clock: Some(monotonic_secs),
    };

    let start = Instant::now();
    let warm_traj = run_stream(&masked, &schedule, &stream_opts(true)).expect("warm stream");
    let warm_secs = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let cold_traj = run_stream(&masked, &schedule, &stream_opts(false)).expect("cold stream");
    let cold_secs = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let mut rng = rng_from_seed(scenario.seed);
    let fixed = run_stem(&masked, None, &scenario.stem_options(), &mut rng).expect("fixed fit");
    let fixed_secs = start.elapsed().as_secs_f64();
    let lambda_hat = fixed.rates[0];

    let report = StreamTrackingReport {
        bench: "stream_tracking".to_owned(),
        quick,
        tasks: masked.ground_truth().num_tasks(),
        warm: summarize(&scenario, &warm_traj, "warm", warm_secs),
        cold: summarize(&scenario, &cold_traj, "cold", cold_secs),
        fixed: FixedSummary {
            lambda_hat,
            rel_err_seg1: (lambda_hat - scenario.lambda1).abs() / scenario.lambda1,
            rel_err_seg2: (lambda_hat - scenario.lambda2).abs() / scenario.lambda2,
            secs: fixed_secs,
        },
        scenario,
    };
    (report, warm_traj, cold_traj)
}

/// Writes both trajectories as one CSV: per window and mode, the λ̂
/// against the owning segment's ground truth (empty segment for
/// straddling windows).
pub fn write_trajectory_csv<W: std::io::Write>(
    scenario: &StreamScenario,
    warm: &RateTrajectory,
    cold: &RateTrajectory,
    out: W,
) -> Result<(), qni_trace::TraceError> {
    let mut w = qni_trace::csv::CsvWriter::new(
        out,
        &[
            "mode",
            "window",
            "start",
            "end",
            "tasks",
            "lambda_hat",
            "lambda_true",
            "rel_err",
            "wall_secs",
        ],
    )?;
    for (mode, traj) in [("warm", warm), ("cold", cold)] {
        for win in &traj.windows {
            let (truth, err) = match scenario.segment_of(win.start, win.end) {
                Some(seg) if !win.carried => {
                    let t = scenario.true_lambda(seg);
                    (format!("{t}"), format!("{}", (win.rates[0] - t).abs() / t))
                }
                _ => (String::new(), String::new()),
            };
            w.row(&[
                mode.to_owned(),
                win.index.to_string(),
                format!("{}", win.start),
                format!("{}", win.end),
                win.tasks.to_string(),
                format!("{}", win.rates[0]),
                truth,
                err,
                format!("{}", win.wall_secs),
            ])?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_classification() {
        let s = StreamScenario::default_full();
        assert_eq!(s.segment_of(0.0, 50.0), Some(0));
        assert_eq!(s.segment_of(50.0, 100.0), Some(0));
        assert_eq!(s.segment_of(100.0, 150.0), Some(1));
        assert_eq!(s.segment_of(75.0, 125.0), None); // Straddles.
        assert_eq!(s.segment_of(175.0, 225.0), None); // Past horizon.
        assert_eq!(s.true_lambda(0), 2.0);
        assert_eq!(s.true_lambda(1), 6.0);
    }

    #[test]
    fn report_round_trips_through_json() {
        let scenario = StreamScenario::quick();
        let summary = TrackingSummary {
            mode: "warm".into(),
            windows: 8,
            eligible_windows: 6,
            mean_rel_err: 0.07,
            max_rel_err: 0.12,
            total_secs: 1.5,
            mean_window_secs: 0.19,
        };
        let report = StreamTrackingReport {
            bench: "stream_tracking".into(),
            quick: true,
            scenario,
            tasks: 480,
            warm: summary.clone(),
            cold: summary,
            fixed: FixedSummary {
                lambda_hat: 4.1,
                rel_err_seg1: 1.05,
                rel_err_seg2: 0.32,
                secs: 0.4,
            },
        };
        let json = serde_json::to_string(&report).expect("json");
        let back: StreamTrackingReport = serde_json::from_str(&json).expect("parse");
        assert_eq!(back.bench, "stream_tracking");
        assert_eq!(back.warm.eligible_windows, 6);
        assert!((back.fixed.lambda_hat - 4.1).abs() < 1e-12);
    }
}
