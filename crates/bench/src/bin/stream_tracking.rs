//! Streaming-vs-fixed tracking experiment (see
//! `qni_bench::stream_tracking`): windowed StEM on a piecewise-constant
//! M/M/1 workload, warm vs. cold window starts, against the fixed-log
//! baseline that cannot track the switch.
//!
//! Emits `results/BENCH_stream.json` (machine-readable, gated and
//! uploaded by the CI `bench-smoke` job) and the per-window trajectory
//! CSV `results/stream_trajectory.csv` (uploaded as a CI artifact).
//! Environment knobs:
//!
//! - `QNI_QUICK=1` — reduced scenario for smoke runs.
//! - `QNI_STREAM_GATE=<f64>` — exit nonzero unless the warm stream's
//!   mean tracking error stays at or below the gate (e.g. `0.15`, the
//!   acceptance threshold). Deterministic (seeded), so no host-speed
//!   skip is needed.
//!
//! Usage: `cargo run --release -p qni-bench --bin stream_tracking`

use qni_bench::stream_tracking::{run_experiment, write_trajectory_csv};
use std::process::ExitCode;

fn main() -> ExitCode {
    let quick = qni_bench::quick_mode();
    println!(
        "streaming tracking on piecewise-constant M/M/1{}:",
        if quick { " [quick]" } else { "" }
    );
    let (report, warm_traj, cold_traj) = run_experiment(quick);
    let s = &report.scenario;
    println!(
        "  λ: {} → {} at t={}, µ={}, horizon {}, window ({}, {}), {} tasks",
        s.lambda1, s.lambda2, s.switchpoint, s.mu, s.horizon, s.width, s.stride, report.tasks
    );
    println!(
        "  {:<6} {:>8} {:>9} {:>13} {:>12} {:>11} {:>13}",
        "mode", "windows", "eligible", "mean err", "max err", "total s", "per-window s"
    );
    for t in [&report.warm, &report.cold] {
        println!(
            "  {:<6} {:>8} {:>9} {:>12.1}% {:>11.1}% {:>11.3} {:>13.4}",
            t.mode,
            t.windows,
            t.eligible_windows,
            t.mean_rel_err * 100.0,
            t.max_rel_err * 100.0,
            t.total_secs,
            t.mean_window_secs
        );
    }
    println!(
        "  fixed-log λ̂ = {:.4}: {:.1}% off segment 1, {:.1}% off segment 2 ({:.3}s)",
        report.fixed.lambda_hat,
        report.fixed.rel_err_seg1 * 100.0,
        report.fixed.rel_err_seg2 * 100.0,
        report.fixed.secs
    );

    let dir = qni_bench::results_dir();
    let json_path = dir.join("BENCH_stream.json");
    let json = serde_json::to_string(&report).expect("serialize report");
    std::fs::write(&json_path, json + "\n").expect("write BENCH_stream.json");
    println!("json: {}", json_path.display());

    let csv_path = dir.join("stream_trajectory.csv");
    let file = std::fs::File::create(&csv_path).expect("create trajectory csv");
    write_trajectory_csv(
        &report.scenario,
        &warm_traj,
        &cold_traj,
        std::io::BufWriter::new(file),
    )
    .expect("write trajectory csv");
    println!("csv:  {}", csv_path.display());

    // Anti-regression gate for CI: the warm stream must keep tracking
    // each segment. The run is fully seeded, so the gate is exact (no
    // noisy-host skip like the wall-clock gates).
    if let Ok(gate) = std::env::var("QNI_STREAM_GATE") {
        let gate: f64 = gate.parse().expect("QNI_STREAM_GATE must be a number");
        let err = report.warm.mean_rel_err;
        // NaN (no eligible windows) must fail the gate, not sneak past.
        if err > gate || err.is_nan() {
            eprintln!(
                "FAIL: warm-stream mean tracking error {:.1}% exceeds the gate {:.1}%",
                err * 100.0,
                gate * 100.0
            );
            return ExitCode::FAILURE;
        }
        println!(
            "gate ok: warm-stream mean tracking error {:.1}% <= {:.1}%",
            err * 100.0,
            gate * 100.0
        );
    }
    ExitCode::SUCCESS
}
