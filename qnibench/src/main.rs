//! `qnibench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path qnibench/Cargo.toml -- \
//!     --workload infer-task10 --seed 1 --seconds 40 --trace 0
//! ```
//!
//! The trace is generated from `--seed` (by a child process, so the
//! generator's time and memory stay out of every metric) and the program
//! under test only reads the resulting JSONL. `--trace 0` measures the
//! workload's user-facing path untraced and prints the end-to-end
//! metrics; `--trace 1` calls the layers one by one inside spans and
//! prints the per-layer metrics plus the layer table. Either way the last
//! line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! See `qnibench/README.md` for the workloads and the metric map.

mod inputs;
mod layers;
mod live;
mod report;
mod spans;
mod stats;
mod sys;
mod workloads;

use inputs::Feed;
use qni_core::chains::{run_stem_parallel, ParallelStemResult};
use qni_core::stream::{run_stream, RateTrajectory};
use qni_stats::rng::{rng_from_seed, split_seed};
use qni_trace::record::{from_records, read_jsonl, TraceRecord};
use qni_trace::window::WindowSchedule;
use qni_trace::MaskedLog;
use report::{Outcome, END_TO_END, PER_LAYER};
use spans::Recorder;
use stats::{best_of_passes, highest_supported, median, min, percentile};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Live, Workload};

/// Set-up repeats per run before the fits; `setup_s` is the median of
/// these and of every fit request's own set-up.
const SETUP_REPS: usize = 5;

/// Fewest fit requests per run, however short `--seconds` is.
const MIN_FITS: usize = 3;

/// Largest relative error of λ̂ an offline fit may show (20 000 tasks).
const LAMBDA_TOL_FIT: f64 = 0.05;

/// Largest relative error of the median per-window λ̂ within one
/// constant-rate piece of the live feed.
const LAMBDA_TOL_LIVE: f64 = 0.15;

/// Command-line arguments.
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    generate: Option<PathBuf>,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut generate) =
            (None, None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(workloads::find(&value).ok_or_else(|| bad("unknown workload"))?)
                }
                "--seed" => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| bad("expected an integer"))?,
                    )
                }
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(bad("expected a positive number"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    })
                }
                "--generate" => generate = Some(PathBuf::from(&value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(30.0),
            trace: trace.unwrap_or(false),
            generate,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qnibench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.generate {
        return match inputs::generate(args.workload, args.seed, path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("qnibench: generating the trace: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("qnibench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Generates the trace, runs the pass, removes the run's files.
fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let root = PathBuf::from(".bench_work");
    let dir = root.join(format!("{}-{}-{}", w.name, args.seed, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let result = (|| {
        let trace = dir.join("trace.jsonl");
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let status = std::process::Command::new(exe)
            .arg("--generate")
            .arg(&trace)
            .args(["--workload", w.name, "--seed", &args.seed.to_string()])
            .status()
            .map_err(|e| format!("starting the generator: {e}"))?;
        if !status.success() {
            return Err(format!("the generator exited with {status}"));
        }
        // The sampler's master seed is derived from the workload seed.
        let master = split_seed(args.seed, 1);
        let seconds = Duration::from_secs_f64(args.seconds);
        if args.trace {
            let spans = root.join(format!("spans-{}-seed{}.jsonl", w.name, args.seed));
            traced_pass(w, &trace, &dir, master, &spans)?.to_json(PER_LAYER)
        } else {
            match &w.live {
                None => infer_pass(w, &trace, seconds, master),
                Some(live) => watch_pass(w, live, &trace, &dir, seconds, master),
            }?
            .to_json(END_TO_END)
        }
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn parse(path: &Path) -> Result<Vec<TraceRecord>, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    read_jsonl(std::io::BufReader::new(file)).map_err(|e| e.to_string())
}

/// `qni infer`'s `load_masked`: the queue count comes from the records.
fn build(records: &[TraceRecord]) -> Result<MaskedLog, String> {
    let num_queues = records
        .iter()
        .map(|r| r.event.queue.index() + 1)
        .max()
        .ok_or("trace is empty")?;
    from_records(records, num_queues).map_err(|e| e.to_string())
}

/// Parse + build, timed.
fn load(path: &Path) -> Result<(MaskedLog, usize, f64), String> {
    let t0 = Instant::now();
    let records = parse(path)?;
    let masked = build(&records)?;
    Ok((masked, records.len(), t0.elapsed().as_secs_f64()))
}

/// Bits of every chain's rate trace.
fn rate_bits(r: &ParallelStemResult) -> Vec<Vec<u64>> {
    r.chains
        .iter()
        .map(|c| c.rate_trace.iter().flatten().map(|v| v.to_bits()).collect())
        .collect()
}

/// Pooled rates finite and positive, λ̂ within [`LAMBDA_TOL_FIT`].
fn plausible(rates: &[f64], lambda: f64) -> bool {
    rates.iter().all(|r| r.is_finite() && *r > 0.0)
        && ((rates[0] - lambda) / lambda).abs() <= LAMBDA_TOL_FIT
}

/// The untraced offline path: repeated `qni infer` requests (parse,
/// build, `run_stem_parallel`) for `seconds`, at least [`MIN_FITS`].
/// Set-up reports the median; the fit and the request the fastest.
fn infer_pass(
    w: &Workload,
    trace: &Path,
    seconds: Duration,
    master: u64,
) -> Result<Outcome, String> {
    let opts = w.fit.options(master);
    let lambda = w.arrivals.mean_rate();
    let start = Instant::now();
    let mut setup = Vec::new();
    for _ in 0..SETUP_REPS {
        setup.push(load(trace)?.2);
    }
    let (mut fit, mut latency) = (Vec::new(), Vec::new());
    let mut records = 0;
    let mut first: Option<Vec<Vec<u64>>> = None;
    let mut out = Outcome::default();
    while fit.len() < MIN_FITS || start.elapsed() < seconds {
        let t0 = Instant::now();
        let (masked, n, setup_s) = load(trace)?;
        let t1 = Instant::now();
        let r = run_stem_parallel(&masked, None, &opts).map_err(|e| e.to_string())?;
        fit.push(t1.elapsed().as_secs_f64());
        latency.push(t0.elapsed().as_secs_f64());
        setup.push(setup_s);
        records = n;
        let bits = rate_bits(&r);
        let same = *first.get_or_insert_with(|| bits.clone()) == bits;
        out.check("fit: rate bits equal to the run's first fit", same);
        out.check_counted(
            "fit: pooled rates finite, positive, λ̂ near λ",
            plausible(&r.rates, lambda),
        );
    }
    let peak = sys::peak_rss_mb();
    // Every request is the same work, so the spread between them is the
    // host's; the fastest request is the steady figure. A request is the
    // only unit of work here, so both latency percentiles report it.
    let best = min(&latency);
    out.set("setup_s", median(&setup));
    out.set("fit_s", min(&fit));
    out.set("latency_ms_p50", best * 1e3);
    out.set("latency_ms_p95", best * 1e3);
    out.set("ingest_capacity_rps", records as f64 / best);
    out.set("peak_rss_mb", peak);
    eprintln!(
        "{}: {} fits, {} set-ups, {records} records",
        w.name,
        fit.len(),
        setup.len()
    );
    Ok(out)
}

/// `run_stream` over the complete file the watcher tailed.
fn replay(
    path: &Path,
    live: &Live,
    opts: &qni_core::StreamOptions,
) -> Result<RateTrajectory, String> {
    let schedule = WindowSchedule::new(live.width, live.stride).map_err(|e| e.to_string())?;
    let masked = build(&parse(path)?)?;
    run_stream(&masked, &schedule, opts).map_err(|e| e.to_string())
}

/// Checks every window's rates and, per constant-rate piece, the median
/// λ̂ of the windows inside it; counts one operation per window.
fn check_windows(out: &mut Outcome, w: &Workload, traj: &RateTrajectory) {
    let mut by_rate: Vec<(f64, Vec<f64>)> = Vec::new();
    for est in &traj.windows {
        let ok = est.carried || est.rates.iter().all(|r| r.is_finite() && *r > 0.0);
        out.check("window: rates finite and positive", ok);
        let rate = w.arrivals.rate_at(est.start);
        if est.carried || w.arrivals.rate_at(est.end - 1e-9) != rate {
            continue;
        }
        match by_rate.iter_mut().find(|(r, _)| *r == rate) {
            Some((_, v)) => v.push(est.rates[0]),
            None => by_rate.push((rate, vec![est.rates[0]])),
        }
    }
    for (rate, lambdas) in by_rate {
        let m = median(&lambdas);
        out.check_counted(
            &format!("median window λ̂ {m:.3} within {LAMBDA_TOL_LIVE} of λ = {rate}"),
            ((m - rate) / rate).abs() <= LAMBDA_TOL_LIVE,
        );
    }
}

/// Wall-clock length of one live pass's feed. It fixes the offered load,
/// so it does not scale with `--seconds`.
const PASS_WALL_S: f64 = 10.0;

/// Fewest live passes per run, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// Live passes that fit in `seconds`, leaving each pass time to set up.
fn watch_passes(seconds: Duration) -> usize {
    MIN_PASSES.max((seconds.as_secs_f64() / (PASS_WALL_S + 0.5)) as usize)
}

/// The untraced live path: identical `WatchSession` passes over the
/// open-loop feed. Every window is the same work in every pass, so each
/// window's timings are taken at their fastest over the passes before
/// they are summed or ranked; the spread between passes is the host's.
fn watch_pass(
    w: &Workload,
    live: &Live,
    trace: &Path,
    dir: &Path,
    seconds: Duration,
    master: u64,
) -> Result<Outcome, String> {
    let feed = Feed::load(trace)?;
    let opts = live.options(master);
    let passes = watch_passes(seconds);
    let mut runs = Vec::with_capacity(passes);
    for _ in 0..passes {
        runs.push(live::watch(live, &feed, dir, &opts, PASS_WALL_S)?);
    }
    let first = &runs[0];
    let mut out = Outcome::default();
    check_windows(&mut out, w, &first.trajectory);
    for r in &runs {
        out.attempted += r.bad_lines;
        out.failed += r.bad_lines;
    }
    let print = first.trajectory.fingerprint();
    out.check_counted(
        "every pass yields the same trajectory",
        runs.iter().all(|r| {
            r.trajectory.fingerprint() == print
                && r.latency.len() == first.latency.len()
                && r.fit.len() == first.fit.len()
                && r.busy.len() == first.busy.len()
                && r.records == first.records
        }),
    );
    out.check_counted(
        "live trajectory fingerprint equals run_stream over the complete file",
        replay(&first.path, live, &opts)?.fingerprint() == print,
    );
    let n = first.latency.len();
    out.check_counted(
        &format!("{n} window latencies leave >= 10 beyond p95"),
        highest_supported(n).is_some_and(|p| p >= 95.0),
    );
    let latency = best_of_passes(runs.iter().map(|r| r.latency.as_slice()));
    let fit = best_of_passes(runs.iter().map(|r| r.fit.as_slice()));
    let busy = best_of_passes(runs.iter().map(|r| r.busy.as_slice()));
    out.set(
        "setup_s",
        median(&runs.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
    );
    out.set("fit_s", fit.iter().sum());
    out.set("latency_ms_p50", median(&latency) * 1e3);
    out.set("latency_ms_p95", percentile(&latency, 95.0) * 1e3);
    out.set(
        "ingest_capacity_rps",
        first.records as f64 / busy.iter().sum::<f64>(),
    );
    out.set(
        "peak_rss_mb",
        runs.iter().map(|r| r.peak_rss_mb).fold(0.0, f64::max),
    );
    eprintln!(
        "{}: {passes} passes, {n} live windows each, {} records live, generator late by <= {:.1} ms",
        w.name,
        first.records,
        runs.iter().map(|r| r.late_max).fold(0.0, f64::max) * 1e3
    );
    Ok(out)
}

/// The traced pass: every layer called on its own inside a span, on the
/// workload's own trace. The offline layers are rebuilt from the fit
/// configuration and checked bit for bit against the untraced fit; the
/// live layers are driven over the open-loop feed and checked against
/// replay (and, on the live workload, against the untraced session).
fn traced_pass(
    w: &Workload,
    trace: &Path,
    dir: &Path,
    master: u64,
    spans_path: &Path,
) -> Result<Outcome, String> {
    let origin = Instant::now();
    let mut rec = Recorder::new(origin);
    let mut out = Outcome::default();
    let bytes = std::fs::metadata(trace).map_err(|e| e.to_string())?.len() as f64;
    let mut masked = None;
    for _ in 0..3 {
        let records = rec.span("trace.read_jsonl", |_| parse(trace))?;
        masked = Some(rec.span("trace.from_records", |_| build(&records))?);
    }
    let masked = masked.expect("set-up ran");
    let read_s = median(&rec.durations("trace.read_jsonl"));
    out.set("trace.read_jsonl.s", read_s);
    out.set("trace.read_jsonl.mb_per_s", bytes / 1e6 / read_s);
    out.set(
        "trace.from_records.s",
        median(&rec.durations("trace.from_records")),
    );

    // Offline layers: untraced reference fit, then the rebuild.
    let opts = w.fit.options(master);
    // The untraced fit runs before and after the rebuild, so the first
    // fit's cold start does not count as tracing overhead.
    let timed_fit = || -> Result<(ParallelStemResult, f64, f64), String> {
        let (c0, t0) = (sys::process_cpu_s(), Instant::now());
        let r = run_stem_parallel(&masked, None, &opts).map_err(|e| e.to_string())?;
        Ok((r, t0.elapsed().as_secs_f64(), sys::process_cpu_s() - c0))
    };
    let (reference, before_wall, before_cpu) = timed_fit()?;
    out.check(
        "reference fit: pooled rates plausible",
        plausible(&reference.rates, w.arrivals.mean_rate()),
    );
    let offline_from = rec.spans().len();
    let rebuilt = layers::rebuild(&masked, &opts, &mut rec, origin).map_err(|e| e.to_string())?;
    let (again, after_wall, after_cpu) = timed_fit()?;
    out.check(
        "repeated fit: rate bits equal to the first",
        rate_bits(&again) == rate_bits(&reference),
    );
    let (ref_wall, ref_cpu) = (
        (before_wall + after_wall) / 2.0,
        (before_cpu + after_cpu) / 2.0,
    );
    for (k, (c, r)) in rebuilt.chains.iter().zip(&reference.chains).enumerate() {
        let same = c.rate_trace.len() == r.rate_trace.len()
            && c.rate_trace
                .iter()
                .flatten()
                .zip(r.rate_trace.iter().flatten())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        out.check(
            &format!("rebuilt chain {k}: rate trace bit-identical to run_stem_parallel"),
            same,
        );
    }
    out.check_counted(
        "rebuilt diagnostics bit-identical to run_stem_parallel's",
        rebuilt
            .diagnostics
            .ess
            .iter()
            .zip(&reference.diagnostics.ess)
            .all(|(a, b)| a.to_bits() == b.to_bits())
            && rebuilt
                .diagnostics
                .split_rhat
                .iter()
                .zip(&reference.diagnostics.split_rhat)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
    );
    let offline = &rec.spans()[offline_from..];
    let of = |name: &str| -> Vec<f64> {
        offline
            .iter()
            .filter(|s| s.name == name)
            .map(spans::Span::duration)
            .collect()
    };
    let chain_s = of("core.chain");
    let max_chain = chain_s.iter().copied().fold(0.0, f64::max);
    let min_chain = chain_s.iter().copied().fold(f64::INFINITY, f64::min);
    let sweep_ms = median(&of("core.gibbs.sweep")) * 1e3;
    let offline_init = median(&of("core.init"));
    let mstep_us = median(&of("core.mstep")) * 1e6;
    let waiting_s = median(&of("core.stem.waiting_phase"));
    let diag_s = median(&of("core.diagnostics"));
    let sweeps: usize = rebuilt.chains.iter().map(|c| c.sweeps).sum();
    let mut st = qni_core::gibbs::sweep::SweepStats::default();
    for c in &rebuilt.chains {
        layers::add(&mut st, c.stats);
    }
    let per_sweep = |n: usize| n as f64 / sweeps as f64;
    out.set("core.sweep.ms", sweep_ms);
    out.set("core.sweep.arrival_moves", per_sweep(st.arrival_moves));
    out.set("core.sweep.final_moves", per_sweep(st.final_moves));
    out.set("core.sweep.shift_moves", per_sweep(st.shift_moves));
    out.set("core.sweep.arrival_groups", per_sweep(st.arrival_groups));
    out.set("core.sweep.group_fallbacks", per_sweep(st.group_fallbacks));
    out.set(
        "core.sweep.fallback_ratio",
        st.group_fallbacks as f64 / st.arrival_moves.max(1) as f64,
    );
    out.set("core.mstep.us_per_iter", mstep_us);
    out.set("core.stem.waiting_phase.s", waiting_s);
    out.set("core.diagnostics.s", diag_s);
    out.set("core.chains.chain_s.max", max_chain);
    out.set("core.chains.imbalance", max_chain / min_chain);

    // Per-move-type loops on chain 0's final state.
    let rebuilt_wall = rebuilt.wall_s;
    let mut state = rebuilt
        .chains
        .into_iter()
        .next()
        .expect("at least one chain")
        .state;
    let mut rng = rng_from_seed(split_seed(master, 2));
    let (reps, min_moves) = (5, 100_000);
    let arrivals = state.free_arrivals().to_vec();
    let finals = state.free_finals().to_vec();
    let shiftable = state.shiftable_tasks().to_vec();
    let err = |e: qni_core::InferenceError| e.to_string();
    let arrival_us = layers::us_per_move(
        &mut rec,
        "core.gibbs.arrival",
        &arrivals,
        reps,
        min_moves,
        |e| state.move_arrival(e, &mut rng),
    )
    .map_err(err)?;
    let final_us = layers::us_per_move(
        &mut rec,
        "core.gibbs.final_departure",
        &finals,
        reps,
        min_moves,
        |e| state.move_final(e, &mut rng),
    )
    .map_err(err)?;
    let shift_us = layers::us_per_move(
        &mut rec,
        "core.gibbs.shift",
        &shiftable,
        reps,
        min_moves,
        |k| state.move_shift(k, &mut rng),
    )
    .map_err(err)?;
    out.set("core.gibbs.arrival.us_per_move", arrival_us.unwrap_or(0.0));
    out.set(
        "core.gibbs.final_departure.us_per_move",
        final_us.unwrap_or(0.0),
    );
    out.set("core.gibbs.shift.us_per_move", shift_us.unwrap_or(0.0));

    let moves = per_sweep(st.arrival_moves + st.final_moves + st.shift_moves);
    let share = |n: usize, us: Option<f64>| {
        let pct = 100.0 * per_sweep(n) / moves;
        let cost = us.map_or(0.0, |u| 100.0 * per_sweep(n) * u / (sweep_ms * 1e3));
        format!(
            "{pct:.0}% of moves, ~{cost:.0}% of sweep ({:.2} us/move)",
            us.unwrap_or(0.0)
        )
    };
    println!("layer table for {} (master seed {master})", w.name);
    println!("| Layer | Value |");
    println!("|---|---|");
    println!(
        "| JSONL parse ({:.0} MB/s) | {:.3} s |",
        bytes / 1e6 / read_s,
        read_s
    );
    println!(
        "| build MaskedLog | {:.4} s |",
        median(&rec.durations("trace.from_records"))
    );
    println!("| init (per chain) | {offline_init:.4} s |");
    println!("| sweep | {sweep_ms:.2} ms |");
    println!(
        "| arrival moves | {} |",
        share(st.arrival_moves, arrival_us)
    );
    println!("| shift moves | {} |", share(st.shift_moves, shift_us));
    println!(
        "| final-departure moves | {} |",
        share(st.final_moves, final_us)
    );
    println!("| M-step, per iteration | {mstep_us:.1} us |");
    println!("| waiting phase | {waiting_s:.3} s |");
    println!("| diagnostics | {:.4} s |", diag_s);
    match &w.live {
        Some(live) => live_layers(&mut out, w, live, trace, dir, master, &mut rec)?,
        None => {
            // The offline workloads never run the live layers.
            for name in LIVE_ONLY {
                out.set(name, 0.0);
            }
            out.set("core.init.s", offline_init);
            out.set(
                "core.chains.ess_per_cpu_s",
                reference.diagnostics.min_ess() / ref_cpu,
            );
            out.set(
                "tracing.overhead_frac",
                (rebuilt_wall - ref_wall) / ref_wall,
            );
        }
    }
    out.set("process.cpu_s", sys::process_cpu_s());

    rec.write_jsonl(spans_path)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    Ok(out)
}

/// Per-layer metrics only the live layers produce.
const LIVE_ONLY: [&str; 15] = [
    "trace.tail.poll.busy_s",
    "trace.tail.bytes",
    "trace.tail.bad_lines",
    "trace.window.push.busy_s",
    "trace.window.windows_out",
    "trace.window.peak_buffered_tasks",
    "trace.window.peak_open_spans",
    "core.stream.push_window.ms_p50",
    "core.stream.push_window.ms_p95",
    "core.stream.tasks_per_window",
    "core.watch.checkpoint.ms",
    "core.watch.checkpoint.bytes",
    "core.watch.lag_strides.max",
    "bench.generator.late_ms.max",
    "bench.latency.samples",
];

/// The live layers of the traced pass: an untraced `WatchSession`
/// reference run, then the same feed through the layers one by one.
fn live_layers(
    out: &mut Outcome,
    w: &Workload,
    live: &Live,
    trace: &Path,
    dir: &Path,
    master: u64,
    rec: &mut Recorder,
) -> Result<(), String> {
    let feed = Feed::load(trace)?;
    let opts = live.options(master);
    let reference = live::watch(live, &feed, dir, &opts, PASS_WALL_S)?;
    let from = rec.spans().len();
    let traced = live::traced(live, &feed, dir, &opts, PASS_WALL_S, rec)?;
    check_windows(out, w, &traced.trajectory);
    out.attempted += traced.bad_lines;
    out.failed += traced.bad_lines;
    let print = traced.trajectory.fingerprint();
    out.check_counted(
        "traced live trajectory equals the untraced WatchSession's",
        reference.trajectory.fingerprint() == print,
    );
    out.check_counted(
        "traced live trajectory equals run_stream over the complete file",
        replay(&traced.path, live, &opts)?.fingerprint() == print,
    );
    let spans = &rec.spans()[from..];
    let of = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(spans::Span::duration)
            .collect()
    };
    let push_window = of("core.stream.push_window");
    out.set("trace.tail.poll.busy_s", of("trace.tail.poll").iter().sum());
    out.set("trace.tail.bytes", traced.tail_bytes as f64);
    out.set("trace.tail.bad_lines", traced.bad_lines as f64);
    out.set(
        "trace.window.push.busy_s",
        of("trace.window.push").iter().sum(),
    );
    out.set("trace.window.windows_out", traced.windows as f64);
    out.set(
        "trace.window.peak_buffered_tasks",
        traced.peak_buffered_tasks as f64,
    );
    out.set(
        "trace.window.peak_open_spans",
        traced.peak_open_spans as f64,
    );
    out.set("core.stream.push_window.ms_p50", median(&push_window) * 1e3);
    out.set(
        "core.stream.push_window.ms_p95",
        percentile(&push_window, 95.0) * 1e3,
    );
    out.set("core.stream.tasks_per_window", traced.tasks_per_window);
    out.set(
        "core.watch.checkpoint.ms",
        median(&of("core.watch.checkpoint")) * 1e3,
    );
    out.set(
        "core.watch.checkpoint.bytes",
        traced.checkpoint_bytes as f64,
    );
    out.set("core.watch.lag_strides.max", traced.lag_strides_max);
    out.set("bench.generator.late_ms.max", traced.feed.late_max * 1e3);
    out.set("bench.latency.samples", traced.feed.latencies.len() as f64);
    out.set("core.init.s", median(&of("core.init")));
    // The watcher is single-threaded, so its busy time is its CPU time.
    out.set(
        "core.chains.ess_per_cpu_s",
        reference.ess / reference.busy_s,
    );
    out.set(
        "tracing.overhead_frac",
        (traced.busy_s - reference.busy_s) / reference.busy_s,
    );
    println!(
        "live layers: window fit p50 {:.2} ms, p95 {:.2} ms; cold window init p50 {:.3} ms",
        median(&push_window) * 1e3,
        percentile(&push_window, 95.0) * 1e3,
        median(&of("core.init")) * 1e3
    );
    Ok(())
}
