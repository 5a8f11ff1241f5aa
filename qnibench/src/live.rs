//! The live path: an open-loop feed appending to a tailed file, consumed
//! by `WatchSession` (untraced) or by the tail → slicer → stream layers
//! called one by one (traced).
//!
//! The feed is open loop: task `i` is due at its entry time (relative to
//! the end of the backlog) times a fixed wall-clock scale, whether or not
//! the watcher kept up. It shares the watcher's thread: every task due by
//! now is appended, then the watcher takes one step. A window's latency
//! runs from the due time of the task whose entry closed it to the moment
//! its estimate exists and the step's checkpoint is saved, so a stall
//! also delays every window due while it lasts.

use crate::inputs::Feed;
use crate::spans::Recorder;
use crate::sys::peak_rss_mb;
use crate::workloads::Live;
use qni_core::init::InitStrategy;
use qni_core::stem::heuristic_rates;
use qni_core::stream::{RateTrajectory, StreamEngine, StreamOptions, WindowEstimate};
use qni_core::watch::{options_fingerprint, Checkpoint, WatchSession, CHECKPOINT_VERSION};
use qni_core::GibbsState;
use qni_trace::tail::TailReader;
use qni_trace::window::{LiveSlicer, WindowSchedule};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A clock the open loop reads and sleeps on.
pub trait Clock {
    /// Seconds since the feed started.
    fn now(&mut self) -> f64;
    /// Blocks until `now() >= t`.
    fn sleep_until(&mut self, t: f64);
}

/// How long before a due time the feed stops sleeping and spins.
const SPIN_S: f64 = 0.002;

/// The wall clock.
pub struct Wall(Instant);

impl Wall {
    /// A clock reading 0 now.
    pub fn start() -> Self {
        Wall(Instant::now())
    }
}

impl Clock for Wall {
    fn now(&mut self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Sleeps until shortly before `t`, then spins: a sleeping thread can
    /// wake milliseconds late on a shared host, which would count as the
    /// watcher's latency.
    fn sleep_until(&mut self, t: f64) {
        let wait = t - self.now() - SPIN_S;
        if wait > 0.0 {
            std::thread::sleep(std::time::Duration::from_secs_f64(wait));
        }
        while self.now() < t {
            std::hint::spin_loop();
        }
    }
}

/// What the open loop saw.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Latency of every window closed during the feed, seconds.
    pub latencies: Vec<f64>,
    /// Largest delay between a task's due time and its append, seconds.
    pub late_max: f64,
}

/// Appends each task at its due time (`due`, seconds on `clock`,
/// nondecreasing) and runs `step` after every batch of appends. `step`
/// returns, for each window it closed, the index of the task that closed
/// it; that window's latency is taken when `step` returns.
pub fn run_open_loop<C: Clock>(
    clock: &mut C,
    due: &[f64],
    mut append: impl FnMut(usize) -> Result<(), String>,
    mut step: impl FnMut(&mut C) -> Result<Vec<usize>, String>,
) -> Result<OpenLoop, String> {
    let mut out = OpenLoop::default();
    let mut next = 0;
    while next < due.len() {
        let now = clock.now();
        if due[next] > now {
            clock.sleep_until(due[next]);
            continue;
        }
        while next < due.len() && due[next] <= now {
            append(next)?;
            out.late_max = out.late_max.max(now - due[next]);
            next += 1;
        }
        for closer in step(clock)? {
            out.latencies.push(clock.now() - due[closer]);
        }
    }
    Ok(out)
}

/// Files of one live run and the feed split at the end of the backlog.
struct Setup<'a> {
    feed: &'a Feed,
    path: PathBuf,
    checkpoint: PathBuf,
    schedule: WindowSchedule,
    /// Index of the first task fed live.
    split: usize,
    /// Due time of each live task, seconds after the feed starts.
    due: Vec<f64>,
}

impl<'a> Setup<'a> {
    /// Writes the backlog to a fresh `dir/<tag>.jsonl`.
    fn new(
        live: &Live,
        feed: &'a Feed,
        dir: &Path,
        tag: &str,
        wall_s: f64,
    ) -> Result<Self, String> {
        let schedule = WindowSchedule::new(live.width, live.stride).map_err(|e| e.to_string())?;
        let horizon = feed.last_entry();
        let backlog_end = live.backlog_frac * horizon;
        let split = feed.tasks.partition_point(|t| t.entry < backlog_end);
        let scale = wall_s / (horizon - backlog_end);
        let due = feed.tasks[split..]
            .iter()
            .map(|t| (t.entry - backlog_end) * scale)
            .collect();
        let path = dir.join(format!("{tag}.jsonl"));
        let backlog: Vec<u8> = feed.tasks[..split]
            .iter()
            .flat_map(|t| t.bytes.iter().copied())
            .collect();
        std::fs::write(&path, backlog).map_err(|e| e.to_string())?;
        Ok(Setup {
            feed,
            checkpoint: dir.join(format!("{tag}.ckpt")),
            path,
            schedule,
            split,
            due,
        })
    }

    fn appender(&self) -> Result<impl FnMut(usize) -> Result<(), String> + '_, String> {
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| e.to_string())?;
        Ok(move |i: usize| {
            file.write_all(&self.feed.tasks[self.split + i].bytes)
                .map_err(|e| e.to_string())
        })
    }

    /// Index (into the live tasks) of the first task entering at or after
    /// `end`: the one whose arrival closes a window ending at `end`.
    fn closer(&self, end: f64) -> usize {
        self.feed.tasks[self.split..].partition_point(|t| t.entry < end)
    }
}

/// Result of one untraced `WatchSession` pass over the feed.
#[derive(Debug)]
pub struct WatchRun {
    /// Session open + backlog catch-up + checkpoint, seconds.
    pub setup_s: f64,
    /// Per window closed while live, in window order: latency (due time
    /// of the closing task to checkpoint saved), seconds.
    pub latency: Vec<f64>,
    /// Per live window: fit time from the injected clock, seconds.
    pub fit: Vec<f64>,
    /// Seconds inside `step()` and checkpoint saves while live.
    pub busy_s: f64,
    /// The same seconds charged to the live windows, in window order: a
    /// step's time is split evenly over the windows it closed, and a step
    /// that closed none passes its time on to the next window closed (the
    /// steps after the last one are not charged).
    pub busy: Vec<f64>,
    /// Records ingested while live.
    pub records: usize,
    /// Summed min-over-queues ESS of the windows fitted while live.
    pub ess: f64,
    /// Largest generator lateness, seconds.
    pub late_max: f64,
    /// Peak RSS at the end of the feed, MiB.
    pub peak_rss_mb: f64,
    /// Lines the tail reader quarantined.
    pub bad_lines: u64,
    /// The trajectory after `finish()`.
    pub trajectory: RateTrajectory,
    /// The file the watcher tailed, complete.
    pub path: PathBuf,
}

/// Smallest ESS of a fitted window, `None` for a carried one.
fn min_ess(w: &WindowEstimate) -> Option<f64> {
    let m = w.ess.iter().copied().fold(f64::INFINITY, f64::min);
    (!w.carried && m.is_finite()).then_some(m)
}

/// One pass of `qni watch`'s loop: a session opens and catches up on the
/// backlog, then the open-loop feed runs for `wall_s` seconds with a
/// checkpoint after every step that closed a window.
pub fn watch(
    live: &Live,
    feed: &Feed,
    dir: &Path,
    opts: &StreamOptions,
    wall_s: f64,
) -> Result<WatchRun, String> {
    let s = Setup::new(live, feed, dir, "watch", wall_s)?;
    let t0 = Instant::now();
    let mut session = WatchSession::new(&s.path, s.schedule, feed.num_queues, opts.clone())
        .map_err(|e| e.to_string())?;
    if session.step().map_err(|e| e.to_string())?.windows_closed > 0 {
        session
            .checkpoint()
            .save_atomic(&s.checkpoint)
            .map_err(|e| e.to_string())?;
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let (mut fit, mut busy) = (Vec::new(), Vec::new());
    let (mut busy_s, mut records, mut ess, mut uncharged) = (0.0, 0, 0.0, 0.0);
    let append = s.appender()?;
    let feed_run = run_open_loop(&mut Wall::start(), &s.due, append, |_| {
        let t0 = Instant::now();
        let report = session.step().map_err(|e| e.to_string())?;
        if report.windows_closed > 0 {
            session
                .checkpoint()
                .save_atomic(&s.checkpoint)
                .map_err(|e| e.to_string())?;
        }
        let step_s = t0.elapsed().as_secs_f64();
        busy_s += step_s;
        records += report.new_records;
        uncharged += step_s;
        if report.windows_closed > 0 {
            let share = uncharged / report.windows_closed as f64;
            busy.extend(std::iter::repeat_n(share, report.windows_closed));
            uncharged = 0.0;
        }
        let closed = &session.estimates()[report.total_windows - report.windows_closed..];
        fit.extend(closed.iter().map(|e| e.wall_secs));
        ess += closed.iter().filter_map(min_ess).sum::<f64>();
        Ok(closed.iter().map(|e| s.closer(e.end)).collect())
    })?;
    let peak = peak_rss_mb();
    let bad_lines = session.tail_stats().bad_lines;
    let trajectory = session.finish().map_err(|e| e.to_string())?;
    Ok(WatchRun {
        setup_s,
        latency: feed_run.latencies,
        fit,
        busy_s,
        busy,
        records,
        ess,
        late_max: feed_run.late_max,
        peak_rss_mb: peak,
        bad_lines,
        trajectory,
        path: s.path,
    })
}

/// Result of the traced live drive.
#[derive(Debug)]
pub struct TracedLive {
    /// Open-loop view.
    pub feed: OpenLoop,
    /// Seconds inside live steps (poll, slice, fit, checkpoint).
    pub busy_s: f64,
    /// Bytes consumed from the tailed file.
    pub tail_bytes: u64,
    /// Lines the tail reader quarantined.
    pub bad_lines: u64,
    /// Windows the slicer emitted while live.
    pub windows: usize,
    /// Mean tasks per emitted window.
    pub tasks_per_window: f64,
    /// Peak tasks buffered in the slicer.
    pub peak_buffered_tasks: usize,
    /// Slicer open-span peak.
    pub peak_open_spans: usize,
    /// Largest watermark lag, in strides.
    pub lag_strides_max: f64,
    /// Size of the last checkpoint, bytes.
    pub checkpoint_bytes: u64,
    /// The trajectory after the feed is flushed.
    pub trajectory: RateTrajectory,
    /// The file that was tailed, complete.
    pub path: PathBuf,
}

/// The live layers driven one call at a time, each call in a span:
/// `trace.tail.poll` → `trace.window.push` (per record) → `core.init`
/// (a cold `GibbsState` on the closed window: the engine's own init is not
/// callable from outside) → `core.stream.push_window`, then
/// `core.watch.checkpoint`.
pub fn traced(
    live: &Live,
    feed: &Feed,
    dir: &Path,
    opts: &StreamOptions,
    wall_s: f64,
    rec: &mut Recorder,
) -> Result<TracedLive, String> {
    let s = Setup::new(live, feed, dir, "traced", wall_s)?;
    let nq = feed.num_queues;
    let mut tail = TailReader::new(&s.path);
    let mut slicer = LiveSlicer::new(s.schedule, nq).map_err(|e| e.to_string())?;
    let mut engine = StreamEngine::new(s.schedule, nq, opts.clone()).map_err(|e| e.to_string())?;
    let fingerprint = options_fingerprint(&s.schedule, nq, opts);
    let (mut windows, mut tasks, mut peak_buffered, mut peak_open, mut lag_max) = (0, 0, 0, 0, 0.0);
    let mut records_seen = 0u64;
    let mut steps = 0u64;
    // One step of the watcher; returns the ends of the windows it closed.
    let mut step = |rec: &mut Recorder, live: bool| -> Result<Vec<f64>, String> {
        steps += 1;
        rec.set_run(steps);
        rec.span("watch.step", |rec| {
            let records = rec
                .span("trace.tail.poll", |_| tail.poll())
                .map_err(|e| e.to_string())?;
            records_seen += records.len() as u64;
            let mut ends = Vec::new();
            for r in records {
                let closed = rec
                    .span("trace.window.push", |_| slicer.push(r))
                    .map_err(|e| e.to_string())?;
                for window in closed {
                    let masked = window.masked();
                    let index = window.index;
                    if window.num_tasks() > 0 {
                        rec.span("core.init", |_| {
                            GibbsState::new(
                                masked,
                                heuristic_rates(masked),
                                InitStrategy::default(),
                            )
                        })
                        .map_err(|e| format!("cold init of window {index}: {e}"))?;
                    }
                    if live {
                        windows += 1;
                        tasks += window.num_tasks();
                    }
                    let est = rec
                        .span("core.stream.push_window", |_| engine.push_window(window))
                        .map_err(|e| format!("fitting window {index}: {e}"))?;
                    ends.push(est.end);
                }
            }
            peak_buffered = peak_buffered.max(slicer.buffered_tasks());
            peak_open = peak_open.max(slicer.open_spans());
            if let Some(mark) = slicer.watermark() {
                let lag = mark - slicer.last_closed_end().unwrap_or(0.0);
                lag_max = f64::max(lag_max, lag / s.schedule.stride());
            }
            if !ends.is_empty() {
                rec.span("core.watch.checkpoint", |_| {
                    Checkpoint {
                        version: CHECKPOINT_VERSION,
                        options_fingerprint: fingerprint,
                        tail: tail.snapshot(),
                        slicer: slicer.snapshot(),
                        engine: engine.state(),
                        records_seen,
                        peak_open_spans: peak_open as u64,
                        peak_buffered_tasks: peak_buffered as u64,
                    }
                    .save_atomic(&s.checkpoint)
                })
                .map_err(|e| e.to_string())?;
            }
            Ok(ends)
        })
    };
    step(rec, false)?;
    let spans_before = rec.spans().len();
    let append = s.appender()?;
    let feed_run = run_open_loop(&mut Wall::start(), &s.due, append, |_| {
        Ok(step(rec, true)?
            .into_iter()
            .map(|end| s.closer(end))
            .collect())
    })?;
    let busy_s = rec.spans()[spans_before..]
        .iter()
        .filter(|x| x.name == "watch.step")
        .map(|x| x.duration())
        .sum();
    let (tail_bytes, bad_lines) = (tail.offset(), tail.stats().bad_lines);
    let checkpoint_bytes = std::fs::metadata(&s.checkpoint).map_or(0, |m| m.len());
    for r in tail.poll().map_err(|e| e.to_string())? {
        for window in slicer.push(r).map_err(|e| e.to_string())? {
            engine.push_window(window).map_err(|e| e.to_string())?;
        }
    }
    for window in slicer.finish().map_err(|e| e.to_string())? {
        engine.push_window(window).map_err(|e| e.to_string())?;
    }
    Ok(TracedLive {
        feed: feed_run,
        busy_s,
        tail_bytes,
        bad_lines,
        windows,
        tasks_per_window: tasks as f64 / windows.max(1) as f64,
        peak_buffered_tasks: peak_buffered,
        peak_open_spans: peak_open,
        lag_strides_max: lag_max,
        checkpoint_bytes,
        trajectory: engine.into_trajectory(),
        path: s.path,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clock that only moves when told to.
    struct Fake(f64);

    impl Clock for Fake {
        fn now(&mut self) -> f64 {
            self.0
        }
        fn sleep_until(&mut self, t: f64) {
            self.0 = self.0.max(t);
        }
    }

    /// Ten tasks due one second apart; each step takes 0.1 s and closes
    /// one window per task appended. The fifth step stalls for 3 s.
    fn run(stall_at: Option<usize>) -> OpenLoop {
        let due: Vec<f64> = (0..10).map(f64::from).collect();
        let appended = std::cell::Cell::new(0usize);
        let mut consumed = 0usize;
        let mut steps = 0usize;
        run_open_loop(
            &mut Fake(0.0),
            &due,
            |_| {
                appended.set(appended.get() + 1);
                Ok(())
            },
            |clock| {
                steps += 1;
                clock.0 += 0.1;
                if Some(steps) == stall_at {
                    clock.0 += 3.0;
                }
                let closed: Vec<usize> = (consumed..appended.get()).collect();
                consumed = appended.get();
                Ok(closed)
            },
        )
        .unwrap()
    }

    #[test]
    fn steady_feed_has_flat_latency_and_no_lateness() {
        let r = run(None);
        assert_eq!(r.latencies.len(), 10);
        assert!(r.latencies.iter().all(|l| (l - 0.1).abs() < 1e-9));
        assert_eq!(r.late_max, 0.0);
    }

    #[test]
    fn stall_raises_latency_of_windows_due_after_it() {
        let r = run(Some(5));
        assert_eq!(r.latencies.len(), 10);
        // Windows 0-3 are unaffected; window 4 carries the stall itself.
        assert!(r.latencies[..4].iter().all(|l| (l - 0.1).abs() < 1e-9));
        assert!((r.latencies[4] - 3.1).abs() < 1e-9);
        // Tasks 5-7 fell due during the stall: appended late, in one
        // batch, and their windows wait for it.
        assert!((r.late_max - 2.1).abs() < 1e-9, "late_max {}", r.late_max);
        for (i, l) in r.latencies[5..8].iter().enumerate() {
            assert!(*l > 0.1 + 1e-9, "window {} latency {l}", i + 5);
        }
        assert!((r.latencies[5] - 2.2).abs() < 1e-9);
        // After the backlog clears, latency is back to the step time.
        assert!((r.latencies[9] - 0.1).abs() < 1e-9);
    }
}
