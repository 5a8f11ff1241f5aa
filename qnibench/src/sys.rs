//! Process accounting read from `/proc`: CPU time and peak resident set.

use std::time::Instant;

/// Scheduler ticks per second of `/proc/<pid>/stat` (Linux `USER_HZ`).
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds (user + system) of the whole process, exited threads
/// included. Resolution is one scheduler tick (10 ms).
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // The command name may contain spaces; the fields after it do not.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return f64::NAN;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let tick = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) / TICKS_PER_S,
        _ => f64::NAN,
    }
}

/// Peak resident set size of the process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Monotonic seconds since the first call: the clock injected into the
/// stream engine, the way the CLI injects its own.
pub fn monotonic_s() -> f64 {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs_f64()
}
