//! In-memory span recording for the traced pass.
//!
//! A span is one call into a layer: its name, start and end (seconds on a
//! clock shared by every recorder of a run), the span that caused it, and
//! a run id shared by the spans of one request (a chain, or one live
//! step). Spans stay in memory until the pass ends and are then written
//! out as JSON lines.

use std::io::Write;
use std::time::Instant;

/// One recorded layer call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `core.gibbs.sweep`.
    pub name: &'static str,
    /// Start, seconds since the shared origin.
    pub start: f64,
    /// End, seconds since the shared origin.
    pub end: f64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub run: u64,
}

impl Span {
    /// Wall duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    run: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder whose times count from `origin`, so recorders of
    /// different threads share one clock.
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Sets the run id of the spans opened from now on.
    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Appends another recorder's spans (e.g. a worker thread's),
    /// keeping their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (seconds) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Writes the spans as JSON lines, with each span's self time.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, own)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"run\":{},\"self\":{own}}}",
                s.name, s.start, s.end, s.run
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // fit [0,10) holds sweep [1,4) and sweep [5,9); the first sweep
        // holds a move [2,3) that must not be subtracted from `fit`.
        let spans = vec![
            span("fit", 0.0, 10.0, None),
            span("sweep", 1.0, 4.0, Some(0)),
            span("move", 2.0, 3.0, Some(1)),
            span("sweep", 5.0, 9.0, Some(0)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![3.0, 2.0, 1.0, 4.0]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children from two threads overlap on [3,4); one overhangs the
        // parent's end and is clipped to it.
        let spans = vec![
            span("fit", 0.0, 10.0, None),
            span("chain", 1.0, 4.0, Some(0)),
            span("chain", 3.0, 6.0, Some(0)),
            span("late", 9.0, 12.0, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 10.0 - 5.0 - 1.0);
    }

    #[test]
    fn recorder_nests_and_absorbs() {
        let origin = Instant::now();
        let mut rec = Recorder::new(origin);
        rec.set_run(7);
        rec.span("outer", |r| r.span("inner", |_| ()));
        let mut worker = Recorder::new(origin);
        worker.span("a", |r| r.span("b", |_| ()));
        rec.absorb(worker);
        let s = rec.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].run, 7);
        assert_eq!(s[3].parent, Some(2));
        assert!(s.iter().all(|x| x.end >= x.start));
        assert_eq!(rec.durations("inner").len(), 1);
        let own = self_times(s);
        assert!(own[0] <= s[0].duration() - s[1].duration() + 1e-12);
    }
}
