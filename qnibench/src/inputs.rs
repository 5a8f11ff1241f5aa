//! Seeded trace generation and the per-task feed of a generated file.
//!
//! Generation runs in a child process (see `main`), so neither its time
//! nor its memory reaches any metric; the program under test only ever
//! sees the JSONL file.

use crate::workloads::{Arrivals, Network, Observe, Workload};
use qni_sim::Simulator;
use qni_stats::rng::rng_from_seed;
use qni_trace::record::{read_jsonl, write_jsonl};
use qni_trace::ObservationScheme;
use std::io::Write;
use std::path::Path;

/// Simulates `w`'s network from `seed` and writes the masked trace as
/// JSONL, the way `qni simulate` does.
pub fn generate(w: &Workload, seed: u64, path: &Path) -> Result<(), String> {
    let bp = match w.network {
        Network::ThreeTier { lambda, mu, tiers } => {
            qni_model::topology::three_tier(lambda, mu, tiers, false)
        }
        Network::Tandem { lambda, rates } => qni_model::topology::tandem(lambda, rates),
    }
    .map_err(|e| e.to_string())?;
    let arrivals = match w.arrivals {
        Arrivals::Count { rate, count } => qni_sim::Workload::poisson_n(rate, count),
        Arrivals::Piecewise {
            rates,
            switches,
            horizon,
        } => qni_sim::Workload::piecewise_constant(rates.to_vec(), switches.to_vec(), horizon),
    }
    .map_err(|e| e.to_string())?;
    let scheme = match w.observe {
        Observe::Tasks(f) => ObservationScheme::task_sampling(f),
        Observe::Events(f) => ObservationScheme::event_sampling(f),
    }
    .map_err(|e| e.to_string())?;
    let mut rng = rng_from_seed(seed);
    let truth = Simulator::new(&bp.network)
        .run(&arrivals, &mut rng)
        .map_err(|e| e.to_string())?;
    let masked = scheme.apply(truth, &mut rng).map_err(|e| e.to_string())?;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(|e| e.to_string())?);
    write_jsonl(&masked, &mut out).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())
}

/// One task of a trace file: its recorded entry time and its lines.
#[derive(Debug, Clone)]
pub struct Task {
    /// Recorded system entry (the q0 record's departure).
    pub entry: f64,
    /// The task's JSONL lines, newline-terminated.
    pub bytes: Vec<u8>,
}

/// A trace file cut into tasks, in file (= entry) order.
#[derive(Debug, Clone)]
pub struct Feed {
    /// Tasks in entry order.
    pub tasks: Vec<Task>,
    /// Total queue count including q0.
    pub num_queues: usize,
}

impl Feed {
    /// Reads `path`.
    pub fn load(path: &Path) -> Result<Feed, String> {
        let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
        let records = read_jsonl(&bytes[..]).map_err(|e| e.to_string())?;
        let lines = bytes.split_inclusive(|&b| b == b'\n');
        let lines = lines.filter(|l| !l.trim_ascii().is_empty());
        let mut tasks: Vec<Task> = Vec::new();
        let mut num_queues = 0;
        for (rec, line) in records.iter().zip(lines) {
            if rec.event.is_initial() {
                tasks.push(Task {
                    entry: rec.event.departure,
                    bytes: Vec::new(),
                });
            }
            let task = tasks
                .last_mut()
                .ok_or("trace does not start with a q0 record")?;
            task.bytes.extend_from_slice(line);
            num_queues = num_queues.max(rec.event.queue.index() + 1);
        }
        if tasks.len() < 2 || num_queues < 2 {
            return Err("trace holds too few tasks to feed".into());
        }
        Ok(Feed { tasks, num_queues })
    }

    /// Entry of the last task.
    pub fn last_entry(&self) -> f64 {
        self.tasks.last().map_or(0.0, |t| t.entry)
    }
}
