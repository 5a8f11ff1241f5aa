//! The benchmark's workloads: what trace each generates from its seed,
//! how the offline fit and the live watcher are configured, and which of
//! the two the untraced pass gates on.

use qni_core::chains::ParallelStemOptions;
use qni_core::stem::StemOptions;
use qni_core::stream::StreamOptions;

/// Queueing network a trace is simulated on.
#[derive(Debug, Clone, Copy)]
pub enum Network {
    /// `three_tier(lambda, mu, tiers)`, the paper's §5.1 network.
    ThreeTier {
        /// Arrival rate.
        lambda: f64,
        /// Per-server service rate.
        mu: f64,
        /// Servers per tier.
        tiers: &'static [usize],
    },
    /// `tandem(lambda, rates)`.
    Tandem {
        /// Nominal arrival rate of the topology.
        lambda: f64,
        /// Service rate of each stage.
        rates: &'static [f64],
    },
}

/// Task arrivals.
#[derive(Debug, Clone, Copy)]
pub enum Arrivals {
    /// `count` Poisson arrivals at `rate`.
    Count {
        /// Arrival rate.
        rate: f64,
        /// Number of tasks.
        count: usize,
    },
    /// Piecewise-constant Poisson rate.
    Piecewise {
        /// Rate of each piece.
        rates: &'static [f64],
        /// Boundaries between pieces.
        switches: &'static [f64],
        /// End of the last piece.
        horizon: f64,
    },
}

impl Arrivals {
    /// The simulated arrival rate at trace time `t`.
    pub fn rate_at(&self, t: f64) -> f64 {
        match *self {
            Arrivals::Count { rate, .. } => rate,
            Arrivals::Piecewise {
                rates, switches, ..
            } => rates[switches.iter().filter(|&&s| s <= t).count()],
        }
    }

    /// The time-averaged simulated arrival rate.
    pub fn mean_rate(&self) -> f64 {
        match *self {
            Arrivals::Count { rate, .. } => rate,
            Arrivals::Piecewise {
                rates,
                switches,
                horizon,
            } => {
                let mut edges = vec![0.0];
                edges.extend_from_slice(switches);
                edges.push(horizon);
                let area: f64 = rates
                    .iter()
                    .zip(edges.windows(2))
                    .map(|(r, e)| r * (e[1] - e[0]))
                    .sum();
                area / horizon
            }
        }
    }
}

/// Which times of the simulated trace are observed.
#[derive(Debug, Clone, Copy)]
pub enum Observe {
    /// `task_sampling(fraction)`: every time of a sampled task.
    Tasks(f64),
    /// `event_sampling(fraction)`: each event independently.
    Events(f64),
}

/// Offline StEM configuration (`qni infer`).
#[derive(Debug, Clone, Copy)]
pub struct Fit {
    /// Independent chains (one thread each).
    pub chains: usize,
    /// StEM iterations per chain.
    pub iterations: usize,
    /// Burn-in iterations.
    pub burn_in: usize,
    /// Fixed-rate sweeps of the waiting-time phase.
    pub waiting_sweeps: usize,
}

/// Live watcher configuration (`qni watch`) and its open-loop feed.
#[derive(Debug, Clone, Copy)]
pub struct Live {
    /// Window width (trace time).
    pub width: f64,
    /// Window stride (trace time).
    pub stride: f64,
    /// StEM iterations per window.
    pub iterations: usize,
    /// Burn-in of the cold first window.
    pub burn_in: usize,
    /// Burn-in of warm-started windows.
    pub warm_burn_in: usize,
    /// Share of the trace horizon already in the file when the watcher
    /// starts.
    pub backlog_frac: f64,
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// Network.
    pub network: Network,
    /// Arrivals.
    pub arrivals: Arrivals,
    /// Observation scheme.
    pub observe: Observe,
    /// Offline fit: the gated path of an offline workload, and the fit
    /// every traced pass rebuilds from its layer calls.
    pub fit: Fit,
    /// Live watcher: when set, the gated path is a `WatchSession`
    /// tailing an open-loop feed of the trace, not the offline fit.
    pub live: Option<Live>,
}

const TIERS_124: Network = Network::ThreeTier {
    lambda: 10.0,
    mu: 5.0,
    tiers: &[1, 2, 4],
};

const TASKS_20K: Arrivals = Arrivals::Count {
    rate: 10.0,
    count: 20_000,
};

/// Every workload, in `BENCHMARK.json` order.
pub const ALL: &[Workload] = &[
    Workload {
        name: "infer-task10",
        network: TIERS_124,
        arrivals: TASKS_20K,
        observe: Observe::Tasks(0.1),
        // The `qni infer` defaults: one chain, grouped serial sweeps.
        fit: Fit {
            chains: 1,
            iterations: 20,
            burn_in: 10,
            waiting_sweeps: 4,
        },
        live: None,
    },
    Workload {
        name: "infer-event50",
        network: TIERS_124,
        arrivals: TASKS_20K,
        observe: Observe::Events(0.5),
        fit: Fit {
            chains: 2,
            iterations: 40,
            burn_in: 20,
            waiting_sweeps: 4,
        },
        live: None,
    },
    Workload {
        name: "watch-step",
        network: Network::Tandem {
            lambda: 4.0,
            rates: &[10.0, 12.0],
        },
        arrivals: Arrivals::Piecewise {
            rates: &[4.0, 8.0, 4.0],
            switches: &[500.0, 1000.0],
            horizon: 1500.0,
        },
        observe: Observe::Tasks(0.2),
        // The traced pass rebuilds one whole-trace fit with the
        // per-window budget to time the Gibbs layers on this network.
        fit: Fit {
            chains: 1,
            iterations: 60,
            burn_in: 30,
            waiting_sweeps: 1,
        },
        // `qni watch --window 10 --stride 5 --iterations 60 --burn-in 30
        // --warm-burn-in 15`, with a tenth of the trace already written.
        live: Some(Live {
            width: 10.0,
            stride: 5.0,
            iterations: 60,
            burn_in: 30,
            warm_burn_in: 15,
            backlog_frac: 0.1,
        }),
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

impl Fit {
    /// `run_stem_parallel` options (default grouped, serial sweeps).
    pub fn options(&self, master_seed: u64) -> ParallelStemOptions {
        ParallelStemOptions {
            stem: StemOptions {
                iterations: self.iterations,
                burn_in: self.burn_in,
                waiting_sweeps: self.waiting_sweeps,
                ..StemOptions::default()
            },
            chains: self.chains,
            master_seed,
            thread_budget: Some(self.chains),
        }
    }
}

impl Live {
    /// Stream options as `qni watch` builds them: one chain, one waiting
    /// sweep, warm starts and occupancy carry on, the wall clock injected.
    pub fn options(&self, master_seed: u64) -> StreamOptions {
        StreamOptions {
            stem: StemOptions {
                iterations: self.iterations,
                burn_in: self.burn_in,
                waiting_sweeps: 1,
                ..StemOptions::default()
            },
            chains: 1,
            master_seed,
            thread_budget: Some(1),
            warm_start: true,
            warm_burn_in: Some(self.warm_burn_in),
            occupancy_carry: true,
            clock: Some(crate::sys::monotonic_s),
        }
    }
}
