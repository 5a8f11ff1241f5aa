//! §5.2 scaling claim: sweep cost tracks unobserved arrivals, not
//! servers.
//!
//! "The sampler scales primarily in the number of unobserved arrival
//! events, not in the number of servers." Two sweeps verify this: one
//! varies the number of tasks at a fixed topology (cost should grow
//! linearly), the other varies the servers per tier at a fixed task count
//! (cost per sweep should stay roughly flat).

use qni_core::gibbs::sweep::sweep_with_opts;
use qni_core::init::InitStrategy;
use qni_core::{BatchMode, GibbsState, ShardMode};
use qni_model::topology::three_tier;
use qni_sim::{Simulator, Workload};
use qni_stats::rng::rng_from_seed;
use qni_trace::ObservationScheme;
use std::time::Instant;

/// One measurement point.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Human-readable label of the varied dimension.
    pub label: String,
    /// Number of free variables in the state.
    pub free_vars: usize,
    /// Total servers in the network.
    pub servers: usize,
    /// Mean nanoseconds per Gibbs move.
    pub ns_per_move: f64,
    /// Mean milliseconds per full sweep.
    pub ms_per_sweep: f64,
}

/// Measures sweep cost for a three-tier network configuration.
pub fn measure(
    tier_sizes: &[usize; 3],
    tasks: usize,
    fraction: f64,
    sweeps: usize,
    seed: u64,
) -> ScalingPoint {
    // Keep per-server load constant as tiers grow so queue dynamics stay
    // comparable: µ = 5 per server, λ scaled by the smallest tier.
    let lambda = 2.5 * tier_sizes.iter().copied().min().unwrap_or(1) as f64;
    let bp = three_tier(lambda, 5.0, tier_sizes, false).expect("structure");
    let mut rng = rng_from_seed(seed);
    let truth = Simulator::new(&bp.network)
        .run(
            &Workload::poisson_n(lambda, tasks).expect("workload"),
            &mut rng,
        )
        .expect("simulation");
    let masked = ObservationScheme::task_sampling(fraction)
        .expect("fraction")
        .apply(truth, &mut rng)
        .expect("mask");
    let rates = bp.network.rates().expect("mm1");
    let mut state = GibbsState::new(&masked, rates, InitStrategy::default()).expect("init");
    // Warm-up sweep outside the timed region.
    sweep_with_opts(&mut state, BatchMode::Scalar, ShardMode::Serial, &mut rng).expect("sweep");
    let free = state.num_free();
    let start = Instant::now();
    let mut moves = 0usize;
    for _ in 0..sweeps {
        let s = sweep_with_opts(&mut state, BatchMode::Scalar, ShardMode::Serial, &mut rng)
            .expect("sweep");
        moves += s.arrival_moves + s.final_moves;
    }
    let elapsed = start.elapsed();
    let servers: usize = tier_sizes.iter().sum();
    ScalingPoint {
        label: format!(
            "tiers={}-{}-{} tasks={tasks}",
            tier_sizes[0], tier_sizes[1], tier_sizes[2]
        ),
        free_vars: free,
        servers,
        ns_per_move: elapsed.as_nanos() as f64 / moves.max(1) as f64,
        ms_per_sweep: elapsed.as_secs_f64() * 1e3 / sweeps.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_sane_numbers() {
        let p = measure(&[1, 2, 4], 100, 0.1, 2, 1);
        assert!(p.free_vars > 0);
        assert_eq!(p.servers, 7);
        assert!(p.ns_per_move > 0.0);
        assert!(p.ms_per_sweep > 0.0);
    }
}
