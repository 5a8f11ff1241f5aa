//! Correctness of the sampler state's persistent wave-prepare pool.
//!
//! The contract (see `qni_core::gibbs::pool`): the pool is a pure
//! scheduling vehicle. A state that sweeps on its own pool must be
//! **byte-identical** to the serial batched sweep — same logs, same RNG
//! consumption, same deferred counts — on every sweep it reuses the
//! pool for, and a cloned state, which starts without a pool, must
//! build its own and continue on the same bytes. At `run_stem` level,
//! fits that dispatch on the state's pool at every pool size repeat the
//! serial fit. The wider shard-count contract is pinned by
//! `shard_gibbs.rs`.

use qni_core::gibbs::shard::MIN_EVENTS_PER_WORKER;
use qni_core::gibbs::sweep::{sweep_with_opts, SweepStats};
use qni_core::init::InitStrategy;
use qni_core::stem::{run_stem, StemOptions};
use qni_core::{BatchMode, GibbsState, ShardMode};
use qni_model::topology::{tandem, Blueprint};
use qni_sim::{Simulator, Workload};
use qni_stats::rng::{rng_from_seed, Rng};
use qni_trace::{MaskedLog, ObservationScheme};

fn blueprint(kind: usize) -> Blueprint {
    match kind {
        0 => tandem(2.0, &[5.0]).expect("mm1"),
        _ => tandem(2.0, &[5.0, 4.0, 6.0]).expect("tandem3"),
    }
}

fn masked(kind: usize, tasks: usize, frac: f64, seed: u64) -> MaskedLog {
    let bp = blueprint(kind);
    let lambda = bp.network.rates().expect("rates")[0];
    let mut rng = rng_from_seed(seed);
    let truth = Simulator::new(&bp.network)
        .run(
            &Workload::poisson_n(lambda, tasks).expect("workload"),
            &mut rng,
        )
        .expect("simulation");
    ObservationScheme::task_sampling(frac)
        .expect("fraction")
        .apply(truth, &mut rng)
        .expect("mask")
}

fn state_of(masked: &MaskedLog) -> GibbsState {
    let rates = qni_core::stem::heuristic_rates(masked);
    GibbsState::new(masked, rates, InitStrategy::default()).expect("state")
}

fn log_bits(st: &GibbsState) -> Vec<(u64, u64)> {
    st.log()
        .event_ids()
        .map(|e| {
            (
                st.log().arrival(e).to_bits(),
                st.log().departure(e).to_bits(),
            )
        })
        .collect()
}

fn sweep(st: &mut GibbsState, shard: ShardMode, rng: &mut Rng) -> SweepStats {
    sweep_with_opts(st, BatchMode::Grouped, shard, rng).expect("sweep")
}

/// Raw-sweep pin on waves large enough to actually dispatch: for shard
/// counts 2 and 4, a state sweeping on its own pool repeats the serial
/// bytes on every sweep while it reuses the pool, and a clone taken
/// midway builds its own pool and stays on the same bytes.
#[test]
fn large_waves_pooled_dispatch_is_byte_identical_and_reusable() {
    let tasks = 10 * MIN_EVENTS_PER_WORKER;
    let masked = masked(0, tasks, 0.05, 9);
    let free = masked.free_arrivals().len();
    assert!(
        free >= 8 * MIN_EVENTS_PER_WORKER,
        "workload too small to exercise pool dispatch: {free} free arrivals"
    );
    for shards in [2usize, 4] {
        let shard = ShardMode::Sharded(shards);
        let (mut serial, mut rs) = (state_of(&masked), rng_from_seed(11));
        let (mut pooled, mut rp) = (state_of(&masked), rng_from_seed(11));
        for _ in 0..2 {
            let base = sweep(&mut serial, ShardMode::Serial, &mut rs);
            assert_eq!(sweep(&mut pooled, shard, &mut rp), base, "{shards}");
        }
        let (mut clone, mut rc) = (pooled.clone(), rp.clone());
        for _ in 0..2 {
            let base = sweep(&mut serial, ShardMode::Serial, &mut rs);
            let stats = sweep(&mut pooled, shard, &mut rp);
            assert_eq!(stats, base, "reused pool diverged ({shards})");
            let stats = sweep(&mut clone, shard, &mut rc);
            assert_eq!(stats, base, "cloned state diverged ({shards})");
        }
        let base_bits = log_bits(&serial);
        assert_eq!(
            log_bits(&pooled),
            base_bits,
            "reused pool diverged ({shards})"
        );
        assert_eq!(
            log_bits(&clone),
            base_bits,
            "cloned state diverged ({shards})"
        );
    }
}

/// The run_stem-level pin at seed 7: fits that dispatch each wave on
/// the state's own pool at pool sizes {1, 2, 4} are byte-identical to
/// the serial batched fit — rate trace, point estimates, and waiting
/// times.
#[test]
fn run_stem_seed7_is_byte_identical_across_dispatch_and_pool_sizes() {
    let masked = masked(1, 60, 0.25, 7);
    let run = |shard: ShardMode| {
        let opts = StemOptions {
            shard,
            ..StemOptions::quick_test()
        };
        let mut rng = rng_from_seed(7);
        run_stem(&masked, None, &opts, &mut rng).expect("stem")
    };
    let base = run(ShardMode::Serial);
    for shards in [1usize, 2, 4] {
        let r = run(ShardMode::Sharded(shards));
        assert_eq!(base.rate_trace.len(), r.rate_trace.len());
        for (a, b) in base.rate_trace.iter().zip(&r.rate_trace) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "trace diverged at shards={shards}"
                );
            }
        }
        for (x, y) in base
            .rates
            .iter()
            .chain(&base.mean_waiting)
            .chain(&base.sampled_service)
            .zip(
                r.rates
                    .iter()
                    .chain(&r.mean_waiting)
                    .chain(&r.sampled_service),
            )
        {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "estimate diverged at shards={shards}"
            );
        }
    }
}
