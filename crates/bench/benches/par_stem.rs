//! Criterion bench for the multi-chain parallel StEM engine: fixed total
//! kept-sample budget swept across chain counts, so the timings expose the
//! parallel speedup (and its Amdahl burn-in ceiling) directly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qni_core::chains::{run_stem_parallel, ParallelStemOptions};
use qni_core::stem::StemOptions;
use qni_model::topology::three_tier;
use qni_sim::{Simulator, Workload};
use qni_stats::rng::rng_from_seed;
use qni_trace::{MaskedLog, ObservationScheme};

const TASKS: usize = 200;
const FRACTION: f64 = 0.1;
/// Total post-burn-in samples, split evenly across chains.
const SAMPLES_TOTAL: usize = 64;
/// Burn-in iterations *per chain* (the serial fraction).
const BURN_IN: usize = 8;
const SEED: u64 = 7;

/// Simulates and masks a 1-2-4 three-tier trace.
fn build() -> MaskedLog {
    let bp = three_tier(10.0, 5.0, &[1, 2, 4], false).expect("structure");
    let mut rng = rng_from_seed(SEED);
    let truth = Simulator::new(&bp.network)
        .run(
            &Workload::poisson_n(10.0, TASKS).expect("workload"),
            &mut rng,
        )
        .expect("simulation");
    ObservationScheme::task_sampling(FRACTION)
        .expect("fraction")
        .apply(truth, &mut rng)
        .expect("mask")
}

/// The engine options at `chains` chains: each chain gets `BURN_IN +
/// ceil(SAMPLES_TOTAL / chains)` iterations, so the *total* kept-sample
/// budget is fixed while the post-burn-in work parallelizes.
fn options_for(chains: usize) -> ParallelStemOptions {
    ParallelStemOptions {
        stem: StemOptions {
            iterations: BURN_IN + SAMPLES_TOTAL.div_ceil(chains),
            burn_in: BURN_IN,
            waiting_sweeps: 1,
            ..StemOptions::default()
        },
        chains,
        master_seed: SEED,
        thread_budget: None,
    }
}

fn bench_par_sweep(c: &mut Criterion) {
    let masked = build();
    let mut group = c.benchmark_group("par_stem_vs_chains");
    group.sample_size(10);
    for &chains in &[1usize, 2, 4] {
        let opts = options_for(chains);
        group.bench_with_input(BenchmarkId::from_parameter(chains), &opts, |b, opts| {
            b.iter(|| run_stem_parallel(&masked, None, opts).expect("parallel stem"));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_par_sweep);
criterion_main!(benches);
