//! Criterion benches for the Gibbs sweep: scaling in unobserved events
//! (should be linear) and in server count (should be flat per move).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qni_core::gibbs::sweep::sweep_with_opts;
use qni_core::init::InitStrategy;
use qni_core::{BatchMode, GibbsState, ShardMode};
use qni_model::topology::three_tier;
use qni_sim::{Simulator, Workload};
use qni_stats::rng::rng_from_seed;
use qni_trace::ObservationScheme;

fn make_state(tier_sizes: &[usize; 3], tasks: usize, seed: u64) -> GibbsState {
    let lambda = 2.5 * tier_sizes.iter().copied().min().unwrap_or(1) as f64;
    let bp = three_tier(lambda, 5.0, tier_sizes, false).expect("structure");
    let mut rng = rng_from_seed(seed);
    let truth = Simulator::new(&bp.network)
        .run(
            &Workload::poisson_n(lambda, tasks).expect("workload"),
            &mut rng,
        )
        .expect("simulation");
    let masked = ObservationScheme::task_sampling(0.05)
        .expect("fraction")
        .apply(truth, &mut rng)
        .expect("mask");
    let rates = bp.network.rates().expect("mm1");
    GibbsState::new(&masked, rates, InitStrategy::default()).expect("init")
}

fn bench_scaling_in_events(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_vs_unobserved_events");
    group.sample_size(10);
    for &tasks in &[250usize, 500, 1000] {
        let state = make_state(&[1, 2, 4], tasks, 1);
        group.bench_with_input(BenchmarkId::from_parameter(tasks), &tasks, |b, _| {
            let mut st = state.clone();
            let mut rng = rng_from_seed(2);
            b.iter(|| {
                sweep_with_opts(&mut st, BatchMode::Scalar, ShardMode::Serial, &mut rng)
                    .expect("sweep")
            });
        });
    }
    group.finish();
}

fn bench_scaling_in_servers(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_vs_servers");
    group.sample_size(10);
    for sizes in [[1usize, 2, 4], [4, 8, 16], [16, 32, 64]] {
        let label = format!("{}-{}-{}", sizes[0], sizes[1], sizes[2]);
        let state = make_state(&sizes, 500, 3);
        group.bench_with_input(BenchmarkId::from_parameter(label), &sizes, |b, _| {
            let mut st = state.clone();
            let mut rng = rng_from_seed(4);
            b.iter(|| {
                sweep_with_opts(&mut st, BatchMode::Scalar, ShardMode::Serial, &mut rng)
                    .expect("sweep")
            });
        });
    }
    group.finish();
}

fn bench_single_move(c: &mut Criterion) {
    let state = make_state(&[1, 2, 4], 500, 5);
    let free = state.free_arrivals().to_vec();
    c.bench_function("gibbs_arrival_move", |b| {
        let mut st = state.clone();
        let mut rng = rng_from_seed(6);
        let mut i = 0usize;
        b.iter(|| {
            let e = free[i % free.len()];
            i += 1;
            st.move_arrival(e, &mut rng).expect("move")
        });
    });
}

criterion_group!(
    benches,
    bench_scaling_in_events,
    bench_scaling_in_servers,
    bench_single_move
);
criterion_main!(benches);
