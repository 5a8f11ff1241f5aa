//! Property-based invariants across the whole pipeline.
//!
//! Random small networks, workloads, and observation fractions; every
//! combination must produce valid simulations, feasible initializations,
//! and constraint-preserving Gibbs sweeps.

use proptest::prelude::*;
use qni::inference::gibbs::sweep::sweep_with_opts;
use qni::inference::init::{initialize_with, InitStrategy};
use qni::inference::GibbsState;
use qni::prelude::*;

/// Strategy: tandem networks with 1–4 stages and mixed utilizations.
fn tandem_params() -> impl Strategy<Value = (f64, Vec<f64>)> {
    (0.5f64..4.0, prop::collection::vec(1.0f64..12.0, 1..=4))
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 200,
        .. ProptestConfig::default()
    })]

    #[test]
    fn simulator_output_always_validates(
        (lambda, rates) in tandem_params(),
        tasks in 5usize..60,
        seed in 0u64..1000,
    ) {
        let bp = qni::model::topology::tandem(lambda, &rates).expect("topology");
        let mut rng = rng_from_seed(seed);
        let log = Simulator::new(&bp.network)
            .run(&Workload::poisson_n(lambda, tasks).expect("workload"), &mut rng)
            .expect("simulation");
        prop_assert!(qni::model::constraints::validate(&log).is_ok());
        prop_assert_eq!(log.num_tasks(), tasks);
        // Every task visits every stage exactly once, in order.
        for k in 0..tasks {
            let evs = log.task_events(TaskId::from_index(k));
            prop_assert_eq!(evs.len(), rates.len() + 1);
        }
    }

    #[test]
    fn initialization_always_feasible(
        (lambda, rates) in tandem_params(),
        tasks in 5usize..40,
        fraction in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let bp = qni::model::topology::tandem(lambda, &rates).expect("topology");
        let mut rng = rng_from_seed(seed);
        let truth = Simulator::new(&bp.network)
            .run(&Workload::poisson_n(lambda, tasks).expect("workload"), &mut rng)
            .expect("simulation");
        let masked = ObservationScheme::task_sampling(fraction)
            .expect("fraction")
            .apply(truth, &mut rng)
            .expect("mask");
        let all_rates = bp.network.rates().expect("mm1");
        for strategy in [
            InitStrategy::LongestPath { use_targets: true },
            InitStrategy::LongestPath { use_targets: false },
        ] {
            let log = initialize_with(&masked, &all_rates, strategy).expect("init");
            prop_assert!(qni::model::constraints::validate(&log).is_ok());
            // Observed times pinned.
            for e in log.event_ids() {
                if masked.mask().arrival_observed(e) {
                    prop_assert!(
                        (log.arrival(e) - masked.ground_truth().arrival(e)).abs() < 1e-9
                    );
                }
            }
        }
    }

    #[test]
    fn sweeps_never_break_constraints(
        (lambda, rates) in tandem_params(),
        tasks in 5usize..30,
        fraction in 0.0f64..0.9,
        seed in 0u64..1000,
    ) {
        let bp = qni::model::topology::tandem(lambda, &rates).expect("topology");
        let mut rng = rng_from_seed(seed);
        let truth = Simulator::new(&bp.network)
            .run(&Workload::poisson_n(lambda, tasks).expect("workload"), &mut rng)
            .expect("simulation");
        let masked = ObservationScheme::task_sampling(fraction)
            .expect("fraction")
            .apply(truth, &mut rng)
            .expect("mask");
        let all_rates = bp.network.rates().expect("mm1");
        let mut state = GibbsState::new(&masked, all_rates, InitStrategy::default())
            .expect("state");
        for _ in 0..5 {
            sweep_with_opts(&mut state, BatchMode::Scalar, ShardMode::Serial, &mut rng).expect("sweep");
            prop_assert!(qni::model::constraints::validate(state.log()).is_ok());
        }
    }

    #[test]
    fn mle_rates_are_positive_and_finite(
        (lambda, rates) in tandem_params(),
        tasks in 10usize..60,
        seed in 0u64..1000,
    ) {
        let bp = qni::model::topology::tandem(lambda, &rates).expect("topology");
        let mut rng = rng_from_seed(seed);
        let log = Simulator::new(&bp.network)
            .run(&Workload::poisson_n(lambda, tasks).expect("workload"), &mut rng)
            .expect("simulation");
        for r in qni::inference::mstep::mle_rates(&log).into_iter().flatten() {
            prop_assert!(r.is_finite() && r > 0.0);
        }
    }

    #[test]
    fn counter_traces_always_consistent(
        (lambda, rates) in tandem_params(),
        tasks in 5usize..40,
        fraction in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let bp = qni::model::topology::tandem(lambda, &rates).expect("topology");
        let mut rng = rng_from_seed(seed);
        let truth = Simulator::new(&bp.network)
            .run(&Workload::poisson_n(lambda, tasks).expect("workload"), &mut rng)
            .expect("simulation");
        let masked = ObservationScheme::event_sampling(fraction)
            .expect("fraction")
            .apply(truth, &mut rng)
            .expect("mask");
        let log = masked.ground_truth();
        for trace in qni::trace::counter::counter_traces(log, masked.mask()) {
            let order = log.events_at_queue(trace.queue);
            prop_assert!(qni::trace::counter::readings_match_order(&trace, order));
            let gaps = trace.gap_sizes();
            prop_assert_eq!(
                gaps.iter().sum::<usize>(),
                trace.total - trace.readings.len()
            );
        }
    }
}
