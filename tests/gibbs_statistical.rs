//! Statistical correctness of the Gibbs sampler against closed-form
//! posteriors.
//!
//! With one task, one queue, and nothing observed, the posterior over the
//! two free variables — the entry time `a` and the final departure `d` —
//! factorizes analytically:
//!
//! - `a ~ Exp(λ)` (the entry is just the first interarrival);
//! - `d = a + s` with `s ~ Exp(µ)` independent, so `d` is hypoexponential
//!   `(λ, µ)`.
//!
//! The alternating Gibbs chain must reproduce both marginals exactly —
//! this tests the *joint* sampler (move composition, support bounds,
//! segment weights), not just individual conditionals.

use qni::inference::gibbs::sweep::sweep_with_opts;
use qni::inference::init::InitStrategy;
use qni::inference::GibbsState;
use qni::prelude::*;

/// Builds the one-task, one-queue, fully unobserved problem.
fn tiny_problem(lambda: f64, mu: f64, seed: u64) -> GibbsState {
    let bp = qni::model::topology::single_queue(lambda, mu).expect("topology");
    let mut rng = rng_from_seed(seed);
    let truth = Simulator::new(&bp.network)
        .run(&Workload::poisson_n(lambda, 1).expect("workload"), &mut rng)
        .expect("simulation");
    let masked = ObservationScheme::None
        .apply(truth, &mut rng)
        .expect("mask");
    GibbsState::new(&masked, vec![lambda, mu], InitStrategy::default()).expect("state")
}

#[test]
fn joint_chain_matches_closed_form_marginals() {
    let (lambda, mu) = (2.0, 5.0);
    let mut state = tiny_problem(lambda, mu, 1);
    let mut rng = rng_from_seed(2);
    let n = 40_000;
    let burn = 500;
    let mut entries = Vec::with_capacity(n);
    let mut exits = Vec::with_capacity(n);
    for i in 0..(n + burn) {
        sweep_with_opts(&mut state, BatchMode::Scalar, ShardMode::Serial, &mut rng).expect("sweep");
        if i >= burn {
            let log = state.log();
            let task0 = log.task_events(TaskId(0));
            entries.push(log.departure(task0[0])); // Entry = q0 departure.
            exits.push(log.departure(task0[1]));
        }
    }
    // Marginal of the entry: Exp(λ).
    let exp_cdf = |x: f64| {
        if x <= 0.0 {
            0.0
        } else {
            1.0 - (-lambda * x).exp()
        }
    };
    let d_entry = qni::stats::ks::ks_statistic(&entries, exp_cdf).expect("ks");
    // Marginal of the exit: hypoexponential(λ, µ).
    let hypo_cdf = |x: f64| {
        if x <= 0.0 {
            0.0
        } else {
            1.0 - (mu * (-lambda * x).exp() - lambda * (-mu * x).exp()) / (mu - lambda)
        }
    };
    let d_exit = qni::stats::ks::ks_statistic(&exits, hypo_cdf).expect("ks");
    // The chain is autocorrelated, so the i.i.d. critical value does not
    // apply; 0.02 still rules out any systematic distributional error
    // (wrong rate would give d ≈ 0.1+).
    assert!(d_entry < 0.02, "entry KS = {d_entry}");
    assert!(d_exit < 0.02, "exit KS = {d_exit}");
}

#[test]
fn chain_mean_service_matches_prior_mean() {
    // With no data, the imputed service times must average to 1/µ.
    let (lambda, mu) = (1.0, 4.0);
    let mut state = tiny_problem(lambda, mu, 3);
    let mut rng = rng_from_seed(4);
    let mut acc = 0.0;
    let n = 20_000;
    for _ in 0..n {
        sweep_with_opts(&mut state, BatchMode::Scalar, ShardMode::Serial, &mut rng).expect("sweep");
        let log = state.log();
        let e = log.task_events(TaskId(0))[1];
        acc += log.service_time(e);
    }
    let mean = acc / n as f64;
    assert!((mean - 0.25).abs() < 0.01, "mean service = {mean}");
}

#[test]
fn two_task_queue_interaction_respects_fifo_posterior() {
    // Two tasks with observed entries but unobserved queue-1 times: the
    // chain must keep task order and produce valid logs forever.
    let bp = qni::model::topology::single_queue(2.0, 3.0).expect("topology");
    let mut rng = rng_from_seed(5);
    let truth = Simulator::new(&bp.network)
        .run(&Workload::poisson_n(2.0, 10).expect("workload"), &mut rng)
        .expect("simulation");
    let masked = ObservationScheme::None
        .apply(truth, &mut rng)
        .expect("mask");
    let mut state =
        GibbsState::new(&masked, vec![2.0, 3.0], InitStrategy::default()).expect("state");
    for _ in 0..2_000 {
        sweep_with_opts(&mut state, BatchMode::Scalar, ShardMode::Serial, &mut rng).expect("sweep");
    }
    qni::model::constraints::validate(state.log()).expect("valid after long run");
    // Entries remain sorted (q0 FIFO).
    let log = state.log();
    let mut last = 0.0;
    for k in 0..log.num_tasks() {
        let entry = log.task_entry(TaskId::from_index(k));
        assert!(entry >= last - 1e-9, "entries out of order");
        last = entry;
    }
}
