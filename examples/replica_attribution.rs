//! Unknown-replica attribution with Metropolis–Hastings path resampling.
//!
//! The paper assumes the FSM path of every task is known, and notes that
//! unknown paths "can be resampled by an outer Metropolis-Hastings step"
//! (§3). This example exercises that extension: a two-replica tier where
//! one replica is intrinsically slow; request *times* were logged, but
//! the load balancer's *routing log* was lost — which replica served each
//! request is unknown. The MH chain over assignments (with the M-step
//! re-estimating rates) both recovers the per-replica service rates and
//! attributes individual requests to the replica that actually served
//! them.
//!
//! Run with: `cargo run --release --example replica_attribution`

use qni::inference::gibbs::sweep::sweep_with_opts;
use qni::inference::init::InitStrategy;
use qni::prelude::*;

fn main() {
    // Two replicas: replica 2 is 4x slower (rates 8 vs 2).
    let fsm = Fsm::tiered(&[vec![QueueId(1), QueueId(2)]]).expect("fsm");
    let network =
        QueueingNetwork::mm1(1.5, &[("replica1", 8.0), ("replica2", 2.0)], fsm).expect("network");
    let mut rng = rng_from_seed(99);
    let truth = Simulator::new(&network)
        .run(&Workload::poisson_n(1.5, 300).expect("workload"), &mut rng)
        .expect("simulation");
    println!(
        "simulated {} requests; replica2 is 4x slower (mean 0.5s vs 0.125s)",
        truth.num_tasks()
    );

    // All *times* observed; every replica assignment treated as unknown.
    let masked = ObservationScheme::Full
        .apply(truth, &mut rng)
        .expect("mask");
    let unknown: Vec<EventId> = masked
        .ground_truth()
        .event_ids()
        .filter(|&e| !masked.ground_truth().is_initial_event(e))
        .collect();
    println!(
        "{} tier events with lost routing information",
        unknown.len()
    );

    // Start from deliberately wrong symmetric rates: the sampler must
    // discover the asymmetry on its own.
    let rates0 = vec![1.5, 4.0, 4.0];
    let mut state = GibbsState::new(&masked, rates0, InitStrategy::default()).expect("state");
    let fsm = network.fsm().clone();
    let mut accepted = 0usize;
    let sweeps = 600;
    let burn = sweeps / 2;
    let mut on_true = vec![0usize; masked.ground_truth().num_events()];
    let mut kept = 0usize;
    let gt = masked.ground_truth();
    for it in 0..sweeps {
        // Times are fully observed, so the time sweep is a no-op; kept to
        // show the general joint-update pattern.
        sweep_with_opts(&mut state, BatchMode::Scalar, ShardMode::Serial, &mut rng).expect("sweep");
        accepted += state
            .reassign_unknown(&fsm, &unknown, &mut rng)
            .expect("reassign");
        let mut rates = state.rates().to_vec();
        qni::inference::mstep::update_rates(&mut rates, state.log()).expect("mstep");
        state.set_rates(&rates).expect("rates");
        if it >= burn {
            kept += 1;
            for &e in &unknown {
                if state.log().queue_of(e) == gt.queue_of(e) {
                    on_true[e.index()] += 1;
                }
            }
        }
    }
    println!("ran {sweeps} MH sweeps; {accepted} reassignments accepted");
    // Sort the recovered rates: replica labels are exchangeable, so the
    // chain may settle on either labelling.
    let mut recovered = [state.rates()[1], state.rates()[2]];
    recovered.sort_by(f64::total_cmp);
    println!(
        "recovered rates (sorted): µ̂ = {:.2} and {:.2} (true: 2.0 and 8.0)",
        recovered[0], recovered[1]
    );

    // Attribution quality: posterior probability on the true replica
    // (up to the label symmetry).
    let direct: f64 = unknown
        .iter()
        .map(|e| on_true[e.index()] as f64 / kept as f64)
        .sum::<f64>()
        / unknown.len() as f64;
    let attribution = direct.max(1.0 - direct);
    println!(
        "mean posterior probability on the true replica: {:.1}% (50% = chance)",
        attribution * 100.0
    );
}
