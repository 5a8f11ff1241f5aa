//! Property-based validation of the Gibbs conditionals on random
//! simulated configurations.
//!
//! For arbitrary small networks and random events, the analytic
//! conditional (piecewise construction) must agree with brute-force
//! numerical evaluation of the joint — this fuzzes every breakpoint
//! ordering and aliasing case the closed form has to handle. The
//! sampler's allocation-free kernel must, in turn, draw bit-identically to
//! the owned conditionals.

use proptest::prelude::*;
use qni_core::gibbs::arrival::arrival_conditional;
use qni_core::gibbs::final_departure::final_conditional;
use qni_core::gibbs::numeric::service_log_joint;
use qni_core::gibbs::numeric::{numeric_conditional_grid, numeric_final_grid};
use qni_core::gibbs::shift::{apply_shift, shift_conditional};
use qni_core::GibbsState;
use qni_model::ids::TaskId;
use qni_model::log::EventLog;
use qni_model::topology::{tandem, three_tier};
use qni_sim::{Simulator, Workload};
use qni_stats::rng::rng_from_seed;

/// Simulates a random small log (mixing tandem and tiered shapes).
fn random_log(shape: u8, tasks: usize, seed: u64) -> (EventLog, Vec<f64>) {
    let (network, rates) = match shape % 3 {
        0 => {
            let bp = tandem(2.0, &[4.0, 6.0]).expect("topology");
            let r = bp.network.rates().expect("mm1");
            (bp.network, r)
        }
        1 => {
            let bp = tandem(3.0, &[3.5]).expect("topology");
            let r = bp.network.rates().expect("mm1");
            (bp.network, r)
        }
        _ => {
            let bp = three_tier(4.0, 6.0, &[2, 1], false).expect("topology");
            let r = bp.network.rates().expect("mm1");
            (bp.network, r)
        }
    };
    let mut rng = rng_from_seed(seed);
    let log = Simulator::new(&network)
        .run(
            &Workload::poisson_n(2.0, tasks).expect("workload"),
            &mut rng,
        )
        .expect("simulation");
    (log, rates)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn arrival_conditional_matches_numeric(
        shape in 0u8..3,
        tasks in 3usize..12,
        seed in 0u64..500,
        pick in 0usize..64,
    ) {
        let (log, rates) = random_log(shape, tasks, seed);
        // Pick a random non-initial event.
        let candidates: Vec<_> = log
            .event_ids()
            .filter(|&e| !log.is_initial_event(e))
            .collect();
        let e = candidates[pick % candidates.len()];
        let cond = arrival_conditional(&log, &rates, e).expect("conditional");
        if let Some(d) = &cond.density {
            let (grid, numeric) =
                numeric_conditional_grid(&log, &rates, e, 250).expect("grid");
            for (i, &x) in grid.iter().enumerate() {
                let exact = d.log_pdf(x).exp();
                prop_assert!(
                    (exact - numeric[i]).abs() < 0.05 * numeric[i].max(1.0),
                    "event {e}: x={x}, exact={exact}, numeric={}",
                    numeric[i]
                );
            }
        }
    }

    #[test]
    fn final_conditional_matches_numeric(
        shape in 0u8..3,
        tasks in 3usize..12,
        seed in 500u64..1000,
        pick in 0usize..64,
    ) {
        let (log, rates) = random_log(shape, tasks, seed);
        let finals: Vec<_> = log
            .event_ids()
            .filter(|&e| log.is_final_event(e))
            .collect();
        let e = finals[pick % finals.len()];
        let cond = final_conditional(&log, &rates, e).expect("conditional");
        if let Some(d) = &cond.density {
            let hi = if cond.upper.is_finite() {
                cond.upper
            } else {
                cond.lower + 4.0 / rates[log.queue_of(e).index()]
            };
            let (grid, numeric) =
                numeric_final_grid(&log, &rates, e, 250, hi).expect("grid");
            // Truncated renormalization for infinite supports.
            let mass = if cond.upper.is_finite() { 1.0 } else { d.cdf(hi) };
            for (i, &x) in grid.iter().enumerate() {
                let exact = d.log_pdf(x).exp() / mass;
                prop_assert!(
                    (exact - numeric[i]).abs() < 0.05 * numeric[i].max(1.0),
                    "event {e}: x={x}, exact={exact}, numeric={}",
                    numeric[i]
                );
            }
        }
    }

    #[test]
    fn shift_conditional_matches_numeric(
        shape in 0u8..3,
        tasks in 2usize..8,
        seed in 1000u64..1500,
        pick in 0usize..16,
    ) {
        let (log, rates) = random_log(shape, tasks, seed);
        let k = TaskId::from_index(pick % log.num_tasks());
        let cond = shift_conditional(&log, &rates, k).expect("conditional");
        if let Some(d) = &cond.density {
            let hi = if cond.upper.is_finite() {
                cond.upper
            } else {
                cond.lower + 3.0
            };
            if hi - cond.lower < 1e-6 {
                return Ok(());
            }
            let n = 250usize;
            let h = (hi - cond.lower) / n as f64;
            let mut lj = Vec::with_capacity(n);
            for i in 0..n {
                let delta = cond.lower + (i as f64 + 0.5) * h;
                let mut work = log.clone();
                apply_shift(&mut work, k, delta);
                lj.push(service_log_joint(&work, &rates));
            }
            let m = lj.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let unnorm: Vec<f64> = lj.iter().map(|&v| (v - m).exp()).collect();
            let total: f64 = unnorm.iter().sum::<f64>() * h;
            let mass = if cond.upper.is_finite() { 1.0 } else { d.cdf(hi) };
            for (i, u) in unnorm.iter().enumerate() {
                let numeric = u / total;
                let delta = cond.lower + (i as f64 + 0.5) * h;
                let exact = d.log_pdf(delta).exp() / mass;
                prop_assert!(
                    (exact - numeric).abs() < 0.05 * numeric.max(1.0),
                    "task {k}: δ={delta}, exact={exact}, numeric={numeric}"
                );
            }
        }
    }

    #[test]
    fn moves_preserve_joint_support(
        shape in 0u8..3,
        tasks in 3usize..10,
        seed in 1500u64..2000,
    ) {
        // After arbitrary sequences of all three move types the joint
        // stays finite (no constraint ever violated).
        let (mut log, rates) = random_log(shape, tasks, seed);
        let mut rng = rng_from_seed(seed ^ 0xdead);
        let events: Vec<_> = log
            .event_ids()
            .filter(|&e| !log.is_initial_event(e))
            .collect();
        let finals: Vec<_> = log
            .event_ids()
            .filter(|&e| log.is_final_event(e))
            .collect();
        for i in 0..60 {
            match i % 3 {
                0 => {
                    let e = events[i % events.len()];
                    qni_core::gibbs::arrival::resample_arrival(
                        &mut log, &rates, e, &mut rng,
                    )
                    .expect("arrival move");
                }
                1 => {
                    let e = finals[i % finals.len()];
                    qni_core::gibbs::final_departure::resample_final(
                        &mut log, &rates, e, &mut rng,
                    )
                    .expect("final move");
                }
                _ => {
                    let k = TaskId::from_index(i % log.num_tasks());
                    qni_core::gibbs::shift::resample_shift(&mut log, &rates, k, &mut rng)
                        .expect("shift move");
                }
            }
            prop_assert!(service_log_joint(&log, &rates).is_finite());
        }
    }

    #[test]
    fn kernel_moves_match_owned_conditionals_bitwise(
        shape in 0u8..3,
        tasks in 3usize..12,
        seed in 2000u64..2500,
        draw_seed in 0u64..1000,
    ) {
        // The state's final and shift moves run the sweep's kernel from
        // its shape tables; the oracle log is driven by the owned
        // conditionals. Same seed, same move order: every draw and the
        // resulting logs must agree to the bit.
        let (log, rates) = random_log(shape, tasks, seed);
        let finals: Vec<_> = log
            .event_ids()
            .filter(|&e| log.is_final_event(e))
            .collect();
        let all_tasks: Vec<_> = (0..log.num_tasks()).map(TaskId::from_index).collect();
        let mut state = GibbsState::from_parts(log.clone(), rates.clone(), Vec::new(), finals.clone())
            .expect("state")
            .with_shiftable_tasks(all_tasks.clone());
        let mut oracle = log;
        let mut rk = rng_from_seed(draw_seed);
        let mut ro = rng_from_seed(draw_seed);
        for _ in 0..3 {
            for (&e, &k) in finals.iter().zip(&all_tasks) {
                let kernel = state.move_final(e, &mut rk).expect("kernel final");
                let owned = final_conditional(&oracle, &rates, e)
                    .expect("owned final")
                    .sample(&mut ro);
                oracle.set_final_departure(e, owned);
                prop_assert_eq!(kernel.to_bits(), owned.to_bits(), "final move of {}", e);
                let kernel = state.move_shift(k, &mut rk).expect("kernel shift");
                let owned = shift_conditional(&oracle, &rates, k)
                    .expect("owned shift")
                    .sample(&mut ro);
                apply_shift(&mut oracle, k, owned);
                prop_assert_eq!(kernel.to_bits(), owned.to_bits(), "shift move of {}", k);
            }
        }
        for e in oracle.event_ids() {
            prop_assert_eq!(state.log().arrival(e).to_bits(), oracle.arrival(e).to_bits());
            prop_assert_eq!(state.log().departure(e).to_bits(), oracle.departure(e).to_bits());
        }
    }
}
