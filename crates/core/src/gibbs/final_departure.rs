//! The final-departure move.
//!
//! A task's last departure `x = d_e` is a free variable with no tied
//! arrival. Only two service times involve it:
//!
//! 1. `s_e = x − max(a_e, d_{ρ(e)})` — slope `−µ_e` throughout;
//! 2. `s_F = d_F − max(a_F, x)` for `F = ρ⁻¹(e)` — slope `+µ_e` once
//!    `x > a_F`.
//!
//! Support: `[max(a_e, d_{ρ(e)}), d_F]`, or `[·, ∞)` when `e` is its
//! queue's last event (the density is then a pure exponential tail).

use crate::error::InferenceError;
use crate::gibbs::kernel::{classify, KernelScratch, Stage, Support};
use qni_model::ids::EventId;
use qni_model::log::EventLog;
use qni_stats::piecewise::PiecewiseExpDensity;
use rand::Rng;

/// The conditional distribution of one final-departure move.
#[derive(Debug, Clone)]
pub struct FinalConditional {
    /// Lower support bound.
    pub lower: f64,
    /// Upper support bound (`+inf` when `e` is last in its queue).
    pub upper: f64,
    /// The normalized density (`None` for a point support).
    pub density: Option<PiecewiseExpDensity>,
}

impl FinalConditional {
    /// Draws a value from the conditional.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match &self.density {
            Some(d) => d.sample(rng),
            None => self.lower,
        }
    }
}

/// The structural shape of one final-departure move: the event, its
/// queue, and its within-queue neighbours `ρ(e)` and `F = ρ⁻¹(e)`,
/// resolved once so the move itself only reads floats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FinalShape {
    pub(crate) e: EventId,
    q: u32,
    rho: Option<EventId>,
    next: Option<EventId>,
}

/// Resolves the shape of event `e`'s final-departure move.
///
/// Errors if `e` is not its task's final event.
pub(crate) fn resolve_final(log: &EventLog, e: EventId) -> Result<FinalShape, InferenceError> {
    if !log.is_final_event(e) {
        return Err(InferenceError::BadMoveTarget {
            event: e,
            what: "interior departures are owned by the successor's arrival",
        });
    }
    Ok(FinalShape {
        e,
        q: log.queue_of(e).index() as u32,
        rho: log.rho(e),
        next: log.rho_inv(e),
    })
}

/// Stages one final-departure conditional: classifies its support and,
/// for an interval, writes the breakpoints and slopes into `stage`. The
/// single staging function behind both the owned
/// [`final_conditional`] and the sweep's allocation-free kernel.
pub(crate) fn stage_final(
    log: &EventLog,
    rates: &[f64],
    shape: &FinalShape,
    stage: &mut Stage,
) -> Result<Support, InferenceError> {
    let mu = rates[shape.q as usize];
    // lower = begin_service(e) = max(a_e, d_{ρ(e)}).
    let a = log.arrival(shape.e);
    let lower = match shape.rho {
        Some(r) => a.max(log.departure(r)),
        None => a,
    };
    let upper = shape.next.map_or(f64::INFINITY, |f| log.departure(f));
    let support = classify(shape.e, lower, upper)?;
    if let Support::Interval(..) = support {
        // Base slope −µ; +µ activates at a_F.
        let mut start_slope = -mu;
        stage.breaks.clear();
        stage.slopes.clear();
        stage.slopes.push(start_slope);
        if let Some(f) = shape.next {
            let b = log.arrival(f);
            if b <= lower {
                start_slope += mu;
                stage.slopes[0] = start_slope;
            } else if b < upper {
                stage.breaks.push(b);
                stage.slopes.push(start_slope + mu);
            }
            // b ≥ upper cannot happen: a_F ≤ d_F = upper by validity.
        }
    }
    Ok(support)
}

/// Builds the conditional for resampling event `e`'s final departure.
pub fn final_conditional(
    log: &EventLog,
    rates: &[f64],
    e: EventId,
) -> Result<FinalConditional, InferenceError> {
    let shape = resolve_final(log, e)?;
    if rates.len() != log.num_queues() {
        return Err(InferenceError::RateShapeMismatch {
            expected: log.num_queues(),
            actual: rates.len(),
        });
    }
    let mut stage = Stage::default();
    let support = stage_final(log, rates, &shape, &mut stage)?;
    let (Support::Point(lower, upper) | Support::Interval(lower, upper)) = support;
    Ok(FinalConditional {
        lower,
        upper,
        density: stage.density(support)?,
    })
}

/// Resamples event `e`'s final departure in place; returns the new value.
pub fn resample_final<R: Rng + ?Sized>(
    log: &mut EventLog,
    rates: &[f64],
    e: EventId,
    rng: &mut R,
) -> Result<f64, InferenceError> {
    let cond = final_conditional(log, rates, e)?;
    let x = cond.sample(rng);
    log.set_final_departure(e, x);
    Ok(x)
}

/// [`resample_final`] through the allocation-free kernel, from a resolved
/// shape; bit-identical to the owned path.
pub(crate) fn resample_final_shaped<R: Rng + ?Sized>(
    log: &mut EventLog,
    rates: &[f64],
    shape: &FinalShape,
    kernel: &mut KernelScratch,
    rng: &mut R,
) -> Result<f64, InferenceError> {
    let support = stage_final(log, rates, shape, &mut kernel.stage)?;
    let x = kernel.draw(support, rng)?;
    log.set_final_departure(shape.e, x);
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gibbs::numeric::numeric_final_grid;
    use qni_model::ids::{QueueId, StateId, TaskId};
    use qni_model::log::EventLogBuilder;
    use qni_stats::rng::rng_from_seed;

    fn two_task_log() -> EventLog {
        let mut b = EventLogBuilder::new(2, StateId(0));
        b.add_task(1.0, &[(StateId(1), QueueId(1), 1.0, 2.0)])
            .unwrap();
        b.add_task(1.5, &[(StateId(1), QueueId(1), 1.5, 3.0)])
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn rejects_non_final() {
        let log = two_task_log();
        let rates = vec![1.0, 2.0];
        let init = log.task_events(TaskId(0))[0];
        assert!(matches!(
            final_conditional(&log, &rates, init),
            Err(InferenceError::BadMoveTarget { .. })
        ));
    }

    #[test]
    fn bounded_case_matches_numeric() {
        let log = two_task_log();
        let rates = vec![1.0, 2.5];
        // Task 0's final event: F = task 1's event (a=1.5, d=3.0).
        let e = log.task_events(TaskId(0))[1];
        let c = final_conditional(&log, &rates, e).unwrap();
        assert_eq!(c.lower, 1.0); // begin = max(1.0, no ρ) = 1.0.
        assert_eq!(c.upper, 3.0);
        let d = c.density.clone().unwrap();
        // Two segments: slope −µ on (1.0, 1.5), slope 0 on (1.5, 3.0).
        assert_eq!(d.segments().len(), 2);
        assert!((d.segments()[0].slope + 2.5).abs() < 1e-12);
        assert!(d.segments()[1].slope.abs() < 1e-12);
        let (grid, numeric) = numeric_final_grid(&log, &rates, e, 400, 3.0).unwrap();
        for (i, &x) in grid.iter().enumerate() {
            let exact = d.log_pdf(x).exp();
            assert!(
                (exact - numeric[i]).abs() < 0.02 * numeric[i].max(1.0),
                "x={x}: {exact} vs {}",
                numeric[i]
            );
        }
    }

    #[test]
    fn unbounded_tail_case() {
        let log = two_task_log();
        let rates = vec![1.0, 2.5];
        // Task 1's final event is last in queue: upper = ∞.
        let e = log.task_events(TaskId(1))[1];
        let c = final_conditional(&log, &rates, e).unwrap();
        assert_eq!(c.upper, f64::INFINITY);
        assert_eq!(c.lower, 2.0); // begin = max(1.5, d of task 0 = 2.0).
        let d = c.density.clone().unwrap();
        // Pure exponential tail at rate µ = 2.5: mean lower + 0.4.
        let mut rng = rng_from_seed(3);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 2.4).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn resample_preserves_validity() {
        let mut log = two_task_log();
        let rates = vec![1.0, 2.5];
        let mut rng = rng_from_seed(4);
        for _ in 0..500 {
            for k in 0..2 {
                let e = log.task_events(TaskId::from_index(k))[1];
                resample_final(&mut log, &rates, e, &mut rng).unwrap();
                qni_model::constraints::validate(&log).unwrap();
            }
        }
    }

    #[test]
    fn waiting_successor_makes_uniform_segment() {
        // F arrives before e's service begins (e itself is queued behind
        // an earlier task) → a_F ≤ L → single uniform segment on [L, d_F].
        let mut b = EventLogBuilder::new(2, StateId(0));
        b.add_task(1.0, &[(StateId(1), QueueId(1), 1.0, 2.0)])
            .unwrap();
        b.add_task(1.1, &[(StateId(1), QueueId(1), 1.1, 3.0)])
            .unwrap();
        b.add_task(1.2, &[(StateId(1), QueueId(1), 1.2, 4.0)])
            .unwrap();
        let log = b.build().unwrap();
        let rates = vec![1.0, 2.0];
        // e = task 1's event: begins at max(1.1, 2.0) = 2.0; its successor
        // F (task 2) arrived at 1.2 < 2.0.
        let e = log.task_events(TaskId(1))[1];
        let c = final_conditional(&log, &rates, e).unwrap();
        let d = c.density.unwrap();
        assert_eq!(d.segments().len(), 1);
        assert!(d.segments()[0].slope.abs() < 1e-12);
        assert_eq!(d.segments()[0].lo, 2.0);
        assert_eq!(d.segments()[0].hi, 4.0);
    }
}
