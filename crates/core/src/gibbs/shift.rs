//! The task-shift move: a translation-group Gibbs update.
//!
//! Single-site arrival moves change one transition time at a time, so a
//! task whose times are all unobserved performs a slow random walk: each
//! of its service intervals must shrink/grow one endpoint per sweep. This
//! move translates *all* free times of a fully-unobserved task by a
//! common `δ`, sampled exactly from the conditional density of the
//! shifted configuration — a one-dimensional Gibbs update along the
//! translation group (Liu & Sabatti-style), with unit Jacobian, hence a
//! valid MCMC move targeting the same posterior.
//!
//! The conditional over `δ` is again piecewise log-linear:
//!
//! - the task's *internal* services are translation-invariant (both
//!   endpoints shift), contributing nothing;
//! - a task service whose within-queue predecessor is *outside* the task
//!   contributes slope `−µ` while the queue is still busy at the shifted
//!   arrival (`δ` below the breakpoint `d_ρ − a_e`), 0 after;
//! - the entry gap (`q0` service) contributes a constant `−λ`;
//! - each *outside* event `f` whose queue predecessor is in the task
//!   contributes slope `+µ_f` once `δ` exceeds `a_f − d_ρ(f)` (the
//!   shifted departure starts eating into `f`'s service);
//! - support bounds come from keeping every affected service non-negative
//!   and every queue's arrival order intact.
//!
//! This move is an extension beyond the paper (which uses single-site
//! moves only); the `ablation_shift` harness measures its effect on
//! mixing.

use crate::error::InferenceError;
use crate::gibbs::kernel::{classify, KernelScratch, Stage, Support};
use qni_model::ids::{EventId, TaskId};
use qni_model::log::EventLog;
use qni_stats::piecewise::PiecewiseExpDensity;
use rand::Rng;

/// The conditional over the shift `δ` for one task.
#[derive(Debug, Clone)]
pub struct ShiftConditional {
    /// Smallest feasible shift.
    pub lower: f64,
    /// Largest feasible shift (may be `+inf` for the last task).
    pub upper: f64,
    /// Normalized density over `δ` (`None` for a point support).
    pub density: Option<PiecewiseExpDensity>,
}

impl ShiftConditional {
    /// Draws a shift from the conditional.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match &self.density {
            Some(d) => d.sample(rng),
            None => self.lower,
        }
    }
}

/// Whether every time of task `k` is free (all non-initial arrivals and
/// the final departure unobserved). Only such tasks may shift rigidly.
pub fn task_fully_free(masked: &qni_trace::MaskedLog, k: TaskId) -> bool {
    let log = masked.ground_truth();
    let events = log.task_events(k);
    let arrivals_free = events[1..]
        .iter()
        .all(|&e| !masked.mask().arrival_observed(e));
    let last = *events.last().expect("tasks are non-empty"); // qni-lint: allow(QNI-E002) — TaskLog validates tasks non-empty at construction
    arrivals_free && !masked.mask().departure_observed(last)
}

/// Marks a missing neighbour in a [`ShiftTerm`].
const NO_EVENT: u32 = u32::MAX;

/// One task event that contributes to its task's shift conditional,
/// with its out-of-task queue neighbours resolved. Packed into 16 bytes
/// (neighbour event indices with a [`NO_EVENT`] sentinel) so a typical
/// task's terms share one cache line: a sweep visits shift moves in
/// random order, and staging from the terms is about half of a move's
/// cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShiftTerm {
    e: EventId,
    /// Queue index of `e` — and of its successor `ρ⁻¹(e)`, which sits in
    /// the same queue.
    q: u32,
    /// `ρ(e)` when it lies outside the task.
    pred: u32,
    /// `ρ⁻¹(e)` when it lies outside the task.
    succ: u32,
}

/// The event behind a term field, if any.
fn neighbour(index: u32) -> Option<EventId> {
    (index != NO_EVENT).then_some(EventId(index))
}

/// How many slope breakpoints one task's terms can contribute. The
/// initial event (always the first term) moves no arrival, so its
/// predecessor adds none.
pub(crate) fn term_changes(terms: &[ShiftTerm]) -> usize {
    terms
        .iter()
        .enumerate()
        .map(|(i, t)| usize::from(i > 0 && t.pred != NO_EVENT) + usize::from(t.succ != NO_EVENT))
        .sum()
}

/// The range of one task's terms in the owning table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShiftShape {
    pub(crate) start: u32,
    pub(crate) end: u32,
}

/// Resolves task `k`'s shift shape, appending its contributing terms to
/// `terms` in task order. Events with neither an out-of-task predecessor
/// nor an out-of-task successor are skipped: their services shift along
/// and contribute nothing. The initial event always contributes (its
/// predecessor is another task's initial event, or none: the entry
/// gap), so it is always the first term.
pub(crate) fn resolve_shift(log: &EventLog, k: TaskId, terms: &mut Vec<ShiftTerm>) -> ShiftShape {
    let start = terms.len() as u32;
    let outside = |n: Option<EventId>| match n {
        Some(n) if log.task_of(n) != k => {
            debug_assert!(n.0 != NO_EVENT, "event index collides with the sentinel");
            n.0
        }
        _ => NO_EVENT,
    };
    for &e in log.task_events(k) {
        let pred = outside(log.rho(e));
        let succ = outside(log.rho_inv(e));
        if log.is_initial_event(e) || pred != NO_EVENT || succ != NO_EVENT {
            terms.push(ShiftTerm {
                e,
                q: log.queue_of(e).index() as u32,
                pred,
                succ,
            });
        }
    }
    ShiftShape {
        start,
        end: terms.len() as u32,
    }
}

/// Stable insertion sort by breakpoint: the handful of live breakpoints
/// of one shift conditional sorts in place without allocating.
fn sort_by_break(changes: &mut [(f64, f64)]) {
    for i in 1..changes.len() {
        let mut j = i;
        while j > 0 && changes[j - 1].0.total_cmp(&changes[j].0).is_gt() {
            changes.swap(j - 1, j);
            j -= 1;
        }
    }
}

/// Stages one shift conditional from its task's terms: classifies its
/// support and, for an interval, writes the sorted breakpoints and
/// slopes into `stage`. The single staging function behind both the
/// owned [`shift_conditional`] and the sweep's allocation-free kernel.
pub(crate) fn stage_shift(
    log: &EventLog,
    rates: &[f64],
    terms: &[ShiftTerm],
    stage: &mut Stage,
) -> Result<Support, InferenceError> {
    let mut lower = f64::NEG_INFINITY;
    let mut upper = f64::INFINITY;
    // Slope contributions: (breakpoint, delta-slope applied above it),
    // plus a base slope active on the whole support.
    let mut base_slope = 0.0f64;
    stage.changes.clear();
    for (i, t) in terms.iter().enumerate() {
        // Every arrival but the initial event's (the first term) shifts.
        let a_shifts = i > 0;
        let mu = rates[t.q as usize];
        let a_e = log.arrival(t.e);
        let d_e = log.departure(t.e);
        match neighbour(t.pred) {
            Some(r) => {
                let d_r = log.departure(r);
                // s_e(δ) = d_e + δ − max(a_e + [a_shifts]δ, d_r).
                if a_shifts {
                    // Slope −µ_e while a_e + δ < d_r, 0 after.
                    base_slope -= mu;
                    stage.changes.push((d_r - a_e, mu));
                    // s ≥ 0 ⟺ d_e + δ ≥ d_r.
                    lower = lower.max(d_r - d_e);
                    // Arrival order vs the out-of-task predecessor.
                    lower = lower.max(log.arrival(r) - a_e);
                } else {
                    // Initial event: a = 0 fixed, max = d_r throughout.
                    base_slope -= mu;
                    lower = lower.max(d_r - d_e);
                }
            }
            None if !a_shifts => {
                // First task's entry gap: s = d_e + δ − 0.
                base_slope -= mu;
                lower = lower.max(-d_e);
            }
            None => {}
        }
        // Outside successor at the same queue (so also rate µ_e).
        if let Some(f) = neighbour(t.succ) {
            let a_f = log.arrival(f);
            // s_f(δ) = d_f − max(a_f, d_e + δ): slope +µ_f once
            // d_e + δ > a_f.
            stage.changes.push((a_f - d_e, mu));
            // s_f ≥ 0 ⟺ d_e + δ ≤ d_f.
            upper = upper.min(log.departure(f) - d_e);
            // Arrival order vs the out-of-task successor.
            if a_shifts {
                upper = upper.min(a_f - a_e);
            }
        }
    }
    // Errors name the task's initial event.
    let first = terms[0].e;
    let support = classify(first, lower, upper)?;
    let Support::Interval(lower, upper) = support else {
        return Ok(support);
    };
    // Fold sub-lower breakpoints into the base slope, drop super-upper
    // ones, and sort the live ones.
    let mut live = 0;
    for i in 0..stage.changes.len() {
        let (brk, delta) = stage.changes[i];
        if brk <= lower {
            base_slope += delta;
        } else if brk < upper {
            stage.changes[live] = (brk, delta);
            live += 1;
        }
    }
    stage.changes.truncate(live);
    sort_by_break(&mut stage.changes);
    stage.breaks.clear();
    stage.slopes.clear();
    stage.slopes.push(base_slope);
    let mut slope = base_slope;
    for &(brk, delta) in &stage.changes {
        slope += delta;
        stage.breaks.push(brk);
        stage.slopes.push(slope);
    }
    // An unbounded upper support requires a decaying final slope; the last
    // task's entry-gap term (−λ) guarantees it, but guard anyway.
    if upper.is_infinite() && slope >= 0.0 {
        return Err(InferenceError::BadMoveTarget {
            event: first,
            what: "unbounded shift with non-decaying density",
        });
    }
    Ok(support)
}

/// Builds the shift conditional for task `k`.
///
/// `k` must be fully free (the caller guarantees it; the move would
/// otherwise displace observed data).
pub fn shift_conditional(
    log: &EventLog,
    rates: &[f64],
    k: TaskId,
) -> Result<ShiftConditional, InferenceError> {
    if rates.len() != log.num_queues() {
        return Err(InferenceError::RateShapeMismatch {
            expected: log.num_queues(),
            actual: rates.len(),
        });
    }
    let mut terms = Vec::new();
    resolve_shift(log, k, &mut terms);
    let mut stage = Stage::default();
    let support = stage_shift(log, rates, &terms, &mut stage)?;
    let (Support::Point(lower, upper) | Support::Interval(lower, upper)) = support;
    Ok(ShiftConditional {
        lower,
        upper,
        density: stage.density(support)?,
    })
}

/// Applies a shift `δ` to all free times of task `k`.
pub fn apply_shift(log: &mut EventLog, k: TaskId, delta: f64) {
    log.shift_task(k, delta);
}

/// Samples a shift for task `k` and applies it; returns `δ`.
pub fn resample_shift<R: Rng + ?Sized>(
    log: &mut EventLog,
    rates: &[f64],
    k: TaskId,
    rng: &mut R,
) -> Result<f64, InferenceError> {
    let cond = shift_conditional(log, rates, k)?;
    let delta = cond.sample(rng);
    apply_shift(log, k, delta);
    Ok(delta)
}

/// [`resample_shift`] through the allocation-free kernel, from a task's
/// resolved terms; bit-identical to the owned path.
pub(crate) fn resample_shift_shaped<R: Rng + ?Sized>(
    log: &mut EventLog,
    rates: &[f64],
    terms: &[ShiftTerm],
    kernel: &mut KernelScratch,
    rng: &mut R,
) -> Result<f64, InferenceError> {
    let support = stage_shift(log, rates, terms, &mut kernel.stage)?;
    let delta = kernel.draw(support, rng)?;
    apply_shift(log, log.task_of(terms[0].e), delta);
    Ok(delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gibbs::numeric::service_log_joint;
    use qni_model::ids::{QueueId, StateId};
    use qni_model::log::EventLogBuilder;
    use qni_stats::rng::rng_from_seed;

    /// Three tasks through two queues with interleaving at both queues.
    fn setup() -> (EventLog, Vec<f64>) {
        let mut b = EventLogBuilder::new(3, StateId(0));
        b.add_task(
            0.5,
            &[
                (StateId(1), QueueId(1), 0.5, 1.0),
                (StateId(2), QueueId(2), 1.0, 3.0),
            ],
        )
        .unwrap();
        b.add_task(
            1.0,
            &[
                (StateId(1), QueueId(1), 1.0, 2.0),
                (StateId(2), QueueId(2), 2.0, 3.8),
            ],
        )
        .unwrap();
        b.add_task(
            2.5,
            &[
                (StateId(1), QueueId(1), 2.5, 3.5),
                (StateId(2), QueueId(2), 3.5, 4.5),
            ],
        )
        .unwrap();
        let log = b.build().unwrap();
        qni_model::constraints::validate(&log).unwrap();
        (log, vec![2.0, 3.0, 1.5])
    }

    #[test]
    fn shift_conditional_matches_numeric() {
        let (log, rates) = setup();
        for k in 0..3u32 {
            let k = TaskId(k);
            let cond = shift_conditional(&log, &rates, k).unwrap();
            let Some(density) = &cond.density else {
                continue;
            };
            // Numeric check: apply shifts on a grid, evaluate the joint.
            let hi = if cond.upper.is_finite() {
                cond.upper
            } else {
                cond.lower + 5.0
            };
            let n = 400;
            let h = (hi - cond.lower) / n as f64;
            let mut lj = Vec::with_capacity(n);
            let mut grid = Vec::with_capacity(n);
            for i in 0..n {
                let delta = cond.lower + (i as f64 + 0.5) * h;
                let mut work = log.clone();
                apply_shift(&mut work, k, delta);
                grid.push(delta);
                lj.push(service_log_joint(&work, &rates));
            }
            let m = lj.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let unnorm: Vec<f64> = lj.iter().map(|&v| (v - m).exp()).collect();
            let total: f64 = unnorm.iter().sum::<f64>() * h;
            for (i, &delta) in grid.iter().enumerate() {
                let numeric = unnorm[i] / total;
                // Renormalize the analytic density to the same truncated
                // range when the support is infinite.
                let exact = if cond.upper.is_finite() {
                    density.log_pdf(delta).exp()
                } else {
                    let mass = density.cdf(hi);
                    density.log_pdf(delta).exp() / mass
                };
                assert!(
                    (exact - numeric).abs() < 0.03 * numeric.max(1.0),
                    "task {k}: δ={delta}, exact={exact}, numeric={numeric}"
                );
            }
        }
    }

    #[test]
    fn shift_moves_preserve_validity() {
        let (mut log, rates) = setup();
        let mut rng = rng_from_seed(1);
        for _ in 0..1000 {
            for k in 0..3u32 {
                resample_shift(&mut log, &rates, TaskId(k), &mut rng).unwrap();
                qni_model::constraints::validate(&log).unwrap();
            }
        }
    }

    #[test]
    fn internal_services_are_invariant() {
        let (mut log, rates) = setup();
        let k = TaskId(1);
        let before: Vec<f64> = log
            .task_events(k)
            .iter()
            .map(|&e| log.response_time(e))
            .collect();
        let cond = shift_conditional(&log, &rates, k).unwrap();
        let delta = (cond.lower + cond.upper.min(cond.lower + 1.0)) / 2.0 - cond.lower;
        apply_shift(&mut log, k, delta.clamp(0.0, 0.05));
        let after: Vec<f64> = log
            .task_events(k)
            .iter()
            .map(|&e| log.response_time(e))
            .collect();
        // Response times within the task are translation-invariant
        // (except the initial event's, which *is* the entry gap).
        for (b, a) in before.iter().zip(&after).skip(1) {
            assert!((b - a).abs() < 1e-9);
        }
    }

    #[test]
    fn single_task_shift_is_entry_resample() {
        // One task alone: the shift conditional is an exponential in the
        // entry gap — shifting right costs e^{−λδ}.
        let mut b = EventLogBuilder::new(2, StateId(0));
        b.add_task(1.0, &[(StateId(1), QueueId(1), 1.0, 1.5)])
            .unwrap();
        let log = b.build().unwrap();
        let rates = vec![2.0, 3.0];
        let cond = shift_conditional(&log, &rates, TaskId(0)).unwrap();
        assert_eq!(cond.lower, -1.0); // Entry can move to 0.
        assert_eq!(cond.upper, f64::INFINITY);
        let d = cond.density.unwrap();
        // Pure Exp(λ = 2) tail starting at −1.
        let mut rng = rng_from_seed(2);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - (-1.0 + 0.5)).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn fully_free_detection() {
        use qni_model::topology::tandem;
        use qni_sim::{Simulator, Workload};
        use qni_trace::ObservationScheme;
        let bp = tandem(2.0, &[5.0]).unwrap();
        let mut rng = rng_from_seed(3);
        let truth = Simulator::new(&bp.network)
            .run(&Workload::poisson_n(2.0, 50).unwrap(), &mut rng)
            .unwrap();
        let masked = ObservationScheme::task_sampling(0.5)
            .unwrap()
            .apply(truth, &mut rng)
            .unwrap();
        let free_count = (0..50)
            .filter(|&k| task_fully_free(&masked, TaskId::from_index(k)))
            .count();
        let observed = crate::baseline::observed_task_count(&masked);
        assert_eq!(free_count + observed, 50);
    }
}
