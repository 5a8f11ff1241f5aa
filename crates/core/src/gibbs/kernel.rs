//! The shared conditional kernel of the final-departure and shift moves.
//!
//! Every Gibbs move draws one variable from a piecewise log-linear
//! density on a support `[lower, upper]`. The pieces shared by the move
//! types live here:
//!
//! - [`classify`]: the support classification every move type uses
//!   (arrival, final-departure, shift) — a numerically pinched support
//!   (`upper < lower` by less than `1e-9`) or one narrower than
//!   [`DEGENERATE_WIDTH`] is a point, anything else an interval;
//! - [`Stage`]: reusable buffers a move's *staging function* fills with
//!   the sorted breakpoints and per-segment slopes of its density;
//! - [`KernelScratch`]: a [`Stage`] plus one [`PiecewiseScratch`], so a
//!   sweep builds and samples every final-departure and shift density
//!   without touching the heap;
//! - [`MoveShapes`]: the structural tables of a state's final-departure
//!   and shift moves (queue indices and resolved ρ/ρ⁻¹ neighbours),
//!   resolved once per state like the batched engine's arrival groups,
//!   so a move only reads floats.
//!
//! The owned conditionals
//! ([`crate::gibbs::final_departure::final_conditional`],
//! [`crate::gibbs::shift::shift_conditional`]) run the same staging
//! functions and hand the staged buffers to
//! [`qni_stats::piecewise::PiecewiseExpDensity::continuous_from_slopes`],
//! which shares its builder with [`PiecewiseScratch::rebuild_continuous`]:
//! the owned path and the kernel path are bit-identical by construction.

use crate::error::InferenceError;
use crate::gibbs::final_departure::{resolve_final, FinalShape};
use crate::gibbs::shift::{resolve_shift, term_changes, ShiftShape, ShiftTerm};
use qni_model::ids::{EventId, TaskId};
use qni_model::log::EventLog;
use qni_stats::piecewise::{PiecewiseExpDensity, PiecewiseScratch};
use rand::Rng;

/// Width below which a support is considered a point (the move is then
/// deterministic).
pub const DEGENERATE_WIDTH: f64 = 1e-12;

/// How far `upper` may fall below `lower` before an inverted support is
/// an error rather than rounding noise.
const PINCH_TOLERANCE: f64 = 1e-9;

/// The classification of one move's support.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Support {
    /// The support is (numerically) a single point: the move places the
    /// variable at the first field and consumes no randomness. The second
    /// field is the recorded upper bound.
    Point(f64, f64),
    /// A proper interval `[lower, upper]`.
    Interval(f64, f64),
}

/// Classifies a support from its bounds.
///
/// Errors if the bounds leave an empty support (which indicates
/// constraint corruption — the sampler never produces such states).
pub(crate) fn classify(event: EventId, lower: f64, upper: f64) -> Result<Support, InferenceError> {
    if upper < lower {
        if upper > lower - PINCH_TOLERANCE {
            // Numerically pinched support: treat as a point.
            return Ok(Support::Point(lower, lower));
        }
        return Err(InferenceError::EmptySupport {
            event,
            lower,
            upper,
        });
    }
    if upper - lower < DEGENERATE_WIDTH {
        return Ok(Support::Point(lower, upper));
    }
    Ok(Support::Interval(lower, upper))
}

/// Reusable staging buffers: the sorted interior breakpoints and the
/// per-segment slopes of one density (`slopes.len() == breaks.len() + 1`
/// once staged), plus the unsorted `(breakpoint, slope increment)` pairs
/// a shift move collects before folding and sorting them.
#[derive(Debug, Clone, Default)]
pub(crate) struct Stage {
    pub(crate) breaks: Vec<f64>,
    pub(crate) slopes: Vec<f64>,
    pub(crate) changes: Vec<(f64, f64)>,
}

impl Stage {
    /// The owned density of a staged interval support — the oracle side
    /// of the kernel; `None` for a point support.
    pub(crate) fn density(
        &self,
        support: Support,
    ) -> Result<Option<PiecewiseExpDensity>, InferenceError> {
        match support {
            Support::Point(..) => Ok(None),
            Support::Interval(lower, upper) => {
                Ok(Some(PiecewiseExpDensity::continuous_from_slopes(
                    lower,
                    upper,
                    &self.breaks,
                    &self.slopes,
                )?))
            }
        }
    }
}

/// The allocation-free workspace of final-departure and shift moves.
#[derive(Debug, Clone, Default)]
pub(crate) struct KernelScratch {
    pub(crate) stage: Stage,
    pw: PiecewiseScratch,
}

impl KernelScratch {
    /// Reserves room for densities with up to `breaks` interior
    /// breakpoints, so no later stage or rebuild has to grow a buffer.
    fn reserve(&mut self, breaks: usize) {
        let stage = &mut self.stage;
        stage
            .breaks
            .reserve(breaks.saturating_sub(stage.breaks.len()));
        stage
            .slopes
            .reserve((breaks + 1).saturating_sub(stage.slopes.len()));
        stage
            .changes
            .reserve(breaks.saturating_sub(stage.changes.len()));
        self.pw.reserve(breaks + 1);
    }

    /// Draws from a staged conditional: a point support returns its
    /// lower bound without consuming randomness; an interval rebuilds the
    /// density from the staged buffers in place and samples it (two
    /// uniforms, exactly like the owned density's sampler).
    pub(crate) fn draw<R: Rng + ?Sized>(
        &mut self,
        support: Support,
        rng: &mut R,
    ) -> Result<f64, InferenceError> {
        match support {
            Support::Point(lower, _) => Ok(lower),
            Support::Interval(lower, upper) => {
                self.pw
                    .rebuild_continuous(lower, upper, &self.stage.breaks, &self.stage.slopes)?;
                Ok(self.pw.sample(rng))
            }
        }
    }
}

/// Marks a task without a final-departure or shift slot.
const NO_SLOT: u32 = u32::MAX;

/// The structural tables of a state's final-departure and shift moves.
///
/// `finals` is aligned with the state's free finals and `shifts` with its
/// shiftable tasks, so a sweep schedule item carries a table index. Queue
/// and task orders never change during time-resampling moves, so the
/// tables stay valid until a queue reassignment (or a new shiftable
/// list) invalidates them, exactly like the batched engine's arrival
/// groups.
#[derive(Debug, Clone, Default)]
pub(crate) struct MoveShapes {
    pub(crate) finals: Vec<FinalShape>,
    pub(crate) shifts: Vec<ShiftShape>,
    /// Every shift shape's terms, concatenated (see [`ShiftShape`]).
    terms: Vec<ShiftTerm>,
    /// Per task: its `[final, shift]` table slots, [`NO_SLOT`] when the
    /// task has none — the lookup behind the per-move entry points.
    slot_of_task: Vec<[u32; 2]>,
}

impl MoveShapes {
    /// Rebuilds the tables for `finals` and `tasks` against `log`, and
    /// sizes `kernel` for the largest density any of the moves can stage.
    ///
    /// Errors if an entry of `finals` is not a task's final event.
    pub(crate) fn rebuild(
        &mut self,
        log: &EventLog,
        finals: &[EventId],
        tasks: &[TaskId],
        kernel: &mut KernelScratch,
    ) -> Result<(), InferenceError> {
        self.finals.clear();
        self.shifts.clear();
        self.terms.clear();
        self.slot_of_task.clear();
        self.slot_of_task.resize(log.num_tasks(), [NO_SLOT; 2]);
        for &e in finals {
            self.slot_of_task[log.task_of(e).index()][0] = self.finals.len() as u32;
            self.finals.push(resolve_final(log, e)?);
        }
        // A final-departure density has at most one interior breakpoint.
        let mut max_breaks = 1;
        for &k in tasks {
            self.slot_of_task[k.index()][1] = self.shifts.len() as u32;
            let shape = resolve_shift(log, k, &mut self.terms);
            max_breaks = max_breaks.max(term_changes(self.terms(&shape)));
            self.shifts.push(shape);
        }
        kernel.reserve(max_breaks);
        Ok(())
    }

    /// The terms of one shift shape.
    pub(crate) fn terms(&self, shape: &ShiftShape) -> &[ShiftTerm] {
        &self.terms[shape.start as usize..shape.end as usize]
    }

    /// The final-departure table slot of task `k`, if it has one.
    pub(crate) fn final_slot(&self, k: TaskId) -> Option<usize> {
        self.slot(k, 0)
    }

    /// The shift table slot of task `k`, if it has one.
    pub(crate) fn shift_slot(&self, k: TaskId) -> Option<usize> {
        self.slot(k, 1)
    }

    fn slot(&self, k: TaskId, which: usize) -> Option<usize> {
        match self.slot_of_task.get(k.index())?[which] {
            NO_SLOT => None,
            s => Some(s as usize),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_points_intervals_and_errors() {
        let e = EventId(3);
        assert_eq!(classify(e, 1.0, 2.0).unwrap(), Support::Interval(1.0, 2.0));
        // Narrower than DEGENERATE_WIDTH: a point carrying both bounds.
        let hi = 1.0 + DEGENERATE_WIDTH / 2.0;
        assert_eq!(classify(e, 1.0, hi).unwrap(), Support::Point(1.0, hi));
        // Pinched (inverted by rounding noise): a point at the lower bound.
        let lo = 1.0 + PINCH_TOLERANCE / 2.0;
        assert_eq!(classify(e, lo, 1.0).unwrap(), Support::Point(lo, lo));
        // Genuinely inverted: constraint corruption.
        assert!(matches!(
            classify(e, 2.0, 1.0),
            Err(InferenceError::EmptySupport { event, .. }) if event == e
        ));
        // Unbounded above is a proper interval.
        assert_eq!(
            classify(e, 0.5, f64::INFINITY).unwrap(),
            Support::Interval(0.5, f64::INFINITY)
        );
    }

    #[test]
    fn draw_matches_the_owned_density_bitwise() {
        use qni_stats::rng::rng_from_seed;
        let mut ks = KernelScratch::default();
        ks.stage.breaks.extend([1.5]);
        ks.stage.slopes.extend([-2.0, 0.5]);
        let support = Support::Interval(1.0, 3.0);
        let owned = ks.stage.density(support).unwrap().unwrap();
        let (mut ra, mut rb) = (rng_from_seed(5), rng_from_seed(5));
        for _ in 0..20 {
            let a = ks.draw(support, &mut ra).unwrap();
            assert_eq!(a.to_bits(), owned.sample(&mut rb).to_bits());
        }
        // A point support consumes no randomness.
        let mut rc = rng_from_seed(5);
        assert_eq!(ks.draw(Support::Point(2.0, 2.0), &mut rc).unwrap(), 2.0);
        let mut rd = rng_from_seed(5);
        let x = ks.draw(support, &mut rc).unwrap();
        assert_eq!(x.to_bits(), ks.draw(support, &mut rd).unwrap().to_bits());
    }
}
