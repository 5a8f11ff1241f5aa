//! The mutable Gibbs sampler state.

use crate::error::InferenceError;
use crate::gibbs::batch::{BatchScratch, GroupStructure};
use crate::gibbs::kernel::{KernelScratch, MoveShapes};
use crate::gibbs::pool::PoolSlot;
use crate::gibbs::sweep::Move;
use crate::init::InitStrategy;
use qni_model::ids::{EventId, QueueId, TaskId};
use qni_model::log::EventLog;
use qni_trace::MaskedLog;

/// Reusable per-state working memory for [`crate::gibbs::sweep`]: the
/// sweep schedule buffer, the per-queue arrival-move groups of the batched
/// engine and its workspace, the shape tables and kernel workspace of
/// final-departure and shift moves, and the wave-prepare worker pool of
/// sharded sweeps. Everything here is *scratch* — it never affects
/// sampler semantics, only allocation and thread scheduling.
#[derive(Debug, Clone, Default)]
pub(crate) struct SweepScratch {
    /// Reused schedule buffer (cleared and refilled each sweep).
    pub(crate) schedule: Vec<Move>,
    /// Same-queue arrival-move group structures, in order of first
    /// occurrence in `free_arrivals` (so singleton groups line up with
    /// the scalar schedule). Rebuilt lazily when `groups_built` is false.
    pub(crate) groups: Vec<GroupStructure>,
    /// Whether `groups` reflects the current queue assignment of every
    /// free arrival (queue reassignment moves invalidate it).
    pub(crate) groups_built: bool,
    /// Batched-move workspace (wave bounds, conflict stamps, density
    /// scratch).
    pub(crate) batch: BatchScratch,
    /// Final-departure and shift shape tables, aligned with `free_finals`
    /// and `shiftable_tasks`. Rebuilt lazily when `shapes_built` is
    /// false.
    pub(crate) shapes: MoveShapes,
    /// Whether `shapes` reflects the current queue assignment and
    /// shiftable list; invalidated together with `groups_built`.
    pub(crate) shapes_built: bool,
    /// Allocation-free staging and density workspace of final-departure
    /// and shift moves.
    pub(crate) kernel: KernelScratch,
    /// Persistent wave-prepare workers of sharded sweeps, built on the
    /// first wave that fans out; a clone starts without one (see
    /// [`crate::gibbs::pool`]).
    pub(crate) pool: PoolSlot,
}

impl SweepScratch {
    /// Marks every cached structural table stale.
    fn invalidate(&mut self) {
        self.groups_built = false;
        self.shapes_built = false;
    }
}

/// Checks a rate vector against a log with `num_queues` queues: one
/// finite, strictly positive rate per queue.
fn check_rates(num_queues: usize, rates: &[f64]) -> Result<(), InferenceError> {
    if rates.len() != num_queues {
        return Err(InferenceError::RateShapeMismatch {
            expected: num_queues,
            actual: rates.len(),
        });
    }
    match rates.iter().position(|&v| !(v.is_finite() && v > 0.0)) {
        Some(q) => Err(InferenceError::BadRate {
            queue: QueueId::from_index(q),
            value: rates[q],
        }),
        None => Ok(()),
    }
}

/// Sampler state: a complete working event log plus current rates.
///
/// The log always satisfies the deterministic constraints; Gibbs moves
/// mutate it in place. Free-variable lists are fixed at construction.
#[derive(Debug, Clone)]
pub struct GibbsState {
    pub(crate) log: EventLog,
    pub(crate) rates: Vec<f64>,
    pub(crate) free_arrivals: Vec<EventId>,
    pub(crate) free_finals: Vec<EventId>,
    /// Tasks with no observed time at all, eligible for the rigid
    /// [`crate::gibbs::shift`] move.
    pub(crate) shiftable_tasks: Vec<TaskId>,
    /// Reusable sweep working memory (see [`SweepScratch`]).
    pub(crate) scratch: SweepScratch,
}

impl GibbsState {
    /// Builds a state from a masked log: scrubs unobserved times,
    /// initializes them feasibly, and records the free-variable lists.
    pub fn new(
        masked: &MaskedLog,
        rates: Vec<f64>,
        strategy: InitStrategy,
    ) -> Result<Self, InferenceError> {
        Self::new_warm(masked, rates, strategy, None)
    }

    /// [`GibbsState::new`] with optional warm-start targets for the free
    /// times (see [`crate::init::WarmTimes`]): carried times are used as
    /// initialization targets where feasible, which is how the streaming
    /// engine hands a window's final Gibbs state to the next window.
    ///
    /// Errors with [`InferenceError::BadRate`] unless every rate is finite
    /// and strictly positive.
    pub fn new_warm(
        masked: &MaskedLog,
        rates: Vec<f64>,
        strategy: InitStrategy,
        warm: Option<&crate::init::WarmTimes>,
    ) -> Result<Self, InferenceError> {
        check_rates(masked.ground_truth().num_queues(), &rates)?;
        let log = crate::init::initialize_warm(masked, &rates, strategy, warm)?;
        let shiftable_tasks = (0..log.num_tasks())
            .map(TaskId::from_index)
            .filter(|&k| crate::gibbs::shift::task_fully_free(masked, k))
            .collect();
        Ok(GibbsState {
            log,
            rates,
            free_arrivals: masked.free_arrivals(),
            free_finals: masked.free_final_departures(),
            shiftable_tasks,
            scratch: SweepScratch::default(),
        })
    }

    /// Builds a state from explicit parts (advanced; used by tests and by
    /// waiting-time estimation restarts).
    ///
    /// Errors with [`InferenceError::BadRate`] unless every rate is finite
    /// and strictly positive.
    pub fn from_parts(
        log: EventLog,
        rates: Vec<f64>,
        free_arrivals: Vec<EventId>,
        free_finals: Vec<EventId>,
    ) -> Result<Self, InferenceError> {
        check_rates(log.num_queues(), &rates)?;
        qni_model::constraints::validate(&log).map_err(qni_model::ModelError::from)?;
        Ok(GibbsState {
            log,
            rates,
            free_arrivals,
            free_finals,
            shiftable_tasks: Vec::new(),
            scratch: SweepScratch::default(),
        })
    }

    /// Declares which tasks may receive rigid shift moves (see
    /// [`crate::gibbs::shift`]). Only meaningful with
    /// [`GibbsState::from_parts`]; [`GibbsState::new`] derives the list
    /// from the observation mask.
    pub fn with_shiftable_tasks(mut self, tasks: Vec<TaskId>) -> Self {
        self.shiftable_tasks = tasks;
        self.scratch.invalidate();
        self
    }

    /// Tasks eligible for the rigid shift move.
    pub fn shiftable_tasks(&self) -> &[TaskId] {
        &self.shiftable_tasks
    }

    /// Runs one MH reassignment attempt for each event in `unknown`
    /// (see [`crate::gibbs::reassign`]); returns the number accepted.
    pub fn reassign_unknown<R: rand::Rng + ?Sized>(
        &mut self,
        fsm: &qni_model::Fsm,
        unknown: &[EventId],
        rng: &mut R,
    ) -> Result<usize, InferenceError> {
        // Reassignment can move events between queues, invalidating the
        // cached arrival groups and final/shift shapes.
        self.scratch.invalidate();
        let GibbsState { log, rates, .. } = self;
        crate::gibbs::reassign::reassign_sweep(log, rates, fsm, unknown, rng)
    }

    /// Rebuilds the per-queue arrival-move group structures if stale: one
    /// group per queue with at least one free arrival, events in
    /// `free_arrivals` order, groups ordered by first occurrence (so that
    /// when every group is a singleton, the batched schedule lines up
    /// one-to-one with the scalar schedule). The resolved structures are
    /// move-invariant and reused by every batched sweep until a queue
    /// reassignment invalidates them. Also ensures the final/shift shape
    /// tables ([`GibbsState::ensure_move_shapes`]).
    pub(crate) fn ensure_arrival_groups(&mut self) -> Result<(), InferenceError> {
        self.ensure_move_shapes()?;
        if self.scratch.groups_built {
            return Ok(());
        }
        let mut group_of_queue = vec![u32::MAX; self.log.num_queues()];
        let mut events_by_group: Vec<Vec<EventId>> = Vec::new();
        for &e in &self.free_arrivals {
            let slot = &mut group_of_queue[self.log.queue_of(e).index()];
            if *slot == u32::MAX {
                *slot = events_by_group.len() as u32;
                events_by_group.push(vec![e]);
            } else {
                events_by_group[*slot as usize].push(e);
            }
        }
        self.scratch.groups.clear();
        for events in &events_by_group {
            self.scratch
                .groups
                .push(crate::gibbs::batch::build_group_structure(
                    &self.log, events,
                )?);
        }
        self.scratch.batch.reserve_fallback();
        self.scratch.groups_built = true;
        Ok(())
    }

    /// Rebuilds the final-departure and shift shape tables if stale (see
    /// `gibbs::kernel`): every free final's queue and ρ/ρ⁻¹ neighbours
    /// and every shiftable task's out-of-task neighbours, resolved once
    /// and reused by every sweep until a queue reassignment or a new
    /// shiftable list invalidates them.
    pub(crate) fn ensure_move_shapes(&mut self) -> Result<(), InferenceError> {
        if self.scratch.shapes_built {
            return Ok(());
        }
        let SweepScratch { shapes, kernel, .. } = &mut self.scratch;
        shapes.rebuild(&self.log, &self.free_finals, &self.shiftable_tasks, kernel)?;
        self.scratch.shapes_built = true;
        Ok(())
    }

    /// Resamples one rigid task-shift move in place; returns `δ`.
    ///
    /// Runs the sweep's allocation-free kernel from the cached shape
    /// table; a task outside the shiftable list takes the owned
    /// [`crate::gibbs::shift::resample_shift`] path (bit-identical).
    pub fn move_shift<R: rand::Rng + ?Sized>(
        &mut self,
        k: TaskId,
        rng: &mut R,
    ) -> Result<f64, InferenceError> {
        self.ensure_move_shapes()?;
        let GibbsState {
            log,
            rates,
            scratch,
            ..
        } = self;
        let SweepScratch { shapes, kernel, .. } = scratch;
        match shapes.shift_slot(k) {
            Some(i) => crate::gibbs::shift::resample_shift_shaped(
                log,
                rates,
                shapes.terms(&shapes.shifts[i]),
                kernel,
                rng,
            ),
            None => crate::gibbs::shift::resample_shift(log, rates, k, rng),
        }
    }

    /// The working event log.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// Current per-queue rates (entry 0 is λ).
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Replaces the rates (the StEM M-step), copying into the existing
    /// buffer — no allocation in the per-iteration hot loop.
    ///
    /// Errors with [`InferenceError::BadRate`] unless every rate is finite
    /// and strictly positive.
    pub fn set_rates(&mut self, rates: &[f64]) -> Result<(), InferenceError> {
        check_rates(self.log.num_queues(), rates)?;
        self.rates.copy_from_slice(rates);
        Ok(())
    }

    /// Events whose arrival is resampled each sweep.
    pub fn free_arrivals(&self) -> &[EventId] {
        &self.free_arrivals
    }

    /// Events whose final departure is resampled each sweep.
    pub fn free_finals(&self) -> &[EventId] {
        &self.free_finals
    }

    /// Total number of free variables.
    pub fn num_free(&self) -> usize {
        self.free_arrivals.len() + self.free_finals.len()
    }

    /// Resamples one arrival move in place (exposed for benches and
    /// fine-grained drivers; sweeps should use [`crate::gibbs::sweep`]).
    pub fn move_arrival<R: rand::Rng + ?Sized>(
        &mut self,
        e: EventId,
        rng: &mut R,
    ) -> Result<f64, InferenceError> {
        let GibbsState { log, rates, .. } = self;
        crate::gibbs::arrival::resample_arrival(log, rates, e, rng)
    }

    /// Resamples one final-departure move in place.
    ///
    /// Runs the sweep's allocation-free kernel, from the cached shape
    /// table when `e` is a free final (bit-identical to
    /// [`crate::gibbs::final_departure::resample_final`]).
    pub fn move_final<R: rand::Rng + ?Sized>(
        &mut self,
        e: EventId,
        rng: &mut R,
    ) -> Result<f64, InferenceError> {
        self.ensure_move_shapes()?;
        let GibbsState {
            log,
            rates,
            scratch,
            ..
        } = self;
        let SweepScratch { shapes, kernel, .. } = scratch;
        let shape = match shapes.final_slot(log.task_of(e)) {
            Some(i) if shapes.finals[i].e == e => shapes.finals[i],
            _ => crate::gibbs::final_departure::resolve_final(log, e)?,
        };
        crate::gibbs::final_departure::resample_final_shaped(log, rates, &shape, kernel, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qni_model::topology::tandem;
    use qni_sim::{Simulator, Workload};
    use qni_stats::rng::rng_from_seed;
    use qni_trace::ObservationScheme;

    fn masked() -> MaskedLog {
        let bp = tandem(2.0, &[5.0]).unwrap();
        let mut rng = rng_from_seed(1);
        let truth = Simulator::new(&bp.network)
            .run(&Workload::poisson_n(2.0, 50).unwrap(), &mut rng)
            .unwrap();
        ObservationScheme::task_sampling(0.5)
            .unwrap()
            .apply(truth, &mut rng)
            .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let m = masked();
        let state = GibbsState::new(&m, vec![2.0, 5.0], InitStrategy::default()).unwrap();
        assert_eq!(state.rates(), &[2.0, 5.0]);
        assert_eq!(
            state.num_free(),
            m.free_arrivals().len() + m.free_final_departures().len()
        );
        qni_model::constraints::validate(state.log()).unwrap();
    }

    #[test]
    fn set_rates_validates_shape() {
        let m = masked();
        let mut state = GibbsState::new(&m, vec![2.0, 5.0], InitStrategy::default()).unwrap();
        assert!(state.set_rates(&[1.0]).is_err());
        state.set_rates(&[3.0, 4.0]).unwrap();
        assert_eq!(state.rates(), &[3.0, 4.0]);
    }

    #[test]
    fn from_parts_validates() {
        let m = masked();
        let truth = m.ground_truth().clone();
        let s = GibbsState::from_parts(truth.clone(), vec![2.0, 5.0], vec![], vec![]);
        assert!(s.is_ok());
        assert!(GibbsState::from_parts(truth, vec![1.0], vec![], vec![]).is_err());
    }

    #[test]
    fn structural_changes_rebuild_the_move_shapes() {
        use crate::gibbs::shard::ShardMode;
        use crate::gibbs::sweep::{sweep_with_opts, BatchMode};
        use qni_model::topology::three_tier;
        // A two-server tier: reassignment moves events between servers
        // and rewires their ρ/ρ⁻¹ neighbours.
        let bp = three_tier(2.0, 6.0, &[2], false).unwrap();
        let mut rng = rng_from_seed(1);
        let log = Simulator::new(&bp.network)
            .run(&Workload::poisson_n(2.0, 30).unwrap(), &mut rng)
            .unwrap();
        let rates = bp.network.rates().unwrap();
        let finals: Vec<_> = log.event_ids().filter(|&e| log.is_final_event(e)).collect();
        let tasks: Vec<_> = (0..log.num_tasks()).map(TaskId::from_index).collect();
        let unknown: Vec<_> = log
            .event_ids()
            .filter(|&e| !log.is_initial_event(e))
            .collect();
        let mut state = GibbsState::from_parts(log, rates.clone(), vec![], finals.clone())
            .unwrap()
            .with_shiftable_tasks(tasks.clone());
        let mut rng = rng_from_seed(2);
        sweep_with_opts(&mut state, BatchMode::Grouped, ShardMode::Serial, &mut rng).unwrap();
        let accepted = state
            .reassign_unknown(bp.network.fsm(), &unknown, &mut rng)
            .unwrap();
        assert!(accepted > 0, "fixture made no reassignment");
        // Kernel moves on the rewired log still equal the owned
        // conditionals, which resolve their neighbours live.
        let mut oracle = state.log().clone();
        let (mut rk, mut ro) = (rng_from_seed(3), rng_from_seed(3));
        for (&e, &k) in finals.iter().zip(&tasks) {
            let x = state.move_final(e, &mut rk).unwrap();
            let y = crate::gibbs::final_departure::resample_final(&mut oracle, &rates, e, &mut ro)
                .unwrap();
            assert_eq!(x.to_bits(), y.to_bits(), "final move of {e}");
            let x = state.move_shift(k, &mut rk).unwrap();
            let y = crate::gibbs::shift::resample_shift(&mut oracle, &rates, k, &mut ro).unwrap();
            assert_eq!(x.to_bits(), y.to_bits(), "shift move of {k}");
        }
        // A new shiftable list takes effect at the next sweep.
        let mut state = state.with_shiftable_tasks(Vec::new());
        assert_eq!(
            sweep_with_opts(&mut state, BatchMode::Grouped, ShardMode::Serial, &mut rng)
                .unwrap()
                .shift_moves,
            0
        );
    }

    #[test]
    fn bad_rates_are_rejected_with_a_typed_error() {
        let m = masked();
        let is_bad_rate = |r: Result<(), InferenceError>, bad: f64| match r {
            Err(InferenceError::BadRate { queue, value }) => {
                queue == QueueId(1) && value.to_bits() == bad.to_bits()
            }
            _ => false,
        };
        let mut state = GibbsState::new(&m, vec![2.0, 5.0], InitStrategy::default()).unwrap();
        for bad in [-1.0, f64::INFINITY, f64::NAN, 0.0] {
            let rates = vec![2.0, bad];
            assert!(
                is_bad_rate(
                    GibbsState::new(&m, rates.clone(), InitStrategy::default()).map(drop),
                    bad
                ),
                "new accepted {bad}"
            );
            let truth = m.ground_truth().clone();
            assert!(
                is_bad_rate(
                    GibbsState::from_parts(truth, rates.clone(), vec![], vec![]).map(drop),
                    bad
                ),
                "from_parts accepted {bad}"
            );
            assert!(
                is_bad_rate(state.set_rates(&rates), bad),
                "set_rates accepted {bad}"
            );
            // A rejected M-step leaves the previous rates in place.
            assert_eq!(state.rates(), &[2.0, 5.0]);
            let opts = crate::stem::StemOptions::default();
            let mut rng = rng_from_seed(2);
            let fit = crate::stem::run_stem(&m, Some(&rates), &opts, &mut rng);
            assert!(is_bad_rate(fit.map(drop), bad), "run_stem accepted {bad}");
        }
    }
}
