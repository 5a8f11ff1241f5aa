//! The offline fit rebuilt from its layer calls, one span per call.
//!
//! Chain `k` of `run_stem_parallel` is `GibbsState::new_warm` → (sweep →
//! `mstep::update_rates` → `set_rates`) × iterations → waiting sweeps, drawn
//! from `rng_from_seed(split_seed(master, k))` (the scheme documented in
//! `qni_core::chains`), followed by `rate_trace_diagnostics` over every
//! chain. The rebuild runs exactly those calls, so its rate traces must be
//! bit-identical to the untraced fit's.

use crate::spans::Recorder;
use crate::stats::median;
use qni_core::diagnostics::{rate_trace_diagnostics, ChainDiagnostics};
use qni_core::gibbs::sweep::{sweep_with_opts, SweepStats};
use qni_core::mstep::update_rates;
use qni_core::stem::{heuristic_rates, StemOptions};
use qni_core::{GibbsState, InferenceError, ParallelStemOptions};
use qni_stats::rng::{rng_from_seed, split_seed};
use qni_trace::MaskedLog;
use std::time::Instant;

/// One rebuilt chain.
pub struct Chain {
    /// Rate after every StEM iteration.
    pub rate_trace: Vec<Vec<f64>>,
    /// Sampler state after the waiting phase.
    pub state: GibbsState,
    /// Summed statistics of every sweep (StEM and waiting).
    pub stats: SweepStats,
    /// Number of sweeps.
    pub sweeps: usize,
}

/// The rebuilt fit.
pub struct Rebuilt {
    /// Chains in chain order.
    pub chains: Vec<Chain>,
    /// Diagnostics over the post-burn-in traces.
    pub diagnostics: ChainDiagnostics,
    /// Wall seconds from the first chain's start to the diagnostics' end.
    pub wall_s: f64,
}

/// Adds `s` into `total`.
pub fn add(total: &mut SweepStats, s: SweepStats) {
    total.arrival_moves += s.arrival_moves;
    total.final_moves += s.final_moves;
    total.shift_moves += s.shift_moves;
    total.arrival_groups += s.arrival_groups;
    total.group_fallbacks += s.group_fallbacks;
}

fn chain(
    masked: &MaskedLog,
    opts: &StemOptions,
    seed: u64,
    rec: &mut Recorder,
) -> Result<Chain, InferenceError> {
    rec.span("core.chain", |rec| {
        let mut rng = rng_from_seed(seed);
        let mut state = rec.span("core.init", |_| {
            GibbsState::new_warm(masked, heuristic_rates(masked), opts.init, None)
        })?;
        let mut stats = SweepStats::default();
        let mut sweeps = 0;
        let mut sweep =
            |state: &mut GibbsState, rec: &mut Recorder| -> Result<(), InferenceError> {
                let s = rec.span("core.gibbs.sweep", |_| {
                    sweep_with_opts(state, opts.batch, opts.shard, &mut rng)
                })?;
                add(&mut stats, s);
                sweeps += 1;
                Ok(())
            };
        let mut rates = state.rates().to_vec();
        let mut rate_trace = Vec::with_capacity(opts.iterations);
        for _ in 0..opts.iterations {
            sweep(&mut state, rec)?;
            rec.span("core.mstep", |_| {
                update_rates(&mut rates, state.log())?;
                state.set_rates(&rates)
            })?;
            rate_trace.push(rates.clone());
        }
        let kept = &rate_trace[opts.burn_in..];
        let mean: Vec<f64> = (0..rates.len())
            .map(|q| kept.iter().map(|row| row[q]).sum::<f64>() / kept.len() as f64)
            .collect();
        state.set_rates(&mean)?;
        rec.span("core.stem.waiting_phase", |rec| {
            let mut avgs = Vec::new();
            for _ in 0..opts.waiting_sweeps.max(1) {
                sweep(&mut state, rec)?;
                state.log().queue_averages_into(&mut avgs);
            }
            Ok::<(), InferenceError>(())
        })?;
        Ok(Chain {
            rate_trace,
            state,
            stats,
            sweeps,
        })
    })
}

/// Rebuilds `run_stem_parallel(masked, None, opts)`: chain 0 on this
/// thread, the others on scoped threads, as the library runs them.
pub fn rebuild(
    masked: &MaskedLog,
    opts: &ParallelStemOptions,
    rec: &mut Recorder,
    origin: Instant,
) -> Result<Rebuilt, InferenceError> {
    let t0 = Instant::now();
    let seeds: Vec<u64> = (0..opts.chains)
        .map(|k| split_seed(opts.master_seed, k as u64))
        .collect();
    let stem = &opts.stem;
    let (first, rest) = std::thread::scope(|s| {
        let handles: Vec<_> = seeds[1..]
            .iter()
            .enumerate()
            .map(|(i, &seed)| {
                s.spawn(move || {
                    let mut r = Recorder::new(origin);
                    r.set_run(i as u64 + 1);
                    (chain(masked, stem, seed, &mut r), r)
                })
            })
            .collect();
        rec.set_run(0);
        let first = chain(masked, stem, seeds[0], rec);
        let rest: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("chain thread panicked"))
            .collect();
        (first, rest)
    });
    let mut chains = vec![first?];
    for (c, r) in rest {
        rec.absorb(r);
        chains.push(c?);
    }
    let diagnostics = rec.span("core.diagnostics", |_| {
        let kept: Vec<&[Vec<f64>]> = chains
            .iter()
            .map(|c| &c.rate_trace[stem.burn_in..])
            .collect();
        rate_trace_diagnostics(&kept)
    })?;
    Ok(Rebuilt {
        chains,
        diagnostics,
        wall_s: t0.elapsed().as_secs_f64(),
    })
}

/// Median microseconds per move of one type: `reps` timed loops, each
/// cycling through `items` until at least `min_moves` moves were made.
/// Returns `None` when the state has no such move.
pub fn us_per_move<T: Copy>(
    rec: &mut Recorder,
    name: &'static str,
    items: &[T],
    reps: usize,
    min_moves: usize,
    mut mv: impl FnMut(T) -> Result<f64, InferenceError>,
) -> Result<Option<f64>, InferenceError> {
    if items.is_empty() {
        return Ok(None);
    }
    let passes = min_moves.div_ceil(items.len());
    let mut per_move = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        rec.span(name, |_| {
            for _ in 0..passes {
                for &x in items {
                    std::hint::black_box(mv(x)?);
                }
            }
            Ok::<(), InferenceError>(())
        })?;
        per_move.push(t0.elapsed().as_secs_f64() * 1e6 / (passes * items.len()) as f64);
    }
    Ok(Some(median(&per_move)))
}
