//! A steady-state grouped sweep makes no heap allocation.
//!
//! Every per-sweep buffer — the schedule, the arrival groups and their
//! wave workspace, the final-departure and shift shape tables and the
//! conditional kernel's staging and density buffers — is sized when the
//! state's structural tables are built, or by the first sweep. This test
//! binary installs a counting global allocator and checks that, after one
//! warm-up sweep, further grouped sweeps over a task-sampled three-tier
//! trace (arrival groups, final-departure and shift moves alike) allocate
//! nothing. It lives in its own binary so the allocator sees no other
//! test.

use qni_core::gibbs::sweep::sweep_batched;
use qni_core::init::InitStrategy;
use qni_core::GibbsState;
use qni_model::topology::three_tier;
use qni_sim::{Simulator, Workload};
use qni_stats::rng::rng_from_seed;
use qni_trace::ObservationScheme;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards to the system allocator, counting the allocations made by
/// threads that opted in.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

#[allow(unsafe_code)]
// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// relaxed atomic and the thread-local flag needs no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s
        // contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: forwarded verbatim; `ptr` was allocated by `System`
        // through this allocator with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` was allocated by `System`
        // through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on the calling thread.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn grouped_sweeps_allocate_nothing_after_warm_up() {
    // The counter sees this thread's allocations.
    let (_, n) = allocations_in(|| std::hint::black_box(vec![0u8; 64]));
    assert!(n >= 1, "counting allocator is not installed");

    let bp = three_tier(10.0, 5.0, &[1, 2, 4], false).expect("topology");
    let mut rng = rng_from_seed(7);
    let truth = Simulator::new(&bp.network)
        .run(&Workload::poisson_n(10.0, 400).expect("workload"), &mut rng)
        .expect("simulation");
    let masked = ObservationScheme::task_sampling(0.1)
        .expect("fraction")
        .apply(truth, &mut rng)
        .expect("mask");
    let rates = bp.network.rates().expect("rates");
    let mut state = GibbsState::new(&masked, rates, InitStrategy::default()).expect("state");
    assert!(
        !state.shiftable_tasks().is_empty(),
        "fixture has no shift moves"
    );
    assert!(
        !state.free_finals().is_empty(),
        "fixture has no final moves"
    );

    let mut rng = rng_from_seed(8);
    sweep_batched(&mut state, &mut rng).expect("warm-up sweep");
    for i in 0..5 {
        let (stats, allocations) = allocations_in(|| sweep_batched(&mut state, &mut rng));
        let stats = stats.expect("sweep");
        assert!(stats.shift_moves > 0 && stats.final_moves > 0 && stats.arrival_groups > 0);
        assert_eq!(allocations, 0, "sweep {i} allocated {allocations} times");
    }
}
