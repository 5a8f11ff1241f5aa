//! The Gibbs moves of the paper's Section 3.
//!
//! - [`arrival`]: resampling an unobserved arrival `a_e` (jointly with the
//!   tied predecessor departure `d_{π(e)} = a_e`) — the sampler of the
//!   paper's Figure 3, realized through the general piecewise log-linear
//!   construction (the [`arrival`] module docs derive it, and
//!   [`arrival::figure3_weights`] checks it against the paper's
//!   `Z1/Z2/Z3` segments).
//! - [`final_departure`]: resampling a task's exit time, which the paper's
//!   event convention leaves as a separate free variable.
//! - [`shift`]: the rigid task-shift move, translating every free time of
//!   a fully unobserved task by one exactly sampled `δ`.
//! - `kernel`: the conditional kernel final-departure and shift moves
//!   share — one support classifier, reusable staging buffers, and the
//!   per-state shape tables that let a sweep run both move types without
//!   a heap allocation.
//! - [`sweep`]: one full randomized sweep over all free variables.
//! - [`batch`]: the batched same-queue arrival engine — groups a sweep's
//!   arrival moves per queue and amortizes the conditional construction
//!   across each group, with conflict-set fallback to the scalar path.
//! - [`shard`]: intra-trace sharding — fans each wave's draw-free
//!   prepare phase out across worker threads, bit-identical to the
//!   serial batched sweep at every shard count.
//! - [`pool`]: the persistent wave-prepare worker pool — long-lived
//!   threads parked on channels so sharded dispatch costs one enqueue
//!   and one rendezvous per wave instead of a thread spawn.
//! - [`numeric`]: brute-force numerical conditionals used to validate the
//!   closed forms in tests and benches.

pub mod arrival;
pub mod batch;
pub mod final_departure;
pub(crate) mod kernel;
pub mod numeric;
pub mod pool;
pub mod reassign;
pub mod shard;
pub mod shift;
pub mod sweep;
