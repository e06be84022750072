//! The optimizer abstraction shared by all update rules.

use crate::state::{OptimizerState, StateMismatch};

/// A first-order optimizer over a flat parameter vector.
///
/// Implementations keep per-parameter state (moments, accumulators) sized at
/// construction; `step` panics if the slice lengths disagree with that size,
/// because silently resizing state would corrupt moment estimates.
pub trait Optimizer: Send {
    /// Applies one update: `params ← params - update(grads)`.
    fn step(&mut self, params: &mut [f64], grads: &[f64]);

    /// Current base learning rate.
    fn lr(&self) -> f64;

    /// Replaces the base learning rate (used by schedulers).
    fn set_lr(&mut self, lr: f64);

    /// Number of parameters this optimizer was sized for.
    fn n_params(&self) -> usize;

    /// Number of `step` calls since construction.
    fn steps_taken(&self) -> u64;

    /// Copies the complete mutable state (step counter, learning rate,
    /// every slot vector) into `out`, reusing its buffers. A later
    /// [`Optimizer::load_state`] of the snapshot into an identically
    /// configured optimizer reproduces the remaining trajectory bitwise.
    fn save_state(&self, out: &mut OptimizerState);

    /// Restores state captured by [`Optimizer::save_state`]. Fails when the
    /// snapshot's shape (slot count or lengths) does not match this
    /// optimizer; hyper-parameters are kept, except the learning rate,
    /// which is restored from the snapshot.
    fn load_state(&mut self, state: &OptimizerState) -> Result<(), StateMismatch>;
}

/// Validates slice lengths against the optimizer's state size.
pub(crate) fn check_sizes(n: usize, params: &[f64], grads: &[f64]) {
    assert!(
        params.len() == n && grads.len() == n,
        "optimizer sized for {n} params, got params.len() = {}, grads.len() = {}",
        params.len(),
        grads.len()
    );
}
