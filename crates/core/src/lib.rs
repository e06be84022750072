//! # adampack-core
//!
//! Collective-arrangement sphere packing with Adam/AMSGrad — a from-scratch
//! Rust implementation of *"Rapid Random Packing of Poly-disperse Spheres
//! using Adam Stochastic Optimization"* (Novikov & Besseron, IPPS 2025).
//!
//! The algorithm packs spheres with **prescribed radii** (a user-defined
//! particle-size distribution) into a convex triangular-mesh container by
//! minimizing the paper's objective
//!
//! ```text
//! Z(C) = α·P(C,C) + β·A(C) + γ·E_H(C) + α·P(C,C')        (paper eq. 5)
//! ```
//!
//! with the AMSGrad variant of Adam, batch by batch ("layer by layer"):
//! particles of previous layers stay fixed while a new batch spawned above
//! the bed is optimized, and failed batches are retried at half size until
//! the container is full (paper Algorithm 1).
//!
//! ## Crate layout
//!
//! * [`objective`] — the objective terms and their closed-form analytic
//!   gradients (verified against `adampack-autograd` and finite differences
//!   in the test suite), with Rayon-parallel kernels,
//! * [`neighbor`] — the neighbor pipeline: a flat CSR cell grid
//!   ([`neighbor::CsrGrid`]), skin-padded Verlet candidate lists and the
//!   allocation-free step [`neighbor::Workspace`] that make both
//!   penetration terms O(n·k) with amortized pair search,
//! * [`psd`] — particle-size distributions (Constant / Uniform / Normal /
//!   LogNormal and mixtures),
//! * [`collective`] — Algorithm 1's stepping API ([`CollectivePacker`]),
//! * [`batch`] — the run driver ([`BatchedPacker`]): plain runs, parameter
//!   sweeps and zoned runs, with checkpoints and resume,
//! * [`zone`] — zoned packings (slice or mesh sub-regions with particle-set
//!   mixes, §VI-A),
//! * [`baseline`] — RSA and drop-and-roll baseline packers for the Table I
//!   comparison,
//! * [`metrics`] — contact-overlap statistics, PSD adherence and density
//!   measurement,
//! * [`runner`] — the paper's "Abstract Algorithm Runner": a trait plus a
//!   string-keyed registry so packing algorithms are interchangeable.
//!
//! ## Quickstart
//!
//! ```
//! use adampack_core::prelude::*;
//! use adampack_geometry::{shapes, Vec3};
//!
//! // A 2×2×2 box container, as in the paper's density study (§V-A).
//! let mesh = shapes::box_mesh(Vec3::ZERO, Vec3::splat(2.0));
//! let container = Container::from_mesh(&mesh).unwrap();
//!
//! let params = PackingParams {
//!     batch_size: 64,
//!     target_count: 64,
//!     seed: 42,
//!     ..PackingParams::default()
//! };
//! let psd = Psd::constant(0.18);
//! let result = CollectivePacker::new(container, params).pack(&psd);
//! assert!(result.particles.len() > 20);
//! // Every sphere stays inside the container within tolerance.
//! for p in &result.particles {
//!     assert!(result.container.contains_sphere(p.center, p.radius, 0.05 * p.radius));
//! }
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod admission;
pub mod analysis;
pub mod baseline;
pub mod batch;
pub mod checkpoint;
pub mod collective;
pub mod container;
pub mod diagnostics;
pub(crate) mod kernels;
pub mod manifest;
pub mod metrics;
pub mod neighbor;
pub mod objective;
pub mod params;
pub mod particle;
pub mod postprocess;
pub mod psd;
pub mod report;
pub mod runner;
pub mod zone;

/// Revision of the packing arithmetic, bumped by every intended change of
/// the output bytes for unchanged inputs. Folded into every checkpoint
/// fingerprint and content address, so state written under another
/// revision is never resumed or served.
///
/// * 0 — the packing through the Morton sweep order and the 0.4 r skin.
/// * 1 — each Verlet row lists its candidates in ascending index: one
///   pair order for every skin, grid and strategy.
pub const PACKING_REVISION: u32 = 1;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::admission::{estimate_cost, CostEstimate};
    pub use crate::baseline::{DropAndRollPacker, RsaPacker};
    pub use crate::batch::{BatchedPacker, DriverState, PassStats, SystemReport, SystemSpec};
    pub use crate::checkpoint::{BatchedRunState, BatchedSystemState, CheckpointError, RunState};
    pub use crate::collective::{
        BatchPhaseBreakdown, BatchStats, CheckpointCadence, CheckpointSink, CollectivePacker,
        PackError, PackResult, RunProgress,
    };
    pub use crate::container::Container;
    pub use crate::diagnostics::{DiagEngine, DiagMode, DiagSummary};
    pub use crate::manifest::{ArtifactEntry, RunManifest};
    pub use crate::metrics::{contact_stats, psd_adherence, ContactStats};
    pub use crate::neighbor::{CsrGrid, FixedBed, NeighborStrategy, VerletLists, Workspace};
    pub use crate::objective::{Objective, ObjectiveBreakdown, ObjectiveWeights};
    pub use crate::params::{
        LrPolicy, NeighborParams, OptimizerKind, PackingParams, SentinelParams,
    };
    pub use crate::particle::Particle;
    pub use crate::psd::Psd;
    pub use crate::runner::{registry, PackingAlgorithm};
    pub use crate::zone::{EmptyZone, ZoneRegion, ZoneSpec};
    pub use adampack_opt::Kernel;
}

pub use prelude::*;
