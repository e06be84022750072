//! # adampack-io
//!
//! Mesh and particle I/O for the adampack workspace — the Trimesh-I/O
//! substitute.
//!
//! * [`stl`] — STL containers: the paper's configurations reference generic
//!   convex shapes "provided as a generic STL file"; both the ASCII and
//!   binary dialects are read and written, with auto-detection.
//! * [`csv`] — particle tables (`x,y,z,radius,batch,set`) for downstream
//!   DEM tooling.
//! * [`vtk`] — legacy-VTK point clouds with radius/batch point data, for
//!   ParaView visualization of packings (Figs. 1, 10, 11).
//! * [`xyz`] — minimal XYZ point format.
//! * [`atomic`] — torn-write-proof file replacement and the rotating
//!   checkpoint writer the resume pipeline builds on.
//! * [`error`] — unified typed error carrying the offending path for
//!   file-level entry points.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod atomic;
pub mod csv;
pub mod error;
pub mod stl;
pub mod vtk;
pub mod xyz;

pub use atomic::{
    checkpoint_candidates, load_newest_checkpoint, write_atomic, RotatingCheckpointWriter,
    FAILPOINT_WRITE_ENOSPC,
};
pub use csv::{read_particles_csv, write_particles_csv};
pub use error::{read_stl_path, Error};
pub use stl::{read_stl, read_stl_file, write_stl_ascii, write_stl_binary, StlError};
pub use vtk::{write_mesh_vtk, write_particles_vtk};
pub use xyz::{read_xyz, write_xyz};
