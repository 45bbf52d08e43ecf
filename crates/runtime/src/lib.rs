//! # cocopelia-runtime
//!
//! The end-to-end CoCoPeLia BLAS offload library of §IV-C: a tile scheduler
//! with square tiling, full tile reuse, 3-way overlap over one stream per
//! operation type, and runtime tiling-size selection driven by the
//! `cocopelia-core` prediction models.
//!
//! Entry point: [`Cocopelia`], wrapping a simulated device
//! ([`cocopelia_gpusim::Gpu`]) and a deployed
//! [`SystemProfile`](cocopelia_core::profile::SystemProfile).
//!
//! Routines are described by typed request builders — [`GemmRequest`],
//! [`AxpyRequest`], [`DotRequest`], [`GemvRequest`] (the paper's "extension
//! skeleton" routine) — executed either directly
//! ([`GemmRequest::run`], [`Cocopelia::submit`]) or queued through the
//! concurrent serving layer ([`serve::ServeSession`]). Each operand lives on
//! the host (with or without data), already on the device, or in the
//! executor's cross-request residency cache, and each request carries a
//! [`TileChoice`]: automatic model-driven selection, a specific model (for
//! the Fig. 6 comparisons), or a fixed `T` à la cuBLASXt.

#![deny(missing_docs)]

mod ctx;
mod error;
mod fault;
mod operand;
mod request;
mod scheduler;

pub mod multigpu;
pub mod serve;

pub use ctx::{Cocopelia, DotResult, GemmResult, RoutineReport, VecResult};
pub use error::{FaultClass, RequestError, RequestId, RuntimeError};
pub use fault::RetryPolicy;
pub use multigpu::{MultiGemmResult, MultiGpu};
pub use operand::{DeviceMatrix, DeviceVector, MatOperand, TileChoice, VecOperand};
pub use request::{
    AxpyRequest, DotRequest, GemmRequest, GemvRequest, MatArg, RoutineRequest, SharedMat,
    SharedOperandSpec, SharedVec, VecArg,
};
