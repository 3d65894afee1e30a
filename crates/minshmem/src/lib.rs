//! `hpcbd-minshmem` — an OpenSHMEM-like PGAS runtime on `simnet`.
//!
//! Reproduces the PGAS surface the paper surveys (Sec. II-C): SPMD launch
//! of a fixed set of processing elements (PEs), a **symmetric heap** — the
//! same objects exist at the same logical addresses on every PE — and
//! **one-sided** put/get/atomic operations that complete without any
//! involvement of the target PE's CPU, exploiting the RDMA offload of the
//! modeled FDR InfiniBand fabric. Synchronization uses put-with-signal
//! (the RDMA-native notification idiom) rather than two-sided matching.
//!
//! The paper singles OpenSHMEM out as "particularly advantageous for
//! applications with many small put/get operations and/or irregular
//! communication patterns ... graph traversal, sorting" — the
//! `ablation_shmem_pagerank` harness exercises exactly that claim.
//!
//! # Example
//!
//! ```
//! use hpcbd_minshmem::shmem_run;
//! use hpcbd_cluster::Placement;
//!
//! let out = shmem_run(Placement::new(2, 2), |pe| {
//!     let arr = pe.malloc::<u64>("ranks", 4, 0);
//!     // Every PE writes its id into slot `me` of PE 0's array.
//!     let me = pe.pe();
//!     pe.put(&arr, me as usize, &[me as u64], 0);
//!     pe.barrier_all();
//!     pe.local_clone(&arr)
//! });
//! assert_eq!(out.results[0], vec![0, 1, 2, 3]);
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
pub mod collectives;
pub mod heap;
pub mod launch;
pub mod pe;
pub mod scheduled;

pub use checkpoint::ShmemCheckpointer;
pub use heap::{SymArray, SymHeaps};
pub use launch::{shmem_run, shmem_run_faulty, shmem_run_on, ShmemJob, ShmemOutput};
pub use pe::PeCtx;
pub use scheduled::scheduled_pagerank;
