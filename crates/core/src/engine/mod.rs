//! The Top-K SpMV dataflow engine (Algorithm 1).
//!
//! [`run_core`] is a functional emulation of one FPGA core's four-stage
//! pipeline over a BS-CSR packet stream; [`run_multicore`] executes `c`
//! cores over a partitioned matrix and merges their per-partition Top-k
//! lists (§III-A). Arithmetic is bit-exact with respect to the selected
//! [`tkspmv_fixed::SpmvScalar`]; cycle counts come from the packet/burst
//! model in [`tkspmv_hw`].

mod core_model;
mod multicore;

pub use core_model::{
    quantize_vector, run_core, run_core_batch_with_scratch, run_core_with_scratch, BatchScratch,
    CoreOutput, CoreScratch, CoreStats, Fidelity,
};
pub use multicore::{run_multicore, run_multicore_batch, MulticoreOutput};
