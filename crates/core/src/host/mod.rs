//! Host API (paper Sec. II-B).
//!
//! The layer a host program uses: allocate device buffers, transfer
//! data, invoke BLAS routines on the (simulated) FPGA, and read results
//! back. Calls come in synchronous form (return when the computation is
//! done) and asynchronous form (return an [`Event`]
//! immediately), mirroring the OpenCL programming flow.

pub mod blas;
pub mod buffer;
pub mod classic;
pub mod context;
pub mod event;

pub use blas::GemvTuning;
pub use buffer::DeviceBuffer;
pub use context::Fpga;
pub use event::{enqueue, enqueue_traced, Event};
