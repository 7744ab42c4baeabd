//! # sdr-rdma — software-defined reliability for planetary-scale RDMA
//!
//! A simulator-backed, from-scratch Rust reproduction of *SDR-RDMA:
//! Software-Defined Reliability Architecture for Planetary Scale RDMA
//! Communication* (SC 2025). The facade re-exports the workspace crates:
//!
//! * [`sim`] — discrete-event network substrate: lossy long-haul links,
//!   bottleneck queues, and an RDMA NIC model (UC/UD, memory keys, CQs).
//! * [`erasure`] — GF(2^8), Reed–Solomon (MDS) and the paper's XOR code.
//! * [`model`] — completion-time models: analytic Selective Repeat
//!   (Appendix A), EC success probabilities (Appendix B), samplers.
//! * [`core`] — the SDR SDK itself: Table 1's partial-message-completion
//!   API with chunk bitmaps, generations and multi-channel striping.
//! * [`dpa`] — the simulated Data Path Accelerator: multi-threaded
//!   completion processing for the line-rate experiments.
//! * [`reliability`] — the reliability schemes (Selective Repeat, erasure
//!   coding, Go-Back-N) behind one scheme table, the model-guided protocol
//!   advisor, the adaptive controller that hands a live transfer from one
//!   scheme to another, and the many-flow manager.
//! * [`collectives`] — inter-datacenter ring Allreduce (model-driven and
//!   full-stack).
//!
//! ## Quickstart
//!
//! ```
//! use sdr_rdma::core::testkit::{pattern, sdr_pair};
//! use sdr_rdma::core::SdrConfig;
//! use sdr_rdma::sim::LinkConfig;
//!
//! // Two nodes over an ideal link, one connected SDR QP pair.
//! let mut p = sdr_pair(LinkConfig::intra_dc(8e9), SdrConfig::default(), 64 << 20);
//! let data = pattern(100_000, 7);
//! let src = p.ctx_a.alloc_buffer(1 << 20);
//! let dst = p.ctx_b.alloc_buffer(1 << 20);
//! p.ctx_a.write_buffer(src, &data);
//!
//! // Table 1 flow: recv_post (sends CTS) → send_post → poll the bitmap.
//! let rh = p.qp_b.recv_post(&mut p.eng, dst, data.len() as u64).unwrap();
//! p.qp_a.send_post(&mut p.eng, src, data.len() as u64, None).unwrap();
//! p.eng.run();
//!
//! assert!(p.qp_b.recv_is_complete(&rh).unwrap());
//! assert_eq!(p.ctx_b.read_buffer(dst, data.len()), data);
//! ```

#![warn(missing_docs)]

pub use sdr_collectives as collectives;
pub use sdr_core as core;
pub use sdr_dpa as dpa;
pub use sdr_erasure as erasure;
pub use sdr_model as model;
pub use sdr_reliability as reliability;
pub use sdr_sim as sim;
