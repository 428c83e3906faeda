//! Benchmark workloads and the multithreaded driver (paper §4).
//!
//! Every workload runs unmodified on all three systems under evaluation —
//! ERMIA-SI, ERMIA-SSN, and Silo-OCC — through the [`Engine`] trait
//! ("ERMIA uses the same benchmark code ... as Silo's", §4.1):
//!
//! * [`micro`] — the §4.2 microbenchmark: read a random subset of a
//!   Stock-like table, update a smaller fraction (Fig. 1).
//! * [`tpcc`] — TPC-C with warehouse partitioning and the paper's 1% / 15%
//!   cross-partition NewOrder / Payment rates (Figs. 2, 7, 8).
//! * [`tpcc_hybrid`] — TPC-C plus the TPC-CH-Q2\* read-mostly transaction
//!   over a Supplier table (Figs. 2, 5, 12; Table 1).
//! * [`tpce`] — reduced-fidelity TPC-E brokerage workload with the
//!   paper's 10-transaction mix (Fig. 7).
//! * [`tpce_hybrid`] — TPC-E plus the AssetEval read-mostly transaction
//!   (Figs. 6, 9; Table 1).
//!
//! The [`driver`] runs a workload for a fixed duration on N threads and
//! reports per-transaction-type commit/abort counts, abort reasons and
//! latencies — the raw series behind every figure in the evaluation.

pub mod driver;
pub mod engine;
pub mod micro;
pub mod rng;
pub mod tpcc;
pub mod tpcc_hybrid;
pub mod tpce;
pub mod tpce_hybrid;

pub use driver::{run, BenchResult, RunConfig, TypeStats};
pub use engine::{
    index_routing, table_policy, Engine, EngineTxn, EngineWorker, ErmiaEngine, SiloEngine,
    TxnProfile,
};

pub use ermia_common::{AbortReason, IndexId, OpResult, TableId, TxResult};
