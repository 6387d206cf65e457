//! Dataflow-aware mapping of DNN layers onto PIM chiplet systems.
//!
//! Implements the mapping layer of the DATE 2024 paper: the SFC
//! (Floret) strategy that packs consecutive neural layers onto contiguous
//! chiplets along the space-filling curve ([`map_task_sfc`]), the greedy
//! nearest-hop baseline used for mesh/Kite/SWAP ([`map_task_greedy`]),
//! the queue-based multi-wave scheduler ([`run_queue`]) and the expansion
//! of placements into inter-chiplet transfers
//! ([`transfers_for_batch_mapped_into`]) that the `netsim` crate replays.
//!
//! # Examples
//!
//! ```
//! use dnn::{build_model, Dataset, ModelKind, SegmentGraph};
//! use mapper::{run_queue, Strategy};
//!
//! let net = build_model(ModelKind::ResNet18, Dataset::ImageNet)?;
//! let task = SegmentGraph::from_layer_graph(&net);
//! let (_, layout) = topology::floret(10, 10, 6)?;
//! let out = run_queue(&vec![task; 10], 100, 1_000_000, &Strategy::sfc(&layout));
//! assert_eq!(out.mapped_tasks(), 10);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arrivals;
mod greedy;
mod placement;
mod scheduler;
pub mod search;
mod sfc;
mod transfers;

pub use arrivals::{
    run_poisson, run_service, sample_arrivals, ArrivalConfig, ArrivalProcess, ServiceOutcome,
};
pub use greedy::{map_task_greedy, GreedyConfig};
pub use placement::{CapacityLedger, MapError, NodeShare, SegmentPlacement, TaskId, TaskPlacement};
pub use scheduler::{
    run_churn, run_churn_with_ledger, run_queue, ChurnOutcome, QueueOutcome, Strategy,
    StrategyKind, Wave,
};
pub use search::{search_model, MappingProblem, SearchOptions, SearchOutcome};
pub use sfc::{contiguity_score, map_task_sfc, sfc_order};
pub use transfers::{
    placement_transfers, transfers_for_batch_into, transfers_for_batch_mapped_into, Transfer,
};
