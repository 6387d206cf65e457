//! ReRAM processing-in-memory compute model for PIM-enabled manycore
//! accelerators.
//!
//! Models the compute substrate of the DATE 2024 paper: ReRAM crossbar
//! chiplets/PEs ([`PimConfig`]), the per-layer chiplet requirements and
//! latency/energy costs that drive mapping ([`segment_cost`]), the
//! programming (write) costs that penalize dynamic remapping, and the
//! temperature-dependent conductance-window model behind the Section III
//! accuracy analysis ([`ThermalNoiseModel`]).
//!
//! # Examples
//!
//! ```
//! use dnn::{build_model, Dataset, ModelKind, SegmentGraph};
//! use pim::{segment_cost, PimConfig};
//!
//! let net = build_model(ModelKind::ResNet18, Dataset::ImageNet)?;
//! let sg = SegmentGraph::from_layer_graph(&net);
//! let cfg = PimConfig::default();
//! // Each weighted layer occupies at least one chiplet.
//! let nodes: u64 = sg.segments().iter()
//!     .map(|s| segment_cost(s, &cfg).nodes)
//!     .sum();
//! assert!(nodes >= sg.segment_count() as u64 - 1);
//! # Ok::<(), dnn::GraphError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod accuracy;
mod compute;
mod config;

pub use accuracy::{baseline_top1, ThermalNoiseModel};
pub use compute::{
    model_cost_mapped, model_cost_with, segment_cost, segment_cost_mapped,
    segment_power_per_node_w, segment_power_w, segment_program_cost, ModelComputeCost, SegmentCost,
};
pub use config::PimConfig;
