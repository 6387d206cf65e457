//! The presentation crate for the reproduction: the unified `pim-bench`
//! CLI ([`cli`]) over `pim_core`'s experiment registry, the structured
//! output renderers ([`output`]), and the criterion benches.
//!
//! Every paper artifact (Tables I-II, Figs. 2-7, the ablations) is a
//! registry entry; `pim-bench list | describe | run <name|all>` with
//! `--format table|json|csv` is the one command-line entry point
//! (`pim-bench run fig3`, `pim-bench run all --format json`).
//!
//! # Examples
//!
//! ```
//! // Ratios render the way the fig3/fig5 columns print them.
//! assert_eq!(pim_bench::ratio(2.236), "2.24x");
//!
//! // Thermal tier slices become one glyph per PE, `.` cold to `@` hot.
//! let map = pim_bench::ascii_heatmap(&[vec![300.0, 399.0]], 300.0, 400.0);
//! assert_eq!(map, ". @ \n");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cli;
pub mod output;
pub mod perf;

pub use output::{ascii_heatmap, normalize_to_floret, ratio, section};
