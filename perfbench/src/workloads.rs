//! The four workloads, driven through the user-facing Scenario API.
//!
//! Every workload is a closed loop: a client issues its next operation
//! only when the previous one has returned. An operation is one call to
//! `ExperimentRegistry::run` — a registry experiment, a design-space
//! cell or a serving sweep.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use dnn::Dataflow;
use pim_core::experiments::registry;
use pim_core::{CacheStats, FaultSpec, NoiArch, RunContext, Scenario, ServingSpec, TenantSpec};

use crate::digest::{check_conservation, digest};
use crate::trace::{SpanId, Tracer};

/// A named workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The whole registry on one fresh context: what `run all` does.
    ReproAll,
    /// 160 single-cell `dataflows` scenarios from two clients.
    DseHandSweep,
    /// The `serving` experiment on a 32-chip healthy fleet.
    ServingFleet,
    /// The `resilience` experiment on the same fleet under faults.
    ServingFaults,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ReproAll,
        Workload::DseHandSweep,
        Workload::ServingFleet,
        Workload::ServingFaults,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReproAll => "repro_all",
            Workload::DseHandSweep => "dse_hand_sweep",
            Workload::ServingFleet => "serving_fleet",
            Workload::ServingFaults => "serving_faults",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop clients issuing operations concurrently.
    pub fn clients(self) -> usize {
        match self {
            Workload::DseHandSweep => 2,
            _ => 1,
        }
    }
}

/// Worker threads of the repro and serving scenarios; the design-space
/// cells run at one thread each, one per client.
pub const SCENARIO_THREADS: usize = 2;

/// The batch sizes of the design-space sweep: 1 and 8 frames vary the
/// packet volume about sevenfold, separating per-packet from per-cell
/// costs.
pub const DSE_BATCHES: [u32; 2] = [1, 8];

/// The serving block of both serving workloads: the default tenant mix
/// at 20x its rates on 32 chips for a 2 s horizon, with load points
/// below, at and above saturation.
pub fn fleet_spec() -> ServingSpec {
    let base = ServingSpec::default();
    ServingSpec {
        fleet: 32,
        horizon_ms: 2000.0,
        queue_depth: 64,
        loads: vec![0.5, 1.0, 1.5],
        tenants: base
            .tenants
            .into_iter()
            .map(|t| TenantSpec {
                rate_rps: t.rate_rps * 20.0,
                ..t
            })
            .collect(),
        ..base
    }
}

/// One design-space cell.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// Architecture.
    pub arch: NoiArch,
    /// Table II mix name.
    pub mix: String,
    /// Hand dataflow.
    pub dataflow: Dataflow,
    /// Inference frames per task.
    pub batch: u32,
}

impl Cell {
    /// Stable operation key.
    pub fn key(&self) -> String {
        format!(
            "{}/{}/{}/b{}",
            self.mix,
            self.dataflow.name(),
            self.arch.name(),
            self.batch
        )
    }

    /// The cell as a user-facing scenario.
    pub fn scenario(&self, seed: u64, threads: usize) -> Scenario {
        let mut s = Scenario::new("dataflows");
        s.archs = vec![self.arch.clone()];
        s.workloads = vec![self.mix.clone()];
        s.dataflows = vec![self.dataflow];
        s.overrides = vec![("batch".to_string(), self.batch.to_string())];
        s.threads = Some(threads);
        s.seed = Some(seed);
        s
    }
}

/// Every design-space cell in a fixed order: 4 archs x 5 mixes x 4
/// hand dataflows x 2 batch sizes.
pub fn dse_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for arch in NoiArch::all() {
        for wl in dnn::table2() {
            for dataflow in Dataflow::all() {
                for batch in DSE_BATCHES {
                    cells.push(Cell {
                        arch: arch.clone(),
                        mix: wl.name.clone(),
                        dataflow,
                        batch,
                    });
                }
            }
        }
    }
    cells
}

/// SplitMix64, the seed expander of the benchmark's input generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The design-space cells in the issue order of one pass: a Fisher-Yates
/// shuffle seeded by the run's seed and the pass index, so the passes of
/// a run issue the cells in different orders and the run's medians
/// average over how the two clients' cells pair up.
pub fn shuffled_cells(seed: u64, pass: usize) -> Vec<Cell> {
    let mut cells = dse_cells();
    let mut state = seed ^ (pass as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
    for i in (1..cells.len()).rev() {
        let j = usize::try_from(splitmix(&mut state) % (i as u64 + 1)).expect("index fits");
        cells.swap(i, j);
    }
    cells
}

/// The scenario of a single-scenario workload.
pub fn scenario(workload: Workload, seed: u64, threads: usize) -> Scenario {
    let mut s = match workload {
        Workload::ReproAll => Scenario::new("all"),
        Workload::ServingFleet => {
            let mut s = Scenario::new("serving");
            s.serving = Some(fleet_spec());
            s
        }
        Workload::ServingFaults => {
            let mut s = Scenario::new("resilience");
            s.serving = Some(fleet_spec());
            s.faults = Some(FaultSpec::default());
            s
        }
        Workload::DseHandSweep => unreachable!("the sweep is one scenario per cell"),
    };
    s.threads = Some(threads);
    s.seed = Some(seed);
    s
}

/// One operation ready to run: its key, the scenario run it belongs
/// to, the registry experiment, the context it runs on, and the
/// inference frames of its workload-mix cell, if it is one.
#[derive(Debug)]
struct Op {
    key: String,
    scenario: String,
    experiment: &'static str,
    ctx: usize,
    frames: u64,
}

/// A set-up pass: resolved scenarios with their engines built.
#[derive(Debug)]
pub struct Pass {
    contexts: Vec<RunContext>,
    ops: Vec<Op>,
    clients: usize,
}

/// The outcome of one operation.
#[derive(Debug)]
pub struct OpResult {
    /// Operation key.
    pub key: String,
    /// Key of the scenario run the operation belongs to.
    pub scenario: String,
    /// Host time, seconds.
    pub secs: f64,
    /// Output digest, or why the operation failed.
    pub digest: Result<u64, String>,
    /// Conservation violations among its load-point rows.
    pub violations: Vec<String>,
    /// Simulated inference requests the operation carried: a cell's
    /// tasks x batch frames, plus the requests its serving specs offer
    /// at each load-point row (rate x horizon, independent of the seed).
    pub sim_requests: f64,
}

/// Resolves a workload's scenarios and builds their 2.5D engines
/// (platform topologies and route tables), the set-up every pass pays
/// before its first experiment call. The healthy serving sweep does not
/// use its engine; building it anyway keeps set-up the same work on
/// every workload.
///
/// # Errors
///
/// The scenario error of the first scenario that fails to resolve.
pub fn setup(workload: Workload, seed: u64, pass: usize, threads: usize) -> Result<Pass, String> {
    let reg = registry();
    let build = |s: &Scenario| -> Result<RunContext, String> {
        let ctx = RunContext::new(s.resolve().map_err(|e| e.to_string())?);
        ctx.runner().map_err(|e| e.to_string())?;
        Ok(ctx)
    };
    let mut contexts = Vec::new();
    let mut ops = Vec::new();
    match workload {
        Workload::DseHandSweep => {
            for cell in shuffled_cells(seed, pass) {
                let wl = dnn::table2_workload(&cell.mix).expect("Table II mix");
                ops.push(Op {
                    key: cell.key(),
                    scenario: cell.key(),
                    experiment: "dataflows",
                    ctx: contexts.len(),
                    frames: wl.task_count() as u64 * u64::from(cell.batch),
                });
                contexts.push(build(&cell.scenario(seed, 1))?);
            }
        }
        _ => {
            let s = scenario(workload, seed, threads);
            contexts.push(build(&s)?);
            let names = if workload == Workload::ReproAll {
                reg.names()
            } else {
                vec![reg.get(&s.experiment).expect("registered").name]
            };
            for name in names {
                ops.push(Op {
                    key: name.to_string(),
                    scenario: workload.name().to_string(),
                    experiment: name,
                    ctx: 0,
                    frames: 0,
                });
            }
        }
    }
    Ok(Pass {
        contexts,
        ops,
        clients: workload.clients(),
    })
}

fn run_op(op: &Op, ctx: &RunContext) -> OpResult {
    let start = Instant::now();
    let res = catch_unwind(AssertUnwindSafe(|| registry().run(ctx, op.experiment)));
    let secs = start.elapsed().as_secs_f64();
    let (digest, violations, requests) = match res {
        Ok(Ok(out)) => {
            let (loads, violations) = check_conservation(&out);
            let spec = ctx.scenario().serving.clone().unwrap_or_default();
            let offered: f64 = loads.iter().map(|&l| spec.offered_rps(l)).sum();
            (
                Ok(digest(&out)),
                violations,
                offered * spec.horizon_ms / 1e3,
            )
        }
        Ok(Err(e)) => (Err(format!("error: {e}")), Vec::new(), 0.0),
        Err(p) => {
            let msg = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            (Err(format!("panic: {msg}")), Vec::new(), 0.0)
        }
    };
    OpResult {
        key: op.key.clone(),
        scenario: op.scenario.clone(),
        secs,
        digest,
        violations,
        sim_requests: requests + op.frames as f64,
    }
}

/// What one pass produced.
#[derive(Debug)]
pub struct PassResult {
    /// Host time of the whole pass, seconds.
    pub secs: f64,
    /// Per-operation outcomes, in completion order.
    pub ops: Vec<OpResult>,
    /// Evaluation-cache counters of the first context after the pass.
    pub cache: Option<CacheStats>,
}

/// Runs every operation of a pass with its closed-loop clients. With a
/// tracer, the pass and each operation are recorded as spans.
pub fn run_pass(pass: Pass, tracer: Option<&Tracer>) -> PassResult {
    let Pass {
        contexts,
        ops,
        clients,
    } = pass;
    let start = Instant::now();
    let traced = |parent: Option<SpanId>, op: &Op, ctx: &RunContext| match tracer {
        Some(t) => t.span(&format!("experiments.{}", op.experiment), parent, |_| {
            run_op(op, ctx)
        }),
        None => run_op(op, ctx),
    };
    let body = |root: Option<SpanId>| -> (Vec<OpResult>, Option<CacheStats>) {
        if clients == 1 {
            let results = ops
                .iter()
                .map(|op| traced(root, op, &contexts[op.ctx]))
                .collect();
            return (results, contexts.first().and_then(RunContext::cache_stats));
        }
        // Each operation owns its context; clients take the next one.
        let slots: Vec<Mutex<Option<RunContext>>> =
            contexts.into_iter().map(|c| Mutex::new(Some(c))).collect();
        let next = AtomicUsize::new(0);
        let results = Mutex::new(Vec::with_capacity(ops.len()));
        std::thread::scope(|scope| {
            for _ in 0..clients {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(op) = ops.get(i) else { break };
                    let ctx = slots[op.ctx]
                        .lock()
                        .expect("no client panics holding a slot")
                        .take()
                        .expect("each context runs once");
                    let r = traced(root, op, &ctx);
                    results
                        .lock()
                        .expect("no client panics holding results")
                        .push(r);
                });
            }
        });
        (results.into_inner().expect("clients joined"), None)
    };
    let (ops, cache) = match tracer {
        Some(t) => t.span("pass", None, |root| body(Some(root))),
        None => body(None),
    };
    PassResult {
        secs: start.elapsed().as_secs_f64(),
        ops,
        cache,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_sweep_has_160_distinct_cells_in_a_seeded_order() {
        let cells = dse_cells();
        assert_eq!(cells.len(), 160);
        let mut keys: Vec<String> = cells.iter().map(Cell::key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 160);
        let a = shuffled_cells(7, 0);
        assert_eq!(a, shuffled_cells(7, 0));
        assert_ne!(a, shuffled_cells(8, 0));
        assert_ne!(a, shuffled_cells(7, 1));
        let mut sorted: Vec<String> = a.iter().map(Cell::key).collect();
        sorted.sort();
        assert_eq!(sorted, keys);
    }

    #[test]
    fn fleet_spec_is_valid() {
        let spec = fleet_spec();
        spec.validate().expect("fleet spec validates");
        assert_eq!(spec.fleet, 32);
        assert_eq!(spec.loads, vec![0.5, 1.0, 1.5]);
    }

    /// Digests do not depend on the worker-thread count.
    #[test]
    fn digests_are_stable_across_thread_counts() {
        let digests = |threads: usize| -> Vec<u64> {
            let mut small = fleet_spec();
            small.fleet = 4;
            small.horizon_ms = 50.0;
            let mut serving = Scenario::new("serving");
            serving.serving = Some(small.clone());
            let mut faults = Scenario::new("resilience");
            faults.serving = Some(small);
            faults.faults = Some(FaultSpec::default());
            let cell = Cell {
                arch: NoiArch::Kite,
                mix: "WL2".to_string(),
                dataflow: Dataflow::OutputStationary,
                batch: 1,
            };
            [serving, faults, cell.scenario(3, 1)]
                .into_iter()
                .map(|mut s| {
                    s.threads = Some(threads);
                    s.seed = Some(3);
                    digest(&registry().run_scenario(&s).expect("scenario runs"))
                })
                .collect()
        };
        assert_eq!(digests(1), digests(2));
    }
}
