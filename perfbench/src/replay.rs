//! Outside-in replays: the per-layer metrics of a traced run.
//!
//! Each replay rebuilds what one registry call computes from the
//! layers' public functions, with a span around every layer call, and
//! must reproduce the registry's output exactly. A replay that does not
//! is counted as unverified and its layer times and counts are left out.
//!
//! Every traced run makes all replays, whatever its workload, so each
//! per-layer metric is measured on the workload named for it in
//! `perfbench/README.md`; only `trace.overhead_ratio` and, on
//! `repro_all`, the registry spans come from the workload's own passes.

use std::collections::BTreeMap;

use dnn::{Dataflow, SegmentGraph};
use mapper::{ArrivalConfig, ChurnOutcome, GreedyConfig, SearchOptions, Strategy};
use netsim::{Flow, RouteTable, SimConfig, SimScratch};
use pim_core::experiments::{fig6_models, joint_sa_config, registry};
use pim_core::{
    CellValue, ExperimentOutput, FaultPlan, FaultSpec, NoiArch, Platform25D, Platform3D,
    ResilienceParams, Scenario, ServingSpec, SystemConfig, Table,
};
use topology::NodeId;

use crate::trace::{self_ms_by_name, Span, SpanId, Tracer};
use crate::workloads::{self, fleet_spec, run_pass, setup, Cell, PassResult, Workload};
use crate::{Args, Checker, Metrics};

/// Sums of one replay: layer self times by span name plus work counts.
#[derive(Debug, Default)]
struct Tally {
    ms: BTreeMap<String, f64>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tally {
    fn add(&mut self, key: &'static str, v: f64) {
        *self.counts.entry(key).or_insert(0.0) += v;
    }

    fn merge(&mut self, other: Tally) {
        for (k, v) in other.ms {
            *self.ms.entry(k).or_insert(0.0) += v;
        }
        for (k, v) in other.counts {
            self.add(k, v);
        }
    }

    fn ms(&self, name: &str) -> f64 {
        self.ms.get(name).copied().unwrap_or(0.0)
    }

    fn count(&self, key: &str) -> f64 {
        self.counts.get(key).copied().unwrap_or(0.0)
    }
}

/// Verified and unverified replay counts, plus the run's tally.
#[derive(Debug, Default)]
struct Replays {
    tally: Tally,
    verified: u64,
    unverified: Vec<String>,
}

impl Replays {
    /// Runs one replay with its own tracer, keeps its spans, and adds
    /// its sums only when `run` reports a match.
    fn replay(
        &mut self,
        main: &Tracer,
        label: String,
        run: impl FnOnce(&Tracer, SpanId, &mut Tally) -> Result<(), String>,
    ) {
        let tracer = main.sibling();
        let mut tally = Tally::default();
        let outcome = tracer.span(&format!("replay.{label}"), None, |root| {
            run(&tracer, root, &mut tally)
        });
        let spans = tracer.spans();
        match outcome {
            Ok(()) => {
                self.verified += 1;
                tally.ms = self_ms_by_name(&spans);
                self.tally.merge(tally);
            }
            Err(e) => self.unverified.push(format!("{label}: {e}")),
        }
        main.absorb(spans);
    }
}

fn run_registry(s: &Scenario) -> Result<ExperimentOutput, String> {
    registry().run_scenario(s).map_err(|e| e.to_string())
}

fn float(v: &CellValue) -> f64 {
    match v {
        CellValue::Float(f) | CellValue::Duration(f) => *f,
        CellValue::UInt(n) => *n as f64,
        other => panic!("numeric cell expected, got {other:?}"),
    }
}

/// The value of column `name` in `row` of `t`.
fn cell(t: &Table, row: usize, name: &str) -> f64 {
    let c = t
        .columns
        .iter()
        .position(|c| c.name == name)
        .unwrap_or_else(|| panic!("{} has no column {name}", t.title));
    float(&t.rows[row][c])
}

fn expect_eq(what: &str, replayed: f64, registry: f64) -> Result<(), String> {
    if replayed.to_bits() == registry.to_bits() {
        Ok(())
    } else {
        Err(format!("{what}: replay {replayed} != registry {registry}"))
    }
}

/// The churn strategy `Platform25D` uses for the latency figures: SFC
/// along the Floret curve, relaxed greedy elsewhere.
fn churn_strategy<'a>(
    topo: &'a topology::Topology,
    layout: Option<&'a topology::FloretLayout>,
) -> Strategy<'a> {
    match layout {
        Some(l) => Strategy::sfc(l),
        None => Strategy::greedy(topo, GreedyConfig::soft()),
    }
}

/// Replays one weight-stationary design-space cell layer by layer and
/// checks its DES latency and traffic against the registry's row.
fn replay_cell(
    c: &Cell,
    seed: u64,
    t: &Tracer,
    root: SpanId,
    tally: &mut Tally,
) -> Result<(), String> {
    let scenario = c.scenario(seed, 1);
    let reference = run_registry(&scenario)?;
    let cfg: SystemConfig = scenario.resolve().map_err(|e| e.to_string())?.cfg25;
    let wl = dnn::table2_workload(&c.mix).expect("Table II mix");
    let p = Some(root);

    let (topo, layout, route) = t.span("topology.build", p, |_| {
        let (topo, layout) = c
            .arch
            .build(cfg.width, cfg.height)
            .expect("paper archs build");
        let route = RouteTable::build(&topo, &cfg.hw);
        (topo, layout, route)
    });
    tally.add("topology.build_calls", 1.0);
    let graphs: Vec<SegmentGraph> = t.span("dnn.task_graphs", p, |_| Platform25D::task_graphs(&wl));
    let strategy = churn_strategy(&topo, layout.as_ref());
    let outcome: ChurnOutcome = t.span("mapper.churn", p, |_| {
        mapper::run_churn(&graphs, cfg.node_count(), cfg.node_capacity(), &strategy)
    });
    tally.add("mapper.churn_calls", 1.0);
    tally.add("mapper.churn_departures", outcome.departures as f64);

    let mut transfers = Vec::new();
    let task_flows: Vec<Vec<Flow>> = t.span("mapper.transfers", p, |_| {
        outcome
            .placements
            .iter()
            .map(|tp| {
                mapper::transfers_for_batch_into(
                    tp,
                    &graphs[tp.task.index()],
                    cfg.activation_bytes,
                    c.dataflow,
                    u64::from(cfg.batch),
                    &mut transfers,
                );
                transfers
                    .iter()
                    .map(|x| Flow::new(x.src, x.dst, x.bytes))
                    .collect()
            })
            .collect()
    });
    let traffic: u64 = task_flows.iter().map(|f| netsim::total_bytes(f)).sum();
    tally.add("mapper.transfer_bytes", traffic as f64);

    for flows in task_flows.iter().filter(|f| !f.is_empty()) {
        t.span("netsim.analytic", p, |_| {
            netsim::analyze_with_table(&topo, &cfg.hw, flows, &route)
        });
        tally.add("netsim.analytic_calls", 1.0);
    }

    // Snapshot DES over the resident sets, as `Platform25D` samples them.
    let slot: BTreeMap<u32, usize> = outcome
        .placements
        .iter()
        .enumerate()
        .map(|(i, tp)| (tp.task.0, i))
        .collect();
    let every = cfg.snapshot_every.max(1) as usize;
    let n_snaps = outcome.snapshots.len();
    let mut scratch = SimScratch::new();
    let mut sampled = Vec::new();
    let mut sim_latency = 0u64;
    for (si, snap) in outcome.snapshots.iter().enumerate() {
        if si % every != 0 && si + 1 != n_snaps {
            continue;
        }
        let flows: Vec<Flow> = snap
            .iter()
            .filter_map(|task| slot.get(&task.0))
            .flat_map(|&i| task_flows[i].iter().copied())
            .collect();
        if flows.is_empty() {
            continue;
        }
        let sim = t.span("netsim.des", p, |_| {
            netsim::sample_flows_into(&flows, cfg.sim_sampling, &mut sampled);
            netsim::simulate_with_scratch(
                &topo,
                &cfg.hw,
                &sampled,
                &SimConfig { packet_bytes: 256 },
                &route,
                &mut scratch,
            )
        });
        sim_latency += sim.makespan_cycles;
        tally.add("netsim.des_calls", 1.0);
        tally.add("netsim.des_packets", sim.packets as f64);
        tally.add("netsim.des_heap_events", sim.heap_events as f64);
        tally.add(
            "netsim.des_wait_cycles",
            sim.total_channel_wait_cycles as f64,
        );
    }

    t.span("pim.compute_cost", p, |_| {
        for tp in &outcome.placements {
            let g = &graphs[tp.task.index()];
            for seg in g.segments() {
                std::hint::black_box(pim::segment_program_cost(seg, &cfg.pim));
            }
            std::hint::black_box(pim::model_cost_with(g, &cfg.pim, c.dataflow));
        }
    });
    tally.add("pim.compute_cost_calls", outcome.placements.len() as f64);

    let row = &reference.tables[0];
    expect_eq(
        "latency(cyc)",
        sim_latency as f64,
        cell(row, 0, "latency(cyc)"),
    )?;
    expect_eq(
        "traffic(MB)",
        traffic as f64 / 1e6,
        cell(row, 0, "traffic(MB)"),
    )
}

/// Replays the searched resolution of one `mapping_search` cell, then
/// re-costs its winner; both must produce the same report.
fn replay_search(
    arch: &NoiArch,
    cfg: &SystemConfig,
    t: &Tracer,
    root: SpanId,
    tally: &mut Tally,
) -> Result<(), String> {
    let p = Some(root);
    let platform = Platform25D::new(arch.clone(), cfg).map_err(|e| e.to_string())?;
    let wl = dnn::table2_workload("WL3").expect("Table II mix");
    let graphs = Platform25D::task_graphs(&wl);
    let outcome = platform.churn_outcome_from_graphs(&graphs);

    let mut seen = BTreeMap::new();
    for g in &graphs {
        let macs: u64 = g.segments().iter().map(|s| s.macs).sum();
        seen.entry((g.name().to_string(), g.total_params(), macs))
            .or_insert_with(|| {
                let out = t.span("mapper.search", p, |_| {
                    mapper::search_model(g, &cfg.pim, &SearchOptions::default())
                });
                tally.add("mapper.search_calls", 1.0);
                tally.add("mapper.search_candidates", out.candidates_costed as f64);
            });
    }
    let (resolution, report) = t.span("core.resolve_searched", p, |_| {
        platform.resolve_searched(&wl, &graphs, &outcome)
    });
    let recost = t.span("core.winner_recost", p, |_| {
        platform.cost_searched_resolution(&wl, &graphs, &outcome, &resolution)
    });
    if report == recost {
        Ok(())
    } else {
        Err("winner re-cost differs from the resolved report".to_string())
    }
}

/// Replays Fig. 6's joint 3D optimization of one model and solves the
/// thermal field of its SFC and optimized placements; the optimized
/// solve must reproduce the optimizer's peak temperature.
fn replay_3d(
    platform: &Platform3D,
    cfg: &SystemConfig,
    model: &dnn::Table1Entry,
    seed: u64,
    t: &Tracer,
    root: SpanId,
    tally: &mut Tally,
) -> Result<(), String> {
    let p = Some(root);
    let g = dnn::build_model(model.kind, model.dataset).map_err(|e| e.to_string())?;
    let sg = SegmentGraph::from_layer_graph(&g);
    let mut sa = joint_sa_config();
    sa.seed = seed;
    let (order, eval) = t
        .span("core.optimize3d", p, |_| platform.optimize(&sg, &sa))
        .map_err(|e| e.to_string())?;
    let mut joint_peak = f64::NAN;
    for (i, o) in [platform.sfc_order(), order].iter().enumerate() {
        let placement = platform.place(&sg, o).map_err(|e| e.to_string())?;
        let power = platform.power_map(&sg, &placement);
        let map = t.span("thermal.solve", p, |_| thermal::solve(&power, &cfg.thermal));
        tally.add("thermal.solve_calls", 1.0);
        tally.add("thermal.solve_iterations", f64::from(map.iterations));
        if i == 1 {
            joint_peak = map.peak_k();
        }
    }
    expect_eq("joint peak K", joint_peak, eval.peak_k)
}

/// Single-request service latency per tenant, as the serving
/// experiments derive it from the PIM compute model.
fn service_ns(spec: &ServingSpec, cfg: &SystemConfig) -> Vec<u64> {
    spec.tenants
        .iter()
        .map(|t| {
            let e = dnn::table1_entry(&t.model).expect("Table I model");
            let g = dnn::build_model(e.kind, e.dataset).expect("table models build");
            let sg = SegmentGraph::from_layer_graph(&g);
            let cost = pim::model_cost_with(&sg, &cfg.pim, Dataflow::WeightStationary);
            (cost.latency_ns.round() as u64).max(1)
        })
        .collect()
}

/// Regenerates every tenant's arrival stream at one load point, with the
/// serving layer's per-(tenant, load) seeds; returns the request count.
fn arrivals(spec: &ServingSpec, load: f64, seed: u64) -> usize {
    spec.tenants
        .iter()
        .enumerate()
        .map(|(ti, tenant)| {
            let cfg = ArrivalConfig {
                mean_interarrival: 1e9 / (tenant.rate_rps * load),
                mean_service: 1.0,
                seed: seed
                    ^ (ti as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ load.to_bits().rotate_left(17),
            };
            mapper::sample_arrivals(&cfg, &tenant.process, spec.horizon_ms * 1e6).len()
        })
        .sum()
}

/// Replays the healthy serving sweep and checks every load point's
/// completed, rejected and p99 against the `serving` rows.
fn replay_serving(
    seed: u64,
    threads: usize,
    t: &Tracer,
    root: SpanId,
    tally: &mut Tally,
) -> Result<(), String> {
    let p = Some(root);
    let scenario = workloads::scenario(Workload::ServingFleet, seed, threads);
    let reference = run_registry(&scenario)?;
    let resolved = scenario.resolve().map_err(|e| e.to_string())?;
    let spec = fleet_spec();
    let service = service_ns(&spec, &resolved.cfg25);
    let requests: usize = t.span("mapper.arrivals", p, |_| {
        spec.loads.iter().map(|&l| arrivals(&spec, l, seed)).sum()
    });
    let outcome = t.span("serving.loop", p, |_| {
        pim_core::simulate_serving(&spec, &service, seed, resolved.threads)
    });
    tally.add("mapper.arrivals_requests", requests as f64);
    tally.add("serving.events", outcome.events as f64);
    let rows = &reference.tables[0];
    let mut offered = 0;
    let mut completed = 0;
    let mut rejected = 0;
    for (i, lp) in outcome.per_load.iter().enumerate() {
        expect_eq("requests", lp.offered as f64, cell(rows, i, "requests"))?;
        expect_eq("completed", lp.completed as f64, cell(rows, i, "completed"))?;
        expect_eq("rejected", lp.rejected as f64, cell(rows, i, "rejected"))?;
        expect_eq("p99", lp.p99_ns as f64, cell(rows, i, "p99"))?;
        offered += lp.offered;
        completed += lp.completed;
        rejected += lp.rejected;
    }
    tally.add("serving.offered", offered as f64);
    tally.add("serving.completed", completed as f64);
    tally.add("serving.rejected", rejected as f64);
    expect_eq("arrival count", requests as f64, outcome.requests as f64)
}

/// Re-mapping stall per departed task, ns, as the `resilience`
/// experiment charges it.
const REMAP_NS_PER_TASK: u64 = 50_000;

/// Seed tweak of the `resilience` experiment's fault plans.
const FAULT_PLAN_TWEAK: u64 = 0xFA17;

/// Replays the resilience sweep: fault plans at every scale, the fleet
/// loop under each, checked against the `resilience` rows.
fn replay_faults(
    seed: u64,
    threads: usize,
    t: &Tracer,
    root: SpanId,
    tally: &mut Tally,
) -> Result<(), String> {
    let p = Some(root);
    let scenario = workloads::scenario(Workload::ServingFaults, seed, threads);
    let reference = run_registry(&scenario)?;
    let resolved = scenario.resolve().map_err(|e| e.to_string())?;
    let cfg = &resolved.cfg25;
    let spec = fleet_spec();
    let fspec = FaultSpec::default();
    let service = service_ns(&spec, cfg);
    let platform =
        Platform25D::new(NoiArch::Floret { lambda: 6 }, cfg).map_err(|e| e.to_string())?;
    let wl = dnn::table2_workload("WL1").expect("Table II mix");
    let horizon_ns = (spec.horizon_ms * 1e6).round() as u64;
    let rows = &reference.tables[0];
    let mut row = 0;
    for scale in [0.0, 0.5, 1.0, 2.0] {
        let scaled = fspec.scaled(scale);
        let plan = t.span("faults.plan", p, |_| {
            FaultPlan::generate(
                &scaled,
                spec.fleet,
                platform.topology().link_count(),
                horizon_ns,
                seed ^ FAULT_PLAN_TWEAK,
            )
        });
        tally.add("faults.chip_edges", 2.0 * plan.chip_faults.len() as f64);
        let downs = plan.distinct_down_chips();
        let departures = if downs.is_empty() {
            0
        } else {
            let failed: Vec<NodeId> = (0..downs.len() * 3)
                .map(|i| NodeId(topology::narrow::u32_idx((i * 37 + 13) % cfg.node_count())))
                .collect();
            platform
                .map_workload_churn_with_faults(&wl, &failed)
                .departures
        };
        let params =
            ResilienceParams::from_spec(&scaled, plan, departures as u64 * REMAP_NS_PER_TASK);
        let outcome = t.span("faults.serving", p, |_| {
            pim_core::simulate_resilient_serving(&spec, &params, &service, seed, resolved.threads)
        });
        for lp in &outcome.per_load {
            expect_eq(
                "completed",
                lp.completed as f64,
                cell(rows, row, "completed"),
            )?;
            expect_eq("rejected", lp.rejected as f64, cell(rows, row, "rejected"))?;
            expect_eq(
                "timed out",
                lp.timed_out as f64,
                cell(rows, row, "timed out"),
            )?;
            expect_eq("p99", lp.p99_ns as f64, cell(rows, row, "p99"))?;
            tally.add("faults.retries", lp.retries as f64);
            tally.add("faults.failovers", lp.failovers as f64);
            tally.add("faults.timed_out", lp.timed_out as f64);
            tally.add("faults.shed", lp.shed as f64);
            row += 1;
        }
    }
    Ok(())
}

/// Mean self time per traced pass of every registry experiment, from
/// spans named `experiments.<name>` under `pass` roots.
fn experiment_ms(spans: &[Span]) -> BTreeMap<String, f64> {
    let passes = spans.iter().filter(|s| s.name == "pass").count().max(1) as f64;
    self_ms_by_name(spans)
        .into_iter()
        .filter(|(k, _)| k.starts_with("experiments."))
        .map(|(k, v)| (k, v / passes))
        .collect()
}

/// Every per-layer metric of a traced run.
///
/// # Errors
///
/// A scenario that fails to set up.
pub fn per_layer(
    args: &Args,
    tracer: &Tracer,
    traced: &[PassResult],
    checker: &mut Checker,
) -> Result<Metrics, String> {
    let seed = args.seed;
    // Registry spans and cache counters come from traced repro passes:
    // the workload's own, or one extra pass made here.
    let (exp_ms, cache) = if args.workload == Workload::ReproAll {
        (experiment_ms(&tracer.spans()), traced[0].cache)
    } else {
        let t = tracer.sibling();
        let pass = run_pass(setup(Workload::ReproAll, seed, 0, args.threads)?, Some(&t));
        let mut repro = Checker::new(Workload::ReproAll, seed);
        repro.check(&pass);
        checker.attempted += repro.attempted;
        checker.failed += repro.failed;
        checker.referenced += repro.referenced;
        checker.messages.extend(repro.messages);
        let spans = t.spans();
        tracer.absorb(spans.clone());
        (experiment_ms(&spans), pass.cache)
    };
    let cache = cache.ok_or("the repro pass built no engine")?;

    let mut r = Replays::default();
    for c in workloads::dse_cells() {
        if c.dataflow == Dataflow::WeightStationary {
            r.replay(tracer, format!("cell.{}", c.key()), |t, root, tally| {
                replay_cell(&c, seed, t, root, tally)
            });
        }
    }
    let search_scenario = {
        let mut s = Scenario::new("mapping_search");
        s.seed = Some(seed);
        s.resolve().map_err(|e| e.to_string())?
    };
    for arch in NoiArch::all() {
        r.replay(
            tracer,
            format!("search.{}", arch.name()),
            |t, root, tally| replay_search(&arch, &search_scenario.cfg25, t, root, tally),
        );
    }
    let cfg3d = &search_scenario.cfg3d;
    let platform3d = Platform3D::new(cfg3d).map_err(|e| e.to_string())?;
    for model in fig6_models() {
        r.replay(tracer, format!("3d.{}", model.id), |t, root, tally| {
            replay_3d(&platform3d, cfg3d, &model, seed, t, root, tally)
        });
    }
    r.replay(tracer, "serving".to_string(), |t, root, tally| {
        replay_serving(seed, args.threads, t, root, tally)
    });
    r.replay(tracer, "faults".to_string(), |t, root, tally| {
        replay_faults(seed, args.threads, t, root, tally)
    });
    for u in &r.unverified {
        println!("UNVERIFIED replay {u}");
    }

    let t = &r.tally;
    let total = r.verified + r.unverified.len() as u64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut m: Metrics = vec![
        ("netsim.des_ms".into(), t.ms("netsim.des"), "ms"),
        (
            "netsim.des_calls".into(),
            t.count("netsim.des_calls"),
            "count",
        ),
        (
            "netsim.des_packets".into(),
            t.count("netsim.des_packets"),
            "count",
        ),
        (
            "netsim.des_heap_events".into(),
            t.count("netsim.des_heap_events"),
            "count",
        ),
        (
            "netsim.des_wait_cycles".into(),
            t.count("netsim.des_wait_cycles"),
            "cycles",
        ),
        (
            "netsim.des_ns_per_event".into(),
            ratio(t.ms("netsim.des") * 1e6, t.count("netsim.des_heap_events")),
            "ns",
        ),
        ("mapper.search_ms".into(), t.ms("mapper.search"), "ms"),
        (
            "mapper.search_calls".into(),
            t.count("mapper.search_calls"),
            "count",
        ),
        (
            "mapper.search_candidates".into(),
            t.count("mapper.search_candidates"),
            "count",
        ),
        (
            "core.resolve_searched_ms".into(),
            t.ms("core.resolve_searched"),
            "ms",
        ),
        (
            "core.winner_recost_ms".into(),
            t.ms("core.winner_recost"),
            "ms",
        ),
        (
            "core.resolve_waste_ratio".into(),
            ratio(t.ms("core.resolve_searched"), t.ms("core.winner_recost")),
            "ratio",
        ),
        ("core.cache_hits".into(), cache.hits as f64, "count"),
        ("core.cache_misses".into(), cache.misses as f64, "count"),
        (
            "core.cache_hit_ratio".into(),
            ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
            "ratio",
        ),
        ("topology.build_ms".into(), t.ms("topology.build"), "ms"),
        (
            "topology.build_calls".into(),
            t.count("topology.build_calls"),
            "count",
        ),
        ("dnn.task_graphs_ms".into(), t.ms("dnn.task_graphs"), "ms"),
        ("mapper.churn_ms".into(), t.ms("mapper.churn"), "ms"),
        (
            "mapper.churn_calls".into(),
            t.count("mapper.churn_calls"),
            "count",
        ),
        (
            "mapper.churn_departures".into(),
            t.count("mapper.churn_departures"),
            "count",
        ),
        ("mapper.transfers_ms".into(), t.ms("mapper.transfers"), "ms"),
        (
            "mapper.transfer_bytes".into(),
            t.count("mapper.transfer_bytes"),
            "bytes",
        ),
        ("netsim.analytic_ms".into(), t.ms("netsim.analytic"), "ms"),
        (
            "netsim.analytic_calls".into(),
            t.count("netsim.analytic_calls"),
            "count",
        ),
        ("pim.compute_cost_ms".into(), t.ms("pim.compute_cost"), "ms"),
        (
            "pim.compute_cost_calls".into(),
            t.count("pim.compute_cost_calls"),
            "count",
        ),
        ("core.optimize3d_ms".into(), t.ms("core.optimize3d"), "ms"),
        ("thermal.solve_ms".into(), t.ms("thermal.solve"), "ms"),
        (
            "thermal.solve_calls".into(),
            t.count("thermal.solve_calls"),
            "count",
        ),
        (
            "thermal.solve_iterations".into(),
            t.count("thermal.solve_iterations"),
            "count",
        ),
        ("mapper.arrivals_ms".into(), t.ms("mapper.arrivals"), "ms"),
        (
            "mapper.arrivals_requests".into(),
            t.count("mapper.arrivals_requests"),
            "count",
        ),
        ("serving.loop_ms".into(), t.ms("serving.loop"), "ms"),
        ("serving.events".into(), t.count("serving.events"), "count"),
        (
            "serving.events_per_s".into(),
            ratio(t.count("serving.events") * 1e3, t.ms("serving.loop")),
            "1/s",
        ),
        (
            "serving.completed_ratio".into(),
            ratio(t.count("serving.completed"), t.count("serving.offered")),
            "ratio",
        ),
        (
            "serving.rejected".into(),
            t.count("serving.rejected"),
            "count",
        ),
        ("faults.plan_ms".into(), t.ms("faults.plan"), "ms"),
        (
            "faults.chip_edges".into(),
            t.count("faults.chip_edges"),
            "count",
        ),
        ("faults.retries".into(), t.count("faults.retries"), "count"),
        (
            "faults.failovers".into(),
            t.count("faults.failovers"),
            "count",
        ),
        (
            "faults.timed_out".into(),
            t.count("faults.timed_out"),
            "count",
        ),
        ("faults.shed".into(), t.count("faults.shed"), "count"),
    ];
    for name in registry().names() {
        let key = format!("experiments.{name}");
        let v = exp_ms.get(&key).copied().unwrap_or(0.0);
        m.push((format!("{key}_ms"), v, "ms"));
    }
    m.push((
        "trace.verified_ratio".into(),
        ratio(r.verified as f64, total as f64),
        "ratio",
    ));
    Ok(m)
}
