//! Long-horizon multi-tenant serving simulator over the manycore fleet.
//!
//! Models the paper's "datacenter substrate" end to end: every tenant
//! serves one Table I model and emits a sustained request stream
//! (Poisson, bursty or diurnal, composed from
//! [`mapper::ArrivalConfig`]); a deterministic round-robin load
//! balancer spreads the merged stream over a fleet of `N` identical
//! chips; each chip runs dynamic batching with a max-delay window and a
//! bounded admission queue.
//!
//! One event loop serves both entry points. [`simulate_serving`] runs
//! it on a healthy fleet and reports per-chip utilization;
//! [`simulate_resilient_serving`] runs it under a [`FaultPlan`] and
//! reports retries, failovers, timeouts and shedding. Within a load
//! point every chip shares one [`netsim::EventQueue`] (the packet DES's
//! binary min-heap) that holds only in-flight events: completions,
//! batching windows, retries and chip edges. The arrival stream is
//! already sorted, so the loop walks it with a cursor and merges it
//! against [`netsim::EventQueue::peek`] instead of pushing every
//! request into the queue, which keeps the heap shallow and its memory
//! small. One queue per worker thread is reused across load points.
//!
//! # Determinism contract
//!
//! The outcome is bit-identical for any worker-thread count: each load
//! point's request stream is generated once, single-threaded, from
//! seeded ChaCha8 processes; load points simulate independently, each
//! on one thread; and results merge in `spec.loads` order. Inside a
//! load point events leave in one total `(time, key)` order — at one
//! instant by tag (completion, chip up, window, arrival, retry, chip
//! down), then chip, then request index — whether they come from the
//! queue or from the arrival cursor. Changing `threads` can only
//! change wall-clock time.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;

use mapper::{sample_arrivals, ArrivalConfig, ArrivalProcess};
use netsim::EventQueue;
use serde::{Deserialize, Serialize};

use crate::faults::{FaultPlan, FaultSpec, RetryPolicy};
use crate::sweep::parallel_map;

/// Typed serving-scenario block of a [`crate::Scenario`]: arrival mix,
/// horizon, SLO target, fleet size and batching window as structured
/// data instead of ad-hoc `--set` strings.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServingSpec {
    /// Chips in the fleet behind the load balancer (≥ 1).
    pub fleet: usize,
    /// Simulated horizon in milliseconds; requests arrive in
    /// `[0, horizon_ms)` and in-flight batches drain past it.
    pub horizon_ms: f64,
    /// Dynamic-batching max-delay window in microseconds: an idle chip
    /// waits at most this long after the head request before launching
    /// a partial batch.
    pub batch_window_us: f64,
    /// Maximum requests per batch (≥ 1).
    pub max_batch: usize,
    /// Bounded admission-queue depth per chip; arrivals beyond it are
    /// rejected and count against SLO attainment.
    pub queue_depth: usize,
    /// End-to-end latency SLO in milliseconds.
    pub slo_ms: f64,
    /// Offered-load multipliers to sweep; each scales every tenant's
    /// request rate.
    pub loads: Vec<f64>,
    /// The tenant mix sharing the fleet.
    pub tenants: Vec<TenantSpec>,
}

/// One tenant of a [`ServingSpec`]: a Table I model plus its arrival
/// process.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TenantSpec {
    /// Table I workload id of the served model (`"M1"` .. `"M13"`).
    pub model: String,
    /// Mean request rate in requests/second at load multiplier 1.0.
    pub rate_rps: f64,
    /// Arrival-process shape (same mean rate for every variant).
    pub process: ArrivalProcess,
}

impl Default for ServingSpec {
    /// The short deterministic reference configuration pinned by the
    /// `serving` golden: a 2-chip fleet, three tenants with distinct
    /// process shapes, and two offered-load points straddling
    /// saturation.
    fn default() -> Self {
        ServingSpec {
            fleet: 2,
            horizon_ms: 60.0,
            batch_window_us: 150.0,
            max_batch: 4,
            queue_depth: 8,
            slo_ms: 8.0,
            loads: vec![0.6, 1.4],
            tenants: vec![
                TenantSpec {
                    model: "M1".to_string(),
                    rate_rps: 480.0,
                    process: ArrivalProcess::Poisson,
                },
                TenantSpec {
                    model: "M9".to_string(),
                    rate_rps: 960.0,
                    process: ArrivalProcess::Bursty { burst: 4 },
                },
                TenantSpec {
                    model: "M13".to_string(),
                    rate_rps: 320.0,
                    process: ArrivalProcess::Diurnal {
                        period: 20.0 * 1e6, // 20 ms in ns
                        amplitude: 0.8,
                    },
                },
            ],
        }
    }
}

impl ServingSpec {
    /// Checks the spec for structural validity: positive horizon/SLO,
    /// non-empty load and tenant sets, sane batching bounds, and tenant
    /// models that exist in Table I.
    ///
    /// # Errors
    ///
    /// The first violated constraint as a typed [`ServingError`]
    /// (wrapped in `ScenarioError::Serving` by `Scenario::resolve`).
    pub fn validate(&self) -> Result<(), ServingError> {
        if self.fleet == 0 {
            return Err(ServingError::ZeroField("fleet"));
        }
        if self.horizon_ms <= 0.0 || self.horizon_ms.is_nan() {
            return Err(ServingError::NonPositive {
                field: "horizon_ms",
                value: self.horizon_ms,
            });
        }
        if self.batch_window_us < 0.0 || self.batch_window_us.is_nan() {
            return Err(ServingError::NegativeWindow(self.batch_window_us));
        }
        if self.max_batch == 0 {
            return Err(ServingError::ZeroField("max_batch"));
        }
        if self.queue_depth == 0 {
            return Err(ServingError::ZeroField("queue_depth"));
        }
        if self.slo_ms <= 0.0 || self.slo_ms.is_nan() {
            return Err(ServingError::NonPositive {
                field: "slo_ms",
                value: self.slo_ms,
            });
        }
        if self.loads.is_empty() {
            return Err(ServingError::EmptyLoads);
        }
        if let Some(&bad) = self.loads.iter().find(|&&l| l <= 0.0 || l.is_nan()) {
            return Err(ServingError::NonPositive {
                field: "load multiplier",
                value: bad,
            });
        }
        if self.tenants.is_empty() {
            return Err(ServingError::EmptyTenants);
        }
        for t in &self.tenants {
            if dnn::table1_entry(&t.model).is_none() {
                return Err(ServingError::UnknownModel(t.model.clone()));
            }
            if t.rate_rps <= 0.0 || t.rate_rps.is_nan() {
                return Err(ServingError::NonPositiveRate {
                    model: t.model.clone(),
                    value: t.rate_rps,
                });
            }
        }
        Ok(())
    }

    /// Total offered request rate at load multiplier `load`, req/s.
    pub fn offered_rps(&self, load: f64) -> f64 {
        self.tenants.iter().map(|t| t.rate_rps).sum::<f64>() * load
    }
}

/// Why a [`ServingSpec`] was rejected — the typed counterpart of
/// [`crate::ConfigError`]/[`crate::FaultError`] for the serving block.
#[derive(Clone, Debug, PartialEq)]
pub enum ServingError {
    /// A count field (`fleet`, `max_batch`, `queue_depth`) was zero.
    ZeroField(&'static str),
    /// A numeric field that must be finite and strictly positive was
    /// not (`horizon_ms`, `slo_ms`, a load multiplier).
    NonPositive {
        /// Field name.
        field: &'static str,
        /// Offending value.
        value: f64,
    },
    /// `batch_window_us` must be finite and nonnegative.
    NegativeWindow(f64),
    /// `loads` named no offered-load point.
    EmptyLoads,
    /// `tenants` named no model stream.
    EmptyTenants,
    /// A tenant's model id is not a Table I workload.
    UnknownModel(String),
    /// A tenant's `rate_rps` was not finite and strictly positive.
    NonPositiveRate {
        /// The tenant's model id.
        model: String,
        /// Offending rate.
        value: f64,
    },
}

impl fmt::Display for ServingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServingError::ZeroField(field) => write!(f, "{field} must be at least 1"),
            ServingError::NonPositive { field, value } => {
                write!(f, "{field} must be positive, got {value}")
            }
            ServingError::NegativeWindow(v) => {
                write!(f, "batch_window_us must be nonnegative, got {v}")
            }
            ServingError::EmptyLoads => {
                write!(f, "loads must name at least one offered-load point")
            }
            ServingError::EmptyTenants => {
                write!(f, "tenants must name at least one model stream")
            }
            ServingError::UnknownModel(m) => {
                write!(f, "tenant model `{m}` is not a Table I workload (M1..M13)")
            }
            ServingError::NonPositiveRate { model, value } => {
                write!(f, "tenant `{model}` rate_rps must be positive, got {value}")
            }
        }
    }
}

impl std::error::Error for ServingError {}

/// Serving statistics of one offered-load point, aggregated over the
/// whole fleet.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct LoadPointOutcome {
    /// The load multiplier of this point.
    pub load: f64,
    /// Offered aggregate request rate, req/s.
    pub offered_rps: f64,
    /// Requests generated over the horizon.
    pub offered: u64,
    /// Requests completed (admitted and served).
    pub completed: u64,
    /// Requests rejected by full admission queues.
    pub rejected: u64,
    /// Median end-to-end latency, ns (nearest rank).
    pub p50_ns: u64,
    /// 95th-percentile end-to-end latency, ns.
    pub p95_ns: u64,
    /// 99th-percentile end-to-end latency, ns.
    pub p99_ns: u64,
    /// Fraction of *offered* requests served within the SLO (rejections
    /// count as misses).
    pub slo_attainment: f64,
    /// Mean requests per launched batch.
    pub mean_batch: f64,
    /// Per-chip busy fraction per horizon slice:
    /// `chip_util[chip][slice]`.
    pub chip_util: Vec<Vec<f64>>,
    /// Every completed request's latency, ns, ascending.
    pub latencies_ns: Vec<u64>,
    /// Events processed by the event loop across the fleet.
    pub events: u64,
}

/// Outcome of a whole serving sweep (one [`LoadPointOutcome`] per
/// offered-load point, in spec order).
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ServingOutcome {
    /// Per-load-point statistics, in `spec.loads` order.
    pub per_load: Vec<LoadPointOutcome>,
    /// Total events processed by the event loop.
    pub events: u64,
    /// Total requests generated.
    pub requests: u64,
}

/// Number of horizon slices in the per-chip utilization timeline.
pub const UTIL_SLICES: usize = 4;

/// Fraction of a batch's service time that is fixed (weight staging);
/// the rest scales linearly with batch size, so batching amortizes the
/// fixed part.
const BATCH_FIXED_FRACTION: f64 = 0.5;

/// Service time of a `k`-request batch of a model whose single-request
/// latency is `base_ns`.
fn batch_latency_ns(base_ns: u64, k: usize) -> u64 {
    let lat = base_ns as f64 * (BATCH_FIXED_FRACTION + (1.0 - BATCH_FIXED_FRACTION) * k as f64);
    lat.round() as u64
}

/// One request of the generated stream.
#[derive(Copy, Clone, Debug)]
struct Request {
    /// Tenant index into `spec.tenants`.
    tenant: u32,
    /// Arrival time, ns.
    arrival_ns: u64,
}

/// Generates the merged multi-tenant request stream for one load point,
/// sorted by `(arrival, tenant, intra-tenant order)`.
fn generate_stream(spec: &ServingSpec, load: f64, seed: u64) -> Vec<Request> {
    let horizon_ns = spec.horizon_ms * 1e6;
    let mut stream: Vec<Request> = Vec::new();
    for (ti, tenant) in spec.tenants.iter().enumerate() {
        let cfg = ArrivalConfig {
            mean_interarrival: 1e9 / (tenant.rate_rps * load),
            mean_service: 1.0, // unused: service comes from the cost model
            seed: seed
                ^ (ti as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ load.to_bits().rotate_left(17),
        };
        for t in sample_arrivals(&cfg, &tenant.process, horizon_ns) {
            stream.push(Request {
                tenant: topology::narrow::u32_idx(ti),
                arrival_ns: t as u64,
            });
        }
    }
    // Stable sort: ties keep tenant-major generation order, so the
    // merged stream (and the round-robin chip assignment derived from
    // it) is fully deterministic.
    stream.sort_by_key(|r| r.arrival_ns);
    stream
}

/// Runs the serving sweep on a healthy fleet: for every offered-load
/// point, generates the multi-tenant stream, shards it round-robin over
/// the fleet, and simulates the load points across `threads` workers.
///
/// This is the fleet loop of [`simulate_resilient_serving`] under
/// [`ResilienceParams::healthy`], reported with the per-chip
/// utilization timeline instead of the fault counters.
///
/// `service_ns` is the per-tenant single-request service latency
/// (indexed like `spec.tenants`), typically derived from the PIM
/// compute-cost model. Results are bit-identical for any `threads`.
///
/// # Panics
///
/// Panics when `service_ns.len() != spec.tenants.len()` or when a
/// service latency is zero (the spec should be validated first).
pub fn simulate_serving(
    spec: &ServingSpec,
    service_ns: &[u64],
    seed: u64,
    threads: usize,
) -> ServingOutcome {
    let healthy = ResilienceParams::healthy();
    let per_load: Vec<LoadPointOutcome> =
        simulate_points(spec, &healthy, service_ns, seed, threads)
            .into_iter()
            .map(|(p, chip_util)| LoadPointOutcome {
                load: p.load,
                offered_rps: p.offered_rps,
                offered: p.offered,
                completed: p.completed,
                rejected: p.rejected,
                p50_ns: p.p50_ns,
                p95_ns: p.p95_ns,
                p99_ns: p.p99_ns,
                slo_attainment: p.slo_attainment,
                mean_batch: p.mean_batch,
                chip_util,
                latencies_ns: p.latencies_ns,
                events: p.events,
            })
            .collect();
    ServingOutcome {
        requests: per_load.iter().map(|l| l.offered).sum(),
        events: per_load.iter().map(|l| l.events).sum(),
        per_load,
    }
}

/// Nearest-rank percentile on an ascending-sorted slice.
fn percentile_nearest_rank(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 * pct).div_ceil(100).max(1) as usize;
    sorted[rank - 1]
}

// ---------------------------------------------------------------------------
// Resilient serving: the fleet loop under a fault plan
// ---------------------------------------------------------------------------

/// How the fleet reacts to a [`FaultPlan`]: the retry/backoff/timeout
/// policy for lost requests, degraded-mode load shedding, the re-mapping
/// stall charged to survivors when a chip drops out, and the thermal
/// throttle slowdown.
#[derive(Clone, Debug, PartialEq)]
pub struct ResilienceParams {
    /// The concrete fault timeline the fleet replays.
    pub plan: FaultPlan,
    /// Retry/backoff/timeout policy for requests lost to chip failures.
    pub retry: RetryPolicy,
    /// While any chip is down, each chip's admission queue depth shrinks
    /// by this fraction (`[0, 1)`) — degraded-mode load shedding.
    pub shed_fraction: f64,
    /// Stall charged to every surviving chip when a chip fails (the
    /// mapper re-packing the lost chip's work), ns.
    pub remap_penalty_ns: u64,
    /// Service-time multiplier for batches launched inside a thermal
    /// throttle window (≥ 1).
    pub throttle_slowdown: f64,
}

impl ResilienceParams {
    /// A healthy fleet: no faults, no shedding, no throttling. With
    /// these parameters [`simulate_resilient_serving`] runs exactly the
    /// simulation behind [`simulate_serving`].
    pub fn healthy() -> ResilienceParams {
        ResilienceParams {
            plan: FaultPlan::empty(),
            retry: RetryPolicy::default(),
            shed_fraction: 0.0,
            remap_penalty_ns: 0,
            throttle_slowdown: 1.0,
        }
    }

    /// Parameters from a [`FaultSpec`] plus the concrete plan it was
    /// expanded into and the mapper-derived re-mapping stall.
    pub fn from_spec(spec: &FaultSpec, plan: FaultPlan, remap_penalty_ns: u64) -> ResilienceParams {
        ResilienceParams {
            plan,
            retry: spec.retry.clone(),
            shed_fraction: spec.shed_fraction,
            remap_penalty_ns,
            throttle_slowdown: spec.throttle_slowdown,
        }
    }
}

/// Serving statistics of one offered-load point under faults.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ResiliencePointOutcome {
    /// The load multiplier of this point.
    pub load: f64,
    /// Offered aggregate request rate, req/s.
    pub offered_rps: f64,
    /// Requests generated over the horizon.
    pub offered: u64,
    /// Requests completed (admitted, possibly after retries, and served).
    pub completed: u64,
    /// Requests turned away by a full admission queue (at first arrival,
    /// or when a failed chip's queue failed over into full survivors).
    pub rejected: u64,
    /// Requests dropped after exhausting retries or their deadline.
    pub timed_out: u64,
    /// Retry dispatches (a request lost twice retries twice).
    pub retries: u64,
    /// Requests steered away from their home chip (down at arrival, or
    /// drained from a failing chip's queue).
    pub failovers: u64,
    /// Rejections attributable to degraded-mode shedding: the request
    /// would have fit the healthy queue depth.
    pub shed: u64,
    /// Median end-to-end latency (from original arrival), ns.
    pub p50_ns: u64,
    /// 95th-percentile end-to-end latency, ns.
    pub p95_ns: u64,
    /// 99th-percentile end-to-end latency, ns.
    pub p99_ns: u64,
    /// Fraction of *offered* requests served within the SLO (rejections
    /// and timeouts count as misses).
    pub slo_attainment: f64,
    /// Mean requests per launched batch.
    pub mean_batch: f64,
    /// Every completed request's latency, ns, ascending.
    pub latencies_ns: Vec<u64>,
    /// Events processed by the event loop (including fault events).
    pub events: u64,
}

/// Outcome of a resilient serving sweep, one point per offered load.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ResilienceOutcome {
    /// Per-load-point statistics, in `spec.loads` order.
    pub per_load: Vec<ResiliencePointOutcome>,
    /// Total events processed by the event loop.
    pub events: u64,
    /// Total requests generated.
    pub requests: u64,
}

/// Fleet event tags, ordered so that at one instant a chip first
/// retires its batch, repaired chips come back, windows close, new
/// arrivals and retries are admitted, and chip failures strike last —
/// the serving analogue of "departures before arrivals".
const FTAG_COMPLETION: u64 = 0;
const FTAG_CHIP_UP: u64 = 1;
const FTAG_WINDOW: u64 = 2;
const FTAG_ARRIVAL: u64 = 3;
const FTAG_RETRY: u64 = 4;
const FTAG_CHIP_DOWN: u64 = 5;

/// Fleet event key: tag (8 bits) | chip (16 bits) | id (40 bits). Ties
/// at one instant order by tag, then chip, then id.
fn fleet_key(tag: u64, chip: usize, id: u64) -> u64 {
    (tag << 56) | ((chip as u64) << 40) | (id & 0xFF_FFFF_FFFF)
}

/// Per-chip serving state inside the fleet loop.
#[derive(Clone, Debug, Default)]
struct ChipState {
    /// FIFO admission queue of global request indices.
    queue: VecDeque<u64>,
    /// The batch currently in service.
    in_flight: Vec<u64>,
    busy: bool,
    up: bool,
    /// Armed max-delay window generation (at most one pending).
    armed: Option<u64>,
    window_gen: u64,
    /// Completion generation: bumped when the chip fails, so an
    /// already-scheduled completion of a lost batch is recognized as
    /// stale and ignored.
    comp_gen: u64,
    /// Earliest instant the chip may launch again (re-mapping stall).
    blocked_until: u64,
    batches: u64,
    batched_requests: u64,
    /// Busy nanoseconds per horizon slice (clipped to the horizon).
    busy_ns: [u64; UTIL_SLICES],
}

/// Reusable per-thread scratch of the fleet loop, recycled across every
/// load point that lands on the worker thread.
// pim-lint: scratch
#[derive(Debug)]
struct FaultScratch {
    /// Fleet-wide queue of in-flight events: completions, windows,
    /// retries and chip edges. Arrivals never enter it.
    events: EventQueue,
    /// Retry attempts per request, indexed by global request id.
    attempts: Vec<u32>,
    /// Arrival keys of the current same-instant group, descending, so
    /// `pop` yields them in queue order.
    ties: Vec<u64>,
    /// Requests drained off a failing chip: its lost batch, then its
    /// orphaned queue.
    drained: Vec<u64>,
}

impl FaultScratch {
    fn new() -> FaultScratch {
        FaultScratch {
            events: EventQueue::new(),
            attempts: Vec::new(),
            ties: Vec::new(),
            drained: Vec::new(),
        }
    }

    /// Clears every field for a fresh run over `n` requests.
    fn reset(&mut self, n: usize) {
        self.events.clear();
        self.attempts.clear();
        self.attempts.resize(n, 0);
        self.ties.clear();
        self.drained.clear();
    }
}

thread_local! {
    /// One [`FaultScratch`] per worker thread, reused across sweep cells.
    static FAULT_SCRATCH: RefCell<FaultScratch> = RefCell::new(FaultScratch::new());
}

/// One load point's fleet simulation: every chip shares one queue so
/// chip failures, repairs, retries and failovers interleave in a single
/// deterministic order.
struct FleetSim<'a> {
    spec: &'a ServingSpec,
    params: &'a ResilienceParams,
    service_ns: &'a [u64],
    /// The load point's stream, ascending by arrival time.
    requests: &'a [Request],
    scratch: &'a mut FaultScratch,
    window_ns: u64,
    horizon_ns: u64,
    slice_ns: u64,
    chips: Vec<ChipState>,
    /// Per-chip thermal throttle windows, ascending and disjoint.
    throttles: Vec<Vec<(u64, u64)>>,
    /// Chips currently down (degraded mode while > 0).
    down_count: usize,
    /// First request not yet staged in `scratch.ties`.
    next_arrival: usize,
    /// Arrival instant of the requests staged in `scratch.ties`.
    tie_ns: u64,
    latencies: Vec<u64>,
    rejected: u64,
    timed_out: u64,
    retries: u64,
    failovers: u64,
    shed: u64,
    event_count: u64,
}

impl<'a> FleetSim<'a> {
    /// A fresh load point over `requests`: every chip up and idle, the
    /// plan's chip edges in the (reset) queue, arrivals still ahead
    /// of the cursor.
    fn new(
        spec: &'a ServingSpec,
        params: &'a ResilienceParams,
        service_ns: &'a [u64],
        requests: &'a [Request],
        scratch: &'a mut FaultScratch,
    ) -> FleetSim<'a> {
        scratch.reset(requests.len());
        let mut chips = vec![ChipState::default(); spec.fleet];
        for c in &mut chips {
            c.up = true;
        }
        let mut throttles = vec![Vec::new(); spec.fleet];
        if params.throttle_slowdown > 1.0 {
            for w in &params.plan.throttles {
                if (w.chip as usize) < spec.fleet {
                    throttles[w.chip as usize].push((w.start_ns, w.end_ns));
                }
            }
        }
        for (k, cf) in params.plan.chip_faults.iter().enumerate() {
            if (cf.chip as usize) < spec.fleet {
                let chip = cf.chip as usize;
                let events = &mut scratch.events;
                events.push(cf.down_ns, fleet_key(FTAG_CHIP_DOWN, chip, k as u64));
                events.push(cf.up_ns, fleet_key(FTAG_CHIP_UP, chip, k as u64));
            }
        }
        let horizon_ns = (spec.horizon_ms * 1e6).round() as u64;
        FleetSim {
            spec,
            params,
            service_ns,
            requests,
            scratch,
            window_ns: (spec.batch_window_us * 1e3).round() as u64,
            horizon_ns,
            slice_ns: horizon_ns.div_ceil(UTIL_SLICES as u64).max(1),
            chips,
            throttles,
            down_count: 0,
            next_arrival: 0,
            tie_ns: 0,
            latencies: Vec::new(),
            rejected: 0,
            timed_out: 0,
            retries: 0,
            failovers: 0,
            shed: 0,
            event_count: 0,
        }
    }

    /// The finished load point's statistics plus each chip's busy
    /// fraction per horizon slice (`chip_util[chip][slice]`).
    fn finish(mut self, load: f64) -> PointRun {
        let offered = self.requests.len() as u64;
        debug_assert_eq!(
            offered,
            self.latencies.len() as u64 + self.rejected + self.timed_out,
            "request conservation: injected = completed + rejected + timed out"
        );
        self.latencies.sort_unstable();
        let slo_ns = (self.spec.slo_ms * 1e6) as u64;
        let attained = self.latencies.partition_point(|&l| l <= slo_ns) as u64;
        let batches: u64 = self.chips.iter().map(|c| c.batches).sum();
        let batched: u64 = self.chips.iter().map(|c| c.batched_requests).sum();
        let chip_util = self
            .chips
            .iter()
            .map(|c| {
                c.busy_ns
                    .iter()
                    .map(|&b| b as f64 / self.slice_ns as f64)
                    .collect()
            })
            .collect();
        let point = ResiliencePointOutcome {
            load,
            offered_rps: self.spec.offered_rps(load),
            offered,
            completed: self.latencies.len() as u64,
            rejected: self.rejected,
            timed_out: self.timed_out,
            retries: self.retries,
            failovers: self.failovers,
            shed: self.shed,
            p50_ns: percentile_nearest_rank(&self.latencies, 50),
            p95_ns: percentile_nearest_rank(&self.latencies, 95),
            p99_ns: percentile_nearest_rank(&self.latencies, 99),
            slo_attainment: if offered == 0 {
                1.0
            } else {
                attained as f64 / offered as f64
            },
            mean_batch: if batches == 0 {
                0.0
            } else {
                batched as f64 / batches as f64
            },
            latencies_ns: self.latencies,
            events: self.event_count,
        };
        (point, chip_util)
    }

    /// Admission queue depth right now: the configured depth, shrunk by
    /// the shed fraction while any chip is down.
    fn effective_depth(&self) -> usize {
        if self.down_count == 0 {
            self.spec.queue_depth
        } else {
            let kept = (self.spec.queue_depth as f64) * (1.0 - self.params.shed_fraction);
            (kept.floor() as usize).max(1)
        }
    }

    /// The first up chip scanning round-robin from `home`, if any.
    fn route(&self, home: usize) -> Option<usize> {
        let fleet = self.chips.len();
        (0..fleet)
            .map(|k| (home + k) % fleet)
            .find(|&c| self.chips[c].up)
    }

    /// Whether a batch launched on `chip` at `t` falls in a throttle
    /// window.
    fn throttled(&self, chip: usize, t: u64) -> bool {
        let w = &self.throttles[chip];
        let i = w.partition_point(|&(s, _)| s <= t);
        i > 0 && t < w[i - 1].1
    }

    /// Launches a batch from `chip`'s queue head: up to `max_batch`
    /// queued requests of the head request's tenant, FIFO, delayed by
    /// the re-mapping stall and slowed inside a throttle window.
    fn launch(&mut self, chip: usize, now: u64) {
        let throttle = self.throttled(chip, now.max(self.chips[chip].blocked_until));
        let (requests, max_batch) = (self.requests, self.spec.max_batch);
        let st = &mut self.chips[chip];
        let head_tenant = requests[st.queue[0] as usize].tenant;
        debug_assert!(st.in_flight.is_empty());
        // Move the batch out of the queue in place; the rest keeps its
        // FIFO order.
        let in_flight = &mut st.in_flight;
        st.queue.retain(|&idx| {
            let take = in_flight.len() < max_batch && requests[idx as usize].tenant == head_tenant;
            if take {
                in_flight.push(idx);
            }
            !take
        });
        st.armed = None;
        let start = now.max(st.blocked_until);
        let mut dur = batch_latency_ns(self.service_ns[head_tenant as usize], st.in_flight.len());
        if throttle {
            dur = ((dur as f64) * self.params.throttle_slowdown).round() as u64;
        }
        st.batches += 1;
        st.batched_requests += st.in_flight.len() as u64;
        // Accrue the busy interval [start, start + dur) into the horizon
        // slices (clipped; drain past the horizon is not utilization).
        let (mut t, end) = (
            start.min(self.horizon_ns),
            (start + dur).min(self.horizon_ns),
        );
        while t < end {
            let slice = (t / self.slice_ns) as usize;
            let slice_end = ((slice as u64 + 1) * self.slice_ns).min(end);
            st.busy_ns[slice.min(UTIL_SLICES - 1)] += slice_end - t;
            t = slice_end;
        }
        self.scratch
            .events
            .push(start + dur, fleet_key(FTAG_COMPLETION, chip, st.comp_gen));
    }

    /// Admits request `idx` to `target`'s queue, launching a batch or
    /// arming the batching window. `false` when the queue is full at the
    /// current effective depth.
    fn admit(&mut self, target: usize, idx: u64, now: u64) -> bool {
        if self.chips[target].queue.len() >= self.effective_depth() {
            return false;
        }
        let st = &mut self.chips[target];
        st.queue.push_back(idx);
        if !st.busy {
            if st.queue.len() >= self.spec.max_batch || self.window_ns == 0 {
                st.busy = true;
                self.launch(target, now);
            } else if st.armed.is_none() {
                st.window_gen += 1;
                st.armed = Some(st.window_gen);
                self.scratch.events.push(
                    now + self.window_ns,
                    fleet_key(FTAG_WINDOW, target, st.window_gen),
                );
            }
        }
        true
    }

    /// A rejection at admission; attributes it to degraded-mode
    /// shedding when the request would have fit the healthy depth.
    fn reject(&mut self, target: usize) {
        self.rejected += 1;
        if self.down_count > 0 && self.chips[target].queue.len() < self.spec.queue_depth {
            self.shed += 1;
        }
    }

    /// Request `idx` was lost (its chip failed, or no chip could take
    /// it): schedule a bounded-backoff retry, or drop it as timed out
    /// when retries or the deadline are exhausted.
    fn retry_or_timeout(&mut self, idx: u64, now: u64) {
        let attempts = &mut self.scratch.attempts[idx as usize];
        *attempts += 1;
        let attempts = *attempts;
        let deadline = self.requests[idx as usize].arrival_ns + self.params.retry.timeout_ns();
        if attempts > self.params.retry.max_retries {
            self.timed_out += 1;
            return;
        }
        let at = now + self.params.retry.backoff_ns(attempts);
        if at > deadline {
            self.timed_out += 1;
            return;
        }
        self.retries += 1;
        let home = (idx as usize) % self.chips.len();
        self.scratch
            .events
            .push(at, fleet_key(FTAG_RETRY, home, idx));
    }

    /// The next arrival event `(time, fleet_key)` without consuming it.
    /// Requests arriving at one instant are staged in `scratch.ties` so
    /// they leave in key order (chip, then index), as the queue would
    /// order them; consuming one is `scratch.ties.pop()`.
    fn peek_arrival(&mut self) -> Option<(u64, u64)> {
        if self.scratch.ties.is_empty() {
            let t = self.requests.get(self.next_arrival)?.arrival_ns;
            let fleet = self.chips.len();
            while let Some(r) = self.requests.get(self.next_arrival) {
                if r.arrival_ns != t {
                    break;
                }
                let i = self.next_arrival;
                self.scratch
                    .ties
                    .push(fleet_key(FTAG_ARRIVAL, i % fleet, i as u64));
                self.next_arrival += 1;
            }
            self.scratch.ties.sort_unstable_by(|a, b| b.cmp(a));
            self.tie_ns = t;
        }
        self.scratch.ties.last().map(|&key| (self.tie_ns, key))
    }

    /// Runs the load point to completion, merging the sorted arrival
    /// stream against the event queue in exact `(time, key)` order.
    fn run(&mut self) {
        loop {
            let next = match self.peek_arrival() {
                Some(arrival) if self.scratch.events.peek().is_none_or(|ev| arrival < ev) => {
                    self.scratch.ties.pop();
                    Some(arrival)
                }
                _ => self.scratch.events.pop(),
            };
            let Some((now, key)) = next else { break };
            self.event_count += 1;
            let tag = key >> 56;
            let chip = ((key >> 40) & 0xFFFF) as usize;
            let id = key & 0xFF_FFFF_FFFF;
            match tag {
                FTAG_COMPLETION => {
                    if !self.chips[chip].up || id != self.chips[chip].comp_gen {
                        continue; // the chip failed after this batch launched
                    }
                    let st = &mut self.chips[chip];
                    st.busy = false;
                    for &idx in &st.in_flight {
                        self.latencies
                            .push(now - self.requests[idx as usize].arrival_ns);
                    }
                    st.in_flight.clear();
                    if !st.queue.is_empty() {
                        // Backlogged: the head already waited at least
                        // one window; launch immediately.
                        st.busy = true;
                        self.launch(chip, now);
                    }
                }
                FTAG_CHIP_UP => {
                    if !self.chips[chip].up {
                        self.chips[chip].up = true;
                        self.down_count -= 1;
                    }
                }
                FTAG_WINDOW => {
                    let st = &mut self.chips[chip];
                    if st.armed == Some(id) {
                        st.armed = None;
                        if !st.busy && !st.queue.is_empty() {
                            st.busy = true;
                            self.launch(chip, now);
                        }
                    }
                }
                FTAG_ARRIVAL => {
                    let home = (id as usize) % self.chips.len();
                    match self.route(home) {
                        None => self.retry_or_timeout(id, now),
                        Some(t) => {
                            if t != home {
                                self.failovers += 1;
                            }
                            if !self.admit(t, id, now) {
                                self.reject(t);
                            }
                        }
                    }
                }
                FTAG_RETRY => {
                    let home = (id as usize) % self.chips.len();
                    match self.route(home) {
                        // Nowhere to land (fleet down or target full):
                        // back off again rather than reject an already
                        // admitted-once request.
                        None => self.retry_or_timeout(id, now),
                        Some(t) => {
                            if !self.admit(t, id, now) {
                                self.retry_or_timeout(id, now);
                            }
                        }
                    }
                }
                FTAG_CHIP_DOWN => {
                    if !self.chips[chip].up {
                        continue;
                    }
                    self.down_count += 1;
                    let st = &mut self.chips[chip];
                    st.up = false;
                    st.busy = false;
                    st.armed = None;
                    st.comp_gen += 1;
                    let mut drained = std::mem::take(&mut self.scratch.drained);
                    let lost = st.in_flight.len();
                    drained.append(&mut st.in_flight);
                    drained.extend(st.queue.drain(..));
                    // In-flight work on the dead chip is lost: clients
                    // retry with backoff against their deadline.
                    for &idx in &drained[..lost] {
                        self.retry_or_timeout(idx, now);
                    }
                    // Queued-but-unserved requests fail over to the
                    // surviving chips in FIFO order.
                    for &idx in &drained[lost..] {
                        match self.route((idx as usize) % self.chips.len()) {
                            None => self.retry_or_timeout(idx, now),
                            Some(t) => {
                                self.failovers += 1;
                                if !self.admit(t, idx, now) {
                                    self.reject(t);
                                }
                            }
                        }
                    }
                    drained.clear();
                    self.scratch.drained = drained;
                    // Survivors stall while the mapper re-packs the lost
                    // chip's share of the workload.
                    if self.params.remap_penalty_ns > 0 {
                        for c in 0..self.chips.len() {
                            if c != chip && self.chips[c].up {
                                let s = &mut self.chips[c];
                                s.blocked_until =
                                    s.blocked_until.max(now + self.params.remap_penalty_ns);
                            }
                        }
                    }
                }
                _ => unreachable!("unknown fleet event tag {tag}"),
            }
        }
    }
}

/// One load point's fleet-loop result: its statistics and each chip's
/// busy fraction per horizon slice. Both public entry points project it.
type PointRun = (ResiliencePointOutcome, Vec<Vec<f64>>);

/// The fleet loop behind both public entry points: generates every load
/// point's stream once, single-threaded, then simulates the load points
/// independently across `threads` workers, in `spec.loads` order.
fn simulate_points(
    spec: &ServingSpec,
    params: &ResilienceParams,
    service_ns: &[u64],
    seed: u64,
    threads: usize,
) -> Vec<PointRun> {
    assert_eq!(service_ns.len(), spec.tenants.len());
    assert!(
        service_ns.iter().all(|&s| s > 0),
        "service latencies must be positive"
    );
    let streams: Vec<(f64, Vec<Request>)> = spec
        .loads
        .iter()
        .map(|&load| (load, generate_stream(spec, load, seed)))
        .collect();
    parallel_map(&streams, threads, |(load, requests)| {
        FAULT_SCRATCH.with(|s| {
            let scratch = &mut *s.borrow_mut();
            let mut sim = FleetSim::new(spec, params, service_ns, requests, scratch);
            sim.run();
            sim.finish(*load)
        })
    })
}

/// Runs the serving sweep under a fault plan: for every offered-load
/// point the whole fleet shares one event queue, so chip failures and
/// repairs, bounded-backoff retries, failovers, degraded-mode shedding
/// and re-mapping stalls replay in one deterministic order.
///
/// With [`ResilienceParams::healthy`] this runs exactly the simulation
/// behind [`simulate_serving`] (same streams, same policy, same
/// counters) — pinned by the `resilience` golden's zero-fault row.
///
/// Request accounting is conservative by construction and checked in
/// debug builds: `offered == completed + rejected + timed_out` at every
/// load point.
///
/// # Panics
///
/// Panics when `service_ns.len() != spec.tenants.len()` or when a
/// service latency is zero (the spec should be validated first).
pub fn simulate_resilient_serving(
    spec: &ServingSpec,
    params: &ResilienceParams,
    service_ns: &[u64],
    seed: u64,
    threads: usize,
) -> ResilienceOutcome {
    let per_load: Vec<ResiliencePointOutcome> =
        simulate_points(spec, params, service_ns, seed, threads)
            .into_iter()
            .map(|(point, _)| point)
            .collect();
    ResilienceOutcome {
        requests: per_load.iter().map(|l| l.offered).sum(),
        events: per_load.iter().map(|l| l.events).sum(),
        per_load,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ServingSpec {
        ServingSpec::default()
    }

    fn service() -> Vec<u64> {
        // Distinct, plausible single-request latencies (ns).
        vec![400_000, 250_000, 150_000]
    }

    #[test]
    fn default_spec_validates() {
        assert_eq!(spec().validate(), Ok(()));
    }

    #[test]
    fn zero_fleet_is_rejected() {
        let mut s = spec();
        s.fleet = 0;
        assert_eq!(s.validate(), Err(ServingError::ZeroField("fleet")));
    }

    #[test]
    fn nonpositive_horizon_is_rejected() {
        let mut s = spec();
        s.horizon_ms = 0.0;
        assert_eq!(
            s.validate(),
            Err(ServingError::NonPositive {
                field: "horizon_ms",
                value: 0.0
            })
        );
    }

    #[test]
    fn negative_batch_window_is_rejected() {
        let mut s = spec();
        s.batch_window_us = -3.0;
        assert_eq!(s.validate(), Err(ServingError::NegativeWindow(-3.0)));
    }

    #[test]
    fn zero_max_batch_is_rejected() {
        let mut s = spec();
        s.max_batch = 0;
        assert_eq!(s.validate(), Err(ServingError::ZeroField("max_batch")));
    }

    #[test]
    fn zero_queue_depth_is_rejected() {
        let mut s = spec();
        s.queue_depth = 0;
        assert_eq!(s.validate(), Err(ServingError::ZeroField("queue_depth")));
    }

    #[test]
    fn nonpositive_slo_is_rejected() {
        let mut s = spec();
        s.slo_ms = -1.0;
        assert_eq!(
            s.validate(),
            Err(ServingError::NonPositive {
                field: "slo_ms",
                value: -1.0
            })
        );
    }

    #[test]
    fn empty_loads_are_rejected() {
        let mut s = spec();
        s.loads.clear();
        assert_eq!(s.validate(), Err(ServingError::EmptyLoads));
    }

    #[test]
    fn nonpositive_load_multiplier_is_rejected() {
        let mut s = spec();
        s.loads = vec![1.0, 0.0];
        assert_eq!(
            s.validate(),
            Err(ServingError::NonPositive {
                field: "load multiplier",
                value: 0.0
            })
        );
    }

    #[test]
    fn empty_tenant_mix_is_rejected() {
        let mut s = spec();
        s.tenants.clear();
        assert_eq!(s.validate(), Err(ServingError::EmptyTenants));
    }

    #[test]
    fn unknown_tenant_model_is_rejected() {
        let mut s = spec();
        s.tenants[1].model = "M99".into();
        assert_eq!(
            s.validate(),
            Err(ServingError::UnknownModel("M99".to_string()))
        );
        // The message still names the model for the CLI surface.
        assert!(ServingError::UnknownModel("M99".to_string())
            .to_string()
            .contains("M99"));
    }

    #[test]
    fn nonpositive_tenant_rate_is_rejected() {
        let mut s = spec();
        s.tenants[0].rate_rps = 0.0;
        assert_eq!(
            s.validate(),
            Err(ServingError::NonPositiveRate {
                model: "M1".to_string(),
                value: 0.0
            })
        );
    }

    #[test]
    fn serving_is_deterministic_across_thread_counts() {
        let s = spec();
        let svc = service();
        let one = simulate_serving(&s, &svc, 7, 1);
        let four = simulate_serving(&s, &svc, 7, 4);
        let eight = simulate_serving(&s, &svc, 7, 8);
        assert_eq!(one, four);
        assert_eq!(one, eight);
    }

    #[test]
    fn conservation_and_ordering_hold() {
        let out = simulate_serving(&spec(), &service(), 3, 2);
        assert_eq!(out.per_load.len(), 2);
        for lp in &out.per_load {
            assert_eq!(lp.completed + lp.rejected, lp.offered);
            assert!(lp.p50_ns <= lp.p95_ns && lp.p95_ns <= lp.p99_ns);
            assert!((0.0..=1.0).contains(&lp.slo_attainment));
            assert!(lp.mean_batch >= 1.0);
            assert_eq!(lp.chip_util.len(), 2);
            for chip in &lp.chip_util {
                assert_eq!(chip.len(), UTIL_SLICES);
                assert!(chip.iter().all(|&u| (0.0..=1.0 + 1e-9).contains(&u)));
            }
            assert!(lp.events >= lp.offered);
        }
        assert_eq!(out.requests, out.per_load.iter().map(|l| l.offered).sum());
    }

    #[test]
    fn heavier_load_degrades_service() {
        // Service times on the order of the real Table I model latencies,
        // so queueing (not the batch window) dominates the tail. With the
        // test's sub-ms services, heavier load can legitimately *improve*
        // p99: full batches launch early and skip the max-delay window.
        let service = vec![2_400_000, 550_000, 2_000_000];
        let out = simulate_serving(&spec(), &service, 3, 2);
        let (light, heavy) = (&out.per_load[0], &out.per_load[1]);
        assert!(heavy.offered > light.offered);
        // Heavier load must hurt somewhere: either the tail grows, or the
        // bounded queue starts turning requests away (rejected requests
        // never enter the latency distribution, so admission control can
        // truncate the completed-request tail).
        assert!(
            heavy.p99_ns >= light.p99_ns || heavy.rejected > light.rejected,
            "p99 {} vs {}, rejected {} vs {}",
            heavy.p99_ns,
            light.p99_ns,
            heavy.rejected,
            light.rejected
        );
        assert!(heavy.slo_attainment <= light.slo_attainment);
        // Utilization rises with load on every chip.
        let mean = |lp: &LoadPointOutcome| {
            lp.chip_util.iter().flat_map(|c| c.iter()).sum::<f64>()
                / (lp.chip_util.len() * UTIL_SLICES) as f64
        };
        assert!(mean(heavy) > mean(light));
    }

    #[test]
    fn zero_window_launches_immediately() {
        let mut s = spec();
        s.batch_window_us = 0.0;
        s.loads = vec![0.2]; // light load: no queue pressure
        let out = simulate_serving(&s, &service(), 5, 1);
        let lp = &out.per_load[0];
        // Every batch launches on arrival: latency of an uncontended
        // request is exactly its batch-of-1 service time.
        assert!(lp.mean_batch >= 1.0 && lp.mean_batch < 2.0);
        assert!(lp.rejected == 0);
    }

    #[test]
    fn bounded_queue_rejects_under_overload() {
        let mut s = spec();
        s.queue_depth = 2;
        s.loads = vec![6.0];
        let out = simulate_serving(&s, &service(), 5, 2);
        assert!(out.per_load[0].rejected > 0);
        assert!(out.per_load[0].slo_attainment < 1.0);
    }

    #[test]
    fn batch_latency_amortizes_the_fixed_part() {
        let base = 1_000_000;
        assert_eq!(batch_latency_ns(base, 1), base);
        let four = batch_latency_ns(base, 4);
        assert!(four < 4 * base, "batching must amortize: {four}");
        assert!(four > base);
    }

    // -- resilience -------------------------------------------------------

    /// A plan with a couple of mid-horizon outages on chip 0 plus link
    /// and throttle noise.
    fn faulty_params() -> ResilienceParams {
        ResilienceParams {
            plan: FaultPlan {
                chip_faults: vec![
                    crate::faults::ChipFault {
                        chip: 0,
                        down_ns: 9_000_000,
                        up_ns: 14_000_000,
                    },
                    crate::faults::ChipFault {
                        chip: 0,
                        down_ns: 31_000_000,
                        up_ns: 36_000_000,
                    },
                ],
                link_faults: Vec::new(),
                throttles: vec![crate::faults::ThrottleWindow {
                    chip: 1,
                    start_ns: 20_000_000,
                    end_ns: 26_000_000,
                }],
            },
            retry: RetryPolicy::default(),
            shed_fraction: 0.25,
            remap_penalty_ns: 50_000,
            throttle_slowdown: 1.5,
        }
    }

    /// One load point through the fleet loop; with `in_queue`, every
    /// arrival is pushed into the event queue up front and the cursor
    /// starts exhausted, so the queue alone orders them.
    fn run_point(
        spec: &ServingSpec,
        params: &ResilienceParams,
        service_ns: &[u64],
        load: f64,
        in_queue: bool,
    ) -> PointRun {
        let requests = generate_stream(spec, load, 13);
        let mut scratch = FaultScratch::new();
        let mut sim = FleetSim::new(spec, params, service_ns, &requests, &mut scratch);
        if in_queue {
            for (i, r) in requests.iter().enumerate() {
                sim.scratch.events.push(
                    r.arrival_ns,
                    fleet_key(FTAG_ARRIVAL, i % spec.fleet, i as u64),
                );
            }
            sim.next_arrival = requests.len();
        }
        sim.run();
        sim.finish(load)
    }

    #[test]
    fn merged_arrivals_replay_the_all_in_queue_order_under_faults() {
        // Nanosecond services, windows and backoffs make arrivals (four
        // at one instant from the bursty tenant), completions, windows,
        // retries and chip edges collide at one instant, while outages
        // steer same-instant arrivals of several chips onto one
        // survivor, where their order decides admission.
        let tenant = |model: &str, process: ArrivalProcess| TenantSpec {
            model: model.to_string(),
            rate_rps: 1.5e8,
            process,
        };
        let s = ServingSpec {
            fleet: 3,
            horizon_ms: 0.02,
            batch_window_us: 0.004,
            max_batch: 3,
            queue_depth: 4,
            tenants: vec![
                tenant("M1", ArrivalProcess::Poisson),
                tenant("M9", ArrivalProcess::Bursty { burst: 4 }),
                tenant("M13", ArrivalProcess::Poisson),
            ],
            ..spec()
        };
        let fault = |chip, down_ns, up_ns| crate::faults::ChipFault {
            chip,
            down_ns,
            up_ns,
        };
        let p = ResilienceParams {
            plan: FaultPlan {
                chip_faults: vec![
                    fault(0, 2_000, 9_000),
                    fault(1, 5_000, 6_000),
                    fault(1, 12_000, 15_000),
                    fault(2, 14_000, 16_000),
                ],
                link_faults: Vec::new(),
                throttles: vec![crate::faults::ThrottleWindow {
                    chip: 2,
                    start_ns: 1_000,
                    end_ns: 8_000,
                }],
            },
            retry: RetryPolicy {
                max_retries: 3,
                backoff_base_us: 0.002,
                backoff_cap_us: 0.016,
                timeout_ms: 0.01,
            },
            shed_fraction: 0.5,
            remap_penalty_ns: 3,
            throttle_slowdown: 2.0,
        };
        let service_ns = [1, 2, 3];
        for load in [0.3, 1.0, 2.5] {
            let merged = run_point(&s, &p, &service_ns, load, false);
            assert_eq!(merged, run_point(&s, &p, &service_ns, load, true));
            let (point, _) = &merged;
            assert!(point.failovers > 0 && point.retries > 0 && point.shed > 0);
            let healthy = ResilienceParams::healthy();
            assert_eq!(
                run_point(&s, &healthy, &service_ns, load, false),
                run_point(&s, &healthy, &service_ns, load, true)
            );
        }
    }

    #[test]
    fn resilient_serving_is_deterministic_across_thread_counts() {
        let s = spec();
        let svc = service();
        let p = faulty_params();
        let one = simulate_resilient_serving(&s, &p, &svc, 7, 1);
        let four = simulate_resilient_serving(&s, &p, &svc, 7, 4);
        let eight = simulate_resilient_serving(&s, &p, &svc, 7, 8);
        assert_eq!(one, four);
        assert_eq!(one, eight);
    }

    #[test]
    fn conservation_holds_under_faults() {
        let s = spec();
        let out = simulate_resilient_serving(&s, &faulty_params(), &service(), 3, 2);
        for lp in &out.per_load {
            assert_eq!(
                lp.offered,
                lp.completed + lp.rejected + lp.timed_out,
                "injected = completed + rejected + timed out"
            );
            assert!(lp.p50_ns <= lp.p95_ns && lp.p95_ns <= lp.p99_ns);
            assert!((0.0..=1.0).contains(&lp.slo_attainment));
        }
    }

    #[test]
    fn chip_outages_trigger_retries_and_failovers() {
        let s = spec();
        let out = simulate_resilient_serving(&s, &faulty_params(), &service(), 3, 1);
        let healthy =
            simulate_resilient_serving(&s, &ResilienceParams::healthy(), &service(), 3, 1);
        let (f, h) = (&out.per_load[1], &healthy.per_load[1]);
        // Outages must be visible: work is steered off the dead chip
        // and/or lost in flight and retried.
        assert!(f.failovers > 0, "no failovers despite two outages");
        assert!(
            f.retries + f.timed_out > 0,
            "no lost in-flight work despite mid-batch failures"
        );
        // A degraded fleet can only do worse than a healthy one.
        assert!(f.slo_attainment <= h.slo_attainment);
    }

    #[test]
    fn whole_fleet_down_times_requests_out() {
        let mut s = spec();
        s.loads = vec![1.0];
        // Both chips dead across the entire horizon: nothing completes,
        // everything retries into the void and times out.
        let p = ResilienceParams {
            plan: FaultPlan {
                chip_faults: vec![
                    crate::faults::ChipFault {
                        chip: 0,
                        down_ns: 0,
                        up_ns: u64::MAX,
                    },
                    crate::faults::ChipFault {
                        chip: 1,
                        down_ns: 0,
                        up_ns: u64::MAX,
                    },
                ],
                ..FaultPlan::empty()
            },
            ..ResilienceParams::healthy()
        };
        let out = simulate_resilient_serving(&s, &p, &service(), 5, 1);
        let lp = &out.per_load[0];
        assert_eq!(lp.completed, 0);
        assert_eq!(lp.timed_out, lp.offered);
        assert_eq!(lp.slo_attainment, 0.0);
        assert!(lp.retries > 0);
    }

    #[test]
    fn shedding_shrinks_the_degraded_queue() {
        let mut s = spec();
        s.loads = vec![6.0]; // overload so queues stay full
        s.queue_depth = 8;
        let mut p = faulty_params();
        p.shed_fraction = 0.75;
        let out = simulate_resilient_serving(&s, &p, &service(), 5, 1);
        assert!(out.per_load[0].shed > 0, "no shed rejections in overload");
    }
}
