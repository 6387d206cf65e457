//! Differential test of `simulate_serving` against an oracle built only
//! from public API: the per-chip serving loop restated on a
//! `BinaryHeap`. Each load point's stream comes from
//! `mapper::sample_arrivals` with the serving seed formula, is sharded
//! round-robin over the fleet, and every chip then runs its own bounded
//! queue, max-delay batching window and busy-slice accounting in
//! isolation.
//!
//! `simulate_serving` runs one fleet-wide event queue per load point and
//! merges the pre-sorted arrivals against it with a cursor instead of
//! queueing them. On a healthy fleet the chips never interact, so the
//! two must agree on every field of every `LoadPointOutcome`:
//! latencies, utilization slices and event counts included.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use dataflow_pim::mapper::{sample_arrivals, ArrivalConfig, ArrivalProcess};
use pim_core::{
    simulate_serving, LoadPointOutcome, ServingOutcome, ServingSpec, TenantSpec, UTIL_SLICES,
};

/// Fixed fraction of a batch's service time (weight staging).
const BATCH_FIXED_FRACTION: f64 = 0.5;

/// Event tags of one chip: at one instant a chip retires its batch,
/// then closes an expired window, then admits arrivals.
const COMPLETION: u64 = 0;
const WINDOW: u64 = 1;
const ARRIVAL: u64 = 2;

/// Single-request service latencies, ns, one per tenant of
/// `ServingSpec::default()`.
const SERVICE_NS: [u64; 3] = [400_000, 250_000, 150_000];

fn batch_latency_ns(base_ns: u64, k: usize) -> u64 {
    let lat = base_ns as f64 * (BATCH_FIXED_FRACTION + (1.0 - BATCH_FIXED_FRACTION) * k as f64);
    lat.round() as u64
}

/// `(tenant, arrival ns)` of one load point's merged stream, ascending
/// by arrival; ties keep tenant-major generation order.
fn stream(spec: &ServingSpec, load: f64, seed: u64) -> Vec<(usize, u64)> {
    let mut out = Vec::new();
    for (ti, tenant) in spec.tenants.iter().enumerate() {
        let cfg = ArrivalConfig {
            mean_interarrival: 1e9 / (tenant.rate_rps * load),
            mean_service: 1.0,
            seed: seed
                ^ (ti as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ load.to_bits().rotate_left(17),
        };
        for t in sample_arrivals(&cfg, &tenant.process, spec.horizon_ms * 1e6) {
            out.push((ti, t as u64));
        }
    }
    out.sort_by_key(|&(_, t)| t);
    out
}

/// What one chip contributes to its load point.
#[derive(Default)]
struct Chip {
    latencies: Vec<u64>,
    rejected: u64,
    batches: u64,
    batched: u64,
    busy_ns: [u64; UTIL_SLICES],
    events: u64,
}

/// One chip's loop over its shard, on a binary min-heap of
/// `(time, tag, local request index or window generation)`.
fn simulate_chip(
    spec: &ServingSpec,
    service_ns: &[u64],
    requests: &[(usize, u64)],
    horizon_ns: u64,
) -> Chip {
    let window_ns = (spec.batch_window_us * 1e3).round() as u64;
    let slice_ns = horizon_ns.div_ceil(UTIL_SLICES as u64).max(1);
    let mut heap: BinaryHeap<Reverse<(u64, u64, u64)>> = requests
        .iter()
        .enumerate()
        .map(|(i, &(_, t))| Reverse((t, ARRIVAL, i as u64)))
        .collect();
    let mut out = Chip::default();
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut in_flight: Vec<usize> = Vec::new();
    let mut busy = false;
    let mut armed: Option<u64> = None;
    let mut window_gen = 0u64;

    let launch = |now: u64,
                  queue: &mut VecDeque<usize>,
                  in_flight: &mut Vec<usize>,
                  heap: &mut BinaryHeap<Reverse<(u64, u64, u64)>>,
                  out: &mut Chip| {
        let head_tenant = requests[queue[0]].0;
        let mut kept = VecDeque::new();
        for idx in queue.drain(..) {
            if in_flight.len() < spec.max_batch && requests[idx].0 == head_tenant {
                in_flight.push(idx);
            } else {
                kept.push_back(idx);
            }
        }
        *queue = kept;
        let dur = batch_latency_ns(service_ns[head_tenant], in_flight.len());
        out.batches += 1;
        out.batched += in_flight.len() as u64;
        let (mut t, end) = (now.min(horizon_ns), (now + dur).min(horizon_ns));
        while t < end {
            let slice = (t / slice_ns) as usize;
            let slice_end = ((slice as u64 + 1) * slice_ns).min(end);
            out.busy_ns[slice.min(UTIL_SLICES - 1)] += slice_end - t;
            t = slice_end;
        }
        heap.push(Reverse((now + dur, COMPLETION, 0)));
    };

    while let Some(Reverse((now, tag, id))) = heap.pop() {
        out.events += 1;
        match tag {
            COMPLETION => {
                busy = false;
                for idx in in_flight.drain(..) {
                    out.latencies.push(now - requests[idx].1);
                }
                if !queue.is_empty() {
                    busy = true;
                    armed = None;
                    launch(now, &mut queue, &mut in_flight, &mut heap, &mut out);
                }
            }
            WINDOW => {
                if armed == Some(id) {
                    armed = None;
                    if !busy && !queue.is_empty() {
                        busy = true;
                        launch(now, &mut queue, &mut in_flight, &mut heap, &mut out);
                    }
                }
            }
            _ => {
                if queue.len() >= spec.queue_depth {
                    out.rejected += 1;
                    continue;
                }
                queue.push_back(id as usize);
                if !busy {
                    if queue.len() >= spec.max_batch || window_ns == 0 {
                        busy = true;
                        armed = None;
                        launch(now, &mut queue, &mut in_flight, &mut heap, &mut out);
                    } else if armed.is_none() {
                        window_gen += 1;
                        armed = Some(window_gen);
                        heap.push(Reverse((now + window_ns, WINDOW, window_gen)));
                    }
                }
            }
        }
    }
    out
}

fn nearest_rank(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 * pct).div_ceil(100).max(1) as usize;
    sorted[rank - 1]
}

/// The whole sweep, chip by chip, aggregated like `simulate_serving`.
fn oracle(spec: &ServingSpec, service_ns: &[u64], seed: u64) -> ServingOutcome {
    let horizon_ns = (spec.horizon_ms * 1e6).round() as u64;
    let slice_ns = horizon_ns.div_ceil(UTIL_SLICES as u64).max(1) as f64;
    let slo_ns = (spec.slo_ms * 1e6) as u64;
    let mut per_load = Vec::new();
    for &load in &spec.loads {
        let stream = stream(spec, load, seed);
        let mut shards = vec![Vec::new(); spec.fleet];
        for (i, &r) in stream.iter().enumerate() {
            shards[i % spec.fleet].push(r);
        }
        let chips: Vec<Chip> = shards
            .iter()
            .map(|s| simulate_chip(spec, service_ns, s, horizon_ns))
            .collect();
        let mut latencies: Vec<u64> = chips.iter().flat_map(|c| c.latencies.clone()).collect();
        latencies.sort_unstable();
        let offered = stream.len() as u64;
        let batches: u64 = chips.iter().map(|c| c.batches).sum();
        let batched: u64 = chips.iter().map(|c| c.batched).sum();
        let attained = latencies.partition_point(|&l| l <= slo_ns) as u64;
        per_load.push(LoadPointOutcome {
            load,
            offered_rps: spec.offered_rps(load),
            offered,
            completed: latencies.len() as u64,
            rejected: chips.iter().map(|c| c.rejected).sum(),
            p50_ns: nearest_rank(&latencies, 50),
            p95_ns: nearest_rank(&latencies, 95),
            p99_ns: nearest_rank(&latencies, 99),
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
            chip_util: chips
                .iter()
                .map(|c| c.busy_ns.iter().map(|&b| b as f64 / slice_ns).collect())
                .collect(),
            latencies_ns: latencies,
            events: chips.iter().map(|c| c.events).sum(),
        });
    }
    ServingOutcome {
        requests: per_load.iter().map(|l| l.offered).sum(),
        events: per_load.iter().map(|l| l.events).sum(),
        per_load,
    }
}

/// `simulate_serving` at 1 and 2 threads equals the oracle, field by
/// field and load point by load point.
fn assert_matches_oracle(spec: &ServingSpec, service_ns: &[u64], seed: u64) {
    spec.validate().expect("test spec validates");
    let expect = oracle(spec, service_ns, seed);
    for threads in [1, 2] {
        let got = simulate_serving(spec, service_ns, seed, threads);
        assert_eq!(got.per_load.len(), expect.per_load.len());
        for (g, e) in got.per_load.iter().zip(&expect.per_load) {
            assert_eq!(g, e, "load {} at {threads} threads", e.load);
        }
        assert_eq!(got, expect, "totals at {threads} threads");
    }
}

#[test]
fn default_spec_with_bursty_ties_matches_the_per_chip_oracle() {
    // Tenant M9 is `Bursty { burst: 4 }`: four requests arrive at one
    // nanosecond, so same-instant arrivals land on neighbouring chips.
    let spec = ServingSpec::default();
    assert!(spec
        .tenants
        .iter()
        .any(|t| matches!(t.process, ArrivalProcess::Bursty { .. })));
    assert_matches_oracle(&spec, &SERVICE_NS, 7);
    assert_matches_oracle(&spec, &SERVICE_NS, 0x5E41);
}

#[test]
fn single_chip_and_odd_fleets_match_the_oracle() {
    // Fleet 1 puts every burst on one chip (ties order by request
    // index); fleet 5 is not a power of two.
    for fleet in [1, 5] {
        let spec = ServingSpec {
            fleet,
            ..ServingSpec::default()
        };
        assert_matches_oracle(&spec, &SERVICE_NS, 3);
    }
}

#[test]
fn zero_batch_window_matches_the_oracle() {
    let spec = ServingSpec {
        batch_window_us: 0.0,
        loads: vec![0.2, 1.0, 3.0],
        ..ServingSpec::default()
    };
    assert_matches_oracle(&spec, &SERVICE_NS, 5);
}

#[test]
fn overloaded_shallow_queues_match_the_oracle() {
    let spec = ServingSpec {
        queue_depth: 2,
        loads: vec![6.0],
        ..ServingSpec::default()
    };
    let out = simulate_serving(&spec, &SERVICE_NS, 5, 1);
    assert!(out.per_load[0].rejected > 0, "the spec must overload");
    assert_matches_oracle(&spec, &SERVICE_NS, 5);
}

#[test]
fn all_bursty_five_chip_fleet_matches_the_oracle() {
    // Every tenant bursty, with bursts longer and shorter than the
    // fleet, and a batch larger than a burst.
    let bursty = |model: &str, rate_rps: f64, burst: u32| TenantSpec {
        model: model.to_string(),
        rate_rps,
        process: ArrivalProcess::Bursty { burst },
    };
    let spec = ServingSpec {
        fleet: 5,
        max_batch: 6,
        queue_depth: 5,
        loads: vec![0.5, 2.5],
        tenants: vec![
            bursty("M1", 900.0, 7),
            bursty("M9", 1_500.0, 3),
            bursty("M13", 600.0, 12),
        ],
        ..ServingSpec::default()
    };
    assert_matches_oracle(&spec, &SERVICE_NS, 11);
}

#[test]
fn nanosecond_coincidences_match_the_oracle() {
    // Services of a few ns, a 4 ns window and arrivals every few ns make
    // completions, windows and arrivals collide on one chip at one
    // instant, where the order completion < window < arrival decides
    // admission and batching.
    let tenant = |model: &str, process: ArrivalProcess| TenantSpec {
        model: model.to_string(),
        rate_rps: 1.5e8,
        process,
    };
    let spec = ServingSpec {
        fleet: 3,
        horizon_ms: 0.02,
        batch_window_us: 0.004,
        max_batch: 3,
        queue_depth: 4,
        loads: vec![0.3, 1.0],
        tenants: vec![
            tenant("M1", ArrivalProcess::Poisson),
            tenant("M9", ArrivalProcess::Bursty { burst: 4 }),
            tenant("M13", ArrivalProcess::Poisson),
        ],
        ..ServingSpec::default()
    };
    let service_ns = [1, 2, 3];
    assert_matches_oracle(&spec, &service_ns, 13);
    let out = simulate_serving(&spec, &service_ns, 13, 1);
    assert!(out.per_load.iter().all(|l| l.completed > 1_000));
}
