//! Allocator-traffic pin for the serving event loop. Once the
//! per-thread event queue is warm, the loop launches, completes, retries
//! and fails over batches without touching the allocator: what a sweep
//! still allocates (stream generation, the latency vector, per-chip
//! state) grows with the log of the request count, not with the number
//! of events. So doubling the horizon may add only a handful of
//! allocations, where a per-batch allocation would add thousands.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use pim_core::{
    simulate_resilient_serving, simulate_serving, ChipFault, FaultPlan, ResilienceParams,
    ServingSpec,
};

/// The allocation counter is process-global, so tests in this binary
/// must not run concurrently with the counting window.
static SERIAL: Mutex<()> = Mutex::new(());

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Extra allocations a doubled horizon may cost: log-growth of the
/// stream and latency vectors per load point, with room to spare.
const MAX_EXTRA_ALLOCS: u64 = 64;

/// Single-request service latencies, ns, one per default tenant.
const SERVICE_NS: [u64; 3] = [400_000, 250_000, 150_000];

/// The default tenants at 10x their rates on an 8-chip fleet over
/// `horizon_ms`, one load point below and one above saturation.
fn spec(horizon_ms: f64) -> ServingSpec {
    let mut spec = ServingSpec {
        fleet: 8,
        horizon_ms,
        loads: vec![0.8, 1.6],
        ..ServingSpec::default()
    };
    for t in &mut spec.tenants {
        t.rate_rps *= 10.0;
    }
    spec
}

/// Allocations made by `run`, and its result.
fn count<T>(run: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = run();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

#[test]
fn healthy_serving_allocations_do_not_grow_with_the_horizon() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let h = 100.0;
    // Warm the thread's event queue at the longer horizon.
    simulate_serving(&spec(2.0 * h), &SERVICE_NS, 7, 1);
    let (short, one) = count(|| simulate_serving(&spec(h), &SERVICE_NS, 7, 1));
    let (long, two) = count(|| simulate_serving(&spec(2.0 * h), &SERVICE_NS, 7, 1));
    let batches = |o: &pim_core::ServingOutcome| -> f64 {
        o.per_load
            .iter()
            .map(|l| l.completed as f64 / l.mean_batch)
            .sum()
    };
    assert!(
        batches(&two) - batches(&one) > 10.0 * MAX_EXTRA_ALLOCS as f64,
        "the doubled horizon must launch many more batches"
    );
    assert!(
        long <= short + MAX_EXTRA_ALLOCS,
        "serving allocations grew with the horizon: {short} at {h} ms, {long} at {} ms",
        2.0 * h
    );
}

#[test]
fn resilient_serving_allocations_do_not_grow_with_the_horizon() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let h = 100.0;
    // The same staggered 5 ms outage of every chip inside the first
    // horizon at either horizon: the loop retries and fails over
    // without allocating.
    let params = ResilienceParams {
        plan: FaultPlan {
            chip_faults: (0..8u32)
                .map(|chip| ChipFault {
                    chip,
                    down_ns: (10 + 10 * u64::from(chip)) * 1_000_000,
                    up_ns: (15 + 10 * u64::from(chip)) * 1_000_000,
                })
                .collect(),
            ..FaultPlan::empty()
        },
        ..ResilienceParams::healthy()
    };
    let run =
        |horizon_ms: f64| simulate_resilient_serving(&spec(horizon_ms), &params, &SERVICE_NS, 7, 1);
    run(2.0 * h);
    let (short, one) = count(|| run(h));
    let (long, two) = count(|| run(2.0 * h));
    assert!(one
        .per_load
        .iter()
        .all(|l| l.failovers > 0 && l.retries > 0));
    let batches = |o: &pim_core::ResilienceOutcome| -> f64 {
        o.per_load
            .iter()
            .map(|l| l.completed as f64 / l.mean_batch)
            .sum()
    };
    assert!(
        batches(&two) - batches(&one) > 10.0 * MAX_EXTRA_ALLOCS as f64,
        "the doubled horizon must launch many more batches"
    );
    assert!(
        long <= short + MAX_EXTRA_ALLOCS,
        "resilient allocations grew with the horizon: {short} at {h} ms, {long} at {} ms",
        2.0 * h
    );
}
