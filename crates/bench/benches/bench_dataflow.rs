//! Criterion benchmark for the dataflow axis: expanding one churned
//! placement into per-mode transfer sets (`mapper::transfers_for_batch_into`)
//! and folding buffer residency into compute costs (`pim::model_cost_with`).
//! Both cost a mode as its uniform preset mapping, preset construction
//! included; the four modes share the aligned-slice walk, so their costs
//! should stay within a small factor of the weight-stationary baseline.

use criterion::{criterion_group, criterion_main, Criterion};
use dnn::{build_model, Dataflow, Dataset, ModelKind, SegmentGraph};
use mapper::{map_task_sfc, transfers_for_batch_into, CapacityLedger, TaskId};
use pim::{model_cost_with, PimConfig};
use std::hint::black_box;
use std::time::Duration;

fn dataflow(c: &mut Criterion) {
    let g = build_model(ModelKind::ResNet18, Dataset::ImageNet).unwrap();
    let sg = SegmentGraph::from_layer_graph(&g);
    let (_, layout) = topology::floret(10, 10, 6).unwrap();
    let order = layout.global_order();
    let mut led = CapacityLedger::new(100, 1_000_000);
    let tp = map_task_sfc(&mut led, &order, TaskId(0), &sg).unwrap();
    let cfg = PimConfig::default();

    let mut group = c.benchmark_group("dataflow-resnet18");
    let mut out = Vec::new();
    for df in Dataflow::all() {
        group.bench_function(format!("transfers-{df}"), |b| {
            b.iter(|| {
                transfers_for_batch_into(black_box(&tp), black_box(&sg), 1, df, 1, &mut out);
                out.len()
            })
        });
    }
    group.bench_function("model-cost-4-modes", |b| {
        b.iter(|| {
            Dataflow::all()
                .into_iter()
                .map(|df| model_cost_with(black_box(&sg), &cfg, df).energy_pj)
                .sum::<f64>()
        })
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .measurement_time(Duration::from_secs(5))
        .warm_up_time(Duration::from_secs(1))
        .sample_size(20);
    targets = dataflow
);
criterion_main!(benches);
