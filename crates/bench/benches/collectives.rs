//! Benchmarks of the collective algorithms on both planes.

use aiacc_cluster::{ClusterNet, ClusterSpec};
use aiacc_collectives::dataplane::{ring_allreduce, tree_allreduce, ReduceOp};
use aiacc_collectives::{CollectiveEngine, CollectiveSpec, RingMode};
use aiacc_simnet::{Event, Simulator};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_dataplane(c: &mut Criterion) {
    let make = || -> Vec<Vec<f32>> {
        (0..8).map(|w| (0..65_536).map(|i| (w * i) as f32).collect()).collect()
    };
    c.bench_function("dataplane/ring_allreduce_8x64k", |b| {
        b.iter_batched(
            make,
            |mut bufs| {
                ring_allreduce(&mut bufs, ReduceOp::Sum);
                black_box(bufs[0][0])
            },
            criterion::BatchSize::SmallInput,
        )
    });
    // The `dataplane_ef` gradient: 8 workers of 1,329,168 floats.
    let make_1m = || -> Vec<Vec<f32>> {
        (0..8).map(|w| (0..1_329_168).map(|i| ((w * i) % 4099) as f32).collect()).collect()
    };
    c.bench_function("dataplane/ring_allreduce_8x1m", |b| {
        b.iter_batched(
            make_1m,
            |mut bufs| {
                ring_allreduce(&mut bufs, ReduceOp::Sum);
                black_box(bufs[0][0])
            },
            criterion::BatchSize::LargeInput,
        )
    });
    c.bench_function("dataplane/tree_allreduce_8x64k", |b| {
        b.iter_batched(
            make,
            |mut bufs| {
                tree_allreduce(&mut bufs, 4, ReduceOp::Sum);
                black_box(bufs[0][0])
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

fn bench_timing_plane(c: &mut Criterion) {
    c.bench_function("timing/coarse_ring_64gpu_100MB", |b| {
        b.iter(|| {
            let mut sim = Simulator::new();
            let cluster = ClusterNet::build(&ClusterSpec::tcp_v100(64), sim.net_mut());
            let mut eng = CollectiveEngine::new();
            eng.launch(
                &mut sim,
                &cluster,
                CollectiveSpec::allreduce(1e8).with_mode(RingMode::Coarse),
            );
            let mut t = 0.0;
            while let Some((time, ev)) = sim.next_event() {
                if let Event::FlowCompleted(f) = ev {
                    if eng.on_flow_completed(&mut sim, f).is_some() {
                        t = time.as_secs_f64();
                    }
                }
            }
            black_box(t)
        })
    });
    c.bench_function("timing/stepwise_ring_16gpu_16MB", |b| {
        b.iter(|| {
            let mut sim = Simulator::new();
            let cluster = ClusterNet::build(&ClusterSpec::tcp_v100(16), sim.net_mut());
            let mut eng = CollectiveEngine::new();
            eng.launch(
                &mut sim,
                &cluster,
                CollectiveSpec::allreduce(16e6).with_mode(RingMode::Stepwise),
            );
            let mut t = 0.0;
            while let Some((time, ev)) = sim.next_event() {
                if let Event::FlowCompleted(f) = ev {
                    if eng.on_flow_completed(&mut sim, f).is_some() {
                        t = time.as_secs_f64();
                    }
                }
            }
            black_box(t)
        })
    });
}

criterion_group!(benches, bench_dataplane, bench_timing_plane);
criterion_main!(benches);
