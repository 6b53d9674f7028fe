//! Behavioural tests driving each baseline engine directly through the
//! `DdlEngine` interface with a minimal scheduler (no `aiacc-trainer`
//! dependency — that crate sits above this one).

use aiacc_baselines::{
    BytePsConfig, BytePsEngine, DdpConfig, DdpEngine, HorovodConfig, HorovodEngine, KvStoreConfig,
    KvStoreEngine,
};
use aiacc_cluster::{ClusterNet, ClusterSpec, ComputeModel};
use aiacc_core::ddl::{DdlEngine, DdlRouter, BWD_KIND, GRAD_KIND};
use aiacc_dnn::{zoo, DType, ModelProfile};
use aiacc_simnet::{Simulator, Token};

/// Runs one iteration of `engine` on `gpus` V100s; returns the completion
/// time in seconds.
fn drive(engine: &mut dyn DdlEngine, model: &ModelProfile, gpus: usize) -> f64 {
    let spec = ClusterSpec::tcp_v100(gpus);
    let mut sim = Simulator::new();
    let cluster = ClusterNet::build(&spec, sim.net_mut());
    let cm = ComputeModel::v100();
    let timing = cm.iteration_timing(model, model.default_batch_per_gpu(), DType::F32);
    let streams = (cm.max_comm_streams_during_compute(model), cm.max_comm_streams_idle());
    let mut router = DdlRouter::new(cluster, streams);

    router.begin_iteration(&mut sim, engine, 0, spec.world_size(), |sim| {
        for w in 0..spec.world_size() {
            for &(g, off) in &timing.grad_ready {
                sim.schedule(timing.forward + off, Token::new(GRAD_KIND, w as u32, g.0 as u64));
            }
            sim.schedule(timing.forward + timing.backward, Token::new(BWD_KIND, w as u32, 0));
        }
        sim.now() + timing.forward + timing.backward
    });
    // No fault plan is installed in these tests.
    while let Some((t, ev)) = sim.next_event() {
        router.deliver(&mut sim, engine, ev);
        if router.busy_workers() == 0 && engine.comm_done() {
            return t.as_secs_f64();
        }
    }
    panic!("{} never finished", engine.name());
}

#[test]
fn horovod_completes_and_reports_master_time() {
    let model = zoo::resnet50();
    let mut eng = HorovodEngine::new(&model, 16, HorovodConfig::default());
    let t = drive(&mut eng, &model, 16);
    assert!(t > 0.0);
    assert!(eng.master_time().as_secs_f64() > 0.0, "no coordinator cost recorded");
}

#[test]
fn horovod_master_cost_scales_with_workers() {
    let model = zoo::ctr_production();
    let mut small = HorovodEngine::new(&model, 8, HorovodConfig::default());
    let mut large = HorovodEngine::new(&model, 32, HorovodConfig::default());
    drive(&mut small, &model, 8);
    drive(&mut large, &model, 32);
    let ratio = large.master_time().as_secs_f64() / small.master_time().as_secs_f64();
    assert!(
        (3.0..6.0).contains(&ratio),
        "master time should scale ~4x with 4x workers, got {ratio:.2}"
    );
}

#[test]
fn horovod_bigger_fusion_buffer_means_fewer_larger_allreduces() {
    // Indirect but observable: with a tiny fusion buffer the single stream
    // pays per-unit latency many more times, so the iteration is slower.
    let model = zoo::vgg16();
    let mut tiny = HorovodEngine::new(
        &model,
        16,
        HorovodConfig { fusion_buffer: 1024.0 * 1024.0, ..HorovodConfig::default() },
    );
    let mut normal = HorovodEngine::new(&model, 16, HorovodConfig::default());
    let t_tiny = drive(&mut tiny, &model, 16);
    let t_normal = drive(&mut normal, &model, 16);
    assert!(t_tiny > t_normal, "tiny fusion {t_tiny} <= normal {t_normal}");
}

#[test]
fn ddp_bucket_count_follows_cap() {
    let model = zoo::resnet50();
    let fine = DdpEngine::new(&model, 4, DdpConfig { bucket_bytes: 5e6 });
    let coarse = DdpEngine::new(&model, 4, DdpConfig { bucket_bytes: 100e6 });
    assert!(fine.bucket_count() > coarse.bucket_count());
    let mut eng = DdpEngine::new(&model, 16, DdpConfig::default());
    let t = drive(&mut eng, &model, 16);
    assert!(t > 0.0);
}

#[test]
fn byteps_bottleneck_is_worker_nic_volume() {
    // §VIII-A attributes BytePS's poor showing to needing extra CPU servers;
    // our fluid model makes the structural limit visible: with 8 GPUs per
    // node each pushing AND pulling its full gradient, the *worker-side* NIC
    // carries ~g·B per direction — about 4× a ring's 2·B — no matter how
    // many servers exist. Renting extra CPU servers relieves the co-located
    // server ingress but not the worker egress, so it cannot change the
    // outcome by much on a TCP cloud, and BytePS stays far behind
    // all-reduce (Fig. 9).
    let model = zoo::vgg16();
    let mut colocated = BytePsEngine::new(&model, 32, BytePsConfig::default());
    let mut rented = BytePsEngine::new(
        &model,
        32,
        BytePsConfig { extra_cpu_server_nodes: 8, ..BytePsConfig::default() },
    );
    let t_co = drive(&mut colocated, &model, 32);
    let t_extra = drive(&mut rented, &model, 32);
    let ratio = t_extra / t_co;
    assert!(
        (0.7..1.3).contains(&ratio),
        "extra servers changed BytePS time by {ratio:.2}x — worker NIC should dominate"
    );
    // And BytePS remains several times slower than an 8-stream ring setup
    // would need for the same bytes: per-NIC volume ratio ≈ 4×.
    let mut horovod = HorovodEngine::new(&model, 32, HorovodConfig::default());
    let t_ring = drive(&mut horovod, &model, 32);
    assert!(t_co > t_ring, "byteps {t_co} should trail even single-stream ring {t_ring}");
}

#[test]
fn kvstore_completes_on_multi_node() {
    let model = zoo::resnet50();
    let mut eng = KvStoreEngine::new(&model, 16, KvStoreConfig);
    let t = drive(&mut eng, &model, 16);
    assert!(t > 0.0);
}

#[test]
fn all_baselines_handle_single_gpu() {
    let model = zoo::tiny_cnn();
    let engines: Vec<Box<dyn DdlEngine>> = vec![
        Box::new(HorovodEngine::new(&model, 1, HorovodConfig::default())),
        Box::new(DdpEngine::new(&model, 1, DdpConfig::default())),
        Box::new(BytePsEngine::new(&model, 1, BytePsConfig::default())),
        Box::new(KvStoreEngine::new(&model, 1, KvStoreConfig)),
    ];
    for mut e in engines {
        let t = drive(e.as_mut(), &model, 1);
        assert!(t >= 0.0, "{}", e.name());
    }
}

#[test]
fn engines_are_reusable_across_iterations() {
    let model = zoo::tiny_cnn();
    let mut eng = HorovodEngine::new(&model, 8, HorovodConfig::default());
    let t1 = drive(&mut eng, &model, 8);
    let t2 = drive(&mut eng, &model, 8);
    // Fresh simulator each call: identical iteration profile ⇒ identical time.
    assert!((t1 - t2).abs() < 1e-9, "{t1} vs {t2}");
}
