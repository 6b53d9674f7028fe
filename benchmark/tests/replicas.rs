//! The traced run's replicas must reproduce the library loops bit
//! for bit; checked here at tiny sizes on every engine and scheme.

use aiacc::baselines::{BytePsConfig, DdpConfig, HorovodConfig, KvStoreConfig};
use aiacc::cluster::ClusterSpec;
use aiacc::compress::Scheme;
use aiacc::dnn::zoo;
use aiacc::trainer::{DataParallelTrainer, EngineKind, TrainingSim, TrainingSimConfig};
use aiacc_benchmark::dataplane::{self, expected_wire_bytes};
use aiacc_benchmark::trace::Tracer;
use aiacc_benchmark::train::{self, Replica};

#[test]
fn training_replica_matches_training_sim_on_every_engine() {
    let engines = [
        EngineKind::aiacc_default(),
        EngineKind::Horovod(HorovodConfig::default()),
        EngineKind::PyTorchDdp(DdpConfig::default()),
        EngineKind::BytePs(BytePsConfig::default()),
        EngineKind::MxnetKvStore(KvStoreConfig::default()),
    ];
    for engine in engines {
        let cfg =
            TrainingSimConfig::new(ClusterSpec::tcp_v100(16), zoo::tiny_cnn(), engine).with_seed(3);
        let mut lib = TrainingSim::new(cfg.clone());
        let mut rep = Replica::new(cfg);
        let mut tr = Tracer::new(true);
        let names = train::Names::new(&mut tr);
        for i in 0..4 {
            let a = lib.run_iteration_detailed().iter_secs;
            let b = rep.iteration(&mut tr, &names);
            assert_eq!(a.to_bits(), b.to_bits(), "{engine} iteration {i}: {a} vs {b}");
        }
        assert!(rep.events > 0);
    }
}

#[test]
fn training_replica_matches_on_the_benchmark_configs() {
    // One iteration of each paper-scale configuration, untraced.
    for cfg in train::configs(1) {
        let mut lib = TrainingSim::new(cfg.clone());
        let mut rep = Replica::new(cfg);
        let mut off = Tracer::new(false);
        let names = train::Names::new(&mut off);
        let a = lib.run_iteration_detailed().iter_secs;
        assert_eq!(a.to_bits(), rep.iteration(&mut off, &names).to_bits());
    }
}

#[test]
fn data_plane_replica_matches_the_trainer_on_every_scheme() {
    let layers = [6, 16, 4];
    for scheme in [Scheme::None, Scheme::Fp16, Scheme::Int8, Scheme::TopK { ratio: 8 }] {
        let job = dataplane::job(&layers, 4, 8, scheme, 11);
        let mut lib = DataParallelTrainer::new(job.clone());
        let mut rep = dataplane::Replica::new(&job);
        let wire = expected_wire_bytes(&lib.model().param_layout(), scheme);
        for step in 0..6 {
            let (a, b) = (lib.step(), rep.step());
            assert_eq!(a.to_bits(), b.to_bits(), "{scheme} step {step}: {a} vs {b}");
            assert_eq!(lib.last_step_wire_bytes(), rep.last_step_wire_bytes());
            assert_eq!(lib.last_step_wire_bytes(), wire, "{scheme}: closed-form wire bytes");
        }
    }
}
