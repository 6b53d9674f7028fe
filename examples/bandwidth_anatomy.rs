//! Anatomy of the multi-stream win (§III, Fig. 7).
//!
//! Run with: `cargo run --release --example bandwidth_anatomy`
//!
//! Shows, at the network level, why a single communication stream wastes a
//! VPC TCP link and how concurrent all-reduce rings recover the bandwidth —
//! the core observation AIACC-Training is built on.

use aiacc::prelude::*;

fn main() {
    println!("30 Gbps TCP NIC, single-flow cap 30% (measured in §III)\n");
    println!("{:>8} {:>13} {:>15}", "streams", "utilization", "effective Gbps");
    for streams in [1usize, 2, 3, 4, 6, 8, 12] {
        let mut sim = Simulator::new();
        let cluster = ClusterNet::build(&ClusterSpec::tcp_v100(16), sim.net_mut());
        for i in 0..streams {
            sim.start_flow(cluster.path(i % 8, 8 + (i % 8)).flow(1e12));
        }
        sim.net_mut().advance_to(SimTime::from_secs_f64(0.001));
        let util = sim.net_mut().utilization(cluster.node_tx_resource(0));
        println!("{streams:>8} {:>12.0}% {:>15.1}", util * 100.0, util * 30.0);
    }

    println!("\nEnd-to-end effect on one 100 MB all-reduce across 2 nodes:");
    for n in [1usize, 4, 8] {
        let mut sim = Simulator::new();
        let cluster = ClusterNet::build(&ClusterSpec::tcp_v100(16), sim.net_mut());
        let mut eng = CollectiveEngine::new();
        // n concurrent rings each carrying 1/n of the data (AIACC's unit
        // packing splits the volume across streams).
        for _ in 0..n {
            eng.launch(&mut sim, &cluster, CollectiveSpec::allreduce(1e8 / n as f64));
        }
        let mut t_done = 0.0;
        while let Some((t, ev)) = sim.next_event() {
            if let Event::FlowCompleted(f) = ev {
                if eng.on_flow_completed(&mut sim, f).is_some() {
                    t_done = t.as_secs_f64();
                }
            }
        }
        println!("  {n:>2} concurrent ring(s): {:.0} ms", t_done * 1e3);
    }
    println!("\nMore streams -> the same bytes move in a fraction of the time. ✓");
}
