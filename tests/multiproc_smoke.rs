//! Smoke test of the multi-process drive: 2 processes × 1 PE pass a
//! token around a ring over the default flows-net backend until the comm
//! thread's gather declares quiescence. The leader re-executes this test
//! binary as rank 1 (`smoke_child`); both run the same SPMD body, so
//! handler ids agree. This is the only machine in its test binary: a
//! multi-process machine maps the isomalloc region at its one fixed base.

use flows::converse::{MachineBuilder, NetModel};
use flows_net::{child_rank, TopologySpec, World};
use std::sync::Arc;

/// Ring hops after the first send.
const HOPS: u64 = 50;

fn ring(world: Arc<World>) {
    let mut mb = MachineBuilder::new(world.num_pes())
        .net_model(NetModel::zero())
        .multiproc(world);
    let hop = mb.handler(|pe, msg| {
        let left = u64::from_le_bytes(msg.data[..8].try_into().unwrap());
        if left > 0 {
            let next = (pe.id() + 1) % pe.num_pes();
            pe.send(next, msg.handler, (left - 1).to_le_bytes().to_vec());
        }
    });
    let report = mb.run(move |pe| {
        if pe.id() == 0 {
            pe.send(1, hop, HOPS.to_le_bytes().to_vec());
        }
    });
    // DONE carries the leader's machine-wide sent count to every process.
    assert_eq!(report.messages, HOPS + 1, "global message ledger");
    assert_eq!(report.stranded_threads, [0]);
}

/// Child-process body; returns at once outside a flows-net environment.
#[test]
fn smoke_child() {
    if child_rank().is_none() {
        return;
    }
    ring(flows_net::attach_from_env().expect("child attach"));
}

#[test]
fn two_processes_ring_to_quiescence() {
    let world = TopologySpec::new(2, 1)
        .child_args(["smoke_child", "--exact", "--nocapture"])
        .launch()
        .expect("launch");
    ring(world.clone());
    world.shutdown().expect("the child exits cleanly");
}
