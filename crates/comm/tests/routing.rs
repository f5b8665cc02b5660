//! Machine-level tests of the location layer and reductions.

use flows_comm::{
    contribute, migrate_obj_in, migrate_obj_out, register_obj, route, set_delivery,
    set_reduction_sink, CommLayer, ObjId, ReduceOp,
};
use flows_converse::{FaultPlan, MachineBuilder, NetModel};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

fn machine(pes: usize) -> (MachineBuilder, CommLayer) {
    let mut mb = MachineBuilder::new(pes).net_model(NetModel::zero());
    let layer = CommLayer::register(&mut mb);
    (mb, layer)
}

/// Deliveries recorded as (pe, obj, first-byte).
type Log = Arc<Mutex<Vec<(usize, u64, u8)>>>;

fn recording_delivery(
    log: &Log,
) -> impl Fn(&flows_converse::Pe, ObjId, flows_converse::Payload) + Clone + 'static {
    let log = log.clone();
    move |pe, obj, data| {
        log.lock()
            .unwrap()
            .push((pe.id(), obj.0, data.first().copied().unwrap_or(0)));
    }
}

#[test]
fn route_to_registered_object() {
    let (mb, _layer) = machine(3);
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let d = recording_delivery(&log);
    mb.run_deterministic(move |pe| {
        set_delivery(pe, 0, d.clone());
        if pe.id() == 1 {
            register_obj(pe, ObjId(10));
        }
        if pe.id() == 2 {
            // Sent before PE2 knows anything: routes via home (PE 10%3=1,
            // which is also where it lives).
            route(pe, ObjId(10), 0, vec![42]);
        }
    });
    assert_eq!(*log.lock().unwrap(), vec![(1, 10, 42)]);
}

#[test]
fn messages_sent_before_registration_are_buffered_at_home() {
    let (mut mb, _layer) = machine(2);
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let d = recording_delivery(&log);
    // Object 4's home is PE0; it registers on PE1 only after a message is
    // already buffered at the home.
    let late = Arc::new(AtomicU64::new(0));
    let late2 = late.clone();
    let reg = mb.handler(move |pe, _msg| {
        register_obj(pe, ObjId(4));
        late2.fetch_add(1, Ordering::Relaxed);
    });
    let d3 = d.clone();
    mb.run_deterministic(move |pe| {
        set_delivery(pe, 0, d3.clone());
        if pe.id() == 0 {
            route(pe, ObjId(4), 0, vec![7]); // buffered: nobody has it yet
            pe.send(1, reg, vec![]); // now PE1 registers it
        }
    });
    assert_eq!(late.load(Ordering::Relaxed), 1);
    assert_eq!(*log.lock().unwrap(), vec![(1, 4, 7)]);
}

#[test]
fn migration_forwards_and_updates_home() {
    // Object lives on PE2, then migrates to PE0. Another PE with a stale
    // view sends concurrently; the message must arrive exactly once.
    let (mut mb, _layer) = machine(3);
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let d = recording_delivery(&log);

    let obj = ObjId(5); // home = 5 % 3 = 2
    let arrive = mb.handler(move |pe, _msg| {
        migrate_obj_in(pe, obj);
    });
    let depart = mb.handler(move |pe, _msg| {
        migrate_obj_out(pe, obj, 0);
        pe.send(0, arrive, vec![]);
    });
    let poke = mb.handler(move |pe, _msg| {
        // PE1 sends with whatever (possibly stale) knowledge it has.
        route(pe, obj, 0, vec![9]);
    });
    let d2 = d.clone();
    mb.run_deterministic(move |pe| {
        set_delivery(pe, 0, d2.clone());
        if pe.id() == 2 {
            register_obj(pe, obj);
            route(pe, obj, 0, vec![1]); // delivered locally on PE2
            pe.send(2, depart, vec![]);
        }
        if pe.id() == 1 {
            pe.send(1, poke, vec![]); // concurrent with migration
        }
    });
    let log = log.lock().unwrap();
    // First delivery on PE2; the poked message exactly once (on PE2 before
    // departure or PE0 after arrival); no duplicates.
    assert!(log.contains(&(2, 5, 1)), "log: {log:?}");
    let nines: Vec<_> = log.iter().filter(|e| e.2 == 9).collect();
    assert_eq!(nines.len(), 1, "exactly-once delivery: {log:?}");
    assert_eq!(log.len(), 2);
}

#[test]
fn routed_messages_after_migration_reach_new_home_directly() {
    let (mut mb, _layer) = machine(4);
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let d = recording_delivery(&log);
    let obj = ObjId(8); // home = 0
    let arrive = mb.handler(move |pe, _| migrate_obj_in(pe, obj));
    let depart = mb.handler(move |pe, _| {
        migrate_obj_out(pe, obj, 3);
        pe.send(3, arrive, vec![]);
    });
    let send_late = mb.handler(move |pe, _| route(pe, obj, 0, vec![2]));
    let d2 = d.clone();
    mb.run_deterministic(move |pe| {
        set_delivery(pe, 0, d2.clone());
        if pe.id() == 1 {
            register_obj(pe, obj);
            pe.send(1, depart, vec![]);
        }
        if pe.id() == 2 {
            pe.send(2, send_late, vec![]);
        }
    });
    let log = log.lock().unwrap();
    let twos: Vec<_> = log.iter().filter(|e| e.2 == 2).collect();
    assert_eq!(twos.len(), 1, "{log:?}");
}

#[test]
fn reductions_complete_with_correct_values() {
    let (mut mb, _layer) = machine(3);
    let results = Arc::new(Mutex::new(Vec::new()));
    let r2 = results.clone();
    let contribute_all = mb.handler(move |pe, _| {
        // Every PE contributes rank=pe with value pe+1 to tag 0 seq 0.
        contribute(
            pe,
            0,
            0,
            pe.id() as u64,
            ReduceOp::SumF64,
            3,
            ((pe.id() + 1) as f64).to_le_bytes().to_vec(),
        );
    });
    mb.run_deterministic(move |pe| {
        let r3 = r2.clone();
        set_reduction_sink(pe, move |_pe, red| {
            let v = f64::from_le_bytes(red.data[..8].try_into().unwrap());
            r3.lock().unwrap().push((red.tag, red.seq, v));
        });
        pe.send(pe.id(), contribute_all, vec![]);
    });
    let results = results.lock().unwrap();
    assert_eq!(*results, vec![(0, 0, 6.0)], "1+2+3");
}

#[test]
fn gather_orders_by_rank() {
    let (mut mb, _layer) = machine(4);
    let results = Arc::new(Mutex::new(Vec::new()));
    let r2 = results.clone();
    let go = mb.handler(move |pe, _| {
        // Contribute out of order: rank = 3 - pe.
        let rank = (3 - pe.id()) as u64;
        contribute(pe, 1, 7, rank, ReduceOp::Concat, 4, vec![rank as u8]);
    });
    mb.run_deterministic(move |pe| {
        let r3 = r2.clone();
        set_reduction_sink(pe, move |_pe, red| {
            r3.lock().unwrap().push(red.data.clone());
        });
        pe.send(pe.id(), go, vec![]);
    });
    assert_eq!(*results.lock().unwrap(), vec![vec![0u8, 1, 2, 3]]);
}

#[test]
fn interleaved_reduction_sequences_do_not_mix() {
    let (mut mb, _layer) = machine(2);
    let results = Arc::new(Mutex::new(Vec::new()));
    let r2 = results.clone();
    let go = mb.handler(move |pe, _| {
        for seq in 0..3u64 {
            contribute(
                pe,
                0,
                seq,
                pe.id() as u64,
                ReduceOp::SumU64,
                2,
                (seq * 10 + pe.id() as u64).to_le_bytes().to_vec(),
            );
        }
    });
    mb.run_deterministic(move |pe| {
        let r3 = r2.clone();
        set_reduction_sink(pe, move |_pe, red| {
            let v = u64::from_le_bytes(red.data[..8].try_into().unwrap());
            r3.lock().unwrap().push((red.seq, v));
        });
        pe.send(pe.id(), go, vec![]);
    });
    let mut got = results.lock().unwrap().clone();
    got.sort();
    assert_eq!(got, vec![(0, 1), (1, 21), (2, 41)]);
}

/// Every link duplicates every packet. A routed message is forwarded by
/// its home while the link still shares the arrived wire — with the
/// injected duplicate and the sender's retransmit copy — so the forward
/// must copy rather than rewrite it in place. Each message still reaches
/// the object exactly once with its bytes intact.
#[test]
fn forwarding_over_duplicating_links_delivers_each_message_once_intact() {
    let mut mb = MachineBuilder::new(3)
        .net_model(NetModel::zero())
        .fault_plan(FaultPlan::new(0xD0B1E).dup_prob(1.0));
    let _layer = CommLayer::register(&mut mb);
    let got = Arc::new(Mutex::new(Vec::new()));
    let obj = ObjId(4); // home = 4 % 3 = 1; lives on PE2
    let body = |i: u8| vec![i; 200];
    let fire = mb.handler(move |pe, _| {
        for i in 0..8 {
            route(pe, obj, 0, body(i));
        }
    });
    // Travels behind PE2's location update on the same in-order link, so
    // the home knows where the object lives before PE0 routes to it.
    let go = mb.handler(move |pe, _| pe.send(0, fire, vec![]));
    let g = got.clone();
    let report = mb.run_deterministic(move |pe| {
        let g = g.clone();
        set_delivery(pe, 0, move |pe, _, data: flows_converse::Payload| {
            g.lock().unwrap().push((pe.id(), data.to_vec()))
        });
        if pe.id() == 2 {
            register_obj(pe, obj);
            pe.send(1, go, vec![]);
        }
    });
    let mut got = got.lock().unwrap().clone();
    got.sort();
    let want: Vec<_> = (0..8).map(|i| (2, body(i))).collect();
    assert_eq!(got, want);
    let faults = report.faults.expect("fault plan installed");
    assert!(
        faults.duplicated > 0 && faults.dup_dropped > 0,
        "{faults:?}"
    );
}
