//! Handler registration order is a property of each machine, not of the
//! process: three machines run in sequence in one process, each
//! registering the layers in its own order, and every one works. A
//! process-global handler id would be fixed by the first machine and
//! clash with the second, which registers a handler of its own before
//! the layers. This file is its own test binary so that no other machine
//! ran in the process before it.

use flows::ampi::{run_world, Ampi, AmpiOptions};
use flows::chare::{create, init_pe, migrate, register_chare_type, send, Chare, ChareLayer};
use flows::comm::{CommLayer, ObjId};
use flows::converse::{HandlerId, MachineBuilder, NetModel, Pe};
use flows::lb::RotateLb;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const OBJ: ObjId = ObjId(4);
const MSGS: u8 = 8;

/// `(PE, byte)` for every entry a [`Recorder`] ran.
static SEEN: Mutex<Vec<(usize, u8)>> = Mutex::new(Vec::new());

/// A stateless chare that records where each of its entries ran.
struct Recorder;

impl Chare for Recorder {
    fn receive(&mut self, pe: &Pe, _ep: u32, data: Vec<u8>) {
        SEEN.lock().unwrap().push((pe.id(), data[0]));
    }
}

/// Route half the messages, migrate the chare from PE 0 to PE 1, route
/// the other half; every entry must run on PE 1, each message once. PE 0
/// also sends `poke` to PE 1, when given.
fn route_and_migrate(mb: MachineBuilder, poke: Option<HandlerId>) {
    SEEN.lock().unwrap().clear();
    let ty = register_chare_type(|_| Box::new(Recorder));
    mb.run_deterministic(move |pe| {
        init_pe(pe);
        if pe.id() == 0 {
            if let Some(h) = poke {
                pe.send(1, h, Vec::new());
            }
            create(pe, OBJ, ty, Box::new(Recorder));
            for i in 0..MSGS / 2 {
                send(pe, OBJ, 0, vec![i]);
            }
            migrate(pe, OBJ, 1);
            for i in MSGS / 2..MSGS {
                send(pe, OBJ, 0, vec![i]);
            }
        }
    });
    let mut seen = SEEN.lock().unwrap().clone();
    seen.sort();
    let want: Vec<(usize, u8)> = (0..MSGS).map(|i| (1, i)).collect();
    assert_eq!(seen, want);
}

static RING_SUM: AtomicU64 = AtomicU64::new(0);
static MOVED: AtomicU64 = AtomicU64::new(0);

/// One ring pass: send my rank to the right, add what the left sent.
fn ring(ampi: &mut Ampi) {
    let size = ampi.size();
    let right = (ampi.rank() + 1) % size;
    let left = (ampi.rank() + size - 1) % size;
    ampi.send(right, 7, vec![ampi.rank() as u8]);
    let (_, _, got) = ampi.recv(Some(left), Some(7));
    RING_SUM.fetch_add(got[0] as u64, Ordering::Relaxed);
}

fn ring_rank(ampi: &mut Ampi) {
    ring(ampi);
    ampi.barrier();
    let before = ampi.current_pe();
    ampi.migrate();
    if ampi.current_pe() != before {
        MOVED.fetch_add(1, Ordering::Relaxed);
    }
    ring(ampi);
}

#[test]
fn layers_register_in_any_order_on_every_machine() {
    // (a) The layers first, comm before chare.
    let mut mb = MachineBuilder::new(2).net_model(NetModel::zero());
    let _ = CommLayer::register(&mut mb);
    let _ = ChareLayer::register(&mut mb);
    route_and_migrate(mb, None);

    // (b) A handler of the program's own first, then chare, then comm.
    let fired = Arc::new(AtomicU64::new(0));
    let mut mb = MachineBuilder::new(2).net_model(NetModel::zero());
    let f = fired.clone();
    let own = mb.handler(move |pe, _| {
        assert_eq!(pe.id(), 1);
        f.fetch_add(1, Ordering::Relaxed);
    });
    let _ = ChareLayer::register(&mut mb);
    let _ = CommLayer::register(&mut mb);
    route_and_migrate(mb, Some(own));
    assert_eq!(fired.load(Ordering::Relaxed), 1);

    // (c) An AMPI world: a ring, a barrier, a migration epoch, a ring.
    let opts = AmpiOptions::new(4, 2)
        .with_net(NetModel::zero())
        .with_strategy(Arc::new(RotateLb));
    run_world(opts, ring_rank);
    assert_eq!(RING_SUM.load(Ordering::Relaxed), 2 * (1 + 2 + 3));
    assert_eq!(MOVED.load(Ordering::Relaxed), 4);
}
