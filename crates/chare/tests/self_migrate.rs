//! A chare migrates itself from inside its own entry method.

use flows_chare::{create, init_pe, migrate, register_chare_type, send, Chare, ChareLayer};
use flows_comm::{CommLayer, ObjId};
use flows_converse::{MachineBuilder, NetModel, Pe};
use flows_pup::{from_bytes, pup_fields, to_bytes};
use std::sync::Mutex;

const HOPPER: ObjId = ObjId(9);

/// ep 0 adds the payload byte and hops to the next PE; ep 1 adds the
/// payload byte and reports `(pe, total, hops)`.
#[derive(Default, Debug, Clone, PartialEq)]
struct Hopper {
    total: u64,
    hops: u64,
}
pup_fields!(Hopper { total, hops });

static SEEN: Mutex<Vec<(usize, u64, u64)>> = Mutex::new(Vec::new());

impl Chare for Hopper {
    fn receive(&mut self, pe: &Pe, ep: u32, data: Vec<u8>) {
        self.total += data[0] as u64;
        match ep {
            0 => {
                self.hops += 1;
                migrate(pe, HOPPER, pe.id() + 1);
                // State written after the request still travels: the move
                // happens when this entry returns.
                self.total += 100;
                if self.hops < 2 {
                    // Sent while still resident here; it is delivered after
                    // the move and has to chase the chare.
                    send(pe, HOPPER, 0, vec![2]);
                }
            }
            1 => SEEN.lock().unwrap().push((pe.id(), self.total, self.hops)),
            _ => panic!("unknown ep {ep}"),
        }
    }

    fn pack(&mut self) -> Vec<u8> {
        to_bytes(self)
    }
}

fn hopper_factory(bytes: Vec<u8>) -> Box<dyn Chare> {
    Box::new(from_bytes::<Hopper>(&bytes).expect("hopper state"))
}

#[test]
fn chare_migrates_itself_from_its_own_entry() {
    let ty = register_chare_type(hopper_factory);
    let mut mb = MachineBuilder::new(3).net_model(NetModel::zero());
    let _ = CommLayer::register(&mut mb);
    let _ = ChareLayer::register(&mut mb);
    // Sent from PE 0 after the hops were started there: PE 0's location
    // cache is at best one hop stale, so the forwarding chain delivers it.
    let late = mb.handler(|pe, _| send(pe, HOPPER, 1, vec![5]));
    mb.run_deterministic(move |pe| {
        init_pe(pe);
        if pe.id() == 0 {
            create(pe, HOPPER, ty, Box::new(Hopper::default()));
            send(pe, HOPPER, 0, vec![1]);
            pe.send(0, late, vec![]);
        }
    });
    // 1 + 100 on PE 0, 2 + 100 on PE 1, then the late 5 on PE 2.
    assert_eq!(*SEEN.lock().unwrap(), vec![(2, 208, 2)]);
}
