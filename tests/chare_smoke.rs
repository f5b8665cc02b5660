//! Smoke test of the chare path through the umbrella crate: a chare
//! migrates twice across a 3-PE deterministic machine while messages sent
//! to the PE it left chase it through the location layer's forwards.

use flows::chare::{create, init_pe, migrate, register_chare_type, send, Chare, ChareLayer};
use flows::comm::{CommLayer, ObjId};
use flows::converse::{MachineBuilder, NetModel, Pe};
use flows::pup::{from_bytes, pup_fields, to_bytes};
use std::sync::Mutex;

/// Home PE 0 of 3.
const TALLY: ObjId = ObjId(6);
const MSGS: u32 = 24;
const EP_RECORD: u32 = 0;
const EP_HOP: u32 = 1;

/// Records every message it receives; hops to PE 1 on request and on to
/// PE 2 from inside the entry that records the middle message.
#[derive(Default, Debug, Clone, PartialEq)]
struct Tally {
    seen: Vec<u32>,
    hops: u32,
    bytes: u64,
}
pup_fields!(Tally { seen, hops, bytes });

/// `(PE, final state)` once every message has been recorded.
static DONE: Mutex<Vec<(usize, Tally)>> = Mutex::new(Vec::new());

/// Message `i`: its index, then filler past the inline-payload size so
/// every hop forwards a shared buffer.
fn body(i: u32) -> Vec<u8> {
    let mut b = i.to_le_bytes().to_vec();
    b.resize(200, i as u8);
    b
}

impl Chare for Tally {
    fn receive(&mut self, pe: &Pe, ep: u32, data: Vec<u8>) {
        match ep {
            EP_HOP => {
                self.hops += 1;
                migrate(pe, TALLY, 1);
            }
            EP_RECORD => {
                let i = u32::from_le_bytes(data[..4].try_into().unwrap());
                assert_eq!(data, body(i), "message {i} arrived altered");
                self.seen.push(i);
                self.bytes += data.len() as u64;
                if self.seen.len() as u32 == MSGS / 2 {
                    self.hops += 1;
                    migrate(pe, TALLY, 2);
                }
                if self.seen.len() as u32 == MSGS {
                    DONE.lock().unwrap().push((pe.id(), self.clone()));
                }
            }
            _ => panic!("unknown ep {ep}"),
        }
    }

    fn pack(&mut self) -> Vec<u8> {
        to_bytes(self)
    }
}

fn tally_factory(bytes: Vec<u8>) -> Box<dyn Chare> {
    Box::new(from_bytes::<Tally>(&bytes).expect("tally state"))
}

#[test]
fn chare_migrates_twice_while_messages_chase_it() {
    let ty = register_chare_type(tally_factory);
    let mut mb = MachineBuilder::new(3).net_model(NetModel::zero());
    let _ = CommLayer::register(&mut mb);
    let _ = ChareLayer::register(&mut mb);
    mb.run_deterministic(move |pe| {
        init_pe(pe);
        if pe.id() == 0 {
            create(pe, TALLY, ty, Box::new(Tally::default()));
            // Queued behind the hop: every message reaches PE 0 after the
            // chare left it and is forwarded to PE 1; the second half
            // reaches PE 1 after it left again and is forwarded to PE 2.
            send(pe, TALLY, EP_HOP, Vec::new());
            for i in 0..MSGS {
                send(pe, TALLY, EP_RECORD, body(i));
            }
        }
    });
    let done = DONE.lock().unwrap();
    assert_eq!(
        done.len(),
        1,
        "the last message was recorded once: {done:?}"
    );
    let (at, tally) = &done[0];
    assert_eq!(*at, 2, "the chare ended on PE 2");
    assert_eq!(tally.hops, 2);
    assert_eq!(
        tally.seen,
        (0..MSGS).collect::<Vec<_>>(),
        "each message once, in order"
    );
    assert_eq!(tally.bytes, 200 * MSGS as u64);
}
