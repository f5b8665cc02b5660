//! Event-driven objects ("chares", paper §2.4 and §3.2).
//!
//! A chare is a location-independent object with numbered entry methods.
//! Messages are routed to wherever the chare currently lives via
//! `flows-comm`; migration (the "simplest kind" per §3.2) packs the
//! object's application state with PUP and re-creates it from a registered
//! factory on the destination PE.

use flows_comm::{ObjId, Port};
use flows_converse::{IdMap, MachineBuilder, Message, Payload, Pe};
use flows_pup::pup_fields;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Mutex;

/// The comm-layer port chare traffic travels on.
pub const PORT_CHARE: Port = 0;

/// An event-driven object.
pub trait Chare: 'static {
    /// Entry-method dispatch: `ep` selects the method, `data` its payload.
    fn receive(&mut self, pe: &Pe, ep: u32, data: Vec<u8>);

    /// Serialize application state for migration (paired with the factory
    /// given to [`register_chare_type`]).
    fn pack(&mut self) -> Vec<u8> {
        Vec::new()
    }
}

/// Re-creates a chare from its packed state on the destination PE.
pub type ChareFactory = fn(Vec<u8>) -> Box<dyn Chare>;

/// Identifies a registered chare type across the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChareTypeId(u32);

static FACTORIES: Mutex<Vec<ChareFactory>> = Mutex::new(Vec::new());

/// Register a chare type's reconstruction factory (process-wide; do this
/// before machines run, symmetrically everywhere, like Charm++'s
/// registration phase).
pub fn register_chare_type(factory: ChareFactory) -> ChareTypeId {
    let mut f = FACTORIES.lock().unwrap();
    f.push(factory);
    ChareTypeId((f.len() - 1) as u32)
}

#[derive(Debug, Default, Clone, PartialEq)]
struct EpMsg {
    ep: u32,
    data: Vec<u8>,
}
pup_fields!(EpMsg { ep, data });

#[derive(Debug, Default, Clone, PartialEq)]
struct MoveMsg {
    obj: ObjId,
    type_id: u32,
    state: Vec<u8>,
}
pup_fields!(MoveMsg {
    obj,
    type_id,
    state
});

type ChareRef = Rc<RefCell<Box<dyn Chare>>>;

#[derive(Default)]
struct ChareState {
    chares: IdMap<ObjId, (u32, ChareRef)>,
    /// Destinations of chares that asked to migrate from inside their own
    /// entry method; [`deliver`] performs the move when the entry returns.
    deferred: IdMap<ObjId, usize>,
}

/// The chare layer; it routes through [`flows_comm::CommLayer`], which the
/// machine must register too.
#[derive(Debug, Clone, Copy)]
pub struct ChareLayer;

impl ChareLayer {
    /// Register the chare-migration handler on the machine builder, in
    /// any order relative to other handlers; [`migrate`] finds its id on
    /// each PE with [`Pe::handler_of`].
    pub fn register(mb: &mut MachineBuilder) -> ChareLayer {
        mb.handler(on_move);
        ChareLayer
    }
}

/// Install chare delivery on this PE (once, from the machine's init).
pub fn init_pe(pe: &Pe) {
    flows_comm::set_delivery(pe, PORT_CHARE, deliver);
}

/// Chare wires cross process boundaries in multi-process machines: bytes
/// that do not decode are a counted drop (`flows_comm::route_drops`), as
/// in the layers below.
fn deliver(pe: &Pe, obj: ObjId, payload: Payload) {
    let Ok(m) = flows_pup::from_bytes::<EpMsg>(&payload) else {
        flows_comm::drop_malformed(pe);
        return;
    };
    let chare = pe.ext::<ChareState, _>(|st| {
        st.chares
            .get(&obj)
            .unwrap_or_else(|| panic!("message for unknown chare {obj:?} on PE {}", pe.id()))
            .1
            .clone()
    });
    // The borrow ends before any further dispatch.
    chare.borrow_mut().receive(pe, m.ep, m.data);
    if let Some(dest) = pe.ext::<ChareState, _>(|st| st.deferred.remove(&obj)) {
        migrate(pe, obj, dest);
    }
}

fn on_move(pe: &Pe, msg: Message) {
    let Ok(m) = flows_pup::from_bytes::<MoveMsg>(&msg.data) else {
        flows_comm::drop_malformed(pe);
        return;
    };
    let Some(&factory) = FACTORIES.lock().unwrap().get(m.type_id as usize) else {
        flows_comm::drop_malformed(pe);
        return;
    };
    let chare = factory(m.state);
    pe.ext::<ChareState, _>(|st| {
        st.chares
            .insert(m.obj, (m.type_id, Rc::new(RefCell::new(chare))))
    });
    flows_comm::migrate_obj_in(pe, m.obj);
}

/// Create a chare of `type_id` as object `obj` on this PE.
pub fn create(pe: &Pe, obj: ObjId, type_id: ChareTypeId, chare: Box<dyn Chare>) {
    pe.ext::<ChareState, _>(|st| {
        let prev = st
            .chares
            .insert(obj, (type_id.0, Rc::new(RefCell::new(chare))));
        assert!(prev.is_none(), "chare {obj:?} already exists on this PE");
    });
    flows_comm::register_obj(pe, obj);
}

/// Invoke entry method `ep` of chare `obj` with `data`, wherever it lives.
pub fn send(pe: &Pe, obj: ObjId, ep: u32, data: Vec<u8>) {
    // Packed straight into the routed wire, ahead of its trailing routing
    // header: one copy of `data`. The pup form is `ep` (4 bytes), a length
    // prefix (8) and the bytes.
    let mut m = EpMsg { ep, data };
    flows_comm::route_with(pe, obj, PORT_CHARE, 12 + m.data.len(), |buf| {
        flows_pup::pack_into(&mut m, buf.vec_mut());
    });
}

/// Convenience: send using the ambient PE (handlers, threads).
pub fn send_from_here(obj: ObjId, ep: u32, data: Vec<u8>) {
    flows_converse::with_pe(|pe| send(pe, obj, ep, data));
}

/// Migrate chare `obj` from this PE to `dest`: pack its state, update the
/// location layer, ship it. Event-driven object migration is "the simplest
/// kind" (§3.2): data structures plus the name of the next event.
///
/// A chare may call this on itself from its own entry method: the chare
/// is borrowed by the dispatch then, so the move is recorded and happens
/// when the entry returns. Messages it sends itself in the meantime are
/// queued behind the entry and follow it through the location layer.
pub fn migrate(pe: &Pe, obj: ObjId, dest: usize) {
    assert_ne!(dest, pe.id(), "migrating to self is a no-op");
    let (type_id, chare) = pe.ext::<ChareState, _>(|st| {
        st.chares
            .get(&obj)
            .unwrap_or_else(|| panic!("cannot migrate unknown chare {obj:?}"))
            .clone()
    });
    let Ok(mut running) = chare.try_borrow_mut() else {
        pe.ext::<ChareState, _>(|st| st.deferred.insert(obj, dest));
        return;
    };
    let state = running.pack();
    drop(running);
    pe.ext::<ChareState, _>(|st| st.chares.remove(&obj));
    flows_comm::migrate_obj_out(pe, obj, dest);
    let mut m = MoveMsg {
        obj,
        type_id,
        state,
    };
    pe.send(dest, pe.handler_of(on_move), pe.pack_payload(&mut m));
}

/// Number of chares resident on this PE.
pub fn local_count(pe: &Pe) -> usize {
    pe.ext::<ChareState, _>(|st| st.chares.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flows_comm::{route, route_drops, CommLayer};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    struct Inert;

    impl Chare for Inert {
        fn receive(&mut self, _: &Pe, _: u32, _: Vec<u8>) {
            panic!("nothing valid was sent");
        }
    }

    /// Entry wires and move wires that do not decode, and moves naming an
    /// unregistered chare type, are counted drops.
    #[test]
    fn malformed_chare_wires_are_counted_drops() {
        let ty = register_chare_type(|_| Box::new(Inert));
        let drops = Arc::new(AtomicU64::new(u64::MAX));
        let mut mb = MachineBuilder::new(1);
        let _ = CommLayer::register(&mut mb);
        let _ = ChareLayer::register(&mut mb);
        let d = drops.clone();
        let probe = mb.handler(move |pe, _| d.store(route_drops(pe), Ordering::Relaxed));
        mb.run_deterministic(move |pe| {
            init_pe(pe);
            create(pe, ObjId(1), ty, Box::new(Inert));
            assert_eq!(route_drops(pe), 0);
            route(pe, ObjId(1), PORT_CHARE, vec![0xA5u8; 3]);
            pe.send(0, pe.handler_of(on_move), vec![0xA5u8; 3]);
            let mut stray = MoveMsg {
                obj: ObjId(2),
                type_id: u32::MAX,
                state: Vec::new(),
            };
            pe.send(0, pe.handler_of(on_move), flows_pup::to_bytes(&mut stray));
            // The local queue is FIFO: the probe runs after all three.
            pe.send(0, probe, Vec::new());
        });
        assert_eq!(drops.load(Ordering::Relaxed), 3);
    }
}
