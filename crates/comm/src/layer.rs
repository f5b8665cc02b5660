//! Object location management: registration, routing, forwarding,
//! buffering, migration notices.

use flows_converse::{HandlerId, IdMap, IdSet, MachineBuilder, Message, Payload, PayloadBuf, Pe};
use flows_pup::{pup_fields, Pup};
use std::collections::VecDeque;
use std::rc::Rc;

/// Location-independent endpoint identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ObjId(pub u64);

impl ObjId {
    /// The PE that maintains this object's authoritative location.
    pub fn home(self, num_pes: usize) -> usize {
        (self.0 % num_pes as u64) as usize
    }
}

/// The PE that maintains `obj`'s authoritative location, skipping PEs the
/// runtime has confirmed dead: an object homed on a casualty is re-homed
/// deterministically onto a survivor. Every PE computes the same map from
/// the machine-shared confirmed mask, so no agreement round is needed.
/// With no failures this is exactly [`ObjId::home`].
pub fn live_home(pe: &Pe, obj: ObjId) -> usize {
    live_map(pe, obj.0)
}

/// Deterministic `key -> live PE` map (see [`live_home`]); also used by
/// reductions to re-root streams whose root died.
pub(crate) fn live_map(pe: &Pe, key: u64) -> usize {
    let n = pe.num_pes();
    let naive = (key % n as u64) as usize;
    let mask = pe.confirmed_dead_mask();
    if mask & (1 << naive) == 0 {
        return naive;
    }
    let live: Vec<usize> = (0..n).filter(|&p| mask & (1 << p) == 0).collect();
    assert!(!live.is_empty(), "every PE is confirmed dead");
    live[(key % live.len() as u64) as usize]
}

/// Drop every location-cache entry claiming an object lives on `dead`.
/// Called by the recovery driver after a death is confirmed: the entries
/// are not merely stale, they point at a PE that will never forward again,
/// so routing must fall back to the (re-homed) authoritative home until
/// the respawned objects re-register. Returns how many entries were
/// purged.
pub fn purge_dead_locations(pe: &Pe, dead: usize) -> usize {
    pe.ext::<CommState, _>(|st| {
        let before = st.locations.len();
        st.locations.retain(|_, loc| *loc != dead);
        before - st.locations.len()
    })
}

impl Pup for ObjId {
    fn pup(&mut self, p: &mut flows_pup::Puper) {
        self.0.pup(p);
    }
}

/// Routing header. On the wire a routed message is the *raw* application
/// payload followed by this header PUP-packed — no length prefix, no
/// re-encoding: the receiver parses the header from the last
/// [`ROUTE_HDR_LEN`] bytes with [`parse_route`] and takes the rest as a
/// zero-copy [`Payload`] slice. Trailing, not leading, so the delivered
/// body is a prefix of the arrived buffer, which a receiver that holds it
/// alone can take over without a copy ([`Payload::into_vec`]).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct RouteHdr {
    obj: ObjId,
    port: u8,
    hops: u32,
    /// Set once the hop budget is exhausted: the message is pinned to the
    /// object's home, which must buffer it rather than forward again.
    pinned: u8,
}
pup_fields!(RouteHdr { obj, port, hops, pinned });

/// Bytes of a packed [`RouteHdr`] (u64 + u8 + u32 + u8, little-endian).
const ROUTE_HDR_LEN: usize = 14;

impl RouteHdr {
    /// The header's wire bytes: its pup form, written without a `Puper`
    /// so a forward can overwrite them in place.
    fn encode(&self) -> [u8; ROUTE_HDR_LEN] {
        let mut b = [0u8; ROUTE_HDR_LEN];
        b[..8].copy_from_slice(&self.obj.0.to_le_bytes());
        b[8] = self.port;
        b[9..13].copy_from_slice(&self.hops.to_le_bytes());
        b[13] = self.pinned;
        b
    }
}

/// Decode the header of a routed wire (its last [`ROUTE_HDR_LEN`] bytes);
/// `None` when the bytes are too short to hold one. Routed wires cross
/// process boundaries in multi-process machines, so a malformed one is a
/// counted drop, never a panic.
fn parse_route(bytes: &[u8]) -> Option<RouteHdr> {
    let b = &bytes[bytes.len().checked_sub(ROUTE_HDR_LEN)?..];
    Some(RouteHdr {
        obj: ObjId(u64::from_le_bytes(b[..8].try_into().ok()?)),
        port: b[8],
        hops: u32::from_le_bytes(b[9..13].try_into().ok()?),
        pinned: b[13],
    })
}

/// Build the wire image of a routed message in one pooled buffer: whatever
/// `pack` appends (room for at least `len_hint` bytes), then `hdr`.
fn route_wire(
    pe: &Pe,
    hdr: &RouteHdr,
    len_hint: usize,
    pack: impl FnOnce(&mut PayloadBuf),
) -> Payload {
    let mut buf = pe.payload_buf_with_capacity(len_hint + ROUTE_HDR_LEN);
    pack(&mut buf);
    buf.extend_from_slice(&hdr.encode());
    buf.freeze()
}

/// The body of a routed wire: everything before its trailing header.
fn route_body(wire: &Payload) -> Payload {
    wire.slice(0..wire.len() - ROUTE_HDR_LEN)
}

/// Send a routed wire on to `dest` with `hdr` as its header. The arrived
/// buffer is re-sent as is when this PE holds its only view (the self-hop
/// of every [`route`], a hop whose sender kept no copy). A wire still
/// shared — with a link's retransmit table, an injected duplicate, or a
/// transport's ring slot — is copied instead, so no other holder ever sees
/// the rewritten header.
fn forward(pe: &Pe, dest: usize, hdr: &RouteHdr, mut wire: Payload) {
    match wire.get_mut() {
        Some(bytes) => {
            let at = bytes.len() - ROUTE_HDR_LEN;
            bytes[at..].copy_from_slice(&hdr.encode())
        }
        None => {
            let body = &wire[..wire.len() - ROUTE_HDR_LEN];
            wire = route_wire(pe, hdr, body.len(), |buf| buf.extend_from_slice(body));
        }
    }
    pe.send(dest, pe.handler_of(on_route), wire);
}

/// Maximum forwarding hops before a message is pinned to its home PE. A
/// healthy machine resolves any location in a handful of hops; a budget of
/// `2 * num_pes + 4` tolerates a full stale-cache chain plus migration
/// races without letting a cyclic cache bounce a message forever.
pub fn max_route_hops(num_pes: usize) -> u32 {
    2 * num_pes as u32 + 4
}

/// One hop-budget overflow event (diagnostics; see [`route_overflows`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteOverflow {
    /// The object whose routing exceeded the hop budget.
    pub obj: ObjId,
    /// Hops accumulated when the budget tripped.
    pub hops: u32,
}

#[derive(Debug, Default, Clone, PartialEq)]
struct UpdateMsg {
    obj: ObjId,
    pe: u64,
    /// Sender's rollback epoch. A location update that was in flight when
    /// a recovery rolled the world back describes a placement that no
    /// longer exists; accepting it after the respawned object re-registers
    /// would wedge the home on a stale location forever.
    epoch: u64,
}
pup_fields!(UpdateMsg { obj, pe, epoch });

type DeliveryFn = Rc<dyn Fn(&Pe, ObjId, Payload)>;

/// Subsystem *port*: distinguishes the layers multiplexed over one routed
/// object space (chare arrays, AMPI, applications...).
pub type Port = u8;

/// Per-PE location tables (lives in the PE's extension slots).
#[derive(Default)]
pub(crate) struct CommState {
    local: IdSet<ObjId>,
    /// Best known location per object (authoritative on the home PE).
    locations: IdMap<ObjId, usize>,
    /// Messages parked at the home (or at the destination) until the
    /// object (re)appears. Parked payloads share the arrived bytes.
    buffered: IdMap<ObjId, VecDeque<(Port, Payload)>>,
    delivery: IdMap<Port, DeliveryFn>,
    /// Hop-budget overflows observed on this PE (surfaced, not fatal).
    overflows: Vec<RouteOverflow>,
    /// Routed wires dropped as malformed on this PE (see [`route_drops`]).
    drops: u64,
    /// This PE's rollback epoch (0 until a recovery bumps it). Stamped on
    /// location updates and reduction contributions; older stamps are
    /// dropped on receipt — the layer's half of the replay guard.
    epoch: u64,
}

/// The communication layer: register once on the machine builder.
#[derive(Debug, Clone, Copy)]
pub struct CommLayer {
    /// Routing handler id (exposed for diagnostics).
    pub route: HandlerId,
}

impl CommLayer {
    /// Register the layer's handlers on this machine, once per machine and
    /// in any order relative to other handlers. The layer finds its ids on
    /// each PE with [`Pe::handler_of`].
    pub fn register(mb: &mut MachineBuilder) -> CommLayer {
        let route = mb.handler(on_route);
        mb.handler(on_update);
        mb.handler(crate::reduce::on_contrib);
        CommLayer { route }
    }
}

fn on_route(pe: &Pe, msg: Message) {
    let Some(hdr) = parse_route(&msg.data) else {
        drop_malformed(pe);
        return;
    };
    // The whole arrived wire travels on: a forward re-sends it, a delivery
    // hands out its body, a prefix, as a zero-copy view.
    route_inner(pe, hdr, msg.data, Some(msg.src_pe));
}

fn on_update(pe: &Pe, msg: Message) {
    let Ok(m) = flows_pup::from_bytes::<UpdateMsg>(&msg.data) else {
        drop_malformed(pe);
        return;
    };
    let flushed = pe.ext::<CommState, _>(|st| {
        if m.epoch < st.epoch {
            // Stale: sent before the last rollback. The placement it
            // describes was erased by the recovery.
            return VecDeque::new();
        }
        st.locations.insert(m.obj, m.pe as usize);
        st.buffered.remove(&m.obj).unwrap_or_default()
    });
    for (port, payload) in flushed {
        route(pe, m.obj, port, payload);
    }
}

fn route_inner(pe: &Pe, mut hdr: RouteHdr, wire: Payload, came_from: Option<usize>) {
    let me = pe.id();
    let num = pe.num_pes();
    // Home resolution skips confirmed-dead PEs (identity map while the
    // machine is healthy).
    let home = live_home(pe, hdr.obj);
    if hdr.pinned == 0 && hdr.hops > max_route_hops(num) {
        // Cyclic or endlessly stale location caches: stop chasing. Record
        // the overflow, drop our (evidently bad) cache entry, and pin the
        // message to the object's home, which buffers it until the next
        // authoritative location update flushes it.
        pe.ext::<CommState, _>(|st| {
            st.overflows.push(RouteOverflow {
                obj: hdr.obj,
                hops: hdr.hops,
            });
            st.locations.remove(&hdr.obj);
        });
        hdr.pinned = 1;
        if home != me {
            hdr.hops += 1;
            forward(pe, home, &hdr, wire);
            return;
        }
    }
    enum Action {
        Deliver(Option<DeliveryFn>),
        Forward(usize),
        Buffer,
    }
    let pinned = hdr.pinned != 0;
    let action = pe.ext::<CommState, _>(|st| {
        if st.local.contains(&hdr.obj) {
            Action::Deliver(st.delivery.get(&hdr.port).cloned())
        } else if pinned {
            // Pinned to home: never forward again; wait for the next
            // location update to flush us.
            Action::Buffer
        } else if let Some(&loc) = st.locations.get(&hdr.obj) {
            if loc != me {
                Action::Forward(loc)
            } else if home == me {
                // Stale self-reference: the object left without a trace —
                // treat as unknown, buffer if home.
                Action::Buffer
            } else {
                Action::Forward(home)
            }
        } else if home == me {
            Action::Buffer
        } else {
            Action::Forward(home)
        }
    });
    match action {
        Action::Deliver(Some(f)) => {
            // The body view alone outlives the wire, so a delivery may
            // take the buffer over (`Payload::into_vec`) without a copy.
            let body = route_body(&wire);
            drop(wire);
            f(pe, hdr.obj, body)
        }
        // A resident object with nothing listening on the port: only a
        // malformed (or foreign) wire names one.
        Action::Deliver(None) => drop_malformed(pe),
        Action::Buffer => {
            // Buffering parks a view of the payload (an `Arc` bump).
            let payload = route_body(&wire);
            pe.ext::<CommState, _>(|st| {
                st.buffered
                    .entry(hdr.obj)
                    .or_default()
                    .push_back((hdr.port, payload))
            });
        }
        Action::Forward(dest) => {
            // Teach the stale sender where the object went, so its future
            // sends go direct instead of detouring through us forever —
            // the location-cache update of the paper's comm layer [28].
            if let Some(src) = came_from {
                if src != me && src != dest {
                    let mut u = UpdateMsg {
                        obj: hdr.obj,
                        pe: dest as u64,
                        epoch: comm_epoch(pe),
                    };
                    pe.send(src, pe.handler_of(on_update), pe.pack_payload(&mut u));
                }
            }
            hdr.hops += 1;
            forward(pe, dest, &hdr, wire);
        }
    }
}

/// Install this PE's delivery callback for `port` (invoked for every
/// payload routed on that port to a locally resident object). Must be set
/// once per (PE, port) before messages arrive. The delivered [`Payload`]
/// is a zero-copy view of the arrived bytes: a prefix of the arrival
/// buffer, which the callback may take over with [`Payload::into_vec`].
pub fn set_delivery(pe: &Pe, port: Port, f: impl Fn(&Pe, ObjId, Payload) + 'static) {
    pe.ext::<CommState, _>(|st| {
        let prev = st.delivery.insert(port, Rc::new(f));
        assert!(prev.is_none(), "delivery already set for port {port} on this PE");
    });
}

/// Register a newly created object as living on this PE and notify its
/// home.
pub fn register_obj(pe: &Pe, obj: ObjId) {
    let me = pe.id();
    pe.ext::<CommState, _>(|st| {
        st.local.insert(obj);
        st.locations.insert(obj, me);
    });
    notify_home(pe, obj, me);
}

/// Record that `obj` is leaving this PE for `dest` (call before shipping
/// the packed thread/object). Later arrivals here are forwarded.
pub fn migrate_obj_out(pe: &Pe, obj: ObjId, dest: usize) {
    pe.ext::<CommState, _>(|st| {
        st.local.remove(&obj);
        st.locations.insert(obj, dest);
    });
    notify_home(pe, obj, dest);
}

/// Record that `obj` has arrived on this PE (call after unpacking).
/// Flushes anything buffered here and re-points the home.
pub fn migrate_obj_in(pe: &Pe, obj: ObjId) {
    let me = pe.id();
    let flushed = pe.ext::<CommState, _>(|st| {
        st.local.insert(obj);
        st.locations.insert(obj, me);
        st.buffered.remove(&obj).unwrap_or_default()
    });
    notify_home(pe, obj, me);
    for (port, payload) in flushed {
        route(pe, obj, port, payload);
    }
}

fn notify_home(pe: &Pe, obj: ObjId, loc: usize) {
    let home = live_home(pe, obj);
    if home != pe.id() {
        let mut m = UpdateMsg {
            obj,
            pe: loc as u64,
            epoch: comm_epoch(pe),
        };
        pe.send(home, pe.handler_of(on_update), pe.pack_payload(&mut m));
    } else {
        // We are the home: flush anything parked for the object.
        let flushed = pe.ext::<CommState, _>(|st| {
            st.locations.insert(obj, loc);
            st.buffered.remove(&obj).unwrap_or_default()
        });
        for (port, payload) in flushed {
            route(pe, obj, port, payload);
        }
    }
}

/// Send `payload` to `obj` on `port`, wherever the object lives.
///
/// Always enqueues (even for locally resident objects) rather than
/// delivering inline: a delivery callback may itself `route`, and inline
/// delivery would re-enter the destination object while the sender is
/// still borrowed — the classic event-driven re-entrancy hazard. One hop
/// through the PE's local queue keeps every delivery top-level. That hop
/// costs no copy: the routing handler forwards the wire it dequeues in
/// place. A layer whose delivery runs no user code — AMPI point-to-point
/// mail only appends to a mailbox and wakes a suspended thread — may
/// instead deliver to a resident object where it sends, and books that
/// with [`book_local_delivery`].
///
/// This copies `payload` once, in front of the trailing routing header. A
/// caller that builds its message anyway should pack it with
/// [`route_with`] instead and skip that copy.
pub fn route(pe: &Pe, obj: ObjId, port: Port, payload: impl Into<Payload>) {
    let payload = payload.into();
    route_with(pe, obj, port, payload.len(), |buf| {
        buf.extend_from_slice(&payload)
    });
}

/// Send a message to `obj` on `port` whose bytes `pack` writes straight
/// into one pooled buffer with room for at least `len_hint` payload bytes;
/// the routing header is appended after them. The wire is built once:
/// every hop that holds it alone rewrites the trailing header in place, so
/// on a healthy in-process path this is the message's only copy. Delivery
/// hands the callback exactly the bytes `pack` appended, as a prefix of
/// the arrived buffer.
pub fn route_with(
    pe: &Pe,
    obj: ObjId,
    port: Port,
    len_hint: usize,
    pack: impl FnOnce(&mut PayloadBuf),
) {
    let wire = route_wire_with(pe, obj, port, len_hint, pack);
    pe.send(pe.id(), pe.handler_of(on_route), wire);
}

/// Book a message of `len` payload bytes that a port's layer delivered to
/// an object resident on this PE itself instead of routing it — allowed
/// only where delivery runs no user code (see [`route`]). The PE counts and
/// traces it as the routed self-hop it replaces ([`Pe::book_in_place`]).
pub fn book_local_delivery(pe: &Pe, len: usize) {
    pe.book_in_place(pe.handler_of(on_route), len + ROUTE_HDR_LEN);
}

/// The wire [`route_with`] sends, built without sending it: whatever
/// `pack` appends, then the routing header. Exposed so the layers above
/// can pin their wire formats.
#[doc(hidden)]
pub fn route_wire_with(
    pe: &Pe,
    obj: ObjId,
    port: Port,
    len_hint: usize,
    pack: impl FnOnce(&mut PayloadBuf),
) -> Payload {
    let hdr = RouteHdr {
        obj,
        port,
        hops: 0,
        pinned: 0,
    };
    route_wire(pe, &hdr, len_hint, pack)
}

/// Convenience wrapper over [`route`] using the calling context's PE.
pub fn route_from_here(obj: ObjId, port: Port, payload: impl Into<Payload>) {
    flows_converse::with_pe(|pe| route(pe, obj, port, payload));
}

/// Raise this PE's rollback epoch (monotonic; lower values are ignored).
/// The recovery driver calls this on every survivor at rollback, *before*
/// any respawned object re-registers: from then on, location updates and
/// reduction contributions stamped with an older epoch — i.e. sent before
/// the rollback and still in flight — are dropped on receipt instead of
/// resurrecting pre-rollback state.
pub fn set_comm_epoch(pe: &Pe, epoch: u64) {
    pe.ext::<CommState, _>(|st| st.epoch = st.epoch.max(epoch));
}

/// This PE's current rollback epoch (0 on a machine that never recovered).
pub fn comm_epoch(pe: &Pe) -> u64 {
    pe.ext::<CommState, _>(|st| st.epoch)
}

/// Forget `obj` entirely on this PE: no longer local, no cached location.
/// Used by recovery rollback — the object's threads are being discarded
/// and will re-register (possibly elsewhere) at respawn. Anything already
/// buffered for the object is kept: it flushes when the object returns.
/// Traffic arriving meanwhile falls back to the home PE and parks there.
pub fn evict_obj(pe: &Pe, obj: ObjId) {
    pe.ext::<CommState, _>(|st| {
        st.local.remove(&obj);
        st.locations.remove(&obj);
    });
}

/// Number of messages parked here for `obj` (diagnostics/tests).
pub fn buffered_count(pe: &Pe, obj: ObjId) -> usize {
    pe.ext::<CommState, _>(|st| st.buffered.get(&obj).map(|q| q.len()).unwrap_or(0))
}

/// Hop-budget overflow events recorded on this PE. A non-empty list means
/// some message chased stale location caches past [`max_route_hops`] and
/// was pinned to its home PE (still delivered once the location resolved,
/// but worth investigating).
pub fn route_overflows(pe: &Pe) -> Vec<RouteOverflow> {
    pe.ext::<CommState, _>(|st| st.overflows.clone())
}

/// Messages this PE dropped as malformed: a routed wire too short for its
/// routing header, a port with no delivery installed, a location update or
/// reduction contribution that does not decode, or a payload a layer's own
/// decoder refused (layers report those through [`drop_malformed`]). Zero
/// on a healthy machine; these bytes cross the process boundary in
/// multi-process machines, so bad ones are counted, never a panic.
pub fn route_drops(pe: &Pe) -> u64 {
    pe.ext::<CommState, _>(|st| st.drops)
}

/// Count one message dropped as malformed (see [`route_drops`]); for
/// delivery callbacks and handlers whose decoder refused the bytes.
pub fn drop_malformed(pe: &Pe) {
    pe.ext::<CommState, _>(|st| st.drops += 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Fabricate a cyclic location cache (PE0 and PE1 each think the other
    /// has the object, which actually lives nowhere yet) and check the hop
    /// budget pins the message at its home instead of bouncing forever —
    /// then that a late registration still gets it delivered.
    #[test]
    fn cyclic_stale_caches_hit_the_hop_bound_not_a_panic() {
        let obj = ObjId(2); // home = PE0 on a 2-PE machine
        let delivered = Arc::new(AtomicU64::new(0));
        let mut mb = MachineBuilder::new(2);
        let _comm = CommLayer::register(&mut mb);
        let delivered2 = delivered.clone();
        let overflow_seen = Arc::new(AtomicU64::new(0));
        let overflow_seen2 = overflow_seen.clone();
        // A probe that bounces between the PEs (a self-send loop would
        // starve the receive queue): once PE0 sees the message parked, the
        // object finally registers there and the buffer must flush to it.
        let probe = mb.handler(move |pe, msg| {
            if pe.id() != 0 {
                pe.send(0, msg.handler, Vec::new());
                return;
            }
            let ovf = route_overflows(pe);
            if !ovf.is_empty() && buffered_count(pe, ObjId(2)) > 0 {
                overflow_seen2.fetch_add(ovf.len() as u64, Ordering::Relaxed);
                register_obj(pe, ObjId(2));
            } else {
                // Not pinned yet: keep probing via the other PE.
                pe.send(1, msg.handler, Vec::new());
            }
        });
        mb.run_deterministic(move |pe| {
            let d = delivered2.clone();
            set_delivery(pe, 9, move |_pe, o, payload| {
                assert_eq!(o, obj);
                assert_eq!(payload, b"stubborn".to_vec());
                d.fetch_add(1, Ordering::Relaxed);
            });
            // Poison the caches to form a cycle.
            pe.ext::<CommState, _>(|st| {
                st.locations.insert(obj, 1 - pe.id());
            });
            if pe.id() == 1 {
                route(pe, obj, 9, b"stubborn".to_vec());
            }
            if pe.id() == 0 {
                pe.send(0, probe, Vec::new());
            }
        });
        assert_eq!(delivered.load(Ordering::Relaxed), 1, "message not lost");
        assert!(overflow_seen.load(Ordering::Relaxed) > 0, "overflow surfaced");
    }

    /// The hand-written header codec is the pup form byte for byte, so
    /// wires stay what `pup_fields!` defines.
    #[test]
    fn route_header_codec_is_the_pup_form() {
        for mut hdr in [
            RouteHdr::default(),
            RouteHdr {
                obj: ObjId(0x0102_0304_0506_0708),
                port: 9,
                hops: 0xA0B0_C0D0,
                pinned: 1,
            },
            RouteHdr {
                obj: ObjId(u64::MAX),
                port: u8::MAX,
                hops: u32::MAX,
                pinned: u8::MAX,
            },
        ] {
            let pup = flows_pup::to_bytes(&mut hdr);
            assert_eq!(hdr.encode()[..], pup[..]);
            assert_eq!(parse_route(&pup), Some(hdr));
        }
    }

    /// A wire some other holder still shares — the duplicate a faulty
    /// link injects, a retransmit table's copy — is copied on forward, and
    /// that holder keeps the original header; a wire held alone is
    /// forwarded in its own buffer.
    #[test]
    fn forward_rewrites_in_place_only_a_wire_held_alone() {
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut mb = MachineBuilder::new(2);
        let _comm = CommLayer::register(&mut mb);
        let log2 = log.clone();
        mb.run_deterministic(move |pe| {
            let l = log2.clone();
            set_delivery(pe, 3, move |pe, o, payload| {
                l.lock().unwrap().push((pe.id(), o.0, payload.to_vec()));
            });
            if pe.id() == 1 {
                register_obj(pe, ObjId(7));
                return;
            }
            let hdr = RouteHdr {
                obj: ObjId(7),
                port: 3,
                hops: 2,
                pinned: 0,
            };
            let on = RouteHdr { hops: 3, ..hdr };
            let wire = |fill| route_wire(pe, &hdr, 100, |b| b.extend_from_slice(&[fill; 100]));
            let shared = wire(9);
            let dup = shared.clone();
            forward(pe, 1, &on, shared);
            assert_eq!(
                parse_route(&dup),
                Some(hdr),
                "the duplicate keeps its header"
            );
            assert_eq!(dup[..dup.len() - ROUTE_HDR_LEN], [9u8; 100]);

            let alone = wire(8);
            let pool = pe.payload_pool().stats();
            forward(pe, 1, &on, alone);
            let after = pe.payload_pool().stats();
            assert_eq!(
                (after.allocs + after.reuses) - (pool.allocs + pool.reuses),
                0,
                "an in-place forward draws no buffer"
            );
        });
        let mut got = log.lock().unwrap().clone();
        got.sort();
        assert_eq!(got, vec![(1, 7, vec![8u8; 100]), (1, 7, vec![9u8; 100])]);
    }

    /// Wires too short for a routing header, and wires naming a port with
    /// no delivery on a resident object, are counted drops.
    #[test]
    fn malformed_route_wires_are_counted_drops() {
        let drops = Arc::new(AtomicU64::new(u64::MAX));
        let mut mb = MachineBuilder::new(1);
        let comm = CommLayer::register(&mut mb);
        let d = drops.clone();
        let probe = mb.handler(move |pe, _| d.store(route_drops(pe), Ordering::Relaxed));
        mb.run_deterministic(move |pe| {
            set_delivery(pe, 0, |_, _, _| panic!("nothing valid was sent"));
            register_obj(pe, ObjId(1));
            assert_eq!(route_drops(pe), 0);
            pe.send(0, comm.route, vec![1u8, 2, 3]);
            pe.send(0, comm.route, Vec::new());
            let stray = RouteHdr {
                obj: ObjId(1),
                port: 200,
                hops: 0,
                pinned: 0,
            };
            pe.send(0, comm.route, stray.encode().to_vec());
            // The local queue is FIFO: the probe runs after all three.
            pe.send(0, probe, Vec::new());
        });
        assert_eq!(drops.load(Ordering::Relaxed), 3);
    }

    /// Location updates and reduction contributions that do not decode are
    /// counted drops too: both cross process boundaries in multi-process
    /// machines.
    #[test]
    fn malformed_updates_and_contributions_are_counted_drops() {
        let drops = Arc::new(AtomicU64::new(u64::MAX));
        let mut mb = MachineBuilder::new(1);
        let _comm = CommLayer::register(&mut mb);
        let d = drops.clone();
        let probe = mb.handler(move |pe, _| d.store(route_drops(pe), Ordering::Relaxed));
        mb.run_deterministic(move |pe| {
            for h in [pe.handler_of(on_update), pe.handler_of(crate::reduce::on_contrib)] {
                pe.send(0, h, Vec::new());
                pe.send(0, h, vec![0xA5u8; 100]);
            }
            pe.send(0, probe, Vec::new());
        });
        assert_eq!(drops.load(Ordering::Relaxed), 4);
    }

    /// Every comm decoder of bytes that cross a process boundary, each
    /// line run through `flows_pup::check_decoder`: refused, or accepted
    /// exactly as it re-encodes. A new decoder is fuzzed by adding its line.
    mod decode {
        use super::*;
        use crate::reduce::ContribMsg;

        /// A pup record's decoder: `from_bytes`, then the re-encoding.
        fn record<T: Pup + Default>(b: &[u8]) -> Option<(Vec<u8>, usize)> {
            Some((flows_pup::to_bytes(&mut flows_pup::from_bytes::<T>(b).ok()?), b.len()))
        }

        /// (name, a valid wire, its decoder).
        type Entry = (&'static str, fn() -> Vec<u8>, fn(&[u8]) -> Option<(Vec<u8>, usize)>);

        const DECODERS: [Entry; 3] = [
            ("location update", || {
                flows_pup::to_bytes(&mut UpdateMsg { obj: ObjId(3), pe: 1, epoch: 2 })
            }, record::<UpdateMsg>),
            ("route header", || {
                let hdr = RouteHdr { obj: ObjId(9), port: 1, hops: 2, pinned: 0 };
                [&[0xA5; 5][..], &hdr.encode()].concat()
            }, |b| {
                // The body before the header is opaque: kept as it came.
                let hdr = parse_route(b)?;
                Some(([&b[..b.len() - ROUTE_HDR_LEN], &hdr.encode()].concat(), b.len()))
            }),
            ("reduction contribution", || {
                let data = 2.5f64.to_le_bytes().to_vec();
                let mut m = ContribMsg { tag: 1, seq: 4, rank: 2, op: 0, expected: 3, epoch: 1, data };
                flows_pup::to_bytes(&mut m)
            }, record::<ContribMsg>),
        ];

        #[test]
        fn every_decoder_refuses_or_round_trips() {
            for (name, wire, decode) in DECODERS {
                flows_pup::check_decoder(name, &wire(), decode);
            }
        }
    }

    #[test]
    fn hop_budget_scales_with_machine_size() {
        assert_eq!(max_route_hops(1), 6);
        assert_eq!(max_route_hops(16), 36);
    }
}
