//! # flows-comm — location-independent communication
//!
//! The paper's migratable entities "only communicate via the communication
//! sub-system, which provides location-independent communication that
//! supports migration at any time" (§3.1.2, ref [28]). This crate is that
//! subsystem for our machine:
//!
//! * every endpoint is an [`ObjId`] with a *home PE* (`id mod num_pes`)
//!   that maintains its authoritative location;
//! * [`route`] delivers a payload to an object wherever it currently
//!   lives: locally, via a cached location, or via the home PE, with
//!   forwarding and buffering while the object is in flight;
//!   [`route_with`] is the same with the payload packed straight into
//!   the wire, in front of its trailing routing header, so the wire is
//!   built once, every hop that holds it alone forwards it in place, and
//!   the delivered body is a prefix of the arrived buffer;
//! * [`contribute`] implements migration-tolerant reductions: every
//!   contribution is tagged with its (tag, seq, rank) and collected at a
//!   fixed root, so a rank may migrate mid-reduction without any protocol
//!   distress — the basis for AMPI's barrier/reduce/allreduce.
//!
//! The layer is registered on a [`flows_converse::MachineBuilder`] before
//! the machine runs ([`CommLayer::register`]); each PE then installs its
//! delivery callback with [`set_delivery`].

#![warn(missing_docs)]

pub mod layer;
pub mod reduce;

pub use layer::{
    book_local_delivery, buffered_count, comm_epoch, drop_malformed, evict_obj, live_home,
    max_route_hops, migrate_obj_in, migrate_obj_out, purge_dead_locations, register_obj, route,
    route_drops, route_from_here, route_overflows, route_wire_with, route_with, set_comm_epoch,
    set_delivery, CommLayer, ObjId, Port, RouteOverflow,
};
pub use reduce::{
    contribute, duplicate_contributions, live_root_of, purge_pending, set_reduction_sink,
    stale_contributions, ReduceOp, Reduction,
};
