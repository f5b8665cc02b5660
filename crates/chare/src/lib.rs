//! # flows-chare — event-driven objects and Structured Dagger
//!
//! The fourth flow-of-control mechanism of the paper (§2.4): *event-driven
//! objects*, which store and restore their own state explicitly instead of
//! keeping it on a machine stack, plus the Structured Dagger coordination
//! language (§2.4.2, Figure 1) that makes their life cycles readable.
//!
//! * [`chare`] — location-independent objects with numbered entry methods,
//!   routed via `flows-comm`, migratable by PUP-packing their state (§3.2);
//! * [`sdag`] — the `atomic` / `for` / `when` / `overlap` combinators
//!   interpreted as a message-buffering finite-state machine;
//! * [`mod@retswitch`] — the §2.4.1 return-switch ("Duff's device") style,
//!   kept for comparison and for tiny protocol steppers.

#![warn(missing_docs)]

pub mod chare;
pub mod retswitch;
pub mod sdag;

pub use chare::{
    create, init_pe, local_count, migrate, register_chare_type, send, send_from_here, Chare,
    ChareLayer, ChareTypeId, PORT_CHARE,
};
pub use retswitch::RsStep;
pub use sdag::{
    atomic, for_n, if_else, nop, overlap, seq, when, when_then, while_cond, Event, Node, SdagRun,
};
