//! Exhaustive interleaving checks of the two wake windows a parked
//! thread relies on. Parks have no timeout here, so a schedule in which a
//! thread parks with nobody left to wake it is a deadlock the explorer
//! reports. Parks follow `std::thread::park`: an unpark leaves a token
//! that the next park consumes without sleeping.
//!
//! * **The start barrier** (`MachineBuilder::run` in
//!   `crates/converse/src/machine.rs`). The comm thread injects a frame
//!   into a PE's inbox and wakes the PE through `Hub::wake`, which finds
//!   no waker until `run` has set them from the PE threads' handles. The
//!   PE pumps (finding nothing), checks for work, then parks. The PE
//!   threads wait on a barrier that `run` releases only after setting the
//!   wakers, so a wake is lost only for a PE that has not looked at its
//!   inbox yet. The broken variant starts the PE before the wakers are
//!   set. One PE is modeled: a peer PE's post wakes exactly as the comm
//!   thread's does.
//!
//! * **The socket comm thread's first park** (`SockTransport::park` in
//!   `crates/net/src/sock.rs`). A reader thread pushes a frame, loads the
//!   registered waiter and unparks it if there is one. The comm thread
//!   drains, parks, drains again. Its first park checks the inbox,
//!   registers the calling thread as the waiter and returns at once, so
//!   the caller's next drain re-checks the inbox. The broken variant
//!   registers and then parks in the same call. Sequential consistency
//!   holds here because the push and the re-checking drain take the same
//!   inbox lock.

use flows_check::interleave::{Explorer, Step};

// ----------------------------------------------------------- start barrier

#[derive(Clone, Default)]
struct Start {
    wakers_set: bool,
    released: bool,
    inbox: u32,
    token: bool,
    /// The PE's last has-work check found its inbox non-empty.
    saw_work: bool,
    delivered: bool,
    finished: bool,
}

fn inject(m: &mut Start) {
    m.inbox += 1;
}

/// `Hub::wake`: a no-op until the wakers are set.
fn wake(m: &mut Start) {
    if m.wakers_set {
        m.token = true;
    }
}

fn set_wakers(m: &mut Start) {
    m.wakers_set = true;
}

fn release(m: &mut Start) {
    m.released = true;
}

fn pump(m: &mut Start) {
    if m.inbox > 0 {
        m.inbox -= 1;
        m.delivered = true;
    }
}

fn has_work(m: &mut Start) {
    m.saw_work = m.inbox > 0;
}

fn pe_woken(m: &Start) -> bool {
    m.delivered || m.saw_work || m.token
}

fn pe_park(m: &mut Start) {
    m.token = false;
}

fn pump_and_finish(m: &mut Start) {
    pump(m);
    m.finished = true;
}

fn pe_delivered(m: &Start) -> Result<(), String> {
    if m.finished && !m.delivered {
        return Err("the PE finished with its frame undelivered".into());
    }
    Ok(())
}

fn start_explorer(barrier: bool) -> Explorer<Start> {
    let comm = vec![Step::new("inject", inject), Step::new("wake", wake)];
    let main = vec![Step::new("set-wakers", set_wakers), Step::new("release", release)];
    let mut pe = Vec::new();
    if barrier {
        pe.push(Step::guarded("wait-start", |m: &Start| m.released, |_| {}));
    }
    pe.extend([
        Step::new("pump", pump),
        Step::new("has-work", has_work),
        Step::guarded("park", pe_woken, pe_park),
        Step::new("pump+finish", pump_and_finish),
    ]);
    Explorer::new(vec![comm, main, pe])
}

#[test]
fn pes_released_after_the_wakers_are_set_lose_no_wake() {
    let n = start_explorer(true)
        .check(&Start::default(), pe_delivered)
        .unwrap_or_else(|v| panic!("the start barrier must hold: {v}"));
    assert!(n > 10, "explored {n} schedules");
}

#[test]
fn pes_started_before_the_wakers_are_set_can_sleep_forever() {
    let v = start_explorer(false)
        .check(&Start::default(), pe_delivered)
        .expect_err("a wake sent before the wakers exist must be caught");
    assert_eq!(v.msg, "deadlock", "{v}");
}

// ------------------------------------------------ the socket comm thread

#[derive(Clone, Default)]
struct Sock {
    queue: u32,
    /// The comm thread registered as the readers' waiter.
    waiter: bool,
    /// What the reader's load of the waiter returned.
    reader_saw_waiter: bool,
    token: bool,
    /// The comm thread's current park found its inbox non-empty.
    not_empty: bool,
    got: bool,
    finished: bool,
}

fn push(m: &mut Sock) {
    m.queue += 1;
}

fn load_waiter(m: &mut Sock) {
    m.reader_saw_waiter = m.waiter;
}

fn unpark(m: &mut Sock) {
    if m.reader_saw_waiter {
        m.token = true;
    }
}

fn drain(m: &mut Sock) {
    if m.queue > 0 {
        m.queue -= 1;
        m.got = true;
    }
}

/// `park`'s first test: return at once if a frame is waiting.
fn check_empty(m: &mut Sock) {
    m.not_empty = m.got || m.queue > 0;
}

fn register(m: &mut Sock) {
    if !m.not_empty {
        m.waiter = true;
    }
}

fn comm_woken(m: &Sock) -> bool {
    m.not_empty || m.token
}

fn comm_park(m: &mut Sock) {
    if !m.not_empty {
        m.token = false;
    }
}

fn drain_and_finish(m: &mut Sock) {
    drain(m);
    m.finished = true;
}

fn comm_received(m: &Sock) -> Result<(), String> {
    if m.finished && !m.got {
        return Err("the comm thread finished with its frame unread".into());
    }
    Ok(())
}

fn sock_explorer(return_once: bool) -> Explorer<Sock> {
    let reader = vec![
        Step::new("push", push),
        Step::new("load-waiter", load_waiter),
        Step::new("unpark", unpark),
    ];
    let mut comm = vec![
        Step::new("drain", drain),
        Step::new("park-1:check-empty", check_empty),
        Step::new("park-1:register", register),
    ];
    if return_once {
        comm.push(Step::new("re-check", drain));
    } else {
        comm.push(Step::guarded("park-1:park", comm_woken, comm_park));
        comm.push(Step::new("drain", drain));
    }
    comm.extend([
        Step::new("park-2:check-empty", check_empty),
        Step::guarded("park-2:park", comm_woken, comm_park),
        Step::new("drain+finish", drain_and_finish),
    ]);
    Explorer::new(vec![reader, comm])
}

#[test]
fn the_first_park_registers_and_returns_so_no_frame_is_missed() {
    let n = sock_explorer(true)
        .check(&Sock::default(), comm_received)
        .unwrap_or_else(|v| panic!("first-park registration must hold: {v}"));
    assert!(n > 10, "explored {n} schedules");
}

#[test]
fn registering_and_parking_in_one_call_can_sleep_forever() {
    let v = sock_explorer(false)
        .check(&Sock::default(), comm_received)
        .expect_err("a push between the empty check and the registration must be caught");
    assert_eq!(v.msg, "deadlock", "{v}");
    let at = |step: &str| v.schedule.iter().position(|s| s == step);
    assert!(
        matches!((at("t0:load-waiter"), at("t1:park-1:register")), (Some(l), Some(r)) if l < r),
        "the lost wake is the reader's load before the registration: {v}"
    );
}
