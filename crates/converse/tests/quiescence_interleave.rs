//! Exhaustive interleaving checks of the in-process idle barrier
//! (`drive` and `Hub::ledger` in `crates/converse/src/machine.rs`).
//!
//! Two PEs on their own OS threads. PE 0 sends one message to PE 1 and
//! goes idle; PE 1 starts idle, is woken by the message, delivers it,
//! replies, and goes idle; PE 0 is woken by the reply, delivers it and
//! goes idle again. Each idle entry is the real sequence: flush the
//! batched counters, announce idle, check for local work, read the
//! ledger (barrier word, sent, recv, barrier word again — one load per
//! step, so another PE can run between any two), then either declare
//! quiescence and wake everyone or park until woken. Parking has no
//! timeout here, so a schedule in which a PE parks with nobody left to
//! wake it is a deadlock the explorer reports.
//!
//! Checked over every schedule: quiescence is never declared while a
//! sent message is undelivered, and every PE ends the run. Two broken
//! variants show the model has teeth: announcing before flushing, and
//! trusting a single read of the barrier word (a PE can leave, deliver,
//! reply, flush and re-announce between two counter loads).

use flows_check::interleave::{Explorer, Step};

#[derive(Clone, Copy, Default)]
struct Pe {
    unflushed_sent: u64,
    unflushed_recv: u64,
    /// Posted to this PE, not yet delivered.
    inbox: u64,
    /// Park token: set by a wake (an unpark), consumed by a park.
    token: bool,
    /// Not announced at the barrier (pumping).
    busy: bool,
    /// The ledger read in progress: barrier word, sent, recv.
    word: (u32, u32),
    sent: u64,
    recv: u64,
}

#[derive(Clone, Default)]
struct Machine {
    sent: u64,
    recv: u64,
    /// The barrier word's two halves: PEs announced, exits so far.
    idle: u32,
    exits: u32,
    done: bool,
    pe: [Pe; 2],
}

impl Machine {
    /// PE 0 is about to pump its first message; PE 1 sits announced.
    fn start() -> Machine {
        let mut m = Machine { idle: 1, ..Machine::default() };
        m.pe[0].busy = true;
        m
    }

    fn post(&mut self, to: usize) {
        self.pe[to].inbox += 1;
        self.pe[to].token = true;
    }

    /// Work found while announced: leave the barrier, counting an exit.
    fn leave_if_work(&mut self, p: usize) {
        if !self.pe[p].busy && !self.done && self.pe[p].inbox > 0 {
            self.idle -= 1;
            self.exits += 1;
            self.pe[p].busy = true;
        }
    }

    fn checking(&self, p: usize) -> bool {
        !self.pe[p].busy && !self.done
    }

    fn declare(&mut self) {
        self.done = true;
        self.pe[0].token = true;
        self.pe[1].token = true;
    }
}

fn send<const P: usize>(m: &mut Machine) {
    m.pe[P].unflushed_sent += 1;
    m.post(1 - P);
}

fn deliver<const P: usize>(m: &mut Machine) {
    if m.pe[P].busy && m.pe[P].inbox > 0 {
        m.pe[P].inbox -= 1;
        m.pe[P].unflushed_recv += 1;
    }
}

fn deliver_and_reply<const P: usize>(m: &mut Machine) {
    if m.pe[P].busy && m.pe[P].inbox > 0 {
        deliver::<P>(m);
        send::<P>(m);
    }
}

fn flush<const P: usize>(m: &mut Machine) {
    m.sent += std::mem::take(&mut m.pe[P].unflushed_sent);
    m.recv += std::mem::take(&mut m.pe[P].unflushed_recv);
}

fn announce<const P: usize>(m: &mut Machine) {
    if m.pe[P].busy {
        m.pe[P].busy = false;
        m.idle += 1;
    }
}

/// `has_work` first, then the ledger's first load of the barrier word.
fn read_word<const P: usize>(m: &mut Machine) {
    m.leave_if_work(P);
    if m.checking(P) {
        m.pe[P].word = (m.idle, m.exits);
    }
}

fn read_sent<const P: usize>(m: &mut Machine) {
    if m.checking(P) {
        m.pe[P].sent = m.sent;
    }
}

fn read_recv<const P: usize>(m: &mut Machine) {
    if m.checking(P) {
        m.pe[P].recv = m.recv;
    }
}

/// The second load of the barrier word, then the rule.
fn decide<const P: usize>(m: &mut Machine) {
    let r = m.pe[P];
    if m.checking(P) && r.word.0 == 2 && r.word == (m.idle, m.exits) && r.sent == r.recv {
        m.declare();
    }
}

/// The broken check: trusts the first read of the barrier word.
fn decide_on_one_read<const P: usize>(m: &mut Machine) {
    let r = m.pe[P];
    if m.checking(P) && r.word.0 == 2 && r.sent == r.recv {
        m.declare();
    }
}

fn woken<const P: usize>(m: &Machine) -> bool {
    m.pe[P].busy || m.pe[P].token || m.done
}

/// Park until woken, then look for work again.
fn park<const P: usize>(m: &mut Machine) {
    m.pe[P].token = false;
    m.leave_if_work(P);
}

fn ended(m: &Machine) -> bool {
    m.done
}

#[derive(Clone, Copy)]
enum Variant {
    Real,
    AnnounceBeforeFlush,
    OneRead,
}

/// One idle entry of PE `P`: flush and announce (in the variant's order),
/// then the four-load ledger check.
fn idle_entry<const P: usize>(v: Variant) -> Vec<Step<Machine>> {
    let (flush, announce) = (Step::new("flush", flush::<P>), Step::new("announce", announce::<P>));
    let mut steps = match v {
        Variant::AnnounceBeforeFlush => vec![announce, flush],
        _ => vec![flush, announce],
    };
    let decide = match v {
        Variant::OneRead => Step::new("decide", decide_on_one_read::<P>),
        _ => Step::new("read-word-again+decide", decide::<P>),
    };
    steps.extend([
        Step::new("has-work+read-word", read_word::<P>),
        Step::new("read-sent", read_sent::<P>),
        Step::new("read-recv", read_recv::<P>),
        decide,
    ]);
    steps
}

fn explorer(v: Variant) -> Explorer<Machine> {
    let mut pe0 = vec![Step::new("send", send::<0>)];
    pe0.extend(idle_entry::<0>(v));
    pe0.push(Step::guarded("park", woken::<0>, park::<0>));
    pe0.push(Step::new("deliver", deliver::<0>));
    pe0.extend(idle_entry::<0>(v));
    pe0.push(Step::guarded("park-until-done", ended, |_| {}));

    let mut pe1 = vec![
        Step::guarded("park", woken::<1>, park::<1>),
        Step::new("deliver+reply", deliver_and_reply::<1>),
    ];
    pe1.extend(idle_entry::<1>(v));
    pe1.push(Step::guarded("park-until-done", ended, |_| {}));
    Explorer::new(vec![pe0, pe1])
}

/// Quiescence declared means nothing sent is still on its way.
fn nothing_undelivered(m: &Machine) -> Result<(), String> {
    let queued: u64 = m.pe.iter().map(|p| p.inbox).sum();
    if m.done && queued > 0 {
        return Err(format!("quiescence declared with {queued} message(s) undelivered"));
    }
    Ok(())
}

#[test]
fn flush_then_announce_with_a_two_read_check_is_exact_and_live() {
    let n = explorer(Variant::Real)
        .check(&Machine::start(), nothing_undelivered)
        .unwrap_or_else(|v| panic!("the real barrier must hold: {v}"));
    // Every complete schedule ran both PEs to `park-until-done`, so each
    // one declared quiescence and woke everybody (a lost wake-up would be
    // a deadlock violation instead).
    assert!(n > 1_000, "explored {n} schedules");
}

#[test]
fn announcing_before_flushing_lets_quiescence_misfire() {
    let v = explorer(Variant::AnnounceBeforeFlush)
        .check(&Machine::start(), nothing_undelivered)
        .expect_err("an announced PE with unflushed sends must be caught");
    assert!(v.msg.contains("undelivered"), "{v}");
}

#[test]
fn a_single_read_of_the_barrier_word_lets_quiescence_misfire() {
    let v = explorer(Variant::OneRead)
        .check(&Machine::start(), nothing_undelivered)
        .expect_err("a leave-and-return between counter loads must be caught");
    assert!(v.msg.contains("undelivered"), "{v}");
    assert!(
        v.schedule.iter().any(|s| s == "t1:deliver+reply"),
        "the misfire needs PE 1's reply inside PE 0's read: {v}"
    );
}
