//! Structured Dagger (SDAG): a coordination language for event-driven
//! objects (paper §2.4.2, ref [22], Figure 1).
//!
//! SDAG expresses an object's *life cycle* — "alternate receiving these two
//! messages, k times" — which a flat event-driven style obscures. Programs
//! are built from five combinators and compiled (here: interpreted) as an
//! efficient finite-state machine that buffers early messages and resumes
//! exactly where the control flow is waiting:
//!
//! * [`atomic`] — run sequential code (the paper's `atomic { ... }`);
//! * [`seq`] — run children in order;
//! * [`for_n`] — counted loop, the `for` construct;
//! * [`when`] / [`when_then`] — wait for a tagged message, bind its
//!   payload, optionally run a body;
//! * [`overlap`] — children complete in *any* order.
//!
//! The paper's Figure 1 stencil life cycle is expressed as:
//!
//! ```
//! use flows_chare::sdag::*;
//! #[derive(Default)]
//! struct Strip { iter: u64, left: Vec<u8>, right: Vec<u8>, work: u64 }
//! const LEFT: Event = 0;
//! const RIGHT: Event = 1;
//!
//! let program: Node<Strip> = for_n(
//!     |_s| 10, // MAX_ITER
//!     seq(vec![
//!         atomic(|s: &mut Strip| { /* sendStripToLeftAndRight() */ s.iter += 1; }),
//!         overlap(vec![
//!             when(LEFT, |s: &mut Strip, m| s.left = m),
//!             when(RIGHT, |s: &mut Strip, m| s.right = m),
//!         ]),
//!         atomic(|s: &mut Strip| s.work += 1 /* doWork() */),
//!     ]),
//! );
//! let mut run = SdagRun::new(&program, Strip::default());
//! for _ in 0..10 {
//!     run.deliver(RIGHT, vec![2]); // either order works
//!     run.deliver(LEFT, vec![1]);
//! }
//! assert!(run.is_done());
//! assert_eq!(run.state().work, 10);
//! ```

use flows_converse::IdMap;
use std::collections::VecDeque;
use std::rc::Rc;

/// Message tag an SDAG `when` waits for.
pub type Event = u32;

type AtomicFn<S> = Rc<dyn Fn(&mut S)>;
type BindFn<S> = Rc<dyn Fn(&mut S, Vec<u8>)>;
type TimesFn<S> = Rc<dyn Fn(&S) -> u64>;
type CondFn<S> = Rc<dyn Fn(&S) -> bool>;

/// A node of an SDAG program. Cheap to clone (all contents are shared).
pub struct Node<S>(NodeKind<S>);

enum NodeKind<S> {
    Atomic(AtomicFn<S>),
    Seq(Rc<Vec<Node<S>>>),
    For {
        times: TimesFn<S>,
        body: Rc<Node<S>>,
    },
    When {
        event: Event,
        bind: BindFn<S>,
        body: Rc<Node<S>>,
    },
    Overlap(Rc<Vec<Node<S>>>),
    While {
        cond: CondFn<S>,
        body: Rc<Node<S>>,
    },
    If {
        cond: CondFn<S>,
        then: Rc<Node<S>>,
        otherwise: Rc<Node<S>>,
    },
}

impl<S> Clone for Node<S> {
    fn clone(&self) -> Self {
        Node(match &self.0 {
            NodeKind::Atomic(f) => NodeKind::Atomic(f.clone()),
            NodeKind::Seq(v) => NodeKind::Seq(v.clone()),
            NodeKind::For { times, body } => NodeKind::For {
                times: times.clone(),
                body: body.clone(),
            },
            NodeKind::When { event, bind, body } => NodeKind::When {
                event: *event,
                bind: bind.clone(),
                body: body.clone(),
            },
            NodeKind::Overlap(v) => NodeKind::Overlap(v.clone()),
            NodeKind::While { cond, body } => NodeKind::While {
                cond: cond.clone(),
                body: body.clone(),
            },
            NodeKind::If {
                cond,
                then,
                otherwise,
            } => NodeKind::If {
                cond: cond.clone(),
                then: then.clone(),
                otherwise: otherwise.clone(),
            },
        })
    }
}

/// Sequential code (the `atomic { ... }` construct).
pub fn atomic<S>(f: impl Fn(&mut S) + 'static) -> Node<S> {
    Node(NodeKind::Atomic(Rc::new(f)))
}

/// Children in order.
pub fn seq<S>(children: Vec<Node<S>>) -> Node<S> {
    Node(NodeKind::Seq(Rc::new(children)))
}

/// Do nothing.
pub fn nop<S>() -> Node<S> {
    Node(NodeKind::Seq(Rc::new(Vec::new())))
}

/// Counted loop; the count is evaluated against the state at loop entry.
pub fn for_n<S>(times: impl Fn(&S) -> u64 + 'static, body: Node<S>) -> Node<S> {
    Node(NodeKind::For {
        times: Rc::new(times),
        body: Rc::new(body),
    })
}

/// Wait for `event`; `bind` receives the payload.
pub fn when<S>(event: Event, bind: impl Fn(&mut S, Vec<u8>) + 'static) -> Node<S> {
    when_then(event, bind, nop())
}

/// Wait for `event`, bind the payload, then run `body`.
pub fn when_then<S>(
    event: Event,
    bind: impl Fn(&mut S, Vec<u8>) + 'static,
    body: Node<S>,
) -> Node<S> {
    Node(NodeKind::When {
        event,
        bind: Rc::new(bind),
        body: Rc::new(body),
    })
}

/// Children complete in any order (the `overlap { ... }` construct).
pub fn overlap<S>(children: Vec<Node<S>>) -> Node<S> {
    Node(NodeKind::Overlap(Rc::new(children)))
}

/// Repeat `body` while `cond(state)` holds (evaluated before each pass) —
/// SDAG's `while` construct.
pub fn while_cond<S>(cond: impl Fn(&S) -> bool + 'static, body: Node<S>) -> Node<S> {
    Node(NodeKind::While {
        cond: Rc::new(cond),
        body: Rc::new(body),
    })
}

/// Run `then` or `otherwise` depending on `cond(state)` at entry —
/// SDAG's `if/else` construct.
pub fn if_else<S>(
    cond: impl Fn(&S) -> bool + 'static,
    then: Node<S>,
    otherwise: Node<S>,
) -> Node<S> {
    Node(NodeKind::If {
        cond: Rc::new(cond),
        then: Rc::new(then),
        otherwise: Rc::new(otherwise),
    })
}

// ---------------------------------------------------------------------------
// Interpreter
// ---------------------------------------------------------------------------

type Inbox = IdMap<Event, VecDeque<Vec<u8>>>;

enum Task<S> {
    Atomic(AtomicFn<S>),
    Seq {
        items: Rc<Vec<Node<S>>>,
        idx: usize,
        current: Option<Box<Task<S>>>,
    },
    For {
        times: TimesFn<S>,
        body: Rc<Node<S>>,
        total: Option<u64>,
        iter: u64,
        current: Option<Box<Task<S>>>,
    },
    When {
        event: Event,
        bind: BindFn<S>,
        body: Rc<Node<S>>,
        fired: Option<Box<Task<S>>>,
    },
    Overlap {
        children: Vec<Option<Task<S>>>,
    },
    While {
        cond: CondFn<S>,
        body: Rc<Node<S>>,
        current: Option<Box<Task<S>>>,
    },
    If {
        cond: CondFn<S>,
        then: Rc<Node<S>>,
        otherwise: Rc<Node<S>>,
        current: Option<Box<Task<S>>>,
        decided: bool,
    },
}

fn task_of<S>(node: &Node<S>) -> Task<S> {
    match &node.0 {
        NodeKind::Atomic(f) => Task::Atomic(f.clone()),
        NodeKind::Seq(items) => Task::Seq {
            items: items.clone(),
            idx: 0,
            current: None,
        },
        NodeKind::For { times, body } => Task::For {
            times: times.clone(),
            body: body.clone(),
            total: None,
            iter: 0,
            current: None,
        },
        NodeKind::When { event, bind, body } => Task::When {
            event: *event,
            bind: bind.clone(),
            body: body.clone(),
            fired: None,
        },
        NodeKind::Overlap(items) => Task::Overlap {
            children: items.iter().map(|n| Some(task_of(n))).collect(),
        },
        NodeKind::While { cond, body } => Task::While {
            cond: cond.clone(),
            body: body.clone(),
            current: None,
        },
        NodeKind::If {
            cond,
            then,
            otherwise,
        } => Task::If {
            cond: cond.clone(),
            then: then.clone(),
            otherwise: otherwise.clone(),
            current: None,
            decided: false,
        },
    }
}

#[derive(PartialEq, Clone, Copy)]
enum Poll {
    Done,
    /// Blocked on events; `true` if any progress was made this poll.
    Blocked(bool),
}

impl<S> Task<S> {
    fn poll(&mut self, st: &mut S, inbox: &mut Inbox) -> Poll {
        match self {
            Task::Atomic(f) => {
                f(st);
                Poll::Done
            }
            Task::Seq {
                items,
                idx,
                current,
            } => {
                let mut progressed = false;
                loop {
                    if current.is_none() {
                        if *idx >= items.len() {
                            return Poll::Done;
                        }
                        *current = Some(Box::new(task_of(&items[*idx])));
                    }
                    match current.as_mut().expect("just set").poll(st, inbox) {
                        Poll::Done => {
                            progressed = true;
                            *current = None;
                            *idx += 1;
                        }
                        Poll::Blocked(p) => return Poll::Blocked(progressed || p),
                    }
                }
            }
            Task::For {
                times,
                body,
                total,
                iter,
                current,
            } => {
                let total = *total.get_or_insert_with(|| times(st));
                let mut progressed = false;
                loop {
                    if *iter >= total {
                        return Poll::Done;
                    }
                    if current.is_none() {
                        *current = Some(Box::new(task_of(body)));
                    }
                    match current.as_mut().expect("just set").poll(st, inbox) {
                        Poll::Done => {
                            progressed = true;
                            *current = None;
                            *iter += 1;
                        }
                        Poll::Blocked(p) => return Poll::Blocked(progressed || p),
                    }
                }
            }
            Task::When {
                event,
                bind,
                body,
                fired,
            } => {
                let mut progressed = false;
                if fired.is_none() {
                    let payload = inbox.get_mut(event).and_then(|q| q.pop_front());
                    match payload {
                        Some(p) => {
                            bind(st, p);
                            *fired = Some(Box::new(task_of(body)));
                            progressed = true;
                        }
                        None => return Poll::Blocked(false),
                    }
                }
                match fired.as_mut().expect("fired").poll(st, inbox) {
                    Poll::Done => Poll::Done,
                    Poll::Blocked(p) => Poll::Blocked(progressed || p),
                }
            }
            Task::Overlap { children } => {
                let mut progressed = false;
                let mut all_done = true;
                for slot in children.iter_mut() {
                    if let Some(task) = slot {
                        match task.poll(st, inbox) {
                            Poll::Done => {
                                *slot = None;
                                progressed = true;
                            }
                            Poll::Blocked(p) => {
                                progressed |= p;
                                all_done = false;
                            }
                        }
                    }
                }
                if all_done {
                    Poll::Done
                } else {
                    Poll::Blocked(progressed)
                }
            }
            Task::While {
                cond,
                body,
                current,
            } => {
                let mut progressed = false;
                loop {
                    if current.is_none() {
                        if !cond(st) {
                            return Poll::Done;
                        }
                        *current = Some(Box::new(task_of(body)));
                    }
                    match current.as_mut().expect("just set").poll(st, inbox) {
                        Poll::Done => {
                            progressed = true;
                            *current = None;
                        }
                        Poll::Blocked(p) => return Poll::Blocked(progressed || p),
                    }
                }
            }
            Task::If {
                cond,
                then,
                otherwise,
                current,
                decided,
            } => {
                if !*decided {
                    *decided = true;
                    *current = Some(Box::new(task_of(if cond(st) {
                        then
                    } else {
                        otherwise
                    })));
                }
                current.as_mut().expect("decided").poll(st, inbox)
            }
        }
    }
}

/// A running SDAG program over state `S`: feed it events, it advances the
/// control flow and buffers anything that arrives early.
pub struct SdagRun<S> {
    root: Option<Task<S>>,
    state: S,
    inbox: Inbox,
}

impl<S> SdagRun<S> {
    /// Start the program; runs until it first blocks (or completes).
    pub fn new(program: &Node<S>, state: S) -> SdagRun<S> {
        let mut run = SdagRun {
            root: Some(task_of(program)),
            state,
            inbox: IdMap::default(),
        };
        run.advance();
        run
    }

    fn advance(&mut self) {
        if let Some(root) = self.root.as_mut() {
            loop {
                match root.poll(&mut self.state, &mut self.inbox) {
                    Poll::Done => {
                        self.root = None;
                        break;
                    }
                    Poll::Blocked(true) => continue,
                    Poll::Blocked(false) => break,
                }
            }
        }
    }

    /// Deliver a message; the program consumes it now or buffers it for a
    /// future `when`. Returns [`SdagRun::is_done`] afterwards.
    pub fn deliver(&mut self, event: Event, payload: Vec<u8>) -> bool {
        self.inbox.entry(event).or_default().push_back(payload);
        self.advance();
        self.is_done()
    }

    /// Has the whole program completed?
    pub fn is_done(&self) -> bool {
        self.root.is_none()
    }

    /// Messages delivered but not yet consumed by any `when`.
    pub fn buffered(&self) -> usize {
        self.inbox.values().map(|q| q.len()).sum()
    }

    /// The program state.
    pub fn state(&self) -> &S {
        &self.state
    }

    /// Mutable access to the program state.
    pub fn state_mut(&mut self) -> &mut S {
        &mut self.state
    }

    /// Consume the run, returning the final state.
    pub fn into_state(self) -> S {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_of_atomics_runs_immediately() {
        let prog: Node<Vec<u32>> = seq(vec![
            atomic(|s: &mut Vec<u32>| s.push(1)),
            atomic(|s: &mut Vec<u32>| s.push(2)),
            atomic(|s: &mut Vec<u32>| s.push(3)),
        ]);
        let run = SdagRun::new(&prog, Vec::new());
        assert!(run.is_done());
        assert_eq!(run.state(), &vec![1, 2, 3]);
    }

    #[test]
    fn when_blocks_until_delivery() {
        let prog: Node<u64> = seq(vec![
            atomic(|s: &mut u64| *s += 1),
            when(7, |s: &mut u64, m| *s += m[0] as u64),
            atomic(|s: &mut u64| *s *= 10),
        ]);
        let mut run = SdagRun::new(&prog, 0);
        assert!(!run.is_done());
        assert_eq!(*run.state(), 1, "only the first atomic ran");
        assert!(run.deliver(7, vec![4]));
        assert_eq!(*run.state(), 50, "(1+4)*10");
    }

    #[test]
    fn early_messages_are_buffered() {
        let prog: Node<Vec<u8>> = seq(vec![
            when(1, |s: &mut Vec<u8>, m| s.extend(m)),
            when(2, |s: &mut Vec<u8>, m| s.extend(m)),
        ]);
        let mut run = SdagRun::new(&prog, Vec::new());
        // Event 2 arrives first: buffered, not consumed.
        assert!(!run.deliver(2, vec![20]));
        assert_eq!(run.buffered(), 1);
        assert!(run.deliver(1, vec![10]));
        assert_eq!(run.state(), &vec![10, 20], "program order, not arrival order");
    }

    #[test]
    fn overlap_accepts_any_order() {
        for order in [[0u32, 1, 2], [2, 1, 0], [1, 0, 2]] {
            let prog: Node<Vec<u32>> = seq(vec![
                overlap(vec![
                    when(0, |s: &mut Vec<u32>, _| s.push(0)),
                    when(1, |s: &mut Vec<u32>, _| s.push(1)),
                    when(2, |s: &mut Vec<u32>, _| s.push(2)),
                ]),
                atomic(|s: &mut Vec<u32>| s.push(99)),
            ]);
            let mut run = SdagRun::new(&prog, Vec::new());
            for e in order {
                run.deliver(e, vec![]);
            }
            assert!(run.is_done());
            let st = run.state();
            assert_eq!(st.len(), 4);
            assert_eq!(*st.last().unwrap(), 99, "continuation after all whens");
            assert_eq!(st[..3].to_vec(), order.to_vec(), "whens fire in arrival order");
        }
    }

    #[test]
    fn for_loop_repeats_body() {
        #[derive(Default)]
        struct St {
            rounds: u64,
            got: Vec<u8>,
        }
        let prog: Node<St> = for_n(
            |_| 3,
            seq(vec![
                when(5, |s: &mut St, m| s.got.extend(m)),
                atomic(|s: &mut St| s.rounds += 1),
            ]),
        );
        let mut run = SdagRun::new(&prog, St::default());
        for i in 0..3u8 {
            assert!(!run.is_done());
            run.deliver(5, vec![i]);
        }
        assert!(run.is_done());
        assert_eq!(run.state().rounds, 3);
        assert_eq!(run.state().got, vec![0, 1, 2]);
    }

    #[test]
    fn loop_count_reads_state_at_entry() {
        let prog: Node<(u64, u64)> = seq(vec![
            atomic(|s: &mut (u64, u64)| s.0 = 4), // set count
            for_n(|s: &(u64, u64)| s.0, atomic(|s: &mut (u64, u64)| s.1 += 1)),
        ]);
        let run = SdagRun::new(&prog, (0, 0));
        assert!(run.is_done());
        assert_eq!(run.state().1, 4);
    }

    #[test]
    fn figure1_stencil_lifecycle() {
        // The paper's Figure 1, with 2 iterations and payload checking.
        #[derive(Default)]
        struct Strip {
            sends: u64,
            lefts: Vec<u8>,
            rights: Vec<u8>,
            works: u64,
        }
        const LEFT: Event = 10;
        const RIGHT: Event = 11;
        let prog: Node<Strip> = for_n(
            |_| 2,
            seq(vec![
                atomic(|s: &mut Strip| s.sends += 1),
                overlap(vec![
                    when(LEFT, |s: &mut Strip, m| s.lefts.extend(m)),
                    when(RIGHT, |s: &mut Strip, m| s.rights.extend(m)),
                ]),
                atomic(|s: &mut Strip| s.works += 1),
            ]),
        );
        let mut run = SdagRun::new(&prog, Strip::default());
        assert_eq!(run.state().sends, 1, "first send fired eagerly");
        // Iteration 1: right then left.
        run.deliver(RIGHT, vec![1]);
        assert_eq!(run.state().works, 0, "still waiting for left");
        run.deliver(LEFT, vec![2]);
        assert_eq!(run.state().works, 1);
        assert_eq!(run.state().sends, 2, "second iteration's send fired");
        // Iteration 2: left then right, and the RIGHT arrives early for...
        // no, deliver in order this time.
        run.deliver(LEFT, vec![3]);
        run.deliver(RIGHT, vec![4]);
        assert!(run.is_done());
        assert_eq!(run.state().works, 2);
        assert_eq!(run.state().lefts, vec![2, 3]);
        assert_eq!(run.state().rights, vec![1, 4]);
    }

    #[test]
    fn nested_overlap_and_loops() {
        let prog: Node<u64> = overlap(vec![
            for_n(|_| 2, when(0, |s: &mut u64, _| *s += 1)),
            for_n(|_| 2, when(1, |s: &mut u64, _| *s += 100)),
        ]);
        let mut run = SdagRun::new(&prog, 0);
        run.deliver(1, vec![]);
        run.deliver(0, vec![]);
        run.deliver(1, vec![]);
        assert!(!run.is_done(), "one more event 0 needed");
        run.deliver(0, vec![]);
        assert!(run.is_done());
        assert_eq!(*run.state(), 202);
    }

    #[test]
    fn zero_iteration_loop_is_done_immediately() {
        let prog: Node<u64> = for_n(|_| 0, when(0, |_: &mut u64, _| {}));
        let run = SdagRun::new(&prog, 0);
        assert!(run.is_done());
    }
}

#[cfg(test)]
mod control_flow_tests {
    use super::*;

    #[test]
    fn while_loop_reads_live_state() {
        // Keep consuming event 0 until the accumulated total passes 10 —
        // the data-dependent loop `for_n` cannot express.
        let prog: Node<u64> = while_cond(
            |s: &u64| *s < 10,
            when(0, |s: &mut u64, m: Vec<u8>| *s += m[0] as u64),
        );
        let mut run = SdagRun::new(&prog, 0);
        for v in [3u8, 3, 3] {
            assert!(!run.is_done());
            run.deliver(0, vec![v]);
        }
        assert!(!run.is_done(), "9 < 10: still looping");
        run.deliver(0, vec![4]);
        assert!(run.is_done());
        assert_eq!(*run.state(), 13);
    }

    #[test]
    fn while_false_at_entry_skips_body() {
        let prog: Node<u64> = while_cond(|_s: &u64| false, when(0, |_: &mut u64, _| {}));
        let run = SdagRun::new(&prog, 5);
        assert!(run.is_done());
    }

    #[test]
    fn if_else_branches_on_state() {
        let prog = |threshold: u64| -> Node<(u64, &'static str)> {
            seq(vec![
                atomic(move |s: &mut (u64, &'static str)| s.0 = threshold),
                if_else(
                    |s: &(u64, &'static str)| s.0 > 5,
                    atomic(|s: &mut (u64, &'static str)| s.1 = "big"),
                    seq(vec![
                        when(1, |s: &mut (u64, &'static str), _| s.1 = "small-waited"),
                    ]),
                ),
            ])
        };
        let run = SdagRun::new(&prog(9), (0, ""));
        assert!(run.is_done());
        assert_eq!(run.state().1, "big");
        // The else-branch can block on events like any other node.
        let mut run = SdagRun::new(&prog(2), (0, ""));
        assert!(!run.is_done());
        run.deliver(1, vec![]);
        assert!(run.is_done());
        assert_eq!(run.state().1, "small-waited");
    }

    #[test]
    fn nested_while_in_for() {
        // Each of 2 rounds drains events until a sentinel (value 0).
        #[derive(Default)]
        struct St {
            draining: bool,
            drained: u64,
            rounds: u64,
        }
        let prog: Node<St> = for_n(
            |_| 2,
            seq(vec![
                atomic(|s: &mut St| s.draining = true),
                while_cond(
                    |s: &St| s.draining,
                    when(0, |s: &mut St, m: Vec<u8>| {
                        if m[0] == 0 {
                            s.draining = false;
                        } else {
                            s.drained += m[0] as u64;
                        }
                    }),
                ),
                atomic(|s: &mut St| s.rounds += 1),
            ]),
        );
        let mut run = SdagRun::new(&prog, St::default());
        for v in [5u8, 7, 0, 2, 0] {
            run.deliver(0, vec![v]);
        }
        assert!(run.is_done());
        assert_eq!(run.state().rounds, 2);
        assert_eq!(run.state().drained, 14);
    }
}
