//! Property tests on the scheduler and migration: random flavor mixes,
//! random yield/suspend patterns and random migration points must never
//! lose work or corrupt results, and random lifecycles must match a
//! reference model of the four thread states.

use flows_core::{
    awaken, migrate::migrate, suspend, yield_now, SchedConfig, SchedStats, Scheduler,
    SharedPools, StackFlavor, ThreadId, ThreadState,
};
use proptest::prelude::*;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

fn flavor_of(i: u8) -> StackFlavor {
    StackFlavor::ALL[(i % 4) as usize]
}

/// Isomalloc slots on the lifecycle model's PE: few, so lazy spawns
/// beyond the slot count are common.
const SLOTS: usize = 4;

/// How a flow leaves one burst: the three ways out of a running flow.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Exit {
    Yield,
    Suspend,
    Return,
}

/// What the next flow to run does: optionally awaken a sibling (by spawn
/// index), then leave by `Exit`.
type Plan = (Exit, Option<ThreadId>);

/// The reference model: a thread is `Ready`, `Running`, `Suspended` or
/// `Done` (reaped, so absent from the scheduler), and the run queue is
/// FIFO. A lazy isomalloc flow that finds every slot held by a started,
/// unfinished sibling dies at its first landing without running.
struct Lifecycle {
    s: Scheduler,
    plan: Rc<Cell<Option<Plan>>>,
    woke: Rc<Cell<Option<bool>>>,
    tids: Vec<ThreadId>,
    state: Vec<ThreadState>,
    lazy: Vec<bool>,
    started: Vec<bool>,
    runq: VecDeque<usize>,
    slots_held: usize,
    stats: SchedStats,
}

impl Lifecycle {
    fn new() -> Lifecycle {
        let mut iso = flows_mem::IsoConfig::for_pes(1);
        iso.base = 0;
        iso.slots_per_pe = SLOTS;
        let cfg = SchedConfig {
            lazy_iso: true,
            ..SchedConfig::default()
        };
        Lifecycle {
            s: Scheduler::new(0, SharedPools::new(iso, 256 * 1024).unwrap(), cfg),
            plan: Rc::new(Cell::new(None)),
            woke: Rc::new(Cell::new(None)),
            tids: Vec::new(),
            state: Vec::new(),
            lazy: Vec::new(),
            started: Vec::new(),
            runq: VecDeque::new(),
            slots_held: 0,
            stats: SchedStats::default(),
        }
    }

    fn spawn(&mut self, flavor: StackFlavor) {
        let (plan, woke) = (self.plan.clone(), self.woke.clone());
        let tid = self
            .s
            .spawn_with(flavor, 16 * 1024, move || loop {
                let (exit, wake) = plan.take().expect("every burst has a plan");
                if let Some(t) = wake {
                    woke.set(Some(awaken(t).is_ok()));
                }
                match exit {
                    Exit::Yield => yield_now(),
                    Exit::Suspend => suspend(),
                    Exit::Return => return,
                }
            })
            .unwrap();
        self.runq.push_back(self.tids.len());
        self.tids.push(tid);
        self.state.push(ThreadState::Ready);
        self.lazy.push(flavor == StackFlavor::Isomalloc);
        self.started.push(false);
        self.stats.spawned += 1;
    }

    /// The model's side of either awaken entry point.
    fn model_awaken(&mut self, i: usize) -> bool {
        if self.state[i] != ThreadState::Suspended {
            return false;
        }
        self.state[i] = ThreadState::Ready;
        self.runq.push_back(i);
        true
    }

    /// Awaken spawn index `i` from the pump; `Ok` exactly when the model
    /// has it suspended.
    fn awaken(&mut self, i: usize) -> Result<(), TestCaseError> {
        let got = self.s.awaken_tid(self.tids[i]).is_ok();
        prop_assert_eq!(got, self.model_awaken(i), "pump awaken of #{}", i);
        Ok(())
    }

    /// One `step`: the head flow runs `exit`, first awakening spawn index
    /// `wake` from inside (skipped when it names the runner itself).
    fn step(&mut self, exit: Exit, wake: Option<usize>) -> Result<(), TestCaseError> {
        let Some(&h) = self.runq.front() else {
            prop_assert!(!self.s.step(), "model has nothing runnable");
            return Ok(());
        };
        let wake = wake.filter(|&w| w != h);
        self.plan.set(Some((exit, wake.map(|w| self.tids[w]))));
        prop_assert!(self.s.step());
        self.runq.pop_front();
        let lands = !self.lazy[h] || self.started[h] || self.slots_held < SLOTS;
        prop_assert_eq!(self.plan.take().is_none(), lands, "#{} ran", h);
        if !lands {
            // A flow that cannot be activated dies marked panicked.
            self.state[h] = ThreadState::Done;
            self.stats.completed += 1;
            self.stats.panicked += 1;
            return Ok(());
        }
        if self.lazy[h] && !self.started[h] {
            self.slots_held += 1;
        }
        self.started[h] = true;
        self.stats.switches += 1;
        let expect = wake.map(|w| self.model_awaken(w));
        prop_assert_eq!(self.woke.take(), expect, "in-flow awaken by #{}", h);
        self.state[h] = match exit {
            Exit::Yield => {
                self.runq.push_back(h);
                ThreadState::Ready
            }
            Exit::Suspend => ThreadState::Suspended,
            Exit::Return => {
                self.stats.completed += 1;
                self.slots_held -= self.lazy[h] as usize;
                ThreadState::Done
            }
        };
        Ok(())
    }

    /// The scheduler agrees with the model on every observable.
    fn check(&self) -> Result<(), TestCaseError> {
        for (i, (&tid, &st)) in self.tids.iter().zip(&self.state).enumerate() {
            let want = (st != ThreadState::Done).then_some(st);
            prop_assert_eq!(self.s.state(tid), want, "state of #{}", i);
        }
        prop_assert_eq!(self.s.runnable(), self.runq.len());
        let live = self.state.iter().filter(|&&st| st != ThreadState::Done).count();
        prop_assert_eq!(self.s.thread_count(), live);
        prop_assert_eq!(self.s.stats(), self.stats);
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random sequences of spawn, step (yield, suspend or return, after
    /// an optional in-flow awaken) and pump-side awaken match the
    /// reference model after every operation, and the PE then drains to
    /// empty with every spawn counted completed — lazy flows that never
    /// found a slot included.
    #[test]
    fn lifecycle_matches_the_reference_model(
        ops in proptest::collection::vec((0u8..8, any::<u8>(), any::<u8>()), 1..160)
    ) {
        let flavors = [StackFlavor::Standard, StackFlavor::StackCopy, StackFlavor::Isomalloc];
        let exits = [Exit::Yield, Exit::Suspend, Exit::Return];
        let mut m = Lifecycle::new();
        for (kind, a, b) in ops {
            let n = m.tids.len().max(1);
            match kind {
                0..=1 => m.spawn(flavors[a as usize % 3]),
                2..=4 => {
                    let wake = (b & 1 == 1 && !m.tids.is_empty()).then_some((b >> 1) as usize % n);
                    m.step(exits[a as usize % 3], wake)?;
                }
                _ if !m.tids.is_empty() => m.awaken(a as usize % n)?,
                _ => {}
            }
            m.check()?;
        }
        while m.state.iter().any(|&st| st != ThreadState::Done) {
            for i in 0..m.tids.len() {
                if m.state[i] == ThreadState::Suspended {
                    m.awaken(i)?;
                }
            }
            while !m.runq.is_empty() {
                m.step(Exit::Return, None)?;
                m.check()?;
            }
        }
        prop_assert_eq!(m.s.thread_count(), 0);
        prop_assert_eq!(m.stats.completed, m.stats.spawned);
    }

    /// N threads of random flavors each do a random number of yields and
    /// then report; every thread completes exactly once and the scheduler
    /// ends empty.
    #[test]
    fn random_flavor_mix_always_completes(
        specs in proptest::collection::vec((any::<u8>(), 1usize..12), 1..20)
    ) {
        let s = Scheduler::new(0, SharedPools::new_for_tests(), SchedConfig::default());
        let done: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        for (i, (fl, yields)) in specs.iter().enumerate() {
            let done = done.clone();
            let yields = *yields;
            s.spawn(flavor_of(*fl), move || {
                for _ in 0..yields {
                    yield_now();
                }
                done.borrow_mut().push(i);
            }).unwrap();
        }
        s.run();
        let mut d = done.borrow().clone();
        d.sort();
        prop_assert_eq!(d, (0..specs.len()).collect::<Vec<_>>());
        prop_assert_eq!(s.thread_count(), 0);
        prop_assert_eq!(s.stats().completed, specs.len() as u64);
    }

    /// Threads suspend at random points; migrating a random subset to a
    /// second PE and finishing there must preserve every accumulator.
    #[test]
    fn random_migrations_preserve_results(
        specs in proptest::collection::vec((0u8..3, 1u64..50, any::<bool>()), 1..12)
    ) {
        let shared = SharedPools::new_for_tests();
        let pe0 = Scheduler::new(0, shared.clone(), SchedConfig::default());
        let pe1 = Scheduler::new(1, shared, SchedConfig::default());
        let results: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let migratable = [StackFlavor::StackCopy, StackFlavor::Isomalloc, StackFlavor::Alias];
        let mut tids = Vec::new();
        for &(fl, work, _) in &specs {
            let results = results.clone();
            let tid = pe0.spawn(migratable[(fl % 3) as usize], move || {
                let mut acc: u64 = (0..work).sum();
                suspend(); // migration may happen here
                acc += (work..2 * work).sum::<u64>();
                results.borrow_mut().push(acc);
            }).unwrap();
            tids.push(tid);
        }
        pe0.run(); // all suspended
        for (tid, &(_, _, move_it)) in tids.iter().zip(&specs) {
            prop_assert_eq!(pe0.state(*tid), Some(ThreadState::Suspended));
            if move_it {
                migrate(&pe0, &pe1, *tid).unwrap();
                pe1.awaken_tid(*tid).unwrap();
            } else {
                pe0.awaken_tid(*tid).unwrap();
            }
        }
        pe0.run();
        pe1.run();
        let mut got = results.borrow().clone();
        got.sort_unstable();
        let mut expect: Vec<u64> = specs.iter().map(|&(_, w, _)| (0..2 * w).sum()).collect();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
        prop_assert_eq!(pe0.thread_count() + pe1.thread_count(), 0);
    }

    /// The full steal protocol under randomness: whatever mix of flavors,
    /// warm-up steps and yield counts, a request → donate → absorb round
    /// between two schedulers never loses or duplicates a thread, leaves
    /// nothing in flight, and both PEs drain to empty.
    #[test]
    fn steal_protocol_never_loses_threads(
        specs in proptest::collection::vec((any::<u8>(), 1usize..10), 2..24),
        warmup in 0usize..30,
    ) {
        let shared = SharedPools::new_for_tests();
        let pe0 = Scheduler::new(0, shared.clone(), SchedConfig::default());
        let pe1 = Scheduler::new(1, shared.clone(), SchedConfig::default());
        let done: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        for (i, &(fl, yields)) in specs.iter().enumerate() {
            let done = done.clone();
            pe0.spawn(flavor_of(fl), move || {
                for _ in 0..yields {
                    yield_now();
                }
                done.borrow_mut().push(i);
            }).unwrap();
        }
        // Random warm-up: some threads start (become stealable), some may
        // already finish, some never run before the steal.
        for _ in 0..warmup {
            if !pe0.step() {
                break;
            }
        }
        let mesh = shared.steal();
        mesh.request(0, 1);
        let donated = pe0.donate_steals();
        let absorbed = pe1.absorb_steals();
        if donated != 0 {
            prop_assert!(absorbed > 0, "a donation bitmask implies threads moved");
        }
        prop_assert_eq!(mesh.in_flight(), 0, "absorb drained the inbox");
        pe0.run();
        pe1.run();
        let mut d = done.borrow().clone();
        d.sort_unstable();
        prop_assert_eq!(d, (0..specs.len()).collect::<Vec<_>>());
        prop_assert_eq!(pe0.thread_count() + pe1.thread_count(), 0);
        let s0 = pe0.stats();
        let s1 = pe1.stats();
        prop_assert_eq!(s0.migrations_out, s1.migrations_in);
        prop_assert_eq!(s0.completed + s1.completed, specs.len() as u64);
    }

    /// Priorities: whatever the spawn order, strictly higher-priority
    /// (lower-valued) non-yielding threads finish in priority order.
    #[test]
    fn priority_order_is_respected(prios in proptest::collection::vec(-20i32..20, 2..15)) {
        let s = Scheduler::new(0, SharedPools::new_for_tests(), SchedConfig::default());
        let order: Rc<RefCell<Vec<i32>>> = Rc::new(RefCell::new(Vec::new()));
        for &p in &prios {
            let order = order.clone();
            s.spawn_prio(StackFlavor::Standard, 32 * 1024, p, move || {
                order.borrow_mut().push(p);
            }).unwrap();
        }
        s.run();
        let got = order.borrow().clone();
        let mut expect = prios.clone();
        expect.sort(); // stable: equal priorities keep spawn order
        prop_assert_eq!(got, expect);
    }
}
