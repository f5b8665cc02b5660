//! Return-switch functions (paper §2.4.1).
//!
//! The oldest way to fake suspend/resume without threads: when the
//! function needs to block it *returns*, saving a label; when resumed it
//! switches on the label and jumps back to where it left off — Duff's
//! device dressed up in macros (the paper cites Tatham's C coroutines
//! \[37\]). The [`crate::retswitch!`] macro makes the "save, return, resume from
//! label" bookkeeping explicit but compact.
//!
//! The paper's verdict — *"this technique can still be confusing,
//! error-prone and tough to debug"* — is reproduced faithfully: compare
//! the stencil below with the same life cycle in [`crate::sdag`], where
//! the control flow reads top-to-bottom. This module exists so the
//! comparison is concrete, and because the mechanism is still the right
//! tool for tiny protocol steppers.
//!
//! ```
//! use flows_chare::retswitch;
//!
//! retswitch! {
//!     /// Alternates doubling and incrementing across resumes.
//!     pub machine Zigzag(st: u64, input: u64) -> u64 {
//!         0 => { let v = *st + input; *st = v; (1, Some(v)) }
//!         1 => { let v = *st * 2;     *st = v; (0, Some(v)) }
//!     }
//! }
//!
//! let mut m = Zigzag::new(1);
//! assert_eq!(m.resume(10), Some(11)); // label 0: add
//! assert_eq!(m.resume(0), Some(22));  // label 1: double
//! assert_eq!(m.resume(5), Some(27));  // back at label 0
//! ```

/// What a return-switch machine did on one resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RsStep<O> {
    /// The machine suspended again, emitting a value.
    Yielded(O),
    /// The machine finished.
    Done,
}

/// Define a return-switch machine: a struct holding a program counter and
/// user state, whose `resume(input)` switches on the saved label. Each
/// arm's body must evaluate to `(next_label, Option<output>)`; jumping to
/// a label with no arm (conventionally [`u32::MAX`]) finishes the machine.
///
/// Inside an arm, the state binding is a `&mut` to the machine's state.
#[macro_export]
macro_rules! retswitch {
    (
        $(#[$meta:meta])*
        $vis:vis machine $name:ident($state:ident : $sty:ty, $input:ident : $ity:ty) -> $oty:ty {
            $( $label:literal => $body:block )*
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            pc: u32,
            /// The machine's persistent state (the paper's "manually
            /// stored and restored" part).
            $vis state: $sty,
        }

        impl $name {
            /// Start at label 0 with the given state.
            $vis fn new(state: $sty) -> Self {
                Self { pc: 0, state }
            }

            /// Has the machine run off the end of its labels?
            #[allow(dead_code)]
            $vis fn is_done(&self) -> bool {
                !matches!(self.pc, $( $label )|*)
            }

            /// The label the machine will resume at.
            #[allow(dead_code)]
            $vis fn label(&self) -> u32 {
                self.pc
            }

            /// Resume at the saved label. Returns `None` once finished.
            #[allow(unreachable_patterns)]
            $vis fn resume(&mut self, $input: $ity) -> Option<$oty> {
                let $state = &mut self.state;
                let (next, out): (u32, Option<$oty>) = match self.pc {
                    $( $label => $body, )*
                    _ => return None,
                };
                self.pc = next;
                out
            }
        }
    };
}

#[cfg(test)]
mod tests {
    // The paper's Figure 1 stencil life cycle, hand-compiled to
    // return-switch style — note how the iteration loop becomes label
    // arithmetic and the overlap becomes a bitmask, exactly the
    // obfuscation §2.4.1 warns about.
    #[derive(Debug, Default)]
    struct StripState {
        iter: u64,
        max_iter: u64,
        got_left: bool,
        got_right: bool,
        ghost_sum: u64,
        work_done: u64,
    }

    crate::retswitch! {
        /// input: (side, value) where side 0 = left ghost, 1 = right.
        machine Stencil(st: StripState, input: (u8, u64)) -> u64 {
            // label 0: "send strips" then wait in the overlap.
            0 => {
                // sendStripToLeftAndRight() would go here.
                st.got_left = false;
                st.got_right = false;
                (1, None)
            }
            // label 1: the overlap — re-entered until both ghosts arrive.
            1 => {
                match input.0 {
                    0 => st.got_left = true,
                    _ => st.got_right = true,
                }
                st.ghost_sum += input.1;
                if st.got_left && st.got_right {
                    // doWork(), then loop or finish.
                    st.work_done += 1;
                    st.iter += 1;
                    if st.iter < st.max_iter {
                        (0, Some(st.work_done))
                    } else {
                        (u32::MAX, Some(st.work_done))
                    }
                } else {
                    (1, None) // keep waiting at the same label
                }
            }
        }
    }

    #[test]
    fn stencil_lifecycle_in_return_switch_style() {
        let mut m = Stencil::new(StripState {
            max_iter: 3,
            ..Default::default()
        });
        // Kick off (label 0 consumes a dummy input — one of the warts).
        assert_eq!(m.resume((0, 0)), None);
        for i in 1..=3u64 {
            // Ghosts in either order.
            if i % 2 == 0 {
                assert_eq!(m.resume((0, i)), None);
                let r = m.resume((1, i));
                assert_eq!(r, Some(i));
            } else {
                assert_eq!(m.resume((1, i)), None);
                assert_eq!(m.resume((0, i)), Some(i));
            }
            if i < 3 {
                assert_eq!(m.resume((0, 0)), None, "restart sends");
            }
        }
        assert!(m.is_done());
        assert_eq!(m.state.work_done, 3);
        assert_eq!(m.state.ghost_sum, 2 * (1 + 2 + 3));
        assert_eq!(m.resume((0, 9)), None, "done machines stay done");
    }

    crate::retswitch! {
        machine Countdown(st: u32, _input: ()) -> u32 {
            0 => {
                if *st == 0 {
                    (u32::MAX, None)
                } else {
                    *st -= 1;
                    (0, Some(*st))
                }
            }
        }
    }

    #[test]
    fn self_loops_express_iteration() {
        let mut m = Countdown::new(3);
        assert_eq!(m.resume(()), Some(2));
        assert_eq!(m.resume(()), Some(1));
        assert_eq!(m.resume(()), Some(0));
        assert!(!m.is_done(), "label 0 still armed");
        assert_eq!(m.resume(()), None);
        assert!(m.is_done());
        assert_eq!(m.label(), u32::MAX);
    }

    /// The same alternating-event workload through SDAG and through
    /// return-switch must agree — the two §2.4 styles are equivalent in
    /// power, different in readability.
    #[test]
    fn sdag_and_retswitch_agree() {
        use crate::sdag::{atomic, for_n, overlap, seq, when, SdagRun};

        #[derive(Default)]
        struct S {
            ghost_sum: u64,
            work_done: u64,
        }
        let prog = for_n(
            |_| 3,
            seq(vec![
                overlap(vec![
                    when(0, |s: &mut S, m: Vec<u8>| s.ghost_sum += m[0] as u64),
                    when(1, |s: &mut S, m: Vec<u8>| s.ghost_sum += m[0] as u64),
                ]),
                atomic(|s: &mut S| s.work_done += 1),
            ]),
        );
        let mut sdag = SdagRun::new(&prog, S::default());
        let mut rs = Stencil::new(StripState {
            max_iter: 3,
            ..Default::default()
        });
        rs.resume((0, 0));
        for i in 1..=3u64 {
            sdag.deliver(1, vec![i as u8]);
            sdag.deliver(0, vec![i as u8]);
            rs.resume((1, i));
            rs.resume((0, i));
            if i < 3 {
                rs.resume((0, 0));
            }
        }
        assert!(sdag.is_done());
        assert!(rs.is_done());
        assert_eq!(sdag.state().ghost_sum, rs.state.ghost_sum);
        assert_eq!(sdag.state().work_done, rs.state.work_done);
    }
}
