//! Chrome-trace / Perfetto JSON export.
//!
//! Emits the Trace Event Format's JSON-array flavor, which both
//! `chrome://tracing` and <https://ui.perfetto.dev> open directly:
//! each PE becomes a process (`pid`), each user-level thread a track
//! (`tid`). On-CPU bursts become `"X"` complete events (synthesized
//! from `SwitchOut`, whose payload carries the burst length, so one
//! record yields begin+duration); everything else becomes `"i"`
//! instant events carrying its payload as `args`.

use crate::event::EventKind;
use crate::ring::TraceRing;
use crate::{flavor_name, Event};
use std::fmt::Write as _;
use std::sync::Arc;

/// Timestamp in Chrome's microsecond unit, keeping sub-µs precision.
fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// Render one ring's events into `out` (shared by export and tests).
fn push_pe_events(out: &mut String, pe: usize, events: &[Event], first: &mut bool) {
    let mut sep = |out: &mut String| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push('\n');
    };
    // Name the process track after the PE.
    sep(out);
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"pid\":{pe},\"name\":\"process_name\",\"args\":{{\"name\":\"PE {pe}\"}}}}"
    );
    for ev in events {
        match ev.kind {
            EventKind::SwitchOut => {
                // One complete slice per on-CPU burst: starts burst ns
                // before the switch-out timestamp.
                let start = ev.ts.saturating_sub(ev.b);
                sep(out);
                let _ = write!(
                    out,
                    "{{\"ph\":\"X\",\"pid\":{pe},\"tid\":{tid},\"ts\":{ts:.3},\"dur\":{dur:.3},\
                     \"name\":\"run\",\"cat\":\"cpu\",\"args\":{{\"flavor\":\"{flavor}\"}}}}",
                    tid = ev.a,
                    ts = us(start),
                    dur = us(ev.b),
                    flavor = flavor_name(ev.c),
                );
            }
            // SwitchIn is implied by the slice start; skip to keep
            // traces small.
            EventKind::SwitchIn => {}
            kind => {
                sep(out);
                let _ = write!(
                    out,
                    "{{\"ph\":\"i\",\"pid\":{pe},\"tid\":0,\"ts\":{ts:.3},\"s\":\"t\",\
                     \"name\":\"{name}\",\"cat\":\"{cat}\",\
                     \"args\":{{\"a\":{a},\"b\":{b},\"c\":{c}}}}}",
                    ts = us(ev.ts),
                    name = kind.name(),
                    cat = category(kind),
                    a = ev.a,
                    b = ev.b,
                    c = ev.c,
                );
            }
        }
    }
}

fn category(kind: EventKind) -> &'static str {
    match kind {
        EventKind::ThreadCreate | EventKind::ThreadExit => "thread",
        EventKind::MsgSend | EventKind::MsgRecv => "msg",
        EventKind::MigPack | EventKind::MigUnpack => "migration",
        EventKind::Checkpoint => "checkpoint",
        EventKind::LbEpoch => "lb",
        EventKind::FaultDrop
        | EventKind::FaultRetransmit
        | EventKind::FaultCrash
        | EventKind::FaultStall => "fault",
        EventKind::FtSuspect
        | EventKind::FtClear
        | EventKind::FtConfirm
        | EventKind::FtRollback
        | EventKind::FtRespawn
        | EventKind::FtResume => "recovery",
        EventKind::VtStep => "bigsim",
        EventKind::SanTrip => "sanitizer",
        EventKind::RemapBatch | EventKind::LazyCommit => "mem",
        _ => "misc",
    }
}

/// Export a machine's rings as a Chrome-trace JSON array.
pub fn chrome_trace_json(rings: &[Arc<TraceRing>]) -> String {
    let mut out = String::from("[");
    let mut first = true;
    for ring in rings {
        push_pe_events(&mut out, ring.pe(), &ring.events(), &mut first);
    }
    out.push_str("\n]\n");
    out
}

// --- A minimal JSON validator -------------------------------------------
//
// There is no serde in this workspace, but tests and trace_export need
// "is this output actually JSON". A ~60-line recursive-descent checker
// is enough: it validates structure, not schema.

struct P<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> P<'a> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.s.get(self.i).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.i))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        match self.peek().ok_or("unexpected end of input")? {
            b'{' => {
                self.eat(b'{')?;
                if self.peek() == Some(b'}') {
                    return self.eat(b'}');
                }
                loop {
                    self.string()?;
                    self.eat(b':')?;
                    self.value()?;
                    match self.peek() {
                        Some(b',') => self.eat(b',')?,
                        _ => return self.eat(b'}'),
                    }
                }
            }
            b'[' => {
                self.eat(b'[')?;
                if self.peek() == Some(b']') {
                    return self.eat(b']');
                }
                loop {
                    self.value()?;
                    match self.peek() {
                        Some(b',') => self.eat(b',')?,
                        _ => return self.eat(b']'),
                    }
                }
            }
            b'"' => self.string(),
            b't' => self.lit("true"),
            b'f' => self.lit("false"),
            b'n' => self.lit("null"),
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(format!("unexpected '{}' at byte {}", c as char, self.i)),
        }
    }

    fn lit(&mut self, word: &str) -> Result<(), String> {
        self.ws();
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(())
        } else {
            Err(format!("expected '{word}' at byte {}", self.i))
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.eat(b'"')?;
        while let Some(&b) = self.s.get(self.i) {
            self.i += 1;
            match b {
                b'"' => return Ok(()),
                b'\\' => self.i += 1, // skip the escaped byte
                _ => {}
            }
        }
        Err("unterminated string".into())
    }

    fn number(&mut self) -> Result<(), String> {
        self.ws();
        let start = self.i;
        while let Some(&b) = self.s.get(self.i) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.i += 1;
            } else {
                break;
            }
        }
        if self.i == start {
            Err(format!("expected number at byte {start}"))
        } else {
            Ok(())
        }
    }
}

/// Check that `s` is one well-formed JSON value (structure only).
pub fn validate_json(s: &str) -> Result<(), String> {
    let mut p = P {
        s: s.as_bytes(),
        i: 0,
    };
    p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing bytes at {}", p.i));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push(ring: &TraceRing, ts: u64, kind: EventKind, a: u64, b: u64, c: u64) {
        // SAFETY: the test thread is the only one driving this ring.
        unsafe { ring.push(Event { ts, kind, a, b, c }) }
    }

    #[test]
    fn export_is_valid_json_with_expected_records() {
        let ring = Arc::new(TraceRing::new(2, 64));
        push(&ring, 1_000, EventKind::ThreadCreate, 1, 0, 65536);
        push(&ring, 2_000, EventKind::SwitchIn, 1, 0, 0);
        push(&ring, 5_000, EventKind::SwitchOut, 1, 3_000, 0);
        push(&ring, 6_000, EventKind::MsgSend, 3, 256, 2);
        push(&ring, 7_000, EventKind::MigPack, 1, 8_192, 0);
        push(&ring, 8_000, EventKind::FaultRetransmit, 3, 11, 2);
        let js = chrome_trace_json(&[ring]);
        validate_json(&js).expect("chrome trace parses");
        assert!(js.contains("\"ph\":\"X\""));
        assert!(js.contains("\"name\":\"PE 2\""));
        assert!(js.contains("thread_create"));
        assert!(js.contains("msg_send"));
        assert!(js.contains("mig_pack"));
        assert!(js.contains("fault_retransmit"));
        assert!(js.contains("stack-copy"));
        // SwitchIn is folded into the X slice.
        assert!(!js.contains("switch_in"));
    }

    #[test]
    fn validator_accepts_and_rejects() {
        validate_json("[]").unwrap();
        validate_json("{\"a\":[1,2.5,-3e4],\"b\":\"x\\\"y\",\"c\":null}").unwrap();
        assert!(validate_json("[1,").is_err());
        assert!(validate_json("{\"a\":}").is_err());
        assert!(validate_json("[] trailing").is_err());
        assert!(validate_json("\"open").is_err());
    }
}
