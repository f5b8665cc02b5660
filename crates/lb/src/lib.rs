//! # flows-lb — measurement-based load balancing
//!
//! The paper's motivating use of thread migration is
//! application-independent dynamic load balancing (§1, §4.5, ref \[41\]):
//! the runtime *measures* each migratable object's load, feeds the
//! database to a strategy, and executes the resulting migrations. This
//! crate holds the strategy side — pure decision procedures over a load
//! snapshot — so they are unit-testable without a machine; `flows-ampi`
//! wires them to real thread migration.
//!
//! Strategies:
//! * [`NullLb`] — do nothing (the "without LB" arm of Figure 12);
//! * [`GreedyLb`] — largest-first placement onto least-loaded PEs
//!   (Charm++'s GreedyLB);
//! * [`RefineLb`] — move objects off overloaded PEs until the maximum is
//!   within a tolerance of the average (Charm++'s RefineLB: fewer
//!   migrations than greedy);
//! * [`RotateLb`] — shift every object to the next PE (a deliberately
//!   naive baseline that stresses migration machinery).

#![warn(missing_docs)]

use flows_core::{IdMap, IdSet};
use std::collections::BinaryHeap;

/// One migratable object's measured load.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjLoad {
    /// Opaque object identity (AMPI rank, chare id, ...).
    pub id: u64,
    /// Where it currently lives.
    pub pe: usize,
    /// Measured load (seconds of CPU in the last epoch, or any consistent
    /// unit).
    pub load: f64,
    /// Whether the runtime can move it.
    pub migratable: bool,
}

/// A snapshot of the machine's measured load.
#[derive(Debug, Clone, Default)]
pub struct LbStats {
    /// Machine size.
    pub num_pes: usize,
    /// Every known object.
    pub objs: Vec<ObjLoad>,
    /// Non-migratable background load per PE (empty = zero).
    pub background: Vec<f64>,
}

/// One migration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Migration {
    /// Which object.
    pub obj: u64,
    /// Source PE (the object's current location).
    pub from: usize,
    /// Destination PE.
    pub to: usize,
}

impl LbStats {
    /// Total load currently on each PE (objects + background).
    pub fn pe_loads(&self) -> Vec<f64> {
        let mut loads = vec![0.0; self.num_pes];
        for (i, b) in self.background.iter().enumerate().take(self.num_pes) {
            loads[i] = *b;
        }
        for o in &self.objs {
            loads[o.pe] += o.load;
        }
        loads
    }

    /// max/avg of the PE loads (1.0 = perfectly balanced). Returns 1.0 for
    /// an empty machine.
    pub fn imbalance(&self) -> f64 {
        let loads = self.pe_loads();
        let total: f64 = loads.iter().sum();
        if total <= 0.0 || loads.is_empty() {
            return 1.0;
        }
        let avg = total / loads.len() as f64;
        loads.iter().cloned().fold(0.0, f64::max) / avg
    }

    /// The PE loads *after* applying `migs` (for strategy evaluation).
    /// Builds an id→load index once, so evaluating a decision costs
    /// O(objs + migs) rather than O(objs × migs).
    pub fn loads_after(&self, migs: &[Migration]) -> Vec<f64> {
        let mut loads = self.pe_loads();
        let by_id: IdMap<u64, f64> =
            self.objs.iter().map(|o| (o.id, o.load)).collect();
        for m in migs {
            if let Some(&load) = by_id.get(&m.obj) {
                loads[m.from] -= load;
                loads[m.to] += load;
            }
        }
        loads
    }
}

/// A load-balancing decision procedure.
pub trait LbStrategy {
    /// Strategy name for reports.
    fn name(&self) -> &'static str;
    /// Compute migrations for this snapshot. Must only move migratable
    /// objects, to valid PEs, each object at most once.
    fn decide(&self, stats: &LbStats) -> Vec<Migration>;
}

/// No balancing (the control arm).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullLb;

impl LbStrategy for NullLb {
    fn name(&self) -> &'static str {
        "NullLB"
    }

    fn decide(&self, _stats: &LbStats) -> Vec<Migration> {
        Vec::new()
    }
}

/// Largest-task-first onto the least-loaded PE. Ignores current placement
/// (may migrate heavily); excellent final balance.
#[derive(Debug, Default, Clone, Copy)]
pub struct GreedyLb;

#[derive(PartialEq)]
struct MinPe(f64, usize);
impl Eq for MinPe {}
impl Ord for MinPe {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: BinaryHeap is a max-heap; we want the least-loaded PE.
        other
            .0
            .partial_cmp(&self.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| other.1.cmp(&self.1))
    }
}
impl PartialOrd for MinPe {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl LbStrategy for GreedyLb {
    fn name(&self) -> &'static str {
        "GreedyLB"
    }

    fn decide(&self, stats: &LbStats) -> Vec<Migration> {
        if stats.num_pes == 0 {
            return Vec::new();
        }
        let mut heap: BinaryHeap<MinPe> = (0..stats.num_pes)
            .map(|p| MinPe(stats.background.get(p).copied().unwrap_or(0.0), p))
            .collect();
        // Non-migratable objects stay put and count as background.
        let mut pinned = vec![0.0; stats.num_pes];
        for o in stats.objs.iter().filter(|o| !o.migratable) {
            pinned[o.pe] += o.load;
        }
        if pinned.iter().any(|&x| x > 0.0) {
            let mut rebuilt = BinaryHeap::new();
            for MinPe(l, p) in heap.drain() {
                rebuilt.push(MinPe(l + pinned[p], p));
            }
            heap = rebuilt;
        }
        let mut movable: Vec<&ObjLoad> = stats.objs.iter().filter(|o| o.migratable).collect();
        movable.sort_by(|a, b| {
            b.load
                .partial_cmp(&a.load)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.id.cmp(&b.id))
        });
        let mut migs = Vec::new();
        for o in movable {
            let MinPe(l, p) = heap.pop().expect("num_pes > 0");
            heap.push(MinPe(l + o.load, p));
            if p != o.pe {
                migs.push(Migration {
                    obj: o.id,
                    from: o.pe,
                    to: p,
                });
            }
        }
        migs
    }
}

/// Move objects off overloaded PEs until `max <= tolerance * avg`, taking
/// the smallest object that fixes each overload first — few migrations.
#[derive(Debug, Clone, Copy)]
pub struct RefineLb {
    /// Overload tolerance (e.g. 1.05 = within 5% of average).
    pub tolerance: f64,
}

impl Default for RefineLb {
    fn default() -> Self {
        RefineLb { tolerance: 1.05 }
    }
}

impl LbStrategy for RefineLb {
    fn name(&self) -> &'static str {
        "RefineLB"
    }

    fn decide(&self, stats: &LbStats) -> Vec<Migration> {
        if stats.num_pes == 0 || stats.objs.is_empty() {
            return Vec::new();
        }
        let mut loads = stats.pe_loads();
        let avg: f64 = loads.iter().sum::<f64>() / loads.len() as f64;
        let limit = self.tolerance * avg;
        // Mutable view of placements.
        let mut place: Vec<(usize, &ObjLoad)> =
            stats.objs.iter().map(|o| (o.pe, o)).collect();
        let mut migs: Vec<Migration> = Vec::new();
        for _round in 0..stats.objs.len() {
            let (donor, &dload) = loads
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .expect("non-empty");
            if dload <= limit {
                break;
            }
            let (recipient, &rload) = loads
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .expect("non-empty");
            // The smallest migratable object on the donor whose move helps;
            // an object moves at most once per decision round (its `from`
            // must remain its real current location).
            let moved: IdSet<u64> =
                migs.iter().map(|m| m.obj).collect();
            let candidate = place
                .iter_mut()
                .filter(|(pe, o)| *pe == donor && o.migratable && !moved.contains(&o.id))
                .min_by(|a, b| {
                    a.1.load
                        .partial_cmp(&b.1.load)
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
            let Some(slot) = candidate else { break };
            // Moving must not just swap the overload to the recipient.
            if rload + slot.1.load >= dload {
                break;
            }
            loads[donor] -= slot.1.load;
            loads[recipient] += slot.1.load;
            migs.push(Migration {
                obj: slot.1.id,
                from: donor,
                to: recipient,
            });
            slot.0 = recipient;
        }
        migs
    }
}

/// Shift every migratable object to the next PE. Terrible balancing,
/// great migration-machinery exercise.
#[derive(Debug, Default, Clone, Copy)]
pub struct RotateLb;

impl LbStrategy for RotateLb {
    fn name(&self) -> &'static str {
        "RotateLB"
    }

    fn decide(&self, stats: &LbStats) -> Vec<Migration> {
        if stats.num_pes < 2 {
            return Vec::new();
        }
        stats
            .objs
            .iter()
            .filter(|o| o.migratable)
            .map(|o| Migration {
                obj: o.id,
                from: o.pe,
                to: (o.pe + 1) % stats.num_pes,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(num_pes: usize, loads: &[(u64, usize, f64)]) -> LbStats {
        LbStats {
            num_pes,
            objs: loads
                .iter()
                .map(|&(id, pe, load)| ObjLoad {
                    id,
                    pe,
                    load,
                    migratable: true,
                })
                .collect(),
            background: Vec::new(),
        }
    }

    #[test]
    fn imbalance_metric() {
        let s = stats(2, &[(0, 0, 3.0), (1, 0, 1.0)]);
        assert_eq!(s.pe_loads(), vec![4.0, 0.0]);
        assert_eq!(s.imbalance(), 2.0);
        let balanced = stats(2, &[(0, 0, 2.0), (1, 1, 2.0)]);
        assert!((balanced.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn null_does_nothing() {
        let s = stats(4, &[(0, 0, 10.0), (1, 0, 10.0)]);
        assert!(NullLb.decide(&s).is_empty());
    }

    #[test]
    fn greedy_balances_skewed_load() {
        // 8 objects all on PE0 of 4 PEs.
        let objs: Vec<_> = (0..8).map(|i| (i as u64, 0usize, 1.0 + i as f64)).collect();
        let s = stats(4, &objs);
        let migs = GreedyLb.decide(&s);
        let after = s.loads_after(&migs);
        let max = after.iter().cloned().fold(0.0, f64::max);
        let avg: f64 = after.iter().sum::<f64>() / 4.0;
        assert!(max / avg < 1.35, "greedy should land near balance: {after:?}");
        // Every decision is valid.
        for m in &migs {
            assert!(m.to < 4);
            assert_ne!(m.from, m.to);
        }
    }

    #[test]
    fn greedy_respects_pins() {
        let mut s = stats(2, &[(0, 0, 100.0), (1, 0, 1.0), (2, 0, 1.0)]);
        s.objs[0].migratable = false; // the whale is pinned on PE0
        let migs = GreedyLb.decide(&s);
        assert!(migs.iter().all(|m| m.obj != 0), "pinned object never moves");
        let after = s.loads_after(&migs);
        assert_eq!(after[1], 2.0, "both minnows flee to PE1");
    }

    #[test]
    fn refine_moves_little_when_nearly_balanced() {
        let s = stats(
            2,
            &[(0, 0, 5.0), (1, 0, 5.1), (2, 1, 5.0), (3, 1, 5.05)],
        );
        let migs = RefineLb::default().decide(&s);
        assert!(migs.is_empty(), "within tolerance: {migs:?}");
    }

    #[test]
    fn refine_fixes_hotspot_with_few_moves() {
        let mut objs: Vec<_> = (0..4u64).map(|i| (i, 0usize, 2.0)).collect();
        objs.extend((4..8u64).map(|i| (i, 1usize, 0.5)));
        let s = stats(2, &objs);
        let migs = RefineLb { tolerance: 1.1 }.decide(&s);
        assert!(!migs.is_empty());
        assert!(
            migs.len() <= 2,
            "refine should fix this with at most 2 moves: {migs:?}"
        );
        let after = s.loads_after(&migs);
        let avg: f64 = after.iter().sum::<f64>() / 2.0;
        let max = after.iter().cloned().fold(0.0, f64::max);
        assert!(max / avg <= 1.25, "{after:?}");
    }

    #[test]
    fn rotate_shifts_everything() {
        let s = stats(3, &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)]);
        let migs = RotateLb.decide(&s);
        assert_eq!(migs.len(), 3);
        assert!(migs.iter().all(|m| m.to == (m.from + 1) % 3));
        // Single PE: nowhere to rotate.
        let s1 = stats(1, &[(0, 0, 1.0)]);
        assert!(RotateLb.decide(&s1).is_empty());
    }

    #[test]
    fn loads_after_matches_linear_scan() {
        // The indexed implementation must agree with the obvious
        // quadratic one, including unknown object ids (ignored).
        let objs: Vec<_> = (0..50u64).map(|i| (i, (i % 4) as usize, 0.5 + i as f64)).collect();
        let s = stats(4, &objs);
        let migs: Vec<Migration> = (0..50u64)
            .step_by(3)
            .map(|i| Migration {
                obj: i,
                from: (i % 4) as usize,
                to: ((i + 1) % 4) as usize,
            })
            .chain(std::iter::once(Migration {
                obj: 999, // unknown id: must be ignored, not panic
                from: 0,
                to: 1,
            }))
            .collect();
        let fast = s.loads_after(&migs);
        let mut slow = s.pe_loads();
        for m in &migs {
            if let Some(o) = s.objs.iter().find(|o| o.id == m.obj) {
                slow[m.from] -= o.load;
                slow[m.to] += o.load;
            }
        }
        for (a, b) in fast.iter().zip(&slow) {
            assert!((a - b).abs() < 1e-9, "{fast:?} vs {slow:?}");
        }
    }

    #[test]
    fn empty_machine_and_empty_objs_are_fine() {
        for strat in [&GreedyLb as &dyn LbStrategy, &RefineLb::default(), &RotateLb] {
            let s = LbStats {
                num_pes: 3,
                objs: Vec::new(),
                background: Vec::new(),
            };
            assert!(strat.decide(&s).is_empty(), "{}", strat.name());
        }
    }
}
