//! Sequence-numbered flood deduplication.
//!
//! Robot location updates in the distributed algorithms are flooded:
//! "a sensor may receive the same update message multiple times, but it
//! relays the message to its neighbors only once. This is achieved by
//! remembering the sequence number of the robot location updates it has
//! relayed before" (paper §3.2).

use robonet_des::NodeId;

/// Per-origin highest-sequence-number bookkeeping for flooded messages.
///
/// Sequence numbers per origin are strictly increasing, so "newer than
/// anything seen" doubles as "not a duplicate" *and* as staleness
/// filtering: an out-of-order older location update is useless and is
/// treated as already seen.
///
/// The table is a dense window indexed by origin id: the origins a
/// sensor hears from are the robots, whose ids are contiguous, so the
/// flood-relay hot path (`accept`) is one array load and one compare.
/// Origins far outside the window (more than 65 536 ids apart) fall
/// back to a small sorted spill vector.
#[derive(Debug, Clone, Default)]
pub struct DedupTable {
    /// Origin id of `dense[0]`.
    base: u32,
    /// Per-origin record: `0` = never accepted, else `last_seq + 1`
    /// (widened to `u64` so `u32::MAX + 1` cannot collide).
    dense: Vec<u64>,
    /// `(origin, last_seq)` for origins outside the dense window.
    spill: Vec<(NodeId, u32)>,
}

/// Widest id span the dense window may cover before out-of-range
/// origins spill to the sorted fallback (bounds worst-case memory for
/// callers with pathological id spreads).
const MAX_DENSE_SPAN: usize = 1 << 16;

impl DedupTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        DedupTable::default()
    }

    /// Returns `true` — and records the sequence number — if `(origin,
    /// seq)` is fresh, i.e. strictly newer than anything previously
    /// accepted from `origin`. Subsequent calls with the same or older
    /// `seq` return `false`.
    #[inline]
    pub fn accept(&mut self, origin: NodeId, seq: u32) -> bool {
        let i = origin.as_u32().wrapping_sub(self.base) as usize;
        if i < self.dense.len() {
            let v = &mut self.dense[i];
            if *v <= u64::from(seq) {
                *v = u64::from(seq) + 1;
                true
            } else {
                false
            }
        } else {
            self.accept_slow(origin, seq)
        }
    }

    /// Out-of-window accept: grow/rebase the dense window if the span
    /// allows, otherwise record in the sorted spill.
    fn accept_slow(&mut self, origin: NodeId, seq: u32) -> bool {
        let o = origin.as_u32();
        if self.dense.is_empty() {
            self.base = o;
            self.dense.push(0);
        } else if o < self.base {
            let shift = (self.base - o) as usize;
            if shift + self.dense.len() <= MAX_DENSE_SPAN {
                self.dense.splice(0..0, std::iter::repeat_n(0, shift));
                self.base = o;
            }
        } else {
            let need = (o - self.base) as usize + 1;
            if need <= MAX_DENSE_SPAN {
                self.dense.resize(need, 0);
            }
        }
        let i = o.wrapping_sub(self.base) as usize;
        if i < self.dense.len() {
            // The window moved: pull in any spill records it now covers
            // so each origin stays recorded in exactly one place.
            let base = self.base;
            let dense = &mut self.dense;
            self.spill.retain(|&(id, last)| {
                let j = id.as_u32().wrapping_sub(base) as usize;
                if j < dense.len() {
                    dense[j] = u64::from(last) + 1;
                    false
                } else {
                    true
                }
            });
            let v = &mut self.dense[i];
            if *v <= u64::from(seq) {
                *v = u64::from(seq) + 1;
                return true;
            }
            return false;
        }
        match self.spill.binary_search_by_key(&origin, |&(id, _)| id) {
            Ok(j) => {
                if self.spill[j].1 >= seq {
                    false
                } else {
                    self.spill[j].1 = seq;
                    true
                }
            }
            Err(j) => {
                self.spill.insert(j, (origin, seq));
                true
            }
        }
    }

    /// Highest recorded sequence for `origin`, `None` if unseen.
    fn lookup(&self, origin: NodeId) -> Option<u32> {
        let i = origin.as_u32().wrapping_sub(self.base) as usize;
        if i < self.dense.len() {
            let v = self.dense[i];
            return (v > 0).then(|| (v - 1) as u32);
        }
        self.spill
            .binary_search_by_key(&origin, |&(id, _)| id)
            .ok()
            .map(|j| self.spill[j].1)
    }

    /// Peeks without recording: would `(origin, seq)` be accepted?
    pub fn is_fresh(&self, origin: NodeId, seq: u32) -> bool {
        match self.lookup(origin) {
            Some(last) => last < seq,
            None => true,
        }
    }

    /// Highest sequence number accepted from `origin`, if any.
    pub fn last_seq(&self, origin: NodeId) -> Option<u32> {
        self.lookup(origin)
    }

    /// Forgets all state (e.g. when a replaced sensor node boots fresh).
    pub fn clear(&mut self) {
        self.dense.clear();
        self.spill.clear();
        self.base = 0;
    }
}

/// A monotonically increasing per-node sequence-number source for
/// originating flooded messages.
#[derive(Debug, Clone, Copy, Default)]
pub struct SeqSource {
    next: u32,
}

impl SeqSource {
    /// Creates a source starting at sequence number 1.
    pub fn new() -> Self {
        SeqSource { next: 0 }
    }

    /// Returns the next sequence number (1, 2, 3, ...).
    pub fn next_seq(&mut self) -> u32 {
        self.next += 1;
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn first_sighting_accepted_duplicates_rejected() {
        let mut t = DedupTable::new();
        assert!(t.accept(n(1), 1));
        assert!(!t.accept(n(1), 1), "exact duplicate");
        assert!(t.accept(n(1), 2));
        assert!(!t.accept(n(1), 1), "older than accepted");
    }

    #[test]
    fn origins_are_independent() {
        let mut t = DedupTable::new();
        assert!(t.accept(n(1), 5));
        assert!(t.accept(n(2), 5));
        assert_eq!(t.last_seq(n(1)), Some(5));
        assert_eq!(t.last_seq(n(3)), None);
    }

    #[test]
    fn is_fresh_does_not_record() {
        let mut t = DedupTable::new();
        assert!(t.is_fresh(n(1), 3));
        assert!(t.is_fresh(n(1), 3), "peeking twice stays fresh");
        assert!(t.accept(n(1), 3));
        assert!(!t.is_fresh(n(1), 3));
        assert!(t.is_fresh(n(1), 4));
    }

    #[test]
    fn clear_resets() {
        let mut t = DedupTable::new();
        t.accept(n(1), 9);
        t.clear();
        assert!(
            t.accept(n(1), 1),
            "post-clear, old sequence numbers accepted"
        );
    }

    #[test]
    fn window_rebase_and_far_spill() {
        let mut t = DedupTable::new();
        // First origin anchors the dense window high...
        assert!(t.accept(n(5000), 3));
        // ...a lower id forces a front rebase...
        assert!(t.accept(n(4900), 7));
        assert!(!t.accept(n(4900), 7));
        assert_eq!(t.last_seq(n(5000)), Some(3));
        // ...and an id billions away spills without exploding memory.
        let far = n(u32::MAX);
        assert!(t.accept(far, 1));
        assert!(!t.accept(far, 1));
        assert_eq!(t.last_seq(far), Some(1));
        assert!(t.is_fresh(far, 2));
        // Dense entries are unaffected by spill traffic.
        assert!(!t.is_fresh(n(4900), 7));
        t.clear();
        assert!(t.accept(far, 1));
        assert!(t.accept(n(0), 1));
    }

    #[test]
    fn spill_migrates_into_grown_window() {
        let mut t = DedupTable::new();
        // Anchor at 0, spill an origin beyond the max span...
        assert!(t.accept(n(0), 2));
        let outside = n(70_000);
        assert!(t.accept(outside, 9));
        // ...then rebuild state from a fresh table anchored near the
        // spilled origin: a later low id must re-cover it exactly once.
        let mut t2 = DedupTable::new();
        assert!(t2.accept(outside, 9));
        assert!(t2.accept(n(69_000), 1));
        assert!(!t2.accept(outside, 9), "migrated record survives rebase");
        assert_eq!(t2.last_seq(outside), Some(9));
        assert!(!t.is_fresh(outside, 9));
    }

    #[test]
    fn seq_zero_round_trips() {
        let mut t = DedupTable::new();
        assert!(t.is_fresh(n(1), 0));
        assert!(t.accept(n(1), 0));
        assert!(!t.accept(n(1), 0));
        assert_eq!(t.last_seq(n(1)), Some(0));
        assert!(t.accept(n(1), u32::MAX));
        assert!(!t.accept(n(1), u32::MAX));
        assert_eq!(t.last_seq(n(1)), Some(u32::MAX));
    }

    #[test]
    fn seq_source_monotonic() {
        let mut s = SeqSource::new();
        let a = s.next_seq();
        let b = s.next_seq();
        let c = s.next_seq();
        assert_eq!((a, b, c), (1, 2, 3));
    }

    #[test]
    fn flood_simulation_each_node_relays_once() {
        // 10 nodes all hearing each other: origin floods seq 1; every
        // node accepts once no matter how many copies arrive.
        let mut tables: Vec<DedupTable> = (0..10).map(|_| DedupTable::new()).collect();
        let origin = n(0);
        let mut relays = 0;
        for _copy in 0..5 {
            for t in tables.iter_mut() {
                if t.accept(origin, 1) {
                    relays += 1;
                }
            }
        }
        assert_eq!(relays, 10);
    }
}
