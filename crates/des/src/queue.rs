//! A stable time-ordered event queue backed by a hierarchical timer wheel.
//!
//! # Layout
//!
//! Simulated time is bucketed into *ticks* of `2^20` ns (~1.05 ms). The
//! queue keeps a cursor tick `C` and four stores, ordered by distance
//! from the cursor:
//!
//! - **front**: every pending event with `tick <= C`, kept sorted by
//!   `(time, seq)`. The head of the front is always the next event to
//!   pop, which is what makes [`peek_time`](EventQueue::peek_time),
//!   [`is_empty`](EventQueue::is_empty) and [`len`](EventQueue::len)
//!   `&self` and O(1).
//! - **lane 0**: 2048 buckets of one tick each (~2.1 s of span), indexed
//!   by `tick % 2048`. Within the live span `(C, C + 2048]` the mapping
//!   is injective, so a bucket never mixes ticks.
//! - **lane 1**: 512 buckets of 256 ticks each (~137 s of span), indexed
//!   by `(tick >> 8) % 512`; same injectivity argument on coarse ticks.
//! - **overflow**: a binary min-heap for everything beyond lane 1.
//!
//! Scheduling is O(1) for anything landing in the wheel (the common
//! case: MAC backoffs, beacon periods, retry timers) and O(log n) for
//! the overflow heap. Advancing the cursor drains the earliest nonempty
//! bucket into the front; lane-1 buckets cascade through lane 0 and
//! overflow entries are promoted into the lanes as the cursor approaches
//! them, so every event is touched a bounded number of times.
//!
//! Each lane keeps an occupancy bitmap, one bit per bucket (32 words
//! for lane 0, 8 for lane 1), set while the bucket is nonempty
//! (tombstones included). Advancing the cursor finds the next occupied
//! lane-0 tick and the next occupied lane-1 boundary with
//! `trailing_zeros` instead of testing buckets one by one, so a sparse
//! wheel — events hundreds of ticks apart — costs a few word scans per
//! pop rather than hundreds of empty-bucket tests. It visits the same
//! buckets in the same order, and cascades at the same boundaries, as a
//! tick-by-tick scan would.
//!
//! # Cancellation
//!
//! Events live in a slab of generation-counted slots; an [`EventKey`] is
//! a `(slot, generation)` pair. Cancelling frees the slot and bumps the
//! generation in O(1); the `(time, seq, slot, generation)` reference left
//! behind in a lane or the overflow heap becomes a tombstone that is
//! recognised (by generation mismatch) and dropped when its bucket is
//! drained. The front is kept tombstone-free so its head is always live.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// Nanoseconds-to-tick shift: one tick is `2^20` ns ~= 1.05 ms.
const TICK_SHIFT: u32 = 20;
/// Lane-0 bucket count (one tick per bucket); power of two.
const LANE0_BUCKETS: u64 = 2048;
/// Ticks per lane-1 bucket as a shift: `2^8` = 256 ticks ~= 268 ms.
const COARSE_SHIFT: u32 = 8;
/// Lane-1 bucket count (256 ticks per bucket); power of two.
const LANE1_BUCKETS: u64 = 512;

fn tick_of(time: SimTime) -> u64 {
    time.as_nanos() >> TICK_SHIFT
}

/// One bit per lane bucket, set while the bucket is nonempty.
#[derive(Clone, Copy)]
struct Occupancy<const WORDS: usize>([u64; WORDS]);

impl<const WORDS: usize> Occupancy<WORDS> {
    const EMPTY: Self = Occupancy([0; WORDS]);

    fn set(&mut self, bucket: usize) {
        self.0[bucket / 64] |= 1 << (bucket % 64);
    }

    fn clear(&mut self, bucket: usize) {
        self.0[bucket / 64] &= !(1 << (bucket % 64));
    }

    /// Circular distance from bucket `from` to the first occupied bucket
    /// at or after it (wrapping past the last bucket), or `None` when
    /// every bucket is empty.
    fn distance_to_next(&self, from: usize) -> Option<u64> {
        let buckets = WORDS * 64;
        let (w0, b0) = (from / 64, from % 64);
        // The start word's bits at or after `from`, then the following
        // words, then — last — the start word's bits before `from`.
        for k in 0..=WORDS {
            let w = (w0 + k) % WORDS;
            let word = match k {
                0 => self.0[w] & (!0 << b0),
                _ if k == WORDS => self.0[w] & !(!0 << b0),
                _ => self.0[w],
            };
            if word != 0 {
                let bucket = w * 64 + word.trailing_zeros() as usize;
                return Some(((bucket + buckets - from) % buckets) as u64);
            }
        }
        None
    }
}

/// Handle returned by [`EventQueue::schedule`], usable to cancel the event
/// before it fires.
///
/// Packs the slab slot and its generation; a key whose generation no
/// longer matches the slot (the event fired, was cancelled, or the slot
/// was reused) cancels nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventKey(u64);

impl EventKey {
    fn pack(slot: u32, generation: u32) -> Self {
        EventKey((u64::from(slot) << 32) | u64::from(generation))
    }

    fn slot(self) -> u32 {
        (self.0 >> 32) as u32
    }

    fn generation(self) -> u32 {
        self.0 as u32
    }
}

/// One slab slot: the event payload plus the metadata needed to locate
/// and validate the wheel's references to it.
struct Slot<E> {
    generation: u32,
    time: SimTime,
    seq: u64,
    event: Option<E>,
}

/// A reference to a slot, stored in the front, a lane bucket, or the
/// overflow heap. Carries `(time, seq)` so ordering never has to chase
/// the slab, and the generation so tombstones are self-identifying.
#[derive(Clone, Copy)]
struct EntryRef {
    time: SimTime,
    seq: u64,
    slot: u32,
    generation: u32,
}

impl EntryRef {
    fn order_key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// Occupancy statistics of the timer wheel, for profiling only.
///
/// High-water marks count resident entries per store (including
/// tombstones for the lanes and the overflow heap); promotions count
/// overflow entries re-filed into the lanes as the cursor approached
/// them. Diagnostic data — never feed it back into simulation
/// behaviour or deterministic result types.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WheelStats {
    /// Peak entries resident in the sorted front.
    pub front_high_water: usize,
    /// Peak entries resident across lane-0 buckets (one tick each).
    pub lane0_high_water: usize,
    /// Peak entries resident across lane-1 buckets (256 ticks each).
    pub lane1_high_water: usize,
    /// Peak entries resident in the overflow heap.
    pub overflow_high_water: usize,
    /// Overflow entries promoted into the wheel lanes.
    pub overflow_promotions: u64,
}

/// A time-ordered event queue.
///
/// Events scheduled for the same instant pop in the order they were
/// scheduled (FIFO), which makes simulations deterministic regardless of
/// wheel internals. Cancellation is O(1): the slot is freed immediately
/// and any reference still queued becomes a tombstone dropped when its
/// bucket drains.
///
/// # Example
///
/// ```
/// use robonet_des::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// let key = q.schedule(SimTime::from_secs(5.0), "timeout");
/// q.schedule(SimTime::from_secs(1.0), "beacon");
/// q.cancel(key);
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1.0), "beacon")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    /// Every pending event with `tick <= cursor`, ascending `(time, seq)`.
    /// Invariant: nonempty whenever `live > 0`, and tombstone-free.
    front: VecDeque<EntryRef>,
    lane0: Vec<Vec<EntryRef>>,
    lane1: Vec<Vec<EntryRef>>,
    /// Which lane-0 / lane-1 buckets are nonempty.
    lane0_occ: Occupancy<{ LANE0_BUCKETS as usize / 64 }>,
    lane1_occ: Occupancy<{ LANE1_BUCKETS as usize / 64 }>,
    overflow: BinaryHeap<Reverse<(SimTime, u64, u32, u32)>>,
    /// Current tick `C`; lane and overflow entries all have `tick > C`.
    cursor: u64,
    /// Entries resident in lane 0 / lane 1, tombstones included.
    lane0_len: usize,
    lane1_len: usize,
    /// Pending (scheduled, not yet popped or cancelled) events.
    live: usize,
    next_seq: u64,
    popped: u64,
    high_water: usize,
    stats: WheelStats,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with slab room for `capacity` pending events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            front: VecDeque::new(),
            lane0: (0..LANE0_BUCKETS).map(|_| Vec::new()).collect(),
            lane1: (0..LANE1_BUCKETS).map(|_| Vec::new()).collect(),
            lane0_occ: Occupancy::EMPTY,
            lane1_occ: Occupancy::EMPTY,
            overflow: BinaryHeap::new(),
            cursor: 0,
            lane0_len: 0,
            lane1_len: 0,
            live: 0,
            next_seq: 0,
            popped: 0,
            high_water: 0,
            stats: WheelStats::default(),
        }
    }

    /// Schedules `event` to fire at `time`, returning a key that can cancel
    /// it.
    pub fn schedule(&mut self, time: SimTime, event: E) -> EventKey {
        let seq = self.next_seq;
        self.next_seq += 1;
        let (slot, generation) = match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                s.time = time;
                s.seq = seq;
                s.event = Some(event);
                (slot, s.generation)
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("< 2^32 slots");
                self.slots.push(Slot {
                    generation: 0,
                    time,
                    seq,
                    event: Some(event),
                });
                (slot, 0)
            }
        };
        self.live += 1;
        if self.live > self.high_water {
            self.high_water = self.live;
        }
        self.place(EntryRef {
            time,
            seq,
            slot,
            generation,
        });
        if self.front.is_empty() {
            // Only possible when the queue was empty: the invariant says a
            // nonempty front whenever anything was already live.
            self.refill_front();
        }
        EventKey::pack(slot, generation)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending. Cancelling an already
    /// fired or already cancelled event returns `false` and is harmless.
    pub fn cancel(&mut self, key: EventKey) -> bool {
        let Some(s) = self.slots.get_mut(key.slot() as usize) else {
            return false;
        };
        if s.generation != key.generation() || s.event.is_none() {
            return false;
        }
        s.event = None;
        s.generation = s.generation.wrapping_add(1);
        let (time, seq) = (s.time, s.seq);
        self.free.push(key.slot());
        self.live -= 1;
        if tick_of(time) <= self.cursor {
            // Live entries at or behind the cursor are in the front, which
            // must stay tombstone-free: remove it now.
            let i = self.front.partition_point(|e| e.order_key() < (time, seq));
            debug_assert!(self.front[i].seq == seq, "front entry out of place");
            self.front.remove(i);
            if self.front.is_empty() && self.live > 0 {
                self.refill_front();
            }
        }
        true
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let e = self.front.pop_front()?;
        let s = &mut self.slots[e.slot as usize];
        debug_assert_eq!(s.generation, e.generation, "front tombstone");
        let event = s.event.take().expect("front entries are live");
        s.generation = s.generation.wrapping_add(1);
        self.free.push(e.slot);
        self.live -= 1;
        self.popped += 1;
        if self.front.is_empty() && self.live > 0 {
            self.refill_front();
        }
        Some((e.time, event))
    }

    /// Returns the time of the earliest pending event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.front.front().map(|e| e.time)
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Exact number of pending (scheduled, not yet fired or cancelled)
    /// events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Total number of events popped so far (simulation statistics).
    pub fn popped_count(&self) -> u64 {
        self.popped
    }

    /// Largest number of pending events ever queued at once — the queue's
    /// occupancy high-water mark.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Timer-wheel occupancy statistics (profiling only).
    pub fn wheel_stats(&self) -> WheelStats {
        self.stats
    }

    /// Files an entry into the store matching its distance from the
    /// cursor. Entries at or behind the cursor join the sorted front.
    fn place(&mut self, e: EntryRef) {
        let tick = tick_of(e.time);
        if tick <= self.cursor {
            let i = self
                .front
                .partition_point(|x| x.order_key() < e.order_key());
            self.front.insert(i, e);
            if self.front.len() > self.stats.front_high_water {
                self.stats.front_high_water = self.front.len();
            }
        } else if tick - self.cursor <= LANE0_BUCKETS {
            self.push_lane0(tick, e);
            if self.lane0_len > self.stats.lane0_high_water {
                self.stats.lane0_high_water = self.lane0_len;
            }
        } else if (tick >> COARSE_SHIFT) - (self.cursor >> COARSE_SHIFT) <= LANE1_BUCKETS {
            let b = ((tick >> COARSE_SHIFT) & (LANE1_BUCKETS - 1)) as usize;
            self.lane1[b].push(e);
            self.lane1_occ.set(b);
            self.lane1_len += 1;
            if self.lane1_len > self.stats.lane1_high_water {
                self.stats.lane1_high_water = self.lane1_len;
            }
        } else {
            self.overflow
                .push(Reverse((e.time, e.seq, e.slot, e.generation)));
            if self.overflow.len() > self.stats.overflow_high_water {
                self.stats.overflow_high_water = self.overflow.len();
            }
        }
    }

    /// Files `e`, whose tick is `tick`, into its lane-0 bucket.
    fn push_lane0(&mut self, tick: u64, e: EntryRef) {
        let b = (tick & (LANE0_BUCKETS - 1)) as usize;
        self.lane0[b].push(e);
        self.lane0_occ.set(b);
        self.lane0_len += 1;
    }

    /// The earliest tick at or after `t` whose lane-0 bucket is nonempty
    /// (at most one span ahead), or `None` when lane 0 is empty.
    fn next_lane0_tick(&self, t: u64) -> Option<u64> {
        let from = (t & (LANE0_BUCKETS - 1)) as usize;
        self.lane0_occ.distance_to_next(from).map(|d| t + d)
    }

    /// The earliest coarse tick at or after `ct` whose lane-1 bucket is
    /// nonempty, or `None` when lane 1 is empty.
    fn next_lane1_coarse(&self, ct: u64) -> Option<u64> {
        let from = (ct & (LANE1_BUCKETS - 1)) as usize;
        self.lane1_occ.distance_to_next(from).map(|d| ct + d)
    }

    fn is_live(slots: &[Slot<E>], e: &EntryRef) -> bool {
        let s = &slots[e.slot as usize];
        s.generation == e.generation && s.event.is_some()
    }

    /// Moves overflow entries whose coarse tick now fits lane 1 into the
    /// wheel, dropping tombstones encountered at the top of the heap.
    fn promote_overflow(&mut self) {
        let coarse_cursor = self.cursor >> COARSE_SHIFT;
        while let Some(&Reverse((time, seq, slot, generation))) = self.overflow.peek() {
            let e = EntryRef {
                time,
                seq,
                slot,
                generation,
            };
            if !Self::is_live(&self.slots, &e) {
                self.overflow.pop();
                continue;
            }
            if (tick_of(time) >> COARSE_SHIFT) - coarse_cursor > LANE1_BUCKETS {
                break;
            }
            self.overflow.pop();
            self.place(e);
            self.stats.overflow_promotions += 1;
        }
    }

    /// Cascades one lane-1 bucket's live entries straight into lane 0,
    /// dropping its tombstones.
    ///
    /// Cascaded entries can land up to 255 ticks past the lane-0 span
    /// (when the cursor is near the span's far edge), so lane-0 buckets
    /// may transiently hold two rounds; the scan in
    /// [`refill_front`](Self::refill_front) partitions by tick to cope.
    fn cascade_lane1(&mut self, ct: u64) {
        let b = (ct & (LANE1_BUCKETS - 1)) as usize;
        let mut bucket = std::mem::take(&mut self.lane1[b]);
        self.lane1_occ.clear(b);
        self.lane1_len -= bucket.len();
        for e in bucket.drain(..) {
            if Self::is_live(&self.slots, &e) {
                let tick = tick_of(e.time);
                debug_assert_eq!(tick >> COARSE_SHIFT, ct, "lane-1 bucket mixed coarse ticks");
                self.push_lane0(tick, e);
            }
        }
        if self.lane0_len > self.stats.lane0_high_water {
            self.stats.lane0_high_water = self.lane0_len;
        }
        self.lane1[b] = bucket; // keep the allocation
    }

    /// Advances the cursor to the next tick holding live events and fills
    /// the front with them, restoring the front invariant.
    ///
    /// Must only be called with an empty front and `live > 0`; the loop
    /// terminates because every pass either fills the front, strictly
    /// shrinks the lanes/overflow, or strictly advances the cursor (and
    /// something live exists somewhere ahead of it).
    fn refill_front(&mut self) {
        debug_assert!(self.front.is_empty() && self.live > 0);
        const COARSE_MASK: u64 = (1 << COARSE_SHIFT) - 1;
        'scan: loop {
            // Pull anything newly in range first, so an old overflow entry
            // can never be outrun by the cursor chasing a later lane entry.
            self.promote_overflow();
            if self.lane0_len > 0 || self.lane1_len > 0 {
                // Visit, in tick order over the span (C, C + 2048], each
                // nonempty lane-0 bucket and each coarse boundary whose
                // lane-1 bucket is nonempty; a boundary cascades before
                // any tick inside it is looked at.
                let span_end = self.cursor + LANE0_BUCKETS;
                let mut t = self.cursor + 1;
                loop {
                    let tick = self.next_lane0_tick(t).filter(|&x| x <= span_end);
                    let boundary = self
                        .next_lane1_coarse((t + COARSE_MASK) >> COARSE_SHIFT)
                        .map(|ct| ct << COARSE_SHIFT)
                        .filter(|&b| b <= span_end);
                    t = match (tick, boundary) {
                        (None, None) => break,
                        (Some(x), Some(b)) if x < b => x,
                        (_, Some(b)) => {
                            // Entering a new coarse bucket: cascade its
                            // lane-1 entries, then look at its ticks.
                            self.cascade_lane1(b >> COARSE_SHIFT);
                            t = b;
                            continue;
                        }
                        (Some(x), None) => x,
                    };
                    // Move this tick's entries to the front; a later round
                    // sharing the bucket (tick ≡ t mod 2048) stays behind.
                    let b = (t & (LANE0_BUCKETS - 1)) as usize;
                    let mut bucket = std::mem::take(&mut self.lane0[b]);
                    self.lane0_len -= bucket.len();
                    let front = &mut self.front;
                    let slots = &self.slots;
                    bucket.retain(|e| {
                        if tick_of(e.time) != t {
                            return true;
                        }
                        if Self::is_live(slots, e) {
                            front.push_back(*e);
                        }
                        false
                    });
                    self.lane0_len += bucket.len();
                    if bucket.is_empty() {
                        self.lane0_occ.clear(b);
                    }
                    self.lane0[b] = bucket;
                    self.cursor = t;
                    if self.front.is_empty() {
                        continue 'scan; // only tombstones or a later round
                    }
                    self.front
                        .make_contiguous()
                        .sort_unstable_by_key(|e| e.order_key());
                    if self.front.len() > self.stats.front_high_water {
                        self.stats.front_high_water = self.front.len();
                    }
                    return;
                }
                if self.lane0_len > 0 {
                    // Everything resident in lane 0 is a later round
                    // beyond the span; advance a full span and rescan.
                    self.cursor += LANE0_BUCKETS;
                    continue 'scan;
                }
                // Only lane 1 remains: fall through to the coarse scan.
            }
            if self.lane1_len > 0 {
                // Park the cursor just before the first nonempty coarse
                // bucket and cascade it into lane 0.
                let ct = self
                    .next_lane1_coarse((self.cursor >> COARSE_SHIFT) + 1)
                    .expect("lane 1 occupied but its bitmap is empty");
                self.cursor = (ct << COARSE_SHIFT) - 1;
                self.cascade_lane1(ct);
                continue 'scan;
            }
            // Both lanes empty: jump to the earliest live overflow entry.
            while let Some(Reverse((time, seq, slot, generation))) = self.overflow.pop() {
                let e = EntryRef {
                    time,
                    seq,
                    slot,
                    generation,
                };
                if !Self::is_live(&self.slots, &e) {
                    continue;
                }
                // Overflow entries sit far beyond the wheel span, so the
                // tick is always large enough for the -1 park position.
                self.cursor = tick_of(time) - 1;
                self.place(e);
                self.stats.overflow_promotions += 1;
                continue 'scan;
            }
            unreachable!("live > 0 but front, lanes and overflow are all empty");
        }
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.live)
            .field("cursor_tick", &self.cursor)
            .field("front", &self.front.len())
            .field("lane0", &self.lane0_len)
            .field("lane1", &self.lane1_len)
            .field("overflow", &self.overflow.len())
            .field("popped", &self.popped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(3.0), 3);
        q.schedule(t(1.0), 1);
        q.schedule(t(2.0), 2);
        assert_eq!(q.pop(), Some((t(1.0), 1)));
        assert_eq!(q.pop(), Some((t(2.0), 2)));
        assert_eq!(q.pop(), Some((t(3.0), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(1.0), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(1.0), i)));
        }
    }

    #[test]
    fn cancellation_skips_events() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1.0), "a");
        let b = q.schedule(t(2.0), "b");
        q.schedule(t(3.0), "c");
        assert!(q.cancel(a));
        assert!(q.cancel(b));
        assert!(!q.cancel(b), "double-cancel is a no-op");
        assert_eq!(q.pop(), Some((t(3.0), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1.0), "a");
        assert_eq!(q.pop(), Some((t(1.0), "a")));
        // The event already fired; cancelling must not poison a future
        // event that could reuse internal storage.
        q.cancel(a);
        q.schedule(t(2.0), "b");
        assert_eq!(q.pop(), Some((t(2.0), "b")));
    }

    #[test]
    fn stale_key_cannot_cancel_a_reused_slot() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1.0), "a");
        assert!(q.cancel(a));
        // The slot is reused by "b"; the old key's generation is stale.
        let _b = q.schedule(t(2.0), "b");
        assert!(!q.cancel(a), "stale key must not cancel the new tenant");
        assert_eq!(q.pop(), Some((t(2.0), "b")));
    }

    #[test]
    fn peek_time_skips_cancelled_heads() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1.0), "a");
        q.schedule(t(2.0), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(2.0)));
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some((t(2.0), "b")));
        assert!(q.is_empty());
    }

    #[test]
    fn len_is_exact_under_cancellation() {
        let mut q = EventQueue::new();
        assert_eq!(q.len(), 0);
        let a = q.schedule(t(1.0), 1);
        q.schedule(t(200.0), 2); // far enough for the overflow heap
        q.schedule(t(3.0), 3);
        assert_eq!(q.len(), 3);
        q.cancel(a);
        assert_eq!(q.len(), 2, "cancelled events leave len immediately");
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn high_water_tracks_peak_occupancy() {
        let mut q = EventQueue::new();
        assert_eq!(q.high_water(), 0);
        q.schedule(t(1.0), 1);
        q.schedule(t(2.0), 2);
        q.schedule(t(3.0), 3);
        assert_eq!(q.high_water(), 3);
        q.pop();
        q.pop();
        q.schedule(t(4.0), 4);
        // Peak was 3; dropping to 2 must not lower the mark.
        assert_eq!(q.high_water(), 3);
    }

    #[test]
    fn popped_count_tracks_fired_events() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1.0), 1);
        q.schedule(t(2.0), 2);
        q.cancel(a);
        q.pop();
        assert_eq!(q.popped_count(), 1, "cancelled events do not count");
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(10.0), 10);
        assert_eq!(q.pop(), Some((t(10.0), 10)));
        q.schedule(t(5.0), 5);
        q.schedule(t(20.0), 20);
        assert_eq!(q.pop(), Some((t(5.0), 5)));
        q.schedule(t(1.0), 1);
        // 1.0 is in the "past" relative to the last pop; the queue itself
        // does not enforce causality (the Scheduler does), it just orders.
        assert_eq!(q.pop(), Some((t(1.0), 1)));
        assert_eq!(q.pop(), Some((t(20.0), 20)));
    }

    #[test]
    fn events_pop_in_order_across_every_store() {
        // One event per store: front (sub-tick), lane 0 (~1 s),
        // lane 1 (~60 s) and overflow (~500 s), scheduled shuffled.
        let mut q = EventQueue::new();
        q.schedule(t(500.0), "overflow");
        q.schedule(t(0.0001), "front");
        q.schedule(t(60.0), "lane1");
        q.schedule(t(1.0), "lane0");
        assert_eq!(q.pop().unwrap().1, "front");
        assert_eq!(q.pop().unwrap().1, "lane0");
        assert_eq!(q.pop().unwrap().1, "lane1");
        assert_eq!(q.pop().unwrap().1, "overflow");
        assert_eq!(q.pop(), None);
        assert!(q.wheel_stats().overflow_promotions >= 1);
    }

    #[test]
    fn overflow_entry_is_not_outrun_by_a_later_lane_entry() {
        // "far" starts beyond the wheel span (overflow). After the cursor
        // advances to 100 s it becomes wheel-eligible; a later-scheduled
        // lane-1 entry at 210 s must not pop before it.
        let mut q = EventQueue::new();
        q.schedule(t(200.0), "far");
        q.schedule(t(100.0), "mid");
        assert_eq!(q.pop().unwrap().1, "mid");
        q.schedule(t(210.0), "later");
        assert_eq!(q.pop().unwrap().1, "far");
        assert_eq!(q.pop().unwrap().1, "later");
    }

    #[test]
    fn past_events_sort_into_the_front() {
        let mut q = EventQueue::new();
        q.schedule(t(50.0), 50);
        assert_eq!(q.pop(), Some((t(50.0), 50)));
        // All in the past relative to the cursor, scheduled out of order.
        q.schedule(t(30.0), 30);
        q.schedule(t(10.0), 10);
        q.schedule(t(20.0), 20);
        assert_eq!(q.pop(), Some((t(10.0), 10)));
        assert_eq!(q.pop(), Some((t(20.0), 20)));
        assert_eq!(q.pop(), Some((t(30.0), 30)));
    }

    #[test]
    fn cancelling_the_whole_front_refills_from_the_lanes() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(0.0001), "now");
        q.schedule(t(5.0), "later");
        assert_eq!(q.peek_time(), Some(t(0.0001)));
        assert!(q.cancel(a));
        // The front refilled eagerly: peek is &self and must see 5.0.
        assert_eq!(q.peek_time(), Some(t(5.0)));
        assert_eq!(q.pop(), Some((t(5.0), "later")));
    }

    #[test]
    fn wheel_stats_track_lane_occupancy() {
        let mut q = EventQueue::new();
        q.schedule(t(0.0001), 0);
        q.schedule(t(1.0), 1);
        q.schedule(t(60.0), 2);
        q.schedule(t(500.0), 3);
        let s = q.wheel_stats();
        assert!(s.front_high_water >= 1);
        assert_eq!(s.lane0_high_water, 1);
        assert_eq!(s.lane1_high_water, 1);
        assert_eq!(s.overflow_high_water, 1);
        assert_eq!(s.overflow_promotions, 0);
        while q.pop().is_some() {}
        assert_eq!(q.wheel_stats().overflow_promotions, 1);
    }

    #[test]
    fn dense_same_tick_storm_stays_fifo() {
        // Many events inside one tick (sub-millisecond spread), popped
        // while more arrive: the sorted front must keep exact order.
        let mut q = EventQueue::new();
        for i in 0..50u64 {
            q.schedule(SimTime::from_nanos(1000 + (i % 7) * 100), i);
        }
        let mut out = Vec::new();
        while let Some((time, i)) = q.pop() {
            out.push((time.as_nanos(), i));
        }
        let mut expected: Vec<(u64, u64)> = (0..50).map(|i| (1000 + (i % 7) * 100, i)).collect();
        expected.sort();
        assert_eq!(out, expected);
    }
}
