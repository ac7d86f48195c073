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
//! Events live in a slab of slots. A lane bucket is a singly linked list
//! threaded through the slab: each lane is one flat array of bucket
//! heads, allocated with the queue, and each slot carries the index of
//! the next slot in its bucket. Filing an event into a bucket, cascading
//! a lane-1 bucket into lane 0 and draining a lane-0 bucket into the
//! front relink slots and allocate nothing. Within a bucket the order is
//! arbitrary: the front is sorted when a bucket drains into it.
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
//! (tombstones included), and a summary word with one bit per nonempty
//! bitmap word. Advancing the cursor finds the next occupied lane-0
//! tick and the next occupied lane-1 boundary with at most two
//! `trailing_zeros` each — one on the summary, one on the word it
//! names — instead of testing buckets or words one by one. It visits
//! the same buckets in the same order, and cascades at the same
//! boundaries, as a tick-by-tick scan would.
//!
//! The front refills eagerly: whenever it empties while events are
//! pending, the cursor advances to the next tick holding a live event.
//! That keeps `peek_time` `&self`, and it keeps a start-up burst (the
//! flow engine arms every sensor's first expiry before its first pop)
//! inside the wheel: a queue that refilled only on demand would leave
//! its cursor at zero through the burst and send every arming beyond
//! lane 1 through the overflow heap. A variant that refilled lazily
//! measured slower on the benchmark's `flow_fleet` workload in each of
//! 8 paired runs. The eager refill has a cost of its own: the first
//! event scheduled into an empty queue moves the cursor to its own
//! tick, so events of the same burst that are earlier than it are
//! inserted into the sorted front one at a time.
//!
//! # Cancellation
//!
//! An [`EventKey`] is a `(slot, generation)` pair. Cancelling bumps the
//! slot's generation and drops its event in O(1), so the key — and any
//! copy of it — cancels nothing afterwards. An event at or behind the
//! cursor is removed from the front at once, which keeps the front
//! tombstone-free so its head is always live, and its slot is freed.
//! An event still linked in a lane bucket, or still in the overflow
//! heap, stays there as a *tombstone*: its slot keeps its time and its
//! link, and returns to the free list only when its bucket drains (or
//! cascades) or its heap entry surfaces. A slot is therefore never
//! reused while anything still refers to it.

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
/// The end of a bucket list (and the head of an empty bucket).
const NIL: u32 = u32::MAX;

fn tick_of(time: SimTime) -> u64 {
    time.as_nanos() >> TICK_SHIFT
}

/// One bit per lane bucket, set while the bucket is nonempty, and a
/// summary word with one bit per nonzero bitmap word (`WORDS <= 64`).
#[derive(Clone, Copy)]
struct Occupancy<const WORDS: usize> {
    words: [u64; WORDS],
    summary: u64,
}

impl<const WORDS: usize> Occupancy<WORDS> {
    const EMPTY: Self = Occupancy {
        words: [0; WORDS],
        summary: 0,
    };

    fn set(&mut self, bucket: usize) {
        let w = bucket / 64;
        self.words[w] |= 1 << (bucket % 64);
        self.summary |= 1 << w;
    }

    fn clear(&mut self, bucket: usize) {
        let w = bucket / 64;
        self.words[w] &= !(1 << (bucket % 64));
        if self.words[w] == 0 {
            self.summary &= !(1 << w);
        }
    }

    /// Circular distance from bucket `from` to the first occupied bucket
    /// at or after it (wrapping past the last bucket), or `None` when
    /// every bucket is empty.
    fn distance_to_next(&self, from: usize) -> Option<u64> {
        let buckets = WORDS * 64;
        let (w0, b0) = (from / 64, from % 64);
        let here = self.words[w0] & (!0 << b0);
        let bucket = if here != 0 {
            w0 * 64 + here.trailing_zeros() as usize
        } else {
            // The first nonzero word after the start word; failing that,
            // wrapping, the first nonzero word at all — possibly the
            // start word itself, whose bits are then all before `from`.
            let after = self.summary & (!1 << w0);
            let pick = if after != 0 { after } else { self.summary };
            if pick == 0 {
                return None;
            }
            let w = pick.trailing_zeros() as usize;
            w * 64 + self.words[w].trailing_zeros() as usize
        };
        Some(((bucket + buckets - from) % buckets) as u64)
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

/// One slab slot: the event payload, its `(time, seq)` order key, the
/// generation that validates keys to it, and its lane-bucket link.
struct Slot<E> {
    generation: u32,
    /// The next slot in the same lane bucket, or [`NIL`]; meaningful
    /// only while the slot is linked in a lane.
    next: u32,
    time: SimTime,
    seq: u64,
    /// `None` once the event fired or was cancelled.
    event: Option<E>,
}

/// A front entry. Carries `(time, seq)` so sorting the front and
/// searching it never chase the slab.
#[derive(Clone, Copy)]
struct EntryRef {
    time: SimTime,
    seq: u64,
    slot: u32,
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
/// wheel internals. Cancellation is O(1): the key is invalidated
/// immediately, and an event still queued in the wheel stays behind as
/// a tombstone until its bucket drains.
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
    /// Head slot of each lane-0 / lane-1 bucket's list, or [`NIL`].
    lane0: Vec<u32>,
    lane1: Vec<u32>,
    /// Which lane-0 / lane-1 buckets are nonempty.
    lane0_occ: Occupancy<{ LANE0_BUCKETS as usize / 64 }>,
    lane1_occ: Occupancy<{ LANE1_BUCKETS as usize / 64 }>,
    overflow: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
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
            lane0: vec![NIL; LANE0_BUCKETS as usize],
            lane1: vec![NIL; LANE1_BUCKETS as usize],
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
                let slot = u32::try_from(self.slots.len())
                    .ok()
                    .filter(|&s| s != NIL)
                    .expect("< 2^32 - 1 slots");
                self.slots.push(Slot {
                    generation: 0,
                    next: NIL,
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
        self.place(EntryRef { time, seq, slot });
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
        self.live -= 1;
        if tick_of(time) <= self.cursor {
            // Live entries at or behind the cursor are in the front, which
            // must stay tombstone-free: remove it now.
            let i = self.front.partition_point(|e| e.order_key() < (time, seq));
            debug_assert!(self.front[i].seq == seq, "front entry out of place");
            self.front.remove(i);
            self.free.push(key.slot());
            if self.front.is_empty() && self.live > 0 {
                self.refill_front();
            }
        }
        // Otherwise the slot is linked in a lane bucket or referenced
        // from the overflow heap: it stays there as a tombstone and is
        // freed when the drain, cascade or heap pop reaches it.
        true
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let e = self.front.pop_front()?;
        let s = &mut self.slots[e.slot as usize];
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

    /// Files a live entry into the store matching its distance from the
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
            self.push_lane0(tick, e.slot);
            if self.lane0_len > self.stats.lane0_high_water {
                self.stats.lane0_high_water = self.lane0_len;
            }
        } else if (tick >> COARSE_SHIFT) - (self.cursor >> COARSE_SHIFT) <= LANE1_BUCKETS {
            let b = ((tick >> COARSE_SHIFT) & (LANE1_BUCKETS - 1)) as usize;
            self.slots[e.slot as usize].next = self.lane1[b];
            self.lane1[b] = e.slot;
            self.lane1_occ.set(b);
            self.lane1_len += 1;
            if self.lane1_len > self.stats.lane1_high_water {
                self.stats.lane1_high_water = self.lane1_len;
            }
        } else {
            self.overflow.push(Reverse((e.time, e.seq, e.slot)));
            if self.overflow.len() > self.stats.overflow_high_water {
                self.stats.overflow_high_water = self.overflow.len();
            }
        }
    }

    /// Links `slot`, whose tick is `tick`, into its lane-0 bucket.
    fn push_lane0(&mut self, tick: u64, slot: u32) {
        let b = (tick & (LANE0_BUCKETS - 1)) as usize;
        self.slots[slot as usize].next = self.lane0[b];
        self.lane0[b] = slot;
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

    /// Moves overflow entries whose coarse tick now fits lane 1 into the
    /// wheel, freeing tombstones that surface at the top of the heap.
    fn promote_overflow(&mut self) {
        let coarse_cursor = self.cursor >> COARSE_SHIFT;
        while let Some(&Reverse((time, seq, slot))) = self.overflow.peek() {
            if self.slots[slot as usize].event.is_none() {
                self.overflow.pop();
                self.free.push(slot);
                continue;
            }
            if (tick_of(time) >> COARSE_SHIFT) - coarse_cursor > LANE1_BUCKETS {
                break;
            }
            self.overflow.pop();
            self.place(EntryRef { time, seq, slot });
            self.stats.overflow_promotions += 1;
        }
    }

    /// Cascades one lane-1 bucket's live entries straight into lane 0,
    /// freeing its tombstones.
    fn cascade_lane1(&mut self, ct: u64) {
        let b = (ct & (LANE1_BUCKETS - 1)) as usize;
        let mut i = std::mem::replace(&mut self.lane1[b], NIL);
        self.lane1_occ.clear(b);
        while i != NIL {
            let s = &self.slots[i as usize];
            let next = s.next;
            self.lane1_len -= 1;
            if s.event.is_some() {
                let tick = tick_of(s.time);
                debug_assert_eq!(tick >> COARSE_SHIFT, ct, "lane-1 bucket mixed coarse ticks");
                self.push_lane0(tick, i);
            } else {
                self.free.push(i);
            }
            i = next;
        }
        if self.lane0_len > self.stats.lane0_high_water {
            self.stats.lane0_high_water = self.lane0_len;
        }
    }

    /// Moves the whole lane-0 bucket of tick `t` to the back of the
    /// front (unsorted), freeing its tombstones.
    ///
    /// Every entry in the bucket has tick `t`. Outside a refill, lane 0
    /// holds only ticks in the span `(C, C + 2048]`, one tick per
    /// bucket: [`place`](Self::place) files nothing else there, and
    /// every refill ends with the cursor on a drained tick. Inside one
    /// pass of the refill's scan, a cascade at boundary `b <= C + 2048`
    /// can link ticks up to `b + 255` past the span. Such a tick `T`
    /// lands in the bucket of `T - 2048`, in `(C, b)`: a stretch the
    /// scan has already passed as empty, since it visits ticks and
    /// boundaries in order and a cascade's entries all lie at or past
    /// its boundary. Ticks past the span all lie in `(C + 2048, C +
    /// 2303]`, so no two of them share a bucket either. The scan looks
    /// only forward from `b` and no further than `C + 2048`, so it does
    /// not come back to that stretch before the pass drains a tick
    /// `t >= b` and moves the cursor there, when `T <= b + 255 < t +
    /// 2048` is back inside the span; a pass that drains nothing
    /// advances the cursor a whole span past `C`, below every such `T`.
    /// So the bucket the scan drains never holds a second round.
    fn drain_lane0(&mut self, t: u64) {
        let b = (t & (LANE0_BUCKETS - 1)) as usize;
        let mut i = std::mem::replace(&mut self.lane0[b], NIL);
        self.lane0_occ.clear(b);
        while i != NIL {
            let s = &self.slots[i as usize];
            debug_assert_eq!(tick_of(s.time), t, "lane-0 bucket mixed ticks");
            let next = s.next;
            self.lane0_len -= 1;
            if s.event.is_some() {
                self.front.push_back(EntryRef {
                    time: s.time,
                    seq: s.seq,
                    slot: i,
                });
            } else {
                self.free.push(i);
            }
            i = next;
        }
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
                    self.drain_lane0(t);
                    self.cursor = t;
                    if self.front.is_empty() {
                        continue 'scan; // only tombstones
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
                    // Everything resident in lane 0 was cascaded past
                    // the span; advance a full span and rescan.
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
            while let Some(Reverse((time, seq, slot))) = self.overflow.pop() {
                if self.slots[slot as usize].event.is_none() {
                    self.free.push(slot);
                    continue;
                }
                // Overflow entries sit far beyond the wheel span, so the
                // tick is always large enough for the -1 park position.
                self.cursor = tick_of(time) - 1;
                self.place(EntryRef { time, seq, slot });
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

    /// Entries resident in the lanes and the overflow heap whose events
    /// were cancelled: every slot is free, live, or one of these.
    fn resident_tombstones<E>(q: &EventQueue<E>) -> usize {
        let queued = q.lane0_len + q.lane1_len + q.overflow.len();
        let tombstones = queued - (q.live - q.front.len());
        assert_eq!(q.slots.len(), q.free.len() + q.live + tombstones);
        tombstones
    }

    #[test]
    fn a_slot_cancelled_in_lane1_is_reused_only_after_its_cascade() {
        let mut q = EventQueue::new();
        q.schedule(t(0.0001), "now");
        let a = q.schedule(t(60.0), "a"); // lane 1
        assert!(q.cancel(a));
        let b = q.schedule(t(100.0), "b"); // lane 1, a later bucket
        assert_ne!(
            b.slot(),
            a.slot(),
            "a linked tombstone's slot is not reused"
        );
        assert_eq!((q.lane1_len, resident_tombstones(&q)), (2, 1));
        assert_eq!(q.pop(), Some((t(0.0001), "now")));
        // The refill cascaded a's bucket on its way to b's.
        assert_eq!((q.lane1_len, resident_tombstones(&q)), (0, 0));
        let c = q.schedule(t(100.5), "c");
        assert_eq!(c.slot(), a.slot(), "freed by the cascade, then reused");
        assert!(!q.cancel(a), "the stale key cancels nothing");
        assert_eq!(q.pop(), Some((t(100.0), "b")));
        assert_eq!(q.pop(), Some((t(100.5), "c")));
    }

    #[test]
    fn a_slot_cancelled_in_the_overflow_heap_is_reused_only_after_it_surfaces() {
        let mut q = EventQueue::new();
        q.schedule(t(0.0001), "now");
        let a = q.schedule(t(500.0), "a"); // overflow
        assert!(q.cancel(a));
        let b = q.schedule(t(1.0), "b");
        assert_ne!(b.slot(), a.slot(), "a tombstone in the heap keeps its slot");
        assert_eq!((q.overflow.len(), resident_tombstones(&q)), (1, 1));
        assert_eq!(q.pop(), Some((t(0.0001), "now")));
        // The refill's promotion pass popped the tombstone off the heap.
        assert_eq!((q.overflow.len(), resident_tombstones(&q)), (0, 0));
        let c = q.schedule(t(2.0), "c");
        assert_eq!(c.slot(), a.slot(), "freed when it surfaced, then reused");
        assert!(!q.cancel(a), "the stale key cancels nothing");
        assert_eq!(q.pop(), Some((t(1.0), "b")));
        assert_eq!(q.pop(), Some((t(2.0), "c")));
    }

    #[test]
    fn a_stale_key_to_a_reclaimed_slot_cancels_nothing() {
        let mut q = EventQueue::new();
        q.schedule(t(0.0001), "now");
        let a = q.schedule(t(1.0), "a"); // lane 0
        assert!(q.cancel(a));
        q.schedule(t(1.5), "b");
        assert_eq!(q.pop(), Some((t(0.0001), "now")));
        // The drain of a's tick freed its slot; "c" takes it over.
        let c = q.schedule(t(1.6), "c");
        assert_eq!(c.slot(), a.slot());
        assert!(!q.cancel(a), "a stale key must not cancel the new tenant");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((t(1.5), "b")));
        assert_eq!(q.pop(), Some((t(1.6), "c")));
        assert!(!q.cancel(c) && q.is_empty());
    }

    #[test]
    fn far_future_schedule_and_cancel_keeps_the_slab_bounded() {
        // A heartbeat pops every simulated second; in between, events
        // 60 s and 120 s (lane 1) and 500 s (overflow) ahead are
        // scheduled and cancelled at once. Tombstones are freed as the
        // cursor reaches their buckets, so the slab stops growing.
        let mut q = EventQueue::new();
        q.schedule(t(1.0), "heartbeat");
        let mut peak_tombstones = 0;
        for i in 0..20_000 {
            let now = q.peek_time().unwrap().as_secs_f64() - 1.0;
            let far = [60.0, 120.0, 500.0][i % 3];
            let key = q.schedule(t(now + far), "far");
            assert!(q.cancel(key));
            if i % 4 == 3 {
                let (at, _) = q.pop().unwrap();
                q.schedule(t(at.as_secs_f64() + 1.0), "heartbeat");
            }
            peak_tombstones = peak_tombstones.max(resident_tombstones(&q));
            assert!(q.slots.len() <= q.high_water() + peak_tombstones);
        }
        assert_eq!(q.high_water(), 2);
        // 4/3 tombstones a second wait ~60 s in lane 1, as many ~120 s:
        // about 240 resident, never the 20,000 a leak would show.
        assert!(
            peak_tombstones < 400,
            "{peak_tombstones} tombstones resident"
        );
        assert!(q.slots.len() < 400, "slab grew to {}", q.slots.len());
    }

    #[test]
    fn occupancy_finds_the_next_bucket_like_a_linear_scan() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..200 {
            let mut occ = Occupancy::<8>::EMPTY;
            let mut set = [false; 512];
            // Sparse to dense, with some buckets set and then cleared.
            for _ in 0..(round % 40) {
                let b = (next() % 512) as usize;
                occ.set(b);
                set[b] = true;
                if next() % 3 == 0 {
                    occ.clear(b);
                    set[b] = false;
                }
            }
            for from in 0..512 {
                let linear = (0..512u64).find(|&d| set[(from + d as usize) % 512]);
                assert_eq!(
                    occ.distance_to_next(from),
                    linear,
                    "round {round}, from {from}"
                );
            }
        }
    }
}
