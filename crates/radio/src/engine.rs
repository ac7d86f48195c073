//! The CSMA/CA MAC engine.
//!
//! # Model
//!
//! - **Carrier sense**: every node tracks `busy_until`, the latest end
//!   time of any transmission it can hear. A node contends only when its
//!   channel is idle.
//! - **Contention**: before each transmission attempt the node waits
//!   DIFS plus a uniform number of backoff slots in `[0, CW]`, with CW
//!   doubling per retry (frame-granular: the whole wait is drawn at once
//!   rather than freezing per-slot counters — at the paper's traffic
//!   loads the difference is statistically invisible, and it keeps event
//!   counts proportional to frames).
//! - **Collisions**: any two frames overlapping in time at a receiver
//!   corrupt each other there (no capture effect). A node that is
//!   transmitting cannot receive (half-duplex).
//! - **Unicast**: a successfully received unicast frame is acknowledged
//!   after SIFS. The ACK occupies the channel around the receiver and is
//!   counted, but is itself delivered reliably — a deliberate
//!   simplification documented in DESIGN.md (the paper's asymmetric
//!   ranges make strict symmetric-link ACKs impossible for
//!   robot-to-sensor hops that the paper itself relies on). Failed
//!   attempts retry up to the 802.11 long-retry limit.
//! - **Broadcast**: transmitted once, never acknowledged, as in 802.11.

use std::collections::VecDeque;

use robonet_des::rng::{Rng, Xoshiro256};
use robonet_des::{NodeId, SimTime};

use crate::frame::Frame;
use crate::medium::{Fading, Medium};
use crate::params::MacParams;
use crate::stats::TxStats;

/// Events the engine asks the simulation driver to schedule and feed
/// back via [`RadioEngine::handle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RadioEvent {
    /// A node's contention wait elapsed; it will transmit if the channel
    /// is still idle.
    TryAccess {
        /// The contending node.
        node: NodeId,
    },
    /// A transmission's air time ended.
    TxEnd {
        /// Transmission id.
        tx: u64,
    },
    /// The abstract ACK for transmission `tx` finished; the sender may
    /// proceed.
    AckDone {
        /// Transmission id being acknowledged.
        tx: u64,
    },
    /// The sender of a unicast frame gave up waiting for an ACK.
    AckTimeout {
        /// The waiting sender.
        node: NodeId,
        /// Generation token guarding against stale timeouts.
        token: u64,
    },
}

/// What the radio layer reports up to the application.
#[derive(Debug, Clone, PartialEq)]
pub enum Upcall<P> {
    /// A frame arrived intact at `to` (for broadcast: one upcall per
    /// receiver).
    Delivered {
        /// Receiving node.
        to: NodeId,
        /// The received frame.
        frame: Frame<P>,
    },
    /// The sender finished with a frame: `ok` is `true` on success
    /// (broadcast frames always complete "ok" once sent).
    TxComplete {
        /// The sending node.
        src: NodeId,
        /// The frame that completed.
        frame: Frame<P>,
        /// Whether the frame was delivered (unicast) or sent (broadcast).
        ok: bool,
    },
}

/// One buffered upcall. The frame payload lives in the owning
/// [`UpcallBuf`] and is referenced by index, so a broadcast heard by N
/// nodes buffers its frame once instead of N clones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpcallEntry {
    /// A frame arrived intact (one entry per receiver).
    Delivered {
        /// Receiving node.
        to: NodeId,
        /// Index for [`UpcallBuf::frame`].
        frame: u32,
        /// The sender-to-receiver link index
        /// ([`Medium::for_each_hearer`]), or
        /// [`NO_LINK`](crate::medium::NO_LINK).
        link: u32,
    },
    /// The sender finished with a frame (see [`Upcall::TxComplete`]).
    TxComplete {
        /// The sending node.
        src: NodeId,
        /// Index for [`UpcallBuf::frame`].
        frame: u32,
        /// Whether the frame was delivered (unicast) or sent (broadcast).
        ok: bool,
    },
}

/// Reusable output buffer for [`RadioEngine::handle`].
///
/// Hot consumers iterate [`UpcallBuf::entries`] (16-byte copies) and
/// resolve frames by reference through [`UpcallBuf::frame`];
/// [`UpcallBuf::take_owned`] materialises classic owned [`Upcall`]s for
/// tests and tools that prefer them.
#[derive(Debug)]
pub struct UpcallBuf<P> {
    entries: Vec<UpcallEntry>,
    frames: Vec<Frame<P>>,
}

impl<P> Default for UpcallBuf<P> {
    fn default() -> Self {
        UpcallBuf {
            entries: Vec::new(),
            frames: Vec::new(),
        }
    }
}

impl<P> UpcallBuf<P> {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        UpcallBuf::default()
    }

    /// The buffered upcalls, in emission order.
    pub fn entries(&self) -> &[UpcallEntry] {
        &self.entries
    }

    /// Resolves a frame index from an [`UpcallEntry`].
    pub fn frame(&self, idx: u32) -> &Frame<P> {
        &self.frames[idx as usize]
    }

    /// Returns `true` if no upcalls are buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Empties the buffer, keeping both allocations for reuse.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.frames.clear();
    }

    fn push_frame(&mut self, frame: Frame<P>) -> u32 {
        let i = self.frames.len() as u32;
        self.frames.push(frame);
        i
    }
}

impl<P: Clone> UpcallBuf<P> {
    /// Drains the buffer into owned [`Upcall`]s, cloning shared frames.
    pub fn take_owned(&mut self) -> Vec<Upcall<P>> {
        let ups = self
            .entries
            .iter()
            .map(|&e| match e {
                UpcallEntry::Delivered { to, frame, .. } => Upcall::Delivered {
                    to,
                    frame: self.frames[frame as usize].clone(),
                },
                UpcallEntry::TxComplete { src, frame, ok } => Upcall::TxComplete {
                    src,
                    frame: self.frames[frame as usize].clone(),
                    ok,
                },
            })
            .collect();
        self.clear();
        ups
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum MacState {
    #[default]
    Idle,
    WaitingAccess,
    Transmitting,
    AwaitAck,
}

/// Cold per-node MAC state (frame queue and retry bookkeeping). The
/// fields every transmission touches for *every hearer* — carrier-sense
/// deadline, MAC state, receive counters — live in a dense parallel
/// array on the engine instead, so the hearer loop stays inside one
/// small, cache-resident allocation rather than striding through this
/// struct.
#[derive(Debug)]
struct MacNode<P> {
    queue: VecDeque<Frame<P>>,
    /// Attempt number (0-based) for the head-of-queue frame.
    attempt: u32,
    /// Generation token for AckTimeout staleness checks.
    token: u64,
}

impl<P> Default for MacNode<P> {
    fn default() -> Self {
        MacNode {
            queue: VecDeque::new(),
            attempt: 0,
            token: 0,
        }
    }
}

/// The per-node fields every transmission touches for *every hearer*:
/// 24 bytes, so a hearer's whole carrier-sense and receive update is one
/// cache line (at most two).
///
/// Receive state is counts, not a set of frame ids. Every frame that
/// starts arriving bumps `epoch` and records the new value in its
/// receiver entry ([`Arrival`]); so do the node's own transmission and
/// its death. A frame survives at a receiver exactly when it did not
/// collide on arrival and the receiver's epoch has not moved since — the
/// "any two overlapping frames corrupt each other" rule without listing
/// who overlaps whom.
#[derive(Debug, Default)]
struct HotNode {
    /// Carrier-sense deadline: the channel is sensed busy until this
    /// time (written for every hearer of every frame).
    busy_until: SimTime,
    /// Frames arriving here that count toward a collision: started
    /// since the node last died, not yet ended.
    arriving: u32,
    /// Moves whenever a frame starts arriving, the node transmits or it
    /// dies, corrupting every frame arriving at that moment.
    epoch: u32,
    /// Arrivals recorded at or before this epoch (in wrapping order) are
    /// not counted in `arriving`: the node died since, or nothing was
    /// arriving when the mark last moved.
    detached: u32,
    /// MAC protocol state.
    state: MacState,
}

impl HotNode {
    /// A frame starts arriving: returns whether it collides with one
    /// already arriving, and the epoch its receiver entry records.
    fn arrive(&mut self) -> (bool, u32) {
        let collided = self.arriving > 0;
        if !collided {
            // Nothing counted is outstanding: keep the mark within a few
            // frames of the epoch so the wrapping comparison in
            // `finish` stays exact however long the run.
            self.detached = self.epoch;
        }
        self.epoch = self.epoch.wrapping_add(1);
        self.arriving += 1;
        (collided, self.epoch)
    }

    /// The node starts transmitting (half-duplex): every frame arriving
    /// now is corrupted.
    fn jam(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
    }

    /// The node dies: every frame arriving now is corrupted and stops
    /// counting toward collisions.
    fn detach(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        self.detached = self.epoch;
        self.arriving = 0;
    }

    /// The frame behind receiver entry `a` ends: releases its count and
    /// returns whether it arrived intact.
    fn finish(&mut self, a: &Arrival) -> bool {
        if (a.epoch.wrapping_sub(self.detached) as i32) > 0 {
            self.arriving -= 1;
        }
        !a.collided && a.epoch == self.epoch
    }
}

/// One receiver of a transmission: 16 bytes, recycled with its slot.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    node: NodeId,
    /// The receiver's [`HotNode::epoch`] just after this arrival.
    epoch: u32,
    /// Link index from [`Medium::for_each_hearer`].
    link: u32,
    /// Another frame was arriving when this one started.
    collided: bool,
}

const _: () = assert!(std::mem::size_of::<HotNode>() == 24);
const _: () = assert!(std::mem::size_of::<Arrival>() == 16);

/// Lifecycle of a transmission slot in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxState {
    /// Slot is on the free list.
    Free,
    /// Data frame on the air (between `start_tx` and `TxEnd`).
    Airing,
    /// Abstract ACK in flight (between `TxEnd` and `AckDone`).
    Acking,
}

/// One arena slot. Transmission ids pack `(slot, generation)` so a
/// stale event can never act on a reused slot; the `receivers` buffer
/// is recycled with the slot, so steady-state transmissions allocate
/// nothing.
struct TxSlot {
    generation: u32,
    state: TxState,
    src: NodeId,
    /// The sender's [`MacNode::token`] when the frame went on the air.
    /// Only the sender's death moves it before the frame's `TxEnd`, so
    /// a different token there marks a transmission its sender
    /// orphaned: the frame it carried was flushed, and whatever the
    /// sender has queued since was never on the air.
    token: u64,
    receivers: Vec<Arrival>,
}

fn tx_id(slot: u32, generation: u32) -> u64 {
    (u64::from(slot) << 32) | u64::from(generation)
}

fn tx_slot(tx: u64) -> usize {
    (tx >> 32) as usize
}

fn tx_generation(tx: u64) -> u32 {
    tx as u32
}

/// The MAC engine for all nodes sharing one [`Medium`].
///
/// The engine is driven by the simulation loop: [`RadioEngine::send`]
/// enqueues application frames, and every [`RadioEvent`] the engine
/// schedules (through the `sched` callback) must be fed back to
/// [`RadioEngine::handle`] at its due time. Deliveries and completions
/// come out through the `out` buffer.
pub struct RadioEngine<P> {
    params: MacParams,
    medium: Medium,
    nodes: Vec<MacNode<P>>,
    /// Dense hearer-hot state, parallel to `nodes` (see [`HotNode`]).
    hot: Vec<HotNode>,
    /// Transmission arena; ids handed to the scheduler pack the slot
    /// index and its generation.
    txs: Vec<TxSlot>,
    free_txs: Vec<u32>,
    rng: Xoshiro256,
    stats: TxStats,
}

impl<P: Clone> RadioEngine<P> {
    /// Creates an engine over `medium` with `params`, drawing backoff
    /// (and fading, if the medium has a grey zone) randomness from
    /// `rng`.
    pub fn new(medium: Medium, params: MacParams, rng: Xoshiro256) -> Self {
        let n = medium.len();
        RadioEngine {
            params,
            medium,
            nodes: (0..n).map(|_| MacNode::default()).collect(),
            hot: (0..n).map(|_| HotNode::default()).collect(),
            txs: Vec::new(),
            free_txs: Vec::new(),
            rng,
            stats: TxStats::new(),
        }
    }

    /// Allocates a transmission slot for `src`, reusing a freed slot's
    /// `receivers` buffer when one is available.
    fn alloc_tx(&mut self, src: NodeId) -> u64 {
        let token = self.nodes[src.index()].token;
        if let Some(slot) = self.free_txs.pop() {
            let s = &mut self.txs[slot as usize];
            debug_assert!(s.state == TxState::Free && s.receivers.is_empty());
            s.state = TxState::Airing;
            s.src = src;
            s.token = token;
            tx_id(slot, s.generation)
        } else {
            let slot = u32::try_from(self.txs.len()).expect("< 2^32 live transmissions");
            self.txs.push(TxSlot {
                generation: 0,
                state: TxState::Airing,
                src,
                token,
                receivers: Vec::new(),
            });
            tx_id(slot, 0)
        }
    }

    /// Returns a slot to the free list and invalidates outstanding ids.
    fn free_tx(&mut self, slot: usize) {
        let s = &mut self.txs[slot];
        debug_assert!(s.state != TxState::Free);
        s.state = TxState::Free;
        s.generation = s.generation.wrapping_add(1);
        s.receivers.clear();
        self.free_txs.push(slot as u32);
    }

    /// Immutable access to the medium (positions, classes, liveness).
    pub fn medium(&self) -> &Medium {
        &self.medium
    }

    /// Moves a node (robots, while travelling).
    pub fn set_position(&mut self, node: NodeId, pos: robonet_geom::Point) {
        self.medium.set_position(node, pos);
    }

    /// Marks a node failed or repaired. Failing a node flushes its MAC
    /// queue and detaches it from any in-flight receptions.
    pub fn set_alive(&mut self, node: NodeId, alive: bool) {
        self.medium.set_alive(node, alive);
        if !alive {
            let st = &mut self.nodes[node.index()];
            st.queue.clear();
            st.attempt = 0;
            st.token += 1;
            let hot = &mut self.hot[node.index()];
            hot.state = MacState::Idle;
            // Frames in flight toward this node can no longer be
            // delivered, and stop counting toward its collisions.
            hot.detach();
        }
    }

    /// Transmission statistics so far.
    pub fn stats(&self) -> &TxStats {
        &self.stats
    }

    /// Number of frames currently on the air or awaiting their ACK
    /// (live transmission slots). O(1): the arena tracks its free list.
    pub fn in_flight(&self) -> usize {
        self.txs.len() - self.free_txs.len()
    }

    /// Returns `true` if `node` has nothing queued or in flight.
    pub fn is_idle(&self, node: NodeId) -> bool {
        self.hot[node.index()].state == MacState::Idle && self.nodes[node.index()].queue.is_empty()
    }

    /// Enqueues `frame` for transmission from `frame.src`.
    ///
    /// Silently ignores sends from dead nodes (the application may race
    /// a failure event with a scheduled send).
    pub fn send(
        &mut self,
        now: SimTime,
        frame: Frame<P>,
        sched: &mut impl FnMut(SimTime, RadioEvent),
    ) {
        let src = frame.src;
        if !self.medium.is_alive(src) {
            return;
        }
        self.nodes[src.index()].queue.push_back(frame);
        if self.hot[src.index()].state == MacState::Idle {
            self.begin_access(now, src, sched);
        }
    }

    /// Processes a radio event previously scheduled through `sched`,
    /// pushing deliveries and completions into `out`.
    pub fn handle(
        &mut self,
        now: SimTime,
        event: RadioEvent,
        sched: &mut impl FnMut(SimTime, RadioEvent),
        out: &mut UpcallBuf<P>,
    ) {
        match event {
            RadioEvent::TryAccess { node } => self.on_try_access(now, node, sched),
            RadioEvent::TxEnd { tx } => self.on_tx_end(now, tx, sched, out),
            RadioEvent::AckDone { tx } => self.on_ack_done(now, tx, sched, out),
            RadioEvent::AckTimeout { node, token } => {
                self.on_ack_timeout(now, node, token, sched, out)
            }
        }
    }

    fn begin_access(
        &mut self,
        now: SimTime,
        node: NodeId,
        sched: &mut impl FnMut(SimTime, RadioEvent),
    ) {
        let cw = self
            .params
            .contention_window(self.nodes[node.index()].attempt);
        let slots = self.rng.gen_range(0..=cw);
        self.hot[node.index()].state = MacState::WaitingAccess;
        let idle_at = self.hot[node.index()].busy_until.max(now);
        let at = idle_at + self.params.difs + self.params.slot * u64::from(slots);
        sched(at, RadioEvent::TryAccess { node });
    }

    fn on_try_access(
        &mut self,
        now: SimTime,
        node: NodeId,
        sched: &mut impl FnMut(SimTime, RadioEvent),
    ) {
        if self.hot[node.index()].state != MacState::WaitingAccess || !self.medium.is_alive(node) {
            return; // stale event (node died or was reset)
        }
        if self.hot[node.index()].busy_until > now {
            // Channel became busy during our backoff; re-contend once it
            // frees up.
            self.begin_access(now, node, sched);
            return;
        }
        self.start_tx(now, node, sched);
    }

    fn start_tx(
        &mut self,
        now: SimTime,
        node: NodeId,
        sched: &mut impl FnMut(SimTime, RadioEvent),
    ) {
        let (bytes, class) = {
            let f = self.nodes[node.index()]
                .queue
                .front()
                .expect("start_tx with empty queue");
            (f.bytes, f.class)
        };
        let tx = self.alloc_tx(node);
        let slot = tx_slot(tx);
        let duration = self.params.airtime(bytes);
        let end = now + duration;
        self.stats.class_mut(class).data_tx += 1;

        // The sender cannot receive while transmitting: corrupt anything
        // currently arriving at it.
        self.hot[node.index()].jam();

        // With fading off, reception is certain for every hearer (they
        // are in range by construction), so skip the per-hearer distance
        // computation; no randomness is consumed either way.
        let fading = !matches!(self.medium.fading(), Fading::None);
        let receivers = &mut self.txs[slot].receivers;
        self.medium.for_each_hearer(node, |h, link| {
            // Edge-of-range fading: a weak frame still occupies the
            // channel (carrier sense) but may fail to lock the receiver.
            let faded = fading && {
                let p_rx = self.medium.reception_prob(node, h);
                p_rx < 1.0 && self.rng.next_f64() >= p_rx
            };
            let hot = &mut self.hot[h.index()];
            hot.busy_until = hot.busy_until.max(end);
            if faded || hot.state == MacState::Transmitting {
                return; // lost in the grey zone, or half-duplex
            }
            let (collided, epoch) = hot.arrive();
            if collided {
                self.stats.class_mut(class).collisions += 1;
            }
            receivers.push(Arrival {
                node: h,
                epoch,
                link,
                collided,
            });
        });

        self.hot[node.index()].state = MacState::Transmitting;
        let busy = &mut self.hot[node.index()].busy_until;
        *busy = (*busy).max(end);
        sched(end, RadioEvent::TxEnd { tx });
    }

    fn on_tx_end(
        &mut self,
        now: SimTime,
        tx: u64,
        sched: &mut impl FnMut(SimTime, RadioEvent),
        out: &mut UpcallBuf<P>,
    ) {
        let slot = tx_slot(tx);
        let s = &self.txs[slot];
        assert!(
            s.generation == tx_generation(tx) && s.state == TxState::Airing,
            "unknown transmission"
        );
        let src = s.src;
        if self.nodes[src.index()].token != s.token {
            // The sender died mid-transmission and its queue was
            // flushed: release the receivers' counts, deliver nothing
            // and complete nothing.
            for a in &self.txs[slot].receivers {
                self.hot[a.node.index()].finish(a);
            }
            self.free_tx(slot);
            return;
        }
        // The sender has lived through the frame, which is still the
        // head of its queue. Detach from receivers and deliver. The
        // frame is buffered once and every Delivered entry references it
        // by index, so fan-out to N hearers costs one clone, not N.
        debug_assert!(self.medium.is_alive(src));
        let head = self.nodes[src.index()].queue.front();
        let fi = out.push_frame(head.expect("the aired frame heads the queue").clone());
        let (dst, class) = {
            let f = out.frame(fi);
            (f.dst, f.class)
        };

        let mut dst_received = false;
        let mut any_received = false;
        for a in &self.txs[slot].receivers {
            let h = a.node;
            if !self.hot[h.index()].finish(a) || !self.medium.is_alive(h) {
                continue;
            }
            any_received = true;
            if dst == Some(h) {
                dst_received = true;
            }
            if dst.is_none() || dst == Some(h) {
                out.entries.push(UpcallEntry::Delivered {
                    to: h,
                    frame: fi,
                    link: a.link,
                });
            }
        }

        match dst {
            None => {
                // Broadcast: done.
                self.free_tx(slot);
                if any_received {
                    self.stats.class_mut(class).delivered += 1;
                }
                self.complete_head(now, src, true, out, sched);
            }
            Some(dst) if dst_received => {
                // Abstract ACK: occupies the channel around the receiver
                // for SIFS + ACK air time, then the sender completes. The
                // slot stays allocated (state Acking) until AckDone.
                self.stats.class_mut(class).ack_tx += 1;
                let ack_end = now + self.params.sifs + self.params.ack_airtime();
                self.medium.for_each_hearer(dst, |h, _| {
                    let busy = &mut self.hot[h.index()].busy_until;
                    *busy = (*busy).max(ack_end);
                });
                self.hot[src.index()].state = MacState::AwaitAck;
                let busy = &mut self.hot[src.index()].busy_until;
                *busy = (*busy).max(ack_end);
                self.txs[slot].state = TxState::Acking;
                self.txs[slot].receivers.clear();
                sched(ack_end, RadioEvent::AckDone { tx });
            }
            Some(_) => {
                // Destination missed the frame (collision, death, or out
                // of range): wait out the ACK timeout, then retry.
                self.free_tx(slot);
                self.hot[src.index()].state = MacState::AwaitAck;
                let st = &mut self.nodes[src.index()];
                st.token += 1;
                let token = st.token;
                sched(
                    now + self.params.ack_timeout(),
                    RadioEvent::AckTimeout { node: src, token },
                );
            }
        }
    }

    fn on_ack_done(
        &mut self,
        now: SimTime,
        tx: u64,
        sched: &mut impl FnMut(SimTime, RadioEvent),
        out: &mut UpcallBuf<P>,
    ) {
        let slot = tx_slot(tx);
        let s = &self.txs[slot];
        if s.generation != tx_generation(tx) || s.state != TxState::Acking {
            return; // stale id
        }
        let src = s.src;
        self.free_tx(slot);
        if !self.medium.is_alive(src) || self.hot[src.index()].state != MacState::AwaitAck {
            return;
        }
        if let Some(frame) = self.nodes[src.index()].queue.front() {
            self.stats.class_mut(frame.class).delivered += 1;
        }
        self.complete_head(now, src, true, out, sched);
    }

    fn on_ack_timeout(
        &mut self,
        now: SimTime,
        node: NodeId,
        token: u64,
        sched: &mut impl FnMut(SimTime, RadioEvent),
        out: &mut UpcallBuf<P>,
    ) {
        let st = &self.nodes[node.index()];
        if self.hot[node.index()].state != MacState::AwaitAck
            || st.token != token
            || !self.medium.is_alive(node)
        {
            return; // stale timeout
        }
        let attempt = st.attempt + 1;
        if attempt >= self.params.max_attempts {
            if let Some(frame) = self.nodes[node.index()].queue.front() {
                self.stats.class_mut(frame.class).dropped += 1;
            }
            self.complete_head(now, node, false, out, sched);
        } else {
            let st = &mut self.nodes[node.index()];
            st.attempt = attempt;
            self.begin_access(now, node, sched);
        }
    }

    fn complete_head(
        &mut self,
        now: SimTime,
        node: NodeId,
        ok: bool,
        out: &mut UpcallBuf<P>,
        sched: &mut impl FnMut(SimTime, RadioEvent),
    ) {
        let st = &mut self.nodes[node.index()];
        let frame = st
            .queue
            .pop_front()
            .expect("complete_head with empty queue");
        st.attempt = 0;
        st.token += 1;
        self.hot[node.index()].state = MacState::Idle;
        let fi = out.push_frame(frame);
        out.entries.push(UpcallEntry::TxComplete {
            src: node,
            frame: fi,
            ok,
        });
        if !self.nodes[node.index()].queue.is_empty() {
            self.begin_access(now, node, sched);
        }
    }
}

impl<P> std::fmt::Debug for RadioEngine<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RadioEngine")
            .field("nodes", &self.nodes.len())
            .field("active_txs", &(self.txs.len() - self.free_txs.len()))
            .field("total_tx", &self.stats.total_tx())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::TrafficClass;
    use crate::medium::{NodeClass, RangeTable};
    use robonet_des::Scheduler;
    use robonet_geom::{Bounds, Point};

    /// Drives the engine until its event queue drains, collecting upcalls.
    fn run(
        engine: &mut RadioEngine<&'static str>,
        sends: Vec<(f64, Frame<&'static str>)>,
    ) -> Vec<(SimTime, Upcall<&'static str>)> {
        #[derive(Debug)]
        enum Ev {
            Send(Frame<&'static str>),
            Radio(RadioEvent),
        }
        let mut sched: Scheduler<Ev> = Scheduler::new();
        for (t, f) in sends {
            sched.schedule_at(SimTime::from_secs(t), Ev::Send(f));
        }
        let mut upcalls = Vec::new();
        let mut buffer = UpcallBuf::new();
        while let Some(ev) = sched.next_event() {
            let now = sched.now();
            let mut pending: Vec<(SimTime, RadioEvent)> = Vec::new();
            {
                let mut cb = |at: SimTime, e: RadioEvent| pending.push((at, e));
                match ev {
                    Ev::Send(f) => engine.send(now, f, &mut cb),
                    Ev::Radio(r) => engine.handle(now, r, &mut cb, &mut buffer),
                }
            }
            for (at, e) in pending {
                sched.schedule_at(at, Ev::Radio(e));
            }
            for u in buffer.take_owned() {
                upcalls.push((now, u));
            }
        }
        upcalls
    }

    fn line_engine(positions: &[(f64, f64)], classes: &[NodeClass]) -> RadioEngine<&'static str> {
        line_engine_seeded(positions, classes, 7)
    }

    fn line_engine_seeded(
        positions: &[(f64, f64)],
        classes: &[NodeClass],
        seed: u64,
    ) -> RadioEngine<&'static str> {
        let pts: Vec<Point> = positions.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let medium = Medium::new(Bounds::square(2000.0), RangeTable::default(), &pts, classes);
        RadioEngine::new(
            medium,
            MacParams::default(),
            Xoshiro256::seed_from_u64(seed),
        )
    }

    /// Finds a seed for which the two hidden-terminal senders' backoff
    /// draws overlap (used by the collision tests so they stay
    /// meaningful under any PRNG implementation).
    fn colliding_seed() -> u64 {
        for seed in 0..256 {
            let mut e = line_engine_seeded(
                &[(0.0, 0.0), (120.0, 0.0), (60.0, 0.0)],
                &[NodeClass::Sensor; 3],
                seed,
            );
            run(
                &mut e,
                vec![
                    (0.0, frame(0, None, TrafficClass::Beacon)),
                    (0.0, frame(1, None, TrafficClass::Beacon)),
                ],
            );
            if e.stats().class(TrafficClass::Beacon).collisions > 0 {
                return seed;
            }
        }
        panic!("no colliding seed in 0..256 — backoff model changed?");
    }

    fn frame(src: u32, dst: Option<u32>, class: TrafficClass) -> Frame<&'static str> {
        Frame {
            src: NodeId::new(src),
            dst: dst.map(NodeId::new),
            bytes: 64,
            class,
            payload: "p",
        }
    }

    #[test]
    fn broadcast_reaches_all_in_range() {
        let mut e = line_engine(
            &[(0.0, 0.0), (50.0, 0.0), (60.0, 0.0), (500.0, 0.0)],
            &[NodeClass::Sensor; 4],
        );
        let ups = run(&mut e, vec![(0.0, frame(0, None, TrafficClass::Beacon))]);
        let delivered: Vec<u32> = ups
            .iter()
            .filter_map(|(_, u)| match u {
                Upcall::Delivered { to, .. } => Some(to.as_u32()),
                _ => None,
            })
            .collect();
        assert_eq!(
            delivered,
            vec![1, 2],
            "nodes within 63 m hear, 500 m does not"
        );
        assert!(ups
            .iter()
            .any(|(_, u)| matches!(u, Upcall::TxComplete { ok: true, .. })));
        assert_eq!(e.stats().data_tx(TrafficClass::Beacon), 1);
        assert_eq!(
            e.stats().class(TrafficClass::Beacon).ack_tx,
            0,
            "no ACK for broadcast"
        );
    }

    #[test]
    fn unicast_delivers_and_acks() {
        let mut e = line_engine(&[(0.0, 0.0), (40.0, 0.0)], &[NodeClass::Sensor; 2]);
        let ups = run(
            &mut e,
            vec![(0.0, frame(0, Some(1), TrafficClass::FailureReport))],
        );
        assert!(ups.iter().any(|(_, u)| matches!(
            u,
            Upcall::Delivered { to, .. } if to.as_u32() == 1
        )));
        assert!(ups
            .iter()
            .any(|(_, u)| matches!(u, Upcall::TxComplete { ok: true, .. })));
        let s = e.stats().class(TrafficClass::FailureReport);
        assert_eq!(s.data_tx, 1);
        assert_eq!(s.ack_tx, 1);
        assert_eq!(s.delivered, 1);
        assert_eq!(s.dropped, 0);
    }

    #[test]
    fn unicast_out_of_range_retries_then_drops() {
        let mut e = line_engine(&[(0.0, 0.0), (200.0, 0.0)], &[NodeClass::Sensor; 2]);
        let ups = run(
            &mut e,
            vec![(0.0, frame(0, Some(1), TrafficClass::FailureReport))],
        );
        assert!(ups
            .iter()
            .any(|(_, u)| matches!(u, Upcall::TxComplete { ok: false, .. })));
        let s = e.stats().class(TrafficClass::FailureReport);
        assert_eq!(s.data_tx, u64::from(MacParams::default().max_attempts));
        assert_eq!(s.dropped, 1);
        assert_eq!(s.delivered, 0);
    }

    #[test]
    fn asymmetric_range_robot_reaches_far_sensor() {
        let mut e = line_engine(
            &[(0.0, 0.0), (200.0, 0.0)],
            &[NodeClass::Robot, NodeClass::Sensor],
        );
        // Robot → sensor at 200 m succeeds (250 m range) even though the
        // sensor could not reply with data at that distance.
        let ups = run(
            &mut e,
            vec![(0.0, frame(0, Some(1), TrafficClass::RepairRequest))],
        );
        assert!(ups.iter().any(|(_, u)| matches!(
            u,
            Upcall::Delivered { to, .. } if to.as_u32() == 1
        )));
        assert!(ups
            .iter()
            .any(|(_, u)| matches!(u, Upcall::TxComplete { ok: true, .. })));
    }

    #[test]
    fn queue_drains_in_order() {
        let mut e = line_engine(&[(0.0, 0.0), (40.0, 0.0)], &[NodeClass::Sensor; 2]);
        let mut f1 = frame(0, Some(1), TrafficClass::FailureReport);
        f1.payload = "first";
        let mut f2 = frame(0, Some(1), TrafficClass::FailureReport);
        f2.payload = "second";
        let ups = run(&mut e, vec![(0.0, f1), (0.0, f2)]);
        let delivered: Vec<&str> = ups
            .iter()
            .filter_map(|(_, u)| match u {
                Upcall::Delivered { frame, .. } => Some(frame.payload),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, vec!["first", "second"]);
        assert_eq!(e.stats().class(TrafficClass::FailureReport).delivered, 2);
    }

    #[test]
    fn simultaneous_senders_defer_not_collide() {
        // Two senders in range of each other contend; the second hears
        // the first and defers, so both broadcasts deliver.
        let mut e = line_engine(
            &[(0.0, 0.0), (30.0, 0.0), (15.0, 10.0)],
            &[NodeClass::Sensor; 3],
        );
        let ups = run(
            &mut e,
            vec![
                (0.0, frame(0, None, TrafficClass::Beacon)),
                (0.0, frame(1, None, TrafficClass::Beacon)),
            ],
        );
        let delivered_to_2 = ups
            .iter()
            .filter(|(_, u)| matches!(u, Upcall::Delivered { to, .. } if to.as_u32() == 2))
            .count();
        // Node 2 hears both beacons (senders deferred to each other, with
        // high probability under different backoff draws).
        assert_eq!(delivered_to_2, 2);
        assert_eq!(e.stats().class(TrafficClass::Beacon).collisions, 0);
    }

    #[test]
    fn hidden_terminals_collide_at_receiver() {
        // Senders at 0 and 120 cannot hear each other (63 m range) but
        // both reach the middle node at 60: a classic hidden-terminal
        // collision corrupting both frames.
        let mut e = line_engine_seeded(
            &[(0.0, 0.0), (120.0, 0.0), (60.0, 0.0)],
            &[NodeClass::Sensor; 3],
            colliding_seed(),
        );
        let ups = run(
            &mut e,
            vec![
                (0.0, frame(0, None, TrafficClass::Beacon)),
                (0.0, frame(1, None, TrafficClass::Beacon)),
            ],
        );
        let delivered_to_2 = ups
            .iter()
            .filter(|(_, u)| matches!(u, Upcall::Delivered { to, .. } if to.as_u32() == 2))
            .count();
        // Both senders draw their backoff independently; the frames can
        // only avoid collision if their airtimes do not overlap at all.
        // With identical send times, same CW and 238 µs airtime over a
        // 620 µs contention spread, overlap is likely but not certain —
        // assert the *accounting* is consistent rather than the outcome.
        let collisions = e.stats().class(TrafficClass::Beacon).collisions;
        assert_eq!(
            delivered_to_2 == 2,
            collisions == 0,
            "either both delivered cleanly or a collision was recorded"
        );
        // With this seed the backoffs do overlap.
        assert!(collisions > 0, "seed chosen to exhibit the collision");
        assert_eq!(delivered_to_2, 0, "corrupted frames are not delivered");
    }

    #[test]
    fn unicast_retry_succeeds_after_collision() {
        // Hidden terminals with unicast: the data frames collide at the
        // receiver, but retransmissions (new backoff draws) eventually
        // get through — delivery ratio stays 100% as the paper observes.
        let mut e = line_engine_seeded(
            &[(0.0, 0.0), (120.0, 0.0), (60.0, 0.0)],
            &[NodeClass::Sensor; 3],
            colliding_seed(),
        );
        let ups = run(
            &mut e,
            vec![
                (0.0, frame(0, Some(2), TrafficClass::FailureReport)),
                (0.0, frame(1, Some(2), TrafficClass::FailureReport)),
            ],
        );
        let ok = ups
            .iter()
            .filter(|(_, u)| matches!(u, Upcall::TxComplete { ok: true, .. }))
            .count();
        assert_eq!(ok, 2, "both unicasts eventually delivered");
        let s = e.stats().class(TrafficClass::FailureReport);
        assert_eq!(s.delivered, 2);
        assert!(s.data_tx > 2, "retransmissions happened");
    }

    #[test]
    fn dead_receiver_gets_nothing() {
        let mut e = line_engine(&[(0.0, 0.0), (40.0, 0.0)], &[NodeClass::Sensor; 2]);
        e.set_alive(NodeId::new(1), false);
        let ups = run(&mut e, vec![(0.0, frame(0, Some(1), TrafficClass::Beacon))]);
        assert!(!ups
            .iter()
            .any(|(_, u)| matches!(u, Upcall::Delivered { .. })));
        assert!(ups
            .iter()
            .any(|(_, u)| matches!(u, Upcall::TxComplete { ok: false, .. })));
    }

    #[test]
    fn dead_sender_send_ignored() {
        let mut e = line_engine(&[(0.0, 0.0), (40.0, 0.0)], &[NodeClass::Sensor; 2]);
        e.set_alive(NodeId::new(0), false);
        let ups = run(&mut e, vec![(0.0, frame(0, None, TrafficClass::Beacon))]);
        assert!(ups.is_empty());
        assert_eq!(e.stats().total_tx(), 0);
        assert!(e.is_idle(NodeId::new(0)));
    }

    #[test]
    fn revived_node_participates_again() {
        let mut e = line_engine(&[(0.0, 0.0), (40.0, 0.0)], &[NodeClass::Sensor; 2]);
        e.set_alive(NodeId::new(1), false);
        e.set_alive(NodeId::new(1), true);
        let ups = run(&mut e, vec![(0.0, frame(0, Some(1), TrafficClass::Beacon))]);
        assert!(ups
            .iter()
            .any(|(_, u)| matches!(u, Upcall::Delivered { .. })));
    }

    /// One step of a differential MAC run: a frame handed to the
    /// engine (its payload is the step's index), or a node's death or
    /// revival.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Send {
            src: u32,
            dst: Option<u32>,
            bytes: u32,
        },
        Kill(u32),
        Revive(u32),
    }

    /// Drives `engine` through `ops` (each at its microsecond) and checks
    /// every (frame, receiver) outcome against a reference that keeps an
    /// explicit set of the frames arriving at each node: a new arrival
    /// collides with (and corrupts) every frame in the receiver's set,
    /// the receiver's own transmission corrupts its set, and its death
    /// corrupts and empties it. A transmission delivers the frame that
    /// went on the air, and nothing once its sender has died during it.
    /// Returns the deliveries as `(payload, receiver)` pairs, for tests
    /// that look at one scenario.
    fn check_against_reference(
        engine: &mut RadioEngine<u32>,
        ops: &[(u64, Op)],
    ) -> Vec<(u32, u32)> {
        use std::collections::HashMap;
        #[derive(Debug)]
        enum Ev {
            Op(Op, u32),
            Radio(RadioEvent),
        }
        let n = engine.medium().len();
        let mut sched: Scheduler<Ev> = Scheduler::new();
        for (i, &(at, op)) in ops.iter().enumerate() {
            sched.schedule_at(SimTime::from_micros(at), Ev::Op(op, i as u32));
        }
        let mut incoming: Vec<Vec<u64>> = vec![Vec::new(); n];
        // Per live transmission: (receiver, corrupted) in engine order.
        let mut reference: HashMap<u64, Vec<(NodeId, bool)>> = HashMap::new();
        // Per live transmission: its sender and the (payload,
        // destination) of the frame on the air, `None` once the sender
        // died during it.
        type Aired = (NodeId, Option<(u32, Option<NodeId>)>);
        let mut aired: HashMap<u64, Aired> = HashMap::new();
        let mut delivered = Vec::new();
        let mut out = UpcallBuf::new();
        while let Some(ev) = sched.next_event() {
            let now = sched.now();
            let mut pending: Vec<(SimTime, RadioEvent)> = Vec::new();
            let mut cb = |at: SimTime, e: RadioEvent| pending.push((at, e));
            match ev {
                Ev::Op(Op::Send { src, dst, bytes }, payload) => {
                    let frame = Frame {
                        src: NodeId::new(src),
                        dst: dst.map(NodeId::new),
                        bytes,
                        class: TrafficClass::Other,
                        payload,
                    };
                    engine.send(now, frame, &mut cb);
                }
                Ev::Op(Op::Kill(node), _) => {
                    engine.set_alive(NodeId::new(node), false);
                    for (src, frame) in aired.values_mut() {
                        if src.as_u32() == node {
                            *frame = None;
                        }
                    }
                    for tx in incoming[node as usize].drain(..) {
                        for r in reference.get_mut(&tx).unwrap() {
                            r.1 |= r.0.as_u32() == node;
                        }
                    }
                }
                Ev::Op(Op::Revive(node), _) => engine.set_alive(NodeId::new(node), true),
                Ev::Radio(RadioEvent::TryAccess { node }) => {
                    let transmitting: Vec<bool> = engine
                        .hot
                        .iter()
                        .map(|h| h.state == MacState::Transmitting)
                        .collect();
                    let hearers = engine.medium().hearers(node);
                    engine.handle(now, RadioEvent::TryAccess { node }, &mut cb, &mut out);
                    let Some(&(_, RadioEvent::TxEnd { tx })) = pending.last() else {
                        continue_after(&mut sched, pending);
                        continue;
                    };
                    // The frame started: the sender's own arrivals are
                    // corrupted, then each receiver's.
                    let mut corrupt = |txs: &[u64], at: NodeId| {
                        for t in txs {
                            for r in reference.get_mut(t).unwrap() {
                                r.1 |= r.0 == at;
                            }
                        }
                    };
                    corrupt(&incoming[node.index()], node);
                    let arrivals = engine.txs[tx_slot(tx)].receivers.clone();
                    let mut entry = Vec::new();
                    for a in &arrivals {
                        let h = a.node;
                        assert!(hearers.contains(&h), "{h} cannot hear {node}");
                        assert!(!transmitting[h.index()], "half-duplex {h}");
                        let collided = !incoming[h.index()].is_empty();
                        assert_eq!(a.collided, collided, "collision flag at {h}");
                        corrupt(&incoming[h.index()], h);
                        incoming[h.index()].push(tx);
                        entry.push((h, collided));
                    }
                    if matches!(engine.medium().fading(), Fading::None) {
                        let expect: Vec<NodeId> = hearers
                            .iter()
                            .copied()
                            .filter(|h| !transmitting[h.index()])
                            .collect();
                        let got: Vec<NodeId> = arrivals.iter().map(|a| a.node).collect();
                        assert_eq!(got, expect, "receivers of {node}'s frame");
                    }
                    reference.insert(tx, entry);
                    let f = engine.nodes[node.index()]
                        .queue
                        .front()
                        .expect("an aired frame");
                    aired.insert(tx, (node, Some((f.payload, f.dst))));
                }
                Ev::Radio(RadioEvent::TxEnd { tx }) => {
                    let entry = reference.remove(&tx).expect("started transmission");
                    let slot = &engine.txs[tx_slot(tx)];
                    for (a, &(h, corrupted)) in slot.receivers.iter().zip(&entry) {
                        assert_eq!(a.node, h);
                        let intact = !a.collided && a.epoch == engine.hot[h.index()].epoch;
                        assert_eq!(intact, !corrupted, "outcome of tx {tx:x} at {h}");
                    }
                    for &(h, _) in &entry {
                        incoming[h.index()].retain(|&t| t != tx);
                    }
                    let (_, frame) = aired.remove(&tx).expect("aired transmission");
                    let expect: Vec<u32> = match frame {
                        None => Vec::new(),
                        Some((_, dst)) => entry
                            .iter()
                            .filter(|&&(h, corrupted)| {
                                !corrupted
                                    && engine.medium().is_alive(h)
                                    && dst.is_none_or(|d| d == h)
                            })
                            .map(|&(h, _)| h.as_u32())
                            .collect(),
                    };
                    engine.handle(now, RadioEvent::TxEnd { tx }, &mut cb, &mut out);
                    let got: Vec<u32> = out
                        .entries()
                        .iter()
                        .filter_map(|e| match *e {
                            UpcallEntry::Delivered { to, frame: fi, .. } => {
                                let payload = out.frame(fi).payload;
                                assert_eq!(Some(payload), frame.map(|f| f.0), "frame of tx {tx:x}");
                                delivered.push((payload, to.as_u32()));
                                Some(to.as_u32())
                            }
                            _ => None,
                        })
                        .collect();
                    assert_eq!(got, expect, "deliveries of tx {tx:x}");
                }
                Ev::Radio(r) => engine.handle(now, r, &mut cb, &mut out),
            }
            out.clear();
            continue_after(&mut sched, pending);
        }
        fn continue_after(sched: &mut Scheduler<Ev>, pending: Vec<(SimTime, RadioEvent)>) {
            for (at, e) in pending {
                sched.schedule_at(at, Ev::Radio(e));
            }
        }
        for (node, set) in incoming.iter().enumerate() {
            assert!(set.is_empty(), "node {node} still receiving at quiescence");
            let hot = &engine.hot[node];
            assert_eq!(hot.arriving, 0, "node {node} arrival count leaked");
        }
        delivered
    }

    #[test]
    fn prop_mac_outcomes_match_explicit_incoming_sets() {
        use robonet_des::check::{self, Outcome};
        // Small fields (a few nodes within a couple of ranges) so frames
        // overlap at shared receivers; the last node may be a robot.
        let coord = check::u32s(0..31).map(|&v| f64::from(v) * 5.0);
        let nodes = check::vec_of(check::pair(coord.clone(), coord), 2..8);
        let op = check::quad(
            check::u32s(0..3_000),
            check::u32s(0..10),
            check::u32s(0..8),
            check::u32s(0..9),
        );
        let field = check::quad(
            nodes,
            check::vec_of(op, 1..40),
            check::bools(),
            check::pair(check::bools(), check::u64s(0..1_000)),
        );
        check::forall_cases(
            "mac_outcomes_match_explicit_incoming_sets",
            256,
            &field,
            |(nodes, ops, robot_last, (fading, seed))| {
                let n = nodes.len() as u32;
                let pts: Vec<Point> = nodes.iter().map(|&(x, y)| Point::new(x, y)).collect();
                let mut classes = vec![NodeClass::Sensor; pts.len()];
                if *robot_last {
                    classes[pts.len() - 1] = NodeClass::Robot;
                }
                let mut medium =
                    Medium::new(Bounds::square(150.0), RangeTable::default(), &pts, &classes);
                if *fading {
                    medium = medium.with_fading(Fading::SmoothEdge { inner: 0.4 });
                }
                let mut engine = RadioEngine::new(
                    medium,
                    MacParams::default(),
                    Xoshiro256::seed_from_u64(*seed),
                );
                let ops: Vec<(u64, Op)> = ops
                    .iter()
                    .map(|&(at, kind, a, b)| {
                        let (a, b) = (a % n, b % (n + 1));
                        let op = match kind {
                            0 => Op::Kill(a),
                            1 => Op::Revive(a),
                            // Broadcast or unicast (to any node, itself
                            // and the unreachable included), 20–1000 B.
                            k => Op::Send {
                                src: a,
                                dst: (b < n).then_some(b),
                                bytes: 20 + k * 120,
                            },
                        };
                        (u64::from(at), op)
                    })
                    .collect();
                check_against_reference(&mut engine, &ops);
                Outcome::Pass
            },
        );
    }

    #[test]
    fn death_and_revival_mid_frame_detach_the_old_arrivals() {
        // A, C and D are hidden from each other; B hears all three. B
        // dies and revives while A's long frame is on the air. C's
        // longer frame then arrives at B: it does not collide with A's,
        // which B's death detached. A's frame ends while C's is still
        // arriving, and D's short frame arrives after that: D's collides
        // with C's, so neither reaches B — A's ending released nothing
        // that C's arrival still holds.
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(50.0, 0.0),
            Point::new(100.0, 0.0),
            Point::new(50.0, 50.0),
        ];
        let medium = Medium::new(
            Bounds::square(150.0),
            RangeTable::default(),
            &pts,
            &[NodeClass::Sensor; 4],
        );
        let mut e = RadioEngine::new(medium, MacParams::default(), Xoshiro256::seed_from_u64(3));
        let send = |src, bytes| Op::Send {
            src,
            dst: None,
            bytes,
        };
        let delivered = check_against_reference(
            &mut e,
            &[
                (0, send(0, 4_000)),
                (800, Op::Kill(1)),
                (900, Op::Revive(1)),
                (900, send(2, 8_000)),
                (4_000, send(3, 64)),
            ],
        );
        assert!(delivered.is_empty(), "B receives nothing: {delivered:?}");
        assert_eq!(e.stats().class(TrafficClass::Other).collisions, 1);

        // Without D, C's frame reaches B intact.
        let medium = Medium::new(
            Bounds::square(150.0),
            RangeTable::default(),
            &pts,
            &[NodeClass::Sensor; 4],
        );
        let mut e = RadioEngine::new(medium, MacParams::default(), Xoshiro256::seed_from_u64(3));
        let delivered = check_against_reference(
            &mut e,
            &[
                (0, send(0, 4_000)),
                (800, Op::Kill(1)),
                (900, Op::Revive(1)),
                (900, send(2, 8_000)),
            ],
        );
        assert_eq!(delivered, vec![(3, 1)], "only C's frame reaches B");
        assert_eq!(e.stats().class(TrafficClass::Other).collisions, 0);
    }

    #[test]
    fn a_frame_queued_after_a_revival_is_not_delivered_by_the_orphaned_transmission() {
        // A airs 4000 B, dies at 0.8 ms, revives and queues 64 B at
        // 0.9 ms, before the old frame's end. The old transmission
        // delivers nothing; the 64 B frame reaches B only through an
        // air time of its own, so A transmits twice.
        let medium = Medium::new(
            Bounds::square(150.0),
            RangeTable::default(),
            &[Point::new(0.0, 0.0), Point::new(50.0, 0.0)],
            &[NodeClass::Sensor; 2],
        );
        let mut e = RadioEngine::new(medium, MacParams::default(), Xoshiro256::seed_from_u64(3));
        let send = |bytes| Op::Send {
            src: 0,
            dst: None,
            bytes,
        };
        let delivered = check_against_reference(
            &mut e,
            &[
                (0, send(4_000)),
                (800, Op::Kill(0)),
                (900, Op::Revive(0)),
                (900, send(64)),
            ],
        );
        assert_eq!(
            delivered,
            vec![(3, 1)],
            "only the 64 B frame's own air time delivers it"
        );
        assert_eq!(e.stats().class(TrafficClass::Other).data_tx, 2);
    }

    #[test]
    fn prop_receive_counters_match_explicit_sets() {
        // One node's receive state under any interleaving of arrivals,
        // ends, its own transmissions and deaths — including orders the
        // engine's carrier sense makes rare, such as a node transmitting
        // while a frame is still arriving — against an explicit set.
        use robonet_des::check::{self, Outcome};
        let step = check::pair(check::u32s(0..4), check::u32s(0..8));
        check::forall_cases(
            "receive_counters_match_explicit_sets",
            512,
            &check::vec_of(step, 0..60),
            |steps| {
                let mut hot = HotNode::default();
                // Frames on the air here: (arrival, corrupted per the
                // explicit model, still in the node's set).
                let mut live: Vec<(Arrival, bool, bool)> = Vec::new();
                for &(kind, pick) in steps {
                    match kind {
                        0 => {
                            let collided = live.iter().any(|l| l.2);
                            for l in live.iter_mut().filter(|l| l.2) {
                                l.1 = true;
                            }
                            let (c, epoch) = hot.arrive();
                            assert_eq!(c, collided);
                            let a = Arrival {
                                node: NodeId::new(0),
                                epoch,
                                link: 0,
                                collided,
                            };
                            live.push((a, collided, true));
                        }
                        1 if !live.is_empty() => {
                            let (a, corrupted, _) = live.remove(pick as usize % live.len());
                            assert_eq!(hot.finish(&a), !corrupted);
                        }
                        2 => {
                            hot.jam();
                            for l in live.iter_mut().filter(|l| l.2) {
                                l.1 = true;
                            }
                        }
                        _ => {
                            hot.detach();
                            for l in &mut live {
                                l.1 |= l.2;
                                l.2 = false;
                            }
                        }
                    }
                    let attached = live.iter().filter(|l| l.2).count();
                    assert_eq!(hot.arriving as usize, attached);
                }
                Outcome::Pass
            },
        );
    }

    #[test]
    fn throughput_many_beacons_all_complete() {
        // 20 sensors in a cluster, each beaconing 5 times: every beacon
        // transmission completes and the channel never deadlocks.
        let positions: Vec<(f64, f64)> = (0..20)
            .map(|i| ((i % 5) as f64 * 10.0, (i / 5) as f64 * 10.0))
            .collect();
        let mut e = line_engine(&positions, &[NodeClass::Sensor; 20]);
        let mut sends = Vec::new();
        for round in 0..5 {
            for i in 0..20u32 {
                sends.push((round as f64 * 10.0, frame(i, None, TrafficClass::Beacon)));
            }
        }
        let ups = run(&mut e, sends);
        let completes = ups
            .iter()
            .filter(|(_, u)| matches!(u, Upcall::TxComplete { .. }))
            .count();
        assert_eq!(completes, 100);
        assert_eq!(e.stats().data_tx(TrafficClass::Beacon), 100);
    }
}
