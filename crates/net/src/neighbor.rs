//! Beacon-maintained neighbour tables.
//!
//! "To forward a packet, a node searches its neighbor table and forwards
//! the packet to its neighbor closest in geographic distance to the
//! destination's location" (paper §4.2). Tables are built from received
//! beacons and location broadcasts, and entries are evicted when a
//! neighbour's beacons stop (failure detection deletes the failed
//! neighbour, §4.2(a)).

use robonet_des::{NodeId, SimTime};
use robonet_geom::Point;

/// What a node knows about one neighbour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeighborEntry {
    /// The neighbour's last advertised location.
    pub loc: Point,
    /// When the neighbour was last heard from.
    pub last_heard: SimTime,
}

/// A node's view of its one-hop neighbourhood.
///
/// ```
/// use robonet_des::{NodeId, SimTime};
/// use robonet_geom::Point;
/// use robonet_net::NeighborTable;
///
/// let mut table = NeighborTable::new();
/// table.update(NodeId::new(1), Point::new(30.0, 0.0), SimTime::ZERO);
/// table.update(NodeId::new(2), Point::new(50.0, 0.0), SimTime::ZERO);
/// // Greedy forwarding: who is strictly closer to a far target?
/// let target = Point::new(200.0, 0.0);
/// let (next, _) = table.closest_to_within(target, 200.0 * 200.0).unwrap();
/// assert_eq!(next, NodeId::new(2));
/// ```
/// Sensors within the owner's range get *slots*: one record each, in a
/// single vector in id order, allocated once by
/// [`NeighborTable::init_slots`] (when the owner first hears a sensor's
/// beacon over a static link). A beacon
/// from a slot's sensor refreshes that record by position
/// ([`NeighborTable::refresh_slot`]), touching one cache line and no
/// search. Everyone else — robots, the manager, and every node of a
/// table without slots — stays in a list sorted by id. Either way a
/// node has at most one entry, and iteration merges both stores in id
/// order, so the table behaves exactly like one sorted map.
#[derive(Debug, Clone, Default)]
pub struct NeighborTable {
    /// In-range sensors in id order; empty until `init_slots`.
    slots: Vec<Slot>,
    /// Number of present slots.
    present: usize,
    /// Entries without a slot, sorted by id.
    ids: Vec<NodeId>,
    data: Vec<NeighborEntry>,
}

/// What [`NeighborTable::refresh_slot`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotRefresh {
    /// A present, unwatched slot was refreshed: nothing else to do.
    Refreshed,
    /// A present slot of a watched node (the owner's guardian or a
    /// guardee) was refreshed; the owner's watch timers still need it.
    Watched,
    /// The slot is absent and was left unchanged.
    Absent,
}

/// One slot: 32 bytes, aligned so a refresh reads and writes exactly
/// one cache line.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(align(32))]
struct Slot {
    id: NodeId,
    /// Whether the slot holds a live entry.
    present: bool,
    /// Whether the owner watches this node (its guardian or a guardee),
    /// so its beacons need more than a table refresh.
    watched: bool,
    entry: NeighborEntry,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 32);

impl NeighborTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        NeighborTable::default()
    }

    /// Whether [`NeighborTable::init_slots`] has run.
    pub fn has_slots(&self) -> bool {
        !self.slots.is_empty()
    }

    /// Allocates one absent, unwatched slot per id in `ids` (ascending)
    /// and moves any entry already listed for one of them into its
    /// slot. Call at most once, on a table without slots.
    pub fn init_slots(&mut self, ids: impl IntoIterator<Item = NodeId>) {
        debug_assert!(self.slots.is_empty(), "slots are allocated once");
        let unset = NeighborEntry {
            loc: Point::new(0.0, 0.0),
            last_heard: SimTime::ZERO,
        };
        self.slots.extend(ids.into_iter().map(|id| Slot {
            id,
            present: false,
            watched: false,
            entry: unset,
        }));
        debug_assert!(self.slots.windows(2).all(|w| w[0].id < w[1].id));
        let mut w = 0;
        for i in 0..self.ids.len() {
            if let Ok(k) = self.slot_of(self.ids[i]) {
                self.slots[k].present = true;
                self.slots[k].entry = self.data[i];
                self.present += 1;
            } else {
                self.ids[w] = self.ids[i];
                self.data[w] = self.data[i];
                w += 1;
            }
        }
        self.ids.truncate(w);
        self.data.truncate(w);
    }

    fn slot_of(&self, node: NodeId) -> Result<usize, usize> {
        self.slots.binary_search_by_key(&node, |s| s.id)
    }

    /// Refreshes slot `slot` (the rank of its node among the slot ids)
    /// with `loc` heard at `now`, if it is present, and says whether the
    /// owner watches its node. An absent slot is left unchanged: the
    /// caller then takes the general path ([`NeighborTable::update`]
    /// plus whatever watching the node involves).
    pub fn refresh_slot(&mut self, slot: usize, loc: Point, now: SimTime) -> SlotRefresh {
        let s = &mut self.slots[slot];
        if !s.present {
            return SlotRefresh::Absent;
        }
        s.entry = NeighborEntry {
            loc,
            last_heard: now,
        };
        if s.watched {
            SlotRefresh::Watched
        } else {
            SlotRefresh::Refreshed
        }
    }

    /// Marks whether the owner watches `node`; a node without a slot
    /// needs no mark (its beacons never take the slot path).
    pub fn set_watched(&mut self, node: NodeId, watched: bool) {
        if let Ok(k) = self.slot_of(node) {
            self.slots[k].watched = watched;
        }
    }

    /// Records hearing `node` at `loc` at time `now` (insert or refresh).
    pub fn update(&mut self, node: NodeId, loc: Point, now: SimTime) {
        let entry = NeighborEntry {
            loc,
            last_heard: now,
        };
        if let Ok(k) = self.slot_of(node) {
            let s = &mut self.slots[k];
            if !s.present {
                s.present = true;
                self.present += 1;
            }
            s.entry = entry;
            return;
        }
        match self.ids.binary_search(&node) {
            Ok(i) => self.data[i] = entry,
            Err(i) => {
                self.ids.insert(i, node);
                self.data.insert(i, entry);
            }
        }
    }

    /// Removes `node` (e.g. after detecting its failure). Returns `true`
    /// if it was present.
    pub fn remove(&mut self, node: NodeId) -> bool {
        if let Ok(k) = self.slot_of(node) {
            let s = &mut self.slots[k];
            let was = s.present;
            if was {
                s.present = false;
                self.present -= 1;
            }
            return was;
        }
        match self.ids.binary_search(&node) {
            Ok(i) => {
                self.ids.remove(i);
                self.data.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Drops every entry not heard from since `cutoff`.
    pub fn evict_stale(&mut self, cutoff: SimTime) {
        for s in &mut self.slots {
            if s.present && s.entry.last_heard < cutoff {
                s.present = false;
                self.present -= 1;
            }
        }
        let mut w = 0;
        for i in 0..self.ids.len() {
            if self.data[i].last_heard >= cutoff {
                self.ids[w] = self.ids[i];
                self.data[w] = self.data[i];
                w += 1;
            }
        }
        self.ids.truncate(w);
        self.data.truncate(w);
    }

    /// Looks up a neighbour.
    pub fn get(&self, node: NodeId) -> Option<&NeighborEntry> {
        if let Ok(k) = self.slot_of(node) {
            let s = &self.slots[k];
            return s.present.then_some(&s.entry);
        }
        self.ids.binary_search(&node).ok().map(|i| &self.data[i])
    }

    /// Returns `true` if `node` is a known neighbour.
    pub fn contains(&self, node: NodeId) -> bool {
        self.get(node).is_some()
    }

    /// Number of known neighbours.
    pub fn len(&self) -> usize {
        self.present + self.ids.len()
    }

    /// Removes every entry and watch mark, keeping the allocations and
    /// the slots (so a scratch table can be refilled without
    /// reallocating).
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            s.present = false;
            s.watched = false;
        }
        self.present = 0;
        self.ids.clear();
        self.data.clear();
    }

    /// Returns `true` if no neighbours are known.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over `(id, entry)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &NeighborEntry)> {
        let mut slots = self
            .slots
            .iter()
            .filter(|s| s.present)
            .map(|s| (s.id, &s.entry))
            .peekable();
        let mut listed = self.ids.iter().copied().zip(self.data.iter()).peekable();
        std::iter::from_fn(move || match (slots.peek(), listed.peek()) {
            (Some(a), Some(b)) if b.0 < a.0 => listed.next(),
            (Some(_), _) => slots.next(),
            (None, _) => listed.next(),
        })
    }

    /// The neighbour closest to `target` among those *strictly* closer
    /// than `threshold_sq` (squared distance) — the greedy-forwarding
    /// candidate set.
    pub fn closest_to_within(
        &self,
        target: Point,
        threshold_sq: f64,
    ) -> Option<(NodeId, &NeighborEntry)> {
        self.iter()
            .filter(|(_, e)| e.loc.distance_sq(target) < threshold_sq)
            .min_by(|(a_id, a), (b_id, b)| {
                a.loc
                    .distance_sq(target)
                    .partial_cmp(&b.loc.distance_sq(target))
                    .expect("non-finite neighbour location")
                    .then(a_id.cmp(b_id))
            })
    }

    /// The nearest neighbour to `self_loc` — how a sensor picks its
    /// guardian ("picks its nearest neighbor as its guardian", §3.1).
    /// `filter` restricts candidates (e.g. same subarea in the fixed
    /// algorithm, sensors only).
    pub fn nearest(
        &self,
        self_loc: Point,
        mut filter: impl FnMut(NodeId) -> bool,
    ) -> Option<NodeId> {
        self.iter()
            .filter(|(id, _)| filter(*id))
            .min_by(|(a_id, a), (b_id, b)| {
                a.loc
                    .distance_sq(self_loc)
                    .partial_cmp(&b.loc.distance_sq(self_loc))
                    .expect("non-finite neighbour location")
                    .then(a_id.cmp(b_id))
            })
            .map(|(id, _)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn table() -> NeighborTable {
        let mut nt = NeighborTable::new();
        nt.update(NodeId::new(1), p(10.0, 0.0), t(1.0));
        nt.update(NodeId::new(2), p(20.0, 0.0), t(2.0));
        nt.update(NodeId::new(3), p(0.0, 30.0), t(3.0));
        nt
    }

    #[test]
    fn update_and_lookup() {
        let mut nt = table();
        assert_eq!(nt.len(), 3);
        assert!(nt.contains(NodeId::new(2)));
        assert_eq!(nt.get(NodeId::new(1)).unwrap().loc, p(10.0, 0.0));
        // Refresh moves the location and timestamp.
        nt.update(NodeId::new(1), p(11.0, 0.0), t(5.0));
        assert_eq!(nt.len(), 3);
        let e = nt.get(NodeId::new(1)).unwrap();
        assert_eq!(e.loc, p(11.0, 0.0));
        assert_eq!(e.last_heard, t(5.0));
    }

    #[test]
    fn remove_and_empty() {
        let mut nt = table();
        assert!(nt.remove(NodeId::new(2)));
        assert!(!nt.remove(NodeId::new(2)));
        assert_eq!(nt.len(), 2);
        assert!(!nt.is_empty());
    }

    #[test]
    fn evict_stale_drops_old_entries() {
        let mut nt = table();
        nt.evict_stale(t(2.5));
        assert!(!nt.contains(NodeId::new(1)));
        assert!(!nt.contains(NodeId::new(2)));
        assert_eq!(nt.len(), 1);
        assert!(nt.contains(NodeId::new(3)));
    }

    #[test]
    fn a_listed_sensor_moves_into_its_slot() {
        // Heard first through the general path (no link yet: say a
        // partition was up), then over its link: one entry, not two.
        let mut nt = NeighborTable::new();
        nt.update(NodeId::new(5), p(1.0, 0.0), t(1.0));
        nt.update(NodeId::new(9), p(2.0, 0.0), t(1.0));
        nt.init_slots([3, 5, 7].map(NodeId::new));
        assert_eq!(
            nt.refresh_slot(1, p(1.5, 0.0), t(2.0)),
            SlotRefresh::Refreshed
        );
        assert_eq!(
            nt.refresh_slot(0, p(0.0, 3.0), t(2.0)),
            SlotRefresh::Absent,
            "3 is absent"
        );
        assert_eq!(nt.len(), 2);
        let ids: Vec<u32> = nt.iter().map(|(id, _)| id.as_u32()).collect();
        assert_eq!(ids, vec![5, 9]);
        assert_eq!(nt.get(NodeId::new(5)).unwrap().last_heard, t(2.0));
        // And the other way round: a slot sensor heard through `update`
        // after the slots exist lands in its slot.
        nt.update(NodeId::new(7), p(3.0, 0.0), t(3.0));
        assert_eq!(
            nt.refresh_slot(2, p(3.0, 1.0), t(4.0)),
            SlotRefresh::Refreshed
        );
        let ids: Vec<u32> = nt.iter().map(|(id, _)| id.as_u32()).collect();
        assert_eq!(ids, vec![5, 7, 9]);
        nt.set_watched(NodeId::new(7), true);
        assert_eq!(
            nt.refresh_slot(2, p(9.0, 9.0), t(5.0)),
            SlotRefresh::Watched
        );
        assert_eq!(nt.get(NodeId::new(7)).unwrap().loc, p(9.0, 9.0));
    }

    #[test]
    fn prop_slotted_table_equals_sorted_map() {
        use robonet_des::check::{self, Outcome};
        use std::collections::BTreeMap;
        // Ids 0..8 are sensors (slot candidates), 8..12 robots or the
        // manager (never slotted).
        let op = check::quad(
            check::u32s(0..8),
            check::u32s(0..12),
            check::u32s(0..40),
            check::bools(),
        );
        let cfg = check::triple(
            check::vec_of(op, 0..80),
            check::u32s(0..256),
            check::u32s(0..80),
        );
        check::forall_cases(
            "slotted_table_equals_sorted_map",
            512,
            &cfg,
            |(ops, slot_mask, init_at)| {
                let slot_ids: Vec<NodeId> = (0..8)
                    .filter(|i| slot_mask & (1 << i) != 0)
                    .map(NodeId::new)
                    .collect();
                let mut nt = NeighborTable::new();
                let mut model: BTreeMap<NodeId, NeighborEntry> = BTreeMap::new();
                let mut watched = [false; 12];
                for (step, &(kind, id, tick, flag)) in ops.iter().enumerate() {
                    if step == *init_at as usize && !slot_ids.is_empty() {
                        nt.init_slots(slot_ids.iter().copied());
                        for (i, &w) in watched.iter().enumerate() {
                            nt.set_watched(NodeId::new(i as u32), w);
                        }
                    }
                    let node = NodeId::new(id);
                    let now = t(f64::from(tick));
                    let loc = p(f64::from(tick), f64::from(id));
                    let entry = NeighborEntry {
                        loc,
                        last_heard: now,
                    };
                    match kind {
                        // A beacon over a link: the slot refresh, or the
                        // general path when the slot is absent.
                        0..=2 => {
                            let rank = slot_ids.iter().position(|&s| s == node);
                            let refreshed = match rank {
                                Some(k) if nt.has_slots() => nt.refresh_slot(k, loc, now),
                                _ => SlotRefresh::Absent,
                            };
                            if refreshed == SlotRefresh::Absent {
                                nt.update(node, loc, now);
                            } else {
                                assert!(model.contains_key(&node), "refreshed an absent slot");
                                assert_eq!(
                                    refreshed == SlotRefresh::Watched,
                                    watched[id as usize],
                                    "watch mark of {id}"
                                );
                            }
                            model.insert(node, entry);
                        }
                        3 => {
                            nt.update(node, loc, now);
                            model.insert(node, entry);
                        }
                        4 => assert_eq!(nt.remove(node), model.remove(&node).is_some()),
                        5 => {
                            nt.evict_stale(now);
                            model.retain(|_, e| e.last_heard >= now);
                        }
                        6 if flag => {
                            nt.clear();
                            model.clear();
                            watched = [false; 12];
                        }
                        _ => {
                            nt.set_watched(node, flag);
                            watched[id as usize] = flag;
                        }
                    }
                    let got: Vec<(NodeId, NeighborEntry)> =
                        nt.iter().map(|(id, e)| (id, *e)).collect();
                    let want: Vec<(NodeId, NeighborEntry)> =
                        model.iter().map(|(&id, &e)| (id, e)).collect();
                    assert_eq!(got, want, "step {step}");
                    assert_eq!(nt.len(), model.len());
                    assert_eq!(nt.is_empty(), model.is_empty());
                    for i in 0..12 {
                        let n = NodeId::new(i);
                        assert_eq!(nt.get(n), model.get(&n), "get({i}) at step {step}");
                    }
                }
                Outcome::Pass
            },
        );
    }

    #[test]
    fn closest_to_target() {
        let nt = table();
        let (id, _) = nt.closest_to_within(p(25.0, 0.0), f64::INFINITY).unwrap();
        assert_eq!(id, NodeId::new(2));
        assert!(NeighborTable::new()
            .closest_to_within(p(0.0, 0.0), f64::INFINITY)
            .is_none());
    }

    #[test]
    fn greedy_candidate_respects_threshold() {
        let nt = table();
        let target = p(100.0, 0.0);
        // All three are > 70 m from the target; with threshold 75² only
        // node 2 qualifies (80 m away... 100-20=80 > 75, none qualify).
        assert!(nt.closest_to_within(target, 75.0 * 75.0).is_none());
        let (id, _) = nt.closest_to_within(target, 85.0 * 85.0).unwrap();
        assert_eq!(id, NodeId::new(2));
    }

    #[test]
    fn nearest_with_filter() {
        let nt = table();
        let me = p(0.0, 0.0);
        assert_eq!(nt.nearest(me, |_| true), Some(NodeId::new(1)));
        assert_eq!(
            nt.nearest(me, |id| id != NodeId::new(1)),
            Some(NodeId::new(2))
        );
        assert_eq!(nt.nearest(me, |_| false), None);
    }

    #[test]
    fn ties_break_by_id() {
        let mut nt = NeighborTable::new();
        nt.update(NodeId::new(9), p(10.0, 0.0), t(0.0));
        nt.update(NodeId::new(4), p(-10.0, 0.0), t(0.0));
        assert_eq!(nt.nearest(p(0.0, 0.0), |_| true), Some(NodeId::new(4)));
    }
}
