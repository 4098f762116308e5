//! The network under the hosts: the event queue, the fabric, and the map
//! of which node sits at which fabric device.
//!
//! Everything a node sends goes through [`Net::send`]. Because `Net` is a
//! field disjoint from the nodes, a pump can hand each packet to the
//! fabric the moment its connection produces it — no staging buffer.

use ebs_net::{DeviceId, Fabric, FabricConfig, FabricPacket, FailureMode, NetEvent, Topology};
use ebs_sim::{EventQueue, MapScheduler, SimDuration, SimTime};

use crate::testbed::{Event, Msg, TestbedConfig};

/// A message on (or headed for) the fabric.
pub(crate) type Packet = FabricPacket<Msg>;

/// What lives at a fabric device, if anything (switches carry no node).
#[derive(Clone, Copy)]
pub(crate) enum NodeSlot {
    None,
    Compute(u32),
    Storage(u32),
    /// The shard boundary: packets delivered here leave the shard.
    Gateway,
}

pub(crate) struct Net {
    pub q: EventQueue<Event>,
    pub fabric: Fabric<Msg>,
    /// Total bytes handed to the fabric (every transport, both
    /// directions) — the bytes-moved metric the pushdown placement bench
    /// compares.
    pub fabric_bytes: u64,
    /// Dense device → node map indexed by `DeviceId.0`; resolves each
    /// delivered packet's destination in one array load on the hottest
    /// testbed path.
    node_of_device: Vec<NodeSlot>,
    compute_devs: Vec<DeviceId>,
    storage_devs: Vec<DeviceId>,
    /// The shard boundary device, when `cfg.gateway` reserved one.
    pub gateway: Option<DeviceId>,
}

impl Net {
    /// Build the fabric and seat the nodes: compute servers take server
    /// slots from the front, storage servers from the end — with the
    /// `small()` geometry that lands them in different pods — and the
    /// gateway, if any, takes the first spare slot after the compute
    /// cluster.
    ///
    /// # Panics
    /// Panics if the fabric has fewer server slots than the nodes need.
    pub(crate) fn new(cfg: &TestbedConfig) -> Net {
        let topo = Topology::build(cfg.fabric.clone());
        let n_slots = topo.servers().len();
        assert!(
            n_slots >= cfg.n_compute + cfg.n_storage,
            "fabric too small: {n_slots} slots for {} servers",
            cfg.n_compute + cfg.n_storage
        );
        let fabric = Fabric::new(
            topo,
            FabricConfig {
                routing_convergence: cfg.routing_convergence,
                seed: cfg.seed,
                ecn: cfg.ecn,
            },
        );
        let servers = fabric.topology().servers();
        let mut node_of_device = vec![NodeSlot::None; fabric.topology().devices().len()];
        let compute_devs = servers[..cfg.n_compute].to_vec();
        let storage_devs = servers[n_slots - cfg.n_storage..].to_vec();
        for (i, d) in compute_devs.iter().enumerate() {
            node_of_device[d.0 as usize] = NodeSlot::Compute(i as u32);
        }
        for (j, d) in storage_devs.iter().enumerate() {
            node_of_device[d.0 as usize] = NodeSlot::Storage(j as u32);
        }
        let gateway = cfg.gateway.then(|| {
            assert!(
                n_slots > cfg.n_compute + cfg.n_storage,
                "no spare server slot for the shard gateway"
            );
            let device = servers[cfg.n_compute];
            node_of_device[device.0 as usize] = NodeSlot::Gateway;
            device
        });
        Net {
            q: EventQueue::new(),
            fabric,
            fabric_bytes: 0,
            node_of_device,
            compute_devs,
            storage_devs,
            gateway,
        }
    }

    pub(crate) fn node_at(&self, device: DeviceId) -> NodeSlot {
        self.node_of_device[device.0 as usize]
    }

    pub(crate) fn compute_dev(&self, compute: u32) -> DeviceId {
        self.compute_devs[compute as usize]
    }

    pub(crate) fn storage_dev(&self, storage: u32) -> DeviceId {
        self.storage_devs[storage as usize]
    }

    /// Hand a packet to the fabric.
    pub(crate) fn send(&mut self, now: SimTime, pkt: Packet) {
        self.fabric_bytes += pkt.size as u64;
        let mut sched = MapScheduler::new(&mut self.q, Event::Net);
        let looped = self.fabric.send(now, pkt, &mut sched);
        // The fabric only returns a packet when src == dst, and no two
        // nodes (or a node and the gateway) share a device.
        assert!(looped.is_none(), "fabric loopback between distinct nodes");
    }

    /// Arm a node's host timer for deadline `t` unless an earlier one is
    /// already pending in `timer_at`. Every pump arms its walked
    /// connections' earliest deadline, so between events `timer_at` is at
    /// or before every connection's `poll_timer()`: what lets a pump walk
    /// only the connections an event touched ([`walk`]).
    pub(crate) fn arm(
        &mut self,
        timer_at: &mut Option<SimTime>,
        t: SimTime,
        now: SimTime,
        ev: Event,
    ) {
        if timer_at.is_none_or(|cur| t < cur) {
            *timer_at = Some(t);
            self.q.schedule_at(t.max(now), ev);
        }
    }

    /// Advance the fabric by one of its own events; returns the packet if
    /// it just reached its destination server.
    pub(crate) fn handle(&mut self, now: SimTime, ev: NetEvent) -> Option<Packet> {
        let mut sched = MapScheduler::new(&mut self.q, Event::Net);
        self.fabric.handle(now, ev, &mut sched)
    }

    pub(crate) fn inject_failure(
        &mut self,
        device: DeviceId,
        mode: FailureMode,
        convergence: Option<SimDuration>,
    ) {
        let mut sched = MapScheduler::new(&mut self.q, Event::Net);
        match convergence {
            Some(c) => self.fabric.inject_failure_with(device, mode, c, &mut sched),
            None => self.fabric.inject_failure(device, mode, &mut sched),
        }
    }
}

/// One node's connections, indexed by peer id. Peers are dense
/// (`0..n_storage` or `0..n_compute`), so a delivered packet finds its
/// connection with one index, and walks go in ascending peer order.
pub(crate) struct ConnTable<C>(Vec<Option<C>>);

impl<C> ConnTable<C> {
    pub(crate) fn new() -> Self {
        ConnTable(Vec::new())
    }

    /// The connection to `peer`, opened with `open` on first contact.
    pub(crate) fn get_or_insert_with(&mut self, peer: u32, open: impl FnOnce() -> C) -> &mut C {
        let i = peer as usize;
        self.0.resize_with(self.0.len().max(i + 1), || None);
        self.0[i].get_or_insert_with(open)
    }

    pub(crate) fn get_mut(&mut self, peer: u32) -> Option<&mut C> {
        self.0.get_mut(peer as usize)?.as_mut()
    }

    pub(crate) fn values(&self) -> impl Iterator<Item = &C> {
        self.0.iter().flatten()
    }

    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut C> {
        self.0.iter_mut().flatten()
    }
}

/// The connections a pump or completion drain visits, in peer order: the
/// ones `keys` names (any order, repeats allowed), or every one for `None`.
pub(crate) fn walk<'a, C>(
    conns: &'a mut ConnTable<C>,
    keys: Option<&'a [u32]>,
) -> impl Iterator<Item = &'a mut C> {
    // One index range either way: a single key is a one-slot range.
    let bounds = keys.unwrap_or(&[0, u32::MAX]);
    let lo = bounds.iter().min().map_or(usize::MAX, |&k| k as usize);
    let hi = bounds.iter().max().map_or(0, |&k| k as usize + 1);
    let hi = hi.min(conns.0.len());
    let slots = conns.0.get_mut(lo..hi).unwrap_or_default();
    slots
        .iter_mut()
        .zip(lo as u32..)
        .filter(move |(_, k)| keys.is_none_or(|ks| ks.contains(k)))
        .filter_map(|(c, _)| c.as_mut())
}

/// The connections a pump walks: the ones `keys` names (those its event
/// touched), or every one (`None`) while the host timer `timer_at` is due,
/// since only then can another hold a due RTO or probe. Debug builds check
/// the premise (DESIGN.md §7.11 invariant 2): no untouched connection has a
/// deadline before `timer_at`, or any deadline when no timer is armed.
pub(crate) fn pump_keys<'a, C>(
    conns: &ConnTable<C>,
    keys: Option<&'a [u32]>,
    timer_at: Option<SimTime>,
    now: SimTime,
    poll_timer: impl Fn(&C) -> Option<SimTime>,
) -> Option<&'a [u32]> {
    let keys = keys.filter(|_| timer_at.is_none_or(|t| t > now));
    debug_assert!(keys.is_none_or(|ks| {
        let covered = |t: SimTime| timer_at.is_some_and(|at| t >= at);
        let mut untouched = conns.0.iter().zip(0..).filter(|(_, k)| !ks.contains(k));
        untouched.all(|(c, _)| c.as_ref().and_then(&poll_timer).is_none_or(covered))
    }));
    keys
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::{walk, ConnTable};

    /// The walk the table replaced, over the map it replaced: one range
    /// from the smallest to the largest key, filtered by `keys`.
    fn map_walk<'a, C>(
        conns: &'a mut BTreeMap<u32, C>,
        keys: Option<&'a [u32]>,
    ) -> impl Iterator<Item = &'a mut C> {
        let bounds = keys.unwrap_or(&[0, u32::MAX]);
        let lo = bounds.iter().copied().min().unwrap_or(u32::MAX);
        let hi = bounds.iter().copied().max().unwrap_or(lo);
        conns
            .range_mut(lo..=hi)
            .filter(move |(k, _)| keys.is_none_or(|ks| ks.contains(k)))
            .map(|(_, c)| c)
    }

    /// A generated walk: `None` one time in four, else a key list whose
    /// ids are mostly near the table, some past its end, some at the far
    /// end of the id space.
    fn walk_keys(selector: u8, raw: &[(u8, u32, u32)]) -> Option<Vec<u32>> {
        let key = |&(pick, near, far): &(u8, u32, u32)| match pick {
            0 => u32::MAX,
            1 => far,
            _ => near,
        };
        (selector > 0).then(|| raw.iter().map(key).collect())
    }

    proptest! {
        /// Sparse peers opened in any order (repeats keep the first
        /// connection), then walks over arbitrary key lists — unsorted,
        /// repeated, absent, past the table, empty — and `None`: the table
        /// visits the same connections as the map, in the same order, once
        /// each, and so do `values` and `get_mut`.
        #[test]
        fn conn_table_walks_like_the_btree_map(
            peers in proptest::collection::vec(0u32..32, 0..24),
            walks in proptest::collection::vec(
                (0u8..4, proptest::collection::vec((0u8..10, 0u32..40, any::<u32>()), 0..6)),
                1..8,
            ),
        ) {
            let mut table = ConnTable::new();
            let mut map = BTreeMap::new();
            for (i, &p) in peers.iter().enumerate() {
                let opened = *table.get_or_insert_with(p, || (p, i));
                prop_assert_eq!(opened, *map.entry(p).or_insert((p, i)));
            }
            let all: Vec<(u32, usize)> = map.values().copied().collect();
            prop_assert_eq!(table.values().copied().collect::<Vec<_>>(), all.clone());
            prop_assert_eq!(table.values_mut().map(|c| *c).collect::<Vec<_>>(), all);
            for (selector, raw) in &walks {
                let keys = walk_keys(*selector, raw);
                let keys = keys.as_deref();
                let got: Vec<(u32, usize)> = walk(&mut table, keys).map(|c| *c).collect();
                let want: Vec<(u32, usize)> = map_walk(&mut map, keys).map(|c| *c).collect();
                prop_assert_eq!(&got, &want);
                let ascending = got.windows(2).all(|w| w[0].0 < w[1].0);
                prop_assert!(ascending, "out of order or visited twice: {got:?}");
                for &k in keys.unwrap_or_default() {
                    prop_assert_eq!(table.get_mut(k).copied(), map.get(&k).copied());
                }
            }
        }
    }
}
