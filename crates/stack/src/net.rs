//! The network under the hosts: the event queue, the fabric, and the map
//! of which node sits at which fabric device.
//!
//! Everything a node sends goes through [`Net::send`]. Because `Net` is a
//! field disjoint from the nodes, a pump can hand each packet to the
//! fabric the moment its connection produces it — no staging buffer.

use std::collections::BTreeMap;

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

/// The connections a pump or completion drain visits, in key order: the
/// ones `keys` names (any order, repeats allowed), or every one for `None`.
pub(crate) fn walk<'a, C>(
    conns: &'a mut BTreeMap<u32, C>,
    keys: Option<&'a [u32]>,
) -> impl Iterator<Item = &'a mut C> {
    // One range walk either way: a single key is a one-entry range.
    let bounds = keys.unwrap_or(&[0, u32::MAX]);
    let lo = bounds.iter().copied().min().unwrap_or(u32::MAX);
    let hi = bounds.iter().copied().max().unwrap_or(lo);
    conns
        .range_mut(lo..=hi)
        .filter(move |(k, _)| keys.is_none_or(|ks| ks.contains(k)))
        .map(|(_, c)| c)
}

/// The connections a pump walks: the ones `keys` names (those its event
/// touched), or every one (`None`) while the host timer `timer_at` is due,
/// since only then can another hold a due RTO or probe. Debug builds check
/// the premise (DESIGN.md §7.11 invariant 2): no untouched connection has a
/// deadline before `timer_at`, or any deadline when no timer is armed.
pub(crate) fn pump_keys<'a, C>(
    conns: &BTreeMap<u32, C>,
    keys: Option<&'a [u32]>,
    timer_at: Option<SimTime>,
    now: SimTime,
    poll_timer: impl Fn(&C) -> Option<SimTime>,
) -> Option<&'a [u32]> {
    let keys = keys.filter(|_| timer_at.is_none_or(|t| t > now));
    debug_assert!(keys.is_none_or(|ks| {
        let mut untouched = conns.iter().filter(|(k, _)| !ks.contains(k));
        untouched.all(|(_, c)| poll_timer(c).is_none_or(|t| timer_at.is_some_and(|at| t >= at)))
    }));
    keys
}
