//! Packet-level fabric simulation: queues, ECMP, INT, failures.
//!
//! The fabric is generic over the payload type `P` so the composed world
//! can route its own message structs through it. It emits and consumes
//! [`NetEvent`]s on any [`Scheduler`] — typically a
//! [`MapScheduler`](ebs_sim::MapScheduler) wrapping the world's queue.
//!
//! Packets are parked in an internal generational arena
//! ([`Slab`](ebs_wire::Slab)) while they travel: every hop's event carries
//! a [`PacketHandle`] instead of the packet struct, so scheduling and
//! popping a hop is a constant 16-byte copy regardless of the payload
//! type, and the event enum of any world composed on top stays small.

use std::collections::VecDeque;

use ebs_sim::{rng, Scheduler, SimDuration, SimTime};
use ebs_wire::{IntHop, IntStack, Slab};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::topology::{DeviceId, DeviceKind, Topology};

/// Opaque reference to a packet parked in a fabric's internal arena while
/// it travels hop to hop. Only meaningful to the [`Fabric`] that issued it;
/// a stale or foreign handle is detected by its generation and ignored.
pub type PacketHandle = ebs_wire::Handle;

/// The 5-tuple-equivalent label ECMP hashes on. SOLAR varies `src_port`
/// per path so that each path id pins a distinct fabric route.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowLabel {
    /// Source server.
    pub src: DeviceId,
    /// Destination server.
    pub dst: DeviceId,
    /// Transport source port (SOLAR path id lives here).
    pub src_port: u16,
    /// Transport destination port.
    pub dst_port: u16,
    /// IP protocol number.
    pub proto: u8,
}

impl FlowLabel {
    /// Stable 64-bit flow hash (FNV-1a over the tuple).
    pub fn hash64(&self) -> u64 {
        let mut h = ebs_sim::Fnv1a::default();
        h.u64(self.src.0 as u64);
        h.u64(self.dst.0 as u64);
        h.u64(self.src_port as u64);
        h.u64(self.dst_port as u64);
        h.u64(self.proto as u64);
        h.finish()
    }
}

/// A packet travelling through the fabric.
///
/// Deliberately *not* `Clone`: a packet is moved into the fabric's arena
/// at [`Fabric::send`] and stays there until delivery or drop, so the type
/// system guarantees no hop accidentally deep-copies the payload or INT
/// stack. The flow hash is computed once at construction and carried
/// along, so per-hop ECMP and blackhole checks don't re-run FNV over the
/// 5-tuple.
#[derive(Debug)]
pub struct FabricPacket<P> {
    /// Flow label (includes src/dst endpoints).
    pub flow: FlowLabel,
    /// Bytes on the wire (headers + payload).
    pub size: usize,
    /// INT stack; `Some` enables per-hop stamping.
    pub int: Option<IntStack>,
    /// ECN congestion-experienced mark: set by RED marking at a switch
    /// egress queue ([`EcnConfig`]), read by the receiving endpoint and
    /// echoed to the sender in its transport's ACK.
    pub ecn: bool,
    /// Opaque payload delivered to the destination endpoint.
    pub payload: P,
    /// `flow.hash64()`, cached at construction.
    flow_hash: u64,
}

impl<P> FabricPacket<P> {
    /// Build a packet, hashing the flow label once.
    pub fn new(flow: FlowLabel, size: usize, int: Option<IntStack>, payload: P) -> Self {
        FabricPacket {
            flow_hash: flow.hash64(),
            flow,
            size,
            int,
            ecn: false,
            payload,
        }
    }

    /// The cached flow hash.
    pub fn flow_hash(&self) -> u64 {
        self.flow_hash
    }
}

/// Fabric events; wrap them into the world's event enum via
/// [`MapScheduler`](ebs_sim::MapScheduler).
///
/// One event per hop: a port knows a packet's departure when it enqueues
/// it, and schedules its [`NetEvent::Arrive`] at the next device there.
///
/// Deliberately small (16 bytes): packets stay parked in the fabric's
/// arena and only a [`PacketHandle`] rides through the event queue, so the
/// per-hop schedule/pop memcpy is constant-size no matter what payload
/// type the fabric carries.
#[derive(Debug, Clone, Copy)]
pub enum NetEvent {
    /// A packet arrives at a device (after a link's delay).
    Arrive {
        /// Receiving device.
        device: DeviceId,
        /// The packet, parked in the fabric's arena.
        pkt: PacketHandle,
    },
    /// Routing has converged around a fail-stopped device: ECMP stops
    /// hashing onto it.
    RoutingConverged {
        /// The failed device now excluded from ECMP sets.
        device: DeviceId,
    },
}

/// Failure injected on a device (§3.3 / §4.7 failure scenarios).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailureMode {
    /// Fail-stop: the device drops everything. Detectable — routing
    /// converges after the configured delay and ECMP routes around it.
    FailStop,
    /// Silent blackhole: drops the subset of flows whose hash lands in
    /// `fraction` (e.g. one broken ECMP bucket / line card). **Not**
    /// detected by routing — the deadly case for single-path Luna.
    Blackhole {
        /// Fraction of flows affected (0..1].
        fraction: f64,
        /// Salt mixing which flows are hit.
        salt: u64,
    },
    /// Uniform random packet loss at the given rate (lossy line card).
    RandomLoss {
        /// Loss probability per packet.
        rate: f64,
    },
}

/// Why packets were dropped, for assertions and diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropStats {
    /// Dropped by fail-stopped devices.
    pub fail_stop: u64,
    /// Dropped silently by blackholes.
    pub blackhole: u64,
    /// Dropped by random loss.
    pub random_loss: u64,
    /// Tail-dropped on a full egress queue.
    pub queue_overflow: u64,
    /// No usable next hop (all excluded/down).
    pub no_route: u64,
}

impl DropStats {
    /// Total drops of all causes.
    pub fn total(&self) -> u64 {
        self.fail_stop + self.blackhole + self.random_loss + self.queue_overflow + self.no_route
    }
}

/// An egress port as an analytic FIFO: a packet's last bit leaves at
/// `max(now, previous end) + transmit_time`, so no event marks it. The
/// queue holds `(serialization end, size)` of each packet not yet retired
/// (lazily, at the next enqueue). Tie rule: a packet whose last bit leaves
/// at `t` is no longer queued at `t`.
#[derive(Debug)]
struct PortState {
    to: DeviceId,
    rate: ebs_sim::Bandwidth,
    delay: SimDuration,
    cap_bytes: usize,
    queue: VecDeque<(SimTime, u32)>,
    /// Bytes in `queue`; exact only right after [`PortState::retire`].
    queued_bytes: usize,
    /// Bytes of retired entries.
    tx_bytes: u64,
    max_queue_bytes: usize,
}

impl PortState {
    /// Retire every packet whose last bit has left by `now`. A drained
    /// ring restarts at its first slot (`clear` resets the head), so an
    /// uncongested port keeps writing one cache line instead of walking
    /// its whole buffer.
    fn retire(&mut self, now: SimTime) {
        while let Some(&(end, size)) = self.queue.front() {
            if end > now {
                return;
            }
            self.queue.pop_front();
            self.queued_bytes -= size as usize;
            self.tx_bytes += size as u64;
        }
        self.queue.clear();
    }

    /// `(queued bytes, transmitted bytes)` as of `now`, without retiring:
    /// `queued_bytes` and `tx_bytes` alone are stale between enqueues.
    fn as_of(&self, now: SimTime) -> (usize, u64) {
        let sent: usize = self
            .queue
            .iter()
            .take_while(|&&(end, _)| end <= now)
            .map(|&(_, size)| size as usize)
            .sum();
        (self.queued_bytes - sent, self.tx_bytes + sent as u64)
    }
}

#[derive(Debug)]
struct DeviceState {
    is_switch: bool,
    failure: Option<FailureMode>,
    /// True once routing has converged around this (fail-stopped) device.
    excluded: bool,
    ports: Vec<PortState>,
}

/// Memoized ECMP candidate sets, keyed densely by `(device, dst)`.
///
/// Each entry caches the *post-exclusion-filter* port list for one
/// (forwarding device, destination server) pair as an `(offset, len)`
/// window into one shared flat arena of port indices, so the forward hot
/// path is a pair of index walks (entry lookup, arena slice) with no
/// per-entry heap pointer to chase. Validity is tracked by an epoch
/// stamp: any event that changes the exclusion set — a
/// `RoutingConverged` that excludes a fail-stopped device, or a
/// [`Fabric::heal`] that re-includes one — bumps the cache epoch, which
/// invalidates every entry in O(1) without walking them, and resets the
/// arena. Entries refill lazily on first use after an invalidation.
///
/// Failure *injection* deliberately does not invalidate: only `excluded`
/// feeds the route filter (a failed-but-unconverged device still attracts
/// traffic and drops it at arrival, as in the pre-cache code).
#[derive(Debug)]
struct RouteCache {
    epoch: u32,
    n_dev: usize,
    entries: Vec<RouteEntry>,
    /// All cached port lists, back to back, in fill order.
    arena: Vec<u16>,
}

/// 12 bytes per (device, dst) pair — the dense table for a 4K-device
/// fleet shard fits in ~190 MB where the old `Vec<u16>`-per-entry layout
/// needed ~512 MB plus an allocation per filled entry.
#[derive(Debug, Clone, Copy)]
struct RouteEntry {
    epoch: u32,
    off: u32,
    len: u16,
}

impl RouteCache {
    fn new(n_dev: usize) -> Self {
        RouteCache {
            // Entries start at epoch 0, the cache at 1: everything begins
            // invalid.
            epoch: 1,
            n_dev,
            entries: vec![
                RouteEntry {
                    epoch: 0,
                    off: 0,
                    len: 0,
                };
                n_dev * n_dev
            ],
            arena: Vec::new(),
        }
    }

    fn invalidate_all(&mut self) {
        if self.epoch == u32::MAX {
            // Epoch wrap would alias stale entries; walk once and restart.
            for e in &mut self.entries {
                e.epoch = 0;
            }
            self.epoch = 0;
        }
        self.epoch += 1;
        self.arena.clear();
    }
}

/// RED-style ECN marking at switch egress queues (the congestion signal
/// DCQCN-class controllers consume). Disabled by default: marking draws
/// from its own RNG stream (`"fabric-ecn"`), so enabling it never shifts
/// the loss stream and existing seeds replay unchanged.
#[derive(Debug, Clone, Copy)]
pub struct EcnConfig {
    /// Master switch; when false no packet is ever marked and the ECN
    /// RNG stream is never drawn from.
    pub enabled: bool,
    /// Queue depth (bytes) below which nothing is marked.
    pub kmin_bytes: usize,
    /// Queue depth (bytes) at and above which everything is marked.
    pub kmax_bytes: usize,
}

/// RED marking probability as the queue reaches `kmax_bytes` (the ramp
/// is linear between the thresholds).
const ECN_PMAX: f64 = 0.2;

impl Default for EcnConfig {
    fn default() -> Self {
        EcnConfig {
            enabled: false,
            // DCQCN-style thresholds scaled to the testbed's ~256 KiB
            // switch buffers: start marking at 1/16 occupancy, mark
            // everything past 1/4.
            kmin_bytes: 16 * 1024,
            kmax_bytes: 64 * 1024,
        }
    }
}

/// Fabric-wide tunables.
#[derive(Debug, Clone, Copy)]
pub struct FabricConfig {
    /// Delay between a fail-stop and ECMP exclusion (network operations /
    /// routing protocol convergence). The paper's incidents took minutes;
    /// the testbed scenarios of Table 2 use seconds.
    pub routing_convergence: SimDuration,
    /// Seed for the loss RNG.
    pub seed: u64,
    /// RED/ECN marking at switch egress queues.
    pub ecn: EcnConfig,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            routing_convergence: SimDuration::from_secs(30),
            seed: 1,
            ecn: EcnConfig::default(),
        }
    }
}

/// The packet-level fabric simulator.
#[derive(Debug)]
pub struct Fabric<P> {
    topo: Topology,
    devices: Vec<DeviceState>,
    cfg: FabricConfig,
    loss_rng: SmallRng,
    /// Dedicated RED-marking stream: only drawn from when ECN is
    /// enabled, so turning marking on/off never perturbs `loss_rng`.
    ecn_rng: SmallRng,
    /// Packets ECN-marked so far (diagnostics / oracles).
    ecn_marked: u64,
    drops: DropStats,
    delivered: u64,
    /// In-flight packets, parked between hops; events carry handles.
    packets: Slab<FabricPacket<P>>,
    /// Memoized post-filter ECMP sets (see [`RouteCache`]).
    routes: RouteCache,
    /// Scratch for `Topology::next_hop_ports_into` on cache misses.
    route_scratch: Vec<usize>,
    /// Route lookups served from the cache (diagnostics / benches).
    route_hits: u64,
    /// Route lookups that had to recompute (diagnostics / benches).
    route_misses: u64,
}

impl<P> Fabric<P> {
    /// Build a fabric over `topo`.
    pub fn new(topo: Topology, cfg: FabricConfig) -> Self {
        let devices: Vec<DeviceState> = topo
            .devices()
            .iter()
            .map(|d| DeviceState {
                is_switch: d.coord.kind != DeviceKind::Server,
                failure: None,
                excluded: false,
                ports: d
                    .ports
                    .iter()
                    .map(|p| PortState {
                        to: p.to,
                        rate: p.link.rate,
                        delay: p.link.delay,
                        cap_bytes: p.link.queue_bytes,
                        // Grows on demand: a drained ring restarts at
                        // slot 0, so most ports never need more than a
                        // few slots.
                        queue: VecDeque::new(),
                        queued_bytes: 0,
                        tx_bytes: 0,
                        max_queue_bytes: 0,
                    })
                    .collect(),
            })
            .collect();
        let loss_rng = rng::stream(cfg.seed, "fabric-loss");
        let ecn_rng = rng::stream(cfg.seed, "fabric-ecn");
        let n_dev = devices.len();
        Fabric {
            topo,
            devices,
            cfg,
            loss_rng,
            ecn_rng,
            ecn_marked: 0,
            drops: DropStats::default(),
            delivered: 0,
            packets: Slab::with_capacity(256),
            routes: RouteCache::new(n_dev),
            route_scratch: Vec::with_capacity(8),
            route_hits: 0,
            route_misses: 0,
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Packets delivered to destination servers so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Drop accounting.
    pub fn drops(&self) -> DropStats {
        self.drops
    }

    /// Packets ECN-marked by RED so far (0 unless marking is enabled).
    pub fn ecn_marked(&self) -> u64 {
        self.ecn_marked
    }

    /// Packets currently parked in the arena (in a queue or on a wire).
    pub fn packets_in_flight(&self) -> usize {
        self.packets.len()
    }

    /// Route lookups served from the memo cache vs. recomputed.
    pub fn route_cache_stats(&self) -> (u64, u64) {
        (self.route_hits, self.route_misses)
    }

    /// Largest egress queue (bytes) observed anywhere, a congestion probe: a
    /// high-water mark taken at enqueue, where a port's occupancy is exact.
    pub fn max_queue_bytes(&self) -> usize {
        self.devices
            .iter()
            .flat_map(|d| d.ports.iter().map(|p| p.max_queue_bytes))
            .max()
            .unwrap_or(0)
    }

    /// Inject a failure on `device`. Fail-stop schedules ECMP exclusion
    /// after the configured convergence delay; silent failures never
    /// converge.
    pub fn inject_failure(
        &mut self,
        device: DeviceId,
        mode: FailureMode,
        sched: &mut impl Scheduler<NetEvent>,
    ) {
        let convergence = self.cfg.routing_convergence;
        self.inject_failure_with(device, mode, convergence, sched);
    }

    /// Like [`Fabric::inject_failure`] but with an explicit convergence
    /// delay: fail-stops *inside* the fabric (spine/core link-down) are
    /// detected and routed around in well under a second, while a dead
    /// server-facing ToR relies on slow host-side bonding failover — the
    /// asymmetry behind Table 2's spine-vs-ToR rows.
    pub fn inject_failure_with(
        &mut self,
        device: DeviceId,
        mode: FailureMode,
        convergence: SimDuration,
        sched: &mut impl Scheduler<NetEvent>,
    ) {
        self.devices[device.0 as usize].failure = Some(mode);
        if mode == FailureMode::FailStop {
            sched.after(convergence, NetEvent::RoutingConverged { device });
        }
    }

    /// Clear a failure (repair / reboot completed) and re-include the
    /// device in ECMP.
    pub fn heal(&mut self, device: DeviceId) {
        let d = &mut self.devices[device.0 as usize];
        d.failure = None;
        if d.excluded {
            d.excluded = false;
            // Re-inclusion changes ECMP sets fabric-wide.
            self.routes.invalidate_all();
        }
    }

    /// Send a packet from its source server. Processes the first hop
    /// immediately; returns the packet if src == dst (local delivery).
    pub fn send(
        &mut self,
        now: SimTime,
        pkt: FabricPacket<P>,
        sched: &mut impl Scheduler<NetEvent>,
    ) -> Option<FabricPacket<P>> {
        debug_assert_eq!(
            self.topo.coord(pkt.flow.src).kind,
            DeviceKind::Server,
            "packets originate at servers"
        );
        let src = pkt.flow.src;
        let h = self.packets.insert(pkt);
        self.arrive(now, src, h, sched)
    }

    /// Park `pkt` in the arena and return the [`NetEvent::Arrive`] that
    /// injects it at `device`. For external drivers (tests, benches) that
    /// schedule arrivals directly instead of going through
    /// [`Fabric::send`].
    pub fn arrive_event(&mut self, device: DeviceId, pkt: FabricPacket<P>) -> NetEvent {
        NetEvent::Arrive {
            device,
            pkt: self.packets.insert(pkt),
        }
    }

    /// Process one fabric event. Returns a packet when it reaches its
    /// destination server.
    pub fn handle(
        &mut self,
        now: SimTime,
        ev: NetEvent,
        sched: &mut impl Scheduler<NetEvent>,
    ) -> Option<FabricPacket<P>> {
        match ev {
            NetEvent::Arrive { device, pkt } => self.arrive(now, device, pkt, sched),
            NetEvent::RoutingConverged { device } => {
                // Only exclude if still failed (it may have healed).
                let d = &mut self.devices[device.0 as usize];
                if d.failure == Some(FailureMode::FailStop) {
                    d.excluded = true;
                    // Exclusion changes ECMP sets fabric-wide.
                    self.routes.invalidate_all();
                }
                None
            }
        }
    }

    fn arrive(
        &mut self,
        now: SimTime,
        device: DeviceId,
        h: PacketHandle,
        sched: &mut impl Scheduler<NetEvent>,
    ) -> Option<FabricPacket<P>> {
        // One arena read covers the failure checks, the delivery test and
        // the forwarding decision.
        let (flow_hash, dst) = match self.packets.get(h) {
            Some(p) => (p.flow_hash, p.flow.dst),
            // Stale or foreign handle: nothing to do.
            None => return None,
        };

        // Failure processing at the receiving device.
        if let Some(mode) = self.devices[device.0 as usize].failure {
            match mode {
                FailureMode::FailStop => {
                    self.drops.fail_stop += 1;
                    self.packets.take(h);
                    return None;
                }
                FailureMode::Blackhole { fraction, salt } => {
                    let hh = flow_hash ^ salt.wrapping_mul(0x9E3779B97F4A7C15);
                    // Map hash to [0,1) and compare.
                    if ((hh >> 11) as f64 / (1u64 << 53) as f64) < fraction {
                        self.drops.blackhole += 1;
                        self.packets.take(h);
                        return None;
                    }
                }
                FailureMode::RandomLoss { rate } => {
                    if self.loss_rng.gen::<f64>() < rate {
                        self.drops.random_loss += 1;
                        self.packets.take(h);
                        return None;
                    }
                }
            }
        }

        if device == dst {
            let pkt = self.packets.take(h)?;
            self.delivered += 1;
            return Some(pkt);
        }

        // Forwarding decision, memoized per (device, dst) until the
        // exclusion set changes. The hot case is two loads: the 12-byte
        // entry, then its arena window.
        let Fabric {
            topo,
            devices,
            routes,
            route_scratch,
            route_hits,
            route_misses,
            ..
        } = self;
        let epoch = routes.epoch;
        let idx = device.0 as usize * routes.n_dev + dst.0 as usize;
        let mut entry = routes.entries[idx];
        if entry.epoch != epoch {
            topo.next_hop_ports_into(device, dst, route_scratch);
            let off = routes.arena.len();
            for &p in route_scratch.iter() {
                let to = devices[device.0 as usize].ports[p].to;
                if !devices[to.0 as usize].excluded {
                    routes.arena.push(p as u16);
                }
            }
            entry = RouteEntry {
                epoch,
                off: off as u32,
                len: (routes.arena.len() - off) as u16,
            };
            routes.entries[idx] = entry;
            *route_misses += 1;
        } else {
            *route_hits += 1;
        }
        if entry.len == 0 {
            self.drops.no_route += 1;
            self.packets.take(h);
            return None;
        }
        let ports = &routes.arena[entry.off as usize..entry.off as usize + entry.len as usize];
        // ECMP: consistent hash of flow ⊕ device salt, re-mixed per hop.
        // The finalizer matters: `(hash ^ salt) % 2` consumes only the low
        // bit, and since an odd salt multiplier preserves device-id
        // parity, successive 2-way fan-outs (server→ToR-pair, ToR→spines)
        // become perfectly correlated — e.g. every flow of an even-id
        // server crosses spine[0] *regardless of its ports*, so no amount
        // of source-port remapping can steer around a bad spine. Mixing
        // through a splitmix64 finalizer decorrelates the per-hop choices
        // while staying deterministic per (flow, device).
        let salt = (device.0 as u64).wrapping_mul(0xA24BAED4963EE407);
        let mut x = flow_hash ^ salt;
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58476D1CE4E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D049BB133111EB);
        x ^= x >> 31;
        // A power-of-two fan-out takes a mask: the same pick as `%`
        // without a 64-bit division.
        let n = ports.len() as u64;
        let pick = if n.is_power_of_two() {
            x & (n - 1)
        } else {
            x % n
        };
        let choice = ports[pick as usize] as usize;
        self.enqueue(now, device, choice, h, sched);
        None
    }

    fn enqueue(
        &mut self,
        now: SimTime,
        device: DeviceId,
        port_idx: usize,
        h: PacketHandle,
        sched: &mut impl Scheduler<NetEvent>,
    ) {
        let Fabric {
            devices,
            packets,
            drops,
            cfg,
            ecn_rng,
            ecn_marked,
            ..
        } = self;
        let dev = &mut devices[device.0 as usize];
        let (is_switch, port) = (dev.is_switch, &mut dev.ports[port_idx]);
        let Some(pkt) = packets.get_mut(h) else {
            return;
        };
        port.retire(now);
        let size = pkt.size;
        if port.queued_bytes + size > port.cap_bytes {
            drops.queue_overflow += 1;
            packets.take(h);
            return;
        }
        if is_switch {
            // RED/ECN marking on switch egress: linear ramp between kmin
            // and kmax, certain past kmax. The guard keeps the dedicated
            // ECN stream undrawn while marking is off, so existing seeds
            // replay byte-identically with the feature disabled.
            if cfg.ecn.enabled && !pkt.ecn {
                let qlen = port.queued_bytes + size;
                let marked = if qlen >= cfg.ecn.kmax_bytes {
                    true
                } else if qlen > cfg.ecn.kmin_bytes {
                    let ramp = (qlen - cfg.ecn.kmin_bytes) as f64
                        / (cfg.ecn.kmax_bytes - cfg.ecn.kmin_bytes).max(1) as f64;
                    ecn_rng.gen::<f64>() < ECN_PMAX * ramp
                } else {
                    false
                };
                if marked {
                    pkt.ecn = true;
                    *ecn_marked += 1;
                }
            }
            // INT stamping on switch egress.
            if let Some(int) = pkt.int.as_mut() {
                int.push(IntHop {
                    device_id: device.0,
                    queue_bytes: (port.queued_bytes + size) as u32,
                    tx_bytes: port.tx_bytes,
                    ts_ns: now.as_nanos(),
                    link_mbps: (port.rate.as_bps() / 1_000_000) as u32,
                });
            }
        }
        port.queued_bytes += size;
        port.max_queue_bytes = port.max_queue_bytes.max(port.queued_bytes);
        // Just retired: whatever is still queued ends after `now`.
        let end = port.queue.back().map_or(now, |b| b.0) + port.rate.transmit_time(size);
        port.queue.push_back((end, size as u32));
        let (to, delay) = (port.to, port.delay);
        sched.at(end + delay, NetEvent::Arrive { device: to, pkt: h });
    }
}

impl<P> ebs_obs::Sample for Fabric<P> {
    /// Component `net`: delivery/drop counters plus per-link occupancy
    /// histograms. Each egress port contributes one observation to the
    /// `link_queue_bytes` / `link_tx_bytes` histograms, so ECMP imbalance
    /// shows up as spread (p99 ≫ p50) rather than needing per-link keys.
    /// Both read each port as of `now`.
    fn sample_into(&self, now: SimTime, m: &mut ebs_obs::Metrics) {
        m.counter_add("net", "delivered", self.delivered);
        m.counter_add("net", "drop_fail_stop", self.drops.fail_stop);
        m.counter_add("net", "drop_blackhole", self.drops.blackhole);
        m.counter_add("net", "drop_random_loss", self.drops.random_loss);
        m.counter_add("net", "drop_queue_overflow", self.drops.queue_overflow);
        m.counter_add("net", "drop_no_route", self.drops.no_route);
        m.counter_add("net", "ecn_marked", self.ecn_marked);
        m.counter_add("net", "route_cache_hits", self.route_hits);
        m.counter_add("net", "route_cache_misses", self.route_misses);
        m.gauge_set("net", "max_queue_bytes", self.max_queue_bytes() as f64);
        for dev in &self.devices {
            for port in &dev.ports {
                let (queued, tx) = port.as_of(now);
                m.observe("net", "link_queue_bytes", queued as u64);
                m.observe("net", "link_tx_bytes", tx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ClosConfig;
    use ebs_sim::EventQueue;

    fn fabric() -> (Fabric<u32>, EventQueue<NetEvent>) {
        let topo = Topology::build(ClosConfig::testbed(2, 2, 2));
        (
            Fabric::new(topo, FabricConfig::default()),
            EventQueue::new(),
        )
    }

    fn run_to_end(
        f: &mut Fabric<u32>,
        q: &mut EventQueue<NetEvent>,
    ) -> Vec<(SimTime, FabricPacket<u32>)> {
        let mut out = Vec::new();
        while let Some((t, ev)) = q.pop() {
            if let Some(pkt) = f.handle(t, ev, q) {
                out.push((t, pkt));
            }
        }
        out
    }

    fn pkt(f: &Fabric<u32>, s: usize, d: usize, sport: u16, tag: u32) -> FabricPacket<u32> {
        FabricPacket::new(
            FlowLabel {
                src: f.topology().servers()[s],
                dst: f.topology().servers()[d],
                src_port: sport,
                dst_port: 9000,
                proto: 17,
            },
            4096,
            None,
            tag,
        )
    }

    #[test]
    fn delivers_across_pods() {
        let (mut f, mut q) = fabric();
        let p = pkt(&f, 0, 5, 1000, 7);
        assert!(f.send(SimTime::ZERO, p, &mut q).is_none());
        let got = run_to_end(&mut f, &mut q);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1.payload, 7);
        // Path: srv->tor->spine->core->spine->tor->srv = 6 links.
        // Serialization + propagation must be sane: > 6 * 0.65us.
        assert!(got[0].0 > SimTime::from_micros(6));
        assert!(got[0].0 < SimTime::from_micros(60));
        // Nothing left parked once the wire drains.
        assert_eq!(f.packets_in_flight(), 0);
    }

    #[test]
    fn local_delivery_same_server() {
        let (mut f, mut q) = fabric();
        let p = pkt(&f, 0, 0, 1, 1);
        let got = f.send(SimTime::ZERO, p, &mut q);
        assert!(got.is_some());
        assert_eq!(f.packets_in_flight(), 0);
    }

    #[test]
    fn different_src_ports_can_take_different_paths() {
        // With 2 spines and 4 cores, many src ports must diverge: count
        // distinct total-latency values as a proxy for distinct paths.
        let (mut f, mut q) = fabric();
        for sport in 0..32 {
            let p = pkt(&f, 0, 5, sport, sport as u32);
            f.send(SimTime::from_micros(sport as u64 * 100), p, &mut q);
        }
        let got = run_to_end(&mut f, &mut q);
        assert_eq!(got.len(), 32);
        // ECMP is deterministic per flow: resending the same port takes
        // the same path.
        let (mut f2, mut q2) = fabric();
        for sport in 0..32 {
            let p = pkt(&f2, 0, 5, sport, sport as u32);
            f2.send(SimTime::from_micros(sport as u64 * 100), p, &mut q2);
        }
        let got2 = run_to_end(&mut f2, &mut q2);
        for (a, b) in got.iter().zip(got2.iter()) {
            assert_eq!(a.0, b.0, "ECMP must be deterministic");
        }
    }

    #[test]
    fn route_cache_hits_dominate_on_repeated_flows() {
        let (mut f, mut q) = fabric();
        for sport in 0..64 {
            let p = pkt(&f, 0, 5, sport, sport as u32);
            f.send(SimTime::from_micros(sport as u64 * 100), p, &mut q);
        }
        run_to_end(&mut f, &mut q);
        let (hits, misses) = f.route_cache_stats();
        // Each (forwarding device, dst) pair misses exactly once and hits
        // thereafter; the ECMP fan means a dozen-odd pairs, while 64 flows
        // crossing ~6 forwarding hops produce hundreds of lookups.
        assert!(misses <= 16, "one miss per (device,dst): got {misses}");
        assert!(hits > 5 * misses, "hits={hits} misses={misses}");
    }

    #[test]
    fn fail_stop_drops_then_routing_converges() {
        let (mut f, mut q) = fabric();
        // Fail one of the two pod-0 spines.
        let spine = f.topology().devices_of_kind(DeviceKind::Spine)[0];
        f.inject_failure(spine, FailureMode::FailStop, &mut q);
        // Send 64 flows through before convergence: roughly half die.
        for sport in 0..64 {
            let p = pkt(&f, 0, 2, sport, sport as u32);
            f.send(SimTime::ZERO, p, &mut q);
        }
        // Drain only events before convergence... simpler: run everything;
        // convergence is at 30s, all sends happen at t=0.
        let got = run_to_end(&mut f, &mut q);
        assert!(f.drops().fail_stop > 10, "some flows hit the dead spine");
        assert!(got.len() > 10, "other flows survive");
        assert!(got.len() < 64);

        // After convergence (applied in the previous drain), the same
        // flows all deliver.
        let mut q2 = EventQueue::new();
        for sport in 0..64 {
            let p = pkt(&f, 0, 2, sport, sport as u32);
            f.send(SimTime::from_secs(60), p, &mut q2);
        }
        // Remove the dummy before draining: pop it first.
        let before = f.delivered();
        let _ = run_to_end(&mut f, &mut q2);
        assert_eq!(f.delivered() - before, 64, "all flows avoid excluded spine");
    }

    #[test]
    fn blackhole_kills_only_matching_flows_forever() {
        let (mut f, mut q) = fabric();
        let spine = f.topology().devices_of_kind(DeviceKind::Spine)[0];
        f.inject_failure(
            spine,
            FailureMode::Blackhole {
                fraction: 1.0,
                salt: 3,
            },
            &mut q,
        );
        for sport in 0..64 {
            let p = pkt(&f, 0, 2, sport, sport as u32);
            f.send(SimTime::ZERO, p, &mut q);
        }
        let got = run_to_end(&mut f, &mut q);
        let killed: u64 = f.drops().blackhole;
        assert!(killed > 10);
        assert_eq!(got.len() as u64 + killed, 64);
        // No convergence ever happens for blackholes: resending the same
        // flows much later still loses the same ones.
        for sport in 0..64 {
            let p = pkt(&f, 0, 2, sport, sport as u32);
            f.send(SimTime::from_secs(100), p, &mut q);
        }
        let got2 = run_to_end(&mut f, &mut q);
        assert_eq!(got.len(), got2.len(), "blackhole is silent and persistent");
    }

    #[test]
    fn random_loss_drops_proportionally() {
        let (mut f, mut q) = fabric();
        let tor = f.topology().devices_of_kind(DeviceKind::Tor)[0];
        f.inject_failure(tor, FailureMode::RandomLoss { rate: 0.5 }, &mut q);
        for i in 0..200 {
            let p = pkt(&f, 0, 1, i, i as u32); // same tor pair
            f.send(SimTime::from_micros(i as u64 * 50), p, &mut q);
        }
        run_to_end(&mut f, &mut q);
        let lost = f.drops().random_loss as f64 / 200.0;
        assert!((0.3..0.7).contains(&lost), "loss rate ~0.5, got {lost}");
    }

    #[test]
    fn heal_restores_traffic() {
        let (mut f, mut q) = fabric();
        let tor = f.topology().devices_of_kind(DeviceKind::Tor)[0];
        f.inject_failure(tor, FailureMode::FailStop, &mut q);
        let p = pkt(&f, 0, 1, 1, 1);
        f.send(SimTime::ZERO, p, &mut q);
        let got = run_to_end(&mut f, &mut q);
        assert!(got.is_empty());
        f.heal(tor);
        let p = pkt(&f, 0, 1, 1, 2);
        f.send(SimTime::from_secs(100), p, &mut q);
        let got = run_to_end(&mut f, &mut q);
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn heal_after_exclusion_invalidates_cached_routes() {
        let (mut f, mut q) = fabric();
        let spine = f.topology().devices_of_kind(DeviceKind::Spine)[0];
        f.inject_failure(spine, FailureMode::FailStop, &mut q);
        // Drain: applies RoutingConverged at 30s, excluding the spine, and
        // populates route caches without it.
        for sport in 0..64 {
            let p = pkt(&f, 0, 2, sport, sport as u32);
            f.send(SimTime::ZERO, p, &mut q);
        }
        run_to_end(&mut f, &mut q);
        // Post-exclusion: all 64 flows use the surviving spine.
        let before = f.delivered();
        for sport in 0..64 {
            let p = pkt(&f, 0, 2, sport, sport as u32);
            f.send(SimTime::from_secs(60), p, &mut q);
        }
        run_to_end(&mut f, &mut q);
        assert_eq!(f.delivered() - before, 64);

        // Heal. Cached entries must refill to include the revived spine —
        // the flows spread over both spines again, which shows up as
        // distinct per-flow latencies diverging from the single-spine run.
        f.heal(spine);
        let before = f.delivered();
        for sport in 0..64 {
            let p = pkt(&f, 0, 2, sport, sport as u32);
            f.send(SimTime::from_secs(120), p, &mut q);
        }
        run_to_end(&mut f, &mut q);
        assert_eq!(f.delivered() - before, 64);
        // Fresh fabric with no failure history must agree exactly with the
        // healed fabric (cache cannot pin stale single-spine routes).
        let (mut f2, mut q2) = fabric();
        for sport in 0..64 {
            let p = pkt(&f2, 0, 2, sport, sport as u32);
            f2.send(SimTime::from_secs(120), p, &mut q2);
        }
        run_to_end(&mut f2, &mut q2);
        let fresh: Vec<usize> = f2
            .devices
            .iter()
            .flat_map(|d| d.ports.iter().map(|p| p.as_of(SimTime::MAX).1 as usize))
            .collect();
        // tx_bytes per port of the healed fabric, counting only the final
        // batch (subtract the two earlier 64-packet batches is fiddly; the
        // spread test below is the meaningful assertion).
        let spine_ports: usize = f
            .devices
            .iter()
            .enumerate()
            .filter(|(i, _)| *i == spine.0 as usize)
            .map(|(_, d)| {
                d.ports
                    .iter()
                    .filter(|p| p.as_of(SimTime::MAX).1 > 0)
                    .count()
            })
            .sum();
        assert!(
            spine_ports > 0,
            "healed spine carries traffic again (stale cache would starve it)"
        );
        assert!(fresh.iter().any(|&b| b > 0));
    }

    #[test]
    fn int_stack_collects_switch_hops() {
        let (mut f, mut q) = fabric();
        let mut p = pkt(&f, 0, 5, 1, 1);
        p.int = Some(IntStack::with_path_capacity());
        f.send(SimTime::ZERO, p, &mut q);
        let got = run_to_end(&mut f, &mut q);
        let int = got[0].1.int.as_ref().unwrap();
        // Cross-pod: tor, spine, core, spine, tor = 5 switch hops.
        assert_eq!(int.hops.len(), 5);
        assert!(int.hops.iter().all(|h| h.link_mbps >= 50_000));
    }

    /// The longest path the topology builds crosses data centres and fills
    /// the stack's reserve exactly, so stamping never reallocates.
    #[test]
    fn cross_dc_path_fills_the_int_reserve() {
        let topo = Topology::build(ClosConfig {
            dcs: 2,
            ..ClosConfig::testbed(1, 1, 1)
        });
        let mut f: Fabric<u32> = Fabric::new(topo, FabricConfig::default());
        let mut q = EventQueue::new();
        let mut p = pkt(&f, 0, 1, 1, 1);
        p.int = Some(IntStack::with_path_capacity());
        f.send(SimTime::ZERO, p, &mut q);
        let got = run_to_end(&mut f, &mut q);
        let hops = &got[0].1.int.as_ref().expect("stamped").hops;
        assert_eq!(hops.len(), ebs_wire::PATH_INT_HOPS);
        assert_eq!(hops.capacity(), ebs_wire::PATH_INT_HOPS);
    }

    #[test]
    fn queue_overflow_tail_drops() {
        let (mut f, mut q) = fabric();
        // Slam 1000 jumbo packets into one 50G server uplink at t=0:
        // 512KiB of queue / 4KiB = ~128 fit.
        for i in 0..1000 {
            let p = pkt(&f, 0, 5, 1, i); // same flow -> same path
            f.send(SimTime::ZERO, p, &mut q);
        }
        let got = run_to_end(&mut f, &mut q);
        assert!(
            f.drops().queue_overflow > 0,
            "shallow buffer must tail-drop"
        );
        assert!(got.len() < 1000);
        assert!(got.len() > 50);
        // Dropped packets are freed, not leaked in the arena.
        assert_eq!(f.packets_in_flight(), 0);
    }

    #[test]
    fn arena_slots_bounded_by_peak_occupancy() {
        let (mut f, mut q) = fabric();
        // Send-and-drain in lockstep so only one packet is ever on the
        // wire: arena slots track the peak occupancy, not the 500 sends.
        for i in 0..500u16 {
            let p = pkt(&f, 0, 5, i, i as u32);
            f.send(SimTime::from_micros(i as u64 * 200), p, &mut q);
            run_to_end(&mut f, &mut q);
        }
        assert_eq!(f.packets_in_flight(), 0);
        assert!(
            f.packets.slots() < 8,
            "slots ({}) must reflect peak in-flight, not 500 sends",
            f.packets.slots()
        );
    }

    #[test]
    fn ecn_disabled_never_marks() {
        let (mut f, mut q) = fabric();
        for i in 0..500 {
            let p = pkt(&f, 0, 5, 1, i); // same flow -> same congested path
            f.send(SimTime::ZERO, p, &mut q);
        }
        let got = run_to_end(&mut f, &mut q);
        assert_eq!(f.ecn_marked(), 0);
        assert!(got.iter().all(|(_, p)| !p.ecn));
    }

    #[test]
    fn ecn_marks_under_congestion() {
        let topo = Topology::build(ClosConfig::testbed(2, 2, 2));
        let mut f: Fabric<u32> = Fabric::new(
            topo,
            FabricConfig {
                ecn: EcnConfig {
                    enabled: true,
                    ..EcnConfig::default()
                },
                ..FabricConfig::default()
            },
        );
        let mut q = EventQueue::new();
        // N:1 incast: four senders converge on server 5, so the queue
        // builds at its ToR's server-facing egress — a *switch* queue,
        // where RED marking runs.
        for i in 0..500 {
            let p = pkt(&f, (i % 4) as usize, 5, 1, i);
            f.send(SimTime::ZERO, p, &mut q);
        }
        let got = run_to_end(&mut f, &mut q);
        assert!(f.ecn_marked() > 0, "a 2 MiB incast must cross kmin");
        assert!(
            got.iter().any(|(_, p)| p.ecn),
            "marked packets must reach the destination with the bit set"
        );
        // Early packets see a near-empty queue and pass unmarked.
        assert!(got.iter().any(|(_, p)| !p.ecn));
    }

    #[test]
    fn ecn_marking_does_not_shift_the_loss_stream() {
        // The RED draw uses its own RNG stream: the set of packets the
        // RandomLoss failure eats must be identical whether or not ECN
        // marking is enabled.
        let delivered_tags = |ecn_on: bool| -> Vec<u32> {
            let topo = Topology::build(ClosConfig::testbed(2, 2, 2));
            let mut f: Fabric<u32> = Fabric::new(
                topo,
                FabricConfig {
                    ecn: EcnConfig {
                        enabled: ecn_on,
                        ..EcnConfig::default()
                    },
                    ..FabricConfig::default()
                },
            );
            let mut q = EventQueue::new();
            let spine = f
                .topology()
                .devices()
                .iter()
                .position(|d| d.coord.kind == DeviceKind::Spine)
                .map(|i| DeviceId(i as u32))
                .unwrap();
            f.inject_failure(spine, FailureMode::RandomLoss { rate: 0.3 }, &mut q);
            for i in 0..300 {
                let p = pkt(&f, 0, 5, (i % 7) as u16, i);
                f.send(SimTime::from_micros(i as u64), p, &mut q);
            }
            let mut tags: Vec<u32> = run_to_end(&mut f, &mut q)
                .into_iter()
                .map(|(_, p)| p.payload)
                .collect();
            tags.sort_unstable();
            tags
        };
        assert_eq!(delivered_tags(false), delivered_tags(true));
    }

    /// The Lindley recursion for one FIFO port, written out independently
    /// of [`PortState`]: each accepted packet departs (last bit out) at
    /// `max(arrival, previous departure) + transmit time`, and a packet
    /// arriving at `at` sees as queued exactly the accepted packets that
    /// depart after `at` — a departure at `at` has already left (the tie
    /// rule).
    struct LindleyPort {
        rate_bps: u64,
        /// `(departure ns, size)` of every accepted packet, in order.
        accepted: Vec<(u64, u64)>,
    }

    impl LindleyPort {
        /// `(queued, transmitted)` bytes as seen by an arrival at `at`.
        fn seen_at(&self, at: u64) -> (u64, u64) {
            self.accepted
                .iter()
                .fold((0, 0), |(queued, sent), &(dep, size)| {
                    if dep > at {
                        (queued + size, sent)
                    } else {
                        (queued, sent + size)
                    }
                })
        }

        /// Accept a packet arriving at `at`; returns its departure.
        fn accept(&mut self, at: u64, size: u64) -> u64 {
            let prev = self.accepted.last().map_or(0, |&(dep, _)| dep);
            let dep = at.max(prev) + (size * 8_000_000_000).div_ceil(self.rate_bps);
            self.accepted.push((dep, size));
            dep
        }
    }

    proptest::proptest! {
        /// One switch egress port — a ToR's server-facing downlink at
        /// 8 Gb/s (a byte per nanosecond) with an 8 KiB buffer — driven by
        /// random `(arrival, size)` sequences on a 64 ns grid with sizes in
        /// 64-byte steps, so departures land on the grid and a departure
        /// and an arrival in the same nanosecond are common. Every
        /// `Arrive` time, every tail-drop decision and every INT stamp
        /// must match the reference.
        #[test]
        fn port_oracle_matches_lindley_reference(
            steps in proptest::collection::vec((0u64..16, 1u64..=20), 1..80),
        ) {
            const GRID_NS: u64 = 64;
            let link = crate::topology::LinkSpec {
                rate: ebs_sim::Bandwidth::from_gbps(8),
                delay: SimDuration::from_nanos(3 * GRID_NS),
                queue_bytes: 8 * 1024,
            };
            let topo = Topology::build(ClosConfig {
                server_link: link,
                ..ClosConfig::testbed(2, 2, 2)
            });
            let mut f: Fabric<u32> = Fabric::new(topo, FabricConfig::default());
            let mut q = EventQueue::new();
            let dst = f.topology().servers()[0];
            let tor = f.topology().devices()[dst.0 as usize].ports[0].to;
            let mut reference = LindleyPort {
                rate_bps: link.rate.as_bps(),
                accepted: Vec::new(),
            };
            // Per packet: None if tail-dropped, else (arrival at dst,
            // INT ts_ns, queue_bytes, tx_bytes).
            let mut want = Vec::new();
            let mut now = 0;
            for (tag, &(gap, units)) in steps.iter().enumerate() {
                now += gap * GRID_NS;
                let size = units * 64;
                let (queued, sent) = reference.seen_at(now);
                want.push((queued + size <= link.queue_bytes as u64).then(|| {
                    let dep = reference.accept(now, size);
                    (dep + link.delay.as_nanos(), now, queued + size, sent)
                }));
                let mut p = pkt(&f, 1, 0, 7, tag as u32);
                p.size = size as usize;
                p.int = Some(IntStack::with_path_capacity());
                let ev = f.arrive_event(tor, p);
                proptest::prop_assert!(f.handle(SimTime::from_nanos(now), ev, &mut q).is_none());
            }
            let mut got = vec![None; steps.len()];
            for (t, p) in run_to_end(&mut f, &mut q) {
                let hop = p.int.as_ref().expect("stamped at the ToR").hops[0];
                got[p.payload as usize] =
                    Some((t.as_nanos(), hop.ts_ns, hop.queue_bytes as u64, hop.tx_bytes));
            }
            proptest::prop_assert_eq!(&got, &want);
            proptest::prop_assert_eq!(
                f.drops().queue_overflow as usize,
                want.iter().filter(|w| w.is_none()).count()
            );
        }
    }

    /// Fabric-level oracle: an all-INT incast, seven senders into server
    /// 5, sizes in 1250-byte steps (200 / 100 / 25 ns at 50 / 100 /
    /// 400 Gb/s) sent on a 100 ns grid, so departures and arrivals tie at
    /// many hops. A stamped hop's egress port is the one towards the next
    /// device on the packet's path; per port, every stamp must satisfy the
    /// recursion: next-hop arrival = departure + delay, and `queue_bytes`
    /// / `tx_bytes` as the reference computes them.
    #[test]
    fn port_oracle_int_incast_stamps_follow_lindley() {
        let (mut f, mut q) = fabric();
        let dst = f.topology().servers()[5];
        let mut n = 0u32;
        for round in 0..24u64 {
            for s in [0, 1, 2, 3, 4, 6, 7] {
                let mut p = pkt(&f, s, 5, n as u16, n);
                p.size = 1250 * (1 + (n as usize + round as usize) % 3);
                p.int = Some(IntStack::with_path_capacity());
                f.send(SimTime::from_nanos(round * 100), p, &mut q);
                n += 1;
            }
        }
        let got = run_to_end(&mut f, &mut q);
        assert_eq!(got.len(), n as usize);
        // (device, port) -> (stamp, next-hop arrival, size, queue_bytes, tx_bytes)
        type Stamp = (u64, u64, u64, u64, u64);
        let mut ports: std::collections::BTreeMap<(u32, usize), Vec<Stamp>> = Default::default();
        for (t, p) in &got {
            let hops = &p.int.as_ref().expect("stamped").hops;
            for (j, hop) in hops.iter().enumerate() {
                let (next, next_at) = match hops.get(j + 1) {
                    Some(h) => (DeviceId(h.device_id), h.ts_ns),
                    None => (dst, t.as_nanos()),
                };
                let port = f.topology().devices()[hop.device_id as usize]
                    .ports
                    .iter()
                    .position(|p| p.to == next)
                    .expect("a port towards the next hop");
                ports.entry((hop.device_id, port)).or_default().push((
                    hop.ts_ns,
                    next_at,
                    p.size as u64,
                    hop.queue_bytes as u64,
                    hop.tx_bytes,
                ));
            }
        }
        let mut ties = 0;
        for ((dev, port), mut stamps) in ports {
            let link = f.topology().devices()[dev as usize].ports[port].link;
            let mut reference = LindleyPort {
                rate_bps: link.rate.as_bps(),
                accepted: Vec::new(),
            };
            // A FIFO port departs in enqueue order.
            stamps.sort_by_key(|s| s.1);
            for (at, next_at, size, queue_bytes, tx_bytes) in stamps {
                ties += reference.accepted.iter().filter(|a| a.0 == at).count();
                let (queued, sent) = reference.seen_at(at);
                assert_eq!(
                    (queue_bytes, tx_bytes),
                    (queued + size, sent),
                    "device {dev} port {port}: stamp at {at} ns"
                );
                let dep = reference.accept(at, size);
                assert_eq!(
                    next_at,
                    dep + link.delay.as_nanos(),
                    "device {dev} port {port}: departure of the packet stamped at {at} ns"
                );
            }
        }
        assert!(
            ties > 0,
            "the incast must put departures and arrivals in one nanosecond"
        );
    }

    /// A port that drains between packets writes every packet into its
    /// ring's first slot: the retire before each enqueue empties the ring
    /// and restarts it there, so the front entry's address never moves.
    #[test]
    fn drained_port_rings_restart_at_the_first_slot() {
        let (mut f, mut q) = fabric();
        let front = |f: &Fabric<u32>| -> Vec<(usize, usize, *const (SimTime, u32))> {
            let mut v = Vec::new();
            for (d, dev) in f.devices.iter().enumerate() {
                for (i, port) in dev.ports.iter().enumerate() {
                    if let Some(e) = port.queue.front() {
                        assert_eq!(port.queue.len(), 1, "one packet at a time");
                        v.push((d, i, e as *const _));
                    }
                }
            }
            v
        };
        let mut first = None;
        for cycle in 0..64u32 {
            let at = SimTime::from_micros(u64::from(cycle) * 100);
            f.send(at, pkt(&f, 0, 5, 1000, cycle), &mut q);
            assert_eq!(run_to_end(&mut f, &mut q).len(), 1);
            let now = front(&f);
            assert_eq!(now.len(), 6, "one entry on each port of the path");
            assert_eq!(
                *first.get_or_insert_with(|| now.clone()),
                now,
                "cycle {cycle}"
            );
        }
    }

    /// `Sample` reads every port as of the `now` it is given. After a
    /// drained incast no port is queueing, and the per-port transmitted
    /// bytes add up to what the ports forwarded — although the ports' own
    /// counters, retired only at their next enqueue, are stale.
    #[test]
    fn sample_reads_ports_as_of_now() {
        let (mut f, mut q) = fabric();
        for i in 0..100u32 {
            let mut p = pkt(&f, i as usize % 4, 5, i as u16, i);
            p.int = Some(IntStack::with_path_capacity());
            f.send(SimTime::ZERO, p, &mut q);
        }
        let got = run_to_end(&mut f, &mut q);
        assert_eq!(got.len(), 100);
        // A packet crosses its server's uplink plus one port per switch.
        let forwarded: u64 = got
            .iter()
            .map(|(_, p)| p.size as u64 * (p.int.as_ref().expect("stamped").hops.len() as u64 + 1))
            .sum();
        assert!(
            f.devices
                .iter()
                .flat_map(|d| &d.ports)
                .any(|p| p.queued_bytes > 0),
            "some port still holds unretired entries, or this test proves nothing"
        );
        let mut m = ebs_obs::Metrics::new();
        ebs_obs::Sample::sample_into(&f, q.now(), &mut m);
        let queued = m.histogram("net", "link_queue_bytes").expect("sampled");
        assert_eq!(queued.max(), 0, "a drained fabric queues nothing");
        let tx = m.histogram("net", "link_tx_bytes").expect("sampled");
        assert_eq!((tx.mean() * tx.count() as f64).round() as u64, forwarded);
    }
}
