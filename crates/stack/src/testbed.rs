//! The composed end-to-end testbed.
//!
//! One [`Testbed`] is a simulated deployment: N compute servers and M
//! storage servers on a Clos fabric, running one of the five data-path
//! variants (kernel TCP, LUNA, RDMA, SOLAR*, SOLAR). Guest I/Os traverse
//! QoS → SA → PCIe → transport → fabric → block server → (BN + SSD) →
//! response → completion, with every stage charged against the calibrated
//! models and recorded in a distributed trace (Fig. 6 methodology).
//!
//! This file is the facade: configuration, construction, the event loop
//! and the scheduling API. The hosts it drives live beside it —
//! [`crate::compute`] and [`crate::storage`] (the two node types),
//! [`crate::conn`] (the one place that knows which transport a variant
//! runs), [`crate::net`] (event queue + fabric), [`crate::drivers`]
//! (fio, probes, cross-shard replication), [`blk`] (the block frontend)
//! and [`crate::digest`] (what a run looks like from outside). DESIGN.md
//! §7.11 maps files to the events they handle and lists the ordering
//! invariants the byte-pinned digests depend on.

use ebs_net::{ClosConfig, DeviceId, Fabric, FailureMode, NetEvent};
use ebs_rdma::QpConfig;
use ebs_sa::{IoRequest, QosSpec};
use ebs_sim::{FxHashMap, SimDuration, SimTime};
use ebs_solar::SolarConfig;
use ebs_storage::{BnConfig, SsdConfig, StorageBreakdown, StorageServer};
use ebs_wire::{Handle, Slab, BLK_S_OK};

use ebs_obs::{Journal, Metrics};

use crate::compute::ComputeNode;
use crate::conn::{Rx, Wire};
use crate::drivers::{RemoteMsg, RemoteState};
use crate::net::{Net, NodeSlot, Packet};
use crate::storage::{Reply, StorageNode};
use crate::trace::IoTrace;

pub mod blk;

/// The five FN data-path variants of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Kernel TCP + software SA.
    Kernel,
    /// LUNA user-space TCP + software SA.
    Luna,
    /// RDMA transport + software SA (Fig. 10b).
    Rdma,
    /// SOLAR protocol with data-plane offload disabled (§4.7's SOLAR*).
    SolarStar,
    /// Full SOLAR: one-block-one-packet, FPGA data path (Fig. 10c).
    Solar,
}

impl Variant {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Variant::Kernel => "Kernel",
            Variant::Luna => "Luna",
            Variant::Rdma => "RDMA",
            Variant::SolarStar => "Solar*",
            Variant::Solar => "Solar",
        }
    }

    /// PCIe traversal profile (Fig. 10).
    pub(crate) fn pcie_path(&self) -> ebs_dpu::DataPath {
        match self {
            Variant::Kernel | Variant::Luna => ebs_dpu::DataPath::Luna,
            Variant::Rdma => ebs_dpu::DataPath::Rdma,
            Variant::SolarStar => ebs_dpu::DataPath::SolarStar,
            Variant::Solar => ebs_dpu::DataPath::Solar,
        }
    }
}

/// A message the fabric carries. Opaque outside the crate: it appears in
/// the public API only as the type parameter of [`Testbed::fabric`].
#[derive(Debug)]
pub struct Msg(pub(crate) Body);

#[derive(Debug)]
pub(crate) enum Body {
    /// One transport unit of the (compute, storage) connection.
    Conn {
        compute: u32,
        storage: u32,
        wire: Wire,
    },
    /// Cross-shard replication RPC (or its response).
    Remote(RemoteMsg),
    /// Storage-function pushdown frame (request or response; a header
    /// flag disambiguates) between a block-frontend mount and a block
    /// server.
    Pushdown(blk::PushdownMsg),
}

/// Testbed configuration.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Data-path variant under test.
    pub variant: Variant,
    /// Compute servers.
    pub n_compute: usize,
    /// Storage servers.
    pub n_storage: usize,
    /// DPU CPU cores available to the FN stack + SA on each compute
    /// server (Fig. 14 sweeps 1-3).
    pub compute_cores: usize,
    /// Fabric geometry.
    pub fabric: ClosConfig,
    /// Routing convergence delay after fail-stop.
    pub routing_convergence: SimDuration,
    /// RED/ECN marking at switch egress queues (off by default; the
    /// DCQCN arm of the CC matrix and the RDMA baseline turn it on).
    pub ecn: ebs_net::EcnConfig,
    /// Segments per virtual disk.
    pub vd_segments: u64,
    /// QoS spec per disk (use [`QosSpec::unlimited`] unless testing QoS).
    pub qos: QosSpec,
    /// SSD model.
    pub ssd: SsdConfig,
    /// Backend network model.
    pub bn: BnConfig,
    /// SOLAR transport parameters (including the congestion-control
    /// algorithm selection in [`SolarConfig::cc`]).
    pub solar: SolarConfig,
    /// RDMA queue-pair parameters for the RDMA baseline: whether DCQCN
    /// runs over the credit window.
    pub rdma: QpConfig,
    /// Swap the LUNA TCP engine's Reno controller for Swift when set.
    pub tcp_swift: bool,
    /// DPU PCIe channel parameters (Fig. 10's internal bottleneck).
    pub pcie: ebs_dpu::PcieConfig,
    /// Run the storage-agent data plane (tables, CRC) on each I/O. The
    /// Table 1 methodology benchmarks the bare RPC path, so it disables
    /// this.
    pub sa_enabled: bool,
    /// Virtual disks provisioned per compute server (fleet runs model
    /// many VMs per server). Disk ids are `compute * vds_per_compute ..`;
    /// with the default of 1, vd id == compute index as before.
    pub vds_per_compute: u64,
    /// Reserve one spare server slot as the shard *gateway*: the
    /// boundary device cross-shard replication traffic enters and leaves
    /// through. Required by [`Testbed::enable_remote_replication`].
    pub gateway: bool,
    /// RNG seed.
    pub seed: u64,
}

impl TestbedConfig {
    /// A small default testbed for `variant`: fabric sized to fit the
    /// servers, generous VDs, no QoS throttling.
    pub fn small(variant: Variant, n_compute: usize, n_storage: usize) -> Self {
        let servers_per_tor = 4;
        // Compute and storage clusters live in separate pods (Fig. 1), so
        // FN traffic genuinely crosses the spine/core tiers.
        let compute_tors = n_compute.div_ceil(servers_per_tor).max(2) as u32;
        let storage_tors = n_storage.div_ceil(servers_per_tor).max(2) as u32;
        let tors = compute_tors + storage_tors;
        let pods = tors.div_ceil(2).max(2);
        let mut fabric = ClosConfig::testbed(pods, 2, servers_per_tor as u32);
        // Production servers attach to a ToR *pair* (§3.3); SOLAR's
        // multipath needs that diversity to survive ToR-level failures.
        fabric.dual_homed = true;
        TestbedConfig {
            variant,
            n_compute,
            n_storage,
            compute_cores: 6,
            fabric,
            routing_convergence: SimDuration::from_secs(30),
            ecn: ebs_net::EcnConfig::default(),
            vd_segments: 16,
            qos: QosSpec::unlimited(),
            ssd: SsdConfig::default(),
            bn: BnConfig::default(),
            solar: SolarConfig::default(),
            rdma: QpConfig::default(),
            tcp_swift: false,
            pcie: ebs_dpu::PcieConfig::default(),
            sa_enabled: true,
            vds_per_compute: 1,
            gateway: false,
            seed: 1,
        }
    }
}

/// World events. Indices are positions in `Testbed::computes` /
/// `Testbed::storages`.
#[derive(Debug)]
pub(crate) enum Event {
    /// Fabric internals. Non-generic and 16 bytes: packets live in the
    /// fabric's arena and only a handle rides the queue.
    Net(NetEvent),
    /// A guest submits an I/O. Only `from_fio` I/Os (the closed-loop
    /// driver's) trigger a resubmission on completion.
    Guest {
        compute: u32,
        io: IoRequest,
        from_fio: bool,
    },
    /// SA processing (CPU + PCIe) finished; hand the I/O to the transport.
    SaDone { compute: usize, io_id: u64 },
    /// Storage backend finished; emit the response.
    StorageDone {
        storage: usize,
        /// The reply, parked in [`World::replies`]: keeping the widest
        /// payload out of line keeps the whole `Event` enum — and thus
        /// every queue entry — small, and the slab reuses the slot the
        /// last reply left warm. The boxes below are there for the same
        /// reason, on events too rare to need a slab.
        reply: Handle,
    },
    /// Compute-side transport timer.
    ComputeTimer { compute: usize },
    /// Storage-side transport timer.
    StorageTimer { storage: usize },
    /// Inject a fabric failure (`convergence`: routing-convergence
    /// override, None = fabric default).
    InjectFailure {
        device: DeviceId,
        mode: Box<FailureMode>,
        convergence: Option<SimDuration>,
    },
    /// Heal a fabric failure.
    Heal { device: DeviceId },
    /// Replace the QoS spec of every disk of a compute server (throttle
    /// injection; restore with [`QosSpec::unlimited`]).
    SetQos { compute: usize, spec: Box<QosSpec> },
    /// Multiply (or with factor 1.0, heal) a storage server's service time.
    DegradeStorage { storage: usize, factor: f64 },
    /// Stall (or with `SimDuration::ZERO`, heal) a compute server's DPU
    /// PCIe channels: every transfer pays the extra latency.
    StallPcie { compute: usize, extra: SimDuration },
    /// Detach the closed-loop fio driver from a compute server: completed
    /// I/Os stop resubmitting, letting the testbed drain to quiescence.
    StopFio { compute: usize },
    /// Open-loop probe driver tick: issue one I/O and rearm.
    ProbeTick { compute: usize },
    /// Detach the probe driver from a compute server: its pending tick
    /// issues nothing and does not rearm.
    StopProbe { compute: usize },
    /// Cross-shard replication tick on a storage server: issue one
    /// replication RPC toward a peer shard and rearm.
    ReplTick { storage: usize },
    /// Stop cross-shard replication: every pending tick issues nothing
    /// and does not rearm.
    StopRepl,
    /// A guest submits a request on a block-frontend ring.
    BlkGuest {
        compute: usize,
        queue: usize,
        req: Box<blk::BlkReq>,
    },
    /// A locally-served block-frontend request (flush/discard) finished;
    /// complete ring descriptor `desc` of blk trace `trace_idx`.
    BlkLocalDone { desc: u16, trace_idx: usize },
    /// Pushdown retransmit timer for one in-flight request id.
    BlkRetx { req_id: u64 },
}

// `Event` rides inside the event queue's 48-byte entries: a fatter one
// costs every schedule, sort neighbour and pop. (The `Msg` pin sits in
// `tests/digest_golden.rs`.)
const _: () = assert!(std::mem::size_of::<Event>() <= 32);

// A storage server holds one `ServerConn` slot per compute id up to the
// highest that connected, opened or not; SOLAR's arm (peer ids and the
// responder's counter vector) sets the width, the other engines are boxed.
const _: () = assert!(std::mem::size_of::<Option<crate::conn::ServerConn>>() <= 72);

impl Event {
    /// A guest I/O on compute server `compute` (stored as `u32` to fit
    /// the 32 bytes above).
    pub(crate) fn guest(compute: usize, io: IoRequest, from_fio: bool) -> Self {
        let compute = compute as u32;
        Event::Guest {
            compute,
            io,
            from_fio,
        }
    }
}

/// Wall-clock nanoseconds spent per simulation phase, collected when
/// [`Testbed::enable_profiling`] was called before the run. Accumulators
/// overlap deliberately: `deliver_ns` includes the pump work it triggers,
/// and `pump_ns` separately totals all pumping wherever it ran — the
/// breakdown is for *attribution*, not for summing to 100%.
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseCycles {
    /// Event-queue pop (incl. horizon peeking).
    pub pop_ns: u64,
    /// The whole `Event::Net` dispatch: fabric routing, queueing and
    /// serialization *and*, for a packet reaching its endpoint, the
    /// delivery it triggers — so it includes `deliver_ns` (and through it
    /// part of `pump_ns`); the fabric proper is `net_ns - deliver_ns`.
    pub net_ns: u64,
    /// Endpoint delivery: transport rx, request serving, completions.
    pub deliver_ns: u64,
    /// Transport pumping (poll_transmit / poll_timer scans), wherever
    /// it was triggered from.
    pub pump_ns: u64,
    /// Host-side events: guest submission, SA completion, storage done,
    /// transport timers.
    pub host_ns: u64,
    /// Events dispatched while profiling.
    pub events: u64,
}

/// What every node runs on: the configuration, the network, the per-I/O
/// ledger (traces, storage breakdowns, journal), the storage-side stack
/// latency and the profiler. One field of [`Testbed`], disjoint from the
/// nodes, so a node method can hold `&mut self` and `&mut World` at once.
pub(crate) struct World {
    pub cfg: TestbedConfig,
    pub net: Net,
    pub traces: Vec<IoTrace>,
    /// Storage-side latency split per in-flight RPC, merged on the
    /// storage node and consumed at completion on the compute node.
    pub breakdowns: FxHashMap<(u32, u64), StorageBreakdown>,
    /// Structured event journal: per-I/O component spans + transport
    /// instants.
    pub journal: Journal,
    /// Storage-side stack latency per served request.
    pub server_stack_latency: SimDuration,
    /// Phase-cycle accounting; `None` (the default) costs one branch per
    /// event.
    pub prof: Option<Box<PhaseCycles>>,
    /// Replies the storage backends are preparing, each owned by the one
    /// [`Event::StorageDone`] that emits it.
    pub replies: Slab<Reply>,
}

pub(crate) const NO_STORAGE: StorageBreakdown = StorageBreakdown {
    bn: SimDuration::ZERO,
    ssd: SimDuration::ZERO,
};

impl World {
    pub(crate) fn merge_breakdown(&mut self, compute: u32, rpc_id: u64, bd: StorageBreakdown) {
        let e = self
            .breakdowns
            .entry((compute, rpc_id))
            .or_insert(NO_STORAGE);
        e.bn = e.bn.max(bd.bn);
        e.ssd = e.ssd.max(bd.ssd);
    }

    /// Park `reply` until storage server `storage` emits it at `at`.
    pub(crate) fn reply_at(&mut self, at: SimTime, storage: usize, reply: Reply) {
        let reply = self.replies.insert(reply);
        self.net
            .q
            .schedule_at(at, Event::StorageDone { storage, reply });
    }
}

/// The composed world (see module docs).
pub struct Testbed {
    pub(crate) computes: Vec<ComputeNode>,
    pub(crate) storages: Vec<StorageNode>,
    pub(crate) w: World,
    /// Cross-shard replication engine, when enabled.
    pub(crate) remote: Option<Box<RemoteState>>,
    /// Block-frontend state, boxed and absent until the first
    /// [`Testbed::blk_mount`]; runs that never mount keep digests
    /// byte-identical with historical baselines.
    pub(crate) blk: Option<Box<blk::BlkState>>,
    /// Metrics registry refreshed by [`Testbed::sample_obs`].
    pub(crate) metrics: Metrics,
}

impl Testbed {
    /// Build a testbed.
    ///
    /// # Panics
    /// Panics if the fabric has fewer server slots than
    /// `n_compute + n_storage` (plus one for the gateway, if configured).
    pub fn new(cfg: TestbedConfig) -> Self {
        let net = Net::new(&cfg);
        let computes = (0..cfg.n_compute)
            .map(|i| ComputeNode::new(i, &cfg))
            .collect();
        let storages = (0..cfg.n_storage)
            .map(|j| StorageNode::new(j, StorageServer::new(j, cfg.ssd, cfg.bn, cfg.seed)))
            .collect();
        Testbed {
            computes,
            storages,
            w: World {
                server_stack_latency: crate::conn::server_stack_latency(cfg.variant),
                cfg,
                net,
                traces: Vec::new(),
                breakdowns: FxHashMap::default(),
                journal: Journal::new(),
                prof: None,
                replies: Slab::new(),
            },
            remote: None,
            blk: None,
            metrics: Metrics::new(),
        }
    }

    /// Turn on per-phase wall-clock accounting for subsequent
    /// [`Testbed::run_until`] calls (the `benchmark/` harness's `--trace`
    /// ledger reads it). Adds measurement overhead; leave off for timed
    /// runs.
    pub fn enable_profiling(&mut self) {
        self.w.prof = Some(Box::default());
    }

    /// The phase breakdown collected so far (None unless
    /// [`Testbed::enable_profiling`] was called).
    pub fn phase_cycles(&self) -> Option<PhaseCycles> {
        self.w.prof.as_deref().copied()
    }

    /// The configuration.
    pub fn config(&self) -> &TestbedConfig {
        &self.w.cfg
    }

    /// The fabric (topology queries, drop stats).
    pub fn fabric(&self) -> &Fabric<Msg> {
        &self.w.net.fabric
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.w.net.q.now()
    }

    fn schedule(&mut self, at: SimTime, ev: Event) {
        self.w.net.q.schedule_at(at, ev);
    }

    /// Schedule a guest I/O.
    pub fn schedule_io(&mut self, at: SimTime, compute: usize, io: IoRequest) {
        self.schedule(at, Event::guest(compute, io, false));
    }

    /// Schedule a fabric failure injection.
    pub fn schedule_failure(&mut self, at: SimTime, device: DeviceId, mode: FailureMode) {
        let (mode, convergence) = (Box::new(mode), None);
        let ev = Event::InjectFailure {
            device,
            mode,
            convergence,
        };
        self.schedule(at, ev);
    }

    /// Schedule a fail-stop whose routing convergence differs from the
    /// fabric default (fabric-internal link-down converges in tens of
    /// milliseconds; host-facing ToR loss takes tens of seconds).
    pub fn schedule_failure_with(
        &mut self,
        at: SimTime,
        device: DeviceId,
        mode: FailureMode,
        convergence: SimDuration,
    ) {
        let (mode, convergence) = (Box::new(mode), Some(convergence));
        self.schedule(
            at,
            Event::InjectFailure {
                device,
                mode,
                convergence,
            },
        );
    }

    /// Schedule a heal.
    pub fn schedule_heal(&mut self, at: SimTime, device: DeviceId) {
        self.schedule(at, Event::Heal { device });
    }

    /// Schedule a QoS spec replacement on a compute server's virtual disk
    /// (throttle injection; schedule [`QosSpec::unlimited`] to restore).
    pub fn schedule_qos(&mut self, at: SimTime, compute: usize, spec: QosSpec) {
        let spec = Box::new(spec);
        self.schedule(at, Event::SetQos { compute, spec });
    }

    /// Schedule a storage-service slowdown (`factor` > 1.0) or its heal
    /// (`factor` = 1.0).
    pub fn schedule_storage_degrade(&mut self, at: SimTime, storage: usize, factor: f64) {
        self.schedule(at, Event::DegradeStorage { storage, factor });
    }

    /// Schedule a DPU PCIe stall (`extra` latency per transfer) or its
    /// heal (`SimDuration::ZERO`).
    pub fn schedule_pcie_stall(&mut self, at: SimTime, compute: usize, extra: SimDuration) {
        self.schedule(at, Event::StallPcie { compute, extra });
    }

    /// Schedule the detachment of every fio driver: from `at` on,
    /// completions stop resubmitting and the testbed drains toward
    /// quiescence (in-flight and already-queued I/Os still finish).
    pub fn schedule_stop_fio(&mut self, at: SimTime) {
        for compute in 0..self.computes.len() {
            self.schedule(at, Event::StopFio { compute });
        }
    }

    /// Schedule the detachment of every probe driver: from `at` on, no
    /// probe issues an I/O (in-flight I/Os still finish).
    pub fn schedule_stop_probes(&mut self, at: SimTime) {
        for compute in 0..self.computes.len() {
            self.schedule(at, Event::StopProbe { compute });
        }
    }

    /// Schedule the end of this testbed's cross-shard replication: from
    /// `at` on, its storage servers issue no replication RPC. RPCs in
    /// flight still complete, and requests from other shards are still
    /// served.
    pub fn schedule_stop_replication(&mut self, at: SimTime) {
        self.schedule(at, Event::StopRepl);
    }

    /// Run the world until `horizon` (inclusive of events at it): pop,
    /// dispatch, repeat. The clock ends on the last event dispatched,
    /// never past `horizon`.
    pub fn run_until(&mut self, horizon: SimTime) {
        if self.w.prof.is_some() {
            return self.run_until_profiled(horizon);
        }
        while let Some((now, ev)) = self.w.net.q.pop_le(horizon) {
            self.dispatch(now, ev);
        }
    }

    /// [`Testbed::run_until`] with per-phase wall-clock attribution. Two
    /// clock reads per event: the gap from the end of one dispatch to the
    /// start of the next is the pop.
    fn run_until_profiled(&mut self, horizon: SimTime) {
        let mut idle = crate::wallclock::now();
        while let Some((now, ev)) = self.w.net.q.pop_le(horizon) {
            let d0 = crate::wallclock::now();
            let is_net = matches!(ev, Event::Net(_));
            self.dispatch(now, ev);
            let d1 = crate::wallclock::now();
            // prof is Some on this path by construction
            let p = self.w.prof.as_mut().unwrap();
            p.events += 1;
            p.pop_ns += (d0 - idle).as_nanos() as u64;
            let d = (d1 - d0).as_nanos() as u64;
            if is_net {
                p.net_ns += d;
            } else {
                p.host_ns += d;
            }
            idle = d1;
        }
    }

    /// Advance the simulated clock across an idle stretch without
    /// dispatching anything (debug-panics if an event before `t` is
    /// still pending). The sharded executor lines every shard up on a
    /// window edge with this.
    pub fn advance_clock_to(&mut self, t: SimTime) {
        self.w.net.q.advance_to(t);
    }

    fn dispatch(&mut self, now: SimTime, ev: Event) {
        let Testbed {
            computes,
            storages,
            w,
            blk,
            ..
        } = self;
        match ev {
            Event::Net(nev) => self.net_event(now, nev),
            Event::Guest {
                compute,
                io,
                from_fio,
            } => {
                computes[compute as usize].guest_io(now, io, from_fio, w);
            }
            Event::SaDone { compute, io_id } => computes[compute].sa_done(now, io_id, w),
            Event::StorageDone { storage, reply } => storages[storage].done(now, reply, w),
            Event::ComputeTimer { compute } => {
                computes[compute].on_timer(now, w, blk.as_deref_mut());
            }
            Event::StorageTimer { storage } => storages[storage].on_timer(now, w),
            Event::InjectFailure {
                device,
                mode,
                convergence,
            } => w.net.inject_failure(device, *mode, convergence),
            Event::Heal { device } => w.net.fabric.heal(device),
            Event::SetQos { compute, spec } => {
                let vds = w.cfg.vds_per_compute.max(1);
                for v in 0..vds {
                    computes[compute]
                        .qos
                        .set_spec(compute as u64 * vds + v, *spec);
                }
            }
            Event::DegradeStorage { storage, factor } => {
                storages[storage].backend.set_degrade(factor);
            }
            Event::StallPcie { compute, extra } => computes[compute].pcie.set_stall(extra),
            Event::StopFio { compute } => computes[compute].fio = None,
            Event::ProbeTick { compute } => self.probe_tick(now, compute),
            Event::StopProbe { compute } => computes[compute].probe = None,
            Event::ReplTick { storage } => self.repl_tick(now, storage),
            Event::StopRepl => self.stop_replication(),
            Event::BlkGuest {
                compute,
                queue,
                req,
            } => {
                if let Some(blk) = blk {
                    blk.guest(now, &mut computes[compute], queue, *req, w);
                }
            }
            Event::BlkLocalDone { desc, trace_idx } => {
                if let Some(blk) = blk {
                    blk.complete(&mut w.journal, now, desc, trace_idx, BLK_S_OK, 0);
                }
            }
            Event::BlkRetx { req_id } => {
                if let Some(blk) = blk {
                    blk.send_parts(now, req_id, true, w);
                }
            }
        }
    }

    /// One fabric event; a packet that reaches its destination server is
    /// delivered to whatever node sits there.
    fn net_event(&mut self, now: SimTime, nev: NetEvent) {
        let Some(pkt) = self.w.net.handle(now, nev) else {
            return;
        };
        let t0 = self.w.prof.is_some().then(crate::wallclock::now);
        self.deliver(now, pkt);
        if let (Some(t0), Some(p)) = (t0, self.w.prof.as_deref_mut()) {
            p.deliver_ns += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Demultiplex a delivered packet by what it carries and who sits at
    /// its destination. Combinations no sender produces — replication
    /// traffic at a compute server, anything else at the gateway,
    /// anything at a switch — are dropped.
    fn deliver(&mut self, now: SimTime, pkt: Packet) {
        let Packet {
            flow,
            int,
            ecn,
            payload: Msg(body),
            ..
        } = pkt;
        let (w, blk) = (&mut self.w, self.blk.as_deref_mut());
        let slot = w.net.node_at(flow.dst);
        match body {
            Body::Conn {
                compute,
                storage,
                wire,
            } => {
                let src_port = flow.src_port;
                let rx = Rx {
                    wire,
                    ecn,
                    int,
                    src_port,
                };
                match slot {
                    NodeSlot::Storage(s) => self.storages[s as usize].rx(now, compute, rx, w),
                    NodeSlot::Compute(c) => self.computes[c as usize].rx(now, storage, rx, w, blk),
                    _ => {}
                }
            }
            Body::Remote(m) => match slot {
                NodeSlot::Storage(s) => self.remote_rx(now, s as usize, m),
                NodeSlot::Gateway => self.gateway_rx(now, m),
                _ => {}
            },
            Body::Pushdown(m) => match (blk, slot) {
                (Some(blk), NodeSlot::Storage(s)) => {
                    blk.pushdown_storage(now, &mut self.storages[s as usize], m, w);
                }
                (Some(blk), NodeSlot::Compute(c)) => {
                    let cpu = &mut self.computes[c as usize].cpu;
                    blk.pushdown_compute(now, cpu, m, &mut w.journal);
                }
                _ => {}
            },
        }
    }
}

pub(crate) fn min_opt(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, y) => x.or(y),
    }
}
