//! The composed end-to-end testbed.
//!
//! One [`Testbed`] is a simulated deployment: N compute servers and M
//! storage servers on a Clos fabric, running one of the five data-path
//! variants (kernel TCP, LUNA, RDMA, SOLAR*, SOLAR). Guest I/Os traverse
//! QoS → SA → PCIe → transport → fabric → block server → (BN + SSD) →
//! response → completion, with every stage charged against the calibrated
//! models and recorded in a distributed trace (Fig. 6 methodology).

use std::collections::BTreeMap;

use bytes::Bytes;
use ebs_luna::{read_request, write_request, RpcClient, RpcServer, StackCosts};
use ebs_net::{
    ClosConfig, DeviceId, Fabric, FabricConfig, FabricPacket, FailureMode, FlowLabel, NetEvent,
    Topology,
};
use ebs_rdma::{QpConfig, QpPacket, RdmaQp};
use ebs_sa::{split_io, IoKind, IoRequest, QosSpec, QosTable, SegmentTable, SubIo, BLOCK_SIZE};
use ebs_sim::{rng, EventQueue, FxHashMap, MapScheduler, SimDuration, SimTime};
use ebs_solar::{
    InPacket, OutPacket, ReadBlock, ServerAction, SolarClient, SolarConfig, SolarEvent,
    SolarResponder, WriteBlock,
};
use ebs_storage::{BnConfig, SsdConfig, StorageBreakdown, StorageServer};
use ebs_tcp::{Segment, TcpConfig};
use ebs_wire::{EbsHeader, IntStack, RpcFrame, RpcMethod};
use rand::rngs::SmallRng;
use rand::Rng;

use ebs_obs::{Journal, Metrics, Sample};

use crate::calibrate::{RdmaCosts, SaCosts, SolarCosts};
use crate::diag::IoExplanation;
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
    fn pcie_path(&self) -> ebs_dpu::DataPath {
        match self {
            Variant::Kernel | Variant::Luna => ebs_dpu::DataPath::Luna,
            Variant::Rdma => ebs_dpu::DataPath::Rdma,
            Variant::SolarStar => ebs_dpu::DataPath::SolarStar,
            Variant::Solar => ebs_dpu::DataPath::Solar,
        }
    }
}

/// Messages the fabric carries.
#[derive(Debug)]
pub enum Msg {
    /// TCP segment of a (compute, storage) connection.
    Tcp {
        /// Compute endpoint index.
        compute: u32,
        /// Storage endpoint index.
        storage: u32,
        /// The segment.
        seg: Segment,
    },
    /// RDMA RC packet of a (compute, storage) QP.
    Rdma {
        /// Compute endpoint index.
        compute: u32,
        /// Storage endpoint index.
        storage: u32,
        /// The packet.
        pkt: QpPacket,
    },
    /// SOLAR packet (either direction; header op disambiguates).
    Solar {
        /// Compute endpoint index.
        compute: u32,
        /// Storage endpoint index.
        storage: u32,
        /// The EBS header.
        hdr: EbsHeader,
        /// INT stack echoed in an ACK (as opposed to collected en route).
        echo_int: Option<IntStack>,
    },
    /// Cross-shard replication RPC (or its response): BN chunk
    /// replication between storage clusters in different shards. Within
    /// a shard it rides the local fabric between a storage server and
    /// the shard gateway; between shards the sharded executor carries it
    /// through deterministic mailboxes.
    Remote(RemoteMsg),
    /// Storage-function pushdown frame (request or response; a header
    /// flag disambiguates) between a block-frontend mount and a block
    /// server.
    Pushdown(blk::PushdownMsg),
}

/// A cross-shard storage-to-storage replication RPC. Plain data (`Copy`,
/// no payload handle) so it can cross thread boundaries in the sharded
/// executor's mailboxes.
#[derive(Debug, Clone, Copy)]
pub struct RemoteMsg {
    /// Shard that issued the RPC.
    pub src_shard: u32,
    /// Shard that serves it.
    pub dst_shard: u32,
    /// Issuing storage index within `src_shard`.
    pub src_storage: u32,
    /// Serving storage index within `dst_shard`.
    pub dst_storage: u32,
    /// Correlation id, unique within `src_shard`.
    pub rpc_id: u64,
    /// Blocks replicated (request payload size).
    pub blocks: u32,
    /// True for the response leg.
    pub is_resp: bool,
    /// Issue time at the source storage (for end-to-end RTT accounting;
    /// all shards share one simulated timebase).
    pub issued: SimTime,
    /// Time this leg reached its sending shard's gateway; the message
    /// lands in the destination shard at `depart + boundary_latency`.
    pub depart: SimTime,
    /// Outbox sequence within the source shard: with the shard id it
    /// totally orders every exchanged message, which fixes the mailbox
    /// drain order — and therefore event-queue tie-breaking — across
    /// any thread schedule.
    pub seq: u64,
}

/// Closed-loop fio-style driver configuration (Fig. 14/15, Table 2).
#[derive(Debug, Clone, Copy)]
pub struct FioConfig {
    /// Outstanding I/Os kept in flight.
    pub depth: usize,
    /// I/O size in bytes (4 KiB aligned).
    pub bytes: u32,
    /// Fraction of reads (1.0 = pure read).
    pub read_fraction: f64,
}

#[derive(Debug)]
struct FioState {
    cfg: FioConfig,
    rng: SmallRng,
    issued: u64,
}

/// Open-loop probe driver: a fixed-rate trickle of I/Os per compute
/// server (fleet runs model thousands of lightly-loaded VMs; a
/// closed-loop fio driver per VM would saturate every server).
#[derive(Debug)]
struct ProbeState {
    interval: SimDuration,
    bytes: u32,
    read_fraction: f64,
    rng: SmallRng,
}

/// Cross-shard replication engine state
/// (see [`Testbed::enable_remote_replication`]).
struct RemoteState {
    shard: u32,
    n_shards: u32,
    /// Storage servers per peer shard (uniform fleets only).
    peer_storages: u32,
    blocks: u32,
    interval: SimDuration,
    rng: SmallRng,
    next_rpc_id: u64,
    /// Outbox sequence counter; see [`RemoteMsg::seq`].
    next_seq: u64,
    /// Messages that reached the gateway this window, awaiting pickup by
    /// the sharded executor ([`Testbed::take_remote_outbox`]).
    outbox: Vec<RemoteMsg>,
    issued: u64,
    served: u64,
    completed: u64,
    rtt_ns_sum: u64,
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
    /// RDMA queue-pair parameters for the RDMA baseline, including the
    /// optional DCQCN controller.
    pub rdma: QpConfig,
    /// Swap the LUNA TCP engine's Reno controller for Swift when set.
    pub tcp_swift: Option<ebs_cc::SwiftConfig>,
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
            tcp_swift: None,
            pcie: ebs_dpu::PcieConfig::default(),
            sa_enabled: true,
            vds_per_compute: 1,
            gateway: false,
            seed: 1,
        }
    }
}

#[derive(Debug)]
enum ComputeTransport {
    // BTreeMaps: host pumps iterate the connections, and iteration order
    // must be deterministic for bit-identical replays.
    Tcp {
        costs: StackCosts,
        conns: BTreeMap<u32, RpcClient>,
    },
    Rdma {
        costs: RdmaCosts,
        conns: BTreeMap<u32, RdmaQp>,
    },
    Solar {
        clients: BTreeMap<u32, SolarClient>,
    },
}

#[derive(Debug)]
struct PendingIo {
    trace_idx: usize,
    subs_total: usize,
    subs_done: usize,
    sa_ready: SimTime,
    max_storage: StorageBreakdown,
    done_at: SimTime,
    /// Completion-side SA work (SOLAR's doorbell path), attributed to the
    /// SA component per §4.7.
    completion_sa: SimDuration,
    /// Whether this I/O came from the fio driver (closed-loop resubmit).
    from_fio: bool,
    subs: Vec<SubIo>,
}

struct ComputeNode {
    device: DeviceId,
    cpu: ebs_dpu::DpuCpu,
    pcie: ebs_dpu::DpuPcie,
    seg_table: SegmentTable,
    qos: QosTable,
    transport: ComputeTransport,
    pending: FxHashMap<u64, PendingIo>,
    rpc_to_io: FxHashMap<u64, (u64, u32)>,
    next_io_id: u64,
    next_rpc_id: u64,
    fio: Option<FioState>,
    probe: Option<ProbeState>,
    timer_at: Option<SimTime>,
    completed_ios: u64,
    completed_bytes: u64,
}

struct StorageNode {
    device: DeviceId,
    backend: StorageServer,
    tcp: BTreeMap<u32, RpcServer>,
    rdma: BTreeMap<u32, RdmaQp>,
    solar: BTreeMap<u32, SolarResponder>,
    timer_at: Option<SimTime>,
}

/// A reply the storage backend finished preparing.
#[derive(Debug)]
pub enum Reply {
    /// TCP response frame on a connection.
    Tcp {
        /// Compute peer.
        compute: u32,
        /// Response frame.
        frame: RpcFrame,
    },
    /// RDMA response message.
    Rdma {
        /// Compute peer.
        compute: u32,
        /// Encoded response frame.
        frame: RpcFrame,
    },
    /// SOLAR response packet.
    Solar {
        /// Compute peer.
        compute: u32,
        /// The packet to emit.
        out: OutPacket,
        /// INT echoed from the request.
        echo_int: Option<IntStack>,
        /// The request's UDP source port: replies return to it, so the
        /// reverse flow re-hashes whenever the client remaps a path.
        reply_port: u16,
    },
    /// Cross-shard replication response, ready to head back to the
    /// issuing shard through the gateway.
    Remote(RemoteMsg),
    /// Pushdown response, ready to head back to the issuing compute
    /// server with its result blocks.
    Pushdown(blk::PushdownMsg),
}

/// World events.
#[derive(Debug)]
pub enum Event {
    /// Fabric internals. Non-generic and 16 bytes: packets live in the
    /// fabric's arena and only a handle rides the queue.
    Net(NetEvent),
    /// A guest submits an I/O.
    Guest {
        /// Compute server index.
        compute: usize,
        /// The request.
        io: IoRequest,
        /// True when issued by the closed-loop fio driver (only such I/Os
        /// trigger a resubmission on completion).
        from_fio: bool,
    },
    /// SA processing (CPU + PCIe) finished; hand the I/O to the transport.
    SaDone {
        /// Compute server index.
        compute: usize,
        /// I/O id.
        io_id: u64,
    },
    /// Storage backend finished; emit the response.
    StorageDone {
        /// Storage server index.
        storage: usize,
        /// The prepared reply. Boxed deliberately: replies are orders of
        /// magnitude rarer than per-hop [`Event::Net`] events, and keeping
        /// the widest variant out of line keeps the whole `Event` enum —
        /// and thus every queue slab slot — small.
        reply: Box<Reply>,
    },
    /// Compute-side transport timer.
    ComputeTimer {
        /// Compute server index.
        compute: usize,
    },
    /// Storage-side transport timer.
    StorageTimer {
        /// Storage server index.
        storage: usize,
    },
    /// Inject a fabric failure.
    InjectFailure {
        /// Device to fail.
        device: DeviceId,
        /// Mode.
        mode: FailureMode,
        /// Routing-convergence override (None = fabric default).
        convergence: Option<SimDuration>,
    },
    /// Heal a fabric failure.
    Heal {
        /// Device to heal.
        device: DeviceId,
    },
    /// Replace a compute server's QoS spec for its own virtual disk
    /// (throttle injection; restore with [`QosSpec::unlimited`]).
    SetQos {
        /// Compute server index.
        compute: usize,
        /// New spec for vd `compute`.
        spec: QosSpec,
    },
    /// Degrade (or with factor 1.0, heal) a storage server's service time.
    DegradeStorage {
        /// Storage server index.
        storage: usize,
        /// Service-time multiplier (1.0 = healthy).
        factor: f64,
    },
    /// Stall (or with `SimDuration::ZERO`, heal) a compute server's DPU
    /// PCIe channels: every transfer pays the extra latency.
    StallPcie {
        /// Compute server index.
        compute: usize,
        /// Extra latency per transfer.
        extra: SimDuration,
    },
    /// Detach the closed-loop fio driver from a compute server: completed
    /// I/Os stop resubmitting, letting the testbed drain to quiescence.
    StopFio {
        /// Compute server index.
        compute: usize,
    },
    /// Open-loop probe driver tick: issue one I/O and rearm.
    ProbeTick {
        /// Compute server index.
        compute: usize,
    },
    /// Cross-shard replication tick on a storage server: issue one
    /// replication RPC toward a peer shard and rearm.
    ReplTick {
        /// Storage server index.
        storage: usize,
    },
    /// A guest submits a request on a block-frontend ring.
    BlkGuest {
        /// Compute server index.
        compute: usize,
        /// Queue index within the mount.
        queue: usize,
        /// The ring request.
        req: blk::BlkReq,
    },
    /// A locally-served block-frontend request (flush/discard) finished.
    BlkLocalDone {
        /// Compute server index.
        compute: usize,
        /// Queue index within the mount.
        queue: usize,
        /// Ring descriptor to complete.
        desc: u16,
        /// Completion status.
        status: u8,
        /// Completion byte count.
        len: u32,
        /// Index into the blk trace stream.
        trace_idx: usize,
    },
    /// Pushdown retransmit timer for one in-flight request id.
    BlkRetx {
        /// Issuing compute server index.
        compute: usize,
        /// Pushdown request id.
        req_id: u64,
    },
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

/// What lives at a fabric device, if anything (switches carry no node).
#[derive(Clone, Copy)]
enum NodeSlot {
    None,
    Compute(u32),
    Storage(u32),
    /// The shard boundary: packets delivered here leave the shard.
    Gateway,
}

/// The composed world (see module docs).
pub struct Testbed {
    cfg: TestbedConfig,
    q: EventQueue<Event>,
    fabric: Fabric<Msg>,
    computes: Vec<ComputeNode>,
    storages: Vec<StorageNode>,
    /// Dense device → node map indexed by `DeviceId.0`; resolves each
    /// delivered packet's destination in one array load instead of two
    /// hash probes on the hottest testbed path.
    node_of_device: Vec<NodeSlot>,
    traces: Vec<IoTrace>,
    breakdowns: FxHashMap<(u32, u64), StorageBreakdown>,
    /// The shard boundary device, when `cfg.gateway` reserved one.
    gateway: Option<DeviceId>,
    /// Cross-shard replication engine, when enabled.
    remote: Option<Box<RemoteState>>,
    sa_costs: SaCosts,
    solar_costs: SolarCosts,
    /// Storage-side stack latency per served request (rx + tx crossings
    /// of whatever stack the storage servers run for this variant).
    server_stack_latency: SimDuration,
    /// Structured event journal: per-I/O component spans + transport
    /// instants. Empty (and free) when `ebs-obs/enabled` is off.
    journal: Journal,
    /// Metrics registry refreshed by [`Testbed::sample_obs`].
    metrics: Metrics,
    /// Phase-cycle accounting; `None` (the default) costs one branch per
    /// event.
    prof: Option<Box<PhaseCycles>>,
    /// Scratch buffers for the pump/drain hot paths, taken with
    /// `mem::take` and restored after use so per-event pumping never
    /// allocates. A re-entrant call just sees an empty fresh vec.
    out_compute: Vec<(FlowLabel, usize, Option<IntStack>, Msg)>,
    out_storage: Vec<(FlowLabel, usize, Msg)>,
    done_rpcs: Vec<(u64, SimTime)>,
    /// Block-frontend state, boxed and absent until the first
    /// [`Testbed::blk_mount`]; runs that never mount keep digests
    /// byte-identical with historical baselines.
    blk: Option<Box<blk::BlkState>>,
    /// Total bytes handed to the fabric (every transport, both
    /// directions) — the bytes-moved metric the pushdown placement
    /// bench compares.
    fabric_bytes: u64,
}

impl Testbed {
    /// Build a testbed.
    ///
    /// # Panics
    /// Panics if the fabric has fewer server slots than
    /// `n_compute + n_storage`.
    pub fn new(cfg: TestbedConfig) -> Self {
        let topo = Topology::build(cfg.fabric.clone());
        assert!(
            topo.servers().len() >= cfg.n_compute + cfg.n_storage,
            "fabric too small: {} slots for {} servers",
            topo.servers().len(),
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

        let mut node_of_device = vec![NodeSlot::None; fabric.topology().devices().len()];
        let mut computes = Vec::with_capacity(cfg.n_compute);
        for i in 0..cfg.n_compute {
            let device = fabric.topology().servers()[i];
            node_of_device[device.0 as usize] = NodeSlot::Compute(i as u32);
            let mut seg_table = SegmentTable::new(ebs_sa::SEGMENT_BLOCKS);
            let n_storage = cfg.n_storage as u64;
            let mut qos = QosTable::new();
            let vds = cfg.vds_per_compute.max(1);
            for v in 0..vds {
                let vd = i as u64 * vds + v;
                seg_table.provision(vd, cfg.vd_segments * ebs_sa::SEGMENT_BLOCKS, |seg| {
                    ((seg + i as u64 + v) % n_storage) as u32
                });
                qos.set_spec(vd, cfg.qos);
            }
            let transport = match cfg.variant {
                Variant::Kernel => ComputeTransport::Tcp {
                    costs: StackCosts::kernel(),
                    conns: BTreeMap::new(),
                },
                Variant::Luna => ComputeTransport::Tcp {
                    costs: StackCosts::luna(),
                    conns: BTreeMap::new(),
                },
                Variant::Rdma => ComputeTransport::Rdma {
                    costs: RdmaCosts::default_costs(),
                    conns: BTreeMap::new(),
                },
                // SOLAR* shares the transport; its extra per-block CPU and
                // PCIe crossings are charged by variant in `guest_io`.
                Variant::SolarStar | Variant::Solar => ComputeTransport::Solar {
                    clients: BTreeMap::new(),
                },
            };
            computes.push(ComputeNode {
                device,
                cpu: ebs_dpu::DpuCpu::new(cfg.compute_cores),
                pcie: ebs_dpu::DpuPcie::new(cfg.pcie),
                seg_table,
                qos,
                transport,
                pending: FxHashMap::default(),
                rpc_to_io: FxHashMap::default(),
                next_io_id: 1,
                next_rpc_id: 1,
                fio: None,
                probe: None,
                timer_at: None,
                completed_ios: 0,
                completed_bytes: 0,
            });
        }
        let n_slots = fabric.topology().servers().len();
        let gateway = if cfg.gateway {
            // The gateway takes the first spare slot after the compute
            // cluster; storage counts down from the end, so the slot is
            // free whenever the fabric has slack.
            assert!(
                n_slots > cfg.n_compute + cfg.n_storage,
                "no spare server slot for the shard gateway"
            );
            let device = fabric.topology().servers()[cfg.n_compute];
            node_of_device[device.0 as usize] = NodeSlot::Gateway;
            Some(device)
        } else {
            None
        };
        let mut storages = Vec::with_capacity(cfg.n_storage);
        for j in 0..cfg.n_storage {
            // Storage takes slots from the end of the fabric: with the
            // `small()` geometry that lands in different pods from the
            // compute servers.
            let device = fabric.topology().servers()[n_slots - cfg.n_storage + j];
            node_of_device[device.0 as usize] = NodeSlot::Storage(j as u32);
            storages.push(StorageNode {
                device,
                backend: StorageServer::new(j, cfg.ssd, cfg.bn, cfg.seed),
                tcp: BTreeMap::new(),
                rdma: BTreeMap::new(),
                solar: BTreeMap::new(),
                timer_at: None,
            });
        }
        let server_stack_latency = match cfg.variant {
            Variant::Kernel => StackCosts::kernel().crossing_latency * 2,
            Variant::Luna => StackCosts::luna().crossing_latency * 2,
            Variant::Rdma => RdmaCosts::default_costs().crossing_latency * 2,
            // Storage-side SOLAR is a thin user-space UDP responder.
            Variant::SolarStar | Variant::Solar => SimDuration::from_micros(1),
        };
        Testbed {
            sa_costs: SaCosts::software(),
            solar_costs: SolarCosts::offloaded(),
            server_stack_latency,
            cfg,
            q: EventQueue::new(),
            fabric,
            computes,
            storages,
            node_of_device,
            traces: Vec::new(),
            breakdowns: FxHashMap::default(),
            gateway,
            remote: None,
            journal: Journal::new(),
            metrics: Metrics::new(),
            prof: None,
            out_compute: Vec::with_capacity(16),
            out_storage: Vec::with_capacity(16),
            done_rpcs: Vec::with_capacity(16),
            blk: None,
            fabric_bytes: 0,
        }
    }

    /// Turn on per-phase wall-clock accounting for subsequent
    /// [`Testbed::run_until`] calls (the experiments bench `--profile`
    /// flag). Adds measurement overhead; leave off for timed runs.
    pub fn enable_profiling(&mut self) {
        self.prof = Some(Box::default());
    }

    /// The phase breakdown collected so far (None unless
    /// [`Testbed::enable_profiling`] was called).
    pub fn phase_cycles(&self) -> Option<PhaseCycles> {
        self.prof.as_deref().copied()
    }

    /// The configuration.
    pub fn config(&self) -> &TestbedConfig {
        &self.cfg
    }

    /// The fabric (topology queries, drop stats).
    pub fn fabric(&self) -> &Fabric<Msg> {
        &self.fabric
    }

    /// All I/O traces so far.
    pub fn traces(&self) -> &[IoTrace] {
        &self.traces
    }

    /// The observability journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The metrics registry as of the last [`Testbed::sample_obs`].
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Refresh the metrics registry from every instrumented component.
    /// The registry is cleared first, so gauges/histograms reflect *now*
    /// and counters are totals-since-construction (the [`Sample`]
    /// convention).
    pub fn sample_obs(&mut self) {
        let now = self.q.now();
        self.metrics.clear();
        self.fabric.sample_into(now, &mut self.metrics);
        for c in &self.computes {
            c.cpu.sample_into(now, &mut self.metrics);
            c.pcie.sample_into(now, &mut self.metrics);
            c.qos.sample_into(now, &mut self.metrics);
            match &c.transport {
                ComputeTransport::Tcp { conns, .. } => {
                    for conn in conns.values() {
                        conn.sample_into(now, &mut self.metrics);
                    }
                }
                ComputeTransport::Rdma { .. } => {}
                ComputeTransport::Solar { clients } => {
                    for client in clients.values() {
                        client.sample_into(now, &mut self.metrics);
                    }
                }
            }
        }
        for s in &self.storages {
            s.backend.sample_into(now, &mut self.metrics);
            for srv in s.tcp.values() {
                srv.sample_into(now, &mut self.metrics);
            }
        }
        self.metrics
            .counter_add("sim", "events_scheduled", self.q.events_scheduled());
        self.metrics
            .counter_add("sim", "events_processed", self.q.events_processed());
        self.metrics
            .gauge_set("sim", "queue_len", self.q.len() as f64);
        self.metrics
            .gauge_set("sim", "max_queued", self.q.max_queued() as f64);
        self.metrics
            .counter_add("obs", "journal_events", self.journal.len() as u64);
        self.metrics
            .counter_add("obs", "journal_dropped", self.journal.dropped());
        if let Some(p) = self.prof.as_deref() {
            self.metrics.counter_add("prof", "pop_ns", p.pop_ns);
            self.metrics.counter_add("prof", "net_ns", p.net_ns);
            self.metrics.counter_add("prof", "deliver_ns", p.deliver_ns);
            self.metrics.counter_add("prof", "pump_ns", p.pump_ns);
            self.metrics.counter_add("prof", "host_ns", p.host_ns);
            self.metrics.counter_add("prof", "events", p.events);
        }
    }

    /// Explain the slowest completed I/O recorded in the journal: its
    /// hop-by-hop component timeline (None when observability is off or
    /// nothing completed yet).
    pub fn explain_slowest_io(&self) -> Option<IoExplanation> {
        crate::diag::explain_slowest(&self.journal)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.q.now()
    }

    /// Completed I/Os and bytes on one compute server.
    pub fn compute_progress(&self, compute: usize) -> (u64, u64) {
        let c = &self.computes[compute];
        (c.completed_ios, c.completed_bytes)
    }

    /// (admitted, throttled) I/O counts of one compute server's QoS table
    /// (admission-conservation checks: every submitted I/O is admitted
    /// exactly once).
    pub fn qos_stats(&self, compute: usize) -> (u64, u64) {
        let c = &self.computes[compute];
        (c.qos.admitted_ios(), c.qos.throttled_ios())
    }

    /// Consumed DPU-CPU cores on one compute server (Table 1 metric).
    pub fn consumed_cores(&self, compute: usize) -> f64 {
        self.computes[compute].cpu.consumed_cores(self.q.now())
    }

    /// (jobs, busy time) of one compute server's CPU (diagnostics).
    pub fn cpu_stats(&self, compute: usize) -> (u64, SimDuration) {
        let c = &self.computes[compute];
        (c.cpu.jobs(), c.cpu.busy_time())
    }

    /// Total SOLAR retransmissions across this compute server's clients.
    pub fn solar_retransmits(&self, compute: usize) -> u64 {
        if let ComputeTransport::Solar { clients } = &self.computes[compute].transport {
            clients.values().map(|c| c.stats().retransmits).sum()
        } else {
            0
        }
    }

    /// Per-(peer, path) SOLAR diagnostics: (storage, path id, window,
    /// inflight, last utilization, srtt µs) plus client stats.
    pub fn solar_debug(&self, compute: usize) -> Vec<String> {
        let mut out = Vec::new();
        if let ComputeTransport::Solar { clients } = &self.computes[compute].transport {
            for (storage, client) in clients {
                out.push(format!(
                    "peer {} stats {:?} txq={} outstanding={}",
                    storage,
                    client.stats(),
                    client.debug_txq_len(),
                    client.outstanding_packets()
                ));
                for line in client.debug_outstanding() {
                    out.push(format!("  OUT {line}"));
                }
                for p in client.paths() {
                    out.push(format!(
                        "  peer {} path {} window={} inflight={} u={:.2} srtt={:?} up={} next_probe={:?} rto={}",
                        storage,
                        p.id(),
                        p.window(),
                        p.inflight_bytes(),
                        p.last_utilization(),
                        p.srtt(),
                        p.is_up(),
                        p.next_probe(),
                        p.rto(),
                    ));
                }
            }
        }
        out
    }

    /// Reset CPU/PCIe accounting on all compute servers (post-warm-up).
    pub fn reset_compute_stats(&mut self) {
        let now = self.q.now();
        for c in &mut self.computes {
            c.cpu.reset_stats(now);
            c.pcie.reset_stats(now);
        }
    }

    /// Schedule a guest I/O.
    pub fn schedule_io(&mut self, at: SimTime, compute: usize, io: IoRequest) {
        self.q.schedule_at(
            at,
            Event::Guest {
                compute,
                io,
                from_fio: false,
            },
        );
    }

    /// Attach a closed-loop fio driver to a compute server, starting at
    /// `start`.
    pub fn attach_fio(&mut self, start: SimTime, compute: usize, fio: FioConfig) {
        let mut state = FioState {
            cfg: fio,
            rng: rng::stream_indexed(self.cfg.seed, "fio", compute as u64),
            issued: 0,
        };
        let ios: Vec<IoRequest> = (0..fio.depth)
            .map(|_| next_fio_io(&mut state, compute, &self.cfg))
            .collect();
        self.computes[compute].fio = Some(state);
        for (k, io) in ios.into_iter().enumerate() {
            // Ramp the initial window over ~20us per I/O: real fio opens
            // its queue depth over many submission syscalls, not in one
            // zero-width burst.
            self.q.schedule_at(
                at_plus(start, k as u64 * 20_000),
                Event::Guest {
                    compute,
                    io,
                    from_fio: true,
                },
            );
        }
    }

    /// Attach an open-loop probe driver to a compute server: one I/O per
    /// `interval` (jittered ±50% from the probe's own RNG stream),
    /// spread across the server's virtual disks. Unlike fio, the rate is
    /// load-independent — the fleet-scale stand-in for thousands of
    /// lightly-loaded VMs whose hung-I/O detectors fire on a schedule.
    pub fn attach_probe(
        &mut self,
        start: SimTime,
        compute: usize,
        interval: SimDuration,
        bytes: u32,
        read_fraction: f64,
    ) {
        let mut rng = rng::stream_indexed(self.cfg.seed, "probe", compute as u64);
        let first = start + interval.mul_f64(rng.gen::<f64>());
        self.computes[compute].probe = Some(ProbeState {
            interval,
            bytes,
            read_fraction,
            rng,
        });
        self.q.schedule_at(first, Event::ProbeTick { compute });
    }

    /// Turn on cross-shard replication: every storage server issues one
    /// replication RPC per `interval` (jittered) toward a uniformly
    /// random storage server in a uniformly random *other* shard,
    /// leaving through the gateway. The sharded executor carries the
    /// RPCs between shards; requires `TestbedConfig::gateway`.
    pub fn enable_remote_replication(
        &mut self,
        start: SimTime,
        shard: u32,
        n_shards: u32,
        peer_storages: u32,
        interval: SimDuration,
        blocks: u32,
    ) {
        assert!(
            self.gateway.is_some(),
            "remote replication needs `TestbedConfig::gateway`"
        );
        let mut rng = rng::stream_indexed(self.cfg.seed, "remote", shard as u64);
        for storage in 0..self.storages.len() {
            let first = start + interval.mul_f64(rng.gen::<f64>());
            self.q.schedule_at(first, Event::ReplTick { storage });
        }
        self.remote = Some(Box::new(RemoteState {
            shard,
            n_shards,
            peer_storages,
            blocks,
            interval,
            rng,
            next_rpc_id: 1,
            next_seq: 0,
            outbox: Vec::new(),
            issued: 0,
            served: 0,
            completed: 0,
            rtt_ns_sum: 0,
        }));
    }

    /// Drain the messages that reached the gateway since the last call,
    /// in arrival order (each stamped with a dense `seq`). Called by the
    /// sharded executor at every window edge.
    pub fn take_remote_outbox(&mut self) -> Vec<RemoteMsg> {
        self.remote
            .as_deref_mut()
            .map_or_else(Vec::new, |r| std::mem::take(&mut r.outbox))
    }

    /// Inject a message from another shard: it materializes at this
    /// shard's gateway at `at` and rides the local fabric to its target
    /// storage server. `at` must be ≥ the local clock (the executor's
    /// window invariant guarantees this).
    pub fn inject_remote(&mut self, at: SimTime, msg: RemoteMsg) {
        let Some(gdev) = self.gateway else { return };
        let target = if msg.is_resp {
            msg.src_storage
        } else {
            msg.dst_storage
        } as usize;
        let Some(node) = self.storages.get(target) else {
            return;
        };
        let size = if msg.is_resp {
            128
        } else {
            msg.blocks as usize * BLOCK_SIZE as usize + 128
        };
        let flow = FlowLabel {
            src: gdev,
            dst: node.device,
            src_port: 9101,
            dst_port: 41_000 + (msg.rpc_id & 0x3FF) as u16,
            proto: 17,
        };
        let ev = self
            .fabric
            .arrive_event(gdev, FabricPacket::new(flow, size, None, Msg::Remote(msg)));
        self.q.schedule_at(at, Event::Net(ev));
    }

    /// Cross-shard replication counters:
    /// `(issued, served, completed, rtt_ns_sum)`.
    pub fn replication_stats(&self) -> (u64, u64, u64, u64) {
        self.remote.as_deref().map_or((0, 0, 0, 0), |r| {
            (r.issued, r.served, r.completed, r.rtt_ns_sum)
        })
    }

    /// Schedule a fabric failure injection.
    pub fn schedule_failure(&mut self, at: SimTime, device: DeviceId, mode: FailureMode) {
        self.q.schedule_at(
            at,
            Event::InjectFailure {
                device,
                mode,
                convergence: None,
            },
        );
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
        self.q.schedule_at(
            at,
            Event::InjectFailure {
                device,
                mode,
                convergence: Some(convergence),
            },
        );
    }

    /// Schedule a heal.
    pub fn schedule_heal(&mut self, at: SimTime, device: DeviceId) {
        self.q.schedule_at(at, Event::Heal { device });
    }

    /// Schedule a QoS spec replacement on a compute server's virtual disk
    /// (throttle injection; schedule [`QosSpec::unlimited`] to restore).
    pub fn schedule_qos(&mut self, at: SimTime, compute: usize, spec: QosSpec) {
        self.q.schedule_at(at, Event::SetQos { compute, spec });
    }

    /// Schedule a storage-service slowdown (`factor` > 1.0) or its heal
    /// (`factor` = 1.0).
    pub fn schedule_storage_degrade(&mut self, at: SimTime, storage: usize, factor: f64) {
        self.q
            .schedule_at(at, Event::DegradeStorage { storage, factor });
    }

    /// Schedule a DPU PCIe stall (`extra` latency per transfer) or its
    /// heal (`SimDuration::ZERO`).
    pub fn schedule_pcie_stall(&mut self, at: SimTime, compute: usize, extra: SimDuration) {
        self.q.schedule_at(at, Event::StallPcie { compute, extra });
    }

    /// Schedule the detachment of every fio driver: from `at` on,
    /// completions stop resubmitting and the testbed drains toward
    /// quiescence (in-flight and already-queued I/Os still finish).
    pub fn schedule_stop_fio(&mut self, at: SimTime) {
        for compute in 0..self.computes.len() {
            self.q.schedule_at(at, Event::StopFio { compute });
        }
    }

    /// I/Os submitted but not yet completed across all compute servers.
    pub fn outstanding_ios(&self) -> usize {
        self.computes.iter().map(|c| c.pending.len()).sum()
    }

    /// Events currently queued in the simulator (quiescence diagnostics;
    /// an idle testbed holds only periodic timer/probe events).
    pub fn queue_len(&self) -> usize {
        self.q.len()
    }

    /// Run the world until `horizon` (inclusive of events at it): pop,
    /// dispatch, repeat. The clock ends on the last event dispatched,
    /// never past `horizon`.
    pub fn run_until(&mut self, horizon: SimTime) {
        if self.prof.is_some() {
            return self.run_until_profiled(horizon);
        }
        while let Some((now, ev)) = self.q.pop_le(horizon) {
            self.dispatch(now, ev);
        }
    }

    /// [`Testbed::run_until`] with per-phase wall-clock attribution. Two
    /// clock reads per event: the gap from the end of one dispatch to the
    /// start of the next is the pop.
    fn run_until_profiled(&mut self, horizon: SimTime) {
        let mut idle = crate::wallclock::now();
        while let Some((now, ev)) = self.q.pop_le(horizon) {
            let d0 = crate::wallclock::now();
            let is_net = matches!(ev, Event::Net(_));
            self.dispatch(now, ev);
            let d1 = crate::wallclock::now();
            // prof is Some on this path by construction
            let p = self.prof.as_mut().unwrap();
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

    /// I/Os that were unanswered for ≥ `threshold` as of `now` (Table 2's
    /// metric with threshold = 1 s).
    pub fn hung_ios(&self, threshold: SimDuration) -> usize {
        self.hung_ios_at(self.q.now(), threshold)
    }

    /// [`Testbed::hung_ios`] at an explicit instant (fleet shards can sit
    /// at different local clocks, so the caller picks the common asof).
    pub fn hung_ios_at(&self, asof: SimTime, threshold: SimDuration) -> usize {
        self.traces
            .iter()
            .filter(|t| t.hung(asof, threshold))
            .count()
    }

    /// Distinct compute servers (≈ VMs) with at least one I/O unanswered
    /// for ≥ `threshold` as of `asof` — the y-axis of the paper's Fig. 8
    /// per-incident curves.
    pub fn hung_vms_at(&self, asof: SimTime, threshold: SimDuration) -> usize {
        let mut hung = vec![false; self.computes.len()];
        for t in self.traces.iter().filter(|t| t.hung(asof, threshold)) {
            hung[t.compute] = true;
        }
        hung.iter().filter(|&&h| h).count()
    }

    /// Advance the simulated clock across an idle stretch without
    /// dispatching anything (debug-panics if an event before `t` is
    /// still pending). The sharded executor lines every shard up on a
    /// window edge with this.
    pub fn advance_clock_to(&mut self, t: SimTime) {
        self.q.advance_to(t);
    }

    /// Events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.q.events_processed()
    }

    /// A byte-exact digest of every simulation-visible outcome: event
    /// counts, fabric delivery/drop stats, per-compute progress and QoS
    /// hashes, trace checksums, replication counters and a journal hash.
    /// Two runs are *the same simulation* iff their digests are equal —
    /// this is the sharded engine's N-thread == 1-thread determinism
    /// bar. The evaluation instant is explicit because engines may park
    /// their final clocks differently (legacy run vs windowed run) while
    /// agreeing on every event.
    pub fn metrics_digest(&self, asof: SimTime) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(
            s,
            "events={}/{}",
            self.q.events_processed(),
            self.q.events_scheduled()
        );
        let d = self.fabric.drops();
        let (rh, rm) = self.fabric.route_cache_stats();
        let _ = write!(
            s,
            " delivered={} drops={}/{}/{}/{}/{} routes={rh}/{rm}",
            self.fabric.delivered(),
            d.fail_stop,
            d.blackhole,
            d.random_loss,
            d.queue_overflow,
            d.no_route,
        );
        let mut ios = 0u64;
        let mut bytes = 0u64;
        let mut ch = Fnv::new();
        for c in &self.computes {
            ios += c.completed_ios;
            bytes += c.completed_bytes;
            ch.u64(c.completed_ios);
            ch.u64(c.completed_bytes);
            ch.u64(c.qos.admitted_ios());
            ch.u64(c.qos.throttled_ios());
        }
        let _ = write!(s, " ios={ios} bytes={bytes} chash={:016x}", ch.finish());
        let mut th = Fnv::new();
        let mut completed = 0u64;
        let mut lat_ns = 0u64;
        for t in &self.traces {
            th.u64(t.compute as u64);
            th.u64(u64::from(t.kind == IoKind::Write));
            th.u64(t.bytes as u64);
            th.u64(t.submitted.as_nanos());
            th.u64(match t.completed {
                Some(c) => c.as_nanos(),
                None => u64::MAX,
            });
            th.u64(t.qos_delay.as_nanos());
            th.u64(t.sa.as_nanos());
            th.u64(t.fn_.as_nanos());
            th.u64(t.bn.as_nanos());
            th.u64(t.ssd.as_nanos());
            if let Some(c) = t.completed {
                completed += 1;
                lat_ns += c.saturating_since(t.submitted).as_nanos();
            }
        }
        let _ = write!(
            s,
            " traces={completed}/{} lat_ns={lat_ns} thash={:016x} hung={}",
            self.traces.len(),
            th.finish(),
            self.hung_ios_at(asof, SimDuration::from_secs(1)),
        );
        if let Some(r) = self.remote.as_deref() {
            let _ = write!(
                s,
                " repl={}/{}/{} rtt_ns={} seq={}",
                r.issued, r.served, r.completed, r.rtt_ns_sum, r.next_seq
            );
        }
        let mut jh = Fnv::new();
        for e in self.journal.events() {
            jh.u64(e.at.as_nanos());
            jh.bytes(e.track.as_bytes());
            match e.kind {
                ebs_obs::EventKind::Span { name, id, dur } => {
                    jh.bytes(name.as_bytes());
                    jh.u64(id);
                    jh.u64(dur.as_nanos());
                }
                ebs_obs::EventKind::Instant { name, id, arg } => {
                    jh.bytes(name.as_bytes());
                    jh.u64(id);
                    jh.u64(arg);
                }
                ebs_obs::EventKind::Counter { name, value } => {
                    jh.bytes(name.as_bytes());
                    jh.u64(value as u64);
                }
            }
        }
        let _ = write!(
            s,
            " journal={}+{} jhash={:016x}",
            self.journal.len(),
            self.journal.dropped(),
            jh.finish()
        );
        self.blk_digest(&mut s);
        s
    }

    fn dispatch(&mut self, now: SimTime, ev: Event) {
        match ev {
            Event::Net(nev) => {
                let Testbed { q, fabric, .. } = self;
                let mut sched = MapScheduler::new(q, Event::Net);
                if let Some(pkt) = fabric.handle(now, nev, &mut sched) {
                    self.deliver(now, pkt);
                }
            }
            Event::Guest {
                compute,
                io,
                from_fio,
            } => {
                self.guest_io(now, compute, io, from_fio);
            }
            Event::SaDone { compute, io_id } => self.sa_done(now, compute, io_id),
            Event::StorageDone { storage, reply } => self.storage_done(now, storage, *reply),
            Event::ComputeTimer { compute } => {
                self.computes[compute].timer_at = None;
                self.fire_compute_timers(now, compute);
                self.pump_compute(now, compute);
            }
            Event::StorageTimer { storage } => {
                self.storages[storage].timer_at = None;
                self.fire_storage_timers(now, storage);
                self.pump_storage(now, storage);
            }
            Event::InjectFailure {
                device,
                mode,
                convergence,
            } => {
                let Testbed { q, fabric, .. } = self;
                let mut sched = MapScheduler::new(q, Event::Net);
                match convergence {
                    Some(c) => fabric.inject_failure_with(device, mode, c, &mut sched),
                    None => fabric.inject_failure(device, mode, &mut sched),
                }
            }
            Event::Heal { device } => self.fabric.heal(device),
            Event::SetQos { compute, spec } => {
                let vds = self.cfg.vds_per_compute.max(1);
                let qos = &mut self.computes[compute].qos;
                for v in 0..vds {
                    qos.set_spec(compute as u64 * vds + v, spec);
                }
            }
            Event::DegradeStorage { storage, factor } => {
                self.storages[storage].backend.set_degrade(factor);
            }
            Event::StallPcie { compute, extra } => {
                self.computes[compute].pcie.set_stall(extra);
            }
            Event::StopFio { compute } => {
                self.computes[compute].fio = None;
            }
            Event::ProbeTick { compute } => self.probe_tick(now, compute),
            Event::ReplTick { storage } => self.repl_tick(now, storage),
            Event::BlkGuest {
                compute,
                queue,
                req,
            } => self.blk_guest(now, compute, queue, req),
            Event::BlkLocalDone {
                compute,
                queue,
                desc,
                status,
                len,
                trace_idx,
            } => self.blk_local_done(now, compute, queue, desc, status, len, trace_idx),
            Event::BlkRetx { compute, req_id } => self.blk_send_parts(now, compute, req_id, true),
        }
    }

    // --- fleet drivers: probes & cross-shard replication -----------------

    fn probe_tick(&mut self, now: SimTime, compute: usize) {
        let vds = self.cfg.vds_per_compute.max(1);
        let vd_blocks = self.cfg.vd_segments * ebs_sa::SEGMENT_BLOCKS;
        let (io, next) = {
            let Some(p) = self.computes[compute].probe.as_mut() else {
                return;
            };
            let blocks = u64::from((p.bytes / BLOCK_SIZE).max(1));
            let max_start = vd_blocks.saturating_sub(blocks).max(1);
            let vd_id = if vds > 1 {
                compute as u64 * vds + p.rng.gen_range(0..vds)
            } else {
                compute as u64
            };
            let io = IoRequest {
                vd_id,
                kind: if p.rng.gen::<f64>() < p.read_fraction {
                    IoKind::Read
                } else {
                    IoKind::Write
                },
                offset: p.rng.gen_range(0..max_start) * BLOCK_SIZE as u64,
                len: p.bytes,
            };
            (io, now + p.interval.mul_f64(0.5 + p.rng.gen::<f64>()))
        };
        self.q.schedule_at(next, Event::ProbeTick { compute });
        self.guest_io(now, compute, io, false);
    }

    fn repl_tick(&mut self, now: SimTime, storage: usize) {
        let (send, next) = {
            let Some(r) = self.remote.as_deref_mut() else {
                return;
            };
            let mut send = None;
            if r.n_shards > 1 && r.peer_storages > 0 {
                // Uniform pick over the *other* shards.
                let mut dst_shard = r.rng.gen_range(0..r.n_shards - 1);
                if dst_shard >= r.shard {
                    dst_shard += 1;
                }
                let msg = RemoteMsg {
                    src_shard: r.shard,
                    dst_shard,
                    src_storage: storage as u32,
                    dst_storage: r.rng.gen_range(0..r.peer_storages),
                    rpc_id: r.next_rpc_id,
                    blocks: r.blocks,
                    is_resp: false,
                    issued: now,
                    depart: SimTime::ZERO,
                    seq: 0,
                };
                r.next_rpc_id += 1;
                r.issued += 1;
                send = Some(msg);
            }
            (send, now + r.interval.mul_f64(0.5 + r.rng.gen::<f64>()))
        };
        self.q.schedule_at(next, Event::ReplTick { storage });
        if let (Some(msg), Some(gdev)) = (send, self.gateway) {
            let sdev = self.storages[storage].device;
            let flow = FlowLabel {
                src: sdev,
                dst: gdev,
                src_port: 40_000 + (msg.rpc_id & 0x3FF) as u16,
                dst_port: 9100,
                proto: 17,
            };
            let size = msg.blocks as usize * BLOCK_SIZE as usize + 128;
            self.send_fabric(now, flow, size, None, Msg::Remote(msg));
        }
    }

    /// A packet reached the shard boundary: stamp it with the departure
    /// time and the next outbox sequence, then park it for the executor's
    /// window-edge exchange.
    fn gateway_rx(&mut self, now: SimTime, pkt: FabricPacket<Msg>) {
        if let (Msg::Remote(mut m), Some(r)) = (pkt.payload, self.remote.as_deref_mut()) {
            m.depart = now;
            m.seq = r.next_seq;
            r.next_seq += 1;
            r.outbox.push(m);
        }
    }

    // --- guest I/O entry -------------------------------------------------

    fn guest_io(&mut self, now: SimTime, compute: usize, io: IoRequest, from_fio: bool) -> u64 {
        let c = &mut self.computes[compute];
        let io_id = c.next_io_id;
        c.next_io_id += 1;
        let qos_delay = c.qos.admit(now, io.vd_id, io.len as usize);
        let start = now + qos_delay;

        let subs = match split_io(&c.seg_table, &io, BLOCK_SIZE) {
            Ok(s) => s,
            Err(e) => panic!("workload generated invalid I/O: {e}"),
        };
        let blocks = (io.len / BLOCK_SIZE) as usize;

        // SA processing: CPU work (+ pipeline for SOLAR) + PCIe crossings.
        // For the software SA, light-load latency exceeds the pure CPU
        // work (VM exits, notification waits); under saturation the CPU
        // queue dominates. Take the max of the two.
        let sa_fin = if !self.cfg.sa_enabled {
            // Bare-RPC benchmarking mode (Table 1): skip the SA data
            // plane, keep only a token submission cost.
            c.cpu.run(start, SimDuration::from_nanos(200))
        } else {
            match self.cfg.variant {
                Variant::Kernel | Variant::Luna | Variant::Rdma => c
                    .cpu
                    .run(start, self.sa_costs.cpu_for(blocks))
                    .max(start + self.sa_costs.latency_per_io),
                Variant::SolarStar => {
                    let extra = SolarCosts::star_extra_per_block().saturating_mul(blocks as u64);
                    c.cpu.run(
                        start,
                        self.solar_costs
                            .cpu_per_rpc
                            .saturating_mul(subs.len() as u64)
                            + extra,
                    ) + self.solar_costs.pipeline
                }
                Variant::Solar => {
                    c.cpu.run(
                        start,
                        self.solar_costs
                            .cpu_per_rpc
                            .saturating_mul(subs.len() as u64),
                    ) + self.solar_costs.pipeline
                }
            }
        };
        // Data crossings: writes move the payload before transmission.
        let ready = if io.kind == IoKind::Write {
            c.pcie
                .transfer_block(sa_fin, self.cfg.variant.pcie_path(), io.len as usize)
        } else {
            sa_fin
        };

        let trace_idx = self.traces.len();
        // arg encodes `bytes << 1 | is_write` (journal args are plain
        // u64s; the consumers in `diag` decode this).
        self.journal.instant(
            now,
            crate::diag::IO_TRACK,
            "submit",
            trace_idx as u64,
            ((io.len as u64) << 1) | u64::from(io.kind == IoKind::Write),
        );
        self.traces.push(IoTrace {
            compute,
            kind: io.kind,
            bytes: io.len,
            submitted: now,
            completed: None,
            qos_delay,
            sa: ready.saturating_since(start),
            fn_: SimDuration::ZERO,
            bn: SimDuration::ZERO,
            ssd: SimDuration::ZERO,
        });
        c.pending.insert(
            io_id,
            PendingIo {
                trace_idx,
                subs_total: subs.len(),
                subs_done: 0,
                sa_ready: ready,
                max_storage: StorageBreakdown {
                    bn: SimDuration::ZERO,
                    ssd: SimDuration::ZERO,
                },
                done_at: SimTime::ZERO,
                completion_sa: SimDuration::ZERO,
                from_fio,
                subs,
            },
        );
        self.q.schedule_at(ready, Event::SaDone { compute, io_id });
        io_id
    }

    // --- transport submit ------------------------------------------------

    fn sa_done(&mut self, now: SimTime, compute: usize, io_id: u64) {
        let c = &mut self.computes[compute];
        let pending = c.pending.get_mut(&io_id).expect("pending io");
        let subs = std::mem::take(&mut pending.subs);
        let trace = &self.traces[pending.trace_idx];
        let kind = trace.kind;
        let vd_id = compute as u64;

        for sub in subs {
            let rpc_id = c.next_rpc_id;
            c.next_rpc_id += 1;
            c.rpc_to_io.insert(rpc_id, (io_id, sub.blocks.len() as u32));
            let storage = sub.block_server;
            let bytes = sub.blocks.len() * BLOCK_SIZE as usize;
            // The frame the TCP and RDMA transports both carry.
            let rpc_frame = || {
                let offset = sub.blocks[0] * BLOCK_SIZE as u64;
                match kind {
                    // Shared zero region: the simulator only cares about
                    // payload *length*, so every frame views one immutable
                    // zero slab (no per-RPC allocation).
                    IoKind::Write => {
                        write_request(rpc_id, vd_id, offset, ebs_wire::pool::zero_payload(bytes))
                    }
                    IoKind::Read => read_request(rpc_id, vd_id, offset, bytes as u32),
                }
            };
            match &mut c.transport {
                ComputeTransport::Tcp { costs, conns } => {
                    let conn = conns.entry(storage).or_insert_with(|| {
                        RpcClient::connect(TcpConfig {
                            iss: (compute as u32) << 8 | storage,
                            mss: 8960, // jumbo-capable NICs with TSO/GSO
                            swift: self.cfg.tcp_swift,
                            ..TcpConfig::default()
                        })
                    });
                    // Stack cost: CPU for the tx side plus crossing latency.
                    let cpu_cost = costs.cpu_for_rpc(bytes);
                    let t =
                        c.cpu.run(now, cpu_cost) + costs.crossing_latency.saturating_sub(cpu_cost);
                    // The engine is sans-io: submission is immediate; the
                    // latency shows up by delaying the pump via a timer.
                    conn.call(t.max(now), &rpc_frame());
                    bump_timer(
                        &mut c.timer_at,
                        &mut self.q,
                        t.max(now),
                        Event::ComputeTimer { compute },
                    );
                }
                ComputeTransport::Rdma { costs, conns } => {
                    let conn = conns
                        .entry(storage)
                        .or_insert_with(|| RdmaQp::new(self.cfg.rdma.clone()));
                    let t = c.cpu.run(now, costs.cpu_per_rpc) + costs.crossing_latency;
                    conn.post_send(rpc_frame().to_bytes());
                    bump_timer(
                        &mut c.timer_at,
                        &mut self.q,
                        t.max(now),
                        Event::ComputeTimer { compute },
                    );
                }
                ComputeTransport::Solar { clients } => {
                    let client = clients
                        .entry(storage)
                        .or_insert_with(|| SolarClient::new(self.cfg.solar.clone()));
                    match kind {
                        IoKind::Write => {
                            let blocks = sub
                                .blocks
                                .iter()
                                .map(|&b| WriteBlock {
                                    block_addr: b,
                                    payload: Bytes::new(),
                                    crc: 0,
                                })
                                .collect();
                            client.submit_write(now, rpc_id, vd_id, sub.segment_id, blocks);
                        }
                        IoKind::Read => {
                            let blocks = sub
                                .blocks
                                .iter()
                                .map(|&b| ReadBlock {
                                    block_addr: b,
                                    guest_addr: b * BLOCK_SIZE as u64,
                                })
                                .collect();
                            client.submit_read(now, rpc_id, vd_id, sub.segment_id, blocks);
                        }
                    }
                }
            }
        }
        self.pump_compute(now, compute);
    }

    // --- delivery from the fabric ---------------------------------------

    fn deliver(&mut self, now: SimTime, pkt: FabricPacket<Msg>) {
        let t0 = self.prof.is_some().then(crate::wallclock::now);
        match self.node_of_device[pkt.flow.dst.0 as usize] {
            NodeSlot::Storage(s) => self.storage_rx(now, s as usize, pkt),
            NodeSlot::Compute(c) => self.compute_rx(now, c as usize, pkt),
            NodeSlot::Gateway => self.gateway_rx(now, pkt),
            NodeSlot::None => {}
        }
        if let (Some(t0), Some(p)) = (t0, self.prof.as_deref_mut()) {
            p.deliver_ns += t0.elapsed().as_nanos() as u64;
        }
    }

    fn storage_rx(&mut self, now: SimTime, storage: usize, pkt: FabricPacket<Msg>) {
        let int = pkt.int;
        match pkt.payload {
            Msg::Tcp { compute, seg, .. } => {
                let node = &mut self.storages[storage];
                let srv = node.tcp.entry(compute).or_insert_with(|| {
                    RpcServer::listen(TcpConfig {
                        iss: 0x8000_0000 | (compute << 8),
                        mss: 8960,
                        swift: self.cfg.tcp_swift,
                        ..TcpConfig::default()
                    })
                });
                srv.on_segment(now, seg);
                // Serve any complete requests.
                let mut jobs = Vec::new();
                while let Some(req) = srv.poll_request() {
                    jobs.push(req);
                }
                for req in jobs {
                    self.serve_request(now, storage, compute, req, RpcTransportKind::Tcp);
                }
                self.pump_storage(now, storage);
            }
            Msg::Rdma {
                compute,
                pkt: mut qpkt,
                ..
            } => {
                // A fabric ECN mark rides into the QP packet so the
                // responder echoes it on the ack (DCQCN's CNP role).
                qpkt.ecn |= pkt.ecn;
                let node = &mut self.storages[storage];
                let qp = node
                    .rdma
                    .entry(compute)
                    .or_insert_with(|| RdmaQp::new(self.cfg.rdma.clone()));
                qp.on_packet(now, qpkt);
                let mut jobs = Vec::new();
                while let Some(msg) = qp.poll_recv() {
                    if let Ok(frame) = RpcFrame::decode(msg) {
                        jobs.push(frame);
                    }
                }
                for req in jobs {
                    self.serve_request(now, storage, compute, req, RpcTransportKind::Rdma);
                }
                self.pump_storage(now, storage);
            }
            Msg::Solar {
                compute, mut hdr, ..
            } => {
                let reply_port = pkt.flow.src_port;
                // The responder copies the request header into its ack, so
                // stamping the fabric's ECN mark here makes the ack echo it
                // back to the sender's congestion controller.
                if pkt.ecn {
                    hdr.flags |= ebs_wire::FLAG_ECN_ECHO;
                }
                let (action, gap_nacks) = {
                    let node = &mut self.storages[storage];
                    let resp = node.solar.entry(compute).or_default();
                    let action = resp.on_packet(InPacket {
                        hdr,
                        payload: Bytes::new(),
                        int,
                    });
                    let mut nacks = Vec::new();
                    while let Some(n) = resp.poll_gap_nack() {
                        nacks.push(n);
                    }
                    (action, nacks)
                };
                // Gap reports go straight back (tiny control packets).
                for n in gap_nacks {
                    self.q.schedule_at(
                        now,
                        Event::StorageDone {
                            storage,
                            reply: Box::new(Reply::Solar {
                                compute,
                                out: n,
                                echo_int: None,
                                reply_port,
                            }),
                        },
                    );
                }
                match action {
                    ServerAction::StoreBlock { hdr, int, .. } => {
                        let (done, bd) = self.storages[storage].backend.write(now, 1);
                        self.merge_breakdown(compute, hdr.rpc_id, bd);
                        let (ack, echo) = self.storages[storage]
                            .solar
                            .get_mut(&compute)
                            .expect("responder exists")
                            .write_ack(&hdr, int);
                        self.q.schedule_at(
                            done + self.server_stack_latency,
                            Event::StorageDone {
                                storage,
                                reply: Box::new(Reply::Solar {
                                    compute,
                                    out: ack,
                                    echo_int: echo,
                                    reply_port,
                                }),
                            },
                        );
                    }
                    ServerAction::FetchBlock { hdr } => {
                        let (done, bd) = self.storages[storage].backend.read(now, 1);
                        self.merge_breakdown(compute, hdr.rpc_id, bd);
                        let out = self.storages[storage]
                            .solar
                            .get_mut(&compute)
                            .expect("responder exists")
                            .read_resp(&hdr, Bytes::new(), 0);
                        self.q.schedule_at(
                            done + self.server_stack_latency,
                            Event::StorageDone {
                                storage,
                                reply: Box::new(Reply::Solar {
                                    compute,
                                    out,
                                    echo_int: None,
                                    reply_port,
                                }),
                            },
                        );
                    }
                    ServerAction::Reply(out) => {
                        self.q.schedule_at(
                            now,
                            Event::StorageDone {
                                storage,
                                reply: Box::new(Reply::Solar {
                                    compute,
                                    out,
                                    echo_int: None,
                                    reply_port,
                                }),
                            },
                        );
                    }
                    ServerAction::None => {}
                }
            }
            Msg::Remote(m) => {
                if m.is_resp {
                    // Round trip complete at the issuing storage server.
                    if let Some(r) = self.remote.as_deref_mut() {
                        r.completed += 1;
                        r.rtt_ns_sum += now.saturating_since(m.issued).as_nanos();
                    }
                } else {
                    // Serve the replica write on the local backend, then
                    // acknowledge toward the issuing shard.
                    let (done, _bd) = self.storages[storage]
                        .backend
                        .write(now, m.blocks.max(1) as usize);
                    if let Some(r) = self.remote.as_deref_mut() {
                        r.served += 1;
                    }
                    let resp = RemoteMsg { is_resp: true, ..m };
                    self.q.schedule_at(
                        done + self.server_stack_latency,
                        Event::StorageDone {
                            storage,
                            reply: Box::new(Reply::Remote(resp)),
                        },
                    );
                }
            }
            Msg::Pushdown(m) => self.blk_pushdown_storage(now, storage, m),
        }
    }

    fn merge_breakdown(&mut self, compute: u32, rpc_id: u64, bd: StorageBreakdown) {
        let e = self
            .breakdowns
            .entry((compute, rpc_id))
            .or_insert(StorageBreakdown {
                bn: SimDuration::ZERO,
                ssd: SimDuration::ZERO,
            });
        e.bn = e.bn.max(bd.bn);
        e.ssd = e.ssd.max(bd.ssd);
    }

    fn serve_request(
        &mut self,
        now: SimTime,
        storage: usize,
        compute: u32,
        req: RpcFrame,
        kind: RpcTransportKind,
    ) {
        let node = &mut self.storages[storage];
        let blocks = (req.len / BLOCK_SIZE).max(1) as usize;
        let (done, bd, resp) = match req.method {
            RpcMethod::Write => {
                let (done, bd) = node.backend.write(now, blocks);
                (
                    done,
                    bd,
                    RpcFrame {
                        rpc_id: req.rpc_id,
                        method: RpcMethod::WriteResp,
                        vd_id: req.vd_id,
                        offset: req.offset,
                        len: 0,
                        payload: Bytes::new(),
                    },
                )
            }
            RpcMethod::Read => {
                let (done, bd) = node.backend.read(now, blocks);
                (
                    done,
                    bd,
                    RpcFrame {
                        rpc_id: req.rpc_id,
                        method: RpcMethod::ReadResp,
                        vd_id: req.vd_id,
                        offset: req.offset,
                        len: req.len,
                        payload: ebs_wire::pool::zero_payload(req.len as usize),
                    },
                )
            }
            _ => return, // responses never arrive at the server
        };
        self.merge_breakdown(compute, req.rpc_id, bd);
        let reply = match kind {
            RpcTransportKind::Tcp => Reply::Tcp {
                compute,
                frame: resp,
            },
            RpcTransportKind::Rdma => Reply::Rdma {
                compute,
                frame: resp,
            },
        };
        // Storage-side stack crossings (rx of the request + tx of the
        // response) — half of Table 1's four per-RPC crossings.
        self.q.schedule_at(
            done + self.server_stack_latency,
            Event::StorageDone {
                storage,
                reply: Box::new(reply),
            },
        );
    }

    fn storage_done(&mut self, now: SimTime, storage: usize, reply: Reply) {
        match reply {
            Reply::Tcp { compute, frame } => {
                if let Some(srv) = self.storages[storage].tcp.get_mut(&compute) {
                    srv.respond(&frame);
                }
                self.pump_storage(now, storage);
            }
            Reply::Rdma { compute, frame } => {
                if let Some(qp) = self.storages[storage].rdma.get_mut(&compute) {
                    qp.post_send(frame.to_bytes());
                }
                self.pump_storage(now, storage);
            }
            Reply::Solar {
                compute,
                out,
                echo_int,
                reply_port,
            } => {
                let is_data = out.hdr.op == ebs_wire::EbsOp::ReadResp;
                let size = if is_data {
                    ebs_wire::SOLAR_OVERHEAD + out.hdr.len as usize
                } else {
                    ebs_wire::SOLAR_OVERHEAD + echo_int.as_ref().map_or(0, |i| i.wire_len())
                };
                let hdr = out.hdr;
                let sdev = self.storages[storage].device;
                let cdev = self.computes[compute as usize].device;
                self.send_fabric(
                    now,
                    FlowLabel {
                        src: sdev,
                        dst: cdev,
                        src_port: out.src_port,
                        // Replies return to the request's source port, so
                        // the reverse flow re-hashes with path remapping.
                        dst_port: reply_port,
                        proto: 17,
                    },
                    size,
                    // Read responses collect fresh INT on the reverse path.
                    is_data.then(IntStack::with_path_capacity),
                    Msg::Solar {
                        compute,
                        storage: storage as u32,
                        hdr,
                        echo_int,
                    },
                );
            }
            Reply::Remote(m) => {
                // The ack heads back to the issuing shard via the gateway.
                if let Some(gdev) = self.gateway {
                    let sdev = self.storages[storage].device;
                    let flow = FlowLabel {
                        src: sdev,
                        dst: gdev,
                        src_port: 9102,
                        dst_port: 42_000 + (m.rpc_id & 0x3FF) as u16,
                        proto: 17,
                    };
                    self.send_fabric(now, flow, 128, None, Msg::Remote(m));
                }
            }
            Reply::Pushdown(m) => self.blk_pushdown_reply(now, storage, m),
        }
    }

    fn compute_rx(&mut self, now: SimTime, compute: usize, pkt: FabricPacket<Msg>) {
        let collected_int = pkt.int;
        match pkt.payload {
            Msg::Tcp { storage, seg, .. } => {
                let c = &mut self.computes[compute];
                if let ComputeTransport::Tcp { conns, .. } = &mut c.transport {
                    if let Some(conn) = conns.get_mut(&storage) {
                        conn.on_segment(now, seg);
                    }
                }
                self.drain_completions(now, compute);
                self.pump_compute(now, compute);
            }
            Msg::Rdma {
                storage,
                pkt: mut qpkt,
                ..
            } => {
                qpkt.ecn |= pkt.ecn;
                let c = &mut self.computes[compute];
                if let ComputeTransport::Rdma { conns, .. } = &mut c.transport {
                    if let Some(qp) = conns.get_mut(&storage) {
                        qp.on_packet(now, qpkt);
                    }
                }
                self.drain_completions(now, compute);
                self.pump_compute(now, compute);
            }
            Msg::Solar {
                mut hdr,
                echo_int,
                storage,
                ..
            } => {
                // Marks applied on the reverse path (ack/read-response
                // direction) also reach the client's controller.
                if pkt.ecn {
                    hdr.flags |= ebs_wire::FLAG_ECN_ECHO;
                }
                let c = &mut self.computes[compute];
                if let ComputeTransport::Solar { clients, .. } = &mut c.transport {
                    if let Some(client) = clients.get_mut(&storage) {
                        let int = echo_int.or(collected_int);
                        // Read data DMAs into guest memory via host PCIe.
                        let at = if hdr.op == ebs_wire::EbsOp::ReadResp {
                            c.pcie.transfer_block(
                                now + self.solar_costs.pipeline,
                                self.cfg.variant.pcie_path(),
                                hdr.len as usize,
                            )
                        } else {
                            now
                        };
                        client.on_packet(
                            at.max(now),
                            InPacket {
                                hdr,
                                payload: Bytes::new(),
                                int,
                            },
                        );
                    }
                }
                self.drain_completions(now, compute);
                self.pump_compute(now, compute);
            }
            // Replication traffic never targets compute servers.
            Msg::Remote(_) => {}
            Msg::Pushdown(m) => self.blk_pushdown_compute(now, compute, m),
        }
    }

    // --- completion plumbing ---------------------------------------------

    fn drain_completions(&mut self, now: SimTime, compute: usize) {
        let mut done_rpcs = std::mem::take(&mut self.done_rpcs);
        {
            let Testbed {
                computes,
                journal,
                cfg,
                solar_costs,
                ..
            } = self;
            let c = &mut computes[compute];
            match &mut c.transport {
                ComputeTransport::Tcp { costs, conns } => {
                    let crossing = costs.crossing_latency;
                    let cpu_cost = costs.cpu_per_rpc;
                    let path = cfg.variant.pcie_path();
                    for conn in conns.values_mut() {
                        while let Some(done) = conn.poll_completion() {
                            let mut t =
                                c.cpu.run(now, cpu_cost) + crossing.saturating_sub(cpu_cost);
                            // Read data crosses the DPU's PCIe on its way
                            // to guest memory (Fig. 10a).
                            let bytes = done.response.payload.len();
                            if bytes > 0 {
                                t = t.max(c.pcie.transfer_block(now, path, bytes));
                            }
                            done_rpcs.push((done.rpc_id, t.max(now)));
                        }
                    }
                }
                ComputeTransport::Rdma { costs, conns } => {
                    let path = cfg.variant.pcie_path();
                    for qp in conns.values_mut() {
                        while let Some(msg) = qp.poll_recv() {
                            if let Ok(frame) = RpcFrame::decode(msg) {
                                let mut t =
                                    c.cpu.run(now, costs.cpu_per_rpc) + costs.crossing_latency;
                                let bytes = frame.payload.len();
                                if bytes > 0 {
                                    t = t.max(c.pcie.transfer_block(now, path, bytes));
                                }
                                done_rpcs.push((frame.rpc_id, t.max(now)));
                            }
                        }
                    }
                }
                ComputeTransport::Solar { clients, .. } => {
                    let doorbell = solar_costs.cpu_doorbell;
                    let cc_completion = solar_costs.cpu_cc_per_completion;
                    let cc_ack = solar_costs.cpu_cc_per_ack;
                    let rpc_blocks = &c.rpc_to_io;
                    let mut jobs: Vec<(u64, u32)> = Vec::new();
                    for client in clients.values_mut() {
                        while let Some(ev) = client.poll_event() {
                            match ev {
                                SolarEvent::RpcCompleted { rpc_id, .. } => {
                                    let blocks = rpc_blocks.get(&rpc_id).map_or(1, |&(_, b)| b);
                                    jobs.push((rpc_id, blocks));
                                }
                                SolarEvent::RpcFailed { rpc_id } => {
                                    // Leave the I/O incomplete: it will show
                                    // up as a hang, like production.
                                    journal.instant(now, "solar", "rpc_failed", rpc_id, 0);
                                }
                                SolarEvent::PathDown { path_id } => {
                                    journal.instant(
                                        now,
                                        "solar",
                                        "path_down",
                                        u64::from(path_id),
                                        0,
                                    );
                                }
                                SolarEvent::PathUp { path_id } => {
                                    journal.instant(now, "solar", "path_up", u64::from(path_id), 0);
                                }
                                _ => {}
                            }
                        }
                    }
                    for (rpc_id, blocks) in jobs {
                        // Only the integrity check + doorbell gates the
                        // I/O; the Path&CC bookkeeping runs after the
                        // doorbell but still occupies the cores — which
                        // is exactly how §4.7's SA tail arises under
                        // intensive I/O: CC backlog delays doorbells.
                        let t = c.cpu.run(now, doorbell);
                        c.cpu
                            .run(now, cc_completion + cc_ack.saturating_mul(blocks as u64));
                        done_rpcs.push((rpc_id, t.max(now)));
                    }
                }
            }
        }
        let is_solar = matches!(self.cfg.variant, Variant::Solar | Variant::SolarStar);
        for (rpc_id, t_done) in done_rpcs.drain(..) {
            let overhead = if is_solar {
                t_done.saturating_since(now)
            } else {
                SimDuration::ZERO
            };
            self.finish_rpc(compute, rpc_id, t_done, overhead);
        }
        self.done_rpcs = done_rpcs;
    }

    fn finish_rpc(
        &mut self,
        compute: usize,
        rpc_id: u64,
        t_done: SimTime,
        completion_sa: SimDuration,
    ) {
        let c = &mut self.computes[compute];
        let Some((io_id, _blocks)) = c.rpc_to_io.remove(&rpc_id) else {
            return;
        };
        let bd = self
            .breakdowns
            .remove(&(compute as u32, rpc_id))
            .unwrap_or(StorageBreakdown {
                bn: SimDuration::ZERO,
                ssd: SimDuration::ZERO,
            });
        let Some(p) = c.pending.get_mut(&io_id) else {
            return;
        };
        p.subs_done += 1;
        p.done_at = p.done_at.max(t_done);
        p.completion_sa = p.completion_sa.max(completion_sa);
        p.max_storage.bn = p.max_storage.bn.max(bd.bn);
        p.max_storage.ssd = p.max_storage.ssd.max(bd.ssd);
        if p.subs_done == p.subs_total {
            let p = c.pending.remove(&io_id).expect("present");
            let trace = &mut self.traces[p.trace_idx];
            trace.completed = Some(p.done_at);
            let transport_total = p.done_at.saturating_since(p.sa_ready);
            let completion_sa = p.completion_sa.min(transport_total);
            trace.sa += completion_sa;
            let transport_total = transport_total.saturating_sub(completion_sa);
            trace.bn = p.max_storage.bn.min(transport_total);
            trace.ssd = p
                .max_storage
                .ssd
                .min(transport_total.saturating_sub(trace.bn));
            trace.fn_ = transport_total
                .saturating_sub(trace.bn)
                .saturating_sub(trace.ssd);
            // Tile the I/O's interval with its component spans, in the
            // same attribution order the stacked bars use (QoS → SA →
            // FN → BN → SSD → completion-side SA). Durations match the
            // IoTrace fields exactly, so `Breakdown::from_journal`
            // reproduces `Breakdown::collect` bit for bit.
            let id = p.trace_idx as u64;
            let name = match trace.kind {
                IoKind::Write => "write",
                IoKind::Read => "read",
            };
            let start = trace.submitted + trace.qos_delay;
            if trace.qos_delay > SimDuration::ZERO {
                self.journal
                    .span("sa.qos", name, id, trace.submitted, start);
            }
            self.journal.span("sa", name, id, start, p.sa_ready);
            let t1 = p.sa_ready + trace.fn_;
            let t2 = t1 + trace.bn;
            let t3 = t2 + trace.ssd;
            self.journal.span("fn", name, id, p.sa_ready, t1);
            self.journal.span("bn", name, id, t1, t2);
            self.journal.span("ssd", name, id, t2, t3);
            if p.done_at > t3 {
                // Completion-side SA work (SOLAR's doorbell path).
                self.journal.span("sa", name, id, t3, p.done_at);
            }
            self.journal
                .span(crate::diag::IO_TRACK, name, id, start, p.done_at);
            c.completed_ios += 1;
            c.completed_bytes += trace.bytes as u64;
            // Closed loop: only fio-originated completions resubmit, so
            // externally scheduled probe I/Os don't inflate the depth.
            if p.from_fio {
                if let Some(fio) = &mut c.fio {
                    let io = next_fio_io(fio, compute, &self.cfg);
                    self.q.schedule_at(
                        p.done_at,
                        Event::Guest {
                            compute,
                            io,
                            from_fio: true,
                        },
                    );
                }
            }
            // If the block frontend issued this I/O, complete its ring
            // descriptor too.
            self.blk_on_guest_io_done(compute, io_id, p.done_at);
        }
    }

    // --- pumping & timers --------------------------------------------------

    fn fire_compute_timers(&mut self, now: SimTime, compute: usize) {
        let c = &mut self.computes[compute];
        match &mut c.transport {
            ComputeTransport::Tcp { conns, .. } => {
                for conn in conns.values_mut() {
                    if matches!(conn.poll_timer(), Some(t) if t <= now) {
                        conn.on_timer(now);
                    }
                }
            }
            ComputeTransport::Rdma { conns, .. } => {
                for qp in conns.values_mut() {
                    if matches!(qp.poll_timer(), Some(t) if t <= now) {
                        qp.on_timer(now);
                    }
                }
            }
            ComputeTransport::Solar { clients, .. } => {
                for client in clients.values_mut() {
                    if matches!(client.poll_timer(), Some(t) if t <= now) {
                        client.on_timer(now);
                    }
                }
            }
        }
        self.drain_completions(now, compute);
    }

    fn fire_storage_timers(&mut self, now: SimTime, storage: usize) {
        let node = &mut self.storages[storage];
        for srv in node.tcp.values_mut() {
            if matches!(srv.poll_timer(), Some(t) if t <= now) {
                srv.on_timer(now);
            }
        }
        for qp in node.rdma.values_mut() {
            if matches!(qp.poll_timer(), Some(t) if t <= now) {
                qp.on_timer(now);
            }
        }
    }

    fn pump_compute(&mut self, now: SimTime, compute: usize) {
        let prof_t0 = self.prof.is_some().then(crate::wallclock::now);
        // Collect outgoing packets first (borrow of computes), then send.
        let mut outgoing = std::mem::take(&mut self.out_compute);
        let mut min_timer: Option<SimTime> = None;
        {
            let c = &mut self.computes[compute];
            let cdev = c.device;
            match &mut c.transport {
                ComputeTransport::Tcp { conns, .. } => {
                    for (&storage, conn) in conns.iter_mut() {
                        let sdev = self.storages[storage as usize].device;
                        while let Some(seg) = conn.poll_segment(now) {
                            let size = seg.wire_size();
                            outgoing.push((
                                FlowLabel {
                                    src: cdev,
                                    dst: sdev,
                                    src_port: 10_000 + storage as u16,
                                    dst_port: 7000,
                                    proto: 6,
                                },
                                size,
                                None,
                                Msg::Tcp {
                                    compute: compute as u32,
                                    storage,
                                    seg,
                                },
                            ));
                        }
                        min_timer = min_opt(min_timer, conn.poll_timer());
                    }
                }
                ComputeTransport::Rdma { conns, .. } => {
                    for (&storage, qp) in conns.iter_mut() {
                        let sdev = self.storages[storage as usize].device;
                        while let Some(pkt) = qp.poll_transmit(now) {
                            let size = pkt.wire_size();
                            outgoing.push((
                                FlowLabel {
                                    src: cdev,
                                    dst: sdev,
                                    src_port: 20_000 + storage as u16,
                                    dst_port: 4791,
                                    proto: 17,
                                },
                                size,
                                None,
                                Msg::Rdma {
                                    compute: compute as u32,
                                    storage,
                                    pkt,
                                },
                            ));
                        }
                        min_timer = min_opt(min_timer, qp.poll_timer());
                    }
                }
                ComputeTransport::Solar { clients, .. } => {
                    for (&storage, client) in clients.iter_mut() {
                        let sdev = self.storages[storage as usize].device;
                        while let Some(out) = client.poll_transmit(now) {
                            let size = out.wire_size()
                                + if out.hdr.op == ebs_wire::EbsOp::WriteBlock {
                                    out.hdr.len as usize
                                } else {
                                    0
                                };
                            let int = out.int_request.then(IntStack::with_path_capacity);
                            outgoing.push((
                                FlowLabel {
                                    src: cdev,
                                    dst: sdev,
                                    src_port: out.src_port,
                                    dst_port: 9000,
                                    proto: 17,
                                },
                                size,
                                int,
                                Msg::Solar {
                                    compute: compute as u32,
                                    storage,
                                    hdr: out.hdr,
                                    echo_int: None,
                                },
                            ));
                        }
                        min_timer = min_opt(min_timer, client.poll_timer());
                    }
                }
            }
        }
        for (flow, size, int, msg) in outgoing.drain(..) {
            self.send_fabric(now, flow, size, int, msg);
        }
        self.out_compute = outgoing;
        // (Re)arm the host timer.
        if let Some(t) = min_timer {
            let c = &mut self.computes[compute];
            if c.timer_at.is_none_or(|cur| t < cur) {
                c.timer_at = Some(t);
                self.q
                    .schedule_at(t.max(now), Event::ComputeTimer { compute });
            }
        }
        if let (Some(t0), Some(p)) = (prof_t0, self.prof.as_deref_mut()) {
            p.pump_ns += t0.elapsed().as_nanos() as u64;
        }
    }

    fn pump_storage(&mut self, now: SimTime, storage: usize) {
        let prof_t0 = self.prof.is_some().then(crate::wallclock::now);
        let mut outgoing = std::mem::take(&mut self.out_storage);
        let mut min_timer: Option<SimTime> = None;
        {
            let node = &mut self.storages[storage];
            let sdev = node.device;
            for (&compute, srv) in node.tcp.iter_mut() {
                let cdev = self.computes[compute as usize].device;
                while let Some(seg) = srv.poll_segment(now) {
                    let size = seg.wire_size();
                    outgoing.push((
                        FlowLabel {
                            src: sdev,
                            dst: cdev,
                            src_port: 7000,
                            dst_port: 10_000 + storage as u16,
                            proto: 6,
                        },
                        size,
                        Msg::Tcp {
                            compute,
                            storage: storage as u32,
                            seg,
                        },
                    ));
                }
                min_timer = min_opt(min_timer, srv.poll_timer());
            }
            for (&compute, qp) in node.rdma.iter_mut() {
                let cdev = self.computes[compute as usize].device;
                while let Some(pkt) = qp.poll_transmit(now) {
                    let size = pkt.wire_size();
                    outgoing.push((
                        FlowLabel {
                            src: sdev,
                            dst: cdev,
                            src_port: 4791,
                            dst_port: 20_000 + storage as u16,
                            proto: 17,
                        },
                        size,
                        Msg::Rdma {
                            compute,
                            storage: storage as u32,
                            pkt,
                        },
                    ));
                }
                min_timer = min_opt(min_timer, qp.poll_timer());
            }
        }
        for (flow, size, msg) in outgoing.drain(..) {
            self.send_fabric(now, flow, size, None, msg);
        }
        self.out_storage = outgoing;
        if let Some(t) = min_timer {
            let node = &mut self.storages[storage];
            if node.timer_at.is_none_or(|cur| t < cur) {
                node.timer_at = Some(t);
                self.q
                    .schedule_at(t.max(now), Event::StorageTimer { storage });
            }
        }
        if let (Some(t0), Some(p)) = (prof_t0, self.prof.as_deref_mut()) {
            p.pump_ns += t0.elapsed().as_nanos() as u64;
        }
    }

    fn send_fabric(
        &mut self,
        now: SimTime,
        flow: FlowLabel,
        size: usize,
        int: Option<IntStack>,
        msg: Msg,
    ) {
        self.fabric_bytes += size as u64;
        let Testbed { q, fabric, .. } = self;
        let mut sched = MapScheduler::new(q, Event::Net);
        let delivered = fabric.send(now, FabricPacket::new(flow, size, int, msg), &mut sched);
        if let Some(pkt) = delivered {
            self.deliver(now, pkt);
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum RpcTransportKind {
    Tcp,
    Rdma,
}

/// FNV-1a, for order-sensitive digest checksums ([`Testbed::metrics_digest`]).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn min_opt(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, y) => x.or(y),
    }
}

fn at_plus(t: SimTime, ns: u64) -> SimTime {
    t + SimDuration::from_nanos(ns)
}

fn bump_timer(timer_at: &mut Option<SimTime>, q: &mut EventQueue<Event>, at: SimTime, ev: Event) {
    if timer_at.is_none_or(|cur| at < cur) {
        *timer_at = Some(at);
        q.schedule_at(at, ev);
    }
}

fn next_fio_io(fio: &mut FioState, compute: usize, cfg: &TestbedConfig) -> IoRequest {
    fio.issued += 1;
    let vd_blocks = cfg.vd_segments * ebs_sa::SEGMENT_BLOCKS;
    let blocks = (fio.cfg.bytes / BLOCK_SIZE) as u64;
    let max_start = vd_blocks.saturating_sub(blocks).max(1);
    let offset_block = fio.rng.gen_range(0..max_start);
    let kind = if fio.rng.gen::<f64>() < fio.cfg.read_fraction {
        IoKind::Read
    } else {
        IoKind::Write
    };
    // Extra RNG draw only in the multi-vd regime, so single-vd runs stay
    // bit-identical with historical baselines.
    let vds = cfg.vds_per_compute.max(1);
    let vd_id = if vds > 1 {
        compute as u64 * vds + fio.rng.gen_range(0..vds)
    } else {
        compute as u64
    };
    IoRequest {
        vd_id,
        kind,
        offset: offset_block * BLOCK_SIZE as u64,
        len: fio.cfg.bytes,
    }
}
