//! One connection type per side of a (compute, storage) pair.
//!
//! This is the only file in the crate that knows *which* transport a
//! [`Variant`] runs. It answers the three questions the hosts used to
//! spell out at every pump, rx and completion site: which sans-io engine
//! carries the pair's RPCs, how the engine's wire unit becomes a fabric
//! packet (ports, protocol, wire size, INT), and what CPU/PCIe the host
//! charges at submit, receive and completion. [`ClientConn`] and
//! [`ServerConn`] are closed enums over the three transports with the
//! verbs the engines already share — submit / rx / poll_tx / poll_done /
//! poll_timer / on_timer / sample_into — so `compute.rs` and `storage.rs`
//! hold one [`ConnTable`](crate::net::ConnTable) of connections each,
//! indexed by peer id, and never name an engine. TCP and RDMA both carry
//! [`RpcFrame`]s and share one frame path per side ([`Rpc::frame`],
//! [`frame_done`], [`frame_request`]) and one rule for which response
//! completes a request ([`RpcFrame::answers`]).
//!
//! A node's table has a slot per peer id up to the highest that ever
//! connected, and every slot is as wide as the widest arm of its enum, so
//! the TCP and RDMA engines sit behind a `Box` on both sides and SOLAR's
//! state sets the width: 72 bytes for a [`ServerConn`] (peer ids and the
//! responder's counter vector, pinned in `testbed.rs`), about 300 for a
//! [`ClientConn`]. The connection state of one (compute, storage) SOLAR
//! pair is under 2 KB (DESIGN.md §7.21).
//!
//! Every arithmetic detail here is byte-pinned by the golden digests
//! (`tests/digest_golden.rs`): TCP's crossing is `crossing_latency`
//! *minus* the CPU work it overlaps, RDMA's is CPU work *plus*
//! `crossing_latency`; SOLAR charges the doorbell, then the post-doorbell
//! CC work, per completed RPC.

use bytes::Bytes;
use ebs_dpu::{DataPath, DpuCpu, DpuPcie};
use ebs_luna::{read_request, write_request, RpcConn, StackCosts};
use ebs_net::{DeviceId, FabricPacket, FlowLabel};
use ebs_obs::{Journal, Metrics, Sample};
use ebs_rdma::{QpPacket, RdmaQp};
use ebs_sa::{IoKind, SubIo, BLOCK_SIZE};
use ebs_sim::{FxHashMap, SimDuration, SimTime};
use ebs_solar::{
    InPacket, OutPacket, ReadBlock, ServerAction, SolarClient, SolarEvent, SolarResponder,
    WriteBlock,
};
use ebs_tcp::{Segment, TcpConfig};
use ebs_wire::{EbsHeader, EbsOp, IntStack, RpcFrame, RpcMethod};

use crate::calibrate::{
    RDMA_CPU_PER_RPC, RDMA_CROSSING_LATENCY, SOLAR_CPU_CC_PER_ACK, SOLAR_CPU_CC_PER_COMPLETION,
    SOLAR_CPU_DOORBELL, SOLAR_PIPELINE,
};
use crate::net::Packet;
use crate::storage::Reply;
use crate::testbed::{Body, Msg, TestbedConfig, Variant};

/// Well-known server ports of the three transports.
const TCP_PORT: u16 = 7000;
const ROCE_PORT: u16 = 4791;
const SOLAR_PORT: u16 = 9000;
/// Jumbo-capable NICs with TSO/GSO.
const TCP_MSS: usize = 8960;

/// One transport's unit on the simulated wire.
#[derive(Debug)]
pub(crate) enum Wire {
    Tcp(Segment),
    Rdma(QpPacket),
    /// SOLAR packet (either direction; the header op disambiguates).
    Solar {
        hdr: EbsHeader,
        /// INT stack echoed in an ACK (as opposed to collected en route).
        echo_int: Option<IntStack>,
    },
}

/// A delivered wire unit plus what the fabric did to it on the way.
pub(crate) struct Rx {
    pub wire: Wire,
    /// RED/ECN congestion-experienced mark.
    pub ecn: bool,
    /// INT collected en route.
    pub int: Option<IntStack>,
    /// Source port of the carrying flow.
    pub src_port: u16,
}

/// Who a connection joins: its own and its peer's fabric device, and the
/// (compute, storage) index pair that addresses it inside a [`Msg`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ends {
    pub local: DeviceId,
    pub peer: DeviceId,
    pub compute: u32,
    pub storage: u32,
}

impl Ends {
    /// The one place a transport flow label is built.
    fn packet(
        &self,
        (src_port, dst_port, proto): (u16, u16, u8),
        size: usize,
        int: Option<IntStack>,
        wire: Wire,
    ) -> Packet {
        let flow = FlowLabel {
            src: self.local,
            dst: self.peer,
            src_port,
            dst_port,
            proto,
        };
        let body = Body::Conn {
            compute: self.compute,
            storage: self.storage,
            wire,
        };
        FabricPacket::new(flow, size, int, Msg(body))
    }
}

/// Storage-side stack latency per served request: the rx + tx crossings
/// of whatever stack the storage servers run for `variant` — half of
/// Table 1's four per-RPC crossings.
pub(crate) fn server_stack_latency(variant: Variant) -> SimDuration {
    match variant {
        Variant::Kernel => StackCosts::kernel().crossing_latency * 2,
        Variant::Luna => StackCosts::luna().crossing_latency * 2,
        Variant::Rdma => RDMA_CROSSING_LATENCY * 2,
        // Storage-side SOLAR is a thin user-space UDP responder.
        Variant::SolarStar | Variant::Solar => SimDuration::from_micros(1),
    }
}

// --- compute side ----------------------------------------------------------

/// One sub-I/O on its way to a block server.
pub(crate) struct Rpc<'a> {
    pub rpc_id: u64,
    pub vd_id: u64,
    pub kind: IoKind,
    pub sub: &'a SubIo,
}

impl Rpc<'_> {
    fn bytes(&self) -> usize {
        self.sub.blocks.len() * BLOCK_SIZE as usize
    }

    /// The request frame the TCP and RDMA transports both carry.
    fn frame(&self) -> RpcFrame {
        let offset = self.sub.blocks[0] * BLOCK_SIZE as u64;
        match self.kind {
            // Shared zero region: the simulator only cares about payload
            // *length*, so every frame views one immutable zero slab (no
            // per-RPC allocation).
            IoKind::Write => write_request(
                self.rpc_id,
                self.vd_id,
                offset,
                ebs_wire::pool::zero_payload(self.bytes()),
            ),
            IoKind::Read => read_request(self.rpc_id, self.vd_id, offset, self.bytes() as u32),
        }
    }
}

/// The compute-server resources a client connection charges host work to.
pub(crate) struct Host<'a> {
    pub cpu: &'a mut DpuCpu,
    pub pcie: &'a mut DpuPcie,
    /// PCIe traversal profile of the variant (Fig. 10).
    pub path: DataPath,
    pub journal: &'a mut Journal,
    /// RPC id → (I/O id, blocks): SOLAR's post-doorbell CC work scales
    /// with the RPC's per-block ACK count.
    pub rpc_to_io: &'a FxHashMap<u64, (u64, u32)>,
}

/// A finished RPC, host costs already charged.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Done {
    pub rpc_id: u64,
    /// When the completion reaches the guest.
    pub at: SimTime,
    /// Completion-side SA work (SOLAR's doorbell path), attributed to the
    /// SA component per §4.7.
    pub sa: SimDuration,
}

/// Compute-side half of one (compute, storage) connection.
// SOLAR's client stays inline: it is the state a SOLAR pair keeps, and
// boxing it would add an allocation per pair and a pointer chase per
// packet. The other engines are boxed so that it sets the slot width.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub(crate) enum ClientConn {
    /// Kernel TCP or LUNA: the same engine under different stack costs.
    Tcp {
        ends: Ends,
        costs: StackCosts,
        rpc: Box<RpcConn>,
    },
    Rdma {
        ends: Ends,
        qp: Box<RdmaQp>,
        /// Requests posted and not yet answered, by rpc id, header only.
        sent: FxHashMap<u64, RpcFrame>,
    },
    /// SOLAR and SOLAR*: the variants share the transport; SOLAR*'s extra
    /// per-block CPU and PCIe crossings are charged at guest submission.
    Solar { ends: Ends, client: SolarClient },
}

impl ClientConn {
    pub(crate) fn open(cfg: &TestbedConfig, ends: Ends) -> Self {
        let tcp = |costs| ClientConn::Tcp {
            ends,
            costs,
            rpc: Box::new(RpcConn::connect(TcpConfig {
                iss: ends.compute << 8 | ends.storage,
                mss: TCP_MSS,
                swift: cfg.tcp_swift,
                ..TcpConfig::default()
            })),
        };
        match cfg.variant {
            Variant::Kernel => tcp(StackCosts::kernel()),
            Variant::Luna => tcp(StackCosts::luna()),
            Variant::Rdma => ClientConn::Rdma {
                ends,
                qp: Box::new(RdmaQp::new(cfg.rdma)),
                sent: FxHashMap::default(),
            },
            Variant::SolarStar | Variant::Solar => ClientConn::Solar {
                ends,
                client: SolarClient::new(cfg.solar.clone()),
            },
        }
    }

    /// Hand one RPC to the transport, charging the tx-side stack work to
    /// `cpu`. The engines are sans-io and queue the RPC at once, so it
    /// leaves with the caller's next pump. TCP and RDMA return the instant
    /// their tx-side stack crossing ends, for the caller's host timer; the
    /// request does not wait for it (DESIGN.md §7.11, invariant 4). SOLAR
    /// returns `None`.
    pub(crate) fn submit(
        &mut self,
        now: SimTime,
        cpu: &mut DpuCpu,
        r: &Rpc<'_>,
    ) -> Option<SimTime> {
        match self {
            ClientConn::Tcp { costs, rpc, .. } => {
                let cpu_cost = costs.cpu_for_rpc(r.bytes());
                let t = cpu.run(now, cpu_cost) + costs.crossing_latency.saturating_sub(cpu_cost);
                rpc.send(&r.frame());
                Some(t.max(now))
            }
            ClientConn::Rdma { qp, sent, .. } => {
                let t = cpu.run(now, RDMA_CPU_PER_RPC) + RDMA_CROSSING_LATENCY;
                let frame = r.frame();
                qp.post_send(frame.to_bytes());
                let payload = Bytes::new();
                sent.insert(r.rpc_id, RpcFrame { payload, ..frame });
                Some(t.max(now))
            }
            ClientConn::Solar { client, .. } => {
                let (id, vd, seg) = (r.rpc_id, r.vd_id, r.sub.segment_id);
                match r.kind {
                    IoKind::Write => {
                        let blocks = r.sub.blocks.iter().map(|&b| WriteBlock {
                            block_addr: b,
                            payload: Bytes::new(),
                            crc: 0,
                        });
                        client.submit_write(now, id, vd, seg, blocks.collect());
                    }
                    IoKind::Read => {
                        let blocks = r.sub.blocks.iter().map(|&b| ReadBlock {
                            block_addr: b,
                            guest_addr: b * BLOCK_SIZE as u64,
                        });
                        client.submit_read(now, id, vd, seg, blocks.collect());
                    }
                }
                None
            }
        }
    }

    /// Feed one delivered wire unit to the engine. A unit of another
    /// transport cannot arrive: a testbed runs one variant.
    pub(crate) fn rx(&mut self, now: SimTime, rx: Rx, pcie: &mut DpuPcie, path: DataPath) {
        match (self, rx.wire) {
            (ClientConn::Tcp { rpc, .. }, Wire::Tcp(seg)) => rpc.on_segment(now, seg),
            (ClientConn::Rdma { qp, .. }, Wire::Rdma(mut pkt)) => {
                pkt.ecn |= rx.ecn;
                qp.on_packet(now, pkt);
            }
            (ClientConn::Solar { client, .. }, Wire::Solar { mut hdr, echo_int }) => {
                // Marks applied on the reverse path (ack/read-response
                // direction) also reach the client's controller.
                if rx.ecn {
                    hdr.flags |= ebs_wire::FLAG_ECN_ECHO;
                }
                // Read data DMAs into guest memory via host PCIe.
                let at = if hdr.op == EbsOp::ReadResp {
                    pcie.transfer_block(now + SOLAR_PIPELINE, path, hdr.len as usize)
                } else {
                    now
                };
                let pkt = InPacket {
                    hdr,
                    payload: Bytes::new(),
                    int: echo_int.or(rx.int),
                };
                client.on_packet(at.max(now), pkt);
            }
            _ => {}
        }
    }

    /// The next packet for the fabric, if the engine has one.
    pub(crate) fn poll_tx(&mut self, now: SimTime) -> Option<Packet> {
        match self {
            ClientConn::Tcp { ends, rpc, .. } => {
                let seg = rpc.poll_segment(now)?;
                let ports = (10_000 + ends.storage as u16, TCP_PORT, 6);
                Some(ends.packet(ports, seg.wire_size(), None, Wire::Tcp(seg)))
            }
            ClientConn::Rdma { ends, qp, .. } => {
                let pkt = qp.poll_transmit(now)?;
                let ports = (20_000 + ends.storage as u16, ROCE_PORT, 17);
                Some(ends.packet(ports, pkt.wire_size(), None, Wire::Rdma(pkt)))
            }
            ClientConn::Solar { ends, client, .. } => {
                let out = client.poll_transmit(now)?;
                let data = if out.hdr.op == EbsOp::WriteBlock {
                    out.hdr.len as usize
                } else {
                    0
                };
                let int = out.int_request.then(IntStack::with_path_capacity);
                let wire = Wire::Solar {
                    hdr: out.hdr,
                    echo_int: None,
                };
                let ports = (out.src_port, SOLAR_PORT, 17);
                Some(ends.packet(ports, out.wire_size() + data, int, wire))
            }
        }
    }

    /// The next finished RPC, with its completion-side host work charged:
    /// a stack crossing (and, for read data, the DPU PCIe hop to guest
    /// memory, Fig. 10a) for the frame transports; for SOLAR the integrity
    /// check + doorbell that gate the I/O, then the Path&CC bookkeeping
    /// that runs after the doorbell but still occupies the cores — which
    /// is exactly how §4.7's SA tail arises under intensive I/O: CC
    /// backlog delays doorbells. SOLAR's transport notifications are
    /// journalled on the way.
    pub(crate) fn poll_done(&mut self, now: SimTime, h: &mut Host<'_>) -> Option<Done> {
        match self {
            // `rpc` hands up only the answers to its requests, and requests
            // (which a compute server does not serve).
            ClientConn::Tcp { costs, rpc, .. } => loop {
                let resp = rpc.poll_frame()?;
                if resp.method.is_request() {
                    continue;
                }
                let cpu_cost = costs.cpu_per_rpc;
                let t = h.cpu.run(now, cpu_cost) + costs.crossing_latency.saturating_sub(cpu_cost);
                return Some(frame_done(now, h, &resp, t));
            },
            // The same rule for RDMA: a message that does not answer a
            // request in flight is stale, and its I/O shows as a hang.
            ClientConn::Rdma { qp, sent, .. } => loop {
                let Ok(resp) = RpcFrame::decode(qp.poll_recv()?) else {
                    continue;
                };
                if !sent.get(&resp.rpc_id).is_some_and(|req| resp.answers(req)) {
                    continue;
                }
                sent.remove(&resp.rpc_id);
                let t = h.cpu.run(now, RDMA_CPU_PER_RPC) + RDMA_CROSSING_LATENCY;
                return Some(frame_done(now, h, &resp, t));
            },
            ClientConn::Solar { client, .. } => loop {
                match client.poll_event()? {
                    SolarEvent::RpcCompleted { rpc_id, .. } => {
                        let blocks = h.rpc_to_io.get(&rpc_id).map_or(1, |&(_, b)| b);
                        let at = h.cpu.run(now, SOLAR_CPU_DOORBELL).max(now);
                        let cc = SOLAR_CPU_CC_PER_ACK.saturating_mul(blocks as u64);
                        h.cpu.run(now, SOLAR_CPU_CC_PER_COMPLETION + cc);
                        let sa = at.saturating_since(now);
                        return Some(Done { rpc_id, at, sa });
                    }
                    // Leave the I/O incomplete: it will show up as a hang,
                    // like production.
                    SolarEvent::RpcFailed { rpc_id } => {
                        h.journal.instant(now, "solar", "rpc_failed", rpc_id, 0);
                    }
                    SolarEvent::PathDown { path_id } => {
                        let id = u64::from(path_id);
                        h.journal.instant(now, "solar", "path_down", id, 0);
                    }
                    SolarEvent::PathUp { path_id } => {
                        let id = u64::from(path_id);
                        h.journal.instant(now, "solar", "path_up", id, 0);
                    }
                    _ => {}
                }
            },
        }
    }

    pub(crate) fn poll_timer(&self) -> Option<SimTime> {
        match self {
            ClientConn::Tcp { rpc, .. } => rpc.poll_timer(),
            ClientConn::Rdma { qp, .. } => qp.poll_timer(),
            ClientConn::Solar { client, .. } => client.poll_timer(),
        }
    }

    /// Fire the engine's timer if it is due.
    pub(crate) fn on_timer(&mut self, now: SimTime) {
        if !matches!(self.poll_timer(), Some(t) if t <= now) {
            return;
        }
        match self {
            ClientConn::Tcp { rpc, .. } => rpc.on_timer(now),
            ClientConn::Rdma { qp, .. } => qp.on_timer(now),
            ClientConn::Solar { client, .. } => client.on_timer(now),
        }
    }

    pub(crate) fn sample_into(&self, now: SimTime, m: &mut Metrics) {
        match self {
            ClientConn::Tcp { rpc, .. } => rpc.sample_into(now, m),
            ClientConn::Rdma { .. } => {}
            ClientConn::Solar { client, .. } => client.sample_into(now, m),
        }
    }

    /// SOLAR retransmissions on this connection (0 for the others).
    pub(crate) fn solar_retransmits(&self) -> u64 {
        match self {
            ClientConn::Solar { client, .. } => client.stats().retransmits,
            _ => 0,
        }
    }
}

/// Completion tail the frame transports share: read data crosses the
/// DPU's PCIe on its way to guest memory.
fn frame_done(now: SimTime, h: &mut Host<'_>, resp: &RpcFrame, mut t: SimTime) -> Done {
    let bytes = resp.payload.len();
    if bytes > 0 {
        t = t.max(h.pcie.transfer_block(now, h.path, bytes));
    }
    Done {
        rpc_id: resp.rpc_id,
        at: t.max(now),
        sa: SimDuration::ZERO,
    }
}

// --- storage side ----------------------------------------------------------

/// Backend work one request asks the block server for.
pub(crate) struct Work {
    pub write: bool,
    pub blocks: usize,
    pub rpc_id: u64,
    /// The disk the request names (must belong to the sending server).
    pub vd_id: u64,
}

/// What a server connection wants done for something it received: the
/// backend work, if any, and the reply to emit once that finished.
/// Control replies (probe ACKs, gap NACKs) carry no work and leave at once.
pub(crate) struct Request {
    pub work: Option<Work>,
    pub reply: Reply,
}

/// Storage-side half of one (compute, storage) connection.
#[derive(Debug)]
pub(crate) enum ServerConn {
    Tcp {
        ends: Ends,
        rpc: Box<RpcConn>,
    },
    Rdma {
        ends: Ends,
        qp: Box<RdmaQp>,
    },
    /// SOLAR's responder keeps no connection state beyond per-path
    /// sequence counters: each packet in is at most one storage action
    /// and one packet out, built here and sent without ever being queued.
    Solar {
        ends: Ends,
        resp: SolarResponder,
    },
}

impl ServerConn {
    pub(crate) fn accept(cfg: &TestbedConfig, ends: Ends) -> Self {
        match cfg.variant {
            Variant::Kernel | Variant::Luna => ServerConn::Tcp {
                ends,
                rpc: Box::new(RpcConn::listen(TcpConfig {
                    iss: 0x8000_0000 | (ends.compute << 8),
                    mss: TCP_MSS,
                    swift: cfg.tcp_swift,
                    ..TcpConfig::default()
                })),
            },
            Variant::Rdma => ServerConn::Rdma {
                ends,
                qp: Box::new(RdmaQp::new(cfg.rdma)),
            },
            Variant::SolarStar | Variant::Solar => ServerConn::Solar {
                ends,
                resp: SolarResponder::new(),
            },
        }
    }

    /// Feed one delivered wire unit to the engine and hand `serve`, in
    /// order, everything the block server must now do. Returns whether
    /// the connection holds transmit or timer state the host must pump
    /// (TCP and RDMA acks); SOLAR's replies never queue.
    pub(crate) fn rx(&mut self, now: SimTime, rx: Rx, mut serve: impl FnMut(Request)) -> bool {
        match (self, rx.wire) {
            (ServerConn::Tcp { ends, rpc }, Wire::Tcp(seg)) => {
                rpc.on_segment(now, seg);
                while let Some(req) = rpc.poll_frame() {
                    frame_request(ends.compute, req, &mut serve);
                }
                true
            }
            (ServerConn::Rdma { ends, qp }, Wire::Rdma(mut pkt)) => {
                // A fabric ECN mark rides into the QP packet so the
                // responder echoes it on the ack (DCQCN's CNP role).
                pkt.ecn |= rx.ecn;
                qp.on_packet(now, pkt);
                while let Some(msg) = qp.poll_recv() {
                    if let Ok(req) = RpcFrame::decode(msg) {
                        frame_request(ends.compute, req, &mut serve);
                    }
                }
                true
            }
            (ServerConn::Solar { ends, resp }, Wire::Solar { mut hdr, .. }) => {
                // The responder copies the request header into its ack, so
                // stamping the fabric's ECN mark here makes the ack echo it
                // back to the sender's congestion controller.
                if rx.ecn {
                    hdr.flags |= ebs_wire::FLAG_ECN_ECHO;
                }
                // Replies return to the request's UDP source port, so the
                // reverse flow re-hashes whenever the client remaps a path.
                let reply = |out, echo| solar_reply(ends, out, echo, rx.src_port);
                let block = |hdr: &EbsHeader, write| Work {
                    write,
                    blocks: 1,
                    rpc_id: hdr.rpc_id,
                    vd_id: hdr.vd_id,
                };
                let action = resp.on_packet(InPacket {
                    hdr,
                    payload: Bytes::new(),
                    int: rx.int,
                });
                // Gap reports go straight back (tiny control packets),
                // ahead of the packet's own action.
                while let Some(nack) = resp.poll_gap_nack() {
                    serve(Request {
                        work: None,
                        reply: reply(nack, None),
                    });
                }
                let (work, reply) = match action {
                    ServerAction::StoreBlock { hdr, int, .. } => {
                        let (ack, echo) = resp.write_ack(&hdr, int);
                        (Some(block(&hdr, true)), reply(ack, echo))
                    }
                    ServerAction::FetchBlock { hdr } => {
                        let out = resp.read_resp(&hdr, Bytes::new(), 0);
                        (Some(block(&hdr, false)), reply(out, None))
                    }
                    ServerAction::Reply(out) => (None, reply(out, None)),
                    ServerAction::None => return false,
                };
                serve(Request { work, reply });
                false
            }
            _ => false,
        }
    }

    /// Queue a finished response frame on the connection (the pump sends
    /// it). SOLAR replies are ready-made packets and never come here.
    pub(crate) fn respond(&mut self, frame: &RpcFrame) {
        match self {
            ServerConn::Tcp { rpc, .. } => rpc.send(frame),
            ServerConn::Rdma { qp, .. } => qp.post_send(frame.to_bytes()),
            ServerConn::Solar { .. } => {}
        }
    }

    /// The next packet for the fabric, if the engine has one.
    pub(crate) fn poll_tx(&mut self, now: SimTime) -> Option<Packet> {
        match self {
            ServerConn::Tcp { ends, rpc } => {
                let seg = rpc.poll_segment(now)?;
                let ports = (TCP_PORT, 10_000 + ends.storage as u16, 6);
                Some(ends.packet(ports, seg.wire_size(), None, Wire::Tcp(seg)))
            }
            ServerConn::Rdma { ends, qp } => {
                let pkt = qp.poll_transmit(now)?;
                let ports = (ROCE_PORT, 20_000 + ends.storage as u16, 17);
                Some(ends.packet(ports, pkt.wire_size(), None, Wire::Rdma(pkt)))
            }
            ServerConn::Solar { .. } => None,
        }
    }

    pub(crate) fn poll_timer(&self) -> Option<SimTime> {
        match self {
            ServerConn::Tcp { rpc, .. } => rpc.poll_timer(),
            ServerConn::Rdma { qp, .. } => qp.poll_timer(),
            ServerConn::Solar { .. } => None,
        }
    }

    /// Fire the engine's timer if it is due.
    pub(crate) fn on_timer(&mut self, now: SimTime) {
        if !matches!(self.poll_timer(), Some(t) if t <= now) {
            return;
        }
        match self {
            ServerConn::Tcp { rpc, .. } => rpc.on_timer(now),
            ServerConn::Rdma { qp, .. } => qp.on_timer(now),
            ServerConn::Solar { .. } => {}
        }
    }

    pub(crate) fn sample_into(&self, now: SimTime, m: &mut Metrics) {
        if let ServerConn::Tcp { rpc, .. } = self {
            rpc.sample_into(now, m);
        }
    }
}

/// Serving path the frame transports share: the backend work a request
/// frame asks for and the response frame that answers it. Responses never
/// arrive at a server; anything but a read or write is dropped.
fn frame_request(compute: u32, req: RpcFrame, serve: &mut impl FnMut(Request)) {
    let (write, method, len, payload) = match req.method {
        RpcMethod::Write => (true, RpcMethod::WriteResp, 0, Bytes::new()),
        RpcMethod::Read => {
            let data = ebs_wire::pool::zero_payload(req.len as usize);
            (false, RpcMethod::ReadResp, req.len, data)
        }
        _ => return,
    };
    let frame = RpcFrame {
        rpc_id: req.rpc_id,
        method,
        vd_id: req.vd_id,
        offset: req.offset,
        len,
        payload,
    };
    serve(Request {
        work: Some(Work {
            write,
            blocks: (req.len / BLOCK_SIZE).max(1) as usize,
            rpc_id: req.rpc_id,
            vd_id: req.vd_id,
        }),
        reply: Reply::Frame { compute, frame },
    });
}

/// A SOLAR response as the packet that will leave the storage server.
fn solar_reply(ends: &Ends, out: OutPacket, echo_int: Option<IntStack>, reply_port: u16) -> Reply {
    let is_data = out.hdr.op == EbsOp::ReadResp;
    let extra = if is_data {
        out.hdr.len as usize
    } else {
        echo_int.as_ref().map_or(0, |i| i.wire_len())
    };
    // Read responses collect fresh INT on the reverse path.
    let int = is_data.then(IntStack::with_path_capacity);
    let wire = Wire::Solar {
        hdr: out.hdr,
        echo_int,
    };
    let ports = (out.src_port, reply_port, 17);
    Reply::Packet(ends.packet(ports, ebs_wire::SOLAR_OVERHEAD + extra, int, wire))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_dpu::PcieConfig;
    use ebs_wire::pool::zero_payload;

    /// An RDMA completion needs the answer to the request in flight: a
    /// request, a response of the wrong method, offset or length, and a
    /// duplicate all complete nothing.
    #[test]
    fn rdma_response_must_answer_its_request() {
        let cfg = TestbedConfig::small(Variant::Rdma, 1, 1);
        let ends = Ends {
            local: DeviceId(0),
            peer: DeviceId(1),
            compute: 0,
            storage: 0,
        };
        let mut conn = ClientConn::open(&cfg, ends);
        let (mut cpu, mut pcie) = (DpuCpu::new(1), DpuPcie::new(PcieConfig::default()));
        let sub = SubIo {
            block_server: 0,
            segment_id: 0,
            blocks: vec![2],
        };
        let rpc = Rpc {
            rpc_id: 1,
            vd_id: 7,
            kind: IoKind::Read,
            sub: &sub,
        };
        conn.submit(SimTime::ZERO, &mut cpu, &rpc);
        let req = rpc.frame();
        let resp = |method, offset, len| RpcFrame {
            method,
            offset,
            len,
            payload: zero_payload(len as usize),
            ..req.clone()
        };
        let answer = resp(RpcMethod::ReadResp, 8192, 4096);
        let mut storage = RdmaQp::new(cfg.rdma);
        for frame in [
            req.clone(),
            resp(RpcMethod::WriteResp, 8192, 0),
            resp(RpcMethod::ReadResp, 0, 4096),
            resp(RpcMethod::ReadResp, 8192, 512),
            answer.clone(),
            answer,
        ] {
            storage.post_send(frame.to_bytes());
        }
        let ClientConn::Rdma { qp, .. } = &mut conn else {
            unreachable!("an RDMA testbed opens RDMA connections")
        };
        let now = SimTime::ZERO;
        for _ in 0..8 {
            while let Some(pkt) = storage.poll_transmit(now) {
                qp.on_packet(now, pkt);
            }
            while let Some(pkt) = qp.poll_transmit(now) {
                storage.on_packet(now, pkt);
            }
        }
        assert_eq!(qp.stats().msgs_delivered, 6);
        let mut h = Host {
            cpu: &mut cpu,
            pcie: &mut pcie,
            path: DataPath::Rdma,
            journal: &mut Journal::new(),
            rpc_to_io: &FxHashMap::default(),
        };
        let done = std::iter::from_fn(|| conn.poll_done(now, &mut h));
        assert_eq!(done.map(|d| d.rpc_id).collect::<Vec<_>>(), [1]);
    }
}
