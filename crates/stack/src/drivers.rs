//! Workload drivers: the closed-loop fio driver, the open-loop probe
//! driver, and cross-shard storage replication with its gateway.

use ebs_net::{DeviceId, FabricPacket, FlowLabel};
use ebs_sa::{IoKind, IoRequest, BLOCK_SIZE};
use ebs_sim::{rng, SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::net::Packet;
use crate::storage::Reply;
use crate::testbed::{Body, Event, Msg, Testbed, TestbedConfig};

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
pub(crate) struct FioState {
    cfg: FioConfig,
    rng: SmallRng,
}

/// Open-loop probe driver: a fixed-rate trickle of I/Os per compute
/// server (fleet runs model thousands of lightly-loaded VMs; a
/// closed-loop fio driver per VM would saturate every server).
#[derive(Debug)]
pub(crate) struct ProbeState {
    interval: SimDuration,
    bytes: u32,
    read_fraction: f64,
    rng: SmallRng,
}

/// A cross-shard storage-to-storage replication RPC: BN chunk replication
/// between storage clusters in different shards. Within a shard it rides
/// the local fabric between a storage server and the shard gateway;
/// between shards the sharded executor carries it through deterministic
/// mailboxes. Plain data (`Copy`, no payload handle) so it can cross
/// thread boundaries there.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RemoteMsg {
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

impl RemoteMsg {
    /// Per-RPC port offset, so concurrent RPCs spread over ECMP paths.
    fn salt(&self) -> u16 {
        (self.rpc_id & 0x3FF) as u16
    }

    /// This leg as a packet between a storage server and the shard
    /// gateway. Requests carry their blocks.
    fn packet(self, src: DeviceId, dst: DeviceId, src_port: u16, dst_port: u16) -> Packet {
        let flow = FlowLabel {
            src,
            dst,
            src_port,
            dst_port,
            proto: 17,
        };
        let blocks = if self.is_resp {
            0
        } else {
            self.blocks as usize
        };
        let size = blocks * BLOCK_SIZE as usize + 128;
        FabricPacket::new(flow, size, None, Msg(Body::Remote(self)))
    }
}

/// Cross-shard replication engine state
/// (see [`Testbed::enable_remote_replication`]).
pub(crate) struct RemoteState {
    shard: u32,
    n_shards: u32,
    /// Storage servers per peer shard (uniform fleets only).
    peer_storages: u32,
    blocks: u32,
    interval: SimDuration,
    rng: SmallRng,
    next_rpc_id: u64,
    /// Set by [`Event::StopRepl`]: ticks neither issue nor rearm.
    stopped: bool,
    /// Outbox sequence counter; see [`RemoteMsg::seq`].
    pub next_seq: u64,
    /// Messages that reached the gateway this window, awaiting pickup by
    /// the sharded executor ([`Testbed::take_remote_outbox`]).
    outbox: Vec<RemoteMsg>,
    pub issued: u64,
    pub served: u64,
    pub completed: u64,
    pub rtt_ns_sum: u64,
}

/// One of `compute`'s disks. The RNG is drawn only in the multi-vd
/// regime, so single-vd runs stay bit-identical with historical baselines.
fn pick_disk(rng: &mut SmallRng, compute: usize, cfg: &TestbedConfig) -> u64 {
    let vds = cfg.vds_per_compute.max(1);
    let v = if vds > 1 { rng.gen_range(0..vds) } else { 0 };
    compute as u64 * vds + v
}

fn pick_kind(rng: &mut SmallRng, read_fraction: f64) -> IoKind {
    if rng.gen::<f64>() < read_fraction {
        IoKind::Read
    } else {
        IoKind::Write
    }
}

/// The fio driver's next I/O: offset, then kind, then disk — the draw
/// order is part of every committed baseline (the probe driver's differs).
pub(crate) fn next_fio_io(fio: &mut FioState, compute: usize, cfg: &TestbedConfig) -> IoRequest {
    let vd_blocks = cfg.vd_segments * ebs_sa::SEGMENT_BLOCKS;
    let blocks = (fio.cfg.bytes / BLOCK_SIZE) as u64;
    let max_start = vd_blocks.saturating_sub(blocks).max(1);
    let offset = fio.rng.gen_range(0..max_start) * BLOCK_SIZE as u64;
    let kind = pick_kind(&mut fio.rng, fio.cfg.read_fraction);
    IoRequest {
        vd_id: pick_disk(&mut fio.rng, compute, cfg),
        kind,
        offset,
        len: fio.cfg.bytes,
    }
}

impl Testbed {
    /// Attach a closed-loop fio driver to a compute server, starting at
    /// `start`.
    pub fn attach_fio(&mut self, start: SimTime, compute: usize, fio: FioConfig) {
        let mut state = FioState {
            cfg: fio,
            rng: rng::stream_indexed(self.w.cfg.seed, "fio", compute as u64),
        };
        for k in 0..fio.depth {
            let io = next_fio_io(&mut state, compute, &self.w.cfg);
            // Ramp the initial window over ~20us per I/O: real fio opens
            // its queue depth over many submission syscalls, not in one
            // zero-width burst.
            let at = start + SimDuration::from_nanos(k as u64 * 20_000);
            let ev = Event::guest(compute, io, true);
            self.w.net.q.schedule_at(at, ev);
        }
        self.computes[compute].fio = Some(state);
    }

    /// Attach an open-loop probe driver to a compute server: one I/O per
    /// `interval` (jittered ±50% from the probe's own RNG stream),
    /// spread across the server's virtual disks. Unlike fio, the rate is
    /// load-independent — the fleet-scale stand-in for thousands of
    /// lightly-loaded VMs whose hung-I/O detectors fire on a schedule.
    /// It runs until [`Testbed::schedule_stop_probes`] stops it.
    pub fn attach_probe(
        &mut self,
        start: SimTime,
        compute: usize,
        interval: SimDuration,
        bytes: u32,
        read_fraction: f64,
    ) {
        let mut rng = rng::stream_indexed(self.w.cfg.seed, "probe", compute as u64);
        let first = start + interval.mul_f64(rng.gen::<f64>());
        self.computes[compute].probe = Some(ProbeState {
            interval,
            bytes,
            read_fraction,
            rng,
        });
        self.w
            .net
            .q
            .schedule_at(first, Event::ProbeTick { compute });
    }

    /// Open-loop probe driver tick: issue one I/O and rearm.
    pub(crate) fn probe_tick(&mut self, now: SimTime, compute: usize) {
        let c = &mut self.computes[compute];
        let Some(p) = c.probe.as_mut() else {
            return;
        };
        // Disk, then kind, then offset (fio draws in another order).
        let vd_blocks = self.w.cfg.vd_segments * ebs_sa::SEGMENT_BLOCKS;
        let blocks = u64::from((p.bytes / BLOCK_SIZE).max(1));
        let max_start = vd_blocks.saturating_sub(blocks).max(1);
        let io = IoRequest {
            vd_id: pick_disk(&mut p.rng, compute, &self.w.cfg),
            kind: pick_kind(&mut p.rng, p.read_fraction),
            offset: p.rng.gen_range(0..max_start) * BLOCK_SIZE as u64,
            len: p.bytes,
        };
        let next = now + p.interval.mul_f64(0.5 + p.rng.gen::<f64>());
        self.w.net.q.schedule_at(next, Event::ProbeTick { compute });
        c.guest_io(now, io, false, &mut self.w);
    }

    /// Turn on cross-shard replication: every storage server issues one
    /// replication RPC per `interval` (jittered) toward a uniformly
    /// random storage server in a uniformly random *other* shard,
    /// leaving through the gateway. The sharded executor carries the
    /// RPCs between shards; requires `TestbedConfig::gateway`. It runs
    /// until [`Testbed::schedule_stop_replication`] stops it.
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
            self.w.net.gateway.is_some(),
            "remote replication needs `TestbedConfig::gateway`"
        );
        let mut rng = rng::stream_indexed(self.w.cfg.seed, "remote", shard as u64);
        for storage in 0..self.storages.len() {
            let first = start + interval.mul_f64(rng.gen::<f64>());
            self.w.net.q.schedule_at(first, Event::ReplTick { storage });
        }
        self.remote = Some(Box::new(RemoteState {
            shard,
            n_shards,
            peer_storages,
            blocks,
            interval,
            rng,
            next_rpc_id: 1,
            stopped: false,
            next_seq: 0,
            outbox: Vec::new(),
            issued: 0,
            served: 0,
            completed: 0,
            rtt_ns_sum: 0,
        }));
    }

    /// Cross-shard replication tick on a storage server: issue one
    /// replication RPC toward a peer shard and rearm.
    pub(crate) fn repl_tick(&mut self, now: SimTime, storage: usize) {
        let Some(r) = self.remote.as_deref_mut().filter(|r| !r.stopped) else {
            return;
        };
        let mut send = None;
        if r.n_shards > 1 && r.peer_storages > 0 {
            // Uniform pick over the *other* shards.
            let mut dst_shard = r.rng.gen_range(0..r.n_shards - 1);
            if dst_shard >= r.shard {
                dst_shard += 1;
            }
            send = Some(RemoteMsg {
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
            });
            r.next_rpc_id += 1;
            r.issued += 1;
        }
        let next = now + r.interval.mul_f64(0.5 + r.rng.gen::<f64>());
        let net = &mut self.w.net;
        net.q.schedule_at(next, Event::ReplTick { storage });
        if let (Some(msg), Some(gdev)) = (send, net.gateway) {
            let sdev = net.storage_dev(storage as u32);
            net.send(now, msg.packet(sdev, gdev, 40_000 + msg.salt(), 9100));
        }
    }

    pub(crate) fn stop_replication(&mut self) {
        if let Some(r) = self.remote.as_deref_mut() {
            r.stopped = true;
        }
    }

    /// A packet reached the shard boundary: stamp it with the departure
    /// time and the next outbox sequence, then park it for the executor's
    /// window-edge exchange.
    pub(crate) fn gateway_rx(&mut self, now: SimTime, mut m: RemoteMsg) {
        if let Some(r) = self.remote.as_deref_mut() {
            m.depart = now;
            m.seq = r.next_seq;
            r.next_seq += 1;
            r.outbox.push(m);
        }
    }

    /// A replication leg reached storage server `storage`: a response
    /// completes the round trip at its issuer; a request is served as a
    /// replica write on the local backend, then acknowledged toward the
    /// issuing shard through the gateway.
    pub(crate) fn remote_rx(&mut self, now: SimTime, storage: usize, m: RemoteMsg) {
        if m.is_resp {
            if let Some(r) = self.remote.as_deref_mut() {
                r.completed += 1;
                r.rtt_ns_sum += now.saturating_since(m.issued).as_nanos();
            }
            return;
        }
        let net = &mut self.w.net;
        // Replication only ever enters a shard through its gateway.
        let Some(gdev) = net.gateway else { return };
        let blocks = m.blocks.max(1) as usize;
        let (done, _bd) = self.storages[storage].backend.write(now, blocks);
        if let Some(r) = self.remote.as_deref_mut() {
            r.served += 1;
        }
        let resp = RemoteMsg { is_resp: true, ..m };
        let sdev = net.storage_dev(storage as u32);
        let ack = resp.packet(sdev, gdev, 9102, 42_000 + resp.salt());
        let at = done + self.w.server_stack_latency;
        self.w.reply_at(at, storage, Reply::Packet(ack));
    }

    /// Drain the messages that reached the gateway since the last call,
    /// in arrival order (each stamped with a dense `seq`). Called by the
    /// sharded executor at every window edge.
    pub(crate) fn take_remote_outbox(&mut self) -> Vec<RemoteMsg> {
        self.remote
            .as_deref_mut()
            .map_or_else(Vec::new, |r| std::mem::take(&mut r.outbox))
    }

    /// Inject a message from another shard: it materializes at this
    /// shard's gateway at `at` and rides the local fabric to its target
    /// storage server. `at` must be ≥ the local clock (the executor's
    /// window invariant guarantees this).
    pub(crate) fn inject_remote(&mut self, at: SimTime, msg: RemoteMsg) {
        let net = &mut self.w.net;
        let Some(gdev) = net.gateway else { return };
        let target = if msg.is_resp {
            msg.src_storage
        } else {
            msg.dst_storage
        };
        if target as usize >= self.storages.len() {
            return;
        }
        let pkt = msg.packet(gdev, net.storage_dev(target), 9101, 41_000 + msg.salt());
        let ev = net.fabric.arrive_event(gdev, pkt);
        net.q.schedule_at(at, Event::Net(ev));
    }

    /// Cross-shard replication counters:
    /// `(issued, served, completed, rtt_ns_sum)`.
    pub fn replication_stats(&self) -> (u64, u64, u64, u64) {
        self.remote.as_deref().map_or((0, 0, 0, 0), |r| {
            (r.issued, r.served, r.completed, r.rtt_ns_sum)
        })
    }
}
