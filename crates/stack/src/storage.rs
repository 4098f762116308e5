//! Storage-server host: one block server's backend (BN replication +
//! SSD) behind one map of per-compute [`ServerConn`]s.

use std::collections::BTreeMap;

use ebs_sim::SimTime;
use ebs_storage::StorageServer;
use ebs_wire::RpcFrame;

use crate::conn::{Ends, Rx, ServerConn};
use crate::net::{pump_keys, walk, Packet};
use crate::testbed::{min_opt, Event, World};

/// A reply the storage backend finished preparing
/// ([`Event::StorageDone`]).
#[derive(Debug)]
pub(crate) enum Reply {
    /// Response frame to queue on the connection to `compute` (TCP and
    /// RDMA); the pump then segments and sends it.
    Frame { compute: u32, frame: RpcFrame },
    /// A ready-made packet that leaves as is: SOLAR responses, pushdown
    /// results, cross-shard replication acks.
    Packet(Packet),
}

pub(crate) struct StorageNode {
    id: usize,
    pub backend: StorageServer,
    // BTreeMap: the pump iterates the connections, and iteration order
    // must be deterministic for bit-identical replays.
    pub conns: BTreeMap<u32, ServerConn>,
    timer_at: Option<SimTime>,
}

impl StorageNode {
    pub(crate) fn new(id: usize, backend: StorageServer) -> Self {
        StorageNode {
            id,
            backend,
            conns: BTreeMap::new(),
            timer_at: None,
        }
    }

    /// A transport packet from `compute` arrived: feed the connection,
    /// start the backend work for every request it completes, and
    /// schedule each reply for when that work (plus the storage-side
    /// stack crossings) is done.
    pub(crate) fn rx(&mut self, now: SimTime, compute: u32, rx: Rx, w: &mut World) {
        let conn = self.conns.entry(compute).or_insert_with(|| {
            let ends = Ends {
                local: w.net.storage_dev(self.id as u32),
                peer: w.net.compute_dev(compute),
                compute,
                storage: self.id as u32,
            };
            ServerConn::accept(&w.cfg, ends)
        });
        let (backend, storage) = (&mut self.backend, self.id);
        let pump = conn.rx(now, rx, |req| {
            let at = match req.work {
                None => now,
                Some(work) => {
                    debug_assert_eq!(
                        work.vd_id / w.cfg.vds_per_compute.max(1),
                        u64::from(compute),
                        "request names a disk of another compute server"
                    );
                    let (done, bd) = if work.write {
                        backend.write(now, work.blocks)
                    } else {
                        backend.read(now, work.blocks)
                    };
                    w.merge_breakdown(compute, work.rpc_id, bd);
                    done + w.server_stack_latency
                }
            };
            let reply = Box::new(req.reply);
            w.net
                .q
                .schedule_at(at, Event::StorageDone { storage, reply });
        });
        if pump {
            self.pump(now, Some(&[compute]), w);
        }
    }

    /// The backend finished: emit the reply.
    pub(crate) fn done(&mut self, now: SimTime, reply: Reply, w: &mut World) {
        match reply {
            Reply::Frame { compute, frame } => {
                if let Some(conn) = self.conns.get_mut(&compute) {
                    conn.respond(&frame);
                }
                self.pump(now, Some(&[compute]), w);
            }
            Reply::Packet(pkt) => w.net.send(now, pkt),
        }
    }

    pub(crate) fn on_timer(&mut self, now: SimTime, w: &mut World) {
        self.timer_at = None;
        for conn in self.conns.values_mut() {
            conn.on_timer(now);
        }
        self.pump(now, None, w);
    }

    /// Send whatever the connections `keys` names (all for `None`) have
    /// ready, in connection order, then (re)arm the host timer for their
    /// earliest engine deadline; [`pump_keys`] decides when a pump must
    /// walk every connection anyway.
    fn pump(&mut self, now: SimTime, keys: Option<&[u32]>, w: &mut World) {
        let prof_t0 = w.prof.is_some().then(crate::wallclock::now);
        let poll_timer = ServerConn::poll_timer;
        let keys = pump_keys(&self.conns, keys, self.timer_at, now, poll_timer);
        let mut min_timer = None;
        for conn in walk(&mut self.conns, keys) {
            while let Some(pkt) = conn.poll_tx(now) {
                w.net.send(now, pkt);
            }
            min_timer = min_opt(min_timer, conn.poll_timer());
        }
        if let Some(t) = min_timer {
            let ev = Event::StorageTimer { storage: self.id };
            w.net.arm(&mut self.timer_at, t, now, ev);
        }
        if let (Some(t0), Some(p)) = (prof_t0, w.prof.as_deref_mut()) {
            p.pump_ns += t0.elapsed().as_nanos() as u64;
        }
    }
}
