//! Storage-server host: one block server's backend (BN replication +
//! SSD) behind one table of per-compute [`ServerConn`]s.

use ebs_sim::SimTime;
use ebs_storage::StorageServer;
use ebs_wire::{Handle, RpcFrame};

use crate::conn::{Ends, Rx, ServerConn};
use crate::net::{pump_keys, walk, ConnTable, Packet};
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
    /// One connection per compute server, indexed by its id: walks go in
    /// ascending id order, so replays stay bit-identical.
    pub conns: ConnTable<ServerConn>,
    timer_at: Option<SimTime>,
}

impl StorageNode {
    pub(crate) fn new(id: usize, backend: StorageServer) -> Self {
        StorageNode {
            id,
            backend,
            conns: ConnTable::new(),
            timer_at: None,
        }
    }

    /// A transport packet from `compute` arrived: feed the connection,
    /// start the backend work for every request it completes, and
    /// schedule each reply for when that work (plus the storage-side
    /// stack crossings) is done.
    pub(crate) fn rx(&mut self, now: SimTime, compute: u32, rx: Rx, w: &mut World) {
        let conn = self.conns.get_or_insert_with(compute, || {
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
            w.reply_at(at, storage, req.reply);
        });
        if pump {
            self.pump(now, Some(&[compute]), w);
        }
    }

    /// The backend finished: emit the reply parked under `reply`.
    pub(crate) fn done(&mut self, now: SimTime, reply: Handle, w: &mut World) {
        // Cannot fire: only the one `StorageDone` that `World::reply_at`
        // scheduled holds this handle, and the queue pops each event once
        // (`tests` below check every cell takes each reply exactly once).
        // Skipping a missing reply would lose an I/O silently.
        let reply = w.replies.take(reply).expect("storage reply taken twice");
        match reply {
            Reply::Frame { compute, frame } => {
                if let Some(conn) = self.conns.get_mut(compute) {
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

#[cfg(test)]
mod tests {
    use ebs_sim::{SimDuration, SimTime};

    use crate::blk::{BlkReq, Predicate, PushdownPlacement, StorageFn};
    use crate::testbed::Testbed;
    use crate::{
        BlkMountConfig, FioConfig, ReplicationConfig, ShardedTestbed, ShardedTestbedConfig,
        TestbedConfig, Variant,
    };

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    /// The earliest pending event time of `tb` at or before `end`.
    fn next_at(tb: &mut Testbed, end: SimTime) -> Option<SimTime> {
        tb.w.net.q.peek_time().filter(|&t| t <= end)
    }

    /// Run a flat testbed to quiescence at `end`, one timestamp at a
    /// time, then check that every reply was taken and that the slab
    /// never held more slots than replies were parked at once.
    fn check_flat(mut tb: Testbed, end: SimTime) {
        let mut peak = 0;
        while let Some(t) = next_at(&mut tb, end) {
            tb.run_until(t);
            peak = peak.max(tb.w.replies.len());
        }
        let slots = tb.w.replies.slots();
        assert!(peak > 0, "the cell must reach a storage server");
        assert!(
            slots <= peak,
            "{slots} slots for at most {peak} parked replies"
        );
        assert!(tb.w.replies.is_empty(), "quiesced with replies parked");
    }

    fn fio(tb: &mut Testbed, depth: usize, bytes: u32) {
        for c in 0..tb.config().n_compute {
            let cfg = FioConfig {
                depth,
                bytes,
                read_fraction: 0.5,
            };
            tb.attach_fio(ms(1), c, cfg);
        }
    }

    #[test]
    fn flat_cells_take_every_parked_reply_once() {
        for variant in [
            Variant::Kernel,
            Variant::Luna,
            Variant::Rdma,
            Variant::SolarStar,
            Variant::Solar,
        ] {
            let mut tb = Testbed::new(TestbedConfig::small(variant, 3, 3));
            fio(&mut tb, 4, 16384);
            tb.schedule_stop_fio(ms(6));
            check_flat(tb, ms(20));
        }
    }

    #[test]
    fn blk_pushdown_cell_takes_every_parked_reply_once() {
        let mut tb = Testbed::new(TestbedConfig::small(Variant::Solar, 2, 3));
        let mount = BlkMountConfig::with_placement(PushdownPlacement::StorageNode);
        tb.blk_mount(0, mount).expect("negotiation");
        let scan = StorageFn::scan(Predicate {
            offset: 0,
            mask: 0x0F,
            value: 0x07,
        });
        tb.schedule_blk(ms(1), 0, 0, BlkReq::write(0, 16, 8));
        tb.schedule_blk(ms(1), 0, 1, BlkReq::pushdown(0, 0, 256, scan));
        tb.schedule_blk(ms(2), 0, 0, BlkReq::read(0, 16, 8));
        check_flat(tb, ms(50));
    }

    /// A replicated two-shard fleet under fio and probes, every driver
    /// stopped at 5 ms, drains to quiescence with every reply taken.
    #[test]
    fn replicated_fleet_takes_every_parked_reply_once() {
        let mut cfg = ShardedTestbedConfig::new(Variant::Solar, 8, 8, 2);
        cfg.base.vds_per_compute = 2;
        cfg.replication = Some(ReplicationConfig {
            start: ms(1),
            interval: SimDuration::from_micros(200),
            blocks: 4,
        });
        let mut fleet = ShardedTestbed::new(cfg);
        for s in 0..fleet.shards() {
            let tb = fleet.shard_mut(s);
            for c in 0..tb.config().n_compute {
                tb.attach_probe(ms(1), c, SimDuration::from_micros(300), 4096, 0.5);
            }
            fio(tb, 2, 8192);
            tb.schedule_stop_fio(ms(5));
            tb.schedule_stop_probes(ms(5));
            tb.schedule_stop_replication(ms(5));
        }
        let end = ms(50);
        let mut peak = vec![0; fleet.shards()];
        loop {
            let next = (0..fleet.shards())
                .filter_map(|s| next_at(fleet.shard_mut(s), end))
                .min();
            let Some(t) = next else { break };
            fleet.run_until(t);
            for (s, p) in peak.iter_mut().enumerate() {
                *p = (*p).max(fleet.shard(s).w.replies.len());
            }
        }
        let (issued, served, completed, _) = fleet.replication_totals();
        assert!(served > 0, "replication round trips");
        assert_eq!(completed, issued, "every replication RPC completes");
        for (s, &peak) in peak.iter().enumerate() {
            let tb = fleet.shard_mut(s);
            assert!(tb.w.net.q.peek_time().is_none(), "shard {s} never quiesced");
            let slots = tb.w.replies.slots();
            assert!(peak > 0, "shard {s} must reach a storage server");
            assert!(slots <= peak, "shard {s}: {slots} slots, peak {peak}");
            assert!(
                tb.w.replies.is_empty(),
                "shard {s} quiesced with replies parked"
            );
        }
    }
}
