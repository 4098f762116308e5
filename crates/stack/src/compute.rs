//! Compute-server host: guest I/O → QoS → SA → PCIe → one
//! [`ClientConn`] per block server, and the completion path back.

use std::collections::BTreeMap;

use ebs_dpu::{DataPath, DpuCpu, DpuPcie};
use ebs_sa::{split_io, IoKind, IoRequest, QosTable, SegmentTable, SubIo, BLOCK_SIZE};
use ebs_sim::{FxHashMap, SimDuration, SimTime};
use ebs_storage::StorageBreakdown;

use crate::calibrate::SolarCosts;
use crate::conn::{ClientConn, Done, Ends, Host, Rpc, Rx};
use crate::drivers::{next_fio_io, FioState, ProbeState};
use crate::net::{pump_keys, walk};
use crate::testbed::blk::BlkState;
use crate::testbed::{min_opt, Event, TestbedConfig, Variant, World, NO_STORAGE};
use crate::trace::IoTrace;

#[derive(Debug)]
struct PendingIo {
    trace_idx: usize,
    /// The disk the guest addressed (every sub-I/O's RPC names it).
    vd_id: u64,
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

pub(crate) struct ComputeNode {
    pub id: usize,
    pub cpu: DpuCpu,
    pub pcie: DpuPcie,
    /// PCIe traversal profile of the variant (Fig. 10).
    path: DataPath,
    pub seg_table: SegmentTable,
    pub qos: QosTable,
    // BTreeMap: the pump iterates the connections, and iteration order
    // must be deterministic for bit-identical replays.
    pub conns: BTreeMap<u32, ClientConn>,
    pending: FxHashMap<u64, PendingIo>,
    rpc_to_io: FxHashMap<u64, (u64, u32)>,
    next_io_id: u64,
    next_rpc_id: u64,
    pub fio: Option<FioState>,
    pub probe: Option<ProbeState>,
    timer_at: Option<SimTime>,
    /// RPCs whose completion cost is charged but whose I/O bookkeeping
    /// has not run yet: every charge of a drain precedes every finish.
    finished: Vec<Done>,
    /// The connections `sa_done` submitted to, for its targeted pump.
    touched: Vec<u32>,
    pub completed_ios: u64,
    pub completed_bytes: u64,
}

impl ComputeNode {
    /// Server `id`, its disks provisioned round-robin over
    /// the storage servers and registered with the configured QoS spec.
    pub(crate) fn new(id: usize, cfg: &TestbedConfig) -> Self {
        let mut seg_table = SegmentTable::new(ebs_sa::SEGMENT_BLOCKS);
        let mut qos = QosTable::new();
        let n_storage = cfg.n_storage as u64;
        let vds = cfg.vds_per_compute.max(1);
        for v in 0..vds {
            let vd = id as u64 * vds + v;
            seg_table.provision(vd, cfg.vd_segments * ebs_sa::SEGMENT_BLOCKS, |seg| {
                ((seg + id as u64 + v) % n_storage) as u32
            });
            qos.set_spec(vd, cfg.qos);
        }
        ComputeNode {
            id,
            cpu: DpuCpu::new(cfg.compute_cores),
            pcie: DpuPcie::new(cfg.pcie),
            path: cfg.variant.pcie_path(),
            seg_table,
            qos,
            conns: BTreeMap::new(),
            pending: FxHashMap::default(),
            rpc_to_io: FxHashMap::default(),
            next_io_id: 1,
            next_rpc_id: 1,
            fio: None,
            probe: None,
            timer_at: None,
            finished: Vec::new(),
            touched: Vec::new(),
            completed_ios: 0,
            completed_bytes: 0,
        }
    }

    /// I/Os submitted but not yet completed.
    pub(crate) fn outstanding(&self) -> usize {
        self.pending.len()
    }

    // --- guest I/O entry -------------------------------------------------

    /// A guest submits `io`: admit it through QoS, split it per segment,
    /// charge the SA and — for writes — the PCIe crossing of the payload,
    /// and schedule the hand-off to the transport. Returns the I/O id.
    pub(crate) fn guest_io(
        &mut self,
        now: SimTime,
        io: IoRequest,
        from_fio: bool,
        w: &mut World,
    ) -> u64 {
        let io_id = self.next_io_id;
        self.next_io_id += 1;
        let qos_delay = self.qos.admit(now, io.vd_id, io.len as usize);
        let start = now + qos_delay;

        let subs = match split_io(&self.seg_table, &io, BLOCK_SIZE) {
            Ok(s) => s,
            Err(e) => panic!("workload generated invalid I/O: {e}"),
        };
        let blocks = (io.len / BLOCK_SIZE) as usize;

        // SA processing: CPU work (+ pipeline for SOLAR) + PCIe crossings.
        // For the software SA, light-load latency exceeds the pure CPU
        // work (VM exits, notification waits); under saturation the CPU
        // queue dominates. Take the max of the two.
        let sa_fin = if !w.cfg.sa_enabled {
            // Bare-RPC benchmarking mode (Table 1): skip the SA data
            // plane, keep only a token submission cost.
            self.cpu.run(start, SimDuration::from_nanos(200))
        } else {
            let solar_rpcs = w.solar_costs.cpu_per_rpc.saturating_mul(subs.len() as u64);
            match w.cfg.variant {
                Variant::Kernel | Variant::Luna | Variant::Rdma => self
                    .cpu
                    .run(start, w.sa_costs.cpu_for(blocks))
                    .max(start + w.sa_costs.latency_per_io),
                Variant::SolarStar => {
                    let extra = SolarCosts::star_extra_per_block().saturating_mul(blocks as u64);
                    self.cpu.run(start, solar_rpcs + extra) + w.solar_costs.pipeline
                }
                Variant::Solar => self.cpu.run(start, solar_rpcs) + w.solar_costs.pipeline,
            }
        };
        // Data crossings: writes move the payload before transmission.
        let ready = if io.kind == IoKind::Write {
            self.pcie.transfer_block(sa_fin, self.path, io.len as usize)
        } else {
            sa_fin
        };

        let trace_idx = w.traces.len();
        // arg encodes `bytes << 1 | is_write` (journal args are plain
        // u64s; the consumers in `diag` decode this).
        w.journal.instant(
            now,
            crate::diag::IO_TRACK,
            "submit",
            trace_idx as u64,
            ((io.len as u64) << 1) | u64::from(io.kind == IoKind::Write),
        );
        w.traces.push(IoTrace {
            compute: self.id,
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
        self.pending.insert(
            io_id,
            PendingIo {
                trace_idx,
                vd_id: io.vd_id,
                subs_total: subs.len(),
                subs_done: 0,
                sa_ready: ready,
                max_storage: NO_STORAGE,
                done_at: SimTime::ZERO,
                completion_sa: SimDuration::ZERO,
                from_fio,
                subs,
            },
        );
        let compute = self.id;
        w.net.q.schedule_at(ready, Event::SaDone { compute, io_id });
        io_id
    }

    // --- transport submit ------------------------------------------------

    /// SA processing finished: one RPC per sub-I/O, each on the
    /// connection to the block server that owns its segment.
    pub(crate) fn sa_done(&mut self, now: SimTime, io_id: u64, w: &mut World) {
        let pending = self.pending.get_mut(&io_id).expect("pending io");
        let subs = std::mem::take(&mut pending.subs);
        let kind = w.traces[pending.trace_idx].kind;
        let vd_id = pending.vd_id;
        let compute = self.id;
        let mut touched = std::mem::take(&mut self.touched);

        for sub in &subs {
            let rpc_id = self.next_rpc_id;
            self.next_rpc_id += 1;
            self.rpc_to_io
                .insert(rpc_id, (io_id, sub.blocks.len() as u32));
            let storage = sub.block_server;
            let conn = self.conns.entry(storage).or_insert_with(|| {
                let ends = Ends {
                    local: w.net.compute_dev(compute as u32),
                    peer: w.net.storage_dev(storage),
                    compute: compute as u32,
                    storage,
                };
                ClientConn::open(&w.cfg, ends)
            });
            let rpc = Rpc {
                rpc_id,
                vd_id,
                kind,
                sub,
            };
            // The frame transports' crossing end arms the host timer; the
            // request itself leaves with the pump below.
            if let Some(at) = conn.submit(now, &mut self.cpu, &rpc) {
                let ev = Event::ComputeTimer { compute };
                w.net.arm(&mut self.timer_at, at, now, ev);
            }
            touched.push(storage);
        }
        self.pump(now, Some(&touched), w);
        touched.clear();
        self.touched = touched;
    }

    // --- delivery from the fabric ----------------------------------------

    /// A transport packet from `storage` arrived.
    pub(crate) fn rx(
        &mut self,
        now: SimTime,
        storage: u32,
        rx: Rx,
        w: &mut World,
        blk: Option<&mut BlkState>,
    ) {
        if let Some(conn) = self.conns.get_mut(&storage) {
            conn.rx(now, rx, &mut self.pcie, self.path);
        }
        let keys = Some(&[storage][..]);
        self.drain_completions(now, keys, w, blk);
        self.pump(now, keys, w);
    }

    pub(crate) fn on_timer(&mut self, now: SimTime, w: &mut World, blk: Option<&mut BlkState>) {
        self.timer_at = None;
        for conn in self.conns.values_mut() {
            conn.on_timer(now);
        }
        self.drain_completions(now, None, w, blk);
        self.pump(now, None, w);
    }

    // --- completion plumbing ---------------------------------------------

    /// Collect every finished RPC from the connections `keys` names (all
    /// for `None`; in connection order, charging each one's
    /// completion-side host work as it is polled), then run the I/O
    /// bookkeeping for each. The two phases must not interleave:
    /// finishing an I/O can itself charge the CPU (the client-placement
    /// pushdown scan). Only a connection's own `rx` or `on_timer` queues
    /// completions, so the others have none to give.
    fn drain_completions(
        &mut self,
        now: SimTime,
        keys: Option<&[u32]>,
        w: &mut World,
        mut blk: Option<&mut BlkState>,
    ) {
        let mut host = Host {
            cpu: &mut self.cpu,
            pcie: &mut self.pcie,
            path: self.path,
            journal: &mut w.journal,
            rpc_to_io: &self.rpc_to_io,
        };
        for conn in walk(&mut self.conns, keys) {
            while let Some(done) = conn.poll_done(now, &mut host) {
                self.finished.push(done);
            }
        }
        for i in 0..self.finished.len() {
            let done = self.finished[i];
            self.finish_rpc(done, w, blk.as_deref_mut());
        }
        self.finished.clear();
    }

    fn finish_rpc(&mut self, done: Done, w: &mut World, blk: Option<&mut BlkState>) {
        let compute = self.id;
        let Some((io_id, _blocks)) = self.rpc_to_io.remove(&done.rpc_id) else {
            return;
        };
        let bd = w
            .breakdowns
            .remove(&(compute as u32, done.rpc_id))
            .unwrap_or(NO_STORAGE);
        let Some(p) = self.pending.get_mut(&io_id) else {
            return;
        };
        p.subs_done += 1;
        p.done_at = p.done_at.max(done.at);
        p.completion_sa = p.completion_sa.max(done.sa);
        p.max_storage.bn = p.max_storage.bn.max(bd.bn);
        p.max_storage.ssd = p.max_storage.ssd.max(bd.ssd);
        if p.subs_done < p.subs_total {
            return;
        }
        let p = self.pending.remove(&io_id).expect("present");
        let trace = &mut w.traces[p.trace_idx];
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
        // Tile the I/O's interval with its component spans, in the same
        // attribution order the stacked bars use (QoS → SA → FN → BN →
        // SSD → completion-side SA). Durations match the IoTrace fields
        // exactly, so `explain_slowest` reads the same split the trace
        // records.
        let id = p.trace_idx as u64;
        let name = match trace.kind {
            IoKind::Write => "write",
            IoKind::Read => "read",
        };
        let start = trace.submitted + trace.qos_delay;
        if trace.qos_delay > SimDuration::ZERO {
            w.journal.span("sa.qos", name, id, trace.submitted, start);
        }
        w.journal.span("sa", name, id, start, p.sa_ready);
        let t1 = p.sa_ready + trace.fn_;
        let t2 = t1 + trace.bn;
        let t3 = t2 + trace.ssd;
        w.journal.span("fn", name, id, p.sa_ready, t1);
        w.journal.span("bn", name, id, t1, t2);
        w.journal.span("ssd", name, id, t2, t3);
        if p.done_at > t3 {
            // Completion-side SA work (SOLAR's doorbell path).
            w.journal.span("sa", name, id, t3, p.done_at);
        }
        w.journal
            .span(crate::diag::IO_TRACK, name, id, start, p.done_at);
        self.completed_ios += 1;
        self.completed_bytes += trace.bytes as u64;
        // Closed loop: only fio-originated completions resubmit, so
        // externally scheduled probe I/Os don't inflate the depth.
        if p.from_fio {
            if let Some(fio) = &mut self.fio {
                let io = next_fio_io(fio, compute, &w.cfg);
                let ev = Event::guest(compute, io, true);
                w.net.q.schedule_at(p.done_at, ev);
            }
        }
        // If the block frontend issued this I/O, complete its ring
        // descriptor too.
        if let Some(blk) = blk {
            blk.on_guest_io_done(compute, io_id, p.done_at, &mut self.cpu, &mut w.journal);
        }
    }

    // --- pumping -----------------------------------------------------------

    /// Send whatever the connections `keys` names (all for `None`) have
    /// ready, in connection order, then (re)arm the host timer for their
    /// earliest engine deadline; [`pump_keys`] decides when a pump must
    /// walk every connection anyway.
    fn pump(&mut self, now: SimTime, keys: Option<&[u32]>, w: &mut World) {
        let prof_t0 = w.prof.is_some().then(crate::wallclock::now);
        let poll_timer = ClientConn::poll_timer;
        let keys = pump_keys(&self.conns, keys, self.timer_at, now, poll_timer);
        let mut min_timer = None;
        for conn in walk(&mut self.conns, keys) {
            while let Some(pkt) = conn.poll_tx(now) {
                w.net.send(now, pkt);
            }
            min_timer = min_opt(min_timer, conn.poll_timer());
        }
        if let Some(t) = min_timer {
            let ev = Event::ComputeTimer { compute: self.id };
            w.net.arm(&mut self.timer_at, t, now, ev);
        }
        if let (Some(t0), Some(p)) = (prof_t0, w.prof.as_deref_mut()) {
            p.pump_ns += t0.elapsed().as_nanos() as u64;
        }
    }
}
