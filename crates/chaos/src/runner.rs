//! Drive one [`Schedule`] through a fresh [`ShardedTestbed`] and
//! evaluate the invariant oracles at quiesce.
//!
//! There is one runner. The flat testbed is its one-shard case: a
//! one-shard fleet *is* the template [`Testbed`] (same config, same seed,
//! no window barrier), so [`run_schedule`] is [`run_schedule_sharded`]
//! with one shard and `crates/chaos/tests/flat_golden.rs` pins its
//! outcomes to the ones the former flat runner body produced.
//!
//! The runner is deterministic end to end: shard 0 is seeded with the
//! schedule's seed, fault events translate to testbed events at fixed
//! instants, the workload detaches at the horizon, and the sim drains
//! until `Schedule::quiesce_at`. Everything the caller might want to
//! compare across replays (verdicts, metrics snapshot, schedule JSON) is
//! captured as canonical strings.

use bytes::Bytes;
use ebs_crc::{block_crc_raw, SegmentChecker, SegmentVerdict};
use ebs_dpu::{BitFlipInjector, CrcStage, PacketCtx, Pipeline, Stage};
use ebs_net::DeviceId;
use ebs_sa::{IoKind, IoRequest, QosSpec};
use ebs_sim::{rng, SimDuration, SimTime};
use ebs_stack::blk::{BlkReq, Predicate, StorageFn};
use ebs_stack::{
    BlkCounters, BlkMountConfig, FioConfig, ShardedTestbed, ShardedTestbedConfig, Testbed,
    TestbedConfig, Variant,
};
use ebs_wire::{EbsHeader, EbsOp};
use rand::Rng;

use crate::oracle::{check_traces, conserve, Violation};
use crate::schedule::{throttle_spec, DeviceTier, FaultKind, Schedule};

/// Routing convergence used for a reboot ([`FaultKind::Fabric`] with
/// `reboot` set): link-down is announced, so the fabric reroutes in tens
/// of milliseconds (§4.5's fast case), unlike a silent fail-stop.
const REBOOT_CONVERGENCE: SimDuration = SimDuration::from_millis(50);

/// Blocks per segment in the bit-flip campaign's aggregation check (the
/// §4.7 CRC granule; small enough that a handful of flips land in
/// distinct segments).
const CAMPAIGN_SEGMENT_BLOCKS: usize = 8;

/// Everything one chaos run produced. Two runs of the same schedule are
/// byte-identical across every field (the replay tests assert this).
#[derive(Debug)]
pub struct ChaosOutcome {
    /// The generating seed.
    pub seed: u64,
    /// I/Os submitted (guest + fio) over the run.
    pub submitted: u64,
    /// I/Os completed by quiesce.
    pub completed: u64,
    /// Corrupted segments planted by the bit-flip campaign.
    pub corrupt_planted: u64,
    /// Corrupted segments the CRC aggregation check caught.
    pub corrupt_caught: u64,
    /// Invariant breaches (empty = the run certified recovery).
    pub violations: Vec<Violation>,
    /// Blk-frontend counters at quiesce (shard 0 hosts the frontend),
    /// when the schedule armed the pushdown envelope; `None` otherwise.
    pub blk: Option<BlkCounters>,
    /// The replay-comparable metrics string: the canonical obs metrics
    /// snapshot for a one-shard run, the fleet digest for a multi-shard one.
    pub metrics_json: String,
    /// Chrome trace of the run (every shard's journal, in shard order),
    /// captured only for violating runs (it is large).
    pub trace_json: Option<String>,
    /// `explain_slowest`-style hop diagnosis of the slowest I/O in any
    /// shard, captured for violating runs.
    pub diagnosis: Option<String>,
}

impl ChaosOutcome {
    /// True when every oracle held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Canonical JSON rendering of the verdicts (replay-comparable).
    pub fn verdicts_json(&self) -> String {
        let mut s = format!(
            "{{\"seed\":{},\"submitted\":{},\"completed\":{},\"corrupt_planted\":{},\"corrupt_caught\":{},",
            self.seed, self.submitted, self.completed, self.corrupt_planted, self.corrupt_caught
        );
        if let Some(b) = &self.blk {
            s.push_str(&format!(
                "\"blk\":{{\"accepted\":{},\"completed\":{},\"rejected\":{},\"parts_sent\":{},\"retransmits\":{},\"dup_responses\":{},\"crc_failures\":{},\"data_bytes\":{}}},",
                b.accepted,
                b.completed,
                b.rejected,
                b.parts_sent,
                b.retransmits,
                b.dup_responses,
                b.crc_failures,
                b.data_bytes
            ));
        }
        s.push_str("\"violations\":[");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&v.to_json());
        }
        s.push_str("]}");
        s
    }
}

/// Copy the schedule's congestion-control knobs onto the testbed config.
/// Plain config transfer — nothing here draws randomness, so schedules
/// generated before these knobs existed replay byte-identically.
fn apply_cc_knobs(cfg: &mut TestbedConfig, schedule: &Schedule) {
    cfg.solar.cc = schedule.cc;
    cfg.ecn.enabled = schedule.ecn;
    cfg.rdma.dcqcn = cfg.variant == Variant::Rdma && schedule.ecn;
}

/// Translate one adversarial [`ebs_workload::IoEvent`] into the guest
/// I/O the testbed runners schedule. `compute` is the index the event
/// was resolved onto (shard-local under the fleet engine), which is
/// also the virtual disk the testbed provisioned for it.
fn adversarial_req(e: &ebs_workload::IoEvent, compute: usize) -> IoRequest {
    IoRequest {
        vd_id: compute as u64,
        kind: if e.write { IoKind::Write } else { IoKind::Read },
        offset: e.offset,
        len: e.bytes,
    }
}

/// The adversarial event stream for the schedule's incast envelope:
/// N:1 incast plus staggered microbursts, both deterministic pure-data
/// generators (no RNG draw anywhere).
fn incast_events(schedule: &Schedule) -> Vec<ebs_workload::IoEvent> {
    let Some(inc) = &schedule.incast else {
        return Vec::new();
    };
    let adv = ebs_workload::AdversarialConfig {
        n_compute: schedule.n_compute.max(1) as u32,
        duration_us: inc.duration.as_nanos() / 1000,
    };
    let mut evs = ebs_workload::adversarial::incast(&adv);
    evs.extend(ebs_workload::adversarial::microburst(&adv));
    evs
}

/// Mount the pushdown-enabled blk frontend on shard 0's compute 0 and
/// spread the envelope's filtered range scans evenly from `start` across
/// the workload window. Pure config transfer plus arithmetic — no RNG draw, so arming
/// the envelope shifts no other randomness.
fn inject_blk(tb: &mut Testbed, schedule: &Schedule, start: SimTime) {
    let Some(b) = &schedule.blk else {
        return;
    };
    if schedule.n_compute == 0 {
        return;
    }
    tb.blk_mount(0, BlkMountConfig::with_placement(b.placement))
        .expect("the default feature set always negotiates");
    // A mildly selective predicate (~1/16 of blocks pass) so remote
    // placements return a small but non-empty payload per part.
    let func = StorageFn::scan(Predicate {
        offset: 0,
        mask: 0x0F,
        value: 0x07,
    });
    let span_ns = schedule
        .horizon
        .as_nanos()
        .saturating_sub(SimDuration::from_millis(1).as_nanos());
    let n = b.requests.max(1);
    let step = SimDuration::from_nanos(span_ns / u64::from(n));
    // Stride the ranges across segments so consecutive requests land on
    // different block servers (vd 0 interleaves its segment mapping) and
    // some ranges straddle a segment boundary (multi-part responses).
    let blocks = b.blocks.max(1);
    let window = 8 * ebs_sa::SEGMENT_BLOCKS;
    let stride = ebs_sa::SEGMENT_BLOCKS / 2 + u64::from(blocks);
    for i in 0..n {
        let first = (u64::from(i) * stride) % window;
        tb.schedule_blk(
            start + step * u64::from(i),
            0,
            (i % 2) as usize,
            BlkReq::pushdown(0, first, blocks, func),
        );
    }
}

/// Blk-frontend oracles at quiesce: the descriptor ring conserved its
/// slots (free + held + pending == capacity, nothing stuck in flight)
/// and every accepted request completed — remote placements must have
/// recovered from any loss via the RTO retransmit path. Returns the
/// counters for the outcome when the envelope was armed.
fn blk_oracles(
    tb: &Testbed,
    schedule: &Schedule,
    violations: &mut Vec<Violation>,
) -> Option<BlkCounters> {
    schedule.blk.as_ref()?;
    let c = tb.blk_counters();
    conserve(
        "blk accepted == blk completed",
        c.accepted,
        c.completed,
        violations,
    );
    conserve(
        "blk ring conservation errors",
        0,
        tb.blk_ring_errors().len() as u64,
        violations,
    );
    let (free, cap, held) = tb.blk_ring_slots();
    conserve("blk ring descriptors held at quiesce", 0, held, violations);
    conserve("blk ring free == capacity", cap, free, violations);
    Some(c)
}

/// The fabric device a tier fault lands on: shard `device_index %
/// n_shards`, resolved within that shard's fabric (`None` when the shard
/// has no device of that tier).
fn tier_target(
    fleet: &mut ShardedTestbed,
    tier: DeviceTier,
    device_index: usize,
) -> Option<(&mut Testbed, DeviceId)> {
    let n = fleet.shards();
    let tb = fleet.shard_mut(device_index % n);
    let kind = match tier {
        DeviceTier::Tor => ebs_net::DeviceKind::Tor,
        DeviceTier::Spine => ebs_net::DeviceKind::Spine,
    };
    let devices = tb.fabric().topology().devices_of_kind(kind);
    let dev = *devices.get((device_index / n) % devices.len().max(1))?;
    Some((tb, dev))
}

/// Map a flat server index onto the shard that owns it: `(shard, local
/// index)`. The global index wraps modulo the fleet total.
fn locate(counts: &[usize], global: usize) -> (usize, usize) {
    let total: usize = counts.iter().sum();
    let mut g = global % total.max(1);
    for (s, &c) in counts.iter().enumerate() {
        if g < c {
            return (s, g);
        }
        g -= c;
    }
    (0, 0)
}

/// Run `schedule` to quiesce on the flat testbed and evaluate every
/// oracle: the one-shard, one-thread case of [`run_schedule_sharded`].
/// Deterministic: equal schedules produce byte-identical outcomes.
pub fn run_schedule(schedule: &Schedule) -> ChaosOutcome {
    run_schedule_sharded(schedule, 1, 1)
}

/// Run `schedule` to quiesce on a fleet of `n_shards` pod-group shards
/// under the window barrier with `threads` workers, and evaluate every
/// oracle. The mapping from the flat schedule to the fleet is fixed —
/// tier faults land in shard `device_index % n_shards` (resolved within
/// that shard's fabric), compute/storage-indexed faults and incast
/// traffic map their global index onto the owning shard's local slot,
/// fio attaches to every compute of every shard, and the blk pushdown
/// envelope mounts on shard 0. Cross-shard replication stays off so the
/// quiescence oracle keeps its meaning (no open-loop background
/// traffic). Per-I/O oracles run per shard; conserved quantities are
/// summed across shards.
///
/// Deterministic for any `threads` value: the replay tests assert the
/// verdicts and the fleet digest are byte-identical across thread
/// counts.
pub fn run_schedule_sharded(schedule: &Schedule, n_shards: u32, threads: usize) -> ChaosOutcome {
    let mut cfg = ShardedTestbedConfig::new(
        schedule.variant,
        schedule.n_compute,
        schedule.n_storage,
        n_shards,
    );
    cfg.base.seed = schedule.seed;
    cfg.threads = threads;
    apply_cc_knobs(&mut cfg.base, schedule);
    let mut fleet = ShardedTestbed::new(cfg);
    let n = fleet.shards();
    let t0 = SimTime::ZERO;

    let computes: Vec<usize> = (0..n).map(|s| fleet.shard(s).config().n_compute).collect();
    let storages: Vec<usize> = (0..n).map(|s| fleet.shard(s).config().n_storage).collect();

    // Workload: incast/microburst traffic, blk pushdown scans and fio all
    // start at the same 1 ms mark.
    let start = t0 + SimDuration::from_millis(1);
    for e in incast_events(schedule) {
        let (s, local) = locate(&computes, e.compute as usize);
        fleet.shard_mut(s).schedule_io(
            start + SimDuration::from_micros(e.at_us),
            local,
            adversarial_req(&e, local),
        );
    }
    inject_blk(fleet.shard_mut(0), schedule, start);
    for (s, &n_compute) in computes.iter().enumerate() {
        for compute in 0..n_compute {
            fleet.shard_mut(s).attach_fio(
                start,
                compute,
                FioConfig {
                    depth: schedule.fio_depth,
                    bytes: schedule.io_bytes,
                    read_fraction: schedule.read_fraction,
                },
            );
        }
    }

    let mut violations = Vec::new();
    let mut corrupt_planted = 0u64;
    let mut corrupt_caught = 0u64;
    for (i, f) in schedule.faults.iter().enumerate() {
        let at = t0 + f.at;
        let heal_at = at + f.heal_after;
        match &f.kind {
            FaultKind::Fabric {
                tier,
                device_index,
                mode,
                reboot,
            } => {
                if let Some((tb, dev)) = tier_target(&mut fleet, *tier, *device_index) {
                    if *reboot {
                        tb.schedule_failure_with(at, dev, *mode, REBOOT_CONVERGENCE);
                    } else {
                        tb.schedule_failure(at, dev, *mode);
                    }
                    tb.schedule_heal(heal_at, dev);
                }
            }
            FaultKind::QosThrottle {
                compute,
                iops,
                mbps,
            } => {
                let (s, local) = locate(&computes, *compute);
                let tb = fleet.shard_mut(s);
                tb.schedule_qos(at, local, throttle_spec(*iops, *mbps));
                tb.schedule_qos(heal_at, local, QosSpec::unlimited());
            }
            FaultKind::StorageSlowdown { storage, factor } => {
                let (s, local) = locate(&storages, *storage);
                let tb = fleet.shard_mut(s);
                tb.schedule_storage_degrade(at, local, *factor);
                tb.schedule_storage_degrade(heal_at, local, 1.0);
            }
            FaultKind::PcieStall { compute, extra } => {
                let (s, local) = locate(&computes, *compute);
                let tb = fleet.shard_mut(s);
                tb.schedule_pcie_stall(at, local, *extra);
                tb.schedule_pcie_stall(heal_at, local, SimDuration::ZERO);
            }
            FaultKind::BitFlip { rate, blocks } => {
                // Side campaign: bit flips perturb *data*, not timing, so
                // they run against the CRC pipeline directly (exactly the
                // §4.7 data path) without disturbing the testbed's clock.
                let (planted, caught) =
                    bit_flip_campaign(schedule.seed, i as u64, *rate, *blocks, &mut violations);
                corrupt_planted += planted;
                corrupt_caught += caught;
            }
        }
    }

    for s in 0..n {
        fleet.shard_mut(s).schedule_stop_fio(t0 + schedule.horizon);
    }
    fleet.run_until(t0 + schedule.quiesce_at());

    // --- oracles (per shard where per-I/O, summed where conserved) -------
    let last_heal = t0 + schedule.last_heal();
    let mut submitted = 0u64;
    let mut completed = 0u64;
    let mut admitted = 0u64;
    let mut outstanding = 0u64;
    let mut queue_len = 0u64;
    let mut journal_dropped = 0u64;
    let mut submits = 0u64;
    let mut io_spans = 0u64;
    let mut max_q = 0u64;
    for (s, &n_compute) in computes.iter().enumerate() {
        let tb = fleet.shard(s);
        check_traces(
            tb.traces(),
            last_heal,
            schedule.recovery_deadline,
            &mut violations,
        );
        submitted += tb.traces().len() as u64;
        completed += tb.traces().iter().filter(|t| t.completed.is_some()).count() as u64;
        admitted += (0..n_compute).map(|c| tb.qos_stats(c).0).sum::<u64>();
        outstanding += tb.outstanding_ios() as u64;
        queue_len += tb.queue_len() as u64;
        journal_dropped += tb.journal().dropped();
        for ev in tb.journal().events() {
            if ev.track != ebs_stack::diag::IO_TRACK {
                continue;
            }
            match ev.kind {
                ebs_obs::EventKind::Instant { name: "submit", .. } => submits += 1,
                ebs_obs::EventKind::Span { .. } => io_spans += 1,
                _ => {}
            }
        }
        max_q = max_q.max(tb.fabric().max_queue_bytes() as u64);
    }
    conserve(
        "qos_admitted == traces",
        submitted,
        admitted,
        &mut violations,
    );
    conserve(
        "completed counters == completed traces",
        completed,
        fleet.total_progress().0,
        &mut violations,
    );
    conserve(
        "outstanding == submitted - completed",
        submitted - completed,
        outstanding,
        &mut violations,
    );
    if journal_dropped == 0 {
        conserve(
            "journal submits == traces",
            submitted,
            submits,
            &mut violations,
        );
        conserve(
            "journal io spans == completed traces",
            completed,
            io_spans,
            &mut violations,
        );
    }

    // Each shard has its own event queue idling at quiesce, so the
    // idle-queue bound scales with the shard count.
    let limit = schedule.max_idle_queue as u64 * n as u64;
    if outstanding > 0 || queue_len > limit {
        violations.push(Violation::NotQuiescent {
            outstanding,
            queue_len,
            limit,
        });
    }

    // CC oracles, armed only under the incast envelope: bounded queue
    // occupancy (the worst egress queue across every shard's fabric) and
    // no livelock.
    if let Some(inc) = &schedule.incast {
        if max_q > inc.max_queue_bytes as u64 {
            violations.push(Violation::QueueBound {
                max_queue_bytes: max_q,
                limit: inc.max_queue_bytes as u64,
            });
        }
        if submitted > 0 && completed == 0 {
            violations.push(Violation::Livelock {
                submitted,
                completed,
            });
        }
    }

    let blk = blk_oracles(fleet.shard(0), schedule, &mut violations);

    // The replay-comparable metrics string: the lone shard's obs snapshot
    // for the flat testbed; for a real fleet, the fleet digest (per-shard
    // digests at the committed window edge plus the exchange totals).
    let metrics_json = if n == 1 {
        let tb = fleet.shard_mut(0);
        tb.sample_obs();
        ebs_obs::metrics_snapshot(tb.metrics())
    } else {
        fleet.metrics_digest()
    };
    let (trace_json, diagnosis) = if !violations.is_empty() {
        // I/O ids are per shard, so the slowest I/O is explained from its
        // own shard's journal (ties: the lowest shard wins).
        let slowest = (0..n)
            .filter_map(|s| fleet.shard(s).explain_slowest_io())
            .reduce(|a, b| if b.total > a.total { b } else { a });
        (
            Some(ebs_obs::chrome_trace(&fleet.merged_journal())),
            slowest.map(|e| e.render()),
        )
    } else {
        (None, None)
    };

    ChaosOutcome {
        seed: schedule.seed,
        submitted,
        completed,
        corrupt_planted,
        corrupt_caught,
        violations,
        blk,
        metrics_json,
        trace_json,
        diagnosis,
    }
}

fn campaign_header(addr: u64, segment_id: u64) -> EbsHeader {
    EbsHeader {
        version: EbsHeader::VERSION,
        op: EbsOp::WriteBlock,
        flags: 0,
        path_id: 0,
        vd_id: 0,
        rpc_id: addr,
        pkt_id: addr as u16,
        total_pkts: CAMPAIGN_SEGMENT_BLOCKS as u16,
        block_addr: addr,
        len: ebs_sa::BLOCK_SIZE,
        payload_crc: 0,
        path_seq: 0,
        segment_id,
    }
}

/// Push `blocks` deterministic blocks through the DPU CRC stage with a
/// flip injector, then run the receiver-side segment aggregation check.
/// Flips are forced into the CRC register (as in the scripted §4.7
/// experiment) so ground truth is exact: a segment is corrupted iff some
/// block's claimed CRC disagrees with a clean recomputation. Returns
/// (planted, caught) corrupted-segment counts and records any mismatch
/// between ground truth and the checker's verdict.
fn bit_flip_campaign(
    seed: u64,
    fault_index: u64,
    rate: f64,
    blocks: usize,
    out: &mut Vec<Violation>,
) -> (u64, u64) {
    let block_size = ebs_sa::BLOCK_SIZE as usize;
    let mut data_rng = rng::stream_indexed(seed, "chaos-bitflip-data", fault_index);
    let mut injector =
        BitFlipInjector::new(seed ^ fault_index.wrapping_mul(0x9E37_79B9_7F4A_7C15), rate);
    injector.crc_register_share = 1.0;
    let mut pipeline = Pipeline::new(vec![
        Box::new(CrcStage::new(block_size, Some(injector))) as Box<dyn Stage>
    ]);

    let mut planted = 0u64;
    let mut caught = 0u64;
    let mut checker = SegmentChecker::new(block_size);
    let mut segment_corrupt = false;
    let mut segment = 0u64;
    for addr in 0..blocks as u64 {
        let mut block = vec![0u8; block_size];
        data_rng.fill(&mut block[..]);
        let mut ctx = PacketCtx::new(campaign_header(addr, segment), Bytes::from(block.clone()));
        if pipeline.process(SimTime::ZERO, &mut ctx).is_none() {
            // The CRC stage never drops packets; treat a drop as a lost
            // block, which the conservation oracle frames best.
            out.push(Violation::Conservation {
                counter: "crc pipeline forwarded blocks",
                expected: blocks as u64,
                got: addr,
            });
            return (planted, caught);
        }
        if ctx.hdr.payload_crc != block_crc_raw(&block, block_size) {
            segment_corrupt = true;
        }
        checker.add_block(&block, ctx.hdr.payload_crc);
        let last_in_segment = addr % CAMPAIGN_SEGMENT_BLOCKS as u64
            == CAMPAIGN_SEGMENT_BLOCKS as u64 - 1
            || addr == blocks as u64 - 1;
        if last_in_segment {
            let verdict = checker.verify_and_reset();
            match (segment_corrupt, verdict) {
                (true, SegmentVerdict::Ok) => {
                    planted += 1;
                    out.push(Violation::UndetectedCorruption { segment });
                }
                (true, SegmentVerdict::Corrupt) => {
                    planted += 1;
                    caught += 1;
                }
                (false, SegmentVerdict::Corrupt) => {
                    out.push(Violation::CrcFalsePositive { segment });
                }
                (false, SegmentVerdict::Ok) => {}
            }
            segment_corrupt = false;
            segment += 1;
        }
    }
    (planted, caught)
}
