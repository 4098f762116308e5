//! End-to-end tests of the block frontend mounted on the testbed: ring
//! flow over the SA data path, the pushdown placement matrix and its
//! bytes-moved claim, CRC rejection, and feature gating.

use ebs_sim::SimTime;
use ebs_stack::blk::{BlkReq, Predicate, PushdownPlacement, StorageFn};
use ebs_stack::{BlkMountConfig, Testbed, TestbedConfig, Variant};
use ebs_wire::{
    BLK_F_DISCARD, BLK_F_MQ, BLK_F_PUSHDOWN, BLK_F_SEG_MAX, BLK_S_BADCRC, BLK_S_IOERR, BLK_S_OK,
    BLK_S_UNSUPP,
};

fn testbed() -> Testbed {
    Testbed::new(TestbedConfig::small(Variant::Solar, 2, 3))
}

/// A ~1/16-selective predicate over byte 0 of each block.
fn selective() -> Predicate {
    Predicate {
        offset: 0,
        mask: 0x0F,
        value: 0x07,
    }
}

fn run(tb: &mut Testbed) {
    tb.run_until(SimTime::from_secs(2));
}

#[test]
fn ring_requests_ride_the_sa_path_end_to_end() {
    let mut tb = testbed();
    tb.blk_mount(0, BlkMountConfig::with_placement(PushdownPlacement::Client))
        .expect("negotiation");
    let t0 = SimTime::from_millis(1);
    tb.schedule_blk(t0, 0, 0, BlkReq::read(0, 0, 8));
    tb.schedule_blk(t0, 0, 1, BlkReq::write(0, 64, 8));
    tb.schedule_blk(t0, 0, 0, BlkReq::flush(0));
    tb.schedule_blk(t0, 0, 1, BlkReq::discard(0, 128, 16));
    run(&mut tb);

    let c = tb.blk_counters();
    assert_eq!(c.accepted, 4);
    assert_eq!(c.completed, 4);
    assert_eq!(c.rejected, 0);
    assert_eq!(c.unsupported, 0);
    let traces = tb.blk_traces();
    assert_eq!(traces.len(), 4);
    for t in traces {
        assert_eq!(t.status, BLK_S_OK, "{}", t.label);
        assert!(t.completed.expect("completed") > t.submitted, "{}", t.label);
    }
    // The read and write went through the normal guest-I/O machinery:
    // they appear in the IoTrace stream too (flush/discard do not).
    assert_eq!(tb.traces().len(), 2);
    assert!(tb.traces().iter().all(|t| t.completed.is_some()));
    // Ring slots conserved, nothing held by the device at quiesce.
    assert!(tb.blk_ring_errors().is_empty());
    let (free, cap, held) = tb.blk_ring_slots();
    assert_eq!(held, 0);
    assert_eq!(free, cap);
}

/// A request outside its disk — ending past the end, starting past it, or
/// naming a disk another compute holds — completes `BLK_S_IOERR` with
/// nothing transferred, and the ring stays whole.
#[test]
fn requests_outside_the_disk_complete_ioerr() {
    let mut tb = testbed();
    tb.blk_mount(
        0,
        BlkMountConfig::with_placement(PushdownPlacement::StorageNode),
    )
    .expect("negotiation");
    let disk = tb.config().vd_segments * ebs_sa::SEGMENT_BLOCKS;
    let t0 = SimTime::from_millis(1);
    tb.schedule_blk(t0, 0, 0, BlkReq::read(0, disk - 7, 8));
    let scan = StorageFn::scan(selective());
    tb.schedule_blk(t0, 0, 1, BlkReq::pushdown(0, disk, 16, scan));
    tb.schedule_blk(t0, 0, 0, BlkReq::write(1, 0, 8)); // compute 1's disk
    run(&mut tb);

    let c = tb.blk_counters();
    assert_eq!(c.accepted, 3);
    assert_eq!(c.completed, c.accepted);
    for t in tb.blk_traces() {
        assert_eq!(t.status, BLK_S_IOERR, "{}", t.label);
        assert_eq!(t.blocks_out, 0, "{}", t.label);
        assert!(t.completed.is_some(), "{}", t.label);
    }
    assert!(tb.traces().is_empty(), "nothing reached the SA path");
    assert!(tb.blk_ring_errors().is_empty());
    let (free, cap, held) = tb.blk_ring_slots();
    assert_eq!(held, 0);
    assert_eq!(free, cap);
}

#[test]
fn ring_full_rejects_and_conserves() {
    let mut tb = testbed();
    tb.blk_mount(
        0,
        BlkMountConfig {
            num_queues: 1,
            queue_depth: 4,
            features: ebs_wire::BLK_KNOWN_FEATURES,
            placement: PushdownPlacement::Client,
        },
    )
    .expect("negotiation");
    // 6 submissions into a depth-4 queue at the same instant: two bounce.
    let t0 = SimTime::from_millis(1);
    for i in 0..6 {
        tb.schedule_blk(t0, 0, 0, BlkReq::read(0, i * 8, 4));
    }
    run(&mut tb);
    let c = tb.blk_counters();
    assert_eq!(c.accepted, 4);
    assert_eq!(c.rejected, 2);
    assert_eq!(c.completed, 4);
    assert!(tb.blk_ring_errors().is_empty());
}

/// The tentpole claim: a filtered range scan executed at the storage node
/// or on its DPU moves measurably fewer bytes across the fabric than the
/// client-side baseline, and all three placements agree on the result.
#[test]
fn pushdown_placements_agree_and_save_bytes() {
    let scan = StorageFn::scan(selective());
    let mut results = Vec::new();
    for placement in [
        PushdownPlacement::Client,
        PushdownPlacement::StorageNode,
        PushdownPlacement::Dpu,
    ] {
        let mut tb = testbed();
        tb.blk_mount(0, BlkMountConfig::with_placement(placement))
            .expect("negotiation");
        tb.schedule_blk(
            SimTime::from_millis(1),
            0,
            0,
            BlkReq::pushdown(0, 0, 256, scan),
        );
        run(&mut tb);
        let c = tb.blk_counters();
        assert_eq!(c.accepted, 1, "{placement:?}");
        assert_eq!(c.completed, 1, "{placement:?}");
        assert_eq!(c.crc_failures, 0, "{placement:?}");
        assert!(tb.fabric_bytes() > 0, "{placement:?}");
        let t = tb.blk_traces()[0];
        assert_eq!(t.status, BLK_S_OK, "{placement:?}");
        assert!(t.completed.is_some(), "{placement:?}");
        results.push((placement, t.blocks_out, c.data_bytes));
        if placement == PushdownPlacement::Dpu {
            let (reqs, cycles, saved) = tb.blk_dpu_stats();
            assert_eq!(reqs, 1);
            assert!(cycles > 0);
            assert!(saved > 0, "filtered scan must save PCIe/fabric bytes");
        }
    }
    let out: Vec<u32> = results.iter().map(|r| r.1).collect();
    assert_eq!(out[0], out[1], "placements must agree on the result");
    assert_eq!(out[1], out[2], "placements must agree on the result");
    assert!(
        out[0] > 0 && out[0] < 256,
        "predicate should be selective but non-empty: {} of 256",
        out[0]
    );
    let client = results[0].2;
    let storage = results[1].2;
    let dpu = results[2].2;
    // The baseline hauls all 256 blocks; pushdown hauls the matched
    // blocks only.
    assert_eq!(client, 256 * 4096, "baseline hauls the whole range");
    assert_eq!(storage, u64::from(out[1]) * 4096);
    assert!(
        storage * 2 < client,
        "storage placement must move <half the bytes: {storage} vs {client}"
    );
    assert!(
        dpu * 2 < client,
        "dpu placement must move <half the bytes: {dpu} vs {client}"
    );
}

#[test]
fn pushdown_splits_across_block_servers_and_reassembles() {
    let mut tb = testbed();
    tb.blk_mount(
        0,
        BlkMountConfig::with_placement(PushdownPlacement::StorageNode),
    )
    .expect("negotiation");
    // A range straddling a segment boundary fans out to two block
    // servers; the XOR-aggregated part CRCs must still verify.
    let seg = ebs_sa::SEGMENT_BLOCKS;
    tb.schedule_blk(
        SimTime::from_millis(1),
        0,
        0,
        BlkReq::pushdown(0, seg - 32, 64, StorageFn::scan(selective())),
    );
    run(&mut tb);
    let c = tb.blk_counters();
    assert_eq!(c.parts_sent, 2, "range straddles one segment boundary");
    assert_eq!(c.completed, 1);
    assert_eq!(c.crc_failures, 0);
    assert_eq!(tb.blk_traces()[0].status, BLK_S_OK);
}

#[test]
fn merge_and_verify_functions_complete_at_every_placement() {
    for placement in [
        PushdownPlacement::Client,
        PushdownPlacement::StorageNode,
        PushdownPlacement::Dpu,
    ] {
        for func in [StorageFn::checksum_verify(), StorageFn::merge(8)] {
            let mut tb = testbed();
            tb.blk_mount(0, BlkMountConfig::with_placement(placement))
                .expect("negotiation");
            tb.schedule_blk(
                SimTime::from_millis(1),
                0,
                0,
                BlkReq::pushdown(0, 0, 64, func),
            );
            run(&mut tb);
            let t = tb.blk_traces()[0];
            assert_eq!(t.status, BLK_S_OK, "{placement:?} {:?}", func.op);
            assert!(t.completed.is_some(), "{placement:?} {:?}", func.op);
        }
    }
}

/// The integrity argument, negative direction: a planted bit-flip in a
/// pushdown response's aggregate CRC must be rejected, never silently
/// accepted (Fig. 11's lesson applied to transformed data).
#[test]
fn corrupted_pushdown_response_fails_crc() {
    let mut tb = testbed();
    tb.blk_mount(
        0,
        BlkMountConfig::with_placement(PushdownPlacement::StorageNode),
    )
    .expect("negotiation");
    tb.blk_corrupt_next_response();
    tb.schedule_blk(
        SimTime::from_millis(1),
        0,
        0,
        BlkReq::pushdown(0, 0, 32, StorageFn::scan(selective())),
    );
    run(&mut tb);
    let c = tb.blk_counters();
    assert_eq!(c.crc_failures, 1);
    assert_eq!(c.completed, 1, "rejected requests still complete");
    let t = tb.blk_traces()[0];
    assert_eq!(t.status, BLK_S_BADCRC);
    assert_eq!(t.blocks_out, 0, "no result delivered on CRC failure");
}

#[test]
fn unnegotiated_features_complete_unsupported() {
    let mut tb = testbed();
    // Driver acks neither FLUSH, DISCARD, nor PUSHDOWN.
    tb.blk_mount(
        0,
        BlkMountConfig {
            num_queues: 2,
            queue_depth: 16,
            features: BLK_F_MQ | BLK_F_SEG_MAX,
            placement: PushdownPlacement::StorageNode,
        },
    )
    .expect("negotiation");
    let t0 = SimTime::from_millis(1);
    tb.schedule_blk(t0, 0, 0, BlkReq::flush(0));
    tb.schedule_blk(t0, 0, 0, BlkReq::discard(0, 0, 8));
    tb.schedule_blk(
        t0,
        0,
        0,
        BlkReq::pushdown(0, 0, 8, StorageFn::checksum_verify()),
    );
    tb.schedule_blk(t0, 0, 0, BlkReq::read(0, 0, 4));
    run(&mut tb);
    let c = tb.blk_counters();
    assert_eq!(c.unsupported, 3);
    assert_eq!(c.completed, 4, "reads still work");
    let statuses: Vec<u8> = tb.blk_traces().iter().map(|t| t.status).collect();
    assert_eq!(statuses.iter().filter(|&&s| s == BLK_S_UNSUPP).count(), 3);
    assert_eq!(statuses.iter().filter(|&&s| s == BLK_S_OK).count(), 1);
    // And zero pushdown frames ever hit the fabric.
    assert_eq!(c.parts_sent, 0);
}

#[test]
fn dpu_placement_requires_its_feature_bit() {
    let mut tb = testbed();
    tb.blk_mount(
        0,
        BlkMountConfig {
            num_queues: 1,
            queue_depth: 16,
            // PUSHDOWN negotiated, but not PUSHDOWN_DPU.
            features: BLK_F_MQ | BLK_F_FLUSHLESS_SET | BLK_F_PUSHDOWN,
            placement: PushdownPlacement::Dpu,
        },
    )
    .expect("negotiation");
    tb.schedule_blk(
        SimTime::from_millis(1),
        0,
        0,
        BlkReq::pushdown(0, 0, 8, StorageFn::checksum_verify()),
    );
    run(&mut tb);
    assert_eq!(tb.blk_counters().unsupported, 1);
    assert_eq!(tb.blk_traces()[0].status, BLK_S_UNSUPP);
}

/// A convenience alias used above: the non-pushdown optional bits.
const BLK_F_FLUSHLESS_SET: u64 = BLK_F_SEG_MAX | BLK_F_DISCARD;

#[test]
fn digest_gains_a_blk_section_only_when_mounted() {
    let mut tb = testbed();
    tb.schedule_io(
        SimTime::from_millis(1),
        0,
        ebs_sa::IoRequest {
            vd_id: 0,
            kind: ebs_sa::IoKind::Read,
            offset: 0,
            len: 4096,
        },
    );
    run(&mut tb);
    let plain = tb.metrics_digest(SimTime::from_secs(2));
    assert!(
        !plain.contains(" blk="),
        "unmounted runs keep legacy digests: {plain}"
    );

    let mut tb = testbed();
    tb.blk_mount(0, BlkMountConfig::with_placement(PushdownPlacement::Client))
        .expect("negotiation");
    tb.schedule_blk(SimTime::from_millis(1), 0, 0, BlkReq::read(0, 0, 4));
    run(&mut tb);
    let with_blk = tb.metrics_digest(SimTime::from_secs(2));
    assert!(with_blk.contains(" blk=1/1/0/0"), "{with_blk}");
    assert!(with_blk.contains("fabric_bytes="), "{with_blk}");
}

#[test]
fn pushdown_runs_are_deterministic() {
    let digest = || {
        let mut tb = testbed();
        tb.blk_mount(0, BlkMountConfig::with_placement(PushdownPlacement::Dpu))
            .expect("negotiation");
        for i in 0..4 {
            tb.schedule_blk(
                SimTime::from_millis(1 + i),
                0,
                i as usize % 2,
                BlkReq::pushdown(0, i * 128, 64, StorageFn::scan(selective())),
            );
        }
        run(&mut tb);
        tb.metrics_digest(SimTime::from_secs(2))
    };
    assert_eq!(digest(), digest());
}
