//! Criterion micro-benchmarks of the hot paths: CRC, cipher, wire codecs,
//! the transport engines and the FPGA pipeline. These justify the
//! calibration constants (e.g. per-block CRC cost) with measured numbers
//! on the host running the reproduction.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ebs_sim::SimTime;

fn bench_crc(c: &mut Criterion) {
    let mut g = c.benchmark_group("crc32");
    let block = vec![0xA5u8; 4096];
    g.throughput(Throughput::Bytes(4096));
    g.bench_function("ieee_4k_block", |b| {
        b.iter(|| ebs_crc::crc32(std::hint::black_box(&block)))
    });
    g.bench_function("raw_4k_block", |b| {
        b.iter(|| ebs_crc::crc32_raw(std::hint::black_box(&block)))
    });
    g.bench_function("segment_aggregate_8_blocks", |b| {
        let crc = ebs_crc::block_crc_raw(&block, 4096);
        b.iter(|| {
            let mut chk = ebs_crc::SegmentChecker::new(4096);
            for _ in 0..8 {
                chk.add_block(&block, crc);
            }
            chk.verify_and_reset()
        })
    });
    g.finish();
}

/// The ISSUE-2 kernel shoot-out: slice-by-8 (the seed's engine), the
/// portable slice-by-16 fallback, and the runtime-dispatched hardware
/// kernels (PCLMULQDQ folding for IEEE, SSE4.2 `crc32` for Castagnoli)
/// — all over the canonical 4 KiB block.
fn bench_crc_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("crc32_4k");
    let block = vec![0xA5u8; 4096];
    g.throughput(Throughput::Bytes(4096));
    let ieee = ebs_crc::Crc32::ieee();
    let ieee_portable = ebs_crc::Crc32::ieee().force_portable();
    g.bench_function("ieee_slice8", |b| {
        b.iter(|| {
            let s = ieee_portable.start();
            let s = ieee_portable.update_slice8(s, std::hint::black_box(&block));
            ieee_portable.finish(s)
        })
    });
    g.bench_function("ieee_slice16", |b| {
        b.iter(|| ieee_portable.checksum(std::hint::black_box(&block)))
    });
    g.bench_function(format!("ieee_dispatch_{}", ieee.kernel_name()), |b| {
        b.iter(|| ieee.checksum(std::hint::black_box(&block)))
    });
    let c32c = ebs_crc::Crc32::castagnoli();
    g.bench_function(format!("crc32c_dispatch_{}", c32c.kernel_name()), |b| {
        b.iter(|| c32c.checksum(std::hint::black_box(&block)))
    });
    g.finish();
}

/// Steady-state packet payload churn: grab a 4 KiB buffer, fill it,
/// freeze it into `Bytes`, drop the handle — the pool recycles the block
/// so the loop is allocation-free, versus the seed's `vec![] → Bytes`
/// which hits the global allocator every iteration.
fn bench_block_pool(c: &mut Criterion) {
    let mut g = c.benchmark_group("block_pool_churn");
    g.throughput(Throughput::Bytes(4096));
    let pool = ebs_wire::BlockPool::new(4096, 64);
    g.bench_function("pooled_take_freeze_drop", |b| {
        b.iter(|| {
            let mut buf = pool.take();
            buf.resize(4096, 0x5A);
            let bytes: Bytes = buf.freeze().into_bytes();
            std::hint::black_box(bytes.len())
        })
    });
    g.bench_function("vec_alloc_freeze_drop", |b| {
        b.iter(|| {
            let bytes = Bytes::from(vec![0x5Au8; 4096]);
            std::hint::black_box(bytes.len())
        })
    });
    g.finish();
}

/// The SEC layer's trajectory: the dispatched ChaCha20 kernel over the
/// canonical 4 KiB block, and the SEC stage's buffer handling — copy the
/// payload into a pooled block and cipher it in place, versus ciphering
/// from the payload into the block in one sweep. Which kernel is dispatched
/// is the host CPU's business (it is named in the label); the comparison
/// of every kernel and the pre-dispatch scalar on one host is `cargo test
/// --release -p ebs-crypto -- --ignored --nocapture kernel_throughput`.
fn bench_crypto(c: &mut Criterion) {
    let mut g = c.benchmark_group("sec");
    g.throughput(Throughput::Bytes(4096));
    let eng = ebs_crypto::SecEngine::new([7; 32]);
    let mut data = vec![0u8; 4096];
    g.bench_function(format!("chacha20_4k_block/{}", eng.kernel_name()), |b| {
        b.iter(|| eng.encrypt_block(1, 2, std::hint::black_box(&mut data)))
    });
    let pool = ebs_wire::BlockPool::new(4096, 64);
    let payload = Bytes::from(vec![0x5Au8; 4096]);
    g.bench_function("sec_stage_4k/copy_then_xor", |b| {
        b.iter(|| {
            let mut buf = pool.take_copy(std::hint::black_box(&payload));
            eng.encrypt_block(1, 2, &mut buf);
            buf.freeze().into_bytes()
        })
    });
    g.bench_function("sec_stage_4k/single_sweep", |b| {
        b.iter(|| {
            let src = std::hint::black_box(&payload);
            let buf = pool.take_with(src.len(), |dst| eng.encrypt_block_into(1, 2, src, dst));
            buf.freeze().into_bytes()
        })
    });
    g.finish();
}

fn bench_wire(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire");
    let hdr = ebs_wire::EbsHeader {
        version: 1,
        op: ebs_wire::EbsOp::WriteBlock,
        flags: 0,
        path_id: 1,
        vd_id: 2,
        rpc_id: 3,
        pkt_id: 4,
        total_pkts: 8,
        block_addr: 5,
        len: 4096,
        payload_crc: 6,
        path_seq: 7,
        segment_id: 8,
    };
    g.bench_function("ebs_header_encode_decode", |b| {
        b.iter(|| {
            let mut buf = bytes::BytesMut::with_capacity(64);
            hdr.encode(&mut buf);
            ebs_wire::EbsHeader::decode(&mut buf.freeze()).unwrap()
        })
    });
    g.finish();
}

fn bench_tables(c: &mut Criterion) {
    let mut g = c.benchmark_group("sa_tables");
    let mut seg = ebs_sa::SegmentTable::new(512);
    for vd in 0..64 {
        seg.provision(vd, 64 * 512, |s| (s % 16) as u32);
    }
    g.bench_function("segment_lookup", |b| {
        let mut addr = 0u64;
        b.iter(|| {
            addr = (addr + 4097) % (64 * 512);
            seg.lookup(std::hint::black_box(addr % 64), addr).unwrap()
        })
    });
    let mut qos = ebs_sa::QosTable::new();
    for vd in 0..64 {
        qos.set_spec(vd, ebs_sa::QosSpec::unlimited());
    }
    g.bench_function("qos_admit", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            qos.admit(SimTime::from_nanos(i * 100), i % 64, 4096)
        })
    });
    g.finish();
}

fn bench_transports(c: &mut Criterion) {
    let mut g = c.benchmark_group("transport");
    g.bench_function("solar_write_rpc_roundtrip_8_blocks", |b| {
        b.iter(|| {
            let mut client = ebs_solar::SolarClient::new(ebs_solar::SolarConfig::default());
            let mut resp = ebs_solar::SolarResponder::new();
            let blocks = (0..8)
                .map(|i| ebs_solar::WriteBlock {
                    block_addr: i,
                    payload: Bytes::new(),
                    crc: 0,
                })
                .collect();
            client.submit_write(SimTime::ZERO, 1, 1, 1, blocks);
            let now = SimTime::from_micros(10);
            while let Some(out) = client.poll_transmit(SimTime::ZERO) {
                if let ebs_solar::ServerAction::StoreBlock { hdr, int, .. } =
                    resp.on_packet(ebs_solar::InPacket {
                        hdr: out.hdr,
                        payload: out.payload,
                        int: None,
                    })
                {
                    let (ack, _) = resp.write_ack(&hdr, int);
                    client.on_packet(
                        now,
                        ebs_solar::InPacket {
                            hdr: ack.hdr,
                            payload: Bytes::new(),
                            int: None,
                        },
                    );
                }
            }
            client.stats().rpcs_completed
        })
    });
    g.bench_function("tcp_segment_pump_64k", |b| {
        b.iter(|| {
            let mut a = ebs_tcp::TcpEngine::connect(ebs_tcp::TcpConfig::default());
            let mut s = ebs_tcp::TcpEngine::listen(ebs_tcp::TcpConfig::default());
            // Handshake.
            let mut now = SimTime::ZERO;
            for _ in 0..4 {
                while let Some(seg) = a.poll_segment(now) {
                    s.on_segment(now, seg);
                }
                while let Some(seg) = s.poll_segment(now) {
                    a.on_segment(now, seg);
                }
            }
            a.send(Bytes::from(vec![0u8; 65536]));
            for _ in 0..64 {
                now += ebs_sim::SimDuration::from_micros(10);
                while let Some(seg) = a.poll_segment(now) {
                    s.on_segment(now, seg);
                }
                while let Some(seg) = s.poll_segment(now) {
                    a.on_segment(now, seg);
                }
                if a.bytes_in_flight() == 0 && a.pending_bytes() == 0 {
                    break;
                }
            }
            s.stats().bytes_acked
        })
    });
    g.finish();
}

/// LUNA's byte stream end to end: one write RPC from `RpcClient::call`
/// through TCP segmentation, the peer's reassembly and frame decode to
/// `RpcServer::poll_request`, and the empty response back — over a warm
/// connection, so the number is the steady-state host cost per payload
/// byte (no payload byte is copied; see DESIGN.md §7.8).
fn bench_luna_rpc(c: &mut Criterion) {
    let mut g = c.benchmark_group("luna_rpc");
    for (name, len) in [("4k", 4 << 10), ("128k", 128 << 10)] {
        let cfg = ebs_tcp::TcpConfig {
            mss: 8960,
            ..ebs_tcp::TcpConfig::default()
        };
        let mut client = ebs_luna::RpcClient::connect(cfg.clone());
        let mut server = ebs_luna::RpcServer::listen(cfg);
        let payload = Bytes::from(vec![0xA5u8; len]);
        let mut now = SimTime::ZERO;
        let mut rpc_id = 0u64;
        // One RPC to completion (before any request exists this is just
        // the handshake, with nothing to complete).
        let mut roundtrip = |request: Option<ebs_wire::RpcFrame>| {
            if let Some(req) = &request {
                client.call(now, req);
            }
            loop {
                let mut progressed = false;
                while let Some(seg) = client.poll_segment(now) {
                    now += ebs_sim::SimDuration::from_micros(4);
                    server.on_segment(now, seg);
                    progressed = true;
                }
                while let Some(req) = server.poll_request() {
                    server.respond(&ebs_wire::RpcFrame {
                        method: ebs_wire::RpcMethod::WriteResp,
                        len: 0,
                        payload: Bytes::new(),
                        ..req
                    });
                }
                while let Some(seg) = server.poll_segment(now) {
                    now += ebs_sim::SimDuration::from_micros(4);
                    client.on_segment(now, seg);
                    progressed = true;
                }
                if !progressed {
                    break;
                }
            }
            client.poll_completion().map(|done| done.latency)
        };
        roundtrip(None);
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_function(format!("roundtrip/{name}"), |b| {
            b.iter(|| {
                rpc_id += 1;
                roundtrip(Some(ebs_luna::write_request(rpc_id, 1, 0, payload.clone())))
            })
        });
    }
    g.finish();
}

fn bench_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("fpga_pipeline");
    let mut seg = ebs_sa::SegmentTable::new(512);
    seg.provision(1, 4096, |_| 0);
    let mut qos = ebs_sa::QosTable::new();
    qos.set_spec(1, ebs_sa::QosSpec::unlimited());
    let mut pipeline = ebs_dpu::Pipeline::new(vec![
        Box::new(ebs_dpu::QosStage::new(qos)),
        Box::new(ebs_dpu::BlockStage::new(seg)),
        Box::new(ebs_dpu::CrcStage::new(4096, None)),
        Box::new(ebs_dpu::SecStage::encryptor(ebs_crypto::SecEngine::new(
            [1; 32],
        ))),
    ]);
    let hdr = ebs_wire::EbsHeader {
        version: 1,
        op: ebs_wire::EbsOp::WriteBlock,
        flags: 0,
        path_id: 0,
        vd_id: 1,
        rpc_id: 1,
        pkt_id: 0,
        total_pkts: 1,
        block_addr: 7,
        len: 4096,
        payload_crc: 0,
        path_seq: 0,
        segment_id: 0,
    };
    g.throughput(Throughput::Bytes(4096));
    g.bench_function("write_path_4k_block", |b| {
        b.iter(|| {
            let mut ctx = ebs_dpu::PacketCtx::new(hdr, Bytes::from(vec![0x5Au8; 4096]));
            pipeline.process(SimTime::ZERO, &mut ctx)
        })
    });
    g.finish();
}

fn bench_ecmp(c: &mut Criterion) {
    let mut g = c.benchmark_group("fabric");
    let flow = ebs_net::FlowLabel {
        src: ebs_net::DeviceId(1),
        dst: ebs_net::DeviceId(99),
        src_port: 47001,
        dst_port: 9000,
        proto: 17,
    };
    g.bench_function("ecmp_flow_hash", |b| {
        b.iter(|| std::hint::black_box(flow).hash64())
    });
    for paths in [1usize, 4, 8] {
        g.bench_with_input(
            BenchmarkId::new("solar_spray_pick", paths),
            &paths,
            |b, &paths| {
                let mut client = ebs_solar::SolarClient::new(ebs_solar::SolarConfig {
                    n_paths: paths,
                    ..ebs_solar::SolarConfig::default()
                });
                b.iter(|| {
                    client.submit_write(
                        SimTime::ZERO,
                        rand::random::<u64>(),
                        1,
                        1,
                        vec![ebs_solar::WriteBlock {
                            block_addr: 0,
                            payload: Bytes::new(),
                            crc: 0,
                        }],
                    );
                    client.poll_transmit(SimTime::ZERO)
                })
            },
        );
    }
    g.finish();
}

/// The seed's event queue (`BinaryHeap` + `HashSet` tombstones), kept here
/// as the measured baseline for the timer-wheel rework in `ebs-sim`.
mod naive_queue {
    use ebs_sim::SimTime;
    use std::cmp::Ordering;
    use std::collections::{BinaryHeap, HashSet};

    struct Entry<E> {
        at: SimTime,
        seq: u64,
        event: E,
    }
    impl<E> PartialEq for Entry<E> {
        fn eq(&self, o: &Self) -> bool {
            self.at == o.at && self.seq == o.seq
        }
    }
    impl<E> Eq for Entry<E> {}
    impl<E> PartialOrd for Entry<E> {
        fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
            Some(self.cmp(o))
        }
    }
    impl<E> Ord for Entry<E> {
        fn cmp(&self, o: &Self) -> Ordering {
            o.at.cmp(&self.at).then_with(|| o.seq.cmp(&self.seq))
        }
    }

    pub struct NaiveQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        cancelled: HashSet<u64>,
        seq: u64,
        now: SimTime,
    }

    impl<E> NaiveQueue<E> {
        pub fn new() -> Self {
            NaiveQueue {
                heap: BinaryHeap::new(),
                cancelled: HashSet::new(),
                seq: 0,
                now: SimTime::ZERO,
            }
        }
        pub fn now(&self) -> SimTime {
            self.now
        }
        pub fn schedule_at(&mut self, at: SimTime, event: E) -> u64 {
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Entry { at, seq, event });
            seq
        }
        pub fn cancel(&mut self, id: u64) {
            self.cancelled.insert(id);
        }
        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            while let Some(e) = self.heap.pop() {
                if self.cancelled.remove(&e.seq) {
                    continue;
                }
                self.now = e.at;
                return Some((e.at, e.event));
            }
            None
        }
    }
}

/// Deterministic pseudo-random deltas for the queue workload (no RNG state
/// shared between the two queue variants).
fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x >> 33
}

/// The event-queue hot loop of the simulator: a steady-state population of
/// pending events, each pop scheduling a successor; every 4th event gets
/// cancelled and rescheduled (RTO-timer churn). Deltas span same-bucket
/// (sub-µs), in-window (µs-ms) and overflow (>34 ms) horizons in the mix
/// the testbed produces (mostly near-future TxDone/Arrive, some RTOs).
fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue_schedule_pop");
    const POP: usize = 256; // events handled per iteration
    fn delta_ns(r: u64) -> u64 {
        match r % 8 {
            0..=4 => 100 + r % 30_000,       // TxDone/Arrive: sub-bucket .. tens of µs
            5 | 6 => 50_000 + r % 5_000_000, // host timers: µs .. ms, in-window
            _ => 10_000_000 + r % 30_000_000, // RTO-class: 10-40 ms, often overflow
        }
    }
    g.throughput(Throughput::Elements(POP as u64));
    g.bench_function("timer_wheel", |b| {
        let mut q = ebs_sim::EventQueue::new();
        let mut x = 7u64;
        for i in 0..1024u64 {
            q.schedule_at(SimTime::from_nanos(100 + delta_ns(lcg(&mut x))), i);
        }
        let mut pending_cancel = None;
        b.iter(|| {
            for _ in 0..POP {
                let (t, v) = q.pop().expect("steady state");
                let r = lcg(&mut x);
                let id = q.schedule_at(t + ebs_sim::SimDuration::from_nanos(delta_ns(r)), v);
                if r.is_multiple_of(4) {
                    if let Some(old) = pending_cancel.replace(id) {
                        q.cancel(old);
                        let rr = lcg(&mut x);
                        q.schedule_at(t + ebs_sim::SimDuration::from_nanos(delta_ns(rr)), v);
                        q.pop();
                    }
                }
            }
            q.now()
        })
    });
    g.bench_function("binary_heap_baseline", |b| {
        let mut q = naive_queue::NaiveQueue::new();
        let mut x = 7u64;
        for i in 0..1024u64 {
            q.schedule_at(SimTime::from_nanos(100 + delta_ns(lcg(&mut x))), i);
        }
        let mut pending_cancel = None;
        b.iter(|| {
            for _ in 0..POP {
                let (t, v) = q.pop().expect("steady state");
                let r = lcg(&mut x);
                let id = q.schedule_at(t + ebs_sim::SimDuration::from_nanos(delta_ns(r)), v);
                if r.is_multiple_of(4) {
                    if let Some(old) = pending_cancel.replace(id) {
                        q.cancel(old);
                        let rr = lcg(&mut x);
                        q.schedule_at(t + ebs_sim::SimDuration::from_nanos(delta_ns(rr)), v);
                        q.pop();
                    }
                }
            }
            q.now()
        })
    });
    g.finish();
}

/// The batched drain the testbed main loop actually runs: many events
/// collide on the same timestamp (serialized TxDone bursts, ACK fan-in),
/// and `pop_batch` hands the whole tie group over in one call instead of
/// paying the heap/wheel pop machinery per event. Deltas are quantized so
/// batches are a few events deep, matching the testbed's tie profile.
fn bench_event_queue_pop_batch(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue_pop_batch");
    const POP: usize = 256; // events handled per iteration
    fn delta_ns(r: u64) -> u64 {
        // 24 distinct quantized horizons → heavy timestamp collisions.
        8_192 * (1 + r % 24)
    }
    g.throughput(Throughput::Elements(POP as u64));
    g.bench_function("pop_batch", |b| {
        let mut q = ebs_sim::EventQueue::new();
        let mut x = 7u64;
        for i in 0..1024u64 {
            q.schedule_at(SimTime::from_nanos(delta_ns(lcg(&mut x))), i);
        }
        let mut buf: Vec<(SimTime, u64)> = Vec::with_capacity(64);
        b.iter(|| {
            let mut handled = 0usize;
            while handled < POP {
                let n = q.pop_batch(SimTime::MAX, &mut buf);
                assert!(n > 0, "steady state");
                handled += n;
                for (t, v) in buf.drain(..) {
                    q.schedule_at(
                        t + ebs_sim::SimDuration::from_nanos(delta_ns(lcg(&mut x))),
                        v,
                    );
                }
            }
            q.now()
        })
    });
    // What a per-event driver loop must do: peek (to enforce the stop
    // horizon before committing to the pop), then pop — the pre-batch
    // testbed loop. `pop_batch` fuses the liveness pre-check away.
    g.bench_function("per_event_peek_then_pop", |b| {
        let mut q = ebs_sim::EventQueue::new();
        let mut x = 7u64;
        for i in 0..1024u64 {
            q.schedule_at(SimTime::from_nanos(delta_ns(lcg(&mut x))), i);
        }
        b.iter(|| {
            for _ in 0..POP {
                let t_next = q.peek_time().expect("steady state");
                assert!(t_next <= SimTime::MAX, "horizon check");
                let (t, v) = q.pop().expect("steady state");
                q.schedule_at(
                    t + ebs_sim::SimDuration::from_nanos(delta_ns(lcg(&mut x))),
                    v,
                );
            }
            q.now()
        })
    });
    g.finish();
}

/// The memoized ECMP post-filter sets: a warm cache serves every hop of a
/// cross-pod traversal from a two-word epoch check ("hit"), while an
/// epoch bump — here an exclusion/heal toggle on a server that is on no
/// forwarding path, so the routes themselves never change — forces every
/// hop to re-filter its candidate set ("miss_after_invalidation").
fn bench_ecmp_route_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("ecmp_route_cache");
    let topo = ebs_net::Topology::build(ebs_net::ClosConfig::testbed(2, 2, 2));
    let servers = topo.servers();
    let (src, dst) = (servers[0], servers[5]);
    let spare = servers[1]; // never a next hop for src → dst
    let flow = ebs_net::FlowLabel {
        src,
        dst,
        src_port: 47001,
        dst_port: 9000,
        proto: 17,
    };
    let run = |b: &mut criterion::Bencher, invalidate: bool| {
        let mut f: ebs_net::Fabric<u32> =
            ebs_net::Fabric::new(topo.clone(), ebs_net::FabricConfig::default());
        let mut q = ebs_sim::EventQueue::new();
        let mut sink = ebs_sim::EventQueue::new();
        b.iter(|| {
            if invalidate {
                // Exclude then re-include: two epoch bumps, zero route
                // changes for the measured flow.
                f.inject_failure_with(
                    spare,
                    ebs_net::FailureMode::FailStop,
                    ebs_sim::SimDuration::ZERO,
                    &mut sink,
                );
                let (t, ev) = sink.pop().expect("convergence event");
                f.handle(t, ev, &mut sink);
                f.heal(spare);
            }
            let pkt = ebs_net::FabricPacket::new(flow, 4096, None, 0u32);
            f.send(q.now(), pkt, &mut q);
            let mut delivered = 0u32;
            while let Some((t, ev)) = q.pop() {
                if f.handle(t, ev, &mut q).is_some() {
                    delivered += 1;
                }
            }
            delivered
        })
    };
    g.bench_function("hit", |b| run(b, false));
    g.bench_function("miss_after_invalidation", |b| run(b, true));
    g.finish();
}

/// A full cross-pod packet traversal: server → ToR → spine → core → spine
/// → ToR → server, with INT stamping at every switch egress. Exercises the
/// per-hop ECMP (cached flow hash), the pre-sized port queues and the
/// move-only packet plumbing.
fn bench_fabric_forward(c: &mut Criterion) {
    let mut g = c.benchmark_group("fabric_forward_3tier");
    let topo = ebs_net::Topology::build(ebs_net::ClosConfig::testbed(2, 2, 2));
    let servers = topo.servers();
    let (src, dst) = (servers[0], servers[5]);
    let mut f: ebs_net::Fabric<u32> = ebs_net::Fabric::new(topo, ebs_net::FabricConfig::default());
    let mut q = ebs_sim::EventQueue::new();
    let mut sport = 0u16;
    g.bench_function("cross_pod_packet_with_int", |b| {
        b.iter(|| {
            sport = sport.wrapping_add(1);
            let pkt = ebs_net::FabricPacket::new(
                ebs_net::FlowLabel {
                    src,
                    dst,
                    src_port: sport,
                    dst_port: 9000,
                    proto: 17,
                },
                4096,
                Some(ebs_wire::IntStack::with_path_capacity()),
                sport as u32,
            );
            f.send(q.now(), pkt, &mut q);
            let mut delivered = 0u32;
            while let Some((t, ev)) = q.pop() {
                if f.handle(t, ev, &mut q).is_some() {
                    delivered += 1;
                }
            }
            delivered
        })
    });
    g.finish();
}

/// The sharded engine's fixed overhead: 50 conservative windows of
/// barrier + mailbox exchange with light cross-shard replication, at
/// 2/4/8 shards over the same 16 servers. Per-window cost is the
/// number that bounds how fine the exchange window can be cut.
fn bench_shard_windows(c: &mut Criterion) {
    use ebs_sim::{SimDuration, SimTime};
    use ebs_stack::{ReplicationConfig, ShardedTestbed, ShardedTestbedConfig, Variant};
    let mut g = c.benchmark_group("shard_windows");
    for shards in [2u32, 4, 8] {
        let mut cfg = ShardedTestbedConfig::new(Variant::Solar, 8, 8, shards);
        cfg.replication = Some(ReplicationConfig {
            start: SimTime::ZERO,
            interval: SimDuration::from_micros(100),
            blocks: 1,
        });
        let mut fleet = ShardedTestbed::new(cfg);
        g.bench_with_input(
            BenchmarkId::new("barrier_exchange_50w", shards),
            &shards,
            |b, _| {
                // The fleet persists across iterations: each one advances
                // the same idle-but-replicating fleet 50 more windows, so
                // the sample is pure window + exchange cost, no setup.
                b.iter(|| {
                    let horizon = fleet.now() + fleet.window() * 50;
                    fleet.run_until(horizon);
                    std::hint::black_box(fleet.exchanged())
                })
            },
        );
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
        .sample_size(30);
    targets = bench_crc,
        bench_crc_kernels,
        bench_block_pool,
        bench_crypto,
        bench_wire,
        bench_tables,
        bench_transports,
        bench_luna_rpc,
        bench_pipeline,
        bench_ecmp,
        bench_ecmp_route_cache,
        bench_event_queue,
        bench_event_queue_pop_batch,
        bench_fabric_forward,
        bench_shard_windows
}
criterion_main!(benches);
