//! Criterion micro-benchmarks of the costs no traced span of
//! `benchmark run --traced` reports by name: the CRC kernels side by side
//! (the ledger's `crc.ns_per_block` times only the dispatched one), the
//! ECMP hash and route cache, one fabric traversal, and the TCP/LUNA
//! engines driven back to back without a simulator. Per-unit costs of
//! everything on a benchmark workload's path (CRC, SEC, block pool, wire
//! codec, SA tables, DPU pipeline, SOLAR engines, event queue, shard
//! windows) are in that ledger — see `benchmark/README.md`.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ebs_sim::SimTime;

/// The CRC kernel shoot-out: slice-by-8 (the seed's engine), then every
/// kernel the CPU can run — portable slice-by-16, PCLMULQDQ and VPCLMULQDQ
/// folding, the last being the one `Crc32::new` dispatches to — all over
/// the canonical 4 KiB block.
fn bench_crc_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("crc32_4k");
    let block = vec![0xA5u8; 4096];
    g.throughput(Throughput::Bytes(4096));
    let reference = ebs_crc::Crc32::new();
    g.bench_function("raw_slice8", |b| {
        b.iter(|| reference.update_slice8(0, std::hint::black_box(&block)))
    });
    for engine in ebs_crc::Crc32::every_kernel() {
        g.bench_function(format!("raw_{}", engine.kernel_name()), |b| {
            b.iter(|| engine.checksum(std::hint::black_box(&block)))
        });
    }
    g.finish();
}

fn bench_tcp(c: &mut Criterion) {
    let mut g = c.benchmark_group("transport");
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

/// LUNA's byte stream end to end: one write RPC from the client's
/// `RpcConn::send` through TCP segmentation, the peer's reassembly and
/// frame decode to the server's `RpcConn::poll_frame`, and the empty
/// response back — over a warm connection, so the number is the
/// steady-state host cost per payload byte (no payload byte is copied;
/// see DESIGN.md §7.8).
fn bench_luna_rpc(c: &mut Criterion) {
    let mut g = c.benchmark_group("luna_rpc");
    for (name, len) in [("4k", 4 << 10), ("128k", 128 << 10)] {
        let cfg = ebs_tcp::TcpConfig {
            mss: 8960,
            ..ebs_tcp::TcpConfig::default()
        };
        let mut client = ebs_luna::RpcConn::connect(cfg.clone());
        let mut server = ebs_luna::RpcConn::listen(cfg);
        let payload = Bytes::from(vec![0xA5u8; len]);
        let mut now = SimTime::ZERO;
        let mut rpc_id = 0u64;
        // One RPC to completion (before any request exists this is just
        // the handshake, with nothing to complete).
        let mut roundtrip = |request: Option<ebs_wire::RpcFrame>| {
            if let Some(req) = &request {
                client.send(req);
            }
            loop {
                let mut progressed = false;
                while let Some(seg) = client.poll_segment(now) {
                    now += ebs_sim::SimDuration::from_micros(4);
                    server.on_segment(now, seg);
                    progressed = true;
                }
                while let Some(req) = server.poll_frame() {
                    server.send(&ebs_wire::RpcFrame {
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
            client.poll_frame()
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

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
        .sample_size(30);
    targets = bench_crc_kernels,
        bench_tcp,
        bench_luna_rpc,
        bench_ecmp,
        bench_ecmp_route_cache,
        bench_fabric_forward
}
criterion_main!(benches);
