//! The programmable packet-processing pipeline (FPGA / P4 model).
//!
//! §4.6's key observation: because SOLAR makes every packet one block, the
//! whole SA data path is expressible as a **match-action pipeline** — the
//! abstraction commodity DPU ASICs expose through P4. This module models
//! exactly that: a chain of stages, each a table lookup or a fixed
//! transform, with per-stage latency and resource-accountable tables.
//! `describe_p4()` renders the pipeline as a P4-style control block to
//! make the expressibility claim concrete.

use bytes::Bytes;
use ebs_sim::{SimDuration, SimTime};
use ebs_wire::{EbsHeader, EbsOp};

use crate::faults::BitFlipInjector;

/// Outcome of pushing a packet through a stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageVerdict {
    /// Continue to the next stage.
    Forward,
    /// Drop the packet (e.g. no table entry).
    Drop,
}

/// A packet (or NVMe command turned packet) traversing the pipeline.
#[derive(Debug)]
pub struct PacketCtx {
    /// EBS header under construction / inspection.
    pub hdr: EbsHeader,
    /// Block payload.
    pub payload: Bytes,
    /// Guest memory address for DMA (reads: from the Addr table).
    pub dma_addr: Option<u64>,
    /// Policy delay imposed by the QoS stage (applied by the host; kept
    /// separate because the paper excludes it from latency accounting).
    pub qos_delay: SimDuration,
}

impl PacketCtx {
    /// A context for a fresh header.
    pub fn new(hdr: EbsHeader, payload: Bytes) -> Self {
        PacketCtx {
            hdr,
            payload,
            dma_addr: None,
            qos_delay: SimDuration::ZERO,
        }
    }
}

/// One pipeline stage.
pub trait Stage {
    /// Stage name (for `describe_p4` and diagnostics).
    fn name(&self) -> &'static str;
    /// Fixed traversal latency of the stage's hardware.
    fn latency(&self) -> SimDuration;
    /// Process a packet.
    fn process(&mut self, now: SimTime, ctx: &mut PacketCtx) -> StageVerdict;
    /// P4-style summary of the stage ("table" or "action" + key fields).
    fn p4_summary(&self) -> String;
}

/// The QoS stage: dual-token-bucket admission in hardware.
pub struct QosStage {
    table: ebs_sa::QosTable,
    latency: SimDuration,
}

impl QosStage {
    /// Wrap a QoS table as a hardware stage.
    pub fn new(table: ebs_sa::QosTable) -> Self {
        QosStage {
            table,
            latency: SimDuration::from_nanos(40),
        }
    }

    /// Mutable access for the control plane (spec updates).
    pub fn table_mut(&mut self) -> &mut ebs_sa::QosTable {
        &mut self.table
    }
}

impl Stage for QosStage {
    fn name(&self) -> &'static str {
        "QoS"
    }
    fn latency(&self) -> SimDuration {
        self.latency
    }
    fn process(&mut self, now: SimTime, ctx: &mut PacketCtx) -> StageVerdict {
        ctx.qos_delay = self.table.admit(now, ctx.hdr.vd_id, ctx.hdr.len as usize);
        StageVerdict::Forward
    }
    fn p4_summary(&self) -> String {
        "table qos { key = { hdr.ebs.vd_id : exact; } actions = { meter_and_stamp; } }".into()
    }
}

/// The Block stage: segment-table lookup (LBA → segment/block-server).
pub struct BlockStage {
    table: ebs_sa::SegmentTable,
    latency: SimDuration,
    misses: u64,
}

impl BlockStage {
    /// Wrap a segment table as a hardware stage.
    pub fn new(table: ebs_sa::SegmentTable) -> Self {
        BlockStage {
            table,
            latency: SimDuration::from_nanos(60),
            misses: 0,
        }
    }

    /// Lookup misses (packets dropped for unknown addresses).
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

impl Stage for BlockStage {
    fn name(&self) -> &'static str {
        "Block"
    }
    fn latency(&self) -> SimDuration {
        self.latency
    }
    fn process(&mut self, _now: SimTime, ctx: &mut PacketCtx) -> StageVerdict {
        match self.table.lookup(ctx.hdr.vd_id, ctx.hdr.block_addr) {
            Ok(entry) => {
                ctx.hdr.segment_id = entry.segment_id;
                StageVerdict::Forward
            }
            Err(_) => {
                self.misses += 1;
                StageVerdict::Drop
            }
        }
    }
    fn p4_summary(&self) -> String {
        "table block { key = { hdr.ebs.vd_id : exact; hdr.ebs.lba >> 9 : exact; } actions = { set_segment; drop; } }".into()
    }
}

/// The Addr stage: (rpc, pkt) → guest DMA address, for READ responses.
pub struct AddrStage {
    table: ebs_sim::FxHashMap<(u64, u16), u64>,
    latency: SimDuration,
    misses: u64,
}

impl AddrStage {
    /// Empty Addr table.
    pub fn new() -> Self {
        AddrStage {
            table: ebs_sim::FxHashMap::default(),
            latency: SimDuration::from_nanos(50),
            misses: 0,
        }
    }

    /// Control plane: register an expected response packet.
    pub fn insert(&mut self, rpc_id: u64, pkt_id: u16, guest_addr: u64) {
        self.table.insert((rpc_id, pkt_id), guest_addr);
    }

    /// Live entries (sizing / leak checks).
    pub fn entries(&self) -> usize {
        self.table.len()
    }

    /// Lookup misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

impl Default for AddrStage {
    fn default() -> Self {
        Self::new()
    }
}

impl Stage for AddrStage {
    fn name(&self) -> &'static str {
        "Addr"
    }
    fn latency(&self) -> SimDuration {
        self.latency
    }
    fn process(&mut self, _now: SimTime, ctx: &mut PacketCtx) -> StageVerdict {
        // Only read responses consult the Addr table; the entry is
        // consumed so the table stays small (§4.5: "its entry is cleaned
        // afterward without interrupting the CPU").
        if ctx.hdr.op != EbsOp::ReadResp {
            return StageVerdict::Forward;
        }
        match self.table.remove(&(ctx.hdr.rpc_id, ctx.hdr.pkt_id)) {
            Some(addr) => {
                ctx.dma_addr = Some(addr);
                StageVerdict::Forward
            }
            None => {
                self.misses += 1;
                StageVerdict::Drop
            }
        }
    }
    fn p4_summary(&self) -> String {
        "table addr { key = { hdr.ebs.rpc_id : exact; hdr.ebs.pkt_id : exact; } actions = { set_dma_addr_and_clean; drop; } }".into()
    }
}

/// The CRC stage: per-block raw CRC32 in hardware — with optional bit-flip
/// fault injection, because the FPGA is itself the dominant corruption
/// source (Fig. 11).
pub struct CrcStage {
    latency: SimDuration,
    injector: Option<BitFlipInjector>,
    blocks: u64,
    block_size: usize,
}

impl CrcStage {
    /// A CRC stage for `block_size` blocks, optionally fault-injected.
    pub fn new(block_size: usize, injector: Option<BitFlipInjector>) -> Self {
        CrcStage {
            latency: SimDuration::from_nanos(80),
            injector,
            blocks: 0,
            block_size,
        }
    }

    /// Blocks processed.
    pub fn blocks(&self) -> u64 {
        self.blocks
    }
}

impl Stage for CrcStage {
    fn name(&self) -> &'static str {
        "CRC"
    }
    fn latency(&self) -> SimDuration {
        self.latency
    }
    fn process(&mut self, _now: SimTime, ctx: &mut PacketCtx) -> StageVerdict {
        self.blocks += 1;
        if ctx.payload.is_empty() {
            // Latency-only simulations carry no real payload; keep the
            // header CRC untouched.
            return StageVerdict::Forward;
        }
        let mut crc = ebs_crc::block_crc_raw(&ctx.payload, self.block_size);
        if let Some(inj) = self.injector.as_mut() {
            // A flip can hit the CRC register or the data path after CRC.
            if let Some(flip) = inj.maybe_flip_u32() {
                crc ^= flip;
            } else if let Some((byte, bit)) = inj.maybe_flip_payload(ctx.payload.len()) {
                // Copy-on-corrupt through the block pool: no fresh heap
                // allocation on the recycled path.
                let mut data = ebs_wire::pool::with_default_pool(|p| p.take_copy(&ctx.payload));
                data[byte] ^= 1 << bit;
                ctx.payload = data.freeze().into_bytes();
            }
        }
        ctx.hdr.payload_crc = crc;
        StageVerdict::Forward
    }
    fn p4_summary(&self) -> String {
        "action crc32 { hdr.ebs.payload_crc = crc32_raw(payload); }".into()
    }
}

/// The SEC stage: per-block encryption (ChaCha20 model of the opaque
/// production cipher).
pub struct SecStage {
    engine: ebs_crypto::SecEngine,
    latency: SimDuration,
    decrypt: bool,
}

impl SecStage {
    /// An encrypting (TX) stage.
    pub fn encryptor(engine: ebs_crypto::SecEngine) -> Self {
        SecStage {
            engine,
            latency: SimDuration::from_nanos(120),
            decrypt: false,
        }
    }

    /// A decrypting (RX) stage.
    pub fn decryptor(engine: ebs_crypto::SecEngine) -> Self {
        SecStage {
            engine,
            latency: SimDuration::from_nanos(120),
            decrypt: true,
        }
    }
}

impl Stage for SecStage {
    fn name(&self) -> &'static str {
        "SEC"
    }
    fn latency(&self) -> SimDuration {
        self.latency
    }
    fn process(&mut self, _now: SimTime, ctx: &mut PacketCtx) -> StageVerdict {
        if !self.engine.is_enabled() || ctx.payload.is_empty() {
            return StageVerdict::Forward;
        }
        // Cipher straight from the old payload into a pooled buffer, one
        // pass over the block: the old payload handle is then released
        // (recycling its block if this stage held the last clone) and the
        // transformed block recycles in turn downstream.
        let (engine, hdr, old) = (&self.engine, &ctx.hdr, &ctx.payload);
        let data = ebs_wire::pool::with_default_pool(|p| {
            p.take_with(old.len(), |new| {
                if self.decrypt {
                    engine.decrypt_block_into(hdr.vd_id, hdr.block_addr, old, new);
                } else {
                    engine.encrypt_block_into(hdr.vd_id, hdr.block_addr, old, new);
                }
            })
        });
        if !self.decrypt {
            ctx.hdr.flags |= ebs_wire::FLAG_ENCRYPTED;
        }
        ctx.payload = data.freeze().into_bytes();
        StageVerdict::Forward
    }
    fn p4_summary(&self) -> String {
        if self.decrypt {
            "action sec_decrypt { payload = chacha20(vd_key, hdr.ebs.lba, payload); }".into()
        } else {
            "action sec_encrypt { payload = chacha20(vd_key, hdr.ebs.lba, payload); hdr.ebs.flags |= ENC; }".into()
        }
    }
}

/// A complete pipeline: ordered stages.
pub struct Pipeline {
    stages: Vec<Box<dyn Stage>>,
    processed: u64,
    dropped: u64,
}

impl Pipeline {
    /// Build from stages.
    pub fn new(stages: Vec<Box<dyn Stage>>) -> Self {
        Pipeline {
            stages,
            processed: 0,
            dropped: 0,
        }
    }

    /// Push one packet through; returns the pipeline latency, or `None`
    /// if a stage dropped it.
    pub fn process(&mut self, now: SimTime, ctx: &mut PacketCtx) -> Option<SimDuration> {
        self.processed += 1;
        let mut total = SimDuration::ZERO;
        for stage in &mut self.stages {
            total += stage.latency();
            if stage.process(now, ctx) == StageVerdict::Drop {
                self.dropped += 1;
                return None;
            }
        }
        Some(total)
    }

    /// Packets pushed through.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Packets dropped by stages.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Stage access by name (for control-plane updates).
    pub fn stage_mut(&mut self, name: &str) -> Option<&mut Box<dyn Stage>> {
        self.stages.iter_mut().find(|s| s.name() == name)
    }

    /// Render the pipeline as a P4-style control block (§4.6's
    /// demonstration that the SA data path fits the DPU's programmable
    /// pipeline).
    pub fn describe_p4(&self, control_name: &str) -> String {
        let mut out =
            format!("control {control_name}(inout headers hdr, inout payload_t payload) {{\n");
        for s in &self.stages {
            out.push_str("    ");
            out.push_str(&s.p4_summary());
            out.push('\n');
        }
        out.push_str("    apply {\n");
        for s in &self.stages {
            out.push_str(&format!("        {}.apply();\n", s.name().to_lowercase()));
        }
        out.push_str("    }\n}\n");
        out
    }
}

impl ebs_obs::Sample for Pipeline {
    /// Component `dpu.pipeline`: match-action throughput and stage drops.
    fn sample_into(&self, _now: SimTime, m: &mut ebs_obs::Metrics) {
        m.counter_add("dpu.pipeline", "processed", self.processed);
        m.counter_add("dpu.pipeline", "dropped", self.dropped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_sa::{QosSpec, SegmentTable};

    fn hdr(op: EbsOp, vd: u64, addr: u64) -> EbsHeader {
        EbsHeader {
            version: EbsHeader::VERSION,
            op,
            flags: 0,
            path_id: 0,
            vd_id: vd,
            rpc_id: 1,
            pkt_id: 0,
            total_pkts: 1,
            block_addr: addr,
            len: 4096,
            payload_crc: 0,
            path_seq: 0,
            segment_id: 0,
        }
    }

    fn write_pipeline() -> Pipeline {
        let mut seg = SegmentTable::new(512);
        seg.provision(1, 1024, |_| 0);
        let mut qos = ebs_sa::QosTable::new();
        qos.set_spec(1, QosSpec::unlimited());
        Pipeline::new(vec![
            Box::new(QosStage::new(qos)),
            Box::new(BlockStage::new(seg)),
            Box::new(CrcStage::new(4096, None)),
            Box::new(SecStage::encryptor(ebs_crypto::SecEngine::new([7; 32]))),
        ])
    }

    #[test]
    fn write_path_fills_header() {
        let mut p = write_pipeline();
        let payload = Bytes::from(vec![0xAA; 4096]);
        let mut ctx = PacketCtx::new(hdr(EbsOp::WriteBlock, 1, 5), payload.clone());
        let lat = p.process(SimTime::ZERO, &mut ctx).expect("forwarded");
        assert!(lat > SimDuration::ZERO && lat < SimDuration::from_micros(1));
        assert_ne!(ctx.hdr.segment_id, 0, "block stage resolved the segment");
        assert_ne!(ctx.hdr.payload_crc, 0, "crc stage stamped the checksum");
        assert_ne!(ctx.payload, payload, "sec stage encrypted");
        assert_eq!(
            ctx.hdr.flags & ebs_wire::FLAG_ENCRYPTED,
            ebs_wire::FLAG_ENCRYPTED
        );
    }

    #[test]
    fn crc_is_of_plaintext_before_sec() {
        // Pipeline order: CRC then SEC — the stored CRC covers plaintext.
        let mut p = write_pipeline();
        let payload = Bytes::from(vec![0x5A; 4096]);
        let mut ctx = PacketCtx::new(hdr(EbsOp::WriteBlock, 1, 5), payload.clone());
        p.process(SimTime::ZERO, &mut ctx).unwrap();
        assert_eq!(ctx.hdr.payload_crc, ebs_crc::crc32_raw(&payload));
    }

    #[test]
    fn unknown_lba_drops_in_block_stage() {
        let mut p = write_pipeline();
        let mut ctx = PacketCtx::new(hdr(EbsOp::WriteBlock, 1, 99_999), Bytes::new());
        assert!(p.process(SimTime::ZERO, &mut ctx).is_none());
        assert_eq!(p.dropped(), 1);
    }

    #[test]
    fn addr_stage_consumes_entries() {
        let mut addr = AddrStage::new();
        addr.insert(1, 0, 0xDEAD_0000);
        let mut p = Pipeline::new(vec![Box::new(addr)]);
        let mut ctx = PacketCtx::new(hdr(EbsOp::ReadResp, 1, 5), Bytes::new());
        p.process(SimTime::ZERO, &mut ctx).unwrap();
        assert_eq!(ctx.dma_addr, Some(0xDEAD_0000));
        // Second response for the same (rpc, pkt): entry gone → drop.
        let mut dup = PacketCtx::new(hdr(EbsOp::ReadResp, 1, 5), Bytes::new());
        assert!(p.process(SimTime::ZERO, &mut dup).is_none());
    }

    #[test]
    fn addr_stage_ignores_non_reads() {
        let mut p = Pipeline::new(vec![Box::new(AddrStage::new())]);
        let mut ctx = PacketCtx::new(hdr(EbsOp::WriteBlock, 1, 5), Bytes::new());
        assert!(p.process(SimTime::ZERO, &mut ctx).is_some());
    }

    #[test]
    fn sec_roundtrip_through_stages() {
        let engine = ebs_crypto::SecEngine::new([9; 32]);
        let mut enc = Pipeline::new(vec![Box::new(SecStage::encryptor(engine.clone()))]);
        let mut dec = Pipeline::new(vec![Box::new(SecStage::decryptor(engine))]);
        let plain = Bytes::from(vec![0x42; 4096]);
        let mut ctx = PacketCtx::new(hdr(EbsOp::WriteBlock, 1, 7), plain.clone());
        enc.process(SimTime::ZERO, &mut ctx).unwrap();
        assert_ne!(ctx.payload, plain);
        dec.process(SimTime::ZERO, &mut ctx).unwrap();
        assert_eq!(ctx.payload, plain);
    }

    #[test]
    fn p4_description_lists_all_stages() {
        let p = write_pipeline();
        let prog = p.describe_p4("SolarWritePath");
        assert!(prog.contains("control SolarWritePath"));
        for name in ["qos", "block", "crc", "sec"] {
            assert!(prog.contains(&format!("{name}.apply()")), "{prog}");
        }
        assert!(prog.contains("table qos"));
        assert!(prog.contains("crc32_raw"));
    }
}
