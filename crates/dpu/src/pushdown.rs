//! The Pushdown stage: storage functions as a metered match-action stage.
//!
//! FlexBSO's argument is that a SmartNIC pipeline already touches every
//! block on its way to the SSD, so a byte-predicate scan or an XOR fold is
//! one more action, not a new engine. This module models that stage on the
//! *storage-side* DPU: the host asks it to execute a function over a block
//! run ([`PushdownStage::meter`]), the stage charges pipeline latency and
//! FPGA cycles per scanned block, and records how many PCIe/fabric bytes
//! the placement avoided moving (scanned minus emitted). The semantic
//! result itself comes from `ebs-blk`'s reference execution — hardware and
//! software placements must agree on the answer by construction; only the
//! cost model differs.

use ebs_sim::{SimDuration, SimTime};
use ebs_wire::{PushdownOp, BLOCK_SIZE};

/// Pipeline latency per scanned block: a predicate compare rides the
/// existing per-block pipeline pass, so it is cheap.
const SCAN_NS_PER_BLOCK: u64 = 25;
/// Latency per block of an XOR fold, which streams all 4 KiB through
/// the ALU.
const MERGE_NS_PER_BLOCK: u64 = 90;
/// FPGA cycles charged per scanned block (occupancy accounting).
const CYCLES_PER_BLOCK: u64 = 64;

/// The metered pushdown stage (see module docs).
#[derive(Debug, Default)]
pub struct PushdownStage {
    blocks_scanned: u64,
    blocks_emitted: u64,
    requests: u64,
    cycles: u64,
    bytes_saved: u64,
}

impl PushdownStage {
    /// A stage with nothing metered yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Account one pushdown executed on this DPU: `blocks_in` scanned,
    /// `blocks_out` emitted. Returns the stage's processing latency.
    pub fn meter(&mut self, op: PushdownOp, blocks_in: u32, blocks_out: u32) -> SimDuration {
        self.requests += 1;
        self.blocks_scanned += blocks_in as u64;
        self.blocks_emitted += blocks_out as u64;
        self.cycles += CYCLES_PER_BLOCK * blocks_in as u64;
        self.bytes_saved += blocks_in.saturating_sub(blocks_out) as u64 * BLOCK_SIZE as u64;
        let per_block = match op {
            PushdownOp::RangeScan | PushdownOp::ChecksumVerify => SCAN_NS_PER_BLOCK,
            PushdownOp::CompactionMerge => MERGE_NS_PER_BLOCK,
        };
        SimDuration::from_nanos(per_block * blocks_in as u64)
    }

    /// Pushdown requests metered.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Blocks scanned by the stage.
    pub fn blocks_scanned(&self) -> u64 {
        self.blocks_scanned
    }

    /// Blocks emitted toward the fabric.
    pub fn blocks_emitted(&self) -> u64 {
        self.blocks_emitted
    }

    /// FPGA cycles consumed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// PCIe/fabric bytes the placement avoided moving.
    pub fn bytes_saved(&self) -> u64 {
        self.bytes_saved
    }
}

impl ebs_obs::Sample for PushdownStage {
    /// Component `dpu.pushdown`: scan volume, occupancy and bytes saved.
    fn sample_into(&self, _now: SimTime, m: &mut ebs_obs::Metrics) {
        m.counter_add("dpu.pushdown", "requests", self.requests);
        m.counter_add("dpu.pushdown", "blocks_scanned", self.blocks_scanned);
        m.counter_add("dpu.pushdown", "blocks_emitted", self.blocks_emitted);
        m.counter_add("dpu.pushdown", "cycles", self.cycles);
        m.counter_add("dpu.pushdown", "bytes_saved", self.bytes_saved);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_charges_latency_and_savings() {
        let mut s = PushdownStage::new();
        let lat = s.meter(PushdownOp::RangeScan, 256, 32);
        assert_eq!(lat, SimDuration::from_nanos(25 * 256));
        assert_eq!(s.blocks_scanned(), 256);
        assert_eq!(s.blocks_emitted(), 32);
        assert_eq!(s.cycles(), 64 * 256);
        assert_eq!(s.bytes_saved(), (256 - 32) * 4096);
        // Merge is per-block more expensive than scan.
        let merge = s.meter(PushdownOp::CompactionMerge, 64, 16);
        assert!(merge > s.meter(PushdownOp::RangeScan, 64, 16));
    }
}
