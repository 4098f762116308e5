//! Golden pins of the Chrome-trace export of whole testbed journals.
//!
//! `metrics_digest` hashes the journal's decoded events; this pins what
//! a person actually loads into Perfetto, byte for byte: one
//! `cell: events=… dropped=… bytes=… fnv=…` line per cell in
//! `trace.golden.txt`, the FNV-1a of `ebs_obs::chrome_trace` plus the
//! journal's retained and evicted counts. The cells cover both transport
//! families, a journal that wrapped its ring, and a sharded fleet's
//! merged journal.
//!
//! Re-pin only when a drift is intended: `EBS_BLESS=1 cargo test -p
//! ebs-stack --test trace_golden`, then say why in CHANGES.md.

#[path = "../../../tests/support/pin.rs"]
mod pin;

use std::path::Path;

use ebs_obs::{chrome_trace, Journal};
use ebs_sim::{SimDuration, SimTime};
use ebs_stack::{
    FioConfig, ReplicationConfig, ShardedTestbed, ShardedTestbedConfig, Testbed, TestbedConfig,
    Variant,
};

fn ms(n: u64) -> SimTime {
    SimTime::from_millis(n)
}

/// 64-bit FNV-1a.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn render(journal: &Journal) -> String {
    let trace = chrome_trace(journal);
    format!(
        "events={} dropped={} bytes={} fnv={:016x}",
        journal.len(),
        journal.dropped(),
        trace.len(),
        fnv(trace.as_bytes())
    )
}

/// Two compute servers running closed-loop 4 KiB fio, half reads, for
/// `horizon_ms` of simulated time: the SOLAR cell is the one the bench
/// harness exports as its Perfetto artifact.
fn smoke(variant: Variant, horizon_ms: u64) -> String {
    let mut tb = Testbed::new(TestbedConfig::small(variant, 2, 3));
    for c in 0..2 {
        tb.attach_fio(
            ms(1),
            c,
            FioConfig {
                depth: 4,
                bytes: 4096,
                read_fraction: 0.5,
            },
        );
    }
    tb.run_until(ms(horizon_ms));
    render(tb.journal())
}

/// Two replicated SOLAR shards with probes and fio: the merged journal
/// the chaos runner exports for sharded repros.
fn fleet() -> String {
    let mut cfg = ShardedTestbedConfig::new(Variant::Solar, 8, 8, 2);
    cfg.base.vds_per_compute = 2;
    cfg.base.seed = 9;
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
    }
    fleet.run_until(ms(8));
    render(&fleet.merged_journal())
}

#[test]
fn chrome_traces_match_the_committed_digests() {
    let mut cells = String::new();
    let mut cell = |name: &str, digest: String| cells.push_str(&format!("{name}: {digest}\n"));
    cell("solar smoke", smoke(Variant::Solar, 20));
    cell("luna smoke", smoke(Variant::Luna, 20));
    cell("solar wrapped", smoke(Variant::Solar, WRAPPED_MS));
    cell("fleet merged", fleet());
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/trace.golden.txt");
    if let Err(e) = pin::check(&golden, &cells) {
        panic!("{e}");
    }
}

/// Long enough that the default 65,536-event ring evicts.
const WRAPPED_MS: u64 = 120;

/// The wrapped cell must have evicted, or it pins no ring wrap-around.
#[test]
fn wrapped_cell_overflows_the_ring() {
    let digest = smoke(Variant::Solar, WRAPPED_MS);
    assert!(!digest.contains(" dropped=0 "), "{digest}");
}
