//! Table 2: I/Os with no response for ≥ 1 s under failure scenarios,
//! LUNA vs SOLAR.
//!
//! The paper's testbed is 90 compute × 82 storage servers with 4-32 KiB
//! blocks, I/O depth 4, read:write 1:4. We run a geometry-preserving
//! scaled-down testbed (9 × 8 by default) — absolute hang counts scale
//! with server count and load, but the qualitative result (zero for SOLAR
//! everywhere, non-zero for LUNA wherever a silent or slowly-converging
//! failure hits) is scale-independent.

use ebs_net::{DeviceKind, FailureMode};
use ebs_sim::{SimDuration, SimTime};
use ebs_stack::{FioConfig, Testbed, TestbedConfig, Variant};
use ebs_stats::TextTable;

use crate::output::ExperimentOutput;

/// The seven scenarios of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// One ToR port flaps (brief low-rate loss).
    TorPortFailure,
    /// A ToR fail-stops; host-side failover is slow.
    TorSwitchFailure,
    /// A spine fail-stops; fabric link-down converges fast.
    SpineSwitchFailure,
    /// A device drops 75% of packets (sick line card).
    PacketDrop75,
    /// ToR taken down for maintenance and brought back.
    TorRebootIsolation,
    /// Silent blackhole in a ToR (subset of ECMP buckets die).
    BlackholeTor,
    /// Silent blackhole in a spine.
    BlackholeSpine,
}

impl Scenario {
    /// All scenarios in the table's order.
    pub const ALL: [Scenario; 7] = [
        Scenario::TorPortFailure,
        Scenario::TorSwitchFailure,
        Scenario::SpineSwitchFailure,
        Scenario::PacketDrop75,
        Scenario::TorRebootIsolation,
        Scenario::BlackholeTor,
        Scenario::BlackholeSpine,
    ];

    /// Row label matching the paper.
    pub fn label(&self) -> &'static str {
        match self {
            Scenario::TorPortFailure => "ToR switch port failure",
            Scenario::TorSwitchFailure => "ToR switch failure",
            Scenario::SpineSwitchFailure => "Spine switch failure",
            Scenario::PacketDrop75 => "Packet drop rate=75%",
            Scenario::TorRebootIsolation => "ToR switch reboot/isolation",
            Scenario::BlackholeTor => "Blackhole in a ToR switch",
            Scenario::BlackholeSpine => "Blackhole in a Spine switch",
        }
    }

    /// The paper's LUNA column (SOLAR is 0 everywhere).
    pub fn paper_luna(&self) -> &'static str {
        match self {
            Scenario::TorPortFailure => "0",
            Scenario::TorSwitchFailure => "216",
            Scenario::SpineSwitchFailure => "0",
            Scenario::PacketDrop75 => "10 per second",
            Scenario::TorRebootIsolation => "123",
            Scenario::BlackholeTor => "611",
            Scenario::BlackholeSpine => "1043",
        }
    }
}

/// Count hung I/Os (≥ 1 s without response) for one scenario + variant.
pub fn run_scenario(scenario: Scenario, variant: Variant, quick: bool) -> usize {
    let (n_compute, n_storage) = if quick { (4, 3) } else { (9, 8) };
    let mut cfg = TestbedConfig::small(variant, n_compute, n_storage);
    cfg.seed = 2 + scenario as u64;
    // The paper's testbed scenarios assume normal operations: fabric
    // fail-stop convergence differs per scenario below.
    let mut tb = Testbed::new(cfg);
    for c in 0..n_compute {
        tb.attach_fio(
            SimTime::from_millis(1),
            c,
            FioConfig {
                depth: 2,
                bytes: 16 * 1024,   // mid of the 4-32 KiB band
                read_fraction: 0.2, // read:write 1:4
            },
        );
    }
    let t_fail = SimTime::from_secs(1);
    let tor = tb.fabric().topology().devices_of_kind(DeviceKind::Tor)[0];
    let spine = tb.fabric().topology().devices_of_kind(DeviceKind::Spine)[0];
    match scenario {
        Scenario::TorPortFailure => {
            // A flapping port: 1% loss for 2 s on the ToR; both stacks'
            // retransmissions absorb it.
            tb.schedule_failure(t_fail, tor, FailureMode::RandomLoss { rate: 0.01 });
            tb.schedule_heal(t_fail + SimDuration::from_secs(2), tor);
        }
        Scenario::TorSwitchFailure => {
            // Host-facing failure: bonding failover / host detection is
            // slow, so ECMP exclusion takes ~30 s (beyond the run).
            tb.schedule_failure(t_fail, tor, FailureMode::FailStop);
        }
        Scenario::SpineSwitchFailure => {
            // Fabric-internal fail-stop: link-down propagates and the
            // ToRs re-hash within ~50 ms.
            tb.schedule_failure_with(
                t_fail,
                spine,
                FailureMode::FailStop,
                SimDuration::from_millis(50),
            );
        }
        Scenario::PacketDrop75 => {
            tb.schedule_failure(t_fail, spine, FailureMode::RandomLoss { rate: 0.75 });
        }
        Scenario::TorRebootIsolation => {
            tb.schedule_failure(t_fail, tor, FailureMode::FailStop);
            tb.schedule_heal(t_fail + SimDuration::from_secs(2), tor);
        }
        Scenario::BlackholeTor => {
            tb.schedule_failure(
                t_fail,
                tor,
                FailureMode::Blackhole {
                    fraction: 0.25,
                    salt: 7,
                },
            );
        }
        Scenario::BlackholeSpine => {
            tb.schedule_failure(
                t_fail,
                spine,
                FailureMode::Blackhole {
                    fraction: 0.25,
                    salt: 9,
                },
            );
        }
    }
    let horizon = SimTime::from_secs(if quick { 3 } else { 5 });
    tb.run_until(horizon);
    tb.hung_ios(SimDuration::from_secs(1))
}

/// Hung-I/O counts for the given scenarios, Luna and Solar.
///
/// Every (scenario, variant) cell is an independent simulation with its
/// own seed, so the cells run on scoped threads and are joined back in
/// the caller's order — results are byte-identical to a serial loop (see
/// the `tab2_determinism` integration test).
pub fn tab2_counts(scenarios: &[Scenario], quick: bool) -> Vec<(Scenario, usize, usize)> {
    std::thread::scope(|s| {
        let handles: Vec<_> = scenarios
            .iter()
            .map(|&sc| {
                (
                    sc,
                    s.spawn(move || run_scenario(sc, Variant::Luna, quick)),
                    s.spawn(move || run_scenario(sc, Variant::Solar, quick)),
                )
            })
            .collect();
        handles
            .into_iter()
            .map(|(sc, luna, solar)| {
                (
                    sc,
                    luna.join().expect("luna scenario panicked"),
                    solar.join().expect("solar scenario panicked"),
                )
            })
            .collect()
    })
}

/// Render Table 2 from counts [`tab2_counts`] already computed.
pub fn tab2_render(counts: &[(Scenario, usize, usize)], quick: bool) -> ExperimentOutput {
    let mut table = TextTable::new([
        "failure scenario",
        "Luna",
        "Solar",
        "paper Luna",
        "paper Solar",
    ]);
    for &(s, luna, solar) in counts {
        table.row([
            s.label().to_string(),
            luna.to_string(),
            solar.to_string(),
            s.paper_luna().to_string(),
            "0".to_string(),
        ]);
    }
    ExperimentOutput {
        id: "tab2",
        title: "I/Os with no response in one second or longer under failure scenarios".into(),
        tables: vec![(
            format!(
                "{} testbed, depth 2, 16KB, r:w 1:4 (paper: 90x82 servers, depth 4, 4-32KB)",
                if quick { "4x3" } else { "9x8" }
            ),
            table,
        )],
        notes: vec![
            "Absolute counts scale with testbed size and load; the paper's qualitative result is Solar = 0 in every row.".into(),
        ],
    }
}
