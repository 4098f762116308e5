//! Diagnostic assertions on testbed health under the experiment
//! workloads: loss-freedom, spurious-retransmission-freedom and the
//! PCIe-ceiling physics that Fig. 14 rests on. These catch
//! miscalibrations that the headline shapes would only show as
//! mysterious slowdowns.

use ebs_sim::{SimDuration, SimTime};
use ebs_stack::{FioConfig, Testbed, TestbedConfig, Variant};

fn fio_tput(variant: Variant, cores: usize, bytes: u32) -> (f64, Testbed) {
    let mut cfg = TestbedConfig::small(variant, 1, 6);
    cfg.compute_cores = cores;
    cfg.seed = 777;
    let mut tb = Testbed::new(cfg);
    tb.attach_fio(
        SimTime::from_millis(1),
        0,
        FioConfig {
            depth: 32,
            bytes,
            read_fraction: 1.0,
        },
    );
    let warm = SimTime::from_millis(15);
    tb.run_until(warm);
    let (_, b0) = tb.compute_progress(0);
    tb.run_until(SimTime::from_millis(45));
    let (_, b1) = tb.compute_progress(0);
    ((b1 - b0) as f64 / 0.030 / 1e6, tb)
}

#[test]
fn solar_fio_read_is_clean_and_fast() {
    let (mbps, tb) = fio_tput(Variant::Solar, 1, 64 * 1024);
    assert_eq!(tb.fabric().drops().total(), 0, "{:?}", tb.fabric().drops());
    assert_eq!(tb.hung_ios(SimDuration::from_millis(500)), 0);
    assert!(mbps > 3000.0, "solar 1-core throughput {mbps:.0} MB/s");
    // Steady state on a healthy fabric: zero retransmissions — neither
    // RTO-spurious (storage-tail RTO floor) nor gap-nack-spurious
    // (receiver-side detection never misfires on reorder-free paths).
    let retransmits = tb.solar_retransmits(0);
    assert_eq!(retransmits, 0, "spurious retransmissions under clean load");
}

#[test]
fn pcie_ceiling_binds_hairpin_paths_not_solar() {
    // Fig. 14a's physics: at 3 cores Luna is pinned at the internal-PCIe
    // goodput ceiling (~4000 MB/s) while Solar reaches toward line rate.
    let (luna3, _) = fio_tput(Variant::Luna, 3, 64 * 1024);
    let (solar3, _) = fio_tput(Variant::Solar, 3, 64 * 1024);
    assert!(
        (3000.0..4400.0).contains(&luna3),
        "luna 3-core {luna3:.0} MB/s vs ~4000 ceiling"
    );
    assert!(
        solar3 > 5200.0,
        "solar 3-core {solar3:.0} MB/s beats the ceiling"
    );
}

#[test]
fn solar_single_core_throughput_gain_matches_paper() {
    let (luna1, _) = fio_tput(Variant::Luna, 1, 64 * 1024);
    let (solar1, _) = fio_tput(Variant::Solar, 1, 64 * 1024);
    let gain = solar1 / luna1;
    assert!(
        (1.5..2.1).contains(&gain),
        "solar/luna 1-core gain {gain:.2} (paper: 1.78)"
    );
}

#[test]
fn luna_fio_read_is_loss_free() {
    let (_, tb) = fio_tput(Variant::Luna, 3, 64 * 1024);
    assert_eq!(tb.fabric().drops().total(), 0, "{:?}", tb.fabric().drops());
}
