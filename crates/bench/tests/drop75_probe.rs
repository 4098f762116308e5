//! Regression for the hardest Table 2 row: 75% random loss on a spine.
//! SOLAR must complete every I/O in under a second — no retry budget
//! exhaustion, no transmit-queue starvation, no path-flap livelock.

use ebs_net::{DeviceKind, FailureMode};
use ebs_sim::{SimDuration, SimTime};
use ebs_stack::{FioConfig, Testbed, TestbedConfig, Variant};

#[test]
fn drop75_solar_zero_hangs() {
    let (n_compute, n_storage) = (4, 3);
    let mut cfg = TestbedConfig::small(Variant::Solar, n_compute, n_storage);
    cfg.seed = 2 + 3;
    let mut tb = Testbed::new(cfg);
    for c in 0..n_compute {
        tb.attach_fio(
            SimTime::from_millis(1),
            c,
            FioConfig {
                depth: 2,
                bytes: 16 * 1024,
                read_fraction: 0.2,
            },
        );
    }
    let spine = tb.fabric().topology().devices_of_kind(DeviceKind::Spine)[0];
    tb.schedule_failure(
        SimTime::from_secs(1),
        spine,
        FailureMode::RandomLoss { rate: 0.75 },
    );
    tb.run_until(SimTime::from_secs(3));
    let hung = tb.hung_ios(SimDuration::from_secs(1));
    assert_eq!(hung, 0, "solar must ride through 75% loss (paper Table 2)");
    assert!(
        tb.fabric().drops().random_loss > 500,
        "the loss actually happened"
    );
}
