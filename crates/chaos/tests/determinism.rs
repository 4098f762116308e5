//! Seed-replay determinism: running the same seed twice must reproduce
//! the schedule, the verdicts and the observability snapshot
//! byte-for-byte. This is the property the whole subsystem leans on —
//! `--replay <seed>` is only a debugger if it replays *exactly*.

use ebs_chaos::{run_schedule, run_schedule_sharded, ChaosConfig, Schedule};
use ebs_stack::Variant;

#[test]
fn same_seed_replays_bit_identically() {
    for variant in [Variant::Luna, Variant::Solar] {
        let cfg = ChaosConfig::smoke(variant);
        for seed in [0u64, 3, 11, 42, 0xEB5] {
            let s1 = Schedule::generate(seed, &cfg);
            let s2 = Schedule::generate(seed, &cfg);
            assert_eq!(s1.to_json(), s2.to_json(), "schedule diverged, seed {seed}");

            let o1 = run_schedule(&s1);
            let o2 = run_schedule(&s2);
            assert_eq!(
                o1.verdicts_json(),
                o2.verdicts_json(),
                "verdicts diverged, seed {seed} ({})",
                variant.label()
            );
            assert_eq!(
                o1.metrics_json,
                o2.metrics_json,
                "obs metrics snapshot diverged, seed {seed} ({})",
                variant.label()
            );
        }
    }
}

/// The sharded engine is a drop-in replay target: the same chaos seed
/// replayed through a sharded fleet must be byte-identical whatever the
/// thread count, and replaying twice must reproduce the outcome exactly
/// — the `--replay` contract extended to the fleet engine. The smoke
/// envelope has 2+2 servers, so 2 shards is the deepest non-degenerate
/// split (every shard keeps a compute and a storage).
#[test]
fn chaos_seed_replays_through_the_sharded_engine() {
    for variant in [Variant::Luna, Variant::Solar] {
        let cfg = ChaosConfig::smoke(variant);
        for seed in [3u64, 42] {
            let sched = Schedule::generate(seed, &cfg);
            let serial = run_schedule_sharded(&sched, 2, 1);
            let again = run_schedule_sharded(&sched, 2, 1);
            assert_eq!(
                serial.verdicts_json(),
                again.verdicts_json(),
                "sharded replay diverged, seed {seed} ({})",
                variant.label()
            );
            assert_eq!(serial.metrics_json, again.metrics_json);
            let threaded = run_schedule_sharded(&sched, 2, 2);
            assert_eq!(
                serial.verdicts_json(),
                threaded.verdicts_json(),
                "2-thread sharded replay diverged, seed {seed} ({})",
                variant.label()
            );
            assert_eq!(
                serial.metrics_json, threaded.metrics_json,
                "2-thread fleet digest diverged, seed {seed}"
            );
            // The flat runner is the one-shard fleet.
            let flat = run_schedule(&sched);
            let one_shard = run_schedule_sharded(&sched, 1, 1);
            assert_eq!(flat.verdicts_json(), one_shard.verdicts_json());
            assert_eq!(flat.metrics_json, one_shard.metrics_json);
        }
    }
}

#[test]
fn soak_envelope_is_deterministic_too() {
    let cfg = ChaosConfig::soak(Variant::Solar);
    let s1 = Schedule::generate(7, &cfg);
    let s2 = Schedule::generate(7, &cfg);
    assert_eq!(s1.to_json(), s2.to_json());
    let o1 = run_schedule(&s1);
    let o2 = run_schedule(&s2);
    assert_eq!(o1.verdicts_json(), o2.verdicts_json());
    assert_eq!(o1.metrics_json, o2.metrics_json);
}
