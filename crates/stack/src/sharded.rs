//! The deterministic sharded fleet engine.
//!
//! A [`ShardedTestbed`] runs N independent [`Testbed`] shards — pod-group
//! slices of a region, each with its own event queue, fabric and servers —
//! under a **conservative time-window barrier**. The run is chopped into
//! windows no wider than the *boundary latency* `Lb` (the minimum one-way
//! latency of any cross-shard path, see
//! [`ShardPlan::boundary_latency_of`]). Within a window every shard
//! advances alone; cross-shard traffic parks at the shard's gateway and is
//! exchanged only at window edges.
//!
//! **Why the window bound makes the exchange safe:** a message that
//! reaches its gateway at local time `t ∈ [W, W + w)` lands in the
//! destination shard at `t + Lb ≥ W + Lb ≥ W + w` whenever `w ≤ Lb` — that
//! is, never inside the window it departed in. So running every shard to
//! the edge *before* exchanging cannot miss a causal dependency, and the
//! exchanged messages always inject into the destination's future.
//!
//! **Why N threads and 1 thread are byte-identical:** shards share no
//! mutable state; the only inter-shard channel is the mailbox exchange,
//! and every inbox is sorted by `(sending shard, outbox seq)` — a total
//! order fixed by the simulation itself, not by thread interleaving —
//! before injection. Injection order determines event-queue tie-breaking,
//! so each shard's next window is a pure function of simulation state.
//! Wall-clock time is measured only for the occupancy/stall statistics and
//! never branches the simulation.
//!
//! [`ShardPlan::boundary_latency_of`]: ebs_net::ShardPlan::boundary_latency_of

use std::sync::{Condvar, Mutex};

use ebs_net::ShardPlan;
use ebs_obs::Journal;
use ebs_sim::{SimDuration, SimTime};

use crate::drivers::RemoteMsg;
use crate::testbed::{Testbed, TestbedConfig};

/// Cross-shard replication traffic knobs (the storage clusters' BN
/// replication between pods; §2.1's background east-west traffic).
#[derive(Debug, Clone, Copy)]
pub struct ReplicationConfig {
    /// First tick (jittered per storage server from there).
    pub start: SimTime,
    /// Mean interval between replication RPCs per storage server.
    pub interval: SimDuration,
    /// Blocks per replication RPC.
    pub blocks: u32,
}

/// Fleet configuration: a per-shard [`TestbedConfig`] template plus the
/// sharding/execution knobs. The exchange window is not one: it is always
/// the boundary latency of the shard fabrics.
#[derive(Debug, Clone)]
pub struct ShardedTestbedConfig {
    /// Template every shard is cloned from, carrying the fleet-wide
    /// totals. Per shard only `n_compute`, `n_storage`, `fabric` (rebuilt
    /// right-sized by [`TestbedConfig::small`]), `gateway` and `seed` are
    /// overridden.
    pub base: TestbedConfig,
    /// Number of shards to split the fleet into.
    pub n_shards: u32,
    /// Worker threads (1 = serial in-place execution, same results). The
    /// calling thread counts as one: `threads = k` spawns `k − 1`.
    pub threads: usize,
    /// Cross-shard replication traffic, if any (needs `n_shards > 1`).
    pub replication: Option<ReplicationConfig>,
}

impl ShardedTestbedConfig {
    /// A fleet of `computes` + `storages` servers split into `n_shards`,
    /// with the [`TestbedConfig::small`] model defaults.
    pub fn new(
        variant: crate::Variant,
        computes: usize,
        storages: usize,
        n_shards: u32,
    ) -> ShardedTestbedConfig {
        ShardedTestbedConfig {
            base: TestbedConfig::small(variant, computes, storages),
            n_shards,
            threads: 1,
            replication: None,
        }
    }
}

/// Per-shard execution statistics (deterministic counters plus wall-clock
/// occupancy; the latter never feeds back into the simulation).
#[derive(Debug, Default, Clone, Copy)]
pub struct ShardStats {
    /// Wall nanoseconds spent running this shard's windows.
    pub busy_ns: u64,
    /// Messages this shard sent across the boundary.
    pub sent: u64,
    /// Messages injected into this shard.
    pub received: u64,
}

/// Per-worker execution statistics (one entry per thread; serial runs
/// have exactly one).
#[derive(Debug, Default, Clone, Copy)]
pub struct WorkerStats {
    /// Wall nanoseconds spent running shards.
    pub busy_ns: u64,
    /// Wall nanoseconds spent waiting at window barriers.
    pub stall_ns: u64,
    /// Windows executed.
    pub windows: u64,
}

/// A fleet of single-pod-group [`Testbed`]s under the window barrier.
/// See the module docs.
pub struct ShardedTestbed {
    shards: Vec<Testbed>,
    stats: Vec<ShardStats>,
    workers: Vec<WorkerStats>,
    threads: usize,
    /// The exchange window: the boundary latency `Lb` of the shard
    /// fabrics, the widest window that stays conservative. A message
    /// lands `Lb` after it departs, so it can never land inside its own
    /// window.
    window: SimDuration,
    /// Last committed window edge: every shard has run exactly to here.
    now: SimTime,
    windows: u64,
    exchanged: u64,
}

// The parallel executor moves whole shards across threads.
const fn assert_send<T: Send>() {}
const _: () = assert_send::<Testbed>();

/// Which shard a message is heading *to* on its current leg (responses
/// travel back to their issuer).
fn leg_dst(m: &RemoteMsg) -> usize {
    (if m.is_resp { m.src_shard } else { m.dst_shard }) as usize
}

/// Which shard a message is coming *from* on its current leg — the shard
/// whose gateway stamped `seq`, which makes `(leg_src, seq)` the total
/// order for mailbox drains.
fn leg_src(m: &RemoteMsg) -> u32 {
    if m.is_resp {
        m.dst_shard
    } else {
        m.src_shard
    }
}

/// One shard's half of a window: run it to `edge` (parking its clock
/// there when `park`), hand every message that reached its gateway to
/// `stage`, and account the wall time. Returns the nanoseconds spent.
fn run_to_edge(
    tb: &mut Testbed,
    st: &mut ShardStats,
    edge: SimTime,
    park: bool,
    mut stage: impl FnMut(RemoteMsg),
) -> u64 {
    let t0 = crate::wallclock::now();
    tb.run_until(edge);
    if park {
        tb.advance_clock_to(edge);
    }
    for m in tb.take_remote_outbox() {
        st.sent += 1;
        stage(m);
    }
    let d = t0.elapsed().as_nanos() as u64;
    st.busy_ns += d;
    d
}

/// The other half: inject a shard's inbox in the simulation-defined total
/// order `(sending shard, outbox seq)`. Whatever order the executor staged
/// the messages in dies here.
fn inject_sorted(
    tb: &mut Testbed,
    st: &mut ShardStats,
    inbox: &mut Vec<RemoteMsg>,
    boundary_latency: SimDuration,
) {
    inbox.sort_by_key(|m| (leg_src(m), m.seq));
    for m in inbox.drain(..) {
        st.received += 1;
        tb.inject_remote(m.depart + boundary_latency, m);
    }
}

impl ShardedTestbed {
    /// Build the fleet: partition the servers (see [`ShardPlan`]), build
    /// one right-sized [`Testbed`] per shard, and wire up replication.
    pub fn new(cfg: ShardedTestbedConfig) -> ShardedTestbed {
        let plan = ShardPlan::partition(
            cfg.base.n_compute as u32,
            cfg.base.n_storage as u32,
            cfg.n_shards,
        );
        let n = plan.shards.len();
        let replicate = cfg.replication.filter(|_| n > 1);
        let min_peer_storages = plan.shards.iter().map(|s| s.storages).min().unwrap_or(0);

        let mut shards = Vec::with_capacity(n);
        for (i, slice) in plan.shards.iter().enumerate() {
            // Per-shard overrides: n_compute, n_storage, fabric, seed, gateway.
            let mut c = cfg.base.clone();
            c.n_compute = slice.computes as usize;
            c.n_storage = slice.storages as usize;
            c.fabric = TestbedConfig::small(c.variant, c.n_compute, c.n_storage).fabric;
            // Distinct workloads per shard; shard 0 keeps the template
            // seed so a 1-shard fleet replays the legacy testbed exactly.
            c.seed = cfg.base.seed.wrapping_add(i as u64);
            c.gateway = replicate.is_some();
            if c.gateway {
                // The gateway needs a spare server slot.
                while fabric_slots(&c) <= c.n_compute + c.n_storage {
                    c.fabric.pods_per_dc += 1;
                }
            }
            let mut tb = Testbed::new(c);
            if let Some(r) = replicate {
                tb.enable_remote_replication(
                    r.start,
                    i as u32,
                    n as u32,
                    min_peer_storages,
                    r.interval,
                    r.blocks,
                );
            }
            shards.push(tb);
        }

        let window = shards
            .iter()
            .map(|tb| ShardPlan::boundary_latency_of(&tb.config().fabric))
            .min()
            .expect("partition yields at least one shard");
        assert!(window > SimDuration::ZERO, "empty exchange window");
        let threads = cfg.threads.max(1);
        ShardedTestbed {
            stats: vec![ShardStats::default(); n],
            workers: vec![WorkerStats::default(); threads.min(n.max(1))],
            shards,
            threads,
            window,
            now: SimTime::ZERO,
            windows: 0,
            exchanged: 0,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// One shard's testbed (workload attachment, incident scheduling,
    /// per-shard metrics).
    pub fn shard(&self, i: usize) -> &Testbed {
        &self.shards[i]
    }

    /// Mutable access to one shard's testbed.
    pub fn shard_mut(&mut self, i: usize) -> &mut Testbed {
        &mut self.shards[i]
    }

    /// Last committed window edge (every shard has run exactly to here).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The exchange window: the boundary latency of the shard fabrics.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Per-shard execution statistics.
    pub fn shard_stats(&self) -> &[ShardStats] {
        &self.stats
    }

    /// Per-worker execution statistics (length = effective thread count).
    pub fn worker_stats(&self) -> &[WorkerStats] {
        &self.workers
    }

    /// Total cross-shard messages exchanged so far.
    pub fn exchanged(&self) -> u64 {
        self.exchanged
    }

    /// Windows executed so far.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Run every shard to `horizon` in lock-stepped exchange windows.
    pub fn run_until(&mut self, horizon: SimTime) {
        if self.threads <= 1 || self.shards.len() <= 1 {
            self.run_serial(horizon);
        } else {
            self.run_parallel(horizon);
        }
        // `received` accumulates across calls, so this is a running total.
        self.exchanged = self.stats.iter().map(|s| s.received).sum();
    }

    /// Total `(completed I/Os, completed bytes)` across the fleet.
    pub fn total_progress(&self) -> (u64, u64) {
        let mut ios = 0;
        let mut bytes = 0;
        for tb in &self.shards {
            for c in 0..tb.config().n_compute {
                let (i, b) = tb.compute_progress(c);
                ios += i;
                bytes += b;
            }
        }
        (ios, bytes)
    }

    /// Fleet-wide hung-VM count as of the committed edge (Fig. 8 metric).
    pub fn hung_vms(&self, threshold: SimDuration) -> usize {
        self.shards
            .iter()
            .map(|tb| tb.hung_vms_at(self.now, threshold))
            .sum()
    }

    /// Fleet-wide replication counters:
    /// `(issued, served, completed, rtt_ns_sum)`.
    pub fn replication_totals(&self) -> (u64, u64, u64, u64) {
        let mut t = (0, 0, 0, 0);
        for tb in &self.shards {
            let (i, s, c, r) = tb.replication_stats();
            t.0 += i;
            t.1 += s;
            t.2 += c;
            t.3 += r;
        }
        t
    }

    /// The fleet determinism digest: every shard's
    /// [`Testbed::metrics_digest`] (evaluated at the committed edge, so
    /// engines agree on the asof) plus the exchange totals. Byte-equal
    /// digests ⇔ byte-equal simulations; this is the N-thread ==
    /// 1-thread acceptance bar.
    pub fn metrics_digest(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (i, tb) in self.shards.iter().enumerate() {
            let _ = writeln!(s, "[shard {i}] {}", tb.metrics_digest(self.now));
        }
        let _ = write!(
            s,
            "[fleet] windows={} exchanged={}",
            self.windows, self.exchanged
        );
        s
    }

    /// Merge every shard's journal into one, in shard order (shard 0's
    /// events first). Within a shard the order is the shard's own
    /// deterministic recording order, so the merge is reproducible.
    pub fn merged_journal(&self) -> Journal {
        let total: usize = self.shards.iter().map(|tb| tb.journal().len()).sum();
        let mut merged = Journal::with_capacity(total.max(1));
        for tb in &self.shards {
            for e in tb.journal().events() {
                merged.record(e.at, e.track, e.kind);
            }
        }
        merged
    }

    /// Serial reference executor: identical window/exchange sequence to
    /// the parallel path, one shard at a time in shard order.
    fn run_serial(&mut self, horizon: SimTime) {
        let n = self.shards.len();
        // A lone shard has no boundary to exchange across, so nothing
        // bounds its window: it runs to the horizon in one step, and its
        // clock parks on its last event exactly as a standalone
        // `Testbed`'s does — a one-shard fleet *is* its template testbed,
        // clock-dependent gauges included.
        let lone = n == 1;
        let mut staged: Vec<Vec<RemoteMsg>> = vec![Vec::new(); n];
        let t_worker = crate::wallclock::now();
        while self.now < horizon {
            let edge = if lone {
                horizon
            } else {
                (self.now + self.window).min(horizon)
            };
            for (tb, st) in self.shards.iter_mut().zip(&mut self.stats) {
                run_to_edge(tb, st, edge, !lone, |m| staged[leg_dst(&m)].push(m));
            }
            for ((tb, st), inbox) in self.shards.iter_mut().zip(&mut self.stats).zip(&mut staged) {
                inject_sorted(tb, st, inbox, self.window);
            }
            self.now = edge;
            self.windows += 1;
            self.workers[0].windows += 1;
        }
        self.workers[0].busy_ns = self.stats.iter().map(|s| s.busy_ns).sum();
        self.workers[0].stall_ns =
            (t_worker.elapsed().as_nanos() as u64).saturating_sub(self.workers[0].busy_ns);
    }

    /// Parallel executor: the caller is worker 0 and `k − 1` scoped
    /// threads are the rest, one barrier wait per window. Within a window
    /// a worker claims shards from its home range front to back, then
    /// steals from the back of the fullest range. Whoever claims a shard
    /// first injects its inbox from the previous window (mailboxes are
    /// double-buffered by window parity), then runs it. Every inbox is
    /// sorted before injection, so which thread ran a shard never reaches
    /// the simulation: results are byte-identical to
    /// [`ShardedTestbed::run_serial`].
    fn run_parallel(&mut self, horizon: SimTime) {
        let n = self.shards.len();
        let k = self.threads.min(n);
        let window = self.window;
        let mut edges = Vec::new();
        let mut now = self.now;
        while now < horizon {
            now = (now + window).min(horizon);
            edges.push(now);
        }
        let home = |w: usize| w * n / k..(w + 1) * n / k;

        let slots: Vec<Mutex<(&mut Testbed, &mut ShardStats)>> = self
            .shards
            .iter_mut()
            .zip(&mut self.stats)
            .map(Mutex::new)
            .collect();
        let mail: [Vec<Mutex<Vec<RemoteMsg>>>; 2] =
            std::array::from_fn(|_| (0..n).map(|_| Mutex::new(Vec::new())).collect());
        // (window the ranges were dealt for, unclaimed shards per worker).
        // The barrier puts every claim of window j before any of j + 1, so
        // the first claim of a window deals the home ranges afresh.
        let claims = Mutex::new((usize::MAX, Vec::new()));
        let claim = |j: usize, w: usize| {
            let mut g = claims.lock().expect("claim ranges poisoned");
            let (dealt, ranges) = &mut *g;
            if *dealt != j {
                *dealt = j;
                *ranges = (0..k).map(home).collect();
            }
            ranges[w].next().or_else(|| {
                let fullest = ranges.iter_mut().max_by_key(|r| r.len())?;
                fullest.next_back()
            })
        };
        let barrier = WindowBarrier {
            parties: k,
            state: Mutex::default(),
            cv: Condvar::new(),
        };

        let work = |w: usize| {
            let _poison = PoisonOnUnwind(&barrier);
            let mut ws = WorkerStats::default();
            let inject = |(tb, st): &mut (&mut Testbed, &mut ShardStats), inbox: &Mutex<_>| {
                inject_sorted(tb, st, &mut inbox.lock().expect("mailbox poisoned"), window);
            };
            for (j, &edge) in edges.iter().enumerate() {
                let (inbox, outbox) = (&mail[(j + 1) % 2], &mail[j % 2]);
                while let Some(i) = claim(j, w) {
                    let mut slot = slots[i].lock().expect("shard slot poisoned");
                    inject(&mut slot, &inbox[i]);
                    let (tb, st) = &mut *slot;
                    ws.busy_ns += run_to_edge(tb, st, edge, true, |m| {
                        outbox[leg_dst(&m)]
                            .lock()
                            .expect("mailbox poisoned")
                            .push(m);
                    });
                }
                let b0 = crate::wallclock::now();
                barrier.wait();
                ws.stall_ns += b0.elapsed().as_nanos() as u64;
                ws.windows += 1;
            }
            // The last window's mail: between calls every inbox is
            // injected, as after the serial executor.
            let last = &mail[(edges.len() + 1) % 2];
            for i in home(w) {
                inject(&mut slots[i].lock().expect("shard slot poisoned"), &last[i]);
            }
            ws
        };

        self.workers = vec![WorkerStats::default(); k];
        std::thread::scope(|scope| {
            let (caller, spawned) = self.workers.split_first_mut().expect("two or more workers");
            for (w, ws) in spawned.iter_mut().enumerate() {
                scope.spawn(move || *ws = work(w + 1));
            }
            *caller = work(0);
        });
        self.windows += edges.len() as u64;
        self.now = self.now.max(horizon);
    }
}

/// The window barrier: `Mutex` + `Condvar`, poisoned by a worker that
/// unwinds (see [`PoisonOnUnwind`]) so the others panic instead of
/// waiting forever for a party that is gone.
struct WindowBarrier {
    parties: usize,
    /// (arrivals so far, poisoned). A wait ends at the next multiple of
    /// `parties` arrivals.
    state: Mutex<(usize, bool)>,
    cv: Condvar,
}

impl WindowBarrier {
    fn wait(&self) {
        let mut s = self.state.lock().expect("window barrier poisoned");
        s.0 += 1;
        let release = s.0.div_ceil(self.parties) * self.parties;
        if s.0 == release {
            self.cv.notify_all();
        }
        let woken = self.cv.wait_while(s, |s| s.0 < release && !s.1);
        // The guard drops here, before the assert can panic.
        let poisoned = woken.expect("window barrier poisoned").1;
        assert!(!poisoned, "another fleet worker panicked");
    }
}

/// Poisons the window barrier if its worker unwinds.
struct PoisonOnUnwind<'a>(&'a WindowBarrier);

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // The barrier never panics holding its lock; ignore the error.
            if let Ok(mut s) = self.0.state.lock() {
                s.1 = true;
            }
            self.0.cv.notify_all();
        }
    }
}

/// Server slots a [`ClosConfig`](ebs_net::ClosConfig) provides.
fn fabric_slots(c: &TestbedConfig) -> usize {
    (c.fabric.dcs * c.fabric.pods_per_dc * c.fabric.tors_per_pod * c.fabric.servers_per_tor)
        as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FioConfig, Variant};
    use ebs_net::{DeviceKind, FailureMode};

    /// The determinism fixture's light fio load.
    const LIGHT: FioConfig = FioConfig {
        depth: 2,
        bytes: 4096,
        read_fraction: 0.5,
    };

    /// The 4-pod determinism fixture: fio load on every compute, one
    /// ToR blackhole incident per engine.
    fn load(tb: &mut Testbed, fio: FioConfig) {
        for c in 0..tb.config().n_compute {
            tb.attach_fio(SimTime::from_millis(1), c, fio);
        }
        let tor = tb.fabric().topology().devices_of_kind(DeviceKind::Tor)[0];
        tb.schedule_failure(
            SimTime::from_millis(5),
            tor,
            FailureMode::Blackhole {
                fraction: 0.5,
                salt: 7,
            },
        );
    }

    #[test]
    fn one_shard_fleet_replays_the_legacy_testbed_byte_for_byte() {
        let horizon = SimTime::from_millis(20);
        // The stock template under the light load, then one template per
        // congestion knob a shard must inherit — fabric ECN marking under
        // SOLAR + DCQCN, the RDMA baseline's DCQCN controller, Swift in
        // LUNA's TCP — under a load deep enough to build the queues and
        // windows those knobs act on.
        let heavy = FioConfig {
            depth: 8,
            bytes: 65536,
            read_fraction: 0.5,
        };
        let mut solar_ecn = TestbedConfig::small(Variant::Solar, 8, 8);
        solar_ecn.ecn.enabled = true;
        solar_ecn.solar.cc = ebs_cc::CcAlgo::Dcqcn;
        let mut rdma_dcqcn = TestbedConfig::small(Variant::Rdma, 8, 8);
        rdma_dcqcn.ecn.enabled = true;
        rdma_dcqcn.rdma.dcqcn = true;
        let mut luna_swift = TestbedConfig::small(Variant::Luna, 8, 8);
        luna_swift.tcp_swift = true;
        let cases = [
            (TestbedConfig::small(Variant::Solar, 8, 8), LIGHT),
            (solar_ecn, heavy),
            (rdma_dcqcn, heavy),
            (luna_swift, heavy),
        ];
        for (base, fio) in cases {
            let mut legacy = Testbed::new(base.clone());
            load(&mut legacy, fio);
            legacy.run_until(horizon);

            let mut cfg = ShardedTestbedConfig::new(base.variant, 8, 8, 1);
            cfg.base = base;
            let mut fleet = ShardedTestbed::new(cfg);
            load(fleet.shard_mut(0), fio);
            fleet.run_until(horizon);

            assert_eq!(
                legacy.metrics_digest(horizon),
                fleet.shard(0).metrics_digest(horizon),
                "single-shard {} fleet must equal the legacy run of its template",
                fleet.shard(0).config().variant.label()
            );
        }
    }

    /// The 4-pod fleet with cross-shard replication, run to 20 ms in
    /// `slices` equal `run_until` calls.
    fn four_pod_fleet(threads: usize, slices: u64) -> ShardedTestbed {
        let mut cfg = ShardedTestbedConfig::new(Variant::Solar, 8, 8, 4);
        cfg.threads = threads;
        cfg.replication = Some(ReplicationConfig {
            start: SimTime::from_millis(1),
            interval: SimDuration::from_micros(200),
            blocks: 4,
        });
        let mut fleet = ShardedTestbed::new(cfg);
        for s in 0..fleet.shards() {
            load(fleet.shard_mut(s), LIGHT);
        }
        for k in 1..=slices {
            fleet.run_until(SimTime::ZERO + SimDuration::from_millis(20) * k / slices);
        }
        fleet
    }

    #[test]
    fn thread_counts_are_byte_identical() {
        let one = four_pod_fleet(1, 1);
        assert!(
            one.exchanged() > 0,
            "fixture must exercise cross-shard traffic"
        );
        let (issued, served, completed, _) = one.replication_totals();
        assert!(
            issued > 0 && served > 0 && completed > 0,
            "full round trips"
        );
        // The window is the boundary latency of the fabrics the shards
        // actually run, not of the template's.
        let lb = (0..one.shards())
            .map(|s| ShardPlan::boundary_latency_of(&one.shard(s).config().fabric))
            .min();
        assert_eq!(Some(one.window()), lb);
        // One call, and 24 as the fleet benchmark cuts its timed segment:
        // each call must leave its last window's mail injected. Three
        // threads on four shards make uneven home ranges.
        for slices in [1, 24] {
            let d1 = four_pod_fleet(1, slices).metrics_digest();
            for threads in [2, 3, 4] {
                let dn = four_pod_fleet(threads, slices).metrics_digest();
                assert_eq!(d1, dn, "{threads} threads, {slices} calls: diverged");
            }
        }
    }

    #[test]
    fn merged_journal_is_deterministic_across_thread_counts() {
        let a = four_pod_fleet(1, 1);
        let b = four_pod_fleet(4, 1);
        let ja: Vec<_> = a.merged_journal().events().collect();
        let jb: Vec<_> = b.merged_journal().events().collect();
        assert_eq!(ja, jb);
    }

    #[test]
    fn worker_stats_account_for_every_window() {
        let busy = |f: &ShardedTestbed| f.shard_stats().iter().map(|s| s.busy_ns).sum::<u64>();
        for threads in [2, 3, 8] {
            let mut fleet = four_pod_fleet(threads, 1);
            let (windows0, busy0) = (fleet.windows(), busy(&fleet));
            fleet.run_until(SimTime::from_millis(30));
            let windows = fleet.windows() - windows0;
            let ws = fleet.worker_stats();
            assert_eq!(ws.len(), threads.min(fleet.shards()));
            assert!(
                windows > 0 && ws.iter().all(|w| w.windows == windows),
                "{ws:?}"
            );
            // Both sides sum the same `run_to_edge` spans.
            let worker_busy: u64 = ws.iter().map(|w| w.busy_ns).sum();
            assert_eq!(worker_busy, busy(&fleet) - busy0, "{threads} threads");
        }
    }

    #[test]
    fn a_panicking_shard_fails_a_parallel_run_instead_of_hanging_it() {
        use std::sync::mpsc::{channel, RecvTimeoutError};
        // Shard 1 is the caller's home, shard 3 a spawned worker's.
        for shard in [1, 3] {
            let (done, finished) = channel();
            let run = std::thread::spawn(move || {
                let mut cfg = ShardedTestbedConfig::new(Variant::Solar, 8, 8, 4);
                cfg.threads = 2;
                let mut fleet = ShardedTestbed::new(cfg);
                // No such device: delivering the failure panics.
                fleet.shard_mut(shard).schedule_failure(
                    SimTime::from_millis(2),
                    ebs_net::DeviceId(1_000_000),
                    FailureMode::FailStop,
                );
                fleet.run_until(SimTime::from_millis(5));
                done.send(()).expect("the test waits for the run");
            });
            match finished.recv_timeout(std::time::Duration::from_secs(60)) {
                Err(RecvTimeoutError::Disconnected) => assert!(run.join().is_err()),
                Ok(()) => panic!("shard {shard} must panic the run"),
                Err(RecvTimeoutError::Timeout) => panic!("shard {shard}'s panic hung the run"),
            }
        }
    }
}
