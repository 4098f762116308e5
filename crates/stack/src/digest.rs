//! What a run looks like from outside: the determinism digest, the
//! metrics snapshot, and the per-node stats accessors.

use std::fmt::Write as _;

use ebs_obs::{EventKind, Journal, Metrics, Sample};
use ebs_sa::IoKind;
use ebs_sim::{Fnv1a, SimDuration, SimTime};

use crate::diag::IoExplanation;
use crate::testbed::Testbed;
use crate::trace::IoTrace;

impl Testbed {
    /// All I/O traces so far.
    pub fn traces(&self) -> &[IoTrace] {
        &self.w.traces
    }

    /// The observability journal: per-I/O component spans + transport
    /// instants.
    pub fn journal(&self) -> &Journal {
        &self.w.journal
    }

    /// The metrics registry as of the last [`Testbed::sample_obs`].
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Refresh the metrics registry from every instrumented component.
    /// The registry is cleared first, so gauges/histograms reflect *now*
    /// and counters are totals-since-construction (the [`Sample`]
    /// convention).
    pub fn sample_obs(&mut self) {
        let (q, m) = (&self.w.net.q, &mut self.metrics);
        let now = q.now();
        m.clear();
        self.w.net.fabric.sample_into(now, m);
        for c in &self.computes {
            c.cpu.sample_into(now, m);
            c.pcie.sample_into(now, m);
            c.qos.sample_into(now, m);
            for conn in c.conns.values() {
                conn.sample_into(now, m);
            }
        }
        for s in &self.storages {
            s.backend.sample_into(now, m);
            for conn in s.conns.values() {
                conn.sample_into(now, m);
            }
        }
        m.counter_add("sim", "events_scheduled", q.events_scheduled());
        m.counter_add("sim", "events_processed", q.events_processed());
        m.gauge_set("sim", "queue_len", q.len() as f64);
        m.gauge_set("sim", "max_queued", q.max_queued() as f64);
        m.counter_add("obs", "journal_events", self.w.journal.len() as u64);
        m.counter_add("obs", "journal_dropped", self.w.journal.dropped());
        if let Some(p) = self.w.prof.as_deref() {
            m.counter_add("prof", "pop_ns", p.pop_ns);
            m.counter_add("prof", "net_ns", p.net_ns);
            m.counter_add("prof", "deliver_ns", p.deliver_ns);
            m.counter_add("prof", "pump_ns", p.pump_ns);
            m.counter_add("prof", "host_ns", p.host_ns);
            m.counter_add("prof", "events", p.events);
        }
    }

    /// Explain the slowest completed I/O recorded in the journal: its
    /// hop-by-hop component timeline (None when nothing completed yet).
    pub fn explain_slowest_io(&self) -> Option<IoExplanation> {
        crate::diag::explain_slowest(&self.w.journal)
    }

    /// Completed I/Os and bytes on one compute server.
    pub fn compute_progress(&self, compute: usize) -> (u64, u64) {
        let c = &self.computes[compute];
        (c.completed_ios, c.completed_bytes)
    }

    /// (admitted, throttled) I/O counts of one compute server's QoS table
    /// (admission-conservation checks: every submitted I/O is admitted
    /// exactly once).
    pub fn qos_stats(&self, compute: usize) -> (u64, u64) {
        let c = &self.computes[compute];
        (c.qos.admitted_ios(), c.qos.throttled_ios())
    }

    /// Consumed DPU-CPU cores on one compute server (Table 1 metric).
    pub fn consumed_cores(&self, compute: usize) -> f64 {
        self.computes[compute].cpu.consumed_cores(self.now())
    }

    /// Total SOLAR retransmissions across this compute server's clients.
    pub fn solar_retransmits(&self, compute: usize) -> u64 {
        let conns = self.computes[compute].conns.values();
        conns.map(|c| c.solar_retransmits()).sum()
    }

    /// Reset CPU/PCIe accounting on all compute servers (post-warm-up).
    pub fn reset_compute_stats(&mut self) {
        let now = self.now();
        for c in &mut self.computes {
            c.cpu.reset_stats(now);
            c.pcie.reset_stats(now);
        }
    }

    /// I/Os submitted but not yet completed across all compute servers.
    pub fn outstanding_ios(&self) -> usize {
        self.computes.iter().map(|c| c.outstanding()).sum()
    }

    /// Events currently queued in the simulator (quiescence diagnostics;
    /// an idle testbed holds only periodic timer/probe events).
    pub fn queue_len(&self) -> usize {
        self.w.net.q.len()
    }

    /// Events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.w.net.q.events_processed()
    }

    /// I/Os that were unanswered for ≥ `threshold` as of `now` (Table 2's
    /// metric with threshold = 1 s).
    pub fn hung_ios(&self, threshold: SimDuration) -> usize {
        self.hung_ios_at(self.now(), threshold)
    }

    /// [`Testbed::hung_ios`] at an explicit instant (fleet shards can sit
    /// at different local clocks, so the caller picks the common asof).
    pub fn hung_ios_at(&self, asof: SimTime, threshold: SimDuration) -> usize {
        let hung = self.w.traces.iter().filter(|t| t.hung(asof, threshold));
        hung.count()
    }

    /// Distinct compute servers (≈ VMs) with at least one I/O unanswered
    /// for ≥ `threshold` as of `asof` — the y-axis of the paper's Fig. 8
    /// per-incident curves.
    pub fn hung_vms_at(&self, asof: SimTime, threshold: SimDuration) -> usize {
        let mut hung = vec![false; self.computes.len()];
        for t in self.w.traces.iter().filter(|t| t.hung(asof, threshold)) {
            hung[t.compute] = true;
        }
        hung.iter().filter(|&&h| h).count()
    }

    /// A byte-exact digest of every simulation-visible outcome: event
    /// counts, fabric delivery/drop stats, per-compute progress and QoS
    /// hashes, trace checksums, replication counters and a journal hash.
    /// Two runs are *the same simulation* iff their digests are equal —
    /// this is the sharded engine's N-thread == 1-thread determinism
    /// bar. The evaluation instant is explicit because engines may park
    /// their final clocks differently (legacy run vs windowed run) while
    /// agreeing on every event.
    pub fn metrics_digest(&self, asof: SimTime) -> String {
        let (q, fabric) = (&self.w.net.q, &self.w.net.fabric);
        let mut s = String::new();
        let _ = write!(
            s,
            "events={}/{}",
            q.events_processed(),
            q.events_scheduled()
        );
        let d = fabric.drops();
        let (rh, rm) = fabric.route_cache_stats();
        let _ = write!(
            s,
            " delivered={} drops={}/{}/{}/{}/{} routes={rh}/{rm}",
            fabric.delivered(),
            d.fail_stop,
            d.blackhole,
            d.random_loss,
            d.queue_overflow,
            d.no_route,
        );
        let mut ios = 0u64;
        let mut bytes = 0u64;
        let mut ch = Fnv1a::default();
        for c in &self.computes {
            ios += c.completed_ios;
            bytes += c.completed_bytes;
            ch.u64(c.completed_ios);
            ch.u64(c.completed_bytes);
            ch.u64(c.qos.admitted_ios());
            ch.u64(c.qos.throttled_ios());
        }
        let _ = write!(s, " ios={ios} bytes={bytes} chash={:016x}", ch.finish());
        let mut th = Fnv1a::default();
        let mut completed = 0u64;
        let mut lat_ns = 0u64;
        for t in &self.w.traces {
            th.u64(t.compute as u64);
            th.u64(u64::from(t.kind == IoKind::Write));
            th.u64(t.bytes as u64);
            th.u64(t.submitted.as_nanos());
            th.u64(t.completed.map_or(u64::MAX, |c| c.as_nanos()));
            th.u64(t.qos_delay.as_nanos());
            th.u64(t.sa.as_nanos());
            th.u64(t.fn_.as_nanos());
            th.u64(t.bn.as_nanos());
            th.u64(t.ssd.as_nanos());
            if let Some(c) = t.completed {
                completed += 1;
                lat_ns += c.saturating_since(t.submitted).as_nanos();
            }
        }
        let _ = write!(
            s,
            " traces={completed}/{} lat_ns={lat_ns} thash={:016x} hung={}",
            self.w.traces.len(),
            th.finish(),
            self.hung_ios_at(asof, SimDuration::from_secs(1)),
        );
        if let Some(r) = self.remote.as_deref() {
            let _ = write!(
                s,
                " repl={}/{}/{} rtt_ns={} seq={}",
                r.issued, r.served, r.completed, r.rtt_ns_sum, r.next_seq
            );
        }
        let journal = &self.w.journal;
        let mut jh = Fnv1a::default();
        for e in journal.events() {
            jh.u64(e.at.as_nanos());
            jh.bytes(e.track.as_bytes());
            match e.kind {
                EventKind::Span { name, id, dur } => {
                    jh.bytes(name.as_bytes());
                    jh.u64(id);
                    jh.u64(dur.as_nanos());
                }
                EventKind::Instant { name, id, arg } => {
                    jh.bytes(name.as_bytes());
                    jh.u64(id);
                    jh.u64(arg);
                }
                EventKind::Counter { name, value } => {
                    jh.bytes(name.as_bytes());
                    jh.u64(value as u64);
                }
            }
        }
        let _ = write!(
            s,
            " journal={}+{} jhash={:016x}",
            journal.len(),
            journal.dropped(),
            jh.finish()
        );
        // Appended only when a device was mounted, so historical digests
        // stay byte-identical.
        if let Some(blk) = self.blk.as_deref() {
            blk.digest(&mut s, self.w.net.fabric_bytes);
        }
        s
    }
}
