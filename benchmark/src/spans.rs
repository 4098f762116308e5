//! Spans the benchmark records around its own calls into each layer
//! (`dataplane_4k_rw`'s host loop).
//!
//! A span is a named interval on the host's monotonic clock with the span
//! that was open when it started as its parent. A layer's **self time** is
//! its spans' duration minus the part their child spans cover, so nesting
//! (the DPU pipeline calling the CRC and SEC stages) never counts a
//! nanosecond twice. Every span feeds the per-name totals; the first
//! [`KEEP`] are also kept whole, in memory, and written as a Chrome trace
//! when the trial ends. With tracing off `span` is one branch.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// Whole spans kept for the trace file (32 bytes each).
const KEEP: usize = 200_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    BlkRing,
    SaSplit,
    DpuPipeline,
    CryptoBlock,
    CrcBlock,
    CrcAggregate,
    SolarClient,
    SolarResponder,
    WirePool,
    WireCodec,
}

impl Layer {
    pub const ALL: [Layer; 10] = [
        Layer::BlkRing,
        Layer::SaSplit,
        Layer::DpuPipeline,
        Layer::CryptoBlock,
        Layer::CrcBlock,
        Layer::CrcAggregate,
        Layer::SolarClient,
        Layer::SolarResponder,
        Layer::WirePool,
        Layer::WireCodec,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::BlkRing => "blk.ring",
            Layer::SaSplit => "sa.split",
            Layer::DpuPipeline => "dpu.pipeline",
            Layer::CryptoBlock => "crypto.block",
            Layer::CrcBlock => "crc.block",
            Layer::CrcAggregate => "crc.aggregate",
            Layer::SolarClient => "solar.client",
            Layer::SolarResponder => "solar.responder",
            Layer::WirePool => "wire.pool",
            Layer::WireCodec => "wire.codec",
        }
    }
}

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LayerTotals {
    pub spans: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug, Clone, Copy)]
struct Kept {
    layer: Layer,
    /// The I/O this span served (0 when the call serves no single I/O).
    io: u64,
    start_ns: u64,
    dur_ns: u64,
    depth: u8,
}

#[derive(Debug)]
struct Open {
    layer: Layer,
    io: u64,
    start_ns: u64,
    child_ns: u64,
}

/// The span arithmetic, on injected timestamps so tests can drive it.
#[derive(Debug, Default)]
pub struct SpanBook {
    totals: [LayerTotals; Layer::ALL.len()],
    stack: Vec<Open>,
    kept: Vec<Kept>,
}

impl SpanBook {
    pub fn enter(&mut self, layer: Layer, io: u64, now_ns: u64) {
        self.stack.push(Open {
            layer,
            io,
            start_ns: now_ns,
            child_ns: 0,
        });
    }

    /// Close the innermost open span.
    ///
    /// # Panics
    /// Panics without an open span — an unbalanced enter/exit is a bug.
    pub fn exit(&mut self, now_ns: u64) {
        let open = self.stack.pop().expect("exit without enter");
        let layer = open.layer;
        let dur = now_ns.saturating_sub(open.start_ns);
        let t = &mut self.totals[layer as usize];
        t.spans += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if self.kept.len() < KEEP {
            self.kept.push(Kept {
                layer,
                io: open.io,
                start_ns: open.start_ns,
                dur_ns: dur,
                depth: self.stack.len() as u8,
            });
        }
    }

    pub fn totals(&self, layer: Layer) -> LayerTotals {
        self.totals[layer as usize]
    }

    /// Self time summed over every layer: nested spans counted once.
    pub fn self_ns_all(&self) -> u64 {
        self.totals.iter().map(|t| t.self_ns).sum()
    }

    pub fn clear(&mut self) {
        *self = SpanBook::default();
    }

    /// Chrome trace-event JSON of the kept spans: one track per nesting
    /// depth, so a child renders under its parent.
    pub fn chrome_trace(&self) -> String {
        let mut s = String::with_capacity(64 + self.kept.len() * 80);
        s.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, k) in self.kept.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n  {{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{}.{:03},\"dur\":{}.{:03},\"args\":{{\"io\":{}}}}}",
                k.layer.name(),
                k.depth,
                k.start_ns / 1000,
                k.start_ns % 1000,
                k.dur_ns / 1000,
                k.dur_ns % 1000,
                k.io
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

/// The recorder the host loop and the pipeline-stage wrappers share.
/// Interior mutability because a stage wrapper records a child span while
/// the pipeline's own span is open around it.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    book: RefCell<SpanBook>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            book: RefCell::new(SpanBook::default()),
        }
    }

    /// Run `f` inside a span of `layer` serving I/O `io` (just run it when
    /// tracing is off). Spans of one I/O share its identifier.
    #[inline]
    pub fn span<R>(&self, layer: Layer, io: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = self.epoch.elapsed().as_nanos() as u64;
        self.book.borrow_mut().enter(layer, io, t0);
        let r = f();
        let t1 = self.epoch.elapsed().as_nanos() as u64;
        self.book.borrow_mut().exit(t1);
        r
    }

    /// Forget everything recorded so far (end of warm-up).
    pub fn reset(&self) {
        self.book.borrow_mut().clear();
    }

    pub fn with_book<R>(&self, f: impl FnOnce(&SpanBook) -> R) -> R {
        f(&self.book.borrow())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let mut b = SpanBook::default();
        // pipeline [0,100) contains crypto [10,50) and crc [60,80).
        b.enter(Layer::DpuPipeline, 1, 0);
        b.enter(Layer::CryptoBlock, 1, 10);
        b.exit(50);
        b.enter(Layer::CrcBlock, 1, 60);
        b.exit(80);
        b.exit(100);
        assert_eq!(
            b.totals(Layer::DpuPipeline),
            LayerTotals {
                spans: 1,
                total_ns: 100,
                self_ns: 40
            }
        );
        assert_eq!(b.totals(Layer::CryptoBlock).self_ns, 40);
        assert_eq!(b.totals(Layer::CrcBlock).self_ns, 20);
        // Nothing counted twice: self times tile the outer span.
        assert_eq!(b.self_ns_all(), 100);
    }

    #[test]
    fn grandchildren_charge_only_their_parent() {
        let mut b = SpanBook::default();
        b.enter(Layer::SolarClient, 1, 0);
        b.enter(Layer::WirePool, 1, 10);
        b.enter(Layer::WireCodec, 1, 20);
        b.exit(30);
        b.exit(40);
        b.exit(50);
        assert_eq!(b.totals(Layer::WireCodec).self_ns, 10);
        assert_eq!(b.totals(Layer::WirePool).self_ns, 20);
        assert_eq!(b.totals(Layer::SolarClient).self_ns, 20);
    }

    #[test]
    fn sibling_spans_accumulate_per_layer() {
        let mut b = SpanBook::default();
        for i in 0..3 {
            b.enter(Layer::BlkRing, 1, i * 10);
            b.exit(i * 10 + 4);
        }
        assert_eq!(
            b.totals(Layer::BlkRing),
            LayerTotals {
                spans: 3,
                total_ns: 12,
                self_ns: 12
            }
        );
    }

    #[test]
    fn tracer_off_records_nothing_and_trace_is_valid_json() {
        let off = Tracer::new(false);
        assert_eq!(off.span(Layer::BlkRing, 0, || 7), 7);
        assert_eq!(off.with_book(|b| b.totals(Layer::BlkRing).spans), 0);
        let on = Tracer::new(true);
        on.span(Layer::DpuPipeline, 5, || on.span(Layer::CrcBlock, 5, || ()));
        let json = on.with_book(|b| b.chrome_trace());
        let parsed = crate::json::Json::parse(&json).expect("valid JSON");
        assert_eq!(parsed.get("traceEvents").unwrap().as_arr().len(), 2);
    }
}
