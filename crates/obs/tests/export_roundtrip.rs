//! Round-trips the Chrome trace-event export through a minimal JSON
//! parser: the export must be valid JSON, and `ts` must be monotone
//! non-decreasing within every track (`tid`) — the acceptance contract
//! Perfetto relies on. The workspace vendors no serde, so the validator
//! is a ~100-line recursive-descent parser kept here with the test.

use ebs_obs::export::{chrome_trace, metrics_snapshot};
use ebs_obs::{Journal, Metrics};
use ebs_sim::SimTime;

// --- a minimal JSON value + parser -----------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            b: s.as_bytes(),
            i: 0,
        }
    }

    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.i < self.b.len() && self.b[self.i] == c {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at {}", c as char, self.i))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.b.get(self.i).copied()
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or("eof")? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => self.number(),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self
            .b
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.i).copied().ok_or("eof in string")? {
                b'"' => {
                    self.i += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.i += 1;
                    let esc = self.b.get(self.i).copied().ok_or("eof in escape")?;
                    out.push(match esc {
                        b'n' => '\n',
                        b't' => '\t',
                        c => c as char,
                    });
                    self.i += 1;
                }
                c => {
                    out.push(c as char);
                    self.i += 1;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek().ok_or("eof in array")? {
                b',' => self.i += 1,
                b']' => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                c => return Err(format!("bad array sep {:?} at {}", c as char, self.i)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut kv = Vec::new();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(kv));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.eat(b':')?;
            kv.push((k, self.value()?));
            match self.peek().ok_or("eof in object")? {
                b',' => self.i += 1,
                b'}' => {
                    self.i += 1;
                    return Ok(Json::Obj(kv));
                }
                c => return Err(format!("bad object sep {:?} at {}", c as char, self.i)),
            }
        }
    }
}

fn parse(s: &str) -> Json {
    let mut p = Parser::new(s);
    let v = p
        .value()
        .unwrap_or_else(|e| panic!("invalid JSON: {e}\n{s}"));
    p.ws();
    assert_eq!(p.i, s.len(), "trailing garbage after JSON document");
    v
}

// --- the round-trip tests ---------------------------------------------------

fn sample_journal() -> Journal {
    let mut j = Journal::new();
    let t = SimTime::from_micros;
    // Deliberately interleave tracks and record one span out of time
    // order on the "fn" track's arrival sequence.
    j.instant(t(1), "io", "io.submit", 0, (4096 << 1) | 1);
    j.span("sa", "sa", 0, t(1), t(11));
    j.span("fn", "fn", 0, t(11), t(31));
    j.counter(t(15), "net", "queued_bytes", 8192);
    j.instant(t(2), "io", "io.submit", 1, 4096 << 1);
    j.span("sa", "sa", 1, t(2), t(9));
    j.span("fn", "fn", 1, t(9), t(40));
    j.counter(t(35), "net", "queued_bytes", 0);
    j
}

#[test]
fn chrome_trace_is_valid_json_with_monotone_ts_per_track() {
    let doc = parse(&chrome_trace(&sample_journal()));
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(a)) => a,
        other => panic!("traceEvents missing: {other:?}"),
    };
    assert!(!events.is_empty());

    let mut last_ts: Vec<(f64, f64)> = Vec::new(); // indexed by tid-1: (tid, last ts)
    let mut named_tracks = 0;
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("ph present");
        if ph == "M" {
            assert_eq!(
                e.get("name").and_then(Json::as_str),
                Some("thread_name"),
                "only thread_name metadata emitted"
            );
            named_tracks += 1;
            continue;
        }
        let tid = e.get("tid").and_then(Json::as_f64).expect("tid present");
        let ts = e.get("ts").and_then(Json::as_f64).expect("ts present");
        match last_ts.iter_mut().find(|(t, _)| *t == tid) {
            Some((_, last)) => {
                assert!(
                    ts >= *last,
                    "ts must be monotone within track {tid}: {ts} < {last}"
                );
                *last = ts;
            }
            None => last_ts.push((tid, ts)),
        }
        if ph == "X" {
            assert!(
                e.get("dur").and_then(Json::as_f64).is_some(),
                "span has dur"
            );
        }
    }
    assert_eq!(
        named_tracks,
        last_ts.len(),
        "every track carries a thread_name record"
    );
}

#[test]
fn metrics_snapshot_is_valid_flat_json() {
    let mut m = Metrics::new();
    m.counter_add("net", "drops_total", 7);
    m.gauge_set("dpu.cpu", "utilization", 0.5);
    for v in [100u64, 200, 300] {
        m.observe("solar", "srtt_ns", v);
    }
    let doc = parse(&metrics_snapshot(&m));
    assert_eq!(doc.get("net/drops_total").and_then(Json::as_f64), Some(7.0));
    assert_eq!(
        doc.get("dpu.cpu/utilization").and_then(Json::as_f64),
        Some(0.5)
    );
    let h = doc.get("solar/srtt_ns").expect("histogram summary");
    assert_eq!(h.get("count").and_then(Json::as_f64), Some(3.0));
    assert!(h.get("p99").and_then(Json::as_f64).is_some());
}

#[test]
fn empty_exports_parse_too() {
    assert!(matches!(
        parse(&chrome_trace(&Journal::new())).get("traceEvents"),
        Some(Json::Arr(a)) if a.is_empty()
    ));
    assert_eq!(parse(&metrics_snapshot(&Metrics::new())), Json::Obj(vec![]));
}
