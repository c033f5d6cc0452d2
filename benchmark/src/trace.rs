//! Spans and stopwatches for the traced run (`--trace 1`).
//!
//! The spans are recorded from this package, around the calls into each
//! layer; nothing inside the library crates is instrumented. They stay in
//! memory and are written out once, at exit. A span is `(name, start, end,
//! parent)` plus the `(shard, seq)` of the client op it belongs to; a
//! layer's self time is its spans' time minus their children's.
//!
//! With the stopwatch off every probe is one predictable branch, so the
//! untraced run and the traced run share one driver loop.

use crate::json::Json;
use std::path::Path;
use std::time::Instant;

/// No parent / no op.
pub const NONE: u32 = u32::MAX;

#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NONE`].
    pub parent: u32,
    pub shard: u32,
    pub seq: u64,
}

/// Keeps the first `cap` spans (a 30 s engine run makes tens of millions;
/// the aggregates below see all of them) and counts the rest.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
}

impl Tracer {
    pub fn new(cap: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span; returns its index for children to name as parent.
    pub fn push(&mut self, span: Span) -> u32 {
        if self.spans.len() < self.cap {
            self.spans.push(span);
            (self.spans.len() - 1) as u32
        } else {
            self.dropped += 1;
            NONE
        }
    }

    /// Close a span opened with a placeholder end.
    pub fn close(&mut self, idx: u32, end_ns: u64) {
        if let Some(s) = self.spans.get_mut(idx as usize) {
            s.end_ns = end_ns;
        }
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn merge(&mut self, other: Tracer) {
        // Re-base the other tracer's clock and parent indices onto ours.
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        let base = self.spans.len() as u32;
        self.dropped += other.dropped;
        for mut s in other.spans {
            if self.spans.len() >= self.cap {
                self.dropped += 1;
                continue;
            }
            s.start_ns += shift;
            s.end_ns += shift;
            if s.parent != NONE {
                s.parent += base;
            }
            self.spans.push(s);
        }
    }

    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "{{\"workload\":{},\"spans_kept\":{},\"spans_dropped\":{},\"unit\":\"ns\",\"spans\":[",
            Json::Str(workload.into()).render(),
            self.spans.len(),
            self.dropped
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let op = if s.shard == NONE {
                "null".to_string()
            } else {
                format!("[{},{}]", s.shard, s.seq)
            };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"op\":{op}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 == self.spans.len() { "" } else { "," }
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

/// Self-time accounting by call class on one thread. `N` classes; the
/// caller indexes them with its own enum.
pub struct Stopwatch<const N: usize> {
    pub on: bool,
    names: [&'static str; N],
    pub total_ns: [u64; N],
    pub calls: [u64; N],
    pub tracer: Tracer,
    /// Parent and op stamped on the spans recorded next.
    pub parent: u32,
    pub op: (u32, u64),
}

impl<const N: usize> Stopwatch<N> {
    pub fn new(on: bool, names: [&'static str; N], span_cap: usize) -> Self {
        Stopwatch {
            on,
            names,
            total_ns: [0; N],
            calls: [0; N],
            tracer: Tracer::new(if on { span_cap } else { 0 }),
            parent: NONE,
            op: (NONE, 0),
        }
    }

    #[inline]
    pub fn begin(&self) -> u64 {
        if self.on {
            self.tracer.now_ns()
        } else {
            0
        }
    }

    #[inline]
    pub fn end(&mut self, class: usize, t0: u64) {
        if self.on {
            let t1 = self.tracer.now_ns();
            self.total_ns[class] += t1 - t0;
            self.calls[class] += 1;
            self.tracer.push(Span {
                name: self.names[class],
                start_ns: t0,
                end_ns: t1,
                parent: self.parent,
                shard: self.op.0,
                seq: self.op.1,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_off_records_nothing_and_on_partitions_time() {
        let mut off: Stopwatch<2> = Stopwatch::new(false, ["a", "b"], 10);
        let t = off.begin();
        off.end(0, t);
        assert_eq!((off.calls[0], off.tracer.len()), (0, 0));

        let mut on: Stopwatch<2> = Stopwatch::new(true, ["a", "b"], 3);
        for i in 0..5 {
            let t = on.begin();
            std::hint::black_box((0..1000).sum::<u64>());
            on.end(i % 2, t);
        }
        assert_eq!(on.calls, [3, 2]);
        assert_eq!(on.tracer.len(), 3, "span store is capped");
        assert!(on.total_ns[0] > 0);
    }

    #[test]
    fn trace_file_is_valid_json() {
        let mut t = Tracer::new(8);
        let root = t.push(Span {
            name: "op",
            start_ns: 1,
            end_ns: 0,
            parent: NONE,
            shard: 0,
            seq: 7,
        });
        t.push(Span {
            name: "submit",
            start_ns: 2,
            end_ns: 5,
            parent: root,
            shard: 0,
            seq: 7,
        });
        t.close(root, 9);
        let dir = crate::host::out_dir().join(format!("trace-test-{}", std::process::id()));
        let path = dir.join("trace-test.json");
        t.write_json(&path, "test").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let v = Json::parse(&text).unwrap();
        let spans = v.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("end").unwrap().as_f64(), Some(9.0));
        assert_eq!(spans[1].get("parent").unwrap().as_f64(), Some(0.0));
    }
}
