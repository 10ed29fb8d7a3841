//! [`TraceSubscriber`]: spans → Chrome trace-event JSON, streamed.
//!
//! The output is the (battle-worn, widely supported) Chrome trace-event
//! array format: open the file in Perfetto or `chrome://tracing` and
//! the probe path renders as flame charts, one track per thread.
//! Memory stays bounded however long the run is: every event is
//! formatted and written as it closes (nothing accumulates beyond the
//! *open* spans), and `--trace-sample N` drops all but every Nth
//! server's gather subtree for million-server censuses.
//!
//! Two renderings, chosen per [`SpanKind`]:
//!
//! * nesting kinds → complete `"X"` events (one line per span, written
//!   at span end with `ts` + `dur`);
//! * [interleaved](SpanKind::interleaved) kinds (flows, multiplexed
//!   reactor sessions) → async `"b"`/`"e"` pairs keyed by
//!   span id, which Perfetto draws on their own tracks.
//!
//! Crash-safe by construction: the trace-event spec tolerates a missing
//! closing `]`, so a SIGKILLed run leaves a loadable file. The
//! subscriber additionally flushes at [`Subscriber::flush`], which the
//! engine calls before it writes a checkpoint, so any record the
//! engine's resume checkpoint covers also has its spans on disk. A clean [`finish`](TraceSubscriber::finish) (or drop)
//! closes the array and yields strictly valid JSON.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

use crate::event::{Event, Subscriber};
use crate::span::{SpanBegin, SpanEnd, SpanId, SpanKind};

/// Flush at least this often, so a killed run loses little.
const FLUSH_EVERY: u32 = 256;

struct Pending {
    kind: SpanKind,
    parent: SpanId,
    arg0: i64,
    arg1: i64,
    virt: f64,
    ts_us: f64,
    tid: u32,
}

struct Inner {
    out: Box<dyn Write + Send>,
    /// No event written yet (controls the `,` separators).
    first: bool,
    /// Open spans, by id.
    pending: HashMap<SpanId, Pending>,
    /// Live span ids dropped by sampling (their ends must be swallowed).
    suppressed: HashSet<SpanId>,
    tids: HashMap<ThreadId, u32>,
    since_flush: u32,
    finished: bool,
    /// First write error: after it, stop writing (trace is best-effort;
    /// it must never take the run down).
    dead: bool,
}

/// A [`Subscriber`] that streams span events to a Chrome trace-event
/// JSON file. Compose it with other subscribers through the usual tuple
/// impl: `(&trace, &metrics)`.
pub struct TraceSubscriber {
    start: Instant,
    /// Keep gather subtrees only for `server_id % sample == 0`
    /// (`<= 1` keeps everything).
    sample: u64,
    inner: Mutex<Inner>,
}

impl TraceSubscriber {
    /// Creates (truncates) `path` and returns a subscriber streaming to
    /// it through a buffered writer.
    pub fn create(path: &Path, sample: u64) -> io::Result<TraceSubscriber> {
        let file = std::fs::File::create(path)?;
        Ok(TraceSubscriber::to_writer(
            Box::new(BufWriter::new(file)),
            sample,
        ))
    }

    /// Wraps an arbitrary writer (tests use a shared `Vec<u8>`).
    pub fn to_writer(mut out: Box<dyn Write + Send>, sample: u64) -> TraceSubscriber {
        let dead = out.write_all(b"[\n").is_err();
        TraceSubscriber {
            start: Instant::now(),
            sample,
            inner: Mutex::new(Inner {
                out,
                first: true,
                pending: HashMap::new(),
                suppressed: HashSet::new(),
                tids: HashMap::new(),
                since_flush: 0,
                finished: false,
                dead,
            }),
        }
    }

    /// Closes the JSON array and flushes. Idempotent; also runs on
    /// drop. After this the subscriber silently discards events.
    pub fn finish(&self) {
        let mut inner = self.inner.lock().expect("trace subscriber poisoned");
        if inner.finished {
            return;
        }
        inner.finished = true;
        if inner.dead {
            return;
        }
        let _ = inner.out.write_all(b"\n]\n");
        let _ = inner.out.flush();
    }

    fn now_us(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e6
    }

    /// Writes one already-formatted event object (no surrounding
    /// punctuation) and handles separators/flushing.
    fn emit(inner: &mut Inner, line: &str) {
        if inner.finished || inner.dead {
            return;
        }
        let sep: &[u8] = if inner.first { b"" } else { b",\n" };
        inner.first = false;
        if inner.out.write_all(sep).is_err() || inner.out.write_all(line.as_bytes()).is_err() {
            inner.dead = true;
            return;
        }
        inner.since_flush += 1;
        if inner.since_flush >= FLUSH_EVERY {
            inner.since_flush = 0;
            if inner.out.flush().is_err() {
                inner.dead = true;
            }
        }
    }

    /// Resolves the calling thread to a small track id, emitting the
    /// thread-name metadata event the first time a thread appears.
    fn tid(&self, inner: &mut Inner) -> u32 {
        let key = std::thread::current().id();
        if let Some(&tid) = inner.tids.get(&key) {
            return tid;
        }
        let tid = inner.tids.len() as u32 + 1;
        inner.tids.insert(key, tid);
        let name = std::thread::current()
            .name()
            .filter(|n| {
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "-_.: ".contains(c))
            })
            .map(str::to_owned)
            .unwrap_or_else(|| format!("thread-{tid}"));
        let line = format!(
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"{name}\"}}}}"
        );
        Self::emit(inner, &line);
        tid
    }

    fn args_json(kind: SpanKind, parent: SpanId, arg0: i64, arg1: i64, virt: f64) -> String {
        let mut s = String::with_capacity(64);
        let [n0, n1] = kind.arg_names();
        let _ = write!(s, "{{\"parent\":{parent}");
        if !n0.is_empty() {
            let _ = write!(s, ",\"{n0}\":{arg0}");
        }
        if !n1.is_empty() {
            let _ = write!(s, ",\"{n1}\":{arg1}");
        }
        if virt >= 0.0 {
            let _ = write!(s, ",\"virt\":{virt:.9}");
        }
        s.push('}');
        s
    }

    /// Opens a span: `"b"` written now for interleaved kinds, the rest
    /// held until their end.
    fn begin(&self, event: SpanBegin) {
        let ts_us = self.now_us();
        let mut inner = self.inner.lock().expect("trace subscriber poisoned");
        if inner.finished {
            return;
        }
        // Sampling: drop whole gather subtrees, children included.
        if self.sample > 1 {
            let sampled_out =
                event.kind == SpanKind::Gather && !(event.arg0 as u64).is_multiple_of(self.sample);
            if sampled_out || (event.parent != 0 && inner.suppressed.contains(&event.parent)) {
                inner.suppressed.insert(event.id);
                return;
            }
        }
        let tid = self.tid(&mut inner);
        if event.kind.interleaved() {
            let args =
                Self::args_json(event.kind, event.parent, event.arg0, event.arg1, event.virt);
            let line = format!(
                "{{\"ph\":\"b\",\"cat\":\"caai\",\"id\":\"{id}\",\"name\":\"{name}\",\
                 \"pid\":1,\"tid\":{tid},\"ts\":{ts_us:.3},\"args\":{args}}}",
                id = event.id,
                name = event.kind.name(),
            );
            Self::emit(&mut inner, &line);
        }
        inner.pending.insert(
            event.id,
            Pending {
                kind: event.kind,
                parent: event.parent,
                arg0: event.arg0,
                arg1: event.arg1,
                virt: event.virt,
                ts_us,
                tid,
            },
        );
    }

    /// Closes a span: `"e"` for interleaved kinds, one `"X"` otherwise.
    fn end(&self, event: SpanEnd) {
        let end_us = self.now_us();
        let mut inner = self.inner.lock().expect("trace subscriber poisoned");
        if inner.finished {
            return;
        }
        if inner.suppressed.remove(&event.id) {
            return;
        }
        let Some(open) = inner.pending.remove(&event.id) else {
            return; // began before this subscriber attached
        };
        if open.kind.interleaved() {
            let tid = self.tid(&mut inner);
            let line = format!(
                "{{\"ph\":\"e\",\"cat\":\"caai\",\"id\":\"{id}\",\"name\":\"{name}\",\
                 \"pid\":1,\"tid\":{tid},\"ts\":{end_us:.3}}}",
                id = event.id,
                name = open.kind.name(),
            );
            Self::emit(&mut inner, &line);
        } else {
            let virt = if event.virt >= 0.0 && open.virt >= 0.0 {
                event.virt - open.virt
            } else {
                -1.0
            };
            let mut args = Self::args_json(open.kind, open.parent, open.arg0, open.arg1, open.virt);
            if virt >= 0.0 {
                args.pop();
                let _ = write!(args, ",\"virt_dur\":{virt:.9}}}");
            }
            let line = format!(
                "{{\"ph\":\"X\",\"cat\":\"caai\",\"name\":\"{name}\",\"pid\":1,\
                 \"tid\":{tid},\"ts\":{ts:.3},\"dur\":{dur:.3},\"id\":\"{id}\",\"args\":{args}}}",
                name = open.kind.name(),
                tid = open.tid,
                ts = open.ts_us,
                dur = (end_us - open.ts_us).max(0.0),
                id = event.id,
            );
            Self::emit(&mut inner, &line);
        }
    }
}

impl Subscriber for TraceSubscriber {
    #[inline(always)]
    fn on_event(&self, event: &Event<'_>) {
        match event {
            Event::SpanBegin(e) => self.begin(*e),
            Event::SpanEnd(e) => self.end(*e),
            _ => {}
        }
    }

    fn flush(&self) {
        let mut inner = self.inner.lock().expect("trace subscriber poisoned");
        if inner.finished || inner.dead {
            return;
        }
        inner.since_flush = 0;
        if inner.out.flush().is_err() {
            inner.dead = true;
        }
    }
}

impl Drop for TraceSubscriber {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{span_begin, span_begin_async};
    use std::sync::Arc;

    /// A `Write` that appends into a shared buffer the test can read
    /// back after the subscriber is dropped.
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn capture(sample: u64, run: impl FnOnce(&TraceSubscriber)) -> String {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let trace = TraceSubscriber::to_writer(Box::new(SharedBuf(Arc::clone(&buf))), sample);
        run(&trace);
        trace.finish();
        let bytes = buf.lock().unwrap().clone();
        String::from_utf8(bytes).unwrap()
    }

    #[test]
    fn clean_finish_is_valid_json_with_x_events() {
        let text = capture(0, |trace| {
            let g = span_begin(trace, SpanKind::Gather, 42, 0);
            let r = span_begin(trace, SpanKind::RungAttempt, 512, 1);
            r.end(trace);
            g.end(trace);
        });
        let v = serde_json::from_str::<serde::Value>(&text).expect("valid JSON");
        let events = v.as_seq().expect("array");
        // thread_name metadata + two X events
        assert_eq!(events.len(), 3);
        let x: Vec<_> = events
            .iter()
            .filter_map(|e| e.as_map())
            .filter(|m| serde::get_field(m, "ph").and_then(|v| v.as_str()) == Some("X"))
            .collect();
        assert_eq!(x.len(), 2);
        // Inner rung ends first, so it is written first.
        assert_eq!(
            serde::get_field(x[0], "name").and_then(|v| v.as_str()),
            Some("gather.rung")
        );
    }

    #[test]
    fn interleaved_kinds_render_as_async_pairs() {
        let text = capture(0, |trace| {
            let a = span_begin_async(trace, SpanKind::Flow, 0, 0, 10);
            let b = span_begin_async(trace, SpanKind::Flow, 0, 1, 20);
            a.end(trace);
            b.end(trace);
        });
        assert_eq!(text.matches("\"ph\":\"b\"").count(), 2);
        assert_eq!(text.matches("\"ph\":\"e\"").count(), 2);
        serde_json::from_str::<serde::Value>(&text).expect("valid JSON");
    }

    #[test]
    fn sampling_drops_whole_gather_subtrees() {
        let text = capture(10, |trace| {
            for server in 0..20i64 {
                let g = span_begin(trace, SpanKind::Gather, server, 0);
                let r = span_begin(trace, SpanKind::RungAttempt, 512, 0);
                r.end(trace);
                g.end(trace);
            }
        });
        // Servers 0 and 10 survive; each contributes a gather + a rung.
        assert_eq!(text.matches("\"name\":\"gather\"").count(), 2);
        assert_eq!(text.matches("\"name\":\"gather.rung\"").count(), 2);
    }

    #[test]
    fn unclosed_file_is_still_line_salvageable() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let trace = TraceSubscriber::to_writer(Box::new(SharedBuf(Arc::clone(&buf))), 0);
        let g = span_begin(&trace, SpanKind::Gather, 1, 0);
        g.end(&trace);
        {
            // Simulate SIGKILL: force bytes out without finish().
            let mut inner = trace.inner.lock().unwrap();
            inner.out.flush().unwrap();
        }
        let bytes = buf.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("[\n"));
        assert!(!text.trim_end().ends_with(']'));
        // Every complete line after the opener parses on its own.
        for line in text.lines().skip(1) {
            let line = line.trim().trim_end_matches(',');
            if !line.is_empty() {
                serde_json::from_str::<serde::Value>(line).expect("line parses");
            }
        }
        drop(trace);
    }
}
