//! Bench-local timing wrappers for the program's public seams.
//!
//! The layers are measured from outside: nothing here adds a span, a
//! counter or a switch to the program. Each wrapper implements the same
//! public trait as the thing it wraps, forwards every call, and keeps
//! what it saw in memory until the pass is over. (A capture source is
//! not wrapped: two clock readings around a 150 ns `next` would be a
//! third of what they measure, so the traced pass times whole drains.)

use caai_core::census::CensusRecord;
use caai_core::transport::ProbeTransport;
use caai_engine::ResultSink;
use caai_obs::Subscriber;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Times every `probe` call of a [`ProbeTransport`].
pub struct TimedTransport<'a, T> {
    inner: &'a T,
    nanos: Mutex<Vec<u64>>,
}

impl<'a, T: ProbeTransport> TimedTransport<'a, T> {
    /// Wraps `inner`.
    pub fn new(inner: &'a T) -> Self {
        let capacity = inner.population() as usize;
        TimedTransport {
            inner,
            nanos: Mutex::new(Vec::with_capacity(capacity)),
        }
    }

    /// Nanoseconds each probe took, in completion order.
    pub fn into_nanos(self) -> Vec<u64> {
        self.nanos.into_inner().expect("no probe panicked")
    }
}

impl<T: ProbeTransport> ProbeTransport for TimedTransport<'_, T> {
    fn population(&self) -> u64 {
        self.inner.population()
    }

    fn probe<S: Subscriber>(&self, id: u32, seed: u64, obs: &S) -> CensusRecord {
        let started = Instant::now();
        let record = self.inner.probe(id, seed, obs);
        let nanos = started.elapsed().as_nanos() as u64;
        self.nanos.lock().expect("no probe panicked").push(nanos);
        record
    }
}

/// A transport whose probe costs nothing: what is left is the engine's
/// own scheduler, coordinator and sink path.
pub struct NullTransport {
    /// Ids `0..population` are valid.
    pub population: u64,
    /// Every probe returns this record under the probed id.
    pub canned: CensusRecord,
}

impl ProbeTransport for NullTransport {
    fn population(&self) -> u64 {
        self.population
    }

    fn probe<S: Subscriber>(&self, id: u32, _seed: u64, _obs: &S) -> CensusRecord {
        CensusRecord {
            server_id: id,
            ..self.canned
        }
    }
}

/// Times every `emit` of a [`ResultSink`].
pub struct TimedSink<S> {
    /// The wrapped sink.
    pub inner: S,
    /// Nanoseconds spent inside `emit`, summed.
    pub emit_nanos: u64,
    /// `emit` calls seen.
    pub emits: u64,
}

impl<S> TimedSink<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        TimedSink {
            inner,
            emit_nanos: 0,
            emits: 0,
        }
    }
}

impl<S: ResultSink> ResultSink for TimedSink<S> {
    fn emit(&mut self, record: &CensusRecord) -> io::Result<()> {
        let started = Instant::now();
        let result = self.inner.emit(record);
        self.emit_nanos += started.elapsed().as_nanos() as u64;
        self.emits += 1;
        result
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A writer that also counts the bytes it was given.
pub struct CountingWriter<W> {
    inner: W,
    written: Arc<AtomicU64>,
}

impl<W> CountingWriter<W> {
    /// Wraps `inner`; the returned handle reads the running total.
    pub fn new(inner: W) -> (Self, ByteCount) {
        let written = Arc::new(AtomicU64::new(0));
        let count = ByteCount(Arc::clone(&written));
        (CountingWriter { inner, written }, count)
    }

    /// The wrapped writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

/// Reads a [`CountingWriter`]'s running total.
#[derive(Clone)]
pub struct ByteCount(Arc<AtomicU64>);

impl ByteCount {
    /// Bytes written so far.
    pub fn get(&self) -> u64 {
        // A statistic: it publishes no other data.
        self.0.load(Ordering::Relaxed)
    }
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.written.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// An in-memory file two owners can hold: `TraceSubscriber::to_writer`
/// takes the writing end, the benchmark reads the bytes afterwards.
#[derive(Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// The text written so far.
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.0.lock().expect("no writer panicked")).into_owned()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0
            .lock()
            .expect("no writer panicked")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}
