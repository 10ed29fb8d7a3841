//! In-repo emulated web servers: real sockets, simulated TCP stacks.
//!
//! Tests (and the CI loopback-census smoke) must never touch the real
//! network, so the "population" a live census probes is this: a
//! loopback listener per server, each accepted connection replaying a
//! [`ServerCore`] — the same tcpsim algorithms the simulator runs —
//! over the wire protocol. Because the protocol carries virtual time,
//! the verdicts a census gathers against these servers are the
//! simulator's verdicts, whatever the real-time pacing.
//!
//! The server side is deliberately boring: one blocking accept thread,
//! one blocking thread per connection, which answers every frame a
//! read brought (a round arrives as one `AckRun` and one `Xmit`) into
//! one reused buffer and writes once — on the CPU the client's packets
//! arrive on (`SO_INCOMING_CPU`, asked again after every read), so a
//! round trip's two wake-ups stay on one CPU. The interesting concurrency
//! lives in the reactor under test, not in its test double. Failure
//! modes for the hardening tests ride on [`Behavior`]: a server that
//! accepts and then stalls (driving the client's IO timeout), and one
//! that resets mid-ladder (driving the RST path).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use caai_core::ServerUnderTest;

use crate::core::{Reply, ServerCore};
use crate::frame::{ClientFrame, FrameDecoder, Wire};
use crate::sys::{confine_to, current_cpu, incoming_cpu, set_linger_reset};
use crate::targets::Target;

/// How an emulated server treats its clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Behavior {
    /// Answer the protocol faithfully.
    Normal,
    /// Accept the connection, then never write a byte (a stalled peer:
    /// the client's IO timeout must fire).
    StallAfterAccept,
    /// Answer `n` transmission rounds, then abort the connection with an
    /// RST (`SO_LINGER` zero + close).
    RstAfterBursts(u32),
}

/// One emulated web server listening on loopback.
pub struct EmulatedServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl EmulatedServer {
    /// Binds `127.0.0.1:0` and starts serving `server` with `behavior`.
    pub fn spawn(server: ServerUnderTest, behavior: Behavior) -> std::io::Result<EmulatedServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_accept = Arc::clone(&stop);
        let serve = move |stream| {
            let server = server.clone();
            std::thread::Builder::new()
                .name("caai-emu-conn".into())
                .spawn(move || serve_connection(stream, server, behavior))
        };
        let accept_thread = std::thread::Builder::new()
            .name("caai-emu-accept".into())
            .spawn(move || accept_loop(&listener, &stop_accept, serve))?;
        Ok(EmulatedServer {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound loopback address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The address as a census [`Target`].
    pub fn target(&self) -> Target {
        Target {
            host: self.addr.ip().to_string(),
            port: self.addr.port(),
        }
    }

    /// The address as a `host:port` target-list line.
    pub fn target_line(&self) -> String {
        self.addr.to_string()
    }
}

impl Drop for EmulatedServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Kick the accept loop out of its blocking accept.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Hands every accepted connection to `serve` until `stop` is set. A
/// refused thread drops the connection with the closure that owned it:
/// the client sees EOF and retries, and the listener keeps accepting.
fn accept_loop(
    listener: &TcpListener,
    stop: &AtomicBool,
    serve: impl Fn(TcpStream) -> std::io::Result<JoinHandle<()>>,
) {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    let mut cpu = None;
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // The connection thread inherits this thread's mask, so it is
        // born on the CPU its first frame will arrive on.
        follow_incoming_cpu(&stream, &mut cpu);
        if let Ok(worker) = serve(stream) {
            workers.push(worker);
        }
        workers.retain(|w| !w.is_finished());
    }
    for w in workers {
        let _ = w.join();
    }
}

/// Moves the calling thread to the CPU `stream`'s packets arrive on,
/// unless that is `*cpu`, where it already is: a reply written on the
/// sender's CPU wakes the sender there, not an idle CPU first.
fn follow_incoming_cpu(stream: &TcpStream, cpu: &mut Option<usize>) {
    let incoming = incoming_cpu(stream);
    if let Some(to) = incoming.filter(|_| incoming != *cpu) {
        confine_to(to);
        *cpu = incoming;
    }
}

/// Upper bound a stalled or hostile client can hold a server thread.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

fn serve_connection(mut stream: TcpStream, server: ServerUnderTest, behavior: Behavior) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    if behavior == Behavior::StallAfterAccept {
        // Read (and discard) whatever arrives, answer nothing: the
        // client must conclude the peer is dead via its own timeout.
        let mut sink = [0u8; 4096];
        while let Ok(n) = stream.read(&mut sink) {
            if n == 0 {
                return;
            }
        }
        return;
    }
    let mut bursts_left = match behavior {
        Behavior::RstAfterBursts(n) => Some(n),
        _ => None,
    };
    let mut core = ServerCore::new(server);
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 16 * 1024];
    // One reply buffer per connection, written once per read: a round
    // arrives as an `AckRun` and an `Xmit` together.
    let mut out = Vec::new();
    let mut cpu = current_cpu();
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) => return, // client closed; connection complete
            Ok(n) => n,
            Err(_) => return,
        };
        follow_incoming_cpu(&stream, &mut cpu);
        decoder.push(&buf[..n]);
        let end = answer_frames(&mut core, &mut decoder, &mut bursts_left, &mut out);
        if !out.is_empty() && stream.write_all(&out).is_err() {
            return;
        }
        out.clear();
        match end {
            None => {}
            Some(End::Close) => return,
            Some(End::Reset) => {
                // Abortive close: RST instead of FIN.
                let _ = set_linger_reset(&stream);
                return;
            }
        }
    }
}

/// How `serve_connection` ends a connection, once the replies that
/// precede the end are written.
enum End {
    /// The walk finished, or the peer sent hostile bytes or broke the
    /// protocol: drop the connection.
    Close,
    /// `RstAfterBursts` answered its last burst.
    Reset,
}

/// Answers every whole frame `decoder` holds, appending the replies to
/// `out`. `Some` when the connection is over.
fn answer_frames(
    core: &mut ServerCore,
    decoder: &mut FrameDecoder,
    bursts_left: &mut Option<u32>,
    out: &mut Vec<u8>,
) -> Option<End> {
    loop {
        let frame: ClientFrame = match decoder.next() {
            Ok(Some(frame)) => frame,
            Ok(None) => return None,
            Err(_) => return Some(End::Close),
        };
        let Ok(Reply { frames, close }) = core.on_frame(&frame) else {
            return Some(End::Close);
        };
        for reply in &frames {
            reply.encode_into(out);
        }
        if let (ClientFrame::Xmit { .. }, Some(left)) = (&frame, bursts_left.as_mut()) {
            *left = left.saturating_sub(1);
            if *left == 0 {
                return Some(End::Reset);
            }
        }
        if close {
            return Some(End::Close);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::ServerFrame;
    use caai_congestion::AlgorithmId;

    fn handshake(stream: &mut TcpStream) -> ServerFrame {
        let hello = ClientFrame::Hello {
            proposed_mss: 100,
            now: 0.0,
        };
        let mut bytes = Vec::new();
        hello.encode_into(&mut bytes);
        stream.write_all(&bytes).unwrap();
        let mut decoder = FrameDecoder::new();
        let mut buf = [0u8; 1024];
        loop {
            let n = stream.read(&mut buf).unwrap();
            assert!(n > 0, "server closed during handshake");
            decoder.push(&buf[..n]);
            if let Some(frame) = decoder.next::<ServerFrame>().unwrap() {
                return frame;
            }
        }
    }

    #[test]
    fn emulated_server_answers_the_handshake() {
        let server =
            EmulatedServer::spawn(ServerUnderTest::ideal(AlgorithmId::Reno), Behavior::Normal)
                .unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let frame = handshake(&mut stream);
        assert_eq!(frame, ServerFrame::Welcome { granted_mss: 100 });
    }

    #[test]
    fn a_refused_thread_drops_the_connection_and_the_listener_lives() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_accept = Arc::clone(&stop);
        let accept = std::thread::spawn(move || {
            let refuse = |_stream| Err(std::io::ErrorKind::WouldBlock.into());
            accept_loop(&listener, &stop_accept, refuse);
        });
        // Twice: the accept thread outlives the first refusal.
        for _ in 0..2 {
            let mut stream = TcpStream::connect(addr).unwrap();
            let mut buf = [0u8; 16];
            // EOF (or a reset): what the reactor's retry path starts from.
            match stream.read(&mut buf) {
                Ok(0) | Err(_) => {}
                other => panic!("expected drop, got {other:?}"),
            }
        }
        stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
        accept.join().unwrap();
    }

    #[test]
    fn stalling_server_accepts_but_never_answers() {
        let server = EmulatedServer::spawn(
            ServerUnderTest::ideal(AlgorithmId::CubicV1),
            Behavior::StallAfterAccept,
        )
        .unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let hello = ClientFrame::Hello {
            proposed_mss: 100,
            now: 0.0,
        };
        let mut bytes = Vec::new();
        hello.encode_into(&mut bytes);
        stream.write_all(&bytes).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(300)))
            .unwrap();
        let mut buf = [0u8; 16];
        assert!(
            stream.read(&mut buf).is_err(),
            "a stalling server must answer nothing"
        );
    }

    #[test]
    fn hostile_bytes_drop_the_connection() {
        let server =
            EmulatedServer::spawn(ServerUnderTest::ideal(AlgorithmId::Reno), Behavior::Normal)
                .unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(&[0xff; 64]).unwrap();
        let mut buf = [0u8; 16];
        // The server drops; read returns 0 (or a reset error).
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => {}
            other => panic!("expected drop, got {other:?}"),
        }
    }
}
