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
//! Every server of a process is served by one set of event loops,
//! started by the first [`EmulatedServer::spawn`]: one loop per CPU of
//! that caller's affinity mask, each confined to its CPU, by the rule a
//! [`NetTransport`](crate::transport::NetTransport)'s reactors follow
//! ([`sys::loop_cpus`]). So the fleet's threads number the CPUs, however
//! many servers and connections it holds. A fleet loop runs on the
//! reactor's runtime (`runtime.rs`: the wait, the thread start, the
//! command handle) and keeps only what a server does: a listener belongs
//! to one loop; a connection it accepts is served by the loop on the
//! connection's `SO_INCOMING_CPU` (over loopback the client's CPU, for a
//! remote client the NIC queue's), so a round trip's two wake-ups stay on
//! one CPU. A loop answers every frame a read brought (a round arrives
//! as one `Acks` and one `Xmit`) into one buffer and writes it once.
//! Dropping a server closes its listener on its own loop first, then its
//! connections on every loop, and returns once each has.
//!
//! What else a server does rides on [`Behavior`], kept as connection
//! state: one holds each reply on a timer for the real time its round
//! spans (a path's latency, `caai emulate --pace`), and for the hardening
//! tests one accepts and then reads and discards (driving the client's
//! IO timeout) and one resets mid-ladder (driving the RST path). A
//! connection whose client neither sends nor takes a byte for
//! `READ_TIMEOUT` is closed (a moving `Deadline`, cleared while a reply
//! is held). The interesting concurrency lives in the reactor under test,
//! not in its test double.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use caai_core::frame::{ClientFrame, ServerFrame};
use caai_core::ladder::Run;
use caai_core::sansio::ServerCore;
use caai_core::ServerUnderTest;

use crate::conn::{read_buffer, Conn};
use crate::frame::{FrameDecoder, Wire};
use crate::runtime::{self, EventLoop, Handle};
use crate::sys::{self, incoming_cpu, set_linger_reset, Interest, Poller, Readiness};
use crate::targets::Target;
use crate::wheel::{Deadline, Timer, TimerKind, TimerWheel};

/// How an emulated server treats its clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Behavior {
    /// Answer the protocol faithfully.
    Normal,
    /// Answer faithfully, but hold each reply for this much real time per
    /// virtual second its round spans (an `Xmit`'s horizon less its clock,
    /// or what an `RtoWait` advanced the clock by), at most a minute.
    Paced(Duration),
    /// Accept the connection, then never write a byte (a stalled peer:
    /// the client's IO timeout must fire).
    StallAfterAccept,
    /// Answer `n` transmission rounds, then abort the connection with an
    /// RST (`SO_LINGER` zero + close).
    RstAfterBursts(u32),
}

/// One emulated web server listening on loopback. Dropping it closes the
/// listener and every connection it accepted before `drop` returns.
pub struct EmulatedServer {
    addr: SocketAddr,
    fleet: &'static Fleet,
    /// The fleet's name for this server; loop `id % loops` accepts on
    /// its listener.
    id: u64,
}

impl EmulatedServer {
    /// Binds `127.0.0.1:0` and hands the listener to the fleet, which
    /// serves `server` with `behavior` on every connection.
    pub fn spawn(server: ServerUnderTest, behavior: Behavior) -> io::Result<EmulatedServer> {
        let fleet = Fleet::get()?;
        let socket = TcpListener::bind("127.0.0.1:0")?;
        socket.set_nonblocking(true)?;
        let addr = socket.local_addr()?;
        let id = fleet.spawned.fetch_add(1, Ordering::Relaxed);
        // Listeners are dealt round the loops; a connection goes where
        // its packets arrive, whichever loop accepts it.
        let listener = Listener {
            id,
            socket,
            server,
            behavior,
        };
        let _ = fleet.loops[id as usize % fleet.loops.len()]
            .commands
            .send(Command::Listen(listener));
        Ok(EmulatedServer { addr, fleet, id })
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
        // The owner first: once it has closed the listener, a connection
        // it handed to another loop waits in that loop's queue ahead of
        // the close sent there next.
        let loops = &self.fleet.loops;
        let owner = self.id as usize % loops.len();
        for i in 0..loops.len() {
            let (done, closed) = mpsc::channel();
            let _ = loops[(owner + i) % loops.len()]
                .commands
                .send(Command::Close(self.id, done));
            // A loop that is gone dropped `done` with the command.
            let _ = closed.recv();
        }
    }
}

/// How long a server waits for its client to send or take bytes before it
/// closes the connection: the bound on what a stalled client holds open.
const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// Longest a paced server holds one reply, in seconds.
const MAX_HOLD_SECS: f64 = 60.0;

/// The event loops every [`EmulatedServer`] of the process is served by.
struct Fleet {
    loops: Vec<Home>,
    /// Servers spawned so far.
    spawned: AtomicU64,
}

static FLEET: OnceLock<Fleet> = OnceLock::new();

impl Fleet {
    /// The process's fleet; the first call starts its loops.
    fn get() -> io::Result<&'static Fleet> {
        static STARTING: Mutex<()> = Mutex::new(());
        let _one = STARTING.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(fleet) = FLEET.get() {
            return Ok(fleet);
        }
        let mut loops = Vec::new();
        for cpu in sys::loop_cpus(usize::MAX) {
            // A loop serves for as long as the process lives; nothing joins it.
            let started = runtime::start("caai-emu-loop", cpu, move |poller, inbox| {
                Loop::new(cpu, poller).serve(&inbox)
            });
            match started {
                Ok((commands, _)) => loops.push(Home { commands, cpu }),
                Err(e) => {
                    // The loops started return once their queues close.
                    loops.into_iter().for_each(|home| home.commands.close());
                    return Err(e);
                }
            }
        }
        Ok(FLEET.get_or_init(|| Fleet {
            loops,
            spawned: AtomicU64::new(0),
        }))
    }
}

/// One loop, as other threads reach it.
struct Home {
    commands: Handle<Command>,
    /// The CPU the loop is confined to (`None`: the one unconfined loop).
    cpu: Option<usize>,
}

/// What a loop is asked to do.
enum Command {
    /// Accept connections on a listener.
    Listen(Listener),
    /// Serve a connection another loop accepted.
    Serve(Served),
    /// Close server `.0`'s listener and connections, then answer on `.1`.
    Close(u64, mpsc::Sender<()>),
}

/// One of the fleet's event loops: the listeners it accepts on and the
/// connections it serves, by poller token.
struct Loop {
    cpu: Option<usize>,
    poller: Poller,
    wheel: TimerWheel,
    entries: HashMap<u64, Entry>,
    /// Tokens handed out so far.
    tokens: u64,
    /// What every connection's reads go through.
    read_buf: Box<[u8]>,
    /// The last `Acks`' runs, handed back after its core read them: every
    /// connection's next one is decoded into the same buffer.
    spare: Vec<Run>,
}

enum Entry {
    Listener(Listener),
    Conn(Served),
}

/// A listening socket, and what every connection it accepts serves.
struct Listener {
    /// The server it belongs to.
    id: u64,
    socket: TcpListener,
    server: ServerUnderTest,
    behavior: Behavior,
}

/// One connection, with its server's [`Behavior`] as state.
struct Served {
    /// The server it belongs to.
    id: u64,
    conn: Conn,
    /// `None` for [`Behavior::StallAfterAccept`], which answers nothing.
    /// Boxed: the bulk of a connection, which may move between loops.
    core: Option<Box<ServerCore<'static>>>,
    /// `RstAfterBursts` counts down here.
    behavior: Behavior,
    /// Until when a paced server holds what `conn.out` has.
    held: Option<Instant>,
    /// How the connection ends once `conn.out` is written and no hold is
    /// left.
    ending: Option<End>,
    /// When the connection closes unless the client sends or takes
    /// something first; cleared while a reply is held, so no hold is ever
    /// cut short by it.
    idle: Deadline,
}

/// How a connection ends, once the replies that precede the end are
/// written.
#[derive(Clone, Copy, PartialEq, Eq)]
enum End {
    /// The walk finished, or the peer sent hostile bytes or broke the
    /// protocol: drop the connection.
    Close,
    /// `RstAfterBursts` answered its last burst.
    Reset,
}

impl Entry {
    /// The server it belongs to.
    fn server(&self) -> u64 {
        match self {
            Entry::Listener(listener) => listener.id,
            Entry::Conn(served) => served.id,
        }
    }
}

impl Loop {
    fn new(cpu: Option<usize>, poller: Poller) -> Loop {
        Loop {
            cpu,
            poller,
            wheel: TimerWheel::new(),
            entries: HashMap::new(),
            tokens: 0,
            read_buf: read_buffer(),
            spare: Vec::new(),
        }
    }

    fn token(&mut self) -> u64 {
        self.tokens += 1;
        self.tokens
    }

    /// Accepts what the listener has waiting. A connection is served by
    /// the loop on its `SO_INCOMING_CPU`, by this one when no loop is.
    fn accept(&mut self, token: u64) {
        loop {
            let Some(Entry::Listener(listener)) = self.entries.get(&token) else {
                return;
            };
            // Until it would block; any other error (out of descriptors)
            // is reported again at the next wait.
            let Ok((stream, _)) = listener.socket.accept() else {
                return;
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let stalls = listener.behavior == Behavior::StallAfterAccept;
            let served = Served {
                id: listener.id,
                core: (!stalls).then(|| Box::new(ServerCore::new(listener.server.clone()))),
                behavior: listener.behavior,
                held: None,
                ending: None,
                idle: Deadline::default(),
                conn: Conn::new(stream),
            };
            let cpu = incoming_cpu(&served.conn.stream);
            match FLEET
                .get()
                .and_then(|fleet| fleet.loops.iter().find(|home| home.cpu == cpu))
            {
                Some(home) if home.cpu != self.cpu => {
                    let _ = home.commands.send(Command::Serve(served));
                }
                _ => self.adopt(served),
            }
        }
    }

    /// Takes a connection in: watched for the client's bytes, with its
    /// idle deadline set.
    fn adopt(&mut self, served: Served) {
        let token = self.token();
        self.entries.insert(token, Entry::Conn(served));
        self.progress(token, Instant::now());
    }

    /// Answers what the decoder holds and writes it, then waits for what
    /// the connection needs next: a hold's end, writability, or the
    /// client's next bytes. Closes the connection once it has ended.
    fn progress(&mut self, token: u64, now: Instant) {
        let Some(Entry::Conn(served)) = self.entries.get_mut(&token) else {
            return;
        };
        if let Some(deadline) = served.answer(now, &mut self.spare) {
            self.wheel.insert(token, TimerKind::Hold, deadline);
        }
        if served.held.is_some() {
            served.idle.clear();
            return;
        }
        let interest = match served.conn.flush(|_| {}) {
            Ok(true) if served.ending.is_none() => Interest::Read,
            // Reads wait until the client takes what it was sent.
            Ok(false) => Interest::Write,
            // Written to the last byte, or never to be: it is over.
            flushed => {
                if flushed.is_ok() && served.ending == Some(End::Reset) {
                    // Abortive close: RST instead of FIN.
                    let _ = set_linger_reset(&served.conn.stream);
                }
                self.entries.remove(&token);
                return;
            }
        };
        match served.conn.watch(&mut self.poller, token, interest) {
            Ok(()) => served.idle.set(&mut self.wheel, token, now + READ_TIMEOUT),
            Err(_) => drop(self.entries.remove(&token)),
        }
    }
}

impl EventLoop for Loop {
    type Command = Command;

    fn io(&mut self) -> (&mut Poller, &mut TimerWheel) {
        (&mut self.poller, &mut self.wheel)
    }

    fn command(&mut self, command: Command) -> bool {
        match command {
            Command::Listen(listener) => {
                let token = self.token();
                let fd = listener.socket.as_raw_fd();
                // A listener the poller refuses closes: its clients are
                // refused, and their probes abort.
                if self.poller.register(fd, token, Interest::Read).is_ok() {
                    self.entries.insert(token, Entry::Listener(listener));
                }
            }
            Command::Serve(served) => self.adopt(served),
            Command::Close(id, done) => {
                self.entries.retain(|_, entry| entry.server() != id);
                let _ = done.send(());
            }
        }
        true
    }

    fn ready(&mut self, ev: Readiness) {
        let open = match self.entries.get_mut(&ev.token) {
            Some(Entry::Listener(_)) => return self.accept(ev.token),
            // Reads first: what arrived, or the EOF or error that ends
            // the connection.
            Some(Entry::Conn(served)) => {
                !(ev.readable || ev.error)
                    || matches!(served.conn.fill(&mut self.read_buf, |_| {}), Ok(true))
            }
            None => return, // closed earlier in this round
        };
        if open {
            self.progress(ev.token, Instant::now());
        } else {
            self.entries.remove(&ev.token);
        }
    }

    fn timer(&mut self, timer: Timer, now: Instant) {
        let Some(Entry::Conn(served)) = self.entries.get_mut(&timer.token) else {
            return; // the connection is gone
        };
        if timer.kind == TimerKind::Hold {
            self.progress(timer.token, now);
        } else if served.idle.fired(&mut self.wheel, &timer) {
            self.entries.remove(&timer.token);
        }
    }
}

impl Served {
    /// Answers every whole frame the decoder holds into `conn.out`, up to
    /// the end of the connection or the first reply a paced server holds;
    /// returns when that hold ends, if one began. `Acks` runs are decoded
    /// into `spare`'s buffer and handed back to it.
    fn answer(&mut self, now: Instant, spare: &mut Vec<Run>) -> Option<Instant> {
        match self.held {
            Some(until) if now < until => return None,
            _ => self.held = None,
        }
        let Some(core) = self.core.as_mut() else {
            // A stalled server discards what it reads.
            self.conn.decoder = FrameDecoder::new();
            return None;
        };
        while self.ending.is_none() {
            let frame: ClientFrame = match self.conn.decoder.next_into(spare) {
                Ok(Some(frame)) => frame,
                Ok(None) => return None,
                Err(_) => {
                    self.ending = Some(End::Close);
                    return None;
                }
            };
            let Ok(reply) = core.on_frame(&frame) else {
                self.ending = Some(End::Close);
                return None;
            };
            let span = match (&frame, &reply.frames) {
                (ClientFrame::Xmit { now, horizon }, _) => horizon - now,
                (ClientFrame::RtoWait { now, .. }, Some(ServerFrame::RtoResult { now: t, .. })) => {
                    t - now
                }
                _ => 0.0,
            };
            if let Some(answer) = &reply.frames {
                answer.encode_into(&mut self.conn.out);
            }
            if let Some(ServerFrame::Burst { done: true, .. }) = reply.frames {
                self.ending = Some(End::Close);
            }
            if let (ClientFrame::Xmit { .. }, Behavior::RstAfterBursts(left)) =
                (&frame, &mut self.behavior)
            {
                *left = left.saturating_sub(1);
                if *left == 0 {
                    self.ending = Some(End::Reset);
                }
            }
            // Both buffers hold the next round's runs: nothing is
            // allocated per round.
            if let ClientFrame::Acks { runs, .. } = frame {
                *spare = runs;
            }
            if let Some(answer) = reply.frames {
                core.recycle(answer);
            }
            if let Behavior::Paced(pace) = self.behavior {
                let hold = (pace.as_secs_f64() * span).clamp(0.0, MAX_HOLD_SECS);
                if hold > 0.0 {
                    let until = now + Duration::from_secs_f64(hold);
                    self.held = Some(until);
                    return Some(until);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caai_congestion::AlgorithmId;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn handshake(stream: &mut TcpStream) -> ServerFrame {
        let hello = ClientFrame::Hello {
            proposed_mss: 100,
            now: 0.0,
        };
        exchange(stream, &hello)
    }

    /// Writes `frame` and reads the one frame that answers it.
    fn exchange(stream: &mut TcpStream, frame: &ClientFrame) -> ServerFrame {
        let mut bytes = Vec::new();
        frame.encode_into(&mut bytes);
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
    fn a_paced_server_holds_a_burst_for_its_round_s_span() {
        let pace = Duration::from_millis(100);
        let server = EmulatedServer::spawn(
            ServerUnderTest::ideal(AlgorithmId::Reno),
            Behavior::Paced(pace),
        )
        .unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        handshake(&mut stream);
        // A round spanning half a virtual second: held at least 50 ms.
        let xmit = ClientFrame::Xmit {
            now: 0.0,
            horizon: 0.5,
        };
        let sent = std::time::Instant::now();
        let burst = exchange(&mut stream, &xmit);
        let held = sent.elapsed();
        assert!(
            matches!(burst, ServerFrame::Burst { done: false, .. }),
            "{burst:?}"
        );
        assert!(held >= pace / 2, "answered after {held:?}");
    }

    #[test]
    fn a_hold_longer_than_the_idle_timeout_is_not_cut_short() {
        // One loop, driven by hand: its timers fire at virtual instants.
        let mut lp = Loop::new(None, Poller::new().unwrap());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        // 100 s of hold per virtual second: a half-second round is held
        // for 50 s, past READ_TIMEOUT.
        let pace = Duration::from_secs(100);
        let served = Served {
            id: 0,
            core: Some(Box::new(ServerCore::new(ServerUnderTest::ideal(
                AlgorithmId::Reno,
            )))),
            behavior: Behavior::Paced(pace),
            held: None,
            ending: None,
            idle: Deadline::default(),
            conn: Conn::new(stream),
        };
        let start = Instant::now();
        lp.adopt(served);
        let token = lp.tokens;
        let mut bytes = Vec::new();
        ClientFrame::Hello {
            proposed_mss: 100,
            now: 0.0,
        }
        .encode_into(&mut bytes);
        ClientFrame::Xmit {
            now: 0.0,
            horizon: 0.5,
        }
        .encode_into(&mut bytes);
        client.write_all(&bytes).unwrap();
        // Both frames are answered, and the answers held.
        let readable = Readiness {
            token,
            readable: true,
            writable: false,
            error: false,
        };
        let held = |lp: &Loop| match lp.entries.get(&token) {
            Some(Entry::Conn(served)) => served.held,
            _ => panic!("the connection closed"),
        };
        for _ in 0..1000 {
            if held(&lp).is_some() {
                break;
            }
            std::thread::yield_now();
            lp.ready(readable);
        }
        let until = held(&lp).expect("a paced server holds its answers");
        assert!(until >= start + Duration::from_secs(50));
        let fire = |lp: &mut Loop, now: Instant| {
            let mut fired = Vec::new();
            lp.wheel.expire(now, &mut fired);
            for timer in fired {
                lp.timer(timer, now);
            }
        };
        // Past the idle timeout: still open, still held, nothing written.
        fire(&mut lp, start + READ_TIMEOUT + Duration::from_secs(1));
        assert_eq!(held(&lp), Some(until));
        client.set_nonblocking(true).unwrap();
        let mut buf = [0u8; 1024];
        let early = client.read(&mut buf);
        assert!(
            matches!(&early, Err(e) if e.kind() == io::ErrorKind::WouldBlock),
            "{early:?}"
        );
        // At the hold's end the answers are written: the Welcome, then the
        // Burst.
        fire(&mut lp, until);
        client.set_nonblocking(false).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut decoder = FrameDecoder::new();
        let mut frames = Vec::new();
        while frames.len() < 2 {
            let n = client.read(&mut buf).unwrap();
            assert!(n > 0, "the server closed instead of answering");
            decoder.push(&buf[..n]);
            while let Some(frame) = decoder.next::<ServerFrame>().unwrap() {
                frames.push(frame);
            }
        }
        assert_eq!(frames[0], ServerFrame::Welcome { granted_mss: 100 });
        assert!(
            matches!(frames[1], ServerFrame::Burst { done: false, .. }),
            "{:?}",
            frames[1]
        );
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
