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
//! many servers and connections it holds. A listener belongs to one
//! loop; a connection it accepts is served by the loop on the
//! connection's `SO_INCOMING_CPU` (over loopback the client's CPU, for a
//! remote client the NIC queue's), so a round trip's two wake-ups stay on
//! one CPU. A loop answers every frame a read brought (a round arrives
//! as one `AckRun` and one `Xmit`) into one buffer and writes it once.
//!
//! What else a server does rides on [`Behavior`], kept as connection
//! state: one holds each reply on a timer for the real time its round
//! spans (a path's latency, `caai emulate --pace`), and for the hardening
//! tests one accepts and then reads and discards (driving the client's
//! IO timeout) and one resets mid-ladder (driving the RST path). A
//! connection whose client sends nothing for `READ_TIMEOUT` is closed.
//! The interesting concurrency lives in the reactor under test, not in
//! its test double.

use std::collections::HashMap;
use std::io::{self, ErrorKind::Interrupted, ErrorKind::WouldBlock};
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use caai_core::ServerUnderTest;

use crate::conn::Conn;
use crate::core::{Reply, ServerCore};
use crate::frame::{ClientFrame, FrameDecoder, ServerFrame, Wire};
use crate::sys::{self, incoming_cpu, set_linger_reset, Interest, Poller, Readiness, Waker};
use crate::targets::Target;
use crate::wheel::{Timer, TimerKind, TimerWheel};

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
        fleet.loops[id as usize % fleet.loops.len()].send(Command::Listen(listener));
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
            loops[(owner + i) % loops.len()].send(Command::Close(self.id, done));
            // A loop that is gone dropped `done` with the command.
            let _ = closed.recv();
        }
    }
}

/// How long a server waits for its client's next bytes before it closes
/// the connection: the bound on what a stalled client holds open.
const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// Longest a paced server holds one reply, in seconds.
const MAX_HOLD_SECS: f64 = 60.0;

/// The event loops every [`EmulatedServer`] of the process is served by.
struct Fleet {
    loops: Vec<LoopHandle>,
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
            match start_loop(cpu) {
                Ok(handle) => loops.push(handle),
                Err(e) => {
                    // The loops started return once their queues close.
                    let wakers: Vec<Waker> = loops.into_iter().map(|l| l.waker).collect();
                    wakers.iter().for_each(Waker::wake);
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
struct LoopHandle {
    commands: mpsc::Sender<Command>,
    waker: Waker,
    /// The CPU the loop is confined to (`None`: the one unconfined loop).
    cpu: Option<usize>,
}

impl LoopHandle {
    fn send(&self, command: Command) {
        // A loop that is gone drops the command, and what it owns with it.
        if self.commands.send(command).is_ok() {
            self.waker.wake();
        }
    }
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

/// Starts one loop on a thread of its own, confined to `cpu` when one
/// is named.
fn start_loop(cpu: Option<usize>) -> io::Result<LoopHandle> {
    let poller = Poller::new()?;
    let waker = poller.waker();
    let (commands, inbox) = mpsc::channel();
    let mut fleet_loop = Loop {
        cpu,
        poller,
        wheel: TimerWheel::new(),
        entries: HashMap::new(),
        tokens: 0,
    };
    // The loop serves for as long as the process lives; nothing joins it.
    sys::spawn_on("caai-emu-loop", cpu, move || fleet_loop.run(&inbox))?;
    Ok(LoopHandle {
        commands,
        waker,
        cpu,
    })
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
    core: Option<ServerCore>,
    /// `RstAfterBursts` counts down here.
    behavior: Behavior,
    /// Until when a paced server holds what `conn.out` has.
    held: Option<Instant>,
    /// How the connection ends once `conn.out` is written and no hold is
    /// left.
    ending: Option<End>,
    /// When the connection closes unless the client sends something
    /// first. No hold is ever cut short by it.
    idle_at: Instant,
    /// The idle timer this connection keeps in the wheel, by its deadline.
    idle_timer: Option<Instant>,
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
    /// Serves until its command queue closes (or the poller fails).
    fn run(&mut self, inbox: &mpsc::Receiver<Command>) {
        let mut ready: Vec<Readiness> = Vec::new();
        let mut fired: Vec<Timer> = Vec::new();
        loop {
            let timeout_ms = self.wheel.timeout_ms(Instant::now());
            if self.poller.wait(timeout_ms, &mut ready).is_err() {
                return;
            }
            let now = Instant::now();
            loop {
                match inbox.try_recv() {
                    Ok(command) => self.command(command),
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => return,
                }
            }
            for ev in ready.drain(..) {
                match self.entries.get(&ev.token) {
                    Some(Entry::Listener(_)) => self.accept(ev.token, now),
                    Some(Entry::Conn(_)) => {
                        // Reads first: what arrived, or the EOF or error
                        // that ends the connection.
                        let open = !(ev.readable || ev.error) || self.read(ev.token);
                        if open {
                            self.progress(ev.token, now);
                        }
                    }
                    None => {} // closed earlier in this round
                }
            }
            self.wheel.expire(now, &mut fired);
            for timer in fired.drain(..) {
                self.on_timer(timer, now);
            }
        }
    }

    fn command(&mut self, command: Command) {
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
            Command::Serve(served) => self.serve(served),
            Command::Close(id, done) => {
                self.entries.retain(|_, entry| entry.server() != id);
                let _ = done.send(());
            }
        }
    }

    fn token(&mut self) -> u64 {
        self.tokens += 1;
        self.tokens
    }

    /// Accepts what the listener has waiting. A connection is served by
    /// the loop on its `SO_INCOMING_CPU`, by this one when no loop is.
    fn accept(&mut self, token: u64, now: Instant) {
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
                core: (!stalls).then(|| ServerCore::new(listener.server.clone())),
                behavior: listener.behavior,
                held: None,
                ending: None,
                idle_at: now + READ_TIMEOUT,
                idle_timer: None,
                conn: Conn::new(stream),
            };
            let cpu = incoming_cpu(&served.conn.stream);
            match FLEET
                .get()
                .and_then(|fleet| fleet.loops.iter().find(|home| home.cpu == cpu))
            {
                Some(home) if home.cpu != self.cpu => home.send(Command::Serve(served)),
                _ => self.serve(served),
            }
        }
    }

    /// Takes a connection in: watched for the client's bytes, with its
    /// idle timer armed.
    fn serve(&mut self, mut served: Served) {
        let token = self.token();
        let watched = served.conn.watch(&mut self.poller, token, Interest::Read);
        if watched.is_ok() {
            served.arm_idle(&mut self.wheel, token);
            self.entries.insert(token, Entry::Conn(served));
        }
    }

    /// Reads what the client sent into the decoder; false when that
    /// closed the connection (the client's EOF, or an error).
    fn read(&mut self, token: u64) -> bool {
        let Some(Entry::Conn(served)) = self.entries.get_mut(&token) else {
            return false;
        };
        let mut buf = [0u8; 16 * 1024];
        loop {
            match served.conn.fill(&mut buf) {
                Ok(0) => break,
                // The poller is level-triggered: a read that did not fill
                // the buffer emptied the socket, and whatever arrives
                // later (EOF included) is reported again.
                Ok(n) if n < buf.len() => return true,
                Ok(_) => {}
                Err(e) if matches!(e.kind(), WouldBlock | Interrupted) => return true,
                Err(_) => break,
            }
        }
        self.entries.remove(&token);
        false
    }

    /// Answers what the decoder holds and writes it, then waits for what
    /// the connection needs next: a hold's end, writability, or the
    /// client's next bytes. Closes the connection once it has ended.
    fn progress(&mut self, token: u64, now: Instant) {
        let Some(Entry::Conn(served)) = self.entries.get_mut(&token) else {
            return;
        };
        if let Some(deadline) = served.answer(now) {
            self.wheel.insert(token, TimerKind::Hold, deadline);
        }
        if served.held.is_some() {
            return;
        }
        let interest = match served.conn.flush(|_| {}) {
            Ok(true) if served.ending.is_none() => {
                served.idle_at = now + READ_TIMEOUT;
                Interest::Read
            }
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
            Ok(()) => served.arm_idle(&mut self.wheel, token),
            Err(_) => drop(self.entries.remove(&token)),
        }
    }

    fn on_timer(&mut self, timer: Timer, now: Instant) {
        let Some(Entry::Conn(served)) = self.entries.get_mut(&timer.token) else {
            return; // the connection is gone
        };
        if timer.kind == TimerKind::Hold {
            return self.progress(timer.token, now);
        }
        if served.idle_timer != Some(timer.deadline) {
            return; // stale: an earlier deadline took its place
        }
        served.idle_timer = None;
        if served.held.is_some() {
            return; // the hold's end re-arms it
        }
        if served.idle_at <= timer.deadline {
            self.entries.remove(&timer.token);
        } else {
            // Fired early: the client has sent since. Wait out the rest.
            served.arm_idle(&mut self.wheel, timer.token);
        }
    }
}

impl Served {
    /// Keeps a timer in `wheel` that fires by `idle_at`.
    fn arm_idle(&mut self, wheel: &mut TimerWheel, token: u64) {
        wheel.arm_by(
            &mut self.idle_timer,
            token,
            TimerKind::IoDeadline,
            self.idle_at,
        );
    }

    /// Answers every whole frame the decoder holds into `conn.out`, up to
    /// the end of the connection or the first reply a paced server holds;
    /// returns when that hold ends, if one began.
    fn answer(&mut self, now: Instant) -> Option<Instant> {
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
            let frame: ClientFrame = match self.conn.decoder.next() {
                Ok(Some(frame)) => frame,
                Ok(None) => return None,
                Err(_) => {
                    self.ending = Some(End::Close);
                    return None;
                }
            };
            let Ok(Reply { frames, close }) = core.on_frame(&frame) else {
                self.ending = Some(End::Close);
                return None;
            };
            let span = match (&frame, frames.first()) {
                (ClientFrame::Xmit { now, horizon }, _) => horizon - now,
                (ClientFrame::RtoWait { now, .. }, Some(ServerFrame::RtoResult { now: t, .. })) => {
                    t - now
                }
                _ => 0.0,
            };
            for reply in &frames {
                reply.encode_into(&mut self.conn.out);
            }
            if close {
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
