//! Syscall bindings for what std does not offer the reactor.
//!
//! The build is offline: no `libc`, `mio` or `tokio`. The probe socket
//! is a `std::net::TcpStream` — reads, writes, `SO_ERROR` and closing
//! are std's — the epoll descriptor a `std::os::fd::OwnedFd`, and the
//! eventfd a `File` the poller and its wakers share. The `extern "C"`
//! block binds only what std cannot do:
//!
//! * `socket` + `connect`: std's connect blocks until the handshake
//!   ends; the reactor needs one that returns at once (`EINPROGRESS`)
//!   and reports completion as writability.
//! * `setsockopt(SO_LINGER)`: `TcpStream::set_linger` is unstable. The
//!   emulated server's reset behaviour closes with an RST through it.
//! * `getsockopt(SO_INCOMING_CPU)`: Linux-only, not in std.
//! * `epoll_create1`, `epoll_ctl`, `epoll_wait` and `eventfd`: std has
//!   no readiness multiplexer.
//! * `sched_getcpu`, `sched_setaffinity`, `sched_getaffinity`: thread
//!   placement ([`confine_to`], [`allowed_cpus`], and on them the one
//!   rule for where event loops run, [`loop_cpus`]); std has none.
//!
//! The constants and struct layouts are Linux's (the crate refuses to
//! build elsewhere). All `unsafe` in the crate is confined to this
//! module, and every block says why it is sound.

#![deny(clippy::undocumented_unsafe_blocks)]

use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
use std::sync::Arc;

const AF_INET: i32 = 2;
const SOCK_STREAM: i32 = 1;
const SOCK_NONBLOCK: i32 = 0o4000;
const SOCK_CLOEXEC: i32 = 0o2000000;
const SOL_SOCKET: i32 = 1;
const SO_LINGER: i32 = 13;
const SO_INCOMING_CPU: i32 = 49;
const EINPROGRESS: i32 = 115;
const EINTR: i32 = 4;
const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLLIN: u32 = 0x1;
const EPOLLOUT: u32 = 0x4;
const EPOLLERR: u32 = 0x8;
const EPOLLHUP: u32 = 0x10;
const EPOLLRDHUP: u32 = 0x2000;
const EFD_NONBLOCK: i32 = 0o4000;
const EFD_CLOEXEC: i32 = 0o2000000;

#[repr(C)]
struct SockAddrIn {
    sin_family: u16,
    sin_port: u16,
    sin_addr: u32,
    sin_zero: [u8; 8],
}

#[repr(C)]
struct Linger {
    l_onoff: i32,
    l_linger: i32,
}

/// The kernel packs `struct epoll_event` on x86-64 only
/// (`linux/eventpoll.h`); elsewhere `data` is 8-aligned.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

const _: () = assert!(
    std::mem::size_of::<EpollEvent>() == if cfg!(target_arch = "x86_64") { 12 } else { 16 }
);

extern "C" {
    fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
    fn connect(fd: i32, addr: *const SockAddrIn, len: u32) -> i32;
    fn getsockopt(fd: i32, level: i32, name: i32, value: *mut i32, len: *mut u32) -> i32;
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const usize) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut usize) -> i32;
}

/// A syscall's non-negative return, or the calling thread's OS error.
fn check(rc: i32) -> io::Result<i32> {
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(rc)
}

/// Takes ownership of the descriptor a creating syscall (`socket`,
/// `epoll_create1`, `eventfd`) just returned.
///
/// # Safety
/// A non-negative `fd` must be open and owned by nothing else.
unsafe fn owned(fd: i32) -> io::Result<OwnedFd> {
    let fd = check(fd)?;
    // SAFETY: the caller's contract: `fd` is open and nobody else owns it.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

/// Opens a nonblocking IPv4 TCP socket and starts connecting to
/// `addr:port`. Returns the socket and whether the connect already
/// completed (loopback often does); otherwise completion is signalled
/// by writability, with `TcpStream::take_error` holding the verdict.
pub fn connect_nonblocking(addr: Ipv4Addr, port: u16) -> io::Result<(TcpStream, bool)> {
    let ty = SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC;
    // SAFETY: `socket` takes no pointers and returns a new descriptor (or
    // -1) that nothing else owns.
    let stream = TcpStream::from(unsafe { owned(socket(AF_INET, ty, 0)) }?);
    let sa = SockAddrIn {
        sin_family: AF_INET as u16,
        sin_port: port.to_be(),
        sin_addr: u32::from(addr).to_be(),
        sin_zero: [0; 8],
    };
    let len = std::mem::size_of::<SockAddrIn>() as u32;
    // SAFETY: `sa` outlives the call and `len` is its size.
    match check(unsafe { connect(stream.as_raw_fd(), &sa, len) }) {
        Ok(_) => Ok((stream, true)),
        Err(e) if matches!(e.raw_os_error(), Some(EINPROGRESS | EINTR)) => Ok((stream, false)),
        Err(e) => Err(e),
    }
}

/// Arms an abortive close: dropping the socket after this sends RST
/// instead of FIN. Used by the emulated server's reset behavior.
pub fn set_linger_reset(stream: &TcpStream) -> io::Result<()> {
    let lg = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    let len = std::mem::size_of::<Linger>() as u32;
    // SAFETY: `lg` outlives the call and `len` is its size.
    check(unsafe { setsockopt(stream.as_raw_fd(), SOL_SOCKET, SO_LINGER, &lg, len) }).map(drop)
}

/// Readiness reported by [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Readiness {
    /// The token registered with the descriptor.
    pub token: u64,
    /// Readable (or peer closed — a read will report it).
    pub readable: bool,
    /// Writable (includes connect completion).
    pub writable: bool,
    /// Error/hangup; the owner must query the socket to learn which.
    pub error: bool,
}

/// What readiness to watch a descriptor for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interest {
    /// Readable only.
    Read,
    /// Writable only (a pending connect, or writes a peer holds up).
    Write,
    /// Both.
    ReadWrite,
}

fn interest_bits(interest: Interest) -> u32 {
    (match interest {
        Interest::Read => EPOLLIN,
        Interest::Write => EPOLLOUT,
        Interest::ReadWrite => EPOLLIN | EPOLLOUT,
    }) | EPOLLRDHUP
}

/// The epoll-backed readiness multiplexer.
pub struct Poller {
    ep: OwnedFd,
    /// The wakeup eventfd, shared with every [`Waker`]: it closes when
    /// the last of them and the poller are gone, never under a waker.
    wake: Arc<File>,
    events: Vec<EpollEvent>,
}

/// Token the poller reserves for its own wakeup descriptor.
pub const WAKE_TOKEN: u64 = u64::MAX;

impl Poller {
    /// A fresh epoll instance with its wakeup eventfd registered.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: `epoll_create1` takes no pointers and returns a new
        // descriptor (or -1) that nothing else owns.
        let ep = unsafe { owned(epoll_create1(EPOLL_CLOEXEC)) }?;
        // SAFETY: as above, for `eventfd`.
        let wake = unsafe { owned(eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) }?;
        let poller = Poller {
            ep,
            wake: Arc::new(File::from(wake)),
            events: vec![EpollEvent { events: 0, data: 0 }; 256],
        };
        poller.ctl(EPOLL_CTL_ADD, poller.wake.as_raw_fd(), EPOLLIN, WAKE_TOKEN)?;
        Ok(poller)
    }

    fn ctl(&self, op: i32, fd: i32, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` outlives the call (the kernel copies it).
        check(unsafe { epoll_ctl(self.ep.as_raw_fd(), op, fd, &mut ev) }).map(drop)
    }

    /// Starts watching `fd` for `interest`, reporting it as `token`.
    pub fn register(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest_bits(interest), token)
    }

    /// Changes what a registered descriptor is watched for.
    pub fn rearm(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest_bits(interest), token)
    }

    /// A handle other threads use to interrupt [`wait`](Self::wait).
    pub fn waker(&self) -> Waker {
        Waker {
            wake: Arc::clone(&self.wake),
        }
    }

    /// Blocks up to `timeout_ms` (`-1` = forever) for readiness,
    /// filling `out`. Wakeups and `EINTR` return an empty set.
    pub fn wait(&mut self, timeout_ms: i32, out: &mut Vec<Readiness>) -> io::Result<()> {
        out.clear();
        // SAFETY: the kernel writes at most `events.len()` entries into
        // `events`, whose layout is `struct epoll_event`'s (asserted above).
        let n = match check(unsafe {
            epoll_wait(
                self.ep.as_raw_fd(),
                self.events.as_mut_ptr(),
                self.events.len() as i32,
                timeout_ms,
            )
        }) {
            Ok(n) => n as usize,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => return Ok(()),
            Err(e) => return Err(e),
        };
        for ev in &self.events[..n] {
            let bits = ev.events;
            if ev.data == WAKE_TOKEN {
                // Drain the eventfd counter; readiness is the signal.
                let _ = (&*self.wake).read(&mut [0u8; 8]);
                continue;
            }
            out.push(Readiness {
                token: ev.data,
                readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                writable: bits & EPOLLOUT != 0,
                error: bits & (EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

/// Cross-thread wakeup for a sleeping poller. It shares the poller's
/// eventfd, so a waker that outlives its poller pokes a descriptor no
/// one waits on, never one a later `open` was given.
#[derive(Debug, Clone)]
pub struct Waker {
    wake: Arc<File>,
}

impl Waker {
    /// Interrupts the poller's current (or next) wait.
    pub fn wake(&self) {
        let _ = (&*self.wake).write(&1u64.to_ne_bytes());
    }
}

/// Room for 1,024 CPUs, glibc's `cpu_set_t`.
const MASK_WORDS: usize = 1024 / usize::BITS as usize;

/// The CPU the calling thread is running on.
pub fn current_cpu() -> Option<usize> {
    // SAFETY: takes no arguments and touches no memory of ours.
    usize::try_from(unsafe { sched_getcpu() }).ok()
}

/// Confines the calling thread, and those it spawns from now on, to
/// `cpu`. Best effort: placement is never a correctness condition, so
/// a refusal (cpuset, seccomp, a CPU past the 1,024-bit mask) is ignored.
pub fn confine_to(cpu: usize) {
    const BITS: usize = usize::BITS as usize;
    let mut mask = [0usize; MASK_WORDS];
    if let Some(word) = mask.get_mut(cpu / BITS) {
        *word = 1 << (cpu % BITS);
        // SAFETY: `mask` outlives the call and its true size is
        // passed; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    }
}

/// The CPUs the calling thread may run on, ascending; empty when the
/// kernel will not say (a mask past 1,024 CPUs).
pub fn allowed_cpus() -> Vec<usize> {
    const BITS: usize = usize::BITS as usize;
    let mut mask = [0usize; MASK_WORDS];
    // SAFETY: `mask` outlives the call and its true size is passed;
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * BITS)
        .filter(|cpu| (mask[cpu / BITS] >> (cpu % BITS)) & 1 == 1)
        .collect()
}

/// Where a set of event loops runs: one per CPU of the calling thread's
/// affinity mask, at most `most`, loop *i* on the mask's *i*-th CPU. A
/// mask the kernel will not report gives one loop, unconfined (`None`).
/// The reactors of a `NetTransport` and the emulated fleet both follow it.
pub fn loop_cpus(most: usize) -> Vec<Option<usize>> {
    let cpus = allowed_cpus();
    if cpus.is_empty() {
        return vec![None];
    }
    cpus.into_iter().take(most.max(1)).map(Some).collect()
}

/// Starts a thread named `name` that confines itself to `cpu`, when one
/// is named, and then runs `body`.
pub fn spawn_on<T: Send + 'static>(
    name: &str,
    cpu: Option<usize>,
    body: impl FnOnce() -> T + Send + 'static,
) -> io::Result<std::thread::JoinHandle<T>> {
    std::thread::Builder::new()
        .name(name.into())
        .spawn(move || {
            if let Some(cpu) = cpu {
                confine_to(cpu);
            }
            body()
        })
}

/// The CPU the socket's packets last arrived on (`SO_INCOMING_CPU`):
/// the sender's CPU over loopback, the NIC queue's for a remote peer.
pub fn incoming_cpu(stream: &TcpStream) -> Option<usize> {
    let mut cpu: i32 = -1;
    let mut len = std::mem::size_of::<i32>() as u32;
    let fd = stream.as_raw_fd();
    // SAFETY: `cpu` and `len` outlive the call; `len` is `cpu`'s size.
    let rc = unsafe { getsockopt(fd, SOL_SOCKET, SO_INCOMING_CPU, &mut cpu, &mut len) };
    usize::try_from(cpu).ok().filter(|_| rc == 0)
}

/// The calling thread's `(migrations, context switches)` so far, from
/// `/proc/thread-self/sched`; `None` where the kernel keeps no such file.
pub fn sched_counts() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/thread-self/sched").ok()?;
    let field = |name| {
        let line = text.lines().find(|line| line.starts_with(name))?;
        line.rsplit(':').next()?.trim().parse::<u64>().ok()
    };
    Some((field("se.nr_migrations")?, field("nr_switches")?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn nonblocking_connect_completes_via_writability() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let (stream, done) = connect_nonblocking(Ipv4Addr::LOCALHOST, port).unwrap();
        let mut poller = Poller::new().unwrap();
        if !done {
            poller
                .register(stream.as_raw_fd(), 7, Interest::Write)
                .unwrap();
            let mut ready = Vec::new();
            for _ in 0..100 {
                poller.wait(100, &mut ready).unwrap();
                if !ready.is_empty() {
                    break;
                }
            }
            assert_eq!(ready[0].token, 7);
            assert!(ready[0].writable || ready[0].error);
        }
        assert!(stream.take_error().unwrap().is_none());
        let (peer, _) = listener.accept().unwrap();
        drop(peer);
    }

    #[test]
    fn waker_interrupts_a_sleeping_poller() {
        let mut poller = Poller::new().unwrap();
        let waker = poller.waker();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            waker.wake();
        });
        let start = std::time::Instant::now();
        let mut ready = Vec::new();
        poller.wait(10_000, &mut ready).unwrap();
        assert!(
            start.elapsed().as_secs() < 5,
            "waker must cut the sleep short"
        );
        handle.join().unwrap();
    }

    #[test]
    fn a_waker_that_outlives_its_poller_writes_into_no_other_file() {
        // Linux gives `open` the lowest free descriptor, so files opened
        // once the poller is dropped take the numbers it freed. A waker
        // still about must not be able to write into one of them.
        let poller = Poller::new().unwrap();
        let waker = poller.waker();
        drop(poller);
        let dir = std::env::temp_dir();
        let paths: Vec<_> = (0..16)
            .map(|i| dir.join(format!("caai-net-waker-{}-{i}", std::process::id())))
            .collect();
        let files: Vec<File> = paths.iter().map(|p| File::create(p).unwrap()).collect();
        waker.wake();
        let lens: Vec<u64> = files.iter().map(|f| f.metadata().unwrap().len()).collect();
        for path in &paths {
            let _ = std::fs::remove_file(path);
        }
        assert!(
            lens.iter().all(|&n| n == 0),
            "a wake landed in a file: {lens:?}"
        );
    }

    /// `Cpus_allowed_list` of the calling thread; `None` without `/proc`.
    fn cpus_allowed_list() -> Option<String> {
        let status = std::fs::read_to_string("/proc/thread-self/status").ok()?;
        let list = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
        Some(list.trim().to_owned())
    }

    #[test]
    fn confine_to_leaves_the_thread_exactly_one_cpu() {
        // On a thread of its own: the mask must not outlive the test.
        let handle = std::thread::spawn(|| {
            let (Some(cpu), Some(before)) = (current_cpu(), cpus_allowed_list()) else {
                eprintln!("skipped: no sched_getcpu or no /proc/thread-self/status here");
                return;
            };
            assert!(allowed_cpus().contains(&cpu), "{before}");
            confine_to(cpu);
            assert_eq!(
                cpus_allowed_list().unwrap(),
                cpu.to_string(),
                "was {before}"
            );
            assert_eq!(allowed_cpus(), [cpu]);
            assert_eq!(current_cpu(), Some(cpu));
            // A CPU the mask cannot name is ignored, not a panic.
            confine_to(1 << 20);
            assert_eq!(cpus_allowed_list().unwrap(), cpu.to_string());
            // Not every kernel keeps /proc/thread-self/sched.
            if let Some((migrations, _)) = sched_counts() {
                std::thread::yield_now();
                assert_eq!(sched_counts().unwrap().0, migrations, "confined, yet moved");
            }
        });
        handle.join().unwrap();
    }

    #[test]
    fn incoming_cpu_is_the_confined_senders_cpu() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sender = std::thread::spawn(move || {
            let cpu = current_cpu();
            if let Some(cpu) = cpu {
                confine_to(cpu);
            }
            let mut stream = std::net::TcpStream::connect(addr).unwrap();
            stream.write_all(b"x").unwrap();
            // Hold the socket open until the byte is read.
            let _ = stream.read(&mut [0u8; 1]);
            cpu
        });
        let (mut peer, _) = listener.accept().unwrap();
        peer.read_exact(&mut [0u8; 1]).unwrap();
        let incoming = incoming_cpu(&peer);
        drop(peer);
        match sender.join().unwrap() {
            Some(cpu) => assert_eq!(incoming, Some(cpu)),
            None => eprintln!("skipped: no sched_getcpu here"),
        }
    }

    #[test]
    fn connect_to_a_dead_port_reports_an_error() {
        // Bind-then-drop: the port is (almost surely) unbound now.
        let port = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let (stream, done) = connect_nonblocking(Ipv4Addr::LOCALHOST, port).unwrap();
        if !done {
            let mut poller = Poller::new().unwrap();
            poller
                .register(stream.as_raw_fd(), 1, Interest::Write)
                .unwrap();
            let mut ready = Vec::new();
            for _ in 0..100 {
                poller.wait(100, &mut ready).unwrap();
                if !ready.is_empty() {
                    break;
                }
            }
        }
        assert!(
            stream.take_error().unwrap().is_some(),
            "refused connect must surface"
        );
    }
}
