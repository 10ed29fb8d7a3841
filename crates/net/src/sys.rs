//! Raw syscall bindings for the reactor.
//!
//! The build environment is offline: no `libc`, `mio`, or `tokio`
//! crates. The reactor needs exactly eight syscalls — socket, connect,
//! read, write, close, setsockopt/getsockopt, and a readiness
//! multiplexer — so they are declared here directly against the C
//! ABI. Linux gets `epoll` + `eventfd`; other unixes fall back to
//! `poll(2)` + a self-pipe. Linux also places threads ([`confine_to`],
//! [`allowed_cpus`]: `sched_getcpu`, `sched_setaffinity`,
//! `sched_getaffinity`, `SO_INCOMING_CPU`; best effort, no-ops
//! elsewhere). All `unsafe` in the crate is confined to this module;
//! everything it exports is a safe wrapper over an owned file
//! descriptor.

#![allow(clippy::missing_safety_doc)]

use std::io;
use std::net::Ipv4Addr;

/// IPv4 address family.
pub const AF_INET: i32 = 2;
const SOCK_STREAM: i32 = 1;
const SOCK_NONBLOCK: i32 = 0o4000;
const SOCK_CLOEXEC: i32 = 0o2000000;
const SOL_SOCKET: i32 = 1;
const SO_ERROR: i32 = 4;
const SO_LINGER: i32 = 13;

/// Nonblocking connect in flight.
pub const EINPROGRESS: i32 = 115;
/// Interrupted by a signal; retry.
pub const EINTR: i32 = 4;
/// Operation would block.
pub const EAGAIN: i32 = 11;

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

extern "C" {
    fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
    fn connect(fd: i32, addr: *const SockAddrIn, len: u32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
    fn getsockopt(fd: i32, level: i32, name: i32, value: *mut i32, len: *mut u32) -> i32;
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
    fn __errno_location() -> *mut i32;
}

/// The calling thread's errno.
pub fn errno() -> i32 {
    unsafe { *__errno_location() }
}

fn io_err(what: &str) -> io::Error {
    io::Error::new(
        io::Error::from_raw_os_error(errno()).kind(),
        format!("{what}: os error {}", errno()),
    )
}

/// A file descriptor closed on drop.
#[derive(Debug)]
pub struct OwnedFd(i32);

impl OwnedFd {
    /// The raw descriptor (borrowed; the wrapper still owns it).
    pub fn raw(&self) -> i32 {
        self.0
    }
}

impl Drop for OwnedFd {
    fn drop(&mut self) {
        unsafe {
            close(self.0);
        }
    }
}

/// Opens a nonblocking IPv4 TCP socket and starts connecting to
/// `addr:port`. Returns the socket and whether the connect already
/// completed (loopback often does); otherwise completion is signalled
/// by writability, with [`take_socket_error`] holding the verdict.
pub fn connect_nonblocking(addr: Ipv4Addr, port: u16) -> io::Result<(OwnedFd, bool)> {
    let fd = unsafe { socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(io_err("socket"));
    }
    let fd = OwnedFd(fd);
    let sa = SockAddrIn {
        sin_family: AF_INET as u16,
        sin_port: port.to_be(),
        sin_addr: u32::from(addr).to_be(),
        sin_zero: [0; 8],
    };
    let rc = unsafe { connect(fd.raw(), &sa, std::mem::size_of::<SockAddrIn>() as u32) };
    if rc == 0 {
        return Ok((fd, true));
    }
    match errno() {
        EINPROGRESS | EINTR => Ok((fd, false)),
        _ => Err(io_err("connect")),
    }
}

/// Reads the socket's pending error (`SO_ERROR`), clearing it: `Ok(())`
/// when the nonblocking connect succeeded.
pub fn take_socket_error(fd: &OwnedFd) -> io::Result<()> {
    let mut err: i32 = 0;
    let mut len = std::mem::size_of::<i32>() as u32;
    let rc = unsafe { getsockopt(fd.raw(), SOL_SOCKET, SO_ERROR, &mut err, &mut len) };
    if rc < 0 {
        return Err(io_err("getsockopt(SO_ERROR)"));
    }
    if err != 0 {
        return Err(io::Error::from_raw_os_error(err));
    }
    Ok(())
}

/// Arms an abortive close: dropping the socket after this sends RST
/// instead of FIN. Used by the emulated server's reset behavior.
pub fn set_linger_reset(fd: i32) -> io::Result<()> {
    let lg = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    let rc = unsafe {
        setsockopt(
            fd,
            SOL_SOCKET,
            SO_LINGER,
            &lg,
            std::mem::size_of::<Linger>() as u32,
        )
    };
    if rc < 0 {
        return Err(io_err("setsockopt(SO_LINGER)"));
    }
    Ok(())
}

/// Nonblocking read. `Ok(None)` = would block, `Ok(Some(0))` = EOF.
pub fn read_nonblocking(fd: &OwnedFd, buf: &mut [u8]) -> io::Result<Option<usize>> {
    loop {
        let n = unsafe { read(fd.raw(), buf.as_mut_ptr(), buf.len()) };
        if n >= 0 {
            return Ok(Some(n as usize));
        }
        match errno() {
            EINTR => continue,
            EAGAIN => return Ok(None),
            _ => return Err(io_err("read")),
        }
    }
}

/// Nonblocking write. `Ok(None)` = would block.
pub fn write_nonblocking(fd: &OwnedFd, buf: &[u8]) -> io::Result<Option<usize>> {
    loop {
        let n = unsafe { write(fd.raw(), buf.as_ptr(), buf.len()) };
        if n >= 0 {
            return Ok(Some(n as usize));
        }
        match errno() {
            EINTR => continue,
            EAGAIN => return Ok(None),
            _ => return Err(io_err("write")),
        }
    }
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
    /// Writable only (a pending connect).
    Write,
    /// Both.
    ReadWrite,
}

// ------------------------------------------------------------------
// Linux: epoll + eventfd
// ------------------------------------------------------------------
#[cfg(target_os = "linux")]
mod imp {
    use super::*;

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x1;
    const EPOLLOUT: u32 = 0x4;
    const EPOLLERR: u32 = 0x8;
    const EPOLLHUP: u32 = 0x10;
    const EPOLLRDHUP: u32 = 0x2000;
    const EFD_NONBLOCK: i32 = 0o4000;
    const EFD_CLOEXEC: i32 = 0o2000000;
    const SO_INCOMING_CPU: i32 = 49;

    // x86-64 packs this struct in the kernel ABI.
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const usize) -> i32;
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut usize) -> i32;
    }

    /// Room for 1,024 CPUs, glibc's `cpu_set_t`.
    const MASK_WORDS: usize = 1024 / usize::BITS as usize;

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
        wake_fd: OwnedFd,
        events: Vec<EpollEvent>,
    }

    /// Token the poller reserves for its own wakeup descriptor.
    pub const WAKE_TOKEN: u64 = u64::MAX;

    impl Poller {
        /// A fresh epoll instance with its wakeup eventfd registered.
        pub fn new() -> io::Result<Poller> {
            let ep = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if ep < 0 {
                return Err(io_err("epoll_create1"));
            }
            let ep = OwnedFd(ep);
            let wake = unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) };
            if wake < 0 {
                return Err(io_err("eventfd"));
            }
            let wake_fd = OwnedFd(wake);
            let poller = Poller {
                ep,
                wake_fd,
                events: vec![EpollEvent { events: 0, data: 0 }; 256],
            };
            poller.ctl(EPOLL_CTL_ADD, poller.wake_fd.raw(), EPOLLIN, WAKE_TOKEN)?;
            Ok(poller)
        }

        fn ctl(&self, op: i32, fd: i32, events: u32, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            let rc = unsafe { epoll_ctl(self.ep.raw(), op, fd, &mut ev) };
            if rc < 0 {
                return Err(io_err("epoll_ctl"));
            }
            Ok(())
        }

        /// Starts watching `fd` for `interest`, reporting it as `token`.
        pub fn register(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, interest_bits(interest), token)
        }

        /// Changes what a registered descriptor is watched for.
        pub fn rearm(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, interest_bits(interest), token)
        }

        /// Stops watching `fd` (harmless if the fd is already closed).
        pub fn deregister(&mut self, fd: i32) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// A handle other threads use to interrupt [`wait`](Self::wait).
        pub fn waker(&self) -> Waker {
            Waker {
                fd: self.wake_fd.raw(),
            }
        }

        /// Blocks up to `timeout_ms` (`-1` = forever) for readiness,
        /// filling `out`. Wakeups and `EINTR` return an empty set.
        pub fn wait(&mut self, timeout_ms: i32, out: &mut Vec<Readiness>) -> io::Result<()> {
            out.clear();
            let n = unsafe {
                epoll_wait(
                    self.ep.raw(),
                    self.events.as_mut_ptr(),
                    self.events.len() as i32,
                    timeout_ms,
                )
            };
            if n < 0 {
                if errno() == EINTR {
                    return Ok(());
                }
                return Err(io_err("epoll_wait"));
            }
            for ev in &self.events[..n as usize] {
                let bits = ev.events;
                if ev.data == WAKE_TOKEN {
                    // Drain the eventfd counter; readiness is the signal.
                    let mut buf = [0u8; 8];
                    let _ = read_nonblocking(&self.wake_fd, &mut buf);
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

    /// Cross-thread wakeup for a sleeping poller.
    #[derive(Debug, Clone, Copy)]
    pub struct Waker {
        fd: i32,
    }

    impl Waker {
        /// Interrupts the poller's current (or next) wait.
        pub fn wake(&self) {
            let one: u64 = 1;
            unsafe {
                write(self.fd, one.to_ne_bytes().as_ptr(), 8);
            }
        }
    }

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

    /// The CPU the socket's packets last arrived on (`SO_INCOMING_CPU`):
    /// the sender's CPU over loopback, the NIC queue's for a remote peer.
    pub fn incoming_cpu(fd: i32) -> Option<usize> {
        let mut cpu: i32 = -1;
        let mut len = std::mem::size_of::<i32>() as u32;
        // SAFETY: `cpu` and `len` outlive the call; `len` is `cpu`'s size.
        let rc = unsafe { getsockopt(fd, SOL_SOCKET, SO_INCOMING_CPU, &mut cpu, &mut len) };
        usize::try_from(cpu).ok().filter(|_| rc == 0)
    }
}

// ------------------------------------------------------------------
// Other unixes: poll(2) + self-pipe
// ------------------------------------------------------------------
#[cfg(all(unix, not(target_os = "linux")))]
mod imp {
    use super::*;

    const POLLIN: i16 = 0x1;
    const POLLOUT: i16 = 0x4;
    const POLLERR: i16 = 0x8;
    const POLLHUP: i16 = 0x10;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
        fn pipe(fds: *mut i32) -> i32;
        fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
    }

    /// The poll(2)-backed fallback multiplexer.
    pub struct Poller {
        entries: Vec<(i32, u64, Interest)>,
        pipe_r: OwnedFd,
        pipe_w: OwnedFd,
    }

    impl Poller {
        /// A fresh poll set with its wakeup self-pipe armed.
        pub fn new() -> io::Result<Poller> {
            let mut fds = [0i32; 2];
            if unsafe { pipe(fds.as_mut_ptr()) } < 0 {
                return Err(io_err("pipe"));
            }
            const F_SETFL: i32 = 4;
            const O_NONBLOCK: i32 = 0o4000;
            unsafe {
                fcntl(fds[0], F_SETFL, O_NONBLOCK);
                fcntl(fds[1], F_SETFL, O_NONBLOCK);
            }
            Ok(Poller {
                entries: Vec::new(),
                pipe_r: OwnedFd(fds[0]),
                pipe_w: OwnedFd(fds[1]),
            })
        }

        /// Starts watching `fd` for `interest`, reporting it as `token`.
        pub fn register(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            self.entries.push((fd, token, interest));
            Ok(())
        }

        /// Changes what a registered descriptor is watched for.
        pub fn rearm(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            if let Some(e) = self.entries.iter_mut().find(|e| e.0 == fd) {
                *e = (fd, token, interest);
            }
            Ok(())
        }

        /// Stops watching `fd`.
        pub fn deregister(&mut self, fd: i32) -> io::Result<()> {
            self.entries.retain(|e| e.0 != fd);
            Ok(())
        }

        /// A handle other threads use to interrupt [`wait`](Self::wait).
        pub fn waker(&self) -> Waker {
            Waker {
                fd: self.pipe_w.raw(),
            }
        }

        /// Blocks up to `timeout_ms` (`-1` = forever) for readiness,
        /// filling `out`. Wakeups and `EINTR` return an empty set.
        pub fn wait(&mut self, timeout_ms: i32, out: &mut Vec<Readiness>) -> io::Result<()> {
            out.clear();
            let mut fds: Vec<PollFd> = Vec::with_capacity(self.entries.len() + 1);
            fds.push(PollFd {
                fd: self.pipe_r.raw(),
                events: POLLIN,
                revents: 0,
            });
            for &(fd, _, interest) in &self.entries {
                let events = match interest {
                    Interest::Read => POLLIN,
                    Interest::Write => POLLOUT,
                    Interest::ReadWrite => POLLIN | POLLOUT,
                };
                fds.push(PollFd {
                    fd,
                    events,
                    revents: 0,
                });
            }
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
            if n < 0 {
                if errno() == EINTR {
                    return Ok(());
                }
                return Err(io_err("poll"));
            }
            if fds[0].revents & POLLIN != 0 {
                let mut buf = [0u8; 64];
                let _ = read_nonblocking(&self.pipe_r, &mut buf);
            }
            for (slot, &(_, token, _)) in fds[1..].iter().zip(&self.entries) {
                if slot.revents == 0 {
                    continue;
                }
                out.push(Readiness {
                    token,
                    readable: slot.revents & (POLLIN | POLLHUP) != 0,
                    writable: slot.revents & POLLOUT != 0,
                    error: slot.revents & (POLLERR | POLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    /// Cross-thread wakeup for a sleeping poller.
    #[derive(Debug, Clone, Copy)]
    pub struct Waker {
        fd: i32,
    }

    impl Waker {
        /// Interrupts the poller's current (or next) wait.
        pub fn wake(&self) {
            unsafe {
                write(self.fd, [1u8].as_ptr(), 1);
            }
        }
    }

    /// Thread placement is Linux-only: unknown here.
    pub fn current_cpu() -> Option<usize> {
        None
    }

    /// Thread placement is Linux-only: a no-op here.
    pub fn confine_to(_cpu: usize) {}

    /// Thread placement is Linux-only: no CPU is named here.
    pub fn allowed_cpus() -> Vec<usize> {
        Vec::new()
    }

    /// Thread placement is Linux-only: unknown here.
    pub fn incoming_cpu(_fd: i32) -> Option<usize> {
        None
    }
}

pub use imp::{allowed_cpus, confine_to, current_cpu, incoming_cpu, Poller, Waker};

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
        let (fd, done) = connect_nonblocking(Ipv4Addr::LOCALHOST, port).unwrap();
        let mut poller = Poller::new().unwrap();
        if !done {
            poller.register(fd.raw(), 7, Interest::Write).unwrap();
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
        take_socket_error(&fd).unwrap();
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
        use std::io::{Read, Write};
        use std::os::unix::io::AsRawFd;
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
        let incoming = incoming_cpu(peer.as_raw_fd());
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
        let (fd, done) = connect_nonblocking(Ipv4Addr::LOCALHOST, port).unwrap();
        if !done {
            let mut poller = Poller::new().unwrap();
            poller.register(fd.raw(), 1, Interest::Write).unwrap();
            let mut ready = Vec::new();
            for _ in 0..100 {
                poller.wait(100, &mut ready).unwrap();
                if !ready.is_empty() {
                    break;
                }
            }
        }
        assert!(
            take_socket_error(&fd).is_err(),
            "refused connect must surface"
        );
    }
}
