//! [`Conn`]: a nonblocking socket with its frame decoder and the bytes
//! not yet written to it. The one read path and the one write path the
//! reactor's probe sessions and the emulated fleet's connections share.

use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;

use crate::frame::FrameDecoder;
use crate::sys::{Interest, Poller};

/// The buffer an event loop keeps for [`Conn::fill`] to read into: one per
/// loop, zeroed once, not once per readable event.
pub(crate) fn read_buffer() -> Box<[u8]> {
    vec![0; 16 * 1024].into_boxed_slice()
}

/// One nonblocking connection. Closing is dropping: the socket closes
/// and the kernel takes it out of the poller with it.
pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    /// Every byte read, for the owner to take whole frames from.
    pub(crate) decoder: FrameDecoder,
    /// Encoded frames to write; those before `out_at` are written.
    pub(crate) out: Vec<u8>,
    out_at: usize,
    /// What the poller watches the socket for; `None` until registered.
    interest: Option<Interest>,
}

impl Conn {
    /// A connection over `stream`, which must be nonblocking.
    pub(crate) fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            decoder: FrameDecoder::new(),
            out: Vec::new(),
            out_at: 0,
            interest: None,
        }
    }

    /// Reads what the socket holds into the decoder, through the loop's
    /// `buf` ([`read_buffer`]), until a read comes up short, would block,
    /// or meets EOF or an error: `true` while the connection is open,
    /// `false` at EOF. The poller is level-triggered, so a read that did
    /// not fill the buffer emptied the socket, and whatever arrives later
    /// (EOF included) is reported again. `read` hears of every read, with
    /// the bytes it took.
    pub(crate) fn fill(&mut self, buf: &mut [u8], mut read: impl FnMut(usize)) -> io::Result<bool> {
        loop {
            match self.stream.read(buf) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    self.decoder.push(&buf[..n]);
                    read(n);
                    if n < buf.len() {
                        return Ok(true);
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(true),
                Err(e) => return Err(e),
            }
        }
    }

    /// Writes what `out` holds: `true` once all of it is written (and
    /// `out` emptied), `false` when the socket would block first.
    /// `wrote` hears of every write, with the bytes it took.
    pub(crate) fn flush(&mut self, mut wrote: impl FnMut(usize)) -> io::Result<bool> {
        while self.out_at < self.out.len() {
            match self.stream.write(&self.out[self.out_at..]) {
                Ok(n) => {
                    self.out_at += n;
                    wrote(n);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_at = 0;
        Ok(true)
    }

    /// Whether part of `out` is not yet written.
    pub(crate) fn unsent(&self) -> bool {
        self.out_at < self.out.len()
    }

    /// Has `poller` watch the socket for `interest`, reported as `token`.
    pub(crate) fn watch(
        &mut self,
        poller: &mut Poller,
        token: u64,
        interest: Interest,
    ) -> io::Result<()> {
        let fd = self.stream.as_raw_fd();
        match self.interest.replace(interest) {
            None => poller.register(fd, token, interest),
            Some(old) if old != interest => poller.rearm(fd, token, interest),
            Some(_) => Ok(()),
        }
    }
}
