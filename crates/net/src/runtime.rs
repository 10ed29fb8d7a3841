//! The event-loop runtime the reactor and the emulated fleet both run on.
//!
//! A loop is a thread that waits on a [`Poller`] until the next timer of
//! its [`TimerWheel`] is due, then takes the commands other threads sent
//! it, then the readiness the wait reported, then the timers due. What a
//! loop does with each is its [`EventLoop`] implementation's business:
//! the reactor's probe sessions, the fleet's listeners and connections.
//! [`start`] puts one on a thread of its own; [`EventLoop::serve`] runs
//! one on the calling thread. Other threads reach a loop through its
//! [`Handle`].

use std::io;
use std::sync::mpsc::{self, TryRecvError};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::sys::{self, Poller, Readiness, Waker};
use crate::wheel::{Timer, TimerWheel};

/// One event loop's own logic; [`serve`](EventLoop::serve) drives it.
pub(crate) trait EventLoop {
    /// What other threads send it.
    type Command;

    /// The poller it waits on and the timers it keeps.
    fn io(&mut self) -> (&mut Poller, &mut TimerWheel);

    /// Takes one command; `false` stops the loop at once.
    fn command(&mut self, command: Self::Command) -> bool;

    /// Takes one readiness event.
    fn ready(&mut self, ev: Readiness);

    /// Takes one timer that fell due at or before `now`.
    fn timer(&mut self, timer: Timer, now: Instant);

    /// A wait has returned: the round's commands, readiness and timers
    /// come next.
    fn woke(&mut self) {}

    /// The round is over; `_ready` readiness events came with it.
    fn settle(&mut self, _ready: usize) {}

    /// Whether it still has work once its command queue has closed.
    fn busy(&self) -> bool {
        false
    }

    /// Runs the loop on the calling thread until a command stops it, its
    /// command queue closes with nothing left [`busy`](EventLoop::busy),
    /// or the poller fails.
    fn serve(&mut self, inbox: &mpsc::Receiver<Self::Command>) {
        let mut ready: Vec<Readiness> = Vec::new();
        let mut fired: Vec<Timer> = Vec::new();
        let mut closed = false;
        while !closed || self.busy() {
            let (poller, wheel) = self.io();
            if poller
                .wait(wheel.timeout_ms(Instant::now()), &mut ready)
                .is_err()
            {
                return;
            }
            self.woke();
            // Commands first: a shutdown must beat any amount of IO.
            loop {
                match inbox.try_recv() {
                    Ok(command) => {
                        if !self.command(command) {
                            return;
                        }
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        closed = true;
                        break;
                    }
                }
            }
            let woken = ready.len();
            for ev in ready.drain(..) {
                self.ready(ev);
            }
            let now = Instant::now();
            self.io().1.expire(now, &mut fired);
            for timer in fired.drain(..) {
                self.timer(timer, now);
            }
            self.settle(woken);
        }
    }
}

/// How other threads reach a loop: its command queue and the waker of
/// its poller, poked after every command sent. The waker shares the
/// poller's eventfd, so a wake after the loop has returned reaches no
/// descriptor opened since.
pub(crate) struct Handle<C> {
    sender: mpsc::Sender<C>,
    waker: Waker,
}

impl<C> Handle<C> {
    /// A command queue into the loop that waits on `poller`: the handle,
    /// and the receiver to [`serve`](EventLoop::serve) it from.
    pub(crate) fn new(poller: &Poller) -> (Handle<C>, mpsc::Receiver<C>) {
        let (sender, inbox) = mpsc::channel();
        let waker = poller.waker();
        (Handle { sender, waker }, inbox)
    }

    /// Sends `command` and wakes the loop; hands the command back when
    /// the loop is gone.
    pub(crate) fn send(&self, command: C) -> Result<(), mpsc::SendError<C>> {
        self.sender.send(command)?;
        self.waker.wake();
        Ok(())
    }

    /// Closes the command queue and wakes the loop to see that: a loop
    /// with nothing left [`busy`](EventLoop::busy) returns.
    pub(crate) fn close(self) {
        let Handle { sender, waker } = self;
        drop(sender);
        waker.wake();
    }
}

/// Starts a loop on a thread named `name`, confined to `cpu` when one is
/// named (one of [`sys::loop_cpus`]): `body` gets the loop's poller and
/// command queue on that thread and runs it.
pub(crate) fn start<C: Send + 'static>(
    name: &str,
    cpu: Option<usize>,
    body: impl FnOnce(Poller, mpsc::Receiver<C>) + Send + 'static,
) -> io::Result<(Handle<C>, JoinHandle<()>)> {
    let poller = Poller::new()?;
    let (handle, inbox) = Handle::new(&poller);
    let thread = sys::spawn_on(name, cpu, move || body(poller, inbox))?;
    Ok((handle, thread))
}
