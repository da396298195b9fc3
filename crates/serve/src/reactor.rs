//! The readiness layer under the event loop: who is ready, and how a
//! sleeping event thread is woken.
//!
//! One backend: `poll(2)` over the raw fds of the listener, the
//! connections and a wake socket (a [`UnixStream`] pair), declared
//! `extern "C"` against the C runtime std already links — no `libc`
//! crate, no new dependency. A sleeping event thread costs nothing
//! and wakes in microseconds when a peer sends, a response lands, or
//! the server shuts down. The condvar-paced scan that once stood in
//! for it off unix answered every request one 50 ms tick late
//! (EXPERIMENTS.md E31), so a non-unix build stops here instead.
//!
//! The API is deliberately tiny: an interest list in, a readiness
//! list out, plus [`Waker`] for cross-thread nudges. The event loop
//! (in [`crate::server`]) owns all connection state; the poller owns
//! nothing but fds.

#[cfg(not(unix))]
compile_error!("wrl-serve waits on poll(2) over raw fds, which only unix targets have");

use std::io::{self, Read, Write};
use std::os::raw::{c_int, c_short, c_ulong};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// What an interest subscribes to / a readiness event reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Poll for readability.
    pub read: bool,
    /// Poll for writability.
    pub write: bool,
}

/// One readiness report: the index into the interest list that
/// [`Poller::wait`] was given, plus what it is ready for. Errors and
/// hangups are reported as readability — the subsequent read observes
/// the EOF or error and the state machine classifies it.
#[derive(Clone, Copy, Debug)]
pub struct Ready {
    /// Index into the interest slice passed to `wait`.
    pub idx: usize,
    /// Ready to read (or in an error/hangup state).
    pub read: bool,
    /// Ready to write.
    pub write: bool,
}

/// The fd bound the poller accepts per wait — far above anything the
/// admission gate admits, present so a runaway accept loop cannot
/// grow the pollfd array without bound.
pub const MAX_POLLED: usize = 16_384;

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;

#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: c_short,
    revents: c_short,
}

extern "C" {
    // std links the C runtime on every unix target; declaring the
    // symbol keeps the crate free of the `libc` crate while still
    // using the kernel's readiness queue.
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// `poll(2)`-backed readiness over raw fds plus a wake socket.
pub struct Poller {
    wake_rx: UnixStream,
    fds: Vec<PollFd>,
}

/// The cross-thread wake handle: one byte down the wake socket. It
/// holds the socket's only write end, so it must outlive its poller's
/// waits (the server keeps every waker until its threads join); once
/// dropped, the poller would see a hangup on every wait.
pub struct Waker {
    tx: UnixStream,
}

impl Waker {
    /// Wakes the owning poller out of `wait`. A full socket buffer
    /// means a wake is already pending, which is just as good.
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1u8]);
    }
}

impl Poller {
    /// Builds a poller and its wake handle.
    pub fn new() -> io::Result<(Poller, Waker)> {
        let (wake_rx, tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        let poller = Poller {
            wake_rx,
            fds: Vec::new(),
        };
        Ok((poller, Waker { tx }))
    }

    /// Blocks until a subscribed fd is ready, the waker fires, or
    /// `timeout` passes. Readiness lands in `ready` as indices into
    /// `interests`; returns `true` if the waker fired.
    pub fn wait(
        &mut self,
        interests: &[(&dyn AsRawFd, Interest)],
        timeout: Duration,
        ready: &mut Vec<Ready>,
    ) -> bool {
        ready.clear();
        self.fds.clear();
        self.fds.push(PollFd {
            fd: self.wake_rx.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        });
        for (fd, want) in interests {
            let mut events = 0;
            if want.read {
                events |= POLLIN;
            }
            if want.write {
                events |= POLLOUT;
            }
            self.fds.push(PollFd {
                fd: fd.as_raw_fd(),
                events,
                revents: 0,
            });
        }
        let ms = timeout.as_millis().min(i32::MAX as u128) as c_int;
        // SAFETY: `fds` is a live, exclusively borrowed array of
        // `fds.len()` `#[repr(C)]` pollfd records, which `poll` reads
        // and whose `revents` it writes, nothing past the end; every fd
        // in it is borrowed from an open socket for this call.
        let rc = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as c_ulong, ms.max(1)) };
        if rc <= 0 {
            // Timeout, or EINTR — either way the loop ticks.
            return false;
        }
        let mut woke = false;
        if self.fds[0].revents != 0 {
            woke = true;
            let mut sink = [0u8; 64];
            while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
        }
        for (i, pfd) in self.fds.iter().enumerate().skip(1) {
            if pfd.revents != 0 {
                ready.push(Ready {
                    idx: i - 1,
                    // Hangups and errors count as readable: the read
                    // observes and classifies them.
                    read: pfd.revents & !POLLOUT != 0,
                    write: pfd.revents & POLLOUT != 0,
                });
            }
        }
        woke
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn a_wake_interrupts_a_sleeping_wait() {
        let (mut poller, waker) = Poller::new().expect("poller builds");
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            waker.wake();
            // The waker is the write end: hold it until the wait saw
            // the byte, or the hangup would wake the poller instead.
            waker
        });
        let t0 = Instant::now();
        let mut ready = Vec::new();
        // Without the wake this would sleep the full two seconds.
        let mut woke = false;
        while t0.elapsed() < Duration::from_secs(2) {
            if poller.wait(&[], Duration::from_secs(2), &mut ready) {
                woke = true;
                break;
            }
        }
        assert!(woke, "wake must interrupt the wait");
        assert!(t0.elapsed() < Duration::from_secs(2));
        t.join().unwrap();
    }

    #[test]
    fn readiness_reports_a_readable_socket() {
        use std::net::{TcpListener, TcpStream};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut peer = TcpStream::connect(addr).unwrap();
        let (sock, _) = listener.accept().unwrap();
        sock.set_nonblocking(true).unwrap();
        peer.write_all(b"hi").unwrap();
        let (mut poller, _waker) = Poller::new().unwrap();
        let mut ready = Vec::new();
        let t0 = Instant::now();
        let mut saw = false;
        while t0.elapsed() < Duration::from_secs(2) && !saw {
            poller.wait(
                &[(
                    &sock,
                    Interest {
                        read: true,
                        write: false,
                    },
                )],
                Duration::from_millis(100),
                &mut ready,
            );
            saw = ready.iter().any(|r| r.idx == 0 && r.read);
        }
        assert!(saw, "poll must report the readable socket");
    }
}
