//! Minimal epoll-based readiness poller used by the server's event-loop
//! shards.
//!
//! Wraps the raw bindings in [`crate::sys`] with owned-fd types so every
//! descriptor is closed on drop. Registration is level-triggered by
//! default — the shard loop re-arms interest explicitly — with an
//! opt-in edge-triggered mode for fds that are drained to `WouldBlock`
//! on every wakeup (the wake eventfd).

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::time::Duration;

use crate::sys;

/// Interest set for a registered descriptor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
    /// Edge-triggered delivery; caller must drain to `WouldBlock`.
    pub edge: bool,
}

impl Interest {
    pub const READ: Interest = Interest { readable: true, writable: false, edge: false };

    pub fn rw(readable: bool, writable: bool) -> Interest {
        Interest { readable, writable, edge: false }
    }

    fn mask(self) -> u32 {
        let mut m = sys::EPOLLRDHUP;
        if self.readable {
            m |= sys::EPOLLIN;
        }
        if self.writable {
            m |= sys::EPOLLOUT;
        }
        if self.edge {
            m |= sys::EPOLLET;
        }
        m
    }
}

/// One readiness notification out of [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token supplied at registration.
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    /// Peer hung up (EPOLLHUP or EPOLLRDHUP) — drain reads, then close.
    pub hangup: bool,
    /// Error condition on the fd; treat as fatal for the connection.
    pub error: bool,
}

/// An owned epoll instance.
pub struct Poller {
    ep: OwnedFd,
}

impl Poller {
    pub fn new() -> io::Result<Poller> {
        let raw = sys::cvt(unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) })?;
        Ok(Poller { ep: unsafe { OwnedFd::from_raw_fd(raw as RawFd) } })
    }

    fn ctl(&self, op: sys::c_int, fd: RawFd, ev: Option<(u64, Interest)>) -> io::Result<()> {
        let mut raw = sys::epoll_event { events: 0, data: 0 };
        let ptr = match ev {
            Some((token, interest)) => {
                raw.events = interest.mask();
                raw.data = token;
                &mut raw as *mut sys::epoll_event
            }
            // EPOLL_CTL_DEL ignores the event argument (non-null only
            // needed on pre-2.6.9 kernels, but harmless to pass).
            None => &mut raw as *mut sys::epoll_event,
        };
        sys::cvt(unsafe { sys::epoll_ctl(self.ep.as_raw_fd(), op, sys::fd(fd), ptr) })?;
        Ok(())
    }

    /// Register `fd` under `token`. Tokens are caller-chosen and echoed
    /// back verbatim in [`Event::token`].
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, Some((token, interest)))
    }

    /// Change the interest set of an already-registered `fd`.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, Some((token, interest)))
    }

    /// Remove `fd` from the interest list. Safe to call for fds that are
    /// about to be closed anyway; errors other than ENOENT are returned.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        match self.ctl(sys::EPOLL_CTL_DEL, fd, None) {
            Err(e) if e.raw_os_error() == Some(2) => Ok(()), // ENOENT
            other => other,
        }
    }

    /// Block until readiness or `timeout` (None = forever), appending
    /// into `out` (cleared first). Returns the number of events.
    pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        out.clear();
        const CAP: usize = 1024;
        let mut raw = [sys::epoll_event { events: 0, data: 0 }; CAP];
        let ms: sys::c_int = match timeout {
            // Round up so a 100µs deadline doesn't spin at timeout=0.
            Some(d) => d.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32,
            None => -1,
        };
        let n = loop {
            match sys::cvt(unsafe {
                sys::epoll_wait(self.ep.as_raw_fd(), raw.as_mut_ptr(), CAP as sys::c_int, ms)
            }) {
                Ok(n) => break n as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        for ev in &raw[..n] {
            let bits = ev.events;
            out.push(Event {
                token: ev.data,
                readable: bits & sys::EPOLLIN != 0,
                writable: bits & sys::EPOLLOUT != 0,
                hangup: bits & (sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
                error: bits & sys::EPOLLERR != 0,
            });
        }
        Ok(n)
    }
}

/// A cross-thread wakeup handle backed by an `eventfd`.
///
/// Any thread may call [`WakeFd::wake`]; the owning event loop registers
/// the fd (edge-triggered) and calls [`WakeFd::drain`] when it fires.
pub struct WakeFd {
    f: File,
}

impl WakeFd {
    pub fn new() -> io::Result<WakeFd> {
        let raw = sys::cvt(unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) })?;
        Ok(WakeFd { f: unsafe { File::from_raw_fd(raw as RawFd) } })
    }

    /// Make the next (or current) `epoll_wait` on this fd return.
    pub fn wake(&self) {
        // A full counter (EAGAIN) already guarantees a pending wakeup.
        let _ = (&self.f).write(&1u64.to_ne_bytes());
    }

    /// Reset the counter so level-triggered re-registration stays quiet.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        let _ = (&self.f).read(&mut buf);
    }
}

impl AsRawFd for WakeFd {
    fn as_raw_fd(&self) -> RawFd {
        self.f.as_raw_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn wake_fd_rouses_a_waiting_poller() {
        let p = Poller::new().unwrap();
        let w = std::sync::Arc::new(WakeFd::new().unwrap());
        p.register(w.as_raw_fd(), 7, Interest { readable: true, writable: false, edge: true })
            .unwrap();
        let w2 = w.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            w2.wake();
        });
        let mut evs = Vec::new();
        let n = p.wait(&mut evs, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        assert_eq!(evs[0].token, 7);
        assert!(evs[0].readable);
        w.drain();
        t.join().unwrap();
    }

    #[test]
    fn socket_readiness_and_interest_changes() {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let (b, _) = l.accept().unwrap();
        a.set_nonblocking(true).unwrap();
        let p = Poller::new().unwrap();
        p.register(a.as_raw_fd(), 1, Interest::rw(true, true)).unwrap();

        // Fresh socket: writable, not readable.
        let mut evs = Vec::new();
        p.wait(&mut evs, Some(Duration::from_secs(5))).unwrap();
        assert!(evs.iter().any(|e| e.token == 1 && e.writable && !e.readable));

        // Read interest only + data in flight → readable.
        p.modify(a.as_raw_fd(), 1, Interest::READ).unwrap();
        (&b).write_all(b"x").unwrap();
        p.wait(&mut evs, Some(Duration::from_secs(5))).unwrap();
        assert!(evs.iter().any(|e| e.token == 1 && e.readable));

        // Peer close → hangup flag alongside readable.
        drop(b);
        p.wait(&mut evs, Some(Duration::from_secs(5))).unwrap();
        assert!(evs.iter().any(|e| e.token == 1 && e.hangup));
        p.deregister(a.as_raw_fd()).unwrap();
    }
}
