//! Thin raw-syscall bindings for the readiness loop.
//!
//! The workspace is std-only — no `libc` crate — but std already links
//! the platform C library, so the handful of symbols the event loop
//! needs (`epoll_*`, `eventfd`, `sendmsg`) are declared here directly and
//! wrapped in safe, `std::os::fd`-based types by [`crate::poll`] and
//! [`send_vectored`].
//! Everything is Linux-specific; the server crate does not build
//! elsewhere (matching CI and the deployment target).

#![allow(non_camel_case_types)]

use std::io::{self, IoSlice};
use std::os::fd::{AsRawFd, BorrowedFd, RawFd};

pub(crate) type c_int = i32;

/// `accept(2)`: the process, or the system, is out of descriptors.
pub(crate) const EMFILE: c_int = 24;
pub(crate) const ENFILE: c_int = 23;

// -- epoll ------------------------------------------------------------

pub(crate) const EPOLL_CLOEXEC: c_int = 0o2000000;

pub(crate) const EPOLL_CTL_ADD: c_int = 1;
pub(crate) const EPOLL_CTL_DEL: c_int = 2;
pub(crate) const EPOLL_CTL_MOD: c_int = 3;

pub(crate) const EPOLLIN: u32 = 0x001;
pub(crate) const EPOLLOUT: u32 = 0x004;
pub(crate) const EPOLLERR: u32 = 0x008;
pub(crate) const EPOLLHUP: u32 = 0x010;
pub(crate) const EPOLLRDHUP: u32 = 0x2000;
pub(crate) const EPOLLET: u32 = 1 << 31;

/// The kernel's `struct epoll_event`. On x86-64 the ABI packs it to 12
/// bytes (a 32-bit leftover from the i386 days); other architectures use
/// natural alignment — mirror glibc's `__EPOLL_PACKED`.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub(crate) struct epoll_event {
    pub events: u32,
    pub data: u64,
}

// -- eventfd ----------------------------------------------------------

pub(crate) const EFD_CLOEXEC: c_int = 0o2000000;
pub(crate) const EFD_NONBLOCK: c_int = 0o4000;

// -- sendmsg ----------------------------------------------------------

/// Raise no `SIGPIPE` when the peer has gone: the write fails `EPIPE`.
const MSG_NOSIGNAL: c_int = 0x4000;

/// `struct msghdr`, as the C library declares it.
#[repr(C)]
struct msghdr {
    msg_name: *mut u8,
    msg_namelen: u32,
    msg_iov: *const IoSlice<'static>,
    msg_iovlen: usize,
    msg_control: *mut u8,
    msg_controllen: usize,
    msg_flags: c_int,
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sendmsg(fd: c_int, msg: *const msghdr, flags: c_int) -> isize;
    pub(crate) fn epoll_create1(flags: c_int) -> c_int;
    pub(crate) fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut epoll_event) -> c_int;
    pub(crate) fn epoll_wait(
        epfd: c_int,
        events: *mut epoll_event,
        maxevents: c_int,
        timeout: c_int,
    ) -> c_int;
    pub(crate) fn eventfd(initval: u32, flags: c_int) -> c_int;
}

#[cfg(not(target_os = "linux"))]
compile_error!("ermia-server's readiness loop requires Linux epoll");

/// Convert a raw return value into `io::Result`, capturing `errno`.
pub(crate) fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// One vectored write of `bufs` to the socket `sock`: a single
/// `sendmsg(2)`, which like std's `TcpStream::write` (a `send(2)`) raises
/// no `SIGPIPE` on a closed peer — std's `write_vectored` there is a
/// `writev(2)`, which does. Returns the bytes the socket took.
pub(crate) fn send_vectored(sock: BorrowedFd<'_>, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
    let msg = msghdr {
        msg_name: std::ptr::null_mut(),
        msg_namelen: 0,
        msg_iov: bufs.as_ptr().cast(),
        msg_iovlen: bufs.len(),
        msg_control: std::ptr::null_mut(),
        msg_controllen: 0,
        msg_flags: 0,
    };
    // SAFETY: `msg` names no address and no control data, and `bufs.len()`
    // iovecs (`IoSlice` is ABI-compatible with `iovec` on Unix) that
    // outlive the call; the kernel only reads them.
    let sent = unsafe { sendmsg(fd(sock.as_raw_fd()), &msg, MSG_NOSIGNAL) };
    if sent < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(sent as usize)
    }
}

/// `fd` as the C argument type (narrowing is lossless: fds are small).
pub(crate) fn fd(raw: RawFd) -> c_int {
    raw as c_int
}
