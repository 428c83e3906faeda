//! Thin raw-syscall bindings for the readiness loop.
//!
//! The workspace is std-only — no `libc` crate — but std already links
//! the platform C library, so the handful of symbols the event loop
//! needs (`epoll_*`, `eventfd`) are declared here directly and wrapped
//! in safe, `std::os::fd`-based types by [`crate::poll`].
//! Everything is Linux-specific; the server crate does not build
//! elsewhere (matching CI and the deployment target).

#![allow(non_camel_case_types)]

use std::io;
use std::os::fd::RawFd;

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

#[cfg(target_os = "linux")]
extern "C" {
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

/// `fd` as the C argument type (narrowing is lossless: fds are small).
pub(crate) fn fd(raw: RawFd) -> c_int {
    raw as c_int
}
