//! Thin std-only syscall layer for the event loop.
//!
//! The workspace builds with no registry access, so there is no `libc`
//! or `mio` crate to lean on. `std` already links the platform C
//! library, which means the handful of syscalls the readiness loop
//! needs — `epoll_create1` / `epoll_ctl` / `epoll_wait`, plus
//! `setrlimit` for the load generator's file-descriptor budget — can be
//! declared directly as `extern "C"` items. Everything else (sockets,
//! nonblocking mode, reads and writes) goes through `std::net`.
//!
//! The replica's [`Poller`] is Linux only: [`Poller::new`] returns
//! `ErrorKind::Unsupported` elsewhere, so the real-socket stack (replica
//! mains, the load harness) surfaces that error at start-up instead of
//! failing to compile; the in-process `SimNet` runs everywhere.
//! A client waits on its few sockets with POSIX [`poll`] instead, which
//! needs no kernel object.

use std::time::Duration;

/// Readiness bits reported for one registered file descriptor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Readiness {
    /// The fd is readable (or has pending accepts).
    pub readable: bool,
    /// The fd is writable.
    pub writable: bool,
    /// The fd is in an error state (`EPOLLERR`).
    pub error: bool,
    /// The peer hung up (`EPOLLHUP`/`EPOLLRDHUP`): a read will observe
    /// EOF once the buffered bytes are drained.
    pub hangup: bool,
}

/// One ready fd: the caller-chosen token plus its readiness bits.
#[derive(Clone, Copy, Debug)]
pub struct PollEvent {
    /// The token passed to [`Poller::add`].
    pub token: u64,
    /// What the fd is ready for.
    pub readiness: Readiness,
}

#[cfg(target_os = "linux")]
mod imp {
    use super::{PollEvent, Readiness};
    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    // The kernel packs `epoll_event` on x86-64 (and x32) only; other
    // architectures use natural alignment. Getting this wrong corrupts
    // the token of every second event.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0o2000000;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// An epoll instance owning its fd.
    pub struct Poller {
        epfd: RawFd,
        buf: Vec<EpollEvent>,
    }

    // The epoll fd is only mutated through `&mut self` or atomically by
    // the kernel; moving the poller between threads is fine.
    unsafe impl Send for Poller {}

    impl Poller {
        /// Creates an epoll instance (close-on-exec).
        ///
        /// # Errors
        /// The raw `epoll_create1` failure.
        pub fn new() -> io::Result<Poller> {
            // Safety: plain syscall, no pointers.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
            })
        }

        fn ctl(&self, op: i32, fd: RawFd, interest: Option<(u64, bool, bool)>) -> io::Result<()> {
            let mut ev = interest.map(|(token, readable, writable)| {
                let mut events = EPOLLRDHUP;
                if readable {
                    events |= EPOLLIN;
                }
                if writable {
                    events |= EPOLLOUT;
                }
                EpollEvent {
                    events,
                    data: token,
                }
            });
            let ptr = match ev.as_mut() {
                Some(ev) => ev as *mut EpollEvent,
                None => std::ptr::null_mut(),
            };
            // Safety: `ptr` is either null (DEL) or points at a live
            // stack value for the duration of the call.
            if unsafe { epoll_ctl(self.epfd, op, fd, ptr) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Registers `fd` under `token` with the given interests.
        ///
        /// # Errors
        /// The raw `epoll_ctl` failure.
        pub fn add(&self, fd: RawFd, token: u64, readable: bool, writable: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, Some((token, readable, writable)))
        }

        /// Re-arms `fd` with new interests.
        ///
        /// # Errors
        /// The raw `epoll_ctl` failure.
        pub fn modify(
            &self,
            fd: RawFd,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, Some((token, readable, writable)))
        }

        /// Deregisters `fd`.
        ///
        /// # Errors
        /// The raw `epoll_ctl` failure.
        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, None)
        }

        /// Waits for readiness, appending to `out`. `None` blocks
        /// indefinitely. Interrupted waits report zero events.
        ///
        /// # Errors
        /// The raw `epoll_wait` failure.
        pub fn wait(
            &mut self,
            timeout: Option<Duration>,
            out: &mut Vec<PollEvent>,
        ) -> io::Result<usize> {
            let timeout_ms = super::timeout_ms(timeout);
            let n = unsafe {
                // Safety: `buf` is a live, properly sized allocation.
                epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as i32,
                    timeout_ms,
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(err);
            }
            let n = n as usize;
            for ev in &self.buf[..n] {
                // Copy out of the (possibly packed) struct first.
                let events = ev.events;
                let data = ev.data;
                out.push(PollEvent {
                    token: data,
                    readiness: Readiness {
                        readable: events & EPOLLIN != 0,
                        writable: events & EPOLLOUT != 0,
                        error: events & EPOLLERR != 0,
                        hangup: events & (EPOLLHUP | EPOLLRDHUP) != 0,
                    },
                });
            }
            // A full buffer means more events may be pending; grow so the
            // next wait drains them in one call.
            if n == self.buf.len() {
                let len = self.buf.len() * 2;
                self.buf.resize(len, EpollEvent { events: 0, data: 0 });
            }
            Ok(n)
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // Safety: we own the fd and drop it exactly once.
            unsafe { close(self.epfd) };
        }
    }

    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }

    const RLIMIT_NOFILE: i32 = 7;

    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }

    /// Raises the soft open-files limit to the hard limit and returns
    /// the resulting soft limit. The load generator calls this before
    /// opening tens of thousands of sockets.
    ///
    /// # Errors
    /// The raw `getrlimit`/`setrlimit` failure.
    pub fn raise_nofile_limit() -> io::Result<u64> {
        let mut lim = Rlimit { cur: 0, max: 0 };
        // Safety: `lim` is a live stack value.
        if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } < 0 {
            return Err(io::Error::last_os_error());
        }
        if lim.cur < lim.max {
            let want = Rlimit {
                cur: lim.max,
                max: lim.max,
            };
            // Safety: `want` is a live stack value.
            if unsafe { setrlimit(RLIMIT_NOFILE, &want) } < 0 {
                return Err(io::Error::last_os_error());
            }
            lim.cur = lim.max;
        }
        Ok(lim.cur)
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::PollEvent;
    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    /// Stub poller for non-Linux hosts: construction fails cleanly.
    pub struct Poller {}

    impl Poller {
        /// Always `Unsupported` off Linux.
        ///
        /// # Errors
        /// Always.
        pub fn new() -> io::Result<Poller> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "the evloop driver requires Linux epoll",
            ))
        }

        /// Unreachable (construction fails).
        pub fn add(&self, _: RawFd, _: u64, _: bool, _: bool) -> io::Result<()> {
            unreachable!("poller cannot be constructed off Linux")
        }

        /// Unreachable (construction fails).
        pub fn modify(&self, _: RawFd, _: u64, _: bool, _: bool) -> io::Result<()> {
            unreachable!("poller cannot be constructed off Linux")
        }

        /// Unreachable (construction fails).
        pub fn delete(&self, _: RawFd) -> io::Result<()> {
            unreachable!("poller cannot be constructed off Linux")
        }

        /// Unreachable (construction fails).
        pub fn wait(&mut self, _: Option<Duration>, _: &mut Vec<PollEvent>) -> io::Result<usize> {
            unreachable!("poller cannot be constructed off Linux")
        }
    }

    /// No-op off Linux.
    ///
    /// # Errors
    /// Never.
    pub fn raise_nofile_limit() -> io::Result<u64> {
        Ok(0)
    }
}

pub use imp::{raise_nofile_limit, Poller};

/// A wait in whole milliseconds, as `epoll_wait` and `poll` take it:
/// `None` is −1 (forever); a fraction rounds up, so 100 µs is not 0 ms.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    timeout.map_or(-1, |d| {
        d.as_millis().min(i32::MAX as u128 - 1) as i32
            + i32::from(d.subsec_nanos() % 1_000_000 != 0)
    })
}

/// One `struct pollfd`: an fd watched for input, and what [`poll`] last
/// reported for it.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[cfg(target_os = "linux")]
type NfdsT = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::os::raw::c_uint;

extern "C" {
    #[link_name = "poll"]
    fn sys_poll(fds: *mut PollFd, nfds: NfdsT, timeout: i32) -> i32;
}

impl PollFd {
    /// Watches `fd` for input (`POLLIN`).
    pub fn readable(fd: std::os::unix::io::RawFd) -> PollFd {
        PollFd {
            fd,
            events: 0x001,
            revents: 0,
        }
    }

    /// Whether [`poll`] reported input, a hang-up or an error: either
    /// way one read will not block.
    pub fn ready(&self) -> bool {
        self.revents != 0
    }
}

/// POSIX `poll(2)`: waits up to `timeout` for one of `fds` to be ready
/// and returns how many are.
///
/// # Errors
/// The raw `poll` failure, `Interrupted` included.
pub fn poll(fds: &mut [PollFd], timeout: Duration) -> std::io::Result<usize> {
    let timeout = timeout_ms(Some(timeout));
    // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]`
    // `struct pollfd` values, and `nfds` is its length.
    let n = unsafe { sys_poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout) };
    if n < 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(n as usize)
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::time::Duration;

    #[test]
    fn poller_reports_listener_and_stream_readiness() {
        let mut poller = Poller::new().expect("epoll");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        poller
            .add(listener.as_raw_fd(), 7, true, false)
            .expect("add listener");

        let mut out = Vec::new();
        poller
            .wait(Some(Duration::from_millis(10)), &mut out)
            .expect("wait");
        assert!(out.is_empty(), "nothing connected yet");

        let mut client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        poller
            .wait(Some(Duration::from_millis(500)), &mut out)
            .expect("wait");
        assert!(out.iter().any(|e| e.token == 7 && e.readiness.readable));

        let (accepted, _) = listener.accept().expect("accept");
        accepted.set_nonblocking(true).expect("nonblocking");
        poller
            .add(accepted.as_raw_fd(), 9, true, true)
            .expect("add conn");
        client.write_all(b"hi").expect("write");
        out.clear();
        poller
            .wait(Some(Duration::from_millis(500)), &mut out)
            .expect("wait");
        assert!(out.iter().any(|e| e.token == 9 && e.readiness.readable));

        // Dropping the client surfaces as hangup/readable EOF.
        drop(client);
        out.clear();
        poller
            .wait(Some(Duration::from_millis(500)), &mut out)
            .expect("wait");
        assert!(out
            .iter()
            .any(|e| e.token == 9 && (e.readiness.hangup || e.readiness.readable)));
    }

    #[test]
    fn poll_reports_input_and_hangup() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        let mut fds = [PollFd::readable(accepted.as_raw_fd())];
        assert_eq!(poll(&mut fds, Duration::ZERO).expect("poll"), 0);
        assert!(!fds[0].ready());
        client.write_all(b"hi").expect("write");
        assert_eq!(poll(&mut fds, Duration::from_millis(500)).expect("poll"), 1);
        assert!(fds[0].ready());
        let mut other = [PollFd::readable(client.as_raw_fd())];
        assert_eq!(poll(&mut other, Duration::from_millis(1)).expect("poll"), 0);
        drop(accepted);
        assert_eq!(
            poll(&mut other, Duration::from_millis(500)).expect("poll"),
            1
        );
        assert!(other[0].ready(), "the peer's close wakes the poll");
    }
}
