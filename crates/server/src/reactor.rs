//! A thin, std-only readiness reactor over raw file descriptors.
//!
//! The event-driven daemon needs exactly one OS facility the standard
//! library does not expose: "block until any of these sockets is readable
//! or writable". This module wraps that facility behind a four-method
//! [`Poller`] — register, reregister, deregister, wait — with opaque `u64`
//! tokens, so the connection machinery above never touches a raw fd after
//! registration.
//!
//! On Linux the implementation is `epoll(7)` (level-triggered — correctness
//! over edge-triggered cleverness: a handler that leaves bytes unread gets
//! re-notified instead of wedging the connection). On other Unixes it falls
//! back to POSIX `poll(2)` over a registration table. Both are reached by
//! direct `extern "C"` declarations against the libc the standard library
//! already links — no external crates, keeping the workspace's
//! zero-dependency invariant.
//!
//! The one other libc call the daemon's tools make lives here too, so that
//! this module holds all of the crate's `unsafe`: [`raise_nofile_limit`]
//! (`getrlimit`/`setrlimit`), which `loadgen` runs before thousand-peer
//! runs.
//!
//! The `Poller` is intentionally *not* a full mio: no wakers (the daemon
//! uses a `UnixStream` self-pipe registered like any other fd), no
//! edge-triggering, no timer wheel. Timeouts are handled by the caller
//! sweeping its connection table between `wait` calls.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// Which readiness directions a registration listens for. Hangup and error
/// conditions are always reported regardless of interest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd has bytes to read (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd can accept writes.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Write-only interest.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Both directions.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
    /// Neither direction (hangup/error still wake — useful for a
    /// connection that is fully backpressured but must notice a peer
    /// disappearing).
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
}

/// One readiness notification from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The token the fd was registered with.
    pub token: u64,
    /// Readable — includes peer hangup, so a `read` returning 0 is how
    /// handlers observe EOF.
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// An error condition is pending on the fd (`EPOLLERR`/`POLLERR`);
    /// handlers should drop the connection.
    pub error: bool,
}

pub use sys::Poller;

#[cfg(target_os = "linux")]
mod sys {
    use super::*;
    use std::os::raw::c_int;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLL_CLOEXEC: c_int = 0o2000000;

    /// Kernel ABI struct. Packed on x86-64 (the kernel's
    /// `__EPOLL_PACKED`); naturally aligned elsewhere.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    /// Linux `epoll(7)` poller. See the module docs.
    #[derive(Debug)]
    pub struct Poller {
        epfd: RawFd,
    }

    // SAFETY: a `Poller` is one epoll fd, an integer the kernel owns the
    // state behind; it is only ever passed whole to `epoll_ctl`,
    // `epoll_wait` and `close`, which are safe to call from any thread.
    unsafe impl Send for Poller {}
    // SAFETY: as for `Send`: every method takes `&self` and makes one of
    // those thread-safe syscalls, so sharing the fd between threads is
    // sound.
    unsafe impl Sync for Poller {}

    fn interest_bits(interest: Interest) -> u32 {
        let mut bits = EPOLLRDHUP; // always observe peer half-close
        if interest.readable {
            bits |= EPOLLIN;
        }
        if interest.writable {
            bits |= EPOLLOUT;
        }
        bits
    }

    impl Poller {
        /// Creates an epoll instance (close-on-exec).
        pub fn new() -> io::Result<Poller> {
            // SAFETY: takes flags by value and returns an fd or -1; no
            // memory is passed.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller { epfd })
        }

        fn ctl(&self, op: c_int, fd: RawFd, event: Option<EpollEvent>) -> io::Result<()> {
            let mut event = event;
            let ptr = event
                .as_mut()
                .map_or(std::ptr::null_mut(), |e| e as *mut EpollEvent);
            // SAFETY: `ptr` is null (for `EPOLL_CTL_DEL`, which reads no
            // event) or points at the local `event`, a kernel-layout
            // `EpollEvent` that outlives the call.
            if unsafe { epoll_ctl(self.epfd, op, fd, ptr) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Starts watching `fd` under `token`.
        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(
                EPOLL_CTL_ADD,
                fd,
                Some(EpollEvent {
                    events: interest_bits(interest),
                    data: token,
                }),
            )
        }

        /// Changes the interest set (and token) of a watched fd.
        pub fn reregister(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(
                EPOLL_CTL_MOD,
                fd,
                Some(EpollEvent {
                    events: interest_bits(interest),
                    data: token,
                }),
            )
        }

        /// Stops watching `fd`. Must be called *before* the fd is closed.
        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, None)
        }

        /// Blocks until readiness or `timeout`, appending events to `out`
        /// (which is cleared first). Returns the number of events.
        pub fn wait(
            &self,
            out: &mut Vec<PollEvent>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            out.clear();
            let timeout_ms: c_int = match timeout {
                // Round up so a 1ns timeout cannot spin at 0ms.
                Some(t) => t.as_millis().min(i32::MAX as u128).max(1) as c_int,
                None => -1,
            };
            let mut raw = [EpollEvent { events: 0, data: 0 }; 256];
            let n = loop {
                // SAFETY: the kernel writes at most `raw.len()` events, the
                // length passed, into `raw`, a live local array of
                // kernel-layout `EpollEvent`s.
                let n = unsafe {
                    epoll_wait(self.epfd, raw.as_mut_ptr(), raw.len() as c_int, timeout_ms)
                };
                if n >= 0 {
                    break n as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            for event in &raw[..n] {
                // Copy out of the (potentially packed) struct by value.
                let bits = { event.events };
                let token = { event.data };
                out.push(PollEvent {
                    token,
                    readable: bits & (EPOLLIN | EPOLLHUP | EPOLLRDHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    error: bits & EPOLLERR != 0,
                });
            }
            Ok(n)
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: the `Poller` owns `epfd` and this is its last use;
            // `close` takes it by value.
            unsafe {
                close(self.epfd);
            }
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod sys {
    use super::*;
    use std::collections::HashMap;
    use std::os::raw::{c_int, c_short};
    use std::sync::Mutex;

    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;
    const POLLERR: c_short = 0x008;
    const POLLHUP: c_short = 0x010;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    #[cfg(any(target_os = "macos", target_os = "ios"))]
    type Nfds = std::os::raw::c_uint;
    #[cfg(not(any(target_os = "macos", target_os = "ios")))]
    type Nfds = std::os::raw::c_ulong;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }

    /// Portable `poll(2)` fallback: a registration table consulted on
    /// every wait. O(n) per wakeup, which is fine for the fallback's
    /// purpose (developer machines); production targets are Linux/epoll.
    #[derive(Debug)]
    pub struct Poller {
        registered: Mutex<HashMap<RawFd, (u64, Interest)>>,
    }

    impl Poller {
        /// Creates an empty registration table.
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                registered: Mutex::new(HashMap::new()),
            })
        }

        /// Starts watching `fd` under `token`.
        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.registered
                .lock()
                .unwrap()
                .insert(fd, (token, interest));
            Ok(())
        }

        /// Changes the interest set (and token) of a watched fd.
        pub fn reregister(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.register(fd, token, interest)
        }

        /// Stops watching `fd`.
        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.registered.lock().unwrap().remove(&fd);
            Ok(())
        }

        /// Blocks until readiness or `timeout`, appending events to `out`.
        pub fn wait(
            &self,
            out: &mut Vec<PollEvent>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            out.clear();
            let mut fds: Vec<(PollFd, u64)> = self
                .registered
                .lock()
                .unwrap()
                .iter()
                .map(|(&fd, &(token, interest))| {
                    let mut events: c_short = 0;
                    if interest.readable {
                        events |= POLLIN;
                    }
                    if interest.writable {
                        events |= POLLOUT;
                    }
                    (
                        PollFd {
                            fd,
                            events,
                            revents: 0,
                        },
                        token,
                    )
                })
                .collect();
            let timeout_ms: c_int = match timeout {
                Some(t) => t.as_millis().min(i32::MAX as u128).max(1) as c_int,
                None => -1,
            };
            let mut raw: Vec<PollFd> = fds.iter().map(|(pfd, _)| *pfd).collect();
            let n = loop {
                // SAFETY: `poll` reads and writes at most `raw.len()`
                // `PollFd`s, the count passed, in the live vector `raw`.
                let n = unsafe { poll(raw.as_mut_ptr(), raw.len() as Nfds, timeout_ms) };
                if n >= 0 {
                    break n as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            for (i, pfd) in raw.iter().enumerate() {
                if pfd.revents == 0 {
                    continue;
                }
                out.push(PollEvent {
                    token: fds[i].1,
                    readable: pfd.revents & (POLLIN | POLLHUP) != 0,
                    writable: pfd.revents & POLLOUT != 0,
                    error: pfd.revents & POLLERR != 0,
                });
            }
            let _ = &mut fds;
            Ok(n)
        }
    }
}

/// Raises the process's file-descriptor soft limit toward `want` (bounded
/// by the hard limit) and returns the resulting soft limit. Needed before
/// thousand-peer runs on hosts with the conservative 1024 default (GitHub
/// CI runners); a no-op when the limit is already high enough.
#[cfg(unix)]
pub fn raise_nofile_limit(want: u64) -> u64 {
    use std::os::raw::c_int;

    const RLIMIT_NOFILE: c_int = 7;

    #[repr(C)]
    struct RLimit {
        rlim_cur: u64,
        rlim_max: u64,
    }

    extern "C" {
        fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
        fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
    }

    let mut limit = RLimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: `getrlimit` writes one `struct rlimit`, which `RLimit` lays
    // out (two `rlim_t`, 64-bit on every Unix this builds for), through a
    // pointer to a live local.
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut limit) } != 0 {
        return 0;
    }
    if limit.rlim_cur >= want {
        return limit.rlim_cur;
    }
    limit.rlim_cur = want.min(limit.rlim_max);
    // SAFETY: as above; `setrlimit` only reads the struct, and a soft
    // limit at most the hard one is valid (a refusal is read back below).
    unsafe {
        setrlimit(RLIMIT_NOFILE, &limit);
        if getrlimit(RLIMIT_NOFILE, &mut limit) != 0 {
            return 0;
        }
    }
    limit.rlim_cur
}

/// Non-Unix fallback: reports the request as-is without changing anything.
#[cfg(not(unix))]
pub fn raise_nofile_limit(want: u64) -> u64 {
    want
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn listener_readability_signals_a_pending_accept() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        poller
            .register(listener.as_raw_fd(), 7, Interest::READ)
            .unwrap();

        let mut events = Vec::new();
        // Nothing pending: times out empty.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(n, 0);

        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        let _ = listener.accept().unwrap();
        poller.deregister(listener.as_raw_fd()).unwrap();
    }

    #[test]
    fn interest_changes_and_peer_data_drive_events() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let fd = server.as_raw_fd();

        // A fresh socket is writable but not readable.
        poller.register(fd, 1, Interest::BOTH).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.writable));
        assert!(!events.iter().any(|e| e.readable));

        // Drop write interest, send data: now readable only.
        poller.reregister(fd, 2, Interest::READ).unwrap();
        client.write_all(b"ping").unwrap();
        client.flush().unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 2 && e.readable));
        assert!(!events.iter().any(|e| e.writable));

        let mut server = server;
        let mut buf = [0u8; 16];
        assert_eq!(server.read(&mut buf).unwrap(), 4);

        // Peer hangup surfaces as readable (read will return 0).
        drop(client);
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 2 && e.readable));
        assert_eq!(server.read(&mut buf).unwrap(), 0, "EOF after hangup");
        poller.deregister(fd).unwrap();
    }

    #[test]
    fn wait_with_no_ready_fds_times_out_promptly() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        poller
            .register(listener.as_raw_fd(), 1, Interest::READ)
            .unwrap();
        let started = std::time::Instant::now();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(30)))
            .unwrap();
        assert!(events.is_empty());
        assert!(started.elapsed() < Duration::from_secs(2));
    }
}
