//! Readiness polling over raw file descriptors: the [`PollSet`] a
//! single-threaded federation reactor blocks on.
//!
//! On Unix this wraps `poll(2)` directly (declared here, no external
//! crate), so one thread sleeps in the kernel until any of hundreds of
//! sockets becomes readable or writable. Sources without a file
//! descriptor (in-memory [`crate::Loopback`] links, non-Unix platforms)
//! degrade to a bounded-sleep fallback: the wait is capped to a short
//! slice and every fd-less source is reported maybe-ready. Readiness is
//! therefore a *hint*, never a promise — callers must tolerate an empty
//! non-blocking read after a wake-up, which the `try_*` methods on
//! [`crate::Link`] already do.

use std::time::Duration;

/// Readiness interest for one registered source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interest {
    /// Wake when the source becomes readable.
    Read,
    /// Wake when the source becomes writable.
    Write,
    /// Wake on either direction.
    ReadWrite,
}

/// How long [`PollSet::wait`] sleeps per slice when at least one
/// registered source has no file descriptor to poll. Keeps the fallback
/// path responsive without spinning.
const FALLBACK_SLICE: Duration = Duration::from_millis(2);

#[cfg(unix)]
mod sys {
    /// `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    pub(crate) struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub(crate) const POLLIN: i16 = 0x001;
    pub(crate) const POLLOUT: i16 = 0x004;

    #[cfg(target_os = "linux")]
    pub(crate) type NFds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    pub(crate) type NFds = std::os::raw::c_uint;

    extern "C" {
        pub(crate) fn poll(fds: *mut PollFd, nfds: NFds, timeout: i32) -> i32;
    }
}

struct Entry {
    token: u64,
    fd: Option<i32>,
    interest: Interest,
}

/// A reusable readiness set: register `(token, fd, interest)` triples,
/// then [`PollSet::wait`] for the tokens that are (maybe) ready.
///
/// Registrations persist across waits; [`PollSet::clear`] resets the set
/// so a reactor can rebuild it each tick from its live peer registry.
#[derive(Default)]
pub struct PollSet {
    entries: Vec<Entry>,
    #[cfg(unix)]
    fds: Vec<sys::PollFd>,
}

impl PollSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Removes every registered source.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Registers one source. `fd: None` marks a source that cannot be
    /// polled by the OS; its presence caps the wait to a short slice and
    /// it is always reported maybe-ready.
    pub fn register(&mut self, token: u64, fd: Option<i32>, interest: Interest) {
        self.entries.push(Entry {
            token,
            fd,
            interest,
        });
    }

    /// Blocks until at least one source is ready or `timeout` passes,
    /// appending the (maybe-)ready tokens to `ready`. Returns the number
    /// of tokens appended; zero means the timeout elapsed with nothing to
    /// do. Tokens of fd-less sources are always appended.
    pub fn wait(&mut self, timeout: Duration, ready: &mut Vec<u64>) -> usize {
        let before = ready.len();
        let fallback = self.entries.iter().any(|e| e.fd.is_none());
        let budget = if fallback {
            timeout.min(FALLBACK_SLICE)
        } else {
            timeout
        };
        self.wait_fds(budget, ready);
        if fallback {
            ready.extend(
                self.entries
                    .iter()
                    .filter(|e| e.fd.is_none())
                    .map(|e| e.token),
            );
        }
        ready.len() - before
    }

    #[cfg(unix)]
    fn wait_fds(&mut self, timeout: Duration, ready: &mut Vec<u64>) {
        self.fds.clear();
        for e in &self.entries {
            let Some(fd) = e.fd else { continue };
            let events = match e.interest {
                Interest::Read => sys::POLLIN,
                Interest::Write => sys::POLLOUT,
                Interest::ReadWrite => sys::POLLIN | sys::POLLOUT,
            };
            self.fds.push(sys::PollFd {
                fd,
                events,
                revents: 0,
            });
        }
        if self.fds.is_empty() {
            if !timeout.is_zero() {
                std::thread::sleep(timeout);
            }
            return;
        }
        // Round a sub-millisecond budget up to 1ms: poll(0) would turn the
        // caller's wait loop into a spin.
        let ms = if timeout.is_zero() {
            0
        } else {
            i32::try_from(timeout.as_millis().max(1)).unwrap_or(i32::MAX)
        };
        let n = loop {
            // SAFETY: `fds` is a live, correctly sized array of repr(C)
            // pollfd entries for the duration of the call.
            let rc = unsafe { sys::poll(self.fds.as_mut_ptr(), self.fds.len() as sys::NFds, ms) };
            if rc >= 0 {
                break rc;
            }
            if std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
                // Poll failure (EBADF etc.): report every polled source as
                // maybe-ready so the caller's reads surface the real error.
                ready.extend(
                    self.entries
                        .iter()
                        .filter(|e| e.fd.is_some())
                        .map(|e| e.token),
                );
                return;
            }
        };
        if n == 0 {
            return;
        }
        let mut at = 0;
        for e in &self.entries {
            if e.fd.is_none() {
                continue;
            }
            // `revents` may include error/hup flags beyond what was asked
            // for; any non-zero value means "attend to this source".
            if self.fds[at].revents != 0 {
                ready.push(e.token);
            }
            at += 1;
        }
    }

    #[cfg(not(unix))]
    fn wait_fds(&mut self, timeout: Duration, ready: &mut Vec<u64>) {
        // No portable sub-process readiness API without external crates:
        // treat every source as maybe-ready after a bounded sleep.
        if !timeout.is_zero() {
            std::thread::sleep(timeout.min(FALLBACK_SLICE));
        }
        ready.extend(self.entries.iter().filter_map(|e| e.fd.map(|_| e.token)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn empty_set_sleeps_out_the_timeout() {
        let mut set = PollSet::new();
        let mut ready = Vec::new();
        let start = Instant::now();
        let n = set.wait(Duration::from_millis(40), &mut ready);
        assert_eq!(n, 0);
        assert!(start.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn fdless_sources_are_always_maybe_ready_and_wait_is_capped() {
        let mut set = PollSet::new();
        set.register(7, None, Interest::Read);
        set.register(9, None, Interest::Read);
        let mut ready = Vec::new();
        let start = Instant::now();
        let n = set.wait(Duration::from_secs(5), &mut ready);
        assert_eq!(n, 2);
        assert_eq!(ready, vec![7, 9]);
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "fallback wait must be capped to a short slice"
        );
    }

    #[cfg(unix)]
    mod unix {
        use super::*;
        use std::io::Write;
        use std::net::{TcpListener, TcpStream};
        use std::os::unix::io::AsRawFd;

        fn pair() -> (TcpStream, TcpStream) {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let tx = TcpStream::connect(addr).unwrap();
            let (rx, _) = listener.accept().unwrap();
            (tx, rx)
        }

        #[test]
        fn idle_socket_times_out_then_becomes_readable() {
            let (mut tx, rx) = pair();
            let mut set = PollSet::new();
            set.register(1, Some(rx.as_raw_fd()), Interest::Read);
            let mut ready = Vec::new();
            let start = Instant::now();
            assert_eq!(set.wait(Duration::from_millis(60), &mut ready), 0);
            assert!(start.elapsed() >= Duration::from_millis(40));
            tx.write_all(&[1, 2, 3]).unwrap();
            tx.flush().unwrap();
            assert_eq!(set.wait(Duration::from_secs(5), &mut ready), 1);
            assert_eq!(ready, vec![1]);
        }

        #[test]
        fn write_interest_on_a_fresh_socket_is_immediate() {
            let (tx, _rx) = pair();
            let mut set = PollSet::new();
            set.register(3, Some(tx.as_raw_fd()), Interest::Write);
            let mut ready = Vec::new();
            assert_eq!(set.wait(Duration::from_secs(5), &mut ready), 1);
            assert_eq!(ready, vec![3]);
        }

        #[test]
        fn only_the_readable_socket_wakes_among_many() {
            let mut pairs: Vec<_> = (0..8).map(|_| pair()).collect();
            let mut set = PollSet::new();
            for (i, (_tx, rx)) in pairs.iter().enumerate() {
                set.register(i as u64, Some(rx.as_raw_fd()), Interest::Read);
            }
            pairs[5].0.write_all(&[9]).unwrap();
            let mut ready = Vec::new();
            assert_eq!(set.wait(Duration::from_secs(5), &mut ready), 1);
            assert_eq!(ready, vec![5]);
        }
    }
}
