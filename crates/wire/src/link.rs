//! Peer-addressed transport surface: [`Link`] moves sealed frames to one
//! remote peer, [`Listener`] accepts inbound links, and [`Loopback`] is the
//! in-memory oracle the socket transports are checked against.
//!
//! A sender encodes a [`crate::WireMessage`] into a frame, the receiver
//! decodes it on the other side. Receiving is *always* deadline-bounded:
//! [`Link::recv_deadline`] blocks (it does not spin) until a frame arrives,
//! the deadline passes, or the peer goes away — the three outcomes are
//! distinct [`RecvError`] variants, so a server can tell a straggler from a
//! dropout.

use std::collections::VecDeque;
use std::fmt;
#[cfg(test)]
use std::sync::atomic::AtomicU64;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use crate::frame::WireError;

/// Identifies one remote peer on a [`Link`]. The accepting [`Listener`]
/// assigns ids; an outbound connection talks to peer 0 (the server).
pub type PeerId = u64;

/// Reserved [`PeerId`] of the server end of an outbound connection.
pub(crate) const SERVER_PEER: PeerId = 0;

/// Receive failure. `#[non_exhaustive]`: future transports may add
/// variants without a semver break.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RecvError {
    /// No frame arrived before the deadline; the link is still usable.
    DeadlineExceeded,
    /// The peer closed the connection (or the link was closed locally);
    /// no further frames will arrive.
    Disconnected,
    /// The byte stream violated framing (e.g. an absurd length prefix) —
    /// the link is poisoned and should be dropped.
    Frame(WireError),
    /// An I/O failure other than a clean close.
    Io(String),
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DeadlineExceeded => write!(f, "receive deadline exceeded"),
            Self::Disconnected => write!(f, "peer disconnected"),
            Self::Frame(e) => write!(f, "stream framing error: {e}"),
            Self::Io(msg) => write!(f, "receive i/o error: {msg}"),
        }
    }
}

impl std::error::Error for RecvError {}

/// Connection / accept failure. `#[non_exhaustive]`: future transports may
/// add variants without a semver break.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConnectError {
    /// No connection was established before the deadline.
    DeadlineExceeded,
    /// The endpoint string could not be parsed.
    BadAddress(String),
    /// A TCP endpoint (`tcp:host:port` or `host:port`) with an empty host
    /// part, e.g. `tcp::7700`.
    EmptyHost(String),
    /// A Unix-socket endpoint with an empty path, i.e. the bare `unix:`.
    EmptyPath(String),
    /// The remote actively refused (or the socket could not be bound).
    Refused(String),
    /// Any other I/O failure.
    Io(String),
}

impl fmt::Display for ConnectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DeadlineExceeded => write!(f, "connect deadline exceeded"),
            Self::BadAddress(a) => write!(f, "bad endpoint address: {a}"),
            Self::EmptyHost(a) => write!(f, "empty host in endpoint address: {a}"),
            Self::EmptyPath(a) => write!(f, "empty socket path in endpoint address: {a}"),
            Self::Refused(msg) => write!(f, "connection refused: {msg}"),
            Self::Io(msg) => write!(f, "connect i/o error: {msg}"),
        }
    }
}

impl std::error::Error for ConnectError {}

/// A bidirectional, frame-oriented channel to one remote peer.
///
/// Implementations must be usable from multiple threads (`Send + Sync`);
/// the server receives on a collector thread while the driver sends.
pub trait Link: Send + Sync {
    /// The remote peer this link talks to.
    fn peer_id(&self) -> PeerId;

    /// Queues one sealed frame for the peer. Fails with
    /// [`WireError::TransportClosed`] once the link is closed.
    fn send(&self, frame: &[u8]) -> Result<(), WireError>;

    /// Blocks until a frame arrives or `deadline` passes. Implementations
    /// must sleep while waiting — a caller polling an idle link burns no
    /// CPU — and must distinguish a timeout ([`RecvError::DeadlineExceeded`])
    /// from a gone peer ([`RecvError::Disconnected`]).
    fn recv_deadline(&self, deadline: Instant) -> Result<Vec<u8>, RecvError>;

    /// Switches the link into (or out of) readiness mode. In readiness
    /// mode the `try_*` methods never block and a reactor drives the link
    /// off a [`crate::PollSet`]; the blocking [`Link::send`] /
    /// [`Link::recv_deadline`] API remains the client-side contract.
    /// Default: no-op — in-memory links are always ready.
    fn set_nonblocking(&self, _on: bool) -> Result<(), WireError> {
        Ok(())
    }

    /// Non-blocking receive: one complete frame if available *now*,
    /// `Ok(None)` otherwise. Partially received frames are reassembled
    /// across calls, so interleaving with [`Link::recv_deadline`] is safe.
    /// Default: a zero-deadline [`Link::recv_deadline`], correct for links
    /// that check their queue before the deadline.
    fn try_recv_frame(&self) -> Result<Option<Vec<u8>>, RecvError> {
        match self.recv_deadline(Instant::now()) {
            Ok(frame) => Ok(Some(frame)),
            Err(RecvError::DeadlineExceeded) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Queues one sealed frame on the link's outbound buffer and flushes
    /// opportunistically, returning the bytes still pending afterwards —
    /// the reactor's backpressure signal. Default: a blocking
    /// [`Link::send`] with nothing left pending.
    fn enqueue_frame(&self, frame: &[u8]) -> Result<usize, WireError> {
        self.send(frame).map(|()| 0)
    }

    /// Drains as much of the outbound buffer as the transport accepts
    /// without blocking; returns the bytes still pending. Default: nothing
    /// is ever buffered.
    fn try_flush(&self) -> Result<usize, WireError> {
        Ok(0)
    }

    /// Outbound bytes accepted by [`Link::enqueue_frame`] but not yet
    /// written to the transport.
    fn pending_tx(&self) -> usize {
        0
    }

    /// The raw file descriptor a [`crate::PollSet`] can watch for
    /// readiness, when the transport has one. `None` selects the poll
    /// set's bounded-sleep fallback.
    fn poll_fd(&self) -> Option<i32> {
        None
    }

    /// Closes the link; subsequent sends fail and blocked receivers wake
    /// with [`RecvError::Disconnected`]. Default: no-op.
    fn close(&self) {}
}

/// Accepts inbound [`Link`]s (the server side of a transport).
pub trait Listener: Send {
    /// Blocks until a peer connects or `deadline` passes. Each accepted
    /// link carries a fresh, listener-unique [`PeerId`].
    fn accept_deadline(&self, deadline: Instant) -> Result<Box<dyn Link>, ConnectError>;

    /// Non-blocking accept: a freshly connected link if one is pending
    /// *now*, `Ok(None)` otherwise. Default: a zero-deadline
    /// [`Listener::accept_deadline`].
    fn try_accept_link(&self) -> Result<Option<Box<dyn Link>>, ConnectError> {
        match self.accept_deadline(Instant::now()) {
            Ok(link) => Ok(Some(link)),
            Err(ConnectError::DeadlineExceeded) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// The raw file descriptor a [`crate::PollSet`] can watch for pending
    /// connections, when the transport has one.
    fn poll_fd(&self) -> Option<i32> {
        None
    }

    /// Human-readable bound address (for logs and client hand-off).
    fn local_addr(&self) -> String;
}

/// In-memory link: frames sent on it are received back from it, in order.
///
/// This is the byte-identical oracle for every socket transport — a
/// loopback-framed run must produce the same bytes as a networked one —
/// and the simulation's default path when the codec is not bypassed.
/// Waiting receivers block on a condvar; a test counts the waits to prove
/// they sleep rather than spin.
pub struct Loopback {
    peer: PeerId,
    queue: Mutex<VecDeque<Vec<u8>>>,
    ready: Condvar,
    closed: AtomicBool,
    #[cfg(test)]
    waits: AtomicU64,
}

impl Loopback {
    /// An open loopback link addressed as peer 0 (the server).
    pub fn new() -> Self {
        Self::with_peer(SERVER_PEER)
    }

    /// An open loopback link addressed as `peer`.
    pub(crate) fn with_peer(peer: PeerId) -> Self {
        Self {
            peer,
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            closed: AtomicBool::new(false),
            #[cfg(test)]
            waits: AtomicU64::new(0),
        }
    }

    /// Frames queued but not yet received.
    pub fn pending(&self) -> usize {
        self.queue.lock().expect("loopback lock poisoned").len()
    }

    /// How many times a receiver parked on the condvar. A blocked receiver
    /// parks O(1) times per wait; a spinning one would count thousands.
    #[cfg(test)]
    pub(crate) fn wait_count(&self) -> u64 {
        self.waits.load(Ordering::Relaxed)
    }
}

impl Default for Loopback {
    fn default() -> Self {
        Self::new()
    }
}

impl Link for Loopback {
    fn peer_id(&self) -> PeerId {
        self.peer
    }

    fn send(&self, frame: &[u8]) -> Result<(), WireError> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(WireError::TransportClosed);
        }
        self.queue
            .lock()
            .expect("loopback lock poisoned")
            .push_back(frame.to_vec());
        self.ready.notify_one();
        Ok(())
    }

    fn recv_deadline(&self, deadline: Instant) -> Result<Vec<u8>, RecvError> {
        let mut queue = self.queue.lock().expect("loopback lock poisoned");
        loop {
            if let Some(frame) = queue.pop_front() {
                return Ok(frame);
            }
            if self.closed.load(Ordering::SeqCst) {
                return Err(RecvError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvError::DeadlineExceeded);
            }
            #[cfg(test)]
            self.waits.fetch_add(1, Ordering::Relaxed);
            let (guard, _timeout) = self
                .ready
                .wait_timeout(queue, deadline - now)
                .expect("loopback lock poisoned");
            queue = guard;
        }
    }

    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        // Wake every parked receiver so it observes the close.
        let _guard = self.queue.lock().expect("loopback lock poisoned");
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn far() -> Instant {
        Instant::now() + Duration::from_secs(5)
    }

    #[test]
    fn frames_come_back_in_order() {
        let link = Loopback::new();
        link.send(&[1, 2, 3]).unwrap();
        link.send(&[4]).unwrap();
        assert_eq!(link.pending(), 2);
        assert_eq!(link.recv_deadline(far()).unwrap(), vec![1, 2, 3]);
        assert_eq!(link.recv_deadline(far()).unwrap(), vec![4]);
        assert_eq!(link.pending(), 0);
    }

    #[test]
    fn usable_as_trait_object() {
        let link: Box<dyn Link> = Box::new(Loopback::with_peer(9));
        assert_eq!(link.peer_id(), 9);
        link.send(&[7]).unwrap();
        assert_eq!(link.recv_deadline(far()).unwrap(), vec![7]);
    }

    #[test]
    fn empty_queue_times_out() {
        let link = Loopback::new();
        let deadline = Instant::now() + Duration::from_millis(30);
        assert_eq!(
            link.recv_deadline(deadline),
            Err(RecvError::DeadlineExceeded)
        );
        assert!(Instant::now() >= deadline);
    }

    #[test]
    fn waiting_receiver_sleeps_rather_than_spins() {
        // The busy-poll regression test: a receiver waiting out a 120ms
        // deadline on an idle link must park on the condvar (a handful of
        // waits, allowing spurious wakeups), not spin through thousands of
        // poll iterations.
        let link = Loopback::new();
        let start = Instant::now();
        let deadline = start + Duration::from_millis(120);
        assert_eq!(
            link.recv_deadline(deadline),
            Err(RecvError::DeadlineExceeded)
        );
        assert!(start.elapsed() >= Duration::from_millis(100));
        assert!(
            link.wait_count() <= 16,
            "receiver spun: {} condvar waits for one idle deadline",
            link.wait_count()
        );
    }

    #[test]
    fn readiness_defaults_fit_the_loopback() {
        // The defaulted try_* surface must behave correctly for a link
        // whose queue is checked before the deadline: no frame -> None,
        // queued frame -> Some, closed -> Disconnected, nothing buffered.
        let link = Loopback::new();
        assert_eq!(link.try_recv_frame().unwrap(), None);
        link.set_nonblocking(true).unwrap();
        assert_eq!(link.enqueue_frame(&[1, 2]).unwrap(), 0);
        assert_eq!(link.pending_tx(), 0);
        assert_eq!(link.try_flush().unwrap(), 0);
        assert_eq!(link.try_recv_frame().unwrap(), Some(vec![1, 2]));
        assert_eq!(link.poll_fd(), None);
        link.close();
        assert_eq!(link.try_recv_frame(), Err(RecvError::Disconnected));
    }

    #[test]
    fn sender_wakes_blocked_receiver() {
        let link = std::sync::Arc::new(Loopback::new());
        let rx = std::sync::Arc::clone(&link);
        let handle = std::thread::spawn(move || rx.recv_deadline(far()));
        std::thread::sleep(Duration::from_millis(20));
        link.send(&[42]).unwrap();
        assert_eq!(handle.join().unwrap().unwrap(), vec![42]);
    }

    #[test]
    fn close_unblocks_and_poisons() {
        let link = std::sync::Arc::new(Loopback::new());
        let rx = std::sync::Arc::clone(&link);
        let handle = std::thread::spawn(move || rx.recv_deadline(far()));
        std::thread::sleep(Duration::from_millis(20));
        link.close();
        assert_eq!(handle.join().unwrap(), Err(RecvError::Disconnected));
        assert_eq!(link.send(&[1]), Err(WireError::TransportClosed));
    }
}
