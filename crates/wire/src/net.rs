//! Socket transports: TCP and Unix-domain implementations of
//! [`Link`]/[`Listener`].
//!
//! The stream protocol is deliberately thin: each sealed codec frame is
//! written as a `u32` little-endian length prefix followed by the frame
//! bytes. All integrity checking stays in the CRC-sealed codec — the
//! transport only restores message boundaries. Deadline-bounded receives
//! are built on OS read timeouts (`set_read_timeout`), so a waiting server
//! blocks in the kernel instead of spinning; partially read frames are
//! preserved across timeouts and resumed on the next call.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::frame::WireError;
use crate::link::{ConnectError, Link, Listener, PeerId, RecvError, SERVER_PEER};

/// Upper bound on a length-prefixed frame. A prefix above this is treated
/// as stream corruption ([`RecvError::Frame`]) rather than an allocation.
pub(crate) const MAX_FRAME_LEN: usize = 1 << 30;

/// Minimum OS read timeout. `set_read_timeout(Some(ZERO))` is an error on
/// every platform, so remaining-time slices are clamped up to this.
const MIN_READ_TIMEOUT: Duration = Duration::from_millis(1);

/// How long [`connect`] sleeps between attempts while the server side is
/// not up yet, and how long [`NetListener::accept_deadline`] sleeps
/// between non-blocking accept polls.
const RETRY_INTERVAL: Duration = Duration::from_millis(20);

/// A parsed transport address: `host:port` for TCP, `unix:/path` for a
/// Unix-domain socket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// TCP endpoint, e.g. `127.0.0.1:7700`.
    Tcp(String),
    /// Unix-domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

impl Endpoint {
    /// Parses an address string. `unix:<path>` selects a Unix-domain
    /// socket; anything else must look like `host:port`. Structurally
    /// valid addresses with an empty host or path get their own
    /// [`ConnectError::EmptyHost`] / [`ConnectError::EmptyPath`] variants
    /// so a CLI can say exactly what is missing.
    pub fn parse(addr: &str) -> Result<Self, ConnectError> {
        if let Some(path) = addr.strip_prefix("unix:") {
            if path.is_empty() {
                return Err(ConnectError::EmptyPath(addr.to_string()));
            }
            #[cfg(unix)]
            {
                return Ok(Self::Unix(PathBuf::from(path)));
            }
            #[cfg(not(unix))]
            {
                return Err(ConnectError::BadAddress(format!(
                    "{addr}: unix sockets unsupported on this platform"
                )));
            }
        }
        let tcp = addr.strip_prefix("tcp:").unwrap_or(addr);
        // `host:port` with a numeric port; IPv6 needs the bracketed form.
        match tcp.rsplit_once(':') {
            Some((host, port)) if port.parse::<u16>().is_ok() => {
                if host.is_empty() {
                    Err(ConnectError::EmptyHost(addr.to_string()))
                } else {
                    Ok(Self::Tcp(tcp.to_string()))
                }
            }
            _ => Err(ConnectError::BadAddress(addr.to_string())),
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Tcp(addr) => write!(f, "{addr}"),
            #[cfg(unix)]
            Self::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    fn try_clone(&self) -> std::io::Result<Stream> {
        match self {
            Self::Tcp(s) => s.try_clone().map(Stream::Tcp),
            #[cfg(unix)]
            Self::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }

    fn set_read_timeout(&self, timeout: Duration) -> std::io::Result<()> {
        let t = Some(timeout.max(MIN_READ_TIMEOUT));
        match self {
            Self::Tcp(s) => s.set_read_timeout(t),
            #[cfg(unix)]
            Self::Unix(s) => s.set_read_timeout(t),
        }
    }

    fn set_nonblocking(&self, on: bool) -> std::io::Result<()> {
        match self {
            Self::Tcp(s) => s.set_nonblocking(on),
            #[cfg(unix)]
            Self::Unix(s) => s.set_nonblocking(on),
        }
    }

    #[cfg(unix)]
    fn raw_fd(&self) -> i32 {
        use std::os::unix::io::AsRawFd;
        match self {
            Self::Tcp(s) => s.as_raw_fd(),
            Self::Unix(s) => s.as_raw_fd(),
        }
    }

    fn shutdown(&self) {
        let _ = match self {
            Self::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            #[cfg(unix)]
            Self::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Self::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Self::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Self::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Self::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Self::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Self::Unix(s) => s.flush(),
        }
    }
}

/// First allocation for a frame body. The body grows (doubling, capped at
/// the declared length) only as bytes actually arrive, so a length prefix
/// alone — trusted before any handshake — never buys a large allocation.
const BODY_CHUNK: usize = 64 * 1024;

/// Receive-side state: a partially read length prefix or frame body
/// survives a deadline timeout and resumes on the next call.
struct ReadHalf {
    stream: Stream,
    len_buf: [u8; 4],
    len_got: usize,
    /// Declared length of the frame being read.
    body_len: usize,
    /// Body buffer, zero-filled ahead of `body_got` up to its current size.
    body: Vec<u8>,
    body_got: usize,
}

/// Send-side state: bytes accepted by [`Link::enqueue_frame`] but not yet
/// written sit in `pending` until a flush drains them — the reactor's
/// per-link backpressure buffer.
struct WriteHalf {
    stream: Stream,
    pending: VecDeque<u8>,
}

/// One socket-backed [`Link`] (TCP or Unix). Reads and writes are guarded
/// by separate locks over cloned handles, so a collector thread can block
/// in `recv_deadline` while the driver sends. In readiness mode
/// ([`Link::set_nonblocking`]) the `try_*` methods never block and the
/// reactor watches [`Link::poll_fd`] through a [`crate::PollSet`].
pub struct NetLink {
    peer: PeerId,
    reader: Mutex<ReadHalf>,
    writer: Mutex<WriteHalf>,
    /// Whether the underlying file description is in non-blocking mode
    /// (shared by both cloned halves). `try_recv_frame` uses it to decide
    /// if a bounding read timeout is still needed.
    nonblocking: AtomicBool,
    #[cfg(unix)]
    raw_fd: i32,
}

fn closed_kind(kind: ErrorKind) -> bool {
    matches!(
        kind,
        ErrorKind::BrokenPipe
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::UnexpectedEof
            | ErrorKind::NotConnected
    )
}

impl NetLink {
    fn from_stream(stream: Stream, peer: PeerId) -> Result<Self, ConnectError> {
        let writer = stream
            .try_clone()
            .map_err(|e| ConnectError::Io(e.to_string()))?;
        #[cfg(unix)]
        let raw_fd = stream.raw_fd();
        Ok(Self {
            peer,
            reader: Mutex::new(ReadHalf {
                stream,
                len_buf: [0; 4],
                len_got: 0,
                body_len: 0,
                body: Vec::new(),
                body_got: 0,
            }),
            writer: Mutex::new(WriteHalf {
                stream: writer,
                pending: VecDeque::new(),
            }),
            nonblocking: AtomicBool::new(false),
            #[cfg(unix)]
            raw_fd,
        })
    }

    #[cfg(unix)]
    #[cfg(test)]
    pub(crate) fn from_unix(stream: UnixStream, peer: PeerId) -> Result<Self, ConnectError> {
        Self::from_stream(Stream::Unix(stream), peer)
    }
}

/// Reads as much of `buf[*got..]` as the current read timeout allows.
/// Returns `Ok(true)` when `buf` is complete.
fn fill(stream: &mut Stream, buf: &mut [u8], got: &mut usize) -> Result<bool, RecvError> {
    while *got < buf.len() {
        match stream.read(&mut buf[*got..]) {
            Ok(0) => return Err(RecvError::Disconnected),
            Ok(n) => *got += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Ok(false);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if closed_kind(e.kind()) => return Err(RecvError::Disconnected),
            Err(e) => return Err(RecvError::Io(e.to_string())),
        }
    }
    Ok(true)
}

/// One non-blocking pass of the frame reassembly machine. `Ok(None)` means
/// the transport had no more bytes to give right now; partial state stays
/// in `r` and resumes on the next call (from either receive API).
fn try_read_frame(r: &mut ReadHalf) -> Result<Option<Vec<u8>>, RecvError> {
    if r.len_got < 4 {
        let mut len_buf = r.len_buf;
        let done = fill(&mut r.stream, &mut len_buf, &mut r.len_got)?;
        r.len_buf = len_buf;
        if !done {
            return Ok(None);
        }
        let len = u32::from_le_bytes(r.len_buf) as usize;
        if len > MAX_FRAME_LEN {
            return Err(RecvError::Frame(WireError::Malformed(
                "length prefix exceeds frame cap",
            )));
        }
        r.body_len = len;
        r.body = Vec::new();
        r.body_got = 0;
    }
    loop {
        if r.body_got == r.body.len() && r.body.len() < r.body_len {
            // Double (capped at the declared length); the exact reserve
            // makes the finished frame's capacity equal its length.
            let grown = r.body_len.min(BODY_CHUNK.max(2 * r.body.len()));
            r.body.reserve_exact(grown - r.body.len());
            r.body.resize(grown, 0);
        }
        if !fill(&mut r.stream, &mut r.body, &mut r.body_got)? {
            return Ok(None);
        }
        if r.body_got == r.body_len {
            break;
        }
    }
    r.len_got = 0;
    Ok(Some(std::mem::take(&mut r.body)))
}

fn send_io(e: std::io::Error) -> WireError {
    if closed_kind(e.kind()) {
        WireError::TransportClosed
    } else {
        WireError::Io(e.to_string())
    }
}

/// Writes as much of `w.pending` as the stream accepts right now (all of
/// it on a blocking description). Returns the bytes still pending.
fn drain_pending(w: &mut WriteHalf) -> Result<usize, WireError> {
    loop {
        let n = {
            let (head, tail) = w.pending.as_slices();
            let chunk: &[u8] = if head.is_empty() { tail } else { head };
            if chunk.is_empty() {
                break;
            }
            match w.stream.write(chunk) {
                Ok(0) => return Err(WireError::TransportClosed),
                Ok(n) => n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(send_io(e)),
            }
        };
        w.pending.drain(..n);
    }
    if w.pending.is_empty() {
        match w.stream.flush() {
            Ok(()) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => return Err(send_io(e)),
        }
    }
    Ok(w.pending.len())
}

impl Link for NetLink {
    fn peer_id(&self) -> PeerId {
        self.peer
    }

    fn send(&self, frame: &[u8]) -> Result<(), WireError> {
        let len = u32::try_from(frame.len()).map_err(|_| WireError::Malformed("frame length"))?;
        let mut w = self.writer.lock().expect("net link writer poisoned");
        w.pending.extend(len.to_le_bytes());
        w.pending.extend(frame.iter().copied());
        // Blocking contract: nothing (including any backlog enqueued in
        // readiness mode) stays buffered. On a non-blocking description,
        // WouldBlock is waited out in short sleeps.
        loop {
            if drain_pending(&mut w)? == 0 {
                return Ok(());
            }
            std::thread::sleep(MIN_READ_TIMEOUT);
        }
    }

    fn recv_deadline(&self, deadline: Instant) -> Result<Vec<u8>, RecvError> {
        let mut r = self.reader.lock().expect("net link reader poisoned");
        let r = &mut *r;
        if self.nonblocking.load(Ordering::Relaxed) {
            // No OS read timeout to lean on in readiness mode: poll the
            // reassembly machine in short sleeps instead.
            loop {
                if let Some(frame) = try_read_frame(r)? {
                    return Ok(frame);
                }
                if Instant::now() >= deadline {
                    return Err(RecvError::DeadlineExceeded);
                }
                std::thread::sleep(MIN_READ_TIMEOUT);
            }
        }
        loop {
            let Some(remaining) = deadline.checked_duration_since(Instant::now()).filter(|d| {
                // A sub-millisecond remainder would be clamped *up* past
                // the deadline; treat it as already expired.
                *d >= MIN_READ_TIMEOUT
            }) else {
                return Err(RecvError::DeadlineExceeded);
            };
            r.stream
                .set_read_timeout(remaining)
                .map_err(|e| RecvError::Io(e.to_string()))?;
            if let Some(frame) = try_read_frame(r)? {
                return Ok(frame);
            }
        }
    }

    fn set_nonblocking(&self, on: bool) -> Result<(), WireError> {
        let r = self.reader.lock().expect("net link reader poisoned");
        // O_NONBLOCK lives on the shared file description, so one call
        // covers both cloned halves.
        r.stream
            .set_nonblocking(on)
            .map_err(|e| WireError::Io(e.to_string()))?;
        self.nonblocking.store(on, Ordering::Relaxed);
        Ok(())
    }

    fn try_recv_frame(&self) -> Result<Option<Vec<u8>>, RecvError> {
        let mut r = self.reader.lock().expect("net link reader poisoned");
        if !self.nonblocking.load(Ordering::Relaxed) {
            // Bound the peek on a blocking description by the minimum OS
            // read timeout.
            r.stream
                .set_read_timeout(MIN_READ_TIMEOUT)
                .map_err(|e| RecvError::Io(e.to_string()))?;
        }
        try_read_frame(&mut r)
    }

    fn enqueue_frame(&self, frame: &[u8]) -> Result<usize, WireError> {
        let len = u32::try_from(frame.len()).map_err(|_| WireError::Malformed("frame length"))?;
        let mut w = self.writer.lock().expect("net link writer poisoned");
        w.pending.extend(len.to_le_bytes());
        w.pending.extend(frame.iter().copied());
        drain_pending(&mut w)
    }

    fn try_flush(&self) -> Result<usize, WireError> {
        let mut w = self.writer.lock().expect("net link writer poisoned");
        drain_pending(&mut w)
    }

    fn pending_tx(&self) -> usize {
        self.writer
            .lock()
            .expect("net link writer poisoned")
            .pending
            .len()
    }

    fn poll_fd(&self) -> Option<i32> {
        #[cfg(unix)]
        {
            Some(self.raw_fd)
        }
        #[cfg(not(unix))]
        {
            None
        }
    }

    fn close(&self) {
        self.writer
            .lock()
            .expect("net link writer poisoned")
            .stream
            .shutdown();
    }
}

enum Bound {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

/// A socket [`Listener`] bound to an [`Endpoint`]. Accepted links get
/// sequential [`PeerId`]s starting at 1 (0 names the server itself).
pub struct NetListener {
    inner: Bound,
    next_peer: AtomicU64,
}

impl NetListener {
    /// Binds the endpoint. A TCP port of 0 picks a free port (see
    /// [`NetListener::local_endpoint`]); a stale Unix socket file left by
    /// a dead server is removed before binding.
    pub fn bind(endpoint: &Endpoint) -> Result<Self, ConnectError> {
        let inner = match endpoint {
            Endpoint::Tcp(addr) => {
                let l =
                    TcpListener::bind(addr).map_err(|e| ConnectError::Refused(e.to_string()))?;
                l.set_nonblocking(true)
                    .map_err(|e| ConnectError::Io(e.to_string()))?;
                Bound::Tcp(l)
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                if path.exists() {
                    let _ = std::fs::remove_file(path);
                }
                let l =
                    UnixListener::bind(path).map_err(|e| ConnectError::Refused(e.to_string()))?;
                l.set_nonblocking(true)
                    .map_err(|e| ConnectError::Io(e.to_string()))?;
                Bound::Unix(l, path.clone())
            }
        };
        Ok(Self {
            inner,
            next_peer: AtomicU64::new(1),
        })
    }

    /// The actually bound endpoint (resolves a requested TCP port of 0).
    pub fn local_endpoint(&self) -> Endpoint {
        match &self.inner {
            Bound::Tcp(l) => Endpoint::Tcp(
                l.local_addr()
                    .map(|a| a.to_string())
                    .unwrap_or_else(|_| "0.0.0.0:0".to_string()),
            ),
            #[cfg(unix)]
            Bound::Unix(_, path) => Endpoint::Unix(path.clone()),
        }
    }

    fn try_accept(&self) -> std::io::Result<Option<Stream>> {
        match &self.inner {
            Bound::Tcp(l) => match l.accept() {
                Ok((s, _)) => {
                    let _ = s.set_nodelay(true);
                    s.set_nonblocking(false)?;
                    Ok(Some(Stream::Tcp(s)))
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
            #[cfg(unix)]
            Bound::Unix(l, _) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(false)?;
                    Ok(Some(Stream::Unix(s)))
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
        }
    }
}

impl Drop for NetListener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Bound::Unix(_, path) = &self.inner {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Listener for NetListener {
    fn accept_deadline(&self, deadline: Instant) -> Result<Box<dyn Link>, ConnectError> {
        loop {
            match self.try_accept_link()? {
                Some(link) => return Ok(link),
                None => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(ConnectError::DeadlineExceeded);
                    }
                    std::thread::sleep(RETRY_INTERVAL.min(deadline - now));
                }
            }
        }
    }

    fn try_accept_link(&self) -> Result<Option<Box<dyn Link>>, ConnectError> {
        loop {
            match self.try_accept() {
                Ok(Some(stream)) => {
                    let peer = self.next_peer.fetch_add(1, Ordering::Relaxed);
                    return Ok(Some(Box::new(NetLink::from_stream(stream, peer)?)));
                }
                Ok(None) => return Ok(None),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(ConnectError::Io(e.to_string())),
            }
        }
    }

    fn poll_fd(&self) -> Option<i32> {
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            Some(match &self.inner {
                Bound::Tcp(l) => l.as_raw_fd(),
                Bound::Unix(l, _) => l.as_raw_fd(),
            })
        }
        #[cfg(not(unix))]
        {
            None
        }
    }

    fn local_addr(&self) -> String {
        self.local_endpoint().to_string()
    }
}

/// Connects to a listening server, retrying until `deadline` — the server
/// may not be up yet when a client process launches. The returned link is
/// addressed as peer 0 (the server).
pub fn connect(endpoint: &Endpoint, deadline: Instant) -> Result<NetLink, ConnectError> {
    loop {
        let attempt = match endpoint {
            Endpoint::Tcp(addr) => TcpStream::connect(addr).map(|s| {
                let _ = s.set_nodelay(true);
                Stream::Tcp(s)
            }),
            #[cfg(unix)]
            Endpoint::Unix(path) => UnixStream::connect(path).map(Stream::Unix),
        };
        match attempt {
            Ok(stream) => return NetLink::from_stream(stream, SERVER_PEER),
            Err(e) => {
                let now = Instant::now();
                if now >= deadline {
                    return Err(ConnectError::Refused(e.to_string()));
                }
                std::thread::sleep(RETRY_INTERVAL.min(deadline - now));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelBroadcast, WireMessage};
    use std::time::Duration;

    fn far() -> Instant {
        Instant::now() + Duration::from_secs(10)
    }

    fn tcp_pair() -> (Box<dyn Link>, NetLink) {
        let listener =
            NetListener::bind(&Endpoint::parse("127.0.0.1:0").unwrap()).expect("bind tcp");
        let ep = listener.local_endpoint();
        let client = connect(&ep, far()).expect("connect");
        let server_side = listener.accept_deadline(far()).expect("accept");
        (server_side, client)
    }

    #[test]
    fn endpoint_parsing() {
        assert_eq!(
            Endpoint::parse("127.0.0.1:7700").unwrap(),
            Endpoint::Tcp("127.0.0.1:7700".to_string())
        );
        assert_eq!(
            Endpoint::parse("tcp:localhost:80").unwrap(),
            Endpoint::Tcp("localhost:80".to_string())
        );
        assert!(matches!(
            Endpoint::parse("no-port"),
            Err(ConnectError::BadAddress(_))
        ));
        #[cfg(unix)]
        assert_eq!(
            Endpoint::parse("unix:/tmp/x.sock").unwrap(),
            Endpoint::Unix(PathBuf::from("/tmp/x.sock"))
        );
    }

    #[test]
    fn empty_host_and_empty_path_get_typed_errors() {
        // A bare `:99` / `tcp::99` names a port but no host; a bare
        // `unix:` names no path. Each failure mode has its own variant so
        // a CLI can say exactly what is missing.
        assert_eq!(
            Endpoint::parse(":99"),
            Err(ConnectError::EmptyHost(":99".to_string()))
        );
        assert_eq!(
            Endpoint::parse("tcp::99"),
            Err(ConnectError::EmptyHost("tcp::99".to_string()))
        );
        assert_eq!(
            Endpoint::parse("unix:"),
            Err(ConnectError::EmptyPath("unix:".to_string()))
        );
        // The non-empty forms still parse.
        assert!(Endpoint::parse("tcp:localhost:99").is_ok());
    }

    #[test]
    fn tcp_frames_round_trip_in_order() {
        let (server_side, client) = tcp_pair();
        assert_eq!(client.peer_id(), SERVER_PEER);
        assert_eq!(server_side.peer_id(), 1);
        let msg = WireMessage::ModelBroadcast(ModelBroadcast {
            task: 2,
            round: 5,
            model: vec![1.0, -0.5, 3.25],
        });
        client.send(&msg.encode()).unwrap();
        client.send(&[9, 9]).unwrap();
        let first = server_side.recv_deadline(far()).unwrap();
        assert_eq!(WireMessage::decode(&first).unwrap(), msg);
        assert_eq!(server_side.recv_deadline(far()).unwrap(), vec![9, 9]);
        // And the other direction.
        server_side.send(&[1]).unwrap();
        assert_eq!(client.recv_deadline(far()).unwrap(), vec![1]);
    }

    #[test]
    fn tcp_recv_blocks_until_deadline_without_spinning() {
        // The OS read timeout does the waiting: one syscall per remaining
        // time slice, not a poll loop. We can only assert the timing side
        // here; the loopback test asserts the wait-count side.
        let (server_side, _client) = tcp_pair();
        let start = Instant::now();
        let deadline = start + Duration::from_millis(80);
        assert_eq!(
            server_side.recv_deadline(deadline),
            Err(RecvError::DeadlineExceeded)
        );
        assert!(start.elapsed() >= Duration::from_millis(60));
    }

    #[test]
    fn tcp_partial_frame_survives_timeout() {
        let (server_side, client) = tcp_pair();
        // Send only the length prefix; the body follows after the first
        // receive call has already timed out holding partial state.
        let frame = vec![7u8; 10];
        {
            let mut w = client.writer.lock().unwrap();
            w.stream
                .write_all(&(frame.len() as u32).to_le_bytes())
                .unwrap();
            w.stream.flush().unwrap();
        }
        assert_eq!(
            server_side.recv_deadline(Instant::now() + Duration::from_millis(40)),
            Err(RecvError::DeadlineExceeded)
        );
        client.send_raw_body(&frame);
        assert_eq!(server_side.recv_deadline(far()).unwrap(), frame);
    }

    impl NetLink {
        fn send_raw_body(&self, body: &[u8]) {
            let mut w = self.writer.lock().unwrap();
            w.stream.write_all(body).unwrap();
            w.stream.flush().unwrap();
        }
    }

    #[test]
    fn tcp_disconnect_is_typed() {
        let (server_side, client) = tcp_pair();
        client.close();
        drop(client);
        assert_eq!(
            server_side.recv_deadline(far()),
            Err(RecvError::Disconnected)
        );
    }

    #[test]
    fn absurd_length_prefix_is_framing_error_not_allocation() {
        let (server_side, client) = tcp_pair();
        {
            let mut w = client.writer.lock().unwrap();
            w.stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
            w.stream.flush().unwrap();
        }
        assert!(matches!(
            server_side.recv_deadline(far()),
            Err(RecvError::Frame(WireError::Malformed(_)))
        ));
    }

    #[test]
    fn stalled_max_length_prefix_allocates_one_chunk() {
        // A peer declares a 1 GiB frame (the cap, so not a framing error),
        // sends a few body bytes, and stalls: the receiver must not
        // allocate the declared length up front.
        let listener =
            NetListener::bind(&Endpoint::parse("127.0.0.1:0").unwrap()).expect("bind tcp");
        let client = connect(&listener.local_endpoint(), far()).expect("connect");
        let stream = loop {
            if let Some(stream) = listener.try_accept().unwrap() {
                break stream;
            }
        };
        let server_side = NetLink::from_stream(stream, 1).expect("server link");
        server_side.set_nonblocking(true).unwrap();
        client.send_raw_body(&(MAX_FRAME_LEN as u32).to_le_bytes());
        client.send_raw_body(&[1, 2, 3]);
        let deadline = far();
        while server_side.reader.lock().unwrap().body_got < 3 {
            assert_eq!(server_side.try_recv_frame(), Ok(None));
            assert!(Instant::now() < deadline, "body bytes never arrived");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(server_side.try_recv_frame(), Ok(None));
        let r = server_side.reader.lock().unwrap();
        assert_eq!((r.len_got, r.body_len, r.body_got), (4, MAX_FRAME_LEN, 3));
        assert!(r.body.capacity() <= BODY_CHUNK, "{}", r.body.capacity());
    }

    #[test]
    fn frame_body_grows_to_exactly_its_length() {
        let (server_side, client) = tcp_pair();
        let frame: Vec<u8> = (0..3 * BODY_CHUNK + 17).map(|i| i as u8).collect();
        client.send(&frame).unwrap();
        let got = server_side.recv_deadline(far()).unwrap();
        assert_eq!(got, frame);
        assert_eq!(got.capacity(), frame.len());
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_round_trip() {
        let dir = std::env::temp_dir().join(format!("refil-wire-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rt.sock");
        let ep = Endpoint::Unix(path.clone());
        let listener = NetListener::bind(&ep).expect("bind unix");
        let client = connect(&ep, far()).expect("connect unix");
        let server_side = listener.accept_deadline(far()).expect("accept unix");
        client.send(&[5, 6, 7]).unwrap();
        assert_eq!(server_side.recv_deadline(far()).unwrap(), vec![5, 6, 7]);
        server_side.send(&[8]).unwrap();
        assert_eq!(client.recv_deadline(far()).unwrap(), vec![8]);
        drop(listener);
        assert!(!path.exists(), "listener drop removes the socket file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn try_recv_frame_reassembles_partial_frames_without_blocking() {
        let (server_side, client) = tcp_pair();
        server_side.set_nonblocking(true).unwrap();
        // Nothing sent yet: an immediate None, not a block.
        let start = Instant::now();
        assert_eq!(server_side.try_recv_frame().unwrap(), None);
        assert!(start.elapsed() < Duration::from_millis(50));
        // Trickle one frame in three fragments; the reassembly state must
        // survive across try_recv_frame calls.
        let frame = vec![3u8; 9];
        let mut wire = (frame.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&frame);
        let chunks: Vec<&[u8]> = wire.chunks(5).collect();
        for (i, chunk) in chunks.iter().enumerate() {
            client.send_raw_body(chunk);
            std::thread::sleep(Duration::from_millis(10));
            if i + 1 < chunks.len() {
                assert_eq!(server_side.try_recv_frame().unwrap(), None);
            }
        }
        let got = loop {
            if let Some(f) = server_side.try_recv_frame().unwrap() {
                break f;
            }
        };
        assert_eq!(got, frame);
        // A disconnect surfaces as the typed error, same as recv_deadline.
        client.close();
        drop(client);
        let err = loop {
            match server_side.try_recv_frame() {
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Ok(Some(_)) => panic!("no frame was sent"),
                Err(e) => break e,
            }
        };
        assert_eq!(err, RecvError::Disconnected);
    }

    #[test]
    fn enqueue_buffers_under_backpressure_and_try_flush_drains() {
        let (server_side, client) = tcp_pair();
        server_side.set_nonblocking(true).unwrap();
        // Stuff large frames without the peer reading until the socket
        // buffer fills and bytes start pending locally.
        let frame = vec![7u8; 256 * 1024];
        let mut sent = 0usize;
        let pending = loop {
            let pending = server_side.enqueue_frame(&frame).unwrap();
            sent += 1;
            assert_eq!(server_side.pending_tx(), pending);
            if pending > 0 {
                break pending;
            }
            assert!(sent < 1024, "socket buffer never filled");
        };
        assert!(pending > 0);
        // Drain the peer side; try_flush must eventually empty the buffer
        // and every queued frame must arrive intact and in order.
        let reader = std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(30);
            (0..sent)
                .map(|_| client.recv_deadline(deadline).unwrap())
                .collect::<Vec<_>>()
        });
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if server_side.try_flush().unwrap() == 0 {
                break;
            }
            assert!(Instant::now() < deadline, "backlog never drained");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(server_side.pending_tx(), 0);
        let got = reader.join().unwrap();
        assert_eq!(got.len(), sent);
        assert!(got.iter().all(|f| f == &frame));
    }

    #[test]
    fn try_accept_link_is_immediate() {
        let listener =
            NetListener::bind(&Endpoint::parse("127.0.0.1:0").unwrap()).expect("bind tcp");
        assert!(listener.try_accept_link().unwrap().is_none());
        let _client = connect(&listener.local_endpoint(), far()).expect("connect");
        let deadline = Instant::now() + Duration::from_secs(5);
        let accepted = loop {
            if let Some(link) = listener.try_accept_link().unwrap() {
                break link;
            }
            assert!(
                Instant::now() < deadline,
                "pending connection never surfaced"
            );
        };
        assert_eq!(accepted.peer_id(), 1);
        #[cfg(unix)]
        {
            assert!(listener.poll_fd().is_some());
            assert!(accepted.poll_fd().is_some());
        }
    }

    #[test]
    fn accept_deadline_expires() {
        let listener =
            NetListener::bind(&Endpoint::parse("127.0.0.1:0").unwrap()).expect("bind tcp");
        let start = Instant::now();
        assert!(matches!(
            listener.accept_deadline(start + Duration::from_millis(50)),
            Err(ConnectError::DeadlineExceeded)
        ));
        assert!(start.elapsed() >= Duration::from_millis(40));
    }
}
