//! Event-driven TCP transport for the hub wire protocol: the piece that
//! turns the in-process platform into an out-of-process service the
//! extension and the CLI can dial — and that holds ten thousand idle
//! connections without ten thousand threads.
//!
//! # Architecture
//!
//! One **reactor thread** owns a readiness poller (the vendored [`mio`]
//! stand-in: epoll on Linux, `poll(2)` elsewhere) plus every connection's
//! buffers, and never blocks on a socket: accepts, reads, frame parsing
//! and writes all happen on readiness. Parsed requests are handed to a
//! small **worker pool** over a channel; workers run [`Hub::dispatch`]
//! (the hub itself is sharded and thread-safe) and push the encoded
//! reply to a completion queue, waking the reactor to write it out.
//! Requests on one connection are served strictly in order — at most one
//! in flight per connection, the rest queued — while different
//! connections proceed in parallel across the pool.
//!
//! # Framing
//!
//! Every message travels as length-prefixed frames — `kind:u8 len:u32be
//! payload`, see [`frame`]. The envelope is sjson (see [`crate::api`]),
//! and bundle object payloads travel beside it as raw, deflate-compressed
//! bytes instead of hex-in-sjson, so a large bundle streams through
//! bounded chunks. A connection whose bytes do not parse as frames (a
//! first byte of `{`, say) is answered with a `protocol` error and
//! closed.
//!
//! # Hardening
//!
//! The reactor enforces [`ServerConfig`] limits: a maximum frame
//! length, a maximum decompressed message size, a read timeout for
//! connections that stall mid-request (idle connections between requests
//! are fine and cost one registered fd each), and a write timeout for
//! peers that stop draining their replies. Limit and timeout violations
//! get a typed `protocol` error where a reply is still possible, then a
//! clean close.
//!
//! # Telemetry
//!
//! The socket layer registers its instruments in the hub's shared
//! [`telemetry`] registry at bind time (`NetMetrics`): open-connection
//! / queue-depth / busy-worker gauges, byte counters, frames rejected by
//! the caps, abrupt closes (the server-side tally of the
//! `transport_closed` errors clients observe), and raw-versus-deflate
//! byte counts for the object side channel. The whole picture —
//! together with the hub's per-method latency histograms — is queryable
//! over the wire through the operator-scoped `server_metrics` method,
//! which is what `gitcite hub top` renders.
//!
//! # Auth-token scoping
//!
//! Tokens are scoped to the connection that minted them:
//!
//! * a successful `login` records the issued token against *this*
//!   connection;
//! * any request carrying a token this connection did not mint is
//!   refused with `auth_failed` **before** dispatch — a token lifted
//!   from one session is useless on any other;
//! * when the connection closes, every token it minted is revoked on
//!   the hub, so no credential outlives its session.
//!
//! Anonymous methods (reads, `register_user`, `login` itself) carry no
//! token and pass through unscoped, exactly as over the in-process
//! transport. The method table's [`SocketPolicy`] adds two exceptions:
//! the operator/test seams (`advance_clock`, `maintenance`) are refused
//! outright on the socket, because "anonymous" on a network port means
//! anyone who can reach it, and operator-scoped methods
//! (`server_metrics`) are served only to a connection whose own minted
//! token belongs to a user holding the operator capability
//! ([`Hub::is_operator_token`]). A `batch` envelope applies the same
//! checks to each item individually.
//!
//! A `refresh` is treated like `login`: it may only exchange a token
//! *this* connection minted, and the replacement token is re-scoped to
//! the connection (the old one leaves the minted set with it) — the
//! table's [`Session`] column says which methods mint and retire.
//!
//! # Replication traffic
//!
//! A follower hub ([`crate::repl`]) pulls from its primary over this
//! same transport: `repl_status`, `repl_fetch` and the paginated audit
//! reads are anonymous read methods, so a replica needs no credential
//! on the primary — and the object side channel moves replication
//! bundles' objects as compressed raw bytes exactly like clones. The
//! operator seams above stay refused on a *follower's* socket too:
//! follower mode changes what `dispatch` will serve, never what the
//! socket lets through.
//!
//! **Deployment note:** by default the hub's `login` takes a username
//! with no secret — fine on loopback, reckless on a network. For an
//! untrusted port, register users with secrets and turn on
//! [`Hub::set_auth_required`]; `gitcite hub serve` refuses a
//! non-loopback bind without `--require-secrets true` (or an explicit
//! `--allow-insecure true`). Token scoping then limits the blast radius
//! of a *leaked* token, and the credential layer (lockout, expiry —
//! see [`crate::perm`]) limits everything else.
//!
//! # Overload shedding
//!
//! [`ServerConfig::max_open_conns`] and
//! [`ServerConfig::max_conns_per_ip`] bound what accept will take on.
//! A connection over either cap is not dropped on the floor — that
//! reads as a network fault — but marked **shed**: its first request is
//! answered with a typed `server_busy` error carrying a retry-after
//! hint, and the connection closes after the reply flushes.
//! Nothing a shed connection sends reaches [`Hub::dispatch`]. Sheds are
//! counted on the `conns.shed` counter, surfaced as `limits.conns_shed`
//! in `server_metrics`.
//!
//! # Client side
//!
//! [`TcpTransport`] writes each request as one message and reads one
//! reply message back; there is no handshake. A connection that drops
//! mid-request surfaces as [`HubError::TransportClosed`] ("hub went
//! away"), distinct from a malformed-envelope `protocol` error, and the
//! next call re-dials. [`HubClient::connect`] wires a client to a served
//! address.

use crate::api::{ApiRequest, ApiResponse, ErrorCode, Session, SocketPolicy, WireError};
use crate::client::{HubClient, Transport};
use crate::error::HubError;
use crate::server::{Hub, Token};
use gitlite::ObjectId;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub mod frame {
    //! The frame codec, shared by server, client, tests and the load
    //! bench.
    //!
    //! A frame is `kind: u8, len: u32 BE, payload: len bytes`. A
    //! *message* (one request or one response) is either a single
    //! [`ENV`] frame carrying a complete sjson envelope, or an
    //! [`ENV_OBJ`] frame (an envelope saying `"objects_ext": n`)
    //! followed by any number of [`OBJ`] frames and one [`END`]. Each
    //! `OBJ` payload is a deflate-compressed block of object records —
    //! `id: 20 bytes, len: u32 BE, bytes` — chunked so a multi-megabyte
    //! bundle streams through bounded buffers; records never split
    //! across blocks.

    use gitlite::ObjectId;
    use std::io::{self, Read};

    /// A decoded message: the envelope text plus its side-channel object
    /// records (empty for [`ENV`] messages).
    pub type Message = (String, Vec<(ObjectId, Vec<u8>)>);

    /// A complete message: one sjson envelope, nothing external.
    pub const ENV: u8 = 0x01;
    /// An envelope whose `objects_ext` payloads follow as [`OBJ`] frames.
    pub const ENV_OBJ: u8 = 0x02;
    /// One compressed block of `(id, len, bytes)` object records.
    pub const OBJ: u8 = 0x03;
    /// Terminates an [`ENV_OBJ`] message.
    pub const END: u8 = 0x04;

    /// Raw object bytes per [`OBJ`] block before compression.
    const CHUNK: usize = 128 * 1024;
    const RECORD_HEADER: usize = 20 + 4;

    /// Appends one frame to `out`.
    pub fn write_frame(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
        out.push(kind);
        out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        out.extend_from_slice(payload);
    }

    /// Encodes one complete message: the envelope, plus its side-channel
    /// objects chunked into compressed [`OBJ`] blocks.
    pub fn encode_message(envelope: &str, objects: &[(ObjectId, Vec<u8>)]) -> Vec<u8> {
        let mut out = Vec::with_capacity(envelope.len() + 64);
        if objects.is_empty() {
            write_frame(&mut out, ENV, envelope.as_bytes());
            return out;
        }
        write_frame(&mut out, ENV_OBJ, envelope.as_bytes());
        let mut block = Vec::new();
        for (id, bytes) in objects {
            if !block.is_empty() && block.len() + RECORD_HEADER + bytes.len() > CHUNK {
                flush_block(&mut out, &block);
                block.clear();
            }
            block.extend_from_slice(&id.0);
            block.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
            block.extend_from_slice(bytes);
        }
        if !block.is_empty() {
            flush_block(&mut out, &block);
        }
        write_frame(&mut out, END, &[]);
        out
    }

    fn flush_block(out: &mut Vec<u8>, block: &[u8]) {
        let packed = miniz_oxide::deflate::compress_to_vec(block, 6);
        write_frame(out, OBJ, &packed);
    }

    /// Parses the records of one decompressed [`OBJ`] block into `into`.
    pub(crate) fn parse_records(
        raw: &[u8],
        into: &mut Vec<(ObjectId, Vec<u8>)>,
    ) -> Result<(), String> {
        let mut pos = 0;
        while pos < raw.len() {
            if raw.len() - pos < RECORD_HEADER {
                return Err("truncated object record header".into());
            }
            let mut id = [0u8; 20];
            id.copy_from_slice(&raw[pos..pos + 20]);
            let len =
                u32::from_be_bytes(raw[pos + 20..pos + 24].try_into().expect("4 bytes")) as usize;
            pos += RECORD_HEADER;
            if raw.len() - pos < len {
                return Err("truncated object record payload".into());
            }
            into.push((ObjectId(id), raw[pos..pos + len].to_vec()));
            pos += len;
        }
        Ok(())
    }

    /// Largest payload length a reader believes. A corrupted length
    /// prefix (one flipped bit can turn 2 KiB into 4 GiB) must surface
    /// as a typed error, not an unbounded allocation or a read that
    /// waits forever for bytes the peer never sent. Matches the
    /// server's default `max_frame_len`.
    pub const MAX_FRAME_LEN: usize = 64 << 20;

    /// Blocking read of one frame.
    pub fn read_frame(r: &mut impl Read) -> io::Result<(u8, Vec<u8>)> {
        let mut header = [0u8; 5];
        r.read_exact(&mut header)?;
        let len = u32::from_be_bytes(header[1..5].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame declares {len} bytes (cap {MAX_FRAME_LEN}); length prefix presumed corrupt"),
            ));
        }
        let mut payload = vec![0u8; len];
        r.read_exact(&mut payload)?;
        Ok((header[0], payload))
    }

    /// Blocking read of one complete message. Returns the envelope text
    /// and the side-channel objects (empty for [`ENV`] messages).
    pub fn read_message(r: &mut impl Read) -> io::Result<Message> {
        let bad = |m: String| io::Error::new(io::ErrorKind::InvalidData, m);
        let utf8 = |payload: Vec<u8>| {
            String::from_utf8(payload)
                .map_err(|_| bad("envelope payload is not valid UTF-8".into()))
        };
        let (kind, payload) = read_frame(r)?;
        match kind {
            ENV => Ok((utf8(payload)?, Vec::new())),
            ENV_OBJ => {
                let envelope = utf8(payload)?;
                let mut objects = Vec::new();
                loop {
                    let (kind, payload) = read_frame(r)?;
                    match kind {
                        OBJ => {
                            let raw = miniz_oxide::inflate::decompress_to_vec(&payload)
                                .map_err(|e| bad(e.to_string()))?;
                            parse_records(&raw, &mut objects).map_err(bad)?;
                        }
                        END => return Ok((envelope, objects)),
                        other => {
                            return Err(bad(format!("frame 0x{other:02x} inside an object stream")))
                        }
                    }
                }
            }
            other => Err(bad(format!("unexpected frame 0x{other:02x}"))),
        }
    }
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

/// Limits and sizing for a [`SocketServer`]. The defaults suit tests and
/// trusted deployments; shrink them for hostile networks.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Dispatch worker threads (the reactor itself is one more thread).
    pub workers: usize,
    /// Longest accepted frame payload; a longer frame is answered with a
    /// `protocol` error and the connection closes.
    pub max_frame_len: usize,
    /// Cap on one message's total decompressed side-channel bytes.
    pub max_message_len: usize,
    /// How long a connection may sit on a *partial* request before it is
    /// timed out (idle connections between requests are unaffected).
    pub read_timeout: Duration,
    /// How long a peer may refuse to drain pending replies.
    pub write_timeout: Duration,
    /// Open connections beyond this are shed: answered `server_busy`
    /// and closed instead of served (see the module docs).
    pub max_open_conns: usize,
    /// Per-peer-IP cap on open connections; the excess is shed.
    pub max_conns_per_ip: usize,
    /// The retry-after hint (seconds) a shed connection is sent.
    pub shed_retry_after_secs: i64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(2, 8);
        ServerConfig {
            workers,
            max_frame_len: 64 << 20,
            max_message_len: 256 << 20,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            max_open_conns: usize::MAX,
            max_conns_per_ip: usize::MAX,
            shed_retry_after_secs: 1,
        }
    }
}

/// A hub served over TCP by the reactor/worker engine described in the
/// module docs. Dropping (or [`SocketServer::shutdown`]) stops the
/// reactor, closes every connection and revokes its session tokens.
pub struct SocketServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Arc<mio::Waker>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl SocketServer {
    /// Binds `addr` (use port 0 to let the OS pick) with default limits.
    pub fn bind(hub: Arc<Hub>, addr: impl ToSocketAddrs) -> io::Result<SocketServer> {
        Self::bind_with(hub, addr, ServerConfig::default())
    }

    /// Binds `addr` and starts serving `hub` under explicit limits.
    pub fn bind_with(
        hub: Arc<Hub>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<SocketServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let poll = mio::Poll::new()?;
        poll.registry()
            .register(&listener, LISTENER, mio::Interest::READABLE)?;
        let waker = Arc::new(mio::Waker::new(poll.registry(), WAKER_TOKEN)?);
        let stop = Arc::new(AtomicBool::new(false));
        let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));
        let metrics = Arc::new(NetMetrics::new(&hub.metrics()));
        let (jobs, job_rx) = mpsc::channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let hub = Arc::clone(&hub);
                let rx = Arc::clone(&job_rx);
                let completions = Arc::clone(&completions);
                let waker = Arc::clone(&waker);
                let metrics = Arc::clone(&metrics);
                std::thread::spawn(move || worker_loop(&hub, &rx, &completions, &waker, &metrics))
            })
            .collect();
        let reactor = Reactor {
            hub,
            config,
            metrics,
            poll,
            listener,
            conns: HashMap::new(),
            ip_counts: HashMap::new(),
            next_id: FIRST_CONN,
            jobs,
            completions,
            waker: Arc::clone(&waker),
            stop: Arc::clone(&stop),
        };
        let handle = std::thread::spawn(move || reactor.run());
        Ok(SocketServer {
            addr,
            stop,
            waker,
            reactor: Some(handle),
            workers,
        })
    }

    /// The address the server actually listens on (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the reactor, closes every connection (revoking its tokens)
    /// and joins the worker pool. Dropping the server does the same.
    pub fn shutdown(self) {}

    /// Blocks the calling thread for the server's lifetime — what
    /// `gitcite hub serve` does after printing the address.
    pub fn join(mut self) {
        if let Some(handle) = self.reactor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for SocketServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.waker.wake();
        if let Some(handle) = self.reactor.take() {
            let _ = handle.join();
        }
        // The reactor exiting dropped the job sender; workers drain and
        // stop on the closed channel.
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

const LISTENER: mio::Token = mio::Token(0);
const WAKER_TOKEN: mio::Token = mio::Token(1);
const FIRST_CONN: usize = 2;
/// Poll tick: upper bound on stop-flag and deadline-sweep latency.
const TICK: Duration = Duration::from_millis(200);

/// One parsed request, ready for a worker.
type Item = frame::Message;

/// An open `ENV_OBJ .. END` sequence mid-stream.
struct Partial {
    envelope: String,
    objects: Vec<(ObjectId, Vec<u8>)>,
    /// Decompressed bytes consumed so far, checked against
    /// [`ServerConfig::max_message_len`].
    raw_bytes: usize,
}

struct Job {
    conn: usize,
    item: Item,
    minted: Arc<Mutex<HashSet<String>>>,
}

type Completion = (usize, Vec<u8>);

struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    partial: Option<Partial>,
    /// Requests parsed but not yet dispatched (strict per-connection
    /// ordering: at most one in flight).
    pending: VecDeque<Item>,
    busy: bool,
    outq: VecDeque<Vec<u8>>,
    out_off: usize,
    minted: Arc<Mutex<HashSet<String>>>,
    read_deadline: Option<Instant>,
    write_deadline: Option<Instant>,
    /// Flush `outq`, then close (set after a fatal framing violation).
    closing: bool,
    /// Accepted over a connection cap: serve `server_busy` to the first
    /// request, never dispatch (see the module docs on shedding).
    shed: bool,
    /// Peer address, for the per-IP connection tally.
    peer_ip: Option<std::net::IpAddr>,
    reg_read: bool,
    reg_write: bool,
}

impl Conn {
    fn new(stream: TcpStream, peer_ip: Option<std::net::IpAddr>) -> Conn {
        Conn {
            stream,
            inbuf: Vec::new(),
            partial: None,
            pending: VecDeque::new(),
            busy: false,
            outq: VecDeque::new(),
            out_off: 0,
            minted: Arc::new(Mutex::new(HashSet::new())),
            read_deadline: None,
            write_deadline: None,
            closing: false,
            shed: false,
            peer_ip,
            reg_read: true,
            reg_write: false,
        }
    }
}

/// The socket layer's instrument handles, resolved once from the hub's
/// shared [`telemetry::Registry`] at bind time so the hot paths bump
/// atomics and never touch a name→instrument map. The hub keeps its
/// per-method stats outside this registry, so the registry is non-empty
/// exactly when a socket server is (or has been) attached — which is how
/// `server_metrics` decides whether to report a transport section.
struct NetMetrics {
    conns_open: Arc<telemetry::Gauge>,
    queue_depth: Arc<telemetry::Gauge>,
    workers_busy: Arc<telemetry::Gauge>,
    bytes_in_binary: Arc<telemetry::Counter>,
    bytes_out_binary: Arc<telemetry::Counter>,
    frames_rejected: Arc<telemetry::Counter>,
    transport_closed: Arc<telemetry::Counter>,
    conns_shed: Arc<telemetry::Counter>,
    obj_raw_bytes: Arc<telemetry::Counter>,
    obj_deflate_bytes: Arc<telemetry::Counter>,
}

impl NetMetrics {
    fn new(registry: &telemetry::Registry) -> NetMetrics {
        NetMetrics {
            conns_open: registry.gauge("conns.open"),
            queue_depth: registry.gauge("queue.depth"),
            workers_busy: registry.gauge("workers.busy"),
            bytes_in_binary: registry.counter("bytes.in.binary"),
            bytes_out_binary: registry.counter("bytes.out.binary"),
            frames_rejected: registry.counter("frames.rejected"),
            transport_closed: registry.counter("conns.transport_closed"),
            conns_shed: registry.counter("conns.shed"),
            obj_raw_bytes: registry.counter("obj.raw_bytes"),
            obj_deflate_bytes: registry.counter("obj.deflate_bytes"),
        }
    }
}

struct Reactor {
    hub: Arc<Hub>,
    config: ServerConfig,
    metrics: Arc<NetMetrics>,
    poll: mio::Poll,
    listener: TcpListener,
    conns: HashMap<usize, Conn>,
    /// Open connections per peer IP, maintained by accept/close.
    ip_counts: HashMap<std::net::IpAddr, usize>,
    next_id: usize,
    jobs: mpsc::Sender<Job>,
    completions: Arc<Mutex<Vec<Completion>>>,
    waker: Arc<mio::Waker>,
    stop: Arc<AtomicBool>,
}

impl Reactor {
    fn run(mut self) {
        let mut events = mio::Events::with_capacity(1024);
        loop {
            let _ = self.poll.poll(&mut events, Some(TICK));
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            for event in events.iter() {
                match event.token() {
                    LISTENER => self.accept_all(),
                    WAKER_TOKEN => self.waker.drain(),
                    mio::Token(id) => {
                        if event.is_readable() || event.is_error() || event.is_read_closed() {
                            self.conn_readable(id);
                        }
                        if event.is_writable() {
                            self.conn_writable(id);
                        }
                    }
                }
            }
            self.drain_completions();
            self.sweep_deadlines();
        }
        let ids: Vec<usize> = self.conns.keys().copied().collect();
        for id in ids {
            // Shutdown under a live peer: every remaining connection is
            // torn down abruptly from the client's point of view.
            self.close(id, true);
        }
    }

    fn accept_all(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let id = self.next_id;
                    self.next_id += 1;
                    if self
                        .poll
                        .registry()
                        .register(&stream, mio::Token(id), mio::Interest::READABLE)
                        .is_err()
                    {
                        continue;
                    }
                    let ip = peer.ip();
                    let per_ip = self.ip_counts.entry(ip).or_insert(0);
                    // The cap decision is made here, once, at accept —
                    // cheaper than anything downstream, and a shed
                    // connection costs one fd and one short reply.
                    let shed = self.conns.len() >= self.config.max_open_conns
                        || *per_ip >= self.config.max_conns_per_ip;
                    *per_ip += 1;
                    let mut conn = Conn::new(stream, Some(ip));
                    if shed {
                        conn.shed = true;
                        self.metrics.conns_shed.inc();
                    }
                    self.conns.insert(id, conn);
                    self.metrics.conns_open.inc();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn conn_readable(&mut self, id: usize) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if conn.closing {
            return;
        }
        let mut eof = false;
        let mut buf = [0u8; 16 * 1024];
        loop {
            // Bound per-event buffering; the poll is level-triggered, so
            // leftover socket data re-reports on the next tick.
            if conn.inbuf.len() > self.config.max_frame_len.saturating_add(5) {
                break;
            }
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => conn.inbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    eof = true;
                    break;
                }
            }
        }
        let (items, fatal) = parse_input(conn, &self.config, &self.metrics);
        if conn.shed && !items.is_empty() {
            // Shed connection: its first request gets one typed
            // server_busy refusal, then the connection closes. Nothing
            // reaches the dispatch pool.
            conn.inbuf.clear();
            conn.partial = None;
            conn.read_deadline = None;
            let reply = error_reply(&HubError::ServerBusy {
                retry_after: self.config.shed_retry_after_secs,
            });
            conn.outq.push_back(reply);
            conn.closing = true;
        } else {
            for item in items {
                if conn.busy {
                    conn.pending.push_back(item);
                    self.metrics.queue_depth.inc();
                } else {
                    conn.busy = true;
                    let _ = self.jobs.send(Job {
                        conn: id,
                        item,
                        minted: Arc::clone(&conn.minted),
                    });
                }
            }
        }
        if conn.closing {
            // Shed refusal already queued; any trailing framing trouble
            // is moot, the connection is on its way out.
        } else if let Some(msg) = fatal {
            self.metrics.frames_rejected.inc();
            self.metrics.queue_depth.add(-(conn.pending.len() as i64));
            conn.pending.clear();
            conn.inbuf.clear();
            conn.partial = None;
            conn.read_deadline = None;
            let reply = fatal_reply(&msg);
            conn.outq.push_back(reply);
            conn.closing = true;
        } else {
            // The read deadline covers *partial* requests only, and is
            // pinned at partial-start so trickled bytes cannot extend it.
            let waiting = !conn.inbuf.is_empty() || conn.partial.is_some();
            conn.read_deadline = if waiting {
                conn.read_deadline
                    .or_else(|| Some(Instant::now() + self.config.read_timeout))
            } else {
                None
            };
        }
        if eof && !conn.closing {
            // Peer hung up; close() decides whether it was clean (idle,
            // nothing pending) or abrupt (a request still in flight).
            self.close(id, false);
            return;
        }
        let alive = flush(conn, &self.config, &self.metrics);
        if alive {
            update_interest(self.poll.registry(), id, conn);
        } else {
            self.close(id, false);
        }
    }

    fn conn_writable(&mut self, id: usize) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let alive = flush(conn, &self.config, &self.metrics);
        if alive {
            update_interest(self.poll.registry(), id, conn);
        } else {
            self.close(id, false);
        }
    }

    fn drain_completions(&mut self) {
        let done: Vec<Completion> = std::mem::take(&mut *self.completions.lock());
        for (id, bytes) in done {
            let Some(conn) = self.conns.get_mut(&id) else {
                continue; // connection closed while its request ran
            };
            conn.outq.push_back(bytes);
            conn.busy = false;
            if let Some(item) = conn.pending.pop_front() {
                self.metrics.queue_depth.dec();
                conn.busy = true;
                let _ = self.jobs.send(Job {
                    conn: id,
                    item,
                    minted: Arc::clone(&conn.minted),
                });
            }
            let alive = flush(conn, &self.config, &self.metrics);
            if alive {
                update_interest(self.poll.registry(), id, conn);
            } else {
                self.close(id, false);
            }
        }
    }

    fn sweep_deadlines(&mut self) {
        let now = Instant::now();
        let mut write_dead = Vec::new();
        let mut read_dead = Vec::new();
        for (&id, conn) in &self.conns {
            if conn.write_deadline.is_some_and(|d| now >= d) {
                write_dead.push(id);
            } else if !conn.closing && conn.read_deadline.is_some_and(|d| now >= d) {
                read_dead.push(id);
            }
        }
        for id in write_dead {
            // The peer is not draining; an error reply cannot be
            // delivered either. Just close (abruptly, by definition).
            self.close(id, true);
        }
        for id in read_dead {
            let Some(conn) = self.conns.get_mut(&id) else {
                continue;
            };
            self.metrics.queue_depth.add(-(conn.pending.len() as i64));
            conn.pending.clear();
            conn.inbuf.clear();
            conn.partial = None;
            conn.read_deadline = None;
            let reply = fatal_reply("read timed out mid-request");
            conn.outq.push_back(reply);
            conn.closing = true;
            let alive = flush(conn, &self.config, &self.metrics);
            if alive {
                update_interest(self.poll.registry(), id, conn);
            } else {
                self.close(id, false);
            }
        }
    }

    /// Removes and tears down connection `id`. A close counts as a
    /// `transport_closed` occurrence — the server-side twin of the error
    /// the peer will observe — when it is `forced` (server shutdown,
    /// write timeout) or when the connection still had work in motion:
    /// a request executing or queued, an open object stream, or replies
    /// not yet delivered. A clean idle hangup and a planned post-error
    /// close whose reply was fully flushed count nothing.
    fn close(&mut self, id: usize, forced: bool) {
        if let Some(conn) = self.conns.remove(&id) {
            let _ = self.poll.registry().deregister(&conn.stream);
            self.metrics.conns_open.dec();
            if let Some(ip) = conn.peer_ip {
                if let Some(n) = self.ip_counts.get_mut(&ip) {
                    *n -= 1;
                    if *n == 0 {
                        self.ip_counts.remove(&ip);
                    }
                }
            }
            self.metrics.queue_depth.add(-(conn.pending.len() as i64));
            let planned = conn.closing && conn.outq.is_empty();
            let in_flight = conn.busy
                || !conn.pending.is_empty()
                || conn.partial.is_some()
                || !conn.outq.is_empty();
            if forced || (in_flight && !planned) {
                self.metrics.transport_closed.inc();
            }
            // End of session: the connection's credentials die with it.
            for token in conn.minted.lock().drain() {
                self.hub.revoke(&Token::new(token));
            }
        }
    }
}

/// Consumes as many complete requests from `conn.inbuf` as possible.
/// Returns the parsed items plus a fatal framing violation, if any (the
/// connection answers it and closes).
fn parse_input(
    conn: &mut Conn,
    config: &ServerConfig,
    metrics: &NetMetrics,
) -> (Vec<Item>, Option<String>) {
    let mut items = Vec::new();
    // The buffer head is always a frame boundary here, so its first byte
    // is refused as soon as it arrives if it names no frame kind.
    while let Some(&kind) = conn.inbuf.first() {
        if !(frame::ENV..=frame::END).contains(&kind) {
            return (
                items,
                Some(format!("byte 0x{kind:02x} does not start a frame")),
            );
        }
        if conn.inbuf.len() < 5 {
            break;
        }
        let len = u32::from_be_bytes(conn.inbuf[1..5].try_into().expect("4 bytes")) as usize;
        if len > config.max_frame_len {
            return (
                items,
                Some(format!(
                    "frame of {len} bytes exceeds the {} byte limit",
                    config.max_frame_len
                )),
            );
        }
        if conn.inbuf.len() < 5 + len {
            break;
        }
        let payload: Vec<u8> = conn.inbuf[5..5 + len].to_vec();
        conn.inbuf.drain(..5 + len);
        metrics.bytes_in_binary.add(5 + len as u64);
        if let Some(violation) = handle_frame(conn, config, metrics, kind, payload, &mut items) {
            return (items, Some(violation));
        }
    }
    (items, None)
}

/// One complete frame. Returns a fatal violation message, if any.
fn handle_frame(
    conn: &mut Conn,
    config: &ServerConfig,
    metrics: &NetMetrics,
    kind: u8,
    payload: Vec<u8>,
    items: &mut Vec<Item>,
) -> Option<String> {
    let envelope_utf8 = |payload: Vec<u8>| {
        String::from_utf8(payload).map_err(|_| "envelope payload is not valid UTF-8".to_owned())
    };
    match kind {
        frame::ENV => {
            if conn.partial.is_some() {
                return Some("ENV frame inside an open object stream".into());
            }
            match envelope_utf8(payload) {
                Ok(envelope) => items.push((envelope, Vec::new())),
                Err(e) => return Some(e),
            }
        }
        frame::ENV_OBJ => {
            if conn.partial.is_some() {
                return Some("ENV_OBJ frame inside an open object stream".into());
            }
            match envelope_utf8(payload) {
                Ok(envelope) => {
                    let raw_bytes = envelope.len();
                    conn.partial = Some(Partial {
                        envelope,
                        objects: Vec::new(),
                        raw_bytes,
                    });
                }
                Err(e) => return Some(e),
            }
        }
        frame::OBJ => {
            let Some(partial) = conn.partial.as_mut() else {
                return Some("OBJ frame outside an object stream".into());
            };
            let budget = config.max_message_len.saturating_sub(partial.raw_bytes);
            metrics.obj_deflate_bytes.add(payload.len() as u64);
            let raw = match miniz_oxide::inflate::decompress_to_vec_with_limit(&payload, budget) {
                Ok(raw) => raw,
                Err(e) => return Some(format!("object block: {e}")),
            };
            metrics.obj_raw_bytes.add(raw.len() as u64);
            partial.raw_bytes += raw.len();
            if let Err(e) = frame::parse_records(&raw, &mut partial.objects) {
                return Some(e);
            }
        }
        frame::END => {
            let Some(partial) = conn.partial.take() else {
                return Some("END frame outside an object stream".into());
            };
            items.push((partial.envelope, partial.objects));
        }
        _ => unreachable!("kind validated by the caller"),
    }
    None
}

/// One typed error envelope as a complete message — used for shed
/// refusals and, via [`fatal_reply`], framing violations.
fn error_reply(err: &HubError) -> Vec<u8> {
    frame::encode_message(&ApiResponse::from_error(err).encode(), &[])
}

/// The error reply for a fatal framing violation.
fn fatal_reply(msg: &str) -> Vec<u8> {
    error_reply(&HubError::Protocol(msg.to_owned()))
}

/// Writes as much of `outq` as the socket accepts. Returns `false` when
/// the connection should be closed (write failure, or `closing` with an
/// empty queue).
fn flush(conn: &mut Conn, config: &ServerConfig, metrics: &NetMetrics) -> bool {
    let mut progressed = false;
    while let Some(front) = conn.outq.front() {
        match conn.stream.write(&front[conn.out_off..]) {
            Ok(0) => return false,
            Ok(n) => {
                metrics.bytes_out_binary.add(n as u64);
                progressed = true;
                conn.out_off += n;
                if conn.out_off == front.len() {
                    conn.outq.pop_front();
                    conn.out_off = 0;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    if conn.outq.is_empty() {
        conn.write_deadline = None;
        !conn.closing
    } else {
        if progressed || conn.write_deadline.is_none() {
            conn.write_deadline = Some(Instant::now() + config.write_timeout);
        }
        true
    }
}

fn update_interest(registry: &mio::Registry, id: usize, conn: &mut Conn) {
    let want_read = !conn.closing;
    let want_write = !conn.outq.is_empty();
    if (want_read, want_write) == (conn.reg_read, conn.reg_write) {
        return;
    }
    let interest = match (want_read, want_write) {
        (true, true) => mio::Interest::READABLE.add(mio::Interest::WRITABLE),
        (true, false) => mio::Interest::READABLE,
        (false, true) => mio::Interest::WRITABLE,
        // closing with nothing to write: the caller closes instead.
        (false, false) => return,
    };
    if registry
        .reregister(&conn.stream, mio::Token(id), interest)
        .is_ok()
    {
        conn.reg_read = want_read;
        conn.reg_write = want_write;
    }
}

// ---------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------

fn worker_loop(
    hub: &Hub,
    jobs: &Mutex<mpsc::Receiver<Job>>,
    completions: &Mutex<Vec<Completion>>,
    waker: &mio::Waker,
    metrics: &NetMetrics,
) {
    loop {
        // Hold the receiver lock only for the recv itself.
        let job = { jobs.lock().recv() };
        let Ok(job) = job else { break };
        metrics.workers_busy.inc();
        let (envelope, objects) = job.item;
        let bytes = respond(hub, &job.minted, &envelope, objects, metrics);
        metrics.workers_busy.dec();
        completions.lock().push((job.conn, bytes));
        let _ = waker.wake();
    }
}

fn respond(
    hub: &Hub,
    minted: &Mutex<HashSet<String>>,
    envelope: &str,
    objects: Vec<(ObjectId, Vec<u8>)>,
    metrics: &NetMetrics,
) -> Vec<u8> {
    let response = match ApiRequest::parse_ext(envelope, objects) {
        Ok(request) => execute(hub, minted, request),
        Err(e) => ApiResponse::Error(e),
    };
    let (text, objects) = response.into_ext();
    let message = frame::encode_message(&text, &objects);
    if !objects.is_empty() {
        // Compression ratio on the object side channel: raw record bytes
        // versus what actually hits the wire (the OBJ payloads plus one
        // 5-byte frame header per ~128 KiB block — noise).
        let raw: usize = objects.iter().map(|(_, b)| 24 + b.len()).sum();
        let overhead = (5 + text.len()) + 5; // ENV_OBJ frame + END frame
        metrics.obj_raw_bytes.add(raw as u64);
        metrics
            .obj_deflate_bytes
            .add(message.len().saturating_sub(overhead) as u64);
    }
    message
}

/// Transport-level request execution: batch fan-out plus the per-request
/// socket guards.
fn execute(hub: &Hub, minted: &Mutex<HashSet<String>>, request: ApiRequest) -> ApiResponse {
    if let ApiRequest::Batch { requests } = request {
        // Guards apply to every item individually: a foreign token or an
        // operator seam in one slot must not ride in on its siblings. (The
        // parser already refused nested batches.)
        return ApiResponse::Batch(
            requests
                .into_iter()
                .map(|inner| execute_one(hub, minted, inner))
                .collect(),
        );
    }
    execute_one(hub, minted, request)
}

fn execute_one(hub: &Hub, minted: &Mutex<HashSet<String>>, request: ApiRequest) -> ApiResponse {
    let policy = request.socket_policy();
    if policy == SocketPolicy::Refused {
        return ApiResponse::from_error(&HubError::PermissionDenied(format!(
            "method {:?} is operator-only and not served over the socket",
            request.method()
        )));
    }
    if let Some(token) = request.token() {
        if !minted.lock().contains(token) {
            return ApiResponse::from_error(&HubError::AuthFailed);
        }
    }
    // Operator-scoped: the tokenless trusted-embedder form is not served
    // over the socket, and the (connection-minted) token must belong to a
    // user holding the operator capability.
    if policy == SocketPolicy::Operator
        && !request.token().is_some_and(|t| hub.is_operator_token(t))
    {
        return ApiResponse::from_error(&HubError::PermissionDenied(format!(
            "{} over the socket requires an operator token",
            request.method()
        )));
    }
    // Token lifecycle requests rewrite the connection's minted set (the
    // minted guard above already pinned a retired token to this
    // connection).
    let session = request.session();
    let retired = match session {
        Session::Retire | Session::Swap => request.token().map(str::to_owned),
        Session::Keep | Session::Mint => None,
    };
    let response = hub.dispatch(request);
    if matches!(session, Session::Mint | Session::Swap) {
        if let ApiResponse::Token(token) = &response {
            minted.lock().insert(token.clone());
        }
    }
    if let Some(token) = retired {
        if !matches!(response, ApiResponse::Error(_)) {
            minted.lock().remove(&token);
        }
    }
    response
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// Client side of the socket transport: one connection, one in-flight
/// request at a time (the interior lock serializes concurrent callers).
///
/// A connection that errors is dropped, and the *next* call re-dials the
/// remembered address. The failed call itself still surfaces its error —
/// whether to resend is the caller's decision ([`HubClient::call`]
/// retries idempotent reads).
/// Server-minted tokens are scoped to the connection that minted them,
/// so tokens die with a reconnect: token-carrying calls fail
/// `auth_failed` until the caller logs in again.
pub struct TcpTransport {
    addr: SocketAddr,
    io_timeout: Option<Duration>,
    conn: Mutex<Option<BufReader<TcpStream>>>,
}

/// Default per-read/per-write socket timeout. Generous enough that no
/// healthy exchange ever trips it, but it bounds every blocking call:
/// a peer (or a fault between here and the peer) that stops moving
/// bytes degrades to a typed `transport_closed` instead of a hang.
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

impl TcpTransport {
    /// Connects to a [`SocketServer`] (or anything speaking its framing).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<TcpTransport> {
        let stream = TcpStream::connect(addr)?;
        let addr = stream.peer_addr()?;
        let io_timeout = Some(DEFAULT_IO_TIMEOUT);
        Self::configure(&stream, io_timeout);
        Ok(TcpTransport {
            addr,
            io_timeout,
            conn: Mutex::new(Some(BufReader::new(stream))),
        })
    }

    /// Overrides the socket read/write timeout (`None` = block forever).
    /// Fault-injection tests shrink it so stalled connections turn over
    /// in milliseconds; the default is [`DEFAULT_IO_TIMEOUT`].
    pub fn with_io_timeout(mut self, timeout: Option<Duration>) -> TcpTransport {
        if let Some(conn) = self.conn.get_mut().as_ref() {
            Self::configure(conn.get_ref(), timeout);
        }
        self.io_timeout = timeout;
        self
    }

    fn configure(stream: &TcpStream, timeout: Option<Duration>) {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(timeout);
        let _ = stream.set_write_timeout(timeout);
    }

    /// Re-dials after a dropped connection; no-op while one is live.
    fn ensure(
        addr: SocketAddr,
        io_timeout: Option<Duration>,
        slot: &mut Option<BufReader<TcpStream>>,
    ) -> io::Result<&mut BufReader<TcpStream>> {
        if slot.is_none() {
            let stream = TcpStream::connect(addr)?;
            Self::configure(&stream, io_timeout);
            *slot = Some(BufReader::new(stream));
        }
        Ok(slot.as_mut().expect("just connected"))
    }

    /// One message out, one message back, on a live (or re-dialed)
    /// connection; an IO failure drops the connection so the next call
    /// re-dials.
    fn round_trip(&self, message: &[u8]) -> io::Result<frame::Message> {
        let mut slot = self.conn.lock();
        let result = (|| {
            let conn = Self::ensure(self.addr, self.io_timeout, &mut slot)?;
            let mut stream = conn.get_ref();
            stream.write_all(message)?;
            stream.flush()?;
            frame::read_message(conn)
        })();
        if result.is_err() {
            *slot = None;
        }
        result
    }
}

/// Maps a client-side IO failure to its error envelope: connection drops
/// (and refused re-dials — "hub went away" either way) become
/// `transport_closed`, everything else stays a `protocol` error.
fn io_error_response(e: &io::Error) -> ApiResponse {
    use io::ErrorKind as K;
    // WouldBlock/TimedOut are how a socket read/write timeout surfaces:
    // the connection stopped moving bytes, which to the caller is the
    // same "hub went away" as a drop — and equally retryable.
    let closed = matches!(
        e.kind(),
        K::UnexpectedEof
            | K::ConnectionReset
            | K::ConnectionAborted
            | K::ConnectionRefused
            | K::BrokenPipe
            | K::WouldBlock
            | K::TimedOut
    );
    ApiResponse::Error(if closed {
        WireError {
            code: ErrorCode::TransportClosed,
            message: format!("hub connection closed: {e}"),
            detail: None,
        }
    } else {
        WireError {
            code: ErrorCode::Protocol,
            message: format!("transport failure: {e}"),
            detail: None,
        }
    })
}

impl Transport for TcpTransport {
    fn send(&self, request: &str) -> String {
        // The string contract: wrap the pre-encoded envelope in an ENV
        // frame, and fold any side-channel reply back into its inline
        // (hex) envelope form.
        match self.round_trip(&frame::encode_message(request, &[])) {
            Ok((envelope, objects)) if objects.is_empty() => envelope,
            Ok((envelope, objects)) => match ApiResponse::parse_ext(&envelope, objects) {
                Ok(response) => response.encode(),
                Err(e) => ApiResponse::Error(e).encode(),
            },
            Err(e) => io_error_response(&e).encode(),
        }
    }

    fn exchange(&self, request: &ApiRequest) -> ApiResponse {
        let (text, objects) = request.encode_ext();
        match self.round_trip(&frame::encode_message(&text, &objects)) {
            Ok((envelope, objects)) => {
                ApiResponse::parse_ext(&envelope, objects).unwrap_or_else(ApiResponse::Error)
            }
            Err(e) => io_error_response(&e),
        }
    }
}

impl HubClient<TcpTransport> {
    /// Client over a fresh TCP connection to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<HubClient<TcpTransport>> {
        Ok(HubClient::new(TcpTransport::connect(addr)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hangup_surfaces_as_transport_closed() {
        // A peer that hangs up yields a parseable transport_closed
        // envelope — "hub went away" — not a panic or an empty string.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            drop(stream); // immediate hangup
        });
        let transport = TcpTransport::connect(addr).unwrap();
        peer.join().unwrap();
        let list = ApiRequest::ListReposPage {
            cursor: None,
            limit: None,
        };
        let reply = transport.send(&list.encode());
        match ApiResponse::parse(&reply) {
            Ok(ApiResponse::Error(e)) => assert_eq!(e.code, ErrorCode::TransportClosed),
            other => panic!("expected a transport_closed envelope, got {other:?}"),
        }
        // And the typed path reconstructs the dedicated variant.
        match transport.exchange(&list).into_result() {
            Err(HubError::TransportClosed(_)) => {}
            other => panic!("expected HubError::TransportClosed, got {other:?}"),
        }
    }

    #[test]
    fn frame_messages_round_trip() {
        let objects: Vec<(ObjectId, Vec<u8>)> = (0..300u32)
            .map(|i| {
                let bytes = format!("object payload {i} ").repeat(50).into_bytes();
                (ObjectId::hash_bytes(&bytes), bytes)
            })
            .collect();
        let message = frame::encode_message("{\"v\":3}", &objects);
        let (envelope, back) = frame::read_message(&mut &message[..]).unwrap();
        assert_eq!(envelope, "{\"v\":3}");
        assert_eq!(back, objects);
        // Compression pays for itself on repetitive payloads.
        let raw: usize = objects.iter().map(|(_, b)| 24 + b.len()).sum();
        assert!(message.len() < raw / 2, "{} vs {raw}", message.len());

        let plain = frame::encode_message("{\"v\":3}", &[]);
        let (envelope, back) = frame::read_message(&mut &plain[..]).unwrap();
        assert_eq!(envelope, "{\"v\":3}");
        assert!(back.is_empty());
    }

    #[test]
    fn record_larger_than_chunk_gets_its_own_block() {
        let big = vec![0xAB; 700 * 1024];
        let objects = vec![
            (ObjectId::hash_bytes(b"a"), b"small".to_vec()),
            (ObjectId::hash_bytes(&big), big.clone()),
            (ObjectId::hash_bytes(b"b"), b"tail".to_vec()),
        ];
        let message = frame::encode_message("{\"v\":3}", &objects);
        let (_, back) = frame::read_message(&mut &message[..]).unwrap();
        assert_eq!(back, objects);
    }
}
