//! Fault injection for the hub's transport stack: prove that a flaky
//! network degrades every operation to a *typed error* — never a hang,
//! never a corrupted repository — and that the client's retry discipline
//! (idempotent reads only) holds under fire.
//!
//! Two tools, two layers:
//!
//! * [`ChaosTransport`] wraps any [`Transport`] and, on a seeded
//!   schedule, swallows a request before it is sent, swallows a response
//!   after the request executed (the dangerous case for writes), or
//!   synthesizes a `server_busy` refusal. It exercises
//!   [`HubClient`](crate::client::HubClient) retry logic hermetically —
//!   no sockets, no timing.
//! * [`ChaosProxy`] is a real loopback TCP proxy in front of a
//!   [`SocketServer`](crate::transport::SocketServer). Each accepted
//!   connection draws one fault from a schedule seeded by
//!   `seed + connection index`: pass through untouched, **truncate** the
//!   stream after N bytes, **garble** one byte, or **stall** and drop.
//!   The same seed replays the same session byte-for-byte, so chaos
//!   tests are deterministic.
//!
//! Corruption safety does not come from the proxy being gentle — it
//! garbles request bytes too — but from the layers under test: binary
//! frames carry length prefixes (a truncated frame never parses), object
//! records are content-addressed (a garbled object fails its hash check
//! server-side before landing), and envelopes that fail to parse get a
//! typed `protocol` error. The proxy only proves those claims hold.

use crate::api::ApiResponse;
use crate::client::Transport;
use crate::error::HubError;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

// ---------------------------------------------------------------------
// ChaosTransport: in-process fault injection
// ---------------------------------------------------------------------

/// Per-call fault probabilities for [`ChaosTransport`]. Rates are
/// evaluated in order (lost request, then lost response, then busy) on a
/// single roll, so their sum must stay at or below 1.0.
#[derive(Clone, Copy, Debug)]
pub struct ChaosSchedule {
    /// Seed for the deterministic schedule.
    pub seed: u64,
    /// Probability the request never reaches the inner transport
    /// (surfaces as `transport_closed`; the server saw nothing).
    pub lose_request: f64,
    /// Probability the request executes but its response is swallowed
    /// (also `transport_closed`; the server-side effect stands — the
    /// case that makes blind write-retries dangerous).
    pub lose_response: f64,
    /// Probability of a synthesized `server_busy` refusal (the request
    /// is not sent).
    pub busy: f64,
}

impl Default for ChaosSchedule {
    fn default() -> Self {
        ChaosSchedule {
            seed: 0,
            lose_request: 0.1,
            lose_response: 0.1,
            busy: 0.1,
        }
    }
}

/// A [`Transport`] wrapper that injects faults per [`ChaosSchedule`].
/// Deterministic: the same seed and call sequence produce the same
/// faults.
pub struct ChaosTransport<T> {
    inner: T,
    schedule: ChaosSchedule,
    rng: Mutex<StdRng>,
    requests_lost: AtomicU64,
    responses_lost: AtomicU64,
    busy_injected: AtomicU64,
}

impl<T: Transport> ChaosTransport<T> {
    /// Wraps `inner` under `schedule`.
    pub fn new(inner: T, schedule: ChaosSchedule) -> ChaosTransport<T> {
        ChaosTransport {
            inner,
            schedule,
            rng: Mutex::new(StdRng::seed_from_u64(schedule.seed)),
            requests_lost: AtomicU64::new(0),
            responses_lost: AtomicU64::new(0),
            busy_injected: AtomicU64::new(0),
        }
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// (requests lost, responses lost, busy refusals injected) so far.
    pub fn fault_counts(&self) -> (u64, u64, u64) {
        (
            self.requests_lost.load(Ordering::SeqCst),
            self.responses_lost.load(Ordering::SeqCst),
            self.busy_injected.load(Ordering::SeqCst),
        )
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
    fn send(&self, request: &str) -> String {
        let roll = self.rng.lock().gen_f64();
        let s = &self.schedule;
        if roll < s.lose_request {
            self.requests_lost.fetch_add(1, Ordering::SeqCst);
            return ApiResponse::from_error(&HubError::TransportClosed(
                "injected: connection dropped before the request was sent".into(),
            ))
            .encode();
        }
        if roll < s.lose_request + s.lose_response {
            self.responses_lost.fetch_add(1, Ordering::SeqCst);
            let _ = self.inner.send(request); // executed; reply swallowed
            return ApiResponse::from_error(&HubError::TransportClosed(
                "injected: connection dropped awaiting the response".into(),
            ))
            .encode();
        }
        if roll < s.lose_request + s.lose_response + s.busy {
            self.busy_injected.fetch_add(1, Ordering::SeqCst);
            return ApiResponse::from_error(&HubError::ServerBusy { retry_after: 1 }).encode();
        }
        self.inner.send(request)
    }
}

// ---------------------------------------------------------------------
// ChaosProxy: socket-level fault injection
// ---------------------------------------------------------------------

/// Configuration for a [`ChaosProxy`].
#[derive(Clone, Copy, Debug)]
pub struct ProxyConfig {
    /// Base seed; connection `i` uses `seed + i`, so a run replays.
    pub seed: u64,
    /// Probability an accepted connection draws *any* fault (the kind
    /// and position are then drawn from the same per-connection RNG).
    pub fault_rate: f64,
    /// How long a stalled connection sleeps before being dropped.
    pub stall: Duration,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig {
            seed: 0,
            fault_rate: 0.5,
            stall: Duration::from_millis(50),
        }
    }
}

/// What a connection's fault plan does to the bytes flowing through it.
/// `after` counts bytes in the faulted direction; direction `true` means
/// server→client (the common case — replies are bigger targets), `false`
/// client→server.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Fault {
    None,
    /// Forward `after` bytes, then sever both directions.
    Truncate {
        after: usize,
        downstream: bool,
    },
    /// Flip every bit of the byte at offset `at`, then keep forwarding.
    Garble {
        at: usize,
        downstream: bool,
    },
    /// Forward `after` bytes, sleep the configured stall, then sever.
    Stall {
        after: usize,
        downstream: bool,
    },
}

/// A loopback TCP proxy that forwards to `upstream` while injecting one
/// seeded fault per connection. Drop it (or call
/// [`ChaosProxy::shutdown`]) to stop listening and sever every live
/// connection.
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    faults: Arc<AtomicU64>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Starts a proxy on an ephemeral loopback port in front of
    /// `upstream`.
    pub fn spawn(upstream: SocketAddr, config: ProxyConfig) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let faults = Arc::new(AtomicU64::new(0));
        let accept_thread = {
            let stop = Arc::clone(&stop);
            let faults = Arc::clone(&faults);
            std::thread::spawn(move || accept_loop(&listener, upstream, config, &stop, &faults))
        };
        Ok(ChaosProxy {
            addr,
            stop,
            faults,
            accept_thread: Some(accept_thread),
        })
    }

    /// The proxy's own listening address — what the client dials.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// How many faults the proxy has injected so far (a run with zero is
    /// not testing anything).
    pub fn faults_injected(&self) -> u64 {
        self.faults.load(Ordering::SeqCst)
    }

    /// Stops the proxy. Dropping it does the same.
    pub fn shutdown(self) {}
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

/// Draws connection `index`'s fault plan from its seeded RNG.
fn draw_fault(config: &ProxyConfig, index: u64) -> Fault {
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(index));
    if !rng.gen_bool(config.fault_rate) {
        return Fault::None;
    }
    // Offsets land in the first couple of hundred bytes, where a
    // session's first frame headers and envelopes travel.
    let at = rng.gen_range(1..256);
    let downstream = rng.gen_bool(0.7);
    match rng.gen_range(0..3) {
        0 => Fault::Truncate {
            after: at,
            downstream,
        },
        1 => Fault::Garble { at, downstream },
        _ => Fault::Stall {
            after: at,
            downstream,
        },
    }
}

fn accept_loop(
    listener: &TcpListener,
    upstream: SocketAddr,
    config: ProxyConfig,
    stop: &Arc<AtomicBool>,
    faults: &Arc<AtomicU64>,
) {
    let mut index = 0u64;
    let mut pumps: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((client, _)) => {
                let fault = draw_fault(&config, index);
                index += 1;
                if fault != Fault::None {
                    faults.fetch_add(1, Ordering::SeqCst);
                }
                let Ok(server) = TcpStream::connect(upstream) else {
                    continue; // upstream gone; the client sees a close
                };
                pumps.extend(pump_pair(client, server, fault, config.stall, stop));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
    for handle in pumps {
        let _ = handle.join();
    }
}

/// Spawns the two forwarding threads for one proxied connection. Each
/// owns one direction; severing shuts down both underlying streams, so
/// its twin exits on the next read.
fn pump_pair(
    client: TcpStream,
    server: TcpStream,
    fault: Fault,
    stall: Duration,
    stop: &Arc<AtomicBool>,
) -> Vec<JoinHandle<()>> {
    let client = Arc::new(client);
    let server = Arc::new(server);
    let up_fault = match fault {
        Fault::Truncate {
            downstream: false, ..
        }
        | Fault::Garble {
            downstream: false, ..
        }
        | Fault::Stall {
            downstream: false, ..
        } => fault,
        _ => Fault::None,
    };
    let down_fault = match fault {
        Fault::Truncate {
            downstream: true, ..
        }
        | Fault::Garble {
            downstream: true, ..
        }
        | Fault::Stall {
            downstream: true, ..
        } => fault,
        _ => Fault::None,
    };
    let up = {
        let (from, to) = (Arc::clone(&client), Arc::clone(&server));
        let stop = Arc::clone(stop);
        std::thread::spawn(move || pump(&from, &to, up_fault, stall, &stop))
    };
    let down = {
        let (from, to) = (Arc::clone(&server), Arc::clone(&client));
        let stop = Arc::clone(stop);
        std::thread::spawn(move || pump(&from, &to, down_fault, stall, &stop))
    };
    vec![up, down]
}

/// Forwards `from` → `to`, applying `fault` at its byte offset. Returns
/// when either side closes, the fault severs the stream, or the proxy
/// stops.
fn pump(from: &TcpStream, to: &TcpStream, fault: Fault, stall: Duration, stop: &AtomicBool) {
    let _ = from.set_read_timeout(Some(Duration::from_millis(20)));
    // `&TcpStream` implements Read/Write, so both pumps can share the
    // streams and either can sever both directions.
    let (mut reader, mut writer) = (from, to);
    let sever = || {
        let _ = from.shutdown(std::net::Shutdown::Both);
        let _ = to.shutdown(std::net::Shutdown::Both);
    };
    let mut forwarded = 0usize;
    let mut buf = [0u8; 4096];
    loop {
        if stop.load(Ordering::SeqCst) {
            sever();
            return;
        }
        let n = match reader.read(&mut buf) {
            Ok(0) => {
                sever();
                return;
            }
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => {
                sever();
                return;
            }
        };
        let mut chunk = buf[..n].to_vec();
        match fault {
            Fault::Truncate { after, .. } if forwarded + n >= after => {
                chunk.truncate(after.saturating_sub(forwarded));
                let _ = writer.write_all(&chunk);
                sever();
                return;
            }
            Fault::Stall { after, .. } if forwarded + n >= after => {
                chunk.truncate(after.saturating_sub(forwarded));
                let _ = writer.write_all(&chunk);
                std::thread::sleep(stall);
                sever();
                return;
            }
            Fault::Garble { at, .. } if at >= forwarded && at < forwarded + n => {
                chunk[at - forwarded] ^= 0xFF;
            }
            _ => {}
        }
        forwarded += n;
        if writer.write_all(&chunk).is_err() {
            sever();
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plans_are_deterministic() {
        let config = ProxyConfig::default();
        for i in 0..32 {
            assert_eq!(draw_fault(&config, i), draw_fault(&config, i));
        }
        // And the rate is honored at the extremes.
        let never = ProxyConfig {
            fault_rate: 0.0,
            ..config
        };
        assert!((0..32).all(|i| draw_fault(&never, i) == Fault::None));
        let always = ProxyConfig {
            fault_rate: 1.0,
            ..config
        };
        assert!((0..32).all(|i| draw_fault(&always, i) != Fault::None));
    }

    #[test]
    fn chaos_transport_is_deterministic() {
        struct Echo;
        impl Transport for Echo {
            fn send(&self, _request: &str) -> String {
                r#"{"v":3,"result":{"type":"unit"}}"#.into()
            }
        }
        let schedule = ChaosSchedule {
            seed: 42,
            ..ChaosSchedule::default()
        };
        let run = || {
            let t = ChaosTransport::new(Echo, schedule);
            let replies: Vec<String> = (0..64).map(|_| t.send("{}")).collect();
            (replies, t.fault_counts())
        };
        let (a, counts_a) = run();
        let (b, counts_b) = run();
        assert_eq!(a, b);
        assert_eq!(counts_a, counts_b);
        let (lost_req, lost_resp, busy) = counts_a;
        assert!(lost_req + lost_resp + busy > 0, "schedule injected nothing");
    }
}
