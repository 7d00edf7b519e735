//! Load bench for the event-driven socket server: can one hub process
//! hold 10,000 concurrent loopback connections and keep answering mixed
//! read/push traffic? The old thread-per-connection server would need
//! 10,000 OS threads for this; the reactor holds them on one poller.
//!
//! Shape: the bench re-executes itself as a **server child process**
//! (`HUB_LOAD_ROLE=server`) so each side stays under the per-process fd
//! limit, then
//!
//! 1. opens N connections (default 10,000; `GITCITE_LOAD_CONNS`
//!    overrides) from a small pool of driver threads,
//! 2. drives request waves across every open connection — each wave
//!    writes one framed read request per connection, then collects every
//!    reply, timing each round trip — while writer clients push fresh
//!    commits concurrently,
//! 3. reports client-observed latency percentiles and throughput,
//! 4. measures the side-channel win: the same 5k-commit bundle framed
//!    with its objects inline as hex vs on the compressed binary side
//!    channel, and
//! 5. runs the **overload scenario**: a second server child capped at
//!    256 open connections takes offered load at 2× its capacity, and
//!    the bench checks the overflow is shed with typed `server_busy`
//!    replies while the served requests' p99 stays within 2× of the
//!    uncontended p99.
//!
//! Results go to stderr as `hub_load_*` data lines, which
//! `scripts/bench_load.sh` folds into `BENCH_load.json`.

use gitlite::{path, Repository, Signature};
use hub::transport::frame;
use hub::{ApiRequest, ApiResponse, Hub, HubClient, RepoBundle, SocketServer};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DEFAULT_CONNS: usize = 10_000;
const DRIVERS: usize = 8;
const WAVES: usize = 3;
const WRITERS: usize = 8;
const PUSHES_PER_WRITER: usize = 5;
const BUNDLE_COMMITS: usize = 5_000;

fn sig(t: i64) -> Signature {
    Signature::new("bench", "b@x", t)
}

/// `commits` edits of one churn file next to a stable README.
fn deep_repo(name: &str, commits: usize) -> Repository {
    let mut repo = Repository::init(name);
    repo.worktree_mut()
        .write(&path("README.md"), &b"# load\n"[..])
        .unwrap();
    for i in 0..commits {
        repo.worktree_mut()
            .write(&path("churn.txt"), format!("rev {i}\n").into_bytes())
            .unwrap();
        repo.commit(sig(1 + i as i64), format!("c{i}")).unwrap();
    }
    repo
}

// ---------------------------------------------------------------------
// Server child
// ---------------------------------------------------------------------

/// The re-executed child: seed a hub, serve it, print the bound address,
/// block until the parent hangs up our stdin. `GITCITE_MAX_CONNS` caps
/// `max_open_conns` — the overload scenario serves from a deliberately
/// small box so the parent can offer 2× its capacity.
fn run_server() -> ! {
    let hub = Arc::new(Hub::new("https://hub.local"));
    hub.register_user("ann", "Ann").unwrap();
    let token = hub.login("ann").unwrap();
    hub.import_repo(&token, "p", deep_repo("p", 100)).unwrap();
    let config = match std::env::var("GITCITE_MAX_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        Some(cap) => hub::ServerConfig {
            max_open_conns: cap,
            ..hub::ServerConfig::default()
        },
        None => hub::ServerConfig::default(),
    };
    let server =
        SocketServer::bind_with(Arc::clone(&hub), "127.0.0.1:0", config).expect("bind loopback");
    println!("ADDR {}", server.local_addr());
    let _ = std::io::stdout().flush();
    // Exit when the parent closes our stdin (or dies).
    std::thread::spawn(|| {
        let mut sink = Vec::new();
        let _ = std::io::stdin().read_to_end(&mut sink);
        std::process::exit(0);
    });
    server.join();
    std::process::exit(0);
}

/// Kills the server child when the bench exits, success or panic.
struct ServerChild(Child);

impl Drop for ServerChild {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn_server(max_conns: Option<usize>) -> (ServerChild, String) {
    let exe = std::env::current_exe().expect("own binary path");
    let mut command = Command::new(exe);
    command
        .env("HUB_LOAD_ROLE", "server")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped());
    if let Some(cap) = max_conns {
        command.env("GITCITE_MAX_CONNS", cap.to_string());
    }
    let mut child = command.spawn().expect("spawn server child");
    let stdout = child.stdout.take().expect("child stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read server address");
    let addr = line
        .trim()
        .strip_prefix("ADDR ")
        .expect("address line")
        .to_owned();
    (ServerChild(child), addr)
}

// ---------------------------------------------------------------------
// Load drivers
// ---------------------------------------------------------------------

fn connect_retrying(addr: &str) -> Option<TcpStream> {
    for attempt in 0..5 {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
                return Some(stream);
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20 << attempt)),
        }
    }
    None
}

/// One read request as a complete frame: `branches`, or a one-entry
/// `log_page` when `paged`.
fn read_request(paged: bool) -> Vec<u8> {
    let repo_id = "ann/p".to_owned();
    let request = if paged {
        ApiRequest::LogPage {
            repo_id,
            branch: "main".into(),
            cursor: None,
            limit: Some(1),
        }
    } else {
        ApiRequest::Branches { repo_id }
    };
    frame::encode_message(&request.encode(), &[])
}

/// Reads one reply envelope straight off the socket, without a
/// per-connection BufReader (10k of those would cost 80 MB of idle
/// buffers).
fn read_reply(stream: &mut TcpStream) -> Option<String> {
    frame::read_message(stream)
        .ok()
        .map(|(envelope, _)| envelope)
}

/// One driver thread's slice of the fleet: open `count` connections,
/// then run `WAVES` request waves, returning per-request latencies in
/// microseconds.
fn drive(addr: String, count: usize, parity: usize) -> (usize, Vec<u64>) {
    let mut conns: Vec<TcpStream> = Vec::with_capacity(count);
    for _ in 0..count {
        match connect_retrying(&addr) {
            Some(stream) => conns.push(stream),
            None => break,
        }
    }
    let achieved = conns.len();
    // Mixed read traffic: `branches` and one-entry `log_page` requests
    // alternate across the fleet.
    let branches = read_request(false);
    let log_page = read_request(true);
    let mut latencies = Vec::with_capacity(achieved * WAVES);
    let mut sent_at: Vec<Instant> = Vec::with_capacity(achieved);
    for _wave in 0..WAVES {
        sent_at.clear();
        let mut alive = vec![true; conns.len()];
        for (i, conn) in conns.iter_mut().enumerate() {
            let req: &[u8] = if (i + parity).is_multiple_of(2) {
                &branches
            } else {
                &log_page
            };
            alive[i] = conn.write_all(req).is_ok();
            sent_at.push(Instant::now());
        }
        for (i, conn) in conns.iter_mut().enumerate() {
            if alive[i] && read_reply(conn).is_some() {
                latencies.push(sent_at[i].elapsed().as_micros() as u64);
            }
        }
    }
    (achieved, latencies)
}

/// A writer client: push traffic concurrent with the read waves.
fn write_load(addr: String, id: usize) -> usize {
    let client = match HubClient::connect(&addr) {
        Ok(c) => c,
        Err(_) => return 0,
    };
    let user = format!("writer{id}");
    if client.register_user(&user, &user).is_err() {
        return 0;
    }
    let Ok(token) = client.login(&user) else {
        return 0;
    };
    let mut local = deep_repo(&format!("w{id}"), 20);
    let Ok(repo_id) = client.import_repo(&token, &format!("w{id}"), &local) else {
        return 0;
    };
    let mut pushed = 0;
    for i in 0..PUSHES_PER_WRITER {
        local
            .worktree_mut()
            .write(&path("churn.txt"), format!("w{id} new {i}\n").into_bytes())
            .unwrap();
        local
            .commit(sig(10_000 + i as i64), format!("n{i}"))
            .unwrap();
        if client
            .push(&token, &repo_id, "main", &local, "main", false)
            .is_ok()
        {
            pushed += 1;
        }
    }
    pushed
}

// ---------------------------------------------------------------------
// Overload: 2× capacity offered load against a capped server
// ---------------------------------------------------------------------

/// The capped server's `max_open_conns` for the overload scenario.
const OVERLOAD_CAPACITY: usize = 256;

/// Opens `count` connections at once, sends one read on each, and
/// classifies every reply: a `server_busy` error is a shed, anything
/// else a served request with its round-trip latency.
fn offered_wave(addr: &str, count: usize) -> (Vec<u64>, usize, usize) {
    let mut conns: Vec<TcpStream> = Vec::with_capacity(count);
    for _ in 0..count {
        match connect_retrying(addr) {
            Some(stream) => conns.push(stream),
            None => break,
        }
    }
    let request = read_request(false);
    let mut sent_at = Vec::with_capacity(conns.len());
    let mut alive = vec![true; conns.len()];
    for (i, conn) in conns.iter_mut().enumerate() {
        alive[i] = conn.write_all(&request).is_ok();
        sent_at.push(Instant::now());
    }
    let (mut served_lat, mut served, mut shed) = (Vec::new(), 0usize, 0usize);
    for (i, conn) in conns.iter_mut().enumerate() {
        let Some(reply) = alive[i].then(|| read_reply(conn)).flatten() else {
            continue;
        };
        if reply.contains("server_busy") {
            shed += 1;
        } else {
            served += 1;
            served_lat.push(sent_at[i].elapsed().as_micros() as u64);
        }
    }
    (served_lat, served, shed)
}

fn p99(latencies: &[u64]) -> u64 {
    let histogram = telemetry::Histogram::new();
    for &us in latencies {
        histogram.record(us);
    }
    histogram.snapshot().p99()
}

/// Overload scenario: a server capped at [`OVERLOAD_CAPACITY`] open
/// connections takes offered load at exactly capacity (the uncontended
/// baseline), then at 2× capacity. The claim under test: the overflow
/// is *shed* with typed `server_busy` replies rather than queued, so
/// the p99 of the requests that are served stays close to the
/// uncontended p99 instead of collapsing.
fn overload() {
    let (_server, addr) = spawn_server(Some(OVERLOAD_CAPACITY));

    // Phase 1 — offered load == capacity: everything is served.
    let (base_lat, base_served, base_shed) = offered_wave(&addr, OVERLOAD_CAPACITY);
    // Let the reactor process the phase-1 hangups before re-offering.
    std::thread::sleep(Duration::from_millis(300));

    // Phase 2 — offered load == 2× capacity.
    let (over_lat, over_served, over_shed) = offered_wave(&addr, 2 * OVERLOAD_CAPACITY);

    let offered = 2 * OVERLOAD_CAPACITY;
    let shed_rate = over_shed as f64 / offered as f64;
    let p99_uncontended = p99(&base_lat);
    let p99_served = p99(&over_lat);
    eprintln!(
        "hub_load_overload capacity={OVERLOAD_CAPACITY} offered={offered} served={over_served} \
         shed={over_shed} shed_rate={shed_rate:.2} p99_uncontended_us={p99_uncontended} \
         p99_served_us={p99_served}"
    );

    assert_eq!(base_shed, 0, "at-capacity load must not shed");
    assert!(
        base_served * 10 >= OVERLOAD_CAPACITY * 9,
        "only {base_served}/{OVERLOAD_CAPACITY} served uncontended"
    );
    assert!(over_shed > 0, "2x load produced no shed replies");
    assert!(
        over_served * 10 >= OVERLOAD_CAPACITY * 9,
        "shedding starved served traffic: {over_served}/{OVERLOAD_CAPACITY}"
    );
    assert!(
        p99_served <= 2 * p99_uncontended.max(1),
        "served p99 {p99_served}us blew past 2x the uncontended {p99_uncontended}us"
    );
}

// ---------------------------------------------------------------------
// Bundle bytes: inline hex envelope vs binary side channel
// ---------------------------------------------------------------------

fn bundle_bytes() {
    let repo = deep_repo("big", BUNDLE_COMMITS);
    let bundle = RepoBundle::from_branch(&repo, "main").unwrap();
    let response = ApiResponse::Bundle(bundle);
    // Objects inline: the hex-in-sjson envelope in one frame (reported
    // under the `line` key the bench script reads).
    let line_bytes = frame::encode_message(&response.encode(), &[]).len();
    // The side channel: envelope with objects_ext, objects as
    // compressed raw records.
    let (envelope, objects) = response.encode_ext();
    let binary_bytes = frame::encode_message(&envelope, &objects).len();
    eprintln!(
        "hub_load_bundle_bytes commits={BUNDLE_COMMITS} line={line_bytes} binary={binary_bytes} ratio={:.2}",
        line_bytes as f64 / binary_bytes as f64
    );
}

// ---------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------

fn main() {
    if std::env::var("HUB_LOAD_ROLE").as_deref() == Ok("server") {
        run_server();
    }

    let target: usize = std::env::var("GITCITE_LOAD_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_CONNS);

    let (_server, addr) = spawn_server(None);

    // Writers run through the whole wave phase.
    let started = Instant::now();
    let writers: Vec<_> = (0..WRITERS)
        .map(|id| {
            let addr = addr.clone();
            std::thread::spawn(move || write_load(addr, id))
        })
        .collect();

    let per_driver = target / DRIVERS;
    let remainder = target % DRIVERS;
    let drivers: Vec<_> = (0..DRIVERS)
        .map(|d| {
            let addr = addr.clone();
            let count = per_driver + usize::from(d < remainder);
            std::thread::spawn(move || drive(addr, count, d))
        })
        .collect();

    let mut achieved = 0;
    // Same log2-bucketed histogram the server uses for its own method
    // stats, so the client-observed quantiles here and the hub's
    // `server_metrics` quantiles are computed identically.
    let histogram = telemetry::Histogram::new();
    for driver in drivers {
        let (count, lat) = driver.join().expect("driver thread");
        achieved += count;
        for us in lat {
            histogram.record(us);
        }
    }
    let pushes: usize = writers
        .into_iter()
        .map(|w| w.join().expect("writer thread"))
        .sum();
    let wall = started.elapsed();

    let snapshot = histogram.snapshot();
    let requests = snapshot.count as usize + pushes;
    let req_per_s = requests as f64 / wall.as_secs_f64();

    eprintln!("hub_load_conns target={target} achieved={achieved}");
    eprintln!(
        "hub_load_latency p50_us={} p99_us={} mean_us={}",
        snapshot.p50(),
        snapshot.p99(),
        snapshot.mean()
    );
    eprintln!(
        "hub_load_throughput requests={requests} wall_ms={} req_per_s={req_per_s:.0}",
        wall.as_millis()
    );
    eprintln!("hub_load_pushes writers={WRITERS} pushes={pushes}");

    bundle_bytes();

    assert!(
        achieved * 10 >= target * 9,
        "only {achieved}/{target} connections held concurrently"
    );

    // Separate capped server child, separate port: the overload numbers
    // never share a reactor with the 10k-connection fleet above.
    overload();
}
