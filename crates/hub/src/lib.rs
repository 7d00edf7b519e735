//! # hub — a simulated project-hosting platform (GitHub stand-in)
//!
//! GitCite's browser extension talks to "the GitHub servers using its REST
//! API" and "directly modifies the citation file on the remote repository"
//! (paper §3). This crate rebuilds the platform surface those flows need,
//! in-process and deterministic:
//!
//! * **Users, tokens and roles** — registration, personal-access tokens,
//!   per-repository owner/member/reader roles ([`server`], [`perm`]). The
//!   member/non-member split drives exactly the capability gating Figure 2
//!   shows in the popup.
//! * **Hosted repositories** — citation-enabled repositories served over a
//!   typed, REST-like API: list/read files, log, clone, push
//!   (fast-forward checked), fork, server-side `AddCite`/`ModifyCite`/
//!   `DelCite`/`GenCite`, and server-side `MergeCite`.
//! * **Zenodo simulator** ([`zenodo`]) — deposit a released version,
//!   mint a DOI, resolve it later (paper §1's release workflow).
//! * **Software Heritage simulator** ([`heritage`]) — archive whole
//!   repositories under intrinsic SWHIDs (future work #3).
//! * **Audit log** ([`audit`]) — every API call recorded, successes and
//!   denials alike; a write's entry also carries the typed records of
//!   the state it changed, enough to replay the hub.
//! * **Wire protocol** ([`api`]) — every operation above is a typed,
//!   sjson-encodable [`ApiRequest`]/[`ApiResponse`] pair routed through
//!   [`Hub::dispatch`]; [`HubClient`] speaks the protocol from the client
//!   side through a pluggable [`Transport`]. Each method is declared once
//!   in a table that generates its codec and classifiers; the protocol
//!   carries have/want push negotiation (delta [`RepoBundle`]s),
//!   paginated reads, batch envelopes and a binary object side channel.
//! * **Multi-hub replication** ([`repl`]) — a follower
//!   hub continuously pulls per-repo deltas from a primary over the
//!   same wire protocol (the push path, inverted), serves all read
//!   traffic locally within an explicit staleness bound, and refuses
//!   writes with a typed `not_primary` redirect.
//! * **Socket transport** ([`transport`]) — an event-driven TCP server
//!   ([`SocketServer`]: readiness reactor + worker pool, thousands of
//!   connections without thousands of threads) and client transport
//!   ([`TcpTransport`]) with per-connection auth-token scoping, speaking
//!   one length-prefixed framing with compressed raw-byte bundles.
//!
//! Thread-safe: all API methods take `&self`. State is sharded — user and
//! token tables behind `RwLock`s, each hosted repository behind its own
//! `Arc<RwLock<_>>` — so reads on different repositories (and shared
//! reads on the same repository) proceed concurrently; see [`server`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod audit;
pub mod chaos;
pub mod client;
pub mod error;
pub mod heritage;
pub mod perm;
pub mod repl;
pub mod server;
pub mod transport;
pub mod zenodo;

pub use api::{
    ApiRequest, ApiResponse, ErrorCode, LimitsMetrics, MergeOutcome, MergeSummary, MethodMetrics,
    MetricsSnapshot, Negotiation, Page, ReplMetrics, ReplRepoStatus, ReplStatus, RepoBundle,
    RepoMaintenance, StoreMetrics, StoreStats, TransportMetrics, WireError, WireHistogram,
    DEFAULT_PAGE_SIZE, MAX_PAGE_SIZE, PROTOCOL_VERSION,
};
pub use audit::{AuditEvent, AuditLog};
pub use chaos::{ChaosProxy, ChaosSchedule, ChaosTransport, ProxyConfig};
pub use client::{FleetTransport, HubClient, InProcess, RetryPolicy, Transport};
pub use error::{HubError, Result};
pub use heritage::{parse_swhid, swhid, ArchiveReport, Heritage, SwhKind};
pub use perm::{Action, Role};
pub use repl::{Follower, FollowerHandle, ReplState, SyncReport};
pub use server::{
    Hub, LimitsConfig, LogEntry, RateLimit, StoreFactory, Token, User, FAILURE_DECAY_TICKS,
    LOCKOUT_TICKS, MAX_LOGIN_FAILURES,
};
pub use transport::{ServerConfig, SocketServer, TcpTransport};
pub use zenodo::{Deposit, Zenodo, DOI_PREFIX};
