//! The wire protocol of the Cloud Platform API.
//!
//! The paper's Figure 1 places a "Cloud Platform API" between the browser
//! extension, the local tool and the hosting platform. This module is that
//! seam made concrete: every hub operation is a typed [`ApiRequest`], every
//! outcome a typed [`ApiResponse`], and both are sjson-encodable so any
//! transport that can move strings (in-process call, socket, HTTP body)
//! can carry the full platform surface. [`crate::Hub::dispatch`] routes
//! requests; [`crate::HubClient`] speaks the protocol from the client side
//! through a [`crate::Transport`].
//!
//! # Wire format
//!
//! A request is one JSON object stamped with [`PROTOCOL_VERSION`]:
//!
//! ```text
//! {"v": 3, "method": "add_cite", "params": {"token": "...", "repo_id":
//!  "alice/p", "branch": "main", "path": "src/lib.rs", "citation": {...}}}
//! ```
//!
//! A response is one JSON object carrying either a `result` or an `error`,
//! never both:
//!
//! ```text
//! {"v": 3, "result": {"type": "commit", "id": "<40-hex>"}}
//! {"v": 3, "error": {"code": "permission_denied", "message": "...",
//!  "detail": "bob"}}
//! ```
//!
//! * Results are self-describing (`type` tag), so responses parse without
//!   knowing which request produced them. Binary payloads (file contents,
//!   inline object bytes) travel hex-encoded; object ids are their 40-char
//!   hex form; repository paths are `/`-joined strings with `""` meaning
//!   the root.
//! * An envelope stamped with any other `v` is refused with a `protocol`
//!   error, as are unknown methods; unknown params are ignored. Optional
//!   fields follow the *absent-field rule*: the key is left out while the
//!   value is empty, so adding an optional field changes no existing
//!   bytes.
//! * **Paginated reads** — `log_page`, `audit_log_page` and
//!   `list_repos_page` take an opaque `cursor` plus a `limit` and return a
//!   typed [`Page`] (`items` + `next` cursor), so no read materializes an
//!   unbounded array. Cursors pin their position (a log cursor pins the
//!   tip it started from), so pages stay stable while writers advance the
//!   branch. The typed `log`, `audit_log` and `list_repos` helpers of
//!   [`crate::Hub`] and [`crate::HubClient`] walk these pages.
//! * **Push negotiation** — `negotiate` sends the client's ref tips plus a
//!   sample of recent commit ids ("haves"); the server partitions them
//!   into `common` (reachable from its refs) and `missing`. The client
//!   then ships a *delta* [`RepoBundle`] ([`RepoBundle::delta_from_branch`])
//!   carrying only the objects past the common frontier; its `basis`
//!   names the commits the receiver must already have.
//! * **Object side channel** — over the length-prefixed framing of
//!   [`crate::transport`], a bundle's `objects` array is replaced by
//!   `"objects_ext": n`, and the *n* `(id, bytes)` records travel beside
//!   the envelope as compressed raw-byte frames, in order.
//!   [`ApiRequest::encode_ext`] / [`ApiRequest::parse_ext`] (and the
//!   [`ApiResponse`] counterparts) are the split/join points. The side
//!   channel must be consumed exactly, a bundle may not carry both
//!   `objects` and `objects_ext`, and plain [`ApiRequest::parse`] refuses
//!   `objects_ext` — it has no side channel to draw from.
//! * **Batch envelopes** — `{"v":3,"method":"batch","params":
//!   {"requests":[<envelope>, ...]}}` carries several requests in one
//!   round trip; the response is `{"type":"batch","responses":
//!   [<envelope>, ...]}` in request order, items individually succeeding
//!   or failing. Batches cannot nest, and batch items always carry their
//!   objects inline. The extension popup's sign-in (`whoami` +
//!   `can_write` + citation lookup) rides in one batch.
//!
//! Every method is declared once, as one row of the method table
//! (`methods!` below): its wire name, variant and params, plus which param
//! is its auth token, what it does to a connection's tokens, whether it is
//! idempotent, how a follower hub treats it, which param the per-repo rate
//! limiter charges, and whether the socket serves it. The enum,
//! [`METHOD_NAMES`], the codecs and every classifier are generated from
//! that row. Adding a method is one table row plus one arm in the hub's
//! `route` match; forgetting the arm is a compile error, and no
//! classifier has a default to fall back on. Result shapes are declared
//! the same way (`results!`), and every value type states its encoding
//! once, in its `Wire` impl.
//!
//! # Error codes
//!
//! Structured codes replace stringly errors. `detail` carries the variant
//! payload (a username, repository id, path, ...) verbatim, so clients can
//! reconstruct a typed [`HubError`] without parsing prose:
//!
//! | code                     | meaning                                       |
//! |--------------------------|-----------------------------------------------|
//! | `auth_failed`            | token missing, unknown or revoked             |
//! | `permission_denied`      | authenticated but not allowed                 |
//! | `user_not_found`         | unknown user (`detail` = username)            |
//! | `user_exists`            | username taken (`detail` = username)          |
//! | `repo_not_found`         | unknown repository (`detail` = repo id)       |
//! | `repo_exists`            | repository id taken (`detail` = repo id)      |
//! | `doi_not_found`          | unknown DOI (`detail` = doi)                  |
//! | `swhid_not_found`        | unknown SWHID (`detail` = swhid)              |
//! | `bad_request`            | malformed operation (bad name, branch, ...)   |
//! | `branch_not_found`       | VCS: no such branch (`detail` = branch)       |
//! | `branch_exists`          | VCS: branch taken (`detail` = branch)         |
//! | `non_fast_forward`       | VCS: push rejected (`detail` = branch)        |
//! | `file_not_found`         | VCS: no such file (`detail` = path)           |
//! | `object_not_found`       | VCS: missing object (`detail` = hex id)       |
//! | `nothing_to_commit`      | VCS: worktree identical to HEAD               |
//! | `merge_conflicts`        | VCS: conflicted merge (`detail` = count)      |
//! | `empty_repository`       | VCS: repository has no commits                |
//! | `git`                    | any other VCS failure                         |
//! | `already_cited`          | AddCite on a cited path (`detail` = path)     |
//! | `not_cited`              | Modify/DelCite on uncited path (`detail`)     |
//! | `root_citation_required` | DelCite on the root                           |
//! | `path_missing`           | cite op on absent path (`detail` = path)      |
//! | `reserved_path`          | cite op on `citation.cite` (`detail` = path)  |
//! | `unresolved_conflict`    | merge conflict refused (`detail` = path)      |
//! | `destination_exists`     | CopyCite target taken (`detail` = path)       |
//! | `source_missing`         | CopyCite source absent (`detail` = path)      |
//! | `bad_citation_file`      | citation.cite failed to parse (`detail` = why)|
//! | `cite`                   | any other citation-layer failure              |
//! | `token_expired`          | token lifetime elapsed; `refresh` it          |
//! | `rate_limited`           | token bucket or login lockout (`detail` = retry-after ticks) |
//! | `quota_exceeded`         | size quota refused the write (`detail` = why) |
//! | `server_busy`            | connection shed under overload (`detail` = retry-after secs) |
//! | `not_primary`            | follower hub refuses write/stale read (`detail` = primary addr) |
//! | `protocol`               | envelope/method/params malformed              |
//! | `transport_closed`       | connection dropped mid-request (client-side)  |
//!
//! `transport_closed` is synthesized by client transports when the peer
//! hangs up between request and response; a server never sends it.
//! `server_busy` is the one error a server sends *outside* dispatch: the
//! reactor answers the first request on a shed connection with it and
//! closes, so an overloaded server costs one frame per refused peer
//! instead of a stalled queue slot.
//!
//! Codes whose `detail` is structurally required (the path/id-carrying
//! ones) reconstruct to a `protocol` error when a peer omits it — a
//! typed error naming an invented payload would be worse than refusing.
//! The residual `git`/`cite` codes reconstruct as message-carrying
//! variants (`GitError::Io`, `CiteError::BadCitationFile`): the family
//! survives the wire, the exact variant does not.

use crate::audit::AuditEvent;
use crate::error::HubError;
use crate::heritage::{ArchiveReport, SwhKind};
use crate::perm::Role;
use crate::server::{LogEntry, User};
use crate::zenodo::Deposit;
use citekit::{Citation, MergeStrategy, Resolution};
use gitlite::{CacheStats, ObjectId, ObjectStore, RepoPath, Repository};
use sjson::{Object, Value};
use std::collections::{HashSet, VecDeque};
use std::fmt;

/// The protocol version every envelope is stamped with. An envelope
/// stamped with anything else is refused with a `protocol` error.
pub const PROTOCOL_VERSION: i64 = 3;

/// Default page size applied when a paginated request omits `limit`.
pub const DEFAULT_PAGE_SIZE: usize = 100;

/// Hard ceiling on a page: larger `limit`s are clamped, keeping one
/// response bounded no matter what a client asks for.
pub const MAX_PAGE_SIZE: usize = 500;

/// Result alias for wire-level operations.
pub type WireResult<T> = std::result::Result<T, WireError>;

// ---------------------------------------------------------------------
// Error codes
// ---------------------------------------------------------------------

macro_rules! error_codes {
    ($($code:ident = $wire:literal,)*) => {
        /// Stable machine-readable failure categories (see the module-level
        /// error-code table).
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[allow(missing_docs)] // the table in the module docs is the documentation
        pub enum ErrorCode {
            $($code,)*
        }

        impl ErrorCode {
            /// The wire spelling.
            pub fn as_str(self) -> &'static str {
                match self {
                    $(ErrorCode::$code => $wire,)*
                }
            }

            /// Parses the wire spelling.
            pub fn parse(s: &str) -> Option<ErrorCode> {
                match s {
                    $($wire => Some(ErrorCode::$code),)*
                    _ => None,
                }
            }
        }
    };
}

error_codes! {
    AuthFailed = "auth_failed",
    PermissionDenied = "permission_denied",
    UserNotFound = "user_not_found",
    UserExists = "user_exists",
    RepoNotFound = "repo_not_found",
    RepoExists = "repo_exists",
    DoiNotFound = "doi_not_found",
    SwhidNotFound = "swhid_not_found",
    BadRequest = "bad_request",
    BranchNotFound = "branch_not_found",
    BranchExists = "branch_exists",
    NonFastForward = "non_fast_forward",
    FileNotFound = "file_not_found",
    ObjectNotFound = "object_not_found",
    NothingToCommit = "nothing_to_commit",
    MergeConflicts = "merge_conflicts",
    EmptyRepository = "empty_repository",
    Git = "git",
    AlreadyCited = "already_cited",
    NotCited = "not_cited",
    RootCitationRequired = "root_citation_required",
    PathMissing = "path_missing",
    ReservedPath = "reserved_path",
    UnresolvedConflict = "unresolved_conflict",
    DestinationExists = "destination_exists",
    SourceMissing = "source_missing",
    BadCitationFile = "bad_citation_file",
    Cite = "cite",
    TokenExpired = "token_expired",
    RateLimited = "rate_limited",
    QuotaExceeded = "quota_exceeded",
    ServerBusy = "server_busy",
    NotPrimary = "not_primary",
    Protocol = "protocol",
    TransportClosed = "transport_closed",
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A failure as it travels on the wire: a stable code, a human-readable
/// message, and (when the originating error carried one) the raw variant
/// payload in `detail`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Machine-readable category.
    pub code: ErrorCode,
    /// Human-readable description (the originating error's `Display`).
    pub message: String,
    /// The originating variant's payload, verbatim (username, repo id,
    /// path, ...), when it had one.
    pub detail: Option<String>,
}

impl WireError {
    /// Classifies a [`HubError`] into its wire form.
    pub fn from_hub(e: &HubError) -> WireError {
        let message = e.to_string();
        let (code, detail) = match e {
            HubError::AuthFailed => (ErrorCode::AuthFailed, None),
            HubError::PermissionDenied(s) => (ErrorCode::PermissionDenied, Some(s.clone())),
            HubError::UserNotFound(s) => (ErrorCode::UserNotFound, Some(s.clone())),
            HubError::UserExists(s) => (ErrorCode::UserExists, Some(s.clone())),
            HubError::RepoNotFound(s) => (ErrorCode::RepoNotFound, Some(s.clone())),
            HubError::RepoExists(s) => (ErrorCode::RepoExists, Some(s.clone())),
            HubError::DoiNotFound(s) => (ErrorCode::DoiNotFound, Some(s.clone())),
            HubError::SwhidNotFound(s) => (ErrorCode::SwhidNotFound, Some(s.clone())),
            HubError::BadRequest(s) => (ErrorCode::BadRequest, Some(s.clone())),
            HubError::TokenExpired => (ErrorCode::TokenExpired, None),
            HubError::RateLimited { retry_after } => {
                (ErrorCode::RateLimited, Some(retry_after.to_string()))
            }
            HubError::QuotaExceeded(s) => (ErrorCode::QuotaExceeded, Some(s.clone())),
            HubError::ServerBusy { retry_after } => {
                (ErrorCode::ServerBusy, Some(retry_after.to_string()))
            }
            HubError::NotPrimary { primary } => (ErrorCode::NotPrimary, Some(primary.clone())),
            HubError::Protocol(s) => (ErrorCode::Protocol, Some(s.clone())),
            HubError::TransportClosed(s) => (ErrorCode::TransportClosed, Some(s.clone())),
            HubError::Git(g) => classify_git(g),
            HubError::Cite(c) => match c {
                citekit::CiteError::Git(g) => classify_git(g),
                citekit::CiteError::AlreadyCited(p) => {
                    (ErrorCode::AlreadyCited, Some(p.to_string()))
                }
                citekit::CiteError::NotCited(p) => (ErrorCode::NotCited, Some(p.to_string())),
                citekit::CiteError::RootCitationRequired => (ErrorCode::RootCitationRequired, None),
                citekit::CiteError::PathMissing(p) => (ErrorCode::PathMissing, Some(p.to_string())),
                citekit::CiteError::ReservedPath(p) => {
                    (ErrorCode::ReservedPath, Some(p.to_string()))
                }
                citekit::CiteError::UnresolvedConflict(p) => {
                    (ErrorCode::UnresolvedConflict, Some(p.to_string()))
                }
                citekit::CiteError::DestinationExists(p) => {
                    (ErrorCode::DestinationExists, Some(p.to_string()))
                }
                citekit::CiteError::SourceMissing(p) => {
                    (ErrorCode::SourceMissing, Some(p.to_string()))
                }
                citekit::CiteError::BadCitationFile(msg) => {
                    (ErrorCode::BadCitationFile, Some(msg.clone()))
                }
                _ => (ErrorCode::Cite, None),
            },
        };
        WireError {
            code,
            message,
            detail,
        }
    }

    /// Reconstructs the closest typed [`HubError`]. Hub-level variants
    /// come back exactly (their payload rides in `detail`); the VCS and
    /// citation-layer variants a caller can act on have their own codes
    /// and reconstruct precisely, while the residual `git`/`cite` codes
    /// come back in the right family carrying the wire message. A
    /// path/id-carrying code whose `detail` is missing or unparseable
    /// becomes a `protocol` error — a typed error naming an invented
    /// payload would mislead.
    pub fn into_hub(self) -> HubError {
        let WireError {
            code,
            message,
            detail,
        } = self;
        let payload = |d: Option<String>| d.unwrap_or_else(|| message.clone());
        // Required structured details; `Err` is the honest protocol error.
        let path = |d: Option<String>| -> Result<RepoPath, HubError> {
            d.as_deref()
                .and_then(|s| RepoPath::parse(s).ok())
                .ok_or_else(|| {
                    HubError::Protocol(format!(
                        "error code {code} requires a path detail ({message})"
                    ))
                })
        };
        let cite = |r: Result<RepoPath, HubError>, make: fn(RepoPath) -> citekit::CiteError| match r
        {
            Ok(p) => HubError::Cite(make(p)),
            Err(e) => e,
        };
        match code {
            ErrorCode::AuthFailed => HubError::AuthFailed,
            ErrorCode::PermissionDenied => HubError::PermissionDenied(payload(detail)),
            ErrorCode::UserNotFound => HubError::UserNotFound(payload(detail)),
            ErrorCode::UserExists => HubError::UserExists(payload(detail)),
            ErrorCode::RepoNotFound => HubError::RepoNotFound(payload(detail)),
            ErrorCode::RepoExists => HubError::RepoExists(payload(detail)),
            ErrorCode::DoiNotFound => HubError::DoiNotFound(payload(detail)),
            ErrorCode::SwhidNotFound => HubError::SwhidNotFound(payload(detail)),
            ErrorCode::BadRequest => HubError::BadRequest(payload(detail)),
            ErrorCode::TokenExpired => HubError::TokenExpired,
            ErrorCode::RateLimited => match detail.as_deref().and_then(|d| d.parse().ok()) {
                Some(retry_after) => HubError::RateLimited { retry_after },
                None => HubError::Protocol(format!(
                    "error code rate_limited requires a retry-after detail ({message})"
                )),
            },
            ErrorCode::QuotaExceeded => HubError::QuotaExceeded(payload(detail)),
            ErrorCode::ServerBusy => match detail.as_deref().and_then(|d| d.parse().ok()) {
                Some(retry_after) => HubError::ServerBusy { retry_after },
                None => HubError::Protocol(format!(
                    "error code server_busy requires a retry-after detail ({message})"
                )),
            },
            ErrorCode::NotPrimary => match detail {
                Some(primary) => HubError::NotPrimary { primary },
                None => HubError::Protocol(format!(
                    "error code not_primary requires a primary-address detail ({message})"
                )),
            },
            ErrorCode::Protocol => HubError::Protocol(payload(detail)),
            ErrorCode::TransportClosed => HubError::TransportClosed(payload(detail)),
            ErrorCode::BranchNotFound => {
                HubError::Git(gitlite::GitError::BranchNotFound(payload(detail)))
            }
            ErrorCode::BranchExists => {
                HubError::Git(gitlite::GitError::BranchExists(payload(detail)))
            }
            ErrorCode::NonFastForward => HubError::Git(gitlite::GitError::NonFastForward {
                branch: payload(detail),
            }),
            ErrorCode::FileNotFound => match path(detail) {
                Ok(p) => HubError::Git(gitlite::GitError::FileNotFound(p)),
                Err(e) => e,
            },
            ErrorCode::ObjectNotFound => {
                match detail.as_deref().and_then(gitlite::ObjectId::from_hex) {
                    Some(id) => HubError::Git(gitlite::GitError::ObjectNotFound(id)),
                    None => HubError::Protocol(format!(
                        "error code object_not_found requires a hex id detail ({message})"
                    )),
                }
            }
            ErrorCode::NothingToCommit => HubError::Git(gitlite::GitError::NothingToCommit),
            ErrorCode::MergeConflicts => match detail.as_deref().and_then(|d| d.parse().ok()) {
                Some(n) => HubError::Git(gitlite::GitError::MergeConflicts(n)),
                None => HubError::Protocol(format!(
                    "error code merge_conflicts requires a count detail ({message})"
                )),
            },
            ErrorCode::EmptyRepository => HubError::Git(gitlite::GitError::EmptyRepository),
            ErrorCode::Git => HubError::Git(gitlite::GitError::Io(message)),
            ErrorCode::AlreadyCited => cite(path(detail), citekit::CiteError::AlreadyCited),
            ErrorCode::NotCited => cite(path(detail), citekit::CiteError::NotCited),
            ErrorCode::RootCitationRequired => {
                HubError::Cite(citekit::CiteError::RootCitationRequired)
            }
            ErrorCode::PathMissing => cite(path(detail), citekit::CiteError::PathMissing),
            ErrorCode::ReservedPath => cite(path(detail), citekit::CiteError::ReservedPath),
            ErrorCode::UnresolvedConflict => {
                cite(path(detail), citekit::CiteError::UnresolvedConflict)
            }
            ErrorCode::DestinationExists => {
                cite(path(detail), citekit::CiteError::DestinationExists)
            }
            ErrorCode::SourceMissing => cite(path(detail), citekit::CiteError::SourceMissing),
            ErrorCode::BadCitationFile => {
                HubError::Cite(citekit::CiteError::BadCitationFile(payload(detail)))
            }
            ErrorCode::Cite => HubError::Cite(citekit::CiteError::BadCitationFile(message)),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for WireError {}

fn classify_git(g: &gitlite::GitError) -> (ErrorCode, Option<String>) {
    match g {
        gitlite::GitError::BranchNotFound(b) => (ErrorCode::BranchNotFound, Some(b.clone())),
        gitlite::GitError::BranchExists(b) => (ErrorCode::BranchExists, Some(b.clone())),
        gitlite::GitError::NonFastForward { branch } => {
            (ErrorCode::NonFastForward, Some(branch.clone()))
        }
        gitlite::GitError::FileNotFound(p) => (ErrorCode::FileNotFound, Some(p.to_string())),
        gitlite::GitError::ObjectNotFound(id) => (ErrorCode::ObjectNotFound, Some(id.to_hex())),
        gitlite::GitError::NothingToCommit => (ErrorCode::NothingToCommit, None),
        gitlite::GitError::MergeConflicts(n) => (ErrorCode::MergeConflicts, Some(n.to_string())),
        gitlite::GitError::EmptyRepository => (ErrorCode::EmptyRepository, None),
        _ => (ErrorCode::Git, None),
    }
}

fn proto(msg: impl Into<String>) -> WireError {
    WireError {
        code: ErrorCode::Protocol,
        message: msg.into(),
        detail: None,
    }
}

// ---------------------------------------------------------------------
// Value codecs
// ---------------------------------------------------------------------

/// Where bundle object payloads go while one message is encoded or
/// parsed. `Some` is the binary framing's side channel: encoding moves
/// every bundle's objects into it (the envelope then says
/// `"objects_ext": n`) and parsing draws them back out, in order. `None`
/// keeps objects inline as hex — plain envelopes and every batch item.
struct Side(Option<VecDeque<(ObjectId, Vec<u8>)>>);

impl Side {
    fn inline() -> Side {
        Side(None)
    }

    fn channel(objects: Vec<(ObjectId, Vec<u8>)>) -> Side {
        Side(Some(objects.into()))
    }

    fn into_objects(self) -> Vec<(ObjectId, Vec<u8>)> {
        self.0.map(Vec::from).unwrap_or_default()
    }

    /// After a parse: every side-channel object must have been claimed.
    fn finish(self) -> WireResult<()> {
        match self.0 {
            Some(rest) if !rest.is_empty() => Err(proto(format!(
                "side channel carried {} unconsumed objects",
                rest.len()
            ))),
            _ => Ok(()),
        }
    }
}

/// How one value type travels as sjson. Params, results, bundles and
/// metrics are all built from these impls, so each type's encoding is
/// stated exactly once.
trait Wire: Sized {
    fn to_wire(&self, side: &mut Side) -> Value;
    fn from_wire(v: &Value, side: &mut Side) -> WireResult<Self>;
}

/// Types that travel as the fields of an enclosing object. Structs are
/// `Body`s, and a result may carry one flattened beside its `type` tag.
trait Body: Sized {
    fn put_body(&self, o: &mut Object, side: &mut Side);
    fn get_body(o: &Object, side: &mut Side) -> WireResult<Self>;
}

fn expected(what: &str) -> WireError {
    proto(format!("expected {what}"))
}

fn object(v: &Value) -> WireResult<&Object> {
    v.as_object().ok_or_else(|| expected("an object"))
}

/// Reads a field every peer writes. A missing key reads as `null`, which
/// only `Option` fields accept.
fn field<T: Wire>(o: &Object, key: &str, side: &mut Side) -> WireResult<T> {
    match o.get(key) {
        Some(v) => T::from_wire(v, side),
        None => T::from_wire(&Value::Null, side),
    }
    .map_err(|e| proto(format!("field {key:?}: {}", e.message)))
}

/// Reads a field under the absent-field rule: missing or `null` is the
/// default value.
fn sparse_field<T: Wire + Default>(o: &Object, key: &str, side: &mut Side) -> WireResult<T> {
    match o.get(key) {
        None | Some(Value::Null) => Ok(T::default()),
        Some(v) => {
            T::from_wire(v, side).map_err(|e| proto(format!("field {key:?}: {}", e.message)))
        }
    }
}

fn is_default<T: Default + PartialEq>(v: &T) -> bool {
    *v == T::default()
}

/// Writes one field; a `sparse` field is left out while it holds its
/// default value (the absent-field rule).
macro_rules! put {
    ($o:expr, $side:expr, $key:expr, $v:expr) => {{
        $o.insert($key, Wire::to_wire($v, $side));
    }};
    ($o:expr, $side:expr, $key:expr, $v:expr, sparse) => {
        if !is_default($v) {
            put!($o, $side, $key, $v);
        }
    };
}

/// Reads one field written by [`put!`].
macro_rules! get {
    ($o:expr, $side:expr, $key:expr) => {
        field($o, $key, $side)?
    };
    ($o:expr, $side:expr, $key:expr, sparse) => {
        sparse_field($o, $key, $side)?
    };
}

/// Declares structs that travel as objects holding the listed fields
/// under their own names, in the listed order. `#[sparse]` fields follow
/// the absent-field rule.
macro_rules! wire_structs {
    ($($ty:ident { $($(#[$mark:ident])? $field:ident),* $(,)? })*) => {$(
        impl Body for $ty {
            fn put_body(&self, o: &mut Object, side: &mut Side) {
                $(put!(o, side, stringify!($field), &self.$field $(, $mark)?);)*
            }

            fn get_body(o: &Object, side: &mut Side) -> WireResult<Self> {
                Ok($ty {
                    $($field: get!(o, side, stringify!($field) $(, $mark)?),)*
                })
            }
        }

        impl Wire for $ty {
            fn to_wire(&self, side: &mut Side) -> Value {
                let mut o = Object::new();
                self.put_body(&mut o, side);
                Value::Object(o)
            }

            fn from_wire(v: &Value, side: &mut Side) -> WireResult<Self> {
                Self::get_body(object(v)?, side)
            }
        }
    )*};
}

/// Declares enums that travel as one of a fixed set of strings.
macro_rules! wire_enums {
    ($($ty:ident { $($var:ident = $wire:literal),* $(,)? })*) => {$(
        impl Wire for $ty {
            fn to_wire(&self, _: &mut Side) -> Value {
                Value::from(match self {
                    $($ty::$var => $wire,)*
                })
            }

            fn from_wire(v: &Value, _: &mut Side) -> WireResult<Self> {
                match v.as_str() {
                    $(Some($wire) => Ok($ty::$var),)*
                    _ => Err(proto(format!("unknown {} {v}", stringify!($ty)))),
                }
            }
        }
    )*};
}

impl Wire for String {
    fn to_wire(&self, _: &mut Side) -> Value {
        Value::from(self.as_str())
    }

    fn from_wire(v: &Value, _: &mut Side) -> WireResult<Self> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| expected("a string"))
    }
}

impl Wire for bool {
    fn to_wire(&self, _: &mut Side) -> Value {
        Value::from(*self)
    }

    fn from_wire(v: &Value, _: &mut Side) -> WireResult<Self> {
        v.as_bool().ok_or_else(|| expected("a boolean"))
    }
}

impl Wire for i64 {
    fn to_wire(&self, _: &mut Side) -> Value {
        Value::from(*self)
    }

    fn from_wire(v: &Value, _: &mut Side) -> WireResult<Self> {
        v.as_i64().ok_or_else(|| expected("an integer"))
    }
}

// Counters and sizes ride as sjson's i64.
impl Wire for u64 {
    fn to_wire(&self, _: &mut Side) -> Value {
        Value::from(*self as i64)
    }

    fn from_wire(v: &Value, _: &mut Side) -> WireResult<Self> {
        v.as_i64()
            .map(|n| n as u64)
            .ok_or_else(|| expected("an integer"))
    }
}

impl Wire for usize {
    fn to_wire(&self, _: &mut Side) -> Value {
        Value::from(*self as i64)
    }

    fn from_wire(v: &Value, _: &mut Side) -> WireResult<Self> {
        v.as_i64()
            .map(|n| n as usize)
            .ok_or_else(|| expected("an integer"))
    }
}

impl Wire for u32 {
    fn to_wire(&self, _: &mut Side) -> Value {
        Value::from(*self as i64)
    }

    fn from_wire(v: &Value, _: &mut Side) -> WireResult<Self> {
        v.as_i64()
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| expected("a non-negative integer"))
    }
}

impl Wire for ObjectId {
    fn to_wire(&self, _: &mut Side) -> Value {
        Value::from(self.to_hex())
    }

    fn from_wire(v: &Value, _: &mut Side) -> WireResult<Self> {
        v.as_str()
            .and_then(ObjectId::from_hex)
            .ok_or_else(|| expected("a 40-char hex id"))
    }
}

impl Wire for RepoPath {
    fn to_wire(&self, _: &mut Side) -> Value {
        Value::from(self.to_string())
    }

    fn from_wire(v: &Value, _: &mut Side) -> WireResult<Self> {
        let s = v.as_str().ok_or_else(|| expected("a path string"))?;
        RepoPath::parse(s).map_err(|e| proto(format!("bad path {s:?}: {e}")))
    }
}

/// Byte payloads (file contents, inline objects) travel as hex.
impl Wire for Vec<u8> {
    fn to_wire(&self, _: &mut Side) -> Value {
        Value::from(hex_encode(self))
    }

    fn from_wire(v: &Value, _: &mut Side) -> WireResult<Self> {
        v.as_str()
            .and_then(hex_decode)
            .ok_or_else(|| expected("hex bytes"))
    }
}

impl Wire for Citation {
    fn to_wire(&self, _: &mut Side) -> Value {
        self.to_value()
    }

    fn from_wire(v: &Value, _: &mut Side) -> WireResult<Self> {
        Citation::from_value(v).map_err(|e| proto(format!("bad citation: {e}")))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn to_wire(&self, side: &mut Side) -> Value {
        Value::Array(self.iter().map(|x| x.to_wire(side)).collect())
    }

    fn from_wire(v: &Value, side: &mut Side) -> WireResult<Self> {
        v.as_array()
            .ok_or_else(|| expected("an array"))?
            .iter()
            .map(|x| T::from_wire(x, side))
            .collect()
    }
}

/// `None` travels as `null`; a sparse field leaves it out instead.
impl<T: Wire> Wire for Option<T> {
    fn to_wire(&self, side: &mut Side) -> Value {
        match self {
            Some(x) => x.to_wire(side),
            None => Value::Null,
        }
    }

    fn from_wire(v: &Value, side: &mut Side) -> WireResult<Self> {
        match v {
            Value::Null => Ok(None),
            v => T::from_wire(v, side).map(Some),
        }
    }
}

/// Pairs travel as two-element arrays.
impl<A: Wire, B: Wire> Wire for (A, B) {
    fn to_wire(&self, side: &mut Side) -> Value {
        Value::Array(vec![self.0.to_wire(side), self.1.to_wire(side)])
    }

    fn from_wire(v: &Value, side: &mut Side) -> WireResult<Self> {
        match v.as_array() {
            Some([a, b]) => Ok((A::from_wire(a, side)?, B::from_wire(b, side)?)),
            _ => Err(expected("a two-element array")),
        }
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn to_wire(&self, side: &mut Side) -> Value {
        Value::Array(vec![
            self.0.to_wire(side),
            self.1.to_wire(side),
            self.2.to_wire(side),
        ])
    }

    fn from_wire(v: &Value, side: &mut Side) -> WireResult<Self> {
        match v.as_array() {
            Some([a, b, c]) => Ok((
                A::from_wire(a, side)?,
                B::from_wire(b, side)?,
                C::from_wire(c, side)?,
            )),
            _ => Err(expected("a three-element array")),
        }
    }
}

impl Wire for ErrorCode {
    fn to_wire(&self, _: &mut Side) -> Value {
        Value::from(self.as_str())
    }

    fn from_wire(v: &Value, _: &mut Side) -> WireResult<Self> {
        v.as_str()
            .and_then(ErrorCode::parse)
            .ok_or_else(|| proto(format!("unknown error code {v}")))
    }
}

// ---------------------------------------------------------------------
// Wire-level compound types
// ---------------------------------------------------------------------

/// A repository serialized for transfer: the payload of `clone_repo`
/// responses and `push` / `import_repo` requests. Object bytes are the
/// canonical content-addressed encoding, so the receiving side verifies
/// every object against its claimed id while loading (`put_raw`).
///
/// A bundle comes in two forms. A **full** bundle (`basis` empty) carries
/// the complete closure of its refs and can materialize a standalone
/// repository. A **delta** bundle carries only the objects past a
/// negotiated frontier: `basis` names commits the receiver must already
/// hold, and `objects` is everything reachable from the refs that is not
/// covered by the basis commits' closures. Delta bundles can only be
/// *applied* to a repository that has the basis ([`crate::Hub`]'s push
/// path); materializing one standalone fails with `ObjectNotFound`. On
/// the wire the `basis` key is absent for full bundles.
#[derive(Debug, Clone, PartialEq)]
pub struct RepoBundle {
    /// Repository name.
    pub name: String,
    /// Branch the receiver should check out, when known.
    pub head: Option<String>,
    /// `(branch, tip)` pairs.
    pub refs: Vec<(String, ObjectId)>,
    /// `(id, canonical bytes)` for every transferred object.
    pub objects: Vec<(ObjectId, Vec<u8>)>,
    /// Commits the receiver must already have (with their full closures)
    /// for `objects` to be complete. Empty = full bundle.
    pub basis: Vec<ObjectId>,
}

impl RepoBundle {
    /// Bundles every branch of `repo` (the `clone` / `import` payload).
    pub fn from_repository(repo: &Repository) -> gitlite::Result<RepoBundle> {
        let refs: Vec<(String, ObjectId)> = repo
            .branches()
            .map(|(b, tip)| (b.to_owned(), tip))
            .collect();
        let roots: Vec<ObjectId> = refs.iter().map(|(_, tip)| *tip).collect();
        Self::bundle(repo, refs, &roots, repo.current_branch().map(str::to_owned))
    }

    /// Bundles a single branch of `repo` (the `push` payload).
    pub fn from_branch(repo: &Repository, branch: &str) -> gitlite::Result<RepoBundle> {
        let tip = repo.branch_tip(branch)?;
        Self::bundle(
            repo,
            vec![(branch.to_owned(), tip)],
            &[tip],
            Some(branch.to_owned()),
        )
    }

    fn bundle(
        repo: &Repository,
        refs: Vec<(String, ObjectId)>,
        roots: &[ObjectId],
        head: Option<String>,
    ) -> gitlite::Result<RepoBundle> {
        let mut objects = Vec::new();
        for id in repo.odb().reachable_closure(roots)? {
            objects.push((id, repo.odb().get(id)?.canonical_bytes()));
        }
        Ok(RepoBundle {
            name: repo.name().to_owned(),
            head,
            refs,
            objects,
            basis: Vec::new(),
        })
    }

    /// True for the negotiated delta form: the bundle is only complete
    /// relative to its `basis` commits.
    pub fn is_delta(&self) -> bool {
        !self.basis.is_empty()
    }

    /// Bundles one branch of `repo` *incrementally*: only the objects
    /// past the `common` frontier (commit ids the receiver confirmed
    /// having, e.g. a `negotiate` reply). The walk from the tip stops at
    /// the first common commit on every path; those stop commits become
    /// the bundle's `basis`, and their tree closures are subtracted from
    /// the shipped objects (a commit on the receiver is there with its
    /// complete closure). With an empty `common` this degrades to a full
    /// bundle — same bytes as [`RepoBundle::from_branch`].
    pub fn delta_from_branch(
        repo: &Repository,
        branch: &str,
        common: &HashSet<ObjectId>,
    ) -> gitlite::Result<RepoBundle> {
        let tip = repo.branch_tip(branch)?;
        Self::delta(
            repo,
            vec![(branch.to_owned(), tip)],
            Some(branch.to_owned()),
            common,
        )
    }

    /// Bundles *every* branch of `repo` incrementally past the `common`
    /// frontier — the replication fetch payload ([`crate::repl`]): the
    /// walk starts from all branch tips at once, stop commits become the
    /// shared `basis`, and `head`/`refs` mirror the whole repository so
    /// the receiver can force its refs to match. With an empty `common`
    /// this degrades to a full bundle (same objects as
    /// [`RepoBundle::from_repository`]), which is also how a follower
    /// bootstraps a repository it has never seen.
    pub fn delta_from_refs(
        repo: &Repository,
        common: &HashSet<ObjectId>,
    ) -> gitlite::Result<RepoBundle> {
        let refs: Vec<(String, ObjectId)> = repo
            .branches()
            .map(|(b, tip)| (b.to_owned(), tip))
            .collect();
        Self::delta(repo, refs, repo.current_branch().map(str::to_owned), common)
    }

    /// The walk behind both delta forms: new commits from every ref tip
    /// down to the `common` frontier, then their trees minus what the
    /// frontier's closures already cover.
    fn delta(
        repo: &Repository,
        refs: Vec<(String, ObjectId)>,
        head: Option<String>,
        common: &HashSet<ObjectId>,
    ) -> gitlite::Result<RepoBundle> {
        let mut new_commits = Vec::new();
        let mut basis = Vec::new();
        let mut seen = HashSet::new();
        let mut stack: Vec<ObjectId> = refs.iter().map(|(_, tip)| *tip).collect();
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            if common.contains(&id) {
                basis.push(id);
                continue;
            }
            let obj = repo.odb().commit_ref(id)?;
            stack.extend_from_slice(&obj.as_commit().expect("checked kind").parents);
            new_commits.push(id);
        }
        // Objects the receiver provably has: the basis commits' tree
        // closures. `known` then doubles as the dedupe set for shipping.
        let mut known: HashSet<ObjectId> = HashSet::new();
        for &b in &basis {
            collect_tree_closure(repo, repo.tree_of(b)?, &mut known)?;
        }
        let mut objects = Vec::new();
        for &id in &new_commits {
            objects.push((id, repo.odb().get(id)?.canonical_bytes()));
            let mut stack = vec![repo.tree_of(id)?];
            while let Some(oid) = stack.pop() {
                if !known.insert(oid) {
                    continue;
                }
                let obj = repo.odb().get(oid)?;
                if let gitlite::Object::Tree(t) = &*obj {
                    for (_, e) in t.iter() {
                        stack.push(e.id);
                    }
                }
                objects.push((oid, obj.canonical_bytes()));
            }
        }
        Ok(RepoBundle {
            name: repo.name().to_owned(),
            head,
            refs,
            objects,
            basis,
        })
    }

    /// Materializes the bundle as a repository on `store`, verifying
    /// every object's bytes against its claimed id. Delta bundles cannot
    /// stand alone: their basis objects live only on the negotiating
    /// receiver, so this fails with `ObjectNotFound` instead of building
    /// a repository with holes in its history.
    pub fn into_repository(&self, store: Box<dyn ObjectStore>) -> gitlite::Result<Repository> {
        if let Some(&b) = self.basis.first() {
            return Err(gitlite::GitError::ObjectNotFound(b));
        }
        let mut repo = Repository::init_with(self.name.clone(), store);
        for (id, bytes) in &self.objects {
            repo.odb_mut().put_raw(*id, bytes)?;
        }
        for (branch, tip) in &self.refs {
            repo.set_branch(branch, *tip)?;
        }
        let head = self
            .head
            .clone()
            .filter(|b| repo.has_branch(b))
            .or_else(|| self.refs.first().map(|(b, _)| b.clone()));
        if let Some(b) = head {
            repo.checkout_branch(&b)?;
        }
        Ok(repo)
    }
}

/// Inline, `objects` is an array of `[id, hex bytes]` pairs; on the side
/// channel it becomes the `objects_ext` count of records travelling
/// beside the envelope.
impl Wire for RepoBundle {
    fn to_wire(&self, side: &mut Side) -> Value {
        let mut o = Object::new();
        put!(o, side, "name", &self.name);
        put!(o, side, "head", &self.head, sparse);
        put!(o, side, "refs", &self.refs);
        match side.0.as_mut() {
            Some(channel) => {
                o.insert("objects_ext", self.objects.len() as i64);
                channel.extend(self.objects.iter().cloned());
            }
            None => put!(o, side, "objects", &self.objects),
        }
        put!(o, side, "basis", &self.basis, sparse);
        Value::Object(o)
    }

    fn from_wire(v: &Value, side: &mut Side) -> WireResult<Self> {
        let o = object(v)?;
        let objects = match o.get("objects_ext") {
            None => get!(o, side, "objects"),
            Some(count) => {
                if o.contains_key("objects") {
                    return Err(proto("bundle cannot carry both objects and objects_ext"));
                }
                let n = count
                    .as_i64()
                    .and_then(|n| usize::try_from(n).ok())
                    .ok_or_else(|| proto("objects_ext must be a non-negative count"))?;
                let Some(channel) = side.0.as_mut() else {
                    return Err(proto("objects_ext bundle requires the binary side channel"));
                };
                if channel.len() < n {
                    return Err(proto(format!(
                        "objects_ext claims {n} objects, side channel carried {}",
                        channel.len()
                    )));
                }
                channel.drain(..n).collect()
            }
        };
        Ok(RepoBundle {
            name: get!(o, side, "name"),
            head: get!(o, side, "head", sparse),
            refs: get!(o, side, "refs"),
            objects,
            basis: get!(o, side, "basis", sparse),
        })
    }
}

/// Adds every tree and blob reachable from `root` (a tree id) to `out`.
fn collect_tree_closure(
    repo: &Repository,
    root: ObjectId,
    out: &mut HashSet<ObjectId>,
) -> gitlite::Result<()> {
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        if !out.insert(id) {
            continue;
        }
        let obj = repo.odb().get(id)?;
        if let gitlite::Object::Tree(t) = &*obj {
            for (_, e) in t.iter() {
                stack.push(e.id);
            }
        }
    }
    Ok(())
}

/// Server's answer to a `negotiate` request: the offered commit ids
/// partitioned by whether they are reachable from the repository's refs.
/// `common` commits (and their closures) need not be re-sent; `missing`
/// ones the server has never seen.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Negotiation {
    /// Offered ids the server already has reachable from its refs.
    pub common: Vec<ObjectId>,
    /// Offered ids the server lacks.
    pub missing: Vec<ObjectId>,
}

/// One page of a paginated read. `next` is an opaque cursor to pass back
/// for the following page; `None` means the listing is exhausted.
/// Cursors pin their position, so a page sequence stays stable while
/// writers append.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page<T> {
    /// The items of this page, at most the requested (clamped) limit.
    pub items: Vec<T>,
    /// Cursor for the next page, absent on the last one.
    pub next: Option<String>,
}

/// Listing items that travel in [`Page`]s, under their result's own key.
trait PageItem: Wire {
    const KEY: &'static str;
}

impl PageItem for LogEntry {
    const KEY: &'static str = "entries";
}

impl PageItem for AuditEvent {
    const KEY: &'static str = "events";
}

impl PageItem for String {
    const KEY: &'static str = "names";
}

impl<T: PageItem> Body for Page<T> {
    fn put_body(&self, o: &mut Object, side: &mut Side) {
        put!(o, side, T::KEY, &self.items);
        put!(o, side, "next", &self.next, sparse);
    }

    fn get_body(o: &Object, side: &mut Side) -> WireResult<Self> {
        Ok(Page {
            items: get!(o, side, T::KEY),
            next: get!(o, side, "next", sparse),
        })
    }
}

/// Collects a whole paginated listing by following `next` cursors from
/// the first page, asking for the largest pages the hub serves — the one
/// walker behind the typed `log`, `audit_log` and `list_repos` helpers
/// of [`crate::Hub`] and [`crate::HubClient`].
pub(crate) fn walk_pages<T, E>(
    mut page: impl FnMut(Option<&str>, Option<u32>) -> Result<Page<T>, E>,
) -> Result<Vec<T>, E> {
    let mut items = Vec::new();
    let mut cursor: Option<String> = None;
    loop {
        let p = page(cursor.as_deref(), Some(MAX_PAGE_SIZE as u32))?;
        items.extend(p.items);
        match p.next {
            Some(next) => cursor = Some(next),
            None => return Ok(items),
        }
    }
}

/// Version-level outcome of a server-side merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeOutcome {
    /// The other branch is already contained in ours.
    AlreadyUpToDate,
    /// Our branch simply advanced to the given commit.
    FastForwarded(ObjectId),
    /// A merge commit was created.
    Merged(ObjectId),
}

impl Wire for MergeOutcome {
    fn to_wire(&self, side: &mut Side) -> Value {
        let mut o = Object::new();
        let (kind, commit) = match self {
            MergeOutcome::AlreadyUpToDate => ("already_up_to_date", None),
            MergeOutcome::FastForwarded(id) => ("fast_forwarded", Some(id)),
            MergeOutcome::Merged(id) => ("merged", Some(id)),
        };
        o.insert("kind", kind);
        if let Some(id) = commit {
            put!(o, side, "commit", id);
        }
        Value::Object(o)
    }

    fn from_wire(v: &Value, side: &mut Side) -> WireResult<Self> {
        let o = object(v)?;
        Ok(match o.get("kind").and_then(Value::as_str) {
            Some("already_up_to_date") => MergeOutcome::AlreadyUpToDate,
            Some("fast_forwarded") => MergeOutcome::FastForwarded(get!(o, side, "commit")),
            Some("merged") => MergeOutcome::Merged(get!(o, side, "commit")),
            _ => return Err(proto(format!("unknown merge outcome {v}"))),
        })
    }
}

impl Wire for Resolution {
    fn to_wire(&self, side: &mut Side) -> Value {
        let mut o = Object::new();
        let kind = match self {
            Resolution::Ours => "ours",
            Resolution::Theirs => "theirs",
            Resolution::Drop => "drop",
            Resolution::Unresolved => "unresolved",
            Resolution::Custom(_) => "custom",
        };
        o.insert("kind", kind);
        if let Resolution::Custom(c) = self {
            put!(o, side, "citation", c);
        }
        Value::Object(o)
    }

    fn from_wire(v: &Value, side: &mut Side) -> WireResult<Self> {
        let o = object(v)?;
        Ok(match o.get("kind").and_then(Value::as_str) {
            Some("ours") => Resolution::Ours,
            Some("theirs") => Resolution::Theirs,
            Some("drop") => Resolution::Drop,
            Some("unresolved") => Resolution::Unresolved,
            Some("custom") => Resolution::Custom(get!(o, side, "citation")),
            _ => return Err(proto(format!("unknown resolution {v}"))),
        })
    }
}

/// Wire form of a server-side `MergeCite` report: the outcome plus how
/// each citation-key conflict was settled and which entries were dropped
/// because the Git merge deleted their paths.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeSummary {
    /// What happened at the version level.
    pub outcome: MergeOutcome,
    /// `(path, resolution taken)` per conflicted citation key.
    pub citation_conflicts: Vec<(RepoPath, Resolution)>,
    /// Citation entries dropped because their paths were deleted.
    pub dropped: Vec<RepoPath>,
}

/// Object-store statistics for one hosted repository — the wire surface
/// of [`gitlite::CacheStats`] plus the store's object count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreStats {
    /// Repository the stats describe.
    pub repo_id: String,
    /// Objects in the backing store.
    pub objects: u64,
    /// Cache counters, when the backend stack contains a read cache.
    pub cache: Option<CacheStats>,
    /// Commits indexed by the store's commit-graph, when the backend
    /// maintains one (pack-backed repositories after their first
    /// maintenance run). `None` on graph-less backends, where the wire
    /// key is absent too.
    pub graph_commits: Option<u64>,
    /// Pack records stored as deltas rather than full bytes. `None`
    /// (key absent) on backends without delta packs.
    pub delta_objects: Option<u64>,
    /// Commits whose graph record carries a changed-path Bloom filter.
    /// `None` (key absent) on graph-less backends.
    pub bloom_commits: Option<u64>,
}

/// What hub-side maintenance did to one hosted repository. A failed gc
/// is reported per-repository (`error`), never aborting the sweep —
/// one sick repository must not stop the rest from compacting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepoMaintenance {
    /// Repository the pass visited.
    pub repo_id: String,
    /// Whether the repository's backend supports maintenance at all
    /// (in-memory stores do not).
    pub supported: bool,
    /// Objects written into the fresh pack.
    pub packed: u64,
    /// Unreachable objects discarded.
    pub dropped: u64,
    /// Why this repository's gc failed, when it did.
    pub error: Option<String>,
}

// ---------------------------------------------------------------------
// Server metrics
// ---------------------------------------------------------------------

/// A latency distribution on the wire: the sparse form of a
/// [`telemetry::HistogramSnapshot`] — only non-empty log2 buckets
/// travel, as `[bucket, count]` pairs, alongside the exact count, sum
/// and maximum. The `buckets` key is absent when the histogram is empty,
/// so an idle method costs four short fields.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WireHistogram {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples, microseconds.
    pub sum_us: u64,
    /// Largest sample, microseconds (exact, not a bucket bound).
    pub max_us: u64,
    /// Non-empty `(bucket, count)` pairs, ascending by bucket.
    pub buckets: Vec<(u32, u64)>,
}

impl WireHistogram {
    /// The wire form of a snapshot.
    pub fn from_snapshot(s: &telemetry::HistogramSnapshot) -> WireHistogram {
        WireHistogram {
            count: s.count,
            sum_us: s.sum,
            max_us: s.max,
            buckets: s.sparse(),
        }
    }

    /// Rebuilds the dense snapshot, from which quantiles derive.
    pub fn to_snapshot(&self) -> telemetry::HistogramSnapshot {
        telemetry::HistogramSnapshot::from_sparse(
            &self.buckets,
            self.count,
            self.sum_us,
            self.max_us,
        )
    }
}

/// Per-method dispatch statistics: call count, latency distribution and
/// error tallies. The `errors` key is absent when the method has never
/// failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodMetrics {
    /// Wire method name (`"log_page"`, `"push"`, ...).
    pub method: String,
    /// Total dispatches, successes and failures alike.
    pub calls: u64,
    /// `(error code, occurrences)` pairs, ascending by code.
    pub errors: Vec<(String, u64)>,
    /// Dispatch latency in microseconds. The server times a sample of
    /// calls (always including a method's first), so `latency.count` is
    /// the number of *timed* calls and may trail `calls`.
    pub latency: WireHistogram,
}

/// Socket-layer gauges and counters, exported by the reactor. Absent
/// from a [`MetricsSnapshot`] (field and wire key both) when the hub is
/// embedded in-process and no transport ever attached.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TransportMetrics {
    /// Connections currently open.
    pub open_connections: i64,
    /// Requests parked in the worker queue right now.
    pub queue_depth: i64,
    /// Workers executing a request right now.
    pub busy_workers: i64,
    /// Always 0: the hub no longer serves line framing. The key stays on
    /// the wire so existing readers of the snapshot keep parsing it.
    pub bytes_in_line: u64,
    /// Always 0, like `bytes_in_line`.
    pub bytes_out_line: u64,
    /// Request bytes received over the length-prefixed framing.
    pub bytes_in_binary: u64,
    /// Response bytes sent over the length-prefixed framing.
    pub bytes_out_binary: u64,
    /// Frames refused by the size/count caps before execution.
    pub frames_rejected: u64,
    /// Connections torn down abruptly — server shutdown under live
    /// peers, stall timeouts, write failures, or a peer hanging up with
    /// a request still in flight: the server-side tally of the
    /// `transport_closed` errors clients observe.
    pub transport_closed: u64,
    /// Uncompressed bytes of `objects_ext` payloads moved.
    pub obj_raw_bytes: u64,
    /// Their on-wire deflated size (ratio = deflate / raw).
    pub obj_deflate_bytes: u64,
}

/// Storage-layer counters aggregated across every hosted repository:
/// read-cache totals plus the process-wide pack/loose and
/// graph/fallback tallies from [`gitlite::metrics`]. The delta and Bloom
/// counters follow the absent-field rule: their keys appear once they
/// have fired.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StoreMetrics {
    /// Hosted repositories.
    pub repos: u64,
    /// Read-cache hits summed over all hosted stores.
    pub cache_hits: u64,
    /// Read-cache misses summed over all hosted stores.
    pub cache_misses: u64,
    /// Object reads served from packs.
    pub pack_reads: u64,
    /// Object reads served loose.
    pub loose_reads: u64,
    /// History walks answered by the commit-graph.
    pub graph_walks: u64,
    /// History walks that fell back to decoding commits.
    pub fallback_walks: u64,
    /// Delta links applied while resolving packed objects.
    pub delta_resolutions: u64,
    /// Bloom-filter "maybe changed" answers that were real changes.
    pub bloom_hits: u64,
    /// Bloom-filter definitive "unchanged" answers (diffs skipped).
    pub bloom_skips: u64,
    /// Bloom "maybe" answers the exact check refuted.
    pub bloom_false_positives: u64,
}

impl StoreMetrics {
    /// Cache hits over lookups, `None` before the first lookup.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        (total > 0).then(|| self.cache_hits as f64 / total as f64)
    }
}

/// Abuse-resistance counters: how often the hub said *no* for reasons
/// other than the request being wrong. Every field follows the
/// absent-field rule, and the whole section is absent from a
/// [`MetricsSnapshot`] until any fires.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LimitsMetrics {
    /// Failed authentications: bad/expired/revoked tokens, wrong or
    /// missing login secrets, logins refused by an active lockout.
    pub auth_failures: u64,
    /// Requests refused by a per-user or per-repo token bucket.
    pub rate_rejections: u64,
    /// Pushes/imports refused by a bundle or repository size quota.
    pub quota_rejections: u64,
    /// Connections answered with `server_busy` and closed at accept
    /// time (overload or per-IP cap).
    pub conns_shed: u64,
}

impl LimitsMetrics {
    /// True when nothing has ever been refused — the section stays off
    /// the wire.
    pub fn is_empty(&self) -> bool {
        *self == LimitsMetrics::default()
    }
}

/// Replication health of a follower hub (see [`crate::repl`]): who the
/// primary is, how far behind the follower sits, and how rocky the link
/// has been. The whole section is absent from a [`MetricsSnapshot`]
/// (field and wire key both) on a hub that is not following anyone.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReplMetrics {
    /// Wire address of the primary being followed.
    pub primary: String,
    /// Seconds since the last successful sync round (`-1` before the
    /// first one) — `gitcite_repl_lag_seconds`.
    pub lag_seconds: i64,
    /// Primary logical epoch observed by the last successful round.
    pub epoch: i64,
    /// Repositories whose frontier differed from the primary's at the
    /// start of the last round — `gitcite_repl_repos_behind`.
    pub repos_behind: u64,
    /// Per-repo cursor deltas behind that count: `(repo id, refs that
    /// were added/moved/deleted upstream)`.
    pub behind: Vec<(String, u64)>,
    /// Completed sync rounds.
    pub rounds: u64,
    /// Failed rounds followed by a backed-off reconnect.
    pub reconnects: u64,
}

/// One repository's replication frontier in a [`ReplStatus`] reply: its
/// head and every `(branch, tip)` pair. A follower compares this against
/// its local copy to decide whether a fetch is needed — the per-repo
/// half of the replication cursor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplRepoStatus {
    /// Repository id (`owner/name`).
    pub repo_id: String,
    /// Currently checked-out branch, when any.
    pub head: Option<String>,
    /// `(branch, tip)` pairs in the server's canonical order.
    pub refs: Vec<(String, ObjectId)>,
}

/// The primary's answer to `repl_status` (see [`crate::repl`]): its
/// logical epoch, the audit log length (the follower's audit cursor
/// target), every repository's frontier, and the full deposit registry
/// (small records, replicated wholesale so followers resolve DOIs
/// faithfully).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReplStatus {
    /// The primary's logical clock reading.
    pub epoch: i64,
    /// Number of audit events the primary holds (next sequence number).
    pub audit_seq: u64,
    /// Frontier of every hosted repository.
    pub repos: Vec<ReplRepoStatus>,
    /// The complete deposit registry.
    pub deposits: Vec<Deposit>,
}

/// The fleet's placement map as served over the wire (`placement`): the
/// participating hub addresses, plus — when the request named a
/// repository — the hub that homes it per rendezvous hashing
/// ([`crate::placement`]). An unconfigured follower answers with an
/// empty hub list and its primary's address, so clients can always
/// discover where writes go.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PlacementInfo {
    /// The fleet's hub addresses (empty when placement is unconfigured).
    pub hubs: Vec<String>,
    /// The home hub for the queried repository, when one was named and
    /// a home is known.
    pub primary: Option<String>,
}

/// The full answer to [`ApiRequest::ServerMetrics`]: one point-in-time
/// view of the hub's health, from the dispatch layer down to storage.
/// Optional sections omit their wire key entirely when absent, per the
/// absent-field rule.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Per-method dispatch stats, ascending by method name. Only
    /// methods dispatched at least once appear.
    pub methods: Vec<MethodMetrics>,
    /// Socket-layer stats; `None` when no transport is attached.
    pub transport: Option<TransportMetrics>,
    /// Storage-layer stats; `None` when metrics are disabled.
    pub store: Option<StoreMetrics>,
    /// Abuse-resistance tallies; `None` until the hub refuses anything.
    pub limits: Option<LimitsMetrics>,
    /// Replication health; `None` unless this hub is a follower.
    pub repl: Option<ReplMetrics>,
}

impl MetricsSnapshot {
    /// The Prometheus text exposition of the snapshot (`gitcite_`-
    /// prefixed families; latency quantiles derived from the buckets).
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if !self.methods.is_empty() {
            out.push_str("# TYPE gitcite_method_calls_total counter\n");
            for m in &self.methods {
                let _ = writeln!(
                    out,
                    "gitcite_method_calls_total{{method=\"{}\"}} {}",
                    m.method, m.calls
                );
            }
            out.push_str("# TYPE gitcite_method_errors_total counter\n");
            for m in &self.methods {
                for (code, n) in &m.errors {
                    let _ = writeln!(
                        out,
                        "gitcite_method_errors_total{{method=\"{}\",code=\"{code}\"}} {n}",
                        m.method
                    );
                }
            }
            out.push_str("# TYPE gitcite_method_latency_us summary\n");
            for m in &self.methods {
                let snap = m.latency.to_snapshot();
                for (q, v) in [(0.5, snap.p50()), (0.9, snap.p90()), (0.99, snap.p99())] {
                    let _ = writeln!(
                        out,
                        "gitcite_method_latency_us{{method=\"{}\",quantile=\"{q}\"}} {v}",
                        m.method
                    );
                }
                let _ = writeln!(
                    out,
                    "gitcite_method_latency_us_sum{{method=\"{}\"}} {}",
                    m.method, snap.sum
                );
                let _ = writeln!(
                    out,
                    "gitcite_method_latency_us_count{{method=\"{}\"}} {}",
                    m.method, snap.count
                );
            }
        }
        if let Some(t) = &self.transport {
            for (name, v) in [
                ("open_connections", t.open_connections),
                ("queue_depth", t.queue_depth),
                ("busy_workers", t.busy_workers),
            ] {
                let _ = writeln!(out, "# TYPE gitcite_{name} gauge\ngitcite_{name} {v}");
            }
            for (name, v) in [
                ("bytes_in_line", t.bytes_in_line),
                ("bytes_out_line", t.bytes_out_line),
                ("bytes_in_binary", t.bytes_in_binary),
                ("bytes_out_binary", t.bytes_out_binary),
                ("frames_rejected", t.frames_rejected),
                ("transport_closed", t.transport_closed),
                ("obj_raw_bytes", t.obj_raw_bytes),
                ("obj_deflate_bytes", t.obj_deflate_bytes),
            ] {
                let _ = writeln!(
                    out,
                    "# TYPE gitcite_{name}_total counter\ngitcite_{name}_total {v}"
                );
            }
        }
        if let Some(s) = &self.store {
            let _ = writeln!(out, "# TYPE gitcite_repos gauge\ngitcite_repos {}", s.repos);
            for (name, v) in [
                ("store_cache_hits", s.cache_hits),
                ("store_cache_misses", s.cache_misses),
                ("store_pack_reads", s.pack_reads),
                ("store_loose_reads", s.loose_reads),
                ("store_graph_walks", s.graph_walks),
                ("store_fallback_walks", s.fallback_walks),
                ("store_delta_resolutions", s.delta_resolutions),
                ("store_bloom_hits", s.bloom_hits),
                ("store_bloom_skips", s.bloom_skips),
                ("store_bloom_false_positives", s.bloom_false_positives),
            ] {
                let _ = writeln!(
                    out,
                    "# TYPE gitcite_{name}_total counter\ngitcite_{name}_total {v}"
                );
            }
        }
        if let Some(l) = &self.limits {
            for (name, v) in [
                ("auth_failures", l.auth_failures),
                ("rate_rejections", l.rate_rejections),
                ("quota_rejections", l.quota_rejections),
                ("conns_shed", l.conns_shed),
            ] {
                let _ = writeln!(
                    out,
                    "# TYPE gitcite_{name}_total counter\ngitcite_{name}_total {v}"
                );
            }
        }
        if let Some(r) = &self.repl {
            for (name, v) in [
                ("repl_lag_seconds", r.lag_seconds),
                ("repl_epoch", r.epoch),
                ("repl_repos_behind", r.repos_behind as i64),
            ] {
                let _ = writeln!(out, "# TYPE gitcite_{name} gauge\ngitcite_{name} {v}");
            }
            for (name, v) in [("repl_rounds", r.rounds), ("repl_reconnects", r.reconnects)] {
                let _ = writeln!(
                    out,
                    "# TYPE gitcite_{name}_total counter\ngitcite_{name}_total {v}"
                );
            }
        }
        out
    }
}

wire_structs! {
    WireError { code, message, #[sparse] detail }
    User { username, display_name, email }
    LogEntry { id, author, timestamp, message }
    AuditEvent { seq, timestamp, actor, action, target, ok }
    Deposit { doi, repo_id, version, tree, title, creators, deposited_at }
    ArchiveReport { origin, heads, new_objects }
    Negotiation { common, missing }
    MergeSummary { outcome, citation_conflicts, dropped }
    CacheStats { hits, misses, evictions, len, capacity }
    StoreStats {
        repo_id,
        objects,
        #[sparse] cache,
        #[sparse] graph_commits,
        #[sparse] delta_objects,
        #[sparse] bloom_commits,
    }
    RepoMaintenance { repo_id, supported, packed, dropped, #[sparse] error }
    WireHistogram { count, sum_us, max_us, #[sparse] buckets }
    MethodMetrics { method, calls, #[sparse] errors, latency }
    TransportMetrics {
        open_connections,
        queue_depth,
        busy_workers,
        bytes_in_line,
        bytes_out_line,
        bytes_in_binary,
        bytes_out_binary,
        frames_rejected,
        transport_closed,
        obj_raw_bytes,
        obj_deflate_bytes,
    }
    StoreMetrics {
        repos,
        cache_hits,
        cache_misses,
        pack_reads,
        loose_reads,
        graph_walks,
        fallback_walks,
        #[sparse] delta_resolutions,
        #[sparse] bloom_hits,
        #[sparse] bloom_skips,
        #[sparse] bloom_false_positives,
    }
    LimitsMetrics {
        #[sparse] auth_failures,
        #[sparse] rate_rejections,
        #[sparse] quota_rejections,
        #[sparse] conns_shed,
    }
    ReplMetrics {
        primary,
        lag_seconds,
        epoch,
        repos_behind,
        #[sparse] behind,
        rounds,
        reconnects,
    }
    ReplRepoStatus { repo_id, #[sparse] head, refs }
    ReplStatus { epoch, audit_seq, repos, deposits }
    PlacementInfo { hubs, #[sparse] primary }
    MetricsSnapshot {
        methods,
        #[sparse] transport,
        #[sparse] store,
        #[sparse] limits,
        #[sparse] repl,
    }
}

wire_enums! {
    Role { Reader = "reader", Member = "member", Owner = "owner" }
    MergeStrategy { Union = "union", Ours = "ours", Theirs = "theirs", ThreeWay = "three-way" }
    SwhKind { Content = "cnt", Directory = "dir", Revision = "rev" }
}

// ---------------------------------------------------------------------
// Requests: the method table
// ---------------------------------------------------------------------

/// How a follower hub (see [`crate::repl`]) treats a method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FollowerClass<'a> {
    /// Writes, and reads whose truth lives only on the primary (roles
    /// are not replicated; archive state is per-hub): always redirected
    /// to the primary with `not_primary`.
    Write,
    /// Replicated reads: served locally while the last successful sync
    /// is inside the staleness bound, redirected past it.
    Read,
    /// Session plumbing, operator seams and the replication endpoints:
    /// always served locally, so a follower stays observable (and
    /// clonable by a further replica) even when it has fallen behind.
    Local,
    /// `login`: accounts are not replicated, so it redirects — except
    /// for the named user when provisioned directly on this hub (the
    /// operator bootstrap), who must be able to log in locally.
    KnownUser(&'a str),
}

/// What the socket transport does with a method before dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketPolicy {
    /// Served to anyone who can reach the port (tokens still scoped).
    Open,
    /// Operator/test seams that carry no token in-process: on a network
    /// port "anonymous" means anyone, so the socket refuses them.
    Refused,
    /// Served only to a connection-minted token of an operator.
    Operator,
}

/// What a successful request does to the set of tokens its connection
/// minted (see [`crate::transport`] on token scoping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Session {
    /// Leaves it alone.
    Keep,
    /// Adds the token the reply carries.
    Mint,
    /// Removes the request's token.
    Retire,
    /// Removes the request's token and adds the reply's.
    Swap,
}

/// `Some` of the named `String` or `Option<String>` param.
trait AsKey {
    fn as_key(&self) -> Option<&str>;
}

impl AsKey for String {
    fn as_key(&self) -> Option<&str> {
        Some(self)
    }
}

impl AsKey for Option<String> {
    fn as_key(&self) -> Option<&str> {
        self.as_deref()
    }
}

macro_rules! key_of {
    () => {
        None
    };
    ($param:ident) => {
        AsKey::as_key($param)
    };
}

/// Declares the method table. Each row is one method: its variant, wire
/// name and params (`#[sparse]` ones follow the absent-field rule), then
/// `auth(param)` — the auth token it carries, `session(..)` — what it
/// does to the connection's minted tokens, `idempotent(..)` — whether
/// the client may resend it after an ambiguous failure, `follower(..)` —
/// its [`FollowerClass`], `limit(param)` — the repository the per-repo
/// rate limiter charges, and `socket(..)` — its [`SocketPolicy`].
macro_rules! methods {
    ($(
        $(#[$attr:meta])*
        $var:ident = $name:literal $({ $($(#[$mark:ident])? $param:ident: $ty:ty),* $(,)? })?
        => auth($($auth:ident)?) session($session:ident) idempotent($idem:literal)
        follower($follower:ident $(($user:ident))?) limit($($limit:ident)?) socket($socket:ident);
    )*) => {
        /// Every operation the platform exposes, as a typed request.
        ///
        /// Tokens travel as their raw string form (the credential itself);
        /// repositories travel as [`RepoBundle`]s.
        #[derive(Debug, Clone, PartialEq)]
        #[allow(missing_docs)] // field meanings match the typed `Hub` methods
        pub enum ApiRequest {
            $($(#[$attr])* $var $({ $($param: $ty),* })?,)*
        }

        /// Every wire method name, indexed by [`ApiRequest::method_index`].
        /// The hub keys its per-method dispatch stats by this index so the
        /// hot path is one array access, not a map lookup.
        pub const METHOD_NAMES: &[&str] = &[$($name),*];

        /// Table order: a method's position in [`METHOD_NAMES`].
        enum MethodSlot {
            $($var),*
        }

        // Each classifier binds every param of a row and reads at most one.
        #[allow(unused_variables)]
        impl ApiRequest {
            /// This request's position in [`METHOD_NAMES`].
            pub fn method_index(&self) -> usize {
                match self {
                    $(ApiRequest::$var { .. } => MethodSlot::$var as usize,)*
                }
            }

            /// The auth token this request carries, if the method is
            /// authenticated. Transports use this for per-connection token
            /// scoping without knowing anything about individual methods.
            pub fn token(&self) -> Option<&str> {
                match self {
                    $(ApiRequest::$var $({ $($param),* })? => key_of!($($auth)?),)*
                }
            }

            /// What this request does to its connection's minted tokens.
            pub fn session(&self) -> Session {
                match self {
                    $(ApiRequest::$var { .. } => Session::$session,)*
                }
            }

            /// True when re-sending this request after an ambiguous failure
            /// (the connection died before a response arrived) cannot change
            /// server state beyond what the first attempt did. The client's
            /// automatic retry loop only ever fires for these; everything
            /// that mints, mutates or commits is resubmitted deliberately by
            /// the caller.
            pub fn is_idempotent(&self) -> bool {
                match self {
                    $(ApiRequest::$var { .. } => $idem,)*
                }
            }

            /// How a follower hub treats this request.
            pub fn follower_class(&self) -> FollowerClass<'_> {
                match self {
                    $(ApiRequest::$var $({ $($param),* })? => FollowerClass::$follower $(($user))?,)*
                }
            }

            /// The repository this request operates on, when it names one —
            /// the key the hub's per-repo rate limiter charges.
            pub fn target_repo(&self) -> Option<&str> {
                match self {
                    $(ApiRequest::$var $({ $($param),* })? => key_of!($($limit)?),)*
                }
            }

            /// What the socket transport does with this request.
            pub fn socket_policy(&self) -> SocketPolicy {
                match self {
                    $(ApiRequest::$var { .. } => SocketPolicy::$socket,)*
                }
            }

            fn put_params(&self, p: &mut Object, side: &mut Side) {
                match self {
                    $(ApiRequest::$var $({ $($param),* })? => {
                        $($(put!(p, side, stringify!($param), $param $(, $mark)?);)*)?
                    })*
                }
            }

            fn from_params(method: &str, p: &Object, side: &mut Side) -> WireResult<ApiRequest> {
                Ok(match method {
                    $($name => ApiRequest::$var $({
                        $($param: get!(p, side, stringify!($param) $(, $mark)?),)*
                    })?,)*
                    other => return Err(proto(format!("unknown method {other:?}"))),
                })
            }
        }
    };
}

methods! {
    // ----- auth -----
    /// `secret` enrolls a credential: the hub stores a salted hash and
    /// every future login must present the secret. Absent = open
    /// registration (the paper simulator's model).
    RegisterUser = "register_user" {
        username: String,
        display_name: String,
        #[sparse] secret: Option<String>,
    } => auth() session(Keep) idempotent(false) follower(Write) limit() socket(Open);
    /// `secret` is required for users registered with one, verified
    /// constant-time against the stored salted hash.
    Login = "login" { username: String, #[sparse] secret: Option<String> }
    => auth() session(Mint) idempotent(false) follower(KnownUser(username)) limit() socket(Open);
    /// Exchange a known (possibly expired) token for a fresh one with a
    /// new lifetime, revoking the old. The one call an expired token is
    /// still good for.
    Refresh = "refresh" { token: String }
    => auth(token) session(Swap) idempotent(false) follower(Local) limit() socket(Open);
    Revoke = "revoke" { token: String }
    => auth(token) session(Retire) idempotent(false) follower(Local) limit() socket(Open);
    Whoami = "whoami" { token: String }
    => auth(token) session(Keep) idempotent(true) follower(Local) limit() socket(Open);

    // ----- repositories -----
    // `create_repo` and `import_repo` name a repository that does not
    // exist yet, so they charge only the per-user bucket; `fork` charges
    // its source.
    CreateRepo = "create_repo" { token: String, name: String }
    => auth(token) session(Keep) idempotent(false) follower(Write) limit() socket(Open);
    ImportRepo = "import_repo" { token: String, name: String, bundle: RepoBundle }
    => auth(token) session(Keep) idempotent(false) follower(Write) limit() socket(Open);
    AddMember = "add_member" { token: String, repo_id: String, username: String, role: Role }
    => auth(token) session(Keep) idempotent(false) follower(Write) limit(repo_id) socket(Open);
    RoleOf = "role_of" { repo_id: String, username: String }
    => auth() session(Keep) idempotent(true) follower(Write) limit(repo_id) socket(Open);
    CanWrite = "can_write" { token: String, repo_id: String }
    => auth(token) session(Keep) idempotent(true) follower(Write) limit(repo_id) socket(Open);
    /// One page of the repository listing (cursor = last id seen).
    ListReposPage = "list_repos_page" { #[sparse] cursor: Option<String>, #[sparse] limit: Option<u32> }
    => auth() session(Keep) idempotent(true) follower(Read) limit() socket(Open);

    // ----- public reads -----
    Branches = "branches" { repo_id: String }
    => auth() session(Keep) idempotent(true) follower(Read) limit(repo_id) socket(Open);
    ListFiles = "list_files" { repo_id: String, branch: String }
    => auth() session(Keep) idempotent(true) follower(Read) limit(repo_id) socket(Open);
    ReadFile = "read_file" { repo_id: String, branch: String, path: RepoPath }
    => auth() session(Keep) idempotent(true) follower(Read) limit(repo_id) socket(Open);
    /// One page of a branch's log. `cursor` is opaque (obtained from a
    /// previous page); `limit` is clamped to [`MAX_PAGE_SIZE`].
    LogPage = "log_page" {
        repo_id: String,
        branch: String,
        #[sparse] cursor: Option<String>,
        #[sparse] limit: Option<u32>,
    } => auth() session(Keep) idempotent(true) follower(Read) limit(repo_id) socket(Open);
    CloneRepo = "clone_repo" { repo_id: String }
    => auth() session(Keep) idempotent(true) follower(Read) limit(repo_id) socket(Open);
    /// Have/want exchange ahead of an incremental push — ref tips plus a
    /// sample of recent commit ids the client holds.
    Negotiate = "negotiate" { repo_id: String, haves: Vec<ObjectId> }
    => auth() session(Keep) idempotent(true) follower(Read) limit(repo_id) socket(Open);

    // ----- citations -----
    GenerateCitation = "generate_citation" { repo_id: String, branch: String, path: RepoPath }
    => auth() session(Keep) idempotent(true) follower(Read) limit(repo_id) socket(Open);
    CitationEntry = "citation_entry" { repo_id: String, branch: String, path: RepoPath }
    => auth() session(Keep) idempotent(true) follower(Read) limit(repo_id) socket(Open);
    AddCite = "add_cite" {
        token: String,
        repo_id: String,
        branch: String,
        path: RepoPath,
        citation: Citation,
    } => auth(token) session(Keep) idempotent(false) follower(Write) limit(repo_id) socket(Open);
    ModifyCite = "modify_cite" {
        token: String,
        repo_id: String,
        branch: String,
        path: RepoPath,
        citation: Citation,
    } => auth(token) session(Keep) idempotent(false) follower(Write) limit(repo_id) socket(Open);
    DelCite = "del_cite" { token: String, repo_id: String, branch: String, path: RepoPath }
    => auth(token) session(Keep) idempotent(false) follower(Write) limit(repo_id) socket(Open);

    // ----- sync -----
    Push = "push" {
        token: String,
        repo_id: String,
        branch: String,
        force: bool,
        bundle: RepoBundle,
    } => auth(token) session(Keep) idempotent(false) follower(Write) limit(repo_id) socket(Open);
    Fork = "fork" { token: String, src_repo_id: String, new_name: String }
    => auth(token) session(Keep) idempotent(false) follower(Write) limit(src_repo_id) socket(Open);
    MergeBranches = "merge_branches" {
        token: String,
        repo_id: String,
        branch: String,
        other_branch: String,
        strategy: MergeStrategy,
    } => auth(token) session(Keep) idempotent(false) follower(Write) limit(repo_id) socket(Open);

    // ----- archives -----
    Deposit = "deposit" { token: String, repo_id: String, branch: String, title: String }
    => auth(token) session(Keep) idempotent(false) follower(Write) limit(repo_id) socket(Open);
    ResolveDoi = "resolve_doi" { doi: String }
    => auth() session(Keep) idempotent(true) follower(Read) limit() socket(Open);
    /// Not idempotent: each run bumps the repository's visit count.
    Archive = "archive" { repo_id: String }
    => auth() session(Keep) idempotent(false) follower(Write) limit(repo_id) socket(Open);
    ResolveSwhid = "resolve_swhid" { swhid: String }
    => auth() session(Keep) idempotent(true) follower(Write) limit() socket(Open);
    ArchiveVisits = "archive_visits" { repo_id: String }
    => auth() session(Keep) idempotent(true) follower(Write) limit(repo_id) socket(Open);

    // ----- credit -----
    CreditedAuthors = "credited_authors" { repo_id: String, branch: String }
    => auth() session(Keep) idempotent(true) follower(Read) limit(repo_id) socket(Open);
    FindReposCiting = "find_repos_citing" { author: String }
    => auth() session(Keep) idempotent(true) follower(Read) limit() socket(Open);

    // ----- operations -----
    /// One page of the audit log (cursor = next sequence number).
    AuditLogPage = "audit_log_page" { #[sparse] cursor: Option<String>, #[sparse] limit: Option<u32> }
    => auth() session(Keep) idempotent(true) follower(Read) limit() socket(Open);
    StoreStats = "store_stats" { repo_id: String }
    => auth() session(Keep) idempotent(true) follower(Local) limit(repo_id) socket(Open);
    Maintenance = "maintenance"
    => auth() session(Keep) idempotent(false) follower(Local) limit() socket(Refused);
    /// One point-in-time health snapshot of the whole hub
    /// ([`MetricsSnapshot`]). Operator-scoped on sockets: the token must
    /// belong to an operator there; trusted in-process embedders may
    /// omit it.
    ServerMetrics = "server_metrics" { #[sparse] token: Option<String> }
    => auth(token) session(Keep) idempotent(true) follower(Local) limit() socket(Operator);
    AdvanceClock = "advance_clock" { ts: i64 }
    => auth() session(Keep) idempotent(false) follower(Local) limit() socket(Refused);
    /// Several requests in one envelope, executed in order on the server,
    /// answered by [`ApiResponse::Batch`] in the same order (one round
    /// trip for flows like the popup's sign-in). Batches cannot nest, and
    /// batch items always carry their objects inline. The envelope itself
    /// is neither charged nor guarded: each item is, individually. Not
    /// idempotent, since any item could be a write.
    Batch = "batch" { requests: Vec<ApiRequest> }
    => auth() session(Keep) idempotent(false) follower(Local) limit() socket(Open);

    // ----- replication (see `crate::repl`) -----
    /// The primary's replication frontier — epoch, audit length, every
    /// repository's refs, the deposit registry ([`ApiResponse::ReplStatus`]).
    /// Public read: it reveals nothing a crawl of the public read surface
    /// would not.
    ReplStatus = "repl_status"
    => auth() session(Keep) idempotent(true) follower(Local) limit() socket(Open);
    /// Fetch one repository incrementally for replication. `haves` are
    /// the follower's local branch tips; the reply is a delta
    /// [`ApiResponse::Bundle`] past the negotiated frontier (full when
    /// nothing is shared).
    ReplFetch = "repl_fetch" { repo_id: String, haves: Vec<ObjectId> }
    => auth() session(Keep) idempotent(true) follower(Local) limit(repo_id) socket(Open);
    /// The fleet's placement map ([`ApiResponse::Placement`]); `repo_id`
    /// additionally asks which hub homes that repository.
    Placement = "placement" { #[sparse] repo_id: Option<String> }
    => auth() session(Keep) idempotent(true) follower(Local) limit() socket(Open);
}

/// A batch item: an envelope of its own, objects inline, never a batch.
impl Wire for ApiRequest {
    fn to_wire(&self, _: &mut Side) -> Value {
        self.envelope(&mut Side::inline())
    }

    fn from_wire(v: &Value, _: &mut Side) -> WireResult<Self> {
        let request = ApiRequest::from_envelope(v, &mut Side::inline())?;
        if let ApiRequest::Batch { .. } = request {
            return Err(proto("batch requests cannot nest"));
        }
        Ok(request)
    }
}

impl ApiRequest {
    /// The wire method name.
    pub fn method(&self) -> &'static str {
        METHOD_NAMES[self.method_index()]
    }

    fn envelope(&self, side: &mut Side) -> Value {
        let mut params = Object::new();
        self.put_params(&mut params, side);
        let mut o = Object::new();
        o.insert("v", PROTOCOL_VERSION);
        o.insert("method", self.method());
        o.insert("params", Value::Object(params));
        Value::Object(o)
    }

    fn from_envelope(v: &Value, side: &mut Side) -> WireResult<ApiRequest> {
        let o = v
            .as_object()
            .ok_or_else(|| proto("request must be an object"))?;
        check_version(o)?;
        let method = o
            .get("method")
            .and_then(Value::as_str)
            .ok_or_else(|| proto("missing or non-string field \"method\""))?;
        let empty = Object::new();
        let params = match o.get("params") {
            None | Some(Value::Null) => &empty,
            Some(Value::Object(p)) => p,
            Some(_) => return Err(proto("params must be an object")),
        };
        ApiRequest::from_params(method, params, side)
    }

    /// Serializes to the one-line wire envelope, bundle objects inline.
    pub fn encode(&self) -> String {
        self.envelope(&mut Side::inline()).to_string_compact()
    }

    /// Serializes for the binary framing: bundle object payloads are
    /// externalized into the returned side-channel vector and the
    /// envelope says `"objects_ext": n`. A request without a bundle
    /// returns an empty side channel and exactly the
    /// [`ApiRequest::encode`] bytes.
    pub fn encode_ext(&self) -> (String, Vec<(ObjectId, Vec<u8>)>) {
        let mut side = Side::channel(Vec::new());
        let text = self.envelope(&mut side).to_string_compact();
        (text, side.into_objects())
    }

    /// Parses a wire envelope.
    pub fn parse(text: &str) -> WireResult<ApiRequest> {
        let v = sjson::parse(text).map_err(|e| proto(format!("unparseable request: {e}")))?;
        Self::from_envelope(&v, &mut Side::inline())
    }

    /// Parses an envelope together with its side-channel objects.
    /// Bundles that say `objects_ext` draw from `objects` in order; a
    /// side channel with leftover objects is a protocol error.
    pub fn parse_ext(text: &str, objects: Vec<(ObjectId, Vec<u8>)>) -> WireResult<ApiRequest> {
        let v = sjson::parse(text).map_err(|e| proto(format!("unparseable request: {e}")))?;
        let mut side = Side::channel(objects);
        let request = Self::from_envelope(&v, &mut side)?;
        side.finish()?;
        Ok(request)
    }
}

// ---------------------------------------------------------------------
// Responses: the result table
// ---------------------------------------------------------------------

/// Declares the result table. Each row is one result shape: its variant,
/// `type` tag, and either its payload as keyed fields `(key: Type, ..)`
/// or one struct `[binding: Type]` whose fields sit flattened beside the
/// tag.
macro_rules! results {
    ($(
        $(#[$attr:meta])*
        $var:ident = $tag:literal $(($($key:ident: $ty:ty),*))? $([$flat:ident: $fty:ty])?;
    )*) => {
        /// Every result shape the platform returns. Self-describing on the
        /// wire (each carries a `type` tag), so responses parse
        /// independently of the request that produced them.
        #[derive(Debug, Clone, PartialEq)]
        #[allow(missing_docs)] // shapes mirror the typed `Hub` method returns
        pub enum ApiResponse {
            $($(#[$attr])* $var $(($($ty),*))? $(($fty))?,)*
            Error(WireError),
        }

        impl ApiResponse {
            /// The wire discriminant: the `type` tag a result serializes
            /// under (`"error"` for the error variant).
            pub fn kind(&self) -> &'static str {
                match self {
                    $(ApiResponse::$var { .. } => $tag,)*
                    ApiResponse::Error(_) => "error",
                }
            }

            fn put_result(&self, r: &mut Object, side: &mut Side) {
                match self {
                    $(ApiResponse::$var $(($($key),*))? $(($flat))? => {
                        $($(put!(r, side, stringify!($key), $key);)*)?
                        $($flat.put_body(r, side);)?
                    })*
                    ApiResponse::Error(_) => unreachable!("errors travel under the envelope's error key"),
                }
            }

            fn from_result(tag: &str, r: &Object, side: &mut Side) -> WireResult<ApiResponse> {
                Ok(match tag {
                    $($tag => ApiResponse::$var
                        $(($(get!(r, side, stringify!($key))),*))?
                        $((<$fty>::get_body(r, side)?))?,)*
                    other => return Err(proto(format!("unknown result type {other:?}"))),
                })
            }
        }
    };
}

results! {
    Unit = "unit";
    Token = "token" (token: String);
    User = "user" [user: User];
    /// A repository id, username or similar identifier.
    Id = "id" (id: String);
    Names = "names" (names: Vec<String>);
    Paths = "paths" (paths: Vec<RepoPath>);
    FileData = "file" (data: Vec<u8>);
    /// One page of a branch's log.
    LogPage = "log_page" [page: Page<LogEntry>];
    /// One page of the audit log.
    AuditPage = "audit_page" [page: Page<AuditEvent>];
    /// One page of a name listing (repository ids).
    NamesPage = "names_page" [page: Page<String>];
    /// The server's answer to a have/want exchange.
    Negotiation = "negotiation" (negotiation: Negotiation);
    Citation = "citation" (citation: Citation);
    CitationOpt = "citation_opt" (citation: Option<Citation>);
    Commit = "commit" (id: ObjectId);
    Bool = "bool" (value: bool);
    RoleOpt = "role" (role: Option<Role>);
    Merge = "merge" (report: MergeSummary);
    Deposit = "deposit" [deposit: Deposit];
    Archive = "archive" [report: ArchiveReport];
    Swhid = "swhid" (kind: SwhKind, id: ObjectId);
    Count = "count" (count: u64);
    /// `(name, citing paths)` pairs — credited authors of one repository,
    /// or repositories citing one author.
    Credits = "credits" (credits: Vec<(String, Vec<RepoPath>)>);
    Stats = "stats" (stats: StoreStats);
    Maintenance = "maintenance" (repos: Vec<RepoMaintenance>);
    /// The hub-wide health snapshot.
    Metrics = "metrics" (metrics: MetricsSnapshot);
    Bundle = "bundle" (bundle: RepoBundle);
    /// The responses to a [`ApiRequest::Batch`], in request order. Items
    /// may individually be errors — one failed sub-request does not
    /// poison its siblings.
    Batch = "batch" (responses: Vec<ApiResponse>);
    /// The primary's replication frontier ([`ApiRequest::ReplStatus`]).
    ReplStatus = "repl_status" (status: ReplStatus);
    /// The fleet placement map ([`ApiRequest::Placement`]).
    Placement = "placement" (placement: PlacementInfo);
}

/// A batch item: an envelope of its own, objects inline, never a batch.
impl Wire for ApiResponse {
    fn to_wire(&self, _: &mut Side) -> Value {
        self.envelope(&mut Side::inline())
    }

    fn from_wire(v: &Value, _: &mut Side) -> WireResult<Self> {
        let response = ApiResponse::from_envelope(v, &mut Side::inline())?;
        if let ApiResponse::Batch(_) = response {
            return Err(proto("batch responses cannot nest"));
        }
        Ok(response)
    }
}

impl ApiResponse {
    /// Wraps a failed operation.
    pub fn from_error(e: &HubError) -> ApiResponse {
        ApiResponse::Error(WireError::from_hub(e))
    }

    /// Splits success from failure, reconstructing a typed [`HubError`]
    /// for the failure side.
    pub fn into_result(self) -> Result<ApiResponse, HubError> {
        match self {
            ApiResponse::Error(e) => Err(e.into_hub()),
            ok => Ok(ok),
        }
    }

    /// The full envelope (`v` + `result`-or-`error`) as a value.
    fn envelope(&self, side: &mut Side) -> Value {
        let mut o = Object::new();
        o.insert("v", PROTOCOL_VERSION);
        match self {
            ApiResponse::Error(e) => o.insert("error", e.to_wire(side)),
            ok => {
                let mut r = Object::new();
                r.insert("type", ok.kind());
                ok.put_result(&mut r, side);
                o.insert("result", Value::Object(r))
            }
        };
        Value::Object(o)
    }

    fn from_envelope(v: &Value, side: &mut Side) -> WireResult<ApiResponse> {
        let o = v
            .as_object()
            .ok_or_else(|| proto("response must be an object"))?;
        check_version(o)?;
        if let Some(err) = o.get("error") {
            return Ok(ApiResponse::Error(WireError::from_wire(err, side)?));
        }
        let r = o
            .get("result")
            .and_then(Value::as_object)
            .ok_or_else(|| proto("missing or non-object field \"result\""))?;
        let tag = r
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| proto("missing or non-string field \"type\""))?;
        ApiResponse::from_result(tag, r, side)
    }

    /// Serializes to the one-line wire envelope, bundle objects inline.
    pub fn encode(&self) -> String {
        self.envelope(&mut Side::inline()).to_string_compact()
    }

    /// Serializes for the binary framing: like [`ApiResponse::encode`]
    /// but bundle object payloads leave the envelope and come back as
    /// raw `(id, bytes)` pairs for the side channel; the envelope carries
    /// an `objects_ext` count in their place. Responses without a bundle
    /// encode exactly as [`ApiResponse::encode`] with an empty side
    /// channel.
    pub fn encode_ext(&self) -> (String, Vec<(ObjectId, Vec<u8>)>) {
        let mut side = Side::channel(Vec::new());
        let text = self.envelope(&mut side).to_string_compact();
        (text, side.into_objects())
    }

    /// Parses a wire envelope.
    pub fn parse(text: &str) -> WireResult<ApiResponse> {
        let v = sjson::parse(text).map_err(|e| proto(format!("unparseable response: {e}")))?;
        Self::from_envelope(&v, &mut Side::inline())
    }

    /// Like [`ApiResponse::parse`] but resolves `objects_ext` counts
    /// against `objects` received on the side channel. Every
    /// side-channel object must be consumed.
    pub fn parse_ext(text: &str, objects: Vec<(ObjectId, Vec<u8>)>) -> WireResult<ApiResponse> {
        let v = sjson::parse(text).map_err(|e| proto(format!("unparseable response: {e}")))?;
        let mut side = Side::channel(objects);
        let response = Self::from_envelope(&v, &mut side)?;
        side.finish()?;
        Ok(response)
    }
}

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

fn check_version(o: &Object) -> WireResult<()> {
    match o.get("v").and_then(Value::as_i64) {
        Some(PROTOCOL_VERSION) => Ok(()),
        Some(v) => Err(proto(format!(
            "unsupported protocol version v{v} (this peer speaks v{PROTOCOL_VERSION})"
        ))),
        None => Err(proto("missing or non-integer protocol version \"v\"")),
    }
}

const HEX: &[u8; 16] = b"0123456789abcdef";

fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(HEX[(b >> 4) as usize] as char);
        s.push(HEX[(b & 0xf) as usize] as char);
    }
    s
}

fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let nibble = |c: u8| -> Option<u8> {
        match c {
            b'0'..=b'9' => Some(c - b'0'),
            b'a'..=b'f' => Some(c - b'a' + 10),
            b'A'..=b'F' => Some(c - b'A' + 10),
            _ => None,
        }
    };
    let b = s.as_bytes();
    let mut out = Vec::with_capacity(b.len() / 2);
    for pair in b.chunks_exact(2) {
        out.push(nibble(pair[0])? << 4 | nibble(pair[1])?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trip() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(hex_decode(&hex_encode(&bytes)).unwrap(), bytes);
        assert_eq!(hex_decode("0g"), None);
        assert_eq!(hex_decode("abc"), None);
        assert_eq!(hex_decode(""), Some(Vec::new()));
    }

    #[test]
    fn request_envelope_round_trip() {
        let req = ApiRequest::AddCite {
            token: "ghp_x".into(),
            repo_id: "a/p".into(),
            branch: "main".into(),
            path: RepoPath::parse("src/lib.rs").unwrap(),
            citation: Citation::builder("p", "A").author("A").build(),
        };
        let text = req.encode();
        assert!(text.contains("\"v\":3"));
        assert!(text.contains("\"method\":\"add_cite\""));
        assert_eq!(ApiRequest::parse(&text).unwrap(), req);
    }

    #[test]
    fn response_envelope_round_trip() {
        let resp = ApiResponse::Commit(ObjectId::hash_bytes(b"x"));
        let text = resp.encode();
        assert_eq!(ApiResponse::parse(&text).unwrap(), resp);
    }

    #[test]
    fn wrong_version_is_refused() {
        let text = r#"{"v": 4, "method": "list_repos_page", "params": {}}"#;
        let err = ApiRequest::parse(text).unwrap_err();
        assert_eq!(err.code, ErrorCode::Protocol);
        assert!(err.message.contains("version"));
    }

    #[test]
    fn page_responses_round_trip_and_stamp_v2() {
        // Pages once needed a v2 stamp; every envelope now carries v3.
        let page = ApiResponse::NamesPage(Page {
            items: vec!["a/p".into(), "b/q".into()],
            next: Some("b/q".into()),
        });
        let text = page.encode();
        assert!(text.contains("\"v\":3"));
        assert_eq!(ApiResponse::parse(&text).unwrap(), page);
        let last = ApiResponse::NamesPage(Page {
            items: vec![],
            next: None,
        });
        assert_eq!(ApiResponse::parse(&last.encode()).unwrap(), last);
    }

    #[test]
    fn unknown_method_is_refused() {
        let text = r#"{"v": 3, "method": "frobnicate", "params": {}}"#;
        let err = ApiRequest::parse(text).unwrap_err();
        assert_eq!(err.code, ErrorCode::Protocol);
    }

    #[test]
    fn unknown_params_are_ignored() {
        let text = r#"{"v": 3, "method": "login", "params": {"username": "a", "extra": 1}}"#;
        assert_eq!(
            ApiRequest::parse(text).unwrap(),
            ApiRequest::Login {
                username: "a".into(),
                secret: None
            }
        );
    }

    #[test]
    fn error_codes_reconstruct_hub_errors() {
        let original = HubError::PermissionDenied("bob lacks Write".into());
        let wire = WireError::from_hub(&original);
        assert_eq!(wire.code, ErrorCode::PermissionDenied);
        assert_eq!(wire.into_hub(), original);

        let original = HubError::Cite(citekit::CiteError::AlreadyCited(
            RepoPath::parse("src/lib.rs").unwrap(),
        ));
        let wire = WireError::from_hub(&original);
        assert_eq!(wire.code, ErrorCode::AlreadyCited);
        assert_eq!(wire.into_hub(), original);

        let original = HubError::Git(gitlite::GitError::NonFastForward {
            branch: "main".into(),
        });
        let wire = WireError::from_hub(&original);
        assert_eq!(wire.code, ErrorCode::NonFastForward);
        assert_eq!(wire.into_hub(), original);

        // The common read failure keeps its exact variant in-process.
        let original = HubError::Git(gitlite::GitError::FileNotFound(
            RepoPath::parse("src/lib.rs").unwrap(),
        ));
        let wire = WireError::from_hub(&original);
        assert_eq!(wire.code, ErrorCode::FileNotFound);
        assert_eq!(wire.into_hub(), original);

        let original = HubError::Git(gitlite::GitError::NothingToCommit);
        assert_eq!(WireError::from_hub(&original).into_hub(), original);

        let original = HubError::Cite(citekit::CiteError::BadCitationFile("bad json".into()));
        let wire = WireError::from_hub(&original);
        assert_eq!(wire.code, ErrorCode::BadCitationFile);
        assert_eq!(wire.into_hub(), original);
    }

    #[test]
    fn missing_required_detail_reconstructs_as_protocol_error() {
        // A peer that strips the structured payload gets an honest
        // protocol error, not a typed error naming an invented path.
        let wire = WireError {
            code: ErrorCode::AlreadyCited,
            message: "already cited".into(),
            detail: None,
        };
        assert!(matches!(wire.into_hub(), HubError::Protocol(_)));
        let wire = WireError {
            code: ErrorCode::ObjectNotFound,
            message: "object gone".into(),
            detail: Some("not-hex".into()),
        };
        assert!(matches!(wire.into_hub(), HubError::Protocol(_)));
    }

    #[test]
    fn error_envelope_round_trip() {
        let resp = ApiResponse::from_error(&HubError::RepoNotFound("a/p".into()));
        let text = resp.encode();
        assert!(text.contains("\"error\""));
        assert!(!text.contains("\"result\""));
        let back = ApiResponse::parse(&text).unwrap();
        assert_eq!(back, resp);
        assert!(matches!(
            back.into_result(),
            Err(HubError::RepoNotFound(r)) if r == "a/p"
        ));
    }

    // -- batches and the side channel ----------------------------------

    fn push_with_objects() -> ApiRequest {
        let payload = b"blob 13\0fn main() {}\n".to_vec();
        ApiRequest::Push {
            token: "t".into(),
            repo_id: "a/p".into(),
            branch: "main".into(),
            force: false,
            bundle: RepoBundle {
                name: "p".into(),
                head: None,
                refs: vec![("main".into(), ObjectId::hash_bytes(b"c"))],
                objects: vec![(ObjectId::hash_bytes(&payload), payload)],
                basis: vec![],
            },
        }
    }

    #[test]
    fn batch_request_round_trips_and_stamps_v3() {
        let req = ApiRequest::Batch {
            requests: vec![
                ApiRequest::Whoami { token: "t".into() },
                ApiRequest::ListReposPage {
                    cursor: None,
                    limit: None,
                },
            ],
        };
        let text = req.encode();
        assert!(text.starts_with("{\"v\":3,"), "{text}");
        assert!(text.contains("\"method\":\"batch\""));
        assert_eq!(ApiRequest::parse(&text).unwrap(), req);
        // Downgraded to v2, the same envelope must be refused.
        let downgraded = text.replacen("\"v\":3", "\"v\":2", 1);
        assert_eq!(
            ApiRequest::parse(&downgraded).unwrap_err().code,
            ErrorCode::Protocol
        );
    }

    #[test]
    fn batch_response_round_trips_and_stamps_v3() {
        let resp = ApiResponse::Batch(vec![
            ApiResponse::Bool(true),
            ApiResponse::from_error(&HubError::AuthFailed),
        ]);
        let text = resp.encode();
        assert!(text.starts_with("{\"v\":3,"), "{text}");
        assert_eq!(ApiResponse::parse(&text).unwrap(), resp);
    }

    #[test]
    fn nested_batches_are_refused() {
        let req = ApiRequest::Batch {
            requests: vec![ApiRequest::Batch { requests: vec![] }],
        };
        let err = ApiRequest::parse(&req.encode()).unwrap_err();
        assert_eq!(err.code, ErrorCode::Protocol);
        assert!(err.message.contains("nest"), "{}", err.message);

        let resp = ApiResponse::Batch(vec![ApiResponse::Batch(vec![])]);
        let err = ApiResponse::parse(&resp.encode()).unwrap_err();
        assert_eq!(err.code, ErrorCode::Protocol);
        assert!(err.message.contains("nest"), "{}", err.message);
    }

    #[test]
    fn encode_ext_externalizes_objects_and_round_trips() {
        let req = push_with_objects();
        let (text, objects) = req.encode_ext();
        assert!(text.starts_with("{\"v\":3,"), "{text}");
        assert!(text.contains("\"objects_ext\":1"), "{text}");
        assert!(!text.contains("\"objects\":["), "{text}");
        assert_eq!(objects.len(), 1);
        assert_eq!(ApiRequest::parse_ext(&text, objects).unwrap(), req);
    }

    #[test]
    fn encode_ext_shrinks_the_envelope() {
        let req = push_with_objects();
        let inline = req.encode();
        let (text, _) = req.encode_ext();
        assert!(
            text.len() < inline.len(),
            "ext envelope ({}) not smaller than inline ({})",
            text.len(),
            inline.len()
        );
    }

    #[test]
    fn response_encode_ext_externalizes_bundles() {
        let bundle = match push_with_objects() {
            ApiRequest::Push { bundle, .. } => bundle,
            _ => unreachable!(),
        };
        let resp = ApiResponse::Bundle(bundle);
        let (text, objects) = resp.encode_ext();
        assert!(text.starts_with("{\"v\":3,"), "{text}");
        assert!(text.contains("\"objects_ext\":1"), "{text}");
        assert_eq!(objects.len(), 1);
        assert_eq!(ApiResponse::parse_ext(&text, objects).unwrap(), resp);
        // Responses with nothing to externalize keep their plain encoding.
        let plain = ApiResponse::Bool(true);
        let (text, objects) = plain.encode_ext();
        assert_eq!(text, plain.encode());
        assert!(objects.is_empty());
    }

    #[test]
    fn objects_ext_without_side_channel_is_refused() {
        let (text, _objects) = push_with_objects().encode_ext();
        // Plain parse has no side channel to satisfy the count.
        let err = ApiRequest::parse(&text).unwrap_err();
        assert_eq!(err.code, ErrorCode::Protocol);
        assert!(err.message.contains("side channel"), "{}", err.message);
    }

    #[test]
    fn objects_ext_in_v2_envelope_is_refused() {
        let (text, objects) = push_with_objects().encode_ext();
        let downgraded = text.replacen("\"v\":3", "\"v\":2", 1);
        let err = ApiRequest::parse_ext(&downgraded, objects).unwrap_err();
        assert_eq!(err.code, ErrorCode::Protocol);
        assert!(err.message.contains("v3"), "{}", err.message);
    }

    #[test]
    fn leftover_side_channel_objects_are_refused() {
        let (text, mut objects) = push_with_objects().encode_ext();
        objects.push((ObjectId::hash_bytes(b"extra"), b"extra".to_vec()));
        let err = ApiRequest::parse_ext(&text, objects).unwrap_err();
        assert_eq!(err.code, ErrorCode::Protocol);
        assert!(err.message.contains("unconsumed"), "{}", err.message);
    }

    #[test]
    fn short_side_channel_is_refused() {
        let (text, _objects) = push_with_objects().encode_ext();
        let err = ApiRequest::parse_ext(&text, Vec::new()).unwrap_err();
        assert_eq!(err.code, ErrorCode::Protocol);
        assert!(err.message.contains("carried"), "{}", err.message);
    }

    #[test]
    fn objects_and_objects_ext_together_are_refused() {
        let (text, objects) = push_with_objects().encode_ext();
        let spliced = text.replacen("\"objects_ext\":1", "\"objects\":[],\"objects_ext\":1", 1);
        let err = ApiRequest::parse_ext(&spliced, objects).unwrap_err();
        assert_eq!(err.code, ErrorCode::Protocol);
        assert!(err.message.contains("both"), "{}", err.message);
    }

    #[test]
    fn transport_closed_code_round_trips() {
        let original = HubError::TransportClosed("read reset by peer".into());
        let wire = WireError::from_hub(&original);
        assert_eq!(wire.code, ErrorCode::TransportClosed);
        assert_eq!(wire.code.as_str(), "transport_closed");
        assert_eq!(ErrorCode::parse("transport_closed"), Some(wire.code));
        assert_eq!(wire.into_hub(), original);
    }
}
