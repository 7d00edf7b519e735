//! Property tests for the wire protocol: any [`ApiRequest`] or
//! [`ApiResponse`] the generators can produce must survive
//! encode → sjson parse → equal, one sample of every method must survive
//! both codecs, plus golden-string fixtures pinning the exact wire form
//! of one request per method family (the strings a non-Rust client would
//! have to produce).

use citekit::{Citation, MergeStrategy, Resolution};
use gitlite::{CacheStats, ObjectId, RepoPath};
use hub::api::{
    ApiRequest, ApiResponse, ErrorCode, MergeOutcome, MergeSummary, Negotiation, Page, RepoBundle,
    RepoMaintenance, StoreStats, WireError,
};
use hub::{ArchiveReport, AuditEvent, Deposit, LogEntry, Role, SwhKind, User};
use proptest::prelude::*;

// ----- generators ----------------------------------------------------------

fn arb_name() -> impl Strategy<Value = String> {
    "[a-z]{1,8}".prop_map(|s| s)
}

fn arb_repo_id() -> impl Strategy<Value = String> {
    ("[a-z]{1,6}", "[a-z]{1,6}").prop_map(|(o, n)| format!("{o}/{n}"))
}

fn arb_text() -> impl Strategy<Value = String> {
    // Printable ASCII plus some escapes; sjson's own proptests cover the
    // full unicode space.
    "[ -~]{0,16}".prop_map(|s| s)
}

fn arb_path() -> impl Strategy<Value = RepoPath> {
    prop::collection::vec("[a-z0-9]{1,5}", 0..4)
        .prop_map(|cs| RepoPath::parse(&cs.join("/")).expect("generated components are valid"))
}

fn arb_id() -> impl Strategy<Value = ObjectId> {
    any::<u64>().prop_map(|n| ObjectId::hash_bytes(&n.to_be_bytes()))
}

fn arb_citation() -> impl Strategy<Value = Citation> {
    (
        (arb_text(), arb_text(), arb_text(), arb_text(), arb_text()),
        prop::collection::vec(arb_text(), 0..3),
        prop::option::of(arb_text()),
        prop::option::of(arb_text()),
        any::<i64>(),
    )
        .prop_map(
            |((name, owner, date, commit, url), authors, doi, note, stars)| {
                let mut b = Citation::builder(name, owner)
                    .commit(commit, date)
                    .url(url)
                    .authors(authors)
                    .extra("stars", stars);
                if let Some(d) = doi {
                    b = b.doi(d);
                }
                if let Some(n) = note {
                    b = b.note(n);
                }
                b.build()
            },
        )
}

fn arb_role() -> impl Strategy<Value = Role> {
    prop_oneof![Just(Role::Reader), Just(Role::Member), Just(Role::Owner)]
}

fn arb_strategy() -> impl Strategy<Value = MergeStrategy> {
    prop_oneof![
        Just(MergeStrategy::Union),
        Just(MergeStrategy::Ours),
        Just(MergeStrategy::Theirs),
        Just(MergeStrategy::ThreeWay),
    ]
}

fn arb_bundle() -> impl Strategy<Value = RepoBundle> {
    (
        arb_name(),
        prop::option::of(arb_name()),
        prop::collection::vec((arb_name(), arb_id()), 0..3),
        prop::collection::vec((arb_id(), prop::collection::vec(any::<u8>(), 0..24)), 0..4),
        prop::collection::vec(arb_id(), 0..3),
    )
        .prop_map(|(name, head, refs, objects, basis)| RepoBundle {
            name,
            head,
            refs,
            objects,
            basis,
        })
}

fn arb_cursor() -> impl Strategy<Value = Option<String>> {
    prop::option::of("[a-z0-9:]{1,12}".prop_map(|s: String| s))
}

fn arb_limit() -> impl Strategy<Value = Option<u32>> {
    prop::option::of(any::<u64>().prop_map(|n| (n % 600) as u32))
}

fn arb_request() -> impl Strategy<Value = ApiRequest> {
    let token = || "[a-z0-9_]{4,12}".prop_map(|s: String| s);
    prop_oneof![
        (arb_name(), arb_text()).prop_map(|(username, display_name)| ApiRequest::RegisterUser {
            username,
            display_name,
            secret: None
        }),
        arb_name().prop_map(|username| ApiRequest::Login {
            username,
            secret: None
        }),
        token().prop_map(|token| ApiRequest::Revoke { token }),
        token().prop_map(|token| ApiRequest::Whoami { token }),
        (token(), arb_name()).prop_map(|(token, name)| ApiRequest::CreateRepo { token, name }),
        (token(), arb_name(), arb_bundle()).prop_map(|(token, name, bundle)| {
            ApiRequest::ImportRepo {
                token,
                name,
                bundle,
            }
        }),
        (token(), arb_repo_id(), arb_name(), arb_role()).prop_map(
            |(token, repo_id, username, role)| ApiRequest::AddMember {
                token,
                repo_id,
                username,
                role
            }
        ),
        (arb_repo_id(), arb_name())
            .prop_map(|(repo_id, username)| ApiRequest::RoleOf { repo_id, username }),
        (token(), arb_repo_id())
            .prop_map(|(token, repo_id)| ApiRequest::CanWrite { token, repo_id }),
        arb_repo_id().prop_map(|repo_id| ApiRequest::Branches { repo_id }),
        (arb_repo_id(), arb_name())
            .prop_map(|(repo_id, branch)| ApiRequest::ListFiles { repo_id, branch }),
        (arb_repo_id(), arb_name(), arb_path()).prop_map(|(repo_id, branch, path)| {
            ApiRequest::ReadFile {
                repo_id,
                branch,
                path,
            }
        }),
        (arb_repo_id(), arb_name(), arb_cursor(), arb_limit()).prop_map(
            |(repo_id, branch, cursor, limit)| ApiRequest::LogPage {
                repo_id,
                branch,
                cursor,
                limit,
            }
        ),
        (arb_cursor(), arb_limit())
            .prop_map(|(cursor, limit)| ApiRequest::AuditLogPage { cursor, limit }),
        (arb_cursor(), arb_limit())
            .prop_map(|(cursor, limit)| ApiRequest::ListReposPage { cursor, limit }),
        (arb_repo_id(), prop::collection::vec(arb_id(), 0..4))
            .prop_map(|(repo_id, haves)| ApiRequest::Negotiate { repo_id, haves }),
        arb_repo_id().prop_map(|repo_id| ApiRequest::CloneRepo { repo_id }),
        (arb_repo_id(), arb_name(), arb_path()).prop_map(|(repo_id, branch, path)| {
            ApiRequest::GenerateCitation {
                repo_id,
                branch,
                path,
            }
        }),
        (arb_repo_id(), arb_name(), arb_path()).prop_map(|(repo_id, branch, path)| {
            ApiRequest::CitationEntry {
                repo_id,
                branch,
                path,
            }
        }),
        (
            token(),
            arb_repo_id(),
            arb_name(),
            arb_path(),
            arb_citation()
        )
            .prop_map(
                |(token, repo_id, branch, path, citation)| ApiRequest::AddCite {
                    token,
                    repo_id,
                    branch,
                    path,
                    citation,
                }
            ),
        (
            token(),
            arb_repo_id(),
            arb_name(),
            arb_path(),
            arb_citation()
        )
            .prop_map(
                |(token, repo_id, branch, path, citation)| ApiRequest::ModifyCite {
                    token,
                    repo_id,
                    branch,
                    path,
                    citation,
                }
            ),
        (token(), arb_repo_id(), arb_name(), arb_path()).prop_map(
            |(token, repo_id, branch, path)| ApiRequest::DelCite {
                token,
                repo_id,
                branch,
                path,
            }
        ),
        (
            token(),
            arb_repo_id(),
            arb_name(),
            any::<bool>(),
            arb_bundle()
        )
            .prop_map(|(token, repo_id, branch, force, bundle)| ApiRequest::Push {
                token,
                repo_id,
                branch,
                force,
                bundle,
            }),
        (token(), arb_repo_id(), arb_name()).prop_map(|(token, src_repo_id, new_name)| {
            ApiRequest::Fork {
                token,
                src_repo_id,
                new_name,
            }
        }),
        (
            token(),
            arb_repo_id(),
            arb_name(),
            arb_name(),
            arb_strategy()
        )
            .prop_map(|(token, repo_id, branch, other_branch, strategy)| {
                ApiRequest::MergeBranches {
                    token,
                    repo_id,
                    branch,
                    other_branch,
                    strategy,
                }
            }),
        (token(), arb_repo_id(), arb_name(), arb_text()).prop_map(
            |(token, repo_id, branch, title)| ApiRequest::Deposit {
                token,
                repo_id,
                branch,
                title,
            }
        ),
        arb_text().prop_map(|doi| ApiRequest::ResolveDoi { doi }),
        arb_repo_id().prop_map(|repo_id| ApiRequest::Archive { repo_id }),
        arb_text().prop_map(|swhid| ApiRequest::ResolveSwhid { swhid }),
        arb_repo_id().prop_map(|repo_id| ApiRequest::ArchiveVisits { repo_id }),
        (arb_repo_id(), arb_name())
            .prop_map(|(repo_id, branch)| ApiRequest::CreditedAuthors { repo_id, branch }),
        arb_text().prop_map(|author| ApiRequest::FindReposCiting { author }),
        arb_repo_id().prop_map(|repo_id| ApiRequest::StoreStats { repo_id }),
        Just(ApiRequest::Maintenance),
        any::<i64>().prop_map(|ts| ApiRequest::AdvanceClock { ts }),
    ]
}

fn arb_resolution() -> impl Strategy<Value = Resolution> {
    prop_oneof![
        Just(Resolution::Ours),
        Just(Resolution::Theirs),
        Just(Resolution::Drop),
        Just(Resolution::Unresolved),
        arb_citation().prop_map(Resolution::Custom),
    ]
}

fn arb_merge_summary() -> impl Strategy<Value = MergeSummary> {
    (
        prop_oneof![
            Just(MergeOutcome::AlreadyUpToDate),
            arb_id().prop_map(MergeOutcome::FastForwarded),
            arb_id().prop_map(MergeOutcome::Merged),
        ],
        prop::collection::vec((arb_path(), arb_resolution()), 0..3),
        prop::collection::vec(arb_path(), 0..3),
    )
        .prop_map(|(outcome, citation_conflicts, dropped)| MergeSummary {
            outcome,
            citation_conflicts,
            dropped,
        })
}

fn arb_error() -> impl Strategy<Value = WireError> {
    (
        prop_oneof![
            Just(ErrorCode::AuthFailed),
            Just(ErrorCode::PermissionDenied),
            Just(ErrorCode::UserNotFound),
            Just(ErrorCode::RepoNotFound),
            Just(ErrorCode::BadRequest),
            Just(ErrorCode::NonFastForward),
            Just(ErrorCode::AlreadyCited),
            Just(ErrorCode::Cite),
            Just(ErrorCode::Git),
            Just(ErrorCode::Protocol),
        ],
        arb_text(),
        prop::option::of(arb_text()),
    )
        .prop_map(|(code, message, detail)| WireError {
            code,
            message,
            detail,
        })
}

fn arb_response() -> impl Strategy<Value = ApiResponse> {
    let small = || any::<u8>().prop_map(u64::from);
    prop_oneof![
        Just(ApiResponse::Unit),
        "[a-z0-9_]{4,12}".prop_map(|t: String| ApiResponse::Token(t)),
        (arb_name(), arb_text(), arb_text()).prop_map(|(username, display_name, email)| {
            ApiResponse::User(User {
                username,
                display_name,
                email,
            })
        }),
        arb_repo_id().prop_map(ApiResponse::Id),
        prop::collection::vec(arb_name(), 0..4).prop_map(ApiResponse::Names),
        prop::collection::vec(arb_path(), 0..4).prop_map(ApiResponse::Paths),
        prop::collection::vec(any::<u8>(), 0..32).prop_map(ApiResponse::FileData),
        (
            prop::collection::vec(
                (arb_id(), arb_text(), any::<i64>(), arb_text()).prop_map(
                    |(id, author, timestamp, message)| LogEntry {
                        id,
                        author,
                        timestamp,
                        message,
                    }
                ),
                0..3
            ),
            arb_cursor()
        )
            .prop_map(|(items, next)| ApiResponse::LogPage(Page { items, next })),
        (prop::collection::vec(arb_name(), 0..4), arb_cursor())
            .prop_map(|(items, next)| ApiResponse::NamesPage(Page { items, next })),
        (
            prop::collection::vec(arb_id(), 0..3),
            prop::collection::vec(arb_id(), 0..3)
        )
            .prop_map(|(common, missing)| ApiResponse::Negotiation(Negotiation {
                common,
                missing
            })),
        arb_citation().prop_map(ApiResponse::Citation),
        prop::option::of(arb_citation()).prop_map(ApiResponse::CitationOpt),
        arb_id().prop_map(ApiResponse::Commit),
        any::<bool>().prop_map(ApiResponse::Bool),
        prop::option::of(arb_role()).prop_map(ApiResponse::RoleOpt),
        arb_merge_summary().prop_map(ApiResponse::Merge),
        (
            (arb_text(), arb_repo_id(), arb_id(), arb_id()),
            arb_text(),
            prop::collection::vec(arb_text(), 0..3),
            any::<i64>()
        )
            .prop_map(
                |((doi, repo_id, version, tree), title, creators, deposited_at)| {
                    ApiResponse::Deposit(Deposit {
                        doi,
                        repo_id,
                        version,
                        tree,
                        title,
                        creators,
                        deposited_at,
                    })
                }
            ),
        (
            arb_text(),
            prop::collection::vec(arb_text(), 0..3),
            (small(), small(), small())
        )
            .prop_map(|(origin, heads, (c, d, r))| {
                ApiResponse::Archive(ArchiveReport {
                    origin,
                    heads,
                    new_objects: (c as usize, d as usize, r as usize),
                })
            }),
        (
            prop_oneof![
                Just(SwhKind::Content),
                Just(SwhKind::Directory),
                Just(SwhKind::Revision)
            ],
            arb_id()
        )
            .prop_map(|(kind, id)| ApiResponse::Swhid(kind, id)),
        small().prop_map(ApiResponse::Count),
        prop::collection::vec((arb_text(), prop::collection::vec(arb_path(), 0..3)), 0..3)
            .prop_map(ApiResponse::Credits),
        (
            prop::collection::vec(
                (
                    (small(), any::<i64>()),
                    prop::option::of(arb_name()),
                    arb_name(),
                    arb_text(),
                    any::<bool>()
                )
                    .prop_map(|((seq, timestamp), actor, action, target, ok)| {
                        AuditEvent {
                            seq,
                            timestamp,
                            actor,
                            action,
                            target,
                            ok,
                        }
                    }),
                0..3
            ),
            arb_cursor()
        )
            .prop_map(|(items, next)| ApiResponse::AuditPage(Page { items, next })),
        (
            arb_repo_id(),
            small(),
            prop::option::of((small(), small(), small(), small(), small())),
            prop::option::of(small()),
            prop::option::of(small()),
            prop::option::of(small())
        )
            .prop_map(
                |(repo_id, objects, cache, graph_commits, delta_objects, bloom_commits)| {
                    ApiResponse::Stats(StoreStats {
                        repo_id,
                        objects,
                        cache: cache.map(|(hits, misses, evictions, len, capacity)| CacheStats {
                            hits,
                            misses,
                            evictions,
                            len: len as usize,
                            capacity: capacity as usize,
                        }),
                        graph_commits,
                        delta_objects,
                        bloom_commits,
                    })
                }
            ),
        prop::collection::vec(
            (
                arb_repo_id(),
                any::<bool>(),
                small(),
                small(),
                prop::option::of(arb_text())
            )
                .prop_map(|(repo_id, supported, packed, dropped, error)| {
                    RepoMaintenance {
                        repo_id,
                        supported,
                        packed,
                        dropped,
                        error,
                    }
                }),
            0..3
        )
        .prop_map(ApiResponse::Maintenance),
        arb_bundle().prop_map(ApiResponse::Bundle),
        arb_error().prop_map(ApiResponse::Error),
    ]
}

// ----- the properties ------------------------------------------------------

proptest! {
    #[test]
    fn requests_round_trip(req in arb_request()) {
        let text = req.encode();
        let back = ApiRequest::parse(&text).expect("encoded request must parse");
        prop_assert_eq!(back, req);
    }

    #[test]
    fn responses_round_trip(resp in arb_response()) {
        let text = resp.encode();
        let back = ApiResponse::parse(&text).expect("encoded response must parse");
        prop_assert_eq!(back, resp);
    }

    #[test]
    fn request_parser_never_panics(s in "\\PC{0,64}") {
        let _ = ApiRequest::parse(&s);
    }

    #[test]
    fn response_parser_never_panics(s in "\\PC{0,64}") {
        let _ = ApiResponse::parse(&s);
    }
}

// ----- every method, both codecs -------------------------------------------

/// One sample of every method in the table: each must survive the plain
/// codec and the side-channel codec unchanged.
#[test]
fn every_method_sample_round_trips_both_codecs() {
    let id = ObjectId::hash_bytes(b"tip");
    let path = RepoPath::parse("src/lib.rs").unwrap();
    let citation = Citation::builder("core", "Ann").author("Ann").build();
    let bundle = RepoBundle {
        name: "p".into(),
        head: Some("main".into()),
        refs: vec![("main".into(), id)],
        objects: vec![(id, b"commit bytes".to_vec())],
        basis: vec![],
    };
    let t = || "ghp_1".to_owned();
    let r = || "ann/p".to_owned();
    let b = || "main".to_owned();
    let samples = vec![
        ApiRequest::RegisterUser {
            username: "ann".into(),
            display_name: "Ann".into(),
            secret: Some("s3cret".into()),
        },
        ApiRequest::Login {
            username: "ann".into(),
            secret: None,
        },
        ApiRequest::Refresh { token: t() },
        ApiRequest::Revoke { token: t() },
        ApiRequest::Whoami { token: t() },
        ApiRequest::CreateRepo {
            token: t(),
            name: "p".into(),
        },
        ApiRequest::ImportRepo {
            token: t(),
            name: "p".into(),
            bundle: bundle.clone(),
        },
        ApiRequest::AddMember {
            token: t(),
            repo_id: r(),
            username: "bob".into(),
            role: Role::Member,
        },
        ApiRequest::RoleOf {
            repo_id: r(),
            username: "bob".into(),
        },
        ApiRequest::CanWrite {
            token: t(),
            repo_id: r(),
        },
        ApiRequest::ListReposPage {
            cursor: Some("ann/o".into()),
            limit: Some(10),
        },
        ApiRequest::Branches { repo_id: r() },
        ApiRequest::ListFiles {
            repo_id: r(),
            branch: b(),
        },
        ApiRequest::ReadFile {
            repo_id: r(),
            branch: b(),
            path: path.clone(),
        },
        ApiRequest::LogPage {
            repo_id: r(),
            branch: b(),
            cursor: None,
            limit: Some(5),
        },
        ApiRequest::CloneRepo { repo_id: r() },
        ApiRequest::Negotiate {
            repo_id: r(),
            haves: vec![id],
        },
        ApiRequest::GenerateCitation {
            repo_id: r(),
            branch: b(),
            path: path.clone(),
        },
        ApiRequest::CitationEntry {
            repo_id: r(),
            branch: b(),
            path: path.clone(),
        },
        ApiRequest::AddCite {
            token: t(),
            repo_id: r(),
            branch: b(),
            path: path.clone(),
            citation: citation.clone(),
        },
        ApiRequest::ModifyCite {
            token: t(),
            repo_id: r(),
            branch: b(),
            path: path.clone(),
            citation,
        },
        ApiRequest::DelCite {
            token: t(),
            repo_id: r(),
            branch: b(),
            path,
        },
        ApiRequest::Push {
            token: t(),
            repo_id: r(),
            branch: b(),
            force: true,
            bundle: RepoBundle {
                basis: vec![ObjectId::hash_bytes(b"base")],
                ..bundle
            },
        },
        ApiRequest::Fork {
            token: t(),
            src_repo_id: r(),
            new_name: "q".into(),
        },
        ApiRequest::MergeBranches {
            token: t(),
            repo_id: r(),
            branch: b(),
            other_branch: "gui".into(),
            strategy: MergeStrategy::ThreeWay,
        },
        ApiRequest::Deposit {
            token: t(),
            repo_id: r(),
            branch: b(),
            title: "p v1".into(),
        },
        ApiRequest::ResolveDoi {
            doi: "10.5281/zenodo.1".into(),
        },
        ApiRequest::Archive { repo_id: r() },
        ApiRequest::ResolveSwhid {
            swhid: "swh:1:rev:00".into(),
        },
        ApiRequest::ArchiveVisits { repo_id: r() },
        ApiRequest::CreditedAuthors {
            repo_id: r(),
            branch: b(),
        },
        ApiRequest::FindReposCiting {
            author: "Ada".into(),
        },
        ApiRequest::AuditLogPage {
            cursor: Some("3".into()),
            limit: None,
        },
        ApiRequest::StoreStats { repo_id: r() },
        ApiRequest::Maintenance,
        ApiRequest::ServerMetrics { token: Some(t()) },
        ApiRequest::AdvanceClock { ts: 42 },
        ApiRequest::Batch {
            requests: vec![ApiRequest::Whoami { token: t() }],
        },
        ApiRequest::ReplStatus,
        ApiRequest::ReplFetch {
            repo_id: r(),
            haves: vec![id],
        },
        ApiRequest::Placement { repo_id: Some(r()) },
    ];
    let mut covered: Vec<&str> = samples.iter().map(ApiRequest::method).collect();
    covered.sort_unstable();
    let mut table = hub::api::METHOD_NAMES.to_vec();
    table.sort_unstable();
    assert_eq!(covered, table, "one sample per method");
    for req in samples {
        let text = req.encode();
        assert_eq!(ApiRequest::parse(&text).unwrap(), req, "{text}");
        let (envelope, objects) = req.encode_ext();
        assert_eq!(
            ApiRequest::parse_ext(&envelope, objects).unwrap(),
            req,
            "{envelope}"
        );
    }
}

// ----- golden fixtures: one request per method family ----------------------
//
// These pin the exact bytes a non-Rust client must produce.

fn golden(req: ApiRequest, expected: &str) {
    assert_eq!(
        req.encode(),
        expected,
        "encoding drifted for {}",
        req.method()
    );
    assert_eq!(
        ApiRequest::parse(expected).unwrap(),
        req,
        "golden string no longer parses for {}",
        req.method()
    );
}

#[test]
fn golden_auth_family() {
    golden(
        ApiRequest::Login {
            username: "ann".into(),
            secret: None,
        },
        r#"{"v":3,"method":"login","params":{"username":"ann"}}"#,
    );
}

#[test]
fn golden_repo_family() {
    golden(
        ApiRequest::AddMember {
            token: "ghp_1".into(),
            repo_id: "ann/p".into(),
            username: "bob".into(),
            role: Role::Member,
        },
        r#"{"v":3,"method":"add_member","params":{"token":"ghp_1","repo_id":"ann/p","username":"bob","role":"member"}}"#,
    );
}

#[test]
fn golden_read_family() {
    golden(
        ApiRequest::ReadFile {
            repo_id: "ann/p".into(),
            branch: "main".into(),
            path: RepoPath::parse("src/lib.rs").unwrap(),
        },
        r#"{"v":3,"method":"read_file","params":{"repo_id":"ann/p","branch":"main","path":"src/lib.rs"}}"#,
    );
}

#[test]
fn golden_citation_family() {
    golden(
        ApiRequest::AddCite {
            token: "ghp_1".into(),
            repo_id: "ann/p".into(),
            branch: "main".into(),
            path: RepoPath::parse("src").unwrap(),
            citation: Citation::builder("core", "Ann").author("Ann").build(),
        },
        r#"{"v":3,"method":"add_cite","params":{"token":"ghp_1","repo_id":"ann/p","branch":"main","path":"src","citation":{"repoName":"core","owner":"Ann","committedDate":"","commitID":"","url":"","authorList":["Ann"]}}}"#,
    );
}

#[test]
fn golden_sync_family() {
    golden(
        ApiRequest::MergeBranches {
            token: "ghp_1".into(),
            repo_id: "ann/p".into(),
            branch: "main".into(),
            other_branch: "gui".into(),
            strategy: MergeStrategy::Union,
        },
        r#"{"v":3,"method":"merge_branches","params":{"token":"ghp_1","repo_id":"ann/p","branch":"main","other_branch":"gui","strategy":"union"}}"#,
    );
}

#[test]
fn golden_archive_family() {
    golden(
        ApiRequest::Deposit {
            token: "ghp_1".into(),
            repo_id: "ann/p".into(),
            branch: "main".into(),
            title: "p v1.0".into(),
        },
        r#"{"v":3,"method":"deposit","params":{"token":"ghp_1","repo_id":"ann/p","branch":"main","title":"p v1.0"}}"#,
    );
}

#[test]
fn golden_credit_family() {
    golden(
        ApiRequest::FindReposCiting {
            author: "Ada".into(),
        },
        r#"{"v":3,"method":"find_repos_citing","params":{"author":"Ada"}}"#,
    );
}

#[test]
fn golden_operations_family() {
    golden(
        ApiRequest::Maintenance,
        r#"{"v":3,"method":"maintenance","params":{}}"#,
    );
    golden(
        ApiRequest::StoreStats {
            repo_id: "ann/p".into(),
        },
        r#"{"v":3,"method":"store_stats","params":{"repo_id":"ann/p"}}"#,
    );
}

#[test]
fn golden_responses() {
    let resp = ApiResponse::Commit(
        ObjectId::from_hex("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa").unwrap(),
    );
    assert_eq!(
        resp.encode(),
        r#"{"v":3,"result":{"type":"commit","id":"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"}}"#
    );
    let err = ApiResponse::Error(WireError {
        code: ErrorCode::RepoNotFound,
        message: "no such repository: ann/p".into(),
        detail: Some("ann/p".into()),
    });
    assert_eq!(
        err.encode(),
        r#"{"v":3,"error":{"code":"repo_not_found","message":"no such repository: ann/p","detail":"ann/p"}}"#
    );
}

#[test]
fn golden_store_stats_absent_field_rules() {
    // A stats payload from a backend with neither delta packs nor Bloom
    // filters must stay byte-identical to the pre-delta wire form: the
    // new keys are simply absent.
    let old_shape = ApiResponse::Stats(StoreStats {
        repo_id: "ann/p".into(),
        objects: 7,
        cache: None,
        graph_commits: None,
        delta_objects: None,
        bloom_commits: None,
    });
    let old_wire = r#"{"v":3,"result":{"type":"stats","stats":{"repo_id":"ann/p","objects":7}}}"#;
    assert_eq!(old_shape.encode(), old_wire);
    // And an old peer's bytes parse with the new fields defaulting to
    // absent, not erroring.
    assert_eq!(ApiResponse::parse(old_wire).unwrap(), old_shape);

    // When the backend reports them, the keys appear after graph_commits.
    let new_shape = ApiResponse::Stats(StoreStats {
        repo_id: "ann/p".into(),
        objects: 7,
        cache: None,
        graph_commits: Some(5),
        delta_objects: Some(3),
        bloom_commits: Some(5),
    });
    let new_wire = r#"{"v":3,"result":{"type":"stats","stats":{"repo_id":"ann/p","objects":7,"graph_commits":5,"delta_objects":3,"bloom_commits":5}}}"#;
    assert_eq!(new_shape.encode(), new_wire);
    assert_eq!(ApiResponse::parse(new_wire).unwrap(), new_shape);
}
