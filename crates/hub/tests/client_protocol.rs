//! End-to-end protocol coverage: every method family driven through
//! [`HubClient`] over the [`InProcess`] transport — so each call is
//! encoded to the wire envelope, parsed by the hub, dispatched, and the
//! response parsed back. Anything that works here works over a socket.

use citekit::{Citation, CitedRepo, MergeStrategy};
use gitlite::{path, ObjectId, RepoPath, Repository, Signature};
use hub::api::MergeOutcome;
use hub::{ApiResponse, Hub, HubClient, HubError, Role, Token, Transport};
use std::sync::atomic::{AtomicUsize, Ordering};

fn client_hub() -> Hub {
    Hub::new("https://hub.example")
}

#[test]
fn auth_and_repo_lifecycle_over_the_wire() {
    let hub = client_hub();
    let client = HubClient::in_process(&hub);

    // Auth family.
    client.register_user("ann", "Ann A").unwrap();
    client.register_user("bob", "Bob B").unwrap();
    let ann = client.login("ann").unwrap();
    let bob = client.login("bob").unwrap();
    assert_eq!(client.whoami(&ann).unwrap().display_name, "Ann A");
    assert!(matches!(
        client.login("nobody"),
        Err(HubError::UserNotFound(_))
    ));

    // Repo CRUD family.
    let repo_id = client.create_repo(&ann, "proto").unwrap();
    assert_eq!(repo_id, "ann/proto");
    assert_eq!(client.list_repos().unwrap(), vec!["ann/proto".to_owned()]);
    client
        .add_member(&ann, &repo_id, "bob", Role::Member)
        .unwrap();
    assert_eq!(client.role_of(&repo_id, "bob").unwrap(), Some(Role::Member));
    assert!(client.can_write(&bob, &repo_id).unwrap());

    // Revoked tokens fail with a typed error reconstructed from its code.
    client.revoke(&bob).unwrap();
    assert!(matches!(
        client.can_write(&bob, &repo_id),
        Err(HubError::AuthFailed)
    ));
}

#[test]
fn reads_citations_and_sync_over_the_wire() {
    let hub = client_hub();
    let client = HubClient::in_process(&hub);
    client.register_user("ann", "Ann A").unwrap();
    let ann = client.login("ann").unwrap();
    let repo_id = client.create_repo(&ann, "proto").unwrap();

    // Clone over the wire, commit locally, push the objects back.
    let mut local = client.clone_repo(&repo_id).unwrap();
    local
        .worktree_mut()
        .write(&path("src/lib.rs"), &b"pub fn x() {}\n"[..])
        .unwrap();
    local
        .commit(Signature::new("Ann A", "a@x", 100), "add lib")
        .unwrap();
    client
        .push(&ann, &repo_id, "main", &local, "main", false)
        .unwrap();

    // Read family.
    assert_eq!(client.branches(&repo_id).unwrap(), vec!["main".to_owned()]);
    let files = client.list_files(&repo_id, "main").unwrap();
    assert!(files.contains(&path("src/lib.rs")));
    assert_eq!(
        client
            .read_file(&repo_id, "main", &path("src/lib.rs"))
            .unwrap(),
        b"pub fn x() {}\n"
    );
    let log = client.log(&repo_id, "main").unwrap();
    assert_eq!(log[0].message, "add lib");

    // Citation family.
    client
        .add_cite(
            &ann,
            &repo_id,
            "main",
            &path("src"),
            Citation::builder("proto-core", "Ann A")
                .author("Ann A")
                .build(),
        )
        .unwrap();
    let c = client
        .generate_citation(&repo_id, "main", &path("src/lib.rs"))
        .unwrap();
    assert_eq!(c.repo_name, "proto-core");
    let explicit = client
        .citation_entry(&repo_id, "main", &path("src"))
        .unwrap()
        .unwrap();
    assert_eq!(explicit.repo_name, "proto-core");
    let mut modified = explicit.clone();
    modified.note = Some("wire".into());
    client
        .modify_cite(&ann, &repo_id, "main", &path("src"), modified)
        .unwrap();
    client
        .del_cite(&ann, &repo_id, "main", &path("src"))
        .unwrap();
    assert!(client
        .citation_entry(&repo_id, "main", &path("src"))
        .unwrap()
        .is_none());

    // Sync family: fork + server-side merge.
    client.register_user("sue", "Sue S").unwrap();
    let sue = client.login("sue").unwrap();
    let fork_id = client.fork(&sue, &repo_id, "proto-fork").unwrap();
    assert_eq!(fork_id, "sue/proto-fork");
    let root = client
        .generate_citation(&fork_id, "main", &RepoPath::root())
        .unwrap();
    assert_eq!(root.owner, "Sue S");

    let mut work = CitedRepo::open(client.clone_repo(&repo_id).unwrap()).unwrap();
    work.create_branch("side").unwrap();
    work.checkout_branch("side").unwrap();
    work.write_file(&path("side.txt"), &b"side\n"[..]).unwrap();
    work.commit(Signature::new("Ann A", "a@x", 200), "side work")
        .unwrap();
    let work = work.into_repository();
    client
        .push(&ann, &repo_id, "side", &work, "side", false)
        .unwrap();
    let report = client
        .merge_branches(&ann, &repo_id, "main", "side", MergeStrategy::Union)
        .unwrap();
    assert!(matches!(
        report.outcome,
        MergeOutcome::Merged(_) | MergeOutcome::FastForwarded(_)
    ));
    assert!(client
        .list_files(&repo_id, "main")
        .unwrap()
        .contains(&path("side.txt")));

    // Non-fast-forward pushes come back as their own error code.
    let mut stale = CitedRepo::open(client.clone_repo(&fork_id).unwrap()).unwrap();
    stale.write_file(&path("stale.txt"), &b"s\n"[..]).unwrap();
    stale
        .commit(Signature::new("Ann A", "a@x", 300), "stale")
        .unwrap();
    let stale = stale.into_repository();
    assert!(matches!(
        client.push(&ann, &repo_id, "main", &stale, "main", false),
        Err(HubError::Git(gitlite::GitError::NonFastForward { .. }))
    ));
}

#[test]
fn archives_credit_and_operations_over_the_wire() {
    let hub = client_hub();
    let client = HubClient::in_process(&hub);
    client.register_user("ann", "Ann A").unwrap();
    let ann = client.login("ann").unwrap();
    let repo_id = client.create_repo(&ann, "proto").unwrap();

    // Archive family.
    let deposit = client.deposit(&ann, &repo_id, "main", "proto v1").unwrap();
    assert!(deposit.doi.starts_with("10.5281/zenodo."));
    assert_eq!(client.resolve_doi(&deposit.doi).unwrap().repo_id, repo_id);
    let report = client.archive(&repo_id).unwrap();
    assert_eq!(report.heads.len(), 1);
    assert!(client.resolve_swhid(&report.heads[0]).is_ok());
    assert_eq!(client.archive_visits(&repo_id).unwrap(), 1);
    assert!(matches!(
        client.archive_visits("ann/missing"),
        Err(HubError::RepoNotFound(id)) if id == "ann/missing"
    ));

    // Credit family.
    let credits = client.credited_authors(&repo_id, "main").unwrap();
    assert_eq!(credits[0].0, "Ann A");
    let citing = client.find_repos_citing("Ann A").unwrap();
    assert_eq!(citing.len(), 1);
    assert_eq!(citing[0].0, repo_id);

    // Operations family.
    let audit = client.audit_log().unwrap();
    assert!(audit.iter().any(|e| e.action == "deposit"));
    let stats = client.store_stats(&repo_id).unwrap();
    assert!(stats.objects > 0);
    let maintenance = client.maintenance().unwrap();
    assert_eq!(maintenance.len(), 1);
    assert!(!maintenance[0].supported, "mem stores have no gc");
}

#[test]
fn import_repo_over_the_wire_rehomes_objects() {
    let hub = client_hub();
    let client = HubClient::in_process(&hub);
    client.register_user("lab", "The Lab").unwrap();
    let lab = client.login("lab").unwrap();

    let mut legacy = Repository::init("legacy");
    legacy
        .worktree_mut()
        .write(&path("a.txt"), &b"a\n"[..])
        .unwrap();
    legacy
        .commit(Signature::new("Ada", "ada@x", 10), "first")
        .unwrap();
    let cited = citekit::retrofit(
        legacy,
        &citekit::RetrofitOptions::new("maintainers", "https://hub.example/lab/legacy"),
        Signature::new("Ada", "ada@x", 11),
    )
    .unwrap()
    .0;

    let repo_id = client.import_repo(&lab, "legacy", cited.repo()).unwrap();
    assert_eq!(repo_id, "lab/legacy");
    let c = client
        .generate_citation(&repo_id, "main", &path("a.txt"))
        .unwrap();
    assert!(!c.repo_name.is_empty());
    // Importing a contentless repository is refused.
    let empty = Repository::init("empty");
    assert!(matches!(
        client.import_repo(&lab, "empty", &empty),
        Err(HubError::Git(_))
    ));
}

/// Answers every request with one well-formed `count` response, which no
/// typed method generated from the hub's wrapper rows expects, and counts
/// the requests it saw.
struct CountOnly(AtomicUsize);

impl Transport for CountOnly {
    fn send(&self, _request: &str) -> String {
        self.0.fetch_add(1, Ordering::SeqCst);
        ApiResponse::Count(7).encode()
    }
}

#[test]
fn generated_methods_refuse_a_mismatched_response_shape() {
    let client = HubClient::new(CountOnly(AtomicUsize::new(0)));
    let t = Token::new("tok");
    let p = path("src/lib.rs");
    let id = ObjectId::hash_bytes(b"have");
    let cite = || Citation::builder("core", "Ann A").build();
    let results: Vec<(&str, hub::Result<()>)> = vec![
        (
            "register_user",
            client.register_user("ann", "Ann").map(drop),
        ),
        (
            "register_user_with_secret",
            client
                .register_user_with_secret("ann", "Ann", "s")
                .map(drop),
        ),
        ("login", client.login("ann").map(drop)),
        (
            "login_with_secret",
            client.login_with_secret("ann", "s").map(drop),
        ),
        ("refresh", client.refresh(&t).map(drop)),
        ("whoami", client.whoami(&t).map(drop)),
        ("role_of", client.role_of("ann/p", "bob").map(drop)),
        ("can_write", client.can_write(&t, "ann/p").map(drop)),
        (
            "list_repos_page",
            client.list_repos_page(None, Some(2)).map(drop),
        ),
        ("branches", client.branches("ann/p").map(drop)),
        ("list_files", client.list_files("ann/p", "main").map(drop)),
        ("read_file", client.read_file("ann/p", "main", &p).map(drop)),
        (
            "log_page",
            client.log_page("ann/p", "main", None, None).map(drop),
        ),
        ("negotiate", client.negotiate("ann/p", &[id]).map(drop)),
        ("create_repo", client.create_repo(&t, "p").map(drop)),
        ("fork", client.fork(&t, "ann/p", "q").map(drop)),
        (
            "add_member",
            client
                .add_member(&t, "ann/p", "bob", Role::Member)
                .map(drop),
        ),
        (
            "generate_citation",
            client.generate_citation("ann/p", "main", &p).map(drop),
        ),
        (
            "citation_entry",
            client.citation_entry("ann/p", "main", &p).map(drop),
        ),
        (
            "merge_branches",
            client
                .merge_branches(&t, "ann/p", "main", "dev", MergeStrategy::Ours)
                .map(drop),
        ),
        (
            "deposit",
            client.deposit(&t, "ann/p", "main", "v1").map(drop),
        ),
        (
            "resolve_doi",
            client.resolve_doi("10.5281/zenodo.1").map(drop),
        ),
        ("archive", client.archive("ann/p").map(drop)),
        (
            "credited_authors",
            client.credited_authors("ann/p", "main").map(drop),
        ),
        (
            "add_cite",
            client.add_cite(&t, "ann/p", "main", &p, cite()).map(drop),
        ),
        (
            "modify_cite",
            client
                .modify_cite(&t, "ann/p", "main", &p, cite())
                .map(drop),
        ),
        (
            "del_cite",
            client.del_cite(&t, "ann/p", "main", &p).map(drop),
        ),
        ("maintenance", client.maintenance().map(drop)),
        (
            "audit_log_page",
            client.audit_log_page(None, None).map(drop),
        ),
        ("store_stats", client.store_stats("ann/p").map(drop)),
        ("server_metrics", client.server_metrics(Some(&t)).map(drop)),
    ];
    assert_eq!(results.len(), 31, "one entry per generated method");
    for (name, result) in results {
        match result {
            Err(HubError::Protocol(msg)) => {
                assert!(msg.contains("(got count)"), "{name}: {msg}")
            }
            other => panic!("{name}: expected a protocol error, got {other:?}"),
        }
    }
    // One request per call: a shape mismatch is not retried.
    assert_eq!(client.transport().0.load(Ordering::SeqCst), 31);
}
