//! The log is the hub's state: every denied or failed write is one
//! `ok=false` entry, and replaying a hub's log — with copies of its
//! repositories' object stores — rebuilds a hub that answers alike.

use super::*;
use crate::api::{ApiRequest, ApiResponse, ReplStatus};
use crate::server::Token;
use crate::zenodo::Deposit;
use citekit::{Citation, MergeStrategy};
use gitlite::{path, Signature};
use proptest::prelude::*;

const BASE: &str = "https://hub.example";

fn sig(t: i64) -> Signature {
    Signature::new("Someone", "s@x", t)
}

/// Replays `hub`'s log into a fresh hub. Each repository's store is a
/// copy of the original's, holding every object, reachable or not.
fn replay(hub: &Hub) -> Hub {
    let mut stores: HashMap<String, Box<dyn gitlite::ObjectStore>> = hub
        .cells()
        .into_iter()
        .map(|(id, cell)| (id, cell.read().repo.odb().clone_box()))
        .collect();
    let entries = hub.log.lock().entries();
    Hub::replay(BASE, entries, |id| {
        stores.remove(id).expect("one store per created repository")
    })
    .expect("the log replays")
}

fn repl_status(hub: &Hub) -> ReplStatus {
    match hub.dispatch(ApiRequest::ReplStatus) {
        ApiResponse::ReplStatus(status) => status,
        other => panic!("unexpected {other:?}"),
    }
}

/// The repositories' refs and HEADs, the deposits and the log length.
fn state(hub: &Hub) -> (Vec<crate::api::ReplRepoStatus>, Vec<Deposit>, u64) {
    let status = repl_status(hub);
    (status.repos, status.deposits, status.audit_seq)
}

#[test]
fn denied_writes_are_logged_once() {
    let hub = Hub::new(BASE);
    hub.register_user("owner", "The Owner").unwrap();
    hub.register_user("eve", "Eve").unwrap();
    let owner = hub.login("owner").unwrap();
    let eve = hub.login("eve").unwrap();
    let repo_id = hub.create_repo(&owner, "p").unwrap();
    let mut local = hub.clone_repo(&repo_id).unwrap();
    local
        .worktree_mut()
        .write(&path("a.txt"), &b"a\n"[..])
        .unwrap();
    local.commit(sig(50), "a").unwrap();
    hub.push(&owner, &repo_id, "main", &local, "main", false)
        .unwrap();
    let file = path("a.txt");
    let citation = Citation::builder("c", "eve").build();

    let denied = |action: &str, attempt: &dyn Fn() -> Result<()>| {
        let before = hub.audit_log().len();
        assert!(matches!(attempt(), Err(HubError::PermissionDenied(_))));
        let new = hub.audit_log().split_off(before);
        assert_eq!(new.len(), 1, "{action}: {new:?}");
        assert_eq!(new[0].action, action);
        assert_eq!(new[0].actor.as_deref(), Some("eve"));
        assert_eq!(new[0].target, repo_id);
        assert!(!new[0].ok);
    };
    denied("modify_cite", &|| {
        hub.modify_cite(&eve, &repo_id, "main", &file, citation.clone())
            .map(drop)
    });
    denied("push", &|| {
        hub.push(&eve, &repo_id, "main", &local, "main", false)
            .map(drop)
    });
    denied("merge", &|| {
        hub.merge_branches(&eve, &repo_id, "main", "main", MergeStrategy::Union)
            .map(drop)
    });
    denied("deposit", &|| {
        hub.deposit(&eve, &repo_id, "main", "v1").map(drop)
    });
    denied("add_member", &|| {
        hub.add_member(&eve, &repo_id, "eve", Role::Owner)
    });
}

#[test]
fn concurrent_writers_replay() {
    let hub = Hub::new(BASE);
    hub.register_user("owner", "The Owner").unwrap();
    let owner = hub.login("owner").unwrap();
    let cited = hub.create_repo(&owner, "cited").unwrap();
    let pushed = hub.create_repo(&owner, "pushed").unwrap();
    let mut local = hub.clone_repo(&cited).unwrap();
    for w in 0..4 {
        let file = format!("f{w}.txt");
        local
            .worktree_mut()
            .write(&path(&file), &b"x\n"[..])
            .unwrap();
    }
    local.commit(sig(10), "seed").unwrap();
    hub.push(&owner, &cited, "main", &local, "main", false)
        .unwrap();
    for w in 0..4 {
        let citation = Citation::builder("seed", "owner").build();
        hub.add_cite(
            &owner,
            &cited,
            "main",
            &path(&format!("f{w}.txt")),
            citation,
        )
        .unwrap();
    }

    // All five writers start together, so the cite ops contend for the
    // repository's write lock while the pushes land.
    let start = std::sync::Barrier::new(5);
    std::thread::scope(|scope| {
        for w in 0..4 {
            let (hub, owner, cited, start) = (&hub, &owner, &cited, &start);
            scope.spawn(move || {
                let file = path(&format!("f{w}.txt"));
                start.wait();
                for round in 0..25 {
                    let citation = Citation::builder(format!("c{w}-{round}"), "owner").build();
                    hub.modify_cite(owner, cited, "main", &file, citation)
                        .unwrap();
                }
            });
        }
        let (hub, owner, pushed, start) = (&hub, &owner, &pushed, &start);
        scope.spawn(move || {
            let mut local = hub.clone_repo(pushed).unwrap();
            start.wait();
            for round in 0..25 {
                let body = format!("round {round}\n").into_bytes();
                local.worktree_mut().write(&path("log.txt"), body).unwrap();
                local.commit(sig(100 + round), "push").unwrap();
                hub.push(owner, pushed, "main", &local, "main", false)
                    .unwrap();
            }
        });
    });

    let copy = replay(&hub);
    assert_eq!(state(&copy), state(&hub));
    assert_eq!(copy.audit_log(), hub.audit_log());
}

/// One generated operation: `(kind, a, b, c)`, decoded by [`Run::step`].
type Op = (u8, u8, u8, u8);

/// A generated run against one hub, with the client-side state it needs.
struct Run {
    hub: Hub,
    /// Per user: its latest token, whether it enrolled a secret, and how
    /// many wrong secrets it sent.
    tokens: [Option<Token>; 3],
    secrets: [bool; 3],
    failures: [u32; 3],
    /// The revisions archives reported, to resolve on both hubs.
    swhids: Vec<String>,
    /// Operations run so far; also the commit timestamps of local edits.
    steps: i64,
}

impl Run {
    fn user(n: u8) -> String {
        format!("u{}", n % 3)
    }

    fn secret(n: u8) -> String {
        format!("pw{}", n % 3)
    }

    fn token(&self, n: u8) -> Token {
        self.tokens[n as usize % 3]
            .clone()
            .unwrap_or_else(|| Token::new("ghp_none"))
    }

    fn repo(&self, n: u8) -> String {
        let repos = self.hub.list_repos();
        match repos.len() {
            0 => "u0/none".to_owned(),
            len => repos[n as usize % len].clone(),
        }
    }

    /// Applies one operation; its result does not matter, only that both
    /// hubs see the same history.
    fn step(&mut self, (kind, a, b, c): Op) {
        self.steps += 1;
        let hub = &self.hub;
        let (user, i) = (Run::user(a), a as usize % 3);
        let branch = if c % 4 == 0 { "dev" } else { "main" };
        let file = path(&format!("f{}.txt", c % 3));
        let citation = Citation::builder(format!("c{c}"), "someone").build();
        match kind % 16 {
            0 => {
                let with_secret = b % 2 == 0;
                let done = if with_secret {
                    hub.register_user_with_secret(&user, "User", &Run::secret(a))
                } else {
                    hub.register_user(&user, "User")
                };
                if done.is_ok() {
                    self.secrets[i] = with_secret;
                }
            }
            1 => {
                let token = if self.secrets[i] {
                    hub.login_with_secret(&user, &Run::secret(a))
                } else {
                    hub.login(&user)
                };
                if let Ok(token) = token {
                    self.tokens[i] = Some(token);
                }
            }
            // A wrong secret, kept well short of the lockout (session
            // state, which the log leaves out) with the final checks'
            // failed logins included.
            2 if self.failures[i] < 2 => {
                self.failures[i] += 1;
                let _ = hub.login_with_secret(&user, "wrong");
            }
            3 => {
                let _ = hub.create_repo(&self.token(a), &format!("r{}", b % 2));
            }
            4 => {
                let mut repo = Repository::init(format!("imported{c}"));
                repo.worktree_mut()
                    .write(&path("f0.txt"), format!("{c}\n").into_bytes())
                    .unwrap();
                repo.commit(sig(self.steps), "import").unwrap();
                if c % 2 == 0 {
                    repo.create_branch("side").unwrap();
                    repo.checkout_branch("side").unwrap();
                }
                let _ = hub.import_repo(&self.token(a), &format!("i{}", b % 2), repo);
            }
            5 => {
                let role = [Role::Reader, Role::Member, Role::Owner][c as usize % 3];
                let _ = hub.add_member(&self.token(a), &self.repo(b), &Run::user(c), role);
            }
            6 => {
                let _ = hub.add_cite(&self.token(a), &self.repo(b), branch, &file, citation);
            }
            7 => {
                let _ = hub.modify_cite(&self.token(a), &self.repo(b), branch, &file, citation);
            }
            8 => {
                let _ = hub.del_cite(&self.token(a), &self.repo(b), branch, &file);
            }
            9 => {
                let repo_id = self.repo(b);
                let Ok(mut local) = hub.clone_repo(&repo_id) else {
                    return;
                };
                if !local.has_branch(branch) {
                    local.create_branch(branch).unwrap();
                }
                local.checkout_branch(branch).unwrap();
                let body = format!("step {}\n", self.steps).into_bytes();
                local.worktree_mut().write(&file, body).unwrap();
                local.commit(sig(self.steps), "edit").unwrap();
                let _ = hub.push(&self.token(a), &repo_id, branch, &local, branch, false);
            }
            10 => {
                let mut stray = Repository::init("stray");
                stray
                    .worktree_mut()
                    .write(&path("stray.txt"), format!("{c}\n").into_bytes())
                    .unwrap();
                stray.commit(sig(self.steps), "stray").unwrap();
                let _ = hub.push(&self.token(a), &self.repo(b), "main", &stray, "main", false);
            }
            11 => {
                let _ = hub.fork(&self.token(a), &self.repo(b), &format!("f{}", c % 2));
            }
            12 => {
                let strategy = MergeStrategy::Union;
                let _ = hub.merge_branches(&self.token(a), &self.repo(b), "main", "dev", strategy);
            }
            13 => {
                let _ = hub.deposit(&self.token(a), &self.repo(b), branch, "release");
            }
            14 => {
                if let Ok(report) = hub.archive(&self.repo(b)) {
                    self.swhids.extend(report.heads);
                }
            }
            _ => {
                let _ = hub.generate_citation(&self.repo(b), "main", &file);
            }
        }
    }
}

fn assert_replays(run: &Run) {
    let (hub, copy) = (&run.hub, replay(&run.hub));
    assert_eq!(copy.audit_log(), hub.audit_log());
    assert_eq!(state(&copy), state(hub));
    let last = hub.audit_log().last().map_or(0, |e| e.timestamp);
    assert!(repl_status(&copy).epoch >= last);
    for (repo_id, _) in hub.cells() {
        for n in 0..3 {
            let user = Run::user(n);
            assert_eq!(copy.role_of(&repo_id, &user), hub.role_of(&repo_id, &user));
        }
        assert_eq!(copy.archive_visits(&repo_id), hub.archive_visits(&repo_id));
    }
    for deposit in state(hub).1 {
        assert_eq!(
            copy.resolve_doi(&deposit.doi),
            hub.resolve_doi(&deposit.doi)
        );
    }
    for swhid in &run.swhids {
        assert_eq!(
            copy.resolve_swhid(swhid).ok(),
            hub.resolve_swhid(swhid).ok()
        );
    }
    // Logins are compared last: they append to both logs.
    for n in 0..3 {
        let user = Run::user(n);
        for secret in [Run::secret(n), "wrong".to_owned()] {
            let (ours, theirs) = (
                hub.login_with_secret(&user, &secret),
                copy.login_with_secret(&user, &secret),
            );
            assert_eq!(theirs.is_ok(), ours.is_ok(), "{user} with {secret}");
            if let (Ok(ours), Ok(theirs)) = (ours, theirs) {
                assert_eq!(copy.whoami(&theirs), hub.whoami(&ours));
            }
        }
        let (ours, theirs) = (hub.login(&user), copy.login(&user));
        assert_eq!(theirs.is_ok(), ours.is_ok(), "{user} without a secret");
        if let (Ok(ours), Ok(theirs)) = (ours, theirs) {
            assert_eq!(copy.whoami(&theirs), hub.whoami(&ours));
        }
    }
}

proptest! {
    #[test]
    fn replaying_the_log_rebuilds_the_hub(
        ops in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..30),
    ) {
        let mut run = Run {
            hub: Hub::new(BASE),
            tokens: [None, None, None],
            secrets: [false; 3],
            failures: [0; 3],
            swhids: Vec::new(),
            steps: 0,
        };
        // Every run starts with its three users signed in and two
        // repositories, one holding files on `main` and `dev`, so that
        // short runs still write.
        let prologue = [
            (0, 0, 1, 0), (0, 1, 0, 0), (0, 2, 1, 0), (1, 0, 0, 0), (1, 1, 0, 0), (1, 2, 0, 0),
            (3, 1, 1, 0), (3, 0, 0, 0), (9, 0, 0, 1), (9, 0, 0, 2), (9, 0, 0, 3), (9, 0, 0, 4),
        ];
        for op in prologue {
            run.step(op);
        }
        for op in ops {
            run.step(op);
        }
        assert_replays(&run);
    }
}
