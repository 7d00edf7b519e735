//! Concurrency stress: one hub serving many clients at once.
//!
//! Readers generate citations and clone while writers add/modify/delete
//! citations and push. The test asserts the hub never deadlocks, never
//! loses a successful write, and keeps its audit sequence dense.

use citekit::Citation;
use gitlite::{path, RepoPath, Signature};
use hub::{Hub, Role};
use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn concurrent_readers_and_writers() {
    let hub = Hub::new("https://hub.example");
    hub.register_user("owner", "The Owner").unwrap();
    let owner = hub.login("owner").unwrap();
    let repo_id = hub.create_repo(&owner, "busy").unwrap();

    // Seed files f0..f7 via a push.
    let mut local = hub.clone_repo(&repo_id).unwrap();
    for i in 0..8 {
        local
            .worktree_mut()
            .write(
                &path(&format!("f{i}.txt")),
                format!("file {i}\n").into_bytes(),
            )
            .unwrap();
    }
    local
        .commit(Signature::new("The Owner", "o@x", 100), "seed")
        .unwrap();
    hub.push(&owner, &repo_id, "main", &local, "main", false)
        .unwrap();

    // Writers: four members each repeatedly cite "their" files.
    for w in 0..4 {
        let name = format!("member{w}");
        hub.register_user(&name, &format!("Member {w}")).unwrap();
        hub.add_member(&owner, &repo_id, &name, Role::Member)
            .unwrap();
    }

    let successes = AtomicUsize::new(0);
    let denials = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        // Writers.
        for w in 0..4 {
            let hub = &hub;
            let repo_id = &repo_id;
            let successes = &successes;
            scope.spawn(move || {
                let token = hub.login(&format!("member{w}")).unwrap();
                for round in 0..10 {
                    let file = path(&format!("f{}.txt", w * 2 + round % 2));
                    let citation =
                        Citation::builder(format!("c-{w}-{round}"), format!("Member {w}")).build();
                    // Add or modify depending on current state; both are
                    // legitimate outcomes under concurrency.
                    let added = hub.add_cite(&token, repo_id, "main", &file, citation.clone());
                    if added.is_err() {
                        let _ = hub.modify_cite(&token, repo_id, "main", &file, citation);
                    }
                    successes.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // Readers: anonymous citation generation and clones.
        for _ in 0..4 {
            let hub = &hub;
            let repo_id = &repo_id;
            scope.spawn(move || {
                for i in 0..25 {
                    let q = path(&format!("f{}.txt", i % 8));
                    let c = hub.generate_citation(repo_id, "main", &q).unwrap();
                    assert!(!c.repo_name.is_empty());
                    if i % 10 == 0 {
                        let clone = hub.clone_repo(repo_id).unwrap();
                        assert!(clone.head_commit().is_ok());
                    }
                }
            });
        }
        // A hostile visitor hammering writes that must all be denied.
        {
            let hub = &hub;
            let repo_id = &repo_id;
            let denials = &denials;
            scope.spawn(move || {
                hub.register_user("intruder", "Intruder").unwrap();
                let token = hub.login("intruder").unwrap();
                for _ in 0..20 {
                    let r = hub.add_cite(
                        &token,
                        repo_id,
                        "main",
                        &RepoPath::root(),
                        Citation::builder("evil", "Intruder").build(),
                    );
                    assert!(r.is_err());
                    denials.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });

    assert_eq!(successes.load(Ordering::Relaxed), 40);
    assert_eq!(denials.load(Ordering::Relaxed), 20);

    // The repository is intact and every written citation is resolvable.
    let log = hub.log(&repo_id, "main").unwrap();
    assert!(log.len() > 2, "writes landed as commits");
    for i in 0..8 {
        let c = hub
            .generate_citation(&repo_id, "main", &path(&format!("f{i}.txt")))
            .unwrap();
        assert!(!c.repo_name.is_empty());
    }
    // Audit log is dense and includes the denials.
    let audit = hub.audit_log().unwrap();
    for (i, e) in audit.iter().enumerate() {
        assert_eq!(e.seq, i as u64);
    }
    let denied = audit
        .iter()
        .filter(|e| e.action == "add_cite" && !e.ok)
        .count();
    assert!(denied >= 20, "intruder denials audited (got {denied})");
}
