//! A hub merge whose regular files conflict is refused over the wire with
//! the typed `merge_conflicts` code and the number of conflicted files.
//! It moves nothing a client can see — refs, HEAD and the clone bundle
//! stay as they were — and it is logged as one `ok=false` entry. (The
//! blobs and trees the refused merge wrote stay in the store,
//! unreachable.)

use citekit::{CitedRepo, MergeStrategy};
use gitlite::{path, GitError, Signature};
use hub::api::{ApiRequest, ApiResponse, ErrorCode};
use hub::{Hub, HubError, RepoBundle};

fn sig(t: i64) -> Signature {
    Signature::new("Ann", "ann@x", t)
}

/// The repository as `clone_repo` ships it.
fn bundle(hub: &Hub, repo_id: &str) -> RepoBundle {
    let request = ApiRequest::CloneRepo {
        repo_id: repo_id.to_owned(),
    };
    match hub.dispatch(request).into_result().unwrap() {
        ApiResponse::Bundle(bundle) => bundle,
        other => panic!("unexpected response {other:?}"),
    }
}

#[test]
fn a_conflicting_merge_is_refused_with_its_count_and_moves_nothing() {
    let hub = Hub::new("https://h");
    hub.register_user("ann", "Ann").unwrap();
    let ann = hub.login("ann").unwrap();
    let repo_id = hub.create_repo(&ann, "p").unwrap();
    let mut local = CitedRepo::open(hub.clone_repo(&repo_id).unwrap()).unwrap();
    let files = [path("a.txt"), path("d/b.txt")];
    let write = |local: &mut CitedRepo, line: &str| {
        for f in &files {
            let body = format!("one\n{line}\nthree\n");
            local.write_file(f, body.into_bytes()).unwrap();
        }
    };
    write(&mut local, "two");
    local.commit(sig(10), "base").unwrap();
    local.create_branch("dev").unwrap();
    local.checkout_branch("dev").unwrap();
    write(&mut local, "dev");
    local.commit(sig(20), "dev").unwrap();
    local.checkout_branch("main").unwrap();
    write(&mut local, "main");
    local.write_file(&path("c.txt"), &b"c\n"[..]).unwrap();
    local.commit(sig(30), "main").unwrap();
    for branch in ["dev", "main"] {
        hub.push(&ann, &repo_id, branch, local.repo(), branch, false)
            .unwrap();
    }

    let before = bundle(&hub, &repo_id);
    let logged = hub.audit_log().unwrap().len();
    let request = ApiRequest::MergeBranches {
        token: ann.as_str().to_owned(),
        repo_id: repo_id.clone(),
        branch: "dev".into(),
        other_branch: "main".into(),
        strategy: MergeStrategy::Union,
    };
    let ApiResponse::Error(err) = ApiResponse::parse(&hub.handle_wire(&request.encode())).unwrap()
    else {
        panic!("a conflicting merge must fail");
    };
    assert_eq!(err.code, ErrorCode::MergeConflicts);
    assert_eq!(err.detail.as_deref(), Some("2"));
    assert_eq!(err.into_hub(), HubError::Git(GitError::MergeConflicts(2)));

    let log = hub.audit_log().unwrap();
    let new: Vec<_> = log[logged..]
        .iter()
        .map(|e| (e.action.as_str(), e.target.as_str(), e.ok))
        .collect();
    assert_eq!(new, vec![("merge", repo_id.as_str(), false)]);
    // HEAD stays on `main`, not on the branch the merge was into.
    assert_eq!(before.head.as_deref(), Some("main"));
    assert_eq!(bundle(&hub, &repo_id), before);
}
