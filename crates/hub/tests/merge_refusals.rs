//! Hub merges that must be refused rather than committed. A file on one
//! side that meets a directory on the other is a file conflict, answered
//! over the wire as `merge_conflicts` like any other; a blob the merge
//! must read and cannot is `corrupt_object`, not an empty text. Neither
//! moves a ref.

use citekit::{CitedRepo, MergeStrategy};
use gitlite::{path, ObjectId, PackIndex, PackStore, Repository, Signature, PACK_DIR};
use hub::api::{ApiRequest, ApiResponse, ErrorCode, WireError};
use hub::{Hub, RepoBundle, Token};
use std::path::{Path, PathBuf};

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

/// `merge_branches` of `dev` into `main` over `handle_wire`, which must
/// fail.
fn refused_merge(hub: &Hub, token: &Token, repo_id: &str) -> WireError {
    let request = ApiRequest::MergeBranches {
        token: token.as_str().to_owned(),
        repo_id: repo_id.to_owned(),
        branch: "main".into(),
        other_branch: "dev".into(),
        strategy: MergeStrategy::Union,
    };
    match ApiResponse::parse(&hub.handle_wire(&request.encode())).unwrap() {
        ApiResponse::Error(err) => err,
        other => panic!("the merge must fail, got {other:?}"),
    }
}

/// A history whose base holds `b.txt` and `f.txt`: `main` edits the
/// first line of `f.txt`, `dev` its last, and `side` runs on each branch
/// after that.
fn history(side: impl Fn(&mut CitedRepo, &str)) -> Repository {
    let mut local = CitedRepo::init("p", "Ann", "https://h/ann/p");
    local.write_file(&path("b.txt"), &b"b\n"[..]).unwrap();
    local
        .write_file(&path("f.txt"), &b"1\n2\n3\n4\n5\n"[..])
        .unwrap();
    local.commit(sig(10), "base").unwrap();
    local.create_branch("dev").unwrap();
    for (branch, edit, t) in [
        ("dev", "1\n2\n3\n4\nD\n", 20),
        ("main", "M\n2\n3\n4\n5\n", 30),
    ] {
        local.checkout_branch(branch).unwrap();
        local
            .write_file(&path("f.txt"), edit.as_bytes().to_vec())
            .unwrap();
        side(&mut local, branch);
        local.commit(sig(t), branch).unwrap();
    }
    local.into_repository()
}

#[test]
fn a_file_meeting_a_directory_is_a_refused_conflict() {
    let hub = Hub::new("https://h");
    hub.register_user("ann", "Ann").unwrap();
    let ann = hub.login("ann").unwrap();
    let local = history(|local, branch| {
        let (at, body) = match branch {
            "main" => ("x", "a file\n"),
            _ => ("x/y", "under a directory\n"),
        };
        local
            .write_file(&path(at), body.as_bytes().to_vec())
            .unwrap();
    });
    let repo_id = hub.import_repo(&ann, "p", local).unwrap();

    let before = bundle(&hub, &repo_id);
    let logged = hub.audit_log().unwrap().len();
    let err = refused_merge(&hub, &ann, &repo_id);
    assert_eq!(err.code, ErrorCode::MergeConflicts);
    assert_eq!(err.detail.as_deref(), Some("1"));

    let log = hub.audit_log().unwrap();
    let new: Vec<_> = log[logged..]
        .iter()
        .map(|e| (e.action.as_str(), e.target.as_str(), e.ok))
        .collect();
    assert_eq!(new, vec![("merge", repo_id.as_str(), false)]);
    assert_eq!(bundle(&hub, &repo_id), before);
}

/// `local` hosted under `<dir>/repo-0` on a hub with pack storage and no
/// object cache, so every read reaches the disk: its base commit
/// imported, which writes one pack, then `dev` and `main` pushed, which
/// land their new objects loose.
fn hosted(dir: &Path, local: &Repository) -> (Hub, Token, String) {
    let _ = std::fs::remove_dir_all(dir);
    let root = dir.join("repo-0");
    let hub = Hub::with_store_factory(
        "https://h",
        Box::new(move || Box::new(PackStore::open(&root).unwrap())),
    );
    hub.register_user("ann", "Ann").unwrap();
    let ann = hub.login("ann").unwrap();
    let base = local.log_head().unwrap().last().copied().unwrap();
    let mut at_base = local.clone();
    at_base.delete_branch("dev").unwrap();
    at_base.set_branch("main", base).unwrap();
    let repo_id = hub.import_repo(&ann, "p", at_base).unwrap();
    for branch in ["dev", "main"] {
        hub.push(&ann, &repo_id, branch, local, branch, false)
            .unwrap();
    }
    (hub, ann, repo_id)
}

/// Flips the last byte of `id`'s record in the one pack under
/// `pack_dir`, found through the pack's own index.
fn flip_packed(pack_dir: &Path, id: ObjectId) {
    let file = |ext: &str| {
        std::fs::read_dir(pack_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == ext))
            .unwrap()
    };
    let index = PackIndex::parse(&std::fs::read(file("idx")).unwrap()).unwrap();
    let off = index.offset_of(id).expect("the import packed it") as usize;
    let pack = file("pack");
    let mut bytes = std::fs::read(&pack).unwrap();
    let len = u32::from_be_bytes(bytes[off + 20..off + 24].try_into().unwrap()) as usize;
    bytes[off + 24 + len - 1] ^= 0x01;
    std::fs::write(&pack, bytes).unwrap();
}

#[test]
fn an_unreadable_blob_fails_the_merge_and_moves_nothing() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("hub-merge-corrupt-{}", std::process::id()));
    let local = history(|_, _| {});
    let main = local.branch_tip("main").unwrap();
    let blob = local.blob_at(main, &path("f.txt")).unwrap();
    let (hub, ann, repo_id) = hosted(&dir, &local);
    let tips = hub.branches(&repo_id).unwrap();

    // The push left the blob loose.
    let hex = blob.to_hex();
    let file = dir.join("repo-0").join(&hex[..2]).join(&hex[2..]);
    let mut bytes = std::fs::read(&file).unwrap();
    *bytes.last_mut().unwrap() ^= 0x01;
    std::fs::write(&file, bytes).unwrap();

    let err = refused_merge(&hub, &ann, &repo_id);
    assert_eq!(err.code, ErrorCode::CorruptObject);
    let detail = err.detail.unwrap_or_default();
    assert!(detail.contains(&blob.short()), "{detail}");
    assert_eq!(hub.branches(&repo_id).unwrap(), tips);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_unreadable_packed_blob_fails_the_merge_and_moves_nothing() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("hub-merge-corrupt-pack-{}", std::process::id()));
    let local = history(|_, _| {});
    let base = local.log_head().unwrap().last().copied().unwrap();
    let blob = local.blob_at(base, &path("f.txt")).unwrap();
    let (hub, ann, repo_id) = hosted(&dir, &local);
    let tips = hub.branches(&repo_id).unwrap();

    // The import packed the merge base's blob, and nothing has read it.
    flip_packed(&dir.join("repo-0").join(PACK_DIR), blob);

    let err = refused_merge(&hub, &ann, &repo_id);
    assert_eq!(err.code, ErrorCode::CorruptObject);
    let detail = err.detail.unwrap_or_default();
    assert!(detail.contains(&blob.short()), "{detail}");
    assert_eq!(hub.branches(&repo_id).unwrap(), tips);
    std::fs::remove_dir_all(&dir).unwrap();
}
