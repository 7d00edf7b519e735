//! A conflicted `gitcite merge` is concluded by `gitcite commit`: the
//! merge records the branch tip it brought in (`.gitcite/MERGE_HEAD`),
//! and the commit that follows the fix takes it as second parent, so the
//! branch's history joins the log and the merge is not raised again.

use gitcite_cli::{run, storage};
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gitcite-merge-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn ok(dir: &Path, args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    run(&args, dir).unwrap_or_else(|e| panic!("command {args:?} failed: {e}"))
}

fn commit(dir: &Path, body: &str, message: &str) -> String {
    std::fs::write(dir.join("f.txt"), body).unwrap();
    ok(dir, &["commit", "-m", message, "--author", "Ann"])
}

/// A repository in `dir` whose `main` and `dev` both edited the middle
/// line of the cited `f.txt`, merged into a stop; returns `dev`'s tip.
fn conflicted(dir: &Path) -> gitlite::ObjectId {
    ok(
        dir,
        &["init", "p", "--owner", "Ann", "--url", "https://h/p"],
    );
    commit(dir, "x\nmid\ny\n", "base");
    ok(
        dir,
        &["cite", "add", "f.txt", "--repo-name", "F", "--owner", "Ann"],
    );
    ok(dir, &["commit", "-m", "cite", "--author", "Ann"]);
    ok(dir, &["branch", "dev"]);
    ok(dir, &["checkout", "dev"]);
    commit(dir, "x\ndev\ny\n", "dev edit");
    let dev_tip = storage::load(dir).unwrap().head_commit().unwrap();
    ok(dir, &["checkout", "main"]);
    commit(dir, "x\nmain\ny\n", "main edit");
    let out = ok(dir, &["merge", "dev", "--author", "Ann"]);
    assert!(out.contains("merge stopped: 1 file conflict(s)"), "{out}");
    dev_tip
}

#[test]
fn a_conflicted_merge_is_concluded_by_the_next_commit() {
    let dir = temp_dir("conclude");
    let dev_tip = conflicted(&dir);
    assert_eq!(storage::merge_head(&dir).unwrap(), Some(dev_tip));
    let again = run(
        &[
            "merge".into(),
            "dev".into(),
            "--author".into(),
            "Ann".into(),
        ],
        &dir,
    );
    assert!(again.is_err(), "a second merge waits for the commit");
    let checkout = run(&["checkout".into(), "dev".into()], &dir);
    assert!(checkout.is_err(), "so does a checkout");

    let out = commit(&dir, "x\nresolved\ny\n", "resolve");
    assert!(out.starts_with("committed merge"), "{out}");
    assert_eq!(storage::merge_head(&dir).unwrap(), None);
    let repo = storage::load(&dir).unwrap();
    let merge = repo.commit_obj(repo.head_commit().unwrap()).unwrap();
    assert_eq!(merge.parents.len(), 2);
    assert_eq!(merge.parents[1], dev_tip);
    let log = ok(&dir, &["log"]);
    assert!(log.contains(&dev_tip.short()), "{log}");
    assert!(log.contains("dev edit"), "{log}");
    assert_eq!(
        std::fs::read_to_string(dir.join("f.txt")).unwrap(),
        "x\nresolved\ny\n"
    );

    let out = ok(&dir, &["merge", "dev", "--author", "Ann"]);
    assert_eq!(out, "already up to date\n");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The commit that concludes a merge reconciles the citation function
/// with the fixed files, as any commit does: deleting the cited file
/// drops its citation.
#[test]
fn concluding_a_merge_drops_the_citations_of_deleted_files() {
    let dir = temp_dir("prune");
    conflicted(&dir);
    std::fs::remove_file(dir.join("f.txt")).unwrap();
    ok(&dir, &["commit", "-m", "resolve", "--author", "Ann"]);
    let out = ok(&dir, &["validate"]);
    assert!(out.contains("consistent"), "{out}");
    std::fs::remove_dir_all(&dir).unwrap();
}
