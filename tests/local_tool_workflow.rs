//! The paper's §3 local-tool workflow, end to end across crates:
//! "When a project member downloads a copy of the project repository with
//! Git, the GitCite local executable tool can be used to manage the
//! citation file in the download ... When changes to files and their
//! citations are finally committed, the Git command is used to push the
//! local copy (which contains citation.cite) to the remote repository."
//!
//! Plus failure injection: corrupted citation files and corrupted on-disk
//! object stores must fail loudly, not quietly mis-credit anyone.

use citekit::CitedRepo;
use gitcite_cli::{run, storage};
use gitlite::{path, Signature};
use hub::Hub;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gitcite-workflow-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn cli(dir: &Path, args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    match run(&args, dir) {
        Ok(out) => out,
        Err(e) => panic!("cli {args:?} failed: {e}"),
    }
}

#[test]
fn download_manage_push_cycle() {
    // A hosted project with one file.
    let hub = Hub::new("https://hub.example");
    hub.register_user("leshang", "Leshang Chen").unwrap();
    let token = hub.login("leshang").unwrap();
    let repo_id = hub.create_repo(&token, "P1").unwrap();
    let mut seed = CitedRepo::open(hub.clone_repo(&repo_id).unwrap()).unwrap();
    seed.write_file(&path("src/engine.rs"), &b"pub fn run() {}\n"[..])
        .unwrap();
    seed.commit(Signature::new("Leshang Chen", "l@x", 100), "engine")
        .unwrap();
    hub.push(&token, &repo_id, "main", seed.repo(), "main", false)
        .unwrap();

    // 1. "Downloads a copy of the project repository with Git": the clone
    //    is persisted to a working directory the local tool owns.
    let workdir = temp_dir("download");
    let clone = hub.clone_repo(&repo_id).unwrap();
    storage::save(&workdir, &clone).unwrap();
    assert!(workdir.join("src/engine.rs").is_file());
    assert!(workdir.join("citation.cite").is_file());

    // 2. Manage the citation file in the download with the local tool.
    cli(
        &workdir,
        &[
            "cite",
            "add",
            "src",
            "--repo-name",
            "P1-core",
            "--authors",
            "Leshang Chen",
        ],
    );
    // The user also edits a file with their editor.
    std::fs::write(workdir.join("src/util.rs"), b"pub fn util() {}\n").unwrap();
    cli(
        &workdir,
        &[
            "commit",
            "-m",
            "cite core, add util",
            "--author",
            "Leshang Chen",
        ],
    );
    let shown = cli(&workdir, &["cite", "show", "src/util.rs"]);
    assert!(shown.contains("P1-core"));

    // 3. Push the local copy (which contains citation.cite) back.
    let local = storage::load(&workdir).unwrap();
    hub.push(&token, &repo_id, "main", &local, "main", false)
        .unwrap();

    // The hosted repository now serves the new citation to everyone.
    let c = hub
        .generate_citation(&repo_id, "main", &path("src/util.rs"))
        .unwrap();
    assert_eq!(c.repo_name, "P1-core");
    let files = hub.list_files(&repo_id, "main").unwrap();
    assert!(files.contains(&path("src/util.rs")));

    let _ = std::fs::remove_dir_all(&workdir);
}

#[test]
fn corrupted_citation_file_is_rejected() {
    let workdir = temp_dir("badcite");
    cli(
        &workdir,
        &["init", "P", "--owner", "O", "--url", "https://x/P"],
    );
    std::fs::write(workdir.join("f.txt"), b"x\n").unwrap();
    cli(&workdir, &["commit", "-m", "v1", "--author", "O"]);
    // Vandalize the citation file on disk.
    std::fs::write(workdir.join("citation.cite"), b"{ not json").unwrap();
    let args: Vec<String> = ["cite", "show", "f.txt"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let err = run(&args, &workdir).unwrap_err();
    assert!(err.to_string().contains("citation.cite"), "{err}");
    let _ = std::fs::remove_dir_all(&workdir);
}

#[test]
fn missing_root_entry_is_rejected() {
    let workdir = temp_dir("noroot");
    cli(
        &workdir,
        &["init", "P", "--owner", "O", "--url", "https://x/P"],
    );
    std::fs::write(workdir.join("f.txt"), b"x\n").unwrap();
    cli(&workdir, &["commit", "-m", "v1", "--author", "O"]);
    // A syntactically valid citation file without the mandatory "/" entry.
    std::fs::write(
        workdir.join("citation.cite"),
        b"{\"/f.txt\": {\"repoName\": \"x\"}}\n",
    )
    .unwrap();
    let args: Vec<String> = ["status"].iter().map(|s| s.to_string()).collect();
    let err = run(&args, &workdir).unwrap_err();
    assert!(err.to_string().contains("root"), "{err}");
    let _ = std::fs::remove_dir_all(&workdir);
}

#[test]
fn corrupted_object_store_fails_loudly() {
    let workdir = temp_dir("badodb");
    cli(
        &workdir,
        &["init", "P", "--owner", "O", "--url", "https://x/P"],
    );
    std::fs::write(workdir.join("f.txt"), b"x\n").unwrap();
    cli(&workdir, &["commit", "-m", "v1", "--author", "O"]);
    // Truncate every stored object file.
    let objects = workdir.join(".gitcite/objects");
    for bucket in std::fs::read_dir(&objects).unwrap() {
        let bucket = bucket.unwrap().path();
        for obj in std::fs::read_dir(&bucket).unwrap() {
            let obj = obj.unwrap().path();
            std::fs::write(&obj, b"garbage").unwrap();
        }
    }
    assert!(storage::load(&workdir).is_err());
    let _ = std::fs::remove_dir_all(&workdir);
}

#[test]
fn a_tampered_old_blob_spares_reads_but_fails_gc() {
    let workdir = temp_dir("tampered-pack");
    cli(
        &workdir,
        &["init", "P", "--owner", "O", "--url", "https://x/P"],
    );
    std::fs::write(workdir.join("f.txt"), b"first version\n").unwrap();
    cli(&workdir, &["commit", "-m", "v1", "--author", "O"]);
    std::fs::write(workdir.join("f.txt"), b"second version\n").unwrap();
    cli(&workdir, &["commit", "-m", "v2", "--author", "O"]);
    cli(&workdir, &["gc"]);
    // Flip one byte of the first version's blob, which HEAD no longer
    // holds, inside the pack.
    let pack_dir = workdir.join(".gitcite/objects/pack");
    let pack = std::fs::read_dir(&pack_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "pack"))
        .unwrap();
    let mut bytes = std::fs::read(&pack).unwrap();
    let stored = b"blob 14\0first version\n";
    let at = bytes
        .windows(stored.len())
        .position(|w| w == stored)
        .expect("the old blob is stored full");
    bytes[at + stored.len() - 2] ^= 0x01;
    std::fs::write(&pack, bytes).unwrap();

    // Commands that never read the old blob still answer...
    let shown = cli(&workdir, &["cite", "show", "f.txt"]);
    assert!(shown.contains("https://x/P"), "{shown}");
    cli(&workdir, &["log"]);
    // ...but gc, which must read every reachable object, fails loudly
    // and leaves the pack in place.
    let args: Vec<String> = ["gc"].iter().map(|s| s.to_string()).collect();
    let err = run(&args, &workdir).unwrap_err().to_string();
    assert!(err.contains("corrupt"), "{err}");
    assert!(pack.exists());
    let _ = std::fs::remove_dir_all(&workdir);
}

#[test]
fn two_members_working_copies_converge_via_hub() {
    let hub = Hub::new("https://hub.example");
    hub.register_user("alice", "Alice").unwrap();
    hub.register_user("bob", "Bob").unwrap();
    let alice = hub.login("alice").unwrap();
    let bob = hub.login("bob").unwrap();
    let repo_id = hub.create_repo(&alice, "shared").unwrap();
    hub.add_member(&alice, &repo_id, "bob", hub::Role::Member)
        .unwrap();

    // Alice's working copy adds a cited file and pushes.
    let dir_a = temp_dir("alice");
    storage::save(&dir_a, &hub.clone_repo(&repo_id).unwrap()).unwrap();
    std::fs::write(dir_a.join("a.txt"), b"alice's file\n").unwrap();
    cli(&dir_a, &["commit", "-m", "a", "--author", "Alice"]);
    cli(
        &dir_a,
        &[
            "cite",
            "add",
            "a.txt",
            "--repo-name",
            "A-part",
            "--authors",
            "Alice",
        ],
    );
    cli(&dir_a, &["commit", "-m", "cite a", "--author", "Alice"]);
    hub.push(
        &alice,
        &repo_id,
        "main",
        &storage::load(&dir_a).unwrap(),
        "main",
        false,
    )
    .unwrap();

    // Bob downloads after Alice's push, adds his own cited file, pushes.
    let dir_b = temp_dir("bob");
    storage::save(&dir_b, &hub.clone_repo(&repo_id).unwrap()).unwrap();
    assert!(
        dir_b.join("a.txt").is_file(),
        "bob's download includes alice's work"
    );
    std::fs::write(dir_b.join("b.txt"), b"bob's file\n").unwrap();
    cli(&dir_b, &["commit", "-m", "b", "--author", "Bob"]);
    cli(
        &dir_b,
        &[
            "cite",
            "add",
            "b.txt",
            "--repo-name",
            "B-part",
            "--authors",
            "Bob",
        ],
    );
    cli(&dir_b, &["commit", "-m", "cite b", "--author", "Bob"]);
    hub.push(
        &bob,
        &repo_id,
        "main",
        &storage::load(&dir_b).unwrap(),
        "main",
        false,
    )
    .unwrap();

    // The hosted project credits both.
    assert_eq!(
        hub.generate_citation(&repo_id, "main", &path("a.txt"))
            .unwrap()
            .repo_name,
        "A-part"
    );
    assert_eq!(
        hub.generate_citation(&repo_id, "main", &path("b.txt"))
            .unwrap()
            .repo_name,
        "B-part"
    );
    let credits = hub.credited_authors(&repo_id, "main").unwrap();
    let names: Vec<&str> = credits.iter().map(|(a, _)| a.as_str()).collect();
    assert!(names.contains(&"Alice") && names.contains(&"Bob"));

    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// Every worktree file under `dir` (not `.gitcite/`) with its mtime.
fn mtimes(dir: &Path) -> BTreeMap<PathBuf, SystemTime> {
    fn walk(d: &Path, out: &mut BTreeMap<PathBuf, SystemTime>) {
        for entry in std::fs::read_dir(d).unwrap() {
            let p = entry.unwrap().path();
            if p.file_name().is_some_and(|n| n == storage::META_DIR) {
                continue;
            }
            if p.is_dir() {
                walk(&p, out);
            } else {
                let mtime = std::fs::metadata(&p).unwrap().modified().unwrap();
                out.insert(p, mtime);
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, &mut out);
    out
}

#[test]
fn commands_leave_untouched_files_untouched() {
    let workdir = temp_dir("mtime");
    cli(
        &workdir,
        &["init", "P", "--owner", "O", "--url", "https://x/P"],
    );
    for i in 0..12 {
        let file = workdir.join(format!("src/m{}/f{i}.rs", i % 3));
        std::fs::create_dir_all(file.parent().unwrap()).unwrap();
        std::fs::write(file, format!("pub fn f{i}() {{}}\n")).unwrap();
    }
    cli(&workdir, &["commit", "-m", "v1", "--author", "O"]);
    std::fs::write(workdir.join("src/m1/f4.rs"), b"pub fn f4() { edited() }\n").unwrap();

    // Age every worktree file, so a rewrite of any of them shows.
    let old = UNIX_EPOCH + Duration::from_secs(1_000_000_000);
    for file in mtimes(&workdir).keys() {
        let f = std::fs::File::options().write(true).open(file).unwrap();
        f.set_modified(old).unwrap();
    }
    let aged = mtimes(&workdir);
    assert!(aged.len() > 12 && aged.values().all(|t| *t == old));

    // A commit changes no worktree file.
    cli(&workdir, &["commit", "-m", "v2", "--author", "O"]);
    assert_eq!(mtimes(&workdir), aged);

    // A cite op changes only the citation file.
    cli(
        &workdir,
        &[
            "cite",
            "add",
            "src/m0",
            "--repo-name",
            "M0",
            "--authors",
            "O",
        ],
    );
    let after = mtimes(&workdir);
    assert_eq!(after.len(), aged.len());
    for (file, mtime) in &after {
        if file.ends_with("citation.cite") {
            assert_ne!(*mtime, old, "citation.cite was not written");
        } else {
            assert_eq!(*mtime, old, "{} was rewritten", file.display());
        }
    }
    let _ = std::fs::remove_dir_all(&workdir);
}
