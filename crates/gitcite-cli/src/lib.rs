//! # gitcite-cli — the GitCite local executable tool
//!
//! The paper's second component: "a local executable tool which, in
//! addition to create/modify/delete functions, carries citations through
//! more complex GitHub functions like fork/merge/copy" (§1). Because it
//! "is based on Git, it is also compatible with any other online project
//! management website which uses Git" (§3) — here, with any repository
//! persisted in the `gitlite` substrate.
//!
//! The crate splits into:
//!
//! * [`storage`] — on-disk persistence (`.gitcite/` metadata + real
//!   worktree files),
//! * [`cli`] — argument parsing and the command implementations, pure
//!   enough to unit-test ([`cli::run`] maps `argv` → output string).
//!
//! The `gitcite` binary in `src/main.rs` is a thin wrapper over
//! [`cli::run`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod storage;

pub use cli::{run, CliError, USAGE};

#[cfg(test)]
mod tests {
    use super::cli::run;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    static COUNTER: AtomicU64 = AtomicU64::new(0);

    fn temp_dir() -> PathBuf {
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("gitcite-cli-test-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn cleanup(dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
    }

    fn gc(dir: &Path, args: &[&str]) -> Result<String, super::CliError> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&args, dir)
    }

    fn ok(dir: &Path, args: &[&str]) -> String {
        match gc(dir, args) {
            Ok(out) => out,
            Err(e) => panic!("command {args:?} failed: {e}"),
        }
    }

    fn write(dir: &Path, rel: &str, content: &str) {
        let p = dir.join(rel);
        std::fs::create_dir_all(p.parent().unwrap()).unwrap();
        std::fs::write(p, content).unwrap();
    }

    fn init_repo(dir: &Path) {
        ok(
            dir,
            &[
                "init",
                "P1",
                "--owner",
                "Leshang",
                "--url",
                "https://hub/P1",
            ],
        );
    }

    #[test]
    fn help_and_unknown_command() {
        let dir = temp_dir();
        assert!(ok(&dir, &["help"]).contains("USAGE"));
        assert!(ok(&dir, &[]).contains("USAGE"));
        assert!(gc(&dir, &["frobnicate"]).is_err());
        cleanup(&dir);
    }

    #[test]
    fn init_status_commit_log_cycle() {
        let dir = temp_dir();
        init_repo(&dir);
        // citation.cite materialized on disk.
        assert!(dir.join("citation.cite").is_file());
        let status = ok(&dir, &["status"]);
        assert!(status.contains("repository: P1"));
        assert!(status.contains("no commits yet"));

        write(&dir, "f1.txt", "hello\n");
        let out = ok(
            &dir,
            &[
                "commit",
                "-m",
                "V1",
                "--author",
                "Leshang",
                "--date",
                "2018-09-01T00:00:00Z",
            ],
        );
        assert!(out.starts_with("committed "));
        let log = ok(&dir, &["log"]);
        assert!(log.contains("V1"));
        assert!(log.contains("2018-09-01T00:00:00Z"));
        assert!(log.contains("Leshang"));
        // Double init refused.
        assert!(gc(&dir, &["init", "X", "--owner", "o", "--url", "u"]).is_err());
        cleanup(&dir);
    }

    #[test]
    fn cite_add_show_gen_del_flow() {
        let dir = temp_dir();
        init_repo(&dir);
        write(&dir, "f1.txt", "hello\n");
        ok(&dir, &["commit", "-m", "V1", "--author", "Leshang"]);

        // Uncited file resolves to the root.
        let shown = ok(&dir, &["cite", "show", "f1.txt"]);
        assert!(shown.contains("\"repoName\": \"P1\""));

        ok(
            &dir,
            &[
                "cite",
                "add",
                "f1.txt",
                "--repo-name",
                "C2",
                "--owner",
                "Leshang",
                "--authors",
                "Leshang,Susan",
                "--commit",
                "abc1234",
                "--date",
                "2018-09-02T00:00:00Z",
                "--url",
                "https://hub/P1/f1",
            ],
        );
        let shown = ok(&dir, &["cite", "show", "f1.txt"]);
        assert!(shown.contains("\"repoName\": \"C2\""));
        assert!(shown.contains("\"Susan\""));

        // BibTeX generation.
        let bib = ok(&dir, &["cite", "gen", "f1.txt", "--format", "bibtex"]);
        assert!(bib.starts_with("@software{"));
        let cff = ok(&dir, &["cite", "gen", "f1.txt", "--format", "cff"]);
        assert!(cff.starts_with("cff-version:"));

        // Path-union policy lists entry + root.
        let chain = ok(&dir, &["cite", "show", "f1.txt", "--policy", "path-union"]);
        assert!(chain.matches("repoName").count() >= 2);

        // Add twice fails; modify works; delete works.
        assert!(gc(&dir, &["cite", "add", "f1.txt", "--repo-name", "X"]).is_err());
        ok(
            &dir,
            &["cite", "modify", "f1.txt", "--json", r#"{"repoName":"C3"}"#],
        );
        let shown = ok(&dir, &["cite", "show", "f1.txt"]);
        assert!(shown.contains("C3"));
        ok(&dir, &["cite", "del", "f1.txt"]);
        let shown = ok(&dir, &["cite", "show", "f1.txt"]);
        assert!(shown.contains("\"repoName\": \"P1\""));
        cleanup(&dir);
    }

    #[test]
    fn mv_carries_and_validate_passes() {
        let dir = temp_dir();
        init_repo(&dir);
        write(&dir, "old/name.txt", "content\n");
        ok(&dir, &["commit", "-m", "V1", "--author", "L"]);
        ok(&dir, &["cite", "add", "old/name.txt", "--repo-name", "C"]);
        ok(&dir, &["mv", "old/name.txt", "new/renamed.txt"]);
        let shown = ok(&dir, &["cite", "show", "new/renamed.txt"]);
        assert!(shown.contains("\"repoName\": \"C\""));
        assert!(ok(&dir, &["validate"]).contains("consistent"));
        // rm drops the citation.
        ok(&dir, &["rm", "new/renamed.txt"]);
        assert!(ok(&dir, &["validate"]).contains("consistent"));
        cleanup(&dir);
    }

    #[test]
    fn branch_merge_flow() {
        let dir = temp_dir();
        init_repo(&dir);
        write(&dir, "base.txt", "base\n");
        ok(&dir, &["commit", "-m", "base", "--author", "L"]);
        ok(&dir, &["branch", "gui"]);
        ok(&dir, &["checkout", "gui"]);
        write(&dir, "gui/app.js", "app\n");
        ok(
            &dir,
            &[
                "cite",
                "add",
                "gui",
                "--repo-name",
                "GUI",
                "--authors",
                "Yanssie",
            ],
        );
        ok(&dir, &["commit", "-m", "gui work", "--author", "Yanssie"]);
        ok(&dir, &["checkout", "main"]);
        write(&dir, "main.txt", "main\n");
        ok(&dir, &["commit", "-m", "main work", "--author", "L"]);
        let out = ok(&dir, &["merge", "gui", "--author", "L"]);
        assert!(out.starts_with("merged as "), "{out}");
        // Merged branch resolves gui files to the gui citation.
        let shown = ok(&dir, &["cite", "show", "gui/app.js"]);
        assert!(shown.contains("GUI"));
        // Merging again: up to date.
        assert!(ok(&dir, &["merge", "gui", "--author", "L"]).contains("up to date"));
        cleanup(&dir);
    }

    #[test]
    fn copy_between_directories() {
        let src = temp_dir();
        let dst = temp_dir();
        // Source project with a cited subtree.
        ok(
            &src,
            &["init", "P2", "--owner", "Susan", "--url", "https://hub/P2"],
        );
        write(&src, "green/f1.txt", "g1\n");
        write(&src, "green/f2.txt", "g2\n");
        ok(
            &src,
            &[
                "cite",
                "add",
                "green/f1.txt",
                "--repo-name",
                "C3",
                "--owner",
                "Susan",
            ],
        );
        ok(&src, &["commit", "-m", "V3", "--author", "Susan"]);

        ok(
            &dst,
            &[
                "init",
                "P1",
                "--owner",
                "Leshang",
                "--url",
                "https://hub/P1",
            ],
        );
        write(&dst, "f1.txt", "p1\n");
        ok(&dst, &["commit", "-m", "V1", "--author", "Leshang"]);

        let out = ok(
            &dst,
            &[
                "copy",
                "--from",
                src.to_str().unwrap(),
                "--src",
                "green",
                "--dst",
                "imported",
            ],
        );
        assert!(out.contains("copied 2 file(s)"));
        assert!(out.contains("materialized"));
        assert!(dst.join("imported/f1.txt").is_file());
        ok(
            &dst,
            &["commit", "-m", "V4: CopyCite", "--author", "Leshang"],
        );
        let shown = ok(&dst, &["cite", "show", "imported/f1.txt"]);
        assert!(shown.contains("C3"));
        let shown = ok(&dst, &["cite", "show", "imported/f2.txt"]);
        assert!(shown.contains("\"repoName\": \"P2\""));
        cleanup(&src);
        cleanup(&dst);
    }

    #[test]
    fn fork_into_new_directory() {
        let src = temp_dir();
        let dst = temp_dir();
        std::fs::remove_dir_all(&dst).unwrap();
        ok(
            &src,
            &[
                "init",
                "P1",
                "--owner",
                "Leshang",
                "--url",
                "https://hub/P1",
            ],
        );
        write(&src, "a.txt", "a\n");
        ok(&src, &["commit", "-m", "V1", "--author", "Leshang"]);
        let out = ok(
            &src,
            &[
                "fork",
                "--to",
                dst.to_str().unwrap(),
                "--name",
                "P3",
                "--owner",
                "Susan",
                "--url",
                "https://hub/P3",
                "--author",
                "Susan",
            ],
        );
        assert!(out.contains("restamped: true"));
        // The fork is a working repository.
        let status = ok(&dst, &["status"]);
        assert!(status.contains("repository: P3"));
        let root = ok(&dst, &["cite", "show", ""]);
        assert!(root.contains("\"repoName\": \"P3\""));
        assert!(root.contains("forkedFrom"));
        cleanup(&src);
        cleanup(&dst);
    }

    #[test]
    fn publish_stamps_root() {
        let dir = temp_dir();
        init_repo(&dir);
        write(&dir, "a.txt", "a\n");
        ok(
            &dir,
            &[
                "commit",
                "-m",
                "V1",
                "--author",
                "L",
                "--date",
                "2018-09-04T02:35:20Z",
            ],
        );
        let out = ok(
            &dir,
            &[
                "publish",
                "--author",
                "L",
                "--version",
                "v1.0",
                "--doi",
                "10.5281/zenodo.7",
            ],
        );
        assert!(out.contains("2018-09-04T02:35:20Z"));
        let root = ok(&dir, &["cite", "show", ""]);
        assert!(root.contains("10.5281/zenodo.7"));
        assert!(root.contains("v1.0"));
        cleanup(&dir);
    }

    #[test]
    fn retro_on_plain_history() {
        let dir = temp_dir();
        // Build an *uncited* repository by hand through storage.
        let mut repo = gitlite::Repository::init("legacy");
        repo.worktree_mut()
            .write(&gitlite::path("core/a.rs"), &b"a\n"[..])
            .unwrap();
        repo.commit(gitlite::Signature::new("alice", "a@x", 100), "core")
            .unwrap();
        repo.worktree_mut()
            .write(&gitlite::path("gui/b.js"), &b"b\n"[..])
            .unwrap();
        repo.commit(gitlite::Signature::new("bob", "b@x", 200), "gui")
            .unwrap();
        super::storage::save(&dir, &repo).unwrap();

        let out = ok(
            &dir,
            &[
                "retro",
                "--owner",
                "maintainer",
                "--url",
                "https://hub/legacy",
                "--author",
                "m",
            ],
        );
        assert!(out.contains("retrofitted"));
        assert!(out.contains("/core/"));
        assert!(out.contains("/gui/"));
        // Now a first-class cited repository.
        let shown = ok(&dir, &["cite", "show", "core/a.rs"]);
        assert!(shown.contains("alice"));
        cleanup(&dir);
    }

    #[test]
    fn history_credits_annotate_commands() {
        let dir = temp_dir();
        init_repo(&dir);
        write(&dir, "f.txt", "line one\nline two\n");
        ok(
            &dir,
            &[
                "commit",
                "-m",
                "V1",
                "--author",
                "Ada",
                "--date",
                "2020-01-01T00:00:00Z",
            ],
        );
        // Never cited yet.
        assert!(ok(&dir, &["history", "f.txt"]).contains("never explicitly cited"));
        ok(
            &dir,
            &[
                "cite",
                "add",
                "f.txt",
                "--repo-name",
                "C1",
                "--authors",
                "Ada",
            ],
        );
        ok(&dir, &["commit", "-m", "cite", "--author", "Ada"]);
        ok(
            &dir,
            &[
                "cite",
                "modify",
                "f.txt",
                "--repo-name",
                "C2",
                "--authors",
                "Grace",
            ],
        );
        ok(&dir, &["commit", "-m", "recite", "--author", "Grace"]);
        let hist = ok(&dir, &["history", "f.txt"]);
        assert!(hist.contains("repo-C1") || hist.contains("C1"), "{hist}");
        assert!(hist.contains("C2"));
        // Credits lists both the root owner and the cited authors.
        let credits = ok(&dir, &["credits"]);
        assert!(credits.contains("Leshang"));
        assert!(credits.contains("Grace"));
        // Annotate: second line edited by Grace.
        write(&dir, "f.txt", "line one\nline two CHANGED\n");
        ok(&dir, &["commit", "-m", "edit", "--author", "Grace"]);
        let ann = ok(&dir, &["annotate", "f.txt"]);
        let lines: Vec<&str> = ann.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("Ada"));
        assert!(lines[1].contains("Grace"));
        cleanup(&dir);
    }

    #[test]
    fn gc_consolidates_loose_objects_and_keeps_citations_resolving() {
        let dir = temp_dir();
        init_repo(&dir);
        // Enough files that the loose layout holds well over 500 objects
        // (blobs + per-directory trees + commit objects) — far past the
        // auto-gc threshold, so the commit itself self-compacts.
        for i in 0..520 {
            write(
                &dir,
                &format!("d{}/f{i}.txt", i % 10),
                &format!("content {i}\n"),
            );
        }
        let out = ok(&dir, &["commit", "-m", "V1", "--author", "L"]);
        assert!(out.contains("auto-gc: packed "), "{out}");
        let objects = dir.join(".gitcite/objects");
        assert!(count_files(&objects) < 10, "auto-gc left the store compact");
        ok(&dir, &["cite", "add", "d0/f0.txt", "--repo-name", "C9"]);
        ok(&dir, &["commit", "-m", "V2", "--author", "L"]);
        // One abandoned branch commit so gc has something unreachable
        // after the branch is deleted... branches can't be deleted here,
        // so instead orphan objects via an external loose write.
        let orphan = gitlite::Blob::new(&b"orphan"[..]);
        {
            use gitlite::ObjectStore;
            let mut loose = gitlite::DiskStore::open(&objects).unwrap();
            loose.put_with_id(
                orphan.id(),
                std::sync::Arc::new(gitlite::Object::Blob(orphan.clone())),
            );
        }

        let out = ok(&dir, &["gc"]);
        assert!(out.contains("packed "), "{out}");
        assert!(out.contains("dropped 1 unreachable object(s)"), "{out}");

        // A handful of files remain: 1 pack + 1 idx + 1 commit-graph
        // under objects/.
        assert_eq!(count_files(&objects), 3, "pack + idx + graph only");
        assert!(out.contains("commit graph: "), "{out}");
        assert!(
            objects.join("pack").join(gitlite::GRAPH_FILE).is_file(),
            "gc wrote the commit-graph sidecar"
        );
        // And the reopened store actually serves walks from it.
        {
            use gitlite::ObjectStore;
            let store = gitlite::PackStore::open(&objects).unwrap();
            assert!(store.commit_graph().is_some());
        }

        // Everything still works: log, resolution, new commits.
        assert!(ok(&dir, &["log"]).contains("V2"));
        let shown = ok(&dir, &["cite", "show", "d0/f0.txt"]);
        assert!(shown.contains("\"repoName\": \"C9\""));
        let shown = ok(&dir, &["cite", "show", "d1/f1.txt"]);
        assert!(shown.contains("\"repoName\": \"P1\""));
        write(&dir, "after-gc.txt", "fresh\n");
        ok(&dir, &["commit", "-m", "V3", "--author", "L"]);
        assert!(ok(&dir, &["log"]).contains("V3"));
        // The orphan really is gone.
        {
            use gitlite::ObjectStore;
            let store = gitlite::PackStore::open(&objects).unwrap();
            assert!(!store.contains(orphan.id()));
        }
        cleanup(&dir);
    }

    fn count_files(dir: &Path) -> usize {
        let mut n = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                n += count_files(&path);
            } else {
                n += 1;
            }
        }
        n
    }

    #[test]
    fn long_edit_session_self_compacts() {
        use super::storage::AUTO_GC_THRESHOLD;
        let dir = temp_dir();
        init_repo(&dir);
        write(&dir, "notes.txt", "revision -1\n");
        ok(&dir, &["commit", "-m", "start", "--author", "L"]);
        ok(
            &dir,
            &["cite", "add", "notes.txt", "--repo-name", "P1-notes"],
        );
        // A long session of small commits (~3 loose objects each). The
        // save path must trigger gc on its own once the loose overflow
        // crosses the threshold — the user never runs `gitcite gc`.
        let mut auto_gc_runs = 0;
        for i in 0..30 {
            write(&dir, "notes.txt", &format!("revision {i}\n"));
            let out = ok(
                &dir,
                &["commit", "-m", &format!("edit {i}"), "--author", "L"],
            );
            if out.contains("auto-gc: packed ") {
                auto_gc_runs += 1;
            }
        }
        assert!(
            auto_gc_runs >= 1,
            "30 commits crossed the {AUTO_GC_THRESHOLD}-object threshold at least once"
        );
        // The store stays bounded: at most one pack + idx plus fewer than
        // a threshold's worth of fresh loose objects.
        let objects = dir.join(".gitcite/objects");
        assert!(
            count_files(&objects) < AUTO_GC_THRESHOLD + 2,
            "store self-compacted (found {} files)",
            count_files(&objects)
        );
        // Nothing was lost: full history and citations still resolve.
        let log = ok(&dir, &["log"]);
        assert!(log.contains("edit 0") && log.contains("edit 29"));
        let shown = ok(&dir, &["cite", "show", "notes.txt"]);
        assert!(shown.contains("\"repoName\": \"P1-notes\""));
        cleanup(&dir);
    }

    #[test]
    fn usage_errors_are_reported() {
        let dir = temp_dir();
        init_repo(&dir);
        assert!(matches!(
            gc(&dir, &["commit", "--author", "x"]),
            Err(super::CliError::Usage(_))
        ));
        assert!(matches!(
            gc(&dir, &["commit", "-m"]),
            Err(super::CliError::Usage(_))
        ));
        assert!(matches!(
            gc(&dir, &["cite", "frobnicate"]),
            Err(super::CliError::Usage(_))
        ));
        assert!(matches!(
            gc(&dir, &["cite", "show", "x", "--policy", "bogus"]),
            Err(super::CliError::Usage(_))
        ));
        cleanup(&dir);
    }

    #[test]
    fn init_adopts_existing_files() {
        let dir = temp_dir();
        write(&dir, "src/main.rs", "fn main() {}\n");
        write(&dir, "README.md", "# P1\n");
        init_repo(&dir);
        assert_eq!(
            std::fs::read_to_string(dir.join("src/main.rs")).unwrap(),
            "fn main() {}\n"
        );
        assert_eq!(
            std::fs::read_to_string(dir.join("README.md")).unwrap(),
            "# P1\n"
        );
        // The next commit records them.
        ok(&dir, &["commit", "-m", "V1", "--author", "Leshang"]);
        let repo = super::storage::load(&dir).unwrap();
        let head = repo.head_commit().unwrap();
        for file in ["src/main.rs", "README.md", "citation.cite"] {
            assert!(repo.file_at(head, &gitlite::path(file)).is_ok(), "{file}");
        }
        cleanup(&dir);
    }

    #[test]
    fn init_refuses_an_existing_citation_file() {
        let dir = temp_dir();
        write(&dir, "citation.cite", "{\"/\": {}}\n");
        let args = ["init", "P1", "--owner", "O", "--url", "u"];
        assert!(matches!(gc(&dir, &args), Err(super::CliError::Op(_))));
        assert!(!super::storage::exists(&dir));
        assert_eq!(
            std::fs::read_to_string(dir.join("citation.cite")).unwrap(),
            "{\"/\": {}}\n"
        );
        cleanup(&dir);
    }

    #[test]
    fn fork_refuses_a_non_empty_target() {
        let src = temp_dir();
        let dst = temp_dir();
        init_repo(&src);
        write(&src, "a.txt", "a\n");
        ok(&src, &["commit", "-m", "V1", "--author", "Leshang"]);
        write(&dst, "keep.txt", "mine\n");
        let to = dst.to_str().unwrap();
        let args = [
            "fork", "--to", to, "--name", "P3", "--owner", "S", "--url", "u", "--author", "S",
        ];
        assert!(matches!(gc(&src, &args), Err(super::CliError::Op(_))));
        assert_eq!(
            std::fs::read_to_string(dst.join("keep.txt")).unwrap(),
            "mine\n"
        );
        assert!(!super::storage::exists(&dst));
        cleanup(&src);
        cleanup(&dst);
    }

    #[test]
    fn checkout_across_a_file_directory_change() {
        let dir = temp_dir();
        init_repo(&dir);
        write(&dir, "a/b.txt", "nested\n");
        ok(&dir, &["commit", "-m", "V1", "--author", "Leshang"]);
        ok(&dir, &["branch", "dev"]);
        ok(&dir, &["checkout", "dev"]);
        std::fs::remove_dir_all(dir.join("a")).unwrap();
        write(&dir, "a", "flat\n");
        ok(&dir, &["commit", "-m", "V2", "--author", "Leshang"]);

        ok(&dir, &["checkout", "main"]);
        assert_eq!(
            std::fs::read_to_string(dir.join("a/b.txt")).unwrap(),
            "nested\n"
        );
        ok(&dir, &["checkout", "dev"]);
        assert_eq!(std::fs::read_to_string(dir.join("a")).unwrap(), "flat\n");
        assert!(ok(&dir, &["status"]).contains("branch: dev"));
        ok(&dir, &["checkout", "main"]);
        assert_eq!(
            std::fs::read_to_string(dir.join("a/b.txt")).unwrap(),
            "nested\n"
        );
        cleanup(&dir);
    }
}
