//! Cross-crate lifecycle: a project is born on the platform, developed
//! locally, released with a DOI (Zenodo simulator), forked, retrofitted
//! and archived (Software Heritage simulator) — exercising every subsystem
//! together, including the paper's three future-work extensions.

use citekit::{retrofit_history, Citation, CitedRepo, RetrofitOptions};
use gitlite::{path, RepoPath, Repository, Signature};
use hub::{Hub, Role};

#[test]
fn full_release_and_fork_lifecycle() {
    let hub = Hub::new("https://hub.example");
    hub.register_user("leshang", "Leshang Chen").unwrap();
    hub.register_user("susan", "Susan Davidson").unwrap();
    let leshang = hub.login("leshang").unwrap();
    let susan = hub.login("susan").unwrap();

    // Born on the platform.
    let repo_id = hub.create_repo(&leshang, "citedb").unwrap();

    // Developed locally with the citekit API.
    let mut local = CitedRepo::open(hub.clone_repo(&repo_id).unwrap()).unwrap();
    local
        .write_file(&path("src/engine.rs"), &b"pub fn cite() {}\n"[..])
        .unwrap();
    local
        .write_file(&path("src/parser.rs"), &b"pub fn parse() {}\n"[..])
        .unwrap();
    local
        .add_cite(
            &path("src"),
            Citation::builder("citedb-core", "Leshang Chen")
                .author("Leshang Chen")
                .build(),
        )
        .unwrap();
    local
        .commit(Signature::new("Leshang Chen", "l@x", 1_000), "engine")
        .unwrap();
    hub.push(&leshang, &repo_id, "main", local.repo(), "main", false)
        .unwrap();

    // Released: Zenodo deposit mints a DOI, which is published into the
    // root citation, and the release is pushed back.
    let deposit = hub
        .deposit(&leshang, &repo_id, "main", "CiteDB v1.0")
        .unwrap();
    assert_eq!(deposit.doi, "10.5281/zenodo.1");
    let mut local = CitedRepo::open(hub.clone_repo(&repo_id).unwrap()).unwrap();
    local
        .publish(
            Signature::new("Leshang Chen", "l@x", 2_000),
            Some("v1.0"),
            Some(&deposit.doi),
        )
        .unwrap();
    hub.push(&leshang, &repo_id, "main", local.repo(), "main", false)
        .unwrap();

    // Citations now carry the DOI, everywhere the root resolves.
    let c = hub
        .generate_citation(&repo_id, "main", &path("src/parser.rs"))
        .unwrap();
    assert_eq!(c.repo_name, "citedb-core"); // explicit dir citation
    let c = hub
        .generate_citation(&repo_id, "main", &RepoPath::root())
        .unwrap();
    assert_eq!(c.doi.as_deref(), Some("10.5281/zenodo.1"));
    assert_eq!(c.version.as_deref(), Some("v1.0"));
    // The DOI resolves back to the frozen deposit.
    let resolved = hub.resolve_doi("10.5281/zenodo.1").unwrap();
    assert_eq!(resolved.repo_id, repo_id);
    assert_eq!(resolved.creators, vec!["Leshang Chen".to_owned()]);

    // Forked by another researcher; provenance is preserved.
    let fork_id = hub.fork(&susan, &repo_id, "citedb-susan").unwrap();
    let fork_root = hub
        .generate_citation(&fork_id, "main", &RepoPath::root())
        .unwrap();
    assert_eq!(fork_root.owner, "Susan Davidson");
    assert_eq!(
        fork_root.extra.get("forkedFrom").unwrap()["repoName"].as_str(),
        Some("citedb")
    );
    // The fork kept the interior citation.
    let c = hub
        .generate_citation(&fork_id, "main", &path("src/engine.rs"))
        .unwrap();
    assert_eq!(c.repo_name, "citedb-core");

    // Archived: everything reachable gets intrinsic SWHIDs.
    let report = hub.archive(&repo_id).unwrap();
    assert!(!report.heads.is_empty());
    for head in &report.heads {
        assert!(hub.resolve_swhid(head).is_ok());
    }
    // Identical objects in the fork are already archived (dedup): a second
    // archive of the fork adds only its restamp commit chain.
    let fork_report = hub.archive(&fork_id).unwrap();
    assert!(
        fork_report.new_objects.2 >= 1,
        "fork's restamp commit is new"
    );

    // The audit log saw the whole story.
    let actions: Vec<String> = hub
        .audit_log()
        .unwrap()
        .iter()
        .map(|e| e.action.clone())
        .collect();
    for expected in [
        "create_repo",
        "push",
        "deposit",
        "fork",
        "archive",
        "generate_citation",
    ] {
        assert!(
            actions.iter().any(|a| a == expected),
            "missing audit action {expected}"
        );
    }
}

#[test]
fn retrofit_then_host_then_cite() {
    // A legacy, uncited project with two contributors.
    let mut legacy = Repository::init("legacy-sim");
    legacy
        .worktree_mut()
        .write(&path("solver/core.c"), &b"int solve;\n"[..])
        .unwrap();
    legacy
        .commit(Signature::new("Ada", "ada@x", 100), "solver")
        .unwrap();
    legacy
        .worktree_mut()
        .write(&path("viz/plot.py"), &b"plot()\n"[..])
        .unwrap();
    legacy
        .commit(Signature::new("Grace", "grace@x", 200), "viz")
        .unwrap();
    legacy
        .worktree_mut()
        .write(&path("solver/opt.c"), &b"int opt;\n"[..])
        .unwrap();
    legacy
        .commit(Signature::new("Ada", "ada@x", 300), "optimizer")
        .unwrap();

    // Rewrite its entire history with synthesized citations (future work
    // #2, the "preservation through the project history" variant).
    let opts = RetrofitOptions::new("maintainers", "https://hub.example/lab/legacy-sim");
    let (rewritten, map) = retrofit_history(&legacy, &opts).unwrap();
    assert_eq!(map.len(), 3);
    // Every rewritten version resolves citations, with per-team credit at
    // the tip.
    let cited = CitedRepo::open(rewritten).unwrap();
    assert_eq!(
        cited.cite(&path("solver/core.c")).unwrap().author_list,
        vec!["Ada"]
    );
    assert_eq!(
        cited.cite(&path("viz/plot.py")).unwrap().author_list,
        vec!["Grace"]
    );

    // Host the retrofitted project and serve citations over the API.
    let hub = Hub::new("https://hub.example");
    hub.register_user("lab", "The Lab").unwrap();
    let lab = hub.login("lab").unwrap();
    let repo_id = hub
        .import_repo(&lab, "legacy-sim", cited.into_repository())
        .unwrap();
    let c = hub
        .generate_citation(&repo_id, "main", &path("solver/opt.c"))
        .unwrap();
    assert_eq!(c.author_list, vec!["Ada"]);
    assert!(c.note.as_deref().unwrap_or("").contains("retroactive"));

    // Members can refine the synthesized citations through the popup path.
    hub.register_user("ada", "Ada").unwrap();
    let ada = hub.login("ada").unwrap();
    hub.add_member(&lab, &repo_id, "ada", Role::Member).unwrap();
    let mut refined = c.clone();
    refined.note = Some("hand-checked".into());
    hub.modify_cite(&ada, &repo_id, "main", &path("solver"), refined)
        .unwrap();
    let c = hub
        .generate_citation(&repo_id, "main", &path("solver/core.c"))
        .unwrap();
    assert_eq!(c.note.as_deref(), Some("hand-checked"));
}
