//! The benchmark's inputs are a pure function of the seed, and its oracle
//! agrees with the real system: an in-process hub for every hub op class,
//! the CLI's own entry point for every developer command. A tampered
//! answer must fail the check.

use gitcite_e2ebench::drive::{Answer, Session};
use gitcite_e2ebench::gen::{
    self, Op, Project, ProjectSpec, Stream, MAIN, MEMBER, OWNER, PUSH_BRANCH,
};
use gitcite_e2ebench::gen::{DEVELOPER_NAME, MEMBER_NAME};
use gitcite_e2ebench::oracle::{finish, DevChecker, Expect};
use gitcite_e2ebench::workload::{self, DEVELOPER};
use hub::{Hub, HubClient, InProcess, RepoBundle, Role};
use std::path::PathBuf;

const SMALL: ProjectSpec = ProjectSpec {
    files: 40,
    citations: 8,
    commits: 30,
};

fn temp_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("e2ebench-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn visitor_mix() -> gen::Mix {
    workload::find("cite-deep").unwrap().mixes[0]
}

fn member_mix() -> gen::Mix {
    workload::find("edit-deep").unwrap().mixes[0]
}

fn first_ops(mut stream: Stream, n: usize) -> Vec<Op> {
    (0..n).map(|_| stream.next().unwrap()).collect()
}

fn bundle_bytes(p: &Project) -> Vec<(gitlite::ObjectId, Vec<u8>)> {
    let mut objects = RepoBundle::from_repository(&p.repo).unwrap().objects;
    objects.sort();
    objects
}

#[test]
fn the_seed_alone_determines_repositories_and_op_streams() {
    let (a, b, c) = (
        gen::project(SMALL, 5),
        gen::project(SMALL, 5),
        gen::project(SMALL, 6),
    );
    assert_eq!(bundle_bytes(&a), bundle_bytes(&b));
    assert_eq!(a.history, b.history);
    assert_ne!(a.tip(), c.tip());

    let nodes = |p: &Project| p.files.iter().chain(&p.dirs).cloned().collect::<Vec<_>>();
    let visitor = |p: &Project, seed| {
        first_ops(
            Stream::visitor(seed, 0, visitor_mix(), nodes(p), p.files.clone()),
            500,
        )
    };
    assert_eq!(visitor(&a, 5), visitor(&b, 5));
    assert_ne!(visitor(&a, 5), visitor(&c, 6));
    let member = |p: &Project, seed| {
        first_ops(
            Stream::member(seed, 0, member_mix(), p.files.clone(), Default::default()),
            200,
        )
    };
    assert_eq!(member(&a, 5), member(&b, 5));
    assert_ne!(member(&a, 5), member(&c, 6));
    let developer = |p: &Project, seed| first_ops(Stream::developer(seed, 0, DEVELOPER, p), 200);
    assert_eq!(developer(&a, 5), developer(&b, 5));
    assert_ne!(developer(&a, 5), developer(&c, 6));
}

/// An in-process hub hosting `project` the way the benchmark's set-up
/// does: imported by the owner, the member signed in with a pushed
/// branch of their own.
fn hosted(project: &Project, dir: &std::path::Path) -> (Hub, String) {
    let hub = Hub::with_pack_storage("https://hub.local", dir).unwrap();
    hub.register_user(OWNER, gen::OWNER_NAME).unwrap();
    hub.register_user(MEMBER, MEMBER_NAME).unwrap();
    let owner = hub.login(OWNER).unwrap();
    let repo_id = hub
        .import_repo(&owner, gen::PROJECT, project.repo.clone())
        .unwrap();
    hub.add_member(&owner, &repo_id, MEMBER, Role::Member)
        .unwrap();
    (hub, repo_id)
}

fn member_session<'h>(hub: &'h Hub, repo_id: &str, project: &Project) -> Session<InProcess<'h>> {
    let mut s = Session::new(HubClient::in_process(hub), repo_id);
    let token = s.client.login(MEMBER).unwrap();
    let mut local = project.repo.clone();
    local.create_branch(PUSH_BRANCH).unwrap();
    local.checkout_branch(PUSH_BRANCH).unwrap();
    s.client
        .push(&token, repo_id, PUSH_BRANCH, &local, PUSH_BRANCH, false)
        .unwrap();
    s.token = Some(token);
    s.local = Some(local);
    s
}

#[test]
fn the_oracle_agrees_with_an_in_process_hub_on_every_op_class() {
    let project = gen::project(SMALL, 11);
    let dir = temp_dir("oracle");

    // Visitors alone: every answer has one right value.
    let (hub, repo_id) = hosted(&project, &dir.join("visitors"));
    let expect = Expect::new(&project, false, false);
    let mut checker = expect.checker();
    let mut visitor = Session::new(HubClient::in_process(&hub), &repo_id);
    let nodes: Vec<_> = project.files.iter().chain(&project.dirs).cloned().collect();
    let mut classes = std::collections::BTreeSet::new();
    for op in first_ops(
        Stream::visitor(11, 1, visitor_mix(), nodes, project.files.clone()),
        400,
    ) {
        let answer = visitor.exec(&op).unwrap();
        checker
            .check(&op, &answer)
            .unwrap_or_else(|e| panic!("{e}"));
        classes.insert(op.class());
    }
    assert_eq!(classes.len(), 7, "every visitor class ran: {classes:?}");

    // A member editing while a visitor reads the moving tip.
    let (hub, repo_id) = hosted(&project, &dir.join("editors"));
    let expect = Expect::new(&project, true, true);
    let (targets, visitor_files): (Vec<_>, Vec<_>) = project
        .files
        .iter()
        .cloned()
        .enumerate()
        .partition(|(i, _)| i % 2 == 1);
    let targets: Vec<_> = targets.into_iter().map(|(_, f)| f).collect();
    let visitor_files: Vec<_> = visitor_files.into_iter().map(|(_, f)| f).collect();
    let cited = targets
        .iter()
        .filter(|f| project.explicit.contains_key(*f))
        .cloned()
        .collect();
    let mut member = member_session(&hub, &repo_id, &project);
    let mut reader = Session::new(HubClient::in_process(&hub), &repo_id);
    let (mut mc, mut rc) = (expect.checker(), expect.checker());
    let mut ms = Stream::member(11, 0, member_mix(), targets.clone(), cited);
    let mut nodes = visitor_files.clone();
    nodes.extend(project.dirs.iter().cloned());
    let mut rs = Stream::visitor(
        11,
        1,
        workload::find("edit-deep").unwrap().mixes[1],
        nodes,
        visitor_files,
    );
    for _ in 0..60 {
        let op = ms.next().unwrap();
        member.prepare(&op).unwrap();
        let answer = member.exec(&op).unwrap();
        mc.check(&op, &answer).unwrap_or_else(|e| panic!("{e}"));
        classes.insert(op.class());
        for _ in 0..3 {
            let op = rs.next().unwrap();
            let answer = reader.exec(&op).unwrap();
            rc.check(&op, &answer).unwrap_or_else(|e| panic!("{e}"));
        }
    }
    assert!(classes.len() >= 12, "every hub class ran: {classes:?}");
    let log = reader.client.log(&repo_id, MAIN).unwrap();
    finish(&expect, &[&mc, &rc], &log).unwrap();
    for (node, want) in mc.explicit_on(targets.iter()) {
        assert_eq!(
            reader.client.citation_entry(&repo_id, MAIN, &node).unwrap(),
            want
        );
    }

    // A tampered final history fails the end-of-run check.
    let mut bad = log.clone();
    bad[0].message.push('!');
    assert!(finish(&expect, &[&mc, &rc], &bad).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_developer_oracle_agrees_with_the_cli() {
    let project = gen::project(SMALL, 12);
    let dir = temp_dir("developer");
    let work = dir.join("checkout");
    std::fs::create_dir_all(&work).unwrap();
    gitcite_cli::storage::save(&work, &project.repo).unwrap();

    let hub =
        std::sync::Arc::new(Hub::with_pack_storage("https://hub.local", dir.join("hub")).unwrap());
    let server = hub::SocketServer::bind(std::sync::Arc::clone(&hub), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();
    hub.register_user("dev", DEVELOPER_NAME).unwrap();
    let token = hub.login("dev").unwrap();
    let repo_id = hub
        .import_repo(&token, gen::PROJECT, project.repo.clone())
        .unwrap();

    let run = |args: &[String]| gitcite_cli::run(args, &work).map_err(|e| e.to_string());
    let mut checker = DevChecker::new(&project, &repo_id, MAIN);
    let mut classes = std::collections::BTreeSet::new();
    for op in first_ops(Stream::developer(12, 0, DEVELOPER, &project), 80) {
        let args: Vec<String> = match &op {
            Op::Commit(file, text) => {
                std::fs::write(work.join(file.to_string()), text).unwrap();
                let date = citekit::format_iso8601(checker.next_commit_ts());
                [
                    "commit",
                    "-m",
                    &format!("edit {file}"),
                    "--author",
                    DEVELOPER_NAME,
                    "--date",
                    &date,
                ]
                .map(str::to_owned)
                .to_vec()
            }
            Op::CliCiteAdd(node, c) | Op::CliCiteModify(node, c) => {
                let verb = if matches!(op, Op::CliCiteAdd(..)) {
                    "add"
                } else {
                    "modify"
                };
                let authors = c.author_list.join(",");
                [
                    "cite",
                    verb,
                    &node.to_string(),
                    "--repo-name",
                    &c.repo_name,
                    "--owner",
                    &c.owner,
                    "--url",
                    &c.url,
                    "--authors",
                    &authors,
                ]
                .map(str::to_owned)
                .to_vec()
            }
            Op::CiteShow(node) => vec!["cite".into(), "show".into(), node.to_string()],
            Op::Log => vec!["log".into()],
            Op::HubPush => [
                "hub", "push", &repo_id, MAIN, "--remote", &addr, "--user", "dev",
            ]
            .map(str::to_owned)
            .to_vec(),
            other => panic!("{} is not a developer op", other.class()),
        };
        let out = run(&args).unwrap_or_else(|e| panic!("{args:?}: {e}"));
        checker.check(&op, &out).unwrap_or_else(|e| panic!("{e}"));
        classes.insert(op.class());
        // A tampered output fails the check and leaves the model alone.
        if matches!(op, Op::CiteShow(_)) {
            let tampered = out.replacen("component", "c0mponent", 1).replacen(
                &project.root.repo_name,
                "other",
                1,
            );
            assert!(
                checker.check(&op, &tampered).is_err(),
                "tampered: {tampered}"
            );
        }
    }
    assert_eq!(classes.len(), 6, "every developer class ran: {classes:?}");
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_tampered_hub_answer_fails_the_check() {
    let project = gen::project(SMALL, 13);
    let dir = temp_dir("tamper");
    let (hub, repo_id) = hosted(&project, &dir);
    let expect = Expect::new(&project, false, false);
    let mut session = Session::new(HubClient::in_process(&hub), &repo_id);
    let node = project.files[3].clone();
    let cases = [
        Op::GenCite(node.clone()),
        Op::CiteEntry(project.explicit.keys().next().unwrap().clone()),
        Op::ReadFile(node),
        Op::LogPage,
        Op::ListFiles,
        Op::Branches,
        Op::Clone,
    ];
    for op in cases {
        let answer = session.exec(&op).unwrap();
        expect.checker().check(&op, &answer).unwrap();
        let tampered = match answer {
            Answer::Citation(mut c) => {
                c.author_list.push("Someone Else".into());
                Answer::Citation(c)
            }
            Answer::Entry(e) => Answer::Entry(e.map(|mut c| {
                c.url.push('x');
                c
            })),
            Answer::File(mut f) => {
                f.push(b'!');
                Answer::File(f)
            }
            Answer::Page(mut p) => {
                p.items.swap(0, 1);
                Answer::Page(p)
            }
            Answer::Paths(mut p) => {
                p.pop();
                Answer::Paths(p)
            }
            Answer::Names(mut n) => {
                n.push("extra".into());
                Answer::Names(n)
            }
            Answer::Clone { tip, objects } => Answer::Clone {
                tip,
                objects: objects - 1,
            },
            other => panic!("unexpected {other:?}"),
        };
        assert!(
            expect.checker().check(&op, &tampered).is_err(),
            "{} accepted a tampered answer",
            op.class()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
