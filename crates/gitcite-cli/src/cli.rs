//! Command-line surface of the local tool.
//!
//! Parsing is hand-rolled (no third-party argument parser): positional
//! words first, then `--flag value` pairs in any order. Every command
//! returns its human-readable output as a `String` so the whole surface is
//! unit-testable without capturing stdout.

use crate::storage;
use bibformat::Format;
use citekit::{
    fork_cite, retrofit, validate, Citation, CitedRepo, FailOnConflict, ForkOptions,
    MergeCiteOutcome, MergeStrategy, PreferOurs, PreferTheirs, ResolvePolicy, RetrofitOptions,
};
use gitlite::{RepoPath, Signature};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// CLI failure: either a usage problem (message + exit code 2) or an
/// operational error (message + exit code 1).
#[derive(Debug)]
pub enum CliError {
    /// The invocation itself was malformed.
    Usage(String),
    /// The operation failed.
    Op(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Op(m) => write!(f, "error: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<citekit::CiteError> for CliError {
    fn from(e: citekit::CiteError) -> Self {
        CliError::Op(e.to_string())
    }
}

impl From<gitlite::GitError> for CliError {
    fn from(e: gitlite::GitError) -> Self {
        CliError::Op(e.to_string())
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Op(e.to_string())
    }
}

/// Result alias for CLI operations.
pub type Result<T> = std::result::Result<T, CliError>;

/// Parsed invocation: positionals plus `--key value` flags.
struct Parsed {
    positionals: Vec<String>,
    flags: BTreeMap<String, String>,
}

fn parse_args(args: &[String]) -> Result<Parsed> {
    let mut positionals = Vec::new();
    let mut flags = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(key) = a.strip_prefix("--") {
            let value = args
                .get(i + 1)
                .ok_or_else(|| CliError::Usage(format!("flag --{key} needs a value")))?;
            flags.insert(key.to_owned(), value.clone());
            i += 2;
        } else if a == "-m" {
            let value = args
                .get(i + 1)
                .ok_or_else(|| CliError::Usage("-m needs a message".into()))?;
            flags.insert("message".to_owned(), value.clone());
            i += 2;
        } else {
            positionals.push(a.clone());
            i += 1;
        }
    }
    Ok(Parsed { positionals, flags })
}

impl Parsed {
    fn pos(&self, idx: usize, what: &str) -> Result<&str> {
        self.positionals
            .get(idx)
            .map(String::as_str)
            .ok_or_else(|| CliError::Usage(format!("missing <{what}>")))
    }

    fn flag(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    fn required_flag(&self, key: &str) -> Result<&str> {
        self.flag(key)
            .ok_or_else(|| CliError::Usage(format!("missing --{key}")))
    }

    fn path_pos(&self, idx: usize, what: &str) -> Result<RepoPath> {
        RepoPath::parse(self.pos(idx, what)?).map_err(|e| CliError::Usage(e.to_string()))
    }
}

/// Usage text shown by `gitcite help`.
pub const USAGE: &str = "\
gitcite — automating software citation with version control

USAGE: gitcite <command> [args]

repository
  init <name> --owner <o> --url <u>     create a citation-enabled repository here
  status                                summarize worktree and citations
  log                                   list versions, newest first
  commit -m <msg> --author <name> [--email <e>] [--date <ISO8601>]
  branch <name>                         create a branch at HEAD
  checkout <branch>                     switch branches
  mv <from> <to>                        move/rename, carrying citations
  rm <path>                             remove file/dir, dropping its citations
  gc                                    pack loose objects, drop unreachable ones

citations
  cite show <path> [--policy closest|path-union|root]
  cite gen <path> [--format bibtex|cff|plain|json]
  cite add <path> [--json <record>] [field flags]
  cite modify <path> [--json <record>] [field flags]
  cite del <path>
  history <path>                        explicit-citation history of a node
  credits                               all credited authors and their keys
  annotate <path>                       per-line authorship of a file
  validate                              check citation.cite against the tree
  publish --author <name> [--version <v>] [--doi <d>]

  field flags: --repo-name --owner --url --authors a,b --commit --date
               --doi --license --version --note

git-like citation operators
  merge <branch> --author <name> [--strategy union|ours|theirs|three-way]
        [--resolve ours|theirs|fail] [-m <msg>]
  copy --from <dir> --src <path> --dst <path>
  fork --to <dir> --name <n> --owner <o> --url <u> --author <name> [--no-restamp true]
  retro --owner <o> --url <u> --author <name> [--max-depth <n>] [--min-files <n>]

remote hub (wire protocol over TCP)
  hub serve --bind <ip:port> [--data-dir <dir>]     run a hub server (blocks;
        [--require-secrets true] [--operator-secret <s>] [--allow-insecure true]
        port 0 picks a free port, the bound address is printed on stdout.
        A non-loopback bind requires --require-secrets true (registration
        and login then demand per-user secrets) unless --allow-insecure
        true is passed explicitly.
        [--follow <addr>] runs this hub as a read-scaling *follower* of
        the primary at <addr>: it continuously replicates every
        repository, serves reads locally, and refuses writes with a
        typed redirect to the primary. [--staleness <secs>] bounds how
        old served reads may be (default 30))
  hub register <username> --name <display> --remote <addr> [--secret <s>]
  hub repos --remote <addr> [--page-size <n>]
  hub log <repo_id> <branch> --remote <addr> [--page-size <n>] [--all true]
  hub import <name> --remote <addr> --user <username> [--secret <s>]
  hub push <repo_id> <branch> --remote <addr> --user <username> [--force true]
        [--secret <s>]
  hub top --remote <addr> [--user <u>] [--secret <s>] [--interval <secs>]
        [--once true] [--prom true]               live server telemetry: method
        latencies (p50/p99), error counts, reactor, store and abuse-limit
        health. Operator-scoped; `hub serve` provisions the operator user
        \"operator\" (the --user default). --once prints one snapshot; --prom
        emits Prometheus text exposition

environment
  GITCITE_AUTO_GC=<n>   loose-object count that triggers auto-gc on save
                        (default 64; 0 disables)
";

/// Page size the remote `hub log` / `hub repos` commands request per
/// round trip when `--page-size` is not given.
pub const REMOTE_PAGE_SIZE: u32 = 50;

/// Entry point: runs one invocation against the repository in `cwd`.
pub fn run(args: &[String], cwd: &Path) -> Result<String> {
    let Some(command) = args.first().map(String::as_str) else {
        return Ok(USAGE.to_owned());
    };
    let rest = &args[1..];
    match command {
        "help" | "--help" | "-h" => Ok(USAGE.to_owned()),
        "init" => cmd_init(rest, cwd),
        "status" => with_repo(cwd, |repo, _| cmd_status(repo)),
        "log" => with_repo(cwd, |repo, _| cmd_log(repo)),
        "commit" => with_repo_mut(cwd, rest, cmd_commit),
        "branch" => with_repo_mut(cwd, rest, |repo, p| {
            repo.create_branch(p.pos(0, "name")?)?;
            Ok(format!("created branch {}\n", p.pos(0, "name")?))
        }),
        "checkout" => with_repo_mut(cwd, rest, |repo, p| {
            let b = p.pos(0, "branch")?;
            repo.checkout_branch(b)?;
            Ok(format!("switched to {b}\n"))
        }),
        "mv" => with_repo_mut(cwd, rest, |repo, p| {
            let from = p.path_pos(0, "from")?;
            let to = p.path_pos(1, "to")?;
            repo.rename(&from, &to)?;
            Ok(format!("moved {from} -> {to} (citations carried)\n"))
        }),
        "rm" => with_repo_mut(cwd, rest, |repo, p| {
            let path = p.path_pos(0, "path")?;
            let n = repo.remove(&path)?;
            Ok(format!("removed {n} file(s) under {path}\n"))
        }),
        "gc" => cmd_gc(cwd),
        "cite" => cmd_cite(rest, cwd),
        "history" => with_repo(cwd, |repo, _| {
            let p = parse_args(rest)?;
            cmd_history(repo, &p)
        }),
        "credits" => with_repo(cwd, |repo, _| cmd_credits(repo)),
        "annotate" => with_repo(cwd, |repo, _| {
            let p = parse_args(rest)?;
            cmd_annotate(repo, &p)
        }),
        "validate" => with_repo(cwd, |repo, _| cmd_validate(repo)),
        "publish" => with_repo_mut(cwd, rest, cmd_publish),
        "merge" => with_repo_mut(cwd, rest, cmd_merge),
        "copy" => with_repo_mut(cwd, rest, cmd_copy),
        "fork" => cmd_fork(rest, cwd),
        "retro" => cmd_retro(rest, cwd),
        "hub" => cmd_hub(rest, cwd),
        other => Err(CliError::Usage(format!(
            "unknown command {other:?}; try `gitcite help`"
        ))),
    }
}

// ----- helpers ------------------------------------------------------------

fn open(cwd: &Path) -> Result<CitedRepo> {
    if !storage::exists(cwd) {
        return Err(CliError::Op(format!(
            "no gitcite repository in {} (run `gitcite init` first)",
            cwd.display()
        )));
    }
    let repo = storage::load(cwd)?;
    CitedRepo::open(repo).map_err(CliError::from)
}

fn with_repo(cwd: &Path, f: impl FnOnce(&CitedRepo, &Path) -> Result<String>) -> Result<String> {
    let repo = open(cwd)?;
    f(&repo, cwd)
}

fn with_repo_mut(
    cwd: &Path,
    args: &[String],
    f: impl FnOnce(&mut CitedRepo, &Parsed) -> Result<String>,
) -> Result<String> {
    let parsed = parse_args(args)?;
    let mut repo = open(cwd)?;
    // The files `load` just read: the save writes only what `f` changed.
    let on_disk = repo.repo().worktree().clone();
    let mut out = f(&mut repo, &parsed)?;
    storage::save_over(cwd, repo.repo(), &on_disk)?;
    // Long edit sessions self-compact: once enough loose objects pile up,
    // the save path runs the same gc `gitcite gc` would.
    let roots = gc_roots(repo.repo());
    let loose = storage::loose_count(cwd, repo.repo())?;
    drop(repo); // release the store handle before rewriting its files
    if let Some(report) = storage::maybe_gc(cwd, &roots, loose)? {
        out.push_str(&format!(
            "auto-gc: packed {} object(s), dropped {} unreachable\n",
            report.packed, report.dropped
        ));
    }
    Ok(out)
}

/// Everything a gc must keep: every branch tip, plus HEAD when detached.
fn gc_roots(repo: &gitlite::Repository) -> Vec<gitlite::ObjectId> {
    let mut roots: Vec<gitlite::ObjectId> = repo.branches().map(|(_, tip)| tip).collect();
    if let gitlite::Head::Detached(id) = repo.head() {
        roots.push(*id);
    }
    roots
}

fn signature(p: &Parsed, repo: &CitedRepo) -> Result<Signature> {
    let author = p.required_flag("author")?;
    let email = p
        .flag("email")
        .map(str::to_owned)
        .unwrap_or_else(|| format!("{}@local", author.replace(' ', ".").to_lowercase()));
    let ts = match p.flag("date") {
        Some(d) => citekit::parse_iso8601(d)
            .ok_or_else(|| CliError::Usage(format!("--date {d:?} is not YYYY-MM-DDTHH:MM:SSZ")))?,
        None => match repo.repo().head_commit() {
            Ok(head) => repo
                .repo()
                .commit_obj(head)
                .map(|c| c.author.timestamp + 1)
                .unwrap_or(1),
            Err(_) => 1,
        },
    };
    Ok(Signature::new(author, email, ts))
}

fn citation_from_flags(p: &Parsed) -> Result<Citation> {
    if let Some(json) = p.flag("json") {
        let v = sjson::parse(json).map_err(|e| CliError::Usage(format!("--json: {e}")))?;
        return Citation::from_value(&v).map_err(|e| CliError::Usage(e.to_string()));
    }
    let mut b = Citation::builder(
        p.flag("repo-name").unwrap_or_default(),
        p.flag("owner").unwrap_or_default(),
    );
    if let Some(u) = p.flag("url") {
        b = b.url(u);
    }
    if let (Some(c), Some(d)) = (p.flag("commit"), p.flag("date")) {
        b = b.commit(c, d);
    } else if let Some(c) = p.flag("commit") {
        b = b.commit(c, "");
    } else if let Some(d) = p.flag("date") {
        b = b.commit("", d);
    }
    if let Some(a) = p.flag("authors") {
        b = b.authors(a.split(',').map(str::trim).filter(|s| !s.is_empty()));
    }
    if let Some(x) = p.flag("doi") {
        b = b.doi(x);
    }
    if let Some(x) = p.flag("license") {
        b = b.license(x);
    }
    if let Some(x) = p.flag("version") {
        b = b.version(x);
    }
    if let Some(x) = p.flag("note") {
        b = b.note(x);
    }
    Ok(b.build())
}

// ----- commands -------------------------------------------------------------

fn cmd_init(args: &[String], cwd: &Path) -> Result<String> {
    let p = parse_args(args)?;
    if storage::exists(cwd) {
        return Err(CliError::Op(
            "a gitcite repository already exists here".into(),
        ));
    }
    // Files already here are adopted into the next commit, but a
    // citation file would be overwritten by the default one.
    if cwd.join(citekit::CITATION_FILE).exists() {
        return Err(CliError::Op(format!(
            "{} already exists here; init would overwrite it",
            citekit::CITATION_FILE
        )));
    }
    let name = p.pos(0, "name")?;
    let owner = p.required_flag("owner")?;
    let url = p.required_flag("url")?;
    let repo = CitedRepo::init(name, owner, url);
    storage::save(cwd, repo.repo())?;
    Ok(format!(
        "initialized citation-enabled repository {name} (owner {owner})\n\
         default root citation written to citation.cite\n"
    ))
}

fn cmd_status(repo: &CitedRepo) -> Result<String> {
    let mut out = String::new();
    out.push_str(&format!("repository: {}\n", repo.repo().name()));
    match repo.repo().current_branch() {
        Some(b) => out.push_str(&format!("branch: {b}\n")),
        None => out.push_str("branch: (detached)\n"),
    }
    match repo.repo().head_commit() {
        Ok(head) => out.push_str(&format!("HEAD: {}\n", head.short())),
        Err(_) => out.push_str("HEAD: (no commits yet)\n"),
    }
    out.push_str(&format!(
        "worktree: {} file(s)\ncitations: {} entries\n",
        repo.repo().worktree().len(),
        repo.function().len()
    ));
    for (path, entry) in repo.function().iter() {
        out.push_str(&format!(
            "  {}  -> {}\n",
            path.to_cite_key(entry.is_dir),
            entry.citation
        ));
    }
    Ok(out)
}

fn cmd_log(repo: &CitedRepo) -> Result<String> {
    let mut out = String::new();
    for id in repo.repo().log_head()? {
        let c = repo.repo().commit_obj(id)?;
        out.push_str(&format!(
            "{} {} <{}> {} {}\n",
            id.short(),
            c.author.name,
            c.author.email,
            citekit::format_iso8601(c.author.timestamp),
            c.message.lines().next().unwrap_or("")
        ));
    }
    Ok(out)
}

fn cmd_commit(repo: &mut CitedRepo, p: &Parsed) -> Result<String> {
    let message = p
        .flag("message")
        .ok_or_else(|| CliError::Usage("missing -m <message>".into()))?
        .to_owned();
    let sig = signature(p, repo)?;
    let outcome = repo.commit(sig, message)?;
    let mut out = format!("committed {}\n", outcome.commit.short());
    for (from, to) in &outcome.carry.renamed {
        out.push_str(&format!("  citation carried: {from} -> {to}\n"));
    }
    for (from, to) in &outcome.carry.dir_renamed {
        out.push_str(&format!("  citation subtree carried: {from}/ -> {to}/\n"));
    }
    for pruned in &outcome.carry.pruned {
        out.push_str(&format!("  citation pruned (path deleted): {pruned}\n"));
    }
    Ok(out)
}

fn cmd_gc(cwd: &Path) -> Result<String> {
    if !storage::exists(cwd) {
        return Err(CliError::Op(format!(
            "no gitcite repository in {} (run `gitcite init` first)",
            cwd.display()
        )));
    }
    // Roots: every branch tip, plus HEAD when detached. Everything else
    // is unreachable and gets dropped.
    let repo = storage::load(cwd)?;
    let roots = gc_roots(&repo);
    drop(repo); // release the store handle before rewriting its files
    let report = storage::gc(cwd, &roots)?;
    let mut out = match &report.pack_path {
        Some(path) => format!(
            "packed {} object(s) into {}\n",
            report.packed,
            path.file_name().unwrap_or_default().to_string_lossy()
        ),
        None => "nothing to pack (empty repository)\n".to_owned(),
    };
    out.push_str(&format!(
        "dropped {} unreachable object(s); removed {} loose file(s) and {} old pack(s)\n",
        report.dropped, report.loose_removed, report.packs_removed
    ));
    if report.pack_bytes > 0 && report.canonical_bytes > 0 {
        out.push_str(&format!(
            "delta compression: {} of {} record(s) deltified, {} -> {} bytes ({:.2}x)\n",
            report.delta_objects,
            report.packed,
            report.canonical_bytes,
            report.pack_bytes,
            report.canonical_bytes as f64 / report.pack_bytes as f64
        ));
    }
    out.push_str(&format!(
        "commit graph: {} commit(s) indexed, {} with changed-path Bloom filter(s)\n",
        report.graph_commits, report.bloom_commits
    ));
    Ok(out)
}

fn cmd_cite(args: &[String], cwd: &Path) -> Result<String> {
    let Some(sub) = args.first().map(String::as_str) else {
        return Err(CliError::Usage(
            "cite needs a subcommand: show|gen|add|modify|del".into(),
        ));
    };
    let rest = &args[1..];
    match sub {
        "show" => with_repo(cwd, |repo, _| {
            let p = parse_args(rest)?;
            let path = p.path_pos(0, "path")?;
            let policy = match p.flag("policy").unwrap_or("closest") {
                "closest" => ResolvePolicy::ClosestAncestor,
                "path-union" => ResolvePolicy::PathUnion,
                "root" => ResolvePolicy::RootOnly,
                other => return Err(CliError::Usage(format!("unknown policy {other:?}"))),
            };
            let citations = repo.cite_policy(&path, policy)?;
            let mut out = String::new();
            for c in citations {
                out.push_str(&c.to_value().to_string_pretty());
                out.push('\n');
            }
            Ok(out)
        }),
        "gen" => with_repo(cwd, |repo, _| {
            let p = parse_args(rest)?;
            let path = p.path_pos(0, "path")?;
            let format = match p.flag("format") {
                None => Format::Bibtex,
                Some(f) => Format::parse(f)
                    .ok_or_else(|| CliError::Usage(format!("unknown format {f:?}")))?,
            };
            let citation = repo.cite(&path)?;
            Ok(bibformat::render(&citation, format))
        }),
        "add" => with_repo_mut(cwd, rest, |repo, p| {
            let path = p.path_pos(0, "path")?;
            let citation = citation_from_flags(p)?;
            repo.add_cite(&path, citation)?;
            Ok(format!("citation added at {}\n", path.to_cite_key(false)))
        }),
        "modify" => with_repo_mut(cwd, rest, |repo, p| {
            let path = p.path_pos(0, "path")?;
            let citation = citation_from_flags(p)?;
            repo.modify_cite(&path, citation)?;
            Ok(format!(
                "citation modified at {}\n",
                path.to_cite_key(false)
            ))
        }),
        "del" => with_repo_mut(cwd, rest, |repo, p| {
            let path = p.path_pos(0, "path")?;
            repo.del_cite(&path)?;
            Ok(format!(
                "citation deleted from {}\n",
                path.to_cite_key(false)
            ))
        }),
        other => Err(CliError::Usage(format!(
            "unknown cite subcommand {other:?}"
        ))),
    }
}

fn cmd_history(repo: &CitedRepo, p: &Parsed) -> Result<String> {
    let path = p.path_pos(0, "path")?;
    let events = repo.citation_log(&path)?;
    if events.is_empty() {
        return Ok(format!(
            "{} was never explicitly cited\n",
            path.to_cite_key(false)
        ));
    }
    let mut out = format!("citation history of {}:\n", path.to_cite_key(false));
    for e in events {
        match &e.explicit {
            Some(c) => out.push_str(&format!(
                "  {} {} by {}: {}\n",
                e.commit.short(),
                citekit::format_iso8601(e.timestamp),
                e.author,
                c
            )),
            None => out.push_str(&format!(
                "  {} {} by {}: citation removed\n",
                e.commit.short(),
                citekit::format_iso8601(e.timestamp),
                e.author
            )),
        }
    }
    Ok(out)
}

fn cmd_credits(repo: &CitedRepo) -> Result<String> {
    let mut out = String::from("credited authors:\n");
    for (author, paths) in repo.credited_authors() {
        let keys: Vec<String> = paths.iter().map(|p| p.to_cite_key(false)).collect();
        out.push_str(&format!("  {author}: {}\n", keys.join(", ")));
    }
    Ok(out)
}

fn cmd_annotate(repo: &CitedRepo, p: &Parsed) -> Result<String> {
    let path = p.path_pos(0, "path")?;
    let head = repo.repo().head_commit()?;
    let lines = gitlite::annotate(repo.repo(), head, &path)?;
    let mut out = String::new();
    for (i, line) in lines.iter().enumerate() {
        out.push_str(&format!(
            "{} ({:>12} {}) {:>4}| {}\n",
            line.commit.short(),
            line.author,
            citekit::format_iso8601(line.timestamp),
            i + 1,
            line.text
        ));
    }
    Ok(out)
}

fn cmd_validate(repo: &CitedRepo) -> Result<String> {
    let violations = validate(repo.function(), repo.repo().worktree());
    if violations.is_empty() {
        Ok("citation.cite is consistent with the tree\n".to_owned())
    } else {
        let mut out = format!("{} violation(s):\n", violations.len());
        for v in violations {
            out.push_str(&format!("  {v}\n"));
        }
        Err(CliError::Op(out))
    }
}

fn cmd_publish(repo: &mut CitedRepo, p: &Parsed) -> Result<String> {
    let sig = signature(p, repo)?;
    let outcome = repo.publish(sig, p.flag("version"), p.flag("doi"))?;
    let root = repo.function().root();
    Ok(format!(
        "published: root citation now pins commit {} ({})\nnew version: {}\n",
        root.commit_id,
        root.committed_date,
        outcome.commit.short()
    ))
}

fn cmd_merge(repo: &mut CitedRepo, p: &Parsed) -> Result<String> {
    let branch = p.pos(0, "branch")?.to_owned();
    let sig = signature(p, repo)?;
    let message = p
        .flag("message")
        .map(str::to_owned)
        .unwrap_or_else(|| format!("Merge branch '{branch}'"));
    let strategy = match p.flag("strategy").unwrap_or("union") {
        "union" => MergeStrategy::Union,
        "ours" => MergeStrategy::Ours,
        "theirs" => MergeStrategy::Theirs,
        "three-way" => MergeStrategy::ThreeWay,
        other => return Err(CliError::Usage(format!("unknown strategy {other:?}"))),
    };
    let report = match p.flag("resolve").unwrap_or("fail") {
        "ours" => repo.merge_cite(&branch, sig, message, strategy, &mut PreferOurs),
        "theirs" => repo.merge_cite(&branch, sig, message, strategy, &mut PreferTheirs),
        "fail" => repo.merge_cite(&branch, sig, message, strategy, &mut FailOnConflict),
        other => return Err(CliError::Usage(format!("unknown resolver {other:?}"))),
    }?;
    let mut out = String::new();
    match &report.outcome {
        MergeCiteOutcome::AlreadyUpToDate => out.push_str("already up to date\n"),
        MergeCiteOutcome::FastForwarded(id) => {
            out.push_str(&format!("fast-forwarded to {}\n", id.short()));
        }
        MergeCiteOutcome::Merged(id) => out.push_str(&format!("merged as {}\n", id.short())),
        MergeCiteOutcome::FileConflicts { conflicts, .. } => {
            out.push_str(&format!(
                "merge stopped: {} file conflict(s); fix the marked files, then commit\n",
                conflicts.len()
            ));
            for c in conflicts {
                out.push_str(&format!("  conflict: {}\n", c.path));
            }
        }
    }
    for cc in &report.citation_conflicts {
        out.push_str(&format!(
            "  citation conflict at {} resolved: {:?}\n",
            cc.path.to_cite_key(false),
            cc.taken
        ));
    }
    for d in &report.dropped {
        out.push_str(&format!(
            "  citation dropped (file deleted by merge): {d}\n"
        ));
    }
    Ok(out)
}

fn cmd_copy(repo: &mut CitedRepo, p: &Parsed) -> Result<String> {
    let from_dir = PathBuf::from(p.required_flag("from")?);
    let src_path =
        RepoPath::parse(p.required_flag("src")?).map_err(|e| CliError::Usage(e.to_string()))?;
    let dst_path =
        RepoPath::parse(p.required_flag("dst")?).map_err(|e| CliError::Usage(e.to_string()))?;
    let src_repo = storage::load(&from_dir)?;
    let src_version = src_repo.head_commit()?;
    let report = repo.copy_cite(&dst_path, &src_repo, src_version, &src_path)?;
    let mut out = format!(
        "copied {} file(s) from {}:{} to {}\n",
        report.files_copied,
        from_dir.display(),
        src_path.to_cite_key(false),
        dst_path.to_cite_key(false)
    );
    for m in &report.citations_migrated {
        out.push_str(&format!("  citation migrated: {}\n", m.to_cite_key(false)));
    }
    if let Some(c) = &report.materialized {
        out.push_str(&format!(
            "  effective citation materialized at destination: {c}\n"
        ));
    }
    out.push_str("run `gitcite commit` to create the new version\n");
    Ok(out)
}

fn cmd_fork(args: &[String], cwd: &Path) -> Result<String> {
    let p = parse_args(args)?;
    let to = PathBuf::from(p.required_flag("to")?);
    let name = p.required_flag("name")?;
    let owner = p.required_flag("owner")?;
    let url = p.required_flag("url")?;
    let src = open(cwd)?;
    let sig = signature(&p, &src)?;
    if std::fs::read_dir(&to).is_ok_and(|mut entries| entries.next().is_some()) {
        return Err(CliError::Op(format!(
            "{} is not empty; fork into a new or empty directory",
            to.display()
        )));
    }
    std::fs::create_dir_all(&to)?;
    let mut opts = ForkOptions::new(name, owner, url);
    if p.flag("no-restamp").is_some() {
        opts.restamp_root = false;
    }
    let outcome = fork_cite(src.repo(), &opts, sig).map_err(CliError::from)?;
    storage::save(&to, outcome.fork.repo())?;
    Ok(format!(
        "forked {} at {} into {} (restamped: {})\n",
        src.repo().name(),
        outcome.fork_point.short(),
        to.display(),
        outcome.restamp_commit.is_some()
    ))
}

// ----- remote hub ----------------------------------------------------------

impl From<hub::HubError> for CliError {
    fn from(e: hub::HubError) -> Self {
        CliError::Op(e.to_string())
    }
}

/// Connects to a remote hub named by `--remote`.
fn remote_client(p: &Parsed) -> Result<hub::HubClient<hub::TcpTransport>> {
    let addr = p.required_flag("remote")?;
    hub::HubClient::connect(addr)
        .map_err(|e| CliError::Op(format!("cannot reach hub at {addr}: {e}")))
}

/// Logs `--user` in on this connection (tokens are connection-scoped:
/// the server only honors tokens minted on the connection that uses
/// them, so every invocation authenticates afresh). `--secret` rides
/// along for accounts registered with one.
fn remote_login(client: &hub::HubClient<hub::TcpTransport>, p: &Parsed) -> Result<hub::Token> {
    let user = p.required_flag("user")?;
    Ok(match p.flag("secret") {
        Some(secret) => client.login_with_secret(user, secret)?,
        None => client.login(user)?,
    })
}

fn page_size(p: &Parsed) -> Result<u32> {
    match p.flag("page-size") {
        None => Ok(REMOTE_PAGE_SIZE),
        Some(n) => n
            .parse()
            .map_err(|_| CliError::Usage("--page-size must be a number".into())),
    }
}

/// The `gitcite hub` family: serve a hub over TCP, or drive a remote one
/// through the wire protocol (negotiated pushes, paginated reads).
fn cmd_hub(args: &[String], cwd: &Path) -> Result<String> {
    let Some(sub) = args.first().map(String::as_str) else {
        return Err(CliError::Usage(
            "hub needs a subcommand: serve|register|repos|log|import|push|top".into(),
        ));
    };
    let p = parse_args(&args[1..])?;
    match sub {
        "serve" => cmd_hub_serve(&p),
        "top" => cmd_hub_top(&p),
        "register" => {
            let client = remote_client(&p)?;
            let username = p.pos(0, "username")?;
            let display = p.required_flag("name")?;
            match p.flag("secret") {
                Some(secret) => client.register_user_with_secret(username, display, secret)?,
                None => client.register_user(username, display)?,
            }
            Ok(format!("registered {username}\n"))
        }
        "repos" => {
            let client = remote_client(&p)?;
            let limit = page_size(&p)?;
            let mut out = String::new();
            let mut cursor: Option<String> = None;
            loop {
                let page = client.list_repos_page(cursor.as_deref(), Some(limit))?;
                for id in &page.items {
                    out.push_str(id);
                    out.push('\n');
                }
                match page.next {
                    Some(next) => cursor = Some(next),
                    None => break,
                }
            }
            Ok(out)
        }
        "log" => {
            let client = remote_client(&p)?;
            let repo_id = p.pos(0, "repo_id")?;
            let branch = p.pos(1, "branch")?;
            let limit = page_size(&p)?;
            let all = p.flag("all").is_some();
            let mut out = String::new();
            let mut cursor: Option<String> = None;
            loop {
                let page = client.log_page(repo_id, branch, cursor.as_deref(), Some(limit))?;
                for e in &page.items {
                    out.push_str(&format!(
                        "{} {} {} {}\n",
                        e.id.short(),
                        e.author,
                        citekit::format_iso8601(e.timestamp),
                        e.message.lines().next().unwrap_or("")
                    ));
                }
                cursor = page.next;
                if cursor.is_none() || !all {
                    break;
                }
            }
            if cursor.is_some() {
                out.push_str("... more history; pass --all true to fetch every page\n");
            }
            Ok(out)
        }
        "import" => {
            let client = remote_client(&p)?;
            let name = p.pos(0, "name")?;
            let local = storage::load(cwd)?;
            let token = remote_login(&client, &p)?;
            let repo_id = client.import_repo(&token, name, &local)?;
            Ok(format!("imported as {repo_id}\n"))
        }
        "push" => {
            let client = remote_client(&p)?;
            let repo_id = p.pos(0, "repo_id")?;
            let branch = p.pos(1, "branch")?;
            let local = storage::load(cwd)?;
            let local_branch = local
                .current_branch()
                .map(str::to_owned)
                .unwrap_or_else(|| branch.to_owned());
            let token = remote_login(&client, &p)?;
            let force = p.flag("force").is_some();
            // Negotiated, with automatic full-bundle fallback.
            let tip = client.push(&token, repo_id, branch, &local, &local_branch, force)?;
            Ok(format!(
                "pushed {local_branch} -> {repo_id}:{branch} at {}\n",
                tip.short()
            ))
        }
        other => Err(CliError::Usage(format!("unknown hub subcommand {other:?}"))),
    }
}

/// Whether every address `addr` resolves to is loopback. Unresolvable
/// addresses count as non-loopback: the bind will fail with its own
/// error, and erring on the strict side costs nothing.
fn is_loopback_bind(addr: &str) -> bool {
    use std::net::ToSocketAddrs;
    match addr.to_socket_addrs() {
        Ok(mut addrs) => addrs.all(|a| a.ip().is_loopback()),
        Err(_) => false,
    }
}

fn cmd_hub_serve(p: &Parsed) -> Result<String> {
    let addr = match p.flag("bind") {
        Some(addr) => addr,
        None => return Err(CliError::Usage("missing required flag --bind".into())),
    };
    let require_secrets = p.flag("require-secrets").is_some();
    let allow_insecure = p.flag("allow-insecure").is_some();
    // An open (secretless) login on a non-loopback bind hands every
    // registered account to the whole network. Refuse it unless the
    // operator opted out in so many words.
    if !is_loopback_bind(addr) && !require_secrets {
        if !allow_insecure {
            return Err(CliError::Usage(format!(
                "refusing to bind {addr}: a non-loopback address without \
                 --require-secrets true serves secretless logins to the \
                 network. Pass --require-secrets true (and register users \
                 with --secret), or --allow-insecure true to proceed anyway."
            )));
        }
        eprintln!(
            "warning: serving {addr} with secretless logins (--allow-insecure); \
             anyone who can reach the port can act as any registered user"
        );
    }
    let platform = match p.flag("data-dir") {
        Some(dir) => hub::Hub::with_pack_storage("https://hub.local", dir)
            .map_err(|e| CliError::Op(format!("cannot open data dir: {e}")))?,
        None => hub::Hub::new("https://hub.local"),
    };
    // Every served hub gets an operator account so `gitcite hub top`
    // (and any other operator-scoped wire method) can authenticate. On
    // an open hub the grant exposes telemetry, not control (the
    // destructive seams stay refused on the socket); on a
    // --require-secrets hub the operator account is protected like any
    // other, by the secret provided here.
    if require_secrets {
        let operator_secret = p.flag("operator-secret").ok_or_else(|| {
            CliError::Usage(
                "--require-secrets true needs --operator-secret <s> \
                 to protect the provisioned operator account"
                    .into(),
            )
        })?;
        let _ = platform.register_user_with_secret("operator", "Hub Operator", operator_secret);
        platform.set_auth_required(true);
    } else {
        match p.flag("operator-secret") {
            Some(secret) => {
                let _ = platform.register_user_with_secret("operator", "Hub Operator", secret);
            }
            None => {
                let _ = platform.register_user("operator", "Hub Operator");
            }
        }
    }
    platform
        .grant_operator("operator")
        .map_err(|e| CliError::Op(format!("cannot provision the operator account: {e}")))?;
    let platform = std::sync::Arc::new(platform);
    // --follow flips this hub into a replication follower *after* the
    // operator account above exists locally (a follower's login only
    // serves locally-provisioned users; everyone else is redirected to
    // the primary).
    let engine = match p.flag("follow") {
        Some(primary) => {
            let staleness: u64 = match p.flag("staleness") {
                None => 30,
                Some(s) => s.parse().map_err(|_| {
                    CliError::Usage("--staleness must be a number of seconds".into())
                })?,
            };
            let transport = hub::TcpTransport::connect(primary)
                .map_err(|e| CliError::Op(format!("cannot reach primary {primary}: {e}")))?;
            Some(
                hub::Follower::new(
                    std::sync::Arc::clone(&platform),
                    transport,
                    primary,
                    staleness,
                )
                .spawn(),
            )
        }
        None => None,
    };
    let server = hub::SocketServer::bind(platform, addr)
        .map_err(|e| CliError::Op(format!("cannot bind {addr}: {e}")))?;
    // Print (and flush) the *resolved* address eagerly: with `--bind
    // 127.0.0.1:0` the OS picks the port, a supervising script reads it
    // from stdout, and this command then blocks for the server's
    // lifetime.
    match p.flag("follow") {
        Some(primary) => println!(
            "gitcite hub listening on {} (follower of {primary})",
            server.local_addr()
        ),
        None => println!("gitcite hub listening on {}", server.local_addr()),
    }
    let _ = std::io::Write::flush(&mut std::io::stdout());
    server.join();
    drop(engine);
    Ok(String::new())
}

/// `gitcite hub top`: live server telemetry, fed entirely by the
/// operator-scoped `server_metrics` wire method. `--once` renders one
/// snapshot and returns (the scriptable health-probe mode); otherwise
/// the command polls every `--interval` seconds until interrupted.
fn cmd_hub_top(p: &Parsed) -> Result<String> {
    let client = remote_client(p)?;
    let user = p.flag("user").unwrap_or("operator");
    let token = match p.flag("secret") {
        Some(secret) => client.login_with_secret(user, secret)?,
        None => client.login(user)?,
    };
    let prom = p.flag("prom").is_some();
    let render = |snap: &hub::MetricsSnapshot| {
        if prom {
            snap.to_prometheus()
        } else {
            render_top(snap)
        }
    };
    if p.flag("once").is_some() {
        return Ok(render(&client.server_metrics(Some(&token))?));
    }
    let interval: f64 = match p.flag("interval") {
        None => 2.0,
        Some(s) => s
            .parse()
            .map_err(|_| CliError::Usage("--interval must be a number of seconds".into()))?,
    };
    loop {
        print!("{}", render(&client.server_metrics(Some(&token))?));
        println!("---");
        let _ = std::io::Write::flush(&mut std::io::stdout());
        std::thread::sleep(std::time::Duration::from_secs_f64(
            interval.clamp(0.1, 3600.0),
        ));
    }
}

/// Human-readable rendering of a telemetry snapshot: one row per wire
/// method with bucket-derived latency quantiles, then reactor and store
/// health.
fn render_top(snap: &hub::MetricsSnapshot) -> String {
    let mut out = format!(
        "{:<20} {:>8} {:>9} {:>9} {:>9} {:>7}\n",
        "method", "calls", "p50(us)", "p99(us)", "max(us)", "errors"
    );
    for m in &snap.methods {
        let h = m.latency.to_snapshot();
        let errors: u64 = m.errors.iter().map(|(_, n)| n).sum();
        out.push_str(&format!(
            "{:<20} {:>8} {:>9} {:>9} {:>9} {:>7}\n",
            m.method,
            m.calls,
            h.p50(),
            h.p99(),
            m.latency.max_us,
            errors
        ));
        for (code, n) in &m.errors {
            out.push_str(&format!("{:<20}   {code}: {n}\n", ""));
        }
    }
    match &snap.transport {
        Some(t) => {
            out.push_str(&format!(
                "\ntransport: {} open connection(s), queue depth {}, {} busy worker(s)\n",
                t.open_connections, t.queue_depth, t.busy_workers
            ));
            out.push_str(&format!(
                "  bytes in: {}   bytes out: {}\n",
                t.bytes_in_binary, t.bytes_out_binary
            ));
            out.push_str(&format!(
                "  frames rejected: {}   abrupt closes: {}\n",
                t.frames_rejected, t.transport_closed
            ));
            if t.obj_raw_bytes > 0 {
                out.push_str(&format!(
                    "  objects_ext compression: {} raw -> {} wire ({:.1}%)\n",
                    t.obj_raw_bytes,
                    t.obj_deflate_bytes,
                    100.0 * t.obj_deflate_bytes as f64 / t.obj_raw_bytes as f64
                ));
            }
        }
        None => out.push_str("\ntransport: (no socket server attached)\n"),
    }
    if let Some(s) = &snap.store {
        let rate = match s.cache_hit_rate() {
            Some(r) => format!("{:.1}%", 100.0 * r),
            None => "n/a".to_owned(),
        };
        out.push_str(&format!(
            "store: {} repo(s), cache hit rate {rate} ({} hits / {} misses)\n",
            s.repos, s.cache_hits, s.cache_misses
        ));
        out.push_str(&format!(
            "  reads: {} pack / {} loose   walks: {} graph / {} decode-fallback\n",
            s.pack_reads, s.loose_reads, s.graph_walks, s.fallback_walks
        ));
        out.push_str(&format!(
            "  deltas resolved: {}   bloom: {} skip(s) / {} hit(s) / {} false positive(s)\n",
            s.delta_resolutions, s.bloom_skips, s.bloom_hits, s.bloom_false_positives
        ));
    }
    if let Some(l) = &snap.limits {
        out.push_str(&format!(
            "limits: {} auth failure(s), {} rate / {} quota rejection(s), {} conn(s) shed\n",
            l.auth_failures, l.rate_rejections, l.quota_rejections, l.conns_shed
        ));
    }
    if let Some(r) = &snap.repl {
        let lag = match r.lag_seconds {
            -1 => "never synced".to_owned(),
            s => format!("lag {s}s"),
        };
        out.push_str(&format!(
            "repl: following {} ({lag}, epoch {}), {} repo(s) behind, \
             {} round(s) / {} reconnect(s)\n",
            r.primary, r.epoch, r.repos_behind, r.rounds, r.reconnects
        ));
        for (repo, n) in &r.behind {
            out.push_str(&format!("  behind: {repo} ({n} ref(s))\n"));
        }
    }
    out
}

fn cmd_retro(args: &[String], cwd: &Path) -> Result<String> {
    let p = parse_args(args)?;
    if !storage::exists(cwd) {
        return Err(CliError::Op("no repository here".into()));
    }
    let repo = storage::load(cwd)?;
    let on_disk = repo.worktree().clone();
    let mut opts = RetrofitOptions::new(p.required_flag("owner")?, p.required_flag("url")?);
    if let Some(d) = p.flag("max-depth") {
        opts.max_depth = d
            .parse()
            .map_err(|_| CliError::Usage("--max-depth must be a number".into()))?;
    }
    if let Some(m) = p.flag("min-files") {
        opts.min_files = m
            .parse()
            .map_err(|_| CliError::Usage("--min-files must be a number".into()))?;
    }
    let author = p.required_flag("author")?;
    let ts = repo
        .head_commit()
        .and_then(|h| repo.commit_obj(h))
        .map(|c| c.author.timestamp + 1)
        .unwrap_or(1);
    let (cited, report) = retrofit(
        repo,
        &opts,
        Signature::new(author, format!("{author}@local"), ts),
    )?;
    storage::save_over(cwd, cited.repo(), &on_disk)?;
    let mut out = format!(
        "retrofitted: citation.cite synthesized from history ({} directory citation(s))\n",
        report.cited_dirs.len()
    );
    for d in &report.cited_dirs {
        out.push_str(&format!("  cited: {}\n", d.to_cite_key(true)));
    }
    out.push_str(&format!("commit: {}\n", report.commit.short()));
    Ok(out)
}
