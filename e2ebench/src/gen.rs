//! Seeded inputs: the project a workload hosts and the op streams its
//! sessions issue. Everything here is a pure function of the seed, so the
//! same seed always yields byte-identical repositories and op streams.

use citekit::{Citation, CitationFunction};
use gitlite::{Commit, Object, ObjectId, ObjectStoreExt, RepoPath, Repository, Signature};
use hub::LogEntry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// Hub account that imports and owns the project.
pub const OWNER: &str = "owner";
/// Display name of the owner (the root citation's owner and author).
pub const OWNER_NAME: &str = "Project Owner";
/// Hub account of the editing member (`edit-deep`).
pub const MEMBER: &str = "member";
/// Display name the member account is registered with.
pub const MEMBER_NAME: &str = "Member Person";
/// Display name of the local developer (commit author, citation owner).
pub const DEVELOPER_NAME: &str = "Dev Person";
/// Repository name of the project, on the hub and on disk.
pub const PROJECT: &str = "proj";
/// Branch the project's history lives on.
pub const MAIN: &str = "main";
/// Branch the member's pushes go to, so pushes never race the member's
/// own citation commits on `main`.
pub const PUSH_BRANCH: &str = "dev";
/// Page size the extension popup's log pane asks for.
pub const LOG_PAGE: u32 = 25;

const TOP_DIRS: usize = 16;
const SUB_DIRS: usize = 8;
const BASE_TS: i64 = 1_600_000_000;
const AUTHORS: [&str; 5] = ["Ann Lee", "Bo Chen", "Cy Park", "Di Ray", "Ed Moss"];
const WORDS: [&str; 16] = [
    "cite", "node", "tree", "blob", "graph", "merge", "fork", "copy", "root", "path", "hash",
    "pack", "index", "commit", "branch", "author",
];

/// The shape of a generated project.
#[derive(Debug, Clone, Copy)]
pub struct ProjectSpec {
    pub files: usize,
    pub citations: usize,
    pub commits: usize,
}

/// A generated project: the repository plus the facts an oracle needs,
/// recorded while the history was written (never read back from it).
pub struct Project {
    /// The repository, in memory, HEAD on [`MAIN`].
    pub repo: Repository,
    /// Every file path (without `citation.cite`), in generation order.
    pub files: Vec<RepoPath>,
    /// Every directory below the root, sorted.
    pub dirs: Vec<RepoPath>,
    /// The root citation as stored (unstamped).
    pub root: Citation,
    /// Explicit citations at the tip, root excluded.
    pub explicit: BTreeMap<RepoPath, Citation>,
    /// Current contents of every file at the tip.
    pub contents: BTreeMap<RepoPath, Vec<u8>>,
    /// The history of [`MAIN`], newest first.
    pub history: Vec<LogEntry>,
}

impl Project {
    /// The tip commit of [`MAIN`].
    pub fn tip(&self) -> ObjectId {
        self.history[0].id
    }
}

fn rng_for(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream)
}

fn path(s: &str) -> RepoPath {
    RepoPath::parse(s).expect("generated paths are valid")
}

/// File text for version `version` of `file`: a header plus 8 to 24 lines
/// of words, so blobs are 0.3 to 1.5 KB and every edit changes them.
pub fn file_text(rng: &mut StdRng, file: &RepoPath, version: usize) -> Vec<u8> {
    let mut out = format!("// {file} v{version}\n");
    for _ in 0..8 + rng.gen_range(0..17) {
        let words = 4 + rng.gen_range(0..7);
        let line: Vec<&str> = (0..words)
            .map(|_| WORDS[rng.gen_range(0..WORDS.len())])
            .collect();
        out.push_str(&line.join(" "));
        out.push('\n');
    }
    out.into_bytes()
}

/// A citation whose identity encodes `tag`; `owner` is its maintainer.
pub fn citation(tag: &str, owner: &str, rng: &mut StdRng) -> Citation {
    let a = AUTHORS[rng.gen_range(0..AUTHORS.len())];
    let b = AUTHORS[rng.gen_range(0..AUTHORS.len())];
    Citation::builder(format!("component-{tag}"), owner)
        .url(format!("https://example.org/components/{tag}"))
        .authors([a, b])
        .build()
}

/// Generates the project for `spec` from `seed`.
pub fn project(spec: ProjectSpec, seed: u64) -> Project {
    let mut rng = rng_for(seed, 1);
    let files: Vec<RepoPath> = (0..spec.files)
        .map(|i| {
            let top = rng.gen_range(0..TOP_DIRS);
            let sub = rng.gen_range(0..SUB_DIRS);
            path(&format!("m{top:02}/s{sub}/f{i:03}.txt"))
        })
        .collect();
    let dirs: Vec<RepoPath> = files
        .iter()
        .flat_map(|f| f.ancestors().filter(|a| !a.is_root()).collect::<Vec<_>>())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();

    // Explicit citations: a third on directories, the rest on files, each
    // landing at a seeded point of the history.
    let mut nodes: BTreeSet<RepoPath> = BTreeSet::new();
    while nodes.len() < spec.citations.min(files.len() + dirs.len()) {
        let node = if rng.gen_range(0..3) == 0 {
            dirs[rng.gen_range(0..dirs.len())].clone()
        } else {
            files[rng.gen_range(0..files.len())].clone()
        };
        nodes.insert(node);
    }
    let mut scheduled: BTreeMap<usize, Vec<RepoPath>> = BTreeMap::new();
    for node in nodes {
        let at = 1 + rng.gen_range(0..spec.commits.max(2) - 1);
        scheduled.entry(at).or_default().push(node);
    }

    let root = Citation::builder(PROJECT, OWNER_NAME)
        .url(format!("https://hub.local/{OWNER}/{PROJECT}"))
        .author(OWNER_NAME)
        .build();
    let mut func = CitationFunction::new(root.clone());
    let mut explicit = BTreeMap::new();
    let mut contents = BTreeMap::new();
    let mut versions = vec![0usize; files.len()];
    let mut repo = Repository::init(PROJECT);
    // Commits are written from a path → blob listing so each one stores
    // only what changed; hashing the whole worktree per commit would make
    // generation dominate a run.
    let mut listing: BTreeMap<RepoPath, ObjectId> = BTreeMap::new();
    let odb = repo.odb_mut();
    for f in &files {
        let text = file_text(&mut rng, f, 0);
        listing.insert(f.clone(), odb.put_blob(text.clone()));
        contents.insert(f.clone(), text);
    }
    let cite_file = citekit::citation_path();
    let mut history = Vec::with_capacity(spec.commits);
    let mut parent: Option<ObjectId> = None;
    for c in 0..spec.commits {
        let message = if c == 0 {
            "initial import".to_owned()
        } else {
            let i = rng.gen_range(0..files.len());
            versions[i] += 1;
            let text = file_text(&mut rng, &files[i], versions[i]);
            listing.insert(files[i].clone(), odb.put_blob(text.clone()));
            contents.insert(files[i].clone(), text);
            format!("edit {}", files[i])
        };
        let added = scheduled.remove(&c).unwrap_or_default();
        for node in &added {
            let cite = citation(&format!("s{seed}-n{c}"), OWNER_NAME, &mut rng);
            func.set(node.clone(), cite.clone(), dirs.binary_search(node).is_ok());
            explicit.insert(node.clone(), cite);
        }
        if c == 0 || !added.is_empty() {
            let text = citekit::file::to_text(&func);
            listing.insert(cite_file.clone(), odb.put_blob(text.into_bytes()));
        }
        let author = AUTHORS[rng.gen_range(0..AUTHORS.len())];
        let ts = BASE_TS + 3600 * c as i64 + rng.gen_range(0..600) as i64;
        let email = format!("{}@example.org", author.replace(' ', "."));
        let tree = gitlite::write_tree_from_listing(odb, &listing);
        let id = odb.put(Object::Commit(Commit {
            tree,
            parents: parent.into_iter().collect(),
            author: Signature::new(author, email, ts),
            message: message.clone(),
        }));
        parent = Some(id);
        history.push(LogEntry {
            id,
            author: author.to_owned(),
            timestamp: ts,
            message,
        });
    }
    history.reverse();
    repo.set_branch(MAIN, history[0].id)
        .expect("tip was just stored");
    repo.checkout_branch(MAIN).expect("main exists");
    Project {
        repo,
        files,
        dirs,
        root,
        explicit,
        contents,
        history,
    }
}

// ---------------------------------------------------------------------
// Op streams
// ---------------------------------------------------------------------

/// One operation a session issues. Hub sessions use the first twelve;
/// the local developer uses the CLI ones.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    GenCite(RepoPath),
    CiteEntry(RepoPath),
    ReadFile(RepoPath),
    LogPage,
    ListFiles,
    Branches,
    Clone,
    /// The popup's batched sign-in render for the selected node.
    SignIn(RepoPath),
    AddCite(RepoPath, Citation),
    ModifyCite(RepoPath, Citation),
    DelCite(RepoPath),
    /// One local commit (the file and its new text) pushed to
    /// [`PUSH_BRANCH`].
    Push(RepoPath, Vec<u8>),
    /// Edit a worktree file, then `gitcite commit`.
    Commit(RepoPath, Vec<u8>),
    CliCiteAdd(RepoPath, Citation),
    CliCiteModify(RepoPath, Citation),
    CiteShow(RepoPath),
    Log,
    HubPush,
}

impl Op {
    /// The op's class name (its wire method for hub ops).
    pub fn class(&self) -> &'static str {
        match self {
            Op::GenCite(_) => "generate_citation",
            Op::CiteEntry(_) => "citation_entry",
            Op::ReadFile(_) => "read_file",
            Op::LogPage => "log_page",
            Op::ListFiles => "list_files",
            Op::Branches => "branches",
            Op::Clone => "clone_repo",
            Op::SignIn(_) => "sign_in",
            Op::AddCite(..) => "add_cite",
            Op::ModifyCite(..) => "modify_cite",
            Op::DelCite(_) => "del_cite",
            Op::Push(..) => "push",
            Op::Commit(..) => "commit",
            Op::CliCiteAdd(..) => "cite_add",
            Op::CliCiteModify(..) => "cite_modify",
            Op::CiteShow(_) => "cite_show",
            Op::Log => "log",
            Op::HubPush => "hub_push",
        }
    }

    /// Interactive reads: what `read_p50_ms` and `read_tail_ms` cover.
    /// Clones are bulk transfers, neither reads nor writes.
    pub fn is_read(&self) -> bool {
        matches!(
            self,
            Op::GenCite(_)
                | Op::CiteEntry(_)
                | Op::ReadFile(_)
                | Op::LogPage
                | Op::ListFiles
                | Op::Branches
                | Op::SignIn(_)
                | Op::CiteShow(_)
                | Op::Log
        )
    }

    /// Ops that change repository state.
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            Op::AddCite(..)
                | Op::ModifyCite(..)
                | Op::DelCite(_)
                | Op::Push(..)
                | Op::Commit(..)
                | Op::CliCiteAdd(..)
                | Op::CliCiteModify(..)
                | Op::HubPush
        )
    }
}

/// Op classes a mix block is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    GenCite,
    CiteEntry,
    ReadFile,
    LogPage,
    ListFiles,
    Branches,
    Clone,
    Modify,
    Add,
    Del,
    Push,
    Commit,
    CliAdd,
    CliModify,
    CiteShow,
    Log,
    HubPush,
}

/// A mix: how many ops of each class one block holds. Blocks are
/// shuffled per seed, so every run issues the mix exactly, not just on
/// average — a 1% class cannot drift to 2% on an unlucky seed.
pub type Mix = &'static [(Class, usize)];

/// Nodes drawn Zipf(1): rank k (in a seeded order) has weight 1/k.
#[derive(Debug, Clone)]
struct Zipf {
    items: Vec<RepoPath>,
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(mut items: Vec<RepoPath>, rng: &mut StdRng) -> Zipf {
        for i in (1..items.len()).rev() {
            items.swap(i, rng.gen_range(0..i + 1));
        }
        let mut acc = 0.0;
        let cdf = (1..=items.len())
            .map(|k| {
                acc += 1.0 / k as f64;
                acc
            })
            .collect();
        Zipf { items, cdf }
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    fn sample(&self, rng: &mut StdRng) -> RepoPath {
        let u = rng.gen_f64() * self.cdf.last().copied().unwrap_or(0.0);
        let i = self.cdf.partition_point(|&c| c <= u);
        self.items[i.min(self.items.len() - 1)].clone()
    }
}

/// What a session may touch and what it knows about the repository.
#[derive(Debug, Clone)]
enum Role {
    Visitor {
        nodes: Zipf,
        files: Zipf,
    },
    /// Edits citations of `targets` (files no visitor reads) and pushes.
    Member {
        targets: Vec<RepoPath>,
        cited: BTreeSet<RepoPath>,
    },
    /// The local developer: edits, commits and cites anything.
    Developer {
        nodes: Zipf,
        files: Vec<RepoPath>,
        cited: BTreeSet<RepoPath>,
    },
}

/// One session's infinite, deterministic op stream.
#[derive(Debug, Clone)]
pub struct Stream {
    rng: StdRng,
    mix: Mix,
    block: Vec<Class>,
    role: Role,
    /// Ops issued so far (citation tags and edit versions derive from it).
    n: usize,
    /// A member session opens with the popup's sign-in render.
    sign_in: Option<RepoPath>,
}

impl Stream {
    fn new(seed: u64, id: u64, mix: Mix, role: Role, sign_in: Option<RepoPath>) -> Stream {
        Stream {
            rng: rng_for(seed, 100 + id),
            mix,
            block: Vec::new(),
            role,
            n: 0,
            sign_in,
        }
    }

    /// A visitor browsing `nodes` (files and directories) and reading
    /// `files`.
    pub fn visitor(
        seed: u64,
        id: u64,
        mix: Mix,
        nodes: Vec<RepoPath>,
        files: Vec<RepoPath>,
    ) -> Stream {
        let mut rng = rng_for(seed, 200 + id);
        let nodes = Zipf::new(nodes, &mut rng);
        let files = Zipf::new(files, &mut rng);
        Stream::new(seed, id, mix, Role::Visitor { nodes, files }, None)
    }

    /// A member editing the citations of `targets`, of which `cited`
    /// start out explicitly cited.
    pub fn member(
        seed: u64,
        id: u64,
        mix: Mix,
        targets: Vec<RepoPath>,
        cited: BTreeSet<RepoPath>,
    ) -> Stream {
        let first = targets[0].clone();
        Stream::new(seed, id, mix, Role::Member { targets, cited }, Some(first))
    }

    /// The local developer of `project`.
    pub fn developer(seed: u64, id: u64, mix: Mix, project: &Project) -> Stream {
        let mut rng = rng_for(seed, 200 + id);
        let all: Vec<RepoPath> = project
            .files
            .iter()
            .chain(project.dirs.iter())
            .cloned()
            .collect();
        let nodes = Zipf::new(all, &mut rng);
        let role = Role::Developer {
            nodes,
            files: project.files.clone(),
            cited: project.explicit.keys().cloned().collect(),
        };
        Stream::new(seed, id, mix, role, None)
    }

    /// The files a member session edits citations of.
    pub fn member_targets(&self) -> Option<&[RepoPath]> {
        match &self.role {
            Role::Member { targets, .. } => Some(targets),
            _ => None,
        }
    }

    fn next_class(&mut self) -> Class {
        if self.block.is_empty() {
            for &(class, count) in self.mix {
                self.block.extend(std::iter::repeat_n(class, count));
            }
            for i in (1..self.block.len()).rev() {
                self.block.swap(i, self.rng.gen_range(0..i + 1));
            }
            // A clone costs a hundred reads, so how many a run issues
            // must not vary. It opens its block (`pop` takes from the
            // end): at `cite-deep`'s rate each session's third clone of a
            // 20 s window comes about three seconds before the window
            // ends and a fourth would come three seconds after, so every
            // run issues the same number of them.
            if let Some(i) = self.block.iter().position(|c| *c == Class::Clone) {
                let first = self.block.len() - 1;
                self.block.swap(i, first);
            }
        }
        self.block.pop().expect("mixes are non-empty")
    }
}

fn pick(set: &BTreeSet<RepoPath>, rng: &mut StdRng) -> Option<RepoPath> {
    if set.is_empty() {
        return None;
    }
    set.iter().nth(rng.gen_range(0..set.len())).cloned()
}

impl Iterator for Stream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if let Some(node) = self.sign_in.take() {
            return Some(Op::SignIn(node));
        }
        let class = self.next_class();
        self.n += 1;
        let n = self.n;
        let rng = &mut self.rng;
        let op = match &mut self.role {
            Role::Visitor { nodes, files } => match class {
                Class::GenCite => Op::GenCite(nodes.sample(rng)),
                Class::CiteEntry => Op::CiteEntry(nodes.sample(rng)),
                Class::ReadFile => Op::ReadFile(files.sample(rng)),
                Class::LogPage => Op::LogPage,
                Class::ListFiles => Op::ListFiles,
                Class::Branches => Op::Branches,
                Class::Clone => Op::Clone,
                other => unreachable!("{other:?} is not a visitor class"),
            },
            Role::Member { targets, cited } => {
                // Keep every op valid against the state the earlier ops
                // leave: add needs an uncited target, modify and delete a
                // cited one.
                let uncited: BTreeSet<RepoPath> = targets
                    .iter()
                    .filter(|t| !cited.contains(*t))
                    .cloned()
                    .collect();
                let class = match class {
                    Class::Add if uncited.is_empty() => Class::Del,
                    Class::Modify | Class::Del if cited.is_empty() => Class::Add,
                    other => other,
                };
                match class {
                    Class::Add => {
                        let t = pick(&uncited, rng).expect("uncited target");
                        cited.insert(t.clone());
                        Op::AddCite(t, citation(&format!("m{n}"), MEMBER_NAME, rng))
                    }
                    Class::Modify => {
                        let t = pick(cited, rng).expect("cited target");
                        Op::ModifyCite(t, citation(&format!("m{n}"), MEMBER_NAME, rng))
                    }
                    Class::Del => {
                        let t = pick(cited, rng).expect("cited target");
                        cited.remove(&t);
                        Op::DelCite(t)
                    }
                    Class::Push => {
                        let t = targets[rng.gen_range(0..targets.len())].clone();
                        let text = file_text(rng, &t, 1_000_000 + n);
                        Op::Push(t, text)
                    }
                    other => unreachable!("{other:?} is not a member class"),
                }
            }
            Role::Developer {
                nodes,
                files,
                cited,
            } => {
                let class = match class {
                    Class::CliModify if cited.is_empty() => Class::CliAdd,
                    Class::CliAdd if cited.len() >= nodes.len() => Class::CliModify,
                    other => other,
                };
                match class {
                    Class::Commit => {
                        let f = files[rng.gen_range(0..files.len())].clone();
                        let text = file_text(rng, &f, 1_000_000 + n);
                        Op::Commit(f, text)
                    }
                    Class::CliAdd => {
                        // Any node not yet cited; Zipf keeps it near the
                        // popular ones the developer works on.
                        let mut node = nodes.sample(rng);
                        while cited.contains(&node) {
                            node = nodes.sample(rng);
                        }
                        cited.insert(node.clone());
                        Op::CliCiteAdd(node, citation(&format!("d{n}"), DEVELOPER_NAME, rng))
                    }
                    Class::CliModify => {
                        let t = pick(cited, rng).expect("cited node");
                        Op::CliCiteModify(t, citation(&format!("d{n}"), DEVELOPER_NAME, rng))
                    }
                    Class::CiteShow => Op::CiteShow(nodes.sample(rng)),
                    Class::Log => Op::Log,
                    Class::HubPush => Op::HubPush,
                    other => unreachable!("{other:?} is not a developer class"),
                }
            }
        };
        Some(op)
    }
}
