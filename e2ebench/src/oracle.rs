//! The oracle: what a correct GitCite answers, derived from the generated
//! project's own record of its history and citations (never from the
//! system under test), and the checkers that hold every answer to it.
//!
//! Answers that depend on a tip another session is moving (`edit-deep`
//! visitors reading while the member commits) are recorded and checked
//! once the final history is known.

use crate::drive::Answer;
use crate::gen::{Op, Project, MAIN, MEMBER, MEMBER_NAME, PUSH_BRANCH};
use citekit::{format_iso8601, Citation};
use gitlite::{ObjectId, RepoPath};
use hub::LogEntry;
use std::collections::BTreeMap;

/// Closest-ancestor resolution (paper §2) over the explicit citations:
/// the node's own, else its nearest cited ancestor's. `None` means the
/// root citation applies, stamped with the version being cited.
fn resolve(explicit: &BTreeMap<RepoPath, Citation>, node: &RepoPath) -> Option<Citation> {
    std::iter::once(node.clone())
        .chain(node.ancestors())
        .find_map(|p| explicit.get(&p).cloned())
}

/// Expected answers for one hosted project.
#[derive(Debug, Clone)]
pub struct Expect {
    root: Citation,
    explicit: BTreeMap<RepoPath, Citation>,
    contents: BTreeMap<RepoPath, Vec<u8>>,
    listing: Vec<RepoPath>,
    history: Vec<LogEntry>,
    branches: Vec<String>,
    objects: usize,
    /// Another session commits to `main` while this one reads it.
    live_tip: bool,
}

impl Expect {
    /// Expectations for `project` as imported. `with_push_branch` adds
    /// the member's push branch to the branch list; `live_tip` defers
    /// tip-dependent checks to [`finish`].
    pub fn new(project: &Project, with_push_branch: bool, live_tip: bool) -> Expect {
        let mut listing: Vec<RepoPath> = project.files.clone();
        listing.push(citekit::citation_path());
        listing.sort();
        let mut branches = vec![MAIN.to_owned()];
        if with_push_branch {
            branches.push(PUSH_BRANCH.to_owned());
            branches.sort();
        }
        Expect {
            root: project.root.clone(),
            explicit: project.explicit.clone(),
            contents: project.contents.clone(),
            listing,
            history: project.history.clone(),
            branches,
            objects: project.repo.odb().len(),
            live_tip,
        }
    }

    fn tip(&self) -> (String, i64) {
        (self.history[0].id.short(), self.history[0].timestamp)
    }

    pub fn checker(&self) -> Checker<'_> {
        Checker {
            expect: self,
            explicit: self.explicit.clone(),
            commits: Vec::new(),
            stamps: Vec::new(),
            pages: Vec::new(),
        }
    }
}

/// One session's checker. Sessions write disjoint state, so each keeps
/// its own model: the member's explicit citations move with its ops, a
/// visitor's never do.
pub struct Checker<'a> {
    expect: &'a Expect,
    explicit: BTreeMap<RepoPath, Citation>,
    /// Commits the member's citation ops made, oldest first, with the
    /// message each must carry.
    commits: Vec<(ObjectId, String)>,
    /// Root-stamped citations read while the tip was moving.
    stamps: Vec<Citation>,
    /// Log pages read while the tip was moving.
    pages: Vec<Vec<LogEntry>>,
}

impl Checker<'_> {
    fn citation(&mut self, node: &RepoPath, got: &Citation) -> Result<(), String> {
        let root = &self.expect.root;
        let want = match resolve(&self.explicit, node) {
            Some(explicit) => explicit,
            None if self.expect.live_tip => {
                // Stamped with a tip another session is moving: the
                // identity must match now, the stamp once the history is
                // final.
                if *got != root.stamped(&got.commit_id, &got.committed_date) {
                    return Err(format!(
                        "generate_citation {node}: {got:?} is not the root's"
                    ));
                }
                self.stamps.push(got.clone());
                return Ok(());
            }
            None => {
                let (tip, ts) = self.expect.tip();
                root.stamped(&tip, &format_iso8601(ts))
            }
        };
        (*got == want)
            .then_some(())
            .ok_or_else(|| format!("generate_citation {node}: got {got:?}, want {want:?}"))
    }

    /// Checks the answer to `op`.
    pub fn check(&mut self, op: &Op, answer: &Answer) -> Result<(), String> {
        let e = self.expect;
        match (op, answer) {
            (Op::GenCite(node), Answer::Citation(got)) => self.citation(node, got),
            (Op::CiteEntry(node), Answer::Entry(got)) => {
                let want = self.explicit.get(node);
                (got.as_ref() == want)
                    .then_some(())
                    .ok_or_else(|| format!("citation_entry {node}: got {got:?}, want {want:?}"))
            }
            (Op::ReadFile(file), Answer::File(got)) => (e.contents.get(file) == Some(got))
                .then_some(())
                .ok_or_else(|| format!("read_file {file}: wrong bytes")),
            (Op::LogPage, Answer::Page(page)) => {
                let n = page.items.len();
                if n != e.history.len().min(crate::gen::LOG_PAGE as usize)
                    || page.next.is_none() != (n == e.history.len())
                {
                    return Err(format!("log_page: {n} entries, next {:?}", page.next));
                }
                if e.live_tip {
                    self.pages.push(page.items.clone());
                    Ok(())
                } else if page.items[..] == e.history[..n] {
                    Ok(())
                } else {
                    Err("log_page: entries differ from the history".into())
                }
            }
            (Op::ListFiles, Answer::Paths(got)) => {
                (*got == e.listing).then_some(()).ok_or_else(|| {
                    format!("list_files: {} paths, want {}", got.len(), e.listing.len())
                })
            }
            (Op::Branches, Answer::Names(got)) => (*got == e.branches)
                .then_some(())
                .ok_or_else(|| format!("branches: got {got:?}, want {:?}", e.branches)),
            (Op::Clone, Answer::Clone { tip, objects }) => {
                let want = (e.history[0].id, e.objects);
                ((*tip, *objects) == want).then_some(()).ok_or_else(|| {
                    format!("clone_repo: tip {tip} with {objects} objects, want {want:?}")
                })
            }
            (
                Op::SignIn(node),
                Answer::SignIn {
                    user,
                    can_write,
                    entry,
                    generated,
                },
            ) => {
                if user != MEMBER || !can_write {
                    return Err(format!("sign-in: user {user}, can_write {can_write}"));
                }
                if entry.as_ref() != self.explicit.get(node) {
                    return Err(format!("sign-in: wrong explicit citation for {node}"));
                }
                self.citation(node, generated)
            }
            (Op::AddCite(node, cite) | Op::ModifyCite(node, cite), Answer::Commit(id)) => {
                self.explicit.insert(node.clone(), cite.clone());
                self.commit(op, node, *id)
            }
            (Op::DelCite(node), Answer::Commit(id)) => {
                self.explicit.remove(node);
                self.commit(op, node, *id)
            }
            (Op::Push(..), Answer::Pushed { got, want }) => (got == want)
                .then_some(())
                .ok_or_else(|| format!("push: hub tip {got}, local tip {want}")),
            (op, answer) => Err(format!("{} answered {answer:?}", op.class())),
        }
    }

    fn commit(&mut self, op: &Op, node: &RepoPath, id: ObjectId) -> Result<(), String> {
        let known = self.commits.iter().any(|(c, _)| *c == id)
            || self.expect.history.iter().any(|h| h.id == id);
        if known {
            return Err(format!("{}: commit {id} is not new", op.class()));
        }
        let message = format!("{} {}", op.class(), node.to_cite_key(false));
        self.commits.push((id, message));
        Ok(())
    }

    /// The member's current model of explicit citations on `nodes`.
    pub fn explicit_on<'b>(
        &self,
        nodes: impl Iterator<Item = &'b RepoPath>,
    ) -> Vec<(RepoPath, Option<Citation>)> {
        nodes
            .map(|n| (n.clone(), self.explicit.get(n).cloned()))
            .collect()
    }
}

/// Checks what could only be checked once every session stopped:
/// `final_log` (the whole history of `main`, newest first) must be the
/// member's commits on top of the generated history, and every answer
/// read off a moving tip must match a tip that really existed.
pub fn finish(
    expect: &Expect,
    checkers: &[&Checker],
    final_log: &[LogEntry],
) -> Result<(), String> {
    let commits: Vec<&(ObjectId, String)> = checkers.iter().flat_map(|c| &c.commits).collect();
    let k = commits.len();
    if final_log.len() != k + expect.history.len() || final_log[k..] != expect.history[..] {
        return Err(format!(
            "final log has {} entries; want {k} member commits on the {} generated ones",
            final_log.len(),
            expect.history.len()
        ));
    }
    for (entry, (id, message)) in final_log[..k].iter().zip(commits.iter().rev()) {
        if entry.id != *id || entry.message != *message || entry.author != MEMBER_NAME {
            return Err(format!(
                "final log entry {entry:?} is not member commit {id} {message:?}"
            ));
        }
    }
    let tips = &final_log[..=k];
    for stamp in checkers.iter().flat_map(|c| &c.stamps) {
        let known = tips.iter().any(|t| {
            t.id.short() == stamp.commit_id && format_iso8601(t.timestamp) == stamp.committed_date
        });
        if !known {
            return Err(format!(
                "generate_citation stamped {stamp:?}, which was never the tip"
            ));
        }
    }
    for page in checkers.iter().flat_map(|c| &c.pages) {
        let at = tips.iter().position(|t| t.id == page[0].id);
        let ok = at.is_some_and(|j| final_log[j..].starts_with(page));
        if !ok {
            return Err(format!(
                "log_page starting at {} is not a log of any tip",
                page[0].id
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The local developer
// ---------------------------------------------------------------------

/// Checks the `gitcite` CLI's output against the developer's own record
/// of what they committed and cited.
pub struct DevChecker {
    root: Citation,
    explicit: BTreeMap<RepoPath, Citation>,
    head: (String, i64),
    commits: usize,
    last_message: String,
    repo_id: String,
    push_branch: String,
}

impl DevChecker {
    /// A checker for a developer working on a checkout of `project` and
    /// pushing `main` to `push_branch` of hosted `repo_id`.
    pub fn new(project: &Project, repo_id: &str, push_branch: &str) -> DevChecker {
        let tip = &project.history[0];
        DevChecker {
            root: project.root.clone(),
            explicit: project.explicit.clone(),
            head: (tip.id.short(), tip.timestamp),
            commits: project.history.len(),
            last_message: tip.message.clone(),
            repo_id: repo_id.to_owned(),
            push_branch: push_branch.to_owned(),
        }
    }

    /// Timestamp the next commit is made with (`--date`).
    pub fn next_commit_ts(&self) -> i64 {
        self.head.1 + 3600
    }

    /// Checks one command's standard output. Returns whether the command
    /// ran auto-gc.
    pub fn check(&mut self, op: &Op, out: &str) -> Result<bool, String> {
        let autogc = out.lines().any(|l| l.starts_with("auto-gc: packed"));
        let first = out.lines().next().unwrap_or("");
        match op {
            Op::Commit(file, _) => {
                let short = first
                    .strip_prefix("committed ")
                    .filter(|s| s.len() == 7 && s.bytes().all(|b| b.is_ascii_hexdigit()))
                    .ok_or_else(|| format!("commit: unexpected output {out:?}"))?;
                self.head = (short.to_owned(), self.next_commit_ts());
                self.commits += 1;
                self.last_message = format!("edit {file}");
            }
            Op::CliCiteAdd(node, cite) | Op::CliCiteModify(node, cite) => {
                let verb = if matches!(op, Op::CliCiteAdd(..)) {
                    "added"
                } else {
                    "modified"
                };
                let want = format!("citation {verb} at {}", node.to_cite_key(false));
                if first != want {
                    return Err(format!("{}: got {first:?}, want {want:?}", op.class()));
                }
                self.explicit.insert(node.clone(), cite.clone());
            }
            Op::CiteShow(node) => {
                let want = resolve(&self.explicit, node).unwrap_or_else(|| {
                    self.root
                        .stamped(&self.head.0, &format_iso8601(self.head.1))
                });
                let got = sjson::parse(out.trim())
                    .map_err(|e| e.to_string())
                    .and_then(|v| Citation::from_value(&v).map_err(|e| e.to_string()))
                    .map_err(|e| format!("cite show {node}: unparseable output: {e}"))?;
                if got != want {
                    return Err(format!("cite show {node}: got {got:?}, want {want:?}"));
                }
            }
            Op::Log => {
                let lines: Vec<&str> = out.lines().collect();
                let ok = lines.len() == self.commits
                    && first.starts_with(&self.head.0)
                    && first.ends_with(&self.last_message);
                if !ok {
                    return Err(format!(
                        "log: {} lines starting {first:?}; want {} starting with {} and ending {:?}",
                        lines.len(),
                        self.commits,
                        self.head.0,
                        self.last_message
                    ));
                }
            }
            Op::HubPush => {
                let want = format!(
                    "pushed {MAIN} -> {}:{} at {}",
                    self.repo_id, self.push_branch, self.head.0
                );
                if first != want {
                    return Err(format!("hub push: got {first:?}, want {want:?}"));
                }
            }
            other => return Err(format!("{} is not a developer op", other.class())),
        }
        Ok(autogc)
    }
}
