//! Executes hub ops the way the extension popup and the member's local
//! clone issue them, through a [`HubClient`] over any transport — a
//! socket in the benchmark, an in-process hub in the tests.

use crate::gen::{Op, LOG_PAGE, MAIN, MEMBER_NAME, PUSH_BRANCH};
use citekit::Citation;
use gitlite::{ObjectId, RepoPath, Repository, Signature};
use hub::{ApiRequest, ApiResponse, HubClient, HubError, LogEntry, Page, Token, Transport};

/// What an op returned, in the shape the oracle checks.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    Citation(Citation),
    Entry(Option<Citation>),
    File(Vec<u8>),
    Page(Page<LogEntry>),
    Paths(Vec<RepoPath>),
    Names(Vec<String>),
    Clone {
        tip: ObjectId,
        objects: usize,
    },
    SignIn {
        user: String,
        can_write: bool,
        entry: Option<Citation>,
        generated: Box<Citation>,
    },
    Commit(ObjectId),
    Pushed {
        got: ObjectId,
        want: ObjectId,
    },
}

/// One hub session: a client, the member's token when signed in, and
/// the member's local clone that pushes come from.
pub struct Session<T: Transport> {
    pub client: HubClient<T>,
    pub repo_id: String,
    pub token: Option<Token>,
    pub local: Option<Repository>,
    /// Branch reads and citation edits go to.
    pub branch: String,
    /// Branch pushes go to, from the local clone's branch of that name.
    pub push_branch: String,
    pushes: i64,
}

fn unexpected(r: &ApiResponse) -> HubError {
    HubError::Protocol(format!("unexpected reply {}", r.kind()))
}

impl<T: Transport> Session<T> {
    pub fn new(client: HubClient<T>, repo_id: &str) -> Session<T> {
        Session {
            client,
            repo_id: repo_id.to_owned(),
            token: None,
            local: None,
            branch: MAIN.to_owned(),
            push_branch: PUSH_BRANCH.to_owned(),
            pushes: 0,
        }
    }

    /// Work a user does before the request leaves: the local commit a
    /// push ships. Not part of the op's latency.
    pub fn prepare(&mut self, op: &Op) -> Result<(), HubError> {
        if let Op::Push(file, text) = op {
            let local = self
                .local
                .as_mut()
                .ok_or_else(|| HubError::BadRequest("push without a local clone".into()))?;
            local
                .worktree_mut()
                .write(file, text.clone())
                .map_err(HubError::Git)?;
            self.pushes += 1;
            let sig = Signature::new(
                MEMBER_NAME,
                "member@example.org",
                1_800_000_000 + self.pushes,
            );
            local
                .commit(sig, format!("local edit {}", self.pushes))
                .map_err(HubError::Git)?;
        }
        Ok(())
    }

    fn token(&self) -> Result<&Token, HubError> {
        self.token.as_ref().ok_or(HubError::AuthFailed)
    }

    /// Sends `op` and returns what came back.
    pub fn exec(&mut self, op: &Op) -> Result<Answer, HubError> {
        let c = &self.client;
        let repo = self.repo_id.as_str();
        let branch = self.branch.as_str();
        Ok(match op {
            Op::GenCite(node) => Answer::Citation(c.generate_citation(repo, branch, node)?),
            Op::CiteEntry(node) => Answer::Entry(c.citation_entry(repo, branch, node)?),
            Op::ReadFile(file) => Answer::File(c.read_file(repo, branch, file)?),
            Op::LogPage => Answer::Page(c.log_page(repo, branch, None, Some(LOG_PAGE))?),
            Op::ListFiles => Answer::Paths(c.list_files(repo, branch)?),
            Op::Branches => Answer::Names(c.branches(repo)?),
            Op::Clone => {
                // The bundle as it arrives: materialising it here would
                // take the generator's CPU from the other session.
                let reply = c.call(ApiRequest::CloneRepo {
                    repo_id: repo.to_owned(),
                })?;
                let ApiResponse::Bundle(bundle) = reply else {
                    return Err(unexpected(&reply));
                };
                let tip = bundle.refs.iter().find(|(b, _)| b == branch).map(|r| r.1);
                Answer::Clone {
                    tip: tip.ok_or_else(|| {
                        HubError::Git(gitlite::GitError::BranchNotFound(branch.to_owned()))
                    })?,
                    objects: bundle.objects.len(),
                }
            }
            Op::SignIn(node) => self.sign_in(node)?,
            Op::AddCite(node, cite) => {
                Answer::Commit(c.add_cite(self.token()?, repo, branch, node, cite.clone())?)
            }
            Op::ModifyCite(node, cite) => {
                Answer::Commit(c.modify_cite(self.token()?, repo, branch, node, cite.clone())?)
            }
            Op::DelCite(node) => Answer::Commit(c.del_cite(self.token()?, repo, branch, node)?),
            Op::Push(..) => {
                let local = self
                    .local
                    .as_ref()
                    .ok_or_else(|| HubError::BadRequest("push without a local clone".into()))?;
                let pb = self.push_branch.as_str();
                let want = local.branch_tip(pb).map_err(HubError::Git)?;
                let got = c.push(self.token()?, repo, pb, local, pb, false)?;
                Answer::Pushed { got, want }
            }
            other => {
                return Err(HubError::BadRequest(format!(
                    "{} is not a hub op",
                    other.class()
                )))
            }
        })
    }

    /// The popup's sign-in render in one batch: identity, write access,
    /// and both lookups for the selected node (member and visitor views).
    fn sign_in(&self, node: &RepoPath) -> Result<Answer, HubError> {
        let token = self.token()?.as_str().to_owned();
        let mut replies = self
            .client
            .batch(vec![
                ApiRequest::Whoami {
                    token: token.clone(),
                },
                ApiRequest::CanWrite {
                    token,
                    repo_id: self.repo_id.clone(),
                },
                ApiRequest::CitationEntry {
                    repo_id: self.repo_id.clone(),
                    branch: self.branch.clone(),
                    path: node.clone(),
                },
                ApiRequest::GenerateCitation {
                    repo_id: self.repo_id.clone(),
                    branch: self.branch.clone(),
                    path: node.clone(),
                },
            ])?
            .into_iter()
            .map(ApiResponse::into_result);
        let mut next = || replies.next().expect("batch() checked the length");
        let user = match next()? {
            ApiResponse::User(u) => u.username,
            other => return Err(unexpected(&other)),
        };
        let can_write = match next()? {
            ApiResponse::Bool(b) => b,
            other => return Err(unexpected(&other)),
        };
        let entry = match next()? {
            ApiResponse::CitationOpt(e) => e,
            other => return Err(unexpected(&other)),
        };
        let generated = match next()? {
            ApiResponse::Citation(g) => Box::new(g),
            other => return Err(unexpected(&other)),
        };
        Ok(Answer::SignIn {
            user,
            can_write,
            entry,
            generated,
        })
    }
}
