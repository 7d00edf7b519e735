//! Hosting: creating, importing and forking repositories, roles, the
//! public reads, have/want negotiation and pushes.

use super::{frontier, ref_moves, unexpected, Held, Hub, Token};
use crate::api::{
    walk_pages, ApiRequest, ApiResponse, Negotiation, Page, RepoBundle, DEFAULT_PAGE_SIZE,
    MAX_PAGE_SIZE,
};
use crate::audit::Record;
use crate::error::{HubError, Result};
use crate::perm::{Action, Role};
use citekit::{CitedRepo, ForkOptions};
use gitlite::{ObjectId, RepoPath, Repository, Signature};
use std::collections::HashSet;
use std::ops::Bound;

/// A log entry returned by [`Hub::log`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Commit id.
    pub id: ObjectId,
    /// Author display name.
    pub author: String,
    /// Commit timestamp.
    pub timestamp: i64,
    /// Commit message.
    pub message: String,
}

wrappers! {
    /// The role a user has on a repository (`None` = implicit reader).
    fn role_of(repo_id: &str, username: &str) -> Option<Role> =
        RoleOf { repo_id: repo_id.to_owned(), username: username.to_owned() } => RoleOpt;

    /// True when the token's user may modify citations on the repository —
    /// the check that enables/disables the popup's Add/Delete buttons.
    fn can_write(token: &Token, repo_id: &str) -> bool =
        CanWrite { token: token.0.clone(), repo_id: repo_id.to_owned() } => Bool;

    /// One page of the repository listing, ordered by id.
    fn list_repos_page(cursor: Option<&str>, limit: Option<u32>) -> Page<String> =
        ListReposPage { cursor: cursor.map(str::to_owned), limit } => NamesPage;

    /// Branch names of a repository.
    fn branches(repo_id: &str) -> Vec<String> = Branches { repo_id: repo_id.to_owned() } => Names;

    /// File paths at a branch tip.
    fn list_files(repo_id: &str, branch: &str) -> Vec<RepoPath> =
        ListFiles { repo_id: repo_id.to_owned(), branch: branch.to_owned() } => Paths;

    /// Reads one file at a branch tip.
    fn read_file(repo_id: &str, branch: &str, path: &RepoPath) -> Vec<u8> =
        ReadFile {
            repo_id: repo_id.to_owned(),
            branch: branch.to_owned(),
            path: path.clone(),
        } => FileData;

    /// One page of a branch's log. Pass `None` to start at
    /// the tip; pass the returned `next` cursor to continue. The cursor
    /// pins the tip it started from, so the page sequence is stable even
    /// while writers advance the branch.
    fn log_page(
        repo_id: &str,
        branch: &str,
        cursor: Option<&str>,
        limit: Option<u32>,
    ) -> Page<LogEntry> =
        LogPage {
            repo_id: repo_id.to_owned(),
            branch: branch.to_owned(),
            cursor: cursor.map(str::to_owned),
            limit,
        } => LogPage;

    /// Which of `haves` the hub already holds reachable from the
    /// repository's refs — the have/want exchange that lets
    /// a push ship only missing objects.
    fn negotiate(repo_id: &str, haves: &[ObjectId]) -> Negotiation =
        Negotiate { repo_id: repo_id.to_owned(), haves: haves.to_vec() } => Negotiation;

    /// Creates a citation-enabled repository owned by the token's user and
    /// commits the initial version (default root citation). Returns the
    /// repository id `owner/name`.
    fn create_repo(token: &Token, name: &str) -> String =
        CreateRepo { token: token.0.clone(), name: name.to_owned() } => Id;

    /// `ForkCite` via the platform: forks `src_repo_id` into a new
    /// repository under the token's user (paper §3: "ForkCite through
    /// GitHub's Fork").
    fn fork(token: &Token, src_repo_id: &str, new_name: &str) -> String =
        Fork {
            token: token.0.clone(),
            src_repo_id: src_repo_id.to_owned(),
            new_name: new_name.to_owned(),
        } => Id;

    /// Grants `username` a role on a repository (owner only).
    fn add_member(token: &Token, repo_id: &str, username: &str, role: Role) -> () = AddMember {
        token: token.0.clone(),
        repo_id: repo_id.to_owned(),
        username: username.to_owned(),
        role,
    } => Unit;

    /// Hosts an existing repository (e.g. a retrofitted one) under the
    /// token's user. The repository is re-homed onto the hub's configured
    /// store backend (all branches and their histories are transferred),
    /// so imported repositories get the same durability as created ones.
    fn import_repo(token: &Token, name: &str, repo: Repository) -> String = ImportRepo {
        token: token.0.clone(),
        name: name.to_owned(),
        bundle: RepoBundle::from_repository(&repo).map_err(HubError::Git)?,
    } => Id;

    /// Pushes `local_branch` of `local` to `branch` of the hosted
    /// repository (member+; fast-forward unless `force`).
    fn push(
        token: &Token,
        repo_id: &str,
        branch: &str,
        local: &Repository,
        local_branch: &str,
        force: bool,
    ) -> ObjectId =
        Push {
            token: token.0.clone(),
            repo_id: repo_id.to_owned(),
            branch: branch.to_owned(),
            force,
            bundle: RepoBundle::from_branch(local, local_branch).map_err(HubError::Git)?,
        } => Commit;
}

impl Hub {
    /// All repository ids, walked page by page (empty when the listing
    /// cannot be read, e.g. on a follower past its staleness bound).
    pub fn list_repos(&self) -> Vec<String> {
        walk_pages(|cursor, limit| self.list_repos_page(cursor, limit)).unwrap_or_default()
    }

    /// Commit log of a branch, newest first, walked page by page.
    pub fn log(&self, repo_id: &str, branch: &str) -> Result<Vec<LogEntry>> {
        walk_pages(|cursor, limit| self.log_page(repo_id, branch, cursor, limit))
    }

    /// Clones a hosted repository (public read — what `git clone` does).
    pub fn clone_repo(&self, repo_id: &str) -> Result<Repository> {
        match self.unwrap(ApiRequest::CloneRepo {
            repo_id: repo_id.to_owned(),
        })? {
            ApiResponse::Bundle(bundle) => bundle
                .into_repository(Box::new(gitlite::MemStore::new()))
                .map_err(HubError::Git),
            other => Err(unexpected(&other)),
        }
    }

    // ----- operations ---------------------------------------------------------
    pub(super) fn op_create_repo(&self, token: &str, name: &str) -> Result<String> {
        let user = self.auth(token)?;
        if name.is_empty() || name.contains('/') || name.contains(char::is_whitespace) {
            return Err(HubError::BadRequest(format!(
                "invalid repository name {name:?}"
            )));
        }
        let repo_id = format!("{}/{}", user.username, name);
        if self.repos.read().contains_key(&repo_id) {
            return Err(HubError::RepoExists(repo_id));
        }
        // Build the repository outside any lock; losing a creation race
        // only wastes the loser's work, never corrupts state.
        let url = format!("{}/{}", self.base_url, repo_id);
        let mut cited =
            CitedRepo::init_with_store(name, &user.display_name, &url, (self.store_factory)());
        let ts = self.tick();
        cited
            .commit(
                Signature::new(&user.display_name, &user.email, ts),
                "initialize repository",
            )
            .map_err(HubError::Cite)?;
        self.host(ts, &user, "create_repo", &repo_id, cited.into_repository())?;
        Ok(repo_id)
    }

    pub(super) fn op_import_repo(
        &self,
        token: &str,
        name: &str,
        bundle: &RepoBundle,
    ) -> Result<String> {
        let user = self.auth(token)?;
        let repo_id = format!("{}/{}", user.username, name);
        if self.repos.read().contains_key(&repo_id) {
            return Err(HubError::RepoExists(repo_id));
        }
        // A delta bundle cannot seed a repository: its basis objects
        // live only on the peer it was negotiated against.
        if bundle.is_delta() {
            return Err(HubError::BadRequest(
                "import requires a full bundle (delta bundles are push-only)".into(),
            ));
        }
        // Quota check before any object is materialized or any lock held.
        let size = self.check_bundle_quota(&user.username, &repo_id, false, bundle)?;
        let rehomed = bundle
            .into_repository((self.store_factory)())
            .map_err(HubError::Git)?;
        rehomed.head_commit().map_err(HubError::Git)?; // must have content
        let ts = self.tick();
        self.host(ts, &user, "import_repo", &repo_id, rehomed)?;
        self.account_repo_bytes(&repo_id, size);
        Ok(repo_id)
    }

    pub(super) fn op_add_member(
        &self,
        token: &str,
        repo_id: &str,
        username: &str,
        role: Role,
    ) -> Result<()> {
        let user = self.auth(token)?;
        if !self.users.read().contains_key(username) {
            return Err(HubError::UserNotFound(username.to_owned()));
        }
        self.write_repo(
            &user,
            repo_id,
            "add_member",
            Action::Admin,
            |hosted, _, ok| {
                let records = vec![Record::RoleSet {
                    repo_id: repo_id.to_owned(),
                    username: username.to_owned(),
                    role,
                }];
                self.apply(ok, records, Held::Repo(hosted)).map(drop)
            },
        )
    }

    /// Clamps a wire `limit` to `1..=MAX_PAGE_SIZE`, defaulting absent or
    /// zero limits to [`DEFAULT_PAGE_SIZE`].
    pub(super) fn page_limit(limit: Option<u32>) -> usize {
        match limit {
            None | Some(0) => DEFAULT_PAGE_SIZE,
            Some(n) => (n as usize).min(MAX_PAGE_SIZE),
        }
    }

    pub(super) fn op_log_page(
        &self,
        repo_id: &str,
        branch: &str,
        cursor: Option<&str>,
        limit: Option<u32>,
    ) -> Result<Page<LogEntry>> {
        let limit = Self::page_limit(limit);
        let cell = self.repo(repo_id)?;
        let hosted = cell.read();
        // The cursor pins the tip the walk started from, so concurrent
        // pushes cannot shift entries between pages.
        let (tip, offset) = match cursor {
            None => (hosted.repo.branch_tip(branch).map_err(HubError::Git)?, 0),
            Some(c) => parse_log_cursor(c)?,
        };
        // The ordering walk is graph-served and cheap; only the page's
        // entries decode their commits.
        let ids = hosted.repo.log(tip).map_err(HubError::Git)?;
        let start = offset.min(ids.len());
        let end = (start + limit).min(ids.len());
        let mut items = Vec::with_capacity(end - start);
        for &id in &ids[start..end] {
            let obj = hosted.repo.odb().commit_ref(id).map_err(HubError::Git)?;
            let c = obj.as_commit().expect("checked kind");
            items.push(LogEntry {
                id,
                author: c.author.name.clone(),
                timestamp: c.author.timestamp,
                message: c.message.clone(),
            });
        }
        let next = (end < ids.len()).then(|| format!("{}:{end}", tip.to_hex()));
        Ok(Page { items, next })
    }

    pub(super) fn op_list_repos_page(
        &self,
        cursor: Option<&str>,
        limit: Option<u32>,
    ) -> Page<String> {
        let limit = Self::page_limit(limit);
        let repos = self.repos.read();
        let mut items: Vec<String> = match cursor {
            None => repos.keys().take(limit + 1).cloned().collect(),
            Some(c) => repos
                .range::<String, _>((Bound::Excluded(c.to_owned()), Bound::Unbounded))
                .map(|(k, _)| k.clone())
                .take(limit + 1)
                .collect(),
        };
        let next = (items.len() > limit).then(|| {
            items.truncate(limit);
            items.last().expect("limit >= 1").clone()
        });
        Page { items, next }
    }

    pub(super) fn op_negotiate(&self, repo_id: &str, haves: &[ObjectId]) -> Result<Negotiation> {
        let cell = self.repo(repo_id)?;
        let hosted = cell.read();
        // "Common" means reachable from a ref. Mere store presence is
        // not enough: an object left behind by a force push may be
        // unreachable and about to be gc'd.
        let tips: Vec<ObjectId> = hosted.repo.branches().map(|(_, tip)| tip).collect();
        let graph_covers_tips = hosted
            .repo
            .odb()
            .commit_graph()
            .is_some_and(|g| tips.iter().all(|&t| g.lookup(t).is_some()));
        let mut negotiation = Negotiation::default();
        if graph_covers_tips {
            // Pack-backed repositories after maintenance: answer each
            // (client-capped) have with the generation-pruned
            // `is_ancestor` — near O(output) per probe, no O(history)
            // set materialized under the repository read lock.
            for &h in haves {
                let reachable = tips
                    .iter()
                    .any(|&t| hosted.repo.is_ancestor(h, t).unwrap_or(false));
                if reachable {
                    negotiation.common.push(h);
                } else {
                    negotiation.missing.push(h);
                }
            }
        } else {
            // Graph-less stores: a per-have decode walk would re-walk
            // the history up to |haves| times, so one materialized
            // ancestor-set walk per distinct tip is the cheaper shape.
            let mut reachable: HashSet<ObjectId> = HashSet::new();
            for tip in tips {
                if !reachable.contains(&tip) {
                    reachable.extend(
                        gitlite::ancestor_set(hosted.repo.odb(), tip).map_err(HubError::Git)?,
                    );
                }
            }
            for &h in haves {
                if reachable.contains(&h) {
                    negotiation.common.push(h);
                } else {
                    negotiation.missing.push(h);
                }
            }
        }
        Ok(negotiation)
    }

    pub(super) fn op_push(
        &self,
        token: &str,
        repo_id: &str,
        branch: &str,
        force: bool,
        bundle: &RepoBundle,
    ) -> Result<ObjectId> {
        let user = self.auth(token)?;
        let src_branch = bundle
            .head
            .clone()
            .or_else(|| bundle.refs.first().map(|(b, _)| b.clone()))
            .ok_or_else(|| HubError::BadRequest("push bundle carries no ref".into()))?;
        // Quota check before materialization: an oversized bundle is
        // refused on its declared byte count alone, costing the server
        // nothing but the summation.
        let size = self.check_bundle_quota(&user.username, repo_id, true, bundle)?;
        // Materialize a full bundle (hash-verifying its whole closure)
        // *before* taking the repository's write lock — readers of this
        // repo must only stall for the ref update, not the verification.
        // A delta is O(new objects) and needs the hosted store anyway.
        let src = match bundle.is_delta() {
            true => None,
            false => Some(
                bundle
                    .into_repository(Box::new(gitlite::MemStore::new()))
                    .map_err(HubError::Git)?,
            ),
        };
        self.write_repo(&user, repo_id, "push", Action::Write, |hosted, _, ok| {
            let before = frontier(&hosted.repo);
            let tip = match &src {
                Some(src) => gitlite::push(src, &mut hosted.repo, &src_branch, branch, force),
                None => apply_delta_push(&mut hosted.repo, &src_branch, branch, force, bundle),
            }
            .map_err(HubError::Git)?;
            self.account_repo_bytes(repo_id, size);
            self.apply(ok, ref_moves(repo_id, &before, &hosted.repo), Held::None)?;
            Ok(tip)
        })
    }

    pub(super) fn op_fork(&self, token: &str, src_repo_id: &str, new_name: &str) -> Result<String> {
        let user = self.auth(token)?;
        let new_repo_id = format!("{}/{}", user.username, new_name);
        if self.repos.read().contains_key(&new_repo_id) {
            return Err(HubError::RepoExists(new_repo_id));
        }
        let src_repo = self.repo(src_repo_id)?.read().repo.clone();
        let ts = self.tick();
        let opts = ForkOptions::new(
            new_name,
            &user.display_name,
            format!("{}/{}", self.base_url, new_repo_id),
        );
        let outcome = citekit::fork_cite_into(
            &src_repo,
            &opts,
            Signature::new(&user.display_name, &user.email, ts),
            (self.store_factory)(),
        )
        .map_err(HubError::Cite)?;
        let fork = outcome.fork.into_repository();
        self.host(ts, &user, "fork", &new_repo_id, fork)?;
        Ok(new_repo_id)
    }
}

/// Decodes an opaque log cursor (`<tip hex>:<offset>`).
fn parse_log_cursor(c: &str) -> Result<(ObjectId, usize)> {
    c.split_once(':')
        .and_then(|(hex, off)| Some((ObjectId::from_hex(hex)?, off.parse().ok()?)))
        .ok_or_else(|| HubError::BadRequest(format!("invalid log cursor {c:?}")))
}

/// Applies a negotiated delta bundle onto the hosted
/// repository: the server-side half of the have/want exchange. Same ref
/// rules as [`gitlite::push`]; on top of them [`load_bundle`] proves the
/// delta anchored and complete, so a lying or stale client can make the
/// push fail but never leave the branch pointing into a hole.
fn apply_delta_push(
    repo: &mut Repository,
    src_branch: &str,
    dst_branch: &str,
    force: bool,
    bundle: &RepoBundle,
) -> gitlite::Result<ObjectId> {
    let new_tip = bundle
        .refs
        .iter()
        .find(|(b, _)| b == src_branch)
        .or_else(|| bundle.refs.first())
        .map(|(_, tip)| *tip)
        .ok_or(gitlite::GitError::BranchNotFound(src_branch.to_owned()))?;
    load_bundle(repo, bundle, &[new_tip])?;
    if let Ok(old_tip) = repo.branch_tip(dst_branch) {
        if !repo.is_ancestor(old_tip, new_tip)? && !force {
            return Err(gitlite::GitError::NonFastForward {
                branch: dst_branch.to_owned(),
            });
        }
    }
    repo.set_branch(dst_branch, new_tip)?;
    if repo.current_branch() == Some(dst_branch) {
        repo.checkout_branch(dst_branch)?;
    }
    Ok(new_tip)
}

/// Loads a bundle's objects into `repo` and proves them complete for
/// `tips`, the one safety ladder a negotiated push and a replica apply
/// share. The bundle must be *anchored* (every basis commit already
/// present), `put_raw` hash-verifies every object, and the bundle must be
/// *complete*: a walk from each tip finds its whole closure, stopping at
/// basis commits (complete by the first check) and at commits the
/// commit-graph indexes (they were reachable at the last gc, so their
/// closures are complete too — this bounds the walk to roughly the
/// bundle even when the sender's have sample was sparse). A corrupt,
/// truncated or garbled bundle fails here, before any ref moves.
pub(super) fn load_bundle(
    repo: &mut Repository,
    bundle: &RepoBundle,
    tips: &[ObjectId],
) -> gitlite::Result<()> {
    for &b in &bundle.basis {
        if !repo.odb().contains(b) {
            return Err(gitlite::GitError::ObjectNotFound(b));
        }
    }
    for (id, bytes) in &bundle.objects {
        repo.odb_mut().put_raw(*id, bytes)?;
    }
    let mut seen: HashSet<ObjectId> = bundle.basis.iter().copied().collect();
    let mut stack = tips.to_vec();
    while let Some(id) = stack.pop() {
        if !seen.insert(id) {
            continue;
        }
        if repo
            .odb()
            .commit_graph()
            .is_some_and(|g| g.lookup(id).is_some())
        {
            continue;
        }
        let obj = repo.odb().get(id)?; // ObjectNotFound if the bundle is short
        match &*obj {
            gitlite::Object::Commit(c) => {
                stack.push(c.tree);
                stack.extend_from_slice(&c.parents);
            }
            gitlite::Object::Tree(t) => {
                for (_, e) in t.iter() {
                    stack.push(e.id);
                }
            }
            gitlite::Object::Blob(_) => {}
        }
    }
    Ok(())
}
