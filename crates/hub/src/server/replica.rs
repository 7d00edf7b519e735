//! The follower side of [`crate::repl`]: the dispatch gate, the derived
//! cursors, bundle application, and the primary's `repl_status` /
//! `repl_fetch` answers. A follower's repositories mirror
//! its primary's through bundles, with no roles (every write redirects
//! to the primary); only its log and deposits go through `Hub::apply`.

use super::{frontier, Frontier, HostedRepo, Hub};
use crate::api::{
    mirror_bundle, ApiRequest, FollowerClass, ReplRepoStatus, ReplStatus, RepoBundle,
};
use crate::error::{HubError, Result};
use crate::repl::ReplState;
use gitlite::{ObjectId, Repository};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;

impl Hub {
    /// The follower-mode dispatch gate (see [`crate::repl`] for the
    /// model): the method table's [`FollowerClass`] decides, per request,
    /// whether a replica may serve it or must answer
    /// [`HubError::NotPrimary`] with the primary's address, which
    /// fleet-aware clients follow transparently.
    pub(super) fn check_follower(&self, request: &ApiRequest) -> Result<()> {
        let state = match self.repl.read().as_ref() {
            Some(state) => Arc::clone(state),
            None => return Ok(()),
        };
        let redirect = || HubError::NotPrimary {
            primary: state.primary().to_owned(),
        };
        match request.follower_class() {
            FollowerClass::Write => Err(redirect()),
            FollowerClass::KnownUser(username) => {
                if self.users.read().contains_key(username) {
                    Ok(())
                } else {
                    Err(redirect())
                }
            }
            FollowerClass::Read => {
                if state.is_stale(crate::repl::unix_now()) {
                    Err(redirect())
                } else {
                    Ok(())
                }
            }
            FollowerClass::Local => Ok(()),
        }
    }

    /// Flips this hub into follower mode, replicating the primary at
    /// `primary_addr`: writes start refusing with `not_primary`
    /// immediately, replicated reads open up once a sync round lands
    /// inside the staleness bound. Returns the shared [`ReplState`] the
    /// replication engine updates. Normally called via
    /// [`crate::repl::Follower::new`].
    pub fn set_follower(
        &self,
        primary_addr: impl Into<String>,
        staleness_secs: u64,
    ) -> Arc<ReplState> {
        let state = Arc::new(ReplState::new(primary_addr.into(), staleness_secs));
        *self.repl.write() = Some(Arc::clone(&state));
        state
    }

    /// The replication state when this hub is a follower, `None` on a
    /// primary.
    pub fn replication(&self) -> Option<Arc<ReplState>> {
        self.repl.read().clone()
    }

    /// The follower's local frontier for one repository: `(head, branch
    /// tips)` exactly as [`ReplRepoStatus`] would describe it — the
    /// derived replication cursor. `None` when the repository does not
    /// exist here yet.
    pub(crate) fn repl_local_frontier(&self, repo_id: &str) -> Option<Frontier> {
        let cell = self.repos.read().get(repo_id).cloned()?;
        let frontier = frontier(&cell.read().repo);
        Some(frontier)
    }

    /// Applies one replication bundle to the local copy of `repo_id`,
    /// creating the repository when it is new here. Follows the lock
    /// order: the repos-map guard is dropped before the repository's
    /// write lock is taken.
    pub(crate) fn repl_apply_bundle(&self, repo_id: &str, bundle: &RepoBundle) -> Result<()> {
        let existing = self.repos.read().get(repo_id).cloned();
        match existing {
            Some(cell) => {
                let mut hosted = cell.write();
                mirror_bundle(&mut hosted.repo, bundle).map_err(HubError::Git)
            }
            None => {
                if bundle.is_delta() {
                    return Err(HubError::Protocol(format!(
                        "delta bundle for a repository this replica does not hold ({repo_id})"
                    )));
                }
                let mut repo = Repository::init_with(bundle.name.clone(), (self.store_factory)());
                mirror_bundle(&mut repo, bundle).map_err(HubError::Git)?;
                let hosted = HostedRepo::new(repo, BTreeMap::new());
                let cell = Arc::new(RwLock::new(hosted));
                self.repos.write().insert(repo_id.to_owned(), cell);
                Ok(())
            }
        }
    }

    /// Drops local repositories absent from the primary's status reply
    /// (deleted upstream). Returns how many were dropped.
    pub(crate) fn repl_drop_missing(&self, keep: &HashSet<String>) -> usize {
        let mut repos = self.repos.write();
        let before = repos.len();
        repos.retain(|id, _| keep.contains(id));
        before - repos.len()
    }

    /// The derived audit cursor: the local log length (sequence numbers
    /// are dense, so this is the next seq to fetch).
    pub(crate) fn repl_audit_cursor(&self) -> u64 {
        self.log.lock().events().len() as u64
    }

    /// Folds the primary's logical epoch into the local clock
    /// (monotonic), keeping token-expiry and rate-limit arithmetic
    /// coherent across the fleet.
    pub(crate) fn repl_observe_epoch(&self, epoch: i64) {
        self.clock.fetch_max(epoch, Ordering::SeqCst);
    }

    /// Everything a replica needs to decide what to pull: the primary's
    /// epoch, audit length, every repository's `(head, refs)` frontier,
    /// and the (tiny) deposit registry. Read-only — snapshots each
    /// repository under its read lock, map guard dropped first.
    pub(super) fn op_repl_status(&self) -> ReplStatus {
        let repos = self
            .cells()
            .into_iter()
            .map(|(repo_id, cell)| {
                let (head, refs) = frontier(&cell.read().repo);
                ReplRepoStatus {
                    repo_id,
                    head,
                    refs,
                }
            })
            .collect();
        ReplStatus {
            epoch: self.now(),
            audit_seq: self.repl_audit_cursor(),
            repos,
            deposits: self.zenodo.lock().deposits().cloned().collect(),
        }
    }

    /// The pull half of replication: `negotiate` against the caller's
    /// haves, then a delta bundle past the common frontier covering
    /// *all* branches (a full bundle when nothing is common — the
    /// bootstrap path).
    pub(super) fn op_repl_fetch(&self, repo_id: &str, haves: &[ObjectId]) -> Result<RepoBundle> {
        let negotiation = self.op_negotiate(repo_id, haves)?;
        let common: HashSet<ObjectId> = negotiation.common.iter().copied().collect();
        let cell = self.repo(repo_id)?;
        let hosted = cell.read();
        RepoBundle::delta_from_refs(&hosted.repo, &common).map_err(HubError::Git)
    }
}
