//! The hub's log: one entry per operation, each a header saying who did
//! what, plus the typed records of the state it changed.
//!
//! Credit and provenance systems need an answer to "who changed this
//! citation, and when" beyond what the commit history shows (e.g. failed
//! attempts, permission denials, token issuance). Every API call records
//! a header here — the [`AuditEvent`] `audit_log_page` serves. A write
//! also carries the records it applied, which say enough to make the
//! same change again: replaying a hub's log into a fresh hub rebuilds its
//! users, repositories, roles, refs, deposits and archive (see
//! `Hub::replay`). Reads, logins, refreshes, maintenance and denials
//! carry no records.

use crate::perm::Role;
use crate::server::Credential;
use crate::zenodo::Deposit;
use gitlite::ObjectId;

/// One recorded API call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditEvent {
    /// Monotonic sequence number.
    pub seq: u64,
    /// Hub logical-clock timestamp (seconds).
    pub timestamp: i64,
    /// Acting user, when authenticated.
    pub actor: Option<String>,
    /// Operation name, e.g. `"add_cite"`.
    pub action: String,
    /// Operation target, e.g. `"leshang/P1"` or a path.
    pub target: String,
    /// Whether the operation succeeded.
    pub ok: bool,
}

/// One change to the hub's state, as `Hub::apply` makes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Record {
    /// A user joined. The credential is the salted hash, never the secret.
    UserRegistered {
        username: String,
        display_name: String,
        credential: Option<Credential>,
    },
    /// A repository is hosted, with `owner` as its owner. `name` is the
    /// repository's own name (bundles carry it); its refs follow as
    /// `RefUpdated` records in the same entry.
    RepoCreated {
        repo_id: String,
        name: String,
        owner: String,
    },
    /// `username` holds `role` on the repository.
    RoleSet {
        repo_id: String,
        username: String,
        role: Role,
    },
    /// A branch moved from `old` (`None`: it did not exist) to `new`.
    RefUpdated {
        repo_id: String,
        branch: String,
        old: Option<ObjectId>,
        new: ObjectId,
    },
    /// HEAD moved to `branch`: imports and forks start wherever their
    /// source's HEAD was, and cite ops and merges leave HEAD on the
    /// branch they wrote.
    HeadSet { repo_id: String, branch: String },
    /// A release was deposited and its DOI minted.
    Deposited(Deposit),
    /// The repository's refs were archived.
    Archived { repo_id: String },
}

/// How an entry reaches the log.
pub(crate) enum Header {
    /// An operation on this hub: the log assigns the next sequence number.
    Local(AuditEvent),
    /// An entry copied from another hub's log (replay, follower
    /// catch-up), which keeps its sequence number.
    Copied(AuditEvent),
    /// State a primary reports outside its log (the deposits in
    /// `repl_status`): applied, but no entry is appended.
    None,
}

impl Header {
    /// The header of an operation on this hub.
    pub(crate) fn local(
        ts: i64,
        actor: Option<&str>,
        action: &str,
        target: &str,
        ok: bool,
    ) -> Header {
        Header::Local(AuditEvent {
            seq: 0,
            timestamp: ts,
            actor: actor.map(str::to_owned),
            action: action.to_owned(),
            target: target.to_owned(),
            ok,
        })
    }
}

/// The log container. Headers and records live in separate vectors, so
/// a read's entry costs its header alone.
#[derive(Debug, Default)]
pub struct AuditLog {
    events: Vec<AuditEvent>,
    /// `(seq, record)` in append order, so sorted by `seq`.
    records: Vec<(u64, Record)>,
}

impl AuditLog {
    /// Appends one entry. A local entry takes the next sequence number.
    /// A copied entry keeps its own and is taken only at exactly the next
    /// one: below it, the entry is already here (idempotent re-delivery)
    /// and skipped; beyond it, it would break the dense numbering
    /// (`Err(next)`).
    pub(crate) fn append(&mut self, header: Header, records: Vec<Record>) -> Result<(), u64> {
        let next = self.events.len() as u64;
        let mut event = match header {
            Header::Local(event) => event,
            Header::Copied(event) if event.seq == next => event,
            Header::Copied(event) if event.seq > next => return Err(next),
            Header::Copied(_) | Header::None => return Ok(()),
        };
        event.seq = next;
        self.events.push(event);
        self.records.extend(records.into_iter().map(|r| (next, r)));
        Ok(())
    }

    /// All events, oldest first.
    pub fn events(&self) -> &[AuditEvent] {
        &self.events
    }
}

/// One log entry: a header and the records it applied.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Entry {
    pub event: AuditEvent,
    pub records: Vec<Record>,
}

#[cfg(test)]
impl AuditLog {
    /// Every entry with its records, oldest first — what replay reads.
    pub(crate) fn entries(&self) -> Vec<Entry> {
        let mut records = self.records.iter().peekable();
        self.events
            .iter()
            .map(|event| Entry {
                event: event.clone(),
                records: std::iter::from_fn(|| records.next_if(|(seq, _)| *seq == event.seq))
                    .map(|(_, r)| r.clone())
                    .collect(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_sequence() {
        let mut log = AuditLog::default();
        let role = Record::RoleSet {
            repo_id: "alice/p".into(),
            username: "bob".into(),
            role: Role::Member,
        };
        let local = |ts, actor, action, ok| Header::local(ts, actor, action, "alice/p", ok);
        log.append(local(1, Some("alice"), "create_repo", true), vec![])
            .unwrap();
        log.append(local(2, None, "generate_citation", true), vec![])
            .unwrap();
        log.append(local(3, Some("bob"), "add_cite", false), vec![])
            .unwrap();
        log.append(
            local(4, Some("alice"), "add_member", true),
            vec![role.clone()],
        )
        .unwrap();
        assert_eq!(log.events().len(), 4);
        assert_eq!(log.events()[0].seq, 0);
        assert_eq!(log.events()[2].seq, 2);
        assert_eq!(log.events()[1].actor, None);
        assert!(!log.events()[2].ok);
        let entries = log.entries();
        assert!(entries[..3].iter().all(|e| e.records.is_empty()));
        assert_eq!(entries[3].records, vec![role]);

        // Copied entries keep their numbers: a re-delivery is skipped and
        // a gap refused.
        let mut copy = AuditLog::default();
        for e in &entries {
            let copied = Header::Copied(e.event.clone());
            copy.append(copied, e.records.clone()).unwrap();
        }
        let again = Header::Copied(entries[1].event.clone());
        copy.append(again, vec![]).unwrap();
        let mut ahead = entries[0].event.clone();
        ahead.seq = 9;
        assert_eq!(copy.append(Header::Copied(ahead), vec![]), Err(4));
        assert_eq!(copy.events().len(), 4);
        assert_eq!(copy.entries(), entries);
    }
}
