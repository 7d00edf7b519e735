//! # extension — the GitCite browser-extension popup, headless
//!
//! The paper's first component is "a browser extension which can be used
//! online to enable users to get citations, and owners to
//! create/modify/delete citations" (§1), deployed on Chrome against the
//! GitHub REST API. This crate reproduces the popup of Figure 2 as a
//! library: the same states, the same buttons, the same member/non-member
//! behavior — driven against the [`hub`] platform instead of a browser.
//!
//! Behavior reproduced from §3:
//!
//! * "Users provide their credentials ... and may then click on a node."
//! * Non-member: "the browser extension immediately generates the
//!   citation (shown in the text window)"; Add/Delete are disabled.
//! * Member: "the text box will display the citation explicitly attached
//!   to the node, if it exists ... If such a citation does not exist, the
//!   text box will remain empty. The user may then either enter a
//!   citation, or use the 'Generate Citation' button to see the citation
//!   of its closest ancestor, which can then be modified for the current
//!   node."

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bibformat::Format;
use citekit::Citation;
use gitlite::RepoPath;
use hub::{
    ApiRequest, ApiResponse, Hub, HubClient, HubError, InProcess, LogEntry, Token, Transport,
};
use std::fmt;

/// Page size the popup's log pane requests: enough for a screenful,
/// never the whole history (a popular repository may have hundreds of
/// thousands of commits — the popup pulls them a page at a time).
pub const LOG_PAGE_SIZE: u32 = 25;

/// Extension-level errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ExtError {
    /// No node is selected in the popup.
    NoSelection,
    /// The action needs a signed-in project member.
    NotSignedIn,
    /// The text box does not contain a parseable citation record.
    BadCitationText(String),
    /// The platform refused or failed.
    Hub(HubError),
}

impl fmt::Display for ExtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtError::NoSelection => write!(f, "no node selected"),
            ExtError::NotSignedIn => write!(f, "sign in with a personal access token first"),
            ExtError::BadCitationText(msg) => write!(f, "invalid citation text: {msg}"),
            ExtError::Hub(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ExtError {}

impl From<HubError> for ExtError {
    fn from(e: HubError) -> Self {
        ExtError::Hub(e)
    }
}

/// Result alias for extension operations.
pub type Result<T> = std::result::Result<T, ExtError>;

/// Which buttons the popup currently enables — Figure 2's Add / Delete /
/// Generate Citation row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ButtonStates {
    /// "Generate Citation" (always available once a node is selected).
    pub generate: bool,
    /// "Add" — members only, and only when no explicit citation exists.
    pub add: bool,
    /// "Modify" — members only, on explicitly cited nodes.
    pub modify: bool,
    /// "Delete" — members only, on explicitly cited nodes.
    pub delete: bool,
}

/// What the popup window shows.
#[derive(Debug, Clone, PartialEq)]
pub struct PopupView {
    /// Repository the popup is open on.
    pub repo_id: String,
    /// Branch being browsed.
    pub branch: String,
    /// Signed-in user, if any.
    pub signed_in_as: Option<String>,
    /// Whether the signed-in user may edit citations here.
    pub is_member: bool,
    /// Currently selected node.
    pub selected: Option<RepoPath>,
    /// Contents of the citation text window.
    pub text_box: String,
    /// Button enablement.
    pub buttons: ButtonStates,
    /// One-line status message from the last action.
    pub status: String,
    /// The log pane: recent commits of the browsed branch, loaded a page
    /// at a time ([`Popup::load_history`] / [`Popup::more_history`]).
    pub history: Vec<LogEntry>,
}

enum Session {
    Anonymous,
    SignedIn { token: Token, is_member: bool },
}

/// The popup state machine, bound to one repository page.
///
/// All platform traffic goes through a [`HubClient`] speaking the
/// versioned wire protocol ([`hub::api`]) — the popup never calls the
/// hub's typed methods directly, exactly as the real extension only ever
/// sees the REST API. Generic over the [`Transport`]: [`Popup::open`]
/// binds to an in-process hub, [`Popup::open_with`] to any client,
/// including one dialed over TCP (`HubClient::connect`) against a
/// `gitcite hub serve` process.
pub struct Popup<T: Transport> {
    client: HubClient<T>,
    session: Session,
    view: PopupView,
    /// Cursor for the next history page; `None` once exhausted (or
    /// before the first load).
    history_cursor: Option<String>,
}

impl<'h> Popup<InProcess<'h>> {
    /// Opens the popup on a repository page of an in-process hub
    /// (anonymous).
    pub fn open(hub: &'h Hub, repo_id: &str, branch: &str) -> Result<Popup<InProcess<'h>>> {
        Popup::open_with(HubClient::in_process(hub), repo_id, branch)
    }
}

impl<T: Transport> Popup<T> {
    /// Opens the popup over an arbitrary client — the path a real
    /// deployment takes, with the client speaking TCP to a remote hub.
    pub fn open_with(client: HubClient<T>, repo_id: &str, branch: &str) -> Result<Popup<T>> {
        // Probe the repository so a bad id fails at open time.
        client.branches(repo_id)?;
        Ok(Popup {
            client,
            session: Session::Anonymous,
            view: PopupView {
                repo_id: repo_id.to_owned(),
                branch: branch.to_owned(),
                signed_in_as: None,
                is_member: false,
                selected: None,
                text_box: String::new(),
                buttons: ButtonStates::default(),
                status: "ready".to_owned(),
                history: Vec::new(),
            },
            history_cursor: None,
        })
    }

    /// Fills the log pane with the newest page of the branch's history
    /// via the paginated endpoint — the popup never materializes the
    /// full log. A reload starts over from the tip.
    pub fn load_history(&mut self) -> Result<()> {
        let page = self.client.log_page(
            &self.view.repo_id,
            &self.view.branch,
            None,
            Some(LOG_PAGE_SIZE),
        )?;
        self.view.history = page.items;
        self.history_cursor = page.next;
        self.refresh_history_status();
        Ok(())
    }

    /// Appends the next page to the log pane; returns `false` when the
    /// history was already fully shown.
    pub fn more_history(&mut self) -> Result<bool> {
        let Some(cursor) = self.history_cursor.clone() else {
            return Ok(false);
        };
        let page = self.client.log_page(
            &self.view.repo_id,
            &self.view.branch,
            Some(&cursor),
            Some(LOG_PAGE_SIZE),
        )?;
        self.view.history.extend(page.items);
        self.history_cursor = page.next;
        self.refresh_history_status();
        Ok(true)
    }

    fn refresh_history_status(&mut self) {
        self.view.status = match &self.history_cursor {
            Some(_) => format!("showing {} most recent commit(s)", self.view.history.len()),
            None => format!("showing all {} commit(s)", self.view.history.len()),
        };
    }

    /// Provides credentials ("Users provide their credentials on GitHub to
    /// obtain access to the repository").
    ///
    /// The whole sign-in render — identity, write capability, and the
    /// selected node's citation state — travels in one batch envelope:
    /// one round trip instead of three. A refused or malformed batch
    /// reply is an error, never a silent retry.
    pub fn sign_in(&mut self, token: Token) -> Result<()> {
        let mut requests = vec![
            ApiRequest::Whoami {
                token: token.as_str().to_owned(),
            },
            ApiRequest::CanWrite {
                token: token.as_str().to_owned(),
                repo_id: self.view.repo_id.clone(),
            },
        ];
        if let Some(path) = &self.view.selected {
            // Member and visitor renders need different lookups and
            // membership is only known once the reply lands: ask for
            // both and use whichever applies.
            requests.push(ApiRequest::CitationEntry {
                repo_id: self.view.repo_id.clone(),
                branch: self.view.branch.clone(),
                path: path.clone(),
            });
            requests.push(ApiRequest::GenerateCitation {
                repo_id: self.view.repo_id.clone(),
                branch: self.view.branch.clone(),
                path: path.clone(),
            });
        }
        let mut responses = self.client.batch(requests)?.into_iter();
        let mut next = || responses.next().expect("batch() verified the length");
        let user = match next().into_result()? {
            ApiResponse::User(u) => u,
            other => return Err(unexpected(&other)),
        };
        let is_member = match next().into_result()? {
            ApiResponse::Bool(b) => b,
            other => return Err(unexpected(&other)),
        };
        self.finish_sign_in(token, user.username, is_member);
        if self.view.selected.is_some() {
            if is_member {
                match next().into_result()? {
                    ApiResponse::CitationOpt(explicit) => self.render_member_selection(explicit),
                    other => return Err(unexpected(&other)),
                }
            } else {
                let _ = next(); // skip the unused member lookup
                match next().into_result()? {
                    ApiResponse::Citation(citation) => self.render_visitor_selection(&citation),
                    other => return Err(unexpected(&other)),
                }
            }
        }
        Ok(())
    }

    fn finish_sign_in(&mut self, token: Token, username: String, is_member: bool) {
        self.view.signed_in_as = Some(username.clone());
        self.view.is_member = is_member;
        self.view.status = format!("signed in as {username}");
        self.session = Session::SignedIn { token, is_member };
    }

    /// The full credential flow against a secret-protected hub: log in
    /// with username and secret over the popup's own client (so the
    /// token is minted on this connection — they are connection-scoped
    /// over TCP), then run the normal [`Popup::sign_in`] render.
    pub fn sign_in_with_secret(&mut self, username: &str, secret: &str) -> Result<()> {
        let token = self.client.login_with_secret(username, secret)?;
        self.sign_in(token)
    }

    /// Signs out, returning to the anonymous read-only view.
    pub fn sign_out(&mut self) -> Result<()> {
        self.session = Session::Anonymous;
        self.view.signed_in_as = None;
        self.view.is_member = false;
        self.view.status = "signed out".to_owned();
        if let Some(path) = self.view.selected.clone() {
            self.select(&path)?;
        }
        Ok(())
    }

    /// The current rendering of the popup.
    pub fn view(&self) -> &PopupView {
        &self.view
    }

    /// Clicks a node in the repository tree.
    ///
    /// Non-members immediately see the generated citation; members see the
    /// explicit citation if one exists, else an empty text box.
    pub fn select(&mut self, path: &RepoPath) -> Result<()> {
        self.view.selected = Some(path.clone());
        let is_member = matches!(
            self.session,
            Session::SignedIn {
                is_member: true,
                ..
            }
        );
        if is_member {
            let explicit =
                self.client
                    .citation_entry(&self.view.repo_id, &self.view.branch, path)?;
            self.render_member_selection(explicit);
        } else {
            // Non-member (or anonymous): immediate generation, no editing.
            let citation =
                self.client
                    .generate_citation(&self.view.repo_id, &self.view.branch, path)?;
            self.render_visitor_selection(&citation);
        }
        Ok(())
    }

    fn render_member_selection(&mut self, explicit: Option<Citation>) {
        match explicit {
            Some(c) => {
                self.view.text_box = c.to_value().to_string_pretty();
                self.view.buttons = ButtonStates {
                    generate: true,
                    add: false,
                    modify: true,
                    delete: true,
                };
                self.view.status = "explicit citation shown; you may modify or delete it".into();
            }
            None => {
                self.view.text_box.clear();
                self.view.buttons = ButtonStates {
                    generate: true,
                    add: true,
                    modify: false,
                    delete: false,
                };
                self.view.status =
                    "no explicit citation; enter one or press Generate Citation".into();
            }
        }
    }

    fn render_visitor_selection(&mut self, citation: &Citation) {
        self.view.text_box = citation.to_value().to_string_pretty();
        self.view.buttons = ButtonStates {
            generate: true,
            add: false,
            modify: false,
            delete: false,
        };
        self.view.status = "citation generated; copy it to your bibliography manager".into();
    }

    /// Presses "Generate Citation": fills the text box with the citation
    /// of the node's closest cited ancestor, as a starting point the user
    /// "can then modif\[y\] for the current node".
    pub fn generate(&mut self) -> Result<Citation> {
        let path = self.view.selected.clone().ok_or(ExtError::NoSelection)?;
        let citation =
            self.client
                .generate_citation(&self.view.repo_id, &self.view.branch, &path)?;
        self.view.text_box = citation.to_value().to_string_pretty();
        self.view.status = "generated from closest cited ancestor".into();
        Ok(citation)
    }

    /// Types into the citation text window.
    pub fn edit_text(&mut self, text: impl Into<String>) {
        self.view.text_box = text.into();
    }

    fn parse_text_box(&self) -> Result<Citation> {
        let value = sjson::parse(&self.view.text_box)
            .map_err(|e| ExtError::BadCitationText(e.to_string()))?;
        Citation::from_value(&value).map_err(|e| ExtError::BadCitationText(e.to_string()))
    }

    fn member_token(&self) -> Result<&Token> {
        match &self.session {
            Session::SignedIn { token, .. } => Ok(token),
            Session::Anonymous => Err(ExtError::NotSignedIn),
        }
    }

    /// Presses "Add": attaches the text box's citation to the selected
    /// node. Fails for non-members (the hub enforces it even if a client
    /// re-enabled the button).
    pub fn add(&mut self) -> Result<()> {
        let path = self.view.selected.clone().ok_or(ExtError::NoSelection)?;
        let citation = self.parse_text_box()?;
        let token = self.member_token()?.clone();
        self.client.add_cite(
            &token,
            &self.view.repo_id,
            &self.view.branch,
            &path,
            citation,
        )?;
        self.view.status = format!("citation added to {}", path.to_cite_key(false));
        self.select(&path)
    }

    /// Presses "Modify": replaces the explicit citation with the text
    /// box's content.
    pub fn modify(&mut self) -> Result<()> {
        let path = self.view.selected.clone().ok_or(ExtError::NoSelection)?;
        let citation = self.parse_text_box()?;
        let token = self.member_token()?.clone();
        self.client.modify_cite(
            &token,
            &self.view.repo_id,
            &self.view.branch,
            &path,
            citation,
        )?;
        self.view.status = format!("citation modified at {}", path.to_cite_key(false));
        self.select(&path)
    }

    /// Presses "Delete": removes the explicit citation from the node.
    pub fn delete(&mut self) -> Result<()> {
        let path = self.view.selected.clone().ok_or(ExtError::NoSelection)?;
        let token = self.member_token()?.clone();
        self.client
            .del_cite(&token, &self.view.repo_id, &self.view.branch, &path)?;
        self.view.status = format!("citation deleted from {}", path.to_cite_key(false));
        self.select(&path)
    }

    /// Copies the current citation out of the popup in a bibliography
    /// format (the "copy-pasted to their local bibliography manager" step).
    pub fn export(&mut self, format: Format) -> Result<String> {
        let path = self.view.selected.clone().ok_or(ExtError::NoSelection)?;
        let citation =
            self.client
                .generate_citation(&self.view.repo_id, &self.view.branch, &path)?;
        Ok(bibformat::render(&citation, format))
    }

    /// One-line hub health for the popup footer — total calls, errors,
    /// open connections and cache hit rate — fed by the same
    /// operator-scoped `server_metrics` endpoint `gitcite hub top`
    /// polls. Requires a signed-in session; a user without the operator
    /// capability gets the hub's `permission_denied` back unchanged.
    pub fn hub_health(&self) -> Result<String> {
        let token = match &self.session {
            Session::SignedIn { token, .. } => token,
            Session::Anonymous => return Err(ExtError::NotSignedIn),
        };
        let snap = self.client.server_metrics(Some(token))?;
        let calls: u64 = snap.methods.iter().map(|m| m.calls).sum();
        let errors: u64 = snap
            .methods
            .iter()
            .flat_map(|m| m.errors.iter().map(|(_, n)| *n))
            .sum();
        let conns = snap
            .transport
            .as_ref()
            .map(|t| t.open_connections)
            .unwrap_or(0);
        let mut line =
            format!("hub: {calls} call(s), {errors} error(s), {conns} open connection(s)");
        if let Some(rate) = snap.store.as_ref().and_then(|s| s.cache_hit_rate()) {
            line.push_str(&format!(", cache {:.0}% hit", 100.0 * rate));
        }
        Ok(line)
    }
}

fn unexpected(response: &ApiResponse) -> ExtError {
    ExtError::Hub(HubError::Protocol(format!(
        "batch item shape does not match its request (got {})",
        response.kind()
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gitlite::{path, Signature};

    /// Hub with owner "leshang", repo P1 containing f1.txt (cited) and
    /// d/f2.txt (uncited), plus registered non-member "visitor".
    fn setup() -> (Hub, Token, Token, String) {
        let hub = Hub::new("https://hub.example");
        hub.register_user("leshang", "Leshang Chen").unwrap();
        hub.register_user("visitor", "A Visitor").unwrap();
        let owner = hub.login("leshang").unwrap();
        let visitor = hub.login("visitor").unwrap();
        let repo_id = hub.create_repo(&owner, "P1").unwrap();
        let mut local = hub.clone_repo(&repo_id).unwrap();
        local
            .worktree_mut()
            .write(&path("f1.txt"), &b"f1\n"[..])
            .unwrap();
        local
            .worktree_mut()
            .write(&path("d/f2.txt"), &b"f2\n"[..])
            .unwrap();
        local
            .commit(Signature::new("Leshang Chen", "l@x", 100), "files")
            .unwrap();
        hub.push(&owner, &repo_id, "main", &local, "main", false)
            .unwrap();
        let c2 = Citation::builder("C2", "Leshang Chen")
            .author("Leshang Chen")
            .build();
        hub.add_cite(&owner, &repo_id, "main", &path("f1.txt"), c2)
            .unwrap();
        (hub, owner, visitor, repo_id)
    }

    #[test]
    fn anonymous_selection_generates_immediately() {
        let (hub, _, _, repo_id) = setup();
        let mut popup = Popup::open(&hub, &repo_id, "main").unwrap();
        popup.select(&path("d/f2.txt")).unwrap();
        let v = popup.view();
        // Text box holds the generated (root) citation.
        assert!(v.text_box.contains("\"repoName\": \"P1\""));
        // Only Generate is available.
        assert_eq!(
            v.buttons,
            ButtonStates {
                generate: true,
                add: false,
                modify: false,
                delete: false
            }
        );
        assert!(v.signed_in_as.is_none());
    }

    #[test]
    fn hub_health_is_operator_scoped() {
        let (hub, owner, visitor, repo_id) = setup();
        // Anonymous popups cannot ask at all.
        let popup = Popup::open(&hub, &repo_id, "main").unwrap();
        assert!(matches!(popup.hub_health(), Err(ExtError::NotSignedIn)));
        // A signed-in non-operator is refused by the hub itself.
        let mut popup = Popup::open(&hub, &repo_id, "main").unwrap();
        popup.sign_in(visitor).unwrap();
        assert!(matches!(
            popup.hub_health(),
            Err(ExtError::Hub(HubError::PermissionDenied(_)))
        ));
        // An operator sees the health line, fed by server_metrics.
        hub.grant_operator("leshang").unwrap();
        let mut popup = Popup::open(&hub, &repo_id, "main").unwrap();
        popup.sign_in(owner).unwrap();
        let line = popup.hub_health().unwrap();
        assert!(line.starts_with("hub: "), "{line}");
        assert!(line.contains("call(s)"), "{line}");
    }

    #[test]
    fn non_member_cannot_mutate_even_by_force() {
        let (hub, _, visitor, repo_id) = setup();
        let mut popup = Popup::open(&hub, &repo_id, "main").unwrap();
        popup.sign_in(visitor).unwrap();
        assert!(!popup.view().is_member);
        popup.select(&path("d/f2.txt")).unwrap();
        // Buttons disabled...
        assert!(!popup.view().buttons.add);
        // ...and the flow errors server-side when bypassed.
        popup.edit_text(r#"{"repoName": "sneak"}"#);
        assert!(matches!(
            popup.add(),
            Err(ExtError::Hub(HubError::PermissionDenied(_)))
        ));
    }

    #[test]
    fn member_sees_explicit_citation_or_empty_box() {
        let (hub, owner, _, repo_id) = setup();
        let mut popup = Popup::open(&hub, &repo_id, "main").unwrap();
        popup.sign_in(owner).unwrap();
        assert!(popup.view().is_member);
        // Cited node: explicit citation shown, modify/delete enabled.
        popup.select(&path("f1.txt")).unwrap();
        assert!(popup.view().text_box.contains("\"repoName\": \"C2\""));
        assert_eq!(
            popup.view().buttons,
            ButtonStates {
                generate: true,
                add: false,
                modify: true,
                delete: true
            }
        );
        // Uncited node: empty box, add enabled.
        popup.select(&path("d/f2.txt")).unwrap();
        assert!(popup.view().text_box.is_empty());
        assert_eq!(
            popup.view().buttons,
            ButtonStates {
                generate: true,
                add: true,
                modify: false,
                delete: false
            }
        );
    }

    #[test]
    fn member_generate_then_modify_then_add() {
        let (hub, owner, _, repo_id) = setup();
        let mut popup = Popup::open(&hub, &repo_id, "main").unwrap();
        popup.sign_in(owner).unwrap();
        popup.select(&path("d/f2.txt")).unwrap();
        // Generate fills the box with the closest ancestor's citation...
        let generated = popup.generate().unwrap();
        assert_eq!(generated.repo_name, "P1");
        // ...which the user edits for the current node and adds.
        let mut edited = generated.clone();
        edited.note = Some("the f2 component".into());
        popup.edit_text(edited.to_value().to_string_pretty());
        popup.add().unwrap();
        // The popup re-renders with the new explicit citation.
        assert!(popup.view().buttons.delete);
        assert!(popup.view().text_box.contains("the f2 component"));
        // And the hub agrees.
        let c = hub
            .generate_citation(&repo_id, "main", &path("d/f2.txt"))
            .unwrap();
        assert_eq!(c.note.as_deref(), Some("the f2 component"));
    }

    #[test]
    fn member_delete_flow() {
        let (hub, owner, _, repo_id) = setup();
        let mut popup = Popup::open(&hub, &repo_id, "main").unwrap();
        popup.sign_in(owner).unwrap();
        popup.select(&path("f1.txt")).unwrap();
        popup.delete().unwrap();
        // Back to the uncited state.
        assert!(popup.view().text_box.is_empty());
        assert!(popup.view().buttons.add);
        let c = hub
            .generate_citation(&repo_id, "main", &path("f1.txt"))
            .unwrap();
        assert_eq!(c.repo_name, "P1"); // falls back to the root
    }

    #[test]
    fn add_requires_valid_citation_text() {
        let (hub, owner, _, repo_id) = setup();
        let mut popup = Popup::open(&hub, &repo_id, "main").unwrap();
        popup.sign_in(owner).unwrap();
        popup.select(&path("d/f2.txt")).unwrap();
        popup.edit_text("not json at all");
        assert!(matches!(popup.add(), Err(ExtError::BadCitationText(_))));
        popup.edit_text("[1, 2]");
        assert!(matches!(popup.add(), Err(ExtError::BadCitationText(_))));
    }

    #[test]
    fn actions_need_selection_and_session() {
        let (hub, owner, _, repo_id) = setup();
        let mut popup = Popup::open(&hub, &repo_id, "main").unwrap();
        assert!(matches!(popup.generate(), Err(ExtError::NoSelection)));
        popup.select(&path("f1.txt")).unwrap();
        popup.edit_text("{}");
        assert!(matches!(popup.add(), Err(ExtError::NotSignedIn)));
        popup.sign_in(owner).unwrap();
        popup.sign_out().unwrap();
        assert!(matches!(popup.delete(), Err(ExtError::NotSignedIn)));
    }

    #[test]
    fn export_formats() {
        let (hub, _, _, repo_id) = setup();
        let mut popup = Popup::open(&hub, &repo_id, "main").unwrap();
        popup.select(&path("f1.txt")).unwrap();
        let bib = popup.export(Format::Bibtex).unwrap();
        assert!(bib.starts_with("@software{"));
        assert!(bib.contains("C2"));
        let cff = popup.export(Format::Cff).unwrap();
        assert!(cff.starts_with("cff-version:"));
        let plain = popup.export(Format::Plain).unwrap();
        assert!(plain.contains("[Computer software]"));
    }

    #[test]
    fn history_pane_loads_in_pages() {
        let (hub, owner, _, repo_id) = setup();
        // Grow the history well past one popup page.
        for i in 0..30 {
            let c = Citation::builder(format!("C{i}"), "x").build();
            hub.add_cite(&owner, &repo_id, "main", &path("d/f2.txt"), c)
                .unwrap();
            hub.del_cite(&owner, &repo_id, "main", &path("d/f2.txt"))
                .unwrap();
        }
        let full = hub.log(&repo_id, "main").unwrap();
        assert!(full.len() > LOG_PAGE_SIZE as usize);

        let mut popup = Popup::open(&hub, &repo_id, "main").unwrap();
        assert!(popup.view().history.is_empty());
        popup.load_history().unwrap();
        // First page only — the popup never materializes the full log.
        assert_eq!(popup.view().history.len(), LOG_PAGE_SIZE as usize);
        assert_eq!(popup.view().history[0], full[0]);
        while popup.more_history().unwrap() {}
        assert_eq!(popup.view().history, full);
        // Exhausted: another call is a no-op.
        assert!(!popup.more_history().unwrap());
    }

    #[test]
    fn open_rejects_unknown_repo() {
        let (hub, _, _, _) = setup();
        assert!(matches!(
            Popup::open(&hub, "nobody/none", "main"),
            Err(ExtError::Hub(HubError::RepoNotFound(_)))
        ));
    }

    #[test]
    fn sign_in_with_secret_against_protected_hub() {
        let (hub, _, _, repo_id) = setup();
        hub.set_auth_required(true);
        hub.register_user_with_secret("carol", "Carol", "hunter2")
            .unwrap();
        let mut popup = Popup::open(&hub, &repo_id, "main").unwrap();
        // Wrong secret is a typed auth failure, popup stays anonymous.
        assert!(matches!(
            popup.sign_in_with_secret("carol", "wrong"),
            Err(ExtError::Hub(HubError::AuthFailed))
        ));
        assert!(popup.view().signed_in_as.is_none());
        // Right secret mints a token and renders the signed-in view.
        popup.sign_in_with_secret("carol", "hunter2").unwrap();
        assert_eq!(popup.view().signed_in_as.as_deref(), Some("carol"));
    }

    #[test]
    fn sign_in_rerenders_current_selection() {
        let (hub, owner, _, repo_id) = setup();
        let mut popup = Popup::open(&hub, &repo_id, "main").unwrap();
        popup.select(&path("d/f2.txt")).unwrap();
        // Anonymous: generated citation in the box.
        assert!(!popup.view().text_box.is_empty());
        popup.sign_in(owner).unwrap();
        // Member view of an uncited node: the box is now empty.
        assert!(popup.view().text_box.is_empty());
        assert!(popup.view().buttons.add);
    }

    /// Serves the hub in-process but drops the last item of every batch
    /// reply — a malformed reply with the wrong item count.
    struct TruncatingTransport<'h>(&'h Hub);

    impl Transport for TruncatingTransport<'_> {
        fn send(&self, request: &str) -> String {
            match self.0.dispatch(ApiRequest::parse(request).unwrap()) {
                ApiResponse::Batch(mut items) => {
                    items.pop();
                    ApiResponse::Batch(items).encode()
                }
                other => other.encode(),
            }
        }
    }

    #[test]
    fn malformed_batch_reply_fails_sign_in() {
        let (hub, owner, _, repo_id) = setup();
        let client = HubClient::new(TruncatingTransport(&hub));
        let mut popup = Popup::open_with(client, &repo_id, "main").unwrap();
        popup.select(&path("f1.txt")).unwrap();
        // The short reply surfaces as an error instead of a silent
        // sequential re-render.
        assert!(popup.sign_in(owner).is_err());
        assert_eq!(popup.view().signed_in_as, None);
    }
}
