//! Users and sessions: registration, login with lockout, tokens, and
//! the abuse-resistance checks — rate limits and size quotas.

use super::{unexpected, Held, Hub, Token, User};
use crate::api::{ApiRequest, ApiResponse, RepoBundle};
use crate::audit::{Header, Record};
use crate::error::{HubError, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::Ordering;

/// Consecutive failed logins before an account locks out.
pub const MAX_LOGIN_FAILURES: u32 = 5;

/// How long (hub-clock ticks) a locked-out account stays locked.
pub const LOCKOUT_TICKS: i64 = 60;

/// A failure streak decays to zero after this many ticks without a new
/// failure, so one fat-fingered week-old attempt never compounds.
pub const FAILURE_DECAY_TICKS: i64 = 60;

/// An enrolled login secret: `hash = SHA-256(salt ‖ secret)`. The salt is
/// derived deterministically per user (username + registration tick), so
/// identical secrets still hash differently across users and a stolen
/// table cannot be attacked with one precomputed dictionary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Credential {
    salt: [u8; 16],
    hash: [u8; 32],
}

impl Credential {
    fn derive(username: &str, registered_at: i64, secret: &str) -> Credential {
        let mut h = sha2::Sha256::new();
        h.update(b"gitcite.credential.salt\x00");
        h.update(username.as_bytes());
        h.update(&registered_at.to_be_bytes());
        let digest = h.finalize();
        let mut salt = [0u8; 16];
        salt.copy_from_slice(&digest[..16]);
        let hash = Self::hash_with(&salt, secret);
        Credential { salt, hash }
    }

    fn hash_with(salt: &[u8; 16], secret: &str) -> [u8; 32] {
        let mut h = sha2::Sha256::new();
        h.update(salt);
        h.update(secret.as_bytes());
        h.finalize()
    }

    fn verify(&self, secret: &str) -> bool {
        sha2::ct_eq(&Self::hash_with(&self.salt, secret), &self.hash)
    }
}

/// A minted token's session entry.
#[derive(Clone)]
pub(super) struct TokenEntry {
    pub(super) username: String,
    /// Hub-clock tick past which [`Hub::auth`] refuses with
    /// `TokenExpired`; `None` = no expiry (the default).
    expires_at: Option<i64>,
}

/// Per-user failed-login tracking (brute-force lockout with decay).
#[derive(Default)]
pub(super) struct LoginState {
    failures: u32,
    last_failure: i64,
    locked_until: i64,
}

/// One deterministic token bucket, refilled by the hub clock — tests
/// drive it exactly via `advance_clock`, production drives it via the
/// mutating-operation ticks.
pub(super) struct TokenBucket {
    tokens: u64,
    last_refill: i64,
}

impl TokenBucket {
    /// Refills for elapsed ticks, then tries to take one token.
    fn try_take(&mut self, now: i64, limit: RateLimit) -> bool {
        let elapsed = (now - self.last_refill).max(0) as u64;
        self.tokens = self
            .tokens
            .saturating_add(elapsed.saturating_mul(limit.refill_per_tick))
            .min(limit.capacity);
        self.last_refill = now;
        if self.tokens > 0 {
            self.tokens -= 1;
            true
        } else {
            false
        }
    }
}

/// A token-bucket shape: sustained rate `refill_per_tick` with bursts up
/// to `capacity`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimit {
    /// Bucket size — how many requests may burst back-to-back.
    pub capacity: u64,
    /// Tokens restored per hub-clock tick (sustained rate).
    pub refill_per_tick: u64,
}

/// Abuse-resistance configuration, all off by default. Armed via
/// [`Hub::set_limits`]; every `None` disables that check entirely, so an
/// unconfigured hub behaves exactly as before.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LimitsConfig {
    /// Per-user bucket charged for every token-bearing request.
    pub user_rate: Option<RateLimit>,
    /// Per-repository bucket charged for every request naming a repo.
    pub repo_rate: Option<RateLimit>,
    /// Largest push/import bundle accepted, in summed object bytes.
    pub max_bundle_bytes: Option<u64>,
    /// Cap on a repository's accumulated accepted object bytes
    /// (import + pushes) — checked before any object lands.
    pub max_repo_bytes: Option<u64>,
}

wrappers! {
    /// Registers a user with open (username-only) login — the paper
    /// simulator's trust model, refused when [`Hub::set_auth_required`]
    /// is on.
    fn register_user(username: &str, display_name: &str) -> () = RegisterUser {
        username: username.to_owned(),
        display_name: display_name.to_owned(),
        secret: None,
    } => Unit;

    /// Registers a user and enrolls a login secret: every future login
    /// must present it (verified against a salted hash, constant-time).
    fn register_user_with_secret(username: &str, display_name: &str, secret: &str) -> () =
        RegisterUser {
            username: username.to_owned(),
            display_name: display_name.to_owned(),
            secret: Some(secret.to_owned()),
        } => Unit;

    /// Issues a personal-access token (the credential the popup asks
    /// for). Open login: refused for users enrolled with a secret (use
    /// [`Self::login_with_secret`]) and on auth-required hubs.
    fn login(username: &str) -> Token =
        Login { username: username.to_owned(), secret: None } => Token(Token);

    /// Issues a token after verifying the user's enrolled secret.
    fn login_with_secret(username: &str, secret: &str) -> Token =
        Login { username: username.to_owned(), secret: Some(secret.to_owned()) } => Token(Token);

    /// Exchanges a known (possibly expired) token for a fresh one with a
    /// new lifetime; the old token is revoked.
    fn refresh(token: &Token) -> Token = Refresh { token: token.0.clone() } => Token(Token);

    /// Resolves a token to its user.
    fn whoami(token: &Token) -> User = Whoami { token: token.0.clone() } => User;
}

impl Hub {
    /// Revokes a token.
    pub fn revoke(&self, token: &Token) {
        let _ = self.unwrap(ApiRequest::Revoke {
            token: token.0.clone(),
        });
    }

    // ----- operations ---------------------------------------------------------
    pub(super) fn token_expired(&self, entry: &TokenEntry) -> bool {
        entry.expires_at.is_some_and(|e| self.now() >= e)
    }

    pub(super) fn auth(&self, token: &str) -> Result<User> {
        let entry = match self.tokens.read().get(token) {
            Some(entry) => entry.clone(),
            None => {
                self.auth_failures.inc();
                return Err(HubError::AuthFailed);
            }
        };
        if self.token_expired(&entry) {
            self.auth_failures.inc();
            return Err(HubError::TokenExpired);
        }
        self.users
            .read()
            .get(&entry.username)
            .cloned()
            .ok_or(HubError::AuthFailed)
    }

    /// Charges the per-user and per-repo token buckets for one request.
    /// No-ops entirely (two atomic-free `Copy` reads) until
    /// [`Hub::set_limits`] arms a rate. Denials are audited and tallied.
    pub(super) fn enforce_rate_limits(&self, request: &ApiRequest) -> Result<()> {
        let limits = *self.limits.read();
        if limits.user_rate.is_none() && limits.repo_rate.is_none() {
            return Ok(());
        }
        let now = self.now();
        let charge = |buckets: &Mutex<HashMap<String, TokenBucket>>, key: &str, rate: RateLimit| {
            let fresh = TokenBucket {
                tokens: rate.capacity,
                last_refill: now,
            };
            let mut buckets = buckets.lock();
            buckets
                .entry(key.to_owned())
                .or_insert(fresh)
                .try_take(now, rate)
        };
        if let (Some(rate), Some(token)) = (limits.user_rate, request.token()) {
            // Resolve the token leniently (expiry is auth's job): an
            // expired token still identifies whose bucket to charge.
            let username = self.tokens.read().get(token).map(|e| e.username.clone());
            if let Some(username) = username {
                if !charge(&self.user_buckets, &username, rate) {
                    return Err(self.rate_denial(now, Some(&username), request.method()));
                }
            }
        }
        if let (Some(rate), Some(repo_id)) = (limits.repo_rate, request.target_repo()) {
            if !charge(&self.repo_buckets, repo_id, rate) {
                return Err(self.rate_denial(now, None, repo_id));
            }
        }
        Ok(())
    }

    fn rate_denial(&self, now: i64, actor: Option<&str>, target: &str) -> HubError {
        self.rate_rejections.inc();
        self.record(now, actor, "rate_limited", target, false);
        // One token accrues on the next refill tick, so the honest hint
        // is always "one tick from now".
        HubError::RateLimited { retry_after: 1 }
    }

    /// Enforces the size quotas on an incoming bundle before any object
    /// lands: the bundle's own size, then the repository's accumulated
    /// accepted bytes. `repo_id` is the accounting key (`None` while the
    /// repository does not exist yet — import racing its own creation).
    pub(super) fn check_bundle_quota(
        &self,
        actor: &str,
        repo_id: &str,
        existing: bool,
        bundle: &RepoBundle,
    ) -> Result<u64> {
        let limits = *self.limits.read();
        let size: u64 = bundle.objects.iter().map(|(_, b)| b.len() as u64).sum();
        if let Some(cap) = limits.max_bundle_bytes {
            if size > cap {
                return Err(self.quota_denial(
                    actor,
                    repo_id,
                    format!("bundle is {size} bytes (cap {cap})"),
                ));
            }
        }
        if let Some(cap) = limits.max_repo_bytes {
            let current = if existing {
                self.repo_bytes.lock().get(repo_id).copied().unwrap_or(0)
            } else {
                0
            };
            let total = current.saturating_add(size);
            if total > cap {
                return Err(self.quota_denial(
                    actor,
                    repo_id,
                    format!("repository would hold {total} accepted bytes (cap {cap})"),
                ));
            }
        }
        Ok(size)
    }

    fn quota_denial(&self, actor: &str, target: &str, why: String) -> HubError {
        self.quota_rejections.inc();
        let ts = self.tick();
        self.record(ts, Some(actor), "quota_exceeded", target, false);
        HubError::QuotaExceeded(why)
    }

    /// Books accepted bundle bytes against a repository's quota ledger.
    pub(super) fn account_repo_bytes(&self, repo_id: &str, size: u64) {
        *self
            .repo_bytes
            .lock()
            .entry(repo_id.to_owned())
            .or_insert(0) += size;
    }

    pub(super) fn op_register_user(
        &self,
        username: &str,
        display_name: &str,
        secret: Option<&str>,
    ) -> Result<()> {
        if self.auth_required.load(Ordering::SeqCst) && secret.is_none() {
            return Err(HubError::BadRequest(
                "registration requires a secret on this hub".into(),
            ));
        }
        if self.users.read().contains_key(username) {
            return Err(HubError::UserExists(username.to_owned()));
        }
        if username.is_empty() || username.contains('/') || username.contains(char::is_whitespace) {
            return Err(HubError::BadRequest(format!(
                "invalid username {username:?}"
            )));
        }
        let ts = self.tick();
        let header = Header::local(ts, Some(username), "register_user", username, true);
        let records = vec![Record::UserRegistered {
            username: username.to_owned(),
            display_name: display_name.to_owned(),
            // Only salt + hash are kept; the secret itself never lands.
            credential: secret.map(|secret| Credential::derive(username, ts, secret)),
        }];
        self.apply(header, records, Held::None).map(drop)
    }

    /// Records a failed login against `username`'s lockout state and
    /// returns the uniform error the caller should surface. Streaks decay:
    /// a failure more than [`FAILURE_DECAY_TICKS`] after the previous one
    /// starts a fresh count.
    fn login_failure(&self, ts: i64, username: &str) -> HubError {
        {
            let mut states = self.login_states.lock();
            let state = states.entry(username.to_owned()).or_default();
            if ts - state.last_failure >= FAILURE_DECAY_TICKS {
                state.failures = 0;
            }
            state.failures += 1;
            state.last_failure = ts;
            if state.failures >= MAX_LOGIN_FAILURES {
                state.locked_until = ts + LOCKOUT_TICKS;
            }
        }
        self.auth_failures.inc();
        self.record(ts, Some(username), "login", username, false);
        HubError::AuthFailed
    }

    pub(super) fn op_login(&self, username: &str, secret: Option<&str>) -> Result<String> {
        let ts = self.tick();
        // Lockout gate first: while locked, even the right secret is
        // refused, so an attacker gets no oracle during the window.
        let locked_until = self
            .login_states
            .lock()
            .get(username)
            .map_or(0, |s| s.locked_until);
        if locked_until > ts {
            self.auth_failures.inc();
            self.record(ts, Some(username), "login", username, false);
            return Err(HubError::RateLimited {
                retry_after: locked_until - ts,
            });
        }
        if !self.users.read().contains_key(username) {
            return Err(HubError::UserNotFound(username.to_owned()));
        }
        let credential = self.credentials.read().get(username).cloned();
        match (&credential, secret) {
            // Secret-protected account: verify in constant time.
            (Some(cred), Some(secret)) if cred.verify(secret) => {}
            (Some(_), _) => return Err(self.login_failure(ts, username)),
            // Open account, but the hub demands credentials for everyone.
            (None, _) if self.auth_required.load(Ordering::SeqCst) => {
                return Err(self.login_failure(ts, username));
            }
            // Presenting a secret to an account that has none is refused
            // rather than ignored: the caller clearly expected protection.
            (None, Some(_)) => return Err(self.login_failure(ts, username)),
            (None, None) => {}
        }
        self.login_states.lock().remove(username);
        let token = self.mint_token(username, ts);
        self.record(ts, Some(username), "login", username, true);
        Ok(token)
    }

    fn mint_token(&self, username: &str, now: i64) -> String {
        let n = self.next_token.fetch_add(1, Ordering::SeqCst) + 1;
        let token = format!("ghp_{n:08x}_{username}");
        let ttl = self.token_ttl.load(Ordering::SeqCst);
        self.tokens.write().insert(
            token.clone(),
            TokenEntry {
                username: username.to_owned(),
                expires_at: (ttl > 0).then_some(now + ttl),
            },
        );
        token
    }

    pub(super) fn op_refresh(&self, token: &str) -> Result<String> {
        let ts = self.tick();
        // Remove-then-mint: the old token is revoked even if it had not
        // expired yet, so a leaked predecessor dies with the exchange.
        let entry = match self.tokens.write().remove(token) {
            Some(entry) => entry,
            None => {
                self.auth_failures.inc();
                return Err(HubError::AuthFailed);
            }
        };
        let fresh = self.mint_token(&entry.username, ts);
        self.record(ts, Some(&entry.username), "refresh", &entry.username, true);
        Ok(fresh)
    }
}
