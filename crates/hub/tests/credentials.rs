//! Untrusted-deployment behaviour: secret-bearing registration and
//! login, brute-force lockout with decay, token expiry and refresh
//! against the hub clock, per-user/per-repo rate limits, and size
//! quotas on push/import — all surfaced as typed errors, all audited,
//! all deterministic (the hub clock only moves when an operation or
//! `advance_clock_to` moves it).

use gitlite::{path, Repository, Signature};
use hub::{
    ApiResponse, Hub, HubError, LimitsConfig, RateLimit, FAILURE_DECAY_TICKS, LOCKOUT_TICKS,
    MAX_LOGIN_FAILURES,
};

fn hub() -> Hub {
    Hub::new("https://hub.local")
}

/// A one-commit repository whose objects sum to a few hundred bytes —
/// enough to land on either side of a small quota.
fn small_repo(text: &str) -> Repository {
    let mut repo = Repository::init("local");
    repo.worktree_mut()
        .write(&path("f.txt"), text.as_bytes())
        .unwrap();
    repo.commit(Signature::new("Ann", "a@x", 100), "c").unwrap();
    repo
}

#[test]
fn secret_protected_accounts_verify_the_secret() {
    let hub = hub();
    hub.register_user_with_secret("ann", "Ann", "s3cret")
        .unwrap();
    // Wrong secret and missing secret are the same uniform failure.
    assert!(matches!(
        hub.login_with_secret("ann", "wrong"),
        Err(HubError::AuthFailed)
    ));
    assert!(matches!(hub.login("ann"), Err(HubError::AuthFailed)));
    // The right secret mints a working token.
    let token = hub.login_with_secret("ann", "s3cret").unwrap();
    assert_eq!(hub.whoami(&token).unwrap().username, "ann");
}

#[test]
fn open_accounts_refuse_an_unexpected_secret() {
    let hub = hub();
    hub.register_user("bob", "Bob").unwrap();
    // Presenting a secret to an account that has none is refused rather
    // than silently ignored.
    assert!(matches!(
        hub.login_with_secret("bob", "anything"),
        Err(HubError::AuthFailed)
    ));
    assert!(hub.login("bob").is_ok());
}

#[test]
fn auth_required_hubs_demand_secrets_everywhere() {
    let hub = hub();
    hub.register_user("early", "Joined Before").unwrap();
    hub.set_auth_required(true);
    // Registration without a secret is refused outright.
    assert!(matches!(
        hub.register_user("late", "Too Late"),
        Err(HubError::BadRequest(_))
    ));
    hub.register_user_with_secret("late", "On Time", "pw")
        .unwrap();
    assert!(hub.login_with_secret("late", "pw").is_ok());
    // Accounts that predate the policy can no longer log in secretless.
    assert!(matches!(hub.login("early"), Err(HubError::AuthFailed)));
}

#[test]
fn brute_force_locks_the_account_then_releases() {
    let hub = hub();
    hub.register_user_with_secret("ann", "Ann", "s3cret")
        .unwrap();
    for _ in 0..MAX_LOGIN_FAILURES {
        assert!(matches!(
            hub.login_with_secret("ann", "guess"),
            Err(HubError::AuthFailed)
        ));
    }
    // Locked: even the right secret is refused — no oracle during the
    // window — with a typed retry-after hint in hub-clock ticks.
    let locked = hub.login_with_secret("ann", "s3cret");
    let retry_after = match locked {
        Err(HubError::RateLimited { retry_after }) => retry_after,
        other => panic!("expected RateLimited, got {other:?}"),
    };
    assert!(retry_after > 0 && retry_after <= LOCKOUT_TICKS);
    // Wait out the window on the deterministic clock and get back in.
    hub.advance_clock_to(2 * LOCKOUT_TICKS + MAX_LOGIN_FAILURES as i64);
    let token = hub.login_with_secret("ann", "s3cret").unwrap();
    assert_eq!(hub.whoami(&token).unwrap().username, "ann");
    // Success cleared the streak: one more bad guess is a plain failure.
    assert!(matches!(
        hub.login_with_secret("ann", "guess"),
        Err(HubError::AuthFailed)
    ));
}

#[test]
fn failure_streaks_decay_between_attempts() {
    let hub = hub();
    hub.register_user_with_secret("ann", "Ann", "s3cret")
        .unwrap();
    for _ in 0..MAX_LOGIN_FAILURES - 1 {
        let _ = hub.login_with_secret("ann", "guess");
    }
    // A long-enough quiet period resets the count, so the next failure
    // starts a fresh streak instead of tripping the lock.
    hub.advance_clock_to(FAILURE_DECAY_TICKS + MAX_LOGIN_FAILURES as i64);
    assert!(matches!(
        hub.login_with_secret("ann", "guess"),
        Err(HubError::AuthFailed)
    ));
    let token = hub.login_with_secret("ann", "s3cret").unwrap();
    assert_eq!(hub.whoami(&token).unwrap().username, "ann");
}

#[test]
fn tokens_expire_on_the_hub_clock_and_refresh() {
    let hub = hub();
    hub.set_token_ttl(10);
    hub.register_user("ann", "Ann").unwrap();
    let token = hub.login("ann").unwrap();
    assert_eq!(hub.whoami(&token).unwrap().username, "ann");

    hub.advance_clock_to(1_000);
    // Expired is its own typed error — distinguishable from a bad token.
    assert!(matches!(hub.whoami(&token), Err(HubError::TokenExpired)));
    // Refresh exchanges it for a fresh token and revokes the old one.
    let fresh = hub.refresh(&token).unwrap();
    assert_eq!(hub.whoami(&fresh).unwrap().username, "ann");
    assert!(matches!(hub.whoami(&token), Err(HubError::AuthFailed)));
    // A second refresh of the retired token fails like any unknown token.
    assert!(matches!(hub.refresh(&token), Err(HubError::AuthFailed)));

    // ttl 0 turns expiry back off for newly minted tokens.
    hub.set_token_ttl(0);
    let forever = hub.login("ann").unwrap();
    hub.advance_clock_to(1_000_000);
    assert_eq!(hub.whoami(&forever).unwrap().username, "ann");
}

#[test]
fn per_user_rate_limit_charges_token_bearing_requests() {
    let hub = hub();
    hub.register_user("ann", "Ann").unwrap();
    let token = hub.login("ann").unwrap();
    hub.set_limits(LimitsConfig {
        user_rate: Some(RateLimit {
            capacity: 3,
            refill_per_tick: 1,
        }),
        ..LimitsConfig::default()
    });
    for _ in 0..3 {
        hub.whoami(&token).unwrap();
    }
    assert!(matches!(
        hub.whoami(&token),
        Err(HubError::RateLimited { retry_after: 1 })
    ));
    // Anonymous reads carry no token, so they are never charged here.
    assert!(hub.list_repos().unwrap().is_empty());
    // One clock tick refills one request.
    hub.advance_clock_to(hub_clock(&hub) + 1);
    hub.whoami(&token).unwrap();
    assert!(matches!(
        hub.whoami(&token),
        Err(HubError::RateLimited { .. })
    ));
}

#[test]
fn per_repo_rate_limit_charges_requests_naming_the_repo() {
    let hub = hub();
    hub.register_user("ann", "Ann").unwrap();
    let token = hub.login("ann").unwrap();
    let repo_id = hub.create_repo(&token, "p").unwrap();
    hub.set_limits(LimitsConfig {
        repo_rate: Some(RateLimit {
            capacity: 2,
            refill_per_tick: 1,
        }),
        ..LimitsConfig::default()
    });
    hub.branches(&repo_id).unwrap();
    hub.list_files(&repo_id, "main").unwrap();
    assert!(matches!(
        hub.branches(&repo_id),
        Err(HubError::RateLimited { retry_after: 1 })
    ));
    // Requests that name no repository stay unthrottled.
    assert_eq!(hub.list_repos().unwrap(), vec![repo_id]);
}

#[test]
fn bundle_quota_rejects_oversized_push_and_import() {
    let hub = hub();
    hub.register_user("ann", "Ann").unwrap();
    let token = hub.login("ann").unwrap();
    hub.set_limits(LimitsConfig {
        max_bundle_bytes: Some(64),
        ..LimitsConfig::default()
    });
    // Import: the bundle is checked before the repository exists.
    let big = small_repo(&"x".repeat(512));
    assert!(matches!(
        hub.import_repo(&token, "big", big),
        Err(HubError::QuotaExceeded(_))
    ));
    assert!(hub.list_repos().unwrap().is_empty());

    // Push: the bundle is checked before any object lands.
    hub.set_limits(LimitsConfig::default());
    let repo_id = hub.import_repo(&token, "p", small_repo("v0\n")).unwrap();
    let tip_before = hub
        .clone_repo(&repo_id)
        .unwrap()
        .branch_tip("main")
        .unwrap();
    let mut local = hub.clone_repo(&repo_id).unwrap();
    local
        .worktree_mut()
        .write(&path("blob.bin"), "y".repeat(512).into_bytes())
        .unwrap();
    local
        .commit(Signature::new("Ann", "a@x", 101), "big blob")
        .unwrap();
    hub.set_limits(LimitsConfig {
        max_bundle_bytes: Some(64),
        ..LimitsConfig::default()
    });
    assert!(matches!(
        hub.push(&token, &repo_id, "main", &local, "main", false),
        Err(HubError::QuotaExceeded(_))
    ));
    // The refused push left the hosted branch exactly where it was.
    assert_eq!(
        hub.clone_repo(&repo_id)
            .unwrap()
            .branch_tip("main")
            .unwrap(),
        tip_before
    );
}

#[test]
fn repo_byte_quota_caps_accumulated_accepted_bytes() {
    let hub = hub();
    hub.register_user("ann", "Ann").unwrap();
    let token = hub.login("ann").unwrap();
    hub.set_limits(LimitsConfig {
        max_repo_bytes: Some(2_000),
        ..LimitsConfig::default()
    });
    let repo_id = hub.import_repo(&token, "p", small_repo("v0\n")).unwrap();
    let mut local = hub.clone_repo(&repo_id).unwrap();
    // Push churn until the ledger crosses the cap: the denial is typed
    // and names the would-be total, and the repository still serves.
    let mut denied = None;
    for i in 0..64 {
        local
            .worktree_mut()
            .write(
                &path("f.txt"),
                format!("{i}: {}\n", "z".repeat(200)).into_bytes(),
            )
            .unwrap();
        local
            .commit(Signature::new("Ann", "a@x", 200 + i), format!("c{i}"))
            .unwrap();
        match hub.push(&token, &repo_id, "main", &local, "main", false) {
            Ok(_) => continue,
            Err(e) => {
                denied = Some(e);
                break;
            }
        }
    }
    match denied {
        Some(HubError::QuotaExceeded(why)) => assert!(why.contains("cap 2000"), "{why}"),
        other => panic!("expected QuotaExceeded, got {other:?}"),
    }
    assert!(hub.clone_repo(&repo_id).is_ok());
}

#[test]
fn denials_are_audited_and_counted() {
    let hub = hub();
    hub.register_user_with_secret("ann", "Ann", "s3cret")
        .unwrap();
    let _ = hub.login_with_secret("ann", "guess");
    let token = hub.login_with_secret("ann", "s3cret").unwrap();
    hub.set_limits(LimitsConfig {
        max_bundle_bytes: Some(8),
        ..LimitsConfig::default()
    });
    assert!(hub.import_repo(&token, "p", small_repo("v0\n")).is_err()); // quota
    hub.set_limits(LimitsConfig {
        user_rate: Some(RateLimit {
            capacity: 1,
            refill_per_tick: 1,
        }),
        ..LimitsConfig::default()
    });
    hub.whoami(&token).unwrap(); // drains the burst capacity...
    assert!(hub.whoami(&token).is_err()); // ...and reads never refill it

    let log = hub.audit_log().unwrap();
    let find = |action: &str| {
        log.iter()
            .find(|e| e.action == action && !e.ok)
            .unwrap_or_else(|| panic!("no failed {action:?} audit entry"))
    };
    find("login");
    find("quota_exceeded");
    find("rate_limited");

    // The same denials surface as wire-queryable counters.
    hub.grant_operator("ann").unwrap();
    hub.set_limits(LimitsConfig::default());
    let operator = hub.login_with_secret("ann", "s3cret").unwrap();
    let snap = hub.server_metrics(Some(&operator)).unwrap();
    let limits = snap
        .limits
        .as_ref()
        .expect("limits section present after denials");
    assert!(limits.auth_failures >= 1, "{limits:?}");
    assert!(limits.rate_rejections >= 1, "{limits:?}");
    assert!(limits.quota_rejections >= 1, "{limits:?}");
    let prom = snap.to_prometheus();
    assert!(prom.contains("gitcite_auth_failures_total"), "{prom}");
    assert!(prom.contains("gitcite_rate_rejections_total"), "{prom}");
    assert!(prom.contains("gitcite_quota_rejections_total"), "{prom}");
}

#[test]
fn new_error_codes_round_trip_the_wire() {
    let cases = [
        HubError::TokenExpired,
        HubError::RateLimited { retry_after: 7 },
        HubError::QuotaExceeded("bundle is 512 bytes (cap 64)".into()),
        HubError::ServerBusy { retry_after: 1 },
    ];
    for err in cases {
        let encoded = ApiResponse::from_error(&err).encode();
        let decoded = ApiResponse::parse(&encoded).unwrap().into_result();
        assert_eq!(format!("{:?}", decoded.unwrap_err()), format!("{err:?}"));
    }
}

/// Reads the hub clock without assuming a starting value: audit entries
/// carry the logical timestamp the clock had reached.
fn hub_clock(hub: &Hub) -> i64 {
    hub.audit_log().unwrap().last().map_or(0, |e| e.timestamp)
}
