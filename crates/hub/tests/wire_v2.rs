//! Wire fixtures for the paginated reads and push negotiation: golden
//! strings for their methods and result shapes, plus the version rule —
//! envelopes stamped with anything but the current version are refused.

use gitlite::ObjectId;
use hub::api::{ApiRequest, ApiResponse, ErrorCode, Negotiation, Page, RepoBundle};
use hub::LogEntry;

fn id(byte: u8) -> ObjectId {
    ObjectId::from_hex(&format!("{byte:02x}").repeat(20)).unwrap()
}

fn golden_request(req: ApiRequest, expected: &str) {
    assert_eq!(
        req.encode(),
        expected,
        "encoding drifted for {}",
        req.method()
    );
    assert_eq!(
        ApiRequest::parse(expected).unwrap(),
        req,
        "golden string no longer parses for {}",
        req.method()
    );
}

fn golden_response(resp: ApiResponse, expected: &str) {
    assert_eq!(
        resp.encode(),
        expected,
        "encoding drifted for {}",
        resp.kind()
    );
    assert_eq!(
        ApiResponse::parse(expected).unwrap(),
        resp,
        "golden string no longer parses for {}",
        resp.kind()
    );
}

// ----- golden requests --------------------------------------------------

#[test]
fn golden_negotiate() {
    golden_request(
        ApiRequest::Negotiate {
            repo_id: "ann/p".into(),
            haves: vec![id(0xaa), id(0xbb)],
        },
        &format!(
            r#"{{"v":3,"method":"negotiate","params":{{"repo_id":"ann/p","haves":["{}","{}"]}}}}"#,
            "aa".repeat(20),
            "bb".repeat(20),
        ),
    );
}

#[test]
fn golden_log_page() {
    golden_request(
        ApiRequest::LogPage {
            repo_id: "ann/p".into(),
            branch: "main".into(),
            cursor: Some(format!("{}:25", "aa".repeat(20))),
            limit: Some(25),
        },
        &format!(
            r#"{{"v":3,"method":"log_page","params":{{"repo_id":"ann/p","branch":"main","cursor":"{}:25","limit":25}}}}"#,
            "aa".repeat(20),
        ),
    );
    // Cursor and limit are optional.
    golden_request(
        ApiRequest::LogPage {
            repo_id: "ann/p".into(),
            branch: "main".into(),
            cursor: None,
            limit: None,
        },
        r#"{"v":3,"method":"log_page","params":{"repo_id":"ann/p","branch":"main"}}"#,
    );
}

#[test]
fn golden_audit_log_page() {
    golden_request(
        ApiRequest::AuditLogPage {
            cursor: Some("17".into()),
            limit: Some(100),
        },
        r#"{"v":3,"method":"audit_log_page","params":{"cursor":"17","limit":100}}"#,
    );
}

#[test]
fn golden_list_repos_page() {
    golden_request(
        ApiRequest::ListReposPage {
            cursor: Some("ann/p".into()),
            limit: Some(2),
        },
        r#"{"v":3,"method":"list_repos_page","params":{"cursor":"ann/p","limit":2}}"#,
    );
}

#[test]
fn golden_delta_push() {
    let bundle = RepoBundle {
        name: "p".into(),
        head: Some("main".into()),
        refs: vec![("main".into(), id(0xcc))],
        objects: vec![(id(0xdd), vec![0x01, 0x02])],
        basis: vec![id(0xee)],
    };
    golden_request(
        ApiRequest::Push {
            token: "ghp_1".into(),
            repo_id: "ann/p".into(),
            branch: "main".into(),
            force: false,
            bundle,
        },
        &format!(
            concat!(
                r#"{{"v":3,"method":"push","params":{{"token":"ghp_1","repo_id":"ann/p","branch":"main","force":false,"#,
                r#""bundle":{{"name":"p","head":"main","refs":[["main","{cc}"]],"objects":[["{dd}","0102"]],"basis":["{ee}"]}}}}}}"#,
            ),
            cc = "cc".repeat(20),
            dd = "dd".repeat(20),
            ee = "ee".repeat(20),
        ),
    );
}

// ----- golden responses -------------------------------------------------

#[test]
fn golden_negotiation_response() {
    golden_response(
        ApiResponse::Negotiation(Negotiation {
            common: vec![id(0xaa)],
            missing: vec![id(0xbb)],
        }),
        &format!(
            r#"{{"v":3,"result":{{"type":"negotiation","negotiation":{{"common":["{}"],"missing":["{}"]}}}}}}"#,
            "aa".repeat(20),
            "bb".repeat(20),
        ),
    );
}

#[test]
fn golden_log_page_response() {
    golden_response(
        ApiResponse::LogPage(Page {
            items: vec![LogEntry {
                id: id(0xaa),
                author: "Ann".into(),
                timestamp: 42,
                message: "c1".into(),
            }],
            next: Some(format!("{}:1", "bb".repeat(20))),
        }),
        &format!(
            r#"{{"v":3,"result":{{"type":"log_page","entries":[{{"id":"{}","author":"Ann","timestamp":42,"message":"c1"}}],"next":"{}:1"}}}}"#,
            "aa".repeat(20),
            "bb".repeat(20),
        ),
    );
    // Last page: no `next` key at all.
    golden_response(
        ApiResponse::LogPage(Page {
            items: vec![],
            next: None,
        }),
        r#"{"v":3,"result":{"type":"log_page","entries":[]}}"#,
    );
}

#[test]
fn golden_names_page_response() {
    golden_response(
        ApiResponse::NamesPage(Page {
            items: vec!["ann/p".into(), "bob/q".into()],
            next: Some("bob/q".into()),
        }),
        r#"{"v":3,"result":{"type":"names_page","names":["ann/p","bob/q"],"next":"bob/q"}}"#,
    );
}

#[test]
fn golden_audit_page_response() {
    golden_response(
        ApiResponse::AuditPage(Page {
            items: vec![hub::AuditEvent {
                seq: 3,
                timestamp: 9,
                actor: None,
                action: "clone".into(),
                target: "ann/p".into(),
                ok: true,
            }],
            next: Some("4".into()),
        }),
        r#"{"v":3,"result":{"type":"audit_page","events":[{"seq":3,"timestamp":9,"actor":null,"action":"clone","target":"ann/p","ok":true}],"next":"4"}}"#,
    );
}

// ----- version refusal -----------------------------------------------------

#[test]
fn future_versions_are_refused_with_protocol_error() {
    let err =
        ApiRequest::parse(r#"{"v":4,"method":"login","params":{"username":"a"}}"#).unwrap_err();
    assert_eq!(err.code, ErrorCode::Protocol);
    let err = ApiResponse::parse(r#"{"v":9,"result":{"type":"unit"}}"#).unwrap_err();
    assert_eq!(err.code, ErrorCode::Protocol);
}

#[test]
fn v2_methods_are_refused_in_v1_envelopes() {
    // And in v2 envelopes too: only the current stamp parses.
    for (method, params) in [
        ("negotiate", r#"{"repo_id":"a/p","haves":[]}"#),
        ("log_page", r#"{"repo_id":"a/p","branch":"main"}"#),
        ("audit_log_page", "{}"),
        ("list_repos_page", "{}"),
    ] {
        let current = format!(r#"{{"v":3,"method":"{method}","params":{params}}}"#);
        let req = ApiRequest::parse(&current).unwrap_or_else(|e| panic!("{current}: {e}"));
        assert_eq!(req.method(), method);
        for v in [1, 2] {
            let old = format!(r#"{{"v":{v},"method":"{method}","params":{params}}}"#);
            let err = ApiRequest::parse(&old).unwrap_err();
            assert_eq!(err.code, ErrorCode::Protocol, "{method} accepted in v{v}");
        }
    }
}

/// Responses stamped with the retired v1 and v2 are refused too.
#[test]
fn v1_and_v2_stamped_responses_are_refused() {
    for v in [1, 2] {
        let resp = format!(r#"{{"v":{v},"result":{{"type":"unit"}}}}"#);
        let err = ApiResponse::parse(&resp).unwrap_err();
        assert_eq!(err.code, ErrorCode::Protocol, "{resp}");
        assert!(err.message.contains("version"), "{}", err.message);
    }
}
