//! Wire fixtures for batch envelopes and the `objects_ext` side-channel
//! form, golden bytes for the framing, the guard rules (old version
//! stamps refused, side channels consumed exactly), and proptests for
//! frame and side-channel round trips.

use gitlite::ObjectId;
use hub::api::{
    ApiRequest, ApiResponse, ErrorCode, MethodMetrics, MetricsSnapshot, RepoBundle,
    TransportMetrics, WireError, WireHistogram,
};
use hub::transport::frame;
use proptest::prelude::*;

fn id(byte: u8) -> ObjectId {
    ObjectId::from_hex(&format!("{byte:02x}").repeat(20)).unwrap()
}

// ----- golden envelopes ----------------------------------------------------

#[test]
fn golden_batch_request() {
    let batch = ApiRequest::Batch {
        requests: vec![
            ApiRequest::Login {
                username: "ann".into(),
                secret: None,
            },
            ApiRequest::ListReposPage {
                cursor: None,
                limit: None,
            },
        ],
    };
    let expected = concat!(
        r#"{"v":3,"method":"batch","params":{"requests":["#,
        r#"{"v":3,"method":"login","params":{"username":"ann"}},"#,
        r#"{"v":3,"method":"list_repos_page","params":{}}"#,
        r#"]}}"#,
    );
    assert_eq!(batch.encode(), expected);
    assert_eq!(ApiRequest::parse(expected).unwrap(), batch);
}

#[test]
fn golden_batch_response() {
    // Item-level failure sits beside an item-level success: the batch
    // itself is a successful response.
    let batch = ApiResponse::Batch(vec![
        ApiResponse::Token("ghp_1".into()),
        ApiResponse::Error(WireError {
            code: ErrorCode::AuthFailed,
            message: "authentication failed".into(),
            detail: None,
        }),
    ]);
    let expected = concat!(
        r#"{"v":3,"result":{"type":"batch","responses":["#,
        r#"{"v":3,"result":{"type":"token","token":"ghp_1"}},"#,
        r#"{"v":3,"error":{"code":"auth_failed","message":"authentication failed"}}"#,
        r#"]}}"#,
    );
    assert_eq!(batch.encode(), expected);
    assert_eq!(ApiResponse::parse(expected).unwrap(), batch);
}

#[test]
fn golden_objects_ext_push() {
    let push = ApiRequest::Push {
        token: "ghp_1".into(),
        repo_id: "ann/p".into(),
        branch: "main".into(),
        force: false,
        bundle: RepoBundle {
            name: "p".into(),
            head: Some("main".into()),
            refs: vec![("main".into(), id(0xcc))],
            objects: vec![(id(0xdd), vec![0x01, 0x02])],
            basis: vec![id(0xee)],
        },
    };
    let (envelope, objects) = push.encode_ext();
    // The hex object array is gone; the envelope only counts the records
    // that travel beside it.
    let expected = format!(
        concat!(
            r#"{{"v":3,"method":"push","params":{{"token":"ghp_1","repo_id":"ann/p","branch":"main","force":false,"#,
            r#""bundle":{{"name":"p","head":"main","refs":[["main","{cc}"]],"objects_ext":1,"basis":["{ee}"]}}}}}}"#,
        ),
        cc = "cc".repeat(20),
        ee = "ee".repeat(20),
    );
    assert_eq!(envelope, expected);
    assert_eq!(objects, vec![(id(0xdd), vec![0x01, 0x02])]);
    // Joining envelope and side channel reconstructs the request.
    assert_eq!(ApiRequest::parse_ext(&envelope, objects).unwrap(), push);
}

#[test]
fn golden_objects_ext_bundle_response() {
    let bundle = ApiResponse::Bundle(RepoBundle {
        name: "p".into(),
        head: None,
        refs: vec![("main".into(), id(0xaa))],
        objects: vec![(id(0xaa), vec![0xff; 4]), (id(0xbb), Vec::new())],
        basis: vec![],
    });
    let (envelope, objects) = bundle.encode_ext();
    let expected = format!(
        r#"{{"v":3,"result":{{"type":"bundle","bundle":{{"name":"p","refs":[["main","{aa}"]],"objects_ext":2}}}}}}"#,
        aa = "aa".repeat(20),
    );
    assert_eq!(envelope, expected);
    assert_eq!(objects.len(), 2);
    assert_eq!(ApiResponse::parse_ext(&envelope, objects).unwrap(), bundle);
}

#[test]
fn golden_server_metrics_request() {
    let req = ApiRequest::ServerMetrics {
        token: Some("ghp_1".into()),
    };
    let expected = r#"{"v":3,"method":"server_metrics","params":{"token":"ghp_1"}}"#;
    assert_eq!(req.encode(), expected);
    assert_eq!(ApiRequest::parse(expected).unwrap(), req);
    // Absent-field rule: the tokenless (trusted in-process) form omits
    // the key entirely rather than writing null.
    let bare = ApiRequest::ServerMetrics { token: None };
    let expected = r#"{"v":3,"method":"server_metrics","params":{}}"#;
    assert_eq!(bare.encode(), expected);
    assert_eq!(ApiRequest::parse(expected).unwrap(), bare);
    // Re-stamped as v2, it is refused, not guessed at.
    let err = ApiRequest::parse(r#"{"v":2,"method":"server_metrics","params":{}}"#).unwrap_err();
    assert_eq!(err.code, ErrorCode::Protocol);
    assert!(err.message.contains("version"), "{}", err.message);
}

#[test]
fn golden_server_metrics_response() {
    let resp = ApiResponse::Metrics(MetricsSnapshot {
        methods: vec![MethodMetrics {
            method: "log".into(),
            calls: 3,
            errors: vec![("repo_not_found".into(), 1)],
            latency: WireHistogram {
                count: 3,
                sum_us: 700,
                max_us: 500,
                buckets: vec![(7, 2), (9, 1)],
            },
        }],
        transport: Some(TransportMetrics {
            open_connections: 2,
            queue_depth: 0,
            busy_workers: 1,
            bytes_in_line: 10,
            bytes_out_line: 20,
            bytes_in_binary: 30,
            bytes_out_binary: 40,
            frames_rejected: 0,
            transport_closed: 1,
            obj_raw_bytes: 100,
            obj_deflate_bytes: 60,
        }),
        store: None,
        limits: None,
        repl: None,
    });
    let expected = concat!(
        r#"{"v":3,"result":{"type":"metrics","metrics":{"#,
        r#""methods":[{"method":"log","calls":3,"errors":[["repo_not_found",1]],"#,
        r#""latency":{"count":3,"sum_us":700,"max_us":500,"buckets":[[7,2],[9,1]]}}],"#,
        r#""transport":{"open_connections":2,"queue_depth":0,"busy_workers":1,"#,
        r#""bytes_in_line":10,"bytes_out_line":20,"bytes_in_binary":30,"bytes_out_binary":40,"#,
        r#""frames_rejected":0,"transport_closed":1,"obj_raw_bytes":100,"obj_deflate_bytes":60}"#,
        r#"}}}"#,
    );
    assert_eq!(resp.encode(), expected);
    assert_eq!(ApiResponse::parse(expected).unwrap(), resp);
}

#[test]
fn server_metrics_absent_field_rules() {
    // Empty error tallies, empty buckets, and missing transport/store
    // sections are omitted keys, never empty arrays or nulls — so the
    // golden bytes stay stable as sections come and go.
    let lean = ApiResponse::Metrics(MetricsSnapshot {
        methods: vec![MethodMetrics {
            method: "list_repos".into(),
            calls: 0,
            errors: vec![],
            latency: WireHistogram {
                count: 0,
                sum_us: 0,
                max_us: 0,
                buckets: vec![],
            },
        }],
        transport: None,
        store: None,
        limits: None,
        repl: None,
    });
    let expected = concat!(
        r#"{"v":3,"result":{"type":"metrics","metrics":{"#,
        r#""methods":[{"method":"list_repos","calls":0,"#,
        r#""latency":{"count":0,"sum_us":0,"max_us":0}}]"#,
        r#"}}}"#,
    );
    assert_eq!(lean.encode(), expected);
    assert_eq!(ApiResponse::parse(expected).unwrap(), lean);
}

// ----- golden frame bytes --------------------------------------------------

#[test]
fn golden_frame_bytes() {
    // ENV frame: kind, u32 BE length, payload.
    let mut env = Vec::new();
    frame::write_frame(&mut env, frame::ENV, b"{}");
    assert_eq!(env, [0x01, 0, 0, 0, 2, b'{', b'}']);
    assert_eq!(frame::encode_message("{}", &[]), env);
}

#[test]
fn object_stream_is_framed_and_compressed() {
    let objects: Vec<(ObjectId, Vec<u8>)> = (0..64u32)
        .map(|i| {
            let bytes = format!("commit payload number {i} ")
                .repeat(40)
                .into_bytes();
            (ObjectId::hash_bytes(&bytes), bytes)
        })
        .collect();
    let message = frame::encode_message(r#"{"v":3}"#, &objects);
    // ENV_OBJ leads, END closes.
    assert_eq!(message[0], frame::ENV_OBJ);
    assert_eq!(message[message.len() - 5], frame::END);
    let (envelope, back) = frame::read_message(&mut &message[..]).unwrap();
    assert_eq!(envelope, r#"{"v":3}"#);
    assert_eq!(back, objects);
    // Deflate beats the raw record bytes on repetitive payloads — and
    // by construction beats inline hex doubling by even more.
    let raw: usize = objects.iter().map(|(_, b)| 24 + b.len()).sum();
    assert!(message.len() < raw, "{} vs {raw}", message.len());
}

// ----- guard rules ---------------------------------------------------------

#[test]
fn objects_ext_needs_the_side_channel() {
    let (envelope, objects) = ApiRequest::Push {
        token: "t".into(),
        repo_id: "a/p".into(),
        branch: "main".into(),
        force: false,
        bundle: RepoBundle {
            name: "p".into(),
            head: None,
            refs: vec![],
            objects: vec![(id(0xaa), vec![1])],
            basis: vec![],
        },
    }
    .encode_ext();
    // Plain parse has no side channel to draw from: refused.
    let err = ApiRequest::parse(&envelope).unwrap_err();
    assert_eq!(err.code, ErrorCode::Protocol);
    // A short side channel is refused.
    let err = ApiRequest::parse_ext(&envelope, vec![]).unwrap_err();
    assert_eq!(err.code, ErrorCode::Protocol);
    assert!(err.message.contains("claims 1"), "{}", err.message);
    // Leftover side-channel objects are refused.
    let mut extra = objects.clone();
    extra.push((id(0xbb), vec![2]));
    let err = ApiRequest::parse_ext(&envelope, extra).unwrap_err();
    assert!(err.message.contains("unconsumed"), "{}", err.message);
    // Exactly consumed parses.
    assert!(ApiRequest::parse_ext(&envelope, objects).is_ok());
}

#[test]
fn v3_constructs_are_refused_in_older_envelopes() {
    // objects_ext re-stamped as v2: old stamps are refused outright.
    let (envelope, objects) = ApiRequest::Push {
        token: "t".into(),
        repo_id: "a/p".into(),
        branch: "main".into(),
        force: false,
        bundle: RepoBundle {
            name: "p".into(),
            head: None,
            refs: vec![],
            objects: vec![(id(0xaa), vec![1])],
            basis: vec![],
        },
    }
    .encode_ext();
    let downgraded = envelope.replace(r#"{"v":3,"#, r#"{"v":2,"#);
    let err = ApiRequest::parse_ext(&downgraded, objects).unwrap_err();
    assert!(err.message.contains("version"), "{}", err.message);
    // A batch inside a v2 envelope is likewise refused.
    let err =
        ApiRequest::parse(r#"{"v":2,"method":"batch","params":{"requests":[]}}"#).unwrap_err();
    assert_eq!(err.code, ErrorCode::Protocol);
}

#[test]
fn nested_batches_are_refused_on_the_wire() {
    let nested = concat!(
        r#"{"v":3,"method":"batch","params":{"requests":["#,
        r#"{"v":3,"method":"batch","params":{"requests":[]}}"#,
        r#"]}}"#,
    );
    let err = ApiRequest::parse(nested).unwrap_err();
    assert!(err.message.contains("nest"), "{}", err.message);
}

// ----- proptests -----------------------------------------------------------

fn arb_objects() -> impl Strategy<Value = Vec<(ObjectId, Vec<u8>)>> {
    prop::collection::vec(
        (
            any::<u64>().prop_map(|n| ObjectId::hash_bytes(&n.to_be_bytes())),
            prop::collection::vec(any::<u8>(), 0..600),
        ),
        0..24,
    )
}

proptest! {
    /// Any (envelope, objects) message survives the frame codec intact —
    /// chunking, compression and record framing included.
    #[test]
    fn frame_messages_round_trip(envelope in "[ -~]{0,200}", objects in arb_objects()) {
        let message = frame::encode_message(&envelope, &objects);
        let (env_back, obj_back) = frame::read_message(&mut &message[..]).unwrap();
        prop_assert_eq!(env_back, envelope);
        prop_assert_eq!(obj_back, objects);
    }

    /// encode_ext → parse_ext is the identity on bundle-carrying
    /// requests, whatever the object payloads.
    #[test]
    fn side_channel_round_trips(objects in arb_objects()) {
        let push = ApiRequest::Push {
            token: "t".into(),
            repo_id: "a/p".into(),
            branch: "main".into(),
            force: false,
            bundle: RepoBundle {
                name: "p".into(),
                head: Some("main".into()),
                refs: vec![("main".into(), id(0xaa))],
                objects,
                basis: vec![],
            },
        };
        let (envelope, side) = push.encode_ext();
        prop_assert_eq!(ApiRequest::parse_ext(&envelope, side).unwrap(), push);
    }

    /// Requests without bundles encode identically through both paths,
    /// with an empty side channel.
    #[test]
    fn bundleless_requests_do_not_touch_the_side_channel(name in "[a-z]{1,8}") {
        let req = ApiRequest::Login {
            username: name,
            secret: None,
        };
        let (envelope, side) = req.encode_ext();
        prop_assert_eq!(&envelope, &req.encode());
        prop_assert!(side.is_empty());
    }
}
