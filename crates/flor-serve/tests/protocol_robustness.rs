//! Protocol robustness: malformed, truncated and oversized frames must
//! produce a typed error response and drop *only* the offending
//! connection — a concurrent well-behaved session keeps working and the
//! server never panics (it keeps accepting afterwards).

use flor_core::Flor;
use flor_serve::protocol::{read_frame, write_frame, DEFAULT_MAX_FRAME_BYTES};
use flor_serve::{
    AuthToken, Client, ErrorCode, Request, Response, ServeError, Server, ServerConfig,
};
use flor_view::QueryPlan;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn served_flor() -> Flor {
    let flor = Flor::new("robustness");
    flor.set_filename("r.fl");
    flor.log("loss", 0.5);
    flor.commit("seed").expect("commit");
    flor
}

/// Raw hello, returning the connected stream past the handshake.
fn raw_hello(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let hello = Request::Hello {
        version: flor_serve::PROTOCOL_VERSION,
        token: None,
    };
    write_frame(&mut stream, &hello.encode()).expect("hello");
    let payload = read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES).expect("hello-ok frame");
    assert!(matches!(
        Response::decode(payload),
        Ok(Response::HelloOk { .. })
    ));
    stream
}

/// Expect a typed error response, then EOF (the server hung up).
fn expect_error_then_eof(stream: &mut TcpStream, expect_code: ErrorCode) {
    let payload = read_frame(stream, DEFAULT_MAX_FRAME_BYTES).expect("error frame");
    match Response::decode(payload).expect("decodable error") {
        Response::Error { code, .. } => assert_eq!(code, expect_code),
        other => panic!("expected error response, got {other:?}"),
    }
    let mut rest = [0u8; 1];
    match stream.read(&mut rest) {
        Ok(0) => {}
        Ok(_) => panic!("server kept the connection open after a protocol violation"),
        // A reset is also an acceptable hangup.
        Err(_) => {}
    }
}

#[test]
fn malformed_frames_get_typed_errors_and_only_that_connection_drops() {
    let flor = served_flor();
    let server = Server::bind(flor.clone(), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let handle = server.spawn().expect("spawn");
    let addr = handle.addr();

    // A well-behaved session that must survive every abuse below.
    let mut good = Client::connect(addr, None).expect("good client");
    let plan = QueryPlan::new(&["loss"]);
    let (_, df) = good.query(&plan).expect("baseline query");
    assert_eq!(df.n_rows(), 1);

    // 1. Garbage payload with a valid header+CRC: unknown kind.
    {
        let mut s = raw_hello(addr);
        write_frame(&mut s, &[0xde, 0xad, 0xbe, 0xef]).expect("garbage");
        expect_error_then_eof(&mut s, ErrorCode::BadRequest);
    }

    // 2. Corrupted payload (CRC mismatch).
    {
        let mut s = raw_hello(addr);
        let payload = Request::Pin.encode();
        let mut head = [0u8; 12];
        head[..4].copy_from_slice(&(payload.len() as u32).to_be_bytes());
        head[4..].copy_from_slice(&0xbad0_bad0_bad0_bad0u64.to_be_bytes());
        s.write_all(&head).expect("head");
        s.write_all(&payload).expect("payload");
        expect_error_then_eof(&mut s, ErrorCode::BadRequest);
    }

    // 3. Truncated request body (announced length honest, body short).
    {
        let mut s = raw_hello(addr);
        // A Query kind byte with no plan behind it.
        write_frame(&mut s, &[2u8]).expect("truncated query");
        expect_error_then_eof(&mut s, ErrorCode::BadRequest);
    }

    // 4. Oversized frame header: rejected before allocation.
    {
        let mut s = raw_hello(addr);
        let mut head = [0u8; 12];
        head[..4].copy_from_slice(&u32::MAX.to_be_bytes());
        s.write_all(&head).expect("huge header");
        expect_error_then_eof(&mut s, ErrorCode::BadRequest);
    }

    // 5. Non-hello first request.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        write_frame(&mut s, &Request::Pin.encode()).expect("pin first");
        expect_error_then_eof(&mut s, ErrorCode::BadRequest);
    }

    // 6. Wrong protocol version.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let hello = Request::Hello {
            version: 999,
            token: None,
        };
        write_frame(&mut s, &hello.encode()).expect("hello");
        expect_error_then_eof(&mut s, ErrorCode::BadRequest);
    }

    // Through all of it, the good session kept its pin and the server
    // kept accepting.
    let (_, df) = good.query(&plan).expect("query after abuse");
    assert_eq!(df.n_rows(), 1);
    let mut fresh = Client::connect(addr, None).expect("fresh client");
    fresh.pin().expect("fresh pin");
    fresh.close().expect("close");
    good.close().expect("close");
    handle.stop();
}

/// 200,000 nested trace-context headers — a 1.8 MB payload, far under
/// the frame cap — as the very first frame, before any handshake or auth:
/// decoding must not descend once per header (a stack overflow aborts
/// the whole process, every session with it).
#[test]
fn deeply_nested_trace_context_as_first_frame_leaves_the_server_up() {
    let flor = served_flor();
    let server = Server::bind(flor, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let handle = server.spawn().expect("spawn");
    let addr = handle.addr();
    let mut good = Client::connect(addr, None).expect("good client");

    let mut deep = Vec::new();
    for id in 0..200_000u64 {
        deep.push(8); // Request::Traced
        deep.extend_from_slice(&id.to_be_bytes());
    }
    deep.extend_from_slice(&Request::Pin.encode());
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    write_frame(&mut s, &deep).expect("nested frame");
    expect_error_then_eof(&mut s, ErrorCode::BadRequest);

    // The session opened before still answers, and so does a new one.
    let (_, df) = good
        .query(&QueryPlan::new(&["loss"]))
        .expect("query after abuse");
    assert_eq!(df.n_rows(), 1);
    let mut fresh = Client::connect(addr, None).expect("fresh client");
    fresh.pin().expect("fresh pin");
    fresh.close().expect("close");
    good.close().expect("close");
    handle.stop();
}

#[test]
fn auth_token_gate_refuses_bad_handshakes() {
    let flor = served_flor();
    let server = Server::bind(flor, "127.0.0.1:0", ServerConfig::default())
        .expect("bind")
        .with_middleware(Arc::new(AuthToken::new("s3cret")));
    let handle = server.spawn().expect("spawn");
    let addr = handle.addr();

    match Client::connect(addr, None) {
        Err(ServeError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Unauthorized),
        other => panic!("tokenless connect must be refused, got {other:?}"),
    }
    match Client::connect(addr, Some("wrong")) {
        Err(ServeError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Unauthorized),
        other => panic!("wrong token must be refused, got {other:?}"),
    }
    let mut ok = Client::connect(addr, Some("s3cret")).expect("right token");
    ok.pin().expect("pin");
    ok.close().expect("close");
    handle.stop();
}

#[test]
fn session_pool_overflow_answers_busy() {
    let flor = served_flor();
    let cfg = ServerConfig {
        max_sessions: 2,
        ..ServerConfig::default()
    };
    let server = Server::bind(flor, "127.0.0.1:0", cfg).expect("bind");
    let handle = server.spawn().expect("spawn");
    let addr = handle.addr();

    let a = Client::connect(addr, None).expect("first");
    let b = Client::connect(addr, None).expect("second");
    match Client::connect(addr, None) {
        Err(ServeError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Busy),
        other => panic!("third session must be refused busy, got {other:?}"),
    }
    a.close().expect("close a");
    // The freed slot becomes available again (allow a beat for the
    // handler thread to decrement).
    let mut again = None;
    for _ in 0..100 {
        match Client::connect(addr, None) {
            Ok(c) => {
                again = Some(c);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    again.expect("slot never freed").close().expect("close");
    b.close().expect("close b");
    handle.stop();
}
