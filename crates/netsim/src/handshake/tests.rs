//! `reconcile_core::handshake` against the library's server
//! ([`crate::library_server`]), over a link that counts flights.

use std::io::Write;

use reconcile_core::backends::{RibltBackend, RIBLT_STREAM_MAGIC};
use reconcile_core::handshake::{
    client_handshake, client_handshake_pipelined, reject_frame_bytes, Hello, RejectReason,
    SHARDS_ANY,
};
use reconcile_core::wirefmt::encode_stream_open;
use reconcile_core::{
    append_frame, read_frame, read_mux_frame, write_frame, EngineError, EngineMessage, MuxFrame,
    Result, SHARD_ALL,
};
use riblt_hash::SipKey;

use crate::{library_server, FlightLink};

fn key() -> SipKey {
    SipKey::new(11, 22)
}

/// The library's server announcing `hello`, over an empty set.
fn server(hello: Hello) -> FlightLink {
    let backend = RibltBackend::<riblt::FixedBytes<8>>::with_key_and_alpha(
        8,
        32,
        key(),
        riblt::DEFAULT_ALPHA,
    );
    library_server(backend, &[], hello, usize::MAX)
}

/// The client half against the library's server announcing `server`:
/// the client's result, and why the server hung up, if it did.
fn run(client: Hello, server_hello: Hello) -> (Result<Hello>, Option<EngineError>) {
    let mut link = server(server_hello);
    let client_result = client_handshake(&mut link, &client);
    (client_result, link.hung_up)
}

#[test]
fn matching_peers_complete_and_client_adopts_server_shards() {
    let mut link = server(Hello::new(key(), 32, 8));
    let server_hello = client_handshake(&mut link, &Hello::new(key(), SHARDS_ANY, 8)).unwrap();
    assert_eq!(
        server_hello.shards, 32,
        "server shard count is authoritative"
    );
    assert_eq!(link.hung_up, None);
    // What the server was told: no preference.
    let seen_by_server = Hello::from_bytes(&read_frame(&mut &link.sent[..]).unwrap()).unwrap();
    assert_eq!(seen_by_server.shards, SHARDS_ANY);
}

#[test]
fn pipelined_frames_leave_with_the_hello_and_wait_behind_it() {
    let (client, server_hello) = (Hello::new(key(), SHARDS_ANY, 8), Hello::new(key(), 4, 8));
    let open = EngineMessage::Open(encode_stream_open(RIBLT_STREAM_MAGIC, 8));
    let mut pipelined = Vec::new();
    append_frame(
        &mut pipelined,
        &MuxFrame::new(1, SHARD_ALL, open).to_bytes(),
    )
    .unwrap();
    let mut link = server(server_hello);
    assert_eq!(
        client_handshake_pipelined(&mut link, &client, &pipelined).unwrap(),
        server_hello
    );
    // The frames left with the hello, in one write, before the client
    // waited...
    let mut flight = Vec::new();
    append_frame(&mut flight, &client.to_bytes()).unwrap();
    flight.extend_from_slice(&pipelined);
    assert_eq!(link.sent, flight);
    assert_eq!(link.writes, 1, "hello and frames share one write");
    assert_eq!(link.flights, 1);
    // ...and the server read them behind it: its hello, then its answer
    // to the open, every shard's first tile, is all it said.
    let mut said = &link.received[..];
    let hello = Hello::from_bytes(&read_frame(&mut said).unwrap()).unwrap();
    assert_eq!(hello, server_hello);
    for shard in 0..4 {
        let reply = read_mux_frame(&mut said).unwrap();
        assert_eq!(reply.shard, shard);
        assert!(matches!(reply.message, EngineMessage::Payload(_)));
    }
    assert!(said.is_empty());
}

#[test]
fn version_mismatch_is_rejected_with_the_reason() {
    let mut old = Hello::new(key(), 4, 8);
    old.version = 0;
    let (client_result, hung_up) = run(old, Hello::new(key(), 4, 8));
    assert!(matches!(hung_up, Some(EngineError::Handshake(_))));
    let err = client_result.unwrap_err();
    assert!(err.to_string().contains("version"), "{err}");
}

#[test]
fn key_mismatch_is_rejected_with_the_reason() {
    let (client_result, hung_up) = run(
        Hello::new(SipKey::new(1, 1), 4, 8),
        Hello::new(SipKey::new(2, 2), 4, 8),
    );
    assert!(hung_up.is_some());
    let err = client_result.unwrap_err();
    assert!(err.to_string().contains("fingerprint"), "{err}");
}

#[test]
fn symbol_len_mismatch_is_rejected_with_the_reason() {
    let (client_result, hung_up) = run(Hello::new(key(), 4, 16), Hello::new(key(), 4, 8));
    assert!(hung_up.is_some());
    let err = client_result.unwrap_err();
    assert!(err.to_string().contains("symbol length"), "{err}");
}

#[test]
fn garbage_hello_gets_a_malformed_reject() {
    let mut link = server(Hello::new(key(), 4, 8));
    write_frame(&mut link, b"not a hello at all").unwrap();
    let reply = read_frame(&mut link).unwrap();
    // The reject frame for a malformed hello, byte for byte.
    assert_eq!(reply, reject_frame_bytes(RejectReason::Malformed));
    assert!(link.hung_up.is_some());
}

#[test]
fn truncated_stream_surfaces_as_io_not_a_hang() {
    // A peer that sends half a frame then waits.
    let mut partial = Vec::new();
    write_frame(&mut partial, &Hello::new(key(), 4, 8).to_bytes()).unwrap();
    partial.truncate(partial.len() - 5);
    let mut link = server(Hello::new(key(), 4, 8));
    link.write_all(&partial).unwrap();
    // The server gives up on the half frame and hangs up, so the peer
    // reads end-of-stream instead of waiting for ever.
    assert_eq!(
        read_frame(&mut link).unwrap_err().kind(),
        std::io::ErrorKind::UnexpectedEof
    );
    assert!(matches!(link.hung_up, Some(EngineError::Io(_, _))));
}
