//! Blockchain ledger synchronization over a real TCP connection on
//! localhost — the paper's §7.3 application, end to end.
//!
//! Run with `cargo run --release --example blockchain_state_sync`.
//!
//! A "full node" (Alice) holds the latest synthetic ledger and listens on a
//! TCP port. A "stale replica" (Bob) holds a snapshot from 50 blocks ago,
//! connects, receives a stream of coded symbols, decodes the difference,
//! applies it, and verifies that its Merkle root now matches Alice's.
//!
//! Both endpoints are the generic session engine from `netsim` with
//! the Rateless IBLT backend plugged in; TCP only moves its opaque frames.
//! The serve loop below implements the *streaming* flow (push payloads,
//! poll for a stop frame), so `RibltBackend` is swappable for any other
//! streaming backend (e.g. `IrregularRibltBackend`) without further
//! changes; interactive backends (MET-IBLT, IBLT + estimator) would need a
//! request/response loop that answers `EngineMessage::Query` frames
//! instead.

use std::net::{TcpListener, TcpStream};
use std::thread;

use netsim::{ClientEngine, ServerEngine};
use reconcile_core::backends::RibltBackend;
use reconcile_core::framing::{read_frame, write_frame};
use reconcile_core::EngineMessage;
use statesync::{Chain, ChainConfig, Ledger, LedgerItem, ITEM_LEN};

const BATCH_SYMBOLS: usize = 64;

fn backend() -> RibltBackend<LedgerItem> {
    RibltBackend::new(ITEM_LEN, BATCH_SYMBOLS)
}

fn serve(listener: TcpListener, latest: Ledger) {
    let (mut conn, peer) = listener.accept().expect("accept");
    println!("[alice] replica connected from {peer}");
    let mut engine = ServerEngine::new(backend(), &latest.items());

    // Wait for the opening request, then stream coded symbols until the
    // replica signals completion (or closes the connection).
    let open = EngineMessage::from_frame(&read_frame(&mut conn).expect("open frame"))
        .expect("well-formed open");
    let mut next = engine
        .handle(&open)
        .expect("serve")
        .pop()
        .expect("first payload");
    let mut sent_batches = 0usize;
    loop {
        if write_frame(&mut conn, &next.to_frame()).is_err() {
            break; // peer closed: it decoded everything it needed
        }
        sent_batches += 1;
        // Check for a stop message without blocking the stream.
        conn.set_nonblocking(true).unwrap();
        if let Ok(frame) = read_frame(&mut conn) {
            if let Ok(msg @ EngineMessage::Done) = EngineMessage::from_frame(&frame) {
                engine.handle(&msg).expect("done");
                println!(
                    "[alice] replica signalled completion after {} coded symbols",
                    sent_batches * BATCH_SYMBOLS
                );
                break;
            }
        }
        conn.set_nonblocking(false).unwrap();
        next = engine.next_payload().expect("stream");
    }
}

fn main() {
    // Build the chain: genesis plus 50 blocks of churn.
    let chain = Chain::generate(
        ChainConfig {
            genesis_accounts: 20_000,
            ..ChainConfig::laptop_scale()
        },
        50,
    );
    let latest = chain.snapshot_at(50);
    let stale = chain.snapshot_at(0);
    let expected_root = latest.to_trie().root();
    println!(
        "[setup] ledger: {} accounts, stale replica is 50 blocks ({} item differences) behind",
        latest.len(),
        latest.item_difference(&stale)
    );

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let server_latest = latest.clone();
    let server = thread::spawn(move || serve(listener, server_latest));

    // --- Bob, the stale replica -------------------------------------------
    let mut conn = TcpStream::connect(addr).expect("connect");
    let mut engine = ClientEngine::new(backend(), &stale.items());
    write_frame(&mut conn, &engine.open().to_frame()).unwrap();
    let mut received_bytes = 0usize;
    while !engine.is_done() {
        let frame = read_frame(&mut conn).expect("coded symbol batch");
        received_bytes += frame.len();
        let payload = EngineMessage::from_frame(&frame).expect("well-formed payload");
        if let Some(reply) = engine.handle(&payload).expect("absorb") {
            let _ = write_frame(&mut conn, &reply.to_frame());
        }
    }
    let received_symbols = engine.units();
    drop(conn);

    let diff = engine.into_difference().expect("complete difference");
    let mut updated = stale.clone();
    updated.apply_items(&diff.remote_only);
    let new_root = updated.to_trie().root();
    println!(
        "[bob] decoded {} differences from {received_symbols} coded symbols ({received_bytes} bytes)",
        diff.len()
    );
    println!(
        "[bob] ledger root after sync matches the network: {}",
        new_root == expected_root
    );
    assert_eq!(new_root, expected_root, "synchronized ledger must match");
    let _ = server.join();
}
