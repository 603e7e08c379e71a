//! Slow-peer isolation: a peer draining its replies at 1 byte per 100 ms
//! must pause only itself. The serve-batch latency histogram — which
//! covers cache lookup/encode plus frame assembly, never the socket write
//! — must keep a fast p99 for the rest of the fleet, and the slow peer's
//! stall must show up as backpressure pauses, not as connection errors or
//! encode-path delays.

use std::io::Read;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use reconcile_core::backends::{RibltBackend, RIBLT_STREAM_MAGIC};
use reconcile_core::handshake::Hello;
use reconcile_core::wirefmt::encode_stream_open;
use reconcile_core::{client_handshake, write_frame, EngineMessage, MuxFrame, RangeRequest};
use riblt::FixedBytes;
use riblt_hash::SipKey;
use server::{Daemon, DaemonConfig};
use statesync::{sync_sharded_tcp, TcpSyncConfig};

type Item = FixedBytes<8>;

#[test]
fn slow_reader_does_not_delay_fast_peers() {
    let key = SipKey::default();
    // A small write-buffer high-water mark (one ~600 B batch frame crosses
    // 512 B) makes the slow peer hit backpressure almost immediately.
    let daemon: Daemon<Item> = Daemon::spawn(
        DaemonConfig {
            shards: 2,
            batch_symbols: 32,
            max_write_buffer: 512,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            ..Default::default()
        },
        (0..4_000u64).map(Item::from_u64),
    )
    .unwrap();
    let addr = daemon.data_addr();

    // --- The slow peer: handshake, open a stream, demand 64 more batches ---
    // in two-tile ranges, but drain the replies one byte per 100 ms.
    let mut slow = TcpStream::connect(addr).unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    client_handshake(&mut slow, &Hello::new(key, 0, 8)).expect("slow peer handshake");
    let open = MuxFrame::new(
        1,
        0,
        EngineMessage::Open(encode_stream_open(RIBLT_STREAM_MAGIC, 8)),
    );
    write_frame(&mut slow, &open.to_bytes()).unwrap();
    for request in 0..32 {
        let range = RangeRequest {
            offset: 32 + request * 64,
            count: 64,
        };
        let more = MuxFrame::new(1, 0, EngineMessage::Request(range));
        write_frame(&mut slow, &more.to_bytes()).unwrap();
    }

    let stop = Arc::new(AtomicBool::new(false));
    let stop_reader = Arc::clone(&stop);
    let mut slow_reader_half = slow.try_clone().unwrap();
    let trickler = thread::Builder::new()
        .name("trickle-reader".into())
        .spawn(move || {
            let mut byte = [0u8; 1];
            let mut drained = 0usize;
            while !stop_reader.load(Ordering::Relaxed) {
                match slow_reader_half.read(&mut byte) {
                    Ok(0) => break,
                    Ok(_) => drained += 1,
                    Err(_) => break,
                }
                thread::sleep(Duration::from_millis(100));
            }
            drained
        })
        .unwrap();

    // --- The fast fleet: back-to-back full reconciliations while the ---
    // slow peer is stalled, all of which must stay snappy.
    let t0 = Instant::now();
    let mut fast_syncs = 0usize;
    while t0.elapsed() < Duration::from_secs(3) {
        let local: Vec<Item> = (64..4_032u64).map(Item::from_u64).collect();
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let (diffs, _) = sync_sharded_tcp(
            &mut conn,
            &local,
            |_| RibltBackend::<Item>::with_key_and_alpha(8, 32, key, riblt::DEFAULT_ALPHA),
            &TcpSyncConfig {
                key,
                threads: 1,
                ..Default::default()
            },
        )
        .expect("fast sync while a peer is stalled");
        let recovered: usize = diffs
            .iter()
            .map(|d| d.remote_only.len() + d.local_only.len())
            .sum();
        assert_eq!(recovered, 64 + 32);
        fast_syncs += 1;
    }
    assert!(
        fast_syncs >= 3,
        "only {fast_syncs} fast syncs completed in 3s — the fleet is stalled"
    );

    // The slow peer tripped backpressure (its unread replies crossed the
    // high-water mark) and is still a live connection, not an error.
    let metrics = daemon.metrics();
    assert!(
        metrics.backpressure_pauses.get() >= 1,
        "slow peer never crossed the write-buffer high-water mark"
    );
    assert_eq!(
        daemon.stats().connection_errors,
        0,
        "a merely slow peer must not be counted as a connection error"
    );

    // The regression assertion: serve-batch p99 covers every batch
    // produced for the whole fleet, slow peer included. If the slow
    // peer's socket write leaked into the span — or its stall blocked the
    // encode path — p99 would sit at the 100 ms-per-byte trickle. Keep a
    // debug-build-generous bound that is still two orders of magnitude
    // below the trickle.
    let serve = metrics.serve_batch_seconds.snapshot();
    assert!(serve.count > 0, "no serve-batch samples recorded");
    let p99_s = serve.p99() / 1e9;
    assert!(
        p99_s < 0.050,
        "serve-batch p99 {p99_s:.4}s — slow peer is delaying batch production \
         ({} samples)",
        serve.count
    );

    stop.store(true, Ordering::Relaxed);
    drop(slow);
    let drained = trickler.join().unwrap();
    assert!(drained > 0, "slow peer never received a byte");
    daemon.shutdown();
}
