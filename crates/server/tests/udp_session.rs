//! The UDP transport against a live daemon over real loopback sockets:
//! a clean sync, injected loss, hostile datagrams
//! (truncated, duplicated, oversized, mis-cookied), and idle-session
//! expiry. The datagram-layer edge cases themselves (sequencer reordering,
//! MTU boundaries, cookie binding) are unit-tested in
//! `reconcile_core::datagram`; here the assertion is that none of them
//! wedge a real daemon.

use std::net::UdpSocket;
use std::time::{Duration, Instant};

use reconcile_core::backends::RibltBackend;
use reconcile_core::datagram::{
    client_hello_payload, DatagramHeader, DatagramKind, DATAGRAM_HEADER_BYTES,
};
use reconcile_core::handshake::Hello;
use riblt::FixedBytes;
use riblt_hash::SipKey;
use server::{Daemon, DaemonConfig};
use statesync::{sync_sharded_udp, DatagramConduit, LossyConduit, UdpSyncConfig, UdpSyncOutcome};

type Item = FixedBytes<8>;

fn items(range: std::ops::Range<u64>) -> Vec<Item> {
    range.map(Item::from_u64).collect()
}

fn udp_daemon(read_timeout: Duration) -> Daemon<Item> {
    Daemon::spawn(
        DaemonConfig {
            shards: 4,
            read_timeout,
            write_timeout: Duration::from_secs(5),
            udp_listen: Some("127.0.0.1:0".into()),
            ..Default::default()
        },
        items(0..2_000),
    )
    .unwrap()
}

fn dial(daemon: &Daemon<Item>) -> UdpSocket {
    let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    socket
        .connect(daemon.udp_addr().expect("udp enabled"))
        .unwrap();
    socket
}

fn sync<C: DatagramConduit>(
    conduit: &mut C,
    local: &[Item],
    nonce: u64,
) -> reconcile_core::Result<(Vec<riblt::SetDifference<Item>>, UdpSyncOutcome)> {
    let key = SipKey::default();
    sync_sharded_udp(
        conduit,
        local,
        |_| RibltBackend::<Item>::with_key_and_alpha(8, 32, key, riblt::DEFAULT_ALPHA),
        &UdpSyncConfig {
            key,
            nonce,
            deadline: Duration::from_secs(15),
            ..Default::default()
        },
    )
}

#[test]
fn syncs_over_real_loopback_udp_reactor() {
    let daemon = udp_daemon(Duration::from_secs(5));
    let mut socket = dial(&daemon);
    let (diffs, outcome) = sync(&mut socket, &items(80..2_040), 11).unwrap();
    assert_eq!(outcome.shards, 4);
    let remote: usize = diffs.iter().map(|d| d.remote_only.len()).sum();
    let local_only: usize = diffs.iter().map(|d| d.local_only.len()).sum();
    assert_eq!(remote, 80);
    assert_eq!(local_only, 40);

    let metrics = daemon.metrics();
    assert!(metrics.udp_datagrams_in.get() > 0);
    assert!(metrics.udp_datagrams_out.get() > 0);
    assert_eq!(metrics.udp_sessions_opened.get(), 1);
    // Done is fire-and-forget on the client, so give the daemon a beat to
    // process it; on loopback the two Done datagrams do land.
    let deadline = Instant::now() + Duration::from_secs(5);
    while metrics.sessions_completed.get() == 0 {
        assert!(
            Instant::now() < deadline,
            "Done datagrams never completed the session"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(metrics.sessions_completed.get(), 1);
    daemon.shutdown();
}

#[test]
fn injected_loss_on_loopback_costs_symbols_not_completion() {
    let daemon = udp_daemon(Duration::from_secs(5));
    let clean_units = {
        let mut socket = dial(&daemon);
        sync(&mut socket, &items(50..2_000), 21).unwrap().1.units
    };
    // 10% loss in both directions over the kernel's otherwise-lossless
    // loopback path.
    let mut lossy = LossyConduit::new(dial(&daemon), 0.10, 77);
    let (diffs, outcome) = sync(&mut lossy, &items(50..2_000), 22).unwrap();
    let remote: usize = diffs.iter().map(|d| d.remote_only.len()).sum();
    assert_eq!(remote, 50);
    // Loss is healed by re-requesting ranges; consumed units stay in the
    // same regime as the clean run (any prefix is useful, so nothing is
    // decoded twice), while retransmits/stale batches absorb the damage.
    assert!(
        outcome.units < clean_units * 3 + 64,
        "loss inflated units {} vs clean {clean_units}",
        outcome.units
    );
    daemon.shutdown();
}

#[test]
fn hostile_datagrams_do_not_wedge_the_daemon() {
    let daemon = udp_daemon(Duration::from_secs(5));
    let probe = dial(&daemon);
    let hello = Hello::new(SipKey::default(), 0, 8);
    let hello_datagram = DatagramHeader {
        kind: DatagramKind::Hello,
        cookie: 0,
        shard: 0,
        seq: 0,
    }
    .encode(&client_hello_payload(&hello, 5));

    // Truncated mid-header, bare magic, garbage, duplicated hellos, a
    // request with a bogus cookie, and an oversized datagram.
    probe
        .send(&hello_datagram[..DATAGRAM_HEADER_BYTES - 7])
        .unwrap();
    probe.send(b"RCLU").unwrap();
    probe.send(&[0xffu8; 64]).unwrap();
    probe.send(&hello_datagram).unwrap();
    probe.send(&hello_datagram).unwrap();
    let bogus_request = DatagramHeader {
        kind: DatagramKind::Request,
        cookie: 0xdead_beef,
        shard: 0,
        seq: 0,
    }
    .encode(&[64, 0]);
    probe.send(&bogus_request).unwrap();
    probe.send(&vec![0u8; 9_000]).unwrap();

    // The daemon answers the duplicated hellos with (identical) acks and
    // drops everything else; a real sync on a fresh socket still works.
    let mut socket = dial(&daemon);
    let (diffs, _) = sync(&mut socket, &items(10..2_000), 31).unwrap();
    let remote: usize = diffs.iter().map(|d| d.remote_only.len()).sum();
    assert_eq!(remote, 10);
    daemon.shutdown();
}

#[test]
fn abandoned_udp_sessions_expire_on_the_idle_sweep() {
    let daemon = udp_daemon(Duration::from_millis(200));
    let probe = dial(&daemon);
    let hello = Hello::new(SipKey::default(), 0, 8);
    let hello_datagram = DatagramHeader {
        kind: DatagramKind::Hello,
        cookie: 0,
        shard: 0,
        seq: 0,
    }
    .encode(&client_hello_payload(&hello, 99));
    probe.send(&hello_datagram).unwrap();

    // Session opens, then the client walks away; the sweep (every 500ms,
    // idle bound = read_timeout) must retire it.
    let deadline = Instant::now() + Duration::from_secs(5);
    while daemon.metrics().udp_sessions_expired.get() == 0 {
        assert!(
            Instant::now() < deadline,
            "abandoned UDP session was never swept"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(daemon.metrics().udp_sessions_opened.get(), 1);
    daemon.shutdown();
}
