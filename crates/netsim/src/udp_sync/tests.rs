//! `cluster::sync_sharded_udp` and the stream client against the same
//! canned server hellos: the stream side needs the flight link.

use std::io;
use std::time::Duration;

use cluster::{sync_sharded_udp, DatagramConduit, UdpSyncConfig};
use reconcile_core::backends::RibltBackend;
use reconcile_core::datagram::{DatagramHeader, DatagramKind};
use reconcile_core::handshake::Hello;
use reconcile_core::EngineError;
use riblt::FixedBytes;
use riblt_hash::SipKey;

use crate::FlightLink;

type Item = FixedBytes<8>;

/// One definition of an acceptable server hello
/// (`handshake::validate_server_hello`): the datagram client reading a
/// `HelloAck` and the stream client reading a hello frame refuse the
/// same hellos, in the same words.
#[test]
fn both_transports_refuse_a_bad_server_hello_in_the_same_words() {
    /// Answers whatever it is sent with a `HelloAck` carrying the hello.
    struct Acks(Hello);
    impl DatagramConduit for Acks {
        fn send(&mut self, _: &[u8]) -> io::Result<()> {
            Ok(())
        }
        fn recv(&mut self, _: Duration) -> io::Result<Option<Vec<u8>>> {
            let header = DatagramHeader {
                kind: DatagramKind::HelloAck,
                cookie: 7,
                shard: 0,
                seq: 0,
            };
            Ok(Some(header.encode(&self.0.to_bytes())))
        }
    }
    let key = SipKey::new(3, 4);
    let good = Hello::new(key, 4, 8);
    let (version, fingerprint) = (good.version + 1, !good.fingerprint);
    for bad in [
        Hello { version, ..good },
        Hello {
            fingerprint,
            ..good
        },
        Hello {
            symbol_len: 16,
            ..good
        },
        Hello { shards: 0, ..good },
    ] {
        let over_udp = sync_sharded_udp(
            &mut Acks(bad),
            &[] as &[Item],
            |_| RibltBackend::<Item>::new(8, 32),
            &UdpSyncConfig {
                key,
                ..Default::default()
            },
        )
        .unwrap_err();
        let mut link =
            FlightLink::new(move |_, out| Ok(reconcile_core::append_frame(out, &bad.to_bytes())?));
        let over_tcp = reconcile_core::sync_sharded_tcp(
            &mut link,
            &[] as &[Item],
            |_| RibltBackend::<Item>::new(8, 32),
            &reconcile_core::TcpSyncConfig {
                key,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(over_udp, EngineError::Handshake(_)), "{over_udp}");
        assert_eq!(over_udp, over_tcp, "{bad:?}");
    }
}
