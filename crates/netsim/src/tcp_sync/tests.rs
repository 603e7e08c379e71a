//! `reconcile_core::sync_sharded_tcp` against the library's server
//! ([`crate::library_server`]) and canned replies, over links that count
//! flights.

use reconcile_core::backends::RibltBackend;
use reconcile_core::handshake::Hello;
use reconcile_core::{
    append_frame, read_mux_frame, sync_sharded_tcp, CountSketch, EngineError, EngineMessage,
    MuxFrame, RangeRequest, ReconcileBackend, SessionId, SetDifference, ShardPartitioner,
    TcpSyncConfig, SHARD_ALL,
};
use riblt::wire::SymbolCodec;
use riblt::{Encoder, FixedBytes, HashedSymbol, Symbol};
use riblt_hash::SipKey;

use crate::{library_server, run_in_memory, FlightLink};

/// The session `sync_sharded_tcp` tags every frame of a sync with.
const SESSION: SessionId = 1;

type Item = FixedBytes<8>;

fn items(range: std::ops::Range<u64>) -> Vec<Item> {
    range.map(Item::from_u64).collect()
}

const FLIGHT_SHARDS: u16 = 8;
const FLIGHT_TILE: usize = 32;

fn flight_backend() -> RibltBackend<Item> {
    RibltBackend::new(8, FLIGHT_TILE)
}

/// The library's server over `server_items`, behind a link that counts
/// flights: `shards` shards of `backend`'s tiles, under its key, and
/// the daemon's default unit budget.
fn library(backend: RibltBackend<Item>, server_items: &[Item], shards: u16) -> FlightLink {
    let hello = Hello::new(backend.key, shards, 8);
    library_server(backend, server_items, hello, 1 << 20)
}

fn link_to(server_items: &[Item]) -> FlightLink {
    library(flight_backend(), server_items, FLIGHT_SHARDS)
}

/// The mux frames behind the hello in a client's transcript.
fn frames_after_hello(mut sent: &[u8]) -> Vec<MuxFrame> {
    reconcile_core::read_frame(&mut sent).unwrap();
    std::iter::from_fn(|| read_mux_frame(&mut sent).ok()).collect()
}

/// The range requests of a client's transcript, by shard.
fn requests(sent: &[u8], shards: u16) -> Vec<Vec<RangeRequest>> {
    let mut by_shard = vec![Vec::new(); usize::from(shards)];
    for frame in frames_after_hello(sent) {
        if let EngineMessage::Request(range) = frame.message {
            by_shard[usize::from(frame.shard)].push(range);
        }
    }
    by_shard
}

#[test]
fn a_hostile_grant_costs_the_client_only_what_it_was_sent() {
    // A valid hello announcing 65,535 shards, then a grant of 16,384
    // one-symbol tiles a shard: a billion payloads owed, in two short
    // frames, and then the server hangs up.
    let mut reply = Vec::new();
    let hello = Hello::new(SipKey::default(), u16::MAX, 8);
    append_frame(&mut reply, &hello.to_bytes()).unwrap();
    let grant = RangeRequest {
        offset: 1,
        count: 16_384,
    };
    let grant = MuxFrame::new(SESSION, SHARD_ALL, EngineMessage::Request(grant));
    append_frame(&mut reply, &grant.to_bytes()).unwrap();
    let mut link = FlightLink::new(move |_flight, out| {
        out.extend_from_slice(&reply);
        Err(EngineError::Protocol("a canned reply"))
    });
    let err = sync_sharded_tcp(
        &mut link,
        &items(0..100),
        |_| flight_backend(),
        &TcpSyncConfig::default(),
    )
    .unwrap_err();
    assert!(
        matches!(err, EngineError::Io(std::io::ErrorKind::UnexpectedEof, _)),
        "{err}"
    );
}

#[test]
fn a_repeated_tile_fails_the_sync_at_once() {
    // A valid hello (one shard) and a grant of one tile beyond the open's,
    // then the shard's first tile twice where tiles 0 and 1 were owed.
    // Peeled as tile 1, its cells would burn the unit budget on garbage.
    let backend = flight_backend();
    let server_items = items(0..3_000);
    let tile = backend
        .serve(&mut backend.build_server(&server_items), None)
        .unwrap();
    let mut reply = Vec::new();
    append_frame(&mut reply, &Hello::new(backend.key, 1, 8).to_bytes()).unwrap();
    let grant = RangeRequest::new(FLIGHT_TILE, FLIGHT_TILE).unwrap();
    for message in [
        EngineMessage::Request(grant),
        EngineMessage::Payload(tile.clone()),
        EngineMessage::Payload(tile),
    ] {
        let shard = if let EngineMessage::Request(_) = message {
            SHARD_ALL
        } else {
            0
        };
        append_frame(
            &mut reply,
            &MuxFrame::new(SESSION, shard, message).to_bytes(),
        )
        .unwrap();
    }
    let mut link = FlightLink::new(move |_flight, out| {
        out.extend_from_slice(&reply);
        Err(EngineError::Protocol("a canned reply"))
    });
    let err = sync_sharded_tcp(
        &mut link,
        &items(100..3_000),
        |_| flight_backend(),
        &TcpSyncConfig::default(),
    )
    .unwrap_err();
    assert_eq!(err, EngineError::Protocol("payload out of sequence"));
    // The typed error, in the handshake's flight: no request went out.
    assert_eq!(link.flights, 1);
    assert_eq!(frames_after_hello(&link.sent).len(), 1);
}

#[test]
fn a_difference_within_the_first_tiles_takes_one_flight() {
    // 20 differences over 8 shards: the sketch's d̂ ≈ 20 puts 2.5 on a
    // shard, whose first flight (1.35 × 2.5 + 2·√2.5 = 6.5 symbols) is
    // one tile — the grant is [32, 32) — and every shard's first 32
    // symbols decode.
    let mut link = link_to(&items(0..3_000));
    let (diffs, outcome) = sync_sharded_tcp(
        &mut link,
        &items(12..3_008),
        |_| flight_backend(),
        &TcpSyncConfig::default(),
    )
    .unwrap();
    assert_eq!(diffs.iter().map(SetDifference::len).sum::<usize>(), 20);
    assert_eq!(link.flights, 1, "first data rides the handshake's flight");
    assert_eq!(outcome.rounds, 0);
    assert!(outcome.units <= usize::from(FLIGHT_SHARDS) * FLIGHT_TILE);
    assert_eq!(outcome.bytes_sent, link.sent.len());
    // One wildcard open, then a Done per shard; nothing else.
    let frames = frames_after_hello(&link.sent);
    assert_eq!(frames.len(), 1 + usize::from(FLIGHT_SHARDS));
    assert_eq!(frames[0].shard, SHARD_ALL);
    assert!(frames[1..].iter().all(|f| f.message == EngineMessage::Done));
}

#[test]
fn the_sketched_wildcard_saves_three_flights_and_changes_nothing_else() {
    let server_items = items(0..20_000);
    let local = items(1_000..21_000); // d = 2,000, half on each side

    // The point-to-point reference: each shard's stream, pushed one tile
    // at a time to a client that never asks.
    let partitioner = ShardPartitioner::new(SipKey::default(), FLIGHT_SHARDS);
    let (expected, expected_units): (Vec<_>, Vec<_>) = partitioner
        .partition(&server_items)
        .iter()
        .zip(&partitioner.partition(&local))
        .map(|(server, client)| {
            let run = run_in_memory(flight_backend(), server, client, usize::MAX).unwrap();
            (run.difference, run.units)
        })
        .unzip();

    let mut link = link_to(&server_items);
    let config = TcpSyncConfig {
        threads: 1,
        ..Default::default()
    };
    let (diffs, outcome) =
        sync_sharded_tcp(&mut link, &local, |_| flight_backend(), &config).unwrap();

    // Every decoder consumed the same prefix, tile for tile.
    assert_eq!(diffs, expected, "same differences, item for item");
    assert_eq!(diffs.iter().map(SetDifference::len).sum::<usize>(), 2_000);
    assert_eq!(outcome.units, expected_units.iter().sum::<usize>());

    // The sketch's estimate, 2,074.1 (2,000 ± 9 %), is 259.3 a shard,
    // whose first rung and margin, 1.35 × 259.3 + 2·√259.3 = 350.0 +
    // 32.2 = 382.2, are 12 tiles: the server grants [32, 384) and sends
    // every shard 384 symbols in the handshake's flight.
    let sketch =
        |set: &[Item]| CountSketch::from_hashes(&Item::hash_many_with(set, SipKey::default()));
    let estimate = sketch(&local).estimate_difference(&sketch(&server_items));
    assert_eq!(format!("{estimate:.1}"), "2074.1");
    let mut said = &link.received[..];
    reconcile_core::read_frame(&mut said).unwrap();
    let grant = read_mux_frame(&mut said).unwrap().message;
    assert_eq!(
        grant,
        EngineMessage::Request(RangeRequest::new(32, 352).unwrap())
    );
    assert_eq!(
        symbols_sent(&link.received, FLIGHT_SHARDS, FLIGHT_TILE),
        vec![384; usize::from(FLIGHT_SHARDS)]
    );
    // Every shard decodes within it (at 332–381 symbols): no request at
    // all, one flight where opening shard by shard (a flight for the
    // hellos, one for the opens, two rounds) took 4.
    assert!(requests(&link.sent, FLIGHT_SHARDS)
        .iter()
        .all(Vec::is_empty));
    assert_eq!((link.flights, outcome.rounds), (1, 0));
}

#[test]
fn adopts_the_server_shard_count_whatever_it_proposes() {
    let key = SipKey::new(5, 6);
    let backend = RibltBackend::<Item>::with_key_and_alpha(8, 16, key, riblt::DEFAULT_ALPHA);
    let mut link = library(backend.clone(), &items(0..3_000), 8);
    let config = TcpSyncConfig {
        key,
        ..Default::default()
    };
    let (diffs, outcome) =
        sync_sharded_tcp(&mut link, &items(40..3_015), |_| backend.clone(), &config).unwrap();

    assert_eq!(outcome.shards, 8);
    assert_eq!(diffs.len(), 8);
    let remote: usize = diffs.iter().map(|d| d.remote_only.len()).sum();
    let local_only: usize = diffs.iter().map(|d| d.local_only.len()).sum();
    assert_eq!(remote, 40);
    assert_eq!(local_only, 15);
    assert!(outcome.units > 0);
    assert!(outcome.bytes_received > outcome.bytes_sent);
}

/// The coded symbols a server sent each of `shards` shards, in
/// `tile`-symbol payloads, from everything it said.
fn symbols_sent(mut said: &[u8], shards: u16, tile: usize) -> Vec<usize> {
    reconcile_core::read_frame(&mut said).unwrap();
    let mut sent = vec![0; usize::from(shards)];
    while let Ok(frame) = read_mux_frame(&mut said) {
        if let EngineMessage::Payload(_) = frame.message {
            sent[usize::from(frame.shard)] += tile;
        }
    }
    sent
}

#[test]
fn unit_budget_bounds_what_a_wedged_shard_is_sent() {
    // A client whose mapping parameter differs from the server's can
    // never decode. The budget caps what it asks for, not what it has
    // already been sent: every shard stops within one batch of it.
    let key = SipKey::new(9, 9);
    let server = RibltBackend::<Item>::with_key_and_alpha(8, 16, key, riblt::DEFAULT_ALPHA);
    let mut link = library(server, &items(0..2_000), 4);
    let budget = 200;
    let config = TcpSyncConfig {
        key,
        max_units_per_shard: budget,
        ..Default::default()
    };
    let err = sync_sharded_tcp(
        &mut link,
        &items(300..2_000),
        |_| RibltBackend::<Item>::with_key_and_alpha(8, 16, key, 0.3),
        &config,
    )
    .unwrap_err();
    assert!(matches!(err, EngineError::DecodeIncomplete), "{err}");
    // The first flight counts: the sketch's 321.7 of the 300
    // differences sized it at 8 tiles (1.35 × 80.4 + 2·√80.4 = 126.5 →
    // 128 symbols), and the asks after it stop at the tile holding 200.
    for (shard, sent) in symbols_sent(&link.received, 4, 16).into_iter().enumerate() {
        assert!(sent > 16, "shard {shard} never got past its open");
        assert!(sent < budget + 16, "shard {shard} was sent {sent}");
    }
}

#[test]
fn a_first_flight_beyond_the_budget_is_read_and_nothing_more_is_asked() {
    // The first flight is the server's to size, under its own budget:
    // the client's caps what the client asks for, and a grant already
    // past it leaves nothing to ask. 1,200 differences over 4 shards
    // put the first rung far past a budget of 64 symbols.
    let key = SipKey::new(9, 9);
    let server = RibltBackend::<Item>::with_key_and_alpha(8, 16, key, riblt::DEFAULT_ALPHA);
    let mut link = library(server, &items(0..2_000), 4);
    let budget = 64;
    let config = TcpSyncConfig {
        key,
        max_units_per_shard: budget,
        ..Default::default()
    };
    let err = sync_sharded_tcp(
        &mut link,
        &items(600..2_600),
        |_| RibltBackend::<Item>::with_key_and_alpha(8, 16, key, 0.3),
        &config,
    )
    .unwrap_err();
    assert!(matches!(err, EngineError::DecodeIncomplete), "{err}");
    let mut said = &link.received[..];
    reconcile_core::read_frame(&mut said).unwrap();
    let EngineMessage::Request(grant) = read_mux_frame(&mut said).unwrap().message else {
        panic!("the grant leads the payloads");
    };
    let granted = grant.offset as usize + usize::from(grant.count);
    assert!(granted > budget + 16, "granted {granted}");
    // Every shard was sent the grant and asked for nothing: the sync
    // ended in the handshake's flight.
    assert_eq!(symbols_sent(&link.received, 4, 16), vec![granted; 4]);
    assert!(requests(&link.sent, 4).iter().all(Vec::is_empty));
    assert_eq!(link.flights, 1);
}

#[test]
fn key_mismatch_fails_the_handshake_not_the_decode() {
    let server = RibltBackend::<Item>::with_key_and_alpha(8, 16, SipKey::new(1, 1), 0.5);
    let mut link = library(server, &[], 4);
    let config = TcpSyncConfig {
        key: SipKey::new(2, 2),
        ..Default::default()
    };
    let err = sync_sharded_tcp(
        &mut link,
        &items(0..10),
        |_| RibltBackend::<Item>::new(8, 16),
        &config,
    )
    .unwrap_err();
    assert!(matches!(err, EngineError::Handshake(_)), "{err}");
    // The server refused the hello and said why before it hung up.
    assert!(matches!(link.hung_up, Some(EngineError::Handshake(_))));
}

/// A one-shard server of `encoder`'s stream under the default key: the
/// hello, a first flight of one tile, and every tile a range asks for, out
/// of the first `cells` coded symbols.
fn canned_stream(mut encoder: Encoder<Item>, cells: usize) -> FlightLink {
    let codec = SymbolCodec::with_alpha(8, encoder.len() as u64, riblt::DEFAULT_ALPHA);
    let cells = encoder.produce_coded_symbols(cells);
    let tile = move |start: usize| {
        let payload = codec.encode_batch(&cells[start..start + FLIGHT_TILE], start as u64);
        EngineMessage::Payload(payload)
    };
    let hello = Hello::new(SipKey::default(), 1, 8);
    FlightLink::handshaking(hello, move |frame, out| {
        let mut reply =
            |shard, message| append_frame(out, &MuxFrame::new(SESSION, shard, message).to_bytes());
        match MuxFrame::from_bytes(frame)?.message {
            EngineMessage::Open(_) => {
                let grant = RangeRequest::new(FLIGHT_TILE, 0)?;
                reply(SHARD_ALL, EngineMessage::Request(grant))?;
                reply(0, tile(0))?;
            }
            EngineMessage::Request(range) => {
                let start = range.offset as usize;
                let end = start + usize::from(range.count);
                for at in (start..end).step_by(FLIGHT_TILE) {
                    reply(0, tile(at))?;
                }
            }
            _ => {}
        }
        Ok(())
    })
}

#[test]
fn a_sync_that_stalls_on_two_items_with_one_hash_reports_colliding_items() {
    // 1,000 shared items, an honest one on the server, and `x`'s twin, a
    // distinct item the server holds under `x`'s keyed hash; `x` sits with
    // its twin or on the client. The pair shares every cell, so the sync
    // stops at its budget, and says why.
    let key = SipKey::default();
    let budget = 1_024;
    let (x, twin) = (Item::from_u64(1 << 40), Item::from_u64((1 << 40) + 1));
    for split in [false, true] {
        let mut server = Encoder::<Item>::with_key(key);
        let mut local = items(0..1_000);
        for item in &local {
            server.add_symbol(*item).unwrap();
        }
        server.add_symbol(Item::from_u64(1 << 41)).unwrap();
        server
            .add_hashed_symbol(HashedSymbol::with_hash(twin, x.hash_with(key)))
            .unwrap();
        if split {
            local.push(x);
        } else {
            server.add_symbol(x).unwrap();
        }
        let mut link = canned_stream(server, 2 * budget);
        let config = TcpSyncConfig {
            threads: 1,
            max_units_per_shard: budget,
            ..Default::default()
        };
        let err = sync_sharded_tcp(&mut link, &local, |_| flight_backend(), &config).unwrap_err();
        assert_eq!(err, EngineError::CollidingItems, "split {split}");
    }

    // An honest stream cut short by the same client still reads as one:
    // 600 differences do not fit 64 symbols.
    let mut server = Encoder::<Item>::with_key(key);
    for item in items(0..1_600) {
        server.add_symbol(item).unwrap();
    }
    let mut link = canned_stream(server, 128);
    let config = TcpSyncConfig {
        threads: 1,
        max_units_per_shard: 64,
        ..Default::default()
    };
    let err =
        sync_sharded_tcp(&mut link, &items(0..1_000), |_| flight_backend(), &config).unwrap_err();
    assert_eq!(err, EngineError::DecodeIncomplete);
}
