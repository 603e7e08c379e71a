//! Two distinct items planted with one keyed hash share every index, so no
//! cell ever holds one of them alone and no number of cells decodes them. A
//! decoder (or a sketch) that stops there must say so with
//! `Error::CollidingItems`; an honest stream cut short still reads
//! `Error::DecodeIncomplete`.

use riblt::{Decoder, Encoder, Error, FixedBytes, HashedSymbol, Sketch, Symbol};
use riblt_hash::SipKey;

type Item = FixedBytes<8>;

const SHARED: u64 = 1_000;
const TILE: usize = 32;
/// Far past the ≈ 1.35 × 3 cells an honest three-item difference needs.
const CELLS: usize = 2_048;

/// Where the planted pair sits.
#[derive(Debug, Clone, Copy)]
enum Pair {
    /// Both items on the server's side.
    OneSide,
    /// One item on each side.
    Split,
}

/// An encoder and a decoder over `SHARED` common items. The server also
/// holds an honest item and `x`'s twin, a distinct item planted with `x`'s
/// hash; `x` sits with its twin or on the client's side.
fn planted(pair: Pair) -> (Encoder<Item>, Decoder<Item>) {
    let key = SipKey::default();
    let mut encoder = Encoder::<Item>::with_key(key);
    let mut decoder = Decoder::<Item>::with_key(key);
    for i in 0..SHARED {
        encoder.add_symbol(Item::from_u64(i)).unwrap();
        decoder.add_symbol(Item::from_u64(i)).unwrap();
    }
    let (x, twin) = (Item::from_u64(1 << 40), Item::from_u64((1 << 40) + 1));
    let hash = x.hash_with(key);
    assert_ne!(twin.hash_with(key), hash);
    encoder.add_symbol(Item::from_u64(1 << 41)).unwrap();
    encoder
        .add_hashed_symbol(HashedSymbol::with_hash(twin, hash))
        .unwrap();
    match pair {
        Pair::OneSide => encoder.add_symbol(x).unwrap(),
        Pair::Split => decoder.add_symbol(x).unwrap(),
    }
    (encoder, decoder)
}

#[test]
fn a_decoder_that_stalls_on_two_items_with_one_hash_reports_colliding_items() {
    for pair in [Pair::OneSide, Pair::Split] {
        let (mut encoder, mut decoder) = planted(pair);
        while decoder.coded_symbols_received() < CELLS {
            decoder.add_coded_symbols(encoder.produce_coded_symbols(TILE));
        }
        assert!(!decoder.is_decoded(), "{pair:?}");
        assert_eq!(decoder.check_consistent(), Ok(()), "{pair:?}");
        // The honest item came out; the pair never can.
        assert_eq!(decoder.recovered_count(), 1, "{pair:?}");
        assert_eq!(
            decoder.try_into_difference(),
            Err(Error::CollidingItems),
            "{pair:?}"
        );
    }
}

#[test]
fn a_sketch_that_stalls_on_two_items_with_one_hash_reports_colliding_items() {
    for pair in [Pair::OneSide, Pair::Split] {
        let (mut server, _) = planted(pair);
        let mut client = Encoder::<Item>::with_key(SipKey::default());
        for i in 0..SHARED {
            client.add_symbol(Item::from_u64(i)).unwrap();
        }
        if let Pair::Split = pair {
            client.add_symbol(Item::from_u64(1 << 40)).unwrap();
        }
        let sketch = |encoder: &mut Encoder<Item>| {
            let cells = encoder.produce_coded_symbols(64);
            Sketch::from_cells(cells, SipKey::default(), riblt::DEFAULT_ALPHA)
        };
        let difference = sketch(&mut server)
            .subtracted(&sketch(&mut client))
            .unwrap();
        assert_eq!(difference.decode(), Err(Error::CollidingItems), "{pair:?}");
    }
}

#[test]
fn an_honest_stream_cut_short_still_reads_decode_incomplete() {
    let key = SipKey::default();
    let mut encoder = Encoder::<Item>::with_key(key);
    let mut decoder = Decoder::<Item>::with_key(key);
    for i in 0..SHARED {
        encoder.add_symbol(Item::from_u64(i)).unwrap();
        decoder.add_symbol(Item::from_u64(i)).unwrap();
    }
    for i in 0..300 {
        encoder.add_symbol(Item::from_u64((1 << 40) + i)).unwrap();
    }
    decoder.add_coded_symbols(encoder.produce_coded_symbols(3 * TILE));
    assert!(!decoder.is_decoded());
    assert_eq!(decoder.try_into_difference(), Err(Error::DecodeIncomplete));
    // 300 differences in 64 cells: the sketch is too short.
    let mut sketch = Sketch::<Item>::new(64);
    for i in 0..300 {
        sketch.add_symbol(&Item::from_u64((1 << 40) + i));
    }
    assert_eq!(sketch.decode(), Err(Error::DecodeIncomplete));
}
