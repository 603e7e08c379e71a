//! A stream spliced from two versions of a set — what a peer reads when the
//! server's set changes between two batches of one session — must end in a
//! typed error, not in a peeling loop that allocates until the process dies.
//!
//! The splice: cells `0..64` of the sequence of a set `A`, then cells `64..`
//! of the sequence of `A ∪ {x}`. Once the real differences are peeled, `x`
//! sits alone in a late cell and is recovered as remote-only; taking it out
//! of the early cells (which never held it) leaves `−x` there, which is
//! recovered as local-only; adding that back re-creates the late cell; and so
//! on. Before the bound, each turn pushed one entry onto a recovered-symbol
//! window, inside a single `add_coded_symbol` call, until allocation failed.

use riblt::{
    CodedSymbol, Decoder, Encoder, Error, FixedBytes, IrregularClasses, MappingRule, Sketch,
    Uniform,
};

type Item = FixedBytes<32>;

const SET: u64 = 2_500;
const DIFFERENCE: u64 = 100;
const SPLICE_AT: usize = 64;
const CELLS: usize = 512;

fn item(i: u64) -> Item {
    let mut bytes = [0u8; 32];
    bytes[..8].copy_from_slice(&i.to_le_bytes());
    bytes[24..].copy_from_slice(&(!i).to_le_bytes());
    Item::from(bytes)
}

/// The server's set, with and without the item that arrives mid-session.
fn server_items(with_x: bool) -> impl Iterator<Item = Item> {
    (0..SET).chain(with_x.then_some(1 << 40)).map(item)
}

/// The client's set: `DIFFERENCE` items short of the server's.
fn client_items() -> impl Iterator<Item = Item> {
    (DIFFERENCE..SET).map(item)
}

/// `CELLS` cells: the first `SPLICE_AT` from `before`, the rest from `after`.
fn splice(before: Vec<CodedSymbol<Item>>, after: Vec<CodedSymbol<Item>>) -> Vec<CodedSymbol<Item>> {
    assert_eq!((before.len(), after.len()), (CELLS, CELLS));
    let mut cells = before;
    cells[SPLICE_AT..].clone_from_slice(&after[SPLICE_AT..]);
    cells
}

/// Feeds the spliced stream, coded under `R`, to a streaming decoder.
fn streaming_decoder_stops<R: MappingRule + Default>() {
    let stream = |with_x| {
        let mut encoder = Encoder::<Item, R>::new();
        for item in server_items(with_x) {
            encoder.add_symbol(item).unwrap();
        }
        encoder.produce_coded_symbols(CELLS)
    };
    let mut decoder = Decoder::<Item, R>::new();
    for item in client_items() {
        decoder.add_symbol(item).unwrap();
    }
    for cell in splice(stream(false), stream(true)) {
        decoder.add_coded_symbol(cell);
        assert!(decoder.recovered_count() <= decoder.coded_symbols_received());
    }
    assert_eq!(decoder.check_consistent(), Err(Error::InconsistentStream));
    assert!(!decoder.is_decoded());
    // Sticky: more cells are dropped unread, and the difference is refused.
    let received = decoder.coded_symbols_received();
    assert_eq!(decoder.add_coded_symbols(vec![CodedSymbol::new(); 4]), 0);
    assert_eq!(decoder.coded_symbols_received(), received);
    assert_eq!(
        decoder.try_into_difference().unwrap_err(),
        Error::InconsistentStream
    );
}

/// Decodes the spliced difference sketch, coded under `R`, in one call.
fn sketch_decode_stops<R: MappingRule + Default>() {
    fn sketch_of<R: MappingRule + Default>(items: impl Iterator<Item = Item>) -> Sketch<Item, R> {
        let mut sketch = Sketch::new(CELLS);
        for item in items {
            sketch.add_symbol(&item);
        }
        sketch
    }
    let difference = |with_x| {
        sketch_of::<R>(server_items(with_x))
            .subtracted(&sketch_of(client_items()))
            .unwrap()
    };
    let (before, after) = (difference(false), difference(true));
    let cells = splice(before.cells().to_vec(), after.cells().to_vec());
    let spliced = Sketch::from_cells_with_rule(cells, before.key(), before.rule().clone());
    assert_eq!(spliced.decode().unwrap_err(), Error::InconsistentStream);
    // Either half alone is a consistent sketch.
    assert_eq!(before.decode().unwrap().len(), DIFFERENCE as usize);
    assert_eq!(after.decode().unwrap().len(), DIFFERENCE as usize + 1);
}

#[test]
fn streaming_decoder_stops_with_a_typed_error() {
    streaming_decoder_stops::<Uniform>();
}

#[test]
fn irregular_decoder_stops_with_a_typed_error() {
    streaming_decoder_stops::<IrregularClasses>();
}

#[test]
fn sketch_decode_stops_with_a_typed_error() {
    sketch_decode_stops::<Uniform>();
}

#[test]
fn irregular_sketch_decode_stops_with_a_typed_error() {
    sketch_decode_stops::<IrregularClasses>();
}
