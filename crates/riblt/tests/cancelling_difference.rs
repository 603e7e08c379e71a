//! A difference crafted under the public default key to empty cell 0 must
//! neither end the stream nor stall it: fed tile by tile, as a session layer
//! feeds it, the decoder recovers the whole difference.

#[path = "support/cancelling.rs"]
mod cancelling;

use std::collections::BTreeSet;

use cancelling::{cancelling_halves, item, Item};
use riblt::{Decoder, Encoder};
use riblt_hash::SipKey;

const SHARED: u64 = 20_000;
const TILE: usize = 32;
const BUDGET: usize = 4_096;

#[test]
fn a_difference_that_cancels_in_cell_0_is_recovered() {
    let key = SipKey::default();
    let (server_only, client_only) = cancelling_halves(key);
    assert_eq!(server_only.len(), client_only.len());
    let mut encoder = Encoder::<Item>::with_key(key);
    let mut decoder = Decoder::<Item>::with_key(key);
    for i in 0..SHARED {
        encoder.add_symbol(item(i)).unwrap();
        decoder.add_symbol(item(i)).unwrap();
    }
    for &x in &server_only {
        encoder.add_symbol(x).unwrap();
    }
    for &x in &client_only {
        decoder.add_symbol(x).unwrap();
    }
    // The premise: against cell 0 alone, one half decodes the other.
    let mut probe_encoder = Encoder::<Item>::with_key(key);
    let mut probe = Decoder::<Item>::with_key(key);
    for (&x, &y) in server_only.iter().zip(&client_only) {
        probe_encoder.add_symbol(x).unwrap();
        probe.add_symbol(y).unwrap();
    }
    probe.add_coded_symbol(probe_encoder.produce_next_coded_symbol());
    assert!(probe.is_decoded(), "cell 0 of the difference must cancel");

    while !decoder.is_decoded()
        && decoder.check_consistent().is_ok()
        && decoder.coded_symbols_received() < BUDGET
    {
        decoder.add_coded_symbols(encoder.produce_coded_symbols(TILE));
    }
    // Cell 0 gives back no symbol recovered elsewhere: the stream decodes.
    let difference = decoder.try_into_difference().unwrap();
    let set = |items: &[Item]| items.iter().copied().collect::<BTreeSet<_>>();
    assert_eq!(set(&difference.remote_only), set(&server_only));
    assert_eq!(set(&difference.local_only), set(&client_only));
}
