//! The versioned connection handshake of the real-socket protocol.
//!
//! Before any [`MuxFrame`](crate::MuxFrame) moves on a real connection, the
//! two endpoints exchange one fixed-size `Hello` frame each to establish
//! that they can reconcile at all:
//!
//! ```text
//! Hello (18 bytes, sent as one length-prefixed frame):
//!   magic        : 4 bytes  "RCLD"
//!   version      : u16 LE   protocol version (currently 4)
//!   fingerprint  : u64 LE   keyed fingerprint of the shared SipKey
//!   shards       : u16 LE   client → proposal (0 = "server decides");
//!                           server → authoritative shard count
//!   symbol_len   : u16 LE   item length in bytes
//! ```
//!
//! The client sends its `Hello` first — and may write frames of the
//! conversation right behind it, in the same segment, without waiting for
//! the answer ([`client_handshake_pipelined`]; the sharded TCP client sends
//! its one wildcard `Open` this way, so the first coded symbols come back
//! in the handshake's own round trip). The server validates it and either
//! answers with its own `Hello` (whose `shards` field is authoritative —
//! the client partitions its set with the *server's* shard count) or with a
//! reject frame naming the reason, then closes the connection:
//!
//! ```text
//! Reject: magic "RNCK" · reason code u8 · UTF-8 detail
//! ```
//!
//! The key fingerprint is [`siphash24`] of a fixed context string under the
//! shared key: equal keys produce equal fingerprints, and the fingerprint
//! reveals nothing useful about the key itself. Differently-keyed peers
//! speak incompatible codes (the key drives shard partitioning, coded-symbol
//! checksums, and index mappings), so a fingerprint mismatch must abort the
//! connection before any coded symbols move — silently mis-keyed streams
//! would never decode.
//!
//! Every failure mode — wrong magic, version skew, key mismatch, truncated
//! frame, a peer that rejects us — surfaces as
//! [`EngineError::Handshake`] (or [`EngineError::Io`] for transport
//! failures), never a hang or a panic.

use std::io::{Read, Write};

use riblt_hash::{siphash24, SipKey};

use crate::error::{EngineError, Result};
use crate::framing::{append_frame, read_frame, write_frame, LENGTH_PREFIX_BYTES};

/// Magic bytes opening every `Hello` frame.
pub const HELLO_MAGIC: [u8; 4] = *b"RCLD";

/// Magic bytes opening a handshake reject frame.
pub const REJECT_MAGIC: [u8; 4] = *b"RNCK";

/// Protocol version this build speaks. Version 3 added the wildcard open
/// ([`crate::SHARD_ALL`]); a version-2 server would answer one with a
/// mid-stream "shard out of range", so the skew is refused here instead.
/// Version 4 lets the wildcard open carry a count sketch of the client's set
/// and answers it with a grant and a first flight sized from it
/// ([`crate::first_flight`]); a version-3 server would ignore the sketch and
/// send no grant.
pub const PROTOCOL_VERSION: u16 = 4;

/// Size of an encoded [`Hello`] in bytes.
pub const HELLO_BYTES: usize = 18;

/// Context string hashed under the shared key to derive the fingerprint.
const FINGERPRINT_CONTEXT: &[u8] = b"reconciled/key-fingerprint/v1";

/// In a client hello: "no shard preference, use the server's count".
pub const SHARDS_ANY: u16 = 0;

/// Derives the 64-bit fingerprint peers exchange to prove they share a
/// [`SipKey`] without revealing it.
pub fn key_fingerprint(key: SipKey) -> u64 {
    siphash24(key, FINGERPRINT_CONTEXT)
}

/// Why a server refused a handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The hello frame did not parse (wrong magic, wrong size, garbage).
    Malformed,
    /// The peer speaks a different protocol version.
    VersionMismatch,
    /// The peer's key fingerprint differs — incompatible codes.
    KeyMismatch,
    /// The peer reconciles items of a different length.
    SymbolLenMismatch,
}

impl RejectReason {
    fn code(self) -> u8 {
        match self {
            RejectReason::Malformed => 1,
            RejectReason::VersionMismatch => 2,
            RejectReason::KeyMismatch => 3,
            RejectReason::SymbolLenMismatch => 4,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            1 => RejectReason::Malformed,
            2 => RejectReason::VersionMismatch,
            3 => RejectReason::KeyMismatch,
            4 => RejectReason::SymbolLenMismatch,
            _ => return None,
        })
    }

    /// Human-readable description, used in reject frames and error strings.
    pub fn describe(self) -> &'static str {
        match self {
            RejectReason::Malformed => "malformed hello",
            RejectReason::VersionMismatch => "protocol version mismatch",
            RejectReason::KeyMismatch => "SipKey fingerprint mismatch",
            RejectReason::SymbolLenMismatch => "symbol length mismatch",
        }
    }
}

/// One endpoint's handshake announcement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// Protocol version the endpoint speaks.
    pub version: u16,
    /// Keyed fingerprint of the endpoint's [`SipKey`].
    pub fingerprint: u64,
    /// Shard count: a proposal ([`SHARDS_ANY`] = none) from the client, the
    /// authoritative count from the server.
    pub shards: u16,
    /// Item length in bytes.
    pub symbol_len: u16,
}

impl Hello {
    /// Builds the current-version hello for a key, shard count and item
    /// length.
    ///
    /// The protocol also pins the coded-symbol mapping parameter to
    /// α = [`riblt::DEFAULT_ALPHA`]; a future α negotiation would be a
    /// version bump, not a new field.
    ///
    /// # Panics
    ///
    /// If `symbol_len` exceeds `u16::MAX` — the connection entry points
    /// ([`crate::handshake`] callers like the daemon and
    /// `statesync::sync_sharded_tcp`) validate this before constructing a
    /// hello, so a panic here indicates a caller skipping that validation.
    pub fn new(key: SipKey, shards: u16, symbol_len: usize) -> Self {
        Hello {
            version: PROTOCOL_VERSION,
            fingerprint: key_fingerprint(key),
            shards,
            symbol_len: u16::try_from(symbol_len).expect("item length fits in u16"),
        }
    }

    /// Serializes the hello into its fixed 18-byte layout.
    pub fn to_bytes(&self) -> [u8; HELLO_BYTES] {
        let mut out = [0u8; HELLO_BYTES];
        out[..4].copy_from_slice(&HELLO_MAGIC);
        out[4..6].copy_from_slice(&self.version.to_le_bytes());
        out[6..14].copy_from_slice(&self.fingerprint.to_le_bytes());
        out[14..16].copy_from_slice(&self.shards.to_le_bytes());
        out[16..18].copy_from_slice(&self.symbol_len.to_le_bytes());
        out
    }

    /// Inverse of [`Self::to_bytes`]. Truncated or mis-tagged input yields
    /// [`EngineError::Handshake`], never a panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<Hello> {
        if bytes.len() != HELLO_BYTES || bytes[..4] != HELLO_MAGIC {
            return Err(EngineError::Handshake(format!(
                "malformed hello frame ({} bytes)",
                bytes.len()
            )));
        }
        Ok(Hello {
            version: u16::from_le_bytes([bytes[4], bytes[5]]),
            fingerprint: u64::from_le_bytes(bytes[6..14].try_into().expect("length checked")),
            shards: u16::from_le_bytes([bytes[14], bytes[15]]),
            symbol_len: u16::from_le_bytes([bytes[16], bytes[17]]),
        })
    }
}

/// Encodes a reject frame's payload (magic, reason code, UTF-8 detail).
///
/// Exposed for transports that manage their own frame I/O — the
/// event-driven daemon appends this to a nonblocking write buffer instead
/// of calling [`server_handshake`]'s blocking writes — so every server
/// emits byte-identical rejections for the same reason.
pub fn reject_frame_bytes(reason: RejectReason) -> Vec<u8> {
    encode_reject(reason)
}

fn encode_reject(reason: RejectReason) -> Vec<u8> {
    let detail = reason.describe().as_bytes();
    let mut out = Vec::with_capacity(5 + detail.len());
    out.extend_from_slice(&REJECT_MAGIC);
    out.push(reason.code());
    out.extend_from_slice(detail);
    out
}

/// Parses a reject frame, if `bytes` is one.
fn decode_reject(bytes: &[u8]) -> Option<(RejectReason, String)> {
    if bytes.len() < 5 || bytes[..4] != REJECT_MAGIC {
        return None;
    }
    let reason = RejectReason::from_code(bytes[4])?;
    let detail = String::from_utf8_lossy(&bytes[5..]).into_owned();
    Some((reason, detail))
}

/// Validates a client hello against the server's own parameters.
///
/// Exposed separately from [`server_handshake`] so transports that manage
/// their own frame I/O (or tests) can reuse the exact acceptance rules.
pub fn validate_client_hello(
    client: &Hello,
    local: &Hello,
) -> std::result::Result<(), RejectReason> {
    if client.version != local.version {
        return Err(RejectReason::VersionMismatch);
    }
    if client.fingerprint != local.fingerprint {
        return Err(RejectReason::KeyMismatch);
    }
    if client.symbol_len != local.symbol_len {
        return Err(RejectReason::SymbolLenMismatch);
    }
    Ok(())
}

/// Runs the server half of the handshake over `io`.
///
/// Reads the client's hello, validates it against `local` (version, key
/// fingerprint, symbol length — the client's `shards` field is a
/// non-binding proposal), and answers with `local` (whose `shards` count is
/// authoritative). On any mismatch a reject frame naming the reason is sent
/// before returning the error, so the client learns *why* instead of seeing
/// a bare disconnect.
pub fn server_handshake<T: Read + Write>(io: &mut T, local: &Hello) -> Result<Hello> {
    let bytes = read_frame(io)?;
    let client = match Hello::from_bytes(&bytes) {
        Ok(hello) => hello,
        Err(err) => {
            // Best effort: the peer may already be gone.
            let _ = write_frame(io, &encode_reject(RejectReason::Malformed));
            return Err(err);
        }
    };
    if let Err(reason) = validate_client_hello(&client, local) {
        let _ = write_frame(io, &encode_reject(reason));
        return Err(EngineError::Handshake(format!(
            "rejected peer: {}",
            reason.describe()
        )));
    }
    write_frame(io, &local.to_bytes())?;
    Ok(client)
}

/// Runs the client half of the handshake over `io`.
///
/// Sends `local` (its `shards` field is a proposal; use [`SHARDS_ANY`] for
/// "server decides"), then reads the server's answer. A reject frame or a
/// mismatched server hello surfaces as [`EngineError::Handshake`]. On
/// success the returned hello carries the server's authoritative shard
/// count, which the caller must adopt for partitioning.
pub fn client_handshake<T: Read + Write>(io: &mut T, local: &Hello) -> Result<Hello> {
    client_handshake_pipelined(io, local, &[])
}

/// [`client_handshake`] with `pipelined` — frames of the conversation,
/// already length-prefixed — written right behind the hello, in the same
/// `write_all`: the server finds them queued when it has accepted the
/// hello, and its replies to them follow its own hello without another
/// round trip. A server that rejects the hello never reads them.
pub fn client_handshake_pipelined<T: Read + Write>(
    io: &mut T,
    local: &Hello,
    pipelined: &[u8],
) -> Result<Hello> {
    let mut flight = Vec::with_capacity(LENGTH_PREFIX_BYTES + HELLO_BYTES + pipelined.len());
    append_frame(&mut flight, &local.to_bytes())?;
    flight.extend_from_slice(pipelined);
    io.write_all(&flight)?;
    io.flush()?;
    let bytes = read_frame(io)?;
    if let Some((reason, detail)) = decode_reject(&bytes) {
        return Err(EngineError::Handshake(format!(
            "server rejected handshake: {} ({detail})",
            reason.describe()
        )));
    }
    let server = Hello::from_bytes(&bytes)?;
    validate_server_hello(&server, local)?;
    Ok(server)
}

/// Checks a server's hello against the client's own: same protocol version,
/// same key fingerprint, same item length, and at least one shard (the
/// count the client is about to partition by). The one definition of "can
/// this client reconcile with that server", whichever transport carried the
/// hello.
pub fn validate_server_hello(server: &Hello, local: &Hello) -> Result<()> {
    if server.version != local.version {
        return Err(EngineError::Handshake(format!(
            "server speaks protocol version {}, we speak {}",
            server.version, local.version
        )));
    }
    if server.fingerprint != local.fingerprint {
        return Err(EngineError::Handshake(
            "server SipKey fingerprint differs — peers are keyed differently".into(),
        ));
    }
    if server.symbol_len != local.symbol_len {
        return Err(EngineError::Handshake(format!(
            "server reconciles {}-byte items, we hold {}-byte items",
            server.symbol_len, local.symbol_len
        )));
    }
    if server.shards == 0 {
        return Err(EngineError::Handshake(
            "server announced zero shards".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> SipKey {
        SipKey::new(11, 22)
    }

    #[test]
    fn hello_roundtrip() {
        let hello = Hello::new(key(), 16, 8);
        assert_eq!(hello.version, PROTOCOL_VERSION);
        let back = Hello::from_bytes(&hello.to_bytes()).unwrap();
        assert_eq!(back, hello);
    }

    #[test]
    fn truncated_and_mistagged_hellos_are_rejected() {
        let bytes = Hello::new(key(), 4, 8).to_bytes();
        for cut in 0..HELLO_BYTES {
            assert!(matches!(
                Hello::from_bytes(&bytes[..cut]),
                Err(EngineError::Handshake(_))
            ));
        }
        let mut wrong_magic = bytes;
        wrong_magic[0] = b'X';
        assert!(Hello::from_bytes(&wrong_magic).is_err());
    }

    #[test]
    fn fingerprint_is_key_dependent_and_stable() {
        assert_eq!(key_fingerprint(key()), key_fingerprint(key()));
        assert_ne!(key_fingerprint(key()), key_fingerprint(SipKey::new(1, 2)));
        assert_ne!(
            key_fingerprint(SipKey::default()),
            key_fingerprint(SipKey::new(0, 0)),
            "default key must not fingerprint like the zero key"
        );
    }
}
