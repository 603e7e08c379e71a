//! Small argument-parsing and item-file helpers shared by the `reconciled`
//! and `reconcile-client` binaries (the workspace is std-only, so flags are
//! parsed by hand).

#![forbid(unsafe_code)]

use std::path::Path;

use riblt::Symbol;
use riblt_hash::SipKey;

use crate::item_from_hex;

/// Consumes the value of a `--flag VALUE` pair from an argument iterator.
pub fn flag_value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}

/// Parses `k0hex:k1hex` (two 64-bit hex halves) into a [`SipKey`].
pub fn parse_key(spec: &str) -> Result<SipKey, String> {
    let (k0, k1) = spec
        .split_once(':')
        .ok_or_else(|| format!("bad key {spec:?}: expected k0hex:k1hex"))?;
    let parse = |half: &str| {
        u64::from_str_radix(half.trim_start_matches("0x"), 16)
            .map_err(|e| format!("bad key half {half:?}: {e}"))
    };
    Ok(SipKey::new(parse(k0)?, parse(k1)?))
}

/// The key `--key` gave, or the usage error that names the flag. The
/// default key is public, and items crafted under a known key can stall a
/// sync, so the binaries run on none but the one they are given.
pub fn require_key(key: Option<SipKey>) -> Result<SipKey, String> {
    key.ok_or_else(|| {
        "--key K0HEX:K1HEX is required: the default key is public, and items \
         crafted under a known key can stall a sync"
            .into()
    })
}

/// Loads an item file: one `2 × symbol_len`-hex-digit item per line, blank
/// lines and `#` comments ignored.
///
/// Duplicate lines are dropped: these are *sets*, and a duplicated item
/// would XOR-cancel out of the client's sketch contribution, silently
/// corrupting the reconciliation (the daemon dedups on insert; the file
/// loader must match).
pub fn load_items<S: Symbol + Ord>(path: &Path, symbol_len: usize) -> Result<Vec<S>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut items = std::collections::BTreeSet::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let item = item_from_hex::<S>(line, symbol_len).ok_or_else(|| {
            format!(
                "{}:{}: expected {} hex digits, got {line:?}",
                path.display(),
                lineno + 1,
                symbol_len * 2
            )
        })?;
        items.insert(item);
    }
    Ok(items.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_files_are_deduplicated() {
        use riblt::FixedBytes;
        let path = std::env::temp_dir().join(format!("items-dedup-{}.txt", std::process::id()));
        std::fs::write(
            &path,
            "# twice\n0000000000000001\n0000000000000001\n0000000000000002\n",
        )
        .unwrap();
        let items: Vec<FixedBytes<8>> = load_items(&path, 8).unwrap();
        assert_eq!(items.len(), 2, "duplicate lines must collapse");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn key_parsing() {
        let key = parse_key("00000000000000ff:0x10").unwrap();
        assert_eq!(key, SipKey::new(0xff, 0x10));
        assert!(parse_key("nope").is_err());
        assert!(parse_key("zz:10").is_err());
        assert_eq!(require_key(Some(key)), Ok(key));
        assert!(require_key(None).unwrap_err().starts_with("--key "));
    }
}
