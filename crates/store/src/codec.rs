//! Artifact (de)serialization and domain digests.
//!
//! Three artifact kinds flow through the store:
//!
//! * **Tables** — one artifact per extracted table, in the extractor's
//!   chunk codec ([`extractor::encode_table`]), plus a [`TraceMeta`]
//!   holding the [`SystemParams`] derived from the decoded log and every
//!   table artifact's digest, memoizing decode + extraction.
//! * **Diagnosis** — one per-issue [`Diagnosis`]. Only the raw
//!   completion, the typed metrics, the issue id and the context
//!   revision are stored; everything else is reconstructed through
//!   [`Diagnosis::parse`], exactly as the live analyzer does, so a
//!   cached diagnosis is bit-identical to a recomputed one.
//! * **Summary** — the global summary text.
//!
//! The trace meta and the diagnosis are length-framed text (`magic vN`
//! header, `\n`-separated fields, byte-counted payloads) — human-greppable
//! on disk, no delimiter-escaping corner cases, versioned for forward
//! rejection. Tables are binary: their encoding is canonical, so a
//! table's content digest is simply the hash of its artifact.
//!
//! Digests of domain objects (params, context text) live here too and
//! hash in order, because order is meaning there.

use crate::digest::{Digest, Hasher};
use crate::StoreError;
use extractor::Value;
use ion::analyzer::SystemParams;
use ion::report::Diagnosis;

/// Tag of the table artifact codec, part of every trace-meta key: a
/// store written with another table codec is re-extracted once instead
/// of read.
pub(crate) const TABLE_CODEC: &str = "itb1";

pub(crate) fn corrupt(what: &str) -> StoreError {
    StoreError::Corrupt(format!("malformed artifact: {what}"))
}

/// Split one `\n`-terminated header line off `rest`.
pub(crate) fn take_line<'a>(rest: &mut &'a [u8]) -> Result<&'a str, StoreError> {
    let pos = rest
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| corrupt("missing line terminator"))?;
    let (line, tail) = rest.split_at(pos);
    *rest = &tail[1..];
    std::str::from_utf8(line).map_err(|_| corrupt("non-UTF-8 header line"))
}

/// Split `len` payload bytes plus a trailing newline off `rest`.
pub(crate) fn take_payload<'a>(rest: &mut &'a [u8], len: usize) -> Result<&'a [u8], StoreError> {
    if rest.len() < len + 1 || rest[len] != b'\n' {
        return Err(corrupt("payload length mismatch"));
    }
    let (payload, tail) = rest.split_at(len);
    *rest = &tail[1..];
    Ok(payload)
}

// ---------------------------------------------------------------------
// System parameters
// ---------------------------------------------------------------------

/// Canonical single-line rendering of params. The runtime is encoded as
/// IEEE-754 bits so the round trip is exact (it participates in keys).
#[must_use]
pub fn params_line(p: &SystemParams) -> String {
    format!(
        "{} {} {} {:016x}",
        p.rpc_size,
        p.stripe_size,
        p.nprocs,
        p.runtime_seconds.to_bits()
    )
}

fn parse_params(line: &str) -> Result<SystemParams, StoreError> {
    let mut it = line.split(' ');
    let mut next = || it.next().ok_or_else(|| corrupt("short params line"));
    let rpc_size = next()?.parse().map_err(|_| corrupt("params rpc_size"))?;
    let stripe_size = next()?.parse().map_err(|_| corrupt("params stripe_size"))?;
    let nprocs = next()?.parse().map_err(|_| corrupt("params nprocs"))?;
    let bits = u64::from_str_radix(next()?, 16).map_err(|_| corrupt("params runtime"))?;
    Ok(SystemParams {
        rpc_size,
        stripe_size,
        nprocs,
        runtime_seconds: f64::from_bits(bits),
    })
}

/// Digest of the system parameters (part of every issue key: thresholds
/// reference `rpc_size` and friends, so different params are different
/// analyses).
#[must_use]
pub fn params_digest(p: &SystemParams) -> Digest {
    let mut h = Hasher::new();
    h.update(b"ion-store/params/1\n");
    h.update(params_line(p).as_bytes());
    h.finish()
}

// ---------------------------------------------------------------------
// Trace meta (fine-grained stage 1)
// ---------------------------------------------------------------------

/// One per-module table in a [`TraceMeta`]: the module name, the schema
/// version it was extracted under, and the digest of its artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableEntry {
    /// Module/table name (`POSIX`, `DXT`, …).
    pub name: String,
    /// Extraction schema version ([`extractor::schema::module_version`]).
    pub version: u32,
    /// SHA-256 of the table artifact — its object id, and what issue
    /// keys depend on.
    pub digest: Digest,
}

/// The fine-grained extraction record for one trace: derived system
/// parameters plus one [`TableEntry`] per recorded module. The table
/// *bytes* live in separate per-module artifacts; the meta alone is
/// enough to revalidate every downstream issue (digests compare equal →
/// green) without decoding a single row.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMeta {
    /// System parameters derived from the decoded log.
    pub params: SystemParams,
    /// Per-module entries, in sorted table-name order.
    pub tables: Vec<TableEntry>,
}

impl TraceMeta {
    /// Content digest of one module's table, if recorded.
    #[must_use]
    pub fn digest_of(&self, module: &str) -> Option<Digest> {
        self.tables
            .iter()
            .find(|t| t.name == module)
            .map(|t| t.digest)
    }

    /// Whether the trace recorded `module` at all.
    #[must_use]
    pub fn has_module(&self, module: &str) -> bool {
        self.tables.iter().any(|t| t.name == module)
    }
}

/// Serialize a [`TraceMeta`].
#[must_use]
pub fn encode_trace_meta(meta: &TraceMeta) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"ion-trace-meta v2\n");
    out.extend_from_slice(format!("params {}\n", params_line(&meta.params)).as_bytes());
    for t in &meta.tables {
        out.extend_from_slice(
            format!("table {} {} {}\n", t.name, t.version, t.digest.hex()).as_bytes(),
        );
    }
    out
}

/// Decode a [`TraceMeta`].
pub fn decode_trace_meta(bytes: &[u8]) -> Result<TraceMeta, StoreError> {
    let mut rest = bytes;
    if take_line(&mut rest)? != "ion-trace-meta v2" {
        return Err(corrupt("bad trace-meta header"));
    }
    let params = parse_params(
        take_line(&mut rest)?
            .strip_prefix("params ")
            .ok_or_else(|| corrupt("missing params line"))?,
    )?;
    let mut tables = Vec::new();
    while !rest.is_empty() {
        let line = take_line(&mut rest)?;
        let spec = line
            .strip_prefix("table ")
            .ok_or_else(|| corrupt("expected meta table line"))?;
        let mut it = spec.split(' ');
        let name = it
            .next()
            .ok_or_else(|| corrupt("meta table name"))?
            .to_owned();
        let version: u32 = it
            .next()
            .ok_or_else(|| corrupt("meta table version"))?
            .parse()
            .map_err(|_| corrupt("meta table version"))?;
        let digest = it
            .next()
            .and_then(Digest::from_hex)
            .ok_or_else(|| corrupt("meta table digest"))?;
        tables.push(TableEntry {
            name,
            version,
            digest,
        });
    }
    Ok(TraceMeta { params, tables })
}

// ---------------------------------------------------------------------
// Diagnosis artifact
// ---------------------------------------------------------------------

fn encode_value(v: &Value) -> String {
    match v {
        Value::Int(i) => format!("i\t{i}"),
        // Bit-exact float encoding: metric values flow back into Q&A and
        // must not drift through a decimal round trip.
        Value::Float(f) => format!("f\t{:016x}", f.to_bits()),
        Value::Str(s) => format!(
            "s\t{}",
            s.replace('\\', "\\\\")
                .replace('\n', "\\n")
                .replace('\t', "\\t")
        ),
        Value::Null => "n\t".to_owned(),
    }
}

fn decode_value(tag: &str, payload: &str) -> Result<Value, StoreError> {
    Ok(match tag {
        "i" => Value::Int(payload.parse().map_err(|_| corrupt("metric int"))?),
        "f" => Value::Float(f64::from_bits(
            u64::from_str_radix(payload, 16).map_err(|_| corrupt("metric float"))?,
        )),
        "s" => {
            let mut out = String::with_capacity(payload.len());
            let mut chars = payload.chars();
            while let Some(c) = chars.next() {
                if c != '\\' {
                    out.push(c);
                    continue;
                }
                match chars.next() {
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('\\') => out.push('\\'),
                    _ => return Err(corrupt("metric string escape")),
                }
            }
            Value::Str(out.into())
        }
        "n" => Value::Null,
        _ => return Err(corrupt("metric tag")),
    })
}

/// Serialize a diagnosis as (issue, revision, metrics, raw completion).
#[must_use]
pub fn encode_diagnosis(d: &Diagnosis) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"ion-diagnosis v1\n");
    out.extend_from_slice(format!("issue {}\n", d.issue).as_bytes());
    out.extend_from_slice(format!("revision {}\n", d.context_revision).as_bytes());
    out.extend_from_slice(format!("metrics {}\n", d.metrics.len()).as_bytes());
    for (name, value) in &d.metrics {
        out.extend_from_slice(format!("{name}\t{}\n", encode_value(value)).as_bytes());
    }
    out.extend_from_slice(format!("raw {}\n", d.raw.len()).as_bytes());
    out.extend_from_slice(d.raw.as_bytes());
    out.push(b'\n');
    out
}

/// Decode a diagnosis artifact, reconstructing derived fields through
/// [`Diagnosis::parse`] just as the live analyzer does.
pub fn decode_diagnosis(bytes: &[u8]) -> Result<Diagnosis, StoreError> {
    let mut rest = bytes;
    if take_line(&mut rest)? != "ion-diagnosis v1" {
        return Err(corrupt("bad diagnosis header"));
    }
    let issue = take_line(&mut rest)?
        .strip_prefix("issue ")
        .ok_or_else(|| corrupt("missing issue line"))?
        .to_owned();
    let revision = take_line(&mut rest)?
        .strip_prefix("revision ")
        .ok_or_else(|| corrupt("missing revision line"))?
        .to_owned();
    let n_metrics: usize = take_line(&mut rest)?
        .strip_prefix("metrics ")
        .ok_or_else(|| corrupt("missing metrics line"))?
        .parse()
        .map_err(|_| corrupt("bad metrics count"))?;
    let mut metrics = Vec::with_capacity(n_metrics);
    for _ in 0..n_metrics {
        let line = take_line(&mut rest)?;
        let mut parts = line.splitn(3, '\t');
        let name = parts.next().ok_or_else(|| corrupt("metric name"))?;
        let tag = parts.next().ok_or_else(|| corrupt("metric tag"))?;
        let payload = parts.next().unwrap_or("");
        metrics.push((name.to_owned(), decode_value(tag, payload)?));
    }
    let raw_len: usize = take_line(&mut rest)?
        .strip_prefix("raw ")
        .ok_or_else(|| corrupt("missing raw line"))?
        .parse()
        .map_err(|_| corrupt("bad raw length"))?;
    let raw = std::str::from_utf8(take_payload(&mut rest, raw_len)?)
        .map_err(|_| corrupt("non-UTF-8 raw payload"))?;

    let mut d = Diagnosis::parse(raw);
    if d.issue.is_empty() {
        d.issue = issue;
    }
    d.context_revision = revision;
    d.metrics.extend(metrics);
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::digest_bytes;
    use extractor::{decode_table, encode_table, Table, TableSet};

    fn sample_tables() -> TableSet {
        let mut t = Table::new("POSIX", &["file_name", "rank", "POSIX_WRITES"]);
        t.push_row(vec!["/scratch/a".into(), Value::Int(0), Value::Int(12)]);
        t.push_row(vec!["/scratch/a".into(), Value::Int(1), Value::Int(3)]);
        let mut d = Table::new("DXT", &["rank", "offset", "length"]);
        d.push_row(vec![Value::Int(0), Value::Int(4096), Value::Int(17)]);
        let mut set = TableSet::default();
        set.insert(t);
        set.insert(d);
        set
    }

    fn artifact_digest(t: &Table) -> Digest {
        digest_bytes(&encode_table(t))
    }

    #[test]
    fn params_line_is_bit_exact() {
        let p = SystemParams {
            runtime_seconds: 0.1 + 0.2, // not representable exactly in decimal
            ..SystemParams::default()
        };
        assert_eq!(parse_params(&params_line(&p)).unwrap(), p);
    }

    #[test]
    fn artifact_digest_sees_content_and_schema() {
        let mut a = Table::new("T", &["x"]);
        a.push_row(vec![Value::Int(1)]);
        let mut b = Table::new("T", &["x"]);
        b.push_row(vec![Value::Int(2)]);
        assert_ne!(artifact_digest(&a), artifact_digest(&b));
        let c = Table::new("T", &["y"]);
        assert_ne!(
            artifact_digest(&Table::new("T", &["x"])),
            artifact_digest(&c)
        );
        assert_ne!(
            artifact_digest(&Table::new("U", &["y"])),
            artifact_digest(&c)
        );
    }

    #[test]
    fn diagnosis_round_trip() {
        let mut d = Diagnosis::parse(
            "ISSUE: small-io\nDETECTED: yes\nSEVERITY: high\nCONCLUSION: too many small ops\n",
        );
        d.issue = "small-io".into();
        d.context_revision = "abcdef012345".into();
        d.metrics.insert("small_pct".into(), Value::Float(81.25));
        d.metrics.insert("total_ops".into(), Value::Int(4096));
        d.metrics
            .insert("note".into(), Value::Str("line1\nline2\tend\\".into()));
        let back = decode_diagnosis(&encode_diagnosis(&d)).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn single_table_round_trip() {
        let tables = sample_tables();
        let posix = tables.get("POSIX").unwrap();
        let bytes = encode_table(posix);
        let back = decode_table(&bytes).unwrap();
        assert_eq!(&back, posix);
        assert_eq!(encode_table(&back), bytes);
    }

    #[test]
    fn trace_meta_round_trip() {
        let tables = sample_tables();
        let meta = TraceMeta {
            params: SystemParams {
                rpc_size: 1 << 22,
                stripe_size: 1 << 20,
                nprocs: 8,
                runtime_seconds: 0.1 + 0.2,
            },
            tables: tables
                .iter()
                .map(|(name, t)| TableEntry {
                    name: (*name).to_owned(),
                    version: 1,
                    digest: artifact_digest(t),
                })
                .collect(),
        };
        let back = decode_trace_meta(&encode_trace_meta(&meta)).unwrap();
        assert_eq!(back, meta);
        assert_eq!(
            back.digest_of("POSIX"),
            Some(artifact_digest(tables.get("POSIX").unwrap()))
        );
        assert!(back.has_module("DXT"));
        assert!(!back.has_module("MPIIO"));
        assert_eq!(back.digest_of("MPIIO"), None);
    }

    #[test]
    fn truncated_fine_artifacts_are_rejected() {
        let tables = sample_tables();
        let bytes = encode_table(tables.get("POSIX").unwrap());
        for cut in [0, 5, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_table(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let params = "params 1 2 3 0000000000000000\n";
        assert!(decode_trace_meta(format!("ion-trace-meta v1\n{params}").as_bytes()).is_err());
        assert!(decode_trace_meta(format!("ion-trace-meta v3\n{params}").as_bytes()).is_err());
        assert!(decode_trace_meta(format!("ion-trace-meta v2\n{params}").as_bytes()).is_ok());
        assert!(decode_trace_meta(b"ion-trace-meta v2\nparams 1 2 3 zz\n").is_err());
        assert!(
            decode_trace_meta(format!("ion-trace-meta v2\n{params}table X\n").as_bytes()).is_err()
        );
    }

    #[test]
    fn truncated_artifacts_are_rejected() {
        assert!(decode_diagnosis(b"ion-diagnosis v1\n").is_err());
        assert!(decode_diagnosis(b"ion-diagnosis v2\nissue x\n").is_err());
    }
}
