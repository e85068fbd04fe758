use std::fmt;

/// Error type for Darshan log encoding, decoding and parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DarshanError {
    /// The log does not start with the expected magic bytes.
    BadMagic {
        /// The magic value found in the input.
        found: u32,
    },
    /// The log was written with a format version this reader cannot decode.
    UnsupportedVersion {
        /// The version found in the input.
        found: u16,
    },
    /// A checksummed region failed CRC verification.
    ChecksumMismatch {
        /// Name of the region that failed verification.
        region: &'static str,
        /// CRC stored in the log.
        expected: u32,
        /// CRC computed over the region contents.
        actual: u32,
    },
    /// The input ended before a complete value could be decoded.
    UnexpectedEof {
        /// What was being decoded when input ran out.
        decoding: &'static str,
    },
    /// A region's frame (tag, declared length, or trailing CRC) extends
    /// past the end of the log. Unlike [`DarshanError::UnexpectedEof`],
    /// this carries where in the byte stream the truncation was detected,
    /// so a corrupt artifact can be located and minimized.
    Truncated {
        /// Name of the region whose frame ran past EOF.
        region: &'static str,
        /// Byte offset (from the start of the log) where the region began.
        offset: usize,
    },
    /// An arithmetic accumulation overflowed its integer type. Hostile
    /// logs can carry `i64::MAX` counters or delta chains that no sum can
    /// hold; decoding and analysis surface this instead of panicking.
    Overflow {
        /// What was being accumulated when the overflow occurred.
        what: &'static str,
    },
    /// A varint was longer than the maximum encodable width.
    VarintOverflow,
    /// A name-table region came after a module region. Names must
    /// precede every module record, so that a streaming consumer can
    /// resolve each record's path the moment it arrives.
    NamesAfterModule {
        /// Byte offset (from the start of the log) of the late names
        /// region.
        offset: usize,
    },
    /// A record referenced an unknown module id.
    UnknownModule {
        /// The raw module id found in the input.
        id: u8,
    },
    /// A counter record carried the wrong number of counters for its module.
    CounterCountMismatch {
        /// Module whose record was malformed.
        module: &'static str,
        /// Number of counters expected by the module schema.
        expected: usize,
        /// Number of counters found in the record.
        found: usize,
    },
    /// A name record contained invalid UTF-8.
    InvalidName,
    /// A string field exceeded the maximum permitted length.
    StringTooLong {
        /// Length found.
        len: usize,
        /// Maximum permitted.
        max: usize,
    },
    /// An underlying I/O source or sink failed during streaming decode
    /// or encode. Never produced when decoding from an in-memory slice.
    Io {
        /// What the codec was doing when the I/O failed.
        action: &'static str,
        /// The underlying error text.
        message: String,
    },
}

impl fmt::Display for DarshanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DarshanError::BadMagic { found } => {
                write!(f, "bad log magic 0x{found:08x}, not a darshan log")
            }
            DarshanError::UnsupportedVersion { found } => {
                write!(f, "unsupported log format version {found}")
            }
            DarshanError::ChecksumMismatch {
                region,
                expected,
                actual,
            } => write!(
                f,
                "checksum mismatch in {region} region: stored 0x{expected:08x}, computed 0x{actual:08x}"
            ),
            DarshanError::UnexpectedEof { decoding } => {
                write!(f, "unexpected end of input while decoding {decoding}")
            }
            DarshanError::Truncated { region, offset } => {
                write!(
                    f,
                    "log truncated: {region} region at byte offset {offset} extends past end of input"
                )
            }
            DarshanError::Overflow { what } => {
                write!(f, "arithmetic overflow while accumulating {what}")
            }
            DarshanError::VarintOverflow => write!(f, "varint exceeds 64-bit range"),
            DarshanError::NamesAfterModule { offset } => write!(
                f,
                "names region at byte offset {offset} follows a module region; names must come first"
            ),
            DarshanError::UnknownModule { id } => write!(f, "unknown module id {id}"),
            DarshanError::CounterCountMismatch {
                module,
                expected,
                found,
            } => write!(
                f,
                "{module} record carries {found} counters, schema expects {expected}"
            ),
            DarshanError::InvalidName => write!(f, "name record is not valid utf-8"),
            DarshanError::StringTooLong { len, max } => {
                write!(f, "string of length {len} exceeds maximum {max}")
            }
            DarshanError::Io { action, message } => {
                write!(f, "i/o failure while trying to {action}: {message}")
            }
        }
    }
}

impl std::error::Error for DarshanError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_for_all_variants() {
        let variants: Vec<DarshanError> = vec![
            DarshanError::BadMagic { found: 1 },
            DarshanError::UnsupportedVersion { found: 9 },
            DarshanError::ChecksumMismatch {
                region: "posix",
                expected: 1,
                actual: 2,
            },
            DarshanError::UnexpectedEof { decoding: "header" },
            DarshanError::Truncated {
                region: "posix",
                offset: 42,
            },
            DarshanError::Overflow {
                what: "dxt segment offset",
            },
            DarshanError::VarintOverflow,
            DarshanError::NamesAfterModule { offset: 96 },
            DarshanError::UnknownModule { id: 200 },
            DarshanError::CounterCountMismatch {
                module: "POSIX",
                expected: 10,
                found: 2,
            },
            DarshanError::InvalidName,
            DarshanError::StringTooLong { len: 10, max: 4 },
            DarshanError::Io {
                action: "read region payload",
                message: "pipe closed".into(),
            },
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DarshanError>();
    }
}
