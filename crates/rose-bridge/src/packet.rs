//! The RoSÉ wire protocol.
//!
//! "Packets consist of a header, containing the packet type and number of
//! bytes, as well as a payload containing the serialized contents of the
//! message" (Section 3.4.1). Two families exist:
//!
//! * **synchronization packets** ([`Packet::GrantCycles`],
//!   [`Packet::CyclesDone`], [`Packet::Resync`], [`Packet::Shutdown`]) —
//!   simulator control, invisible to the modeled SoC;
//! * **data packets** ([`Packet::Data`]) — sensor and actuator payloads,
//!   the only packets exposed through the RoSÉ BRIDGE queues.
//!
//! Recovery additions (DESIGN.md §4h): data packets carry a sequence
//! number so either side can deduplicate retransmissions after a
//! reconnect; grants and completions carry the quantum index so a
//! re-delivered grant for an already-completed quantum is answered from
//! the server's retransmit buffer instead of re-running the RTL (which
//! would diverge the simulated state). [`Packet::Resync`] opens that
//! handshake: each side announces the next data sequence number it
//! expects and the last quantum it has completed.

use rose_sim_core::snap::{SnapError, SnapReader};
use std::fmt;

/// Wire packet type tags.
const TAG_GRANT: u8 = 0x01;
const TAG_CYCLES_DONE: u8 = 0x02;
const TAG_DATA: u8 = 0x04;
const TAG_SHUTDOWN: u8 = 0x05;
const TAG_RESYNC: u8 = 0x06;

/// Header length: 1 tag byte + 4 length bytes.
pub const HEADER_LEN: usize = 5;

/// Maximum accepted payload (prevents unbounded allocation on a corrupt
/// length field).
pub const MAX_PAYLOAD: usize = 16 << 20;

/// A protocol packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Packet {
    /// Sync: grant the RTL simulation `cycles` of execution
    /// (`set_firesim_steps` / `allocate_rtl_frames` in Algorithm 1).
    GrantCycles {
        /// Cycles granted for the coming synchronization period.
        cycles: u64,
        /// Index of the quantum this grant opens (0-based). A server that
        /// already completed this quantum retransmits its buffered results
        /// instead of re-running the grant.
        quantum: u64,
    },
    /// Sync: the RTL side reports it has consumed its grant.
    CyclesDone {
        /// Cycles actually executed.
        cycles: u64,
        /// Index of the quantum this completion closes.
        quantum: u64,
    },
    /// A data packet: serialized sensor/actuator message, opaque here.
    Data {
        /// Per-direction sequence number (each sender numbers its own
        /// stream from 0). Receivers drop `seq < expected` as
        /// retransmitted duplicates.
        seq: u32,
        /// The serialized message.
        payload: Vec<u8>,
    },
    /// Sync: orderly end of simulation.
    Shutdown,
    /// Sync: sequence-resync handshake after a reconnect. Each side sends
    /// one `Resync` announcing what it already holds; the peer then
    /// retransmits exactly the gap.
    Resync {
        /// The next data sequence number the sender expects to receive
        /// (everything below it has been delivered and processed).
        expect_rx: u32,
        /// The last quantum index the sender has fully completed, plus
        /// one; 0 when none has completed yet.
        quantum: u64,
    },
}

/// A packet decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer does not yet hold a complete packet (read more bytes).
    Incomplete,
    /// Unknown packet tag.
    BadTag(u8),
    /// Length field exceeds [`MAX_PAYLOAD`] or mismatches the tag.
    BadLength(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Incomplete => write!(f, "incomplete packet"),
            DecodeError::BadTag(t) => write!(f, "unknown packet tag {t:#04x}"),
            DecodeError::BadLength(n) => write!(f, "invalid payload length {n}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl Packet {
    /// Serializes the packet onto the end of `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        let mut header = |tag: u8, len: u32| {
            buf.push(tag);
            buf.extend_from_slice(&len.to_le_bytes());
        };
        match self {
            Packet::GrantCycles { cycles, quantum } => {
                header(TAG_GRANT, 16);
                buf.extend_from_slice(&cycles.to_le_bytes());
                buf.extend_from_slice(&quantum.to_le_bytes());
            }
            Packet::CyclesDone { cycles, quantum } => {
                header(TAG_CYCLES_DONE, 16);
                buf.extend_from_slice(&cycles.to_le_bytes());
                buf.extend_from_slice(&quantum.to_le_bytes());
            }
            Packet::Data { seq, payload } => {
                // rose-lint: allow(CAST001, payload length is bounded by MAX_PAYLOAD well below u32::MAX)
                header(TAG_DATA, 4 + payload.len() as u32);
                buf.extend_from_slice(&seq.to_le_bytes());
                buf.extend_from_slice(payload);
            }
            Packet::Shutdown => header(TAG_SHUTDOWN, 0),
            Packet::Resync { expect_rx, quantum } => {
                header(TAG_RESYNC, 12);
                buf.extend_from_slice(&expect_rx.to_le_bytes());
                buf.extend_from_slice(&quantum.to_le_bytes());
            }
        }
    }

    /// Serializes to a standalone byte vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }

    /// Decodes one packet from the front of `buf`, returning it with the
    /// number of bytes it occupied there. The caller drops that prefix.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Incomplete`] if more bytes are needed;
    /// [`DecodeError::BadTag`]/[`DecodeError::BadLength`] on corrupt input.
    pub fn decode(buf: &[u8]) -> Result<(Packet, usize), DecodeError> {
        let mut r = SnapReader::new(buf);
        let (Ok(tag), Ok(len)) = (r.u8(), r.u32()) else {
            return Err(DecodeError::Incomplete);
        };
        // rose-lint: allow(CAST001, u32 to usize widens on supported targets and len is bounds-checked on the next line)
        let len = len as usize;
        if len > MAX_PAYLOAD {
            return Err(DecodeError::BadLength(len));
        }
        let fixed = |expected: usize| {
            if len == expected {
                Ok(())
            } else {
                Err(DecodeError::BadLength(len))
            }
        };
        match tag {
            TAG_GRANT | TAG_CYCLES_DONE => fixed(16)?,
            TAG_RESYNC => fixed(12)?,
            TAG_SHUTDOWN => fixed(0)?,
            // A data packet carries at least its 4-byte sequence number.
            TAG_DATA if len < 4 => return Err(DecodeError::BadLength(len)),
            TAG_DATA => {}
            t => return Err(DecodeError::BadTag(t)),
        }
        let payload = r.raw(len).map_err(|_| DecodeError::Incomplete)?;
        // The length checks above keep every field read in bounds.
        let packet =
            Packet::decode_payload(tag, payload).map_err(|_| DecodeError::BadLength(len))?;
        Ok((packet, HEADER_LEN + len))
    }

    /// Decodes the payload of a packet whose tag and length `decode` has
    /// already validated.
    fn decode_payload(tag: u8, payload: &[u8]) -> Result<Packet, SnapError> {
        let mut p = SnapReader::new(payload);
        Ok(match tag {
            TAG_GRANT => Packet::GrantCycles {
                cycles: p.u64()?,
                quantum: p.u64()?,
            },
            TAG_CYCLES_DONE => Packet::CyclesDone {
                cycles: p.u64()?,
                quantum: p.u64()?,
            },
            TAG_DATA => Packet::Data {
                seq: p.u32()?,
                payload: p.raw(p.remaining())?.to_vec(),
            },
            TAG_SHUTDOWN => Packet::Shutdown,
            TAG_RESYNC => Packet::Resync {
                expect_rx: p.u32()?,
                quantum: p.u64()?,
            },
            // rose-lint: allow(PANIC001, decode already rejected every tag outside this set via DecodeError::BadTag)
            _ => unreachable!("tag validated by decode"),
        })
    }

    /// The packet kind as a static label (protocol-error reporting).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Packet::GrantCycles { .. } => "GrantCycles",
            Packet::CyclesDone { .. } => "CyclesDone",
            Packet::Data { .. } => "Data",
            Packet::Shutdown => "Shutdown",
            Packet::Resync { .. } => "Resync",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One packet of every variant, data both with and without a payload.
    fn every_variant() -> Vec<Packet> {
        vec![
            Packet::GrantCycles {
                cycles: 16_666_666,
                quantum: 0,
            },
            Packet::CyclesDone {
                cycles: 1,
                quantum: u64::MAX,
            },
            Packet::Data {
                seq: 7,
                payload: vec![7; 100],
            },
            Packet::Data {
                seq: u32::MAX,
                payload: vec![],
            },
            Packet::Shutdown,
            Packet::Resync {
                expect_rx: 42,
                quantum: 9,
            },
        ]
    }

    #[test]
    fn roundtrip_all_variants() {
        for pkt in every_variant() {
            let buf = pkt.to_bytes();
            let (decoded, used) = Packet::decode(&buf).expect("decode");
            assert_eq!(decoded, pkt);
            assert_eq!(used, buf.len(), "decode must consume the packet");
        }
    }

    #[test]
    fn incomplete_buffers_wait_for_more() {
        for pkt in every_variant() {
            let full = pkt.to_bytes();
            for cut in 0..full.len() {
                assert_eq!(
                    Packet::decode(&full[..cut]),
                    Err(DecodeError::Incomplete),
                    "{pkt:?} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn back_to_back_packets_stream() {
        let mut buf = Vec::new();
        Packet::GrantCycles {
            cycles: 5,
            quantum: 2,
        }
        .encode(&mut buf);
        Packet::Data {
            seq: 0,
            payload: vec![9, 9],
        }
        .encode(&mut buf);
        Packet::Shutdown.encode(&mut buf);
        let mut rest = &buf[..];
        let mut next = || {
            let decoded = Packet::decode(rest);
            if let Ok((_, used)) = decoded {
                rest = &rest[used..];
            }
            decoded.map(|(packet, _)| packet)
        };
        assert_eq!(
            next(),
            Ok(Packet::GrantCycles {
                cycles: 5,
                quantum: 2
            })
        );
        assert_eq!(
            next(),
            Ok(Packet::Data {
                seq: 0,
                payload: vec![9, 9]
            })
        );
        assert_eq!(next(), Ok(Packet::Shutdown));
        assert_eq!(next(), Err(DecodeError::Incomplete));
    }

    #[test]
    fn corrupt_tag_rejected() {
        let mut raw = Packet::Shutdown.to_bytes();
        raw[0] = 0x7f;
        assert_eq!(Packet::decode(&raw), Err(DecodeError::BadTag(0x7f)));
        // An unassigned tag between assigned ones is rejected too.
        raw[0] = 0x03;
        assert_eq!(Packet::decode(&raw), Err(DecodeError::BadTag(0x03)));
    }

    #[test]
    fn corrupt_length_rejected() {
        let mut raw = Packet::GrantCycles {
            cycles: 1,
            quantum: 0,
        }
        .to_bytes();
        raw[1] = 9; // length must be exactly 16
        assert_eq!(Packet::decode(&raw), Err(DecodeError::BadLength(9)));
        // Oversized data payload length.
        let mut raw = Packet::Data {
            seq: 0,
            payload: vec![],
        }
        .to_bytes();
        raw[1..5].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            Packet::decode(&raw),
            Err(DecodeError::BadLength(_))
        ));
        // A data packet shorter than its sequence number is malformed —
        // it must be rejected, not decoded with garbage seq.
        let mut raw = Packet::Data {
            seq: 0,
            payload: vec![],
        }
        .to_bytes();
        raw[1..5].copy_from_slice(&3u32.to_le_bytes());
        assert_eq!(
            Packet::decode(&raw[..4 + 1]),
            Err(DecodeError::BadLength(3))
        );
        // Resync with a truncated length field.
        let mut raw = Packet::Resync {
            expect_rx: 1,
            quantum: 1,
        }
        .to_bytes();
        raw[1] = 4;
        assert_eq!(Packet::decode(&raw), Err(DecodeError::BadLength(4)));
    }

    #[test]
    fn kind_names_cover_every_variant() {
        assert_eq!(
            Packet::GrantCycles {
                cycles: 0,
                quantum: 0
            }
            .kind_name(),
            "GrantCycles"
        );
        assert_eq!(
            Packet::Resync {
                expect_rx: 0,
                quantum: 0
            }
            .kind_name(),
            "Resync"
        );
        assert_eq!(
            Packet::Data {
                seq: 0,
                payload: vec![]
            }
            .kind_name(),
            "Data"
        );
    }

    #[test]
    fn data_wire_length_includes_sequence_number() {
        let raw = Packet::Data {
            seq: 1,
            payload: vec![0xAA; 10],
        }
        .to_bytes();
        assert_eq!(raw.len(), HEADER_LEN + 4 + 10);
        let len = u32::from_le_bytes([raw[1], raw[2], raw[3], raw[4]]);
        assert_eq!(len, 14);
    }
}
