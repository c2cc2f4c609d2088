//! Transaction wire format.
//!
//! Clients timestamp each transaction, the server echoes the id and
//! timestamp back, and the client computes round-trip
//! latency from the difference — the measurement loop the paper describes.
//! Requests are small (they ride in single-MTU sends); responses are padded
//! to the server's configured *buffer size*, which is the experiment's main
//! knob ("we refer to an application running within a VM by its configured
//! buffer size").

use bytes::{Buf, BufMut};
use resex_finance::{PricingTask, TaskKind};
use resex_simcore::time::SimTime;
use serde::{Deserialize, Serialize};

/// Magic bytes guarding against decoding garbage.
const REQUEST_MAGIC: u32 = 0x5245_5145; // "REQE"
const RESPONSE_MAGIC: u32 = 0x5245_5350; // "RESP"

/// Encoded size of a request on the wire.
pub const REQUEST_WIRE_BYTES: u32 = 44;

/// Minimum bytes of a response that carry data (the rest is padding up to
/// the server's buffer size).
pub const RESPONSE_HEADER_BYTES: u32 = 28;

/// One client transaction.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TransactionRequest {
    /// Client-unique request id.
    pub id: u64,
    /// Issuing client.
    pub client_id: u32,
    /// Client send timestamp.
    pub sent_at: SimTime,
    /// The pricing work requested.
    pub task: PricingTask,
}

/// The server's reply header (padded to the configured buffer size on the
/// wire).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TransactionResponse {
    /// Echoed request id.
    pub id: u64,
    /// Echoed client send timestamp.
    pub sent_at: SimTime,
    /// Server-side service time in nanoseconds (for the client's records).
    pub service_ns: u64,
}

fn encode_task(task: &PricingTask, buf: &mut impl BufMut) {
    let (kind, param) = match task.kind {
        TaskKind::Quote => (0u8, 0u32),
        TaskKind::Risk => (1, 0),
        TaskKind::Reprice { steps } => (2, steps),
        TaskKind::ImpliedVol => (3, 0),
    };
    buf.put_u8(kind);
    buf.put_u32_le(param);
    buf.put_u32_le(task.n_options);
    buf.put_u64_le(task.seed);
}

fn decode_task(buf: &mut impl Buf) -> Option<PricingTask> {
    let kind = buf.get_u8();
    let param = buf.get_u32_le();
    let n_options = buf.get_u32_le();
    let seed = buf.get_u64_le();
    let kind = match kind {
        0 => TaskKind::Quote,
        1 => TaskKind::Risk,
        2 => TaskKind::Reprice { steps: param },
        3 => TaskKind::ImpliedVol,
        _ => return None,
    };
    Some(PricingTask {
        kind,
        n_options,
        seed,
    })
}

impl TransactionRequest {
    /// Serializes to the wire format without touching the heap — the hot
    /// path stamps requests onto the stack and DMA-writes from there.
    pub fn encode_wire(&self) -> [u8; REQUEST_WIRE_BYTES as usize] {
        let mut wire = [0u8; REQUEST_WIRE_BYTES as usize];
        let mut buf = &mut wire[..];
        buf.put_u32_le(REQUEST_MAGIC);
        buf.put_u64_le(self.id);
        buf.put_u32_le(self.client_id);
        buf.put_u64_le(self.sent_at.as_nanos());
        encode_task(&self.task, &mut buf);
        debug_assert_eq!(buf.len(), 3); // trailing reserved bytes stay zero
        wire
    }

    /// Serializes to the wire format.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_wire().to_vec()
    }

    /// Parses the wire format; `None` if malformed.
    pub fn decode(bytes: &[u8]) -> Option<TransactionRequest> {
        if bytes.len() < REQUEST_WIRE_BYTES as usize {
            return None;
        }
        let mut buf = bytes;
        if buf.get_u32_le() != REQUEST_MAGIC {
            return None;
        }
        let id = buf.get_u64_le();
        let client_id = buf.get_u32_le();
        let sent_at = SimTime::from_nanos(buf.get_u64_le());
        let task = decode_task(&mut buf)?;
        Some(TransactionRequest {
            id,
            client_id,
            sent_at,
            task,
        })
    }
}

impl TransactionResponse {
    /// Serializes the header onto the stack (caller pads to the buffer
    /// size) — allocation-free for the per-response hot path.
    pub fn encode_wire(&self) -> [u8; RESPONSE_HEADER_BYTES as usize] {
        let mut wire = [0u8; RESPONSE_HEADER_BYTES as usize];
        let mut buf = &mut wire[..];
        buf.put_u32_le(RESPONSE_MAGIC);
        buf.put_u64_le(self.id);
        buf.put_u64_le(self.sent_at.as_nanos());
        buf.put_u64_le(self.service_ns);
        debug_assert!(buf.is_empty());
        wire
    }

    /// Parses the header from the start of a (padded) response buffer.
    pub fn decode(bytes: &[u8]) -> Option<TransactionResponse> {
        if bytes.len() < RESPONSE_HEADER_BYTES as usize {
            return None;
        }
        let mut buf = bytes;
        if buf.get_u32_le() != RESPONSE_MAGIC {
            return None;
        }
        Some(TransactionResponse {
            id: buf.get_u64_le(),
            sent_at: SimTime::from_nanos(buf.get_u64_le()),
            service_ns: buf.get_u64_le(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req() -> TransactionRequest {
        TransactionRequest {
            id: 42,
            client_id: 7,
            sent_at: SimTime::from_micros(1234),
            task: PricingTask {
                kind: TaskKind::Reprice { steps: 64 },
                n_options: 12,
                seed: 99,
            },
        }
    }

    #[test]
    fn request_roundtrip() {
        let r = req();
        let wire = r.encode();
        assert_eq!(wire.len(), REQUEST_WIRE_BYTES as usize);
        assert_eq!(TransactionRequest::decode(&wire), Some(r));
    }

    #[test]
    fn request_roundtrip_all_kinds() {
        for kind in [TaskKind::Quote, TaskKind::Risk, TaskKind::ImpliedVol] {
            let r = TransactionRequest {
                task: PricingTask {
                    kind,
                    n_options: 1,
                    seed: 0,
                },
                ..req()
            };
            assert_eq!(TransactionRequest::decode(&r.encode()), Some(r));
        }
    }

    #[test]
    fn request_rejects_garbage() {
        assert_eq!(TransactionRequest::decode(&[0u8; 44]), None);
        assert_eq!(TransactionRequest::decode(&[0u8; 10]), None, "too short");
        let mut wire = req().encode();
        wire[0] ^= 0xFF; // corrupt magic
        assert_eq!(TransactionRequest::decode(&wire), None);
    }

    #[test]
    fn retired_kind_tag_is_rejected() {
        // The task kind byte follows magic, id, client id and timestamp.
        const KIND_AT: usize = 24;
        let mut wire = req().encode();
        assert_eq!(wire[KIND_AT], 2, "Reprice's tag");
        // Tag 4 (a retired Monte Carlo task) decodes like any unknown tag.
        for tag in [4, 5, 0xFF] {
            wire[KIND_AT] = tag;
            assert_eq!(TransactionRequest::decode(&wire), None, "tag {tag}");
        }
    }

    #[test]
    fn response_roundtrip() {
        let r = TransactionResponse {
            id: 9,
            sent_at: SimTime::from_nanos(77),
            service_ns: 209_000,
        };
        let wire = r.encode_wire();
        assert_eq!(wire.len(), RESPONSE_HEADER_BYTES as usize);
        assert_eq!(TransactionResponse::decode(&wire), Some(r));
    }

    #[test]
    fn response_decodes_from_padded_buffer() {
        let r = TransactionResponse {
            id: 1,
            sent_at: SimTime::ZERO,
            service_ns: 1,
        };
        let mut padded = r.encode_wire().to_vec();
        padded.resize(64 * 1024, 0); // padded to a 64 KiB buffer
        assert_eq!(TransactionResponse::decode(&padded), Some(r));
    }
}
