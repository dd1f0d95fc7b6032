//! Length-prefixed request/response wire protocol.
//!
//! Every message is one frame:
//!
//! ```text
//! magic(0xA7, 1B) | kind(1B) | body_len(u32 LE, 4B) | body(body_len B)
//! ```
//!
//! Readers use [`Read::read_exact`], so a frame split across any number of
//! socket writes — at any byte boundary — reassembles transparently; a
//! stream that ends mid-frame yields a typed [`NetError::Io`], and any
//! grammar violation a [`NetError::Protocol`]. Decoding never panics. The
//! gradient bytes inside [`Request::PushGradient`] are opaque here: they are
//! whatever the session's [`GradientCompressor`] produced (v2 CRC frames
//! included), checked by the codec on decode.
//!
//! [`GradientCompressor`]: sketchml_core::GradientCompressor

use crate::error::{ErrorCode, NetError};
use std::io::{Read, Write};

/// Single supported protocol version; `Hello` negotiates a range so future
/// versions can interoperate.
pub const PROTOCOL_VERSION: u16 = 1;

/// Frame lead-in byte; anything else is a protocol error.
pub const MAGIC: u8 = 0xA7;

/// Hard cap on one frame's body, protecting the reader from adversarial
/// length prefixes (256 MiB comfortably holds a 32M-feature dense model).
pub const MAX_BODY: usize = 256 << 20;

/// Outcome of a `PushGradient`, carried by [`Response::PushAck`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushStatus {
    /// The push was queued for aggregation.
    Accepted,
    /// The round already closed; the worker should re-pull and catch up.
    Stale,
    /// Training is complete; no more pushes are needed.
    Done,
    /// The bounded push queue was full; retry after a short pause.
    Backpressure,
}

impl PushStatus {
    fn to_u8(self) -> u8 {
        match self {
            PushStatus::Accepted => 0,
            PushStatus::Stale => 1,
            PushStatus::Done => 2,
            PushStatus::Backpressure => 3,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0 => PushStatus::Accepted,
            1 => PushStatus::Stale,
            2 => PushStatus::Done,
            3 => PushStatus::Backpressure,
            _ => return None,
        })
    }
}

/// One sparse instance of a `Predict` request: ascending feature indices
/// plus their values.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictInstance {
    /// Strictly ascending feature indices.
    pub indices: Vec<u32>,
    /// Feature values, parallel to `indices`.
    pub values: Vec<f64>,
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Opens a session: the client's supported protocol version range.
    Hello {
        /// Lowest version the client speaks.
        min_version: u16,
        /// Highest version the client speaks.
        max_version: u16,
    },
    /// Asks for the serialized training setup (the server is the single
    /// config authority, so a recovering worker needs only address + id).
    GetConfig,
    /// Fetches the model snapshot for `round`; with `wait`, blocks until
    /// the store has advanced to at least that round (or training is done).
    PullModel {
        /// Requesting worker id (0-based), for logs/stats.
        worker: u32,
        /// Round whose model the worker wants.
        round: u64,
        /// Block server-side until the round is available.
        wait: bool,
    },
    /// A worker's compressed contribution for one round.
    PushGradient {
        /// Pushing worker id (0-based).
        worker: u32,
        /// Global round the gradient was computed against.
        round: u64,
        /// Sum of per-instance losses over the worker's slice.
        loss_sum: f64,
        /// Number of instances in the worker's slice.
        instances: u64,
        /// Compressed gradient bytes (opaque codec frame).
        payload: Vec<u8>,
    },
    /// Scores a batch of sparse instances against the live model.
    Predict {
        /// Instances to score.
        instances: Vec<PredictInstance>,
    },
    /// Fetches the latest end-of-epoch checkpoint (serialized bytes).
    GetCheckpoint,
    /// Fetches a JSON summary of server counters.
    GetStats,
    /// Asks the server to stop serving (used by tests and the CLI).
    Shutdown,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Accepts the session at the negotiated version.
    HelloAck {
        /// Version both sides will speak.
        version: u16,
    },
    /// The serialized [`ServeSetup`](crate::server::ServeSetup) JSON.
    Config {
        /// JSON document.
        json: String,
    },
    /// A model snapshot.
    Model {
        /// Rounds of training baked into these weights.
        round: u64,
        /// Epochs completed.
        epoch: u32,
        /// Whether training has finished.
        done: bool,
        /// Dense weight vector.
        weights: Vec<f64>,
    },
    /// Acknowledges a push.
    PushAck {
        /// What happened to the push.
        status: PushStatus,
        /// The server's current round at the time of the ack.
        round: u64,
    },
    /// Scores for a `Predict` batch, in request order.
    Prediction {
        /// Raw model scores (margins), one per instance.
        scores: Vec<f64>,
    },
    /// The latest checkpoint.
    CheckpointBlob {
        /// Epochs the checkpoint covers.
        epochs_done: u64,
        /// Serialized [`Checkpoint`](sketchml_ml::Checkpoint) bytes.
        bytes: Vec<u8>,
    },
    /// JSON counter summary.
    Stats {
        /// JSON document.
        json: String,
    },
    /// Confirms a shutdown request.
    ShutdownAck,
    /// A typed failure.
    Error {
        /// Machine-readable class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

// --- frame kinds -----------------------------------------------------------

const K_HELLO: u8 = 0x01;
const K_HELLO_ACK: u8 = 0x02;
const K_GET_CONFIG: u8 = 0x03;
const K_CONFIG: u8 = 0x04;
const K_PULL_MODEL: u8 = 0x05;
const K_MODEL: u8 = 0x06;
const K_PUSH_GRADIENT: u8 = 0x07;
const K_PUSH_ACK: u8 = 0x08;
const K_PREDICT: u8 = 0x09;
const K_PREDICTION: u8 = 0x0A;
const K_GET_CHECKPOINT: u8 = 0x0B;
const K_CHECKPOINT_BLOB: u8 = 0x0C;
const K_GET_STATS: u8 = 0x0D;
const K_STATS: u8 = 0x0E;
const K_SHUTDOWN: u8 = 0x0F;
const K_SHUTDOWN_ACK: u8 = 0x10;
const K_ERROR: u8 = 0x7F;

// --- body cursor -----------------------------------------------------------

/// Bounds-checked little-endian cursor over one frame body. Every accessor
/// returns a typed error on underrun — malformed bodies can never panic the
/// handler thread.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                NetError::Protocol(format!(
                    "body underrun: wanted {n} bytes at offset {} of {}",
                    self.pos,
                    self.buf.len()
                ))
            })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, NetError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, NetError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2B")))
    }

    fn u32(&mut self) -> Result<u32, NetError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4B")))
    }

    fn u64(&mut self) -> Result<u64, NetError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8B")))
    }

    fn f64(&mut self) -> Result<f64, NetError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8B")))
    }

    /// A u32-counted block of f64s, bounds-checked once and decoded in one
    /// pass.
    fn f64s(&mut self) -> Result<Vec<f64>, NetError> {
        let n = self.count(8)?;
        Ok(self
            .take(8 * n)?
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().expect("8B")))
            .collect())
    }

    /// A u32-length-prefixed byte section.
    fn bytes(&mut self) -> Result<Vec<u8>, NetError> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    fn string(&mut self) -> Result<String, NetError> {
        String::from_utf8(self.bytes()?)
            .map_err(|_| NetError::Protocol("string section is not UTF-8".into()))
    }

    /// A count of items about to be decoded, sanity-bounded so a forged
    /// count cannot trigger a huge allocation before the underrun check.
    fn count(&mut self, bytes_per_item: usize) -> Result<usize, NetError> {
        let n = self.u32()? as usize;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(bytes_per_item.max(1)) > remaining {
            return Err(NetError::Protocol(format!(
                "count {n} x {bytes_per_item}B exceeds the {remaining}B left in the body"
            )));
        }
        Ok(n)
    }

    fn finish(self) -> Result<(), NetError> {
        if self.pos != self.buf.len() {
            return Err(NetError::Protocol(format!(
                "{} trailing bytes after the message body",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Appends a u32 count followed by the f64s, sizing `out` once.
fn put_f64s(out: &mut Vec<u8>, values: &[f64]) {
    out.extend_from_slice(&(values.len() as u32).to_le_bytes());
    let start = out.len();
    out.resize(start + 8 * values.len(), 0);
    for (dst, v) in out[start..].chunks_exact_mut(8).zip(values) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

// --- framing ---------------------------------------------------------------

fn write_frame(w: &mut impl Write, kind: u8, body: &[u8]) -> Result<(), NetError> {
    if body.len() > MAX_BODY {
        return Err(NetError::Protocol(format!(
            "outgoing body of {} bytes exceeds MAX_BODY {MAX_BODY}",
            body.len()
        )));
    }
    let mut header = [0u8; 6];
    header[0] = MAGIC;
    header[1] = kind;
    header[2..6].copy_from_slice(&(body.len() as u32).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(body)?;
    w.flush()?;
    Ok(())
}

/// Reads one raw frame: `(kind, body)`. Blocks until the full frame has
/// arrived (partial reads reassemble via `read_exact`).
fn read_frame(r: &mut impl Read) -> Result<(u8, Vec<u8>), NetError> {
    let mut header = [0u8; 6];
    r.read_exact(&mut header)?;
    if header[0] != MAGIC {
        return Err(NetError::Protocol(format!(
            "bad frame magic 0x{:02X} (expected 0x{MAGIC:02X})",
            header[0]
        )));
    }
    let kind = header[1];
    let len = u32::from_le_bytes(header[2..6].try_into().expect("4B")) as usize;
    if len > MAX_BODY {
        return Err(NetError::Protocol(format!(
            "frame body of {len} bytes exceeds MAX_BODY {MAX_BODY}"
        )));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok((kind, body))
}

impl Request {
    /// Serializes the request as one frame.
    ///
    /// # Errors
    /// [`NetError::Io`] on write failure, [`NetError::Protocol`] if the body
    /// exceeds [`MAX_BODY`].
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), NetError> {
        let mut body = Vec::new();
        let kind = match self {
            Request::Hello {
                min_version,
                max_version,
            } => {
                body.extend_from_slice(&min_version.to_le_bytes());
                body.extend_from_slice(&max_version.to_le_bytes());
                K_HELLO
            }
            Request::GetConfig => K_GET_CONFIG,
            Request::PullModel {
                worker,
                round,
                wait,
            } => {
                body.extend_from_slice(&worker.to_le_bytes());
                body.extend_from_slice(&round.to_le_bytes());
                body.push(u8::from(*wait));
                K_PULL_MODEL
            }
            Request::PushGradient {
                worker,
                round,
                loss_sum,
                instances,
                payload,
            } => {
                body.extend_from_slice(&worker.to_le_bytes());
                body.extend_from_slice(&round.to_le_bytes());
                body.extend_from_slice(&loss_sum.to_le_bytes());
                body.extend_from_slice(&instances.to_le_bytes());
                put_bytes(&mut body, payload);
                K_PUSH_GRADIENT
            }
            Request::Predict { instances } => {
                body.extend_from_slice(&(instances.len() as u32).to_le_bytes());
                for inst in instances {
                    body.extend_from_slice(&(inst.indices.len() as u32).to_le_bytes());
                    for (&i, &v) in inst.indices.iter().zip(&inst.values) {
                        body.extend_from_slice(&i.to_le_bytes());
                        body.extend_from_slice(&v.to_le_bytes());
                    }
                }
                K_PREDICT
            }
            Request::GetCheckpoint => K_GET_CHECKPOINT,
            Request::GetStats => K_GET_STATS,
            Request::Shutdown => K_SHUTDOWN,
        };
        write_frame(w, kind, &body)
    }

    /// Reads and decodes one request frame.
    ///
    /// # Errors
    /// [`NetError::Io`] on a truncated stream, [`NetError::Protocol`] on any
    /// grammar violation. Never panics.
    pub fn read_from(r: &mut impl Read) -> Result<Self, NetError> {
        let (kind, body) = read_frame(r)?;
        let mut c = Cursor::new(&body);
        let req = match kind {
            K_HELLO => Request::Hello {
                min_version: c.u16()?,
                max_version: c.u16()?,
            },
            K_GET_CONFIG => Request::GetConfig,
            K_PULL_MODEL => Request::PullModel {
                worker: c.u32()?,
                round: c.u64()?,
                wait: c.u8()? != 0,
            },
            K_PUSH_GRADIENT => Request::PushGradient {
                worker: c.u32()?,
                round: c.u64()?,
                loss_sum: c.f64()?,
                instances: c.u64()?,
                payload: c.bytes()?,
            },
            K_PREDICT => {
                let n = c.count(4)?;
                let mut instances = Vec::with_capacity(n);
                for _ in 0..n {
                    let nnz = c.count(12)?;
                    let mut indices = Vec::with_capacity(nnz);
                    let mut values = Vec::with_capacity(nnz);
                    for _ in 0..nnz {
                        indices.push(c.u32()?);
                        values.push(c.f64()?);
                    }
                    instances.push(PredictInstance { indices, values });
                }
                Request::Predict { instances }
            }
            K_GET_CHECKPOINT => Request::GetCheckpoint,
            K_GET_STATS => Request::GetStats,
            K_SHUTDOWN => Request::Shutdown,
            other => {
                return Err(NetError::Protocol(format!(
                    "unknown request kind 0x{other:02X}"
                )))
            }
        };
        c.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Serializes the response as one frame.
    ///
    /// # Errors
    /// [`NetError::Io`] on write failure, [`NetError::Protocol`] if the body
    /// exceeds [`MAX_BODY`].
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), NetError> {
        let mut body = Vec::new();
        let kind = match self {
            Response::HelloAck { version } => {
                body.extend_from_slice(&version.to_le_bytes());
                K_HELLO_ACK
            }
            Response::Config { json } => {
                put_bytes(&mut body, json.as_bytes());
                K_CONFIG
            }
            Response::Model {
                round,
                epoch,
                done,
                weights,
            } => return Response::write_model_to(w, *round, *epoch, *done, weights),
            Response::PushAck { status, round } => {
                body.push(status.to_u8());
                body.extend_from_slice(&round.to_le_bytes());
                K_PUSH_ACK
            }
            Response::Prediction { scores } => {
                put_f64s(&mut body, scores);
                K_PREDICTION
            }
            Response::CheckpointBlob { epochs_done, bytes } => {
                body.extend_from_slice(&epochs_done.to_le_bytes());
                put_bytes(&mut body, bytes);
                K_CHECKPOINT_BLOB
            }
            Response::Stats { json } => {
                put_bytes(&mut body, json.as_bytes());
                K_STATS
            }
            Response::ShutdownAck => K_SHUTDOWN_ACK,
            Response::Error { code, message } => {
                body.extend_from_slice(&code.to_u16().to_le_bytes());
                put_bytes(&mut body, message.as_bytes());
                K_ERROR
            }
        };
        write_frame(w, kind, &body)
    }

    /// Writes a [`Response::Model`] frame straight from borrowed weights,
    /// byte-identical to building the variant and calling
    /// [`write_to`](Self::write_to) but without copying the weight vector
    /// into an owned response first.
    ///
    /// # Errors
    /// As [`write_to`](Self::write_to).
    pub fn write_model_to(
        w: &mut impl Write,
        round: u64,
        epoch: u32,
        done: bool,
        weights: &[f64],
    ) -> Result<(), NetError> {
        let mut body = Vec::with_capacity(8 + 4 + 1 + 4 + 8 * weights.len());
        body.extend_from_slice(&round.to_le_bytes());
        body.extend_from_slice(&epoch.to_le_bytes());
        body.push(u8::from(done));
        put_f64s(&mut body, weights);
        write_frame(w, K_MODEL, &body)
    }

    /// Reads and decodes one response frame.
    ///
    /// # Errors
    /// [`NetError::Io`] on a truncated stream, [`NetError::Protocol`] on any
    /// grammar violation. Never panics.
    pub fn read_from(r: &mut impl Read) -> Result<Self, NetError> {
        let (kind, body) = read_frame(r)?;
        let mut c = Cursor::new(&body);
        let resp = match kind {
            K_HELLO_ACK => Response::HelloAck { version: c.u16()? },
            K_CONFIG => Response::Config { json: c.string()? },
            K_MODEL => Response::Model {
                round: c.u64()?,
                epoch: c.u32()?,
                done: c.u8()? != 0,
                weights: c.f64s()?,
            },
            K_PUSH_ACK => {
                let raw = c.u8()?;
                let status = PushStatus::from_u8(raw)
                    .ok_or_else(|| NetError::Protocol(format!("unknown push status {raw}")))?;
                Response::PushAck {
                    status,
                    round: c.u64()?,
                }
            }
            K_PREDICTION => Response::Prediction { scores: c.f64s()? },
            K_CHECKPOINT_BLOB => Response::CheckpointBlob {
                epochs_done: c.u64()?,
                bytes: c.bytes()?,
            },
            K_STATS => Response::Stats { json: c.string()? },
            K_SHUTDOWN_ACK => Response::ShutdownAck,
            K_ERROR => {
                let raw = c.u16()?;
                let code = ErrorCode::from_u16(raw)
                    .ok_or_else(|| NetError::Protocol(format!("unknown error code {raw}")))?;
                Response::Error {
                    code,
                    message: c.string()?,
                }
            }
            other => {
                return Err(NetError::Protocol(format!(
                    "unknown response kind 0x{other:02X}"
                )))
            }
        };
        c.finish()?;
        Ok(resp)
    }

    /// Converts an `Error` response into `Err(NetError::Remote)`, passing
    /// every other response through.
    ///
    /// # Errors
    /// [`NetError::Remote`] when `self` is [`Response::Error`].
    pub fn into_result(self) -> Result<Response, NetError> {
        match self {
            Response::Error { code, message } => Err(NetError::Remote { code, message }),
            other => Ok(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: &Request) -> Request {
        let mut buf = Vec::new();
        req.write_to(&mut buf).unwrap();
        Request::read_from(&mut buf.as_slice()).unwrap()
    }

    fn roundtrip_resp(resp: &Response) -> Response {
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        Response::read_from(&mut buf.as_slice()).unwrap()
    }

    #[test]
    fn every_request_roundtrips() {
        for req in [
            Request::Hello {
                min_version: 1,
                max_version: 3,
            },
            Request::GetConfig,
            Request::PullModel {
                worker: 2,
                round: 77,
                wait: true,
            },
            Request::PushGradient {
                worker: 3,
                round: 12,
                loss_sum: -0.75,
                instances: 40,
                payload: vec![0xDE, 0xAD, 0xBE, 0xEF],
            },
            Request::Predict {
                instances: vec![
                    PredictInstance {
                        indices: vec![1, 7, 9],
                        values: vec![0.5, -0.25, 2.0],
                    },
                    PredictInstance {
                        indices: vec![],
                        values: vec![],
                    },
                ],
            },
            Request::GetCheckpoint,
            Request::GetStats,
            Request::Shutdown,
        ] {
            assert_eq!(roundtrip_req(&req), req);
        }
    }

    #[test]
    fn every_response_roundtrips() {
        for resp in [
            Response::HelloAck { version: 1 },
            Response::Config {
                json: "{\"workers\":4}".into(),
            },
            Response::Model {
                round: 9,
                epoch: 2,
                done: false,
                weights: vec![0.0, -1.5, 3.25],
            },
            Response::PushAck {
                status: PushStatus::Stale,
                round: 10,
            },
            Response::Prediction {
                scores: vec![0.1, -0.9],
            },
            Response::CheckpointBlob {
                epochs_done: 3,
                bytes: vec![1, 2, 3],
            },
            Response::Stats { json: "{}".into() },
            Response::ShutdownAck,
            Response::Error {
                code: ErrorCode::Backpressure,
                message: "queue full".into(),
            },
        ] {
            assert_eq!(roundtrip_resp(&resp), resp);
        }
    }

    #[test]
    fn bad_magic_kind_and_lengths_fail_typed() {
        // Bad magic.
        let err = Request::read_from(&mut [0x00u8, 0x01, 0, 0, 0, 0].as_slice()).unwrap_err();
        assert!(matches!(err, NetError::Protocol(_)), "{err}");
        // Unknown kind.
        let err = Request::read_from(&mut [MAGIC, 0x66, 0, 0, 0, 0].as_slice()).unwrap_err();
        assert!(matches!(err, NetError::Protocol(_)), "{err}");
        // Oversized length prefix.
        let mut huge = vec![MAGIC, K_PUSH_GRADIENT];
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = Request::read_from(&mut huge.as_slice()).unwrap_err();
        assert!(matches!(err, NetError::Protocol(_)), "{err}");
        // Truncated body: Io, not a panic.
        let mut buf = Vec::new();
        Request::GetStats.write_to(&mut buf).unwrap();
        buf[2] = 40; // claim a 40-byte body that never arrives
        let err = Request::read_from(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, NetError::Io(_)), "{err}");
        // Trailing garbage after a valid body.
        let mut buf = Vec::new();
        Request::PullModel {
            worker: 0,
            round: 1,
            wait: false,
        }
        .write_to(&mut buf)
        .unwrap();
        let body_len = buf.len() - 6;
        buf[2] = (body_len + 3) as u8;
        buf.extend_from_slice(&[9, 9, 9]);
        let err = Request::read_from(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, NetError::Protocol(_)), "{err}");
    }

    #[test]
    fn forged_counts_fail_before_allocating() {
        // A Predict frame claiming 2^31 instances in a 12-byte body.
        let mut body = Vec::new();
        body.extend_from_slice(&(1u32 << 31).to_le_bytes());
        body.extend_from_slice(&[0; 8]);
        let mut buf = vec![MAGIC, K_PREDICT];
        buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        buf.extend_from_slice(&body);
        let err = Request::read_from(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, NetError::Protocol(_)), "{err}");
    }

    #[test]
    fn error_response_converts_to_remote_error() {
        let resp = Response::Error {
            code: ErrorCode::BadState,
            message: "not training".into(),
        };
        let err = resp.into_result().unwrap_err();
        assert!(matches!(
            err,
            NetError::Remote {
                code: ErrorCode::BadState,
                ..
            }
        ));
        assert!(Response::ShutdownAck.into_result().is_ok());
    }
}
