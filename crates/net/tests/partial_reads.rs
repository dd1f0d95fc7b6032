//! Frame decode over partial stream reads.
//!
//! TCP gives no message boundaries: a request frame carrying a valid
//! SketchML v2 (or Count-Sketch CSK) gradient payload can arrive split at
//! ANY byte boundary across multiple socket reads. These tests split such
//! a frame at every boundary across two socket writes and require the
//! reader to either reassemble it exactly or fail with a typed error —
//! never panic, never misparse.

#![cfg(unix)]

use sketchml_core::{compressor_by_name, SparseGradient};
use sketchml_net::{NetError, PushStatus, Request, Response};
use std::io::{BufReader, Read, Write};
use std::os::unix::net::UnixStream;

/// Encodes a request into its exact wire bytes.
fn request_bytes(req: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    req.write_to(&mut buf).unwrap();
    buf
}

fn response_bytes(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    resp.write_to(&mut buf).unwrap();
    buf
}

/// A small but non-trivial gradient: irregular keys, mixed-sign values.
fn gradient(dim: u64, nnz: usize) -> SparseGradient {
    let keys: Vec<u64> = (0..nnz as u64).map(|i| (i * 37 + 5) % dim).collect();
    let mut keys: Vec<u64> = {
        let mut k = keys;
        k.sort_unstable();
        k.dedup();
        k
    };
    keys.truncate(nnz);
    let values: Vec<f64> = keys
        .iter()
        .map(|&k| {
            if k % 2 == 0 {
                0.25 + k as f64
            } else {
                -(k as f64) / 3.0
            }
        })
        .collect();
    SparseGradient::new(dim, keys, values).unwrap()
}

/// A `PushGradient` request whose payload is a real compressed frame from
/// the registry compressor `name`.
fn push_request(name: &str) -> (Request, SparseGradient) {
    let compressor = compressor_by_name(name).unwrap();
    let grad = gradient(1 << 14, 48);
    let compressed = compressor.compress(&grad).unwrap();
    (
        Request::PushGradient {
            worker: 3,
            round: 17,
            loss_sum: 2.5,
            instances: 64,
            payload: compressed.payload.to_vec(),
        },
        grad,
    )
}

/// Writes `bytes[..split]`, yields to let the reader consume the partial
/// prefix, then writes the rest. The reader must reassemble.
fn split_write(
    mut sender: UnixStream,
    bytes: Vec<u8>,
    split: usize,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        sender.write_all(&bytes[..split]).unwrap();
        sender.flush().unwrap();
        // Give the reader a chance to attempt (and block on) a short read.
        std::thread::yield_now();
        sender.write_all(&bytes[split..]).unwrap();
        sender.flush().unwrap();
    })
}

#[test]
fn v2_frame_reassembles_at_every_split_boundary() {
    let (req, grad) = push_request("sketchml");
    let bytes = request_bytes(&req);
    let compressor = compressor_by_name("sketchml").unwrap();
    for split in 0..=bytes.len() {
        let (sender, receiver) = UnixStream::pair().unwrap();
        let writer = split_write(sender, bytes.clone(), split);
        let mut reader = BufReader::new(receiver);
        let decoded = Request::read_from(&mut reader)
            .unwrap_or_else(|e| panic!("split at byte {split}: {e}"));
        writer.join().unwrap();
        let Request::PushGradient {
            worker,
            round,
            payload,
            ..
        } = &decoded
        else {
            panic!("split at byte {split}: wrong variant {decoded:?}");
        };
        assert_eq!((*worker, *round), (3, 17), "split at byte {split}");
        // The reassembled payload must still be a decodable v2 frame.
        let recovered = compressor.decompress(payload).unwrap();
        assert_eq!(recovered.dim(), grad.dim(), "split at byte {split}");
    }
}

#[test]
fn csk_frame_reassembles_at_every_split_boundary() {
    // Count-Sketch frames exercise a different payload grammar (CSK magic,
    // table + heavy-hitter sections) under the same transport splitting.
    let (req, grad) = push_request("countsketch:4x512:16");
    let bytes = request_bytes(&req);
    let compressor = compressor_by_name("countsketch:4x512:16").unwrap();
    for split in 0..=bytes.len() {
        let (sender, receiver) = UnixStream::pair().unwrap();
        let writer = split_write(sender, bytes.clone(), split);
        let mut reader = BufReader::new(receiver);
        let decoded = Request::read_from(&mut reader)
            .unwrap_or_else(|e| panic!("split at byte {split}: {e}"));
        writer.join().unwrap();
        let Request::PushGradient { payload, .. } = &decoded else {
            panic!("split at byte {split}: wrong variant");
        };
        let recovered = compressor.decompress(payload).unwrap();
        assert_eq!(recovered.dim(), grad.dim(), "split at byte {split}");
    }
}

#[test]
fn response_frame_reassembles_at_every_split_boundary() {
    let resp = Response::Model {
        round: 9,
        epoch: 2,
        done: false,
        weights: (0..257).map(|i| i as f64 / 7.0).collect(),
    };
    let bytes = response_bytes(&resp);
    // Sample every boundary in the header + first section, then stride
    // through the (homogeneous) weight block to keep the test fast.
    let boundaries: Vec<usize> = (0..=bytes.len())
        .filter(|&i| i <= 64 || i >= bytes.len() - 64 || i % 97 == 0)
        .collect();
    for split in boundaries {
        let (sender, receiver) = UnixStream::pair().unwrap();
        let writer = split_write(sender, bytes.clone(), split);
        let mut reader = BufReader::new(receiver);
        let decoded = Response::read_from(&mut reader)
            .unwrap_or_else(|e| panic!("split at byte {split}: {e}"));
        writer.join().unwrap();
        let Response::Model { round, weights, .. } = decoded else {
            panic!("split at byte {split}: wrong variant");
        };
        assert_eq!(round, 9, "split at byte {split}");
        assert_eq!(weights.len(), 257, "split at byte {split}");
    }
}

#[test]
fn truncated_stream_fails_typed_at_every_boundary_never_panics() {
    let (req, _) = push_request("sketchml");
    let bytes = request_bytes(&req);
    for cut in 0..bytes.len() {
        let (mut sender, receiver) = UnixStream::pair().unwrap();
        sender.write_all(&bytes[..cut]).unwrap();
        drop(sender); // EOF mid-frame
        let mut reader = BufReader::new(receiver);
        match Request::read_from(&mut reader) {
            Ok(decoded) => panic!("cut at byte {cut}: decoded {decoded:?} from a truncated stream"),
            // Typed failure is the contract: EOF surfaces as Io, a
            // headerless sliver as Protocol. Panics fail the test runner.
            Err(NetError::Io(_)) | Err(NetError::Protocol(_)) => {}
            Err(other) => panic!("cut at byte {cut}: wrong error class {other}"),
        }
    }
}

#[test]
fn garbage_after_partial_header_fails_typed() {
    // A valid prefix spliced with garbage must fail typed, not panic or
    // hang: corrupt the byte right after each split point.
    let ack = response_bytes(&Response::PushAck {
        status: PushStatus::Accepted,
        round: 4,
    });
    for split in 0..ack.len() {
        let mut corrupted = ack.clone();
        corrupted[split] ^= 0xFF;
        let (mut sender, receiver) = UnixStream::pair().unwrap();
        sender.write_all(&corrupted).unwrap();
        drop(sender);
        let mut reader = BufReader::new(receiver);
        match Response::read_from(&mut reader) {
            // Flipping a bit in (say) the round field still decodes — that
            // is CRC territory for the inner gradient frames, not the outer
            // envelope. What must never happen is a panic or an untyped
            // error.
            Ok(_) => {}
            Err(NetError::Io(_)) | Err(NetError::Protocol(_)) => {}
            Err(other) => panic!("corrupt at byte {split}: wrong error class {other}"),
        }
    }
}

#[test]
fn byte_at_a_time_delivery_reassembles() {
    // The pathological case: every byte in its own segment.
    let (req, _) = push_request("countsketch:4x512:16");
    let bytes = request_bytes(&req);
    let (mut sender, receiver) = UnixStream::pair().unwrap();
    let writer = std::thread::spawn(move || {
        for b in bytes {
            sender.write_all(&[b]).unwrap();
            sender.flush().unwrap();
        }
    });
    let mut reader = BufReader::new(receiver);
    let decoded = Request::read_from(&mut reader).unwrap();
    writer.join().unwrap();
    assert!(matches!(decoded, Request::PushGradient { round: 17, .. }));
    // Nothing may remain buffered: exactly one frame was sent.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
}

/// A `Model` response's wire bytes.
fn model_bytes(weights: &[f64]) -> Vec<u8> {
    response_bytes(&Response::Model {
        round: 9,
        epoch: 2,
        done: true,
        weights: weights.to_vec(),
    })
}

#[test]
fn borrowed_model_writer_matches_the_owned_response() {
    let cases: [Vec<f64>; 4] = [
        vec![],
        vec![0.5],
        (0..257).map(|i| i as f64 / 7.0 - 3.0).collect(),
        vec![f64::NAN, -0.0, f64::INFINITY, f64::MIN_POSITIVE, f64::MAX],
    ];
    for weights in cases {
        let mut borrowed = Vec::new();
        Response::write_model_to(&mut borrowed, 9, 2, true, &weights).unwrap();
        assert_eq!(borrowed, model_bytes(&weights), "{} weights", weights.len());
        // Header, round, epoch, done flag, count, then 8 bytes per weight.
        assert_eq!(borrowed.len(), 6 + 8 + 4 + 1 + 4 + 8 * weights.len());
        let Response::Model { weights: back, .. } =
            Response::read_from(&mut borrowed.as_slice()).unwrap()
        else {
            panic!("wrong variant");
        };
        let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&weights));
    }
}

#[test]
fn forged_or_truncated_weight_blocks_fail_typed_at_every_split() {
    let weights: Vec<f64> = (0..32).map(|i| i as f64 * 0.5 - 4.0).collect();
    let good = model_bytes(&weights);
    let count_at = 6 + 8 + 4 + 1;
    // Re-frames an edited body so the outer length prefix stays consistent
    // and only the weight block itself is wrong.
    let reframe = |body: &[u8]| {
        let mut frame = good[..2].to_vec();
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(body);
        frame
    };
    let with_count = |n: u32| {
        let mut body = good[6..].to_vec();
        body[count_at - 6..count_at - 2].copy_from_slice(&n.to_le_bytes());
        reframe(&body)
    };
    let cases = [
        ("count one past the block", with_count(33)),
        ("count u32::MAX", with_count(u32::MAX)),
        ("count one short of the block", with_count(31)),
        ("block cut mid-weight", reframe(&good[6..good.len() - 3])),
        (
            "block cut a whole weight short",
            reframe(&good[6..good.len() - 8]),
        ),
    ];
    for (name, frame) in cases {
        for split in 0..=frame.len() {
            let (sender, receiver) = UnixStream::pair().unwrap();
            let writer = split_write(sender, frame.clone(), split);
            let mut reader = BufReader::new(receiver);
            match Response::read_from(&mut reader) {
                Err(NetError::Protocol(_)) => {}
                Ok(_) => panic!("{name}, split at byte {split}: decoded"),
                Err(other) => panic!("{name}, split at byte {split}: wrong error class {other}"),
            }
            writer.join().unwrap();
        }
    }
    // A stream that ends inside the weight block is an Io error at every cut.
    for cut in count_at + 4..good.len() {
        let (mut sender, receiver) = UnixStream::pair().unwrap();
        sender.write_all(&good[..cut]).unwrap();
        drop(sender);
        let err = Response::read_from(&mut BufReader::new(receiver)).unwrap_err();
        assert!(matches!(err, NetError::Io(_)), "cut at byte {cut}: {err}");
    }
}
