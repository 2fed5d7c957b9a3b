//! Codec replay: frames captured by the traced run go back through the
//! `refil-wire` codec (and captured compressed updates through
//! reconstruction and compression) after the run, giving the codec's cost
//! on the workload's real traffic without timing inside the program.

use std::collections::HashMap;
use std::time::Instant;

use refil_fed::{CompressedModelUpdate, CompressionSpec, WireMessage};

/// Codec cost over a set of captured frames.
#[derive(Debug, Default)]
pub struct CodecReplay {
    pub frames: usize,
    pub bytes: u64,
    pub decode_ns: u64,
    pub encode_ns: u64,
    /// Frames that failed to decode or did not re-encode to the same bytes.
    pub mismatches: usize,
}

impl CodecReplay {
    /// Folds another replay's totals into this one.
    pub fn add(&mut self, other: &CodecReplay) {
        self.frames += other.frames;
        self.bytes += other.bytes;
        self.decode_ns += other.decode_ns;
        self.encode_ns += other.encode_ns;
        self.mismatches += other.mismatches;
    }

    fn mb(&self) -> f64 {
        self.bytes as f64 / 1e6
    }

    pub fn decode_ms_per_mb(&self) -> f64 {
        if self.bytes == 0 {
            0.0
        } else {
            self.decode_ns as f64 / 1e6 / self.mb()
        }
    }

    pub fn encode_ms_per_mb(&self) -> f64 {
        if self.bytes == 0 {
            0.0
        } else {
            self.encode_ns as f64 / 1e6 / self.mb()
        }
    }
}

/// The payload frames a control frame carries, which a receiver decodes too.
fn nested(msg: &WireMessage) -> Vec<&[u8]> {
    match msg {
        WireMessage::RoundStart(rs) => {
            let mut out = vec![rs.model.as_slice()];
            out.extend(rs.extra.as_deref());
            out
        }
        WireMessage::SessionResult(sr) => {
            let mut out = vec![sr.update.as_slice()];
            out.extend(sr.merge.as_deref());
            out
        }
        WireMessage::RoundSync(sync) => sync.merges.iter().map(|(_, f)| f.as_slice()).collect(),
        _ => Vec::new(),
    }
}

/// Decodes every frame (and the payload frames nested in it), then encodes
/// the decoded messages again, timing each direction. A frame that does not
/// re-encode to its captured bytes counts as a mismatch.
pub fn codec(frames: &[Vec<u8>]) -> CodecReplay {
    let mut out = CodecReplay::default();
    for frame in frames {
        out.frames += 1;
        out.bytes += frame.len() as u64;
        let start = Instant::now();
        let Ok(msg) = WireMessage::decode(frame) else {
            out.mismatches += 1;
            continue;
        };
        let inner: Result<Vec<WireMessage>, _> =
            nested(&msg).into_iter().map(WireMessage::decode).collect();
        out.decode_ns += start.elapsed().as_nanos() as u64;
        let Ok(inner) = inner else {
            out.mismatches += 1;
            continue;
        };
        let start = Instant::now();
        let inner_frames: Vec<Vec<u8>> = inner.iter().map(WireMessage::encode).collect();
        let again = msg.encode();
        out.encode_ns += start.elapsed().as_nanos() as u64;
        let inner_same = nested(&msg)
            .iter()
            .zip(&inner_frames)
            .all(|(a, b)| *a == b.as_slice());
        if again != *frame || !inner_same {
            out.mismatches += 1;
        }
    }
    out
}

/// Per-update compression costs, ms.
#[derive(Debug, Default)]
pub struct CompressReplay {
    pub reconstruct_ms: Vec<f64>,
    pub compress_ms: Vec<f64>,
    /// Updates whose base broadcast was not captured or that failed to
    /// reconstruct.
    pub failures: usize,
}

/// Broadcast models by `(task, round)`, from captured downlink frames:
/// plain `ModelBroadcast`s (in-process links) or the ones nested in
/// `RoundStart`s (served runs).
fn bases(tx: &[Vec<u8>]) -> HashMap<(u32, u32), Vec<f32>> {
    let mut out = HashMap::new();
    for frame in tx {
        let model = match WireMessage::decode(frame) {
            Ok(WireMessage::ModelBroadcast(m)) => m,
            Ok(WireMessage::RoundStart(rs)) => match WireMessage::decode(&rs.model) {
                Ok(WireMessage::ModelBroadcast(m)) => m,
                _ => continue,
            },
            _ => continue,
        };
        out.entry((model.task, model.round)).or_insert(model.model);
    }
    out
}

/// Compressed updates in captured uplink frames: bare (in-process links) or
/// nested in `SessionResult`s (served runs).
fn updates(rx: &[Vec<u8>]) -> Vec<CompressedModelUpdate> {
    let mut out = Vec::new();
    for frame in rx {
        match WireMessage::decode(frame) {
            Ok(WireMessage::CompressedModelUpdate(c)) => out.push(c),
            Ok(WireMessage::SessionResult(sr)) => {
                if let Ok(WireMessage::CompressedModelUpdate(c)) = WireMessage::decode(&sr.update) {
                    out.push(c);
                }
            }
            _ => {}
        }
    }
    out
}

/// Replays every captured compressed update: reconstruction against its
/// captured base broadcast, then compression of the reconstructed vector
/// under the run's spec.
pub fn compression(tx: &[Vec<u8>], rx: &[Vec<u8>], spec: &CompressionSpec) -> CompressReplay {
    let bases = bases(tx);
    let mut out = CompressReplay::default();
    for update in updates(rx) {
        let Some(base) = bases.get(&(update.base_task, update.base_round)) else {
            out.failures += 1;
            continue;
        };
        let start = Instant::now();
        let Ok(flat) = update.reconstruct(base) else {
            out.failures += 1;
            continue;
        };
        out.reconstruct_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        let again = CompressedModelUpdate::compress(
            spec,
            None,
            update.client_id,
            update.weight,
            &flat,
            base,
            update.base_task,
            update.base_round,
        );
        out.compress_ms.push(start.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(again);
    }
    out
}
