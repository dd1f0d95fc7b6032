//! Codec-stage replay: re-runs the stages of a SketchML encode on a worker
//! gradient through each stage's public function, so the traced run can
//! split `core.encode_s` into quantile build + bucketize, MinMaxSketch
//! insert and key encode without instrumenting the codec. The replay runs
//! outside the training round and its time is left out of the round's wall
//! time.

use crate::trace::Tracer;
use bytes::BytesMut;
use sketchml_core::quantify::{quantize_into, quantize_with, QuantScratch};
use sketchml_core::{CompressError, SketchMlConfig, SparseGradient};
use sketchml_encoding::delta_binary::encode_keys_into;
use sketchml_sketches::minmax::group_seed;
use sketchml_sketches::MinMaxSketch;

/// Seed salt of the negative side; the codec keeps the same constant
/// private, and it only moves hash positions, not stage cost.
const NEG_SALT: u64 = 0x4E45_4741_5449_5645;

/// Pooled state for replaying one configuration's stages.
pub struct StageReplay {
    cfg: SketchMlConfig,
    quant: QuantScratch,
    keys_out: BytesMut,
}

impl StageReplay {
    /// Replays the stages of `cfg`'s encode.
    pub fn new(cfg: SketchMlConfig) -> Self {
        StageReplay {
            cfg,
            quant: QuantScratch::default(),
            keys_out: BytesMut::new(),
        }
    }

    /// Replays both signs of `grad`, recording `core.quantify`,
    /// `sketches.minmax_insert` and `encoding.key_encode` spans on `t`.
    ///
    /// # Errors
    /// Propagates stage failures.
    pub fn run(&mut self, t: &mut Tracer, grad: &SparseGradient) -> Result<(), CompressError> {
        let (mut pos_k, mut pos_v, mut neg_k, mut neg_v) = (vec![], vec![], vec![], vec![]);
        for (&k, &v) in grad.keys().iter().zip(grad.values()) {
            if v > 0.0 {
                pos_k.push(k);
                pos_v.push(v);
            } else {
                neg_k.push(k);
                neg_v.push(v);
            }
        }
        self.side(t, &pos_k, &pos_v, false, self.cfg.seed)?;
        self.side(t, &neg_k, &neg_v, true, self.cfg.seed ^ NEG_SALT)
    }

    fn side(
        &mut self,
        t: &mut Tracer,
        keys: &[u64],
        values: &[f64],
        negative: bool,
        seed: u64,
    ) -> Result<(), CompressError> {
        if keys.is_empty() {
            return Ok(());
        }
        let c = self.cfg;
        let quant = &mut self.quant;
        t.span("core.quantify", |_| {
            quantize_into(
                values,
                c.buckets_per_sign,
                c.quantile_sketch_capacity,
                c.bucket_cap_divisor,
                c.quantile_backend,
                quant,
            )
        })?;
        // The pooled path keeps its bucket indexes crate-private; the
        // allocating path yields the same indexes and stays out of the spans.
        let q = quantize_with(
            values,
            c.buckets_per_sign,
            c.quantile_sketch_capacity,
            c.bucket_cap_divisor,
            c.quantile_backend,
        )?;
        let nq = q.q();
        let r = c.groups.min(nq as usize);
        let cols = ((keys.len() as f64 * c.col_ratio / r as f64).ceil() as usize)
            .max(c.min_cols_per_group);
        let width = (nq as usize).div_ceil(r);
        let mut group_keys: Vec<Vec<u64>> = vec![Vec::new(); r];
        let mut group_idx: Vec<Vec<u16>> = vec![Vec::new(); r];
        for (&k, &b) in keys.iter().zip(&q.indexes) {
            let idx = if negative { nq - 1 - b } else { b };
            let g = idx as usize / width;
            group_keys[g].push(k);
            group_idx[g].push(idx);
        }
        let mut sketches = (0..r)
            .map(|g| MinMaxSketch::new(c.rows, cols, group_seed(seed, g)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| CompressError::InvalidConfig(e.to_string()))?;
        t.span("sketches.minmax_insert", |_| {
            for ((s, k), i) in sketches.iter_mut().zip(&group_keys).zip(&group_idx) {
                s.insert_batch(k, i);
            }
        });
        let out = &mut self.keys_out;
        out.clear();
        t.span("encoding.key_encode", |_| {
            for k in group_keys.iter().filter(|k| !k.is_empty()) {
                encode_keys_into(k, out)
                    .map_err(|e| CompressError::InvalidGradient(e.to_string()))?;
            }
            Ok(())
        })
    }
}
