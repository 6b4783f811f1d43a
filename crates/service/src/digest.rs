//! Canonical response digests: one FNV-1a fold over typed [`Outcome`]s.
//!
//! The single definition the `skyprob serve` and `skyprob elicit` digest
//! checks and perfbench's answer checks share. The contract is the one
//! they rely on: **equal digests ⇔ slot-for-slot bit-identical values**.
//! Floats are folded by their IEEE bit patterns, absent slots by a
//! presence byte, and every value variant by a distinct tag, so a
//! truncated slot, a `-0.0`/`+0.0` flip or a shape change can never
//! collide with a clean answer.

use presky_exact::snapshot::Fnv;

use crate::request::{Outcome, Value};

/// FNV-1a digest of a sequence of typed outcomes.
///
/// Each outcome contributes a conclusion tag (exact / estimate /
/// deadline-exceeded plus the truncation count) followed by its value in
/// a canonical little-endian layout. Batch shapes keep the historical
/// presence-byte + value-bits encoding per slot.
pub fn digest(outcomes: &[Outcome]) -> u64 {
    let mut h = Fnv::new();
    for outcome in outcomes {
        match outcome {
            Outcome::Exact(v) => {
                h.eat(&[0]);
                eat_value(&mut h, v);
            }
            Outcome::Estimate(v) => {
                h.eat(&[1]);
                eat_value(&mut h, v);
            }
            Outcome::DeadlineExceeded { partial, truncated } => {
                h.eat(&[2]);
                h.eat(&truncated.to_le_bytes());
                eat_value(&mut h, partial);
            }
        }
    }
    h.finish()
}

fn eat_value(h: &mut Fnv, value: &Value) {
    match value {
        Value::Sky(slot) => {
            h.eat(&[0]);
            match slot {
                Some(r) => {
                    h.eat(&[1]);
                    h.eat(&r.sky.to_bits().to_le_bytes());
                }
                None => h.eat(&[0]),
            }
        }
        Value::AllSky(slots) => {
            h.eat(&[1]);
            for slot in slots {
                match slot {
                    Some(r) => {
                        h.eat(&[1]);
                        h.eat(&r.sky.to_bits().to_le_bytes());
                    }
                    None => h.eat(&[0]),
                }
            }
        }
        Value::Threshold(slots) => {
            h.eat(&[2]);
            for slot in slots {
                match slot {
                    Some(a) => {
                        h.eat(&[1]);
                        h.eat(&[u8::from(a.member)]);
                    }
                    None => h.eat(&[0]),
                }
            }
        }
        Value::TopK(ranking) => {
            h.eat(&[3]);
            for r in ranking {
                h.eat(&(r.object.0 as u64).to_le_bytes());
                h.eat(&r.sky.to_bits().to_le_bytes());
            }
        }
        Value::Sensitivity(slots) => {
            h.eat(&[4]);
            for slot in slots {
                match slot {
                    Some(t) => {
                        h.eat(&[1]);
                        h.eat(&t.sky.to_bits().to_le_bytes());
                        for s in &t.sensitivities {
                            h.eat(&(s.dim.0 as u64).to_le_bytes());
                            h.eat(&(s.a.0 as u64).to_le_bytes());
                            h.eat(&(s.b.0 as u64).to_le_bytes());
                            h.eat(&s.dsky.to_bits().to_le_bytes());
                        }
                    }
                    None => h.eat(&[0]),
                }
            }
        }
        Value::ElicitationRank(candidates) => {
            h.eat(&[5]);
            for c in candidates {
                h.eat(&(c.dim.0 as u64).to_le_bytes());
                h.eat(&(c.lo.0 as u64).to_le_bytes());
                h.eat(&(c.hi.0 as u64).to_le_bytes());
                h.eat(&c.voi.to_bits().to_le_bytes());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use presky_core::types::ObjectId;
    use presky_query::prob_skyline::SkyResult;

    use super::*;

    fn sky(bits: u64) -> SkyResult {
        SkyResult { object: ObjectId(0), sky: f64::from_bits(bits), exact: true }
    }

    #[test]
    fn digest_separates_presence_truncation_and_bits() {
        let full = Outcome::Exact(Value::AllSky(vec![Some(sky(0x3fe0_0000_0000_0000))]));
        let same = Outcome::Exact(Value::AllSky(vec![Some(sky(0x3fe0_0000_0000_0000))]));
        assert_eq!(digest(std::slice::from_ref(&full)), digest(&[same]));

        let hole = Outcome::DeadlineExceeded { partial: Value::AllSky(vec![None]), truncated: 1 };
        assert_ne!(digest(std::slice::from_ref(&full)), digest(&[hole]));

        let flipped = Outcome::Exact(Value::AllSky(vec![Some(sky(0xbfe0_0000_0000_0000))]));
        assert_ne!(digest(std::slice::from_ref(&full)), digest(&[flipped]), "sign bit must matter");

        let as_sky = Outcome::Exact(Value::Sky(Some(sky(0x3fe0_0000_0000_0000))));
        assert_ne!(digest(&[full]), digest(&[as_sky]), "shape tag must matter");
    }

    #[test]
    fn digest_is_order_sensitive_over_the_sequence() {
        let a = Outcome::Exact(Value::Sky(Some(sky(1))));
        let b = Outcome::Exact(Value::Sky(Some(sky(2))));
        assert_ne!(digest(&[a.clone(), b.clone()]), digest(&[b, a]));
    }
}
