//! The correctness gate. Runs outside every timed phase; any mismatch
//! marks the run incorrect.

use std::sync::Arc;

use vmqs_microscope::kernels::reference_render;
use vmqs_microscope::{VmOp, VmQuery};
use vmqs_server::{AnswerPath, QueryResult, ServerSummary};
use vmqs_sim::SimReport;

use crate::gen::mix;

/// Answers kept per run, beyond the first few of each answer path.
const SAMPLE_CAP: usize = 32;
/// The first answers of each path are always kept, so every path the run
/// took is checked.
const PER_PATH: usize = 4;

/// One kept answer.
pub struct Sample {
    pub spec: VmQuery,
    pub image: Arc<[u8]>,
    pub path: AnswerPath,
}

/// A seeded sample of a run's answers.
pub struct Sampler {
    seed: u64,
    seen: u64,
    per_path: [usize; 4],
    pub samples: Vec<Sample>,
}

fn path_index(p: AnswerPath) -> usize {
    match p {
        AnswerPath::ExactHit => 0,
        AnswerPath::PartialReuse => 1,
        AnswerPath::FullCompute => 2,
        AnswerPath::Grafted => 3,
    }
}

impl Sampler {
    pub fn new(seed: u64) -> Self {
        Sampler {
            seed,
            seen: 0,
            per_path: [0; 4],
            samples: Vec::new(),
        }
    }

    /// Keeps `r` if it is among the first answers of its path, or if the
    /// seeded draw picks it (about one answer in 64, up to a cap).
    pub fn offer(&mut self, r: &QueryResult) {
        self.seen += 1;
        let p = path_index(r.record.path);
        let early = self.per_path[p] < PER_PATH;
        let drawn = mix(self.seed, self.seen).is_multiple_of(64) && self.samples.len() < SAMPLE_CAP;
        if early || drawn {
            self.per_path[p] += 1;
            self.samples.push(Sample {
                spec: r.record.spec,
                image: Arc::clone(&r.image),
                path: r.record.path,
            });
        }
    }
}

/// Largest per-byte difference from the reference render allowed for an
/// `Average` answer built from cached results. Projecting an average to a
/// coarser zoom averages already-rounded averages, so such answers may
/// differ from a direct render by a few units per channel; the engine's
/// own end-to-end tests allow the same bound.
const AVERAGE_REUSE_TOLERANCE: u8 = 4;

/// True when the engine's contract makes this answer byte-identical to
/// the reference render: every `Subsample` answer, and every `Average`
/// answer computed wholly from raw pages.
fn byte_exact(spec: &VmQuery, path: AnswerPath) -> bool {
    spec.op == VmOp::Subsample || path == AnswerPath::FullCompute
}

/// Compares every sampled answer with the reference renderer — byte for
/// byte where [`byte_exact`] holds, within [`AVERAGE_REUSE_TOLERANCE`]
/// otherwise — and checks that each path in `required` was sampled.
/// Returns the number of answers compared byte for byte.
pub fn check_answers(samples: &[Sample], required: &[AnswerPath]) -> Result<usize, String> {
    for p in required {
        if !samples.iter().any(|s| s.path == *p) {
            return Err(format!("no {p:?} answer was sampled"));
        }
    }
    let mut exact = 0;
    for s in samples {
        let want = reference_render(&s.spec).data;
        let ok = if byte_exact(&s.spec, s.path) {
            exact += 1;
            *s.image == want[..]
        } else {
            s.image.len() == want.len()
                && s.image
                    .iter()
                    .zip(&want)
                    .all(|(g, w)| g.abs_diff(*w) <= AVERAGE_REUSE_TOLERANCE)
        };
        if !ok {
            let worst = s.image.iter().zip(&want).map(|(g, w)| g.abs_diff(*w)).max();
            let differing = s.image.iter().zip(&want).filter(|(g, w)| g != w).count();
            return Err(format!(
                "{:?} answer for {:?} differs from the reference render \
                 ({differing} of {} bytes differ, by up to {worst:?})",
                s.path,
                s.spec,
                want.len()
            ));
        }
    }
    Ok(exact)
}

/// Query conservation: every submitted query ended exactly one way.
pub fn check_conservation(submitted: usize, s: &ServerSummary) -> Result<(), String> {
    let ended = s.completed + s.failed + s.timed_out + s.shed + s.rejected;
    if submitted == ended {
        Ok(())
    } else {
        Err(format!(
            "submitted {submitted} != completed {} + failed {} + timed_out {} + shed {} + rejected {}",
            s.completed, s.failed, s.timed_out, s.shed, s.rejected
        ))
    }
}

/// FNV-1a digest of a simulation report: its makespan and every query's
/// virtual arrival, start, finish and blocked time, in record order.
pub fn sim_digest(r: &SimReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(r.makespan.to_bits());
    eat(r.records.len() as u64);
    for q in &r.records {
        eat(q.id.0);
        for t in [q.arrival, q.start, q.finish, q.blocked] {
            eat(t.to_bits());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;
    use vmqs_server::{QueryServer, ServerConfig};
    use vmqs_storage::SyntheticSource;

    fn answers() -> Vec<QueryResult> {
        let server = QueryServer::new(
            ServerConfig::small().with_threads(1),
            StdArc::new(SyntheticSource::new()),
        );
        let qs = crate::gen::browse_streams(5, 0, 1);
        let out: Vec<QueryResult> = qs[0]
            .iter()
            .chain(&qs[1])
            .take(12)
            .map(|q| server.submit(*q).wait().expect("query answers"))
            .collect();
        server.shutdown();
        out
    }

    #[test]
    fn the_gate_passes_true_answers_and_fails_one_corrupt_byte() {
        let mut sampler = Sampler::new(1);
        for r in &answers() {
            sampler.offer(r);
        }
        assert!(check_answers(&sampler.samples, &[]).is_ok());
        let mid = sampler.samples.len() / 2;
        let s = &mut sampler.samples[mid];
        let mut bytes = s.image.to_vec();
        let i = bytes.len() / 3;
        bytes[i] ^= 0x80;
        s.image = bytes.into();
        assert!(check_answers(&sampler.samples, &[]).is_err());
    }

    #[test]
    fn the_gate_requires_each_named_path() {
        assert!(check_answers(&[], &[AnswerPath::FullCompute]).is_err());
    }

    #[test]
    fn conservation_counts_every_ending() {
        let s = ServerSummary {
            completed: 7,
            failed: 1,
            shed: 2,
            ..ServerSummary::default()
        };
        assert!(check_conservation(10, &s).is_ok());
        assert!(check_conservation(11, &s).is_err());
    }
}
