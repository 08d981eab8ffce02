//! The load generator (`workload` layer): seeded query streams, and the
//! closed-loop, windowed and batch loops that offer them from one thread.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use vmqs_core::{clock, DatasetId, Rect};
use vmqs_microscope::{SlideDataset, VmOp, VmQuery};
use vmqs_workload::{flatten_to_batch, generate, WorkloadConfig};

/// Output side of the server workloads' images, in pixels.
const OUTPUT_SIDE: u32 = 256;
/// Disjoint tiles replayed by `hot_hits`.
pub const HOT_TILES: usize = 128;
const HOT_TILE_SIDE: u32 = 32;
/// How long the closed loop sleeps when a sweep over its clients finds no
/// answer, so the generator does not take a core from the workers.
const POLL_SLEEP: Duration = Duration::from_micros(250);
/// The batch collector's sleep: one sweep over thousands of handles costs
/// tens of microseconds, so it sleeps longer between sweeps.
const COLLECT_SLEEP: Duration = Duration::from_millis(1);

/// SplitMix64: derives independent seeds from one workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One epoch of the paper's §5 interactive workload at 256-pixel outputs:
/// 16 clients browsing three slides (8/6/2), zooms 1/2/4/8, hotspot
/// sessions. Odd-numbered clients use `Average`, even ones `Subsample`.
fn browse_epoch(seed: u64, epoch: u64) -> Vec<Vec<VmQuery>> {
    let mut cfg = WorkloadConfig::paper(VmOp::Subsample, mix(seed, epoch));
    cfg.output_side = OUTPUT_SIDE;
    generate(&cfg)
        .into_iter()
        .enumerate()
        .map(|(c, s)| {
            let op = if c % 2 == 1 {
                VmOp::Average
            } else {
                VmOp::Subsample
            };
            s.queries.into_iter().map(|q| VmQuery { op, ..q }).collect()
        })
        .collect()
}

/// Per-client streams made of `epochs` consecutive epochs, starting at
/// epoch `first`. Each epoch re-draws the hotspots, so a long run averages
/// over many class sessions instead of repeating one seed's hotspots.
pub fn browse_streams(seed: u64, first: u64, epochs: u64) -> Vec<Vec<VmQuery>> {
    let mut streams: Vec<Vec<VmQuery>> = Vec::new();
    for e in first..first + epochs {
        for (c, qs) in browse_epoch(seed, e).into_iter().enumerate() {
            if streams.len() <= c {
                streams.push(Vec::new());
            }
            streams[c].extend(qs);
        }
    }
    streams
}

/// One batch: `epochs` epochs of the browse generator, flattened
/// round-robin across clients by `flatten_to_batch`.
pub fn batch_round(seed: u64, first: u64, epochs: u64) -> Vec<VmQuery> {
    let streams: Vec<vmqs_sim::ClientStream> = browse_streams(seed, first, epochs)
        .into_iter()
        .enumerate()
        .map(|(c, queries)| vmqs_sim::ClientStream {
            client: vmqs_core::ClientId(c as u64),
            queries,
        })
        .collect();
    flatten_to_batch(&streams)
        .into_iter()
        .flat_map(|s| s.queries)
        .collect()
}

/// The 128 disjoint 32×32 zoom-1 tiles of `hot_hits`, on one slide.
pub fn hot_tiles() -> Vec<VmQuery> {
    let slide = SlideDataset::new(DatasetId(0), 4096, 4096);
    let per_row = (4096 / HOT_TILE_SIDE) as usize;
    (0..HOT_TILES)
        .map(|i| {
            let x = (i % per_row) as u32 * HOT_TILE_SIDE;
            let y = (i / per_row) as u32 * HOT_TILE_SIDE;
            let r = Rect::new(x, y, HOT_TILE_SIDE, HOT_TILE_SIDE);
            VmQuery::new(slide, r, 1, VmOp::Subsample)
        })
        .collect()
}

/// Endless replay of `tiles`, one seeded permutation per pass.
pub fn replay(tiles: Vec<VmQuery>, seed: u64) -> impl Iterator<Item = VmQuery> {
    (0u64..).flat_map(move |pass| {
        let mut order = tiles.clone();
        // Fisher–Yates with a SplitMix64 stream.
        for i in (1..order.len()).rev() {
            let j = (mix(seed, pass * 1_000_003 + i as u64) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    })
}

/// What the load loops offer their queries to.
pub trait Target {
    type Query: Copy;
    type Handle;
    type Output;
    fn submit(&self, client: usize, q: Self::Query) -> Self::Handle;
    /// Non-blocking: the answer, if it has arrived.
    fn poll(&self, h: &Self::Handle) -> Option<Self::Output>;
    /// Blocks until the answer arrives.
    fn wait(&self, h: Self::Handle) -> Self::Output;
}

/// One answered query, seen from the generator.
pub struct Done<O> {
    pub client: usize,
    /// Just before the submit call.
    pub submit_start: Instant,
    /// Just after it returned.
    pub submit_end: Instant,
    /// When the generator had the answer in hand.
    pub recv: Instant,
    pub out: O,
}

struct InFlight<H> {
    client: usize,
    submit_start: Instant,
    submit_end: Instant,
    h: H,
}

fn send<T: Target>(t: &T, client: usize, q: T::Query) -> InFlight<T::Handle> {
    let submit_start = clock::now();
    let h = t.submit(client, q);
    InFlight {
        client,
        submit_start,
        submit_end: clock::now(),
        h,
    }
}

/// Closed loop: each client has at most one query outstanding and sends
/// its next one as soon as the previous answer arrives. One thread polls
/// every client in turn. No query is sent after `deadline`; the loop ends
/// when every client's last query has been answered. Returns the number
/// of queries sent.
pub fn closed_loop<T: Target>(
    t: &T,
    streams: &[Vec<T::Query>],
    deadline: Option<Instant>,
    mut on_done: impl FnMut(Done<T::Output>),
) -> usize {
    let open = |now: Instant| deadline.is_none_or(|d| now < d);
    let mut next = vec![0usize; streams.len()];
    let mut slots: Vec<Option<InFlight<T::Handle>>> = Vec::with_capacity(streams.len());
    let mut sent = 0;
    for (c, s) in streams.iter().enumerate() {
        let slot = (open(clock::now()) && !s.is_empty()).then(|| {
            next[c] = 1;
            sent += 1;
            send(t, c, s[0])
        });
        slots.push(slot);
    }
    while slots.iter().any(Option::is_some) {
        let mut progressed = false;
        for c in 0..slots.len() {
            let Some(out) = slots[c].as_ref().and_then(|f| t.poll(&f.h)) else {
                continue;
            };
            progressed = true;
            let recv = clock::now();
            let f = slots[c].take().expect("slot polled above");
            on_done(Done {
                client: f.client,
                submit_start: f.submit_start,
                submit_end: f.submit_end,
                recv,
                out,
            });
            if open(clock::now()) && next[c] < streams[c].len() {
                slots[c] = Some(send(t, c, streams[c][next[c]]));
                next[c] += 1;
                sent += 1;
            }
        }
        if !progressed {
            std::thread::sleep(POLL_SLEEP);
        }
    }
    sent
}

/// Windowed loop: keeps `window` queries outstanding and blocks on the
/// oldest. Sends `limit` queries, or until `deadline`; then waits for the
/// rest. Returns the number of queries sent.
pub fn windowed<T: Target>(
    t: &T,
    queries: &mut impl Iterator<Item = T::Query>,
    window: usize,
    limit: usize,
    deadline: Option<Instant>,
    mut on_done: impl FnMut(Done<T::Output>),
) -> usize {
    let mut q: VecDeque<InFlight<T::Handle>> = VecDeque::with_capacity(window);
    let mut sent = 0;
    loop {
        let open = sent < limit && deadline.is_none_or(|d| clock::now() < d);
        if open && q.len() < window {
            if let Some(next) = queries.next() {
                q.push_back(send(t, sent % window, next));
                sent += 1;
                continue;
            }
        }
        let Some(f) = q.pop_front() else { break };
        let out = t.wait(f.h);
        on_done(Done {
            client: f.client,
            submit_start: f.submit_start,
            submit_end: f.submit_end,
            recv: clock::now(),
            out,
        });
    }
    sent
}

/// A submitted query: the interval of the submit call and its handle.
pub type Sent<H> = (Instant, Instant, H);

/// Takes each answer of a submitted batch as soon as it arrives, polling
/// the outstanding handles in turn, so answers do not pile up in their
/// channels behind a query that is still running.
pub fn collect<T: Target>(
    t: &T,
    handles: Vec<Sent<T::Handle>>,
    mut on_done: impl FnMut(Done<T::Output>),
) {
    let mut pending = handles;
    while !pending.is_empty() {
        let before = pending.len();
        pending.retain(|(submit_start, submit_end, h)| {
            let Some(out) = t.poll(h) else { return true };
            on_done(Done {
                client: 0,
                submit_start: *submit_start,
                submit_end: *submit_end,
                recv: clock::now(),
                out,
            });
            false
        });
        if pending.len() == before {
            std::thread::sleep(COLLECT_SLEEP);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// Answers a query on its third poll; logs every submission.
    #[derive(Default)]
    struct Fake {
        log: RefCell<Vec<(usize, u32)>>,
        outstanding: RefCell<Vec<usize>>,
        polls: RefCell<Vec<u32>>,
    }

    impl Target for Fake {
        type Query = u32;
        type Handle = (usize, usize);
        type Output = u32;

        fn submit(&self, client: usize, q: u32) -> (usize, usize) {
            let mut out = self.outstanding.borrow_mut();
            if out.len() <= client {
                out.resize(client + 1, 0);
            }
            out[client] += 1;
            assert_eq!(out[client], 1, "client {client} has two queries out");
            self.log.borrow_mut().push((client, q));
            let mut polls = self.polls.borrow_mut();
            polls.push(0);
            (client, polls.len() - 1)
        }

        fn poll(&self, h: &(usize, usize)) -> Option<u32> {
            let mut polls = self.polls.borrow_mut();
            polls[h.1] += 1;
            (polls[h.1] >= 3).then(|| {
                self.outstanding.borrow_mut()[h.0] -= 1;
                self.log.borrow()[h.1].1
            })
        }

        fn wait(&self, h: (usize, usize)) -> u32 {
            self.log.borrow()[h.1].1
        }
    }

    #[test]
    fn closed_loop_sends_each_stream_once_in_order() {
        let streams: Vec<Vec<u32>> = vec![
            (0..7).collect(),
            vec![],
            (100..103).collect(),
            (200..220).collect(),
        ];
        let fake = Fake::default();
        let mut answered = Vec::new();
        let sent = closed_loop(&fake, &streams, None, |d| answered.push((d.client, d.out)));
        assert_eq!(sent, 30);
        for (c, s) in streams.iter().enumerate() {
            let got: Vec<u32> = fake
                .log
                .borrow()
                .iter()
                .filter(|(cl, _)| *cl == c)
                .map(|(_, q)| *q)
                .collect();
            assert_eq!(&got, s, "client {c} stream");
            let answers: Vec<u32> = answered
                .iter()
                .filter(|(cl, _)| *cl == c)
                .map(|(_, q)| *q)
                .collect();
            assert_eq!(&answers, s, "client {c} answers");
        }
    }

    #[test]
    fn closed_loop_sends_nothing_after_the_deadline() {
        let streams: Vec<Vec<u32>> = vec![(0..5).collect(); 3];
        let fake = Fake::default();
        let past = clock::now();
        let sent = closed_loop(&fake, &streams, Some(past), |_| {});
        assert_eq!(sent, 0);
    }

    #[test]
    fn collect_takes_every_answer_once() {
        let fake = Fake::default();
        let now = clock::now();
        let handles: Vec<_> = (0..50)
            .map(|q| (now, now, fake.submit(q as usize, q)))
            .collect();
        let mut answers = Vec::new();
        collect(&fake, handles, |d| answers.push(d.out));
        answers.sort_unstable();
        assert_eq!(answers, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn windowed_keeps_order_and_limit() {
        let fake = Fake::default();
        let mut answers = Vec::new();
        let mut it = 0u32..;
        // One client slot per window position: the fake then checks that
        // no slot is reused while its query is still out.
        let sent = windowed(&fake, &mut it, 1, 10, None, |d| {
            fake.outstanding.borrow_mut()[d.client] -= 1;
            answers.push(d.out)
        });
        assert_eq!(sent, 10);
        assert_eq!(answers, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn streams_are_seeded() {
        assert_eq!(browse_streams(7, 0, 2), browse_streams(7, 0, 2));
        assert_ne!(browse_streams(7, 0, 1), browse_streams(8, 0, 1));
        let s = browse_streams(7, 0, 2);
        assert_eq!(s.len(), 16);
        assert!(s.iter().all(|c| c.len() == 32));
        assert!(s[1].iter().all(|q| q.op == VmOp::Average));
        assert_eq!(batch_round(7, 0, 2).len(), 2 * 256);
        let a: Vec<_> = replay(hot_tiles(), 3).take(300).collect();
        let b: Vec<_> = replay(hot_tiles(), 3).take(300).collect();
        assert_eq!(a, b);
    }
}
