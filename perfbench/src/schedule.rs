//! Open-loop load helpers: seeded arrival schedules, the offered-rate
//! ladder and the pass/fail rule that picks the highest sustainable
//! rate.

use std::time::Duration;

use aeropack_units::SplitMix64;

use crate::stats::{median, percentile};

/// Due times, as offsets from the start of a rung, of `count` requests
/// arriving as a Poisson process of `rate` per second. The first
/// request is due at offset zero; the same generator state gives the
/// same schedule.
pub fn poisson_offsets(rate: f64, count: usize, rng: &mut SplitMix64) -> Vec<Duration> {
    assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
    let mut t = 0.0f64;
    (0..count)
        .map(|i| {
            if i > 0 {
                // Inverse-CDF exponential gap; 1 − u lies in (0, 1].
                t += -(1.0 - rng.next_f64()).ln() / rate;
            }
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// A deck of cards dealt in order and reshuffled each time it runs
/// out, so every full round of deals holds each card exactly once.
#[derive(Debug, Clone)]
pub struct Deck<T> {
    cards: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    pub fn new(cards: Vec<T>) -> Self {
        assert!(!cards.is_empty(), "a deck needs cards");
        Self { cards, next: 0 }
    }

    /// The next card; a new round starts with a Fisher–Yates shuffle
    /// drawn from `rng`.
    pub fn deal(&mut self, rng: &mut SplitMix64) -> T {
        if self.next == 0 {
            for i in (1..self.cards.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                self.cards.swap(i, j);
            }
        }
        let card = self.cards[self.next];
        self.next = (self.next + 1) % self.cards.len();
        card
    }
}

/// How one rung of the ladder went.
#[derive(Debug, Clone, PartialEq)]
pub struct RungOutcome {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// p99 latency from due time, ms, with refused, failed and
    /// timed-out requests counted as infinitely late.
    pub p99_ms: f64,
    /// Whether latency grew through the rung (the queue did not keep
    /// up with the offered rate).
    pub backlog_grows: bool,
}

impl RungOutcome {
    /// Judges one rung from its per-request latencies in send order
    /// (`None` = the request missed: refused, failed or timed out).
    pub fn judge(rate: f64, latencies_ms: &[Option<f64>], limit_ms: f64) -> Self {
        let mut sorted: Vec<f64> = latencies_ms
            .iter()
            .map(|l| l.unwrap_or(f64::INFINITY))
            .collect();
        sorted.sort_by(f64::total_cmp);
        Self {
            rate,
            p99_ms: percentile(&sorted, 99.0),
            backlog_grows: backlog_grows(latencies_ms, limit_ms),
        }
    }

    /// Whether the rung met the latency limit without a growing backlog.
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.p99_ms <= limit_ms && !self.backlog_grows
    }
}

/// A rung's backlog grows when the median latency of its last quarter
/// of requests (in send order) exceeds that of its first quarter by
/// more than half the latency limit: a queue that keeps up shows the
/// same latency throughout, one that falls behind gets later and later.
/// Missed requests count as infinitely late.
pub fn backlog_grows(latencies_ms: &[Option<f64>], limit_ms: f64) -> bool {
    let quarter = latencies_ms.len() / 4;
    if quarter == 0 {
        return false;
    }
    let med = |part: &[Option<f64>]| {
        let mut v: Vec<f64> = part.iter().map(|l| l.unwrap_or(f64::INFINITY)).collect();
        v.sort_by(f64::total_cmp);
        median(&v)
    };
    let first = med(&latencies_ms[..quarter]);
    let last = med(&latencies_ms[latencies_ms.len() - quarter..]);
    last - first > 0.5 * limit_ms
}

/// The highest offered rate whose rung passes, among rungs in any
/// order; `None` when no rung passes.
pub fn max_passing_rate(rungs: &[RungOutcome], limit_ms: f64) -> Option<f64> {
    rungs
        .iter()
        .filter(|r| r.passes(limit_ms))
        .map(|r| r.rate)
        .max_by(f64::total_cmp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_seeded_sorted_and_at_rate() {
        let a = poisson_offsets(500.0, 20_000, &mut SplitMix64::new(7));
        let b = poisson_offsets(500.0, 20_000, &mut SplitMix64::new(7));
        let c = poisson_offsets(500.0, 20_000, &mut SplitMix64::new(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 20_000);
        assert_eq!(a[0], Duration::ZERO);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // 19 999 gaps of mean 2 ms: the span is within 3 % of 40 s.
        let span = a.last().unwrap().as_secs_f64();
        assert!((span - 40.0).abs() < 1.2, "span {span}");
    }

    #[test]
    fn deck_deals_each_card_once_per_round() {
        let cards: Vec<u8> = (0..21).map(|i| i / 4).collect();
        let mut deck = Deck::new(cards.clone());
        let mut rng = SplitMix64::new(3);
        let mut rounds = Vec::new();
        for _ in 0..3 {
            let mut round: Vec<u8> = (0..21).map(|_| deck.deal(&mut rng)).collect();
            rounds.push(round.clone());
            round.sort_unstable();
            assert_eq!(round, cards);
        }
        // Each round is shuffled anew, and the same seed deals the same.
        assert_ne!(rounds[0], rounds[1]);
        let mut again = Deck::new(cards);
        let mut rng = SplitMix64::new(3);
        let first: Vec<u8> = (0..21).map(|_| again.deal(&mut rng)).collect();
        assert_eq!(first, rounds[0]);
    }

    #[test]
    fn steady_rung_has_no_backlog() {
        let lat: Vec<Option<f64>> = (0..400).map(|i| Some(5.0 + (i % 7) as f64)).collect();
        assert!(!backlog_grows(&lat, 50.0));
        let r = RungOutcome::judge(100.0, &lat, 50.0);
        assert_eq!(r.p99_ms, 11.0);
        assert!(r.passes(50.0));
        assert!(!r.passes(10.0));
    }

    #[test]
    fn growing_latency_is_a_backlog() {
        let lat: Vec<Option<f64>> = (0..400).map(|i| Some(1.0 + 0.2 * i as f64)).collect();
        assert!(backlog_grows(&lat, 50.0));
        assert!(!backlog_grows(&lat, 400.0));
    }

    #[test]
    fn misses_count_against_the_rung() {
        let mut lat: Vec<Option<f64>> = vec![Some(2.0); 400];
        for l in lat.iter_mut().skip(390) {
            *l = None;
        }
        let r = RungOutcome::judge(100.0, &lat, 50.0);
        assert!(r.p99_ms.is_infinite());
        assert!(!r.passes(50.0));
        lat[399] = Some(2.0);
        lat.truncate(1);
        assert!(!backlog_grows(&lat, 50.0));
    }

    #[test]
    fn max_rate_is_highest_passing_rung() {
        let rung = |rate, p99_ms, backlog_grows| RungOutcome {
            rate,
            p99_ms,
            backlog_grows,
        };
        let rungs = [
            rung(100.0, 5.0, false),
            rung(200.0, 8.0, false),
            rung(400.0, 20.0, true),
            rung(300.0, 70.0, false),
        ];
        assert_eq!(max_passing_rate(&rungs, 50.0), Some(200.0));
        assert_eq!(max_passing_rate(&rungs, 100.0), Some(300.0));
        assert_eq!(max_passing_rate(&rungs[2..], 10.0), None);
    }
}
